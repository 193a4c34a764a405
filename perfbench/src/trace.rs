//! The benchmark-side timing adapter on the `Application` seam.
//!
//! [`Traced`] wraps one `PdsNode`, forwards every kernel callback to it
//! unchanged, and records one [`Span`] per callback: node, callback kind,
//! host start and end, and the driver step that caused it. It also keeps a
//! sample of received payloads for the codec and Bloom replay. Nothing it
//! records feeds back into the node, so a traced world must reproduce the
//! untraced one exactly; the benchmark checks that it does.

use bytes::Bytes;
use pds_bench::WallClock;
use pds_core::PdsNode;
use pds_sim::{Application, Context, MessageHandle, MessageMeta, NodeId};
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

/// Keep every `SAMPLE_EVERY`-th message a node receives...
const SAMPLE_EVERY: u64 = 8;
/// ...while the world's sampled payloads stay under this many bytes.
const SAMPLE_BUDGET_BYTES: usize = 32 << 20;

/// Which callback a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Start,
    Message,
    Timer,
    SendResult,
    /// A driver call such as `start_discovery`, made through `with_app`.
    Command,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Start => "start",
            Kind::Message => "message",
            Kind::Timer => "timer",
            Kind::SendResult => "send_result",
            Kind::Command => "command",
        }
    }
}

/// One timed callback. Times are host nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub node: u32,
    pub kind: Kind,
    /// The driver step (one `run_until` slice) the callback ran in; 0 is
    /// set-up.
    pub step: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// State shared by every adapter of one world: the clock epoch, the
/// current driver step and the payload sample budget.
#[derive(Clone)]
pub struct Tracer {
    epoch: WallClock,
    step: Arc<AtomicU32>,
    sample_budget: Arc<AtomicUsize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: WallClock::start(),
            step: Arc::new(AtomicU32::new(0)),
            sample_budget: Arc::new(AtomicUsize::new(SAMPLE_BUDGET_BYTES)),
        }
    }

    /// Marks the start of the next driver step.
    pub fn advance_step(&self) {
        self.step.fetch_add(1, Ordering::Relaxed);
    }

    /// Host nanoseconds since the epoch.
    fn now_ns(&self) -> u64 {
        (self.epoch.elapsed_s() * 1e9) as u64
    }
}

/// A `PdsNode` behind the timing adapter.
pub struct Traced {
    inner: PdsNode,
    tracer: Tracer,
    spans: Vec<Span>,
    received: u64,
    samples: Vec<Bytes>,
}

impl Traced {
    pub fn new(inner: PdsNode, tracer: Tracer) -> Self {
        Self {
            inner,
            tracer,
            spans: Vec::new(),
            received: 0,
            samples: Vec::new(),
        }
    }

    pub fn inner(&self) -> &PdsNode {
        &self.inner
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn samples(&self) -> &[Bytes] {
        &self.samples
    }

    fn timed<R>(&mut self, kind: Kind, node: NodeId, f: impl FnOnce(&mut PdsNode) -> R) -> R {
        let step = self.tracer.step.load(Ordering::Relaxed);
        let start_ns = self.tracer.now_ns();
        let out = f(&mut self.inner);
        let end_ns = self.tracer.now_ns();
        self.spans.push(Span {
            node: node.0,
            kind,
            step,
            start_ns,
            end_ns,
        });
        out
    }

    /// Runs a driver command on the wrapped node, timed as a span.
    pub fn command(&mut self, ctx: &mut Context, f: impl FnOnce(&mut PdsNode, &mut Context)) {
        self.timed(Kind::Command, ctx.node_id(), |n| f(n, ctx));
    }

    fn sample(&mut self, payload: &Bytes) {
        let keep = self.received.is_multiple_of(SAMPLE_EVERY);
        self.received += 1;
        if !keep {
            return;
        }
        let budget = &self.tracer.sample_budget;
        let left = budget.load(Ordering::Relaxed);
        if payload.len() <= left {
            budget.store(left - payload.len(), Ordering::Relaxed);
            self.samples.push(payload.clone());
        }
    }
}

impl Application for Traced {
    fn on_start(&mut self, ctx: &mut Context) {
        self.timed(Kind::Start, ctx.node_id(), |n| n.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context, meta: MessageMeta, payload: Bytes) {
        self.sample(&payload);
        self.timed(Kind::Message, ctx.node_id(), |n| {
            n.on_message(ctx, meta, payload);
        });
    }

    fn on_timer(&mut self, ctx: &mut Context, tag: u64) {
        self.timed(Kind::Timer, ctx.node_id(), |n| n.on_timer(ctx, tag));
    }

    fn on_send_result(&mut self, ctx: &mut Context, message: MessageHandle, delivered: bool) {
        self.timed(Kind::SendResult, ctx.node_id(), |n| {
            n.on_send_result(ctx, message, delivered);
        });
    }
}

/// Header line of the span file [`write_spans`] appends to.
pub const SPAN_HEADER: &str = "world\tnode\tkind\tstep\tstart_ns\tend_ns";

/// Writes spans as tab-separated text, one span a line.
pub fn write_spans(out: &mut impl Write, world: &str, spans: &[Span]) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{world}\t{}\t{}\t{}\t{}\t{}",
            s.node,
            s.kind.name(),
            s.step,
            s.start_ns,
            s.end_ns
        )?;
    }
    Ok(())
}
