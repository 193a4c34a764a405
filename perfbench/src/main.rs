//! End-to-end and per-layer benchmark of the PDS paper workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload pdd_mixedcast --seed 11 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` runs a fixed set of fresh untraced worlds of the workload,
//! repeats the set while `--seconds` leave room, and reports the end-to-end
//! metrics as medians over the worlds, host times at a fixed pace (`pace`).
//! `--trace 1` runs the first worlds once untraced and once with every
//! `PdsNode` behind the timing adapter, and reports the per-layer metrics. Every metric is printed as
//! `name value unit`; the last line is one JSON object with the verdict of
//! the output checks and the metrics. See README.md.

mod pace;
mod trace;
mod worlds;

use pace::Pacer;
use pds_bench::WallClock;
use pds_bloom::BloomFilter;
use pds_core::PdsMessage;
use pds_sim::Stats;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use trace::{Span, Traced, Tracer};
use worlds::{Outcome, Run, Spec};

/// Worlds the traced run covers.
const TRACED_WORLDS: u64 = 4;
/// Set-ups timed per world, besides the one the world runs on.
const EXTRA_SETUPS: usize = 9;
/// Times each sampled payload is decoded and encoded in the codec replay.
const CODEC_REPLAYS: u32 = 4;

/// A named workload: the fresh worlds it runs, one after another.
#[derive(Debug, Clone, Copy)]
enum Workload {
    PddMixedcast,
    RetrievalPdrMdr,
    CityStadium,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "pdd_mixedcast" => Some(Self::PddMixedcast),
            "retrieval_pdr_mdr" => Some(Self::RetrievalPdrMdr),
            "city_stadium" => Some(Self::CityStadium),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::PddMixedcast => "pdd_mixedcast",
            Self::RetrievalPdrMdr => "retrieval_pdr_mdr",
            Self::CityStadium => "city_stadium",
        }
    }

    fn specs(self) -> &'static [Spec] {
        match self {
            Self::PddMixedcast => &[Spec::Pdd],
            Self::RetrievalPdrMdr => &[Spec::Pdr, Spec::Mdr],
            Self::CityStadium => &[Spec::City],
        }
    }

    /// Worlds an end-to-end run measures: a fixed set, so that two builds
    /// time the same work whatever their speed. Sized so one pass over
    /// them takes 14 to 27 s on a shared 2-core host, as its load varies.
    fn worlds(self) -> u64 {
        match self {
            Self::PddMixedcast | Self::CityStadium => 16,
            Self::RetrievalPdrMdr => 27,
        }
    }

    /// World `k` of the run: one fresh world of each kind, seeded
    /// `mix(seed, k)`.
    fn world(self, seed: u64, k: u64) -> Vec<(Spec, u64)> {
        self.specs().iter().map(|&s| (s, mix(seed, k))).collect()
    }
}

/// SplitMix64 of `seed` and `k`: independent world seeds from one run seed.
fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 11;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Metrics in print order: name, value, unit. Values are per world (the
/// median over the run's worlds) for `--trace 0`, and sums over the traced
/// worlds for `--trace 1`.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// Output checks; a failed check makes the run incorrect.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    /// Invariants every world's result must satisfy.
    fn outcome(&mut self, spec: Spec, run: &Run) {
        let o = &run.outcome;
        self.expect(run.engine.decode_errors == 0, || {
            format!("{spec:?}: {} decode errors", run.engine.decode_errors)
        });
        let t = &o.total_stats;
        self.expect(t.data_bytes_by_phase.total() == t.data_bytes_sent, || {
            format!("{spec:?}: phase bytes do not add up to data_bytes_sent")
        });
        let started = o.reports.iter().flatten().count();
        self.expect(started == o.consumers, || {
            format!("{spec:?}: {started} of {} sessions started", o.consumers)
        });
        // A session either finished by the deadline, or failed: it is
        // unfinished and the run went on to the deadline.
        let deadline = spec.deadline();
        let finished = o
            .reports
            .iter()
            .flatten()
            .filter(|r| r.finished_at().is_some_and(|t| t <= deadline))
            .count();
        let failed = o
            .reports
            .iter()
            .flatten()
            .filter(|r| r.finished_at().is_none() && run.ended_at >= deadline)
            .count();
        self.expect(finished + failed == started, || {
            format!("{spec:?}: of {started} sessions {finished} finished and {failed} failed")
        });
    }

    fn same(&mut self, what: &str, a: &[Outcome], b: &[Outcome]) {
        self.expect(a == b, || format!("{what} differ"));
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Sessions over all worlds: (started, failed).
fn session_counts(outcomes: &[Outcome]) -> (usize, usize) {
    let reports = outcomes.iter().flat_map(|o| o.reports.iter().flatten());
    let (started, finished) =
        reports.fold((0, 0), |(s, f), r| (s + 1, f + usize::from(r.finished())));
    (started, started - finished)
}

/// The simulated session outcomes: deterministic for a seed. A world
/// without sessions (the city) reports 0 for each.
fn session_metrics(m: &mut Metrics, outcomes: &[Outcome]) {
    let mut recalls = Vec::new();
    let mut delays = Vec::new();
    for o in outcomes {
        for r in o.reports.iter().flatten() {
            recalls.push(r.recall(o.total_entries));
            delays.push(r.delay_s());
        }
    }
    let (started, failed) = session_counts(outcomes);
    let (recall, failed_ratio, p50, max) = if started == 0 {
        (0.0, 0.0, 0.0, 0.0)
    } else {
        (
            recalls.iter().sum::<f64>() / recalls.len() as f64,
            failed as f64 / started as f64,
            median(&mut delays.clone()),
            delays.iter().copied().fold(0.0, f64::max),
        )
    };
    m.put("sessions", started as f64, "count");
    m.put("recall", recall, "ratio");
    m.put("sessions_failed_ratio", failed_ratio, "ratio");
    m.put("session_delay_p50_s", p50, "sim_s");
    m.put("session_delay_max_s", max, "sim_s");
}

fn overhead_mb(outcomes: &[Outcome]) -> f64 {
    outcomes.iter().map(|o| o.stats.bytes_sent).sum::<u64>() as f64 / 1e6
}

/// The median over worlds of each world's median over its passes.
fn median_of_medians(per_world: &mut [Vec<f64>]) -> f64 {
    let mut medians: Vec<f64> = per_world.iter_mut().map(|w| median(w)).collect();
    median(&mut medians)
}

/// Untraced runs of the workload's fixed worlds: the end-to-end metrics,
/// as medians over the worlds. The first pass over the worlds always runs;
/// time left in `--seconds` only repeats whole passes over the same
/// worlds, and a world's host figures are the medians over its passes.
/// Host times are at the nominal pace: see `pace`.
fn end_to_end(args: &Args, checks: &mut Checks) -> (Metrics, Vec<Outcome>) {
    let t0 = WallClock::start();
    let worlds: Vec<Vec<(Spec, u64)>> = (0..args.workload.worlds())
        .map(|k| args.workload.world(args.seed, k))
        .collect();
    let mut pacer = Pacer::new();
    let mut setups = vec![Vec::new(); worlds.len()];
    let mut raw_setups = vec![Vec::new(); worlds.len()];
    let mut walls = vec![Vec::new(); worlds.len()];
    let mut raw_walls = vec![Vec::new(); worlds.len()];
    let mut rss = vec![Vec::new(); worlds.len()];
    let mut first_pass: Vec<Outcome> = Vec::new();
    let mut outcomes = Vec::new();
    let mut passes = 0;
    loop {
        let t_pass = WallClock::start();
        let mut pass = Vec::new();
        for (k, world) in worlds.iter().enumerate() {
            let (mut setup, mut raw_setup, mut wall, mut raw_wall, mut peak) =
                (0.0, 0.0, 0.0, 0.0, 0.0_f64);
            // Each kind's pace, for the set-ups that follow the world.
            let mut world_paces = Vec::new();
            for &(spec, seed) in world {
                let run = worlds::run(spec, seed, None, &mut pacer);
                checks.outcome(spec, &run);
                setup += Pacer::scale(run.setup_s, run.pace_s);
                raw_setup += run.setup_s;
                wall += Pacer::scale(run.wall_s, run.pace_s);
                raw_wall += run.wall_s;
                peak = peak.max(run.peak_rss_mb);
                world_paces.push(run.pace_s);
                pass.push(run.outcome);
            }
            setups[k].push(setup);
            raw_setups[k].push(raw_setup);
            walls[k].push(wall);
            raw_walls[k].push(raw_wall);
            rss[k].push(peak);
            for _ in 0..EXTRA_SETUPS {
                let (mut setup, mut raw_setup) = (0.0, 0.0);
                for (&(spec, seed), &pace_s) in world.iter().zip(&world_paces) {
                    let t = WallClock::start();
                    let built = worlds::setup(spec, seed, None);
                    let host_s = t.elapsed_s();
                    drop(built);
                    setup += Pacer::scale(host_s, pace_s);
                    raw_setup += host_s;
                }
                setups[k].push(setup);
                raw_setups[k].push(raw_setup);
            }
        }
        passes += 1;
        if passes == 1 {
            first_pass.clone_from(&pass);
        } else {
            checks.same("same-seed passes", &first_pass, &pass);
        }
        outcomes.extend(pass);
        if t0.elapsed_s() + t_pass.elapsed_s() > args.seconds {
            break;
        }
    }
    if passes == 1 {
        // Same-seed determinism: world 0 again must reproduce exactly.
        let again: Vec<Outcome> = worlds[0]
            .iter()
            .map(|&(spec, seed)| worlds::run(spec, seed, None, &mut pacer).outcome)
            .collect();
        checks.same("same-seed runs", &first_pass[..again.len()], &again);
    }
    let mut overheads: Vec<f64> = first_pass
        .chunks(args.workload.specs().len())
        .map(overhead_mb)
        .collect();
    let pace_s = pacer.pace_since(0);
    let raw_setup_s = median_of_medians(&mut raw_setups);
    let raw_wall_s = median_of_medians(&mut raw_walls);
    let mut m = Metrics::default();
    m.put("wall_s", median_of_medians(&mut walls), "s");
    m.put("setup_s", median_of_medians(&mut setups), "s");
    m.put("peak_rss_mb", median_of_medians(&mut rss), "MB");
    m.put("overhead_mb", median(&mut overheads), "MB");
    println!(
        "host: reference {:.4} ms a pass (nominal {:.4} ms); unscaled wall_s {raw_wall_s:.4} s, setup_s {raw_setup_s:.6} s",
        pace_s * 1e3,
        pace::NOMINAL_S * 1e3
    );
    println!(
        "samples: worlds={} passes={passes} setups={} paces={}",
        worlds.len(),
        setups.iter().map(Vec::len).sum::<usize>(),
        pacer.len()
    );
    (m, outcomes)
}

/// Sums over the traced worlds of a workload, turned into per-layer
/// metrics by [`Layers::metrics`].
#[derive(Default)]
struct Layers {
    traced_wall_s: f64,
    /// Walls at the nominal pace, for `trace.overhead_ratio`.
    untraced_paced_s: f64,
    traced_paced_s: f64,
    run_until_s: f64,
    callbacks: u64,
    self_s: f64,
    on_message_s: f64,
    on_timer_s: f64,
    command_s: f64,
    codec_samples: u64,
    sample_bytes: u64,
    decode_s: f64,
    encode_s: f64,
    query_filters: u64,
    filter_bytes: u64,
    fill_ratio_sum: f64,
    engine: worlds::EngineState,
    stats: Vec<Stats>,
    events: u64,
    bucket_depth_max: u64,
    os_depth_max: u64,
}

impl Layers {
    /// Folds one traced world in: its callback spans over the session
    /// window and the codec and Bloom replay of its sampled payloads.
    fn add(&mut self, run: &Run, spans: &[Span], samples: &[bytes::Bytes]) {
        self.traced_wall_s += run.wall_s;
        self.traced_paced_s += Pacer::scale(run.wall_s, run.pace_s);
        self.run_until_s += run.probe.run_until_s;
        self.bucket_depth_max = self.bucket_depth_max.max(run.probe.bucket_depth_max);
        self.os_depth_max = self.os_depth_max.max(run.probe.os_depth_max);
        self.stats.push(run.outcome.stats.clone());
        self.events += run.outcome.events;
        let e = &run.engine;
        let sum = &mut self.engine;
        sum.lqt_entries += e.lqt_entries;
        sum.lqt_bytes += e.lqt_bytes;
        sum.meta_entries += e.meta_entries;
        sum.chunk_bytes += e.chunk_bytes;
        sum.decode_errors += e.decode_errors;
        sum.resends += e.resends;
        for s in spans.iter().filter(|s| s.step > 0) {
            self.callbacks += 1;
            self.self_s += s.secs();
            match s.kind {
                trace::Kind::Message => self.on_message_s += s.secs(),
                trace::Kind::Timer => self.on_timer_s += s.secs(),
                trace::Kind::Command => self.command_s += s.secs(),
                trace::Kind::Start | trace::Kind::SendResult => {}
            }
        }
        for payload in samples {
            let Ok(message) = PdsMessage::decode(payload) else {
                continue;
            };
            self.codec_samples += 1;
            self.sample_bytes += payload.len() as u64;
            let t = WallClock::start();
            for _ in 0..CODEC_REPLAYS {
                std::hint::black_box(PdsMessage::decode(std::hint::black_box(payload)).is_ok());
            }
            self.decode_s += t.elapsed_s() / f64::from(CODEC_REPLAYS);
            let t = WallClock::start();
            for _ in 0..CODEC_REPLAYS {
                std::hint::black_box(std::hint::black_box(&message).encode());
            }
            self.encode_s += t.elapsed_s() / f64::from(CODEC_REPLAYS);
            if let PdsMessage::Query(q) = &message {
                if let Some(filter) = q.bloom.as_deref().and_then(|b| BloomFilter::decode(b).ok()) {
                    self.query_filters += 1;
                    self.filter_bytes += q.bloom.as_ref().map_or(0, Vec::len) as u64;
                    self.fill_ratio_sum += filter.fill_ratio();
                }
            }
        }
    }

    fn metrics(&self, m: &mut Metrics) {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let sum = |f: fn(&Stats) -> u64| self.stats.iter().map(f).sum::<u64>();
        m.put("core.callbacks", self.callbacks as f64, "count");
        m.put("core.self_s", self.self_s, "s");
        m.put(
            "core.share",
            ratio(self.self_s, self.traced_wall_s),
            "ratio",
        );
        m.put(
            "core.us_per_callback",
            ratio(self.self_s * 1e6, self.callbacks as f64),
            "us",
        );
        m.put("core.on_message_s", self.on_message_s, "s");
        m.put("core.on_timer_s", self.on_timer_s, "s");
        let samples = self.codec_samples as f64;
        m.put("core.codec.samples", samples, "count");
        m.put(
            "core.codec.decode_us",
            ratio(self.decode_s * 1e6, samples),
            "us",
        );
        m.put(
            "core.codec.encode_us",
            ratio(self.encode_s * 1e6, samples),
            "us",
        );
        m.put(
            "core.codec.msg_bytes_mean",
            ratio(self.sample_bytes as f64, samples),
            "B",
        );
        let e = &self.engine;
        m.put("core.lqt.entries", e.lqt_entries as f64, "count");
        m.put("core.lqt.bytes", e.lqt_bytes as f64, "B");
        m.put("core.store.meta_entries", e.meta_entries as f64, "count");
        m.put("core.cache.chunk_bytes", e.chunk_bytes as f64, "B");
        m.put("core.decode_errors", e.decode_errors as f64, "count");
        m.put("core.resends", e.resends as f64, "count");

        let filters = self.query_filters as f64;
        m.put("bloom.query_filters", filters, "count");
        m.put(
            "bloom.filter_bytes_mean",
            ratio(self.filter_bytes as f64, filters),
            "B",
        );
        m.put(
            "bloom.fill_ratio_mean",
            ratio(self.fill_ratio_sum, filters),
            "ratio",
        );

        // Callbacks inside `run_until` are engine time; the rest of it is
        // the kernel's own (wheel, grid, radio, transport).
        let sim_self_s = (self.run_until_s - (self.self_s - self.command_s)).max(0.0);
        let events = self.events as f64;
        m.put("sim.events", events, "count");
        m.put("sim.self_s", sim_self_s, "s");
        m.put("sim.ns_per_event", ratio(sim_self_s * 1e9, events), "ns");

        let frames = sum(|s| s.frames_sent) as f64;
        let delivered = sum(|s| s.frames_delivered) as f64;
        let collided = sum(|s| s.frames_collided) as f64;
        let receptions = delivered
            + collided
            + sum(|s| s.frames_half_duplex) as f64
            + sum(|s| s.frames_lost_random) as f64;
        m.put("sim.radio.frames_sent", frames, "count");
        m.put("sim.radio.receptions", receptions, "count");
        m.put(
            "sim.radio.delivered_ratio",
            ratio(delivered, receptions),
            "ratio",
        );
        m.put(
            "sim.radio.collided_ratio",
            ratio(collided, receptions),
            "ratio",
        );
        m.put(
            "sim.radio.ns_per_reception",
            ratio(sim_self_s * 1e9, receptions),
            "ns",
        );

        let sent = sum(|s| s.messages_sent) as f64;
        let failed = sum(|s| s.messages_failed) as f64;
        let retx = sum(|s| s.frames_retransmitted) as f64;
        m.put("sim.transport.messages_sent", sent, "count");
        m.put("sim.transport.messages_failed", failed, "count");
        m.put("sim.transport.failed_ratio", ratio(failed, sent), "ratio");
        m.put("sim.transport.retx_frames", retx, "count");
        m.put("sim.transport.retx_ratio", ratio(retx, frames), "ratio");
        m.put(
            "sim.transport.ack_bytes_share",
            ratio(
                sum(|s| s.ack_bytes_sent) as f64,
                sum(|s| s.bytes_sent) as f64,
            ),
            "ratio",
        );
        m.put(
            "sim.transport.os_drops",
            sum(|s| s.frames_dropped_os) as f64,
            "count",
        );

        m.put(
            "sim.bytes.pdd",
            sum(|s| s.data_bytes_by_phase.pdd) as f64,
            "B",
        );
        m.put(
            "sim.bytes.pdr",
            sum(|s| s.data_bytes_by_phase.pdr) as f64,
            "B",
        );
        m.put(
            "sim.bytes.mdr",
            sum(|s| s.data_bytes_by_phase.mdr) as f64,
            "B",
        );
        m.put(
            "sim.bytes.other",
            sum(|s| s.data_bytes_by_phase.other) as f64,
            "B",
        );
        m.put("sim.queue.os_depth_max", self.os_depth_max as f64, "B");
        m.put(
            "sim.queue.bucket_depth_max",
            self.bucket_depth_max as f64,
            "B",
        );

        m.put(
            "trace.overhead_ratio",
            ratio(self.traced_paced_s, self.untraced_paced_s),
            "ratio",
        );
    }
}

/// Where the traced run's spans are written: the build directory, which
/// is ignored by git.
fn span_path(workload: Workload) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || std::path::PathBuf::from("perfbench/target"),
        std::path::PathBuf::from,
    );
    dir.join(format!("spans-{}.tsv", workload.name()))
}

/// The first `TRACED_WORLDS` worlds, each run untraced and then traced:
/// the per-layer metrics. Each traced world must reproduce its untraced
/// run exactly, and the first untraced PDS worlds must match the
/// `GridScenario` builds of their seeds.
fn per_layer(args: &Args, checks: &mut Checks) -> (Metrics, Vec<Outcome>) {
    let mut layers = Layers::default();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let path = span_path(args.workload);
    let mut span_file = std::fs::create_dir_all(path.parent().expect("a file in a directory"))
        .and_then(|()| std::fs::File::create(&path))
        .map(std::io::BufWriter::new)
        .map_err(|e| format!("cannot write {}: {e}", path.display()));
    if let Ok(f) = span_file.as_mut() {
        let _ = writeln!(f, "{}", trace::SPAN_HEADER);
    }
    let jobs: Vec<(Spec, u64)> = (0..TRACED_WORLDS)
        .flat_map(|k| args.workload.world(args.seed, k))
        .collect();
    let mut pacer = Pacer::new();
    for (i, &(spec, seed)) in jobs.iter().enumerate() {
        // The pair's order alternates, so that warm-up favours neither run
        // in `trace.overhead_ratio`.
        let untraced_first = i % 2 == 0;
        let mut run_untraced = |pacer: &mut Pacer| {
            let run = worlds::run(spec, seed, None, pacer);
            checks.outcome(spec, &run);
            layers.untraced_paced_s += Pacer::scale(run.wall_s, run.pace_s);
            untraced.push(run.outcome);
        };
        if untraced_first {
            run_untraced(&mut pacer);
        }
        let tracer = Tracer::new();
        let run = worlds::run(spec, seed, Some(&tracer), &mut pacer);
        if !untraced_first {
            run_untraced(&mut pacer);
        }
        checks.outcome(spec, &run);
        let mut spans = Vec::new();
        let mut samples = Vec::new();
        for &id in &run.nodes {
            if let Some(t) = run.world.app::<Traced>(id) {
                spans.extend_from_slice(t.spans());
                samples.extend_from_slice(t.samples());
            }
        }
        layers.add(&run, &spans, &samples);
        if let Ok(f) = span_file.as_mut() {
            let name = format!("{spec:?}-{seed}");
            if let Err(e) = trace::write_spans(f, &name, &spans) {
                span_file = Err(format!("cannot write {}: {e}", path.display()));
            }
        }
        traced.push(run.outcome);
    }
    checks.same("traced and untraced outcomes", &untraced, &traced);
    // The look-alike check costs a third run, so it covers the first
    // world of each kind; every seed gives different first worlds.
    let specs = args.workload.specs();
    let reference: Vec<Outcome> = jobs[..specs.len()]
        .iter()
        .filter(|(spec, _)| *spec != Spec::City)
        .map(|&(spec, seed)| worlds::reference(spec, seed))
        .collect();
    if !reference.is_empty() {
        checks.same(
            "benchmark-built and GridScenario outcomes",
            &untraced[..specs.len()],
            &reference,
        );
    }
    match span_file.and_then(|mut f| f.flush().map_err(|e| e.to_string())) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => checks.0.push(e),
    }
    let mut m = Metrics::default();
    layers.metrics(&mut m);
    // The per-layer times are unscaled host times; this is the pace they
    // were taken at.
    m.put("host.reference_ms", pacer.pace_since(0) * 1e3, "ms");
    println!("samples: worlds={TRACED_WORLDS} paces={}", pacer.len());
    (m, untraced)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload pdd_mixedcast|retrieval_pdr_mdr|city_stadium \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let (mut metrics, outcomes) = if args.trace {
        per_layer(&args, &mut checks)
    } else {
        end_to_end(&args, &mut checks)
    };
    if args.trace {
        session_metrics(&mut metrics, &outcomes);
    }
    // A PDS workload attempts one session per consumer; a city world, which
    // has no sessions, attempts one run to its horizon.
    let (started, failed) = session_counts(&outcomes);
    let (attempted, failed) = if started == 0 {
        (outcomes.len(), 0)
    } else {
        (started, failed)
    };

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        checks.0.is_empty()
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        println!("{name} {value} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    for failure in &checks.0 {
        eprintln!("check failed: {failure}");
    }
    println!("{json}");
    let _ = std::io::stdout().flush();
    if checks.0.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
