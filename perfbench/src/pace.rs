//! The host's pace: how long a fixed reference computation takes now.
//!
//! The host is shared, and its speed drifts by tens of per cent, both from
//! one second to the next and over minutes, as other tenants load it. So
//! while a world runs, the benchmark times a short reference computation
//! every [`INTERVAL_S`] of host time, and leaves that time out of the
//! world's. The world's host time is then rescaled to the pace at which the
//! reference takes [`NOMINAL_S`], so that two runs of the same code agree
//! whatever the load was. The reference uses only the standard library,
//! never the program's crates, so a change to the program cannot move it.
//! It does the kinds of work a simulated world does: an ordered event
//! queue, hashed per-node state with small allocations and byte hashing.
//! Its memory stays under a megabyte, so it neither adds to a world's
//! resident set nor changes how the allocator serves the program.

use pds_bench::WallClock;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Host seconds the reference takes at the nominal pace: a round figure
/// near its time on a 2-core Xeon host.
pub const NOMINAL_S: f64 = 0.0012;
/// Host seconds of world between two reference samples; the samples cost
/// about 3% of a world's time.
const INTERVAL_S: f64 = 0.05;

/// Events pushed through the reference queue.
const EVENTS: u64 = 4_000;
/// Slots of the reference per-node state.
const SLOTS: usize = 1_024;
/// Bytes hashed per event.
const FRAME: usize = 96;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One pass of the reference computation; returns a digest, so that the
/// work cannot be skipped.
fn reference_work() -> u64 {
    let mut queue: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut state: Vec<Vec<u8>> = vec![Vec::new(); SLOTS];
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut frame = [0_u8; FRAME];
    let mut digest = 0_u64;
    for seq in 0..EVENTS {
        let r = xorshift(&mut x);
        queue.insert((r % 1_000_000, seq), r);
        if queue.len() > 256 {
            let Some((_, v)) = queue.pop_first() else {
                break;
            };
            let bytes = v.to_le_bytes();
            for (i, b) in frame.iter_mut().enumerate() {
                *b = bytes[i % 8] ^ digest.to_le_bytes()[i % 8];
            }
            // FNV-1a over the frame picks the state slot.
            let mut h = 0xcbf2_9ce4_8422_2325_u64;
            for &b in black_box(&frame) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            let slot = &mut state[(h % SLOTS as u64) as usize];
            if slot.len() > 64 {
                slot.clear();
            }
            slot.push(bytes[0]);
            digest ^= h;
        }
    }
    digest ^ state.iter().map(Vec::len).sum::<usize>() as u64
}

/// Reference samples taken over a run.
pub struct Pacer {
    samples: Vec<f64>,
    /// Host seconds spent sampling, to be left out of the worlds' times.
    spent_s: f64,
    since: WallClock,
}

impl Pacer {
    /// A pacer whose first, untimed, reference pass has warmed up.
    pub fn new() -> Self {
        black_box(reference_work());
        Self {
            samples: Vec::new(),
            spent_s: 0.0,
            since: WallClock::start(),
        }
    }

    /// Times one reference pass.
    pub fn sample(&mut self) {
        let clock = WallClock::start();
        black_box(reference_work());
        let t = clock.elapsed_s();
        self.samples.push(t);
        self.spent_s += t;
        self.since = WallClock::start();
    }

    /// Times one reference pass if [`INTERVAL_S`] has passed since the last.
    pub fn tick(&mut self) {
        if self.since.elapsed_s() >= INTERVAL_S {
            self.sample();
        }
    }

    /// Host seconds spent sampling so far.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    /// Samples taken so far; a mark for [`Pacer::pace_since`].
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The mean reference time over the samples from `mark` on. The mean,
    /// not the median: a world's time adds up the slow moments with the
    /// fast ones, and samples taken at even intervals weigh them alike.
    pub fn pace_since(&self, mark: usize) -> f64 {
        let s = &self.samples[mark..];
        s.iter().sum::<f64>() / s.len() as f64
    }

    /// Host seconds at the nominal pace for `host_s` taken at `pace_s`.
    pub fn scale(host_s: f64, pace_s: f64) -> f64 {
        host_s * NOMINAL_S / pace_s
    }
}
