//! Scenario-scale benchmark of the simulator's spatial hot paths.
//!
//! Runs the same dense-chatter scenario at several node counts, once with
//! the spatial grid index and once with the brute-force scans, checks the
//! two runs produced *identical* statistics (the grid is an index, not an
//! approximation), and records wall-clock times plus the grid/brute
//! speedup as a machine-readable perf record.
//!
//! ```text
//! cargo run --release -p pds-bench --bin sim_scale -- --quick --out BENCH_sim_scale.json
//! ```
//!
//! `--quick` shortens the simulated horizon for CI smoke runs; the node
//! counts (100 / 500 / 1000) stay the same so the scaling trend is always
//! visible. Without `--quick` the horizon is 4× longer. `--trace-check`
//! additionally re-runs the largest scenario with a null trace sink
//! installed and asserts the instrumented hot path stays within 10% of the
//! uninstrumented wall time (DESIGN.md §9). `--fault-check` does the same
//! for the fault-injection seam: a no-op [`FaultPlan`] installed must not
//! change statistics and must stay within the same overhead budget
//! (DESIGN.md §12).
//!
//! `--jobs N` (default: available cores) sets the worker count for the
//! sweep-executor benchmark: the node-count × seed grid is run once
//! sequentially and once through the parallel [`SweepRunner`], the two
//! result vectors are asserted identical, and both wall times land in the
//! JSON record (`"sweep"`, including the host's core count so readers can
//! tell an honest speedup from an oversubscribed one). All other
//! sections — the grid/brute comparison and `--trace-check` — are single
//! runs on the main thread, i.e. always `--jobs 1` semantics, so their
//! wall-time gates compare like-for-like regardless of the flag.
//!
//! `--flight-check` applies the `--trace-check` methodology to the
//! always-on flight recorder: the largest scenario bare vs with a bounded
//! [`pds_sim::obs::FlightRecorder`] installed, identical stats asserted,
//! wall overhead within the same 110% budget (DESIGN.md §14). A
//! `"resources"` block always records kernel events dispatched, event
//! throughput, and (under the `count-alloc` feature) peak heap bytes per
//! node count. Every check block carries the host `cores` so readers and
//! the baseline check can tell a real speedup from a single-core run.
//!
//! `--city-n N` (env fallback `PDS_CITY_N`, default 10000) sets the node
//! count for the `"city"` block: the city-scale scenario family
//! (`pds_bench::city` — stadium exit, vehicular corridor, disaster
//! relief) run on a fixed 2-second horizon, each scenario twice with the
//! same seed (identical statistics asserted), recording events/sec and
//! peak heap bytes per node. Under `count-alloc` at n ≥ 10000 the
//! ≤ 32 KB/node budget of the slab/SoA memory diet is asserted outright.
//! Blocks whose baseline assertions are gated on host parallelism or
//! measurement features carry a `skipped_reason` member saying why the
//! recorded numbers were not asserted.
//!
//! `--check-baseline [path]` finally compares the fresh
//! record against the committed one — deterministic counters exactly,
//! speedups with 25% tolerance (the sweep speedup skipped entirely when
//! either record ran on one core), event throughput and per-node
//! heap with their own tolerances when the hosts are comparable, wall
//! times never — and exits nonzero on regression (see
//! `pds_bench::baseline`).

use pds_bench::{CityScenario, SweepRunner, WallClock, CITY_BYTES_PER_NODE_BUDGET};
use pds_sim::{
    Application, Context, FaultPlan, MessageMeta, Position, SimConfig, SimDuration, SimTime,
    SpatialIndex, World,
};
use std::fmt::Write as _;

/// Counting wrapper around the system allocator (under `count-alloc`):
/// tracks live heap bytes and the high-water mark so the `resources`
/// block can report peak heap per scenario. Lives in this binary — not
/// the library — because the workspace libraries are
/// `forbid(unsafe_code)` and a `GlobalAlloc` impl is necessarily unsafe.
#[cfg(feature = "count-alloc")]
mod heap_track {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicUsize, Ordering};

    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);

    struct CountingAlloc;

    // SAFETY: every allocation is delegated verbatim to `System`, which
    // upholds the `GlobalAlloc` contract; the atomic bookkeeping around
    // the delegated calls never touches the returned memory.
    unsafe impl GlobalAlloc for CountingAlloc {
        // SAFETY: callers uphold the `GlobalAlloc` preconditions (valid,
        // non-zero-size `layout`); we forward them to `System` unchanged.
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // SAFETY: `layout` is the caller's layout, forwarded unchanged.
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
                PEAK.fetch_max(live, Ordering::Relaxed);
            }
            p
        }

        // SAFETY: callers pass a `ptr`/`layout` pair previously returned
        // by `alloc` on this allocator, as the trait contract requires.
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            // SAFETY: `ptr`/`layout` come from a matching `alloc` above.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    /// Resets the high-water mark to the currently live bytes.
    pub fn reset_peak() {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Peak live heap bytes since the last [`reset_peak`].
    pub fn peak() -> usize {
        PEAK.load(Ordering::Relaxed)
    }
}

/// Without `count-alloc` the probes are no-ops and the JSON records 0.
#[cfg(not(feature = "count-alloc"))]
mod heap_track {
    pub fn reset_peak() {}
    pub fn peak() -> usize {
        0
    }
}

/// Node counts exercised in both modes.
const NODE_COUNTS: [usize; 3] = [100, 500, 1000];
/// Nodes per gathering spot. Peers inside a cluster are in radio range of
/// each other; clusters are far outside each other's range.
const CLUSTER_SIZE: usize = 2;
/// Spacing between cluster centers, meters (radio range 75 m).
const CLUSTER_SPACING_M: f64 = 400.0;
/// Nodes scatter up to this far from their cluster center on each axis,
/// keeping intra-cluster distances at most ~70 m.
const CLUSTER_RADIUS_M: f64 = 25.0;
/// Fraction of nodes walking (to a random point in the field) during the
/// run.
const MOVER_FRACTION: f64 = 0.1;

/// Chatter period per node.
const CHATTER_PERIOD: SimDuration = SimDuration::from_millis(10);

/// Periodic small-payload broadcaster: every node chatters, so every
/// kernel hot path (carrier sense, receiver enumeration, interference)
/// is exercised constantly. Each node starts at its own phase so the
/// cluster peers are not artificially synchronized.
struct Chatter {
    phase: SimDuration,
}

impl Application for Chatter {
    fn on_start(&mut self, ctx: &mut Context) {
        ctx.set_timer(self.phase, 0);
    }
    fn on_message(&mut self, _: &mut Context, _: MessageMeta, _: bytes::Bytes) {}
    fn on_timer(&mut self, ctx: &mut Context, _tag: u64) {
        ctx.broadcast(bytes::Bytes::from_static(&[0u8; 200]), &[]);
        ctx.set_timer(CHATTER_PERIOD, 0);
    }
}

/// Builds the scenario: `n` nodes in small gathering-spot clusters laid
/// out on a square grid at constant cluster density (so area grows with
/// `n`), with a fraction of the nodes walking.
fn build_world(n: usize, index: SpatialIndex, seed: u64) -> World {
    let mut config = SimConfig::default();
    config.spatial.index = index;
    // Large-area scenario knobs (identical in both modes, so the runs stay
    // comparable): a 4-range interference horizon — at the default
    // path-loss exponent a transmitter that far away contributes under 2%
    // of the weakest decodable signal — and a coarse re-bucket cadence
    // that bounds the walker drift pad to a fraction of a meter.
    config.radio.interference_range_factor = 4.0;
    config.spatial.rebucket_interval = SimDuration::from_millis(250);
    let mut world = World::new(config, seed);
    let clusters = n.div_ceil(CLUSTER_SIZE);
    let side = (clusters as f64).sqrt().ceil() as usize;
    let mut rng = world.fork_rng(7);
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let c = i / CLUSTER_SIZE;
        let cx = (c % side) as f64 * CLUSTER_SPACING_M;
        let cy = (c / side) as f64 * CLUSTER_SPACING_M;
        let x = cx + rng.range_f64(-CLUSTER_RADIUS_M, CLUSTER_RADIUS_M);
        let y = cy + rng.range_f64(-CLUSTER_RADIUS_M, CLUSTER_RADIUS_M);
        let phase = SimDuration::from_micros(rng.range_f64(0.0, 10_000.0) as u64);
        ids.push(world.add_node(Position::new(x, y), Box::new(Chatter { phase })));
    }
    let extent = side as f64 * CLUSTER_SPACING_M;
    for &id in &ids {
        if rng.chance(MOVER_FRACTION) {
            let dest = Position::new(rng.range_f64(0.0, extent), rng.range_f64(0.0, extent));
            world.move_node(id, dest, 1.4);
        }
    }
    world
}

struct ModeRun {
    wall_s: f64,
    stats: pds_sim::Stats,
}

fn run_mode(n: usize, index: SpatialIndex, horizon: SimTime) -> ModeRun {
    run_mode_traced(n, index, horizon, false)
}

fn run_mode_traced(n: usize, index: SpatialIndex, horizon: SimTime, traced: bool) -> ModeRun {
    let mut world = build_world(n, index, 42);
    if traced {
        world.set_trace_sink(Box::new(pds_sim::obs::NullSink));
    }
    let start = WallClock::start();
    world.run_until(horizon);
    let wall_s = start.elapsed_s();
    #[cfg(feature = "prof")]
    {
        println!("-- {index:?}");
        pds_sim::prof::dump(horizon.as_micros());
    }
    ModeRun {
        wall_s,
        stats: world.stats().clone(),
    }
}

/// `--trace-check`: runs the largest scenario untraced and with a
/// [`pds_sim::obs::NullSink`] installed (every emission site live, events
/// discarded), asserting identical stats and a wall-clock overhead within
/// the ISSUE 3 budget. Returns (untraced_s, traced_s, ratio).
fn trace_check(horizon: SimTime) -> (f64, f64, f64) {
    let n = NODE_COUNTS[NODE_COUNTS.len() - 1];
    // Best-of-2 per mode to damp scheduler noise on CI runners.
    let best = |traced: bool| -> ModeRun {
        let a = run_mode_traced(n, SpatialIndex::Grid, horizon, traced);
        let b = run_mode_traced(n, SpatialIndex::Grid, horizon, traced);
        assert_eq!(a.stats, b.stats, "same-seed runs must agree");
        if a.wall_s <= b.wall_s {
            a
        } else {
            b
        }
    };
    let off = best(false);
    let on = best(true);
    assert_eq!(
        on.stats, off.stats,
        "trace sink must not perturb simulation results"
    );
    let ratio = on.wall_s / off.wall_s.max(1e-9);
    println!(
        "trace-check n={n}  untraced {:.3}s  traced {:.3}s  ratio {ratio:.3}",
        off.wall_s, on.wall_s
    );
    // 10% relative budget plus a small absolute pad so sub-second quick
    // runs don't fail on timer granularity.
    assert!(
        on.wall_s <= off.wall_s * 1.10 + 0.05,
        "tracing overhead above budget: {:.3}s traced vs {:.3}s untraced",
        on.wall_s,
        off.wall_s
    );
    (off.wall_s, on.wall_s, ratio)
}

/// `--fault-check`: runs the largest scenario with no fault hook at all
/// and with a no-op [`FaultPlan`] installed (the hook live on every
/// transmission, every knob zero), asserting identical stats and
/// wall-clock overhead within the same budget as `--trace-check`: the
/// fault seam must be free when nobody uses it. Returns
/// (unfaulted_s, faulted_s, ratio).
fn fault_check(horizon: SimTime) -> (f64, f64, f64) {
    let n = NODE_COUNTS[NODE_COUNTS.len() - 1];
    // Best-of-2 per mode to damp scheduler noise on CI runners.
    let best = |noop_plan: bool| -> ModeRun {
        let run = || -> ModeRun {
            let mut world = build_world(n, SpatialIndex::Grid, 42);
            if noop_plan {
                world.install_faults(FaultPlan::none(42));
            }
            let start = WallClock::start();
            world.run_until(horizon);
            ModeRun {
                wall_s: start.elapsed_s(),
                stats: world.stats().clone(),
            }
        };
        let a = run();
        let b = run();
        assert_eq!(a.stats, b.stats, "same-seed runs must agree");
        if a.wall_s <= b.wall_s {
            a
        } else {
            b
        }
    };
    let off = best(false);
    let on = best(true);
    assert_eq!(
        on.stats, off.stats,
        "a no-op fault plan must not perturb simulation results"
    );
    let ratio = on.wall_s / off.wall_s.max(1e-9);
    println!(
        "fault-check n={n}  no-hook {:.3}s  noop-plan {:.3}s  ratio {ratio:.3}",
        off.wall_s, on.wall_s
    );
    // Same 10% relative + small absolute budget as trace-check.
    assert!(
        on.wall_s <= off.wall_s * 1.10 + 0.05,
        "no-op fault plan overhead above budget: {:.3}s faulted vs {:.3}s plain",
        on.wall_s,
        off.wall_s
    );
    (off.wall_s, on.wall_s, ratio)
}

/// `--flight-check`: runs the largest scenario in three modes — bare (no
/// sink), [`pds_sim::obs::NullSink`] (every emission site live, events
/// discarded), and a bounded [`pds_sim::obs::FlightRecorder`] (events
/// landing in fixed per-node rings) — asserting identical stats across
/// all three. The gated budget is the recorder's *marginal* cost over the
/// `NullSink` baseline: keeping the black box must cost no more than the
/// same 110% + pad that `--trace-check` grants tracing itself, on top of
/// the sites-live cost `--trace-check` already gates against bare. Modes
/// are sampled interleaved, best-of-3 each, so a one-shot scheduler stall
/// cannot land entirely on one side of the ratio.
/// Returns (bare_s, traced_s, recorded_s, recorded/traced ratio).
fn flight_check(horizon: SimTime) -> (f64, f64, f64, f64) {
    use pds_sim::obs::FlightRecorder;
    let n = NODE_COUNTS[NODE_COUNTS.len() - 1];
    #[derive(Clone, Copy)]
    enum Mode {
        Bare,
        Null,
        Recorded,
    }
    let run = |mode: Mode| -> ModeRun {
        let mut world = build_world(n, SpatialIndex::Grid, 42);
        match mode {
            Mode::Bare => {}
            Mode::Null => world.set_trace_sink(Box::new(pds_sim::obs::NullSink)),
            Mode::Recorded => world.set_trace_sink(Box::new(FlightRecorder::new(
                pds_sim::obs::flight::DEFAULT_NODE_CAPACITY,
            ))),
        }
        let start = WallClock::start();
        world.run_until(horizon);
        ModeRun {
            wall_s: start.elapsed_s(),
            stats: world.stats().clone(),
        }
    };
    let mut best = [None::<ModeRun>, None, None];
    for _ in 0..3 {
        for (i, mode) in [Mode::Bare, Mode::Null, Mode::Recorded]
            .into_iter()
            .enumerate()
        {
            let sample = run(mode);
            match &mut best[i] {
                Some(prev) => {
                    assert_eq!(prev.stats, sample.stats, "same-seed runs must agree");
                    if sample.wall_s < prev.wall_s {
                        best[i] = Some(sample);
                    }
                }
                slot => *slot = Some(sample),
            }
        }
    }
    let [bare, traced, recorded] = best.map(|m| m.expect("sampled"));
    assert_eq!(
        recorded.stats, bare.stats,
        "flight recorder must not perturb simulation results"
    );
    assert_eq!(
        traced.stats, bare.stats,
        "null sink must not perturb results"
    );
    let ratio = recorded.wall_s / traced.wall_s.max(1e-9);
    println!(
        "flight-check n={n}  bare {:.3}s  null-traced {:.3}s  recorded {:.3}s  \
         recorded/traced {ratio:.3}",
        bare.wall_s, traced.wall_s, recorded.wall_s
    );
    // Same 10% relative + small absolute budget as trace-check, applied to
    // the recorder's marginal cost over discarding tracing.
    assert!(
        recorded.wall_s <= traced.wall_s * 1.10 + 0.05,
        "flight recorder overhead above budget: {:.3}s recorded vs {:.3}s null-traced",
        recorded.wall_s,
        traced.wall_s
    );
    (bare.wall_s, traced.wall_s, recorded.wall_s, ratio)
}

/// One row of the resource-accounting report: kernel events dispatched,
/// event throughput, and peak heap for the grid scenario at one node
/// count. The event count is a pure function of (n, seed, horizon) — the
/// baseline check compares it exactly — while throughput and heap depend
/// on the host and are reported for trend reading only.
struct ResourceRow {
    n: usize,
    events: u64,
    wall_s: f64,
    events_per_sec: f64,
    peak_alloc_bytes: usize,
}

fn resources_bench(horizon: SimTime) -> Vec<ResourceRow> {
    NODE_COUNTS
        .iter()
        .map(|&n| {
            heap_track::reset_peak();
            let mut world = build_world(n, SpatialIndex::Grid, 42);
            let start = WallClock::start();
            world.run_until(horizon);
            let wall_s = start.elapsed_s();
            let events = world.events_dispatched();
            let peak_alloc_bytes = heap_track::peak();
            let events_per_sec = events as f64 / wall_s.max(1e-9);
            println!(
                "resources n={n:>5}  events={events:>9}  {events_per_sec:>12.0} ev/s  \
                 peak_heap={peak_alloc_bytes} B  ({:.0} B/node)",
                peak_alloc_bytes as f64 / n as f64
            );
            ResourceRow {
                n,
                events,
                wall_s,
                events_per_sec,
                peak_alloc_bytes,
            }
        })
        .collect()
}

/// Sequential-vs-parallel sweep benchmark: the node-count × seed grid as
/// one flat job list, run at 1 worker and at `jobs` workers. Each job
/// builds its own world from its own seed, so the executor can only change
/// wall-clock order — asserted by comparing the full result vectors.
struct SweepBench {
    jobs: usize,
    sequential_wall_s: f64,
    parallel_wall_s: f64,
    speedup: f64,
    results_equal: bool,
}

fn sweep_bench(horizon: SimTime, jobs: usize) -> SweepBench {
    const SEEDS: [u64; 4] = [11, 22, 33, 44];
    let points: Vec<(usize, u64)> = NODE_COUNTS
        .iter()
        .flat_map(|&n| SEEDS.iter().map(move |&s| (n, s)))
        .collect();
    let run_all = |runner: &SweepRunner| -> (f64, Vec<pds_sim::Stats>) {
        let start = WallClock::start();
        let stats = runner.run(points.len(), |i| {
            let (n, seed) = points[i];
            let mut world = build_world(n, SpatialIndex::Grid, seed);
            world.run_until(horizon);
            world.stats().clone()
        });
        (start.elapsed_s(), stats)
    };
    let (sequential_wall_s, seq_stats) = run_all(&SweepRunner::new(1));
    let (parallel_wall_s, par_stats) = run_all(&SweepRunner::new(jobs));
    let results_equal = seq_stats == par_stats;
    assert!(
        results_equal,
        "parallel sweep diverged from sequential run at {jobs} jobs"
    );
    let speedup = sequential_wall_s / parallel_wall_s.max(1e-9);
    println!(
        "sweep ({} worlds)  sequential {sequential_wall_s:.3}s  \
         parallel({jobs} jobs) {parallel_wall_s:.3}s  speedup {speedup:.2}x  \
         results_equal={results_equal}",
        points.len()
    );
    SweepBench {
        jobs,
        sequential_wall_s,
        parallel_wall_s,
        speedup,
        results_equal,
    }
}

/// Simulated horizon for the city family, independent of `--quick`: the
/// city block stays comparable between quick and full records, and the
/// disaster-relief partition window ([0.5 s, 1.2 s)) always falls inside
/// the run.
const CITY_SIM_SECONDS: f64 = 2.0;

/// One row of the city-scale report (`pds_bench::city`): a scenario run
/// twice with the same seed — statistics must match exactly — with peak
/// heap and event throughput from the first run. The event count is a
/// pure function of `(scenario, n, seed)`; the baseline check compares it
/// exactly when the records ran the same `n`.
struct CityRow {
    scenario: &'static str,
    events: u64,
    wall_s: f64,
    events_per_sec: f64,
    peak_alloc_bytes: usize,
    stats_equal: bool,
}

/// Runs the whole city family at one node count. Asserts same-seed
/// reproducibility per scenario and — when the `count-alloc` feature is
/// measuring and `n` is at least the 10k floor the budget is stated at —
/// the ≤ 32 KB/node peak-heap budget of the slab/SoA diet (DESIGN.md §15).
fn city_bench(n: usize) -> Vec<CityRow> {
    let horizon = SimTime::from_secs_f64(CITY_SIM_SECONDS);
    CityScenario::ALL
        .iter()
        .map(|&scenario| {
            heap_track::reset_peak();
            let mut world = scenario.build(n, 42);
            let start = WallClock::start();
            world.run_until(horizon);
            let wall_s = start.elapsed_s();
            let peak_alloc_bytes = heap_track::peak();
            let events = world.events_dispatched();
            let first_stats = world.stats().clone();
            drop(world);
            let mut world = scenario.build(n, 42);
            world.run_until(horizon);
            let stats_equal = *world.stats() == first_stats;
            assert!(
                stats_equal,
                "city {} diverged between same-seed runs at n={n}",
                scenario.key()
            );
            let events_per_sec = events as f64 / wall_s.max(1e-9);
            let bytes_per_node = peak_alloc_bytes as f64 / n as f64;
            println!(
                "city {:<20} n={n:>6}  events={events:>9}  {events_per_sec:>12.0} ev/s  \
                 peak_heap={peak_alloc_bytes} B  ({bytes_per_node:.0} B/node)  \
                 stats_equal={stats_equal}",
                scenario.key()
            );
            if peak_alloc_bytes > 0 && n >= 10_000 {
                assert!(
                    bytes_per_node <= CITY_BYTES_PER_NODE_BUDGET as f64,
                    "city {} blew the per-node heap budget at n={n}: \
                     {bytes_per_node:.0} B/node > {CITY_BYTES_PER_NODE_BUDGET} B/node",
                    scenario.key()
                );
            }
            CityRow {
                scenario: scenario.key(),
                events,
                wall_s,
                events_per_sec,
                peak_alloc_bytes,
                stats_equal,
            }
        })
        .collect()
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check_trace = args.iter().any(|a| a == "--trace-check");
    let check_fault = args.iter().any(|a| a == "--fault-check");
    let check_flight = args.iter().any(|a| a == "--flight-check");
    // `--check-baseline [path]`: compare the fresh record against the
    // committed one; the path defaults to the committed record itself.
    let check_baseline = args.iter().position(|a| a == "--check-baseline").map(|i| {
        args.get(i + 1)
            .filter(|s| !s.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "BENCH_sim_scale.json".to_owned())
    });
    if let Some(n) = args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<usize>().ok())
    {
        pds_bench::sweep::set_jobs(n);
    }
    let jobs = pds_bench::sweep::jobs();
    // `--city-n N` (env fallback `PDS_CITY_N`, default 10000): node count
    // for the city-scale scenario family. The quick CI run keeps the
    // default; nightly CI sets 50000; 100000 is for manual capacity runs.
    let city_n = args
        .iter()
        .position(|a| a == "--city-n")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<usize>().ok())
        .or_else(|| {
            std::env::var("PDS_CITY_N")
                .ok()
                .and_then(|s| s.parse().ok())
        })
        .unwrap_or(10_000)
        .max(1);
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_sim_scale.json".to_owned());
    let sim_seconds = if quick { 2.0 } else { 8.0 };
    let horizon = SimTime::from_secs_f64(sim_seconds);

    let mut rows = Vec::new();
    let mut all_equal = true;
    for &n in &NODE_COUNTS {
        let grid = run_mode(n, SpatialIndex::Grid, horizon);
        let brute = run_mode(n, SpatialIndex::BruteForce, horizon);
        let equal = grid.stats == brute.stats;
        all_equal &= equal;
        let speedup = brute.wall_s / grid.wall_s.max(1e-9);
        println!(
            "n={n:>5}  grid {:>8.3}s  brute {:>8.3}s  speedup {speedup:>6.2}x  \
             frames_delivered={}  stats_equal={equal}",
            grid.wall_s, brute.wall_s, grid.stats.frames_delivered
        );
        assert!(
            equal,
            "grid and brute-force runs diverged at n={n}: {:?} vs {:?}",
            grid.stats, brute.stats
        );
        rows.push((n, grid, brute, speedup, equal));
    }

    let sweep = sweep_bench(horizon, jobs);

    // Both trace-check arms are single runs on the main thread (jobs = 1
    // semantics), so the 110% budget always compares like-for-like even
    // when the sweep above ran wide.
    let traced = check_trace.then(|| trace_check(horizon));

    // Like trace-check: single runs on the main thread, so the budget is
    // insulated from the sweep's parallelism.
    let faulted = check_fault.then(|| fault_check(horizon));

    // Same single-run-on-main-thread methodology for the flight recorder.
    let flight = check_flight.then(|| flight_check(horizon));

    let resources = resources_bench(horizon);

    let city_rows = city_bench(city_n);

    // Honest-speedup context for the sweep block: a parallel run with
    // more jobs than cores measures scheduling pressure, not the
    // executor, so readers (and the baseline check) need the host width.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"sim_scale\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"sim_seconds\": {sim_seconds},");
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"stats_equal\": {all_equal},");
    // A block whose baseline assertion is cores-gated says so in the
    // record itself, so a reader of a single-core JSON knows the speedup
    // numbers were recorded but never asserted.
    let cores_skip = if cores == 1 {
        ", \"skipped_reason\": \"single-core host: speedup not asserted\""
    } else {
        ""
    };
    let _ = writeln!(
        json,
        "  \"sweep\": {{\"jobs\": {}, \"cores\": {cores}, \"sequential_wall_s\": {:.6}, \
         \"parallel_wall_s\": {:.6}, \"speedup\": {:.3}, \"results_equal\": {}{cores_skip}}},",
        sweep.jobs,
        sweep.sequential_wall_s,
        sweep.parallel_wall_s,
        sweep.speedup,
        sweep.results_equal
    );
    if let Some((off_s, on_s, ratio)) = traced {
        let _ = writeln!(
            json,
            "  \"trace_check\": {{\"jobs\": 1, \"cores\": {cores}, \
             \"untraced_wall_s\": {off_s:.6}, \
             \"traced_wall_s\": {on_s:.6}, \"overhead_ratio\": {ratio:.4}}},"
        );
    }
    if let Some((off_s, on_s, ratio)) = faulted {
        let _ = writeln!(
            json,
            "  \"fault_check\": {{\"jobs\": 1, \"cores\": {cores}, \
             \"plain_wall_s\": {off_s:.6}, \
             \"noop_plan_wall_s\": {on_s:.6}, \"overhead_ratio\": {ratio:.4}}},"
        );
    }
    if let Some((bare_s, traced_s, on_s, ratio)) = flight {
        let _ = writeln!(
            json,
            "  \"flight_check\": {{\"jobs\": 1, \"cores\": {cores}, \
             \"bare_wall_s\": {bare_s:.6}, \
             \"traced_wall_s\": {traced_s:.6}, \"recorded_wall_s\": {on_s:.6}, \
             \"overhead_ratio\": {ratio:.4}}},"
        );
    }
    let _ = writeln!(json, "  \"resources\": [");
    let res_last = resources.len() - 1;
    for (i, row) in resources.iter().enumerate() {
        let comma = if i == res_last { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"n\": {}, \"events\": {}, \"wall_s\": {:.6}, \
             \"events_per_sec\": {:.0}, \"peak_alloc_bytes\": {}, \
             \"bytes_per_node\": {:.0}}}{comma}",
            row.n,
            row.events,
            row.wall_s,
            row.events_per_sec,
            row.peak_alloc_bytes,
            row.peak_alloc_bytes as f64 / row.n as f64
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"city\": {{\"n\": {city_n}, \"sim_seconds\": {CITY_SIM_SECONDS}, \
         \"budget_bytes_per_node\": {CITY_BYTES_PER_NODE_BUDGET}{}, \"rows\": [",
        if cfg!(feature = "count-alloc") {
            ""
        } else {
            ", \"skipped_reason\": \"count-alloc feature off: byte budget not measured\""
        }
    );
    let city_last = city_rows.len() - 1;
    for (i, row) in city_rows.iter().enumerate() {
        let comma = if i == city_last { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"scenario\": \"{}\", \"n\": {city_n}, \"events\": {}, \"wall_s\": {:.6}, \
             \"events_per_sec\": {:.0}, \"peak_alloc_bytes\": {}, \"bytes_per_node\": {:.0}, \
             \"stats_equal\": {}}}{comma}",
            row.scenario,
            row.events,
            row.wall_s,
            row.events_per_sec,
            row.peak_alloc_bytes,
            row.peak_alloc_bytes as f64 / city_n as f64,
            row.stats_equal
        );
    }
    let _ = writeln!(json, "  ]}},");
    let _ = writeln!(json, "  \"results\": [");
    let last = rows.len() - 1;
    for (i, (n, grid, brute, speedup, equal)) in rows.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"n\": {n}, \"grid_wall_s\": {:.6}, \"brute_wall_s\": {:.6}, \
             \"speedup\": {speedup:.3}, \"frames_sent\": {}, \"frames_delivered\": {}, \
             \"stats_equal\": {equal}}}{comma}",
            grid.wall_s, brute.wall_s, grid.stats.frames_sent, grid.stats.frames_delivered
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    // Read the committed baseline BEFORE writing the fresh record — with
    // default paths both point at the same file.
    let baseline = check_baseline.map(|path| {
        let content =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        (path, content)
    });
    std::fs::write(&out_path, &json).expect("write perf record");
    println!("wrote {out_path}");
    if let Some((path, committed)) = baseline {
        use pds_bench::baseline::{check, Verdict};
        match check(&committed, &json).expect("parse perf records") {
            Verdict::Incomparable(why) => println!("baseline check skipped: {why}"),
            Verdict::Compared(regressions) if regressions.is_empty() => {
                println!("baseline check passed against {path}");
            }
            Verdict::Compared(regressions) => {
                eprintln!("baseline regressions against {path}:");
                for r in &regressions {
                    eprintln!("  {r}");
                }
                return std::process::ExitCode::FAILURE;
            }
        }
    }
    std::process::ExitCode::SUCCESS
}
