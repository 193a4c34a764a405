//! The benchmark's worlds: the paper's 10×10 grid built from `World`,
//! `PdsNode` and the public grid helpers, the same workloads built through
//! `pds_bench::GridScenario` for the look-alike check, and the city run.

use crate::pace::Pacer;
use crate::trace::{Traced, Tracer};
use pds_bench::WallClock;
use pds_bench::{CityScenario, GridScenario, Workload};
use pds_core::{
    AttrValue, ChunkId, DataDescriptor, DiscoveryReport, PdsConfig, PdsNode, QueryFilter,
    RetrievalReport,
};
use pds_mobility::grid;
use pds_sim::{
    Application, Context, NodeId, SimConfig, SimDuration, SimRng, SimTime, Stats, World,
};

const ROWS: usize = 10;
const COLS: usize = 10;
/// Metadata entries seeded at redundancy 1: Fig. 8's quick point. The
/// 5,000-entry top point costs ~10 s of host time a world, too much to
/// measure enough worlds in one run.
const PDD_ENTRIES: usize = 1_000;
/// Simultaneous consumers in the PDD and PDR worlds (Figs. 8 and 16).
const CONSUMERS: usize = 5;
/// The item of Figs. 13/14/16 at the figures' quick size (the paper's is
/// 20 MB).
const ITEM_BYTES: usize = 4_000_000;
const CHUNK_BYTES: usize = 256 * 1024;
/// Chunk redundancy of the MDR world (Figs. 13/14).
const MDR_REDUNDANCY: usize = 3;
/// City size and horizon: `stadium_exit` as the `city` block of
/// `BENCH_sim_scale.json` runs it.
const CITY_N: usize = 10_000;
const CITY_HORIZON_S: f64 = 2.0;
/// Driver step between completion checks, as `pds_bench::Built` steps.
const STEP: SimDuration = SimDuration::from_millis(250);

/// One fresh world of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spec {
    /// 5 simultaneous PDD consumers over 1,000 entries (Fig. 8).
    Pdd,
    /// 5 simultaneous PDR consumers of a 4 MB item at redundancy 1 (Fig. 16).
    Pdr,
    /// 1 MDR consumer of the 4 MB item at redundancy 3 (Figs. 13/14).
    Mdr,
    /// `CityScenario::StadiumExit` at n = 10,000 to a 2 s horizon.
    City,
}

impl Spec {
    fn consumers(self) -> usize {
        match self {
            Spec::Pdd | Spec::Pdr => CONSUMERS,
            Spec::Mdr => 1,
            Spec::City => 0,
        }
    }

    /// Session deadline, as the matching figure sets it.
    pub fn deadline(self) -> SimTime {
        SimTime::from_secs_f64(match self {
            Spec::Pdd => 120.0,
            Spec::Pdr => 900.0,
            Spec::Mdr => 600.0,
            Spec::City => CITY_HORIZON_S,
        })
    }

    fn redundancy(self) -> usize {
        if self == Spec::Mdr {
            MDR_REDUNDANCY
        } else {
            1
        }
    }

    /// The same workload as `pds_bench::Workload` generates it.
    fn reference_workload(self, seed: u64) -> Workload {
        let wl = Workload::new(ROWS * COLS);
        match self {
            Spec::Pdd => wl.with_metadata(PDD_ENTRIES, 1, seed),
            Spec::Pdr | Spec::Mdr => wl.with_chunked_item(
                "clip",
                ITEM_BYTES,
                CHUNK_BYTES,
                self.redundancy(),
                grid::center_index(ROWS, COLS),
                seed,
            ),
            Spec::City => wl,
        }
    }
}

/// A started session's report.
#[derive(Debug, Clone, PartialEq)]
pub enum Report {
    /// A PDD discovery.
    Discovery(DiscoveryReport),
    /// A PDR or MDR retrieval.
    Retrieval(RetrievalReport),
}

impl Report {
    /// Recall against `total_entries` (discovery) or the item's chunks.
    pub fn recall(&self, total_entries: usize) -> f64 {
        match self {
            Report::Discovery(r) => r.entries as f64 / total_entries as f64,
            Report::Retrieval(r) => r.recall,
        }
    }

    /// The paper's latency metric, simulated seconds.
    pub fn delay_s(&self) -> f64 {
        match self {
            Report::Discovery(r) => r.latency.as_secs_f64(),
            Report::Retrieval(r) => r.latency.as_secs_f64(),
        }
    }

    /// When the session finished, if it did.
    pub fn finished_at(&self) -> Option<SimTime> {
        match self {
            Report::Discovery(r) => r.finished_at,
            Report::Retrieval(r) => r.finished_at,
        }
    }

    /// Finished; the driver stops a run at the deadline.
    pub fn finished(&self) -> bool {
        self.finished_at().is_some()
    }
}

/// The simulated result of one world, compared exactly between runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Traffic counters over the session window.
    pub stats: Stats,
    /// Cumulative counters at the end of the run.
    pub total_stats: Stats,
    /// Kernel events dispatched over the session window.
    pub events: u64,
    /// Cumulative kernel events at the end of the run.
    pub total_events: u64,
    /// One report per consumer, `None` if its session never started.
    pub reports: Vec<Option<Report>>,
    /// Consumers in the world.
    pub consumers: usize,
    /// Ground truth for discovery recall.
    pub total_entries: usize,
}

/// End-of-run engine state summed over the world's PDS nodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineState {
    pub lqt_entries: u64,
    pub lqt_bytes: u64,
    pub meta_entries: u64,
    pub chunk_bytes: u64,
    pub decode_errors: u64,
    pub resends: u64,
}

/// Driver-side measurements of a world run for the per-layer metrics;
/// queue depths are sampled only when traced.
#[derive(Default)]
pub struct Probe {
    /// Host seconds inside `World::run_until` over the session window.
    pub run_until_s: f64,
    /// Largest leaky-bucket and OS-buffer depth seen at a driver step.
    pub bucket_depth_max: u64,
    pub os_depth_max: u64,
}

/// One world run: host timings, simulated outcome, end state.
pub struct Run {
    pub setup_s: f64,
    /// Host seconds of the session window, reference samples left out.
    pub wall_s: f64,
    /// The mean reference time over the samples taken during the world.
    pub pace_s: f64,
    /// Largest resident set seen at a driver step of the session window.
    pub peak_rss_mb: f64,
    /// Simulated time when the driver stopped the run.
    pub ended_at: SimTime,
    pub outcome: Outcome,
    pub engine: EngineState,
    pub probe: Probe,
    /// The world after the run, kept so a traced run's spans can be read.
    pub world: World,
    pub nodes: Vec<NodeId>,
}

fn entry_descriptor(i: usize) -> DataDescriptor {
    DataDescriptor::builder()
        .attr("ns", "e")
        .attr("type", "no2")
        .attr("time", AttrValue::Time(1_480_000_000 + i as i64))
        .build()
}

fn item_descriptor(total_chunks: u32) -> DataDescriptor {
    DataDescriptor::builder()
        .attr("ns", "e")
        .attr("type", "video")
        .attr("name", "clip")
        .attr("total_chunks", i64::from(total_chunks))
        .build()
}

/// The world's nodes with their initial data: the placement
/// `pds_bench::Workload` makes for `seed`, rebuilt here because its
/// per-node lists are private; `reference` builds the original so the
/// benchmark can prove the two agree. Returns the nodes, the number of
/// distinct metadata entries and the chunked item, if any.
fn grid_nodes(spec: Spec, seed: u64) -> (Vec<PdsNode>, usize, Option<DataDescriptor>) {
    let n = ROWS * COLS;
    let pds = PdsConfig::default();
    let node_seed = seed.wrapping_add(7919);
    let mut nodes: Vec<PdsNode> = (0..n)
        .map(|i| PdsNode::new(pds.clone(), node_seed ^ (i as u64) << 16))
        .collect();
    let mut total_entries = 0;
    let mut item = None;
    match spec {
        Spec::Pdd => {
            let mut placed: Vec<Vec<DataDescriptor>> = vec![Vec::new(); n];
            let mut rng = SimRng::new(seed ^ 0x6d65_7461);
            for i in 0..PDD_ENTRIES {
                let d = entry_descriptor(i);
                let mut holders: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut holders);
                placed[holders[0]].push(d);
            }
            total_entries = PDD_ENTRIES;
            nodes = nodes
                .into_iter()
                .zip(placed)
                .map(|(node, ds)| ds.into_iter().fold(node, |n, d| n.with_metadata(d, None)))
                .collect();
        }
        Spec::Pdr | Spec::Mdr => {
            let total_chunks = ITEM_BYTES.div_ceil(CHUNK_BYTES) as u32;
            let descriptor = item_descriptor(total_chunks);
            let center = grid::center_index(ROWS, COLS);
            let mut rng = SimRng::new(seed ^ 0x6368_756e_6b73);
            let candidates: Vec<usize> = (0..n).filter(|&i| i != center).collect();
            let mut placed: Vec<Vec<(ChunkId, Vec<u8>)>> = vec![Vec::new(); n];
            for c in 0..total_chunks {
                let len = CHUNK_BYTES.min(ITEM_BYTES - c as usize * CHUNK_BYTES);
                let data = vec![(c % 251) as u8; len];
                let mut holders = candidates.clone();
                rng.shuffle(&mut holders);
                for &h in holders.iter().take(spec.redundancy()) {
                    placed[h].push((ChunkId(c), data.clone()));
                }
            }
            nodes = nodes
                .into_iter()
                .zip(placed)
                .map(|(node, chunks)| {
                    chunks.into_iter().fold(node, |n, (c, data)| {
                        n.with_chunk(descriptor.clone(), c, bytes::Bytes::from(data))
                    })
                })
                .collect();
            item = Some(descriptor);
        }
        Spec::City => unreachable!("the city world has no PDS nodes"),
    }
    (nodes, total_entries, item)
}

/// The node's `PdsNode`, bare or inside the timing adapter.
fn pds(world: &World, id: NodeId) -> Option<&PdsNode> {
    world
        .app::<PdsNode>(id)
        .or_else(|| world.app::<Traced>(id).map(Traced::inner))
}

/// Runs `f` on the node's `PdsNode` with a live context; a traced node
/// times it as a driver command span.
fn with_pds(world: &mut World, id: NodeId, f: impl FnOnce(&mut PdsNode, &mut Context)) {
    if world.app::<PdsNode>(id).is_some() {
        world.with_app::<PdsNode, _>(id, f);
    } else {
        world.with_app::<Traced, _>(id, |t, ctx| t.command(ctx, f));
    }
}

fn start_session(world: &mut World, id: NodeId, spec: Spec, item: Option<&DataDescriptor>) {
    match spec {
        Spec::Pdd => with_pds(world, id, |n, ctx| {
            n.start_discovery(ctx, QueryFilter::match_all());
        }),
        Spec::Pdr => {
            let item = item.expect("retrieval worlds hold an item").clone();
            with_pds(world, id, |n, ctx| n.start_retrieval(ctx, item));
        }
        Spec::Mdr => {
            let item = item.expect("retrieval worlds hold an item").clone();
            with_pds(world, id, |n, ctx| n.start_mdr_retrieval(ctx, item));
        }
        Spec::City => {}
    }
}

fn session_done(node: &PdsNode) -> bool {
    let d = node.discovery_report().map(|r| r.finished_at.is_some());
    let r = node.retrieval_report().map(|r| r.finished_at.is_some());
    match (d, r) {
        (Some(d), Some(r)) => d && r,
        (Some(d), None) => d,
        (None, Some(r)) => r,
        (None, None) => false,
    }
}

fn report(node: &PdsNode, spec: Spec) -> Option<Report> {
    match spec {
        Spec::Pdd => node.discovery_report().map(Report::Discovery),
        _ => node.retrieval_report().map(Report::Retrieval),
    }
}

fn consumers_of(spec: Spec, nodes: &[NodeId]) -> Vec<NodeId> {
    match spec {
        Spec::Mdr => vec![nodes[grid::center_index(ROWS, COLS)]],
        _ => grid::center_subgrid(ROWS, COLS, 5)
            .into_iter()
            .take(spec.consumers())
            .map(|i| nodes[i])
            .collect(),
    }
}

/// A set-up world: nodes started, no session begun yet.
pub struct Setup {
    world: World,
    nodes: Vec<NodeId>,
    consumers: Vec<NodeId>,
    total_entries: usize,
    item: Option<DataDescriptor>,
}

/// Generates the workload, builds the world and starts the nodes. With a
/// `tracer`, every `PdsNode` is wrapped in the timing adapter.
pub fn setup(spec: Spec, seed: u64, tracer: Option<&Tracer>) -> Setup {
    if spec == Spec::City {
        let world = CityScenario::StadiumExit.build(CITY_N, seed);
        let nodes = world.node_ids().collect();
        return Setup {
            world,
            nodes,
            consumers: Vec::new(),
            total_entries: 0,
            item: None,
        };
    }
    let (pds_nodes, total_entries, item) = grid_nodes(spec, seed);
    let mut world = World::new(SimConfig::paper_multi_hop(), seed);
    let positions = grid::positions(ROWS, COLS, grid::SPACING_M);
    let nodes: Vec<NodeId> = positions
        .iter()
        .zip(pds_nodes)
        .map(|(pos, node)| {
            let app: Box<dyn Application> = match tracer {
                Some(t) => Box::new(Traced::new(node, t.clone())),
                None => Box::new(node),
            };
            world.add_node(*pos, app)
        })
        .collect();
    // Let nodes start (timers arm) before any consumer acts.
    world.run_until(SimTime::from_secs_f64(0.1));
    let consumers = consumers_of(spec, &nodes);
    Setup {
        world,
        nodes,
        consumers,
        total_entries,
        item,
    }
}

/// Sets up and runs one world: sessions start together and the driver
/// steps the world until all finish or the deadline passes (the horizon,
/// for the city). With a `tracer`, the driver also samples queue depths
/// at each step. Between steps, `pacer` samples the host's pace.
pub fn run(spec: Spec, seed: u64, tracer: Option<&Tracer>, pacer: &mut Pacer) -> Run {
    let t_setup = WallClock::start();
    let Setup {
        mut world,
        nodes,
        consumers,
        total_entries,
        item,
    } = setup(spec, seed, tracer);
    let setup_s = t_setup.elapsed_s();

    let before = world.stats().clone();
    let events_before = world.events_dispatched();
    let mut probe = Probe::default();
    pacer.sample();
    let mark = pacer.len() - 1;
    let spent_before = pacer.spent_s();
    let t_wall = WallClock::start();
    if let Some(t) = tracer {
        t.advance_step();
    }
    for &c in &consumers {
        start_session(&mut world, c, spec, item.as_ref());
    }
    let deadline = spec.deadline();
    let mut peak_rss_mb = resident_mb();
    loop {
        let all_done = !consumers.is_empty()
            && consumers
                .iter()
                .all(|&id| pds(&world, id).is_none_or(session_done));
        if all_done || world.now() >= deadline {
            break;
        }
        if let Some(t) = tracer {
            t.advance_step();
            for &id in &nodes {
                if let Some((bucket, os)) = world.queue_depths(id) {
                    probe.bucket_depth_max = probe.bucket_depth_max.max(bucket as u64);
                    probe.os_depth_max = probe.os_depth_max.max(os as u64);
                }
            }
        }
        let next = (world.now() + STEP).min(deadline);
        let t_run = WallClock::start();
        world.run_until(next);
        probe.run_until_s += t_run.elapsed_s();
        peak_rss_mb = peak_rss_mb.max(resident_mb());
        pacer.tick();
    }
    let wall_s = t_wall.elapsed_s() - (pacer.spent_s() - spent_before);
    let pace_s = pacer.pace_since(mark);
    let ended_at = world.now();

    let reports = consumers
        .iter()
        .map(|&id| pds(&world, id).and_then(|n| report(n, spec)))
        .collect();
    let mut engine = EngineState::default();
    for &id in &nodes {
        let Some(node) = pds(&world, id) else {
            continue;
        };
        engine.decode_errors += node.decode_errors();
        engine.resends += node.resends();
        if let Some(e) = node.engine() {
            engine.lqt_entries += e.lqt().len() as u64;
            engine.lqt_bytes += e.lqt().approx_bytes() as u64;
            engine.meta_entries += e.store().metadata_len() as u64;
            engine.chunk_bytes += e.store().cached_chunk_bytes() as u64;
        }
    }
    let outcome = Outcome {
        stats: world.stats().since(&before),
        total_stats: world.stats().clone(),
        events: world.events_dispatched() - events_before,
        total_events: world.events_dispatched(),
        reports,
        consumers: consumers.len(),
        total_entries,
    };
    Run {
        setup_s,
        wall_s,
        pace_s,
        peak_rss_mb,
        ended_at,
        outcome,
        engine,
        probe,
        world,
        nodes,
    }
}

/// Resident set of this process now, MB, from `VmRSS`. A world's peak is
/// sampled at each driver step: `VmHWM` only gives the peak over the whole
/// process, which swings with the heaviest world a run happened to meet.
fn resident_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The same workload built by `pds_bench::GridScenario` and driven by
/// `Built::run_until_done`, as the paper-figure experiments run it.
pub fn reference(spec: Spec, seed: u64) -> Outcome {
    let sc = GridScenario::paper_default(seed);
    let mut built = sc.build(&spec.reference_workload(seed));
    let consumers = consumers_of(spec, &built.nodes);
    let before = built.world.stats().clone();
    let events_before = built.world.events_dispatched();
    for &c in &consumers {
        match spec {
            Spec::Pdd => built.start_discovery(c),
            Spec::Pdr => built.start_retrieval(c),
            Spec::Mdr => built.start_mdr(c),
            Spec::City => {}
        }
    }
    built.run_until_done(&consumers, spec.deadline());
    let world = &built.world;
    Outcome {
        stats: world.stats().since(&before),
        total_stats: world.stats().clone(),
        events: world.events_dispatched() - events_before,
        total_events: world.events_dispatched(),
        reports: consumers
            .iter()
            .map(|&id| world.app::<PdsNode>(id).and_then(|n| report(n, spec)))
            .collect(),
        consumers: consumers.len(),
        total_entries: built.total_entries,
    }
}
