//! Uniform spatial hash grids over node and transmission positions.
//!
//! Every frame delivery and [`World::neighbors`](crate::World::neighbors)
//! call needs "who is within `r` meters of here?". Scanning all nodes makes
//! dense scenarios O(n²)–O(n³); bucketing positions into square cells of
//! roughly one radio range turns each range query into a 3×3 cell probe.
//!
//! Two wrinkles distinguish this from a textbook grid:
//!
//! * **Positions are time-parameterized.** A node's [`Motion`] gives its
//!   position at any instant, so buckets go stale as virtual time advances.
//!   [`NodeGrid`] re-buckets *moving* nodes lazily — by default whenever the
//!   event clock advances, or on a configurable interval
//!   ([`SpatialConfig::rebucket_interval`](crate::SpatialConfig)) — and
//!   compensates for any staleness by **padding** query radii with
//!   `max_speed × time_since_rebucket`. Queries therefore always return a
//!   superset of the true in-range set; callers keep their exact distance
//!   check, which makes grid results *identical* to a brute-force scan.
//! * **Transmissions don't move.** A frame's delivery geometry is fixed at
//!   its start position, so [`TxGrid`] is a plain static-point index used by
//!   the CSMA carrier-sense scan.
//!
//! Both grids are cheap enough to maintain unconditionally; the
//! [`SpatialIndex`](crate::SpatialIndex) config knob only selects which
//! query path the kernel uses, which is what the differential property
//! tests exploit.

use crate::radio::{Motion, Position};
use pds_core::NodeId;
use pds_core::SimTime;
use pds_det::DetMap;

/// A grid cell coordinate (floor of position / cell size).
type Cell = (i64, i64);

fn cell_of(pos: Position, cell_m: f64) -> Cell {
    // `as` saturates on overflow, so absurd coordinates stay well-defined.
    (
        (pos.x / cell_m).floor() as i64,
        (pos.y / cell_m).floor() as i64,
    )
}

/// Spatial index over alive node positions.
///
/// Membership updates (add/move/remove) are applied eagerly; only the
/// drift of in-flight motions is compensated lazily (see module docs).
#[derive(Debug)]
pub(crate) struct NodeGrid {
    cell_m: f64,
    /// Each entry carries the node's motion, so range queries yield
    /// positions without a per-candidate lookup in the node table. The
    /// copy stays exact because every motion change re-upserts the node.
    cells: DetMap<Cell, Vec<(NodeId, Motion)>>,
    entries: DetMap<NodeId, Cell>,
    /// Nodes whose motion was still in progress at the last re-bucket (or
    /// that changed motion since), with their walking speeds.
    moving: DetMap<NodeId, f64>,
    /// Fastest walking speed among `moving` since the last re-bucket.
    max_speed: f64,
    /// Time at which every bucket was last known exact.
    stamp: SimTime,
}

impl NodeGrid {
    /// Creates an empty grid with the given cell edge in meters.
    ///
    /// # Panics
    ///
    /// Panics unless `cell_m` is positive and finite.
    pub fn new(cell_m: f64, now: SimTime) -> Self {
        assert!(
            cell_m.is_finite() && cell_m > 0.0,
            "spatial cell size must be positive"
        );
        Self {
            cell_m,
            cells: DetMap::default(),
            entries: DetMap::default(),
            moving: DetMap::default(),
            max_speed: 0.0,
            stamp: now,
        }
    }

    /// Time of the last re-bucket.
    pub fn stamp(&self) -> SimTime {
        self.stamp
    }

    fn unlink(&mut self, id: NodeId, cell: Cell) {
        if let Some(ids) = self.cells.get_mut(&cell) {
            if let Some(i) = ids.iter().position(|&(x, _)| x == id) {
                ids.swap_remove(i);
            }
            if ids.is_empty() {
                self.cells.remove(&cell);
            }
        }
    }

    /// Inserts `id` or moves it to the bucket matching `motion` at `now`,
    /// and tracks it as a drift source while its walk is in progress.
    pub fn upsert(&mut self, id: NodeId, motion: &Motion, now: SimTime) {
        let cell = cell_of(motion.position(now), self.cell_m);
        match self.entries.insert(id, cell) {
            Some(old) if old == cell => {
                if let Some(ids) = self.cells.get_mut(&cell) {
                    if let Some(e) = ids.iter_mut().find(|(x, _)| *x == id) {
                        e.1 = *motion;
                    }
                }
            }
            Some(old) => {
                self.unlink(id, old);
                self.cells.entry(cell).or_default().push((id, *motion));
            }
            None => self.cells.entry(cell).or_default().push((id, *motion)),
        }
        if motion.speed_mps > 0.0 && motion.arrival() > now {
            self.moving.insert(id, motion.speed_mps);
            self.max_speed = self.max_speed.max(motion.speed_mps);
        } else {
            self.moving.remove(&id);
        }
    }

    /// Removes `id` from the index (node churned out).
    pub fn remove(&mut self, id: NodeId) {
        if let Some(cell) = self.entries.remove(&id) {
            self.unlink(id, cell);
        }
        self.moving.remove(&id);
    }

    /// Re-buckets every moving node at `now` using `motion_of` to read its
    /// current motion, then resets the staleness clock. Nodes that arrived
    /// stop contributing drift.
    pub fn rebucket(&mut self, now: SimTime, motion_of: impl Fn(NodeId) -> Option<Motion>) {
        let ids: Vec<NodeId> = self.moving.keys().copied().collect();
        for id in ids {
            match motion_of(id) {
                Some(motion) => self.upsert(id, &motion, now),
                None => self.remove(id),
            }
        }
        self.max_speed = self.moving.values().copied().fold(0.0, f64::max);
        self.stamp = now;
    }

    /// Appends to `out` every node whose bucket lies within `radius` meters
    /// of `center` (padded for bucket staleness at `now`) — a superset of
    /// the nodes truly in range, for the caller to filter exactly.
    pub fn query_into(
        &self,
        center: Position,
        radius: f64,
        now: SimTime,
        out: &mut Vec<(NodeId, Motion)>,
    ) {
        let pad = self.max_speed * now.since(self.stamp).as_secs_f64();
        let reach = radius + pad;
        // Exact bounding box of the query disk in cell coordinates: any
        // entry within `reach` of `center` lies in one of these cells.
        let (x_lo, y_lo) = cell_of(
            Position::new(center.x - reach, center.y - reach),
            self.cell_m,
        );
        let (x_hi, y_hi) = cell_of(
            Position::new(center.x + reach, center.y + reach),
            self.cell_m,
        );
        // A pathological pad (huge rebucket interval × fast walkers) could
        // ask for far more cells than there are nodes; fall back to listing
        // everything rather than walking an enormous, mostly empty box.
        let probes = (x_hi - x_lo + 1) as f64 * (y_hi - y_lo + 1) as f64;
        if probes > 1024.0 && probes > self.entries.len() as f64 {
            for ids in self.cells.values() {
                out.extend_from_slice(ids);
            }
            return;
        }
        for cx in x_lo..=x_hi {
            for cy in y_lo..=y_hi {
                if let Some(ids) = self.cells.get(&(cx, cy)) {
                    out.extend_from_slice(ids);
                }
            }
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// A transmission's delivery-relevant fields, denormalized into the grid
/// so carrier-sense and interference scans touch no other map.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TxEntry {
    pub id: u64,
    pub sender: NodeId,
    pub pos: Position,
    pub start: SimTime,
    pub end: SimTime,
}

/// Spatial index over in-flight (and recently finished) transmissions,
/// keyed by transmission id at the sender's start position. Transmissions
/// never move, so buckets are exact.
#[derive(Debug, Default)]
pub(crate) struct TxGrid {
    cell_m: f64,
    cells: DetMap<Cell, Vec<TxEntry>>,
    entries: DetMap<u64, Cell>,
}

impl TxGrid {
    /// Creates an empty grid with the given cell edge in meters.
    ///
    /// # Panics
    ///
    /// Panics unless `cell_m` is positive and finite.
    pub fn new(cell_m: f64) -> Self {
        assert!(
            cell_m.is_finite() && cell_m > 0.0,
            "spatial cell size must be positive"
        );
        Self {
            cell_m,
            cells: DetMap::default(),
            entries: DetMap::default(),
        }
    }

    /// Indexes a transmission at its start position.
    pub fn insert(&mut self, entry: TxEntry) {
        let cell = cell_of(entry.pos, self.cell_m);
        self.cells.entry(cell).or_default().push(entry);
        self.entries.insert(entry.id, cell);
    }

    /// Drops transmission `id` from the index.
    pub fn remove(&mut self, id: u64) {
        if let Some(cell) = self.entries.remove(&id) {
            if let Some(txs) = self.cells.get_mut(&cell) {
                if let Some(i) = txs.iter().position(|t| t.id == id) {
                    txs.swap_remove(i);
                }
                if txs.is_empty() {
                    self.cells.remove(&cell);
                }
            }
        }
    }

    /// Appends to `out` every transmission whose start cell lies within
    /// `radius` meters of `center` — a superset for exact filtering. Order
    /// is unspecified; callers needing a deterministic order sort by id.
    pub fn query_into(&self, center: Position, radius: f64, out: &mut Vec<TxEntry>) {
        let (x_lo, y_lo) = cell_of(
            Position::new(center.x - radius, center.y - radius),
            self.cell_m,
        );
        let (x_hi, y_hi) = cell_of(
            Position::new(center.x + radius, center.y + radius),
            self.cell_m,
        );
        let probes = (x_hi - x_lo + 1) as f64 * (y_hi - y_lo + 1) as f64;
        if probes > 1024.0 && probes > self.entries.len() as f64 {
            for txs in self.cells.values() {
                out.extend_from_slice(txs);
            }
            return;
        }
        for cx in x_lo..=x_hi {
            for cy in y_lo..=y_hi {
                if let Some(txs) = self.cells.get(&(cx, cy)) {
                    out.extend_from_slice(txs);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_core::SimDuration;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn stationary(x: f64, y: f64) -> Motion {
        Motion::stationary(Position::new(x, y), SimTime::ZERO)
    }

    fn ids(out: &[(NodeId, Motion)]) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = out.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn query_finds_only_nearby_cells() {
        let mut g = NodeGrid::new(75.0, SimTime::ZERO);
        g.upsert(NodeId(0), &stationary(0.0, 0.0), SimTime::ZERO);
        g.upsert(NodeId(1), &stationary(50.0, 0.0), SimTime::ZERO);
        g.upsert(NodeId(2), &stationary(400.0, 400.0), SimTime::ZERO);
        let mut out = Vec::new();
        g.query_into(Position::new(10.0, 0.0), 75.0, SimTime::ZERO, &mut out);
        assert_eq!(ids(&out), vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn upsert_relocates_and_remove_unlinks() {
        let mut g = NodeGrid::new(10.0, SimTime::ZERO);
        g.upsert(NodeId(7), &stationary(5.0, 5.0), SimTime::ZERO);
        g.upsert(NodeId(7), &stationary(95.0, 95.0), SimTime::ZERO);
        assert_eq!(g.len(), 1);
        let mut out = Vec::new();
        g.query_into(Position::new(5.0, 5.0), 10.0, SimTime::ZERO, &mut out);
        assert!(out.is_empty(), "old bucket must be unlinked");
        g.query_into(Position::new(95.0, 95.0), 10.0, SimTime::ZERO, &mut out);
        assert_eq!(ids(&out), vec![NodeId(7)]);
        g.remove(NodeId(7));
        assert_eq!(g.len(), 0);
    }

    #[test]
    fn stale_buckets_are_padded_by_walker_speed() {
        let mut g = NodeGrid::new(75.0, SimTime::ZERO);
        // Walks +x at 10 m/s from the origin, bucketed at t=0.
        let walk = Motion {
            from: Position::new(0.0, 0.0),
            to: Position::new(1000.0, 0.0),
            depart: SimTime::ZERO,
            speed_mps: 10.0,
        };
        g.upsert(NodeId(0), &walk, SimTime::ZERO);
        // 30 s later the node is at x=300 but still bucketed at x=0. A
        // query near its *true* position must still surface it via the pad.
        let mut out = Vec::new();
        g.query_into(Position::new(300.0, 0.0), 75.0, t(30.0), &mut out);
        assert_eq!(
            ids(&out),
            vec![NodeId(0)],
            "pad must cover un-rebucketed drift"
        );
        // After re-bucketing the pad resets and a query at the old spot
        // no longer drags the ring wide.
        g.rebucket(t(30.0), |_| Some(walk));
        out.clear();
        g.query_into(Position::new(300.0, 0.0), 75.0, t(30.0), &mut out);
        assert_eq!(ids(&out), vec![NodeId(0)]);
        assert_eq!(g.stamp(), t(30.0));
    }

    #[test]
    fn rebucket_drops_arrived_walkers_from_drift() {
        let mut g = NodeGrid::new(75.0, SimTime::ZERO);
        let walk = Motion {
            from: Position::new(0.0, 0.0),
            to: Position::new(10.0, 0.0),
            depart: SimTime::ZERO,
            speed_mps: 10.0,
        };
        g.upsert(NodeId(0), &walk, SimTime::ZERO);
        assert!(g.max_speed > 0.0);
        g.rebucket(t(5.0), |_| Some(walk)); // arrived at t=1
        assert_eq!(g.max_speed, 0.0, "arrived node no longer contributes drift");
        assert!(g.moving.is_empty());
    }

    #[test]
    fn rebucket_drops_dead_nodes() {
        let mut g = NodeGrid::new(75.0, SimTime::ZERO);
        let walk = Motion {
            from: Position::new(0.0, 0.0),
            to: Position::new(500.0, 0.0),
            depart: SimTime::ZERO,
            speed_mps: 1.0,
        };
        g.upsert(NodeId(3), &walk, SimTime::ZERO);
        g.rebucket(t(1.0), |_| None);
        assert_eq!(g.len(), 0);
    }

    #[test]
    fn huge_pad_falls_back_to_full_listing() {
        let mut g = NodeGrid::new(1.0, SimTime::ZERO);
        let sprint = Motion {
            from: Position::new(0.0, 0.0),
            to: Position::new(1.0e6, 0.0),
            depart: SimTime::ZERO,
            speed_mps: 100.0,
        };
        g.upsert(NodeId(0), &sprint, SimTime::ZERO);
        g.upsert(NodeId(1), &stationary(9999.0, 9999.0), SimTime::ZERO);
        let mut out = Vec::new();
        // 1 h of staleness at 100 m/s with 1 m cells: the ring would span
        // hundreds of thousands of cells; the fallback lists everything.
        g.query_into(
            Position::new(0.0, 0.0),
            1.0,
            SimTime::ZERO + SimDuration::from_secs(3600),
            &mut out,
        );
        assert_eq!(ids(&out), vec![NodeId(0), NodeId(1)]);
    }

    fn tx(id: u64, x: f64, y: f64) -> TxEntry {
        TxEntry {
            id,
            sender: NodeId(id as u32),
            pos: Position::new(x, y),
            start: SimTime::ZERO,
            end: SimTime::ZERO,
        }
    }

    #[test]
    fn tx_grid_inserts_queries_and_removes() {
        let mut g = TxGrid::new(75.0);
        g.insert(tx(1, 0.0, 0.0));
        g.insert(tx(2, 60.0, 0.0));
        g.insert(tx(3, 900.0, 900.0));
        let mut out = Vec::new();
        g.query_into(Position::new(10.0, 10.0), 150.0, &mut out);
        let mut ids: Vec<u64> = out.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
        g.remove(2);
        out.clear();
        g.query_into(Position::new(10.0, 10.0), 150.0, &mut out);
        let ids: Vec<u64> = out.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![1]);
    }

    #[test]
    fn negative_coordinates_bucket_consistently() {
        let mut g = NodeGrid::new(75.0, SimTime::ZERO);
        g.upsert(NodeId(0), &stationary(-10.0, -10.0), SimTime::ZERO);
        let mut out = Vec::new();
        g.query_into(Position::new(-5.0, -5.0), 75.0, SimTime::ZERO, &mut out);
        assert_eq!(ids(&out), vec![NodeId(0)]);
    }
}
