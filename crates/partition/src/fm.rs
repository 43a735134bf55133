//! Fiduccia–Mattheyses area-balanced min-cut bipartitioning.

use foldic_geom::Tier;
use foldic_netlist::{InstId, Net, Netlist};
use foldic_tech::Technology;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Nets with more pins than this are excluded from the cut objective:
/// broadcast/control fan-outs span both dies no matter what and would only
/// drown the gain signal (clock nets are excluded unconditionally).
const MAX_NET_DEGREE: usize = 64;

/// Configuration of the FM partitioner.
#[derive(Debug, Clone)]
pub struct PartitionConfig {
    /// Allowed area imbalance as a fraction of total area (each side must
    /// hold `0.5 ± balance_tol` of the area).
    pub balance_tol: f64,
    /// Maximum number of improvement passes per start.
    pub max_passes: usize,
    /// Number of random restarts; the best result wins.
    pub starts: usize,
    /// RNG seed for the random initial solutions.
    pub seed: u64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        Self {
            balance_tol: 0.10,
            max_passes: 8,
            starts: 4,
            seed: 0xF01D,
        }
    }
}

/// A two-die assignment of every instance in a netlist.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Die of each instance, indexed by `InstId`.
    pub tier_of: Vec<Tier>,
    /// Number of cut signal nets (= 3D connections the fold will need).
    pub cut: usize,
}

impl Partition {
    /// Recounts the cut: signal nets with instance pins on both dies.
    /// Clock nets and nets wider than the degree cap are excluded, matching
    /// the paper's *signal* TSV counts and the nets FM minimises.
    pub fn cut_size(&self, netlist: &Netlist) -> usize {
        let mut verts = Vec::new();
        let mut cut = 0;
        for (_, net) in netlist.nets() {
            if !cut_net_vertices(net, &mut verts) {
                continue;
            }
            let first = self.tier_of[verts[0] as usize];
            if verts.iter().any(|&v| self.tier_of[v as usize] != first) {
                cut += 1;
            }
        }
        cut
    }

    /// Area imbalance `|A_bottom − A_top| / (A_bottom + A_top)`.
    pub fn balance(&self, netlist: &Netlist, tech: &Technology) -> f64 {
        let (mut bottom, mut top) = (0.0, 0.0);
        for (id, inst) in netlist.insts() {
            let a = inst.area_um2(tech);
            match self.tier_of[id.index()] {
                Tier::Bottom => bottom += a,
                Tier::Top => top += a,
            }
        }
        if bottom + top == 0.0 {
            0.0
        } else {
            (bottom - top).abs() / (bottom + top)
        }
    }

    /// Placement area per tier in µm², `(bottom, top)`.
    pub fn area_per_tier(&self, netlist: &Netlist, tech: &Technology) -> (f64, f64) {
        let (mut bottom, mut top) = (0.0, 0.0);
        for (id, inst) in netlist.insts() {
            let a = inst.area_um2(tech);
            match self.tier_of[id.index()] {
                Tier::Bottom => bottom += a,
                Tier::Top => top += a,
            }
        }
        (bottom, top)
    }
}

/// The cut objective's hypergraph in two CSR arrays.
struct Hypergraph {
    /// Net `k`'s distinct vertices, ascending, are
    /// `net_verts[net_off[k]..net_off[k + 1]]`.
    net_off: Vec<u32>,
    net_verts: Vec<u32>,
    /// Vertex `v`'s nets, ascending, are `inc_nets[inc_off[v]..inc_off[v + 1]]`.
    inc_off: Vec<u32>,
    inc_nets: Vec<u32>,
    /// Vertex areas.
    area: Vec<f64>,
}

impl Hypergraph {
    /// An empty hypergraph over vertices of the given areas; add nets with
    /// [`Self::push_net`], then [`Self::finish`].
    fn with_areas(area: Vec<f64>) -> Self {
        Self {
            net_off: vec![0],
            net_verts: Vec::new(),
            inc_off: Vec::new(),
            inc_nets: Vec::new(),
            area,
        }
    }

    /// Appends a net over `verts` (distinct, ascending).
    fn push_net(&mut self, verts: &[u32]) {
        self.net_verts.extend_from_slice(verts);
        self.net_off.push(self.net_verts.len() as u32);
    }

    /// Builds the vertex → nets side from the nets, by counting sort in
    /// net order.
    fn finish(mut self) -> Self {
        let n = self.area.len();
        let mut off = vec![0u32; n + 1];
        for &v in &self.net_verts {
            off[v as usize + 1] += 1;
        }
        for v in 0..n {
            off[v + 1] += off[v];
        }
        let mut cursor = off[..n].to_vec();
        let mut inc_nets = vec![0; self.net_verts.len()];
        for k in 0..self.num_nets() {
            for &v in self.net(k) {
                inc_nets[cursor[v as usize] as usize] = k as u32;
                cursor[v as usize] += 1;
            }
        }
        self.inc_off = off;
        self.inc_nets = inc_nets;
        self
    }

    fn num_nets(&self) -> usize {
        self.net_off.len() - 1
    }

    fn net(&self, k: usize) -> &[u32] {
        &self.net_verts[self.net_off[k] as usize..self.net_off[k + 1] as usize]
    }

    fn incident(&self, v: usize) -> &[u32] {
        &self.inc_nets[self.inc_off[v] as usize..self.inc_off[v + 1] as usize]
    }
}

/// The one net filter of the cut objective, shared by FM's hypergraph and
/// [`Partition::cut_size`]: fills `verts` with the net's distinct
/// instances (ascending) and returns whether the net counts — a signal
/// net with 2 to [`MAX_NET_DEGREE`] distinct instances.
fn cut_net_vertices(net: Net<'_>, verts: &mut Vec<u32>) -> bool {
    verts.clear();
    if net.is_clock {
        return false;
    }
    verts.extend(net.pins().filter_map(|p| p.inst()).map(|i| i.0));
    distinct_in_range(verts)
}

/// Sorts and dedups `verts` and returns whether 2 to [`MAX_NET_DEGREE`]
/// remain.
fn distinct_in_range(verts: &mut Vec<u32>) -> bool {
    verts.sort_unstable();
    verts.dedup();
    (2..=MAX_NET_DEGREE).contains(&verts.len())
}

fn build_hypergraph(netlist: &Netlist, tech: &Technology) -> Hypergraph {
    let area = netlist
        .insts()
        .map(|(_, inst)| inst.area_um2(tech))
        .collect();
    let mut hg = Hypergraph::with_areas(area);
    let mut verts = Vec::new();
    for (_, net) in netlist.nets() {
        if cut_net_vertices(net, &mut verts) {
            hg.push_net(&verts);
        }
    }
    hg.finish()
}

/// One FM refinement run over a hypergraph: updates `side` in place and
/// returns the final cut. [`fm_refine`] in the flow; tests swap in the
/// lazy-heap oracle.
type Refine = fn(&Hypergraph, &mut [bool], &[Option<Tier>], f64, f64, usize) -> usize;

/// Area-balanced min-cut bipartitioning with multi-start FM.
///
/// All instances (including placement-fixed macros) are movable: folding
/// re-places the block from scratch, so "fixed" only constrains placement,
/// not die assignment. Use [`crate::partition_by_groups`] or pre-seeded
/// solutions when some instances must stay on a given die.
pub fn bipartition(netlist: &Netlist, tech: &Technology, cfg: &PartitionConfig) -> Partition {
    bipartition_seeded(netlist, tech, cfg, None)
}

/// Like [`bipartition`], but starting from (and locking) the tiers given by
/// `locked` where it returns `Some`.
pub fn bipartition_seeded(
    netlist: &Netlist,
    tech: &Technology,
    cfg: &PartitionConfig,
    locked: Option<&dyn Fn(InstId) -> Option<Tier>>,
) -> Partition {
    partition_with(netlist, tech, cfg, locked, fm_refine)
}

/// Min-cut bipartitions of disjoint instance subsets of one netlist, each
/// exactly the partition [`bipartition`] finds for the subset's induced
/// sub-netlist: the subset's instances in ascending `InstId` order, and
/// the nets that are not clock nets, have at least two pins and whose
/// every pin is an instance pin inside the subset. Entry `i` of a
/// result's `tier_of` is the subset's `i`-th instance. One walk over the
/// netlist's nets builds every subset's hypergraph; no sub-netlist is
/// built.
///
/// Local ids follow the ascending member order, so each net's sorted
/// vertex list, each vertex's area and the net order are the
/// sub-netlist's (DESIGN §9).
///
/// # Panics
///
/// Panics when a subset is not strictly ascending or two subsets share
/// an instance.
pub fn bipartition_subsets(
    netlist: &Netlist,
    tech: &Technology,
    cfg: &PartitionConfig,
    subsets: &[Vec<InstId>],
) -> Vec<Partition> {
    const NONE: u32 = u32::MAX;
    // owner subset and local id of every instance
    let mut owner = vec![(NONE, 0u32); netlist.num_insts()];
    let mut graphs: Vec<Hypergraph> = subsets
        .iter()
        .enumerate()
        .map(|(s, members)| {
            for (i, &id) in members.iter().enumerate() {
                assert!(i == 0 || members[i - 1] < id, "subset {s} not ascending");
                assert!(owner[id.index()].0 == NONE, "subsets overlap at {id:?}");
                owner[id.index()] = (s as u32, i as u32);
            }
            Hypergraph::with_areas(
                members
                    .iter()
                    .map(|&id| netlist.inst(id).area_um2(tech))
                    .collect(),
            )
        })
        .collect();
    let mut verts = Vec::new();
    'nets: for (_, net) in netlist.nets() {
        if net.is_clock {
            continue;
        }
        verts.clear();
        let mut subset = NONE;
        for pin in net.pins() {
            let Some((s, local)) = pin.inst().map(|i| owner[i.index()]) else {
                continue 'nets; // a port
            };
            if s == NONE || (subset != NONE && s != subset) {
                continue 'nets;
            }
            subset = s;
            verts.push(local);
        }
        // `distinct_in_range` also drops nets of fewer than two pins
        if subset != NONE && distinct_in_range(&mut verts) {
            graphs[subset as usize].push_net(&verts);
        }
    }
    graphs
        .into_iter()
        .map(|hg| {
            let hg = hg.finish();
            let unlocked = vec![None; hg.area.len()];
            partition_hypergraph(&hg, cfg, &unlocked, fm_refine)
        })
        .collect()
}

fn partition_with(
    netlist: &Netlist,
    tech: &Technology,
    cfg: &PartitionConfig,
    locked: Option<&dyn Fn(InstId) -> Option<Tier>>,
    refine: Refine,
) -> Partition {
    let hg = build_hypergraph(netlist, tech);
    let locked_tier: Vec<Option<Tier>> = (0..netlist.num_insts())
        .map(|i| locked.and_then(|f| f(InstId::from(i))))
        .collect();
    partition_hypergraph(&hg, cfg, &locked_tier, refine)
}

/// Multi-start FM on a built hypergraph; vertex `i` of `hg` is entry `i`
/// of the returned `tier_of`.
fn partition_hypergraph(
    hg: &Hypergraph,
    cfg: &PartitionConfig,
    locked_tier: &[Option<Tier>],
    refine: Refine,
) -> Partition {
    if hg.area.is_empty() {
        return Partition {
            tier_of: Vec::new(),
            cut: 0,
        };
    }
    let total_area: f64 = hg.area.iter().sum();
    let lo = total_area * (0.5 - cfg.balance_tol);
    let hi = total_area * (0.5 + cfg.balance_tol);

    let mut best: Option<(usize, Vec<bool>)> = None;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for _ in 0..cfg.starts.max(1) {
        let mut side = random_balanced(hg, locked_tier, total_area, &mut rng);
        let cut = refine(hg, &mut side, locked_tier, lo, hi, cfg.max_passes);
        if best.as_ref().is_none_or(|(c, _)| cut < *c) {
            best = Some((cut, side));
        }
    }
    let (cut, side) = best.expect("at least one start");
    Partition {
        tier_of: side
            .iter()
            .map(|&s| if s { Tier::Top } else { Tier::Bottom })
            .collect(),
        cut,
    }
}

/// Random area-balanced initial assignment honouring locks.
fn random_balanced(
    hg: &Hypergraph,
    locked: &[Option<Tier>],
    total_area: f64,
    rng: &mut StdRng,
) -> Vec<bool> {
    let n = hg.area.len();
    let mut side = vec![false; n];
    let mut top_area = 0.0;
    for (i, l) in locked.iter().enumerate() {
        if let Some(t) = l {
            side[i] = *t == Tier::Top;
            if side[i] {
                top_area += hg.area[i];
            }
        }
    }
    let mut free: Vec<usize> = (0..n).filter(|&i| locked[i].is_none()).collect();
    free.shuffle(rng);
    for i in free {
        if top_area < total_area * 0.5 {
            side[i] = true;
            top_area += hg.area[i];
        } else {
            side[i] = false;
        }
    }
    side
}

/// An FM move candidate `(gain, stamp, vertex)` packed into one integer
/// that orders as the tuple does: `(gain + 2^40) << 64 | stamp << 32 |
/// vertex`. The stamp counts the (move, shared net) updates the vertex
/// received this pass, so among equal gains the most recently touched
/// vertex wins, and the id breaks what is left. A gain is bounded by the
/// vertex's net count, far inside ±2^40.
type Key = u128;

const GAIN_BIAS: i64 = 1 << 40;

fn key(gain: i64, stamp: u32, v: u32) -> Key {
    debug_assert!(gain.abs() < GAIN_BIAS);
    ((gain + GAIN_BIAS) as u128) << 64 | u128::from(stamp) << 32 | u128::from(v)
}

fn key_gain(k: Key) -> i64 {
    (k >> 64) as i64 - GAIN_BIAS
}

fn key_vertex(k: Key) -> usize {
    (k as u32) as usize
}

const ABSENT: u32 = u32::MAX;

/// Max-heap of at most one [`Key`] per vertex, addressable by vertex.
struct KeyHeap {
    heap: Vec<Key>,
    /// Heap slot of each vertex, or [`ABSENT`].
    slot: Vec<u32>,
}

impl KeyHeap {
    fn new(n: usize) -> Self {
        Self {
            heap: Vec::with_capacity(n),
            slot: vec![ABSENT; n],
        }
    }

    /// Replaces the contents with `keys` (one per vertex at most).
    fn rebuild(&mut self, keys: impl Iterator<Item = Key>) {
        for &k in &self.heap {
            self.slot[key_vertex(k)] = ABSENT;
        }
        self.heap.clear();
        self.heap.extend(keys);
        for (i, &k) in self.heap.iter().enumerate() {
            self.slot[key_vertex(k)] = i as u32;
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    /// Inserts `key`, or replaces its vertex's key.
    fn set(&mut self, key: Key) {
        let v = key_vertex(key);
        if self.slot[v] == ABSENT {
            self.slot[v] = self.heap.len() as u32;
            self.heap.push(key);
            self.sift_up(self.heap.len() - 1);
            return;
        }
        let i = self.slot[v] as usize;
        let old = std::mem::replace(&mut self.heap[i], key);
        if key > old {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    /// Removes and returns the largest key.
    fn pop(&mut self) -> Option<Key> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap.swap_remove(0);
        self.slot[key_vertex(top)] = ABSENT;
        if let Some(&k) = self.heap.first() {
            self.slot[key_vertex(k)] = 0;
            self.sift_down(0);
        }
        Some(top)
    }

    /// Moves the key at `i` up to its place, shifting the smaller keys on
    /// its path down one level each (a hole, not a swap per level).
    fn sift_up(&mut self, mut i: usize) {
        let key = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if key <= self.heap[parent] {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, key);
    }

    /// Moves the key at `i` down to its place, shifting the larger child
    /// on its path up one level each.
    fn sift_down(&mut self, mut i: usize) {
        let key = self.heap[i];
        let len = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.heap[right] > self.heap[left] {
                right
            } else {
                left
            };
            if self.heap[child] <= key {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, key);
    }

    /// Stores `key` in heap slot `i` and records the slot.
    fn place(&mut self, i: usize, key: Key) {
        self.heap[i] = key;
        self.slot[key_vertex(key)] = i as u32;
    }
}

/// Passes [`fm_refine`] ended at the exact cut-off with moves left.
#[cfg(test)]
static CUT_OFF_PASSES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// One FM run: repeated passes until a pass yields no improvement.
/// Returns the final cut size.
///
/// Each pass keeps every unmoved, unlocked vertex's gain current with the
/// FM delta rule and holds one live key per vertex in a [`KeyHeap`]; it
/// pops the same vertex sequence as a lazy heap that recomputes a
/// neighbour's gain and pushes a fresh entry per (move, shared net)
/// (DESIGN §9).
///
/// A pass ends as soon as no later prefix can beat the best one: a cut
/// net with locked cells (moved this pass, or seed-locked) on both sides
/// is dead, it stays cut until the pass ends, so no prefix reaches a cut
/// below the dead count. Once `cut₀ − dead ≤ best` the rest of the pass
/// could only be undone.
fn fm_refine(
    hg: &Hypergraph,
    side: &mut [bool],
    locked: &[Option<Tier>],
    lo: f64,
    hi: f64,
    max_passes: usize,
) -> usize {
    let n = side.len();
    let mut cut = count_cut(hg, side);
    let mut heap = KeyHeap::new(n);
    let mut gain = vec![0i64; n];
    let mut stamp = vec![0u32; n];
    // locked or moved this pass: no gain update, no key
    let mut frozen = vec![false; n];
    let mut touched: Vec<u32> = Vec::new();
    let mut is_touched = vec![false; n];
    let mut counts: Vec<(u32, u32)> = Vec::with_capacity(hg.num_nets());
    // Per net, the locked cells on each side `[bottom, top]`: seed locks
    // never move, so their counts are set once; a pass adds its moves.
    let mut seed_locked = vec![[0u32; 2]; hg.num_nets()];
    for v in (0..n).filter(|&v| locked[v].is_some()) {
        for &nid in hg.incident(v) {
            seed_locked[nid as usize][usize::from(side[v])] += 1;
        }
    }
    let seed_dead = seed_locked.iter().filter(|c| c[0] > 0 && c[1] > 0).count();
    let mut locked_on = seed_locked.clone();
    let mut order: Vec<usize> = Vec::new();
    for _ in 0..max_passes {
        // per-net side counts
        counts.clear();
        counts.extend((0..hg.num_nets()).map(|k| {
            let verts = hg.net(k);
            let top = verts.iter().filter(|&&v| side[v as usize]).count() as u32;
            (verts.len() as u32 - top, top)
        }));
        let mut top_area: f64 = (0..n).filter(|&i| side[i]).map(|i| hg.area[i]).sum();

        let gain_of = |v: usize, side: &[bool], counts: &[(u32, u32)]| -> i64 {
            let mut g = 0i64;
            for &nid in hg.incident(v) {
                let (b, t) = counts[nid as usize];
                let (from, to) = if side[v] { (t, b) } else { (b, t) };
                if from == 1 {
                    g += 1; // moving v uncuts the net
                }
                if to == 0 {
                    g -= 1; // moving v cuts the net
                }
            }
            g
        };

        stamp.fill(0);
        for (f, l) in frozen.iter_mut().zip(locked) {
            *f = l.is_some();
        }
        locked_on.copy_from_slice(&seed_locked);
        let mut dead = seed_dead;
        for v in 0..n {
            if locked[v].is_none() {
                gain[v] = gain_of(v, side, &counts);
            }
        }
        heap.rebuild(
            (0..n)
                .filter(|&v| locked[v].is_none())
                .map(|v| key(gain[v], 0, v as u32)),
        );
        order.clear();
        let (mut running, mut best_gain, mut best_k) = (0i64, 0i64, 0usize);
        while let Some(k) = heap.pop() {
            let (g, v) = (key_gain(k), key_vertex(k));
            // balance feasibility
            let new_top = if side[v] {
                top_area - hg.area[v]
            } else {
                top_area + hg.area[v]
            };
            if new_top < lo || new_top > hi {
                // out of the heap until a neighbour's move re-keys it
                continue;
            }
            // apply move: with `(a, b)` a net's counts on v's side and the
            // other side before the move, a neighbour on v's side gains
            // [a == 2] + [b == 0] and one on the other side (so b >= 1)
            // gains −[a == 1] − [b == 1]
            frozen[v] = true;
            order.push(v);
            let from_top = side[v];
            for &nid in hg.incident(v) {
                let c = &mut counts[nid as usize];
                let (a, b) = if from_top { (c.1, c.0) } else { (c.0, c.1) };
                let same = i64::from(a == 2) + i64::from(b == 0);
                let other = -i64::from(a == 1) - i64::from(b == 1);
                for &u in hg.net(nid as usize) {
                    let u = u as usize;
                    if frozen[u] {
                        continue;
                    }
                    gain[u] += if side[u] == from_top { same } else { other };
                    stamp[u] += 1;
                    if !is_touched[u] {
                        is_touched[u] = true;
                        touched.push(u as u32);
                    }
                }
                if from_top {
                    c.1 -= 1;
                    c.0 += 1;
                } else {
                    c.0 -= 1;
                    c.1 += 1;
                }
                // v now sits locked on side `to`: a net locked on both
                // sides for the first time is dead
                let (l, to) = (&mut locked_on[nid as usize], usize::from(!from_top));
                l[to] += 1;
                if l[to] == 1 && l[1 - to] > 0 {
                    dead += 1;
                }
            }
            side[v] = !from_top;
            top_area = new_top;
            for u in touched.drain(..) {
                is_touched[u as usize] = false;
                heap.set(key(gain[u as usize], stamp[u as usize], u));
            }
            // track the best prefix of the move sequence
            running += g;
            if running > best_gain {
                best_gain = running;
                best_k = order.len();
            }
            if cut as i64 - dead as i64 <= best_gain {
                #[cfg(test)]
                if !heap.heap.is_empty() {
                    CUT_OFF_PASSES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                break;
            }
        }
        // undo moves beyond the best prefix
        for &v in &order[best_k..] {
            side[v] = !side[v];
        }
        if best_gain <= 0 {
            break;
        }
        cut = (cut as i64 - best_gain) as usize;
    }
    debug_assert_eq!(cut, count_cut(hg, side));
    cut
}

fn count_cut(hg: &Hypergraph, side: &[bool]) -> usize {
    (0..hg.num_nets())
        .filter(|&k| {
            let verts = hg.net(k);
            let first = side[verts[0] as usize];
            verts.iter().any(|&v| side[v as usize] != first)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use foldic_netlist::{InstMaster, PinRef};
    use foldic_tech::{CellKind, Drive, VthClass};
    use rand::Rng;
    use std::collections::BinaryHeap;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    /// Two cliques of `k` cells joined by a single bridge net: FM must find
    /// the bridge.
    fn two_cliques(k: usize) -> (Netlist, Technology) {
        let tech = Technology::cmos28();
        let lib = &tech.cells;
        let master = InstMaster::Cell(lib.id_of(CellKind::Nand2, Drive::X1, VthClass::Rvt));
        let mut nl = Netlist::new("cliques");
        let ids: Vec<InstId> = (0..2 * k)
            .map(|i| nl.add_inst(format!("u{i}"), master))
            .collect();
        let wire = |a: InstId, b: InstId, name: String, nl: &mut Netlist| {
            let n = nl.add_net(name);
            nl.connect_driver(n, PinRef::output(a));
            nl.connect_sink(n, PinRef::input(b, 0));
        };
        for c in 0..2 {
            let base = c * k;
            for i in 0..k {
                for j in (i + 1)..k {
                    wire(
                        ids[base + i],
                        ids[base + j],
                        format!("c{c}_{i}_{j}"),
                        &mut nl,
                    );
                }
            }
        }
        wire(ids[0], ids[k], "bridge".into(), &mut nl);
        (nl, tech)
    }

    #[test]
    fn finds_the_bridge_cut() {
        let (nl, tech) = two_cliques(12);
        let p = bipartition(&nl, &tech, &PartitionConfig::default());
        assert_eq!(p.cut, 1, "must cut only the bridge net");
        assert!(p.balance(&nl, &tech) < 0.05);
    }

    #[test]
    fn cut_size_matches_recount() {
        let (nl, tech) = two_cliques(8);
        let p = bipartition(&nl, &tech, &PartitionConfig::default());
        assert_eq!(p.cut, p.cut_size(&nl));
    }

    #[test]
    fn seeded_locks_are_respected() {
        let (nl, tech) = two_cliques(8);
        // lock vertex 0 to Top and vertex 8 (other clique) to Bottom
        let lock = |id: InstId| -> Option<Tier> {
            match id.0 {
                0 => Some(Tier::Top),
                8 => Some(Tier::Bottom),
                _ => None,
            }
        };
        let p = bipartition_seeded(&nl, &tech, &PartitionConfig::default(), Some(&lock));
        assert_eq!(p.tier_of[0], Tier::Top);
        assert_eq!(p.tier_of[8], Tier::Bottom);
        assert_eq!(p.cut, 1);
    }

    #[test]
    fn empty_netlist_is_fine() {
        let tech = Technology::cmos28();
        let nl = Netlist::new("empty");
        let p = bipartition(&nl, &tech, &PartitionConfig::default());
        assert_eq!(p.cut, 0);
        assert!(p.tier_of.is_empty());
    }

    /// A net over `verts` (driver first) with one extra pin on an
    /// instance already present, so pin and instance counts differ.
    fn wide_net(nl: &mut Netlist, name: &str, verts: &[InstId]) {
        let n = nl.add_net(name.to_owned());
        nl.connect_driver(n, PinRef::output(verts[0]));
        for &v in &verts[1..] {
            nl.connect_sink(n, PinRef::input(v, 0));
        }
        nl.connect_sink(n, PinRef::input(verts[1], 1));
    }

    #[test]
    fn cut_size_skips_nets_over_the_degree_cap() {
        let tech = Technology::cmos28();
        let master = InstMaster::Cell(tech.cells.id_of(CellKind::Inv, Drive::X1, VthClass::Rvt));
        let mut nl = Netlist::new("wide");
        let ids: Vec<InstId> = (0..70)
            .map(|i| nl.add_inst(format!("u{i}"), master))
            .collect();
        wide_net(&mut nl, "w64", &ids[..64]);
        wide_net(&mut nl, "w65", &ids[..65]);
        let part = Partition {
            tier_of: (0..70)
                .map(|i| if i % 2 == 0 { Tier::Bottom } else { Tier::Top })
                .collect(),
            cut: 0,
        };
        assert_eq!(part.cut_size(&nl), 1, "only the 64-instance net counts");
    }

    // ---- live-key FM vs lazy-heap oracle ---------------------------------

    fn fuzz_seed() -> u64 {
        std::env::var("FOLDIC_FUZZ_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xDAC1_4F3A)
    }

    /// Times the oracle popped a live entry of a vertex that had failed
    /// the balance test earlier in the same pass (re-keyed by a later
    /// neighbour move).
    static REKEYED_AFTER_REJECT: AtomicUsize = AtomicUsize::new(0);

    /// The lazy-heap FM pass [`fm_refine`] replaced: every (move, shared
    /// net) recomputes the neighbour's gain from scratch and pushes a
    /// fresh entry; stale entries are skipped by stamp on pop.
    fn fm_refine_lazy(
        hg: &Hypergraph,
        side: &mut [bool],
        locked: &[Option<Tier>],
        lo: f64,
        hi: f64,
        max_passes: usize,
    ) -> usize {
        let n = side.len();
        let mut cut = count_cut(hg, side);
        for _ in 0..max_passes {
            let mut counts: Vec<(u32, u32)> = (0..hg.num_nets())
                .map(|k| {
                    let verts = hg.net(k);
                    let top = verts.iter().filter(|&&v| side[v as usize]).count() as u32;
                    (verts.len() as u32 - top, top)
                })
                .collect();
            let mut top_area: f64 = (0..n).filter(|&i| side[i]).map(|i| hg.area[i]).sum();

            let gain_of = |v: usize, side: &[bool], counts: &[(u32, u32)]| -> i64 {
                let mut g = 0i64;
                for &nid in hg.incident(v) {
                    let (b, t) = counts[nid as usize];
                    let (from, to) = if side[v] { (t, b) } else { (b, t) };
                    if from == 1 {
                        g += 1;
                    }
                    if to == 0 {
                        g -= 1;
                    }
                }
                g
            };

            let mut stamp = vec![0u32; n];
            let mut rejected = vec![false; n];
            let mut heap: BinaryHeap<(i64, u32, u32)> = BinaryHeap::new();
            for (v, lock) in locked.iter().enumerate().take(n) {
                if lock.is_none() {
                    heap.push((gain_of(v, side, &counts), 0, v as u32));
                }
            }
            let mut moved = vec![false; n];
            let mut order: Vec<(usize, i64)> = Vec::new();
            while let Some((g, s, v)) = heap.pop() {
                let v = v as usize;
                if moved[v] || s != stamp[v] {
                    continue;
                }
                if rejected[v] {
                    REKEYED_AFTER_REJECT.fetch_add(1, Relaxed);
                }
                let new_top = if side[v] {
                    top_area - hg.area[v]
                } else {
                    top_area + hg.area[v]
                };
                if new_top < lo || new_top > hi {
                    rejected[v] = true;
                    continue;
                }
                moved[v] = true;
                order.push((v, g));
                for &nid in hg.incident(v) {
                    let c = &mut counts[nid as usize];
                    if side[v] {
                        c.1 -= 1;
                        c.0 += 1;
                    } else {
                        c.0 -= 1;
                        c.1 += 1;
                    }
                }
                side[v] = !side[v];
                top_area = new_top;
                for &nid in hg.incident(v) {
                    for &u in hg.net(nid as usize) {
                        let u = u as usize;
                        if !moved[u] && locked[u].is_none() {
                            stamp[u] += 1;
                            heap.push((gain_of(u, side, &counts), stamp[u], u as u32));
                        }
                    }
                }
            }
            let mut best_gain = 0i64;
            let mut running = 0i64;
            let mut best_k = 0usize;
            for (k, &(_, g)) in order.iter().enumerate() {
                running += g;
                if running > best_gain {
                    best_gain = running;
                    best_k = k + 1;
                }
            }
            for &(v, _) in &order[best_k..] {
                side[v] = !side[v];
            }
            if best_gain <= 0 {
                break;
            }
            cut = (cut as i64 - best_gain) as usize;
        }
        cut
    }

    /// A random netlist for the oracle comparison. Every 10th case is
    /// empty or a single cell; every 10th has 70 cells with a 64- and a
    /// 65-instance net; one case in three uses one master, so most gains
    /// tie and the stamp and id decide.
    fn random_netlist(rng: &mut StdRng, tech: &Technology, iter: usize) -> Netlist {
        let lib = &tech.cells;
        let masters = [
            lib.id_of(CellKind::Nand2, Drive::X1, VthClass::Rvt),
            lib.id_of(CellKind::Inv, Drive::X1, VthClass::Rvt),
            lib.id_of(CellKind::Dff, Drive::X1, VthClass::Rvt),
            lib.id_of(CellKind::Buf, Drive::X4, VthClass::Rvt),
        ];
        let n = match iter % 10 {
            0 => iter / 10 % 2,
            1 => 70,
            _ => rng.gen_range(2..48usize),
        };
        let uniform = iter.is_multiple_of(3);
        let mut nl = Netlist::new("fuzz");
        let ids: Vec<InstId> = (0..n)
            .map(|i| {
                let m = if uniform {
                    masters[0]
                } else {
                    masters[rng.gen_range(0..masters.len())]
                };
                nl.add_inst(format!("u{i}"), InstMaster::Cell(m))
            })
            .collect();
        if n == 0 {
            return nl;
        }
        for k in 0..rng.gen_range(0..3 * n + 1) {
            let net = nl.add_net(format!("n{k}"));
            nl.connect_driver(net, PinRef::output(ids[rng.gen_range(0..n)]));
            let fanout = if rng.gen_bool(0.6) {
                1
            } else {
                rng.gen_range(2..8usize)
            };
            for _ in 0..fanout {
                nl.connect_sink(net, PinRef::input(ids[rng.gen_range(0..n)], 0));
            }
            if rng.gen_bool(0.05) {
                nl.net_mut(net).is_clock = true;
            }
        }
        if n >= 65 {
            let mut shuffled = ids.clone();
            shuffled.shuffle(rng);
            wide_net(&mut nl, "w64", &shuffled[..64]);
            shuffled.shuffle(rng);
            wide_net(&mut nl, "w65", &shuffled[..65]);
        }
        nl
    }

    /// 2,400 random netlists: the live-key FM must return the lazy-heap
    /// oracle's partition bit for bit — every tier and the cut. Covers
    /// n = 0 and 1, all-locked and partly locked starts, balance windows
    /// from 0 to 0.5 (tight ones reject popped vertices that a later move
    /// re-keys), single-master netlists full of gain ties, clock nets,
    /// and nets of exactly 64 and 65 distinct instances. Seeded via
    /// `FOLDIC_FUZZ_SEED` like the other oracle suites.
    #[test]
    fn live_key_fm_matches_lazy_heap_oracle_bitwise() {
        const ITERS: usize = 2_400;
        let tech = Technology::cmos28();
        let mut rng = StdRng::seed_from_u64(fuzz_seed());
        let before = REKEYED_AFTER_REJECT.load(Relaxed);
        let cut_offs = CUT_OFF_PASSES.load(Relaxed);
        for iter in 0..ITERS {
            let nl = random_netlist(&mut rng, &tech, iter);
            let cfg = PartitionConfig {
                balance_tol: [0.0, 0.005, 0.02, 0.05, 0.1, 0.25, 0.5][rng.gen_range(0..7usize)],
                max_passes: rng.gen_range(1..7usize),
                starts: rng.gen_range(1..4usize),
                seed: rng.gen(),
            };
            let lock_p = match iter % 7 {
                0 => 1.0,
                1 | 2 => 0.25,
                _ => 0.0,
            };
            let locks: Vec<Option<Tier>> = (0..nl.num_insts())
                .map(|_| {
                    rng.gen_bool(lock_p).then(|| {
                        if rng.gen_bool(0.5) {
                            Tier::Top
                        } else {
                            Tier::Bottom
                        }
                    })
                })
                .collect();
            let lock = |id: InstId| locks[id.index()];
            let live = partition_with(&nl, &tech, &cfg, Some(&lock), fm_refine);
            let lazy = partition_with(&nl, &tech, &cfg, Some(&lock), fm_refine_lazy);
            assert_eq!(live.tier_of, lazy.tier_of, "case {iter}: tiers differ");
            assert_eq!(live.cut, lazy.cut, "case {iter}: cut differs");
            assert_eq!(live.cut, live.cut_size(&nl), "case {iter}: cut recount");
        }
        assert!(
            REKEYED_AFTER_REJECT.load(Relaxed) > before,
            "no case re-keyed a vertex after a balance rejection"
        );
        assert!(
            CUT_OFF_PASSES.load(Relaxed) > cut_offs,
            "no pass ended at the exact cut-off with moves left"
        );
    }

    #[test]
    fn balance_tolerance_is_enforced() {
        let (nl, tech) = two_cliques(20);
        let cfg = PartitionConfig {
            balance_tol: 0.02,
            ..Default::default()
        };
        let p = bipartition(&nl, &tech, &cfg);
        assert!(p.balance(&nl, &tech) <= 0.05);
    }
}
