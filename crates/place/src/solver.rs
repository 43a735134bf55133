//! Quadratic wirelength system and conjugate-gradient solver.
//!
//! The system is built once per placement and solved many times with
//! growing anchor weights, so everything that does not depend on live
//! positions is precomputed at build: the clique adjacency lives in one
//! sliced-ELL matrix ([`SlicedEll`]), the base diagonal and right-hand
//! sides (clique + fixed springs) are baked into `base_*` vectors, and
//! star-net pins are pre-resolved to variable indices. Each `solve` then
//! only copies the bases, layers the position-dependent star/anchor
//! contributions on top, and runs CG entirely in scratch buffers owned by
//! the system — zero allocations after the first solve. The x and y
//! systems share the matrix, so one CG kernel solves both as interleaved
//! `[x, y]` lanes.

use std::cmp::Reverse;

use foldic_geom::{Point, Rect};
use foldic_netlist::{InstId, Netlist, PinRef};

/// Nets up to this many pins enter the system as cliques; larger nets use
/// centroid (star) springs recomputed every solve.
const CLIQUE_LIMIT: usize = 8;

/// Star-net pin sentinel for "fixed pin" in [`QuadraticSystem::star_var`].
const FIXED_PIN: u32 = u32::MAX;

/// Rows per [`SlicedEll`] chunk: one chunk sweep advances this many
/// independent row sums under a shared trip count.
const CHUNK: usize = 4;

/// The clique adjacency of an `n`-variable system as a sliced-ELL
/// (SELL-C-σ) matrix.
///
/// Rows are stable-sorted by descending degree and packed [`CHUNK`] at a
/// time. A chunk stores its rows' entries column-major (entry k of each
/// row, then entry k+1) and is as wide as its first, widest row. The row
/// list is padded to a multiple of [`CHUNK`] with the sentinel row `n`
/// and every shorter row with `(n, 0.0)`, so padding only ever reads the
/// zero slot `n` of the vector being multiplied. Each row keeps its
/// neighbours in edge order.
#[derive(Debug)]
struct SlicedEll {
    /// The row in each chunk lane, in sweep order (`n` pads).
    rows: Vec<u32>,
    /// Chunk `k`'s entries are `ent[off[k]..off[k + 1]]`.
    off: Vec<u32>,
    /// Packed `(neighbour, weight)` pairs.
    ent: Vec<(u32, f64)>,
}

impl SlicedEll {
    /// Packs the symmetric adjacency of `edges` (`(a, b, w)` with `a ≠ b`,
    /// both `< n`): each edge enters row `a` as `(b, w)` and row `b` as
    /// `(a, w)`, in edge order.
    fn new(n: usize, edges: &[(u32, u32, f64)]) -> Self {
        let mut degree = vec![0u32; n];
        for &(a, b, _) in edges {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let padded = n.div_ceil(CHUNK) * CHUNK;
        let mut rows = Vec::with_capacity(padded);
        rows.extend(0..n as u32);
        rows.sort_by_key(|&i| Reverse(degree[i as usize]));
        rows.resize(padded, n as u32);
        let mut off = Vec::with_capacity(padded / CHUNK + 1);
        off.push(0u32);
        for chunk in rows.chunks_exact(CHUNK) {
            let width = degree[chunk[0] as usize];
            off.push(off[off.len() - 1] + CHUNK as u32 * width);
        }
        // Each row's next free slot: its chunk's start plus its lane,
        // advancing one column (CHUNK slots) per entry.
        let mut cursor = degree;
        for (pos, &i) in rows[..n].iter().enumerate() {
            cursor[i as usize] = off[pos / CHUNK] + (pos % CHUNK) as u32;
        }
        let mut ent = vec![(n as u32, 0.0); off[off.len() - 1] as usize];
        for &(a, b, w) in edges {
            ent[cursor[a as usize] as usize] = (b, w);
            cursor[a as usize] += CHUNK as u32;
            ent[cursor[b as usize] as usize] = (a, w);
            cursor[b as usize] += CHUNK as u32;
        }
        Self { rows, off, ent }
    }

    /// `out = A·p` on both lanes, with `A = diag − offdiag(self)`: row
    /// `i` sums `diag_i·p_i`, then subtracts `w·p_j` for each neighbour in
    /// edge order. `p` and `out` have `n + 1` slots and `p[n]` must be
    /// `[0.0, 0.0]`: a padding entry then subtracts `0.0·0.0 = +0.0`,
    /// which leaves every sum as it was (`−0.0`, ±inf and NaN included),
    /// so each row's value is the plain row loop's bit for bit. The
    /// sentinel row lies past the end of `diag`, takes `d = 0`, and writes
    /// `out[n]`, which no caller reads.
    fn mat_vec(&self, diag: &[f64], p: &[[f64; 2]], out: &mut [[f64; 2]]) {
        for (rows, span) in self.rows.chunks_exact(CHUNK).zip(self.off.windows(2)) {
            let mut s = [[0.0; 2]; CHUNK];
            for (s, &i) in s.iter_mut().zip(rows) {
                let i = i as usize;
                let d = diag.get(i).copied().unwrap_or(0.0);
                *s = [d * p[i][0], d * p[i][1]];
            }
            for col in self.ent[span[0] as usize..span[1] as usize].chunks_exact(CHUNK) {
                for (s, &(j, w)) in s.iter_mut().zip(col) {
                    let q = p[j as usize];
                    s[0] -= w * q[0];
                    s[1] -= w * q[1];
                }
            }
            for (s, &i) in s.iter().zip(rows) {
                out[i as usize] = *s;
            }
        }
    }
}

/// Reusable per-solve buffers. Held by the system so repeated solves (the
/// placer runs `iterations` of them per block) never reallocate. Every
/// `[f64; 2]` holds one variable's `[x, y]` lanes; `v` and the CG work
/// vectors carry [`cg_xy`]'s zero slot after the `n` variables.
#[derive(Debug, Default)]
struct SolveScratch {
    diag: Vec<f64>,
    b: Vec<[f64; 2]>,
    v: Vec<[f64; 2]>,
    anchors: Vec<Point>,
    // CG work vectors
    r: Vec<[f64; 2]>,
    z: Vec<[f64; 2]>,
    dir: Vec<[f64; 2]>,
    ap: Vec<[f64; 2]>,
}

/// The quadratic placement system: static clique edges plus per-solve
/// centroid springs and spreading anchors.
#[derive(Debug)]
pub struct QuadraticSystem {
    movable: Vec<InstId>,
    /// Clique adjacency, each row's neighbours in edge order.
    adj: SlicedEll,
    /// Position-independent diagonal: `1e-6` + clique edges + fixed
    /// springs, accumulated at build time in the retired per-solve order.
    base_diag: Vec<f64>,
    /// Position-independent `[x, y]` right-hand sides (fixed-spring
    /// pulls).
    base_b: Vec<[f64; 2]>,
    /// Star nets flattened: pins of net `k` are
    /// `star_pins[star_off[k]..star_off[k+1]]`.
    star_off: Vec<u32>,
    star_pins: Vec<PinRef>,
    /// Pre-resolved variable per star pin ([`FIXED_PIN`] when the pin is
    /// on a fixed instance or a port — movability is static, only the
    /// centroid needs live positions).
    star_var: Vec<u32>,
    /// Per-net star weight.
    star_w: Vec<f64>,
    scratch: SolveScratch,
    /// Solves since build — drives the scratch-reuse gauge.
    solves: u64,
}

impl QuadraticSystem {
    /// Builds the system from the netlist topology. Clock nets are
    /// excluded (they are routed as balanced trees, not optimized for
    /// wirelength).
    pub fn build(netlist: &Netlist, _outline: Rect) -> Self {
        Self::with_edges(netlist).0
    }

    /// [`build`](Self::build), also returning the clique edge list
    /// `(a, b, w)` in the order it was packed.
    fn with_edges(netlist: &Netlist) -> (Self, Vec<(u32, u32, f64)>) {
        let n = netlist.num_insts();
        let mut var_of = vec![None; n];
        let mut movable = Vec::new();
        for (id, inst) in netlist.insts() {
            if !inst.fixed {
                var_of[id.index()] = Some(movable.len() as u32);
                movable.push(id);
            }
        }
        let mut edges = Vec::new();
        let mut fixed_springs = Vec::new();
        let mut star_off = vec![0u32];
        let mut star_pins = Vec::new();
        let mut star_var = Vec::new();
        let mut star_w = Vec::new();
        for (_, net) in netlist.nets() {
            if net.is_clock {
                continue;
            }
            let pins: Vec<PinRef> = net.pins().collect();
            if pins.len() < 2 {
                continue;
            }
            if pins.len() <= CLIQUE_LIMIT {
                let w = 1.0 / (pins.len() as f64 - 1.0);
                for i in 0..pins.len() {
                    for j in (i + 1)..pins.len() {
                        match (
                            pin_var(netlist, &var_of, pins[i]),
                            pin_var(netlist, &var_of, pins[j]),
                        ) {
                            (Var::Movable(a), Var::Movable(b)) => {
                                if a != b {
                                    edges.push((a, b, w));
                                }
                            }
                            (Var::Movable(a), Var::Fixed(p)) | (Var::Fixed(p), Var::Movable(a)) => {
                                fixed_springs.push((a, p, w));
                            }
                            (Var::Fixed(_), Var::Fixed(_)) => {}
                        }
                    }
                }
            } else {
                star_w.push(2.0 / pins.len() as f64);
                for &p in &pins {
                    star_var.push(match pin_var(netlist, &var_of, p) {
                        Var::Movable(a) => a,
                        Var::Fixed(_) => FIXED_PIN,
                    });
                }
                star_pins.extend(pins);
                star_off.push(star_pins.len() as u32);
            }
        }
        let nv = movable.len();
        let adj = SlicedEll::new(nv, &edges);
        // Base diagonal and right-hand sides, accumulated in the order the
        // retired per-solve loops used (init, edges, fixed springs) so a
        // solve that copies these bases is bit-identical to one that
        // rebuilds them.
        let mut base_diag = vec![1e-6; nv];
        for &(a, b, w) in &edges {
            base_diag[a as usize] += w;
            base_diag[b as usize] += w;
        }
        for &(a, _, w) in &fixed_springs {
            base_diag[a as usize] += w;
        }
        let mut base_b = vec![[0.0; 2]; nv];
        for &(a, p, w) in &fixed_springs {
            base_b[a as usize][0] += w * p.x;
            base_b[a as usize][1] += w * p.y;
        }
        let system = Self {
            movable,
            adj,
            base_diag,
            base_b,
            star_off,
            star_pins,
            star_var,
            star_w,
            scratch: SolveScratch::default(),
            solves: 0,
        };
        (system, edges)
    }

    /// Number of movable instances in the system.
    pub fn num_movable(&self) -> usize {
        self.movable.len()
    }

    /// Solves the x and y systems with anchors of weight `anchor_w` at the
    /// instances' current positions, then writes the solution back into
    /// the netlist (clamped to `outline`).
    pub fn solve(&mut self, netlist: &mut Netlist, outline: Rect, cg_iters: usize, anchor_w: f64) {
        let n = self.movable.len();
        if n == 0 {
            return;
        }
        // Split borrows: scratch is mutated while the static system parts
        // are read.
        let Self {
            movable,
            adj,
            base_diag,
            base_b,
            star_off,
            star_pins,
            star_var,
            star_w,
            scratch,
            solves,
        } = self;
        // Copy the precomputed bases (clique + fixed-spring terms).
        scratch.diag.clear();
        scratch.diag.extend_from_slice(base_diag);
        scratch.b.clear();
        scratch.b.extend_from_slice(base_b);
        let diag = &mut scratch.diag;
        let b = &mut scratch.b;
        // Star springs at the current net centroids.
        for k in 0..star_w.len() {
            let lo = star_off[k] as usize;
            let hi = star_off[k + 1] as usize;
            let w = star_w[k];
            let mut c = Point::ORIGIN;
            for &p in &star_pins[lo..hi] {
                c += netlist.pin_pos(p);
            }
            let c = c * (1.0 / (hi - lo) as f64);
            for &a in &star_var[lo..hi] {
                if a != FIXED_PIN {
                    diag[a as usize] += w;
                    b[a as usize][0] += w * c.x;
                    b[a as usize][1] += w * c.y;
                }
            }
        }
        // Spreading anchors at the current (post-equalization) positions.
        scratch.anchors.clear();
        scratch
            .anchors
            .extend(movable.iter().map(|&id| netlist.pos(id)));
        for (i, p) in scratch.anchors.iter().enumerate() {
            diag[i] += anchor_w;
            b[i][0] += anchor_w * p.x;
            b[i][1] += anchor_w * p.y;
        }

        // Exactly `n + 1` slots: a push past an `n`-slot allocation would
        // double it.
        scratch.v.clear();
        scratch.v.reserve_exact(n + 1);
        scratch.v.extend(scratch.anchors.iter().map(|p| [p.x, p.y]));
        scratch.v.push([0.0; 2]);
        cg_xy(
            adj,
            diag,
            b,
            &mut scratch.v,
            cg_iters,
            &mut scratch.r,
            &mut scratch.z,
            &mut scratch.dir,
            &mut scratch.ap,
        );
        for (i, &id) in movable.iter().enumerate() {
            let [x, y] = scratch.v[i];
            let p = Point::new(x, y).clamped(outline);
            netlist.set_pos(id, if p.is_finite() { p } else { scratch.anchors[i] });
        }
        *solves += 1;
        if foldic_obs::metrics::is_enabled() {
            // High-water count of solves that reused this system's scratch
            // (max-merge: deterministic across pool threads).
            foldic_obs::metrics::set_gauge_max("place.solve.scratch_reuse", (*solves - 1) as f64);
        }
    }
}

/// Jacobi-preconditioned conjugate gradient for `A v = b` on two
/// right-hand sides at once, where `A = diag − offdiag(adj)` (a weighted
/// Laplacian plus anchors) over `n = b.len()` variables. Lane `l` of
/// every `[f64; 2]` is one solve: `v[..n]` holds the initial guesses and
/// receives the solutions; `r`/`z`/`dir`/`ap` are caller-owned work
/// vectors resized here.
///
/// `v` and the work vectors have `n + 1` slots. Slot `n` is the zero slot
/// the matrix's padding reads; it is set to `[0.0, 0.0]` on every call,
/// so nothing left by an earlier (larger) system can reach a row sum.
///
/// Each lane runs exactly the operations a single-lane solve would, in
/// the same order: per-element arithmetic is unchanged, every reduction
/// (`r·z`, `p·Ap`) accumulates in row order, left to right from `-0.0`
/// as `f64`'s `Iterator::sum` does, and each lane stops on its own
/// `r·z` / `p·Ap` test. A stopped lane is never written again, so both
/// lanes are bit for bit the two separate solves — the fused sweeps only
/// share the matrix traversal and the memory passes.
#[allow(clippy::too_many_arguments)]
fn cg_xy(
    adj: &SlicedEll,
    diag: &[f64],
    b: &[[f64; 2]],
    v: &mut [[f64; 2]],
    iters: usize,
    r: &mut Vec<[f64; 2]>,
    z: &mut Vec<[f64; 2]>,
    dir: &mut Vec<[f64; 2]>,
    ap: &mut Vec<[f64; 2]>,
) {
    let n = b.len();
    v[n] = [0.0; 2];
    for w in [&mut *r, &mut *z, &mut *dir, &mut *ap] {
        w.clear();
        w.resize(n + 1, [0.0; 2]);
    }
    adj.mat_vec(diag, v, r);
    let mut rz = [-0.0f64; 2];
    for i in 0..n {
        r[i] = [b[i][0] - r[i][0], b[i][1] - r[i][1]];
        z[i] = [r[i][0] / diag[i], r[i][1] / diag[i]];
        dir[i] = z[i];
        rz[0] += r[i][0] * z[i][0];
        rz[1] += r[i][1] * z[i][1];
    }
    // The stop tests are `<` comparisons, which a NaN never passes: a
    // lane with a NaN residual runs to the cap.
    let mut live = [true; 2];
    for _ in 0..iters {
        for l in 0..2 {
            if rz[l].abs() < 1e-12 {
                live[l] = false;
            }
        }
        if live == [false; 2] {
            break;
        }
        // A·p and p·Ap for both lanes (a stopped lane's values are
        // computed but never read).
        adj.mat_vec(diag, dir, ap);
        let mut pap = [-0.0f64; 2];
        for (p, q) in dir[..n].iter().zip(&ap[..n]) {
            pap[0] += p[0] * q[0];
            pap[1] += p[1] * q[1];
        }
        for l in 0..2 {
            if pap[l].abs() < 1e-18 {
                live[l] = false;
            }
        }
        if live == [false; 2] {
            break;
        }
        let alpha = [rz[0] / pap[0], rz[1] / pap[1]];
        // The updates touch the live variables only: `dir[n]` stays zero.
        let (v, r, z, dir, ap) = (
            &mut v[..n],
            &mut r[..n],
            &mut z[..n],
            &mut dir[..n],
            &ap[..n],
        );
        match live {
            [true, true] => step::<true, true>(diag, v, r, z, dir, ap, alpha, &mut rz),
            [true, false] => step::<true, false>(diag, v, r, z, dir, ap, alpha, &mut rz),
            _ => step::<false, true>(diag, v, r, z, dir, ap, alpha, &mut rz),
        }
    }
}

/// One CG update of the lanes selected by `X`/`Y`: `v += α·p`,
/// `r −= α·Ap`, `z = r / diag` and `r·z` in one pass, then
/// `p = z + β·p` in a second (β needs the whole `r·z`).
#[allow(clippy::too_many_arguments)]
fn step<const X: bool, const Y: bool>(
    diag: &[f64],
    v: &mut [[f64; 2]],
    r: &mut [[f64; 2]],
    z: &mut [[f64; 2]],
    dir: &mut [[f64; 2]],
    ap: &[[f64; 2]],
    alpha: [f64; 2],
    rz: &mut [f64; 2],
) {
    let lanes = [X, Y];
    let n = v.len();
    let mut rz_new = [-0.0f64; 2];
    for i in 0..n {
        for l in 0..2 {
            if lanes[l] {
                v[i][l] += alpha[l] * dir[i][l];
                r[i][l] -= alpha[l] * ap[i][l];
                z[i][l] = r[i][l] / diag[i];
                rz_new[l] += r[i][l] * z[i][l];
            }
        }
    }
    let mut beta = [0.0; 2];
    for l in 0..2 {
        if lanes[l] {
            beta[l] = rz_new[l] / rz[l];
            rz[l] = rz_new[l];
        }
    }
    for i in 0..n {
        for l in 0..2 {
            if lanes[l] {
                dir[i][l] = z[i][l] + beta[l] * dir[i][l];
            }
        }
    }
}

enum Var {
    Movable(u32),
    Fixed(Point),
}

fn pin_var(netlist: &Netlist, var_of: &[Option<u32>], pin: PinRef) -> Var {
    match pin {
        PinRef::InstOut(i) | PinRef::InstIn(i, _) => match var_of[i.index()] {
            Some(v) => Var::Movable(v),
            None => Var::Fixed(netlist.inst(i).pos),
        },
        PinRef::Port(p) => Var::Fixed(netlist.port(p).pos),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foldic_netlist::{InstMaster, PortDir};
    use foldic_tech::{CellKind, CellLibrary, Drive, VthClass};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Why a reference solve stopped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Exit {
        /// `|r·z| < 1e-12` at the top of an iteration.
        Residual,
        /// `|p·Ap| < 1e-18` after the mat-vec.
        Curvature,
        /// The iteration cap.
        Cap,
    }

    /// The single-lane Jacobi-PCG that `cg_xy` fuses: `A v = b` with
    /// `A = diag − offdiag(nbr)`, in the operation order the fused lanes
    /// must reproduce. Returns the iterations run and why it stopped.
    #[allow(clippy::too_many_arguments)]
    fn cg(
        nbr_off: &[u32],
        nbr: &[(u32, f64)],
        diag: &[f64],
        b: &[f64],
        v: &mut [f64],
        iters: usize,
        r: &mut Vec<f64>,
        z: &mut Vec<f64>,
        dir: &mut Vec<f64>,
        ap: &mut Vec<f64>,
    ) -> (usize, Exit) {
        let n = v.len();
        let mat_vec = |v: &[f64], out: &mut [f64]| {
            for i in 0..n {
                let mut s = diag[i] * v[i];
                for &(j, w) in &nbr[nbr_off[i] as usize..nbr_off[i + 1] as usize] {
                    s -= w * v[j as usize];
                }
                out[i] = s;
            }
        };
        r.clear();
        r.resize(n, 0.0);
        mat_vec(v, r);
        for i in 0..n {
            r[i] = b[i] - r[i];
        }
        z.clear();
        z.extend(r.iter().zip(diag).map(|(ri, di)| ri / di));
        dir.clear();
        dir.extend_from_slice(z);
        let mut rz: f64 = r.iter().zip(z.iter()).map(|(a, b)| a * b).sum();
        ap.clear();
        ap.resize(n, 0.0);
        for it in 0..iters {
            if rz.abs() < 1e-12 {
                return (it, Exit::Residual);
            }
            mat_vec(dir, ap);
            let pap: f64 = dir.iter().zip(ap.iter()).map(|(a, b)| a * b).sum();
            if pap.abs() < 1e-18 {
                return (it, Exit::Curvature);
            }
            let alpha = rz / pap;
            for i in 0..n {
                v[i] += alpha * dir[i];
                r[i] -= alpha * ap[i];
            }
            for i in 0..n {
                z[i] = r[i] / diag[i];
            }
            let rz_new: f64 = r.iter().zip(z.iter()).map(|(a, b)| a * b).sum();
            let beta = rz_new / rz;
            rz = rz_new;
            for i in 0..n {
                dir[i] = z[i] + beta * dir[i];
            }
        }
        (iters, Exit::Cap)
    }

    /// A chain of movable cells between two fixed ports must spread evenly
    /// along the line between the ports (the classic quadratic solution).
    #[test]
    fn chain_solution_is_linear_interpolation() {
        let lib = CellLibrary::cmos28();
        let master = InstMaster::Cell(lib.id_of(CellKind::Buf, Drive::X1, VthClass::Rvt));
        let mut nl = Netlist::new("chain");
        let left = nl.add_port("in", PortDir::Input, foldic_netlist::ClockDomain::Cpu);
        let right = nl.add_port("out", PortDir::Output, foldic_netlist::ClockDomain::Cpu);
        nl.port_mut(left).pos = Point::new(0.0, 50.0);
        nl.port_mut(right).pos = Point::new(100.0, 50.0);
        let k = 4;
        let cells: Vec<InstId> = (0..k)
            .map(|i| nl.add_inst(format!("c{i}"), master))
            .collect();
        let mut prev = PinRef::port(left);
        for (i, &c) in cells.iter().enumerate() {
            let net = nl.add_net(format!("n{i}"));
            nl.connect_driver(net, prev);
            nl.connect_sink(net, PinRef::input(c, 0));
            prev = PinRef::output(c);
        }
        let last = nl.add_net("nlast");
        nl.connect_driver(last, prev);
        nl.connect_sink(last, PinRef::port(right));

        let outline = Rect::new(0.0, 0.0, 100.0, 100.0);
        let mut sys = QuadraticSystem::build(&nl, outline);
        assert_eq!(sys.num_movable(), k);
        // several solves with negligible anchors converge to the line
        for _ in 0..3 {
            sys.solve(&mut nl, outline, 200, 1e-9);
        }
        for (i, &c) in cells.iter().enumerate() {
            let expect = 100.0 * (i + 1) as f64 / (k + 1) as f64;
            let got = nl.inst(c).pos;
            assert!(
                (got.x - expect).abs() < 1.0,
                "cell {i} at {} expected x={expect}",
                got
            );
            assert!((got.y - 50.0).abs() < 1.0);
        }
    }

    #[test]
    fn anchors_hold_disconnected_cells() {
        let lib = CellLibrary::cmos28();
        let master = InstMaster::Cell(lib.id_of(CellKind::Inv, Drive::X1, VthClass::Rvt));
        let mut nl = Netlist::new("loose");
        let a = nl.add_inst("a", master);
        nl.inst_mut(a).pos = Point::new(30.0, 70.0);
        let outline = Rect::new(0.0, 0.0, 100.0, 100.0);
        let mut sys = QuadraticSystem::build(&nl, outline);
        sys.solve(&mut nl, outline, 50, 0.5);
        let p = nl.inst(a).pos;
        assert!((p.x - 30.0).abs() < 1e-3 && (p.y - 70.0).abs() < 1e-3);
    }

    /// A solve on warm scratch (second and later solves of one system)
    /// must be bitwise identical to the same solve on a freshly built
    /// system — the scratch-reuse path cannot leak state.
    #[test]
    fn scratch_reuse_matches_fresh_build_bitwise() {
        let lib = CellLibrary::cmos28();
        let master = InstMaster::Cell(lib.id_of(CellKind::Buf, Drive::X2, VthClass::Rvt));
        let mut nl = Netlist::new("star");
        let anchor = nl.add_port("in", PortDir::Input, foldic_netlist::ClockDomain::Cpu);
        nl.port_mut(anchor).pos = Point::new(10.0, 10.0);
        // a wide net (star) plus a small clique net
        let cells: Vec<InstId> = (0..12)
            .map(|i| {
                let c = nl.add_inst(format!("s{i}"), master);
                nl.inst_mut(c).pos = Point::new(5.0 * i as f64, 3.0 * (i % 5) as f64);
                c
            })
            .collect();
        let wide = nl.add_net("wide");
        nl.connect_driver(wide, PinRef::port(anchor));
        for &c in &cells {
            nl.connect_sink(wide, PinRef::input(c, 0));
        }
        let pair = nl.add_net("pair");
        nl.connect_driver(pair, PinRef::output(cells[0]));
        nl.connect_sink(pair, PinRef::input(cells[7], 1));

        let outline = Rect::new(0.0, 0.0, 80.0, 80.0);
        // warm path: one system solved three times
        let mut warm_nl = nl.clone();
        let mut warm = QuadraticSystem::build(&warm_nl, outline);
        for i in 0..3 {
            warm.solve(&mut warm_nl, outline, 40, 0.1 * (i + 1) as f64);
        }
        // fresh path: rebuild the system before every solve (scratch is
        // always cold), driving the netlist through the same states
        let mut fresh_nl = nl.clone();
        for i in 0..3 {
            let mut fresh = QuadraticSystem::build(&fresh_nl, outline);
            fresh.solve(&mut fresh_nl, outline, 40, 0.1 * (i + 1) as f64);
        }
        for &c in &cells {
            let w = warm_nl.inst(c).pos;
            let f = fresh_nl.inst(c).pos;
            assert_eq!(
                (w.x.to_bits(), w.y.to_bits()),
                (f.x.to_bits(), f.y.to_bits()),
                "scratch reuse drifted for {}",
                warm_nl.name_of(warm_nl.inst(c).name)
            );
        }
    }

    // ---- fused-lane kernel vs single-lane oracle ------------------------

    fn fuzz_seed() -> u64 {
        std::env::var("FOLDIC_FUZZ_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xDAC1_4C62)
    }

    /// `A = diag − offdiag(edges)`, two right-hand sides and two starting
    /// guesses. The fused kernel multiplies by the edge list packed as
    /// [`QuadraticSystem::build`] packs it, the single-lane oracle by a
    /// CSR filled from the same list.
    struct Problem {
        edges: Vec<(u32, u32, f64)>,
        adj: SlicedEll,
        nbr_off: Vec<u32>,
        nbr: Vec<(u32, f64)>,
        diag: Vec<f64>,
        b: Vec<[f64; 2]>,
        v: Vec<[f64; 2]>,
    }

    impl Problem {
        /// Packs `edges` with [`SlicedEll::new`] and fills the oracle's
        /// CSR in edge order, with the given diagonal.
        fn new(n: usize, edges: &[(usize, usize, f64)], diag: Vec<f64>) -> Self {
            let edges: Vec<(u32, u32, f64)> = edges
                .iter()
                .map(|&(a, b, w)| (a as u32, b as u32, w))
                .collect();
            let mut nbr_off = vec![0u32; n + 1];
            for &(a, b, _) in &edges {
                nbr_off[a as usize + 1] += 1;
                nbr_off[b as usize + 1] += 1;
            }
            for i in 0..n {
                nbr_off[i + 1] += nbr_off[i];
            }
            let mut cursor = nbr_off.clone();
            let mut nbr = vec![(0u32, 0.0); nbr_off[n] as usize];
            for &(a, b, w) in &edges {
                nbr[cursor[a as usize] as usize] = (b, w);
                cursor[a as usize] += 1;
                nbr[cursor[b as usize] as usize] = (a, w);
                cursor[b as usize] += 1;
            }
            Self {
                adj: SlicedEll::new(n, &edges),
                edges,
                nbr_off,
                nbr,
                diag,
                b: vec![[0.0; 2]; n],
                v: vec![[0.0; 2]; n],
            }
        }

        /// Sparse random edges, about a fifth of the rows with none.
        fn random_edges(rng: &mut StdRng, n: usize) -> Vec<(usize, usize, f64)> {
            let isolated: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.2)).collect();
            let mut edges = Vec::new();
            for a in 0..n {
                for _ in 0..rng.gen_range(0..5usize) {
                    let b = rng.gen_range(0..n);
                    if a != b && !isolated[a] && !isolated[b] {
                        edges.push((a, b, rng.gen::<f64>() * 2.0 + 0.01));
                    }
                }
            }
            edges
        }

        /// `edges` as a weighted Laplacian (`1e-6` plus the incident
        /// weights on the diagonal) plus anchors: each row takes a random
        /// anchor with probability `anchored`, and a random pull and start.
        fn laplacian(
            rng: &mut StdRng,
            n: usize,
            edges: &[(usize, usize, f64)],
            anchored: f64,
        ) -> Self {
            let mut diag = vec![1e-6; n];
            for &(a, b, w) in edges {
                diag[a] += w;
                diag[b] += w;
            }
            for d in &mut diag {
                if rng.gen_bool(anchored) {
                    *d += rng.gen::<f64>() * 0.5;
                }
            }
            let mut p = Self::new(n, edges, diag);
            let coord = |rng: &mut StdRng| rng.gen::<f64>() * 200.0 - 100.0;
            for i in 0..n {
                p.b[i] = [coord(rng), coord(rng)];
                p.v[i] = [coord(rng), coord(rng)];
            }
            p
        }

        /// `pairs` with random weights as a [`laplacian`](Self::laplacian)
        /// with every row anchored.
        fn anchored(rng: &mut StdRng, n: usize, pairs: &[(usize, usize)]) -> Self {
            let edges: Vec<(usize, usize, f64)> = pairs
                .iter()
                .map(|&(a, b)| (a, b, rng.gen::<f64>() * 2.0 + 0.01))
                .collect();
            Self::laplacian(rng, n, &edges, 1.0)
        }

        /// A random weighted Laplacian plus anchors: sparse edges, about
        /// a fifth of the rows with no neighbours, and most rows anchored.
        fn random(rng: &mut StdRng, n: usize) -> Self {
            let edges = Self::random_edges(rng, n);
            Self::laplacian(rng, n, &edges, 0.7)
        }

        /// A system shaped like the placer's: the random edges, one
        /// anchor weight on every row, pulls toward the anchors at
        /// positions in a 200 µm square, and the anchors as the start —
        /// what `solve` builds before the star and fixed-pin terms.
        fn placer_like(rng: &mut StdRng, n: usize) -> Self {
            let edges = Self::random_edges(rng, n);
            let anchor_w = rng.gen::<f64>() * 2.0 + 0.05;
            let mut diag = vec![1e-6; n];
            for &(a, b, w) in &edges {
                diag[a] += w;
                diag[b] += w;
            }
            for d in &mut diag {
                *d += anchor_w;
            }
            let mut p = Self::new(n, &edges, diag);
            for i in 0..n {
                let pos = [rng.gen::<f64>() * 200.0, rng.gen::<f64>() * 200.0];
                p.b[i] = [anchor_w * pos[0], anchor_w * pos[1]];
                p.v[i] = pos;
            }
            p
        }

        /// An unanchored ring with equal weights `w` (`diag = 2w`,
        /// exactly). x starts at 0 against a constant pull, so its first
        /// search direction is constant and `A·p` is exactly zero
        /// (`(2w)·z = 2·(w·z)`): x stops on the `p·Ap` test with `r·z`
        /// far from zero. y gets a random pull and start.
        fn flat_ring(rng: &mut StdRng, n: usize) -> Self {
            let w = rng.gen::<f64>() + 0.1;
            let ring: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, (i + 1) % n, w)).collect();
            let mut p = Self::new(n, &ring, vec![2.0 * w; n]);
            let pull = rng.gen::<f64>() * 10.0 + 1.0;
            for i in 0..n {
                p.b[i] = [pull, rng.gen::<f64>() * 4.0 - 2.0];
                p.v[i] = [0.0, rng.gen::<f64>() * 10.0];
            }
            p
        }
    }

    /// Fused solve vectors, reused across cases as the system reuses its
    /// scratch: `v` receives the last fused solution.
    #[derive(Default)]
    struct Work {
        v: Vec<[f64; 2]>,
        r: Vec<[f64; 2]>,
        z: Vec<[f64; 2]>,
        dir: Vec<[f64; 2]>,
        ap: Vec<[f64; 2]>,
    }

    /// Solves `p` with the fused kernel and with one oracle solve per
    /// lane, asserts every coordinate bit-equal, and returns each lane's
    /// oracle outcome. The fused guess's extra slot holds NaN, which the
    /// kernel must replace with its zero before padding reads it.
    fn fused_vs_oracle(p: &Problem, iters: usize, work: &mut Work) -> [(usize, Exit); 2] {
        work.v.clear();
        work.v.extend_from_slice(&p.v);
        work.v.push([f64::NAN; 2]);
        cg_xy(
            &p.adj,
            &p.diag,
            &p.b,
            &mut work.v,
            iters,
            &mut work.r,
            &mut work.z,
            &mut work.dir,
            &mut work.ap,
        );
        let mut out = [(0, Exit::Cap); 2];
        for (l, exit) in out.iter_mut().enumerate() {
            let b: Vec<f64> = p.b.iter().map(|b| b[l]).collect();
            let mut x: Vec<f64> = p.v.iter().map(|v| v[l]).collect();
            let (mut r, mut z, mut dir, mut ap) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            *exit = cg(
                &p.nbr_off, &p.nbr, &p.diag, &b, &mut x, iters, &mut r, &mut z, &mut dir, &mut ap,
            );
            for (i, (fused, single)) in work.v.iter().zip(&x).enumerate() {
                assert_eq!(
                    fused[l].to_bits(),
                    single.to_bits(),
                    "lane {l}, variable {i} of {}: {} vs {single} ({exit:?})",
                    x.len(),
                    fused[l]
                );
            }
        }
        out
    }

    /// `(b − A·v)` for both lanes with `A·v` taken straight from the edge
    /// list, then `Σ r_i² / d_i` per lane: the `r·z` a converged Jacobi-PCG
    /// solve claims, recomputed without its recurrences or either matrix
    /// layout.
    fn true_rz(
        edges: &[(u32, u32, f64)],
        diag: &[f64],
        b: &[[f64; 2]],
        v: &[[f64; 2]],
    ) -> [f64; 2] {
        let mut av: Vec<[f64; 2]> = (0..diag.len())
            .map(|i| [diag[i] * v[i][0], diag[i] * v[i][1]])
            .collect();
        for &(i, j, w) in edges {
            let (i, j) = (i as usize, j as usize);
            for l in 0..2 {
                av[i][l] -= w * v[j][l];
                av[j][l] -= w * v[i][l];
            }
        }
        let mut rz = [0.0; 2];
        for i in 0..diag.len() {
            for l in 0..2 {
                let r = b[i][l] - av[i][l];
                rz[l] += r * r / diag[i];
            }
        }
        rz
    }

    /// Bound on the recomputed `r·z` of a lane that stopped on the
    /// `|r·z| < 1e-12` test. The recursive residual drifts from the true
    /// one by rounding only; on the placer's real small-T2 systems the
    /// recomputed value was 1.1e-13–9.8e-13, so 1e-11 leaves a 10× margin.
    const RZ_BOUND: f64 = 1e-11;

    /// The fused kernel's `x` and `y` lanes equal two single-lane solves
    /// bit for bit on random systems, including n = 0 and 1, rows with
    /// no neighbours, a lane that starts converged while the other runs
    /// on, the `p·Ap` exit and the iteration cap. The sliced layout's
    /// edges are covered too: row counts that are not a multiple of the
    /// chunk, an all-isolated system, a hub row among degree-1 rows, ±inf
    /// next to padded rows, and a smaller system solved on work vectors a
    /// larger, non-finite one left behind. Seeded via `FOLDIC_FUZZ_SEED`
    /// like the other property suites.
    #[test]
    fn fused_lanes_match_two_reference_solves_bitwise() {
        let mut rng = StdRng::seed_from_u64(fuzz_seed());
        let mut work = Work::default();

        // n = 0: both lanes stop at once on the empty residual
        let empty = Problem::new(0, &[], Vec::new());
        assert_eq!(
            fused_vs_oracle(&empty, 120, &mut work),
            [(0, Exit::Residual); 2]
        );
        // n = 1, no neighbours: Jacobi solves it in one step
        let mut one = Problem::new(1, &[], vec![0.75]);
        one.b[0] = [3.0, -1.5];
        one.v[0] = [10.0, 2.0];
        assert_eq!(
            fused_vs_oracle(&one, 120, &mut work),
            [(1, Exit::Residual); 2]
        );

        // row counts that are not a multiple of the chunk (n = 2, 3, 5):
        // the last chunk carries sentinel rows, and every chunk pads its
        // shorter rows
        let five = [(0, 1), (1, 2), (3, 1), (3, 4)];
        for (n, pairs) in [(2, &five[..1]), (3, &[(0, 1), (2, 0)][..]), (5, &five[..])] {
            let p = Problem::anchored(&mut rng, n, pairs);
            assert_eq!(p.adj.rows.len(), CHUNK * n.div_ceil(CHUNK));
            for (_, exit) in fused_vs_oracle(&p, 120, &mut work) {
                assert_eq!(exit, Exit::Residual, "n = {n}");
            }
        }

        // every row of degree 0: zero-width chunks, diagonal terms only
        let isolated = Problem::anchored(&mut rng, 7, &[]);
        assert!(isolated.adj.ent.is_empty());
        fused_vs_oracle(&isolated, 120, &mut work);

        // one hub of degree 51 among degree-1 rows: the hub's chunk is 51
        // wide, so its three other rows carry 50 padding entries each
        let spokes: Vec<(usize, usize)> = (1..=51).map(|i| (i, 0)).collect();
        let mut hub = Problem::anchored(&mut rng, 52, &spokes);
        assert_eq!(hub.adj.off[1], (CHUNK * 51) as u32);
        fused_vs_oracle(&hub, 120, &mut work);

        // ±inf next to padded rows: both lanes turn non-finite exactly as
        // the single-lane solves do
        hub.v[0][0] = f64::INFINITY;
        hub.b[2][1] = f64::NEG_INFINITY;
        hub.v[3][1] = f64::NEG_INFINITY;
        fused_vs_oracle(&hub, 120, &mut work);

        // a −0.0 row sum next to padding: row 5 has no neighbours in a
        // chunk one entry wide and starts at −0.0 against a −0.0 pull,
        // so `(A·v)_5 = d·(−0.0) = −0.0`. Padding that read the live row 0
        // (at a negative position) would subtract `0·v_0 = −0.0`, flip
        // that sum to +0.0, and leave row 5 at −0.0 after one step
        // instead of at +0.0
        let mut signed = Problem::anchored(&mut rng, 6, &[(0, 1), (1, 2), (3, 4)]);
        signed.v[0] = [-3.0, -3.0];
        signed.v[5] = [-0.0, -0.0];
        signed.b[5] = [-0.0, -0.0];
        assert_eq!(fused_vs_oracle(&signed, 1, &mut work), [(1, Exit::Cap); 2]);
        assert_eq!(work.v[5].map(f64::to_bits), [0.0f64.to_bits(); 2]);

        // a smaller system on work vectors a larger one left non-finite:
        // a zero slot that kept the old `dir` would poison padded rows
        let mut large = Problem::random(&mut rng, 29);
        large.b[5] = [f64::INFINITY, f64::NAN];
        fused_vs_oracle(&large, 8, &mut work);
        assert!(work.dir[..29].iter().all(|d| !d[0].is_finite()));
        let small = Problem::anchored(&mut rng, 5, &five);
        for (_, exit) in fused_vs_oracle(&small, 120, &mut work) {
            assert_eq!(exit, Exit::Residual);
        }

        // y starts converged (b = 0 at v = 0: exactly zero residual) and
        // stops at iteration 0 while x runs on
        let mut half = Problem::random(&mut rng, 40);
        for i in 0..40 {
            half.b[i][1] = 0.0;
            half.v[i][1] = 0.0;
        }
        let [x, y] = fused_vs_oracle(&half, 120, &mut work);
        assert_eq!(y, (0, Exit::Residual));
        assert!(x.0 > 0, "x lane did not run: {x:?}");

        // the `p·Ap` exit: on an unanchored ring with equal weights a
        // constant search direction is in the null space, so A·p is
        // exactly zero while x's r·z is not; y runs on from a random
        // start
        let flat = Problem::flat_ring(&mut rng, 12);
        let [x, y] = fused_vs_oracle(&flat, 120, &mut work);
        assert_eq!(x, (0, Exit::Curvature));
        assert!(y.0 > 0, "y lane did not run: {y:?}");

        // a NaN pull never passes a stop test: x runs to the cap as the
        // single-lane loop does, while y converges
        let mut poisoned = Problem::random(&mut rng, 20);
        poisoned.b[7][0] = f64::NAN;
        let [x, y] = fused_vs_oracle(&poisoned, 120, &mut work);
        assert_eq!(x, (120, Exit::Cap));
        assert_eq!(y.1, Exit::Residual);

        // the iteration cap
        let capped = Problem::random(&mut rng, 30);
        let [x, y] = fused_vs_oracle(&capped, 2, &mut work);
        assert_eq!((x.1, y.1), (Exit::Cap, Exit::Cap));

        // random systems of every size up to 48, under several caps
        let mut seen = [0usize; 3];
        for case in 0..2000 {
            let n = rng.gen_range(0..49usize);
            let p = if case % 50 == 0 {
                Problem::flat_ring(&mut rng, n.max(3))
            } else {
                Problem::random(&mut rng, n)
            };
            let iters = [0, 1, 3, 8, 30, 120][case % 6];
            for (_, exit) in fused_vs_oracle(&p, iters, &mut work) {
                seen[exit as usize] += 1;
            }
        }
        assert!(
            seen.iter().all(|&k| k > 0),
            "random cases missed an exit (residual, curvature, cap): {seen:?}"
        );
    }

    /// Every lane that stops on the `r·z` test has converged: its residual,
    /// recomputed from the edge list, stays under [`RZ_BOUND`]. Checked on
    /// random placer-shaped systems (seeded via `FOLDIC_FUZZ_SEED`) and on
    /// the first solve of every tiny-T2 block as the placer runs it.
    #[test]
    fn converged_lanes_leave_a_true_residual_under_tolerance() {
        let mut rng = StdRng::seed_from_u64(fuzz_seed());
        let mut work = Work::default();
        let mut checked = 0;
        for _ in 0..300 {
            let n = rng.gen_range(1..200usize);
            let p = Problem::placer_like(&mut rng, n);
            let exits = fused_vs_oracle(&p, 120, &mut work);
            let rz = true_rz(&p.edges, &p.diag, &p.b, &work.v);
            for l in 0..2 {
                if exits[l].1 == Exit::Residual {
                    assert!(rz[l] < RZ_BOUND, "n = {n}, lane {l}: r·z = {:e}", rz[l]);
                    checked += 1;
                }
            }
        }
        assert!(checked > 500, "only {checked} random lanes converged");

        let (design, _) = foldic_t2::T2Config::tiny().generate();
        let cfg = crate::PlacerConfig::quality();
        let mut blocks = 0;
        for (_, block) in design.blocks() {
            let mut nl = block.netlist.clone();
            let (mut sys, edges) = QuadraticSystem::with_edges(&nl);
            let n = sys.num_movable();
            if n == 0 {
                continue;
            }
            // the placer's first solve (`place_with_obstacles`, round 0)
            sys.solve(
                &mut nl,
                block.outline,
                cfg.cg_iterations,
                cfg.anchor_growth * 0.3,
            );
            let s = &sys.scratch;
            let edges: Vec<(usize, usize, f64)> = edges
                .iter()
                .map(|&(a, b, w)| (a as usize, b as usize, w))
                .collect();
            let mut p = Problem::new(n, &edges, s.diag.clone());
            p.b.copy_from_slice(&s.b);
            for (v, a) in p.v.iter_mut().zip(&s.anchors) {
                *v = [a.x, a.y];
            }
            let exits = fused_vs_oracle(&p, cfg.cg_iterations, &mut work);
            assert_eq!(
                s.v[..n],
                work.v[..n],
                "{}: not the system's solve",
                block.name
            );
            let rz = true_rz(&p.edges, &p.diag, &p.b, &work.v);
            for l in 0..2 {
                assert_eq!(exits[l].1, Exit::Residual, "{}: lane {l}", block.name);
                assert!(
                    rz[l] < RZ_BOUND,
                    "{}: lane {l} r·z = {:e}",
                    block.name,
                    rz[l]
                );
            }
            blocks += 1;
        }
        assert!(blocks > 0, "the tiny T2 has no movable block");
    }
}
