//! Quadratic wirelength system and conjugate-gradient solver.
//!
//! The system is built once per placement and solved many times with
//! growing anchor weights, so everything that does not depend on live
//! positions is precomputed at build: the clique adjacency lives in a
//! flat CSR layout, the base diagonal and right-hand sides (clique +
//! fixed springs) are baked into `base_*` vectors, and star-net pins are
//! pre-resolved to variable indices. Each `solve` then only copies the
//! bases, layers the position-dependent star/anchor contributions on top,
//! and runs CG entirely in scratch buffers owned by the system — zero
//! allocations after the first solve. The x and y systems share the
//! matrix, so one CG kernel solves both as interleaved `[x, y]` lanes.

use foldic_geom::{Point, Rect};
use foldic_netlist::{InstId, Netlist, PinRef};

/// Nets up to this many pins enter the system as cliques; larger nets use
/// centroid (star) springs recomputed every solve.
const CLIQUE_LIMIT: usize = 8;

/// Star-net pin sentinel for "fixed pin" in [`QuadraticSystem::star_var`].
const FIXED_PIN: u32 = u32::MAX;

/// Reusable per-solve buffers. Held by the system so repeated solves (the
/// placer runs `iterations` of them per block) never reallocate. Every
/// `[f64; 2]` holds one variable's `[x, y]` lanes.
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
    /// CSR offsets into `nbr`: neighbors of variable `i` are
    /// `nbr[nbr_off[i]..nbr_off[i+1]]`, in the exact order the retired
    /// `Vec<Vec<…>>` adjacency pushed them (edge order), so the CG
    /// `mat_vec` accumulates in the same order and stays bit-identical.
    nbr_off: Vec<u32>,
    /// Packed `(neighbor, weight)` pairs.
    nbr: Vec<(u32, f64)>,
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
        // CSR adjacency: count degrees, prefix-sum, then fill in edge
        // order — reproducing the per-node neighbor order of the retired
        // Vec-of-Vecs exactly.
        let mut degree = vec![0u32; nv];
        for &(a, b, _) in &edges {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut nbr_off = vec![0u32; nv + 1];
        for i in 0..nv {
            nbr_off[i + 1] = nbr_off[i] + degree[i];
        }
        let mut cursor: Vec<u32> = nbr_off[..nv].to_vec();
        let mut nbr = vec![(0u32, 0.0f64); nbr_off[nv] as usize];
        for &(a, b, w) in &edges {
            nbr[cursor[a as usize] as usize] = (b, w);
            cursor[a as usize] += 1;
            nbr[cursor[b as usize] as usize] = (a, w);
            cursor[b as usize] += 1;
        }
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
        Self {
            movable,
            nbr_off,
            nbr,
            base_diag,
            base_b,
            star_off,
            star_pins,
            star_var,
            star_w,
            scratch: SolveScratch::default(),
            solves: 0,
        }
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
            nbr_off,
            nbr,
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
            .extend(movable.iter().map(|&id| netlist.inst(id).pos));
        for (i, p) in scratch.anchors.iter().enumerate() {
            diag[i] += anchor_w;
            b[i][0] += anchor_w * p.x;
            b[i][1] += anchor_w * p.y;
        }

        scratch.v.clear();
        scratch.v.extend(scratch.anchors.iter().map(|p| [p.x, p.y]));
        cg_xy(
            nbr_off,
            nbr,
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
            netlist.inst_mut(id).pos = if p.is_finite() { p } else { scratch.anchors[i] };
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
/// right-hand sides at once, where `A = diag − offdiag(nbr)` (a weighted
/// Laplacian plus anchors). Lane `l` of every `[f64; 2]` is one solve:
/// `v` holds the initial guesses and receives the solutions;
/// `r`/`z`/`dir`/`ap` are caller-owned work vectors resized here.
///
/// Each lane runs exactly the operations a single-lane solve would, in
/// the same order: per-element arithmetic is unchanged, every reduction
/// (`r·z`, `p·Ap`) accumulates left to right from `-0.0` as `f64`'s
/// `Iterator::sum` does, and each lane stops on its own `r·z` / `p·Ap`
/// test. A stopped lane is never written again, so both lanes are bit
/// for bit the two separate solves — the fused sweeps only share the
/// CSR traversal and the memory passes.
#[allow(clippy::too_many_arguments)]
fn cg_xy(
    nbr_off: &[u32],
    nbr: &[(u32, f64)],
    diag: &[f64],
    b: &[[f64; 2]],
    v: &mut [[f64; 2]],
    iters: usize,
    r: &mut Vec<[f64; 2]>,
    z: &mut Vec<[f64; 2]>,
    dir: &mut Vec<[f64; 2]>,
    ap: &mut Vec<[f64; 2]>,
) {
    let n = v.len();
    // `(A·p)_i` for both lanes: diagonal term first, then the neighbours
    // in CSR order.
    let row = |p: &[[f64; 2]], i: usize| {
        let d = diag[i];
        let mut s = [d * p[i][0], d * p[i][1]];
        for &(j, w) in &nbr[nbr_off[i] as usize..nbr_off[i + 1] as usize] {
            let q = p[j as usize];
            s[0] -= w * q[0];
            s[1] -= w * q[1];
        }
        s
    };
    for w in [&mut *r, &mut *z, &mut *dir, &mut *ap] {
        w.clear();
        w.resize(n, [0.0; 2]);
    }
    let mut rz = [-0.0f64; 2];
    for i in 0..n {
        let s = row(v, i);
        r[i] = [b[i][0] - s[0], b[i][1] - s[1]];
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
        // One CSR sweep: A·p and p·Ap for both lanes (a stopped lane's
        // values are computed but never read).
        let mut pap = [-0.0f64; 2];
        for i in 0..n {
            let s = row(dir, i);
            ap[i] = s;
            pap[0] += dir[i][0] * s[0];
            pap[1] += dir[i][1] * s[1];
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

    /// `A = diag − offdiag(nbr)` in the system's CSR layout, two
    /// right-hand sides and two starting guesses.
    struct Problem {
        nbr_off: Vec<u32>,
        nbr: Vec<(u32, f64)>,
        diag: Vec<f64>,
        b: Vec<[f64; 2]>,
        v: Vec<[f64; 2]>,
    }

    impl Problem {
        /// Fills the CSR in edge order, as [`QuadraticSystem::build`]
        /// does, with the given diagonal.
        fn new(n: usize, edges: &[(usize, usize, f64)], diag: Vec<f64>) -> Self {
            let mut nbr_off = vec![0u32; n + 1];
            for &(a, b, _) in edges {
                nbr_off[a + 1] += 1;
                nbr_off[b + 1] += 1;
            }
            for i in 0..n {
                nbr_off[i + 1] += nbr_off[i];
            }
            let mut cursor = nbr_off.clone();
            let mut nbr = vec![(0u32, 0.0); nbr_off[n] as usize];
            for &(a, b, w) in edges {
                nbr[cursor[a] as usize] = (b as u32, w);
                cursor[a] += 1;
                nbr[cursor[b] as usize] = (a as u32, w);
                cursor[b] += 1;
            }
            Self {
                nbr_off,
                nbr,
                diag,
                b: vec![[0.0; 2]; n],
                v: vec![[0.0; 2]; n],
            }
        }

        /// A random weighted Laplacian plus anchors: sparse edges, about
        /// a fifth of the rows with no neighbours, and most rows anchored.
        fn random(rng: &mut StdRng, n: usize) -> Self {
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
            let mut diag = vec![1e-6; n];
            for &(a, b, w) in &edges {
                diag[a] += w;
                diag[b] += w;
            }
            for d in &mut diag {
                if rng.gen_bool(0.7) {
                    *d += rng.gen::<f64>() * 0.5;
                }
            }
            let mut p = Self::new(n, &edges, diag);
            let coord = |rng: &mut StdRng| rng.gen::<f64>() * 200.0 - 100.0;
            for i in 0..n {
                p.b[i] = [coord(rng), coord(rng)];
                p.v[i] = [coord(rng), coord(rng)];
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

    /// Fused work vectors, reused across cases as the system reuses its
    /// scratch.
    #[derive(Default)]
    struct Work {
        r: Vec<[f64; 2]>,
        z: Vec<[f64; 2]>,
        dir: Vec<[f64; 2]>,
        ap: Vec<[f64; 2]>,
    }

    /// Solves `p` with the fused kernel and with one oracle solve per
    /// lane, asserts every coordinate bit-equal, and returns each lane's
    /// oracle outcome.
    fn fused_vs_oracle(p: &Problem, iters: usize, work: &mut Work) -> [(usize, Exit); 2] {
        let mut v = p.v.clone();
        cg_xy(
            &p.nbr_off,
            &p.nbr,
            &p.diag,
            &p.b,
            &mut v,
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
            for (i, (fused, single)) in v.iter().zip(&x).enumerate() {
                assert_eq!(
                    fused[l].to_bits(),
                    single.to_bits(),
                    "lane {l}, variable {i} of {}: {} vs {single} ({exit:?})",
                    v.len(),
                    fused[l]
                );
            }
        }
        out
    }

    /// The fused kernel's `x` and `y` lanes equal two single-lane solves
    /// bit for bit on random systems, including n = 0 and 1, rows with
    /// no neighbours, a lane that starts converged while the other runs
    /// on, the `p·Ap` exit and the iteration cap. Seeded via
    /// `FOLDIC_FUZZ_SEED` like the other property suites.
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
}
