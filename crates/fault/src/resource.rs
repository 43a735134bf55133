//! Cooperative memory budgets: the resource twin of [`deadline`].
//!
//! Large designs hit the memory wall before the wall-clock one: a single
//! oversized placement can OOM-kill the process and void every
//! durability guarantee the serve layer makes. This module bounds *net
//! allocation* the same way `deadline` bounds wall time — cooperatively,
//! deterministically, and pay-for-use:
//!
//! * a [`TrackingAlloc`] global allocator keeps a per-thread net
//!   allocation counter. While no [`RunCtx`] with a [`ResourcePolicy`]
//!   is alive the counter is off and every allocation pays exactly one
//!   relaxed atomic load — the same disabled-cost contract as
//!   [`deadline::poll`](crate::deadline::poll);
//! * a [`ResourcePolicy`] carries an overall per-block-job budget
//!   (`--mem-budget BYTES`) and explicit per-stage budgets
//!   (`--stage-mem STAGE=BYTES,…`). A run's context carries it; budgets
//!   are checked at the existing cooperative poll points — no new
//!   instrumentation in kernels;
//! * a breach surfaces as a recoverable
//!   [`FaultCause::MemExceeded`](crate::FaultCause::MemExceeded)
//!   [`FlowError`], so the existing retry → degrade machinery applies
//!   unchanged. A retry gets a *larger* budget (the base budget scaled
//!   by the attempt number), mirroring how deadline retries get a
//!   larger share of the remaining time;
//! * every memory scope folds its peak into its run's per-stage peak
//!   table, which [`RunCtx::finish`] drains — the manifest's
//!   `resources` section.
//!
//! # Accounting model and determinism boundary
//!
//! The counter is *per-thread net bytes*: allocations add, deallocations
//! subtract, on the thread performing them. A scope measures the delta
//! against the counter at scope entry, so a block-job's measurement is
//! the net memory *that block's own flow* holds on its worker thread —
//! not process RSS, not allocator slack, not other threads' work. That
//! is what makes breach decisions independent of the thread count: the
//! same block does the same allocations from the same baseline whether
//! the pool has 1 or 8 workers, so the same set of blocks degrades and
//! reports stay byte-identical. The cost of that property is that
//! cross-thread frees (memory allocated on one thread, dropped on
//! another) skew the two counters in opposite directions, and peaks are
//! sampled at poll granularity, so budgets need margin and peak metrics
//! are compared with a relative tolerance, never byte-exactly.

use crate::ctx::{Active, MemScope, Scope, StageGuard};
use crate::{FaultCause, FlowError, FlowStage, RunCtx};
use foldic_obs::trace::RunGuard;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A [`GlobalAlloc`] wrapper over the system allocator that maintains a
/// per-thread net-allocation counter while a run context with a
/// [`ResourcePolicy`] is alive. Declared as the workspace's
/// `#[global_allocator]` by this crate; otherwise each allocation pays
/// one relaxed atomic load and nothing else.
pub struct TrackingAlloc;

#[global_allocator]
static GLOBAL_ALLOC: TrackingAlloc = TrackingAlloc;

thread_local! {
    /// Net bytes allocated minus freed on this thread while tracking was
    /// enabled. `Cell<i64>` with const init: no lazy allocation, no drop
    /// registration, safe to touch from inside the allocator.
    static NET: Cell<i64> = const { Cell::new(0) };
}

/// The allocator's enable switch: the number of live run contexts with
/// a memory policy. Counting is per-thread, so one budgeted run turning
/// it on costs other threads a counter update and nothing else.
static TRACKING: AtomicUsize = AtomicUsize::new(0);

/// Keeps allocation tracking on while it lives; held by a [`RunCtx`]
/// with a memory policy.
pub(crate) struct Tracking;

impl Tracking {
    pub(crate) fn start() -> Self {
        TRACKING.fetch_add(1, Ordering::Relaxed);
        Tracking
    }
}

impl Drop for Tracking {
    fn drop(&mut self) {
        TRACKING.fetch_sub(1, Ordering::Relaxed);
    }
}

#[inline]
fn count(delta: i64) {
    // observability bookkeeping is charged to no job: whether metrics or
    // traces record must not change a budget decision
    if TRACKING.load(Ordering::Relaxed) == 0 || foldic_obs::in_bookkeeping() {
        return;
    }
    // try_with: the allocator runs during TLS teardown too.
    let _ = NET.try_with(|n| n.set(n.get().wrapping_add(delta)));
}

// SAFETY: defers every allocation decision to `System`; the bookkeeping
// around it touches only const-initialized thread-local Cells and never
// allocates, so it cannot recurse or change allocation behavior.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            count(layout.size() as i64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            count(layout.size() as i64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            count(new_size as i64 - layout.size() as i64);
        }
        new_ptr
    }
}

/// What to enforce: an optional overall per-block-job budget and
/// optional explicit per-stage budgets, in bytes.
#[derive(Debug, Clone, Default)]
pub struct ResourcePolicy {
    /// Net-allocation budget for one block's whole flow
    /// (`--mem-budget BYTES`), if any.
    pub overall: Option<u64>,
    /// Explicit per-stage budgets (`--stage-mem STAGE=BYTES`).
    pub stage_budgets: Vec<(FlowStage, u64)>,
}

impl ResourcePolicy {
    /// `true` when the policy enforces nothing.
    pub fn is_empty(&self) -> bool {
        self.overall.is_none() && self.stage_budgets.is_empty()
    }

    /// Canonical `STAGE=BYTES,...` spec of the stage budgets (decimal
    /// bytes, input order), for manifest config entries.
    pub fn stage_spec(&self) -> String {
        let entries: Vec<String> = self
            .stage_budgets
            .iter()
            .map(|(stage, bytes)| format!("{stage}={bytes}"))
            .collect();
        entries.join(",")
    }
}

pub(crate) fn thread_net() -> i64 {
    NET.try_with(Cell::get).unwrap_or(0)
}

/// The memory part of a scope of `run` whose policy budgets it with
/// `budget`: `None` without a memory policy. The budget is scaled by
/// `attempt + 1` — a retry gets a larger budget, mirroring deadline
/// retries — and is observational when `budget` finds none.
pub(crate) fn mem_part(
    run: &Active,
    attempt: u32,
    budget: impl FnOnce(&ResourcePolicy) -> Option<u64>,
) -> Option<MemScope> {
    let budget = budget(run.resource.as_ref()?);
    Some(MemScope {
        budget: budget.map(|bytes| bytes.saturating_mul(u64::from(attempt) + 1)),
        start: thread_net(),
        peak: 0,
    })
}

/// Enters the whole-block-job memory scope on the calling thread: the
/// entered run's overall `--mem-budget` (scaled by `attempt + 1`)
/// applies to the net allocation of everything the block's flow does,
/// across all stages. Free, and pushes nothing, when no run with a
/// memory policy is entered.
pub fn job_scope(block: &str, attempt: u32) -> StageGuard {
    let Some(run) = crate::ctx::current() else {
        return StageGuard::none();
    };
    let Some(mem) = mem_part(&run, attempt, |policy| policy.overall) else {
        return StageGuard::none();
    };
    StageGuard::push(Scope {
        stage: FlowStage::Job,
        block: block.to_owned(),
        timed: false,
        expires_at: None,
        mem: Some(mem),
        run,
    })
}

/// The memory half of [`poll`](crate::deadline::poll): updates every
/// memory scope's peak on this thread and reports the first breached
/// budget, attributed to the innermost memory scope's stage and block
/// (the stage that was running when the budget ran out, which is what
/// the retry → degrade provenance wants).
pub(crate) fn check(scopes: &mut [Scope]) -> Result<(), FlowError> {
    let net = thread_net();
    let mut breach: Option<(FlowStage, u64, i64)> = None;
    for scope in scopes.iter_mut() {
        let Some(mem) = &mut scope.mem else { continue };
        let delta = net - mem.start;
        mem.peak = mem.peak.max(delta);
        if breach.is_none() {
            if let Some(budget) = mem.budget {
                if delta > 0 && delta as u64 > budget {
                    breach = Some((scope.stage, budget, delta));
                }
            }
        }
    }
    let (Some((scoped, budget, delta)), Some(top)) =
        (breach, scopes.iter().rev().find(|s| s.mem.is_some()))
    else {
        return Ok(());
    };
    Err(FlowError {
        stage: top.stage,
        block: Some(top.block.clone()),
        cause: FaultCause::MemExceeded(format!(
            "{scoped} memory budget exhausted: {delta} net bytes > {budget} budget"
        )),
    })
}

thread_local! {
    /// The context [`install_resource`] made on this thread, and the
    /// guard that keeps it entered until [`clear_resource`].
    static INSTALLED: RefCell<Option<(RunCtx, Option<RunGuard>)>> = const { RefCell::new(None) };
}

/// Enters a fresh context carrying `policy` on the calling thread, for
/// code that measures a stretch of flow rather than owning a run. A
/// wrapper over [`RunCtx::with_resource`] and [`RunCtx::enter`].
pub fn install_resource(policy: &ResourcePolicy) {
    INSTALLED.with(|slot| {
        let mut slot = slot.borrow_mut();
        *slot = None;
        let run = RunCtx::new().with_resource(policy.clone());
        let guard = run.enter();
        *slot = Some((run, Some(guard)));
    });
}

/// Leaves the context [`install_resource`] entered on the calling
/// thread. Its peak table stays readable through [`take_peaks`].
pub fn clear_resource() {
    INSTALLED.with(|slot| {
        if let Some((_, guard)) = slot.borrow_mut().as_mut() {
            guard.take();
        }
    });
}

/// Drains the peak table of the context [`install_resource`] made on
/// the calling thread: `(stage, peak_bytes)` per stage with a positive
/// peak, in flow order.
pub fn take_peaks() -> Vec<(FlowStage, u64)> {
    INSTALLED.with(|slot| {
        slot.borrow()
            .as_ref()
            .map_or_else(Vec::new, |(run, _)| run.take_peaks())
    })
}

/// Parses a byte count with an optional binary suffix: `123` (bytes),
/// `16k` (KiB), `64M` (MiB), `2G` (GiB); suffixes are case-insensitive.
///
/// # Errors
///
/// Returns a message for an empty spec, a non-digit mantissa, a zero
/// budget (use no flag instead), or a value that overflows `u64`.
pub fn parse_bytes(text: &str) -> Result<u64, String> {
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Err("memory size is empty".to_owned());
    }
    let (digits, multiplier) = match trimmed.as_bytes().last() {
        Some(b'k' | b'K') => (&trimmed[..trimmed.len() - 1], 1u64 << 10),
        Some(b'm' | b'M') => (&trimmed[..trimmed.len() - 1], 1u64 << 20),
        Some(b'g' | b'G') => (&trimmed[..trimmed.len() - 1], 1u64 << 30),
        _ => (trimmed, 1u64),
    };
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!(
            "memory size `{text}` is not WHOLE_BYTES with an optional k/M/G suffix"
        ));
    }
    let value: u64 = digits
        .parse()
        .map_err(|_| format!("memory size `{text}` overflows"))?;
    let bytes = value
        .checked_mul(multiplier)
        .ok_or_else(|| format!("memory size `{text}` overflows"))?;
    if bytes == 0 {
        return Err(format!("memory size `{text}` must be positive"));
    }
    Ok(bytes)
}

/// Formats a byte count in the smallest form [`parse_bytes`] reads back
/// to the same value: the largest binary suffix that divides it exactly,
/// else plain bytes.
pub fn format_bytes(bytes: u64) -> String {
    for (shift, suffix) in [(30u32, "G"), (20, "M"), (10, "k")] {
        let unit = 1u64 << shift;
        if bytes >= unit && bytes.is_multiple_of(unit) {
            return format!("{}{suffix}", bytes / unit);
        }
    }
    bytes.to_string()
}

/// Parses a `--stage-mem` spec (`STAGE=BYTES,...`, byte counts as in
/// [`parse_bytes`]) into per-stage budgets.
///
/// # Errors
///
/// Returns a message on an unknown stage, a malformed byte count, a
/// duplicate stage, or a spec with no entries.
pub fn parse_stage_mem(spec: &str) -> Result<Vec<(FlowStage, u64)>, String> {
    let mut budgets: Vec<(FlowStage, u64)> = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let Some((stage, bytes)) = entry.split_once('=') else {
            return Err(format!("stage-mem entry `{entry}` is not STAGE=BYTES"));
        };
        let stage: FlowStage = stage.trim().parse()?;
        let bytes = parse_bytes(bytes).map_err(|e| format!("stage-mem entry `{entry}`: {e}"))?;
        if budgets.iter().any(|(s, _)| *s == stage) {
            return Err(format!("stage-mem spec repeats stage `{stage}`"));
        }
        budgets.push((stage, bytes));
    }
    if budgets.is_empty() {
        return Err("stage-mem spec is empty".to_owned());
    }
    Ok(budgets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::{poll, stage_scope};

    #[test]
    fn parse_bytes_reads_suffixes_and_rejects_junk() {
        assert_eq!(parse_bytes("123"), Ok(123));
        assert_eq!(parse_bytes("16k"), Ok(16 << 10));
        assert_eq!(parse_bytes("64M"), Ok(64 << 20));
        assert_eq!(parse_bytes("2G"), Ok(2 << 30));
        assert_eq!(parse_bytes(" 8K "), Ok(8 << 10));
        for junk in [
            "",
            " ",
            "M",
            "-1",
            "1.5M",
            "64 M",
            "0",
            "0k",
            "1T",
            "abc",
            "0x10",
            "18446744073709551616",
            "99999999999999999999G",
        ] {
            assert!(parse_bytes(junk).is_err(), "`{junk}` must be rejected");
        }
    }

    #[test]
    fn format_bytes_roundtrips_through_parse() {
        for bytes in [1, 123, 1 << 10, 3 << 20, (1 << 20) + 1, 7 << 30, u64::MAX] {
            let text = format_bytes(bytes);
            assert_eq!(parse_bytes(&text), Ok(bytes), "{bytes} -> {text}");
        }
        assert_eq!(format_bytes(64 << 20), "64M");
        assert_eq!(format_bytes(1000), "1000");
    }

    #[test]
    fn parse_stage_mem_reads_specs_and_rejects_duplicates() {
        let budgets = parse_stage_mem("place=64M, route=16k").unwrap();
        assert_eq!(
            budgets,
            vec![(FlowStage::Place, 64 << 20), (FlowStage::Route, 16 << 10)]
        );
        assert!(parse_stage_mem("").is_err());
        assert!(parse_stage_mem(",").is_err());
        assert!(parse_stage_mem("place").is_err());
        assert!(parse_stage_mem("warp=1M").is_err());
        assert!(parse_stage_mem("place=1M,place=2M").is_err());
        assert!(parse_stage_mem("place=zero").is_err());
    }

    #[test]
    fn policy_emptiness_and_stage_spec() {
        assert!(ResourcePolicy::default().is_empty());
        let policy = ResourcePolicy {
            overall: None,
            stage_budgets: vec![(FlowStage::Place, 64 << 20)],
        };
        assert!(!policy.is_empty());
        assert_eq!(policy.stage_spec(), format!("place={}", 64 << 20));
    }

    /// A context carrying only `policy`.
    fn mem_run(overall: Option<u64>, stage_budgets: Vec<(FlowStage, u64)>) -> RunCtx {
        RunCtx::new().with_resource(ResourcePolicy {
            overall,
            stage_budgets,
        })
    }

    #[test]
    fn no_policy_means_free_scopes_and_clean_polls() {
        let guard = job_scope("b", 0);
        assert!(poll().is_ok());
        drop(guard);
        let run = RunCtx::new();
        let _entered = run.enter();
        let guard = job_scope("b", 0);
        let hog: Vec<u8> = vec![0; 4 << 20];
        assert!(poll().is_ok());
        drop((hog, guard));
        assert!(run.take_peaks().is_empty(), "no policy, no peaks");
    }

    #[test]
    fn job_budget_breach_surfaces_as_recoverable_mem_exceeded() {
        let run = mem_run(Some(64 << 10), Vec::new());
        let entered = run.enter();
        let guard = job_scope("spc0", 0);
        let hog: Vec<u8> = vec![0; 4 << 20];
        let err = poll().unwrap_err();
        assert!(matches!(err.cause, FaultCause::MemExceeded(_)), "{err}");
        assert_eq!(err.block.as_deref(), Some("spc0"));
        assert_eq!(err.stage, FlowStage::Job);
        assert!(err.recoverable(), "mem breaches must take the retry path");
        drop(hog);
        drop(guard);
        drop(entered);
        assert!(poll().is_ok());
    }

    #[test]
    fn retry_scales_the_budget_up() {
        let run = mem_run(Some(64 << 10), Vec::new());
        let _entered = run.enter();
        // attempt 255 gets 256 x 64 KiB = 16 MiB: a 4 MiB allocation
        // breaches attempt 0's budget but not attempt 255's.
        let guard = job_scope("spc0", 255);
        let hog: Vec<u8> = vec![0; 4 << 20];
        assert!(poll().is_ok(), "retry budget is scaled up");
        drop(hog);
        drop(guard);
    }

    #[test]
    fn stage_budget_breach_is_attributed_to_the_stage() {
        let run = mem_run(None, vec![(FlowStage::Place, 64 << 10)]);
        let _entered = run.enter();
        let outer = job_scope("dec", 0);
        let scope = stage_scope(FlowStage::Place, "dec", 0).unwrap();
        let hog: Vec<u8> = vec![0; 4 << 20];
        let err = poll().unwrap_err();
        assert!(matches!(err.cause, FaultCause::MemExceeded(_)), "{err}");
        assert_eq!(err.stage, FlowStage::Place);
        drop(hog);
        // an unbudgeted stage under the same policy is observational
        drop(scope);
        let scope = stage_scope(FlowStage::Route, "dec", 0).unwrap();
        let hog: Vec<u8> = vec![0; 4 << 20];
        assert!(poll().is_ok());
        drop(hog);
        drop(scope);
        drop(outer);
    }

    #[test]
    fn peaks_record_per_stage_and_drain_once() {
        let run = mem_run(None, Vec::new());
        {
            let _entered = run.enter();
            let _job = job_scope("fpu", 0);
            let scope = stage_scope(FlowStage::Sta, "fpu", 0).unwrap();
            let hog: Vec<u8> = vec![0; 2 << 20];
            poll().unwrap();
            drop(hog);
            drop(scope);
        }
        let peaks = run.take_peaks();
        let sta = peaks.iter().find(|(s, _)| *s == FlowStage::Sta);
        assert!(
            sta.is_some_and(|(_, peak)| *peak >= (2 << 20)),
            "sta peak must cover the allocation: {peaks:?}"
        );
        let job = peaks.iter().find(|(s, _)| *s == FlowStage::Job);
        assert!(job.is_some_and(|(_, peak)| *peak >= (2 << 20)), "{peaks:?}");
        assert!(run.take_peaks().is_empty(), "take_peaks drains");
        assert!(run.finish().peaks.is_empty());
    }

    #[test]
    fn install_wrappers_measure_the_calling_thread_only() {
        install_resource(&ResourcePolicy::default());
        let measured = std::thread::spawn(|| {
            // another thread's scopes see no installed context
            let scope = stage_scope(FlowStage::Opt, "x", 0).unwrap();
            let hog: Vec<u8> = vec![0; 1 << 20];
            poll().unwrap();
            drop((hog, scope));
            take_peaks()
        });
        assert!(measured.join().unwrap().is_empty());
        {
            let scope = stage_scope(FlowStage::Place, "b", 0).unwrap();
            let hog: Vec<u8> = vec![0; 1 << 20];
            poll().unwrap();
            drop((hog, scope));
        }
        clear_resource();
        assert!(crate::ctx::current().is_none(), "clear leaves the context");
        let peaks = take_peaks();
        assert!(
            peaks
                .iter()
                .any(|(s, p)| *s == FlowStage::Place && *p >= 1 << 20),
            "{peaks:?}"
        );
        assert!(take_peaks().is_empty(), "take_peaks drains");
    }
}
