//! The stage table: one fold over drained trace events.
//!
//! Stage scopes and `run_fullchip` open one span per flow stage, kernel
//! counts ride on span closes ([`add_iters`]) and every pool run leaves
//! one `fanout` instant. [`fold`] turns drained events into the table
//! `repro --profile` prints and the manifest `timing` section holds.
//! Rows are keyed by the path of span names from the root, following
//! parent links (which pool workers inherit from the submitting span)
//! and leaving out the pool's `job` spans, so keys, calls and iterations
//! do not depend on the thread count.
//!
//! [`add_iters`]: crate::trace::add_iters

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::time::Duration;

use crate::json::Json;
use crate::trace::{AttrValue, Event, EventKind, SpanId};

/// Name of the span `foldic-exec` opens around each pool job.
pub const JOB: &str = "job";
/// Name of the instant `foldic-exec` records once per pool run.
pub const FANOUT: &str = "fanout";

/// Every close of the spans that share one key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StageRow {
    /// Spans closed.
    pub(crate) calls: u64,
    /// Summed wall time, `Begin` to `End`.
    pub(crate) wall: Duration,
    /// Summed `iters` of their `End` events.
    pub(crate) iters: u64,
}

/// Per-path stage rows plus pool stats summed over `fanout` instants:
/// printed by its `Display`, written by [`StageTable::to_json`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageTable {
    /// Rows keyed by span path (`fullchip/block_flows/block_flow/place`).
    pub(crate) rows: BTreeMap<String, StageRow>,
    /// Pool runs (fan-outs).
    pub(crate) runs: u64,
    /// Jobs across pool runs.
    pub(crate) jobs: u64,
    /// Steals across pool runs.
    pub(crate) steals: u64,
    /// Largest queue backlog any pool run observed.
    pub(crate) peak_queue_depth: u64,
}

/// Span id → name, parent and `Begin` timestamp.
type Opened = HashMap<SpanId, (&'static str, Option<SpanId>, u64)>;

/// Folds `events` (any order, any recording threads) into the stage
/// table. Spans whose `Begin` or `End` is missing from the list are
/// skipped; a path stops at the first ancestor that did not open in it.
pub fn fold(events: &[Event]) -> StageTable {
    let opened: Opened = events
        .iter()
        .filter(|e| e.kind == EventKind::Begin)
        .map(|e| (e.span, (e.name, e.parent, e.ts_ns)))
        .collect();
    let mut table = StageTable::default();
    for e in events {
        match e.kind {
            EventKind::End => {
                let Some(&(name, _, begin_ns)) = opened.get(&e.span) else {
                    continue;
                };
                if name == JOB {
                    continue;
                }
                let row = table.rows.entry(path(&opened, e.span)).or_default();
                row.calls += 1;
                row.wall += Duration::from_nanos(e.ts_ns.saturating_sub(begin_ns));
                row.iters += count(e, "iters");
            }
            EventKind::Instant if e.name == FANOUT => {
                table.runs += 1;
                table.jobs += count(e, "jobs");
                table.steals += count(e, "steals");
                let depth = count(e, "peak_queue_depth");
                table.peak_queue_depth = table.peak_queue_depth.max(depth);
            }
            _ => {}
        }
    }
    table
}

/// `span`'s key: the names from the root down, without `job` spans.
fn path(opened: &Opened, span: SpanId) -> String {
    // the bound keeps a parent cycle in hand-built input finite
    let mut names: Vec<&str> = std::iter::successors(Some(span), |id| opened.get(id)?.1)
        .take(opened.len())
        .filter_map(|id| opened.get(&id).map(|s| s.0))
        .filter(|name| *name != JOB)
        .collect();
    names.reverse();
    names.join("/")
}

/// An integer attribute of `event`, 0 when absent.
fn count(event: &Event, key: &str) -> u64 {
    event
        .attrs
        .iter()
        .find_map(|(k, v)| match v {
            AttrValue::Int(n) if *k == key => Some(*n as u64),
            _ => None,
        })
        .unwrap_or(0)
}

impl StageTable {
    /// `{"stages": {key: {calls, wall_ms, iters}}, "pool": {jobs, steals,
    /// runs, peak_queue_depth}}`.
    pub fn to_json(&self) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        let obj =
            |pairs: Vec<(&str, Json)>| Json::obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)));
        let stages = self.rows.iter().map(|(key, row)| {
            let wall_ms = Json::Num(row.wall.as_secs_f64() * 1e3);
            let fields = vec![
                ("calls", num(row.calls)),
                ("wall_ms", wall_ms),
                ("iters", num(row.iters)),
            ];
            (key.clone(), obj(fields))
        });
        let pool = obj(vec![
            ("jobs", num(self.jobs)),
            ("steals", num(self.steals)),
            ("runs", num(self.runs)),
            ("peak_queue_depth", num(self.peak_queue_depth)),
        ]);
        obj(vec![("stages", Json::obj(stages)), ("pool", pool)])
    }
}

impl fmt::Display for StageTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self.rows.keys().map(String::len).max().unwrap_or(0).max(28);
        writeln!(
            f,
            "{:<width$} {:>8} {:>12} {:>8} {:>14} {:>12}",
            "stage", "calls", "wall ms", "share", "iters", "ms/call"
        )?;
        // shares are of the root rows' summed wall: nested rows already
        // count inside their root's
        let roots = self.rows.iter().filter(|(key, _)| !key.contains('/'));
        let total = roots
            .map(|(_, row)| row.wall.as_secs_f64())
            .sum::<f64>()
            .max(1e-12);
        for (key, row) in &self.rows {
            let ms = row.wall.as_secs_f64() * 1e3;
            writeln!(
                f,
                "{:<width$} {:>8} {:>12.2} {:>7.1}% {:>14} {:>12.3}",
                key,
                row.calls,
                ms,
                row.wall.as_secs_f64() / total * 100.0,
                row.iters,
                ms / row.calls.max(1) as f64
            )?;
        }
        writeln!(
            f,
            "pool: {} jobs over {} fan-outs, {} steals ({:.3} steals/job), peak queue depth {}",
            self.jobs,
            self.runs,
            self.steals,
            self.steals as f64 / self.jobs.max(1) as f64,
            self.peak_queue_depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds event lists by hand: no recording, so no lock.
    #[derive(Default)]
    struct Events(Vec<Event>);

    impl Events {
        #[allow(clippy::too_many_arguments)]
        fn push(
            &mut self,
            kind: EventKind,
            name: &'static str,
            span: SpanId,
            parent: Option<SpanId>,
            tid: u64,
            ts_ns: u64,
            attrs: Vec<(&'static str, AttrValue)>,
        ) {
            let seq = self.0.len() as u64;
            self.0.push(Event {
                seq,
                ts_ns,
                tid,
                kind,
                name,
                span,
                parent,
                attrs,
            });
        }

        fn begin(
            &mut self,
            name: &'static str,
            span: SpanId,
            parent: Option<SpanId>,
            tid: u64,
            ts_ns: u64,
        ) {
            self.push(EventKind::Begin, name, span, parent, tid, ts_ns, Vec::new());
        }

        fn end(&mut self, name: &'static str, span: SpanId, tid: u64, ts_ns: u64, iters: u64) {
            let attrs = if iters > 0 {
                vec![("iters", iters.into())]
            } else {
                Vec::new()
            };
            self.push(EventKind::End, name, span, None, tid, ts_ns, attrs);
        }
    }

    /// A `submit` span whose two pool jobs each run a `stage` span with
    /// 5 and 7 iterations; `job_tid(i)` is the thread job `i` ran on.
    fn fanned_out(job_tid: impl Fn(u64) -> u64) -> Vec<Event> {
        let mut ev = Events::default();
        ev.begin("submit", 1, None, 0, 0);
        for (i, iters) in [(0, 5), (1, 7)] {
            let (job, stage) = (10 + 2 * i, 11 + 2 * i);
            let tid = job_tid(i);
            ev.begin("job", job, Some(1), tid, 10 + i);
            ev.begin("stage", stage, Some(job), tid, 20 + i);
            ev.end("stage", stage, tid, 30 + i, iters);
            ev.end("job", job, tid, 40 + i, 0);
        }
        ev.end("submit", 1, 0, 100, 0);
        ev.0
    }

    #[test]
    fn nested_spans_key_by_path() {
        let mut ev = Events::default();
        ev.begin("a", 1, None, 0, 0);
        ev.begin("b", 2, Some(1), 0, 10);
        ev.end("b", 2, 0, 30, 0);
        ev.begin("b", 3, Some(1), 0, 40);
        ev.end("b", 3, 0, 50, 0);
        ev.end("a", 1, 0, 100, 0);
        let table = fold(&ev.0);
        let keys: Vec<&str> = table.rows.keys().map(String::as_str).collect();
        assert_eq!(keys, ["a", "a/b"]);
        assert_eq!(table.rows["a"].calls, 1);
        assert_eq!(table.rows["a"].wall, Duration::from_nanos(100));
        assert_eq!(table.rows["a/b"].calls, 2);
        assert_eq!(table.rows["a/b"].wall, Duration::from_nanos(30));
    }

    #[test]
    fn pool_job_spans_are_left_out_of_the_key() {
        let table = fold(&fanned_out(|_| 0));
        let keys: Vec<&str> = table.rows.keys().map(String::as_str).collect();
        assert_eq!(keys, ["submit", "submit/stage"]);
        assert_eq!(table.rows["submit/stage"].calls, 2);
    }

    #[test]
    fn the_same_tree_on_other_threads_folds_the_same() {
        let inline = fold(&fanned_out(|_| 0));
        let pooled = fold(&fanned_out(|i| 3 + i));
        assert_eq!(inline, pooled);
        assert_eq!(pooled.rows["submit/stage"].iters, 12);
    }

    #[test]
    fn counts_come_from_end_events() {
        let mut ev = Events::default();
        ev.begin("outer", 1, None, 0, 0);
        ev.begin("inner", 2, Some(1), 0, 1);
        ev.end("inner", 2, 0, 2, 4);
        // an iters attribute on a Begin or an instant is not a count
        ev.push(
            EventKind::Instant,
            "tick",
            1,
            Some(1),
            0,
            3,
            vec![("iters", 9u64.into())],
        );
        ev.end("outer", 1, 0, 5, 6);
        let table = fold(&ev.0);
        assert_eq!(table.rows["outer"].iters, 6);
        assert_eq!(table.rows["outer/inner"].iters, 4);
    }

    #[test]
    fn share_and_pool_line_sum_as_documented() {
        let mut ev = Events::default();
        ev.begin("place", 1, None, 0, 0);
        ev.begin("inner", 2, Some(1), 0, 0);
        ev.end("inner", 2, 0, 5_000_000, 0);
        ev.end("place", 1, 0, 30_000_000, 0);
        ev.begin("route", 3, None, 0, 30_000_000);
        ev.end("route", 3, 0, 40_000_000, 0);
        let fanout = |jobs: u64, steals: u64, depth: u64| {
            vec![
                ("jobs", jobs.into()),
                ("threads", 4u64.into()),
                ("steals", steals.into()),
                ("peak_queue_depth", depth.into()),
            ]
        };
        ev.push(
            EventKind::Instant,
            "fanout",
            3,
            Some(3),
            0,
            35,
            fanout(5, 1, 2),
        );
        ev.push(
            EventKind::Instant,
            "fanout",
            0,
            None,
            0,
            36,
            fanout(3, 1, 4),
        );
        ev.push(EventKind::Instant, "steal", 0, None, 0, 37, Vec::new());
        let table = fold(&ev.0);
        let pool = (table.runs, table.jobs, table.steals, table.peak_queue_depth);
        assert_eq!(pool, (2, 8, 2, 4));
        let rendered = table.to_string();
        let header = rendered.lines().next().unwrap();
        for col in ["stage", "calls", "wall ms", "share", "iters", "ms/call"] {
            assert!(header.contains(col), "header misses {col:?}: {header}");
        }
        let line = |key: &str| {
            rendered
                .lines()
                .find(|l| l.starts_with(&format!("{key} ")))
                .unwrap()
                .to_owned()
        };
        // shares are of the root rows' summed wall (30 + 10 ms)
        assert!(line("place").contains(" 75.0%"), "{rendered}");
        assert!(line("route").contains(" 25.0%"), "{rendered}");
        assert!(line("place/inner").contains(" 12.5%"), "{rendered}");
        assert!(
            rendered.ends_with(
                "pool: 8 jobs over 2 fan-outs, 2 steals (0.250 steals/job), peak queue depth 4\n"
            ),
            "{rendered}"
        );
        let json = table.to_json();
        assert_eq!(
            json.get("pool").and_then(|p| p.get("jobs")),
            Some(&Json::Num(8.0))
        );
        let place = json.get("stages").and_then(|s| s.get("place")).unwrap();
        assert_eq!(place.get("wall_ms"), Some(&Json::Num(30.0)));
    }
}
