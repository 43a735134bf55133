//! Structured spans and events.
//!
//! A [`SpanGuard`] records a `Begin` event when created and the matching
//! `End` event when dropped; [`instant`] records point events. Every event
//! carries a monotonic timestamp (nanoseconds since the first event of the
//! process), the recording thread's id, the span's id and its parent span
//! id. Recording goes into a lock-sharded buffer — one mutex per shard,
//! shards picked by thread — so flow threads never contend on a single
//! lock.
//!
//! Recording is **off by default** and every hook starts with one relaxed
//! atomic load, so instrumentation stays in release builds at no cost
//! (the `span!` macro does not even build its attribute vector while
//! disabled). Kernels count work with [`add_iters`], which rides on a
//! span's `End`.
//!
//! # Parent attribution across thread pools
//!
//! Span nesting is tracked per thread, but `foldic-exec` jobs run on pool
//! workers whose stacks start empty. The pool captures
//! [`current_span`] at the fan-out site and wraps each job in
//! [`run_with_parent`], so spans opened inside a job still attribute to
//! the span that submitted the work. The run context entered on the
//! submitting thread ([`current_run`]) rides the same hand-off: each
//! worker [`enter_run`]s it, so a job sees its own run's policies.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// Identifier of one span instance (unique within the process).
pub type SpanId = u64;

/// One attribute value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A text attribute.
    Str(String),
    /// A signed integer attribute.
    Int(i64),
    /// A float attribute.
    Float(f64),
    /// A boolean attribute.
    Bool(bool),
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_owned())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<i32> for AttrValue {
    fn from(v: i32) -> Self {
        AttrValue::Int(v.into())
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::Int(v as i64)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::Int(v as i64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl AttrValue {
    fn to_json(&self) -> Json {
        match self {
            AttrValue::Str(s) => Json::Str(s.clone()),
            AttrValue::Int(v) => Json::Num(*v as f64),
            AttrValue::Float(v) => Json::Num(*v),
            AttrValue::Bool(b) => Json::Bool(*b),
        }
    }
}

/// What an [`Event`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Begin,
    /// A span closed.
    End,
    /// A point-in-time event.
    Instant,
}

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Global creation order (ties in `ts_ns` break on this).
    pub seq: u64,
    /// Nanoseconds since the process trace epoch (monotonic).
    pub ts_ns: u64,
    /// Recording thread (small dense ids, 0 = first thread seen).
    pub tid: u64,
    /// Begin / End / Instant.
    pub kind: EventKind,
    /// Span or event name.
    pub name: &'static str,
    /// Id of the span this event belongs to (0 for instants outside any
    /// span).
    pub span: SpanId,
    /// Parent span id, if any — follows pool-job inheritance.
    pub parent: Option<SpanId>,
    /// Attributes: on `Begin` and `Instant` events, and `iters` on the
    /// `End` of a span that counted any (see [`add_iters`]).
    pub attrs: Vec<(&'static str, AttrValue)>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

const NUM_SHARDS: usize = 16;
static SHARDS: [Mutex<Vec<Event>>; NUM_SHARDS] = [const { Mutex::new(Vec::new()) }; NUM_SHARDS];

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Open spans on this thread, innermost last, with their iterations.
    static STACK: RefCell<Vec<(SpanId, u64)>> = const { RefCell::new(Vec::new()) };
    static INHERITED: Cell<Option<SpanId>> = const { Cell::new(None) };
    static RUN: RefCell<Option<RunSlot>> = const { RefCell::new(None) };
}

/// Turns trace recording on or off. Turning it on clears the buffers.
pub fn set_enabled(on: bool) {
    if on {
        for shard in &SHARDS {
            shard.lock().unwrap().clear();
        }
    }
    ENABLED.store(on, Ordering::Release);
}

/// `true` while recording — one relaxed load, the cost of every disabled
/// hook.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the process trace epoch (the first call wins the
/// epoch). Public so callers can timestamp *synthesized* events — e.g.
/// the serve scheduler marks a job's submit instant, then builds a
/// `queue.wait` span at dispatch — on the same clock as recorded spans.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Allocates a fresh span id from the same sequence [`SpanGuard`] draws
/// from, for synthesized spans (see [`synthetic_event`]).
pub fn alloc_span_id() -> SpanId {
    NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}

/// Builds an [`Event`] stamped with a fresh global sequence number and
/// this thread's id, without touching the span stack or the shard
/// buffers. Callers that reconstruct spans after the fact (the serve
/// queue synthesizes `queue.wait` Begin/End pairs from stored submit
/// timestamps) use this so their events interleave correctly with
/// recorded ones when sorted by `(ts_ns, seq)`.
pub fn synthetic_event(
    kind: EventKind,
    name: &'static str,
    span: SpanId,
    parent: Option<SpanId>,
    ts_ns: u64,
    attrs: Vec<(&'static str, AttrValue)>,
) -> Event {
    Event {
        seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
        ts_ns,
        tid: TID.with(|t| *t),
        kind,
        name,
        span,
        parent,
        attrs,
    }
}

fn record(event: Event) {
    let _bookkeeping = crate::Bookkeeping::enter();
    let shard = (event.tid as usize) % NUM_SHARDS;
    SHARDS[shard].lock().unwrap().push(event);
}

/// Innermost active span on this thread, falling back to the parent
/// inherited from a pool fan-out.
pub fn current_span() -> Option<SpanId> {
    STACK
        .with(|s| s.borrow().last().map(|&(id, _)| id))
        .or_else(|| INHERITED.with(Cell::get))
}

/// Adds `n` iterations to the innermost span open on this thread, whose
/// `End` event carries the sum as `iters`, so counting records no event
/// of its own (no-op while disabled or outside any span). Call once per
/// kernel entry with a count, not once per inner-loop iteration.
pub fn add_iters(n: u64) {
    if !is_enabled() || n == 0 {
        return;
    }
    STACK.with(|s| {
        if let Some((_, iters)) = s.borrow_mut().last_mut() {
            *iters += n;
        }
    });
}

/// Runs `f` with `parent` installed as the inherited parent span for this
/// thread (pool workers wrap each job in this so spans inside the job
/// attribute to the span that submitted it). The previous inherited parent
/// is restored afterwards.
pub fn run_with_parent<R>(parent: Option<SpanId>, f: impl FnOnce() -> R) -> R {
    let prev = INHERITED.with(|c| c.replace(parent));
    let result = f();
    INHERITED.with(|c| c.set(prev));
    result
}

/// A run context, opaque here (`foldic-fault` owns the type).
pub type RunSlot = Arc<dyn Any + Send + Sync>;

/// The run context entered on this thread (see [`enter_run`]).
pub fn current_run() -> Option<RunSlot> {
    RUN.with(|r| r.borrow().clone())
}

/// Enters `run` on this thread until the returned guard drops, which
/// restores the previous context (also on unwind).
pub fn enter_run(run: Option<RunSlot>) -> RunGuard {
    RunGuard(RUN.with(|r| r.replace(run)), PhantomData)
}

/// Returned by [`enter_run`]. Not `Send`: it restores the thread it
/// entered.
#[must_use = "dropping the guard immediately leaves the run context"]
pub struct RunGuard(Option<RunSlot>, PhantomData<*const ()>);

impl Drop for RunGuard {
    fn drop(&mut self) {
        let prev = self.0.take();
        // try_with: a guard kept in another thread-local may drop during
        // thread teardown, after this slot is gone
        let _ = RUN.try_with(|r| *r.borrow_mut() = prev);
    }
}

/// Records a point event with attributes (no-op while disabled).
pub fn instant(name: &'static str, attrs: Vec<(&'static str, AttrValue)>) {
    if !is_enabled() {
        return;
    }
    record(Event {
        seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
        ts_ns: now_ns(),
        tid: TID.with(|t| *t),
        kind: EventKind::Instant,
        name,
        span: current_span().unwrap_or(0),
        parent: current_span(),
        attrs,
    });
}

/// RAII span: `Begin` on creation, `End` on drop. Build through the
/// [`span!`](crate::span) macro (which skips attribute construction while
/// disabled) or [`SpanGuard::enter`] for attribute-free spans.
#[derive(Debug)]
#[must_use = "a span ends when the guard drops"]
pub struct SpanGuard {
    id: Option<SpanId>,
    name: &'static str,
}

impl SpanGuard {
    /// Opens a span with attributes. Callers should check [`is_enabled`]
    /// first (the `span!` macro does); this records unconditionally.
    pub fn begin(name: &'static str, attrs: Vec<(&'static str, AttrValue)>) -> Self {
        let _bookkeeping = crate::Bookkeeping::enter();
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let parent = current_span();
        STACK.with(|s| s.borrow_mut().push((id, 0)));
        record(Event {
            seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
            ts_ns: now_ns(),
            tid: TID.with(|t| *t),
            kind: EventKind::Begin,
            name,
            span: id,
            parent,
            attrs,
        });
        Self { id: Some(id), name }
    }

    /// Opens an attribute-free span when tracing is on, otherwise returns
    /// a disabled guard.
    pub fn enter(name: &'static str) -> Self {
        if is_enabled() {
            Self::begin(name, Vec::new())
        } else {
            Self::disabled()
        }
    }

    /// A guard that records nothing (the disabled path of `span!`).
    pub fn disabled() -> Self {
        Self { id: None, name: "" }
    }

    /// This span's id (`None` for disabled guards).
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let _bookkeeping = crate::Bookkeeping::enter();
        let iters = STACK.with(|s| {
            let top = s.borrow_mut().pop();
            debug_assert_eq!(top.map(|(open, _)| open), Some(id), "span drop order");
            top.map_or(0, |(_, iters)| iters)
        });
        // record the End even if tracing was switched off mid-span, so
        // exported traces always have balanced Begin/End pairs
        record(Event {
            seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
            ts_ns: now_ns(),
            tid: TID.with(|t| *t),
            kind: EventKind::End,
            name: self.name,
            span: id,
            parent: None,
            attrs: if iters > 0 {
                vec![("iters", iters.into())]
            } else {
                Vec::new()
            },
        });
    }
}

/// Drains every shard and returns all recorded events sorted by
/// `(ts_ns, seq)` — the order exporters need.
pub fn take_events() -> Vec<Event> {
    let mut events = Vec::new();
    for shard in &SHARDS {
        events.append(&mut shard.lock().unwrap());
    }
    events.sort_by_key(|e| (e.ts_ns, e.seq));
    events
}

fn args_json(event: &Event) -> Json {
    let mut args: Vec<(String, Json)> = event
        .attrs
        .iter()
        .map(|(k, v)| ((*k).to_owned(), v.to_json()))
        .collect();
    args.push(("span".to_owned(), Json::Num(event.span as f64)));
    if let Some(p) = event.parent {
        args.push(("parent".to_owned(), Json::Num(p as f64)));
    }
    Json::obj(args)
}

/// Renders events as Chrome-trace JSON (the `chrome://tracing` /
/// [Perfetto](https://ui.perfetto.dev) format): one `B`/`E` pair per span
/// and `i` events for instants, timestamps in microseconds.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let ph = match e.kind {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Instant => "i",
        };
        let us = e.ts_ns / 1_000;
        let frac = e.ts_ns % 1_000;
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":\"foldic\",\"ph\":\"{ph}\",\"ts\":{us}.{frac:03},\"pid\":0,\"tid\":{}",
            Json::Str(e.name.to_owned()).to_compact(),
            e.tid
        );
        if e.kind == EventKind::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        if e.kind != EventKind::End || !e.attrs.is_empty() {
            let _ = write!(out, ",\"args\":{}", args_json(e).to_compact());
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// Renders events as a JSONL log: one JSON object per line, in timestamp
/// order — greppable and streamable.
pub fn events_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        let kind = match e.kind {
            EventKind::Begin => "begin",
            EventKind::End => "end",
            EventKind::Instant => "instant",
        };
        let mut obj = vec![
            ("ts_ns".to_owned(), Json::Num(e.ts_ns as f64)),
            ("tid".to_owned(), Json::Num(e.tid as f64)),
            ("kind".to_owned(), Json::Str(kind.to_owned())),
            ("name".to_owned(), Json::Str(e.name.to_owned())),
            ("span".to_owned(), Json::Num(e.span as f64)),
        ];
        if let Some(p) = e.parent {
            obj.push(("parent".to_owned(), Json::Num(p as f64)));
        }
        if !e.attrs.is_empty() {
            obj.push((
                "attrs".to_owned(),
                Json::obj(e.attrs.iter().map(|(k, v)| ((*k).to_owned(), v.to_json()))),
            ));
        }
        out.push_str(&Json::Obj(obj.into_iter().collect()).to_compact());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    // The trace buffer is global: serialize tests that enable it.
    fn lock() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn spans_nest_and_balance() {
        let _gate = lock();
        set_enabled(true);
        {
            let _a = crate::span!("outer", kind = "test");
            let _b = crate::span!("inner", idx = 3usize);
            instant("tick", vec![("v", AttrValue::from(1.5))]);
        }
        set_enabled(false);
        let events = take_events();
        assert_eq!(events.len(), 5); // B B i E E
        assert_eq!(events[0].kind, EventKind::Begin);
        assert_eq!(events[0].name, "outer");
        assert_eq!(events[1].parent, Some(events[0].span));
        assert_eq!(events[2].kind, EventKind::Instant);
        assert_eq!(events[2].span, events[1].span);
        // LIFO close order
        assert_eq!(events[3].kind, EventKind::End);
        assert_eq!(events[3].span, events[1].span);
        assert_eq!(events[4].span, events[0].span);
        // timestamps are monotone in export order
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn disabled_records_nothing() {
        let _gate = lock();
        set_enabled(false);
        let _ = take_events();
        {
            let _a = crate::span!("ghost", big = 1u64);
            instant("nope", Vec::new());
        }
        assert!(take_events().is_empty());
        assert!(current_span().is_none());
    }

    #[test]
    fn inherited_parent_attributes_child_spans() {
        let _gate = lock();
        set_enabled(true);
        let parent_id = {
            let parent = crate::span!("submit");
            let id = parent.id().unwrap();
            run_with_parent(Some(id), || {
                // simulate a pool worker: empty stack, inherited parent
                let _child = crate::span!("job");
            });
            id
        };
        set_enabled(false);
        let events = take_events();
        let job = events
            .iter()
            .find(|e| e.name == "job" && e.kind == EventKind::Begin)
            .unwrap();
        assert_eq!(job.parent, Some(parent_id));
    }

    #[test]
    fn add_iters_lands_on_the_innermost_open_span() {
        let _gate = lock();
        set_enabled(true);
        add_iters(9); // outside any span: dropped
        {
            let _outer = crate::span!("outer");
            add_iters(2);
            {
                let _inner = crate::span!("inner");
                add_iters(3);
                add_iters(4);
            }
            add_iters(1);
        }
        set_enabled(false);
        let events = take_events();
        assert_eq!(events.len(), 4, "counting records no events");
        let ends: Vec<(&str, &[(&str, AttrValue)])> = events
            .iter()
            .filter(|e| e.kind == EventKind::End)
            .map(|e| (e.name, e.attrs.as_slice()))
            .collect();
        assert_eq!(
            ends,
            [
                ("inner", &[("iters", AttrValue::Int(7))][..]),
                ("outer", &[("iters", AttrValue::Int(3))][..]),
            ]
        );
        let table = crate::stages::fold(&events);
        assert_eq!(table.rows["outer/inner"].iters, 7);
        assert_eq!(table.rows["outer"].iters, 3);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_balanced_pairs() {
        let _gate = lock();
        set_enabled(true);
        {
            let _a = crate::span!("alpha");
            let _b = crate::span!("beta");
        }
        set_enabled(false);
        let events = take_events();
        let trace = chrome_trace_json(&events);
        let doc = Json::parse(&trace).expect("chrome trace parses");
        let items = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let mut depth = 0i64;
        for item in items {
            match item.get("ph").unwrap().as_str().unwrap() {
                "B" => depth += 1,
                "E" => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "E before B");
        }
        assert_eq!(depth, 0, "unbalanced B/E pairs");

        let jsonl = events_jsonl(&events);
        for line in jsonl.lines() {
            Json::parse(line).expect("JSONL line parses");
        }
    }
}
