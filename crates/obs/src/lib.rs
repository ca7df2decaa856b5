//! # obs — unified task-level tracing and metrics
//!
//! One tracing substrate for both runtime substitutes: `taskrt`'s
//! work-stealing workers and `ompsim`'s fork-join threads record
//! [`Span`]s into the same [`Tracer`], so a many-task run and a fork-join
//! run of the same problem produce directly comparable timelines.
//!
//! Design constraints, in order:
//!
//! * **Zero cost when disabled.** Runtimes hold an `Option<TraceCtx>`;
//!   the untraced hot path is a single `None` check.
//! * **No cross-worker contention when enabled.** Each worker writes to
//!   its own cache-padded lane ([`parutil::CachePadded`]); the per-lane
//!   mutex exists only so the control thread can drain after the run,
//!   and is uncontended during recording.
//! * **One schema.** [`chrome_trace`] emits exactly the Chrome-trace JSON
//!   event shape `simsched::timeline::to_chrome_trace` emits, so real and
//!   simulated timelines open side by side in Perfetto / `about:tracing`
//!   and feed the same drift tooling.
//!
//! The [`MetricsSnapshot`] aggregates the spans into the counters the
//! paper's analysis needs: spawn/steal counts, barrier waits, and
//! per-phase duration histograms, exportable as CSV or JSON.

#![warn(missing_docs)]

pub mod dist;
pub mod jsonlint;
pub mod live;

use parking_lot::Mutex;
use parutil::CachePadded;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What a span measures. The discriminant doubles as the Chrome-trace
/// `cat` field, so Perfetto can filter by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// One executed task body (a `taskrt` spawn or continuation).
    Task,
    /// A successful work-steal (instantaneous; marks where load moved).
    Steal,
    /// A synchronization point: duration is the wait from the first
    /// dependency completing to the last (the barrier's skew).
    Barrier,
    /// A fork-join parallel region/loop (`ompsim`), or a driver-level
    /// phase such as one leapfrog iteration.
    Region,
    /// Inter-domain halo communication (multidom exchanges).
    Halo,
    /// One transport-level frame operation inside `parcelnet` (send,
    /// deadline-bounded wait, payload read). Carries [`Span::bytes`] and
    /// [`Span::peer`].
    Parcel,
}

impl SpanKind {
    /// Stable lowercase name (the Chrome-trace `cat` value).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Task => "task",
            SpanKind::Steal => "steal",
            SpanKind::Barrier => "barrier",
            SpanKind::Region => "region",
            SpanKind::Halo => "halo",
            SpanKind::Parcel => "parcel",
        }
    }
}

/// One recorded interval on one lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Monotonic id, unique within the tracer (the Chrome-trace name
    /// suffix, matching `simsched`'s `label-taskid` convention).
    pub task_id: u64,
    /// Phase label (e.g. `"stress"`, `"eos"`, `"barrier-forces"`).
    pub label: &'static str,
    /// Lane the span was recorded on (worker index or control lane).
    pub worker: usize,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch (`>= start_ns`).
    pub end_ns: u64,
    /// What the interval measures.
    pub kind: SpanKind,
    /// Payload bytes moved, for [`SpanKind::Parcel`] frame spans
    /// (0 for every other kind).
    pub bytes: u64,
    /// Peer rank for [`SpanKind::Parcel`] spans; −1 when not applicable.
    pub peer: i32,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Lock-free-in-practice span sink: one cache-padded buffer per lane,
/// each written by a single worker thread (the mutex is never contended
/// during recording; it exists for the post-run drain). Lanes are
/// conventionally `lane_base + worker_index`, with one extra *control
/// lane* past the workers for driver-level spans.
pub struct Tracer {
    lanes: Vec<CachePadded<Mutex<Vec<Span>>>>,
    epoch: Instant,
    next_task_id: AtomicU64,
}

impl Tracer {
    /// Tracer with `lanes` buffers. Callers typically use
    /// `threads + 1` lanes: one per worker plus a control lane.
    pub fn new(lanes: usize) -> Self {
        assert!(lanes >= 1, "need at least one lane");
        Self {
            lanes: (0..lanes)
                .map(|_| CachePadded(Mutex::new(Vec::new())))
                .collect(),
            epoch: Instant::now(),
            next_task_id: AtomicU64::new(0),
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Nanoseconds since this tracer was created — the span time base.
    /// *Both* endpoints of every recorded span must come from this clock
    /// (never a separately-read `Instant`): the sim-vs-real drift report
    /// compares span timestamps directly, and mixing clocks skews them.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Allocate the next span id.
    pub fn next_task_id(&self) -> u64 {
        self.next_task_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a span on `lane` (clamped to the last lane so a
    /// mis-sized tracer degrades to a shared lane instead of panicking
    /// mid-run).
    pub fn record(&self, lane: usize, span: Span) {
        let lane = lane.min(self.lanes.len() - 1);
        self.lanes[lane].lock().push(span);
    }

    /// Record an interval with a fresh id.
    pub fn record_interval(
        &self,
        lane: usize,
        kind: SpanKind,
        label: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        let lane = lane.min(self.lanes.len() - 1);
        self.record(
            lane,
            Span {
                task_id: self.next_task_id(),
                label,
                worker: lane,
                start_ns,
                end_ns: end_ns.max(start_ns),
                kind,
                bytes: 0,
                peer: -1,
            },
        );
    }

    /// Record a [`SpanKind::Parcel`] frame span with its payload size and
    /// peer rank — the `parcelnet` transports' recording entry point.
    #[allow(clippy::too_many_arguments)]
    pub fn record_parcel(
        &self,
        lane: usize,
        label: &'static str,
        start_ns: u64,
        end_ns: u64,
        bytes: u64,
        peer: usize,
    ) {
        let lane = lane.min(self.lanes.len() - 1);
        self.record(
            lane,
            Span {
                task_id: self.next_task_id(),
                label,
                worker: lane,
                start_ns,
                end_ns: end_ns.max(start_ns),
                kind: SpanKind::Parcel,
                bytes,
                peer: peer as i32,
            },
        );
    }

    /// Copy lane `lane`'s spans from index `cursor` on, in recording
    /// order (`lane` clamped like [`record`](Self::record)): how a sampler
    /// reads what one lane recorded since its last read without draining
    /// the spans a trace file still needs.
    pub fn lane_since(&self, lane: usize, cursor: usize) -> Vec<Span> {
        let spans = self.lanes[lane.min(self.lanes.len() - 1)].lock();
        spans.get(cursor..).map_or_else(Vec::new, <[Span]>::to_vec)
    }

    /// Take every recorded span, sorted by start time. Leaves the
    /// tracer empty (recording can continue afterwards).
    pub fn drain(&self) -> Vec<Span> {
        let mut all: Vec<Span> = Vec::new();
        for lane in &self.lanes {
            all.append(&mut lane.lock());
        }
        all.sort_by_key(|s| (s.start_ns, s.worker, s.task_id));
        all
    }

    /// Convenience: an `Arc`-wrapped tracer, the form the runtimes take.
    pub fn shared(lanes: usize) -> Arc<Self> {
        Arc::new(Self::new(lanes))
    }
}

/// Serialize spans as a Chrome-trace JSON array — the exact event shape
/// `simsched::timeline::to_chrome_trace` emits (`ph: "X"` complete
/// events, microsecond timestamps), with the span kind as `cat`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let events: Vec<String> = spans.iter().map(|s| dist::x_event(&s.into(), 0)).collect();
    dist::json_array(&events)
}

/// Write the standard observability outputs for a finished run: the
/// Chrome-trace JSON to `trace` and the [`MetricsSnapshot`] to `metrics`
/// (JSON when the path ends in `.json`, CSV otherwise). Either path may
/// be `None`. Shared by every binary that takes `--trace`/`--metrics`.
pub fn write_reports(
    spans: &[Span],
    trace: Option<&str>,
    metrics: Option<&str>,
) -> std::io::Result<()> {
    if let Some(path) = trace {
        std::fs::write(path, chrome_trace(spans))?;
    }
    if let Some(path) = metrics {
        let m = MetricsSnapshot::from_spans(spans);
        let body = if path.ends_with(".json") {
            m.to_json()
        } else {
            m.to_csv()
        };
        std::fs::write(path, body)?;
    }
    Ok(())
}

/// Aggregate statistics for one `(label, kind)` phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase label.
    pub label: &'static str,
    /// Span kind the phase's spans carry.
    pub kind: SpanKind,
    /// Number of spans.
    pub count: u64,
    /// Σ duration, nanoseconds.
    pub total_ns: u64,
    /// Shortest span, nanoseconds.
    pub min_ns: u64,
    /// Longest span, nanoseconds.
    pub max_ns: u64,
}

/// Metrics snapshot computed from a span set: the counters the paper's
/// analysis reads (spawns, steals, barrier waits, per-phase durations).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Executed task bodies ([`SpanKind::Task`] spans).
    pub spawns: u64,
    /// Successful work-steals.
    pub steals: u64,
    /// Synchronization points crossed ([`SpanKind::Barrier`] spans).
    pub barriers: u64,
    /// Σ barrier wait (first-dep-done → last-dep-done), nanoseconds.
    pub barrier_wait_ns: u64,
    /// Fork-join regions / driver phases.
    pub regions: u64,
    /// Halo-exchange spans.
    pub halos: u64,
    /// Transport-level frame spans ([`SpanKind::Parcel`]).
    pub parcels: u64,
    /// Σ payload bytes across parcel spans.
    pub parcel_bytes: u64,
    /// Leapfrog iterations (spans labelled `"iteration"`).
    pub iterations: u64,
    /// Per-`(label, kind)` duration histogram, label-sorted.
    pub phases: Vec<PhaseStat>,
}

impl MetricsSnapshot {
    /// Aggregate a span set.
    pub fn from_spans(spans: &[Span]) -> Self {
        let mut m = MetricsSnapshot::default();
        let mut phases: BTreeMap<(&'static str, SpanKind), PhaseStat> = BTreeMap::new();
        for s in spans {
            match s.kind {
                SpanKind::Task => m.spawns += 1,
                SpanKind::Steal => m.steals += 1,
                SpanKind::Barrier => {
                    m.barriers += 1;
                    m.barrier_wait_ns += s.dur_ns();
                }
                SpanKind::Region => {
                    m.regions += 1;
                    if s.label == "iteration" {
                        m.iterations += 1;
                    }
                }
                SpanKind::Halo => m.halos += 1,
                SpanKind::Parcel => {
                    m.parcels += 1;
                    m.parcel_bytes += s.bytes;
                }
            }
            let e = phases.entry((s.label, s.kind)).or_insert(PhaseStat {
                label: s.label,
                kind: s.kind,
                count: 0,
                total_ns: 0,
                min_ns: u64::MAX,
                max_ns: 0,
            });
            e.count += 1;
            e.total_ns += s.dur_ns();
            e.min_ns = e.min_ns.min(s.dur_ns());
            e.max_ns = e.max_ns.max(s.dur_ns());
        }
        m.phases = phases.into_values().collect();
        m
    }

    /// CSV export: a header, one summary row prefixed `total`, then one
    /// row per phase.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "record,label,kind,count,total_ns,min_ns,max_ns,\
             spawns,steals,barriers,barrier_wait_ns,regions,halos,\
             parcels,parcel_bytes,iterations\n",
        );
        let _ = writeln!(
            out,
            "total,,,,,,,{},{},{},{},{},{},{},{},{}",
            self.spawns,
            self.steals,
            self.barriers,
            self.barrier_wait_ns,
            self.regions,
            self.halos,
            self.parcels,
            self.parcel_bytes,
            self.iterations
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "phase,{},{},{},{},{},{},,,,,,,,,",
                p.label,
                p.kind.name(),
                p.count,
                p.total_ns,
                p.min_ns,
                p.max_ns
            );
        }
        out
    }

    /// JSON export (hand-rolled; labels are `'static` identifiers that
    /// never need escaping).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"spawns\": {},", self.spawns);
        let _ = writeln!(out, "  \"steals\": {},", self.steals);
        let _ = writeln!(out, "  \"barriers\": {},", self.barriers);
        let _ = writeln!(out, "  \"barrier_wait_ns\": {},", self.barrier_wait_ns);
        let _ = writeln!(out, "  \"regions\": {},", self.regions);
        let _ = writeln!(out, "  \"halos\": {},", self.halos);
        let _ = writeln!(out, "  \"parcels\": {},", self.parcels);
        let _ = writeln!(out, "  \"parcel_bytes\": {},", self.parcel_bytes);
        let _ = writeln!(out, "  \"iterations\": {},", self.iterations);
        out.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            let sep = if i + 1 == self.phases.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"label\": \"{}\", \"kind\": \"{}\", \"count\": {}, \
                 \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}{}",
                p.label,
                p.kind.name(),
                p.count,
                p.total_ns,
                p.min_ns,
                p.max_ns,
                sep
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, label: &'static str, lane: usize, s: u64, e: u64, kind: SpanKind) -> Span {
        Span {
            task_id: id,
            label,
            worker: lane,
            start_ns: s,
            end_ns: e,
            kind,
            bytes: 0,
            peer: -1,
        }
    }

    #[test]
    fn drain_sorts_across_lanes() {
        let t = Tracer::new(3);
        t.record(2, span(0, "b", 2, 50, 60, SpanKind::Task));
        t.record(0, span(1, "a", 0, 10, 20, SpanKind::Task));
        t.record(1, span(2, "c", 1, 30, 40, SpanKind::Barrier));
        let spans = t.drain();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].label, "a");
        assert_eq!(spans[1].label, "c");
        assert_eq!(spans[2].label, "b");
        assert!(t.drain().is_empty(), "drain empties the tracer");
    }

    #[test]
    fn record_interval_assigns_unique_ids_and_clamps_lane() {
        let t = Tracer::new(2);
        t.record_interval(0, SpanKind::Task, "x", 0, 5);
        t.record_interval(99, SpanKind::Task, "y", 5, 10); // lane clamped to 1
        let spans = t.drain();
        assert_eq!(spans.len(), 2);
        assert_ne!(spans[0].task_id, spans[1].task_id);
        assert_eq!(spans[1].worker, 1);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let t = Arc::new(Tracer::new(4));
        let handles: Vec<_> = (0..4)
            .map(|lane| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        t.record_interval(lane, SpanKind::Task, "w", i, i + 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.drain().len(), 2000);
    }

    #[test]
    fn chrome_trace_matches_simsched_schema() {
        let spans = vec![
            span(7, "stress", 0, 1500, 3500, SpanKind::Task),
            span(8, "barrier-forces", 1, 3500, 4000, SpanKind::Barrier),
        ];
        let json = chrome_trace(&spans);
        jsonlint::validate(&json).expect("valid JSON");
        // The exact field shape simsched::timeline emits.
        assert!(json.contains(r#""name": "stress-7", "cat": "task", "ph": "X", "ts": 1.500, "dur": 2.000, "pid": 0, "tid": 0"#));
        assert!(json.contains(r#""name": "barrier-forces-8", "cat": "barrier""#));
    }

    #[test]
    fn chrome_trace_empty_is_valid() {
        let json = chrome_trace(&[]);
        jsonlint::validate(&json).expect("empty array is valid JSON");
    }

    #[test]
    fn metrics_aggregate_by_kind_and_label() {
        let spans = vec![
            span(0, "stress", 0, 0, 10, SpanKind::Task),
            span(1, "stress", 1, 0, 30, SpanKind::Task),
            span(2, "eos", 0, 40, 45, SpanKind::Task),
            span(3, "barrier-end", 0, 45, 55, SpanKind::Barrier),
            span(4, "iteration", 2, 0, 55, SpanKind::Region),
            span(5, "steal", 1, 20, 20, SpanKind::Steal),
            span(6, "halo-forces", 0, 30, 35, SpanKind::Halo),
        ];
        let m = MetricsSnapshot::from_spans(&spans);
        assert_eq!(m.spawns, 3);
        assert_eq!(m.steals, 1);
        assert_eq!(m.barriers, 1);
        assert_eq!(m.barrier_wait_ns, 10);
        assert_eq!(m.regions, 1);
        assert_eq!(m.halos, 1);
        assert_eq!(m.iterations, 1);
        let stress = m.phases.iter().find(|p| p.label == "stress").unwrap();
        assert_eq!(stress.count, 2);
        assert_eq!(stress.total_ns, 40);
        assert_eq!(stress.min_ns, 10);
        assert_eq!(stress.max_ns, 30);
    }

    #[test]
    fn exports_are_wellformed() {
        let spans = vec![
            span(0, "stress", 0, 0, 10, SpanKind::Task),
            span(1, "barrier-end", 0, 10, 12, SpanKind::Barrier),
        ];
        let m = MetricsSnapshot::from_spans(&spans);
        jsonlint::validate(&m.to_json()).expect("metrics JSON valid");
        let csv = m.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2 + m.phases.len());
        let cols = lines[0].split(',').count();
        for l in &lines {
            assert_eq!(l.split(',').count(), cols, "ragged CSV row: {l}");
        }
    }
}
