//! Live in-band telemetry plane: a per-rank summary sampled per timestep
//! from the rank's own span record, streamed to rank 0 over the
//! dt-allreduce star, plus an online straggler detector.
//!
//! There is no second set of counters: a rank's [`LaneSampler`] reads the
//! spans its protocol lane recorded since the last sample and attributes
//! them with [`dist::attribute`](crate::dist::attribute), the sweep
//! [`dist::analyze`](crate::dist::analyze) runs over the merged trace, so
//! the live phases and `analysis.json` name every nanosecond alike. The
//! [`StepSummary`] wire encoding rides the existing dt reduction (no extra
//! sync points); rank 0 feeds the step times to an EWMA-based
//! [`StragglerDetector`] with hysteresis.

use crate::dist::{attribute, categorize, Category};
use crate::{Span, SpanKind, Tracer};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Schema version stamped on every `--live-metrics` JSONL line and on
/// the [`StepSummary`] wire encoding.
pub const LIVE_SCHEMA_VERSION: u64 = 4;

/// Number of taxonomy phases in a [`StepSummary`] (the Schulz
/// categories, in [`Category::ALL`] order).
pub const NCAT: usize = Category::ALL.len();

// ---------------------------------------------------------------------------
// Wire encoding
// ---------------------------------------------------------------------------

/// One rank's per-timestep telemetry sample. Counters are *cumulative*
/// since rank start (monotonic), so a dropped sample never corrupts
/// rates computed downstream; `step_ns` and the latency quantiles cover
/// the sampling window the sample closes. Encodes to a flat `f64` vector
/// (every field is far below 2^53, so the round-trip is exact) for the
/// `Tag::Telemetry` parcel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepSummary {
    /// Originating rank.
    pub rank: u32,
    /// Timestep index the sample closes.
    pub step: u64,
    /// Nanoseconds this rank spent *driving* the step: wall time from the
    /// top of the step to the sample minus the `wait` attributed inside
    /// it — the straggler-detection signal (a rank stalled behind a slow
    /// neighbour reports near zero; the slow rank itself reports its full
    /// step).
    pub step_ns: u64,
    /// Cumulative phase nanoseconds, in [`Category::ALL`] order.
    pub phase_ns: [u64; NCAT],
    /// Cumulative outbound payload bytes (`parcel-send-*` spans).
    pub sent_bytes: u64,
    /// Cumulative inbound payload bytes (`parcel-recv-*` spans).
    pub recv_bytes: u64,
    /// Cumulative parcels sent plus received.
    pub parcels: u64,
    /// p50 receive latency over the window's receives, ns (exact).
    pub lat_p50_ns: u64,
    /// p99 receive latency over the window's receives, ns (exact).
    pub lat_p99_ns: u64,
}

/// Length of [`StepSummary::encode`]'s output.
pub const SUMMARY_ENCODED_LEN: usize = 1 + 3 + NCAT + 5;

impl StepSummary {
    /// Flatten into `f64`s for the telemetry parcel.
    pub fn encode(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(SUMMARY_ENCODED_LEN);
        v.push(LIVE_SCHEMA_VERSION as f64);
        v.extend([self.rank as u64, self.step, self.step_ns].map(|x| x as f64));
        v.extend(self.phase_ns.iter().map(|&x| x as f64));
        v.extend(
            [
                self.sent_bytes,
                self.recv_bytes,
                self.parcels,
                self.lat_p50_ns,
                self.lat_p99_ns,
            ]
            .map(|x| x as f64),
        );
        v
    }

    /// Inverse of [`StepSummary::encode`]; `None` on a wrong length or
    /// schema version (a peer running a different build).
    pub fn decode(p: &[f64]) -> Option<StepSummary> {
        if p.len() != SUMMARY_ENCODED_LEN || p[0] as u64 != LIVE_SCHEMA_VERSION {
            return None;
        }
        let mut it = p[1..].iter().map(|&x| x as u64);
        let mut next = || it.next().unwrap_or(0);
        Some(StepSummary {
            rank: next() as u32,
            step: next(),
            step_ns: next(),
            phase_ns: std::array::from_fn(|_| next()),
            sent_bytes: next(),
            recv_bytes: next(),
            parcels: next(),
            lat_p50_ns: next(),
            lat_p99_ns: next(),
        })
    }
}

// ---------------------------------------------------------------------------
// Sampling the span record
// ---------------------------------------------------------------------------

/// A rank's live sampler: on each telemetry step it reads the spans its
/// protocol lane recorded since the last sample, attributes them with
/// [`attribute`] over the stretch of timeline not yet attributed, and adds
/// the result to the cumulative [`StepSummary`] counters. Summed over the
/// samples, the phases equal one [`attribute`] sweep over every span the
/// lane recorded before the last sample.
pub struct LaneSampler {
    tracer: Arc<Tracer>,
    lane: usize,
    /// The tracer is the sampler's own: drain it on every sample, so it
    /// never holds more than one window of spans. Otherwise read past
    /// `cursor` and leave the spans for the trace files.
    owned: bool,
    cursor: usize,
    /// Where the attributed timeline ends; the next window starts here.
    attributed_to: Option<u64>,
    totals: StepSummary,
}

impl LaneSampler {
    /// Sample `lane` of `tracer`; `owned` when nothing else reads the
    /// tracer (it is drained on every sample).
    pub fn new(tracer: Arc<Tracer>, lane: usize, owned: bool) -> Self {
        Self {
            tracer,
            lane,
            owned,
            cursor: 0,
            attributed_to: None,
            totals: StepSummary::default(),
        }
    }

    /// Close the window for `rank` at timestep `step`, whose top was at
    /// `since` on the tracer's clock.
    pub fn sample(&mut self, rank: u32, step: u64, since: u64) -> StepSummary {
        let now = self.tracer.now_ns();
        let spans: Vec<Span> = if self.owned {
            let mut all = self.tracer.drain();
            all.retain(|s| s.worker == self.lane);
            all
        } else {
            let new = self.tracer.lane_since(self.lane, self.cursor);
            self.cursor += new.len();
            new
        };
        let t = &mut self.totals;
        // A receive is a parcel-wait span plus the parcel-recv span that
        // starts where it ends: (peer, arrival) → wait start.
        let mut waits: BTreeMap<(i32, u64), u64> = BTreeMap::new();
        let mut recvs: Vec<(i32, u64, u64)> = Vec::new();
        let mut lane: Vec<(u64, u64, Category)> = Vec::with_capacity(spans.len());
        for s in &spans {
            if s.kind == SpanKind::Parcel {
                if s.label.starts_with("parcel-send-") {
                    t.sent_bytes += s.bytes;
                    t.parcels += 1;
                } else if s.label.starts_with("parcel-recv-") {
                    t.recv_bytes += s.bytes;
                    t.parcels += 1;
                    recvs.push((s.peer, s.start_ns, s.end_ns));
                } else if s.label.starts_with("parcel-wait-") {
                    waits.insert((s.peer, s.end_ns), s.start_ns);
                }
            }
            if let Some(cat) = categorize(s.kind.name(), s.label) {
                lane.push((s.start_ns, s.end_ns, cat));
            }
        }
        let mut lat: Vec<u64> = recvs
            .iter()
            .map(|&(peer, arrival, end)| end - waits.get(&(peer, arrival)).unwrap_or(&arrival))
            .collect();
        lat.sort_unstable();
        let quantile = |q: f64| match lat.len() {
            0 => 0,
            n => lat[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
        };
        let mut waited = 0;
        if let Some(last) = lane.iter().map(|s| s.1).max() {
            let from = self
                .attributed_to
                .unwrap_or_else(|| lane.iter().map(|s| s.0).min().unwrap_or(last));
            let to = last.max(from);
            let b = attribute(&lane, (from, to), |_, start, end, cat| {
                if cat == Category::Wait && end > since {
                    waited += end - start.max(since);
                }
            });
            for (ns, cat) in t.phase_ns.iter_mut().zip(Category::ALL) {
                *ns += b.get(cat);
            }
            self.attributed_to = Some(to);
        }
        StepSummary {
            rank,
            step,
            step_ns: now.saturating_sub(since).saturating_sub(waited),
            lat_p50_ns: quantile(0.5),
            lat_p99_ns: quantile(0.99),
            ..*t
        }
    }
}

// ---------------------------------------------------------------------------
// Straggler detection (rank 0)
// ---------------------------------------------------------------------------

/// EWMA smoothing factor in `(0, 1]`; higher reacts faster.
const ALPHA: f64 = 0.4;
/// Flag threshold: EWMA > `RATIO` x median EWMA.
const RATIO: f64 = 1.5;
/// Consecutive qualifying steps before a flag flips (both ways).
const HYSTERESIS: usize = 2;
/// Absolute EWMA-minus-median floor (ns) below which no rank is flagged,
/// so microsecond-scale jitter on tiny problems stays quiet.
const MIN_GAP_NS: f64 = 500_000.0;

/// Online straggler detector: one EWMA of step time per rank; a rank is
/// flagged when its EWMA exceeds `RATIO` x the median EWMA (and the gap
/// clears the `MIN_GAP_NS` noise floor) for `HYSTERESIS` consecutive
/// observed steps, and unflagged again after the same number of quiet
/// steps.
pub struct StragglerDetector {
    ewma: Vec<f64>,
    above: Vec<usize>,
    below: Vec<usize>,
    flagged: Vec<bool>,
    flagged_steps: Vec<u64>,
    steps: u64,
}

impl StragglerDetector {
    /// A detector for `ranks` ranks, tuned to flag a persistent
    /// straggler within a handful of steps.
    pub fn new(ranks: usize) -> Self {
        StragglerDetector {
            ewma: vec![0.0; ranks],
            above: vec![0; ranks],
            below: vec![0; ranks],
            flagged: vec![false; ranks],
            flagged_steps: vec![0; ranks],
            steps: 0,
        }
    }

    /// Feed one observed step: `step_ns[r]` is rank `r`'s step time.
    /// Returns the currently flagged ranks after the update.
    pub fn observe(&mut self, step_ns: &[u64]) -> Vec<usize> {
        assert_eq!(step_ns.len(), self.ewma.len(), "rank count mismatch");
        let first = self.steps == 0;
        self.steps += 1;
        for (e, &ns) in self.ewma.iter_mut().zip(step_ns.iter()) {
            if first {
                *e = ns as f64;
            } else {
                *e = ALPHA * ns as f64 + (1.0 - ALPHA) * *e;
            }
        }
        let mut sorted: Vec<f64> = self.ewma.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // True median (middle-pair average for even counts): taking the
        // upper middle would make a 2-rank straggler its own baseline.
        let mid = sorted.len() / 2;
        let median = if sorted.len().is_multiple_of(2) {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        } else {
            sorted[mid]
        };
        for r in 0..self.ewma.len() {
            let slow = self.ewma.len() > 1
                && self.ewma[r] > RATIO * median
                && self.ewma[r] - median > MIN_GAP_NS;
            if slow {
                self.above[r] += 1;
                self.below[r] = 0;
                if self.above[r] >= HYSTERESIS {
                    self.flagged[r] = true;
                }
            } else {
                self.below[r] += 1;
                self.above[r] = 0;
                if self.below[r] >= HYSTERESIS {
                    self.flagged[r] = false;
                }
            }
            if self.flagged[r] {
                self.flagged_steps[r] += 1;
            }
        }
        self.stragglers()
    }

    /// Ranks currently flagged as stragglers.
    pub fn stragglers(&self) -> Vec<usize> {
        (0..self.flagged.len())
            .filter(|&r| self.flagged[r])
            .collect()
    }

    /// Human summary table (one row per rank) for the launcher.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "live telemetry: {} rank(s), {} step(s) sampled\n",
            self.ewma.len(),
            self.steps
        ));
        out.push_str("rank  ewma_step_ms  flagged_steps  status\n");
        for r in 0..self.ewma.len() {
            out.push_str(&format!(
                "{:>4}  {:>12.3}  {:>13}  {}\n",
                r,
                self.ewma[r] / 1e6,
                self.flagged_steps[r],
                if self.flagged[r] { "STRAGGLER" } else { "ok" }
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// JSONL emission
// ---------------------------------------------------------------------------

/// Render one `--live-metrics` JSONL line for a telemetry step:
/// schema-versioned, one `per_rank` entry per received [`StepSummary`],
/// the max/median step-time ratio, and the flagged stragglers. Keys are
/// static identifiers, so nothing needs escaping.
pub fn jsonl_step_line(step: u64, summaries: &[StepSummary], stragglers: &[usize]) -> String {
    let mut times: Vec<u64> = summaries.iter().map(|s| s.step_ns).collect();
    times.sort_unstable();
    let median = match times.len() {
        0 => 0,
        n if n % 2 == 0 => (times[n / 2 - 1] + times[n / 2]) / 2,
        n => times[n / 2],
    };
    let max = times.last().copied().unwrap_or(0);
    let ratio = if median > 0 {
        max as f64 / median as f64
    } else {
        1.0
    };
    let mut line = format!(
        "{{\"schema\":{LIVE_SCHEMA_VERSION},\"kind\":\"live\",\"step\":{step},\"ranks\":{},\
         \"max_step_ns\":{max},\"median_step_ns\":{median},\"imbalance\":{ratio:.3},\
         \"stragglers\":[{}],\"per_rank\":[",
        summaries.len(),
        stragglers
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    for (i, s) in summaries.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let phases: Vec<String> = Category::ALL
            .iter()
            .zip(s.phase_ns.iter())
            .filter(|(_, &ns)| ns > 0)
            .map(|(c, &ns)| format!("\"{}\":{}", c.name(), ns))
            .collect();
        line.push_str(&format!(
            "{{\"rank\":{},\"step_ns\":{},\"phases\":{{{}}},\"sent_bytes\":{},\
             \"recv_bytes\":{},\"parcels\":{},\"lat_p50_ns\":{},\"lat_p99_ns\":{}}}",
            s.rank,
            s.step_ns,
            phases.join(","),
            s.sent_bytes,
            s.recv_bytes,
            s.parcels,
            s.lat_p50_ns,
            s.lat_p99_ns
        ));
    }
    line.push_str("]}");
    line
}

/// Where rank 0 sends its live JSONL lines.
pub trait LiveSink: Send + Sync {
    /// Emit one complete JSONL line (no trailing newline).
    fn emit(&self, line: &str);
}

/// Print lines to stdout (the launcher default; JSONL lines start with
/// `{` so they coexist with the CSV report).
pub struct StdoutSink;

impl LiveSink for StdoutSink {
    fn emit(&self, line: &str) {
        println!("{line}");
    }
}

/// Collect lines in memory (driver-level tests).
#[derive(Default)]
pub struct CollectSink {
    lines: Mutex<Vec<String>>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> Self {
        CollectSink::default()
    }

    /// Lines emitted so far.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().clone()
    }
}

impl LiveSink for CollectSink {
    fn emit(&self, line: &str) {
        self.lines.lock().push(line.to_string());
    }
}

/// Live-metrics configuration handed to a driver: sampling period in
/// timesteps (1 = every step) and the rank-0 JSONL sink. The period is
/// part of the protocol — every rank must agree on which steps carry a
/// telemetry parcel — so drivers key it off the shared cycle counter.
#[derive(Clone)]
pub struct LiveConfig {
    /// Sample every `period` timesteps (>= 1).
    pub period: u64,
    /// Rank-0 JSONL output.
    pub sink: Arc<dyn LiveSink>,
    /// Print the human straggler table to stderr when the run ends.
    pub table: bool,
}

impl LiveConfig {
    /// Stdout JSONL every `period` steps, with the end-of-run table.
    pub fn new(period: u64) -> Self {
        LiveConfig {
            period: period.max(1),
            sink: Arc::new(StdoutSink),
            table: true,
        }
    }

    /// Does timestep `cycle` carry a telemetry sample? Pure function of
    /// the shared cycle counter so every rank answers identically.
    pub fn telemetry_step(&self, cycle: u64) -> bool {
        cycle.is_multiple_of(self.period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_summary_roundtrip() {
        let mut s = StepSummary {
            rank: 3,
            step: 17,
            step_ns: 1_234_567,
            sent_bytes: 24,
            recv_bytes: 48,
            parcels: 3,
            lat_p50_ns: 4096,
            lat_p99_ns: 1 << 20,
            ..StepSummary::default()
        };
        s.phase_ns[0] = 1_000_000;
        s.phase_ns[4] = 250_000;
        let enc = s.encode();
        assert_eq!(enc.len(), SUMMARY_ENCODED_LEN);
        assert_eq!(StepSummary::decode(&enc), Some(s));
        assert_eq!(StepSummary::decode(&enc[1..]), None, "wrong length");
        let mut bad = enc.clone();
        bad[0] = 999.0;
        assert_eq!(StepSummary::decode(&bad), None, "wrong schema");
    }

    /// Two sampling windows of hand-placed spans on lane 0. The second
    /// window also carries a transparent `iteration` span reaching back
    /// into the first.
    fn record_window(t: &Tracer, window: usize) {
        if window == 0 {
            t.record_interval(0, SpanKind::Region, "forces", 100, 300);
            t.record_parcel(0, "parcel-send-force-00p", 310, 320, 80, 1);
            t.record_parcel(0, "parcel-wait-force-00m", 330, 400, 0, 1);
            t.record_parcel(0, "parcel-recv-force-00m", 400, 410, 80, 1);
            t.record_interval(0, SpanKind::Halo, "halo-forces", 300, 500);
            t.record_interval(0, SpanKind::Barrier, "barrier-dt", 520, 600);
        } else {
            t.record_interval(0, SpanKind::Region, "iteration", 90, 700);
            t.record_interval(0, SpanKind::Region, "eos", 650, 800);
            t.record_parcel(0, "parcel-wait-dt", 800, 900, 0, 0);
            t.record_parcel(0, "parcel-recv-dt", 900, 905, 24, 0);
        }
    }

    #[test]
    fn sampled_windows_add_up_to_one_attribution_of_the_lane() {
        let mut seen = Vec::new();
        for owned in [false, true] {
            let tracer = Tracer::shared(1);
            let mut sampler = LaneSampler::new(Arc::clone(&tracer), 0, owned);
            let mut samples = Vec::new();
            for (window, since) in [(0, 0), (1, 640)] {
                record_window(&tracer, window);
                let before = tracer.now_ns();
                let s = sampler.sample(2, window as u64 + 1, since);
                let after = tracer.now_ns();
                // Wall time since the top of the step less the wait in it
                // (the force receive, then the dt receive).
                let wait = [80, 105][window];
                assert!(s.step_ns + wait + since >= before && s.step_ns + wait + since <= after);
                // An owned tracer is drained; a shared one keeps its spans.
                let left = tracer.lane_since(0, 0).len();
                assert_eq!(left, if owned { 0 } else { [6, 10][window] });
                samples.push(s);
            }
            let (first, last) = (samples[0], samples[1]);
            assert_eq!((first.lat_p50_ns, first.lat_p99_ns), (80, 80));
            assert_eq!((last.lat_p50_ns, last.lat_p99_ns), (105, 105));
            assert_eq!(
                (last.sent_bytes, last.recv_bytes, last.parcels),
                (80, 104, 3)
            );
            seen.push(StepSummary { step_ns: 0, ..last });
        }
        assert_eq!(seen[0], seen[1], "owned and shared tracers sample alike");

        // The cumulative phases are one sweep over both windows' spans.
        let tracer = Tracer::new(1);
        record_window(&tracer, 0);
        record_window(&tracer, 1);
        let lane: Vec<(u64, u64, Category)> = tracer
            .drain()
            .iter()
            .filter_map(|s| Some((s.start_ns, s.end_ns, categorize(s.kind.name(), s.label)?)))
            .collect();
        let whole = attribute(&lane, (100, 905), |_, _, _, _| {});
        let phases: [u64; NCAT] = Category::ALL.map(|c| whole.get(c));
        assert_eq!(seen[0].phase_ns, phases);
        assert_eq!(
            (whole.busy_ns, whole.pack_ns, whole.send_ns, whole.wait_ns),
            (350, 110, 10, 185)
        );
        assert_eq!((whole.barrier_ns, whole.idle_ns), (80, 70));
    }

    #[test]
    fn detector_flags_persistent_straggler_with_hysteresis() {
        let mut d = StragglerDetector::new(4);
        // Step 1: rank 2 slow, but hysteresis = 2 keeps it unflagged.
        let flagged = d.observe(&[1_000_000, 1_000_000, 20_000_000, 1_000_000]);
        assert!(flagged.is_empty(), "one step must not flag (hysteresis)");
        // Step 2: still slow -> flagged.
        let flagged = d.observe(&[1_000_000, 1_100_000, 21_000_000, 900_000]);
        assert_eq!(flagged, vec![2]);
        // Recovery: needs two quiet steps (EWMA also has to decay).
        let mut quiet = 0;
        for _ in 0..12 {
            let f = d.observe(&[1_000_000, 1_000_000, 1_000_000, 1_000_000]);
            if f.is_empty() {
                quiet += 1;
            }
        }
        assert!(quiet > 0, "straggler must eventually unflag");
        assert!(d.summary_table().contains("rank"));
    }

    #[test]
    fn detector_ignores_microsecond_jitter() {
        let mut d = StragglerDetector::new(3);
        for _ in 0..10 {
            // 3x ratio but far below the 0.5 ms noise floor.
            assert!(d.observe(&[10_000, 10_000, 30_000]).is_empty());
        }
    }

    #[test]
    fn jsonl_line_is_valid_json_with_expected_fields() {
        let mut a = StepSummary {
            step: 7,
            step_ns: 2_000_000,
            ..StepSummary::default()
        };
        a.phase_ns[0] = 123;
        let b = StepSummary {
            rank: 1,
            step_ns: 3_000_000,
            ..a
        };
        let line = jsonl_step_line(7, &[a, b], &[1]);
        let v = crate::jsonlint::parse(&line).expect("live JSONL line must be strict JSON");
        assert_eq!(v.get("kind").and_then(|k| k.str()), Some("live"));
        assert_eq!(v.get("step").and_then(|s| s.num()), Some(7.0));
        assert_eq!(v.get("ranks").and_then(|s| s.num()), Some(2.0));
        assert_eq!(
            v.get("stragglers").and_then(|s| s.arr()).map(|a| a.len()),
            Some(1)
        );
        assert_eq!(
            v.get("per_rank").and_then(|s| s.arr()).map(|a| a.len()),
            Some(2)
        );
    }
}
