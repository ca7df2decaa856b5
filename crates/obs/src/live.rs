//! Live in-band telemetry plane: always-on per-rank counters sampled per
//! timestep, streamed to rank 0 over the dt-allreduce star, plus an
//! online straggler detector.
//!
//! Unlike [`crate::Tracer`] (one span per task, drained post-mortem),
//! everything here is sized for *steady-state* use inside the job:
//! lock-free counters and log2-bucketed histograms that a driver samples
//! once per timestep, a compact [`StepSummary`] wire encoding that rides
//! the existing dt reduction (no extra sync points), and an EWMA-based
//! [`StragglerDetector`] with hysteresis on rank 0. The counters are fed
//! by the same hooks and clock reads as the tracer's spans (a rank's one
//! recorder), so a traced run never times an event twice; the post-mortem
//! of a failed rank is its spans file.

use crate::dist::Category;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Schema version stamped on every `--live-metrics` JSONL line and on
/// the [`StepSummary`] wire encoding.
pub const LIVE_SCHEMA_VERSION: u64 = 3;

/// Number of taxonomy phases in a [`StepSummary`] (the Schulz
/// categories, in [`Category::ALL`] order).
pub const NCAT: usize = Category::ALL.len();

/// Parcel tag classes tracked per rank: one counter slot per logical
/// tag family rather than per 27-direction tag, so the table stays flat.
pub const TAG_CLASSES: [&str; 7] = [
    "mass",
    "force",
    "gradient",
    "dt",
    "bye",
    "clock",
    "telemetry",
];

/// Number of tag classes in [`TAG_CLASSES`].
pub const NTAG: usize = TAG_CLASSES.len();

// ---------------------------------------------------------------------------
// Log2-bucketed histogram
// ---------------------------------------------------------------------------

/// Number of buckets in [`Hist`]: bucket 0 holds zeros, bucket `i >= 1`
/// holds values in `[2^(i-1), 2^i)`.
pub const HIST_BUCKETS: usize = 65;

/// A mergeable log2-bucketed histogram of `u64` samples (nanoseconds,
/// bytes). Recording is O(1); [`Hist::quantile`] answers with a factor-2
/// relative-error bound, which is plenty for live dashboards.
#[derive(Clone, PartialEq, Eq)]
pub struct Hist {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Hist(count={}, sum={})", self.count, self.sum)
    }
}

fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Hist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Fold `other` into `self`. Merging is commutative and associative
    /// (bucket-wise addition), so per-rank histograms can be combined in
    /// any order on rank 0.
    pub fn merge(&mut self, other: &Hist) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The `q`-quantile (`0.0..=1.0`) as the *lower bound* of the bucket
    /// holding the `ceil(q * count)`-th smallest sample, so the true
    /// sample `v` satisfies `quantile(q) <= v < 2 * quantile(q)` — a
    /// factor-2 relative-error bound. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return if i == 0 { 0 } else { 1u64 << (i - 1) };
            }
        }
        1u64 << 63
    }
}

/// A lock-free log2-bucketed histogram sharing [`Hist`]'s layout;
/// recorded with relaxed atomics from transport/driver threads and
/// snapshotted once per timestep.
pub struct AtomicHist {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for AtomicHist {
    fn default() -> Self {
        AtomicHist::new()
    }
}

impl AtomicHist {
    /// An empty histogram.
    pub fn new() -> Self {
        AtomicHist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one sample (relaxed; counts, not synchronization).
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the current bucket counts into a mergeable [`Hist`].
    pub fn snapshot(&self) -> Hist {
        let mut h = Hist::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            h.buckets[i] = n;
            h.count += n;
            // The sum is approximated from bucket lower bounds; live
            // consumers only read quantiles, which are exact w.r.t. the
            // bucket counts.
            if i > 0 {
                h.sum = h.sum.saturating_add(n.saturating_mul(1u64 << (i - 1)));
            }
        }
        h
    }
}

// ---------------------------------------------------------------------------
// Per-rank live counters
// ---------------------------------------------------------------------------

/// Per-rank always-on counters: phase nanoseconds per Schulz category,
/// parcel bytes/count per tag class in each direction, receive-wait
/// latency histograms per tag class. Everything is a relaxed atomic so
/// transports and the driver can write concurrently; the driver reads a
/// [`StepSummary`] snapshot once per timestep.
#[derive(Default)]
pub struct LiveStats {
    phase_ns: [AtomicU64; NCAT],
    sent_bytes: [AtomicU64; NTAG],
    sent_count: [AtomicU64; NTAG],
    recv_bytes: [AtomicU64; NTAG],
    recv_count: [AtomicU64; NTAG],
    latency: [AtomicHist; NTAG],
}

impl LiveStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        LiveStats::default()
    }

    /// Accumulate `ns` of phase time under `cat`.
    pub fn add_phase(&self, cat: Category, ns: u64) {
        let idx = Category::ALL.iter().position(|c| *c == cat).unwrap_or(0);
        self.phase_ns[idx].fetch_add(ns, Ordering::Relaxed);
    }

    /// Record an outbound parcel of `bytes` under tag class `class`
    /// (an index into [`TAG_CLASSES`]; out-of-range is clamped).
    pub fn on_send(&self, class: usize, bytes: u64) {
        let c = class.min(NTAG - 1);
        self.sent_bytes[c].fetch_add(bytes, Ordering::Relaxed);
        self.sent_count[c].fetch_add(1, Ordering::Relaxed);
    }

    /// Record an inbound parcel of `bytes` under tag class `class` whose
    /// blocking receive took `wait_ns`. The wait also lands in the `Wait`
    /// phase bucket: time blocked on a peer is the complement of busy
    /// time, and subtracting it from wall time is what lets the straggler
    /// detector tell a slow rank from the fast ranks stalled behind it. A
    /// phase that encloses receives must add only its time *outside* them
    /// (see [`wait_ns`](Self::wait_ns)), so no nanosecond lands twice.
    pub fn on_recv(&self, class: usize, bytes: u64, wait_ns: u64) {
        let c = class.min(NTAG - 1);
        self.recv_bytes[c].fetch_add(bytes, Ordering::Relaxed);
        self.recv_count[c].fetch_add(1, Ordering::Relaxed);
        self.latency[c].record(wait_ns);
        self.add_phase(Category::Wait, wait_ns);
    }

    /// Cumulative nanoseconds blocked in transport receives (the `Wait`
    /// phase bucket the transports feed via [`on_recv`](Self::on_recv)).
    pub fn wait_ns(&self) -> u64 {
        let idx = Category::ALL
            .iter()
            .position(|c| *c == Category::Wait)
            .unwrap_or(0);
        self.phase_ns[idx].load(Ordering::Relaxed)
    }

    /// Snapshot the cumulative counters into a [`StepSummary`] for
    /// `rank` at timestep `step`, whose last step took `step_ns`.
    pub fn snapshot(&self, rank: u32, step: u64, step_ns: u64) -> StepSummary {
        let load = |a: &[AtomicU64; NTAG]| -> [u64; NTAG] {
            std::array::from_fn(|i| a[i].load(Ordering::Relaxed))
        };
        let mut lat = Hist::new();
        for h in &self.latency {
            lat.merge(&h.snapshot());
        }
        StepSummary {
            rank,
            step,
            step_ns,
            phase_ns: std::array::from_fn(|i| self.phase_ns[i].load(Ordering::Relaxed)),
            sent_bytes: load(&self.sent_bytes),
            sent_count: load(&self.sent_count),
            recv_bytes: load(&self.recv_bytes),
            recv_count: load(&self.recv_count),
            lat_p50_ns: lat.quantile(0.5),
            lat_p99_ns: lat.quantile(0.99),
        }
    }
}

// ---------------------------------------------------------------------------
// Wire encoding
// ---------------------------------------------------------------------------

/// One rank's per-timestep telemetry sample. Counters are *cumulative*
/// since rank start (monotonic), so a dropped sample never corrupts
/// rates computed downstream; `step_ns` is the duration of the step the
/// sample closes. Encodes to a flat `f64` vector (every field is far
/// below 2^53, so the round-trip is exact) for the `Tag::Telemetry`
/// parcel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepSummary {
    /// Originating rank.
    pub rank: u32,
    /// Timestep index the sample closes.
    pub step: u64,
    /// Nanoseconds this rank spent *driving* the step: wall time minus
    /// time blocked waiting on peers — the straggler-detection signal (a
    /// rank stalled behind a slow neighbour reports near zero; the slow
    /// rank itself reports its full step).
    pub step_ns: u64,
    /// Cumulative phase nanoseconds, in [`Category::ALL`] order.
    pub phase_ns: [u64; NCAT],
    /// Cumulative outbound bytes per tag class.
    pub sent_bytes: [u64; NTAG],
    /// Cumulative outbound parcel count per tag class.
    pub sent_count: [u64; NTAG],
    /// Cumulative inbound bytes per tag class.
    pub recv_bytes: [u64; NTAG],
    /// Cumulative inbound parcel count per tag class.
    pub recv_count: [u64; NTAG],
    /// p50 receive-wait latency over all tag classes, ns (factor-2 bound).
    pub lat_p50_ns: u64,
    /// p99 receive-wait latency over all tag classes, ns (factor-2 bound).
    pub lat_p99_ns: u64,
}

/// Length of [`StepSummary::encode`]'s output.
pub const SUMMARY_ENCODED_LEN: usize = 1 + 3 + NCAT + 4 * NTAG + 2;

impl StepSummary {
    /// Flatten into `f64`s for the telemetry parcel.
    pub fn encode(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(SUMMARY_ENCODED_LEN);
        v.push(LIVE_SCHEMA_VERSION as f64);
        v.push(self.rank as f64);
        v.push(self.step as f64);
        v.push(self.step_ns as f64);
        v.extend(self.phase_ns.iter().map(|&x| x as f64));
        v.extend(self.sent_bytes.iter().map(|&x| x as f64));
        v.extend(self.sent_count.iter().map(|&x| x as f64));
        v.extend(self.recv_bytes.iter().map(|&x| x as f64));
        v.extend(self.recv_count.iter().map(|&x| x as f64));
        v.push(self.lat_p50_ns as f64);
        v.push(self.lat_p99_ns as f64);
        v
    }

    /// Inverse of [`StepSummary::encode`]; `None` on a wrong length or
    /// schema version (a peer running a different build).
    pub fn decode(p: &[f64]) -> Option<StepSummary> {
        if p.len() != SUMMARY_ENCODED_LEN || p[0] as u64 != LIVE_SCHEMA_VERSION {
            return None;
        }
        let mut it = p[1..].iter().copied();
        let mut next = || it.next().unwrap_or(0.0) as u64;
        let rank = next() as u32;
        let step = next();
        let step_ns = next();
        let phase_ns = std::array::from_fn(|_| next());
        let sent_bytes = std::array::from_fn(|_| next());
        let sent_count = std::array::from_fn(|_| next());
        let recv_bytes = std::array::from_fn(|_| next());
        let recv_count = std::array::from_fn(|_| next());
        Some(StepSummary {
            rank,
            step,
            step_ns,
            phase_ns,
            sent_bytes,
            sent_count,
            recv_bytes,
            recv_count,
            lat_p50_ns: next(),
            lat_p99_ns: next(),
        })
    }

    /// Total cumulative outbound bytes over every tag class.
    pub fn total_sent_bytes(&self) -> u64 {
        self.sent_bytes.iter().sum()
    }

    /// Total cumulative inbound bytes over every tag class.
    pub fn total_recv_bytes(&self) -> u64 {
        self.recv_bytes.iter().sum()
    }
}

// ---------------------------------------------------------------------------
// Straggler detection (rank 0)
// ---------------------------------------------------------------------------

/// Online straggler detector: one EWMA of step time per rank; a rank is
/// flagged when its EWMA exceeds `ratio` x the median EWMA (and the gap
/// clears an absolute noise floor) for `hysteresis` consecutive observed
/// steps, and unflagged again after the same number of quiet steps.
pub struct StragglerDetector {
    /// EWMA smoothing factor in `(0, 1]`; higher reacts faster.
    pub alpha: f64,
    /// Flag threshold: EWMA > `ratio` x median EWMA.
    pub ratio: f64,
    /// Consecutive qualifying steps before a flag flips (both ways).
    pub hysteresis: usize,
    /// Absolute EWMA-minus-median floor (ns) below which no rank is
    /// flagged, so microsecond-scale jitter on tiny problems stays quiet.
    pub min_gap_ns: f64,
    ewma: Vec<f64>,
    above: Vec<usize>,
    below: Vec<usize>,
    flagged: Vec<bool>,
    flagged_steps: Vec<u64>,
    steps: u64,
}

impl StragglerDetector {
    /// A detector for `ranks` ranks with defaults tuned to flag a
    /// persistent straggler within a handful of steps: `alpha` 0.4,
    /// `ratio` 1.5, `hysteresis` 2, 0.5 ms noise floor.
    pub fn new(ranks: usize) -> Self {
        StragglerDetector {
            alpha: 0.4,
            ratio: 1.5,
            hysteresis: 2,
            min_gap_ns: 500_000.0,
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
                *e = self.alpha * ns as f64 + (1.0 - self.alpha) * *e;
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
                && self.ewma[r] > self.ratio * median
                && self.ewma[r] - median > self.min_gap_ns;
            if slow {
                self.above[r] += 1;
                self.below[r] = 0;
                if self.above[r] >= self.hysteresis {
                    self.flagged[r] = true;
                }
            } else {
                self.below[r] += 1;
                self.above[r] = 0;
                if self.below[r] >= self.hysteresis {
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

    /// Current EWMA step time of `rank`, ns.
    pub fn ewma_ns(&self, rank: usize) -> f64 {
        self.ewma[rank]
    }

    /// Steps observed so far.
    pub fn steps(&self) -> u64 {
        self.steps
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
            s.total_sent_bytes(),
            s.total_recv_bytes(),
            s.sent_count.iter().sum::<u64>() + s.recv_count.iter().sum::<u64>(),
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

    fn hist_of(samples: &[u64]) -> Hist {
        let mut h = Hist::new();
        for &s in samples {
            h.record(s);
        }
        h
    }

    #[test]
    fn hist_quantile_relative_error_bound() {
        // For any sample set and quantile, the estimate e must satisfy
        // e <= v < 2e (or v == e == 0) where v is the selected sample.
        let sets: [&[u64]; 5] = [
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
            &[1_000_000; 32],
            &[1, 1 << 20, 1 << 40, u64::MAX],
            &[3, 5, 9, 17, 33, 65, 129, 257],
            &[42],
        ];
        for samples in sets {
            let mut sorted = samples.to_vec();
            sorted.sort_unstable();
            let h = hist_of(samples);
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let est = h.quantile(q);
                let idx = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
                let v = sorted[idx];
                if v == 0 {
                    assert_eq!(est, 0, "q={q} samples={samples:?}");
                } else {
                    assert!(
                        est <= v && (est >= v / 2 + u64::from(v % 2 != 0)),
                        "q={q}: est {est} not within factor 2 below {v} ({samples:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn hist_merge_commutative_and_associative() {
        let a = hist_of(&[1, 5, 1000, 1 << 30]);
        let b = hist_of(&[0, 0, 7, 250, 1 << 50]);
        let c = hist_of(&[3, 3, 3]);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge must be associative");
        assert_eq!(ab_c.count(), 12);
    }

    #[test]
    fn atomic_hist_snapshot_matches_plain_counts() {
        let ah = AtomicHist::new();
        for v in [0u64, 1, 2, 1000, 1 << 40] {
            ah.record(v);
        }
        let snap = ah.snapshot();
        let plain = hist_of(&[0, 1, 2, 1000, 1 << 40]);
        assert_eq!(snap.buckets, plain.buckets);
        assert_eq!(snap.count(), 5);
        // Quantiles agree exactly: they only read bucket counts.
        for q in [0.1, 0.5, 0.9] {
            assert_eq!(snap.quantile(q), plain.quantile(q));
        }
    }

    #[test]
    fn step_summary_roundtrip() {
        let mut s = StepSummary {
            rank: 3,
            step: 17,
            step_ns: 1_234_567,
            phase_ns: [0; NCAT],
            sent_bytes: [0; NTAG],
            sent_count: [0; NTAG],
            recv_bytes: [0; NTAG],
            recv_count: [0; NTAG],
            lat_p50_ns: 4096,
            lat_p99_ns: 1 << 20,
        };
        s.phase_ns[0] = 1_000_000;
        s.phase_ns[4] = 250_000;
        s.sent_bytes[3] = 24;
        s.sent_count[3] = 1;
        s.recv_bytes[3] = 24;
        s.recv_count[3] = 1;
        let enc = s.encode();
        assert_eq!(enc.len(), SUMMARY_ENCODED_LEN);
        assert_eq!(StepSummary::decode(&enc), Some(s));
        assert_eq!(StepSummary::decode(&enc[1..]), None, "wrong length");
        let mut bad = enc.clone();
        bad[0] = 999.0;
        assert_eq!(StepSummary::decode(&bad), None, "wrong schema");
    }

    #[test]
    fn live_stats_snapshot_accumulates() {
        let st = LiveStats::new();
        st.add_phase(Category::Busy, 100);
        st.add_phase(Category::Busy, 50);
        st.add_phase(Category::Barrier, 10);
        st.on_send(3, 24);
        st.on_recv(3, 24, 5_000);
        let s = st.snapshot(1, 4, 999);
        assert_eq!(s.rank, 1);
        assert_eq!(s.step, 4);
        assert_eq!(s.phase_ns[0], 150);
        assert_eq!(s.phase_ns[4], 10);
        assert_eq!(s.sent_bytes[3], 24);
        assert_eq!(s.recv_count[3], 1);
        assert_eq!(st.wait_ns(), 5_000);
        assert!(s.lat_p50_ns >= 2048 && s.lat_p50_ns <= 5_000);
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
        let st = LiveStats::new();
        st.add_phase(Category::Busy, 123);
        let a = st.snapshot(0, 7, 2_000_000);
        let b = st.snapshot(1, 7, 3_000_000);
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
