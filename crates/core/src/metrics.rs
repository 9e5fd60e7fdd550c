//! Scrapeable serve-mode metrics: per-verb latency histograms over
//! fixed log-scale buckets, queue/worker gauges, and a Prometheus-style
//! text exposition.
//!
//! The daemon (`crate::serve`) keeps one [`ServeMetrics`] per server.
//! Connection workers record a [`Verb`] + latency observation per
//! dispatched request; the accept loop moves the queue gauges and the
//! backpressure counters. Everything is a plain atomic — recording a
//! request costs a few relaxed adds, never a lock — and the `METRICS`
//! verb renders the whole registry with [`ServeMetrics::render`], adding
//! whatever store-level counters the daemon supplies as
//! [`ExtraMetric`]s.
//!
//! The exposition follows the Prometheus text format (`# HELP` /
//! `# TYPE` headers; `_bucket{le="…"}`, `_sum`, `_count` histogram
//! series with cumulative buckets), so standard scrapers parse it
//! as-is. Bucket bounds are fixed at powers of 4 from 1 µs to ~262 ms
//! plus `+Inf`: warm cache hits land in the first buckets, cold `LOAD`s
//! in the last ones, and the fixed bounds keep every scrape comparable
//! with every other.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Histogram bucket upper bounds, in microseconds: powers of 4 from
/// 1 µs to ~262 ms. Observations beyond the last bound land in the
/// implicit `+Inf` bucket.
pub const BUCKET_BOUNDS_MICROS: [u64; 10] =
    [1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144];

/// A fixed-bucket latency histogram; recording is lock-free.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    /// Non-cumulative per-bucket counts, one slot per bound plus the
    /// trailing `+Inf` overflow slot; rendered cumulatively.
    buckets: [AtomicU64; BUCKET_BOUNDS_MICROS.len() + 1],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn observe(&self, latency: Duration) {
        let micros = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let slot = BUCKET_BOUNDS_MICROS
            .iter()
            .position(|&bound| micros <= bound)
            .unwrap_or(BUCKET_BOUNDS_MICROS.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded latencies, in microseconds.
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed)
    }

    /// Cumulative bucket counts in bound order, the `+Inf` bucket last
    /// (equal to [`count`](Self::count) modulo in-flight updates).
    pub fn cumulative(&self) -> [u64; BUCKET_BOUNDS_MICROS.len() + 1] {
        let mut out = [0u64; BUCKET_BOUNDS_MICROS.len() + 1];
        let mut running = 0u64;
        for (slot, bucket) in self.buckets.iter().enumerate() {
            running += bucket.load(Ordering::Relaxed);
            out[slot] = running;
        }
        out
    }
}

/// The request verbs the daemon distinguishes in its metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// `LOAD`
    Load,
    /// `RELOAD`
    Reload,
    /// `ANALYZE`
    Analyze,
    /// `EVAL`
    Eval,
    /// `INJECT`
    Inject,
    /// `SWEEP`
    Sweep,
    /// `HUNT`
    Hunt,
    /// `MONITOR`
    Monitor,
    /// `EVENT`
    Event,
    /// `STATS`
    Stats,
    /// `METRICS`
    Metrics,
    /// `SHUTDOWN`
    Shutdown,
    /// Anything unrecognized (dispatch answers `ERR`).
    Other,
}

impl Verb {
    /// Every verb, in the order the exposition lists them.
    pub const ALL: [Verb; 13] = [
        Verb::Load,
        Verb::Reload,
        Verb::Analyze,
        Verb::Eval,
        Verb::Inject,
        Verb::Sweep,
        Verb::Hunt,
        Verb::Monitor,
        Verb::Event,
        Verb::Stats,
        Verb::Metrics,
        Verb::Shutdown,
        Verb::Other,
    ];

    /// The `verb=` label value.
    pub fn label(self) -> &'static str {
        match self {
            Verb::Load => "load",
            Verb::Reload => "reload",
            Verb::Analyze => "analyze",
            Verb::Eval => "eval",
            Verb::Inject => "inject",
            Verb::Sweep => "sweep",
            Verb::Hunt => "hunt",
            Verb::Monitor => "monitor",
            Verb::Event => "event",
            Verb::Stats => "stats",
            Verb::Metrics => "metrics",
            Verb::Shutdown => "shutdown",
            Verb::Other => "other",
        }
    }

    /// Classifies the first token of a request line.
    pub fn of_command(cmd: &str) -> Verb {
        match cmd {
            "LOAD" => Verb::Load,
            "RELOAD" => Verb::Reload,
            "ANALYZE" => Verb::Analyze,
            "EVAL" => Verb::Eval,
            "INJECT" => Verb::Inject,
            "SWEEP" => Verb::Sweep,
            "HUNT" => Verb::Hunt,
            "MONITOR" => Verb::Monitor,
            "EVENT" => Verb::Event,
            "STATS" => Verb::Stats,
            "METRICS" => Verb::Metrics,
            "SHUTDOWN" => Verb::Shutdown,
            _ => Verb::Other,
        }
    }

    fn index(self) -> usize {
        Verb::ALL
            .iter()
            .position(|&v| v == self)
            .expect("every verb is in ALL")
    }
}

/// Whether an [`ExtraMetric`] renders as a `counter` or a `gauge`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing.
    Counter,
    /// Point-in-time value.
    Gauge,
}

/// One single-valued metric the daemon appends to the exposition
/// (session counts, cache sizes, store-level counters).
#[derive(Clone, Copy, Debug)]
pub struct ExtraMetric {
    /// Full metric name (`atl_serve_…`).
    pub name: &'static str,
    /// One-line `# HELP` text.
    pub help: &'static str,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Current value.
    pub value: u64,
}

/// The daemon's metric registry: one latency histogram per [`Verb`],
/// accept-queue gauges, and backpressure counters.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    verbs: [LatencyHistogram; Verb::ALL.len()],
    /// Connections waiting in the accept queue right now.
    queue_depth: AtomicU64,
    /// High-water mark of `queue_depth`.
    queue_depth_peak: AtomicU64,
    /// Connection workers currently handling a connection.
    busy_workers: AtomicU64,
    /// High-water mark of `busy_workers` — a bounded pool can never push
    /// this above its configured width.
    busy_workers_peak: AtomicU64,
    /// Connections refused with `ERR busy` because the queue was full.
    rejected: AtomicU64,
    /// Connections answered `ERR shutting down` after the shutdown flag
    /// was raised (accepted-but-unserved, including queued ones).
    shutdown_refused: AtomicU64,
}

impl ServeMetrics {
    /// An empty registry.
    pub fn new() -> Self {
        ServeMetrics::default()
    }

    /// Records one dispatched request.
    pub fn observe(&self, verb: Verb, latency: Duration) {
        self.verbs[verb.index()].observe(latency);
    }

    /// The latency histogram for `verb`.
    pub fn histogram(&self, verb: Verb) -> &LatencyHistogram {
        &self.verbs[verb.index()]
    }

    /// Records the accept queue's depth after a push or pop, and tracks
    /// its peak. The queue calls this under its own lock with its exact
    /// length, so the gauge is an observation, never a running sum: it
    /// cannot wrap below zero, never exceeds the queue's capacity, and
    /// reads zero whenever the queue is empty.
    pub fn record_queue_depth(&self, depth: usize) {
        let depth = depth as u64;
        self.queue_depth.store(depth, Ordering::SeqCst);
        self.queue_depth_peak.fetch_max(depth, Ordering::SeqCst);
    }

    /// Connections waiting in the accept queue right now.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::SeqCst)
    }

    /// High-water mark of the accept-queue depth.
    pub fn queue_depth_peak(&self) -> u64 {
        self.queue_depth_peak.load(Ordering::SeqCst)
    }

    /// Records a worker picking up a connection (gauge up, peak
    /// tracked). Each worker brackets one connection with this and
    /// [`worker_idle`](Self::worker_idle) on its own thread, so the
    /// increment always precedes its decrement and the gauge can never
    /// wrap.
    pub fn worker_busy(&self) {
        let busy = self.busy_workers.fetch_add(1, Ordering::SeqCst) + 1;
        self.busy_workers_peak.fetch_max(busy, Ordering::SeqCst);
    }

    /// Records a worker finishing its connection.
    pub fn worker_idle(&self) {
        self.busy_workers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Connection workers handling a connection right now.
    pub fn busy_workers(&self) -> u64 {
        self.busy_workers.load(Ordering::SeqCst)
    }

    /// High-water mark of concurrently busy workers.
    pub fn busy_workers_peak(&self) -> u64 {
        self.busy_workers_peak.load(Ordering::SeqCst)
    }

    /// Records one `ERR busy` rejection.
    pub fn rejected(&self) {
        self.rejected.fetch_add(1, Ordering::SeqCst);
    }

    /// Connections refused with `ERR busy` so far.
    pub fn rejected_total(&self) -> u64 {
        self.rejected.load(Ordering::SeqCst)
    }

    /// Records one `ERR shutting down` response to an accepted-but-
    /// unserved connection.
    pub fn shutdown_refused(&self) {
        self.shutdown_refused.fetch_add(1, Ordering::SeqCst);
    }

    /// Connections answered `ERR shutting down` so far.
    pub fn shutdown_refused_total(&self) -> u64 {
        self.shutdown_refused.load(Ordering::SeqCst)
    }

    /// Renders the full registry plus `extras` as Prometheus text
    /// exposition. Deterministic ordering: request counters, latency
    /// histograms (verbs in [`Verb::ALL`] order), the registry's own
    /// gauges/counters, then `extras` in the given order.
    pub fn render(&self, extras: &[ExtraMetric]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();

        out.push_str("# HELP atl_serve_requests_total Requests dispatched, by verb.\n");
        out.push_str("# TYPE atl_serve_requests_total counter\n");
        for verb in Verb::ALL {
            let _ = writeln!(
                out,
                "atl_serve_requests_total{{verb=\"{}\"}} {}",
                verb.label(),
                self.histogram(verb).count()
            );
        }

        out.push_str(
            "# HELP atl_serve_request_duration_seconds Request latency from dispatch to \
             response assembly, by verb.\n",
        );
        out.push_str("# TYPE atl_serve_request_duration_seconds histogram\n");
        for verb in Verb::ALL {
            let hist = self.histogram(verb);
            let cumulative = hist.cumulative();
            for (slot, &bound) in BUCKET_BOUNDS_MICROS.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "atl_serve_request_duration_seconds_bucket{{verb=\"{}\",le=\"{}\"}} {}",
                    verb.label(),
                    bound as f64 / 1e6,
                    cumulative[slot]
                );
            }
            let _ = writeln!(
                out,
                "atl_serve_request_duration_seconds_bucket{{verb=\"{}\",le=\"+Inf\"}} {}",
                verb.label(),
                cumulative[BUCKET_BOUNDS_MICROS.len()]
            );
            let _ = writeln!(
                out,
                "atl_serve_request_duration_seconds_sum{{verb=\"{}\"}} {}",
                verb.label(),
                hist.sum_micros() as f64 / 1e6
            );
            let _ = writeln!(
                out,
                "atl_serve_request_duration_seconds_count{{verb=\"{}\"}} {}",
                verb.label(),
                hist.count()
            );
        }

        let own: [ExtraMetric; 6] = [
            ExtraMetric {
                name: "atl_serve_queue_depth",
                help: "Connections waiting in the accept queue.",
                kind: MetricKind::Gauge,
                value: self.queue_depth(),
            },
            ExtraMetric {
                name: "atl_serve_queue_depth_peak",
                help: "High-water mark of the accept-queue depth.",
                kind: MetricKind::Gauge,
                value: self.queue_depth_peak(),
            },
            ExtraMetric {
                name: "atl_serve_busy_workers",
                help: "Connection workers currently handling a connection.",
                kind: MetricKind::Gauge,
                value: self.busy_workers(),
            },
            ExtraMetric {
                name: "atl_serve_busy_workers_peak",
                help: "High-water mark of concurrently busy connection workers.",
                kind: MetricKind::Gauge,
                value: self.busy_workers_peak(),
            },
            ExtraMetric {
                name: "atl_serve_rejected_total",
                help: "Connections refused with ERR busy (accept queue full).",
                kind: MetricKind::Counter,
                value: self.rejected_total(),
            },
            ExtraMetric {
                name: "atl_serve_shutdown_refused_total",
                help: "Connections answered ERR shutting down during wind-down.",
                kind: MetricKind::Counter,
                value: self.shutdown_refused_total(),
            },
        ];
        for metric in own.iter().chain(extras) {
            let kind = match metric.kind {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
            };
            let _ = writeln!(out, "# HELP {} {}", metric.name, metric.help);
            let _ = writeln!(out, "# TYPE {} {}", metric.name, kind);
            let _ = writeln!(out, "{} {}", metric.name, metric.value);
        }
        out
    }
}

/// Checks that `text` is well-formed Prometheus text exposition, as far
/// as this crate needs: every line is a comment or a
/// `name[{labels}] value` sample with a parseable float value, every
/// sample's name was declared by a preceding `# TYPE` line, and
/// histogram `_bucket` series are cumulative in `le` order. Returns the
/// number of samples.
///
/// # Errors
///
/// A one-line description of the first malformed line.
pub fn check_exposition(text: &str) -> Result<usize, String> {
    let mut declared: Vec<&str> = Vec::new();
    let mut samples = 0usize;
    let mut last_bucket: Option<(String, u64)> = None;
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.is_empty() {
            return Err(format!("line {ln}: empty line"));
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let name = decl
                    .split_whitespace()
                    .next()
                    .ok_or(format!("line {ln}: TYPE without a name"))?;
                declared.push(name);
            } else if !rest.starts_with("HELP ") {
                return Err(format!("line {ln}: unknown comment {line:?}"));
            }
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or(format!("line {ln}: no value in {line:?}"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {ln}: bad value in {line:?}"))?;
        let name = series.split('{').next().unwrap_or(series);
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|base| declared.contains(base))
            .unwrap_or(name);
        if !declared.contains(&base) {
            return Err(format!("line {ln}: undeclared metric {name:?}"));
        }
        if name.ends_with("_bucket") {
            let series_key: String = series.split(",le=").next().unwrap_or(series).to_string();
            let cumulative = value as u64;
            if let Some((prev_key, prev)) = &last_bucket {
                if *prev_key == series_key && cumulative < *prev {
                    return Err(format!("line {ln}: bucket counts not cumulative"));
                }
            }
            last_bucket = Some((series_key, cumulative));
        } else {
            last_bucket = None;
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples in exposition".to_string());
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log_scale_and_cumulative() {
        let hist = LatencyHistogram::default();
        hist.observe(Duration::from_micros(1)); // first bucket (≤ 1 µs)
        hist.observe(Duration::from_micros(3)); // second (≤ 4 µs)
        hist.observe(Duration::from_micros(5)); // third (≤ 16 µs)
        hist.observe(Duration::from_secs(10)); // beyond every bound: +Inf
        assert_eq!(hist.count(), 4);
        let cumulative = hist.cumulative();
        assert_eq!(cumulative[0], 1);
        assert_eq!(cumulative[1], 2);
        assert_eq!(cumulative[2], 3);
        // Every later finite bucket stays at 3; +Inf catches the 10 s.
        assert!(cumulative[3..BUCKET_BOUNDS_MICROS.len()]
            .iter()
            .all(|&c| c == 3));
        assert_eq!(cumulative[BUCKET_BOUNDS_MICROS.len()], 4);
        assert_eq!(hist.sum_micros(), 1 + 3 + 5 + 10_000_000);
    }

    #[test]
    fn verb_classification_covers_the_wire_protocol() {
        assert_eq!(Verb::of_command("LOAD"), Verb::Load);
        assert_eq!(Verb::of_command("RELOAD"), Verb::Reload);
        assert_eq!(Verb::of_command("METRICS"), Verb::Metrics);
        assert_eq!(Verb::of_command("MONITOR"), Verb::Monitor);
        assert_eq!(Verb::of_command("EVENT"), Verb::Event);
        assert_eq!(Verb::of_command("FROBNICATE"), Verb::Other);
        assert_eq!(Verb::of_command(""), Verb::Other);
        for verb in Verb::ALL {
            assert_eq!(Verb::ALL[verb.index()], verb);
        }
    }

    #[test]
    fn gauges_track_peaks() {
        let m = ServeMetrics::new();
        m.record_queue_depth(1);
        m.record_queue_depth(2);
        m.record_queue_depth(1);
        assert_eq!(m.queue_depth(), 1);
        assert_eq!(m.queue_depth_peak(), 2);
        m.worker_busy();
        m.worker_idle();
        m.worker_busy();
        assert_eq!(m.busy_workers(), 1);
        assert_eq!(m.busy_workers_peak(), 1, "peak is concurrent, not total");
        m.rejected();
        m.shutdown_refused();
        assert_eq!(m.rejected_total(), 1);
        assert_eq!(m.shutdown_refused_total(), 1);
    }

    #[test]
    fn exposition_renders_and_validates() {
        let m = ServeMetrics::new();
        m.observe(Verb::Analyze, Duration::from_micros(7));
        m.observe(Verb::Analyze, Duration::from_micros(120));
        m.observe(Verb::Load, Duration::from_millis(900));
        m.record_queue_depth(1);
        m.rejected();
        let text = m.render(&[ExtraMetric {
            name: "atl_serve_sessions_live",
            help: "Warmed sessions currently resident.",
            kind: MetricKind::Gauge,
            value: 3,
        }]);
        let samples = check_exposition(&text).expect("exposition parses");
        assert!(samples > 10 * (BUCKET_BOUNDS_MICROS.len() + 3));
        assert!(text.contains("atl_serve_requests_total{verb=\"analyze\"} 2"));
        assert!(text.contains(
            "atl_serve_request_duration_seconds_bucket{verb=\"analyze\",le=\"0.000016\"} 1"
        ));
        assert!(
            text.contains("atl_serve_request_duration_seconds_bucket{verb=\"load\",le=\"+Inf\"} 1")
        );
        assert!(text.contains("atl_serve_rejected_total 1"));
        assert!(text.contains("atl_serve_sessions_live 3"));
        // The validator actually rejects malformed expositions.
        assert!(check_exposition("atl_no_type_decl 1").is_err());
        assert!(check_exposition("# TYPE x counter\nx notanumber").is_err());
        assert!(check_exposition("").is_err());
    }
}
