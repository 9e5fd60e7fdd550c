//! What every workload shares: settings, the seeded generator, process
//! clocks, the timed-op recorder and the result printer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The three workloads, by the names `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["serve_mix", "sweep_replay", "hunt_cold"];

/// Command-line settings of one run.
pub struct Settings {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Settings {
    pub fn from_args(args: impl Iterator<Item = String>) -> Result<Settings, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut args = args;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {s} is outside (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    });
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?} (expected one of {})",
                WORKLOADS.join(", ")
            ));
        }
        Ok(Settings {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// SplitMix64: small, seedable and stable across platforms, so the same
/// seed always generates the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_a71b_e4c4_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A fresh identifier suffix: six lowercase hex digits.
    pub fn tag(&mut self) -> String {
        format!("{:06x}", self.next_u64() & 0xff_ffff)
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
    fn malloc_trim(pad: usize) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the process (and every thread it starts later) to the CPU it is
/// running on. The client and the daemon's connection worker take turns
/// in a closed loop, so one CPU serves both; without the pin each turn
/// is a cross-CPU wakeup whose cost follows the shared host's load.
/// Returns the CPU, or `None` if the pin was refused.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: sched_getcpu takes no arguments and only returns a value.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).ok().filter(|c| *c < 1024)?;
    // A `cpu_set_t`: 1024 bits as sixteen 64-bit words.
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live 128-byte buffer, exactly the size passed,
    // and the kernel only reads it; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// glibc's `M_TRIM_THRESHOLD`, `M_MMAP_THRESHOLD` and `M_ARENA_MAX`.
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;
const M_ARENA_MAX: i32 = -8;

/// Makes the resident set follow live memory rather than allocation
/// history: one malloc arena for all threads (the client and the daemon
/// take turns, so there is no contention to spread), and fixed trim and
/// mmap thresholds instead of glibc's self-adjusting ones. With the
/// defaults, the peaks of `serve_mix` runs differed by 20%.
pub fn steady_allocator() {
    for (param, value) in [
        (M_ARENA_MAX, 1),
        (M_MMAP_THRESHOLD, 256 * 1024),
        (M_TRIM_THRESHOLD, 512 * 1024),
    ] {
        // SAFETY: mallopt takes two integers and only adjusts the
        // allocator's tuning; it is called before any thread starts.
        unsafe { mallopt(param, value) };
    }
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU time of the whole process (every thread, the
/// in-process daemon's included), in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on) for the
    // whole call, and clock_gettime writes nothing outside it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of the process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the process's peak resident set (`VmHWM`) to its current
/// resident set, so the next reading is the peak since this call.
/// Returns false where the kernel refuses the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Returns the heap's free pages to the kernel. A set-up run between
/// timed rounds builds a daemon or store of its own; without the trim,
/// whatever it left fragmented stayed resident and moved the rounds'
/// peaks by 20% depending on where the set-ups fell.
pub fn trim_heap() {
    // SAFETY: malloc_trim takes a byte count and only hands free heap
    // pages back to the kernel; live allocations are untouched.
    unsafe { malloc_trim(0) };
}

/// Logical CPUs the host offers this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The median of `values` (which must be non-empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted `v`, with how many values lie
/// strictly beyond its rank.
fn percentile(sorted: &[f64], pct: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
    let idx = rank.min(n) - 1;
    (sorted[idx], n - 1 - idx)
}

/// Per-workload directory for generated inputs and stores, inside the
/// checkout and removed when the run ends.
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    pub fn create(workload: &str) -> std::io::Result<WorkDir> {
        let root =
            PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir { root })
    }

    pub fn path(&self) -> &Path {
        &self.root
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.root.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    pub fn remove(&self) {
        let _ = std::fs::remove_dir_all(&self.root);
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// Records timed operations. Only the ops themselves are timed: input
/// generation, file writes and checks between rounds run while the
/// clocks are stopped.
pub struct Recorder {
    /// Seconds of timed wall time the run measures.
    budget_s: f64,
    /// Rounds after which the workload's round composition repeats (see
    /// [`Recorder::summary`]).
    period: usize,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Latency of each timed op in milliseconds, in op order.
    pub latencies_ms: Vec<f64>,
    /// Ops attempted and failed (transport errors, `ERR`, failed checks).
    pub attempted: u64,
    pub failed: u64,
    /// Timed ops per `class/spec` in the first timed round.
    pub round_counts: BTreeMap<String, u64>,
    /// Timed ops per class over the whole run.
    pub class_totals: BTreeMap<&'static str, u64>,
    /// Each timed op's `class/spec` label, as an index into `labels`.
    op_labels: Vec<usize>,
    labels: Vec<String>,
    pub rounds: u64,
    /// Wall time, CPU time and op range of each timed round.
    round_log: Vec<Round>,
    round_start: Option<(Instant, f64, usize)>,
    /// Failure messages, for the report (capped).
    pub failures: Vec<String>,
    /// In a traced phase, one span per op around the public call; op `n`
    /// (1-based, in op order) carries span op id `n`.
    pub tracer: Option<crate::tracer::Tracer>,
}

impl Recorder {
    /// A recorder for `budget_s` seconds of rounds whose composition
    /// repeats every `period` rounds.
    pub fn new(budget_s: f64, period: usize) -> Recorder {
        Recorder {
            budget_s,
            period: period.max(1),
            wall_s: 0.0,
            cpu_s: 0.0,
            latencies_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            round_counts: BTreeMap::new(),
            class_totals: BTreeMap::new(),
            op_labels: Vec::new(),
            labels: Vec::new(),
            rounds: 0,
            round_log: Vec::new(),
            round_start: None,
            failures: Vec::new(),
            tracer: None,
        }
    }

    /// A recorder whose ops are also recorded as spans.
    pub fn traced(budget_s: f64, period: usize) -> Recorder {
        Recorder {
            tracer: Some(crate::tracer::Tracer::new()),
            ..Recorder::new(budget_s, period)
        }
    }

    /// True while the timed budget is not used up.
    pub fn more(&self) -> bool {
        self.wall_s < self.budget_s
    }

    pub fn start_round(&mut self) {
        reset_peak_rss();
        self.round_start = Some((Instant::now(), process_cpu_s(), self.latencies_ms.len()));
    }

    pub fn end_round(&mut self) {
        let (t0, c0, ops0) = self.round_start.take().expect("round started");
        let wall = t0.elapsed().as_secs_f64();
        let cpu = process_cpu_s() - c0;
        self.wall_s += wall;
        self.cpu_s += cpu;
        self.rounds += 1;
        self.round_log.push(Round {
            wall,
            cpu,
            peak_mb: peak_rss_mb(),
            ops: ops0..self.latencies_ms.len(),
        });
    }

    /// The end-to-end figures, computed over the faster half of the timed
    /// rounds. The shared host slows some rounds (the same CPU-bound loop
    /// was measured to take up to 1.8x as long from one second to the
    /// next) but never speeds one up, so the faster half is where the
    /// program, not the neighbours, sets the time. The cut compares only
    /// like with like: rounds at the same position of the workload's
    /// period run the same work, so only whole periods count, and each
    /// position keeps its faster half (all of its rounds when it ran fewer
    /// than four times). The kept rounds then hold every position equally
    /// often, whatever the rounds contain.
    pub fn summary(&self, tail_pct: f64) -> Summary {
        let period = self.period;
        let whole = if self.round_log.len() >= period {
            self.round_log.len() / period * period
        } else {
            self.round_log.len()
        };
        let mut kept: Vec<&Round> = Vec::with_capacity(whole);
        for position in 0..period {
            let mut same: Vec<&Round> = self.round_log[..whole]
                .iter()
                .skip(position)
                .step_by(period)
                .collect();
            if same.len() >= 4 {
                same.sort_by(|a, b| a.wall.total_cmp(&b.wall));
                same.truncate(same.len() / 2);
            }
            kept.extend(same);
        }
        let wall: f64 = kept.iter().map(|r| r.wall).sum();
        let cpu: f64 = kept.iter().map(|r| r.cpu).sum();
        let mut lat: Vec<f64> = kept
            .iter()
            .flat_map(|r| self.latencies_ms[r.ops.clone()].iter().copied())
            .collect();
        lat.sort_by(f64::total_cmp);
        let n = lat.len();
        // The workload's fixed tail percentile, lowered only if the kept
        // ops hold fewer than ten beyond it.
        let mut pct = tail_pct;
        let (mut tail, mut beyond) = percentile(&lat, pct);
        while beyond < 10 && pct > 50.0 {
            pct = [99.0, 95.0, 90.0, 50.0]
                .into_iter()
                .find(|p| *p < pct)
                .unwrap_or(50.0);
            (tail, beyond) = percentile(&lat, pct);
        }
        // Memory does not slow down with the host, so the peak is taken
        // over every round of the whole periods, not only the kept ones.
        let peaks: Vec<f64> = self.round_log[..whole].iter().map(|r| r.peak_mb).collect();
        Summary {
            ops_per_s: n as f64 / wall,
            peak_rss_mb: median(&peaks),
            p50: percentile(&lat, 50.0).0,
            tail,
            tail_pct: pct,
            beyond,
            cpu_ms_per_op: cpu * 1e3 / n as f64,
            kept_rounds: kept.len(),
            kept_ops: n,
        }
    }

    /// Folds a later phase's op and failure counts into this one.
    pub fn absorb_failures(&mut self, other: Recorder) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for why in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    /// Times `f` as one op of `class` against `spec`.
    pub fn op<T>(&mut self, class: &'static str, spec: &str, f: impl FnOnce() -> T) -> T {
        let id = self.latencies_ms.len() as u64 + 1;
        let span = self.tracer.as_mut().map(|t| {
            t.set_op(id);
            t.begin(class)
        });
        let t = Instant::now();
        let out = f();
        self.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let (Some(tracer), Some(span)) = (self.tracer.as_mut(), span) {
            tracer.end(span);
        }
        self.attempted += 1;
        *self.class_totals.entry(class).or_default() += 1;
        let label = format!("{class}/{spec}");
        let idx = match self.labels.iter().position(|l| *l == label) {
            Some(i) => i,
            None => {
                self.labels.push(label.clone());
                self.labels.len() - 1
            }
        };
        self.op_labels.push(idx);
        if self.rounds == 0 {
            *self.round_counts.entry(label).or_default() += 1;
        }
        out
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Share of the summed op latency each class took.
    pub fn class_time_shares(&self) -> Vec<(String, f64)> {
        let mut by: BTreeMap<&str, f64> = BTreeMap::new();
        for (lat, &l) in self.latencies_ms.iter().zip(&self.op_labels) {
            let class = self.labels[l].split('/').next().unwrap_or("");
            *by.entry(class).or_default() += lat;
        }
        let total: f64 = self.latencies_ms.iter().sum();
        by.into_iter()
            .map(|(c, t)| (c.to_string(), t / total))
            .collect()
    }

    /// Median latency and count per `class/spec`, in label order.
    pub fn label_medians(&self) -> Vec<(String, f64, usize)> {
        let mut by: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (lat, &l) in self.latencies_ms.iter().zip(&self.op_labels) {
            by.entry(self.labels[l].as_str()).or_default().push(*lat);
        }
        by.into_iter()
            .map(|(l, v)| (l.to_string(), median(&v), v.len()))
            .collect()
    }
}

/// One timed round.
struct Round {
    wall: f64,
    cpu: f64,
    /// Peak resident set during the round (the peak is reset at its
    /// start), in MB.
    peak_mb: f64,
    ops: std::ops::Range<usize>,
}

/// The end-to-end figures of a recorder (see [`Recorder::summary`]).
pub struct Summary {
    pub ops_per_s: f64,
    /// Median over every round of each round's peak resident set.
    pub peak_rss_mb: f64,
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
    pub beyond: usize,
    pub cpu_ms_per_op: f64,
    pub kept_rounds: usize,
    pub kept_ops: usize,
}

/// A measured share of inputs a likely optimisation depends on.
pub struct Share {
    pub name: &'static str,
    pub value: f64,
    pub base: String,
}

/// One per-layer figure of a traced run.
pub struct Layer {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub calls: u64,
    /// The public call the figure was timed around.
    pub source: &'static str,
}

/// Set-up timing. The first set-up runs before the timed phase; the
/// others run between timed rounds, spread evenly over it, so one burst of
/// load on the shared host slows at most one of them. Each later set-up
/// generates its inputs from its own generator, never the run's, so where
/// it falls changes no timed op.
pub struct Setups {
    pub times_s: Vec<f64>,
    total: usize,
    every_s: f64,
}

impl Setups {
    /// `first_s` is the first set-up's duration, from the start of the run.
    pub fn new(total: usize, settings: &Settings, first_s: f64) -> Setups {
        Setups {
            times_s: vec![first_s],
            total,
            every_s: settings.seconds / total as f64,
        }
    }

    /// Whether another set-up is due after `timed_s` seconds of timed
    /// work (`None` once the timed phase is over: every remaining one).
    pub fn due(&self, timed_s: Option<f64>) -> bool {
        self.times_s.len() < self.total
            && timed_s.is_none_or(|t| t >= self.times_s.len() as f64 * self.every_s)
    }

    /// The index of the next set-up (1 for the first later one).
    pub fn next_index(&self) -> u64 {
        self.times_s.len() as u64
    }

    /// Times one set-up, then trims the heap it leaves behind.
    pub fn time<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t = Instant::now();
        let out = f()?;
        self.times_s.push(t.elapsed().as_secs_f64());
        trim_heap();
        Ok(out)
    }
}

/// In a traced run, which recorder takes the next round: traced and
/// untraced rounds alternate, so both see the same host conditions.
pub fn next_is_traced(settings: &Settings, untraced: &Recorder, traced: &Recorder) -> Option<bool> {
    if !settings.trace {
        return untraced.more().then_some(false);
    }
    match (untraced.more(), traced.more()) {
        (false, false) => None,
        (true, false) => Some(false),
        (false, true) => Some(true),
        (true, true) => Some(traced.rounds < untraced.rounds),
    }
}

/// The untraced and the traced recorder, for rounds whose composition
/// repeats every `period` rounds: a traced run splits its seconds between
/// interleaved untraced and traced rounds. Each recorder numbers its own
/// rounds, and a workload derives a round's inputs from that number, so
/// the traced rounds run the same work as the untraced ones.
pub fn recorders(settings: &Settings, period: usize) -> (Recorder, Recorder) {
    if settings.trace {
        (
            Recorder::new(settings.seconds / 2.0, period),
            Recorder::traced(settings.seconds / 2.0, period),
        )
    } else {
        (
            Recorder::new(settings.seconds, period),
            Recorder::new(0.0, period),
        )
    }
}

/// What the traced run adds.
pub struct TracedReport {
    pub untraced_ops_per_s: f64,
    pub traced_ops_per_s: f64,
    pub mean_latency_ms: f64,
    /// Mean per-op time the layer self times account for, in ms.
    pub explained_ms: f64,
    pub layers: Vec<Layer>,
    pub replayed: u64,
    pub spans_file: String,
}

/// Writes a traced run's spans under `.perfbench_out/` and returns the
/// file's path.
pub fn write_spans(settings: &Settings, tracer: &crate::tracer::Tracer) -> String {
    let path = PathBuf::from(".perfbench_out").join(format!(
        "{}-seed{}.spans.tsv",
        settings.workload, settings.seed
    ));
    match tracer.write(&path) {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("(not written: {e})"),
    }
}

/// Everything one run measured.
pub struct Outcome {
    /// CPUs the host offered before the pin, and the CPU pinned to.
    pub host_cpus: usize,
    pub pinned: Option<usize>,
    pub setups_s: Vec<f64>,
    pub rec: Recorder,
    /// The percentile `latency_tail_ms` reports for this workload.
    pub tail_pct: f64,
    pub shares: Vec<Share>,
    pub notes: Vec<String>,
    pub traced: Option<TracedReport>,
}

/// The per-layer metrics a traced run prints, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("serve.wire_overhead_us", "us"),
    ("serve.service_us.load", "us"),
    ("serve.service_us.reload", "us"),
    ("serve.service_us.eval", "us"),
    ("serve.service_us.analyze", "us"),
    ("serve.service_us.inject", "us"),
    ("serve.service_us.event", "us"),
    ("serve.eval_memo_hit_share", "ratio"),
    ("serve.reload_delta_share", "ratio"),
    ("spec.parse_ms", "ms"),
    ("annotate.analyze_ms", "ms"),
    ("annotate.advance_ms", "ms"),
    ("goodruns.construct_ms", "ms"),
    ("semantics.eval_us", "us"),
    ("monitor.feed_us", "us"),
    ("monitor.points_reused_per_event", "count"),
    ("sweep.annotate_ms", "ms"),
    ("sweep.annotate_passes", "count"),
    ("sweep.mask_repeat_share", "ratio"),
    ("sweep.semantic_ms", "ms"),
    ("fabric.store_load_ms", "ms"),
    ("fabric.store_save_ms", "ms"),
    ("fabric.store_hit_share", "ratio"),
    ("executor.execute_ms", "ms"),
    ("executor.plans", "count"),
    ("sweep.unique_share", "ratio"),
    ("hunt.cache_hit_share", "ratio"),
    ("hunt.classify_ms", "ms"),
    ("search.self_ms", "ms"),
    ("search.duplicate_share", "ratio"),
    ("search.shrink_share", "ratio"),
    ("render.report_ms", "ms"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_share", "ratio"),
    ("trace.unexplained_share", "ratio"),
];

impl Outcome {
    pub fn correct(&self) -> bool {
        self.rec.failed == 0
    }

    /// Prints the human-readable report, then the one-line JSON result.
    pub fn print(&self, settings: &Settings) {
        let rec = &self.rec;
        let n = rec.latencies_ms.len();
        let setup_s = median(&self.setups_s);
        let sum = rec.summary(self.tail_pct);
        let (ops_per_s, p50, tail, cpu_ms_per_op) =
            (sum.ops_per_s, sum.p50, sum.tail, sum.cpu_ms_per_op);
        let rss = sum.peak_rss_mb;
        let fail_ratio = rec.failed as f64 / rec.attempted.max(1) as f64;

        println!(
            "workload {} seed {} seconds {} trace {}: {} host cpu(s), pinned to {}, \
             pool width 1, one closed-loop client",
            settings.workload,
            settings.seed,
            settings.seconds,
            u8::from(settings.trace),
            self.host_cpus,
            self.pinned
                .map_or("no cpu (pin refused)".to_string(), |c| format!("cpu {c}"))
        );
        let setups: Vec<String> = self.setups_s.iter().map(|s| format!("{s:.4}")).collect();
        println!(
            "setup_s = {setup_s} s (median of {} set-ups, the first before the timed phase and \
             the others spread over it: {})",
            self.setups_s.len(),
            setups.join(", ")
        );
        println!(
            "ops_per_s = {ops_per_s} 1/s (over the faster {} of {} rounds, half of each \
             position of a {}-round period, {} of {n} ops; {:.2} ops/s over all {:.3} s of \
             timed wall)",
            sum.kept_rounds,
            rec.rounds,
            rec.period,
            sum.kept_ops,
            n as f64 / rec.wall_s,
            rec.wall_s
        );
        println!("latency_p50_ms = {p50} ms");
        println!(
            "latency_tail_ms = {tail} ms (p{} of {} ops, {} op(s) beyond it)",
            sum.tail_pct, sum.kept_ops, sum.beyond
        );
        println!(
            "cpu_ms_per_op = {cpu_ms_per_op} ms ({:.3} s process CPU over all timed rounds)",
            rec.cpu_s
        );
        println!(
            "peak_rss_mb = {rss} MB (median per-round peak over the rounds of whole periods; \
             {} MB in the last round)",
            peak_rss_mb()
        );
        println!(
            "fail_ratio = {fail_ratio} 1 ({} of {} ops failed)",
            rec.failed, rec.attempted
        );
        for why in &rec.failures {
            println!("  failure: {why}");
        }
        let per_round: Vec<String> = rec
            .round_counts
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("ops per round: {}", per_round.join(" "));
        let totals: Vec<String> = rec
            .class_totals
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("ops per class in the run: {}", totals.join(" "));
        let medians: Vec<String> = rec
            .label_medians()
            .iter()
            .map(|(l, m, n)| format!("{l}={m:.4}ms/{n}"))
            .collect();
        println!("median latency per class/spec: {}", medians.join(" "));
        let shares: Vec<String> = rec
            .class_time_shares()
            .iter()
            .map(|(c, s)| format!("{c}={s:.3}"))
            .collect();
        println!("share of timed op latency per class: {}", shares.join(" "));
        for s in &self.shares {
            println!("share {} = {} ({})", s.name, s.value, s.base);
        }
        for note in &self.notes {
            println!("{note}");
        }

        let mut metrics = String::new();
        let mut add = |name: &str, value: f64, unit: &str| {
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        };
        match &self.traced {
            None => {
                add("setup_s", setup_s, "s");
                add("ops_per_s", ops_per_s, "1/s");
                add("latency_p50_ms", p50, "ms");
                add("latency_tail_ms", tail, "ms");
                add("cpu_ms_per_op", cpu_ms_per_op, "ms");
                add("peak_rss_mb", rss, "MB");
            }
            Some(t) => {
                let unexplained = 1.0 - t.explained_ms / t.mean_latency_ms;
                let overhead = 1.0 - t.traced_ops_per_s / t.untraced_ops_per_s;
                println!(
                    "traced: ops_per_s {} traced vs {} untraced (faster half of rounds), \
                     overhead {overhead}; {} op(s) replayed; spans in {}",
                    t.traced_ops_per_s, t.untraced_ops_per_s, t.replayed, t.spans_file
                );
                println!(
                    "traced: mean op latency {} ms, layer self times explain {} ms, \
                     unexplained share {unexplained}",
                    t.mean_latency_ms, t.explained_ms
                );
                let mut values: BTreeMap<&str, f64> = BTreeMap::new();
                for l in &t.layers {
                    println!(
                        "layer {} = {} {} (calls {}, timed around {})",
                        l.name, l.value, l.unit, l.calls, l.source
                    );
                    values.insert(l.name, l.value);
                }
                for s in &self.shares {
                    values.entry(s.name).or_insert(s.value);
                }
                values.insert("trace.ops_per_s", t.traced_ops_per_s);
                values.insert("trace.untraced_ops_per_s", t.untraced_ops_per_s);
                values.insert("trace.overhead_share", overhead);
                values.insert("trace.unexplained_share", unexplained);
                for (name, unit) in PER_LAYER {
                    add(name, values.get(name).copied().unwrap_or(0.0), unit);
                }
            }
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            rec.attempted,
            rec.failed
        );
    }
}
