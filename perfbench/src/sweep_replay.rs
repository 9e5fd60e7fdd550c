//! `sweep_replay`: store-backed belief-survival sweeps through
//! `fabric_sweep` with no workers — what `atl inject --sweep --store DIR`
//! runs.
//!
//! Each sweep covers a seed window of `WINDOW` seeds × drop {0, p} × dup
//! {0, q} × replay {0, r}, where (p, q, r) is one of the fixed `MIXES`,
//! all strictly inside (0, 1). Each spec rotates through the mixes, and
//! each (spec, mix) lane keeps its own window. Set-up fills the store
//! with a cold sweep of every lane's first window; every timed sweep then
//! slides its lane's window by one seed, so it resolves the stored
//! fingerprints of `WINDOW - 1` seeds (and the inert all-zero plan) from
//! the store and executes and saves the 7 plans of its one fresh seed.
//! The lanes' windows are fixed (see `LANE_SEED`), so every set-up of
//! every run fills the same store; the run's seed picks where each
//! spec's rotation starts and the order of a round.

use crate::common::{
    next_is_traced, recorders, write_spans, Layer, Outcome, Recorder, Rng, Settings, Setups, Share,
    TracedReport, WorkDir,
};
use crate::specs::{self, SPECS};
use crate::tracer::Tracer;
use atl_core::annotate::{AtProtocol, AtStep};
use atl_core::enact::{enact_with, EnactOptions};
use atl_core::fabric::{fabric_sweep, FabricConfig, FabricStats, OutcomeStore};
use atl_core::parallel::Pool;
use atl_core::sweep::{survival_report, SweepConfig};
use atl_lang::Principal;
use atl_model::{
    execute_with_faults, sweep_plans_on, sweep_plans_resolve, Action, ExecOptions, ExecutionCache,
    ExpectPolicy, FaultPlan, Protocol, Run, SweepGrid, SweepOutcome,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Seeds per sweep; all but the newest are already stored.
const WINDOW: u64 = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Timed sweeps whose mask shares are reported (every run completes
/// them, so the shares repeat exactly for a seed).
const SHARE_SWEEPS: usize = 16;
/// The sweeps of one round, by spec index: `kerberos_figure1` twice, so
/// the median op falls inside one spec's latencies, not between two.
const ROUND: [usize; 5] = [0, 1, 1, 2, 3];
/// The (drop, dup, replay) non-zero steps each spec's sweeps rotate
/// through.
const MIXES: [[f64; 3]; 4] = [
    [0.3, 0.3, 0.3],
    [0.6, 0.2, 0.4],
    [0.2, 0.5, 0.6],
    [0.5, 0.4, 0.2],
];
/// Seed of the generator the lanes' first seeds come from. It is fixed,
/// not the run's: which seeds a window holds sets how much the fill
/// executes, and with windows drawn from the run's seed the set-up time
/// followed the seed.
const LANE_SEED: u64 = 0x5ee9_1a7e;

/// One (spec, mix) sliding seed window.
#[derive(Clone, Copy)]
struct Lane {
    first_seed: u64,
    /// Sweeps made so far (the window's offset from `first_seed`).
    sweeps: u64,
}

struct SpecRun {
    name: &'static str,
    path: PathBuf,
    at: AtProtocol,
    lanes: [Lane; MIXES.len()],
    /// Position in the mix rotation of the untraced and of the traced
    /// rounds: both start at the same seeded position, so traced sweeps
    /// run the same mixes as untraced ones.
    cursors: [usize; 2],
}

impl SpecRun {
    fn config(&self, mix: usize, offset: u64) -> SweepConfig {
        let start = self.lanes[mix].first_seed + offset;
        let [p, q, r] = MIXES[mix];
        SweepConfig {
            grid: SweepGrid::new()
                .seeds(start..start + WINDOW)
                .drop_steps([0.0, p])
                .duplicate_steps([0.0, q])
                .replay_steps([0.0, r]),
            options: ExecOptions::default(),
            expect_policy: ExpectPolicy::resend_after(6, 2),
        }
    }

    /// The next timed sweep of an untraced or a traced round: the next mix
    /// in that rotation, its lane's window slid by one seed.
    fn advance(&mut self, traced: bool) -> (usize, u64) {
        let cursor = &mut self.cursors[usize::from(traced)];
        let mix = *cursor % MIXES.len();
        *cursor += 1;
        self.lanes[mix].sweeps += 1;
        (mix, self.lanes[mix].sweeps)
    }
}

/// One timed sweep, as the checks and the replay need it.
struct Op {
    spec: usize,
    mix: usize,
    offset: u64,
    report: String,
    stats: FabricStats,
}

fn fabric(store: &Path) -> FabricConfig {
    FabricConfig {
        store: Some(store.to_path_buf()),
        ..FabricConfig::default()
    }
}

/// One `atl inject --sweep --store` equivalent: sweep and render.
fn sweep(
    spec: &SpecRun,
    mix: usize,
    offset: u64,
    store: &Path,
    pool: &Pool,
) -> Result<(String, FabricStats), String> {
    let path = spec.path.to_string_lossy();
    fabric_sweep(
        &spec.at,
        &path,
        &spec.config(mix, offset),
        &fabric(store),
        pool,
    )
    .map(|(report, stats)| (report.to_string(), stats))
    .map_err(|e| format!("{}: fabric_sweep failed: {e}", spec.name))
}

/// The set-up's store fill: a cold sweep of every lane's first window.
fn fill(specs_run: &[SpecRun], store: &Path, pool: &Pool) -> Result<(), String> {
    for s in specs_run {
        for mix in 0..MIXES.len() {
            sweep(s, mix, 0, store, pool)?;
        }
    }
    Ok(())
}

/// A later set-up: the same fill into a store of its own, then removed.
fn extra_setup(
    setups: &mut Setups,
    work: &WorkDir,
    specs_run: &[SpecRun],
    pool: &Pool,
) -> Result<(), String> {
    let dir = work
        .fresh(&format!("setup-store-{}", setups.next_index()))
        .map_err(|e| format!("cannot create a store: {e}"))?;
    setups.time(|| fill(specs_run, &dir, pool))?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// The mask of idealized `→` steps whose message `run` delivered (sends
/// to the environment count as delivered; `newkey` steps are always
/// kept). It mirrors the sweep bridge's crate-private `delivery_mask`
/// and only counts the inputs' distinct masks; it is never timed.
fn delivery_mask(at: &AtProtocol, run: &Run) -> Vec<bool> {
    at.steps
        .iter()
        .map(|s| match s {
            AtStep::Send { to, message, .. } => {
                *to == Principal::environment()
                    || run.events().any(|(_, e)| {
                        e.actor == *to
                            && matches!(&e.action, Action::Receive { message: m } if m == message)
                    })
            }
            AtStep::NewKey { .. } => true,
        })
        .collect()
}

/// Distinct delivery masks of the well-formed runs and how many
/// well-formed runs there were.
fn mask_counts(at: &AtProtocol, outcome: &SweepOutcome) -> (usize, usize) {
    let mut masks: Vec<Vec<bool>> = Vec::new();
    let mut ok = 0;
    for r in &outcome.results {
        if let Some((run, _)) = r.ok() {
            ok += 1;
            let m = delivery_mask(at, run);
            if !masks.contains(&m) {
                masks.push(m);
            }
        }
    }
    (masks.len(), ok)
}

pub fn run(settings: &Settings, work: &WorkDir) -> Result<Outcome, String> {
    let started = std::time::Instant::now();
    let pool = Pool::new(1);
    let mut rng = Rng::new(settings.seed);
    let mut lane_rng = Rng::new(LANE_SEED);
    let mut specs_run: Vec<SpecRun> = SPECS
        .iter()
        .map(|base| {
            let path = work.path().join(format!("{}.atl", base.name));
            std::fs::write(&path, base.text).expect("work directory is writable");
            let cursor = rng.below(MIXES.len());
            SpecRun {
                name: base.name,
                path,
                at: specs::parse(base.text),
                lanes: [(); MIXES.len()].map(|()| Lane {
                    first_seed: lane_rng.next_u64() >> 20,
                    sweeps: 0,
                }),
                cursors: [cursor; 2],
            }
        })
        .collect();

    // Set-up: a fresh store filled by an untimed cold sweep of every
    // lane's first window. `SETUPS` set-ups are timed and the median
    // reported; this first one's store serves the timed phase, the later
    // ones fill stores of their own (the lanes' windows are fixed, so each
    // does the same work).
    let store = work
        .fresh("store")
        .map_err(|e| format!("cannot create the store: {e}"))?;
    fill(&specs_run, &store, &pool)?;
    let mut setups = Setups::new(SETUPS, settings, started.elapsed().as_secs_f64());

    // The timed phase. A traced run interleaves untraced rounds with
    // traced ones, whose sweeps are kept for the replay. Each spec's mix
    // rotation repeats every `MIXES.len()` rounds, the recorders' period.
    let (mut rec, mut trec) = recorders(settings, MIXES.len());
    let mut ops = Vec::new();
    let mut replay_ops = Vec::new();
    while let Some(traced_round) = next_is_traced(settings, &rec, &trec) {
        let (r, kept) = if traced_round {
            (&mut trec, &mut replay_ops)
        } else {
            (&mut rec, &mut ops)
        };
        let mut order = ROUND.to_vec();
        rng.shuffle(&mut order);
        r.start_round();
        for &i in &order {
            let s = &mut specs_run[i];
            let (mix, offset) = s.advance(traced_round);
            let (report, stats) = r.op("sweep", s.name, || sweep(s, mix, offset, &store, &pool))?;
            kept.push(Op {
                spec: i,
                mix,
                offset,
                report,
                stats,
            });
        }
        r.end_round();
        if setups.due(Some(rec.wall_s + trec.wall_s)) {
            extra_setup(&mut setups, work, &specs_run, &pool)?;
        }
    }
    while setups.due(None) {
        extra_setup(&mut setups, work, &specs_run, &pool)?;
    }
    let mut traced = None;

    // Checks: every store-backed report against an in-memory sweep of
    // the same grid with a fresh cache (what `fault_sweep` runs).
    let (mut masks, mut ok_runs, mut hits, mut resolved) = (0usize, 0usize, 0u64, 0u64);
    for (n, op) in ops.iter().chain(&replay_ops).enumerate() {
        let s = &specs_run[op.spec];
        let config = s.config(op.mix, op.offset);
        let proto = enact_with(
            &s.at,
            EnactOptions {
                expect_policy: config.expect_policy,
            },
        );
        let outcome = sweep_plans_on(
            &proto,
            &config.options,
            &config.grid.plans(),
            &pool,
            &ExecutionCache::new(),
        );
        if n < SHARE_SWEEPS {
            let (m, k) = mask_counts(&s.at, &outcome);
            masks += m;
            ok_runs += k;
            hits += op.stats.store_hits;
            resolved += op.stats.store_hits + op.stats.local_resolved;
        }
        let want = survival_report(&s.at, outcome, &pool).to_string();
        if want != op.report {
            rec.fail(format!(
                "{}: store-backed sweep at offset {} differs from fault_sweep",
                s.name, op.offset
            ));
        }
    }

    if settings.trace {
        let mut tracer = trec.tracer.take().expect("traced recorder");
        let replay_store = work
            .fresh("replay-store")
            .map_err(|e| format!("cannot create the replay store: {e}"))?;
        let replay_store = OutcomeStore::open(&replay_store).map_err(|e| e.to_string())?;
        let mut passes = 0;
        for (i, op) in replay_ops.iter().enumerate() {
            let s = &specs_run[op.spec];
            let context = (op.spec * MIXES.len() + op.mix) as u64;
            // Store the window's older seeds untraced, as the real store
            // held them when this sweep ran (untraced sweeps of the same
            // lane slid the window in between).
            let mut config = s.config(op.mix, op.offset);
            config.grid.seeds = config.grid.seeds.start..config.grid.seeds.end - 1;
            let proto = enact_with(
                &s.at,
                EnactOptions {
                    expect_policy: config.expect_policy,
                },
            );
            resolve_stored(&proto, context, &config, &replay_store, &mut Tracer::new());
            tracer.set_op(i as u64 + 1);
            let config = s.config(op.mix, op.offset);
            let (text, p) =
                replay_sweep(&s.at, context, &config, &replay_store, &mut tracer, &pool);
            passes += p;
            if text != op.report {
                trec.fail(format!(
                    "{}: replayed sweep at offset {} differs",
                    s.name, op.offset
                ));
            }
        }
        let mut report = traced_report(&rec, &trec, &tracer, replay_ops.len() as u64, passes);
        report.spans_file = write_spans(settings, &tracer);
        traced = Some(report);
        rec.absorb_failures(trec);
    }

    let share = |num: f64, den: f64| num / den.max(1.0);
    Ok(Outcome {
        host_cpus: 0,
        pinned: None,
        setups_s: setups.times_s,
        tail_pct: 95.0,
        shares: vec![
            Share {
                name: "fabric.store_hit_share",
                value: share(hits as f64, resolved as f64),
                base: format!("{hits} of {resolved} fingerprints answered by the store, first {SHARE_SWEEPS} timed sweeps"),
            },
            Share {
                name: "sweep.mask_repeat_share",
                value: 1.0 - share(masks as f64, ok_runs as f64),
                base: format!(
                    "{masks} distinct delivery masks over {ok_runs} well-formed plans, first {SHARE_SWEEPS} timed sweeps"
                ),
            },
        ],
        notes: vec![format!(
            "grid per sweep: {WINDOW} seeds x drop {{0,p}} x dup {{0,q}} x replay {{0,r}}, (p,q,r) rotating \
             through {MIXES:?}; no workers; pool width 1"
        )],
        rec,
        traced,
    })
}

/// Replays one store-backed sweep through the public layer functions
/// with spans: the outcome is resolved from the store (see
/// [`resolve_stored`]) and goes through the library's own
/// `survival_report`. Returns the rendered report and the annotation
/// passes `survival_report` needs without a cache: the baseline plus one
/// per distinct delivery mask.
fn replay_sweep(
    at: &AtProtocol,
    context: u64,
    config: &SweepConfig,
    store: &OutcomeStore,
    t: &mut Tracer,
    pool: &Pool,
) -> (String, usize) {
    let proto = t.time("enact", || {
        enact_with(
            at,
            EnactOptions {
                expect_policy: config.expect_policy,
            },
        )
    });
    let outcome = resolve_stored(&proto, context, config, store, t);
    let passes = 1 + mask_counts(at, &outcome).0;
    let report = t.time("sweep.survival_report", || {
        survival_report(at, outcome, pool)
    });
    (t.time("render.report", || report.to_string()), passes)
}

/// Resolves a sweep's plans with spans: each missing fingerprint is
/// loaded from the store, or executed and saved, as the fabric resolver
/// does with no workers.
fn resolve_stored(
    proto: &Protocol,
    context: u64,
    config: &SweepConfig,
    store: &OutcomeStore,
    t: &mut Tracer,
) -> SweepOutcome {
    let plans: Vec<FaultPlan> = config.grid.plans();
    sweep_plans_resolve(context, &plans, &ExecutionCache::new(), |missing| {
        missing
            .iter()
            .map(|(i, fp)| {
                if let Some(hit) = t.time("fabric.store_load", || store.load(context, fp)) {
                    return Arc::new(hit);
                }
                let executed = t.time("executor.execute", || {
                    execute_with_faults(proto, &config.options, &plans[*i])
                });
                let _ = t.time("fabric.store_save", || store.save(context, fp, &executed));
                Arc::new(executed)
            })
            .collect()
    })
}

fn traced_report(
    untraced: &Recorder,
    traced: &Recorder,
    tracer: &Tracer,
    replayed: u64,
    passes: usize,
) -> TracedReport {
    let n = traced.latencies_ms.len() as f64;
    let total_ms: f64 = traced.latencies_ms.iter().sum();
    let selfs = tracer.self_times();
    let ms = |name: &str| selfs.get(name).map_or(0.0, |s| s.ns as f64 / 1e6 / n);
    let calls = |name: &str| selfs.get(name).map_or(0, |s| s.calls);
    let spans: [(&'static str, &'static str, &'static str); 6] = [
        ("enact_ms", "enact", "enact_with"),
        (
            "fabric.store_load_ms",
            "fabric.store_load",
            "OutcomeStore::load",
        ),
        (
            "fabric.store_save_ms",
            "fabric.store_save",
            "OutcomeStore::save",
        ),
        (
            "executor.execute_ms",
            "executor.execute",
            "execute_with_faults",
        ),
        (
            "sweep.survival_report_ms",
            "sweep.survival_report",
            "survival_report",
        ),
        (
            "render.report_ms",
            "render.report",
            "FaultSweepReport Display",
        ),
    ];
    let mut explained = 0.0;
    let mut layers = Vec::new();
    for (name, span, source) in spans {
        explained += ms(span);
        layers.push(Layer {
            name,
            value: ms(span),
            unit: "ms",
            calls: calls(span),
            source,
        });
    }
    // The annotation per delivery mask and the semantic stage both run
    // inside `survival_report`, and no public call separates them, so
    // both figures are that call's time.
    for name in ["sweep.annotate_ms", "sweep.semantic_ms"] {
        layers.push(Layer {
            name,
            value: ms("sweep.survival_report"),
            unit: "ms",
            calls: calls("sweep.survival_report"),
            source: "survival_report, the smallest public call holding both the annotation \
                     per delivery mask and the semantic stage (with the verdicts and the audit)",
        });
    }
    layers.push(Layer {
        name: "sweep.annotate_passes",
        value: passes as f64 / n,
        unit: "count",
        calls: passes as u64,
        source: "baseline plus distinct delivery masks per sweep: the analyze_at passes \
                 survival_report needs without an annotation cache, counted from the runs \
                 (survival_report exposes no pass counter)",
    });
    layers.push(Layer {
        name: "executor.plans",
        value: calls("executor.execute") as f64 / n,
        unit: "count",
        calls: calls("executor.execute"),
        source: "fresh executions per sweep",
    });
    TracedReport {
        untraced_ops_per_s: untraced.summary(50.0).ops_per_s,
        traced_ops_per_s: traced.summary(50.0).ops_per_s,
        mean_latency_ms: total_ms / n,
        explained_ms: explained,
        layers,
        replayed,
        spans_file: String::new(),
    }
}
