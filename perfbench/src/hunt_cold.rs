//! `hunt_cold`: one `hunt_report` per op over the committed specs (each
//! of which carries an attack fixture), with a fixed budget, a fresh
//! `ExecutionCache` and a fresh `HuntStore` directory per op — what one
//! `atl hunt SPEC --seed S --store DIR` runs. Hunt seeds come from a
//! fixed cycle (see `CYCLE`); the run's seed picks where the cycle starts
//! and the spec order within a round.

use crate::common::{
    next_is_traced, recorders, write_spans, Layer, Outcome, Recorder, Rng, Settings, Setups, Share,
    TracedReport, WorkDir,
};
use crate::specs::{self, SPECS};
use crate::tracer::Tracer;
use atl_core::annotate::AtProtocol;
use atl_core::enact::{enact_with, EnactOptions};
use atl_core::hunt::{default_space, hunt_report, HuntReport, HuntSettings, SignatureClassifier};
use atl_core::parallel::Pool;
use atl_model::{
    execute_with_faults, hunt_plans_on, sweep_plans_on, ExecOptions, ExecutionCache, ExpectPolicy,
    FaultPlan, HuntConfig, HuntStats, HuntStore, PlanFingerprint,
};
use std::collections::BTreeSet;
use std::path::Path;

/// Plans each hunt may resolve (fixed for every seed).
const BUDGET: usize = 32;
/// Mutants per round of a hunt.
const BATCH: usize = 8;
/// The hunts of one round, by spec index: `kerberos_figure1` twice, so
/// the median op falls inside one spec's latencies, not between two.
const ROUND: [usize; 5] = [0, 1, 1, 2, 3];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Rounds in the fixed cycle of hunt seeds. A hunt's cost follows its
/// hunt seed (how many classes it finds and shrinks) by up to 4x, so
/// fresh hunt seeds per run made throughput follow the run's seed; every
/// run instead cycles through the same hunts, and its seed picks where in
/// the cycle it starts and the order within each round. The cycle is the
/// recorders' period: the figures keep the faster half of the rounds at
/// each cycle position, never the cheaper positions. It is short enough
/// that a run holds at least four rounds at every position.
const CYCLE: u64 = 8;

/// The hunt seed of round-position `k` in round `round` of the cycle.
fn hunt_seed(round: u64, k: usize) -> u64 {
    1000 + (round % CYCLE) * ROUND.len() as u64 + k as u64
}

/// Timed hunts whose search shares are reported (every run completes
/// them, so the shares repeat exactly for a seed).
const SHARE_HUNTS: usize = 16;

fn hunt_settings(at: &AtProtocol, seed: u64) -> HuntSettings {
    HuntSettings {
        config: HuntConfig {
            seed,
            budget: BUDGET,
            batch: BATCH,
            space: default_space(at),
            seed_plans: Vec::new(),
        },
        options: ExecOptions::default(),
        expect_policy: ExpectPolicy::resend_after(6, 2),
    }
}

/// One timed hunt, as the checks and the replay need it.
struct Op {
    spec: usize,
    seed: u64,
    report: HuntReport,
    text: String,
}

/// One `atl hunt SPEC --seed S --store DIR` equivalent.
fn hunt(
    at: &AtProtocol,
    seed: u64,
    store_dir: &Path,
    pool: &Pool,
) -> Result<(HuntReport, String), String> {
    let store =
        HuntStore::open(store_dir).map_err(|e| format!("cannot open the hunt store: {e}"))?;
    let report = hunt_report(
        at,
        &hunt_settings(at, seed),
        pool,
        &ExecutionCache::new(),
        Some(&store),
    );
    let text = report.to_string();
    Ok((report, text))
}

/// Every class's minimal plan must re-execute to the class's signature.
fn check(at: &AtProtocol, op: &Op) -> Vec<String> {
    let settings = hunt_settings(at, op.seed);
    let proto = enact_with(
        at,
        EnactOptions {
            expect_policy: settings.expect_policy,
        },
    );
    let mut classifier = SignatureClassifier::new(at);
    let mut bad = Vec::new();
    if op.report.outcome.classes.is_empty() {
        bad.push(format!(
            "{}: hunt with seed {} found no class",
            SPECS[op.spec].name, op.seed
        ));
    }
    for class in &op.report.outcome.classes {
        let outcome = execute_with_faults(&proto, &settings.options, &class.minimal);
        let signature = classifier.signature(&outcome);
        if signature != class.signature {
            bad.push(format!(
                "{}: minimal plan {} re-executes to {signature:?}, not {:?}",
                SPECS[op.spec].name, class.minimal, class.signature
            ));
        }
    }
    bad
}

pub fn run(settings: &Settings, work: &WorkDir) -> Result<Outcome, String> {
    let started = std::time::Instant::now();
    let pool = Pool::new(1);
    let mut rng = Rng::new(settings.seed);
    let protocols: Vec<AtProtocol> = SPECS.iter().map(|b| specs::parse(b.text)).collect();
    let mut hunts = 0u64;
    let mut fresh_store = |work: &WorkDir| {
        hunts += 1;
        work.fresh(&format!("hunt-{hunts}"))
            .map_err(|e| format!("cannot create a hunt store: {e}"))
    };

    // Set-up: one untimed round of hunts with fixed hunt seeds, so every
    // set-up does the same work whatever the run's seed. `SETUPS` set-ups
    // are timed and the median reported.
    let setup = |work: &WorkDir| -> Result<(), String> {
        for (k, &s) in ROUND.iter().enumerate() {
            let dir = work
                .fresh(&format!("setup-hunt-{k}"))
                .map_err(|e| format!("cannot create a hunt store: {e}"))?;
            hunt(&protocols[s], k as u64 + 1, &dir, &pool)?;
            let _ = std::fs::remove_dir_all(&dir);
        }
        Ok(())
    };
    setup(work)?;
    let mut setups = Setups::new(SETUPS, settings, started.elapsed().as_secs_f64());

    // The timed phase. A traced run interleaves untraced rounds with
    // traced ones, whose hunts are kept for the replay. Each recorder walks
    // the cycle from the same start by its own round count, so traced and
    // untraced rounds run the same hunts. Of the untraced hunts only the
    // search stats of the first `SHARE_HUNTS` are kept, so the run's
    // memory does not grow with the rounds it completes.
    let (mut rec, mut trec) = recorders(settings, CYCLE as usize);
    let (mut sum, mut summed) = (HuntStats::default(), 0);
    let mut traced_ops = Vec::new();
    let cycle_start = rng.next_u64() % CYCLE;
    while let Some(traced_round) = next_is_traced(settings, &rec, &trec) {
        let r = if traced_round { &mut trec } else { &mut rec };
        let round = cycle_start + r.rounds;
        let mut order: Vec<usize> = (0..ROUND.len()).collect();
        rng.shuffle(&mut order);
        let plan: Vec<(usize, u64, std::path::PathBuf)> = order
            .iter()
            .map(|&k| Ok((ROUND[k], hunt_seed(round, k), fresh_store(work)?)))
            .collect::<Result<_, String>>()?;
        r.start_round();
        let mut done = Vec::with_capacity(plan.len());
        for (s, seed, dir) in &plan {
            done.push(r.op("hunt", SPECS[*s].name, || {
                hunt(&protocols[*s], *seed, dir, &pool)
            }));
        }
        r.end_round();
        for ((s, seed, dir), result) in plan.into_iter().zip(done) {
            let _ = std::fs::remove_dir_all(&dir);
            let (report, text) = result?;
            let op = Op {
                spec: s,
                seed,
                report,
                text,
            };
            for why in check(&protocols[s], &op) {
                r.fail(why);
            }
            if traced_round {
                traced_ops.push(op);
            } else if summed < SHARE_HUNTS {
                summed += 1;
                let s = op.report.outcome.stats;
                sum.executed += s.executed;
                sum.cache_hits += s.cache_hits;
                sum.generated += s.generated;
                sum.duplicates += s.duplicates;
                sum.shrink_trials += s.shrink_trials;
            }
        }
        if setups.due(Some(rec.wall_s + trec.wall_s)) {
            setups.time(|| setup(work))?;
        }
    }
    while setups.due(None) {
        setups.time(|| setup(work))?;
    }

    let mut traced = None;
    if settings.trace {
        let mut tracer = trec.tracer.take().expect("traced recorder");
        let (mut fps, mut distinct) = (0usize, 0usize);
        for (i, op) in traced_ops.iter().enumerate() {
            let dir = work
                .fresh("replay-hunt")
                .map_err(|e| format!("cannot create a hunt store: {e}"))?;
            tracer.set_op(i as u64 + 1);
            let (ok, f, d) = replay(&protocols[op.spec], op, &dir, &mut tracer, &pool);
            fps += f;
            distinct += d;
            if !ok {
                trec.fail(format!(
                    "{}: replayed hunt with seed {} differs",
                    SPECS[op.spec].name, op.seed
                ));
            }
        }
        let mut report =
            traced_report(&rec, &trec, &tracer, traced_ops.len() as u64, fps, distinct);
        report.spans_file = write_spans(settings, &tracer);
        traced = Some(report);
        rec.absorb_failures(trec);
    }

    let share = |num: usize, den: usize| num as f64 / den.max(1) as f64;
    Ok(Outcome {
        host_cpus: 0,
        pinned: None,
        setups_s: setups.times_s,
        tail_pct: 90.0,
        shares: vec![
            Share {
                name: "hunt.cache_hit_share",
                value: share(sum.cache_hits, sum.executed),
                base: format!(
                    "{} of {} resolved plans answered by the hunt's cache, first {SHARE_HUNTS} timed hunts",
                    sum.cache_hits, sum.executed
                ),
            },
            Share {
                name: "search.duplicate_share",
                value: share(sum.duplicates, sum.generated),
                base: format!(
                    "{} of {} generated mutants discarded as duplicates, first {SHARE_HUNTS} timed hunts",
                    sum.duplicates, sum.generated
                ),
            },
            Share {
                name: "search.shrink_share",
                value: share(sum.shrink_trials, sum.executed),
                base: format!(
                    "{} of {} resolved plans were shrinking probes, first {SHARE_HUNTS} timed hunts",
                    sum.shrink_trials, sum.executed
                ),
            },
        ],
        notes: vec![format!(
            "hunt per op: budget {BUDGET}, batch {BATCH}, default space, fresh cache and store; pool width 1"
        )],
        rec,
        traced,
    })
}

/// Replays one hunt through the public layer functions with spans: the
/// plans it resolves are executed first (`sweep_plans_on`, timed as the
/// executor), then `hunt_plans_on` runs over that warm cache with a timed
/// `SignatureClassifier::signature`, so the search span keeps only the
/// mutate/dedupe/shrink/store work. The budget counts resolved plans, so
/// the warm replay follows the cold hunt's trajectory exactly; its report
/// must equal the real one in everything but the cache-hit count.
/// Returns (matches, distinct fingerprints, distinct plans).
fn replay(
    at: &AtProtocol,
    op: &Op,
    dir: &Path,
    t: &mut Tracer,
    pool: &Pool,
) -> (bool, usize, usize) {
    let settings = hunt_settings(at, op.seed);
    let policy = EnactOptions {
        expect_policy: settings.expect_policy,
    };

    // Untraced pass: which plans does the hunt resolve?
    let proto = enact_with(at, policy);
    let mut plans: Vec<FaultPlan> = Vec::new();
    let mut probe = SignatureClassifier::new(at);
    hunt_plans_on(
        &proto,
        &settings.options,
        &settings.config,
        pool,
        &ExecutionCache::new(),
        None,
        |plan, exec| {
            plans.push(plan.clone());
            probe.signature(exec)
        },
    );
    let mut seen_fp = BTreeSet::new();
    let distinct_plans: BTreeSet<String> = plans.iter().map(|p| p.to_string()).collect();
    let unique: Vec<FaultPlan> = plans
        .into_iter()
        .filter(|p| seen_fp.insert(PlanFingerprint::of(p).wire()))
        .collect();

    let proto = t.time("enact", || enact_with(at, policy));
    let cache = ExecutionCache::new();
    t.time("executor.execute", || {
        sweep_plans_on(&proto, &settings.options, &unique, pool, &cache)
    });
    let search = t.begin("search");
    let store = HuntStore::open(dir).expect("replay store opens");
    let mut classifier = t.time("hunt.classify", || SignatureClassifier::new(at));
    let outcome = hunt_plans_on(
        &proto,
        &settings.options,
        &settings.config,
        pool,
        &cache,
        Some(&store),
        |_, exec| {
            let c = t.begin("hunt.classify");
            let sig = classifier.signature(exec);
            t.end(c);
            sig
        },
    );
    t.end(search);
    let report = HuntReport {
        protocol: at.name.clone(),
        goals: at.goals.clone(),
        baseline_flags: classifier.baseline_flags().to_vec(),
        seed: settings.config.seed,
        budget: settings.config.budget,
        outcome,
    };
    let text = t.time("render.report", || report.to_string());
    let real = &op.report.outcome;
    let same_stats = HuntStats {
        cache_hits: 0,
        ..real.stats
    } == HuntStats {
        cache_hits: 0,
        ..report.outcome.stats
    };
    let body = |s: &str| {
        s.lines()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .map(|(_, l)| l.to_string())
            .collect::<Vec<_>>()
    };
    (
        same_stats && body(&text) == body(&op.text),
        seen_fp.len(),
        distinct_plans.len(),
    )
}

fn traced_report(
    untraced: &Recorder,
    traced: &Recorder,
    tracer: &Tracer,
    replayed: u64,
    fingerprints: usize,
    distinct_plans: usize,
) -> TracedReport {
    let n = traced.latencies_ms.len() as f64;
    let total_ms: f64 = traced.latencies_ms.iter().sum();
    let selfs = tracer.self_times();
    let ms = |name: &str| selfs.get(name).map_or(0.0, |s| s.ns as f64 / 1e6 / n);
    let calls = |name: &str| selfs.get(name).map_or(0, |s| s.calls);
    let spans: [(&'static str, &'static str, &'static str); 5] = [
        ("enact_ms", "enact", "enact_with"),
        (
            "executor.execute_ms",
            "executor.execute",
            "sweep_plans_on over the hunt's unique plans",
        ),
        (
            "hunt.classify_ms",
            "hunt.classify",
            "SignatureClassifier::new + ::signature",
        ),
        (
            "search.self_ms",
            "search",
            "hunt_plans_on over a warm cache, minus classification (includes HuntStore I/O)",
        ),
        ("render.report_ms", "render.report", "HuntReport Display"),
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
    layers.push(Layer {
        name: "executor.plans",
        value: fingerprints as f64 / n,
        unit: "count",
        calls: fingerprints as u64,
        source: "distinct fingerprints each hunt executes",
    });
    layers.push(Layer {
        name: "sweep.unique_share",
        value: fingerprints as f64 / distinct_plans.max(1) as f64,
        unit: "ratio",
        calls: distinct_plans as u64,
        source: "distinct fingerprints / distinct plans the hunt resolved",
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
