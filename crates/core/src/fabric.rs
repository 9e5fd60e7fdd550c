//! The coordinator half of the distributed sweep fabric.
//!
//! A fault sweep is embarrassingly parallel once its grid is
//! fingerprint-deduplicated, so `atl inject --sweep` can deal shards of
//! plans to serve-mode daemons (`crate::serve`, the `SWEEP` verb) on
//! other processes or machines and merge the wire-rendered outcomes
//! back. This module is everything above the wire:
//!
//! - [`OutcomeStore`] — a persistent, content-addressed, crash-safe
//!   store of execution outcomes keyed by `(execution context, plan
//!   fingerprint)`, one [`atl_model::store`] frame per outcome: writes
//!   are atomic, loads verify the frame and re-parse the payload, and
//!   anything truncated, bit-flipped, or mislabeled is discarded and
//!   recomputed rather than trusted. A coordinator killed mid-sweep
//!   therefore resumes from whatever outcomes it had committed.
//! - [`FabricConfig`] / [`FabricStats`] — knobs (shard size, per-shard
//!   deadline, bounded retries with exponential backoff, per-worker
//!   failure budget) and accounting for where each outcome came from.
//! - [`fabric_sweep`] — the coordinator. It resolves outcomes store →
//!   remote workers → local execution, requeues shards from dead or
//!   hung workers, and degrades gracefully to fully in-process
//!   execution when every worker is lost, so the sweep *always*
//!   completes.
//!
//! One execution context keys everything: the
//! [`execution_context_digest`] of the enacted protocol and the options,
//! as the in-memory [`ExecutionCache`] and the hunt corpus use it. Every
//! `SWEEP` shard carries it, and a worker whose session enacts a
//! different protocol refuses the shard, so outcomes never alias across
//! protocols even when a worker's spec file differs from the
//! coordinator's.
//!
//! Correctness bar: the printed [`FaultSweepReport`] is byte-identical
//! to a single-process `atl inject --sweep` whatever the worker count,
//! which workers die, or how the sweep is resumed. That holds by
//! construction — outcomes round-trip exactly through
//! [`atl_model::wire`], and the report is assembled by the same
//! [`sweep_plans_resolve`] + [`survival_report`] path a local sweep
//! uses, with a resolver that merely *sources* outcomes differently.
//! `tests/e18_fabric.rs` holds it there under chaos (killed, hung, and
//! restarted workers; resumed coordinators; corrupted stores).

use crate::annotate::AtProtocol;
use crate::enact::{enact_with, EnactOptions};
use crate::parallel::Pool;
use crate::serve::{Client, CONTEXT_MISMATCH, MAX_REQUEST_BYTES};
use crate::sweep::{survival_report, FaultSweepReport, SweepConfig};
use atl_model::store::FrameStore;
use atl_model::wire::{
    parse_outcome, parse_sweep_response, render_outcome, render_plan, render_sweep_request,
};
use atl_model::{
    execute_with_faults, execution_context_digest, sweep_plans_resolve, ExecOutcome,
    ExecutionCache, FaultPlan, PlanFingerprint, Protocol,
};
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The header of an outcome-store frame.
const OUTCOME_HEADER: &str = "atl-outcome v1";

/// A persistent on-disk store of execution outcomes, one
/// [`atl_model::store`] frame per `(context digest, plan fingerprint)`
/// key.
///
/// Layout: `<dir>/<context:016x>-<fingerprint digest:016x>.outcome`,
/// each file framed as
///
/// ```text
/// atl-outcome v1
/// key <context:016x> <fingerprint wire rendering>
/// len <body bytes> sum <fnv-1a 64:016x>
/// <body: atl_model::wire::render_outcome>
/// ```
///
/// The full fingerprint rendering in the `key` line disambiguates any
/// (astronomically unlikely) digest collision and catches entries
/// renamed onto the wrong key. Loads verify the frame and fully reparse
/// the body; any failure deletes the entry and reports a miss.
pub struct OutcomeStore {
    frames: FrameStore,
}

impl OutcomeStore {
    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from `create_dir_all`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<OutcomeStore> {
        Ok(OutcomeStore {
            frames: FrameStore::open(dir)?,
        })
    }

    fn name(context: u64, fp: &PlanFingerprint) -> String {
        format!("{context:016x}-{:016x}.outcome", fp.digest())
    }

    fn key(context: u64, fp: &PlanFingerprint) -> String {
        format!("{context:016x} {}", fp.wire())
    }

    #[cfg(test)]
    fn entry_path(&self, context: u64, fp: &PlanFingerprint) -> PathBuf {
        self.frames.path(&Self::name(context, fp))
    }

    /// Loads the outcome stored under `(context, fp)`, or `None` on a
    /// miss. A present-but-invalid entry (truncated, bit-flipped, or
    /// keyed to something else) is removed and reported as a miss.
    pub fn load(&self, context: u64, fp: &PlanFingerprint) -> Option<ExecOutcome> {
        self.frames.read(
            &Self::name(context, fp),
            OUTCOME_HEADER,
            &Self::key(context, fp),
            |body| parse_outcome(body).ok(),
        )
    }

    /// Atomically persists `outcome` under `(context, fp)`. Concurrent
    /// writers of the same key write identical bytes, so whichever
    /// rename lands last is indistinguishable from the first.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from writing or renaming the temp file.
    pub fn save(
        &self,
        context: u64,
        fp: &PlanFingerprint,
        outcome: &ExecOutcome,
    ) -> io::Result<()> {
        self.frames.write(
            &Self::name(context, fp),
            OUTCOME_HEADER,
            &Self::key(context, fp),
            &render_outcome(outcome),
        )
    }

    /// How many committed entries the store holds (temp files excluded).
    pub fn len(&self) -> usize {
        self.frames.list("", ".outcome").len()
    }

    /// True if the store holds no committed entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How the coordinator shards, retries, and falls back.
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// Worker daemon addresses (`host:port`). Empty means every outcome
    /// is resolved from the store or locally.
    pub workers: Vec<String>,
    /// Directory of the persistent [`OutcomeStore`], if any.
    pub store: Option<PathBuf>,
    /// Most plans per shard (shards also split to respect the daemon's
    /// request-line cap).
    pub shard_plans: usize,
    /// Deadline for any single worker interaction (connect, load, one
    /// shard). A worker silent past this is treated as failed.
    pub deadline: Duration,
    /// How many times a shard is requeued after worker failures before
    /// it falls back to local execution.
    pub shard_retries: u32,
    /// Consecutive failures after which a worker is abandoned for the
    /// rest of the sweep.
    pub worker_failures: u32,
    /// Base backoff before a failed worker retries; doubles per
    /// consecutive failure (capped at 2 s).
    pub backoff: Duration,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            workers: Vec::new(),
            store: None,
            shard_plans: 16,
            deadline: Duration::from_secs(30),
            shard_retries: 3,
            worker_failures: 3,
            backoff: Duration::from_millis(50),
        }
    }
}

/// Where a fabric sweep's outcomes came from, and what it survived.
///
/// Printed to stderr by the CLI so stdout stays byte-identical to a
/// single-process sweep. Every counter is a `u64` (like [`ServeStats`] on
/// the daemon side) so long-lived coordinators on 32-bit hosts cannot
/// wrap, and each one counts *committed* work: a shard requeued after a
/// timeout contributes to `requeues` per failed submission, but its
/// entries reach `remote_resolved`/`local_resolved` exactly once — when
/// an execution actually resolves them.
///
/// [`ServeStats`]: crate::serve::ServeStats
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Workers configured.
    pub workers: u64,
    /// Shards dealt to the worker queue.
    pub shards: u64,
    /// Outcomes answered by the persistent store.
    pub store_hits: u64,
    /// Outcomes executed by remote workers.
    pub remote_resolved: u64,
    /// Outcomes executed in-process (no workers, lost workers, or
    /// exhausted shard retries).
    pub local_resolved: u64,
    /// Shard attempts requeued after a worker failure.
    pub requeues: u64,
    /// Workers abandoned after too many consecutive failures.
    pub workers_lost: u64,
}

impl fmt::Display for FabricStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fabric: {} shard(s) over {} worker(s); {} store hit(s), {} remote, {} local, \
             {} requeue(s), {} worker(s) lost",
            self.shards,
            self.workers,
            self.store_hits,
            self.remote_resolved,
            self.local_resolved,
            self.requeues,
            self.workers_lost
        )
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One plan's slot in a shard: where its outcome goes, its identity,
/// and its exact wire rendering.
struct ShardEntry {
    /// Index into the resolver's output vector.
    slot: usize,
    /// Index into the full plan list (for local re-execution).
    plan_idx: usize,
    fp: PlanFingerprint,
    line: String,
}

struct Shard {
    entries: Vec<ShardEntry>,
    attempts: u32,
}

/// Everything the worker threads share.
struct SweepShared<'a> {
    queue: Mutex<VecDeque<Shard>>,
    /// Shards not yet committed to `slots` or `leftover`.
    pending: AtomicUsize,
    slots: Mutex<Vec<Option<Arc<ExecOutcome>>>>,
    /// Shards that exhausted their retries (drained locally afterward).
    leftover: Mutex<Vec<Shard>>,
    store: Option<&'a OutcomeStore>,
    context: u64,
    spec_path: &'a str,
    config: &'a SweepConfig,
    fabric: &'a FabricConfig,
    requeues: AtomicU64,
    remote: AtomicU64,
    lost: AtomicU64,
}

/// Runs a fault sweep whose outcomes are resolved store → workers →
/// local, and reports where they came from. The returned report is
/// byte-identical to [`crate::sweep::fault_sweep`] on the same spec and
/// config.
///
/// `spec_path` is the path workers `LOAD`; the coordinator itself never
/// reads it. Store entries and shards are keyed by
/// [`execution_context_digest`] of `at` enacted under the sweep's policy
/// and options, so an edit the executor can see (a step, a key, the
/// policy) misses the store cleanly, while comment, goal and belief
/// edits still replay. Each shard carries that context, and a worker
/// whose `spec_path` enacts a different protocol refuses the shard, so
/// its outcomes are never merged or stored.
///
/// # Errors
///
/// Any [`io::Error`] from opening the store. Worker failures, a refused
/// shard included, are *not* errors — they are absorbed by requeue and
/// local fallback.
pub fn fabric_sweep(
    at: &AtProtocol,
    spec_path: &str,
    config: &SweepConfig,
    fabric: &FabricConfig,
    pool: &Pool,
) -> io::Result<(FaultSweepReport, FabricStats)> {
    let store = match &fabric.store {
        Some(dir) => Some(OutcomeStore::open(dir)?),
        None => None,
    };
    let proto = enact_with(
        at,
        EnactOptions {
            expect_policy: config.expect_policy,
        },
    );
    let context = execution_context_digest(&proto, &config.options);
    let plans = config.grid.plans();
    let mut stats = FabricStats {
        workers: fabric.workers.len() as u64,
        ..FabricStats::default()
    };
    // A fresh in-memory cache per sweep: the persistent store is the
    // cross-run memory, and a fresh cache keeps the printed SweepStats
    // line identical to a one-shot local sweep.
    let outcome = sweep_plans_resolve(context, &plans, &ExecutionCache::new(), |missing| {
        resolve_missing(
            &proto,
            spec_path,
            config,
            fabric,
            pool,
            store.as_ref(),
            context,
            &plans,
            missing,
            &mut stats,
        )
    });
    Ok((survival_report(at, outcome, pool), stats))
}

/// The fabric resolver: fills one outcome per missing fingerprint, in
/// order, sourcing each from the store, a worker, or local execution.
#[allow(clippy::too_many_arguments)]
fn resolve_missing(
    proto: &Protocol,
    spec_path: &str,
    config: &SweepConfig,
    fabric: &FabricConfig,
    pool: &Pool,
    store: Option<&OutcomeStore>,
    context: u64,
    plans: &[FaultPlan],
    missing: &[(usize, PlanFingerprint)],
    stats: &mut FabricStats,
) -> Vec<Arc<ExecOutcome>> {
    let mut slots: Vec<Option<Arc<ExecOutcome>>> = vec![None; missing.len()];

    // Store pass: anything a previous (possibly killed) sweep committed
    // is reused verbatim.
    let mut unresolved: Vec<ShardEntry> = Vec::new();
    for (slot, (plan_idx, fp)) in missing.iter().enumerate() {
        if let Some(hit) = store.and_then(|s| s.load(context, fp)) {
            stats.store_hits += 1;
            slots[slot] = Some(Arc::new(hit));
            continue;
        }
        unresolved.push(ShardEntry {
            slot,
            plan_idx: *plan_idx,
            fp: fp.clone(),
            line: render_plan(&plans[*plan_idx]),
        });
    }

    if !unresolved.is_empty() && !fabric.workers.is_empty() {
        let shards = build_shards(unresolved, fabric);
        stats.shards = shards.len() as u64;
        let shared = SweepShared {
            pending: AtomicUsize::new(shards.len()),
            queue: Mutex::new(shards.into()),
            slots: Mutex::new(slots),
            leftover: Mutex::new(Vec::new()),
            store,
            context,
            spec_path,
            config,
            fabric,
            requeues: AtomicU64::new(0),
            remote: AtomicU64::new(0),
            lost: AtomicU64::new(0),
        };
        std::thread::scope(|s| {
            for addr in &fabric.workers {
                let shared = &shared;
                s.spawn(move || worker_loop(addr, shared));
            }
        });
        stats.requeues = shared.requeues.load(Ordering::SeqCst);
        stats.remote_resolved = shared.remote.load(Ordering::SeqCst);
        stats.workers_lost = shared.lost.load(Ordering::SeqCst);
        slots = lock(&shared.slots).drain(..).collect();
        // Whatever the workers could not finish — exhausted retries, or
        // the whole fleet lost — drains locally below.
        unresolved = lock(&shared.queue)
            .drain(..)
            .chain(lock(&shared.leftover).drain(..))
            .flat_map(|shard| shard.entries)
            .collect();
        unresolved.sort_by_key(|e| e.slot);
    }

    // Local fallback (and the whole path when no workers are given):
    // execute over the pool exactly as a local sweep would.
    if !unresolved.is_empty() {
        stats.local_resolved = unresolved.len() as u64;
        let executed = pool.map(&unresolved, |_, entry| {
            Arc::new(execute_with_faults(
                proto,
                &config.options,
                &plans[entry.plan_idx],
            ))
        });
        for (entry, outcome) in unresolved.iter().zip(executed) {
            if let Some(store) = store {
                let _ = store.save(context, &entry.fp, &outcome);
            }
            slots[entry.slot] = Some(outcome);
        }
    }

    slots
        .into_iter()
        .map(|slot| slot.expect("fabric resolver filled every slot"))
        .collect()
}

/// Request-line budget for the plan list of one shard, leaving ample
/// headroom under [`MAX_REQUEST_BYTES`] for the verb, session id,
/// policy, and options.
const SHARD_LINE_BUDGET: usize = MAX_REQUEST_BYTES - 16 * 1024;

/// Deals entries into shards of at most `shard_plans` plans, splitting
/// early whenever the rendered request line would approach the daemon's
/// cap.
fn build_shards(entries: Vec<ShardEntry>, fabric: &FabricConfig) -> Vec<Shard> {
    let per_shard = fabric.shard_plans.max(1);
    let mut shards: Vec<Shard> = Vec::new();
    let mut current: Vec<ShardEntry> = Vec::new();
    let mut current_bytes = 0usize;
    for entry in entries {
        let cost = entry.line.len() + 1;
        if !current.is_empty()
            && (current.len() >= per_shard || current_bytes + cost > SHARD_LINE_BUDGET)
        {
            shards.push(Shard {
                entries: std::mem::take(&mut current),
                attempts: 0,
            });
            current_bytes = 0;
        }
        current_bytes += cost;
        current.push(entry);
    }
    if !current.is_empty() {
        shards.push(Shard {
            entries: current,
            attempts: 0,
        });
    }
    shards
}

/// How one attempt at a shard failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ShardFailure {
    /// The connection, probe, load, request or response failed: a retry
    /// may succeed.
    Transient,
    /// The worker refused the shard's execution context: it serves
    /// another protocol, and no retry changes that.
    Permanent,
}

/// One worker thread: pops shards, executes them on its daemon, and
/// commits the outcomes. Transient failures requeue the shard (bounded),
/// back off exponentially, and — after `worker_failures` consecutive
/// ones — abandon the worker. A permanent refusal abandons the worker
/// at once and returns the shard to the queue uncharged. The loop exits
/// when every shard is committed somewhere or the worker is abandoned; a
/// hung daemon cannot wedge it because every interaction is bounded by
/// the deadline.
fn worker_loop(addr_text: &str, shared: &SweepShared<'_>) {
    let mut conn: Option<(Client, u64)> = None;
    let mut consecutive: u32 = 0;
    loop {
        if shared.pending.load(Ordering::SeqCst) == 0 {
            return;
        }
        let Some(mut shard) = lock(&shared.queue).pop_front() else {
            // Other workers hold the remaining shards; stay available in
            // case one fails and requeues.
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };
        match try_shard(addr_text, shared, &mut conn, &shard) {
            Ok(outcomes) => {
                consecutive = 0;
                {
                    let mut slots = lock(&shared.slots);
                    for (entry, outcome) in shard.entries.iter().zip(outcomes) {
                        if let Some(store) = shared.store {
                            let _ = store.save(shared.context, &entry.fp, &outcome);
                        }
                        slots[entry.slot] = Some(Arc::new(outcome));
                    }
                }
                shared
                    .remote
                    .fetch_add(shard.entries.len() as u64, Ordering::SeqCst);
                shared.pending.fetch_sub(1, Ordering::SeqCst);
            }
            Err(ShardFailure::Permanent) => {
                lock(&shared.queue).push_front(shard);
                shared.lost.fetch_add(1, Ordering::SeqCst);
                return;
            }
            Err(ShardFailure::Transient) => {
                conn = None;
                consecutive += 1;
                shard.attempts += 1;
                if shard.attempts > shared.fabric.shard_retries {
                    lock(&shared.leftover).push(shard);
                    shared.pending.fetch_sub(1, Ordering::SeqCst);
                } else {
                    shared.requeues.fetch_add(1, Ordering::SeqCst);
                    lock(&shared.queue).push_back(shard);
                }
                if consecutive >= shared.fabric.worker_failures.max(1) {
                    shared.lost.fetch_add(1, Ordering::SeqCst);
                    return;
                }
                let exp = shared
                    .fabric
                    .backoff
                    .saturating_mul(1u32 << (consecutive - 1).min(5));
                std::thread::sleep(exp.min(Duration::from_secs(2)));
            }
        }
    }
}

/// One bounded attempt at one shard: (re)connect, health-probe, load the
/// spec, send the `SWEEP` request, and decode + verify the response.
fn try_shard(
    addr_text: &str,
    shared: &SweepShared<'_>,
    conn: &mut Option<(Client, u64)>,
    shard: &Shard,
) -> Result<Vec<ExecOutcome>, ShardFailure> {
    use ShardFailure::Transient;
    if conn.is_none() {
        let addr: SocketAddr = addr_text
            .to_socket_addrs()
            .map_err(|_| Transient)?
            .next()
            .ok_or(Transient)?;
        let deadline = shared.fabric.deadline;
        let mut client = Client::connect_timeout(addr, deadline).map_err(|_| Transient)?;
        client.set_timeout(Some(deadline)).map_err(|_| Transient)?;
        // Health probe: a daemon that accepts but cannot answer STATS is
        // as dead as one that refuses the connection.
        if !client.request("STATS").map_err(|_| Transient)?.ok {
            return Err(Transient);
        }
        let id = client.load(shared.spec_path).map_err(|_| Transient)?;
        *conn = Some((client, id));
    }
    let (client, id) = conn.as_mut().expect("connection established above");
    let request = format!(
        "SWEEP {id} {}",
        render_sweep_request(
            shared.context,
            &shared.config.expect_policy,
            &shared.config.options,
            shard.entries.iter().map(|e| e.line.as_str()),
        )
    );
    let resp = client.request(&request).map_err(|_| Transient)?;
    if !resp.ok {
        let refusal = resp.err_message().unwrap_or("");
        return Err(if refusal.starts_with(CONTEXT_MISMATCH) {
            ShardFailure::Permanent
        } else {
            Transient
        });
    }
    let digests: Vec<u64> = shard.entries.iter().map(|e| e.fp.digest()).collect();
    parse_sweep_response(&resp.lines, &digests).map_err(|_| Transient)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_spec;
    use crate::sweep::fault_sweep;
    use atl_model::{ExecOptions, ExpectPolicy, ModelError, SweepGrid};

    const TOY: &str = "protocol toy\n\
        principals A B\n\
        keys Kab\n\
        assume A believes (A <-Kab-> B)\n\
        assume A has Kab\n\
        assume B has Kab\n\
        step A -> B : {Na}Kab@A\n\
        goal B sees {Na}Kab@A\n";

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("atl-fabric-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn toy_outcomes() -> (PlanFingerprint, ExecOutcome, PlanFingerprint, ExecOutcome) {
        let (at, _) = parse_spec(TOY).expect("parse toy spec");
        let proto = enact_with(
            &at,
            EnactOptions {
                expect_policy: ExpectPolicy::skip_after(3),
            },
        );
        let clean_plan = FaultPlan::new(0);
        let clean = execute_with_faults(&proto, &ExecOptions::default(), &clean_plan);
        let failed: ExecOutcome = Err(ModelError::MalformedRun("fabricated\nfailure".into()));
        (
            PlanFingerprint::of(&clean_plan),
            clean,
            PlanFingerprint::of(&FaultPlan::new(0).drop(1.0)),
            failed,
        )
    }

    #[test]
    fn store_round_trips_ok_and_err_outcomes() {
        let dir = temp_dir("roundtrip");
        let store = OutcomeStore::open(&dir).expect("open");
        assert!(store.is_empty());
        let (fp_ok, ok, fp_err, failed) = toy_outcomes();
        store.save(7, &fp_ok, &ok).expect("save ok");
        store.save(7, &fp_err, &failed).expect("save err");
        assert_eq!(store.len(), 2);
        assert_eq!(store.load(7, &fp_ok), Some(ok));
        // Errors reconstitute to an identical rendering.
        let back = store
            .load(7, &fp_err)
            .expect("hit")
            .expect_err("err outcome");
        assert_eq!(back.to_string(), failed.expect_err("err").to_string());
        // A different context never aliases.
        assert_eq!(store.load(8, &fp_ok), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_discards_truncated_entry() {
        let dir = temp_dir("truncated");
        let store = OutcomeStore::open(&dir).expect("open");
        let (fp, ok, _, _) = toy_outcomes();
        store.save(1, &fp, &ok).expect("save");
        let path = store.entry_path(1, &fp);
        let text = std::fs::read_to_string(&path).expect("read entry");
        // Cut mid-body: the length frame no longer matches.
        std::fs::write(&path, &text[..text.len() - 10]).expect("truncate");
        assert_eq!(store.load(1, &fp), None);
        // The corrupt file was removed, so the store is self-healing.
        assert!(!path.exists());
        assert!(store.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_discards_garbage_and_bitflips() {
        let dir = temp_dir("garbage");
        let store = OutcomeStore::open(&dir).expect("open");
        let (fp, ok, _, _) = toy_outcomes();
        // Pure garbage at the right path.
        std::fs::write(store.entry_path(2, &fp), b"not an outcome at all\x00\xff").expect("write");
        assert_eq!(store.load(2, &fp), None);
        // A single flipped bit in the body fails the checksum.
        store.save(2, &fp, &ok).expect("save");
        let path = store.entry_path(2, &fp);
        let mut bytes = std::fs::read(&path).expect("read");
        let last = bytes.len() - 2;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).expect("flip");
        assert_eq!(store.load(2, &fp), None);
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_discards_entry_keyed_to_another_plan() {
        let dir = temp_dir("wrongkey");
        let store = OutcomeStore::open(&dir).expect("open");
        let (fp_ok, ok, fp_other, _) = toy_outcomes();
        store.save(3, &fp_ok, &ok).expect("save");
        // Rename the entry onto a different key: digest says one plan,
        // the embedded key line says another.
        std::fs::rename(store.entry_path(3, &fp_ok), store.entry_path(3, &fp_other))
            .expect("rename");
        assert_eq!(store.load(3, &fp_other), None);
        assert!(store.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_of_one_key_never_tear() {
        let dir = temp_dir("concurrent");
        let store = OutcomeStore::open(&dir).expect("open");
        let (fp, ok, _, _) = toy_outcomes();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let (store, fp, ok) = (&store, &fp, &ok);
                s.spawn(move || {
                    for _ in 0..20 {
                        store.save(4, fp, ok).expect("save");
                        // Interleaved loads must see a whole entry or a
                        // miss — never a torn one surviving validation.
                        if let Some(seen) = store.load(4, fp) {
                            assert_eq!(&seen, ok);
                        }
                    }
                });
            }
        });
        assert_eq!(store.load(4, &fp), Some(ok));
        assert_eq!(store.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shards_respect_count_and_byte_budgets() {
        let entry = |slot: usize, line: &str| ShardEntry {
            slot,
            plan_idx: slot,
            fp: PlanFingerprint::of(&FaultPlan::new(0)),
            line: line.to_string(),
        };
        let fabric = FabricConfig {
            shard_plans: 2,
            ..FabricConfig::default()
        };
        let shards = build_shards((0..5).map(|i| entry(i, "p")).collect(), &fabric);
        assert_eq!(
            shards.iter().map(|s| s.entries.len()).collect::<Vec<_>>(),
            vec![2, 2, 1]
        );
        // A huge rendering splits even below the plan count.
        let big = "x".repeat(SHARD_LINE_BUDGET - 1);
        let shards = build_shards(vec![entry(0, &big), entry(1, &big)], &fabric);
        assert_eq!(shards.len(), 2);
    }

    #[test]
    fn requeued_shards_count_once_per_execution_not_per_submission() {
        // A worker address that refuses every connect: the one shard is
        // submitted `shard_retries + 1` times (each failure requeues it,
        // except the last, which exhausts the retries), yet the outcome
        // counters must reflect executions only — every plan resolves
        // locally exactly once, and nothing is double-counted remote.
        let dead_addr = {
            let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind");
            listener.local_addr().expect("addr").to_string()
        };
        let spec = std::env::temp_dir().join(format!(
            "atl-fabric-unit-{}-requeue.atl",
            std::process::id()
        ));
        std::fs::write(&spec, TOY).expect("write spec");
        let (at, _) = parse_spec(TOY).expect("parse");
        let config = SweepConfig {
            grid: SweepGrid::new().seeds(0..3).drop_steps([0.5]),
            options: ExecOptions::default(),
            expect_policy: ExpectPolicy::skip_after(3),
        };
        let fabric = FabricConfig {
            workers: vec![dead_addr],
            shard_plans: 64,
            shard_retries: 2,
            worker_failures: 3,
            deadline: Duration::from_millis(200),
            backoff: Duration::from_millis(1),
            ..FabricConfig::default()
        };
        let pool = Pool::sequential();
        let (report, stats) = fabric_sweep(
            &at,
            spec.to_str().expect("utf8 path"),
            &config,
            &fabric,
            &pool,
        )
        .expect("sweep completes despite the dead worker");
        // 3 seeds × drop 0.5 = 3 unique fingerprints, all resolved
        // locally exactly once — 3 failed submissions inflate nothing.
        assert_eq!(stats.shards, 1, "{stats}");
        assert_eq!(stats.requeues, 2, "{stats}");
        assert_eq!(stats.workers_lost, 1, "{stats}");
        assert_eq!(stats.remote_resolved, 0, "{stats}");
        assert_eq!(stats.local_resolved, 3, "{stats}");
        assert_eq!(stats.store_hits, 0, "{stats}");
        // And the report is still byte-identical to a local sweep.
        assert_eq!(
            report.to_string(),
            fault_sweep(&at, &config, &pool).to_string()
        );
        let _ = std::fs::remove_file(&spec);
    }

    #[test]
    fn workerless_fabric_matches_local_sweep_and_resumes_from_store() {
        let dir = temp_dir("resume");
        let spec =
            std::env::temp_dir().join(format!("atl-fabric-unit-{}-resume.atl", std::process::id()));
        std::fs::write(&spec, TOY).expect("write spec");
        let (at, _) = parse_spec(TOY).expect("parse");
        let config = SweepConfig {
            grid: SweepGrid::new().seeds(0..2).drop_steps([0.0, 0.5, 1.0]),
            options: ExecOptions::default(),
            expect_policy: ExpectPolicy::skip_after(3),
        };
        let pool = Pool::sequential();
        let reference = fault_sweep(&at, &config, &pool).to_string();
        let fabric = FabricConfig {
            store: Some(dir.clone()),
            ..FabricConfig::default()
        };
        let spec_path = spec.to_str().expect("utf8 path");
        let (cold, cold_stats) =
            fabric_sweep(&at, spec_path, &config, &fabric, &pool).expect("cold sweep");
        assert_eq!(cold.to_string(), reference);
        assert_eq!(cold_stats.store_hits, 0);
        assert!(cold_stats.local_resolved > 0);
        // A second coordinator (as after a kill) resumes purely from the
        // store: no local execution, byte-identical report.
        let (warm, warm_stats) =
            fabric_sweep(&at, spec_path, &config, &fabric, &pool).expect("warm sweep");
        assert_eq!(warm.to_string(), reference);
        assert_eq!(warm_stats.local_resolved, 0);
        assert_eq!(warm_stats.store_hits, cold_stats.local_resolved);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&spec);
    }
}
