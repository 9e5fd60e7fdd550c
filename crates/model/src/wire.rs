//! A line-oriented wire/store codec for fault plans and execution
//! outcomes.
//!
//! The distributed sweep fabric moves two kinds of values between
//! processes: [`FaultPlan`]s travel coordinator → worker inside a
//! `SWEEP` request, and [`ExecOutcome`]s travel back (and into the
//! on-disk outcome store). Both directions must be *exact*: a plan that
//! round-trips through text has to execute to the very same run
//! (probabilities are carried as f64 bit patterns, never decimal), and
//! an outcome that round-trips has to compare equal to the locally
//! computed one, so distributed sweep reports stay byte-identical to
//! single-process ones.
//!
//! The `SWEEP` exchange itself is framed here as well, so the fabric
//! coordinator and the daemon speak one codec: [`render_sweep_request`]
//! and [`parse_sweep_request`] carry the request body (execution
//! context, expect policy, executor options, plan list), and
//! [`render_sweep_response`] and [`parse_sweep_response`] the `plans
//! <n>` / `outcome <i> fp=<hex> lines=<n>` response.
//!
//! Renderings are ASCII, one logical record per line. Free-form text
//! (fault details, key names, error messages) is percent-escaped so a
//! record never gains an accidental newline or field separator; runs are
//! embedded via [`render_trace`]/[`parse_trace`] with an explicit line
//! count for framing. Errors reconstitute as
//! [`ModelError::Reconstituted`], which displays the original rendering
//! verbatim.
//!
//! Parsing is paranoid by design: every length is checked, every field
//! must parse, and trailing garbage is an error — a truncated or
//! bit-flipped record must be *rejected*, not half-trusted, because the
//! outcome store treats any [`WireError`] as "discard and recompute".

use crate::error::ModelError;
use crate::executor::ExecOptions;
use crate::faults::{AbandonedStep, ExecReport, FaultEvent, FaultKind, FaultPlan};
use crate::protocol::{ExpectPolicy, OnTimeout};
use crate::store::{parse_frame, render_frame};
use crate::sweep::{ExecOutcome, PlanResult};
use crate::trace::{parse_trace, render_trace};
use atl_lang::{Key, Principal};
use std::error::Error;
use std::fmt;

/// Error produced when a wire record fails to parse or verify.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire: {}", self.0)
    }
}

impl Error for WireError {}

fn err(message: impl Into<String>) -> WireError {
    WireError(message.into())
}

/// Percent-escapes `text` so the result contains only printable ASCII
/// with no whitespace and no `%`, `;`, `,`, `@` (the separators the
/// plan/outcome grammars use). The empty string renders as `%` alone so
/// every field stays a non-empty token.
pub fn escape(text: &str) -> String {
    if text.is_empty() {
        return "%".to_string();
    }
    let mut out = String::with_capacity(text.len());
    for &b in text.as_bytes() {
        let plain = b.is_ascii_graphic() && !matches!(b, b'%' | b';' | b',' | b'@');
        if plain {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02x}"));
        }
    }
    out
}

/// Reverses [`escape`].
///
/// # Errors
///
/// [`WireError`] on a malformed `%` sequence, embedded whitespace, or
/// invalid UTF-8 after unescaping.
pub fn unescape(token: &str) -> Result<String, WireError> {
    if token == "%" {
        return Ok(String::new());
    }
    let bytes = token.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| err(format!("truncated escape in {token:?}")))?;
            let hex = std::str::from_utf8(hex).map_err(|_| err("non-ASCII escape"))?;
            out.push(
                u8::from_str_radix(hex, 16)
                    .map_err(|_| err(format!("bad escape %{hex} in {token:?}")))?,
            );
            i += 3;
        } else if b.is_ascii_graphic() {
            out.push(b);
            i += 1;
        } else {
            return Err(err(format!("raw byte {b:#04x} in escaped token {token:?}")));
        }
    }
    String::from_utf8(out).map_err(|_| err(format!("invalid UTF-8 after unescaping {token:?}")))
}

/// Renders a plan as one line of exact fields: the seed, the five
/// probabilities as f64 bit patterns (so fractional grid steps survive
/// the round-trip bit-for-bit), the delay duration, and the compromise
/// schedule with percent-escaped key names.
pub fn render_plan(plan: &FaultPlan) -> String {
    let bits = |p: f64| format!("{:016x}", p.to_bits());
    let mut out = format!(
        "seed={} probs={},{},{},{},{} rounds={}",
        plan.seed,
        bits(plan.drop_p),
        bits(plan.duplicate_p),
        bits(plan.delay_p),
        bits(plan.reorder_p),
        bits(plan.replay_p),
        plan.delay_rounds
    );
    if !plan.compromises.is_empty() {
        let comps: Vec<String> = plan
            .compromises
            .iter()
            .map(|(k, t)| format!("{}@{t}", escape(&k.to_string())))
            .collect();
        out.push_str(&format!(" comp={}", comps.join(",")));
    }
    out
}

/// Parses the rendering of [`render_plan`] back into a plan.
///
/// # Errors
///
/// [`WireError`] on any missing, duplicate, or malformed field.
pub fn parse_plan(text: &str) -> Result<FaultPlan, WireError> {
    let mut seed: Option<u64> = None;
    let mut probs: Option<[f64; 5]> = None;
    let mut rounds: Option<u32> = None;
    let mut compromises: Vec<(Key, i64)> = Vec::new();
    for token in text.split_whitespace() {
        let (field, value) = token
            .split_once('=')
            .ok_or_else(|| err(format!("plan token {token:?} has no `=`")))?;
        match field {
            "seed" => {
                seed = Some(value.parse().map_err(|e| err(format!("plan seed: {e}")))?);
            }
            "probs" => {
                let parts: Vec<&str> = value.split(',').collect();
                if parts.len() != 5 {
                    return Err(err(format!(
                        "expected 5 probabilities, got {}",
                        parts.len()
                    )));
                }
                let mut ps = [0.0f64; 5];
                for (slot, part) in ps.iter_mut().zip(&parts) {
                    let bits = u64::from_str_radix(part, 16)
                        .map_err(|e| err(format!("probability bits {part:?}: {e}")))?;
                    *slot = f64::from_bits(bits);
                }
                probs = Some(ps);
            }
            "rounds" => {
                rounds = Some(
                    value
                        .parse()
                        .map_err(|e| err(format!("plan rounds: {e}")))?,
                );
            }
            "comp" => {
                for entry in value.split(',') {
                    let (key, t) = entry
                        .split_once('@')
                        .ok_or_else(|| err(format!("compromise {entry:?} has no `@`")))?;
                    compromises.push((
                        Key::new(unescape(key)?),
                        t.parse()
                            .map_err(|e| err(format!("compromise time: {e}")))?,
                    ));
                }
            }
            other => return Err(err(format!("unknown plan field {other:?}"))),
        }
    }
    let (Some(seed), Some([drop, dup, delay, reorder, replay]), Some(rounds)) =
        (seed, probs, rounds)
    else {
        return Err(err(format!("plan {text:?} is missing required fields")));
    };
    let mut plan = FaultPlan::new(seed)
        .drop(drop)
        .duplicate(dup)
        .delay(delay, rounds)
        .reorder(reorder)
        .replay(replay);
    plan.compromises = compromises;
    Ok(plan)
}

/// Renders a plan list as the `;`-separated form the serve protocol's
/// `SWEEP` verb carries in its `plans=` field.
pub fn render_plan_list<'a>(plans: impl IntoIterator<Item = &'a FaultPlan>) -> String {
    plans
        .into_iter()
        .map(render_plan)
        .collect::<Vec<_>>()
        .join(";")
}

/// Parses a `;`-separated plan list (the `plans=` field of a `SWEEP`
/// request). Empty segments — including a trailing separator — are
/// skipped, so an empty input parses to an empty list; whether that is
/// acceptable is the caller's call.
///
/// # Errors
///
/// The first [`WireError`] from [`parse_plan`] over the segments.
pub fn parse_plan_list(text: &str) -> Result<Vec<FaultPlan>, WireError> {
    text.split(';')
        .map(str::trim)
        .filter(|part| !part.is_empty())
        .map(parse_plan)
        .collect()
}

/// Renders an [`ExpectPolicy`] for the `SWEEP` request line:
/// `<patience|->:<stall|skip|resend:<retries>>`.
pub fn render_policy(policy: &ExpectPolicy) -> String {
    let patience = match policy.patience {
        Some(p) => p.to_string(),
        None => "-".to_string(),
    };
    let timeout = match policy.on_timeout {
        OnTimeout::Stall => "stall".to_string(),
        OnTimeout::Skip => "skip".to_string(),
        OnTimeout::Resend { max_retries } => format!("resend:{max_retries}"),
    };
    format!("{patience}:{timeout}")
}

/// Reverses [`render_policy`].
///
/// # Errors
///
/// The daemon's `ERR` text for a malformed policy.
fn parse_policy(text: &str) -> Result<ExpectPolicy, String> {
    let (patience, timeout) = text
        .split_once(':')
        .ok_or_else(|| format!("bad policy {text:?}"))?;
    let patience = match patience {
        "-" => None,
        p => Some(p.parse().map_err(|e| format!("policy patience: {e}"))?),
    };
    let on_timeout = match timeout {
        "stall" => OnTimeout::Stall,
        "skip" => OnTimeout::Skip,
        resend => match resend.split_once(':') {
            Some(("resend", r)) => OnTimeout::Resend {
                max_retries: r.parse().map_err(|e| format!("policy retries: {e}"))?,
            },
            _ => return Err(format!("bad policy timeout {timeout:?}")),
        },
    };
    Ok(ExpectPolicy {
        patience,
        on_timeout,
    })
}

/// Renders [`ExecOptions`] for the `SWEEP` request line:
/// `<start-time>:<0|1 public>:<schedule csv|->`.
pub fn render_exec_options(options: &ExecOptions) -> String {
    let schedule = if options.schedule.is_empty() {
        "-".to_string()
    } else {
        options
            .schedule
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{}:{}:{}",
        options.start_time,
        u8::from(options.public_channel),
        schedule
    )
}

/// Reverses [`render_exec_options`].
///
/// # Errors
///
/// The daemon's `ERR` text for malformed options.
fn parse_exec_options(text: &str) -> Result<ExecOptions, String> {
    let mut parts = text.split(':');
    let (Some(start), Some(public), Some(schedule), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(format!("bad options {text:?}"));
    };
    let schedule = if schedule == "-" {
        Vec::new()
    } else {
        schedule
            .split(',')
            .map(|s| s.parse().map_err(|e| format!("options schedule: {e}")))
            .collect::<Result<Vec<usize>, String>>()?
    };
    Ok(ExecOptions {
        start_time: start
            .parse()
            .map_err(|e| format!("options start time: {e}"))?,
        public_channel: match public {
            "0" => false,
            "1" => true,
            other => return Err(format!("options public flag {other:?} is not 0/1")),
        },
        schedule,
    })
}

/// Renders the body of a `SWEEP` request, everything after the session
/// id: `context=<c:016x> policy=<p> options=<o> plans=<plan>;<plan>;…`,
/// where `context` is the coordinator's
/// [`execution_context_digest`](crate::execution_context_digest) and
/// each plan is its [`render_plan`] line.
pub fn render_sweep_request<'a>(
    context: u64,
    policy: &ExpectPolicy,
    options: &ExecOptions,
    plan_lines: impl IntoIterator<Item = &'a str>,
) -> String {
    let mut body = format!(
        "context={context:016x} policy={} options={} plans=",
        render_policy(policy),
        render_exec_options(options)
    );
    for (i, line) in plan_lines.into_iter().enumerate() {
        if i > 0 {
            body.push(';');
        }
        body.push_str(line);
    }
    body
}

/// Reverses [`render_sweep_request`] into the context (`None` when the
/// request names none), policy, options and plans. `context=`,
/// `policy=` and `options=` may come in any order, but all before
/// `plans=`, which takes the rest of the line.
///
/// # Errors
///
/// The daemon's `ERR` text for a malformed request, or for one that
/// carries no plans.
pub fn parse_sweep_request(
    text: &str,
) -> Result<(Option<u64>, ExpectPolicy, ExecOptions, Vec<FaultPlan>), String> {
    let (head, plans_text) = text
        .split_once("plans=")
        .ok_or("SWEEP needs a plans= field")?;
    let (mut context, mut policy, mut options) = (None, None, None);
    for token in head.split_whitespace() {
        let (field, value) = token
            .split_once('=')
            .ok_or_else(|| format!("bad SWEEP field {token:?}"))?;
        match field {
            "context" => {
                context = Some(
                    u64::from_str_radix(value, 16).map_err(|e| format!("SWEEP context: {e}"))?,
                );
            }
            "policy" => policy = Some(parse_policy(value)?),
            "options" => options = Some(parse_exec_options(value)?),
            other => return Err(format!("unknown SWEEP field {other:?}")),
        }
    }
    let (Some(policy), Some(options)) = (policy, options) else {
        return Err("SWEEP needs policy= and options= before plans=".to_string());
    };
    let plans = parse_plan_list(plans_text).map_err(|e| e.to_string())?;
    if plans.is_empty() {
        return Err("SWEEP shard carries no plans".to_string());
    }
    Ok((context, policy, options, plans))
}

/// Renders the payload of a `SWEEP` response: `plans <n>`, then for each
/// result in order an `outcome <i> fp=<digest:016x> lines=<n>` header
/// followed by the `n` lines of its [`render_outcome`].
pub fn render_sweep_response(results: &[PlanResult]) -> Vec<String> {
    let mut lines = vec![format!("plans {}", results.len())];
    for (i, r) in results.iter().enumerate() {
        let rendered = render_outcome(&r.outcome);
        let body: Vec<&str> = rendered.lines().collect();
        lines.push(format!(
            "outcome {i} fp={:016x} lines={}",
            r.fingerprint.digest(),
            body.len()
        ));
        lines.extend(body.into_iter().map(str::to_string));
    }
    lines
}

/// Reverses [`render_sweep_response`] into one outcome per expected
/// plan, verifying the count, the ordering, and each fingerprint digest
/// against `expected` — a worker answering for the wrong plans (stale
/// spec, broken dedup) is an error, not silent corruption.
///
/// # Errors
///
/// What is wrong with the response, as text.
pub fn parse_sweep_response(
    lines: &[String],
    expected: &[u64],
) -> Result<Vec<ExecOutcome>, String> {
    let mut it = lines.iter();
    let header = it.next().ok_or("empty SWEEP response")?;
    let count: usize = header
        .strip_prefix("plans ")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("bad SWEEP response header {header:?}"))?;
    if count != expected.len() {
        return Err(format!(
            "SWEEP response carries {count} outcome(s), expected {}",
            expected.len()
        ));
    }
    let mut outcomes = Vec::with_capacity(count);
    for (i, &digest) in expected.iter().enumerate() {
        let head = it
            .next()
            .ok_or_else(|| format!("truncated SWEEP response at outcome {i}"))?;
        let mut parts = head.split_whitespace();
        let (Some("outcome"), Some(idx), Some(fp), Some(len), None) = (
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
        ) else {
            return Err(format!("bad outcome header {head:?}"));
        };
        if idx.parse() != Ok(i) {
            return Err(format!("outcome {i} answered out of order: {head:?}"));
        }
        let fp = fp
            .strip_prefix("fp=")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("bad fingerprint in {head:?}"))?;
        if fp != digest {
            return Err(format!(
                "outcome {i} fingerprint {fp:016x} does not match expected {digest:016x}"
            ));
        }
        let len: usize = len
            .strip_prefix("lines=")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("bad line count in {head:?}"))?;
        let mut body = String::new();
        for _ in 0..len {
            body.push_str(
                it.next()
                    .ok_or_else(|| format!("truncated outcome {i} body"))?,
            );
            body.push('\n');
        }
        outcomes.push(parse_outcome(&body).map_err(|e| e.to_string())?);
    }
    if it.next().is_some() {
        return Err("trailing lines after SWEEP response".to_string());
    }
    Ok(outcomes)
}

/// Renders one execution outcome as framed text (every line
/// newline-terminated). Successful outcomes carry the [`ExecReport`]
/// fields and the run in trace format with an explicit line count;
/// failures carry the error's display string.
pub fn render_outcome(outcome: &ExecOutcome) -> String {
    use std::fmt::Write as _;
    match outcome {
        Ok((run, report)) => {
            let trace = render_trace(run);
            let trace_lines: Vec<&str> = trace.lines().collect();
            let mut out = format!(
                "ok retries={} rounds={} faults={} abandoned={} trace={}\n",
                report.retries,
                report.rounds,
                report.faults.len(),
                report.abandoned.len(),
                trace_lines.len()
            );
            for f in &report.faults {
                let _ = writeln!(out, "fault {} {} {}", f.time, f.kind, escape(&f.detail));
            }
            for a in &report.abandoned {
                let _ = writeln!(
                    out,
                    "abandon {} {} {}",
                    escape(&a.principal.to_string()),
                    a.step_index,
                    escape(&a.detail)
                );
            }
            for line in trace_lines {
                let _ = writeln!(out, "{line}");
            }
            out
        }
        Err(e) => format!("err {}\n", escape(&e.to_string())),
    }
}

/// Parses the rendering of [`render_outcome`]. Errors come back as
/// [`ModelError::Reconstituted`], which displays identically to the
/// original error.
///
/// # Errors
///
/// [`WireError`] if the header, counts, fault/abandon records, or the
/// embedded trace fail to parse, or if trailing garbage follows the
/// declared payload.
pub fn parse_outcome(text: &str) -> Result<ExecOutcome, WireError> {
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| err("empty outcome"))?;
    if let Some(message) = header.strip_prefix("err ") {
        if lines.next().is_some() {
            return Err(err("trailing lines after error record"));
        }
        return Ok(Err(ModelError::Reconstituted(unescape(message.trim())?)));
    }
    let rest = header
        .strip_prefix("ok ")
        .ok_or_else(|| err(format!("bad outcome header {header:?}")))?;
    let mut retries: Option<u32> = None;
    let mut rounds: Option<u32> = None;
    let mut faults: Option<usize> = None;
    let mut abandoned: Option<usize> = None;
    let mut trace: Option<usize> = None;
    for token in rest.split_whitespace() {
        let (field, value) = token
            .split_once('=')
            .ok_or_else(|| err(format!("outcome token {token:?} has no `=`")))?;
        let slot = match field {
            "retries" => &mut retries,
            "rounds" => &mut rounds,
            _ => {
                let slot = match field {
                    "faults" => &mut faults,
                    "abandoned" => &mut abandoned,
                    "trace" => &mut trace,
                    other => return Err(err(format!("unknown outcome field {other:?}"))),
                };
                *slot = Some(value.parse().map_err(|e| err(format!("{field}: {e}")))?);
                continue;
            }
        };
        *slot = Some(value.parse().map_err(|e| err(format!("{field}: {e}")))?);
    }
    let (Some(retries), Some(rounds), Some(faults), Some(abandoned), Some(trace)) =
        (retries, rounds, faults, abandoned, trace)
    else {
        return Err(err("outcome header is missing required fields"));
    };

    let mut report = ExecReport {
        retries,
        rounds,
        ..ExecReport::default()
    };
    for _ in 0..faults {
        let line = lines.next().ok_or_else(|| err("truncated fault records"))?;
        let mut parts = line.split_whitespace();
        let (Some("fault"), Some(time), Some(kind), Some(detail), None) = (
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
        ) else {
            return Err(err(format!("bad fault record {line:?}")));
        };
        report.faults.push(FaultEvent {
            time: time.parse().map_err(|e| err(format!("fault time: {e}")))?,
            kind: kind.parse::<FaultKind>().map_err(err)?,
            detail: unescape(detail)?,
        });
    }
    for _ in 0..abandoned {
        let line = lines
            .next()
            .ok_or_else(|| err("truncated abandon records"))?;
        let mut parts = line.split_whitespace();
        let (Some("abandon"), Some(principal), Some(step), Some(detail), None) = (
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
        ) else {
            return Err(err(format!("bad abandon record {line:?}")));
        };
        report.abandoned.push(AbandonedStep {
            principal: Principal::new(unescape(principal)?),
            step_index: step
                .parse()
                .map_err(|e| err(format!("abandon step: {e}")))?,
            detail: unescape(detail)?,
        });
    }
    let mut trace_text = String::new();
    for _ in 0..trace {
        let line = lines.next().ok_or_else(|| err("truncated trace"))?;
        trace_text.push_str(line);
        trace_text.push('\n');
    }
    if lines.next().is_some() {
        return Err(err("trailing lines after outcome payload"));
    }
    let (run, _) = parse_trace(&trace_text).map_err(|e| err(format!("embedded trace: {e}")))?;
    Ok(Ok((run, report)))
}

/// A monitor session's durable state: the watched formula texts plus
/// every raw trace line fed so far, in order.
///
/// A monitor is resumed by *replay* — re-feeding the recorded lines
/// through the same [`crate::TraceFeed`] path a live session uses — so
/// the checkpoint stores inputs, not derived state, and a resumed
/// session is byte-identical to one that never went down.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MonitorCheckpoint {
    /// The session id the daemon assigned.
    pub id: u64,
    /// The monitor's name (the protocol name in its summary).
    pub name: String,
    /// The formula texts the session watches, as given to `MONITOR`.
    pub formulas: Vec<String>,
    /// Every raw line fed to the session so far, in ingestion order.
    pub lines: Vec<String>,
}

/// FNV-1a 64 over `data`, the repository's one digest function. It
/// checksums every [`crate::store`] frame (outcome-store entries, hunt
/// corpora, monitor checkpoints) against truncation and bit rot, and it
/// computes every key that is written to disk or sent on the wire:
/// [`PlanFingerprint::digest`](crate::PlanFingerprint::digest),
/// [`execution_context_digest`](crate::execution_context_digest) and
/// the serve daemon's canonical-spec digest. Its output is fixed by the
/// published algorithm, unlike the standard library's default hasher,
/// whose algorithm may change between Rust releases and would silently
/// orphan stored entries (the root `clippy.toml` forbids it).
pub fn fnv64(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in data {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The header of a monitor checkpoint frame.
pub const CHECKPOINT_HEADER: &str = "atl-monitor v2";

/// Renders a checkpoint as a [`crate::store`] frame: header
/// [`CHECKPOINT_HEADER`], the session id as the key, and
/// [`checkpoint_body`] as the body, so a truncated or bit-flipped file
/// is rejected, not half-replayed.
pub fn render_checkpoint(cp: &MonitorCheckpoint) -> String {
    render_frame(CHECKPOINT_HEADER, &cp.id.to_string(), &checkpoint_body(cp))
}

/// Reverses [`render_checkpoint`].
///
/// # Errors
///
/// [`WireError`] on a frame that fails [`parse_frame`], a bad id, or a
/// body [`parse_checkpoint_body`] rejects.
pub fn parse_checkpoint(text: &str) -> Result<MonitorCheckpoint, WireError> {
    let (key, body) = parse_frame(CHECKPOINT_HEADER, text)?;
    let id = key
        .parse()
        .map_err(|e| err(format!("checkpoint id {key:?}: {e}")))?;
    parse_checkpoint_body(id, body)
}

/// A checkpoint's frame body: a `name <name> formulas <n>` line, then
/// the `n` formula texts and the fed trace lines, one percent-escaped
/// text per line.
pub fn checkpoint_body(cp: &MonitorCheckpoint) -> String {
    let mut body = format!("name {} formulas {}\n", escape(&cp.name), cp.formulas.len());
    for text in cp.formulas.iter().chain(&cp.lines) {
        body.push_str(&escape(text));
        body.push('\n');
    }
    body
}

/// Reverses [`checkpoint_body`] for the session `id`.
///
/// # Errors
///
/// [`WireError`] on a bad name line, fewer formulas than it counts, or a
/// malformed escape.
pub fn parse_checkpoint_body(id: u64, body: &str) -> Result<MonitorCheckpoint, WireError> {
    let mut lines = body.lines();
    let head = lines.next().unwrap_or_default();
    let (name, count) = head
        .strip_prefix("name ")
        .and_then(|rest| rest.split_once(" formulas "))
        .ok_or_else(|| err(format!("bad checkpoint name line {head:?}")))?;
    let count: usize = count
        .parse()
        .map_err(|e| err(format!("formula count: {e}")))?;
    let mut texts = lines.map(unescape);
    let formulas: Vec<String> = texts.by_ref().take(count).collect::<Result<_, _>>()?;
    if formulas.len() != count {
        return Err(err("checkpoint holds fewer formulas than it counts"));
    }
    Ok(MonitorCheckpoint {
        id,
        name: unescape(name)?,
        formulas,
        lines: texts.collect::<Result<_, _>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{execute_with_faults, ExecOptions};
    use crate::protocol::{ExpectPolicy, Protocol, Role};
    use atl_lang::{Message, Nonce};

    fn lossy() -> Protocol {
        Protocol::new("lossy")
            .role(
                Role::new("A", [])
                    .send(Message::nonce(Nonce::new("ping")), "B")
                    .expect_with(
                        Message::nonce(Nonce::new("pong")),
                        ExpectPolicy::resend_after(2, 1),
                    ),
            )
            .role(
                Role::new("B", [])
                    .expect_with(
                        Message::nonce(Nonce::new("ping")),
                        ExpectPolicy::skip_after(3),
                    )
                    .send(Message::nonce(Nonce::new("pong")), "A"),
            )
    }

    #[test]
    fn escape_round_trips_hostile_text() {
        for text in [
            "",
            "plain",
            "with space",
            "semi;colon,comma@at%percent",
            "new\nline\ttab",
            "unicode: Kαβ→",
        ] {
            let escaped = escape(text);
            assert!(
                escaped
                    .bytes()
                    .all(|b| b.is_ascii_graphic() && !matches!(b, b';' | b',' | b'@')),
                "{escaped:?} leaks separators"
            );
            assert_eq!(unescape(&escaped).expect("unescape"), text);
        }
        assert!(unescape("%zz").is_err());
        assert!(unescape("%1").is_err());
        assert!(unescape("a b").is_err());
    }

    #[test]
    fn plan_round_trip_is_bit_exact() {
        // 0.1 has no finite decimal representation: only a bit-pattern
        // rendering survives exactly.
        let mut plan = FaultPlan::new(u64::MAX)
            .drop(0.1)
            .duplicate(0.30000000000000004)
            .delay(f64::MIN_POSITIVE, 9)
            .reorder(1.0)
            .replay(0.625);
        plan.compromises = vec![(Key::new("Kab"), -3), (Key::new("K with space"), 2)];
        let rendered = render_plan(&plan);
        assert_eq!(rendered.lines().count(), 1, "plans are single-line");
        let parsed = parse_plan(&rendered).expect("parse");
        assert_eq!(parsed, plan);
        assert_eq!(parsed.drop_p.to_bits(), plan.drop_p.to_bits());
        // Inert plan: no comp field at all.
        let inert = FaultPlan::new(0);
        assert_eq!(parse_plan(&render_plan(&inert)).expect("parse"), inert);
    }

    #[test]
    fn plan_list_round_trips_and_skips_empty_segments() {
        let plans = vec![
            FaultPlan::new(0),
            FaultPlan::new(7).drop(0.5),
            FaultPlan::new(1).replay(1.0),
        ];
        let rendered = render_plan_list(&plans);
        assert_eq!(rendered.matches(';').count(), 2);
        assert_eq!(parse_plan_list(&rendered).expect("parse"), plans);
        // Trailing and doubled separators are harmless; pure emptiness
        // parses to the empty list.
        let sloppy = format!("{rendered};; ;");
        assert_eq!(parse_plan_list(&sloppy).expect("parse"), plans);
        assert_eq!(parse_plan_list("").expect("parse"), Vec::<FaultPlan>::new());
        // A bad segment fails the whole list.
        assert!(parse_plan_list(&format!("{rendered};garbage")).is_err());
    }

    #[test]
    fn plan_parse_rejects_malformed_input() {
        for bad in [
            "",
            "seed=1",
            "seed=x probs=0,0,0,0,0 rounds=2",
            "seed=1 probs=0,0,0,0 rounds=2",
            "seed=1 probs=0,0,0,0,zz rounds=2",
            "seed=1 probs=0,0,0,0,0 rounds=2 comp=Kab",
            "seed=1 probs=0,0,0,0,0 rounds=2 frob=1",
        ] {
            assert!(parse_plan(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn policy_and_options_render_parse_round_trip() {
        for policy in [
            ExpectPolicy::wait_forever(),
            ExpectPolicy::skip_after(7),
            ExpectPolicy::resend_after(3, 2),
            ExpectPolicy {
                patience: Some(4),
                on_timeout: OnTimeout::Stall,
            },
        ] {
            let rendered = render_policy(&policy);
            assert_eq!(parse_policy(&rendered), Ok(policy), "{rendered}");
        }
        assert!(parse_policy("7").is_err());
        assert!(parse_policy("x:skip").is_err());
        assert!(parse_policy("3:resend").is_err());
        for options in [
            ExecOptions::default(),
            ExecOptions {
                start_time: -4,
                public_channel: true,
                schedule: vec![1, 0, 1],
            },
        ] {
            let rendered = render_exec_options(&options);
            let parsed = parse_exec_options(&rendered).expect("options parse");
            assert_eq!(parsed.start_time, options.start_time, "{rendered}");
            assert_eq!(parsed.public_channel, options.public_channel);
            assert_eq!(parsed.schedule, options.schedule);
        }
        assert!(parse_exec_options("0:2:-").is_err());
        assert!(parse_exec_options("0:1").is_err());
    }

    #[test]
    fn sweep_request_round_trips_and_rejects_malformed_bodies() {
        let plans = [FaultPlan::new(0), FaultPlan::new(1).drop(1.0)];
        let policy = ExpectPolicy::skip_after(3);
        let options = ExecOptions {
            public_channel: true,
            ..ExecOptions::default()
        };
        let lines: Vec<String> = plans.iter().map(render_plan).collect();
        let body = render_sweep_request(
            0x0123_abcd,
            &policy,
            &options,
            lines.iter().map(String::as_str),
        );
        assert!(body.starts_with("context=000000000123abcd "), "{body}");
        let (c, p, o, back) = parse_sweep_request(&body).expect("request parses");
        assert_eq!(
            (c, p, o.public_channel, back.as_slice()),
            (Some(0x0123_abcd), policy, true, &plans[..])
        );
        // The hand-written form other clients send parses too, with or
        // without a context.
        let hand = format!(
            "options=0:0:- policy=6:resend:2 plans={}",
            render_plan(&plans[0])
        );
        let (c, p, _, _) = parse_sweep_request(&hand).expect("hand-written request");
        assert_eq!((c, p), (None, ExpectPolicy::resend_after(6, 2)));
        for (bad, message) in [
            ("policy=3:skip options=0:0:-", "SWEEP needs a plans= field"),
            (
                "policy=3:skip plans=seed=0",
                "SWEEP needs policy= and options= before plans=",
            ),
            (
                "policy=3:skip options=0:0:- plans=",
                "SWEEP shard carries no plans",
            ),
            ("policy options=0:0:- plans=", "bad SWEEP field \"policy\""),
            ("frob=1 plans=", "unknown SWEEP field \"frob\""),
            (
                "context=xyz policy=3:skip options=0:0:- plans=",
                "SWEEP context: invalid digit found in string",
            ),
        ] {
            assert_eq!(
                parse_sweep_request(bad).map(|_| ()),
                Err(message.to_string()),
                "{bad}"
            );
        }
        assert!(parse_sweep_request("policy=3:skip options=0:0:- plans=garbage").is_err());
    }

    #[test]
    fn sweep_response_decoding_rejects_mismatches() {
        let lines = |v: &[&str]| v.iter().map(|s| (*s).to_string()).collect::<Vec<_>>();
        // Wrong count, bad header, fingerprint mismatch, truncation.
        assert!(parse_sweep_response(&lines(&[]), &[1]).is_err());
        assert!(parse_sweep_response(&lines(&["plans 2"]), &[1]).is_err());
        assert!(parse_sweep_response(&lines(&["plans 1", "huh"]), &[1]).is_err());
        assert!(parse_sweep_response(
            &lines(&["plans 1", "outcome 0 fp=00000000000000ff lines=1", "err %"]),
            &[1]
        )
        .is_err());
        assert!(parse_sweep_response(
            &lines(&["plans 1", "outcome 0 fp=0000000000000001 lines=3", "err %"]),
            &[1]
        )
        .is_err());
        // A well-formed error outcome decodes.
        let ok = parse_sweep_response(
            &lines(&[
                "plans 1",
                "outcome 0 fp=0000000000000001 lines=1",
                "err boom",
            ]),
            &[1],
        )
        .expect("decode");
        assert_eq!(ok[0].as_ref().expect_err("err").to_string(), "boom");
        // Trailing garbage is rejected.
        assert!(parse_sweep_response(
            &lines(&[
                "plans 1",
                "outcome 0 fp=0000000000000001 lines=1",
                "err boom",
                "extra"
            ]),
            &[1]
        )
        .is_err());
    }

    #[test]
    fn sweep_response_round_trips_executed_plans() {
        let plans = [FaultPlan::new(0), FaultPlan::new(3).drop(0.6)];
        let outcome = crate::sweep::sweep_plans_on(
            &lossy(),
            &ExecOptions::default(),
            &plans,
            &crate::parallel::Pool::sequential(),
            &crate::sweep::ExecutionCache::new(),
        );
        let lines = render_sweep_response(&outcome.results);
        let digests: Vec<u64> = outcome
            .results
            .iter()
            .map(|r| r.fingerprint.digest())
            .collect();
        let back = parse_sweep_response(&lines, &digests).expect("response parses");
        for (r, parsed) in outcome.results.iter().zip(&back) {
            assert_eq!(parsed, r.outcome.as_ref());
        }
    }

    #[test]
    fn ok_outcome_round_trips_to_equality() {
        let opts = ExecOptions::default();
        // A plan with drops, retries, and abandonment exercises every
        // record type.
        let plan = FaultPlan::new(3).drop(0.6).duplicate(0.5).replay(0.5);
        let outcome: ExecOutcome = execute_with_faults(&lossy(), &opts, &plan);
        let rendered = render_outcome(&outcome);
        let parsed = parse_outcome(&rendered).expect("parse");
        assert_eq!(parsed, outcome);
        // Clean outcome too.
        let clean: ExecOutcome = execute_with_faults(&lossy(), &opts, &FaultPlan::new(0));
        assert_eq!(
            parse_outcome(&render_outcome(&clean)).expect("parse"),
            clean
        );
    }

    #[test]
    fn err_outcome_round_trips_display() {
        let outcome: ExecOutcome = Err(ModelError::MalformedRun("it broke\nbadly".into()));
        let rendered = render_outcome(&outcome);
        assert_eq!(rendered.lines().count(), 1);
        let parsed = parse_outcome(&rendered).expect("parse");
        let e = parsed.expect_err("error outcome");
        assert_eq!(e.to_string(), "malformed run: it broke\nbadly");
    }

    #[test]
    fn outcome_parse_rejects_corruption() {
        let opts = ExecOptions::default();
        let outcome: ExecOutcome =
            execute_with_faults(&lossy(), &opts, &FaultPlan::new(0).drop(1.0));
        let rendered = render_outcome(&outcome);
        // Truncations at every line boundary fail cleanly.
        let lines: Vec<&str> = rendered.lines().collect();
        for cut in 0..lines.len() {
            let truncated = lines[..cut].join("\n");
            assert!(
                parse_outcome(&truncated).is_err(),
                "truncation to {cut} lines must not parse"
            );
        }
        // Trailing garbage is rejected, not ignored.
        let padded = format!("{rendered}garbage\n");
        assert!(parse_outcome(&padded).is_err());
        // Garbage headers.
        for bad in [
            "",
            "huh",
            "ok retries=1",
            "ok retries=x rounds=0 faults=0 abandoned=0 trace=0",
        ] {
            assert!(parse_outcome(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn checkpoint_round_trips_exactly() {
        let cp = MonitorCheckpoint {
            id: 42,
            name: "ns resumed".into(),
            formulas: vec!["Env has Kab".into(), "B believes (A said X)".into()],
            lines: vec![
                "run start -2".into(),
                "principal A keys Kab".into(),
                "".into(),
                "# a comment with % and ; in it".into(),
                "send A -> B : {X}Kab".into(),
            ],
        };
        let rendered = render_checkpoint(&cp);
        assert_eq!(parse_checkpoint(&rendered), Ok(cp.clone()));
        // An empty session round-trips too.
        let empty = MonitorCheckpoint::default();
        assert_eq!(parse_checkpoint(&render_checkpoint(&empty)), Ok(empty));
    }

    #[test]
    fn checkpoint_parse_rejects_corruption() {
        let cp = MonitorCheckpoint {
            id: 7,
            name: "t".into(),
            formulas: vec!["Env has K".into()],
            lines: vec!["run start 0".into(), "principal A keys K".into()],
        };
        let rendered = render_checkpoint(&cp);
        let lines: Vec<&str> = rendered.lines().collect();
        for cut in 0..lines.len() {
            let truncated = lines[..cut].join("\n");
            assert!(
                parse_checkpoint(&truncated).is_err(),
                "truncation to {cut} lines must not parse"
            );
        }
        assert!(parse_checkpoint(&format!("{rendered}garbage\n")).is_err());
        // A flipped payload byte trips the checksum.
        let flipped = rendered.replace("run%20start%200", "run%20start%201");
        assert_ne!(flipped, rendered);
        assert!(parse_checkpoint(&flipped).is_err());
        for bad in ["", "atl-monitor v2", "atl-monitor v1\nid x name t"] {
            assert!(parse_checkpoint(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
