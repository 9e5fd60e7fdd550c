//! The fault-flag grammar shared by the CLI and the serve daemon.
//!
//! A fault plan reaches the tool through three front ends: `atl
//! inject`, `atl hunt` and the daemon's `INJECT` verb. All three parse
//! its flags with [`PlanFlags::parse`], which reads `--seed --drop --dup
//! --delay P[:R] --reorder --replay --compromise K@T --patience
//! --retries --public` and hands every other token back to its caller:
//! `atl inject` takes its sweep, fabric and `--emit-trace` flags there,
//! `atl hunt` its search flags, and `INJECT` rejects them. Every value
//! goes through [`flag_value`] or [`parse_value`], so a malformed one is
//! reported as `<flag> needs a value` or `<flag>: <error>` by the CLI
//! (`error: <m>`, exit 2) and by the daemon (`ERR <m>`) alike.

use crate::inject::InjectRequest;
use atl_lang::Key;
use atl_model::{ExecOptions, ExpectPolicy, FaultPlan, SweepGrid};
use std::fmt::Display;
use std::str::FromStr;

/// Parses `text` as the value of `flag`; a failure reads
/// `<flag>: <error>`.
///
/// # Errors
///
/// The parse error, prefixed with `flag`.
pub fn parse_value<T: FromStr>(flag: &str, text: &str) -> Result<T, String>
where
    T::Err: Display,
{
    text.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Takes the next token as the raw value of `flag`.
///
/// # Errors
///
/// `<flag> needs a value` when no token is left.
pub fn flag_text<'a>(
    flag: &str,
    tokens: &mut impl Iterator<Item = &'a str>,
) -> Result<&'a str, String> {
    tokens.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// Takes the next token as the value of `flag` and parses it.
///
/// # Errors
///
/// `<flag> needs a value` or `<flag>: <error>`.
pub fn flag_value<'a, T: FromStr>(
    flag: &str,
    tokens: &mut impl Iterator<Item = &'a str>,
) -> Result<T, String>
where
    T::Err: Display,
{
    parse_value(flag, flag_text(flag, tokens)?)
}

/// Parses a comma-separated probability list, such as `--drop 0,0.5,1`
/// or `--steps 0.25,1`.
///
/// # Errors
///
/// `<flag>: <error>` for the first step that is not a number.
pub fn parse_steps(flag: &str, text: &str) -> Result<Vec<f64>, String> {
    text.split(',')
        .map(|step| parse_value(flag, step))
        .collect()
}

/// The fault flags of one request. Each probability flag holds a step
/// list: a single plan takes at most one step, and `atl inject --sweep`
/// grids them all.
#[derive(Clone, Debug)]
pub struct PlanFlags {
    /// `--seed N`: the plan's seed (a sweep's first seed, a hunt's RNG
    /// seed).
    pub seed: u64,
    /// `--drop P,...`
    pub drop: Vec<f64>,
    /// `--dup P,...`
    pub dup: Vec<f64>,
    /// `--delay P,...[:R]`
    pub delay: Vec<f64>,
    /// The `R` of `--delay P:R` (default 2).
    pub delay_rounds: u32,
    /// `--reorder P,...`
    pub reorder: Vec<f64>,
    /// `--replay P,...`
    pub replay: Vec<f64>,
    /// Every `--compromise KEY@TIME`, in order.
    pub compromises: Vec<(Key, i64)>,
    /// `--patience N` (default 6).
    pub patience: u32,
    /// `--retries N` (default 2).
    pub retries: u32,
    /// `--public`: execute over a public channel.
    pub public: bool,
}

impl Default for PlanFlags {
    fn default() -> Self {
        PlanFlags {
            seed: 0,
            drop: Vec::new(),
            dup: Vec::new(),
            delay: Vec::new(),
            delay_rounds: 2,
            reorder: Vec::new(),
            replay: Vec::new(),
            compromises: Vec::new(),
            patience: 6,
            retries: 2,
            public: false,
        }
    }
}

impl PlanFlags {
    /// Parses the fault flags among `tokens`. Any other token goes to
    /// `other` together with the remaining tokens, so the caller can take
    /// that flag's value with [`flag_value`] or reject the token.
    ///
    /// # Errors
    ///
    /// The first error of a fault flag (`<flag> needs a value`,
    /// `<flag>: <error>`, or `--compromise takes KEY@TIME, e.g. Kab@2`)
    /// or of `other`.
    pub fn parse<'a, I>(
        mut tokens: I,
        mut other: impl FnMut(&'a str, &mut I) -> Result<(), String>,
    ) -> Result<PlanFlags, String>
    where
        I: Iterator<Item = &'a str>,
    {
        let mut flags = PlanFlags::default();
        while let Some(token) = tokens.next() {
            match token {
                "--seed" => flags.seed = flag_value(token, &mut tokens)?,
                "--drop" => flags.drop = parse_steps(token, flag_text(token, &mut tokens)?)?,
                "--dup" => flags.dup = parse_steps(token, flag_text(token, &mut tokens)?)?,
                "--delay" => {
                    let text = flag_text(token, &mut tokens)?;
                    let (steps, rounds) = match text.split_once(':') {
                        Some((steps, rounds)) => (steps, parse_value("--delay rounds", rounds)?),
                        None => (text, 2),
                    };
                    flags.delay = parse_steps(token, steps)?;
                    flags.delay_rounds = rounds;
                }
                "--reorder" => flags.reorder = parse_steps(token, flag_text(token, &mut tokens)?)?,
                "--replay" => flags.replay = parse_steps(token, flag_text(token, &mut tokens)?)?,
                "--compromise" => {
                    let (key, time) = flag_text(token, &mut tokens)?
                        .split_once('@')
                        .ok_or("--compromise takes KEY@TIME, e.g. Kab@2")?;
                    let time = parse_value("--compromise time", time)?;
                    flags.compromises.push((Key::new(key), time));
                }
                "--patience" => flags.patience = flag_value(token, &mut tokens)?,
                "--retries" => flags.retries = flag_value(token, &mut tokens)?,
                "--public" => flags.public = true,
                _ => other(token, &mut tokens)?,
            }
        }
        Ok(flags)
    }

    /// Each probability flag with its step list, in a fixed order.
    pub fn probabilities(&self) -> [(&'static str, &[f64]); 5] {
        [
            ("--drop", &self.drop),
            ("--dup", &self.dup),
            ("--delay", &self.delay),
            ("--reorder", &self.reorder),
            ("--replay", &self.replay),
        ]
    }

    /// The single fault plan these flags describe; an absent
    /// probability flag means probability 0.
    ///
    /// # Errors
    ///
    /// `<flag> lists multiple steps; use --sweep to grid them`.
    pub fn plan(&self) -> Result<FaultPlan, String> {
        let [drop, dup, delay, reorder, replay] =
            self.probabilities().map(|(flag, steps)| match steps {
                [] => Ok(0.0),
                [step] => Ok(*step),
                _ => Err(format!(
                    "{flag} lists multiple steps; use --sweep to grid them"
                )),
            });
        let mut plan = FaultPlan::new(self.seed)
            .drop(drop?)
            .duplicate(dup?)
            .delay(delay?, self.delay_rounds)
            .reorder(reorder?)
            .replay(replay?);
        plan.compromises = self.compromises.clone();
        Ok(plan)
    }

    /// The plan grid of a sweep: `seeds` seeds from `--seed` on, the
    /// cartesian product of every step list, and, when keys are
    /// compromised, both the clean and the compromised schedule.
    pub fn grid(&self, seeds: u64) -> SweepGrid {
        let mut grid = SweepGrid::new()
            .seeds(self.seed..self.seed.saturating_add(seeds))
            .drop_steps(self.drop.iter().copied())
            .duplicate_steps(self.dup.iter().copied())
            .delay_steps(self.delay.iter().copied(), self.delay_rounds)
            .reorder_steps(self.reorder.iter().copied())
            .replay_steps(self.replay.iter().copied());
        if !self.compromises.is_empty() {
            grid = grid
                .compromise_choice([])
                .compromise_choice(self.compromises.iter().cloned());
        }
        grid
    }

    /// The expect policy of `--patience N --retries N`: resend up to
    /// `retries` times after `patience` fruitless rounds, or skip the
    /// step after `patience` rounds when `retries` is 0.
    pub fn policy(&self) -> ExpectPolicy {
        if self.retries > 0 {
            ExpectPolicy::resend_after(self.patience, self.retries)
        } else {
            ExpectPolicy::skip_after(self.patience)
        }
    }

    /// The executor options (`--public`).
    pub fn options(&self) -> ExecOptions {
        ExecOptions {
            public_channel: self.public,
            ..ExecOptions::default()
        }
    }

    /// The single-plan request of `atl inject` and `INJECT`.
    ///
    /// # Errors
    ///
    /// As for [`PlanFlags::plan`].
    pub fn request(&self) -> Result<InjectRequest, String> {
        Ok(InjectRequest {
            plan: self.plan()?,
            policy: self.policy(),
            options: self.options(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_tokens_reach_the_caller_with_their_values() {
        let mut seen = Vec::new();
        let flags = PlanFlags::parse(
            "--seeds 3 --seed 4 spec.atl --drop 0,1 --public".split_whitespace(),
            |token, rest| {
                match token {
                    "--seeds" => seen.push(format!("seeds={}", flag_value::<u64>(token, rest)?)),
                    other => seen.push(other.to_string()),
                }
                Ok(())
            },
        )
        .expect("valid flags");
        assert_eq!(seen, ["seeds=3", "spec.atl"]);
        assert_eq!((flags.seed, flags.drop.as_slice()), (4, &[0.0, 1.0][..]));
        assert!(flags.public);
        assert!(flags.plan().is_err(), "two drop steps are a grid");
        assert_eq!(flags.grid(3).plans().len(), 6);
    }

    #[test]
    fn patience_and_retries_choose_the_policy() {
        assert_eq!(
            PlanFlags::default().policy(),
            ExpectPolicy::resend_after(6, 2)
        );
        let skip = PlanFlags {
            patience: 3,
            retries: 0,
            ..PlanFlags::default()
        };
        assert_eq!(skip.policy(), ExpectPolicy::skip_after(3));
    }
}
