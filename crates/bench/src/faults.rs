//! Deterministic fault-injection plane.
//!
//! Long sweeps and the `memhierd` service both need their failure paths
//! exercised *reproducibly*: a panic that only appears under one racy
//! load test is a panic nobody can debug.  This module provides a
//! [`FaultPlan`] — a small set of rules parsed from a spec string
//! (typically the `MEMHIER_FAULTS` environment variable) — whose
//! decisions are pure functions of `(rule seed, site, index, attempt)`.
//! No wall clock, no global RNG: the same plan over the same workload
//! injects the same failures byte-for-byte, on any machine, at any
//! `--jobs` width.
//!
//! ## Spec grammar
//!
//! ```text
//! spec    := rule ("," rule)*
//! rule    := site ":" kind (":" param)*
//! site    := "point" | "ckpt" | "serve"
//! kind    := "panic" | "io" | "delay"
//! param   := "rate=" FLOAT      probability per decision, in [0, 1]
//!          | "nth=" N           fire on every N-th decision (1-based)
//!          | "ms=" N            delay duration (delay kind only)
//!          | "seed=" N          per-rule RNG seed (rate rules)
//! ```
//!
//! Examples:
//!
//! ```text
//! MEMHIER_FAULTS="point:panic:rate=0.05:seed=7"          5% of sweep points panic
//! MEMHIER_FAULTS="ckpt:io:nth=3"                         every 3rd journal write fails
//! MEMHIER_FAULTS="serve:delay:ms=200:rate=0.1,serve:panic:nth=50"
//! ```
//!
//! A rule with neither `rate` nor `nth` always fires.  When several
//! rules match one site, the **first** firing rule in spec order wins.
//!
//! ## Sites
//!
//! | site | decision index | injected by |
//! |------|----------------|-------------|
//! | `point` | grid index of the sweep point (per attempt) | `run_sweep_checkpointed` |
//! | `ckpt`  | journal record sequence number | the checkpoint writer |
//! | `serve` | request sequence number | the `memhierd` worker loop |
//!
//! See `docs/ROBUSTNESS.md` for the full contract.

use std::fmt;
use std::time::Duration;

/// Where a fault decision is being made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultSite {
    /// One sweep grid point about to simulate.
    Point,
    /// One checkpoint-journal record about to be written.
    Ckpt,
    /// One admitted `memhierd` request about to be served.
    Serve,
}

impl FaultSite {
    fn parse(s: &str) -> Result<FaultSite, String> {
        match s {
            "point" => Ok(FaultSite::Point),
            "ckpt" => Ok(FaultSite::Ckpt),
            "serve" => Ok(FaultSite::Serve),
            other => Err(format!(
                "unknown fault site `{other}` (want point|ckpt|serve)"
            )),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            FaultSite::Point => "point",
            FaultSite::Ckpt => "ckpt",
            FaultSite::Serve => "serve",
        }
    }

    /// Site component folded into the decision hash, so the same index
    /// at different sites draws independent values.
    fn salt(&self) -> u64 {
        match self {
            FaultSite::Point => 0x70_6f_69_6e_74, // "point"
            FaultSite::Ckpt => 0x63_6b_70_74,     // "ckpt"
            FaultSite::Serve => 0x73_65_72_76_65, // "serve"
        }
    }
}

/// What kind of failure a rule injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// `panic!` at the decision site (exercises unwind/quarantine paths).
    Panic,
    /// A synthetic I/O error (exercises error-return paths).
    Io,
    /// A fixed delay before proceeding (exercises deadline/backlog paths).
    Delay,
}

impl FaultKind {
    fn parse(s: &str) -> Result<FaultKind, String> {
        match s {
            "panic" => Ok(FaultKind::Panic),
            "io" => Ok(FaultKind::Io),
            "delay" => Ok(FaultKind::Delay),
            other => Err(format!(
                "unknown fault kind `{other}` (want panic|io|delay)"
            )),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Io => "io",
            FaultKind::Delay => "delay",
        }
    }
}

/// The action a firing rule asks the injection site to take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultAction {
    /// Panic with an `injected fault:`-prefixed message.
    Panic,
    /// Fail with a synthetic I/O error.
    Io,
    /// Sleep for this long, then proceed normally.
    Delay(Duration),
}

/// One parsed rule of a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Site the rule applies to.
    pub site: FaultSite,
    /// Failure kind it injects.
    pub kind: FaultKind,
    /// Firing probability per decision (`rate=`); `None` with no `nth`
    /// means "always fire".
    pub rate: Option<f64>,
    /// Fire on every `nth`-th decision, 1-based (`nth=`).
    pub nth: Option<u64>,
    /// Delay duration in milliseconds (`ms=`, delay rules only).
    pub ms: u64,
    /// Seed for rate decisions (`seed=`, default 0).
    pub seed: u64,
}

impl FaultRule {
    fn parse(clause: &str) -> Result<FaultRule, String> {
        let mut parts = clause.split(':');
        let site = FaultSite::parse(parts.next().unwrap_or_default().trim())?;
        let kind = FaultKind::parse(
            parts
                .next()
                .ok_or_else(|| format!("fault rule `{clause}` is missing a kind"))?
                .trim(),
        )?;
        let mut rule = FaultRule {
            site,
            kind,
            rate: None,
            nth: None,
            ms: 0,
            seed: 0,
        };
        for param in parts {
            let (key, value) = param
                .split_once('=')
                .ok_or_else(|| format!("fault parameter `{param}` is not key=value"))?;
            let bad = |what: &str| format!("fault parameter `{param}`: {what}");
            match key.trim() {
                "rate" => {
                    let r: f64 = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("rate must be a number"))?;
                    if !(0.0..=1.0).contains(&r) {
                        return Err(bad("rate must be within [0, 1]"));
                    }
                    rule.rate = Some(r);
                }
                "nth" => {
                    let n: u64 = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("nth must be a positive integer"))?;
                    if n == 0 {
                        return Err(bad("nth must be >= 1"));
                    }
                    rule.nth = Some(n);
                }
                "ms" => {
                    rule.ms = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("ms must be a non-negative integer"))?;
                }
                "seed" => {
                    rule.seed = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("seed must be a non-negative integer"))?;
                }
                other => return Err(format!("unknown fault parameter `{other}` in `{clause}`")),
            }
        }
        if rule.kind == FaultKind::Delay && rule.ms == 0 {
            return Err(format!("delay rule `{clause}` needs ms=N"));
        }
        Ok(rule)
    }

    /// Whether this rule fires for decision `index` on retry `attempt`.
    /// Pure: same inputs, same answer, forever.
    fn fires(&self, index: u64, attempt: u32) -> bool {
        if let Some(nth) = self.nth {
            return (index + 1).is_multiple_of(nth);
        }
        match self.rate {
            None => true,
            Some(rate) => {
                let h = mix64(
                    self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        ^ self.site.salt().wrapping_mul(0xbf58_476d_1ce4_e5b9)
                        ^ index.wrapping_mul(0x94d0_49bb_1331_11eb)
                        ^ u64::from(attempt).wrapping_mul(0xd6e8_feb8_6659_fd93),
                );
                // Top 53 bits → uniform in [0, 1).
                let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
                unit < rate
            }
        }
    }

    /// The action this rule injects.
    fn action(&self) -> FaultAction {
        match self.kind {
            FaultKind::Panic => FaultAction::Panic,
            FaultKind::Io => FaultAction::Io,
            FaultKind::Delay => FaultAction::Delay(Duration::from_millis(self.ms)),
        }
    }
}

impl fmt::Display for FaultRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.site.name(), self.kind.name())?;
        if let Some(r) = self.rate {
            write!(f, ":rate={r}")?;
        }
        if let Some(n) = self.nth {
            write!(f, ":nth={n}")?;
        }
        if self.ms > 0 {
            write!(f, ":ms={}", self.ms)?;
        }
        if self.seed != 0 {
            write!(f, ":seed={}", self.seed)?;
        }
        Ok(())
    }
}

/// SplitMix64 finalizer: a fast, well-mixed 64-bit hash.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A parsed set of fault rules.  The default plan is empty (injects
/// nothing) and costs one slice-emptiness check per decision.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Parse a spec string (see the module docs for the grammar).  An
    /// empty or whitespace-only spec yields the empty plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            rules.push(FaultRule::parse(clause)?);
        }
        Ok(FaultPlan { rules })
    }

    /// Plan from the `MEMHIER_FAULTS` environment variable (empty plan
    /// when unset).  A malformed spec is an error, not a silent no-op:
    /// an operator who asked for fault injection must not get a clean
    /// run instead.
    pub fn from_env() -> Result<FaultPlan, String> {
        match std::env::var("MEMHIER_FAULTS") {
            Ok(spec) => {
                FaultPlan::parse(&spec).map_err(|e| format!("MEMHIER_FAULTS: {e} (in `{spec}`)"))
            }
            Err(_) => Ok(FaultPlan::default()),
        }
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The parsed rules, in spec order.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Decide what (if anything) to inject at `site` for decision
    /// `index`, on retry `attempt` (0 = first try).  First firing rule
    /// in spec order wins.
    pub fn check(&self, site: FaultSite, index: u64, attempt: u32) -> Option<FaultAction> {
        self.rules
            .iter()
            .find(|r| r.site == site && r.fires(index, attempt))
            .map(|r| r.action())
    }

    /// Panic if a panic fault fires at `site`/`index`/`attempt`; returns
    /// any non-panic action for the caller to apply.  The panic message
    /// carries the site and index so quarantine reports are actionable.
    pub fn maybe_panic(&self, site: FaultSite, index: u64, attempt: u32) -> Option<FaultAction> {
        match self.check(site, index, attempt) {
            Some(FaultAction::Panic) => panic!(
                "injected fault: {}:panic (index {index}, attempt {attempt})",
                site.name()
            ),
            other => other,
        }
    }

    /// A synthetic I/O error when an io fault fires at `site`/`index`.
    pub fn maybe_io_error(&self, site: FaultSite, index: u64, attempt: u32) -> std::io::Result<()> {
        match self.check(site, index, attempt) {
            Some(FaultAction::Io) => Err(std::io::Error::other(format!(
                "injected fault: {}:io (index {index}, attempt {attempt})",
                site.name()
            ))),
            _ => Ok(()),
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_the_issue_spec() {
        let plan = FaultPlan::parse(
            "point:panic:rate=0.05:seed=7,ckpt:io:nth=3,serve:delay:ms=200:rate=0.1",
        )
        .unwrap();
        assert_eq!(plan.rules().len(), 3);
        let p = &plan.rules()[0];
        assert_eq!(p.site, FaultSite::Point);
        assert_eq!(p.kind, FaultKind::Panic);
        assert_eq!(p.rate, Some(0.05));
        assert_eq!(p.seed, 7);
        let c = &plan.rules()[1];
        assert_eq!(c.nth, Some(3));
        let s = &plan.rules()[2];
        assert_eq!(s.kind, FaultKind::Delay);
        assert_eq!(s.ms, 200);
    }

    #[test]
    fn display_roundtrips() {
        let spec = "point:panic:rate=0.05:seed=7,ckpt:io:nth=3,serve:delay:rate=0.1:ms=200";
        let plan = FaultPlan::parse(spec).unwrap();
        let reparsed = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(plan, reparsed);
    }

    #[test]
    fn malformed_specs_are_errors() {
        for bad in [
            "disk:panic",           // unknown site
            "point:explode",        // unknown kind
            "point:panic:rate=2.0", // rate out of range
            "point:panic:nth=0",    // nth must be >= 1
            "point:panic:rate",     // not key=value
            "point:panic:foo=1",    // unknown parameter
            "serve:delay",          // delay needs ms
            "point",                // missing kind
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn empty_specs_yield_empty_plans() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" , ,").unwrap().is_empty());
        assert_eq!(FaultPlan::default().check(FaultSite::Point, 0, 0), None);
    }

    #[test]
    fn nth_fires_periodically() {
        let plan = FaultPlan::parse("ckpt:io:nth=3").unwrap();
        let fired: Vec<u64> = (0..9)
            .filter(|&i| plan.check(FaultSite::Ckpt, i, 0).is_some())
            .collect();
        assert_eq!(fired, vec![2, 5, 8]);
        // Other sites are untouched.
        assert_eq!(plan.check(FaultSite::Point, 2, 0), None);
    }

    #[test]
    fn rate_decisions_are_deterministic_and_calibrated() {
        let plan = FaultPlan::parse("point:panic:rate=0.05:seed=7").unwrap();
        let decide = |i: u64| plan.check(FaultSite::Point, i, 0).is_some();
        // Deterministic: the same index always answers the same.
        for i in 0..64 {
            assert_eq!(decide(i), decide(i));
        }
        // Calibrated: over many decisions the empirical rate is ~5%.
        let fired = (0..10_000u64).filter(|&i| decide(i)).count();
        assert!(
            (300..=700).contains(&fired),
            "expected ~500 of 10000 decisions at rate 0.05, got {fired}"
        );
    }

    #[test]
    fn different_seeds_pick_different_points() {
        let a = FaultPlan::parse("point:panic:rate=0.2:seed=1").unwrap();
        let b = FaultPlan::parse("point:panic:rate=0.2:seed=2").unwrap();
        let hits = |p: &FaultPlan| -> Vec<u64> {
            (0..256)
                .filter(|&i| p.check(FaultSite::Point, i, 0).is_some())
                .collect()
        };
        assert_ne!(hits(&a), hits(&b));
    }

    #[test]
    fn attempts_draw_independent_values() {
        // A rate rule must be able to clear on retry: over many indices,
        // attempt 0 and attempt 1 decisions must differ somewhere.
        let plan = FaultPlan::parse("point:io:rate=0.5").unwrap();
        let differs = (0..64).any(|i| {
            plan.check(FaultSite::Point, i, 0).is_some()
                != plan.check(FaultSite::Point, i, 1).is_some()
        });
        assert!(differs, "attempt number must enter the decision hash");
    }

    #[test]
    fn always_fire_rule_and_ordering() {
        // First firing rule wins: the always-firing delay shadows the
        // later panic at the same site.
        let plan = FaultPlan::parse("serve:delay:ms=10,serve:panic").unwrap();
        assert_eq!(
            plan.check(FaultSite::Serve, 0, 0),
            Some(FaultAction::Delay(Duration::from_millis(10)))
        );
    }

    #[test]
    fn io_helper_surfaces_injected_error() {
        let plan = FaultPlan::parse("ckpt:io:nth=1").unwrap();
        let err = plan.maybe_io_error(FaultSite::Ckpt, 0, 0).unwrap_err();
        assert!(err.to_string().contains("injected fault: ckpt:io"));
        assert!(plan.maybe_io_error(FaultSite::Point, 0, 0).is_ok());
    }

    #[test]
    fn panic_helper_panics_with_site_in_message() {
        let plan = FaultPlan::parse("point:panic:nth=1").unwrap();
        let caught = std::panic::catch_unwind(|| plan.maybe_panic(FaultSite::Point, 4, 1));
        let msg = *caught.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("point:panic"), "{msg}");
        assert!(msg.contains("index 4"), "{msg}");
    }

    /// Valid specs the fuzzer mutates: every site, kind and parameter.
    const VALID_SPECS: &[&str] = &[
        "point:panic:rate=0.05:seed=7",
        "ckpt:io:nth=3",
        "serve:delay:ms=200:rate=0.1,serve:panic:nth=50",
        "point:io:rate=0.123456789:nth=2:seed=18446744073709551615",
        "ckpt:panic:rate=1",
        "serve:delay:ms=1:seed=3, ckpt:panic",
    ];

    /// Atoms spliced into a spec: the separators, every keyword, and
    /// values at or past the edge of each parameter's range.
    const JUNK: &[&str] = &[
        ":",
        ",",
        "=",
        "nan",
        "inf",
        "-inf",
        "-0",
        "+0",
        "0",
        "-1",
        "1e308",
        "1e-400",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999999",
        "nth=0",
        "ms=5",
        "rate=",
        "seed=",
        "rate",
        "nth",
        "ms",
        "seed",
        "delay",
        "panic",
        "io",
        "point",
        "ckpt",
        "serve",
        " ",
        "\t",
        "\0",
        "é",
        "\u{1F600}",
        "\u{a0}",
    ];

    /// A spec as separator tokens (`:`, `,`, `=`) and the runs between.
    fn tokens(spec: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut word = String::new();
        for c in spec.chars() {
            if matches!(c, ':' | ',' | '=') {
                if !word.is_empty() {
                    out.push(std::mem::take(&mut word));
                }
                out.push(c.to_string());
            } else {
                word.push(c);
            }
        }
        if !word.is_empty() {
            out.push(word);
        }
        out
    }

    /// One edit of a token list at `at`: drop, duplicate, swap with the
    /// next token, overwrite with a junk atom, insert a junk atom, or
    /// insert an arbitrary character (`pick` chooses the atom or char).
    fn mutate(toks: &mut Vec<String>, op: u8, at: u32, pick: u32) {
        let junk = match op {
            5 => char::from_u32(pick % 0x11_0000)
                .unwrap_or('\u{fffd}')
                .to_string(),
            _ => JUNK[pick as usize % JUNK.len()].to_string(),
        };
        if toks.is_empty() {
            toks.push(junk);
            return;
        }
        let n = toks.len();
        let i = at as usize % n;
        match op {
            0 => drop(toks.remove(i)),
            1 => toks.insert(i, toks[i].clone()),
            2 => toks.swap(i, (i + 1) % n),
            3 => toks[i] = junk,
            _ => toks.insert(i, junk),
        }
    }

    /// `parse` returns `Ok` or `Err` without panicking, and every `Ok`
    /// plan prints back to a spec that parses to the same plan.
    fn check_spec(spec: &str) -> Result<(), TestCaseError> {
        let parsed = std::panic::catch_unwind(|| FaultPlan::parse(spec));
        prop_assert!(parsed.is_ok(), "parse panicked on {spec:?}");
        if let Ok(Ok(plan)) = parsed {
            let printed = plan.to_string();
            let reparsed = FaultPlan::parse(&printed);
            prop_assert!(
                reparsed.as_ref() == Ok(&plan),
                "{spec:?} printed as {printed:?}, which parses to {reparsed:?}"
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn mutated_specs_parse_or_fail_and_round_trip(
            start in 0..VALID_SPECS.len(),
            edits in proptest::collection::vec((0u8..6, any::<u32>(), any::<u32>()), 0..6),
        ) {
            let mut toks = tokens(VALID_SPECS[start]);
            for (op, at, pick) in edits {
                mutate(&mut toks, op, at, pick);
            }
            check_spec(&toks.concat())?;
        }
    }

    #[test]
    fn edge_specs_parse_or_fail_and_round_trip() {
        for spec in [
            "point:panic:rate=nan",
            "point:panic:rate=inf",
            "point:panic:rate=-0",
            "point:panic:rate=1e-400:seed=0",
            "point:panic:nth=0",
            "point:panic:nth=18446744073709551616",
            "ckpt:io:ms=5",
            "point:panic:ms=0:nth=2:nth=3",
            "serve:delay:ms=18446744073709551615",
            " point : panic : seed = +7 ,, ",
            "point:panic:nth=",
            "point::panic",
            "é:\u{1F600}=\0",
        ] {
            check_spec(spec).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn from_env_parses_and_rejects() {
        // Serialize access to the process-global env var.
        static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::remove_var("MEMHIER_FAULTS");
        assert!(FaultPlan::from_env().unwrap().is_empty());
        std::env::set_var("MEMHIER_FAULTS", "point:panic:rate=0.5");
        assert_eq!(FaultPlan::from_env().unwrap().rules().len(), 1);
        std::env::set_var("MEMHIER_FAULTS", "bogus");
        assert!(FaultPlan::from_env().is_err());
        std::env::remove_var("MEMHIER_FAULTS");
    }
}
