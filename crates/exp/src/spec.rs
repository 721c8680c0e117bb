//! Declarative sweep matrices: [`ExperimentSpec`] and its expansion.
//!
//! A spec is the cross product `catalogs × algorithms × mean_gaps ×
//! policies × seeds × repeats` over a shared [`SpecTemplate`] of
//! simulation parameters. [`ExperimentSpec::expand`] flattens it into an
//! ordered list of independent [`Trial`]s — the trial id **is** the
//! position in that nested-loop order (catalog outermost, repeat
//! innermost), which is the contract the worker pool's in-order merge
//! and every sealed report rely on.
//!
//! Specs are plain JSON; every field beyond the axes and
//! `template.arrivals` is optional with documented defaults, so a
//! minimal spec stays small enough to read in a review.

use crate::trial::{Trial, VALID_ALGORITHMS, VALID_CATALOGS};
use rtsm_core::{AdmissionPolicy, ReconfigurationObjective, ReconfigurationPolicy};
use serde::de::excerpt;
use serde::{Deserialize, Serialize, Value};

/// Simulation parameters shared by every trial of a spec. Only
/// `arrivals` is mandatory; an unset optional field takes the default its
/// accessor applies. The `simulate` CLI states its workload flags as one of
/// these, so specs and ad-hoc runs agree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpecTemplate {
    /// Arrivals per trial (policies may override per-policy; see
    /// [`PolicySpec::arrivals`]).
    pub arrivals: u64,
    /// Mean exponential holding time, ticks (default 2000).
    pub mean_hold: Option<u64>,
    /// Mode-switch probability, percent 0–100 (default 10).
    pub switch_prob_pct: Option<u64>,
    /// Occupancy sample interval, ticks (default 10 000).
    pub sample_interval: Option<u64>,
    /// Optional virtual-time horizon cutting trials short, ticks.
    pub horizon: Option<u64>,
    /// Seed pinning platform layout and synthetic catalogs (default 42).
    pub platform_seed: Option<u64>,
}

/// Mean holding time of a spec or `simulate` run that sets none, ticks.
const DEFAULT_MEAN_HOLD: u64 = 2000;

/// Mode-switch probability of a spec or `simulate` run that sets none,
/// percent.
const DEFAULT_SWITCH_PROB_PCT: u64 = 10;

/// Occupancy sample interval of a spec or `simulate` run that sets none,
/// ticks.
const DEFAULT_SAMPLE_INTERVAL: u64 = 10_000;

/// Platform seed of a spec or `simulate` run that sets none.
const DEFAULT_PLATFORM_SEED: u64 = 42;

impl SpecTemplate {
    /// Mean holding time with the default applied.
    pub fn mean_hold(&self) -> u64 {
        self.mean_hold.unwrap_or(DEFAULT_MEAN_HOLD)
    }

    /// Mode-switch probability (percent) with the default applied.
    pub fn switch_prob_pct(&self) -> u64 {
        self.switch_prob_pct.unwrap_or(DEFAULT_SWITCH_PROB_PCT)
    }

    /// Sample interval with the default applied.
    pub fn sample_interval(&self) -> u64 {
        self.sample_interval.unwrap_or(DEFAULT_SAMPLE_INTERVAL)
    }

    /// Platform seed with the default applied.
    pub fn platform_seed(&self) -> u64 {
        self.platform_seed.unwrap_or(DEFAULT_PLATFORM_SEED)
    }
}

/// One admission-policy point of the sweep. `kind` is one of `none`
/// (plain runs, no reconfiguration), `always`, `energy-budget`, or
/// `amortized-payback`; the remaining fields refine the reconfiguration
/// policy, and an unset one is [`ReconfigurationPolicy::default`]'s value.
/// The `simulate` CLI states its flags as one of these, so specs and ad-hoc
/// runs share every default.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicySpec {
    /// Policy kind: `none` | `always` | `energy-budget` | `amortized-payback`.
    pub kind: String,
    /// Migration-energy weight λ of the plan objective, permille. Not for
    /// `none` (see [`PolicySpec::check_parameters`]).
    pub lambda_permille: Option<u64>,
    /// Energy budget, pJ, for `energy-budget` only (default
    /// [`DEFAULT_BUDGET_PJ`]).
    pub budget_pj: Option<u64>,
    /// Payback horizon, periods, for `amortized-payback` only (default
    /// [`DEFAULT_PAYBACK_PERIODS`]).
    pub payback_periods: Option<u64>,
    /// Per-policy arrivals override — reconfiguration runs cost ~4× the
    /// wall time per arrival, so sweeps typically give `none` more
    /// arrivals than the reconfiguring points.
    pub arrivals: Option<u64>,
    /// Run this policy point with the design-time template library:
    /// admissions try the microsecond shape-instantiation hit path first
    /// and fall back to the full algorithm on miss (default off).
    pub templates: Option<bool>,
}

/// The policy kinds [`PolicySpec::kind`] accepts, in display order.
/// `none` means "no reconfiguration at all"; the other three name the
/// [`AdmissionPolicy`] reconfiguration runs under.
pub const VALID_POLICY_KINDS: [&str; 4] = ["none", "always", "energy-budget", "amortized-payback"];

/// The energy budget of an `energy-budget` point that sets none, pJ.
pub const DEFAULT_BUDGET_PJ: u64 = 500_000;

/// The payback horizon of an `amortized-payback` point that sets none,
/// periods.
pub const DEFAULT_PAYBACK_PERIODS: u64 = 64;

impl PolicySpec {
    /// A plain-run policy point (no reconfiguration).
    pub fn none() -> Self {
        PolicySpec {
            kind: "none".to_string(),
            lambda_permille: None,
            budget_pj: None,
            payback_periods: None,
            arrivals: None,
            templates: None,
        }
    }

    fn lambda(&self) -> u64 {
        self.lambda_permille
            .unwrap_or(ReconfigurationObjective::default().lambda_permille)
    }

    /// The [`AdmissionPolicy`] `kind` names, with its parameter's default
    /// applied — the one name-to-policy mapping specs and the `simulate`
    /// CLI share. `None` for unknown kinds and for `none` (which is not an
    /// admission policy but the absence of reconfiguration).
    fn admission(&self) -> Option<AdmissionPolicy> {
        match self.kind.as_str() {
            "always" => Some(AdmissionPolicy::AlwaysAdmit),
            "energy-budget" => Some(AdmissionPolicy::EnergyBudget {
                max_transfer_pj: self.budget_pj.unwrap_or(DEFAULT_BUDGET_PJ),
            }),
            "amortized-payback" => Some(AdmissionPolicy::AmortizedPayback {
                horizon_periods: self.payback_periods.unwrap_or(DEFAULT_PAYBACK_PERIODS),
            }),
            _ => None,
        }
    }

    /// The parameter rules of a policy point, stated once for
    /// [`ExperimentSpec::validate`] and the `simulate` CLI: `kind` is one of
    /// [`VALID_POLICY_KINDS`], and a parameter is set only where the kind
    /// reads it.
    ///
    /// # Errors
    ///
    /// One line naming the offending field and the kinds that read it.
    pub fn check_parameters(&self) -> Result<(), String> {
        let kind = self.kind.as_str();
        if !VALID_POLICY_KINDS.contains(&kind) {
            return Err(format!(
                "unknown policy kind `{}` (valid: {})",
                excerpt(kind),
                VALID_POLICY_KINDS.join(", ")
            ));
        }
        let reconfiguring = &VALID_POLICY_KINDS[1..];
        let read_by: [(&str, bool, &[&str]); 3] = [
            (
                "lambda_permille",
                self.lambda_permille.is_some(),
                reconfiguring,
            ),
            ("budget_pj", self.budget_pj.is_some(), &["energy-budget"]),
            (
                "payback_periods",
                self.payback_periods.is_some(),
                &["amortized-payback"],
            ),
        ];
        for (field, set, kinds) in read_by {
            if set && !kinds.contains(&kind) {
                return Err(format!(
                    "policy kind `{kind}` does not read {field} (read by: {})",
                    kinds.join(", ")
                ));
            }
        }
        Ok(())
    }

    /// Whether this policy point runs with the template library enabled.
    pub fn templates(&self) -> bool {
        self.templates.unwrap_or(false)
    }

    /// A stable, human-readable label — the grouping key in reports.
    /// Distinct policy points always label differently (enforced by
    /// [`ExperimentSpec::validate`]).
    pub fn label(&self) -> String {
        let base = match self.admission() {
            Some(admission) => format!("{}/l{}", admission.label(), self.lambda()),
            None if self.kind == "none" => "none".to_string(),
            None => format!("invalid({})", excerpt(&self.kind)),
        };
        if self.templates() {
            // Templated and untemplated variants of the same point are
            // distinct sweep cells; the suffix keeps their labels apart.
            format!("{base}+tpl{}", rtsm_core::template::SHAPE_CAP)
        } else {
            base
        }
    }

    /// The [`ReconfigurationPolicy`] this point runs under; `None` for
    /// plain runs.
    pub fn to_policy(&self) -> Option<ReconfigurationPolicy> {
        if self.kind == "none" {
            return None;
        }
        let admission = self
            .admission()
            .unwrap_or_else(|| panic!("unvalidated policy kind `{}`", self.kind));
        Some(ReconfigurationPolicy {
            objective: ReconfigurationObjective {
                lambda_permille: self.lambda(),
            },
            admission,
        })
    }
}

/// A declarative sweep matrix: the cross product of every axis, run
/// over the shared [`SpecTemplate`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Optional spec-format marker (informational).
    pub schema: Option<String>,
    /// Experiment name, stamped into the sealed report.
    pub name: String,
    /// Shared simulation parameters.
    pub template: SpecTemplate,
    /// Mapping algorithms by short name (`paper`, `greedy`, …).
    pub algorithms: Vec<String>,
    /// Catalogs by name (`hiperlan2`, `mixed`, `synthetic`, `defrag`).
    pub catalogs: Vec<String>,
    /// Poisson mean inter-arrival gaps, ticks — the λ axis (smaller gap
    /// ⇒ higher load).
    pub mean_gaps: Vec<u64>,
    /// Admission-policy points.
    pub policies: Vec<PolicySpec>,
    /// Workload seeds.
    pub seeds: Vec<u64>,
    /// Repeats per seed (default 1); repeat `r` runs at a derived trial
    /// seed, so repeats are distinct stochastic runs.
    pub repeats: Option<u64>,
}

/// The most trials a spec may expand into before
/// [`ExperimentSpec::validate`] refuses it: some 2 800 times the largest
/// committed spec (`specs/ci_smoke_mixed_1m.json`, 36 trials). A run holds
/// every [`Trial`] of the expansion, and a record per finished one, at
/// once — on the order of 100 MB at the limit.
pub const MAX_TRIALS: u64 = 100_000;

/// An axis lists something, and nothing twice: a repeated entry would run
/// its cells twice and seal them as two rows (for a catalog, two fronts).
fn check_axis<T: Ord + std::fmt::Display>(axis: &str, given: &[T]) -> Result<(), String> {
    if given.is_empty() {
        return Err(format!("spec lists no {axis}"));
    }
    let mut sorted: Vec<&T> = given.iter().collect();
    sorted.sort_unstable();
    match sorted.windows(2).find(|w| w[0] == w[1]) {
        Some(dup) => Err(format!(
            "duplicate entry `{}` in {axis}",
            excerpt(&dup[0].to_string())
        )),
        None => Ok(()),
    }
}

/// [`check_axis`] for an axis of registry names, each one of `valid`.
fn check_names(kind: &str, given: &[String], valid: &[&str]) -> Result<(), String> {
    check_axis(&format!("{kind}s"), given)?;
    match given.iter().find(|name| !valid.contains(&name.as_str())) {
        Some(name) => Err(format!(
            "unknown {kind} `{}` (valid: {})",
            excerpt(name),
            valid.join(", ")
        )),
        None => Ok(()),
    }
}

/// The first key of `given`, depth first, that `read` does not hold.
fn unread_key<'a>(given: &'a Value, read: &Value) -> Option<&'a str> {
    match (given, read) {
        (Value::Map(given), Value::Map(read)) => given.iter().find_map(|(key, value)| {
            match read.iter().find(|(known, _)| known == key) {
                Some((_, inner)) => unread_key(value, inner),
                None => Some(key.as_str()),
            }
        }),
        (Value::Seq(given), Value::Seq(read)) => given
            .iter()
            .zip(read)
            .find_map(|(value, inner)| unread_key(value, inner)),
        _ => None,
    }
}

impl ExperimentSpec {
    /// Reads a spec from JSON text, refusing a key that no field reads. The
    /// deserializer passes over keys it does not know, so a misspelt or
    /// retired setting would otherwise run quietly on its default: every
    /// key of the text must reappear when the spec is serialized again.
    ///
    /// # Errors
    ///
    /// The JSON error of malformed text or of a value of the wrong shape,
    /// or one line naming the first unread key.
    pub fn from_json(text: &str) -> Result<ExperimentSpec, String> {
        let given: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let spec = ExperimentSpec::from_value(&given)
            .map_err(|e| serde_json::Error::from(e).to_string())?;
        match unread_key(&given, &spec.to_value()) {
            Some(key) => Err(format!("unknown key `{}`: nothing reads it", excerpt(key))),
            None => Ok(spec),
        }
    }

    /// Repeats per seed with the default applied.
    pub fn repeats(&self) -> u64 {
        self.repeats.unwrap_or(1)
    }

    /// Checks every axis and template field, returning a one-line error
    /// naming the offending value and the valid options.
    ///
    /// # Errors
    ///
    /// A human-readable message on the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("spec has an empty name".to_string());
        }
        check_names("algorithm", &self.algorithms, &VALID_ALGORITHMS)?;
        check_names("catalog", &self.catalogs, &VALID_CATALOGS)?;
        check_axis("mean_gaps", &self.mean_gaps)?;
        if self.mean_gaps.contains(&0) {
            return Err("mean_gaps must be positive".to_string());
        }
        check_axis("seeds", &self.seeds)?;
        for policy in &self.policies {
            policy.check_parameters()?;
            if policy.arrivals == Some(0) {
                return Err(format!(
                    "policy `{}` overrides arrivals to 0",
                    policy.label()
                ));
            }
        }
        let labels: Vec<String> = self.policies.iter().map(PolicySpec::label).collect();
        check_axis("policies", &labels)?;
        if self.repeats() == 0 {
            return Err("repeats must be at least 1".to_string());
        }
        let n_trials = self.n_trials();
        if n_trials > MAX_TRIALS {
            return Err(format!(
                "spec expands to {n_trials} trials, over the limit of {MAX_TRIALS}"
            ));
        }
        if self.template.arrivals == 0 {
            return Err("template.arrivals must be at least 1".to_string());
        }
        if self.template.switch_prob_pct() > 100 {
            return Err(format!(
                "template.switch_prob_pct is {}%, must be 0–100",
                self.template.switch_prob_pct()
            ));
        }
        // Every (gap, arrivals) cell must fit the simulator's sample bound;
        // the policies' overrides are the only other arrival counts.
        let arrivals = std::iter::once(self.template.arrivals)
            .chain(self.policies.iter().filter_map(|p| p.arrivals));
        for arrivals in arrivals {
            for &gap in &self.mean_gaps {
                rtsm_sim::check_sample_growth(
                    arrivals,
                    gap,
                    self.template.mean_hold(),
                    self.template.sample_interval(),
                )
                .map_err(|e| format!("mean_gaps entry {gap} × {arrivals} arrivals: {e}"))?;
            }
        }
        // A sealed report states the arrivals of all its trials in one u64.
        if self.total_arrivals() == u64::MAX {
            return Err(format!(
                "the trials' arrivals add up to {} or more, which no report can state",
                u64::MAX
            ));
        }
        Ok(())
    }

    /// Expands the matrix into ordered [`Trial`]s. The nesting order —
    /// catalog → algorithm → mean_gap → policy → seed → repeat — is a
    /// stable contract: trial ids (and with them the JSONL stream and
    /// sealed report) never depend on worker count or timing.
    pub fn expand(&self) -> Vec<Trial> {
        let mut trials = Vec::new();
        for catalog in &self.catalogs {
            for algorithm in &self.algorithms {
                for &mean_gap in &self.mean_gaps {
                    for policy in &self.policies {
                        for &seed in &self.seeds {
                            for repeat in 0..self.repeats() {
                                trials.push(Trial {
                                    id: trials.len() as u64,
                                    catalog: catalog.clone(),
                                    algorithm: algorithm.clone(),
                                    mean_gap,
                                    policy: policy.clone(),
                                    seed,
                                    repeat,
                                    arrivals: policy.arrivals.unwrap_or(self.template.arrivals),
                                });
                            }
                        }
                    }
                }
            }
        }
        trials
    }

    /// Trials per policy point — the product of the other five axes —
    /// without expanding; `None` when it does not fit a `u64`.
    fn trials_per_policy(&self) -> Option<u64> {
        [
            self.catalogs.len(),
            self.algorithms.len(),
            self.mean_gaps.len(),
            self.seeds.len(),
        ]
        .iter()
        .try_fold(self.repeats(), |n, &len| n.checked_mul(len as u64))
    }

    /// How many trials [`expand`](ExperimentSpec::expand) would list,
    /// saturating.
    pub fn n_trials(&self) -> u64 {
        self.trials_per_policy()
            .and_then(|n| n.checked_mul(self.policies.len() as u64))
            .unwrap_or(u64::MAX)
    }

    /// Total simulated arrivals across the whole expansion, saturating.
    pub fn total_arrivals(&self) -> u64 {
        let trials = self.trials_per_policy().unwrap_or(u64::MAX);
        self.policies.iter().fold(0, |total: u64, policy| {
            let arrivals = policy.arrivals.unwrap_or(self.template.arrivals);
            total.saturating_add(arrivals.saturating_mul(trials))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> ExperimentSpec {
        ExperimentSpec {
            schema: None,
            name: "unit".to_string(),
            template: SpecTemplate {
                arrivals: 100,
                mean_hold: None,
                switch_prob_pct: None,
                sample_interval: None,
                horizon: None,
                platform_seed: None,
            },
            algorithms: vec!["greedy".to_string(), "paper".to_string()],
            catalogs: vec!["hiperlan2".to_string()],
            mean_gaps: vec![500, 1500],
            policies: vec![PolicySpec::none()],
            seeds: vec![1, 2],
            repeats: Some(2),
        }
    }

    #[test]
    fn expansion_order_is_catalog_algorithm_gap_policy_seed_repeat() {
        let trials = small_spec().expand();
        // One factor per axis: catalogs × algorithms × gaps × policies ×
        // seeds × repeats.
        #[allow(clippy::identity_op)]
        let expected = 2 * 1 * 2 * 1 * 2 * 2;
        assert_eq!(trials.len(), expected);
        assert_eq!(trials[0].id, 0);
        // Innermost axis first: repeat varies fastest, then seed.
        assert_eq!((trials[0].seed, trials[0].repeat), (1, 0));
        assert_eq!((trials[1].seed, trials[1].repeat), (1, 1));
        assert_eq!((trials[2].seed, trials[2].repeat), (2, 0));
        // Then mean_gap, then algorithm (catalogs has one entry).
        assert_eq!(trials[3].mean_gap, 500);
        assert_eq!(trials[4].mean_gap, 1500);
        assert_eq!(trials[7].algorithm, "greedy");
        assert_eq!(trials[8].algorithm, "paper");
        // Ids are the positions.
        for (i, t) in trials.iter().enumerate() {
            assert_eq!(t.id, i as u64);
        }
    }

    #[test]
    fn total_arrivals_honors_policy_overrides() {
        let mut spec = small_spec();
        assert_eq!(spec.total_arrivals(), 16 * 100);
        spec.policies.push(PolicySpec {
            arrivals: Some(10),
            ..PolicySpec {
                kind: "always".to_string(),
                ..PolicySpec::none()
            }
        });
        // 16 trials at 100 arrivals plus 16 `always` trials at 10.
        assert_eq!(spec.total_arrivals(), 16 * 100 + 16 * 10);
        // Both counts are what the expansion would add up to.
        let trials = spec.expand();
        assert_eq!(spec.n_trials(), trials.len() as u64);
        assert_eq!(
            spec.total_arrivals(),
            trials.iter().map(|t| t.arrivals).sum::<u64>()
        );
    }

    #[test]
    fn validate_names_the_offender_and_the_valid_options() {
        let mut spec = small_spec();
        spec.catalogs = vec!["mixedd".to_string()];
        let err = spec.validate().unwrap_err();
        assert!(err.contains("mixedd") && err.contains("hiperlan2"), "{err}");

        let mut spec = small_spec();
        spec.algorithms = vec!["gredy".to_string()];
        let err = spec.validate().unwrap_err();
        assert!(err.contains("gredy") && err.contains("annealing"), "{err}");

        let mut spec = small_spec();
        spec.policies[0].kind = "sometimes".to_string();
        let err = spec.validate().unwrap_err();
        assert!(
            err.contains("sometimes") && err.contains("amortized-payback"),
            "{err}"
        );

        // A parameter the kind does not read names itself and its readers.
        let mut spec = small_spec();
        spec.policies[0].lambda_permille = Some(400);
        let err = spec.validate().unwrap_err();
        assert!(
            err.contains("`none` does not read lambda_permille") && err.contains("always"),
            "{err}"
        );
        spec.policies[0].kind = "always".to_string();
        assert_eq!(spec.validate(), Ok(()));
        spec.policies[0].payback_periods = Some(8);
        let err = spec.validate().unwrap_err();
        assert!(
            err.contains("payback_periods (read by: amortized-payback)"),
            "{err}"
        );

        let mut spec = small_spec();
        spec.template.switch_prob_pct = Some(150);
        assert!(spec.validate().unwrap_err().contains("150"));

        let mut spec = small_spec();
        spec.mean_gaps = vec![500, 0];
        assert!(spec.validate().is_err());

        let mut spec = small_spec();
        spec.seeds.clear();
        assert!(spec.validate().is_err());

        assert!(small_spec().validate().is_ok());
    }

    #[test]
    fn cells_that_outgrow_the_sample_bound_are_refused() {
        // What `experiment --spec` used to abort on: 50 arrivals a
        // terasecond apart are 5 × 10⁹ samples at the default interval.
        let hostile: ExperimentSpec = serde_json::from_str(
            r#"{"name":"hostile","template":{"arrivals":50},"algorithms":["greedy"],
                "catalogs":["hiperlan2"],"mean_gaps":[1000000000000],
                "policies":[{"kind":"none"}],"seeds":[1]}"#,
        )
        .expect("well-formed");
        let err = hostile.validate().unwrap_err();
        assert!(
            err.contains("mean_gaps entry 1000000000000") && !err.contains('\n'),
            "{err}"
        );

        // A policy's arrivals override is a cell of its own.
        let mut spec = small_spec();
        spec.policies[0].arrivals = Some(u64::MAX);
        let err = spec.validate().unwrap_err();
        assert!(err.contains(&format!("{} arrivals", u64::MAX)), "{err}");

        // The holding-time tail and the interval enter the same bound.
        let mut spec = small_spec();
        spec.template.mean_hold = Some(u64::MAX);
        assert!(spec.validate().is_err());
        let mut spec = small_spec();
        spec.template.sample_interval = Some(0);
        spec.template.arrivals = 1_000_000;
        assert!(spec.validate().is_err());
        spec.template.sample_interval = Some(1_000);
        assert!(spec.validate().is_ok());

        // A repeat count that would expand into 10¹² trials is refused
        // from the axes' sizes, before anything is expanded; so is one
        // whose product does not fit a u64.
        let mut spec = small_spec();
        spec.repeats = Some(MAX_TRIALS / 8);
        assert_eq!(spec.n_trials(), MAX_TRIALS);
        assert!(spec.validate().is_ok());
        for repeats in [MAX_TRIALS / 8 + 1, 1_000_000_000_000, u64::MAX] {
            spec.repeats = Some(repeats);
            let err = spec.validate().unwrap_err();
            assert!(
                err.contains("trials, over the limit") && !err.contains('\n'),
                "{err}"
            );
        }
        assert_eq!(spec.n_trials(), u64::MAX, "the count saturates");

        // Trials of u64::MAX arrivals fit the sample bound (one sample
        // each), but adding them up used to wrap.
        let mut spec = small_spec();
        spec.template.arrivals = u64::MAX;
        spec.template.sample_interval = Some(u64::MAX);
        assert_eq!(spec.total_arrivals(), u64::MAX, "the total saturates");
        let err = spec.validate().unwrap_err();
        assert!(err.contains("add up to"), "{err}");

        // Both committed specs stay far inside it, and set no key that
        // nothing reads.
        for name in ["ci_smoke_mixed_1m", "determinism_smoke"] {
            let path = format!("{}/../../specs/{name}.json", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).expect("committed spec");
            let spec = ExperimentSpec::from_json(&text).expect("well-formed");
            assert_eq!(spec.validate(), Ok(()), "{name}");
        }
    }

    /// The retired search and cache bounds, and a misspelt key, at every
    /// level a spec has: a key nothing reads is refused, not run on a
    /// default.
    #[test]
    fn keys_that_no_field_reads_are_refused() {
        let with = |top: &str, template: &str, policy: &str| {
            let policy = format!(r#"{{"kind":"always","templates":true{policy}}}"#);
            let rest = r#""algorithms":["greedy"],"catalogs":["hiperlan2"],"mean_gaps":[500]"#;
            format!(
                r#"{{"name":"k","template":{{"arrivals":5{template}}},{rest},"seeds":[1],"policies":[{{"kind":"none"}},{policy}]{top}}}"#
            )
        };
        let read = ExperimentSpec::from_json(&with("", "", "")).expect("every key is read");
        assert_eq!(read.validate(), Ok(()));
        for (text, key) in [
            (with("", "", r#","template_cap":4"#), "template_cap"),
            (with("", "", r#","max_migrations":1"#), "max_migrations"),
            (with("", "", r#","max_plans":2"#), "max_plans"),
            (with("", r#","mean_hlod":9"#, ""), "mean_hlod"),
            (with(r#","repeat":2"#, "", ""), "repeat"),
        ] {
            let err = ExperimentSpec::from_json(&text).unwrap_err();
            assert_eq!(err, format!("unknown key `{key}`: nothing reads it"));
        }
        let err = ExperimentSpec::from_json(r#"{"name":7}"#).unwrap_err();
        assert!(err.starts_with("JSON error: "), "{err}");
    }

    #[test]
    fn duplicate_entries_are_rejected_on_every_axis() {
        for axis in ["policies", "catalogs", "algorithms", "mean_gaps", "seeds"] {
            let mut spec = small_spec();
            match axis {
                "policies" => spec.policies.push(PolicySpec::none()),
                "catalogs" => spec.catalogs.push("hiperlan2".to_string()),
                "algorithms" => spec.algorithms.push("greedy".to_string()),
                "mean_gaps" => spec.mean_gaps.push(500),
                _ => spec.seeds.insert(0, 2),
            }
            let err = spec.validate().unwrap_err();
            assert!(err.contains("duplicate") && err.contains(axis), "{err}");
        }
    }

    #[test]
    fn policy_labels_distinguish_parameters() {
        let always = PolicySpec {
            kind: "always".to_string(),
            lambda_permille: Some(600),
            ..PolicySpec::none()
        };
        let mut budget = always.clone();
        budget.kind = "energy-budget".to_string();
        budget.budget_pj = Some(250_000);
        assert_eq!(always.label(), "always-admit/l600");
        assert_eq!(budget.label(), "energy-budget(250000pJ)/l600");
        assert_eq!(PolicySpec::none().label(), "none");
        assert!(PolicySpec::none().to_policy().is_none());
        assert!(budget.to_policy().is_some());
    }

    #[test]
    fn template_policy_points_label_and_validate() {
        // A templated twin of an existing point is a distinct sweep cell.
        let mut spec = small_spec();
        spec.policies.push(PolicySpec {
            templates: Some(true),
            ..PolicySpec::none()
        });
        assert!(spec.validate().is_ok());
        assert_eq!(spec.policies[1].label(), "none+tpl8");
        // Twice the same templated point is one cell listed twice.
        spec.policies.push(spec.policies[1].clone());
        let err = spec.validate().unwrap_err();
        assert!(err.contains("duplicate entry `none+tpl8`"), "{err}");
    }

    #[test]
    fn specs_round_trip_through_json() {
        let spec = small_spec();
        let text = serde_json::to_string(&spec).unwrap();
        let back: ExperimentSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(spec, back);
    }
}
