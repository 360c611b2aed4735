//! tangled-scenario — the adversarial interception scenario engine.
//!
//! The paper's Table 6 observes *one* middlebox against *one* (implied)
//! correct client. This crate generalises both sides: a seeded
//! population of clients with validator defects drawn from a
//! configurable mix, an interposing proxy with selectable chain-minting
//! strategies, and a detection/attribution pipeline that replays every
//! `(client, probe, presented-chain)` session and classifies which
//! defect — if any — let the interception through.
//!
//! Every session lands in exactly one ledger bucket:
//!
//! * **blocked** — correct validation stopped the forged chain;
//! * **intercepted** — the session was interposed and accepted, with the
//!   enabling defect attributed;
//! * **whitelisted** — the proxy's pin policy passed the target through.
//!
//! The report is a pure function of the seed: chain generation shards
//! over the ambient [`tangled_exec::ExecPool`] and the rendered ledger
//! is byte-identical at any pool width. Verdicts are computed by
//! [`tangled_trustd::TrustService`] via the idempotent `probe_session`
//! wire op, so the offline report and a served replay agree
//! verdict-for-verdict by construction.

pub mod mint;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tangled_crypto::rng::SplitMix64;
use tangled_exec::{split_seed, ExecPool};
use tangled_intercept::DefectClass;
use tangled_trustd::{offline_verdicts, scale_for_sessions, verdict_fingerprint, Request};

pub use mint::{MintStrategy, ScenarioProxy};

/// Store profile the simulated devices run.
pub const DEVICE_PROFILE: &str = "AOSP 4.4";

/// A scenario: who the clients are, how the proxy forges, and the seed
/// everything derives from.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Master seed; every derived stream splits off this.
    pub seed: u64,
    /// Number of simulated clients.
    pub clients: usize,
    /// Defect mix as `(class, weight)` pairs; weights need not sum to
    /// anything in particular.
    pub mix: Vec<(DefectClass, u32)>,
    /// Mint strategies the proxy cycles through.
    pub strategies: Vec<MintStrategy>,
}

/// The default population mix: a defective-client survey in miniature.
pub fn default_mix() -> Vec<(DefectClass, u32)> {
    vec![
        (DefectClass::Correct, 40),
        (DefectClass::AcceptAll, 20),
        (DefectClass::NoHostnameCheck, 15),
        (DefectClass::NoExpiryCheck, 10),
        (DefectClass::PinBypass, 5),
        (DefectClass::StaleStore, 10),
    ]
}

impl ScenarioSpec {
    /// Scale the default scenario: `scale` of 1.0 is a 200-client
    /// population over every strategy.
    pub fn for_scale(scale: f64, seed: u64) -> ScenarioSpec {
        let clients = ((scale * 200.0).round() as usize).max(4);
        ScenarioSpec {
            seed,
            clients,
            mix: default_mix(),
            strategies: MintStrategy::ALL.to_vec(),
        }
    }

    /// Size the scenario from a requested session count (loadgen's
    /// currency), via the same scale curve as the trustd replay.
    pub fn for_sessions(sessions: usize, seed: u64) -> ScenarioSpec {
        ScenarioSpec::for_scale(scale_for_sessions(sessions), seed)
    }

    /// Assign each client a defect class, deterministically from the
    /// seed: client `i` draws from its own split stream, so the
    /// population is independent of iteration order.
    pub fn population(&self) -> Vec<DefectClass> {
        let total: u64 = self.mix.iter().map(|(_, w)| u64::from(*w)).sum();
        (0..self.clients)
            .map(|i| {
                if total == 0 {
                    return DefectClass::Correct;
                }
                let mut rng = SplitMix64::new(split_seed(self.seed, i as u64));
                let mut pick = rng.next_below(total);
                for (class, weight) in &self.mix {
                    let w = u64::from(*weight);
                    if pick < w {
                        return *class;
                    }
                    pick -= w;
                }
                DefectClass::Correct
            })
            .collect()
    }

    /// Total sessions this spec generates.
    pub fn sessions(&self) -> usize {
        self.clients * self.strategies.len() * 21
    }
}

/// One row of the conservation ledger: a strategy's sessions split into
/// the three exclusive buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerRow {
    /// The mint strategy this row covers.
    pub strategy: MintStrategy,
    /// Sessions under this strategy.
    pub sessions: usize,
    /// Blocked by correct validation, keyed by reason.
    pub blocked: usize,
    /// Intercepted with an attributed defect.
    pub intercepted: usize,
    /// Passed through by the pin-whitelist policy.
    pub whitelisted: usize,
}

/// The scenario report: population, ledger, attribution, fingerprint.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The spec that produced this report.
    pub seed: u64,
    /// Client count.
    pub clients: usize,
    /// Defect-class population counts, in [`DefectClass::ALL`] order.
    pub population: Vec<(DefectClass, usize)>,
    /// Per-strategy conservation rows.
    pub ledger: Vec<LedgerRow>,
    /// Interceptions keyed by the defect (or installed-root) that
    /// enabled them.
    pub attribution: BTreeMap<String, usize>,
    /// Blocked sessions keyed by rejection reason.
    pub blocks: BTreeMap<String, usize>,
    /// Sessions whose response was not a probe_session verdict
    /// (should be zero; breaks conservation if not).
    pub errors: usize,
    /// FNV-1a fingerprint over the canonical verdict vector.
    pub fingerprint: u64,
}

impl ScenarioReport {
    /// Does every session land in exactly one bucket?
    pub fn conserved(&self) -> bool {
        self.errors == 0
            && self.ledger.iter().all(|r| {
                r.sessions == r.blocked + r.intercepted + r.whitelisted
            })
    }

    /// Ledger totals `(sessions, blocked, intercepted, whitelisted)`.
    pub fn totals(&self) -> (usize, usize, usize, usize) {
        self.ledger.iter().fold((0, 0, 0, 0), |acc, r| {
            (
                acc.0 + r.sessions,
                acc.1 + r.blocked,
                acc.2 + r.intercepted,
                acc.3 + r.whitelisted,
            )
        })
    }

    /// Render the report, ending with the conservation line and the
    /// verdict-vector fingerprint.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Interception scenarios — {} clients, seed {} ({})",
            self.clients, self.seed, DEVICE_PROFILE
        );
        let _ = writeln!(out, "population:");
        for (class, n) in &self.population {
            let _ = writeln!(out, "  {:<18} {n}", class.label());
        }
        let _ = writeln!(out, "ledger (per mint strategy):");
        let _ = writeln!(
            out,
            "  {:<18} {:>8} {:>8} {:>11} {:>11}",
            "strategy", "sessions", "blocked", "intercepted", "whitelisted"
        );
        for row in &self.ledger {
            let _ = writeln!(
                out,
                "  {:<18} {:>8} {:>8} {:>11} {:>11}",
                row.strategy.label(),
                row.sessions,
                row.blocked,
                row.intercepted,
                row.whitelisted
            );
        }
        let _ = writeln!(out, "attribution (defect that enabled interception):");
        for (label, n) in &self.attribution {
            let _ = writeln!(out, "  {label:<18} {n}");
        }
        let _ = writeln!(out, "block reasons:");
        for (label, n) in &self.blocks {
            let _ = writeln!(out, "  {label:<18} {n}");
        }
        let (sessions, blocked, intercepted, whitelisted) = self.totals();
        let status = if self.conserved() { "ok" } else { "VIOLATED" };
        let _ = writeln!(
            out,
            "conservation: {status} (sessions {sessions} = blocked {blocked} + intercepted {intercepted} + whitelisted {whitelisted})"
        );
        let _ = writeln!(out, "verdict-vector fingerprint: {:016x}", self.fingerprint);
        out
    }
}

/// Build the full request plan for a spec: one `probe_session` request
/// per `(strategy, client, target)` triple, strategy-major. Chains are
/// minted once per `(strategy, target)` pair, sharded over the ambient
/// pool.
pub fn plan(spec: &ScenarioSpec) -> Result<Vec<Request>, tangled_intercept::MintError> {
    let proxy = ScenarioProxy::new(spec.seed)?;
    let population = spec.population();
    let targets = proxy.targets().to_vec();

    // Mint each (strategy, target) chain exactly once, in parallel.
    let pairs: Vec<(MintStrategy, usize)> = spec
        .strategies
        .iter()
        .flat_map(|s| (0..targets.len()).map(move |t| (*s, t)))
        .collect();
    let pool = ExecPool::current();
    let minted = pool.par_map_indexed(&pairs, |_, (strategy, t)| proxy.present(*strategy, *t));
    let mut chains = Vec::with_capacity(minted.len());
    for chain in minted {
        chains.push(chain?);
    }

    let mut requests = Vec::with_capacity(spec.sessions());
    for (si, strategy) in spec.strategies.iter().enumerate() {
        for defect in population.iter().take(spec.clients) {
            for (ti, target) in targets.iter().enumerate() {
                let intercepted = proxy.intercepts(target);
                let chain: Vec<Vec<u8>> = chains[si * targets.len() + ti]
                    .iter()
                    .map(|c| c.to_der().to_vec())
                    .collect();
                let extra_anchor = if intercepted && *strategy == MintStrategy::InstalledRoot {
                    Some(proxy.installed_root().to_der().to_vec())
                } else {
                    None
                };
                requests.push(Request::ProbeSession {
                    profile: DEVICE_PROFILE.to_owned(),
                    defect: defect.label().to_owned(),
                    target: target.to_string(),
                    chain,
                    pinned: proxy.is_pinned(target),
                    extra_anchor,
                    intercepted,
                });
            }
        }
    }
    Ok(requests)
}

fn bucket(verdict: &str) -> Option<(&'static str, &str)> {
    let outcome = verdict.strip_prefix("probe_session/")?;
    if outcome == "whitelisted" {
        Some(("whitelisted", ""))
    } else if let Some(rest) = outcome.strip_prefix("blocked(") {
        Some(("blocked", rest.strip_suffix(')')?))
    } else if let Some(rest) = outcome.strip_prefix("intercepted(") {
        Some(("intercepted", rest.strip_suffix(')')?))
    } else {
        None
    }
}

/// Tally a verdict vector (as produced by [`tangled_trustd::canonical`])
/// into a [`ScenarioReport`]. Shared by the offline compute and a served
/// replay so both paths summarise identically.
pub fn tally(spec: &ScenarioSpec, verdicts: &[String]) -> ScenarioReport {
    let population = spec.population();
    let mut counts = vec![0usize; DefectClass::ALL.len()];
    for class in &population {
        if let Some(i) = DefectClass::ALL.iter().position(|c| c == class) {
            counts[i] += 1;
        }
    }

    let per_strategy = spec.clients * 21;
    let mut ledger: Vec<LedgerRow> = spec
        .strategies
        .iter()
        .map(|s| LedgerRow {
            strategy: *s,
            sessions: 0,
            blocked: 0,
            intercepted: 0,
            whitelisted: 0,
        })
        .collect();
    let mut attribution = BTreeMap::new();
    let mut blocks = BTreeMap::new();
    let mut errors = 0usize;
    for (idx, verdict) in verdicts.iter().enumerate() {
        let si = idx.checked_div(per_strategy).unwrap_or(0);
        let Some(row) = ledger.get_mut(si.min(spec.strategies.len().saturating_sub(1))) else {
            errors += 1;
            continue;
        };
        row.sessions += 1;
        match bucket(verdict) {
            Some(("whitelisted", _)) => row.whitelisted += 1,
            Some(("blocked", reason)) => {
                row.blocked += 1;
                *blocks.entry(reason.to_owned()).or_insert(0) += 1;
            }
            Some(("intercepted", attributed)) => {
                row.intercepted += 1;
                *attribution.entry(attributed.to_owned()).or_insert(0) += 1;
            }
            _ => {
                row.sessions -= 1;
                errors += 1;
            }
        }
    }

    let report = ScenarioReport {
        seed: spec.seed,
        clients: spec.clients,
        population: DefectClass::ALL
            .iter()
            .zip(&counts)
            .map(|(c, n)| (*c, *n))
            .collect(),
        ledger,
        attribution,
        blocks,
        errors,
        fingerprint: verdict_fingerprint(verdicts),
    };

    let (sessions, blocked, intercepted, whitelisted) = report.totals();
    tangled_obs::registry::add("scenario.sessions", sessions as u64);
    tangled_obs::registry::add("scenario.blocked", blocked as u64);
    tangled_obs::registry::add("scenario.intercepted", intercepted as u64);
    tangled_obs::registry::add("scenario.whitelisted", whitelisted as u64);
    for (label, n) in &report.attribution {
        tangled_obs::registry::add(&format!("scenario.attributed.{label}"), *n as u64);
    }
    tangled_obs::registry::observe("scenario.population", report.clients as u64);
    report
}

/// Run the whole scenario offline: plan, answer every session through
/// [`offline_verdicts`], and tally the ledger. Byte-reproducible from
/// the seed at any pool width. A served run is the same plan through
/// [`tangled_trustd::drive`], tallied the same way.
pub fn compute(spec: &ScenarioSpec) -> Result<ScenarioReport, tangled_intercept::MintError> {
    Ok(tally(spec, &offline_verdicts(&plan(spec)?)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            seed,
            clients: 6,
            mix: default_mix(),
            strategies: MintStrategy::ALL.to_vec(),
        }
    }

    #[test]
    fn population_is_seed_stable_and_covers_the_mix() {
        let spec = ScenarioSpec::for_scale(1.0, 7);
        let a = spec.population();
        let b = spec.population();
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        for class in DefectClass::ALL {
            assert!(
                a.contains(&class),
                "200-client default mix should include {class}"
            );
        }
    }

    #[test]
    fn report_conserves_and_attributes() {
        let report = compute(&small_spec(2014)).unwrap();
        assert!(report.conserved(), "ledger must conserve:\n{}", report.render());
        let (sessions, _, intercepted, whitelisted) = report.totals();
        assert_eq!(sessions, 6 * 5 * 21);
        // 9 whitelisted pass-throughs per client per strategy.
        assert_eq!(whitelisted, 6 * 5 * 9);
        assert!(intercepted > 0, "defective population must leak sessions");
        for label in report.attribution.keys() {
            assert!(
                label == "installed-root"
                    || DefectClass::parse(label).is_some(),
                "unknown attribution label {label}"
            );
        }
    }

    #[test]
    fn same_seed_renders_byte_identical() {
        let a = compute(&small_spec(99)).unwrap().render();
        let b = compute(&small_spec(99)).unwrap().render();
        assert_eq!(a, b);
    }

    #[test]
    fn all_correct_population_only_leaks_installed_root() {
        let spec = ScenarioSpec {
            seed: 5,
            clients: 4,
            mix: vec![(DefectClass::Correct, 1)],
            strategies: MintStrategy::ALL.to_vec(),
        };
        let report = compute(&spec).unwrap();
        assert!(report.conserved());
        for row in &report.ledger {
            if row.strategy == MintStrategy::InstalledRoot {
                assert!(row.intercepted > 0, "installed root defeats correct clients");
            } else {
                assert_eq!(
                    row.intercepted, 0,
                    "correct clients must block {}",
                    row.strategy
                );
            }
        }
        assert_eq!(report.attribution.keys().collect::<Vec<_>>(), ["installed-root"]);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    fn arb_mix() -> impl Strategy<Value = Vec<(DefectClass, u32)>> {
        proptest::collection::vec((0usize..6usize, 0u32..5u32), 1..7).prop_map(|pairs| {
            pairs
                .into_iter()
                .map(|(i, w)| (DefectClass::ALL[i], w))
                .collect()
        })
    }

    fn arb_strategies() -> impl Strategy<Value = Vec<MintStrategy>> {
        proptest::collection::vec(0usize..5usize, 1..4)
            .prop_map(|ids| ids.into_iter().map(|i| MintStrategy::ALL[i]).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// Any mix, any strategy subset, any seed: the engine never
        /// panics, the ledger conserves, and every attribution label is
        /// a known defect (or the installed root).
        #[test]
        fn random_scenarios_conserve(
            seed in 0u64..1_000_000,
            clients in 1usize..4,
            mix in arb_mix(),
            strategies in arb_strategies(),
        ) {
            let spec = ScenarioSpec { seed, clients, mix, strategies };
            let report = compute(&spec).expect("compute");
            prop_assert!(report.conserved(), "ledger conserves:\n{}", report.render());
            let (sessions, _, _, _) = report.totals();
            prop_assert_eq!(sessions, spec.sessions());
            for label in report.attribution.keys() {
                prop_assert!(
                    label == "installed-root" || DefectClass::parse(label).is_some(),
                    "unknown attribution label {}", label
                );
            }
        }

        /// A population of only correct validators leaks nothing — for
        /// every strategy except the locally-installed root, which even
        /// correct validation anchors.
        #[test]
        fn correct_population_only_falls_to_installed_root(
            seed in 0u64..1_000_000,
            strategies in arb_strategies(),
        ) {
            let spec = ScenarioSpec {
                seed,
                clients: 2,
                mix: vec![(DefectClass::Correct, 1)],
                strategies,
            };
            let report = compute(&spec).expect("compute");
            prop_assert!(report.conserved());
            for row in &report.ledger {
                if row.strategy == MintStrategy::InstalledRoot {
                    prop_assert!(row.intercepted > 0, "installed root defeats correct clients");
                } else {
                    prop_assert_eq!(row.intercepted, 0, "correct clients block {}", row.strategy);
                }
            }
        }
    }
}
