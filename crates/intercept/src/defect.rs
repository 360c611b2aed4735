//! Validator-defect taxonomy and session attribution.
//!
//! Okara and "Danger is My Middle Name" (PAPERS.md) catalogue the ways
//! real Android apps break TLS validation: accept-all trust managers,
//! missing hostname verification, pin bypass, stale bundled stores. This
//! module models each defect as an explicit validator variant and, for
//! every (client, probe, presented-chain) session, answers two questions:
//!
//! 1. does *this client's* (possibly broken) validation accept the chain?
//! 2. if it does, *which defect* made the interception possible?
//!
//! Attribution is total: a session is exactly one of whitelisted (the
//! proxy's pin policy passed it through), blocked (the client rejected
//! the chain), or intercepted-with-attributed-defect. The baseline
//! "correct" validator enforces everything Android should but does not —
//! including trust-anchor expiry, the §2 Firmaprofesional criticism made
//! operational — so the only minted chain that fools a correct client is
//! one anchored at a locally-installed root, which is attributed to
//! `installed-root` rather than to any client defect.

use crate::policy::Target;
use std::sync::Arc;
use tangled_pki::store::RootStore;
use tangled_pki::stores::ReferenceStore;
use tangled_x509::{CertIdentity, Certificate, ChainOptions};

/// A client's validator-defect profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DefectClass {
    /// Full validation: path, leaf and anchor expiry, hostname, pins.
    Correct,
    /// An accept-all trust manager: any non-empty chain passes.
    AcceptAll,
    /// Chain validation intact, hostname verification missing.
    NoHostnameCheck,
    /// Validity windows ignored (leaf and anchor alike).
    NoExpiryCheck,
    /// Certificate pins configured but never enforced.
    PinBypass,
    /// Validates against a stale bundled AOSP 4.1 store with the old
    /// platform's lax anchor-expiry semantics, ignoring the device store
    /// (and anything locally installed on it).
    StaleStore,
}

impl DefectClass {
    /// Every defect class, correct first.
    pub const ALL: [DefectClass; 6] = [
        DefectClass::Correct,
        DefectClass::AcceptAll,
        DefectClass::NoHostnameCheck,
        DefectClass::NoExpiryCheck,
        DefectClass::PinBypass,
        DefectClass::StaleStore,
    ];

    /// Stable wire/report label.
    pub fn label(&self) -> &'static str {
        match self {
            DefectClass::Correct => "correct",
            DefectClass::AcceptAll => "accept-all",
            DefectClass::NoHostnameCheck => "no-hostname-check",
            DefectClass::NoExpiryCheck => "no-expiry-check",
            DefectClass::PinBypass => "pin-bypass",
            DefectClass::StaleStore => "stale-store",
        }
    }

    /// Parse a wire label back into a class.
    pub fn parse(label: &str) -> Option<DefectClass> {
        DefectClass::ALL.into_iter().find(|d| d.label() == label)
    }
}

impl std::fmt::Display for DefectClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The conservation-ledger bucket a session lands in. Exactly one per
/// session, always.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionOutcome {
    /// The proxy's pin-whitelist passed the connection through untouched.
    Whitelisted,
    /// The client's validation — defective or not — rejected the chain.
    Blocked {
        /// Stable rejection label (`no-path`, `cert-check`,
        /// `hostname-mismatch`, `pin-violation`, `no-chain`, ...).
        reason: String,
    },
    /// The client accepted an interposed chain.
    Intercepted {
        /// The defect that made it possible (`installed-root` when even a
        /// correct validator would have accepted).
        attributed: String,
    },
}

impl SessionOutcome {
    /// Canonical report label, stable across runs and pool widths.
    pub fn label(&self) -> String {
        match self {
            SessionOutcome::Whitelisted => "whitelisted".to_owned(),
            SessionOutcome::Blocked { reason } => format!("blocked({reason})"),
            SessionOutcome::Intercepted { attributed } => format!("intercepted({attributed})"),
        }
    }
}

/// One (client, probe, presented-chain) session to evaluate.
pub struct SessionInput<'a> {
    /// The device's root store (platform + user/root-app installed).
    pub device_store: &'a RootStore,
    /// A root the interceptor managed to install on the device, if any.
    pub extra_anchor: Option<&'a Arc<Certificate>>,
    /// The client's validator defect.
    pub defect: DefectClass,
    /// The probed endpoint.
    pub target: &'a Target,
    /// The chain the client saw, leaf first.
    pub chain: &'a [Arc<Certificate>],
    /// Whether the client app pins the expected public-PKI issuer.
    pub pinned: bool,
    /// The expected public-PKI issuer identity (the pin).
    pub expected_issuer: &'a CertIdentity,
    /// Whether the proxy interposed on this session (false = the policy
    /// whitelisted it and the origin chain went through untouched).
    pub intercepted: bool,
}

/// Which checks a validator variant actually performs.
struct Checks {
    stale_store: bool,
    hostname: bool,
    expiry: bool,
    anchor_expiry: bool,
    pin: bool,
}

fn checks_for(defect: DefectClass) -> Option<Checks> {
    match defect {
        // Accept-all is handled before any checks run.
        DefectClass::AcceptAll => None,
        DefectClass::Correct => Some(Checks {
            stale_store: false,
            hostname: true,
            expiry: true,
            anchor_expiry: true,
            pin: true,
        }),
        DefectClass::NoHostnameCheck => Some(Checks {
            stale_store: false,
            hostname: false,
            expiry: true,
            anchor_expiry: true,
            pin: true,
        }),
        DefectClass::NoExpiryCheck => Some(Checks {
            stale_store: false,
            hostname: true,
            expiry: false,
            anchor_expiry: false,
            pin: true,
        }),
        DefectClass::PinBypass => Some(Checks {
            stale_store: false,
            hostname: true,
            expiry: true,
            anchor_expiry: true,
            pin: false,
        }),
        DefectClass::StaleStore => Some(Checks {
            stale_store: true,
            hostname: true,
            expiry: true,
            anchor_expiry: false,
            pin: true,
        }),
    }
}

fn leaf_matches_host(leaf: &Certificate, domain: &str) -> bool {
    let names = leaf.dns_names();
    if names.is_empty() {
        leaf.subject.cn() == Some(domain)
    } else {
        names.iter().any(|n| n == domain)
    }
}

/// Run one validator variant over a presented chain. `Ok` carries the
/// anchor identity the path landed on; `Err` carries a stable rejection
/// label.
fn validate(s: &SessionInput<'_>, checks: &Checks) -> Result<CertIdentity, String> {
    let Some((leaf, links)) = s.chain.split_first() else {
        return Err("no-chain".to_owned());
    };
    let verifier = if checks.stale_store {
        ReferenceStore::Aosp41.cached().verifier()
    } else {
        let mut verifier = s.device_store.verifier();
        if let Some(extra) = s.extra_anchor {
            verifier.add_anchor(Arc::clone(extra));
        }
        verifier
    };
    // A validator that skips expiry checks is modelled by verifying at a
    // time inside the leaf's window (with anchor expiry off): the path
    // logic still runs, only validity stops mattering.
    let study = crate::study_time();
    let at = if checks.expiry {
        study
    } else {
        let (nb, na) = (leaf.not_before.to_unix(), leaf.not_after.to_unix());
        if (nb..=na).contains(&study.to_unix()) {
            study
        } else {
            tangled_asn1::Time::from_unix(nb + (na - nb) / 2)
        }
    };
    let mut opts = ChainOptions::at(at);
    opts.check_anchor_expiry = checks.anchor_expiry;
    let anchor = match verifier.verify_chain(leaf, links, opts) {
        Ok(chain) => chain.anchor().identity(),
        Err(e) => return Err(e.label().to_owned()),
    };
    if checks.hostname && !leaf_matches_host(leaf, &s.target.domain) {
        return Err("hostname-mismatch".to_owned());
    }
    if checks.pin && s.pinned && &anchor != s.expected_issuer {
        return Err("pin-violation".to_owned());
    }
    Ok(anchor)
}

fn client_accepts(s: &SessionInput<'_>) -> Result<(), String> {
    match checks_for(s.defect) {
        None => {
            if s.chain.is_empty() {
                Err("no-chain".to_owned())
            } else {
                Ok(())
            }
        }
        Some(checks) => validate(s, &checks).map(|_| ()),
    }
}

/// Evaluate one session into its conservation-ledger bucket.
///
/// Attribution rule: if the *correct* validator would also have accepted
/// the chain (possible only via a locally-installed root), the defect
/// class did not matter and the session is attributed `installed-root`;
/// otherwise it is attributed to the client's own defect.
pub fn evaluate_session(s: &SessionInput<'_>) -> SessionOutcome {
    if !s.intercepted {
        return SessionOutcome::Whitelisted;
    }
    if let Err(reason) = client_accepts(s) {
        return SessionOutcome::Blocked { reason };
    }
    let correct = checks_for(DefectClass::Correct).expect("correct checks");
    let attributed = if s.defect == DefectClass::Correct || validate(s, &correct).is_ok() {
        "installed-root".to_owned()
    } else {
        s.defect.label().to_owned()
    };
    SessionOutcome::Intercepted { attributed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::origin::OriginServers;
    use crate::proxy::MitmProxy;

    fn setup() -> (OriginServers, MitmProxy, Arc<RootStore>, CertIdentity) {
        let origin = OriginServers::for_table6();
        let proxy = MitmProxy::reality_mine().unwrap();
        let store = ReferenceStore::Aosp44.cached();
        let expected = origin.issuer_identity();
        (origin, proxy, store, expected)
    }

    #[test]
    fn labels_round_trip() {
        for d in DefectClass::ALL {
            assert_eq!(DefectClass::parse(d.label()), Some(d));
        }
        assert_eq!(DefectClass::parse("nonsense"), None);
    }

    #[test]
    fn whitelisted_sessions_short_circuit() {
        let (origin, _, store, expected) = setup();
        let t = Target::parse("www.facebook.com:443").unwrap();
        let chain = origin.chain(&t).unwrap().to_vec();
        let s = SessionInput {
            device_store: &store,
            extra_anchor: None,
            defect: DefectClass::AcceptAll,
            target: &t,
            chain: &chain,
            pinned: false,
            expected_issuer: &expected,
            intercepted: false,
        };
        assert_eq!(evaluate_session(&s), SessionOutcome::Whitelisted);
    }

    #[test]
    fn correct_client_blocks_self_signed_chain() {
        let (origin, mut proxy, store, expected) = setup();
        let t = Target::parse("www.chase.com:443").unwrap();
        let chain = proxy.serve(&t, &origin).unwrap();
        let s = SessionInput {
            device_store: &store,
            extra_anchor: None,
            defect: DefectClass::Correct,
            target: &t,
            chain: &chain,
            pinned: false,
            expected_issuer: &expected,
            intercepted: true,
        };
        assert_eq!(
            evaluate_session(&s),
            SessionOutcome::Blocked {
                reason: "no-path".to_owned()
            }
        );
    }

    #[test]
    fn accept_all_client_is_attributed_accept_all() {
        let (origin, mut proxy, store, expected) = setup();
        let t = Target::parse("www.chase.com:443").unwrap();
        let chain = proxy.serve(&t, &origin).unwrap();
        let s = SessionInput {
            device_store: &store,
            extra_anchor: None,
            defect: DefectClass::AcceptAll,
            target: &t,
            chain: &chain,
            pinned: false,
            expected_issuer: &expected,
            intercepted: true,
        };
        assert_eq!(
            evaluate_session(&s),
            SessionOutcome::Intercepted {
                attributed: "accept-all".to_owned()
            }
        );
    }

    #[test]
    fn installed_root_fools_the_correct_client_and_is_attributed_so() {
        let (origin, mut proxy, store, expected) = setup();
        let t = Target::parse("www.chase.com:443").unwrap();
        let chain = proxy.serve(&t, &origin).unwrap();
        let root = Arc::clone(proxy.root_cert());
        let s = SessionInput {
            device_store: &store,
            extra_anchor: Some(&root),
            defect: DefectClass::Correct,
            target: &t,
            chain: &chain,
            pinned: false,
            expected_issuer: &expected,
            intercepted: true,
        };
        assert_eq!(
            evaluate_session(&s),
            SessionOutcome::Intercepted {
                attributed: "installed-root".to_owned()
            }
        );
        // A pinned app still catches it — even with the root installed.
        let pinned = SessionInput { pinned: true, ..s };
        assert_eq!(
            evaluate_session(&pinned),
            SessionOutcome::Blocked {
                reason: "pin-violation".to_owned()
            }
        );
    }

    #[test]
    fn wrong_host_leaf_splits_hostname_checkers_from_bypassers() {
        let (origin, _, store, expected) = setup();
        let t = Target::parse("www.chase.com:443").unwrap();
        // Present another target's perfectly valid origin chain.
        let other = Target::parse("gmail.com:443").unwrap();
        let chain = origin.chain(&other).unwrap().to_vec();
        let base = SessionInput {
            device_store: &store,
            extra_anchor: None,
            defect: DefectClass::Correct,
            target: &t,
            chain: &chain,
            pinned: false,
            expected_issuer: &expected,
            intercepted: true,
        };
        assert_eq!(
            evaluate_session(&base),
            SessionOutcome::Blocked {
                reason: "hostname-mismatch".to_owned()
            }
        );
        let broken = SessionInput {
            defect: DefectClass::NoHostnameCheck,
            ..base
        };
        assert_eq!(
            evaluate_session(&broken),
            SessionOutcome::Intercepted {
                attributed: "no-hostname-check".to_owned()
            }
        );
    }
}
