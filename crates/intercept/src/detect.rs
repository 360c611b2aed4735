//! Netalyzr-side interception detection.
//!
//! "Netalyzr for Android checks the full trust chain of TLS connections to
//! the domains of popular websites and mobile apps" (§7). [`probe`]
//! replays that check: validate the presented chain against the device's
//! root store, compare the anchor with the expected public-PKI issuer, and
//! apply app-style certificate pinning.

use crate::origin::OriginServers;
use crate::policy::Target;
use std::sync::Arc;
use tangled_pki::store::RootStore;
use tangled_x509::{CertIdentity, Certificate, ChainOptions};

/// Outcome of probing one target through one network path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Chain anchors in the device store at the expected public-PKI CA.
    Clean,
    /// Chain does not anchor in the device store at all — visible
    /// interception (the §7 Reality Mine case: proxy root not installed).
    UntrustedChain {
        /// Subject of the chain's topmost presented certificate.
        presented_issuer: String,
    },
    /// Chain anchors in the device store, but at an unexpected anchor —
    /// silent interception via an installed root (the §6 rooted-handset
    /// threat model).
    UnexpectedAnchor {
        /// Identity of the anchor actually used.
        anchor: CertIdentity,
    },
    /// The app pins the expected issuer and the presented chain violates
    /// the pin (detected even when the store trusts the chain).
    PinViolation,
    /// No chain was presented for the target.
    NoChain,
}

impl Verdict {
    /// Does this verdict indicate interception of any kind?
    pub fn is_interception(&self) -> bool {
        !matches!(self, Verdict::Clean)
    }
}

/// Per-target probe outcome.
#[derive(Debug, Clone)]
pub struct ProbeReport {
    /// The probed endpoint.
    pub target: Target,
    /// The verdict.
    pub verdict: Verdict,
}

/// Probe one target: validate `presented` against `device_store`,
/// expecting chains to anchor at `expected_issuer`. `pinned` applies an
/// app-style pin on the expected issuer identity.
pub fn probe(
    target: &Target,
    presented: &[Arc<Certificate>],
    device_store: &RootStore,
    expected_issuer: &CertIdentity,
    pinned: bool,
) -> ProbeReport {
    let verdict = classify(presented, device_store, expected_issuer, pinned);
    ProbeReport {
        target: target.clone(),
        verdict,
    }
}

fn classify(
    presented: &[Arc<Certificate>],
    device_store: &RootStore,
    expected_issuer: &CertIdentity,
    pinned: bool,
) -> Verdict {
    let Some((leaf, links)) = presented.split_first() else {
        return Verdict::NoChain;
    };
    let opts = ChainOptions::at(crate::study_time());
    match device_store.verifier().verify_chain(leaf, links, opts) {
        Ok(chain) => {
            let anchor = chain.anchor().identity();
            if &anchor == expected_issuer {
                Verdict::Clean
            } else if pinned {
                Verdict::PinViolation
            } else {
                Verdict::UnexpectedAnchor { anchor }
            }
        }
        Err(_) => Verdict::UntrustedChain {
            presented_issuer: links.last().unwrap_or(leaf).issuer.to_string(),
        },
    }
}

/// Probe the full Table 6 target list through a proxy, returning one
/// report per target. `pinned_targets` lists endpoints whose client apps
/// pin their issuer. A classified [`MintError`](crate::proxy::MintError)
/// from the proxy propagates instead of panicking.
pub fn probe_all(
    proxy: &mut crate::proxy::MitmProxy,
    origin: &OriginServers,
    device_store: &RootStore,
    pinned_targets: &[Target],
) -> Result<Vec<ProbeReport>, crate::proxy::MintError> {
    let expected = origin.issuer_identity();
    let mut targets: Vec<Target> = origin.targets().cloned().collect();
    targets.sort_by_key(|a| a.to_string());
    let mut reports = Vec::with_capacity(targets.len());
    for t in &targets {
        let chain = proxy.serve(t, origin)?;
        reports.push(probe(
            t,
            &chain,
            device_store,
            &expected,
            pinned_targets.contains(t),
        ));
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proxy::MitmProxy;
    use tangled_pki::stores::ReferenceStore;
    use tangled_pki::trust::AnchorSource;

    fn device_store() -> RootStore {
        ReferenceStore::Aosp44.cached().cloned_as("device")
    }

    #[test]
    fn clean_path_without_proxy() {
        let origin = OriginServers::for_table6();
        let store = device_store();
        let expected = origin.issuer_identity();
        let t = Target::parse("gmail.com:443").unwrap();
        let chain = origin.chain(&t).unwrap().to_vec();
        let report = probe(&t, &chain, &store, &expected, false);
        assert_eq!(report.verdict, Verdict::Clean);
    }

    #[test]
    fn reality_mine_interception_detected() {
        let origin = OriginServers::for_table6();
        let mut proxy = MitmProxy::reality_mine().unwrap();
        let store = device_store();
        let reports = probe_all(&mut proxy, &origin, &store, &[]).unwrap();
        let intercepted: Vec<_> = reports
            .iter()
            .filter(|r| r.verdict.is_interception())
            .collect();
        // Exactly the 12 Table 6 intercepted endpoints are flagged.
        assert_eq!(intercepted.len(), 12);
        for r in &intercepted {
            match &r.verdict {
                Verdict::UntrustedChain { presented_issuer } => {
                    assert!(presented_issuer.contains("Reality Mine"));
                }
                other => panic!("expected UntrustedChain, got {other:?}"),
            }
        }
        // The 9 whitelisted endpoints probe clean.
        assert_eq!(reports.len() - intercepted.len(), 9);
    }

    #[test]
    fn installed_proxy_root_becomes_unexpected_anchor() {
        // The §6 threat: if the proxy root IS installed (root app), the
        // chain validates — only anchor comparison catches it.
        let origin = OriginServers::for_table6();
        let mut proxy = MitmProxy::reality_mine().unwrap();
        let mut store = device_store();
        store.add_cert(Arc::clone(proxy.root_cert()), AnchorSource::RootApp);
        let expected = origin.issuer_identity();
        let t = Target::parse("www.chase.com:443").unwrap();
        let chain = proxy.serve(&t, &origin).unwrap();
        let report = probe(&t, &chain, &store, &expected, false);
        match report.verdict {
            Verdict::UnexpectedAnchor { ref anchor } => {
                assert!(anchor.subject.contains("Reality Mine"));
            }
            ref other => panic!("expected UnexpectedAnchor, got {other:?}"),
        }
    }

    #[test]
    fn pinning_detects_even_with_installed_root() {
        let origin = OriginServers::for_table6();
        let mut proxy = MitmProxy::reality_mine().unwrap();
        let mut store = device_store();
        store.add_cert(Arc::clone(proxy.root_cert()), AnchorSource::RootApp);
        let expected = origin.issuer_identity();
        let t = Target::parse("mail.google.com:443").unwrap();
        let chain = proxy.serve(&t, &origin).unwrap();
        let report = probe(&t, &chain, &store, &expected, true);
        assert_eq!(report.verdict, Verdict::PinViolation);
    }

    #[test]
    fn no_chain_verdict() {
        let store = device_store();
        let origin = OriginServers::for_table6();
        let expected = origin.issuer_identity();
        let t = Target::new("unreachable.example", 443);
        let report = probe(&t, &[], &store, &expected, false);
        assert_eq!(report.verdict, Verdict::NoChain);
        assert!(report.verdict.is_interception());
    }
}
