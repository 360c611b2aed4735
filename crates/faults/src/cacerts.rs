//! Degradation of Android `cacerts` directory images.
//!
//! The unit here is one [`CacertsFile`] — a PEM-armored certificate named
//! `<subject-hash>.<n>`, exactly what a rooted device's
//! `/system/etc/security/cacerts/` holds. Each injector maps onto a
//! distinct loader failure so quarantine reports attribute damage
//! precisely:
//!
//! * [`FaultKind::PemArmor`] mangles the BEGIN/END *label* while keeping
//!   the `-----BEGIN` prefix intact, so the loader still takes its PEM
//!   path and reports a missing header/footer rather than bad DER.
//! * [`FaultKind::Base64Corruption`] injects an illegal character or
//!   deletes one, breaking the alphabet or the padding arithmetic.
//! * [`FaultKind::DerTruncation`] removes one whole body line — the
//!   armor and Base64 stay valid, but the decoded DER is short.
//! * [`FaultKind::EmptyEntry`] empties the file.
//! * [`FaultKind::DuplicateEntry`] appends a verbatim copy under a fresh
//!   `.9<n>` collision counter.

use crate::{Corruptor, FaultKind, InjectedFault};
use rand::rngs::StdRng;
use rand::Rng;
use std::ops::Range;
use tangled_pki::cacerts::CacertsFile;

fn is_pem(bytes: &[u8]) -> bool {
    bytes.starts_with(b"-----BEGIN")
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Byte ranges (newline included) of the Base64 body lines: everything
/// strictly between the BEGIN line and the END line.
fn body_lines(bytes: &[u8]) -> Vec<Range<usize>> {
    let mut spans = Vec::new();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            spans.push(start..i + 1);
            start = i + 1;
        }
    }
    if start < bytes.len() {
        spans.push(start..bytes.len());
    }
    spans
        .into_iter()
        .filter(|s| !bytes[s.clone()].starts_with(b"-----"))
        .collect()
}

impl Corruptor for Vec<CacertsFile> {
    fn unit_count(&self) -> usize {
        self.len()
    }

    fn supported(&self, index: usize) -> Vec<FaultKind> {
        let file = &self[index];
        if file.der.is_empty() {
            return Vec::new();
        }
        let mut kinds = vec![FaultKind::EmptyEntry];
        if file.name.len() >= 10 {
            kinds.push(FaultKind::DuplicateEntry);
        }
        if is_pem(&file.der) {
            kinds.push(FaultKind::PemArmor);
            kinds.push(FaultKind::Base64Corruption);
            if body_lines(&file.der).len() >= 2 {
                kinds.push(FaultKind::DerTruncation);
            }
        }
        kinds
    }

    fn inject(&mut self, index: usize, kind: FaultKind, rng: &mut StdRng) -> Option<InjectedFault> {
        let target = self[index].name.clone();
        match kind {
            FaultKind::EmptyEntry => self[index].der.clear(),
            FaultKind::DuplicateEntry => {
                let copy = self[index].der.clone();
                let name = format!("{}.9{index}", &target[..8]);
                self.push(CacertsFile { name, der: copy });
            }
            FaultKind::PemArmor => {
                let der = &mut self[index].der;
                // Mangle the first label byte of the header or the footer;
                // the `-----BEGIN` prefix survives so the loader still
                // routes the file through its PEM decoder.
                let pos = if rng.gen_bool(0.5) {
                    find(der, b"-----BEGIN ")? + b"-----BEGIN ".len()
                } else {
                    find(der, b"-----END ")? + b"-----END ".len()
                };
                let b = der.get_mut(pos)?;
                *b = if *b == b'X' { b'Y' } else { b'X' };
            }
            FaultKind::Base64Corruption => {
                let der = &mut self[index].der;
                let body: Vec<usize> = body_lines(der)
                    .into_iter()
                    .flat_map(|s| s.clone().filter(|&i| der[i] != b'\n'))
                    .collect();
                if body.is_empty() {
                    return None;
                }
                let pos = body[rng.gen_range(0..body.len())];
                if rng.gen_bool(0.5) {
                    // Outside the alphabet and not whitespace.
                    der[pos] = b'!';
                } else {
                    // Deleting one character breaks the length-multiple-of-4
                    // padding invariant.
                    der.remove(pos);
                }
            }
            FaultKind::DerTruncation => {
                let der = &mut self[index].der;
                let lines = body_lines(der);
                if lines.len() < 2 {
                    return None;
                }
                // Drop one whole body line: Base64 stays well-formed (every
                // line is a multiple of four characters) but the decoded
                // DER is missing 48 bytes and cannot parse.
                let victim = lines[rng.gen_range(0..lines.len())].clone();
                der.drain(victim);
            }
            _ => return None,
        }
        Some(InjectedFault { kind, target })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;
    use tangled_pki::cacerts::{from_cacerts_lenient, to_cacerts_pem};
    use tangled_pki::factory::CaFactory;
    use tangled_pki::store::RootStore;
    use tangled_pki::trust::AnchorSource;

    fn sample() -> Vec<CacertsFile> {
        let mut f = CaFactory::new();
        let mut store = RootStore::new("sample");
        for cn in ["Alpha Fault CA", "Beta Fault CA", "Gamma Fault CA", "Delta Fault CA"] {
            store.add_cert(f.root(cn), AnchorSource::Aosp);
        }
        to_cacerts_pem(&store)
    }

    /// Does the file's first `CERTIFICATE` block decode and parse?
    fn decodes(text: &str) -> bool {
        tangled_x509::pem::decode("CERTIFICATE", text)
            .is_ok_and(|der| tangled_x509::Certificate::parse(&der).is_ok())
    }

    fn degrade_all(kind: FaultKind, seed: u64) -> (Vec<CacertsFile>, Vec<InjectedFault>) {
        let mut files = sample();
        let ledger = FaultPlan::new(seed)
            .with_rate(1.0)
            .only(&[kind])
            .degrade(&mut files, 0);
        (files, ledger)
    }

    #[test]
    fn armor_damage_keeps_pem_routing_but_breaks_decode() {
        let (files, ledger) = degrade_all(FaultKind::PemArmor, 1);
        assert_eq!(ledger.len(), 4);
        for f in &files {
            assert!(f.der.starts_with(b"-----BEGIN"), "PEM routing lost");
            let text = std::str::from_utf8(&f.der).unwrap();
            assert!(!decodes(text));
        }
        let (store, quarantined) = from_cacerts_lenient("x", &files, AnchorSource::Aosp);
        assert_eq!(store.len(), 0);
        assert_eq!(quarantined.len(), files.len());
        assert!(quarantined.iter().all(|q| q.error.label() == "pem-armor"));
    }

    #[test]
    fn base64_damage_breaks_decode() {
        let (files, ledger) = degrade_all(FaultKind::Base64Corruption, 2);
        assert_eq!(ledger.len(), 4);
        for f in &files {
            let text = std::str::from_utf8(&f.der).unwrap();
            assert!(!decodes(text));
        }
    }

    #[test]
    fn line_removal_truncates_der() {
        let (files, ledger) = degrade_all(FaultKind::DerTruncation, 3);
        assert_eq!(ledger.len(), 4);
        for f in &files {
            let text = std::str::from_utf8(&f.der).unwrap();
            // The armor itself still scans; the DER inside does not parse.
            assert!(tangled_x509::pem::decode("CERTIFICATE", text).is_ok());
            assert!(!decodes(text));
        }
    }

    #[test]
    fn emptied_entries_are_empty() {
        let (files, ledger) = degrade_all(FaultKind::EmptyEntry, 4);
        assert_eq!(ledger.len(), 4);
        assert!(files.iter().all(|f| f.der.is_empty()));
    }

    #[test]
    fn duplicates_append_under_fresh_names() {
        let (files, ledger) = degrade_all(FaultKind::DuplicateEntry, 5);
        assert_eq!(ledger.len(), 4);
        assert_eq!(files.len(), 8);
        let names: std::collections::HashSet<_> = files.iter().map(|f| &f.name).collect();
        assert_eq!(names.len(), 8, "duplicate names must stay unique");
        for copy in &files[4..] {
            assert!(copy.name[9..].starts_with('9'));
            assert!(files[..4].iter().any(|orig| orig.der == copy.der));
        }
    }

    #[test]
    fn degradation_is_deterministic() {
        let run = || {
            let mut files = sample();
            let ledger = FaultPlan::new(99).with_rate(0.5).degrade(&mut files, 7);
            (files, ledger)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_files_are_not_revisited() {
        let mut files = sample();
        files[0].der.clear();
        assert!(files.supported(0).is_empty());
    }
}
