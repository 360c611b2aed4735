//! Emulation of Android's on-disk root store layout.
//!
//! Android keeps its system root store as one file per anchor under
//! `/system/etc/security/cacerts/`, named `<subject-hash>.<n>` (footnote 2
//! of the paper), each holding one PEM-armored certificate — the format
//! third-party apps with root permissions manipulate directly in §6.
//!
//! There is one writer and one reader. [`to_cacerts_pem`] renders a
//! [`RootStore`] into that layout, armoring each anchor's own DER.
//! [`from_cacerts_lenient`] parses a directory back, accepting PEM or raw
//! DER contents, and quarantines every file it refuses under a
//! [`StoreLoadError`] label instead of aborting.

use crate::store::RootStore;
use crate::trust::AnchorSource;
use std::collections::BTreeMap;
use std::sync::Arc;
use tangled_crypto::sha1::sha1;
use tangled_x509::Certificate;

/// One file of the cacerts directory: name and contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacertsFile {
    /// File name, `xxxxxxxx.n` (8 hex digits of the subject hash, then a
    /// collision counter).
    pub name: String,
    /// File contents as written: PEM text from [`to_cacerts_pem`]. The
    /// reader also accepts raw DER here, as Android's loader does.
    pub der: Vec<u8>,
}

/// The subject-hash prefix used in the file name (first 4 bytes of the
/// SHA-1 of the DER-encoded subject, rendered as 8 hex digits — a stand-in
/// for OpenSSL's `X509_NAME_hash`).
pub fn subject_hash(cert: &Certificate) -> String {
    let h = sha1(&cert.subject.to_der());
    format!("{:02x}{:02x}{:02x}{:02x}", h[0], h[1], h[2], h[3])
}

/// Render a store into the cacerts layout with PEM-armored contents — the
/// format Android actually ships. Output is sorted by file name; hash
/// collisions get increasing `.n` suffixes in store order, as on Android.
pub fn to_cacerts_pem(store: &RootStore) -> Vec<CacertsFile> {
    let mut by_hash: BTreeMap<String, Vec<&Certificate>> = BTreeMap::new();
    for anchor in store.iter() {
        by_hash
            .entry(subject_hash(&anchor.cert))
            .or_default()
            .push(&anchor.cert);
    }
    let mut files = Vec::with_capacity(store.len());
    for (hash, certs) in by_hash {
        for (n, cert) in certs.into_iter().enumerate() {
            files.push(CacertsFile {
                name: format!("{hash}.{n}"),
                der: tangled_x509::pem::encode_certificate(cert).into_bytes(),
            });
        }
    }
    files
}

/// How one cacerts file failed to load: the *quarantine* classification
/// the reader records for each refused file before it keeps going.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreLoadError {
    /// File name violates the `xxxxxxxx.n` convention.
    BadName,
    /// The file has no contents at all.
    EmptyFile,
    /// PEM armor or Base64 body damage (the file routed through the PEM
    /// decoder and failed there).
    Pem(tangled_x509::pem::PemError),
    /// Armor was fine (or absent) but the DER inside does not parse.
    MalformedDer,
    /// Parsed, but the file name's hash prefix does not match the
    /// certificate's subject.
    HashMismatch,
    /// Byte-identical certificate already loaded from an earlier file.
    DuplicateDer,
}

impl StoreLoadError {
    /// Stable label for health-report keys.
    pub fn label(&self) -> &'static str {
        use tangled_x509::pem::PemError;
        match self {
            StoreLoadError::BadName => "bad-name",
            StoreLoadError::EmptyFile => "empty-file",
            StoreLoadError::Pem(PemError::MissingHeader | PemError::MissingFooter) => "pem-armor",
            StoreLoadError::Pem(_) => "bad-base64",
            StoreLoadError::MalformedDer => "malformed-der",
            StoreLoadError::HashMismatch => "hash-mismatch",
            StoreLoadError::DuplicateDer => "duplicate-der",
        }
    }
}

impl std::fmt::Display for StoreLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreLoadError::Pem(e) => write!(f, "pem damage: {e}"),
            other => f.write_str(other.label()),
        }
    }
}

impl std::error::Error for StoreLoadError {}

/// One file the lenient loader refused, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedFile {
    /// The offending file's name.
    pub file: String,
    /// The classification it was quarantined under.
    pub error: StoreLoadError,
}

/// Classify a single cacerts file, returning the parsed certificate or
/// the quarantine reason. Never panics, whatever the bytes.
fn load_file(file: &CacertsFile) -> Result<Certificate, StoreLoadError> {
    let valid_name = file.name.len() >= 10
        && file.name.as_bytes()[8] == b'.'
        && file.name[..8].bytes().all(|b| b.is_ascii_hexdigit())
        && file.name[9..].bytes().all(|b| b.is_ascii_digit());
    if !valid_name {
        return Err(StoreLoadError::BadName);
    }
    if file.der.is_empty() {
        return Err(StoreLoadError::EmptyFile);
    }
    // Auto-detect PEM armor vs raw DER, like Android's cert loader.
    let cert = if file.der.starts_with(b"-----BEGIN") {
        // Non-UTF-8 armor cannot contain a findable header.
        let text = std::str::from_utf8(&file.der)
            .map_err(|_| StoreLoadError::Pem(tangled_x509::pem::PemError::MissingHeader))?;
        let der =
            tangled_x509::pem::decode("CERTIFICATE", text).map_err(StoreLoadError::Pem)?;
        Certificate::parse(&der).map_err(|_| StoreLoadError::MalformedDer)?
    } else {
        Certificate::parse(&file.der).map_err(|_| StoreLoadError::MalformedDer)?
    };
    if subject_hash(&cert) != file.name[..8] {
        return Err(StoreLoadError::HashMismatch);
    }
    Ok(cert)
}

/// Parse a cacerts directory of PEM or raw-DER files, skipping and
/// recording every file that fails instead of aborting. Returns the store
/// built from the healthy files plus the quarantine ledger, in file order.
/// Every anchor is tagged with the given provenance (a reader cannot tell
/// who wrote a file).
pub fn from_cacerts_lenient(
    name: &str,
    files: &[CacertsFile],
    source: AnchorSource,
) -> (RootStore, Vec<QuarantinedFile>) {
    let mut store = RootStore::new(name);
    let mut quarantined = Vec::new();
    let mut seen_der: std::collections::HashSet<Vec<u8>> = std::collections::HashSet::new();
    for file in files {
        match load_file(file) {
            Ok(cert) => {
                if !seen_der.insert(cert.to_der().to_vec()) {
                    quarantined.push(QuarantinedFile {
                        file: file.name.clone(),
                        error: StoreLoadError::DuplicateDer,
                    });
                    continue;
                }
                store.add_cert(Arc::new(cert), source);
            }
            Err(error) => quarantined.push(QuarantinedFile {
                file: file.name.clone(),
                error,
            }),
        }
    }
    (store, quarantined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::CaFactory;
    use crate::stores::ReferenceStore;

    /// The same directory with every file's PEM armor stripped to raw DER.
    fn der_copy(files: &[CacertsFile]) -> Vec<CacertsFile> {
        files
            .iter()
            .map(|f| CacertsFile {
                name: f.name.clone(),
                der: tangled_x509::pem::decode(
                    "CERTIFICATE",
                    std::str::from_utf8(&f.der).unwrap(),
                )
                .unwrap(),
            })
            .collect()
    }

    /// Read a directory that must load without a single quarantined file.
    fn read_clean(name: &str, files: &[CacertsFile], source: AnchorSource) -> RootStore {
        let (store, quarantined) = from_cacerts_lenient(name, files, source);
        assert!(quarantined.is_empty(), "quarantined: {quarantined:?}");
        store
    }

    /// The labels the reader quarantined `files` under, in file order.
    fn quarantine_labels(files: &[CacertsFile]) -> Vec<&'static str> {
        let (_, quarantined) = from_cacerts_lenient("x", files, AnchorSource::Aosp);
        quarantined.iter().map(|q| q.error.label()).collect()
    }

    #[test]
    fn round_trip_aosp_store() {
        let store = ReferenceStore::Aosp41.cached();
        let files = to_cacerts_pem(&store);
        assert_eq!(files.len(), store.len());
        let back = read_clean("reread", &files, AnchorSource::Aosp);
        assert_eq!(back.len(), store.len());
        let orig: std::collections::BTreeSet<_> =
            store.identities().iter().cloned().collect();
        let reread: std::collections::BTreeSet<_> =
            back.identities().iter().cloned().collect();
        assert_eq!(orig, reread);
    }

    #[test]
    fn file_names_are_hash_dot_counter() {
        let store = ReferenceStore::Aosp41.cached();
        for f in to_cacerts_pem(&store) {
            assert_eq!(f.name.as_bytes()[8], b'.');
            assert!(f.name[..8].bytes().all(|b| b.is_ascii_hexdigit()));
        }
    }

    #[test]
    fn pem_round_trip_matches_der() {
        let store = ReferenceStore::Aosp41.cached();
        let pem_files = to_cacerts_pem(&store);
        assert!(pem_files[0].der.starts_with(b"-----BEGIN CERTIFICATE-----"));
        // The armor wraps each anchor's own DER, byte for byte.
        let der_files = der_copy(&pem_files);
        for f in &der_files {
            let cert = Certificate::parse(&f.der).unwrap();
            assert!(store.iter().any(|a| a.cert.to_der() == f.der.as_slice()));
            assert_eq!(subject_hash(&cert), f.name[..8]);
        }
        let orig: std::collections::BTreeSet<_> =
            store.identities().iter().cloned().collect();
        for files in [&pem_files, &der_files] {
            let back = read_clean("pem", files, AnchorSource::Aosp);
            assert_eq!(back.len(), store.len());
            let reread: std::collections::BTreeSet<_> =
                back.identities().iter().cloned().collect();
            assert_eq!(orig, reread);
        }
    }

    #[test]
    fn corrupt_file_rejected() {
        let mut f = CaFactory::new();
        let mut store = RootStore::new("one");
        store.add_cert(f.root("Corrupt Test CA"), AnchorSource::Aosp);
        let mut files = der_copy(&to_cacerts_pem(&store));
        files[0].der[30] ^= 0xff;
        let labels = quarantine_labels(&files);
        assert_eq!(labels.len(), 1);
        assert!(matches!(labels[0], "malformed-der" | "hash-mismatch"));
    }

    #[test]
    fn wrong_name_rejected() {
        let mut f = CaFactory::new();
        let mut store = RootStore::new("one");
        store.add_cert(f.root("Name Test CA"), AnchorSource::Aosp);
        let mut files = to_cacerts_pem(&store);
        files[0].name = "zzzz.0".into();
        assert_eq!(quarantine_labels(&files), ["bad-name"]);
        // Valid shape, wrong hash.
        let mut files2 = to_cacerts_pem(&store);
        files2[0].name = "00000000.0".into();
        assert_eq!(quarantine_labels(&files2), ["hash-mismatch"]);
    }

    #[test]
    fn root_app_tampering_is_visible_via_diff() {
        // The §6 scenario end-to-end at the file level: a root app drops a
        // new raw-DER file into cacerts; a diff against AOSP flags it.
        let mut f = CaFactory::new();
        let aosp = ReferenceStore::Aosp44.cached();
        let mut files = to_cacerts_pem(&aosp);
        let mal = f.root("CRAZY HOUSE");
        let mal_hash = subject_hash(&mal);
        files.push(CacertsFile {
            name: format!("{mal_hash}.0"),
            der: mal.to_der().to_vec(),
        });
        let observed = read_clean("tampered", &files, AnchorSource::Unknown);
        let d = crate::diff::diff(&aosp, &observed);
        assert_eq!(d.added.len(), 1);
        assert!(d.added[0].subject.contains("CRAZY HOUSE"));
        assert!(d.removed.is_empty());
    }

    // ---- lenient loading / quarantine ------------------------------------

    fn pem_sample(n: usize) -> Vec<CacertsFile> {
        let mut f = CaFactory::new();
        let mut store = RootStore::new("lenient-sample");
        for i in 0..n {
            store.add_cert(f.root(&format!("Lenient CA {i}")), AnchorSource::Aosp);
        }
        to_cacerts_pem(&store)
    }

    #[test]
    fn lenient_empty_directory() {
        let (store, quarantined) =
            from_cacerts_lenient("empty", &[], AnchorSource::Aosp);
        assert_eq!(store.len(), 0);
        assert!(quarantined.is_empty());
    }

    #[test]
    fn lenient_truncated_pem_is_quarantined() {
        let mut files = pem_sample(3);
        // Chop the file mid-body: the footer disappears.
        let keep = files[1].der.len() / 2;
        files[1].der.truncate(keep);
        let (store, q) = from_cacerts_lenient("t", &files, AnchorSource::Aosp);
        assert_eq!(store.len(), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].file, files[1].name);
        assert_eq!(
            q[0].error,
            StoreLoadError::Pem(tangled_x509::pem::PemError::MissingFooter)
        );
    }

    #[test]
    fn lenient_bad_base64_padding_is_quarantined() {
        let mut files = pem_sample(2);
        // Delete one body character: length is no longer a multiple of 4.
        let pos = files[0]
            .der
            .iter()
            .position(|&b| b == b'\n')
            .unwrap()
            + 1;
        files[0].der.remove(pos);
        let (store, q) = from_cacerts_lenient("p", &files, AnchorSource::Aosp);
        assert_eq!(store.len(), 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].error.label(), "bad-base64");
    }

    #[test]
    fn lenient_non_certificate_contents_are_quarantined() {
        let mut files = pem_sample(1);
        files.push(CacertsFile {
            name: "0123abcd.0".into(),
            der: b"not a certificate at all".to_vec(),
        });
        files.push(CacertsFile {
            name: "4567ef01.0".into(),
            der: vec![0x30, 0x82, 0xFF, 0xFF, 0x01, 0x02],
        });
        let (store, q) = from_cacerts_lenient("n", &files, AnchorSource::Aosp);
        assert_eq!(store.len(), 1);
        assert_eq!(q.len(), 2);
        assert!(q.iter().all(|e| e.error == StoreLoadError::MalformedDer));
    }

    #[test]
    fn lenient_empty_file_and_bad_name_are_quarantined() {
        let mut files = pem_sample(1);
        files.push(CacertsFile {
            name: "89ab23cd.1".into(),
            der: Vec::new(),
        });
        files.push(CacertsFile {
            name: "README".into(),
            der: b"-----BEGIN CERTIFICATE-----\n".to_vec(),
        });
        let (store, q) = from_cacerts_lenient("e", &files, AnchorSource::Aosp);
        assert_eq!(store.len(), 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q[0].error, StoreLoadError::EmptyFile);
        assert_eq!(q[1].error, StoreLoadError::BadName);
    }

    #[test]
    fn lenient_duplicate_der_is_quarantined_once() {
        let mut files = pem_sample(2);
        let mut copy = files[0].clone();
        copy.name = format!("{}.7", &files[0].name[..8]);
        files.push(copy);
        let (store, q) = from_cacerts_lenient("d", &files, AnchorSource::Aosp);
        assert_eq!(store.len(), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].error, StoreLoadError::DuplicateDer);
        assert!(q[0].file.ends_with(".7"));
    }

    #[test]
    fn lenient_never_panics_on_byte_garbage() {
        // A grab-bag of hostile inputs; the loader must classify, not die.
        let hostile: Vec<CacertsFile> = vec![
            CacertsFile { name: "00000000.0".into(), der: vec![0xFF; 3] },
            CacertsFile { name: "00000000.1".into(), der: b"-----BEGIN".to_vec() },
            CacertsFile {
                name: "00000000.2".into(),
                der: b"-----BEGIN CERTIFICATE-----\n\xFF\xFE\n-----END CERTIFICATE-----\n"
                    .to_vec(),
            },
            CacertsFile { name: "..".into(), der: vec![] },
            CacertsFile { name: "00000000.3".into(), der: vec![0x30] },
        ];
        let (store, q) = from_cacerts_lenient("h", &hostile, AnchorSource::Unknown);
        assert_eq!(store.len(), 0);
        assert_eq!(q.len(), hostile.len());
    }

    #[test]
    fn lenient_clean_directory_matches_strict() {
        // A clean directory loads every file: the store read back holds
        // exactly the anchors it was written from.
        let mut f = CaFactory::new();
        let mut written = RootStore::new("written");
        for i in 0..4 {
            written.add_cert(f.root(&format!("Lenient CA {i}")), AnchorSource::Aosp);
        }
        let read = read_clean("l", &to_cacerts_pem(&written), AnchorSource::Aosp);
        let set = |s: &RootStore| -> std::collections::BTreeSet<_> {
            s.identities().iter().cloned().collect()
        };
        assert_eq!(read.len(), written.len());
        assert_eq!(set(&read), set(&written));
    }
}
