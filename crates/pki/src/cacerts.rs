//! Emulation of Android's on-disk root store layout.
//!
//! Android keeps its system root store as one file per anchor under
//! `/system/etc/security/cacerts/`, named `<subject-hash>.<n>` (footnote 2
//! of the paper), each holding one PEM-armored certificate — the format
//! third-party apps with root permissions manipulate directly in §6.
//!
//! There is one writer and one reader.
//!
//! * [`ArmorCache::write`] renders a [`RootStore`] into that layout,
//!   armoring each anchor's own DER. The cache renders each distinct
//!   certificate's subject hash and armor once, however many stores hold
//!   it; [`to_cacerts_pem`] writes one store through an empty cache.
//! * [`from_cacerts_lenient`] parses a directory back, accepting PEM or raw
//!   DER contents, and quarantines every file it refuses under a
//!   [`StoreLoadError`] label instead of aborting.
//!
//! [`Written::reload`] reads back a directory the writer produced, after
//! whatever damage was done to it, through the same lenient pass with one
//! shortcut: a file whose name and bytes are still exactly what the writer
//! produced for anchor *k* loads as anchor *k*, with no Base64 decode, DER
//! parse or identity render. That is sound because
//! `pem::decode(pem::encode(der)) == der` and `Certificate::parse` rejects
//! trailing bytes, so the full parse would yield anchor *k*'s certificate.
//! Every other file (damaged ones, copies appended under new names) takes
//! the full path, and the duplicate check sees both kinds, so the
//! quarantine list and the survivors are exactly what
//! [`from_cacerts_lenient`] over the whole directory gives.

use crate::store::RootStore;
use crate::trust::AnchorSource;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;
use tangled_crypto::sha1::sha1;
use tangled_x509::Certificate;

/// One file of the cacerts directory: name and contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacertsFile {
    /// File name, `xxxxxxxx.n` (8 hex digits of the subject hash, then a
    /// collision counter).
    pub name: String,
    /// File contents as written: PEM text from the writer. The reader
    /// also accepts raw DER here, as Android's loader does.
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
    ArmorCache::default().write(store).files
}

/// One certificate's file form: the subject hash its file is named after
/// and its PEM armor.
#[derive(Debug, Clone)]
struct Armor {
    /// Held so the address keying [`ArmorCache`] stays this certificate's.
    cert: Arc<Certificate>,
    hash: String,
    pem: Vec<u8>,
}

impl Armor {
    fn of(cert: &Arc<Certificate>) -> Armor {
        Armor {
            cert: Arc::clone(cert),
            hash: subject_hash(cert),
            pem: tangled_x509::pem::encode_certificate(cert).into_bytes(),
        }
    }
}

/// Each distinct certificate's subject hash and PEM armor, rendered once
/// and shared by every store written through the cache.
///
/// Entries are keyed by `Arc` address and hold their `Arc`, so no address
/// is reused while the cache lives. A certificate never [`added`] renders
/// afresh on each write.
///
/// [`added`]: ArmorCache::add
#[derive(Debug, Default)]
pub struct ArmorCache {
    by_addr: HashMap<usize, Armor>,
}

impl ArmorCache {
    /// Render every anchor of `store` the cache does not hold yet.
    pub fn add(&mut self, store: &RootStore) {
        for anchor in store.iter() {
            self.by_addr
                .entry(Arc::as_ptr(&anchor.cert) as usize)
                .or_insert_with(|| Armor::of(&anchor.cert));
        }
    }

    /// Render `store` into the cacerts layout (see [`to_cacerts_pem`]),
    /// remembering which anchor each file was written from.
    pub fn write<'a>(&'a self, store: &'a RootStore) -> Written<'a> {
        let armors: Vec<Cow<'a, Armor>> = store
            .iter()
            .map(|anchor| {
                self.by_addr
                    .get(&(Arc::as_ptr(&anchor.cert) as usize))
                    .map_or_else(|| Cow::Owned(Armor::of(&anchor.cert)), Cow::Borrowed)
            })
            .collect();
        let mut by_hash: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (k, armor) in armors.iter().enumerate() {
            by_hash.entry(armor.hash.as_str()).or_default().push(k);
        }
        let mut files = Vec::with_capacity(armors.len());
        let mut origin = Vec::with_capacity(armors.len());
        for (hash, anchors) in by_hash {
            for (n, k) in anchors.into_iter().enumerate() {
                files.push(CacertsFile {
                    name: format!("{hash}.{n}"),
                    der: armors[k].pem.clone(),
                });
                origin.push((k, n));
            }
        }
        Written {
            files,
            store,
            armors,
            origin,
        }
    }
}

/// A store rendered by [`ArmorCache::write`], with the anchor each file was
/// written from.
#[derive(Debug)]
pub struct Written<'a> {
    /// The cacerts directory, sorted by file name. Damage it in place or
    /// append to it; [`Written::reload`] reads whatever it holds.
    pub files: Vec<CacertsFile>,
    store: &'a RootStore,
    /// Each anchor's armor, by position in the store.
    armors: Vec<Cow<'a, Armor>>,
    /// For the file first written at each position: the anchor's position
    /// and the file's collision counter.
    origin: Vec<(usize, usize)>,
}

impl Written<'_> {
    /// Read the directory back with quarantine, as [`from_cacerts_lenient`]
    /// would, and return the written store's anchors that survive — those
    /// whose identity some loaded file carries — with their provenance
    /// and enablement, plus the quarantine ledger in file order. Files
    /// still exactly as written load without a parse (module docs).
    pub fn reload(&self) -> (RootStore, Vec<QuarantinedFile>) {
        let mut name = String::new();
        let loaded = load_all(&self.files, |i, file| {
            let &(k, n) = self.origin.get(i)?;
            let armor = &self.armors[k];
            name.clear();
            let _ = write!(name, "{}.{n}", armor.hash);
            (file.name == name && file.der == armor.pem).then_some(&*armor.cert)
        });
        let mut survived = vec![false; self.armors.len()];
        let mut parsed = HashSet::new();
        let mut quarantined = Vec::new();
        for (i, (file, result)) in self.files.iter().zip(loaded).enumerate() {
            match result {
                Ok(Cow::Borrowed(_)) => survived[self.origin[i].0] = true,
                Ok(Cow::Owned(cert)) => {
                    parsed.insert(cert.identity());
                }
                Err(error) => quarantined.push(QuarantinedFile {
                    file: file.name.clone(),
                    error,
                }),
            }
        }
        let mut store = self.store.clone();
        for (k, id) in self.store.identities().iter().enumerate() {
            if !survived[k] && !parsed.contains(id) {
                store.remove(id);
            }
        }
        (store, quarantined)
    }
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

/// The one lenient pass: each file's certificate, or why it was refused,
/// in file order. `known(i, file)` may name the certificate a file at
/// position `i` is known to hold, which then loads without a parse; every
/// other file goes through [`load_file`]. A certificate byte-identical to
/// one an earlier file loaded, known or parsed, is a duplicate.
fn load_all<'c>(
    files: &[CacertsFile],
    mut known: impl FnMut(usize, &CacertsFile) -> Option<&'c Certificate>,
) -> Vec<Result<Cow<'c, Certificate>, StoreLoadError>> {
    let mut loaded: Vec<_> = files
        .iter()
        .enumerate()
        .map(|(i, file)| match known(i, file) {
            Some(cert) => Ok(Cow::Borrowed(cert)),
            None => load_file(file).map(Cow::Owned),
        })
        .collect();
    let mut seen = HashSet::new();
    let duplicate: Vec<bool> = loaded
        .iter()
        .map(|result| matches!(result, Ok(cert) if !seen.insert(cert.to_der())))
        .collect();
    for (result, duplicate) in loaded.iter_mut().zip(duplicate) {
        if duplicate {
            *result = Err(StoreLoadError::DuplicateDer);
        }
    }
    loaded
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
    for (file, result) in files.iter().zip(load_all(files, |_, _| None)) {
        match result {
            Ok(cert) => {
                store.add_cert(Arc::new(cert.into_owned()), source);
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

    fn sample_store(n: usize) -> RootStore {
        let mut f = CaFactory::new();
        let mut store = RootStore::new("lenient-sample");
        for i in 0..n {
            store.add_cert(f.root(&format!("Lenient CA {i}")), AnchorSource::Aosp);
        }
        store
    }

    fn pem_sample(n: usize) -> Vec<CacertsFile> {
        to_cacerts_pem(&sample_store(n))
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

    // ---- shortcut reload ---------------------------------------------------

    /// Reload `written` through the shortcut, assert it agrees with the
    /// full lenient read of the same files (same quarantine, same
    /// surviving identities), and return the quarantine labels.
    fn reload_agrees(written: &Written) -> Vec<&'static str> {
        let (survivors, quarantined) = written.reload();
        let (lenient, expected) = from_cacerts_lenient("x", &written.files, AnchorSource::Unknown);
        assert_eq!(quarantined, expected);
        let set = |s: &RootStore| -> std::collections::BTreeSet<_> {
            s.identities().iter().cloned().collect()
        };
        assert_eq!(set(&survivors), set(&lenient));
        quarantined.iter().map(|q| q.error.label()).collect()
    }

    fn cache_of(store: &RootStore) -> ArmorCache {
        let mut cache = ArmorCache::default();
        cache.add(store);
        cache
    }

    #[test]
    fn cached_writer_matches_uncached_and_reloads_every_anchor() {
        let store = ReferenceStore::Aosp44.cached();
        let cache = cache_of(&store);
        let written = cache.write(&store);
        assert_eq!(written.files, to_cacerts_pem(&store));
        assert!(reload_agrees(&written).is_empty());
        // Survivors are the written anchors themselves, in store order.
        let (survivors, _) = written.reload();
        assert_eq!(survivors.identities(), store.identities());
        assert!(survivors.iter().all(|a| a.source == AnchorSource::Aosp));
    }

    #[test]
    fn verbatim_appended_copy_is_still_a_duplicate() {
        let store = sample_store(3);
        let cache = cache_of(&store);
        let mut written = cache.write(&store);
        let mut copy = written.files[0].clone();
        copy.name = format!("{}.90", &copy.name[..8]);
        written.files.push(copy);
        assert_eq!(reload_agrees(&written), ["duplicate-der"]);
        assert_eq!(written.reload().0.len(), 3);
    }

    #[test]
    fn unchanged_bytes_under_a_wrong_hash_name_mismatch() {
        let store = sample_store(3);
        let cache = cache_of(&store);
        let mut written = cache.write(&store);
        written.files[1].name = "00000000.0".into();
        assert_eq!(reload_agrees(&written), ["hash-mismatch"]);
        assert_eq!(written.reload().0.len(), 2);
    }

    #[test]
    fn unchanged_bytes_under_a_malformed_name_are_bad_names() {
        let store = sample_store(3);
        let cache = cache_of(&store);
        let mut written = cache.write(&store);
        written.files[2].name = "zzzz.0".into();
        assert_eq!(reload_agrees(&written), ["bad-name"]);
        assert_eq!(written.reload().0.len(), 2);
    }

    #[test]
    fn damaged_files_take_the_lenient_path() {
        let store = sample_store(4);
        // An empty cache renders every anchor afresh; reload agrees too.
        let cache = ArmorCache::default();
        let mut written = cache.write(&store);
        let raw = |file: &CacertsFile| {
            tangled_x509::pem::decode("CERTIFICATE", std::str::from_utf8(&file.der).unwrap())
                .unwrap()
        };
        // A raw-DER copy of an untouched file is a duplicate; a raw-DER
        // copy of a file that is then emptied keeps its anchor alive.
        let copies: Vec<CacertsFile> = [0, 2]
            .iter()
            .map(|&i| CacertsFile {
                name: format!("{}.7", &written.files[i].name[..8]),
                der: raw(&written.files[i]),
            })
            .collect();
        written.files.extend(copies);
        written.files[0].der.clear();
        let keep = written.files[1].der.len() / 2;
        written.files[1].der.truncate(keep);
        assert_eq!(
            reload_agrees(&written),
            ["empty-file", "pem-armor", "duplicate-der"]
        );
        assert_eq!(written.reload().0.len(), 3);
    }
}
