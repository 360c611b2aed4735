//! The sectioned snapshot container.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! +--------------------------------------------------------------+
//! | magic "TNGLSNP1" (8)  | version u32 | section count u32      |
//! +--------------------------------------------------------------+
//! | section table: count × { id u8, offset u64, len u64,         |
//! |                          checksum u64 }   (25 bytes each)    |
//! +--------------------------------------------------------------+
//! | section bodies, concatenated in table order                  |
//! +--------------------------------------------------------------+
//! ```
//!
//! The checksum is the shared FNV-1a 64-bit fold over the body bytes.
//! [`Snapshot::parse`] validates the header and table eagerly (extents
//! in bounds, no duplicate ids) but leaves bodies untouched;
//! [`Snapshot::section`] verifies a body's checksum on first access —
//! the lazy half of the contract. Corruption anywhere classifies as a
//! [`SnapError`], never a panic.

use crate::SnapError;
use tangled_crypto::hash::fnv1a;

/// The container magic.
pub const MAGIC: [u8; 8] = *b"TNGLSNP1";
/// The format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 1;
/// Upper bound on table entries — far above any real file, low enough
/// that a corrupt count cannot drive a large allocation.
pub const MAX_SECTIONS: usize = 64;

const HEADER_LEN: usize = 16;
const ENTRY_LEN: usize = 25;

/// The sections a study snapshot carries, in file order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionId {
    /// Headline counts (for `snap verify` reporting).
    Meta,
    /// Deduplicated certificate DER blobs.
    Corpus,
    /// Notary chains, intermediates and the root universe, as corpus
    /// indices.
    Ecosystem,
    /// Root stores: the six reference profiles then every distinct
    /// device store.
    Stores,
    /// Devices and sessions.
    Population,
    /// ValidationIndex tallies.
    Validation,
    /// The RunHealth ledger.
    Health,
    /// The four ecosystem store families (Apple, Microsoft, Mozilla NSS,
    /// Java) the disparity engine compares — kept apart from `Stores` so
    /// pre-disparity snapshots degrade by quarantine, not by failing the
    /// reference-store decode.
    EcoStores,
    /// Delta-chain metadata: the id of the base this file applies over,
    /// the epoch label, and the checksums of the sections it *reuses*
    /// from the base. Present only in delta files ([`crate::delta`]).
    DeltaMeta,
    /// Folded trustd swap state: the journal compacted to one
    /// last-install record per profile, each at its original epoch
    /// ([`crate::compact`]). Present only in checkpoint deltas.
    TrustState,
}

impl SectionId {
    /// Every section this build knows, in canonical file order. Study
    /// snapshots carry only [`SectionId::STUDY`]; the two trailing ids
    /// appear in delta and checkpoint files.
    pub const ALL: [SectionId; 10] = [
        SectionId::Meta,
        SectionId::Corpus,
        SectionId::Ecosystem,
        SectionId::Stores,
        SectionId::Population,
        SectionId::Validation,
        SectionId::Health,
        SectionId::EcoStores,
        SectionId::DeltaMeta,
        SectionId::TrustState,
    ];

    /// The sections a full study snapshot carries, in file order.
    pub const STUDY: [SectionId; 8] = [
        SectionId::Meta,
        SectionId::Corpus,
        SectionId::Ecosystem,
        SectionId::Stores,
        SectionId::Population,
        SectionId::Validation,
        SectionId::Health,
        SectionId::EcoStores,
    ];

    /// The table id byte.
    pub fn tag(self) -> u8 {
        match self {
            SectionId::Meta => 1,
            SectionId::Corpus => 2,
            SectionId::Ecosystem => 3,
            SectionId::Stores => 4,
            SectionId::Population => 5,
            SectionId::Validation => 6,
            SectionId::Health => 7,
            SectionId::EcoStores => 8,
            SectionId::DeltaMeta => 9,
            SectionId::TrustState => 10,
        }
    }

    /// Human-readable section name (stable: used in error labels and
    /// `snap verify` output).
    pub fn name(self) -> &'static str {
        match self {
            SectionId::Meta => "meta",
            SectionId::Corpus => "corpus",
            SectionId::Ecosystem => "ecosystem",
            SectionId::Stores => "stores",
            SectionId::Population => "population",
            SectionId::Validation => "validation",
            SectionId::Health => "health",
            SectionId::EcoStores => "eco-stores",
            SectionId::DeltaMeta => "delta-meta",
            SectionId::TrustState => "trust-state",
        }
    }

    /// Resolve a table id byte to a known section.
    pub fn from_tag(tag: u8) -> Option<SectionId> {
        SectionId::ALL.into_iter().find(|s| s.tag() == tag)
    }
}

/// One parsed section-table row.
#[derive(Debug, Clone)]
pub struct SectionEntry {
    /// The raw id byte (may name a section this build does not know).
    pub tag: u8,
    /// Body offset from the start of the file.
    pub offset: u64,
    /// Body length in bytes.
    pub len: u64,
    /// FNV-1a 64 checksum of the body.
    pub checksum: u64,
}

/// Assemble a container from encoded section bodies.
///
/// Bodies land in the order given; the caller passes them in
/// [`SectionId::ALL`] order so the file bytes are a pure function of the
/// section contents — this is what makes snapshots byte-identical at any
/// encoding pool width.
pub fn assemble(sections: &[(SectionId, Vec<u8>)]) -> Vec<u8> {
    assemble_tagged(
        &sections
            .iter()
            .map(|(id, body)| (id.tag(), body.as_slice()))
            .collect::<Vec<_>>(),
    )
}

/// [`assemble`] over raw tag bytes and borrowed bodies — the
/// materialisation path reassembles sections lifted out of other files
/// without copying them into owned `Vec`s first. Byte-identical to
/// [`assemble`] for the same tags and bodies.
pub fn assemble_tagged(sections: &[(u8, &[u8])]) -> Vec<u8> {
    let table_len = sections.len() * ENTRY_LEN;
    let bodies: usize = sections.iter().map(|(_, b)| b.len()).sum();
    let mut out = Vec::with_capacity(HEADER_LEN + table_len + bodies);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let mut offset = (HEADER_LEN + table_len) as u64;
    for (tag, body) in sections {
        out.push(*tag);
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(body).to_le_bytes());
        offset += body.len() as u64;
    }
    for (_, body) in sections {
        out.extend_from_slice(body);
    }
    out
}

/// A parsed container: validated header and table, lazily checked bodies.
#[derive(Debug)]
pub struct Snapshot {
    data: Vec<u8>,
    entries: Vec<SectionEntry>,
}

impl Snapshot {
    /// Parse a container from its full byte image. Header and section
    /// table are validated here; body checksums are deferred to
    /// [`Snapshot::section`].
    pub fn parse(data: Vec<u8>) -> Result<Snapshot, SnapError> {
        if data.len() < HEADER_LEN {
            return Err(SnapError::Truncated { context: "header" });
        }
        if data[..8] != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(SnapError::BadVersion { found: version });
        }
        let count = u32::from_le_bytes(data[12..16].try_into().expect("4 bytes")) as usize;
        if count > MAX_SECTIONS {
            return Err(SnapError::BadSectionTable {
                detail: "section count exceeds maximum",
            });
        }
        let table_end = HEADER_LEN + count * ENTRY_LEN;
        if data.len() < table_end {
            return Err(SnapError::Truncated {
                context: "section table",
            });
        }
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let row = &data[HEADER_LEN + i * ENTRY_LEN..HEADER_LEN + (i + 1) * ENTRY_LEN];
            let entry = SectionEntry {
                tag: row[0],
                offset: u64::from_le_bytes(row[1..9].try_into().expect("8 bytes")),
                len: u64::from_le_bytes(row[9..17].try_into().expect("8 bytes")),
                checksum: u64::from_le_bytes(row[17..25].try_into().expect("8 bytes")),
            };
            let end = entry.offset.checked_add(entry.len).ok_or({
                SnapError::BadSectionTable {
                    detail: "section extent overflows",
                }
            })?;
            if entry.offset < table_end as u64 || end > data.len() as u64 {
                return Err(SnapError::BadSectionTable {
                    detail: "section extent out of bounds",
                });
            }
            if entries.iter().any(|e: &SectionEntry| e.tag == entry.tag) {
                return Err(SnapError::BadSectionTable {
                    detail: "duplicate section id",
                });
            }
            entries.push(entry);
        }
        Ok(Snapshot { data, entries })
    }

    /// Read and parse a container file.
    pub fn open(path: &str) -> Result<Snapshot, SnapError> {
        Snapshot::parse(std::fs::read(path)?)
    }

    /// The parsed section table.
    pub fn entries(&self) -> &[SectionEntry] {
        &self.entries
    }

    /// Total container size in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// The full container bytes, as parsed.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// A section body, checksum-verified on access.
    pub fn section(&self, id: SectionId) -> Result<&[u8], SnapError> {
        let entry = self
            .entries
            .iter()
            .find(|e| e.tag == id.tag())
            .ok_or(SnapError::MissingSection { section: id.name() })?;
        let body = &self.data[entry.offset as usize..(entry.offset + entry.len) as usize];
        if fnv1a(body) != entry.checksum {
            return Err(SnapError::ChecksumMismatch { section: id.name() });
        }
        Ok(body)
    }

    /// The body bytes behind one table entry, checksum-verified on
    /// access. Errors are attributed to the entry's canonical section
    /// name (or `"unknown"` for a tag this build does not know).
    pub fn entry_body(&self, entry: &SectionEntry) -> Result<&[u8], SnapError> {
        let body = &self.data[entry.offset as usize..(entry.offset + entry.len) as usize];
        if fnv1a(body) != entry.checksum {
            return Err(SnapError::ChecksumMismatch {
                section: SectionId::from_tag(entry.tag)
                    .map(SectionId::name)
                    .unwrap_or("unknown"),
            });
        }
        Ok(body)
    }

    /// Checksum every known section, returning one row per table entry:
    /// `(name, len, result)`. Unknown ids report as `"unknown"` with a
    /// bad-section-table error; damaged bodies report their checksum
    /// failure. Never panics — this is what `snap verify` prints.
    pub fn verify(&self) -> Vec<(&'static str, u64, Result<(), SnapError>)> {
        self.verify_report()
            .into_iter()
            .map(|row| (row.name, row.len, row.result))
            .collect()
    }

    /// Like [`Snapshot::verify`], but each row also carries the checksum
    /// the section table records and the checksum the body actually
    /// folds to — so a damaged section can be reported with both values,
    /// not just a pass/fail bit.
    pub fn verify_report(&self) -> Vec<VerifyRow> {
        self.entries
            .iter()
            .map(|entry| {
                let body =
                    &self.data[entry.offset as usize..(entry.offset + entry.len) as usize];
                let actual = fnv1a(body);
                let (name, result) = match SectionId::from_tag(entry.tag) {
                    Some(id) => (id.name(), self.section(id).map(|_| ())),
                    None => (
                        "unknown",
                        Err(SnapError::BadSectionTable {
                            detail: "unknown section id",
                        }),
                    ),
                };
                VerifyRow {
                    name,
                    len: entry.len,
                    expected: entry.checksum,
                    actual,
                    result,
                }
            })
            .collect()
    }
}

/// One `snap verify` row: section name, body length, the checksum the
/// section table records, the checksum the body folds to, and the
/// verification result.
pub struct VerifyRow {
    /// Canonical section name (or `"unknown"` for an unrecognised tag).
    pub name: &'static str,
    /// Body length in bytes.
    pub len: u64,
    /// Checksum recorded in the section table.
    pub expected: u64,
    /// Checksum the body bytes actually fold to.
    pub actual: u64,
    /// Verification outcome for this section.
    pub result: Result<(), SnapError>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        assemble(&[
            (SectionId::Meta, vec![1, 2, 3]),
            (SectionId::Corpus, vec![4, 5, 6, 7]),
        ])
    }

    #[test]
    fn round_trips_and_checks_sections() {
        let snap = Snapshot::parse(sample()).expect("parse");
        assert_eq!(snap.section(SectionId::Meta).unwrap(), &[1, 2, 3]);
        assert_eq!(snap.section(SectionId::Corpus).unwrap(), &[4, 5, 6, 7]);
        assert_eq!(
            snap.section(SectionId::Health).unwrap_err().label(),
            "missing-section"
        );
        assert!(snap.verify().iter().all(|(_, _, r)| r.is_ok()));
    }

    #[test]
    fn body_corruption_is_lazy_and_classified() {
        let mut data = sample();
        let n = data.len();
        data[n - 1] ^= 0xff; // last corpus body byte
        let snap = Snapshot::parse(data).expect("table still parses");
        assert_eq!(snap.section(SectionId::Meta).unwrap(), &[1, 2, 3]);
        assert_eq!(
            snap.section(SectionId::Corpus).unwrap_err(),
            SnapError::ChecksumMismatch { section: "corpus" }
        );
        let report = snap.verify();
        assert!(report.iter().any(|(name, _, r)| *name == "corpus" && r.is_err()));
    }

    #[test]
    fn header_corruption_classifies() {
        let mut bad_magic = sample();
        bad_magic[0] = b'X';
        assert_eq!(Snapshot::parse(bad_magic).unwrap_err(), SnapError::BadMagic);

        let mut bad_version = sample();
        bad_version[8] = 99;
        assert_eq!(
            Snapshot::parse(bad_version).unwrap_err(),
            SnapError::BadVersion { found: 99 }
        );

        let mut short = sample();
        short.truncate(10);
        assert_eq!(
            Snapshot::parse(short).unwrap_err().label(),
            "truncated"
        );

        let mut bad_count = sample();
        bad_count[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Snapshot::parse(bad_count).unwrap_err().label(),
            "bad-section-table"
        );
    }
}
