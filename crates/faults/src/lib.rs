//! `tangled-faults` — deterministic fault injection for ingest surfaces.
//!
//! The paper's core finding is that real Android root stores are *messy*:
//! rooted devices inject garbage anchors, proxies re-sign chains on the
//! fly, and stores ship expired or dead roots. The analysis pipeline must
//! therefore survive degraded input. This crate supplies the degradation:
//! a seeded [`FaultPlan`] drives kind-addressable injectors over any
//! ingest surface that implements [`Corruptor`] — Notary certificate
//! ecosystems (`tangled_notary`'s raw form), Android `cacerts`
//! directories ([`Vec<CacertsFile>`], implemented here), and, through the
//! cacerts rendering, Netalyzr device stores.
//!
//! Design rules:
//!
//! * **Deterministic.** Same plan, same surface → same faults, byte for
//!   byte. The driver derives one RNG from `seed ^ salt` and walks units
//!   in order, so ledgers reproduce exactly.
//! * **Detectable by construction.** Every injector is constrained so
//!   that a staged ingest check (parse → validity window → issuer graph →
//!   signature → duplicates) catches it: DER bit flips only land inside
//!   the signed TBS region of verifiable chains, signature breakage only
//!   targets chains whose issuer key is available at ingest, and so on.
//!   A quarantine count can therefore be reconciled 1:1 against the
//!   injection ledger.
//! * **One fault per unit.** The driver never stacks faults, so every
//!   ledger entry corresponds to exactly one quarantined unit downstream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cacerts;
pub mod chaos;
pub mod der;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every fault kind the engine can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Truncate a certificate's DER to a strict prefix.
    DerTruncation,
    /// Smash a DER tag byte (outer or TBS SEQUENCE).
    DerTagMangle,
    /// Flip one bit inside the signed TBS region.
    DerBitFlip,
    /// Corrupt bytes of the trailing signature BIT STRING.
    SignatureBreak,
    /// Swap notBefore/notAfter so the validity window is inverted.
    ValidityInversion,
    /// Replace a presented issuer with an unrelated certificate.
    IssuerDangling,
    /// Append the leaf as its own issuer (adjacent duplicate).
    IssuerSelfLoop,
    /// Repeat a certificate non-adjacently in the chain (a cycle).
    IssuerCycle,
    /// Corrupt PEM armor (BEGIN/END label damage).
    PemArmor,
    /// Corrupt the Base64 body (illegal character or broken padding).
    Base64Corruption,
    /// Replace an entry's content with nothing.
    EmptyEntry,
    /// Duplicate an entry verbatim.
    DuplicateEntry,
}

impl FaultKind {
    /// All kinds, in declaration order.
    pub const ALL: [FaultKind; 12] = [
        FaultKind::DerTruncation,
        FaultKind::DerTagMangle,
        FaultKind::DerBitFlip,
        FaultKind::SignatureBreak,
        FaultKind::ValidityInversion,
        FaultKind::IssuerDangling,
        FaultKind::IssuerSelfLoop,
        FaultKind::IssuerCycle,
        FaultKind::PemArmor,
        FaultKind::Base64Corruption,
        FaultKind::EmptyEntry,
        FaultKind::DuplicateEntry,
    ];

    /// Stable label for reports and health keys.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::DerTruncation => "der-truncation",
            FaultKind::DerTagMangle => "der-tag-mangle",
            FaultKind::DerBitFlip => "der-bit-flip",
            FaultKind::SignatureBreak => "signature-break",
            FaultKind::ValidityInversion => "validity-inversion",
            FaultKind::IssuerDangling => "issuer-dangling",
            FaultKind::IssuerSelfLoop => "issuer-self-loop",
            FaultKind::IssuerCycle => "issuer-cycle",
            FaultKind::PemArmor => "pem-armor",
            FaultKind::Base64Corruption => "base64-corruption",
            FaultKind::EmptyEntry => "empty-entry",
            FaultKind::DuplicateEntry => "duplicate-entry",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One fault the engine injected: what was done, and to which unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The kind of damage.
    pub kind: FaultKind,
    /// Human-readable label of the damaged unit (file name, chain index…).
    pub target: String,
}

/// A degradable ingest surface.
///
/// A surface is a sequence of *units* (one presented chain, one cacerts
/// file). The driver samples units at the plan's rate, asks the surface
/// which kinds apply to that unit, and delegates the actual damage back
/// to the surface. Injectors may grow the surface (duplicates append),
/// but the driver only ever visits the units present when degradation
/// started, so appended copies are never themselves corrupted.
pub trait Corruptor {
    /// Number of units currently on the surface.
    fn unit_count(&self) -> usize;

    /// Fault kinds that are injectable — *and detectable downstream* —
    /// for the unit at `index`.
    fn supported(&self, index: usize) -> Vec<FaultKind>;

    /// Apply one fault of `kind` to the unit at `index`. Returns `None`
    /// when the unit turned out not to admit the fault (the ledger then
    /// records nothing).
    fn inject(&mut self, index: usize, kind: FaultKind, rng: &mut StdRng)
        -> Option<InjectedFault>;
}

/// A seeded, rate- and kind-addressable fault schedule.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Master seed; combined with a per-surface salt.
    pub seed: u64,
    /// Per-unit injection probability in `[0, 1]`.
    pub rate: f64,
    enabled: Vec<FaultKind>,
}

impl FaultPlan {
    /// A plan with the given seed, zero rate and every kind enabled.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rate: 0.0,
            enabled: FaultKind::ALL.to_vec(),
        }
    }

    /// Set the per-unit injection rate.
    pub fn with_rate(mut self, rate: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.rate = rate;
        self
    }

    /// Restrict the plan to exactly these kinds.
    pub fn only(mut self, kinds: &[FaultKind]) -> FaultPlan {
        self.enabled = kinds.to_vec();
        self
    }

    /// Remove one kind from the plan.
    pub fn without(mut self, kind: FaultKind) -> FaultPlan {
        self.enabled.retain(|k| *k != kind);
        self
    }

    /// Is a kind enabled in this plan?
    pub fn is_enabled(&self, kind: FaultKind) -> bool {
        self.enabled.contains(&kind)
    }

    /// Degrade a surface in place, returning the ledger of every fault
    /// actually injected. `salt` distinguishes surfaces degraded under
    /// one plan (two device stores, the notary ecosystem…) so their
    /// fault positions decorrelate while staying deterministic.
    pub fn degrade<C: Corruptor + ?Sized>(&self, surface: &mut C, salt: u64) -> Vec<InjectedFault> {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut ledger = Vec::new();
        // Snapshot the count: injectors that append (duplication) must not
        // make their copies eligible for further damage.
        let original = surface.unit_count();
        for index in 0..original {
            if !rng.gen_bool(self.rate) {
                continue;
            }
            let kinds: Vec<FaultKind> = surface
                .supported(index)
                .into_iter()
                .filter(|k| self.is_enabled(*k))
                .collect();
            if kinds.is_empty() {
                continue;
            }
            let kind = kinds[rng.gen_range(0..kinds.len())];
            if let Some(fault) = surface.inject(index, kind, &mut rng) {
                ledger.push(fault);
            }
        }
        ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy surface: units are byte vectors; "corruption" clears them.
    struct Toy {
        units: Vec<Vec<u8>>,
    }

    impl Corruptor for Toy {
        fn unit_count(&self) -> usize {
            self.units.len()
        }
        fn supported(&self, _index: usize) -> Vec<FaultKind> {
            vec![FaultKind::EmptyEntry, FaultKind::DuplicateEntry]
        }
        fn inject(
            &mut self,
            index: usize,
            kind: FaultKind,
            _rng: &mut StdRng,
        ) -> Option<InjectedFault> {
            match kind {
                FaultKind::EmptyEntry => self.units[index].clear(),
                FaultKind::DuplicateEntry => {
                    let copy = self.units[index].clone();
                    self.units.push(copy);
                }
                _ => return None,
            }
            Some(InjectedFault {
                kind,
                target: format!("unit-{index}"),
            })
        }
    }

    fn toy(n: usize) -> Toy {
        Toy {
            units: (0..n).map(|i| vec![i as u8; 4]).collect(),
        }
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let mut t = toy(64);
        let ledger = FaultPlan::new(7).degrade(&mut t, 0);
        assert!(ledger.is_empty());
        assert!(t.units.iter().all(|u| !u.is_empty()));
    }

    #[test]
    fn full_rate_touches_every_unit() {
        let mut t = toy(32);
        let ledger = FaultPlan::new(7).with_rate(1.0).degrade(&mut t, 0);
        assert_eq!(ledger.len(), 32);
    }

    #[test]
    fn rate_tracks_probability() {
        let mut t = toy(2_000);
        let ledger = FaultPlan::new(11).with_rate(0.05).degrade(&mut t, 0);
        assert!(
            (60..140).contains(&ledger.len()),
            "expected ≈100 faults, got {}",
            ledger.len()
        );
    }

    #[test]
    fn same_seed_same_ledger() {
        let mk = || {
            let mut t = toy(500);
            FaultPlan::new(42).with_rate(0.1).degrade(&mut t, 3)
        };
        assert_eq!(mk(), mk());
        // A different salt decorrelates.
        let mut t = toy(500);
        let other = FaultPlan::new(42).with_rate(0.1).degrade(&mut t, 4);
        assert_ne!(mk(), other);
    }

    #[test]
    fn kind_addressing_filters() {
        let mut t = toy(200);
        let plan = FaultPlan::new(5)
            .with_rate(1.0)
            .only(&[FaultKind::EmptyEntry]);
        let ledger = plan.degrade(&mut t, 0);
        assert_eq!(ledger.len(), 200);
        assert!(ledger.iter().all(|f| f.kind == FaultKind::EmptyEntry));
        // `without` removes the last enabled kind → nothing applies.
        let plan = plan.without(FaultKind::EmptyEntry);
        let mut t = toy(50);
        assert!(plan.degrade(&mut t, 0).is_empty());
    }

    #[test]
    fn appended_duplicates_are_not_revisited() {
        let mut t = toy(40);
        let plan = FaultPlan::new(9)
            .with_rate(1.0)
            .only(&[FaultKind::DuplicateEntry]);
        let ledger = plan.degrade(&mut t, 0);
        assert_eq!(ledger.len(), 40);
        assert_eq!(t.units.len(), 80);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            FaultKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), FaultKind::ALL.len());
    }
}
