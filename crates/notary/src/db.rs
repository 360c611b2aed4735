//! The Notary database view: the headline aggregate statistics of the
//! ecosystem (unique certificates, non-expired count, total session
//! volume).
//!
//! Figure 2's "Not recorded by ICSI Notary" class is not a lookup here:
//! each catalogued extra carries its class, and `tangled_core::classify`
//! files every certificate outside the catalogue as not recorded.

use crate::ecosystem::{study_time, Ecosystem};

/// Query view over a generated ecosystem.
pub struct NotaryDb {
    unique_certs: usize,
    non_expired: usize,
    total_sessions: u64,
}

impl NotaryDb {
    /// Build the view.
    pub fn build(eco: &Ecosystem) -> NotaryDb {
        NotaryDb {
            unique_certs: eco.certs.len(),
            non_expired: eco
                .certs
                .iter()
                .filter(|c| c.leaf().is_valid_at(study_time()))
                .count(),
            total_sessions: eco.certs.iter().map(|c| c.sessions).sum(),
        }
    }

    /// Unique certificates collected (the paper: >1.9 M at full scale of
    /// the real system; scaled here).
    pub fn unique_certs(&self) -> usize {
        self.unique_certs
    }

    /// Certificates not expired at the study time (paper: ~1 M).
    pub fn non_expired(&self) -> usize {
        self.non_expired
    }

    /// Total SSL session volume attributed (paper: >66 B).
    pub fn total_sessions(&self) -> u64 {
        self.total_sessions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecosystem::EcosystemSpec;

    fn db() -> (Ecosystem, NotaryDb) {
        let eco = Ecosystem::generate(&EcosystemSpec::scaled(0.05));
        let db = NotaryDb::build(&eco);
        (eco, db)
    }

    #[test]
    fn aggregates_are_sane() {
        let (eco, db) = db();
        assert_eq!(db.unique_certs(), eco.len());
        assert!(db.non_expired() <= db.unique_certs());
        assert!(db.non_expired() > 0);
        assert!(db.total_sessions() > db.unique_certs() as u64);
    }
}
