//! Design-choice ablations (DESIGN.md §5).
//!
//! 1. Certificate identity: byte-hash vs subject+modulus vs modulus-only —
//!    dedup counts and throughput.
//! 2. Store diff: hash join vs sorted merge across store sizes.
//! 3. Chain building: subject-indexed vs naive quadratic scan.
//! 4. Modular exponentiation: Montgomery fast path vs generic
//!    square-and-multiply (even modulus forces the generic path).
//!
//! ```text
//! cargo bench --bench ablations
//! ```

use criterion::{black_box, Criterion};
use std::sync::Arc;
use tangled_bench::criterion;
use tangled_crypto::modular::mod_pow;
use tangled_crypto::{SplitMix64, Uint};
use tangled_notary::ecosystem::EcosystemSpec;
use tangled_notary::Ecosystem;
use tangled_pki::diff::{diff, diff_sorted_merge, distinct_count, IdentityMode};
use tangled_pki::factory::CaFactory;
use tangled_pki::store::RootStore;
use tangled_pki::stores::ReferenceStore;
use tangled_pki::trust::AnchorSource;
use tangled_x509::{ChainOptions, ChainVerifier};

fn main() {
    let mut c: Criterion = criterion();

    ablate_identity(&mut c);
    ablate_diff(&mut c);
    ablate_chain(&mut c);
    ablate_modpow(&mut c);

    c.final_summary();
}

/// Ablation 1 — identity granularity. The paper dedups 2.3 M collected
/// root certs to 314 by (subject, modulus); byte-hash identity would
/// overcount re-issued roots, modulus-only would under-count.
fn ablate_identity(c: &mut Criterion) {
    let mut factory = CaFactory::new();
    // A mixed pile: originals, re-issues, distinct CAs.
    let mut certs = Vec::new();
    for i in 0..60 {
        let name = format!("Identity Ablation CA {i}");
        certs.push(factory.root(&name).as_ref().clone());
        if i % 3 == 0 {
            certs.push(factory.reissued_root(&name).as_ref().clone());
        }
    }
    println!("ablation: identity granularity over {} certificates", certs.len());
    for mode in [
        IdentityMode::ByteHash,
        IdentityMode::SubjectAndModulus,
        IdentityMode::ModulusOnly,
    ] {
        println!("  {:?}: {} distinct", mode, distinct_count(certs.iter(), mode));
    }
    for (label, mode) in [
        ("byte_hash", IdentityMode::ByteHash),
        ("subject_modulus", IdentityMode::SubjectAndModulus),
        ("modulus_only", IdentityMode::ModulusOnly),
    ] {
        c.bench_function(&format!("ablation_identity/{label}"), |b| {
            b.iter(|| black_box(distinct_count(certs.iter(), mode)))
        });
    }
}

/// Ablation 2 — diff algorithm at reference-store scale and at 10× scale.
fn ablate_diff(c: &mut Criterion) {
    let aosp = ReferenceStore::Aosp44.cached();
    let mozilla = ReferenceStore::Mozilla.cached();

    // A pair of larger synthetic stores (~1,000 anchors, 70% overlap).
    let mut factory = CaFactory::new();
    let mut big_a = RootStore::new("big-a");
    let mut big_b = RootStore::new("big-b");
    for i in 0..1_000 {
        let cert = factory.root(&format!("Diff Scale CA {i}"));
        if i < 850 {
            big_a.add_cert(Arc::clone(&cert), AnchorSource::Aosp);
        }
        if i >= 150 {
            big_b.add_cert(cert, AnchorSource::Aosp);
        }
    }
    let d = diff(&big_a, &big_b);
    println!(
        "ablation: diff on 850/850 stores → +{} -{} ={}",
        d.added_count(),
        d.removed_count(),
        d.common.len()
    );

    c.bench_function("ablation_diff/hash_join_reference", |b| {
        b.iter(|| black_box(diff(&mozilla, &aosp).added_count()))
    });
    c.bench_function("ablation_diff/sorted_merge_reference", |b| {
        b.iter(|| black_box(diff_sorted_merge(&mozilla, &aosp).added_count()))
    });
    c.bench_function("ablation_diff/hash_join_1000", |b| {
        b.iter(|| black_box(diff(&big_a, &big_b).added_count()))
    });
    c.bench_function("ablation_diff/sorted_merge_1000", |b| {
        b.iter(|| black_box(diff_sorted_merge(&big_a, &big_b).added_count()))
    });
}

/// Ablation 3 — chain building with and without the subject index.
fn ablate_chain(c: &mut Criterion) {
    let eco = Ecosystem::generate(&EcosystemSpec::scaled(0.05));
    let mut verifier = ChainVerifier::new();
    for root in &eco.universe_roots {
        verifier.add_anchor(Arc::clone(root));
    }
    for inter in &eco.intermediates {
        verifier.add_intermediate(Arc::clone(inter));
    }
    let opts = ChainOptions::at(tangled_notary::ecosystem::study_time());
    let leaves: Vec<_> = eco
        .certs
        .iter()
        .filter(|cert| cert.leaf().is_valid_at(opts.at))
        .take(50)
        .map(|cert| Arc::clone(cert.leaf()))
        .collect();
    println!(
        "ablation: chain building over {} leaves against {} anchors",
        leaves.len(),
        verifier.anchor_count()
    );

    c.bench_function("ablation_chain/indexed", |b| {
        b.iter(|| {
            let ok = leaves
                .iter()
                .filter(|l| verifier.verify(l, opts).is_ok())
                .count();
            black_box(ok)
        })
    });
    c.bench_function("ablation_chain/naive_scan", |b| {
        b.iter(|| {
            let ok = leaves
                .iter()
                .filter(|l| verifier.verify_naive(l, opts).is_ok())
                .count();
            black_box(ok)
        })
    });
}

/// Ablation 4 — Montgomery vs generic modular exponentiation. RSA moduli
/// are odd (Montgomery path); an even modulus of the same size forces the
/// generic divrem-per-step path.
fn ablate_modpow(c: &mut Criterion) {
    let mut rng = SplitMix64::new(0xAB1A7E);
    let odd = {
        let mut m = rng.next_uint_exact_bits(512);
        if m.is_even() {
            m = m.add(&Uint::one());
        }
        m
    };
    let even = odd.add(&Uint::one());
    let base = rng.next_uint_exact_bits(500);
    let exp = rng.next_uint_exact_bits(512);

    c.bench_function("ablation_modpow/montgomery_odd_512", |b| {
        b.iter(|| black_box(mod_pow(&base, &exp, &odd).unwrap()))
    });
    c.bench_function("ablation_modpow/generic_even_512", |b| {
        b.iter(|| black_box(mod_pow(&base, &exp, &even).unwrap()))
    });

    // RSA operation costs: sign (private exponent) vs verify (e = 65537).
    let kp = tangled_crypto::rsa::RsaKeyPair::generate(512, &mut rng).unwrap();
    let sig = kp
        .sign(tangled_crypto::rsa::SignatureAlgorithm::Sha256WithRsa, b"bench")
        .unwrap();
    c.bench_function("ablation_modpow/rsa_sign_512", |b| {
        b.iter(|| {
            black_box(
                kp.sign(tangled_crypto::rsa::SignatureAlgorithm::Sha256WithRsa, b"bench")
                    .unwrap(),
            )
        })
    });
    c.bench_function("ablation_modpow/rsa_verify_512", |b| {
        b.iter(|| {
            kp.public_key()
                .verify(
                    tangled_crypto::rsa::SignatureAlgorithm::Sha256WithRsa,
                    b"bench",
                    &sig,
                )
                .unwrap()
        })
    });
}
