//! Property tests for the X.509 layer: issuance → parse → verify across
//! randomized names, serials, validity windows and extension sets.

use proptest::prelude::*;
use std::sync::OnceLock;
use tangled_asn1::Time;
use tangled_crypto::rsa::{RsaKeyPair, SignatureAlgorithm};
use tangled_crypto::{SplitMix64, Uint};
use tangled_x509::extensions::{BasicConstraints, Extension, KeyPurpose, KeyUsage};
use tangled_x509::pem;
use tangled_x509::{Certificate, CertificateBuilder, DistinguishedName};

/// A fixed self-signed certificate for the PEM corruption properties.
fn pem_target() -> &'static Certificate {
    static CERT: OnceLock<Certificate> = OnceLock::new();
    CERT.get_or_init(|| {
        let kp = &keys()[0];
        CertificateBuilder::new(
            DistinguishedName::common_name("PEM Target CA"),
            DistinguishedName::common_name("PEM Target CA"),
            Time::date(2010, 1, 1).unwrap(),
            Time::date(2020, 1, 1).unwrap(),
        )
        .ca(None)
        .sign(kp.public_key(), kp)
        .unwrap()
    })
}

/// A small fixed key pool: key generation is the expensive step and the
/// properties under test do not depend on key variety.
fn keys() -> &'static [RsaKeyPair; 2] {
    static KEYS: OnceLock<[RsaKeyPair; 2]> = OnceLock::new();
    KEYS.get_or_init(|| {
        [
            RsaKeyPair::generate(512, &mut SplitMix64::new(11)).expect("keygen"),
            RsaKeyPair::generate(512, &mut SplitMix64::new(22)).expect("keygen"),
        ]
    })
}

fn arb_name() -> impl Strategy<Value = DistinguishedName> {
    (
        "[A-Za-z0-9 .-]{1,48}",
        proptest::option::of("[A-Za-z0-9 ]{1,24}"),
        proptest::option::of("[A-Z]{2}"),
    )
        .prop_map(|(cn, org, country)| {
            let mut b = DistinguishedName::builder().common_name(&cn);
            if let Some(o) = org {
                b = b.organizational_unit(&o);
            }
            if let Some(c) = country {
                b = b.country(&c);
            }
            b.build()
        })
}

fn arb_validity() -> impl Strategy<Value = (Time, Time)> {
    // Windows spanning the UTCTime era and the GeneralizedTime era.
    (1960i64..2150, 1u16..400).prop_map(|(year, days)| {
        let nb = Time::date(year as i32, 6, 15).expect("valid date");
        (nb, nb.plus_days(days as i64))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn build_parse_identity(
        subject in arb_name(),
        issuer in arb_name(),
        serial in 1u64..u64::MAX,
        (nb, na) in arb_validity(),
        sha1 in any::<bool>(),
        path_len in proptest::option::of(0u32..5),
        key_sel in 0usize..2,
    ) {
        let kp = &keys()[key_sel];
        let signer = &keys()[1 - key_sel];
        let alg = if sha1 {
            SignatureAlgorithm::Sha1WithRsa
        } else {
            SignatureAlgorithm::Sha256WithRsa
        };
        let cert = CertificateBuilder::new(issuer.clone(), subject.clone(), nb, na)
            .serial(Uint::from_u64(serial))
            .signature_algorithm(alg)
            .ca(path_len)
            .key_ids(kp.public_key(), signer.public_key())
            .sign(kp.public_key(), signer)
            .unwrap();

        // Parse-back equality on every field.
        let reparsed = Certificate::parse(cert.to_der()).unwrap();
        prop_assert_eq!(&reparsed, &cert);
        prop_assert_eq!(&reparsed.subject, &subject);
        prop_assert_eq!(&reparsed.issuer, &issuer);
        prop_assert_eq!(&reparsed.serial, &Uint::from_u64(serial));
        prop_assert_eq!(reparsed.not_before, nb);
        prop_assert_eq!(reparsed.not_after, na);
        prop_assert_eq!(reparsed.signature_algorithm, alg);
        prop_assert_eq!(reparsed.basic_constraints().unwrap().path_len, path_len);

        // Signature verifies with the signer, fails with the other key.
        prop_assert!(reparsed.verify_signature(signer.public_key()).is_ok());
        prop_assert!(reparsed.verify_signature(kp.public_key()).is_err()
            || kp.public_key() == signer.public_key());

        // Validity semantics.
        prop_assert!(cert.is_valid_at(nb));
        prop_assert!(cert.is_valid_at(na));
        prop_assert!(!cert.is_valid_at(na.plus_days(1)));
        prop_assert!(!cert.is_valid_at(nb.plus_days(-1)));
    }

    #[test]
    fn single_byte_corruption_never_verifies_or_panics(
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let kp = &keys()[0];
        let cert = CertificateBuilder::new(
            DistinguishedName::common_name("Corruption Target"),
            DistinguishedName::common_name("Corruption Target"),
            Time::date(2010, 1, 1).unwrap(),
            Time::date(2020, 1, 1).unwrap(),
        )
        .ca(None)
        .sign(kp.public_key(), kp)
        .unwrap();
        let mut der = cert.to_der().to_vec();
        let pos = (pos_seed % der.len() as u64) as usize;
        der[pos] ^= 1 << bit;

        // Either the parse fails, or the parsed cert differs / fails
        // signature verification. Never a panic, never a silent pass of a
        // *modified* certificate.
        if let Ok(parsed) = Certificate::parse(&der) {
            if parsed == cert {
                // The flip must have been undone by... nothing can undo a
                // single flip; parse succeeded only if it hit a tolerated
                // byte, but equality means identical DER, impossible.
                prop_assert!(false, "flipped DER parsed equal");
            } else {
                prop_assert!(parsed.verify_signature(kp.public_key()).is_err());
            }
        }
    }

    #[test]
    fn pem_fuzz_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        // Arbitrary (possibly non-UTF-8) input through every PEM entry
        // point: each must return a Result, never panic.
        let text = String::from_utf8_lossy(&bytes);
        let _ = pem::base64_decode(&text);
        if let Ok(der) = pem::decode("CERTIFICATE", &text) {
            let _ = Certificate::parse(&der);
        }
    }

    #[test]
    fn corrupted_armor_always_rejected(
        in_footer in any::<bool>(),
        offset_seed in any::<u64>(),
        replacement in "[!-+/-~]{1}",
    ) {
        // Mangle one character of the BEGIN or END armor label of a valid
        // PEM document: decode must fail, never panic, never succeed.
        let text = pem::encode_certificate(pem_target());
        let marker = if in_footer { "-----END " } else { "-----BEGIN " };
        let label_at = text.find(marker).unwrap() + marker.len();
        let offset = (offset_seed % "CERTIFICATE".len() as u64) as usize;
        let target = label_at + offset;
        let repl = replacement.chars().next().unwrap();
        prop_assume!(text.as_bytes()[target] != repl as u8);
        let mut bytes = text.into_bytes();
        bytes[target] = repl as u8;
        let corrupted = String::from_utf8(bytes).unwrap();
        prop_assert!(pem::decode("CERTIFICATE", &corrupted).is_err());
    }

    #[test]
    fn mutated_pem_body_never_validates_silently(
        pos_seed in any::<u64>(),
        replacement in "[A-Za-z0-9+/]{1}",
    ) {
        // Swap one base64 body character for a different one: the decoded
        // DER differs, so the result must be an error or a certificate
        // that is not the original. Never a panic.
        let cert = pem_target();
        let text = pem::encode_certificate(cert);
        let body_start = text.find('\n').unwrap() + 1;
        let body_end = text.find("-----END").unwrap();
        let body_positions: Vec<usize> = (body_start..body_end)
            .filter(|&i| !text.as_bytes()[i].is_ascii_whitespace())
            .collect();
        let pos = body_positions[(pos_seed % body_positions.len() as u64) as usize];
        let repl = replacement.chars().next().unwrap();
        prop_assume!(text.as_bytes()[pos] != repl as u8);
        let mut bytes = text.into_bytes();
        bytes[pos] = repl as u8;
        let corrupted = String::from_utf8(bytes).unwrap();
        if let Ok(der) = pem::decode("CERTIFICATE", &corrupted) {
            if let Ok(parsed) = Certificate::parse(&der) {
                prop_assert_ne!(&parsed, cert);
            }
        }
    }

    #[test]
    fn extension_sets_round_trip(
        dns_count in 0usize..5,
        ca in any::<bool>(),
        purposes in proptest::collection::vec(0u8..4, 0..4),
    ) {
        let kp = &keys()[0];
        let dns: Vec<String> = (0..dns_count)
            .map(|i| format!("host-{i}.example.org"))
            .collect();
        let purposes: Vec<KeyPurpose> = purposes
            .into_iter()
            .map(|p| match p {
                0 => KeyPurpose::ServerAuth,
                1 => KeyPurpose::ClientAuth,
                2 => KeyPurpose::CodeSigning,
                _ => KeyPurpose::EmailProtection,
            })
            .collect();
        let mut builder = CertificateBuilder::new(
            DistinguishedName::common_name("Ext Issuer"),
            DistinguishedName::common_name("Ext Subject"),
            Time::date(2012, 1, 1).unwrap(),
            Time::date(2018, 1, 1).unwrap(),
        )
        .extension(Extension::BasicConstraints(BasicConstraints {
            ca,
            path_len: None,
        }))
        .extension(Extension::KeyUsage(if ca {
            KeyUsage::ca()
        } else {
            KeyUsage::tls_server()
        }));
        if !purposes.is_empty() {
            builder = builder.extension(Extension::ExtendedKeyUsage(purposes.clone()));
        }
        if !dns.is_empty() {
            builder = builder.extension(Extension::SubjectAltName(dns.clone()));
        }
        let cert = builder.sign(kp.public_key(), kp).unwrap();
        let reparsed = Certificate::parse(cert.to_der()).unwrap();
        prop_assert_eq!(reparsed.is_ca(), ca);
        prop_assert_eq!(reparsed.dns_names(), &dns[..]);
        if purposes.is_empty() {
            prop_assert!(reparsed.extended_key_usage().is_none());
        } else {
            prop_assert_eq!(reparsed.extended_key_usage().unwrap(), &purposes[..]);
        }
    }

    #[test]
    fn base64_round_trips_canonically(
        data in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let encoded = pem::base64_encode(&data);
        let decoded = pem::base64_decode(&encoded).expect("canonical encoding decodes");
        prop_assert_eq!(decoded, data);
    }

    #[test]
    fn base64_rejects_nonzero_trailing_bits_everywhere(
        data in proptest::collection::vec(any::<u8>(), 1..96),
        extra in 1u8..4,
    ) {
        // Canonical encodings zero the bits the padding discards (4 bits
        // under `==`, 2 under `=`). OR-ing any of them back in yields a
        // distinct encoding of the same bytes, which must be rejected.
        prop_assume!(data.len() % 3 != 0);
        const ALPHABET: &[u8; 64] =
            b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
        let mut bytes = pem::base64_encode(&data).into_bytes();
        let pad = bytes.iter().filter(|&&b| b == b'=').count();
        let pos = bytes.iter().rposition(|&b| b != b'=').unwrap();
        let val = ALPHABET.iter().position(|&a| a == bytes[pos]).unwrap() as u8;
        let mask = if pad == 2 { extra } else { extra & 0x03 };
        bytes[pos] = ALPHABET[(val | mask) as usize];
        let corrupted = String::from_utf8(bytes).unwrap();
        prop_assert!(pem::base64_decode(&corrupted).is_err());
    }

    #[test]
    fn base64_rejects_padding_before_final_group(
        head in proptest::collection::vec(any::<u8>(), 1..48),
        tail in proptest::collection::vec(any::<u8>(), 1..48),
    ) {
        // Splicing a padded group in front of more data puts `=` in a
        // non-final group: only ever produced by concatenating encodings,
        // never by encoding, so decode must reject it.
        prop_assume!(head.len() % 3 != 0);
        let spliced = format!("{}{}", pem::base64_encode(&head), pem::base64_encode(&tail));
        prop_assert!(pem::base64_decode(&spliced).is_err());
    }
}
