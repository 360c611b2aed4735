//! PEM armor (RFC 7468) with a from-scratch Base64 codec.
//!
//! Android's `/system/etc/security/cacerts/` files are PEM-encoded
//! certificates, not raw DER; this module supplies the encoding so the
//! cacerts emulation and the CLI read and write the real format.

use crate::cert::Certificate;

const B64_ALPHABET: &[u8; 64] =
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Errors from PEM decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PemError {
    /// No `-----BEGIN <label>-----` header found.
    MissingHeader,
    /// Header present but no matching `-----END <label>-----` footer.
    MissingFooter,
    /// A character outside the Base64 alphabet (and not whitespace).
    BadBase64,
    /// Base64 payload has an impossible length or malformed padding.
    BadPadding,
}

impl std::fmt::Display for PemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PemError::MissingHeader => write!(f, "missing PEM BEGIN header"),
            PemError::MissingFooter => write!(f, "missing PEM END footer"),
            PemError::BadBase64 => write!(f, "invalid base64 character"),
            PemError::BadPadding => write!(f, "invalid base64 padding"),
        }
    }
}

impl std::error::Error for PemError {}

/// Encode bytes as Base64 (no line wrapping).
pub fn base64_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let triple = (b0 << 16) | (b1 << 8) | b2;
        out.push(B64_ALPHABET[(triple >> 18) as usize & 63] as char);
        out.push(B64_ALPHABET[(triple >> 12) as usize & 63] as char);
        if chunk.len() > 1 {
            out.push(B64_ALPHABET[(triple >> 6) as usize & 63] as char);
        } else {
            out.push('=');
        }
        if chunk.len() > 2 {
            out.push(B64_ALPHABET[triple as usize & 63] as char);
        } else {
            out.push('=');
        }
    }
    out
}

/// Decode canonical Base64, ignoring ASCII whitespace.
///
/// Canonical means exactly the encodings [`base64_encode`] produces:
/// `=` padding may appear only in the final group, and the unused
/// low-order bits of a padded final group must be zero. Both checks are
/// load-bearing — without them distinct wire texts alias to the same
/// bytes (`"AB=="` would decode like `"AA=="`, `"AA==QUJD"` would decode
/// at all), and the fault engine's damaged-input accounting relies on
/// one text mapping to one certificate.
pub fn base64_decode(text: &str) -> Result<Vec<u8>, PemError> {
    fn val(c: u8) -> Result<u32, PemError> {
        match c {
            b'A'..=b'Z' => Ok((c - b'A') as u32),
            b'a'..=b'z' => Ok((c - b'a' + 26) as u32),
            b'0'..=b'9' => Ok((c - b'0' + 52) as u32),
            b'+' => Ok(62),
            b'/' => Ok(63),
            _ => Err(PemError::BadBase64),
        }
    }
    let compact: Vec<u8> = text
        .bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .collect();
    if !compact.len().is_multiple_of(4) {
        return Err(PemError::BadPadding);
    }
    let groups = compact.len() / 4;
    let mut out = Vec::with_capacity(groups * 3);
    for (g, group) in compact.chunks(4).enumerate() {
        let pad = group.iter().rev().take_while(|&&c| c == b'=').count();
        if pad > 2 || group[..4 - pad].contains(&b'=') {
            return Err(PemError::BadPadding);
        }
        // Padding is only legal in the final group.
        if pad > 0 && g + 1 != groups {
            return Err(PemError::BadPadding);
        }
        let mut triple = 0u32;
        for (i, &c) in group.iter().enumerate() {
            let v = if c == b'=' { 0 } else { val(c)? };
            triple |= v << (18 - 6 * i);
        }
        // The bits a padded group does not emit must be zero, or two
        // distinct texts decode to the same bytes.
        if (pad == 2 && triple & 0xFFFF != 0) || (pad == 1 && triple & 0xFF != 0) {
            return Err(PemError::BadPadding);
        }
        out.push((triple >> 16) as u8);
        if pad < 2 {
            out.push((triple >> 8) as u8);
        }
        if pad < 1 {
            out.push(triple as u8);
        }
    }
    Ok(out)
}

/// Wrap DER bytes in PEM armor with the given label, 64-column lines.
pub fn encode(label: &str, der: &[u8]) -> String {
    let b64 = base64_encode(der);
    let mut out = String::with_capacity(b64.len() + label.len() * 2 + 40);
    out.push_str(&format!("-----BEGIN {label}-----\n"));
    for line in b64.as_bytes().chunks(64) {
        out.extend(line.iter().copied().map(char::from));
        out.push('\n');
    }
    out.push_str(&format!("-----END {label}-----\n"));
    out
}

/// Extract the first PEM block with the given label and decode its body.
pub fn decode(label: &str, text: &str) -> Result<Vec<u8>, PemError> {
    let header = format!("-----BEGIN {label}-----");
    let footer = format!("-----END {label}-----");
    let start = text.find(&header).ok_or(PemError::MissingHeader)? + header.len();
    let end = text[start..]
        .find(&footer)
        .ok_or(PemError::MissingFooter)?
        + start;
    base64_decode(&text[start..end])
}

/// Encode a certificate as a `CERTIFICATE` PEM block.
pub fn encode_certificate(cert: &Certificate) -> String {
    encode("CERTIFICATE", cert.to_der())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CertificateBuilder;
    use crate::name::DistinguishedName;
    use tangled_asn1::Time;
    use tangled_crypto::rsa::RsaKeyPair;
    use tangled_crypto::SplitMix64;

    #[test]
    fn base64_rfc4648_vectors() {
        assert_eq!(base64_encode(b""), "");
        assert_eq!(base64_encode(b"f"), "Zg==");
        assert_eq!(base64_encode(b"fo"), "Zm8=");
        assert_eq!(base64_encode(b"foo"), "Zm9v");
        assert_eq!(base64_encode(b"foob"), "Zm9vYg==");
        assert_eq!(base64_encode(b"fooba"), "Zm9vYmE=");
        assert_eq!(base64_encode(b"foobar"), "Zm9vYmFy");
        for input in [&b""[..], b"f", b"fo", b"foo", b"foob", b"fooba", b"foobar"] {
            assert_eq!(base64_decode(&base64_encode(input)).unwrap(), input);
        }
    }

    #[test]
    fn base64_rejects_garbage() {
        assert_eq!(base64_decode("Zg="), Err(PemError::BadPadding));
        assert_eq!(base64_decode("Z!=="), Err(PemError::BadBase64));
        assert_eq!(base64_decode("=AAA"), Err(PemError::BadPadding));
        assert_eq!(base64_decode("A==="), Err(PemError::BadPadding));
        // Whitespace anywhere is fine.
        assert_eq!(base64_decode("Zm9v\nYmFy\t ").unwrap(), b"foobar");
    }

    #[test]
    fn base64_rejects_non_canonical_padding_position() {
        // '=' padding in a non-final group used to decode silently.
        assert_eq!(base64_decode("AA==QUJD"), Err(PemError::BadPadding));
        assert_eq!(base64_decode("Zg==Zg=="), Err(PemError::BadPadding));
        assert_eq!(base64_decode("Zm8=QUJD"), Err(PemError::BadPadding));
        // Final-group padding stays legal.
        assert_eq!(base64_decode("QUJDAA==").unwrap(), b"ABC\0");
    }

    #[test]
    fn base64_rejects_nonzero_trailing_bits() {
        // "AB==" used to alias to "AA==" (B's low bits discarded).
        assert_eq!(base64_decode("AB=="), Err(PemError::BadPadding));
        assert_eq!(base64_decode("Zm9="), Err(PemError::BadPadding));
        assert_eq!(base64_decode("//=="), Err(PemError::BadPadding));
        // The canonical spellings of the same payloads still decode.
        assert_eq!(base64_decode("AA==").unwrap(), vec![0]);
        assert_eq!(base64_decode("Zm8=").unwrap(), b"fo");
        assert_eq!(base64_decode("/w==").unwrap(), vec![0xff]);
    }

    #[test]
    fn base64_binary_round_trip() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(base64_decode(&base64_encode(&data)).unwrap(), data);
    }

    #[test]
    fn certificate_pem_round_trip() {
        let kp = RsaKeyPair::generate(512, &mut SplitMix64::new(314)).unwrap();
        let cert = CertificateBuilder::self_signed_root(
            DistinguishedName::common_name("PEM Round Trip CA"),
            Time::date(2010, 1, 1).unwrap(),
            Time::date(2020, 1, 1).unwrap(),
            &kp,
            tangled_crypto::Uint::one(),
        )
        .unwrap();
        let pem = encode_certificate(&cert);
        assert!(pem.starts_with("-----BEGIN CERTIFICATE-----\n"));
        assert!(pem.ends_with("-----END CERTIFICATE-----\n"));
        assert!(pem.lines().skip(1).all(|l| l.len() <= 64 || l.starts_with("-----")));
        let back = Certificate::parse(&decode("CERTIFICATE", &pem).unwrap()).unwrap();
        assert_eq!(back, cert);
    }

    #[test]
    fn missing_armor_errors() {
        assert_eq!(
            decode("CERTIFICATE", "plain text"),
            Err(PemError::MissingHeader)
        );
        assert_eq!(
            decode("CERTIFICATE", "-----BEGIN CERTIFICATE-----\nZm9v"),
            Err(PemError::MissingFooter)
        );
        // Wrong label is a missing header for the requested one.
        let kp = RsaKeyPair::generate(512, &mut SplitMix64::new(316)).unwrap();
        let cert = CertificateBuilder::self_signed_root(
            DistinguishedName::common_name("X"),
            Time::date(2010, 1, 1).unwrap(),
            Time::date(2020, 1, 1).unwrap(),
            &kp,
            tangled_crypto::Uint::one(),
        )
        .unwrap();
        let pem = encode("PRIVATE KEY", cert.to_der());
        assert_eq!(
            decode("CERTIFICATE", &pem),
            Err(PemError::MissingHeader)
        );
    }
}
