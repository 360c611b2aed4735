//! DER serialization.
//!
//! [`DerWriter`] appends TLVs to an internal buffer. Constructed types take a
//! closure that writes the children; the writer buffers the children and then
//! emits the definite length, so output is always valid DER.

use crate::oid::Oid;
use crate::tag::Tag;
use crate::time::Time;

/// Serializer for DER structures.
#[derive(Debug, Default)]
pub struct DerWriter {
    out: Vec<u8>,
}

impl DerWriter {
    /// A writer with an empty buffer.
    pub fn new() -> Self {
        DerWriter { out: Vec::new() }
    }

    /// Consume the writer and return the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Write a complete TLV with the given tag and raw content octets.
    pub fn tlv(&mut self, tag: Tag, content: &[u8]) {
        self.out.push(tag.to_byte());
        write_length(&mut self.out, content.len());
        self.out.extend_from_slice(content);
    }

    /// Write raw pre-encoded DER (already a complete TLV).
    pub fn raw(&mut self, der: &[u8]) {
        self.out.extend_from_slice(der);
    }

    /// Write a constructed TLV whose content is produced by `f`.
    pub fn constructed(&mut self, tag: Tag, f: impl FnOnce(&mut DerWriter)) {
        debug_assert!(tag.constructed, "constructed() requires a constructed tag");
        let mut inner = DerWriter::new();
        f(&mut inner);
        self.tlv(tag, &inner.out);
    }

    /// Write a SEQUENCE.
    pub fn sequence(&mut self, f: impl FnOnce(&mut DerWriter)) {
        self.constructed(Tag::SEQUENCE, f);
    }

    /// Write a SET.
    ///
    /// Note: DER requires SET OF elements in ascending byte order; the
    /// X.509 code in this workspace writes single-element sets (one
    /// AttributeTypeAndValue per RDN), so ordering never arises.
    pub fn set(&mut self, f: impl FnOnce(&mut DerWriter)) {
        self.constructed(Tag::SET, f);
    }

    /// Write an EXPLICIT `[n]` wrapper.
    pub fn context(&mut self, number: u8, f: impl FnOnce(&mut DerWriter)) {
        self.constructed(Tag::context_constructed(number), f);
    }

    /// Write a BOOLEAN (DER: `0xFF` for true, `0x00` for false).
    pub fn boolean(&mut self, v: bool) {
        self.tlv(Tag::BOOLEAN, &[if v { 0xff } else { 0x00 }]);
    }

    /// Write NULL.
    pub fn null(&mut self) {
        self.tlv(Tag::NULL, &[]);
    }

    /// Write an INTEGER from unsigned big-endian magnitude bytes.
    ///
    /// The value is treated as non-negative; a leading zero octet is added
    /// when the top bit is set, and redundant leading zeros are stripped,
    /// yielding the minimal DER encoding.
    pub fn integer_bytes(&mut self, magnitude_be: &[u8]) {
        let mut start = 0;
        while start < magnitude_be.len() && magnitude_be[start] == 0 {
            start += 1;
        }
        let trimmed = &magnitude_be[start..];
        if trimmed.is_empty() {
            self.tlv(Tag::INTEGER, &[0]);
            return;
        }
        if trimmed[0] & 0x80 != 0 {
            let mut content = Vec::with_capacity(trimmed.len() + 1);
            content.push(0);
            content.extend_from_slice(trimmed);
            self.tlv(Tag::INTEGER, &content);
        } else {
            self.tlv(Tag::INTEGER, trimmed);
        }
    }

    /// Write a small non-negative INTEGER.
    pub fn integer_u64(&mut self, v: u64) {
        self.integer_bytes(&v.to_be_bytes());
    }

    /// Write an OBJECT IDENTIFIER.
    pub fn oid(&mut self, oid: &Oid) {
        self.tlv(Tag::OID, &oid.to_der_content());
    }

    /// Write an OCTET STRING.
    pub fn octet_string(&mut self, bytes: &[u8]) {
        self.tlv(Tag::OCTET_STRING, bytes);
    }

    /// Write a BIT STRING with zero unused bits (the only form X.509
    /// signatures and SPKIs need).
    pub fn bit_string(&mut self, bytes: &[u8]) {
        let mut content = Vec::with_capacity(bytes.len() + 1);
        content.push(0); // unused-bits count
        content.extend_from_slice(bytes);
        self.tlv(Tag::BIT_STRING, &content);
    }

    /// Write a named-bit-list BIT STRING (for KeyUsage): `bits[i]` is bit i.
    /// Trailing zero bits are trimmed per DER.
    pub fn bit_string_named(&mut self, bits: &[bool]) {
        let significant = bits.iter().rposition(|&b| b).map_or(0, |i| i + 1);
        let nbytes = significant.div_ceil(8);
        let unused = nbytes * 8 - significant;
        let mut content = vec![0u8; nbytes + 1];
        content[0] = unused as u8;
        for (i, &bit) in bits.iter().take(significant).enumerate() {
            if bit {
                content[1 + i / 8] |= 0x80 >> (i % 8);
            }
        }
        self.tlv(Tag::BIT_STRING, &content);
    }

    /// Write a UTF8String.
    pub fn utf8_string(&mut self, s: &str) {
        self.tlv(Tag::UTF8_STRING, s.as_bytes());
    }

    /// Write a time value, choosing UTCTime for years 1950–2049 and
    /// GeneralizedTime otherwise, per RFC 5280 §4.1.2.5.
    pub fn time(&mut self, t: &Time) {
        if (1950..2050).contains(&t.year) {
            self.tlv(Tag::UTC_TIME, t.to_utc_time_string().as_bytes());
        } else {
            self.tlv(Tag::GENERALIZED_TIME, t.to_generalized_time_string().as_bytes());
        }
    }
}

/// Is `b` in the PrintableString character set?
pub fn is_printable_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b' ' | b'\'' | b'(' | b')' | b'+' | b',' | b'-' | b'.' | b'/' | b':' | b'=' | b'?')
}

fn write_length(out: &mut Vec<u8>, len: usize) {
    if len < 0x80 {
        out.push(len as u8);
    } else {
        let bytes = (len as u64).to_be_bytes();
        let first = bytes.iter().position(|&b| b != 0).unwrap_or(7);
        let sig = &bytes[first..];
        out.push(0x80 | sig.len() as u8);
        out.extend_from_slice(sig);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_and_long_lengths() {
        let mut w = DerWriter::new();
        w.octet_string(&[0u8; 5]);
        assert_eq!(&w.out[..2], &[0x04, 0x05]);

        let mut w = DerWriter::new();
        w.octet_string(&[0u8; 200]);
        assert_eq!(&w.out[..3], &[0x04, 0x81, 200]);

        let mut w = DerWriter::new();
        w.octet_string(&vec![0u8; 1000]);
        assert_eq!(&w.out[..4], &[0x04, 0x82, 0x03, 0xe8]);
    }

    #[test]
    fn integer_minimal_encoding() {
        let mut w = DerWriter::new();
        w.integer_u64(0);
        assert_eq!(w.out, vec![0x02, 0x01, 0x00]);

        let mut w = DerWriter::new();
        w.integer_u64(127);
        assert_eq!(w.out, vec![0x02, 0x01, 0x7f]);

        // 128 needs a leading zero to stay non-negative.
        let mut w = DerWriter::new();
        w.integer_u64(128);
        assert_eq!(w.out, vec![0x02, 0x02, 0x00, 0x80]);

        // Redundant leading zeros stripped.
        let mut w = DerWriter::new();
        w.integer_bytes(&[0x00, 0x00, 0x01]);
        assert_eq!(w.out, vec![0x02, 0x01, 0x01]);
    }

    #[test]
    fn boolean_der_values() {
        let mut w = DerWriter::new();
        w.boolean(true);
        w.boolean(false);
        assert_eq!(w.out, vec![0x01, 0x01, 0xff, 0x01, 0x01, 0x00]);
    }

    #[test]
    fn bit_string_zero_unused() {
        let mut w = DerWriter::new();
        w.bit_string(&[0xde, 0xad]);
        assert_eq!(w.out, vec![0x03, 0x03, 0x00, 0xde, 0xad]);
    }

    #[test]
    fn named_bit_string_trims_trailing_zeros() {
        // keyCertSign is bit 5: named list [false x5, true] → one byte,
        // 2 unused bits.
        let mut w = DerWriter::new();
        w.bit_string_named(&[false, false, false, false, false, true]);
        assert_eq!(w.out, vec![0x03, 0x02, 0x02, 0x04]);

        // Empty list → zero-length bit string.
        let mut w = DerWriter::new();
        w.bit_string_named(&[false, false]);
        assert_eq!(w.out, vec![0x03, 0x01, 0x00]);
    }

    #[test]
    fn nested_sequence_lengths() {
        let mut w = DerWriter::new();
        w.sequence(|w| {
            w.sequence(|w| {
                w.integer_u64(1);
            });
        });
        assert_eq!(w.out, vec![0x30, 0x05, 0x30, 0x03, 0x02, 0x01, 0x01]);
    }

    #[test]
    fn explicit_context_tag() {
        let mut w = DerWriter::new();
        w.context(3, |w| w.integer_u64(7));
        assert_eq!(w.out, vec![0xa3, 0x03, 0x02, 0x01, 0x07]);
    }

    #[test]
    fn printable_charset() {
        assert!(is_printable_char(b'A'));
        assert!(is_printable_char(b' '));
        assert!(!is_printable_char(b'@'));
        assert!(!is_printable_char(b'_'));
    }
}
