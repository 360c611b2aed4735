//! X.501 distinguished names.
//!
//! A [`DistinguishedName`] is an ordered sequence of relative distinguished
//! names, each holding a single attribute (the overwhelmingly common case in
//! the 2013–2014 certificate corpus, and the only form this workspace
//! emits). The paper's methodology compares subjects and issuers as strings
//! ("we had to inspect the subject and issuer fields manually"); the
//! [`std::fmt::Display`] rendering here is the canonical string form used
//! throughout the workspace.

use tangled_asn1::{Asn1Error, DerReader, DerWriter, Oid};

/// One attribute of a name: type OID plus string value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameAttribute {
    /// Attribute type (e.g. id-at-commonName).
    pub oid: Oid,
    /// Attribute value as a Rust string.
    pub value: String,
}

/// An ordered X.501 name (sequence of single-attribute RDNs).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct DistinguishedName {
    attributes: Vec<NameAttribute>,
}

impl DistinguishedName {
    /// The empty name.
    pub fn empty() -> Self {
        DistinguishedName::default()
    }

    /// Convenience constructor: `CN=<cn>`.
    pub fn common_name(cn: &str) -> Self {
        DistinguishedName::builder().common_name(cn).build()
    }

    /// Start a fluent builder.
    pub fn builder() -> DnBuilder {
        DnBuilder::default()
    }

    /// Borrow the attribute list.
    pub fn attributes(&self) -> &[NameAttribute] {
        &self.attributes
    }

    /// True when the name has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// First value of the given attribute type, if present.
    pub fn get(&self, oid: &Oid) -> Option<&str> {
        self.attributes
            .iter()
            .find(|a| &a.oid == oid)
            .map(|a| a.value.as_str())
    }

    /// The common name, if present.
    pub fn cn(&self) -> Option<&str> {
        self.get(&Oid::common_name())
    }

    /// The organization, if present.
    pub fn organization(&self) -> Option<&str> {
        self.get(&Oid::organization())
    }

    /// The country, if present.
    pub fn country(&self) -> Option<&str> {
        self.get(&Oid::country())
    }

    /// Write the DER `Name` production.
    pub fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            for attr in &self.attributes {
                w.set(|w| {
                    w.sequence(|w| {
                        w.oid(&attr.oid);
                        // Values whose repertoire fits PrintableString could
                        // use it; we uniformly emit UTF8String, which DER
                        // permits and modern issuers prefer.
                        w.utf8_string(&attr.value);
                    });
                });
            }
        });
    }

    /// Encode to standalone DER bytes.
    pub fn to_der(&self) -> Vec<u8> {
        let mut w = DerWriter::new();
        self.write_der(&mut w);
        w.into_bytes()
    }

    /// Parse the DER `Name` production from a reader.
    pub fn read_der(r: &mut DerReader<'_>) -> Result<Self, Asn1Error> {
        let mut rdn_seq = r.read_sequence()?;
        let mut attributes = Vec::new();
        while !rdn_seq.is_at_end() {
            let mut rdn_set = rdn_seq.read_set()?;
            // Multi-valued RDNs are accepted on parse (attributes flattened
            // in order) even though the writer never produces them.
            while !rdn_set.is_at_end() {
                let mut atv = rdn_set.read_sequence()?;
                let oid = atv.read_oid()?;
                let value = atv.read_string()?;
                atv.finish()?;
                attributes.push(NameAttribute { oid, value });
            }
        }
        Ok(DistinguishedName { attributes })
    }

    /// Parse from standalone DER bytes.
    pub fn from_der(bytes: &[u8]) -> Result<Self, Asn1Error> {
        let mut r = DerReader::new(bytes);
        let dn = Self::read_der(&mut r)?;
        r.finish()?;
        Ok(dn)
    }
}

/// Fluent builder for [`DistinguishedName`].
#[derive(Debug, Default)]
pub struct DnBuilder {
    attributes: Vec<NameAttribute>,
}

impl DnBuilder {
    fn push(mut self, oid: Oid, value: &str) -> Self {
        self.attributes.push(NameAttribute {
            oid,
            value: value.to_owned(),
        });
        self
    }

    /// Append `CN=`.
    pub fn common_name(self, v: &str) -> Self {
        self.push(Oid::common_name(), v)
    }
    /// Append `O=`.
    pub fn organization(self, v: &str) -> Self {
        self.push(Oid::organization(), v)
    }
    /// Append `OU=`.
    pub fn organizational_unit(self, v: &str) -> Self {
        self.push(Oid::organizational_unit(), v)
    }
    /// Append `C=`.
    pub fn country(self, v: &str) -> Self {
        self.push(Oid::country(), v)
    }
    /// Append `L=`.
    pub fn locality(self, v: &str) -> Self {
        self.push(Oid::locality(), v)
    }
    /// Append `ST=`.
    pub fn state(self, v: &str) -> Self {
        self.push(Oid::state(), v)
    }
    /// Append `emailAddress=`.
    pub fn email(self, v: &str) -> Self {
        self.push(Oid::email_address(), v)
    }

    /// Finish the name.
    pub fn build(self) -> DistinguishedName {
        DistinguishedName {
            attributes: self.attributes,
        }
    }
}

fn short_name(oid: &Oid) -> Option<&'static str> {
    if *oid == Oid::common_name() {
        Some("CN")
    } else if *oid == Oid::country() {
        Some("C")
    } else if *oid == Oid::locality() {
        Some("L")
    } else if *oid == Oid::state() {
        Some("ST")
    } else if *oid == Oid::organization() {
        Some("O")
    } else if *oid == Oid::organizational_unit() {
        Some("OU")
    } else if *oid == Oid::email_address() {
        Some("emailAddress")
    } else {
        None
    }
}

impl std::fmt::Display for DistinguishedName {
    /// Render as `CN=Example Root,O=Example,C=US` (RFC 4514 order-of-writing,
    /// most significant first — matching how the paper prints subjects, e.g.
    /// `CN=DoD CLASS 3 Root CA,OU=PKI,OU=DoD,O=U.S. Government,C=US`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, attr) in self.attributes.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            match short_name(&attr.oid) {
                Some(short) => write!(f, "{short}={}", attr.value)?,
                None => write!(f, "{}={}", attr.oid, attr.value)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DistinguishedName {
        DistinguishedName::builder()
            .common_name("DoD CLASS 3 Root CA")
            .organizational_unit("PKI")
            .organizational_unit("DoD")
            .organization("U.S. Government")
            .country("US")
            .build()
    }

    #[test]
    fn display_matches_paper_convention() {
        assert_eq!(
            sample().to_string(),
            "CN=DoD CLASS 3 Root CA,OU=PKI,OU=DoD,O=U.S. Government,C=US"
        );
    }

    #[test]
    fn der_round_trip() {
        let dn = sample();
        let der = dn.to_der();
        assert_eq!(DistinguishedName::from_der(&der).unwrap(), dn);
    }

    #[test]
    fn empty_name_round_trip() {
        let dn = DistinguishedName::empty();
        assert!(dn.is_empty());
        assert_eq!(DistinguishedName::from_der(&dn.to_der()).unwrap(), dn);
        assert_eq!(dn.to_string(), "");
    }

    #[test]
    fn accessors() {
        let dn = sample();
        assert_eq!(dn.cn(), Some("DoD CLASS 3 Root CA"));
        assert_eq!(dn.organization(), Some("U.S. Government"));
        assert_eq!(dn.country(), Some("US"));
        assert_eq!(dn.get(&Oid::locality()), None);
        // First of repeated attributes wins.
        assert_eq!(dn.get(&Oid::organizational_unit()), Some("PKI"));
    }

    #[test]
    fn unknown_attribute_renders_as_oid() {
        let dn = DistinguishedName {
            attributes: vec![NameAttribute {
                oid: Oid::new(&[1, 3, 6, 1, 4, 1, 99999, 1]),
                value: "custom".into(),
            }],
        };
        assert_eq!(dn.to_string(), "1.3.6.1.4.1.99999.1=custom");
        let der = dn.to_der();
        assert_eq!(DistinguishedName::from_der(&der).unwrap(), dn);
    }

    #[test]
    fn unicode_values_survive() {
        let dn = DistinguishedName::builder()
            .organization("Autoridad de Certificación Firmaprofesional")
            .country("ES")
            .build();
        let der = dn.to_der();
        assert_eq!(DistinguishedName::from_der(&der).unwrap(), dn);
    }

    #[test]
    fn ordering_is_stable() {
        // Names differing only in attribute order are distinct (X.501 names
        // are ordered) — the identity model depends on this.
        let a = DistinguishedName::builder().common_name("X").country("US").build();
        let b = DistinguishedName::builder().country("US").common_name("X").build();
        assert_ne!(a, b);
        assert_ne!(a.to_der(), b.to_der());
    }

    #[test]
    fn garbage_rejected() {
        assert!(DistinguishedName::from_der(&[0x31, 0x00]).is_err()); // SET at top
        assert!(DistinguishedName::from_der(&[]).is_err());
        // Trailing bytes after the name.
        let mut der = sample().to_der();
        der.push(0x00);
        assert!(DistinguishedName::from_der(&der).is_err());
    }
}
