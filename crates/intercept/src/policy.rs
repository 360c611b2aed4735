//! The Reality Mine proxy policy of Table 6.

/// A probed endpoint: domain plus port.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Target {
    /// Domain name.
    pub domain: String,
    /// TCP port.
    pub port: u16,
}

impl Target {
    /// Construct a target.
    pub fn new(domain: &str, port: u16) -> Target {
        Target {
            domain: domain.to_owned(),
            port,
        }
    }

    /// Parse `"domain:port"`.
    pub fn parse(s: &str) -> Option<Target> {
        let (domain, port) = s.rsplit_once(':')?;
        Some(Target {
            domain: domain.to_owned(),
            port: port.parse().ok()?,
        })
    }
}

impl std::fmt::Display for Target {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.domain, self.port)
    }
}

/// Table 6, left column: endpoints the proxy intercepts.
pub const INTERCEPTED_DOMAINS: [&str; 12] = [
    "gmail.com:443",
    "mail.google.com:443",
    "mail.yahoo.com:443",
    "orcart.facebook.com:443",
    "www.bankofamerica.com:443",
    "www.chase.com:443",
    "www.hsbc.com:443",
    "www.icsi.berkeley.edu:443",
    "www.outlook.com:443",
    "www.skype.com:443",
    "www.viber.com:443",
    "www.yahoo.com:443",
];

/// Table 6, right column: endpoints the proxy passes through untouched —
/// Google's SUPL service, Facebook chat, and the cert-pinned front doors
/// of Facebook, Twitter and Google.
pub const WHITELISTED_DOMAINS: [&str; 9] = [
    "google-analytics.com:443",
    "maps.google.com:443",
    "orcart.facebook.com:8883",
    "play.google.com:443",
    "supl.google.com:7275",
    "www.facebook.com:443",
    "www.google.com:443",
    "www.google.co.uk:443",
    "www.twitter.com:443",
];

/// What the proxy does with a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProxyAction {
    /// Re-sign the chain and inspect the plaintext.
    Intercept,
    /// Tunnel the original bytes through untouched.
    PassThrough,
}

/// The middlebox policy: which targets are re-signed.
#[derive(Debug, Clone)]
pub struct ProxyPolicy {
    whitelist: std::collections::HashSet<Target>,
    intercept_all_https: bool,
}

impl ProxyPolicy {
    /// The Reality Mine policy of Table 6: intercept HTTP(S) ports except
    /// for the whitelisted endpoints; pass through everything else.
    pub fn reality_mine() -> ProxyPolicy {
        ProxyPolicy {
            whitelist: WHITELISTED_DOMAINS
                .iter()
                .filter_map(|s| Target::parse(s))
                .collect(),
            intercept_all_https: true,
        }
    }

    /// A policy that never intercepts (control case).
    pub fn transparent() -> ProxyPolicy {
        ProxyPolicy {
            whitelist: std::collections::HashSet::new(),
            intercept_all_https: false,
        }
    }

    /// Decide the action for a target. The proxy "listens on ports 80 and
    /// 443" — other ports pass through regardless.
    pub fn action(&self, target: &Target) -> ProxyAction {
        if !self.intercept_all_https {
            return ProxyAction::PassThrough;
        }
        if self.whitelist.contains(target) {
            return ProxyAction::PassThrough;
        }
        match target.port {
            80 | 443 => ProxyAction::Intercept,
            _ => ProxyAction::PassThrough,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_lists_parse() {
        assert_eq!(INTERCEPTED_DOMAINS.len(), 12);
        assert_eq!(WHITELISTED_DOMAINS.len(), 9);
        for s in INTERCEPTED_DOMAINS.iter().chain(&WHITELISTED_DOMAINS) {
            assert!(Target::parse(s).is_some(), "{s}");
        }
    }

    #[test]
    fn reality_mine_policy_matches_table6() {
        let policy = ProxyPolicy::reality_mine();
        for s in INTERCEPTED_DOMAINS {
            let t = Target::parse(s).unwrap();
            assert_eq!(policy.action(&t), ProxyAction::Intercept, "{s}");
        }
        for s in WHITELISTED_DOMAINS {
            let t = Target::parse(s).unwrap();
            assert_eq!(policy.action(&t), ProxyAction::PassThrough, "{s}");
        }
    }

    #[test]
    fn non_http_ports_pass_through() {
        let policy = ProxyPolicy::reality_mine();
        // SUPL and MQTT-style ports pass even when not whitelisted.
        assert_eq!(
            policy.action(&Target::new("supl.vendor.example", 7275)),
            ProxyAction::PassThrough
        );
        assert_eq!(
            policy.action(&Target::new("chat.example", 8883)),
            ProxyAction::PassThrough
        );
        // But 443 on an unknown domain is fair game.
        assert_eq!(
            policy.action(&Target::new("anything.example", 443)),
            ProxyAction::Intercept
        );
    }

    #[test]
    fn transparent_policy_never_intercepts() {
        let policy = ProxyPolicy::transparent();
        assert_eq!(
            policy.action(&Target::parse("gmail.com:443").unwrap()),
            ProxyAction::PassThrough
        );
    }

    #[test]
    fn whitelist_is_port_specific() {
        let policy = ProxyPolicy::reality_mine();
        // orcart.facebook.com appears in BOTH Table 6 columns: port 8883
        // (chat) is whitelisted, port 443 is intercepted. The whitelist
        // entry must not bleed across ports.
        assert_eq!(
            policy.action(&Target::new("orcart.facebook.com", 8883)),
            ProxyAction::PassThrough
        );
        assert_eq!(
            policy.action(&Target::new("orcart.facebook.com", 443)),
            ProxyAction::Intercept
        );
        // And a whitelisted 443 endpoint is NOT whitelisted on port 80.
        assert_eq!(
            policy.action(&Target::new("www.facebook.com", 80)),
            ProxyAction::Intercept
        );
    }

    #[test]
    fn whitelist_wins_over_interception() {
        // Per Table 6 a pinned endpoint must pass through even when it
        // would otherwise be intercepted: add an INTERCEPTED domain to the
        // whitelist and the whitelist must win.
        let mut policy = ProxyPolicy::reality_mine();
        let t = Target::parse("www.chase.com:443").unwrap();
        assert_eq!(policy.action(&t), ProxyAction::Intercept);
        policy.whitelist.insert(t.clone());
        assert_eq!(policy.action(&t), ProxyAction::PassThrough);
    }

    #[test]
    fn overlapping_whitelist_entries_are_idempotent() {
        // Duplicate and near-duplicate entries (same domain, several
        // ports) coexist without widening or narrowing each other.
        let mut policy = ProxyPolicy::reality_mine();
        policy.whitelist.insert(Target::new("dup.example", 443));
        policy.whitelist.insert(Target::new("dup.example", 443));
        policy.whitelist.insert(Target::new("dup.example", 80));
        assert_eq!(
            policy.action(&Target::new("dup.example", 443)),
            ProxyAction::PassThrough
        );
        assert_eq!(
            policy.action(&Target::new("dup.example", 80)),
            ProxyAction::PassThrough
        );
        // A sibling subdomain gains nothing from the parent's entries.
        assert_eq!(
            policy.action(&Target::new("sub.dup.example", 443)),
            ProxyAction::Intercept
        );
    }

    #[test]
    fn target_display_round_trip() {
        let t = Target::new("www.yahoo.com", 443);
        assert_eq!(Target::parse(&t.to_string()), Some(t));
        assert_eq!(Target::parse("no-port"), None);
        assert_eq!(Target::parse("bad:port:x"), None);
    }
}
