//! Generators for Tables 1–6 of the paper.
//!
//! Each generator returns both the structured numbers (for tests and
//! benches to assert against) and a [`TextTable`] matching the paper's
//! layout.

use crate::report::{pct, thousands, TextTable};
use crate::study::Study;
use std::collections::HashMap;
use std::sync::Arc;
use tangled_intercept::origin::OriginServers;
use tangled_intercept::{detect, MitmProxy};
use tangled_netalyzr::Population;
use tangled_notary::ValidationIndex;
use tangled_pki::extras::{catalogue, rooted_device_cas};
use tangled_pki::stores::{aggregated_android, global_factory, mint_extra, ReferenceStore};
use tangled_pki::RootStore;
use tangled_x509::CertIdentity;

// ---------------------------------------------------------------------------
// Table 1 — Number of certificates in different root stores.
// ---------------------------------------------------------------------------

/// Table 1 data: `(store name, certificate count)` in the paper's order.
pub fn table1_data() -> Vec<(&'static str, usize)> {
    [
        ReferenceStore::Aosp41,
        ReferenceStore::Aosp42,
        ReferenceStore::Aosp43,
        ReferenceStore::Aosp44,
        ReferenceStore::Ios7,
        ReferenceStore::Mozilla,
    ]
    .into_iter()
    .map(|rs| (rs.name(), rs.cached().len()))
    .collect()
}

/// Render Table 1.
pub fn table1() -> TextTable {
    let mut t = TextTable::new(
        "Table 1: Number of certificates in different root stores.",
        &["Root store", "No. certificates"],
    );
    for (name, n) in table1_data() {
        t.row(&[name.to_owned(), n.to_string()]);
    }
    t
}

// ---------------------------------------------------------------------------
// Table 2 — Top 5 mobile devices and manufacturers.
// ---------------------------------------------------------------------------

/// Table 2 data: top-5 `(model, sessions)` and `(manufacturer, sessions)`.
pub struct Table2 {
    /// Top device models by session count.
    pub top_models: Vec<(String, u32)>,
    /// Top manufacturers by session count.
    pub top_manufacturers: Vec<(String, u32)>,
}

/// Compute Table 2 from a population.
pub fn table2_data(pop: &Population) -> Table2 {
    let counts = pop.sessions_per_device();
    let mut by_model: HashMap<&str, u32> = HashMap::new();
    let mut by_mfr: HashMap<&str, u32> = HashMap::new();
    for (i, d) in pop.devices.iter().enumerate() {
        *by_model.entry(d.model.as_str()).or_default() += counts[i];
        *by_mfr.entry(d.manufacturer.label()).or_default() += counts[i];
    }
    let top = |m: HashMap<&str, u32>| -> Vec<(String, u32)> {
        let mut v: Vec<_> = m.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v.truncate(5);
        v.into_iter().map(|(k, n)| (k.to_owned(), n)).collect()
    };
    Table2 {
        top_models: top(by_model),
        top_manufacturers: top(by_mfr),
    }
}

/// Render Table 2.
pub fn table2(pop: &Population) -> TextTable {
    let data = table2_data(pop);
    let mut t = TextTable::new(
        "Table 2: Top 5 mobile devices and manufacturers in our Android dataset.",
        &["Device model", "No. sessions", "Manufacturer", "No. sessions"],
    );
    for i in 0..5 {
        let (model, ms) = data
            .top_models
            .get(i)
            .map(|(m, n)| (m.clone(), n.to_string()))
            .unwrap_or_default();
        let (mfr, fs) = data
            .top_manufacturers
            .get(i)
            .map(|(m, n)| (m.clone(), n.to_string()))
            .unwrap_or_default();
        t.row(&[model, ms, mfr, fs]);
    }
    t
}

// ---------------------------------------------------------------------------
// Table 3 — Number of certificates validated by each root store.
// ---------------------------------------------------------------------------

/// Table 3 data: `(store name, validated count)` in the paper's order.
pub fn table3_data(validation: &ValidationIndex) -> Vec<(&'static str, u32)> {
    [
        ReferenceStore::Mozilla,
        ReferenceStore::Ios7,
        ReferenceStore::Aosp41,
        ReferenceStore::Aosp42,
        ReferenceStore::Aosp43,
        ReferenceStore::Aosp44,
    ]
    .into_iter()
    .map(|rs| (rs.name(), validation.store_count(&rs.cached())))
    .collect()
}

/// Render Table 3.
pub fn table3(validation: &ValidationIndex) -> TextTable {
    let mut t = TextTable::new(
        "Table 3: Number of certificates validated by Mozilla and AOSP root stores.",
        &["Root store", "No. validated certificates"],
    );
    for (name, n) in table3_data(validation) {
        t.row(&[name.to_owned(), thousands(n as u64)]);
    }
    t
}

// ---------------------------------------------------------------------------
// Table 4 — Root certificates per category and dead fractions.
// ---------------------------------------------------------------------------

/// One Table 4 row.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Category label as the paper prints it.
    pub category: &'static str,
    /// Total root certificates in the category.
    pub total: usize,
    /// Fraction validating zero Notary certificates.
    pub dead_fraction: f64,
}

/// The identity sets behind Table 4's categories.
pub fn table4_categories() -> Vec<(&'static str, Vec<CertIdentity>)> {
    let aosp44 = ReferenceStore::Aosp44.cached();
    let aosp41 = ReferenceStore::Aosp41.cached();
    let mozilla = ReferenceStore::Mozilla.cached();
    let ios7 = ReferenceStore::Ios7.cached();

    let extras: Vec<(bool, CertIdentity)> = {
        let mut factory = global_factory().lock().expect("factory poisoned");
        catalogue()
            .iter()
            .map(|e| (e.in_mozilla, mint_extra(&mut factory, e).identity()))
            .collect()
    };
    let neither: Vec<CertIdentity> = extras
        .iter()
        .filter(|(in_moz, _)| !in_moz)
        .map(|(_, id)| id.clone())
        .collect();
    let on_mozillas: Vec<CertIdentity> = extras
        .iter()
        .filter(|(in_moz, _)| *in_moz)
        .map(|(_, id)| id.clone())
        .collect();
    let shared: Vec<CertIdentity> = aosp44
        .identities()
        .iter()
        .filter(|id| mozilla.contains(id))
        .cloned()
        .collect();
    let aggregated: Vec<CertIdentity> = {
        let mut factory = global_factory().lock().expect("factory poisoned");
        aggregated_android(&mut factory).identities().to_vec()
    };

    vec![
        ("Non AOSP and Non Mozilla root certs", neither),
        ("Non AOSP root certs found on Mozilla's", on_mozillas),
        ("AOSP 4.4 and Mozilla root certs", shared),
        ("AOSP 4.1 certs", aosp41.identities().to_vec()),
        ("AOSP 4.4 certs", aosp44.identities().to_vec()),
        ("Aggregated Android root certs", aggregated),
        ("Mozilla root store certs", mozilla.identities().to_vec()),
        ("iOS 7 root store certs", ios7.identities().to_vec()),
    ]
}

/// Compute Table 4.
pub fn table4_data(validation: &ValidationIndex) -> Vec<Table4Row> {
    table4_categories()
        .into_iter()
        .map(|(category, ids)| Table4Row {
            category,
            total: ids.len(),
            dead_fraction: validation.dead_fraction(ids.iter()),
        })
        .collect()
}

/// Render Table 4.
pub fn table4(validation: &ValidationIndex) -> TextTable {
    let mut t = TextTable::new(
        "Table 4: Root certificates per category, and how many validate none of the Notary's certificates.",
        &["Root store category", "Total root certs", "Do not validate"],
    );
    for row in table4_data(validation) {
        t.row(&[
            row.category.to_owned(),
            row.total.to_string(),
            pct(row.dead_fraction),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Table 5 — CAs found more frequently on rooted devices.
// ---------------------------------------------------------------------------

/// Table 5 data: `(authority, device count)` observed in the population:
/// the devices holding an anchor whose rendered subject contains the
/// authority's name.
///
/// Devices share their stores, and stores share their anchors, so the
/// scan runs once per distinct store (`Arc` address) and renders each
/// distinct certificate's subject once (`Arc` address again). The
/// population holds every `Arc` for the whole call, so no address is
/// reused.
pub fn table5_data(pop: &Population) -> Vec<(String, usize)> {
    let authorities: Vec<&'static str> = rooted_device_cas()
        .into_iter()
        .map(|c| c.authority)
        .collect();
    let mut devices: HashMap<usize, (&RootStore, usize)> = HashMap::new();
    for d in &pop.devices {
        devices
            .entry(Arc::as_ptr(&d.store) as usize)
            .or_insert((&d.store, 0))
            .1 += 1;
    }
    // Which authorities each distinct certificate's subject names.
    let mut names: HashMap<usize, Vec<bool>> = HashMap::new();
    let mut counts = vec![0; authorities.len()];
    for (store, n) in devices.into_values() {
        let mut held = vec![false; authorities.len()];
        for anchor in store.iter() {
            let named = names
                .entry(Arc::as_ptr(&anchor.cert) as usize)
                .or_insert_with(|| {
                    let subject = anchor.cert.subject.to_string();
                    authorities.iter().map(|a| subject.contains(a)).collect()
                });
            for (h, named) in held.iter_mut().zip(named.iter()) {
                *h |= *named;
            }
        }
        for (count, held) in counts.iter_mut().zip(held) {
            if held {
                *count += n;
            }
        }
    }
    authorities
        .into_iter()
        .zip(counts)
        .map(|(name, devices)| (name.to_owned(), devices))
        .collect()
}

/// Render Table 5.
pub fn table5(pop: &Population) -> TextTable {
    let mut t = TextTable::new(
        "Table 5: CAs and user self-signed certificates found more frequently on rooted devices.",
        &["Certificate authority", "Total devices"],
    );
    for (name, n) in table5_data(pop) {
        t.row(&[name, n.to_string()]);
    }
    t
}

// ---------------------------------------------------------------------------
// Table 6 — Domains intercepted and whitelisted by the proxy.
// ---------------------------------------------------------------------------

/// Table 6 data derived by *probing* the proxy (not by reading its
/// policy): endpoints whose presented chain fails validation are
/// intercepted; the rest are whitelisted.
pub struct Table6 {
    /// Endpoints observed intercepted.
    pub intercepted: Vec<String>,
    /// Endpoints passed through untouched.
    pub whitelisted: Vec<String>,
}

/// Probe the Reality Mine proxy over the Table 6 endpoint list.
pub fn table6_data() -> Table6 {
    let origin = OriginServers::for_table6();
    let device_store: RootStore = ReferenceStore::Aosp44.cached().cloned_as("probe device");
    // A classified mint failure degrades to a diagnostic row rather than
    // panicking the table renderer.
    let reports = match MitmProxy::reality_mine()
        .and_then(|mut proxy| detect::probe_all(&mut proxy, &origin, &device_store, &[]))
    {
        Ok(reports) => reports,
        Err(e) => {
            return Table6 {
                intercepted: vec![format!("mint-error: {e}")],
                whitelisted: Vec::new(),
            }
        }
    };
    let mut intercepted = Vec::new();
    let mut whitelisted = Vec::new();
    for r in reports {
        if r.verdict.is_interception() {
            intercepted.push(r.target.to_string());
        } else {
            whitelisted.push(r.target.to_string());
        }
    }
    intercepted.sort();
    whitelisted.sort();
    Table6 {
        intercepted,
        whitelisted,
    }
}

/// Render Table 6.
pub fn table6() -> TextTable {
    let data = table6_data();
    let mut t = TextTable::new(
        "Table 6: Domains being intercepted and whitelisted by the HTTPS proxy.",
        &["Intercepted domains", "Whitelisted domains"],
    );
    let rows = data.intercepted.len().max(data.whitelisted.len());
    for i in 0..rows {
        t.row(&[
            data.intercepted.get(i).cloned().unwrap_or_default(),
            data.whitelisted.get(i).cloned().unwrap_or_default(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Dataset description (§4.1) — not a numbered table in the paper, but the
// prose statistics the methodology section reports.
// ---------------------------------------------------------------------------

/// Render the §4.1 dataset summary: sessions, devices, models, collected
/// and unique root certificates, per-version and per-rooting breakdowns.
pub fn dataset_summary(pop: &Population) -> TextTable {
    let stats = crate::classify::collection_stats(pop);
    let counts = pop.sessions_per_device();
    let mut by_version: HashMap<&'static str, u32> = HashMap::new();
    let mut rooted_sessions = 0u32;
    for (i, d) in pop.devices.iter().enumerate() {
        *by_version.entry(d.os_version.label()).or_default() += counts[i];
        if d.rooted {
            rooted_sessions += counts[i];
        }
    }
    let mut t = TextTable::new(
        "Dataset summary (cf. §4.1 of the paper).",
        &["Quantity", "Value"],
    );
    t.row(&["Netalyzr sessions".into(), thousands(pop.sessions.len() as u64)]);
    t.row(&["Distinct handsets".into(), thousands(pop.devices.len() as u64)]);
    t.row(&["Device models".into(), pop.distinct_models().to_string()]);
    t.row(&[
        "Root certificates collected".into(),
        thousands(stats.total_collected),
    ]);
    t.row(&["Unique root certificates".into(), stats.unique.to_string()]);
    for v in tangled_pki::vocab::AndroidVersion::ALL {
        t.row(&[
            format!("Sessions on Android {}", v.label()),
            thousands(by_version.get(v.label()).copied().unwrap_or(0) as u64),
        ]);
    }
    t.row(&[
        "Sessions on rooted handsets".into(),
        thousands(rooted_sessions as u64),
    ]);
    t
}

/// Render every table of the paper from one study.
pub fn render_all(study: &Study) -> String {
    let mut out = String::new();
    for table in [
        table1(),
        table2(&study.population),
        table3(&study.validation),
        table4(&study.validation),
        table5(&study.population),
        table6(),
    ] {
        out.push_str(&table.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_exactly() {
        let data = table1_data();
        assert_eq!(
            data,
            vec![
                ("AOSP 4.1", 139),
                ("AOSP 4.2", 140),
                ("AOSP 4.3", 146),
                ("AOSP 4.4", 150),
                ("iOS 7", 227),
                ("Mozilla", 153),
            ]
        );
    }

    #[test]
    fn table6_matches_paper_exactly() {
        let data = table6_data();
        let expect_i: Vec<String> = tangled_intercept::INTERCEPTED_DOMAINS
            .iter()
            .map(|s| s.to_string())
            .collect();
        let expect_w: Vec<String> = tangled_intercept::WHITELISTED_DOMAINS
            .iter()
            .map(|s| s.to_string())
            .collect();
        let sorted = |mut v: Vec<String>| {
            v.sort();
            v
        };
        assert_eq!(data.intercepted, sorted(expect_i));
        assert_eq!(data.whitelisted, sorted(expect_w));
    }

    #[test]
    fn table4_category_sizes() {
        let cats = table4_categories();
        let sizes: HashMap<&str, usize> =
            cats.iter().map(|(n, ids)| (*n, ids.len())).collect();
        // Paper: 85 / 16 / 130 / 139 / 150 / 235 / 153 / 227. Ours matches
        // except the two driven by the Figure 2 axis (88 and 238) — see
        // EXPERIMENTS.md.
        assert_eq!(sizes["Non AOSP and Non Mozilla root certs"], 88);
        assert_eq!(sizes["Non AOSP root certs found on Mozilla's"], 16);
        assert_eq!(sizes["AOSP 4.4 and Mozilla root certs"], 130);
        assert_eq!(sizes["AOSP 4.1 certs"], 139);
        assert_eq!(sizes["AOSP 4.4 certs"], 150);
        assert_eq!(sizes["Aggregated Android root certs"], 238);
        assert_eq!(sizes["Mozilla root store certs"], 153);
        assert_eq!(sizes["iOS 7 root store certs"], 227);
    }

    #[test]
    fn dataset_summary_renders() {
        let pop = tangled_netalyzr::Population::generate(
            &tangled_netalyzr::PopulationSpec::scaled(0.1),
        );
        let t = dataset_summary(&pop);
        let text = t.render();
        assert!(text.contains("Netalyzr sessions"));
        assert!(text.contains("Unique root certificates"));
        assert!(text.contains("Sessions on Android 4.4"));
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn tables_render_with_data() {
        let t = table1();
        assert_eq!(t.len(), 6);
        assert!(t.render().contains("150"));
        let t6 = table6();
        assert_eq!(t6.len(), 12);
        assert!(t6.render().contains("supl.google.com:7275"));
    }

    /// Table 5 as a scan of every device's every anchor: the oracle
    /// [`table5_data`] must agree with.
    fn table5_oracle(pop: &Population) -> Vec<(String, usize)> {
        rooted_device_cas()
            .into_iter()
            .map(|c| {
                let devices = pop
                    .devices
                    .iter()
                    .filter(|d| {
                        d.store
                            .iter()
                            .any(|a| a.cert.subject.to_string().contains(c.authority))
                    })
                    .count();
                (c.authority.to_owned(), devices)
            })
            .collect()
    }

    #[test]
    fn table5_matches_the_per_device_scan() {
        let clean = Study::new(0.2, 0.2);
        let plan = tangled_faults::FaultPlan::new(2014).with_rate(0.05);
        let faulted = Study::with_faults(0.2, 0.2, &plan);
        for study in [&clean, &faulted] {
            let oracle = table5_oracle(&study.population);
            assert!(oracle.iter().any(|(_, n)| *n > 0), "{oracle:?}");
            assert_eq!(table5_data(&study.population), oracle);
        }
    }
}
