//! Firmware root-store composition.
//!
//! Given a device's manufacturer, OS version and operator, this module
//! derives the root store its firmware ships: the AOSP baseline for the
//! version plus a draw of additional certificates from the Figure 2
//! catalogue. The per-row addition-count distributions are calibrated to
//! Figure 1 of the paper:
//!
//! * 39 % of sessions overall carry additions;
//! * HTC (all versions), Motorola 4.1/4.2, LG 4.1/4.2 and Samsung 4.4
//!   produce devices with **more than 40** additions at >10 % rate;
//! * Motorola 4.3/4.4, Huawei, Sony and ASUS stay **below 10** additions.
//!
//! Identical compositions share one [`RootStore`] allocation via a cache,
//! mirroring reality: devices on the same firmware image have the same
//! store.

use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;
use tangled_pki::extras::{catalogue, ExtraCert};
use tangled_pki::store::RootStore;
use tangled_pki::stores::{global_factory, mint_extra, ReferenceStore};
use tangled_pki::trust::AnchorSource;
use tangled_pki::vocab::{AndroidVersion, Figure2Row, Manufacturer, Operator};

/// Per-(manufacturer, version) firmware behaviour.
#[derive(Debug, Clone, Copy)]
pub struct RowProfile {
    /// Probability that a device has *no* additions at all.
    pub p_none: f64,
    /// Probability (of all devices) that a device carries a big vendor
    /// bundle (40–60 additions).
    pub p_big: f64,
    /// Range of addition counts for ordinary extended devices.
    pub small_range: (usize, usize),
    /// Range for big-bundle devices.
    pub big_range: (usize, usize),
}

/// The calibrated Figure 1 profile for a manufacturer × version cell.
pub fn row_profile(mfr: Manufacturer, ver: AndroidVersion) -> RowProfile {
    use AndroidVersion::*;
    use Manufacturer::*;
    let profile = |p_none: f64, p_big: f64, small: (usize, usize)| RowProfile {
        p_none,
        p_big,
        small_range: small,
        big_range: (41, 60),
    };
    match (mfr, ver) {
        // HTC ships heavily extended firmware on every release.
        (Htc, V4_1) | (Htc, V4_2) => profile(0.10, 0.40, (5, 39)),
        (Htc, V4_3) | (Htc, V4_4) => profile(0.10, 0.12, (4, 30)),
        // Motorola 4.1/4.2 heavy (CertiSign/PTT Post era), 4.3/4.4 near-stock.
        (Motorola, V4_1) | (Motorola, V4_2) => profile(0.15, 0.35, (5, 39)),
        (Motorola, V4_3) | (Motorola, V4_4) => profile(0.70, 0.0, (1, 9)),
        // LG 4.1/4.2 extended, later releases close to AOSP.
        (Lg, V4_1) | (Lg, V4_2) => profile(0.50, 0.20, (3, 35)),
        (Lg, V4_3) | (Lg, V4_4) => profile(0.80, 0.0, (1, 8)),
        // Samsung: 4.1/4.2 lightly touched, 4.3 extended, 4.4 heavily.
        (Samsung, V4_1) | (Samsung, V4_2) => profile(0.75, 0.0, (2, 12)),
        (Samsung, V4_3) => profile(0.50, 0.02, (4, 25)),
        (Samsung, V4_4) => profile(0.45, 0.15, (5, 35)),
        // Near-stock vendors (<10 additions when touched at all).
        (Sony, _) => profile(0.70, 0.0, (1, 9)),
        (Asus, _) => profile(0.85, 0.0, (1, 7)),
        (Huawei, _) => profile(0.80, 0.0, (1, 9)),
        _ => profile(0.70, 0.0, (1, 9)),
    }
}

/// The extras catalogue indexed for composition, built once.
pub struct ExtrasIndex {
    all: Vec<ExtraCert>,
    /// For each catalogue index: the rows it installs on, with frequency.
    by_row: HashMap<Figure2Row, Vec<(usize, f64)>>,
}

impl ExtrasIndex {
    /// Build the index from [`tangled_pki::extras::catalogue`].
    pub fn new() -> ExtrasIndex {
        let all = catalogue();
        let mut by_row: HashMap<Figure2Row, Vec<(usize, f64)>> = HashMap::new();
        for (i, extra) in all.iter().enumerate() {
            for &(row, freq) in &extra.installers {
                by_row.entry(row).or_default().push((i, freq));
            }
        }
        // High-frequency extras first within each row.
        for list in by_row.values_mut() {
            list.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        }
        ExtrasIndex { all, by_row }
    }

    /// The full catalogue.
    pub fn all(&self) -> &[ExtraCert] {
        &self.all
    }

    /// Candidate extras for a device: manufacturer-row extras first, then
    /// operator-row extras, then the rest of the catalogue in stable order.
    fn candidates(
        &self,
        mfr: Manufacturer,
        ver: AndroidVersion,
        op: Operator,
    ) -> Vec<usize> {
        let mut seen = vec![false; self.all.len()];
        let mut out = Vec::new();
        let push_row = |row: Figure2Row, out: &mut Vec<usize>, seen: &mut Vec<bool>| {
            if let Some(list) = self.by_row.get(&row) {
                for &(i, _) in list {
                    if !seen[i] {
                        seen[i] = true;
                        out.push(i);
                    }
                }
            }
        };
        push_row(Figure2Row::Mfr(mfr, ver), &mut out, &mut seen);
        push_row(Figure2Row::Op(op), &mut out, &mut seen);
        for (i, taken) in seen.iter().enumerate() {
            if !taken {
                out.push(i);
            }
        }
        out
    }
}

impl Default for ExtrasIndex {
    fn default() -> Self {
        ExtrasIndex::new()
    }
}

/// Cache of composed firmware stores, keyed by composition fingerprint.
#[derive(Default)]
pub struct FirmwareCache {
    stores: HashMap<(AndroidVersion, Vec<usize>), Arc<RootStore>>,
}

impl FirmwareCache {
    /// An empty cache.
    pub fn new() -> FirmwareCache {
        FirmwareCache::default()
    }
}

/// Draw the number of additional certificates a device of this
/// (manufacturer, version) cell carries. This is the *only* random step of
/// firmware composition — splitting it out lets the population generator
/// run the draws on per-device sub-RNGs in parallel and materialise the
/// stores afterwards through the shared cache in device order.
pub fn draw_addition_count(mfr: Manufacturer, ver: AndroidVersion, rng: &mut StdRng) -> usize {
    let profile = row_profile(mfr, ver);
    let roll: f64 = rng.gen();
    if roll < profile.p_none {
        0
    } else if roll < profile.p_none + profile.p_big {
        rng.gen_range(profile.big_range.0..=profile.big_range.1)
    } else {
        rng.gen_range(profile.small_range.0..=profile.small_range.1)
    }
}

/// Materialise the firmware store for an already-drawn addition count.
/// Pure in its arguments (no RNG): callers that pre-draw counts in
/// parallel feed them through here sequentially for deterministic
/// [`Arc`]-sharing of identical images.
pub fn compose_with_count(
    index: &ExtrasIndex,
    cache: &mut FirmwareCache,
    mfr: Manufacturer,
    ver: AndroidVersion,
    op: Operator,
    count: usize,
) -> Arc<RootStore> {
    if count == 0 {
        return ReferenceStore::for_version(ver).cached();
    }

    let candidates = index.candidates(mfr, ver, op);
    let chosen: Vec<usize> = candidates.into_iter().take(count).collect();
    let key = (ver, chosen.clone());
    if let Some(store) = cache.stores.get(&key) {
        return Arc::clone(store);
    }

    // The name carries a digest of the chosen extras set: two images of
    // the same version and count can differ by operator-contributed
    // extras, and downstream fault plans address stores *by name*, so
    // every distinct composition needs a distinct name.
    let mut fp = Vec::with_capacity(8 + chosen.len() * 8);
    fp.extend_from_slice(ver.label().as_bytes());
    for &i in &chosen {
        fp.extend_from_slice(&(i as u64).to_be_bytes());
    }
    let h = tangled_crypto::sha256::sha256(&fp);
    let base = ReferenceStore::for_version(ver).cached();
    let mut store = base.cloned_as(&format!(
        "{} {} firmware (+{}) [{:02x}{:02x}{:02x}{:02x}]",
        mfr.label(),
        ver.label(),
        count,
        h[0],
        h[1],
        h[2],
        h[3]
    ));
    {
        let mut factory = global_factory().lock().expect("factory poisoned");
        for &i in &chosen {
            let extra = &index.all()[i];
            let source = if extra
                .installers
                .iter()
                .any(|(row, _)| matches!(row, Figure2Row::Op(_)))
            {
                AnchorSource::Operator
            } else {
                AnchorSource::Manufacturer
            };
            store.add_cert(mint_extra(&mut factory, extra), source);
        }
    }
    let store = Arc::new(store);
    cache.stores.insert(key, Arc::clone(&store));
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn stock_devices_share_the_reference_store() {
        let index = ExtrasIndex::new();
        let mut cache = FirmwareCache::new();
        let mut rng = StdRng::seed_from_u64(1);
        // ASUS is 85% stock: drawing a few devices must hit the cached
        // AOSP store object for the stock ones.
        let mut stock = 0;
        for _ in 0..50 {
            let s = compose_with_count(
                &index,
                &mut cache,
                Manufacturer::Asus,
                AndroidVersion::V4_3,
                Operator::Other,
                draw_addition_count(Manufacturer::Asus, AndroidVersion::V4_3, &mut rng),
            );
            if s.len() == 146 {
                stock += 1;
                assert!(Arc::ptr_eq(&s, &ReferenceStore::Aosp43.cached()));
            }
        }
        assert!(stock > 30, "most ASUS devices are stock, got {stock}");
    }

    #[test]
    fn heavy_rows_produce_big_bundles() {
        let index = ExtrasIndex::new();
        let mut cache = FirmwareCache::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mut big = 0;
        let n = 200;
        for _ in 0..n {
            let s = compose_with_count(
                &index,
                &mut cache,
                Manufacturer::Htc,
                AndroidVersion::V4_1,
                Operator::ThreeUk,
                draw_addition_count(Manufacturer::Htc, AndroidVersion::V4_1, &mut rng),
            );
            let additions = s.len() - 139;
            if additions > 40 {
                big += 1;
            }
        }
        // Paper: >10% of such devices exceed 40 additions (we calibrate ~40%).
        assert!(
            big as f64 / n as f64 > 0.10,
            "expected >10% big bundles, got {big}/{n}"
        );
    }

    #[test]
    fn near_stock_rows_stay_below_10() {
        let index = ExtrasIndex::new();
        let mut cache = FirmwareCache::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let s = compose_with_count(
                &index,
                &mut cache,
                Manufacturer::Motorola,
                AndroidVersion::V4_4,
                Operator::VerizonUs,
                draw_addition_count(Manufacturer::Motorola, AndroidVersion::V4_4, &mut rng),
            );
            assert!(s.len() - 150 < 10, "Motorola 4.4 must stay near stock");
        }
    }

    #[test]
    fn verizon_motorola_41_gets_certisign() {
        // §5.1: CertiSign and ptt-post on Verizon Motorola 4.1 devices.
        let index = ExtrasIndex::new();
        let mut cache = FirmwareCache::new();
        let mut rng = StdRng::seed_from_u64(4);
        let mut certisign_devices = 0;
        let mut extended = 0;
        for _ in 0..100 {
            let s = compose_with_count(
                &index,
                &mut cache,
                Manufacturer::Motorola,
                AndroidVersion::V4_1,
                Operator::VerizonUs,
                draw_addition_count(Manufacturer::Motorola, AndroidVersion::V4_1, &mut rng),
            );
            if s.len() > 139 {
                extended += 1;
                if s.iter().any(|a| a.cert.subject.to_string().contains("Certisign")) {
                    certisign_devices += 1;
                }
            }
        }
        assert!(extended > 50);
        assert!(
            certisign_devices * 2 > extended,
            "most extended Verizon Moto 4.1 devices carry Certisign: {certisign_devices}/{extended}"
        );
    }

    #[test]
    fn firmware_images_are_shared() {
        let index = ExtrasIndex::new();
        let mut cache = FirmwareCache::new();
        let mut rng = StdRng::seed_from_u64(5);
        let mut images = std::collections::HashSet::new();
        for _ in 0..300 {
            let s = compose_with_count(
                &index,
                &mut cache,
                Manufacturer::Samsung,
                AndroidVersion::V4_4,
                Operator::TmobileUs,
                draw_addition_count(Manufacturer::Samsung, AndroidVersion::V4_4, &mut rng),
            );
            images.insert(Arc::as_ptr(&s));
        }
        // Addition counts cluster, so images are far fewer than devices.
        assert!(images.len() < 60);
    }

    #[test]
    fn extras_index_covers_catalogue() {
        let index = ExtrasIndex::new();
        assert_eq!(index.all().len(), 104);
        let cands = index.candidates(
            Manufacturer::Htc,
            AndroidVersion::V4_1,
            Operator::AttUs,
        );
        assert_eq!(cands.len(), 104, "candidates cover the whole catalogue");
        // First candidates are HTC-row extras.
        let first = &index.all()[cands[0]];
        assert!(first
            .installers
            .iter()
            .any(|(r, _)| *r == Figure2Row::Mfr(Manufacturer::Htc, AndroidVersion::V4_1)));
    }
}
