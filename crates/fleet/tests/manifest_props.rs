//! Property tests for manifest expansion: deterministic,
//! duplicate-free, declaration-order-insensitive, with per-home seeds
//! that are a pure function of `(fleet_seed, home_index)` — never of
//! thread count or enumeration order.

use proptest::prelude::*;
use rivulet_fleet::manifest::derive_home_seed;
use rivulet_fleet::FleetManifest;

/// The axis catalog random manifests draw from: every entry is a
/// `[base]` key with a pool of legal values (as manifest literals).
const AXIS_POOL: [(&str, &[&str]); 6] = [
    ("loss", &["0.0", "0.05", "0.2"]),
    ("durable", &["false", "true"]),
    ("processes", &["3", "4", "5"]),
    ("event_bytes", &["4", "8", "1024"]),
    ("rate_per_sec", &["5", "10", "20"]),
    ("crash_at_secs", &["-1.0", "2.0", "4.5"]),
];

/// Builds manifest text with the chosen axes, optionally reversing the
/// axis declaration order.
fn manifest_text(
    seed: u64,
    homes_per_config: usize,
    axis_mask: u8,
    value_counts: &[usize; 6],
    reversed: bool,
) -> String {
    let mut axes: Vec<String> = AXIS_POOL
        .iter()
        .enumerate()
        .filter(|(i, _)| axis_mask & (1 << i) != 0)
        .map(|(i, (key, pool))| {
            let n = value_counts[i].clamp(1, pool.len());
            format!("{key} = [{}]", pool[..n].join(", "))
        })
        .collect();
    if reversed {
        axes.reverse();
    }
    format!(
        "[fleet]\nname = \"prop\"\nseed = {seed}\nhomes_per_config = {homes_per_config}\n\n\
         [base]\nprocesses = 3\nduration_secs = 2.0\n\n[axes]\n{}\n",
        axes.join("\n")
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn expansion_is_deterministic_and_duplicate_free(
        seed in any::<u64>(),
        homes_per_config in 1usize..4,
        axis_mask in 0u8..64,
        c0 in 1usize..4, c1 in 1usize..4, c2 in 1usize..4, c3 in 1usize..4,
        c4 in 1usize..4, c5 in 1usize..4,
    ) {
        let counts = [c0, c1, c2, c3, c4, c5];
        let text = manifest_text(seed, homes_per_config, axis_mask, &counts, false);
        let manifest = FleetManifest::from_text(&text).expect("pool values are all legal");

        // Deterministic: two expansions are identical.
        let specs = manifest.expand().unwrap();
        prop_assert_eq!(&specs, &manifest.expand().unwrap());

        // Size = product of axis lengths x replicas; indices contiguous.
        prop_assert_eq!(specs.len(), manifest.fleet_size());
        for (i, spec) in specs.iter().enumerate() {
            prop_assert_eq!(spec.home_index, i as u64);
            // Seeds are a pure function of (fleet_seed, home_index).
            prop_assert_eq!(spec.seed, derive_home_seed(seed, i as u64));
        }

        // Duplicate-free: every home's identity (index, seed) is
        // unique, and within one replica group only the seed differs.
        let mut seeds: Vec<u64> = specs.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        let before = seeds.len();
        seeds.dedup();
        prop_assert_eq!(seeds.len(), before, "derived seeds collided");

        // Every permutation of axis values appears exactly
        // homes_per_config times.
        let mut combos: Vec<Vec<(String, String)>> =
            specs.iter().map(|s| s.axis_values.clone()).collect();
        combos.sort();
        combos.dedup();
        prop_assert_eq!(combos.len() * homes_per_config, specs.len());
    }

    #[test]
    fn expansion_ignores_declaration_order(
        seed in any::<u64>(),
        axis_mask in 1u8..64,
        c0 in 1usize..4, c1 in 1usize..4, c2 in 1usize..4, c3 in 1usize..4,
        c4 in 1usize..4, c5 in 1usize..4,
    ) {
        let counts = [c0, c1, c2, c3, c4, c5];
        let forward = manifest_text(seed, 2, axis_mask, &counts, false);
        let backward = manifest_text(seed, 2, axis_mask, &counts, true);
        let a = FleetManifest::from_text(&forward).unwrap();
        let b = FleetManifest::from_text(&backward).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a.expand().unwrap(), &b.expand().unwrap());
    }

    #[test]
    fn seeds_are_stable_under_any_enumeration_order(
        fleet_seed in any::<u64>(),
        n in 1u64..512,
    ) {
        // Forward, backward, and strided enumeration all agree: the
        // derivation depends only on (fleet_seed, index), which is
        // what makes per-home seeds independent of worker scheduling.
        let forward: Vec<u64> = (0..n).map(|i| derive_home_seed(fleet_seed, i)).collect();
        let backward: Vec<u64> = (0..n).rev().map(|i| derive_home_seed(fleet_seed, i)).collect();
        for (i, seed) in forward.iter().enumerate() {
            prop_assert_eq!(*seed, backward[n as usize - 1 - i]);
        }
        let mut uniq = forward.clone();
        uniq.sort_unstable();
        uniq.dedup();
        prop_assert_eq!(uniq.len(), n as usize, "seed collision within a fleet");
    }
}
