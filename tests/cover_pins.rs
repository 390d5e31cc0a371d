//! Digest pins of the covers every mapping campaign starts from.
//!
//! A cover's cube order is the function matrix's row order, and HBA's
//! greedy placement walks rows in that order, so two covers of the same
//! function with their cubes reordered give different Table II counts.
//! These pins freeze the exact text of every registry circuit's mapping
//! cover and of the Fig. 6 random covers, so a change to the minimizer
//! or the twin generators that reorders a single cube fails here before
//! it moves a golden statistic.

use memristive_xbar_repro::logic::bench_reg::registry;
use memristive_xbar_repro::logic::RandomSopSpec;

/// 64-bit FNV-1a.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(circuit, seed, digest of mapping_cover(seed).to_string())`.
const MAPPING_COVERS: &[(&str, u64, u64)] = &[
    ("rd53", 2018, 0x210b_196b_f7d6_4e29),
    ("rd53", 5, 0x210b_196b_f7d6_4e29),
    ("squar5", 2018, 0xcc9c_08b7_39b7_d575),
    ("squar5", 5, 0xcc9c_08b7_39b7_d575),
    ("bw", 2018, 0xcaf8_4551_6112_dc68),
    ("bw", 5, 0x5aa2_5388_8256_1e32),
    ("inc", 2018, 0x7fe6_85aa_d80f_6fa7),
    ("inc", 5, 0x5c5d_932c_ded4_ce00),
    ("misex1", 2018, 0x8dab_f43b_898c_9803),
    ("misex1", 5, 0x297d_49ae_bc3c_6da7),
    ("sqrt8", 2018, 0x0c98_d073_f3cf_9ab0),
    ("sqrt8", 5, 0x0c98_d073_f3cf_9ab0),
    ("sao2", 2018, 0x2e17_331f_7566_f42d),
    ("sao2", 5, 0x5076_bc39_7cf6_a7f7),
    ("rd73", 2018, 0xa65d_f090_4d87_df21),
    ("rd73", 5, 0xa65d_f090_4d87_df21),
    ("clip", 2018, 0x52a7_e4a6_4a54_08fa),
    ("clip", 5, 0x14ca_4aef_91c0_3723),
    ("rd84", 2018, 0x94b3_d0c8_92d5_7c95),
    ("rd84", 5, 0x94b3_d0c8_92d5_7c95),
    ("ex1010", 2018, 0x162a_1a59_d02f_2f0a),
    ("ex1010", 5, 0x0ce0_1643_19a5_4466),
    ("table3", 2018, 0x7a4a_2f17_5599_cf58),
    ("table3", 5, 0xa3b4_644b_2c65_1a97),
    ("misex3c", 2018, 0x1679_1b59_efa8_a5a7),
    ("misex3c", 5, 0xb5ad_d88f_a646_bb3a),
    ("exp5", 2018, 0x9ac7_d63d_6d23_0fc4),
    ("exp5", 5, 0xce47_5162_9439_e797),
    ("apex4", 2018, 0x781b_ac77_6b27_971c),
    ("apex4", 5, 0xeaa4_cb88_6310_0fa0),
    ("alu4", 2018, 0x03d4_34d6_325d_dc03),
    ("alu4", 5, 0xc850_8635_97b8_22f5),
    ("con1", 2018, 0xa7b9_3734_67b4_8d17),
    ("con1", 5, 0x7fba_06ff_24df_dd03),
    ("b12", 2018, 0xc453_b7e5_a4df_ef2f),
    ("b12", 5, 0x382d_1d32_96ac_dc0f),
    ("t481", 2018, 0x445f_8990_b539_76fe),
    ("t481", 5, 0xa76a_26e1_7cd8_5af7),
    ("cordic", 2018, 0xb730_4fe4_06e1_4a9b),
    ("cordic", 5, 0xb5e9_f523_74c8_b624),
];

/// `(inputs, products, digest of figure6(inputs, products)
/// .generate_seeded(2018).to_string())`.
const FIGURE6_COVERS: &[(usize, usize, u64)] = &[
    (8, 2, 0x989f_d6cd_bd6f_5c43),
    (8, 7, 0x86ad_72ec_904a_4714),
    (9, 2, 0x4817_f322_e573_d2a0),
    (9, 8, 0xfa87_7d59_57f9_1f5b),
    (10, 2, 0x26cd_dbb5_082f_c761),
    (10, 9, 0x24e6_6695_c0a8_35be),
    (15, 2, 0x1ad6_2e2f_d4ee_bef1),
    (15, 14, 0x3fa5_5d47_beed_2aaf),
];

#[test]
fn fnv1a_64_matches_the_reference_vectors() {
    assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn registry_mapping_covers_are_pinned() {
    let mut found = Vec::new();
    for info in registry() {
        for seed in [2018, 5] {
            let digest = fnv1a_64(info.mapping_cover(seed).to_string().as_bytes());
            found.push((info.name, seed, digest));
        }
    }
    assert_eq!(found, MAPPING_COVERS, "a registry mapping cover changed");
}

#[test]
fn figure6_random_covers_are_pinned() {
    let mut found = Vec::new();
    for n in [8, 9, 10, 15] {
        for p in [2, n - 1] {
            let cover = RandomSopSpec::figure6(n, p).generate_seeded(2018);
            found.push((n, p, fnv1a_64(cover.to_string().as_bytes())));
        }
    }
    assert_eq!(found, FIGURE6_COVERS, "a Fig. 6 random cover changed");
}
