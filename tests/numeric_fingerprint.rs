//! Output fingerprint: a short serial GraphRARE run per backbone must
//! reproduce fixed result bits.
//!
//! Each case runs `graphrare::run` for a few steps on one generated
//! heterophilic graph with 96 sparse bag-of-words features and asserts
//! the exact bits of `test_acc` and `best_val_acc`, plus a CRC-32 of the
//! little-endian bytes of `model_params` (what `--save-model` persists).
//! A kernel or autograd change that is meant to be byte-identical keeps
//! every constant; one that legitimately changes the float summation
//! order must update them and say why in CHANGES.md.

use graphrare::{run, GraphRareConfig};
use graphrare_datasets::{generate_spec, stratified_split, DatasetSpec};
use graphrare_gnn::Backbone;
use graphrare_store::crc32;

fn params_crc(params: &[graphrare_tensor::Matrix]) -> u32 {
    let bytes: Vec<u8> =
        params.iter().flat_map(|m| m.as_slice().iter().flat_map(|x| x.to_le_bytes())).collect();
    crc32(&bytes)
}

/// `(backbone, test_acc bits, best_val_acc bits, model_params CRC-32)`.
const EXPECTED: [(Backbone, u64, u64, u32); 5] = [
    (Backbone::Mlp, 0x3fe2aaaaaaaaaaab, 0x3fe2aaaaaaaaaaab, 0x780034ee),
    (Backbone::Gcn, 0x3fe2aaaaaaaaaaab, 0x3fdaaaaaaaaaaaab, 0xdd3cc625),
    (Backbone::Sage, 0x3fe2aaaaaaaaaaab, 0x3fe8000000000000, 0x1cebdbf1),
    (Backbone::Gat, 0x3fd5555555555555, 0x3fe0000000000000, 0xc8df78cc),
    (Backbone::H2gcn, 0x3fdaaaaaaaaaaaab, 0x3fe5555555555555, 0x58f08c5c),
];

#[test]
fn every_backbone_reproduces_its_fingerprint() {
    let spec = DatasetSpec {
        name: "fingerprint",
        num_nodes: 72,
        num_edges: 160,
        feat_dim: 96,
        num_classes: 3,
        homophily: 0.15,
        degree_exponent: 0.4,
        feature_signal: 0.3,
        feature_density: 0.06,
    };
    let g = generate_spec(&spec, 5);
    let split = stratified_split(g.labels(), g.num_classes(), 0);
    let mut cfg = GraphRareConfig::fast().with_seed(17);
    cfg.steps = 6;
    cfg.update_every = 3;
    cfg.threads = 1;
    let mut got = Vec::new();
    for (backbone, ..) in EXPECTED {
        let report = run(&g, &split, backbone, &cfg).expect("run");
        got.push((
            backbone,
            report.test_acc.to_bits(),
            report.best_val_acc.to_bits(),
            params_crc(&report.model_params),
        ));
    }
    let render = |rows: &[(Backbone, u64, u64, u32)]| -> String {
        rows.iter()
            .map(|(b, t, v, c)| {
                format!("    (Backbone::{b:?}, {t:#018x}, {v:#018x}, {c:#010x}),\n")
            })
            .collect()
    };
    assert_eq!(got.as_slice(), EXPECTED.as_slice(), "fingerprint changed; got:\n{}", render(&got));
}
