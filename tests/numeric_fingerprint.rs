//! Output fingerprint: a short serial GraphRARE run per backbone and
//! rewiring strategy must reproduce fixed result bits, and the entropy
//! rankings of larger graphs must reproduce a fixed checksum.
//!
//! Each run case calls `graphrare::run` for a few steps on one generated
//! heterophilic graph with 96 sparse bag-of-words features and asserts
//! the exact bits of `test_acc` and `best_val_acc`, a CRC-32 of the
//! little-endian bytes of `model_params` (what `--save-model` persists),
//! a CRC-32 of the per-step training and validation accuracy traces,
//! and a CRC-32 of every PPO update's diagnostics. The last one pins the
//! update's own arithmetic: a last-bit change in the policy rarely flips
//! a sampled action, so it seldom reaches the other columns.
//! The refresh-mode cases run GCN with the entropy sequences re-ranked
//! every few steps, and also CRC-32 the optimised graph's edge list.
//! The ranking cases CRC-32 every node's addition and deletion rankings,
//! which covers both sides of the feature-entropy range switch (exact
//! below 1,200 nodes, sampled above), a graph whose feature range is
//! degenerate, the `drl-loop` benchmark shape under both candidate pools,
//! and signed features where most pairs share no nonzero column.
//! A kernel or autograd change that is meant to be byte-identical keeps
//! every constant; one that legitimately changes the float summation
//! order must update them and say why in CHANGES.md.

use graphrare::{run, GraphRareConfig, RewirerKind, RunTraces};
use graphrare_datasets::{generate_spec, stratified_split, Dataset, DatasetSpec, Split};
use graphrare_entropy::{
    CandidatePool, EntropySequences, RelativeEntropyConfig, RelativeEntropyTable, SequenceConfig,
};
use graphrare_gnn::Backbone;
use graphrare_graph::Graph;
use graphrare_store::crc32;
use graphrare_tensor::Matrix;

fn params_crc(params: &[graphrare_tensor::Matrix]) -> u32 {
    let bytes: Vec<u8> =
        params.iter().flat_map(|m| m.as_slice().iter().flat_map(|x| x.to_le_bytes())).collect();
    crc32(&bytes)
}

/// CRC-32 of the per-step training accuracies then validation accuracies,
/// as little-endian `f64` bits.
fn traces_crc(traces: &RunTraces) -> u32 {
    let bytes: Vec<u8> = traces
        .train_acc
        .iter()
        .chain(&traces.val_acc)
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect();
    crc32(&bytes)
}

/// CRC-32 of each PPO update's policy loss, value loss, entropy and
/// approximate KL, in update order, as little-endian `f32` bits. A
/// heuristic strategy records no update, so its CRC is that of no bytes.
fn ppo_stats_crc(traces: &RunTraces) -> u32 {
    let bytes: Vec<u8> = traces
        .ppo_stats
        .iter()
        .flat_map(|s| [s.policy_loss, s.value_loss, s.entropy, s.approx_kl])
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect();
    crc32(&bytes)
}

/// `(backbone, rewirer, test_acc bits, best_val_acc bits, model_params
/// CRC-32, traces CRC-32, PPO stats CRC-32)`.
#[rustfmt::skip]
const EXPECTED: [(Backbone, RewirerKind, u64, u64, u32, u32, u32); 7] = [
    (Backbone::Mlp, RewirerKind::Ppo, 0x3fe2aaaaaaaaaaab, 0x3fe2aaaaaaaaaaab, 0x780034ee, 0x5abe916f, 0x9d99e13b),
    (Backbone::Gcn, RewirerKind::Ppo, 0x3fe2aaaaaaaaaaab, 0x3fdaaaaaaaaaaaab, 0xdd3cc625, 0x3e18d0bc, 0x698357ff),
    (Backbone::Sage, RewirerKind::Ppo, 0x3fe2aaaaaaaaaaab, 0x3fe8000000000000, 0x1cebdbf1, 0x3deb9b65, 0xecd41133),
    (Backbone::Gat, RewirerKind::Ppo, 0x3fd5555555555555, 0x3fe0000000000000, 0xc8df78cc, 0x7e4bf033, 0x7bf5803f),
    (Backbone::H2gcn, RewirerKind::Ppo, 0x3fdaaaaaaaaaaaab, 0x3fe5555555555555, 0x58f08c5c, 0x7b560826, 0xe8b8e3b4),
    (Backbone::Gcn, RewirerKind::Dhgr, 0x3fdaaaaaaaaaaaab, 0x3fdaaaaaaaaaaaab, 0x28e61c7e, 0xb2cef36c, 0x00000000),
    (Backbone::Gcn, RewirerKind::Reference, 0x3fe0000000000000, 0x3fdaaaaaaaaaaaab, 0xcf74d57a, 0x0425f200, 0x00000000),
];

/// The 72-node graph, its split and the 6-step serial config every run
/// case shares.
fn run_fixture() -> (Graph, Split, GraphRareConfig) {
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
    (g, split, cfg)
}

#[test]
fn every_backbone_reproduces_its_fingerprint() {
    let (g, split, mut cfg) = run_fixture();
    let mut got = Vec::new();
    for (backbone, rewirer, ..) in EXPECTED {
        cfg.rewirer = rewirer;
        let report = run(&g, &split, backbone, &cfg).expect("run");
        got.push((
            backbone,
            rewirer,
            report.test_acc.to_bits(),
            report.best_val_acc.to_bits(),
            params_crc(&report.model_params),
            traces_crc(&report.traces),
            ppo_stats_crc(&report.traces),
        ));
    }
    let render = |rows: &[(Backbone, RewirerKind, u64, u64, u32, u32, u32)]| -> String {
        rows.iter()
            .map(|(b, r, t, v, c, tc, pc)| {
                format!(
                    "    (Backbone::{b:?}, RewirerKind::{r:?}, {t:#018x}, {v:#018x}, {c:#010x}, \
                     {tc:#010x}, {pc:#010x}),\n"
                )
            })
            .collect()
    };
    assert_eq!(got.as_slice(), EXPECTED.as_slice(), "fingerprint changed; got:\n{}", render(&got));
}

/// `(rewirer, entropy_refresh_every, test_acc bits, best_val_acc bits,
/// model_params CRC-32, CRC-32 of the optimised graph's edge list, traces
/// CRC-32, PPO stats CRC-32)`.
type RefreshRow = (RewirerKind, usize, u64, u64, u32, u32, u32, u32);

#[rustfmt::skip]
const EXPECTED_REFRESH: [RefreshRow; 2] = [
    (RewirerKind::Ppo, 2, 0x3fe0000000000000, 0x3fdaaaaaaaaaaaab, 0x41427131, 0x90031d3c, 0xb2cef36c, 0x1c9fc482),
    (RewirerKind::Dhgr, 3, 0x3fd5555555555555, 0x3fdaaaaaaaaaaaab, 0xc182f8ca, 0xcbe7411f, 0xb2cef36c, 0x00000000),
];

/// CRC-32 of an edge list as little-endian `u64` endpoint pairs.
fn edges_crc(edges: &[(usize, usize)]) -> u32 {
    let bytes: Vec<u8> = edges
        .iter()
        .flat_map(|&(u, v)| [u as u64, v as u64])
        .flat_map(|x| x.to_le_bytes())
        .collect();
    crc32(&bytes)
}

#[test]
fn refresh_mode_reproduces_its_fingerprint() {
    // GCN on the run cases' graph, with the entropy sequences re-ranked
    // against the rewired graph every `entropy_refresh_every` steps.
    let (g, split, mut cfg) = run_fixture();
    let mut got = Vec::new();
    for (rewirer, every, ..) in EXPECTED_REFRESH {
        cfg.rewirer = rewirer;
        cfg.entropy_refresh_every = every;
        let report = run(&g, &split, Backbone::Gcn, &cfg).expect("run");
        got.push((
            rewirer,
            every,
            report.test_acc.to_bits(),
            report.best_val_acc.to_bits(),
            params_crc(&report.model_params),
            edges_crc(&report.optimized_graph.edge_vec()),
            traces_crc(&report.traces),
            ppo_stats_crc(&report.traces),
        ));
    }
    let render: String = got
        .iter()
        .map(|(r, e, t, v, c, ec, tc, pc)| {
            format!(
                "    (RewirerKind::{r:?}, {e}, {t:#018x}, {v:#018x}, {c:#010x}, {ec:#010x}, \
                 {tc:#010x}, {pc:#010x}),\n"
            )
        })
        .collect();
    assert_eq!(
        got.as_slice(),
        EXPECTED_REFRESH.as_slice(),
        "refresh fingerprint changed; got:\n{render}"
    );
}

/// CRC-32 of every node's addition then deletion ranking, as
/// little-endian `u32` id and `f32` entropy bits, nodes in order.
fn rankings_crc(seqs: &EntropySequences) -> u32 {
    let mut bytes = Vec::new();
    for v in 0..seqs.len() {
        for &(u, h) in seqs.additions(v).iter().chain(seqs.deletions(v)) {
            bytes.extend(u.to_le_bytes());
            bytes.extend(h.to_bits().to_le_bytes());
        }
    }
    crc32(&bytes)
}

fn ranking_graph(nodes: usize, seed: u64) -> graphrare_graph::Graph {
    let spec = DatasetSpec {
        name: "ranking-fingerprint",
        num_nodes: nodes,
        num_edges: 2 * nodes,
        feat_dim: 32,
        num_classes: 4,
        homophily: 0.2,
        degree_exponent: 0.4,
        feature_signal: 0.3,
        feature_density: 0.1,
    };
    generate_spec(&spec, seed)
}

/// `g`'s topology and labels over other features.
fn with_features(g: &graphrare_graph::Graph, features: Matrix) -> graphrare_graph::Graph {
    graphrare_graph::Graph::from_edges(
        g.num_nodes(),
        &g.edge_vec(),
        features,
        g.labels().to_vec(),
        g.num_classes(),
    )
}

#[test]
fn entropy_rankings_reproduce_their_fingerprint() {
    // 1,300 nodes: the exact pair scan's range switches to the sampled
    // one above 1,200 nodes. 1,600 nodes: sampled on every side. The
    // third graph's feature rows are all equal, so its range is
    // degenerate and every pair's feature entropy is 0.
    let flat =
        with_features(&ranking_graph(300, 3), Matrix::from_fn(300, 32, |_, c| (c % 3) as f32));
    // The `drl-loop` benchmark shape: its 3-hop rings cover nearly every
    // node, so each node ranks hundreds of candidates for 16 slots.
    let drl = generate_spec(&Dataset::Chameleon.spec().scaled(600, 128), 1);
    // At most two signed nonzeros per row out of 32 columns: most pairs
    // share no nonzero column and their feature dot is exactly zero.
    let signed = with_features(
        &ranking_graph(300, 4),
        Matrix::from_fn(300, 32, |r, c| {
            if c == r % 32 {
                if (r / 32) % 2 == 0 {
                    1.5
                } else {
                    -1.5
                }
            } else if c == (7 * r + 3) % 32 {
                if r % 3 == 0 {
                    -0.75
                } else {
                    0.5
                }
            } else {
                0.0
            }
        }),
    );
    let ring = SequenceConfig::default();
    let sample = SequenceConfig {
        pool: CandidatePool::GlobalSample { per_node: 64, seed: 0x5EED },
        ..SequenceConfig::default()
    };
    let cases = [
        (ranking_graph(1300, 1), 0.1, ring),
        (ranking_graph(1600, 2), 10.0, ring),
        (flat, 1.0, ring),
        (drl.clone(), 1.0, ring),
        (drl, 1.0, sample),
        (signed, 1.0, ring),
    ];
    let got: Vec<u32> = cases
        .iter()
        .map(|(g, lambda, seq_cfg)| {
            let cfg = RelativeEntropyConfig { lambda: *lambda };
            let table = RelativeEntropyTable::new(g, &cfg);
            rankings_crc(&EntropySequences::build(g, &table, seq_cfg))
        })
        .collect();
    let want: [u32; 6] = [0x7410f318, 0xfb9bd808, 0x809a14b3, 0x5db61f54, 0xad5957e0, 0xf67ce563];
    assert_eq!(got, want, "ranking fingerprint changed; got {got:#010x?}");
}
