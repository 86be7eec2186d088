//! Property-based tests of the entropy equations over arbitrary graphs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use graphrare_entropy::structural::{degree_distribution, js_divergence, structural_entropy};
use graphrare_entropy::{
    CandidatePool, EntropySequences, RelativeEntropyConfig, RelativeEntropyTable, SequenceConfig,
};
use graphrare_graph::{traversal, Graph};
use graphrare_tensor::Matrix;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..14, any::<u64>()).prop_flat_map(|(n, seed)| {
        proptest::collection::vec((0..n, 0..n), 0..28).prop_map(move |pairs| {
            let mut rng = StdRng::seed_from_u64(seed);
            let features = Matrix::from_fn(n, 5, |_, _| if rng.gen_bool(0.3) { 1.0 } else { 0.0 });
            let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
            Graph::from_edges(n, &pairs, features, labels, 2)
        })
    })
}

/// Graphs whose rows mix signed sparse features, all-zero rows and
/// signed one-hot rows, so that many pairs share no nonzero column.
fn arb_signed_graph() -> impl Strategy<Value = Graph> {
    (3usize..24, 1usize..7, any::<u64>()).prop_map(|(n, f, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let values = [-2.0f32, -1.0, -0.5, 0.25, 1.0, 3.0];
        let mut features = Matrix::zeros(n, f);
        for v in 0..n {
            match rng.gen_range(0..3) {
                0 => {}
                1 => features.set(v, rng.gen_range(0..f), values[rng.gen_range(0..values.len())]),
                _ => {
                    for c in 0..f {
                        if rng.gen_bool(0.4) {
                            features.set(v, c, values[rng.gen_range(0..values.len())]);
                        }
                    }
                }
            }
        }
        let edges: Vec<(usize, usize)> = (0..rng.gen_range(0..2 * n))
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        Graph::from_edges(n, &edges, features, labels, 2)
    })
}

/// The dense `f64` feature dot: every column, summed by
/// `Iterator::sum`.
fn dense_dot(x: &Matrix, v: usize, u: usize) -> f64 {
    let (a, b) = (x.row(v), x.row(u));
    a.iter().zip(b).map(|(&x, &y)| (x as f64) * (y as f64)).sum()
}

type Ranking = Vec<(u32, f32)>;

/// Reference rankings: the exact min–max range over all off-diagonal
/// dense dots, `H` for every candidate, a full sort, then truncation.
/// The candidate pool is the remote ring for [`CandidatePool::RemoteRing`]
/// and the ids an untruncated build ranks for the sampled pool.
fn oracle_rankings(g: &Graph, lambda: f64, cfg: &SequenceConfig) -> Vec<(Ranking, Ranking)> {
    let n = g.num_nodes();
    let x = g.features().to_dense();
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for v in 0..n {
        for u in (v + 1)..n {
            let d = dense_dot(&x, v, u);
            lo = lo.min(d);
            hi = hi.max(d);
        }
    }
    let (offset, scale) = if !lo.is_finite() || !hi.is_finite() || hi - lo < 1e-300 {
        (0.0, 0.0)
    } else {
        (lo, 1.0 / (hi - lo))
    };
    let h = |v: usize, u: usize| -> f32 {
        let hf = ((dense_dot(&x, v, u) - offset) * scale).clamp(0.0, 1.0);
        (hf + lambda * structural_entropy(g, v, u)) as f32
    };
    let untruncated = match cfg.pool {
        CandidatePool::RemoteRing { .. } => None,
        CandidatePool::GlobalSample { .. } => {
            let table = RelativeEntropyTable::new(g, &RelativeEntropyConfig { lambda });
            let all = SequenceConfig { max_additions: n, ..*cfg };
            Some(EntropySequences::build(g, &table, &all))
        }
    };
    (0..n)
        .map(|v| {
            let pool: Vec<usize> = match (&untruncated, cfg.pool) {
                (None, CandidatePool::RemoteRing { hops }) => traversal::remote_ring(g, v, hops),
                (Some(all), _) => all.additions(v).iter().map(|&(u, _)| u as usize).collect(),
                (None, CandidatePool::GlobalSample { .. }) => unreachable!(),
            };
            let mut adds: Vec<(u32, f32)> = pool.iter().map(|&u| (u as u32, h(v, u))).collect();
            adds.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            adds.truncate(cfg.max_additions);
            let mut dels: Vec<(u32, f32)> = g.neighbors(v).map(|u| (u as u32, h(v, u))).collect();
            dels.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            (adds, dels)
        })
        .collect()
}

fn bits(list: &[(u32, f32)]) -> Vec<(u32, u32)> {
    list.iter().map(|&(u, h)| (u, h.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sequences equal the reference rankings bit for bit, for every
    /// λ (negative and NaN included), both pools and several list sizes.
    #[test]
    fn sequences_match_the_dense_full_sort_oracle(g in arb_signed_graph()) {
        let pools = [
            CandidatePool::RemoteRing { hops: 3 },
            CandidatePool::GlobalSample { per_node: 6, seed: 9 },
        ];
        for lambda in [-1.0, 0.0, 0.1, 1.0, 10.0, f64::NAN] {
            let table = RelativeEntropyTable::new(&g, &RelativeEntropyConfig { lambda });
            for pool in pools {
                for max_additions in [1, 4, 16] {
                    let cfg = SequenceConfig { pool, max_additions };
                    let got = EntropySequences::build(&g, &table, &cfg);
                    for (v, (adds, dels)) in oracle_rankings(&g, lambda, &cfg).iter().enumerate() {
                        prop_assert_eq!(
                            bits(got.additions(v)), bits(adds),
                            "additions of {} (lambda {}, {:?}, m {})", v, lambda, pool, max_additions
                        );
                        prop_assert_eq!(bits(got.deletions(v)), bits(dels), "deletions of {}", v);
                    }
                }
            }
        }
    }

    /// Degree distributions are valid probability vectors, descending.
    #[test]
    fn degree_distributions_are_descending_distributions(g in arb_graph()) {
        for v in 0..g.num_nodes() {
            let p = degree_distribution(&g, v);
            let sum: f64 = p.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "node {v} sums to {sum}");
            prop_assert!(p.windows(2).all(|w| w[0] >= w[1]), "node {v} not descending");
            prop_assert!(p.iter().all(|&x| x >= 0.0));
        }
    }

    /// JS divergence is a bounded symmetric divergence.
    #[test]
    fn js_divergence_axioms(
        p_raw in proptest::collection::vec(0.0f64..1.0, 1..8),
        q_raw in proptest::collection::vec(0.0f64..1.0, 1..8),
    ) {
        let norm = |v: &[f64]| -> Vec<f64> {
            let s: f64 = v.iter().sum();
            if s == 0.0 {
                let mut out = vec![0.0; v.len()];
                out[0] = 1.0;
                out
            } else {
                v.iter().map(|x| x / s).collect()
            }
        };
        let p = norm(&p_raw);
        let q = norm(&q_raw);
        let js = js_divergence(&p, &q);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&js), "JS = {js}");
        prop_assert!((js - js_divergence(&q, &p)).abs() < 1e-12);
        prop_assert!(js_divergence(&p, &p).abs() < 1e-12);
    }

    /// The combined metric is symmetric, finite and monotone in λ for
    /// structurally identical pairs.
    #[test]
    fn relative_entropy_lambda_monotonicity(g in arb_graph()) {
        let low = RelativeEntropyTable::new(
            &g,
            &RelativeEntropyConfig { lambda: 0.1 },
        );
        let high = RelativeEntropyTable::new(
            &g,
            &RelativeEntropyConfig { lambda: 10.0 },
        );
        for v in 0..g.num_nodes() {
            for u in 0..g.num_nodes() {
                // H_s >= 0, so raising λ can never lower the total.
                prop_assert!(high.entropy(v, u) >= low.entropy(v, u) - 1e-9);
            }
        }
    }

    /// Sequence construction is deterministic and stable under rebuild.
    #[test]
    fn sequences_are_stable(g in arb_graph()) {
        let t = RelativeEntropyTable::new(&g, &RelativeEntropyConfig::default());
        let a = EntropySequences::build(&g, &t, &SequenceConfig::default());
        let b = EntropySequences::build(&g, &t, &SequenceConfig::default());
        for v in 0..g.num_nodes() {
            prop_assert_eq!(a.additions(v), b.additions(v));
            prop_assert_eq!(a.deletions(v), b.deletions(v));
        }
    }
}
