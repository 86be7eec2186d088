//! Synthetic graph generation matched to a [`DatasetSpec`].
//!
//! The generator is a label-aware, degree-corrected stochastic block model:
//!
//! 1. Labels are assigned in (near-)balanced fashion and shuffled.
//! 2. Each node receives a degree propensity `w_i ∝ u_i^{-α}` (power law
//!    with exponent `α = degree_exponent`; `α = 0` is uniform).
//! 3. Edges are sampled endpoint-by-endpoint: the first endpoint is drawn
//!    by propensity, the second from the same class with probability `H`
//!    and from a different class otherwise, again by propensity. This makes
//!    the expected edge homophily equal `H` (Eq. 1) by construction.
//! 4. Features are sparse binary bag-of-words style vectors: every class
//!    owns a block of "topic" coordinates activated with a boosted rate;
//!    all coordinates share a background rate.
//!
//! These are exactly the controlling variables Table II reports, so the
//! relative behaviour of methods across datasets is exercised on the same
//! axes as the paper.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use graphrare_graph::{edge_key, Graph};
use graphrare_tensor::Matrix;

use crate::spec::{Dataset, DatasetSpec};

/// Generates a graph for a named benchmark at full scale.
pub fn generate(dataset: Dataset, seed: u64) -> Graph {
    generate_spec(&dataset.spec(), seed)
}

/// Generates a graph for a named benchmark at mini scale (see
/// [`Dataset::spec_mini`]).
pub fn generate_mini(dataset: Dataset, seed: u64) -> Graph {
    generate_spec(&dataset.spec_mini(), seed)
}

/// Generates a graph matching an arbitrary [`DatasetSpec`].
///
/// Deterministic: the same `(spec, seed)` pair always yields the same
/// graph.
pub fn generate_spec(spec: &DatasetSpec, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = spec.num_nodes;
    let labels = balanced_labels(n, spec.num_classes, &mut rng);
    let features = class_features(
        &labels,
        spec.feat_dim,
        spec.num_classes,
        spec.feature_density,
        spec.feature_signal,
        &mut rng,
    );
    // Degree propensities: heavy-tailed for wiki-style graphs.
    let propensity: Vec<f64> = (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(0.05..1.0);
            u.powf(-spec.degree_exponent)
        })
        .collect();
    // Per-class cumulative samplers.
    let mut class_members: Vec<Vec<usize>> = vec![Vec::new(); spec.num_classes];
    for (i, &l) in labels.iter().enumerate() {
        class_members[l].push(i);
    }
    let global_sampler = WeightedSampler::new((0..n).collect(), &propensity);
    let class_samplers: Vec<WeightedSampler> = class_members
        .iter()
        .map(|members| WeightedSampler::new(members.clone(), &propensity))
        .collect();

    // Collect the edge list up front and build the graph in one bulk
    // pass: per-edge `Graph::add_edge` is a full CSR splice, which would
    // make generation quadratic. The local key set reproduces `add_edge`'s
    // dedup/self-loop semantics exactly, so the sampled RNG stream — and
    // hence the generated graph — is unchanged.
    let target = spec.num_edges.min(n * (n - 1) / 2);
    let mut seen: HashSet<u64> = HashSet::with_capacity(2 * target);
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(target);
    let mut attempts = 0usize;
    let max_attempts = target * 60 + 1000;
    while edges.len() < target && attempts < max_attempts {
        attempts += 1;
        let u = global_sampler.sample(&mut rng);
        let same_class = rng.gen_bool(spec.homophily.clamp(0.0, 1.0));
        let v = if same_class {
            class_samplers[labels[u]].sample(&mut rng)
        } else {
            // Rejection-sample a node of a different class.
            let mut v = global_sampler.sample(&mut rng);
            let mut guard = 0;
            while labels[v] == labels[u] && guard < 64 {
                v = global_sampler.sample(&mut rng);
                guard += 1;
            }
            v
        };
        if u != v && seen.insert(edge_key(u, v)) {
            edges.push((u, v));
        }
    }
    Graph::from_edges(n, &edges, features, labels, spec.num_classes)
}

/// Near-balanced shuffled label assignment.
fn balanced_labels(n: usize, classes: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
    // Fisher–Yates shuffle.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        labels.swap(i, j);
    }
    labels
}

/// Class-conditional sparse binary features.
fn class_features(
    labels: &[usize],
    dim: usize,
    classes: usize,
    density: f64,
    signal: f64,
    rng: &mut StdRng,
) -> Matrix {
    let block = (dim / classes.max(1)).max(1);
    let mut m = Matrix::zeros(labels.len(), dim);
    for (i, &l) in labels.iter().enumerate() {
        let lo = l * block;
        let hi = ((l + 1) * block).min(dim);
        let row = m.row_mut(i);
        for (j, value) in row.iter_mut().enumerate() {
            let in_topic = j >= lo && j < hi;
            let p = if in_topic { density + signal * 0.25 } else { density };
            if rng.gen_bool(p.min(1.0)) {
                *value = 1.0;
            }
        }
    }
    m
}

/// Cumulative-weight alias-free sampler over a fixed support.
struct WeightedSampler {
    support: Vec<usize>,
    cumulative: Vec<f64>,
    total: f64,
}

impl WeightedSampler {
    fn new(support: Vec<usize>, weights: &[f64]) -> Self {
        let mut cumulative = Vec::with_capacity(support.len());
        let mut total = 0.0;
        for &i in &support {
            total += weights[i];
            cumulative.push(total);
        }
        Self { support, cumulative, total }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        debug_assert!(!self.support.is_empty(), "sampling from empty support");
        let x = rng.gen_range(0.0..self.total);
        let idx = self.cumulative.partition_point(|&c| c <= x);
        self.support[idx.min(self.support.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrare_graph::metrics::{class_counts, homophily_ratio};

    #[test]
    fn deterministic_for_same_seed() {
        let a = generate_mini(Dataset::Cornell, 7);
        let b = generate_mini(Dataset::Cornell, 7);
        assert_eq!(a.edge_vec(), b.edge_vec());
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.features(), b.features());
    }

    #[test]
    fn generated_features_are_finite() {
        // Downstream consumers rank features and logits with `total_cmp`
        // so NaN can no longer panic them, but the generator itself must
        // never emit one: a non-finite feature would silently skew every
        // similarity ranking built on top.
        let g = generate_mini(Dataset::Cora, 7);
        for v in 0..g.num_nodes() {
            assert!(g.features().row_entries(v).all(|(_, x)| x.is_finite()), "node {v}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_mini(Dataset::Cornell, 1);
        let b = generate_mini(Dataset::Cornell, 2);
        assert_ne!(a.edge_vec(), b.edge_vec());
    }

    #[test]
    fn node_and_class_counts_match_spec() {
        let spec = Dataset::Wisconsin.spec();
        let g = generate_spec(&spec, 42);
        assert_eq!(g.num_nodes(), spec.num_nodes);
        assert_eq!(g.num_classes(), spec.num_classes);
        assert_eq!(g.feat_dim(), spec.feat_dim);
        // Balanced within one node per class.
        let counts = class_counts(&g);
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max - min <= 1, "class imbalance: {counts:?}");
    }

    #[test]
    fn edge_counts_close_to_target() {
        for d in [Dataset::Cornell, Dataset::Texas, Dataset::Cora] {
            let spec = d.spec_mini();
            let g = generate_spec(&spec, 3);
            let rel = (g.num_edges() as f64 - spec.num_edges as f64).abs() / spec.num_edges as f64;
            assert!(rel < 0.05, "{}: got {} want {}", spec.name, g.num_edges(), spec.num_edges);
        }
    }

    #[test]
    fn homophily_close_to_target() {
        for d in Dataset::ALL {
            let spec = d.spec_mini();
            let g = generate_spec(&spec, 11);
            let h = homophily_ratio(&g);
            assert!(
                (h - spec.homophily).abs() < 0.08,
                "{}: homophily {h:.3} vs target {:.3}",
                spec.name,
                spec.homophily
            );
        }
    }

    #[test]
    fn features_are_sparse_binary() {
        let g = generate_mini(Dataset::Texas, 5);
        let f = g.features().to_dense();
        assert!(f.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
        let density = f.sum() / f.len() as f32;
        assert!(density > 0.0 && density < 0.3, "density {density}");
    }

    #[test]
    fn topic_features_are_label_informative() {
        // Nearest-centroid classification on raw features should beat chance
        // comfortably for a WebKB-like spec.
        let g = generate_mini(Dataset::Wisconsin, 9);
        let classes = g.num_classes();
        let dim = g.feat_dim();
        let feats = g.features().to_dense();
        let mut centroids = Matrix::zeros(classes, dim);
        let mut counts = vec![0f32; classes];
        for v in 0..g.num_nodes() {
            let l = g.label(v);
            counts[l] += 1.0;
            for (j, &x) in feats.row(v).iter().enumerate() {
                centroids.add_at(l, j, x);
            }
        }
        for (c, &count) in counts.iter().enumerate() {
            for j in 0..dim {
                let v = centroids.get(c, j) / count.max(1.0);
                centroids.set(c, j, v);
            }
        }
        let mut correct = 0usize;
        for v in 0..g.num_nodes() {
            let x = feats.row(v);
            let best = (0..classes)
                .max_by(|&a, &b| {
                    let da: f32 = x.iter().zip(centroids.row(a)).map(|(&p, &q)| p * q).sum();
                    let db: f32 = x.iter().zip(centroids.row(b)).map(|(&p, &q)| p * q).sum();
                    da.total_cmp(&db)
                })
                .unwrap();
            if best == g.label(v) {
                correct += 1;
            }
        }
        let acc = correct as f64 / g.num_nodes() as f64;
        assert!(acc > 0.5, "nearest-centroid accuracy {acc}");
    }

    #[test]
    fn heavy_tail_spec_has_larger_max_degree() {
        let mut light = Dataset::Cora.spec_mini();
        light.degree_exponent = 0.0;
        let mut heavy = light;
        heavy.degree_exponent = 0.95;
        let gl = generate_spec(&light, 21);
        let gh = generate_spec(&heavy, 21);
        assert!(
            gh.max_degree() > gl.max_degree(),
            "heavy {} <= light {}",
            gh.max_degree(),
            gl.max_degree()
        );
    }
}
