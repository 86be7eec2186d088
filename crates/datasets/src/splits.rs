//! Train/validation/test splits.
//!
//! The paper (Section V-C) uses the ten random 60%/20%/20% per-class splits
//! of Pei et al. (Geom-GCN). Those split files are not redistributable, so
//! this module reproduces the *procedure*: per-class stratified 60/20/20
//! splits drawn from a seeded RNG, ten per dataset.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One train/validation/test partition of node indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Split {
    /// Training node indices (60% of each class).
    pub train: Vec<usize>,
    /// Validation node indices (20% of each class).
    pub val: Vec<usize>,
    /// Test node indices (remaining 20%).
    pub test: Vec<usize>,
}

impl Split {
    /// Total number of nodes covered by the split.
    pub fn len(&self) -> usize {
        self.train.len() + self.val.len() + self.test.len()
    }

    /// Whether the split covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Draws one stratified 60/20/20 split.
///
/// Within every class the nodes are shuffled and divided 60/20/20 (train
/// gets the rounding remainder, matching the Geom-GCN splits which keep
/// train largest).
///
/// # Panics
/// Panics when the labels are inconsistent with `num_classes`: a label
/// `>= num_classes`, or `num_classes == 0` with labels present (which
/// would otherwise yield a silently empty split). Outside input reaches
/// this already checked: `graphrare_graph::io` bounds every label by the
/// node count and derives `num_classes` from them.
pub fn stratified_split(labels: &[usize], num_classes: usize, seed: u64) -> Split {
    assert!(
        num_classes > 0 || labels.is_empty(),
        "stratified_split: cannot stratify {} labels over zero classes",
        labels.len()
    );
    if let Some((node, &label)) = labels.iter().enumerate().find(|&(_, &l)| l >= num_classes) {
        panic!(
            "stratified_split: node {node} has label {label}, outside the declared {num_classes} classes"
        );
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
    for (i, &l) in labels.iter().enumerate() {
        by_class[l].push(i);
    }
    let mut split = Split { train: Vec::new(), val: Vec::new(), test: Vec::new() };
    for members in &mut by_class {
        // Fisher–Yates shuffle.
        for i in (1..members.len()).rev() {
            let j = rng.gen_range(0..=i);
            members.swap(i, j);
        }
        let n = members.len();
        let n_val = n / 5;
        let n_test = n / 5;
        let n_train = n - n_val - n_test;
        split.train.extend_from_slice(&members[..n_train]);
        split.val.extend_from_slice(&members[n_train..n_train + n_val]);
        split.test.extend_from_slice(&members[n_train + n_val..]);
    }
    split.train.sort_unstable();
    split.val.sort_unstable();
    split.test.sort_unstable();
    split
}

/// The paper's protocol: ten stratified splits with distinct seeds derived
/// from `base_seed`.
pub fn ten_splits(labels: &[usize], num_classes: usize, base_seed: u64) -> Vec<Split> {
    (0..10)
        .map(|i| {
            stratified_split(labels, num_classes, base_seed.wrapping_add(i as u64 * 1_000_003))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels() -> Vec<usize> {
        // 40 nodes, 4 classes, 10 each.
        (0..40).map(|i| i % 4).collect()
    }

    #[test]
    fn split_is_a_partition() {
        let l = labels();
        let s = stratified_split(&l, 4, 1);
        assert_eq!(s.len(), 40);
        let mut all: Vec<usize> = s.train.iter().chain(&s.val).chain(&s.test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn ratios_are_60_20_20() {
        let l = labels();
        let s = stratified_split(&l, 4, 2);
        assert_eq!(s.train.len(), 24);
        assert_eq!(s.val.len(), 8);
        assert_eq!(s.test.len(), 8);
    }

    #[test]
    fn stratified_within_class() {
        let l = labels();
        let s = stratified_split(&l, 4, 3);
        for class in 0..4 {
            let train_c = s.train.iter().filter(|&&i| l[i] == class).count();
            assert_eq!(train_c, 6, "class {class} train count");
        }
    }

    #[test]
    fn rounding_remainder_goes_to_train() {
        // 7 nodes, one class: 7/5 = 1 val, 1 test, 5 train.
        let l = vec![0usize; 7];
        let s = stratified_split(&l, 1, 4);
        assert_eq!((s.train.len(), s.val.len(), s.test.len()), (5, 1, 1));
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let l = labels();
        assert_eq!(stratified_split(&l, 4, 9), stratified_split(&l, 4, 9));
        assert_ne!(stratified_split(&l, 4, 9), stratified_split(&l, 4, 10));
    }

    #[test]
    #[should_panic(expected = "node 2 has label 5, outside the declared 4 classes")]
    fn label_out_of_range_panics_with_its_node_and_label() {
        // Without the check this would be a bare index-out-of-bounds
        // inside the bucketing loop.
        let _ = stratified_split(&[0, 1, 5, 2], 4, 0);
    }

    #[test]
    #[should_panic(expected = "cannot stratify 3 labels over zero classes")]
    fn zero_classes_with_labels_panics() {
        // Without the check this would be a silently empty split.
        let _ = stratified_split(&[0, 0, 0], 0, 0);
    }

    #[test]
    fn no_labels_over_no_classes_is_an_empty_split() {
        assert!(stratified_split(&[], 0, 0).is_empty());
    }

    #[test]
    fn ten_splits_are_distinct() {
        let l = labels();
        let splits = ten_splits(&l, 4, 0);
        assert_eq!(splits.len(), 10);
        for i in 0..10 {
            for j in (i + 1)..10 {
                assert_ne!(splits[i], splits[j], "splits {i} and {j} identical");
            }
        }
    }
}
