//! H2GCN (Zhu et al., NeurIPS 2020): the strongest heterophily-aware
//! backbone the paper enhances.
//!
//! H2GCN's three designs are implemented faithfully:
//! 1. **Ego/neighbour separation** — the ego embedding is never mixed into
//!    the aggregates;
//! 2. **Higher-order neighbourhoods** — each round aggregates over the
//!    strict one-hop *and* strict two-hop neighbourhoods separately;
//! 3. **Intermediate-representation combination** — the classifier reads
//!    the concatenation of the ego embedding and every round's output, with
//!    no nonlinearity between rounds.

use rand::rngs::StdRng;
use rand::SeedableRng;

use graphrare_tensor::{Param, Tape, Var};

use crate::linear::Linear;
use crate::model::{GnnModel, GraphTensors};

/// H2GCN with `rounds` aggregation rounds (the paper of Zhu et al. uses
/// K=2, which is the default used here).
pub struct H2gcn {
    embed: Linear,
    classify: Linear,
    rounds: usize,
    hidden: usize,
    dropout: f32,
}

impl H2gcn {
    /// Creates the model with K=2 rounds.
    pub fn new(in_dim: usize, hidden: usize, out_dim: usize, dropout: f32, seed: u64) -> Self {
        Self::with_rounds(in_dim, hidden, out_dim, 2, dropout, seed)
    }

    /// Creates the model with an explicit round count.
    pub fn with_rounds(
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        rounds: usize,
        dropout: f32,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Final representation: ego + per-round [1-hop ‖ 2-hop] blocks.
        // Round r's width doubles each time: hidden * 2^r.
        let final_dim: usize = hidden + (1..=rounds).map(|r| hidden << r).sum::<usize>();
        Self {
            embed: Linear::new("h2gcn.embed", in_dim, hidden, &mut rng),
            classify: Linear::new("h2gcn.classify", final_dim, out_dim, &mut rng),
            rounds,
            hidden,
            dropout,
        }
    }

    /// Aggregation rounds K.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Hidden width of the ego embedding.
    pub fn hidden(&self) -> usize {
        self.hidden
    }
}

impl GnnModel for H2gcn {
    fn forward(&self, tape: &mut Tape, gt: &GraphTensors, train: bool, rng: &mut StdRng) -> Var {
        let one_hop = gt.row_norm();
        let two_hop = gt.two_hop();
        let x = gt.input(train, self.dropout, rng);
        let ego = self.embed.forward_sparse(tape, x);
        let ego = tape.relu(ego);

        let mut reps = vec![ego];
        let mut current = ego;
        for _ in 0..self.rounds {
            let h1 = tape.spmm(one_hop.clone(), current);
            let h2 = tape.spmm(two_hop.clone(), current);
            current = tape.concat_cols(&[h1, h2]);
            reps.push(current);
        }
        let mut combined = tape.concat_cols(&reps);
        if train && self.dropout > 0.0 {
            combined = tape.dropout(combined, self.dropout, rng);
        }
        self.classify.forward(tape, combined)
    }

    fn params(&self) -> Vec<Param> {
        let mut p = self.embed.params();
        p.extend(self.classify.params());
        p
    }

    fn name(&self) -> &'static str {
        "H2GCN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrare_graph::Graph;
    use graphrare_tensor::Matrix;

    fn toy() -> GraphTensors {
        let g = Graph::from_edges(
            6,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
            Matrix::from_fn(6, 4, |r, c| ((r * 2 + c) % 3) as f32),
            vec![0, 1, 0, 1, 0, 1],
            2,
        );
        GraphTensors::new(&g)
    }

    #[test]
    fn forward_shape_default_rounds() {
        let gt = toy();
        let m = H2gcn::new(4, 8, 2, 0.5, 0);
        assert_eq!(m.rounds(), 2);
        let mut t = Tape::new();
        let mut rng = StdRng::seed_from_u64(0);
        let y = m.forward(&mut t, &gt, true, &mut rng);
        assert_eq!(t.value(y).shape(), (6, 2));
    }

    #[test]
    fn final_dim_accounts_for_round_doubling() {
        // hidden=4, rounds=2: 4 + 8 + 16 = 28 classifier inputs.
        let m = H2gcn::with_rounds(4, 4, 2, 2, 0.0, 0);
        assert_eq!(m.params()[2].shape().0, 28);
    }

    #[test]
    fn one_round_variant_works() {
        let gt = toy();
        let m = H2gcn::with_rounds(4, 4, 2, 1, 0.0, 0);
        let mut t = Tape::new();
        let mut rng = StdRng::seed_from_u64(0);
        let y = m.forward(&mut t, &gt, false, &mut rng);
        assert_eq!(t.value(y).shape(), (6, 2));
        assert!(t.value(y).all_finite());
    }

    #[test]
    fn two_hop_information_reaches_output() {
        // Moving a remote edge (distance-2 relation) must change logits.
        let gt1 = toy();
        let m = H2gcn::new(4, 4, 2, 0.0, 3);
        let mut rng = StdRng::seed_from_u64(0);
        let mut t1 = Tape::new();
        let y1 = m.forward(&mut t1, &gt1, false, &mut rng);

        let mut g2 = gt1.graph().clone();
        g2.add_edge(0, 5);
        let gt2 = GraphTensors::new(&g2);
        let mut t2 = Tape::new();
        let y2 = m.forward(&mut t2, &gt2, false, &mut rng);
        assert!(t1.value(y1).max_abs_diff(t2.value(y2)) > 1e-6);
    }
}
