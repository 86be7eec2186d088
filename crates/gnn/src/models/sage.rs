//! GraphSAGE with mean aggregation (Hamilton et al., NeurIPS 2017).

use rand::rngs::StdRng;
use rand::SeedableRng;

use graphrare_tensor::{Param, Tape, Var};

use crate::linear::Linear;
use crate::model::{GnnModel, GraphTensors};

/// Two-layer GraphSAGE-mean: each layer computes
/// `h' = ReLU(W_self · h + W_nbr · mean_{u∈N(v)} h_u + b)`, the full-batch
/// form of the sampled aggregator (the paper trains full-batch too).
pub struct GraphSage {
    self1: Linear,
    nbr1: Linear,
    self2: Linear,
    nbr2: Linear,
    dropout: f32,
}

impl GraphSage {
    /// Creates the model.
    pub fn new(in_dim: usize, hidden: usize, out_dim: usize, dropout: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            self1: Linear::new("sage.self1", in_dim, hidden, &mut rng),
            nbr1: Linear::with_bias("sage.nbr1", in_dim, hidden, false, &mut rng),
            self2: Linear::new("sage.self2", hidden, out_dim, &mut rng),
            nbr2: Linear::with_bias("sage.nbr2", hidden, out_dim, false, &mut rng),
            dropout,
        }
    }

    /// `self_h + W_nbr · mean_nbr`, where `self_h` is the layer's
    /// projected self branch.
    fn combine(tape: &mut Tape, self_h: Var, mean_nbr: Var, nbr_lin: &Linear) -> Var {
        let b = nbr_lin.forward(tape, mean_nbr);
        tape.add(self_h, b)
    }
}

impl GnnModel for GraphSage {
    fn forward(&self, tape: &mut Tape, gt: &GraphTensors, train: bool, rng: &mut StdRng) -> Var {
        let row_norm = gt.row_norm();
        let x = gt.input(train, self.dropout, rng);
        // The neighbour mean of the features is dense anyway, so the input
        // is densified once for it; the self branch projects it sparsely.
        let dense = tape.constant(x.to_dense());
        let mean_nbr = tape.spmm(row_norm.clone(), dense);
        let self_h = self.self1.forward_sparse(tape, x);
        let h = Self::combine(tape, self_h, mean_nbr, &self.nbr1);
        let mut h = tape.relu(h);
        if train && self.dropout > 0.0 {
            h = tape.dropout(h, self.dropout, rng);
        }
        let mean_nbr = tape.spmm(row_norm, h);
        let self_h = self.self2.forward(tape, h);
        Self::combine(tape, self_h, mean_nbr, &self.nbr2)
    }

    fn params(&self) -> Vec<Param> {
        [&self.self1, &self.nbr1, &self.self2, &self.nbr2].iter().flat_map(|l| l.params()).collect()
    }

    fn name(&self) -> &'static str {
        "GraphSAGE"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrare_graph::Graph;
    use graphrare_tensor::Matrix;

    #[test]
    fn forward_shape_and_params() {
        let g = Graph::from_edges(
            5,
            &[(0, 1), (1, 2), (3, 4)],
            Matrix::ones(5, 6),
            vec![0, 1, 2, 0, 1],
            3,
        );
        let gt = GraphTensors::new(&g);
        let m = GraphSage::new(6, 8, 3, 0.5, 0);
        let mut t = Tape::new();
        let mut rng = StdRng::seed_from_u64(0);
        let y = m.forward(&mut t, &gt, false, &mut rng);
        assert_eq!(t.value(y).shape(), (5, 3));
        // self layers have bias, neighbour layers don't: 2+1+2+1 params.
        assert_eq!(m.params().len(), 6);
    }

    #[test]
    fn isolated_node_uses_self_path_only() {
        // An isolated node's logits must still be finite and non-trivial.
        let g = Graph::from_edges(3, &[(0, 1)], Matrix::ones(3, 4), vec![0, 1, 0], 2);
        let gt = GraphTensors::new(&g);
        let m = GraphSage::new(4, 4, 2, 0.0, 1);
        let mut t = Tape::new();
        let mut rng = StdRng::seed_from_u64(0);
        let y = m.forward(&mut t, &gt, false, &mut rng);
        assert!(t.value(y).all_finite());
        assert!(t.value(y).row(2).iter().any(|&v| v != 0.0));
    }
}
