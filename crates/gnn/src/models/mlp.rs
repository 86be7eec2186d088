//! Feature-only multilayer perceptron (the paper's attribute-only
//! baseline).

use rand::rngs::StdRng;
use rand::SeedableRng;

use graphrare_tensor::{Param, Tape, Var};

use crate::linear::Linear;
use crate::model::{GnnModel, GraphTensors};

/// Two-layer MLP over raw node features; ignores topology entirely.
pub struct Mlp {
    l1: Linear,
    l2: Linear,
    dropout: f32,
}

impl Mlp {
    /// Creates the model.
    pub fn new(in_dim: usize, hidden: usize, out_dim: usize, dropout: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            l1: Linear::new("mlp.l1", in_dim, hidden, &mut rng),
            l2: Linear::new("mlp.l2", hidden, out_dim, &mut rng),
            dropout,
        }
    }
}

impl GnnModel for Mlp {
    fn forward(&self, tape: &mut Tape, gt: &GraphTensors, train: bool, rng: &mut StdRng) -> Var {
        let x = gt.input(train, self.dropout, rng);
        let h = self.l1.forward_sparse(tape, x);
        let mut h = tape.relu(h);
        if train && self.dropout > 0.0 {
            h = tape.dropout(h, self.dropout, rng);
        }
        self.l2.forward(tape, h)
    }

    fn params(&self) -> Vec<Param> {
        let mut p = self.l1.params();
        p.extend(self.l2.params());
        p
    }

    fn name(&self) -> &'static str {
        "MLP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrare_graph::Graph;
    use graphrare_tensor::Matrix;

    #[test]
    fn logits_shape_matches_classes() {
        let g = Graph::from_edges(5, &[(0, 1)], Matrix::ones(5, 7), vec![0, 1, 2, 0, 1], 3);
        let gt = GraphTensors::new(&g);
        let m = Mlp::new(7, 8, 3, 0.5, 0);
        let mut t = Tape::new();
        let mut rng = StdRng::seed_from_u64(0);
        let y = m.forward(&mut t, &gt, false, &mut rng);
        assert_eq!(t.value(y).shape(), (5, 3));
        assert_eq!(m.params().len(), 4);
        assert!(m.num_weights() > 0);
    }

    #[test]
    fn eval_mode_is_deterministic() {
        let g = Graph::from_edges(3, &[], Matrix::ones(3, 4), vec![0, 1, 0], 2);
        let gt = GraphTensors::new(&g);
        let m = Mlp::new(4, 6, 2, 0.5, 1);
        let run = || {
            let mut t = Tape::new();
            let mut rng = StdRng::seed_from_u64(99);
            let y = m.forward(&mut t, &gt, false, &mut rng);
            t.value(y).clone()
        };
        assert_eq!(run(), run());
    }
}
