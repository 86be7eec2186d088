//! Graph Convolutional Network (Kipf & Welling, ICLR 2017).

use rand::rngs::StdRng;
use rand::SeedableRng;

use graphrare_tensor::{Param, Tape, Var};

use crate::linear::Linear;
use crate::model::{GnnModel, GraphTensors};

/// Two-layer GCN: `Â · ReLU(Â X W₁) W₂` with dropout before each layer.
pub struct Gcn {
    l1: Linear,
    l2: Linear,
    dropout: f32,
}

impl Gcn {
    /// Creates the model.
    pub fn new(in_dim: usize, hidden: usize, out_dim: usize, dropout: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            l1: Linear::new("gcn.l1", in_dim, hidden, &mut rng),
            l2: Linear::new("gcn.l2", hidden, out_dim, &mut rng),
            dropout,
        }
    }
}

impl GnnModel for Gcn {
    fn forward(&self, tape: &mut Tape, gt: &GraphTensors, train: bool, rng: &mut StdRng) -> Var {
        let a_hat = gt.gcn_norm();
        let x = gt.input(train, self.dropout, rng);
        // Layer 1: project then propagate (projection first is cheaper when
        // in_dim >> hidden, and algebraically identical).
        let xw = self.l1.forward_sparse(tape, x);
        let h = tape.spmm(a_hat.clone(), xw);
        let mut h = tape.relu(h);
        if train && self.dropout > 0.0 {
            h = tape.dropout(h, self.dropout, rng);
        }
        let hw = self.l2.forward(tape, h);
        tape.spmm(a_hat, hw)
    }

    fn params(&self) -> Vec<Param> {
        let mut p = self.l1.params();
        p.extend(self.l2.params());
        p
    }

    fn name(&self) -> &'static str {
        "GCN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrare_graph::Graph;
    use graphrare_tensor::Matrix;

    fn toy() -> GraphTensors {
        let g = Graph::from_edges(
            4,
            &[(0, 1), (1, 2), (2, 3)],
            Matrix::from_fn(4, 5, |r, c| ((r * c) % 3) as f32),
            vec![0, 1, 0, 1],
            2,
        );
        GraphTensors::new(&g)
    }

    #[test]
    fn forward_shape() {
        let gt = toy();
        let m = Gcn::new(5, 8, 2, 0.5, 0);
        let mut t = Tape::new();
        let mut rng = StdRng::seed_from_u64(0);
        let y = m.forward(&mut t, &gt, true, &mut rng);
        assert_eq!(t.value(y).shape(), (4, 2));
    }

    #[test]
    fn propagation_uses_topology() {
        // Changing an edge must change the logits (unlike an MLP).
        let m = Gcn::new(5, 8, 2, 0.0, 0);
        let mut rng = StdRng::seed_from_u64(0);

        let gt1 = toy();
        let mut t1 = Tape::new();
        let y1 = m.forward(&mut t1, &gt1, false, &mut rng);

        let g2 = {
            let mut g = gt1.graph().clone();
            g.add_edge(0, 3);
            g
        };
        let gt2 = GraphTensors::new(&g2);
        let mut t2 = Tape::new();
        let y2 = m.forward(&mut t2, &gt2, false, &mut rng);
        assert!(t1.value(y1).max_abs_diff(t2.value(y2)) > 1e-6);
    }

    #[test]
    fn gradients_flow_to_all_params() {
        let gt = toy();
        let m = Gcn::new(5, 8, 2, 0.0, 0);
        let mut t = Tape::new();
        let mut rng = StdRng::seed_from_u64(0);
        let y = m.forward(&mut t, &gt, true, &mut rng);
        let lp = t.log_softmax_rows(y);
        let loss = t.nll_masked(
            lp,
            std::rc::Rc::new(vec![0, 1, 0, 1]),
            std::rc::Rc::new(vec![0, 1, 2, 3]),
        );
        t.backward(loss);
        for p in m.params() {
            assert!(
                p.grad().as_slice().iter().any(|&v| v != 0.0),
                "parameter {} received no gradient",
                p.name()
            );
        }
    }
}
