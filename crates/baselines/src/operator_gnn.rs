//! A generic two-layer GNN over arbitrary propagation operators.
//!
//! Most heterophily baselines differ only in *which* operators they
//! propagate over and how per-operator branches are combined. This model
//! factors that out: each layer owns one `Linear` per operator and either
//! concatenates or sums the branch outputs.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use graphrare_gnn::linear::Linear;
use graphrare_gnn::{GnnModel, GraphTensors};
use graphrare_tensor::{CsrMatrix, Param, Tape, Var};

/// One propagation branch: a sparse operator or the identity (ego path).
#[derive(Clone)]
pub enum Operator {
    /// Propagate over a fixed sparse matrix.
    Sparse(Arc<CsrMatrix>),
    /// Use the input unchanged (the ego/self branch).
    Identity,
}

impl Operator {
    fn apply(&self, tape: &mut Tape, x: Var) -> Var {
        match self {
            Operator::Sparse(m) => tape.spmm(m.clone(), x),
            Operator::Identity => x,
        }
    }
}

/// How per-operator branch outputs are merged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Combine {
    /// Concatenate branch outputs (MixHop, Geom-GCN style).
    Concat,
    /// Sum branch outputs (GBK-GNN, Polar-GNN style).
    Sum,
}

/// Two-layer operator GNN with ReLU and dropout between layers.
pub struct OperatorGnn {
    name: &'static str,
    ops: Vec<Operator>,
    combine: Combine,
    l1: Vec<Linear>,
    l2: Vec<Linear>,
    dropout: f32,
}

impl OperatorGnn {
    /// Creates the model. With `Combine::Concat` the hidden width is split
    /// evenly across operators (so the total stays `hidden`).
    #[allow(clippy::too_many_arguments)] // mirrors the model's hyper-parameters
    pub fn new(
        name: &'static str,
        ops: Vec<Operator>,
        combine: Combine,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        dropout: f32,
        seed: u64,
    ) -> Self {
        assert!(!ops.is_empty(), "OperatorGnn needs at least one operator");
        let mut rng = StdRng::seed_from_u64(seed);
        let per_branch_hidden = match combine {
            Combine::Concat => (hidden / ops.len()).max(1),
            Combine::Sum => hidden,
        };
        let l1: Vec<Linear> = (0..ops.len())
            .map(|i| Linear::new(&format!("{name}.l1.{i}"), in_dim, per_branch_hidden, &mut rng))
            .collect();
        let layer1_out = match combine {
            Combine::Concat => per_branch_hidden * ops.len(),
            Combine::Sum => hidden,
        };
        let l2: Vec<Linear> = (0..ops.len())
            .map(|i| Linear::new(&format!("{name}.l2.{i}"), layer1_out, out_dim, &mut rng))
            .collect();
        Self { name, ops, combine, l1, l2, dropout }
    }

    /// One layer: each branch projects the input with `project` (given
    /// the branch's `Linear`), then applies its operator.
    fn layer(
        &self,
        tape: &mut Tape,
        linears: &[Linear],
        combine: Combine,
        project: impl Fn(&Linear, &mut Tape) -> Var,
    ) -> Var {
        let branches: Vec<Var> = self
            .ops
            .iter()
            .zip(linears)
            .map(|(op, lin)| {
                let projected = project(lin, tape);
                op.apply(tape, projected)
            })
            .collect();
        match combine {
            Combine::Concat => {
                if branches.len() == 1 {
                    branches[0]
                } else {
                    tape.concat_cols(&branches)
                }
            }
            Combine::Sum => {
                let mut acc = branches[0];
                for &b in &branches[1..] {
                    acc = tape.add(acc, b);
                }
                acc
            }
        }
    }
}

impl GnnModel for OperatorGnn {
    fn forward(&self, tape: &mut Tape, gt: &GraphTensors, train: bool, rng: &mut StdRng) -> Var {
        let x = gt.input(train, self.dropout, rng);
        let h = self.layer(tape, &self.l1, self.combine, |lin, t| lin.forward_sparse(t, x.clone()));
        let mut h = tape.relu(h);
        if train && self.dropout > 0.0 {
            h = tape.dropout(h, self.dropout, rng);
        }
        // The output layer always sums its branches so logits stay
        // `out_dim`-wide regardless of the hidden-layer combine mode.
        self.layer(tape, &self.l2, Combine::Sum, |lin, t| lin.forward(t, h))
    }

    fn params(&self) -> Vec<Param> {
        self.l1.iter().chain(&self.l2).flat_map(Linear::params).collect()
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    use graphrare_graph::{ops, Graph};
    use graphrare_tensor::Matrix;

    fn toy() -> (Graph, GraphTensors) {
        let g = Graph::from_edges(
            5,
            &[(0, 1), (1, 2), (2, 3), (3, 4)],
            Matrix::from_fn(5, 4, |r, c| ((r + c) % 2) as f32),
            vec![0, 1, 0, 1, 0],
            2,
        );
        let gt = GraphTensors::new(&g);
        (g, gt)
    }

    #[test]
    fn concat_combine_shapes() {
        let (g, gt) = toy();
        let model = OperatorGnn::new(
            "test-concat",
            vec![Operator::Identity, Operator::Sparse(Arc::new(ops::gcn_norm(&g)))],
            Combine::Concat,
            4,
            8,
            2,
            0.0,
            0,
        );
        let mut t = Tape::new();
        let mut rng = StdRng::seed_from_u64(0);
        let y = model.forward(&mut t, &gt, false, &mut rng);
        assert_eq!(t.value(y).shape(), (5, 2));
        assert_eq!(model.params().len(), 8);
    }

    #[test]
    fn sum_combine_shapes() {
        let (g, gt) = toy();
        let model = OperatorGnn::new(
            "test-sum",
            vec![Operator::Sparse(Arc::new(ops::row_norm_adj(&g))), Operator::Identity],
            Combine::Sum,
            4,
            8,
            2,
            0.0,
            0,
        );
        let mut t = Tape::new();
        let mut rng = StdRng::seed_from_u64(0);
        let y = model.forward(&mut t, &gt, false, &mut rng);
        assert_eq!(t.value(y).shape(), (5, 2));
        assert!(t.value(y).all_finite());
    }

    #[test]
    fn gradients_reach_every_branch() {
        let (g, gt) = toy();
        let model = OperatorGnn::new(
            "test-grad",
            vec![Operator::Identity, Operator::Sparse(Arc::new(ops::gcn_norm(&g)))],
            Combine::Sum,
            4,
            6,
            2,
            0.0,
            1,
        );
        let mut t = Tape::new();
        let mut rng = StdRng::seed_from_u64(0);
        let y = model.forward(&mut t, &gt, true, &mut rng);
        let lp = t.log_softmax_rows(y);
        let loss = t.nll_masked(lp, Rc::new(vec![0, 1, 0, 1, 0]), Rc::new(vec![0, 1, 2, 3, 4]));
        t.backward(loss);
        for p in model.params() {
            assert!(p.grad().as_slice().iter().any(|&v| v != 0.0), "no gradient in {}", p.name());
        }
    }
}
