//! Graph Attention Network (Veličković et al., ICLR 2018).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use graphrare_tensor::{init, CsrMatrix, Param, Tape, Var};

use crate::model::{GnnModel, GraphTensors};

const LEAKY_SLOPE: f32 = 0.2;

/// One attention head: projection `W` plus the split attention vector
/// `a = [a_l ‖ a_r]`, so that `e_ij = LeakyReLU(a_l·Wh_i + a_r·Wh_j)`.
struct Head {
    w: Param,
    a_l: Param,
    a_r: Param,
}

impl Head {
    fn new(name: &str, in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        Self {
            w: Param::new(format!("{name}.w"), init::glorot_uniform(rng, in_dim, out_dim)),
            a_l: Param::new(format!("{name}.a_l"), init::glorot_uniform(rng, out_dim, 1)),
            a_r: Param::new(format!("{name}.a_r"), init::glorot_uniform(rng, out_dim, 1)),
        }
    }

    /// The head over a dense input: attention over `x · W`.
    fn forward(&self, tape: &mut Tape, gt: &GraphTensors, x: Var) -> Var {
        let w = tape.param(&self.w);
        let wh = tape.matmul(x, w);
        self.attend(tape, gt, wh)
    }

    /// The head over the sparse node features: attention over `x · W`.
    fn forward_sparse(&self, tape: &mut Tape, gt: &GraphTensors, x: Arc<CsrMatrix>) -> Var {
        let w = tape.param(&self.w);
        let wh = tape.spmm(x, w);
        self.attend(tape, gt, wh)
    }

    /// Attention over the projected features `wh`.
    fn attend(&self, tape: &mut Tape, gt: &GraphTensors, wh: Var) -> Var {
        let al = tape.param(&self.a_l);
        let ar = tape.param(&self.a_r);
        let sl = tape.matmul(wh, al);
        let sr = tape.matmul(wh, ar);
        tape.edge_attention(wh, sl, sr, gt.attention(), LEAKY_SLOPE)
    }

    fn params(&self) -> Vec<Param> {
        vec![self.w.clone(), self.a_l.clone(), self.a_r.clone()]
    }
}

/// Two-layer GAT: a multi-head concatenated first layer with ELU, then a
/// single-head output layer, with dropout on the inputs of both layers.
pub struct Gat {
    heads: Vec<Head>,
    out_head: Head,
    dropout: f32,
}

impl Gat {
    /// Creates the model. `hidden` is the total first-layer width; it is
    /// split evenly over `num_heads` heads.
    ///
    /// # Panics
    /// Panics if `hidden` is not divisible by `num_heads`.
    pub fn new(
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        num_heads: usize,
        dropout: f32,
        seed: u64,
    ) -> Self {
        assert!(num_heads > 0 && hidden.is_multiple_of(num_heads), "hidden must divide by heads");
        let mut rng = StdRng::seed_from_u64(seed);
        let per_head = hidden / num_heads;
        let heads = (0..num_heads)
            .map(|h| Head::new(&format!("gat.h{h}"), in_dim, per_head, &mut rng))
            .collect();
        let out_head = Head::new("gat.out", hidden, out_dim, &mut rng);
        Self { heads, out_head, dropout }
    }

    /// Number of first-layer heads.
    pub fn num_heads(&self) -> usize {
        self.heads.len()
    }
}

impl GnnModel for Gat {
    fn forward(&self, tape: &mut Tape, gt: &GraphTensors, train: bool, rng: &mut StdRng) -> Var {
        let x = gt.input(train, self.dropout, rng);
        let head_outs: Vec<Var> =
            self.heads.iter().map(|h| h.forward_sparse(tape, gt, x.clone())).collect();
        let cat = if head_outs.len() == 1 { head_outs[0] } else { tape.concat_cols(&head_outs) };
        let mut h = tape.elu(cat, 1.0);
        if train && self.dropout > 0.0 {
            h = tape.dropout(h, self.dropout, rng);
        }
        self.out_head.forward(tape, gt, h)
    }

    fn params(&self) -> Vec<Param> {
        let mut out: Vec<Param> = self.heads.iter().flat_map(Head::params).collect();
        out.extend(self.out_head.params());
        out
    }

    fn name(&self) -> &'static str {
        "GAT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrare_graph::Graph;
    use graphrare_tensor::Matrix;

    fn toy() -> GraphTensors {
        let g = Graph::from_edges(
            5,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
            Matrix::from_fn(5, 6, |r, c| ((r + 2 * c) % 3) as f32),
            vec![0, 1, 2, 0, 1],
            3,
        );
        GraphTensors::new(&g)
    }

    #[test]
    fn forward_shape_multi_head() {
        let gt = toy();
        let m = Gat::new(6, 8, 3, 4, 0.5, 0);
        assert_eq!(m.num_heads(), 4);
        let mut t = Tape::new();
        let mut rng = StdRng::seed_from_u64(0);
        let y = m.forward(&mut t, &gt, true, &mut rng);
        assert_eq!(t.value(y).shape(), (5, 3));
        assert!(t.value(y).all_finite());
    }

    #[test]
    #[should_panic(expected = "hidden must divide by heads")]
    fn indivisible_heads_panic() {
        let _ = Gat::new(6, 7, 3, 4, 0.5, 0);
    }

    #[test]
    fn gradients_flow_through_attention() {
        let gt = toy();
        let m = Gat::new(6, 4, 3, 2, 0.0, 0);
        let mut t = Tape::new();
        let mut rng = StdRng::seed_from_u64(0);
        let y = m.forward(&mut t, &gt, true, &mut rng);
        let lp = t.log_softmax_rows(y);
        let loss = t.nll_masked(
            lp,
            std::rc::Rc::new(vec![0, 1, 2, 0, 1]),
            std::rc::Rc::new(vec![0, 1, 2, 3, 4]),
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
