//! A dense affine layer shared by all models.

use std::sync::Arc;

use rand::rngs::StdRng;

use graphrare_tensor::{init, CsrMatrix, Matrix, Param, Tape, Var};

/// `y = x W + b` with Glorot-initialised weights.
#[derive(Clone)]
pub struct Linear {
    weight: Param,
    bias: Option<Param>,
}

impl Linear {
    /// Creates a layer with bias.
    pub fn new(name: &str, in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        Self::with_bias(name, in_dim, out_dim, true, rng)
    }

    /// Creates a layer, optionally without bias (GCN's propagation layers
    /// conventionally carry one bias per layer, GAT heads none).
    pub fn with_bias(
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
        rng: &mut StdRng,
    ) -> Self {
        let weight =
            Param::new(format!("{name}.weight"), init::glorot_uniform(rng, in_dim, out_dim));
        let bias = bias.then(|| Param::new(format!("{name}.bias"), Matrix::zeros(1, out_dim)));
        Self { weight, bias }
    }

    /// Applies the layer on the tape.
    pub fn forward(&self, tape: &mut Tape, x: Var) -> Var {
        let w = tape.param(&self.weight);
        let y = tape.matmul(x, w);
        self.add_bias(tape, y)
    }

    /// Applies the layer to a constant sparse input, such as the node
    /// features from [`GraphTensors::input`](crate::GraphTensors::input):
    /// `spmm(x, W) + b`, bit-identical to [`forward`](Linear::forward)
    /// on the densified input.
    pub fn forward_sparse(&self, tape: &mut Tape, x: Arc<CsrMatrix>) -> Var {
        let w = tape.param(&self.weight);
        let y = tape.spmm(x, w);
        self.add_bias(tape, y)
    }

    fn add_bias(&self, tape: &mut Tape, y: Var) -> Var {
        match &self.bias {
            Some(b) => {
                let vb = tape.param(b);
                tape.add_bias(y, vb)
            }
            None => y,
        }
    }

    /// The layer's parameters.
    pub fn params(&self) -> Vec<Param> {
        let mut out = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            out.push(b.clone());
        }
        out
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.shape().1
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.shape().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = Linear::new("l", 3, 2, &mut rng);
        let mut t = Tape::new();
        let x = t.constant(Matrix::ones(4, 3));
        let y = layer.forward(&mut t, x);
        assert_eq!(t.value(y).shape(), (4, 2));
        assert_eq!(layer.params().len(), 2);
        assert_eq!((layer.in_dim(), layer.out_dim()), (3, 2));
    }

    #[test]
    fn no_bias_variant() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = Linear::with_bias("l", 3, 2, false, &mut rng);
        assert_eq!(layer.params().len(), 1);
    }

    #[test]
    fn gradients_reach_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Linear::new("l", 2, 2, &mut rng);
        let mut t = Tape::new();
        let x = t.constant(Matrix::ones(3, 2));
        let y = layer.forward(&mut t, x);
        let s = t.sum_all(y);
        t.backward(s);
        let g = layer.params()[0].grad();
        assert!(g.as_slice().iter().any(|&v| v != 0.0));
    }
}
