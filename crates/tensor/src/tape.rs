//! Tape-based reverse-mode automatic differentiation.
//!
//! The paper's models are trained with PyTorch; this module is the Rust
//! substitute. A [`Tape`] records every operation of one forward pass as a
//! node in a flat arena. [`Tape::backward`] walks the arena in reverse,
//! accumulating gradients, and finally flushes gradients of bound
//! [`Param`]s back into their shared storage.
//!
//! Design notes:
//! * Ops are a closed `enum` rather than boxed closures: cheaper, easier to
//!   audit, and every backward rule is unit-tested against finite
//!   differences (see `gradcheck`) or an analytic gradient. The set holds
//!   only what the workspace's GNN models and the PPO update record.
//! * Sparse operands ([`CsrMatrix`]) are constants — gradients only flow
//!   through dense inputs, matching how GNN propagation matrices are used.
//! * Fused ops (`EdgeAttention`, the `MultiDiscreteLogProb` /
//!   `MultiDiscreteEntropy` pair of [`Tape::multi_discrete`], `NllMasked`)
//!   keep tapes small for the two hot paths: GAT layers and PPO updates
//!   over multi-discrete action spaces.

use std::rc::Rc;
use std::sync::Arc;

use rand::Rng;

use crate::matrix::{softmax_slice, Matrix};
use crate::param::Param;
use crate::sparse::CsrMatrix;

/// Neighbour lists in offset form, used by the fused GAT attention op.
///
/// Node `i`'s neighbours (conventionally including `i` itself for
/// self-attention) are `targets[offsets[i]..offsets[i + 1]]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdjList {
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl AdjList {
    /// Builds an adjacency list from per-node neighbour vectors.
    pub fn from_neighbor_lists(lists: &[Vec<usize>]) -> Self {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        offsets.push(0);
        let total: usize = lists.iter().map(Vec::len).sum();
        let mut targets = Vec::with_capacity(total);
        for l in lists {
            targets.extend_from_slice(l);
            offsets.push(targets.len());
        }
        Self { offsets, targets }
    }

    /// Rebuilds the whole list **in place** from a per-node target
    /// builder, reusing the existing offset/target storage — the
    /// [`AdjList`] analogue of `CsrMatrix::rebuild_from_row_builder`,
    /// allocation-free once capacities have warmed up.
    ///
    /// The closure receives the node index and the shared `targets`
    /// buffer and must only *append* that node's neighbours to it.
    pub fn rebuild_from_row_builder(
        &mut self,
        n: usize,
        mut build: impl FnMut(usize, &mut Vec<usize>),
    ) {
        self.offsets.clear();
        self.offsets.push(0);
        self.targets.clear();
        for i in 0..n {
            build(i, &mut self.targets);
            self.offsets.push(self.targets.len());
        }
    }

    /// Number of source nodes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are no source nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Neighbours of node `i`.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.targets[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// Handle to a node on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var {
    idx: usize,
}

#[derive(Clone)]
enum Op {
    Leaf,
    MatMul(usize, usize),
    SpMM { m: Arc<CsrMatrix>, x: usize },
    Add(usize, usize),
    Neg(usize),
    Scale(usize, f32),
    AddBias { x: usize, bias: usize },
    Relu(usize),
    Elu(usize, f32),
    Tanh(usize),
    Exp(usize),
    Square(usize),
    Clamp(usize, f32, f32),
    MinElem(usize, usize),
    LogSoftmaxRows(usize),
    Dropout { x: usize, mask: Rc<Matrix> },
    ConcatCols(Vec<usize>),
    SumAll(usize),
    MeanAll(usize),
    MulConst { x: usize, c: Rc<Matrix> },
    AddConst { x: usize },
    NllMasked { logp: usize, targets: Rc<Vec<usize>>, mask: Rc<Vec<usize>> },
    EdgeAttention { wh: usize, sl: usize, sr: usize, nbrs: Rc<AdjList>, slope: f32 },
    MultiDiscreteLogProb { logits: usize, actions: Rc<Vec<u8>>, cache: Rc<MultiDiscreteCache> },
    MultiDiscreteEntropy { logits: usize, cache: Rc<MultiDiscreteCache> },
}

/// What the backward arms of [`Tape::multi_discrete`]'s two nodes read,
/// built once by its forward: per logit, the head's softmax probability
/// `p` and the entropy gradient `−p (ln p + H)` (left at 0 where `p = 0`),
/// in heads of `arity` logits.
struct MultiDiscreteCache {
    arity: usize,
    p: Matrix,
    dentropy: Matrix,
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
    needs_grad: bool,
}

/// A single forward pass recorded for differentiation.
///
/// Create one tape per forward/backward cycle; a tape is cheap (one `Vec`).
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    bindings: Vec<(usize, Param)>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records a constant leaf (no gradient flows into it).
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, false)
    }

    /// Records a differentiable leaf whose gradient is readable afterwards.
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, true)
    }

    /// Records a leaf bound to a shared [`Param`]; after [`Tape::backward`]
    /// the computed gradient is accumulated into the parameter's `grad`.
    pub fn param(&mut self, p: &Param) -> Var {
        let v = self.push(p.value(), Op::Leaf, true);
        self.bindings.push((v.idx, p.clone()));
        v
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.idx].value
    }

    /// The gradient of the last `backward` call with respect to `v`.
    ///
    /// Returns `None` if `v` did not participate or gradients were not
    /// requested for it.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.idx].grad.as_ref()
    }

    fn push(&mut self, value: Matrix, op: Op, needs_grad: bool) -> Var {
        debug_assert!(value.all_finite(), "non-finite value entering tape");
        self.nodes.push(Node { value, grad: None, op, needs_grad });
        Var { idx: self.nodes.len() - 1 }
    }

    fn val(&self, idx: usize) -> &Matrix {
        &self.nodes[idx].value
    }

    fn ng(&self, a: Var) -> bool {
        self.nodes[a.idx].needs_grad
    }

    // ---------------------------------------------------------------
    // Forward ops
    // ---------------------------------------------------------------

    /// Dense matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.val(a.idx).matmul(self.val(b.idx));
        let ng = self.ng(a) || self.ng(b);
        self.push(v, Op::MatMul(a.idx, b.idx), ng)
    }

    /// Sparse-constant times dense-variable product. The operand is an
    /// `Arc` so a graph's shared feature matrix enters the tape as is.
    pub fn spmm(&mut self, m: Arc<CsrMatrix>, x: Var) -> Var {
        let v = m.spmm(self.val(x.idx));
        let ng = self.ng(x);
        self.push(v, Op::SpMM { m, x: x.idx }, ng)
    }

    /// Element-wise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.val(a.idx).add(self.val(b.idx));
        let ng = self.ng(a) || self.ng(b);
        self.push(v, Op::Add(a.idx, b.idx), ng)
    }

    /// Element-wise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let v = self.val(a.idx).map(|x| -x);
        let ng = self.ng(a);
        self.push(v, Op::Neg(a.idx), ng)
    }

    /// Multiplies every element by the scalar `c`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = self.val(a.idx).scale(c);
        let ng = self.ng(a);
        self.push(v, Op::Scale(a.idx, c), ng)
    }

    /// Adds a `1 x c` bias row to every row of `x`.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let xm = self.val(x.idx);
        let bm = self.val(bias.idx);
        assert_eq!(bm.rows(), 1, "add_bias: bias must be a 1 x c row");
        assert_eq!(bm.cols(), xm.cols(), "add_bias: width mismatch");
        let mut v = xm.clone();
        for r in 0..v.rows() {
            let row = v.row_mut(r);
            for (o, &b) in row.iter_mut().zip(bm.row(0)) {
                *o += b;
            }
        }
        let ng = self.ng(x) || self.ng(bias);
        self.push(v, Op::AddBias { x: x.idx, bias: bias.idx }, ng)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.val(a.idx).map(|x| x.max(0.0));
        let ng = self.ng(a);
        self.push(v, Op::Relu(a.idx), ng)
    }

    /// Exponential linear unit.
    pub fn elu(&mut self, a: Var, alpha: f32) -> Var {
        let v = self.val(a.idx).map(|x| if x > 0.0 { x } else { alpha * (x.exp() - 1.0) });
        let ng = self.ng(a);
        self.push(v, Op::Elu(a.idx, alpha), ng)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.val(a.idx).map(f32::tanh);
        let ng = self.ng(a);
        self.push(v, Op::Tanh(a.idx), ng)
    }

    /// Element-wise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.val(a.idx).map(f32::exp);
        let ng = self.ng(a);
        self.push(v, Op::Exp(a.idx), ng)
    }

    /// Element-wise square.
    pub fn square(&mut self, a: Var) -> Var {
        let v = self.val(a.idx).map(|x| x * x);
        let ng = self.ng(a);
        self.push(v, Op::Square(a.idx), ng)
    }

    /// Clamps every element to `[lo, hi]`.
    pub fn clamp(&mut self, a: Var, lo: f32, hi: f32) -> Var {
        let v = self.val(a.idx).map(|x| x.clamp(lo, hi));
        let ng = self.ng(a);
        self.push(v, Op::Clamp(a.idx, lo, hi), ng)
    }

    /// Element-wise minimum of two matrices.
    pub fn min_elem(&mut self, a: Var, b: Var) -> Var {
        let v = self.val(a.idx).zip(self.val(b.idx), f32::min);
        let ng = self.ng(a) || self.ng(b);
        self.push(v, Op::MinElem(a.idx, b.idx), ng)
    }

    /// Row-wise log-softmax.
    pub fn log_softmax_rows(&mut self, a: Var) -> Var {
        let v = self.val(a.idx).log_softmax_rows();
        let ng = self.ng(a);
        self.push(v, Op::LogSoftmaxRows(a.idx), ng)
    }

    /// Inverted dropout with keep-probability `1 - p`, drawing the mask from
    /// `rng`. In evaluation mode callers simply skip this op.
    pub fn dropout(&mut self, a: Var, p: f32, rng: &mut impl Rng) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0, 1)");
        let keep = 1.0 - p;
        let src = self.val(a.idx);
        let mask = Matrix::from_fn(src.rows(), src.cols(), |_, _| {
            if rng.gen::<f32>() < keep {
                1.0 / keep
            } else {
                0.0
            }
        });
        let v = src.mul_elem(&mask);
        let ng = self.ng(a);
        self.push(v, Op::Dropout { x: a.idx, mask: Rc::new(mask) }, ng)
    }

    /// Horizontal concatenation of several same-height matrices.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols: need at least one part");
        let rows = self.val(parts[0].idx).rows();
        let total: usize = parts.iter().map(|p| self.val(p.idx).cols()).sum();
        let mut out = Matrix::zeros(rows, total);
        let mut start = 0;
        for p in parts {
            let m = self.val(p.idx);
            assert_eq!(m.rows(), rows, "concat_cols: row count mismatch");
            for r in 0..rows {
                out.row_mut(r)[start..start + m.cols()].copy_from_slice(m.row(r));
            }
            start += m.cols();
        }
        let ng = parts.iter().any(|p| self.ng(*p));
        self.push(out, Op::ConcatCols(parts.iter().map(|p| p.idx).collect()), ng)
    }

    /// Sum of all elements as a `1 x 1` scalar.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Matrix::scalar(self.val(a.idx).sum());
        let ng = self.ng(a);
        self.push(v, Op::SumAll(a.idx), ng)
    }

    /// Mean of all elements as a `1 x 1` scalar.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = Matrix::scalar(self.val(a.idx).mean());
        let ng = self.ng(a);
        self.push(v, Op::MeanAll(a.idx), ng)
    }

    /// Element-wise product with a constant matrix.
    pub fn mul_const(&mut self, x: Var, c: Rc<Matrix>) -> Var {
        let v = self.val(x.idx).mul_elem(&c);
        let ng = self.ng(x);
        self.push(v, Op::MulConst { x: x.idx, c }, ng)
    }

    /// Element-wise sum with a constant matrix.
    pub fn add_const(&mut self, x: Var, c: Rc<Matrix>) -> Var {
        let v = self.val(x.idx).add(&c);
        let ng = self.ng(x);
        self.push(v, Op::AddConst { x: x.idx }, ng)
    }

    /// Masked negative log-likelihood: mean over `mask` of
    /// `-logp[i, targets[i]]`, as a `1 x 1` scalar.
    ///
    /// `logp` must already be log-probabilities (see
    /// [`Tape::log_softmax_rows`]).
    pub fn nll_masked(&mut self, logp: Var, targets: Rc<Vec<usize>>, mask: Rc<Vec<usize>>) -> Var {
        let lp = self.val(logp.idx);
        assert_eq!(targets.len(), lp.rows(), "nll_masked: target length mismatch");
        assert!(!mask.is_empty(), "nll_masked: empty mask");
        let mut total = 0.0;
        for &i in mask.iter() {
            total -= lp.get(i, targets[i]);
        }
        let v = Matrix::scalar(total / mask.len() as f32);
        let ng = self.ng(logp);
        self.push(v, Op::NllMasked { logp: logp.idx, targets, mask }, ng)
    }

    /// Fused GAT-style edge attention.
    ///
    /// For each node `i` with neighbour set `N(i)` (from `nbrs`, expected to
    /// include `i` itself), computes
    /// `out_i = Σ_{j ∈ N(i)} α_ij · wh_j` where
    /// `α_i· = softmax_j( LeakyReLU(sl_i + sr_j) )`.
    ///
    /// `wh` is `n x h`; `sl`, `sr` are `n x 1` attention scores.
    pub fn edge_attention(
        &mut self,
        wh: Var,
        sl: Var,
        sr: Var,
        nbrs: Rc<AdjList>,
        slope: f32,
    ) -> Var {
        let out = edge_attention_forward(
            self.val(wh.idx),
            self.val(sl.idx),
            self.val(sr.idx),
            &nbrs,
            slope,
        );
        let ng = self.ng(wh) || self.ng(sl) || self.ng(sr);
        self.push(out, Op::EdgeAttention { wh: wh.idx, sl: sl.idx, sr: sr.idx, nbrs, slope }, ng)
    }

    /// Fused multi-discrete log-probability and entropy.
    ///
    /// `logits` is `B x (H * arity)`: `H` independent categorical heads of
    /// `arity` choices each. `actions` holds the chosen action per
    /// `(sample, head)` in row-major order. Returns two `B x 1` nodes:
    /// the log-probability `Σ_h log softmax(logits[r, h·arity ..])[action[r, h]]`
    /// and the entropy `Σ_h H(softmax(logits[r, h·arity ..]))`.
    ///
    /// Each head's softmax is computed once, here; both nodes' backward
    /// arms read it from one shared cache and call no `exp` or `ln`.
    pub fn multi_discrete(
        &mut self,
        logits: Var,
        arity: usize,
        actions: Rc<Vec<u8>>,
    ) -> (Var, Var) {
        let lg = self.val(logits.idx);
        assert!(
            arity > 0 && lg.cols().is_multiple_of(arity),
            "logit width must be a multiple of arity"
        );
        let heads = lg.cols() / arity;
        assert_eq!(actions.len(), lg.rows() * heads, "action table size mismatch");
        let mut log_prob = Matrix::zeros(lg.rows(), 1);
        let mut entropy = Matrix::zeros(lg.rows(), 1);
        let mut p = Matrix::zeros(lg.rows(), lg.cols());
        let mut dentropy = Matrix::zeros(lg.rows(), lg.cols());
        for r in 0..lg.rows() {
            let (mut lp_total, mut ent_total) = (0.0, 0.0);
            for h in 0..heads {
                let span = h * arity..(h + 1) * arity;
                let z = &lg.row(r)[span.clone()];
                let ph = &mut p.row_mut(r)[span.clone()];
                // `softmax_slice` and `log_softmax_slice` share this max
                // and these exponentials; for non-negative terms the sum
                // from `+0.0` and `Iterator::sum`'s from `-0.0` agree.
                let max = z.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                for (q, &v) in ph.iter_mut().zip(z) {
                    *q = (v - max).exp();
                }
                let sum: f32 = ph.iter().sum();
                lp_total += z[actions[r * heads + h] as usize] - max - sum.ln();
                if sum > 0.0 {
                    for q in ph.iter_mut() {
                        *q /= sum;
                    }
                }
                // `ln p`, then `−p (ln p + H)` over it; `p = 0` keeps 0.
                let dh = &mut dentropy.row_mut(r)[span];
                for (d, &q) in dh.iter_mut().zip(ph.iter()) {
                    if q > 0.0 {
                        *d = q.ln();
                    }
                }
                let plogp: f32 =
                    ph.iter().zip(dh.iter()).filter(|&(&q, _)| q > 0.0).map(|(&q, &l)| q * l).sum();
                ent_total -= plogp;
                let ent = -plogp;
                for (d, &q) in dh.iter_mut().zip(ph.iter()) {
                    if q > 0.0 {
                        *d = -q * (*d + ent);
                    }
                }
            }
            log_prob.set(r, 0, lp_total);
            entropy.set(r, 0, ent_total);
        }
        let cache = Rc::new(MultiDiscreteCache { arity, p, dentropy });
        let ng = self.ng(logits);
        let op = Op::MultiDiscreteLogProb { logits: logits.idx, actions, cache: cache.clone() };
        let lp = self.push(log_prob, op, ng);
        let ent = self.push(entropy, Op::MultiDiscreteEntropy { logits: logits.idx, cache }, ng);
        (lp, ent)
    }

    // ---------------------------------------------------------------
    // Backward
    // ---------------------------------------------------------------

    /// Runs reverse-mode differentiation from the `1 x 1` scalar `loss`,
    /// then accumulates bound-parameter gradients into their [`Param`]s.
    ///
    /// # Panics
    /// Panics if `loss` is not scalar-shaped.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(self.val(loss.idx).shape(), (1, 1), "backward: loss must be a 1x1 scalar");
        for n in &mut self.nodes {
            n.grad = None;
        }
        self.nodes[loss.idx].grad = Some(Matrix::scalar(1.0));
        for i in (0..=loss.idx).rev() {
            if !self.nodes[i].needs_grad || self.nodes[i].grad.is_none() {
                continue;
            }
            let g = self.nodes[i].grad.take().expect("grad present");
            let contributions = self.backward_step(i, &g);
            self.nodes[i].grad = Some(g);
            for (parent, grad) in contributions {
                debug_assert!(self.nodes[parent].needs_grad, "gradient built for a constant");
                match &mut self.nodes[parent].grad {
                    Some(acc) => acc.add_assign(&grad),
                    slot @ None => *slot = Some(grad),
                }
            }
        }
        for (idx, param) in &self.bindings {
            if let Some(g) = &self.nodes[*idx].grad {
                param.accumulate_grad(g);
            }
        }
    }

    /// Gradient contributions of node `i` (with output gradient `g`) to
    /// those of its parents that need a gradient.
    ///
    /// Only multi-parent ops can have a constant parent: a single-parent
    /// node inherits `needs_grad` from its parent and is skipped by
    /// [`Tape::backward`] when that parent is constant. The multi-parent
    /// arms go through [`Tape::needed`], so a constant operand such as a
    /// feature matrix or a PPO state batch costs nothing here.
    fn backward_step(&self, i: usize, g: &Matrix) -> Vec<(usize, Matrix)> {
        let out_val = &self.nodes[i].value;
        match &self.nodes[i].op {
            Op::Leaf => Vec::new(),
            Op::MatMul(a, b) => self
                .needed([(*a, &|| g.matmul_nt(self.val(*b))), (*b, &|| self.val(*a).matmul_tn(g))]),
            Op::SpMM { m, x } => vec![(*x, m.spmm_t(g))],
            Op::Add(a, b) => self.needed([(*a, &|| g.clone()), (*b, &|| g.clone())]),
            Op::Neg(a) => vec![(*a, g.map(|v| -v))],
            Op::Scale(a, c) => vec![(*a, g.scale(*c))],
            Op::AddBias { x, bias } => self.needed([
                (*x, &|| g.clone()),
                (*bias, &|| {
                    let mut db = Matrix::zeros(1, g.cols());
                    for r in 0..g.rows() {
                        for (o, &v) in db.row_mut(0).iter_mut().zip(g.row(r)) {
                            *o += v;
                        }
                    }
                    db
                }),
            ]),
            Op::Relu(a) => vec![(*a, g.zip(self.val(*a), |gi, x| if x > 0.0 { gi } else { 0.0 }))],
            Op::Elu(a, alpha) => {
                // y = α(e^x − 1) for x ≤ 0, so dy/dx = y + α there.
                vec![(*a, g.zip(out_val, |gi, y| if y > 0.0 { gi } else { gi * (y + alpha) }))]
            }
            Op::Tanh(a) => vec![(*a, g.zip(out_val, |gi, y| gi * (1.0 - y * y)))],
            Op::Exp(a) => vec![(*a, g.mul_elem(out_val))],
            Op::Square(a) => vec![(*a, g.zip(self.val(*a), |gi, x| gi * 2.0 * x))],
            Op::Clamp(a, lo, hi) => {
                let src = self.val(*a);
                let mut da = g.clone();
                for (d, &x) in da.as_mut_slice().iter_mut().zip(src.as_slice()) {
                    if x < *lo || x > *hi {
                        *d = 0.0;
                    }
                }
                vec![(*a, da)]
            }
            Op::MinElem(a, b) => {
                let av = self.val(*a);
                let bv = self.val(*b);
                self.needed([
                    (*a, &|| {
                        g.zip(&av.zip(bv, |x, y| if x <= y { 1.0 } else { 0.0 }), |gi, m| gi * m)
                    }),
                    (*b, &|| {
                        g.zip(&av.zip(bv, |x, y| if x <= y { 0.0 } else { 1.0 }), |gi, m| gi * m)
                    }),
                ])
            }
            Op::LogSoftmaxRows(a) => {
                // dx = g − softmax(x) * rowsum(g); softmax(x) = exp(out).
                let mut da = g.clone();
                for r in 0..da.rows() {
                    let gsum: f32 = g.row(r).iter().sum();
                    let da_row = da.row_mut(r);
                    for (d, &y) in da_row.iter_mut().zip(out_val.row(r)) {
                        *d -= y.exp() * gsum;
                    }
                }
                vec![(*a, da)]
            }
            Op::Dropout { x, mask } => vec![(*x, g.mul_elem(mask))],
            Op::ConcatCols(parts) => {
                let mut out = Vec::with_capacity(parts.len());
                let mut start = 0;
                for &p in parts {
                    let w = self.val(p).cols();
                    if self.nodes[p].needs_grad {
                        let mut dp = Matrix::zeros(g.rows(), w);
                        for r in 0..g.rows() {
                            dp.row_mut(r).copy_from_slice(&g.row(r)[start..start + w]);
                        }
                        out.push((p, dp));
                    }
                    start += w;
                }
                out
            }
            Op::SumAll(a) => {
                let s = g.scalar_value();
                let src = self.val(*a);
                vec![(*a, Matrix::filled(src.rows(), src.cols(), s))]
            }
            Op::MeanAll(a) => {
                let src = self.val(*a);
                let s = g.scalar_value() / src.len().max(1) as f32;
                vec![(*a, Matrix::filled(src.rows(), src.cols(), s))]
            }
            Op::MulConst { x, c } => vec![(*x, g.mul_elem(c))],
            Op::AddConst { x } => vec![(*x, g.clone())],
            Op::NllMasked { logp, targets, mask } => {
                let lp = self.val(*logp);
                let scale = g.scalar_value() / mask.len() as f32;
                let mut dl = Matrix::zeros(lp.rows(), lp.cols());
                for &i in mask.iter() {
                    dl.add_at(i, targets[i], -scale);
                }
                vec![(*logp, dl)]
            }
            Op::EdgeAttention { wh, sl, sr, nbrs, slope } => {
                let need = |p: usize| self.nodes[p].needs_grad;
                let (dwh, dsl, dsr) = edge_attention_backward(
                    self.val(*wh),
                    self.val(*sl),
                    self.val(*sr),
                    nbrs,
                    *slope,
                    g,
                    [need(*wh), need(*sl), need(*sr)],
                );
                [(*wh, dwh), (*sl, dsl), (*sr, dsr)]
                    .into_iter()
                    .filter_map(|(p, d)| Some((p, d?)))
                    .collect()
            }
            Op::MultiDiscreteLogProb { logits, actions, cache } => {
                // d log p_a / dz_k = [k = a] − p_k for each head.
                let arity = cache.arity;
                let heads = cache.p.cols() / arity;
                let mut dl = Matrix::zeros(cache.p.rows(), cache.p.cols());
                for r in 0..dl.rows() {
                    let gr = g.get(r, 0);
                    if gr == 0.0 {
                        continue;
                    }
                    let drow = dl.row_mut(r);
                    for (h, (dh, ph)) in drow
                        .chunks_exact_mut(arity)
                        .zip(cache.p.row(r).chunks_exact(arity))
                        .enumerate()
                    {
                        let chosen = actions[r * heads + h] as usize;
                        for (k, (d, &pk)) in dh.iter_mut().zip(ph).enumerate() {
                            let ind = if k == chosen { 1.0 } else { 0.0 };
                            *d += gr * (ind - pk);
                        }
                    }
                }
                vec![(*logits, dl)]
            }
            Op::MultiDiscreteEntropy { logits, cache } => {
                // dH/dz_k = −p_k (ln p_k + H) for each head.
                let mut dl = Matrix::zeros(cache.p.rows(), cache.p.cols());
                for r in 0..dl.rows() {
                    let gr = g.get(r, 0);
                    if gr == 0.0 {
                        continue;
                    }
                    let terms = cache.p.row(r).iter().zip(cache.dentropy.row(r));
                    for (d, (&pk, &dk)) in dl.row_mut(r).iter_mut().zip(terms) {
                        if pk > 0.0 {
                            *d += gr * dk;
                        }
                    }
                }
                vec![(*logits, dl)]
            }
        }
    }

    /// `(parent, grad())` for each listed parent that needs a gradient,
    /// in list order; the gradient of a constant parent is never built.
    fn needed<const K: usize>(
        &self,
        parts: [(usize, &dyn Fn() -> Matrix); K],
    ) -> Vec<(usize, Matrix)> {
        parts
            .into_iter()
            .filter(|&(p, _)| self.nodes[p].needs_grad)
            .map(|(p, f)| (p, f()))
            .collect()
    }
}

/// Attention rows `α_i· = softmax_j(LeakyReLU(sl_i + sr_j))` over each
/// node's neighbour list, shared by the forward and backward passes.
fn attention_rows(sl: &Matrix, sr: &Matrix, nbrs: &AdjList, slope: f32) -> Vec<Vec<f32>> {
    (0..nbrs.len())
        .map(|i| {
            let mut e: Vec<f32> = nbrs
                .neighbors(i)
                .iter()
                .map(|&j| {
                    let x = sl.get(i, 0) + sr.get(j, 0);
                    if x > 0.0 {
                        x
                    } else {
                        slope * x
                    }
                })
                .collect();
            softmax_slice(&mut e);
            e
        })
        .collect()
}

/// Forward pass of the fused GAT attention op.
fn edge_attention_forward(
    wh: &Matrix,
    sl: &Matrix,
    sr: &Matrix,
    nbrs: &AdjList,
    slope: f32,
) -> Matrix {
    let n = nbrs.len();
    assert_eq!(wh.rows(), n, "edge_attention: wh row mismatch");
    assert_eq!(sl.shape(), (n, 1), "edge_attention: sl must be n x 1");
    assert_eq!(sr.shape(), (n, 1), "edge_attention: sr must be n x 1");
    let mut out = Matrix::zeros(n, wh.cols());
    for (i, alpha) in attention_rows(sl, sr, nbrs, slope).iter().enumerate() {
        let out_row = out.row_mut(i);
        for (&j, &a) in nbrs.neighbors(i).iter().zip(alpha) {
            for (o, &w) in out_row.iter_mut().zip(wh.row(j)) {
                *o += a * w;
            }
        }
    }
    out
}

/// Backward pass of the fused GAT attention op: the gradients of `wh`,
/// `sl` and `sr`, each computed only when its `need` flag is set.
fn edge_attention_backward(
    wh: &Matrix,
    sl: &Matrix,
    sr: &Matrix,
    nbrs: &AdjList,
    slope: f32,
    g: &Matrix,
    need: [bool; 3],
) -> (Option<Matrix>, Option<Matrix>, Option<Matrix>) {
    let n = nbrs.len();
    let [need_wh, need_sl, need_sr] = need;
    let mut dwh = need_wh.then(|| Matrix::zeros(wh.rows(), wh.cols()));
    let mut dsl = need_sl.then(|| Matrix::zeros(n, 1));
    let mut dsr = need_sr.then(|| Matrix::zeros(n, 1));
    let mut dalpha: Vec<f32> = Vec::new();
    for (i, alpha) in attention_rows(sl, sr, nbrs, slope).iter().enumerate() {
        let neigh = nbrs.neighbors(i);
        let g_row = g.row(i);
        // dL/dwh_j += α_ij g_i
        if let Some(dwh) = &mut dwh {
            for (&j, &a) in neigh.iter().zip(alpha) {
                for (dw, &gv) in dwh.row_mut(j).iter_mut().zip(g_row) {
                    *dw += a * gv;
                }
            }
        }
        if !(need_sl || need_sr) {
            continue;
        }
        // dL/dα_ij = g_i · wh_j
        dalpha.clear();
        dalpha.extend(neigh.iter().map(|&j| {
            let mut dot = 0.0;
            for (&gv, &wv) in g_row.iter().zip(wh.row(j)) {
                dot += gv * wv;
            }
            dot
        }));
        // softmax backward: de_j = α_j (dα_j − Σ_k α_k dα_k)
        let mix: f32 = alpha.iter().zip(&dalpha).map(|(&a, &d)| a * d).sum();
        for ((&j, &a), &da) in neigh.iter().zip(alpha).zip(&dalpha) {
            let de = a * (da - mix);
            let x = sl.get(i, 0) + sr.get(j, 0);
            let de = if x > 0.0 { de } else { de * slope };
            if let Some(dsl) = &mut dsl {
                dsl.add_at(i, 0, de);
            }
            if let Some(dsr) = &mut dsr {
                dsr.add_at(j, 0, de);
            }
        }
    }
    (dwh, dsl, dsr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_grad;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_forward_and_grad() {
        // loss = sum(A @ B); dA = ones @ B^T; dB = A^T @ ones.
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let mut t = Tape::new();
        let va = t.leaf(a.clone());
        let vb = t.leaf(b.clone());
        let c = t.matmul(va, vb);
        let loss = t.sum_all(c);
        t.backward(loss);
        let da = t.grad(va).unwrap();
        let want_da = Matrix::ones(2, 2).matmul_nt(&b);
        assert!(da.max_abs_diff(&want_da) < 1e-5);
        let db = t.grad(vb).unwrap();
        let want_db = a.matmul_tn(&Matrix::ones(2, 2));
        assert!(db.max_abs_diff(&want_db) < 1e-5);
    }

    #[test]
    fn gradcheck_elementwise_chain() {
        let x0 = Matrix::from_vec(2, 3, vec![0.3, -0.7, 1.2, 0.05, -1.4, 2.0]);
        check_grad(&x0, 1e-2, |t, x| {
            let a = t.tanh(x);
            let b = t.neg(a);
            let c = t.exp(b);
            let d = t.scale(c, 0.7);
            let e = t.square(d);
            t.mean_all(e)
        });
    }

    #[test]
    fn gradcheck_relu_family() {
        // Keep values away from the kink at 0.
        let x0 = Matrix::from_vec(2, 2, vec![0.5, -0.8, 1.3, -0.2]);
        check_grad(&x0, 1e-2, |t, x| {
            let a = t.relu(x);
            let b = t.elu(x, 1.0);
            let ab = t.add(a, b);
            t.sum_all(ab)
        });
    }

    #[test]
    fn gradcheck_log_softmax_nll() {
        let x0 = Matrix::from_vec(
            3,
            4,
            vec![0.1, 0.2, -0.4, 0.9, 1.5, -0.3, 0.0, 0.7, -1.0, 0.4, 0.3, -0.6],
        );
        let targets = Rc::new(vec![2usize, 0, 3]);
        let mask = Rc::new(vec![0usize, 2]);
        check_grad(&x0, 1e-2, move |t, x| {
            let lp = t.log_softmax_rows(x);
            t.nll_masked(lp, targets.clone(), mask.clone())
        });
    }

    #[test]
    fn gradcheck_spmm() {
        let m = Arc::new(CsrMatrix::from_triplets(
            3,
            3,
            &[(0, 1, 2.0), (1, 0, -1.0), (1, 2, 0.5), (2, 2, 1.0)],
        ));
        let x0 = Matrix::from_vec(3, 2, vec![0.1, 0.2, -0.3, 0.4, 0.5, -0.6]);
        check_grad(&x0, 1e-2, move |t, x| {
            let y = t.spmm(m.clone(), x);
            let z = t.square(y);
            t.sum_all(z)
        });
    }

    #[test]
    fn gradcheck_add_bias_and_concat() {
        let x0 = Matrix::from_vec(2, 2, vec![0.4, -0.2, 0.9, 0.1]);
        check_grad(&x0, 1e-2, |t, x| {
            let b = t.leaf(Matrix::row_vector(&[0.3, -0.5]));
            let y = t.add_bias(x, b);
            let z = t.concat_cols(&[x, y]);
            let s = t.square(z);
            t.mean_all(s)
        });
    }

    #[test]
    fn gradcheck_min_clamp() {
        // Values chosen away from ties and clamp boundaries; `x` is the
        // first operand of one `min_elem` and the second of the other, so
        // both of its backward branches are checked.
        let x0 = Matrix::from_vec(2, 2, vec![0.4, -0.9, 1.6, 0.2]);
        let other = Rc::new(Matrix::from_vec(2, 2, vec![0.1, 0.0, 2.0, -0.5]));
        check_grad(&x0, 1e-2, move |t, x| {
            let o = t.constant((*other).clone());
            let lhs = t.min_elem(x, o);
            let rhs = t.min_elem(o, x);
            let cl = t.clamp(x, -0.7, 1.2);
            let a = t.add(lhs, rhs);
            let b = t.add(a, cl);
            let s = t.square(b);
            t.sum_all(s)
        });
    }

    #[test]
    fn gradcheck_const_operand_ops() {
        let x0 = Matrix::from_vec(1, 3, vec![0.8, -1.5, 0.2]);
        let shift = Rc::new(Matrix::from_vec(1, 3, vec![-0.3, 0.9, 0.1]));
        let weight = Rc::new(Matrix::from_vec(1, 3, vec![1.7, -0.6, 2.4]));
        check_grad(&x0, 1e-2, move |t, x| {
            let shifted = t.add_const(x, shift.clone());
            let e = t.exp(shifted);
            let w = t.mul_const(e, weight.clone());
            let m = t.mean_all(w);
            t.neg(m)
        });
    }

    /// The loss `PpoAgent::update` records, op for op: the clipped
    /// surrogate, the value loss and the entropy bonus over one minibatch
    /// of 4 samples with 2 heads of arity 3. The critic's output is a
    /// constant projection of the same leaf so that one gradcheck covers
    /// both branches.
    #[test]
    fn gradcheck_ppo_clipped_surrogate_loss() {
        let (clip, vf_coef, ent_coef) = (0.2f32, 0.5f32, 0.05f32);
        let x0 = Matrix::from_vec(
            4,
            6,
            vec![
                0.3, -0.1, 0.8, 0.2, 0.5, -0.7, //
                1.0, 0.0, -0.4, -0.2, 0.6, 0.9, //
                -0.5, 0.4, 0.1, 0.7, -0.3, 0.2, //
                0.6, 0.2, -0.8, 0.0, 0.3, -0.1,
            ],
        );
        let actions = Rc::new(vec![0u8, 2, 1, 1, 2, 0, 1, 2]);
        let logp0 = {
            let mut t = Tape::new();
            let x = t.constant(x0.clone());
            let (lp, _) = t.multi_discrete(x, 3, actions.clone());
            t.value(lp).clone()
        };
        // Every ratio lies outside [1 - clip, 1 + clip], so the two
        // surrogates never tie; rows 0 and 1 take the unclipped branch,
        // rows 2 and 3 the clipped one.
        let ratios = [1.5f32, 0.6, 1.5, 0.5];
        let neg_old = Rc::new(Matrix::from_fn(4, 1, |r, _| ratios[r].ln() - logp0.get(r, 0)));
        let adv = Rc::new(Matrix::column(&[-0.8, 1.1, 0.5, -0.3]));
        let critic = Rc::new(Matrix::column(&[0.4, -0.2, 0.3, 0.1, -0.5, 0.6]));
        let neg_ret = Rc::new(Matrix::column(&[-0.3, 0.2, 0.5, -0.1]));
        check_grad(&x0, 1e-2, move |t, logits| {
            let (logp, entropy) = t.multi_discrete(logits, 3, actions.clone());
            let diff = t.add_const(logp, neg_old.clone());
            let ratio = t.exp(diff);
            let surr1 = t.mul_const(ratio, adv.clone());
            let clipped = t.clamp(ratio, 1.0 - clip, 1.0 + clip);
            let surr2 = t.mul_const(clipped, adv.clone());
            let surr = t.min_elem(surr1, surr2);
            let mean_surr = t.mean_all(surr);
            let policy_loss = t.neg(mean_surr);

            let w = t.constant((*critic).clone());
            let value = t.matmul(logits, w);
            let verr = t.add_const(value, neg_ret.clone());
            let vsq = t.square(verr);
            let value_loss = t.mean_all(vsq);

            let mean_entropy = t.mean_all(entropy);

            let scaled_v = t.scale(value_loss, vf_coef);
            let scaled_e = t.scale(mean_entropy, -ent_coef);
            let partial = t.add(policy_loss, scaled_v);
            t.add(partial, scaled_e)
        });
    }

    #[test]
    fn gradcheck_edge_attention() {
        let nbrs =
            Rc::new(AdjList::from_neighbor_lists(&[vec![0, 1, 2], vec![1, 0], vec![2, 1, 0]]));
        let wh0 = Matrix::from_vec(3, 2, vec![0.3, -0.2, 0.8, 0.1, -0.5, 0.6]);
        let sl = Rc::new(Matrix::column(&[0.2, -0.4, 0.7]));
        let sr = Rc::new(Matrix::column(&[-0.1, 0.5, 0.3]));
        let n2 = nbrs.clone();
        let (sl2, sr2) = (sl.clone(), sr.clone());
        check_grad(&wh0, 2e-2, move |t, wh| {
            let vsl = t.leaf((*sl2).clone());
            let vsr = t.leaf((*sr2).clone());
            let out = t.edge_attention(wh, vsl, vsr, n2.clone(), 0.2);
            let sq = t.square(out);
            t.sum_all(sq)
        });
        // Also check the score gradients.
        let sl0 = (*sl).clone();
        let nbrs2 = nbrs.clone();
        check_grad(&sl0, 2e-2, move |t, vsl| {
            let wh = t.constant(Matrix::from_vec(3, 2, vec![0.3, -0.2, 0.8, 0.1, -0.5, 0.6]));
            let vsr = t.leaf((*sr).clone());
            let out = t.edge_attention(wh, vsl, vsr, nbrs2.clone(), 0.2);
            let sq = t.square(out);
            t.sum_all(sq)
        });
    }

    #[test]
    fn gradcheck_multi_discrete() {
        // 2 samples, 2 heads of arity 3; the log-probability and the
        // entropy are checked alone and together.
        let x0 = Matrix::from_vec(
            2,
            6,
            vec![0.3, -0.1, 0.8, 0.2, 0.5, -0.7, 1.0, 0.0, -0.4, -0.2, 0.6, 0.9],
        );
        let actions = Rc::new(vec![0u8, 2, 1, 1]);
        let weights = Rc::new(Matrix::from_vec(2, 1, vec![0.7, -1.3]));
        for (w_lp, w_ent) in [(1.0, 0.0), (0.0, 1.0), (1.0, -0.4)] {
            let (actions, weights) = (actions.clone(), weights.clone());
            check_grad(&x0, 1e-2, move |t, x| {
                let (lp, ent) = t.multi_discrete(x, 3, actions.clone());
                let w = t.mul_const(lp, weights.clone());
                let lp_sum = t.sum_all(w);
                let ent_mean = t.mean_all(ent);
                let a = t.scale(lp_sum, w_lp);
                let b = t.scale(ent_mean, w_ent);
                t.add(a, b)
            });
        }
    }

    #[test]
    fn multi_discrete_log_prob_matches_manual() {
        let mut t = Tape::new();
        let logits = t.constant(Matrix::from_vec(1, 6, vec![1.0, 2.0, 3.0, 0.0, 0.0, 0.0]));
        let (lp, _) = t.multi_discrete(logits, 3, Rc::new(vec![2u8, 0]));
        let mut head1 = [1.0f32, 2.0, 3.0];
        crate::matrix::log_softmax_slice(&mut head1);
        let want = head1[2] + (1.0f32 / 3.0).ln();
        assert!((t.value(lp).get(0, 0) - want).abs() < 1e-5);
    }

    #[test]
    fn multi_discrete_entropy_uniform_is_ln_arity() {
        let mut t = Tape::new();
        let logits = t.constant(Matrix::zeros(2, 6));
        let (_, e) = t.multi_discrete(logits, 3, Rc::new(vec![1u8; 4]));
        let want = 2.0 * 3.0f32.ln();
        assert!((t.value(e).get(0, 0) - want).abs() < 1e-5);
        assert!((t.value(e).get(1, 0) - want).abs() < 1e-5);
    }

    /// The separate log-probability op `multi_discrete` replaced, forward
    /// and backward as it was: both recompute each head's softmax.
    /// Returns the `B x 1` value and the logits gradient for upstream `g`.
    fn removed_log_prob(lg: &Matrix, arity: usize, actions: &[u8], g: &Matrix) -> (Matrix, Matrix) {
        let heads = lg.cols() / arity;
        let mut out = Matrix::zeros(lg.rows(), 1);
        let mut scratch = vec![0f32; arity];
        for r in 0..lg.rows() {
            let row = lg.row(r);
            let mut total = 0.0;
            for h in 0..heads {
                scratch.copy_from_slice(&row[h * arity..(h + 1) * arity]);
                crate::matrix::log_softmax_slice(&mut scratch);
                total += scratch[actions[r * heads + h] as usize];
            }
            out.set(r, 0, total);
        }
        let mut dl = Matrix::zeros(lg.rows(), lg.cols());
        let mut p = vec![0f32; arity];
        for r in 0..lg.rows() {
            let gr = g.get(r, 0);
            if gr == 0.0 {
                continue;
            }
            let row = lg.row(r);
            for h in 0..heads {
                p.copy_from_slice(&row[h * arity..(h + 1) * arity]);
                softmax_slice(&mut p);
                let chosen = actions[r * heads + h] as usize;
                let drow = dl.row_mut(r);
                for (k, &pk) in p.iter().enumerate() {
                    let ind = if k == chosen { 1.0 } else { 0.0 };
                    drow[h * arity + k] += gr * (ind - pk);
                }
            }
        }
        (out, dl)
    }

    /// The separate entropy op `multi_discrete` replaced, as it was.
    fn removed_entropy(lg: &Matrix, arity: usize, g: &Matrix) -> (Matrix, Matrix) {
        let heads = lg.cols() / arity;
        let mut out = Matrix::zeros(lg.rows(), 1);
        let mut p = vec![0f32; arity];
        for r in 0..lg.rows() {
            let row = lg.row(r);
            let mut total = 0.0;
            for h in 0..heads {
                p.copy_from_slice(&row[h * arity..(h + 1) * arity]);
                softmax_slice(&mut p);
                total -= p.iter().filter(|&&q| q > 0.0).map(|&q| q * q.ln()).sum::<f32>();
            }
            out.set(r, 0, total);
        }
        let mut dl = Matrix::zeros(lg.rows(), lg.cols());
        for r in 0..lg.rows() {
            let gr = g.get(r, 0);
            if gr == 0.0 {
                continue;
            }
            let row = lg.row(r);
            for h in 0..heads {
                p.copy_from_slice(&row[h * arity..(h + 1) * arity]);
                softmax_slice(&mut p);
                let ent: f32 = -p.iter().filter(|&&q| q > 0.0).map(|&q| q * q.ln()).sum::<f32>();
                let drow = dl.row_mut(r);
                for (k, &pk) in p.iter().enumerate() {
                    if pk > 0.0 {
                        drow[h * arity + k] += gr * (-pk * (pk.ln() + ent));
                    }
                }
            }
        }
        (out, dl)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// `multi_discrete`'s values and logits gradients equal the two ops it
    /// replaced bit for bit: on random logits, and on heads whose
    /// smallest probability underflows to 0, with upstream gradients that
    /// include 0 (a skipped row) and both signs.
    #[test]
    fn multi_discrete_matches_the_removed_ops_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(24);
        let (rows, heads, arity) = (7, 9, 3);
        let mut lg = Matrix::from_fn(rows, heads * arity, |_, _| rng.gen_range(-4.0f32..4.0));
        // Underflowing heads: e^-200 is 0 in f32, so p = 0 for one or two
        // choices and `ln p` is never taken there.
        lg.row_mut(0)[..3].copy_from_slice(&[0.0, -200.0, 0.0]);
        lg.row_mut(1)[3..6].copy_from_slice(&[-200.0, 5.0, -150.0]);
        lg.row_mut(2)[..3].copy_from_slice(&[0.0, 0.0, 0.0]);
        let actions: Vec<u8> = (0..rows * heads).map(|_| rng.gen_range(0..arity as u8)).collect();
        let actions = Rc::new(actions);
        let g_lp = Matrix::from_fn(rows, 1, |r, _| [0.7, -1.3, 0.0, 2.5, -0.1, 1.0, -0.0][r]);
        let g_ent = Matrix::from_fn(rows, 1, |r, _| [-0.4, 0.0, 1.1, -2.0, 0.3, -0.05, 0.9][r]);
        let (want_lp, want_dlp) = removed_log_prob(&lg, arity, &actions, &g_lp);
        let (want_ent, want_dent) = removed_entropy(&lg, arity, &g_ent);

        // Each arm alone, then both into one gradient as the PPO loss
        // takes them.
        for (use_lp, use_ent) in [(true, false), (false, true), (true, true)] {
            let mut t = Tape::new();
            let x = t.leaf(lg.clone());
            let (lp, ent) = t.multi_discrete(x, arity, actions.clone());
            assert_eq!(bits(t.value(lp)), bits(&want_lp), "log-prob value");
            assert_eq!(bits(t.value(ent)), bits(&want_ent), "entropy value");
            let weighted_lp = t.mul_const(lp, Rc::new(g_lp.clone()));
            let weighted_ent = t.mul_const(ent, Rc::new(g_ent.clone()));
            let loss = match (use_lp, use_ent) {
                (true, false) => t.sum_all(weighted_lp),
                (false, true) => t.sum_all(weighted_ent),
                _ => {
                    let a = t.sum_all(weighted_lp);
                    let b = t.sum_all(weighted_ent);
                    t.add(a, b)
                }
            };
            t.backward(loss);
            let want = match (use_lp, use_ent) {
                (true, false) => want_dlp.clone(),
                (false, true) => want_dent.clone(),
                _ => want_dent.add(&want_dlp),
            };
            assert_eq!(bits(t.grad(x).unwrap()), bits(&want), "grad ({use_lp}, {use_ent})");
        }
    }

    #[test]
    fn dropout_scales_kept_values() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut t = Tape::new();
        let x = t.leaf(Matrix::ones(10, 10));
        let y = t.dropout(x, 0.5, &mut rng);
        for &v in t.value(y).as_slice() {
            assert!(v == 0.0 || (v - 2.0).abs() < 1e-6);
        }
        let s = t.sum_all(y);
        t.backward(s);
        // Gradient equals the mask.
        let gx = t.grad(x).unwrap();
        for (&gv, &yv) in gx.as_slice().iter().zip(t.value(y).as_slice()) {
            assert_eq!(gv, yv);
        }
    }

    #[test]
    fn constants_receive_no_grad() {
        let mut t = Tape::new();
        let c = t.constant(Matrix::ones(2, 2));
        let x = t.leaf(Matrix::ones(2, 2));
        let y = t.add(c, x);
        let s = t.sum_all(y);
        t.backward(s);
        assert!(t.grad(c).is_none());
        assert!(t.grad(x).is_some());
    }

    #[test]
    fn grad_accumulates_over_reuse() {
        // loss = sum(x + x) => dx = 2.
        let mut t = Tape::new();
        let x = t.leaf(Matrix::ones(1, 2));
        let y = t.add(x, x);
        let s = t.sum_all(y);
        t.backward(s);
        assert_eq!(t.grad(x).unwrap().as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn edge_attention_uniform_scores_average_neighbors() {
        // With equal scores the attention is a plain neighbourhood mean.
        let nbrs = Rc::new(AdjList::from_neighbor_lists(&[vec![0, 1], vec![1, 0]]));
        let mut t = Tape::new();
        let wh = t.constant(Matrix::from_vec(2, 1, vec![2.0, 4.0]));
        let sl = t.constant(Matrix::zeros(2, 1));
        let sr = t.constant(Matrix::zeros(2, 1));
        let out = t.edge_attention(wh, sl, sr, nbrs, 0.2);
        assert!((t.value(out).get(0, 0) - 3.0).abs() < 1e-6);
        assert!((t.value(out).get(1, 0) - 3.0).abs() < 1e-6);
    }
}
