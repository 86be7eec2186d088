//! # graphrare-tensor
//!
//! Dense linear algebra and reverse-mode automatic differentiation for the
//! GraphRARE workspace.
//!
//! The GraphRARE paper (ICDE 2024) trains its GNN and PPO modules with
//! PyTorch on a GPU; this crate is the from-scratch CPU substitute. It
//! provides:
//!
//! * [`Matrix`] — a row-major dense `f32` matrix with the ops GNNs need
//!   (matmul, transpose-fused products, softmax, concatenation, …).
//! * [`CsrMatrix`] — compressed sparse row matrices for graph propagation
//!   operators and the mostly-zero node features, treated as constants
//!   by autograd.
//! * [`Tape`]/[`Var`] — a tape-based autograd engine with a closed op set,
//!   each backward rule validated against finite differences.
//! * [`Param`] — shared trainable weights consumed by [`optim`] optimisers
//!   (Adam, SGD).
//! * [`init`] — seeded Glorot/He/normal initialisers.
//! * [`gradcheck`] — finite-difference gradient checking helpers.
//! * [`parallel`] — the std-only scoped-thread runtime behind the hot
//!   kernels, controlled by the `GRAPHRARE_THREADS` knob; results are
//!   bit-identical to serial execution for any thread count.
//!
//! ## Example
//!
//! ```
//! use graphrare_tensor::{Matrix, Param, Tape};
//! use graphrare_tensor::optim::{Adam, Optimizer};
//! use graphrare_tensor::param::zero_grads;
//!
//! // Fit w to minimise (w * 2 - 6)^2  =>  w -> 3.
//! let w = Param::new("w", Matrix::scalar(0.0));
//! let mut opt = Adam::new(0.1, 0.0);
//! for _ in 0..200 {
//!     zero_grads(&[w.clone()]);
//!     let mut tape = Tape::new();
//!     let vw = tape.param(&w);
//!     let scaled = tape.scale(vw, 2.0);
//!     let shifted = tape.add_scalar(scaled, -6.0);
//!     let sq = tape.square(shifted);
//!     let loss = tape.sum_all(sq);
//!     tape.backward(loss);
//!     opt.step(&[w.clone()]);
//! }
//! assert!((w.value().scalar_value() - 3.0).abs() < 0.05);
//! ```

#![warn(missing_docs)]

/// Telemetry prologue of one parallel kernel: counts the call, its
/// output rows and the worker threads the runtime will use, then opens
/// a timing span named `kernel.<name>`. Everything is skipped (bar one
/// atomic load) while telemetry is disabled, and nothing here touches
/// the computation itself — results are bit-identical either way.
macro_rules! kernel_telemetry {
    ($name:literal, $rows:expr) => {{
        if graphrare_telemetry::enabled() {
            let rows = $rows;
            graphrare_telemetry::counter(concat!("kernel.", $name, ".calls"), 1);
            graphrare_telemetry::counter(concat!("kernel.", $name, ".rows"), rows as u64);
            graphrare_telemetry::gauge_max(
                "kernel.threads.max",
                $crate::parallel::current_threads().min(rows.max(1)) as u64,
            );
        }
        graphrare_telemetry::span(concat!("kernel.", $name))
    }};
}

pub mod gradcheck;
pub mod init;
pub mod matrix;
pub mod optim;
pub mod parallel;
pub mod param;
pub mod sparse;
pub mod tape;

pub use matrix::Matrix;
pub use param::Param;
pub use sparse::{CsrMatrix, DenseRow};
pub use tape::{AdjList, Tape, Var};
