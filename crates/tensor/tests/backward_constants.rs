//! `Tape::backward` never differentiates a constant: the gradient of a
//! constant left operand of `matmul` (a feature matrix, a PPO state
//! batch) is not built at all, which the `kernel.matmul_nt` call counter
//! proves. This binary turns the process-global telemetry registry on,
//! so it holds this one test.

use std::rc::Rc;

use graphrare_tensor::{Matrix, Tape};

#[test]
fn matmul_backward_skips_the_constant_operand() {
    let x =
        Matrix::from_fn(5, 4, |r, c| if (r + c) % 3 == 0 { 0.0 } else { (r * 4 + c) as f32 - 7.5 });
    let w = Matrix::from_fn(4, 3, |r, c| 0.25 * (r as f32) - 0.5 * (c as f32) + 0.125);
    // A non-uniform upstream gradient, so W's gradient is X^T G.
    let g = Rc::new(Matrix::from_fn(5, 3, |r, c| (r as f32 + 1.0) * 0.5 - c as f32));

    graphrare_telemetry::set_enabled(true);
    graphrare_telemetry::reset();
    let mut tape = Tape::new();
    let vx = tape.constant(x.clone());
    let vw = tape.leaf(w);
    let y = tape.matmul(vx, vw);
    let weighted = tape.mul_const(y, g.clone());
    let loss = tape.sum_all(weighted);
    tape.backward(loss);
    let calls = |name| graphrare_telemetry::snapshot().counter(name);
    let (nt_calls, tn_calls) = (calls("kernel.matmul_nt.calls"), calls("kernel.matmul_tn.calls"));
    graphrare_telemetry::set_enabled(false);

    assert!(tape.grad(vx).is_none(), "a constant received a gradient");
    let want = x.matmul_tn(&g);
    let got = tape.grad(vw).expect("W needs a gradient");
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(&want), "W's gradient is not bit-equal to X^T G");
    assert_eq!(nt_calls, 0, "backward built the constant operand's gradient G W^T");
    assert_eq!(tn_calls, 1, "W's gradient should take exactly one matmul_tn");
}
