//! # mpirical-tensor
//!
//! A small, auditable CPU tensor library purpose-built for the MPI-RICAL
//! reproduction's transformer (the paper fine-tunes SPT-Code with PyTorch on
//! a V100; offline we train from scratch on CPU, so the substrate is ours to
//! build).
//!
//! Contents:
//!
//! * [`Tensor`] — dense row-major `f32` tensors with the usual elementwise,
//!   reduction and shaping operations;
//! * [`matmul()`] — cache-blocked i-k-j matrix multiply, parallelized across
//!   output-row slices by [`par`] (disjoint output, no locks — the
//!   data-parallel structure the HPC guides prescribe); the
//!   `A·Bᵀ` / `Aᵀ·B` variants attention and backward need use the same
//!   row-partition scheme, and the single-row [`vecmat`] / [`vecmat_bt`]
//!   kernels serve KV-cached incremental decoding without allocating, and
//!   the register-blocked [`batch_matmul_packed`] / [`batch_linear_packed`]
//!   kernels fuse N concurrent requests' projections into one pass over a
//!   [`PackedMat`] (each output row bitwise-equal to its `vecmat`, so
//!   batching never changes logits);
//! * [`QuantMat`] — symmetric per-output-channel **int8** weight
//!   quantization with packed panels, plus the [`vecmat_q`] /
//!   [`batch_matmul_q`] W8A8 kernels (exact `i32` accumulation, one
//!   dequantize per output) that shrink weight traffic 4× on the
//!   memory-bound decode step;
//! * [`tanhf`] / [`gelu`] — a branch-free port of glibc 2.36's fdlibm
//!   `tanhf`, bitwise equal to `f32::tanh` on all 2³² inputs but
//!   independent of the host libm and vectorisable, and the one GELU every
//!   forward and backward evaluates;
//! * [`Tape`] / [`Var`] — reverse-mode autograd over a per-step tape, with
//!   every op a transformer needs (matmul, softmax, layernorm, GELU,
//!   embedding gather, fused cross-entropy, dropout, column slice/concat);
//! * [`ParamStore`] / [`Adam`] — named parameter values, each held once
//!   (every matrix in the [`PackedMat`] layout the kernels stream), and
//!   AdamW with gradient clipping, the warmup + inverse-sqrt LR schedule and
//!   its own moment buffers (a store holds values only);
//! * [`par`] — the one parallel-for every data-parallel section runs
//!   through (kernels here, the decoder's lanes, the encoder's row blocks,
//!   training shards); a section inside a section runs serial.
//!
//! Every differentiable op is covered by a central-difference gradient check
//! in `autograd::tests`.
//!
//! ```
//! use mpirical_tensor::{Tape, Tensor, ParamStore, Adam};
//! use rand::SeedableRng;
//!
//! let mut store = ParamStore::new();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let w = store.add("w", mpirical_tensor::init::xavier_uniform(&[4, 2], &mut rng));
//!
//! let mut tape = Tape::new();
//! let x = tape.constant(Tensor::ones(&[3, 4]));
//! let wv = tape.param(&store, w);
//! let y = tape.matmul(x, wv);
//! let loss = tape.mean_all(y);
//! let grads = tape.backward(loss);
//! Adam::new(1e-2).step(&mut store, &grads);
//! assert!(grads.get(w).is_some());
//! ```

pub mod autograd;
pub mod init;
pub mod math;
pub mod matmul;
pub mod optim;
pub mod par;
pub mod quant;
pub mod tensor;

pub use autograd::{Grads, Tape, Var};
pub use math::{gelu, tanhf};
pub use matmul::{
    batch_linear_packed, batch_matmul_packed, batch_matmul_slice, dot_rows, matmul, matmul_at,
    matmul_bt, vecmat, vecmat_acc, vecmat_bt, PackedMat,
};
pub use optim::{Adam, ParamId, ParamStore};
pub use par::available_cores;
pub use quant::{batch_linear_q, batch_matmul_q, quantize_row, vecmat_q, vecmat_q_pre, QuantMat};
pub use tensor::Tensor;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_matrix(max_dim: usize) -> impl Strategy<Value = Tensor> {
        (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
            proptest::collection::vec(-3.0f32..3.0, r * c)
                .prop_map(move |data| Tensor::from_vec(&[r, c], data))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// (A B)ᵀ = Bᵀ Aᵀ.
        #[test]
        fn matmul_transpose_identity(a in arb_matrix(8), b in arb_matrix(8)) {
            let k = a.shape[1];
            let b = Tensor::from_vec(&[k, b.shape[1]], {
                let need = k * b.shape[1];
                b.data.iter().cycle().take(need).copied().collect()
            });
            let ab_t = matmul(&a, &b).transpose2();
            let bt_at = matmul(&b.transpose2(), &a.transpose2());
            prop_assert_eq!(ab_t.shape, bt_at.shape);
            for (x, y) in ab_t.data.iter().zip(&bt_at.data) {
                prop_assert!((x - y).abs() < 1e-3, "{} vs {}", x, y);
            }
        }

        /// Softmax output is a probability distribution per row.
        #[test]
        fn softmax_rows_are_distributions(t in arb_matrix(10)) {
            let s = t.softmax_lastdim();
            let d = s.last_dim();
            for row in s.data.chunks(d) {
                let sum: f32 = row.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-4);
                prop_assert!(row.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
            }
        }

        /// add is commutative, mul distributes over scale.
        #[test]
        fn elementwise_algebra(t in arb_matrix(6), s in -2.0f32..2.0) {
            let u = t.map(|x| x * 0.5 - 1.0);
            prop_assert_eq!(t.add(&u), u.add(&t));
            let left = t.mul(&u).scale(s);
            let right = t.scale(s).mul(&u);
            for (x, y) in left.data.iter().zip(&right.data) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        /// Backward of sum-of-elements through matmul equals the analytic
        /// outer-product form.
        #[test]
        fn matmul_grad_analytic(m in 1usize..5, k in 1usize..5, n in 1usize..5) {
            let a = Tensor::full(&[m, k], 0.5);
            let b = Tensor::full(&[k, n], -0.25);
            let mut store = ParamStore::new();
            let pa = store.add("a", a);
            let pb = store.add("b", b);
            let mut tape = Tape::new();
            let va = tape.param(&store, pa);
            let vb = tape.param(&store, pb);
            let c = tape.matmul(va, vb);
            // loss = sum(C) → dA = 1 @ Bᵀ, dB = Aᵀ @ 1
            let loss = tape.scale(c, 1.0);
            let grads = tape.backward(loss);
            let ga = grads.get(pa).unwrap();
            // dA[i,k] = Σ_j B[k,j] = n * (−0.25)
            for &g in &ga.data {
                prop_assert!((g - (n as f32 * -0.25)).abs() < 1e-4);
            }
            let gb = grads.get(pb).unwrap();
            for &g in &gb.data {
                prop_assert!((g - (m as f32 * 0.5)).abs() < 1e-4);
            }
        }
    }
}
