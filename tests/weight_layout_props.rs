//! Property-test suite for the one resident copy of a weight matrix
//! (shims/proptest). A `ParamStore` holds every rank-2 parameter in the
//! tile-major `PackedMat` layout, and every reader goes through that copy,
//! so each way out of the layout must return the registered values **bit
//! for bit**:
//!
//! 1. **Round trip** — `unpack(pack(m))` is `m`, and `gather_row(r)` is row
//!    `r` of `m`, at widths below, on and off the 16-column panel and at
//!    `k = 1`.
//! 2. **Tape** — `Tape::param` of a matrix slot is the tensor registered.
//! 3. **Adam** — stepping a matrix slot (its gradient packed, its moments in
//!    the packed layout) gives the values the same matrix gets stepped as a
//!    dense 1-D slot, over several steps with weight decay on.
//!
//! Values include exact zeros, negative zeros and subnormals, which a
//! layout change must carry unchanged. Case counts elevate via
//! `PROPTEST_CASES` (CI runs the suite a second time with a larger count).

use mpirical_tensor::{Adam, Grads, PackedMat, ParamStore, Tape, Tensor};
use proptest::prelude::*;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A `[k, n]` matrix with `k` in `1..8` and `n` in `1..50` (below one
/// panel, whole panels and remainders), values spanning `±8` with a
/// sprinkling of `0.0`, `-0.0` and a subnormal.
fn arb_matrix() -> impl Strategy<Value = Tensor> {
    (1usize..8, 1usize..50).prop_flat_map(|(k, n)| {
        proptest::collection::vec(-8.0f32..8.0, k * n).prop_map(move |vals| {
            let data = vals
                .iter()
                .enumerate()
                .map(|(i, &v)| match i % 13 {
                    3 => 0.0,
                    7 => -0.0,
                    11 => f32::from_bits(0x0000_0123),
                    _ => v,
                })
                .collect();
            Tensor::from_vec(&[k, n], data)
        })
    })
}

/// Gradients for `steps` Adam steps of a `numel`-element parameter.
fn arb_grads(numel: usize, steps: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    proptest::collection::vec(proptest::collection::vec(-2.0f32..2.0, numel), steps)
}

fn assert_round_trip(m: &Tensor) {
    let (k, n) = (m.shape[0], m.shape[1]);
    let packed = PackedMat::pack(m);
    assert_eq!(packed.shape(), (k, n));
    let back = packed.unpack();
    assert_eq!(back.shape, m.shape);
    assert_eq!(
        bits(&back.data),
        bits(&m.data),
        "unpack(pack(m)) at [{k}, {n}]"
    );
    let mut row = vec![f32::NAN; n];
    for r in 0..k {
        packed.gather_row(r, &mut row);
        assert_eq!(bits(&row), bits(&m.data[r * n..(r + 1) * n]), "row {r}");
    }
}

/// The corners by name: `n < 16`, `n % 16 != 0`, whole panels, `k = 1`.
#[test]
fn corner_shapes_round_trip_bitwise() {
    for (k, n) in [
        (1, 1),
        (1, 15),
        (1, 16),
        (1, 33),
        (3, 7),
        (5, 16),
        (4, 48),
        (2, 50),
    ] {
        let data = (0..k * n).map(|i| i as f32 * 0.37 - 3.0).collect();
        assert_round_trip(&Tensor::from_vec(&[k, n], data));
    }
}

proptest! {
    #[test]
    fn pack_unpack_and_row_gather_are_bitwise(m in arb_matrix()) {
        assert_round_trip(&m);
    }

    #[test]
    fn tape_param_of_a_matrix_slot_is_the_registered_tensor(m in arb_matrix()) {
        let mut store = ParamStore::new();
        let id = store.add("w", m.clone());
        prop_assert_eq!(store.matrix(id).shape(), (m.shape[0], m.shape[1]));
        let mut tape = Tape::new();
        let v = tape.param(&store, id);
        prop_assert_eq!(&tape.value(v).shape, &m.shape);
        prop_assert_eq!(bits(&tape.value(v).data), bits(&m.data));
        prop_assert_eq!(bits(&store.tensor(id).data), bits(&m.data));
    }

    #[test]
    fn adam_on_a_matrix_slot_is_adam_on_the_dense_values(
        case in arb_matrix().prop_flat_map(|m| {
            let numel = m.numel();
            (Just(m), arb_grads(numel, 4))
        })
    ) {
        let (m, grads) = case;
        let mut packed = ParamStore::new();
        let pid = packed.add("w", m.clone());
        let mut dense = ParamStore::new();
        let did = dense.add("w", Tensor::from_vec(&[m.numel()], m.data.clone()));
        let adamw = || {
            let mut a = Adam::new(0.05);
            a.weight_decay = 0.1;
            a
        };
        let (mut on_packed, mut on_dense) = (adamw(), adamw());
        for g in &grads {
            let shaped = Grads { by_param: vec![Some(Tensor::from_vec(&m.shape, g.clone()))] };
            let flat = Grads { by_param: vec![Some(Tensor::from_vec(&[g.len()], g.clone()))] };
            on_packed.step(&mut packed, &shaped);
            on_dense.step(&mut dense, &flat);
            prop_assert_eq!(bits(&packed.tensor(pid).data), bits(&dense.value(did).data));
        }
        prop_assert_eq!(packed.shape(pid), m.shape);
    }
}
