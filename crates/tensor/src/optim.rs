//! Parameter storage and the Adam optimizer.
//!
//! [`ParamStore`] owns every trainable tensor — names and values, nothing
//! else; parameters are addressed by stable [`ParamId`]s handed out at
//! registration. Each value is held **once**, in the layout its readers
//! stream: a matrix (a rank-2 tensor) in the tile-major [`PackedMat`]
//! layout, packed in place at registration or load (no transient second
//! copy), and everything else (biases, LayerNorm gains) dense. The serving kernels read a matrix in place, an
//! embedding lookup gathers a row of it, and the autograd tape takes a
//! row-major copy ([`ParamStore::tensor`]). Serde writes every matrix as its
//! row-major [`Tensor`], so a saved store does not depend on the layout.
//!
//! Tapes borrow the store read-only during the forward pass, so
//! data-parallel workers can share one store across threads without locks;
//! only the optimizer step mutates it. [`Adam`] owns the optimizer state —
//! its schedule, step count and the two moment buffers per parameter — so
//! a store saved after training carries the values alone.

use crate::autograd::Grads;
use crate::matmul::PackedMat;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Stable handle to a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub usize);

/// A parameter's one copy: packed when it is a matrix, dense otherwise.
#[derive(Debug, Clone)]
enum Value {
    Dense(Tensor),
    Matrix(PackedMat),
}

impl Value {
    /// The layout is the tensor's rank: rank 2 packs, in the tensor's own
    /// buffer.
    fn new(t: Tensor) -> Value {
        if t.ndim() == 2 {
            Value::Matrix(PackedMat::pack_in_place(t))
        } else {
            Value::Dense(t)
        }
    }

    fn shape(&self) -> Vec<usize> {
        match self {
            Value::Dense(t) => t.shape.clone(),
            Value::Matrix(m) => {
                let (k, n) = m.shape();
                vec![k, n]
            }
        }
    }

    /// The row-major tensor, bitwise.
    fn tensor(&self) -> Tensor {
        match self {
            Value::Dense(t) => t.clone(),
            Value::Matrix(m) => m.unpack(),
        }
    }
}

/// Written as the row-major tensor, whatever the layout in memory.
impl Serialize for Value {
    fn ser(&self) -> serde::Value {
        self.tensor().ser()
    }
}

impl Deserialize for Value {
    fn de(v: &serde::Value) -> Result<Value, serde::DeError> {
        Tensor::de(v).map(Value::new)
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Slot {
    name: String,
    value: Value,
}

/// Container of all trainable parameters of a model.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParamStore {
    slots: Vec<Slot>,
}

impl ParamStore {
    pub fn new() -> ParamStore {
        ParamStore::default()
    }

    /// Register a parameter; names must be unique. A matrix is packed here.
    pub fn add(&mut self, name: &str, value: Tensor) -> ParamId {
        assert!(
            self.slots.iter().all(|s| s.name != name),
            "duplicate parameter name {name}"
        );
        self.slots.push(Slot {
            name: name.to_string(),
            value: Value::new(value),
        });
        ParamId(self.slots.len() - 1)
    }

    /// Number of parameters (tensors).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total scalar parameter count.
    pub fn num_scalars(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.value.shape().iter().product::<usize>())
            .sum()
    }

    /// Registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.slots[id.0].name
    }

    /// Shape of a parameter as registered.
    pub fn shape(&self, id: ParamId) -> Vec<usize> {
        self.slots[id.0].value.shape()
    }

    /// Value of a parameter that is not a matrix (a bias, a LayerNorm gain).
    ///
    /// # Panics
    ///
    /// If the parameter is a matrix: read it with [`matrix`](Self::matrix),
    /// or copy it out with [`tensor`](Self::tensor).
    pub fn value(&self, id: ParamId) -> &Tensor {
        match &self.slots[id.0].value {
            Value::Dense(t) => t,
            Value::Matrix(_) => panic!("parameter {} is a packed matrix", self.name(id)),
        }
    }

    /// A matrix parameter, packed.
    ///
    /// # Panics
    ///
    /// If the parameter is not a matrix.
    pub fn matrix(&self, id: ParamId) -> &PackedMat {
        match &self.slots[id.0].value {
            Value::Matrix(m) => m,
            Value::Dense(_) => panic!("parameter {} is not a matrix", self.name(id)),
        }
    }

    /// A row-major copy of any parameter, bitwise its value.
    pub fn tensor(&self, id: ParamId) -> Tensor {
        self.slots[id.0].value.tensor()
    }

    /// Replace a parameter's value (tests / manual surgery); a matrix is
    /// packed again.
    ///
    /// # Panics
    ///
    /// If the shape differs from the registered one.
    pub fn set(&mut self, id: ParamId, value: Tensor) {
        assert_eq!(
            value.shape,
            self.shape(id),
            "new value for {} changes its shape",
            self.name(id)
        );
        self.slots[id.0].value = Value::new(value);
    }

    /// All ids in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.slots.len()).map(ParamId)
    }
}

#[cfg(test)]
mod store_tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut s = ParamStore::new();
        let id = s.add("w", Tensor::ones(&[2, 3]));
        assert_eq!(s.len(), 1);
        assert_eq!(s.num_scalars(), 6);
        assert_eq!(s.ids().collect::<Vec<_>>(), vec![id]);
        assert_eq!(s.name(id), "w");
        assert_eq!(s.shape(id), vec![2, 3]);
        assert_eq!(s.tensor(id).data, vec![1.0; 6]);
        assert_eq!(s.matrix(id).shape(), (2, 3));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_name_panics() {
        let mut s = ParamStore::new();
        s.add("w", Tensor::ones(&[1]));
        s.add("w", Tensor::ones(&[1]));
    }
}

/// Adam with optional decoupled weight decay (AdamW when `weight_decay > 0`)
/// and linear warmup followed by inverse-sqrt decay — the schedule family
/// used by Transformer training since Vaswani et al.
///
/// The first and second moment estimates live here, one buffer pair per
/// parameter, allocated (zeroed) the first time that parameter gets a
/// gradient. They last as long as this optimizer: a fresh `Adam` starts
/// from zero moments and `t = 0` whatever store it steps. The update is
/// elementwise, so it runs in the slot's own layout: a matrix's gradient is
/// packed first, and its moments are laid out like the packed values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub weight_decay: f32,
    /// Warmup steps for the schedule; `0` disables scheduling (constant lr).
    pub warmup: usize,
    /// Step counter (1-based after the first step).
    pub t: usize,
    /// First moment per parameter, indexed by [`ParamId`], in the slot's
    /// layout; empty until the parameter's first gradient.
    m: Vec<Vec<f32>>,
    /// Second moment per parameter, laid out like `m`.
    v: Vec<Vec<f32>>,
}

impl Default for Adam {
    fn default() -> Self {
        Adam {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            warmup: 0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Adam {
    pub fn new(lr: f32) -> Adam {
        Adam {
            lr,
            ..Default::default()
        }
    }

    /// Effective learning rate at the *next* step.
    pub fn effective_lr(&self) -> f32 {
        let t = (self.t + 1) as f32;
        if self.warmup == 0 {
            self.lr
        } else {
            let w = self.warmup as f32;
            self.lr * (t / w).min((w / t).sqrt()).min(1.0)
        }
    }

    /// Apply one optimizer step with the given (summed) gradients.
    /// Parameters without a gradient are untouched.
    pub fn step(&mut self, store: &mut ParamStore, grads: &Grads) {
        let lr = self.effective_lr();
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        self.m.resize_with(store.len(), Vec::new);
        self.v.resize_with(store.len(), Vec::new);
        let moments = self.m.iter_mut().zip(self.v.iter_mut());
        for (i, (slot, (m, v))) in store.slots.iter_mut().zip(moments).enumerate() {
            let Some(g) = grads.by_param.get(i).and_then(|g| g.as_ref()) else {
                continue;
            };
            assert_eq!(
                g.shape,
                slot.value.shape(),
                "gradient shape mismatch for {}",
                slot.name
            );
            let packed;
            let (g, value) = match &mut slot.value {
                Value::Dense(t) => (&g.data[..], &mut t.data[..]),
                Value::Matrix(w) => {
                    packed = PackedMat::pack(g);
                    (packed.data(), w.data_mut())
                }
            };
            if m.is_empty() {
                *m = vec![0.0; g.len()];
                *v = vec![0.0; g.len()];
            }
            for j in 0..g.len() {
                let gj = g[j];
                m[j] = self.beta1 * m[j] + (1.0 - self.beta1) * gj;
                v[j] = self.beta2 * v[j] + (1.0 - self.beta2) * gj * gj;
                let mhat = m[j] / bc1;
                let vhat = v[j] / bc2;
                let mut update = lr * mhat / (vhat.sqrt() + self.eps);
                if self.weight_decay > 0.0 {
                    update += lr * self.weight_decay * value[j];
                }
                value[j] -= update;
            }
        }
    }
}

#[cfg(test)]
mod adam_tests {
    use super::*;
    use crate::autograd::Tape;

    /// Minimize ‖x − target‖² with Adam; must converge.
    #[test]
    fn adam_minimizes_quadratic() {
        let mut store = ParamStore::new();
        let x = store.add("x", Tensor::from_vec(&[3], vec![5.0, -3.0, 2.0]));
        let target = Tensor::from_vec(&[3], vec![1.0, 1.0, 1.0]);
        let mut adam = Adam::new(0.05);
        let mut last = f32::INFINITY;
        for _ in 0..400 {
            let mut tape = Tape::new();
            let xv = tape.param(&store, x);
            let t = tape.constant(target.scale(-1.0));
            let diff = tape.add(xv, t);
            let sq = tape.mul(diff, diff);
            let loss = tape.mean_all(sq);
            last = tape.value(loss).item();
            let grads = tape.backward(loss);
            adam.step(&mut store, &grads);
        }
        assert!(last < 1e-4, "loss {last} did not converge");
        for &v in &store.value(x).data {
            assert!((v - 1.0).abs() < 0.05, "x = {v}");
        }
    }

    #[test]
    fn warmup_schedule_shape() {
        let mut adam = Adam::new(1.0);
        adam.warmup = 10;
        let mut lrs = Vec::new();
        for _ in 0..30 {
            lrs.push(adam.effective_lr());
            adam.t += 1;
        }
        // Rises during warmup…
        assert!(lrs[0] < lrs[5] && lrs[5] < lrs[9]);
        // …peaks at warmup…
        assert!((lrs[9] - 1.0).abs() < 1e-6);
        // …then decays.
        assert!(lrs[15] < lrs[10]);
        assert!(lrs[29] < lrs[15]);
    }

    #[test]
    fn step_skips_gradient_free_params() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::ones(&[2]));
        let b = store.add("b", Tensor::ones(&[2]));
        let grads = Grads {
            by_param: vec![Some(Tensor::from_vec(&[2], vec![1.0, 1.0])), None],
        };
        let mut adam = Adam::new(0.1);
        adam.step(&mut store, &grads);
        assert_ne!(store.value(a).data, vec![1.0, 1.0]);
        assert_eq!(store.value(b).data, vec![1.0, 1.0]);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::full(&[1], 10.0));
        let grads = Grads {
            by_param: vec![Some(Tensor::zeros(&[1]))],
        };
        let mut adam = Adam::new(0.1);
        adam.weight_decay = 0.5;
        let before = store.value(a).data[0];
        adam.step(&mut store, &grads);
        assert!(store.value(a).data[0] < before);
    }
}
