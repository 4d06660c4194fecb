//! Parameter storage and the Adam optimizer.
//!
//! [`ParamStore`] owns every trainable tensor plus its Adam moment buffers;
//! parameters are addressed by stable [`ParamId`]s handed out at
//! registration. Tapes borrow the store read-only during the forward pass,
//! so data-parallel workers can share one store across threads without
//! locks; only the optimizer step mutates it.

use crate::autograd::Grads;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Stable handle to a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub usize);

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Slot {
    name: String,
    value: Tensor,
    m: Tensor,
    v: Tensor,
}

/// Container of all trainable parameters of a model.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParamStore {
    slots: Vec<Slot>,
    #[serde(skip)]
    by_name: HashMap<String, usize>,
}

impl ParamStore {
    pub fn new() -> ParamStore {
        ParamStore::default()
    }

    /// Register a parameter; names must be unique.
    pub fn add(&mut self, name: &str, value: Tensor) -> ParamId {
        assert!(
            !self.by_name.contains_key(name),
            "duplicate parameter name {name}"
        );
        let m = Tensor::zeros(&value.shape);
        let v = Tensor::zeros(&value.shape);
        self.slots.push(Slot {
            name: name.to_string(),
            value,
            m,
            v,
        });
        let id = ParamId(self.slots.len() - 1);
        self.by_name.insert(name.to_string(), id.0);
        id
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
        self.slots.iter().map(|s| s.value.numel()).sum()
    }

    /// Value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.slots[id.0].value
    }

    /// Mutable value (tests / manual surgery).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.slots[id.0].value
    }

    /// Look up a parameter id by name.
    pub fn id_of(&self, name: &str) -> Option<ParamId> {
        self.by_name.get(name).map(|&i| ParamId(i))
    }

    /// Name of a parameter.
    pub fn name_of(&self, id: ParamId) -> &str {
        &self.slots[id.0].name
    }

    /// All ids in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.slots.len()).map(ParamId)
    }

    /// A copy of every parameter value with fresh (zeroed) Adam moments —
    /// what an inference-only holder needs. Zeroed buffers are allocated
    /// lazily, so of the copy only the values become resident.
    pub fn values_copy(&self) -> ParamStore {
        ParamStore {
            slots: self
                .slots
                .iter()
                .map(|s| Slot {
                    name: s.name.clone(),
                    value: s.value.clone(),
                    m: Tensor::zeros(&s.value.shape),
                    v: Tensor::zeros(&s.value.shape),
                })
                .collect(),
            by_name: self.by_name.clone(),
        }
    }

    /// Rebuild the name index after deserialization (serde skips it).
    /// Callers that deserialize a `ParamStore` (e.g. the model crate's
    /// checkpoint loader) must invoke this before using `id_of`.
    pub fn rebuild_index(&mut self) {
        self.by_name = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.clone(), i))
            .collect();
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
        assert_eq!(s.id_of("w"), Some(id));
        assert_eq!(s.name_of(id), "w");
        assert_eq!(s.value(id).data, vec![1.0; 6]);
    }

    #[test]
    fn values_copy_keeps_values_and_zeroes_moments() {
        let mut s = ParamStore::new();
        let id = s.add("w", Tensor::ones(&[2, 3]));
        s.slots[0].m = Tensor::ones(&[2, 3]);
        let copy = s.values_copy();
        assert_eq!(copy.id_of("w"), Some(id));
        assert_eq!(copy.value(id).data, s.value(id).data);
        assert_eq!(copy.slots[0].m.data, vec![0.0; 6]);
        assert_eq!(copy.slots[0].v.shape, vec![2, 3]);
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
        for (i, slot) in store.slots.iter_mut().enumerate() {
            let Some(g) = grads.by_param.get(i).and_then(|g| g.as_ref()) else {
                continue;
            };
            assert_eq!(
                g.shape, slot.value.shape,
                "gradient shape mismatch for {}",
                slot.name
            );
            for j in 0..g.data.len() {
                let gj = g.data[j];
                slot.m.data[j] = self.beta1 * slot.m.data[j] + (1.0 - self.beta1) * gj;
                slot.v.data[j] = self.beta2 * slot.v.data[j] + (1.0 - self.beta2) * gj * gj;
                let mhat = slot.m.data[j] / bc1;
                let vhat = slot.v.data[j] / bc2;
                let mut update = lr * mhat / (vhat.sqrt() + self.eps);
                if self.weight_decay > 0.0 {
                    update += lr * self.weight_decay * slot.value.data[j];
                }
                slot.value.data[j] -= update;
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
