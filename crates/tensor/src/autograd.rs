//! Reverse-mode autograd on a per-step tape.
//!
//! A [`Tape`] records the forward computation as a flat list of nodes; each
//! non-leaf node owns a backward closure that maps the node's output gradient
//! to its parents' gradients (capturing whatever forward values it needs by
//! clone). [`Tape::backward`] walks the node list in reverse, accumulating
//! gradients — topological order is free because node ids are creation-
//! ordered.
//!
//! Tapes are single-threaded by design: data-parallel training builds one
//! tape per worker thread over its batch shard and merges parameter
//! gradients afterwards (see [`Grads::merge`]). Parallelism *inside* a tape
//! comes from the threaded matmul kernel.

use crate::math;
use crate::matmul::{matmul, matmul_at, matmul_bt};
use crate::optim::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

type BackFn = Box<dyn Fn(&Tensor) -> Vec<Tensor>>;

struct Node {
    value: Tensor,
    parents: Vec<usize>,
    backward: Option<BackFn>,
    param: Option<ParamId>,
}

/// Gradients produced by [`Tape::backward`], indexed by [`ParamId`].
#[derive(Debug, Default, Clone)]
pub struct Grads {
    pub by_param: Vec<Option<Tensor>>,
}

impl Grads {
    /// Gradient for a parameter, if it participated in the graph.
    pub fn get(&self, id: ParamId) -> Option<&Tensor> {
        self.by_param.get(id.0).and_then(|g| g.as_ref())
    }

    /// Sum another gradient set into this one (data-parallel merge).
    pub fn merge(&mut self, other: &Grads) {
        if self.by_param.len() < other.by_param.len() {
            self.by_param.resize(other.by_param.len(), None);
        }
        for (slot, g) in self.by_param.iter_mut().zip(&other.by_param) {
            match (slot.as_mut(), g) {
                (Some(a), Some(b)) => a.add_assign(b),
                (None, Some(b)) => *slot = Some(b.clone()),
                _ => {}
            }
        }
    }

    /// Scale every gradient (e.g. 1/num_shards averaging).
    pub fn scale(&mut self, s: f32) {
        for g in self.by_param.iter_mut().flatten() {
            g.scale_assign(s);
        }
    }

    /// Global L2 norm across all gradients.
    pub fn global_norm(&self) -> f32 {
        self.by_param
            .iter()
            .flatten()
            .map(|g| g.norm_sq())
            .sum::<f32>()
            .sqrt()
    }

    /// Clip to a maximum global norm; returns the pre-clip norm.
    pub fn clip_global_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale(max_norm / norm);
        }
        norm
    }
}

/// The autograd tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    pub fn new() -> Tape {
        Tape {
            nodes: Vec::with_capacity(256),
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    fn push(&mut self, value: Tensor, parents: Vec<usize>, backward: Option<BackFn>) -> Var {
        self.nodes.push(Node {
            value,
            parents,
            backward,
            param: None,
        });
        Var(self.nodes.len() - 1)
    }

    /// A constant leaf (no gradient flows into it).
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(value, vec![], None)
    }

    /// A parameter leaf bound to `store[id]`, holding a row-major copy of
    /// its value (a matrix is unpacked); its gradient lands in
    /// [`Grads::by_param`] at `id`.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let v = self.push(store.tensor(id), vec![], None);
        self.nodes[v.0].param = Some(id);
        v
    }

    // -- arithmetic ---------------------------------------------------------

    /// Elementwise sum (exact shapes).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        self.push(
            value,
            vec![a.0, b.0],
            Some(Box::new(|g: &Tensor| vec![g.clone(), g.clone()])),
        )
    }

    /// Row-broadcast bias add: `x[R,D] + b[D]`.
    pub fn add_bias(&mut self, x: Var, b: Var) -> Var {
        let value = self.value(x).add_row_broadcast(self.value(b));
        self.push(
            value,
            vec![x.0, b.0],
            Some(Box::new(|g: &Tensor| vec![g.clone(), g.sum_rows()])),
        )
    }

    /// Elementwise product (exact shapes).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let av = self.value(a).clone();
        let bv = self.value(b).clone();
        let value = av.mul(&bv);
        self.push(
            value,
            vec![a.0, b.0],
            Some(Box::new(move |g: &Tensor| vec![g.mul(&bv), g.mul(&av)])),
        )
    }

    /// Scalar multiply.
    pub fn scale(&mut self, x: Var, s: f32) -> Var {
        let value = self.value(x).scale(s);
        self.push(
            value,
            vec![x.0],
            Some(Box::new(move |g: &Tensor| vec![g.scale(s)])),
        )
    }

    /// Matrix product `a[m,k] @ b[k,n]`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let av = self.value(a).clone();
        let bv = self.value(b).clone();
        let value = matmul(&av, &bv);
        self.push(
            value,
            vec![a.0, b.0],
            Some(Box::new(move |g: &Tensor| {
                vec![matmul_bt(g, &bv), matmul_at(&av, g)]
            })),
        )
    }

    /// `a[m,k] @ b[n,k]^T` (attention scores without materializing Kᵀ).
    pub fn matmul_bt(&mut self, a: Var, b: Var) -> Var {
        let av = self.value(a).clone();
        let bv = self.value(b).clone();
        let value = matmul_bt(&av, &bv);
        self.push(
            value,
            vec![a.0, b.0],
            Some(Box::new(move |g: &Tensor| {
                // C = A Bᵀ ⇒ dA = G B ; dB = Gᵀ A
                vec![matmul(g, &bv), matmul_at(g, &av)]
            })),
        )
    }

    /// Reshape (same element count).
    pub fn reshape(&mut self, x: Var, shape: &[usize]) -> Var {
        let old_shape = self.value(x).shape.clone();
        let value = self.value(x).reshape(shape);
        self.push(
            value,
            vec![x.0],
            Some(Box::new(move |g: &Tensor| vec![g.reshape(&old_shape)])),
        )
    }

    /// Column slice: `x[R, C] → x[:, start..start+len]`.
    pub fn slice_cols(&mut self, x: Var, start: usize, len: usize) -> Var {
        let xv = self.value(x);
        let (r, c) = (xv.rows_2d(), xv.last_dim());
        assert!(start + len <= c, "slice_cols {start}+{len} > {c}");
        let mut out = Vec::with_capacity(r * len);
        for row in xv.data.chunks(c) {
            out.extend_from_slice(&row[start..start + len]);
        }
        let value = Tensor::from_vec(&[r, len], out);
        self.push(
            value,
            vec![x.0],
            Some(Box::new(move |g: &Tensor| {
                let mut gx = Tensor::zeros(&[r, c]);
                for (i, row) in g.data.chunks(len).enumerate() {
                    gx.data[i * c + start..i * c + start + len].copy_from_slice(row);
                }
                vec![gx]
            })),
        )
    }

    /// Concatenate along columns: all inputs `[R, C_i] → [R, ΣC_i]`.
    pub fn concat_cols(&mut self, xs: &[Var]) -> Var {
        assert!(!xs.is_empty());
        let r = self.value(xs[0]).rows_2d();
        let widths: Vec<usize> = xs.iter().map(|&v| self.value(v).last_dim()).collect();
        let total: usize = widths.iter().sum();
        let mut out = vec![0.0f32; r * total];
        let mut col0 = 0;
        for (&v, &w) in xs.iter().zip(&widths) {
            let val = self.value(v);
            assert_eq!(val.rows_2d(), r, "concat_cols row mismatch");
            for i in 0..r {
                out[i * total + col0..i * total + col0 + w]
                    .copy_from_slice(&val.data[i * w..i * w + w]);
            }
            col0 += w;
        }
        let value = Tensor::from_vec(&[r, total], out);
        let widths_b = widths.clone();
        self.push(
            value,
            xs.iter().map(|v| v.0).collect(),
            Some(Box::new(move |g: &Tensor| {
                let mut grads = Vec::with_capacity(widths_b.len());
                let mut col0 = 0;
                for &w in &widths_b {
                    let mut gx = vec![0.0f32; r * w];
                    for i in 0..r {
                        gx[i * w..i * w + w]
                            .copy_from_slice(&g.data[i * total + col0..i * total + col0 + w]);
                    }
                    grads.push(Tensor::from_vec(&[r, w], gx));
                    col0 += w;
                }
                grads
            })),
        )
    }

    // -- nonlinearities ------------------------------------------------------

    /// ReLU.
    pub fn relu(&mut self, x: Var) -> Var {
        let xv = self.value(x).clone();
        let value = xv.map(|v| v.max(0.0));
        self.push(
            value,
            vec![x.0],
            Some(Box::new(move |g: &Tensor| {
                vec![g.zip(&xv, |gv, xv| if xv > 0.0 { gv } else { 0.0 })]
            })),
        )
    }

    /// GELU (tanh approximation, as in BERT/SPT-Code): [`math::gelu`].
    pub fn gelu(&mut self, x: Var) -> Var {
        let xv = self.value(x).clone();
        let value = xv.map(math::gelu);
        self.push(
            value,
            vec![x.0],
            Some(Box::new(move |g: &Tensor| {
                vec![g.zip(&xv, |gv, v| {
                    let t = math::tanhf(math::gelu_inner(v));
                    let dinner = math::GELU_C * (1.0 + 3.0 * 0.044715 * v * v);
                    let d = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * dinner;
                    gv * d
                })]
            })),
        )
    }

    /// Row-wise softmax over the last dim.
    pub fn softmax(&mut self, x: Var) -> Var {
        let value = self.value(x).softmax_lastdim();
        let y = value.clone();
        self.push(
            value,
            vec![x.0],
            Some(Box::new(move |g: &Tensor| {
                // dX = (G − rowsum(G ⊙ Y)) ⊙ Y
                let d = y.last_dim();
                let mut out = g.mul(&y);
                for (o_row, y_row) in out.data.chunks_mut(d).zip(y.data.chunks(d)) {
                    let s: f32 = o_row.iter().sum();
                    for (o, &yv) in o_row.iter_mut().zip(y_row) {
                        *o -= s * yv;
                    }
                }
                vec![out]
            })),
        )
    }

    /// Add a constant mask tensor (e.g. additive −∞ attention mask).
    pub fn add_const(&mut self, x: Var, mask: Tensor) -> Var {
        let value = self.value(x).add(&mask);
        self.push(
            value,
            vec![x.0],
            Some(Box::new(|g: &Tensor| vec![g.clone()])),
        )
    }

    /// LayerNorm over the last dimension with learned `gamma`, `beta` `[D]`.
    pub fn layernorm(&mut self, x: Var, gamma: Var, beta: Var) -> Var {
        const EPS: f32 = 1e-5;
        let xv = self.value(x).clone();
        let gv = self.value(gamma).clone();
        let bv = self.value(beta).clone();
        let d = xv.last_dim();
        let rows = xv.rows_2d();
        let mut value = Tensor::zeros(&xv.shape.clone());
        let mut xhat = Tensor::zeros(&xv.shape.clone());
        let mut inv_std = vec![0.0f32; rows];
        for (i, row) in xv.data.chunks(d).enumerate() {
            let mean: f32 = row.iter().sum::<f32>() / d as f32;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let istd = 1.0 / (var + EPS).sqrt();
            inv_std[i] = istd;
            for (j, &v) in row.iter().enumerate() {
                let h = (v - mean) * istd;
                xhat.data[i * d + j] = h;
                value.data[i * d + j] = h * gv.data[j] + bv.data[j];
            }
        }
        self.push(
            value,
            vec![x.0, gamma.0, beta.0],
            Some(Box::new(move |g: &Tensor| {
                let mut gx = Tensor::zeros(&xhat.shape.clone());
                let mut ggamma = Tensor::zeros(&[d]);
                let mut gbeta = Tensor::zeros(&[d]);
                for (i, &istd) in inv_std.iter().enumerate().take(rows) {
                    let g_row = &g.data[i * d..i * d + d];
                    let h_row = &xhat.data[i * d..i * d + d];
                    // dL/dxhat = g * gamma
                    let dxhat: Vec<f32> = g_row
                        .iter()
                        .zip(&gv.data)
                        .map(|(&gg, &gm)| gg * gm)
                        .collect();
                    let sum_dxhat: f32 = dxhat.iter().sum();
                    let sum_dxhat_h: f32 = dxhat.iter().zip(h_row).map(|(&a, &b)| a * b).sum();
                    for j in 0..d {
                        gx.data[i * d + j] = istd / d as f32
                            * (d as f32 * dxhat[j] - sum_dxhat - h_row[j] * sum_dxhat_h);
                        ggamma.data[j] += g_row[j] * h_row[j];
                        gbeta.data[j] += g_row[j];
                    }
                }
                vec![gx, ggamma, gbeta]
            })),
        )
    }

    /// Embedding lookup: `weight[V, D]` gathered at `ids` → `[T, D]`.
    pub fn embedding(&mut self, weight: Var, ids: &[usize]) -> Var {
        let wv = self.value(weight);
        let (v, d) = (wv.shape[0], wv.shape[1]);
        let mut out = Vec::with_capacity(ids.len() * d);
        for &id in ids {
            assert!(id < v, "embedding id {id} out of vocab {v}");
            out.extend_from_slice(&wv.data[id * d..id * d + d]);
        }
        let value = Tensor::from_vec(&[ids.len(), d], out);
        let ids_b = ids.to_vec();
        self.push(
            value,
            vec![weight.0],
            Some(Box::new(move |g: &Tensor| {
                let mut gw = Tensor::zeros(&[v, d]);
                for (t, &id) in ids_b.iter().enumerate() {
                    let src = &g.data[t * d..t * d + d];
                    let dst = &mut gw.data[id * d..id * d + d];
                    for (o, s) in dst.iter_mut().zip(src) {
                        *o += s;
                    }
                }
                vec![gw]
            })),
        )
    }

    /// Inverted dropout with keep-probability `1 - p`; identity when `p == 0`.
    /// The mask is generated from `seed` so runs are reproducible.
    pub fn dropout(&mut self, x: Var, p: f32, seed: u64) -> Var {
        if p <= 0.0 {
            return x;
        }
        assert!(p < 1.0, "dropout p must be < 1");
        let n = self.value(x).numel();
        // xorshift mask generation — cheap and seed-stable.
        let mut state = seed | 1;
        let keep = 1.0 - p;
        let inv_keep = 1.0 / keep;
        let mut mask = Vec::with_capacity(n);
        for _ in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state >> 11) as f32 / (1u64 << 53) as f32;
            mask.push(if u < keep { inv_keep } else { 0.0 });
        }
        let mask = Tensor::from_vec(&self.value(x).shape.clone(), mask);
        let value = self.value(x).mul(&mask);
        self.push(
            value,
            vec![x.0],
            Some(Box::new(move |g: &Tensor| vec![g.mul(&mask)])),
        )
    }

    /// Fused softmax-cross-entropy over rows of `logits[T, V]` against
    /// `targets` (one class id per row). Rows with `weights[t] == 0.0` are
    /// ignored (padding); the loss is the weighted mean. Returns a scalar.
    pub fn cross_entropy(&mut self, logits: Var, targets: &[usize], weights: &[f32]) -> Var {
        let lv = self.value(logits).clone();
        let vsz = lv.last_dim();
        let t = lv.rows_2d();
        assert_eq!(targets.len(), t, "one target per row");
        assert_eq!(weights.len(), t, "one weight per row");
        let probs = lv.softmax_lastdim();
        let wsum: f32 = weights.iter().sum::<f32>().max(1e-12);
        let mut loss = 0.0f32;
        for (i, (&tgt, &w)) in targets.iter().zip(weights).enumerate() {
            if w == 0.0 {
                continue;
            }
            assert!(tgt < vsz, "target {tgt} out of vocab {vsz}");
            let p = probs.data[i * vsz + tgt].max(1e-30);
            loss -= w * p.ln();
        }
        loss /= wsum;
        let targets_b = targets.to_vec();
        let weights_b = weights.to_vec();
        self.push(
            Tensor::scalar(loss),
            vec![logits.0],
            Some(Box::new(move |g: &Tensor| {
                let go = g.item();
                let mut gx = probs.clone();
                for (i, (&tgt, &w)) in targets_b.iter().zip(&weights_b).enumerate() {
                    let row = &mut gx.data[i * vsz..i * vsz + vsz];
                    if w == 0.0 {
                        for v in row.iter_mut() {
                            *v = 0.0;
                        }
                        continue;
                    }
                    row[tgt] -= 1.0;
                    for v in row.iter_mut() {
                        *v *= go * w / wsum;
                    }
                }
                vec![gx]
            })),
        )
    }

    /// Mean of all elements → scalar.
    pub fn mean_all(&mut self, x: Var) -> Var {
        let n = self.value(x).numel() as f32;
        let shape = self.value(x).shape.clone();
        let value = Tensor::scalar(self.value(x).mean());
        self.push(
            value,
            vec![x.0],
            Some(Box::new(move |g: &Tensor| {
                vec![Tensor::full(&shape, g.item() / n)]
            })),
        )
    }

    // -- backward ------------------------------------------------------------

    /// Run reverse-mode accumulation from `root` (must be scalar-shaped for
    /// a loss, but any shape works with an implicit all-ones seed).
    pub fn backward(&mut self, root: Var) -> Grads {
        let mut node_grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        let seed = Tensor::ones(&self.nodes[root.0].value.shape);
        node_grads[root.0] = Some(seed);
        let mut out = Grads::default();
        for id in (0..=root.0).rev() {
            let Some(g) = node_grads[id].take() else {
                continue;
            };
            let node = &self.nodes[id];
            if let Some(pid) = node.param {
                if out.by_param.len() <= pid.0 {
                    out.by_param.resize(pid.0 + 1, None);
                }
                match &mut out.by_param[pid.0] {
                    Some(acc) => acc.add_assign(&g),
                    slot => *slot = Some(g.clone()),
                }
            }
            if let Some(back) = &node.backward {
                let parent_grads = back(&g);
                assert_eq!(parent_grads.len(), node.parents.len());
                for (pid, pg) in node.parents.clone().into_iter().zip(parent_grads) {
                    match &mut node_grads[pid] {
                        Some(acc) => acc.add_assign(&pg),
                        slot => *slot = Some(pg),
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Numerical gradient of `f(store)` w.r.t. parameter `id`, central
    /// differences.
    fn numeric_grad(
        store: &mut ParamStore,
        id: ParamId,
        f: &dyn Fn(&ParamStore) -> f32,
        eps: f32,
    ) -> Tensor {
        let value = store.tensor(id);
        let mut grad = Tensor::zeros(&value.shape);
        let mut at = |i: usize, x: f32| {
            let mut nudged = value.clone();
            nudged.data[i] = x;
            store.set(id, nudged);
            f(store)
        };
        for i in 0..value.numel() {
            let orig = value.data[i];
            let fp = at(i, orig + eps);
            let fm = at(i, orig - eps);
            grad.data[i] = (fp - fm) / (2.0 * eps);
        }
        store.set(id, value);
        grad
    }

    fn assert_grad_close(analytic: &Tensor, numeric: &Tensor, tol: f32) {
        assert_eq!(analytic.shape, numeric.shape);
        for (i, (a, n)) in analytic.data.iter().zip(&numeric.data).enumerate() {
            let denom = 1.0f32.max(a.abs()).max(n.abs());
            assert!(
                (a - n).abs() / denom < tol,
                "grad elem {i}: analytic {a} vs numeric {n}"
            );
        }
    }

    fn store_with(shapes: &[(&str, &[usize])]) -> (ParamStore, Vec<ParamId>) {
        let mut rng = StdRng::seed_from_u64(42);
        let mut store = ParamStore::new();
        let ids = shapes
            .iter()
            .map(|(name, shape)| store.add(name, init::normal(shape, 0.5, &mut rng)))
            .collect();
        (store, ids)
    }

    #[test]
    fn grad_check_matmul_chain() {
        let (mut store, ids) = store_with(&[("a", &[3, 4]), ("b", &[4, 2])]);
        let f = |s: &ParamStore| {
            let mut tape = Tape::new();
            let a = tape.param(s, ids[0]);
            let b = tape.param(s, ids[1]);
            let c = tape.matmul(a, b);
            let l = tape.mean_all(c);
            tape.value(l).item()
        };
        let mut tape = Tape::new();
        let a = tape.param(&store, ids[0]);
        let b = tape.param(&store, ids[1]);
        let c = tape.matmul(a, b);
        let l = tape.mean_all(c);
        let grads = tape.backward(l);
        for &id in &ids {
            let num = numeric_grad(&mut store, id, &f, 1e-2);
            assert_grad_close(grads.get(id).unwrap(), &num, 2e-2);
        }
    }

    #[test]
    fn grad_check_softmax_ce() {
        let (mut store, ids) = store_with(&[("logits", &[4, 5])]);
        let targets = [1usize, 0, 4, 2];
        let weights = [1.0f32, 1.0, 0.0, 1.0]; // one masked row
        let f = |s: &ParamStore| {
            let mut tape = Tape::new();
            let x = tape.param(s, ids[0]);
            let l = tape.cross_entropy(x, &targets, &weights);
            tape.value(l).item()
        };
        let mut tape = Tape::new();
        let x = tape.param(&store, ids[0]);
        let l = tape.cross_entropy(x, &targets, &weights);
        let grads = tape.backward(l);
        let num = numeric_grad(&mut store, ids[0], &f, 1e-2);
        assert_grad_close(grads.get(ids[0]).unwrap(), &num, 2e-2);
        // Masked row has zero gradient.
        let g = grads.get(ids[0]).unwrap();
        assert!(g.data[2 * 5..3 * 5].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn grad_check_layernorm() {
        let (mut store, ids) = store_with(&[("x", &[3, 6]), ("gamma", &[6]), ("beta", &[6])]);
        let f = |s: &ParamStore| {
            let mut tape = Tape::new();
            let x = tape.param(s, ids[0]);
            let g = tape.param(s, ids[1]);
            let b = tape.param(s, ids[2]);
            let y = tape.layernorm(x, g, b);
            let sq = tape.mul(y, y);
            let l = tape.mean_all(sq);
            tape.value(l).item()
        };
        let mut tape = Tape::new();
        let x = tape.param(&store, ids[0]);
        let g = tape.param(&store, ids[1]);
        let b = tape.param(&store, ids[2]);
        let y = tape.layernorm(x, g, b);
        let sq = tape.mul(y, y);
        let l = tape.mean_all(sq);
        let grads = tape.backward(l);
        for &id in &ids {
            let num = numeric_grad(&mut store, id, &f, 1e-2);
            assert_grad_close(grads.get(id).unwrap(), &num, 5e-2);
        }
    }

    #[test]
    fn grad_check_gelu_and_relu() {
        let (mut store, ids) = store_with(&[("x", &[2, 5])]);
        let id0 = ids[0];
        for act in 0..2 {
            let f = move |s: &ParamStore| {
                let mut tape = Tape::new();
                let x = tape.param(s, id0);
                let y = if act == 0 { tape.gelu(x) } else { tape.relu(x) };
                let l = tape.mean_all(y);
                tape.value(l).item()
            };
            let mut tape = Tape::new();
            let x = tape.param(&store, ids[0]);
            let y = if act == 0 { tape.gelu(x) } else { tape.relu(x) };
            let l = tape.mean_all(y);
            let grads = tape.backward(l);
            let num = numeric_grad(&mut store, ids[0], &f, 1e-2);
            assert_grad_close(grads.get(ids[0]).unwrap(), &num, 3e-2);
        }
    }

    #[test]
    fn grad_check_embedding() {
        let (mut store, ids) = store_with(&[("emb", &[7, 4])]);
        let tokens = [2usize, 5, 2, 0]; // repeated id accumulates
        let f = |s: &ParamStore| {
            let mut tape = Tape::new();
            let w = tape.param(s, ids[0]);
            let e = tape.embedding(w, &tokens);
            let sq = tape.mul(e, e);
            let l = tape.mean_all(sq);
            tape.value(l).item()
        };
        let mut tape = Tape::new();
        let w = tape.param(&store, ids[0]);
        let e = tape.embedding(w, &tokens);
        let sq = tape.mul(e, e);
        let l = tape.mean_all(sq);
        let grads = tape.backward(l);
        let num = numeric_grad(&mut store, ids[0], &f, 1e-2);
        assert_grad_close(grads.get(ids[0]).unwrap(), &num, 3e-2);
        // Unused vocab rows get zero grad.
        let g = grads.get(ids[0]).unwrap();
        assert!(g.data[4..2 * 4].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn grad_check_slice_concat() {
        let (mut store, ids) = store_with(&[("x", &[3, 6])]);
        let f = |s: &ParamStore| {
            let mut tape = Tape::new();
            let x = tape.param(s, ids[0]);
            let a = tape.slice_cols(x, 0, 3);
            let b = tape.slice_cols(x, 3, 3);
            let prod = tape.mul(a, b);
            let cat = tape.concat_cols(&[prod, a]);
            let l = tape.mean_all(cat);
            tape.value(l).item()
        };
        let mut tape = Tape::new();
        let x = tape.param(&store, ids[0]);
        let a = tape.slice_cols(x, 0, 3);
        let b = tape.slice_cols(x, 3, 3);
        let prod = tape.mul(a, b);
        let cat = tape.concat_cols(&[prod, a]);
        let l = tape.mean_all(cat);
        let grads = tape.backward(l);
        let num = numeric_grad(&mut store, ids[0], &f, 1e-2);
        assert_grad_close(grads.get(ids[0]).unwrap(), &num, 2e-2);
    }

    #[test]
    fn grad_check_matmul_bt_and_softmax() {
        let (mut store, ids) = store_with(&[("q", &[3, 4]), ("k", &[3, 4])]);
        let f = |s: &ParamStore| {
            let mut tape = Tape::new();
            let q = tape.param(s, ids[0]);
            let k = tape.param(s, ids[1]);
            let scores = tape.matmul_bt(q, k);
            let probs = tape.softmax(scores);
            let l = tape.mean_all(probs);
            tape.value(l).item()
        };
        let mut tape = Tape::new();
        let q = tape.param(&store, ids[0]);
        let k = tape.param(&store, ids[1]);
        let scores = tape.matmul_bt(q, k);
        let probs = tape.softmax(scores);
        let l = tape.mean_all(probs);
        let grads = tape.backward(l);
        for &id in &ids {
            let num = numeric_grad(&mut store, id, &f, 1e-2);
            assert_grad_close(grads.get(id).unwrap(), &num, 5e-2);
        }
    }

    #[test]
    fn fanout_accumulates() {
        // y = x + x must give grad 2.
        let (store, ids) = store_with(&[("x", &[2, 2])]);
        let mut tape = Tape::new();
        let x = tape.param(&store, ids[0]);
        let y = tape.add(x, x);
        let l = tape.mean_all(y);
        let grads = tape.backward(l);
        let g = grads.get(ids[0]).unwrap();
        for &v in &g.data {
            assert!((v - 2.0 / 4.0).abs() < 1e-6);
        }
    }

    #[test]
    fn dropout_zero_is_identity() {
        let (store, ids) = store_with(&[("x", &[2, 3])]);
        let mut tape = Tape::new();
        let x = tape.param(&store, ids[0]);
        let y = tape.dropout(x, 0.0, 9);
        assert_eq!(x, y);
    }

    #[test]
    fn dropout_scales_survivors() {
        let (store, ids) = store_with(&[("x", &[1, 1000])]);
        let mut tape = Tape::new();
        let x = tape.param(&store, ids[0]);
        let y = tape.dropout(x, 0.5, 1234);
        let xv = tape.value(x).clone();
        let yv = tape.value(y).clone();
        let mut kept = 0;
        for (a, b) in xv.data.iter().zip(&yv.data) {
            if *b != 0.0 {
                kept += 1;
                assert!((b / a - 2.0).abs() < 1e-5, "survivors scaled by 1/keep");
            }
        }
        assert!((300..700).contains(&kept), "about half survive: {kept}");
    }

    #[test]
    fn grads_merge_and_clip() {
        let mut a = Grads {
            by_param: vec![Some(Tensor::from_vec(&[2], vec![3.0, 4.0])), None],
        };
        let b = Grads {
            by_param: vec![
                Some(Tensor::from_vec(&[2], vec![1.0, 1.0])),
                Some(Tensor::from_vec(&[1], vec![2.0])),
            ],
        };
        a.merge(&b);
        assert_eq!(a.by_param[0].as_ref().unwrap().data, vec![4.0, 5.0]);
        assert_eq!(a.by_param[1].as_ref().unwrap().data, vec![2.0]);
        let norm = a.global_norm();
        assert!((norm - (16.0f32 + 25.0 + 4.0).sqrt()).abs() < 1e-5);
        let pre = a.clip_global_norm(1.0);
        assert!((pre - norm).abs() < 1e-6);
        assert!((a.global_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn backward_ignores_unreached_nodes() {
        let (store, ids) = store_with(&[("x", &[2, 2]), ("y", &[2, 2])]);
        let mut tape = Tape::new();
        let x = tape.param(&store, ids[0]);
        let _unused = tape.param(&store, ids[1]);
        let l = tape.mean_all(x);
        let grads = tape.backward(l);
        assert!(grads.get(ids[0]).is_some());
        assert!(grads.get(ids[1]).is_none());
    }
}
