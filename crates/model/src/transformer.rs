//! The seq2seq transformer: parameter registration and forward passes.
//!
//! Architecture (SPT-Code family, paper §IV-A/Fig. 1b):
//!
//! * **bidirectional encoder** over `<sos> code <sep> x-sbt <eos>`;
//! * **autoregressive decoder** with causal self-attention and
//!   cross-attention over the encoder output;
//! * pre-LayerNorm residual blocks (training stability at small scale),
//!   sinusoidal positional encodings, GELU feed-forward, learned output
//!   projection to the vocabulary.
//!
//! All parameters live in a [`ParamStore`]; forward passes are pure
//! functions of `(store, ids)` recorded on a caller-provided [`Tape`].

use crate::config::ModelConfig;
use mpirical_tensor::{init, ParamId, ParamStore, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One attention block's parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttnParams {
    pub wq: ParamId,
    pub bq: ParamId,
    pub wk: ParamId,
    pub bk: ParamId,
    pub wv: ParamId,
    pub bv: ParamId,
    pub wo: ParamId,
    pub bo: ParamId,
}

/// LayerNorm gain/bias pair.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LnParams {
    pub gamma: ParamId,
    pub beta: ParamId,
}

/// Feed-forward block parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FfParams {
    pub w1: ParamId,
    pub b1: ParamId,
    pub w2: ParamId,
    pub b2: ParamId,
}

/// One encoder layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EncLayer {
    pub ln1: LnParams,
    pub attn: AttnParams,
    pub ln2: LnParams,
    pub ff: FfParams,
}

/// One decoder layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecLayer {
    pub ln1: LnParams,
    pub self_attn: AttnParams,
    pub ln2: LnParams,
    pub cross_attn: AttnParams,
    pub ln3: LnParams,
    pub ff: FfParams,
}

/// All parameter handles of the model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransformerParams {
    pub tok_emb: ParamId,
    pub enc_layers: Vec<EncLayer>,
    pub enc_ln: LnParams,
    pub dec_layers: Vec<DecLayer>,
    pub dec_ln: LnParams,
    pub out_w: ParamId,
    pub out_b: ParamId,
}

/// Register all parameters for `cfg` in `store`, initialized from `seed`.
pub fn build_params(cfg: &ModelConfig, store: &mut ParamStore, seed: u64) -> TransformerParams {
    cfg.validate().expect("config must validate");
    let mut rng = StdRng::seed_from_u64(seed);
    let d = cfg.d_model;
    let v = cfg.vocab_size;

    fn mk_attn(store: &mut ParamStore, rng: &mut StdRng, name: &str, d: usize) -> AttnParams {
        AttnParams {
            wq: store.add(&format!("{name}.wq"), init::xavier_uniform(&[d, d], rng)),
            bq: store.add(&format!("{name}.bq"), Tensor::zeros(&[d])),
            wk: store.add(&format!("{name}.wk"), init::xavier_uniform(&[d, d], rng)),
            bk: store.add(&format!("{name}.bk"), Tensor::zeros(&[d])),
            wv: store.add(&format!("{name}.wv"), init::xavier_uniform(&[d, d], rng)),
            bv: store.add(&format!("{name}.bv"), Tensor::zeros(&[d])),
            wo: store.add(&format!("{name}.wo"), init::xavier_uniform(&[d, d], rng)),
            bo: store.add(&format!("{name}.bo"), Tensor::zeros(&[d])),
        }
    }
    fn mk_ln(store: &mut ParamStore, name: &str, d: usize) -> LnParams {
        LnParams {
            gamma: store.add(&format!("{name}.gamma"), Tensor::ones(&[d])),
            beta: store.add(&format!("{name}.beta"), Tensor::zeros(&[d])),
        }
    }
    fn mk_ff(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        d: usize,
        dff: usize,
    ) -> FfParams {
        FfParams {
            w1: store.add(&format!("{name}.w1"), init::xavier_uniform(&[d, dff], rng)),
            b1: store.add(&format!("{name}.b1"), Tensor::zeros(&[dff])),
            w2: store.add(&format!("{name}.w2"), init::xavier_uniform(&[dff, d], rng)),
            b2: store.add(&format!("{name}.b2"), Tensor::zeros(&[d])),
        }
    }
    let tok_emb = store.add("tok_emb", init::normal(&[v, d], 0.02, &mut rng));
    let enc_layers = (0..cfg.n_enc_layers)
        .map(|l| EncLayer {
            ln1: mk_ln(store, &format!("enc.{l}.ln1"), d),
            attn: mk_attn(store, &mut rng, &format!("enc.{l}.attn"), d),
            ln2: mk_ln(store, &format!("enc.{l}.ln2"), d),
            ff: mk_ff(store, &mut rng, &format!("enc.{l}.ff"), d, cfg.d_ff),
        })
        .collect();
    let enc_ln = mk_ln(store, "enc.final_ln", d);
    let dec_layers = (0..cfg.n_dec_layers)
        .map(|l| DecLayer {
            ln1: mk_ln(store, &format!("dec.{l}.ln1"), d),
            self_attn: mk_attn(store, &mut rng, &format!("dec.{l}.self_attn"), d),
            ln2: mk_ln(store, &format!("dec.{l}.ln2"), d),
            cross_attn: mk_attn(store, &mut rng, &format!("dec.{l}.cross_attn"), d),
            ln3: mk_ln(store, &format!("dec.{l}.ln3"), d),
            ff: mk_ff(store, &mut rng, &format!("dec.{l}.ff"), d, cfg.d_ff),
        })
        .collect();
    let dec_ln = mk_ln(store, "dec.final_ln", d);
    let out_w = store.add("out.w", init::xavier_uniform(&[d, v], &mut rng));
    let out_b = store.add("out.b", Tensor::zeros(&[v]));

    TransformerParams {
        tok_emb,
        enc_layers,
        enc_ln,
        dec_layers,
        dec_ln,
        out_w,
        out_b,
    }
}

/// Sinusoidal positional encoding `[len, d]` (Vaswani et al.).
pub fn positional_encoding(len: usize, d: usize) -> Tensor {
    // A column's wavelength does not depend on the position: one `powf` per
    // column pair, not one per element.
    let wavelengths: Vec<f32> = (0..d / 2)
        .map(|i| 10_000f32.powf(2.0 * i as f32 / d as f32))
        .collect();
    let mut pe = Tensor::zeros(&[len, d]);
    for pos in 0..len {
        for (i, &wavelength) in wavelengths.iter().enumerate() {
            let angle = pos as f32 / wavelength;
            pe.data[pos * d + 2 * i] = angle.sin();
            pe.data[pos * d + 2 * i + 1] = angle.cos();
        }
    }
    pe
}

/// Additive causal mask `[t, t]`: 0 on/below the diagonal, −1e9 above.
pub fn causal_mask(t: usize) -> Tensor {
    let mut m = Tensor::zeros(&[t, t]);
    for i in 0..t {
        for j in (i + 1)..t {
            m.data[i * t + j] = -1e9;
        }
    }
    m
}

/// Runtime knobs for a forward pass.
#[derive(Debug, Clone, Copy)]
pub struct ForwardMode {
    /// Apply dropout (training) or not (inference).
    pub train: bool,
    /// Seed for dropout masks — vary per step for fresh masks.
    pub dropout_seed: u64,
}

impl ForwardMode {
    pub fn inference() -> Self {
        ForwardMode {
            train: false,
            dropout_seed: 0,
        }
    }

    pub fn training(seed: u64) -> Self {
        ForwardMode {
            train: true,
            dropout_seed: seed,
        }
    }
}

/// Multi-head attention: `q_in[Tq, D]` attends over `kv_in[Tk, D]`.
#[allow(clippy::too_many_arguments)]
fn attention(
    tape: &mut Tape,
    store: &ParamStore,
    p: &AttnParams,
    cfg: &ModelConfig,
    q_in: Var,
    kv_in: Var,
    mask: Option<&Tensor>,
    mode: ForwardMode,
    salt: u64,
) -> Var {
    let h = cfg.n_heads;
    let dh = cfg.d_head();
    let scale = 1.0 / (dh as f32).sqrt();

    let wq = tape.param(store, p.wq);
    let bq = tape.param(store, p.bq);
    let wk = tape.param(store, p.wk);
    let bk = tape.param(store, p.bk);
    let wv = tape.param(store, p.wv);
    let bv = tape.param(store, p.bv);
    let wo = tape.param(store, p.wo);
    let bo = tape.param(store, p.bo);

    let q_proj = tape.matmul(q_in, wq);
    let q = tape.add_bias(q_proj, bq);
    let k_proj = tape.matmul(kv_in, wk);
    let k = tape.add_bias(k_proj, bk);
    let v_proj = tape.matmul(kv_in, wv);
    let v = tape.add_bias(v_proj, bv);

    let mut heads = Vec::with_capacity(h);
    for head in 0..h {
        let qh = tape.slice_cols(q, head * dh, dh);
        let kh = tape.slice_cols(k, head * dh, dh);
        let vh = tape.slice_cols(v, head * dh, dh);
        let scores_raw = tape.matmul_bt(qh, kh);
        let mut scores = tape.scale(scores_raw, scale);
        if let Some(m) = mask {
            scores = tape.add_const(scores, m.clone());
        }
        let mut probs = tape.softmax(scores);
        if mode.train && cfg.dropout > 0.0 {
            probs = tape.dropout(
                probs,
                cfg.dropout,
                mode.dropout_seed ^ salt.wrapping_mul(0x9E37) ^ (head as u64),
            );
        }
        heads.push(tape.matmul(probs, vh));
    }
    let ctx = tape.concat_cols(&heads);
    let out_proj = tape.matmul(ctx, wo);
    tape.add_bias(out_proj, bo)
}

/// Feed-forward block with GELU.
fn feed_forward(
    tape: &mut Tape,
    store: &ParamStore,
    p: &FfParams,
    cfg: &ModelConfig,
    x: Var,
    mode: ForwardMode,
    salt: u64,
) -> Var {
    let w1 = tape.param(store, p.w1);
    let b1 = tape.param(store, p.b1);
    let w2 = tape.param(store, p.w2);
    let b2 = tape.param(store, p.b2);
    let h_proj = tape.matmul(x, w1);
    let h_biased = tape.add_bias(h_proj, b1);
    let mut h = tape.gelu(h_biased);
    if mode.train && cfg.dropout > 0.0 {
        h = tape.dropout(
            h,
            cfg.dropout,
            mode.dropout_seed ^ salt.wrapping_mul(0xA5A5),
        );
    }
    let o_proj = tape.matmul(h, w2);
    tape.add_bias(o_proj, b2)
}

fn layernorm(tape: &mut Tape, store: &ParamStore, p: LnParams, x: Var) -> Var {
    let g = tape.param(store, p.gamma);
    let b = tape.param(store, p.beta);
    tape.layernorm(x, g, b)
}

/// Embed token ids and add positional encoding.
fn embed(
    tape: &mut Tape,
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    ids: &[usize],
) -> Var {
    let w = tape.param(store, params.tok_emb);
    let e = tape.embedding(w, ids);
    let e_scaled = tape.scale(e, (cfg.d_model as f32).sqrt());
    let pe = positional_encoding(ids.len(), cfg.d_model);
    tape.add_const(e_scaled, pe)
}

/// Encoder forward: `[T_enc] → [T_enc, D]`.
pub fn encode(
    tape: &mut Tape,
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    src_ids: &[usize],
    mode: ForwardMode,
) -> Var {
    assert!(!src_ids.is_empty(), "encoder input must be non-empty");
    assert!(
        src_ids.len() <= cfg.max_enc_len,
        "encoder input {} exceeds max {}",
        src_ids.len(),
        cfg.max_enc_len
    );
    let mut x = embed(tape, store, params, cfg, src_ids);
    for (l, layer) in params.enc_layers.iter().enumerate() {
        let normed = layernorm(tape, store, layer.ln1, x);
        let a = attention(
            tape,
            store,
            &layer.attn,
            cfg,
            normed,
            normed,
            None,
            mode,
            (l as u64) << 8,
        );
        x = tape.add(x, a);
        let normed2 = layernorm(tape, store, layer.ln2, x);
        let f = feed_forward(
            tape,
            store,
            &layer.ff,
            cfg,
            normed2,
            mode,
            (l as u64) << 8 | 1,
        );
        x = tape.add(x, f);
    }
    layernorm(tape, store, params.enc_ln, x)
}

/// Decoder forward: `[T_dec] × enc_out → logits [T_dec, V]`.
pub fn decode(
    tape: &mut Tape,
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    enc_out: Var,
    dec_ids: &[usize],
    mode: ForwardMode,
) -> Var {
    assert!(!dec_ids.is_empty(), "decoder input must be non-empty");
    assert!(
        dec_ids.len() <= cfg.max_dec_len,
        "decoder input {} exceeds max {}",
        dec_ids.len(),
        cfg.max_dec_len
    );
    let t = dec_ids.len();
    let mask = causal_mask(t);
    let mut x = embed(tape, store, params, cfg, dec_ids);
    for (l, layer) in params.dec_layers.iter().enumerate() {
        let salt = 0x1000 + ((l as u64) << 8);
        let normed = layernorm(tape, store, layer.ln1, x);
        let a = attention(
            tape,
            store,
            &layer.self_attn,
            cfg,
            normed,
            normed,
            Some(&mask),
            mode,
            salt,
        );
        x = tape.add(x, a);
        let normed2 = layernorm(tape, store, layer.ln2, x);
        let c = attention(
            tape,
            store,
            &layer.cross_attn,
            cfg,
            normed2,
            enc_out,
            None,
            mode,
            salt | 2,
        );
        x = tape.add(x, c);
        let normed3 = layernorm(tape, store, layer.ln3, x);
        let f = feed_forward(tape, store, &layer.ff, cfg, normed3, mode, salt | 3);
        x = tape.add(x, f);
    }
    let x = layernorm(tape, store, params.dec_ln, x);
    let w = tape.param(store, params.out_w);
    let b = tape.param(store, params.out_b);
    let logits_proj = tape.matmul(x, w);
    tape.add_bias(logits_proj, b)
}

/// Full training forward: encoder + decoder + teacher-forced cross-entropy.
/// `tgt_ids` must start with `<sos>`; the loss is computed against the
/// shifted sequence (predict token *t+1* at position *t*).
#[allow(clippy::too_many_arguments)] // the training entry point carries the full context
pub fn seq2seq_loss(
    tape: &mut Tape,
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    src_ids: &[usize],
    tgt_ids: &[usize],
    eos_id: usize,
    mode: ForwardMode,
) -> Var {
    assert!(tgt_ids.len() >= 2 || !tgt_ids.is_empty());
    let enc_out = encode(tape, store, params, cfg, src_ids, mode);
    // Decoder input: all but nothing (the full tgt); targets: tgt shifted
    // left with <eos> appended.
    let logits = decode(tape, store, params, cfg, enc_out, tgt_ids, mode);
    let mut targets: Vec<usize> = tgt_ids[1..].to_vec();
    targets.push(eos_id);
    let weights = vec![1.0f32; targets.len()];
    tape.cross_entropy(logits, &targets, &weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpirical_tensor::Adam;

    fn tiny_setup() -> (ModelConfig, ParamStore, TransformerParams) {
        let mut cfg = ModelConfig::tiny();
        cfg.vocab_size = 20;
        let mut store = ParamStore::new();
        let params = build_params(&cfg, &mut store, 7);
        (cfg, store, params)
    }

    #[test]
    fn param_count_matches_estimate() {
        let (cfg, store, _) = tiny_setup();
        let approx = cfg.approx_params();
        let actual = store.num_scalars();
        let ratio = actual as f64 / approx as f64;
        assert!(
            (0.8..1.2).contains(&ratio),
            "approx {approx} vs actual {actual}"
        );
    }

    #[test]
    fn positional_encoding_properties() {
        let pe = positional_encoding(10, 16);
        assert_eq!(pe.shape, vec![10, 16]);
        // First position: sin(0)=0, cos(0)=1 alternating.
        assert_eq!(pe.data[0], 0.0);
        assert_eq!(pe.data[1], 1.0);
        // Distinct positions get distinct encodings.
        assert_ne!(&pe.data[0..16], &pe.data[16..32]);
        assert!(pe.data.iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn causal_mask_shape() {
        let m = causal_mask(4);
        for i in 0..4 {
            for j in 0..4 {
                let v = m.data[i * 4 + j];
                if j > i {
                    assert!(v < -1e8);
                } else {
                    assert_eq!(v, 0.0);
                }
            }
        }
    }

    #[test]
    fn encoder_output_shape() {
        let (cfg, store, params) = tiny_setup();
        let mut tape = Tape::new();
        let out = encode(
            &mut tape,
            &store,
            &params,
            &cfg,
            &[1, 7, 8, 2],
            ForwardMode::inference(),
        );
        assert_eq!(tape.value(out).shape, vec![4, cfg.d_model]);
        assert!(tape.value(out).all_finite());
    }

    #[test]
    fn decoder_logits_shape() {
        let (cfg, store, params) = tiny_setup();
        let mut tape = Tape::new();
        let enc = encode(
            &mut tape,
            &store,
            &params,
            &cfg,
            &[1, 7, 2],
            ForwardMode::inference(),
        );
        let logits = decode(
            &mut tape,
            &store,
            &params,
            &cfg,
            enc,
            &[1, 9, 10],
            ForwardMode::inference(),
        );
        assert_eq!(tape.value(logits).shape, vec![3, cfg.vocab_size]);
        assert!(tape.value(logits).all_finite());
    }

    #[test]
    fn causal_mask_blocks_future_influence() {
        // Changing a future decoder token must not change logits at earlier
        // positions (with dropout off).
        let (cfg, store, params) = tiny_setup();
        let run = |dec: &[usize]| {
            let mut tape = Tape::new();
            let enc = encode(
                &mut tape,
                &store,
                &params,
                &cfg,
                &[1, 4, 2],
                ForwardMode::inference(),
            );
            let logits = decode(
                &mut tape,
                &store,
                &params,
                &cfg,
                enc,
                dec,
                ForwardMode::inference(),
            );
            tape.value(logits).clone()
        };
        let a = run(&[1, 6, 7, 8]);
        let b = run(&[1, 6, 7, 15]);
        let v = cfg.vocab_size;
        // Positions 0..3 identical; only the last row may differ.
        for pos in 0..3 {
            for j in 0..v {
                let (x, y) = (a.data[pos * v + j], b.data[pos * v + j]);
                assert!(
                    (x - y).abs() < 1e-5,
                    "future token leaked into position {pos}"
                );
            }
        }
    }

    #[test]
    fn encoder_is_bidirectional() {
        // Changing the last encoder token changes the representation of the
        // first position — encoders attend both ways.
        let (cfg, store, params) = tiny_setup();
        let run = |src: &[usize]| {
            let mut tape = Tape::new();
            let out = encode(
                &mut tape,
                &store,
                &params,
                &cfg,
                src,
                ForwardMode::inference(),
            );
            tape.value(out).clone()
        };
        let a = run(&[1, 6, 7, 8]);
        let b = run(&[1, 6, 7, 15]);
        let d = cfg.d_model;
        let first_differs = (0..d).any(|j| (a.data[j] - b.data[j]).abs() > 1e-7);
        assert!(first_differs, "encoder must see the whole sequence");
    }

    #[test]
    fn loss_decreases_when_overfitting_one_example() {
        let (cfg, mut store, params) = tiny_setup();
        let src = [1usize, 7, 8, 9, 2];
        let tgt = [1usize, 10, 11, 12];
        let mut adam = Adam::new(3e-3);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..60 {
            let mut tape = Tape::new();
            let loss = seq2seq_loss(
                &mut tape,
                &store,
                &params,
                &cfg,
                &src,
                &tgt,
                2,
                ForwardMode::inference(), // no dropout for the sanity check
            );
            let l = tape.value(loss).item();
            if step == 0 {
                first = l;
            }
            last = l;
            let grads = tape.backward(loss);
            adam.step(&mut store, &grads);
        }
        assert!(
            last < first * 0.5,
            "loss should halve when overfitting: {first} → {last}"
        );
    }

    #[test]
    fn dropout_changes_training_forward_only() {
        let (mut cfg, store, params) = tiny_setup();
        cfg.dropout = 0.3;
        let run = |mode: ForwardMode| {
            let mut tape = Tape::new();
            let out = encode(&mut tape, &store, &params, &cfg, &[1, 7, 8, 2], mode);
            tape.value(out).clone()
        };
        let inf1 = run(ForwardMode::inference());
        let inf2 = run(ForwardMode::inference());
        assert_eq!(inf1, inf2, "inference is deterministic");
        let tr1 = run(ForwardMode::training(1));
        let tr2 = run(ForwardMode::training(2));
        assert_ne!(tr1, tr2, "different dropout seeds differ");
    }

    #[test]
    #[should_panic(expected = "exceeds max")]
    fn encoder_length_guard() {
        let (cfg, store, params) = tiny_setup();
        let ids = vec![1usize; cfg.max_enc_len + 1];
        let mut tape = Tape::new();
        encode(
            &mut tape,
            &store,
            &params,
            &cfg,
            &ids,
            ForwardMode::inference(),
        );
    }
}
