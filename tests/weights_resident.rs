//! One resident copy of every weight matrix: the artifact's `ParamStore`
//! holds each matrix once, packed in the layout the serving kernels stream,
//! so bundling an artifact for an f32 engine allocates no weights. Measured
//! as the process's VmRSS before and after `EngineModel::from_model` at the
//! serving shape (d 256, d_ff 1024, 2 + 2 layers, vocabulary 4096: 5.79 M
//! floats, 11.1 MiB of them in the 17 decoder matrices a second, packed
//! copy would hold).
//!
//! One test in a binary of its own: VmRSS is process-wide, and another
//! test allocating meanwhile would show in it.
#![cfg(target_os = "linux")]

use mpirical_model::{EngineModel, ModelConfig, Precision, Seq2SeqModel, Vocab};
use std::sync::Arc;

/// Resident set size of this process, in bytes.
fn vm_rss() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: usize = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a VmRSS line in kB");
    kb * 1024
}

/// The serving shape, with a vocabulary of 4096 tokens.
fn serving_model() -> Seq2SeqModel {
    let cfg = ModelConfig {
        vocab_size: 0,
        d_model: 256,
        n_heads: 4,
        d_ff: 1024,
        n_enc_layers: 2,
        n_dec_layers: 2,
        max_enc_len: 256,
        max_dec_len: 96,
        dropout: 0.0,
    };
    let filler: Vec<String> = (0..4090).map(|i| format!("tok{i:04}")).collect();
    let vocab = Vocab::build([&filler], 1, filler.len());
    assert_eq!(vocab.len(), 4096);
    Seq2SeqModel::new(cfg, vocab, 0x5EED)
}

#[test]
fn an_f32_engine_model_adds_no_copy_of_the_weights() {
    let model = serving_model();
    let floats = model.store.num_scalars();
    assert!(floats > 5_700_000, "serving shape holds {floats} floats");
    let before = vm_rss();
    let bundle = EngineModel::from_model(&model, Precision::F32);
    let added = vm_rss().saturating_sub(before);
    assert!(Arc::ptr_eq(&bundle.store, &model.store));
    assert!(
        added < 2 << 20,
        "EngineModel::from_model added {:.1} MiB of resident memory",
        added as f64 / (1 << 20) as f64
    );
}
