//! # mpirical-model
//!
//! The seq2seq transformer of MPI-RICAL (paper §IV), built from scratch on
//! [`mpirical_tensor`]:
//!
//! * [`Vocab`] — word-level vocabulary over standardized code tokens (with
//!   fixed specials `<pad> <sos> <eos> <unk> <sep> <nl>`), plus a [`Bpe`]
//!   trainer for the subword ablation;
//! * [`ModelConfig`] / [`transformer`] — SPT-Code-style encoder–decoder with
//!   sinusoidal positions, pre-LN residual blocks, multi-head attention and
//!   GELU feed-forward;
//! * [`mod@train`] — teacher-forced training with Adam(W), warmup schedule,
//!   gradient clipping, and data-parallel batch sharding over crossbeam
//!   scoped threads;
//! * [`infer`] — the KV-cached incremental inference engine: per-layer
//!   paged self-attention K/V caches plus cross-attention K/V projected
//!   once from the encoder output, advanced one token per lane per
//!   lockstep step with no autograd tape;
//! * [`decode`] — [`DecodeOptions`], the greedy/beam token-selection rules,
//!   and the tape replay ([`replay_decode_with`]) kept as the independent
//!   oracle for equivalence tests and benches;
//! * [`batch`] — the [`BatchDecoder`] lockstep scheduler, the one decode
//!   loop every prediction runs through: N concurrent requests (or one)
//!   decoded with continuous batching, their per-step projections fused
//!   into shared packed-matrix kernels (a lane's logits never depend on
//!   the other lanes), a typed [`PollResult`] lifecycle with streaming
//!   partial tokens, and cancellation;
//! * [`policy`] — every scheduling decision those schedulers carry out:
//!   priority admission ([`Priority`], aging, EDF), bulk-lane preemption,
//!   page-pressure victims, the Interactive hold and engine placement,
//!   over integer tickets and step counts only;
//! * [`engine`] — the [`Engine`]: N such schedulers on worker threads over
//!   one page pool and one [`prefix`] table, which shares the
//!   cross-attention K/V of a recently seen encoder output;
//! * [`Seq2SeqModel`] — the bundled artifact (config + vocab + weights) with
//!   JSON checkpointing.
//!
//! The crate is representation-agnostic: it consumes `Vec<usize>` token ids.
//! C-code tokenization lives in the `mpirical` core crate.

pub mod batch;
pub mod bpe;
pub mod config;
pub mod decode;
pub mod engine;
pub mod infer;
pub mod paged;
pub mod policy;
pub mod prefix;
pub mod train;
pub mod transformer;
pub mod vocab;

pub use batch::{
    BatchDecoder, BatchRequest, PollResult, Priority, RequestId, RequestTelemetry, SubmitOptions,
    DEFAULT_AGING_STEPS, DEFAULT_MAX_BATCH,
};
pub use bpe::Bpe;
pub use config::ModelConfig;
pub use decode::{replay_decode_with, DecodeOptions};
pub use engine::{Engine, EngineConfig, EngineModel, EngineTicket, InteractiveReservation};
pub use infer::{
    decode_step_batch, BatchScratch, DecoderCache, DecoderWeights, PackedDecoderWeights, Precision,
    QuantDecoderWeights,
};
pub use paged::{PagePool, PoolStats, PAGE_ROWS};
pub use prefix::{PrefixStats, PREFIX_CACHE_CAP};
pub use train::{evaluate, train, EpochStats, Example, TrainConfig, TrainReport};
pub use transformer::{build_params, ForwardMode, TransformerParams};
pub use vocab::{Vocab, EOS, NL, PAD, SEP, SOS, UNK};

use mpirical_tensor::ParamStore;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// A complete model artifact: configuration, vocabulary and weights.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Seq2SeqModel {
    pub cfg: ModelConfig,
    pub vocab: Vocab,
    pub store: ParamStore,
    pub params: TransformerParams,
}

impl Seq2SeqModel {
    /// Initialize a fresh model for a built vocabulary.
    pub fn new(mut cfg: ModelConfig, vocab: Vocab, seed: u64) -> Seq2SeqModel {
        cfg.vocab_size = vocab.len();
        let mut store = ParamStore::new();
        let params = build_params(&cfg, &mut store, seed);
        Seq2SeqModel {
            cfg,
            vocab,
            store,
            params,
        }
    }

    /// Train in place; returns per-epoch stats (Fig. 5 series).
    pub fn fit(
        &mut self,
        train_set: &[Example],
        val_set: &[Example],
        tcfg: &TrainConfig,
        on_epoch: impl FnMut(&EpochStats),
    ) -> TrainReport {
        train(
            &mut self.store,
            &self.params,
            &self.cfg,
            train_set,
            val_set,
            tcfg,
            on_epoch,
        )
    }

    /// Teacher-forced metrics on a dataset: `(loss, seq_acc, tok_acc)`.
    pub fn evaluate(&self, examples: &[Example]) -> (f64, f64, f64) {
        evaluate(&self.store, &self.params, &self.cfg, examples)
    }

    /// Serialize the full artifact to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("model serializes")
    }

    /// Deserialize and rebuild skipped indices.
    pub fn from_json(text: &str) -> Result<Seq2SeqModel, serde_json::Error> {
        let mut m: Seq2SeqModel = serde_json::from_str(text)?;
        m.store.rebuild_index();
        m.vocab.rebuild_index();
        Ok(m)
    }

    /// Save to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Load from a file.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Seq2SeqModel> {
        let text = std::fs::read_to_string(path)?;
        Seq2SeqModel::from_json(&text).map_err(std::io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> Seq2SeqModel {
        let seqs: Vec<Vec<String>> = vec![["int", "main", "(", ")", "{", "}", "MPI_Init", ";"]
            .iter()
            .map(|s| s.to_string())
            .collect()];
        let vocab = Vocab::build(seqs.iter(), 1, 100);
        Seq2SeqModel::new(ModelConfig::tiny(), vocab, 5)
    }

    #[test]
    fn new_model_sets_vocab_size() {
        let m = tiny_model();
        assert_eq!(m.cfg.vocab_size, m.vocab.len());
        assert!(m.store.num_scalars() > 1000);
    }

    #[test]
    fn checkpoint_roundtrip_preserves_behaviour() {
        let m = tiny_model();
        let src = vec![SOS, m.vocab.id("int"), m.vocab.id("main"), EOS];
        let generate = |m: &Seq2SeqModel| {
            let enc_out = decode::encode_source(&m.store, &m.params, &m.cfg, &src);
            BatchDecoder::new(&m.store, &m.params, &m.cfg, 1)
                .decode_all(vec![BatchRequest::greedy(enc_out, 10)])
                .swap_remove(0)
        };
        let out1 = generate(&m);
        let json = m.to_json();
        let m2 = Seq2SeqModel::from_json(&json).unwrap();
        let out2 = generate(&m2);
        assert_eq!(out1, out2, "loaded model generates identically");
        assert_eq!(m2.vocab.id("MPI_Init"), m.vocab.id("MPI_Init"));
    }

    #[test]
    fn file_roundtrip() {
        let m = tiny_model();
        let dir = std::env::temp_dir().join("mpirical_model_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        m.save(&path).unwrap();
        let m2 = Seq2SeqModel::load(&path).unwrap();
        assert_eq!(m2.cfg, m.cfg);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fit_smoke() {
        let mut m = tiny_model();
        let a = m.vocab.id("int");
        let b = m.vocab.id("main");
        let data = vec![
            Example {
                src: vec![SOS, a, EOS],
                tgt: vec![SOS, a],
            },
            Example {
                src: vec![SOS, b, EOS],
                tgt: vec![SOS, b],
            },
        ];
        let tcfg = TrainConfig {
            epochs: 2,
            batch_size: 2,
            threads: 1,
            validate: true,
            ..Default::default()
        };
        let report = m.fit(&data, &data, &tcfg, |_| {});
        assert_eq!(report.epochs.len(), 2);
        assert!(report.epochs[0].train_loss.is_finite());
    }
}
