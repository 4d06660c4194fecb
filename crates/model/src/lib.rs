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
//!   gradient clipping, and data-parallel batch sharding through
//!   [`mpirical_tensor::par`];
//! * [`infer`] — the KV-cached incremental inference engine: per-layer
//!   paged self-attention K/V caches plus cross-attention K/V projected
//!   once from the encoder output, advanced one token per lane per
//!   lockstep step with no autograd tape;
//! * [`decode`] — [`DecodeOptions`], the greedy/beam token-selection rules,
//!   and the tape replay ([`replay_decode_with`]) kept as the independent
//!   oracle for equivalence tests;
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
//! * [`Seq2SeqModel`] — the bundled artifact (config + vocab + weights),
//!   its values held in one `Arc<ParamStore>` that every [`EngineModel`]
//!   built from it shares (the `mpirical` crate saves and loads it).
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
    BatchDecoder, BatchRequest, PollResult, Priority, RequestId, RequestTelemetry, SourceRequest,
    SubmitOptions, DEFAULT_AGING_STEPS, DEFAULT_MAX_BATCH,
};
pub use bpe::Bpe;
pub use config::ModelConfig;
pub use decode::{replay_decode_with, DecodeOptions};
pub use engine::{Engine, EngineConfig, EngineModel, EngineTicket, Resolutions};
pub use infer::{
    decode_step_batch, BatchScratch, DecoderCache, DecoderWeights, EncoderRun, Precision,
    QuantDecoderWeights,
};
pub use paged::{PagePool, PoolStats, PAGE_ROWS};
pub use prefix::{PrefixStats, PREFIX_CACHE_CAP};
pub use train::{evaluate, train, EpochStats, Example, TrainConfig, TrainReport};
pub use transformer::{build_params, ForwardMode, TransformerParams};
pub use vocab::{Vocab, EOS, NL, PAD, SEP, SOS, UNK};

use mpirical_tensor::ParamStore;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A complete model artifact: configuration, vocabulary and weights.
///
/// The weights are read-only once training ends, so clones of the artifact
/// and the [`EngineModel`]s built from it share one value set; a clone
/// costs an `Arc` bump plus the vocabulary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Seq2SeqModel {
    pub cfg: ModelConfig,
    pub vocab: Vocab,
    pub store: Arc<ParamStore>,
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
            store: Arc::new(store),
            params,
        }
    }

    /// Train in place; returns per-epoch stats (Fig. 5 series). Each call
    /// starts a fresh optimizer (zero moments, step 0). The values are
    /// written through [`Arc::make_mut`], so a store still shared with a
    /// clone or an engine is copied first and they keep the old weights.
    pub fn fit(
        &mut self,
        train_set: &[Example],
        val_set: &[Example],
        tcfg: &TrainConfig,
        on_epoch: impl FnMut(&EpochStats),
    ) -> TrainReport {
        train(
            Arc::make_mut(&mut self.store),
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

    /// Regression: a second `fit` once resumed the first one's Adam
    /// moments with a reset step count. Every `fit` now starts fresh, so
    /// `fit(A); fit(B)` on one model equals `fit(A)`, the values moved
    /// into a fresh model, then `fit(B)` — bit for bit.
    #[test]
    fn second_fit_starts_from_fresh_optimizer_state() {
        let set = |words: &[&str], m: &Seq2SeqModel| -> Vec<Example> {
            words
                .iter()
                .map(|w| Example {
                    src: vec![SOS, m.vocab.id(w), EOS],
                    tgt: vec![SOS, m.vocab.id(w), m.vocab.id(";")],
                })
                .collect()
        };
        let tcfg = TrainConfig {
            epochs: 2,
            batch_size: 2,
            threads: 1,
            warmup_steps: 0,
            validate: false,
            ..Default::default()
        };
        let mut resumed = tiny_model();
        let (a, b) = (
            set(&["int", "main"], &resumed),
            set(&["MPI_Init", "{"], &resumed),
        );
        resumed.fit(&a, &[], &tcfg, |_| {});
        let mut fresh = tiny_model();
        let store = Arc::make_mut(&mut fresh.store);
        for id in resumed.store.ids() {
            store.set(id, resumed.store.tensor(id));
        }
        resumed.fit(&b, &[], &tcfg, |_| {});
        fresh.fit(&b, &[], &tcfg, |_| {});
        for id in resumed.store.ids() {
            let bits = |m: &Seq2SeqModel| -> Vec<u32> {
                m.store
                    .tensor(id)
                    .data
                    .iter()
                    .map(|x| x.to_bits())
                    .collect()
            };
            assert!(bits(&resumed) == bits(&fresh), "parameter {id:?} differs");
        }
    }

    /// `fit` on a store an engine still shares copies it first: the engine
    /// keeps serving the weights it was built on.
    #[test]
    fn fit_leaves_a_sharing_engine_model_untouched() {
        let mut m = tiny_model();
        let engine = EngineModel::from_model(&m, Precision::F32);
        assert!(Arc::ptr_eq(&m.store, &engine.store));
        let before = (*engine.store).clone();
        let ex = Example {
            src: vec![SOS, m.vocab.id("int"), EOS],
            tgt: vec![SOS, m.vocab.id("main")],
        };
        let tcfg = TrainConfig {
            epochs: 1,
            threads: 1,
            validate: false,
            ..Default::default()
        };
        m.fit(&[ex], &[], &tcfg, |_| {});
        assert!(!Arc::ptr_eq(&m.store, &engine.store));
        for id in before.ids() {
            assert_eq!(engine.store.tensor(id).data, before.tensor(id).data);
        }
        assert!(before
            .ids()
            .any(|id| m.store.tensor(id).data != before.tensor(id).data));
    }
}
