//! `MpiRical` — the user-facing assistant (the paper's system, §IV).
//!
//! Train on a corpus dataset; then, given serial-looking C code (no MPI
//! calls yet), [`MpiRical::suggest`] returns the MPI functions to insert and
//! the lines to insert them at, and [`MpiRical::translate`] returns the full
//! predicted parallel program — the two faces of the paper's IDE-assistant
//! deployment. [`MpiRical::suggest_batch`] serves many buffers at once.
//! Every one of them is a request to the same batch scheduler — `suggest`
//! is a batch of one — so there is one decode loop to swap a model into;
//! for a long-running daemon, the submit/poll façade over that loop is
//! [`SuggestService`](crate::service::SuggestService).
//!
//! ```no_run
//! use mpirical::MpiRical;
//!
//! let assistant = MpiRical::load("model.json")?;
//! // One open buffer…
//! for s in assistant.suggest("int main() { int rank; return 0; }") {
//!     println!("insert {} at line {}", s.function, s.line);
//! }
//! // …or every open buffer at once, decoded concurrently (identical
//! // output, ≥3× aggregate throughput at batch 8).
//! let buffers = ["int main() { return 0; }", "int main() { int rank; }"];
//! let per_buffer = assistant.suggest_batch(&buffers);
//! assert_eq!(per_buffer.len(), buffers.len());
//! # Ok::<(), std::io::Error>(())
//! ```

use crate::encode::{build_vocab, encode_dataset, encode_record, InputFormat};
use crate::tokenize::{calls_from_ids, detokenize, tokenize_code};
use crate::verify::{self, Verdict, VerifyOptions, VerifyStats};
use mpirical_corpus::Dataset;
use mpirical_cparse::{parse_tolerant, print_program, ParseHealth, Program};
use mpirical_metrics::CallSite;
use mpirical_model::decode::encode_source as model_encode;
use mpirical_model::vocab::{EOS, SEP, SOS};
use mpirical_model::{
    BatchRequest, DecodeOptions, Engine, EngineConfig, EngineModel, EpochStats, ModelConfig,
    Precision, PrefixStats, Seq2SeqModel, SubmitOptions, TrainConfig, TrainReport,
    DEFAULT_MAX_BATCH,
};
use mpirical_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// One assistance suggestion: insert `function` at `line` of the
/// standardized (predicted) program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Suggestion {
    /// MPI function name (e.g. `MPI_Allreduce`).
    pub function: String,
    /// 1-based line of the standardized program to insert the call at.
    pub line: u32,
    /// True when the suggestion's line falls inside a dirty range of a
    /// degraded (mid-edit) parse — the model was looking at an error region,
    /// so the suggestion is demoted behind clean-region ones. Defaults false
    /// so pre-existing serialized artifacts still deserialize.
    #[serde(default)]
    pub degraded: bool,
    /// What the closed verification loop observed when this suggestion's
    /// hypothesis was spliced into the source and executed on the
    /// simulated MPI runtime ([`crate::verify`]); `None` when verification
    /// is off or the hypothesis was past the verification budget. Defaults
    /// `None` so pre-existing serialized artifacts still deserialize.
    #[serde(default)]
    pub verdict: Option<Verdict>,
}

impl From<CallSite> for Suggestion {
    fn from(c: CallSite) -> Suggestion {
        Suggestion {
            function: c.name,
            line: c.line,
            degraded: false,
            verdict: None,
        }
    }
}

/// Encoder ids for one source plus the front-end degradation summary
/// ([`ParseHealth`]) observed while producing them. `health.dirty_lines`
/// is in *canonical* (standardized) line space — the same space suggestion
/// lines refer to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedSource {
    pub ids: Vec<usize>,
    pub health: ParseHealth,
}

/// [`MpiRical::suggest_report`] output: the suggestions (clean-region first)
/// plus the parse health that produced them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuggestReport {
    pub suggestions: Vec<Suggestion>,
    pub health: ParseHealth,
    /// Closed-loop verification telemetry (`None` when verification is
    /// off). Defaults so pre-existing serialized reports still deserialize.
    #[serde(default)]
    pub verify: Option<VerifyStats>,
    /// Encoder-table telemetry of the one-shot engine that served the
    /// call: `hits` counts sources of the call whose encoder forward was
    /// skipped because identical encoder ids came earlier in the same call,
    /// `misses` the forwards run ([`PrefixStats::hit_rate`] is the headline
    /// number). One snapshot, repeated on every report of a
    /// [`MpiRical::suggest_batch_reports`] batch. Optional so pre-existing
    /// serialized reports still deserialize.
    #[serde(default)]
    pub prefix: Option<PrefixStats>,
}

/// Flag suggestions that land inside the parse's dirty line ranges and
/// demote them behind clean-region suggestions (stable within each class).
fn apply_health(suggestions: &mut [Suggestion], health: &ParseHealth) {
    if health.is_clean() {
        return;
    }
    for s in suggestions.iter_mut() {
        s.degraded = health.is_dirty_line(s.line);
    }
    suggestions.sort_by_key(|s| s.degraded);
}

/// The canonical (standardized) serial program for a raw source — the same
/// tolerant-parse → print → reparse pipeline as
/// [`MpiRical::encode_source`], so suggestion lines, dirty ranges, and the
/// verifier's splice targets all live in one line space.
fn canonical_program(c_source: &str) -> Program {
    let parsed = parse_tolerant(c_source);
    let std_text = print_program(&parsed.program);
    parse_tolerant(&std_text).program
}

/// Assistant configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MpiRicalConfig {
    /// Transformer shape (layers, widths, window lengths).
    pub model: ModelConfig,
    /// Optimization schedule for [`MpiRical::train`].
    pub train: TrainConfig,
    /// Source encoding: code only, or code + linearized AST (X-SBT).
    pub input_format: InputFormat,
    /// Vocabulary construction knobs.
    pub vocab_min_freq: usize,
    pub vocab_max_size: usize,
    /// Model-init / training seed.
    pub seed: u64,
    /// Inference-time decoding knobs (beam width etc.), carried into the
    /// trained artifact so `suggest`/`translate` use them.
    #[serde(default)]
    pub decode: DecodeOptions,
    /// Closed-loop verification knobs (`Some` turns the loop on: every
    /// suggestion path executes its candidates on the simulated MPI
    /// runtime and re-ranks by observed semantics). Carried into the
    /// trained artifact; defaults off.
    #[serde(default)]
    pub verify: Option<VerifyOptions>,
}

impl Default for MpiRicalConfig {
    fn default() -> Self {
        MpiRicalConfig {
            model: ModelConfig::default(),
            train: TrainConfig::default(),
            input_format: InputFormat::CodeXsbt,
            vocab_min_freq: 2,
            vocab_max_size: 4096,
            seed: 0x5EED,
            decode: DecodeOptions::default(),
            verify: None,
        }
    }
}

/// The trained assistant artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MpiRical {
    /// Transformer weights, configuration, and vocabulary.
    pub model: Seq2SeqModel,
    /// How sources were encoded at training time (code only, or code +
    /// X-SBT); inference must match.
    pub input_format: InputFormat,
    /// Decoding configuration for the suggestion path (KV-cached greedy by
    /// default; beam > 1 trades latency for quality;
    /// `precision: Precision::Int8` serves through the per-channel int8
    /// quantized kernels — ~4× less weight traffic per decoded token).
    /// Defaults on load so artifacts saved before this field existed still
    /// deserialize.
    #[serde(default)]
    pub decode: DecodeOptions,
    /// Cached [`EngineModel`] bundle every [`Engine`] over this artifact
    /// runs on, with its decoder weights packed or quantized **once per
    /// artifact**: eagerly at [`load`](Self::load)/[`train`](Self::train)
    /// when `decode.precision == Int8`, on the first decode otherwise.
    /// Rebuilt if `decode.precision` changes, so a re-configured artifact
    /// never serves stale-precision weights. Not serialized (always
    /// re-derived from the f32 weights); clones share the cache through
    /// the `Arc`.
    #[serde(skip)]
    pub(crate) engine_model: Arc<Mutex<Option<Arc<EngineModel>>>>,
    /// Closed-loop verification options; `Some` makes every suggestion
    /// path splice, execute, and re-rank its beam hypotheses (see
    /// [`crate::verify`]). `None` — the default, and what pre-existing
    /// artifacts deserialize to — keeps the fast generate-only path.
    #[serde(default)]
    pub verify: Option<VerifyOptions>,
}

impl MpiRical {
    /// Train from scratch on a dataset's train/val splits.
    /// `on_epoch` receives per-epoch telemetry (the Fig. 5 series).
    pub fn train(
        train_set: &Dataset,
        val_set: &Dataset,
        cfg: &MpiRicalConfig,
        mut on_epoch: impl FnMut(&EpochStats),
    ) -> (MpiRical, TrainReport) {
        let vocab = build_vocab(train_set, cfg.vocab_min_freq, cfg.vocab_max_size);
        let mut model = Seq2SeqModel::new(cfg.model.clone(), vocab, cfg.seed);
        let (train_ex, _) = encode_dataset(train_set, &model.vocab, &model.cfg, cfg.input_format);
        let (val_ex, _) = encode_dataset(val_set, &model.vocab, &model.cfg, cfg.input_format);
        assert!(
            !train_ex.is_empty(),
            "no training example fits the model windows"
        );
        cfg.decode
            .validate()
            .expect("MpiRicalConfig decode options are invalid");
        let report = model.fit(&train_ex, &val_ex, &cfg.train, |s| on_epoch(s));
        let assistant = MpiRical {
            model,
            input_format: cfg.input_format,
            decode: cfg.decode,
            engine_model: Arc::default(),
            verify: cfg.verify.clone(),
        };
        if assistant.decode.precision == Precision::Int8 {
            assistant.engine_model();
        }
        (assistant, report)
    }

    /// Assemble an assistant directly from its parts — the escape hatch
    /// for tests, benches, and callers reconstructing an artifact by hand
    /// ([`train`](Self::train)/[`load`](Self::load) are the ordinary
    /// paths). The engine-model cache starts empty and fills on first use.
    pub fn from_parts(
        model: Seq2SeqModel,
        input_format: InputFormat,
        decode: DecodeOptions,
        verify: Option<VerifyOptions>,
    ) -> MpiRical {
        MpiRical {
            model,
            input_format,
            decode,
            engine_model: Arc::default(),
            verify,
        }
    }

    /// Encode raw (possibly incomplete) C source into encoder ids:
    /// tolerant-parse → standardize → X-SBT → `<sos> code <sep> xsbt <eos>`.
    ///
    /// The returned [`EncodedSource`] also carries the [`ParseHealth`] of the
    /// front-end pass: error/recovery counts are the worse of the original
    /// parse and the canonical reparse, while the dirty line ranges come from
    /// the reparse so they live in the same canonical line space as
    /// suggestion lines.
    pub fn encode_source(&self, c_source: &str) -> EncodedSource {
        let parsed = parse_tolerant(c_source);
        let std_text = print_program(&parsed.program);
        let reparsed = parse_tolerant(&std_text);
        let mut health = reparsed.health();
        let original = parsed.health();
        health.error_count = health.error_count.max(original.error_count);
        health.recovery_events = health.recovery_events.max(original.recovery_events);
        let code_toks = tokenize_code(&std_text);
        let xsbt_toks: Vec<String> = match self.input_format {
            InputFormat::CodeOnly => vec![],
            InputFormat::CodeXsbt => mpirical_xsbt::xsbt(&reparsed.program),
        };
        let cfg = &self.model.cfg;
        let budget = cfg.max_enc_len.saturating_sub(3);
        let code_take = code_toks.len().min(budget);
        let xsbt_take = xsbt_toks.len().min(budget - code_take);
        let mut src = Vec::with_capacity(code_take + xsbt_take + 3);
        src.push(SOS);
        src.extend(self.model.vocab.encode(&code_toks[..code_take]));
        src.push(SEP);
        src.extend(self.model.vocab.encode(&xsbt_toks[..xsbt_take]));
        src.push(EOS);
        EncodedSource { ids: src, health }
    }

    /// The one generation call every prediction path funnels through:
    /// encode each source's encoder ids through a one-shot [`Engine`]'s
    /// encoder table (a source repeated within the call runs its forward
    /// once), decode them on that engine over the cached
    /// [`engine_model`](Self::engine_model) bundle (weights packed or
    /// quantized once per artifact, not per call) and return each
    /// source's ranked hypotheses — best model score first, never empty —
    /// in input order, plus the engine's final [`PrefixStats`] snapshot
    /// (taken after the batch drains).
    /// How many workers the engine runs is a pure throughput decision:
    /// outputs are bitwise identical at any count (pinned by
    /// `tests/parallel_engine_props.rs`).
    fn decode_hypotheses(&self, sources: &[&[usize]]) -> (Vec<Vec<Vec<usize>>>, PrefixStats) {
        if sources.is_empty() {
            return (Vec::new(), PrefixStats::default());
        }
        let engine = Engine::new(
            self.engine_model(),
            EngineConfig {
                workers: Self::engine_workers(sources.len()),
                max_batch: DEFAULT_MAX_BATCH.max(self.decode.beam),
                ..EngineConfig::default()
            },
        );
        let reqs = (sources.iter())
            .map(|ids| self.request(engine.encode(ids), SubmitOptions::default()))
            .collect();
        let out = engine.decode_all_hypotheses(reqs);
        let prefix = engine.prefix_stats();
        engine.shutdown();
        (out, prefix)
    }

    /// Turn one request's ranked hypotheses into what the caller sees —
    /// the single assembly point of `suggest*` and
    /// [`SuggestService`](crate::service::SuggestService). With a splice
    /// `base` (see [`verify_base`](Self::verify_base)) the hypotheses are
    /// executed and re-ranked by [`verify_and_rank`](Self::verify_and_rank);
    /// without one the model's winner (element 0) stands. The winner's
    /// call sites become suggestions carrying its verdict, flagged and
    /// demoted per the buffer's [`ParseHealth`].
    pub(crate) fn assemble(
        &self,
        base: Option<&Program>,
        hypotheses: Vec<Vec<usize>>,
        health: &ParseHealth,
    ) -> (Vec<Suggestion>, Option<VerifyStats>) {
        let (winner, verdict, stats) = match (base, &self.verify) {
            (Some(base), Some(vopts)) => {
                let (winner, verdict, stats) = self.verify_and_rank(base, hypotheses, vopts);
                (winner, verdict, Some(stats))
            }
            _ => (
                hypotheses.into_iter().next().unwrap_or_default(),
                None,
                None,
            ),
        };
        let mut suggestions: Vec<Suggestion> = calls_from_ids(&winner, &self.model.vocab)
            .into_iter()
            .map(|c| Suggestion {
                verdict,
                ..Suggestion::from(c)
            })
            .collect();
        apply_health(&mut suggestions, health);
        (suggestions, stats)
    }

    /// The serial program a verifying artifact splices hypotheses into —
    /// `None` when verification is off, which is what tells
    /// [`assemble`](Self::assemble) to skip the closed loop.
    pub(crate) fn verify_base(&self, c_source: &str) -> Option<Program> {
        self.verify.as_ref().map(|_| canonical_program(c_source))
    }

    /// Execute up to `opts.max_hypotheses` hypotheses against the serial
    /// `base` program and stably re-rank by verdict class (`Verified`
    /// first, unverified next, observed failures last — pure model-score
    /// order within each class). Returns the winning hypothesis with its
    /// verdict, plus the verification telemetry.
    fn verify_and_rank(
        &self,
        base: &Program,
        hypotheses: Vec<Vec<usize>>,
        opts: &VerifyOptions,
    ) -> (Vec<usize>, Option<Verdict>, VerifyStats) {
        let mut stats = VerifyStats::default();
        let ranked: Vec<(Vec<usize>, Option<Verdict>)> = hypotheses
            .into_iter()
            .enumerate()
            .map(|(i, ids)| {
                let verdict = if i < opts.max_hypotheses {
                    let predicted = self.ids_to_source(&ids);
                    let (v, runs) = verify::verify_prediction(base, &predicted, opts);
                    stats.record(v, runs);
                    Some(v)
                } else {
                    stats.unverified += 1;
                    None
                };
                (ids, verdict)
            })
            .collect();
        let (ids, verdict) = verify::rerank(ranked)
            .into_iter()
            .next()
            .unwrap_or_default();
        (ids, verdict, stats)
    }

    /// Decoded ids rendered back to displayable predicted source text (the
    /// same detokenization as [`translate`](Self::translate)).
    fn ids_to_source(&self, ids: &[usize]) -> String {
        detokenize(&self.model.vocab.decode(ids))
    }

    /// Predict the full MPI-parallel program for the given source. Returns
    /// the decoded token ids — the winner of a one-request batch under the
    /// artifact's [`DecodeOptions`] (greedy unless `decode.beam > 1`; int8
    /// projection kernels when `decode.precision` is [`Precision::Int8`]).
    pub fn predict_ids(&self, c_source: &str) -> Vec<usize> {
        let enc = self.encode_source(c_source);
        let (mut ranked, _) = self.decode_hypotheses(&[&enc.ids]);
        ranked.swap_remove(0).swap_remove(0)
    }

    /// Suggest MPI functions and their insertion lines (paper RQ1 + RQ2).
    /// Suggestions whose lines fall inside a degraded parse's dirty ranges
    /// are flagged [`Suggestion::degraded`] and demoted behind clean-region
    /// ones; use [`suggest_report`](Self::suggest_report) to also see the
    /// parse health itself.
    pub fn suggest(&self, c_source: &str) -> Vec<Suggestion> {
        self.suggest_report(c_source).suggestions
    }

    /// [`suggest`](Self::suggest) plus the front-end [`ParseHealth`], so a
    /// caller can tell a clean-parse suggestion set from one produced around
    /// unparseable mid-edit regions. A batch of one:
    /// [`suggest_batch_reports`](Self::suggest_batch_reports) on `[c_source]`.
    pub fn suggest_report(&self, c_source: &str) -> SuggestReport {
        self.suggest_batch_reports(&[c_source]).swap_remove(0)
    }

    /// The cached [`EngineModel`] bundle every [`Engine`] over this
    /// artifact runs on — the one-shot prediction paths here and every
    /// [`SuggestService`](crate::service::SuggestService) alike. Built on
    /// first use for the artifact's current precision (an `Int8` artifact
    /// builds it at load/train, so serving never pays the quantization)
    /// and rebuilt only if `decode.precision` changes.
    pub fn engine_model(&self) -> Arc<EngineModel> {
        let mut slot = self
            .engine_model
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(bundle) = slot.as_ref() {
            if bundle.precision() == self.decode.precision {
                return Arc::clone(bundle);
            }
        }
        let bundle = Arc::new(EngineModel::from_model(&self.model, self.decode.precision));
        *slot = Some(Arc::clone(&bundle));
        bundle
    }

    /// Worker count the prediction paths shard across for `reqs`
    /// requests: one worker per request up to the machine's available
    /// parallelism, capped at 8 (per-worker scratch buffers are not
    /// free). `MPIRICAL_ENGINE_WORKERS` overrides the cores/cap part —
    /// `1` forces a 1-worker engine, higher values force sharding even on
    /// small machines.
    fn engine_workers(reqs: usize) -> usize {
        let var = std::env::var("MPIRICAL_ENGINE_WORKERS").ok();
        Self::engine_workers_from(var.as_deref(), reqs)
    }

    /// [`engine_workers`](Self::engine_workers) with the environment
    /// override passed explicitly, so the parse policy is testable without
    /// mutating process-global state. An invalid override (non-numeric or
    /// `0`) panics with a descriptive message instead of being silently
    /// ignored — a deployment that sets the knob wrong should find out at
    /// the first decode, not run forever on a default it never asked for.
    fn engine_workers_from(var: Option<&str>, reqs: usize) -> usize {
        let cores = match var {
            Some(raw) => raw
                .trim()
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| {
                    panic!(
                        "MPIRICAL_ENGINE_WORKERS must be a positive worker count, got {raw:?} \
                     (set 1 to force a 1-worker engine, or unset the variable \
                     to auto-detect from available parallelism)"
                    )
                }),
            None => mpirical_tensor::available_cores().min(8),
        };
        cores.min(reqs)
    }

    /// Build a [`BatchRequest`] from an already-encoded source: run the
    /// encoder forward (never cached: this is the forward as such) and
    /// attach the `<sos>` prompt, the artifact's [`DecodeOptions`] and the
    /// caller's [`SubmitOptions`]. The caller keeps the
    /// [`EncodedSource::health`] to interpret the eventual output.
    pub fn request_from_encoded(&self, enc: &EncodedSource, submit: SubmitOptions) -> BatchRequest {
        let m = &self.model;
        let enc_out = model_encode(&m.store, &m.params, &m.cfg, &enc.ids);
        self.request(enc_out, submit)
    }

    /// Build a [`BatchRequest`] over an encoder output: the `<sos>` prompt,
    /// the artifact's [`DecodeOptions`] (beam included — the lockstep
    /// scheduler decodes beam requests natively) and the caller's
    /// [`SubmitOptions`]. The single construction point shared by every
    /// prediction method here and
    /// [`SuggestService`](crate::service::SuggestService), so the one-shot
    /// and daemon serving paths can never drift apart.
    pub(crate) fn request(&self, enc_out: Tensor, submit: SubmitOptions) -> BatchRequest {
        BatchRequest {
            enc_out,
            prompt: vec![SOS],
            max_len: self.model.cfg.max_dec_len,
            opts: self.decode,
            submit,
        }
    }

    /// Batched [`suggest`](Self::suggest): one `Vec<Suggestion>` per source,
    /// in input order, decoded concurrently through the batch scheduler.
    /// Per-source [`ParseHealth`] is applied exactly as in the sequential
    /// path, so degraded-flagging and demotion cannot drift between the two.
    pub fn suggest_batch(&self, sources: &[&str]) -> Vec<Vec<Suggestion>> {
        self.suggest_batch_reports(sources)
            .into_iter()
            .map(|r| r.suggestions)
            .collect()
    }

    /// [`suggest_batch`](Self::suggest_batch) with full per-source
    /// [`SuggestReport`]s: parse health, verification telemetry (on a
    /// verifying artifact), and the call's encoder-table telemetry. Every
    /// report in the batch carries the same [`PrefixStats`] snapshot —
    /// identical buffers within the call skip their encoder forward and
    /// show up as hits.
    pub fn suggest_batch_reports(&self, sources: &[&str]) -> Vec<SuggestReport> {
        let encoded: Vec<EncodedSource> = sources.iter().map(|s| self.encode_source(s)).collect();
        let ids: Vec<&[usize]> = encoded.iter().map(|e| &e.ids[..]).collect();
        let (ranked, prefix) = self.decode_hypotheses(&ids);
        ranked
            .into_iter()
            .zip(encoded.into_iter().zip(sources))
            .map(|(hypotheses, (enc, source))| {
                let base = self.verify_base(source);
                let (suggestions, verify) = self.assemble(base.as_ref(), hypotheses, &enc.health);
                SuggestReport {
                    suggestions,
                    health: enc.health,
                    verify,
                    prefix: Some(prefix),
                }
            })
            .collect()
    }

    /// Full translation: predicted parallel program as source text.
    pub fn translate(&self, c_source: &str) -> String {
        self.ids_to_source(&self.predict_ids(c_source))
    }

    /// Predict for an already-encoded dataset record: a batch of one
    /// through [`predict_records_ids`](Self::predict_records_ids).
    pub fn predict_record_ids(&self, record: &mpirical_corpus::Record) -> Option<Vec<usize>> {
        self.predict_records_ids(std::slice::from_ref(record))
            .swap_remove(0)
    }

    /// Predict for dataset records (the evaluation path): every record is
    /// encoded, and all of them decode through one engine. `None` marks a
    /// record the encoder rejects (see `encode_record`), in input order.
    pub fn predict_records_ids(
        &self,
        records: &[mpirical_corpus::Record],
    ) -> Vec<Option<Vec<usize>>> {
        let (vocab, cfg) = (&self.model.vocab, &self.model.cfg);
        let encoded: Vec<_> = records
            .iter()
            .map(|r| encode_record(r, vocab, cfg, self.input_format))
            .collect();
        let ids: Vec<&[usize]> = encoded.iter().flatten().map(|ex| &ex.src[..]).collect();
        let mut winners = self
            .decode_hypotheses(&ids)
            .0
            .into_iter()
            .map(|mut ranked| ranked.swap_remove(0));
        encoded
            .iter()
            .map(|ex| {
                ex.as_ref()
                    .map(|_| winners.next().expect("one ranked list per request"))
            })
            .collect()
    }

    /// Save the artifact (model + vocab + input format) as JSON.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, serde_json::to_string(self).expect("serializes"))
    }

    /// Load a saved artifact. Rejects artifacts whose decode options are
    /// invalid (e.g. `beam = 0`) instead of letting them panic deep inside
    /// a later decode, and — the artifact-load-time quantization — eagerly
    /// quantizes the decoder weights when the artifact is configured for
    /// [`Precision::Int8`], so the first request pays no quantization cost.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<MpiRical> {
        let text = std::fs::read_to_string(path)?;
        let mut m: MpiRical = serde_json::from_str(&text).map_err(std::io::Error::other)?;
        m.decode.validate().map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("artifact decode options: {e}"),
            )
        })?;
        m.model.vocab.rebuild_index();
        if m.decode.precision == Precision::Int8 {
            m.engine_model();
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpirical_corpus::{generate_dataset, CorpusConfig};

    /// A deliberately tiny end-to-end training run (seconds, not minutes).
    fn tiny_assistant() -> MpiRical {
        // Trained once for the whole file (training dominates test
        // wall-clock); each test clones the shared artifact.
        static SHARED: std::sync::OnceLock<MpiRical> = std::sync::OnceLock::new();
        SHARED
            .get_or_init(|| {
                let ccfg = CorpusConfig {
                    programs: 40,
                    seed: 21,
                    max_tokens: 320,
                    threads: 1,
                };
                let (_, ds, _) = generate_dataset(&ccfg);
                let splits = ds.split(5);
                let mut cfg = MpiRicalConfig {
                    model: ModelConfig::tiny(),
                    vocab_min_freq: 1,
                    ..Default::default()
                };
                cfg.model.max_enc_len = 256;
                cfg.model.max_dec_len = 230;
                cfg.train.epochs = 1;
                cfg.train.batch_size = 8;
                cfg.train.threads = 1;
                cfg.train.validate = false;
                let (assistant, report) = MpiRical::train(&splits.train, &splits.val, &cfg, |_| {});
                assert_eq!(report.epochs.len(), 1);
                assert!(report.epochs[0].train_loss.is_finite());
                assistant
            })
            .clone()
    }

    #[test]
    fn train_suggest_translate_roundtrip() {
        let assistant = tiny_assistant();
        let serial = "int main(int argc, char **argv) {\n    int rank;\n    printf(\"hi\\n\");\n    return 0;\n}\n";
        // The model is undertrained; we only require well-formed outputs.
        let suggestions = assistant.suggest(serial);
        for s in &suggestions {
            assert!(s.function.starts_with("MPI_"));
            assert!(s.line >= 1);
        }
        let translated = assistant.translate(serial);
        assert!(!translated.is_empty());
    }

    #[test]
    fn save_load_identical_predictions() {
        let assistant = tiny_assistant();
        let dir = std::env::temp_dir().join("mpirical_core_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("assistant.json");
        assistant.save(&path).unwrap();
        let loaded = MpiRical::load(&path).unwrap();
        let src = "int main() { int x = 3; return x; }";
        assert_eq!(assistant.predict_ids(src), loaded.predict_ids(src));
        std::fs::remove_file(path).ok();
    }

    /// A saved artifact carries parameter values only, and an artifact in
    /// the older format — every slot also holding Adam moments `m`/`v` —
    /// still loads (the moments are ignored) and predicts identically.
    #[test]
    fn saved_artifact_is_values_only_and_loads_the_moment_format() {
        let assistant = tiny_assistant();
        let json = serde_json::to_string(&assistant).unwrap();
        assert!(!json.contains("\"m\":") && !json.contains("\"v\":"));
        // Rebuild the older format: after each slot's value tensor (a flat
        // `{"shape":[..],"data":[..]}` object), add moments of its shape.
        let (mut old, mut rest, mut slots) = (String::new(), json.as_str(), 0);
        while let Some(at) = rest.find("\"value\":{") {
            let start = at + "\"value\":".len();
            let end = start + rest[start..].find('}').unwrap() + 1;
            let tensor = &rest[start..end];
            old.push_str(&rest[..end]);
            old.push_str(&format!(",\"m\":{tensor},\"v\":{tensor}"));
            rest = &rest[end..];
            slots += 1;
        }
        old.push_str(rest);
        assert_eq!(slots, assistant.model.store.len());
        let dir = std::env::temp_dir().join("mpirical_core_moment_format_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("assistant.json");
        std::fs::write(&path, old).unwrap();
        let loaded = MpiRical::load(&path).unwrap();
        let src = "int main() { int rank; double x = 0.0; return 0; }";
        assert_eq!(assistant.predict_ids(src), loaded.predict_ids(src));
        std::fs::remove_file(path).ok();
    }

    /// One weight set per artifact: its engine bundle (F32 or Int8) and
    /// every clone share the artifact's `ParamStore` instead of copying it.
    #[test]
    fn engine_model_and_clones_share_the_artifact_weights() {
        let shared = tiny_assistant();
        for precision in [Precision::F32, Precision::Int8] {
            let assistant = MpiRical::from_parts(
                shared.model.clone(),
                shared.input_format,
                DecodeOptions {
                    precision,
                    ..shared.decode
                },
                None,
            );
            let store = &assistant.model.store;
            assert!(Arc::ptr_eq(store, &assistant.engine_model().store));
            let clone = assistant.clone();
            assert!(Arc::ptr_eq(store, &clone.model.store));
            assert!(Arc::ptr_eq(store, &clone.engine_model().store));
        }
    }

    #[test]
    fn beam_decoding_path_works_end_to_end() {
        let mut assistant = tiny_assistant();
        assistant.decode = DecodeOptions {
            beam: 2,
            min_len: 0,
            ..Default::default()
        };
        let serial = "int main() { int x = 1; return x; }";
        for s in &assistant.suggest(serial) {
            assert!(s.function.starts_with("MPI_"));
            assert!(s.line >= 1);
        }
        // The artifact keeps its decode options across save/load.
        let dir = std::env::temp_dir().join("mpirical_core_beam_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("assistant.json");
        assistant.save(&path).unwrap();
        let loaded = MpiRical::load(&path).unwrap();
        assert_eq!(loaded.decode, assistant.decode);
        assert_eq!(assistant.predict_ids(serial), loaded.predict_ids(serial));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn suggest_batch_matches_sequential_suggest() {
        let mut assistant = tiny_assistant();
        let buffers = [
            "int main() { int rank; printf(\"a\\n\"); return 0; }",
            "int main() { double local = 0.0; return 0; }",
            "int main(int argc, char **argv) { int size; return 0; }",
        ];
        let batched = assistant.suggest_batch(&buffers);
        assert_eq!(batched.len(), buffers.len());
        for (got, buf) in batched.iter().zip(&buffers) {
            assert_eq!(got, &assistant.suggest(buf), "greedy batch for {buf:?}");
        }
        // An empty batch is an empty result, not a zero-worker engine.
        assert!(assistant.suggest_batch(&[]).is_empty());
        // Beam, int8 and verifying artifacts decode in-batch too: a batch
        // of N must match N batches of one.
        let verify = VerifyOptions {
            rank_counts: vec![2],
            step_limit: 100_000,
            ..VerifyOptions::default()
        };
        for (beam, precision, verify) in [
            (2, Precision::F32, None),
            (1, Precision::Int8, None),
            (2, Precision::Int8, Some(verify.clone())),
            (2, Precision::F32, Some(verify)),
        ] {
            assistant.decode = DecodeOptions {
                beam,
                min_len: 0,
                precision,
            };
            assistant.verify = verify;
            let batched = assistant.suggest_batch(&buffers[..2]);
            for (got, buf) in batched.iter().zip(&buffers[..2]) {
                assert_eq!(
                    got,
                    &assistant.suggest(buf),
                    "beam={beam} {precision:?} verify={} for {buf:?}",
                    assistant.verify.is_some()
                );
            }
        }
    }

    /// An `Int8` artifact serves through the quantized kernels end to end
    /// — single and batched paths agree with each other, the quantized
    /// weights are primed once at load, and predictions survive a
    /// save/load round trip. In either precision the decoder weights are
    /// prepared once per artifact, not once per call.
    #[test]
    fn int8_artifact_serves_and_roundtrips() {
        let shared = tiny_assistant();
        for precision in [Precision::F32, Precision::Int8] {
            // Fresh caches: `tiny_assistant()` clones share theirs with
            // whatever precision a concurrently running test set.
            let assistant = MpiRical::from_parts(
                shared.model.clone(),
                shared.input_format,
                DecodeOptions {
                    precision,
                    ..shared.decode
                },
                None,
            );
            let first = assistant.suggest("int main() { int rank; return 0; }");
            let bundle = assistant.engine_model();
            assert_eq!(bundle.precision(), precision);
            assert_eq!(
                assistant.suggest("int main() { int rank; return 0; }"),
                first
            );
            assert!(
                Arc::ptr_eq(&bundle, &assistant.engine_model()),
                "{precision:?}: a second call must not re-pack or re-quantize the weights"
            );
        }
        let mut assistant = shared;
        assistant.decode = DecodeOptions {
            beam: 1,
            min_len: 0,
            precision: Precision::Int8,
        };
        let buffers = [
            "int main() { int rank; printf(\"a\\n\"); return 0; }",
            "int main() { double local = 0.0; return 0; }",
        ];
        let singles: Vec<_> = buffers.iter().map(|b| assistant.suggest(b)).collect();
        for s in singles.iter().flatten() {
            assert!(s.function.starts_with("MPI_"));
        }
        assert_eq!(
            assistant.suggest_batch(&buffers),
            singles,
            "batched int8 must equal single-request int8"
        );
        let dir = std::env::temp_dir().join("mpirical_core_int8_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("assistant.json");
        assistant.save(&path).unwrap();
        let loaded = MpiRical::load(&path).unwrap();
        assert_eq!(loaded.decode.precision, Precision::Int8);
        assert!(
            loaded
                .engine_model
                .lock()
                .unwrap()
                .as_ref()
                .is_some_and(|bundle| bundle.precision() == Precision::Int8),
            "Int8 artifact quantizes at load time"
        );
        assert_eq!(
            assistant.predict_ids(buffers[0]),
            loaded.predict_ids(buffers[0])
        );
        std::fs::remove_file(path).ok();
    }

    /// Regression (satellite fix): an artifact whose decode options are
    /// invalid (`beam = 0`) is rejected at load with a clear error rather
    /// than panicking deep inside a later decode.
    #[test]
    fn load_rejects_zero_beam_artifact() {
        let mut assistant = tiny_assistant();
        assistant.decode.beam = 0;
        let dir = std::env::temp_dir().join("mpirical_core_beam0_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("assistant.json");
        assistant.save(&path).unwrap();
        let err = MpiRical::load(&path).expect_err("beam = 0 must not load");
        assert!(
            err.to_string().contains("beam width must be at least 1"),
            "{err}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn encode_source_tolerates_incomplete_code() {
        let assistant = tiny_assistant();
        // Mid-edit code with an unterminated block — the IDE scenario.
        let enc = assistant.encode_source("int main() { int x = 1; if (x");
        assert!(enc.ids.len() >= 3);
        assert_eq!(enc.ids[0], SOS);
        assert_eq!(*enc.ids.last().unwrap(), EOS);
        assert!(!enc.health.is_clean(), "mid-edit parse reports degradation");
    }

    #[test]
    fn encode_source_health_clean_on_valid_code() {
        let assistant = tiny_assistant();
        let enc = assistant.encode_source("int main() { int x = 1; return x; }");
        assert!(enc.health.is_clean());
        let report = assistant.suggest_report("int main() { int x = 1; return x; }");
        assert!(report.health.is_clean());
        assert!(report.suggestions.iter().all(|s| !s.degraded));
    }

    /// Degraded suggestions are flagged and demoted behind clean-region
    /// ones, identically in `suggest` and `suggest_batch`.
    #[test]
    fn degraded_suggestions_flagged_and_demoted() {
        let assistant = tiny_assistant();
        let dirty = "int main() {\n    int rank;\n    = = broken\n    return 0;\n}\n";
        let report = assistant.suggest_report(dirty);
        assert!(!report.health.is_clean());
        assert!(report.health.error_count >= 1);
        // Demotion: once a degraded suggestion appears, no clean one after.
        let first_degraded = report
            .suggestions
            .iter()
            .position(|s| s.degraded)
            .unwrap_or(report.suggestions.len());
        assert!(
            report.suggestions[first_degraded..]
                .iter()
                .all(|s| s.degraded),
            "clean suggestions sort first: {:?}",
            report.suggestions
        );
        // Batch path applies the same health transform.
        let batched = assistant.suggest_batch(&[dirty]);
        assert_eq!(batched[0], report.suggestions);
    }

    /// Regression (satellite fix): an invalid `MPIRICAL_ENGINE_WORKERS`
    /// override used to be silently ignored via `.ok()` chaining — the
    /// deployment ran on auto-detected cores while believing it had pinned
    /// the worker count. The parse policy now rejects bad values loudly.
    /// (Tested through the env-free helper so no process-global state is
    /// mutated under the parallel test harness.)
    #[test]
    fn engine_workers_override_valid_values_and_default() {
        assert_eq!(MpiRical::engine_workers_from(Some("3"), 8), 3);
        assert_eq!(MpiRical::engine_workers_from(Some(" 2 "), 8), 2, "trimmed");
        assert_eq!(
            MpiRical::engine_workers_from(Some("16"), 4),
            4,
            "capped at the request count"
        );
        assert_eq!(MpiRical::engine_workers_from(Some("1"), 8), 1);
        let auto = MpiRical::engine_workers_from(None, 8);
        assert!((1..=8).contains(&auto), "auto-detect stays in [1, 8]");
        assert_eq!(
            MpiRical::engine_workers_from(None, 1),
            1,
            "one request never shards"
        );
    }

    #[test]
    #[should_panic(expected = "MPIRICAL_ENGINE_WORKERS must be a positive worker count")]
    fn engine_workers_override_zero_is_rejected_loudly() {
        MpiRical::engine_workers_from(Some("0"), 8);
    }

    #[test]
    #[should_panic(expected = "MPIRICAL_ENGINE_WORKERS must be a positive worker count")]
    fn engine_workers_override_garbage_is_rejected_loudly() {
        MpiRical::engine_workers_from(Some("all-the-cores"), 8);
    }
}
