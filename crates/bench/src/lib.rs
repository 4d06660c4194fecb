//! # mpirical-bench
//!
//! Reproduction harness for every table and figure in the MPI-RICAL paper.
//! Performance is measured by the perf ledger in `benchmark/`, not here.
//!
//! The `repro` binary regenerates, per experiment id:
//!
//! | command | paper artifact |
//! |---|---|
//! | `repro table1a` | Table Ia — corpus code-length distribution |
//! | `repro table1b` | Table Ib — MPI Common Core per-file counts |
//! | `repro fig3` | Figure 3 — Init–Finalize span ratio histogram |
//! | `repro fig5` | Figure 5 — training/validation loss + accuracy curves |
//! | `repro table2` | Table II — test-set quality metrics |
//! | `repro table3` | Table III — the 11 numerical benchmark programs |
//! | `repro fig6` | Figure 6 — worked TP/FP/FN alignment example |
//! | `repro ablation-xsbt` | (ours) code-only vs code+X-SBT input |
//! | `repro ablation-tolerance` | (ours) 0/1/2-line tolerance sweep |
//! | `repro all` | everything above |
//!
//! This library crate holds what the binary runs on: scale presets and the
//! train-once-cache-on-disk helper.

use mpirical::{InputFormat, MpiRical, MpiRicalConfig};
use mpirical_corpus::{generate_dataset, Corpus, CorpusConfig, Dataset, Splits};
use mpirical_model::{EpochStats, ModelConfig, TrainConfig, TrainReport};
use std::path::PathBuf;

/// Experiment scale preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Single-core laptop scale: minutes end to end.
    Quick,
    /// Closer to the paper's corpus/model scale (hours on CPU).
    Paper,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// All knobs of one reproduction run.
#[derive(Debug, Clone)]
pub struct ReproOptions {
    pub scale: Scale,
    pub seed: u64,
    /// Raw corpus size (overrides the scale preset when set).
    pub programs: Option<usize>,
    /// Training epochs (overrides the preset when set).
    pub epochs: Option<usize>,
    /// Trained-assistant cache path.
    pub model_path: PathBuf,
    /// Ignore the cache and retrain.
    pub retrain: bool,
}

impl Default for ReproOptions {
    fn default() -> Self {
        ReproOptions {
            scale: Scale::Quick,
            seed: 0xC0FFEE,
            programs: None,
            epochs: None,
            model_path: PathBuf::from("target/repro-assistant.json"),
            retrain: false,
        }
    }
}

impl ReproOptions {
    /// Corpus configuration for this run.
    pub fn corpus_config(&self) -> CorpusConfig {
        let programs = self.programs.unwrap_or(match self.scale {
            Scale::Quick => 2_000,
            Scale::Paper => 50_000,
        });
        CorpusConfig {
            programs,
            seed: self.seed,
            max_tokens: 320,
            threads: 0,
        }
    }

    /// Assistant configuration for this run.
    pub fn assistant_config(&self) -> MpiRicalConfig {
        let mut cfg = MpiRicalConfig {
            seed: self.seed,
            input_format: InputFormat::CodeXsbt,
            vocab_min_freq: 2,
            ..Default::default()
        };
        match self.scale {
            Scale::Quick => {
                cfg.model = ModelConfig {
                    vocab_size: 0,
                    d_model: 64,
                    n_heads: 4,
                    d_ff: 128,
                    n_enc_layers: 2,
                    n_dec_layers: 2,
                    max_enc_len: 256,
                    max_dec_len: 232,
                    dropout: 0.0,
                };
                cfg.train = TrainConfig {
                    epochs: self.epochs.unwrap_or(5),
                    batch_size: 16,
                    lr: 6e-4,
                    warmup_steps: 60,
                    weight_decay: 0.01,
                    grad_clip: 1.0,
                    threads: 0,
                    seed: self.seed,
                    validate: true,
                };
            }
            Scale::Paper => {
                cfg.model = ModelConfig {
                    vocab_size: 0,
                    d_model: 256,
                    n_heads: 8,
                    d_ff: 1024,
                    n_enc_layers: 4,
                    n_dec_layers: 4,
                    max_enc_len: 512,
                    max_dec_len: 384,
                    dropout: 0.1,
                };
                cfg.train = TrainConfig {
                    epochs: self.epochs.unwrap_or(5),
                    batch_size: 32,
                    lr: 3e-4,
                    warmup_steps: 400,
                    weight_decay: 0.01,
                    grad_clip: 1.0,
                    threads: 0,
                    seed: self.seed,
                    validate: true,
                };
            }
        }
        cfg
    }
}

/// Generate corpus + dataset + splits for a run.
pub fn build_data(opts: &ReproOptions) -> (Corpus, Dataset, Splits) {
    let ccfg = opts.corpus_config();
    let (corpus, dataset, _) = generate_dataset(&ccfg);
    let splits = dataset.split(opts.seed);
    (corpus, dataset, splits)
}

/// Train the assistant (or load the cached artifact) and return it with the
/// training report (`None` when loaded from cache).
pub fn train_or_load(
    opts: &ReproOptions,
    splits: &Splits,
    mut on_epoch: impl FnMut(&EpochStats),
) -> (MpiRical, Option<TrainReport>) {
    if !opts.retrain {
        if let Ok(assistant) = MpiRical::load(&opts.model_path) {
            eprintln!(
                "[repro] loaded cached assistant from {} (use --retrain to rebuild)",
                opts.model_path.display()
            );
            return (assistant, None);
        }
    }
    let cfg = opts.assistant_config();
    let (assistant, report) = MpiRical::train(&splits.train, &splits.val, &cfg, |e| {
        on_epoch(e);
    });
    if let Some(dir) = opts.model_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = assistant.save(&opts.model_path) {
        eprintln!("[repro] warning: could not cache assistant: {e}");
    }
    (assistant, Some(report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn presets_are_consistent() {
        let opts = ReproOptions::default();
        let ccfg = opts.corpus_config();
        assert_eq!(ccfg.max_tokens, 320, "paper's exclusion bound");
        let acfg = opts.assistant_config();
        assert_eq!(acfg.model.d_model % acfg.model.n_heads, 0);
        let paper = ReproOptions {
            scale: Scale::Paper,
            ..Default::default()
        };
        assert!(paper.corpus_config().programs > ccfg.programs);
    }

    #[test]
    fn overrides_win() {
        let opts = ReproOptions {
            programs: Some(123),
            epochs: Some(2),
            ..Default::default()
        };
        assert_eq!(opts.corpus_config().programs, 123);
        assert_eq!(opts.assistant_config().train.epochs, 2);
    }
}
