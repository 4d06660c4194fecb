//! Training loop: teacher forcing, gradient accumulation, data-parallel
//! batch sharding through [`par::for_each`].
//!
//! One optimizer step processes `batch_size` examples. The batch is split
//! into `threads` shards; each shard is replayed on a private [`Tape`]
//! against the shared read-only [`ParamStore`], producing a [`Grads`], and
//! the shards run on the free cores, at most one thread per shard. The
//! shards are the only level of parallelism: the `matmul` kernels a shard
//! calls run inside its region, so they stay serial. Shard gradients are merged in a fixed
//! order (shard 0, 1, …) so training is bit-reproducible for a given
//! `(seed, threads)` pair.

use crate::config::ModelConfig;
use crate::transformer::{seq2seq_loss, ForwardMode, TransformerParams};
use crate::vocab::EOS;
use mpirical_tensor::{par, Adam, Grads, ParamStore, Tape};
use serde::{Deserialize, Serialize};

/// One supervised sequence pair (token ids; both sides start with `<sos>`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Example {
    pub src: Vec<usize>,
    pub tgt: Vec<usize>,
}

/// Training hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    pub warmup_steps: usize,
    pub weight_decay: f32,
    pub grad_clip: f32,
    /// Worker threads (`0` = available parallelism).
    pub threads: usize,
    pub seed: u64,
    /// Evaluate on the validation set every epoch when true.
    pub validate: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 5,
            batch_size: 32,
            lr: 3e-4,
            warmup_steps: 100,
            weight_decay: 0.01,
            grad_clip: 1.0,
            threads: 0,
            seed: 0xDEC0DE,
            validate: true,
        }
    }
}

impl TrainConfig {
    fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            par::available_cores()
        } else {
            self.threads
        }
    }
}

/// Per-epoch training telemetry — the series of the paper's Figure 5.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EpochStats {
    pub epoch: usize,
    pub train_loss: f64,
    pub val_loss: f64,
    /// Sequence-level exact-match accuracy on the validation set under
    /// teacher forcing (all positions correct).
    pub val_seq_acc: f64,
    /// Token-level accuracy on the validation set under teacher forcing.
    pub val_tok_acc: f64,
}

/// Full training report.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainReport {
    pub epochs: Vec<EpochStats>,
    pub steps: usize,
}

/// Deterministic shuffle of indices (seeded LCG Fisher–Yates).
fn shuffle_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed ^ 0x5DEECE66D;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

/// Compute summed gradients and total loss for a slice of examples on the
/// current parameters. Used by both the training step (per shard) and tests.
fn accumulate_shard(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    examples: &[&Example],
    mode: ForwardMode,
) -> (Grads, f64) {
    let mut grads = Grads::default();
    let mut loss_sum = 0.0f64;
    for (i, ex) in examples.iter().enumerate() {
        let mut tape = Tape::new();
        let per_ex_mode = ForwardMode {
            train: mode.train,
            dropout_seed: mode.dropout_seed.wrapping_add(i as u64 * 7919),
        };
        let loss = seq2seq_loss(
            &mut tape,
            store,
            params,
            cfg,
            &ex.src,
            &ex.tgt,
            EOS,
            per_ex_mode,
        );
        loss_sum += tape.value(loss).item() as f64;
        let g = tape.backward(loss);
        grads.merge(&g);
    }
    (grads, loss_sum)
}

/// One optimizer step over a batch. Returns the mean loss.
#[allow(clippy::too_many_arguments)]
pub fn train_step(
    store: &mut ParamStore,
    params: &TransformerParams,
    model_cfg: &ModelConfig,
    adam: &mut Adam,
    batch: &[&Example],
    threads: usize,
    grad_clip: f32,
    dropout_seed: u64,
) -> f64 {
    assert!(!batch.is_empty());
    let mode = ForwardMode::training(dropout_seed);
    let shard_len = batch.len().div_ceil(threads.max(1));
    let shards = batch.chunks(shard_len);
    let mut results = vec![(Grads::default(), 0.0); shards.len()];
    par::for_each(shards.zip(&mut results), |(shard, slot)| {
        *slot = accumulate_shard(store, params, model_cfg, shard, mode);
    });
    // Merge in fixed shard order for determinism.
    let (mut grads, loss_sum) = results
        .into_iter()
        .reduce(|(mut grads, loss), (g, l)| {
            grads.merge(&g);
            (grads, loss + l)
        })
        .expect("a non-empty batch has a shard");

    let n = batch.len() as f32;
    grads.scale(1.0 / n);
    if grad_clip > 0.0 {
        grads.clip_global_norm(grad_clip);
    }
    adam.step(store, &grads);
    loss_sum / n as f64
}

/// Teacher-forced evaluation: mean loss, sequence accuracy, token accuracy.
pub fn evaluate(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    examples: &[Example],
) -> (f64, f64, f64) {
    if examples.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut loss_sum = 0.0f64;
    let mut seq_correct = 0usize;
    let mut tok_correct = 0usize;
    let mut tok_total = 0usize;
    for ex in examples {
        let mut tape = Tape::new();
        let enc = crate::transformer::encode(
            &mut tape,
            store,
            params,
            cfg,
            &ex.src,
            ForwardMode::inference(),
        );
        let logits = crate::transformer::decode(
            &mut tape,
            store,
            params,
            cfg,
            enc,
            &ex.tgt,
            ForwardMode::inference(),
        );
        let mut targets: Vec<usize> = ex.tgt[1..].to_vec();
        targets.push(EOS);
        let weights = vec![1.0f32; targets.len()];
        let loss = tape.cross_entropy(logits, &targets, &weights);
        loss_sum += tape.value(loss).item() as f64;
        let preds = tape.value(logits).argmax_rows();
        let correct = preds.iter().zip(&targets).filter(|(p, t)| p == t).count();
        tok_correct += correct;
        tok_total += targets.len();
        if correct == targets.len() {
            seq_correct += 1;
        }
    }
    (
        loss_sum / examples.len() as f64,
        seq_correct as f64 / examples.len() as f64,
        tok_correct as f64 / tok_total.max(1) as f64,
    )
}

/// Full training run. `on_epoch` is invoked after each epoch with the fresh
/// stats (progress reporting).
pub fn train(
    store: &mut ParamStore,
    params: &TransformerParams,
    model_cfg: &ModelConfig,
    train_set: &[Example],
    val_set: &[Example],
    cfg: &TrainConfig,
    mut on_epoch: impl FnMut(&EpochStats),
) -> TrainReport {
    assert!(!train_set.is_empty(), "empty training set");
    let mut adam = Adam::new(cfg.lr);
    adam.warmup = cfg.warmup_steps;
    adam.weight_decay = cfg.weight_decay;
    let threads = cfg.effective_threads();

    let mut report = TrainReport::default();
    for epoch in 0..cfg.epochs {
        let order = shuffle_indices(train_set.len(), cfg.seed.wrapping_add(epoch as u64));
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for (b, chunk) in order.chunks(cfg.batch_size.max(1)).enumerate() {
            let batch: Vec<&Example> = chunk.iter().map(|&i| &train_set[i]).collect();
            let step_seed = cfg
                .seed
                .wrapping_mul(31)
                .wrapping_add((epoch * 1_000_003 + b) as u64);
            let loss = train_step(
                store,
                params,
                model_cfg,
                &mut adam,
                &batch,
                threads,
                cfg.grad_clip,
                step_seed,
            );
            epoch_loss += loss;
            batches += 1;
            report.steps += 1;
        }
        let (val_loss, val_seq_acc, val_tok_acc) = if cfg.validate && !val_set.is_empty() {
            evaluate(store, params, model_cfg, val_set)
        } else {
            (0.0, 0.0, 0.0)
        };
        let stats = EpochStats {
            epoch: epoch + 1,
            train_loss: epoch_loss / batches.max(1) as f64,
            val_loss,
            val_seq_acc,
            val_tok_acc,
        };
        on_epoch(&stats);
        report.epochs.push(stats);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transformer::build_params;

    fn toy_examples() -> Vec<Example> {
        // Task: copy the source (shifted into the target) — learnable by a
        // tiny model in a few dozen steps.
        let mut out = Vec::new();
        for a in 6..12usize {
            for b in 6..12usize {
                out.push(Example {
                    src: vec![1, a, b, 2],
                    tgt: vec![1, a, b],
                });
            }
        }
        out
    }

    fn tiny() -> (ModelConfig, ParamStore, TransformerParams) {
        let mut cfg = ModelConfig::tiny();
        cfg.vocab_size = 16;
        let mut store = ParamStore::new();
        let params = build_params(&cfg, &mut store, 3);
        (cfg, store, params)
    }

    #[test]
    fn loss_decreases_over_training() {
        let (cfg, mut store, params) = tiny();
        let data = toy_examples();
        // 25 epochs (not 15): the offline rand shim's xoshiro stream gives a
        // slightly slower-converging init for this seed than upstream rand.
        let tcfg = TrainConfig {
            epochs: 25,
            batch_size: 12,
            lr: 3e-3,
            warmup_steps: 5,
            threads: 1,
            validate: true,
            ..Default::default()
        };
        let val = data[..6].to_vec();
        let report = train(&mut store, &params, &cfg, &data, &val, &tcfg, |_| {});
        assert_eq!(report.epochs.len(), 25);
        let first = report.epochs.first().unwrap().train_loss;
        let last = report.epochs.last().unwrap().train_loss;
        assert!(last < first * 0.5, "train loss {first} → {last}");
        // Validation accuracy should come up, too.
        let acc = report.epochs.last().unwrap().val_tok_acc;
        assert!(acc >= 0.45, "token accuracy {acc}");
    }

    #[test]
    fn training_deterministic_for_fixed_threads() {
        let data = toy_examples();
        let tcfg = TrainConfig {
            epochs: 1,
            batch_size: 8,
            threads: 1,
            validate: false,
            ..Default::default()
        };
        let run = || {
            let (cfg, mut store, params) = tiny();
            let r = train(&mut store, &params, &cfg, &data, &[], &tcfg, |_| {});
            (r.epochs[0].train_loss, store)
        };
        let (l1, s1) = run();
        let (l2, s2) = run();
        assert_eq!(l1, l2);
        // Weights bit-identical.
        for id in s1.ids() {
            assert_eq!(s1.tensor(id).data, s2.tensor(id).data);
        }
    }

    #[test]
    fn multithreaded_step_close_to_serial() {
        // Gradient merge order differs only in floating-point association;
        // losses after one step should agree to high precision.
        let data = toy_examples();
        let batch: Vec<&Example> = data.iter().take(8).collect();
        let run = |threads: usize| {
            let (cfg, mut store, params) = tiny();
            let mut adam = Adam::new(1e-3);
            let loss = train_step(
                &mut store, &params, &cfg, &mut adam, &batch, threads, 1.0, 42,
            );
            (loss, store)
        };
        let (l1, s1) = run(1);
        let (l2, s2) = run(2);
        assert!((l1 - l2).abs() < 1e-9, "losses: {l1} vs {l2}");
        for id in s1.ids() {
            for (a, b) in s1.tensor(id).data.iter().zip(&s2.tensor(id).data) {
                assert!((a - b).abs() < 1e-4, "weights diverged: {a} vs {b}");
            }
        }
    }

    #[test]
    fn evaluate_on_empty_is_zero() {
        let (cfg, store, params) = tiny();
        assert_eq!(evaluate(&store, &params, &cfg, &[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn shuffle_is_permutation_and_seeded() {
        let a = shuffle_indices(100, 1);
        let b = shuffle_indices(100, 1);
        let c = shuffle_indices(100, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
