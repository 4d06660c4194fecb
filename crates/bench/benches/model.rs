//! Criterion benches of the model stack: matmul kernel, encoder forward,
//! one train step, KV-cached vs prefix-replay decoding, and end-to-end
//! suggestion latency — the numbers behind the paper's "SPT-Code is small
//! enough for IDE fusion" argument (§IV-A).
//!
//! The `decode` group tracks the incremental-inference win: cached greedy
//! and beam-4 generation at 32/128/232-token outputs against the replay
//! baseline (`min_len` forces fixed-length outputs on both engines so the
//! comparison is token-for-token).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use mpirical_model::{
    build_params, decode::encode_source, decode_step_batch, replay_decode_with,
    transformer::encode, transformer::ForwardMode, vocab::SOS, BatchDecoder, BatchRequest,
    BatchScratch, DecodeOptions, DecoderCache, DecoderWeights, Engine, EngineConfig, EngineModel,
    Example, ModelConfig, PollResult, Precision, SubmitOptions, TrainConfig, TransformerParams,
    Vocab,
};
use mpirical_tensor::{matmul, Adam, ParamStore, Tape, Tensor};
use std::borrow::Cow;

/// Winner of one request from `<sos>` decoded alone by `dec` — a
/// long-lived scheduler (weights prepared once, as in a service) with no
/// other work: the single-request baseline the scheduler groups below
/// compare against.
fn reference_ids(
    dec: &mut BatchDecoder,
    enc_out: &Tensor,
    max_len: usize,
    opts: DecodeOptions,
) -> Vec<usize> {
    let req = BatchRequest {
        enc_out: enc_out.clone(),
        prompt: vec![SOS],
        max_len,
        opts,
        submit: SubmitOptions::default(),
    };
    dec.decode_all(vec![req]).swap_remove(0)
}

/// Feed `token` to `cache` alone: the one lane of a step.
fn step_one(
    m: (&ParamStore, &TransformerParams, &ModelConfig),
    weights: &DecoderWeights,
    cache: &mut DecoderCache,
    token: usize,
) -> Vec<f32> {
    let (store, params, cfg) = m;
    let mut logits = vec![0.0; cfg.vocab_size];
    let mut scratch = BatchScratch::new(cfg, 1);
    let (lanes, tokens) = (&mut [cache], &[token]);
    decode_step_batch(
        store,
        params,
        cfg,
        weights,
        lanes,
        tokens,
        &mut scratch,
        &mut logits,
    );
    logits
}

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("tensor");
    for n in [32usize, 64, 128] {
        let a = Tensor::full(&[n, n], 0.5);
        let b = Tensor::full(&[n, n], -0.25);
        g.bench_function(format!("matmul_{n}x{n}"), |bch| {
            bch.iter(|| matmul(black_box(&a), black_box(&b)))
        });
    }
    g.finish();
}

fn small_model() -> (ModelConfig, ParamStore, TransformerParams) {
    let cfg = ModelConfig {
        vocab_size: 512,
        max_enc_len: 256,
        max_dec_len: 232,
        ..Default::default()
    };
    let mut store = ParamStore::new();
    let params = build_params(&cfg, &mut store, 1);
    (cfg, store, params)
}

fn bench_model(c: &mut Criterion) {
    let (cfg, store, params) = small_model();
    let src: Vec<usize> = (0..128).map(|i| 6 + (i % 200)).collect();

    let mut g = c.benchmark_group("model");
    g.sample_size(10);
    g.bench_function("encoder_forward_128tok", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            encode(
                &mut tape,
                black_box(&store),
                &params,
                &cfg,
                black_box(&src),
                ForwardMode::inference(),
            )
        })
    });

    g.bench_function("train_step_batch4_64tok", |b| {
        let examples: Vec<Example> = (0..4)
            .map(|k| Example {
                src: (0..64).map(|i| 6 + ((i + k) % 100)).collect(),
                tgt: (0..48).map(|i| 6 + ((i * 3 + k) % 100)).collect(),
            })
            .collect();
        b.iter_batched(
            || (store.clone(), Adam::new(1e-4)),
            |(mut st, mut adam)| {
                let batch: Vec<&Example> = examples.iter().collect();
                mpirical_model::train::train_step(
                    &mut st, &params, &cfg, &mut adam, &batch, 1, 1.0, 7,
                )
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// The encoder forward at the serving shape (256 ids, d=256, 4 heads,
/// d_ff 1024, 2 layers) — the largest single layer of an interactive
/// request on the perf ledger. `tape_oracle` is `transformer::encode` on a
/// throwaway tape (the training path: weights cloned onto the tape, un-blocked
/// threaded `matmul`), `tape_free` is `decode::encode_source`, which every
/// serving and decode entry point runs. The setup asserts the two agree bit
/// for bit, so the bench doubles as a smoke of the equivalence contract.
fn bench_encoder_forward(c: &mut Criterion) {
    let cfg = ModelConfig {
        vocab_size: 4096,
        d_model: 256,
        n_heads: 4,
        d_ff: 1024,
        n_enc_layers: 2,
        n_dec_layers: 2,
        max_enc_len: 256,
        max_dec_len: 96,
        dropout: 0.0,
    };
    let mut store = ParamStore::new();
    let params = build_params(&cfg, &mut store, 1);
    let src: Vec<usize> = (0..256).map(|i| 6 + (i * 7) % 4000).collect();
    let tape_oracle = |src: &[usize]| {
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
    let bits = |t: &Tensor| t.data.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    assert_eq!(
        bits(&encode_source(&store, &params, &cfg, &src)),
        bits(&tape_oracle(&src)),
        "tape-free encoder must be bitwise the tape encoder"
    );

    let mut g = c.benchmark_group("encoder_forward");
    g.sample_size(10);
    g.bench_function("tape_oracle_256tok", |b| {
        b.iter(|| tape_oracle(black_box(&src)))
    });
    g.bench_function("tape_free_256tok", |b| {
        b.iter(|| encode_source(black_box(&store), &params, &cfg, black_box(&src)))
    });
    g.finish();
}

/// GELU over one 256×1024 feed-forward block — one encoder layer at the
/// serving shape. `tanhf_port` is `mpirical_tensor::gelu`, which every
/// forward runs; `libm` is the same expression on the host's `f32::tanh`.
/// The setup asserts the two agree bit for bit on the block.
fn bench_gelu(c: &mut Criterion) {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    let libm_gelu = |v: f32| 0.5 * v * (1.0 + (C * (v + 0.044715 * v * v * v)).tanh());
    // Pre-activations spread uniformly over [-4, 4) by a multiplicative hash.
    let block: Vec<f32> = (0..256 * 1024u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 8) as f32 / (1 << 24) as f32 * 8.0 - 4.0)
        .collect();
    fn apply(f: impl Fn(f32) -> f32, x: &[f32], out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = f(v);
        }
    }
    let mut out = vec![0.0f32; block.len()];
    apply(mpirical_tensor::gelu, &block, &mut out);
    for (&v, &got) in block.iter().zip(&out) {
        assert_eq!(
            got.to_bits(),
            libm_gelu(v).to_bits(),
            "gelu({v}) differs from the libm expression"
        );
    }

    let mut g = c.benchmark_group("gelu");
    g.sample_size(20);
    g.bench_function("libm_256x1024", |b| {
        b.iter(|| apply(libm_gelu, black_box(&block), &mut out))
    });
    g.bench_function("tanhf_port_256x1024", |b| {
        b.iter(|| apply(mpirical_tensor::gelu, black_box(&block), &mut out))
    });
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    // Quick-scale architecture with headroom for 232-token outputs.
    let cfg = ModelConfig {
        vocab_size: 512,
        max_enc_len: 256,
        max_dec_len: 240,
        ..Default::default()
    };
    let mut store = ParamStore::new();
    let params = build_params(&cfg, &mut store, 1);
    let src: Vec<usize> = (0..128).map(|i| 6 + (i % 200)).collect();

    let mut g = c.benchmark_group("decode");
    g.sample_size(10);

    let mut greedy_dec = BatchDecoder::new(&store, &params, &cfg, 1);
    let mut beam_dec = BatchDecoder::new(&store, &params, &cfg, 4);
    for out_len in [32usize, 128, 232] {
        let opts = DecodeOptions {
            beam: 1,
            min_len: out_len,
            ..Default::default()
        };
        g.bench_function(format!("cached_greedy_{out_len}tok"), |b| {
            b.iter(|| {
                let enc = encode_source(black_box(&store), &params, &cfg, black_box(&src));
                reference_ids(&mut greedy_dec, &enc, out_len + 1, opts)
            })
        });
        let beam_opts = DecodeOptions {
            beam: 4,
            min_len: out_len,
            ..Default::default()
        };
        g.bench_function(format!("cached_beam4_{out_len}tok"), |b| {
            b.iter(|| {
                let enc = encode_source(black_box(&store), &params, &cfg, black_box(&src));
                reference_ids(&mut beam_dec, &enc, out_len + 1, beam_opts)
            })
        });
    }

    // Prefix-replay baselines (the pre-cache engine). The 232-token replay
    // points are omitted: at O(T²·L) they dominate bench wall-clock without
    // adding information beyond the 128-token ratio.
    for out_len in [32usize, 128] {
        let opts = DecodeOptions {
            beam: 1,
            min_len: out_len,
            ..Default::default()
        };
        g.bench_function(format!("replay_greedy_{out_len}tok"), |b| {
            b.iter(|| {
                replay_decode_with(
                    black_box(&store),
                    &params,
                    &cfg,
                    black_box(&src),
                    out_len + 1,
                    opts,
                )
            })
        });
    }
    g.bench_function("replay_beam4_32tok", |b| {
        let opts = DecodeOptions {
            beam: 4,
            min_len: 32,
            ..Default::default()
        };
        b.iter(|| replay_decode_with(black_box(&store), &params, &cfg, black_box(&src), 33, opts))
    });
    g.finish();
}

/// Batched multi-request decoding vs N sequential cached-greedy decodes.
///
/// Measured at a **serving-scale** shape — d=256 with the paper's 4×d
/// feed-forward ratio and the assistant's actual vocabulary cap (4096,
/// `MpiRicalConfig::vocab_max_size`): ~12MB of decoder weights, well past
/// cache — because that is where the batching argument lives: a sequential
/// decode step must re-stream every weight matrix per request, while the
/// lockstep step streams them once for all 8 lanes via the register-blocked
/// packed kernels. At the CPU-demo shape (d=64) the whole model is
/// cache-resident and per-lane attention dominates, so batching only buys
/// ~1.3× — both numbers are recorded in CHANGES.md.
///
/// Both sides decode from precomputed encoder outputs (the encoder pass is
/// identical either way, so timing it would only dilute the scheduler
/// comparison) and force 64-token outputs through `min_len`, making the
/// token count — and, lane for lane, the logits — identical. The headline
/// number is aggregate throughput: `batch8_greedy_64tok` must beat
/// `sequential_8x_greedy_64tok` by ≥3×.
fn bench_batch_decode(c: &mut Criterion) {
    let cfg = ModelConfig {
        vocab_size: 4096,
        d_model: 256,
        n_heads: 4,
        d_ff: 1024,
        n_enc_layers: 2,
        n_dec_layers: 2,
        max_enc_len: 64,
        max_dec_len: 80,
        dropout: 0.0,
    };
    let mut store = ParamStore::new();
    let params = build_params(&cfg, &mut store, 1);
    // Eight distinct sources (different token walks, same 48-token length).
    let enc_outs: Vec<Tensor> = (0..8)
        .map(|r| {
            let src: Vec<usize> = (0..48).map(|i| 6 + ((i * (r + 3)) % 200)).collect();
            encode_source(&store, &params, &cfg, &src)
        })
        .collect();
    let opts = DecodeOptions {
        beam: 1,
        min_len: 64,
        ..Default::default()
    };

    let mut g = c.benchmark_group("decode_batch");
    g.sample_size(10);
    let mut alone = BatchDecoder::new(&store, &params, &cfg, 1);
    g.bench_function("sequential_8x_greedy_64tok", |b| {
        b.iter(|| {
            for e in &enc_outs {
                black_box(reference_ids(&mut alone, black_box(e), 65, opts));
            }
        })
    });
    // The scheduler is long-lived in a service (weights pack once at
    // startup), so it is constructed outside the timed loop; per-request
    // work — cache builds, decoding, retirement — is all inside.
    let mut dec = BatchDecoder::new(&store, &params, &cfg, 8);
    g.bench_function("batch8_greedy_64tok", |b| {
        b.iter(|| {
            let reqs = enc_outs
                .iter()
                .map(|e| BatchRequest {
                    enc_out: e.clone(),
                    prompt: vec![mpirical_model::vocab::SOS],
                    max_len: 65,
                    opts,
                    submit: SubmitOptions::default(),
                })
                .collect();
            black_box(dec.decode_all(reqs))
        })
    });
    // Continuous batching under oversubscription: 16 requests through 8
    // lanes — retiring lanes refill from the queue mid-flight.
    g.bench_function("batch8_16reqs_greedy_64tok", |b| {
        b.iter(|| {
            let reqs = enc_outs
                .iter()
                .chain(enc_outs.iter())
                .map(|e| BatchRequest {
                    enc_out: e.clone(),
                    prompt: vec![mpirical_model::vocab::SOS],
                    max_len: 65,
                    opts,
                    submit: SubmitOptions::default(),
                })
                .collect();
            black_box(dec.decode_all(reqs))
        })
    });
    g.finish();
}

/// Batched beam search vs N sequential beam decodes — the capability the
/// paged KV cache unlocks (hypothesis forks are COW page shares, so beam
/// requests fit the lockstep lane model).
///
/// Setup **asserts** that `BatchDecoder` accepts `beam > 1` and returns
/// exactly the single-request beam outputs — CI runs this group as a smoke
/// check that batched beam works end to end with no sequential fallback —
/// then times 4 beam-4 requests decoded sequentially vs in one batch at the
/// serving-scale shape of `bench_batch_decode`.
fn bench_batch_beam(c: &mut Criterion) {
    let cfg = ModelConfig {
        vocab_size: 4096,
        d_model: 256,
        n_heads: 4,
        d_ff: 1024,
        n_enc_layers: 2,
        n_dec_layers: 2,
        max_enc_len: 64,
        max_dec_len: 80,
        dropout: 0.0,
    };
    let mut store = ParamStore::new();
    let params = build_params(&cfg, &mut store, 1);
    let enc_outs: Vec<Tensor> = (0..4)
        .map(|r| {
            let src: Vec<usize> = (0..48).map(|i| 6 + ((i * (r + 3)) % 200)).collect();
            encode_source(&store, &params, &cfg, &src)
        })
        .collect();
    let opts = DecodeOptions {
        beam: 4,
        min_len: 32,
        ..Default::default()
    };
    let reqs = |encs: &[Tensor]| -> Vec<BatchRequest> {
        encs.iter()
            .map(|e| BatchRequest {
                enc_out: e.clone(),
                prompt: vec![mpirical_model::vocab::SOS],
                max_len: 33,
                opts,
                submit: SubmitOptions::default(),
            })
            .collect()
    };

    // No-fallback smoke: batched beam must run and match the
    // single-request beam path exactly.
    let mut alone = BatchDecoder::new(&store, &params, &cfg, 4);
    let singles: Vec<Vec<usize>> = enc_outs
        .iter()
        .map(|e| reference_ids(&mut alone, e, 33, opts))
        .collect();
    let mut dec = BatchDecoder::new(&store, &params, &cfg, 16);
    assert_eq!(
        dec.decode_all(reqs(&enc_outs)),
        singles,
        "batched beam must equal sequential beam (no fallback)"
    );

    let mut g = c.benchmark_group("decode_batch_beam");
    g.sample_size(10);
    g.bench_function("sequential_4x_beam4_32tok", |b| {
        b.iter(|| {
            for e in &enc_outs {
                black_box(reference_ids(&mut alone, black_box(e), 33, opts));
            }
        })
    });
    g.bench_function("batch4_beam4_32tok", |b| {
        b.iter(|| black_box(dec.decode_all(reqs(&enc_outs))))
    });
    g.finish();
}

/// Int8 quantized decode vs the f32 cached-greedy path — the ROADMAP's
/// quantized-inference item, measured where it matters: the **d=256
/// serving shape** (4×d feed-forward, 4096 vocab, ~12MB of f32 decoder
/// weights), where every decoded token streams the full weight set and
/// the step is memory-bound. The quantized panels are ~3MB, so the int8
/// step reads a quarter of the bytes; `quant_greedy_64tok` must beat
/// `f32_greedy_64tok` median tokens/s (the acceptance line; locally
/// ~1.6–1.7×).
///
/// Setup asserts the quantized path emits logits that *differ* from f32
/// (bitwise) while agreeing on the greedy-token trajectory's shape — a
/// silent regression to the f32 kernels would produce identical logits
/// and fail the job before any timing runs (the CI smoke). Weights are
/// quantized once outside the timed loop, exactly as an artifact or
/// service holds them.
fn bench_decode_quant(c: &mut Criterion) {
    let cfg = ModelConfig {
        vocab_size: 4096,
        d_model: 256,
        n_heads: 4,
        d_ff: 1024,
        n_enc_layers: 2,
        n_dec_layers: 2,
        max_enc_len: 64,
        max_dec_len: 80,
        dropout: 0.0,
    };
    let mut store = ParamStore::new();
    let params = build_params(&cfg, &mut store, 1);
    let src: Vec<usize> = (0..48).map(|i| 6 + ((i * 3) % 200)).collect();
    let enc = encode_source(&store, &params, &cfg, &src);
    let fw = DecoderWeights::for_precision(&store, &params, Precision::F32);
    let qw = DecoderWeights::for_precision(&store, &params, Precision::Int8);
    let mut f_dec = BatchDecoder::with_weights(&store, &params, &cfg, 1, Cow::Borrowed(&fw));
    let mut q_dec = BatchDecoder::with_weights(&store, &params, &cfg, 1, Cow::Borrowed(&qw));
    let opts = DecodeOptions {
        beam: 1,
        min_len: 64,
        ..Default::default()
    };
    let qopts = DecodeOptions {
        precision: Precision::Int8,
        ..opts
    };

    // No-silent-fallback smoke: the quant step must actually run the int8
    // kernels (logits differ from f32) and still decode a full output.
    {
        let m = (&store, &params, &cfg);
        let mut fc = DecoderCache::new(&store, &params, &cfg, &enc);
        let mut qc = DecoderCache::new(&store, &params, &cfg, &enc);
        let lf = step_one(m, &fw, &mut fc, 1);
        let lq = step_one(m, &qw, &mut qc, 1);
        assert_ne!(lf, lq, "int8 path must not silently run the f32 kernels");
        let out = reference_ids(&mut q_dec, &enc, 65, qopts);
        assert_eq!(out.len(), 64, "min_len forces the full 64-token output");
    }

    let mut g = c.benchmark_group("decode_quant");
    g.sample_size(10);
    g.bench_function("f32_greedy_64tok", |b| {
        b.iter(|| reference_ids(&mut f_dec, black_box(&enc), 65, opts))
    });
    g.bench_function("quant_greedy_64tok", |b| {
        b.iter(|| reference_ids(&mut q_dec, black_box(&enc), 65, qopts))
    });
    // The quantized lockstep scheduler, recorded for honesty rather than
    // as a win: at batch 8 the packed f32 kernels already amortize the
    // weight stream across lanes (the step is compute-bound, not
    // memory-bound), and int8's widening multiply-adds cost more per MAC
    // than f32 FMAs — so batched f32 stays faster (~109ms vs ~222ms
    // here). Quantization is the *low-concurrency* lever: it wins exactly
    // where batching can't help (a single interactive request), and the
    // artifact is ~4× smaller either way.
    let enc_outs: Vec<Tensor> = (0..8)
        .map(|r| {
            let src: Vec<usize> = (0..48).map(|i| 6 + ((i * (r + 3)) % 200)).collect();
            encode_source(&store, &params, &cfg, &src)
        })
        .collect();
    let mut dec = BatchDecoder::with_weights(&store, &params, &cfg, 8, Cow::Borrowed(&qw));
    g.bench_function("quant_batch8_greedy_64tok", |b| {
        b.iter(|| {
            let reqs = enc_outs
                .iter()
                .map(|e| BatchRequest {
                    enc_out: e.clone(),
                    prompt: vec![mpirical_model::vocab::SOS],
                    max_len: 65,
                    opts: qopts,
                    submit: SubmitOptions::default(),
                })
                .collect();
            black_box(dec.decode_all(reqs))
        })
    });
    g.finish();
}

/// Interactive queue-wait under a saturating bulk load — the serving API
/// v2 acceptance number, at the d=256 serving shape of
/// `bench_batch_decode`.
///
/// Setup floods all 8 lanes with `Bulk` 64-token jobs, then submits an
/// `Interactive` request capped at 8 generated tokens (the keystroke
/// pattern: a few suggestions, fast) and **asserts** the preemption
/// contract before any timing runs — the CI smoke: the interactive
/// request is decoding one step after submission (a bulk lane yielded),
/// finishes with zero recorded queue-wait steps, its tokens equal the
/// single-request reference, and the preempted bulk job's final tokens
/// are untouched. The FIFO baseline (the same late request submitted
/// `Bulk`, i.e. the v1 admission policy) is asserted to wait many steps
/// for a lane.
///
/// The timed pair then measures end-to-end interactive completion latency
/// under the bulk flood: `priority_*` submits the late request
/// interactive (preempts, ~10 lockstep steps), `fifo_*` submits it bulk
/// (drains behind the 64-token jobs, ~70 steps) — the wall-clock gap *is*
/// the queue wait the priority scheduler removes. Leftover bulk work is
/// cancelled between iterations (also exercising cancel's page return on
/// the hot path).
fn bench_decode_priority(c: &mut Criterion) {
    let cfg = ModelConfig {
        vocab_size: 4096,
        d_model: 256,
        n_heads: 4,
        d_ff: 1024,
        n_enc_layers: 2,
        n_dec_layers: 2,
        max_enc_len: 64,
        max_dec_len: 80,
        dropout: 0.0,
    };
    let mut store = ParamStore::new();
    let params = build_params(&cfg, &mut store, 1);
    let enc_outs: Vec<Tensor> = (0..9)
        .map(|r| {
            let src: Vec<usize> = (0..48).map(|i| 6 + ((i * (r + 3)) % 200)).collect();
            encode_source(&store, &params, &cfg, &src)
        })
        .collect();
    let bulk_opts = DecodeOptions {
        beam: 1,
        min_len: 64,
        ..Default::default()
    };
    let fast_opts = DecodeOptions {
        beam: 1,
        min_len: 8,
        ..Default::default()
    };
    let bulk_req = |e: &Tensor| BatchRequest {
        enc_out: e.clone(),
        prompt: vec![mpirical_model::vocab::SOS],
        max_len: 65,
        opts: bulk_opts,
        submit: SubmitOptions::bulk(),
    };
    let fast_req = |priority: bool| BatchRequest {
        enc_out: enc_outs[8].clone(),
        prompt: vec![mpirical_model::vocab::SOS],
        max_len: 65,
        opts: fast_opts,
        submit: if priority {
            SubmitOptions::interactive().with_max_new_tokens(8)
        } else {
            SubmitOptions::bulk().with_max_new_tokens(8)
        },
    };

    // Acceptance smoke: preemption within 1 step, bitwise outputs, honest
    // FIFO baseline.
    {
        let mut alone = BatchDecoder::new(&store, &params, &cfg, 1);
        let fast_ref = reference_ids(&mut alone, &enc_outs[8], 9, fast_opts);
        let bulk_ref = reference_ids(&mut alone, &enc_outs[0], 65, bulk_opts);
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 8);
        let bulk_ids: Vec<_> = enc_outs[..8]
            .iter()
            .map(|e| dec.submit(bulk_req(e)))
            .collect();
        for _ in 0..2 {
            dec.step();
        }
        assert_eq!(dec.active(), 8, "bulk saturates every lane");
        let fast = dec.submit(fast_req(true));
        dec.step();
        let PollResult::Decoding { tokens_so_far } = dec.poll(fast) else {
            panic!("interactive request must be decoding one step after submit");
        };
        assert_eq!(tokens_so_far.len(), 1, "began decoding within 1 step");
        assert_eq!(dec.preemptions(), 1, "one bulk lane yielded");
        dec.run();
        let PollResult::Done { ids, telemetry, .. } = dec.poll(fast) else {
            panic!("interactive finished");
        };
        assert_eq!(ids, fast_ref, "preempting path stays bitwise-identical");
        assert_eq!(telemetry.queue_wait_steps, 0, "zero queue-wait steps");
        assert_eq!(
            dec.poll(bulk_ids[0]).into_output().expect("bulk finished"),
            bulk_ref,
            "preempted-and-resumed bulk tokens unchanged"
        );

        // FIFO baseline: the same request in the bulk class waits for a
        // free lane behind the 64-token jobs.
        let mut fifo = BatchDecoder::new(&store, &params, &cfg, 8);
        for e in &enc_outs[..8] {
            fifo.submit(bulk_req(e));
        }
        for _ in 0..2 {
            fifo.step();
        }
        let slow = fifo.submit(fast_req(false));
        let mut waited = 0u64;
        while matches!(fifo.poll(slow), PollResult::Queued { .. }) {
            fifo.step();
            waited += 1;
        }
        assert!(
            waited > 10,
            "FIFO baseline must wait many steps for a lane (waited {waited})"
        );
    }

    let mut g = c.benchmark_group("decode_priority");
    g.sample_size(10);
    // Long-lived schedulers (weights pack once, as in a service); each
    // iteration floods the lanes, completes the late request, and cancels
    // the leftover bulk work so the next iteration starts clean.
    let run_iteration = |dec: &mut BatchDecoder, priority: bool| {
        let bulk_ids: Vec<_> = enc_outs[..8]
            .iter()
            .map(|e| dec.submit(bulk_req(e)))
            .collect();
        for _ in 0..2 {
            dec.step();
        }
        let fast = dec.submit(fast_req(priority));
        loop {
            dec.step();
            if let PollResult::Done { ids, .. } = dec.poll(fast) {
                black_box(ids);
                break;
            }
        }
        for id in bulk_ids {
            dec.cancel(id);
            black_box(dec.poll(id)); // drain Done/Cancelled markers
        }
    };
    let mut dec = BatchDecoder::new(&store, &params, &cfg, 8);
    g.bench_function("priority_interactive_8tok_under_bulk8", |b| {
        b.iter(|| run_iteration(&mut dec, true))
    });
    let mut fifo = BatchDecoder::new(&store, &params, &cfg, 8);
    g.bench_function("fifo_interactive_8tok_under_bulk8", |b| {
        b.iter(|| run_iteration(&mut fifo, false))
    });
    g.finish();
}

/// Beam-fork cost: cloning a 64-token cache bumps page refcounts (COW)
/// and copies no K/V row — this is the per-expansion cost beam search pays
/// `beam - 1` times per step.
fn bench_cache_fork(c: &mut Criterion) {
    let cfg = ModelConfig {
        vocab_size: 512,
        max_enc_len: 256,
        max_dec_len: 240,
        ..Default::default()
    };
    let mut store = ParamStore::new();
    let params = build_params(&cfg, &mut store, 1);
    let src: Vec<usize> = (0..128).map(|i| 6 + (i % 200)).collect();
    let enc = encode_source(&store, &params, &cfg, &src);
    let weights = DecoderWeights::for_precision(&store, &params, Precision::F32);
    let mut paged = DecoderCache::new(&store, &params, &cfg, &enc);
    for step in 0..64usize {
        step_one(
            (&store, &params, &cfg),
            &weights,
            &mut paged,
            6 + step % 200,
        );
    }

    let mut g = c.benchmark_group("paged");
    g.bench_function("fork_paged_64tok", |b| b.iter(|| black_box(paged.clone())));
    g.finish();
}

/// One-shot prediction through the engine vs a bare one-request scheduler
/// — the "same speed" evidence for making every `MpiRical` prediction an
/// engine request, at the **d=256 serving shape** (4×d feed-forward, 4096
/// vocab, 64 forced tokens), for an f32 and an int8 artifact.
///
/// Both sides do the whole call: front-end (parse, X-SBT, ids), encoder
/// forward, decode. `reference_*` decodes the request alone on a
/// long-lived one-lane `BatchDecoder` in the calling thread, its weights
/// prepared once outside the timed call. `predict_ids_*` is the product
/// path: a one-request batch on a 1-worker `Engine` over the cached
/// `engine_model()` bundle, thread spawn and shutdown inside the timed call
/// (the bundle — store copy plus packed/quantized weights — is built once
/// by the setup assertion, as an artifact builds it on its first call).
///
/// Setup **asserts** the two produce identical ids before timing.
fn bench_decode_oneshot(c: &mut Criterion) {
    let filler: Vec<Vec<String>> = vec![(0..4096).map(|i| format!("tok{i:04}")).collect()];
    let vocab = Vocab::build(filler.iter(), 1, 4096 - 6);
    let cfg = ModelConfig {
        vocab_size: 0,
        d_model: 256,
        n_heads: 4,
        d_ff: 1024,
        n_enc_layers: 2,
        n_dec_layers: 2,
        max_enc_len: 256,
        max_dec_len: 65,
        dropout: 0.0,
    };
    let model = mpirical_model::Seq2SeqModel::new(cfg, vocab, 1);
    assert_eq!(model.cfg.vocab_size, 4096, "vocabulary at the serving cap");
    let src = "int main(int argc, char **argv) {\n    int rank, size;\n    double local = 0.0;\n    for (int i = 0; i < 100; i++) { local += i; }\n    printf(\"%f\\n\", local);\n    return 0;\n}\n";

    let mut g = c.benchmark_group("decode_oneshot");
    g.sample_size(10);
    for precision in [Precision::F32, Precision::Int8] {
        let opts = DecodeOptions {
            beam: 1,
            min_len: 64,
            precision,
        };
        let assistant = mpirical::MpiRical::from_parts(
            model.clone(),
            mpirical::InputFormat::CodeXsbt,
            opts,
            None,
        );
        let m = &assistant.model;
        let mut alone = BatchDecoder::with_precision(&m.store, &m.params, &m.cfg, 1, precision);
        let mut reference = |src: &str| {
            let ids = assistant.encode_source(src).ids;
            let enc = encode_source(&m.store, &m.params, &m.cfg, &ids);
            reference_ids(&mut alone, &enc, 65, opts)
        };
        let want = reference(src);
        assert_eq!(want.len(), 64, "min_len forces the full 64-token output");
        assert_eq!(
            assistant.predict_ids(src),
            want,
            "{precision:?}: the engine path must equal the request decoded alone"
        );

        let tag = format!("{precision:?}").to_lowercase();
        g.bench_function(format!("reference_{tag}_64tok"), |b| {
            b.iter(|| reference(black_box(src)))
        });
        g.bench_function(format!("predict_ids_{tag}_64tok"), |b| {
            b.iter(|| assistant.predict_ids(black_box(src)))
        });
    }
    g.finish();
}

fn bench_suggestion_latency(c: &mut Criterion) {
    // End-to-end: raw source → suggestions, via an untrained (but real-size)
    // assistant — latency is architecture-, not weight-, dependent.
    let tokens: Vec<Vec<String>> = vec![[
        "int",
        "main",
        "(",
        ")",
        "{",
        "}",
        ";",
        "rank",
        "size",
        "MPI_Init",
        "MPI_Finalize",
        "MPI_Comm_rank",
        "=",
        "0",
        "1",
        "&",
        ",",
        "printf",
        "return",
        "<nl>",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()];
    let vocab = Vocab::build(tokens.iter(), 1, 4096);
    let cfg = ModelConfig {
        max_enc_len: 256,
        max_dec_len: 64, // cap generation for a stable latency number
        ..Default::default()
    };
    let model = mpirical_model::Seq2SeqModel::new(cfg, vocab, 3);
    let assistant = mpirical::MpiRical::from_parts(
        model,
        mpirical::InputFormat::CodeXsbt,
        Default::default(),
        None,
    );
    let src = "int main(int argc, char **argv) {\n    int rank, size;\n    double local = 0.0;\n    for (int i = 0; i < 100; i++) { local += i; }\n    printf(\"%f\\n\", local);\n    return 0;\n}\n";

    let mut g = c.benchmark_group("assistant");
    g.sample_size(10);
    g.bench_function("suggest_e2e", |b| {
        b.iter(|| assistant.suggest(black_box(src)))
    });
    g.bench_function("encode_source", |b| {
        b.iter(|| assistant.encode_source(black_box(src)))
    });
    g.finish();

    let _ = TrainConfig::default(); // keep the import exercised at all scales
}

/// Multi-worker engine scaling: one 16-request interactive burst decoded
/// by 1, 2, and 4 `BatchDecoder` workers behind the shared admission
/// front-end, at the serving-scale shape of `bench_batch_decode` (d=256).
///
/// Setup **asserts** that the 2- and 4-worker engines return exactly the
/// 1-worker outputs — CI runs this group as a smoke check that sharded
/// decoding stays bitwise identical — then times aggregate throughput per
/// worker count. A request decodes entirely within one worker, so the
/// scaling win comes from whole decoders running in parallel; on a ≥4-core
/// host expect ≥1.7× at 4 workers (measured numbers live in CHANGES.md).
///
/// The `prefix_shared` variant decodes 16 prompted requests over one
/// encoder output: the same 33-token prompt with one edited token per
/// repeat. Setup asserts that the burst's outputs are bitwise equal across
/// 1, 2 and 4 workers, and that a sequenced 2-worker engine encoding the
/// source once per request through its encoder table runs one forward,
/// skips 15, and returns the same outputs.
fn bench_engine_scaling(c: &mut Criterion) {
    let cfg = ModelConfig {
        vocab_size: 4096,
        d_model: 256,
        n_heads: 4,
        d_ff: 1024,
        n_enc_layers: 2,
        n_dec_layers: 2,
        max_enc_len: 64,
        max_dec_len: 80,
        dropout: 0.0,
    };
    let mut store = ParamStore::new();
    let params = build_params(&cfg, &mut store, 1);
    let enc_outs: Vec<Tensor> = (0..8)
        .map(|r| {
            let src: Vec<usize> = (0..48).map(|i| 6 + ((i * (r + 3)) % 200)).collect();
            encode_source(&store, &params, &cfg, &src)
        })
        .collect();
    let opts = DecodeOptions {
        beam: 1,
        min_len: 64,
        ..Default::default()
    };
    let burst = || -> Vec<BatchRequest> {
        enc_outs
            .iter()
            .chain(enc_outs.iter())
            .map(|e| BatchRequest {
                enc_out: e.clone(),
                prompt: vec![mpirical_model::vocab::SOS],
                max_len: 65,
                opts,
                submit: SubmitOptions::default(),
            })
            .collect()
    };

    // Weights pack once; every worker count shares the same bundle.
    let model = std::sync::Arc::new(EngineModel::new(
        store.clone(),
        params.clone(),
        cfg.clone(),
        Precision::F32,
    ));
    let engines: Vec<(usize, Engine)> = [1usize, 2, 4]
        .iter()
        .map(|&w| {
            let mut ecfg = EngineConfig::with_workers(w);
            ecfg.max_batch = 8;
            (w, Engine::new(model.clone(), ecfg))
        })
        .collect();
    let reference = engines[0].1.decode_all(burst());
    for (w, e) in &engines[1..] {
        assert_eq!(
            e.decode_all(burst()),
            reference,
            "{w}-worker engine must match the 1-worker outputs bitwise"
        );
    }

    // Near-identical burst: one encoder output, one base prompt, one edited
    // token per repeat.
    let base_prompt: Vec<usize> = std::iter::once(mpirical_model::vocab::SOS)
        .chain((0..32).map(|i| 6 + (i * 11) % 200))
        .collect();
    let shared_burst = || -> Vec<BatchRequest> {
        (0..16)
            .map(|r| {
                let mut prompt = base_prompt.clone();
                if r > 0 {
                    prompt[20] = 6 + (210 + r) % 300;
                }
                BatchRequest {
                    enc_out: enc_outs[0].clone(),
                    prompt,
                    max_len: 65,
                    opts,
                    submit: SubmitOptions::default(),
                }
            })
            .collect()
    };
    let shared_reference = engines[0].1.decode_all(shared_burst());
    for (w, e) in &engines[1..] {
        assert_eq!(
            e.decode_all(shared_burst()),
            shared_reference,
            "{w}-worker engine must match the 1-worker prefix-shared outputs bitwise"
        );
    }
    // Sequenced through the encoder table: the first request runs the
    // forward, every repeat skips it, and the outputs do not change.
    {
        let seq = Engine::new(model.clone(), {
            let mut ecfg = EngineConfig::with_workers(2);
            ecfg.max_batch = 8;
            ecfg
        });
        // The source of `enc_outs[0]`.
        let src: Vec<usize> = (0..48).map(|i| 6 + (i * 3) % 200).collect();
        for (req, want) in shared_burst().into_iter().zip(&shared_reference) {
            let ticket = seq.submit(BatchRequest {
                enc_out: seq.encode(&src),
                ..req
            });
            seq.drain();
            match seq.poll(ticket) {
                mpirical_model::PollResult::Done { ids, .. } => assert_eq!(&ids, want),
                other => panic!("sequenced prefix-shared request did not finish: {other:?}"),
            }
        }
        let s = seq.prefix_stats();
        assert_eq!(
            (s.hits, s.misses),
            (15, 1),
            "every repeat skips the encoder forward"
        );
        assert_eq!(s.prefilled_rows, 16 * 32, "every prompt is prefilled");
        seq.shutdown();
    }

    let mut g = c.benchmark_group("engine_scaling");
    g.sample_size(10);
    for (w, e) in &engines {
        g.bench_function(format!("engine{w}w_16reqs_greedy_64tok"), |b| {
            b.iter(|| black_box(e.decode_all(burst())))
        });
        g.bench_function(format!("engine{w}w_16reqs_prefix_shared_32tok"), |b| {
            b.iter(|| black_box(e.decode_all(shared_burst())))
        });
    }
    g.finish();
    for (_, e) in engines {
        e.shutdown();
    }
}

criterion_group!(
    benches,
    bench_matmul,
    bench_model,
    bench_encoder_forward,
    bench_gelu,
    bench_decode,
    bench_batch_decode,
    bench_batch_beam,
    bench_decode_quant,
    bench_decode_priority,
    bench_cache_fork,
    bench_decode_oneshot,
    bench_suggestion_latency,
    bench_engine_scaling
);
criterion_main!(benches);
