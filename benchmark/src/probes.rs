//! Per-layer probes of the traced pass: the layers a request crosses inside
//! the daemon, replayed in-process on the workload's own inputs by calling
//! each layer's public functions with a timer (and a span) around the call.
//! Spans inside the program itself belong to a later change.

use crate::gen::{Hypothesis, DEADLOCK};
use crate::spans::Recorder;
use crate::stats::median;
use mpirical::cparse::{lex, parse_strict, parse_tolerant, print_program};
use mpirical::interp::{run_program, Limits, RunConfig};
use mpirical::model::{BatchDecoder, BatchRequest, Engine, EngineConfig, Precision};
use mpirical::sim::{ReduceOp, Source, Tag, World};
use mpirical::tensor::{batch_matmul_packed, vecmat, vecmat_q, PackedMat, QuantMat, Tensor};
use mpirical::verify::verify_program;
use mpirical::{
    calls_from_ids, tokenize_code, MpiRical, SubmitOptions, SuggestPoll, VerifyOptions,
};
use mpirical_server::{read_frame, write_frame, Request, Response};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Cursor;
use std::time::{Duration, Instant};

/// Inputs a probe pass samples from the workload (first N distinct sources).
pub const PROBE_INPUTS: usize = 24;
/// Steps timed per request in the decode-step probes.
const PROBE_STEPS: usize = 32;
/// Requests in the in-process engine throughput probe.
const ENGINE_REQUESTS: usize = 16;

/// Median per-layer values, `name → value` (units come from the metric table).
pub type Layers = BTreeMap<&'static str, f64>;

/// Times calls and records a span per call.
pub struct Prober<'a> {
    pub rec: &'a mut Recorder,
    /// Wall time one probe may spend (it always finishes one pass).
    pub slice: Duration,
}

impl Prober<'_> {
    /// Call `f(i)` for `i` in `0..n`, again and again until the slice is
    /// spent; returns every call's duration in µs. The first pass records a
    /// span per call, with the input's index as the request id.
    fn time(&mut self, name: &str, n: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
        let mut samples = Vec::new();
        let started = Instant::now();
        let mut pass = 0;
        while n > 0 && (pass == 0 || started.elapsed() < self.slice) {
            for i in 0..n {
                let span = (pass == 0).then(|| self.rec.enter(name, i as u64));
                let t = Instant::now();
                f(i);
                samples.push(t.elapsed().as_secs_f64() * 1e6);
                if let Some(span) = span {
                    self.rec.exit(span);
                }
            }
            pass += 1;
        }
        samples
    }
}

fn distinct(sources: &[String]) -> Vec<&str> {
    let mut seen: Vec<&str> = Vec::new();
    for s in sources {
        if !seen.contains(&s.as_str()) {
            seen.push(s);
            if seen.len() == PROBE_INPUTS {
                break;
            }
        }
    }
    seen
}

/// Front-end layers every workload enters: lex, tolerant parse, print.
fn front_end(p: &mut Prober, sources: &[&str], layers: &mut Layers) {
    let n = sources.len();
    let t = p.time("cparse.lex", n, |i| {
        black_box(lex(black_box(sources[i])));
    });
    layers.insert("cparse.lex_us", median(&t));
    let t = p.time("cparse.parse_tolerant", n, |i| {
        black_box(parse_tolerant(black_box(sources[i])));
    });
    layers.insert("cparse.parse_tolerant_us", median(&t));
    let parsed: Vec<_> = sources.iter().map(|s| parse_tolerant(s)).collect();
    let t = p.time("cparse.print_program", n, |i| {
        black_box(print_program(black_box(&parsed[i].program)));
    });
    layers.insert("cparse.print_us", median(&t));
    let recoveries: Vec<f64> = parsed.iter().map(|o| o.recoveries as f64).collect();
    layers.insert("cparse.recovery_events", median(&recoveries));
}

/// One decode-step probe: prefill (first step of a lone request: cross-K/V
/// projection plus the first token) and steady steps at batch 1 and 8.
fn decode_steps(
    p: &mut Prober,
    assistant: &MpiRical,
    requests: &[BatchRequest],
    precision: Precision,
) -> (f64, f64, f64) {
    let m = &assistant.model;
    let lane_request = |i: usize| {
        let mut req = requests[i % requests.len()]
            .clone()
            .with_max_new_tokens(PROBE_STEPS);
        req.opts.precision = precision;
        req
    };
    let tag = match precision {
        Precision::F32 => "f32",
        Precision::Int8 => "int8",
    };
    let mut prefill = Vec::new();
    let mut b1 = Vec::new();
    let mut b8 = Vec::new();
    let mut dec = BatchDecoder::with_precision(&m.store, &m.params, &m.cfg, 8, precision);
    let started = Instant::now();
    let mut round = 0;
    while round == 0 || started.elapsed() < p.slice {
        for lanes in [1usize, 8] {
            let ids: Vec<_> = (0..lanes)
                .map(|l| dec.submit(lane_request(round * 9 + l)))
                .collect();
            let mut step = 0;
            loop {
                let span =
                    (round == 0).then(|| p.rec.enter(&format!("model.step_{tag}_b{lanes}"), step));
                let t = Instant::now();
                let active = dec.step();
                let us = t.elapsed().as_secs_f64() * 1e6;
                if let Some(span) = span {
                    p.rec.exit(span);
                }
                if active == 0 {
                    break;
                }
                match (lanes, step) {
                    (1, 0) => prefill.push(us),
                    (1, _) => b1.push(us),
                    (_, 0) => {} // eight admissions in one step: neither number
                    _ => b8.push(us),
                }
                step += 1;
            }
            for id in ids {
                black_box(dec.poll(id));
            }
        }
        round += 1;
    }
    (median(&prefill), median(&b1), median(&b8))
}

fn engine_tok_s(assistant: &MpiRical, requests: &[BatchRequest], workers: usize) -> f64 {
    let engine = Engine::new(
        assistant.engine_model(),
        EngineConfig {
            workers,
            ..EngineConfig::default()
        },
    );
    let burst: Vec<BatchRequest> = (0..ENGINE_REQUESTS)
        .map(|i| requests[i % requests.len()].clone())
        .collect();
    let t = Instant::now();
    let out = engine.decode_all(burst);
    let secs = t.elapsed().as_secs_f64();
    engine.shutdown();
    out.iter().map(Vec::len).sum::<usize>() as f64 / secs
}

fn tensor_kernels(p: &mut Prober, layers: &mut Layers) {
    // The output projection of the serving shape: d_model 256 → vocab 4096.
    let (k, n) = (256usize, 4096usize);
    let weights: Vec<f32> = (0..k * n)
        .map(|i| ((i % 97) as f32 - 48.0) / 97.0)
        .collect();
    let m = Tensor::from_vec(&[k, n], weights);
    let x: Vec<f32> = (0..8 * k)
        .map(|i| ((i % 31) as f32 - 15.0) / 31.0)
        .collect();
    let mut out = vec![0.0f32; 8 * n];

    let t = p.time("tensor.vecmat", 1, |_| {
        vecmat(black_box(&x[..k]), &m, &mut out[..n]);
    });
    layers.insert("tensor.vecmat_256x4096_us", median(&t));
    // Computed, not measured: weights streamed once + input + output, f32.
    layers.insert("tensor.vecmat_256x4096_bytes", ((k * n + k + n) * 4) as f64);

    let packed = PackedMat::pack(&m);
    let t = p.time("tensor.batch_matmul_packed", 1, |_| {
        batch_matmul_packed(black_box(&x), 8, &packed, &mut out);
    });
    layers.insert("tensor.batch_matmul_packed_8x256x4096_us", median(&t));
    layers.insert(
        "tensor.batch_matmul_packed_8x256x4096_bytes",
        ((k * n + 8 * k + 8 * n) * 4) as f64,
    );

    let quant = QuantMat::quantize(&m);
    let t = p.time("tensor.vecmat_q", 1, |_| {
        vecmat_q(black_box(&x[..k]), &quant, &mut out[..n]);
    });
    layers.insert("tensor.vecmat_q_256x4096_us", median(&t));
    // int8 weights + one f32 scale per output channel + f32 input and output.
    layers.insert(
        "tensor.vecmat_q_256x4096_bytes",
        (k * n + n * 4 + (k + n) * 4) as f64,
    );
    black_box(&out);
}

/// JSON and framing of one request's wire messages, in memory.
fn wire_codec(p: &mut Prober, sources: &[&str], layers: &mut Layers) {
    let n = sources.len();
    let requests: Vec<Request> = sources
        .iter()
        .map(|s| Request::Submit {
            source: s.to_string(),
            options: SubmitOptions::interactive().with_max_new_tokens(16),
        })
        .collect();
    let response = Response::Poll {
        state: SuggestPoll::Done {
            suggestions: Vec::new(),
            telemetry: Default::default(),
            health: Default::default(),
            verify: None,
        },
    };
    let t = p.time("server.json_encode", n, |i| {
        black_box(serde_json::to_string(&requests[i]).expect("serializes"));
        black_box(serde_json::to_string(&response).expect("serializes"));
    });
    layers.insert("server.json_encode_us", median(&t));
    let texts: Vec<String> = requests
        .iter()
        .map(|r| serde_json::to_string(r).expect("serializes"))
        .collect();
    let response_text = serde_json::to_string(&response).expect("serializes");
    let t = p.time("server.json_decode", n, |i| {
        black_box(serde_json::from_str::<Request>(&texts[i]).expect("parses"));
        black_box(serde_json::from_str::<Response>(&response_text).expect("parses"));
    });
    layers.insert("server.json_decode_us", median(&t));
    let t = p.time("server.frame_io", n, |i| {
        let mut buf = Vec::with_capacity(texts[i].len() + response_text.len() + 8);
        write_frame(&mut buf, texts[i].as_bytes()).expect("in-memory write");
        write_frame(&mut buf, response_text.as_bytes()).expect("in-memory write");
        let mut cursor = Cursor::new(buf);
        black_box(read_frame(&mut cursor).expect("frame reads back"));
        black_box(read_frame(&mut cursor).expect("frame reads back"));
    });
    layers.insert("server.frame_io_us", median(&t));
}

/// The layers a wire request crosses inside the daemon, on `sources`.
pub fn wire_layers(p: &mut Prober, assistant: &MpiRical, sources: &[String]) -> Layers {
    let sources = distinct(sources);
    let n = sources.len();
    let mut layers = Layers::new();
    front_end(p, &sources, &mut layers);

    let canonical: Vec<String> = sources
        .iter()
        .map(|s| print_program(&parse_tolerant(s).program))
        .collect();
    let reparsed: Vec<_> = canonical.iter().map(|s| parse_tolerant(s)).collect();
    let mut xsbt_tokens = Vec::new();
    let t = p.time("xsbt.xsbt", n, |i| {
        let tokens = mpirical::xsbt::xsbt(black_box(&reparsed[i].program));
        xsbt_tokens.push(tokens.len() as f64);
    });
    layers.insert("xsbt.linearize_us", median(&t));
    layers.insert("xsbt.tokens", median(&xsbt_tokens[..n]));
    let t = p.time("core.tokenize_code", n, |i| {
        black_box(tokenize_code(black_box(&canonical[i])));
    });
    layers.insert("core.tokenize_us", median(&t));
    let t = p.time("core.encode_source", n, |i| {
        black_box(assistant.encode_source(black_box(sources[i])));
    });
    layers.insert("core.encode_source_us", median(&t));
    let encoded: Vec<_> = sources.iter().map(|s| assistant.encode_source(s)).collect();
    let enc_ids: Vec<f64> = encoded.iter().map(|e| e.ids.len() as f64).collect();
    layers.insert("core.enc_ids", median(&enc_ids));

    let mut requests: Vec<BatchRequest> = Vec::with_capacity(n);
    let t = p.time("model.request_from_encoded", n, |i| {
        let req = assistant.request_from_encoded(&encoded[i], SubmitOptions::default());
        if requests.len() < n {
            requests.push(req);
        }
    });
    layers.insert("model.encoder_forward_us", median(&t));

    let (prefill, b1, b8) = decode_steps(p, assistant, &requests, Precision::F32);
    layers.insert("model.prefill_us", prefill);
    layers.insert("model.step_f32_b1_us", b1);
    layers.insert("model.step_f32_b8_us", b8);
    let (_, q1, q8) = decode_steps(p, assistant, &requests, Precision::Int8);
    layers.insert("model.step_int8_b1_us", q1);
    layers.insert("model.step_int8_b8_us", q8);
    layers.insert(
        "model.engine_tok_s_w1",
        engine_tok_s(assistant, &requests, 1),
    );
    layers.insert(
        "model.engine_tok_s_w2",
        engine_tok_s(assistant, &requests, 2),
    );

    // Poll-side extraction: generated ids → call sites.
    let ids: Vec<usize> = (0..95).map(|i| 6 + (i * 37) % 4000).collect();
    let t = p.time("core.calls_from_ids", 1, |_| {
        black_box(calls_from_ids(black_box(&ids), &assistant.model.vocab));
    });
    layers.insert("core.extract_us", median(&t));

    tensor_kernels(p, &mut layers);
    wire_codec(p, &sources, &mut layers);
    layers
}

/// The layers `verify_corpus` enters, on the hypotheses of one round.
pub fn verify_layers(p: &mut Prober, round: &[Hypothesis]) -> Layers {
    let mut layers = Layers::new();
    let predicted: Vec<String> = round.iter().map(|h| h.predicted.clone()).collect();
    front_end(p, &distinct(&predicted), &mut layers);

    // The serial baseline run `verify_program` ends with: each predicted
    // program on one rank, under the verifier's default budgets.
    let opts = VerifyOptions::default();
    let serial = RunConfig {
        nranks: 1,
        timeout: Duration::from_millis(opts.timeout_ms),
        limits: Limits {
            step_limit: opts.step_limit,
            cell_limit: opts.cell_limit,
        },
    };
    let programs: Vec<_> = round
        .iter()
        .filter_map(|h| parse_strict(&h.predicted).ok())
        .take(PROBE_INPUTS)
        .collect();
    let t = p.time("cinterp.run_program_1rank", programs.len(), |i| {
        black_box(run_program(&programs[i], &serial).is_ok());
    });
    layers.insert("cinterp.run_1rank_us", median(&t));

    let t = p.time("mpisim.pingpong", 1, |_| {
        World::run(2, |comm| {
            let buf = [1.0f64; 64];
            let mut rbuf = [0.0f64; 64];
            if comm.rank() == 0 {
                comm.send(&buf, 1, 0)?;
                comm.recv(&mut rbuf, Source::Rank(1), Tag::Value(1))?;
            } else {
                comm.recv(&mut rbuf, Source::Rank(0), Tag::Value(0))?;
                comm.send(&buf, 0, 1)?;
            }
            Ok(())
        })
        .expect("ping-pong completes");
    });
    layers.insert("mpisim.pingpong_us", median(&t));
    let t = p.time("mpisim.allreduce_4ranks", 1, |_| {
        World::run(4, |comm| {
            let x = [comm.rank() as f64; 16];
            let mut out = [0.0f64; 16];
            comm.allreduce(&x, &mut out, ReduceOp::Sum)?;
            Ok(black_box(out[0]))
        })
        .expect("allreduce completes");
    });
    layers.insert("mpisim.allreduce_4ranks_us", median(&t));

    // One sample: a recv-recv cycle holds the verifier for its whole timeout.
    let cycle = parse_strict(DEADLOCK).expect("well-formed");
    let span = p.rec.enter("mpisim.deadlock_detect", 0);
    let t = Instant::now();
    black_box(verify_program(&cycle, &VerifyOptions::default()));
    layers.insert("mpisim.deadlock_detect_ms", t.elapsed().as_secs_f64() * 1e3);
    p.rec.exit(span);
    layers
}
