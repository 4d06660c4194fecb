//! `verify_corpus`: the closed verification loop driven the way a verifying
//! daemon drives it — `verify_prediction` at `VerifyOptions::default()` over
//! a seeded hypothesis stream — because over the wire an untrained artifact
//! never emits an MPI call, so the wire workloads bypass `cinterp`/`mpisim`.

use crate::gen::{Hypothesis, HypothesisStream};
use crate::report::RunResult;
use crate::spans::Recorder;
use crate::stats::median;
use crate::sut::process_cpu_ms;
use mpirical::verify::{splice_prediction, verify_prediction, verify_program};
use mpirical::VerifyOptions;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What `verify_corpus` measured.
#[derive(Default)]
pub struct VerifyOutcome {
    /// Per-hypothesis wall time, ms.
    pub latencies_ms: Vec<f64>,
    /// Traced pass: per pair slot, the times it ran `[untraced, traced]`.
    pub by_slot: Vec<[Vec<f64>; 2]>,
    pub completed: u64,
    /// Sum of the timed rounds (hypothesis generation is outside them).
    pub window_s: f64,
    pub cpu_ms: f64,
    pub sim_runs: u64,
    /// `(kind, observed verdict)` → count; every cell must sit on the
    /// expected verdict of its kind.
    pub confusion: BTreeMap<(String, String), u64>,
    /// The hypotheses of the first round, for the layer probes.
    pub sample: Vec<Hypothesis>,
}

/// How long to run: whole rounds until the timed sections add up to a
/// duration (a round always holds the same mix, so stopping on a round
/// boundary keeps throughput independent of where the slow hypotheses fell),
/// or a fixed number of rounds (traced replay: counts repeat exactly).
#[derive(Debug, Clone, Copy)]
pub enum Rounds {
    Until(Duration),
    Exactly(u64),
}

pub fn verify_corpus(
    seed: u64,
    rounds: Rounds,
    tracing: bool,
    rec: &mut Recorder,
    run: &mut RunResult,
) -> VerifyOutcome {
    let mut stream = HypothesisStream::new(seed);
    let mut out = VerifyOutcome::default();
    let mut timed = Duration::ZERO;
    let mut rounds_done = 0u64;
    let mut index = 0u64;
    loop {
        let finished = match rounds {
            Rounds::Until(d) => timed >= d,
            Rounds::Exactly(n) => rounds_done >= n,
        };
        if finished {
            break;
        }
        let round = stream.next_round();
        if out.sample.is_empty() {
            out.sample = round.clone();
        }
        let cpu0 = process_cpu_ms();
        let started = Instant::now();
        for h in &round {
            // Alternate per pair and per round, so every pair runs both
            // ways and the overhead is a ratio of like with like.
            let traced = tracing && (h.slot as u64 + rounds_done) % 2 == 1;
            let opts = VerifyOptions {
                rel_tol: h.rel_tol,
                ..VerifyOptions::default()
            };
            run.attempted += 1;
            let t = Instant::now();
            let (verdict, sim_runs) = if traced {
                let span = rec.enter("hypothesis", index);
                let patched = rec.scope_if(true, "core.splice_prediction", index, || {
                    splice_prediction(&h.base, &h.predicted)
                });
                let result = rec.scope_if(true, "core.verify_program", index, || {
                    verify_program(&patched, &opts)
                });
                rec.exit(span);
                result
            } else {
                verify_prediction(&h.base, &h.predicted, &opts)
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            out.latencies_ms.push(ms);
            if tracing {
                if out.by_slot.len() <= h.slot {
                    out.by_slot.resize_with(h.slot + 1, Default::default);
                }
                out.by_slot[h.slot][usize::from(traced)].push(ms);
            }
            out.sim_runs += sim_runs as u64;
            *out.confusion
                .entry((h.kind.to_string(), verdict.to_string()))
                .or_insert(0) += 1;
            if verdict != h.expect {
                run.fail(format!(
                    "hypothesis {index} ({}): verdict {verdict}, expected {}",
                    h.kind, h.expect
                ));
            }
            out.completed += 1;
            index += 1;
        }
        timed += started.elapsed();
        out.cpu_ms += process_cpu_ms() - cpu0;
        rounds_done += 1;
    }
    out.window_s = timed.as_secs_f64();
    out
}

/// Traced / untraced time of the same pair, median over the pairs that ran
/// both ways (0 when none did: a one-round replay).
pub fn trace_overhead(out: &VerifyOutcome) -> f64 {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let ratios: Vec<f64> = out
        .by_slot
        .iter()
        .filter(|[untraced, traced]| !untraced.is_empty() && !traced.is_empty())
        .map(|[untraced, traced]| mean(traced) / mean(untraced))
        .collect();
    median(&ratios)
}

/// The confusion matrix as printable rows, expected verdict first.
pub fn confusion_rows(out: &VerifyOutcome) -> Vec<String> {
    out.confusion
        .iter()
        .map(|((kind, verdict), n)| format!("confusion {kind} -> {verdict}: {n}"))
        .collect()
}
