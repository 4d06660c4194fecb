//! IDE-assistant demo: the deployment scenario the paper targets (§I, §VII)
//! — MPI-RICAL watching a buffer and proposing MPI calls, tolerant of
//! incomplete code.
//!
//! ```text
//! cargo run --release --example ide_assistant [path/to/model.json] [path/to/file.c]
//! ```
//!
//! Without arguments it trains a small model on the fly and runs the demo on
//! a built-in buffer, including a mid-edit (unparseable) state.

use mpirical::{MpiRical, MpiRicalConfig, SubmitOptions, SuggestPoll, VerifyOptions};
use mpirical_corpus::{generate_dataset, CorpusConfig};
use mpirical_model::ModelConfig;

const DEMO_BUFFER: &str = r#"int main(int argc, char **argv) {
    int rank, size, i;
    int n = 512;
    double local = 0.0, total = 0.0;
    for (i = rank; i < n; i += size) {
        local += 4.0 / (1.0 + i * i);
    }
    if (rank == 0) {
        printf("%f\n", total);
    }
    return 0;
}"#;

const SECOND_BUFFER: &str = r#"int main(int argc, char **argv) {
    int rank, size, i;
    double sum = 0.0;
    for (i = 0; i < 256; i++) {
        sum += i * 0.5;
    }
    printf("%f\n", sum);
    return 0;
}"#;

const MID_EDIT_BUFFER: &str = r#"int main(int argc, char **argv) {
    int rank, size;
    double local = 0.0;
    for (int i = rank; i < 100; i += size) {
        local += i;
    // <- cursor here, braces unbalanced
"#;

fn main() {
    let mut args = std::env::args().skip(1);
    let assistant = match args.next() {
        Some(path) => {
            eprintln!("loading model from {path}…");
            MpiRical::load(&path).expect("model loads")
        }
        None => {
            eprintln!("no model given; training a small one (≈1 min)…");
            let ccfg = CorpusConfig {
                programs: 300,
                seed: 99,
                max_tokens: 320,
                threads: 0,
            };
            let (_, dataset, _) = generate_dataset(&ccfg);
            let splits = dataset.split(9);
            let mut cfg = MpiRicalConfig {
                model: ModelConfig {
                    vocab_size: 0,
                    d_model: 48,
                    n_heads: 4,
                    d_ff: 96,
                    n_enc_layers: 1,
                    n_dec_layers: 1,
                    max_enc_len: 256,
                    max_dec_len: 232,
                    dropout: 0.0,
                },
                vocab_min_freq: 1,
                ..Default::default()
            };
            cfg.train.epochs = 3;
            cfg.train.batch_size = 16;
            let (assistant, _) = MpiRical::train(&splits.train, &splits.val, &cfg, |e| {
                eprintln!("  epoch {}: loss {:.3}", e.epoch, e.train_loss);
            });
            assistant
        }
    };

    let buffer = match args.next() {
        Some(path) => std::fs::read_to_string(&path).expect("file readable"),
        None => DEMO_BUFFER.to_string(),
    };

    println!("=== buffer ===\n{buffer}\n");
    println!("=== MPI-RICAL suggestions ===");
    let suggestions = assistant.suggest(&buffer);
    if suggestions.is_empty() {
        println!("(no suggestions — model too small or code already parallel)");
    }
    for s in &suggestions {
        println!("line {:>3}: insert {}", s.line, s.function);
    }

    println!("\n=== predicted parallel program ===");
    println!("{}", assistant.translate(&buffer));

    println!("=== mid-edit buffer (unbalanced braces — TreeSitter-style tolerance) ===");
    let report = assistant.suggest_report(MID_EDIT_BUFFER);
    println!(
        "({} suggestions produced without crashing)",
        report.suggestions.len()
    );
    // ParseHealth narrates how degraded the front-end view was: error and
    // recovery counts plus the dirty line ranges. Suggestions inside a
    // dirty range carry `degraded: true` and sort after the clean ones.
    println!(
        "parse health: {} error(s), {} recovery event(s), dirty lines {:?}",
        report.health.error_count, report.health.recovery_events, report.health.dirty_lines,
    );
    for s in &report.suggestions {
        let tag = if s.degraded { "  [degraded]" } else { "" };
        println!("    line {:>3}: insert {}{tag}", s.line, s.function);
    }

    // Many developers, one model: the service path. All open buffers decode
    // concurrently through the batched lockstep scheduler — shared weight
    // passes, continuous batching — with outputs identical to `suggest`.
    println!("\n=== batched serving: three buffers through one SuggestService ===");
    let mut service = mpirical::SuggestService::new(&assistant);
    let buffers = [
        ("editor A", buffer.as_str()),
        ("editor B", SECOND_BUFFER),
        ("editor C", MID_EDIT_BUFFER),
    ];
    let tickets: Vec<_> = buffers.iter().map(|(_, b)| service.submit(b)).collect();
    service.run();
    for ((who, _), ticket) in buffers.iter().zip(tickets) {
        let SuggestPoll::Done {
            suggestions,
            health,
            ..
        } = service.poll(ticket)
        else {
            panic!("request finished");
        };
        let state = if health.is_clean() {
            "clean parse".to_string()
        } else {
            format!("mid-edit, dirty lines {:?}", health.dirty_lines)
        };
        println!("{who}: {} suggestion(s) ({state})", suggestions.len());
        for s in &suggestions {
            let tag = if s.degraded { "  [degraded]" } else { "" };
            println!("    line {:>3}: insert {}{tag}", s.line, s.function);
        }
    }

    // Editor A retriggers on a keystroke pause: the identical buffer shares
    // its prefilled K/V pages (copy-on-write) instead of re-projecting them.
    let retrigger = service.submit(&buffer);
    service.run();
    assert!(matches!(service.poll(retrigger), SuggestPoll::Done { .. }));
    let stats = service.pool_stats();
    println!(
        "\npaged KV cache: peak {} pages ({} KiB), {} COW copies, {} prefix hit(s)",
        stats.pages_peak,
        stats.peak_bytes() / 1024,
        stats.cow_copies,
        service.prefix_hits(),
    );

    // Serving API v2: a background re-index job churns at Bulk priority;
    // a keystroke-triggered request preempts its lane mid-flight (the
    // bulk job pauses with its KV pages intact and resumes after), a
    // second re-index becomes stale and is cancelled, and the poll states
    // narrate the whole lifecycle.
    println!("\n=== priorities: keystroke preempts a background re-index ===");
    let mut service = mpirical::SuggestService::with_max_batch(&assistant, 1);
    let reindex = service.submit_with(SECOND_BUFFER, SubmitOptions::bulk());
    let stale = service.submit_with(DEMO_BUFFER, SubmitOptions::bulk());
    for _ in 0..3 {
        service.step();
    }
    let keystroke = service.submit(&buffer); // Interactive by default
    service.step();
    match service.poll(keystroke) {
        SuggestPoll::Decoding { partial } => println!(
            "keystroke request: decoding 1 step after submit ({} partial suggestion(s))",
            partial.len()
        ),
        other => println!("keystroke request: {other:?}"),
    }
    if let SuggestPoll::Queued { position } = service.poll(reindex) {
        println!("re-index job: paused at queue position {position} (pages retained)");
    }
    let cancelled = service.cancel(stale);
    println!("stale re-index cancelled: {cancelled}");
    service.run();
    match service.poll(keystroke) {
        SuggestPoll::Done {
            suggestions,
            telemetry,
            ..
        } => println!(
            "keystroke done: {} suggestion(s), {} queue-wait step(s), {} decode step(s)",
            suggestions.len(),
            telemetry.queue_wait_steps,
            telemetry.decode_steps,
        ),
        other => println!("keystroke: {other:?}"),
    }
    match service.poll(reindex) {
        SuggestPoll::Done {
            suggestions,
            telemetry,
            ..
        } => println!(
            "re-index done: {} suggestion(s), preempted {} time(s), output unchanged",
            suggestions.len(),
            telemetry.preemptions,
        ),
        other => println!("re-index: {other:?}"),
    }
    assert!(matches!(service.poll(stale), SuggestPoll::Cancelled));
    println!(
        "scheduler: {} preemption(s), {} live page(s) after drain",
        service.preemptions(),
        service.pool_stats().pages_live,
    );

    // Closed-loop verification: every beam hypothesis is spliced into the
    // buffer and executed on the simulated MPI runtime; suggestions carry
    // the observed verdict and the report aggregates the telemetry. A
    // candidate that deadlocks (or crashes, or diverges from the serial
    // baseline) is demoted below the verified ones regardless of model
    // score.
    println!("\n=== closed-loop verification: execute before you suggest ===");
    let mut verifying = assistant.clone();
    verifying.verify = Some(VerifyOptions {
        rank_counts: vec![2],
        step_limit: 200_000,
        ..VerifyOptions::default()
    });
    for (who, buf) in buffers {
        let report = verifying.suggest_report(buf);
        println!("{who}:");
        for s in &report.suggestions {
            let verdict = match s.verdict {
                Some(v) => v.to_string(),
                None => "unverified (past budget)".to_string(),
            };
            println!("    line {:>3}: insert {}  [{verdict}]", s.line, s.function);
        }
        if let Some(stats) = report.verify {
            println!(
                "    stats: {} hypothesis(es) executed across {} simulator run(s) — \
                 {} verified, {} deadlock, {} crash, {} type-mismatch, {} diverged, \
                 {} timeout, {} not-executable, {} unverified",
                stats.hypotheses,
                stats.sim_runs,
                stats.verified,
                stats.deadlock,
                stats.rank_crash,
                stats.type_mismatch,
                stats.diverged,
                stats.timeout,
                stats.not_executable,
                stats.unverified,
            );
        }
    }
}
