//! `ledger` — the repository's performance ledger.
//!
//! * `ledger --workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload in this process (the `BENCHMARK.json` contract): prints one
//!   `workload metric value unit` line per metric, then one JSON object.
//! * `ledger [--seed N] [--smoke]` — the whole ledger: every
//!   workload in a fresh process each, untraced runs then a traced run, folded
//!   into `benchmark/out/results.json`.
//! * `ledger diff A.json B.json` — compare two ledgers.

mod diff;
mod gen;
mod metrics;
mod probes;
mod report;
mod spans;
mod stats;
mod sut;
mod verify;
mod wire;

use metrics::{PER_LAYER, WORKLOADS};
use probes::{Layers, Prober};
use report::{fold_runs, pretty_json, Ledger, Provenance, RunResult};
use spans::{durations_us, self_time_by_name, Recorder};
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use sut::Daemon;
use wire::{Extent, WireOutcome};

/// Seed of the committed baseline and of `run.sh` without `--seed`.
const DEFAULT_SEED: u64 = 20_230_911;
/// Window of the whole-ledger runs: long enough for ≥ 200 latency samples on
/// `interactive_retrigger`, so p95 has ten samples beyond it.
const LEDGER_SECONDS: f64 = 36.0;
/// Untraced runs per workload in the whole ledger (their spread is what
/// `ledger diff` calls unresolved).
const LEDGER_RUNS: usize = 3;
const SMOKE_SECONDS: f64 = 1.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Traced closed-loop replays are sized from `--seconds` alone (never from
/// the clock) so that their counts repeat exactly: requests per second of
/// `--seconds`, about a quarter of what the untraced pass completes.
const TRACED_INTERACTIVE_PER_S: f64 = 1.75;
const TRACED_BULK_PER_S: f64 = 1.5;
/// Traced `verify_corpus`: one round per this many seconds of `--seconds`.
const TRACED_SECONDS_PER_ROUND: f64 = 10.0;
/// Traced `mixed_overload`: share of `--seconds` the open loop runs for.
const TRACED_MIXED_SHARE: f64 = 0.4;
/// Idle window for `server.idle_cpu_ms_per_s`, as a share of `--seconds`
/// (2 s at the contract's 20 s).
const IDLE_SHARE: f64 = 0.1;
/// `Client::stats` round trips behind `server.rtt_us`.
const RTT_SAMPLES: usize = 15;

/// Sizes that differ between a full run and `--smoke` (which only has to
/// exercise every code path in a few seconds).
struct Profile {
    setups: usize,
    warmup: usize,
    bulk_window: usize,
}

impl Profile {
    fn of(args: &Args) -> Profile {
        if args.smoke {
            Profile {
                setups: 1,
                warmup: 2,
                bulk_window: 8,
            }
        } else {
            Profile {
                setups: SETUP_REPEATS,
                warmup: sut::WARMUP_REQUESTS,
                bulk_window: wire::BULK_WINDOW,
            }
        }
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

impl Args {
    /// `--seconds`, or the whole-ledger default for the chosen size.
    fn window_seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            LEDGER_SECONDS
        })
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds out of range: {s}"));
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &parsed.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("diff") {
        return match args.as_slice() {
            [_, a, b] => run_diff(a, b),
            _ => {
                eprintln!("usage: ledger diff A.json B.json");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_ledger(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_diff(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| -> io::Result<Ledger> {
        serde_json::from_str(&std::fs::read_to_string(path)?).map_err(io::Error::from)
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            if diff::diff(&a, &b) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ledger diff: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// One run of one workload
// ---------------------------------------------------------------------------

/// One timed set-up: artifact build, daemon start, warm-up requests.
fn timed_set_up(pool: &[String], warmup: usize) -> io::Result<(Daemon, f64)> {
    let t = Instant::now();
    let daemon = Daemon::set_up(pool, warmup)?;
    Ok((daemon, t.elapsed().as_secs_f64()))
}

fn put_latency(run: &mut RunResult, latencies_ms: &[f64]) {
    if latencies_ms.is_empty() {
        run.fail("no request completed inside the window".to_string());
        run.put("latency_p50_ms", 0.0, "ms");
        run.put("latency_p95_ms", 0.0, "ms");
        return;
    }
    let p50 = percentile(latencies_ms, 0.5);
    let p95 = percentile(latencies_ms, 0.95);
    run.put_sampled("latency_p50_ms", p50.value, "ms", p50.n, p50.supported);
    run.put_sampled("latency_p95_ms", p95.value, "ms", p95.n, p95.supported);
}

fn put_rates(run: &mut RunResult, completed: u64, window_s: f64, cpu_ms: f64, peak_rss_mb: f64) {
    run.put("throughput_req_s", completed as f64 / window_s, "1/s");
    run.put("cpu_ms_per_req", cpu_ms / completed.max(1) as f64, "ms");
    run.put("peak_rss_mb", peak_rss_mb, "MB");
    run.put(
        "failed_ratio",
        run.failed as f64 / run.attempted.max(1) as f64,
        "ratio",
    );
}

fn run_wire(workload: &str, args: &Args, seconds: f64, run: &mut RunResult) -> io::Result<()> {
    let pool = gen::source_pool();
    let window = Duration::from_secs_f64(seconds);
    let profile = Profile::of(args);
    let (daemon, first_setup) = timed_set_up(&pool, profile.warmup)?;
    let mut setups = vec![first_setup];
    let assistant = daemon.assistant.clone();
    let mut rec = Recorder::new();
    let out = wire::run(
        workload,
        daemon,
        &pool,
        args.seed,
        Extent::For(window),
        profile.bulk_window,
        false,
        &mut rec,
        run,
    )?;
    // Read before the reference service and the repeat set-ups add their own
    // allocations to the high-water mark.
    let peak_rss_mb = sut::peak_rss_mb();
    check_references(&assistant, &out, run);
    // `setup_s` is the median of several set-ups; the repeats run here, after
    // the window, so they cannot disturb it.
    for _ in 1..profile.setups {
        let (daemon, seconds) = timed_set_up(&pool, profile.warmup)?;
        setups.push(seconds);
        let client = daemon.connect()?;
        daemon.tear_down(client)?;
    }
    run.put("setup_s", median(&setups) + out.fill_s, "s");
    put_latency(run, &out.latencies_ms);
    run.put(
        "throughput_tok_s",
        out.tokens as f64 / out.window_s,
        "tok/s",
    );
    if workload == "mixed_overload" {
        run.put_sampled(
            "slo_miss_ratio",
            out.slo_misses as f64 / out.sent.max(1) as f64,
            "ratio",
            out.sent as usize,
            true,
        );
        run.notes.push(format!(
            "bursts {} drew {} sheds, each checked against the harness's own ticket count",
            out.bursts, out.burst_sheds
        ));
    }
    put_rates(run, out.completed, out.window_s, out.cpu_ms, peak_rss_mb);
    Ok(())
}

/// Every eighth wire payload against the in-process reference, after the
/// timed window; a mismatch is a failed operation.
fn check_references(assistant: &mpirical::MpiRical, out: &WireOutcome, run: &mut RunResult) {
    let mismatches = wire::reference_mismatches(assistant, &out.checks);
    for _ in 0..mismatches {
        run.fail("wire payload differs from the in-process reference".to_string());
    }
    run.notes.push(format!(
        "{} wire payloads compared bitwise with the in-process reference, {mismatches} differ",
        out.checks.len()
    ));
}

fn run_verify(args: &Args, seconds: f64, run: &mut RunResult) {
    // Set-up is generating the first block of hypotheses (parse, standardize,
    // strip); later blocks are generated between the timed rounds.
    let setups: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(gen::HypothesisStream::new(args.seed).next_round());
            t.elapsed().as_secs_f64()
        })
        .collect();
    let mut rec = Recorder::new();
    let out = verify::verify_corpus(
        args.seed,
        verify::Rounds::Until(Duration::from_secs_f64(seconds)),
        false,
        &mut rec,
        run,
    );
    run.put("setup_s", median(&setups), "s");
    put_latency(run, &out.latencies_ms);
    put_rates(
        run,
        out.completed,
        out.window_s,
        out.cpu_ms,
        sut::peak_rss_mb(),
    );
    run.notes.extend(verify::confusion_rows(&out));
}

// ---------------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------------

fn put_layers(run: &mut RunResult, layers: &Layers) {
    for (name, unit, _) in PER_LAYER {
        // A layer the workload never enters reports 0.
        run.put(name, layers.get(name).copied().unwrap_or(0.0), unit);
    }
}

fn trace_overhead(traced_ms: &[f64], untraced_ms: &[f64]) -> f64 {
    let base = median(untraced_ms);
    if base == 0.0 {
        0.0
    } else {
        median(traced_ms) / base
    }
}

/// Mean self time of the spans recorded so far, by name: a span's time minus
/// what its children cover, so `request` is what the harness itself added.
fn note_self_times(run: &mut RunResult, rec: &Recorder) {
    for (name, total_us) in self_time_by_name(rec.spans()) {
        let n = durations_us(rec.spans(), &name).len();
        run.notes.push(format!(
            "mean self time of {n} `{name}` spans: {:.3} ms",
            total_us / 1e3 / n as f64
        ));
    }
}

fn write_trace(workload: &str, rec: &Recorder) -> io::Result<()> {
    std::fs::create_dir_all(out_dir())?;
    let json = serde_json::to_string(&rec.spans().to_vec()).map_err(io::Error::from)?;
    std::fs::write(out_dir().join(format!("trace_{workload}.json")), json)
}

fn trace_wire(workload: &str, args: &Args, seconds: f64, run: &mut RunResult) -> io::Result<()> {
    let started = Instant::now();
    let pool = gen::source_pool();
    let profile = Profile::of(args);
    let (daemon, _) = timed_set_up(&pool, profile.warmup)?;
    let assistant = daemon.assistant.clone();
    let mut rec = Recorder::new();
    let mut layers = Layers::new();

    // The idle daemon first: round trip and background CPU.
    let mut client = daemon.connect()?;
    let mut rtt = Vec::new();
    for i in 0..RTT_SAMPLES {
        let span = rec.enter("client.stats", i as u64);
        let t = Instant::now();
        client.stats()?;
        rtt.push(t.elapsed().as_secs_f64() * 1e6);
        rec.exit(span);
    }
    drop(client);
    layers.insert("server.rtt_us", median(&rtt));
    let idle = Duration::from_secs_f64(seconds * IDLE_SHARE);
    let cpu0 = sut::process_cpu_ms();
    std::thread::sleep(idle);
    layers.insert(
        "server.idle_cpu_ms_per_s",
        (sut::process_cpu_ms() - cpu0) / idle.as_secs_f64(),
    );

    // Closed loops replay a count derived from --seconds; the open loop
    // runs for a share of it.
    let (extent, window) = match workload {
        "interactive_retrigger" => (
            Extent::Requests((seconds * TRACED_INTERACTIVE_PER_S).ceil() as u64),
            profile.bulk_window,
        ),
        "bulk_reindex" => (
            Extent::Requests((seconds * TRACED_BULK_PER_S).ceil() as u64),
            wire::TRACED_BULK_WINDOW.min(profile.bulk_window),
        ),
        _ => (
            Extent::For(Duration::from_secs_f64(seconds * TRACED_MIXED_SHARE)),
            profile.bulk_window,
        ),
    };
    let out = wire::run(
        workload, daemon, &pool, args.seed, extent, window, true, &mut rec, run,
    )?;
    check_references(&assistant, &out, run);
    note_self_times(run, &rec);

    // Counts from the daemon's own telemetry (they include the warm-up
    // requests of the set-up, a constant).
    let stats = out.stats.as_ref().expect("finish() snapshots Stats");
    let pool_stats = out.pool.expect("finish() drains");
    for (name, value) in [
        ("model.decode_steps", stats.telemetry.decode_steps as f64),
        (
            "model.queue_wait_steps",
            stats.telemetry.queue_wait_steps as f64,
        ),
        ("model.preemptions", stats.preemptions as f64),
        ("model.evictions", stats.telemetry.evictions as f64),
        ("model.pages_peak", pool_stats.pages_peak as f64),
        ("model.cow_copies", pool_stats.cow_copies as f64),
        ("model.pages_live_after_drain", pool_stats.pages_live as f64),
        ("model.prefix_hit_rate", stats.prefix.hit_rate()),
        ("model.prefix_shared_rows", stats.prefix.shared_rows as f64),
        ("model.prefilled_rows", stats.prefix.prefilled_rows as f64),
        ("server.frames", stats.counters.frames as f64),
        ("server.sheds", stats.counters.sheds as f64),
        ("server.connections", stats.counters.connections as f64),
        ("server.malformed", stats.counters.malformed as f64),
    ] {
        layers.insert(name, value);
    }
    if stats.counters.sheds != out.burst_sheds {
        run.fail(format!(
            "daemon counted {} sheds, the bursts drew {}",
            stats.counters.sheds, out.burst_sheds
        ));
    }
    layers.insert(
        "server.polls_per_request",
        out.polls as f64 / out.polled_requests.max(1) as f64,
    );
    layers.insert(
        "server.first_decoding_p50_ms",
        median(&out.first_decoding_ms),
    );
    if !out.lateness_ms.is_empty() {
        layers.insert(
            "harness.gen_late_p95_ms",
            percentile(&out.lateness_ms, 0.95).value,
        );
    }
    layers.insert(
        "harness.trace_overhead_ratio",
        trace_overhead(&out.traced_ms, &out.untraced_ms),
    );
    let latency_p50 = median(&out.latencies_ms);
    layers.insert("harness.traced_requests", out.latencies_ms.len() as f64);
    layers.insert("harness.traced_latency_p50_ms", latency_p50);

    // In-daemon layers, replayed in-process on the requests just sent; the
    // probes share what is left of --seconds.
    let sources: Vec<String> = out.sources.iter().map(|(s, _)| s.clone()).collect();
    let left = (seconds - started.elapsed().as_secs_f64()).max(seconds * 0.25);
    let mut prober = Prober {
        rec: &mut rec,
        slice: Duration::from_secs_f64(left / 18.0),
    };
    let probed = probes::wire_layers(&mut prober, &assistant, &sources);
    layers.extend(probed);

    // Where the median request's time goes: in-process layer medians, and
    // what no layer accounts for (socket, thread hops, sleeps, stalls).
    let caps: Vec<f64> = out
        .sources
        .iter()
        .map(|(_, cap)| sut::expected_steps(*cap) as f64)
        .collect();
    let steps = median(&caps);
    let step_us = if workload == "bulk_reindex" {
        layers["model.step_f32_b8_us"]
    } else {
        layers["model.step_f32_b1_us"]
    };
    let polls = layers["server.polls_per_request"].max(1.0);
    let shares_ms = [
        (
            "server json + framing",
            (layers["server.json_encode_us"]
                + layers["server.json_decode_us"]
                + layers["server.frame_io_us"])
                * (1.0 + polls)
                / 1e3,
        ),
        ("core.encode_source", layers["core.encode_source_us"] / 1e3),
        (
            "model.encoder_forward",
            layers["model.encoder_forward_us"] / 1e3,
        ),
        (
            "model prefill + decode steps",
            (layers["model.prefill_us"] + (steps - 1.0).max(0.0) * step_us) / 1e3,
        ),
        ("core.extract", layers["core.extract_us"] * polls / 1e3),
    ];
    let attributed: f64 = shares_ms.iter().map(|(_, ms)| ms).sum();
    layers.insert("server.wire_overhead_ms", latency_p50 - attributed);
    for (name, ms) in shares_ms {
        run.notes.push(format!(
            "share of latency_p50 {latency_p50:.3} ms: {name} {ms:.3} ms ({:.1}%)",
            100.0 * ms / latency_p50
        ));
    }
    run.notes.push(format!(
        "share of latency_p50 {latency_p50:.3} ms: unattributed (server.wire_overhead_ms) {:.3} ms ({:.1}%)",
        latency_p50 - attributed,
        100.0 * (latency_p50 - attributed) / latency_p50
    ));
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        run.notes
            .push("model.engine_tok_s_w2 is not meaningful: fewer than 2 cores".to_string());
    }
    layers.insert("harness.spans", rec.spans().len() as f64);
    put_layers(run, &layers);
    write_trace(workload, &rec)
}

fn trace_verify(args: &Args, seconds: f64, run: &mut RunResult) -> io::Result<()> {
    let started = Instant::now();
    let mut rec = Recorder::new();
    let rounds = (seconds / TRACED_SECONDS_PER_ROUND).ceil() as u64;
    let out = verify::verify_corpus(
        args.seed,
        verify::Rounds::Exactly(rounds),
        true,
        &mut rec,
        run,
    );
    note_self_times(run, &rec);
    let mut layers = Layers::new();
    layers.insert(
        "core.verify_splice_us",
        median(&durations_us(rec.spans(), "core.splice_prediction")),
    );
    layers.insert(
        "core.verify_program_us",
        median(&durations_us(rec.spans(), "core.verify_program")),
    );
    layers.insert("core.verify_sim_runs", out.sim_runs as f64);
    layers.insert("harness.trace_overhead_ratio", verify::trace_overhead(&out));
    layers.insert("harness.traced_requests", out.latencies_ms.len() as f64);
    layers.insert("harness.traced_latency_p50_ms", median(&out.latencies_ms));
    let left = (seconds - started.elapsed().as_secs_f64()).max(seconds * 0.25);
    let mut prober = Prober {
        rec: &mut rec,
        slice: Duration::from_secs_f64(left / 8.0),
    };
    layers.extend(probes::verify_layers(&mut prober, &out.sample));
    layers.insert("harness.spans", rec.spans().len() as f64);
    put_layers(run, &layers);
    run.notes.extend(verify::confusion_rows(&out));
    write_trace("verify_corpus", &rec)
}

fn run_one(workload: &str, args: &Args) -> io::Result<bool> {
    let seconds = args.window_seconds();
    let mut run = RunResult::new(workload, args.seed, seconds, args.trace);
    match (workload, args.trace) {
        ("verify_corpus", false) => run_verify(args, seconds, &mut run),
        ("verify_corpus", true) => trace_verify(args, seconds, &mut run)?,
        (_, false) => run_wire(workload, args, seconds, &mut run)?,
        (_, true) => trace_wire(workload, args, seconds, &mut run)?,
    }
    if let Some(path) = &args.out {
        let json = serde_json::to_string(&run).map_err(io::Error::from)?;
        std::fs::write(path, json)?;
    }
    run.print_lines();
    println!("{}", run.contract_line());
    Ok(run.failed == 0)
}

// ---------------------------------------------------------------------------
// The whole ledger
// ---------------------------------------------------------------------------

fn child_run(
    workload: &str,
    args: &Args,
    seconds: f64,
    trace: bool,
    tag: &str,
) -> io::Result<RunResult> {
    let out = out_dir().join(format!("run_{workload}_{tag}.json"));
    let status = Command::new(std::env::current_exe()?)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .args(args.smoke.then_some("--smoke"))
        .status()?;
    let text = std::fs::read_to_string(&out).map_err(|e| {
        io::Error::other(format!(
            "{workload} ({tag}) exited with {status} and left no result: {e}"
        ))
    })?;
    std::fs::remove_file(&out)?;
    serde_json::from_str(&text).map_err(io::Error::from)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(args: &Args, seconds: f64, runs: usize) -> Provenance {
    let cfg = sut::model_config();
    let server = mpirical_server::ServerConfig::default();
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name").map(str::to_string))
        })
        .map_or_else(
            || "unknown".to_string(),
            |l| l.trim_start_matches([' ', '\t', ':']).to_string(),
        );
    let features: Vec<&str> = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("avx512vnni", cfg!(target_feature = "avx512vnni")),
    ]
    .iter()
    .filter(|(_, on)| *on)
    .map(|(name, _)| *name)
    .collect();
    Provenance {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model,
        rustflags: env!("LEDGER_RUSTFLAGS").to_string(),
        target_features: features.join(","),
        rustc: env!("LEDGER_RUSTC").to_string(),
        git_rev: command_line("git", &["rev-parse", "--short", "HEAD"]),
        seed: args.seed,
        seconds,
        runs_per_workload: runs,
        precision: "f32".to_string(),
        beam: 1,
        workers: server.workers,
        pending_budget: server.pending_budget,
        model_shape: format!(
            "untrained, seed {:#x}: d_model {} heads {} d_ff {} layers {}+{} vocab {} max_enc_len {} max_dec_len {} min_len {}",
            sut::MODEL_SEED,
            cfg.d_model,
            cfg.n_heads,
            cfg.d_ff,
            cfg.n_enc_layers,
            cfg.n_dec_layers,
            sut::VOCAB_SIZE,
            cfg.max_enc_len,
            cfg.max_dec_len,
            cfg.max_dec_len
        ),
        workload_constants: vec![
            format!("source pool = 11 benchmark programs + corpus(programs {}, seed {:#x})", gen::CORPUS_PROGRAMS, gen::CORPUS_SEED),
            format!("warm-up requests per set-up = {}", sut::WARMUP_REQUESTS),
            format!("set-ups per untraced run = {SETUP_REPEATS}"),
            format!("interactive caps = {:?}, keystrokes per file = {}, shares = 50% clean edit / 25% mid-edit / 25% resubmission", gen::CAPS, gen::KEYS_PER_FILE),
            format!("bulk window = {} tickets (traced replay {})", wire::BULK_WINDOW, wire::TRACED_BULK_WINDOW),
            format!("mixed: interactive rate = {}/s (one arrival per slot, uniform in its first half), SLO = {} ms, burst = {} submits every {} s", wire::INTERACTIVE_RATE_PER_S, wire::SLO.as_millis(), wire::BURST_SUBMITS, wire::BURST_PERIOD.as_secs()),
            format!("verify: {} pairs per block ({} reference variants x 11, {} variants x 5 fault classes, {} deadlock), {} rounds per block (repeat share {}/{})", gen::PAIRS_PER_BLOCK, gen::REFERENCE_VARIANTS, gen::FAULT_VARIANTS, gen::DEADLOCK_PAIRS_PER_BLOCK, gen::ROUNDS_PER_BLOCK, gen::ROUNDS_PER_BLOCK - 1, gen::ROUNDS_PER_BLOCK),
            format!("reference check = every {}th request", wire::CHECK_EVERY),
            format!("traced replay sizes per second of --seconds: interactive {TRACED_INTERACTIVE_PER_S}, bulk {TRACED_BULK_PER_S}, verify 1 round per {TRACED_SECONDS_PER_ROUND} s, mixed {TRACED_MIXED_SHARE} of the window"),
        ],
        assumptions: vec![format!(
            "deadlock share of the hypothesis stream ({} pair in {}) is an assumption about a trained model's output, not a measurement",
            gen::DEADLOCK_PAIRS_PER_BLOCK,
            gen::PAIRS_PER_BLOCK
        )],
    }
}

fn run_ledger(args: &Args) -> io::Result<bool> {
    let seconds = args.window_seconds();
    let runs = if args.smoke { 1 } else { LEDGER_RUNS };
    std::fs::create_dir_all(out_dir())?;
    let mut ledger = Ledger {
        claim: None,
        provenance: provenance(args, seconds, runs),
        workloads: BTreeMap::new(),
    };
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        let mut untraced = Vec::new();
        for k in 0..runs {
            untraced.push(child_run(
                workload,
                args,
                seconds,
                false,
                &format!("e2e{k}"),
            )?);
        }
        let traced = child_run(workload, args, seconds, true, "traced")?;
        let entry = fold_runs(&untraced, Some(&traced));
        ok &= entry.correct;
        ledger.workloads.insert(workload.to_string(), entry);
    }
    let name = if args.smoke {
        "smoke.json"
    } else {
        "results.json"
    };
    let json = serde_json::to_string(&ledger).map_err(io::Error::from)?;
    std::fs::write(out_dir().join(name), pretty_json(&json))?;
    println!("wrote {}", out_dir().join(name).display());
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{Better, Bound, END_TO_END};
    use serde::Deserialize;

    #[derive(Deserialize)]
    struct Named {
        name: String,
        why: String,
    }

    #[derive(Deserialize)]
    struct Bounded {
        name: String,
        unit: String,
        better: String,
        bound: f64,
    }

    #[derive(Deserialize)]
    struct Layer {
        name: String,
        unit: String,
        better: String,
    }

    #[derive(Deserialize)]
    struct Contract {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<Named>,
        end_to_end: Vec<Bounded>,
        per_layer: Vec<Layer>,
    }

    /// `BENCHMARK.json` is the contract's projection of the metric tables.
    #[test]
    fn benchmark_json_agrees_with_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let contract: Contract =
            serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"))
                .expect("BENCHMARK.json has the contract's shape");
        assert_eq!(contract.command, ["bash", "benchmark/run.sh"]);
        assert_eq!(contract.paths, ["benchmark"]);
        assert!((1..=60).contains(&contract.run_seconds));
        let names: Vec<(&str, &str)> = contract
            .workloads
            .iter()
            .map(|w| (w.name.as_str(), w.why.as_str()))
            .collect();
        assert_eq!(names, WORKLOADS);
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let table: Vec<_> = END_TO_END.iter().filter(|m| m.contract).collect();
        assert_eq!(contract.end_to_end.len(), table.len());
        for (json, def) in contract.end_to_end.iter().zip(table) {
            assert_eq!(json.name, def.name);
            assert_eq!(json.unit, def.unit);
            assert_eq!(json.better, def.better.as_str());
            assert_eq!(Bound::Relative(json.bound), def.bound);
            assert!(json.bound <= 0.25);
        }
        assert_eq!(contract.per_layer.len(), PER_LAYER.len());
        for (json, (name, unit, better)) in contract.per_layer.iter().zip(PER_LAYER) {
            assert_eq!(json.name, name);
            assert_eq!(json.unit, unit);
            assert_eq!(json.better, better.as_str());
            assert!(name.len() <= 64 && unit.len() <= 16);
        }
        assert_eq!(Better::Lower.as_str(), "lower");
    }

    #[test]
    fn driver_arguments_parse() {
        let argv: Vec<String> = "--workload bulk_reindex --seed 7 --seconds 20 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse_args(&argv).expect("contract arguments");
        assert_eq!(args.workload.as_deref(), Some("bulk_reindex"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, Some(20.0), true));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert_eq!(parse_args(&[]).expect("defaults").seed, DEFAULT_SEED);
    }
}
