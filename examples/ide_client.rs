//! An editor-side client session against a running `serve` daemon.
//!
//! Start the daemon in one terminal:
//!
//! ```text
//! cargo run --release -p mpirical-server --bin serve -- --demo
//! ```
//!
//! then run this example in another:
//!
//! ```text
//! cargo run --release -p mpirical-server --example ide_client
//! cargo run --release -p mpirical-server --example ide_client -- 127.0.0.1:7117 --drain
//! ```
//!
//! It plays the IDE's part: a background bulk re-index job, a
//! keystroke-triggered interactive request streamed token by token, a
//! cancellation, and a final `Stats` snapshot (plus `--drain` to shut the
//! daemon down gracefully). Every request prints its wall-clock
//! submit → `Done` time, and the session ends with the round trip of a
//! `Stats` call — what the editor's user feels, without the perf ledger.

use mpirical_server::{Client, SubmitOptions, Submitted, SuggestPoll};
use std::time::{Duration, Instant};

fn main() -> std::io::Result<()> {
    let mut addr = "127.0.0.1:7117".to_string();
    let mut drain = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--drain" => drain = true,
            other => addr = other.to_string(),
        }
    }

    let mut client = Client::connect(&addr)?;
    println!("connected to {addr}");

    // A background job the editor runs while the user types.
    let reindex_sent = Instant::now();
    let reindex = submit(
        &mut client,
        "int main() { double local = 0.0; return 0; }",
        SubmitOptions::bulk(),
    )?;

    // The keystroke request: interactive class, streamed while decoding.
    let keystroke_sent = Instant::now();
    let keystroke = submit(
        &mut client,
        "int main() { int rank; return 0; }",
        SubmitOptions::interactive(),
    )?;
    loop {
        match client.poll(keystroke)? {
            SuggestPoll::Queued { position } => {
                println!("keystroke: queued at position {position}");
            }
            SuggestPoll::Decoding { partial } => {
                println!(
                    "keystroke: decoding, {} suggestion(s) so far",
                    partial.len()
                );
            }
            SuggestPoll::Done {
                suggestions,
                telemetry,
                health,
                ..
            } => {
                for s in &suggestions {
                    println!("  insert {} at line {}", s.function, s.line);
                }
                println!(
                    "keystroke: done {:.1} ms after submit, {} decode steps ({} queue-wait), parse {}",
                    keystroke_sent.elapsed().as_secs_f64() * 1e3,
                    telemetry.decode_steps,
                    telemetry.queue_wait_steps,
                    if health.is_clean() {
                        "clean"
                    } else {
                        "degraded"
                    },
                );
                break;
            }
            other => {
                println!("keystroke: {other:?}");
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    // The editor closed the re-indexed file: stop paying for it.
    let was_pending = client.cancel(reindex)?;
    println!("re-index cancel landed on live work: {was_pending}");
    match client.wait(reindex)? {
        SuggestPoll::Cancelled => println!("re-index: cancelled"),
        SuggestPoll::Done { suggestions, .. } => {
            println!(
                "re-index: finished first ({} suggestions), done {:.1} ms after submit",
                suggestions.len(),
                reindex_sent.elapsed().as_secs_f64() * 1e3
            );
        }
        other => println!("re-index: {other:?}"),
    }

    let stats_sent = Instant::now();
    let stats = client.stats()?;
    println!(
        "stats round trip: {:.3} ms",
        stats_sent.elapsed().as_secs_f64() * 1e3
    );
    println!(
        "stats: {} workers, {} pending, pool live/peak {}/{} pages, prefix hit rate {:.2}, \
         {} conns / {} frames / {} sheds / {} malformed",
        stats.workers,
        stats.pending,
        stats.pool.pages_live,
        stats.pool.pages_peak,
        stats.prefix.hit_rate(),
        stats.counters.connections,
        stats.counters.frames,
        stats.counters.sheds,
        stats.counters.malformed,
    );

    if drain {
        let pool = client.drain()?;
        println!("drained: {} live pages (must be 0)", pool.pages_live);
    }
    Ok(())
}

fn submit(client: &mut Client, source: &str, options: SubmitOptions) -> std::io::Result<u64> {
    match client.submit_with(source, options)? {
        Submitted::Ticket(id) => Ok(id),
        Submitted::Busy { retry_after_steps } => Err(std::io::Error::other(format!(
            "daemon is shedding load (retry after ~{retry_after_steps} steps)"
        ))),
        Submitted::Rejected { reason } => Err(std::io::Error::other(reason)),
    }
}
