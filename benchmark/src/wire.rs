//! The three wire workloads. One harness thread drives the daemon through
//! the shipped blocking `Client` over at most two connections, so every count
//! the harness keeps (outstanding tickets, expected sheds) is exact.

use crate::gen::{arrival_schedule, lateness, FileStream, Keystroke, KeystrokeStream};
use crate::report::RunResult;
use crate::spans::Recorder;
use crate::sut::{expected_steps, process_cpu_ms, Daemon};
use mpirical::cparse::ParseHealth;
use mpirical::{MpiRical, PoolStats, SubmitOptions, SuggestPoll, SuggestService, Suggestion};
use mpirical_server::{Client, ServerConfig, ServerStats, Submitted};
use std::collections::VecDeque;
use std::io;
use std::time::{Duration, Instant};

/// Unredeemed Bulk tickets `bulk_reindex` and `mixed_overload` keep in
/// flight: under the daemon's budget of 64, so a full window sheds nothing.
pub const BULK_WINDOW: usize = 56;
/// Window of the traced quarter-size replay.
pub const TRACED_BULK_WINDOW: usize = BULK_WINDOW / 4;
/// `mixed_overload`: Interactive arrivals per second. A request holds the
/// generator's one thread for about 150 ms, so 4/s keeps it 60 % busy with
/// Interactive work; at 6/s it would be 90 % busy and the tail would not
/// settle inside a run.
pub const INTERACTIVE_RATE_PER_S: f64 = 4.0;
/// `mixed_overload`: a burst of unpolled Bulk submits past the budget...
pub const BURST_SUBMITS: usize = 16;
/// ...every this often, the first one half a period in.
pub const BURST_PERIOD: Duration = Duration::from_secs(6);
/// `mixed_overload`: an Interactive request misses its SLO when it is not
/// `Done` within this long of the instant it was due.
pub const SLO: Duration = Duration::from_millis(400);
/// Every n-th completed request is compared with the in-process reference.
pub const CHECK_EVERY: u64 = 8;

/// A finished wire request kept for the post-window reference comparison.
pub struct Check {
    pub source: String,
    pub options: SubmitOptions,
    pub payload: String,
}

/// What a wire workload measured (the caller turns it into metrics).
#[derive(Default)]
pub struct WireOutcome {
    /// Submit (or due time) → `Done` redeemed, ms, class of interest.
    pub latencies_ms: Vec<f64>,
    /// The same, split by whether the request was traced (traced pass only).
    pub traced_ms: Vec<f64>,
    pub untraced_ms: Vec<f64>,
    /// Generated tokens of requests completed inside the timed window.
    pub tokens: u64,
    /// Requests (all classes) completed inside the timed window.
    pub completed: u64,
    pub window_s: f64,
    pub cpu_ms: f64,
    /// Untimed time spent filling the Bulk window before the clock started.
    pub fill_s: f64,
    /// `mixed_overload`: Interactive requests sent / not `Done` within the SLO.
    pub sent: u64,
    pub slo_misses: u64,
    pub lateness_ms: Vec<f64>,
    /// Traced requests only: polls issued and submit → first progress.
    pub polls: u64,
    pub polled_requests: u64,
    pub first_decoding_ms: Vec<f64>,
    /// Bursts fired and sheds they drew (all expected, all checked).
    pub bursts: u64,
    pub burst_sheds: u64,
    pub checks: Vec<Check>,
    /// Source and cap (`None`: uncapped) of the requests sent in a traced run,
    /// for the in-process layer replay.
    pub sources: Vec<(String, Option<usize>)>,
    pub stats: Option<ServerStats>,
    pub pool: Option<PoolStats>,
}

/// What the harness knows a request's `Done` must look like.
struct Expect<'a> {
    source: &'a str,
    options: SubmitOptions,
    /// The buffer is missing a parenthesis: recovery must be reported.
    unbalanced: bool,
    /// Closed loop: `decode_steps` is exactly what the cap implies. Under
    /// preemption and eviction (mixed) replayed steps count again.
    exact_steps: bool,
}

struct Driver<'a> {
    rec: &'a mut Recorder,
    run: &'a mut RunResult,
    /// Traced pass: every second request records spans and polls through the
    /// instrumented replica of `Client::wait`; the others use the shipped
    /// call, so the two halves give the tracing overhead on equal terms.
    tracing: bool,
    issued: u64,
    out: WireOutcome,
}

/// The bitwise-comparison payload of `tests/server_daemon.rs`: suggestions and
/// parse health, serialized (scheduling telemetry depends on interleaving).
fn done_payload(suggestions: &[Suggestion], health: &ParseHealth) -> String {
    serde_json::to_string(&(suggestions.to_vec(), health.clone())).expect("payload serializes")
}

impl Driver<'_> {
    fn next_request(&mut self) -> (u64, bool) {
        let id = self.issued;
        self.issued += 1;
        self.run.attempted += 1;
        (id, self.tracing && id % 2 == 1)
    }

    fn submit(
        &mut self,
        client: &mut Client,
        (req, traced): (u64, bool),
        source: &str,
        options: SubmitOptions,
    ) -> io::Result<Submitted> {
        self.rec.scope_if(traced, "client.submit", req, || {
            client.submit_with(source, options)
        })
    }

    /// Block until the ticket is terminal. Untraced: the shipped
    /// `Client::wait`. Traced: the same cadence (poll, sleep 1 ms) with a span
    /// around every call and sleep.
    fn wait(
        &mut self,
        client: &mut Client,
        (req, traced): (u64, bool),
        id: u64,
        submitted: Instant,
    ) -> io::Result<SuggestPoll> {
        if !traced {
            return client.wait(id);
        }
        self.out.polled_requests += 1;
        let mut first_progress = None;
        loop {
            self.out.polls += 1;
            let state = self
                .rec
                .scope_if(true, "client.poll", req, || client.poll(id))?;
            let pending = matches!(
                state,
                SuggestPoll::Queued { .. } | SuggestPoll::Decoding { .. }
            );
            if first_progress.is_none() && !matches!(state, SuggestPoll::Queued { .. }) {
                first_progress = Some(submitted.elapsed());
            }
            if !pending {
                if let Some(t) = first_progress {
                    self.out.first_decoding_ms.push(t.as_secs_f64() * 1e3);
                }
                return Ok(state);
            }
            self.rec.scope_if(true, "client.sleep", req, || {
                std::thread::sleep(Duration::from_millis(1))
            });
        }
    }

    /// Validate a terminal state against what the request must produce.
    /// Returns the generated-token count when the request succeeded.
    fn accept(&mut self, req: u64, state: SuggestPoll, expect: &Expect) -> Option<u64> {
        let SuggestPoll::Done {
            suggestions,
            telemetry,
            health,
            ..
        } = state
        else {
            self.run.fail(format!("request {req}: not Done: {state:?}"));
            return None;
        };
        let steps = expected_steps(expect.options.max_new_tokens);
        let steps_ok = if expect.exact_steps {
            telemetry.decode_steps == steps
        } else {
            telemetry.decode_steps >= steps
        };
        if !steps_ok {
            self.run.fail(format!(
                "request {req}: {} decode steps, cap implies {steps}",
                telemetry.decode_steps
            ));
            return None;
        }
        if expect.unbalanced != (health.recovery_events > 0) {
            self.run.fail(format!(
                "request {req}: unbalanced={} but parse health is {health:?}",
                expect.unbalanced
            ));
            return None;
        }
        if req.is_multiple_of(CHECK_EVERY) {
            self.out.checks.push(Check {
                source: expect.source.to_string(),
                options: expect.options,
                payload: done_payload(&suggestions, &health),
            });
        }
        // `Done` carries no ids; the cap-determined step count is the
        // generated length (checked above).
        Some(steps)
    }

    /// One Interactive request start to finish, timed from `clock`.
    fn interactive(
        &mut self,
        client: &mut Client,
        key: &Keystroke,
        clock: Instant,
        exact_steps: bool,
    ) -> io::Result<Option<(f64, u64)>> {
        let request = self.next_request();
        let options = SubmitOptions::interactive().with_max_new_tokens(key.cap);
        let expect = Expect {
            source: &key.source,
            options,
            unbalanced: key.unbalanced,
            exact_steps,
        };
        let span = request.1.then(|| self.rec.enter("request", request.0));
        let submitted = Instant::now();
        let outcome = match self.submit(client, request, &key.source, options)? {
            Submitted::Ticket(id) => {
                let state = self.wait(client, request, id, submitted)?;
                let latency_ms = clock.elapsed().as_secs_f64() * 1e3;
                self.accept(request.0, state, &expect)
                    .map(|tokens| (latency_ms, tokens))
            }
            other => {
                self.run
                    .fail(format!("request {}: not admitted: {other:?}", request.0));
                None
            }
        };
        if let Some(span) = span {
            self.rec.exit(span);
        }
        if self.tracing {
            self.out.sources.push((key.source.clone(), Some(key.cap)));
        }
        if let Some((latency_ms, _)) = outcome {
            self.record_latency(request.1, latency_ms);
        }
        Ok(outcome)
    }

    fn record_latency(&mut self, traced: bool, latency_ms: f64) {
        self.out.latencies_ms.push(latency_ms);
        if self.tracing {
            let half = if traced {
                &mut self.out.traced_ms
            } else {
                &mut self.out.untraced_ms
            };
            half.push(latency_ms);
        }
    }
}

/// Compare the stashed wire payloads with the in-process reference: the
/// inline single-scheduler `SuggestService` (the reference of
/// `tests/server_daemon.rs`; `suggest_report` cannot take a token cap).
/// Returns the number of mismatches. Runs after the timed window.
pub fn reference_mismatches(assistant: &MpiRical, checks: &[Check]) -> usize {
    let mut service = SuggestService::new(assistant);
    let ids: Vec<_> = checks
        .iter()
        .map(|c| service.submit_with(&c.source, c.options))
        .collect();
    service.run();
    ids.into_iter()
        .zip(checks)
        .filter(|(id, check)| match service.poll(*id) {
            SuggestPoll::Done {
                suggestions,
                health,
                ..
            } => done_payload(&suggestions, &health) != check.payload,
            _ => true,
        })
        .count()
}

/// How long a workload runs: for a time (untraced pass, open loop) or for a
/// fixed number of requests (traced closed-loop replay, so that its counts
/// repeat exactly).
#[derive(Debug, Clone, Copy)]
pub enum Extent {
    For(Duration),
    Requests(u64),
}

impl Extent {
    fn done(self, started: Instant, completed: u64) -> bool {
        match self {
            Extent::For(d) => started.elapsed() >= d,
            Extent::Requests(n) => completed >= n,
        }
    }
}

/// Shared tail of every wire workload: final `Stats`, graceful drain.
fn finish(
    daemon: Daemon,
    mut client: Client,
    run: &mut RunResult,
    mut out: WireOutcome,
) -> io::Result<WireOutcome> {
    out.stats = Some(client.stats()?);
    run.attempted += 1;
    let pool = daemon.tear_down(client)?;
    if pool.pages_live != 0 {
        run.fail(format!("drain left {} KV pages live", pool.pages_live));
    }
    out.pool = Some(pool);
    Ok(out)
}

/// Run the named wire workload against `daemon` (which it tears down).
/// `window_size` is the Bulk window, unused by `interactive_retrigger`.
#[allow(clippy::too_many_arguments)]
pub fn run(
    workload: &str,
    daemon: Daemon,
    pool: &[String],
    seed: u64,
    extent: Extent,
    window_size: usize,
    tracing: bool,
    rec: &mut Recorder,
    run: &mut RunResult,
) -> io::Result<WireOutcome> {
    match workload {
        "interactive_retrigger" => {
            interactive_retrigger(daemon, pool, seed, extent, tracing, rec, run)
        }
        "bulk_reindex" => bulk_reindex(daemon, pool, seed, extent, window_size, tracing, rec, run),
        "mixed_overload" => {
            let Extent::For(duration) = extent else {
                unreachable!("the open loop runs for a time, not a count");
            };
            mixed_overload(daemon, pool, seed, duration, window_size, tracing, rec, run)
        }
        other => unreachable!("`{other}` is not a wire workload"),
    }
}

/// `interactive_retrigger`: closed loop, one client, one request at a time.
fn interactive_retrigger(
    daemon: Daemon,
    pool: &[String],
    seed: u64,
    extent: Extent,
    tracing: bool,
    rec: &mut Recorder,
    run: &mut RunResult,
) -> io::Result<WireOutcome> {
    let mut client = daemon.connect()?;
    let mut stream = KeystrokeStream::new(pool, seed);
    let mut d = Driver {
        rec,
        run,
        tracing,
        issued: 0,
        out: WireOutcome::default(),
    };
    let cpu0 = process_cpu_ms();
    let started = Instant::now();
    while !extent.done(started, d.out.completed) {
        let key = stream.next().expect("endless stream");
        if let Some((_, tokens)) = d.interactive(&mut client, &key, Instant::now(), true)? {
            d.out.tokens += tokens;
        }
        d.out.completed += 1;
    }
    d.out.window_s = started.elapsed().as_secs_f64();
    d.out.cpu_ms = process_cpu_ms() - cpu0;
    let out = d.out;
    finish(daemon, client, run, out)
}

/// A Bulk ticket in flight.
struct Ticket {
    request: (u64, bool),
    id: u64,
    source: String,
    submitted: Instant,
}

impl Driver<'_> {
    /// Submit one uncapped Bulk file; `Ok(None)` when the daemon shed it.
    fn bulk_submit(&mut self, client: &mut Client, source: String) -> io::Result<Option<Ticket>> {
        let request = self.next_request();
        let submitted = Instant::now();
        match self.submit(client, request, &source, SubmitOptions::bulk())? {
            Submitted::Ticket(id) => Ok(Some(Ticket {
                request,
                id,
                source,
                submitted,
            })),
            Submitted::Busy { .. } => Ok(None),
            other => {
                self.run
                    .fail(format!("request {}: refused: {other:?}", request.0));
                Ok(None)
            }
        }
    }

    /// Fill the Bulk window before the clock starts; records the fill time.
    fn fill(
        &mut self,
        client: &mut Client,
        files: &mut FileStream,
        size: usize,
    ) -> io::Result<VecDeque<Ticket>> {
        let mut window = VecDeque::new();
        let started = Instant::now();
        while window.len() < size {
            match self.bulk_submit(client, files.next().expect("endless"))? {
                Some(t) => window.push_back(t),
                None => self
                    .run
                    .fail("shed while filling a window under the budget".to_string()),
            }
        }
        self.out.fill_s = started.elapsed().as_secs_f64();
        Ok(window)
    }

    /// Validate a redeemed Bulk ticket; returns `(latency_ms, tokens)`.
    fn bulk_accept(
        &mut self,
        ticket: &Ticket,
        state: SuggestPoll,
        exact: bool,
    ) -> Option<(f64, u64)> {
        let latency_ms = ticket.submitted.elapsed().as_secs_f64() * 1e3;
        let expect = Expect {
            source: &ticket.source,
            options: SubmitOptions::bulk(),
            unbalanced: false,
            exact_steps: exact,
        };
        self.accept(ticket.request.0, state, &expect)
            .map(|tokens| (latency_ms, tokens))
    }
}

/// `bulk_reindex`: closed loop, one client, a sliding window of unredeemed
/// tickets. The window is filled before the clock starts, so the timed window
/// sees the steady state: redeem the oldest, submit the next.
#[allow(clippy::too_many_arguments)]
fn bulk_reindex(
    daemon: Daemon,
    pool: &[String],
    seed: u64,
    extent: Extent,
    window_size: usize,
    tracing: bool,
    rec: &mut Recorder,
    run: &mut RunResult,
) -> io::Result<WireOutcome> {
    let mut client = daemon.connect()?;
    let mut files = FileStream::new(pool, seed);
    let mut d = Driver {
        rec,
        run,
        tracing,
        issued: 0,
        out: WireOutcome::default(),
    };
    let mut window = d.fill(&mut client, &mut files, window_size)?;

    let cpu0 = process_cpu_ms();
    let started = Instant::now();
    while !extent.done(started, d.out.completed) {
        let ticket = window.pop_front().expect("window is full");
        let state = d.wait(&mut client, ticket.request, ticket.id, ticket.submitted)?;
        if let Some((latency_ms, tokens)) = d.bulk_accept(&ticket, state, true) {
            d.record_latency(ticket.request.1, latency_ms);
            d.out.tokens += tokens;
        }
        d.out.completed += 1;
        if d.tracing {
            d.out.sources.push((ticket.source, None));
        }
        match d.bulk_submit(&mut client, files.next().expect("endless"))? {
            Some(t) => window.push_back(t),
            None => d
                .run
                .fail("shed with the window under the budget".to_string()),
        }
    }
    d.out.window_s = started.elapsed().as_secs_f64();
    d.out.cpu_ms = process_cpu_ms() - cpu0;
    // The tickets still in flight are finished by the drain, not redeemed.
    let out = d.out;
    finish(daemon, client, run, out)
}

/// `mixed_overload`: open loop. Connection A carries Interactive arrivals on
/// a seeded schedule, each timed from the instant it was due;
/// connection B keeps the Bulk window full and fires the bursts. One thread
/// serves both, Interactive first, so an arrival waits for at most the Bulk
/// call in progress — and for its own predecessors.
#[allow(clippy::too_many_arguments)]
fn mixed_overload(
    daemon: Daemon,
    pool: &[String],
    seed: u64,
    duration: Duration,
    window_size: usize,
    tracing: bool,
    rec: &mut Recorder,
    run: &mut RunResult,
) -> io::Result<WireOutcome> {
    let budget = ServerConfig::default().pending_budget;
    let mut a = daemon.connect()?;
    let mut b = daemon.connect()?;
    let mut keys = KeystrokeStream::new(pool, seed);
    let mut files = FileStream::new(pool, seed);
    let due = arrival_schedule(INTERACTIVE_RATE_PER_S, duration, seed);
    let mut d = Driver {
        rec,
        run,
        tracing,
        issued: 0,
        out: WireOutcome::default(),
    };
    let mut window = d.fill(&mut b, &mut files, window_size)?;

    let cpu0 = process_cpu_ms();
    let started = Instant::now();
    let mut next_arrival = 0;
    let mut next_burst = BURST_PERIOD / 2;
    let mut burst_left = 0;
    loop {
        let now = started.elapsed();
        if next_arrival == due.len() && now >= duration {
            break;
        }
        if now >= next_burst && next_burst < duration {
            burst_left += BURST_SUBMITS;
            next_burst += BURST_PERIOD;
            d.out.bursts += 1;
        }
        if next_arrival < due.len() && due[next_arrival] <= now {
            // Interactive first. The harness holds every unredeemed ticket,
            // so it knows when the budget is full and redeems a Bulk ticket
            // rather than sending a request that must be shed.
            while window.len() >= budget {
                let ticket = window.pop_front().expect("non-empty");
                let state = d.wait(&mut b, ticket.request, ticket.id, ticket.submitted)?;
                if let Some((_, tokens)) = d.bulk_accept(&ticket, state, false) {
                    d.out.tokens += tokens;
                }
                d.out.completed += 1;
            }
            let due_at = started + due[next_arrival];
            let sent = started.elapsed();
            d.out
                .lateness_ms
                .push(lateness(due[next_arrival], sent).as_secs_f64() * 1e3);
            next_arrival += 1;
            d.out.sent += 1;
            let key = keys.next().expect("endless");
            match d.interactive(&mut a, &key, due_at, false)? {
                Some((latency_ms, tokens)) => {
                    d.out.tokens += tokens;
                    if latency_ms > SLO.as_secs_f64() * 1e3 {
                        d.out.slo_misses += 1;
                    }
                }
                None => d.out.slo_misses += 1,
            }
            d.out.completed += 1;
            continue;
        }
        if burst_left > 0 {
            // Unpolled submits past the budget: admitted while a slot is
            // free, shed — exactly — once the budget is full.
            burst_left -= 1;
            let must_shed = window.len() >= budget;
            match d.bulk_submit(&mut b, files.next().expect("endless"))? {
                Some(t) => {
                    if must_shed {
                        d.run
                            .fail("burst submit admitted past the budget".to_string());
                    }
                    window.push_back(t);
                }
                None => {
                    d.out.burst_sheds += 1;
                    if !must_shed {
                        d.run.fail("burst submit shed under the budget".to_string());
                    }
                }
            }
            continue;
        }
        if window.len() < window_size {
            match d.bulk_submit(&mut b, files.next().expect("endless"))? {
                Some(t) => window.push_back(t),
                None => d
                    .run
                    .fail("shed with the window under the budget".to_string()),
            }
            continue;
        }
        // Window full: one poll of the oldest ticket (never a blocking wait,
        // which would hold up the next Interactive arrival).
        let oldest = window.front().expect("window is full");
        let traced = oldest.request.1;
        let (req, id) = (oldest.request.0, oldest.id);
        let state = d.rec.scope_if(traced, "client.poll", req, || b.poll(id))?;
        if !matches!(
            state,
            SuggestPoll::Queued { .. } | SuggestPoll::Decoding { .. }
        ) {
            let ticket = window.pop_front().expect("window is full");
            if let Some((_, tokens)) = d.bulk_accept(&ticket, state, false) {
                d.out.tokens += tokens;
            }
            d.out.completed += 1;
        }
    }
    d.out.window_s = started.elapsed().as_secs_f64();
    d.out.cpu_ms = process_cpu_ms() - cpu0;
    drop(a);
    let out = d.out;
    finish(daemon, b, run, out)
}
