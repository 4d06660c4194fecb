//! The ledger's metric tables — the single source of truth `BENCHMARK.json`,
//! the printed lines, `results.json` and `ledger diff` all agree with (a unit
//! test pins `BENCHMARK.json` to these tables).

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a regression bound is read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the baseline value.
    Relative(f64),
    /// Absolute difference (for ratios whose healthy value is 0).
    Absolute(f64),
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// Reported by every workload and never 0, so part of the `BENCHMARK.json`
    /// contract. The others exist on some workloads only (`throughput_tok_s`:
    /// wire; `slo_miss_ratio`: `mixed_overload`) or are 0 when healthy
    /// (`failed_ratio`, which the contract carries as `failed`/`attempted`);
    /// they appear in the printed lines and `results.json`.
    pub contract: bool,
}

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "interactive_retrigger",
        "closed loop, 1 client, capped keystroke requests: front-end, encoder forward, batch-1 decode and the wire/polling floor do the work; scheduler, batching and verify do none",
    ),
    (
        "bulk_reindex",
        "closed loop, 1 client, 56-ticket window of uncapped Bulk files: batch decode and 2-worker sharding behind the wire; per-request wire latency is amortised",
    ),
    (
        "mixed_overload",
        "open loop: Interactive arrivals at 4/s timed from the instant they were due, beside a full Bulk window and 16-submit bursts past the budget: preemption, admission control and shedding act only here",
    ),
    (
        "verify_corpus",
        "closed loop, in-process verify_prediction over reference splices, five fault classes and rare deadlocks, each pair thrice: cinterp and mpisim, which the wire workloads bypass",
    ),
];

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Relative(0.25),
        contract: true,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Relative(0.25),
        contract: true,
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Relative(0.25),
        contract: true,
    },
    EndToEnd {
        name: "throughput_req_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound::Relative(0.25),
        contract: true,
    },
    EndToEnd {
        name: "cpu_ms_per_req",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Relative(0.20),
        contract: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: Bound::Relative(0.10),
        contract: true,
    },
    EndToEnd {
        name: "throughput_tok_s",
        unit: "tok/s",
        better: Better::Higher,
        bound: Bound::Relative(0.25),
        contract: false,
    },
    EndToEnd {
        name: "slo_miss_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: Bound::Absolute(0.02),
        contract: false,
    },
    EndToEnd {
        name: "failed_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: Bound::Absolute(0.0),
        contract: false,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Per-layer metrics `(name, unit, better)`, layer = crate. Every traced run
/// reports every one of them; a layer a workload never enters reports 0.
pub const PER_LAYER: [(&str, &str, Better); 58] = [
    ("cparse.lex_us", "us", Better::Lower),
    ("cparse.parse_tolerant_us", "us", Better::Lower),
    ("cparse.print_us", "us", Better::Lower),
    ("cparse.recovery_events", "count", Better::Lower),
    ("xsbt.linearize_us", "us", Better::Lower),
    ("xsbt.tokens", "count", Better::Lower),
    ("core.tokenize_us", "us", Better::Lower),
    ("core.encode_source_us", "us", Better::Lower),
    ("core.enc_ids", "count", Better::Lower),
    ("core.extract_us", "us", Better::Lower),
    ("model.encoder_forward_us", "us", Better::Lower),
    ("model.prefill_us", "us", Better::Lower),
    ("model.step_f32_b1_us", "us", Better::Lower),
    ("model.step_f32_b8_us", "us", Better::Lower),
    ("model.step_int8_b1_us", "us", Better::Lower),
    ("model.step_int8_b8_us", "us", Better::Lower),
    ("model.engine_tok_s_w1", "tok/s", Better::Higher),
    ("model.engine_tok_s_w2", "tok/s", Better::Higher),
    ("model.decode_steps", "count", Better::Lower),
    ("model.queue_wait_steps", "count", Better::Lower),
    ("model.preemptions", "count", Better::Lower),
    ("model.evictions", "count", Better::Lower),
    ("model.pages_peak", "count", Better::Lower),
    ("model.cow_copies", "count", Better::Lower),
    ("model.pages_live_after_drain", "count", Better::Lower),
    ("model.prefix_hit_rate", "ratio", Better::Higher),
    ("model.prefix_shared_rows", "count", Better::Higher),
    ("model.prefilled_rows", "count", Better::Lower),
    ("tensor.vecmat_256x4096_us", "us", Better::Lower),
    ("tensor.vecmat_256x4096_bytes", "bytes", Better::Lower),
    (
        "tensor.batch_matmul_packed_8x256x4096_us",
        "us",
        Better::Lower,
    ),
    (
        "tensor.batch_matmul_packed_8x256x4096_bytes",
        "bytes",
        Better::Lower,
    ),
    ("tensor.vecmat_q_256x4096_us", "us", Better::Lower),
    ("tensor.vecmat_q_256x4096_bytes", "bytes", Better::Lower),
    ("cinterp.run_1rank_us", "us", Better::Lower),
    ("mpisim.pingpong_us", "us", Better::Lower),
    ("mpisim.allreduce_4ranks_us", "us", Better::Lower),
    ("mpisim.deadlock_detect_ms", "ms", Better::Lower),
    ("core.verify_splice_us", "us", Better::Lower),
    ("core.verify_program_us", "us", Better::Lower),
    ("core.verify_sim_runs", "count", Better::Lower),
    ("server.json_encode_us", "us", Better::Lower),
    ("server.json_decode_us", "us", Better::Lower),
    ("server.frame_io_us", "us", Better::Lower),
    ("server.rtt_us", "us", Better::Lower),
    ("server.polls_per_request", "count", Better::Lower),
    ("server.first_decoding_p50_ms", "ms", Better::Lower),
    ("server.wire_overhead_ms", "ms", Better::Lower),
    ("server.idle_cpu_ms_per_s", "ms/s", Better::Lower),
    ("server.frames", "count", Better::Lower),
    ("server.sheds", "count", Better::Lower),
    ("server.connections", "count", Better::Lower),
    ("server.malformed", "count", Better::Lower),
    ("harness.gen_late_p95_ms", "ms", Better::Lower),
    ("harness.trace_overhead_ratio", "ratio", Better::Lower),
    ("harness.traced_requests", "count", Better::Higher),
    ("harness.traced_latency_p50_ms", "ms", Better::Lower),
    ("harness.spans", "count", Better::Higher),
];
