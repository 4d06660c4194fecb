//! The ledger's data model: what one run reports, what `results.json` holds,
//! and how both are printed.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One measured value. `samples` is the number of observations behind it (0
/// when it is a single reading); `supported` is false when a percentile has
/// fewer than ten samples beyond it; `spread` is the run-to-run spread once
/// several runs were folded together.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
    #[serde(default)]
    pub samples: u64,
    #[serde(default)]
    pub supported: bool,
    #[serde(default)]
    pub spread: f64,
}

/// Everything one process run measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
    /// Human-readable findings: failure messages, layer-share table rows,
    /// not-meaningful flags.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> RunResult {
        RunResult {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.put_sampled(name, value, unit, 0, true);
    }

    pub fn put_sampled(
        &mut self,
        name: &str,
        value: f64,
        unit: &str,
        samples: usize,
        supported: bool,
    ) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
                samples: samples as u64,
                supported,
                spread: 0.0,
            },
        );
    }

    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |m| m.value)
    }

    /// Record a failed operation with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 32 {
            self.notes.push(format!("FAILED: {why}"));
        }
    }

    /// One `workload metric value unit` line per metric, then the notes.
    pub fn print_lines(&self) {
        for (name, m) in &self.metrics {
            let mut line = format!("{} {} {} {}", self.workload, name, m.value, m.unit);
            if m.samples > 0 {
                line.push_str(&format!(" (n={})", m.samples));
            }
            if !m.supported {
                line.push_str(" (fewer than ten samples beyond this percentile)");
            }
            println!("{line}");
        }
        for note in &self.notes {
            println!("{} # {note}", self.workload);
        }
    }

    /// The last line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the latter holding exactly the contract's
    /// end-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub fn contract_line(&self) -> String {
        let names: Vec<&str> = if self.trace {
            PER_LAYER.iter().map(|(name, _, _)| *name).collect()
        } else {
            END_TO_END
                .iter()
                .filter(|m| m.contract)
                .map(|m| m.name)
                .collect()
        };
        let metrics: Vec<String> = names
            .iter()
            .map(|name| {
                let m = self
                    .metrics
                    .get(*name)
                    .unwrap_or_else(|| panic!("run did not measure `{name}`"));
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_string(name),
                    json_number(m.value),
                    json_string(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

fn json_string(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    serde_json::to_string(&v).expect("numbers serialize")
}

/// Where and how the numbers were taken.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Provenance {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustflags: String,
    pub target_features: String,
    pub rustc: String,
    pub git_rev: String,
    pub seed: u64,
    pub seconds: f64,
    pub runs_per_workload: usize,
    pub precision: String,
    pub beam: usize,
    pub workers: usize,
    pub pending_budget: usize,
    pub model_shape: String,
    /// Every workload count and rate, as `name = value` strings.
    pub workload_constants: Vec<String>,
    /// Assumptions that are not measurements.
    pub assumptions: Vec<String>,
}

/// One workload's entry in `results.json`: medians over the untraced runs,
/// the traced run's per-layer metrics, and the operation counts summed.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WorkloadEntry {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<String, Metric>,
    pub per_layer: BTreeMap<String, Metric>,
    pub notes: Vec<String>,
}

/// `results.json`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Ledger {
    /// A ledger states measurements; a gain is claimed by a later change as a
    /// diff of two ledgers.
    pub claim: Option<String>,
    pub provenance: Provenance,
    pub workloads: BTreeMap<String, WorkloadEntry>,
}

/// Fold repeated untraced runs of one workload into one entry: per metric the
/// median of the runs' values and their spread.
pub fn fold_runs(untraced: &[RunResult], traced: Option<&RunResult>) -> WorkloadEntry {
    let mut entry = WorkloadEntry {
        correct: true,
        ..WorkloadEntry::default()
    };
    for run in untraced.iter().chain(traced) {
        entry.correct &= run.failed == 0;
        entry.attempted += run.attempted;
        entry.failed += run.failed;
        for note in &run.notes {
            if !entry.notes.contains(note) {
                entry.notes.push(note.clone());
            }
        }
    }
    if let Some(first) = untraced.first() {
        for (name, m) in &first.metrics {
            let values: Vec<f64> = untraced.iter().map(|r| r.value(name)).collect();
            entry.end_to_end.insert(
                name.clone(),
                Metric {
                    value: median(&values),
                    spread: spread(&values),
                    samples: untraced
                        .iter()
                        .filter_map(|r| r.metrics.get(name))
                        .map(|x| x.samples)
                        .min()
                        .unwrap_or(0),
                    supported: untraced
                        .iter()
                        .filter_map(|r| r.metrics.get(name))
                        .all(|x| x.supported),
                    unit: m.unit.clone(),
                },
            );
        }
    }
    if let Some(traced) = traced {
        entry.per_layer = traced.metrics.clone();
    }
    entry
}

/// Indent compact JSON so a committed ledger diffs line by line.
pub fn pretty_json(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    let mut chars = compact.chars().peekable();
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                if matches!(chars.peek(), Some('}') | Some(']')) {
                    out.push(chars.next().expect("peeked"));
                } else {
                    depth += 1;
                    newline(&mut out, depth);
                }
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                newline(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, depth);
            }
            ':' => out.push_str(": "),
            _ => out.push(c),
        }
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_json_round_trips() {
        let compact = r#"{"a":[1,2,{"b":"x,y:{}"}],"c":{},"d":[]}"#;
        let pretty = pretty_json(compact);
        assert!(pretty.contains("\"b\": \"x,y:{}\""));
        let squeezed: String = {
            let mut s = String::new();
            let mut in_string = false;
            for ch in pretty.chars() {
                if ch == '"' {
                    in_string = !in_string;
                }
                if in_string || !ch.is_whitespace() {
                    s.push(ch);
                }
            }
            s
        };
        assert_eq!(squeezed, compact);
    }

    #[test]
    fn contract_line_holds_exactly_the_contract_metrics() {
        let mut run = RunResult::new("w", 1, 1.0, false);
        for m in END_TO_END {
            run.put(m.name, 1.5, m.unit);
        }
        run.attempted = 10;
        let line = run.contract_line();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        assert!(
            !line.contains("failed_ratio"),
            "ledger-only metrics stay out"
        );
        assert!(!line.contains('\n'));
        run.fail("x".to_string());
        assert!(run
            .contract_line()
            .starts_with("{\"correct\":false,\"attempted\":10,\"failed\":1,"));
    }

    #[test]
    fn fold_takes_medians_and_spread() {
        let runs: Vec<RunResult> = [9.0, 10.0, 11.0]
            .iter()
            .map(|v| {
                let mut r = RunResult::new("w", 1, 1.0, false);
                r.put_sampled("latency_p50_ms", *v, "ms", 100, true);
                r.attempted = 5;
                r
            })
            .collect();
        let entry = fold_runs(&runs, None);
        let m = &entry.end_to_end["latency_p50_ms"];
        assert_eq!(m.value, 10.0);
        assert!((m.spread - 0.2).abs() < 1e-12);
        assert_eq!(entry.attempted, 15);
        assert!(entry.correct);
    }
}
