//! `ledger diff A.json B.json`: one row per workload × end-to-end metric.

use crate::metrics::{end_to_end, Better, Bound};
use crate::report::{Ledger, Metric};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread of either side is wider than the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against the baseline `a`.
pub fn judge(a: &Metric, b: &Metric, better: Better, bound: Bound) -> Verdict {
    // Positive `worse` means b is worse than a, in the bound's own terms.
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let (worse, limit) = match bound {
        Bound::Relative(share) => {
            if a.value == 0.0 {
                return if b.value == 0.0 {
                    Verdict::Unchanged
                } else {
                    Verdict::Unresolved
                };
            }
            (sign * (b.value - a.value) / a.value.abs(), share)
        }
        Bound::Absolute(limit) => (sign * (b.value - a.value), limit),
    };
    if matches!(bound, Bound::Relative(_)) && a.spread.max(b.spread) > limit {
        return Verdict::Unresolved;
    }
    if worse > limit {
        Verdict::Regressed
    } else if worse < -limit {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Print the table; `true` when B holds no regression against A and fails no
/// larger share of its operations.
pub fn diff(a: &Ledger, b: &Ledger) -> bool {
    let mut ok = true;
    println!(
        "{:<22} {:<18} {:<6} {:<7} {:>12} {:>12} {:>22} {:>7}  verdict",
        "workload", "metric", "unit", "better", "A", "B", "B/A (base A)", "bound"
    );
    for (workload, entry_a) in &a.workloads {
        let Some(entry_b) = b.workloads.get(workload) else {
            println!("{workload:<22} missing from B");
            ok = false;
            continue;
        };
        for (name, ma) in &entry_a.end_to_end {
            let (Some(def), Some(mb)) = (end_to_end(name), entry_b.end_to_end.get(name)) else {
                println!("{workload:<22} {name:<18} missing from B or from the metric table");
                ok = false;
                continue;
            };
            let verdict = judge(ma, mb, def.better, def.bound);
            let ratio = if ma.value != 0.0 {
                format!("{:.4} of {:.4}", mb.value / ma.value, ma.value)
            } else {
                "-".to_string()
            };
            let bound = match def.bound {
                Bound::Relative(s) => format!("{:.0}%", s * 100.0),
                Bound::Absolute(x) => format!("±{x}"),
            };
            println!(
                "{workload:<22} {name:<18} {:<6} {:<7} {:>12.4} {:>12.4} {ratio:>22} {bound:>7}  {}",
                def.unit,
                def.better.as_str(),
                ma.value,
                mb.value,
                verdict.as_str()
            );
            ok &= verdict != Verdict::Regressed;
        }
        let share = |failed: u64, attempted: u64| failed as f64 / attempted.max(1) as f64;
        if share(entry_b.failed, entry_b.attempted) > share(entry_a.failed, entry_a.attempted) {
            println!("{workload:<22} fails a larger share of its operations in B");
            ok = false;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(value: f64, spread: f64) -> Metric {
        Metric {
            value,
            unit: "ms".to_string(),
            samples: 0,
            supported: true,
            spread,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let rel = Bound::Relative(0.10);
        assert_eq!(
            judge(&m(100.0, 0.0), &m(105.0, 0.0), Better::Lower, rel),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&m(100.0, 0.0), &m(111.0, 0.0), Better::Lower, rel),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&m(100.0, 0.0), &m(80.0, 0.0), Better::Lower, rel),
            Verdict::Improved
        );
        assert_eq!(
            judge(&m(100.0, 0.0), &m(80.0, 0.0), Better::Higher, rel),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&m(100.0, 0.0), &m(120.0, 0.0), Better::Higher, rel),
            Verdict::Improved
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let rel = Bound::Relative(0.10);
        assert_eq!(
            judge(&m(100.0, 0.2), &m(101.0, 0.0), Better::Lower, rel),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&m(100.0, 0.0), &m(150.0, 0.3), Better::Lower, rel),
            Verdict::Unresolved
        );
    }

    #[test]
    fn absolute_bounds_compare_differences() {
        let abs = Bound::Absolute(0.02);
        assert_eq!(
            judge(&m(0.0, 0.0), &m(0.01, 0.0), Better::Lower, abs),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&m(0.0, 0.0), &m(0.05, 0.0), Better::Lower, abs),
            Verdict::Regressed
        );
        let zero = Bound::Absolute(0.0);
        assert_eq!(
            judge(&m(0.0, 0.0), &m(0.0, 0.0), Better::Lower, zero),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&m(0.0, 0.0), &m(0.001, 0.0), Better::Lower, zero),
            Verdict::Regressed
        );
    }
}
