//! The perf-gate artifact: `results/BENCH_perf.json`.
//!
//! `perf_gate` times the Fig. 6 workloads end-to-end on the host and
//! records, per workload and mode, the fastest wall-clock of at least
//! [`PERF_RUNS`] runs spanning at least [`PERF_MIN_WALL_S`] seconds,
//! the achieved stencil throughput, and the
//! heap-allocation ledger (see [`crate::alloc_counter`]). Against a
//! committed baseline it enforces two thresholds:
//!
//! * **allocation ratio** (default 1.5x), on both allocation calls and
//!   allocated bytes: both are deterministic, so any hot-path change that
//!   reintroduces per-block heap traffic or a whole-grid copy trips this
//!   gate even on a noisy machine;
//! * **throughput ratio** (default 0.7x): the minimum of several runs
//!   filters most host noise, so a 1.4x slowdown fails. A fixed run
//!   count is not enough for a workload of a few milliseconds, whose
//!   fastest of five runs still drifts with the host; timing every
//!   workload for a minimum wall budget as well gives short workloads
//!   hundreds of runs.
//!
//! The codec is hand-rolled like [`crate::bench_json`] (the workspace's
//! `serde` is an API-compatibility stub).

use crate::csv::{atomic_write, RESULTS_DIR};
use std::path::{Path, PathBuf};

/// Pre-optimization full-workload wall-clock (ms) measured on the
/// machine that recorded the first baseline, kept in the artifact so the
/// speedup trajectory stays visible after the slow path is gone.
pub const PRE_OPT_WALL_MS: [(&str, f64); 3] = [
    ("Heat-1D", 406.72),
    ("Box-2D9P", 510.42),
    ("Box-3D27P", 7807.26),
];

/// Least number of runs per workload; the fastest one is recorded and
/// gated.
pub const PERF_RUNS: usize = 5;

/// Least total wall-clock, in seconds, spent timing one workload: runs
/// continue until both this budget and [`PERF_RUNS`] are reached.
pub const PERF_MIN_WALL_S: f64 = 2.0;

/// One perf-gate measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRecord {
    /// Fig. 6 workload label (e.g. `Box-2D9P`).
    pub workload: String,
    /// `quick` or `full` — records only gate against the same mode.
    pub mode: String,
    /// Host wall-clock of the fastest run (see [`PERF_MIN_WALL_S`]),
    /// milliseconds.
    pub wall_ms: f64,
    /// Stencil updates per second (points x steps / wall).
    pub points_per_sec: f64,
    /// Heap allocation calls during the measured run.
    pub allocs: u64,
    /// Heap bytes requested during the measured run.
    pub alloc_bytes: u64,
}

/// Gate thresholds (env-overridable in the binary).
#[derive(Debug, Clone, Copy)]
pub struct GateThresholds {
    /// Fail when `points_per_sec < min_points_ratio x baseline`.
    pub min_points_ratio: f64,
    /// Fail when `allocs` or `alloc_bytes` exceed `max_alloc_ratio x
    /// baseline`.
    pub max_alloc_ratio: f64,
}

impl Default for GateThresholds {
    fn default() -> Self {
        Self {
            min_points_ratio: 0.7,
            max_alloc_ratio: 1.5,
        }
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

impl PerfRecord {
    fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"mode\":\"{}\",\"wall_ms\":{},\"points_per_sec\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
            self.workload,
            self.mode,
            fmt_f64(self.wall_ms),
            fmt_f64(self.points_per_sec),
            self.allocs,
            self.alloc_bytes
        )
    }
}

/// Render the full `BENCH_perf.json` body.
pub fn render_perf_json(records: &[PerfRecord]) -> String {
    let reference: Vec<String> = PRE_OPT_WALL_MS
        .iter()
        .map(|(name, ms)| format!("\"{name}\":{}", fmt_f64(*ms)))
        .collect();
    let body: Vec<String> = records
        .iter()
        .map(|r| format!("  {}", r.to_json()))
        .collect();
    format!(
        "{{\"bench\":\"perf\",\"pre_optimization_wall_ms\":{{{}}},\"records\":[\n{}\n]}}\n",
        reference.join(","),
        body.join(",\n")
    )
}

fn str_field(obj: &str, name: &str) -> Option<String> {
    let pat = format!("\"{name}\":\"");
    let i = obj.find(&pat)? + pat.len();
    let j = obj[i..].find('"')? + i;
    Some(obj[i..j].to_string())
}

fn num_field(obj: &str, name: &str) -> Option<f64> {
    let pat = format!("\"{name}\":");
    let i = obj.find(&pat)? + pat.len();
    let rest = &obj[i..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse the records out of a `BENCH_perf.json` body. The scanner keys
/// on `{"workload":` so the reference map is skipped; malformed objects
/// are dropped rather than erroring (a hand-edited baseline should not
/// wedge the gate — a missing record simply isn't gated against).
pub fn parse_perf_json(body: &str) -> Vec<PerfRecord> {
    let mut out = Vec::new();
    for chunk in body.split("{\"workload\":").skip(1) {
        let obj = match chunk.find('}') {
            Some(end) => format!("{{\"workload\":{}", &chunk[..=end]),
            None => continue,
        };
        let parsed = (|| {
            Some(PerfRecord {
                workload: str_field(&obj, "workload")?,
                mode: str_field(&obj, "mode")?,
                wall_ms: num_field(&obj, "wall_ms")?,
                points_per_sec: num_field(&obj, "points_per_sec")?,
                allocs: num_field(&obj, "allocs")? as u64,
                alloc_bytes: num_field(&obj, "alloc_bytes")? as u64,
            })
        })();
        if let Some(r) = parsed {
            out.push(r);
        }
    }
    out
}

/// Compare `current` against `baseline`; returns one human-readable line
/// per violation. Only records matching on (workload, mode) are gated —
/// a quick CI run checks quick records against a baseline that also
/// carries full records.
pub fn gate_violations(
    baseline: &[PerfRecord],
    current: &[PerfRecord],
    t: &GateThresholds,
) -> Vec<String> {
    let mut violations = Vec::new();
    for cur in current {
        let Some(base) = baseline
            .iter()
            .find(|b| b.workload == cur.workload && b.mode == cur.mode)
        else {
            continue;
        };
        let floor = t.min_points_ratio * base.points_per_sec;
        if cur.points_per_sec < floor {
            violations.push(format!(
                "{} ({}): throughput {:.3e} pts/s below gate {:.3e} ({}x baseline {:.3e})",
                cur.workload,
                cur.mode,
                cur.points_per_sec,
                floor,
                t.min_points_ratio,
                base.points_per_sec
            ));
        }
        let ceil = t.max_alloc_ratio * base.allocs as f64;
        if cur.allocs as f64 > ceil {
            violations.push(format!(
                "{} ({}): {} heap allocations exceed gate {:.0} ({}x baseline {})",
                cur.workload, cur.mode, cur.allocs, ceil, t.max_alloc_ratio, base.allocs
            ));
        }
        let ceil = t.max_alloc_ratio * base.alloc_bytes as f64;
        if cur.alloc_bytes as f64 > ceil {
            violations.push(format!(
                "{} ({}): {} heap bytes allocated exceed gate {:.0} ({}x baseline {})",
                cur.workload, cur.mode, cur.alloc_bytes, ceil, t.max_alloc_ratio, base.alloc_bytes
            ));
        }
    }
    violations
}

/// Default on-disk location of the committed baseline.
pub fn perf_baseline_path() -> PathBuf {
    Path::new(RESULTS_DIR).join("BENCH_perf.json")
}

/// Minor page faults this process has taken so far, from
/// `/proc/self/stat`; `None` where that file is missing or unreadable.
/// Informational only: the gate never reads it.
pub fn minor_faults() -> Option<u64> {
    parse_minflt(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Field 10 (`minflt`) of a `/proc/<pid>/stat` line. The command name in
/// field 2 may hold spaces and parentheses, so fields are counted from
/// its last closing parenthesis.
fn parse_minflt(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(7)?.parse().ok()
}

/// Write `results/BENCH_perf.json` atomically. Returns the path.
pub fn write_perf_json(records: &[PerfRecord]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(RESULTS_DIR)?;
    let path = perf_baseline_path();
    atomic_write(&path, render_perf_json(records).as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, mode: &str, pps: f64, allocs: u64) -> PerfRecord {
        PerfRecord {
            workload: workload.to_string(),
            mode: mode.to_string(),
            wall_ms: 12.5,
            points_per_sec: pps,
            allocs,
            alloc_bytes: 4096 * allocs,
        }
    }

    #[test]
    fn minflt_is_counted_from_the_command_name_end() {
        let stat = "4242 (perf gate) x) R 1 4242 4242 0 -1 4194560 1234 0 7 0 9 3";
        assert_eq!(parse_minflt(stat), Some(1234));
        assert_eq!(parse_minflt("4242 (short) R 1 2"), None);
        assert_eq!(parse_minflt("no command name"), None);
    }

    #[test]
    fn json_round_trips() {
        let records = vec![
            record("Heat-1D", "quick", 1.25e8, 1000),
            record("Box-2D9P", "full", 3.0e7, 250_000),
        ];
        let body = render_perf_json(&records);
        assert!(body.contains("\"pre_optimization_wall_ms\""));
        assert!(body.contains("\"Box-2D9P\":510.42"));
        assert_eq!(parse_perf_json(&body), records);
    }

    #[test]
    fn reference_map_is_not_parsed_as_a_record() {
        let body = render_perf_json(&[]);
        assert!(parse_perf_json(&body).is_empty());
    }

    #[test]
    fn gate_passes_when_metrics_hold() {
        let base = vec![record("Box-2D9P", "quick", 1.0e8, 1000)];
        let cur = vec![record("Box-2D9P", "quick", 0.9e8, 1100)];
        assert!(gate_violations(&base, &cur, &GateThresholds::default()).is_empty());
    }

    #[test]
    fn gate_flags_throughput_collapse_and_alloc_blowup() {
        let base = vec![record("Box-2D9P", "quick", 1.0e8, 1000)];
        let cur = vec![record("Box-2D9P", "quick", 0.2e8, 2000)];
        let v = gate_violations(&base, &cur, &GateThresholds::default());
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v[0].contains("throughput"));
        assert!(v[1].contains("allocations"));
        assert!(v[2].contains("bytes"));
    }

    #[test]
    fn gate_flags_a_slowdown_past_the_tightened_floor() {
        let base = vec![record("Box-2D9P", "quick", 1.0e8, 1000)];
        let cur = vec![record("Box-2D9P", "quick", 0.65e8, 1000)];
        let v = gate_violations(&base, &cur, &GateThresholds::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("throughput"));
    }

    #[test]
    fn gate_flags_allocated_bytes_even_at_the_same_call_count() {
        let base = vec![record("Box-2D9P", "quick", 1.0e8, 1000)];
        let mut cur = record("Box-2D9P", "quick", 1.0e8, 1000);
        cur.alloc_bytes = 2 * base[0].alloc_bytes;
        let v = gate_violations(&base, &[cur], &GateThresholds::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("bytes"));
    }

    #[test]
    fn gate_ignores_records_missing_from_baseline_or_other_modes() {
        let base = vec![record("Box-2D9P", "full", 1.0e8, 1000)];
        let cur = vec![
            record("Box-2D9P", "quick", 1.0, 1_000_000),
            record("Heat-1D", "full", 1.0, 1_000_000),
        ];
        assert!(gate_violations(&base, &cur, &GateThresholds::default()).is_empty());
    }

    #[test]
    fn malformed_records_are_dropped_not_fatal() {
        let body = "{\"records\":[{\"workload\":\"X\",\"mode\":\"quick\"},{\"workload\":\"Y\",\"mode\":\"full\",\"wall_ms\":1.0,\"points_per_sec\":2.0,\"allocs\":3,\"alloc_bytes\":4}]}";
        let parsed = parse_perf_json(body);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].workload, "Y");
    }
}
