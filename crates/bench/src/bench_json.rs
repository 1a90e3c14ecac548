//! Machine-readable benchmark artifacts: `results/BENCH_<name>.json`.
//!
//! Each regenerator binary can persist one record per workload — modeled
//! device time, host wall-clock, projected throughput, and the full
//! counter digest — so perf tracking across commits can diff runs without
//! scraping the human-readable tables. The codec is hand-rolled (the
//! workspace's `serde` is an API-compatibility stub; see DESIGN.md) and
//! files are published atomically via [`atomic_write`].

use crate::csv::{atomic_write, csv_mode, RESULTS_DIR};
use std::path::{Path, PathBuf};
use tcu_sim::Counters;

/// One benchmark measurement destined for `BENCH_<name>.json`.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Workload label (e.g. the Table 4 kernel name).
    pub workload: String,
    /// Modeled device time of the measured run, milliseconds.
    pub modeled_ms: f64,
    /// Host wall-clock of the measured run, milliseconds.
    pub wall_ms: f64,
    /// Projected throughput at the paper's problem size.
    pub gstencils_per_sec: f64,
    /// Event ledger of the measured run.
    pub counters: Counters,
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        // JSON has no Inf/NaN; null keeps the artifact parseable.
        "null".to_string()
    }
}

impl BenchRecord {
    fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .field_pairs()
            .iter()
            .map(|(name, value)| format!("\"{name}\":{value}"))
            .collect();
        format!(
            "{{\"workload\":\"{}\",\"modeled_ms\":{},\"wall_ms\":{},\"gstencils_per_sec\":{},\"counters\":{{{}}}}}",
            escape_json(&self.workload),
            fmt_f64(self.modeled_ms),
            fmt_f64(self.wall_ms),
            fmt_f64(self.gstencils_per_sec),
            counters.join(",")
        )
    }
}

/// Render the full artifact body for `BENCH_<name>.json`.
pub fn render_bench_json(name: &str, records: &[BenchRecord]) -> String {
    let body: Vec<String> = records
        .iter()
        .map(|r| format!("  {}", r.to_json()))
        .collect();
    format!(
        "{{\"bench\":\"{}\",\"records\":[\n{}\n]}}\n",
        escape_json(name),
        body.join(",\n")
    )
}

/// Write `results/BENCH_<name>.json` atomically. Returns the path.
pub fn write_bench_json(name: &str, records: &[BenchRecord]) -> std::io::Result<PathBuf> {
    let dir = Path::new(RESULTS_DIR);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    atomic_write(&path, render_bench_json(name, records).as_bytes())?;
    Ok(path)
}

/// Write the records if `--csv` (artifact mode) was requested; print
/// where they went.
pub fn maybe_write_bench_json(name: &str, records: &[BenchRecord]) {
    if !csv_mode() || records.is_empty() {
        return;
    }
    match write_bench_json(name, records) {
        Ok(path) => println!("[bench-json] wrote {}", path.display()),
        Err(e) => eprintln!("[bench-json] failed to write {name}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> BenchRecord {
        BenchRecord {
            workload: "heat2d \"quick\"".to_string(),
            modeled_ms: 1.5,
            wall_ms: 0.25,
            gstencils_per_sec: 123.0,
            counters: Counters {
                dmma_ops: 7,
                launch_faults_injected: 1,
                ..Counters::default()
            },
        }
    }

    #[test]
    fn record_json_escapes_and_lists_every_counter() {
        let json = record().to_json();
        assert!(json.contains("\"workload\":\"heat2d \\\"quick\\\"\""));
        assert!(json.contains("\"modeled_ms\":1.5"));
        assert!(json.contains("\"dmma_ops\":7"));
        assert!(json.contains("\"launch_faults_injected\":1"));
        for (name, _) in Counters::default().field_pairs() {
            assert!(json.contains(&format!("\"{name}\":")), "missing {name}");
        }
    }

    #[test]
    fn non_finite_values_become_null() {
        let mut r = record();
        r.wall_ms = f64::NAN;
        r.gstencils_per_sec = f64::INFINITY;
        let json = r.to_json();
        assert!(json.contains("\"wall_ms\":null"));
        assert!(json.contains("\"gstencils_per_sec\":null"));
    }

    #[test]
    fn artifact_body_wraps_records_in_an_array() {
        let body = render_bench_json("unit", &[record(), record()]);
        assert!(body.starts_with("{\"bench\":\"unit\",\"records\":[\n"));
        assert!(body.ends_with("]}\n"));
        assert_eq!(body.matches("\"workload\"").count(), 2);
    }

    #[test]
    fn write_bench_json_round_trips_to_disk() {
        let dir = std::env::temp_dir().join("convstencil_bench_json_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_unit.json");
        atomic_write(&path, render_bench_json("unit", &[record()]).as_bytes()).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, render_bench_json("unit", &[record()]));
    }
}
