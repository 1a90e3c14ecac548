//! The benchmark's workloads and metrics, with their labels. This is the
//! single source of `BENCHMARK.json` (`--write-manifest` renders it, and a
//! test keeps the committed file in step).

/// How a number was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host wall time or memory, read from a timer, the allocator or `stat`.
    Measured,
    /// The paper's cost model (Eq. 2-4, 16) applied to simulator counts.
    Modeled,
    /// An exact count (or a size computed from counts); repeats exactly.
    Count,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Measured => "measured",
            Kind::Modeled => "modeled",
            Kind::Count => "count",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Layer of the system the number describes.
    pub layer: &'static str,
    pub kind: Kind,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

/// Seconds one run measures (its `--seconds`).
pub const RUN_SECONDS: u32 = 30;

/// Command that builds and runs the benchmark from the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--quiet",
    "--release",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

pub const PATHS: [&str; 1] = ["perfbench"];

pub const WORKLOADS: [WorkloadInfo; 3] = [
    WorkloadInfo {
        name: "job-1d-ckpt",
        why: "Heat-1D 2^16 x 48 steps through Runtime, checkpoint every 3, verified, halted after 8 saves then \
              resumed: the only load on checkpoint I/O, chunk plan rebuilds, reference checks and exec1d",
    },
    WorkloadInfo {
        name: "oneshot-2d",
        why: "Box-2D9P 1024^2 x 6 steps, Dirichlet, fused ConvStencil: the paper's headline 2D case, where the \
              device launch (scatter + tessellation) dominates and no runtime or checkpoint work runs",
    },
    WorkloadInfo {
        name: "oneshot-3d",
        why: "Box-3D27P 16x128x128 x 6 steps, periodic: exec3d's plane-decomposed unfused path plus halo \
              exchange; fusion and the Dirichlet ring are bypassed",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    kind: Kind,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer,
        kind,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, layer: &'static str, kind: Kind) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        layer,
        kind,
        bound: None,
    }
}

use Better::{Higher, Lower};
use Kind::{Count, Measured, Modeled};

/// Reported by untraced runs (`--trace 0`).
pub const END_TO_END: [Metric; 5] = [
    e2e("op_ms_min", "ms", Lower, "op", Measured, 0.25),
    e2e("mpts_per_s", "Mpts/s", Higher, "op", Measured, 0.25),
    e2e("setup_s", "s", Lower, "setup", Measured, 0.25),
    e2e("heap_peak_mib", "MiB", Lower, "op", Measured, 0.05),
    e2e(
        "modeled_gstencils",
        "GStencil/s",
        Higher,
        "device",
        Modeled,
        0.05,
    ),
];

/// Reported by traced runs (`--trace 1`). Modeled times carry the unit
/// `modeled_ms` so they are never read as host time.
pub const PER_LAYER: [Metric; 39] = [
    layer("op_ms_p50", "ms", "op", Measured),
    layer("plan.ms", "ms", "plan", Measured),
    layer("plan.calls", "count", "plan", Count),
    layer("layout.ms", "ms", "layout", Measured),
    layer("layout.mib", "MiB", "layout", Count),
    layer("device.ms", "ms", "device", Measured),
    layer("device.ns_per_event", "ns", "device", Measured),
    layer("device.launches", "count", "device", Count),
    layer("device.blocks", "count", "device", Count),
    layer("device.dmma_ops", "count", "device", Count),
    layer("device.gmem_sectors", "count", "device", Count),
    layer("device.smem_requests", "count", "device", Count),
    layer("device.smem_conflicts", "count", "device", Count),
    layer("device.modeled_ms", "modeled_ms", "device", Modeled),
    layer("device.scatter.modeled_ms", "modeled_ms", "device", Modeled),
    layer(
        "device.tessellation.modeled_ms",
        "modeled_ms",
        "device",
        Modeled,
    ),
    layer(
        "device.epilogue.modeled_ms",
        "modeled_ms",
        "device",
        Modeled,
    ),
    layer("device.halo.modeled_ms", "modeled_ms", "device", Modeled),
    layer("reference.ms", "ms", "reference", Measured),
    layer("verify.ms", "ms", "verify", Measured),
    layer("runtime.ms", "ms", "runtime", Measured),
    layer("runtime.chunks", "count", "runtime", Count),
    layer("runtime.retries", "count", "runtime", Count),
    layer("runtime.migrations", "count", "runtime", Count),
    layer("checkpoint.save_ms", "ms", "checkpoint", Measured),
    layer("checkpoint.encode_ms", "ms", "checkpoint", Measured),
    layer("checkpoint.load_ms", "ms", "checkpoint", Measured),
    layer("checkpoint.scan_ms", "ms", "checkpoint", Measured),
    layer("checkpoint.disk_mib", "MiB", "checkpoint", Measured),
    layer("checkpoint.files", "count", "checkpoint", Count),
    layer("checkpoint.mib_per_file", "MiB", "checkpoint", Count),
    layer("allocs", "count", "op", Count),
    layer("alloc_mib", "MiB", "op", Count),
    layer("trace.op_ms", "ms", "trace", Measured),
    layer("unattributed.ms", "ms", "trace", Measured),
    layer("unattributed.frac", "ratio", "trace", Measured),
    layer("trace.overhead_frac", "ratio", "trace", Measured),
    layer("wrong_cell_frac", "ratio", "correctness", Count),
    layer("failed_ratio", "ratio", "correctness", Count),
];

fn quoted(items: &[&str]) -> String {
    let q: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", q.join(", "))
}

/// Render `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out += &format!("  \"command\": {},\n", quoted(&COMMAND));
    out += &format!("  \"paths\": {},\n", quoted(&PATHS));
    out += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out += &format!("  \"workloads\": [\n{}\n  ],\n", workloads.join(",\n"));
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    out += &format!("  \"end_to_end\": [\n{}\n  ],\n", e2e.join(",\n"));
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.label()
            )
        })
        .collect();
    out += &format!("  \"per_layer\": [\n{}\n  ]\n}}\n", per_layer.join(",\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::path::Path;

    #[test]
    fn committed_manifest_matches_the_catalog() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest_json(), "rerun with --write-manifest");
    }

    #[test]
    fn names_are_unique_and_within_the_manifest_limits() {
        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest));
    }
}
