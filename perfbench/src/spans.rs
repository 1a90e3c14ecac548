//! Benchmark-side spans around the calls into each layer of the library.
//!
//! Spans are kept in memory and never nest: each wraps one public call
//! (or one clone the library makes between calls), so a traced op's wall
//! time is exactly its spans plus an unattributed remainder.

use std::time::Instant;

/// The layers a traced op is split into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Exec{1,2,3}D::try_new`: plan, LUT and weight matrices.
    Plan,
    /// `try_build_ext`, `extract_into` and the grid clones around them.
    Layout,
    /// `try_run_{1,2,3}d_applications_bc`: the simulated launches.
    Device,
    /// `run_reference`: the runner's CPU reference for a chunk.
    Reference,
    /// `check_samples`: comparing a chunk with its reference.
    Verify,
    /// Job bookkeeping: device pool, breakers, payload rebuild on resume.
    Runtime,
    /// Cutting and writing one checkpoint (`Checkpoint::save`).
    CheckpointSave,
    /// `load_latest`: scanning the directory and decoding the newest file.
    CheckpointScan,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Plan,
        Layer::Layout,
        Layer::Device,
        Layer::Reference,
        Layer::Verify,
        Layer::Runtime,
        Layer::CheckpointSave,
        Layer::CheckpointScan,
    ];

    /// Name of the layer's time metric.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Plan => "plan.ms",
            Layer::Layout => "layout.ms",
            Layer::Device => "device.ms",
            Layer::Reference => "reference.ms",
            Layer::Verify => "verify.ms",
            Layer::Runtime => "runtime.ms",
            Layer::CheckpointSave => "checkpoint.save_ms",
            Layer::CheckpointScan => "checkpoint.scan_ms",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// Spans of one traced op.
pub struct Spans {
    origin: Instant,
    end: Option<Instant>,
    ns: [u64; Layer::ALL.len()],
    calls: [u64; Layer::ALL.len()],
    /// Bytes of the buffers the layout calls produced (computed from
    /// their lengths, not measured).
    pub layout_bytes: u64,
}

impl Spans {
    /// Start tracing an op; its wall time runs from here.
    pub fn start() -> Self {
        Self {
            origin: Instant::now(),
            end: None,
            ns: [0; Layer::ALL.len()],
            calls: [0; Layer::ALL.len()],
            layout_bytes: 0,
        }
    }

    /// Run `f` inside a span of `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.ns[layer.index()] += start.elapsed().as_nanos() as u64;
        self.calls[layer.index()] += 1;
        out
    }

    /// Count a buffer of `elems` f64 values a layout call produced.
    pub fn produced(&mut self, elems: usize) {
        self.layout_bytes += 8 * elems as u64;
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    /// End the op: its last library call has returned. Work after this
    /// (reading out results for the checks) is not part of the op.
    pub fn stop(&mut self) {
        self.end.get_or_insert_with(Instant::now);
    }

    /// The op's wall time, from [`Spans::start`] to [`Spans::stop`].
    pub fn wall_ns(&self) -> u64 {
        let end = self
            .end
            .expect("a traced op calls Spans::stop when it ends");
        (end - self.origin).as_nanos() as u64
    }

    /// Per-layer span totals, in [`Layer::ALL`] order.
    pub fn all_ns(&self) -> [u64; Layer::ALL.len()] {
        self.ns
    }
}
