//! Crash-consistent checkpoints.
//!
//! A checkpoint captures everything needed to continue a job from the
//! last committed chunk with a *bit-identical* future: the grid (padded
//! storage, f64 bit patterns), the plan (kernel weights, fusion degree,
//! variant, boundary), accumulated report counters, and — crucially —
//! every pool device's fault cursor (plan, epoch, launch-attempt count,
//! dead flag) plus breaker state, so the deterministic fault streams
//! resume exactly where they stopped.
//!
//! ## Wire format
//!
//! Plain text, one header line followed by `key=value` payload lines:
//!
//! ```text
//! CONVSTENCIL-CKPT v1 crc64=<16 hex> payload_bytes=<n>
//! job=heat
//! dim=2
//! ...
//! ```
//!
//! The CRC-64/XZ checksum covers the payload bytes exactly; any
//! single-byte corruption anywhere in the payload is detected (see
//! [`crate::crc64`]). Floats travel as `f64::to_bits` hex so the round
//! trip is bit-exact, including NaNs and signed zeros.
//!
//! ## Codec
//!
//! Nearly all of a file is the `grid_data` list: 17 bytes (16 lowercase
//! hex digits and a `,`) per grid point. [`Checkpoint::encode_into`]
//! builds the file once in a caller's byte buffer, writing each list
//! through a nibble → ASCII table into a region pre-sized to `17·n`, and
//! then writes the header into a reserved prefix; the runtime reuses one
//! buffer for every save of a job, and [`Checkpoint::encode`] wraps a
//! fresh one in a `String`. [`Checkpoint::decode`] reads a list that is
//! a whole number of 17-byte strides through a 256-entry `UNHEX` table,
//! checking every digit and separator; any other list goes through the
//! generic `split(',')` + `u64::from_str_radix` parser, so the accepted
//! inputs and the error messages are those of the generic parser.
//! `tests/checkpoint_wire.rs` pins the bytes against a committed fixture.
//!
//! ## Crash consistency
//!
//! Files are written with the bench crate's `atomic_write` (uniquely
//! named temp file + fsync + atomic rename + directory fsync), so a crash
//! at any point leaves either the previous checkpoint or the complete new
//! one, never a torn file. Temp names end in `.tmp`, never in `.ckpt`, so
//! the loader never picks one up. The loader scans a directory, tries
//! newest-first, and skips corrupt or truncated files with a warning
//! instead of failing the resume.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::breaker::BreakerState;
use crate::crc64::crc64;
use convstencil::ConvStencilError;
use convstencil_bench::atomic_write;
use tcu_sim::{Counters, EccBurst, FaultPlan, HangSpec, LaunchStats, Phase, SanitizerReport};

/// Magic prefix of every checkpoint file.
pub const MAGIC: &str = "CONVSTENCIL-CKPT v1";

/// Longest header line `encode` can write: the magic, a 16-digit CRC, a
/// 20-digit (`u64::MAX`) payload length, separators and the newline.
const HEADER_MAX: usize = MAGIC.len() + " crc64=".len() + 16 + " payload_bytes=".len() + 20 + 1;

/// File extension used by [`Checkpoint::save`] and [`load_latest`].
pub const EXTENSION: &str = "ckpt";

/// One pool device's persisted fault cursor + breaker state.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceCursor {
    pub id: usize,
    pub plan: Option<FaultPlan>,
    pub fault_epoch: u64,
    pub launch_attempts: u64,
    pub dead: bool,
    pub breaker: BreakerState,
}

/// Everything a resumed job needs (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    pub job: String,
    /// 1, 2 or 3.
    pub dim: u8,
    pub radius: usize,
    /// Base (unfused) kernel weights, row-major.
    pub weights: Vec<f64>,
    /// Temporal fusion degree (always 1 for 3D).
    pub fusion: usize,
    /// "dirichlet" | "periodic".
    pub boundary: String,
    /// The four variant switches, in declaration order.
    pub variant: [bool; 4],
    /// Runner observability flags: tracing, sanitizer, and a third flag
    /// once named scratch pooling. The third is always written as 1 and
    /// ignored on read, so a file that stores 0 resumes identically.
    pub flags: [bool; 3],
    pub steps_total: u64,
    pub steps_done: u64,
    pub checkpoint_every: u64,
    /// Interior extents: `[n]`, `[m, n]` or `[d, m, n]`.
    pub grid_dims: Vec<usize>,
    pub grid_halo: usize,
    /// Full padded storage (interior + halo), bit-exact.
    pub grid_data: Vec<f64>,
    /// Job-accumulated event ledger.
    pub counters: Counters,
    pub launch_stats: LaunchStats,
    pub migrations: u64,
    pub degraded: bool,
    pub checkpoints_written: u64,
    pub faults_detected: u64,
    pub retries: u64,
    /// Pool logical clock (chunks committed anywhere).
    pub pool_completed: u64,
    /// Slot the job was running on when the checkpoint was cut (`None`
    /// once the job degraded to the reference backend). Resume continues
    /// on this device so the fault streams of an interrupted-then-resumed
    /// run align bit-exactly with an uninterrupted one.
    pub active_device: Option<usize>,
    /// Aggregated sanitizer totals + per-phase histograms. Verbatim
    /// violation records are capped diagnostics and are not persisted.
    pub sanitizer: Option<SanitizerReport>,
    pub devices: Vec<DeviceCursor>,
}

/// Nibble → lowercase ASCII hex digit.
const HEX: &[u8; 16] = b"0123456789abcdef";

/// Marks a non-hex byte in [`UNHEX`].
const INVALID: u8 = 0x80;

/// ASCII byte → nibble, or [`INVALID`]. Accepts both cases, like
/// `u64::from_str_radix(_, 16)`.
const UNHEX: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 10 {
        table[b'0' as usize + i] = i as u8;
        i += 1;
    }
    let mut i = 0;
    while i < 6 {
        table[b'a' as usize + i] = 10 + i as u8;
        table[b'A' as usize + i] = 10 + i as u8;
        i += 1;
    }
    table
};

/// The 16 hex digits of `v`'s bit pattern, most significant first.
fn hex16(v: f64, digits: &mut [u8]) {
    let bits = v.to_bits();
    for (i, d) in digits[..16].iter_mut().enumerate() {
        *d = HEX[((bits >> (60 - 4 * i)) & 0xF) as usize];
    }
}

/// Append `vs` as a `,`-separated hex line ending in `\n`.
fn push_hex_f64_line(out: &mut Vec<u8>, vs: &[f64]) {
    if vs.is_empty() {
        out.push(b'\n');
        return;
    }
    let start = out.len();
    out.resize(start + 17 * vs.len(), b',');
    for (stride, &v) in out[start..].chunks_exact_mut(17).zip(vs) {
        hex16(v, stride);
    }
    *out.last_mut().expect("non-empty list") = b'\n';
}

/// Append one `f64` bit pattern as 16 hex digits.
fn push_hex_f64(out: &mut Vec<u8>, v: f64) {
    let mut digits = [0u8; 16];
    hex16(v, &mut digits);
    out.extend_from_slice(&digits);
}

fn read_err(path: &Path, reason: impl Into<String>) -> ConvStencilError {
    ConvStencilError::ArtifactRead {
        path: path.display().to_string(),
        reason: reason.into(),
    }
}

/// Field-level parse context carried while decoding, so every failure
/// reports *which* key was malformed.
struct FieldError {
    key: &'static str,
    why: String,
}

type FieldResult<T> = Result<T, FieldError>;

fn field_err<T>(key: &'static str, why: impl Into<String>) -> FieldResult<T> {
    Err(FieldError {
        key,
        why: why.into(),
    })
}

fn parse_u64(key: &'static str, s: &str) -> FieldResult<u64> {
    s.parse::<u64>().map_err(|e| FieldError {
        key,
        why: format!("bad integer {s:?}: {e}"),
    })
}

fn parse_usize(key: &'static str, s: &str) -> FieldResult<usize> {
    s.parse::<usize>().map_err(|e| FieldError {
        key,
        why: format!("bad integer {s:?}: {e}"),
    })
}

fn parse_f64_bits(key: &'static str, s: &str) -> FieldResult<f64> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| FieldError {
            key,
            why: format!("bad f64 bit pattern {s:?}: {e}"),
        })
}

fn parse_f64_list(key: &'static str, s: &str) -> FieldResult<Vec<f64>> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    match parse_hex_strides(s.as_bytes()) {
        Some(vs) => Ok(vs),
        None => parse_f64_tokens(key, s),
    }
}

/// The generic list parser: any `,`-separated tokens `from_str_radix`
/// accepts.
fn parse_f64_tokens(key: &'static str, s: &str) -> FieldResult<Vec<f64>> {
    s.split(',').map(|tok| parse_f64_bits(key, tok)).collect()
}

/// Fast path for the list [`push_hex_f64_line`] writes: 16 hex digits per
/// token, one `,` between tokens. `None` for anything else, including any
/// invalid digit or separator, so the generic parser decides whether the
/// list is accepted and what the error says.
fn parse_hex_strides(s: &[u8]) -> Option<Vec<f64>> {
    if !(s.len() + 1).is_multiple_of(17) {
        return None;
    }
    let mut out = Vec::with_capacity((s.len() + 1) / 17);
    // OR of every digit's table entry and every separator's verdict: the
    // list is valid exactly when no INVALID bit was ever set. Invalid
    // entries also pollute `bits`, which is then discarded.
    let mut bad = 0u8;
    let mut strides = s.chunks_exact(17);
    for stride in &mut strides {
        bad |= if stride[16] == b',' { 0 } else { INVALID };
        out.push(unhex16(&stride[..16], &mut bad));
    }
    out.push(unhex16(strides.remainder(), &mut bad));
    (bad & INVALID == 0).then_some(out)
}

/// Decode 16 hex digits, OR-ing their table entries into `bad`.
fn unhex16(digits: &[u8], bad: &mut u8) -> f64 {
    let mut bits = 0u64;
    for &c in &digits[..16] {
        let d = UNHEX[c as usize];
        *bad |= d;
        bits = bits << 4 | u64::from(d);
    }
    f64::from_bits(bits)
}

fn parse_bool(key: &'static str, s: &str) -> FieldResult<bool> {
    match s {
        "0" => Ok(false),
        "1" => Ok(true),
        other => field_err(key, format!("bad flag {other:?} (want 0 or 1)")),
    }
}

fn encode_plan(out: &mut Vec<u8>, plan: &Option<FaultPlan>) {
    let Some(p) = plan else {
        out.push(b'-');
        return;
    };
    let _ = write!(out, "seed:{} dmma:", p.seed);
    push_hex_f64(out, p.dmma_flip_rate);
    out.extend_from_slice(b" smem:");
    push_hex_f64(out, p.smem_corrupt_rate);
    out.extend_from_slice(b" lfail:");
    push_hex_f64(out, p.launch_fail_rate);
    let _ = match p.die_at_launch {
        Some(d) => write!(out, " die:{d}"),
        None => write!(out, " die:-"),
    };
    let _ = match p.ecc_burst {
        Some(b) => write!(out, " ecc:{}/{}", b.start, b.len),
        None => write!(out, " ecc:-"),
    };
    let _ = match p.hang {
        Some(h) => write!(out, " hang:{}/{}", h.at_launch, h.stall_cycles),
        None => write!(out, " hang:-"),
    };
}

fn decode_plan(s: &str) -> FieldResult<Option<FaultPlan>> {
    const KEY: &str = "device.plan";
    if s == "-" {
        return Ok(None);
    }
    let mut seed = None;
    let mut dmma = None;
    let mut smem = None;
    let mut lfail = None;
    let mut die = None;
    let mut ecc = None;
    let mut hang = None;
    for tok in s.split(' ') {
        let (k, v) = tok.split_once(':').ok_or(FieldError {
            key: KEY,
            why: format!("bad token {tok:?}"),
        })?;
        match k {
            "seed" => seed = Some(parse_u64(KEY, v)?),
            "dmma" => dmma = Some(parse_f64_bits(KEY, v)?),
            "smem" => smem = Some(parse_f64_bits(KEY, v)?),
            "lfail" => lfail = Some(parse_f64_bits(KEY, v)?),
            "die" if v != "-" => die = Some(parse_u64(KEY, v)?),
            "ecc" if v != "-" => {
                let (a, b) = v.split_once('/').ok_or(FieldError {
                    key: KEY,
                    why: format!("bad ecc window {v:?}"),
                })?;
                ecc = Some(EccBurst {
                    start: parse_u64(KEY, a)?,
                    len: parse_u64(KEY, b)?,
                });
            }
            "hang" if v != "-" => {
                let (a, b) = v.split_once('/').ok_or(FieldError {
                    key: KEY,
                    why: format!("bad hang spec {v:?}"),
                })?;
                hang = Some(HangSpec {
                    at_launch: parse_u64(KEY, a)?,
                    stall_cycles: parse_u64(KEY, b)?,
                });
            }
            "die" | "ecc" | "hang" => {}
            other => return field_err(KEY, format!("unknown token {other:?}")),
        }
    }
    let mut plan = FaultPlan::quiet(seed.ok_or(FieldError {
        key: KEY,
        why: "missing seed".to_string(),
    })?);
    plan.dmma_flip_rate = dmma.unwrap_or(0.0);
    plan.smem_corrupt_rate = smem.unwrap_or(0.0);
    plan.launch_fail_rate = lfail.unwrap_or(0.0);
    plan.die_at_launch = die;
    plan.ecc_burst = ecc;
    plan.hang = hang;
    Ok(Some(plan))
}

fn encode_breaker(state: &BreakerState) -> String {
    match state {
        BreakerState::Closed {
            consecutive_failures,
        } => format!("closed:{consecutive_failures}"),
        BreakerState::Open { until_jobs } => format!("open:{until_jobs}"),
        BreakerState::HalfOpen => "halfopen".to_string(),
    }
}

fn decode_breaker(s: &str) -> FieldResult<BreakerState> {
    const KEY: &str = "device.breaker";
    if s == "halfopen" {
        return Ok(BreakerState::HalfOpen);
    }
    let (k, v) = s.split_once(':').ok_or(FieldError {
        key: KEY,
        why: format!("bad breaker state {s:?}"),
    })?;
    match k {
        "closed" => {
            let n = parse_u64(KEY, v)?;
            let consecutive_failures = u32::try_from(n).map_err(|_| FieldError {
                key: KEY,
                why: format!("failure count {n} does not fit in 32 bits"),
            })?;
            Ok(BreakerState::Closed {
                consecutive_failures,
            })
        }
        "open" => Ok(BreakerState::Open {
            until_jobs: parse_u64(KEY, v)?,
        }),
        other => field_err(KEY, format!("bad breaker state {other:?}")),
    }
}

impl Checkpoint {
    /// Canonical file name for this job at this step.
    pub fn file_name(job: &str, steps_done: u64) -> String {
        format!("{job}.step{steps_done:08}.{EXTENSION}")
    }

    /// Serialize to the wire format (header + payload).
    pub fn encode(&self) -> String {
        let mut p = Vec::new();
        self.encode_into(&mut p);
        // Every byte is ASCII except the job and boundary names, which
        // come from `String`s.
        String::from_utf8(p).expect("checkpoint text is UTF-8")
    }

    /// Serialize into `out`, replacing its contents but keeping its
    /// capacity: the same bytes as [`Checkpoint::encode`], without a new
    /// file-sized allocation when `out` is reused across saves.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let lists = self.grid_data.len() + self.weights.len();
        // One buffer for the whole file: the payload goes after a prefix
        // wide enough for any header, the header is written right-aligned
        // into that prefix once the payload's CRC is known, and the
        // unused front of the prefix is dropped.
        out.clear();
        out.reserve(HEADER_MAX + 17 * lists + 4096);
        out.resize(HEADER_MAX, 0);
        let _ = writeln!(out, "job={}", self.job);
        let _ = writeln!(out, "dim={}", self.dim);
        let _ = writeln!(out, "radius={}", self.radius);
        out.extend_from_slice(b"weights=");
        push_hex_f64_line(out, &self.weights);
        let _ = writeln!(out, "fusion={}", self.fusion);
        let _ = writeln!(out, "boundary={}", self.boundary);
        let _ = writeln!(
            out,
            "variant={}",
            self.variant
                .iter()
                .map(|b| if *b { "1" } else { "0" })
                .collect::<Vec<_>>()
                .join(",")
        );
        let _ = writeln!(
            out,
            "flags={}",
            self.flags
                .iter()
                .map(|b| if *b { "1" } else { "0" })
                .collect::<Vec<_>>()
                .join(",")
        );
        let _ = writeln!(out, "steps_total={}", self.steps_total);
        let _ = writeln!(out, "steps_done={}", self.steps_done);
        let _ = writeln!(out, "checkpoint_every={}", self.checkpoint_every);
        let _ = writeln!(
            out,
            "grid_dims={}",
            self.grid_dims
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        let _ = writeln!(out, "grid_halo={}", self.grid_halo);
        out.extend_from_slice(b"grid_data=");
        push_hex_f64_line(out, &self.grid_data);
        let _ = writeln!(
            out,
            "counters={}",
            self.counters
                .field_pairs()
                .iter()
                .map(|(k, v)| format!("{k}:{v}"))
                .collect::<Vec<_>>()
                .join(",")
        );
        let _ = writeln!(
            out,
            "launches=kernel_launches:{},total_blocks:{}",
            self.launch_stats.kernel_launches, self.launch_stats.total_blocks
        );
        let _ = writeln!(
            out,
            "job_stats=migrations:{},degraded:{},checkpoints_written:{},faults_detected:{},retries:{}",
            self.migrations,
            u8::from(self.degraded),
            self.checkpoints_written,
            self.faults_detected,
            self.retries
        );
        let _ = writeln!(out, "pool_completed={}", self.pool_completed);
        let _ = writeln!(
            out,
            "active_device={}",
            self.active_device
                .map_or("-".to_string(), |id| id.to_string())
        );
        if let Some(s) = &self.sanitizer {
            let _ = writeln!(
                out,
                "sanitizer=init:{},mem:{},race:{},bank:{}",
                s.init_total, s.mem_total, s.race_total, s.bank_total
            );
            let _ = writeln!(
                out,
                "sanitizer_load={}",
                s.load_conflicts
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            );
            let _ = writeln!(
                out,
                "sanitizer_store={}",
                s.store_conflicts
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            );
        }
        for d in &self.devices {
            let _ = write!(out, "device={};plan=", d.id);
            encode_plan(out, &d.plan);
            let _ = writeln!(
                out,
                ";epoch={};attempts={};dead={};breaker={}",
                d.fault_epoch,
                d.launch_attempts,
                u8::from(d.dead),
                encode_breaker(&d.breaker)
            );
        }
        let payload = &out[HEADER_MAX..];
        let header = format!(
            "{MAGIC} crc64={:016x} payload_bytes={}\n",
            crc64(payload),
            payload.len()
        );
        let front = HEADER_MAX - header.len();
        out[front..HEADER_MAX].copy_from_slice(header.as_bytes());
        out.drain(..front);
    }

    /// Parse the wire format, verifying the checksum first. `path` is
    /// only used in error messages.
    pub fn decode(text: &str, path: &Path) -> Result<Self, ConvStencilError> {
        let (header, payload) = text
            .split_once('\n')
            .ok_or_else(|| read_err(path, "missing header line"))?;
        let mut magic_ok = false;
        let mut want_crc = None;
        let mut want_len = None;
        let mut toks = header.split(' ');
        if let (Some(a), Some(b)) = (toks.next(), toks.next()) {
            magic_ok = format!("{a} {b}") == MAGIC;
        }
        for tok in toks {
            if let Some(v) = tok.strip_prefix("crc64=") {
                want_crc = u64::from_str_radix(v, 16).ok();
            } else if let Some(v) = tok.strip_prefix("payload_bytes=") {
                want_len = v.parse::<usize>().ok();
            }
        }
        if !magic_ok {
            return Err(read_err(path, "not a ConvStencil checkpoint (bad magic)"));
        }
        let want_crc = want_crc.ok_or_else(|| read_err(path, "header missing crc64"))?;
        let want_len = want_len.ok_or_else(|| read_err(path, "header missing payload_bytes"))?;
        if payload.len() != want_len {
            return Err(read_err(
                path,
                format!(
                    "truncated payload: {} bytes on disk, header says {}",
                    payload.len(),
                    want_len
                ),
            ));
        }
        let got_crc = crc64(payload.as_bytes());
        if got_crc != want_crc {
            return Err(read_err(
                path,
                format!("checksum mismatch: computed {got_crc:016x}, header says {want_crc:016x}"),
            ));
        }
        Self::decode_payload(payload)
            .map_err(|e| read_err(path, format!("field `{}`: {}", e.key, e.why)))
    }

    fn decode_payload(payload: &str) -> FieldResult<Self> {
        let mut ck = Checkpoint {
            job: String::new(),
            dim: 0,
            radius: 0,
            weights: Vec::new(),
            fusion: 1,
            boundary: "dirichlet".to_string(),
            variant: [false; 4],
            flags: [false; 3],
            steps_total: 0,
            steps_done: 0,
            checkpoint_every: 0,
            grid_dims: Vec::new(),
            grid_halo: 0,
            grid_data: Vec::new(),
            counters: Counters::default(),
            launch_stats: LaunchStats::default(),
            migrations: 0,
            degraded: false,
            checkpoints_written: 0,
            faults_detected: 0,
            retries: 0,
            pool_completed: 0,
            active_device: None,
            sanitizer: None,
            devices: Vec::new(),
        };
        let mut seen_dim = false;
        for line in payload.lines() {
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or(FieldError {
                key: "payload",
                why: format!("line without `=`: {line:?}"),
            })?;
            match key {
                "job" => ck.job = value.to_string(),
                "dim" => {
                    let dim = parse_u64("dim", value)?;
                    ck.dim = u8::try_from(dim).map_err(|_| FieldError {
                        key: "dim",
                        why: format!("{dim} out of range (want 1..=3)"),
                    })?;
                    seen_dim = true;
                }
                "radius" => ck.radius = parse_usize("radius", value)?,
                "weights" => ck.weights = parse_f64_list("weights", value)?,
                "fusion" => ck.fusion = parse_usize("fusion", value)?,
                "boundary" => ck.boundary = value.to_string(),
                "variant" => {
                    let bits: Vec<&str> = value.split(',').collect();
                    if bits.len() != 4 {
                        return field_err(
                            "variant",
                            format!("want 4 switches, got {}", bits.len()),
                        );
                    }
                    for (i, b) in bits.iter().enumerate() {
                        ck.variant[i] = parse_bool("variant", b)?;
                    }
                }
                "flags" => {
                    let bits: Vec<&str> = value.split(',').collect();
                    if bits.len() != 3 {
                        return field_err("flags", format!("want 3 flags, got {}", bits.len()));
                    }
                    for (i, b) in bits.iter().enumerate() {
                        ck.flags[i] = parse_bool("flags", b)?;
                    }
                }
                "steps_total" => ck.steps_total = parse_u64("steps_total", value)?,
                "steps_done" => ck.steps_done = parse_u64("steps_done", value)?,
                "checkpoint_every" => ck.checkpoint_every = parse_u64("checkpoint_every", value)?,
                "grid_dims" => {
                    ck.grid_dims = value
                        .split(',')
                        .map(|d| parse_usize("grid_dims", d))
                        .collect::<FieldResult<_>>()?;
                }
                "grid_halo" => ck.grid_halo = parse_usize("grid_halo", value)?,
                "grid_data" => ck.grid_data = parse_f64_list("grid_data", value)?,
                "counters" => {
                    for pair in value.split(',') {
                        let (k, v) = pair.split_once(':').ok_or(FieldError {
                            key: "counters",
                            why: format!("bad pair {pair:?}"),
                        })?;
                        if !ck.counters.set_field(k, parse_u64("counters", v)?) {
                            return field_err("counters", format!("unknown counter {k:?}"));
                        }
                    }
                }
                "launches" => {
                    for pair in value.split(',') {
                        let (k, v) = pair.split_once(':').ok_or(FieldError {
                            key: "launches",
                            why: format!("bad pair {pair:?}"),
                        })?;
                        match k {
                            "kernel_launches" => {
                                ck.launch_stats.kernel_launches = parse_u64("launches", v)?
                            }
                            "total_blocks" => {
                                ck.launch_stats.total_blocks = parse_u64("launches", v)?
                            }
                            other => {
                                return field_err("launches", format!("unknown stat {other:?}"))
                            }
                        }
                    }
                }
                "job_stats" => {
                    for pair in value.split(',') {
                        let (k, v) = pair.split_once(':').ok_or(FieldError {
                            key: "job_stats",
                            why: format!("bad pair {pair:?}"),
                        })?;
                        match k {
                            "migrations" => ck.migrations = parse_u64("job_stats", v)?,
                            "degraded" => ck.degraded = parse_bool("job_stats", v)?,
                            "checkpoints_written" => {
                                ck.checkpoints_written = parse_u64("job_stats", v)?
                            }
                            "faults_detected" => ck.faults_detected = parse_u64("job_stats", v)?,
                            "retries" => ck.retries = parse_u64("job_stats", v)?,
                            other => {
                                return field_err("job_stats", format!("unknown stat {other:?}"))
                            }
                        }
                    }
                }
                "pool_completed" => ck.pool_completed = parse_u64("pool_completed", value)?,
                "active_device" => {
                    ck.active_device = if value == "-" {
                        None
                    } else {
                        Some(parse_usize("active_device", value)?)
                    };
                }
                "sanitizer" => {
                    let s = ck.sanitizer.get_or_insert_with(SanitizerReport::default);
                    for pair in value.split(',') {
                        let (k, v) = pair.split_once(':').ok_or(FieldError {
                            key: "sanitizer",
                            why: format!("bad pair {pair:?}"),
                        })?;
                        let v = parse_u64("sanitizer", v)?;
                        match k {
                            "init" => s.init_total = v,
                            "mem" => s.mem_total = v,
                            "race" => s.race_total = v,
                            "bank" => s.bank_total = v,
                            other => {
                                return field_err("sanitizer", format!("unknown total {other:?}"))
                            }
                        }
                    }
                }
                "sanitizer_load" | "sanitizer_store" => {
                    let s = ck.sanitizer.get_or_insert_with(SanitizerReport::default);
                    let vals: Vec<u64> = value
                        .split(',')
                        .map(|v| parse_u64("sanitizer_histogram", v))
                        .collect::<FieldResult<_>>()?;
                    if vals.len() != Phase::ALL.len() {
                        return field_err(
                            "sanitizer_histogram",
                            format!("want {} phases, got {}", Phase::ALL.len(), vals.len()),
                        );
                    }
                    let dst = if key == "sanitizer_load" {
                        &mut s.load_conflicts
                    } else {
                        &mut s.store_conflicts
                    };
                    dst.copy_from_slice(&vals);
                }
                "device" => {
                    let mut id = None;
                    let mut plan = None;
                    let mut epoch = 0;
                    let mut attempts = 0;
                    let mut dead = false;
                    let mut breaker = None;
                    for (i, part) in value.split(';').enumerate() {
                        if i == 0 {
                            id = Some(parse_usize("device.id", part)?);
                            continue;
                        }
                        let (k, v) = part.split_once('=').ok_or(FieldError {
                            key: "device",
                            why: format!("bad part {part:?}"),
                        })?;
                        match k {
                            "plan" => plan = Some(decode_plan(v)?),
                            "epoch" => epoch = parse_u64("device.epoch", v)?,
                            "attempts" => attempts = parse_u64("device.attempts", v)?,
                            "dead" => dead = parse_bool("device.dead", v)?,
                            "breaker" => breaker = Some(decode_breaker(v)?),
                            other => return field_err("device", format!("unknown part {other:?}")),
                        }
                    }
                    ck.devices.push(DeviceCursor {
                        id: id.ok_or(FieldError {
                            key: "device",
                            why: "missing id".to_string(),
                        })?,
                        plan: plan.unwrap_or(None),
                        fault_epoch: epoch,
                        launch_attempts: attempts,
                        dead,
                        breaker: breaker.ok_or(FieldError {
                            key: "device",
                            why: "missing breaker state".to_string(),
                        })?,
                    });
                }
                other => {
                    return field_err("payload", format!("unknown key {other:?}"));
                }
            }
        }
        if !seen_dim || !(1..=3).contains(&ck.dim) {
            return field_err("dim", "missing or out of range (want 1..=3)");
        }
        if ck.grid_dims.len() != ck.dim as usize {
            return field_err(
                "grid_dims",
                format!("{} extents for a {}D grid", ck.grid_dims.len(), ck.dim),
            );
        }
        Ok(ck)
    }

    /// Write atomically into `dir` (created if missing) under the
    /// canonical [`Checkpoint::file_name`]. Returns the final path.
    pub fn save(&self, dir: &Path) -> Result<PathBuf, ConvStencilError> {
        self.save_with(dir, &mut Vec::new())
    }

    /// [`Checkpoint::save`], encoding into `buf` (see
    /// [`Checkpoint::encode_into`]) so a job can reuse one buffer for all
    /// of its saves.
    pub(crate) fn save_with(
        &self,
        dir: &Path,
        buf: &mut Vec<u8>,
    ) -> Result<PathBuf, ConvStencilError> {
        std::fs::create_dir_all(dir).map_err(|e| ConvStencilError::ArtifactWrite {
            path: dir.display().to_string(),
            reason: e.to_string(),
        })?;
        let path = dir.join(Self::file_name(&self.job, self.steps_done));
        self.encode_into(buf);
        atomic_write(&path, buf).map_err(|e| ConvStencilError::ArtifactWrite {
            path: path.display().to_string(),
            reason: e.to_string(),
        })?;
        Ok(path)
    }

    /// Read and verify one checkpoint file.
    pub fn load(path: &Path) -> Result<Self, ConvStencilError> {
        let text = std::fs::read_to_string(path).map_err(|e| read_err(path, e.to_string()))?;
        Self::decode(&text, path)
    }
}

/// Scan `dir` for checkpoints (optionally restricted to one job name),
/// newest step first, and return the first one that loads cleanly plus a
/// warning line for every file that had to be skipped (corrupt,
/// truncated, unreadable). Fails with [`ConvStencilError::ArtifactRead`]
/// only when no valid checkpoint exists at all.
pub fn load_latest(
    dir: &Path,
    job: Option<&str>,
) -> Result<(Checkpoint, Vec<String>), ConvStencilError> {
    let entries = std::fs::read_dir(dir).map_err(|e| read_err(dir, e.to_string()))?;
    let mut candidates: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !name.ends_with(&format!(".{EXTENSION}")) {
            continue;
        }
        if let Some(job) = job {
            if !name.starts_with(&format!("{job}.step")) {
                continue;
            }
        }
        // Parse the trailing `.step<NNNNNNNN>.ckpt` for newest-first order;
        // unparseable names sort oldest so they are still tried last.
        let step = name
            .rsplit(".step")
            .next()
            .and_then(|rest| rest.strip_suffix(&format!(".{EXTENSION}")))
            .and_then(|digits| digits.parse::<u64>().ok())
            .unwrap_or(0);
        candidates.push((step, path));
    }
    if candidates.is_empty() {
        return Err(read_err(
            dir,
            match job {
                Some(job) => format!("no checkpoint files for job {job:?}"),
                None => "no checkpoint files".to_string(),
            },
        ));
    }
    candidates.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| b.1.cmp(&a.1)));
    let mut warnings = Vec::new();
    for (_, path) in &candidates {
        match Checkpoint::load(path) {
            Ok(ck) => return Ok((ck, warnings)),
            Err(e) => warnings.push(format!("skipping {}: {e}", path.display())),
        }
    }
    Err(read_err(
        dir,
        format!(
            "all {} checkpoint files are corrupt or unreadable ({})",
            candidates.len(),
            warnings.join("; ")
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerState;

    fn sample() -> Checkpoint {
        Checkpoint {
            job: "heat".to_string(),
            dim: 2,
            radius: 1,
            weights: vec![0.0, 0.1, 0.0, 0.1, 0.6, 0.1, 0.0, 0.1, 0.0],
            fusion: 3,
            boundary: "dirichlet".to_string(),
            variant: [false, true, true, true],
            flags: [true, false, true],
            steps_total: 8,
            steps_done: 4,
            checkpoint_every: 2,
            grid_dims: vec![8, 16],
            grid_halo: 3,
            grid_data: (0..(8 + 6) * (16 + 6)).map(|i| (i as f64).sin()).collect(),
            counters: {
                let mut c = Counters::default();
                c.set_field("dmma_ops", 123);
                c.set_field("hang_stall_cycles", 7);
                c
            },
            launch_stats: LaunchStats {
                kernel_launches: 9,
                total_blocks: 81,
            },
            migrations: 1,
            degraded: false,
            checkpoints_written: 2,
            faults_detected: 3,
            retries: 1,
            pool_completed: 2,
            active_device: Some(1),
            sanitizer: None,
            devices: vec![
                DeviceCursor {
                    id: 0,
                    plan: Some(
                        FaultPlan::quiet(7)
                            .with_device_death_at(5)
                            .with_ecc_burst(1, 2)
                            .with_hang_at(3, 1000),
                    ),
                    fault_epoch: 2,
                    launch_attempts: 6,
                    dead: true,
                    breaker: BreakerState::Open { until_jobs: 4 },
                },
                DeviceCursor {
                    id: 1,
                    plan: None,
                    fault_epoch: 0,
                    launch_attempts: 3,
                    dead: false,
                    breaker: BreakerState::Closed {
                        consecutive_failures: 1,
                    },
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let ck = sample();
        let text = ck.encode();
        let back = Checkpoint::decode(&text, Path::new("mem")).expect("round trip");
        assert_eq!(back, ck);
        // f64 bit patterns survive exactly, including non-finite values.
        let mut odd = ck;
        odd.grid_data[0] = f64::NAN;
        odd.grid_data[1] = -0.0;
        odd.grid_data[2] = f64::INFINITY;
        let back = Checkpoint::decode(&odd.encode(), Path::new("mem")).expect("round trip");
        assert_eq!(back.grid_data[0].to_bits(), odd.grid_data[0].to_bits());
        assert_eq!(back.grid_data[1].to_bits(), odd.grid_data[1].to_bits());
        assert_eq!(back.grid_data[2].to_bits(), odd.grid_data[2].to_bits());
    }

    #[test]
    fn encode_into_a_reused_buffer_gives_the_encode_bytes() {
        let ck = sample();
        let mut long = ck.clone();
        long.grid_data.extend_from_slice(&ck.grid_data);
        let mut short = ck.clone();
        short.grid_data.truncate(5);
        for held in [long, short] {
            let mut buf = Vec::new();
            held.encode_into(&mut buf);
            ck.encode_into(&mut buf);
            let points = held.grid_data.len();
            assert_eq!(buf, ck.encode().as_bytes(), "after {points} points");
        }
    }

    #[test]
    fn truncation_and_corruption_are_rejected() {
        let text = sample().encode();
        let truncated = &text[..text.len() - 10];
        let err = Checkpoint::decode(truncated, Path::new("t")).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // Flip one payload byte without changing the length.
        let mut bytes = text.clone().into_bytes();
        let idx = text.find("grid_data=").unwrap() + 15;
        bytes[idx] ^= 0x01;
        let corrupt = String::from_utf8(bytes).unwrap();
        let err = Checkpoint::decode(&corrupt, Path::new("c")).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    /// Re-wrap an edited payload under a valid header, so only the field
    /// checks can reject it.
    fn with_valid_header(payload: &str) -> String {
        format!(
            "{MAGIC} crc64={:016x} payload_bytes={}\n{payload}",
            crc64(payload.as_bytes()),
            payload.len()
        )
    }

    fn decode_edited(from: &str, to: &str) -> Result<Checkpoint, ConvStencilError> {
        let text = sample().encode();
        let payload = text.split_once('\n').unwrap().1;
        assert!(payload.contains(from), "{from:?} not in the sample payload");
        Checkpoint::decode(
            &with_valid_header(&payload.replace(from, to)),
            Path::new("e"),
        )
    }

    #[test]
    fn dim_beyond_u8_is_a_field_error_not_a_wrapped_dim() {
        // 257 used to be cast `as u8` and load as a 1D job.
        let err = decode_edited("\ndim=2\n", "\ndim=257\n").unwrap_err();
        assert!(err.to_string().contains("field `dim`"), "{err}");
        assert!(err.to_string().contains("257"), "{err}");
        assert!(decode_edited("\ndim=2\n", "\ndim=2\n").is_ok());
    }

    #[test]
    fn breaker_count_beyond_u32_is_a_field_error_not_a_wrapped_count() {
        // 2^32 + 1 used to be cast `as u32` and load as 1 failure.
        let err = decode_edited("breaker=closed:1\n", "breaker=closed:4294967297\n").unwrap_err();
        assert!(err.to_string().contains("field `device.breaker`"), "{err}");
        let ck = decode_edited("breaker=closed:1\n", "breaker=closed:4294967295\n").unwrap();
        assert_eq!(
            ck.devices[1].breaker,
            BreakerState::Closed {
                consecutive_failures: u32::MAX
            }
        );
    }

    /// The fast stride parser must agree with the generic one: equal bits
    /// on success, the same key and message on failure.
    fn assert_list_parsers_agree(s: &str) {
        let fast = parse_f64_list("k", s);
        let generic = if s.is_empty() {
            Ok(Vec::new())
        } else {
            parse_f64_tokens("k", s)
        };
        match (fast, generic) {
            (Ok(a), Ok(b)) => {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a), bits(&b), "{s:?}");
            }
            (Err(a), Err(b)) => {
                assert_eq!((a.key, &a.why), (b.key, &b.why), "{s:?}");
            }
            (a, b) => panic!("{s:?}: fast ok={} but generic ok={}", a.is_ok(), b.is_ok()),
        }
    }

    #[test]
    fn fast_list_parser_agrees_with_the_generic_parser() {
        let cases = [
            "",
            "0",
            "0,1",
            "3ff0000000000000",
            "3ff0000000000000,7ff8000000000000,8000000000000000",
            "3FF0000000000000,7FF8000000000000",
            "3Ff0000000000000,7fF8DEADbeef0000",
            "fffffffffffffff",
            "00000000000000001",
            "10000000000000000",
            "+3ff000000000000",
            "+3ff000000000000,0000000000000000",
            "-3ff000000000000",
            "3ff000000000000g",
            "3ff0000000000000 ",
            " 3ff000000000000",
            ",",
            ",3ff0000000000000",
            "3ff0000000000000,",
            "3ff0000000000000,,3ff0000000000000",
            "3ff0000000000000;3ff0000000000000",
            // 15 + 17 digits: a whole number of strides, commas misplaced.
            "000000000000001,00000000000000002",
            "3ff0000000000000,3ff0000000000000\n",
            "3ff0000000000000,3ff00000000000é",
        ];
        for case in cases {
            assert_list_parsers_agree(case);
        }
        // Every single-byte substitution in a canonical three-value list.
        let canonical = "3ff0000000000000,7ff8000000000001,800000000000000f";
        for pos in 0..canonical.len() {
            for sub in [b'0', b'a', b'F', b'g', b',', b'+', b'-', b' ', b';'] {
                let mut bytes = canonical.as_bytes().to_vec();
                bytes[pos] = sub;
                assert_list_parsers_agree(std::str::from_utf8(&bytes).unwrap());
            }
        }
    }

    #[test]
    fn load_latest_skips_corrupt_and_picks_newest_valid() {
        let dir = std::env::temp_dir().join(format!("ckpt_scan_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ck = sample();
        ck.steps_done = 2;
        ck.save(&dir).unwrap();
        ck.steps_done = 4;
        ck.save(&dir).unwrap();
        ck.steps_done = 6;
        let newest = ck.save(&dir).unwrap();
        // Corrupt the newest file in place.
        let mut bytes = std::fs::read(&newest).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0xFF;
        std::fs::write(&newest, bytes).unwrap();
        let (loaded, warnings) = load_latest(&dir, Some("heat")).expect("fallback");
        assert_eq!(loaded.steps_done, 4, "newest valid wins");
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("step00000006"), "{warnings:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_corrupt_is_a_typed_artifact_read_error() {
        let dir = std::env::temp_dir().join(format!("ckpt_bad_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("x.step00000001.ckpt"), "garbage").unwrap();
        let err = load_latest(&dir, None).unwrap_err();
        assert!(
            matches!(err, ConvStencilError::ArtifactRead { .. }),
            "{err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
