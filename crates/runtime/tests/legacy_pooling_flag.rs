//! A v1 checkpoint's third flag once selected scratch pooling. It is
//! always written as 1 and ignored on read, so a file that a runner with
//! pooling off wrote (`flags=…,0`) must decode and resume exactly like
//! the same file with `flags=…,1`.

use std::path::Path;

use convstencil_runtime::{crc64, load_latest, Checkpoint, JobPayload, Runtime, RuntimeConfig};

const FIXTURE: &str = include_str!("data/checkpoint_v1.ckpt");

/// The fixture with its job un-degraded (so resumed chunks launch on its
/// live device) and the given flags, under a re-sealed header.
fn fixture_with_flags(flags: &str) -> String {
    let payload = FIXTURE.split_once('\n').unwrap().1;
    let payload = payload
        .replace("degraded:1,", "degraded:0,")
        .replace("\nflags=0,1,1\n", &format!("\nflags={flags}\n"));
    let crc = crc64(payload.as_bytes());
    format!(
        "CONVSTENCIL-CKPT v1 crc64={crc:016x} payload_bytes={}\n{payload}",
        payload.len()
    )
}

/// Resume the job in `text` from a fresh directory: the final grid bits,
/// the report's `Debug` rendering, and the flags of the last file written.
fn resume(text: &str, tag: &str) -> (Vec<u64>, String, [bool; 3]) {
    let dir = std::env::temp_dir().join(format!("cs_legacy_flag_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ck = Checkpoint::decode(text, Path::new(tag)).unwrap();
    let path = dir.join(Checkpoint::file_name(&ck.job, ck.steps_done));
    std::fs::write(path, text).unwrap();
    let rt = Runtime::new(RuntimeConfig {
        devices: ck.devices.len(),
        checkpoint_every: ck.checkpoint_every,
        checkpoint_dir: Some(dir.clone()),
        ..RuntimeConfig::default()
    });
    let (done, warnings) = rt.resume(Some(&ck.job)).unwrap();
    let (last, _) = load_latest(&dir, Some(&ck.job)).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(last.steps_done, ck.steps_total);
    assert!(!done.report.degraded);
    assert!(done.report.launch_stats.kernel_launches > ck.launch_stats.kernel_launches);
    let JobPayload::D2 { grid, .. } = &done.payload else {
        panic!("the fixture holds a 2D job");
    };
    let bits = grid.padded().iter().map(|v| v.to_bits()).collect();
    (bits, format!("{:?}", done.report), last.flags)
}

#[test]
fn pooling_flag_zero_decodes_and_resumes_like_one() {
    let off = fixture_with_flags("0,1,0");
    let ck = Checkpoint::decode(&off, Path::new("off")).unwrap();
    assert_eq!(ck.flags, [false, true, false]);
    let (on_bits, on_report, on_flags) = resume(&fixture_with_flags("0,1,1"), "on");
    let (off_bits, off_report, off_flags) = resume(&off, "off");
    assert_eq!(on_bits, off_bits);
    assert_eq!(on_report, off_report);
    // Both runs write the third flag as 1.
    assert_eq!([on_flags, off_flags], [[false, true, true]; 2]);
}
