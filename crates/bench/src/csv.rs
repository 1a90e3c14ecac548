//! CSV artifact export: every regenerator binary can persist its
//! rows/series under `results/` so figures can be re-plotted without
//! re-running the simulations.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Where CSV artifacts go (created on demand).
pub const RESULTS_DIR: &str = "results";

/// Whether `--csv` was passed on the command line.
pub fn csv_mode() -> bool {
    std::env::args().any(|a| a == "--csv")
}

/// Escape one CSV cell (quotes fields containing separators, quotes, or
/// either line-break character — a bare `\r` breaks RFC-4180 readers just
/// like `\n` does).
fn escape(cell: &str) -> String {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Per-process counter that, with the pid, makes every temp name unique.
/// `Relaxed` is enough: the value publishes no other data.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `contents` to `path` durably and atomically: write a uniquely
/// named sibling `<path>.<pid>.<seq>.tmp`, fsync it, rename it over the
/// target, then fsync the parent directory so the rename itself survives
/// a crash. A crash mid-write never leaves a truncated artifact, readers
/// see old-or-new, concurrent writers never share a temp file, and a
/// stale temp file from a crashed writer is never reused. The temp name
/// ends in `.tmp`, so scanners that match the target's extension (the
/// checkpoint loader matches `.ckpt`) never pick it up. On any error the
/// temp file is removed.
pub fn atomic_write(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let mut tmp_name = path.as_os_str().to_os_string();
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    tmp_name.push(format!(".{}.{seq}.tmp", std::process::id()));
    let tmp = PathBuf::from(tmp_name);
    // `create_new`: a temp name that already exists belongs to someone
    // else, so fail rather than write into (or later remove) their file.
    let file = std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&tmp)?;
    if let Err(e) = write_and_rename(file, contents, &tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    sync_parent_dir(path)
}

fn write_and_rename(
    mut file: std::fs::File,
    contents: &[u8],
    tmp: &Path,
    path: &Path,
) -> std::io::Result<()> {
    file.write_all(contents)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(tmp, path)
}

/// Fsync the directory holding `path`, making a rename into it durable.
/// Directories cannot be opened for syncing on every platform, so this is
/// a no-op off Unix.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    if cfg!(unix) {
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Write rows (header first) to `results/<name>.csv` atomically. Returns
/// the path.
pub fn write_csv(name: &str, rows: &[Vec<String>]) -> std::io::Result<PathBuf> {
    let dir = Path::new(RESULTS_DIR);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut out = String::new();
    for row in rows {
        let line: Vec<String> = row.iter().map(|c| escape(c)).collect();
        out.push_str(&line.join(","));
        out.push('\n');
    }
    atomic_write(&path, out.as_bytes())?;
    Ok(path)
}

/// Write rows if `--csv` was requested; print where they went.
pub fn maybe_write_csv(name: &str, rows: &[Vec<String>]) {
    if !csv_mode() {
        return;
    }
    match write_csv(name, rows) {
        Ok(path) => println!("[csv] wrote {}", path.display()),
        Err(e) => eprintln!("[csv] failed to write {name}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a,b"), "\"a,b\"");
        assert_eq!(escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(escape("line\nbreak"), "\"line\nbreak\"");
        // A bare carriage return is a record separator to RFC-4180
        // readers and must be quoted too.
        assert_eq!(escape("carriage\rreturn"), "\"carriage\rreturn\"");
        assert_eq!(escape("crlf\r\nrow"), "\"crlf\r\nrow\"");
    }

    #[test]
    fn writes_file_roundtrip() {
        let dir = std::env::temp_dir().join("convstencil_csv_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        let rows = vec![
            vec!["a".to_string(), "b".to_string()],
            vec!["1".to_string(), "x,y".to_string()],
        ];
        let path = write_csv("unit_test", &rows).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        // The temp file must be gone: write_csv publishes via rename.
        let entries = dir_entries(path.parent().unwrap());
        std::env::set_current_dir(old).unwrap();
        assert_eq!(content, "a,b\n1,\"x,y\"\n");
        assert_eq!(
            entries,
            ["unit_test.csv"],
            "atomic rename left the temp file behind"
        );
    }

    #[test]
    fn atomic_write_replaces_existing_content() {
        let dir = std::env::temp_dir().join("convstencil_atomic_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.txt");
        atomic_write(&path, b"first\n").unwrap();
        atomic_write(&path, b"second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        assert_eq!(dir_entries(&dir), ["artifact.txt"], "temp file left behind");
    }

    fn dir_entries(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn concurrent_writers_leave_one_complete_file_and_no_temp() {
        let dir =
            std::env::temp_dir().join(format!("convstencil_atomic_race_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shared.ckpt");
        // Each writer's content is one repeated letter, so a torn or
        // interleaved file is easy to spot.
        let contents: Vec<String> = (0..4u8)
            .map(|i| char::from(b'a' + i).to_string().repeat(64 * 1024))
            .collect();
        // The barrier releases every writer at once each round, so their
        // writes and renames race on one target path.
        let barrier = std::sync::Barrier::new(contents.len());
        std::thread::scope(|scope| {
            for content in &contents {
                let (path, barrier) = (&path, &barrier);
                scope.spawn(move || {
                    for _ in 0..5 {
                        barrier.wait();
                        atomic_write(path, content.as_bytes()).unwrap();
                    }
                });
            }
        });
        let got = std::fs::read_to_string(&path).unwrap();
        assert!(contents.contains(&got), "torn file of {} bytes", got.len());
        assert_eq!(dir_entries(&dir), ["shared.ckpt"], "temp file left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_temp_from_a_crashed_writer_does_not_break_the_next_write() {
        let dir =
            std::env::temp_dir().join(format!("convstencil_atomic_stale_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.csv");
        // A directory in the old fixed temp slot cannot even be opened as
        // a file; a stale temp file is left for its owner to clean up.
        std::fs::create_dir(dir.join("artifact.csv.tmp")).unwrap();
        std::fs::write(dir.join("artifact.csv.1.0.tmp"), "torn").unwrap();
        atomic_write(&path, b"fresh\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "fresh\n");
        assert_eq!(
            dir_entries(&dir),
            ["artifact.csv", "artifact.csv.1.0.tmp", "artifact.csv.tmp"]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_rename_removes_the_temp_file() {
        let dir =
            std::env::temp_dir().join(format!("convstencil_atomic_fail_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("target/occupied")).unwrap();
        // Renaming a file over a non-empty directory fails.
        let err = atomic_write(&dir.join("target"), b"data").unwrap_err();
        assert_ne!(err.kind(), std::io::ErrorKind::NotFound, "{err}");
        assert_eq!(dir_entries(&dir), ["target"], "temp file left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
