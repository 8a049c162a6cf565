//! Crash-safe sweep checkpoints: resume a killed grid run without
//! recomputing (or changing) a single byte.
//!
//! A checkpoint is a JSONL file of `{"record":"checkpoint","key":...,
//! "value":...}` lines mapping a grid point's **content key** to its
//! serialized result. [`CheckpointWriter`] makes every flush crash-safe
//! by construction: the whole file is rewritten to a sibling temp file
//! and atomically renamed over the target, so a `SIGKILL` at any instant
//! leaves either the previous complete checkpoint or the new complete
//! checkpoint — never a torn file. An optional fsync mode additionally
//! syncs the temp file (and, on a best-effort basis, its directory)
//! before the rename for power-loss durability.
//!
//! [`run_grid_resumable`] wires the checkpoint into the sweep engine:
//! points whose content key is already checkpointed are skipped, fresh
//! points stream into the checkpoint as they complete, and the merged
//! results come back in grid order. A point's result depends on the
//! point alone, so a killed-and-resumed sweep's output is
//! byte-identical to an uninterrupted run.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::json::{JsonObject, JsonValue};
use crate::sweep::{run_grid, SweepError, SweepOptions};

/// One checkpointed grid point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointEntry {
    /// The point's content key (canonical over everything that
    /// determines its result).
    pub key: String,
    /// The point's serialized result.
    pub value: String,
}

struct WriterInner {
    entries: Vec<CheckpointEntry>,
    index: HashMap<String, usize>,
}

/// A crash-safe, append-style checkpoint store. Thread-safe: the sweep
/// engine appends from worker threads.
pub struct CheckpointWriter {
    path: PathBuf,
    fsync: bool,
    inner: Mutex<WriterInner>,
}

impl CheckpointWriter {
    /// Opens (or creates) the checkpoint at `path`, loading any entries
    /// a previous run left behind. `fsync` syncs every flush to stable
    /// storage before the atomic rename.
    ///
    /// # Errors
    ///
    /// I/O failures reading an existing checkpoint. Malformed lines
    /// (impossible under the atomic-rename discipline, but possible if
    /// the file was hand-edited) are skipped, not fatal.
    pub fn open(path: impl AsRef<Path>, fsync: bool) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let entries = match fs::read_to_string(&path) {
            Ok(text) => parse_entries(&text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let index = entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.key.clone(), i))
            .collect();
        Ok(CheckpointWriter {
            path,
            fsync,
            inner: Mutex::new(WriterInner { entries, index }),
        })
    }

    /// The checkpoint file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether `key` is already checkpointed.
    pub fn contains(&self, key: &str) -> bool {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .index
            .contains_key(key)
    }

    /// The checkpointed result for `key`, if any.
    pub fn get(&self, key: &str) -> Option<String> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .index
            .get(key)
            .map(|&i| inner.entries[i].value.clone())
    }

    /// Entries currently checkpointed.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .len()
    }

    /// Whether the checkpoint holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records `key -> value` and flushes crash-safely: the full entry
    /// set is written to a temp file and atomically renamed over the
    /// checkpoint path. Re-recording an existing key overwrites it.
    ///
    /// # Errors
    ///
    /// I/O failures writing or renaming the temp file.
    pub fn append(&self, key: &str, value: &str) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match inner.index.get(key) {
            Some(&i) => inner.entries[i].value = value.to_string(),
            None => {
                let i = inner.entries.len();
                inner.entries.push(CheckpointEntry {
                    key: key.to_string(),
                    value: value.to_string(),
                });
                inner.index.insert(key.to_string(), i);
            }
        }
        self.flush_locked(&inner)
    }

    /// Writes the entry set to `<path>.tmp` and renames it into place.
    /// Called with the inner lock held so concurrent appends serialize.
    fn flush_locked(&self, inner: &WriterInner) -> io::Result<()> {
        let tmp = self.path.with_extension("tmp");
        let mut buf = String::new();
        for e in &inner.entries {
            buf.push_str(
                &JsonObject::new()
                    .str("record", "checkpoint")
                    .str("key", &e.key)
                    .str("value", &e.value)
                    .finish(),
            );
            buf.push('\n');
        }
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(buf.as_bytes())?;
        file.flush()?;
        if self.fsync {
            file.sync_all()?;
        }
        drop(file);
        fs::rename(&tmp, &self.path)?;
        if self.fsync {
            // Durability of the rename itself: sync the directory entry.
            // Best-effort — not every platform lets you open a directory.
            if let Some(dir) = self.path.parent() {
                let dir = if dir.as_os_str().is_empty() {
                    Path::new(".")
                } else {
                    dir
                };
                if let Ok(d) = File::open(dir) {
                    let _ = d.sync_all();
                }
            }
        }
        Ok(())
    }
}

/// Parses checkpoint lines, skipping anything malformed (a hand-edited
/// or foreign file); later duplicates of a key win.
fn parse_entries(text: &str) -> Vec<CheckpointEntry> {
    let mut entries: Vec<CheckpointEntry> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(v) = JsonValue::parse(line) else {
            continue;
        };
        if v.get("record").and_then(JsonValue::as_str) != Some("checkpoint") {
            continue;
        }
        let (Some(key), Some(value)) = (
            v.get("key").and_then(JsonValue::as_str),
            v.get("value").and_then(JsonValue::as_str),
        ) else {
            continue;
        };
        match index.get(key) {
            Some(&i) => entries[i].value = value.to_string(),
            None => {
                index.insert(key.to_string(), entries.len());
                entries.push(CheckpointEntry {
                    key: key.to_string(),
                    value: value.to_string(),
                });
            }
        }
    }
    entries
}

/// Reads the entries of a checkpoint file without opening it for
/// writing (e.g. for inspection). Missing file = empty checkpoint.
///
/// # Errors
///
/// I/O failures other than the file not existing.
pub fn read_checkpoint(path: impl AsRef<Path>) -> io::Result<Vec<CheckpointEntry>> {
    match fs::read_to_string(path.as_ref()) {
        Ok(text) => Ok(parse_entries(&text)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

/// [`run_grid`] with checkpoint/resume: points whose content key is
/// already in `ckpt` return their checkpointed result without running;
/// fresh points execute on the worker pool and stream into `ckpt` as
/// they complete (one crash-safe flush per point). Results come back in
/// grid order, and because `run` sees only the point, a resumed run's
/// output is byte-identical to an uninterrupted one.
///
/// # Errors
///
/// Propagates [`SweepError`] from the underlying sweep (a panicking
/// point, or the deadline expiring). Points checkpointed before the
/// failure stay checkpointed, so a later resume continues from there.
///
/// # Panics
///
/// Panics (surfacing as a [`SweepError::Panic`] naming the point) if
/// the checkpoint cannot be written.
pub fn run_grid_resumable<T, K, L, F>(
    points: &[T],
    opts: &SweepOptions,
    key: K,
    label: L,
    run: F,
    ckpt: &CheckpointWriter,
) -> Result<Vec<String>, SweepError>
where
    T: Sync,
    K: Fn(&T) -> String,
    L: Fn(&T) -> String + Sync,
    F: Fn(&T) -> String + Sync,
{
    let total = points.len();
    let keys: Vec<String> = points.iter().map(&key).collect();
    let todo: Vec<usize> = (0..total).filter(|&i| !ckpt.contains(&keys[i])).collect();
    let fresh = run_grid(
        &todo,
        opts,
        |&i| label(&points[i]),
        |&i| {
            let out = run(&points[i]);
            ckpt.append(&keys[i], &out)
                .unwrap_or_else(|e| panic!("checkpoint write failed: {e}"));
            out
        },
    )?;
    let fresh_by_index: HashMap<usize, String> = todo.into_iter().zip(fresh).collect();
    Ok((0..total)
        .map(|i| match fresh_by_index.get(&i) {
            Some(out) => out.clone(),
            None => ckpt
                .get(&keys[i])
                .expect("point neither checkpointed nor freshly run"),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hetmem-ckpt-{tag}-{}", std::process::id()))
    }

    #[test]
    fn append_then_reopen_recovers_entries() {
        let path = temp_path("reopen");
        let _ = fs::remove_file(&path);
        let w = CheckpointWriter::open(&path, false).unwrap();
        assert!(w.is_empty());
        w.append("k1", r#"{"cycles":1}"#).unwrap();
        w.append("k2", "plain text value").unwrap();
        w.append("k1", r#"{"cycles":2}"#).unwrap(); // overwrite wins
        assert_eq!(w.len(), 2);

        let r = CheckpointWriter::open(&path, true).unwrap();
        assert_eq!(r.get("k1").as_deref(), Some(r#"{"cycles":2}"#));
        assert_eq!(r.get("k2").as_deref(), Some("plain text value"));
        assert!(r.contains("k2") && !r.contains("k3"));
        // fsync mode still round-trips.
        r.append("k3", "v3").unwrap();
        assert_eq!(read_checkpoint(&path).unwrap().len(), 3);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_lines_are_skipped_not_fatal() {
        let path = temp_path("torn");
        fs::write(
            &path,
            "{\"record\":\"checkpoint\",\"key\":\"a\",\"value\":\"1\"}\n\
             not json at all\n\
             {\"record\":\"other\",\"key\":\"b\",\"value\":\"2\"}\n\
             {\"record\":\"checkpoint\",\"key\":\"c\"\n",
        )
        .unwrap();
        let w = CheckpointWriter::open(&path, false).unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(w.get("a").as_deref(), Some("1"));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_empty_checkpoint() {
        let path = temp_path("missing");
        let _ = fs::remove_file(&path);
        assert!(read_checkpoint(&path).unwrap().is_empty());
        assert!(CheckpointWriter::open(&path, false).unwrap().is_empty());
    }

    #[test]
    fn resumable_run_skips_checkpointed_points_and_matches_scratch() {
        let points: Vec<u64> = (0..12).collect();
        let opts = SweepOptions {
            threads: 3,
            ..SweepOptions::default()
        };
        let key = |p: &u64| format!("point-{p}");
        // A per-point seed derived from the point, so a resume that ran
        // the wrong point would show up as a byte diff.
        let run = |p: &u64| format!("{}:{:016x}", p * p, crate::rng::mix(*p));

        // Uninterrupted reference run.
        let scratch_path = temp_path("scratch");
        let _ = fs::remove_file(&scratch_path);
        let scratch_ckpt = CheckpointWriter::open(&scratch_path, false).unwrap();
        let reference =
            run_grid_resumable(&points, &opts, key, |p| p.to_string(), run, &scratch_ckpt).unwrap();

        // "Killed" run: only the first 5 points made it to the checkpoint.
        let path = temp_path("resume");
        let _ = fs::remove_file(&path);
        let partial = CheckpointWriter::open(&path, false).unwrap();
        for p in points.iter().take(5) {
            partial.append(&key(p), &run(p)).unwrap();
        }
        drop(partial);

        let resumed_ckpt = CheckpointWriter::open(&path, false).unwrap();
        let ran = std::sync::atomic::AtomicUsize::new(0);
        let resumed = run_grid_resumable(
            &points,
            &opts,
            key,
            |p| p.to_string(),
            |p| {
                ran.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                run(p)
            },
            &resumed_ckpt,
        )
        .unwrap();
        assert_eq!(resumed, reference, "resume must be byte-identical");
        assert_eq!(
            ran.load(std::sync::atomic::Ordering::Relaxed),
            7,
            "only the 7 un-checkpointed points re-ran"
        );
        assert_eq!(resumed_ckpt.len(), 12);
        fs::remove_file(&path).unwrap();
        fs::remove_file(&scratch_path).unwrap();
    }
}
