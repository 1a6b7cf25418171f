//! One scratch root for every directory a run writes.
//!
//! The driver requires the benchmark to read and write only inside its
//! checkout, and the platform puts its spill directories under
//! `std::env::temp_dir()`. So the benchmark points `TMPDIR` at
//! `<cwd>/.bench_out/tmp` before anything else runs and keeps its own WAL,
//! checkpoint and recorder directories under
//! `temp_dir()/cdp-benchmark-<pid>/`, which is removed when the root drops —
//! after a failed check too.

use std::cell::Cell;
use std::path::{Path, PathBuf};

/// Directory (relative to the working directory) holding everything the
/// benchmark leaves behind: `tmp/` (scratch, removed) and `traces/` (kept).
pub const OUT_DIR: &str = ".bench_out";

/// The per-process scratch root.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: Cell<u64>,
}

impl Scratch {
    /// Redirects `TMPDIR` into the working directory and creates the root.
    /// Call once, before any thread is spawned.
    ///
    /// # Errors
    /// I/O errors creating the directories.
    pub fn create() -> std::io::Result<Self> {
        let tmp = std::env::current_dir()?.join(OUT_DIR).join("tmp");
        std::fs::create_dir_all(&tmp)?;
        std::env::set_var("TMPDIR", &tmp);
        let root = std::env::temp_dir().join(format!("cdp-benchmark-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            next: Cell::new(0),
        })
    }

    /// A fresh, not yet created directory path under the root.
    pub fn fresh(&self, label: &str) -> PathBuf {
        let n = self.next.replace(self.next.get() + 1);
        self.root.join(format!("{label}-{n}"))
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Copies the regular files of `from` into a new directory `to`.
///
/// # Errors
/// I/O errors creating `to` or copying a file.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.metadata()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}
