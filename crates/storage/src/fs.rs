//! Real-filesystem storage backend (`std::fs`).
//!
//! Segments are files named `seg-XXXXXXXX.wal` inside one directory
//! per process. Appends buffer in the OS page cache;
//! [`StorageBackend::sync`] maps to `fdatasync`, matching the
//! durability split the [`StorageBackend`] contract requires.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use rivulet_types::Duration;

use crate::backend::{Result, SegmentId, StorageBackend, StorageError};

fn io_err(e: &std::io::Error) -> StorageError {
    StorageError::Io(e.to_string())
}

/// Storage backend writing segments as files under one directory.
#[derive(Debug)]
pub struct FsBackend {
    dir: PathBuf,
}

impl FsBackend {
    /// Opens (creating if needed) the backend rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&e))?;
        Ok(Self { dir })
    }

    /// The directory holding this backend's segments.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn segment_path(&self, id: SegmentId) -> PathBuf {
        self.dir.join(format!("seg-{id:08}.wal"))
    }

    fn open_existing(&self, id: SegmentId, write: bool) -> Result<File> {
        OpenOptions::new()
            .read(!write)
            .write(write)
            .append(write)
            .open(self.segment_path(id))
            .map_err(|e| {
                if e.kind() == std::io::ErrorKind::NotFound {
                    StorageError::MissingSegment(id)
                } else {
                    io_err(&e)
                }
            })
    }
}

impl StorageBackend for FsBackend {
    fn create_segment(&self, id: SegmentId) -> Result<()> {
        match OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(self.segment_path(id))
        {
            Ok(_) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                Err(StorageError::SegmentExists(id))
            }
            Err(e) => Err(io_err(&e)),
        }
    }

    fn append(&self, id: SegmentId, data: &[u8]) -> Result<()> {
        let mut file = self.open_existing(id, true)?;
        file.write_all(data).map_err(|e| io_err(&e))
    }

    fn sync(&self, id: SegmentId) -> Result<()> {
        let file = self.open_existing(id, true)?;
        file.sync_data().map_err(|e| io_err(&e))
    }

    /// `sync_data` returns only once the bytes are on the device, so
    /// no virtual time is left to wait.
    fn sync_cost(&self) -> Duration {
        Duration::ZERO
    }

    fn read_segment(&self, id: SegmentId) -> Result<Vec<u8>> {
        let mut file = self.open_existing(id, false)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf).map_err(|e| io_err(&e))?;
        Ok(buf)
    }

    fn truncate_segment(&self, id: SegmentId, len: u64) -> Result<()> {
        let file = OpenOptions::new()
            .write(true)
            .open(self.segment_path(id))
            .map_err(|e| {
                if e.kind() == std::io::ErrorKind::NotFound {
                    StorageError::MissingSegment(id)
                } else {
                    io_err(&e)
                }
            })?;
        let current = file.metadata().map_err(|e| io_err(&e))?.len();
        if len < current {
            file.set_len(len).map_err(|e| io_err(&e))?;
            file.sync_data().map_err(|e| io_err(&e))?;
        }
        Ok(())
    }

    fn delete_segment(&self, id: SegmentId) -> Result<()> {
        fs::remove_file(self.segment_path(id)).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StorageError::MissingSegment(id)
            } else {
                io_err(&e)
            }
        })
    }

    fn list_segments(&self) -> Result<Vec<SegmentId>> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(&self.dir).map_err(|e| io_err(&e))? {
            let entry = entry.map_err(|e| io_err(&e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(digits) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".wal"))
            {
                if let Ok(id) = digits.parse::<SegmentId>() {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir() -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("rivulet-fs-backend-{}-{n}", std::process::id()))
    }

    #[test]
    fn create_append_read_roundtrip() {
        let dir = scratch_dir();
        let be = FsBackend::open(&dir).unwrap();
        be.create_segment(0).unwrap();
        be.append(0, b"hello ").unwrap();
        be.append(0, b"wal").unwrap();
        be.sync(0).unwrap();
        assert_eq!(be.read_segment(0).unwrap(), b"hello wal");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn list_sorts_and_parses_names() {
        let dir = scratch_dir();
        let be = FsBackend::open(&dir).unwrap();
        be.create_segment(2).unwrap();
        be.create_segment(0).unwrap();
        be.create_segment(10).unwrap();
        fs::write(dir.join("unrelated.txt"), b"x").unwrap();
        assert_eq!(be.list_segments().unwrap(), vec![0, 2, 10]);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn truncate_cuts_tail_and_delete_removes() {
        let dir = scratch_dir();
        let be = FsBackend::open(&dir).unwrap();
        be.create_segment(1).unwrap();
        be.append(1, b"0123456789").unwrap();
        be.truncate_segment(1, 4).unwrap();
        assert_eq!(be.read_segment(1).unwrap(), b"0123");
        // Truncating beyond the end is a no-op, never an extension.
        be.truncate_segment(1, 100).unwrap();
        assert_eq!(be.read_segment(1).unwrap(), b"0123");
        be.delete_segment(1).unwrap();
        assert_eq!(
            be.delete_segment(1).unwrap_err(),
            StorageError::MissingSegment(1)
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn missing_segment_errors() {
        let dir = scratch_dir();
        let be = FsBackend::open(&dir).unwrap();
        assert_eq!(
            be.append(7, b"x").unwrap_err(),
            StorageError::MissingSegment(7)
        );
        assert_eq!(
            be.read_segment(7).unwrap_err(),
            StorageError::MissingSegment(7)
        );
        be.create_segment(7).unwrap();
        assert_eq!(
            be.create_segment(7).unwrap_err(),
            StorageError::SegmentExists(7)
        );
        fs::remove_dir_all(dir).unwrap();
    }
}
