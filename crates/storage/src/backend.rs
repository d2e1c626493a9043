//! The storage abstraction the WAL writes through.
//!
//! A backend is a flat namespace of numbered *segments* — append-only
//! byte files. The two implementations are [`crate::fs::FsBackend`]
//! (real files via `std::fs`) and [`crate::sim::SimBackend`]
//! (deterministic in-memory disk with a crash/corruption fault model
//! and virtual-time cost accounting, for simulation and tests).
//!
//! Methods take `&self` so a backend can be shared as
//! `Arc<dyn StorageBackend>` between a live process and the recovery
//! path that replaces it after a crash.

use std::error::Error;
use std::fmt;

use rivulet_types::Duration;

/// Identifier of one log segment. Segments are created with strictly
/// increasing ids; recovery scans them in ascending order.
pub type SegmentId = u64;

/// Errors surfaced by storage backends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An underlying I/O operation failed.
    Io(String),
    /// The segment does not exist.
    MissingSegment(SegmentId),
    /// The segment already exists.
    SegmentExists(SegmentId),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(msg) => write!(f, "storage i/o error: {msg}"),
            StorageError::MissingSegment(id) => write!(f, "segment {id} does not exist"),
            StorageError::SegmentExists(id) => write!(f, "segment {id} already exists"),
        }
    }
}

impl Error for StorageError {}

/// Convenience alias for backend results.
pub type Result<T> = std::result::Result<T, StorageError>;

/// An append-only segmented byte store.
///
/// Durability contract: bytes passed to [`append`](Self::append) are
/// *buffered* and survive a crash only once a subsequent
/// [`sync`](Self::sync) on the same segment returns. The WAL relies on
/// this split to implement group commit.
pub trait StorageBackend: Send + Sync {
    /// Creates an empty segment.
    ///
    /// # Errors
    ///
    /// [`StorageError::SegmentExists`] if `id` is already present.
    fn create_segment(&self, id: SegmentId) -> Result<()>;

    /// Appends `data` to the end of segment `id` (buffered, not yet
    /// durable).
    ///
    /// # Errors
    ///
    /// [`StorageError::MissingSegment`] if `id` does not exist.
    fn append(&self, id: SegmentId, data: &[u8]) -> Result<()>;

    /// Makes all previously appended bytes of segment `id` durable.
    ///
    /// # Errors
    ///
    /// [`StorageError::MissingSegment`] if `id` does not exist.
    fn sync(&self, id: SegmentId) -> Result<()>;

    /// How long one [`sync`](Self::sync) keeps the disk busy in virtual
    /// time: the one figure a caller modelling the disk's clock reads.
    /// Zero for a backend whose `sync` blocks for real.
    fn sync_cost(&self) -> Duration;

    /// Reads the full contents of segment `id`.
    ///
    /// # Errors
    ///
    /// [`StorageError::MissingSegment`] if `id` does not exist.
    fn read_segment(&self, id: SegmentId) -> Result<Vec<u8>>;

    /// Truncates segment `id` to `len` bytes (used by recovery to cut
    /// a torn tail). A `len` at or beyond the current size is a no-op.
    ///
    /// # Errors
    ///
    /// [`StorageError::MissingSegment`] if `id` does not exist.
    fn truncate_segment(&self, id: SegmentId, len: u64) -> Result<()>;

    /// Deletes segment `id` (compaction).
    ///
    /// # Errors
    ///
    /// [`StorageError::MissingSegment`] if `id` does not exist.
    fn delete_segment(&self, id: SegmentId) -> Result<()>;

    /// Lists existing segment ids in ascending order.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the namespace cannot be enumerated.
    fn list_segments(&self) -> Result<Vec<SegmentId>>;
}

impl fmt::Debug for dyn StorageBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("dyn StorageBackend")
    }
}
