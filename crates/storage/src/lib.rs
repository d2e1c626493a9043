//! Durable storage for Rivulet processes.
//!
//! The paper's prototype keeps replicated event state in memory and
//! relies on replication across home processes for availability
//! (§4.1); any durability beyond the home is delegated to the cloud
//! tier. This crate adds the missing local-durability layer: a
//! segmented write-ahead log each process appends events and operator
//! checkpoints to *before* acknowledging them, so a crash-and-restart
//! (as opposed to a permanent failure masked by failover, §5) recovers
//! the exact durable prefix of its replicated store.
//!
//! # Pieces
//!
//! * [`wal::Wal`] — the log: CRC32-framed records ([`record`]),
//!   group-commit batching ([`wal::FlushPolicy`]), segment rotation,
//!   checkpoint-driven prefix compaction, and recovery.
//! * [`backend::StorageBackend`] — the disk abstraction, with a real
//!   filesystem implementation ([`fs::FsBackend`]) and a deterministic
//!   simulated disk ([`sim::SimBackend`]) whose fault model (torn
//!   tails, lying fsync, bit rot) and virtual-time cost profile drive
//!   the crash-recovery test suite and the `micro_wal` benchmark.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use rivulet_storage::{SimBackend, StorageBackend, Wal, WalOptions};
//! use rivulet_types::{Event, EventId, EventKind, SensorId, Time};
//!
//! let backend = Arc::new(SimBackend::new(7));
//! let (mut wal, recovered) =
//!     Wal::open(backend.clone() as Arc<dyn StorageBackend>, WalOptions::default()).unwrap();
//! assert!(recovered.events.is_empty());
//!
//! let event = Event::new(EventId::new(SensorId(1), 1), EventKind::Motion, Time::ZERO);
//! wal.append_event(&event).unwrap(); // buffered, not yet durable
//! wal.flush().unwrap(); // durable
//!
//! // A crash later, the event is still there.
//! backend.crash();
//! let (_, recovered) =
//!     Wal::open(backend as Arc<dyn StorageBackend>, WalOptions::default()).unwrap();
//! assert_eq!(recovered.events, vec![event]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod crc;
pub mod fs;
pub mod ledger;
pub mod record;
pub mod sha256;
pub mod sim;
pub mod wal;

pub use backend::{SegmentId, StorageBackend, StorageError};
pub use fs::FsBackend;
pub use ledger::{
    AuditTrail, BrokenLink, LedgerChain, LedgerEntry, LedgerVerifier, RoutineTransition,
};
pub use record::{Checkpoint, WalRecord};
pub use sha256::Sha256;
pub use sim::{FaultConfig, SimBackend};
pub use wal::{FlushPolicy, Recovered, Wal, WalOptions};
