//! Chunked arena for event payload bytes.
//!
//! Events that arrive off the network decode their blob payloads as
//! zero-copy views into the arrival frame ([`crate::wire::WireReader::from_shared`]).
//! That is the right call on the hot path — no copy per event — but it
//! means a stored event **pins its whole frame**: a 40-byte payload
//! sliced out of a coalesced multi-command frame keeps the entire
//! frame allocation alive for as long as the `EventStore` retains the
//! event. Across thousands of retained events that multiplies resident
//! memory by the frame-to-payload ratio.
//!
//! [`PayloadArena`] fixes this by re-homing such payloads into dense
//! refcounted chunks: `alloc` copies the payload bytes into the
//! arena's current chunk and returns a [`Bytes`] view of just those
//! bytes. A full chunk is simply let go of: its allocation frees itself
//! when the store prunes the last event viewing it.
//!
//! The [`PayloadArena::rehome`] policy deliberately skips payloads
//! that already own their whole backing allocation (e.g. a sensor's
//! cached emission blob shared by every clone): copying those would
//! *increase* memory. Only views that pin extra bytes are re-homed.

use crate::event::Payload;
use bytes::{Bytes, BytesMut};

/// Chunk size: large enough to pack hundreds of Table-3-sized
/// payloads, small enough that one straggler view pins little.
const CHUNK_BYTES: usize = 64 * 1024;

/// A chunked slab allocator handing out refcounted [`Bytes`] payload
/// views (see the module docs for their lifecycle).
#[derive(Debug, Default)]
pub struct PayloadArena {
    /// The chunk currently being filled (empty until first use).
    chunk: BytesMut,
}

impl PayloadArena {
    /// Creates an arena; the first chunk is allocated lazily on first
    /// use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies `data` into the arena, returning a view of exactly those
    /// bytes. Oversize payloads (≥ one chunk) get standalone
    /// allocations so they never hold a chunk hostage.
    pub fn alloc(&mut self, data: &[u8]) -> Bytes {
        if data.len() >= CHUNK_BYTES {
            return Bytes::copy_from_slice(data);
        }
        if self.chunk.capacity() - self.chunk.len() < data.len() {
            // Start a fresh chunk; the full one lives on in its views.
            self.chunk = BytesMut::with_capacity(CHUNK_BYTES);
        }
        self.chunk.extend_from_slice(data);
        self.chunk.split().freeze()
    }

    /// Re-homes a payload into the arena **if doing so releases
    /// memory**: blob views pinning a larger backing allocation (a
    /// network frame, a coalesced batch) are copied into a chunk;
    /// whole-backing blobs, scalars, and empty payloads pass through
    /// untouched. Returns the payload to store.
    pub fn rehome(&mut self, payload: Payload) -> Payload {
        match payload {
            Payload::Blob(b) if b.backing_len() > b.len() => Payload::Blob(self.alloc(&b)),
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocs_pack_into_one_chunk() {
        let mut arena = PayloadArena::new();
        let a = arena.alloc(b"first");
        let b = arena.alloc(b"second");
        assert_eq!(a, &b"first"[..]);
        assert_eq!(b, &b"second"[..]);
        // Dense packing: consecutive allocations are adjacent in the
        // same backing chunk.
        assert_eq!(
            b.as_ref().as_ptr() as usize,
            a.as_ref().as_ptr() as usize + a.len()
        );
        assert_eq!(
            (a.backing_len(), b.backing_len()),
            (CHUNK_BYTES, CHUNK_BYTES)
        );
    }

    #[test]
    fn full_chunk_is_replaced_and_its_views_survive() {
        let mut arena = PayloadArena::new();
        // Two allocations of just over half a chunk cannot share one.
        let half = CHUNK_BYTES / 2 + 1;
        let pinned = arena.alloc(&vec![1u8; half]);
        let second = arena.alloc(&vec![2u8; half]);
        let start = pinned.as_ref().as_ptr() as usize;
        let second_at = second.as_ref().as_ptr() as usize;
        assert!(
            !(start..start + CHUNK_BYTES).contains(&second_at),
            "the second allocation lives in a fresh chunk"
        );
        assert_eq!(second.backing_len(), CHUNK_BYTES);
        assert_eq!(pinned, &vec![1u8; half][..], "live view unharmed");
    }

    #[test]
    fn oversize_payloads_bypass_chunks() {
        let mut arena = PayloadArena::new();
        let big = arena.alloc(&vec![9u8; CHUNK_BYTES]);
        assert_eq!(big.len(), CHUNK_BYTES);
        assert_eq!(
            arena.chunk.capacity(),
            0,
            "no chunk opened for an oversize alloc"
        );
    }

    #[test]
    fn rehome_copies_only_pinning_views() {
        let mut arena = PayloadArena::new();
        // A small view pinning a frame bigger than a chunk must be
        // re-homed.
        let frame = Bytes::from(vec![7u8; 2 * CHUNK_BYTES]);
        let view = frame.slice_ref(&frame[100..116]);
        let rehomed = arena.rehome(Payload::Blob(view.clone()));
        let Payload::Blob(out) = &rehomed else {
            panic!("blob stays blob")
        };
        assert_eq!(*out, view, "contents preserved");
        assert!(out.backing_len() <= CHUNK_BYTES, "no longer pins the frame");
        // A whole-backing blob (shared sensor emission) passes through.
        let owned = Bytes::from(vec![1u8; 64]);
        let kept = arena.rehome(Payload::Blob(owned.clone()));
        assert_eq!(kept, Payload::Blob(owned));
        // Nothing was copied into the arena: the next allocation
        // follows the re-homed view directly.
        let next = arena.alloc(b"next");
        assert_eq!(
            next.as_ref().as_ptr() as usize,
            out.as_ref().as_ptr() as usize + out.len(),
            "no copy for whole-backing blob"
        );
        // Non-blob payloads pass through untouched.
        assert_eq!(arena.rehome(Payload::Scalar(2.5)), Payload::Scalar(2.5));
        assert_eq!(arena.rehome(Payload::Empty), Payload::Empty);
    }
}
