//! WAL record types and the on-disk frame format.
//!
//! Every log entry is a *frame*:
//!
//! ```text
//! [payload_len: varint] [crc32(payload): 4 bytes LE] [payload]
//! ```
//!
//! where `payload` is the S1 wire encoding of a [`WalRecord`]. The
//! frame reuses the same LEB128 varint scheme as the inter-process
//! codec, so the log shares one serialization stack with the network
//! (paper §7: "custom serialization for events and other messages").
//!
//! Decoding distinguishes a *torn* frame (the buffer ends mid-frame —
//! the expected shape after a crash during an append) from a *corrupt*
//! one (checksum or structural mismatch — bit rot or a torn write that
//! landed mid-stream). Recovery treats both as the end of the durable
//! prefix.

use rivulet_types::wire::{Wire, WireError, WireReader, WireWriter};
use rivulet_types::{Event, Holdings, Time};

use crate::crc::crc32;
use crate::ledger::LedgerEntry;

/// Bytes occupied by the checksum field of a frame.
pub const FRAME_CRC_BYTES: usize = 4;

const TAG_EVENT: u8 = 0;
const TAG_CHECKPOINT: u8 = 1;
const TAG_LEDGER: u8 = 2;

/// A snapshot of operator progress: every event the summary holds has
/// been processed by an active logic node, so a recovered process's
/// promotion replays only what it lacks, and compaction drops only the
/// segments whose events it holds, holes included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Virtual time at which the checkpoint was taken.
    pub at: Time,
    /// The Gapless events processed home-wide, as the process knew.
    pub processed: Holdings,
}

impl Wire for Checkpoint {
    fn encode(&self, w: &mut WireWriter) {
        self.at.encode(w);
        self.processed.encode(w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            at: Time::decode(r)?,
            processed: Holdings::decode(r)?,
        })
    }
}

/// One durable log entry.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A replicated sensor event (appended before it is acked or
    /// delivered).
    Event(Event),
    /// An operator-progress snapshot.
    Checkpoint(Checkpoint),
    /// A hash-chained routine transition of the execution-integrity
    /// ledger (appended — and flushed — before the transition's
    /// protocol frames are sent).
    Ledger(LedgerEntry),
}

impl Wire for WalRecord {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            WalRecord::Event(ev) => {
                w.put_u8(TAG_EVENT);
                ev.encode(w);
            }
            WalRecord::Checkpoint(cp) => {
                w.put_u8(TAG_CHECKPOINT);
                cp.encode(w);
            }
            WalRecord::Ledger(entry) => {
                w.put_u8(TAG_LEDGER);
                entry.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            TAG_EVENT => Ok(WalRecord::Event(Event::decode(r)?)),
            TAG_CHECKPOINT => Ok(WalRecord::Checkpoint(Checkpoint::decode(r)?)),
            TAG_LEDGER => Ok(WalRecord::Ledger(LedgerEntry::decode(r)?)),
            tag => Err(WireError::InvalidTag {
                ty: "WalRecord",
                tag,
            }),
        }
    }
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ended before the frame was complete (torn tail).
    Torn,
    /// The frame is structurally complete but fails its checksum or
    /// does not decode to a record.
    Corrupt,
}

/// Appends the frame of the record `tag` + `body` to `w`, the payload
/// encoded once, in place: the payload, then its length and checksum,
/// then the header rotated onto the front of the frame. Borrowing the
/// record's body means the WAL appends without cloning it, and `w`
/// allocates only when it grows.
fn write_frame(w: &mut WireWriter, tag: u8, body: &impl Wire) {
    let start = w.len();
    w.put_u8(tag);
    body.encode(w);
    let payload_len = w.len() - start;
    let crc = crc32(&w.as_slice()[start..]);
    w.put_varint(payload_len as u64);
    w.put_slice(&crc.to_le_bytes());
    let header_len = w.len() - start - payload_len;
    w.as_mut_slice()[start..].rotate_right(header_len);
}

/// Appends `event`'s frame to `w` (see [`write_frame`]).
pub(crate) fn write_event_frame(w: &mut WireWriter, event: &Event) {
    write_frame(w, TAG_EVENT, event);
}

/// Appends `checkpoint`'s frame to `w` (see [`write_frame`]).
pub(crate) fn write_checkpoint_frame(w: &mut WireWriter, checkpoint: &Checkpoint) {
    write_frame(w, TAG_CHECKPOINT, checkpoint);
}

/// Appends `entry`'s frame to `w` (see [`write_frame`]).
pub(crate) fn write_ledger_frame(w: &mut WireWriter, entry: &LedgerEntry) {
    write_frame(w, TAG_LEDGER, entry);
}

/// Decodes the frame at the start of `buf`, returning the record and
/// the number of bytes the frame occupies.
///
/// # Errors
///
/// [`FrameError::Torn`] when `buf` ends mid-frame, [`FrameError::Corrupt`]
/// when the frame is complete but invalid.
pub fn decode_frame(buf: &[u8]) -> Result<(WalRecord, usize), FrameError> {
    let mut r = WireReader::new(buf);
    let len = match r.get_len() {
        Ok(len) => len,
        Err(WireError::UnexpectedEof { .. }) => return Err(FrameError::Torn),
        Err(_) => return Err(FrameError::Corrupt),
    };
    let Ok(crc_bytes) = r.get_slice(FRAME_CRC_BYTES) else {
        return Err(FrameError::Torn);
    };
    let expected = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte slice"));
    let Ok(payload) = r.get_slice(len) else {
        return Err(FrameError::Torn);
    };
    if crc32(payload) != expected {
        return Err(FrameError::Corrupt);
    }
    let record = WalRecord::from_bytes(payload).map_err(|_| FrameError::Corrupt)?;
    Ok((record, buf.len() - r.remaining()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rivulet_types::{EventId, EventKind, Payload, SensorId};

    /// `record`'s frame in a fresh buffer, written as the WAL writes it.
    fn encode_frame(record: &WalRecord) -> bytes::Bytes {
        let mut w = WireWriter::new();
        match record {
            WalRecord::Event(ev) => write_event_frame(&mut w, ev),
            WalRecord::Checkpoint(cp) => write_checkpoint_frame(&mut w, cp),
            WalRecord::Ledger(entry) => write_ledger_frame(&mut w, entry),
        }
        w.into_bytes()
    }

    fn event(seq: u64) -> Event {
        Event {
            id: EventId::new(SensorId(3), seq),
            kind: EventKind::Reading,
            payload: Payload::Scalar(21.5),
            emitted_at: Time::from_millis(seq * 10),
            epoch: None,
        }
    }

    #[test]
    fn frame_roundtrip() {
        let rec = WalRecord::Event(event(7));
        let frame = encode_frame(&rec);
        let (back, used) = decode_frame(&frame).unwrap();
        assert_eq!(back, rec);
        assert_eq!(used, frame.len());
    }

    /// A checkpoint keeps its summary's holes: sensor 1 processed up to
    /// 42 but for 3–4 and 17, sensor 9 only its first event.
    #[test]
    fn checkpoint_roundtrip() {
        let done = (0..=42u64).filter(|seq| !matches!(seq, 3 | 4 | 17));
        let done = done.map(|seq| EventId::new(SensorId(1), seq));
        let processed: Holdings = done.chain([EventId::new(SensorId(9), 0)]).collect();
        assert_eq!(processed.lacks(SensorId(1)).len(), 3);
        let rec = WalRecord::Checkpoint(Checkpoint {
            at: Time::from_secs(30),
            processed,
        });
        let frame = encode_frame(&rec);
        let (back, used) = decode_frame(&frame).unwrap();
        assert_eq!(back, rec);
        assert_eq!(used, frame.len());
    }

    #[test]
    fn ledger_roundtrip() {
        use crate::ledger::{LedgerChain, RoutineTransition};
        use rivulet_types::{ActuatorId, CommandId, OperatorId, ProcessId, RoutineId};
        let mut chain = LedgerChain::seeded(7);
        let entry = chain.append(
            RoutineId(3),
            11,
            RoutineTransition::Staged,
            Time::from_secs(5),
            vec![(
                ActuatorId(1),
                CommandId::new(ProcessId(0), OperatorId(1), 9),
            )],
        );
        let rec = WalRecord::Ledger(entry);
        let frame = encode_frame(&rec);
        let (back, used) = decode_frame(&frame).unwrap();
        assert_eq!(back, rec);
        assert_eq!(used, frame.len());
    }

    #[test]
    fn consecutive_frames_decode_in_sequence() {
        let mut buf = Vec::new();
        for seq in 0..5 {
            buf.extend_from_slice(&encode_frame(&WalRecord::Event(event(seq))));
        }
        let mut off = 0;
        let mut seqs = Vec::new();
        while off < buf.len() {
            let (rec, n) = decode_frame(&buf[off..]).unwrap();
            if let WalRecord::Event(ev) = rec {
                seqs.push(ev.id.seq);
            }
            off += n;
        }
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn every_truncation_point_is_torn_or_corrupt() {
        let frame = encode_frame(&WalRecord::Event(event(1)));
        for cut in 0..frame.len() {
            let err = decode_frame(&frame[..cut]).unwrap_err();
            // A truncated frame must never decode; the specific error
            // depends on where the cut lands.
            assert!(matches!(err, FrameError::Torn | FrameError::Corrupt));
        }
    }

    #[test]
    fn bit_flip_in_payload_is_corrupt() {
        let frame = encode_frame(&WalRecord::Event(event(2)));
        let mut bad = frame.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert_eq!(decode_frame(&bad).unwrap_err(), FrameError::Corrupt);
    }

    #[test]
    fn bit_flip_in_crc_is_corrupt() {
        let frame = encode_frame(&WalRecord::Event(event(2)));
        let mut bad = frame.to_vec();
        bad[1] ^= 0x80; // first CRC byte (offset 0 is the 1-byte len varint)
        assert_eq!(decode_frame(&bad).unwrap_err(), FrameError::Corrupt);
    }

    #[test]
    fn empty_buffer_is_torn() {
        assert_eq!(decode_frame(&[]).unwrap_err(), FrameError::Torn);
    }
}
