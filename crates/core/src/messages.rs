//! The inter-process protocol message vocabulary.
//!
//! Everything Rivulet processes say to each other over the home WiFi
//! mesh. Sizes matter: the network-overhead experiment (Fig. 5)
//! measures exactly these messages. The paper notes that the Gapless
//! ring's `seen`/`need` metadata sets dominate overhead at small event
//! sizes; here each set crosses the wire as one [`ProcSet`] bitmask —
//! one byte in a home of up to seven processes — so a ring message is
//! two bytes longer than the Gap forward of the same event.
//!
//! Nothing here is acknowledged. The keep-alive carries what its sender
//! holds ([`Holdings`]) and its row of the hearing graph — who it hears,
//! and the rows of the peers it heard itself, one hop on ([`Relayed`]) —
//! and the sender's ring predecessor answers with
//! [`ProcMsg::SyncEvents`]: the events the sender lacks. That one answer
//! is the repair of every lost ring message or flood copy.

use bytes::Bytes;
use rivulet_types::wire::{varint_len, Wire, WireError, WireReader, WireWriter};
use rivulet_types::{Command, Duration, Event, Holdings, ProcSet, ProcessId};

/// A message between two Rivulet processes.
#[derive(Debug, Clone, PartialEq)]
pub enum ProcMsg {
    /// Periodic liveness beacon (§4.1's keep-alive exchange).
    ///
    /// Every process piggybacks what its home has *processed*, so
    /// shadows know which replicated events were already consumed; on
    /// promotion a shadow replays every stored event this summary lacks
    /// (the upstream-backup acknowledgement idea of Hwang et al., which
    /// Fig. 7's bounded catch-up spike implies).
    KeepAlive {
        /// The sender.
        from: ProcessId,
        /// The sender's row of the hearing graph: the processes it
        /// hears, itself included (`Membership::row`).
        row: ProcSet,
        /// The rows of the peers in `row` the sender heard itself. With
        /// `row` they say which process the sender takes for its ring
        /// predecessor; that process answers the beacon.
        relayed: Relayed,
        /// The Gapless events an active logic node processed, as the
        /// sender knows: its own processing merged with every peer's
        /// summary ([`Holdings::merge`]), holes included. A home that
        /// delivers nothing Gapless sends it empty.
        processed: Holdings,
        /// What the sender durably holds of each sensor: the highest
        /// seq and the holes below it. It is the Bayou query of
        /// anti-entropy (§4.1): the sender's predecessor ships it every
        /// settled event it lacks ([`ProcMsg::SyncEvents`]). Empty until
        /// the first delivery.
        received: Holdings,
    },
    /// Gapless ring forwarding: `(e : S : V)` from the paper — the
    /// event, the processes that have **seen** it, and the processes
    /// that **need** to see it — spelled with lists. This spelling
    /// exists only for the benchmark harness, which builds the variant
    /// literally; processes send and receive the same bytes as
    /// [`RingMsg`], whose layout this variant's codec delegates to. A
    /// decoded message lists both sets ascending and without
    /// duplicates, whatever order the sender's lists had.
    ///
    /// # Panics
    ///
    /// Encoding panics if either list names a process id of
    /// [`ProcSet::CAPACITY`] or more: a home holds at most 64 processes,
    /// and the deployment rejects a 65th.
    Ring {
        /// The event being replicated.
        event: Event,
        /// `S`: processes that have seen the event.
        seen: Vec<ProcessId>,
        /// `V`: processes that are supposed to deliver the event.
        need: Vec<ProcessId>,
    },
    /// One flood of an event to every peer in the sender's view: the
    /// ring's stall fallback (§4.1) and the eager-broadcast baseline.
    /// Nothing acknowledges or retransmits it; the beacon sync repairs
    /// a lost copy.
    Broadcast {
        /// The event.
        event: Event,
        /// The process that initiated the broadcast.
        origin: ProcessId,
    },
    /// Gap chain forwarding: the closest active sensor node sends the
    /// event straight to the application-bearing process (§4.2).
    GapForward {
        /// The event.
        event: Event,
    },
    /// Anti-entropy: the events a process found its ring successor
    /// missing, from the `received` summary of the successor's
    /// [`ProcMsg::KeepAlive`] (Bayou-style, §4.1).
    SyncEvents {
        /// The events, ascending per sensor.
        events: Vec<Event>,
    },
    /// An actuation command forwarded from the logic-bearing process to
    /// a process whose adapter can reach the target actuator ("the
    /// delivery of actuation commands is analogous", §4).
    CmdForward {
        /// The command.
        command: Command,
    },
}

/// Tag byte of a ring message, in either spelling.
const RING_TAG: u8 = 1;

impl ProcMsg {
    /// The first wire byte. Tags 3, 5 and 6 are retired (the per-event
    /// broadcast ack and the anti-entropy request and reply) and decode
    /// to an error; they are not reused.
    fn tag(&self) -> u8 {
        match self {
            ProcMsg::KeepAlive { .. } => 0,
            ProcMsg::Ring { .. } => RING_TAG,
            ProcMsg::Broadcast { .. } => 2,
            ProcMsg::GapForward { .. } => 4,
            ProcMsg::SyncEvents { .. } => 7,
            ProcMsg::CmdForward { .. } => 8,
        }
    }

    /// Decodes the message whose tag byte `tag` was just read.
    fn decode_after_tag(tag: u8, r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match tag {
            0 => {
                let from = ProcessId::decode(r)?;
                let row = ProcSet::decode(r)?;
                Ok(ProcMsg::KeepAlive {
                    from,
                    row,
                    relayed: Relayed::decode(row.without(from), r)?,
                    processed: Holdings::decode(r)?,
                    received: Holdings::decode(r)?,
                })
            }
            RING_TAG => {
                let RingMsg { event, seen, need } = RingMsg::decode_body(r)?;
                Ok(ProcMsg::Ring {
                    event,
                    seen: seen.iter().collect(),
                    need: need.iter().collect(),
                })
            }
            2 => Ok(ProcMsg::Broadcast {
                event: Event::decode(r)?,
                origin: ProcessId::decode(r)?,
            }),
            4 => Ok(ProcMsg::GapForward {
                event: Event::decode(r)?,
            }),
            7 => Ok(ProcMsg::SyncEvents {
                events: Vec::decode(r)?,
            }),
            8 => Ok(ProcMsg::CmdForward {
                command: Command::decode(r)?,
            }),
            tag => Err(WireError::InvalidTag { ty: "ProcMsg", tag }),
        }
    }
}

/// The beacons a keep-alive relays, one hop (DESIGN §4.1): for each
/// member of its sender's row but the sender, ascending, how long ago
/// the sender heard that peer's own last beacon and the row it carried
/// — or nothing, for a peer whose beacon the sender has not heard
/// within the failure timeout. A peer a restarted process counts only
/// on its start-up assumption has sent it no beacon, so it is never
/// vouched for.
///
/// On the wire, per member: the age in milliseconds, rounded up and at
/// least 1, as a varint, then the row; or a single 0. It is kept as
/// those bytes, checked once when decoded, so a received beacon
/// decodes it without allocating and keeps `ProcMsg` small.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Relayed {
    /// The peers it has an entry for.
    members: ProcSet,
    /// Their entries, as on the wire.
    bytes: Bytes,
}

impl Relayed {
    /// Relays `entry(p)`, the age of the sender's last beacon from `p`
    /// and that beacon's row, for each of `members`.
    #[must_use]
    pub fn new(
        members: ProcSet,
        mut entry: impl FnMut(ProcessId) -> Option<(Duration, ProcSet)>,
    ) -> Self {
        let mut w = WireWriter::new();
        for entry in members.iter().map(&mut entry) {
            let ms = entry.map_or(0, |(age, _)| age.as_micros().div_ceil(1_000).max(1));
            w.put_varint(ms);
            entry.inspect(|(_, row)| row.encode(&mut w));
        }
        let bytes = w.into_bytes();
        Self { members, bytes }
    }

    /// Each peer whose beacon the sender heard, with that beacon's age
    /// and row, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, Duration, ProcSet)> + '_ {
        let mut r = WireReader::new(&self.bytes);
        self.members.iter().filter_map(move |p| {
            let entry = Self::entry(&mut r).expect("checked when built or decoded");
            entry.map(|(age, row)| (p, age, row))
        })
    }

    /// Reads one member's entry: `None` for a peer not heard.
    fn entry(r: &mut WireReader<'_>) -> Result<Option<(Duration, ProcSet)>, WireError> {
        match r.get_varint()? {
            0 => Ok(None),
            ms => Ok(Some((
                Duration::from_micros(ms.saturating_mul(1_000)),
                ProcSet::decode(r)?,
            ))),
        }
    }

    /// Reads the entries of `members` (the sender's row less the
    /// sender), checking each, and keeps their bytes.
    fn decode(members: ProcSet, r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut ahead = r.clone();
        for _ in members {
            Self::entry(&mut ahead)?;
        }
        let bytes = r.get_bytes(r.remaining() - ahead.remaining())?;
        Ok(Self { members, bytes })
    }
}

/// The Gapless ring message `(e : S : V)` in the form the protocol
/// uses: both sets are [`ProcSet`]s, as they are on the wire, so a hop
/// decodes, extends and re-encodes them without touching the heap.
/// Encodes to exactly the bytes of the equivalent [`ProcMsg::Ring`] and
/// decodes them.
#[derive(Debug, Clone, PartialEq)]
pub struct RingMsg {
    /// The event being replicated.
    pub event: Event,
    /// `S`: processes that have seen the event.
    pub seen: ProcSet,
    /// `V`: processes that are supposed to deliver the event.
    pub need: ProcSet,
}

impl RingMsg {
    /// The body after the tag: the event, then `S`, then `V`.
    fn encode_body(event: &Event, seen: ProcSet, need: ProcSet, w: &mut WireWriter) {
        event.encode(w);
        seen.encode(w);
        need.encode(w);
    }

    // Inlined into its three callers so each builds the message in
    // place; out of line, a decode of the list spelling measured ≈ 10 %
    // slower.
    #[inline]
    fn decode_body(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            event: Event::decode(r)?,
            seen: ProcSet::decode(r)?,
            need: ProcSet::decode(r)?,
        })
    }
}

impl Wire for RingMsg {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(RING_TAG);
        Self::encode_body(&self.event, self.seen, self.need, w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            RING_TAG => Self::decode_body(r),
            tag => Err(WireError::InvalidTag { ty: "RingMsg", tag }),
        }
    }
}

/// A message as a process receives it: a ring message in its
/// [`RingMsg`] form, or any other [`ProcMsg`]. Decoding never yields
/// `Other(ProcMsg::Ring { .. })`; the bytes are those of [`ProcMsg`].
#[derive(Debug, Clone, PartialEq)]
pub enum PeerMsg {
    /// A Gapless ring message.
    Ring(RingMsg),
    /// Every other message.
    Other(ProcMsg),
}

impl Wire for PeerMsg {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            PeerMsg::Ring(ring) => ring.encode(w),
            PeerMsg::Other(msg) => msg.encode(w),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            RING_TAG => Ok(PeerMsg::Ring(RingMsg::decode_body(r)?)),
            tag => ProcMsg::decode_after_tag(tag, r).map(PeerMsg::Other),
        }
    }
}

impl Wire for ProcMsg {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(self.tag());
        match self {
            ProcMsg::KeepAlive {
                from,
                row,
                relayed,
                processed,
                received,
            } => {
                from.encode(w);
                row.encode(w);
                w.put_slice(&relayed.bytes);
                processed.encode(w);
                received.encode(w);
            }
            ProcMsg::Ring { event, seen, need } => {
                let set = |members: &[ProcessId]| members.iter().copied().collect();
                RingMsg::encode_body(event, set(seen), set(need), w);
            }
            ProcMsg::Broadcast { event, origin } => {
                event.encode(w);
                origin.encode(w);
            }
            ProcMsg::GapForward { event } => event.encode(w),
            ProcMsg::SyncEvents { events } => events.encode(w),
            ProcMsg::CmdForward { command } => command.encode(w),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let tag = r.get_u8()?;
        Self::decode_after_tag(tag, r)
    }
}

/// Tag byte introducing a multi-command [`Frame`].
///
/// Deliberately far from the dense `ProcMsg` tag range (0..=8) so the
/// receive path can dispatch frame-vs-single on the first byte, and a
/// corrupted frame tag cannot silently decode as a plausible message.
pub const FRAME_TAG: u8 = 0xC0;

/// A length-prefixed batch of [`ProcMsg`]s coalesced onto one network
/// message.
///
/// When one actor activation queues several messages to the same
/// destination (a ring burst forwarded downstream, a WAL group-commit
/// releasing gated sends, a sync beside a keep-alive), they travel as one
/// frame: one scheduler event, one [`FRAME_HEADER_BYTES`] transport
/// charge, one link traversal.
///
/// Wire layout: `FRAME_TAG`, varint message count (must be ≥ 1), then
/// per message a varint byte-length followed by exactly that many bytes
/// of `ProcMsg` encoding. The per-message length prefix means a frame
/// can be assembled by concatenating *pre-encoded* message bytes
/// ([`Frame::encode_parts`]) without re-encoding, and decoded
/// incrementally with strict bounds checking.
///
/// [`FRAME_HEADER_BYTES`]: rivulet_types::wire::FRAME_HEADER_BYTES
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The batched messages, in send order.
    pub msgs: Vec<ProcMsg>,
}

impl Frame {
    /// Returns whether `payload` starts with the frame tag (cheap
    /// receive-path dispatch; the full decode still validates).
    #[must_use]
    pub fn sniff(payload: &[u8]) -> bool {
        payload.first() == Some(&FRAME_TAG)
    }

    /// Assembles the frame encoding directly from pre-encoded message
    /// bytes, byte-identical to encoding the equivalent `Frame` value.
    /// This is the hot-path entry: the fan-out encodes each `ProcMsg`
    /// once and coalescing concatenates the frozen buffers.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if `parts` is empty — callers only
    /// build frames for ≥ 2 queued messages.
    #[must_use]
    pub fn encode_parts(w: &mut WireWriter, parts: &[bytes::Bytes]) -> bytes::Bytes {
        debug_assert!(!parts.is_empty(), "never emit an empty frame");
        let body: usize = parts
            .iter()
            .map(|p| varint_len(p.len() as u64) + p.len())
            .sum();
        w.reserve(1 + varint_len(parts.len() as u64) + body);
        w.put_u8(FRAME_TAG);
        w.put_varint(parts.len() as u64);
        for part in parts {
            w.put_varint(part.len() as u64);
            w.put_slice(part);
        }
        w.take_bytes()
    }

    /// Decodes the frame that is the whole of `buf` into `msgs`,
    /// replacing its contents and reusing its capacity: the receive
    /// path keeps one buffer across activations instead of building a
    /// `Frame` per arrival, and reads each message as `M` — a process
    /// as [`PeerMsg`], so ring sets stay [`ProcSet`]s. Decoding is
    /// all-or-nothing: on any error, trailing bytes included, `msgs` is
    /// left empty. Event blob payloads stay zero-copy views into `buf`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for a malformed frame or trailing bytes.
    pub fn decode_shared_into<M: Wire>(
        buf: &bytes::Bytes,
        msgs: &mut Vec<M>,
    ) -> Result<(), WireError> {
        msgs.clear();
        let mut r = WireReader::from_shared(buf);
        let decoded = Self::decode_msgs(&mut r, msgs).and_then(|()| {
            if r.is_empty() {
                Ok(())
            } else {
                Err(WireError::TrailingBytes {
                    remaining: r.remaining(),
                })
            }
        });
        if decoded.is_err() {
            msgs.clear();
        }
        decoded
    }

    /// The decode loop both entry points share: appends the frame's
    /// messages to `msgs`, stopping at the first error.
    fn decode_msgs<M: Wire>(r: &mut WireReader<'_>, msgs: &mut Vec<M>) -> Result<(), WireError> {
        let tag = r.get_u8()?;
        if tag != FRAME_TAG {
            return Err(WireError::InvalidTag { ty: "Frame", tag });
        }
        let count = r.get_len()?;
        if count == 0 {
            return Err(WireError::EmptyBatch);
        }
        msgs.reserve(count.min(1_024));
        for _ in 0..count {
            let len = r.get_len()?;
            // Each message must consume exactly its declared length: a
            // shorter decode means an overlong length prefix smuggling
            // trailing bytes, a longer one is caught by the sub-reader
            // bounds.
            let mut sub = r.sub_reader(len)?;
            let msg = M::decode(&mut sub)?;
            if !sub.is_empty() {
                return Err(WireError::TrailingBytes {
                    remaining: sub.remaining(),
                });
            }
            msgs.push(msg);
        }
        Ok(())
    }
}

impl Wire for Frame {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(FRAME_TAG);
        w.put_varint(self.msgs.len() as u64);
        for msg in &self.msgs {
            let bytes = msg.to_bytes();
            w.put_varint(bytes.len() as u64);
            w.put_slice(&bytes);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut msgs = Vec::new();
        Self::decode_msgs(r, &mut msgs)?;
        Ok(Frame { msgs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rivulet_types::wire::roundtrip;
    use rivulet_types::{EventId, EventKind, SensorId, Time};

    fn ev(seq: u64) -> Event {
        Event::new(
            EventId::new(SensorId(1), seq),
            EventKind::Motion,
            Time::from_millis(seq),
        )
    }

    /// A keep-alive with nothing to report.
    fn beacon(from: u32) -> ProcMsg {
        ProcMsg::KeepAlive {
            from: ProcessId(from),
            row: ProcSet::singleton(ProcessId(from)),
            relayed: Relayed::default(),
            processed: Holdings::default(),
            received: Holdings::default(),
        }
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(&beacon(3));
        let row: ProcSet = [0, 3, 5, 63].map(ProcessId).into_iter().collect();
        roundtrip(&ProcMsg::KeepAlive {
            from: ProcessId(3),
            row,
            relayed: Relayed::new(row.without(ProcessId(3)), |p| {
                let age = Duration::from_micros(498_001);
                (p != ProcessId(5)).then_some((age, row.without(p)))
            }),
            processed: [99, 0]
                .map(|q| EventId::new(SensorId(1), q))
                .into_iter()
                .collect(),
            received: [3, 4, 101]
                .map(|q| EventId::new(SensorId(1), q))
                .into_iter()
                .collect(),
        });
        roundtrip(&ProcMsg::CmdForward {
            command: rivulet_types::Command::new(
                rivulet_types::CommandId::new(ProcessId(0), rivulet_types::OperatorId(1), 2),
                rivulet_types::ActuatorId(3),
                rivulet_types::CommandKind::Set(rivulet_types::ActuationState::Switch(true)),
                Time::from_millis(5),
            ),
        });
        roundtrip(&ProcMsg::Ring {
            event: ev(0),
            seen: vec![ProcessId(0), ProcessId(1)],
            need: vec![ProcessId(0), ProcessId(1), ProcessId(2)],
        });
        roundtrip(&ProcMsg::Broadcast {
            event: ev(1),
            origin: ProcessId(2),
        });
        roundtrip(&ProcMsg::GapForward { event: ev(2) });
        roundtrip(&ProcMsg::SyncEvents {
            events: vec![ev(3), ev(4)],
        });
    }

    #[test]
    fn ring_metadata_costs_one_byte_a_set() {
        // The paper observes Gapless has higher overhead than Gap at
        // one receiving process because of the S and V sets; as
        // bitmasks they cost a home of up to seven processes two bytes.
        let gap = ProcMsg::GapForward { event: ev(0) };
        let ring = ProcMsg::Ring {
            event: ev(0),
            seen: vec![ProcessId(0)],
            need: (0..5).map(ProcessId).collect(),
        };
        assert_eq!(ring.to_bytes().len(), gap.to_bytes().len() + 2);
        let bytes = ring.to_bytes();
        assert_eq!(bytes[bytes.len() - 2..], [0b1, 0b1_1111]);
    }

    #[test]
    fn ring_sets_decode_ascending() {
        let sent = ProcMsg::Ring {
            event: ev(0),
            seen: vec![ProcessId(3), ProcessId(1), ProcessId(3)],
            need: vec![ProcessId(4), ProcessId(0), ProcessId(1), ProcessId(3)],
        };
        let ProcMsg::Ring { seen, need, .. } = ProcMsg::from_bytes(&sent.to_bytes()).unwrap()
        else {
            panic!("a ring message")
        };
        assert_eq!(seen, vec![ProcessId(1), ProcessId(3)]);
        assert_eq!(
            need,
            vec![ProcessId(0), ProcessId(1), ProcessId(3), ProcessId(4)]
        );
    }

    #[test]
    fn a_process_reads_rings_as_sets_and_everything_else_as_sent() {
        let ring = ProcMsg::Ring {
            event: ev(0),
            seen: vec![ProcessId(1)],
            need: vec![ProcessId(0), ProcessId(1), ProcessId(2)],
        };
        let as_sets = RingMsg {
            event: ev(0),
            seen: ProcSet::singleton(ProcessId(1)),
            need: [0, 1, 2].into_iter().map(ProcessId).collect(),
        };
        assert_eq!(as_sets.to_bytes(), ring.to_bytes());
        assert_eq!(
            PeerMsg::from_bytes(&ring.to_bytes()),
            Ok(PeerMsg::Ring(as_sets))
        );
        let other = ProcMsg::GapForward { event: ev(2) };
        assert_eq!(
            PeerMsg::from_bytes(&other.to_bytes()),
            Ok(PeerMsg::Other(other.clone()))
        );
        assert_eq!(
            RingMsg::from_bytes(&other.to_bytes()),
            Err(WireError::InvalidTag {
                ty: "RingMsg",
                tag: 4
            })
        );
        assert!(matches!(
            PeerMsg::from_bytes(&[3]),
            Err(WireError::InvalidTag {
                ty: "ProcMsg",
                tag: 3
            })
        ));
    }

    #[test]
    fn ring_set_wider_than_64_bits_is_rejected() {
        let mut bytes = ProcMsg::Ring {
            event: ev(0),
            seen: vec![],
            need: vec![],
        }
        .to_bytes()
        .to_vec();
        // Replace the empty V with an eleven-byte varint.
        bytes.pop();
        bytes.extend_from_slice(&[0xff; 10]);
        bytes.push(0x01);
        assert_eq!(ProcMsg::from_bytes(&bytes), Err(WireError::VarintOverflow));
    }

    #[test]
    #[should_panic(expected = "a home holds at most 64 processes")]
    fn encoding_a_ring_member_past_the_home_limit_names_the_limit() {
        let _ = ProcMsg::Ring {
            event: ev(0),
            seen: vec![ProcessId(0)],
            need: vec![ProcessId(0), ProcessId(64)],
        }
        .to_bytes();
    }

    #[test]
    fn keepalive_is_tiny() {
        // Seven processes, each heard by the sender about a beacon ago:
        // per peer a two-byte age and a one-byte row.
        let row: ProcSet = (0..7).map(ProcessId).collect();
        let ka = ProcMsg::KeepAlive {
            from: ProcessId(1),
            row,
            relayed: Relayed::new(row.without(ProcessId(1)), |_| {
                Some((Duration::from_millis(499), row))
            }),
            processed: Holdings::default(),
            received: Holdings::default(),
        };
        assert!(
            ka.to_bytes().len() <= 7 + 6 * 3,
            "keep-alive must stay cheap"
        );
    }

    #[test]
    fn a_relayed_age_is_rounded_up_to_a_millisecond_and_never_reads_not_heard() {
        let members: ProcSet = [0, 1, 2, 4].map(ProcessId).into_iter().collect();
        let row = ProcSet::singleton(ProcessId(4));
        let relayed = Relayed::new(members, |p| {
            let micros = match p.0 {
                0 => 0,
                1 => 1_001,
                2 => return None,
                _ => 130_001,
            };
            Some((Duration::from_micros(micros), row))
        });
        let read: Vec<_> = relayed
            .iter()
            .map(|(p, age, _)| (p.0, age.as_millis()))
            .collect();
        assert_eq!(read, vec![(0, 1), (1, 2), (4, 131)]);
        assert_eq!(relayed.bytes[..], [1, 0x10, 2, 0x10, 0, 0x83, 1, 0x10]);
    }

    #[test]
    fn junk_tag_rejected() {
        assert!(matches!(
            ProcMsg::from_bytes(&[200]),
            Err(WireError::InvalidTag {
                ty: "ProcMsg",
                tag: 200
            })
        ));
    }

    /// What a peer built before the retirements sends under each
    /// retired tag: a per-event broadcast ack (tag 3, an event id, a
    /// process id), a sync request (tag 5, a process id) and a sync
    /// reply (tag 6, a process id, per-sensor watermarks).
    fn retired_bytes() -> [(u8, bytes::Bytes); 3] {
        let mut ack = WireWriter::new();
        ack.put_u8(3);
        EventId::new(SensorId(1), 1).encode(&mut ack);
        ProcessId(1).encode(&mut ack);
        let mut request = WireWriter::new();
        request.put_u8(5);
        ProcessId(1).encode(&mut request);
        let mut reply = WireWriter::new();
        reply.put_u8(6);
        ProcessId(1).encode(&mut reply);
        vec![(SensorId(1), 10u64)].encode(&mut reply);
        [
            (3, ack.into_bytes()),
            (5, request.into_bytes()),
            (6, reply.into_bytes()),
        ]
    }

    #[test]
    fn retired_tags_are_rejected_bare_and_inside_a_frame() {
        for (tag, old) in retired_bytes() {
            let retired = Some(WireError::InvalidTag { ty: "ProcMsg", tag });
            assert_eq!(ProcMsg::from_bytes(&old).err(), retired);
            assert_eq!(ProcMsg::from_bytes(&[tag]).err(), retired);
            assert_eq!(PeerMsg::from_bytes(&old).err(), retired);
            let parts = [beacon(0).to_bytes(), old];
            let framed = Frame::encode_parts(&mut WireWriter::new(), &parts);
            assert_eq!(Frame::from_bytes(&framed).err(), retired);
        }
    }

    #[test]
    fn a_process_drops_the_retired_tags_without_panicking() {
        use crate::config::RivuletConfig;
        use crate::deploy::DirectoryData;
        use crate::process::{ProcessSpec, RivuletProcess};
        use rivulet_net::actor::{Actor, ActorEvent, ActorId, Context};
        use rivulet_net::link::ActorClass;
        use rivulet_net::sim::{SimConfig, SimNet};
        use std::sync::Arc;

        /// A peer from before the retirements: sends each retired
        /// message on start-up, bare and framed.
        struct StalePeer {
            to: ActorId,
            payloads: Vec<bytes::Bytes>,
        }
        impl Actor for StalePeer {
            fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
                if matches!(event, ActorEvent::Start) {
                    for payload in &self.payloads {
                        ctx.send(self.to, payload.clone());
                    }
                }
            }
        }

        let old: Vec<bytes::Bytes> = retired_bytes().into_iter().map(|(_, b)| b).collect();
        let framed = Frame::encode_parts(&mut WireWriter::new(), &old);
        let payloads: Vec<bytes::Bytes> = old.into_iter().chain([framed]).collect();
        let mut net = SimNet::new(SimConfig::with_seed(1));
        let process = net.next_actor_id();
        let peer = ActorId(process.0 + 1);
        let directory = Arc::new(DirectoryData {
            processes: vec![(ProcessId(0), process), (ProcessId(1), peer)],
            ..DirectoryData::default()
        });
        let spec = ProcessSpec {
            pid: ProcessId(0),
            config: RivuletConfig::default(),
            apps: Vec::new(),
            directory,
            storage: None,
            store_probe: None,
            ingest_probe: None,
            fanout: Arc::default(),
            obs: net.recorder(),
            routines: Vec::new(),
        };
        net.add_actor("p0", ActorClass::Process, move || {
            Box::new(RivuletProcess::new(spec.clone()))
        });
        net.add_actor("p1", ActorClass::Process, move || {
            Box::new(StalePeer {
                to: process,
                payloads: payloads.clone(),
            })
        });
        net.run_for(rivulet_types::Duration::from_secs(1));
        assert!(net.metrics().messages_delivered >= 4, "every copy arrived");
        assert!(net.is_up(process));
    }

    #[test]
    fn frame_tag_disjoint_from_procmsg_tags() {
        // Receive-path dispatch relies on the first byte alone.
        for tag in 0..=8u8 {
            assert_ne!(tag, FRAME_TAG);
        }
        assert!(matches!(
            ProcMsg::from_bytes(&[FRAME_TAG]),
            Err(WireError::InvalidTag { ty: "ProcMsg", .. })
        ));
    }

    #[test]
    fn frame_roundtrips() {
        let frame = Frame {
            msgs: vec![
                ProcMsg::Ring {
                    event: ev(1),
                    seen: vec![ProcessId(0)],
                    need: vec![ProcessId(0), ProcessId(1)],
                },
                ProcMsg::GapForward { event: ev(2) },
                ProcMsg::KeepAlive {
                    from: ProcessId(2),
                    row: ProcSet::singleton(ProcessId(2)),
                    relayed: Relayed::default(),
                    processed: Holdings::default(),
                    received: [EventId::new(SensorId(1), 7)].into_iter().collect(),
                },
            ],
        };
        roundtrip(&frame);
        assert!(Frame::sniff(&frame.to_bytes()));
    }

    #[test]
    fn encode_parts_matches_frame_encoding() {
        let msgs = vec![ProcMsg::GapForward { event: ev(9) }, beacon(1)];
        let parts: Vec<bytes::Bytes> = msgs.iter().map(Wire::to_bytes).collect();
        let mut w = WireWriter::new();
        let assembled = Frame::encode_parts(&mut w, &parts);
        let reference = Frame { msgs }.to_bytes();
        assert_eq!(assembled, reference, "concatenation must be canonical");
    }

    #[test]
    fn reused_frame_buffer_is_all_or_nothing() {
        let good = Frame {
            msgs: vec![ProcMsg::GapForward { event: ev(4) }, beacon(1)],
        };
        let encoded = good.to_bytes();
        let mut msgs = vec![beacon(9)];
        // The last part is corrupt: its `ProcMsg` tag is unknown.
        let mut corrupt = encoded.to_vec();
        let last_tag = encoded.len() - beacon(1).to_bytes().len();
        corrupt[last_tag] = 0x7f;
        assert!(Frame::decode_shared_into(&bytes::Bytes::from(corrupt), &mut msgs).is_err());
        assert!(
            msgs.is_empty(),
            "a frame failing in its last part yields nothing"
        );
        // A whole frame followed by a trailing byte.
        msgs.push(beacon(9));
        let mut trailing = encoded.to_vec();
        trailing.push(0);
        assert_eq!(
            Frame::decode_shared_into(&bytes::Bytes::from(trailing), &mut msgs),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
        assert!(msgs.is_empty(), "trailing bytes yield nothing");
        // The same buffer then decodes a good frame to exactly its own
        // messages.
        Frame::decode_shared_into(&encoded, &mut msgs).unwrap();
        assert_eq!(msgs, good.msgs);
    }

    #[test]
    fn frame_rejects_empty_batch() {
        let mut w = WireWriter::new();
        w.put_u8(FRAME_TAG);
        w.put_varint(0);
        assert_eq!(
            Frame::from_bytes(&w.into_bytes()),
            Err(WireError::EmptyBatch)
        );
    }

    #[test]
    fn frame_rejects_truncation_and_overlong_prefix() {
        let frame = Frame {
            msgs: vec![beacon(3)],
        };
        let good = frame.to_bytes();
        // Every strict prefix fails cleanly.
        for cut in 0..good.len() {
            assert!(Frame::from_bytes(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Overlong per-message length prefix: declare one byte more
        // than the message occupies, padding with a trailing byte the
        // inner decode will not consume.
        let inner = beacon(3).to_bytes();
        let mut w = WireWriter::new();
        w.put_u8(FRAME_TAG);
        w.put_varint(1);
        w.put_varint(inner.len() as u64 + 1);
        w.put_slice(&inner);
        w.put_u8(0);
        assert!(matches!(
            Frame::from_bytes(&w.into_bytes()),
            Err(WireError::TrailingBytes { remaining: 1 })
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rivulet_types::wire::roundtrip;
    use rivulet_types::{EventId, EventKind, Payload, SensorId, Time};

    fn arb_event() -> impl Strategy<Value = Event> {
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            proptest::option::of(any::<u64>()),
        )
            .prop_map(|(sensor, seq, at, epoch)| {
                let mut e = Event::with_payload(
                    EventId::new(SensorId(sensor), seq),
                    EventKind::Motion,
                    Payload::Scalar(1.5),
                    Time::from_micros(at),
                );
                e.epoch = epoch;
                e
            })
    }

    /// Any listing of a home's processes: any order, duplicates.
    fn arb_pids() -> impl Strategy<Value = Vec<ProcessId>> {
        proptest::collection::vec((0u32..64).prop_map(ProcessId), 0..8)
    }

    /// What `msg` decodes to: a ring message's sets come back ascending
    /// and without duplicates; everything else comes back as sent.
    fn canonical(mut msg: ProcMsg) -> ProcMsg {
        if let ProcMsg::Ring { seen, need, .. } = &mut msg {
            for members in [seen, need] {
                members.sort_unstable();
                members.dedup();
            }
        }
        msg
    }

    fn arb_msg() -> impl Strategy<Value = ProcMsg> {
        prop_oneof![
            (
                (any::<u32>(), arb_pids()),
                proptest::collection::vec(proptest::option::of((any::<u32>(), arb_pids())), 64),
                proptest::collection::vec((any::<u32>(), any::<u64>()), 0..6),
                proptest::collection::vec((any::<u32>(), any::<u64>()), 0..6)
            )
                .prop_map(|((from, row), heard, processed, received)| {
                    let (from, row) = (ProcessId(from), row.into_iter().collect::<ProcSet>());
                    ProcMsg::KeepAlive {
                        from,
                        row,
                        relayed: Relayed::new(row.without(from), |p| {
                            let (ms, row) = heard[p.0 as usize].clone()?;
                            Some((
                                Duration::from_millis(u64::from(ms)),
                                row.into_iter().collect(),
                            ))
                        }),
                        processed: processed
                            .into_iter()
                            .map(|(s, q)| EventId::new(SensorId(s), q))
                            .collect(),
                        received: received
                            .into_iter()
                            .map(|(s, q)| EventId::new(SensorId(s), q))
                            .collect(),
                    }
                }),
            (arb_event(), arb_pids(), arb_pids()).prop_map(|(event, seen, need)| ProcMsg::Ring {
                event,
                seen,
                need
            }),
            (arb_event(), any::<u32>()).prop_map(|(event, o)| ProcMsg::Broadcast {
                event,
                origin: ProcessId(o)
            }),
            arb_event().prop_map(|event| ProcMsg::GapForward { event }),
            proptest::collection::vec(arb_event(), 0..5)
                .prop_map(|events| ProcMsg::SyncEvents { events }),
        ]
    }

    proptest! {
        /// Every protocol message survives the wire.
        #[test]
        fn any_message_roundtrips(msg in arb_msg()) {
            let bytes = msg.to_bytes();
            prop_assert_eq!(ProcMsg::from_bytes(&bytes).unwrap(), canonical(msg));
        }

        /// The list spelling of a ring message and its set form are the
        /// same bytes: each encodes what the other decodes, and the lists
        /// come back ascending.
        #[test]
        fn both_ring_spellings_are_one_layout(
            event in arb_event(),
            seen in arb_pids(),
            need in arb_pids(),
        ) {
            let lists = ProcMsg::Ring { event: event.clone(), seen: seen.clone(), need: need.clone() };
            let sets = RingMsg {
                event,
                seen: seen.into_iter().collect(),
                need: need.into_iter().collect(),
            };
            let bytes = lists.to_bytes();
            prop_assert_eq!(&sets.to_bytes(), &bytes);
            prop_assert_eq!(RingMsg::from_bytes(&bytes).unwrap(), sets.clone());
            prop_assert_eq!(PeerMsg::from_bytes(&bytes).unwrap(), PeerMsg::Ring(sets.clone()));
            prop_assert_eq!(ProcMsg::from_bytes(&sets.to_bytes()).unwrap(), canonical(lists));
        }

        /// A process decodes every message the list spelling encodes:
        /// rings as sets, the rest unchanged.
        #[test]
        fn a_process_decodes_any_message(msg in arb_msg()) {
            let want = match canonical(msg.clone()) {
                ProcMsg::Ring { event, seen, need } => PeerMsg::Ring(RingMsg {
                    event,
                    seen: seen.into_iter().collect(),
                    need: need.into_iter().collect(),
                }),
                other => PeerMsg::Other(other),
            };
            let bytes = msg.to_bytes();
            prop_assert_eq!(want.to_bytes(), bytes.clone());
            prop_assert_eq!(PeerMsg::from_bytes(&bytes).unwrap(), want);
        }

        /// Decoding attacker-controlled bytes never panics.
        #[test]
        fn junk_never_panics(buf in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = ProcMsg::from_bytes(&buf);
        }

        /// Corrupting one byte of a valid encoding either still decodes
        /// to *some* message or fails cleanly — never panics.
        #[test]
        fn single_byte_corruption_is_safe(
            msg in arb_msg(),
            pos_seed in any::<usize>(),
            delta in 1u8..=255,
        ) {
            let mut bytes = msg.to_bytes().to_vec();
            if !bytes.is_empty() {
                let pos = pos_seed % bytes.len();
                bytes[pos] = bytes[pos].wrapping_add(delta);
                let _ = ProcMsg::from_bytes(&bytes);
            }
        }

        /// Any batch of messages survives framing, both via the value
        /// encoder and via hot-path concatenation of pre-encoded parts.
        #[test]
        fn any_frame_roundtrips(msgs in proptest::collection::vec(arb_msg(), 1..6)) {
            let frame = Frame { msgs: msgs.into_iter().map(canonical).collect() };
            roundtrip(&frame);
            let parts: Vec<bytes::Bytes> = frame.msgs.iter().map(Wire::to_bytes).collect();
            let mut w = WireWriter::new();
            prop_assert_eq!(Frame::encode_parts(&mut w, &parts), frame.to_bytes());
        }

        /// Truncating a valid frame at any point fails cleanly.
        #[test]
        fn truncated_frame_rejected(
            msgs in proptest::collection::vec(arb_msg(), 1..4),
            cut_seed in any::<usize>(),
        ) {
            let bytes = Frame { msgs }.to_bytes();
            let cut = cut_seed % bytes.len(); // strict prefix
            prop_assert!(Frame::from_bytes(&bytes[..cut]).is_err());
        }

        /// Decoding attacker-controlled bytes as a frame never panics,
        /// and junk that happens to start with the frame tag still
        /// validates every inner length prefix.
        #[test]
        fn frame_junk_never_panics(buf in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = Frame::from_bytes(&buf);
            let mut tagged = vec![FRAME_TAG];
            tagged.extend_from_slice(&buf);
            let _ = Frame::from_bytes(&tagged);
        }
    }
}
