//! The inter-process protocol message vocabulary.
//!
//! Everything Rivulet processes say to each other over the home WiFi
//! mesh. Sizes matter: the network-overhead experiment (Fig. 5)
//! measures exactly these messages. The paper notes that the Gapless
//! ring's `seen`/`need` metadata sets dominate overhead at small event
//! sizes; here each set crosses the wire as one [`ProcSet`] bitmask —
//! one byte in a home of up to seven processes — so a ring message is
//! two bytes longer than the Gap forward of the same event.

use rivulet_types::wire::{varint_len, Wire, WireError, WireReader, WireWriter};
use rivulet_types::{Command, Event, ProcSet, ProcessId, SensorId};

/// A message between two Rivulet processes.
#[derive(Debug, Clone, PartialEq)]
pub enum ProcMsg {
    /// Periodic liveness beacon (§4.1's keep-alive exchange).
    ///
    /// An active logic node piggybacks per-sensor *processed*
    /// watermarks so shadows know which replicated events were already
    /// consumed; on promotion a shadow replays only events above these
    /// marks (the upstream-backup acknowledgement idea of Hwang et
    /// al., which Fig. 7's bounded catch-up spike implies).
    KeepAlive {
        /// The sender.
        from: ProcessId,
        /// `(sensor, highest seq processed by an active logic node at
        /// the sender)`; empty for pure shadows.
        processed: Vec<(SensorId, u64)>,
        /// `(sensor, highest seq durably received at the sender)` —
        /// cumulative ack watermarks piggybacked on the beacon. A
        /// broadcast origin retires every pending retransmission whose
        /// seq is covered by the peer's watermark; no per-event ack
        /// exists on the wire. Empty until the first delivery.
        received: Vec<(SensorId, u64)>,
    },
    /// Gapless ring forwarding: `(e : S : V)` from the paper — the
    /// event, the processes that have **seen** it, and the processes
    /// that **need** to see it. Both sets are [`ProcSet`]s on the wire
    /// and in the protocol; a decoded message lists them ascending and
    /// without duplicates, whatever order the sender's lists had.
    ///
    /// # Panics
    ///
    /// Encoding (and `encoded_len`) panics if either list names a
    /// process id of [`ProcSet::CAPACITY`] or more: a home holds at most
    /// 64 processes, and the deployment rejects a 65th.
    Ring {
        /// The event being replicated.
        event: Event,
        /// `S`: processes that have seen the event.
        seen: Vec<ProcessId>,
        /// `V`: processes that are supposed to deliver the event.
        need: Vec<ProcessId>,
    },
    /// Reliable-broadcast fallback: eager flooding of an event that the
    /// ring failed to spread (§4.1).
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
    /// Anti-entropy: ask a new ring successor for its per-sensor high
    /// watermarks (Bayou-style, §4.1).
    SyncRequest {
        /// The asking process.
        from: ProcessId,
    },
    /// Anti-entropy: the successor's per-sensor last-received sequence
    /// numbers (absent sensors mean "nothing received").
    SyncReply {
        /// The replying process.
        from: ProcessId,
        /// `(sensor, highest seq received)` pairs.
        watermarks: Vec<(SensorId, u64)>,
    },
    /// Anti-entropy: events the requester determined the successor is
    /// missing.
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

impl ProcMsg {
    /// The first wire byte. Tag 3 is retired (it was the per-event
    /// broadcast ack) and decodes to an error; it is not reused.
    fn tag(&self) -> u8 {
        match self {
            ProcMsg::KeepAlive { .. } => 0,
            ProcMsg::Ring { .. } => 1,
            ProcMsg::Broadcast { .. } => 2,
            ProcMsg::GapForward { .. } => 4,
            ProcMsg::SyncRequest { .. } => 5,
            ProcMsg::SyncReply { .. } => 6,
            ProcMsg::SyncEvents { .. } => 7,
            ProcMsg::CmdForward { .. } => 8,
        }
    }
}

/// The members of a decoded ring set, ascending, in a block with room
/// for one more: a relay adds itself to `S`.
fn decode_members(r: &mut WireReader<'_>) -> Result<Vec<ProcessId>, WireError> {
    let set = ProcSet::decode(r)?;
    let mut members = Vec::with_capacity(set.len() + 1);
    members.extend(set);
    Ok(members)
}

/// A ring message's member list as the set that crosses the wire.
///
/// # Panics
///
/// Panics if a member's id is not below [`ProcSet::CAPACITY`].
fn as_set(members: &[ProcessId]) -> ProcSet {
    members.iter().copied().collect()
}

impl Wire for ProcMsg {
    fn encoded_len(&self) -> usize {
        1 + match self {
            ProcMsg::KeepAlive {
                from,
                processed,
                received,
            } => from.encoded_len() + processed.encoded_len() + received.encoded_len(),
            ProcMsg::Ring { event, seen, need } => {
                event.encoded_len() + as_set(seen).encoded_len() + as_set(need).encoded_len()
            }
            ProcMsg::Broadcast { event, origin } => event.encoded_len() + origin.encoded_len(),
            ProcMsg::GapForward { event } => event.encoded_len(),
            ProcMsg::SyncRequest { from } => from.encoded_len(),
            ProcMsg::SyncReply { from, watermarks } => {
                from.encoded_len() + watermarks.encoded_len()
            }
            ProcMsg::SyncEvents { events } => events.encoded_len(),
            ProcMsg::CmdForward { command } => command.encoded_len(),
        }
    }

    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(self.tag());
        match self {
            ProcMsg::KeepAlive {
                from,
                processed,
                received,
            } => {
                from.encode(w);
                processed.encode(w);
                received.encode(w);
            }
            ProcMsg::Ring { event, seen, need } => {
                event.encode(w);
                as_set(seen).encode(w);
                as_set(need).encode(w);
            }
            ProcMsg::Broadcast { event, origin } => {
                event.encode(w);
                origin.encode(w);
            }
            ProcMsg::GapForward { event } => event.encode(w),
            ProcMsg::SyncRequest { from } => from.encode(w),
            ProcMsg::SyncReply { from, watermarks } => {
                from.encode(w);
                watermarks.encode(w);
            }
            ProcMsg::SyncEvents { events } => events.encode(w),
            ProcMsg::CmdForward { command } => command.encode(w),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(ProcMsg::KeepAlive {
                from: ProcessId::decode(r)?,
                processed: Vec::decode(r)?,
                received: Vec::decode(r)?,
            }),
            1 => Ok(ProcMsg::Ring {
                event: Event::decode(r)?,
                seen: decode_members(r)?,
                need: decode_members(r)?,
            }),
            2 => Ok(ProcMsg::Broadcast {
                event: Event::decode(r)?,
                origin: ProcessId::decode(r)?,
            }),
            4 => Ok(ProcMsg::GapForward {
                event: Event::decode(r)?,
            }),
            5 => Ok(ProcMsg::SyncRequest {
                from: ProcessId::decode(r)?,
            }),
            6 => Ok(ProcMsg::SyncReply {
                from: ProcessId::decode(r)?,
                watermarks: Vec::decode(r)?,
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
/// releasing gated sends, an anti-entropy exchange), they travel as one
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
}

impl Wire for Frame {
    fn encoded_len(&self) -> usize {
        1 + varint_len(self.msgs.len() as u64)
            + self
                .msgs
                .iter()
                .map(|m| {
                    let len = m.encoded_len();
                    varint_len(len as u64) + len
                })
                .sum::<usize>()
    }

    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(FRAME_TAG);
        w.put_varint(self.msgs.len() as u64);
        for msg in &self.msgs {
            w.put_varint(msg.encoded_len() as u64);
            msg.encode(w);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let tag = r.get_u8()?;
        if tag != FRAME_TAG {
            return Err(WireError::InvalidTag { ty: "Frame", tag });
        }
        let count = r.get_len()?;
        if count == 0 {
            return Err(WireError::EmptyBatch);
        }
        let mut msgs = Vec::with_capacity(count.min(1_024));
        for _ in 0..count {
            let len = r.get_len()?;
            // Each message must consume exactly its declared length: a
            // shorter decode means an overlong length prefix smuggling
            // trailing bytes, a longer one is caught by the sub-reader
            // bounds.
            let mut sub = r.sub_reader(len)?;
            let msg = ProcMsg::decode(&mut sub)?;
            if !sub.is_empty() {
                return Err(WireError::TrailingBytes {
                    remaining: sub.remaining(),
                });
            }
            msgs.push(msg);
        }
        Ok(Frame { msgs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rivulet_types::wire::roundtrip;
    use rivulet_types::{EventId, EventKind, Time};

    fn ev(seq: u64) -> Event {
        Event::new(
            EventId::new(SensorId(1), seq),
            EventKind::Motion,
            Time::from_millis(seq),
        )
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(&ProcMsg::KeepAlive {
            from: ProcessId(3),
            processed: vec![],
            received: vec![],
        });
        roundtrip(&ProcMsg::KeepAlive {
            from: ProcessId(3),
            processed: vec![(SensorId(1), 99), (SensorId(2), 0)],
            received: vec![(SensorId(1), 101)],
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
        roundtrip(&ProcMsg::SyncRequest { from: ProcessId(4) });
        roundtrip(&ProcMsg::SyncReply {
            from: ProcessId(4),
            watermarks: vec![(SensorId(1), 10), (SensorId(2), 0)],
        });
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
        assert_eq!(ring.encoded_len(), gap.encoded_len() + 2);
        let bytes = ring.to_bytes();
        assert_eq!(bytes[bytes.len() - 2..], [0b1, 0b1_1111]);
    }

    #[test]
    fn ring_sets_decode_ascending_with_room_for_the_relay() {
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
        assert!(seen.capacity() > seen.len(), "S ∪ {{me}} fits the block");
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
        let ka = ProcMsg::KeepAlive {
            from: ProcessId(1),
            processed: vec![],
            received: vec![],
        };
        assert!(ka.encoded_len() <= 4, "keep-alive must stay cheap");
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

    /// What a peer built before tag 3 was retired sends as a
    /// per-event broadcast ack: the tag, an event id, a process id.
    fn old_ack_bytes() -> bytes::Bytes {
        let mut w = WireWriter::new();
        w.put_u8(3);
        EventId::new(SensorId(1), 1).encode(&mut w);
        ProcessId(1).encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn retired_tag_3_is_rejected_bare_and_inside_a_frame() {
        let old_ack = old_ack_bytes();
        let retired = Err(WireError::InvalidTag {
            ty: "ProcMsg",
            tag: 3,
        });
        assert_eq!(ProcMsg::from_bytes(&old_ack), retired);
        assert_eq!(ProcMsg::from_bytes(&[3]), retired);

        let keepalive = ProcMsg::KeepAlive {
            from: ProcessId(0),
            processed: vec![],
            received: vec![],
        }
        .to_bytes();
        let framed = Frame::encode_parts(&mut WireWriter::new(), &[keepalive, old_ack]);
        assert_eq!(
            Frame::from_bytes(&framed),
            Err(WireError::InvalidTag {
                ty: "ProcMsg",
                tag: 3
            })
        );
    }

    #[test]
    fn a_process_drops_the_retired_tag_without_panicking() {
        use crate::config::RivuletConfig;
        use crate::deploy::DirectoryData;
        use crate::process::{ProcessSpec, RivuletProcess};
        use rivulet_net::actor::{Actor, ActorEvent, ActorId, Context};
        use rivulet_net::link::ActorClass;
        use rivulet_net::sim::{SimConfig, SimNet};
        use std::sync::Arc;

        /// A peer from before tag 3 was retired: acks on start-up.
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

        let old_ack = old_ack_bytes();
        let framed = Frame::encode_parts(&mut WireWriter::new(), std::slice::from_ref(&old_ack));
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
                payloads: vec![old_ack.clone(), framed.clone()],
            })
        });
        net.run_for(rivulet_types::Duration::from_secs(1));
        assert!(net.metrics().messages_delivered >= 2, "both copies arrived");
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
                ProcMsg::SyncRequest { from: ProcessId(2) },
                ProcMsg::KeepAlive {
                    from: ProcessId(2),
                    processed: vec![],
                    received: vec![(SensorId(1), 7)],
                },
            ],
        };
        roundtrip(&frame);
        assert!(Frame::sniff(&frame.to_bytes()));
    }

    #[test]
    fn encode_parts_matches_frame_encoding() {
        let msgs = vec![
            ProcMsg::GapForward { event: ev(9) },
            ProcMsg::SyncRequest { from: ProcessId(1) },
        ];
        let parts: Vec<bytes::Bytes> = msgs.iter().map(Wire::to_bytes).collect();
        let mut w = WireWriter::new();
        let assembled = Frame::encode_parts(&mut w, &parts);
        let reference = Frame { msgs }.to_bytes();
        assert_eq!(assembled, reference, "concatenation must be canonical");
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
            msgs: vec![ProcMsg::SyncRequest { from: ProcessId(3) }],
        };
        let good = frame.to_bytes();
        // Every strict prefix fails cleanly.
        for cut in 0..good.len() {
            assert!(Frame::from_bytes(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Overlong per-message length prefix: declare one byte more
        // than the message occupies, padding with a trailing byte the
        // inner decode will not consume.
        let inner = ProcMsg::SyncRequest { from: ProcessId(3) }.to_bytes();
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
    use rivulet_types::{EventId, EventKind, Payload, Time};

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
                any::<u32>(),
                proptest::collection::vec((any::<u32>(), any::<u64>()), 0..6),
                proptest::collection::vec((any::<u32>(), any::<u64>()), 0..6)
            )
                .prop_map(|(from, processed, received)| ProcMsg::KeepAlive {
                    from: ProcessId(from),
                    processed: processed
                        .into_iter()
                        .map(|(s, q)| (SensorId(s), q))
                        .collect(),
                    received: received
                        .into_iter()
                        .map(|(s, q)| (SensorId(s), q))
                        .collect(),
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
            any::<u32>().prop_map(|f| ProcMsg::SyncRequest { from: ProcessId(f) }),
            proptest::collection::vec(arb_event(), 0..5)
                .prop_map(|events| ProcMsg::SyncEvents { events }),
        ]
    }

    proptest! {
        /// Every protocol message survives the wire with exact length
        /// accounting.
        #[test]
        fn any_message_roundtrips(msg in arb_msg()) {
            let bytes = msg.to_bytes();
            prop_assert_eq!(bytes.len(), msg.encoded_len());
            prop_assert_eq!(ProcMsg::from_bytes(&bytes).unwrap(), canonical(msg));
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
