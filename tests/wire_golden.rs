//! The wire format, byte for byte: every inter-process message, a
//! coalesced frame, every radio frame and a WAL segment, compared with
//! literals written down from the codec's output. `wire_budget.rs`
//! pins sizes; this pins the bytes themselves, so any change to a
//! layout — a reordered field, a new tag, a different length header —
//! fails here and names the value whose encoding moved.
//!
//! Encodings of up to 64 bytes are pinned as hex; longer ones as their
//! length, their first eight bytes and a SHA-256 digest of the whole.

use std::sync::Arc;

use rivulet::core::messages::{Frame, ProcMsg};
use rivulet::devices::RadioFrame;
use rivulet::storage::record::decode_frame;
use rivulet::storage::{
    Checkpoint, LedgerChain, RoutineTransition, Sha256, SimBackend, StorageBackend, Wal, WalOptions,
};
use rivulet::types::wire::{Wire, WireWriter};
use rivulet::types::{
    ActuationState, ActuatorId, Command, CommandId, CommandKind, Event, EventId, EventKind,
    OperatorId, Payload, ProcessId, RoutineId, SensorId, Time,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The pinned form of `bytes`: hex up to 64 bytes, else length, head
/// and digest.
fn golden(bytes: &[u8]) -> String {
    if bytes.len() <= 64 {
        hex(bytes)
    } else {
        format!(
            "{} bytes {}.. sha256 {}",
            bytes.len(),
            hex(&bytes[..8]),
            hex(&Sha256::digest(bytes))
        )
    }
}

#[track_caller]
fn pin(what: &str, bytes: &[u8], want: &str) {
    assert_eq!(golden(bytes), want, "{what}: encoding changed");
}

fn pids(ids: &[u32]) -> Vec<ProcessId> {
    ids.iter().map(|i| ProcessId(*i)).collect()
}

/// Event `seq` of sensor 3, one virtual second in, carrying `payload`.
fn event(seq: u64, payload: Payload) -> Event {
    Event::with_payload(
        EventId::new(SensorId(3), seq),
        EventKind::Motion,
        payload,
        Time::from_secs(1),
    )
}

fn command(kind: CommandKind) -> Command {
    Command::new(
        CommandId::new(ProcessId(2), OperatorId(5), 300),
        ActuatorId(7),
        kind,
        Time::from_millis(1_500),
    )
}

#[test]
fn every_process_message_keeps_its_bytes() {
    let cases = [
        (
            "KeepAlive",
            ProcMsg::KeepAlive {
                from: ProcessId(4),
                view: pids(&[0, 1, 2, 3, 4]).into_iter().collect(),
                processed: [(SensorId(1), 99), (SensorId(2), 1_000)].into(),
                received: (0..=101)
                    .map(|seq| EventId::new(SensorId(1), seq))
                    .collect(),
            },
            "00041f02016302e80701016500",
        ),
        (
            "KeepAlive with holes",
            ProcMsg::KeepAlive {
                from: ProcessId(4),
                view: pids(&[0, 4]).into_iter().collect(),
                processed: [].into(),
                received: [3, 4, 101]
                    .map(|seq| EventId::new(SensorId(1), seq))
                    .into_iter()
                    .collect(),
            },
            "000411000101650101020002055f",
        ),
        (
            "Ring",
            ProcMsg::Ring {
                event: event(1_000, Payload::Scalar(21.5)),
                seen: pids(&[0, 1, 2]),
                need: pids(&[0, 1, 2, 3, 4]),
            },
            "0103e80702010000000000803540c0843d00071f",
        ),
        (
            "Broadcast",
            ProcMsg::Broadcast {
                event: event(1_000, Payload::Empty).in_epoch(6),
                origin: ProcessId(2),
            },
            "0203e8070200c0843d010602",
        ),
        (
            "GapForward",
            ProcMsg::GapForward {
                event: event(7, Payload::zeros(3)),
            },
            "040307020203000000c0843d00",
        ),
        (
            "SyncEvents",
            ProcMsg::SyncEvents {
                events: vec![event(1, Payload::Empty), event(2, Payload::Scalar(-1.0))],
            },
            "070203010200c0843d0003020201000000000000f0bfc0843d00",
        ),
        (
            "CmdForward",
            ProcMsg::CmdForward {
                command: command(CommandKind::TestAndSet {
                    expected: ActuationState::Switch(false),
                    desired: ActuationState::Level(0.5),
                }),
            },
            "080205ac020701000001000000000000e03fe0c65b",
        ),
    ];
    for (name, msg, want) in &cases {
        pin(name, &msg.to_bytes(), want);
    }
}

#[test]
fn a_coalesced_frame_keeps_its_bytes() {
    let parts = [
        ProcMsg::Ring {
            event: event(1_000, Payload::Empty),
            seen: pids(&[1]),
            need: pids(&[0, 1, 2, 3, 4]),
        },
        ProcMsg::GapForward {
            event: event(1_001, Payload::zeros(200)),
        },
    ]
    .map(|m| m.to_bytes());
    let mut w = WireWriter::new();
    pin("Frame", &Frame::encode_parts(&mut w, &parts), "229 bytes c0020c0103e80702.. sha256 df3b2f8e148a60cd2c4b53307a7a379f329ff681e61ea4cb2cafaf58a8484570");
}

#[test]
fn every_radio_frame_keeps_its_bytes() {
    let cases = [
        (
            "Event",
            RadioFrame::Event(event(42, Payload::Empty)),
            "00032a0200c0843d00",
        ),
        (
            "PollRequest",
            RadioFrame::PollRequest {
                sensor: SensorId(3),
                epoch: 130,
            },
            "01038201",
        ),
        (
            "Actuate",
            RadioFrame::Actuate(command(CommandKind::Set(ActuationState::Pulse(2)))),
            "020205ac0207000202e0c65b",
        ),
        (
            "ActuateAck",
            RadioFrame::ActuateAck {
                command: CommandId::new(ProcessId(2), OperatorId(5), 300),
                applied: true,
                state: ActuationState::Switch(true),
            },
            "030205ac02010001",
        ),
        (
            "Stage",
            RadioFrame::Stage {
                routine: RoutineId(4),
                instance: 9,
                step: 1,
                command: command(CommandKind::Set(ActuationState::Switch(true))),
            },
            "040409010205ac0207000001e0c65b",
        ),
        (
            "StageAck",
            RadioFrame::StageAck {
                routine: RoutineId(4),
                instance: 9,
                step: 1,
                accepted: false,
            },
            "0504090100",
        ),
        (
            "CommitRoutine",
            RadioFrame::CommitRoutine {
                routine: RoutineId(4),
                instance: 9,
            },
            "060409",
        ),
        (
            "AbortRoutine",
            RadioFrame::AbortRoutine {
                routine: RoutineId(4),
                instance: 200,
            },
            "0704c801",
        ),
    ];
    for (name, frame, want) in &cases {
        pin(name, &frame.to_bytes(), want);
    }
}

/// Splits a segment into its `[len varint][crc32][payload]` frames.
fn frames(mut segment: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    while !segment.is_empty() {
        let (_, used) = decode_frame(segment).expect("a whole, valid frame");
        let (frame, rest) = segment.split_at(used);
        out.push(frame);
        segment = rest;
    }
    out
}

#[test]
fn a_wal_segment_keeps_its_bytes() {
    let backend = Arc::new(SimBackend::new(1));
    let (mut wal, _) = Wal::open(backend.clone(), WalOptions::default()).unwrap();
    // Blobs of 0, 200 and 20 000 bytes put 1-, 2- and 3-byte lengths
    // in front of their frames.
    for (seq, len) in [(1, 0), (2, 200), (3, 20_000)] {
        wal.append_event(&event(seq, Payload::zeros(len))).unwrap();
    }
    wal.append_checkpoint(&Checkpoint {
        at: Time::from_secs(2),
        processed: vec![(SensorId(3), 3)],
    })
    .unwrap();
    let entry = LedgerChain::seeded(42).append(
        RoutineId(4),
        9,
        RoutineTransition::Staged,
        Time::from_secs(3),
        vec![(
            ActuatorId(7),
            CommandId::new(ProcessId(2), OperatorId(5), 300),
        )],
    );
    wal.append_ledger(&entry).unwrap();

    let segment = backend.read_segment(0).unwrap();
    let want = [
        "0aebf16336000301020200c0843d00",
        "217 bytes d301f88463600003.. sha256 77a411c75068613cd178a2f6bbd9bf777fd853506999c6ad133f50afe8308367",
        "20019 bytes ac9c01f23f1c0600.. sha256 838cc0a7e1fb23c89d4ec6717f13dcbd58704b02a724fbd36c54fd9642c22e4d",
        "07473a392e0180897a010303",
        "83 bytes 4ebc1b602b020409.. sha256 28d4c403ae8c3b93044e8567710e0aa68619fc00220bfa95563fec8e4a3f0dec",
    ];
    let got = frames(&segment);
    assert_eq!(got.len(), want.len(), "frames in the segment");
    for (i, (frame, want)) in got.iter().zip(want).enumerate() {
        pin(&format!("WAL frame {i}"), frame, want);
    }
}
