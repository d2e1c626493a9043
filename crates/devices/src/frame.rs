//! The frame vocabulary spoken between devices and Rivulet processes.
//!
//! Adapters on the process side (paper §7) translate these
//! technology-level frames into platform events and back. Every frame
//! crosses a radio link, so it is wire-encoded and its exact size is
//! part of the experiment byte accounting.

use rivulet_types::wire::{Wire, WireError, WireReader, WireWriter};
use rivulet_types::{ActuationState, Command, CommandId, Event, RoutineId, SensorId};

/// A frame on a device↔process radio link.
#[derive(Debug, Clone, PartialEq)]
pub enum RadioFrame {
    /// A push-based sensor spontaneously reports an event, or a
    /// poll-based sensor answers a poll.
    Event(Event),
    /// A process polls a sensor for a fresh reading. Carries the
    /// requester's polling epoch so the response can be matched to it
    /// (coordinated polling, §4.1).
    PollRequest {
        /// The polled sensor.
        sensor: SensorId,
        /// The requesting application's polling epoch.
        epoch: u64,
    },
    /// A process instructs an actuator.
    Actuate(Command),
    /// An actuator acknowledges a command, reporting whether it was
    /// applied (Test&Set may refuse) and the resulting state.
    ActuateAck {
        /// Identity of the acknowledged command.
        command: CommandId,
        /// Whether the command took effect.
        applied: bool,
        /// The actuator state after processing the command.
        state: ActuationState,
    },
    /// The routine coordinator stages one step's command on an
    /// actuator. The actuator withholds the command (nothing fires)
    /// until a matching [`RadioFrame::CommitRoutine`] arrives, or
    /// discards it on [`RadioFrame::AbortRoutine`].
    Stage {
        /// The routine spec being fired.
        routine: RoutineId,
        /// The firing instance (coordinator-local counter).
        instance: u64,
        /// Position of this command in the routine's step order.
        step: u32,
        /// The withheld command.
        command: Command,
    },
    /// The actuator acknowledges staging; `accepted` is false when the
    /// actuator refuses to hold the command (e.g. a faulty device).
    StageAck {
        /// The staged routine.
        routine: RoutineId,
        /// The staged instance.
        instance: u64,
        /// The staged step.
        step: u32,
        /// Whether the command is now held for commit.
        accepted: bool,
    },
    /// Fires every command the actuator holds for `(routine,
    /// instance)`, in step order. Idempotent: an instance already
    /// committed (or never staged here) applies nothing.
    CommitRoutine {
        /// The routine to commit.
        routine: RoutineId,
        /// The instance to commit.
        instance: u64,
    },
    /// Discards every command the actuator holds for `(routine,
    /// instance)` without firing.
    AbortRoutine {
        /// The routine to abort.
        routine: RoutineId,
        /// The instance to abort.
        instance: u64,
    },
}

impl Wire for RadioFrame {
    fn encoded_len(&self) -> usize {
        1 + match self {
            RadioFrame::Event(e) => e.encoded_len(),
            RadioFrame::PollRequest { sensor, epoch } => sensor.encoded_len() + epoch.encoded_len(),
            RadioFrame::Actuate(c) => c.encoded_len(),
            RadioFrame::ActuateAck {
                command,
                applied,
                state,
            } => command.encoded_len() + applied.encoded_len() + state.encoded_len(),
            RadioFrame::Stage {
                routine,
                instance,
                step,
                command,
            } => {
                routine.encoded_len()
                    + instance.encoded_len()
                    + step.encoded_len()
                    + command.encoded_len()
            }
            RadioFrame::StageAck {
                routine,
                instance,
                step,
                accepted,
            } => {
                routine.encoded_len()
                    + instance.encoded_len()
                    + step.encoded_len()
                    + accepted.encoded_len()
            }
            RadioFrame::CommitRoutine { routine, instance }
            | RadioFrame::AbortRoutine { routine, instance } => {
                routine.encoded_len() + instance.encoded_len()
            }
        }
    }

    fn encode(&self, w: &mut WireWriter) {
        match self {
            RadioFrame::Event(e) => {
                w.put_u8(0);
                e.encode(w);
            }
            RadioFrame::PollRequest { sensor, epoch } => {
                w.put_u8(1);
                sensor.encode(w);
                epoch.encode(w);
            }
            RadioFrame::Actuate(c) => {
                w.put_u8(2);
                c.encode(w);
            }
            RadioFrame::ActuateAck {
                command,
                applied,
                state,
            } => {
                w.put_u8(3);
                command.encode(w);
                applied.encode(w);
                state.encode(w);
            }
            RadioFrame::Stage {
                routine,
                instance,
                step,
                command,
            } => {
                w.put_u8(4);
                routine.encode(w);
                instance.encode(w);
                step.encode(w);
                command.encode(w);
            }
            RadioFrame::StageAck {
                routine,
                instance,
                step,
                accepted,
            } => {
                w.put_u8(5);
                routine.encode(w);
                instance.encode(w);
                step.encode(w);
                accepted.encode(w);
            }
            RadioFrame::CommitRoutine { routine, instance } => {
                w.put_u8(6);
                routine.encode(w);
                instance.encode(w);
            }
            RadioFrame::AbortRoutine { routine, instance } => {
                w.put_u8(7);
                routine.encode(w);
                instance.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(RadioFrame::Event(Event::decode(r)?)),
            1 => Ok(RadioFrame::PollRequest {
                sensor: SensorId::decode(r)?,
                epoch: u64::decode(r)?,
            }),
            2 => Ok(RadioFrame::Actuate(Command::decode(r)?)),
            3 => Ok(RadioFrame::ActuateAck {
                command: CommandId::decode(r)?,
                applied: bool::decode(r)?,
                state: ActuationState::decode(r)?,
            }),
            4 => Ok(RadioFrame::Stage {
                routine: RoutineId::decode(r)?,
                instance: u64::decode(r)?,
                step: u32::decode(r)?,
                command: Command::decode(r)?,
            }),
            5 => Ok(RadioFrame::StageAck {
                routine: RoutineId::decode(r)?,
                instance: u64::decode(r)?,
                step: u32::decode(r)?,
                accepted: bool::decode(r)?,
            }),
            6 => Ok(RadioFrame::CommitRoutine {
                routine: RoutineId::decode(r)?,
                instance: u64::decode(r)?,
            }),
            7 => Ok(RadioFrame::AbortRoutine {
                routine: RoutineId::decode(r)?,
                instance: u64::decode(r)?,
            }),
            tag => Err(WireError::InvalidTag {
                ty: "RadioFrame",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rivulet_types::wire::roundtrip;
    use rivulet_types::{
        ActuatorId, CommandKind, EventId, EventKind, OperatorId, Payload, ProcessId, RoutineId,
        Time,
    };

    #[test]
    fn frames_roundtrip() {
        roundtrip(&RadioFrame::Event(Event::new(
            EventId::new(SensorId(1), 4),
            EventKind::Motion,
            Time::from_millis(10),
        )));
        roundtrip(&RadioFrame::PollRequest {
            sensor: SensorId(2),
            epoch: 17,
        });
        roundtrip(&RadioFrame::Actuate(Command::new(
            CommandId::new(ProcessId(0), OperatorId(1), 3),
            ActuatorId(5),
            CommandKind::Set(ActuationState::Switch(true)),
            Time::from_secs(1),
        )));
        roundtrip(&RadioFrame::ActuateAck {
            command: CommandId::new(ProcessId(0), OperatorId(1), 3),
            applied: false,
            state: ActuationState::Level(20.0),
        });
        roundtrip(&RadioFrame::Stage {
            routine: RoutineId(2),
            instance: 9,
            step: 1,
            command: Command::new(
                CommandId::new(ProcessId(0), OperatorId(1), 4),
                ActuatorId(5),
                CommandKind::Set(ActuationState::Level(30.0)),
                Time::from_secs(2),
            ),
        });
        roundtrip(&RadioFrame::StageAck {
            routine: RoutineId(2),
            instance: 9,
            step: 1,
            accepted: true,
        });
        roundtrip(&RadioFrame::CommitRoutine {
            routine: RoutineId(2),
            instance: 9,
        });
        roundtrip(&RadioFrame::AbortRoutine {
            routine: RoutineId(2),
            instance: 9,
        });
    }

    #[test]
    fn event_frame_size_tracks_payload() {
        let small = RadioFrame::Event(Event::new(
            EventId::new(SensorId(1), 0),
            EventKind::DoorOpen,
            Time::ZERO,
        ));
        let large = RadioFrame::Event(Event::with_payload(
            EventId::new(SensorId(1), 0),
            EventKind::Image,
            Payload::zeros(10_240),
            Time::ZERO,
        ));
        assert!(
            small.encoded_len() < 32,
            "small frame is {}",
            small.encoded_len()
        );
        assert!(large.encoded_len() > 10_240);
        assert_eq!(small.to_bytes().len(), small.encoded_len());
    }

    #[test]
    fn junk_tag_rejected() {
        assert!(matches!(
            RadioFrame::from_bytes(&[9]),
            Err(WireError::InvalidTag {
                ty: "RadioFrame",
                tag: 9
            })
        ));
    }
}
