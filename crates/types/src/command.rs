//! Actuation commands flowing from logic nodes to actuators.

use std::fmt;

use crate::id::{ActuatorId, OperatorId, ProcessId};
use crate::time::Time;
use crate::wire::{Wire, WireError, WireReader, WireWriter};

/// Unique identity of an actuation command.
///
/// Commands are identified by the process and operator that issued them
/// plus a per-issuer sequence number, so duplicate actuations caused by
/// concurrent active logic nodes (e.g. during a network partition, §5)
/// can be detected by Test&Set actuators and by the metrics layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CommandId {
    /// Process hosting the logic node that issued the command.
    pub issuer: ProcessId,
    /// Operator that issued the command.
    pub operator: OperatorId,
    /// Per-(issuer, operator) sequence number.
    pub seq: u64,
}

impl CommandId {
    /// Creates a command identity.
    #[must_use]
    pub fn new(issuer: ProcessId, operator: OperatorId, seq: u64) -> Self {
        Self {
            issuer,
            operator,
            seq,
        }
    }
}

impl fmt::Display for CommandId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}#{}", self.issuer, self.operator, self.seq)
    }
}

impl Wire for CommandId {
    fn encode(&self, w: &mut WireWriter) {
        self.issuer.encode(w);
        self.operator.encode(w);
        self.seq.encode(w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            issuer: ProcessId::decode(r)?,
            operator: OperatorId::decode(r)?,
            seq: u64::decode(r)?,
        })
    }
}

/// The externally visible state of an actuator, used both as command
/// argument and as the value read back by Test&Set (§5).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ActuationState {
    /// Binary state (light on/off, lock engaged/open, siren on/off).
    Switch(bool),
    /// Continuous set-point (thermostat temperature, dimmer level).
    Level(f64),
    /// One-shot trigger with a count (dispense N units, brew N cups);
    /// inherently non-idempotent.
    Pulse(u32),
}

impl fmt::Display for ActuationState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActuationState::Switch(on) => {
                write!(f, "switch={}", if *on { "on" } else { "off" })
            }
            ActuationState::Level(v) => write!(f, "level={v}"),
            ActuationState::Pulse(n) => write!(f, "pulse={n}"),
        }
    }
}

impl Wire for ActuationState {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ActuationState::Switch(on) => {
                w.put_u8(0);
                on.encode(w);
            }
            ActuationState::Level(v) => {
                w.put_u8(1);
                v.encode(w);
            }
            ActuationState::Pulse(n) => {
                w.put_u8(2);
                n.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(ActuationState::Switch(bool::decode(r)?)),
            1 => Ok(ActuationState::Level(f64::decode(r)?)),
            2 => Ok(ActuationState::Pulse(u32::decode(r)?)),
            tag => Err(WireError::InvalidTag {
                ty: "ActuationState",
                tag,
            }),
        }
    }
}

/// How a command mutates the actuator.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum CommandKind {
    /// Unconditionally set the actuator state. Safe to repeat for
    /// idempotent actuators (lights, locks, thermostats, sirens).
    Set(ActuationState),
    /// Atomically: if the actuator's current state equals `expected`,
    /// set it to `desired`. Prevents duplicate non-idempotent
    /// actuations when multiple logic nodes run concurrently (§5).
    TestAndSet {
        /// State the issuer believes the actuator is in.
        expected: ActuationState,
        /// State to transition to if the expectation holds.
        desired: ActuationState,
    },
}

impl Wire for CommandKind {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            CommandKind::Set(s) => {
                w.put_u8(0);
                s.encode(w);
            }
            CommandKind::TestAndSet { expected, desired } => {
                w.put_u8(1);
                expected.encode(w);
                desired.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(CommandKind::Set(ActuationState::decode(r)?)),
            1 => Ok(CommandKind::TestAndSet {
                expected: ActuationState::decode(r)?,
                desired: ActuationState::decode(r)?,
            }),
            tag => Err(WireError::InvalidTag {
                ty: "CommandKind",
                tag,
            }),
        }
    }
}

/// An actuation command: the unit of data flowing from logic nodes
/// through actuator nodes to physical actuators.
#[derive(Debug, Clone, PartialEq)]
pub struct Command {
    /// Unique identity.
    pub id: CommandId,
    /// Target actuator.
    pub actuator: ActuatorId,
    /// The mutation to apply.
    pub kind: CommandKind,
    /// When the logic node issued the command.
    pub issued_at: Time,
}

impl Command {
    /// Creates a command.
    #[must_use]
    pub fn new(id: CommandId, actuator: ActuatorId, kind: CommandKind, issued_at: Time) -> Self {
        Self {
            id,
            actuator,
            kind,
            issued_at,
        }
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            CommandKind::Set(s) => write!(f, "set {} -> {}", self.actuator, s),
            CommandKind::TestAndSet { expected, desired } => {
                write!(f, "tas {} {} => {}", self.actuator, expected, desired)
            }
        }
    }
}

impl Wire for Command {
    fn encode(&self, w: &mut WireWriter) {
        self.id.encode(w);
        self.actuator.encode(w);
        self.kind.encode(w);
        self.issued_at.encode(w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            id: CommandId::decode(r)?,
            actuator: ActuatorId::decode(r)?,
            kind: CommandKind::decode(r)?,
            issued_at: Time::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::roundtrip;

    fn sample() -> Command {
        Command::new(
            CommandId::new(ProcessId(1), OperatorId(2), 7),
            ActuatorId(4),
            CommandKind::Set(ActuationState::Switch(true)),
            Time::from_millis(250),
        )
    }

    #[test]
    fn command_roundtrips() {
        roundtrip(&sample());
        roundtrip(&Command::new(
            CommandId::new(ProcessId(0), OperatorId(0), 0),
            ActuatorId(1),
            CommandKind::TestAndSet {
                expected: ActuationState::Pulse(0),
                desired: ActuationState::Pulse(1),
            },
            Time::ZERO,
        ));
        roundtrip(&Command::new(
            CommandId::new(ProcessId(9), OperatorId(9), u64::MAX),
            ActuatorId(9),
            CommandKind::Set(ActuationState::Level(21.5)),
            Time::MAX,
        ));
    }

    #[test]
    fn command_ids_order_by_issuer_then_seq() {
        let a = CommandId::new(ProcessId(1), OperatorId(1), 5);
        let b = CommandId::new(ProcessId(1), OperatorId(1), 6);
        let c = CommandId::new(ProcessId(2), OperatorId(0), 0);
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn display_formats() {
        assert_eq!(sample().to_string(), "set a4 -> switch=on");
        assert_eq!(ActuationState::Level(19.0).to_string(), "level=19");
        assert_eq!(ActuationState::Pulse(2).to_string(), "pulse=2");
        assert_eq!(sample().id.to_string(), "p1/op2#7");
    }

    #[test]
    fn junk_tags_rejected() {
        assert!(matches!(
            ActuationState::from_bytes(&[7]),
            Err(WireError::InvalidTag {
                ty: "ActuationState",
                ..
            })
        ));
        assert!(matches!(
            CommandKind::from_bytes(&[7]),
            Err(WireError::InvalidTag {
                ty: "CommandKind",
                ..
            })
        ));
    }
}
