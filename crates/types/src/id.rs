//! Identifiers for processes, devices, apps, operators, and events.

use std::fmt;

use crate::wire::{Wire, WireError, WireReader, WireWriter};

macro_rules! impl_u32_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw numeric value of this identifier.
            #[must_use]
            pub fn as_u32(self) -> u32 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u32 {
            fn from(id: $name) -> u32 {
                id.0
            }
        }

        impl Wire for $name {
            fn encode(&self, w: &mut WireWriter) {
                self.0.encode(w);
            }

            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(Self(u32::decode(r)?))
            }
        }
    };
}

impl_u32_id! {
    /// Identity of a Rivulet process (one runtime instance per host:
    /// a TV, fridge, hub, phone, …).
    ///
    /// Process identities are totally ordered; the Gapless ring and the
    /// execution-service chain both derive their successor relation
    /// from this order.
    ProcessId, "p"
}

impl_u32_id! {
    /// Identity of a physical sensor (door, motion, temperature, …).
    SensorId, "s"
}

impl_u32_id! {
    /// Identity of a physical actuator (light, siren, thermostat, …).
    ActuatorId, "a"
}

impl_u32_id! {
    /// Identity of a deployed application graph.
    AppId, "app"
}

impl_u32_id! {
    /// Identity of an operator inside an application graph.
    OperatorId, "op"
}

impl_u32_id! {
    /// Identity of a deployed routine — an ordered multi-actuator
    /// command sequence executed with all-or-nothing semantics by the
    /// active logic node (SafeHome-style atomicity; see
    /// `rivulet-core`'s routine engine).
    ///
    /// A `RoutineId` names the *spec*; each firing of the routine is a
    /// distinct **instance**, numbered by a per-process `u64` counter
    /// that also keys the staging protocol frames and the ledger
    /// entries of that firing.
    RoutineId, "r"
}

/// Globally unique identity of a sensor event.
///
/// Events are identified by their source sensor plus a per-sensor
/// sequence number assigned at emission. Sequence numbers make
/// duplicate suppression (ring forwarding revisits processes) and gap
/// detection trivial, and provide the "timestamp of the last event
/// received" used by the Bayou-style anti-entropy synchronization of
/// the Gapless protocol (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    /// The sensor that produced the event.
    pub sensor: SensorId,
    /// Position of the event in the sensor's emission order (0-based).
    pub seq: u64,
}

impl EventId {
    /// Creates an event identity from a sensor and sequence number.
    #[must_use]
    pub fn new(sensor: SensorId, seq: u64) -> Self {
        Self { sensor, seq }
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.sensor, self.seq)
    }
}

impl Wire for EventId {
    fn encode(&self, w: &mut WireWriter) {
        self.sensor.encode(w);
        self.seq.encode(w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            sensor: SensorId::decode(r)?,
            seq: u64::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::roundtrip;

    #[test]
    fn display_uses_short_prefixes() {
        assert_eq!(ProcessId(3).to_string(), "p3");
        assert_eq!(SensorId(1).to_string(), "s1");
        assert_eq!(ActuatorId(9).to_string(), "a9");
        assert_eq!(AppId(2).to_string(), "app2");
        assert_eq!(OperatorId(4).to_string(), "op4");
        assert_eq!(EventId::new(SensorId(1), 17).to_string(), "s1#17");
    }

    #[test]
    fn ids_are_ordered_by_raw_value() {
        assert!(ProcessId(1) < ProcessId(2));
        assert!(EventId::new(SensorId(0), 5) < EventId::new(SensorId(0), 6));
        assert!(EventId::new(SensorId(0), 5) < EventId::new(SensorId(1), 0));
    }

    #[test]
    fn from_into_u32_roundtrip() {
        let p: ProcessId = 42u32.into();
        assert_eq!(u32::from(p), 42);
        assert_eq!(p.as_u32(), 42);
    }

    #[test]
    fn wire_roundtrip_ids() {
        roundtrip(&ProcessId(7));
        roundtrip(&SensorId(u32::MAX));
        roundtrip(&EventId::new(SensorId(3), u64::MAX));
    }
}
