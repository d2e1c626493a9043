//! Sensor events and their payloads.

use std::fmt;

use bytes::Bytes;

use crate::id::EventId;
use crate::time::Time;
use crate::wire::{Wire, WireError, WireReader, WireWriter};

/// The broad payload-size classes of off-the-shelf smart-home sensors
/// (paper Table 3).
///
/// Most physical-phenomenon sensors (temperature, humidity, motion,
/// door/window, energy, UV, vibration) emit **small** 4–8 byte events;
/// IP cameras and microphone frame batches emit **large** 1–20 KB
/// events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// 4–8 byte events from scalar sensors.
    Small,
    /// 1–20 KB events from cameras and microphones.
    Large,
}

impl fmt::Display for SizeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SizeClass::Small => write!(f, "small (4-8 B)"),
            SizeClass::Large => write!(f, "large (1-20 KB)"),
        }
    }
}

/// The semantic kind of a sensor event.
///
/// Kinds cover the sensor families surveyed in Table 1 of the paper.
/// Scalar readings carry their value inline; opaque blobs (camera
/// frames, microphone batches) carry their bytes in the event
/// [`Payload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum EventKind {
    /// A door or window opened.
    DoorOpen,
    /// A door or window closed.
    DoorClose,
    /// Motion detected.
    Motion,
    /// A wearable reported a fall.
    FallDetected,
    /// Water/moisture detected.
    WaterDetected,
    /// Smoke/fire detected.
    SmokeDetected,
    /// A scalar reading (temperature, humidity, luminance, UV, CO2,
    /// power, …). The unit is a property of the sensor, not the event.
    Reading,
    /// A camera frame (payload carries the compressed image).
    Image,
    /// A batch of microphone samples (payload carries the frame).
    AudioFrame,
    /// Occupancy inferred or sensed.
    Occupancy,
    /// Application-defined event.
    Custom,
}

impl EventKind {
    const ALL: [EventKind; 11] = [
        EventKind::DoorOpen,
        EventKind::DoorClose,
        EventKind::Motion,
        EventKind::FallDetected,
        EventKind::WaterDetected,
        EventKind::SmokeDetected,
        EventKind::Reading,
        EventKind::Image,
        EventKind::AudioFrame,
        EventKind::Occupancy,
        EventKind::Custom,
    ];

    fn tag(self) -> u8 {
        Self::ALL
            .iter()
            .position(|k| *k == self)
            .expect("kind present in ALL") as u8
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        Self::ALL
            .get(tag as usize)
            .copied()
            .ok_or(WireError::InvalidTag {
                ty: "EventKind",
                tag,
            })
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            EventKind::DoorOpen => "door-open",
            EventKind::DoorClose => "door-close",
            EventKind::Motion => "motion",
            EventKind::FallDetected => "fall-detected",
            EventKind::WaterDetected => "water-detected",
            EventKind::SmokeDetected => "smoke-detected",
            EventKind::Reading => "reading",
            EventKind::Image => "image",
            EventKind::AudioFrame => "audio-frame",
            EventKind::Occupancy => "occupancy",
            EventKind::Custom => "custom",
        };
        f.write_str(name)
    }
}

/// The data carried by an event: a scalar value, an opaque blob, or
/// nothing beyond the kind itself.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Payload {
    /// No payload beyond the event kind (e.g. a door-open event whose
    /// whole meaning is its kind).
    #[default]
    Empty,
    /// A scalar reading.
    Scalar(f64),
    /// An opaque blob (camera frame, audio batch). `Bytes` keeps clones
    /// cheap as events are replicated across processes.
    Blob(Bytes),
}

impl Payload {
    /// Creates a blob payload of `len` zero bytes; used by workload
    /// generators that only care about sizes.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Payload::Blob(Bytes::from(vec![0u8; len]))
    }

    /// Returns the scalar value if this is a `Scalar` payload.
    #[must_use]
    pub fn as_scalar(&self) -> Option<f64> {
        match self {
            Payload::Scalar(v) => Some(*v),
            _ => None,
        }
    }

    /// Number of payload bytes carried (0 for `Empty`, 8 for `Scalar`).
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Payload::Empty => 0,
            Payload::Scalar(_) => 8,
            Payload::Blob(b) => b.len(),
        }
    }

    /// Whether the payload carries no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<f64> for Payload {
    fn from(v: f64) -> Self {
        Payload::Scalar(v)
    }
}

impl From<Bytes> for Payload {
    fn from(b: Bytes) -> Self {
        Payload::Blob(b)
    }
}

impl Wire for Payload {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Payload::Empty => w.put_u8(0),
            Payload::Scalar(v) => {
                w.put_u8(1);
                v.encode(w);
            }
            Payload::Blob(b) => {
                w.put_u8(2);
                b.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(Payload::Empty),
            1 => Ok(Payload::Scalar(f64::decode(r)?)),
            2 => Ok(Payload::Blob(Bytes::decode(r)?)),
            tag => Err(WireError::InvalidTag { ty: "Payload", tag }),
        }
    }
}

/// A sensor event: the unit of data flowing from sensor nodes through
/// the delivery service to logic nodes.
///
/// Events are immutable once emitted. Identity (and thus duplicate
/// suppression in the Gapless ring) comes from [`EventId`]; the
/// emission timestamp supports delay measurement (Fig. 4) and staleness
/// bounds (§6); the optional `epoch` ties poll-based events to their
/// polling epoch for coordinated polling (§4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Unique identity: source sensor + per-sensor sequence number.
    pub id: EventId,
    /// Semantic kind.
    pub kind: EventKind,
    /// Payload carried by the event.
    pub payload: Payload,
    /// When the sensor emitted the event.
    pub emitted_at: Time,
    /// For poll-based sensors: which polling epoch this event answers.
    pub epoch: Option<u64>,
}

impl Event {
    /// Creates an event with no payload.
    #[must_use]
    pub fn new(id: EventId, kind: EventKind, emitted_at: Time) -> Self {
        Self {
            id,
            kind,
            payload: Payload::Empty,
            emitted_at,
            epoch: None,
        }
    }

    /// Creates an event carrying a payload.
    #[must_use]
    pub fn with_payload(id: EventId, kind: EventKind, payload: Payload, emitted_at: Time) -> Self {
        Self {
            id,
            kind,
            payload,
            emitted_at,
            epoch: None,
        }
    }

    /// Attaches the polling epoch this event answers.
    #[must_use]
    pub fn in_epoch(mut self, epoch: u64) -> Self {
        self.epoch = Some(epoch);
        self
    }

    /// Age of the event at `now` (zero if `now` precedes emission).
    #[must_use]
    pub fn staleness(&self, now: Time) -> crate::time::Duration {
        now - self.emitted_at
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{} [{}]", self.kind, self.id, self.emitted_at)
    }
}

impl Wire for Event {
    fn encode(&self, w: &mut WireWriter) {
        self.id.encode(w);
        w.put_u8(self.kind.tag());
        self.payload.encode(w);
        self.emitted_at.encode(w);
        self.epoch.encode(w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let id = EventId::decode(r)?;
        let kind = EventKind::from_tag(r.get_u8()?)?;
        let payload = Payload::decode(r)?;
        let emitted_at = Time::decode(r)?;
        let epoch = Option::<u64>::decode(r)?;
        Ok(Self {
            id,
            kind,
            payload,
            emitted_at,
            epoch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::SensorId;
    use crate::wire::roundtrip;

    fn sample_event() -> Event {
        Event::with_payload(
            EventId::new(SensorId(3), 9),
            EventKind::Reading,
            Payload::Scalar(21.5),
            Time::from_millis(400),
        )
        .in_epoch(4)
    }

    #[test]
    fn event_roundtrips_on_wire() {
        roundtrip(&sample_event());
        roundtrip(&Event::new(
            EventId::new(SensorId(0), 0),
            EventKind::DoorOpen,
            Time::ZERO,
        ));
        roundtrip(&Event::with_payload(
            EventId::new(SensorId(1), 1),
            EventKind::Image,
            Payload::zeros(20 * 1024),
            Time::from_secs(3),
        ));
    }

    #[test]
    fn all_kinds_roundtrip() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(kind.tag(), i as u8);
            assert_eq!(EventKind::from_tag(i as u8).unwrap(), *kind);
            roundtrip(&Event::new(
                EventId::new(SensorId(5), i as u64),
                *kind,
                Time::from_millis(i as u64),
            ));
        }
        assert!(EventKind::from_tag(EventKind::ALL.len() as u8).is_err());
    }

    #[test]
    fn payload_len_accounting() {
        assert_eq!(Payload::Empty.len(), 0);
        assert!(Payload::Empty.is_empty());
        assert_eq!(Payload::Scalar(1.0).len(), 8);
        assert_eq!(Payload::zeros(1024).len(), 1024);
        assert_eq!(Payload::default(), Payload::Empty);
    }

    #[test]
    fn payload_conversions() {
        assert_eq!(Payload::from(2.5).as_scalar(), Some(2.5));
        assert_eq!(Payload::Empty.as_scalar(), None);
        let b = Bytes::from_static(b"img");
        assert_eq!(Payload::from(b.clone()), Payload::Blob(b));
    }

    #[test]
    fn staleness_saturates() {
        let ev = sample_event();
        assert_eq!(
            ev.staleness(Time::from_millis(900)),
            crate::time::Duration::from_millis(500)
        );
        assert_eq!(ev.staleness(Time::ZERO), crate::time::Duration::ZERO);
    }

    #[test]
    fn size_class_display() {
        assert_eq!(SizeClass::Small.to_string(), "small (4-8 B)");
    }

    #[test]
    fn display_is_informative() {
        let text = sample_event().to_string();
        assert!(text.contains("reading"));
        assert!(text.contains("s3#9"));
    }

    #[test]
    fn junk_payload_tag_rejected() {
        assert!(matches!(
            Payload::from_bytes(&[9]),
            Err(WireError::InvalidTag {
                ty: "Payload",
                tag: 9
            })
        ));
    }
}
