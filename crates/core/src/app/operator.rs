//! Operators: the application logic units inside a logic node (§6).
//!
//! A logic node comprises operators connected as a DAG. Each operator
//! receives *combined windows* from its input streams (sensors or
//! upstream operators), runs arbitrary handler logic, and emits
//! actuation commands, downstream values, or user alerts through its
//! [`OpCtx`].

use std::fmt;
use std::sync::Arc;

use rivulet_types::{
    ActuationState, ActuatorId, CommandKind, Event, EventKind, OperatorId, RoutineId, SensorId,
    Time,
};

/// Identifies one input stream of an operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StreamKey {
    /// Events from a physical sensor.
    Sensor(SensorId),
    /// Values emitted by an upstream operator in the same logic node.
    Operator(OperatorId),
}

impl fmt::Display for StreamKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamKey::Sensor(s) => write!(f, "{s}"),
            StreamKey::Operator(o) => write!(f, "{o}"),
        }
    }
}

/// One input stream's triggered window contents.
#[derive(Debug, Clone, PartialEq)]
pub struct InputWindow {
    /// Which stream contributed these events.
    pub source: StreamKey,
    /// The snapshot (possibly empty for silent streams).
    pub events: Vec<Event>,
}

/// What an operator sees per trigger: one window per input stream,
/// merged according to its combiner.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CombinedWindows {
    /// Per-stream snapshots; silent streams appear with empty vectors
    /// so handlers can tell "no data" from "stream not wired".
    pub inputs: Vec<InputWindow>,
}

impl CombinedWindows {
    /// Iterates over every event across all streams.
    pub fn all_events(&self) -> impl Iterator<Item = &Event> {
        self.inputs.iter().flat_map(|w| w.events.iter())
    }

    /// All scalar values across all streams (skipping non-scalar
    /// payloads).
    #[must_use]
    pub fn scalars(&self) -> Vec<f64> {
        self.all_events()
            .filter_map(|e| e.payload.as_scalar())
            .collect()
    }

    /// Number of streams that contributed at least one event.
    #[must_use]
    pub fn available_streams(&self) -> usize {
        self.inputs.iter().filter(|w| !w.events.is_empty()).count()
    }
}

/// An output requested by operator logic.
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutput {
    /// Command an actuator.
    Actuate {
        /// Target actuator.
        actuator: ActuatorId,
        /// Set or Test&Set.
        kind: CommandKind,
    },
    /// Emit a scalar to downstream operators.
    Emit {
        /// The value.
        value: f64,
    },
    /// Notify the user (caregiver alert, billing update, …).
    Alert {
        /// Human-readable message.
        message: String,
    },
    /// Fire a deployed routine: an ordered multi-actuator command
    /// sequence executed all-or-nothing by the routine engine. Ignored
    /// (silently, with no observable side effects) when
    /// [`crate::config::RivuletConfig::routines`] is off or the id is
    /// not deployed.
    RunRoutine {
        /// The routine spec to fire.
        routine: RoutineId,
    },
}

/// The capability surface handed to operator logic per trigger.
#[derive(Debug)]
pub struct OpCtx {
    now: Time,
    outputs: Vec<OpOutput>,
}

impl OpCtx {
    /// Creates a context at `now`.
    #[must_use]
    pub fn new(now: Time) -> Self {
        Self {
            now,
            outputs: Vec::new(),
        }
    }

    /// Current time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Unconditionally sets a switch actuator (idempotent actuation).
    pub fn set_switch(&mut self, actuator: ActuatorId, on: bool) {
        self.outputs.push(OpOutput::Actuate {
            actuator,
            kind: CommandKind::Set(ActuationState::Switch(on)),
        });
    }

    /// Unconditionally sets a level actuator (thermostat set-point).
    pub fn set_level(&mut self, actuator: ActuatorId, level: f64) {
        self.outputs.push(OpOutput::Actuate {
            actuator,
            kind: CommandKind::Set(ActuationState::Level(level)),
        });
    }

    /// Issues a `Test&Set` for non-idempotent actuations (§5).
    pub fn test_and_set(
        &mut self,
        actuator: ActuatorId,
        expected: ActuationState,
        desired: ActuationState,
    ) {
        self.outputs.push(OpOutput::Actuate {
            actuator,
            kind: CommandKind::TestAndSet { expected, desired },
        });
    }

    /// Emits a scalar to downstream operators.
    pub fn emit(&mut self, value: f64) {
        self.outputs.push(OpOutput::Emit { value });
    }

    /// Raises a user-facing alert.
    pub fn alert(&mut self, message: impl Into<String>) {
        self.outputs.push(OpOutput::Alert {
            message: message.into(),
        });
    }

    /// Fires a deployed routine (all-or-nothing multi-actuator
    /// sequence). A no-op when the routine engine is disabled.
    pub fn run_routine(&mut self, routine: RoutineId) {
        self.outputs.push(OpOutput::RunRoutine { routine });
    }

    /// Consumes the context, yielding the requested outputs.
    #[must_use]
    pub fn into_outputs(self) -> Vec<OpOutput> {
        self.outputs
    }
}

/// Handler logic of one operator — the code a Rivulet developer writes
/// (`handleTriggeredWindow` of Table 2).
pub trait OperatorLogic: Send + Sync {
    /// Called with combined windows when the operator's trigger and
    /// combiner admit a delivery.
    fn on_windows(&self, ctx: &mut OpCtx, input: &CombinedWindows);

    /// Called when a time-triggered input fired with *no* events
    /// admitted (all streams silent). Default: ignore. Inactivity
    /// detectors override this (Table 1's "Inactive alert").
    fn on_silence(&self, _ctx: &mut OpCtx) {}

    /// Called when a Gapless poll-based input missed an entire epoch —
    /// the paper's exception path (§4.1). Default: ignore.
    fn on_epoch_miss(&self, _ctx: &mut OpCtx, _sensor: SensorId) {}
}

impl<F> OperatorLogic for F
where
    F: Fn(&mut OpCtx, &CombinedWindows) + Send + Sync,
{
    fn on_windows(&self, ctx: &mut OpCtx, input: &CombinedWindows) {
        self(ctx, input);
    }
}

/// Built-in logic: map trigger kinds to a switch actuator — the
/// `TurnLightOnOff` of §3.2.
#[derive(Debug, Clone)]
pub struct SwitchOnEvents {
    /// Kinds that switch the actuator on.
    pub on_kinds: Vec<EventKind>,
    /// Kinds that switch it off.
    pub off_kinds: Vec<EventKind>,
    /// The actuator to drive.
    pub actuator: ActuatorId,
}

impl OperatorLogic for SwitchOnEvents {
    fn on_windows(&self, ctx: &mut OpCtx, input: &CombinedWindows) {
        for event in input.all_events() {
            if self.on_kinds.contains(&event.kind) {
                ctx.set_switch(self.actuator, true);
            } else if self.off_kinds.contains(&event.kind) {
                ctx.set_switch(self.actuator, false);
            }
        }
    }
}

/// Built-in logic: alert (and optionally sound a siren) on every event
/// — intrusion detection, fall alert, flood/fire alert (Table 1).
#[derive(Debug, Clone)]
pub struct AlertOnEvent {
    /// Alert text; the triggering event is appended.
    pub message: String,
    /// Optional siren to switch on.
    pub siren: Option<ActuatorId>,
}

impl OperatorLogic for AlertOnEvent {
    fn on_windows(&self, ctx: &mut OpCtx, input: &CombinedWindows) {
        for event in input.all_events() {
            ctx.alert(format!("{}: {}", self.message, event));
            if let Some(siren) = self.siren {
                ctx.set_switch(siren, true);
            }
        }
    }
}

/// Built-in logic: fault-tolerant averaging via Marzullo intervals —
/// the `Averaging` operator of Listing 2. Emits the fault-tolerant
/// midpoint downstream, or alerts if no quorum exists.
#[derive(Debug, Clone)]
pub struct MarzulloAverage {
    /// Half-width of the interval around each reading (sensor
    /// precision).
    pub precision: f64,
    /// Faults tolerated (`⌊(n−1)/3⌋` for arbitrary failures).
    pub tolerate: usize,
}

impl OperatorLogic for MarzulloAverage {
    fn on_windows(&self, ctx: &mut OpCtx, input: &CombinedWindows) {
        // One representative (latest) reading per stream.
        let values: Vec<f64> = input
            .inputs
            .iter()
            .filter_map(|w| w.events.last())
            .filter_map(|e| e.payload.as_scalar())
            .collect();
        match super::combiner::marzullo_midpoint(&values, self.precision, self.tolerate) {
            Some(mid) => ctx.emit(mid),
            None => ctx.alert(format!(
                "sensor disagreement: no {}-of-{} quorum",
                values.len().saturating_sub(self.tolerate),
                values.len()
            )),
        }
    }
}

/// Built-in logic: threshold actuation on a scalar stream — the
/// temperature-based HVAC of Table 1 (heat below `low`, cool above
/// `high`).
#[derive(Debug, Clone)]
pub struct ThresholdHvac {
    /// Turn heating on below this.
    pub low: f64,
    /// Turn cooling on above this.
    pub high: f64,
    /// HVAC actuator: level = target temperature.
    pub hvac: ActuatorId,
}

impl OperatorLogic for ThresholdHvac {
    fn on_windows(&self, ctx: &mut OpCtx, input: &CombinedWindows) {
        if let Some(value) = input.scalars().last().copied() {
            if value < self.low {
                ctx.set_level(self.hvac, self.low);
            } else if value > self.high {
                ctx.set_level(self.hvac, self.high);
            }
        }
    }
}

/// Built-in logic: alert when a time window elapses with no activity —
/// the elder-care "Inactive alert" of Table 1.
#[derive(Debug, Clone)]
pub struct InactivityAlert {
    /// Alert text.
    pub message: String,
}

impl OperatorLogic for InactivityAlert {
    fn on_windows(&self, _ctx: &mut OpCtx, _input: &CombinedWindows) {
        // Activity observed: nothing to report.
    }

    fn on_silence(&self, ctx: &mut OpCtx) {
        ctx.alert(self.message.clone());
    }
}

/// Type-erased shared logic handle used in specs.
pub type LogicHandle = Arc<dyn OperatorLogic>;

#[cfg(test)]
mod tests {
    use super::*;
    use rivulet_types::{EventId, Payload};

    fn ev(kind: EventKind, value: Option<f64>, seq: u64) -> Event {
        let payload = value.map_or(Payload::Empty, Payload::Scalar);
        Event::with_payload(EventId::new(SensorId(1), seq), kind, payload, Time::ZERO)
    }

    fn windows_of(events: Vec<Event>) -> CombinedWindows {
        CombinedWindows {
            inputs: vec![InputWindow {
                source: StreamKey::Sensor(SensorId(1)),
                events,
            }],
        }
    }

    #[test]
    fn combined_windows_accessors() {
        let cw = CombinedWindows {
            inputs: vec![
                InputWindow {
                    source: StreamKey::Sensor(SensorId(1)),
                    events: vec![ev(EventKind::Reading, Some(1.5), 0)],
                },
                InputWindow {
                    source: StreamKey::Operator(OperatorId(9)),
                    events: vec![],
                },
            ],
        };
        assert_eq!(cw.scalars(), vec![1.5]);
        assert_eq!(cw.available_streams(), 1);
        assert_eq!(cw.all_events().count(), 1);
    }

    #[test]
    fn switch_logic_maps_kinds() {
        let logic = SwitchOnEvents {
            on_kinds: vec![EventKind::DoorOpen],
            off_kinds: vec![EventKind::DoorClose],
            actuator: ActuatorId(4),
        };
        let mut ctx = OpCtx::new(Time::ZERO);
        logic.on_windows(
            &mut ctx,
            &windows_of(vec![
                ev(EventKind::DoorOpen, None, 0),
                ev(EventKind::DoorClose, None, 1),
                ev(EventKind::Motion, None, 2), // unrelated: ignored
            ]),
        );
        let out = ctx.into_outputs();
        assert_eq!(out.len(), 2);
        assert_eq!(
            out[0],
            OpOutput::Actuate {
                actuator: ActuatorId(4),
                kind: CommandKind::Set(ActuationState::Switch(true)),
            }
        );
        assert_eq!(
            out[1],
            OpOutput::Actuate {
                actuator: ActuatorId(4),
                kind: CommandKind::Set(ActuationState::Switch(false)),
            }
        );
    }

    #[test]
    fn alert_logic_alerts_per_event_and_sounds_siren() {
        let logic = AlertOnEvent {
            message: "intrusion".to_owned(),
            siren: Some(ActuatorId(2)),
        };
        let mut ctx = OpCtx::new(Time::ZERO);
        logic.on_windows(
            &mut ctx,
            &windows_of(vec![ev(EventKind::DoorOpen, None, 0)]),
        );
        let out = ctx.into_outputs();
        assert_eq!(out.len(), 2);
        assert!(matches!(&out[0], OpOutput::Alert { message } if message.contains("intrusion")));
        assert!(matches!(
            out[1],
            OpOutput::Actuate {
                actuator: ActuatorId(2),
                ..
            }
        ));
    }

    #[test]
    fn marzullo_average_emits_midpoint_and_alerts_on_disagreement() {
        let logic = MarzulloAverage {
            precision: 0.5,
            tolerate: 1,
        };
        let agree = CombinedWindows {
            inputs: (0..4)
                .map(|i| InputWindow {
                    source: StreamKey::Sensor(SensorId(i)),
                    events: vec![ev(
                        EventKind::Reading,
                        Some(if i == 3 {
                            90.0
                        } else {
                            21.0 + f64::from(i) * 0.1
                        }),
                        0,
                    )],
                })
                .collect(),
        };
        let mut ctx = OpCtx::new(Time::ZERO);
        logic.on_windows(&mut ctx, &agree);
        let out = ctx.into_outputs();
        assert_eq!(out.len(), 1);
        let OpOutput::Emit { value } = out[0] else {
            panic!("expected emit")
        };
        assert!(
            (20.0..=22.0).contains(&value),
            "byzantine 90.0 masked, got {value}"
        );

        // All four disagree wildly with f=1: no quorum.
        let disagree = CombinedWindows {
            inputs: (0..4)
                .map(|i| InputWindow {
                    source: StreamKey::Sensor(SensorId(i)),
                    events: vec![ev(EventKind::Reading, Some(f64::from(i) * 50.0), 0)],
                })
                .collect(),
        };
        let mut ctx = OpCtx::new(Time::ZERO);
        logic.on_windows(&mut ctx, &disagree);
        assert!(matches!(&ctx.into_outputs()[0], OpOutput::Alert { .. }));
    }

    #[test]
    fn hvac_threshold_logic() {
        let logic = ThresholdHvac {
            low: 18.0,
            high: 26.0,
            hvac: ActuatorId(1),
        };
        for (reading, expect_level) in [(15.0, Some(18.0)), (30.0, Some(26.0)), (22.0, None)] {
            let mut ctx = OpCtx::new(Time::ZERO);
            logic.on_windows(
                &mut ctx,
                &windows_of(vec![ev(EventKind::Reading, Some(reading), 0)]),
            );
            let out = ctx.into_outputs();
            match expect_level {
                Some(level) => {
                    assert_eq!(
                        out,
                        vec![OpOutput::Actuate {
                            actuator: ActuatorId(1),
                            kind: CommandKind::Set(ActuationState::Level(level)),
                        }]
                    );
                }
                None => assert!(out.is_empty(), "comfortable band: no actuation"),
            }
        }
    }

    #[test]
    fn inactivity_alert_fires_only_on_silence() {
        let logic = InactivityAlert {
            message: "no activity".to_owned(),
        };
        let mut ctx = OpCtx::new(Time::ZERO);
        logic.on_windows(&mut ctx, &windows_of(vec![ev(EventKind::Motion, None, 0)]));
        assert!(ctx.into_outputs().is_empty());
        let mut ctx = OpCtx::new(Time::ZERO);
        logic.on_silence(&mut ctx);
        assert!(matches!(&ctx.into_outputs()[0], OpOutput::Alert { .. }));
    }

    #[test]
    fn closures_are_operator_logic() {
        let logic = |ctx: &mut OpCtx, input: &CombinedWindows| {
            ctx.emit(input.all_events().count() as f64);
        };
        let mut ctx = OpCtx::new(Time::ZERO);
        logic.on_windows(&mut ctx, &windows_of(vec![ev(EventKind::Motion, None, 0)]));
        assert_eq!(ctx.into_outputs(), vec![OpOutput::Emit { value: 1.0 }]);
    }

    #[test]
    fn opctx_test_and_set() {
        let mut ctx = OpCtx::new(Time::from_secs(1));
        assert_eq!(ctx.now(), Time::from_secs(1));
        ctx.test_and_set(
            ActuatorId(3),
            ActuationState::Pulse(0),
            ActuationState::Pulse(1),
        );
        assert!(matches!(
            ctx.into_outputs()[0],
            OpOutput::Actuate {
                kind: CommandKind::TestAndSet { .. },
                ..
            }
        ));
    }

    #[test]
    fn stream_key_display() {
        assert_eq!(StreamKey::Sensor(SensorId(1)).to_string(), "s1");
        assert_eq!(StreamKey::Operator(OperatorId(2)).to_string(), "op2");
    }
}
