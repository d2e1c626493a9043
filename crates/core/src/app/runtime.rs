//! The in-logic-node execution engine.
//!
//! [`AppRuntime`] is the machinery inside an *active* logic node: it
//! buffers delivered events into per-(operator, stream) windows,
//! evaluates triggers and combiners, invokes handler logic, and
//! cascades emitted values through the operator DAG. Shadow logic
//! nodes hold no runtime — they are placeholders (§3.3); a promotion
//! constructs a fresh runtime and replays outstanding events into it.
//!
//! The DAG is resolved once, in [`AppRuntime::new`]: every wiring gets
//! a window at a fixed slot, every subscribed sensor a list of
//! subscribers and every operator a list of downstream edges, so the
//! per-event path is table lookups. Subscribers and downstreams fire
//! in `spec.operators` order (DESIGN §4.1, "Operator firing order").

use std::ops::Range;
use std::sync::Arc;

use rivulet_types::{Duration, Event, EventId, EventKind, OperatorId, Payload, SensorId, Time};

use super::graph::{AppError, AppSpec};
use super::operator::{CombinedWindows, InputWindow, OpCtx, OpOutput, StreamKey};
use super::window::Window;

/// An output produced by the runtime, attributed to its operator.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeOutput {
    /// The operator that produced the output.
    pub operator: OperatorId,
    /// The output itself.
    pub output: OpOutput,
}

/// Synthetic sensor-id namespace for operator emissions (events flowing
/// on operator→operator edges). Kept well above realistic device ids.
const DERIVED_SENSOR_BASE: u32 = 0x8000_0000;

/// One operator's input from a sensor: where its window lives.
#[derive(Debug, Clone, Copy)]
struct Subscriber {
    /// Index of the operator in `spec.operators`.
    op: usize,
    /// The window of this wiring.
    slot: usize,
    /// The input's staleness bound (§6).
    staleness_bound: Option<Duration>,
}

/// Per-operator state resolved from the spec.
#[derive(Debug)]
struct OpState {
    /// The operator's windows: sensor inputs, then upstreams, in spec
    /// order.
    slots: Range<usize>,
    /// `(operator, slot)` of every edge out of this operator, in
    /// `spec.operators` order.
    downstream: Vec<(usize, usize)>,
    /// Sequence number of the next emission.
    emit_seq: u64,
    /// What the logic sees, refilled per trigger: `inputs[i]` is slot
    /// `slots.start + i`.
    view: CombinedWindows,
}

/// The mutable half of the runtime, apart from the spec and the
/// subscriber table so firing can borrow it while reading those.
#[derive(Debug)]
struct Dag {
    windows: Vec<Window>,
    ops: Vec<OpState>,
}

/// The executable instantiation of an [`AppSpec`].
pub struct AppRuntime {
    spec: Arc<AppSpec>,
    /// Subscribed sensors, sorted by id, with their subscribers in
    /// `spec.operators` order.
    sensors: Vec<(SensorId, Vec<Subscriber>)>,
    dag: Dag,
    stale_drops: u64,
}

impl std::fmt::Debug for AppRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppRuntime")
            .field("app", &self.spec.name)
            .field("windows", &self.dag.windows.len())
            .finish()
    }
}

/// The subscribers of `sensor`, empty if none.
fn subscribers(table: &[(SensorId, Vec<Subscriber>)], sensor: SensorId) -> &[Subscriber] {
    table
        .binary_search_by_key(&sensor, |(s, _)| *s)
        .map_or(&[], |at| table[at].1.as_slice())
}

impl AppRuntime {
    /// Instantiates the runtime for `spec`.
    ///
    /// # Errors
    ///
    /// Returns an [`AppError`] if the graph is malformed.
    pub fn new(spec: Arc<AppSpec>) -> Result<Self, AppError> {
        spec.validate()?;
        let mut windows = Vec::new();
        let mut sensors: Vec<(SensorId, Vec<Subscriber>)> = Vec::new();
        let mut ops = Vec::with_capacity(spec.operators.len());
        for (op, o) in spec.operators.iter().enumerate() {
            let start = windows.len();
            let mut inputs = Vec::with_capacity(o.inputs.len() + o.upstreams.len());
            for input in &o.inputs {
                let sub = Subscriber {
                    op,
                    slot: windows.len(),
                    staleness_bound: input.staleness_bound,
                };
                match sensors.binary_search_by_key(&input.sensor, |(s, _)| *s) {
                    Ok(at) => sensors[at].1.push(sub),
                    Err(at) => sensors.insert(at, (input.sensor, vec![sub])),
                }
                windows.push(Window::new(input.window.clone()));
                inputs.push(InputWindow {
                    source: StreamKey::Sensor(input.sensor),
                    events: Vec::new(),
                });
            }
            for (up, window) in &o.upstreams {
                windows.push(Window::new(window.clone()));
                inputs.push(InputWindow {
                    source: StreamKey::Operator(*up),
                    events: Vec::new(),
                });
            }
            ops.push(OpState {
                slots: start..windows.len(),
                downstream: Vec::new(),
                emit_seq: 0,
                view: CombinedWindows { inputs },
            });
        }
        for (op, o) in spec.operators.iter().enumerate() {
            for (k, (up, _)) in o.upstreams.iter().enumerate() {
                let from = spec
                    .operators
                    .iter()
                    .position(|u| u.id == *up)
                    .expect("validated upstream");
                let slot = ops[op].slots.start + o.inputs.len() + k;
                ops[from].downstream.push((op, slot));
            }
        }
        Ok(Self {
            spec,
            sensors,
            dag: Dag { windows, ops },
            stale_drops: 0,
        })
    }

    /// Events rejected by a per-input staleness bound (§6).
    #[must_use]
    pub fn stale_drops(&self) -> u64 {
        self.stale_drops
    }

    /// Whether any operator consumes `sensor`.
    #[must_use]
    pub fn subscribes_to(&self, sensor: SensorId) -> bool {
        !subscribers(&self.sensors, sensor).is_empty()
    }

    /// Delivers a sensor event to every subscribing operator window,
    /// firing any count triggers (and cascading).
    pub fn on_event(&mut self, now: Time, event: &Event) -> Vec<RuntimeOutput> {
        let mut outputs = Vec::new();
        for sub in subscribers(&self.sensors, event.id.sensor) {
            if sub
                .staleness_bound
                .is_some_and(|bound| event.staleness(now) > bound)
            {
                self.stale_drops += 1;
                continue;
            }
            if self.dag.windows[sub.slot].push(event.clone(), now) {
                self.dag
                    .fire(&self.spec, now, sub.op, sub.slot, &mut outputs);
            }
        }
        outputs
    }

    /// A time trigger for `(operator, stream)` elapsed.
    pub fn on_time_trigger(
        &mut self,
        now: Time,
        operator: OperatorId,
        stream: StreamKey,
    ) -> Vec<RuntimeOutput> {
        let mut outputs = Vec::new();
        let op = self.spec.operators.iter().position(|o| o.id == operator);
        let slot = op.and_then(|op| {
            let state = &self.dag.ops[op];
            let at = state.view.inputs.iter().position(|i| i.source == stream)?;
            Some((op, state.slots.start + at))
        });
        if let Some((op, slot)) = slot {
            self.dag.fire(&self.spec, now, op, slot, &mut outputs);
        }
        outputs
    }

    /// A Gapless poll-based input missed an entire epoch (§4.1's
    /// exception): inform every subscribing operator.
    pub fn on_epoch_miss(&mut self, now: Time, sensor: SensorId) -> Vec<RuntimeOutput> {
        let mut outputs = Vec::new();
        for sub in subscribers(&self.sensors, sensor) {
            let op = &self.spec.operators[sub.op];
            let mut ctx = OpCtx::new(now);
            op.logic.on_epoch_miss(&mut ctx, sensor);
            outputs.extend(ctx.into_outputs().into_iter().map(|output| RuntimeOutput {
                operator: op.id,
                output,
            }));
        }
        outputs
    }
}

impl Dag {
    /// Evaluates one trigger of operator `op`: snapshot the triggering
    /// slot, peek the others, consult the combiner, run the logic,
    /// route emissions.
    fn fire(
        &mut self,
        spec: &AppSpec,
        now: Time,
        op: usize,
        triggering: usize,
        outputs: &mut Vec<RuntimeOutput>,
    ) {
        let o = &spec.operators[op];
        let state = &mut self.ops[op];
        let windows = &mut self.windows[state.slots.clone()];
        for ((slot, window), input) in state.slots.clone().zip(windows).zip(&mut state.view.inputs)
        {
            if slot == triggering {
                window.snapshot(now, &mut input.events);
            } else {
                window.peek(now, &mut input.events);
            }
        }
        let view = &state.view;
        let available = view.available_streams();
        let mut ctx = OpCtx::new(now);
        if available == 0 {
            // A time trigger elapsed in total silence.
            o.logic.on_silence(&mut ctx);
        } else if o.combiner.admits(available, view.inputs.len()) {
            o.logic.on_windows(&mut ctx, view);
        } else {
            // Below the fault-tolerance quorum: suppress delivery.
            return;
        }
        for output in ctx.into_outputs() {
            let emitted = match output {
                OpOutput::Emit { value } => Some(value),
                _ => None,
            };
            outputs.push(RuntimeOutput {
                operator: o.id,
                output,
            });
            if let Some(value) = emitted {
                self.route_emission(spec, now, op, value, outputs);
            }
        }
    }

    /// Pushes a value emitted by operator `from` into its downstream
    /// windows.
    fn route_emission(
        &mut self,
        spec: &AppSpec,
        now: Time,
        from: usize,
        value: f64,
        outputs: &mut Vec<RuntimeOutput>,
    ) {
        let state = &mut self.ops[from];
        let event = Event::with_payload(
            EventId::new(
                SensorId(DERIVED_SENSOR_BASE | spec.operators[from].id.0),
                state.emit_seq,
            ),
            EventKind::Reading,
            Payload::Scalar(value),
            now,
        );
        state.emit_seq += 1;
        for k in 0..self.ops[from].downstream.len() {
            let (op, slot) = self.ops[from].downstream[k];
            if self.windows[slot].push(event.clone(), now) {
                self.fire(spec, now, op, slot, outputs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::combiner::CombinerSpec;
    use crate::app::graph::AppBuilder;
    use crate::app::operator::{AlertOnEvent, MarzulloAverage, SwitchOnEvents, ThresholdHvac};
    use crate::app::window::WindowSpec;
    use crate::delivery::Delivery;
    use rivulet_types::{ActuatorId, AppId, CommandKind};

    fn ev(sensor: u32, seq: u64, kind: EventKind, value: Option<f64>) -> Event {
        let payload = value.map_or(Payload::Empty, Payload::Scalar);
        Event::with_payload(
            EventId::new(SensorId(sensor), seq),
            kind,
            payload,
            Time::from_millis(seq),
        )
    }

    /// The §3.2 door-light app end to end inside the runtime.
    #[test]
    fn door_light_pipeline() {
        let app = AppBuilder::new(AppId(1), "door-light")
            .operator(
                "TurnLightOnOff",
                CombinerSpec::Any,
                SwitchOnEvents {
                    on_kinds: vec![EventKind::DoorOpen],
                    off_kinds: vec![EventKind::DoorClose],
                    actuator: ActuatorId(1),
                },
            )
            .sensor(SensorId(1), Delivery::Gapless, WindowSpec::count(1))
            .actuator(ActuatorId(1), Delivery::Gapless)
            .done()
            .build()
            .unwrap();
        let mut rt = AppRuntime::new(Arc::new(app)).unwrap();
        let out = rt.on_event(Time::from_millis(1), &ev(1, 0, EventKind::DoorOpen, None));
        assert_eq!(out.len(), 1);
        assert!(matches!(
            &out[0].output,
            OpOutput::Actuate { actuator: ActuatorId(1), kind: CommandKind::Set(s) }
                if *s == rivulet_types::ActuationState::Switch(true)
        ));
        let out = rt.on_event(Time::from_millis(2), &ev(1, 1, EventKind::DoorClose, None));
        assert!(matches!(
            &out[0].output,
            OpOutput::Actuate { kind: CommandKind::Set(s), .. }
                if *s == rivulet_types::ActuationState::Switch(false)
        ));
    }

    /// Listing 2's averaging chain: sensors → Marzullo avg → HVAC.
    #[test]
    fn averaging_cascades_to_hvac() {
        let builder = AppBuilder::new(AppId(2), "avg-hvac");
        let mut opb = builder.operator(
            "Averaging",
            CombinerSpec::tolerate_arbitrary(4),
            MarzulloAverage {
                precision: 0.5,
                tolerate: 1,
            },
        );
        for s in 0..4u32 {
            opb = opb.sensor(SensorId(s), Delivery::Gap, WindowSpec::count(1).sliding());
        }
        let app = opb.done();
        let avg = OperatorId(0);
        let app = app
            .operator(
                "Hvac",
                CombinerSpec::Any,
                ThresholdHvac {
                    low: 18.0,
                    high: 26.0,
                    hvac: ActuatorId(9),
                },
            )
            .upstream(avg, WindowSpec::count(1))
            .actuator(ActuatorId(9), Delivery::Gap)
            .done()
            .build()
            .unwrap();
        let mut rt = AppRuntime::new(Arc::new(app)).unwrap();
        // Three cold readings and one Byzantine outlier.
        let mut outputs = Vec::new();
        for (i, v) in [(0u32, 15.0), (1, 15.2), (2, 14.9), (3, 90.0)] {
            outputs = rt.on_event(
                Time::from_millis(u64::from(i)),
                &ev(i, 0, EventKind::Reading, Some(v)),
            );
        }
        // The final event triggers the average (count-1 sliding windows
        // fire on each event; by the fourth, all streams have data),
        // which emits ~15 and cascades into the HVAC setting 18.0.
        let emits: Vec<&RuntimeOutput> = outputs
            .iter()
            .filter(|o| matches!(o.output, OpOutput::Emit { .. }))
            .collect();
        assert!(!emits.is_empty(), "averaging emitted");
        let actuations: Vec<&RuntimeOutput> = outputs
            .iter()
            .filter(|o| matches!(o.output, OpOutput::Actuate { .. }))
            .collect();
        assert_eq!(actuations.len(), 1, "HVAC actuated once: {outputs:?}");
        assert!(matches!(
            &actuations[0].output,
            OpOutput::Actuate { actuator: ActuatorId(9), kind: CommandKind::Set(s) }
                if *s == rivulet_types::ActuationState::Level(18.0)
        ));
    }

    #[test]
    fn ft_combiner_blocks_below_quorum() {
        // Two sensors, FTCombiner(0): both streams must contribute.
        let app = AppBuilder::new(AppId(3), "strict")
            .operator(
                "needs-both",
                CombinerSpec::FaultTolerant { tolerate: 0 },
                AlertOnEvent {
                    message: "pair".into(),
                    siren: None,
                },
            )
            .sensor(SensorId(1), Delivery::Gap, WindowSpec::count(1).sliding())
            .sensor(SensorId(2), Delivery::Gap, WindowSpec::count(1).sliding())
            .done()
            .build()
            .unwrap();
        let mut rt = AppRuntime::new(Arc::new(app)).unwrap();
        let out = rt.on_event(Time::ZERO, &ev(1, 0, EventKind::Motion, None));
        assert!(out.is_empty(), "only one stream available: suppressed");
        // Second stream arrives: its trigger sees both.
        let out = rt.on_event(Time::ZERO, &ev(2, 0, EventKind::Motion, None));
        assert!(!out.is_empty(), "quorum met");
    }

    #[test]
    fn time_trigger_and_silence_path() {
        use crate::app::operator::InactivityAlert;
        let app = AppBuilder::new(AppId(4), "inactive")
            .operator(
                "watch",
                CombinerSpec::Any,
                InactivityAlert {
                    message: "no activity today".into(),
                },
            )
            .sensor(
                SensorId(1),
                Delivery::Gapless,
                WindowSpec::time(Duration::from_secs(60)),
            )
            .done()
            .build()
            .unwrap();
        let timers = app.timer_streams();
        let mut rt = AppRuntime::new(Arc::new(app)).unwrap();
        assert_eq!(timers.len(), 1);
        let (op, stream, period) = timers[0];
        assert_eq!(period, Duration::from_secs(60));
        // Window elapses empty → silence alert.
        let out = rt.on_time_trigger(Time::from_secs(60), op, stream);
        assert!(
            matches!(&out[0].output, OpOutput::Alert { message } if message.contains("no activity"))
        );
        // With recent activity (emitted within the 60 s span), no alert.
        let _ = rt.on_event(Time::from_secs(70), &ev(1, 70_000, EventKind::Motion, None));
        let out = rt.on_time_trigger(Time::from_secs(120), op, stream);
        assert!(out.is_empty());
    }

    #[test]
    fn epoch_miss_reaches_subscribers_only() {
        struct MissLogic;
        impl crate::app::operator::OperatorLogic for MissLogic {
            fn on_windows(&self, _: &mut OpCtx, _: &CombinedWindows) {}
            fn on_epoch_miss(&self, ctx: &mut OpCtx, sensor: SensorId) {
                ctx.alert(format!("missed epoch of {sensor}"));
            }
        }
        let app = AppBuilder::new(AppId(5), "miss")
            .operator("m", CombinerSpec::Any, MissLogic)
            .sensor(SensorId(7), Delivery::Gapless, WindowSpec::count(1))
            .done()
            .build()
            .unwrap();
        let mut rt = AppRuntime::new(Arc::new(app)).unwrap();
        let out = rt.on_epoch_miss(Time::ZERO, SensorId(7));
        assert_eq!(out.len(), 1);
        assert!(
            rt.on_epoch_miss(Time::ZERO, SensorId(8)).is_empty(),
            "not subscribed"
        );
    }

    #[test]
    fn staleness_bound_rejects_old_events() {
        let app = AppBuilder::new(AppId(7), "fresh-only")
            .operator(
                "op",
                CombinerSpec::Any,
                AlertOnEvent {
                    message: "x".into(),
                    siren: None,
                },
            )
            .sensor(SensorId(1), Delivery::Gap, WindowSpec::count(1))
            .staleness_bound(Duration::from_secs(5))
            .done()
            .build()
            .unwrap();
        let mut rt = AppRuntime::new(Arc::new(app)).unwrap();
        // Fresh event (emitted 1s ago): accepted.
        let fresh = ev(1, 9_000, EventKind::Motion, None);
        let out = rt.on_event(Time::from_secs(10), &fresh);
        assert_eq!(out.len(), 1);
        // Stale event (emitted 20s ago): dropped before the window.
        let stale = ev(1, 0, EventKind::Motion, None);
        let out = rt.on_event(Time::from_secs(20), &stale);
        assert!(out.is_empty());
        assert_eq!(rt.stale_drops(), 1);
    }

    #[test]
    fn subscribes_to_reports_wiring() {
        let app = AppBuilder::new(AppId(6), "subs")
            .operator(
                "op",
                CombinerSpec::Any,
                AlertOnEvent {
                    message: "x".into(),
                    siren: None,
                },
            )
            .sensor(SensorId(3), Delivery::Gap, WindowSpec::count(1))
            .done()
            .build()
            .unwrap();
        let rt = AppRuntime::new(Arc::new(app)).unwrap();
        assert!(rt.subscribes_to(SensorId(3)));
        assert!(!rt.subscribes_to(SensorId(4)));
    }
}

/// The runtime as it was before the DAG was compiled into slot tables:
/// windows in a `HashMap` keyed by `(operator, stream)`, subscribers and
/// downstreams found by scanning `spec.operators` per event. Verbatim
/// but for the `Window::{snapshot, peek}` call sites; `proptests`
/// checks the compiled runtime against it step by step.
#[cfg(test)]
mod reference {
    use std::collections::HashMap;
    use std::sync::Arc;

    use rivulet_types::{Duration, Event, EventId, EventKind, OperatorId, Payload, SensorId, Time};

    use super::{RuntimeOutput, DERIVED_SENSOR_BASE};
    use crate::app::graph::{AppError, AppSpec};
    use crate::app::operator::{CombinedWindows, InputWindow, OpCtx, OpOutput, StreamKey};
    use crate::app::window::Window;

    /// The executable instantiation of an [`AppSpec`].
    pub struct AppRuntime {
        spec: Arc<AppSpec>,
        windows: HashMap<(OperatorId, StreamKey), Window>,
        emit_seq: HashMap<OperatorId, u64>,
        stale_drops: u64,
    }

    impl std::fmt::Debug for AppRuntime {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("AppRuntime")
                .field("app", &self.spec.name)
                .field("windows", &self.windows.len())
                .finish()
        }
    }

    impl AppRuntime {
        /// Instantiates the runtime for `spec`.
        ///
        /// # Errors
        ///
        /// Returns an [`AppError`] if the graph is malformed.
        pub fn new(spec: Arc<AppSpec>) -> Result<Self, AppError> {
            spec.validate()?;
            let mut windows = HashMap::new();
            for op in &spec.operators {
                for input in &op.inputs {
                    windows.insert(
                        (op.id, StreamKey::Sensor(input.sensor)),
                        Window::new(input.window.clone()),
                    );
                }
                for (up, wspec) in &op.upstreams {
                    windows.insert(
                        (op.id, StreamKey::Operator(*up)),
                        Window::new(wspec.clone()),
                    );
                }
            }
            Ok(Self {
                spec,
                windows,
                emit_seq: HashMap::new(),
                stale_drops: 0,
            })
        }

        /// Events rejected by a per-input staleness bound (§6).
        #[must_use]
        pub fn stale_drops(&self) -> u64 {
            self.stale_drops
        }

        /// The time-triggered windows the host must arm repeating timers
        /// for: `(operator, stream, period)` triples.
        #[must_use]
        pub fn timer_streams(&self) -> Vec<(OperatorId, StreamKey, Duration)> {
            let mut out: Vec<(OperatorId, StreamKey, Duration)> = self
                .windows
                .iter()
                .filter_map(|((op, key), w)| w.timer_period().map(|d| (*op, *key, d)))
                .collect();
            out.sort_by_key(|(op, key, _)| (*op, *key));
            out
        }

        /// Whether any operator consumes `sensor`.
        #[must_use]
        pub fn subscribes_to(&self, sensor: SensorId) -> bool {
            self.windows
                .contains_key(&(OperatorId(0), StreamKey::Sensor(sensor)))
                || self
                    .windows
                    .keys()
                    .any(|(_, key)| *key == StreamKey::Sensor(sensor))
        }

        /// Delivers a sensor event to every subscribing operator window,
        /// firing any count triggers (and cascading).
        pub fn on_event(&mut self, now: Time, event: &Event) -> Vec<RuntimeOutput> {
            let key = StreamKey::Sensor(event.id.sensor);
            let subscribers: Vec<(OperatorId, Option<Duration>)> = self
                .spec
                .operators
                .iter()
                .filter_map(|o| {
                    o.inputs
                        .iter()
                        .find(|i| i.sensor == event.id.sensor)
                        .map(|i| (o.id, i.staleness_bound))
                })
                .collect();
            let mut outputs = Vec::new();
            for (op, bound) in subscribers {
                if let Some(bound) = bound {
                    if event.staleness(now) > bound {
                        self.stale_drops += 1;
                        continue;
                    }
                }
                let fired = self
                    .windows
                    .get_mut(&(op, key))
                    .map(|w| w.push(event.clone(), now))
                    .unwrap_or(false);
                if fired {
                    self.fire(now, op, key, &mut outputs);
                }
            }
            outputs
        }

        /// A time trigger for `(operator, stream)` elapsed.
        pub fn on_time_trigger(
            &mut self,
            now: Time,
            operator: OperatorId,
            stream: StreamKey,
        ) -> Vec<RuntimeOutput> {
            let mut outputs = Vec::new();
            if self.windows.contains_key(&(operator, stream)) {
                self.fire(now, operator, stream, &mut outputs);
            }
            outputs
        }

        /// A Gapless poll-based input missed an entire epoch (§4.1's
        /// exception): inform every subscribing operator.
        pub fn on_epoch_miss(&mut self, now: Time, sensor: SensorId) -> Vec<RuntimeOutput> {
            let mut outputs = Vec::new();
            for op in &self.spec.operators {
                if op.inputs.iter().any(|i| i.sensor == sensor) {
                    let mut ctx = OpCtx::new(now);
                    op.logic.on_epoch_miss(&mut ctx, sensor);
                    outputs.extend(ctx.into_outputs().into_iter().map(|output| RuntimeOutput {
                        operator: op.id,
                        output,
                    }));
                }
            }
            outputs
        }

        /// Evaluates one trigger: snapshot the triggering stream, peek the
        /// others, consult the combiner, run the logic, route emissions.
        fn fire(
            &mut self,
            now: Time,
            operator: OperatorId,
            triggering: StreamKey,
            outputs: &mut Vec<RuntimeOutput>,
        ) {
            let op = self
                .spec
                .operators
                .iter()
                .find(|o| o.id == operator)
                .expect("fire() on unknown operator")
                .clone();
            // Gather per-stream contributions.
            let mut inputs = Vec::new();
            let mut stream_keys: Vec<StreamKey> = op
                .inputs
                .iter()
                .map(|i| StreamKey::Sensor(i.sensor))
                .collect();
            stream_keys.extend(op.upstreams.iter().map(|(u, _)| StreamKey::Operator(*u)));
            for key in stream_keys {
                let window = self
                    .windows
                    .get_mut(&(operator, key))
                    .expect("window exists");
                let mut events = Vec::new();
                if key == triggering {
                    window.snapshot(now, &mut events);
                } else {
                    window.peek(now, &mut events);
                }
                inputs.push(InputWindow {
                    source: key,
                    events,
                });
            }
            let combined = CombinedWindows { inputs };
            let total = combined.inputs.len();
            let available = combined.available_streams();
            let mut ctx = OpCtx::new(now);
            if available == 0 {
                // A time trigger elapsed in total silence.
                op.logic.on_silence(&mut ctx);
            } else if op.combiner.admits(available, total) {
                op.logic.on_windows(&mut ctx, &combined);
            } else {
                // Below the fault-tolerance quorum: suppress delivery.
                return;
            }
            for output in ctx.into_outputs() {
                match output {
                    OpOutput::Emit { value } => {
                        outputs.push(RuntimeOutput {
                            operator,
                            output: OpOutput::Emit { value },
                        });
                        self.route_emission(now, operator, value, outputs);
                    }
                    other => outputs.push(RuntimeOutput {
                        operator,
                        output: other,
                    }),
                }
            }
        }

        /// Pushes an emitted value into downstream operator windows.
        fn route_emission(
            &mut self,
            now: Time,
            from: OperatorId,
            value: f64,
            outputs: &mut Vec<RuntimeOutput>,
        ) {
            let seq = self.emit_seq.entry(from).or_insert(0);
            let event = Event::with_payload(
                EventId::new(SensorId(DERIVED_SENSOR_BASE | from.0), *seq),
                EventKind::Reading,
                Payload::Scalar(value),
                now,
            );
            *seq += 1;
            let key = StreamKey::Operator(from);
            let downstream: Vec<OperatorId> = self
                .spec
                .operators
                .iter()
                .filter(|o| o.upstreams.iter().any(|(u, _)| *u == from))
                .map(|o| o.id)
                .collect();
            for op in downstream {
                let fired = self
                    .windows
                    .get_mut(&(op, key))
                    .map(|w| w.push(event.clone(), now))
                    .unwrap_or(false);
                if fired {
                    self.fire(now, op, key, outputs);
                }
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::app::combiner::CombinerSpec;
    use crate::app::graph::AppBuilder;
    use crate::app::operator::{MarzulloAverage, OperatorLogic};
    use crate::app::window::{EvictorPolicy, TriggerPolicy, WindowSpec};
    use crate::delivery::Delivery;
    use proptest::prelude::*;
    use rivulet_types::{ActuatorId, AppId};

    /// One operator of a generated app.
    #[derive(Debug, Clone)]
    struct OpPlan {
        /// `(sensor, window, staleness bound in ms)`; a repeated sensor
        /// is skipped.
        sensors: Vec<(u32, WindowSpec, Option<u64>)>,
        /// Bit `j` wires operator `j` (only earlier ones count) through
        /// `upstream_windows[j]`.
        upstream_mask: u8,
        upstream_windows: Vec<WindowSpec>,
        combiner: CombinerSpec,
        /// 0: Marzullo (tolerating `tolerate`), 1: the emitting closure,
        /// 2: [`Watcher`].
        logic: u8,
        tolerate: usize,
    }

    /// One call into both runtimes.
    #[derive(Debug, Clone)]
    enum Step {
        /// An event of `sensor` emitted `age` ms ago.
        Event {
            sensor: u32,
            age: u64,
            scalar: Option<f64>,
        },
        /// The timer of `AppSpec::timer_streams()[pick % len]` elapsed.
        Timer { pick: usize },
        /// `sensor` missed an epoch.
        EpochMiss { sensor: u32 },
    }

    /// Logic with every hook overridden, so silence and epoch misses
    /// produce outputs to compare.
    struct Watcher;

    impl OperatorLogic for Watcher {
        fn on_windows(&self, ctx: &mut OpCtx, input: &CombinedWindows) {
            ctx.emit(input.available_streams() as f64);
        }

        fn on_silence(&self, ctx: &mut OpCtx) {
            ctx.alert("silent");
        }

        fn on_epoch_miss(&self, ctx: &mut OpCtx, sensor: SensorId) {
            ctx.alert(format!("missed {sensor}"));
        }
    }

    fn window() -> impl Strategy<Value = WindowSpec> {
        let shape = prop_oneof![
            (1usize..4).prop_map(WindowSpec::count),
            (1u64..40).prop_map(|ms| WindowSpec::time(Duration::from_millis(ms))),
            (1usize..5, 1usize..3).prop_map(|(n, k)| {
                WindowSpec::count(n)
                    .sliding()
                    .with_trigger(TriggerPolicy::OnCount(k))
            }),
        ];
        let evictor = prop_oneof![
            Just(None),
            (1usize..4).prop_map(|n| Some(EvictorPolicy::KeepLast(n))),
            (1u64..40).prop_map(|ms| Some(EvictorPolicy::KeepWithin(Duration::from_millis(ms)))),
        ];
        (shape, evictor).prop_map(|(w, e)| match e {
            Some(e) => w.with_evictor(e),
            None => w,
        })
    }

    fn op_plan() -> impl Strategy<Value = OpPlan> {
        let combiner = prop_oneof![
            Just(CombinerSpec::All),
            Just(CombinerSpec::Any),
            (0usize..3).prop_map(|tolerate| CombinerSpec::FaultTolerant { tolerate }),
        ];
        (
            proptest::collection::vec((1u32..=4, window(), proptest::option::of(1u64..30)), 0..4),
            any::<u8>(),
            proptest::collection::vec(window(), 3),
            combiner,
            0u8..3,
            0usize..2,
        )
            .prop_map(
                |(sensors, upstream_mask, upstream_windows, combiner, logic, tolerate)| OpPlan {
                    sensors,
                    upstream_mask,
                    upstream_windows,
                    combiner,
                    logic,
                    tolerate,
                },
            )
    }

    fn step() -> impl Strategy<Value = Step> {
        let scalar = proptest::option::of(15.0f64..25.0);
        prop_oneof![
            (0u32..=5, 0u64..40, scalar).prop_map(|(sensor, age, scalar)| Step::Event {
                sensor,
                age,
                scalar
            }),
            (0usize..8).prop_map(|pick| Step::Timer { pick }),
            (0u32..=5).prop_map(|sensor| Step::EpochMiss { sensor }),
        ]
    }

    fn build(plan: &[OpPlan]) -> AppSpec {
        let mut app = AppBuilder::new(AppId(1), "differential");
        for (i, p) in plan.iter().enumerate() {
            let mut op = match p.logic {
                0 => app.operator(
                    "marzullo",
                    p.combiner,
                    MarzulloAverage {
                        precision: 0.5,
                        tolerate: p.tolerate,
                    },
                ),
                1 => app.operator(
                    "emit-and-set",
                    p.combiner,
                    |ctx: &mut OpCtx, w: &CombinedWindows| {
                        // The level names the events seen, derived
                        // emissions' ids included.
                        let n = w.all_events().count() as f64;
                        let ids = w
                            .all_events()
                            .map(|e| f64::from(e.id.sensor.as_u32()) + e.id.seq as f64)
                            .sum();
                        ctx.emit(w.scalars().iter().sum::<f64>() + n);
                        ctx.set_level(ActuatorId(1), ids);
                    },
                ),
                _ => app.operator("watcher", p.combiner, Watcher),
            };
            let mut wired = Vec::new();
            for (sensor, window, bound) in &p.sensors {
                if wired.contains(sensor) {
                    continue;
                }
                wired.push(*sensor);
                op = op.sensor(SensorId(*sensor), Delivery::Gap, window.clone());
                if let Some(ms) = bound {
                    op = op.staleness_bound(Duration::from_millis(*ms));
                }
            }
            let upstreams: Vec<usize> =
                (0..i).filter(|j| p.upstream_mask & (1 << j) != 0).collect();
            for j in &upstreams {
                op = op.upstream(OperatorId(*j as u32), p.upstream_windows[*j].clone());
            }
            if wired.is_empty() && upstreams.is_empty() {
                op = op.sensor(SensorId(1), Delivery::Gap, WindowSpec::count(1));
            }
            app = op.done();
        }
        app.build().expect("generated graphs are valid")
    }

    proptest! {
        /// The compiled runtime is the `HashMap` runtime it replaced:
        /// same outputs in the same order at every step, same counter,
        /// same subscriptions; and the spec lists the reference's timers.
        #[test]
        fn compiled_runtime_matches_the_reference(
            plan in proptest::collection::vec(op_plan(), 1..=4),
            steps in proptest::collection::vec((0u64..15, step()), 1..80),
        ) {
            let spec = Arc::new(build(&plan));
            let timers = spec.timer_streams();
            let mut compiled = AppRuntime::new(Arc::clone(&spec)).expect("valid");
            let mut reference = reference::AppRuntime::new(spec).expect("valid");
            prop_assert_eq!(&timers, &reference.timer_streams());
            for sensor in 0..=5 {
                prop_assert_eq!(
                    compiled.subscribes_to(SensorId(sensor)),
                    reference.subscribes_to(SensorId(sensor))
                );
            }
            let mut now = Time::ZERO;
            let mut seqs = [0u64; 6];
            for (i, (dt, step)) in steps.iter().enumerate() {
                // Each step lands `dt` ms after the previous one.
                now += Duration::from_millis(*dt);
                let (a, b) = match *step {
                    Step::Event { sensor, age, scalar } => {
                        let emitted = Time::from_micros(
                            now.as_micros().saturating_sub(age * 1_000),
                        );
                        let seq = &mut seqs[sensor as usize];
                        let event = Event::with_payload(
                            EventId::new(SensorId(sensor), *seq),
                            EventKind::Reading,
                            scalar.map_or(Payload::Empty, Payload::Scalar),
                            emitted,
                        );
                        *seq += 1;
                        (compiled.on_event(now, &event), reference.on_event(now, &event))
                    }
                    Step::Timer { pick } => {
                        if timers.is_empty() {
                            continue;
                        }
                        let (op, stream, _) = timers[pick % timers.len()];
                        (
                            compiled.on_time_trigger(now, op, stream),
                            reference.on_time_trigger(now, op, stream),
                        )
                    }
                    Step::EpochMiss { sensor } => {
                        (
                            compiled.on_epoch_miss(now, SensorId(sensor)),
                            reference.on_epoch_miss(now, SensorId(sensor)),
                        )
                    }
                };
                prop_assert_eq!(a, b, "step {}: {:?}", i, step);
                prop_assert_eq!(compiled.stale_drops(), reference.stale_drops());
            }
        }
    }
}
