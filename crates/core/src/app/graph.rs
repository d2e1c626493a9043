//! Application graphs: the declarative wiring of §3.2 and §6.
//!
//! An app is a DAG with sensor, logic, and actuator nodes. Following
//! the paper's simplification ("an application program is encapsulated
//! into a single logic node"), an [`AppSpec`] is one logic node whose
//! *internal* operator DAG is explicit; each operator wires upstream
//! sensors (with a delivery guarantee, window, and optional polling
//! policy — Table 2's `addSensor`), upstream operators
//! (`addUpstreamOperator`), and downstream actuators (`addActuator`).

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use rivulet_types::{ActuatorId, AppId, Duration, OperatorId, SensorId};

use crate::delivery::polling::PollStrategy;
use crate::delivery::Delivery;

use super::operator::{LogicHandle, OperatorLogic, StreamKey};
use super::window::{TriggerPolicy, WindowSpec};

/// Polling policy for a poll-based sensor input (Table 2's optional
/// `PollingPolicy`).
#[derive(Debug, Clone, PartialEq)]
pub struct PollSpec {
    /// Epoch length: the app requires one event per epoch (§4).
    pub epoch: Duration,
    /// Scheduling strategy; `None` derives it from the delivery
    /// guarantee (Gapless → coordinated, Gap → single poller).
    pub strategy: Option<PollStrategy>,
}

impl PollSpec {
    /// One event required every `epoch`.
    #[must_use]
    pub fn every(epoch: Duration) -> Self {
        Self {
            epoch,
            strategy: None,
        }
    }

    /// Overrides the scheduling strategy (the Fig. 8 uncoordinated
    /// baseline uses this).
    #[must_use]
    pub fn with_strategy(mut self, strategy: PollStrategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// The effective strategy for a given delivery guarantee.
    #[must_use]
    pub fn effective_strategy(&self, delivery: Delivery) -> PollStrategy {
        self.strategy.unwrap_or(match delivery {
            Delivery::Gapless => PollStrategy::Coordinated,
            Delivery::Gap => PollStrategy::GapSingle,
        })
    }
}

/// One sensor input of an operator (`addSensor`).
#[derive(Debug, Clone)]
pub struct InputSpec {
    /// The sensor.
    pub sensor: SensorId,
    /// Gap or Gapless (§2.2).
    pub delivery: Delivery,
    /// Window buffering this stream.
    pub window: WindowSpec,
    /// Polling policy for poll-based sensors.
    pub poll: Option<PollSpec>,
    /// Upper bound on event staleness the app tolerates (§6): events
    /// older than this at delivery time are dropped before entering
    /// the window (and counted). `None` accepts any age — including
    /// backlog replayed after a failover.
    pub staleness_bound: Option<Duration>,
}

/// One operator of the app's internal DAG.
#[derive(Clone)]
pub struct OperatorSpec {
    /// Operator identity, unique within the app.
    pub id: OperatorId,
    /// Human-readable name.
    pub name: String,
    /// Sensor inputs.
    pub inputs: Vec<InputSpec>,
    /// Upstream operator inputs with their windows.
    pub upstreams: Vec<(OperatorId, WindowSpec)>,
    /// Combiner merging the triggered input windows.
    pub combiner: super::combiner::CombinerSpec,
    /// Handler logic.
    pub logic: LogicHandle,
    /// Actuators this operator drives, with the command delivery
    /// guarantee (`addActuator`).
    pub actuators: Vec<(ActuatorId, Delivery)>,
}

impl fmt::Debug for OperatorSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OperatorSpec")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("inputs", &self.inputs)
            .field("upstreams", &self.upstreams)
            .field("combiner", &self.combiner)
            .field("actuators", &self.actuators)
            .finish_non_exhaustive()
    }
}

/// Errors detected while validating an app graph.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AppError {
    /// The app has no operators.
    Empty,
    /// Two operators share an id.
    DuplicateOperator(OperatorId),
    /// An upstream edge references an unknown operator.
    UnknownUpstream {
        /// The operator with the bad edge.
        at: OperatorId,
        /// The missing upstream.
        missing: OperatorId,
    },
    /// The operator graph has a cycle.
    Cyclic,
    /// An operator has no inputs at all.
    NoInputs(OperatorId),
    /// An operator wires one sensor, or one upstream operator, twice.
    DuplicateStream {
        /// The operator with the repeated input.
        at: OperatorId,
        /// The stream wired twice.
        stream: StreamKey,
    },
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppError::Empty => write!(f, "app has no operators"),
            AppError::DuplicateOperator(id) => write!(f, "duplicate operator {id}"),
            AppError::UnknownUpstream { at, missing } => {
                write!(f, "operator {at} references unknown upstream {missing}")
            }
            AppError::Cyclic => write!(f, "operator graph has a cycle"),
            AppError::NoInputs(id) => write!(f, "operator {id} has no inputs"),
            AppError::DuplicateStream { at, stream } => {
                write!(f, "operator {at} wires stream {stream} twice")
            }
        }
    }
}

impl std::error::Error for AppError {}

/// A complete application: one logic node with an operator DAG.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// App identity.
    pub id: AppId,
    /// Human-readable name.
    pub name: String,
    /// The operators, in declaration order.
    pub operators: Vec<OperatorSpec>,
}

impl AppSpec {
    /// Validates the graph and computes a topological order of
    /// operators (upstreams before downstreams).
    ///
    /// # Errors
    ///
    /// Returns an [`AppError`] describing the first defect found.
    pub fn validate(&self) -> Result<Vec<OperatorId>, AppError> {
        if self.operators.is_empty() {
            return Err(AppError::Empty);
        }
        let mut ids = BTreeSet::new();
        for op in &self.operators {
            if !ids.insert(op.id) {
                return Err(AppError::DuplicateOperator(op.id));
            }
            if op.inputs.is_empty() && op.upstreams.is_empty() {
                return Err(AppError::NoInputs(op.id));
            }
            let sensors = op.inputs.iter().map(|i| StreamKey::Sensor(i.sensor));
            let upstreams = op.upstreams.iter().map(|(u, _)| StreamKey::Operator(*u));
            let mut streams = BTreeSet::new();
            for stream in sensors.chain(upstreams) {
                if !streams.insert(stream) {
                    return Err(AppError::DuplicateStream { at: op.id, stream });
                }
            }
        }
        for op in &self.operators {
            for (up, _) in &op.upstreams {
                if !ids.contains(up) {
                    return Err(AppError::UnknownUpstream {
                        at: op.id,
                        missing: *up,
                    });
                }
            }
        }
        // Kahn's algorithm.
        let mut indegree: HashMap<OperatorId, usize> = self
            .operators
            .iter()
            .map(|o| (o.id, o.upstreams.len()))
            .collect();
        let mut downstream: HashMap<OperatorId, Vec<OperatorId>> = HashMap::new();
        for op in &self.operators {
            for (up, _) in &op.upstreams {
                downstream.entry(*up).or_default().push(op.id);
            }
        }
        let mut ready: Vec<OperatorId> = self
            .operators
            .iter()
            .filter(|o| o.upstreams.is_empty())
            .map(|o| o.id)
            .collect();
        let mut order = Vec::with_capacity(self.operators.len());
        while let Some(id) = ready.pop() {
            order.push(id);
            for down in downstream.get(&id).into_iter().flatten() {
                let d = indegree.get_mut(down).expect("known operator");
                *d -= 1;
                if *d == 0 {
                    ready.push(*down);
                }
            }
        }
        if order.len() != self.operators.len() {
            return Err(AppError::Cyclic);
        }
        Ok(order)
    }

    /// All sensors the app consumes (deduplicated, sorted).
    #[must_use]
    pub fn sensors(&self) -> Vec<SensorId> {
        let set: BTreeSet<SensorId> = self
            .operators
            .iter()
            .flat_map(|o| o.inputs.iter().map(|i| i.sensor))
            .collect();
        set.into_iter().collect()
    }

    /// The time-triggered windows an active host arms repeating timers
    /// for: `(operator, stream, period)` of every sensor input and
    /// upstream whose trigger is [`TriggerPolicy::Every`], sorted by
    /// `(operator, stream)`.
    #[must_use]
    pub fn timer_streams(&self) -> Vec<(OperatorId, StreamKey, Duration)> {
        let mut out = Vec::new();
        for o in &self.operators {
            let sensors = o
                .inputs
                .iter()
                .map(|i| (StreamKey::Sensor(i.sensor), &i.window));
            let upstreams = o
                .upstreams
                .iter()
                .map(|(u, w)| (StreamKey::Operator(*u), w));
            for (stream, window) in sensors.chain(upstreams) {
                if let TriggerPolicy::Every(period) = window.trigger {
                    out.push((o.id, stream, period));
                }
            }
        }
        out.sort_by_key(|(op, stream, _)| (*op, *stream));
        out
    }

    /// All actuators the app drives (deduplicated, sorted).
    #[must_use]
    pub fn actuators(&self) -> Vec<ActuatorId> {
        let set: BTreeSet<ActuatorId> = self
            .operators
            .iter()
            .flat_map(|o| o.actuators.iter().map(|(a, _)| *a))
            .collect();
        set.into_iter().collect()
    }
}

/// Fluent builder mirroring the Table 2 API.
#[derive(Debug)]
pub struct AppBuilder {
    spec: AppSpec,
    next_op: u32,
}

impl AppBuilder {
    /// Starts an app definition.
    #[must_use]
    pub fn new(id: AppId, name: impl Into<String>) -> Self {
        Self {
            spec: AppSpec {
                id,
                name: name.into(),
                operators: Vec::new(),
            },
            next_op: 0,
        }
    }

    /// `new Operator(name, combiner)`: starts an operator definition;
    /// finish it with [`OperatorBuilder::done`].
    #[must_use]
    pub fn operator(
        self,
        name: impl Into<String>,
        combiner: super::combiner::CombinerSpec,
        logic: impl OperatorLogic + 'static,
    ) -> OperatorBuilder {
        let id = OperatorId(self.next_op);
        OperatorBuilder {
            app: self,
            op: OperatorSpec {
                id,
                name: name.into(),
                inputs: Vec::new(),
                upstreams: Vec::new(),
                combiner,
                logic: Arc::new(logic),
                actuators: Vec::new(),
            },
        }
    }

    /// Validates and finishes the app.
    ///
    /// # Errors
    ///
    /// Returns an [`AppError`] if the graph is malformed.
    pub fn build(self) -> Result<AppSpec, AppError> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

/// Builder for one operator (returned by [`AppBuilder::operator`]).
#[derive(Debug)]
pub struct OperatorBuilder {
    app: AppBuilder,
    op: OperatorSpec,
}

impl OperatorBuilder {
    /// The id the operator under construction will have.
    #[must_use]
    pub fn id(&self) -> OperatorId {
        self.op.id
    }

    /// `addSensor(sensor, GAP|GAPLESS, window, [pollingPolicy])`.
    #[must_use]
    pub fn sensor(mut self, sensor: SensorId, delivery: Delivery, window: WindowSpec) -> Self {
        self.op.inputs.push(InputSpec {
            sensor,
            delivery,
            window,
            poll: None,
            staleness_bound: None,
        });
        self
    }

    /// `addSensor` with a polling policy for poll-based sensors.
    #[must_use]
    pub fn polled_sensor(
        mut self,
        sensor: SensorId,
        delivery: Delivery,
        window: WindowSpec,
        poll: PollSpec,
    ) -> Self {
        self.op.inputs.push(InputSpec {
            sensor,
            delivery,
            window,
            poll: Some(poll),
            staleness_bound: None,
        });
        self
    }

    /// Sets the staleness bound of the most recently added sensor
    /// input (§6's "upper bound on the event staleness that the
    /// application can tolerate").
    ///
    /// # Panics
    ///
    /// Panics if no sensor input has been added yet.
    #[must_use]
    pub fn staleness_bound(mut self, bound: Duration) -> Self {
        self.op
            .inputs
            .last_mut()
            .expect("staleness_bound follows a sensor input")
            .staleness_bound = Some(bound);
        self
    }

    /// `addUpstreamOperator(operator, window)`.
    #[must_use]
    pub fn upstream(mut self, op: OperatorId, window: WindowSpec) -> Self {
        self.op.upstreams.push((op, window));
        self
    }

    /// `addActuator(actuator, GAP|GAPLESS)`.
    #[must_use]
    pub fn actuator(mut self, actuator: ActuatorId, delivery: Delivery) -> Self {
        self.op.actuators.push((actuator, delivery));
        self
    }

    /// Finishes this operator and returns to the app builder.
    #[must_use]
    pub fn done(mut self) -> AppBuilder {
        self.app.spec.operators.push(self.op);
        self.app.next_op += 1;
        self.app
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::combiner::CombinerSpec;
    use crate::app::operator::{CombinedWindows, OpCtx};

    fn noop() -> impl OperatorLogic {
        |_: &mut OpCtx, _: &CombinedWindows| {}
    }

    fn sensor_input(op: OperatorBuilder) -> OperatorBuilder {
        op.sensor(SensorId(1), Delivery::Gap, WindowSpec::count(1))
    }

    #[test]
    fn listing1_style_app_builds() {
        // Intrusion detection: n door sensors, FTCombiner(n-1),
        // Gapless count-1 windows, a siren.
        let n = 3;
        let mut op = AppBuilder::new(AppId(1), "intrusion").operator(
            "Intrusion",
            CombinerSpec::tolerate_fail_stop(n),
            noop(),
        );
        for s in 0..n {
            op = op.sensor(SensorId(s as u32), Delivery::Gapless, WindowSpec::count(1));
        }
        let app = op
            .actuator(ActuatorId(1), Delivery::Gapless)
            .done()
            .build()
            .unwrap();
        assert_eq!(app.sensors().len(), 3);
        assert_eq!(app.actuators(), vec![ActuatorId(1)]);
        assert_eq!(app.validate().unwrap(), vec![OperatorId(0)]);
    }

    #[test]
    fn chained_operators_topo_order() {
        let app = AppBuilder::new(AppId(2), "avg-then-hvac");
        let app = sensor_input(app.operator("avg", CombinerSpec::Any, noop())).done();
        let avg_id = OperatorId(0);
        let app = app
            .operator("hvac", CombinerSpec::Any, noop())
            .upstream(avg_id, WindowSpec::count(1))
            .actuator(ActuatorId(1), Delivery::Gap)
            .done()
            .build()
            .unwrap();
        let order = app.validate().unwrap();
        let pos = |id: OperatorId| order.iter().position(|o| *o == id).unwrap();
        assert!(pos(avg_id) < pos(OperatorId(1)), "upstream first");
    }

    #[test]
    fn empty_app_rejected() {
        let err = AppBuilder::new(AppId(0), "empty").build().unwrap_err();
        assert_eq!(err, AppError::Empty);
        assert_eq!(err.to_string(), "app has no operators");
    }

    #[test]
    fn inputless_operator_rejected() {
        let err = AppBuilder::new(AppId(0), "noinput")
            .operator("lonely", CombinerSpec::Any, noop())
            .done()
            .build()
            .unwrap_err();
        assert_eq!(err, AppError::NoInputs(OperatorId(0)));
    }

    #[test]
    fn unknown_upstream_rejected() {
        let err = AppBuilder::new(AppId(0), "dangling")
            .operator("op", CombinerSpec::Any, noop())
            .upstream(OperatorId(42), WindowSpec::count(1))
            .done()
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            AppError::UnknownUpstream {
                at: OperatorId(0),
                missing: OperatorId(42)
            }
        );
    }

    #[test]
    fn cycle_rejected() {
        // Hand-build a two-operator cycle (the builder cannot express
        // it forward, so construct the spec directly).
        let logic: LogicHandle = Arc::new(noop());
        let mk = |id: u32, up: u32| OperatorSpec {
            id: OperatorId(id),
            name: format!("op{id}"),
            inputs: vec![],
            upstreams: vec![(OperatorId(up), WindowSpec::count(1))],
            combiner: CombinerSpec::Any,
            logic: Arc::clone(&logic),
            actuators: vec![],
        };
        let app = AppSpec {
            id: AppId(0),
            name: "cycle".into(),
            operators: vec![mk(0, 1), mk(1, 0)],
        };
        assert_eq!(app.validate().unwrap_err(), AppError::Cyclic);
    }

    #[test]
    fn duplicate_operator_rejected() {
        let logic: LogicHandle = Arc::new(noop());
        let mk = || OperatorSpec {
            id: OperatorId(0),
            name: "dup".into(),
            inputs: vec![InputSpec {
                sensor: SensorId(0),
                delivery: Delivery::Gap,
                window: WindowSpec::count(1),
                poll: None,
                staleness_bound: None,
            }],
            upstreams: vec![],
            combiner: CombinerSpec::Any,
            logic: Arc::clone(&logic),
            actuators: vec![],
        };
        let app = AppSpec {
            id: AppId(0),
            name: "dup".into(),
            operators: vec![mk(), mk()],
        };
        assert_eq!(
            app.validate().unwrap_err(),
            AppError::DuplicateOperator(OperatorId(0))
        );
    }

    #[test]
    fn sensor_wired_twice_rejected() {
        let err = sensor_input(sensor_input(AppBuilder::new(AppId(0), "twice").operator(
            "op",
            CombinerSpec::All,
            noop(),
        )))
        .done()
        .build()
        .unwrap_err();
        assert_eq!(
            err,
            AppError::DuplicateStream {
                at: OperatorId(0),
                stream: StreamKey::Sensor(SensorId(1)),
            }
        );
        assert_eq!(err.to_string(), "operator op0 wires stream s1 twice");
    }

    #[test]
    fn upstream_wired_twice_rejected() {
        let app = sensor_input(AppBuilder::new(AppId(0), "twice").operator(
            "avg",
            CombinerSpec::Any,
            noop(),
        ))
        .done();
        let err = sensor_input(app.operator("hvac", CombinerSpec::Any, noop()))
            .upstream(OperatorId(0), WindowSpec::count(1))
            .upstream(OperatorId(0), WindowSpec::count(1).sliding())
            .done()
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            AppError::DuplicateStream {
                at: OperatorId(1),
                stream: StreamKey::Operator(OperatorId(0)),
            }
        );
        assert_eq!(err.to_string(), "operator op1 wires stream op0 twice");
    }

    #[test]
    fn poll_spec_strategy_derivation() {
        let spec = PollSpec::every(Duration::from_secs(10));
        assert_eq!(
            spec.effective_strategy(Delivery::Gapless),
            PollStrategy::Coordinated
        );
        assert_eq!(
            spec.effective_strategy(Delivery::Gap),
            PollStrategy::GapSingle
        );
        let forced = spec.with_strategy(PollStrategy::Uncoordinated);
        assert_eq!(
            forced.effective_strategy(Delivery::Gapless),
            PollStrategy::Uncoordinated
        );
    }
}
