//! Seeded device-fault injection.
//!
//! The paper's fault matrix covers process crashes and network
//! partitions; real smart-home deployments are dominated by *device*
//! faults (IoTRepair's taxonomy): stuck-at sensors, flapping, value
//! drift, ghost and missed events, and battery decay. A [`FaultPlan`]
//! declares, per device, which of those faults occur and how often —
//! and expands them into a schedule that is a **pure function of
//! `(plan seed, device id, attempt index)`**. The expansion never
//! touches the driver RNG, so:
//!
//! * attaching a plan with rate 0 leaves a run bit-identical to one
//!   with no plan at all (toggle invariance),
//! * any single device's schedule can be re-derived standalone and
//!   byte-compared against what the in-home run did, and
//! * fault timelines are independent of device declaration order.
//!
//! Fault decisions are keyed on the device's *attempt index* (its
//! n-th emission attempt / poll answer / command arrival), not on
//! virtual time, so the same plan drives the simulator and the live
//! driver identically.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use rivulet_obs::Recorder;
use rivulet_types::{ActuatorId, EventId, SensorId};

/// The device-fault taxonomy (IoTRepair, PAPERS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// The sensor's reading freezes at its value on window entry.
    StuckAt,
    /// The reading alternates between two extremes around the value
    /// seen at window entry.
    Flapping,
    /// An additive bias grows with every reading inside the window.
    Drift,
    /// Spurious extra events that correspond to no physical
    /// phenomenon.
    Ghost,
    /// Scheduled emissions (or poll answers) silently vanish.
    Missed,
    /// Battery decay: the probability of a successful emission decays
    /// exponentially with the attempt count.
    BatteryDecay,
}

impl FaultKind {
    /// All kinds, in a fixed order (for sweeps and tables).
    pub const ALL: [FaultKind; 6] = [
        FaultKind::StuckAt,
        FaultKind::Flapping,
        FaultKind::Drift,
        FaultKind::Ghost,
        FaultKind::Missed,
        FaultKind::BatteryDecay,
    ];

    /// Stable lowercase name (manifest axes, tables, obs labels).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::StuckAt => "stuck",
            FaultKind::Flapping => "flapping",
            FaultKind::Drift => "drift",
            FaultKind::Ghost => "ghost",
            FaultKind::Missed => "missed",
            FaultKind::BatteryDecay => "battery",
        }
    }

    /// Parses [`FaultKind::name`] output back into a kind.
    #[must_use]
    pub fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.iter().copied().find(|k| k.name() == s)
    }

    /// The `fault.*` obs counter bumped when this kind fires.
    #[must_use]
    pub fn counter_name(self) -> &'static str {
        match self {
            FaultKind::StuckAt => "fault.stuck",
            FaultKind::Flapping => "fault.flapping",
            FaultKind::Drift => "fault.drift",
            FaultKind::Ghost => "fault.ghost",
            FaultKind::Missed => "fault.missed",
            FaultKind::BatteryDecay => "fault.battery",
        }
    }

    fn stream_tag(self) -> u64 {
        match self {
            FaultKind::StuckAt => 1,
            FaultKind::Flapping => 2,
            FaultKind::Drift => 3,
            FaultKind::Ghost => 4,
            FaultKind::Missed => 5,
            FaultKind::BatteryDecay => 6,
        }
    }
}

/// Length, in attempts, of the windows value faults (stuck, flapping,
/// drift) are drawn over.
const VALUE_WINDOW: u64 = 16;
/// How far a flapping reading swings either side of its window-entry
/// value.
const FLAP_SWING: f64 = 8.0;
/// The bias a drifting reading gains per attempt inside its window.
const DRIFT_STEP: f64 = 1.0;

/// One fault a device suffers: a kind and a rate.
///
/// `rate` means: for value faults (stuck/flapping/drift), the
/// probability that each window of 16 consecutive attempts is faulty;
/// for ghost/missed, the per-attempt probability; for battery decay,
/// the per-attempt drain (success probability is `(1 - rate)^attempt`).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Which fault.
    pub kind: FaultKind,
    /// How often (see type-level docs).
    pub rate: f64,
}

impl FaultSpec {
    /// A `kind` fault at `rate`.
    #[must_use]
    pub fn new(kind: FaultKind, rate: f64) -> Self {
        Self { kind, rate }
    }
}

/// SplitMix64 finalizer — the same mixer `rivulet-fleet` uses for
/// per-home seeds, so fault streams inherit its dispersion properties.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes a stream tag and an index into a device seed.
fn mix(seed: u64, tag: u64, index: u64) -> u64 {
    splitmix(seed ^ splitmix(tag ^ splitmix(index)))
}

/// Maps a hash to a uniform draw in `[0, 1)` (top 53 bits).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Device-class tags keeping sensor and actuator streams disjoint even
/// when their numeric ids collide.
const CLASS_SENSOR: u64 = 1;
const CLASS_ACTUATOR: u64 = 2;

/// What the plan decided for one emission attempt. Pure function of
/// `(plan seed, device id, attempt)` — see [`FaultPlan::sensor_timeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultDecision {
    /// Suppress the emission, and why ([`FaultKind::Missed`] or
    /// [`FaultKind::BatteryDecay`]).
    pub suppress: Option<FaultKind>,
    /// Emit a spurious extra event after the real one.
    pub ghost: bool,
    /// Active value corruption, if any.
    pub corrupt: Option<FaultKind>,
}

/// The ids of injected ghost events, shared with the harness.
///
/// Experiments score ghosts as incorrect deliveries, so they need to
/// know *which* events were ghosts; obs counters cannot name events.
/// Every other fault is counted only under its `fault.*` key.
#[derive(Debug, Default)]
pub struct FaultProbe {
    ghosts: Mutex<Vec<EventId>>,
}

impl FaultProbe {
    /// Creates an empty probe.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Ids of spurious (ghost) events actually emitted.
    #[must_use]
    pub fn ghosts(&self) -> Vec<EventId> {
        self.ghosts.lock().expect("probe lock").clone()
    }
}

/// A seeded, declarative fault schedule for every device in a home.
///
/// Devices are keyed in `BTreeMap`s, so two plans with the same
/// `(seed, specs)` are equal and expand identically regardless of the
/// order devices were declared in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    sensors: BTreeMap<u32, Vec<FaultSpec>>,
    actuators: BTreeMap<u32, Vec<FaultSpec>>,
}

impl FaultPlan {
    /// An empty plan rooted at `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            sensors: BTreeMap::new(),
            actuators: BTreeMap::new(),
        }
    }

    /// Adds a fault to a sensor (builder-style; faults accumulate).
    #[must_use]
    pub fn sensor(mut self, id: SensorId, spec: FaultSpec) -> Self {
        self.sensors.entry(id.0).or_default().push(spec);
        self
    }

    /// Adds a fault to an actuator (builder-style).
    #[must_use]
    pub fn actuator(mut self, id: ActuatorId, spec: FaultSpec) -> Self {
        self.actuators.entry(id.0).or_default().push(spec);
        self
    }

    /// The runtime fault state of device `id` of `class`: its specs
    /// (none when the plan does not name it) over a SplitMix64 stream
    /// seed of `(plan seed, class, device id)`, mirroring
    /// `rivulet-fleet`'s per-home derivation.
    fn device_faults(&self, class: u64, id: u32, specs: Option<&Vec<FaultSpec>>) -> DeviceFaults {
        let seed = splitmix(
            self.seed
                ^ splitmix(class)
                ^ u64::from(id)
                    .wrapping_add(1)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        DeviceFaults {
            seed,
            specs: specs.cloned().unwrap_or_default(),
            ..DeviceFaults::default()
        }
    }

    /// The runtime fault state for a sensor; empty (never fires) when
    /// the plan does not name it.
    #[must_use]
    pub fn for_sensor(&self, id: SensorId) -> DeviceFaults {
        self.device_faults(CLASS_SENSOR, id.0, self.sensors.get(&id.0))
    }

    /// The runtime fault state for an actuator; empty when the plan
    /// does not name it.
    #[must_use]
    pub fn for_actuator(&self, id: ActuatorId) -> DeviceFaults {
        self.device_faults(CLASS_ACTUATOR, id.0, self.actuators.get(&id.0))
    }

    /// Expands a sensor's fault schedule for its first `attempts`
    /// emission attempts — a pure function, independent of any run.
    #[must_use]
    pub fn sensor_timeline(&self, id: SensorId, attempts: u64) -> Vec<FaultDecision> {
        let mut f = self.for_sensor(id);
        (0..attempts).map(|_| f.decide_next()).collect()
    }

    /// Renders a timeline to a canonical string for byte-identical
    /// comparison in property tests.
    #[must_use]
    pub fn render_sensor_timeline(&self, id: SensorId, attempts: u64) -> String {
        let mut out = String::new();
        for (i, d) in self.sensor_timeline(id, attempts).iter().enumerate() {
            let suppress = d.suppress.map_or("-", FaultKind::name);
            let corrupt = d.corrupt.map_or("-", FaultKind::name);
            let _ = writeln!(
                out,
                "{i} suppress={suppress} ghost={} corrupt={corrupt}",
                u8::from(d.ghost),
            );
        }
        out
    }
}

/// Per-device runtime fault state, consulted by the device actors on
/// every emission attempt / poll answer / command arrival.
///
/// All randomness comes from counter-keyed hash streams over the
/// device seed; the driver RNG is never touched, so an attached plan
/// whose rates are all zero perturbs nothing. A device the plan does
/// not name carries the empty state, whose every decision is the
/// default one.
///
/// The device reports every fault that fires through the `record_*`
/// methods, which count it under its `fault.*` key (and log ghost ids
/// to the home's [`FaultProbe`]) once [`Self::reporting_to`] attached
/// both.
#[derive(Debug, Clone, Default)]
pub struct DeviceFaults {
    seed: u64,
    specs: Vec<FaultSpec>,
    attempt: u64,
    /// Value frozen by an active stuck-at window.
    stuck_value: Option<f64>,
    /// `(window index, base value)` for flapping/drift windows.
    window_base: Option<(u64, f64)>,
    /// Where fired faults are reported: ghost ids and counters.
    report: Option<(Arc<FaultProbe>, Recorder)>,
}

impl DeviceFaults {
    /// Reports every fault that fires to `obs`'s `fault.*` counters,
    /// and ghost ids to `probe`.
    #[must_use]
    pub fn reporting_to(mut self, probe: Arc<FaultProbe>, obs: Recorder) -> Self {
        self.report = Some((probe, obs));
        self
    }

    /// An emission or poll answer suppressed by `cause` (`Missed` or
    /// battery decay).
    pub fn record_suppressed(&self, cause: FaultKind) {
        if let Some((_, obs)) = &self.report {
            obs.inc(cause.counter_name());
        }
    }

    /// A reading emitted with a value a `kind` fault altered.
    pub fn record_corrupted(&self, kind: FaultKind) {
        if let Some((_, obs)) = &self.report {
            obs.inc(kind.counter_name());
        }
    }

    /// Ghost event `id` emitted.
    pub fn record_ghost(&self, id: EventId) {
        if let Some((probe, obs)) = &self.report {
            obs.inc("fault.ghost");
            probe.ghosts.lock().expect("probe lock").push(id);
        }
    }

    /// A command lost at the radio: a routine stage when `stage`, else a
    /// plain actuation.
    pub fn record_dropped(&self, stage: bool) {
        if let Some((_, obs)) = &self.report {
            if stage {
                obs.inc("fault.stage_dropped");
            } else {
                obs.inc("fault.actuation_dropped");
            }
        }
    }

    /// A command heard but refused by a stuck actuator: a routine stage
    /// when `stage`, else a plain actuation.
    pub fn record_refused(&self, stage: bool) {
        if let Some((_, obs)) = &self.report {
            if stage {
                obs.inc("fault.stage_refused");
            } else {
                obs.inc("fault.actuation_refused");
            }
        }
    }

    /// Computes the fault decision for the next attempt and advances
    /// the attempt counter. Pure in `(seed, attempt)`.
    pub fn decide_next(&mut self) -> FaultDecision {
        let a = self.attempt;
        self.attempt += 1;
        let mut d = FaultDecision::default();
        for spec in &self.specs {
            let tag = spec.kind.stream_tag();
            match spec.kind {
                FaultKind::Missed => {
                    if unit(mix(self.seed, tag, a)) < spec.rate && d.suppress.is_none() {
                        d.suppress = Some(FaultKind::Missed);
                    }
                }
                FaultKind::BatteryDecay => {
                    // Success probability decays as (1 - rate)^attempt.
                    let battery = (1.0 - spec.rate).max(0.0).powi(a.min(1 << 20) as i32);
                    if unit(mix(self.seed, tag, a)) >= battery && d.suppress.is_none() {
                        d.suppress = Some(FaultKind::BatteryDecay);
                    }
                }
                FaultKind::Ghost => {
                    if unit(mix(self.seed, tag, a)) < spec.rate {
                        d.ghost = true;
                    }
                }
                FaultKind::StuckAt | FaultKind::Flapping | FaultKind::Drift => {
                    let window = a / VALUE_WINDOW;
                    if unit(mix(self.seed, tag, window)) < spec.rate {
                        // First declared value fault wins the window.
                        if d.corrupt.is_none() {
                            d.corrupt = Some(spec.kind);
                        }
                    }
                }
            }
        }
        // Window bookkeeping for value corruption.
        match d.corrupt {
            Some(FaultKind::StuckAt) => {}
            _ => self.stuck_value = None,
        }
        if d.corrupt.is_none() {
            self.window_base = None;
        }
        d
    }

    /// Applies the current attempt's `kind` value corruption (the
    /// `corrupt` of the decision [`Self::decide_next`] returned) to a
    /// sampled scalar reading. Returns the (possibly corrupted) value
    /// and whether it was altered.
    pub fn corrupt_value(&mut self, kind: FaultKind, value: f64) -> (f64, bool) {
        let a = self.attempt.saturating_sub(1);
        match kind {
            FaultKind::StuckAt => {
                let frozen = *self.stuck_value.get_or_insert(value);
                (frozen, (frozen - value).abs() > f64::EPSILON)
            }
            FaultKind::Flapping => {
                let base = self.window_base(a / VALUE_WINDOW, value);
                let v = if a.is_multiple_of(2) {
                    base + FLAP_SWING
                } else {
                    base - FLAP_SWING
                };
                (v, true)
            }
            FaultKind::Drift => {
                let k = a % VALUE_WINDOW + 1;
                (value + DRIFT_STEP * k as f64, true)
            }
            _ => (value, false),
        }
    }

    fn window_base(&mut self, window: u64, value: f64) -> f64 {
        match self.window_base {
            Some((w, base)) if w == window => base,
            _ => {
                self.window_base = Some((window, value));
                value
            }
        }
    }

    /// A ghost reading for the current attempt: pure in
    /// `(seed, attempt)`, deliberately outside any plausible phenomenon
    /// range so harnesses can score it as incorrect.
    #[must_use]
    pub fn ghost_value(&self) -> f64 {
        let a = self.attempt.saturating_sub(1);
        1_000.0 + unit(mix(self.seed, 7, a)) * 1_000.0
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_spec() -> impl Strategy<Value = FaultSpec> {
        (0usize..6, 0.0f64..=1.0).prop_map(|(k, rate)| FaultSpec::new(FaultKind::ALL[k], rate))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Same seed and specs → byte-identical fault timeline, no
        /// matter how many times it is expanded.
        #[test]
        fn expansion_is_deterministic(
            seed in any::<u64>(),
            id in any::<u32>(),
            spec in arb_spec(),
            attempts in 1u64..300,
        ) {
            let p = FaultPlan::new(seed).sensor(SensorId(id), spec);
            let a = p.render_sensor_timeline(SensorId(id), attempts);
            let b = p.clone().render_sensor_timeline(SensorId(id), attempts);
            prop_assert_eq!(a, b);
        }

        /// A device's timeline is independent of every *other* device
        /// in the plan and of declaration order.
        #[test]
        fn timelines_are_order_insensitive(
            seed in any::<u64>(),
            ids in proptest::collection::vec(any::<u32>(), 2..6),
            spec in arb_spec(),
        ) {
            let mut ids: Vec<u32> = ids;
            ids.sort_unstable();
            ids.dedup();
            let mut fwd = FaultPlan::new(seed);
            for id in &ids {
                fwd = fwd.sensor(SensorId(*id), spec.clone());
            }
            let mut rev = FaultPlan::new(seed);
            for id in ids.iter().rev() {
                rev = rev.sensor(SensorId(*id), spec.clone());
            }
            // A plan that names ONLY this device expands identically:
            // the in-home schedule is reproducible standalone.
            for id in &ids {
                let solo = FaultPlan::new(seed).sensor(SensorId(*id), spec.clone());
                let full = fwd.render_sensor_timeline(SensorId(*id), 128);
                prop_assert_eq!(&full, &rev.render_sensor_timeline(SensorId(*id), 128));
                prop_assert_eq!(&full, &solo.render_sensor_timeline(SensorId(*id), 128));
            }
        }

        /// The runtime wrapper replays exactly the rendered timeline:
        /// `decide_next` at attempt n equals `sensor_timeline(..)[n]`.
        #[test]
        fn runtime_matches_timeline(
            seed in any::<u64>(),
            id in any::<u32>(),
            spec in arb_spec(),
            attempts in 1u64..200,
        ) {
            let p = FaultPlan::new(seed).sensor(SensorId(id), spec);
            let expected = p.sensor_timeline(SensorId(id), attempts);
            let mut f = p.for_sensor(SensorId(id));
            let got: Vec<FaultDecision> = (0..attempts).map(|_| f.decide_next()).collect();
            prop_assert_eq!(got, expected);
        }

        /// Rate 0 never fires, rate 1 presence faults always fire.
        #[test]
        fn rate_extremes(seed in any::<u64>(), id in any::<u32>()) {
            let clean = FaultPlan::new(seed)
                .sensor(SensorId(id), FaultSpec::new(FaultKind::Missed, 0.0))
                .sensor(SensorId(id), FaultSpec::new(FaultKind::Ghost, 0.0));
            prop_assert!(clean
                .sensor_timeline(SensorId(id), 256)
                .iter()
                .all(|d| *d == FaultDecision::default()));
            let always = FaultPlan::new(seed)
                .sensor(SensorId(id), FaultSpec::new(FaultKind::Missed, 1.0));
            prop_assert!(always
                .sensor_timeline(SensorId(id), 256)
                .iter()
                .all(|d| d.suppress == Some(FaultKind::Missed)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan::new(42)
            .sensor(SensorId(1), FaultSpec::new(FaultKind::Missed, 0.3))
            .sensor(SensorId(2), FaultSpec::new(FaultKind::StuckAt, 0.5))
            .actuator(ActuatorId(1), FaultSpec::new(FaultKind::Missed, 0.2))
    }

    #[test]
    fn kind_names_round_trip() {
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::parse(k.name()), Some(k));
        }
        assert_eq!(FaultKind::parse("nope"), None);
    }

    #[test]
    fn timeline_is_deterministic() {
        let a = plan().render_sensor_timeline(SensorId(1), 200);
        let b = plan().render_sensor_timeline(SensorId(1), 200);
        assert_eq!(a, b);
        assert!(
            a.contains("suppress=missed"),
            "rate 0.3 must fire in 200 attempts"
        );
    }

    #[test]
    fn declaration_order_is_irrelevant() {
        let fwd = FaultPlan::new(7)
            .sensor(SensorId(1), FaultSpec::new(FaultKind::Ghost, 0.2))
            .sensor(SensorId(2), FaultSpec::new(FaultKind::Drift, 0.4));
        let rev = FaultPlan::new(7)
            .sensor(SensorId(2), FaultSpec::new(FaultKind::Drift, 0.4))
            .sensor(SensorId(1), FaultSpec::new(FaultKind::Ghost, 0.2));
        assert_eq!(fwd, rev);
        assert_eq!(
            fwd.render_sensor_timeline(SensorId(1), 100),
            rev.render_sensor_timeline(SensorId(1), 100)
        );
    }

    #[test]
    fn rate_zero_is_clean() {
        let p = FaultPlan::new(3).sensor(SensorId(1), FaultSpec::new(FaultKind::Missed, 0.0));
        assert!(p
            .sensor_timeline(SensorId(1), 500)
            .iter()
            .all(|d| *d == FaultDecision::default()));
    }

    #[test]
    fn sensor_and_actuator_streams_are_disjoint() {
        let p = FaultPlan::new(11)
            .sensor(SensorId(5), FaultSpec::new(FaultKind::Missed, 0.5))
            .actuator(ActuatorId(5), FaultSpec::new(FaultKind::Missed, 0.5));
        let mut s = p.for_sensor(SensorId(5));
        let mut a = p.for_actuator(ActuatorId(5));
        let sd: Vec<_> = (0..64)
            .map(|_| s.decide_next().suppress.is_some())
            .collect();
        let ad: Vec<_> = (0..64)
            .map(|_| a.decide_next().suppress.is_some())
            .collect();
        assert_ne!(sd, ad, "same numeric id must not share a stream");
    }

    #[test]
    fn stuck_freezes_at_window_entry() {
        let p = FaultPlan::new(1).sensor(SensorId(1), FaultSpec::new(FaultKind::StuckAt, 1.0));
        let mut f = p.for_sensor(SensorId(1));
        let d = f.decide_next();
        assert_eq!(d.corrupt, Some(FaultKind::StuckAt));
        assert_eq!(f.corrupt_value(FaultKind::StuckAt, 21.0), (21.0, false));
        f.decide_next();
        assert_eq!(
            f.corrupt_value(FaultKind::StuckAt, 25.0),
            (21.0, true),
            "frozen at entry value"
        );
    }

    #[test]
    fn drift_grows_within_window() {
        let p = FaultPlan::new(1).sensor(SensorId(1), FaultSpec::new(FaultKind::Drift, 1.0));
        let mut f = p.for_sensor(SensorId(1));
        f.decide_next();
        assert_eq!(f.corrupt_value(FaultKind::Drift, 10.0), (11.0, true));
        f.decide_next();
        assert_eq!(f.corrupt_value(FaultKind::Drift, 10.0), (12.0, true));
    }

    #[test]
    fn an_unnamed_device_never_faults() {
        let p = plan();
        let mut f = p.for_sensor(SensorId(9));
        assert!((0..256).all(|_| f.decide_next() == FaultDecision::default()));
    }

    #[test]
    fn battery_decay_suppresses_more_over_time() {
        let p =
            FaultPlan::new(9).sensor(SensorId(1), FaultSpec::new(FaultKind::BatteryDecay, 0.02));
        let tl = p.sensor_timeline(SensorId(1), 400);
        let early = tl[..100].iter().filter(|d| d.suppress.is_some()).count();
        let late = tl[300..].iter().filter(|d| d.suppress.is_some()).count();
        assert!(late > early, "decay must worsen: early={early} late={late}");
    }
}
