//! The run protocol: one workload, measured for `--seconds`.
//!
//! An untraced run (`--trace 0`) yields the end-to-end metrics:
//!
//! 1. One untimed **warm-up** repetition (the first repetition in a
//!    process runs 30–90 % slower than later ones: cold heap).
//! 2. **Set-up**, [`SETUP_REPS`] samples of [`SETUP_BATCH`] each: build
//!    a fresh home and boot it through its first virtual second;
//!    `setup_s` is the median.
//! 3. **Timed repetitions** until `--seconds` of wall time have passed
//!    (at least [`MIN_REPS`]). Every repetition builds a fresh home from
//!    the same seed — so all of them process exactly the same events —
//!    and only `run_until` is timed. Host-time metrics are medians over
//!    the repetitions, never a best-of, converted to reference-host
//!    time by the calibration kernel of [`crate::calib`], which is timed
//!    after every repetition.
//! 4. `VmHWM` is read, then the last repetition's probes are read back,
//!    judged by the oracle and turned into the virtual-time metrics.
//!
//! A traced run (`--trace 1`) yields the per-layer metrics: it
//! alternates untraced and traced repetitions (platform recorder on,
//! allocations counted), reads the traced repetition's counters, runs
//! the layer probes, and writes the harness's spans to
//! `<out>/trace-<workload>.json` once everything is measured.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use rivulet_core::app::AppSpec;
use rivulet_fleet::{FleetManifest, HomeSpec};
use rivulet_net::live::{LiveConfig, LiveNet};
use rivulet_obs::ObsSnapshot;
use rivulet_types::{ActuatorId, EventKind, Payload, SensorId, Time};

use crate::home::{dag_app, deploy_ring, ring_app, RingShape, SimHome, Taps, ZONES};
use crate::host;
use crate::json::Json;
use crate::layers::{self, LayerInputs, Probed};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::oracle::{judge, Verdict};
use crate::probes::{self, ProbeShape};
use crate::rep::{interruption_us, NetCounts, RepData, Virtual, BOOT};
use crate::spans::SpanLog;
use crate::stats::{median, LatencySummary, Spread};
use crate::workloads::{expand_fleet, fleet_home, FleetShape, Kind, LiveShape, Workload};
use crate::{alloc, calib};

/// Set-up samples per run for `setup_s`.
pub const SETUP_REPS: usize = 31;

/// Fresh homes built and booted per set-up sample.
pub const SETUP_BATCH: usize = 4;

/// Fewest timed repetitions of a run, however short `--seconds` is.
pub const MIN_REPS: usize = 3;

/// How a run is to be made.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seeds every generated input.
    pub seed: u64,
    /// Wall seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Where the span file of a traced run goes.
    pub out_dir: PathBuf,
}

/// One named value, with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in the catalogue.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in the catalogue.
    pub unit: &'static str,
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct Report {
    /// The oracle's judgement of the checked repetition.
    pub verdict: Verdict,
    /// Every end-to-end metric (untraced) or every per-layer metric
    /// (traced), in catalogue order.
    pub metrics: Vec<Metric>,
    /// Spreads, sample counts and raw counts, for the table and the
    /// result file.
    pub detail: Json,
}

impl Report {
    /// The driver's result line.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_owned())),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.verdict.correct())),
            ("attempted", Json::Num(self.verdict.attempted as f64)),
            ("failed", Json::Num(self.verdict.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }
}

/// Host-time measurements of a run, as measured, plus the calibration
/// kernel's timings that convert them to reference-host time (see
/// [`crate::calib`]).
#[derive(Debug, Default)]
struct Timing {
    /// Set-ups, as measured.
    setups: Vec<f64>,
    /// Timed repetitions, as measured.
    walls: Vec<f64>,
    /// The calibration kernel, timed around the set-ups and after every
    /// repetition.
    kernels: Vec<f64>,
    peak_rss_mib: Option<f64>,
}

impl Timing {
    fn calibrate(&mut self) {
        self.kernels.push(calib::measure());
    }

    /// Takes [`SETUP_REPS`] set-up samples; each is the mean of
    /// [`SETUP_BATCH`] consecutive build-and-boots (a single one takes a
    /// millisecond or two, too short to time steadily).
    fn time_setups(&mut self, mut boot: impl FnMut()) {
        self.calibrate();
        for _ in 0..SETUP_REPS {
            let started = Instant::now();
            for _ in 0..SETUP_BATCH {
                boot();
            }
            self.setups
                .push(secs(started.elapsed()) / SETUP_BATCH as f64);
        }
        self.calibrate();
    }

    /// Records one timed repetition, then times the kernel again.
    fn record_rep(&mut self, wall_s: f64) {
        self.walls.push(wall_s);
        self.calibrate();
    }

    /// Reference-host seconds per measured second over this run; 1 when
    /// the run was not calibrated (the wall-clock live workload).
    fn to_reference(&self) -> f64 {
        median(&self.kernels).map_or(1.0, |kernel| calib::NOMINAL_S / kernel)
    }
}

fn secs(d: StdDuration) -> f64 {
    d.as_secs_f64()
}

fn spread_json(values: &[f64]) -> Json {
    Spread::of(values).map_or(Json::Null, |s| {
        Json::obj([
            ("n", Json::Num(s.n as f64)),
            ("min", Json::Num(s.min)),
            ("q1", Json::Num(s.q1)),
            ("median", Json::Num(s.median)),
            ("q3", Json::Num(s.q3)),
            ("max", Json::Num(s.max)),
        ])
    })
}

fn latency_json(l: &LatencySummary) -> Json {
    Json::obj([
        ("samples", Json::Num(l.n as f64)),
        ("p50_us", Json::Num(l.p50 as f64)),
        ("p99_us", Json::Num(l.p99 as f64)),
        ("max_us", Json::Num(l.max as f64)),
        (
            "beyond_p99",
            Json::Num(crate::stats::samples_beyond(l.n, 0.99) as f64),
        ),
    ])
}

/// Turns measurements into the end-to-end metrics, in catalogue order.
fn end_to_end(timing: &Timing, virt: &Virtual) -> Result<Vec<Metric>, String> {
    let reference = timing.to_reference();
    let value = |name: &str| -> Result<f64, String> {
        Ok(match name {
            "events_per_s" => {
                let wall = median(&timing.walls).ok_or("no timed repetition")?;
                virt.delivered as f64 / (wall * reference)
            }
            "deliver_p50_ms" => virt.deliver.p50 as f64 / 1e3,
            "deliver_p99_ms" => virt.deliver.p99 as f64 / 1e3,
            "actuate_p50_ms" => virt.actuate.p50 as f64 / 1e3,
            "actuate_p99_ms" => virt.actuate.p99 as f64 / 1e3,
            "wifi_bytes_per_event" => virt.wifi_bytes_per_event,
            "failover_gap_ms" => virt.interruption_us as f64 / 1e3,
            "peak_rss_mb" => timing
                .peak_rss_mib
                .ok_or("/proc/self/status unreadable: peak_rss_mb is absent")?,
            "setup_s" => median(&timing.setups).ok_or("no set-up repetition")? * reference,
            other => return Err(format!("no definition for end-to-end metric {other}")),
        })
    };
    END_TO_END
        .iter()
        .map(|m| {
            Ok(Metric {
                name: m.name,
                value: value(m.name)?,
                unit: m.unit,
            })
        })
        .collect()
}

fn e2e_detail(timing: &Timing, virt: &Virtual, verdict: &Verdict) -> Json {
    Json::obj([
        ("reps", Json::Num(timing.walls.len() as f64)),
        ("rep_wall_raw_s", spread_json(&timing.walls)),
        ("setup_raw_s", spread_json(&timing.setups)),
        ("calibration_kernel_s", spread_json(&timing.kernels)),
        ("reference_per_measured_s", Json::Num(timing.to_reference())),
        ("delivered", Json::Num(virt.delivered as f64)),
        (
            "duplicate_deliveries",
            Json::Num(virt.duplicate_deliveries as f64),
        ),
        ("deliver", latency_json(&virt.deliver)),
        ("actuate", latency_json(&virt.actuate)),
        ("longest_gap_us", Json::Num(virt.longest_gap_us as f64)),
        ("attempted", Json::Num(verdict.attempted as f64)),
        ("failed", Json::Num(verdict.failed as f64)),
    ])
}

/// Turns layer values into the per-layer metrics, in catalogue order; a
/// name a workload has no value for reads 0.
fn per_layer(values: &std::collections::BTreeMap<&'static str, f64>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            value: values.get(m.name).copied().unwrap_or(0.0),
            unit: m.unit,
        })
        .collect()
}

/// Runs `workload` under `options`.
///
/// # Errors
///
/// Returns a message when a measurement cannot be taken (a sample too
/// thin for its percentile, an unreadable host probe).
pub fn run(workload: &Workload, options: &Options) -> Result<Report, String> {
    let mut log = SpanLog::new(workload.name);
    let report = match &workload.kind {
        Kind::Ring(_) | Kind::Dag(_) => run_sim(workload, options, &mut log),
        Kind::Fleet(shape) => run_fleet(shape, options, &mut log),
        Kind::Live(shape) => run_live(shape, options, &mut log),
    }?;
    if options.trace {
        // Written last: nothing measured above waits on the disk. The
        // file is an aid, so failing to write it only warns.
        let path = options
            .out_dir
            .join(format!("trace-{}.json", workload.name));
        let written = std::fs::create_dir_all(&options.out_dir)
            .and_then(|()| std::fs::write(&path, log.to_json().render_pretty()));
        if let Err(e) = written {
            eprintln!("perf: could not write {}: {e}", path.display());
        }
    }
    Ok(report)
}

fn build_sim(kind: &Kind, seed: u64, traced: bool) -> SimHome {
    match kind {
        Kind::Ring(shape) => SimHome::ring(shape, seed, traced),
        Kind::Dag(shape) => SimHome::dag(shape, seed, traced),
        Kind::Fleet(_) | Kind::Live(_) => unreachable!("not a single simulated home"),
    }
}

/// Cheap fingerprint of a finished repetition; equal across the
/// repetitions of a seed or the simulation is not deterministic.
fn fingerprint(home: &SimHome) -> (u64, usize) {
    (home.taps.emitted(), home.taps.effects())
}

fn probe_shape(kind: &Kind) -> ProbeShape {
    let sensors = |n: usize| -> Vec<SensorId> { (0..n as u32).map(SensorId).collect() };
    let actuators = |n: usize| -> Vec<ActuatorId> { (0..n as u32).map(ActuatorId).collect() };
    match kind {
        Kind::Ring(shape) => ring_probe_shape(shape),
        Kind::Dag(shape) => {
            let push = sensors(3);
            let polls: Vec<SensorId> = (3..3 + shape.polls as u32).map(SensorId).collect();
            let app: AppSpec = dag_app(
                &push,
                &polls,
                &actuators(ZONES),
                shape.period.saturating_mul(4),
            );
            ProbeShape {
                payload: Payload::Scalar(21.0),
                kind: EventKind::Reading,
                processes: shape.processes,
                sensors: push,
                app: Arc::new(app),
            }
        }
        Kind::Fleet(_) | Kind::Live(_) => unreachable!("shaped by their homes"),
    }
}

fn ring_probe_shape(shape: &RingShape) -> ProbeShape {
    use rivulet_devices::sensor::PayloadSpec;
    let (payload, kind) = match &shape.sensors[0].payload {
        PayloadSpec::KindOnly(kind) => (Payload::Empty, *kind),
        PayloadSpec::Scalar(_) => (Payload::Scalar(21.0), EventKind::Reading),
        PayloadSpec::Blob { kind, len } => (Payload::zeros(*len), *kind),
    };
    let sensors: Vec<SensorId> = (0..shape.sensors.len() as u32).map(SensorId).collect();
    let n_actuators = ZONES + if shape.routine_every.is_some() { 2 } else { 0 };
    let actuators: Vec<ActuatorId> = (0..n_actuators as u32).map(ActuatorId).collect();
    ProbeShape {
        payload,
        kind,
        processes: shape.processes,
        sensors: sensors.clone(),
        app: Arc::new(ring_app(&sensors, &actuators, shape.routine_every)),
    }
}

/// Runs the layer probes a workload calls for, each for `each`.
fn run_probes(
    shape: &ProbeShape,
    durable: bool,
    routine: bool,
    each: StdDuration,
    log: &mut SpanLog,
) -> Probed {
    let payload_len = shape.payload.len();
    let mut probed = Probed::default();
    (probed.encode_ns, probed.decode_ns) =
        log.span("probe:types.wire", |_| probes::wire(shape, each));
    probed.dispatch_ns = log.span("probe:net.sim", |_| probes::sim_dispatch(payload_len, each));
    probed.insert_ns = log.span("probe:core.store", |_| probes::store_insert(shape, each));
    probed.fire_ns = log.span("probe:core.app", |_| probes::app_fire(shape, each));
    probed.inc_ns = log.span("probe:obs", |_| probes::obs_inc(each));
    if durable {
        (probed.append_ns, probed.flush_us) =
            log.span("probe:storage.wal", |_| probes::wal(shape, each));
    }
    if routine {
        probed.ledger_us = log.span("probe:storage.ledger", |_| probes::ledger_append(each));
    }
    probed
}

fn run_sim(workload: &Workload, options: &Options, log: &mut SpanLog) -> Result<Report, String> {
    let kind = &workload.kind;
    let seed = options.seed;
    let budget = StdDuration::from_secs_f64(options.seconds);

    let mut timing = Timing::default();
    log.span("warmup", |_| build_sim(kind, seed, false).run());
    log.span("setup", |_| {
        timing.time_setups(|| build_sim(kind, seed, false).run_to(Time::ZERO + BOOT));
    });

    let timed = |home: &mut SimHome| {
        let started = Instant::now();
        home.run();
        secs(started.elapsed())
    };

    if !options.trace {
        let started = Instant::now();
        let mut last: Option<SimHome> = None;
        let mut reference = None;
        while timing.walls.len() < MIN_REPS || started.elapsed() < budget {
            // One home alive at a time: the peak is a home's, not two.
            drop(last.take());
            let mut home = log.span("build", |_| build_sim(kind, seed, false));
            let wall = log.span("run", |_| timed(&mut home));
            timing.record_rep(wall);
            if *reference.get_or_insert(fingerprint(&home)) != fingerprint(&home) {
                return Err("repetitions of one seed disagree: not deterministic".into());
            }
            last = Some(home);
        }
        timing.peak_rss_mib = host::peak_rss_mib();
        let rep = log.span("collect", |_| last.expect("at least one rep").collect());
        let verdict = judge(&rep);
        let virt = rep.virtual_metrics()?;
        return Ok(Report {
            metrics: end_to_end(&timing, &virt)?,
            detail: e2e_detail(&timing, &virt, &verdict),
            verdict,
        });
    }

    // Traced run: alternate untraced and traced repetitions for a bit
    // over half the budget, then spend the rest on the layer probes.
    let started = Instant::now();
    let reps_budget = budget.mul_f64(0.55);
    let mut traced_walls = Vec::new();
    let mut last: Option<(SimHome, f64, (u64, u64))> = None;
    while traced_walls.len() < 2 || started.elapsed() < reps_budget {
        let mut plain = log.span("build", |_| build_sim(kind, seed, false));
        timing.walls.push(log.span("run", |_| timed(&mut plain)));
        drop(plain);
        let mut home = log.span("build", |_| build_sim(kind, seed, true));
        let cpu_before = host::thread_cpu_time();
        let (wall, allocs) = log.span("run:traced", |_| alloc::counted(|| timed(&mut home)));
        let cpu = host::thread_cpu_time()
            .zip(cpu_before)
            .map_or(wall, |(after, before)| secs(after.saturating_sub(before)));
        traced_walls.push(wall);
        last = Some((home, cpu, allocs));
    }
    let (home, cpu_s, allocs) = last.expect("at least one traced rep");
    let rep = log.span("collect", |_| home.collect());
    drop(home);
    let verdict = judge(&rep);
    let virt = rep.virtual_metrics()?;

    let (durable, routine) = match kind {
        Kind::Ring(shape) => (shape.durable.is_some(), shape.routine_every.is_some()),
        _ => (false, false),
    };
    let n_probes = 5 + usize::from(durable) + usize::from(routine);
    let each = budget
        .saturating_sub(started.elapsed())
        .max(budget.mul_f64(0.2))
        / n_probes as u32;
    let probed = run_probes(&probe_shape(kind), durable, routine, each, log);

    let inputs = LayerInputs {
        rep: &rep,
        virt: &virt,
        probed: &probed,
        stored: layers::stored_events(&rep),
        cpu_s,
        allocs,
        untraced_wall_s: median(&timing.walls).unwrap_or(f64::NAN),
        traced_wall_s: median(&traced_walls).unwrap_or(f64::NAN),
    };
    let values = layers::sim_layers(&inputs);
    Ok(Report {
        metrics: per_layer(&values),
        detail: Json::obj([
            ("pairs", Json::Num(traced_walls.len() as f64)),
            ("untraced_wall_s", spread_json(&timing.walls)),
            ("traced_wall_s", spread_json(&traced_walls)),
            ("traced_cpu_s", Json::Num(cpu_s)),
            ("delivered", Json::Num(virt.delivered as f64)),
        ]),
        verdict,
    })
}

/// Runs `f` over `specs` on `threads` workers pulling from one shared
/// cursor; results come back in spec order.
fn sweep<T: Send>(specs: &[HomeSpec], threads: usize, f: impl Fn(&HomeSpec) -> T + Sync) -> Vec<T> {
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // Relaxed: the cursor hands out indices and
                        // publishes nothing else.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(i) else {
                            return mine;
                        };
                        mine.push((i, f(spec)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a fleet worker panicked"))
            .collect()
    });
    slots.sort_by_key(|(i, _)| *i);
    slots.into_iter().map(|(_, t)| t).collect()
}

/// One fleet home's checked output, reduced to what pools.
struct HomeOutput {
    verdict: Verdict,
    deliver_us: Vec<u64>,
    actuate_us: Vec<u64>,
    gaps_us: Vec<u64>,
    delivered: u64,
    duplicate_deliveries: u64,
    net: NetCounts,
    obs: ObsSnapshot,
    store_len_max: usize,
    stored: f64,
}

fn run_home_checked(spec: &HomeSpec, traced: bool) -> HomeOutput {
    let mut home = SimHome::ring(&fleet_home(spec), spec.seed, traced);
    home.run();
    let rep = home.collect();
    let firsts = rep.first_deliveries();
    HomeOutput {
        verdict: judge(&rep),
        deliver_us: firsts
            .iter()
            .map(|(_, emitted, at)| at.duration_since(*emitted).as_micros())
            .collect(),
        actuate_us: rep.actuation_latencies(),
        gaps_us: rep.delivery_gaps_us(&firsts),
        delivered: firsts.len() as u64,
        duplicate_deliveries: (rep.deliveries.len() - firsts.len()) as u64,
        stored: layers::stored_events(&rep),
        net: rep.net,
        obs: rep.obs,
        store_len_max: rep.store_len_max,
    }
}

/// Pools per-home outputs into one fleet-wide judgement and result.
fn pool(outputs: Vec<HomeOutput>) -> Result<(Verdict, Virtual, RepData, f64), String> {
    let mut verdict = Verdict::default();
    let (mut deliver, mut actuate, mut gaps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut delivered, mut dups) = (0u64, 0u64);
    let mut net = NetCounts::default();
    let mut obs = ObsSnapshot::default();
    let mut store_len_max = 0;
    let mut stored = 0.0;
    for (i, out) in outputs.into_iter().enumerate() {
        stored += out.stored;
        verdict.attempted += out.verdict.attempted;
        verdict.failed += out.verdict.failed;
        verdict.violations.extend(
            out.verdict
                .violations
                .iter()
                .map(|v| format!("home {i}: {v}")),
        );
        deliver.extend(out.deliver_us);
        actuate.extend(out.actuate_us);
        gaps.extend(out.gaps_us);
        delivered += out.delivered;
        dups += out.duplicate_deliveries;
        net.messages_sent += out.net.messages_sent;
        net.messages_delivered += out.net.messages_delivered;
        net.timers_fired += out.net.timers_fired;
        net.wifi_bytes += out.net.wifi_bytes;
        net.radio_bytes += out.net.radio_bytes;
        net.sim_events += out.net.sim_events;
        net.fanout.frames_coalesced += out.net.fanout.frames_coalesced;
        net.fanout.messages_avoided += out.net.fanout.messages_avoided;
        net.fanout.encode_bytes_saved += out.net.fanout.encode_bytes_saved;
        net.fanout.acks_avoided += out.net.fanout.acks_avoided;
        obs.merge(&out.obs);
        store_len_max = store_len_max.max(out.store_len_max);
    }
    let thin = |what: &str| format!("{what}: too few samples fleet-wide for a p99");
    let virt = Virtual {
        delivered,
        duplicate_deliveries: dups,
        deliver: LatencySummary::of(&mut deliver).ok_or_else(|| thin("deliver latency"))?,
        actuate: LatencySummary::of(&mut actuate).ok_or_else(|| thin("actuate latency"))?,
        interruption_us: interruption_us(&mut gaps),
        longest_gap_us: gaps.last().copied().unwrap_or(0),
        wifi_bytes_per_event: net.wifi_bytes as f64 / delivered.max(1) as f64,
    };
    // The fleet-wide counters, in the shape the layer formulas read.
    let counts = RepData::counts_only(net, obs, store_len_max);
    Ok((verdict, virt, counts, stored))
}

fn run_fleet(shape: &FleetShape, options: &Options, log: &mut SpanLog) -> Result<Report, String> {
    let budget = StdDuration::from_secs_f64(options.seconds);
    let threads = host::nproc();
    let manifest = &shape.manifest;

    let mut timing = Timing::default();
    let specs = expand_fleet(manifest);
    let timed_sweep = |threads: usize, traced: bool| {
        let started = Instant::now();
        let prints = sweep(&specs, threads, |spec| {
            let mut home = SimHome::ring(&fleet_home(spec), spec.seed, traced);
            home.run();
            fingerprint(&home)
        });
        (secs(started.elapsed()), prints)
    };
    let (_, reference) = log.span("warmup", |_| timed_sweep(threads, false));
    // Set-up of a fleet: parse and expand the manifest, then build and
    // boot the first home.
    log.span("setup", |_| {
        timing.time_setups(|| {
            let specs = expand_fleet(manifest);
            SimHome::ring(&fleet_home(&specs[0]), specs[0].seed, false).run_to(Time::ZERO + BOOT);
        });
    });

    if !options.trace {
        let started = Instant::now();
        while timing.walls.len() < MIN_REPS || started.elapsed() < budget {
            let (wall, prints) = log.span("run", |_| timed_sweep(threads, false));
            if prints != reference {
                return Err("sweeps of one seed disagree: not deterministic".into());
            }
            timing.record_rep(wall);
        }
        timing.peak_rss_mib = host::peak_rss_mib();
        let outputs = log.span("collect", |_| {
            sweep(&specs, threads, |spec| run_home_checked(spec, false))
        });
        let (verdict, virt, _, _) = pool(outputs)?;
        let mut detail = e2e_detail(&timing, &virt, &verdict);
        if let Json::Obj(map) = &mut detail {
            map.insert("homes".into(), Json::Num(specs.len() as f64));
            map.insert("threads".into(), Json::Num(threads as f64));
        }
        return Ok(Report {
            metrics: end_to_end(&timing, &virt)?,
            detail,
            verdict,
        });
    }

    // Traced run: untraced and traced sweeps on every core, one
    // single-threaded sweep for the efficiency figure, then the probes.
    let mut traced_walls = Vec::new();
    let cpu_before = host::process_cpu_time();
    for _ in 0..2 {
        timing
            .walls
            .push(log.span("run", |_| timed_sweep(threads, false)).0);
    }
    let cpu_untraced = host::process_cpu_time()
        .zip(cpu_before)
        .map(|(after, before)| secs(after.saturating_sub(before)) / 2.0);
    for _ in 0..2 {
        traced_walls.push(log.span("run:traced", |_| timed_sweep(threads, true)).0);
    }
    let single_wall = log.span("run:1-thread", |_| timed_sweep(1, false)).0;
    let outputs = log.span("collect", |_| {
        sweep(&specs, threads, |spec| run_home_checked(spec, true))
    });
    let (verdict, virt, counts, stored) = pool(outputs)?;

    let started = Instant::now();
    let expand_ms = log.span("probe:fleet.expand", |_| {
        let mut samples = Vec::new();
        while samples.len() < 5 || started.elapsed() < budget.mul_f64(0.03) {
            let t = Instant::now();
            let parsed = FleetManifest::from_text(manifest).and_then(|m| m.expand());
            samples.push(secs(t.elapsed()) * 1e3);
            drop(parsed);
        }
        median(&samples).unwrap_or(f64::NAN)
    });
    // `run_home` builds the fleet crate's own measurement home from the
    // same specs; timed per home, on every core as a fleet run would.
    let mut home_us: Vec<u64> = log.span("probe:fleet.run_home", |_| {
        let rounds = (1_000usize).div_ceil(specs.len().max(1));
        (0..rounds)
            .flat_map(|_| {
                sweep(&specs, threads, |spec| {
                    let t = Instant::now();
                    std::hint::black_box(rivulet_fleet::run_home(spec));
                    t.elapsed().as_micros() as u64
                })
            })
            .collect()
    });
    let home_ms = LatencySummary::of(&mut home_us);

    let first = fleet_home(&specs[0]);
    let each = budget.mul_f64(0.04);
    let probed = run_probes(&ring_probe_shape(&first), true, false, each, log);
    let delivered = virt.delivered as f64;
    let median_wall = median(&timing.walls).unwrap_or(f64::NAN);
    let inputs = LayerInputs {
        rep: &counts,
        virt: &virt,
        probed: &probed,
        stored,
        // CPU summed over the workers (10 ms resolution), wall x cores
        // when the host does not say.
        cpu_s: cpu_untraced.unwrap_or(median_wall * threads as f64),
        allocs: (0, 0),
        untraced_wall_s: median_wall,
        traced_wall_s: median(&traced_walls).unwrap_or(f64::NAN),
    };
    let mut values = layers::sim_layers(&inputs);
    // Allocation counts are exact only single-threaded; absent here.
    values.remove("process.allocs_per_event");
    values.remove("process.alloc_bytes_per_event");
    let homes = specs.len() as f64;
    values.insert("fleet.expand_ms", expand_ms);
    if let Some(h) = home_ms {
        values.insert("fleet.home_ms_p50", h.p50 as f64 / 1e3);
        values.insert("fleet.home_ms_p99", h.p99 as f64 / 1e3);
    }
    values.insert("fleet.homes_per_s", homes / median_wall);
    values.insert(
        "fleet.thread_efficiency",
        (homes / median_wall) / (threads as f64 * homes / single_wall),
    );
    Ok(Report {
        metrics: per_layer(&values),
        detail: Json::obj([
            ("homes", Json::Num(homes)),
            ("threads", Json::Num(threads as f64)),
            ("untraced_wall_s", spread_json(&timing.walls)),
            ("traced_wall_s", spread_json(&traced_walls)),
            ("single_thread_wall_s", Json::Num(single_wall)),
            ("delivered", Json::Num(delivered)),
        ]),
        verdict,
    })
}

/// One wall-clock segment of the live workload.
struct LiveSegment {
    rep: RepData,
    wall_s: f64,
    cpu_s: Option<f64>,
    scheduled: f64,
}

fn live_segment(shape: &LiveShape, seed: u64, length: StdDuration, traced: bool) -> LiveSegment {
    let mut net = LiveNet::new(LiveConfig { seed });
    net.recorder().set_enabled(traced);
    let taps: Taps = deploy_ring(&mut net, &shape.home, seed);
    let cpu_before = host::process_cpu_time();
    let started = Instant::now();
    std::thread::sleep(length);
    let end = net.now();
    let wall_s = secs(started.elapsed());
    let cpu_s = host::process_cpu_time()
        .zip(cpu_before)
        .map(|(after, before)| secs(after.saturating_sub(before)));
    let m = net.metrics();
    let counts = NetCounts {
        messages_sent: m.messages_sent,
        messages_delivered: m.messages_delivered,
        timers_fired: m.timers_fired,
        wifi_bytes: m.wifi_bytes,
        radio_bytes: m.radio_bytes,
        sim_events: 0,
        fanout: m.fanout.snapshot(),
    };
    let obs = if traced {
        net.obs_snapshot()
    } else {
        ObsSnapshot::default()
    };
    // Stops every actor thread and waits for each to exit; only then
    // are the probes a consistent picture.
    net.shutdown();
    let rep = taps.collect(end, None, counts, obs);
    LiveSegment {
        rep,
        wall_s,
        cpu_s,
        scheduled: end.duration_since(Time::ZERO).as_micros() as f64
            / shape.period.as_micros() as f64,
    }
}

fn run_live(shape: &LiveShape, options: &Options, log: &mut SpanLog) -> Result<Report, String> {
    let seed = options.seed;
    // One warm-up second, then three equal segments fill the budget. A
    // segment shorter than boot + grace would attempt nothing.
    let segment = StdDuration::from_secs_f64(((options.seconds - 1.0) / 3.0).max(2.5));
    let mut timing = Timing::default();
    log.span("warmup", |_| {
        live_segment(shape, seed, StdDuration::from_secs(1).min(segment), false)
    });
    // Set-up of a live home: spawn its threads, see the first effect
    // applied.
    log.span("setup", |_| {
        timing.time_setups(|| {
            let mut net = LiveNet::new(LiveConfig { seed });
            let taps = deploy_ring(&mut net, &shape.home, seed);
            let deadline = Instant::now() + StdDuration::from_secs(5);
            while taps.effects() == 0 && Instant::now() < deadline {
                std::thread::sleep(StdDuration::from_micros(200));
            }
            net.shutdown();
        });
    });
    let segments: Vec<LiveSegment> = (0..3)
        .map(|i| {
            // A traced run alternates recorder off / on / off.
            let traced = options.trace && i == 1;
            log.span(if traced { "run:traced" } else { "run" }, |_| {
                live_segment(shape, seed, segment, traced)
            })
        })
        .collect();
    timing.peak_rss_mib = host::peak_rss_mib();

    // Judge and summarise every segment; report medians across them.
    let mut verdict = Verdict::default();
    let mut virts = Vec::new();
    timing.kernels.clear();
    for (i, s) in segments.iter().enumerate() {
        let v = judge(&s.rep);
        verdict.attempted += v.attempted;
        verdict.failed += v.failed;
        verdict
            .violations
            .extend(v.violations.iter().map(|m| format!("segment {i}: {m}")));
        virts.push(s.rep.virtual_metrics()?);
        // Open loop in wall time: a segment lasts what it lasts on any
        // host, so it is not converted (no kernel timing is kept).
        timing.walls.push(s.wall_s);
    }
    let mid = |f: &dyn Fn(&Virtual) -> f64| -> f64 {
        median(&virts.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let mid_latency = |f: &dyn Fn(&Virtual) -> LatencySummary| LatencySummary {
        n: virts.iter().map(|v| f(v).n).sum(),
        p50: mid(&|v| f(v).p50 as f64) as u64,
        p99: mid(&|v| f(v).p99 as f64) as u64,
        max: virts.iter().map(|v| f(v).max).max().unwrap_or(0),
    };
    let virt = Virtual {
        delivered: mid(&|v| v.delivered as f64) as u64,
        duplicate_deliveries: virts.iter().map(|v| v.duplicate_deliveries).sum(),
        deliver: mid_latency(&|v| v.deliver),
        actuate: mid_latency(&|v| v.actuate),
        interruption_us: mid(&|v| v.interruption_us as f64) as u64,
        longest_gap_us: virts.iter().map(|v| v.longest_gap_us).max().unwrap_or(0),
        wifi_bytes_per_event: mid(&|v| v.wifi_bytes_per_event),
    };

    if !options.trace {
        // events_per_s pairs each segment's own count with its wall.
        let per_s: Vec<f64> = segments
            .iter()
            .zip(&virts)
            .map(|(s, v)| v.delivered as f64 / s.wall_s)
            .collect();
        let mut metrics = end_to_end(&timing, &virt)?;
        metrics[0].value = median(&per_s).ok_or("no live segment")?;
        return Ok(Report {
            metrics,
            detail: e2e_detail(&timing, &virt, &verdict),
            verdict,
        });
    }

    let traced = &segments[1];
    let emitted: f64 = traced
        .rep
        .sensors
        .iter()
        .map(|s| s.emissions.len() as f64)
        .sum();
    let delivered = virts[1].delivered as f64;
    let mut values = layers::counts(&traced.rep, &virts[1]);
    values.insert("net.live.deliver_p50_us", virt.deliver.p50 as f64);
    values.insert("net.live.deliver_p99_us", virt.deliver.p99 as f64);
    values.insert("net.live.actuate_p50_us", virt.actuate.p50 as f64);
    if let Some(cpu) = traced.cpu_s {
        values.insert("net.live.cpu_us_per_event", cpu * 1e6 / delivered);
        values.insert("process.cpu_us_per_event", cpu * 1e6 / delivered);
    }
    values.insert("net.live.emit_lag_share", 1.0 - emitted / traced.scheduled);
    // Open loop in wall time: a slower recorder shows as fewer events
    // delivered in the same seconds, not as a longer run.
    let plain = (virts[0].delivered + virts[2].delivered) as f64 / 2.0;
    values.insert("obs.overhead_share", plain / delivered - 1.0);
    values.insert(
        "obs.inc_ns",
        log.span("probe:obs", |_| {
            probes::obs_inc(StdDuration::from_millis(200))
        }),
    );
    Ok(Report {
        metrics: per_layer(&values),
        detail: Json::obj([
            ("segment_s", Json::Num(secs(segment))),
            ("emitted", Json::Num(emitted)),
            ("scheduled", Json::Num(traced.scheduled)),
            ("delivered", Json::Num(delivered)),
        ]),
        verdict,
    })
}
