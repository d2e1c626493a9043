//! Scenario manifests: a declarative description of a whole fleet.
//!
//! A manifest names a **base** home configuration plus a set of
//! **axes** — per-parameter value lists — and expands into the
//! cartesian product of all axis values, times `homes_per_config`
//! replicas per permutation. Expansion is deterministic and
//! declaration-order-insensitive (axes combine in sorted key order),
//! every home gets a stable index in `0..n`, and each home's RNG seed
//! derives purely from `(fleet_seed, home_index)` — so any single home
//! out of a hundred-thousand-home fleet can be re-run standalone
//! (`fleet home manifest.toml 1234`) and reproduce its run bit-exactly.

use std::fmt;

use rivulet_bench::common::DeliveryScenario;
use rivulet_core::config::ForwardingMode;
use rivulet_core::delivery::Delivery;
use rivulet_devices::fault::FaultKind;
use rivulet_types::{Duration, ProcSet, Time};

use crate::value::{parse, ParseError, Value};

/// Derives the RNG seed of home `home_index` in a fleet seeded with
/// `fleet_seed`.
///
/// This is a SplitMix64 step over the golden-ratio stream: for a fixed
/// `fleet_seed` it is injective in `home_index` (the pre-mix is affine
/// with an odd multiplier and the finalizer is a bijection), so no two
/// homes of one fleet ever share a seed. It is a pure function of its
/// two arguments — independent of thread count, expansion order, and
/// platform — which is what makes single-home re-runs reproducible.
#[must_use]
pub fn derive_home_seed(fleet_seed: u64, home_index: u64) -> u64 {
    let mut z =
        fleet_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(home_index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Parameters of one simulated home — the manifest's `[base]` section,
/// with any axis values substituted in.
#[derive(Debug, Clone, PartialEq)]
pub struct HomeParams {
    /// Rivulet processes (hosts) in the home.
    pub processes: usize,
    /// Number of processes able to hear the sensor (placed farthest
    /// from the application-bearing process first, as in Fig. 6).
    pub receivers: usize,
    /// Event payload bytes (Table 3 size class).
    pub event_bytes: usize,
    /// Sensor event rate per second.
    pub rate_per_sec: u64,
    /// Virtual run length in seconds.
    pub duration_secs: f64,
    /// Delivery guarantee (`"gap"` / `"gapless"`).
    pub delivery: Delivery,
    /// Gapless forwarding protocol (`"ring"` / `"broadcast"`).
    pub forwarding: ForwardingMode,
    /// Loss probability on each sensor→receiver link.
    pub loss: f64,
    /// Attach per-process durable storage (simulated WAL backend).
    pub durable: bool,
    /// Crash the application-bearing process at this virtual second;
    /// negative means no crash.
    pub crash_at_secs: f64,
    /// Failure-detection threshold in seconds.
    pub failure_timeout_secs: f64,
    /// Device fault injected into the home's sensor (`"none"`,
    /// `"stuck"`, `"flapping"`, `"drift"`, `"ghost"`, `"missed"`,
    /// `"battery"`).
    pub fault_kind: Option<FaultKind>,
    /// Rate of the injected fault (0 disables injection).
    pub fault_rate: f64,
    /// Enable the platform's device-fault repair layer.
    pub repair: bool,
    /// Enable the routine execution engine: the home's app fires a
    /// one-step routine every tenth event, exercising staging and the
    /// hash-chained execution ledger.
    pub routines: bool,
}

impl Default for HomeParams {
    fn default() -> Self {
        Self {
            processes: 5,
            receivers: 1,
            event_bytes: 8,
            rate_per_sec: 10,
            duration_secs: 10.0,
            delivery: Delivery::Gapless,
            forwarding: ForwardingMode::Ring,
            loss: 0.0,
            durable: false,
            crash_at_secs: -1.0,
            failure_timeout_secs: 2.0,
            fault_kind: None,
            fault_rate: 0.0,
            repair: false,
            routines: false,
        }
    }
}

impl HomeParams {
    /// Applies one manifest value to the named field. Unknown keys and
    /// type mismatches are errors — a typo in an axis name must not
    /// silently expand into a fleet that sweeps nothing.
    pub fn set(&mut self, key: &str, value: &Value) -> Result<(), ParseError> {
        fn bad<T>(key: &str, want: &str, got: &Value) -> Result<T, ParseError> {
            Err(ParseError {
                message: format!("`{key}` expects {want}, got `{}`", got.label()),
            })
        }
        match key {
            "processes" => match value.as_u64() {
                Some(v @ 1..) => self.processes = v as usize,
                _ => return bad(key, "a positive integer", value),
            },
            "receivers" => match value.as_u64() {
                Some(v @ 1..) => self.receivers = v as usize,
                _ => return bad(key, "a positive integer", value),
            },
            "event_bytes" => match value.as_u64() {
                Some(v) => self.event_bytes = v as usize,
                None => return bad(key, "a non-negative integer", value),
            },
            "rate_per_sec" => match value.as_u64() {
                Some(v @ 1..) => self.rate_per_sec = v,
                _ => return bad(key, "a positive integer", value),
            },
            "duration_secs" => match value.as_f64() {
                Some(v) if v > 0.0 => self.duration_secs = v,
                _ => return bad(key, "a positive number", value),
            },
            "delivery" => match value.as_str() {
                Some("gap") => self.delivery = Delivery::Gap,
                Some("gapless") => self.delivery = Delivery::Gapless,
                _ => return bad(key, "\"gap\" or \"gapless\"", value),
            },
            "forwarding" => match value.as_str() {
                Some("ring") => self.forwarding = ForwardingMode::Ring,
                Some("broadcast") => self.forwarding = ForwardingMode::EagerBroadcast,
                _ => return bad(key, "\"ring\" or \"broadcast\"", value),
            },
            "loss" => match value.as_f64() {
                Some(v) if (0.0..1.0).contains(&v) => self.loss = v,
                _ => return bad(key, "a probability in [0, 1)", value),
            },
            "durable" => match value.as_bool() {
                Some(v) => self.durable = v,
                None => return bad(key, "a bool", value),
            },
            "crash_at_secs" => match value.as_f64() {
                Some(v) => self.crash_at_secs = v,
                None => return bad(key, "a number (negative = no crash)", value),
            },
            "failure_timeout_secs" => match value.as_f64() {
                Some(v) if v > 0.0 => self.failure_timeout_secs = v,
                _ => return bad(key, "a positive number", value),
            },
            "fault_kind" => match value.as_str() {
                Some("none") => self.fault_kind = None,
                Some(s) if FaultKind::parse(s).is_some() => self.fault_kind = FaultKind::parse(s),
                _ => {
                    return bad(
                        key,
                        "\"none\", \"stuck\", \"flapping\", \"drift\", \"ghost\", \
                         \"missed\", or \"battery\"",
                        value,
                    )
                }
            },
            "fault_rate" => match value.as_f64() {
                Some(v) if (0.0..=1.0).contains(&v) => self.fault_rate = v,
                _ => return bad(key, "a rate in [0, 1]", value),
            },
            "repair" => match value.as_bool() {
                Some(v) => self.repair = v,
                None => return bad(key, "a bool", value),
            },
            "routines" => match value.as_bool() {
                Some(v) => self.routines = v,
                None => return bad(key, "a bool", value),
            },
            _ => {
                return Err(ParseError {
                    message: format!("unknown home parameter `{key}`"),
                })
            }
        }
        Ok(())
    }

    /// Cross-field validation applied after all axis substitutions.
    pub fn validate(&self) -> Result<(), ParseError> {
        if self.processes > ProcSet::CAPACITY {
            return Err(ParseError {
                message: format!(
                    "processes ({}) exceeds the home-size limit of {}",
                    self.processes,
                    ProcSet::CAPACITY
                ),
            });
        }
        if self.receivers > self.processes {
            return Err(ParseError {
                message: format!(
                    "receivers ({}) cannot exceed processes ({})",
                    self.receivers, self.processes
                ),
            });
        }
        if self.crash_at_secs >= 0.0 && self.processes < 2 {
            return Err(ParseError {
                message: "a crashing home needs at least 2 processes to fail over".into(),
            });
        }
        Ok(())
    }

    /// The crash time, if any.
    #[must_use]
    pub fn crash_at(&self) -> Option<Time> {
        (self.crash_at_secs >= 0.0).then(|| Time::ZERO + secs_f64(self.crash_at_secs))
    }

    /// Builds the [`DeliveryScenario`] this home runs, seeded with
    /// `seed`.
    #[must_use]
    pub fn to_scenario(&self, seed: u64) -> DeliveryScenario {
        let mut cfg = DeliveryScenario::paper_default(self.delivery);
        cfg.n_processes = self.processes;
        // Receivers fan out from the process after the app-bearing one
        // (index 0), wrapping — receiver counts equal to `processes`
        // include the app process itself, exactly as in Fig. 6.
        let mut receivers: Vec<usize> = (0..self.receivers)
            .map(|i| (i + 1) % self.processes)
            .collect();
        receivers.sort_unstable();
        receivers.dedup();
        cfg.receivers = receivers;
        cfg.event_bytes = self.event_bytes;
        cfg.rate_per_sec = self.rate_per_sec;
        cfg.duration = secs_f64(self.duration_secs);
        cfg.forwarding = self.forwarding;
        cfg.loss = self.loss;
        cfg.crash_app_at = self.crash_at();
        cfg.failure_timeout = secs_f64(self.failure_timeout_secs);
        cfg.durable = self.durable;
        cfg.obs = true;
        cfg.fault_kind = self.fault_kind;
        cfg.fault_rate = self.fault_rate;
        cfg.repair = self.repair;
        cfg.routines = self.routines;
        cfg.seed = seed;
        cfg
    }
}

/// Converts fractional seconds to the virtual-time [`Duration`].
fn secs_f64(secs: f64) -> Duration {
    Duration::from_micros((secs * 1_000_000.0).round() as u64)
}

/// One axis of the sweep: a parameter name and the values it takes.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Home parameter name (a `[base]` key).
    pub key: String,
    /// Values this axis sweeps over, in declaration order.
    pub values: Vec<Value>,
}

/// A parsed, validated fleet manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetManifest {
    /// Fleet name (labels reports).
    pub name: String,
    /// Fleet-level RNG seed; per-home seeds derive from it via
    /// [`derive_home_seed`].
    pub seed: u64,
    /// Replicated homes per axis permutation, each with a distinct
    /// derived seed.
    pub homes_per_config: usize,
    /// The `[base]` home configuration.
    pub base: HomeParams,
    /// Sweep axes in sorted key order.
    pub axes: Vec<Axis>,
}

/// One fully-resolved home: what a worker executes.
#[derive(Debug, Clone, PartialEq)]
pub struct HomeSpec {
    /// Stable index in `0..fleet_size`.
    pub home_index: u64,
    /// Seed derived as `derive_home_seed(fleet_seed, home_index)`.
    pub seed: u64,
    /// The resolved home parameters.
    pub params: HomeParams,
    /// `(axis key, value label)` pairs identifying this home's
    /// permutation, in sorted axis order.
    pub axis_values: Vec<(String, String)>,
}

impl fmt::Display for HomeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "home {:>6}  seed {:#018x}", self.home_index, self.seed)?;
        for (key, label) in &self.axis_values {
            write!(f, "  {key}={label}")?;
        }
        Ok(())
    }
}

impl FleetManifest {
    /// Parses a manifest from TOML-subset text.
    pub fn from_text(text: &str) -> Result<Self, ParseError> {
        let doc = parse(text)?;
        let known = |name: &str| doc.get(name).cloned().unwrap_or_default();
        for section in doc.keys() {
            if !matches!(section.as_str(), "fleet" | "base" | "axes") {
                return Err(ParseError {
                    message: format!("unknown section `[{section}]`"),
                });
            }
        }
        let fleet = known("fleet");
        let mut name = "fleet".to_owned();
        let mut seed = 0u64;
        let mut homes_per_config = 1usize;
        for (key, value) in &fleet {
            match key.as_str() {
                "name" => match value.as_str() {
                    Some(s) => name = s.to_owned(),
                    None => {
                        return Err(ParseError {
                            message: "`fleet.name` expects a string".into(),
                        })
                    }
                },
                "seed" => match value.as_u64() {
                    Some(v) => seed = v,
                    None => {
                        return Err(ParseError {
                            message: "`fleet.seed` expects a non-negative integer".into(),
                        })
                    }
                },
                "homes_per_config" => match value.as_u64() {
                    Some(v @ 1..) => homes_per_config = v as usize,
                    _ => {
                        return Err(ParseError {
                            message: "`fleet.homes_per_config` expects a positive integer".into(),
                        })
                    }
                },
                other => {
                    return Err(ParseError {
                        message: format!("unknown fleet setting `{other}`"),
                    })
                }
            }
        }

        let mut base = HomeParams::default();
        for (key, value) in &known("base") {
            base.set(key, value).map_err(|e| ParseError {
                message: format!("`base.{key}`: {}", e.message),
            })?;
        }

        // Axes live in a BTreeMap already, so iteration — and
        // therefore permutation order — is sorted by key regardless of
        // declaration order in the file.
        let mut axes = Vec::new();
        for (key, value) in &known("axes") {
            let Some(values) = value.as_array() else {
                return Err(ParseError {
                    message: format!("axis `{key}` expects an array of values"),
                });
            };
            if values.is_empty() {
                return Err(ParseError {
                    message: format!("axis `{key}` has no values"),
                });
            }
            // Duplicate axis values would replicate permutations under
            // distinct indices while claiming distinct configs.
            for (i, v) in values.iter().enumerate() {
                if values[..i].contains(v) {
                    return Err(ParseError {
                        message: format!("axis `{key}` repeats value `{}`", v.label()),
                    });
                }
            }
            // Reject unknown keys (and type errors) now, not per-home.
            let mut probe = base.clone();
            for (i, v) in values.iter().enumerate() {
                probe.set(key, v).map_err(|e| ParseError {
                    message: format!("`axes.{key}[{i}]`: {}", e.message),
                })?;
            }
            axes.push(Axis {
                key: key.clone(),
                values: values.to_vec(),
            });
        }

        let manifest = Self {
            name,
            seed,
            homes_per_config,
            base,
            axes,
        };
        // Validate every permutation eagerly: a manifest either
        // expands completely or not at all.
        for spec in manifest.expand()? {
            spec.params.validate()?;
        }
        Ok(manifest)
    }

    /// Number of axis permutations (before replication).
    #[must_use]
    pub fn config_count(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// Total homes the manifest expands into.
    #[must_use]
    pub fn fleet_size(&self) -> usize {
        self.config_count() * self.homes_per_config
    }

    /// Expands the manifest into its full, ordered home list.
    ///
    /// The order is canonical: permutations enumerate odometer-style
    /// over axes in sorted key order (last axis fastest), and each
    /// permutation's `homes_per_config` replicas are consecutive.
    /// `home_index` is the position in this order, so the expansion is
    /// deterministic, duplicate-free, and independent of both thread
    /// count and axis declaration order.
    pub fn expand(&self) -> Result<Vec<HomeSpec>, ParseError> {
        let mut specs = Vec::with_capacity(self.fleet_size());
        let mut home_index = 0u64;
        let mut cursor = vec![0usize; self.axes.len()];
        loop {
            let mut params = self.base.clone();
            let mut axis_values = Vec::with_capacity(self.axes.len());
            for (axis, &i) in self.axes.iter().zip(cursor.iter()) {
                params.set(&axis.key, &axis.values[i])?;
                axis_values.push((axis.key.clone(), axis.values[i].label()));
            }
            for _ in 0..self.homes_per_config {
                specs.push(HomeSpec {
                    home_index,
                    seed: derive_home_seed(self.seed, home_index),
                    params: params.clone(),
                    axis_values: axis_values.clone(),
                });
                home_index += 1;
            }
            // Odometer increment, last axis fastest.
            let mut pos = self.axes.len();
            loop {
                if pos == 0 {
                    return Ok(specs);
                }
                pos -= 1;
                cursor[pos] += 1;
                if cursor[pos] < self.axes[pos].values.len() {
                    break;
                }
                cursor[pos] = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = r#"
[fleet]
name = "unit"
seed = 42
homes_per_config = 3

[base]
processes = 5
rate_per_sec = 20
duration_secs = 5.0

[axes]
loss = [0.0, 0.1]
durable = [false, true]
"#;

    #[test]
    fn expansion_is_cartesian_times_replicas() {
        let m = FleetManifest::from_text(MANIFEST).unwrap();
        assert_eq!(m.config_count(), 4);
        assert_eq!(m.fleet_size(), 12);
        let specs = m.expand().unwrap();
        assert_eq!(specs.len(), 12);
        // Indices are contiguous and seeds all distinct.
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.home_index, i as u64);
            assert_eq!(s.seed, derive_home_seed(42, i as u64));
        }
        let mut seeds: Vec<u64> = specs.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 12, "derived seeds are unique");
        // Sorted axis order: durable before loss; last axis (loss)
        // cycles fastest.
        assert_eq!(specs[0].axis_values[0].0, "durable");
        assert_eq!(specs[0].axis_values[1], ("loss".into(), "0".into()));
        assert_eq!(specs[3].axis_values[1], ("loss".into(), "0.1".into()));
    }

    #[test]
    fn declaration_order_does_not_matter() {
        let swapped = MANIFEST.replace(
            "loss = [0.0, 0.1]\ndurable = [false, true]",
            "durable = [false, true]\nloss = [0.0, 0.1]",
        );
        assert_ne!(swapped, MANIFEST);
        let a = FleetManifest::from_text(MANIFEST).unwrap();
        let b = FleetManifest::from_text(&swapped).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.expand().unwrap(), b.expand().unwrap());
    }

    #[test]
    fn unknown_axis_key_is_rejected() {
        let bad = MANIFEST.replace("loss = [0.0, 0.1]", "wifi_quality = [0.0, 0.1]");
        let e = FleetManifest::from_text(&bad).unwrap_err();
        assert!(e.message.contains("wifi_quality"), "{e}");
    }

    #[test]
    fn base_errors_name_the_offending_key_path() {
        let bad = MANIFEST.replace("processes = 5", "procesess = 5");
        let e = FleetManifest::from_text(&bad).unwrap_err();
        assert!(e.message.contains("`base.procesess`"), "{e}");

        let bad = MANIFEST.replace("rate_per_sec = 20", "rate_per_sec = -20");
        let e = FleetManifest::from_text(&bad).unwrap_err();
        assert!(e.message.contains("`base.rate_per_sec`"), "{e}");

        // A removed knob is an unknown key like any other.
        let bad = MANIFEST.replace("processes = 5", "coalescing = true");
        let e = FleetManifest::from_text(&bad).unwrap_err();
        assert!(e.message.contains("`base.coalescing`"), "{e}");
        // The verdict is the checker's; the loss-model floor's margin
        // is refused by name.
        let bad = MANIFEST.replace("processes = 5", "min_delivered_fraction = 0.8");
        let e = FleetManifest::from_text(&bad).unwrap_err();
        assert!(
            e.message
                .contains("`base.min_delivered_fraction`: unknown home parameter"),
            "{e}"
        );
        // So is a removed `[fleet]` setting: `--threads` is the one way
        // to choose the worker count.
        let bad = MANIFEST.replace("homes_per_config = 3", "homes_per_config = 3\nthreads = 2");
        let e = FleetManifest::from_text(&bad).unwrap_err();
        assert!(e.message.contains("unknown fleet setting `threads`"), "{e}");
    }

    #[test]
    fn the_removed_ack_mode_key_is_rejected_in_base_and_axes() {
        let bad = MANIFEST.replace("processes = 5", "ack_mode = \"per_event\"");
        let e = FleetManifest::from_text(&bad).unwrap_err();
        assert!(
            e.message.contains("unknown home parameter `ack_mode`"),
            "{e}"
        );

        let bad = MANIFEST.replace(
            "durable = [false, true]",
            "ack_mode = [\"cumulative\", \"per_event\"]",
        );
        let e = FleetManifest::from_text(&bad).unwrap_err();
        assert!(
            e.message.contains("unknown home parameter `ack_mode`"),
            "{e}"
        );
    }

    #[test]
    fn axis_errors_name_the_offending_value_path() {
        // Second value of the loss axis is out of range: the error
        // must point at `axes.loss[1]`, not just "loss".
        let bad = MANIFEST.replace("loss = [0.0, 0.1]", "loss = [0.0, 1.5]");
        let e = FleetManifest::from_text(&bad).unwrap_err();
        assert!(e.message.contains("`axes.loss[1]`"), "{e}");
    }

    #[test]
    fn fault_params_parse_and_reach_the_scenario() {
        let text = r#"
[fleet]
name = "faulty"
seed = 7
homes_per_config = 1

[base]
fault_kind = "stuck"
fault_rate = 0.25
repair = true

[axes]
fault_rate = [0.0, 0.25, 0.5]
"#;
        let m = FleetManifest::from_text(text).unwrap();
        assert_eq!(m.base.fault_kind, Some(FaultKind::StuckAt));
        assert!(m.base.repair);
        let specs = m.expand().unwrap();
        assert_eq!(specs.len(), 3);
        let cfg = specs[1].params.to_scenario(specs[1].seed);
        assert_eq!(cfg.fault_kind, Some(FaultKind::StuckAt));
        assert!((cfg.fault_rate - 0.25).abs() < 1e-12);
        assert!(cfg.repair);

        // "none" clears an inherited kind.
        let cleared = text.replace("\"stuck\"", "\"none\"");
        let m = FleetManifest::from_text(&cleared).unwrap();
        assert_eq!(m.base.fault_kind, None);

        // Unknown kind and out-of-range rate are rejected with paths.
        let bad = text.replace("\"stuck\"", "\"gremlin\"");
        let e = FleetManifest::from_text(&bad).unwrap_err();
        assert!(e.message.contains("`base.fault_kind`"), "{e}");
        let bad = text.replace("[0.0, 0.25, 0.5]", "[0.0, 2.0]");
        let e = FleetManifest::from_text(&bad).unwrap_err();
        assert!(e.message.contains("`axes.fault_rate[1]`"), "{e}");
    }

    #[test]
    fn duplicate_axis_value_is_rejected() {
        let bad = MANIFEST.replace("loss = [0.0, 0.1]", "loss = [0.1, 0.1]");
        let e = FleetManifest::from_text(&bad).unwrap_err();
        assert!(e.message.contains("repeats"), "{e}");
    }

    #[test]
    fn crash_axis_requires_failover_capacity() {
        let bad = "[base]\nprocesses = 1\nreceivers = 1\ncrash_at_secs = 3.0\n";
        let e = FleetManifest::from_text(bad).unwrap_err();
        assert!(e.message.contains("fail over"), "{e}");
    }

    #[test]
    fn a_65_process_home_is_refused_by_name_of_the_limit() {
        let ok = "[base]\nprocesses = 64\nreceivers = 1\n";
        assert!(FleetManifest::from_text(ok).is_ok());
        let bad = "[base]\nprocesses = 65\nreceivers = 1\n";
        let e = FleetManifest::from_text(bad).unwrap_err();
        assert!(e.message.contains("home-size limit of 64"), "{e}");
    }

    #[test]
    fn scenario_reflects_params() {
        let p = HomeParams {
            processes: 4,
            receivers: 2,
            crash_at_secs: 3.5,
            loss: 0.25,
            ..HomeParams::default()
        };
        let cfg = p.to_scenario(99);
        assert_eq!(cfg.n_processes, 4);
        assert_eq!(cfg.receivers, vec![1, 2]);
        assert_eq!(cfg.crash_app_at, Some(Time::from_micros(3_500_000)));
        assert_eq!(cfg.seed, 99);
        assert!(cfg.obs, "fleet homes always record observability");
    }

    #[test]
    fn seed_derivation_is_pure_and_spread() {
        assert_eq!(derive_home_seed(7, 0), derive_home_seed(7, 0));
        assert_ne!(derive_home_seed(7, 0), derive_home_seed(7, 1));
        assert_ne!(derive_home_seed(7, 0), derive_home_seed(8, 0));
        // Low indices should not produce clustered seeds: check the
        // high byte varies across the first handful of homes.
        let high: Vec<u8> = (0..8)
            .map(|i| (derive_home_seed(1, i) >> 56) as u8)
            .collect();
        let mut uniq = high.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() >= 4, "high bytes too clustered: {high:?}");
    }
}
