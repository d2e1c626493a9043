//! Platform configuration.

use rivulet_types::Duration;

/// How Gapless replicates ingested events across processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardingMode {
    /// The paper's ring protocol with reliable-broadcast fallback
    /// (§4.1): n messages in the failure-free case.
    Ring,
    /// The Fig. 5 baseline: every process that receives an event from
    /// the sensor broadcasts it to all peers unless it already received
    /// it from another process — O(m·n) messages for m receivers.
    EagerBroadcast,
}

/// Tunable parameters of a Rivulet process.
///
/// Defaults follow the paper's evaluation setup: a 2-second
/// failure-detection threshold (§8.4), against keep-alives every
/// [`KEEPALIVE_INTERVAL`](crate::membership::KEEPALIVE_INTERVAL).
#[derive(Debug, Clone, PartialEq)]
pub struct RivuletConfig {
    /// Silence threshold after which a peer is suspected crashed. The
    /// evaluation uses 2 s, producing the ~20-event gap of Fig. 7.
    pub failure_timeout: Duration,
    /// Gapless replication protocol (ring, or the broadcast baseline
    /// used for the Fig. 5 comparison).
    pub forwarding: ForwardingMode,
    /// Master switch for the device-fault detection + repair layer
    /// (per-sensor health models, outlier substitution, quarantine,
    /// stall re-polls). **Off by default**: with repair disabled the
    /// runtime allocates no health state and writes no `repair.*`
    /// counters, and runs are bit-identical to pre-repair builds.
    pub repair: bool,
    /// Master switch for the routine execution engine (all-or-nothing
    /// multi-actuator command sequences, staged two-phase against the
    /// hash-chained execution-integrity ledger). **Off by default**:
    /// with routines disabled the runtime allocates no routine state,
    /// writes no `routine.*`/`ledger.*` counters, and runs are
    /// bit-identical to pre-routine builds.
    pub routines: bool,
    /// How long the routine coordinator waits for every staged step to
    /// be acknowledged before aborting the firing and compensating.
    pub routine_stage_timeout: Duration,
    /// Seed of the execution-integrity ledger's genesis hash. Fleet
    /// runs derive it per home so chains from different homes can never
    /// be spliced together.
    pub routine_ledger_seed: u64,
}

impl Default for RivuletConfig {
    fn default() -> Self {
        Self {
            failure_timeout: Duration::from_secs(2),
            forwarding: ForwardingMode::Ring,
            repair: false,
            routines: false,
            routine_stage_timeout: Duration::from_secs(2),
            routine_ledger_seed: 0,
        }
    }
}

impl RivuletConfig {
    /// Returns a config with the failure-detection threshold replaced.
    #[must_use]
    pub fn with_failure_timeout(mut self, timeout: Duration) -> Self {
        self.failure_timeout = timeout;
        self
    }

    /// Returns a config with the Gapless forwarding mode replaced.
    #[must_use]
    pub fn with_forwarding(mut self, mode: ForwardingMode) -> Self {
        self.forwarding = mode;
        self
    }

    /// Returns a config with the fault detection + repair layer
    /// enabled or disabled.
    #[must_use]
    pub fn with_repair(mut self, enabled: bool) -> Self {
        self.repair = enabled;
        self
    }

    /// Returns a config with the routine execution engine enabled or
    /// disabled.
    #[must_use]
    pub fn with_routines(mut self, enabled: bool) -> Self {
        self.routines = enabled;
        self
    }

    /// Returns a config with the routine staging timeout replaced.
    ///
    /// # Panics
    ///
    /// Panics if `timeout` is zero (a firing could never stage).
    #[must_use]
    pub fn with_routine_stage_timeout(mut self, timeout: Duration) -> Self {
        assert!(timeout > Duration::ZERO, "stage timeout must be positive");
        self.routine_stage_timeout = timeout;
        self
    }

    /// Returns a config with the ledger genesis seed replaced.
    #[must_use]
    pub fn with_routine_ledger_seed(mut self, seed: u64) -> Self {
        self.routine_ledger_seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = RivuletConfig::default();
        assert_eq!(c.failure_timeout, Duration::from_secs(2));
        assert!(!c.repair, "repair layer is opt-in");
        assert!(!c.routines, "routine engine is opt-in");
        assert!(c.routine_stage_timeout > Duration::ZERO);
        assert_eq!(c.routine_ledger_seed, 0);
    }

    #[test]
    fn routine_builders() {
        let c = RivuletConfig::default()
            .with_routines(true)
            .with_routine_stage_timeout(Duration::from_millis(750))
            .with_routine_ledger_seed(42);
        assert!(c.routines);
        assert_eq!(c.routine_stage_timeout, Duration::from_millis(750));
        assert_eq!(c.routine_ledger_seed, 42);
    }

    #[test]
    #[should_panic(expected = "stage timeout must be positive")]
    fn zero_stage_timeout_panics() {
        let _ = RivuletConfig::default().with_routine_stage_timeout(Duration::ZERO);
    }

    #[test]
    fn builder_overrides() {
        let c = RivuletConfig::default().with_failure_timeout(Duration::from_secs(5));
        assert_eq!(c.failure_timeout, Duration::from_secs(5));
    }
}
