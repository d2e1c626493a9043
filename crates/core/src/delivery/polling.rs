//! Coordinated polling of poll-based sensors (§4.1, Fig. 8).
//!
//! Poll-based sensors answer at most one request at a time and silently
//! drop the rest, so uncoordinated polling from several processes
//! wastes battery and produces failed polls. Rivulet coordinates
//! *without communication*: the `i`-th of `n` active sensor nodes polls
//! at offset `i·e/n` into each epoch of length `e`, and cancels its
//! poll if the epoch's event already arrived via event forwarding. In
//! the common case the sensor is polled exactly once per epoch.
//!
//! [`PollState`] tracks one process's schedule for one sensor. The
//! process actor owns the timers; this module owns the decisions.

use rand::rngs::StdRng;
use rand::Rng;
use rivulet_types::{Duration, SensorId};

/// How polls are scheduled within an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollStrategy {
    /// The paper's slotted schedule: node `i` polls at `i·e/n`, with
    /// re-polls on poll failure. Used by Gapless delivery.
    Coordinated,
    /// The Fig. 8 baseline: every node polls once, uniformly at random
    /// within the epoch (still cancelling if the event arrives first).
    Uncoordinated,
    /// Gap delivery: only the designated node polls, at epoch start,
    /// without retries — optimal overhead, no fault tolerance (§4.2).
    GapSingle,
}

/// The polling plan for one sensor input.
#[derive(Debug, Clone, PartialEq)]
pub struct PollPlan {
    /// The sensor to poll.
    pub sensor: SensorId,
    /// Application epoch length (`e`): one event required per epoch.
    pub epoch: Duration,
    /// The sensor's nominal time to answer a poll, used to time
    /// re-polls.
    pub poll_latency: Duration,
    /// Scheduling strategy.
    pub strategy: PollStrategy,
}

/// One process's polling schedule state for one sensor.
#[derive(Debug)]
pub struct PollState {
    plan: PollPlan,
    /// This process's slot index among the sensor's active sensor
    /// nodes (sorted order), and the total count `n`.
    slot: usize,
    n_nodes: usize,
    current_epoch: u64,
    satisfied: bool,
}

impl PollState {
    /// Creates the schedule for a process occupying `slot` of
    /// `n_nodes` active sensor nodes.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= n_nodes` or `n_nodes == 0`.
    #[must_use]
    pub fn new(plan: PollPlan, slot: usize, n_nodes: usize) -> Self {
        assert!(n_nodes > 0, "at least one active sensor node");
        assert!(slot < n_nodes, "slot must index the node set");
        Self {
            plan,
            slot,
            n_nodes,
            current_epoch: 0,
            satisfied: false,
        }
    }

    /// The plan being executed.
    #[must_use]
    pub fn plan(&self) -> &PollPlan {
        &self.plan
    }

    /// The epoch currently in progress.
    #[must_use]
    pub fn current_epoch(&self) -> u64 {
        self.current_epoch
    }

    /// A new epoch begins. Returns the delay from epoch start at which
    /// this process should attempt its poll, or `None` if it should not
    /// poll this epoch (`GapSingle` non-designates pass
    /// `participates = false`).
    pub fn on_epoch_start(
        &mut self,
        epoch: u64,
        participates: bool,
        rng: &mut StdRng,
    ) -> Option<Duration> {
        self.current_epoch = epoch;
        self.satisfied = false;
        if !participates {
            return None;
        }
        match self.plan.strategy {
            PollStrategy::Coordinated => {
                let offset = self.plan.epoch.as_micros() * self.slot as u64 / self.n_nodes as u64;
                Some(Duration::from_micros(offset))
            }
            PollStrategy::Uncoordinated => {
                // Uniform within the epoch, leaving room for the answer.
                let span = self
                    .plan
                    .epoch
                    .as_micros()
                    .saturating_sub(self.plan.poll_latency.as_micros())
                    .max(1);
                Some(Duration::from_micros(rng.gen_range(0..span)))
            }
            PollStrategy::GapSingle => Some(Duration::ZERO),
        }
    }

    /// The slot timer fired. Returns `true` if a poll request should be
    /// sent now. Coordinated and Gap polls are cancelled when the
    /// epoch's event already arrived via forwarding (the paper's
    /// cancellation rule); the uncoordinated baseline polls
    /// unconditionally, exactly as §8.5 describes ("each process issues
    /// one poll request uniformly randomly within each epoch").
    pub fn on_slot(&self) -> bool {
        !self.satisfied || self.plan.strategy == PollStrategy::Uncoordinated
    }

    /// An event for `epoch` reached this process (own poll response or
    /// ring/broadcast forwarding). Returns `true` if the caller should
    /// cancel pending poll timers — never for the uncoordinated
    /// baseline, which by definition polls unconditionally (§8.5).
    pub fn on_event(&mut self, epoch: u64) -> bool {
        if epoch == self.current_epoch && !self.satisfied {
            self.satisfied = true;
            return self.plan.strategy != PollStrategy::Uncoordinated;
        }
        false
    }

    /// The re-poll timer fired (armed `poll_latency + margin` after a
    /// poll). Returns `true` if the poll should be retried — only the
    /// coordinated strategy retries (§4.1's "failed poll requests
    /// requiring re-polling").
    pub fn on_repoll(&self) -> bool {
        !self.satisfied && self.plan.strategy == PollStrategy::Coordinated
    }

    /// The epoch ended. Returns `true` if no event arrived (a gap that
    /// Gapless surfaces to the app as an exception of §4.1).
    pub fn on_epoch_end(&self) -> bool {
        !self.satisfied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn plan(strategy: PollStrategy) -> PollPlan {
        PollPlan {
            sensor: SensorId(1),
            epoch: Duration::from_millis(1_800),
            poll_latency: Duration::from_millis(600),
            strategy,
        }
    }

    #[test]
    fn coordinated_slots_are_evenly_spaced() {
        let mut rng = StdRng::seed_from_u64(0);
        for (slot, expect_ms) in [(0usize, 0u64), (1, 600), (2, 1_200)] {
            let mut s = PollState::new(plan(PollStrategy::Coordinated), slot, 3);
            let offset = s.on_epoch_start(0, true, &mut rng).expect("participates");
            assert_eq!(offset, Duration::from_millis(expect_ms), "slot {slot}");
        }
    }

    #[test]
    fn uncoordinated_offsets_are_random_within_epoch() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = PollState::new(plan(PollStrategy::Uncoordinated), 0, 3);
        let mut offsets = Vec::new();
        for epoch in 0..100 {
            let off = s
                .on_epoch_start(epoch, true, &mut rng)
                .expect("participates");
            assert!(off < Duration::from_millis(1_800));
            offsets.push(off);
        }
        offsets.sort();
        assert!(offsets.first() != offsets.last(), "offsets must vary");
    }

    #[test]
    fn gap_single_polls_at_epoch_start_only_if_designated() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = PollState::new(plan(PollStrategy::GapSingle), 0, 3);
        assert_eq!(s.on_epoch_start(0, true, &mut rng), Some(Duration::ZERO));
        assert_eq!(s.on_epoch_start(1, false, &mut rng), None);
    }

    #[test]
    fn event_arrival_cancels_slot_poll() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = PollState::new(plan(PollStrategy::Coordinated), 1, 3);
        let _ = s.on_epoch_start(5, true, &mut rng);
        assert!(s.on_event(5), "first event satisfies the epoch");
        assert!(!s.on_slot(), "slot cancelled by forwarding");
        assert!(!s.on_event(5), "duplicate event ignored");
    }

    #[test]
    fn stale_epoch_event_does_not_satisfy() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut s = PollState::new(plan(PollStrategy::Coordinated), 0, 3);
        let _ = s.on_epoch_start(5, true, &mut rng);
        assert!(!s.on_event(4), "late event from a previous epoch");
        assert!(s.on_slot(), "still must poll");
    }

    #[test]
    fn repoll_only_for_coordinated_and_unsatisfied() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut c = PollState::new(plan(PollStrategy::Coordinated), 0, 3);
        let _ = c.on_epoch_start(0, true, &mut rng);
        assert!(c.on_slot());
        assert!(c.on_repoll(), "no answer yet: retry");
        assert!(c.on_event(0));
        assert!(!c.on_repoll(), "satisfied: stop");

        let mut u = PollState::new(plan(PollStrategy::Uncoordinated), 0, 3);
        let _ = u.on_epoch_start(0, true, &mut rng);
        assert!(u.on_slot());
        assert!(!u.on_repoll(), "uncoordinated never retries");

        let mut g = PollState::new(plan(PollStrategy::GapSingle), 0, 1);
        let _ = g.on_epoch_start(0, true, &mut rng);
        assert!(g.on_slot());
        assert!(!g.on_repoll(), "gap never retries");
    }

    #[test]
    fn epoch_end_counts_misses() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut s = PollState::new(plan(PollStrategy::Coordinated), 0, 3);
        let _ = s.on_epoch_start(0, true, &mut rng);
        assert!(s.on_epoch_end(), "no event: miss");
        let _ = s.on_epoch_start(1, true, &mut rng);
        assert!(s.on_event(1));
        assert!(!s.on_epoch_end());
    }

    #[test]
    #[should_panic(expected = "slot must index the node set")]
    fn bad_slot_panics() {
        let _ = PollState::new(plan(PollStrategy::Coordinated), 3, 3);
    }
}
