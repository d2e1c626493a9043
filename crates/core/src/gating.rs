//! Durability gating: the adaptive group-commit bound.
//!
//! A process appends `Deliver` events to the WAL and holds *all*
//! resulting actions back, in arrival order, until the append is
//! durable (`process::apply_actions_durably`). [`AdaptiveGate`] bounds
//! how many may wait before the process forces a flush. A fixed bound
//! stalls bursty workloads (every burst larger than the cap pays a
//! forced flush) and over-delays sparse ones, so the gate grows the
//! bound multiplicatively when bursts force flushes and shrinks it when
//! flushes fire at low depth, following the adaptive group-commit
//! argument of the user-space WAL literature: batch size should track
//! observed arrival pressure, not a constant.

/// The bound a process's gate starts from ([`AdaptiveGate::default`]).
const GATE_INITIAL: usize = 512;
/// Multiplicative step for [`AdaptiveGate`] growth and shrink.
const GATE_STEP: usize = 2;
/// The bound grows to at most `initial × GATE_MAX_FACTOR`.
const GATE_MAX_FACTOR: usize = 16;

/// Adaptive bound on how many actions may gate behind un-flushed WAL
/// appends before the process forces a group commit.
///
/// Policy (multiplicative-increase / multiplicative-decrease):
///
/// * A **forced flush** means the burst outran the bound — the bound
///   doubles (capped at `initial × 16`) so the next burst batches
///   more per fsync.
/// * An **idle flush** (timer/backstop) at depth below a quarter of
///   the bound means the workload no longer fills batches — the bound
///   halves (floored at 1) so a later trickle isn't held hostage to a
///   burst-sized batch.
#[derive(Debug, Clone)]
pub struct AdaptiveGate {
    bound: usize,
    initial: usize,
    /// Forced flushes observed (bursts that hit the bound).
    pub forced: u64,
}

impl Default for AdaptiveGate {
    fn default() -> Self {
        Self::new(GATE_INITIAL)
    }
}

impl AdaptiveGate {
    /// Creates a gate starting at `initial` (clamped to ≥ 1).
    #[must_use]
    pub fn new(initial: usize) -> Self {
        let initial = initial.max(1);
        Self {
            bound: initial,
            initial,
            forced: 0,
        }
    }

    /// The current group-commit bound. Never below 1.
    #[must_use]
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Records that the gated queue hit the bound and a flush was
    /// forced; grows the bound.
    pub fn on_forced_flush(&mut self) {
        self.forced += 1;
        let max = self.initial.saturating_mul(GATE_MAX_FACTOR);
        self.bound = self.bound.saturating_mul(GATE_STEP).min(max);
    }

    /// Records a flush that fired without back-pressure (timer tick,
    /// checkpoint, policy trigger) at the given gated depth; shrinks
    /// the bound when the batch ran well under it.
    pub fn on_idle_flush(&mut self, depth: usize) {
        if depth < (self.bound / 4).max(1) {
            self.bound = (self.bound / GATE_STEP).max(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_grows_under_burst() {
        let mut gate = AdaptiveGate::new(8);
        assert_eq!(gate.bound(), 8);
        gate.on_forced_flush();
        assert_eq!(gate.bound(), 16);
        for _ in 0..20 {
            gate.on_forced_flush();
        }
        assert_eq!(gate.bound(), 8 * 16, "growth caps at initial × 16");
        assert_eq!(gate.forced, 21);
    }

    #[test]
    fn gate_shrinks_when_idle_never_below_one() {
        let mut gate = AdaptiveGate::new(8);
        for _ in 0..3 {
            gate.on_forced_flush();
        }
        assert_eq!(gate.bound(), 64);
        // Idle flushes at low depth walk the bound back down.
        for _ in 0..20 {
            gate.on_idle_flush(0);
        }
        assert_eq!(gate.bound(), 1, "shrink floors at 1, never 0");
        // A deep idle flush does not shrink.
        let mut gate = AdaptiveGate::new(8);
        gate.on_forced_flush();
        gate.on_idle_flush(15); // 15 ≥ 16/4
        assert_eq!(gate.bound(), 16);
    }

    #[test]
    fn zero_initial_clamps_to_one() {
        let gate = AdaptiveGate::new(0);
        assert_eq!(gate.bound(), 1);
    }
}
