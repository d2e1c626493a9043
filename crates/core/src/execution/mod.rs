//! Fault-tolerant execution of logic nodes (§5).
//!
//! Rivulet runs each application's logic node actively on one process
//! (the primary) and as shadows everywhere else, using a variant of the
//! bully election over a deterministic chain: the live process earliest
//! in the chain is active; shadows promote themselves when every
//! earlier process is suspected crashed, and demote when an earlier
//! one recovers. During a full partition each side's best process
//! promotes — acceptable for idempotent actuations, and guarded by
//! `Test&Set` for non-idempotent ones (see
//! [`rivulet_devices::actuator`]).

pub mod placement;

use rivulet_types::ProcessId;

/// The process that should run the active logic node, per the caller's
/// local view: the first live process in the chain. Returns `None` for
/// an empty chain or when every chain member is suspected (the caller,
/// if in the chain, always sees itself alive, so a chain member never
/// gets `None` for its own app).
#[must_use]
pub fn active_logic(chain: &[ProcessId], alive: impl Fn(ProcessId) -> bool) -> Option<ProcessId> {
    chain.iter().copied().find(|p| alive(*p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pids(ids: &[u32]) -> Vec<ProcessId> {
        ids.iter().map(|i| ProcessId(*i)).collect()
    }

    #[test]
    fn first_live_chain_member_is_active() {
        let chain = pids(&[2, 0, 1]);
        assert_eq!(active_logic(&chain, |_| true), Some(ProcessId(2)));
        assert_eq!(
            active_logic(&chain, |p| p != ProcessId(2)),
            Some(ProcessId(0))
        );
        assert_eq!(active_logic(&chain, |_| false), None);
        assert_eq!(active_logic(&[], |_| true), None);
    }
}
