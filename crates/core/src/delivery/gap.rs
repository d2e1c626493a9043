//! The Gap chain protocol (§4.2).
//!
//! Gap delivery is best-effort and deliberately cheap: for each sensor,
//! the sensor nodes form a logical chain, and only the active sensor
//! node **closest to the active logic node** forwards events; every
//! other receiving process simply discards them. Link losses at the
//! forwarder and crash-detection windows translate directly into gaps
//! in the application's event stream — the trade-off Table 1 apps
//! accept in exchange for near-zero overhead.

use rivulet_types::{ProcSet, ProcessId};

/// Decides which process should forward a sensor's events to the
/// application-bearing process, per the Gap chain rule.
///
/// * `chain` — the app's process chain in placement order (§7);
///   position 0 is the preferred application host.
/// * `reachers` — processes with an *active* sensor node for this
///   sensor (they can hear the physical sensor).
/// * `alive` — liveness predicate from the caller's local view.
/// * `active_logic` — the process currently believed to host the
///   active logic node.
///
/// Returns the live reacher closest to `active_logic` in chain
/// distance, ties broken toward the front of the chain. Returns `None`
/// when no live process can reach the sensor.
#[must_use]
pub fn forwarder(
    chain: &[ProcessId],
    reachers: ProcSet,
    alive: impl Fn(ProcessId) -> bool,
    active_logic: ProcessId,
) -> Option<ProcessId> {
    let pos = |p: ProcessId| chain.iter().position(|c| *c == p);
    let logic_pos = pos(active_logic)?;
    reachers
        .iter()
        .filter(|p| alive(*p))
        .filter_map(|p| pos(p).map(|i| (i, p)))
        .min_by_key(|(i, _)| (i.abs_diff(logic_pos), *i))
        .map(|(_, p)| p)
}

/// Decides which process sends a Gapless event's **express copy**
/// straight to the application-bearing process `host` (the process
/// [`forwarder`] would forward a Gap event to), so delivery does not
/// wait for the ring to walk there, and which processes that copy
/// marks as seen.
///
/// * `view` — the caller's local view: the live processes, in ring
///   order when walked by ascending id, cyclically.
/// * `reachers` — processes that can hear the physical sensor; one
///   outside `view` is suspected and skipped.
///
/// Returns the sender and the copy's `S`. The sender is the first live
/// reacher after `host` in ring order: the arc its ordinary token covers
/// on the way to `host` contains every other reacher, so the half-ring
/// `host` starts ends at that sender and an event costs n messages
/// whatever the reacher layout. `S` is that arc: the sender and the view
/// members strictly between it and `host`, never `host`.
/// Returns `None` when `host` or its ring predecessor is a live reacher
/// — the event is at most one hop away already, and a copy would only
/// race the ordinary forward — and when `host` is not in `view`.
#[must_use]
pub fn express_sender(
    view: ProcSet,
    reachers: ProcSet,
    host: ProcessId,
) -> Option<(ProcessId, ProcSet)> {
    if !view.contains(host) || reachers.contains(host) {
        return None;
    }
    if reachers.contains(view.predecessor_of(host)?) {
        return None;
    }
    let sender = reachers.intersection(view).successor_of(host)?;
    let mut arc = ProcSet::EMPTY;
    let mut at = sender;
    while at != host {
        arc.insert(at);
        at = view.successor_of(at)?;
    }
    Some((sender, arc))
}

/// What a process holding a freshly received Gap event should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapRole {
    /// This process hosts the active logic node: deliver locally.
    DeliverLocally,
    /// This process is the designated forwarder: send a
    /// [`crate::messages::ProcMsg::GapForward`] to the given process.
    ForwardTo(ProcessId),
    /// Another process is responsible: discard the event.
    Discard,
}

/// Computes the role of process `me` for an event it just received from
/// the physical sensor.
#[must_use]
pub fn role_of(
    me: ProcessId,
    chain: &[ProcessId],
    reachers: ProcSet,
    alive: impl Fn(ProcessId) -> bool,
    active_logic: ProcessId,
) -> GapRole {
    if me == active_logic {
        return GapRole::DeliverLocally;
    }
    match forwarder(chain, reachers, alive, active_logic) {
        Some(f) if f == me => GapRole::ForwardTo(active_logic),
        _ => GapRole::Discard,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pids(ids: &[u32]) -> Vec<ProcessId> {
        ids.iter().map(|i| ProcessId(*i)).collect()
    }

    fn set(ids: &[u32]) -> ProcSet {
        ids.iter().map(|i| ProcessId(*i)).collect()
    }

    const ALL_ALIVE: fn(ProcessId) -> bool = |_| true;

    #[test]
    fn express_sender_is_the_first_live_reacher_after_a_far_host() {
        let ring = set(&[0, 1, 2, 3, 4]);
        let without_2 = set(&[0, 1, 3, 4]);
        let sender = |view: ProcSet, reachers: &[u32], host: u32| {
            express_sender(view, set(reachers), ProcessId(host)).map(|(p, _)| p.0)
        };
        let arc = |view: ProcSet, reachers: &[u32], host: u32| {
            express_sender(view, set(reachers), ProcessId(host)).map(|(_, seen)| seen)
        };
        assert_eq!(sender(ring, &[0, 2], 0), None, "the host hears the sensor");
        assert_eq!(sender(ring, &[2, 4], 0), None, "its ring predecessor does");
        assert_eq!(sender(ring, &[1], 2), None, "predecessor, mid-ring host");
        assert_eq!(sender(ring, &[1], 0), Some(1), "farthest from the host");
        assert_eq!(
            sender(ring, &[2, 3], 0),
            Some(2),
            "two far reachers, one sender"
        );
        assert_eq!(
            sender(ring, &[3, 2], 0),
            Some(2),
            "whatever the listing order"
        );
        assert_eq!(sender(ring, &[0, 1], 3), Some(0), "ring order wraps around");
        assert_eq!(
            sender(without_2, &[2, 3], 0),
            Some(3),
            "suspected reacher skipped"
        );
        assert_eq!(sender(without_2, &[1], 2), None, "host outside the view");
        assert_eq!(sender(ring, &[], 0), None, "nobody hears the sensor");
        // The copy's S: the sender and everyone strictly between it and
        // the host, sorted — never the host, and wrapping with the ring.
        assert_eq!(arc(ring, &[1], 4), Some(set(&[1, 2, 3])));
        assert_eq!(arc(ring, &[2, 3], 0), Some(set(&[2, 3, 4])));
        assert_eq!(arc(ring, &[3], 1), Some(set(&[0, 3, 4])));
        assert_eq!(arc(without_2, &[1], 4), Some(set(&[1, 3])));
        assert_eq!(sender(set(&[0]), &[0], 0), None, "alone");
    }

    #[test]
    fn closest_reacher_forwards() {
        // Paper's Fig. 2 example: chain hub(0), TV(1), fridge(2); the
        // door sensor reaches TV and fridge; logic is active at hub.
        // TV (distance 1) forwards; fridge discards.
        let chain = pids(&[0, 1, 2]);
        let reachers = set(&[1, 2]);
        assert_eq!(
            forwarder(&chain, reachers, ALL_ALIVE, ProcessId(0)),
            Some(ProcessId(1))
        );
        assert_eq!(
            role_of(ProcessId(1), &chain, reachers, ALL_ALIVE, ProcessId(0)),
            GapRole::ForwardTo(ProcessId(0))
        );
        assert_eq!(
            role_of(ProcessId(2), &chain, reachers, ALL_ALIVE, ProcessId(0)),
            GapRole::Discard
        );
    }

    #[test]
    fn app_host_reaching_sensor_delivers_locally() {
        let chain = pids(&[0, 1, 2]);
        let reachers = set(&[0, 1]);
        assert_eq!(
            role_of(ProcessId(0), &chain, reachers, ALL_ALIVE, ProcessId(0)),
            GapRole::DeliverLocally
        );
        // And the forwarder computation also picks it (distance 0).
        assert_eq!(
            forwarder(&chain, reachers, ALL_ALIVE, ProcessId(0)),
            Some(ProcessId(0))
        );
    }

    #[test]
    fn forwarder_failover_moves_down_the_chain() {
        let chain = pids(&[0, 1, 2]);
        let reachers = set(&[1, 2]);
        // TV (p1) crashed: fridge becomes closest live reacher.
        let alive = |p: ProcessId| p != ProcessId(1);
        assert_eq!(
            forwarder(&chain, reachers, alive, ProcessId(0)),
            Some(ProcessId(2))
        );
        assert_eq!(
            role_of(ProcessId(2), &chain, reachers, alive, ProcessId(0)),
            GapRole::ForwardTo(ProcessId(0))
        );
    }

    #[test]
    fn tie_breaks_toward_chain_front() {
        // Logic at position 1; reachers at positions 0 and 2 are
        // equidistant — the earlier chain position wins.
        let chain = pids(&[10, 11, 12]);
        let reachers = set(&[10, 12]);
        assert_eq!(
            forwarder(&chain, reachers, ALL_ALIVE, ProcessId(11)),
            Some(ProcessId(10))
        );
    }

    #[test]
    fn no_live_reacher_means_nobody_forwards() {
        let chain = pids(&[0, 1, 2]);
        let reachers = set(&[1, 2]);
        let alive = |p: ProcessId| p == ProcessId(0);
        assert_eq!(forwarder(&chain, reachers, alive, ProcessId(0)), None);
        assert_eq!(
            role_of(ProcessId(1), &chain, reachers, alive, ProcessId(0)),
            GapRole::Discard
        );
    }

    #[test]
    fn unknown_logic_process_yields_none() {
        let chain = pids(&[0, 1]);
        assert_eq!(forwarder(&chain, set(&[0]), ALL_ALIVE, ProcessId(9)), None);
    }

    #[test]
    fn reacher_outside_chain_is_ignored() {
        let chain = pids(&[0, 1]);
        let reachers = set(&[5]);
        assert_eq!(forwarder(&chain, reachers, ALL_ALIVE, ProcessId(0)), None);
    }
}
