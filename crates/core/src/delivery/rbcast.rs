//! Reliable broadcast — the Gapless fallback (§4.1) — and replication
//! tracking for broadcast-free paths.
//!
//! When the ring detects that an event stalled before reaching every
//! process, the detecting process floods it: send to every peer in the
//! local view and retransmit until each acknowledges or leaves the
//! view. Receivers that see the event for the first time re-broadcast
//! once themselves (eager reliable broadcast in the crash-recovery
//! model, after Boichat & Guerraoui), which tolerates the origin
//! crashing mid-broadcast.
//!
//! Beyond the flood fallback, the same pending machinery tracks
//! *ring-origin replication* ([`RbcastState::track`]): the ingesting
//! process registers every fresh event against its peers without
//! sending anything extra (the ring itself carries the event), and the
//! peers' [`Holdings`] — piggybacked on their keep-alive beacons —
//! retire the entries. An entry that outlives its
//! grace period means the ring (plus anti-entropy) silently failed to
//! replicate the event, and the origin falls back to a flood. This
//! closes the window where a ring message dies on a crashed hop and no
//! surviving process ever meets the paper's stall condition.
//!
//! The pending entries are sharded by sensor, each shard a deque sorted
//! by `seq`: events are tracked almost in `seq` order and cumulative
//! acks retire from the prefix up to a peer's highest held `seq`, so
//! tracking is a push at the back and retirement costs the entries
//! actually covered rather than the total backlog.

use std::collections::{BTreeMap, VecDeque};

use rivulet_types::{Duration, Event, ProcSet, ProcessId, SensorId, Time};

use crate::holdings::{self, Holdings};
use crate::membership::KEEPALIVE_INTERVAL;
use crate::messages::ProcMsg;
use crate::store::{locate, release_slack};

use super::Action;

/// Pause between reliable-broadcast retransmissions of an
/// unacknowledged event: one keep-alive interval, so cumulative
/// acknowledgement costs at most one redundant retransmission.
pub const RETRANSMIT_INTERVAL: Duration = KEEPALIVE_INTERVAL;

/// One process's reliable-broadcast state.
#[derive(Debug)]
pub struct RbcastState {
    me: ProcessId,
    /// Broadcasts this process originated (or relayed) and ring-origin
    /// replication entries that still await acknowledgements, sharded
    /// by sensor, each shard sorted by `seq`. Ordered so retransmission
    /// order is a pure function of protocol state (determinism). A
    /// shard that empties stays for the next entry; retirement hands
    /// back a buffer it leaves under a quarter full.
    pending: BTreeMap<SensorId, VecDeque<PendingBroadcast>>,
    /// Total entries across all sensors (kept so `pending_count` stays
    /// O(1) despite the sharding).
    n_pending: usize,
    /// Pause before re-flooding an explicit broadcast.
    retransmit_after: Duration,
    /// Pause before a tracked (ring-origin) entry escalates to a flood;
    /// sized so that healthy keep-alive retirement always wins.
    track_grace: Duration,
}

#[derive(Debug)]
struct PendingBroadcast {
    event: Event,
    unacked: ProcSet,
    /// Do not retransmit before this instant (age guard: cumulative
    /// retirement via keep-alives must get a chance first).
    retransmit_at: Time,
}

impl PendingBroadcast {
    fn seq(&self) -> u64 {
        self.event.id.seq
    }
}

impl RbcastState {
    /// Creates broadcast state for process `me` with zero retransmit
    /// delays (every tick retransmits — the eager behaviour unit tests
    /// rely on). Production callers use [`RbcastState::with_timing`].
    #[must_use]
    pub fn new(me: ProcessId) -> Self {
        Self {
            me,
            pending: BTreeMap::new(),
            n_pending: 0,
            retransmit_after: Duration::ZERO,
            track_grace: Duration::ZERO,
        }
    }

    /// Sets the retransmission pacing: `retransmit_after` between flood
    /// retries, `track_grace` before a tracked ring-origin entry first
    /// escalates to a flood.
    #[must_use]
    pub fn with_timing(mut self, retransmit_after: Duration, track_grace: Duration) -> Self {
        self.retransmit_after = retransmit_after;
        self.track_grace = track_grace;
        self
    }

    /// Number of broadcasts still awaiting acknowledgements.
    #[must_use]
    pub fn pending_count(&self) -> usize {
        self.n_pending
    }

    /// Adds the entry for `event`, replacing one already pending for it.
    fn insert_pending(&mut self, event: Event, unacked: ProcSet, retransmit_at: Time) {
        let shard = self.pending.entry(event.id.sensor).or_default();
        let entry = PendingBroadcast {
            event,
            unacked,
            retransmit_at,
        };
        match locate(shard, entry.seq(), PendingBroadcast::seq) {
            Ok(i) => shard[i] = entry,
            Err(i) => {
                shard.insert(i, entry);
                self.n_pending += 1;
            }
        }
    }

    /// Initiates (or re-initiates) a broadcast of `event` to every peer
    /// in `view` except `me`, as a single encode-once fan-out action
    /// (none when `view` holds no peer).
    pub fn start(&mut self, event: Event, view: ProcSet, now: Time) -> Option<Action> {
        let peers = view.without(self.me);
        if peers.is_empty() {
            return None;
        }
        let flood = Action::Fanout {
            to: peers,
            msg: ProcMsg::Broadcast {
                event: event.clone(),
                origin: self.me,
            },
        };
        self.insert_pending(event, peers, now + self.retransmit_after);
        Some(flood)
    }

    /// Registers `event` for replication tracking *without* sending
    /// anything: the ring already carries it. Peers acknowledge through
    /// the holdings on their keep-alives; an entry still unacked after
    /// the track grace period is re-flooded by [`RbcastState::on_tick`]
    /// (the silent-stall fallback).
    pub fn track(&mut self, event: Event, view: ProcSet, now: Time) {
        if self
            .pending
            .get(&event.id.sensor)
            .is_some_and(|shard| locate(shard, event.id.seq, PendingBroadcast::seq).is_ok())
        {
            return; // already pending (e.g. an explicit flood)
        }
        let peers = view.without(self.me);
        if peers.is_empty() {
            return;
        }
        self.insert_pending(event, peers, now + self.track_grace);
    }

    /// A broadcast copy arrived. The receipt itself is acknowledged by
    /// the holdings on our next keep-alive beacon, so the only thing to
    /// send is a relay: if `was_new` — the replica store's
    /// insert verdict, true for the first copy only — a flood of our own
    /// makes delivery survive origin crashes (pass an empty `view` to
    /// suppress relaying — the eager baseline floods only from the
    /// origin).
    pub fn on_broadcast(
        &mut self,
        event: &Event,
        was_new: bool,
        view: ProcSet,
        now: Time,
    ) -> Option<Action> {
        if was_new {
            self.start(event.clone(), view, now)
        } else {
            None
        }
    }

    /// A peer's holdings arrived (piggybacked on its keep-alive). Every
    /// pending broadcast whose event the peer holds is acknowledged at
    /// once — one beacon retires arbitrarily many entries — and one in a
    /// hole the peer reports stays, to be flooded when it falls due.
    /// Returns how many pending entries this ack retired for `from`.
    ///
    /// Each sensor's shard is walked only over the prefix up to the
    /// peer's highest held `seq`, compacting the entries that are still
    /// waiting towards its front, so the cost is proportional to the
    /// entries actually covered, not the whole backlog.
    pub fn on_cumulative_ack(&mut self, from: ProcessId, received: &Holdings) -> usize {
        let mut retired = 0;
        for (sensor, shard) in &mut self.pending {
            let high = holdings::high(received.lacks(*sensor));
            let covered = shard.partition_point(|p| p.seq() <= high);
            let mut kept = 0;
            for i in 0..covered {
                if received.holds(shard[i].event.id) && shard[i].unacked.remove(from) {
                    retired += 1;
                }
                if !shard[i].unacked.is_empty() {
                    shard.swap(kept, i);
                    kept += 1;
                }
            }
            if kept < covered {
                shard.drain(kept..covered);
                release_slack(shard);
                self.n_pending -= covered - kept;
            }
        }
        retired
    }

    /// Periodic retransmission tick: re-send pending broadcasts that
    /// have passed their age guard to still-unacked peers that remain
    /// in the view; peers that left the view are written off (they will
    /// recover via anti-entropy). Each due event becomes one fan-out
    /// action to its unacked peers, in `(sensor, seq)` order; entries
    /// still inside their guard are left untouched so cumulative
    /// keep-alive retirement can beat the retransmission.
    pub fn on_tick(&mut self, view: ProcSet, now: Time) -> Vec<Action> {
        let mut actions = Vec::new();
        let me = self.me;
        let retransmit_after = self.retransmit_after;
        let mut dropped = 0usize;
        for shard in self.pending.values_mut() {
            shard.retain_mut(|p| {
                p.unacked = p.unacked.intersection(view);
                if p.unacked.is_empty() {
                    dropped += 1;
                    return false;
                }
                if now >= p.retransmit_at {
                    p.retransmit_at = now + retransmit_after;
                    actions.push(Action::Fanout {
                        to: p.unacked,
                        msg: ProcMsg::Broadcast {
                            event: p.event.clone(),
                            origin: me,
                        },
                    });
                }
                true
            });
            release_slack(shard);
        }
        self.n_pending -= dropped;
        actions
    }
}

/// Broadcast state as it was before the shards became deques: one
/// `seq`-keyed `BTreeMap` of pending entries per sensor. Verbatim but
/// for the relay markers, which both states dropped together when the
/// store's insert verdict became the only relay test, and for the
/// cumulative ack, which reads a peer's [`Holdings`]; `proptests`
/// checks the deque state against it step by step.
#[cfg(test)]
mod reference {
    use std::collections::BTreeMap;

    use rivulet_types::{Duration, Event, ProcSet, ProcessId, SensorId, Time};

    use crate::delivery::Action;
    use crate::holdings::Holdings;
    use crate::messages::ProcMsg;

    /// One process's reliable-broadcast state.
    #[derive(Debug)]
    pub struct RbcastState {
        me: ProcessId,
        /// Broadcasts this process originated (or relayed) and ring-origin
        /// replication entries that still await acknowledgements, sharded
        /// by sensor. Ordered so retransmission order is a pure function of
        /// protocol state (determinism).
        pending: BTreeMap<SensorId, BTreeMap<u64, PendingBroadcast>>,
        /// Total entries across all sensors (kept so `pending_count` stays
        /// O(1) despite the sharding).
        n_pending: usize,
        /// Pause before re-flooding an explicit broadcast.
        retransmit_after: Duration,
        /// Pause before a tracked (ring-origin) entry escalates to a flood;
        /// sized so that healthy keep-alive retirement always wins.
        track_grace: Duration,
    }

    #[derive(Debug)]
    struct PendingBroadcast {
        event: Event,
        unacked: ProcSet,
        /// Do not retransmit before this instant (age guard: cumulative
        /// retirement via keep-alives must get a chance first).
        retransmit_at: Time,
    }

    impl RbcastState {
        /// Creates broadcast state for process `me` with zero retransmit
        /// delays (every tick retransmits — the eager behaviour unit tests
        /// rely on). Production callers use [`RbcastState::with_timing`].
        #[must_use]
        pub fn new(me: ProcessId) -> Self {
            Self {
                me,
                pending: BTreeMap::new(),
                n_pending: 0,
                retransmit_after: Duration::ZERO,
                track_grace: Duration::ZERO,
            }
        }

        /// Sets the retransmission pacing: `retransmit_after` between flood
        /// retries, `track_grace` before a tracked ring-origin entry first
        /// escalates to a flood.
        #[must_use]
        pub fn with_timing(mut self, retransmit_after: Duration, track_grace: Duration) -> Self {
            self.retransmit_after = retransmit_after;
            self.track_grace = track_grace;
            self
        }

        /// Number of broadcasts still awaiting acknowledgements.
        #[must_use]
        pub fn pending_count(&self) -> usize {
            self.n_pending
        }

        fn insert_pending(&mut self, event: Event, unacked: ProcSet, retransmit_at: Time) {
            let id = event.id;
            let prior = self.pending.entry(id.sensor).or_default().insert(
                id.seq,
                PendingBroadcast {
                    event,
                    unacked,
                    retransmit_at,
                },
            );
            if prior.is_none() {
                self.n_pending += 1;
            }
        }

        /// Initiates (or re-initiates) a broadcast of `event` to every peer
        /// in `view` except `me`, as a single encode-once fan-out action.
        pub fn start(&mut self, event: Event, view: ProcSet, now: Time) -> Vec<Action> {
            let peers = view.without(self.me);
            if peers.is_empty() {
                return Vec::new();
            }
            let actions = vec![Action::Fanout {
                to: peers,
                msg: ProcMsg::Broadcast {
                    event: event.clone(),
                    origin: self.me,
                },
            }];
            self.insert_pending(event, peers, now + self.retransmit_after);
            actions
        }

        /// Registers `event` for replication tracking *without* sending
        /// anything: the ring already carries it. Peers acknowledge through
        /// the received watermarks on their keep-alives; an entry still
        /// unacked after the track grace period is re-flooded by
        /// [`RbcastState::on_tick`] (the silent-stall fallback).
        pub fn track(&mut self, event: Event, view: ProcSet, now: Time) {
            if self
                .pending
                .get(&event.id.sensor)
                .is_some_and(|m| m.contains_key(&event.id.seq))
            {
                return; // already pending (e.g. an explicit flood)
            }
            let peers = view.without(self.me);
            if peers.is_empty() {
                return;
            }
            self.insert_pending(event, peers, now + self.track_grace);
        }

        /// A broadcast copy arrived. The receipt itself is acknowledged by
        /// the *received* watermark on our next keep-alive beacon, so the
        /// only thing to send is a relay: if `was_new`, a flood of our own
        /// makes delivery survive origin crashes (pass an empty `view` to
        /// suppress relaying — the eager baseline floods only from the
        /// origin).
        pub fn on_broadcast(
            &mut self,
            event: &Event,
            was_new: bool,
            view: ProcSet,
            now: Time,
        ) -> Vec<Action> {
            if was_new {
                self.start(event.clone(), view, now)
            } else {
                Vec::new()
            }
        }

        /// A peer's holdings arrived (piggybacked on its keep-alive).
        /// Every pending broadcast whose event the peer holds is
        /// acknowledged at once. Returns how many pending entries this
        /// ack retired for `from`.
        pub fn on_cumulative_ack(&mut self, from: ProcessId, received: &Holdings) -> usize {
            let (mut retired, mut done) = (0, 0);
            for (sensor, per) in &mut self.pending {
                per.retain(|seq, p| {
                    if !received.holds(rivulet_types::EventId::new(*sensor, *seq)) {
                        return true;
                    }
                    if p.unacked.remove(from) {
                        retired += 1;
                    }
                    done += usize::from(p.unacked.is_empty());
                    !p.unacked.is_empty()
                });
            }
            self.pending.retain(|_, per| !per.is_empty());
            self.n_pending -= done;
            retired
        }

        /// Periodic retransmission tick: re-send pending broadcasts that
        /// have passed their age guard to still-unacked peers that remain
        /// in the view; peers that left the view are written off (they will
        /// recover via anti-entropy). Each due event becomes one fan-out
        /// action to its unacked peers; entries still inside their guard
        /// are left untouched so cumulative keep-alive retirement can beat
        /// the retransmission.
        pub fn on_tick(&mut self, view: ProcSet, now: Time) -> Vec<Action> {
            let mut actions = Vec::new();
            let me = self.me;
            let retransmit_after = self.retransmit_after;
            let mut dropped = 0usize;
            for per in self.pending.values_mut() {
                per.retain(|_, p| {
                    p.unacked = p.unacked.intersection(view);
                    if p.unacked.is_empty() {
                        dropped += 1;
                        return false;
                    }
                    if now >= p.retransmit_at {
                        p.retransmit_at = now + retransmit_after;
                        actions.push(Action::Fanout {
                            to: p.unacked,
                            msg: ProcMsg::Broadcast {
                                event: p.event.clone(),
                                origin: me,
                            },
                        });
                    }
                    true
                });
            }
            self.pending.retain(|_, per| !per.is_empty());
            self.n_pending -= dropped;
            actions
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delivery::gapless::GaplessState;
    use rivulet_types::{EventId, EventKind};

    fn ev(seq: u64) -> Event {
        Event::new(
            EventId::new(SensorId(1), seq),
            EventKind::DoorOpen,
            Time::from_millis(seq),
        )
    }

    fn ev_on(sensor: u32, seq: u64) -> Event {
        Event::new(
            EventId::new(SensorId(sensor), seq),
            EventKind::DoorOpen,
            Time::from_millis(seq),
        )
    }

    fn pids(ids: &[u32]) -> ProcSet {
        ids.iter().map(|i| ProcessId(*i)).collect()
    }

    /// A peer holding every seq of each sensor up to its mark.
    fn through(marks: &[(u32, u64)]) -> Holdings {
        let ids = marks.iter().flat_map(|&(s, high)| {
            (0..=high).map(move |seq| rivulet_types::EventId::new(SensorId(s), seq))
        });
        ids.collect()
    }

    fn send_targets(actions: &[Action]) -> ProcSet {
        let targets = actions.iter().map(|a| match a {
            Action::Send {
                to,
                msg: ProcMsg::Broadcast { .. },
            } => ProcSet::singleton(*to),
            Action::Fanout {
                to,
                msg: ProcMsg::Broadcast { .. },
            } => *to,
            _ => ProcSet::EMPTY,
        });
        targets.fold(ProcSet::EMPTY, ProcSet::union)
    }

    #[test]
    fn start_floods_view_except_self() {
        let mut b = RbcastState::new(ProcessId(0));
        let flood = b.start(ev(0), pids(&[0, 1, 2]), Time::ZERO);
        assert_eq!(send_targets(flood.as_slice()), pids(&[1, 2]));
        assert_eq!(b.pending_count(), 1);
    }

    /// Peer `from`'s beacon covering seq 0 of the test sensor.
    fn ack0(b: &mut RbcastState, from: u32) -> usize {
        b.on_cumulative_ack(ProcessId(from), &through(&[(1, 0)]))
    }

    #[test]
    fn acks_retire_pending() {
        let mut b = RbcastState::new(ProcessId(0));
        let _ = b.start(ev(0), pids(&[0, 1, 2]), Time::ZERO);
        assert_eq!(ack0(&mut b, 1), 1);
        assert_eq!(b.pending_count(), 1);
        assert_eq!(ack0(&mut b, 2), 1);
        assert_eq!(b.pending_count(), 0);
        // Late/duplicate acks are harmless.
        assert_eq!(ack0(&mut b, 2), 0);
    }

    #[test]
    fn tick_retransmits_only_unacked_live_peers() {
        let mut b = RbcastState::new(ProcessId(0));
        let _ = b.start(ev(0), pids(&[0, 1, 2, 3]), Time::ZERO);
        ack0(&mut b, 1);
        // p3 left the view: written off.
        let actions = b.on_tick(pids(&[0, 1, 2]), Time::ZERO);
        assert_eq!(send_targets(&actions), pids(&[2]));
        // Everyone relevant acked or gone → pending clears.
        ack0(&mut b, 2);
        assert_eq!(b.pending_count(), 0);
        assert!(b.on_tick(pids(&[0, 1, 2]), Time::ZERO).is_empty());
    }

    #[test]
    fn a_peer_that_left_the_view_is_written_off() {
        let mut b = RbcastState::new(ProcessId(0));
        b.track(ev(0), pids(&[0, 1, 2, 3]), Time::ZERO);
        // unacked ∩ view: p3 is suspected and leaves the entry for good…
        let due = b.on_tick(pids(&[0, 1, 2]), Time::ZERO);
        assert_eq!(send_targets(&due), pids(&[1, 2]));
        // …so it is not flooded when a later view has it back (its ring
        // predecessor's anti-entropy repairs it instead).
        let due = b.on_tick(pids(&[0, 1, 2, 3]), Time::ZERO);
        assert_eq!(send_targets(&due), pids(&[1, 2]));
        assert_eq!(ack0(&mut b, 3), 0, "nothing of p3's left to retire");
        // The entry now waits for the peers still counted, nobody else.
        ack0(&mut b, 1);
        ack0(&mut b, 2);
        assert_eq!(b.pending_count(), 0);
    }

    #[test]
    fn all_peers_departed_clears_pending() {
        let mut b = RbcastState::new(ProcessId(0));
        let _ = b.start(ev(0), pids(&[0, 1]), Time::ZERO);
        let actions = b.on_tick(pids(&[0]), Time::ZERO);
        assert!(actions.is_empty());
        assert_eq!(b.pending_count(), 0);
    }

    #[test]
    fn receiver_relays_new_events_once() {
        // Both copies go through the replica store the way the process
        // feeds them: the store's insert verdict decides the relay.
        let mut replica = GaplessState::new(ProcessId(1), 100);
        let mut b = RbcastState::new(ProcessId(1));
        let view = pids(&[0, 1, 2]);
        let mut relays = Vec::new();
        for _ in 0..2 {
            let fresh = replica.on_broadcast_copy(ev(0)).is_some();
            relays.extend(b.on_broadcast(&ev(0), fresh, view, Time::ZERO));
        }
        // One relay flood and nothing else: the keep-alive beacon acks.
        assert_eq!(relays.len(), 1);
        assert_eq!(send_targets(&relays), pids(&[0, 2]));
    }

    #[test]
    fn known_event_not_relayed() {
        let mut b = RbcastState::new(ProcessId(1));
        let view = pids(&[0, 1, 2]);
        assert!(b.on_broadcast(&ev(0), false, view, Time::ZERO).is_none());
    }

    #[test]
    fn empty_view_suppresses_relay() {
        // The eager-broadcast baseline: receivers never re-flood (the
        // origin is the only flooder).
        let mut b = RbcastState::new(ProcessId(1));
        let relay = b.on_broadcast(&ev(0), true, ProcSet::EMPTY, Time::ZERO);
        assert!(relay.is_none());
        assert_eq!(b.pending_count(), 0, "nothing pending without a view");
    }

    #[test]
    fn cumulative_ack_retires_all_covered_events() {
        let mut b = RbcastState::new(ProcessId(0));
        let view = pids(&[0, 1, 2]);
        for seq in 0..4 {
            let _ = b.start(ev(seq), view, Time::ZERO);
        }
        assert_eq!(b.pending_count(), 4);
        // Peer 1's beacon covers seqs 0..=2 in one message.
        assert_eq!(b.on_cumulative_ack(ProcessId(1), &through(&[(1, 2)])), 3);
        assert_eq!(b.pending_count(), 4, "peer 2 still unacked everywhere");
        assert_eq!(b.on_cumulative_ack(ProcessId(2), &through(&[(1, 2)])), 3);
        assert_eq!(b.pending_count(), 1, "only seq 3 outstanding");
        // Holdings below the remaining seq retire nothing; other sensors
        // are ignored.
        assert_eq!(b.on_cumulative_ack(ProcessId(1), &through(&[(9, 100)])), 0);
        assert_eq!(b.on_cumulative_ack(ProcessId(1), &through(&[(1, 3)])), 1);
        assert_eq!(b.on_cumulative_ack(ProcessId(2), &through(&[(1, 3)])), 1);
        assert_eq!(b.pending_count(), 0);
    }

    #[test]
    fn a_hole_the_peer_reports_is_not_retired() {
        let mut b = RbcastState::new(ProcessId(0));
        let view = pids(&[0, 1]);
        for seq in 0..3 {
            b.track(ev(seq), view, Time::ZERO);
        }
        // Peer 1 holds 0 and 2 and reports the hole at 1 between them.
        let holding: Holdings = [0, 2].map(|q| ev(q).id).into_iter().collect();
        assert_eq!(b.on_cumulative_ack(ProcessId(1), &holding), 2);
        assert_eq!(b.pending_count(), 1, "seq 1 still awaits peer 1");
        let due = b.on_tick(view, Time::ZERO);
        assert_eq!(send_targets(&due), pids(&[1]), "and is flooded to it");
    }

    #[test]
    fn cumulative_ack_spans_sensors() {
        let mut b = RbcastState::new(ProcessId(0));
        let view = pids(&[0, 1]);
        let _ = b.start(ev_on(1, 0), view, Time::ZERO);
        let _ = b.start(ev_on(2, 5), view, Time::ZERO);
        let _ = b.start(ev_on(3, 9), view, Time::ZERO);
        // One beacon covering two of the three sensors.
        let retired = b.on_cumulative_ack(ProcessId(1), &through(&[(1, 10), (3, 9)]));
        assert_eq!(retired, 2);
        assert_eq!(b.pending_count(), 1, "sensor 2 entry remains");
    }

    #[test]
    fn retransmissions_are_ordered_fanouts() {
        let mut b = RbcastState::new(ProcessId(0));
        let view = pids(&[0, 1, 2]);
        let _ = b.start(ev(1), view, Time::ZERO);
        let _ = b.start(ev(0), view, Time::ZERO);
        let actions = b.on_tick(view, Time::ZERO);
        // One fan-out per pending event, in EventId order.
        let seqs: Vec<u64> = actions
            .iter()
            .map(|a| match a {
                Action::Fanout {
                    msg: ProcMsg::Broadcast { event, .. },
                    ..
                } => event.id.seq,
                other => panic!("unexpected action {other:?}"),
            })
            .collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn age_guard_delays_retransmission() {
        let mut b = RbcastState::new(ProcessId(0))
            .with_timing(Duration::from_millis(500), Duration::from_secs(2));
        let view = pids(&[0, 1]);
        let _ = b.start(ev(0), view, Time::ZERO);
        assert!(
            b.on_tick(view, Time::from_millis(499)).is_empty(),
            "inside the guard: no retransmission"
        );
        let due = b.on_tick(view, Time::from_millis(500));
        assert_eq!(send_targets(&due), pids(&[1]));
        // The guard re-arms from the retransmission instant.
        assert!(b.on_tick(view, Time::from_millis(999)).is_empty());
        assert!(!b.on_tick(view, Time::from_millis(1_000)).is_empty());
    }

    #[test]
    fn tracked_events_retire_by_watermark_or_escalate() {
        let mut b = RbcastState::new(ProcessId(0))
            .with_timing(Duration::from_millis(500), Duration::from_secs(2));
        let view = pids(&[0, 1, 2]);
        b.track(ev(0), view, Time::ZERO);
        b.track(ev(1), view, Time::ZERO);
        assert_eq!(b.pending_count(), 2);
        // No flood was sent and none is due inside the grace period.
        assert!(b.on_tick(view, Time::from_secs(1)).is_empty());
        // Keep-alive watermarks retire without any broadcast traffic.
        assert_eq!(b.on_cumulative_ack(ProcessId(1), &through(&[(1, 1)])), 2);
        assert_eq!(b.on_cumulative_ack(ProcessId(2), &through(&[(1, 0)])), 1);
        assert_eq!(b.pending_count(), 1, "seq 1 still awaits peer 2");
        // Past the grace period the survivor escalates to a flood
        // addressed to the lagging peer only.
        let due = b.on_tick(view, Time::from_secs(2));
        assert_eq!(send_targets(&due), pids(&[2]));
    }

    #[test]
    fn track_is_idempotent_and_respects_existing_floods() {
        let mut b = RbcastState::new(ProcessId(0));
        let view = pids(&[0, 1]);
        let _ = b.start(ev(0), view, Time::ZERO);
        b.track(ev(0), view, Time::ZERO);
        assert_eq!(b.pending_count(), 1, "flood entry not duplicated");
        b.track(ev(1), view, Time::ZERO);
        b.track(ev(1), view, Time::ZERO);
        assert_eq!(b.pending_count(), 2);
        b.track(ev(2), pids(&[0]), Time::ZERO);
        assert_eq!(b.pending_count(), 2, "no peers, nothing to track");
    }

    #[test]
    fn retirement_hands_back_a_drained_burst() {
        let mut b = RbcastState::new(ProcessId(0));
        let view = pids(&[0, 1]);
        let capacity = |b: &RbcastState| b.pending[&SensorId(1)].capacity();
        for seq in 0..20_000 {
            let _ = b.start(ev(seq), view, Time::ZERO);
        }
        let burst = capacity(&b);
        assert_eq!(
            b.on_cumulative_ack(ProcessId(1), &through(&[(1, 19_899)])),
            19_900
        );
        assert_eq!(b.pending_count(), 100);
        assert!(capacity(&b) < burst / 4);
        // A second burst, written off when its peer leaves the view.
        for seq in 20_000..40_000 {
            b.track(ev(seq), view, Time::ZERO);
        }
        let grown = capacity(&b);
        assert!(b.on_tick(pids(&[0]), Time::ZERO).is_empty());
        assert_eq!(b.pending_count(), 0);
        assert!(capacity(&b) < grown / 4);
    }

    #[test]
    fn singleton_start_is_noop() {
        let mut b = RbcastState::new(ProcessId(0));
        assert!(b.start(ev(0), pids(&[0]), Time::ZERO).is_none());
        assert_eq!(b.pending_count(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rivulet_types::{EventId, EventKind};

    /// Processes in the test home; `me` is process 0.
    const PROCESSES: u32 = 6;
    const SENSORS: u32 = 3;

    #[derive(Debug, Clone)]
    enum RbOp {
        Start(u32, u64, u64, u64),
        Track(u32, u64, u64, u64),
        OnBroadcast(u32, u64, bool, u64, u64),
        Ack(u32, Vec<(u32, u64)>),
        Tick(u64, u64),
    }

    fn event(sensor: u32, seq: u64) -> Event {
        Event::new(
            EventId::new(SensorId(sensor), seq),
            EventKind::DoorOpen,
            Time::ZERO,
        )
    }

    /// The processes whose bit is set in `mask`.
    fn view(mask: u64) -> ProcSet {
        (0..PROCESSES)
            .filter(|i| mask >> i & 1 == 1)
            .map(ProcessId)
            .collect()
    }

    /// Sequence numbers near both ends of the range.
    fn seq() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..24, (u64::MAX - 6)..=u64::MAX]
    }

    /// Tracking (what every ring-origin event does) is the most common
    /// call, then acks, then the rest.
    fn rb_op() -> impl Strategy<Value = RbOp> {
        let ack = (
            1..PROCESSES,
            proptest::collection::vec((0..=SENSORS, seq()), 0..4),
        );
        let other = (0u64..1 << PROCESSES, 0u64..60, any::<bool>());
        (0u8..13, 0..SENSORS, seq(), other, ack).prop_map(
            |(kind, s, q, (v, t, was_new), (from, received))| match kind {
                0..=1 => RbOp::Start(s, q, v, t),
                2..=5 => RbOp::Track(s, q, v, t),
                6..=7 => RbOp::OnBroadcast(s, q, was_new, v, t),
                8..=10 => RbOp::Ack(from, received),
                _ => RbOp::Tick(v, t),
            },
        )
    }

    proptest! {
        /// The deque state returns the same actions, in the same order,
        /// and the same counts as the B-tree state after every call.
        #[test]
        fn deque_state_matches_the_btree_reference(
            timed in any::<bool>(),
            ops in proptest::collection::vec(rb_op(), 1..150),
        ) {
            let (mut new, mut reference) = (
                RbcastState::new(ProcessId(0)),
                reference::RbcastState::new(ProcessId(0)),
            );
            if timed {
                let (retransmit, grace) = (Duration::from_millis(5), Duration::from_millis(20));
                new = new.with_timing(retransmit, grace);
                reference = reference.with_timing(retransmit, grace);
            }
            for op in ops {
                match op {
                    RbOp::Start(s, q, v, t) => prop_assert_eq!(
                        Vec::from_iter(new.start(event(s, q), view(v), Time::from_millis(t))),
                        reference.start(event(s, q), view(v), Time::from_millis(t))
                    ),
                    RbOp::Track(s, q, v, t) => {
                        new.track(event(s, q), view(v), Time::from_millis(t));
                        reference.track(event(s, q), view(v), Time::from_millis(t));
                    }
                    RbOp::OnBroadcast(s, q, was_new, v, t) => prop_assert_eq!(
                        Vec::from_iter(
                            new.on_broadcast(&event(s, q), was_new, view(v), Time::from_millis(t))
                        ),
                        reference.on_broadcast(&event(s, q), was_new, view(v), Time::from_millis(t))
                    ),
                    RbOp::Ack(from, received) => {
                        let received: Holdings = received
                            .into_iter()
                            .map(|(s, q)| EventId::new(SensorId(s), q))
                            .collect();
                        prop_assert_eq!(
                            new.on_cumulative_ack(ProcessId(from), &received),
                            reference.on_cumulative_ack(ProcessId(from), &received)
                        );
                    }
                    RbOp::Tick(v, t) => prop_assert_eq!(
                        new.on_tick(view(v), Time::from_millis(t)),
                        reference.on_tick(view(v), Time::from_millis(t))
                    ),
                }
                prop_assert_eq!(new.pending_count(), reference.pending_count());
            }
        }
    }
}
