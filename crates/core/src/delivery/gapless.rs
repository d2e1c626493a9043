//! The Gapless ring protocol (§4.1).
//!
//! Gapless delivery guarantees that any event received from a sensor by
//! any correct process is eventually delivered to, and processed by,
//! interested applications. Rivulet achieves this optimistically: a
//! light-weight **ring** circulates each event once around the local
//! views (at most n messages instead of the O(m·n) of broadcasting from
//! every receiving process), and only when the ring detects trouble
//! does the protocol fall back to a flood.
//!
//! The ring message is the paper's `(e : S : V)` triple — the event,
//! the processes that have *seen* it, and the processes that *need* it.
//! Both sets, like the local view, are [`ProcSet`] bitmasks — in the
//! message ([`RingMsg`]) as on the wire — so every rule below is a word
//! operation: `S ∪ {me}`, `V ∪ view`, `S = V`, `me ∈ S`. A relay
//! extends the sets of the message it received and sends that message
//! on, and its delivery travels in the caller's action buffer: a hop
//! allocates no set, list or action vector of its own.
//! The fallback trigger is the paper's condition with one clause of
//! ours: a process that receives an event it has already seen, with
//! `S ≠ V` and itself in `S`, knows the ring stalled before covering
//! `V`, and floods — when its own view holds a process outside `S`.
//! A flood to a view inside `S` reaches only processes that have already
//! forwarded the event.
//!
//! The flood is one encode-once fan-out that nothing acknowledges,
//! retransmits or relays. What makes the guarantee is the Bayou-style
//! sync of §4.1, run on every beacon instead of once per successor
//! change: each keep-alive carries its sender's view and holdings, and
//! the sender's ring predecessor, in that view or its own, ships every
//! settled event the holdings lack ([`GaplessState::on_peer_beacon`]).
//! A lost ring message, a lost flood copy, a dead relay and a rejoining
//! process are all repaired by it, within a beacon or two of the views
//! settling; the flood stays as the fast path.
//!
//! Two rules of ours shorten that walk without changing the triple
//! (DESIGN §4.1). The **self-closing ring**: a relay whose successor is
//! already in `S` sends nothing when `S = V` — the successor would have
//! ignored the message — and relays as before when `S ≠ V`, so the stall
//! test runs where it always has, at a process whose view counts the
//! uncovered member. The **express copy**: the origin of an event heard
//! far from the app's host sends that host a second ring message whose
//! `S` is the arc the ordinary token is about to cover, so the host
//! delivers at one hop and walks the rest of the ring while the ordinary
//! token walks the arc. An event heard by one process costs n − 1
//! messages without an express copy and n with one.

use rivulet_types::{Event, ProcSet, ProcessId, Time};

use crate::holdings::Holdings;
use crate::membership::KEEPALIVE_INTERVAL;
use crate::messages::{ProcMsg, RingMsg};
use crate::store::EventStore;

use super::Action;

/// Outcome of a ring message at one process. Its effects that wait for
/// the durability gate — the local delivery, or the stall test's flood —
/// go into the caller's action buffer instead.
#[derive(Debug, Default)]
pub struct GaplessOutcome {
    /// A relay's onward ring forward. Some peer's disk already backs
    /// the event, so it is sent in the same activation, after the
    /// buffered actions went to the gate and without waiting for it.
    pub relay: Option<Action>,
    /// The ring ended here, at its last hop, without a closing message.
    pub closed: bool,
}

/// One process's Gapless protocol state.
#[derive(Debug)]
pub struct GaplessState {
    me: ProcessId,
    store: EventStore,
}

impl GaplessState {
    /// Creates Gapless state for process `me`.
    #[must_use]
    pub fn new(me: ProcessId, store_cap_per_sensor: usize) -> Self {
        Self {
            me,
            store: EventStore::new(store_cap_per_sensor),
        }
    }

    /// Read access to the replicated event store.
    #[must_use]
    pub fn store(&self) -> &EventStore {
        &self.store
    }

    /// Mutable access to the replicated event store (watermark GC).
    pub fn store_mut(&mut self) -> &mut EventStore {
        &mut self.store
    }

    /// An event arrived directly from the physical sensor at this
    /// process (via an adapter). `view` is the local view `vᵢ` and
    /// `successor` the ring successor (None when alone). Returns whether
    /// the event was new; if so, its delivery and first ring forward go
    /// into `actions`, in that order, for the durability gate: an event
    /// goes on the wire only after one disk holds it.
    ///
    /// `express` is `(host, S)` when this process is the event's express
    /// sender ([`super::gap::express_sender`] chose it and computed the
    /// copy's `S`). The express copy is a first forward too and follows
    /// the other one into `actions`. The ordinary token (`S = {me}`) is
    /// what it is without a copy and still runs all the way to the host,
    /// so a lost express copy costs latency and nothing else.
    pub fn on_local_ingest(
        &mut self,
        event: Event,
        view: ProcSet,
        successor: Option<ProcessId>,
        express: Option<(ProcessId, ProcSet)>,
        actions: &mut Vec<Action>,
    ) -> bool {
        if !self.store.insert(event.clone()) {
            // Already known (e.g. the ring beat the radio): nothing to do.
            return false;
        }
        actions.push(Action::Deliver {
            event: event.clone(),
        });
        let Some(succ) = successor else {
            return true;
        };
        let express = express.map(|(host, seen)| Action::Ring {
            to: host,
            ring: RingMsg {
                event: event.clone(),
                seen,
                need: view,
            },
        });
        actions.push(Action::Ring {
            to: succ,
            ring: RingMsg {
                event,
                seen: ProcSet::singleton(self.me),
                need: view,
            },
        });
        actions.extend(express);
        true
    }

    /// A ring message `(event : S : V)` arrived from a peer. A first
    /// sighting pushes its delivery onto `actions` and forwards the
    /// message itself through the outcome's `relay`, with `S ∪ {me}` and
    /// `V ∪ view`; `S ∪ {me}` says "`me` has forwarded the event", which
    /// is all the stall test reads from it — not that `me`'s disk holds
    /// it. An express copy is handled like any other ring message. When
    /// `S ∪ {me} = V ∪ view` the ring closes here: the successor, in our
    /// view and so in `S`, would ignore the message, and it is not sent.
    /// With `S ≠ V` it is sent even to a successor in `S`, whose stall
    /// test floods *its* view, which may reach a process ours skips. A
    /// flood advertises possession, so it goes onto `actions` too.
    pub fn on_ring(
        &mut self,
        mut ring: RingMsg,
        view: ProcSet,
        successor: Option<ProcessId>,
        actions: &mut Vec<Action>,
    ) -> GaplessOutcome {
        let mut out = GaplessOutcome::default();
        if self.store.insert(ring.event.clone()) {
            // First sighting: deliver locally and keep the ring moving,
            // extending S with ourselves and V with our own view.
            actions.push(Action::Deliver {
                event: ring.event.clone(),
            });
            if let Some(succ) = successor {
                ring.seen.insert(self.me);
                ring.need = ring.need.union(view);
                // V has our view in it, successor included: S = V says the
                // successor has the event and its stall test would pass.
                if ring.seen == ring.need {
                    out.closed = true;
                } else {
                    out.relay = Some(Action::Ring { to: succ, ring });
                }
            }
            return out;
        }
        // Already seen. The paper's stall test: S ≠ V and me ∈ S means
        // we forwarded this event before, yet it has not reached every
        // process some view said it should — flood, if the flood can
        // reach a process outside S.
        let stalled = ring.seen != ring.need && ring.seen.contains(self.me);
        if stalled && !view.difference(ring.seen).is_empty() {
            actions.extend(self.flood(ring.event, view));
        }
        out
    }

    /// One flood of `event` to every peer in `view`: a single encode-once
    /// fan-out, kept nowhere once sent. `None` when `view` holds no peer.
    #[must_use]
    pub fn flood(&self, event: Event, view: ProcSet) -> Option<Action> {
        let to = view.without(self.me);
        let msg = ProcMsg::Broadcast {
            event,
            origin: self.me,
        };
        (!to.is_empty()).then_some(Action::Fanout { to, msg })
    }

    /// A peer's keep-alive arrived at `now` with its `view` and its
    /// holdings `received`; `mine` is our own view. Both views hold only
    /// the processes their owner exchanges with both ways
    /// ([`crate::membership::Membership::mutual_view`]). When either
    /// makes this process the sender's ring predecessor, the holdings
    /// are the Bayou query "what do you hold from each sensor", answered
    /// with every event the sender lacks, holes included, that was
    /// emitted at least one keep-alive interval before `now`: a younger
    /// one may still be on its way round the ring. Where the views
    /// agree, one process answers each beacon; where they do not, the
    /// sender is still answered by the process it names, and every
    /// process still answers the one it would forward to. Returns `None`
    /// for any other beacon and when nothing is missing.
    #[must_use]
    pub fn on_peer_beacon(
        &self,
        from: ProcessId,
        view: ProcSet,
        mine: ProcSet,
        received: &Holdings,
        now: Time,
    ) -> Option<Action> {
        let precedes = |v: ProcSet| v.contains(self.me) && v.successor_of(self.me) == Some(from);
        if !precedes(view) && !precedes(mine) {
            return None;
        }
        let settled = Time::ZERO + (now.duration_since(Time::ZERO) - KEEPALIVE_INTERVAL);
        let events = self.store.diff_for(received, settled);
        (!events.is_empty()).then_some(Action::Send {
            to: from,
            msg: ProcMsg::SyncEvents { events },
        })
    }

    /// Copies of events arrived outside the ring: a peer's flood or
    /// sync, or, in the eager-broadcast baseline, the sensor's reading.
    /// New ones are delivered locally through `actions`; they do not
    /// re-enter the ring. Returns whether any was new.
    pub fn on_copies(
        &mut self,
        events: impl IntoIterator<Item = Event>,
        actions: &mut Vec<Action>,
    ) -> bool {
        let known = actions.len();
        for event in events {
            if self.store.insert(event.clone()) {
                actions.push(Action::Deliver { event });
            }
        }
        actions.len() > known
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delivery::gap::express_sender;
    use rivulet_types::{EventId, EventKind, SensorId, Time};

    fn ev(seq: u64) -> Event {
        Event::new(
            EventId::new(SensorId(7), seq),
            EventKind::Motion,
            Time::from_millis(seq),
        )
    }

    fn set(ids: &[u32]) -> ProcSet {
        ids.iter().map(|i| ProcessId(*i)).collect()
    }

    /// What one call did: the actions it buffered and its outcome.
    struct Hop {
        actions: Vec<Action>,
        relay: Option<Action>,
        flooded: Option<Event>,
        closed: bool,
    }

    fn ingest(
        g: &mut GaplessState,
        event: Event,
        view: ProcSet,
        successor: Option<ProcessId>,
        express: Option<(ProcessId, ProcSet)>,
    ) -> Hop {
        let mut actions = Vec::new();
        let fresh = g.on_local_ingest(event, view, successor, express, &mut actions);
        assert_eq!(fresh, !actions.is_empty(), "fresh exactly when it buffers");
        Hop {
            actions,
            relay: None,
            flooded: None,
            closed: false,
        }
    }

    fn hop(
        g: &mut GaplessState,
        event: Event,
        seen: ProcSet,
        need: ProcSet,
        view: ProcSet,
        successor: Option<ProcessId>,
    ) -> Hop {
        let mut actions = Vec::new();
        let ring = RingMsg { event, seen, need };
        let out = g.on_ring(ring, view, successor, &mut actions);
        let mut flooded = None;
        actions.retain(|action| match action {
            Action::Fanout {
                to,
                msg: ProcMsg::Broadcast { event, origin },
            } => {
                assert_eq!(
                    (*to, *origin),
                    (view.without(g.me), g.me),
                    "floods the view"
                );
                assert!(flooded.replace(event.clone()).is_none(), "one flood");
                false
            }
            _ => true,
        });
        Hop {
            actions,
            relay: out.relay,
            flooded,
            closed: out.closed,
        }
    }

    /// Takes a ring send apart: `(to, event, seen, need)`.
    fn ring_send(action: Action) -> (ProcessId, Event, ProcSet, ProcSet) {
        match action {
            Action::Ring {
                to,
                ring: RingMsg { event, seen, need },
            } => (to, event, seen, need),
            other => panic!("expected ring send, got {other:?}"),
        }
    }

    fn deliver_count(actions: &[Action]) -> usize {
        actions
            .iter()
            .filter(|a| matches!(a, Action::Deliver { .. }))
            .count()
    }

    #[test]
    fn local_ingest_delivers_and_forwards_to_successor() {
        let mut g = GaplessState::new(ProcessId(0), 100);
        let view = set(&[0, 1, 2]);
        let mut out = ingest(&mut g, ev(0), view, Some(ProcessId(1)), None);
        assert!(out.flooded.is_none());
        assert!(
            out.relay.is_none(),
            "the origin's forward waits for its disk"
        );
        assert_eq!(out.actions.len(), 2);
        let (to, _, seen, need) = ring_send(out.actions.remove(1));
        assert_eq!(out.actions, vec![Action::Deliver { event: ev(0) }]);
        assert_eq!((to, seen, need), (ProcessId(1), set(&[0]), set(&[0, 1, 2])));
    }

    #[test]
    fn duplicate_local_ingest_is_silent() {
        let mut g = GaplessState::new(ProcessId(0), 100);
        let view = set(&[0, 1]);
        let _ = ingest(&mut g, ev(0), view, Some(ProcessId(1)), None);
        let out = ingest(&mut g, ev(0), view, Some(ProcessId(1)), None);
        assert!(out.actions.is_empty());
        assert!(out.flooded.is_none());
    }

    #[test]
    fn singleton_home_just_delivers() {
        let mut g = GaplessState::new(ProcessId(0), 100);
        let out = ingest(&mut g, ev(0), set(&[0]), None, None);
        assert_eq!(deliver_count(&out.actions), 1);
        assert_eq!(out.actions.len(), 1, "no sends when alone");
    }

    #[test]
    fn first_sighting_gates_the_delivery_and_relays_past_the_gate() {
        let mut g = GaplessState::new(ProcessId(1), 100);
        // p1's view knows p3, which the sender's view did not.
        let view = set(&[0, 1, 3]);
        let out = hop(
            &mut g,
            ev(0),
            set(&[0]),
            set(&[0, 1]),
            view,
            Some(ProcessId(3)),
        );
        assert!(out.flooded.is_none());
        assert_eq!(out.actions, vec![Action::Deliver { event: ev(0) }]);
        let (to, event, seen, need) = ring_send(out.relay.expect("a relay forwards"));
        assert_eq!((to, event), (ProcessId(3), ev(0)));
        assert_eq!(seen, set(&[0, 1]));
        assert_eq!(need, set(&[0, 1, 3]), "need extended with our view");
    }

    #[test]
    fn completed_ring_is_ignored() {
        // p0 ingests, then receives its own event back with S == V.
        let mut g = GaplessState::new(ProcessId(0), 100);
        let view = set(&[0, 1, 2]);
        let _ = ingest(&mut g, ev(0), view, Some(ProcessId(1)), None);
        let everyone = set(&[0, 1, 2]);
        let out = hop(&mut g, ev(0), everyone, everyone, view, Some(ProcessId(1)));
        assert!(out.actions.is_empty() && out.relay.is_none());
        assert!(out.flooded.is_none(), "S == V means all covered");
    }

    #[test]
    fn stalled_ring_triggers_broadcast() {
        // Paper's condition: seen event again, S != V, me ∈ S.
        let mut g = GaplessState::new(ProcessId(0), 100);
        let view = set(&[0, 1, 2]);
        let _ = ingest(&mut g, ev(0), view, Some(ProcessId(1)), None);
        let out = hop(
            &mut g,
            ev(0),
            set(&[0, 1]),
            set(&[0, 1, 2]),
            view,
            Some(ProcessId(1)),
        );
        assert_eq!(out.flooded, Some(ev(0)));
        assert!(out.actions.is_empty() && out.relay.is_none());
    }

    #[test]
    fn seen_event_not_in_seen_set_is_ignored() {
        // A duplicate receipt where we are NOT in S (we ingested from
        // the sensor but never forwarded this ring copy): another
        // process's ring is still progressing — do not broadcast.
        let mut g = GaplessState::new(ProcessId(2), 100);
        let view = set(&[0, 1, 2]);
        let _ = ingest(&mut g, ev(0), view, Some(ProcessId(0)), None);
        let out = hop(
            &mut g,
            ev(0),
            set(&[0, 1]),
            set(&[0, 1, 2]),
            view,
            Some(ProcessId(0)),
        );
        assert!(out.flooded.is_none());
        assert!(out.actions.is_empty() && out.relay.is_none());
    }

    #[test]
    fn three_process_ring_full_cycle_no_failures() {
        // End-to-end hand simulation: sensor → p0 only; verify everyone
        // delivers exactly once with exactly n − 1 ring messages.
        let view = set(&[0, 1, 2]);
        let mut p0 = GaplessState::new(ProcessId(0), 100);
        let mut p1 = GaplessState::new(ProcessId(1), 100);
        let mut p2 = GaplessState::new(ProcessId(2), 100);

        let mut out0 = ingest(&mut p0, ev(0), view, Some(ProcessId(1)), None);
        let (_, event, seen, need) = ring_send(out0.actions.remove(1));
        let out1 = hop(&mut p1, event, seen, need, view, Some(ProcessId(2)));
        assert_eq!(deliver_count(&out1.actions), 1);
        let (_, event, seen, need) = ring_send(out1.relay.expect("p1 relays"));
        let out2 = hop(&mut p2, event, seen, need, view, Some(ProcessId(0)));
        assert_eq!(deliver_count(&out2.actions), 1);
        // p2's successor p0 is in S: S ∪ {p2} == V == {0,1,2} → p2 closes
        // the ring silently instead of sending it back.
        assert!(out2.closed && out2.relay.is_none());
        assert!(out2.flooded.is_none());
        for p in [&p0, &p1, &p2] {
            assert_eq!(p.store().retained_seqs(SensorId(7)), vec![0]);
        }
    }

    #[test]
    fn last_hop_with_an_uncovered_process_relays_so_its_successor_runs_the_stall_test() {
        // p0 and p1 count p3 into V; p2 suspects it, so p2's successor is
        // p0 ∈ S although S ∪ {p2} = {0,1,2} ≠ V ∪ view = {0,1,2,3}. p2
        // must not close: its own flood would skip p3, the very process
        // the ring missed. It relays, and p0 — whose view has p3 — runs
        // the paper's stall test and floods.
        let mut p2 = GaplessState::new(ProcessId(2), 100);
        let out = hop(
            &mut p2,
            ev(0),
            set(&[0, 1]),
            set(&[0, 1, 2, 3]),
            set(&[0, 1, 2]),
            Some(ProcessId(0)),
        );
        assert_eq!(out.actions, vec![Action::Deliver { event: ev(0) }]);
        assert!(!out.closed && out.flooded.is_none());
        let (to, event, seen, need) = ring_send(out.relay.expect("S ≠ V: the ring goes on"));
        assert_eq!(
            (to, seen, need),
            (ProcessId(0), set(&[0, 1, 2]), set(&[0, 1, 2, 3]))
        );
        let view0 = set(&[0, 1, 2, 3]);
        let mut p0 = GaplessState::new(ProcessId(0), 100);
        let _ = ingest(&mut p0, ev(0), view0, Some(ProcessId(1)), None);
        let out = hop(&mut p0, event, seen, need, view0, Some(ProcessId(1)));
        assert_eq!(out.flooded, Some(ev(0)), "flooded from a view with p3");
    }

    #[test]
    fn a_first_sighting_closes_exactly_when_s_with_me_is_v_with_the_view() {
        // (me, S, V, view, closes): the rule in set terms, views that
        // agree and views that do not.
        type Case<'a> = (u32, &'a [u32], &'a [u32], &'a [u32], bool);
        let cases: [Case<'_>; 7] = [
            (2, &[0, 1], &[0, 1, 2], &[0, 1, 2], true), // last hop
            (1, &[0], &[0, 1, 2], &[0, 1, 2], false),   // mid-ring
            // The origin counted p3 and the last hop suspects it: S ∪ {me}
            // = {0,1,2} ≠ V ∪ view = {0,1,2,3}, so it relays (its own
            // flood would skip p3).
            (2, &[0, 1], &[0, 1, 2, 3], &[0, 1, 2], false),
            // The other way round: the last hop's view has a process no
            // earlier view had. V grows and the ring goes on to it.
            (2, &[0, 1], &[0, 1, 2], &[0, 1, 2, 3], false),
            // V and the view each know a process the other does not.
            (1, &[0], &[0, 1, 4], &[0, 1, 2], false),
            // An express copy at the host, then the far half's last hop.
            (0, &[3, 4], &[0, 1, 2, 3, 4], &[0, 1, 2, 3, 4], false),
            (2, &[0, 1, 3, 4], &[0, 1, 2, 3, 4], &[0, 1, 2, 3, 4], true),
        ];
        for (me, s, v, view, closes) in cases {
            let (me, view) = (ProcessId(me), set(view));
            let succ = view.successor_of(me);
            let mut g = GaplessState::new(me, 100);
            let out = hop(&mut g, ev(0), set(s), set(v), view, succ);
            assert_eq!(out.actions, vec![Action::Deliver { event: ev(0) }]);
            assert!(out.flooded.is_none());
            assert_eq!(out.closed, closes, "{me}: S={s:?} V={v:?} view={view:?}");
            assert_eq!(out.relay.is_none(), closes);
            if let Some(relay) = out.relay {
                let (to, _, seen, need) = ring_send(relay);
                assert_eq!(Some(to), succ);
                assert_eq!(seen, set(s).with(me));
                assert_eq!(need, set(v).union(view));
            }
        }
    }

    #[test]
    fn the_stall_test_is_s_differs_from_v_and_me_in_s() {
        // (S, V, floods) at p0, which has already seen the event.
        let cases: [(&[u32], &[u32], bool); 5] = [
            (&[0, 1], &[0, 1, 2], true),
            (&[0, 1, 2], &[0, 1, 2], false), // S = V: everyone covered
            (&[1, 2], &[0, 1, 2], false),    // me ∉ S: someone else's ring
            (&[2, 1, 0], &[0, 1, 2], false), // listing order is not content
            // S ≠ V, but only over p3, outside our view: a flood would
            // reach only processes that have forwarded the event.
            (&[0, 1, 2], &[0, 1, 2, 3], false),
        ];
        for (s, v, floods) in cases {
            let view = set(&[0, 1, 2]);
            let mut g = GaplessState::new(ProcessId(0), 100);
            let _ = ingest(&mut g, ev(0), view, Some(ProcessId(1)), None);
            let out = hop(&mut g, ev(0), set(s), set(v), view, Some(ProcessId(1)));
            assert_eq!(out.flooded.is_some(), floods, "S={s:?} V={v:?}");
            assert!(out.actions.is_empty() && out.relay.is_none() && !out.closed);
        }
    }

    #[test]
    fn express_copy_pre_marks_the_arc_to_the_host_and_never_the_host() {
        // p1 ingests, the app's host is p4: the ordinary token is about
        // to cover p2 and p3.
        let view = set(&[0, 1, 2, 3, 4]);
        let (sender, arc) = express_sender(view, set(&[1]), ProcessId(4)).expect("far host");
        assert_eq!((sender, arc), (ProcessId(1), set(&[1, 2, 3])));
        let mut g = GaplessState::new(ProcessId(1), 100);
        let express = Some((ProcessId(4), arc));
        let mut out = ingest(&mut g, ev(0), view, Some(ProcessId(2)), express);
        assert!(out.relay.is_none(), "both first forwards wait for the disk");
        assert_eq!(out.actions.len(), 3);
        let (to, event, seen, need) = ring_send(out.actions.remove(2));
        assert_eq!((to, event), (ProcessId(4), ev(0)));
        let everyone = set(&[0, 1, 2, 3, 4]);
        assert_eq!((seen, need), (set(&[1, 2, 3]), everyone));
        // The ordinary forward is what it is without an express copy.
        let (to, _, seen, need) = ring_send(out.actions.remove(1));
        assert_eq!((to, seen, need), (ProcessId(2), set(&[1]), everyone));
    }

    /// Runs one event, ingested at p1 with p0 as the app's host, through
    /// a five-process ring. `express_first` is the order in which p0
    /// receives the express copy and the ordinary token's last hop.
    /// Returns `(messages, deliveries per process)`.
    fn five_process_ring_with_express(express_first: bool) -> (usize, Vec<usize>) {
        let view = set(&[0, 1, 2, 3, 4]);
        let succ = |p: u32| Some(ProcessId((p + 1) % 5));
        let mut procs: Vec<GaplessState> = (0..5)
            .map(|p| GaplessState::new(ProcessId(p), 100))
            .collect();
        let mut delivered = vec![0; 5];
        let (_, arc) = express_sender(view, set(&[1]), ProcessId(0)).expect("far host");
        let mut out = ingest(
            &mut procs[1],
            ev(0),
            view,
            succ(1),
            Some((ProcessId(0), arc)),
        );
        delivered[1] += deliver_count(&out.actions);
        let express = ring_send(out.actions.remove(2));
        let ordinary = ring_send(out.actions.remove(1));
        // The ordinary token walks p2 → p3 → p4 and is held at p0's door.
        let mut messages = 2;
        let mut token = ordinary;
        while token.0 != ProcessId(0) {
            let (to, event, seen, need) = token;
            let at = to.0 as usize;
            let out = hop(&mut procs[at], event, seen, need, view, succ(to.0));
            assert!(out.flooded.is_none() && !out.closed);
            delivered[at] += deliver_count(&out.actions);
            token = ring_send(out.relay.expect("the token runs all the way to the host"));
            messages += 1;
        }
        assert!(
            !token.2.contains(ProcessId(0)),
            "I2: the host is not pre-marked"
        );
        let arrivals = if express_first {
            [express, token]
        } else {
            [token, express]
        };
        for (i, (_, event, seen, need)) in arrivals.into_iter().enumerate() {
            let out = hop(&mut procs[0], event, seen, need, view, succ(0));
            delivered[0] += deliver_count(&out.actions);
            // p0's successor p1 is in both copies' S: whichever comes
            // first closes the ring, the other is an ignored duplicate.
            assert_eq!(out.closed, i == 0);
            assert!(out.relay.is_none() && out.flooded.is_none());
        }
        (messages, delivered)
    }

    #[test]
    fn five_process_ring_with_express_delivers_once_everywhere_in_n_messages() {
        assert_eq!(five_process_ring_with_express(true), (5, vec![1; 5]));
    }

    #[test]
    fn express_copy_arriving_after_the_ordinary_token_is_ignored() {
        assert_eq!(five_process_ring_with_express(false), (5, vec![1; 5]));
    }

    #[test]
    fn host_relays_the_far_half_of_the_ring_after_an_express_copy() {
        // I1: p3 ingests, host p0. The express copy marks {3, 4}; p0's
        // successor p1 is not in S, so p0 forwards like any relay, and
        // the half-ring stops at p2, whose successor is the origin.
        let view = set(&[0, 1, 2, 3, 4]);
        let everyone = set(&[0, 1, 2, 3, 4]);
        let mut p0 = GaplessState::new(ProcessId(0), 100);
        let out = hop(
            &mut p0,
            ev(0),
            set(&[3, 4]),
            everyone,
            view,
            Some(ProcessId(1)),
        );
        assert_eq!(deliver_count(&out.actions), 1);
        let (to, _, seen, _) = ring_send(out.relay.expect("the host keeps the ring moving"));
        assert_eq!((to, seen), (ProcessId(1), set(&[0, 3, 4])));
        let mut p2 = GaplessState::new(ProcessId(2), 100);
        let out = hop(
            &mut p2,
            ev(0),
            set(&[0, 1, 3, 4]),
            everyone,
            view,
            Some(ProcessId(3)),
        );
        assert!(out.closed && out.relay.is_none() && out.flooded.is_none());
    }

    #[test]
    fn multi_receiver_rings_do_not_broadcast() {
        // Both p0 and p1 receive the event from the sensor (multicast)
        // and start rings; no false broadcast should fire.
        let view = set(&[0, 1, 2]);
        let mut p0 = GaplessState::new(ProcessId(0), 100);
        let mut p1 = GaplessState::new(ProcessId(1), 100);
        let mut p2 = GaplessState::new(ProcessId(2), 100);

        let mut o0 = ingest(&mut p0, ev(0), view, Some(ProcessId(1)), None);
        let mut o1 = ingest(&mut p1, ev(0), view, Some(ProcessId(2)), None);
        // p1 receives p0's ring copy: already seen, S={0}, p1 ∉ S → ignore.
        let (_, event, seen, need) = ring_send(o0.actions.remove(1));
        let r = hop(&mut p1, event, seen, need, view, Some(ProcessId(2)));
        assert!(r.flooded.is_none() && r.relay.is_none());
        // p2 receives p1's ring copy: new → delivers, forwards to p0.
        let (_, event, seen, need) = ring_send(o1.actions.remove(1));
        let r2 = hop(&mut p2, event, seen, need, view, Some(ProcessId(0)));
        assert_eq!(deliver_count(&r2.actions), 1);
        // p0 gets it back: S={1,2}≠V, p0 ∉ S → ignore (no broadcast).
        let (_, event, seen, need) = ring_send(r2.relay.expect("p2 relays"));
        let r3 = hop(&mut p0, event, seen, need, view, Some(ProcessId(1)));
        assert!(r3.flooded.is_none());
        assert_eq!(p2.store().retained_seqs(SensorId(7)), vec![0]);
    }

    /// A peer holding events `0..=high` of the test sensor.
    fn through(high: u64) -> Holdings {
        (0..=high).map(|seq| ev(seq).id).collect()
    }

    /// The seqs a beacon from `from` with `view` and `received` is
    /// answered with at `now_ms` by a process whose own view is `mine`,
    /// or `None` when it ships nothing.
    fn beacon(
        g: &GaplessState,
        (from, view): (u32, &[u32]),
        mine: &[u32],
        received: &Holdings,
        now_ms: u64,
    ) -> Option<Vec<u64>> {
        let now = Time::from_millis(now_ms);
        match g.on_peer_beacon(ProcessId(from), set(view), set(mine), received, now)? {
            Action::Send {
                to,
                msg: ProcMsg::SyncEvents { events },
            } => {
                assert_eq!(to, ProcessId(from), "the sync goes to the beacon's sender");
                Some(events.iter().map(|e| e.id.seq).collect())
            }
            other => panic!("expected sync events, got {other:?}"),
        }
    }

    /// Process 1 holding events 0–4 of one sensor, emitted at 0–4 ms.
    fn ahead() -> GaplessState {
        let mut g = GaplessState::new(ProcessId(1), 100);
        for seq in 0..5 {
            let _ = ingest(&mut g, ev(seq), set(&[0, 1, 2]), None, None);
        }
        g
    }

    /// Well past every event's emission plus one keep-alive interval.
    const LATER_MS: u64 = 10_000;

    /// A view of our own that makes us nobody's predecessor.
    const ALONE: &[u32] = &[1];

    #[test]
    fn the_predecessor_the_senders_view_names_ships_what_it_lacks() {
        let g = ahead();
        let mut behind = GaplessState::new(ProcessId(2), 100);
        let _ = ingest(&mut behind, ev(0), set(&[0, 1, 2]), None, None);
        let shipped = beacon(&g, (2, &[0, 1, 2]), ALONE, &through(0), LATER_MS);
        assert_eq!(shipped, Some(vec![1, 2, 3, 4]));
        // Every beacon asks again; a caught-up sender is sent nothing.
        assert_eq!(
            beacon(&g, (2, &[0, 1, 2]), ALONE, &through(4), LATER_MS),
            None
        );
        // The events arrive and are delivered like any other copy.
        let mut delivered = Vec::new();
        assert!(behind.on_copies((1..5).map(ev), &mut delivered));
        assert_eq!(delivered.len(), 4);
        assert_eq!(
            behind.store().retained_seqs(SensorId(7)),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn a_sync_fills_the_holes_the_sender_reports() {
        let holding: Holdings = [0, 1, 3].map(|seq| ev(seq).id).into_iter().collect();
        let shipped = beacon(&ahead(), (2, &[1, 2]), ALONE, &holding, LATER_MS);
        assert_eq!(shipped, Some(vec![2, 4]));
    }

    #[test]
    fn the_settle_guard_holds_back_events_younger_than_a_beacon() {
        // At 503 ms only events 0–3 (emitted at 0–3 ms) are a keep-alive
        // interval old; event 4 may still be walking the ring.
        let (g, sender) = (ahead(), (2, &[1, 2][..]));
        let none = Holdings::default();
        assert_eq!(
            beacon(&g, sender, ALONE, &none, 503),
            Some(vec![0, 1, 2, 3])
        );
        assert_eq!(beacon(&g, sender, ALONE, &through(3), 503), None);
        assert_eq!(beacon(&g, sender, ALONE, &through(3), 504), Some(vec![4]));
    }

    #[test]
    fn a_sender_whose_view_names_another_predecessor_is_answered_only_as_our_successor() {
        let g = ahead();
        let none = Holdings::default();
        // Process 3's view has process 2 between us, and process 0's
        // view wraps round to process 3: each names another answerer.
        for sender in [(3, &[1, 2, 3][..]), (0, &[0, 1, 3])] {
            assert_eq!(beacon(&g, sender, &[0, 1, 2, 3], &none, LATER_MS), None);
        }
        // Where the sender's view names us, whoever else we see, we
        // answer; and where ours makes the sender our successor, too.
        assert!(beacon(&g, (0, &[0, 1]), &[0, 1, 2], &none, LATER_MS).is_some());
        assert!(beacon(&g, (3, &[1, 2, 3]), &[0, 1, 3], &none, LATER_MS).is_some());
    }

    #[test]
    fn a_sender_whose_view_lacks_the_receiver_is_not_answered() {
        // Process 2 cannot hear process 1: its view skips it and names
        // process 0, and ours, told so by its beacons, skips process 2.
        let g = ahead();
        let none = Holdings::default();
        assert_eq!(beacon(&g, (2, &[0, 2]), &[0, 1, 3], &none, LATER_MS), None);
        assert_eq!(beacon(&g, (2, &[2]), ALONE, &none, LATER_MS), None);
    }

    #[test]
    fn an_empty_store_ships_nothing() {
        let empty = GaplessState::new(ProcessId(1), 100);
        let none = Holdings::default();
        assert_eq!(beacon(&empty, (2, &[1, 2]), &[1, 2], &none, LATER_MS), None);
    }

    #[test]
    fn broadcast_copy_dedups() {
        let mut g = GaplessState::new(ProcessId(0), 100);
        let mut actions = Vec::new();
        assert!(g.on_copies([ev(0)], &mut actions));
        assert!(!g.on_copies([ev(0)], &mut actions));
        assert_eq!(actions, vec![Action::Deliver { event: ev(0) }]);
    }
}
