//! Keep-alive membership: the hearing graph and everything read from it.
//!
//! Rivulet "must work with any number of processes, including home
//! environments with only one or two processes", so it cannot use
//! majority-based agreed views; each process maintains a **local view**
//! from keep-alive silence, and views at different processes may
//! disagree (§4.1). A process never suspects itself.
//!
//! Views may also disagree one way round: a peer we hear may not hear
//! us, and a peer we cannot hear may hear us. So a process keeps one
//! graph of who hears whom, built from keep-alives alone. Per peer it
//! knows when it last heard the peer itself, the peer's last beacon and
//! the newest of its beacons another peer relayed ([`Relayed`]) — each
//! with its **row**, the processes the peer hears, and the instant it
//! arrived, a relayed one's instant being a vouch that the peer was
//! alive then. The newer row is the peer's. Every reader derives from it:
//! * [`Membership::view`] and [`Membership::is_alive`]: a peer heard
//!   directly or vouched for within the failure timeout — the ring's
//!   `V`, the floods, the express host, the Gap chain, election and
//!   polling;
//! * [`Membership::successor_in`]: the next live process, cyclically,
//!   whose row holds us, so a ring copy never goes over a link its far
//!   end says is dead;
//! * [`Membership::row`] and [`Membership::relayed`]: what our own
//!   beacon says;
//! * [`Membership::sync_view`] and [`Membership::sender_view`]: the two
//!   views the beacon sync reads to find a beacon's answerer.
//!
//! A start-up assumption (a freshly started process counts every peer
//! alive until its first keep-alive exchange) is not evidence: it keeps
//! a peer in our own row, but we never vouch for it.

use rivulet_types::{Duration, ProcSet, ProcessId, Time};

use crate::messages::Relayed;

/// Interval between keep-alive beacons to every peer (§4.1's "every
/// *t* seconds"; 500 ms in the evaluation, §8.4). The same periodic
/// tick also drives view maintenance and election, and each beacon is a
/// sync query (§4.1).
pub const KEEPALIVE_INTERVAL: Duration = Duration::from_millis(500);

/// What a process knows of one peer.
#[derive(Debug, Clone, Copy)]
struct Peer {
    /// When we last heard the peer itself, or started, if later.
    heard: Time,
    /// The peer's last beacon we heard: when it arrived, and its row.
    beacon: Option<(Time, ProcSet)>,
    /// The newest of the peer's beacons another peer relayed: the
    /// instant the relayer heard it (a vouch), and its row.
    vouched: Option<(Time, ProcSet)>,
}

impl Peer {
    /// Whether the peer's newest row, whoever carried it, holds `p`.
    /// An unknown row does.
    fn hears(&self, p: ProcessId) -> bool {
        let newest = match (self.beacon, self.vouched) {
            (Some(beacon), Some(vouched)) if beacon.0 > vouched.0 => Some(beacon),
            (beacon, vouched) => vouched.or(beacon),
        };
        newest.is_none_or(|(_, row)| row.contains(p))
    }

    /// The last sign of the peer's life: heard directly, or vouched for.
    fn last_sign(&self) -> Time {
        self.vouched
            .map_or(self.heard, |(at, _)| at.max(self.heard))
    }
}

/// One process's failure detector and hearing graph.
#[derive(Debug)]
pub struct Membership {
    me: ProcessId,
    peers: ProcSet,
    failure_timeout: Duration,
    /// Indexed by process id; only the entries of `peers` are read.
    graph: Vec<Peer>,
}

impl Membership {
    /// Creates the membership state of process `me` among `peers`
    /// (which may or may not include `me`; it is tracked implicitly)
    /// at time `now`. Until first contact, peers are optimistically
    /// assumed alive as of `now` — a freshly (re)started process must
    /// not instantly suspect the whole home and wrongly promote itself
    /// before its first keep-alive exchange completes.
    ///
    /// # Panics
    ///
    /// Panics if `me` or a peer has an id past the home-size limit
    /// ([`ProcSet::CAPACITY`]).
    #[must_use]
    pub fn new(me: ProcessId, peers: &[ProcessId], failure_timeout: Duration, now: Time) -> Self {
        // `with(me)` holds `me` to the size limit too.
        let all = peers.iter().copied().collect::<ProcSet>().with(me);
        let unknown = Peer {
            heard: now,
            beacon: None,
            vouched: None,
        };
        let ids = all.last().map_or(0, |p| p.0 as usize + 1);
        Self {
            me,
            peers: all.without(me),
            failure_timeout,
            graph: vec![unknown; ids],
        }
    }

    /// All known peers (excluding `me`).
    #[must_use]
    pub fn peers(&self) -> ProcSet {
        self.peers
    }

    /// Records a sign of life from `from` at `now` (keep-alive or any
    /// protocol message — all traffic proves liveness).
    pub fn heard_from(&mut self, from: ProcessId, now: Time) {
        if self.peers.contains(from) {
            let heard = &mut self.graph[from.0 as usize].heard;
            *heard = (*heard).max(now);
        }
    }

    /// Records a keep-alive from `from` that arrived at `now` carrying
    /// its `row` and the beacons it `relayed`: each relayed peer's
    /// beacon was heard by `from` at `now` less the entry's age, and
    /// the newest such vouch is kept with its row. Unknown senders and
    /// entries are ignored, as is an entry for us.
    pub fn heard_beacon(&mut self, from: ProcessId, row: ProcSet, relayed: &Relayed, now: Time) {
        if !self.peers.contains(from) {
            return;
        }
        self.heard_from(from, now);
        self.graph[from.0 as usize].beacon = Some((now, row));
        for (p, age, row) in relayed.iter() {
            if self.peers.contains(p) {
                let at = Time::from_micros(now.as_micros().saturating_sub(age.as_micros()));
                let vouched = &mut self.graph[p.0 as usize].vouched;
                if vouched.is_none_or(|(last, _)| at >= last) {
                    *vouched = Some((at, row));
                }
            }
        }
    }

    /// Whether `last` is within the failure timeout of `now`.
    fn fresh(&self, last: Time, now: Time) -> bool {
        now.duration_since(last) < self.failure_timeout
    }

    /// Whether `p` is currently believed alive: heard directly or
    /// vouched for within the failure timeout. `me` is always alive
    /// ("a process never suspects itself", §4.1).
    #[must_use]
    pub fn is_alive(&self, p: ProcessId, now: Time) -> bool {
        p == self.me
            || self.peers.contains(p) && self.fresh(self.graph[p.0 as usize].last_sign(), now)
    }

    /// `me` and each peer `keep` holds for.
    fn me_and(&self, keep: impl Fn(&Peer) -> bool) -> ProcSet {
        let kept = self
            .peers
            .iter()
            .filter(|p| keep(&self.graph[p.0 as usize]));
        kept.fold(ProcSet::singleton(self.me), ProcSet::with)
    }

    /// The local view `vᵢ` at `now`: all live processes including
    /// `me`.
    #[must_use]
    pub fn view(&self, now: Time) -> ProcSet {
        self.me_and(|peer| self.fresh(peer.last_sign(), now))
    }

    /// Our row at `now`: the processes we hear, `me` included — each
    /// peer heard directly within the failure timeout, or not heard
    /// since we started less than a failure timeout ago.
    #[must_use]
    pub fn row(&self, now: Time) -> ProcSet {
        self.me_and(|peer| self.fresh(peer.heard, now))
    }

    /// What our beacon relays at `now` for the peers of `row` (our
    /// [`Membership::row`]): for each one whose own beacon we heard
    /// within the failure timeout, the age of that beacon and its row.
    #[must_use]
    pub fn relayed(&self, row: ProcSet, now: Time) -> Relayed {
        Relayed::new(row.without(self.me), |p| {
            let beacon = self.graph[p.0 as usize].beacon;
            let (at, row) = beacon.filter(|(at, _)| self.fresh(*at, now))?;
            Some((now.duration_since(at), row))
        })
    }

    /// The ring successor of `me` within `view`: the next process id
    /// cyclically whose row holds us, `None` when there is none. Taking
    /// the view as an argument lets an activation that needs both
    /// build it once.
    #[must_use]
    pub fn successor_in(&self, view: ProcSet) -> Option<ProcessId> {
        let (after, upto) = (view.iter().filter(|p| *p > self.me), view.iter());
        let mut cyclic = after.chain(upto.take_while(|p| *p < self.me));
        cyclic.find(|p| self.graph[p.0 as usize].hears(self.me))
    }

    /// Our view for the beacon sync at `now`: our row less each peer
    /// whose row lacks us — the processes we exchange with both ways.
    #[must_use]
    pub fn sync_view(&self, now: Time) -> ProcSet {
        self.me_and(|peer| self.fresh(peer.heard, now) && peer.hears(self.me))
    }

    /// A beacon sender's view for the beacon sync, from that beacon
    /// alone: the sender `from`'s `row` less each peer whose row, as
    /// the beacon relays it, lacks the sender.
    #[must_use]
    pub fn sender_view(from: ProcessId, row: ProcSet, relayed: &Relayed) -> ProcSet {
        let deaf =
            |(p, _, theirs): (ProcessId, Duration, ProcSet)| (!theirs.contains(from)).then_some(p);
        row.difference(relayed.iter().filter_map(deaf).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pids(ids: &[u32]) -> Vec<ProcessId> {
        ids.iter().map(|i| ProcessId(*i)).collect()
    }

    fn set(ids: &[u32]) -> ProcSet {
        pids(ids).into_iter().collect()
    }

    fn m3() -> Membership {
        Membership::new(
            ProcessId(1),
            &pids(&[0, 1, 2]),
            Duration::from_secs(2),
            Time::ZERO,
        )
    }

    #[test]
    fn fresh_membership_trusts_everyone_briefly() {
        let m = m3();
        assert_eq!(m.view(Time::from_millis(100)), set(&[0, 1, 2]));
    }

    #[test]
    fn silence_causes_suspicion_and_contact_restores() {
        let mut m = m3();
        let late = Time::from_secs(5);
        assert_eq!(m.view(late), set(&[1]), "everyone silent too long");
        m.heard_from(ProcessId(0), Time::from_secs(4));
        assert_eq!(m.view(late), set(&[0, 1]));
        assert!(!m.is_alive(ProcessId(2), late));
        m.heard_from(ProcessId(2), late);
        assert!(m.is_alive(ProcessId(2), late));
    }

    #[test]
    fn never_suspects_self_and_ignores_unknown() {
        let mut m = m3();
        let t = Time::from_secs(100);
        assert!(m.is_alive(ProcessId(1), t));
        assert!(
            !m.is_alive(ProcessId(42), t),
            "unknown processes are not alive"
        );
        m.heard_from(ProcessId(42), t); // unknown: ignored
        assert!(!m.is_alive(ProcessId(42), t));
        m.heard_from(ProcessId(1), t); // self: ignored
        assert!(m.view(t).contains(ProcessId(1)));
    }

    #[test]
    fn stale_heard_from_does_not_rewind() {
        let mut m = m3();
        m.heard_from(ProcessId(0), Time::from_secs(10));
        m.heard_from(ProcessId(0), Time::from_secs(3)); // reordered arrival
        assert!(m.is_alive(ProcessId(0), Time::from_secs(11)));
    }

    #[test]
    fn ring_successor_cycles_sorted_view() {
        let mut m = m3();
        let t = Time::from_secs(1);
        // Full view {0,1,2}: successor of 1 is 2.
        assert_eq!(m.successor_in(m.view(t)), Some(ProcessId(2)));
        // Highest process wraps to lowest.
        let m2 = Membership::new(
            ProcessId(2),
            &pids(&[0, 1, 2]),
            Duration::from_secs(2),
            Time::ZERO,
        );
        assert_eq!(m2.successor_in(m2.view(t)), Some(ProcessId(0)));
        // After suspecting 2, successor of 1 wraps to 0.
        let late = Time::from_secs(5);
        m.heard_from(ProcessId(0), Time::from_secs(4));
        assert_eq!(m.successor_in(m.view(late)), Some(ProcessId(0)));
        assert_eq!(m.successor_in(m.view(Time::from_secs(50))), None);
    }

    /// `m`'s beacon at `now`: its row and what it relays.
    fn beacon(m: &Membership, now: Time) -> (ProcSet, Relayed) {
        let row = m.row(now);
        (row, m.relayed(row, now))
    }

    /// `to` hears a beacon `from` sent at `sent`, one `link` later.
    fn deliver(to: &mut Membership, from: &Membership, sent: Time, link: Duration) {
        let (row, relayed) = beacon(from, sent);
        to.heard_beacon(from.me, row, &relayed, sent + link);
    }

    fn member(me: u32) -> Membership {
        Membership::new(
            ProcessId(me),
            &pids(&[0, 1, 2]),
            Duration::from_secs(2),
            Time::ZERO,
        )
    }

    #[test]
    fn the_sync_view_drops_a_peer_whose_row_drops_us_until_it_hears_us_again() {
        let mut m = m3();
        let t = Time::from_secs(1);
        let none = Relayed::default();
        assert_eq!(m.sync_view(t), set(&[0, 1, 2]), "trusted until told");
        m.heard_beacon(ProcessId(2), set(&[0, 2]), &none, t);
        assert_eq!(m.sync_view(t), set(&[0, 1]));
        assert_eq!(m.view(t), set(&[0, 1, 2]), "we still hear it");
        // A healed link: the peer's next row names us again, whatever
        // ours said meanwhile.
        m.heard_beacon(ProcessId(2), set(&[1, 2]), &none, t);
        m.heard_beacon(ProcessId(42), set(&[0]), &none, t);
        assert_eq!(m.sync_view(t), set(&[0, 1, 2]));
        assert_eq!(
            m.sync_view(Time::from_secs(5)),
            set(&[1]),
            "silence counts too"
        );
    }

    #[test]
    fn a_senders_view_is_its_row_less_the_peers_its_relayed_rows_say_are_deaf_to_it() {
        let relayed = Relayed::new(set(&[0, 2]), |p| {
            let row = if p == ProcessId(0) {
                set(&[0, 3])
            } else {
                set(&[1, 2, 3])
            };
            Some((Duration::from_millis(100), row))
        });
        let row = set(&[0, 2, 3]);
        assert_eq!(Membership::sender_view(ProcessId(3), row, &relayed), row);
        assert_eq!(
            Membership::sender_view(
                ProcessId(0),
                set(&[0, 2]),
                &Relayed::new(set(&[2]), |_| {
                    Some((Duration::from_millis(1), set(&[1, 2])))
                })
            ),
            set(&[0]),
            "process 2 relays a row without process 0"
        );
    }

    #[test]
    fn a_vouch_keeps_a_crashed_peer_alive_at_most_one_link_latency_longer() {
        let link = Duration::from_millis(1);
        let (mut m, mut other) = (member(1), member(2));
        // Process 0's last beacon leaves at 10 s and reaches both one
        // link later; then it is gone. Process 2 keeps beaconing.
        let last = Time::from_secs(10) + link;
        for to in [&mut m, &mut other] {
            to.heard_beacon(ProcessId(0), set(&[0, 1, 2]), &Relayed::default(), last);
        }
        let mut sent = Time::from_millis(10_500);
        while sent < Time::from_secs(16) {
            deliver(&mut m, &other, sent, link);
            sent += KEEPALIVE_INTERVAL;
        }
        let dropped = last + Duration::from_secs(2);
        assert!(m.is_alive(ProcessId(0), dropped), "vouched for");
        assert!(!m.is_alive(ProcessId(0), dropped + link));
        assert!(m.is_alive(ProcessId(2), Time::from_secs(16)));
    }

    #[test]
    fn a_start_up_assumption_is_never_vouched_for() {
        let link = Duration::from_millis(1);
        let mut m = member(1);
        let late = Time::from_secs(20);
        // Process 0 died long ago; process 2 restarts at 20 s and counts
        // it alive until it hears otherwise, in its row only.
        let restarted = Membership::new(
            ProcessId(2),
            &pids(&[0, 1, 2]),
            Duration::from_secs(2),
            late,
        );
        let (row, relayed) = beacon(&restarted, late);
        assert_eq!(row, set(&[0, 1, 2]));
        assert_eq!(relayed.iter().count(), 0, "nobody heard yet");
        m.heard_beacon(ProcessId(2), row, &relayed, late + link);
        assert!(!m.is_alive(ProcessId(0), late + link));
        assert_eq!(m.view(late + link), set(&[1, 2]));
    }

    #[test]
    fn a_peer_that_hears_us_but_that_we_cannot_hear_is_our_successor_through_a_relayed_row() {
        let link = Duration::from_millis(1);
        let (mut m, mut zero, mut two) = (member(1), member(0), member(2));
        // Process 2 hears everyone; process 1 cannot hear it. Process 0
        // hears process 2 and relays its row.
        let mut sent = Time::from_secs(2);
        while sent <= Time::from_secs(6) {
            let (b0, b1, b2) = (beacon(&zero, sent), beacon(&m, sent), beacon(&two, sent));
            let at = sent + link;
            for (from, (row, relayed)) in [(0, &b0), (1, &b1)] {
                two.heard_beacon(ProcessId(from), *row, relayed, at);
            }
            for (from, (row, relayed)) in [(1, &b1), (2, &b2)] {
                zero.heard_beacon(ProcessId(from), *row, relayed, at);
            }
            m.heard_beacon(ProcessId(0), b0.0, &b0.1, at);
            sent += KEEPALIVE_INTERVAL;
        }
        let now = Time::from_secs(6) + link;
        assert!(!m.row(now).contains(ProcessId(2)), "never heard directly");
        let view = m.view(now);
        assert_eq!(view, set(&[0, 1, 2]), "vouched for by process 0");
        assert_eq!(m.successor_in(view), Some(ProcessId(2)));
        assert_eq!(m.sync_view(now), set(&[0, 1]));
    }

    #[test]
    fn a_peer_whose_row_lacks_us_is_never_our_successor() {
        let mut m = member(1);
        let t = Time::from_secs(1);
        let deaf = Relayed::default();
        m.heard_beacon(ProcessId(2), set(&[0, 2]), &deaf, t);
        assert_eq!(m.successor_in(m.view(t)), Some(ProcessId(0)));
        // Process 0 relays a row of process 2's that holds us, but an
        // older one: the newer row wins, whoever carried it.
        let stale = Relayed::new(set(&[2]), |_| {
            Some((Duration::from_millis(400), set(&[0, 1, 2])))
        });
        m.heard_beacon(
            ProcessId(0),
            set(&[0, 1, 2]),
            &stale,
            t + Duration::from_millis(300),
        );
        assert_eq!(m.successor_in(m.view(t)), Some(ProcessId(0)));
        // Alone with it, we have no successor at all.
        let mut pair = Membership::new(
            ProcessId(1),
            &pids(&[1, 2]),
            Duration::from_secs(2),
            Time::ZERO,
        );
        pair.heard_beacon(ProcessId(2), set(&[2]), &deaf, t);
        assert_eq!(pair.view(t), set(&[1, 2]));
        assert_eq!(pair.successor_in(pair.view(t)), None);
    }

    #[test]
    fn a_relayed_row_keeps_the_age_of_its_own_beacon_not_of_a_later_flood() {
        let link = Duration::from_millis(1);
        let (mut m, mut relayer) = (member(1), member(0));
        // Process 2 hears us at 1 s; its beacon at 1.5 s says it no
        // longer does, and reaches us but not the relayer, which hears
        // a flood from process 2 at 1.6 s instead.
        let (hears_us, deaf) = (set(&[0, 1, 2]), set(&[0, 2]));
        let none = Relayed::default();
        for to in [&mut m, &mut relayer] {
            to.heard_beacon(ProcessId(2), hears_us, &none, Time::from_secs(1) + link);
        }
        m.heard_beacon(ProcessId(2), deaf, &none, Time::from_millis(1_500) + link);
        relayer.heard_from(ProcessId(2), Time::from_millis(1_600) + link);
        let sent = Time::from_millis(1_800);
        let (_, relayed) = beacon(&relayer, sent);
        let entry = relayed.iter().find(|(p, ..)| *p == ProcessId(2));
        assert_eq!(
            entry,
            Some((ProcessId(2), Duration::from_millis(799), hears_us)),
            "the age of the beacon whose row it carries"
        );
        deliver(&mut m, &relayer, sent, link);
        let now = sent + link;
        assert!(m.is_alive(ProcessId(2), now));
        assert_eq!(
            m.successor_in(m.view(now)),
            Some(ProcessId(0)),
            "our newer row wins"
        );
    }

    #[test]
    fn singleton_home_has_no_successor() {
        let m = Membership::new(ProcessId(0), &[], Duration::from_secs(2), Time::ZERO);
        assert_eq!(m.successor_in(m.view(Time::ZERO)), None);
        assert_eq!(m.view(Time::from_secs(100)), set(&[0]));
    }

    #[test]
    fn late_construction_trusts_peers_from_now() {
        // A process recovering at t=80 must not suspect everyone
        // instantly (which would cause a spurious self-promotion).
        let m = Membership::new(
            ProcessId(2),
            &pids(&[0, 1, 2]),
            Duration::from_secs(2),
            Time::from_secs(80),
        );
        assert_eq!(m.view(Time::from_secs(81)), set(&[0, 1, 2]));
        assert_eq!(
            m.view(Time::from_secs(83)),
            set(&[2]),
            "then silence counts"
        );
    }

    #[test]
    fn duplicate_and_self_peers_deduplicated() {
        let m = Membership::new(
            ProcessId(1),
            &pids(&[0, 0, 1, 2, 2]),
            Duration::from_secs(2),
            Time::ZERO,
        );
        assert_eq!(m.peers(), set(&[0, 2]));
    }

    #[test]
    #[should_panic(expected = "a home holds at most 64 processes")]
    fn a_65th_process_is_refused_by_name_of_the_limit() {
        let home: Vec<ProcessId> = (0..65).map(ProcessId).collect();
        let _ = Membership::new(ProcessId(0), &home, Duration::from_secs(2), Time::ZERO);
    }
}
