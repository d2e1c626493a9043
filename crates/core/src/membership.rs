//! Keep-alive membership and local views.
//!
//! Rivulet "must work with any number of processes, including home
//! environments with only one or two processes", so it cannot use
//! majority-based agreed views; each process maintains a **local view**
//! from keep-alive silence, and views at different processes may
//! disagree (§4.1). A process never suspects itself.
//!
//! Views may also disagree one way round: a peer we hear may not hear
//! us. Each keep-alive carries its sender's view, so a process knows
//! which peers count it, and [`Membership::mutual_view`] keeps only
//! those — the processes it can exchange with both ways, which is what
//! the beacon sync needs of a partner.

use std::collections::BTreeMap;

use rivulet_types::{Duration, ProcSet, ProcessId, Time};

/// Interval between keep-alive beacons to every peer (§4.1's "every
/// *t* seconds"; 500 ms in the evaluation, §8.4). The same periodic
/// tick also drives view maintenance and election, and each beacon is a
/// sync query (§4.1).
pub const KEEPALIVE_INTERVAL: Duration = Duration::from_millis(500);

/// One process's failure detector and local view.
#[derive(Debug)]
pub struct Membership {
    me: ProcessId,
    peers: ProcSet,
    last_heard: BTreeMap<ProcessId, Time>,
    /// Peers whose last keep-alive had `me` in its view; every peer
    /// until its first keep-alive says otherwise.
    hears_me: ProcSet,
    failure_timeout: Duration,
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
        let peers = all.without(me);
        Self {
            me,
            peers,
            last_heard: peers.iter().map(|p| (p, now)).collect(),
            hears_me: peers,
            failure_timeout,
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
        if from == self.me {
            return;
        }
        if let Some(t) = self.last_heard.get_mut(&from) {
            if now > *t {
                *t = now;
            }
        }
    }

    /// Records the view a keep-alive from `from` carried: whether that
    /// peer hears us. Unknown senders are ignored.
    pub fn heard_view(&mut self, from: ProcessId, view: ProcSet) {
        self.hears_me.remove(from);
        if view.contains(self.me) && self.peers.contains(from) {
            self.hears_me.insert(from);
        }
    }

    /// The local view less the peers whose last keep-alive did not
    /// count us: the processes we hear that also hear us. It is the
    /// view our keep-alives carry.
    #[must_use]
    pub fn mutual_view(&self, now: Time) -> ProcSet {
        self.view(now).intersection(self.hears_me.with(self.me))
    }

    /// A peer is suspected once `failure_timeout` has elapsed since it
    /// was last heard.
    fn fresh(&self, last: Time, now: Time) -> bool {
        now.duration_since(last) < self.failure_timeout
    }

    /// Whether `p` is currently believed alive. `me` is always alive
    /// ("a process never suspects itself", §4.1).
    #[must_use]
    pub fn is_alive(&self, p: ProcessId, now: Time) -> bool {
        if p == self.me {
            return true;
        }
        match self.last_heard.get(&p) {
            None => false,
            Some(last) => self.fresh(*last, now),
        }
    }

    /// The local view `vᵢ` at `now`: all live processes including
    /// `me`.
    #[must_use]
    pub fn view(&self, now: Time) -> ProcSet {
        let live = self.last_heard.iter();
        live.filter(|(_, last)| self.fresh(**last, now))
            .fold(ProcSet::singleton(self.me), |view, (p, _)| view.with(*p))
    }

    /// The ring successor of `me` within `view`: the next process id
    /// cyclically, `None` when `me` is alone. Taking the view as an
    /// argument lets an activation that needs both build it once.
    #[must_use]
    pub fn successor_in(&self, view: ProcSet) -> Option<ProcessId> {
        view.successor_of(self.me)
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

    #[test]
    fn the_mutual_view_drops_a_peer_whose_view_drops_us() {
        let mut m = m3();
        let t = Time::from_secs(1);
        assert_eq!(m.mutual_view(t), set(&[0, 1, 2]), "trusted until told");
        m.heard_view(ProcessId(2), set(&[0, 2]));
        assert_eq!(m.mutual_view(t), set(&[0, 1]));
        assert_eq!(m.view(t), set(&[0, 1, 2]), "we still hear it");
        m.heard_view(ProcessId(2), set(&[1, 2]));
        m.heard_view(ProcessId(42), set(&[0]));
        assert_eq!(m.mutual_view(t), set(&[0, 1, 2]));
        assert_eq!(
            m.mutual_view(Time::from_secs(5)),
            set(&[1]),
            "silence counts too"
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
