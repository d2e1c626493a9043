//! Link and topology models for the home network.
//!
//! Two very different kinds of links exist in a smart home (paper
//! §2.1): the WiFi/TCP mesh between Rivulet processes — reliable and
//! in-order while up, but partitionable — and the low-power radio links
//! (Z-Wave, Zigbee, BLE) between sensors/actuators and processes —
//! range-limited, lossy, best-effort. [`Topology`] holds the state of
//! every ordered pair of actors and answers, per message, "does it
//! arrive, and when?".

use rand::rngs::StdRng;
use rand::Rng;
use rivulet_types::{Duration, Time};

use crate::actor::ActorId;

/// The broad class of an actor, determining the default parameters of
/// its links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActorClass {
    /// A Rivulet process (hub, TV, fridge, phone, …): linked to other
    /// processes via reliable in-order WiFi/TCP.
    Process,
    /// A sensor or actuator: linked to processes via lossy low-power
    /// radio; cannot talk to other devices.
    Device,
}

/// Parameters of one directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Fixed propagation + protocol-stack latency per message.
    pub base_latency: Duration,
    /// Additional latency per payload byte, in **nanoseconds**
    /// (serialization + transfer; dominates for the 10–20 KB camera
    /// events of Table 3). Stored as nanos because realistic values
    /// (0.4 µs/byte for 20 Mbit/s WiFi) are sub-microsecond.
    pub per_byte_nanos: u64,
    /// Independent probability that a given message is silently lost.
    /// Applied on every link, [`ActorClass::Process`]↔`Process` ones
    /// included; the defaults are 0, and experiments set it on device
    /// links only.
    pub loss: f64,
    /// Whether the link is administratively down (out of radio range,
    /// or severed by the current network partition).
    pub blocked: bool,
}

impl LinkConfig {
    /// Default inter-process WiFi/TCP link: ~2 ms base latency and
    /// ~0.4 µs/byte (≈ 20 Mbit/s effective), calibrated so that a
    /// one-hop 4 B event costs ~2 ms and a 20 KB camera frame ~10 ms,
    /// matching the delay ranges of paper Fig. 4.
    #[must_use]
    pub fn wifi() -> Self {
        Self {
            base_latency: Duration::from_micros(2_000),
            per_byte_nanos: PER_BYTE_WIFI_NANOS,
            loss: 0.0,
            blocked: false,
        }
    }

    /// Default sensor-radio link: ~1 ms base latency (Z-Wave frame
    /// time), ~2 µs/byte (low-power radios are slow), no loss until the
    /// experiment injects some.
    #[must_use]
    pub fn radio() -> Self {
        Self {
            base_latency: Duration::from_micros(1_000),
            per_byte_nanos: PER_BYTE_RADIO_NANOS,
            loss: 0.0,
            blocked: false,
        }
    }

    /// A severed link (out of range / different radio technology).
    #[must_use]
    pub fn severed() -> Self {
        Self {
            blocked: true,
            ..Self::radio()
        }
    }

    /// Latency for a message of `bytes` payload bytes.
    #[must_use]
    pub fn latency_for(&self, bytes: usize) -> Duration {
        let transfer_nanos = self.per_byte_nanos.saturating_mul(bytes as u64);
        self.base_latency + Duration::from_micros(transfer_nanos / 1_000)
    }
}

/// Per-byte latency of the WiFi mesh (400 ns/byte ≈ 20 Mbit/s).
const PER_BYTE_WIFI_NANOS: u64 = 400;
/// Per-byte latency of device radios (2 µs/byte ≈ 4 Mbit/s).
const PER_BYTE_RADIO_NANOS: u64 = 2_000;

/// What the topology decided about one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver at the given time.
    Deliver(Time),
    /// Silently dropped (loss, partition, out of range, dead endpoint).
    Drop(DropReason),
}

/// Why a message was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Random loss on a lossy link.
    RandomLoss,
    /// The link is blocked (range/partition/down).
    Blocked,
    /// The destination actor is crashed.
    DestinationDown,
}

/// The state of every link in the emulated home.
///
/// Per-pair state lives in dense per-sender rows indexed `[from][to]`
/// by [`ActorId`], which [`Topology::register`] hands out densely from
/// 0. A row starts empty and grows when a pair in it is first
/// overridden or carries its first FIFO message.
#[derive(Debug)]
pub struct Topology {
    classes: Vec<ActorClass>,
    /// Link overrides, `[from][to]`; `None`, or a cell past the row's
    /// end, means the class-derived default.
    overrides: Vec<Vec<Option<LinkConfig>>>,
    /// Partition group of each actor; `None` = no partition active.
    partition: Option<Vec<u32>>,
    /// Last scheduled delivery per ordered pair, `[from][to]`, for FIFO
    /// links.
    last_delivery: Vec<Vec<Time>>,
}

/// The `to` cell of a per-sender row, growing the row with `fill` to
/// reach it.
fn cell<T: Clone>(row: &mut Vec<T>, to: ActorId, fill: T) -> &mut T {
    let i = to.0 as usize;
    if row.len() <= i {
        row.resize(i + 1, fill);
    }
    &mut row[i]
}

impl Topology {
    /// Creates an empty topology.
    #[must_use]
    pub fn new() -> Self {
        Self {
            classes: Vec::new(),
            overrides: Vec::new(),
            partition: None,
            last_delivery: Vec::new(),
        }
    }

    /// Registers a new actor of the given class, returning its id.
    pub fn register(&mut self, class: ActorClass) -> ActorId {
        let id = ActorId(self.classes.len() as u32);
        self.classes.push(class);
        self.overrides.push(Vec::new());
        self.last_delivery.push(Vec::new());
        id
    }

    /// The class of `actor`.
    ///
    /// # Panics
    ///
    /// Panics if `actor` was not registered.
    #[must_use]
    pub fn class_of(&self, actor: ActorId) -> ActorClass {
        self.classes[actor.0 as usize]
    }

    /// The default link parameters between two classes.
    fn default_link(&self, from: ActorId, to: ActorId) -> LinkConfig {
        match (self.class_of(from), self.class_of(to)) {
            (ActorClass::Process, ActorClass::Process) => LinkConfig::wifi(),
            (ActorClass::Device, ActorClass::Device) => LinkConfig::severed(),
            _ => LinkConfig::radio(),
        }
    }

    /// Current effective configuration of the directed link `from → to`.
    #[must_use]
    pub fn link(&self, from: ActorId, to: ActorId) -> LinkConfig {
        self.overrides[from.0 as usize]
            .get(to.0 as usize)
            .copied()
            .flatten()
            .unwrap_or_else(|| self.default_link(from, to))
    }

    /// Replaces the configuration of the directed link `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if `from` was not registered.
    pub fn set_link(&mut self, from: ActorId, to: ActorId, config: LinkConfig) {
        *cell(&mut self.overrides[from.0 as usize], to, None) = Some(config);
    }

    /// Sets the loss probability of the directed link `from → to`,
    /// keeping its other parameters.
    pub fn set_loss(&mut self, from: ActorId, to: ActorId, loss: f64) {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        let mut cfg = self.link(from, to);
        cfg.loss = loss;
        self.set_link(from, to, cfg);
    }

    /// Blocks or unblocks the directed link `from → to`.
    pub fn set_blocked(&mut self, from: ActorId, to: ActorId, blocked: bool) {
        let mut cfg = self.link(from, to);
        cfg.blocked = blocked;
        self.set_link(from, to, cfg);
    }

    /// Imposes a network partition: actors in different groups cannot
    /// exchange messages. Actors absent from every group are
    /// **unaffected** (they can talk to everyone): a home WiFi-router
    /// failure partitions the IP mesh but not the device radios.
    /// Replaces any previous partition.
    pub fn set_partition(&mut self, groups: &[Vec<ActorId>]) {
        let mut assignment = vec![u32::MAX; self.classes.len()];
        for (g, members) in groups.iter().enumerate() {
            for m in members {
                assignment[m.0 as usize] = g as u32;
            }
        }
        self.partition = Some(assignment);
    }

    /// Heals any active partition.
    pub fn heal_partition(&mut self) {
        self.partition = None;
    }

    /// Whether a partition currently separates `a` and `b`.
    fn partitioned(&self, a: ActorId, b: ActorId) -> bool {
        match &self.partition {
            None => false,
            Some(assign) => {
                let (ga, gb) = (assign[a.0 as usize], assign[b.0 as usize]);
                ga != u32::MAX && gb != u32::MAX && ga != gb
            }
        }
    }

    /// Decides the fate of a message of `bytes` payload bytes sent at
    /// `now` from `from` to `to`. Inter-process links are FIFO: the
    /// returned delivery time never precedes that of an earlier message
    /// on the same ordered pair.
    pub fn route(
        &mut self,
        rng: &mut StdRng,
        now: Time,
        from: ActorId,
        to: ActorId,
        bytes: usize,
        destination_up: bool,
    ) -> Verdict {
        if !destination_up {
            return Verdict::Drop(DropReason::DestinationDown);
        }
        if self.partitioned(from, to) {
            return Verdict::Drop(DropReason::Blocked);
        }
        let cfg = self.link(from, to);
        if cfg.blocked {
            return Verdict::Drop(DropReason::Blocked);
        }
        if cfg.loss > 0.0 && rng.gen_bool(cfg.loss.min(1.0)) {
            return Verdict::Drop(DropReason::RandomLoss);
        }
        let mut at = now + cfg.latency_for(bytes);
        // FIFO ordering for the reliable inter-process mesh.
        let fifo =
            self.class_of(from) == ActorClass::Process && self.class_of(to) == ActorClass::Process;
        if fifo {
            let last = cell(&mut self.last_delivery[from.0 as usize], to, Time::ZERO);
            if at <= *last {
                at = *last + Duration::from_micros(1);
            }
            *last = at;
        }
        Verdict::Deliver(at)
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn topo3() -> (Topology, ActorId, ActorId, ActorId) {
        let mut t = Topology::new();
        let p0 = t.register(ActorClass::Process);
        let p1 = t.register(ActorClass::Process);
        let d = t.register(ActorClass::Device);
        (t, p0, p1, d)
    }

    #[test]
    fn class_defaults() {
        let (t, p0, p1, d) = topo3();
        assert_eq!(t.link(p0, p1), LinkConfig::wifi());
        assert_eq!(t.link(d, p0), LinkConfig::radio());
        assert_eq!(t.link(p0, d), LinkConfig::radio());
    }

    #[test]
    fn device_to_device_is_severed() {
        let mut t = Topology::new();
        let d0 = t.register(ActorClass::Device);
        let d1 = t.register(ActorClass::Device);
        assert!(t.link(d0, d1).blocked);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            t.route(&mut rng, Time::ZERO, d0, d1, 4, true),
            Verdict::Drop(DropReason::Blocked)
        );
    }

    #[test]
    fn latency_grows_with_size() {
        let cfg = LinkConfig::radio();
        assert!(cfg.latency_for(20_000) > cfg.latency_for(4));
        assert_eq!(cfg.latency_for(0), cfg.base_latency);
    }

    #[test]
    fn loss_drops_expected_fraction() {
        let (mut t, _, p1, d) = topo3();
        t.set_loss(d, p1, 0.5);
        let mut rng = StdRng::seed_from_u64(7);
        let mut delivered = 0;
        for _ in 0..10_000 {
            if matches!(
                t.route(&mut rng, Time::ZERO, d, p1, 4, true),
                Verdict::Deliver(_)
            ) {
                delivered += 1;
            }
        }
        // 50% ± 3% over 10k trials.
        assert!(
            (4_700..=5_300).contains(&delivered),
            "delivered {delivered}"
        );
    }

    #[test]
    fn loss_applies_to_process_links_too() {
        let (mut t, p0, p1, _) = topo3();
        t.set_loss(p0, p1, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(
                t.route(&mut rng, Time::ZERO, p0, p1, 4, true),
                Verdict::Drop(DropReason::RandomLoss)
            );
        }
        // The reverse direction keeps the lossless WiFi default.
        assert!(matches!(
            t.route(&mut rng, Time::ZERO, p1, p0, 4, true),
            Verdict::Deliver(_)
        ));
    }

    #[test]
    #[should_panic(expected = "loss must be a probability")]
    fn loss_out_of_range_panics() {
        let (mut t, p0, p1, _) = topo3();
        t.set_loss(p0, p1, 1.5);
    }

    #[test]
    fn partition_blocks_cross_group_only() {
        let (mut t, p0, p1, d) = topo3();
        t.set_partition(&[vec![p0], vec![p1, d]]);
        assert!(t.partitioned(p0, p1));
        assert!(!t.partitioned(p1, d));
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            t.route(&mut rng, Time::ZERO, p0, p1, 4, true),
            Verdict::Drop(DropReason::Blocked)
        );
        assert!(matches!(
            t.route(&mut rng, Time::ZERO, d, p1, 4, true),
            Verdict::Deliver(_)
        ));
        t.heal_partition();
        assert!(!t.partitioned(p0, p1));
    }

    #[test]
    fn crashed_destination_drops() {
        let (mut t, p0, p1, _) = topo3();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            t.route(&mut rng, Time::ZERO, p0, p1, 4, false),
            Verdict::Drop(DropReason::DestinationDown)
        );
    }

    #[test]
    fn process_links_are_fifo() {
        let (mut t, p0, p1, _) = topo3();
        // Send a large message then a small one: the small one must not
        // overtake on the FIFO TCP link.
        let mut rng = StdRng::seed_from_u64(0);
        let big = t.route(&mut rng, Time::ZERO, p0, p1, 1_000_000, true);
        let small = t.route(&mut rng, Time::ZERO, p0, p1, 1, true);
        let (Verdict::Deliver(t_big), Verdict::Deliver(t_small)) = (big, small) else {
            panic!("both should deliver");
        };
        assert!(t_small > t_big, "FIFO violated: {t_small:?} <= {t_big:?}");
    }

    #[test]
    fn radio_links_are_not_fifo() {
        let (mut t, p0, _, d) = topo3();
        let mut rng = StdRng::seed_from_u64(0);
        let big = t.route(&mut rng, Time::ZERO, d, p0, 1_000_000, true);
        let small = t.route(&mut rng, Time::ZERO, d, p0, 1, true);
        let (Verdict::Deliver(t_big), Verdict::Deliver(t_small)) = (big, small) else {
            panic!("both should deliver");
        };
        assert!(t_small < t_big, "radio should not serialize FIFO");
    }

    #[test]
    fn overrides_and_blocking() {
        let (mut t, p0, _, d) = topo3();
        t.set_blocked(d, p0, true);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            t.route(&mut rng, Time::ZERO, d, p0, 4, true),
            Verdict::Drop(DropReason::Blocked)
        );
        t.set_blocked(d, p0, false);
        assert!(matches!(
            t.route(&mut rng, Time::ZERO, d, p0, 4, true),
            Verdict::Deliver(_)
        ));
        let custom = LinkConfig {
            base_latency: Duration::from_millis(9),
            per_byte_nanos: 0,
            loss: 0.0,
            blocked: false,
        };
        t.set_link(d, p0, custom);
        assert_eq!(t.link(d, p0), custom);
        assert_eq!(t.link(p0, d), LinkConfig::radio(), "overrides are directed");
    }
}
