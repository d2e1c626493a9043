//! The Rivulet delivery service: Gap and Gapless event delivery.
//!
//! The delivery service has two components (§4): *event ingest*
//! (fetching events from sensors, including coordinated polling) and
//! *event forwarding* (replicating and delivering events to active
//! logic nodes). Each protocol is implemented as a pure state machine
//! that consumes protocol inputs and returns [`Action`]s; the process
//! actor translates actions into network sends. This keeps every
//! protocol unit-testable without a driver.

pub mod gap;
pub mod gapless;
pub mod polling;
pub mod rbcast;

use rivulet_types::{Event, ProcSet, ProcessId};

use crate::messages::{ProcMsg, RingMsg};

/// The delivery guarantee chosen per sensor input (§2.2, Table 1),
/// ordered by strength: `Gap < Gapless`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Delivery {
    /// Best-effort: low overhead, may lose events on failures (§4.2).
    Gap,
    /// Post-ingest guaranteed: any event received by any correct
    /// process is eventually delivered to interested apps (§4.1).
    Gapless,
}

impl std::fmt::Display for Delivery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Delivery::Gap => write!(f, "Gap"),
            Delivery::Gapless => write!(f, "Gapless"),
        }
    }
}

/// A side effect requested by a delivery state machine.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Send a protocol message to a peer process.
    Send {
        /// Destination process.
        to: ProcessId,
        /// The message.
        msg: ProcMsg,
    },
    /// Send a Gapless ring message to a peer.
    Ring {
        /// Destination process.
        to: ProcessId,
        /// The message.
        ring: RingMsg,
    },
    /// Send one protocol message to several peers. The process layer
    /// encodes the message once and cheap-clones the frozen bytes to
    /// every destination, so an n-peer flood costs one encode instead
    /// of n.
    Fanout {
        /// Destination processes, excluding the sender.
        to: ProcSet,
        /// The message.
        msg: ProcMsg,
    },
    /// The event is newly known at this process: hand it to the local
    /// logic node (the process delivers it only if its logic node is
    /// active).
    Deliver {
        /// The event.
        event: Event,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_displays() {
        assert_eq!(Delivery::Gap.to_string(), "Gap");
        assert_eq!(Delivery::Gapless.to_string(), "Gapless");
    }
}
