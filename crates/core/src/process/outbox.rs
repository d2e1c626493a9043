//! The per-activation send queue behind encode-once fan-out and frame
//! coalescing.

use std::sync::Arc;

use bytes::Bytes;
use rivulet_net::metrics::FanoutStats;
use rivulet_types::wire::{Wire, WriterPool};
use rivulet_types::ProcessId;

use crate::messages::Frame;

/// Whether two part lists are clones of the same encodings: pointer
/// identity of live buffers implies identical bytes (both lists are
/// held alive by the caller, so an address can't be recycled).
fn same_parts(a: &[Bytes], b: &[Bytes]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.as_ptr() == y.as_ptr() && x.len() == y.len())
}

/// Protocol messages are encoded exactly once into pooled buffers;
/// every queued entry is a cheap [`Bytes`] clone. At the end of the
/// activation, entries for the same destination are folded into one
/// multi-command [`Frame`], so a cascade of ring forwards, acks, and
/// sync traffic to one peer costs one network message. Grouping order
/// derives purely from queue order within the virtual-time activation,
/// keeping batching deterministic.
pub(super) struct Outbox {
    /// `(destination, pre-encoded message)` in queue order.
    queue: Vec<(ProcessId, Bytes)>,
    /// Scratch for per-destination grouping, reused across activations
    /// so steady-state flushing allocates nothing.
    groups: Vec<(ProcessId, Vec<Bytes>)>,
    /// Emptied part lists returned from previous flushes, recycled as
    /// the next activation's group storage.
    spare_parts: Vec<Vec<Bytes>>,
    pool: WriterPool,
    stats: Arc<FanoutStats>,
}

impl Outbox {
    pub(super) fn new(stats: Arc<FanoutStats>) -> Self {
        Self {
            queue: Vec::new(),
            groups: Vec::new(),
            spare_parts: Vec::new(),
            pool: WriterPool::new(),
            stats,
        }
    }

    /// Queues one message to one peer. The message is encoded here,
    /// once, into a pooled buffer; transmission (and same-destination
    /// coalescing) happens in [`Outbox::flush`].
    pub(super) fn queue(&mut self, to: ProcessId, msg: &impl Wire) {
        self.queue.push((to, self.pool.encode(msg)));
    }

    /// Encode-once fan-out: encodes `msg` a single time and queues a
    /// cheap [`Bytes`] clone per destination, instead of re-encoding
    /// for every peer. No destination, no encoding.
    pub(super) fn fanout(&mut self, to: impl IntoIterator<Item = ProcessId>, msg: &impl Wire) {
        let first = self.queue.len();
        let mut payload: Option<Bytes> = None;
        for peer in to {
            let payload = payload.get_or_insert_with(|| self.pool.encode(msg));
            self.queue.push((peer, payload.clone()));
        }
        if let Some(payload) = payload {
            let extra = self.queue.len() - first - 1;
            if extra > 0 {
                self.stats
                    .record_encode_reuse((payload.len() * extra) as u64);
            }
        }
    }

    /// Drains the queue through `send` at the end of an activation.
    /// Messages to the same destination are folded into one
    /// multi-command [`Frame`] (frame assembly concatenates the
    /// already-encoded parts — nothing is re-encoded). Both the
    /// grouping and its order are pure functions of the activation's
    /// queue, so delivery stays deterministic.
    pub(super) fn flush(&mut self, mut send: impl FnMut(ProcessId, Bytes)) {
        // Fast path: the common activation queues a single message
        // (one ring forward, one ack, one poll) — nothing to group.
        if self.queue.len() <= 1 {
            if let Some((to, payload)) = self.queue.pop() {
                send(to, payload);
            }
            return;
        }
        // Group by destination in first-appearance order. Destinations
        // are few (home-scale peer counts), so a linear scan beats a
        // map here and preserves order for free. Group storage is
        // recycled scratch: drained queue, reused group vector, and
        // part lists returned by earlier flushes.
        for (to, payload) in self.queue.drain(..) {
            match self.groups.iter_mut().find(|(p, _)| *p == to) {
                Some((_, parts)) => parts.push(payload),
                None => {
                    let mut parts = self.spare_parts.pop().unwrap_or_default();
                    parts.push(payload);
                    self.groups.push((to, parts));
                }
            }
        }
        // Floods queue the *same* parts (cheap clones of one encoding)
        // for every destination, so the assembled frame can itself be
        // encoded once and cheap-cloned: identity of the backing
        // buffers proves the byte content is identical. `last_multi`
        // remembers the previous multi-part group (still alive in the
        // scratch) and its assembled frame.
        let mut last_multi: Option<(usize, Bytes)> = None;
        for i in 0..self.groups.len() {
            let (to, parts) = &self.groups[i];
            if let [payload] = parts.as_slice() {
                send(*to, payload.clone());
                continue;
            }
            self.stats.record_frame(parts.len());
            let framed = match &last_multi {
                Some((prev, frame)) if same_parts(&self.groups[*prev].1, parts) => {
                    self.stats.record_encode_reuse(frame.len() as u64);
                    frame.clone()
                }
                _ => {
                    let mut w = self.pool.checkout();
                    let framed = Frame::encode_parts(&mut w, parts);
                    self.pool.put_back(w);
                    last_multi = Some((i, framed.clone()));
                    framed
                }
            };
            send(*to, framed);
        }
        // Recycle the scratch: drop the queued `Bytes` clones but keep
        // every vector's capacity for the next activation.
        for (_, mut parts) in self.groups.drain(..) {
            parts.clear();
            self.spare_parts.push(parts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::RingMsg;
    use rivulet_types::{Event, EventId, EventKind, ProcSet, SensorId, Time};

    fn outbox() -> (Outbox, Arc<FanoutStats>) {
        let stats = Arc::new(FanoutStats::default());
        (Outbox::new(Arc::clone(&stats)), stats)
    }

    fn ring(seq: u64) -> RingMsg {
        let id = EventId::new(SensorId(3), seq);
        RingMsg {
            event: Event::new(id, EventKind::Motion, Time::from_millis(seq)),
            seen: ProcSet::singleton(ProcessId(0)),
            need: [ProcessId(1), ProcessId(2)].into_iter().collect(),
        }
    }

    fn flushed(outbox: &mut Outbox) -> Vec<(ProcessId, Bytes)> {
        let mut sent = Vec::new();
        outbox.flush(|to, payload| sent.push((to, payload)));
        sent
    }

    #[test]
    fn a_single_message_leaves_unframed() {
        let (mut outbox, stats) = outbox();
        outbox.queue(ProcessId(1), &ring(7));
        let sent = flushed(&mut outbox);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].0, ProcessId(1));
        assert!(!Frame::sniff(&sent[0].1));
        assert_eq!(RingMsg::from_shared_bytes(&sent[0].1).unwrap(), ring(7));
        assert_eq!(stats.snapshot().frames_coalesced, 0);
        assert!(flushed(&mut outbox).is_empty(), "the queue was drained");
    }

    #[test]
    fn two_messages_to_one_peer_become_one_frame_in_order() {
        let (mut outbox, stats) = outbox();
        outbox.queue(ProcessId(1), &ring(1));
        outbox.queue(ProcessId(1), &ring(2));
        let sent = flushed(&mut outbox);
        assert_eq!(sent.len(), 1);
        assert!(Frame::sniff(&sent[0].1));
        let mut msgs: Vec<RingMsg> = Vec::new();
        Frame::decode_shared_into(&sent[0].1, &mut msgs).unwrap();
        assert_eq!(msgs, vec![ring(1), ring(2)]);
        let snap = stats.snapshot();
        assert_eq!((snap.frames_coalesced, snap.messages_avoided), (1, 1));
    }

    #[test]
    fn a_fanout_of_the_same_parts_encodes_the_frame_once() {
        let (mut outbox, stats) = outbox();
        let peers = [ProcessId(1), ProcessId(2), ProcessId(3)];
        outbox.fanout(peers, &ring(1));
        outbox.fanout(peers, &ring(2));
        let msgs = (ring(1).to_bytes().len() + ring(2).to_bytes().len()) as u64;
        assert_eq!(
            stats.snapshot().encode_bytes_saved,
            2 * msgs,
            "each message was encoded for one peer and cloned to two"
        );
        let sent = flushed(&mut outbox);
        assert_eq!(sent.len(), 3);
        for (_, frame) in &sent[1..] {
            assert_eq!(frame.as_ptr(), sent[0].1.as_ptr(), "one shared encoding");
        }
        let frame_len = sent[0].1.len() as u64;
        let snap = stats.snapshot();
        assert_eq!(snap.frames_coalesced, 3);
        assert_eq!(snap.encode_bytes_saved, 2 * msgs + 2 * frame_len);
    }

    #[test]
    fn destinations_leave_in_first_appearance_order() {
        let (mut outbox, _) = outbox();
        outbox.queue(ProcessId(4), &ring(1));
        outbox.fanout([ProcessId(2), ProcessId(4), ProcessId(1)], &ring(2));
        outbox.queue(ProcessId(2), &ring(3));
        outbox.fanout([], &ring(4));
        let sent = flushed(&mut outbox);
        let order: Vec<ProcessId> = sent.iter().map(|(to, _)| *to).collect();
        assert_eq!(order, [ProcessId(4), ProcessId(2), ProcessId(1)]);
        assert!(!Frame::sniff(&sent[2].1), "a lone part stays unframed");
    }
}
