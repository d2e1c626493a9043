//! The execution-integrity ledger: hash-chained routine transitions.
//!
//! Every state transition of a routine instance (Staged → Committed /
//! Aborted → Compensated; see `rivulet-core`'s routine engine) appends
//! a [`LedgerEntry`] to the WAL as a CRC-framed
//! [`crate::record::WalRecord::Ledger`] record. Entries are
//! **SHA-256-chained**: each carries the hash of its predecessor
//! (`prev`) and its own hash over `prev || body`, with the chain
//! genesis derived from the per-home ledger seed (itself derived from
//! the fleet seed). After crash recovery any node can replay the chain
//! and prove that no firing was inserted, dropped, reordered, or
//! altered — the Ruledger-style tamper evidence of PAPERS.md.
//!
//! [`LedgerVerifier::verify`] walks a recovered chain and returns
//! either the first broken link (exact index plus reason) or an
//! [`AuditTrail`] that can answer "why did this actuator fire?" for any
//! [`CommandId`] in the chain.
//!
//! Chain layout of one entry's hash input (all wire-encoded with the
//! shared LEB128 codec, see DESIGN.md §4.7):
//!
//! ```text
//! hash = SHA-256( prev[32] || routine || instance || transition_tag
//!                 || at || commands[(actuator, command_id)...] )
//! genesis prev = SHA-256( "rivulet-ledger-genesis" || seed_le[8] )
//! ```

use std::collections::HashMap;
use std::fmt;

use rivulet_types::wire::{Wire, WireError, WireReader, WireWriter};
use rivulet_types::{ActuatorId, CommandId, RoutineId, Time};

use crate::sha256::Sha256;

/// Domain-separation prefix of the chain genesis hash.
const GENESIS_DOMAIN: &[u8] = b"rivulet-ledger-genesis";

/// A routine visibility-state transition, as recorded in the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RoutineTransition {
    /// The instance was created and staging commands were issued to
    /// every target actuator. The entry's `commands` list carries the
    /// full ordered step commands.
    Staged = 0,
    /// Every target actuator acknowledged staging; the commit was made
    /// durable *before* any fire frame was sent (write-ahead), so a
    /// recovered coordinator re-drives the idempotent commit.
    Committed = 1,
    /// The instance was abandoned (stage timeout, unreachable target,
    /// or crash recovery found it unfinished); staged commands are
    /// discarded and nothing fires.
    Aborted = 2,
    /// Post-abort safe-state restoration: the routine's declared
    /// compensation commands were issued as plain actuations. The
    /// entry's `commands` list carries them.
    Compensated = 3,
}

impl RoutineTransition {
    /// All transitions, in tag order.
    pub const ALL: [Self; 4] = [
        Self::Staged,
        Self::Committed,
        Self::Aborted,
        Self::Compensated,
    ];

    /// Stable lowercase name (obs keys, tables, JSON).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Staged => "staged",
            Self::Committed => "committed",
            Self::Aborted => "aborted",
            Self::Compensated => "compensated",
        }
    }
}

impl fmt::Display for RoutineTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Wire for RoutineTransition {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(*self as u8);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(Self::Staged),
            1 => Ok(Self::Committed),
            2 => Ok(Self::Aborted),
            3 => Ok(Self::Compensated),
            tag => Err(WireError::InvalidTag {
                ty: "RoutineTransition",
                tag,
            }),
        }
    }
}

/// One hash-chained ledger record: a routine instance's transition plus
/// the chain linkage proving its position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerEntry {
    /// The routine spec this instance fires.
    pub routine: RoutineId,
    /// The firing instance (per-coordinator counter).
    pub instance: u64,
    /// Which visibility-state transition this entry records.
    pub transition: RoutineTransition,
    /// Virtual time of the transition.
    pub at: Time,
    /// Commands covered by the transition: the full ordered step list
    /// for [`RoutineTransition::Staged`], the issued compensation
    /// commands for [`RoutineTransition::Compensated`], empty
    /// otherwise.
    pub commands: Vec<(ActuatorId, CommandId)>,
    /// Hash of the predecessor entry (or the genesis hash).
    pub prev: [u8; 32],
    /// `SHA-256(prev || body)` of this entry.
    pub hash: [u8; 32],
}

impl LedgerEntry {
    /// Recomputes this entry's hash from its `prev` and body fields.
    #[must_use]
    pub fn computed_hash(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(&self.prev);
        let mut w = WireWriter::new();
        self.encode_body(&mut w);
        h.update(&w.into_bytes());
        h.finalize()
    }

    fn encode_body(&self, w: &mut WireWriter) {
        self.routine.encode(w);
        self.instance.encode(w);
        self.transition.encode(w);
        self.at.encode(w);
        self.commands.encode(w);
    }
}

impl Wire for LedgerEntry {
    fn encode(&self, w: &mut WireWriter) {
        self.encode_body(w);
        w.put_slice(&self.prev);
        w.put_slice(&self.hash);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let routine = RoutineId::decode(r)?;
        let instance = u64::decode(r)?;
        let transition = RoutineTransition::decode(r)?;
        let at = Time::decode(r)?;
        let commands = Vec::decode(r)?;
        let mut prev = [0u8; 32];
        prev.copy_from_slice(r.get_slice(32)?);
        let mut hash = [0u8; 32];
        hash.copy_from_slice(r.get_slice(32)?);
        Ok(Self {
            routine,
            instance,
            transition,
            at,
            commands,
            prev,
            hash,
        })
    }
}

/// The appender side of the chain: holds the rolling head hash and
/// mints linked entries.
#[derive(Debug, Clone)]
pub struct LedgerChain {
    head: [u8; 32],
}

impl LedgerChain {
    /// The genesis hash of a chain seeded with `seed`.
    #[must_use]
    pub fn genesis(seed: u64) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(GENESIS_DOMAIN);
        h.update(&seed.to_le_bytes());
        h.finalize()
    }

    /// A fresh chain seeded per-home from the fleet seed.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        Self {
            head: Self::genesis(seed),
        }
    }

    /// Resumes a chain at a known head (e.g. the hash of the last
    /// recovered entry).
    #[must_use]
    pub fn from_head(head: [u8; 32]) -> Self {
        Self { head }
    }

    /// The hash the next appended entry will link to.
    #[must_use]
    pub fn head(&self) -> [u8; 32] {
        self.head
    }

    /// Mints the next chained entry and advances the head.
    pub fn append(
        &mut self,
        routine: RoutineId,
        instance: u64,
        transition: RoutineTransition,
        at: Time,
        commands: Vec<(ActuatorId, CommandId)>,
    ) -> LedgerEntry {
        let mut entry = LedgerEntry {
            routine,
            instance,
            transition,
            at,
            commands,
            prev: self.head,
            hash: [0u8; 32],
        };
        entry.hash = entry.computed_hash();
        self.head = entry.hash;
        entry
    }
}

/// The first broken link found by [`LedgerVerifier::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrokenLink {
    /// Index of the offending entry in the verified slice.
    pub index: usize,
    /// What broke: `"prev-hash mismatch"`, `"entry-hash mismatch"`, or
    /// a transition-ordering violation.
    pub reason: &'static str,
}

impl fmt::Display for BrokenLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "broken link at entry {}: {}", self.index, self.reason)
    }
}

/// A fully verified chain, queryable per actuator command.
#[derive(Debug, Clone)]
pub struct AuditTrail {
    entries: Vec<LedgerEntry>,
}

impl AuditTrail {
    /// Number of verified entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the chain is empty (vacuously verified).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All verified entries, in chain order.
    #[must_use]
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// The audit trail of one actuator command: every entry of the
    /// instance whose `Staged` or `Compensated` record names `command`,
    /// in chain order. Empty when the command never went through a
    /// routine.
    #[must_use]
    pub fn trail_for(&self, command: CommandId) -> Vec<&LedgerEntry> {
        let Some(key) = self
            .entries
            .iter()
            .find(|e| e.commands.iter().any(|(_, c)| *c == command))
            .map(|e| (e.routine, e.instance))
        else {
            return Vec::new();
        };
        self.entries
            .iter()
            .filter(|e| (e.routine, e.instance) == key)
            .collect()
    }
}

/// Chain verification: recomputes every link of a recovered ledger.
#[derive(Debug, Clone, Copy)]
pub struct LedgerVerifier;

impl LedgerVerifier {
    /// Verifies `entries` against a chain seeded with `seed`.
    ///
    /// Checks, per entry: the `prev` field matches the running head,
    /// the stored hash matches the recomputed `SHA-256(prev || body)`,
    /// and the transition is legal for its instance (a terminal
    /// transition requires a prior `Staged`, `Compensated` requires a
    /// prior `Aborted`, and no instance transitions twice into the same
    /// state).
    ///
    /// # Errors
    ///
    /// Returns the first [`BrokenLink`] — its `index` is exact, which
    /// is what the corruption tests and `bench --routine-table` assert.
    pub fn verify(seed: u64, entries: &[LedgerEntry]) -> Result<AuditTrail, BrokenLink> {
        Self::verify_from(LedgerChain::genesis(seed), entries)
    }

    /// Like [`LedgerVerifier::verify`], resuming from an explicit head
    /// hash (for chains whose prefix was compacted away behind a
    /// checkpointed head).
    ///
    /// # Errors
    ///
    /// Returns the first [`BrokenLink`] with its exact index.
    pub fn verify_from(head: [u8; 32], entries: &[LedgerEntry]) -> Result<AuditTrail, BrokenLink> {
        use RoutineTransition::{Aborted, Committed, Compensated, Staged};
        let mut head = head;
        // Every legal history is a prefix of Staged → Committed or
        // Staged → Aborted → Compensated, so an instance's latest
        // transition is all legality needs.
        let mut latest: HashMap<(RoutineId, u64), RoutineTransition> = HashMap::new();
        for (index, entry) in entries.iter().enumerate() {
            if entry.prev != head {
                return Err(BrokenLink {
                    index,
                    reason: "prev-hash mismatch",
                });
            }
            if entry.hash != entry.computed_hash() {
                return Err(BrokenLink {
                    index,
                    reason: "entry-hash mismatch",
                });
            }
            let key = (entry.routine, entry.instance);
            let legal = matches!(
                (latest.get(&key), entry.transition),
                (None, Staged) | (Some(Staged), Committed | Aborted) | (Some(Aborted), Compensated)
            );
            if !legal {
                return Err(BrokenLink {
                    index,
                    reason: "illegal transition order",
                });
            }
            latest.insert(key, entry.transition);
            head = entry.hash;
        }
        Ok(AuditTrail {
            entries: entries.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rivulet_types::wire::roundtrip;
    use rivulet_types::{OperatorId, ProcessId};

    /// The rule `verify_from` replaced: every `(instance, transition)`
    /// seen so far kept in a list and rescanned per entry.
    fn set_based_verify(seed: u64, entries: &[LedgerEntry]) -> Result<usize, BrokenLink> {
        let mut head = LedgerChain::genesis(seed);
        let mut seen: Vec<((RoutineId, u64), RoutineTransition)> = Vec::new();
        for (index, entry) in entries.iter().enumerate() {
            if entry.prev != head {
                return Err(BrokenLink {
                    index,
                    reason: "prev-hash mismatch",
                });
            }
            if entry.hash != entry.computed_hash() {
                return Err(BrokenLink {
                    index,
                    reason: "entry-hash mismatch",
                });
            }
            let key = (entry.routine, entry.instance);
            let has = |t: RoutineTransition| seen.iter().any(|(k, s)| *k == key && *s == t);
            let legal = match entry.transition {
                RoutineTransition::Staged => !has(RoutineTransition::Staged),
                RoutineTransition::Committed => {
                    has(RoutineTransition::Staged)
                        && !has(RoutineTransition::Committed)
                        && !has(RoutineTransition::Aborted)
                }
                RoutineTransition::Aborted => {
                    has(RoutineTransition::Staged)
                        && !has(RoutineTransition::Aborted)
                        && !has(RoutineTransition::Committed)
                }
                RoutineTransition::Compensated => {
                    has(RoutineTransition::Aborted) && !has(RoutineTransition::Compensated)
                }
            };
            if !legal {
                return Err(BrokenLink {
                    index,
                    reason: "illegal transition order",
                });
            }
            seen.push((key, entry.transition));
            head = entry.hash;
        }
        Ok(entries.len())
    }

    const TRANSITIONS: [RoutineTransition; 4] = [
        RoutineTransition::Staged,
        RoutineTransition::Committed,
        RoutineTransition::Aborted,
        RoutineTransition::Compensated,
    ];

    proptest! {
        /// Both rules accept and reject the same chains, at the same
        /// index. Each step names one of four instances (two routines ×
        /// two instance numbers) and a transition: with `pick` < 4 any
        /// transition, otherwise a legal next one when there is one, so
        /// long legal histories occur as well as every kind of misstep.
        #[test]
        fn the_latest_transition_rule_is_the_set_based_rule(
            steps in proptest::collection::vec((0u8..4, 0usize..8), 0..24),
        ) {
            let mut chain = LedgerChain::seeded(3);
            let mut latest: HashMap<u8, RoutineTransition> = HashMap::new();
            let entries: Vec<LedgerEntry> = steps
                .iter()
                .map(|&(key, pick)| {
                    let legal_next: &[RoutineTransition] = match latest.get(&key) {
                        None => &TRANSITIONS[..1],
                        Some(RoutineTransition::Staged) => &TRANSITIONS[1..3],
                        Some(RoutineTransition::Aborted) => &TRANSITIONS[3..],
                        Some(_) => &[],
                    };
                    let transition = match legal_next {
                        next if pick >= 4 && !next.is_empty() => next[pick % next.len()],
                        _ => TRANSITIONS[pick % 4],
                    };
                    latest.insert(key, transition);
                    let (routine, instance) = (RoutineId(u32::from(key / 2)), u64::from(key % 2));
                    chain.append(routine, instance, transition, Time::ZERO, Vec::new())
                })
                .collect();
            let ours = LedgerVerifier::verify(3, &entries).map(|trail| trail.len());
            prop_assert_eq!(ours, set_based_verify(3, &entries));
        }
    }

    fn cmd(seq: u64) -> (ActuatorId, CommandId) {
        (
            ActuatorId(seq as u32),
            CommandId::new(ProcessId(1), OperatorId(2), seq),
        )
    }

    fn sample_chain(seed: u64) -> Vec<LedgerEntry> {
        let mut chain = LedgerChain::seeded(seed);
        let steps = [
            (0, RoutineTransition::Staged, 10, vec![cmd(0), cmd(1)]),
            (0, RoutineTransition::Committed, 20, Vec::new()),
            (1, RoutineTransition::Staged, 30, vec![cmd(2)]),
            (1, RoutineTransition::Aborted, 40, Vec::new()),
            (1, RoutineTransition::Compensated, 41, vec![cmd(3)]),
        ];
        steps
            .into_iter()
            .map(|(instance, transition, at, cmds)| {
                chain.append(
                    RoutineId(1),
                    instance,
                    transition,
                    Time::from_millis(at),
                    cmds,
                )
            })
            .collect()
    }

    #[test]
    fn entry_wire_roundtrip() {
        for e in sample_chain(7) {
            roundtrip(&e);
        }
    }

    #[test]
    fn valid_chain_verifies_and_answers_audits() {
        let entries = sample_chain(7);
        let trail = LedgerVerifier::verify(7, &entries).expect("valid chain");
        assert_eq!(trail.len(), 5);
        // The command staged in instance 0 maps to instance 0's
        // Staged + Committed entries.
        let t = trail.trail_for(CommandId::new(ProcessId(1), OperatorId(2), 0));
        assert_eq!(t.len(), 2);
        assert_eq!(t[1].transition, RoutineTransition::Committed);
        // The compensation command maps to instance 1's full life.
        let t = trail.trail_for(CommandId::new(ProcessId(1), OperatorId(2), 3));
        assert_eq!(t.len(), 3);
        assert_eq!(t[2].transition, RoutineTransition::Compensated);
        // Unknown commands have no trail.
        assert!(trail
            .trail_for(CommandId::new(ProcessId(9), OperatorId(9), 9))
            .is_empty());
    }

    #[test]
    fn wrong_seed_breaks_at_index_zero() {
        let entries = sample_chain(7);
        let broken = LedgerVerifier::verify(8, &entries).unwrap_err();
        assert_eq!(broken.index, 0);
        assert_eq!(broken.reason, "prev-hash mismatch");
    }

    #[test]
    fn tampered_entry_is_detected_at_its_exact_index() {
        let entries = sample_chain(7);
        for k in 0..entries.len() {
            let mut tampered = entries.clone();
            tampered[k].at += rivulet_types::Duration::from_micros(1);
            let broken = LedgerVerifier::verify(7, &tampered).unwrap_err();
            assert_eq!(broken.index, k, "tampering entry {k}");
            assert_eq!(broken.reason, "entry-hash mismatch");
        }
    }

    #[test]
    fn dropped_and_reordered_entries_are_detected() {
        let entries = sample_chain(7);
        // Drop the middle entry: the successor's prev no longer links.
        let mut dropped = entries.clone();
        dropped.remove(1);
        let broken = LedgerVerifier::verify(7, &dropped).unwrap_err();
        assert_eq!(broken.index, 1);
        assert_eq!(broken.reason, "prev-hash mismatch");
        // Swap two entries.
        let mut swapped = entries.clone();
        swapped.swap(2, 3);
        let broken = LedgerVerifier::verify(7, &swapped).unwrap_err();
        assert_eq!(broken.index, 2);
        // Inserted forged entry (self-consistent hash, wrong link).
        let mut forged = entries.clone();
        let mut rogue = LedgerChain::seeded(99);
        forged.insert(
            2,
            rogue.append(
                RoutineId(9),
                9,
                RoutineTransition::Staged,
                Time::from_millis(35),
                Vec::new(),
            ),
        );
        let broken = LedgerVerifier::verify(7, &forged).unwrap_err();
        assert_eq!(broken.index, 2);
        assert_eq!(broken.reason, "prev-hash mismatch");
    }

    #[test]
    fn illegal_transition_orders_are_rejected() {
        // Commit without a stage.
        let mut chain = LedgerChain::seeded(1);
        let orphan = vec![chain.append(
            RoutineId(1),
            0,
            RoutineTransition::Committed,
            Time::ZERO,
            Vec::new(),
        )];
        let broken = LedgerVerifier::verify(1, &orphan).unwrap_err();
        assert_eq!(broken.index, 0);
        assert_eq!(broken.reason, "illegal transition order");
        // Commit after abort.
        let mut chain = LedgerChain::seeded(1);
        let entries = vec![
            chain.append(
                RoutineId(1),
                0,
                RoutineTransition::Staged,
                Time::ZERO,
                vec![],
            ),
            chain.append(
                RoutineId(1),
                0,
                RoutineTransition::Aborted,
                Time::ZERO,
                vec![],
            ),
            chain.append(
                RoutineId(1),
                0,
                RoutineTransition::Committed,
                Time::ZERO,
                vec![],
            ),
        ];
        let broken = LedgerVerifier::verify(1, &entries).unwrap_err();
        assert_eq!(broken.index, 2);
        assert_eq!(broken.reason, "illegal transition order");
    }

    #[test]
    fn verify_from_resumes_mid_chain() {
        let entries = sample_chain(7);
        let head = entries[1].hash;
        let trail = LedgerVerifier::verify_from(head, &entries[2..]).expect("suffix verifies");
        assert_eq!(trail.len(), 3);
    }
}
