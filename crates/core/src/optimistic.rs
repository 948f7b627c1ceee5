//! The optimistic cross-domain protocol (Section 6).
//!
//! Each involved height-1 domain orders and speculatively executes a
//! cross-domain transaction independently, without any cross-domain
//! communication on the critical path.  The transaction (and the list of
//! later transactions that depend on it) travels up the hierarchy inside the
//! per-round `block` messages; ancestor domains — and ultimately the LCA of
//! the involved domains — check that overlapping domains ordered concurrent
//! cross-domain transactions consistently.  Inconsistent (or never fully
//! reported) transactions are aborted deterministically, which rolls back the
//! transaction and everything that read or wrote the data it touched.

use crate::command::Cmd;
use crate::config::CrossDomainMode;
use crate::host::HostedReplica;
use crate::messages::SaguaroMsg;
use crate::node::SaguaroNode;
use saguaro_ledger::TxStatus;
use saguaro_net::Context;
use saguaro_types::hash::{FxHashMap, FxHashSet};
use saguaro_types::{DomainId, SeqNo, Transaction, TxId};
use std::collections::BTreeMap;

/// Rounds after which the LCA aborts an optimistic cross-domain transaction
/// that some involved domain still has not reported (Section 6: a transaction
/// "never fully reported" is aborted deterministically).
pub(crate) const OPTIMISTIC_ABORT_ROUNDS: u64 = 8;

/// Height-1 bookkeeping for speculatively committed cross-domain transactions.
///
/// Every pending transaction carries the union of the keys written / read by
/// itself and its (transitive) dependents.  A new execution conflicts with a
/// pending entry iff one of them writes a key the other reads or writes,
/// checked against those unions — the union distributes over the "any
/// dependent conflicts" existential.  The
/// unions are stored inverted, key → pending ids, so an execution looks up
/// the (at most two) keys it touches instead of walking every pending entry.
#[derive(Default, Debug)]
pub struct OptTracker {
    /// Undecided speculatively committed cross-domain transactions.
    pending: FxHashMap<TxId, PendingOpt>,
    /// Key → pending transactions whose write union holds it.
    writers: FxHashMap<String, Vec<TxId>>,
    /// Key → pending transactions whose read union holds it.
    readers: FxHashMap<String, Vec<TxId>>,
    /// Position of each transaction's latest speculative execution (rollback
    /// runs in reverse execution order).
    exec_pos: FxHashMap<TxId, usize>,
    /// Speculative executions recorded so far: the next position.
    executions: usize,
}

#[derive(Debug, Default)]
struct PendingOpt {
    /// Ids of later transactions with a (transitive) data dependency on the
    /// tracked transaction, in execution order.
    dependent_ids: Vec<TxId>,
    /// The keys this entry is listed under in `writers` / `readers`.
    writes: Vec<String>,
    reads: Vec<String>,
}

/// Lists `id` under each of `keys` in `index` (once), remembering the keys
/// in `listed` so the entry can be unlisted when it is decided.
fn list_under<'a>(
    index: &mut FxHashMap<String, Vec<TxId>>,
    listed: &mut Vec<String>,
    id: TxId,
    keys: impl Iterator<Item = &'a str>,
) {
    for key in keys {
        match index.get_mut(key) {
            Some(ids) if ids.contains(&id) => {}
            Some(ids) => {
                ids.push(id);
                listed.push(key.to_string());
            }
            None => {
                index.insert(key.to_string(), vec![id]);
                listed.push(key.to_string());
            }
        }
    }
}

/// Removes `id` from the buckets of `keys`, dropping buckets it empties.
fn unlist(index: &mut FxHashMap<String, Vec<TxId>>, id: TxId, keys: &[String]) {
    for key in keys {
        if let Some(ids) = index.get_mut(key) {
            ids.retain(|listed| *listed != id);
            if ids.is_empty() {
                index.remove(key);
            }
        }
    }
}

impl OptTracker {
    /// Number of undecided speculative transactions.
    #[cfg(test)]
    pub(crate) fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// True if the transaction is still awaiting a decision.
    pub fn is_pending(&self, id: TxId) -> bool {
        self.pending.contains_key(&id)
    }

    /// Registers a newly executed transaction: records its execution
    /// position and adds it to the dependent list of every pending
    /// speculative transaction it conflicts with.
    pub(crate) fn record_execution(&mut self, tx: &Transaction) {
        self.exec_pos.insert(tx.id, self.executions);
        self.executions += 1;
        // Conflict over the union sets: member-write ∩ tx-read/write, or
        // member-read ∩ tx-write.
        let mut hit: Vec<TxId> = Vec::new();
        for key in tx.op.write_set() {
            hit.extend(self.writers.get(key).into_iter().flatten());
            hit.extend(self.readers.get(key).into_iter().flatten());
        }
        for key in tx.op.read_set() {
            hit.extend(self.writers.get(key).into_iter().flatten());
        }
        hit.sort_unstable();
        hit.dedup();
        for id in hit {
            if id == tx.id {
                continue;
            }
            let p = self.pending.get_mut(&id).expect("listed ids are pending");
            p.dependent_ids.push(tx.id);
            list_under(&mut self.writers, &mut p.writes, id, tx.op.write_set());
            list_under(&mut self.readers, &mut p.reads, id, tx.op.read_set());
        }
    }

    /// Starts tracking a speculative cross-domain transaction.
    pub(crate) fn track(&mut self, tx: &Transaction) {
        if self.pending.contains_key(&tx.id) {
            return;
        }
        let mut entry = PendingOpt::default();
        list_under(
            &mut self.writers,
            &mut entry.writes,
            tx.id,
            tx.op.write_set(),
        );
        list_under(&mut self.readers, &mut entry.reads, tx.id, tx.op.read_set());
        self.pending.insert(tx.id, entry);
    }

    /// Finalises a decision, returning the set of transactions to roll back
    /// (the transaction itself plus its dependents, in reverse execution
    /// order) when the decision is an abort.
    fn decide(&mut self, id: TxId, abort: bool) -> Vec<TxId> {
        let Some(entry) = self.pending.remove(&id) else {
            return Vec::new();
        };
        unlist(&mut self.writers, id, &entry.writes);
        unlist(&mut self.readers, id, &entry.reads);
        if !abort {
            return Vec::new();
        }
        let mut victims = entry.dependent_ids;
        victims.push(id);
        // Roll back in reverse execution order.
        victims.sort_by_key(|t| {
            std::cmp::Reverse(self.exec_pos.get(t).copied().unwrap_or(usize::MAX))
        });
        victims.dedup();
        victims
    }
}

/// The validation logic run by height-2+ domains on the cross-domain
/// transactions reported by their child blocks.
///
/// Only *undecided* transactions are kept in the `observed` table; decided
/// ids move to a flat set so a transaction whose remaining reports straggle
/// in after the decision is not re-admitted.  This keeps every
/// [`OptimisticValidator::check`] call proportional to the number of
/// still-pending transactions instead of every transaction ever seen.
#[derive(Default, Debug)]
pub struct OptimisticValidator {
    observed: BTreeMap<TxId, ObservedTx>,
    /// Transactions already committed or aborted; late reports are ignored.
    decided_ids: FxHashSet<TxId>,
}

#[derive(Debug)]
struct ObservedTx {
    involved: Vec<DomainId>,
    /// Local sequence number reported by each child that has reported so far.
    seqs: BTreeMap<DomainId, SeqNo>,
    first_round: u64,
    decided: bool,
    /// Memoized `is_lca(involved)` verdict: the hierarchy is fixed for the
    /// lifetime of a run, so the LCA walk is done once per transaction
    /// instead of once per (transaction, check) pair.
    lca_cached: Option<bool>,
}

/// A decision produced by the validator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptDecision {
    /// All involved domains reported the transaction consistently; commit it.
    Commit(TxId, Vec<DomainId>),
    /// An ordering inconsistency (or report timeout) was found; abort it.
    Abort(TxId, Vec<DomainId>),
}

impl OptimisticValidator {
    /// Number of cross-domain transactions currently tracked.
    #[cfg(test)]
    pub(crate) fn tracked(&self) -> usize {
        self.observed.len()
    }

    /// Records that `child` reported `tx` at local sequence `seq` in `round`.
    pub fn observe(&mut self, tx: &Transaction, child: DomainId, seq: SeqNo, round: u64) {
        if self.decided_ids.contains(&tx.id) {
            return;
        }
        let entry = self.observed.entry(tx.id).or_insert_with(|| ObservedTx {
            involved: tx.involved_domains().to_vec(),
            seqs: BTreeMap::new(),
            first_round: round,
            decided: false,
            lca_cached: None,
        });
        entry.seqs.entry(child).or_insert(seq);
    }

    /// Runs the consistency checks.  `is_lca` tells the validator whether the
    /// calling domain is the LCA of a given involved-domain set (only the LCA
    /// issues commits and timeout aborts; any ancestor may issue an
    /// inconsistency abort — "intermediate domains ... early abort in case of
    /// inconsistency").
    pub fn check(
        &mut self,
        is_lca: impl Fn(&[DomainId]) -> bool,
        current_round: u64,
        abort_after_rounds: u64,
    ) -> Vec<OptDecision> {
        let mut decisions = Vec::new();
        // 1. Pairwise ordering consistency on domains common to two pending
        //    transactions.
        self.ordering_abort_scan(&mut decisions);
        // 2. Commit fully reported transactions / abort stale ones (LCA only).
        for (id, o) in self.observed.iter_mut() {
            if o.decided {
                continue;
            }
            let at_lca = *o.lca_cached.get_or_insert_with(|| is_lca(&o.involved));
            if !at_lca {
                continue;
            }
            let fully_reported = o.involved.iter().all(|d| o.seqs.contains_key(d));
            if fully_reported {
                o.decided = true;
                decisions.push(OptDecision::Commit(*id, o.involved.clone()));
            } else if current_round.saturating_sub(o.first_round) > abort_after_rounds {
                o.decided = true;
                decisions.push(OptDecision::Abort(*id, o.involved.clone()));
            }
        }
        // 3. Retire decided transactions from the pending table so later
        //    checks and straggling reports never walk them again.
        for decision in &decisions {
            let id = match decision {
                OptDecision::Commit(id, _) | OptDecision::Abort(id, _) => *id,
            };
            self.observed.remove(&id);
            self.decided_ids.insert(id);
        }
        decisions
    }

    /// Finds every inconsistently ordered pair of pending transactions and
    /// aborts the higher-id member of each.
    ///
    /// Two transactions are inconsistent iff two domains they were both
    /// reported by ordered them differently, i.e. iff some *domain-pair
    /// bucket* contains the two with inverted `(seq, seq)` coordinates.
    /// Bucketing turns the global quadratic scan over all pending
    /// transactions into per-bucket work that is linear (one sorted
    /// monotonicity pass) when a bucket holds no inversion — the common
    /// case — and pairwise only inside buckets that provably contain one.
    ///
    /// Abort order is part of the deterministic event schedule.  The
    /// replaced scan walked ordered pairs `(a, b)` in ascending `(TxId,
    /// TxId)` order and aborted `b` on the first inconsistency, so the
    /// bucket-derived pairs are evaluated with the same id orientation
    /// (ties in one domain count as inconsistent exactly when the strict
    /// `<` comparisons differ) and replayed in the same sorted pair order.
    fn ordering_abort_scan(&mut self, decisions: &mut Vec<OptDecision>) {
        /// `(seq at first domain, seq at second domain, tx)` per domain pair.
        type SeqPairBuckets = FxHashMap<(DomainId, DomainId), Vec<(SeqNo, SeqNo, TxId)>>;
        let mut buckets: SeqPairBuckets = FxHashMap::default();
        for (id, o) in self.observed.iter() {
            if o.decided || o.seqs.len() < 2 {
                continue;
            }
            let reported: Vec<(DomainId, SeqNo)> = o.seqs.iter().map(|(d, s)| (*d, *s)).collect();
            for i in 0..reported.len() {
                for j in (i + 1)..reported.len() {
                    buckets
                        .entry((reported[i].0, reported[j].0))
                        .or_default()
                        .push((reported[i].1, reported[j].1, *id));
                }
            }
        }
        let mut inconsistent: Vec<(TxId, TxId)> = Vec::new();
        for entries in buckets.values_mut() {
            entries.sort_unstable();
            // Strictly increasing in both coordinates ⇒ every pair in this
            // bucket is consistently ordered; nothing to enumerate.
            if entries
                .windows(2)
                .all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1)
            {
                continue;
            }
            for i in 0..entries.len() {
                for j in (i + 1)..entries.len() {
                    let (sa, ea, ta) = entries[i];
                    let (sb, eb, tb) = entries[j];
                    // Orient by TxId: the exact rule compares the lower-id
                    // transaction against the higher-id one.
                    let ((lo_s, lo_e, lo), (hi_s, hi_e, hi)) = if ta < tb {
                        ((sa, ea, ta), (sb, eb, tb))
                    } else {
                        ((sb, eb, tb), (sa, ea, ta))
                    };
                    if (lo_s < hi_s) != (lo_e < hi_e) {
                        inconsistent.push((lo, hi));
                    }
                }
            }
        }
        // Replay in the replaced scan's (a, b) pair order; the decided guard
        // keeps the first abort per victim, exactly as before.
        inconsistent.sort_unstable();
        inconsistent.dedup();
        for (_, victim) in inconsistent {
            if let Some(o) = self.observed.get_mut(&victim) {
                if !o.decided {
                    o.decided = true;
                    decisions.push(OptDecision::Abort(victim, o.involved.clone()));
                }
            }
        }
    }
}

impl SaguaroNode {
    // ------------------------------------------------------------------
    // Height-1 (execution) side
    // ------------------------------------------------------------------

    /// Starts optimistic processing at the domain that received the request:
    /// multicast the request to every node of the other involved domains and
    /// order it locally.
    pub(crate) fn start_optimistic(&mut self, tx: Transaction, ctx: &mut Context<'_, SaguaroMsg>) {
        let me = self.domain();
        let involved = tx.involved_domains();
        let others = involved.iter().copied().filter(|d| *d != me);
        self.send_to_domains(others, SaguaroMsg::OptForward { tx: tx.clone() }, ctx);
        self.propose(Cmd::OptimisticCross(tx), ctx);
    }

    /// An optimistically forwarded cross-domain transaction arrived at an
    /// involved domain.
    pub(crate) fn on_opt_forward(&mut self, tx: Transaction, ctx: &mut Context<'_, SaguaroMsg>) {
        if !self.is_primary() {
            return;
        }
        if self.ledger.contains(tx.id) || self.opt.is_pending(tx.id) {
            return;
        }
        self.propose(Cmd::OptimisticCross(tx), ctx);
    }

    /// An ancestor decided the transaction must be aborted: roll it back
    /// together with its data-dependent successors.
    pub(crate) fn on_opt_abort(&mut self, tx_id: TxId, ctx: &mut Context<'_, SaguaroMsg>) {
        // Nothing to roll back if the transaction is unknown or already
        // decided.
        for victim in self.opt.decide(tx_id, true) {
            if let Some(entry) = self.ledger.get(victim) {
                let tx = entry.tx.clone();
                self.note_reply_target(&tx);
            }
            if let Some(undo) = self.undo_log.remove(&victim) {
                self.state.revert(&undo);
            }
            self.ledger.mark_aborted(victim);
            self.reply(victim, false, ctx);
        }
    }

    /// The LCA confirmed the transaction was committed by every involved
    /// domain: finalise it.
    pub(crate) fn on_opt_commit(&mut self, tx_id: TxId) {
        self.opt.decide(tx_id, false);
        self.ledger.mark_committed(tx_id);
        self.undo_log.remove(&tx_id);
    }

    // ------------------------------------------------------------------
    // Height-2+ (validation) side — called from block propagation
    // ------------------------------------------------------------------

    /// Feeds the cross-domain transactions of an incorporated child block to
    /// the validator and acts on its decisions.
    pub(crate) fn validate_optimistic_block(
        &mut self,
        child: DomainId,
        block: &saguaro_ledger::Block,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        if self.config.cross_mode != CrossDomainMode::Optimistic {
            return;
        }
        let round = self.round;
        for record in &block.txs {
            if record.tx.kind.is_cross_domain() && record.status != TxStatus::Aborted {
                if let Some(seq) = record.seq.get(child) {
                    self.validator.observe(&record.tx, child, seq, round);
                }
            }
        }
        let tree = self.tree.clone();
        let me = self.domain();
        let decisions = self.validator.check(
            |involved| tree.lca(involved).map(|l| l == me).unwrap_or(false),
            round,
            OPTIMISTIC_ABORT_ROUNDS,
        );
        for decision in decisions {
            let (verdict, involved) = match decision {
                OptDecision::Abort(tx_id, involved) => {
                    self.dag.mark_aborted(tx_id);
                    (SaguaroMsg::OptAbort { tx_id }, involved)
                }
                OptDecision::Commit(tx_id, involved) => (SaguaroMsg::OptCommit { tx_id }, involved),
            };
            if self.is_primary() {
                self.send_to_domains(involved, verdict, ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_types::{ClientId, Operation};

    fn d(i: u16) -> DomainId {
        DomainId::new(1, i)
    }

    fn cross(id: u64, from: &str, to: &str, domains: &[DomainId]) -> Transaction {
        Transaction::cross_domain(
            TxId(id),
            ClientId(0),
            domains.to_vec(),
            Operation::Transfer {
                from: from.into(),
                to: to.into(),
                amount: 1,
            },
        )
    }

    #[test]
    fn tracker_collects_dependents_transitively() {
        let mut t = OptTracker::default();
        let base = cross(1, "a", "b", &[d(0), d(1)]);
        t.track(&base);
        t.record_execution(&base);
        // t2 conflicts with base (writes b), t3 conflicts with t2 (writes c)
        // but not with base directly.
        let t2 = cross(2, "b", "c", &[d(0), d(1)]);
        let t3 = cross(3, "c", "e", &[d(0), d(1)]);
        let unrelated = cross(4, "x", "y", &[d(0), d(1)]);
        t.record_execution(&t2);
        t.record_execution(&t3);
        t.record_execution(&unrelated);
        let victims = t.decide(TxId(1), true);
        assert_eq!(victims, vec![TxId(3), TxId(2), TxId(1)], "reverse order");
        assert_eq!(t.pending_count(), 0);
    }

    /// The tracker as it was before the key index: every execution walks
    /// every pending entry's union sets.  Kept as the reference the indexed
    /// tracker is checked against.
    #[derive(Default)]
    struct ScanTracker {
        pending: FxHashMap<TxId, ScanEntry>,
        exec_order: Vec<TxId>,
    }

    struct ScanEntry {
        dependent_ids: Vec<TxId>,
        writes: FxHashSet<String>,
        reads: FxHashSet<String>,
    }

    impl ScanTracker {
        pub(crate) fn record_execution(&mut self, tx: &Transaction) {
            self.exec_order.push(tx.id);
            for (id, p) in self.pending.iter_mut() {
                if *id == tx.id {
                    continue;
                }
                let conflicts = tx
                    .op
                    .write_set()
                    .any(|k| p.writes.contains(k) || p.reads.contains(k))
                    || tx.op.read_set().any(|k| p.writes.contains(k));
                if conflicts {
                    p.dependent_ids.push(tx.id);
                    p.writes.extend(tx.op.write_set().map(str::to_string));
                    p.reads.extend(tx.op.read_set().map(str::to_string));
                }
            }
        }

        pub(crate) fn track(&mut self, tx: &Transaction) {
            self.pending.entry(tx.id).or_insert_with(|| ScanEntry {
                writes: tx.op.write_set().map(str::to_string).collect(),
                reads: tx.op.read_set().map(str::to_string).collect(),
                dependent_ids: Vec::new(),
            });
        }

        fn decide(&mut self, id: TxId, abort: bool) -> Vec<TxId> {
            let Some(entry) = self.pending.remove(&id) else {
                return Vec::new();
            };
            if !abort {
                return Vec::new();
            }
            let mut victims = entry.dependent_ids;
            victims.push(id);
            let order: FxHashMap<TxId, usize> = self
                .exec_order
                .iter()
                .enumerate()
                .map(|(i, t)| (*t, i))
                .collect();
            victims.sort_by_key(|t| std::cmp::Reverse(order.get(t).copied().unwrap_or(usize::MAX)));
            victims.dedup();
            victims
        }
    }

    proptest::proptest! {
        /// On random conflict graphs over a small key space — tracked and
        /// untracked executions, re-executions, commits and aborts
        /// interleaved — the indexed tracker keeps the same dependents per
        /// pending transaction and returns the same victims in the same
        /// order as the linear scan.
        #[test]
        fn indexed_tracker_equals_the_linear_scan(
            steps in proptest::collection::vec((0u8..10, 0u64..24, 0u8..5, 0u8..5), 1..120),
        ) {
            let key = |k: u8| format!("k{k}");
            let mut indexed = OptTracker::default();
            let mut scan = ScanTracker::default();
            for (action, id, a, b) in steps {
                let op = match action % 4 {
                    0 => Operation::Transfer { from: key(a), to: key(b), amount: 1 },
                    1 => Operation::Put { key: key(a), value: 1 },
                    2 => Operation::Get { key: key(a) },
                    _ => Operation::RideTask { driver: key(a), minutes: 1, fare: 1 },
                };
                let tx = Transaction::cross_domain(TxId(id), ClientId(0), vec![d(0), d(1)], op);
                match action {
                    // Speculative execution of a tracked transaction.
                    0..=4 => {
                        indexed.track(&tx);
                        scan.track(&tx);
                        indexed.record_execution(&tx);
                        scan.record_execution(&tx);
                    }
                    // An execution nobody tracks.
                    5 | 6 => {
                        indexed.record_execution(&tx);
                        scan.record_execution(&tx);
                    }
                    _ => {
                        let abort = action != 7;
                        proptest::prop_assert_eq!(
                            indexed.decide(TxId(id), abort),
                            scan.decide(TxId(id), abort)
                        );
                    }
                }
                proptest::prop_assert_eq!(indexed.pending.len(), scan.pending.len());
                for (id, entry) in &scan.pending {
                    proptest::prop_assert_eq!(
                        &indexed.pending[id].dependent_ids,
                        &entry.dependent_ids
                    );
                }
            }
            // Deciding everything empties the index.
            for id in 0..24 {
                proptest::prop_assert_eq!(
                    indexed.decide(TxId(id), true),
                    scan.decide(TxId(id), true)
                );
            }
            proptest::prop_assert!(indexed.writers.is_empty() && indexed.readers.is_empty());
        }
    }

    #[test]
    fn tracker_commit_rolls_back_nothing() {
        let mut t = OptTracker::default();
        let base = cross(1, "a", "b", &[d(0), d(1)]);
        t.track(&base);
        t.record_execution(&base);
        assert!(t.is_pending(TxId(1)));
        assert!(t.decide(TxId(1), false).is_empty());
        assert!(!t.is_pending(TxId(1)));
        assert!(t.decide(TxId(9), true).is_empty(), "unknown id");
    }

    #[test]
    fn validator_commits_consistent_fully_reported_tx() {
        let mut v = OptimisticValidator::default();
        let tx = cross(1, "a", "b", &[d(0), d(1)]);
        v.observe(&tx, d(0), 5, 1);
        v.observe(&tx, d(1), 9, 1);
        let decisions = v.check(|_| true, 1, 8);
        assert_eq!(
            decisions,
            vec![OptDecision::Commit(TxId(1), vec![d(0), d(1)])]
        );
        // Already decided: no duplicate decision.
        assert!(v.check(|_| true, 2, 8).is_empty());
    }

    #[test]
    fn validator_does_not_commit_when_not_lca() {
        let mut v = OptimisticValidator::default();
        let tx = cross(1, "a", "b", &[d(0), d(1)]);
        v.observe(&tx, d(0), 5, 1);
        v.observe(&tx, d(1), 9, 1);
        assert!(v.check(|_| false, 1, 8).is_empty());
        assert_eq!(v.tracked(), 1);
    }

    #[test]
    fn validator_aborts_on_inconsistent_order() {
        // tx1 before tx2 on d0 but tx2 before tx1 on d1 -> the higher id (2)
        // is aborted.
        let mut v = OptimisticValidator::default();
        let t1 = cross(1, "a", "b", &[d(0), d(1)]);
        let t2 = cross(2, "c", "e", &[d(0), d(1)]);
        v.observe(&t1, d(0), 1, 1);
        v.observe(&t2, d(0), 2, 1);
        v.observe(&t2, d(1), 1, 1);
        v.observe(&t1, d(1), 2, 1);
        let decisions = v.check(|_| false, 1, 8);
        assert_eq!(decisions.len(), 1);
        assert!(matches!(decisions[0], OptDecision::Abort(TxId(2), _)));
    }

    #[test]
    fn validator_is_deterministic_across_ancestors() {
        // Two validators seeing the same reports (possibly in different call
        // order) reach the same decision.
        let t1 = cross(1, "a", "b", &[d(0), d(1)]);
        let t2 = cross(2, "c", "e", &[d(0), d(1)]);
        let run = |swap: bool| {
            let mut v = OptimisticValidator::default();
            let (x, y) = if swap { (&t2, &t1) } else { (&t1, &t2) };
            v.observe(x, d(0), if swap { 2 } else { 1 }, 1);
            v.observe(y, d(0), if swap { 1 } else { 2 }, 1);
            v.observe(x, d(1), if swap { 1 } else { 2 }, 1);
            v.observe(y, d(1), if swap { 2 } else { 1 }, 1);
            v.check(|_| false, 1, 8)
        };
        let a = run(false);
        let b = run(true);
        assert_eq!(a, b);
    }

    #[test]
    fn validator_aborts_never_reported_tx_after_timeout() {
        let mut v = OptimisticValidator::default();
        let tx = cross(1, "a", "b", &[d(0), d(1)]);
        v.observe(&tx, d(0), 1, 1);
        assert!(v.check(|_| true, 5, 8).is_empty(), "not timed out yet");
        let decisions = v.check(|_| true, 12, 8);
        assert_eq!(decisions.len(), 1);
        assert!(matches!(decisions[0], OptDecision::Abort(TxId(1), _)));
    }

    #[test]
    fn single_common_domain_is_not_an_inconsistency() {
        let mut v = OptimisticValidator::default();
        let t1 = cross(1, "a", "b", &[d(0), d(1)]);
        let t2 = cross(2, "c", "e", &[d(0), d(2)]);
        v.observe(&t1, d(0), 2, 1);
        v.observe(&t2, d(0), 1, 1);
        assert!(v
            .check(|_| false, 1, 8)
            .iter()
            .all(|dec| !matches!(dec, OptDecision::Abort(..))));
    }
}
