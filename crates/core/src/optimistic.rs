//! The optimistic cross-domain protocol (Section 6).
//!
//! Each involved height-1 domain orders and speculatively executes a
//! cross-domain transaction independently, without any cross-domain
//! communication on the critical path.  The transaction travels up the
//! hierarchy inside the per-round `block` messages; ancestor domains — and
//! ultimately the LCA of the involved domains — check that overlapping
//! domains ordered concurrent cross-domain transactions consistently.
//! Inconsistent (or never fully reported) transactions are aborted
//! deterministically, which rolls back the transaction and everything that
//! read or wrote the data it touched.

use crate::command::Cmd;
use crate::config::CrossDomainMode;
use crate::host::HostedReplica;
use crate::messages::SaguaroMsg;
use crate::node::SaguaroNode;
use saguaro_ledger::TxStatus;
use saguaro_net::Context;
use saguaro_types::hash::{FxHashMap, FxHashSet};
use saguaro_types::{DomainId, SeqNo, Transaction, TxId};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Rounds after which the LCA aborts an optimistic cross-domain transaction
/// that some involved domain still has not reported (Section 6: a transaction
/// "never fully reported" is aborted deterministically).
pub(crate) const OPTIMISTIC_ABORT_ROUNDS: u64 = 8;

/// Height-1 bookkeeping for speculatively committed cross-domain transactions.
///
/// An abort rolls back the transaction and every later execution with a
/// (transitive) data dependency on it, but nearly every decision is a
/// commit, which rolls back nothing.  So the dependents are found when an
/// abort asks for them, not as executions happen: the tracker keeps the
/// pending transactions and a log of the speculative executions recorded
/// since the oldest pending one was tracked, and an abort walks that log
/// forward from its own execution.
///
/// The walk grows a union of the keys written / read by the transaction and
/// the dependents found so far.  A logged execution conflicts iff one side
/// writes a key the other reads or writes, checked against those unions —
/// the union distributes over the "any dependent conflicts" existential.
///
/// The log holds one handle per execution.  Deciding the oldest pending
/// transaction trims its front, so it is empty whenever nothing is pending
/// and an execution made then is never logged; a transaction that is never
/// decided keeps every later execution in it.
#[derive(Default, Debug)]
pub struct OptTracker {
    /// Undecided speculatively committed cross-domain transactions, with
    /// the log position each was tracked at.
    pending: FxHashMap<TxId, (u64, Transaction)>,
    /// The pending transactions by tracking position, oldest first.
    by_pos: BTreeSet<(u64, TxId)>,
    /// Executions recorded since the oldest pending transaction was tracked.
    log: VecDeque<Transaction>,
    /// Executions ever logged: the position of the next one.
    logged: u64,
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

    /// Registers a newly executed transaction.  Only an abort of a pending
    /// transaction looks at executions, so with nothing pending there is
    /// nothing to record.
    pub(crate) fn record_execution(&mut self, tx: &Transaction) {
        if !self.pending.is_empty() {
            self.log.push_back(tx.clone());
            self.logged += 1;
        }
    }

    /// Starts tracking a speculative cross-domain transaction; its
    /// execution is recorded next.
    pub(crate) fn track(&mut self, tx: &Transaction) {
        if let Entry::Vacant(slot) = self.pending.entry(tx.id) {
            slot.insert((self.logged, tx.clone()));
            self.by_pos.insert((self.logged, tx.id));
        }
    }

    /// The transactions an abort of pending `id` rolls back: `id` and every
    /// later execution that conflicts with it or with an earlier such one,
    /// latest execution first.
    fn victims_of(&self, id: TxId) -> Vec<TxId> {
        let Some((from, tx)) = self.pending.get(&id) else {
            return Vec::new();
        };
        let front = self.logged - self.log.len() as u64;
        let mut writes: FxHashSet<&str> = tx.op.write_set().collect();
        let mut reads: FxHashSet<&str> = tx.op.read_set().collect();
        // Latest execution of each victim; a tracked transaction that has
        // not executed yet rolls back first.
        let mut latest: FxHashMap<TxId, u64> = FxHashMap::default();
        latest.insert(id, u64::MAX);
        let walk = self.log.range((from - front) as usize..);
        for (at, e) in (*from..).zip(walk) {
            // The transaction's own re-executions move it but add no keys.
            let conflicts = e.id != id
                && (e
                    .op
                    .write_set()
                    .any(|k| writes.contains(k) || reads.contains(k))
                    || e.op.read_set().any(|k| writes.contains(k)));
            if conflicts {
                writes.extend(e.op.write_set());
                reads.extend(e.op.read_set());
            }
            if conflicts || latest.contains_key(&e.id) {
                latest.insert(e.id, at);
            }
        }
        let mut victims: Vec<(u64, TxId)> = latest.into_iter().map(|(t, at)| (at, t)).collect();
        victims.sort_unstable_by(|a, b| b.cmp(a));
        victims.into_iter().map(|(_, t)| t).collect()
    }

    /// Finalises a decision, returning the set of transactions to roll back
    /// (the transaction itself plus its dependents, in reverse execution
    /// order) when the decision is an abort.
    fn decide(&mut self, id: TxId, abort: bool) -> Vec<TxId> {
        let victims = if abort {
            self.victims_of(id)
        } else {
            Vec::new()
        };
        if let Some((from, _)) = self.pending.remove(&id) {
            self.by_pos.remove(&(from, id));
            let keep_from = self.by_pos.first().map_or(self.logged, |(at, _)| *at);
            let front = self.logged - self.log.len() as u64;
            self.log.drain(..(keep_from - front) as usize);
        }
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
    tx: Transaction,
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
    Commit(Transaction),
    /// An ordering inconsistency (or report timeout) was found; abort it.
    Abort(Transaction),
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
            tx: tx.clone(),
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
        for o in self.observed.values_mut() {
            if o.decided {
                continue;
            }
            let involved = o.tx.involved_domains();
            if !*o.lca_cached.get_or_insert_with(|| is_lca(&involved)) {
                continue;
            }
            if involved.iter().all(|d| o.seqs.contains_key(d)) {
                o.decided = true;
                decisions.push(OptDecision::Commit(o.tx.clone()));
            } else if current_round.saturating_sub(o.first_round) > abort_after_rounds {
                o.decided = true;
                decisions.push(OptDecision::Abort(o.tx.clone()));
            }
        }
        // 3. Retire decided transactions from the pending table so later
        //    checks and straggling reports never walk them again.
        for decision in &decisions {
            let (OptDecision::Commit(tx) | OptDecision::Abort(tx)) = decision;
            self.observed.remove(&tx.id);
            self.decided_ids.insert(tx.id);
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
            if o.decided {
                continue;
            }
            let mut reported = o.seqs.iter();
            while let Some((da, sa)) = reported.next() {
                for (db, sb) in reported.clone() {
                    buckets.entry((*da, *db)).or_default().push((*sa, *sb, *id));
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
                    decisions.push(OptDecision::Abort(o.tx.clone()));
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
            let (verdict, tx) = match decision {
                OptDecision::Abort(tx) => {
                    // The chain record carries the abort: this domain's
                    // ledger and the harvest show it.
                    self.dag.mark_aborted(tx.id);
                    (SaguaroMsg::OptAbort { tx_id: tx.id }, tx)
                }
                OptDecision::Commit(tx) => (SaguaroMsg::OptCommit { tx_id: tx.id }, tx),
            };
            if self.is_primary() {
                self.send_to_domains(tx.involved_domains().iter().copied(), verdict, ctx);
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

    /// The eager tracker: every execution walks every pending entry's union
    /// sets and lists itself as a dependent of each it conflicts with.  Kept
    /// as the reference the abort-time walk is checked against.
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

        fn victims_of(&self, id: TxId) -> Vec<TxId> {
            let Some(entry) = self.pending.get(&id) else {
                return Vec::new();
            };
            let mut victims = entry.dependent_ids.clone();
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

        fn decide(&mut self, id: TxId, abort: bool) -> Vec<TxId> {
            let victims = if abort {
                self.victims_of(id)
            } else {
                Vec::new()
            };
            self.pending.remove(&id);
            victims
        }
    }

    proptest::proptest! {
        /// On random conflict graphs over a small key space — tracked and
        /// untracked executions, re-executions, commits and aborts
        /// interleaved — the abort-time walk finds the same victims, in the
        /// same order, for every pending transaction as the eager scan.
        #[test]
        fn lazy_dependents_equal_the_linear_scan(
            steps in proptest::collection::vec((0u8..10, 0u64..24, 0u8..5, 0u8..5), 1..120),
        ) {
            let key = |k: u8| format!("k{k}");
            let mut lazy = OptTracker::default();
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
                        lazy.track(&tx);
                        scan.track(&tx);
                        lazy.record_execution(&tx);
                        scan.record_execution(&tx);
                    }
                    // An execution nobody tracks.
                    5 | 6 => {
                        lazy.record_execution(&tx);
                        scan.record_execution(&tx);
                    }
                    _ => {
                        let abort = action != 7;
                        proptest::prop_assert_eq!(
                            lazy.decide(TxId(id), abort),
                            scan.decide(TxId(id), abort)
                        );
                    }
                }
                proptest::prop_assert_eq!(lazy.pending.len(), scan.pending.len());
                for id in scan.pending.keys() {
                    proptest::prop_assert_eq!(lazy.victims_of(*id), scan.victims_of(*id));
                }
            }
            // Deciding everything empties the log and the position index.
            for id in 0..24 {
                proptest::prop_assert_eq!(
                    lazy.decide(TxId(id), true),
                    scan.decide(TxId(id), true)
                );
            }
            proptest::prop_assert!(lazy.log.is_empty() && lazy.by_pos.is_empty());
        }
    }

    #[test]
    fn commits_leave_nothing_to_walk() {
        let mut t = OptTracker::default();
        let mut open = std::collections::VecDeque::new();
        for i in 0..300u64 {
            // Every transaction touches "a", so each depends on the last.
            let tracked = cross(i, "a", "b", &[d(0), d(1)]);
            t.track(&tracked);
            t.record_execution(&tracked);
            open.push_back(i);
            t.record_execution(&cross(1_000 + i, "b", "c", &[d(0), d(1)]));
            if open.len() > 4 {
                t.decide(TxId(open.pop_front().unwrap()), false);
            }
            // The log starts at the oldest pending transaction.
            let (oldest, _) = *t.by_pos.first().unwrap();
            assert_eq!(t.log.len() as u64, t.logged - oldest);
            if i % 10 == 9 {
                for id in open.drain(..) {
                    t.decide(TxId(id), false);
                }
                assert!(t.log.is_empty() && t.by_pos.is_empty());
                let logged = t.logged;
                t.record_execution(&cross(2_000 + i, "a", "c", &[d(0), d(1)]));
                assert!(t.log.is_empty(), "nothing pending: nothing logged");
                assert_eq!(t.logged, logged);
            }
        }
        assert_eq!(t.pending_count(), 0);
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
        assert_eq!(decisions, vec![OptDecision::Commit(tx)]);
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
        assert_eq!(decisions, vec![OptDecision::Abort(t2)]);
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
        assert_eq!(decisions, vec![OptDecision::Abort(tx)]);
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
