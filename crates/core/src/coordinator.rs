//! The coordinator-based cross-domain protocol (Algorithm 1).
//!
//! The Lowest Common Ancestor (LCA) domain of all involved height-1 domains
//! coordinates: *prepare* (the LCA orders the transaction internally and asks
//! every involved domain to order it), *prepared* (each involved domain
//! orders it internally and reports its local sequence number), *commit* (the
//! LCA orders the decision internally and distributes the concatenated
//! sequence number), *execution/ack*.  Conflicting concurrent cross-domain
//! transactions that intersect in two or more domains are serialised by
//! coarse-grained blocking; deadlocks across distinct LCAs are broken by
//! staggered timeouts that abort and retry.

use crate::command::Cmd;
use crate::host::HostedReplica;
use crate::messages::{SaguaroMsg, Verdict};
use crate::node::{Commit, SaguaroNode};
use saguaro_net::{Context, TimerId};
use saguaro_types::{DomainId, Duration, MultiSeq, NodeId, SeqNo, Transaction, TxId};
use std::collections::BTreeMap;

/// Maximum number of deadlock-timeout retries before a coordinator gives up
/// and aborts a cross-domain transaction permanently.
pub(crate) const MAX_CROSS_RETRIES: u32 = 3;

/// How long a participant that ordered a prepare waits for the decision
/// before it queries the LCA (Algorithm 1's failure handling) — and the
/// period at which a primary waiting for a mobile device's state re-issues
/// its `state-query` (Algorithm 2).
pub(crate) const COMMIT_QUERY_TIMEOUT: Duration = Duration::from_millis(600);

/// Coordinator-side bookkeeping for one cross-domain transaction.
#[derive(Clone, Debug)]
pub(crate) struct CoordEntry {
    pub tx: Transaction,
    pub coord_seq: SeqNo,
    /// Local sequence numbers reported by involved domains so far.
    pub prepared: BTreeMap<DomainId, SeqNo>,
    /// The agreed outcome (`Some(true)` commit, `Some(false)` abort), once
    /// the coordinator domain has ordered it.
    pub decision: Option<bool>,
    pub retries: u32,
    pub timer: Option<TimerId>,
}

impl CoordEntry {
    /// The sequence numbers reported so far, concatenated.
    fn seqs(&self) -> MultiSeq {
        MultiSeq::from_sorted(self.prepared.iter().map(|(d, s)| (*d, *s)))
    }
}

/// Participant-side bookkeeping for one cross-domain transaction.
#[derive(Clone, Debug)]
pub(crate) struct ParticipantEntry {
    pub tx: Transaction,
    pub local_seq: SeqNo,
    pub timer: Option<TimerId>,
}

/// True if two involved-domain sets intersect in at least two domains — the
/// condition under which Algorithm 1 serialises two cross-domain
/// transactions.  Allocation-free: the admission scans call it once per
/// in-flight entry.
pub(crate) fn intersect_two(a: &[DomainId], b: &[DomainId]) -> bool {
    b.iter().filter(|d| a.contains(d)).count() >= 2
}

impl SaguaroNode {
    // ------------------------------------------------------------------
    // Initiation (at the height-1 domain that received the client request)
    // ------------------------------------------------------------------

    /// Starts the coordinator-based protocol for a cross-domain transaction:
    /// the receiving primary forwards the request directly to all nodes of
    /// the LCA domain (Algorithm 1, lines 6-7).
    pub(crate) fn start_coordinated(&mut self, tx: Transaction, ctx: &mut Context<'_, SaguaroMsg>) {
        let Some(lca) = self.lca_of(&tx) else {
            self.reply(tx.id, false, ctx);
            return;
        };
        if lca == self.domain() {
            // A height-1 domain can itself be the LCA only when the
            // transaction is in fact internal; treat it as such.
            self.propose(Cmd::Internal(tx), ctx);
            return;
        }
        self.send_to_domain(lca, SaguaroMsg::CrossForward { tx }, ctx);
    }

    // ------------------------------------------------------------------
    // Coordinator (LCA domain) side
    // ------------------------------------------------------------------

    /// A forwarded cross-domain request arrived at the LCA domain
    /// (lines 8-11).
    pub(crate) fn on_cross_forward(&mut self, tx: Transaction, ctx: &mut Context<'_, SaguaroMsg>) {
        if !self.is_primary() {
            return; // backups log the request; the primary drives it
        }
        if self.coordinated.contains_key(&tx.id) {
            return; // duplicate forward
        }
        self.admit(tx, ctx);
    }

    /// The coordinator's admission rule: a transaction that intersects an
    /// undecided coordinated one in two or more domains waits in
    /// `coord_queue`; any other starts an attempt now.
    fn admit(&mut self, tx: Transaction, ctx: &mut Context<'_, SaguaroMsg>) {
        let involved = tx.involved_domains();
        let blocked = self
            .coordinated
            .values()
            .any(|e| e.decision.is_none() && intersect_two(&e.tx.involved_domains(), &involved));
        if blocked {
            self.coord_queue.push_back(tx);
        } else {
            self.start_attempt(tx, ctx);
        }
    }

    /// Orders one attempt at `tx` under the next coordinator sequence number.
    fn start_attempt(&mut self, tx: Transaction, ctx: &mut Context<'_, SaguaroMsg>) {
        let coord_seq = self.next_coord_seq;
        self.next_coord_seq += 1;
        self.propose(Cmd::CoordPrepare { tx, coord_seq }, ctx);
    }

    /// LCA primary → every node of every domain `tx_id` involves: the
    /// verdict on the current attempt.
    fn send_decision(
        &self,
        tx_id: TxId,
        seqs: MultiSeq,
        verdict: Verdict,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        let Some(entry) = self.coordinated.get(&tx_id) else {
            return;
        };
        let cert_sigs = self.cert_sigs();
        let decision = SaguaroMsg::CommitCross {
            tx_id,
            seqs,
            verdict,
            cert_sigs,
        };
        self.send_to_domains(entry.tx.involved_domains().iter().copied(), decision, ctx);
    }

    /// The coordinator domain agreed to coordinate `tx` (delivered by its
    /// internal consensus): every replica records the attempt, the primary
    /// asks the involved domains to prepare and arms the deadlock timer.
    pub(crate) fn apply_coord_prepare(
        &mut self,
        tx: Transaction,
        coord_seq: SeqNo,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        let tx_id = tx.id;
        let timer = self.is_primary().then(|| {
            let cert_sigs = self.cert_sigs();
            let involved = tx.involved_domains();
            let prepare = SaguaroMsg::Prepare {
                tx: tx.clone(),
                coord_seq,
                cert_sigs,
            };
            self.send_to_domains(involved.iter().copied(), prepare, ctx);
            let timeout = self.config.deadlock_timeout_for(self.domain().index);
            ctx.set_timer(timeout, SaguaroMsg::CrossTimeout { tx_id })
        });
        let entry = self.coordinated.entry(tx_id).or_insert_with(|| CoordEntry {
            tx,
            coord_seq,
            prepared: BTreeMap::new(),
            decision: None,
            retries: 0,
            timer: None,
        });
        entry.coord_seq = coord_seq;
        entry.prepared.clear();
        entry.decision = None;
        if timer.is_some() {
            entry.timer = timer;
        }
    }

    /// A participant reported its local sequence number (lines 16-18).
    pub(crate) fn on_prepared(
        &mut self,
        tx_id: TxId,
        coord_seq: SeqNo,
        local_seq: SeqNo,
        domain: DomainId,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        let Some(entry) = self.coordinated.get_mut(&tx_id) else {
            return;
        };
        if entry.decision.is_some() || entry.coord_seq != coord_seq {
            return;
        }
        entry.prepared.insert(domain, local_seq);
        if entry.prepared.len() == entry.tx.involved_domains().len() && self.is_primary() {
            let seqs = self.coordinated[&tx_id].seqs();
            self.propose(
                Cmd::CoordCommit {
                    tx_id,
                    seqs,
                    commit: true,
                },
                ctx,
            );
        }
    }

    /// The coordinator domain agreed on the final decision.
    pub(crate) fn apply_coord_commit(
        &mut self,
        tx_id: TxId,
        seqs: MultiSeq,
        commit: bool,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        let Some(entry) = self.coordinated.get_mut(&tx_id) else {
            return;
        };
        entry.decision = Some(commit);
        if let Some(t) = entry.timer.take() {
            ctx.cancel_timer(t);
        }
        if !commit {
            // Given up: perhaps no participant prepared it, and then only the
            // replica that took the request knows the client.  Every replica
            // here ordered the abort and holds the transaction, so on a BFT
            // domain each answers (a CFT client already has its one reply).
            let tx = entry.tx.clone();
            self.note_reply_target(&tx);
            self.reply(tx_id, false, ctx);
        }
        if self.is_primary() {
            self.send_decision(tx_id, seqs, Verdict::ordered(commit), ctx);
            // Coordination for this transaction is finished; unblock any
            // queued cross-domain transactions that were waiting on it.
            let queued: Vec<Transaction> = self.coord_queue.drain(..).collect();
            for tx in queued {
                self.admit(tx, ctx);
            }
        }
    }

    /// Deadlock / lost-message timer at the coordinator: abort the current
    /// attempt and retry with a fresh prepare, or give up after
    /// [`MAX_CROSS_RETRIES`].
    pub(crate) fn on_cross_timeout(&mut self, tx_id: TxId, ctx: &mut Context<'_, SaguaroMsg>) {
        if !self.is_primary() {
            return;
        }
        let Some(entry) = self.coordinated.get_mut(&tx_id) else {
            return;
        };
        if entry.decision.is_some() {
            return;
        }
        entry.retries += 1;
        let retry = (entry.retries <= MAX_CROSS_RETRIES).then(|| entry.tx.clone());
        // Tell participants to discard the blocked attempt so the deadlock is
        // broken.
        self.send_decision(tx_id, MultiSeq::new(), Verdict::Discard, ctx);
        match retry {
            Some(tx) => self.start_attempt(tx, ctx),
            // Give up: decide abort through internal consensus so every
            // coordinator replica records the same outcome.
            None => self.propose(
                Cmd::CoordCommit {
                    tx_id,
                    seqs: MultiSeq::new(),
                    commit: false,
                },
                ctx,
            ),
        }
    }

    /// A participant asks what happened to a prepared transaction: the
    /// primary repeats the recorded decision, with the sequence numbers the
    /// original carried (none for an abort).
    pub(crate) fn on_commit_query(&mut self, tx_id: TxId, ctx: &mut Context<'_, SaguaroMsg>) {
        let Some(entry) = self.coordinated.get(&tx_id) else {
            return;
        };
        if let (Some(commit), true) = (entry.decision, self.is_primary()) {
            let seqs = if commit {
                entry.seqs()
            } else {
                MultiSeq::new()
            };
            self.send_decision(tx_id, seqs, Verdict::ordered(commit), ctx);
        }
    }

    // ------------------------------------------------------------------
    // Participant (involved height-1 domain) side
    // ------------------------------------------------------------------

    /// A prepare message arrived from the LCA domain (lines 12-15), or left
    /// the participant queue: order it unless it intersects a transaction
    /// this domain is still preparing in two or more domains.
    pub(crate) fn on_prepare(
        &mut self,
        tx: Transaction,
        coord_seq: SeqNo,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        if !self.is_primary() {
            return;
        }
        if self.participating.contains_key(&tx.id) || self.ledger.contains(tx.id) {
            return; // duplicate prepare (e.g. retry after deadlock)
        }
        let involved = tx.involved_domains();
        let blocked = self
            .participating
            .values()
            .any(|e| intersect_two(&e.tx.involved_domains(), &involved));
        if blocked {
            self.participant_queue.push_back((tx, coord_seq));
            return;
        }
        self.propose(Cmd::CrossPrepare { tx, coord_seq }, ctx);
    }

    /// The participant domain agreed to order the transaction locally.
    pub(crate) fn apply_cross_prepare(
        &mut self,
        tx: Transaction,
        coord_seq: SeqNo,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        let tx_id = tx.id;
        if self.participating.contains_key(&tx_id) {
            return;
        }
        let local_seq = self.ledger.reserve_seq();
        let mut timer = None;
        if self.is_primary() {
            if let Some(lca) = self.lca_of(&tx) {
                let cert_sigs = self.cert_sigs();
                self.send_to_domain(
                    lca,
                    SaguaroMsg::PreparedMsg {
                        tx_id,
                        coord_seq,
                        local_seq,
                        domain: self.domain(),
                        cert_sigs,
                    },
                    ctx,
                );
            }
            let query = SaguaroMsg::CommitQueryTimer { tx_id };
            timer = Some(ctx.set_timer(COMMIT_QUERY_TIMEOUT, query));
        }
        let entry = ParticipantEntry {
            tx,
            local_seq,
            timer,
        };
        self.participating.insert(tx_id, entry);
    }

    /// The LCA's verdict arrived (lines 19-21).
    pub(crate) fn on_commit_cross(
        &mut self,
        tx_id: TxId,
        mut seqs: MultiSeq,
        verdict: Verdict,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        if verdict == Verdict::Abort {
            // No retry follows: a queued copy must never be ordered, and the
            // client learns the outcome (once: the reply clears its entry).
            self.participant_queue.retain(|(t, _)| t.id != tx_id);
            self.reply(tx_id, false, ctx);
        }
        let Some(entry) = self.participating.remove(&tx_id) else {
            // A discard for a transaction we never prepared (it was queued
            // or unknown): drop it from the queue if present.
            if verdict == Verdict::Discard {
                self.participant_queue.retain(|(t, _)| t.id != tx_id);
            }
            return;
        };
        if let Some(t) = entry.timer {
            ctx.cancel_timer(t);
        }
        if verdict == Verdict::Commit {
            if seqs.get(self.domain()).is_none() {
                seqs.set(self.domain(), entry.local_seq);
            }
            // Acknowledge to the coordinator (line 21), then commit and
            // answer the client: sends draw their latencies in this order.
            if let (Some(lca), true) = (self.lca_of(&entry.tx), self.is_primary()) {
                let domain = self.domain();
                ctx.send(NodeId::new(lca, 0), SaguaroMsg::AckCross { tx_id, domain });
            }
            self.commit(entry.tx, Commit::Coordinated(seqs), ctx);
        }
        // A discard or an abort drops the attempt.  Whatever this
        // transaction was blocking may be ordered now.
        if self.is_primary() {
            let queued: Vec<(Transaction, SeqNo)> = self.participant_queue.drain(..).collect();
            for (tx, coord_seq) in queued {
                self.on_prepare(tx, coord_seq, ctx);
            }
        }
    }

    /// Participant-side timer: the decision never arrived; query the LCA,
    /// and query again one timeout later while the entry stays open (a lost
    /// query or answer must not leave it blocking forever).
    pub(crate) fn on_commit_query_timer(&mut self, tx_id: TxId, ctx: &mut Context<'_, SaguaroMsg>) {
        let Some(entry) = self.participating.get(&tx_id) else {
            return;
        };
        if let Some(lca) = self.lca_of(&entry.tx) {
            let domain = self.domain();
            self.send_to_domain(lca, SaguaroMsg::CommitQuery { tx_id, domain }, ctx);
        }
        let timer = ctx.set_timer(COMMIT_QUERY_TIMEOUT, SaguaroMsg::CommitQueryTimer { tx_id });
        self.participating
            .get_mut(&tx_id)
            .expect("checked above")
            .timer = Some(timer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u16) -> DomainId {
        DomainId::new(1, i)
    }

    proptest::proptest! {
        /// The hand-picked cases, then random lists over six domains (repeats
        /// included) against the `BTreeSet` model once built per call.
        #[test]
        fn intersect_two_requires_two_common_domains(
            a in proptest::collection::vec(0u16..6, 0..6),
            b in proptest::collection::vec(0u16..6, 0..6),
        ) {
            assert!(intersect_two(&[d(0), d(1), d(2)], &[d(1), d(2), d(5)]));
            assert!(!intersect_two(&[d(0), d(1)], &[d(1), d(2)]));
            assert!(!intersect_two(&[d(0)], &[d(1)]));
            assert!(intersect_two(&[d(0), d(1)], &[d(0), d(1)]));
            let a: Vec<DomainId> = a.into_iter().map(d).collect();
            let b: Vec<DomainId> = b.into_iter().map(d).collect();
            let set: std::collections::BTreeSet<&DomainId> = a.iter().collect();
            let model = b.iter().filter(|x| set.contains(x)).count() >= 2;
            proptest::prop_assert_eq!(intersect_two(&a, &b), model, "{:?} {:?}", a, b);
        }
    }
}
