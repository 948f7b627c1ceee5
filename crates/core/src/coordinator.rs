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
use crate::messages::SaguaroMsg;
use crate::node::SaguaroNode;
use saguaro_ledger::TxStatus;
use saguaro_net::{Context, TimerId};
use saguaro_types::{DomainId, MultiSeq, SeqNo, Transaction, TxId};
use std::collections::{BTreeMap, BTreeSet};

/// Maximum number of deadlock-timeout retries before a coordinator gives up
/// and aborts a cross-domain transaction permanently.
pub(crate) const MAX_CROSS_RETRIES: u32 = 3;

/// Coordinator-side bookkeeping for one cross-domain transaction.
#[derive(Clone, Debug)]
pub(crate) struct CoordEntry {
    pub tx: Transaction,
    pub coord_seq: SeqNo,
    pub involved: Vec<DomainId>,
    /// Local sequence numbers reported by involved domains so far.
    pub prepared: BTreeMap<DomainId, SeqNo>,
    /// Domains that acknowledged the commit.
    pub acks: BTreeSet<DomainId>,
    pub decided: bool,
    pub retries: u32,
    pub timer: Option<TimerId>,
}

/// Participant-side bookkeeping for one cross-domain transaction.
#[derive(Clone, Debug)]
pub(crate) struct ParticipantEntry {
    pub tx: Transaction,
    pub coord_seq: SeqNo,
    pub local_seq: Option<SeqNo>,
    pub committed: bool,
    pub timer: Option<TimerId>,
}

/// True if two involved-domain sets intersect in at least two domains — the
/// condition under which Algorithm 1 serialises two cross-domain
/// transactions.
pub(crate) fn intersect_two(a: &[DomainId], b: &[DomainId]) -> bool {
    let set: BTreeSet<&DomainId> = a.iter().collect();
    b.iter().filter(|d| set.contains(d)).count() >= 2
}

impl SaguaroNode {
    // ------------------------------------------------------------------
    // Initiation (at the height-1 domain that received the client request)
    // ------------------------------------------------------------------

    /// Starts the coordinator-based protocol for a cross-domain transaction:
    /// the receiving primary forwards the request directly to all nodes of
    /// the LCA domain (Algorithm 1, lines 6-7).
    pub(crate) fn start_coordinated(&mut self, tx: Transaction, ctx: &mut Context<'_, SaguaroMsg>) {
        if !self.is_primary() {
            ctx.send(self.host.primary(), SaguaroMsg::ClientRequest(tx));
            return;
        }
        let involved = tx.involved_domains();
        let Ok(lca) = self.tree.lca(&involved) else {
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
        let involved = tx.involved_domains();
        let blocked = self
            .coordinated
            .values()
            .any(|e| !e.decided && intersect_two(&e.involved, &involved));
        if blocked {
            self.coord_queue.push_back(tx);
            return;
        }
        let coord_seq = self.next_coord_seq;
        self.next_coord_seq += 1;
        self.propose(Cmd::CoordPrepare { tx, coord_seq }, ctx);
    }

    /// The coordinator domain agreed to coordinate `tx` (delivered by its
    /// internal consensus).
    pub(crate) fn apply_coord_prepare(
        &mut self,
        tx: Transaction,
        coord_seq: SeqNo,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        let involved = tx.involved_domains();
        let entry = self.coordinated.entry(tx.id).or_insert_with(|| CoordEntry {
            tx: tx.clone(),
            coord_seq,
            involved: involved.clone(),
            prepared: BTreeMap::new(),
            acks: BTreeSet::new(),
            decided: false,
            retries: 0,
            timer: None,
        });
        entry.coord_seq = coord_seq;
        entry.prepared.clear();
        entry.decided = false;
        if self.is_primary() {
            let cert_sigs = self.cert_sigs();
            for d in involved {
                self.send_to_domain(
                    d,
                    SaguaroMsg::Prepare {
                        tx: tx.clone(),
                        coord_seq,
                        cert_sigs,
                    },
                    ctx,
                );
            }
            let timeout = self.config.deadlock_timeout_for(self.domain().index);
            let timer = ctx.set_timer(timeout, SaguaroMsg::CrossTimeout { tx_id: tx.id });
            if let Some(e) = self.coordinated.get_mut(&tx.id) {
                e.timer = Some(timer);
            }
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
        let (all_prepared, parts) = {
            let Some(entry) = self.coordinated.get_mut(&tx_id) else {
                return;
            };
            if entry.decided || entry.coord_seq != coord_seq {
                return;
            }
            entry.prepared.insert(domain, local_seq);
            (
                entry.prepared.len() == entry.involved.len(),
                entry
                    .prepared
                    .iter()
                    .map(|(d, s)| (*d, *s))
                    .collect::<Vec<_>>(),
            )
        };
        if all_prepared && self.is_primary() {
            let seqs = MultiSeq::from_parts(parts);
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
        entry.decided = true;
        if let Some(t) = entry.timer.take() {
            ctx.cancel_timer(t);
        }
        let involved = entry.involved.clone();
        if self.is_primary() {
            let cert_sigs = self.cert_sigs();
            for d in involved {
                self.send_to_domain(
                    d,
                    SaguaroMsg::CommitCross {
                        tx_id,
                        seqs: seqs.clone(),
                        commit,
                        cert_sigs,
                    },
                    ctx,
                );
            }
        }
        // Coordination for this transaction is finished; unblock any queued
        // cross-domain transactions that were waiting on it.
        self.drain_coord_queue(ctx);
    }

    pub(crate) fn drain_coord_queue(&mut self, ctx: &mut Context<'_, SaguaroMsg>) {
        if !self.is_primary() {
            return;
        }
        let mut still_blocked = Vec::new();
        while let Some(tx) = self.coord_queue.pop_front() {
            let involved = tx.involved_domains();
            let blocked = self
                .coordinated
                .values()
                .any(|e| !e.decided && intersect_two(&e.involved, &involved));
            if blocked {
                still_blocked.push(tx);
            } else {
                let coord_seq = self.next_coord_seq;
                self.next_coord_seq += 1;
                self.propose(Cmd::CoordPrepare { tx, coord_seq }, ctx);
            }
        }
        self.coord_queue.extend(still_blocked);
    }

    /// A participant acknowledged the commit (line 21); pure bookkeeping.
    pub(crate) fn on_ack_cross(&mut self, tx_id: TxId, domain: DomainId) {
        if let Some(entry) = self.coordinated.get_mut(&tx_id) {
            entry.acks.insert(domain);
        }
    }

    /// Deadlock / lost-message timer at the coordinator: abort the current
    /// attempt and retry with a fresh prepare, or give up after
    /// [`MAX_CROSS_RETRIES`].
    pub(crate) fn on_cross_timeout(&mut self, tx_id: TxId, ctx: &mut Context<'_, SaguaroMsg>) {
        if !self.is_primary() {
            return;
        }
        let (retries, tx, involved) = {
            let Some(entry) = self.coordinated.get_mut(&tx_id) else {
                return;
            };
            if entry.decided {
                return;
            }
            entry.retries += 1;
            (entry.retries, entry.tx.clone(), entry.involved.clone())
        };
        let cert_sigs = self.cert_sigs();
        // Tell participants to discard the blocked attempt so the deadlock is
        // broken.
        for d in involved {
            self.send_to_domain(
                d,
                SaguaroMsg::CommitCross {
                    tx_id,
                    seqs: MultiSeq::new(),
                    commit: false,
                    cert_sigs,
                },
                ctx,
            );
        }
        if retries > MAX_CROSS_RETRIES {
            // Give up: decide abort through internal consensus so every
            // coordinator replica records the same outcome.
            self.propose(
                Cmd::CoordCommit {
                    tx_id,
                    seqs: MultiSeq::new(),
                    commit: false,
                },
                ctx,
            );
        } else {
            let coord_seq = self.next_coord_seq;
            self.next_coord_seq += 1;
            self.propose(Cmd::CoordPrepare { tx, coord_seq }, ctx);
        }
    }

    /// A participant asks what happened to a prepared transaction.
    pub(crate) fn on_commit_query(
        &mut self,
        tx_id: TxId,
        _from_domain: DomainId,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        let Some(entry) = self.coordinated.get(&tx_id) else {
            return;
        };
        if entry.decided && self.is_primary() {
            let seqs = MultiSeq::from_parts(
                entry
                    .prepared
                    .iter()
                    .map(|(d, s)| (*d, *s))
                    .collect::<Vec<_>>(),
            );
            let involved = entry.involved.clone();
            let cert_sigs = self.cert_sigs();
            for d in involved {
                self.send_to_domain(
                    d,
                    SaguaroMsg::CommitCross {
                        tx_id,
                        seqs: seqs.clone(),
                        commit: true,
                        cert_sigs,
                    },
                    ctx,
                );
            }
        }
    }

    /// The coordinator asks a participant to (re-)send its prepared message.
    pub(crate) fn on_prepared_query(&mut self, tx_id: TxId, ctx: &mut Context<'_, SaguaroMsg>) {
        let Some(entry) = self.participating.get(&tx_id) else {
            return;
        };
        if let (Some(local_seq), true) = (entry.local_seq, self.is_primary()) {
            let involved = entry.tx.involved_domains();
            if let Ok(lca) = self.tree.lca(&involved) {
                let cert_sigs = self.cert_sigs();
                self.send_to_domain(
                    lca,
                    SaguaroMsg::PreparedMsg {
                        tx_id,
                        coord_seq: entry.coord_seq,
                        local_seq,
                        domain: self.domain(),
                        cert_sigs,
                    },
                    ctx,
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Participant (involved height-1 domain) side
    // ------------------------------------------------------------------

    /// A prepare message arrived from the LCA domain (lines 12-15).
    pub(crate) fn on_prepare(
        &mut self,
        tx: Transaction,
        coord_seq: SeqNo,
        _cert_sigs: usize,
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
            .any(|e| !e.committed && intersect_two(&e.tx.involved_domains(), &involved));
        if blocked {
            self.participant_queue
                .push_back((tx, coord_seq, _cert_sigs));
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
        if self.participating.contains_key(&tx.id) {
            return;
        }
        let local_seq = self.ledger.reserve_seq();
        self.participating.insert(
            tx.id,
            ParticipantEntry {
                tx: tx.clone(),
                coord_seq,
                local_seq: Some(local_seq),
                committed: false,
                timer: None,
            },
        );
        if self.is_primary() {
            let involved = tx.involved_domains();
            if let Ok(lca) = self.tree.lca(&involved) {
                let cert_sigs = self.cert_sigs();
                self.send_to_domain(
                    lca,
                    SaguaroMsg::PreparedMsg {
                        tx_id: tx.id,
                        coord_seq,
                        local_seq,
                        domain: self.domain(),
                        cert_sigs,
                    },
                    ctx,
                );
            }
            let timer = ctx.set_timer(
                self.config.commit_query_timeout,
                SaguaroMsg::CommitQueryTimer { tx_id: tx.id },
            );
            if let Some(e) = self.participating.get_mut(&tx.id) {
                e.timer = Some(timer);
            }
        }
    }

    /// The commit (or abort) decision arrived from the LCA (lines 19-21).
    pub(crate) fn on_commit_cross(
        &mut self,
        tx_id: TxId,
        seqs: MultiSeq,
        commit: bool,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        let (tx, local_seq) = {
            let Some(entry) = self.participating.get_mut(&tx_id) else {
                // An abort for a transaction we never prepared (it was queued
                // or unknown): drop it from the queue if present.
                if !commit {
                    self.participant_queue.retain(|(t, _, _)| t.id != tx_id);
                }
                return;
            };
            if entry.committed {
                return;
            }
            if let Some(t) = entry.timer.take() {
                ctx.cancel_timer(t);
            }
            if commit {
                entry.committed = true;
            }
            (entry.tx.clone(), entry.local_seq)
        };
        if commit {
            let mut final_seqs = seqs;
            if final_seqs.get(self.domain()).is_none() {
                if let Some(ls) = local_seq {
                    final_seqs.set(self.domain(), ls);
                }
            }
            self.note_reply_target(&tx);
            if let Some(undo) = self.execute_owned(&tx.op) {
                self.undo_log.insert(tx_id, undo);
            }
            self.ledger
                .append_cross_domain(tx.clone(), final_seqs, TxStatus::Committed);
            self.stats.cross_committed += 1;
            // Acknowledge to the coordinator and answer the client.
            let involved = tx.involved_domains();
            if let (Ok(lca), true) = (self.tree.lca(&involved), self.is_primary()) {
                let primary_guess = saguaro_types::NodeId::new(lca, 0);
                ctx.send(
                    primary_guess,
                    SaguaroMsg::AckCross {
                        tx_id,
                        domain: self.domain(),
                    },
                );
            }
            self.participating.remove(&tx_id);
            self.reply(tx_id, true, ctx);
        } else {
            // Abort: discard the attempt (a retry prepare may follow).
            self.participating.remove(&tx_id);
            self.stats.cross_aborted += 1;
        }
        self.drain_participant_queue(ctx);
    }

    pub(crate) fn drain_participant_queue(&mut self, ctx: &mut Context<'_, SaguaroMsg>) {
        if !self.is_primary() {
            return;
        }
        let queued: Vec<(Transaction, SeqNo, usize)> = self.participant_queue.drain(..).collect();
        for (tx, coord_seq, cert) in queued {
            self.on_prepare(tx, coord_seq, cert, ctx);
        }
    }

    /// Participant-side timer: the commit never arrived; query the LCA.
    pub(crate) fn on_commit_query_timer(&mut self, tx_id: TxId, ctx: &mut Context<'_, SaguaroMsg>) {
        let Some(entry) = self.participating.get(&tx_id) else {
            return;
        };
        if entry.committed {
            return;
        }
        let involved = entry.tx.involved_domains();
        if let Ok(lca) = self.tree.lca(&involved) {
            self.send_to_domain(
                lca,
                SaguaroMsg::CommitQuery {
                    tx_id,
                    domain: self.domain(),
                },
                ctx,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u16) -> DomainId {
        DomainId::new(1, i)
    }

    #[test]
    fn intersect_two_requires_two_common_domains() {
        assert!(intersect_two(&[d(0), d(1), d(2)], &[d(1), d(2), d(5)]));
        assert!(!intersect_two(&[d(0), d(1)], &[d(1), d(2)]));
        assert!(!intersect_two(&[d(0)], &[d(1)]));
        assert!(intersect_two(&[d(0), d(1)], &[d(0), d(1)]));
    }
}
