//! The mobile consensus protocol (Section 7, Algorithm 2).
//!
//! When an edge device roams from its *local* (home) height-1 domain to a
//! *remote* domain, the remote domain cannot process its transactions because
//! it does not hold the device's state (e.g. its account balance).  Mobile
//! consensus transfers that state once: the remote primary sends a
//! `state-query` to the local domain; the local domain reaches internal
//! consensus on extracting the state, flips the device's `lock` bit to
//! `FALSE`, records which remote domain now owns the freshest copy, and sends
//! a certified `state` message; the remote domain reaches internal consensus
//! on installing the state and from then on executes the device's
//! transactions locally.  When the device moves again (or returns home) the
//! state is pulled back through the same mechanism, with the home domain
//! acting as the intermediary.

use crate::command::Cmd;
use crate::coordinator::COMMIT_QUERY_TIMEOUT;
use crate::exec::device_account;
use crate::host::HostedReplica;
use crate::messages::SaguaroMsg;
use crate::node::{Commit, SaguaroNode};
use saguaro_net::Context;
use saguaro_types::{ClientId, Custody, DomainId, Transaction, TxKind};

impl SaguaroNode {
    /// True if no request is queued waiting for this device's state.  A key
    /// whose queue has been drained counts as "no pending": leaving the
    /// empty entry behind once suppressed the next excursion's `StateQuery`
    /// entirely, wedging every later pull-back.
    pub(crate) fn no_pending_mobile(&self, device: ClientId) -> bool {
        self.pending_mobile
            .get(&device)
            .is_none_or(|queue| queue.is_empty())
    }

    /// The remote domain this (home) domain's records say holds `device`'s
    /// freshest state, if it was handed away.
    pub(crate) fn roamed_to(&self, device: ClientId) -> Option<DomainId> {
        match self.mobile.get(&device)? {
            Custody::Held => None,
            Custody::HandedTo(remote) => Some(*remote),
        }
    }

    /// Arms (at most one) retry loop for a device whose state is in flight:
    /// if the `StateQuery` or its `StateMsg` answer dies with a crashed
    /// primary on either side of the hand-off, the requests queued in
    /// `pending_mobile` would otherwise be stranded forever.
    pub(crate) fn arm_mobile_retry(&mut self, device: ClientId, ctx: &mut Context<'_, SaguaroMsg>) {
        if !self.mobile_retry_armed.insert(device) {
            return; // a loop is already live for this device
        }
        ctx.set_timer(
            COMMIT_QUERY_TIMEOUT,
            SaguaroMsg::MobileRetryTimer { device },
        );
    }

    /// Asks every node of `holder` for `device`'s state on behalf of `tx`.
    fn send_state_query(
        &self,
        holder: DomainId,
        device: ClientId,
        tx: Transaction,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        let remote = self.domain();
        self.send_to_domain(holder, SaguaroMsg::StateQuery { device, tx, remote }, ctx);
    }

    /// The retry timer fired: if the device's state still has not arrived,
    /// re-issue the query along the route the queued transaction implies and
    /// re-arm; otherwise let the loop die.
    pub(crate) fn on_mobile_retry(&mut self, device: ClientId, ctx: &mut Context<'_, SaguaroMsg>) {
        self.mobile_retry_armed.remove(&device);
        let Some(tx) = self
            .pending_mobile
            .get(&device)
            .and_then(|queue| queue.first().cloned())
        else {
            return; // satisfied (or abandoned) in the meantime
        };
        if !self.is_primary() {
            // A view change moved the primary; the new primary's own query
            // path takes over when the client retries through it.
            return;
        }
        // Route: a remote domain waiting for a visiting device queries the
        // device's home; a home domain (pulling state back, or relaying as
        // intermediary) queries wherever its record says the state went.
        let target = match &tx.kind {
            TxKind::Mobile { local, remote } if *remote == self.domain() => Some(*local),
            _ => self.roamed_to(device),
        };
        if let Some(target) = target.filter(|t| *t != self.domain()) {
            self.send_state_query(target, device, tx, ctx);
        }
        self.arm_mobile_retry(device, ctx);
    }

    /// A request from a roaming device arrived at this (remote) domain's
    /// primary.
    pub(crate) fn handle_remote_mobile_request(
        &mut self,
        tx: Transaction,
        local: DomainId,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        if self.hosted_devices.contains(&tx.client) {
            // The device's state is already here: its transactions execute as
            // internal transactions (this is what makes mobile consensus
            // cheap — one state transfer per excursion, the paper's "10
            // transactions within the remote domain").
            self.propose(Cmd::Internal(tx), ctx);
        } else {
            self.queue_and_query(local, tx, false, ctx);
        }
    }

    /// Queues `tx` until its device's state arrives and asks `holder` for
    /// that state.  Only the first request of an excursion (or pull-back)
    /// asks — the retry loop re-asks for all of them — unless the query is
    /// `relayed`: the home domain passes every query it cannot answer on to
    /// wherever its records say the state went.
    pub(crate) fn queue_and_query(
        &mut self,
        holder: DomainId,
        tx: Transaction,
        relayed: bool,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        let device = tx.client;
        let first_query = self.no_pending_mobile(device);
        self.pending_mobile
            .entry(device)
            .or_default()
            .push(tx.clone());
        if first_query || relayed {
            self.send_state_query(holder, device, tx, ctx);
            self.arm_mobile_retry(device, ctx);
        }
    }

    /// Hands `device`'s state over: extracts the account of its `home` from
    /// this replica's copy and sends it, certified, to every node of `to`
    /// together with the transaction that asked for it.
    fn hand_over(
        &self,
        device: ClientId,
        home: DomainId,
        to: DomainId,
        tx: Transaction,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        let entries = self
            .state
            .extract_account_state(&device_account(home, device));
        let cert_sigs = self.cert_sigs();
        let state = SaguaroMsg::StateMsg {
            device,
            entries,
            tx,
            cert_sigs,
        };
        self.send_to_domain(to, state, ctx);
    }

    /// A state query arrived: either this domain is the device's home (and
    /// extracts/locks the state), or it is a previous remote domain still
    /// hosting the state (and hands it over), or the home's copy is stale and
    /// the query is relayed to wherever the freshest copy lives.
    pub(crate) fn on_state_query(
        &mut self,
        device: ClientId,
        tx: Transaction,
        requester: DomainId,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        if !self.is_primary() || requester == self.domain() {
            return;
        }
        let home = device_home(&tx);
        if self.hosted_devices.remove(&device) {
            // A previous remote domain handing the state over directly.
            self.hand_over(device, home, requester, tx, ctx);
            return;
        }
        let custody = *self.mobile.entry(device).or_insert(Custody::Held);
        if custody == Custody::Held {
            // Algorithm 2, lines 8-9: the home copy is current; extract it.
            let trigger = tx.id;
            self.pending_mobile.entry(device).or_default().push(tx);
            self.propose(
                Cmd::MobileExtract {
                    device,
                    remote: requester,
                    trigger,
                },
                ctx,
            );
        } else if custody == Custody::HandedTo(requester) {
            // The records point at the requester itself: the previous
            // `StateMsg` to it was lost (its primary crashed mid hand-off
            // before installing).  This domain's copy is still the freshest
            // — extraction copies, it does not erase — so re-extract and
            // answer directly instead of bouncing the query back to the
            // requester forever.
            self.hand_over(device, home, requester, tx, ctx);
        } else if let Custody::HandedTo(current_remote) = custody {
            // Lines 10-12: some other remote domain has the freshest records;
            // pull them back here first, then forward to the requester.
            self.queue_and_query(current_remote, tx, true, ctx);
        }
    }

    /// The home domain agreed (through internal consensus) to extract and
    /// lock the device's state.
    pub(crate) fn apply_mobile_extract(
        &mut self,
        device: ClientId,
        remote: DomainId,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        // Every replica of the home domain flips the lock and records the new
        // owner of the freshest copy.
        self.mobile.insert(device, Custody::HandedTo(remote));
        if self.is_primary() {
            let trigger_tx = self.pending_mobile.get_mut(&device).and_then(|q| q.pop());
            if self.no_pending_mobile(device) {
                self.pending_mobile.remove(&device);
            }
            if let Some(tx) = trigger_tx {
                self.hand_over(device, self.domain(), remote, tx, ctx);
            }
        }
    }

    /// A certified state message arrived (at the remote domain the device is
    /// visiting, or back at the home domain).
    pub(crate) fn on_state_msg(
        &mut self,
        device: ClientId,
        entries: Vec<(String, u64)>,
        tx: Transaction,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        if !self.is_primary() {
            return;
        }
        self.propose(
            Cmd::MobileInstall {
                device,
                entries,
                tx,
            },
            ctx,
        );
    }

    /// The domain agreed to install the device's state.  Depending on whose
    /// domain we are (the visited remote, the home pulling state back, or the
    /// home acting as intermediary) the triggering transaction is executed or
    /// forwarded.
    pub(crate) fn apply_mobile_install(
        &mut self,
        device: ClientId,
        entries: &[(String, u64)],
        tx: Transaction,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        let home = device_home(&tx);
        let my_domain = self.domain();
        let destination = match &tx.kind {
            TxKind::Mobile { remote, .. } => *remote,
            TxKind::Internal { domain } => *domain,
            TxKind::CrossDomain { .. } => my_domain,
        };

        if destination == my_domain {
            // The state reached the domain that needs it: execute the
            // triggering transaction and everything queued behind it.
            //
            // Duplicate-delivery guard: when this domain *already* holds the
            // authoritative copy (a lost-`StateMsg` retry crossed the copy
            // that did arrive), installing the stale snapshot again would
            // roll back every transaction executed since — the "duplicated
            // balance" failure.  Keep the live copy; only the queued
            // transactions are (idempotently) executed.
            let already_authoritative = if home == my_domain {
                self.mobile.get(&device) == Some(&Custody::Held)
            } else {
                self.hosted_devices.contains(&device)
            };
            if !already_authoritative {
                self.state.install_account_state(entries);
            }
            if home == my_domain {
                self.mobile.insert(device, Custody::Held);
            } else {
                self.hosted_devices.insert(device);
            }
            let queued = self.pending_mobile.remove(&device).unwrap_or_default();
            for tx in std::iter::once(tx).chain(queued) {
                self.commit(tx, Commit::Internal, ctx);
            }
        } else if home == my_domain {
            // Intermediary: the home domain pulled the state back from a
            // previous remote and its primary now forwards it to the new
            // remote.  Every replica installs the pulled-back copy — it
            // supersedes the home's stale one — and records the pointer, so a
            // view change keeps both the state and the routing information.
            self.state.install_account_state(entries);
            self.mobile.insert(device, Custody::HandedTo(destination));
            if self.is_primary() {
                self.hand_over(device, home, destination, tx, ctx);
            }
        }
    }
}

/// The home domain of the device issuing `tx` (falls back to the transaction
/// kind's information; every mobile transaction carries its local domain).
fn device_home(tx: &Transaction) -> DomainId {
    match &tx.kind {
        TxKind::Mobile { local, .. } => *local,
        TxKind::Internal { domain } => *domain,
        TxKind::CrossDomain { domains } => domains.first().copied().unwrap_or(DomainId::new(1, 0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_types::{Operation, TxId};

    #[test]
    fn device_home_prefers_the_mobile_local_domain() {
        let tx = Transaction::mobile(
            TxId(1),
            ClientId(9),
            DomainId::new(1, 2),
            DomainId::new(1, 3),
            Operation::Noop,
        );
        assert_eq!(device_home(&tx), DomainId::new(1, 2));
        let tx = Transaction::internal(TxId(2), ClientId(9), DomainId::new(1, 1), Operation::Noop);
        assert_eq!(device_home(&tx), DomainId::new(1, 1));
    }
}
