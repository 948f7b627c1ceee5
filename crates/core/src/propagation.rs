//! Lazy propagation of blockchain ledgers (Section 5).
//!
//! Height-1 domains proceed in rounds.  At the end of each round the primary
//! packs the transactions committed in that round into a `block` message —
//! transactions, Merkle root and the abstracted state delta λ(D_rn − D_rn-1)
//! — certified by the domain, and sends it to every node of the parent
//! domain.  Parent domains order received blocks through their internal
//! consensus, incorporate them into their DAG ledger and aggregate view, and
//! in turn send their own (summarized) blocks to their parents at a slower
//! cadence.

use crate::command::Cmd;
use crate::host::HostedReplica;
use crate::messages::SaguaroMsg;
use crate::node::SaguaroNode;
use saguaro_ledger::{AbstractionFn, Block, DeltaKey};
use saguaro_net::Context;
use saguaro_types::DomainId;

impl SaguaroNode {
    /// End-of-round handler: cut and send this domain's block, then schedule
    /// the next round.  Also drives periodic progress checks for the
    /// optimistic validator.
    pub(crate) fn on_round_timer(&mut self, ctx: &mut Context<'_, SaguaroMsg>) {
        self.round += 1;
        if self.is_primary() {
            if let Some(parent) = self.tree.parent(self.domain()) {
                // A height-1 domain only writes and a domain above only
                // folds, so one of the two lists is empty.  A written key
                // goes up as the state map's own handle, tagged with the
                // domain that wrote it.
                let origin = self.domain();
                let writes = self.round_writes.drain(..);
                let writes = writes.map(|(key, value)| (DeltaKey { origin, key }, value));
                self.round_updates.extend(writes);
                let delta = AbstractionFn::Full.apply(&self.round_updates);
                self.round_updates.clear();
                let block = match self.domain().height {
                    1 => self.ledger.cut_block(delta),
                    _ => self.dag.cut_block(delta),
                };
                let cert_sigs = self.cert_sigs();
                self.send_to_domain(
                    parent,
                    SaguaroMsg::BlockMsg {
                        child: self.domain(),
                        block,
                        cert_sigs,
                    },
                    ctx,
                );
            }
        }
        let interval = self.config.round_interval_for_height(self.domain().height);
        self.round_timer = Some(ctx.set_timer(interval, SaguaroMsg::RoundTimer));
    }

    /// A block message arrived from a child domain: the primary orders it
    /// through the internal consensus ("nodes in higher-level domains achieve
    /// (internal) consensus on block messages that they receive from child
    /// domains").
    pub(crate) fn on_block_msg(
        &mut self,
        child: DomainId,
        block: Block,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        if !self.is_primary() {
            return;
        }
        if !block.verify_content() {
            return; // tampered or malformed blocks are dropped
        }
        self.propose(Cmd::ChildBlock { child, block }, ctx);
    }

    /// The domain's internal consensus ordered a child block: incorporate it
    /// into the DAG ledger, the aggregate view and (in optimistic mode) the
    /// validator; then forward its contents towards the root on the next
    /// round.
    pub(crate) fn apply_child_block(
        &mut self,
        child: DomainId,
        block: Block,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        let expected = self.dag.last_round_of(child) + 1;
        let round = block.header.id.round;
        if round > expected {
            // Buffer out-of-order blocks until the gap fills.
            self.pending_child_blocks.insert((child, round), block);
            return;
        }
        if round < expected {
            return; // duplicate
        }
        self.incorporate_block(child, block, ctx);
        // Drain any buffered successors that are now in order.
        loop {
            let next = self.dag.last_round_of(child) + 1;
            match self.pending_child_blocks.remove(&(child, next)) {
                Some(b) => self.incorporate_block(child, b, ctx),
                None => break,
            }
        }
    }

    fn incorporate_block(
        &mut self,
        child: DomainId,
        block: Block,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        // Optimistic consistency checks use the original per-child sequence
        // numbers carried inside the block.
        self.validate_optimistic_block(child, &block, ctx);

        // A transaction seen first here joins the chain the next block is cut from.
        if self.dag.apply_block(child, &block).is_err() {
            return;
        }
        self.agg.apply_delta(child, &block.state_delta);
        // Fold the child's abstracted updates into this domain's own next
        // block so summaries keep flowing towards the root — which has no
        // next block, so there nothing is folded.  Each entry already names
        // the domain that wrote it.
        if self.tree.parent(self.domain()).is_some() {
            let entries = block.state_delta.entries();
            self.round_updates.extend_from_slice(entries);
        }
    }
}
