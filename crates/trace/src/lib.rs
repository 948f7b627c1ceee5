//! Deterministic structured tracing for the Saguaro simulator.
//!
//! The simulator can replay any run bit-identically but — before this crate —
//! could not *show* what happened inside one.  `saguaro-trace` adds the
//! observability layer a real consensus stack ships with, built around the
//! same determinism guarantee the engine already gives for results:
//!
//! * **Protocol event records** ([`TraceEventKind`]) — view changes,
//!   suspicion firings, checkpoint stabilisation, snapshots, state transfer,
//!   batch cuts, equivocation detection and scripted fault-plan events, each
//!   stamped with the virtual time and the actor that observed it.
//! * **Transaction lifecycle spans** — submitted → batched → ordered →
//!   executed → replied → completed, sampled at a fixed stride
//!   ([`TraceConfig::SPAN_SAMPLE_EVERY`]) so endurance runs stay `O(1)`.
//! * **Bounded ring buffers** ([`Tracer`]) — each actor records into its own
//!   fixed-capacity buffer; the oldest events are dropped (and counted) under
//!   pressure, so memory is bounded regardless of run length.
//! * **Deterministic merge** ([`RunTrace`]) — per-actor buffers are combined
//!   by sorting on `(time, actor, per-actor sequence)`.  Because each actor's
//!   history is identical for a given seed, the merged trace — and its
//!   [`RunTrace::chrome_json`] export — is byte-identical too, making "diff
//!   two traces" a debugging primitive.
//!
//! The Chrome export follows the trace-event JSON format understood by
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`: protocol
//! events become thread-scoped instants on per-actor tracks and transaction
//! spans become async `b`/`n`/`e` event trees keyed by transaction id.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use saguaro_types::{ClientId, NodeId, SeqNo, SimTime, TxId};

pub use saguaro_types::TraceConfig;

/// The actor a trace event was observed by.
///
/// The derived `Ord` (nodes, then clients, then the harness) is part of the
/// determinism contract: it is the tie-break between different actors that
/// record an event at the same virtual time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TraceActor {
    /// A replica node (Saguaro or baseline).
    Node(NodeId),
    /// A client actor.
    Client(ClientId),
    /// The harness itself — used for scripted fault-plan events, which are
    /// injected by the experiment driver rather than observed by any one
    /// actor.
    Harness,
}

impl TraceActor {
    /// Human-readable track label used by the Chrome export.
    pub fn label(&self) -> String {
        match self {
            TraceActor::Node(n) => format!("{n}"),
            TraceActor::Client(c) => format!("{c}"),
            TraceActor::Harness => "harness".to_string(),
        }
    }
}

/// What happened.  Every variant carries the protocol-level payload needed to
/// interpret the event without replaying the run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TraceEventKind {
    /// A replica's progress timer expired while work was pending: the local
    /// suspicion counter fired and a view-change vote is being raised.
    SuspicionFired {
        /// The view the replica was in when it suspected the primary.
        view: u64,
    },
    /// A view-change vote for `view` left this replica.
    ViewChangeStart {
        /// The view being campaigned for.
        view: u64,
    },
    /// The replica installed a new view.
    ViewChangeComplete {
        /// The newly installed view.
        view: u64,
        /// The primary of the new view.
        primary: NodeId,
    },
    /// The stable checkpoint advanced to `seq`.
    CheckpointStable {
        /// The new stable-checkpoint sequence number.
        seq: SeqNo,
    },
    /// The replica materialised a snapshot at `seq` (and pruned its log).
    SnapshotTaken {
        /// The snapshot's sequence number.
        seq: SeqNo,
    },
    /// The replica installed a snapshot received via state transfer.
    SnapshotInstalled {
        /// The snapshot's sequence number.
        seq: SeqNo,
    },
    /// The replica received a state-transfer request from a lagging peer.
    StateTransferRequest,
    /// The replica caught up from a state-transfer reply.
    StateTransferReply {
        /// Commands delivered out of the reply.
        commands: u64,
        /// Wire bytes of the reply.
        bytes: u64,
    },
    /// The primary cut a batch of `commands` pending commands into a
    /// proposal.
    BatchCut {
        /// Number of commands in the cut batch.
        commands: u64,
    },
    /// The replica assembled conflicting certificates for the same slot —
    /// evidence of primary equivocation.
    EquivocationDetected {
        /// Total conflicting certificates observed so far.
        conflicts: u64,
    },
    /// A scripted fault-plan event took effect (crash, recovery, partition,
    /// equivocation, delay spike...).  Synthesised by the harness from the
    /// experiment's fault plan.
    Fault {
        /// Human-readable description of the scripted event.
        label: String,
    },
    /// A sampled transaction left its client.
    TxSubmitted {
        /// The transaction.
        tx: TxId,
    },
    /// A sampled transaction was cut into a consensus batch.
    TxBatched {
        /// The transaction.
        tx: TxId,
    },
    /// A sampled transaction was ordered (delivered) by consensus.
    TxOrdered {
        /// The transaction.
        tx: TxId,
        /// The consensus sequence number it was delivered at.
        seq: SeqNo,
    },
    /// A sampled transaction was executed against the ledger.
    TxExecuted {
        /// The transaction.
        tx: TxId,
    },
    /// A reply for a sampled transaction left a replica.
    TxReplied {
        /// The transaction.
        tx: TxId,
        /// Whether the reply reports commit (vs abort).
        committed: bool,
    },
    /// The client assembled a reply quorum for a sampled transaction.
    TxCompleted {
        /// The transaction.
        tx: TxId,
        /// Whether the quorum reported commit (vs abort).
        committed: bool,
    },
}

impl TraceEventKind {
    /// The event's category — the coarse grouping used by exporters and the
    /// CI smoke check.
    pub const fn category(&self) -> &'static str {
        match self {
            TraceEventKind::SuspicionFired { .. } => "suspicion",
            TraceEventKind::ViewChangeStart { .. } | TraceEventKind::ViewChangeComplete { .. } => {
                "view_change"
            }
            TraceEventKind::CheckpointStable { .. } => "checkpoint",
            TraceEventKind::SnapshotTaken { .. } | TraceEventKind::SnapshotInstalled { .. } => {
                "snapshot"
            }
            TraceEventKind::StateTransferRequest | TraceEventKind::StateTransferReply { .. } => {
                "state_transfer"
            }
            TraceEventKind::BatchCut { .. } => "batch",
            TraceEventKind::EquivocationDetected { .. } => "equivocation",
            TraceEventKind::Fault { .. } => "fault",
            TraceEventKind::TxSubmitted { .. }
            | TraceEventKind::TxBatched { .. }
            | TraceEventKind::TxOrdered { .. }
            | TraceEventKind::TxExecuted { .. }
            | TraceEventKind::TxReplied { .. }
            | TraceEventKind::TxCompleted { .. } => "tx",
        }
    }

    /// The event's name in the Chrome export.
    pub const fn name(&self) -> &'static str {
        match self {
            TraceEventKind::SuspicionFired { .. } => "suspicion_fired",
            TraceEventKind::ViewChangeStart { .. } => "view_change_start",
            TraceEventKind::ViewChangeComplete { .. } => "view_change_complete",
            TraceEventKind::CheckpointStable { .. } => "checkpoint_stable",
            TraceEventKind::SnapshotTaken { .. } => "snapshot_taken",
            TraceEventKind::SnapshotInstalled { .. } => "snapshot_installed",
            TraceEventKind::StateTransferRequest => "state_transfer_request",
            TraceEventKind::StateTransferReply { .. } => "state_transfer_reply",
            TraceEventKind::BatchCut { .. } => "batch_cut",
            TraceEventKind::EquivocationDetected { .. } => "equivocation_detected",
            TraceEventKind::Fault { .. } => "fault",
            TraceEventKind::TxSubmitted { .. } => "submitted",
            TraceEventKind::TxBatched { .. } => "batched",
            TraceEventKind::TxOrdered { .. } => "ordered",
            TraceEventKind::TxExecuted { .. } => "executed",
            TraceEventKind::TxReplied { .. } => "replied",
            TraceEventKind::TxCompleted { .. } => "completed",
        }
    }

    /// The transaction a lifecycle-span event belongs to, if any.
    pub const fn span_tx(&self) -> Option<TxId> {
        match self {
            TraceEventKind::TxSubmitted { tx }
            | TraceEventKind::TxBatched { tx }
            | TraceEventKind::TxOrdered { tx, .. }
            | TraceEventKind::TxExecuted { tx }
            | TraceEventKind::TxReplied { tx, .. }
            | TraceEventKind::TxCompleted { tx, .. } => Some(*tx),
            _ => None,
        }
    }
}

/// One recorded event: when, who, what — plus the recording actor's local
/// sequence number, the final tie-break of the deterministic merge order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Virtual time the event was observed at.
    pub time: SimTime,
    /// The actor that observed it.
    pub actor: TraceActor,
    /// Position in the recording actor's own history (monotonic per actor).
    pub seq: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// The total merge order: `(time, actor, seq)`.
    fn sort_key(&self) -> (SimTime, TraceActor, u64) {
        (self.time, self.actor, self.seq)
    }
}

/// A bounded per-actor event recorder.
///
/// Zero-overhead when off: a disabled tracer allocates nothing and every
/// [`Tracer::record`] call is a single branch.  When enabled it appends into
/// a fixed-capacity ring buffer, dropping (and counting) the oldest events
/// under pressure so memory stays bounded for any run length.
#[derive(Clone, Debug)]
pub struct Tracer {
    config: TraceConfig,
    actor: TraceActor,
    buf: VecDeque<TraceEvent>,
    next_seq: u64,
    dropped: u64,
}

impl Tracer {
    /// A tracer recording on behalf of `actor` under `config`.  Panics if
    /// the ring buffer would hold no event.
    pub fn new(config: TraceConfig, actor: TraceActor) -> Self {
        assert!(
            config.buffer_capacity > 0,
            "TraceConfig::buffer_capacity is 0: a ring buffer holds at least one event"
        );
        Self {
            config,
            actor,
            buf: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// A disabled tracer (the default for every node until an experiment
    /// opts in).
    pub fn disabled() -> Self {
        Self::new(TraceConfig::off(), TraceActor::Harness)
    }

    /// True if events are being recorded.  Callers use this to skip any
    /// payload computation (deltas, labels) when tracing is off.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// True if a lifecycle span should be recorded for transaction `id`.
    pub fn samples(&self, id: u64) -> bool {
        self.config.samples(id)
    }

    /// Events dropped so far because the ring buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records one event at virtual time `time`.  A no-op when disabled.
    pub fn record(&mut self, time: SimTime, kind: TraceEventKind) {
        if !self.config.enabled {
            return;
        }
        let capacity = self.config.buffer_capacity as usize;
        if self.buf.len() == capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.buf.push_back(TraceEvent {
            time,
            actor: self.actor,
            seq,
            kind,
        });
    }

    /// Drains the buffered events (harvest), leaving the tracer reusable.
    pub fn take(&mut self) -> (Vec<TraceEvent>, u64) {
        (self.buf.drain(..).collect(), self.dropped)
    }
}

/// The merged, deterministically ordered trace of one run.
#[derive(Clone, Debug, Default)]
pub struct RunTrace {
    /// All surviving events in `(time, actor, seq)` order.
    pub events: Vec<TraceEvent>,
    /// Total events dropped across all ring buffers.
    pub dropped: u64,
}

impl RunTrace {
    /// Merges per-actor event batches into the canonical order.
    ///
    /// The result is independent of the order the batches are supplied in:
    /// the sort key `(time, actor, seq)` is total because `seq` is monotonic
    /// within an actor, so this is the determinism anchor for every export.
    pub fn merge(parts: impl IntoIterator<Item = Vec<TraceEvent>>, dropped: u64) -> Self {
        let mut events: Vec<TraceEvent> = parts.into_iter().flatten().collect();
        events.sort_by_key(TraceEvent::sort_key);
        Self { events, dropped }
    }

    /// Number of merged events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Event count per category, sorted by category name.
    pub fn category_counts(&self) -> Vec<(&'static str, u64)> {
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        for event in &self.events {
            *counts.entry(event.kind.category()).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Renders the trace in the Chrome trace-event JSON format (loadable in
    /// Perfetto or `chrome://tracing`).
    ///
    /// Each actor gets its own track (named via `thread_name` metadata);
    /// protocol events are thread-scoped instants and transaction lifecycle
    /// spans are async `b`/`n`/`e` event trees keyed by the transaction id.
    /// The rendering is a pure function of the merged event order, so it is
    /// byte-identical for a given seed.
    pub fn chrome_json(&self) -> String {
        // Stable actor -> track id assignment: sorted actor order (nodes,
        // then clients, then the harness — the BTreeMap iteration order).
        let mut tids: BTreeMap<TraceActor, u64> = BTreeMap::new();
        for event in &self.events {
            tids.entry(event.actor).or_insert(0);
        }
        for (tid, slot) in tids.values_mut().enumerate() {
            *slot = tid as u64;
        }

        let mut out = String::new();
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for (actor, tid) in &tids {
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\""
            );
            escape_json(&actor.label(), &mut out);
            out.push_str("\"}}");
        }
        for event in &self.events {
            sep(&mut out, &mut first);
            let tid = tids[&event.actor];
            let ts = event.time.as_micros();
            let name = event.kind.name();
            let cat = event.kind.category();
            match &event.kind {
                TraceEventKind::TxSubmitted { tx } => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"tx\",\"cat\":\"{cat}\",\"ph\":\"b\",\"id\":{},\
                         \"ts\":{ts},\"pid\":1,\"tid\":{tid}}}",
                        tx.0
                    );
                }
                TraceEventKind::TxCompleted { tx, committed } => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"tx\",\"cat\":\"{cat}\",\"ph\":\"e\",\"id\":{},\
                         \"ts\":{ts},\"pid\":1,\"tid\":{tid},\
                         \"args\":{{\"committed\":{committed}}}}}",
                        tx.0
                    );
                }
                kind if kind.span_tx().is_some() => {
                    let tx = kind.span_tx().expect("span event carries a tx id");
                    let _ = write!(
                        out,
                        "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"n\",\"id\":{},\
                         \"ts\":{ts},\"pid\":1,\"tid\":{tid}{}}}",
                        tx.0,
                        span_args(kind)
                    );
                }
                kind => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\
                         \"ts\":{ts},\"pid\":1,\"tid\":{tid}{}}}",
                        instant_args(kind)
                    );
                }
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// Comma separation helper for the hand-rendered JSON array.
fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

/// `,"args":{...}` payload of an async-instant span hop (empty if none).
fn span_args(kind: &TraceEventKind) -> String {
    match kind {
        TraceEventKind::TxOrdered { seq, .. } => format!(",\"args\":{{\"seq\":{seq}}}"),
        TraceEventKind::TxReplied { committed, .. } => {
            format!(",\"args\":{{\"committed\":{committed}}}")
        }
        _ => String::new(),
    }
}

/// `,"args":{...}` payload of a protocol instant event (empty if none).
fn instant_args(kind: &TraceEventKind) -> String {
    match kind {
        TraceEventKind::SuspicionFired { view } | TraceEventKind::ViewChangeStart { view } => {
            format!(",\"args\":{{\"view\":{view}}}")
        }
        TraceEventKind::ViewChangeComplete { view, primary } => {
            let mut args = format!(",\"args\":{{\"view\":{view},\"primary\":\"");
            escape_json(&primary.to_string(), &mut args);
            args.push_str("\"}");
            args
        }
        TraceEventKind::CheckpointStable { seq }
        | TraceEventKind::SnapshotTaken { seq }
        | TraceEventKind::SnapshotInstalled { seq } => format!(",\"args\":{{\"seq\":{seq}}}"),
        TraceEventKind::StateTransferReply { commands, bytes } => {
            format!(",\"args\":{{\"commands\":{commands},\"bytes\":{bytes}}}")
        }
        TraceEventKind::BatchCut { commands } => {
            format!(",\"args\":{{\"commands\":{commands}}}")
        }
        TraceEventKind::EquivocationDetected { conflicts } => {
            format!(",\"args\":{{\"conflicts\":{conflicts}}}")
        }
        TraceEventKind::Fault { label } => {
            let mut args = String::from(",\"args\":{\"label\":\"");
            escape_json(label, &mut args);
            args.push_str("\"}");
            args
        }
        _ => String::new(),
    }
}

/// Appends `s` to `out` escaped as the contents of a JSON string (the
/// surrounding quotes are the caller's): quotes, backslashes and control
/// characters are escaped, everything else is copied.
pub fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_types::DomainId;

    fn node(i: u16) -> NodeId {
        NodeId::new(DomainId::new(1, 0), i)
    }

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert!(!t.enabled());
        t.record(at(5), TraceEventKind::BatchCut { commands: 3 });
        let (events, dropped) = t.take();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn sampling_respects_stride_and_master_switch() {
        let on = TraceConfig::on();
        assert!(on.samples(0));
        assert!(on.samples(8));
        assert!(on.samples(16));
        assert!(!on.samples(3));
        assert!(!on.samples(4));
        assert!(!TraceConfig::off().samples(0));
        assert!(!TraceConfig::off().samples(8));
    }

    #[test]
    fn ring_buffer_bounds_memory_and_counts_drops() {
        let config = TraceConfig::on().with_buffer_capacity(4);
        let mut t = Tracer::new(config, TraceActor::Node(node(0)));
        for i in 0..10 {
            t.record(at(i), TraceEventKind::BatchCut { commands: i });
        }
        assert_eq!(t.dropped(), 6);
        let (events, dropped) = t.take();
        assert_eq!(events.len(), 4);
        assert_eq!(dropped, 6);
        // The survivors are the newest events, with their original seqs.
        assert_eq!(events[0].seq, 6);
        assert_eq!(events[3].seq, 9);
    }

    #[test]
    #[should_panic(expected = "TraceConfig::buffer_capacity is 0")]
    fn zero_buffer_capacity_is_refused() {
        let _ = Tracer::new(
            TraceConfig::on().with_buffer_capacity(0),
            TraceActor::Harness,
        );
    }

    #[test]
    fn merge_order_is_independent_of_buffer_order() {
        let mut a = Tracer::new(TraceConfig::on(), TraceActor::Node(node(0)));
        let mut b = Tracer::new(TraceConfig::on(), TraceActor::Node(node(1)));
        a.record(at(10), TraceEventKind::SuspicionFired { view: 0 });
        a.record(at(10), TraceEventKind::ViewChangeStart { view: 1 });
        b.record(at(5), TraceEventKind::BatchCut { commands: 1 });
        b.record(at(10), TraceEventKind::CheckpointStable { seq: 4 });
        let (ea, da) = a.clone().take();
        let (eb, db) = b.clone().take();
        let forward = RunTrace::merge([ea.clone(), eb.clone()], da + db);
        let reverse = RunTrace::merge([eb, ea], db + da);
        assert_eq!(forward.events, reverse.events);
        // Time first, then actor, then per-actor seq.
        assert_eq!(forward.events[0].time, at(5));
        assert_eq!(forward.events[1].actor, TraceActor::Node(node(0)));
        assert_eq!(forward.events[1].seq, 0);
        assert_eq!(forward.events[2].seq, 1);
        assert_eq!(forward.events[3].actor, TraceActor::Node(node(1)));
    }

    #[test]
    fn category_counts_cover_all_groups() {
        let mut t = Tracer::new(TraceConfig::on(), TraceActor::Node(node(0)));
        t.record(at(1), TraceEventKind::SuspicionFired { view: 0 });
        t.record(at(2), TraceEventKind::ViewChangeStart { view: 1 });
        t.record(
            at(3),
            TraceEventKind::ViewChangeComplete {
                view: 1,
                primary: node(1),
            },
        );
        t.record(at(4), TraceEventKind::TxSubmitted { tx: TxId(8) });
        let (events, dropped) = t.take();
        let trace = RunTrace::merge([events], dropped);
        let counts = trace.category_counts();
        assert_eq!(
            counts,
            vec![("suspicion", 1), ("tx", 1), ("view_change", 2)]
        );
    }

    #[test]
    fn chrome_export_pairs_span_phases_and_names_tracks() {
        let mut client = Tracer::new(TraceConfig::on(), TraceActor::Client(ClientId(3)));
        let mut replica = Tracer::new(TraceConfig::on(), TraceActor::Node(node(0)));
        client.record(at(1), TraceEventKind::TxSubmitted { tx: TxId(8) });
        replica.record(
            at(2),
            TraceEventKind::TxOrdered {
                tx: TxId(8),
                seq: 1,
            },
        );
        replica.record(
            at(3),
            TraceEventKind::TxReplied {
                tx: TxId(8),
                committed: true,
            },
        );
        client.record(
            at(4),
            TraceEventKind::TxCompleted {
                tx: TxId(8),
                committed: true,
            },
        );
        let (ec, dc) = client.take();
        let (er, dr) = replica.take();
        let trace = RunTrace::merge([ec, er], dc + dr);
        let json = trace.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"n\""));
        assert!(json.contains("\"ph\":\"e\""));
        assert!(json.contains("\"thread_name\""));
        // Node track sorts before the client track.
        let node_track = json.find("D1-0/n0").expect("node track named");
        let client_track = json.find("client-3").expect("client track named");
        assert!(node_track < client_track);
        // Balanced braces — cheap structural sanity for the hand renderer.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        let escape = |s: &str| {
            let mut out = String::from("<");
            escape_json(s, &mut out);
            out
        };
        assert_eq!(escape("a\"b\\c"), "<a\\\"b\\\\c");
        assert_eq!(escape("x\ny\rz\t"), "<x\\ny\\rz\\t");
        assert_eq!(escape("\u{1}\u{1f}é"), "<\\u0001\\u001fé");
    }
}
