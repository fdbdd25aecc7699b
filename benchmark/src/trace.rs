//! The span model of the traced run: what a span is, how self time is
//! computed, and the per-node recorder the timing decorators write into.
//!
//! Every node (four servers, one client) has one [`NodeTrace`]. The three
//! decorators of a node — `Process`, `Transport`, `Storage` — all run on that
//! node's event-loop thread, so the recorder's mutex is never contended while
//! the cluster runs; the harness locks it only at the measurement boundaries.

use prestige_core::LatencyHistogram;
use prestige_metrics::Json;
use prestige_types::Actor;
use std::collections::HashMap;

/// Where a span was taken. The names are the layer metric prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SpanKind {
    OnStart = 0,
    OnTimer,
    OnJobComplete,
    /// `on_message`, one kind per entry of `spec::KINDS`, in that order.
    MsgProp,
    MsgOrd,
    MsgOrdReply,
    MsgCmt,
    MsgCmtReply,
    MsgCommitBlock,
    MsgNotif,
    MsgViewChange,
    MsgSync,
    MsgCkpt,
    NetSend,
    NetBroadcast,
    /// A zero-timeout receive: the loop's queue poll, message or not.
    NetPoll,
    /// A receive with a timeout: the loop had nothing to do and waited.
    NetWait,
    StorageAppend,
    /// An append during which the WAL issued an fsync (it batches them inside
    /// `append`, so from outside the two are told apart by `StorageStats`).
    StorageAppendSync,
    StorageSync,
    StoragePrune,
}

pub const SPAN_KINDS: usize = SpanKind::StoragePrune as usize + 1;

/// The first `on_message` kind; `spec::KINDS[i]` is `MSG_KINDS[i]`.
pub const MSG_KINDS: [SpanKind; 10] = [
    SpanKind::MsgProp,
    SpanKind::MsgOrd,
    SpanKind::MsgOrdReply,
    SpanKind::MsgCmt,
    SpanKind::MsgCmtReply,
    SpanKind::MsgCommitBlock,
    SpanKind::MsgNotif,
    SpanKind::MsgViewChange,
    SpanKind::MsgSync,
    SpanKind::MsgCkpt,
];

/// Span names, indexed by `SpanKind as usize`.
const NAMES: [&str; SPAN_KINDS] = [
    "core.on_start",
    "core.on_timer",
    "core.on_job_complete",
    "core.on_message.prop",
    "core.on_message.ord",
    "core.on_message.ord_reply",
    "core.on_message.cmt",
    "core.on_message.cmt_reply",
    "core.on_message.commit_block",
    "core.on_message.notif",
    "core.on_message.view_change",
    "core.on_message.sync",
    "core.on_message.ckpt",
    "net.send",
    "net.broadcast",
    "net.recv_poll",
    "net.recv_wait",
    "storage.append",
    "storage.append_sync",
    "storage.sync",
    "storage.prune",
];

impl SpanKind {
    pub fn name(self) -> &'static str {
        NAMES[self as usize]
    }
}

/// Every handler call of the `Process` contract.
pub const HANDLER_KINDS: [SpanKind; 13] = [
    SpanKind::OnStart,
    SpanKind::OnTimer,
    SpanKind::OnJobComplete,
    SpanKind::MsgProp,
    SpanKind::MsgOrd,
    SpanKind::MsgOrdReply,
    SpanKind::MsgCmt,
    SpanKind::MsgCmtReply,
    SpanKind::MsgCommitBlock,
    SpanKind::MsgNotif,
    SpanKind::MsgViewChange,
    SpanKind::MsgSync,
    SpanKind::MsgCkpt,
];
/// Every call into the `Transport`.
pub const NET_KINDS: [SpanKind; 4] = [
    SpanKind::NetSend,
    SpanKind::NetBroadcast,
    SpanKind::NetPoll,
    SpanKind::NetWait,
];
/// Every call into the `Storage`.
pub const STORAGE_KINDS: [SpanKind; 4] = [
    SpanKind::StorageAppend,
    SpanKind::StorageAppendSync,
    SpanKind::StorageSync,
    SpanKind::StoragePrune,
];

/// The consensus instance a span belongs to: `(view, sequence number)`, taken
/// from `Ord`/`OrdReply`/`Cmt`/`CmtReply`/`CommitBlock`.
pub type RequestId = (u64, u64);

/// One recorded span. Times are nanoseconds since the hub's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub kind: SpanKind,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one: the receive that delivered a handled
    /// message, the handler whose effects a send replays, the handler a
    /// storage call runs inside.
    pub cause: Option<u32>,
    pub request: Option<RequestId>,
}

/// A span's duration minus the part of its interval that `children` cover.
/// Children may overlap one another and may stick out of the parent; covered
/// time is counted once and only inside the parent.
pub fn self_time_ns(start_ns: u64, end_ns: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start_ns), e.min(end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start_ns;
    for (s, e) in clipped {
        let from = s.max(reach);
        if e > from {
            covered += e - from;
            reach = e;
        }
    }
    (end_ns - start_ns).saturating_sub(covered)
}

/// Sums for one span kind over the measured span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Aggregate {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub max_ns: u64,
}

impl Aggregate {
    pub fn merge(&mut self, other: &Aggregate) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    pub fn us_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// Every span of the first stretch is kept, then one in `SAMPLE_STRIDE`, up
/// to `SAMPLE_CAP` per node: enough to read whole causal chains at the start
/// of the measured span and to see the shape of the rest, in bounded memory.
const SAMPLE_DENSE: u32 = 512;
const SAMPLE_STRIDE: u32 = 256;
const SAMPLE_CAP: usize = 4096;

struct OpenHandler {
    id: u32,
    kind: SpanKind,
    start_ns: u64,
    cause: Option<u32>,
    request: Option<RequestId>,
    children: Vec<(u64, u64)>,
}

/// The leader-side timestamps of one instance's three broadcasts.
#[derive(Default)]
struct Hops {
    pending: HashMap<RequestId, (u64, Option<u64>)>,
    order: LatencyHistogram,
    commit: LatencyHistogram,
}

/// Which broadcast of an instance a transport saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Ord,
    Cmt,
    CommitBlock,
}

/// One node's recorder.
pub struct NodeTrace {
    pub actor: Actor,
    recording: bool,
    next_id: u32,
    recorded: u32,
    open: Option<OpenHandler>,
    last_recv: Option<u32>,
    last_handler: Option<u32>,
    aggregates: [Aggregate; SPAN_KINDS],
    sample: Vec<Span>,
    hops: Hops,
}

/// What the harness keeps of a node once the measured span ends.
#[derive(Clone)]
pub struct NodeSnapshot {
    pub actor: Actor,
    pub aggregates: [Aggregate; SPAN_KINDS],
    pub sample: Vec<Span>,
    pub order_hop: LatencyHistogram,
    pub commit_hop: LatencyHistogram,
}

impl NodeTrace {
    pub fn new(actor: Actor) -> Self {
        NodeTrace {
            actor,
            recording: false,
            next_id: 0,
            recorded: 0,
            open: None,
            last_recv: None,
            last_handler: None,
            aggregates: [Aggregate::default(); SPAN_KINDS],
            sample: Vec::new(),
            hops: Hops::default(),
        }
    }

    /// Starts the measured span: everything recorded so far is warm-up.
    pub fn start_recording(&mut self) {
        self.aggregates = [Aggregate::default(); SPAN_KINDS];
        self.sample.clear();
        self.hops = Hops::default();
        self.recorded = 0;
        self.recording = true;
    }

    /// Ends the measured span and hands back what was recorded.
    pub fn stop_recording(&mut self) -> NodeSnapshot {
        self.recording = false;
        NodeSnapshot {
            actor: self.actor,
            aggregates: self.aggregates,
            sample: std::mem::take(&mut self.sample),
            order_hop: std::mem::take(&mut self.hops.order),
            commit_hop: std::mem::take(&mut self.hops.commit),
        }
    }

    fn fresh_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        id
    }

    fn keep(&mut self, span: Span, self_ns: u64) {
        let agg = &mut self.aggregates[span.kind as usize];
        let duration = span.end_ns - span.start_ns;
        agg.calls += 1;
        agg.total_ns += duration;
        agg.self_ns += self_ns;
        agg.max_ns = agg.max_ns.max(duration);
        let n = self.recorded;
        self.recorded = n.wrapping_add(1);
        if (n < SAMPLE_DENSE || n.is_multiple_of(SAMPLE_STRIDE)) && self.sample.len() < SAMPLE_CAP {
            self.sample.push(span);
        }
    }

    /// A handler call begins on this node's thread.
    pub fn open_handler(&mut self, kind: SpanKind, start_ns: u64, request: Option<RequestId>) {
        debug_assert!(HANDLER_KINDS.contains(&kind));
        let id = self.fresh_id();
        // Only a message handler is caused by a receive.
        let cause = match kind {
            SpanKind::OnStart | SpanKind::OnTimer | SpanKind::OnJobComplete => None,
            _ => self.last_recv.take(),
        };
        self.open = Some(OpenHandler {
            id,
            kind,
            start_ns,
            cause,
            request,
            children: Vec::new(),
        });
    }

    /// The handler call opened last returns.
    pub fn close_handler(&mut self, end_ns: u64) {
        let Some(open) = self.open.take() else {
            return;
        };
        self.last_handler = Some(open.id);
        if !self.recording {
            return;
        }
        let self_ns = self_time_ns(open.start_ns, end_ns, &open.children);
        self.keep(
            Span {
                id: open.id,
                kind: open.kind,
                start_ns: open.start_ns,
                end_ns,
                cause: open.cause,
                request: open.request,
            },
            self_ns,
        );
    }

    /// A finished call into the transport or the storage. Storage calls made
    /// while a handler is open are its children; sends replay the effects of
    /// the handler that just returned.
    pub fn leaf(
        &mut self,
        kind: SpanKind,
        start_ns: u64,
        end_ns: u64,
        request: Option<RequestId>,
        delivered: bool,
    ) {
        let id = self.fresh_id();
        let cause = if STORAGE_KINDS.contains(&kind) {
            match &mut self.open {
                Some(open) => {
                    open.children.push((start_ns, end_ns));
                    Some(open.id)
                }
                None => self.last_handler,
            }
        } else {
            match kind {
                SpanKind::NetSend | SpanKind::NetBroadcast => self.last_handler,
                _ => None,
            }
        };
        if delivered {
            self.last_recv = Some(id);
        }
        if !self.recording {
            return;
        }
        let duration = end_ns - start_ns;
        self.keep(
            Span {
                id,
                kind,
                start_ns,
                end_ns,
                cause,
                request,
            },
            duration,
        );
    }

    /// The transport of this node broadcast one phase of instance `request`
    /// at `at_ns`. On the leader the three phases of an instance give the two
    /// quorum round trips: `Ord` to `Cmt`, and `Cmt` to `CommitBlock`.
    pub fn hop(&mut self, phase: Phase, request: RequestId, at_ns: u64) {
        if !self.recording {
            return;
        }
        let hops = &mut self.hops;
        match phase {
            Phase::Ord => {
                // Instances orphaned by a view change never complete; the
                // map is tiny in steady state, so a flush bounds it.
                if hops.pending.len() > 4096 {
                    hops.pending.clear();
                }
                hops.pending.insert(request, (at_ns, None));
            }
            Phase::Cmt => {
                if let Some(entry) = hops.pending.get_mut(&request) {
                    if entry.1.is_none() {
                        hops.order.record_ms((at_ns - entry.0) as f64 / 1e6);
                        entry.1 = Some(at_ns);
                    }
                }
            }
            Phase::CommitBlock => {
                if let Some((_, Some(cmt_ns))) = hops.pending.remove(&request) {
                    hops.commit.record_ms((at_ns - cmt_ns) as f64 / 1e6);
                }
            }
        }
    }
}

fn actor_label(actor: Actor) -> String {
    match actor {
        Actor::Server(s) => format!("s{}", s.0),
        Actor::Client(c) => format!("c{}", c.0),
    }
}

/// The trace file: per node, the aggregates by span name and the bounded
/// span sample.
pub fn snapshots_json(snapshots: &[NodeSnapshot], span_wall_ns: u64) -> Json {
    let mut nodes = Vec::new();
    for snap in snapshots {
        let mut aggregates = Json::obj();
        for (index, agg) in snap.aggregates.iter().enumerate() {
            if agg.calls == 0 {
                continue;
            }
            let mut o = Json::obj();
            o.push("calls", agg.calls)
                .push("total_ns", agg.total_ns)
                .push("self_ns", agg.self_ns)
                .push("max_ns", agg.max_ns);
            aggregates.push(NAMES[index], o);
        }
        let spans: Vec<Json> = snap
            .sample
            .iter()
            .map(|span| {
                let mut o = Json::obj();
                o.push("id", span.id)
                    .push("name", span.kind.name())
                    .push("start_ns", span.start_ns)
                    .push("end_ns", span.end_ns)
                    .push("cause", span.cause.map_or(Json::Null, Json::from));
                match span.request {
                    Some((view, seq)) => o.push("request", vec![Json::from(view), Json::from(seq)]),
                    None => o.push("request", Json::Null),
                };
                o
            })
            .collect();
        let mut node = Json::obj();
        node.push("actor", actor_label(snap.actor))
            .push("aggregates", aggregates)
            .push("spans", spans);
        nodes.push(node);
    }
    let mut doc = Json::obj();
    doc.push("measured_span_ns", span_wall_ns)
        .push("nodes", nodes);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestige_types::ServerId;

    #[test]
    fn self_time_with_nested_and_overlapping_children() {
        // No children: the whole span.
        assert_eq!(self_time_ns(100, 200, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time_ns(100, 200, &[(110, 120), (150, 170)]), 70);
        // A child nested inside another is covered once.
        assert_eq!(self_time_ns(100, 200, &[(110, 160), (120, 130)]), 50);
        // Overlapping children are merged, in any order.
        assert_eq!(self_time_ns(100, 200, &[(140, 180), (110, 150)]), 30);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time_ns(100, 200, &[(50, 120), (190, 400)]), 70);
        // Children covering everything, and one wholly outside.
        assert_eq!(self_time_ns(100, 200, &[(0, 300), (500, 600)]), 0);
        assert_eq!(self_time_ns(100, 200, &[(500, 600)]), 100);
    }

    #[test]
    fn kind_table_matches_the_enum_and_the_spec() {
        assert_eq!(SpanKind::OnStart.name(), "core.on_start");
        assert_eq!(SpanKind::NetWait.name(), "net.recv_wait");
        assert_eq!(SpanKind::StoragePrune.name(), "storage.prune");
        for (kind, name) in MSG_KINDS.iter().zip(crate::spec::KINDS) {
            assert_eq!(kind.name(), format!("core.on_message.{name}"));
        }
    }

    #[test]
    fn recorder_links_causes_and_subtracts_storage_from_handlers() {
        let mut node = NodeTrace::new(Actor::Server(ServerId(0)));
        node.start_recording();
        // recv -> handler (with a storage child) -> broadcast.
        node.leaf(SpanKind::NetPoll, 0, 10, None, true);
        node.open_handler(SpanKind::MsgCommitBlock, 10, Some((1, 7)));
        node.leaf(SpanKind::StorageAppend, 20, 50, None, false);
        node.close_handler(100);
        node.leaf(SpanKind::NetBroadcast, 100, 130, Some((1, 7)), false);
        let snap = node.stop_recording();

        let handler = snap.aggregates[SpanKind::MsgCommitBlock as usize];
        assert_eq!(
            (handler.calls, handler.total_ns, handler.self_ns),
            (1, 90, 60)
        );
        let spans = &snap.sample;
        assert_eq!(spans.len(), 4);
        let recv = spans.iter().find(|s| s.kind == SpanKind::NetPoll).unwrap();
        let append = spans
            .iter()
            .find(|s| s.kind == SpanKind::StorageAppend)
            .unwrap();
        let handled = spans
            .iter()
            .find(|s| s.kind == SpanKind::MsgCommitBlock)
            .unwrap();
        let sent = spans
            .iter()
            .find(|s| s.kind == SpanKind::NetBroadcast)
            .unwrap();
        assert_eq!(handled.cause, Some(recv.id));
        assert_eq!(append.cause, Some(handled.id));
        assert_eq!(sent.cause, Some(handled.id));
        assert_eq!(handled.request, Some((1, 7)));

        // Nothing is recorded outside the measured span.
        node.leaf(SpanKind::NetSend, 200, 210, None, false);
        assert!(node.stop_recording().sample.is_empty());
    }

    #[test]
    fn hops_pair_the_three_broadcasts_of_an_instance() {
        let mut node = NodeTrace::new(Actor::Server(ServerId(0)));
        node.start_recording();
        node.hop(Phase::Ord, (1, 5), 1_000_000);
        node.hop(Phase::Cmt, (1, 5), 3_000_000);
        node.hop(Phase::Cmt, (1, 5), 9_000_000); // a retransmit changes nothing
        node.hop(Phase::CommitBlock, (1, 5), 4_000_000);
        node.hop(Phase::CommitBlock, (1, 6), 5_000_000); // never ordered here
        let snap = node.stop_recording();
        assert_eq!(snap.order_hop.count(), 1);
        assert_eq!(snap.commit_hop.count(), 1);
        assert!((snap.order_hop.percentile_ms(50.0) - 2.0).abs() < 0.2);
        assert!((snap.commit_hop.percentile_ms(50.0) - 1.0).abs() < 0.1);
    }
}
