//! Outbound peer requests: one table for every request kind a container issues.
//!
//! A container asks its peers for five things: the batches of a remote streaming
//! query, the partial aggregates (or shipped rows) of a federated query, a metrics
//! snapshot, the spans of a distributed trace, and a sensor subscription.  All of
//! them cross the same lossy wire, so all of them share one lifecycle, owned by
//! [`PendingRequests`]:
//!
//! * **Ids** — one counter numbers every request; replies carry the id back.
//! * **Pacing** — a request that heard nothing for [`RETRY_AFTER`] re-sends its
//!   frames.  Every kind's frames are idempotent on the serving side (batch
//!   sequence numbers, stateless partial/scrape/collect serves, subscriptions keyed
//!   by node and sensor), so a re-send never duplicates work the caller sees.
//! * **Deadline** — a request without progress for [`DEADLINE`] ends in a
//!   [`GsnError::Timeout`].
//! * **Parking** — a finished result, or the timeout, waits in the table until its
//!   taker collects it.
//! * **Ownership** — a request may have a parent; when the parent finishes, fails or
//!   times out, its unfinished children are cancelled.
//! * **Metrics** — per-kind pending gauges and timeout counters, plus send failures
//!   per frame kind from the container's one send path, [`PendingRequests::send`].
//!
//! Each kind supplies only which frames to (re-)send ([`Request::frames`]) and how to
//! absorb a reply (an [`Absorbed`] verdict handed to [`PendingRequests::absorb`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use gsn_network::{Message, RequestId, SimulatedNetwork};
use gsn_sql::Relation;
use gsn_telemetry::{
    AssembledTrace, Counter, Gauge, HopBreakdown, MetricsRegistry, MetricsSnapshot, RemoteSpan,
    Stopwatch, TraceContext,
};
use gsn_types::{Duration, GsnError, GsnResult, NodeId, Timestamp, Value};

use crate::container::FederatedQuery;
use crate::telemetry::{REQUESTS_PENDING, REQUEST_TIMEOUTS_TOTAL, SEND_FAILURES_TOTAL};

/// How long a request waits for a reply before re-sending its frames.
pub(crate) const RETRY_AFTER: Duration = Duration::from_secs(2);

/// How long a request may go without progress before it ends in a timeout.  Serving
/// containers reap idle remote cursors after the same interval.
pub(crate) const DEADLINE: Duration = Duration::from_secs(60);

/// How many batches a prefetching remote cursor keeps speculatively in flight ahead of
/// the client's cumulative acknowledgements.
pub(crate) const PREFETCH_WINDOW: usize = 4;

/// How often a prefetching client acknowledges (every Nth batch): half the window, so
/// the server's speculation never drains while an ack is in flight.
const PREFETCH_ACK_EVERY: u64 = (PREFETCH_WINDOW / 2) as u64;

/// The request kinds; `Kind as usize` indexes [`KIND_LABELS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    RemoteQuery,
    Federated,
    MetricsScrape,
    TraceCollect,
    Subscription,
}

/// The `kind` label of each request kind's metrics, in [`Kind`] order.
const KIND_LABELS: [&str; 5] = [
    "remote_query",
    "federated",
    "metrics_scrape",
    "trace_collect",
    "subscription",
];

/// The kind-specific state of one outbound request.
pub(crate) enum Request {
    RemoteQuery(RemoteQuery),
    Federated(FederatedQuery),
    /// One peer metrics scrape; the snapshot once it arrived.
    MetricsScrape {
        target: NodeId,
        snapshot: Option<MetricsSnapshot>,
    },
    TraceCollect(TraceCollect),
    /// One subscription to a remote sensor's output stream.
    Subscription {
        producer: NodeId,
        sensor: String,
    },
}

impl Request {
    fn kind(&self) -> Kind {
        match self {
            Request::RemoteQuery(_) => Kind::RemoteQuery,
            Request::Federated(_) => Kind::Federated,
            Request::MetricsScrape { .. } => Kind::MetricsScrape,
            Request::TraceCollect(_) => Kind::TraceCollect,
            Request::Subscription { .. } => Kind::Subscription,
        }
    }

    /// The frames that (re-)ask the peers for what is still missing; `retry` is false
    /// for the first send.
    fn frames(&mut self, id: RequestId, node: NodeId, retry: bool) -> Vec<(NodeId, Message)> {
        match self {
            Request::RemoteQuery(query) => query.frames(id, retry),
            Request::Federated(query) => query.frames(id, retry),
            Request::MetricsScrape { target, .. } => vec![(
                *target,
                Message::MetricsRequest {
                    request: id,
                    from: node,
                },
            )],
            Request::TraceCollect(collect) => collect
                .pending
                .iter()
                .map(|peer| {
                    (
                        *peer,
                        Message::TraceCollectRequest {
                            request: id,
                            from: node,
                            trace_id: collect.trace_id,
                        },
                    )
                })
                .collect(),
            Request::Subscription { producer, sensor } => vec![(
                *producer,
                Message::Subscribe {
                    request: id,
                    subscriber: node,
                    sensor: sensor.clone(),
                },
            )],
        }
    }
}

/// What absorbing one reply did to its request.
pub(crate) enum Absorbed {
    /// The reply was a duplicate or not for this request kind: nothing changes.
    Stale,
    /// The request moved forward and waits for more replies.
    Progress,
    /// The request moved forward and asks its peers again right away (its
    /// [`Request::frames`], e.g. the pull for the next batch).
    Ask,
    /// The request finished with this outcome.
    Done(GsnResult<()>),
}

struct Entry {
    request: Request,
    parent: Option<RequestId>,
    last_sent: Timestamp,
    last_progress: Timestamp,
    /// The parked outcome once finished; the request state stays beside it so the
    /// taker can assemble the result.
    outcome: Option<GsnResult<()>>,
}

/// Every outbound request a container has in flight or parked for its taker, and
/// the container's one send path.
pub(crate) struct PendingRequests {
    network: Option<Arc<SimulatedNetwork>>,
    node: NodeId,
    metrics: Arc<MetricsRegistry>,
    next_id: RequestId,
    entries: BTreeMap<RequestId, Entry>,
    /// Counts every re-sent frame.
    retransmits: Counter,
    /// Per-kind pending gauges and timeout counters, indexed by `Kind as usize`.
    pending: [Gauge; KIND_LABELS.len()],
    timeouts: [Counter; KIND_LABELS.len()],
}

impl PendingRequests {
    pub(crate) fn new(
        network: Option<Arc<SimulatedNetwork>>,
        node: NodeId,
        metrics: Arc<MetricsRegistry>,
        retransmits: Counter,
    ) -> PendingRequests {
        PendingRequests {
            pending: KIND_LABELS.map(|kind| metrics.gauge_labeled(&REQUESTS_PENDING, kind)),
            timeouts: KIND_LABELS
                .map(|kind| metrics.counter_labeled(&REQUEST_TIMEOUTS_TOTAL, kind)),
            network,
            node,
            metrics,
            next_id: 1,
            entries: BTreeMap::new(),
            retransmits,
        }
    }

    /// True when the container is attached to a network.
    pub(crate) fn is_connected(&self) -> bool {
        self.network.is_some()
    }

    /// Sends one frame and returns its wire size.  A failed send (unknown or
    /// partitioned destination) is counted under the frame's kind and yields `None`;
    /// requests recover from it through their re-send timer.
    pub(crate) fn send(&self, to: NodeId, message: Message, now: Timestamp) -> Option<usize> {
        let kind = message.kind();
        let sent = self.network.as_ref()?.send(self.node, to, message, now);
        if sent.is_err() {
            self.metrics
                .counter_labeled(&SEND_FAILURES_TOTAL, kind)
                .inc();
        }
        sent.ok()
    }

    /// Reserves the next request id, for frames that carry it before
    /// [`issue`](Self::issue) (e.g. in a trace id).
    pub(crate) fn allocate(&mut self) -> RequestId {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Tracks `request` under `id` and sends its first frames.
    pub(crate) fn issue(
        &mut self,
        id: RequestId,
        mut request: Request,
        parent: Option<RequestId>,
        now: Timestamp,
    ) {
        for (to, frame) in request.frames(id, self.node, false) {
            self.send(to, frame, now);
        }
        let entry = Entry {
            request,
            parent,
            last_sent: now,
            last_progress: now,
            outcome: None,
        };
        self.entries.insert(id, entry);
    }

    fn ids(&self, select: impl Fn(&Entry) -> bool) -> Vec<RequestId> {
        self.entries
            .iter()
            .filter(|(_, entry)| select(entry))
            .map(|(id, _)| *id)
            .collect()
    }

    /// The state of a request still in flight.
    pub(crate) fn in_flight_mut(&mut self, id: RequestId) -> Option<&mut Request> {
        self.entries
            .get_mut(&id)
            .filter(|entry| entry.outcome.is_none())
            .map(|entry| &mut entry.request)
    }

    /// Ids of the requests of `kind` still in flight, in issue order.
    pub(crate) fn in_flight(&self, kind: Kind) -> Vec<RequestId> {
        self.ids(|entry| entry.outcome.is_none() && entry.request.kind() == kind)
    }

    /// Applies one reply to request `id` (ignored unless it is in flight).  `absorb`
    /// sees the request state and when its last frame left; progress resets the
    /// deadline of the request and of its ancestors.
    pub(crate) fn absorb(
        &mut self,
        id: RequestId,
        now: Timestamp,
        absorb: impl FnOnce(&mut Request, Timestamp) -> Absorbed,
    ) {
        let Some(entry) = self.entries.get_mut(&id).filter(|e| e.outcome.is_none()) else {
            return;
        };
        let absorbed = absorb(&mut entry.request, entry.last_sent);
        let frames = match absorbed {
            Absorbed::Stale => return,
            Absorbed::Ask => {
                entry.last_sent = now;
                entry.request.frames(id, self.node, false)
            }
            Absorbed::Progress | Absorbed::Done(_) => Vec::new(),
        };
        // Progress on `id` and every ancestor.
        let mut next = Some(id);
        while let Some(entry) = next.and_then(|id| self.entries.get_mut(&id)) {
            entry.last_progress = now;
            next = entry.parent;
        }
        for (to, frame) in frames {
            self.send(to, frame, now);
        }
        if let Absorbed::Done(outcome) = absorbed {
            self.finish(id, outcome);
        }
    }

    /// Parks `outcome` for request `id` and cancels its unfinished children.
    pub(crate) fn finish(&mut self, id: RequestId, outcome: GsnResult<()>) {
        if let Some(entry) = self.entries.get_mut(&id).filter(|e| e.outcome.is_none()) {
            entry.outcome = Some(outcome);
            self.cancel_children(id);
        }
    }

    fn cancel_children(&mut self, parent: RequestId) {
        for child in self.ids(|entry| entry.parent == Some(parent)) {
            self.entries.remove(&child);
            self.cancel_children(child);
        }
    }

    /// Takes a finished request of `kind` with its outcome; `None` while it is in
    /// flight or when no such request is tracked.
    pub(crate) fn take(&mut self, id: RequestId, kind: Kind) -> Option<(Request, GsnResult<()>)> {
        let entry = self.entries.get(&id)?;
        if entry.outcome.is_none() || entry.request.kind() != kind {
            return None;
        }
        let entry = self.entries.remove(&id)?;
        Some((entry.request, entry.outcome?))
    }

    /// Takes every finished request of `kind` (the kinds the container consumes itself).
    pub(crate) fn take_finished(&mut self, kind: Kind) -> Vec<(Request, GsnResult<()>)> {
        self.ids(|entry| entry.outcome.is_some() && entry.request.kind() == kind)
            .into_iter()
            .filter_map(|id| self.take(id, kind))
            .collect()
    }

    /// Drops every tracked request `select` picks, with its children; returns how
    /// many it dropped.
    pub(crate) fn cancel(&mut self, select: impl Fn(RequestId, &Request) -> bool) -> usize {
        let doomed = self.ids(|_| true);
        let mut dropped = 0;
        for id in doomed {
            if self
                .entries
                .get(&id)
                .is_some_and(|e| select(id, &e.request))
            {
                self.entries.remove(&id);
                self.cancel_children(id);
                dropped += 1;
            }
        }
        dropped
    }

    /// Requests of `kind` still tracked: in flight or parked for their taker.
    pub(crate) fn pending(&self, kind: Kind) -> usize {
        self.entries
            .values()
            .filter(|entry| entry.request.kind() == kind)
            .count()
    }

    /// Stores the per-kind pending counts into the `requests_pending` gauges.
    pub(crate) fn publish_pending(&self) {
        let mut counts = [0i64; KIND_LABELS.len()];
        for entry in self.entries.values() {
            counts[entry.request.kind() as usize] += 1;
        }
        for (gauge, count) in self.pending.iter().zip(counts) {
            gauge.set(count);
        }
    }

    /// The lifecycle timer: ends requests past their deadline in a timeout and
    /// re-sends the frames of requests that heard nothing for [`RETRY_AFTER`].
    pub(crate) fn tick(&mut self, now: Timestamp) {
        let deadline = now.saturating_sub(DEADLINE);
        let retry_before = now.saturating_sub(RETRY_AFTER);
        let mut expired = Vec::new();
        let mut resend = Vec::new();
        for (id, entry) in self.entries.iter_mut() {
            if entry.outcome.is_some() {
                continue;
            }
            let kind = entry.request.kind();
            if entry.last_progress < deadline {
                entry.outcome = Some(Err(GsnError::timeout(format!(
                    "{} request {id} made no progress for {DEADLINE}",
                    KIND_LABELS[kind as usize]
                ))));
                self.timeouts[kind as usize].inc();
                expired.push(*id);
            } else if entry.last_sent <= retry_before {
                resend.extend(entry.request.frames(*id, self.node, true));
                entry.last_sent = now;
            }
        }
        for (to, frame) in resend {
            self.retransmits.inc();
            self.send(to, frame, now);
        }
        for id in expired {
            self.cancel_children(id);
        }
    }
}

/// The serialize leg of a traced hop: the time to encode its first frame, measured
/// on a throwaway copy.
pub(crate) fn serialize_micros(frame: &Message) -> u64 {
    let watch = Stopwatch::start();
    std::hint::black_box(gsn_network::encode(frame));
    watch.elapsed_micros()
}

/// The assembled result of a remote streaming query (see
/// [`GsnContainer::remote_query`](crate::GsnContainer::remote_query)).
#[derive(Debug, Clone)]
pub struct RemoteQueryResult {
    /// The result rows, assembled from the incremental `QueryBatch` messages.
    pub relation: Relation,
    /// How many batches carried the result over the wire.
    pub batches: u64,
    /// Wire-timing breakdown of this hop (serialize, RTT, remote execute, retries).
    pub hop: HopBreakdown,
}

/// Client side of one remote streaming query, accumulated batch by batch.
pub(crate) struct RemoteQuery {
    target: NodeId,
    /// Kept so a lost *first* batch can retransmit the `QueryRequest` itself (the
    /// server matches it to the already-open cursor by request id).
    sql: String,
    batch_rows: u32,
    /// True when the server pipelines batches ahead of our acknowledgements.
    prefetch: bool,
    /// Carried on every frame, retries included; `None` keeps the frames in the
    /// pre-tracing format.
    trace: Option<TraceContext>,
    /// The server-side cursor id, learned from the first batch.
    cursor: Option<u64>,
    /// The batch sequence number expected next (duplicates below it are ignored).
    expect_seq: u64,
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
    batches: u64,
    /// Serialize leg, open round trip, server time and re-sends of this hop.
    hop: HopBreakdown,
}

impl RemoteQuery {
    pub(crate) fn new(
        target: NodeId,
        sql: &str,
        batch_rows: usize,
        prefetch: bool,
        trace: Option<TraceContext>,
    ) -> RemoteQuery {
        let mut query = RemoteQuery {
            target,
            sql: sql.to_owned(),
            batch_rows: batch_rows.clamp(1, 65_536) as u32,
            prefetch,
            trace,
            cursor: None,
            expect_seq: 0,
            columns: Vec::new(),
            rows: Vec::new(),
            batches: 0,
            hop: HopBreakdown {
                peer: target.as_u64(),
                ..HopBreakdown::default()
            },
        };
        // Only traced queries measure the serialize leg; untraced hot paths pay nothing.
        if trace.is_some() {
            query.hop.serialize_micros = serialize_micros(&query.frames(0, false)[0].1);
        }
        query
    }

    fn frames(&mut self, id: RequestId, retry: bool) -> Vec<(NodeId, Message)> {
        if retry {
            self.hop.retransmits += 1;
        }
        let frame = match self.cursor {
            Some(cursor) => Message::QueryNext {
                request: id,
                cursor,
                batch_rows: self.batch_rows,
                expect_seq: self.expect_seq,
                trace: self.trace,
            },
            // No batch arrived yet: (re-)send the request itself.
            None => Message::QueryRequest {
                request: id,
                sql: self.sql.clone(),
                batch_rows: self.batch_rows,
                prefetch: self.prefetch,
                trace: self.trace,
            },
        };
        vec![(self.target, frame)]
    }

    /// Folds one `QueryBatch` in.  `rtt_millis` is the time since the frame it
    /// answers left; prefetched batches that needed no request count into
    /// `prefetch_hits`.
    pub(crate) fn absorb(
        &mut self,
        batch: Message,
        rtt_millis: u64,
        prefetch_hits: &Counter,
    ) -> Absorbed {
        let Message::QueryBatch {
            cursor,
            columns,
            rows,
            seq,
            done,
            error,
            server_micros,
            ..
        } = batch
        else {
            return Absorbed::Stale;
        };
        if self.cursor.is_none() {
            // First batch: its round trip covers the cursor open.
            self.hop.rtt_millis = rtt_millis;
        }
        self.hop.remote_micros += server_micros;
        self.cursor = Some(cursor);
        if seq != self.expect_seq {
            // A duplicate (retransmission already consumed) or a stale refusal
            // answering an out-of-date re-request: drop it.  Re-requesting here would
            // double-ship every later batch on links whose RTT exceeds the retry
            // threshold, and an off-seq error must not kill a healthy query; genuine
            // gaps and dead cursors are recovered by the retry timer, whose refusals
            // arrive carrying the expected seq.
            return Absorbed::Progress;
        }
        if !error.is_empty() {
            return Absorbed::Done(Err(GsnError::sql_exec(format!(
                "remote query failed: {error}"
            ))));
        }
        self.expect_seq += 1;
        self.batches += 1;
        if self.columns.is_empty() {
            self.columns = columns;
        }
        self.rows.extend(rows);
        if done {
            return Absorbed::Done(Ok(()));
        }
        // Pull-based wire: ask for the next batch now that this one is consumed.
        // Pipelined wire: the server pushes ahead of us, and a cumulative ack every
        // half-window keeps its window open; any other batch arrived without a
        // request in flight — a prefetch hit.
        if self.prefetch && !self.expect_seq.is_multiple_of(PREFETCH_ACK_EVERY) {
            prefetch_hits.inc();
            return Absorbed::Progress;
        }
        Absorbed::Ask
    }

    /// The assembled result.
    pub(crate) fn into_result(self) -> GsnResult<RemoteQueryResult> {
        let columns = self
            .columns
            .iter()
            .map(|name| gsn_sql::ColumnInfo::new(None, name, None))
            .collect();
        Relation::with_rows(columns, self.rows).map(|relation| RemoteQueryResult {
            relation,
            batches: self.batches,
            hop: self.hop,
        })
    }
}

/// One distributed-trace collection: the spans of one trace id, gathered off every
/// participating peer.
pub(crate) struct TraceCollect {
    pub(crate) trace_id: u128,
    /// The root span id (on this coordinator).
    pub(crate) root: u64,
    /// Peers whose spans have not arrived yet.
    pub(crate) pending: Vec<NodeId>,
    /// Spans gathered so far, this node's own seeded at issue.
    pub(crate) spans: Vec<RemoteSpan>,
}

impl TraceCollect {
    /// Folds one peer's slice in; duplicates (answers to re-sent collects) are stale.
    pub(crate) fn absorb(&mut self, node: NodeId, spans: Vec<RemoteSpan>) -> Absorbed {
        let Some(pos) = self.pending.iter().position(|p| *p == node) else {
            return Absorbed::Stale;
        };
        self.pending.remove(pos);
        self.spans.extend(spans);
        if self.pending.is_empty() {
            Absorbed::Done(Ok(()))
        } else {
            Absorbed::Progress
        }
    }

    /// Stitches what arrived into one tree (broken parent links mark it incomplete).
    pub(crate) fn assemble(self) -> AssembledTrace {
        AssembledTrace::assemble(self.trace_id, self.root, self.spans)
    }
}
