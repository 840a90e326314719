//! Network intake: the frames peers send this node.  Requests are served here
//! (subscriptions, remote cursors, partial aggregates, scrapes, trace slices, gossip);
//! replies to this node's own requests are absorbed into the peer-request table.

use std::collections::BTreeMap;

use gsn_network::{Message, Operation, Principal, RequestId};
use gsn_telemetry::{RemoteSpan, Stopwatch, TraceContext};
use gsn_types::{GsnError, GsnResult, NodeId, Timestamp};

use super::step::{deliver_remote, ShardOutcome, StepReport};
use super::GsnContainer;
use crate::cursor::QueryCursor;
use crate::peer::{Absorbed, Request, DEADLINE, PREFETCH_WINDOW};

/// Upper bound on concurrently open server-side remote query cursors; requests past
/// the cap are refused (the idle reaper below keeps abandoned cursors from pinning
/// slots until then).
const MAX_REMOTE_CURSORS: usize = 64;

/// One streaming-query cursor held open on behalf of a remote peer.
pub(super) struct RemoteCursor {
    /// The peer that opened the cursor; only it may pull (the rows were
    /// access-checked against *its* principal, and cursor ids are guessable).
    owner: NodeId,
    /// The originating request id (retransmitted `QueryRequest`s are matched by
    /// `(owner, request)` so a lost first batch does not open a duplicate cursor).
    request: RequestId,
    /// `None` once exhausted: the entry lingers as a tombstone so a lost *final*
    /// batch can be retransmitted, until the idle reaper collects it.
    cursor: Option<QueryCursor>,
    /// Sequence number the next fresh batch will carry.
    next_seq: u64,
    /// Last time the owner pulled a batch (for the idle reaper).
    last_active: Timestamp,
    /// Batches kept in flight ahead of the owner's cumulative ack: 1 for a pull-based
    /// cursor, [`PREFETCH_WINDOW`] for a prefetching one.
    window_size: usize,
    /// Sent-but-unacknowledged batches by sequence number, kept for retransmission;
    /// acknowledged entries are dropped as acks arrive.
    window: BTreeMap<u64, Message>,
    /// Highest cumulative ack (`QueryNext.expect_seq`) seen from the owner.
    last_ack: u64,
    /// Time spent authorising and opening the cursor, charged to the first batch's
    /// `server_micros` so the client's per-hop breakdown sees the open cost.
    open_micros: u64,
}

/// A terminal `QueryBatch` refusing a pull (or reporting that the cursor failed).
fn refusal(request: RequestId, cursor: u64, seq: u64, error: String) -> Vec<Message> {
    vec![Message::QueryBatch {
        request,
        cursor,
        columns: Vec::new(),
        rows: Vec::new(),
        seq,
        done: true,
        error,
        server_micros: 0,
    }]
}

impl RemoteCursor {
    /// Pulls the next batch as a `QueryBatch` frame; `Ok(None)` once exhausted.  The
    /// cursor becomes a tombstone (`cursor: None`) after its final batch.
    fn next_frame(
        &mut self,
        id: u64,
        request: RequestId,
        batch_rows: usize,
    ) -> GsnResult<Option<Message>> {
        let Some(cursor) = self.cursor.as_mut() else {
            return Ok(None);
        };
        let watch = Stopwatch::start();
        let batch = cursor.next_batch(batch_rows.clamp(1, 65_536))?;
        let done = cursor.is_done();
        if done {
            self.cursor = None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        // The first batch also carries the cursor-open cost, so the client's hop
        // breakdown sees the full server-side time.
        let open_micros = if seq == 0 { self.open_micros } else { 0 };
        Ok(Some(Message::QueryBatch {
            request,
            cursor: id,
            columns: batch.columns().iter().map(|c| c.name.clone()).collect(),
            rows: batch.into_rows(),
            seq,
            done,
            error: String::new(),
            server_micros: watch.elapsed_micros() + open_micros,
        }))
    }
}

impl GsnContainer {
    /// Drains the simulated network inbox.
    pub(super) fn drain_network(&mut self, now: Timestamp) -> StepReport {
        let mut out = ShardOutcome::default();
        let Some(network) = self.runtime.network.clone() else {
            return out.report;
        };
        let node = self.config.node_id;
        for envelope in network.receive(node, now) {
            let from = envelope.from;
            match envelope.message {
                Message::Subscribe {
                    request,
                    subscriber,
                    sensor,
                } => {
                    let principal = Principal::named(&subscriber.to_string());
                    let accepted = self.access.check(&principal, Operation::Subscribe, &sensor)
                        && self.require_sensor(&sensor).is_ok();
                    if accepted {
                        self.runtime
                            .notifications
                            .lock()
                            .add_remote_subscriber(subscriber, &sensor);
                    }
                    let reason = if accepted {
                        String::new()
                    } else {
                        format!("subscription to `{sensor}` refused")
                    };
                    let ack = Message::SubscribeAck {
                        request,
                        accepted,
                        reason,
                    };
                    self.peers.send(from, ack, now);
                }
                Message::SubscribeAck {
                    request,
                    accepted,
                    reason,
                } => self.peers.absorb(request, now, |request, _| match request {
                    Request::Subscription { .. } if accepted => Absorbed::Done(Ok(())),
                    Request::Subscription { .. } => {
                        Absorbed::Done(Err(GsnError::access_denied(reason)))
                    }
                    _ => Absorbed::Stale,
                }),
                Message::Unsubscribe { subscriber, sensor } => {
                    self.runtime
                        .notifications
                        .lock()
                        .remove_remote_subscriber(subscriber, &sensor);
                }
                Message::StreamDelivery { sensor, element } => match element.into_element() {
                    Ok(element) => {
                        let routes = self.runtime.remote_routes.load();
                        for (consumer, source_ref) in routes
                            .get(&sensor.to_ascii_lowercase())
                            .into_iter()
                            .flatten()
                        {
                            out.report.remote_arrivals += 1;
                            deliver_remote(
                                &self.runtime,
                                &self.sensors,
                                consumer,
                                *source_ref,
                                element.clone(),
                                now,
                                &mut out,
                            );
                        }
                    }
                    Err(_) => out.report.errors += 1,
                },
                Message::Ping { request } => {
                    self.peers.send(from, Message::Pong { request }, now);
                }
                Message::Pong { .. } => {}
                Message::QueryRequest {
                    request,
                    sql,
                    batch_rows,
                    prefetch,
                    trace,
                } => {
                    let replies = self.serve_query_request(
                        from,
                        request,
                        &sql,
                        batch_rows as usize,
                        prefetch,
                        trace,
                    );
                    for reply in replies {
                        self.peers.send(from, reply, now);
                    }
                }
                Message::QueryNext {
                    request,
                    cursor,
                    batch_rows,
                    expect_seq,
                    trace: _,
                } => {
                    let replies = self.serve_query_next(
                        from,
                        request,
                        cursor,
                        batch_rows as usize,
                        expect_seq,
                    );
                    for reply in replies {
                        self.peers.send(from, reply, now);
                    }
                }
                Message::QueryBatch { request, .. } => {
                    let telemetry = &self.telemetry;
                    let batch = envelope.message;
                    self.peers.absorb(request, now, |state, sent| match state {
                        Request::RemoteQuery(query) => {
                            let rtt_millis = now.abs_diff(sent).as_millis() as u64;
                            telemetry.batch_rtt_millis.record(rtt_millis);
                            query.absorb(batch, rtt_millis, &telemetry.prefetch_hits_total)
                        }
                        _ => Absorbed::Stale,
                    });
                }
                Message::MetricsRequest { request, from } => {
                    // The federation scrape: answer with a full registry snapshot so
                    // cooperating peers can monitor each other without a side channel.
                    self.telemetry.scrapes_served_total.inc();
                    let reply = Message::MetricsSnapshot {
                        request,
                        node,
                        snapshot: self.metrics_snapshot(),
                    };
                    self.peers.send(from, reply, now);
                }
                Message::MetricsSnapshot {
                    request,
                    node: peer,
                    snapshot,
                } => {
                    let telemetry = &self.telemetry;
                    self.peers.absorb(request, now, |state, _| match state {
                        Request::MetricsScrape { snapshot: slot, .. } => {
                            telemetry.peer_snapshots_total.inc();
                            *slot = Some(snapshot.clone());
                            Absorbed::Done(Ok(()))
                        }
                        _ => Absorbed::Stale,
                    });
                    self.peer_metrics.insert(peer, snapshot);
                }
                Message::GossipDigest { digest, health, .. } => {
                    self.serve_gossip_digest(from, &digest, &health, now);
                }
                Message::GossipDelta {
                    records,
                    digest,
                    health,
                    ..
                } => self.absorb_gossip_delta(from, &records, &digest, &health, now),
                Message::RingAnnounce { epoch, members, .. } => {
                    if let Some(mesh) = self.mesh.as_mut() {
                        mesh.ring.install(&members, epoch);
                    }
                }
                Message::PartialAggregateRequest {
                    request,
                    sql,
                    trace,
                } => {
                    let reply = self.serve_partial_aggregate(from, request, &sql, trace);
                    self.peers.send(from, reply, now);
                }
                Message::PartialAggregateReply {
                    request,
                    columns: _,
                    rows,
                    error,
                    server_micros,
                } => self.peers.absorb(request, now, |state, sent| match state {
                    Request::Federated(query) => {
                        let rtt_millis = now.abs_diff(sent).as_millis() as u64;
                        query.absorb_partial(from, rows, error, server_micros, rtt_millis)
                    }
                    _ => Absorbed::Stale,
                }),
                Message::TraceCollectRequest {
                    request,
                    from,
                    trace_id,
                } => {
                    // Serve our slice of a distributed trace: every retained span
                    // stamped with the requested trace id, in wire form.  Idempotent,
                    // so retried requests just ship the slice again.
                    let spans: Vec<RemoteSpan> = self
                        .runtime
                        .trace
                        .spans_of_trace(trace_id)
                        .iter()
                        .map(|s| RemoteSpan::from_span(node.as_u64(), s))
                        .collect();
                    let reply = Message::TraceCollectReply {
                        request,
                        node,
                        trace_id,
                        spans,
                    };
                    self.peers.send(from, reply, now);
                }
                Message::TraceCollectReply {
                    request,
                    node: peer,
                    trace_id: _,
                    spans,
                } => {
                    let telemetry = &self.telemetry;
                    self.peers.absorb(request, now, |state, _| match state {
                        Request::TraceCollect(collect) => {
                            let received = spans.len() as u64;
                            let absorbed = collect.absorb(peer, spans);
                            if !matches!(absorbed, Absorbed::Stale) {
                                telemetry.remote_spans_total.add(received);
                            }
                            absorbed
                        }
                        _ => Absorbed::Stale,
                    });
                }
            }
        }
        debug_assert!(out.deferred.is_empty());
        out.report
    }

    /// Stateless server side of a federated scatter: executes the partial locally and
    /// replies in one frame.  Re-execution on a duplicate (retried) request is
    /// idempotent — the coordinator keeps the first reply.  A traced request records a
    /// serve span under the coordinator's root, so the assembled trace tree shows every
    /// hop's execution.
    fn serve_partial_aggregate(
        &self,
        from: NodeId,
        request: RequestId,
        sql: &str,
        trace: Option<TraceContext>,
    ) -> Message {
        let watch = Stopwatch::start();
        let span = trace.map(|ctx| self.runtime.trace.begin_in_trace("federated.serve", ctx));
        let outcome = self.query_as(&Principal::named(&from.to_string()), sql);
        if let Some(span) = span {
            self.runtime.trace.finish(span);
        }
        let server_micros = watch.elapsed_micros();
        let (columns, rows, error) = match outcome {
            Ok(relation) => (
                relation.columns().iter().map(|c| c.name.clone()).collect(),
                relation.into_rows(),
                String::new(),
            ),
            Err(e) => (Vec::new(), Vec::new(), e.to_string()),
        };
        Message::PartialAggregateReply {
            request,
            columns,
            rows,
            error,
            server_micros,
        }
    }

    /// Serves a remote `QueryRequest`: authorises and opens a cursor, then ships the
    /// first batch (or, with prefetch, the first window of batches).  A *retransmitted*
    /// request (the client never saw our first batch on a lossy link) matches its
    /// existing cursor by `(owner, request)` and gets the unacknowledged batches again
    /// instead of opening a duplicate cursor.
    fn serve_query_request(
        &mut self,
        from: NodeId,
        request: RequestId,
        sql: &str,
        batch_rows: usize,
        prefetch: bool,
        trace: Option<TraceContext>,
    ) -> Vec<Message> {
        if let Some((&id, _)) = self
            .remote_cursors
            .iter()
            .find(|(_, open)| open.owner == from && open.request == request)
        {
            // Retransmitted request: the serve span (if any) was recorded when the
            // cursor first opened, so only the batches are replayed.
            return self.serve_query_next(from, request, id, batch_rows, 0);
        }
        if self.open_remote_cursors() >= MAX_REMOTE_CURSORS {
            return refusal(
                request,
                0,
                0,
                format!("too many open remote cursors (limit {MAX_REMOTE_CURSORS})"),
            );
        }
        // A traced request records a serve span under the remote parent: the hop
        // shows up in the coordinator's assembled trace tree with the open cost.
        let watch = Stopwatch::start();
        let span = trace.map(|ctx| self.runtime.trace.begin_in_trace("query.serve", ctx));
        let opened = self.query_cursor_as(&Principal::named(&from.to_string()), sql);
        if let Some(span) = span {
            self.runtime.trace.finish(span);
        }
        let cursor = match opened {
            Ok(cursor) => cursor,
            Err(e) => return refusal(request, 0, 0, e.to_string()),
        };
        let id = self.next_cursor_id;
        self.next_cursor_id += 1;
        self.remote_cursors.insert(
            id,
            RemoteCursor {
                owner: from,
                request,
                cursor: Some(cursor),
                next_seq: 0,
                last_active: self.clock.now(),
                window_size: if prefetch { PREFETCH_WINDOW } else { 1 },
                window: BTreeMap::new(),
                last_ack: 0,
                open_micros: watch.elapsed_micros(),
            },
        );
        self.serve_query_next(from, request, id, batch_rows, 0)
    }

    /// Advances an open remote cursor.  `expect_seq` is a cumulative ack: every cached
    /// batch below it is confirmed received and dropped, and an ack at or below the
    /// previous one is a retry, so the unacknowledged batches are retransmitted.  The
    /// window is then topped up with fresh batches — the next one for a pull-based
    /// cursor, up to [`PREFETCH_WINDOW`] in flight for a prefetching one.  Exhausted
    /// cursors linger as tombstones until the idle reaper collects them, so even a lost
    /// *final* batch is recoverable.  Only the peer that opened the cursor may pull
    /// from it — the rows were access-checked against *its* principal, and cursor ids
    /// are guessable.
    fn serve_query_next(
        &mut self,
        from: NodeId,
        request: RequestId,
        cursor_id: u64,
        batch_rows: usize,
        expect_seq: u64,
    ) -> Vec<Message> {
        let refused = |error: String| refusal(request, cursor_id, expect_seq, error);
        let now = self.clock.now();
        let Some(open) = self.remote_cursors.get_mut(&cursor_id) else {
            return refused(format!("no open cursor {cursor_id}"));
        };
        if open.owner != from {
            // Leave the cursor open for its owner; only refuse the impostor.
            return refused(format!("cursor {cursor_id} is not owned by {from}"));
        }
        if expect_seq > open.next_seq {
            return refused(format!(
                "cursor {cursor_id} is at batch {}, not {expect_seq}",
                open.next_seq
            ));
        }
        open.last_active = now;
        let retry = expect_seq <= open.last_ack && open.next_seq > 0;
        open.last_ack = open.last_ack.max(expect_seq);
        open.window.retain(|seq, _| *seq >= expect_seq);
        let mut replies: Vec<Message> = Vec::new();
        if retry {
            replies.extend(open.window.values().cloned());
        }
        while open.window.len() < open.window_size {
            match open.next_frame(cursor_id, request, batch_rows) {
                Ok(Some(batch)) => {
                    open.window.insert(open.next_seq - 1, batch.clone());
                    replies.push(batch);
                }
                Ok(None) => break,
                Err(e) => {
                    self.remote_cursors.remove(&cursor_id);
                    return refused(e.to_string());
                }
            }
        }
        if open.cursor.is_none() {
            self.prune_cursor_tombstones();
        }
        replies
    }

    /// Bounds the exhausted-cursor tombstones (each caches one batch for final-batch
    /// retransmission): beyond [`MAX_REMOTE_CURSORS`] of them, the least recently
    /// active ones are dropped immediately instead of waiting for the idle reaper —
    /// a peer looping short queries must not accumulate 60 s of cached batches.
    fn prune_cursor_tombstones(&mut self) {
        let excess = self
            .remote_cursors
            .values()
            .filter(|open| open.cursor.is_none())
            .count()
            .saturating_sub(MAX_REMOTE_CURSORS);
        if excess == 0 {
            return;
        }
        let mut tombstones: Vec<(u64, Timestamp)> = self
            .remote_cursors
            .iter()
            .filter(|(_, open)| open.cursor.is_none())
            .map(|(id, open)| (*id, open.last_active))
            .collect();
        tombstones.sort_by_key(|(_, last_active)| *last_active);
        for (id, _) in tombstones.into_iter().take(excess) {
            self.remote_cursors.remove(&id);
        }
    }

    /// Reaps remote cursors whose owner stopped pulling (crashed client, lost
    /// `QueryNext`), so abandoned cursors cannot pin open-cursor slots forever.
    pub(super) fn reap_idle_cursors(&mut self, now: Timestamp) {
        self.remote_cursors
            .retain(|_, open| open.last_active >= now.saturating_sub(DEADLINE));
    }

    /// Number of streaming cursors currently held open on behalf of remote peers
    /// (exhausted cursors lingering only for final-batch retransmission not counted).
    pub fn open_remote_cursors(&self) -> usize {
        self.remote_cursors
            .values()
            .filter(|open| open.cursor.is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::tests::{mote_descriptor, standalone};

    #[test]
    fn exhausted_remote_cursor_tombstones_are_bounded() {
        let (mut container, clock) = standalone();
        container.deploy(mote_descriptor("room-temp", 100)).unwrap();
        clock.advance(gsn_types::Duration::from_secs(1));
        container.step();
        // A peer loops short single-batch queries: every one completes immediately and
        // leaves a retransmission tombstone.  The tombstone count must stay bounded
        // instead of accumulating until the 60 s idle reaper.
        let peer = gsn_types::NodeId::new(9);
        for request in 0..(3 * MAX_REMOTE_CURSORS as u64) {
            let mut replies = container.serve_query_request(
                peer,
                request,
                "select avg_temp from room_temp limit 1",
                16,
                false,
                None,
            );
            assert_eq!(replies.len(), 1);
            match replies.pop().expect("one reply") {
                Message::QueryBatch { done, error, .. } => {
                    assert!(done);
                    assert!(error.is_empty(), "{error}");
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert_eq!(container.open_remote_cursors(), 0);
        assert!(
            container.remote_cursors.len() <= MAX_REMOTE_CURSORS + 1,
            "tombstones leaked: {}",
            container.remote_cursors.len()
        );
    }
}
