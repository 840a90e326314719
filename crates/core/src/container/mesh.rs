//! Mesh federation: ring membership, anti-entropy gossip and federated
//! scatter-gather queries coordinated by this node.

use gsn_federation::{PlacementRing, ReplicatedDirectory};
use gsn_network::{DirectoryEntry, Message, ReplicaRecord, RequestId};
use gsn_sql::{MemoryCatalog, PartialAggregatePlan, Relation};
use gsn_telemetry::{
    evaluate as evaluate_health, HealthSummary, HopBreakdown, SlowQuery, SpanId, SpanToken,
    TraceContext,
};
use gsn_types::{GsnError, GsnResult, NodeId, Timestamp, Value};
use parking_lot::Mutex;

use super::GsnContainer;
use crate::peer::{serialize_micros, Absorbed, Kind, RemoteQuery, Request};

/// Steps between anti-entropy gossip rounds.
const GOSSIP_INTERVAL_STEPS: u64 = 2;

/// Mesh-federation state: the shared-nothing replacement for the central directory.
///
/// A mesh container discovers sensors from its own [`ReplicatedDirectory`] (kept
/// convergent by anti-entropy gossip) and places data by the [`PlacementRing`], so no
/// lookup ever crosses the network on the hot path.
pub(super) struct MeshState {
    /// This node's view of the consistent-hash placement ring.
    pub(super) ring: PlacementRing,
    /// The local directory replica.  Behind a mutex so the deploy-time resolver
    /// closure (holding `&self`) can consult it while the lookup counter advances.
    pub(super) replica: Mutex<ReplicatedDirectory>,
    /// LCG state for the random gossip-peer pick, seeded from the node id so runs on
    /// a simulated clock stay deterministic.
    rng: u64,
}

impl MeshState {
    pub(super) fn new(node: NodeId) -> MeshState {
        MeshState {
            ring: PlacementRing::default(),
            replica: Mutex::new(ReplicatedDirectory::new(node)),
            rng: node
                .as_u64()
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(1),
        }
    }

    /// This node's ring view as a `RingAnnounce` frame.
    fn announce(&self, from: NodeId) -> Message {
        Message::RingAnnounce {
            from,
            epoch: self.ring.epoch(),
            members: self.ring.members(),
        }
    }
}

/// Coordinator-side state of one federated scatter-gather query.
pub(crate) struct FederatedQuery {
    /// The original SQL (re-run locally over shipped rows on the fallback path).
    sql: String,
    /// When the scatter was issued (for the latency histogram).
    started: Timestamp,
    mode: FederatedMode,
    /// Distributed-trace context of this scatter (`None` when tracing is disabled).
    trace: Option<TraceContext>,
    /// The coordinator's root span, finished when the gather completes.
    root_span: SpanToken,
    /// Per-peer wire-timing breakdown, accumulated as the gather progresses.
    hops: Vec<HopBreakdown>,
    /// The merged result once the gather completed; waits for its taker.
    merged: Option<Relation>,
}

/// How a federated query's scatter travels the wire.
enum FederatedMode {
    /// Decomposable aggregate: every host computes a container-side partial and only
    /// partial-aggregate frames travel — never raw rows.
    Partial {
        plan: PartialAggregatePlan,
        /// Hosts whose partial has not arrived yet.
        pending: Vec<NodeId>,
        /// Partial result sets gathered so far (the local one included).
        partials: Vec<Vec<Vec<Value>>>,
    },
    /// Non-decomposable shape: ship every host's rows over the streaming-query wire
    /// (one child remote query per host and table), union them per table, and run the
    /// original SQL locally.
    RowShip {
        /// Child remote queries still running: `(request, table)`.
        pending: Vec<(RequestId, String)>,
        /// Per-table union of the shipped rows.
        tables: MemoryCatalog,
    },
}

impl FederatedQuery {
    /// The partial requests still unanswered; row-ship children send their own frames.
    pub(crate) fn frames(&mut self, id: RequestId, retry: bool) -> Vec<(NodeId, Message)> {
        let FederatedMode::Partial { plan, pending, .. } = &self.mode else {
            return Vec::new();
        };
        let mut frames = Vec::with_capacity(pending.len());
        for host in pending {
            if retry {
                if let Some(hop) = self.hops.iter_mut().find(|h| h.peer == host.as_u64()) {
                    hop.retransmits += 1;
                }
            }
            let frame = Message::PartialAggregateRequest {
                request: id,
                sql: plan.partial_sql.clone(),
                trace: self.trace,
            };
            frames.push((*host, frame));
        }
        frames
    }

    /// Folds one host's partial-aggregate reply in.  Duplicates (answers to idempotent
    /// retries) are stale — the first reply per host wins.
    pub(crate) fn absorb_partial(
        &mut self,
        from: NodeId,
        rows: Vec<Vec<Value>>,
        error: String,
        server_micros: u64,
        rtt_millis: u64,
    ) -> Absorbed {
        let FederatedMode::Partial {
            pending, partials, ..
        } = &mut self.mode
        else {
            return Absorbed::Stale;
        };
        let Some(pos) = pending.iter().position(|h| *h == from) else {
            return Absorbed::Stale;
        };
        // Per-hop breakdown: reply round trip against the last (re-)scatter, server
        // execute time as reported by the peer.
        if let Some(hop) = self.hops.iter_mut().find(|h| h.peer == from.as_u64()) {
            hop.rtt_millis = rtt_millis;
            hop.remote_micros = server_micros;
        }
        if !error.is_empty() {
            return Absorbed::Done(Err(GsnError::sql_exec(format!(
                "partial aggregate on {from} failed: {error}"
            ))));
        }
        pending.remove(pos);
        partials.push(rows);
        Absorbed::Progress
    }

    /// Folds a finished row-ship child in (its rows, or its failure).
    fn absorb_child(
        &mut self,
        child: RequestId,
        outcome: GsnResult<crate::RemoteQueryResult>,
    ) -> GsnResult<()> {
        let FederatedMode::RowShip {
            pending, tables, ..
        } = &mut self.mode
        else {
            return Ok(());
        };
        let Some(pos) = pending.iter().position(|(sub, _)| *sub == child) else {
            return Ok(());
        };
        let (_, table) = pending.remove(pos);
        let result = outcome?;
        self.hops.push(result.hop);
        merge_shipped_rows(tables, &table, result.relation)
    }

    /// The merged result once every host answered; `None` while gathering.
    fn try_merge(&mut self) -> Option<GsnResult<Relation>> {
        match &mut self.mode {
            FederatedMode::Partial {
                plan,
                pending,
                partials,
            } if pending.is_empty() => Some(gsn_sql::merge_partials(plan, partials).and_then(
                |(columns, rows)| {
                    let columns = columns
                        .iter()
                        .map(|n| gsn_sql::ColumnInfo::new(None, n, None))
                        .collect();
                    Relation::with_rows(columns, rows)
                },
            )),
            FederatedMode::RowShip { pending, tables } if pending.is_empty() => Some(
                gsn_sql::parse_query(&self.sql)
                    .and_then(|query| gsn_sql::execute_query(&query, tables)),
            ),
            _ => None,
        }
    }
}

/// Folds one host's shipped rows into the accumulating per-table union.  Two hosts
/// may deploy the same table name with different output fields; the column-count
/// mismatch fails the federated query instead of dropping rows.
fn merge_shipped_rows(
    tables: &mut MemoryCatalog,
    table: &str,
    incoming: Relation,
) -> GsnResult<()> {
    let merged = match tables.deregister(table) {
        Some(mut existing) => {
            for row in incoming.into_rows() {
                existing.push_row(row).map_err(|e| {
                    GsnError::sql_exec(format!(
                        "hosts of `{table}` disagree on its columns: {}",
                        e.message()
                    ))
                })?;
            }
            existing
        }
        None => incoming,
    };
    tables.register(table, merged);
    Ok(())
}

impl GsnContainer {
    /// True when this container runs mesh federation (placement ring + replicated
    /// directory instead of a shared central directory).
    pub fn mesh_enabled(&self) -> bool {
        self.mesh.is_some()
    }

    /// This node's view of the ring membership, ordered.  Empty without a mesh.
    pub fn ring_members(&self) -> Vec<NodeId> {
        self.mesh
            .as_ref()
            .map(|m| m.ring.members())
            .unwrap_or_default()
    }

    /// This node's ring membership epoch (0 without a mesh).
    pub fn ring_epoch(&self) -> u64 {
        self.mesh.as_ref().map(|m| m.ring.epoch()).unwrap_or(0)
    }

    /// The fraction of the hash-token space primarily owned by this node, in permille.
    pub fn ring_ownership_permille(&self) -> u64 {
        self.mesh
            .as_ref()
            .map(|m| m.ring.ownership_permille(self.config.node_id))
            .unwrap_or(0)
    }

    /// The mesh members owning `key` under the placement ring, primary first.
    pub fn ring_owners(&self, key: &str) -> Vec<NodeId> {
        self.mesh
            .as_ref()
            .map(|m| m.ring.owners(key))
            .unwrap_or_default()
    }

    /// The local directory replica's full record set, tombstones included and sorted —
    /// two converged replicas return identical snapshots.
    pub fn replica_snapshot(&self) -> Vec<ReplicaRecord> {
        self.mesh
            .as_ref()
            .map(|m| m.replica.lock().snapshot())
            .unwrap_or_default()
    }

    /// Live directory entries matching every predicate, answered from the local
    /// replica (no network round trip).
    pub fn replica_lookup(&self, predicates: &[(String, String)]) -> Vec<DirectoryEntry> {
        self.mesh
            .as_ref()
            .map(|m| m.replica.lock().lookup(predicates))
            .unwrap_or_default()
    }

    /// Configures the row-shipping fallback's transport: whether per-host sub-queries
    /// stream with cursor prefetch, and how many rows each batch carries.
    pub fn set_row_ship_transport(&mut self, prefetch: bool, batch_rows: usize) {
        self.row_ship_prefetch = prefetch;
        self.row_ship_batch_rows = batch_rows.max(1);
    }

    /// Joins the mesh: adopts the seed membership view (from any existing member; pass
    /// an empty view with epoch 0 to found a new mesh), adds this node to the ring, and
    /// announces the grown view to every other member.
    pub fn mesh_bootstrap(&mut self, members: &[NodeId], epoch: u64) {
        let now = self.clock.now();
        let node = self.config.node_id;
        let Some(mesh) = self.mesh.as_mut() else {
            return;
        };
        mesh.ring.install(members, epoch);
        mesh.ring.join(node);
        for peer in mesh.ring.members().into_iter().filter(|p| *p != node) {
            self.peers.send(peer, mesh.announce(node), now);
        }
    }

    /// Leaves the mesh gracefully: tombstones every sensor this node registered,
    /// pushes those tombstones to the surviving members (gossip re-delivers them if
    /// the push is lost), and announces the shrunk ring.
    pub fn mesh_leave(&mut self) {
        let now = self.clock.now();
        let node = self.config.node_id;
        let Some(mesh) = self.mesh.as_mut() else {
            return;
        };
        let records: Vec<ReplicaRecord> = {
            let mut replica = mesh.replica.lock();
            replica.deregister_node(node);
            replica
                .snapshot()
                .into_iter()
                .filter(|r| r.node == node)
                .collect()
        };
        mesh.ring.leave(node);
        for peer in mesh.ring.members() {
            let tombstones = Message::GossipDelta {
                from: node,
                records: records.clone(),
                digest: Vec::new(),
                health: Vec::new(),
                trace: None,
            };
            self.peers.send(peer, tombstones, now);
            self.peers.send(peer, mesh.announce(node), now);
        }
    }

    /// One anti-entropy gossip round every [`GOSSIP_INTERVAL_STEPS`] steps: push-pull
    /// the directory digest with one pseudo-random ring peer, piggybacking a ring
    /// announce so membership views lost on a lossy link also heal, plus every
    /// member's latest health summary so the mesh health model converges the same
    /// way the directory does.
    pub(super) fn run_mesh_gossip(&mut self, now: Timestamp) {
        let node = self.config.node_id;
        if !self.peers.is_connected() {
            return;
        }
        let steps = self.steps;
        if self.mesh.is_none() || !steps.is_multiple_of(GOSSIP_INTERVAL_STEPS) {
            return;
        }
        // Health plane: evaluate the local rules over the live metrics snapshot,
        // versioned by the step counter so gossiped copies order correctly, and
        // mirror the verdicts into the labelled `gsn_health_state` gauges.
        let summary = evaluate_health(
            &self.metrics_snapshot(),
            &self.config.health_thresholds,
            node.as_u64(),
            steps,
        );
        for sub in &summary.subsystems {
            self.metrics
                .gauge_labeled(&crate::telemetry::HEALTH_STATE, &sub.subsystem)
                .set(sub.state.as_u8() as i64);
        }
        self.local_health = Some(summary.clone());
        let Some(mesh) = self.mesh.as_mut() else {
            return;
        };
        mesh.replica.lock().record_local_health(summary);
        let peers: Vec<NodeId> = mesh
            .ring
            .members()
            .into_iter()
            .filter(|p| *p != node)
            .collect();
        if peers.is_empty() {
            return;
        }
        mesh.rng = mesh
            .rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let peer = peers[(mesh.rng >> 33) as usize % peers.len()];
        let (digest, health) = {
            let replica = mesh.replica.lock();
            (replica.digest(), replica.health_snapshot())
        };
        let message = Message::GossipDigest {
            from: node,
            digest,
            health,
            trace: None,
        };
        let announce = mesh.announce(node);
        self.telemetry.gossip_rounds_total.inc();
        let bytes = self.peers.send(peer, message, now).unwrap_or(0)
            + self.peers.send(peer, announce, now).unwrap_or(0);
        self.telemetry.gossip_bytes_total.add(bytes as u64);
    }

    /// Push-pull: answers a peer's digest with what it proves the peer is missing,
    /// plus our own digest so it sends a return delta.  The piggybacked health
    /// summaries merge into the replica's health store, and the reply carries our
    /// view back — one round moves health both ways.
    pub(super) fn serve_gossip_digest(
        &mut self,
        from: NodeId,
        digest: &[(NodeId, u64)],
        health: &[HealthSummary],
        now: Timestamp,
    ) {
        let Some(mesh) = self.mesh.as_ref() else {
            return;
        };
        let (records, my_digest, my_health) = {
            let mut replica = mesh.replica.lock();
            replica.apply_health(health);
            (
                replica.delta_for(digest),
                replica.digest(),
                replica.health_snapshot(),
            )
        };
        let reply = Message::GossipDelta {
            from: self.config.node_id,
            records,
            digest: my_digest,
            health: my_health,
            trace: None,
        };
        self.send_gossip(from, reply, now);
    }

    /// Applies a peer's delta.  A non-empty digest asks for the records *we* have that
    /// the peer lacks; the terminating reply carries an empty digest (health already
    /// travelled in both directions this round).
    pub(super) fn absorb_gossip_delta(
        &mut self,
        from: NodeId,
        records: &[ReplicaRecord],
        digest: &[(NodeId, u64)],
        health: &[HealthSummary],
        now: Timestamp,
    ) {
        let Some(mesh) = self.mesh.as_ref() else {
            return;
        };
        let reply_records = {
            let mut replica = mesh.replica.lock();
            replica.apply(records);
            replica.apply_health(health);
            if digest.is_empty() {
                return;
            }
            replica.delta_for(digest)
        };
        if reply_records.is_empty() {
            return;
        }
        let reply = Message::GossipDelta {
            from: self.config.node_id,
            records: reply_records,
            digest: Vec::new(),
            health: Vec::new(),
            trace: None,
        };
        self.send_gossip(from, reply, now);
    }

    /// Sends one gossip frame, counting its wire size into the gossip byte total.
    fn send_gossip(&self, to: NodeId, frame: Message, now: Timestamp) {
        if let Some(bytes) = self.peers.send(to, frame, now) {
            self.telemetry.gossip_bytes_total.add(bytes as u64);
        }
    }

    /// The mesh members hosting `table`'s rows per the replicated directory, restricted
    /// to this node plus current ring members (a departed node's not-yet-tombstoned
    /// entries must not be scattered to).
    fn federated_hosts(&self, table: &str) -> Vec<NodeId> {
        let node = self.config.node_id;
        let Some(mesh) = self.mesh.as_ref() else {
            return Vec::new();
        };
        let mut hosts = mesh.replica.lock().hosts_of_table(table);
        hosts.retain(|h| *h == node || mesh.ring.contains(*h));
        hosts
    }

    /// Issues a federated query across the mesh with this node as coordinator.
    ///
    /// Decomposable aggregates (`COUNT`/`SUM`/`AVG`/`MIN`/`MAX`, optionally grouped and
    /// filtered) are rewritten container-side: every host executes a partial over its
    /// own rows and only partial-aggregate frames travel — no raw rows.  Everything
    /// else falls back to shipping each host's rows over the streaming-query wire and
    /// running the original SQL locally over the union.  Poll
    /// [`take_federated_result`](Self::take_federated_result) with the returned id.
    pub fn federated_query(&mut self, sql: &str) -> GsnResult<RequestId> {
        self.require_network("federated queries")?;
        if self.mesh.is_none() {
            return Err(GsnError::config(
                "this container is not part of a mesh federation",
            ));
        }
        let now = self.clock.now();
        let node = self.config.node_id;
        let request = self.peers.allocate();
        self.telemetry.scatter_queries_total.inc();
        // Distributed-trace root: the trace id derives from (node, request), so it
        // is mesh-unique without a random source.  With tracing disabled the token
        // is inert and `context()` is `None` — every scatter frame then matches the
        // pre-tracing wire format exactly.
        let trace_id = ((node.as_u64() as u128) << 64) | request as u128;
        let root_span = self
            .runtime
            .trace
            .begin_traced("federated.query", SpanId::NONE, trace_id);
        let trace = root_span.context();
        let mut hops: Vec<HopBreakdown> = Vec::new();
        // Row-ship legs to other hosts, issued as children once the parent is tracked.
        let mut children: Vec<(RequestId, NodeId, String)> = Vec::new();
        let mode = match gsn_sql::decompose(sql)? {
            Some(plan) => {
                let hosts = self.federated_hosts(&plan.table);
                if hosts.is_empty() {
                    return Err(GsnError::not_found(format!(
                        "no federation member hosts table `{}`",
                        plan.table
                    )));
                }
                // Every host gets the same frame; only traced scatters measure its
                // serialize leg.
                let serialize_micros = match trace {
                    Some(_) => serialize_micros(&Message::PartialAggregateRequest {
                        request,
                        sql: plan.partial_sql.clone(),
                        trace,
                    }),
                    None => 0,
                };
                let mut pending = Vec::new();
                let mut partials = Vec::new();
                for host in hosts {
                    if host == node {
                        partials.push(self.query(&plan.partial_sql)?.into_rows());
                        continue;
                    }
                    hops.push(HopBreakdown {
                        peer: host.as_u64(),
                        serialize_micros,
                        ..HopBreakdown::default()
                    });
                    pending.push(host);
                }
                FederatedMode::Partial {
                    plan,
                    pending,
                    partials,
                }
            }
            None => {
                self.telemetry.scatter_fallback_total.inc();
                let prepared =
                    gsn_sql::SqlEngine::compile(sql, &gsn_sql::OptimizerConfig::default())?;
                let mut pending = Vec::new();
                let mut tables = MemoryCatalog::new();
                for table in prepared.referenced_tables() {
                    let hosts = self.federated_hosts(table);
                    if hosts.is_empty() {
                        return Err(GsnError::not_found(format!(
                            "no federation member hosts table `{table}`"
                        )));
                    }
                    for host in hosts {
                        if host == node {
                            let local = self.query(&format!("select * from {table}"))?;
                            merge_shipped_rows(&mut tables, table, local)?;
                        } else {
                            let child = self.peers.allocate();
                            pending.push((child, table.clone()));
                            children.push((child, host, table.clone()));
                        }
                    }
                }
                FederatedMode::RowShip { pending, tables }
            }
        };
        let query = FederatedQuery {
            sql: sql.to_owned(),
            started: now,
            mode,
            trace,
            root_span,
            hops,
            merged: None,
        };
        self.peers
            .issue(request, Request::Federated(query), None, now);
        for (child, host, table) in children {
            let sql = format!("select * from {table}");
            let (batch_rows, prefetch) = (self.row_ship_batch_rows, self.row_ship_prefetch);
            let query = RemoteQuery::new(host, &sql, batch_rows, prefetch, trace);
            let child_request = Request::RemoteQuery(query);
            self.peers.issue(child, child_request, Some(request), now);
        }
        // A scatter with no remote legs (every host local) completes immediately.
        self.advance_federated_queries(now);
        Ok(request)
    }

    /// Takes the finished result of a [`federated_query`](Self::federated_query):
    /// `None` while the scatter is still gathering, `Some(Err)` when a host failed or
    /// the gather timed out.
    pub fn take_federated_result(&mut self, request: RequestId) -> Option<GsnResult<Relation>> {
        let (Request::Federated(query), outcome) = self.peers.take(request, Kind::Federated)?
        else {
            return None;
        };
        Some(outcome.map(|()| {
            query
                .merged
                .expect("a gather that finished without error holds its merged result")
        }))
    }

    /// Number of federated queries this coordinator still tracks.
    pub fn pending_federated_queries(&self) -> usize {
        self.peers.pending(Kind::Federated)
    }

    /// Advances every in-flight federated query: folds finished row-ship children in
    /// and completes queries whose gather is done.  Re-sends and deadlines belong to
    /// the peer-request table.
    pub(super) fn advance_federated_queries(&mut self, now: Timestamp) {
        for request in self.peers.in_flight(Kind::Federated) {
            let children = match self.peers.in_flight_mut(request) {
                Some(Request::Federated(FederatedQuery {
                    mode: FederatedMode::RowShip { pending, .. },
                    ..
                })) => pending.iter().map(|(sub, _)| *sub).collect(),
                _ => Vec::new(),
            };
            for child in children {
                let Some(outcome) = self.take_remote_query_result(child) else {
                    continue;
                };
                let folded = match self.peers.in_flight_mut(request) {
                    Some(Request::Federated(query)) => query.absorb_child(child, outcome),
                    _ => Ok(()),
                };
                if let Err(e) = folded {
                    self.peers.finish(request, Err(e));
                    break;
                }
            }
            self.complete_federated_query(request, now);
        }
    }

    /// Merges a federated query whose gather is complete, records its latency, slow
    /// query entry and root span, and parks the result for its taker.  Traced
    /// scatters then collect every participant's spans into one tree.
    fn complete_federated_query(&mut self, request: RequestId, now: Timestamp) {
        let Some(Request::Federated(query)) = self.peers.in_flight_mut(request) else {
            return;
        };
        let Some(result) = query.try_merge() else {
            return;
        };
        let elapsed_millis = now.abs_diff(query.started).as_millis() as u64;
        self.telemetry.scatter_latency_millis.record(elapsed_millis);
        // Federated queries route through the same slow-query log as local ones, with
        // the per-hop wire breakdown attached.  The latency is simulated-clock time:
        // on a simnet that is the meaningful end-to-end figure, wall time is not.
        let micros = elapsed_millis.saturating_mul(1_000);
        let rows_returned = result.as_ref().map(|r| r.row_count() as u64).unwrap_or(0);
        self.slow_queries.observe(micros, || SlowQuery {
            sql: query.sql.clone(),
            micros,
            explain: "federated scatter-gather".to_owned(),
            rows_scanned: 0,
            rows_returned,
            hops: query.hops.clone(),
        });
        self.runtime.trace.finish(query.root_span);
        let collect = query.trace.map(|ctx| {
            let peers: Vec<NodeId> = query.hops.iter().map(|h| NodeId::new(h.peer)).collect();
            (ctx, peers)
        });
        let outcome = result.map(|relation| query.merged = Some(relation));
        self.peers.finish(request, outcome);
        if let Some((ctx, peers)) = collect {
            self.start_trace_collect(ctx.trace_id, Some(ctx.parent_span.0), peers);
        }
    }
}
