//! The container's telemetry surfaces: metrics snapshots and Prometheus text, peer
//! metrics scrapes, distributed-trace collection, the health model and the status
//! report.

use std::sync::Arc;

use gsn_network::{RequestId, SimulatedNetwork};
use gsn_storage::StorageStats;
use gsn_telemetry::{
    evaluate as evaluate_health, AssembledTrace, HealthSummary, MetricsRegistry, MetricsSnapshot,
    RemoteSpan, SlowQuery, TraceLog,
};
use gsn_types::{GsnResult, NodeId};

use super::GsnContainer;
use crate::notification::NotificationStats;
use crate::peer::{Kind, Request, TraceCollect};
use crate::pool::WorkerPool;
use crate::query::{QueryManagerStats, QueryPartitionStatus};
use crate::sensor::SensorStats;
use crate::telemetry::{
    SourcedTotals, NET_LINK_BYTES_TOTAL, NET_LINK_DELIVERED_TOTAL, NET_LINK_DROPPED_TOTAL,
    NET_LINK_SENT_TOTAL, STORAGE_POOL_REGION_CONTENDED_TOTAL, STORAGE_POOL_REGION_EVICTIONS_TOTAL,
    STORAGE_POOL_REGION_HITS_TOTAL, STORAGE_POOL_REGION_MISSES_TOTAL,
};

/// How many assembled distributed traces the container retains for `/traces` readers.
const MAX_ASSEMBLED_TRACES: usize = 16;

/// Per-sensor entry of a [`ContainerStatus`].
#[derive(Debug, Clone)]
pub struct SensorStatus {
    /// The sensor name.
    pub name: String,
    /// Processing statistics.
    pub stats: SensorStats,
    /// Times any of the sensor's sources was detected silent.
    pub silence_episodes: u64,
}

/// A point-in-time status snapshot of the container (the programmatic equivalent of the
/// paper's monitoring web interface).
#[derive(Debug, Clone)]
pub struct ContainerStatus {
    /// The container name.
    pub name: String,
    /// The node identity.
    pub node: NodeId,
    /// Per-sensor statistics.
    pub sensors: Vec<SensorStatus>,
    /// Storage statistics.
    pub storage: StorageStats,
    /// Notification statistics.
    pub notifications: NotificationStats,
    /// Query repository statistics, merged across partitions.
    pub queries: QueryManagerStats,
    /// Per-partition query repository statistics (one partition per step-loop shard).
    pub query_partitions: Vec<QueryPartitionStatus>,
    /// SQL engine statistics (compilation cache plus the scanned/returned row counters
    /// of the pull-based executor).
    pub engine: gsn_sql::EngineStats,
    /// Number of registered client queries.
    pub registered_queries: usize,
    /// Wrapper kinds available on this container.
    pub wrapper_kinds: Vec<String>,
    /// Step-loop worker threads (1 = sequential).
    pub workers: usize,
    /// `(submitted, completed)` job counts of the step-loop worker pool, when sharded.
    pub pool_jobs: Option<(u64, u64)>,
    /// The health model's verdict per subsystem, evaluated over `metrics`.
    pub health: HealthSummary,
    /// The full metrics snapshot the status numbers derive from (incremental-vs-full
    /// evaluation counts and step-phase latencies live only here).
    pub metrics: MetricsSnapshot,
}

impl ContainerStatus {
    /// Renders the status as a human-readable multi-line report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("GSN container `{}` on {}\n", self.name, self.node));
        out.push_str(&format!(
            "  wrappers: {}\n  storage: {}\n",
            self.wrapper_kinds.join(", "),
            self.storage
        ));
        for table in &self.storage.tables_on_disk {
            out.push_str(&format!(
                "    table {}: {} B on disk, {}/{} segments live, {} B reclaimed in {} segments{}\n",
                table.name,
                table.usage.on_disk_bytes,
                table.usage.live_segments,
                table.usage.total_segments,
                table.usage.reclaimed_bytes,
                table.usage.reclaimed_segments,
                if table.kind == gsn_storage::BackendKind::Spilled {
                    " (spilled window)"
                } else {
                    ""
                }
            ));
        }
        if self.storage.maintenance.passes > 0 {
            out.push_str(&format!(
                "    maintenance: {} passes, {}\n",
                self.storage.maintenance.passes, self.storage.maintenance.reclaim
            ));
        }
        match self.pool_jobs {
            Some((submitted, completed)) => out.push_str(&format!(
                "  step loop: {} workers ({submitted} shard jobs submitted, {completed} completed)\n",
                self.workers
            )),
            None => out.push_str("  step loop: sequential (1 worker)\n"),
        }
        let counter = |name: &str| {
            self.metrics
                .get(name)
                .and_then(|sample| sample.as_counter())
                .unwrap_or(0)
        };
        out.push_str(&format!(
            "  registered client queries: {} (evaluated {}, failed {}; {} incremental / {} full)\n",
            self.registered_queries,
            self.queries.registered_evaluated,
            self.queries.registered_failed,
            counter("gsn_query_incremental_total"),
            counter("gsn_query_fallback_total"),
        ));
        if let Some(summary) = self
            .metrics
            .get("gsn_step_micros")
            .and_then(|sample| sample.as_histogram())
        {
            if summary.count > 0 {
                out.push_str(&format!(
                    "  step latency: p50 {} us, p99 {} us, max {} us over {} steps\n",
                    summary.p50, summary.p99, summary.max, summary.count
                ));
            }
        }
        for sub in &self.health.subsystems {
            out.push_str(&format!(
                "  health {}: {}{}\n",
                sub.subsystem,
                sub.state.label(),
                if sub.reasons.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", sub.reasons.join("; "))
                }
            ));
        }
        if self.query_partitions.len() > 1 {
            for p in &self.query_partitions {
                if p.registered == 0 && p.stats.registered_evaluated == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "    query partition {}: {} registered, {} evaluated ({} failed)\n",
                    p.partition,
                    p.registered,
                    p.stats.registered_evaluated,
                    p.stats.registered_failed
                ));
            }
        }
        out.push_str(&format!(
            "  query executor: {} rows scanned / {} rows returned ({} plans compiled, {} cache hits)\n",
            self.engine.rows_scanned,
            self.engine.rows_returned,
            self.engine.compiled,
            self.engine.cache_hits
        ));
        out.push_str(&format!(
            "  notifications: local {} delivered, remote {} delivered / {} buffered / {} dropped\n",
            self.notifications.local_delivered,
            self.notifications.remote_delivered,
            self.notifications.remote_buffered,
            self.notifications.remote_dropped
        ));
        out.push_str(&format!("  virtual sensors ({}):\n", self.sensors.len()));
        for sensor in &self.sensors {
            out.push_str(&format!(
                "    {}: {} arrivals, {} outputs, {} errors, mean pipeline {:.3} ms{}\n",
                sensor.name,
                sensor.stats.arrivals,
                sensor.stats.outputs,
                sensor.stats.errors,
                sensor.stats.mean_processing_ms(),
                if sensor.silence_episodes > 0 {
                    format!(", {} silence episodes", sensor.silence_episodes)
                } else {
                    String::new()
                }
            ));
        }
        out
    }
}

impl GsnContainer {
    /// The container's metrics registry (attach additional application instruments
    /// here; they appear in every snapshot and Prometheus rendering).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The structured trace log (disabled unless `ContainerConfig::trace_enabled`;
    /// can be toggled at runtime with [`TraceLog::set_enabled`]).
    pub fn trace_log(&self) -> &Arc<TraceLog> {
        &self.runtime.trace
    }

    /// The slow-query log: ad-hoc queries and registered evaluations slower than
    /// `ContainerConfig::slow_query_threshold_micros`, with their plan explains
    /// (federated queries appear with a per-hop wire breakdown).
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow_queries.snapshot()
    }

    /// Starts collecting every participant's spans of one distributed trace.
    /// This node's own spans are seeded immediately; each peer answers with its
    /// slice over subsequent [`step`](Self::step)s (lost requests are re-sent by
    /// the peer-request timer), and the completed tree lands in
    /// [`assembled_traces`](Self::assembled_traces).  Traced
    /// [`federated_query`](Self::federated_query) gathers trigger this
    /// automatically for the hosts they scattered to; the explicit call asks
    /// every current ring member instead.
    pub fn collect_remote_spans(&mut self, trace_id: u128) -> GsnResult<RequestId> {
        self.require_network("trace collections")?;
        let peers = self.ring_members();
        Ok(self.start_trace_collect(trace_id, None, peers))
    }

    /// Issues the collection of `trace_id` off `peers`; `root` is the coordinator's
    /// root span, or `None` to take this node's parentless span of the trace.
    pub(super) fn start_trace_collect(
        &mut self,
        trace_id: u128,
        root: Option<u64>,
        mut peers: Vec<NodeId>,
    ) -> RequestId {
        let node = self.config.node_id;
        let request = self.peers.allocate();
        let local = self.runtime.trace.spans_of_trace(trace_id);
        let root = root.or_else(|| local.iter().find(|s| s.parent.is_none()).map(|s| s.id.0));
        let local: Vec<RemoteSpan> = local
            .iter()
            .map(|s| RemoteSpan::from_span(node.as_u64(), s))
            .collect();
        peers.sort_by_key(|p| p.as_u64());
        peers.dedup();
        peers.retain(|p| *p != node);
        let collect = TraceCollect {
            trace_id,
            root: root.unwrap_or(0),
            pending: peers,
            spans: local,
        };
        if collect.pending.is_empty() {
            self.retain_trace(collect.assemble());
        } else {
            let now = self.clock.now();
            self.peers
                .issue(request, Request::TraceCollect(collect), None, now);
        }
        request
    }

    /// Retains one assembled trace, bounded by [`MAX_ASSEMBLED_TRACES`].
    pub(super) fn retain_trace(&mut self, assembled: AssembledTrace) {
        if self.assembled_traces.len() >= MAX_ASSEMBLED_TRACES {
            self.assembled_traces.pop_front();
        }
        self.assembled_traces.push_back(assembled);
    }

    /// The distributed traces assembled so far, oldest first (bounded; older ones
    /// are evicted as new collections complete).
    pub fn assembled_traces(&self) -> Vec<AssembledTrace> {
        self.assembled_traces.iter().cloned().collect()
    }

    /// Number of trace collections still waiting for peer replies.
    pub fn pending_trace_collects(&self) -> usize {
        self.peers.pending(Kind::TraceCollect)
    }

    /// This node's latest local health evaluation (`None` before the first mesh
    /// gossip round; standalone containers evaluate only in [`status`](Self::status)).
    pub fn local_health(&self) -> Option<HealthSummary> {
        self.local_health.clone()
    }

    /// The mesh-wide health view from this node's replica: one summary per member,
    /// sorted by node id, each carried here by gossip.  On a standalone container
    /// this is just the local summary (if one was ever evaluated).
    pub fn mesh_health(&self) -> Vec<HealthSummary> {
        match self.mesh.as_ref() {
            Some(mesh) => mesh.replica.lock().health_snapshot(),
            None => self.local_health.clone().into_iter().collect(),
        }
    }

    /// Fault-injection hook for tests and drills: records `samples` synthetic WAL
    /// fsync latency observations of `micros` each into the storage telemetry,
    /// driving the `storage` health rule without real disk stalls.
    pub fn inject_wal_sync_latency(&self, micros: u64, samples: u64) {
        for _ in 0..samples {
            self.runtime
                .storage
                .telemetry()
                .wal_sync_micros
                .record(micros);
        }
    }

    /// A typed snapshot of every metric the container exports, with the sourced
    /// totals (storage, SQL, notification, network levels) refreshed first.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let (queries, engine) = self.runtime.query_manager.stats();
        let storage = self.runtime.storage.stats();
        let notifications = self.runtime.notifications.lock().stats();
        let network = self.runtime.network.as_deref().map(SimulatedNetwork::stats);
        let directory = self.directory.as_ref().map(|d| d.stats());
        let (replica, replica_records) = match self.mesh.as_ref() {
            Some(mesh) => {
                let replica = mesh.replica.lock();
                (Some(replica.stats()), replica.snapshot().len())
            }
            None => (None, 0),
        };
        self.sourced.refresh(&SourcedTotals {
            storage: Some(&storage),
            engine: Some(&engine),
            queries: Some(&queries),
            registered_queries: self.runtime.query_manager.registered_count(),
            notifications: Some(&notifications),
            network,
            sensors: self.sensors.len(),
            remote_cursors: self.open_remote_cursors(),
            directory,
            replica,
            ring_members: self.mesh.as_ref().map(|m| m.ring.len()).unwrap_or(0),
            ring_ownership_permille: self.ring_ownership_permille(),
            replica_records,
        });
        self.peers.publish_pending();
        // Per-region pool counters: where hits/misses/evictions/contention land across
        // the sharded buffer pool's clock regions.
        for region in &storage.pool_regions {
            let label = region.region.to_string();
            for (desc, value) in [
                (&STORAGE_POOL_REGION_HITS_TOTAL, region.hits),
                (&STORAGE_POOL_REGION_MISSES_TOTAL, region.misses),
                (&STORAGE_POOL_REGION_EVICTIONS_TOTAL, region.evictions),
                (&STORAGE_POOL_REGION_CONTENDED_TOTAL, region.contended),
            ] {
                self.metrics.counter_labeled(desc, &label).store(value);
            }
        }
        // Per-link counters, for the links this node participates in.
        let node = self.config.node_id;
        let links = self
            .runtime
            .network
            .as_deref()
            .map(SimulatedNetwork::link_stats);
        for ((from, to), stats) in links.unwrap_or_default() {
            if from != node && to != node {
                continue;
            }
            let link = format!("{from}->{to}");
            for (desc, value) in [
                (&NET_LINK_SENT_TOTAL, stats.sent),
                (&NET_LINK_DROPPED_TOTAL, stats.dropped),
                (&NET_LINK_DELIVERED_TOTAL, stats.delivered),
                (&NET_LINK_BYTES_TOTAL, stats.bytes_sent),
            ] {
                self.metrics.counter_labeled(desc, &link).store(value);
            }
        }
        self.metrics.snapshot()
    }

    /// The current metrics in the Prometheus text exposition format — the scrape-able
    /// endpoint body (see `examples/telemetry.rs` for serving it over HTTP).
    pub fn render_prometheus(&self) -> String {
        self.metrics_snapshot().render_prometheus()
    }

    /// Asks a peer container for its metrics snapshot over the federation wire.
    /// The answer arrives over subsequent [`step`](Self::step)s; poll
    /// [`take_peer_metrics`](Self::take_peer_metrics) with the returned request id.
    /// Lost requests are re-sent by the peer-request timer.
    pub fn request_peer_metrics(&mut self, target: NodeId) -> GsnResult<RequestId> {
        self.require_network("peer metrics scrapes")?;
        let request = self.peers.allocate();
        let scrape = Request::MetricsScrape {
            target,
            snapshot: None,
        };
        self.peers.issue(request, scrape, None, self.clock.now());
        Ok(request)
    }

    /// Takes the snapshot answering a [`request_peer_metrics`](Self::request_peer_metrics)
    /// scrape: `None` while still in flight, `Some(Err)` once the scrape timed out.
    pub fn take_peer_metrics(&mut self, request: RequestId) -> Option<GsnResult<MetricsSnapshot>> {
        let (Request::MetricsScrape { snapshot, .. }, outcome) =
            self.peers.take(request, Kind::MetricsScrape)?
        else {
            return None;
        };
        Some(outcome.map(|()| snapshot.expect("a finished scrape holds the peer's snapshot")))
    }

    /// The most recent snapshot received from `node`, whichever scrape delivered it.
    pub fn peer_metrics(&self, node: NodeId) -> Option<&MetricsSnapshot> {
        self.peer_metrics.get(&node)
    }

    /// A point-in-time status snapshot.
    pub fn status(&self) -> ContainerStatus {
        let (queries, engine) = self.runtime.query_manager.stats();
        let query_partitions = self.runtime.query_manager.partition_status();
        let registered_queries = self.runtime.query_manager.registered_count();
        let notifications = self.runtime.notifications.lock().stats();
        let metrics = self.metrics_snapshot();
        let health = evaluate_health(
            &metrics,
            &self.config.health_thresholds,
            self.config.node_id.as_u64(),
            self.steps,
        );
        ContainerStatus {
            name: self.config.name.clone(),
            node: self.config.node_id,
            sensors: self
                .sensors
                .iter()
                .map(|(n, s)| {
                    let guard = s.lock();
                    SensorStatus {
                        name: n.as_str().to_owned(),
                        stats: guard.stats(),
                        silence_episodes: guard
                            .source_quality()
                            .iter()
                            .map(|(_, _, q)| q.silence_episodes)
                            .sum(),
                    }
                })
                .collect(),
            storage: self.runtime.storage.stats(),
            notifications,
            queries,
            query_partitions,
            engine,
            registered_queries,
            wrapper_kinds: self.registry.kinds(),
            workers: self.pool.as_ref().map(WorkerPool::size).unwrap_or(1),
            pool_jobs: self.pool.as_ref().map(WorkerPool::stats),
            health,
            metrics,
        }
    }
}
