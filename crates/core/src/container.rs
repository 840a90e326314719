//! The GSN container: the runtime hosting a pool of virtual sensors on one node.
//!
//! "GSN follows a container-based architecture and each container can host and manage one
//! or more virtual sensors concurrently.  The container manages every aspect of the
//! virtual sensors at runtime including remote access, interaction with the sensor
//! network, security, persistence, data filtering, concurrency, and access to and pooling
//! of resources" (paper, Section 4).
//!
//! The container is clock-driven: [`GsnContainer::step`] advances every hosted virtual
//! sensor by polling its wrappers, draining network deliveries, running the processing
//! pipeline for each arrival, evaluating registered client queries and delivering
//! notifications.  Live deployments call `step` from a timer loop on the wall clock;
//! tests and benchmark harnesses drive it from a [`gsn_types::SimulatedClock`].
//!
//! ## Threading model: the sharded step loop
//!
//! With `ContainerConfig::workers > 1` the per-sensor pipelines run concurrently on a
//! [`WorkerPool`].  The moving parts:
//!
//! * **Shard assignment** — sensors are partitioned across the workers by a stable FNV
//!   hash of their name ([`shard_index`](crate::shard_index)); each shard's job processes its sensors in
//!   name order on one worker thread, so one sensor's pipeline is never concurrent with
//!   itself and its outputs stay in arrival order.
//! * **Shared state** — the managers a pipeline touches live in a [`PipelineRuntime`]
//!   shared by `Arc`: the [`StorageManager`] is internally synchronised (per-table
//!   `RwLock`s plus the container-wide shared buffer pool), the [`QueryManager`] and
//!   [`NotificationManager`] sit behind `Mutex`es with short lock scopes (one
//!   evaluation / one delivery), and the remote-route table behind an `RwLock` that
//!   `step` only reads.
//! * **Lock order** — two descending chains share the storage table locks as their
//!   common leaf: `sensor mutex → storage table lock` (the pipeline inserts while the
//!   sensor is locked) and `query-manager mutex → storage table lock` (evaluation reads
//!   tables under the manager lock).  The notification mutex is taken with none of the
//!   above held.  Never acquire a sensor or manager mutex while holding a table lock.
//!   A sensor's mutex is *released* before its output fans out, so recursion into a
//!   consumer sensor (local loop-back routes) never holds two sensor locks at once.
//! * **What runs where** — network intake, peer-request retries, deferred cross-shard
//!   deliveries, pruning and the per-step WAL group commit run sequentially on the
//!   caller; only wrapper polling + pipeline execution (and the per-output query
//!   evaluation / notification they trigger) run on the pool.
//! * **Determinism** — per-shard [`StepReport`]s merge in shard-index order, and
//!   loop-back deliveries that cross a shard boundary are deferred to a sequential
//!   post-barrier phase (ordered by producing shard, then production order).  With
//!   `workers = 1` no pool exists and the loop is byte-identical to the pre-sharding
//!   sequential semantics.  With `workers = N`, for sensors whose inputs are their own
//!   local wrappers (and registered queries over a single sensor's output), every
//!   per-sensor output sequence, notification stream and table content is identical to
//!   the sequential run — only cross-sensor interleaving (and wall-clock time) differs.
//!   Two workloads are inherently order-dependent and excluded from that parity: a
//!   loop-back consumer in a different shard than its producer observes the producer's
//!   step-N outputs after its own poll (post-barrier) instead of interleaved with it —
//!   still deterministic for a fixed worker count, but not identical to `workers = 1`;
//!   and a registered query joining tables of concurrently executing sensors reads
//!   whatever those tables hold mid-step, which may vary run to run.
//!
//! ## Module layout
//!
//! * this file — the container state, deployment and the local query surface;
//! * `step` — the step loop and the sharded sensor pipelines;
//! * `serve` — network intake: what this node serves to peers (remote cursors,
//!   partial aggregates, scrapes, trace slices) and the replies it absorbs;
//! * `mesh` — ring membership, gossip and federated scatter-gather queries;
//! * `status` — the telemetry surfaces (snapshot, Prometheus, peer scrapes,
//!   distributed traces, health, status report).
//!
//! Every request this node sends a peer lives in one peer-request table (the `peer`
//! module), which owns ids, re-sends, deadlines and result parking.

mod mesh;
mod serve;
mod status;
mod step;

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use gsn_network::{
    AccessController, Directory, DirectoryEntry, IntegrityService, Message, Operation, Principal,
    RequestId, SimulatedNetwork,
};
use gsn_sql::Relation;
use gsn_storage::{StorageManager, WindowSpec};
use gsn_telemetry::{
    AssembledTrace, HealthSummary, MetricsRegistry, MetricsSnapshot, SlowQuery, SlowQueryLog,
    Stopwatch, TraceLog,
};
use gsn_types::{Clock, EpochCell, GsnError, GsnResult, NodeId, VirtualSensorName};
use gsn_wrappers::WrapperRegistry;
use gsn_xml::VirtualSensorDescriptor;
use parking_lot::Mutex;

use crate::config::ContainerConfig;
use crate::cursor::QueryCursor;
use crate::notification::{Notification, NotificationManager, SubscriptionId};
use crate::peer::{Kind, PendingRequests, RemoteQuery, Request};
use crate::pool::WorkerPool;
use crate::query::{ClientQueryId, QueryRepository};
use crate::sensor::{SensorStats, SourceRef, VirtualSensor};
use crate::telemetry::{ContainerTelemetry, SourcedMetrics};

pub use crate::peer::RemoteQueryResult;
pub(crate) use mesh::FederatedQuery;
use mesh::MeshState;
use serve::RemoteCursor;
pub use status::{ContainerStatus, SensorStatus};
pub use step::StepReport;

/// A deployed sensor shared between the container and the step-loop workers.
type SharedSensor = Arc<Mutex<VirtualSensor>>;

/// The sensors visible to one pipeline execution context: the full container map on the
/// sequential paths, one shard on a worker.
type SensorView = BTreeMap<VirtualSensorName, SharedSensor>;

/// The container state the per-sensor pipelines share across worker threads.
///
/// Everything here is internally synchronised; see the module docs for the lock order.
struct PipelineRuntime {
    storage: Arc<StorageManager>,
    /// Internally partitioned by the step-loop shard hash — no outer mutex: each worker
    /// shard evaluates its own sensors' registered queries under its own partition lock.
    query_manager: QueryRepository,
    notifications: Mutex<NotificationManager>,
    network: Option<Arc<SimulatedNetwork>>,
    /// Routes incoming remote deliveries: remote sensor name -> local consumers.
    /// Epoch-published: the per-element hot path takes an `Arc` snapshot (one pointer
    /// clone, no lock held across the delivery) and (un)deployments install a new
    /// generation, so routing lookups never contend with each other or with writers.
    remote_routes: EpochCell<HashMap<String, Vec<(VirtualSensorName, SourceRef)>>>,
    /// Structured span log shared with the step-loop workers; disabled (one relaxed
    /// load per would-be span, no allocation) unless `ContainerConfig::trace_enabled`.
    trace: Arc<TraceLog>,
}

/// The GSN container.
pub struct GsnContainer {
    config: ContainerConfig,
    clock: Arc<dyn Clock>,
    registry: Arc<WrapperRegistry>,
    runtime: Arc<PipelineRuntime>,
    sensors: BTreeMap<VirtualSensorName, SharedSensor>,
    /// The step-loop worker pool; `None` when `workers <= 1` (sequential semantics).
    pool: Option<WorkerPool>,
    access: AccessController,
    integrity: IntegrityService,
    directory: Option<Arc<Directory>>,
    /// Every request this container has sent a peer — remote queries, federated
    /// queries, metrics scrapes, trace collections, subscriptions — in flight or
    /// holding its result for the taker.
    peers: PendingRequests,
    /// Streaming-query cursors opened on behalf of remote peers, by cursor id.  Each
    /// `QueryNext` advances its cursor one batch; the cursor closes when exhausted,
    /// on error, when idle past [`DEADLINE`](crate::peer::DEADLINE), or when the
    /// peer's request would exceed the open-cursor cap.
    remote_cursors: HashMap<u64, RemoteCursor>,
    next_cursor_id: u64,
    /// Steps executed so far; paces the periodic storage maintenance pass.
    steps: u64,
    /// The metrics registry every subsystem's instruments are adopted into.
    metrics: Arc<MetricsRegistry>,
    /// The container's own live instruments (step phases, federation counters).
    telemetry: ContainerTelemetry,
    /// Handles for the totals refreshed from the subsystem stats at snapshot time.
    sourced: SourcedMetrics,
    /// Ad-hoc queries slower than the configured threshold land here (shared with the
    /// query repository, which reports registered evaluations into the same log).
    slow_queries: Arc<SlowQueryLog>,
    /// Completed distributed traces, oldest evicted past a fixed bound.
    assembled_traces: VecDeque<AssembledTrace>,
    /// The most recent local health evaluation (refreshed each gossip round; `None`
    /// until the first round, and always `None` on standalone containers).
    local_health: Option<HealthSummary>,
    /// Most recent snapshot received from each peer (kept after the take, so a
    /// monitoring loop can read every peer's last known state at once).
    peer_metrics: HashMap<NodeId, MetricsSnapshot>,
    /// Mesh-federation state (placement ring + gossip-replicated directory); `None`
    /// for standalone containers and shared-directory federations.
    mesh: Option<MeshState>,
    /// Transport for the row-shipping fallback of federated queries: whether the
    /// per-host sub-queries use cursor prefetch, and their batch size.
    row_ship_prefetch: bool,
    row_ship_batch_rows: usize,
}

impl std::fmt::Debug for GsnContainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GsnContainer({}, {} sensors, {} workers)",
            self.config.name,
            self.sensors.len(),
            self.pool.as_ref().map(WorkerPool::size).unwrap_or(1),
        )
    }
}

impl GsnContainer {
    /// Creates a standalone container (no peer-to-peer networking) on the given clock.
    pub fn new(config: ContainerConfig, clock: Arc<dyn Clock>) -> GsnContainer {
        Self::build(config, clock, None, None)
    }

    /// Creates a container attached to a simulated network and shared directory.
    pub fn with_network(
        config: ContainerConfig,
        clock: Arc<dyn Clock>,
        network: Arc<SimulatedNetwork>,
        directory: Arc<Directory>,
    ) -> GsnResult<GsnContainer> {
        network.add_node(config.node_id)?;
        Ok(Self::build(config, clock, Some(network), Some(directory)))
    }

    /// Creates a container attached to a simulated network with *mesh* federation: no
    /// shared directory — sensor discovery runs against a local gossip-replicated
    /// directory and data placement against a consistent-hash ring.  Call
    /// [`mesh_bootstrap`](Self::mesh_bootstrap) with a seed view to join an existing
    /// mesh (or with an empty view to found one).
    pub fn with_mesh(
        config: ContainerConfig,
        clock: Arc<dyn Clock>,
        network: Arc<SimulatedNetwork>,
    ) -> GsnResult<GsnContainer> {
        network.add_node(config.node_id)?;
        let node = config.node_id;
        let mut container = Self::build(config, clock, Some(network), None);
        container.mesh = Some(MeshState::new(node));
        Ok(container)
    }

    fn build(
        config: ContainerConfig,
        clock: Arc<dyn Clock>,
        network: Option<Arc<SimulatedNetwork>>,
        directory: Option<Arc<Directory>>,
    ) -> GsnContainer {
        let pool = (config.workers > 1)
            .then(|| WorkerPool::new(&format!("{}-step", config.name), config.workers));
        let trace = Arc::new(TraceLog::with_capacity(config.trace_capacity));
        trace.set_enabled(config.trace_enabled);
        // Namespace span ids by node so spans collected off different containers
        // never collide when assembled into one distributed trace tree.
        trace.set_id_namespace(config.node_id.as_u64());
        let runtime = Arc::new(PipelineRuntime {
            storage: Arc::new(StorageManager::with_options(config.storage_options())),
            query_manager: QueryRepository::with_partitions(
                config.workers.max(1),
                config.query_cache_enabled,
                config.incremental_queries,
            ),
            notifications: Mutex::new(NotificationManager::new(
                config.node_id,
                config.disconnect_buffer_capacity,
            )),
            network: network.clone(),
            remote_routes: EpochCell::new(HashMap::new()),
            trace,
        });

        // Adopt every subsystem's instrument handles into one registry: the handles
        // were live from construction, so nothing recorded before this point is lost.
        let metrics = Arc::new(MetricsRegistry::new());
        let telemetry = ContainerTelemetry::new(&metrics);
        let sourced = SourcedMetrics::new(&metrics);
        runtime.storage.telemetry().register_into(&metrics);
        runtime.query_manager.telemetry().register_into(&metrics);
        let sql_telemetry = gsn_sql::SqlTelemetry::new();
        sql_telemetry.register_into(&metrics);
        runtime.query_manager.set_sql_telemetry(&sql_telemetry);
        let slow_queries = Arc::clone(runtime.query_manager.slow_query_log());
        slow_queries.set_threshold_micros(config.slow_query_threshold_micros);
        let peers = PendingRequests::new(
            network,
            config.node_id,
            Arc::clone(&metrics),
            telemetry.retransmits_total.clone(),
        );

        GsnContainer {
            registry: Arc::new(WrapperRegistry::with_builtins()),
            runtime,
            sensors: BTreeMap::new(),
            pool,
            access: AccessController::permissive(),
            integrity: IntegrityService::new(),
            directory,
            peers,
            remote_cursors: HashMap::new(),
            next_cursor_id: 1,
            steps: 0,
            metrics,
            telemetry,
            sourced,
            slow_queries,
            assembled_traces: VecDeque::new(),
            local_health: None,
            peer_metrics: HashMap::new(),
            mesh: None,
            row_ship_prefetch: false,
            row_ship_batch_rows: 256,
            clock,
            config,
        }
    }

    /// The container configuration.
    pub fn config(&self) -> &ContainerConfig {
        &self.config
    }

    /// The node identity.
    pub fn node_id(&self) -> NodeId {
        self.config.node_id
    }

    /// The container clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The wrapper registry (register additional platforms here before deploying).
    pub fn wrapper_registry(&self) -> &Arc<WrapperRegistry> {
        &self.registry
    }

    /// The storage manager (read-only access for inspection; the container owns writes).
    pub fn storage(&self) -> &Arc<StorageManager> {
        &self.runtime.storage
    }

    /// Checkpoints every persistent storage table to stable storage.
    ///
    /// Persistent tables also checkpoint automatically on WAL growth and when the
    /// container is dropped; call this for an explicit durability point (e.g. before
    /// process hand-over).
    pub fn flush_storage(&self) -> GsnResult<()> {
        self.runtime.storage.flush_all()
    }

    /// The access-control layer.
    pub fn access_control(&self) -> &AccessController {
        &self.access
    }

    /// The data-integrity service.
    pub fn integrity(&self) -> &IntegrityService {
        &self.integrity
    }

    /// The names of all deployed virtual sensors, sorted.
    pub fn sensor_names(&self) -> Vec<String> {
        self.sensors.keys().map(|n| n.as_str().to_owned()).collect()
    }

    /// Per-sensor processing statistics.
    pub fn sensor_stats(&self, name: &str) -> GsnResult<SensorStats> {
        let key = VirtualSensorName::new(name)?;
        self.sensors
            .get(&key)
            .map(|s| s.lock().stats())
            .ok_or_else(|| GsnError::not_found(format!("virtual sensor `{name}` is not deployed")))
    }

    // -----------------------------------------------------------------------------------
    // Deployment
    // -----------------------------------------------------------------------------------

    /// Deploys a virtual sensor from its XML descriptor text.
    pub fn deploy_xml(&mut self, xml: &str) -> GsnResult<VirtualSensorName> {
        let descriptor = VirtualSensorDescriptor::parse(xml)?;
        self.deploy(descriptor)
    }

    /// Deploys a virtual sensor from a parsed descriptor.
    ///
    /// Deployment publishes the sensor's metadata to the directory (when networked) and,
    /// for every `wrapper="remote"` stream source, resolves the predicates through the
    /// directory and subscribes to the producing node.
    pub fn deploy(&mut self, descriptor: VirtualSensorDescriptor) -> GsnResult<VirtualSensorName> {
        if self.sensors.len() >= self.config.max_virtual_sensors {
            return Err(GsnError::resource_exhausted(format!(
                "container `{}` already hosts {} virtual sensors",
                self.config.name,
                self.sensors.len()
            )));
        }
        let name = descriptor.name.clone();
        if self.sensors.contains_key(&name) {
            return Err(GsnError::already_exists(format!(
                "virtual sensor `{name}` is already deployed"
            )));
        }

        let directory = self.directory.clone();
        let mesh = &self.mesh;
        let deployed_at = self.clock.now();
        let sensor = VirtualSensor::deploy(
            descriptor,
            &self.registry,
            &self.runtime.storage,
            |address| {
                // Local loop-back entries resolve like remote ones: the producer is a
                // sensor on this very node and deliveries short-circuit through notify().
                let entry: DirectoryEntry = if let Some(directory) = &directory {
                    directory.resolve_one(&address.predicates)?
                } else if let Some(mesh) = mesh {
                    mesh.replica.lock().resolve_one(&address.predicates)?
                } else {
                    return Err(GsnError::config(
                        "this container has no directory; `wrapper=\"remote\"` sources are unavailable",
                    ));
                };
                Ok((entry.node, entry.sensor.clone()))
            },
            deployed_at,
        )?;

        // Publish to the directory (shared or replica; gossip spreads the latter).
        if self.directory.is_some() || self.mesh.is_some() {
            let mut metadata = sensor.descriptor().metadata.clone();
            metadata.push(("name".to_owned(), name.as_str().to_owned()));
            metadata.push(("container".to_owned(), self.config.name.clone()));
            if let Some(directory) = &self.directory {
                directory.register(self.config.node_id, name.as_str(), metadata)?;
            } else if let Some(mesh) = &self.mesh {
                mesh.replica.lock().register(name.as_str(), metadata)?;
            }
        }

        // Wire up remote sources: remember the routing and subscribe to the producer.
        for (producer, remote_sensor, source_ref) in sensor.remote_sources() {
            self.runtime.remote_routes.update(|routes| {
                let mut next = routes.clone();
                next.entry(remote_sensor.to_ascii_lowercase())
                    .or_default()
                    .push((name.clone(), source_ref));
                (next, ())
            });
            if producer == self.config.node_id {
                // Producer is this very container: subscribe locally.
                self.runtime
                    .notifications
                    .lock()
                    .add_remote_subscriber(self.config.node_id, &remote_sensor);
            } else if self.peers.is_connected() {
                let request = self.peers.allocate();
                let subscription = Request::Subscription {
                    producer,
                    sensor: remote_sensor,
                };
                self.peers
                    .issue(request, subscription, None, self.clock.now());
            }
        }

        self.sensors
            .insert(name.clone(), Arc::new(Mutex::new(sensor)));
        Ok(name)
    }

    /// Undeploys a virtual sensor, dropping its storage and directory entry.
    pub fn undeploy(&mut self, name: &str) -> GsnResult<()> {
        let key = VirtualSensorName::new(name)?;
        let sensor = self.sensors.remove(&key).ok_or_else(|| {
            GsnError::not_found(format!("virtual sensor `{name}` is not deployed"))
        })?;
        let producers = sensor.lock().remote_sources();
        sensor.lock().teardown(&self.runtime.storage);
        if let Some(directory) = &self.directory {
            let _ = directory.deregister(self.config.node_id, key.as_str());
        } else if let Some(mesh) = &self.mesh {
            let _ = mesh.replica.lock().deregister(key.as_str());
        }
        let (_, orphaned): (u64, Vec<String>) = self.runtime.remote_routes.update(|routes| {
            let mut next = routes.clone();
            next.values_mut().for_each(|consumers| {
                consumers.retain(|(owner, _)| owner != &key);
            });
            // Remote sensors no local consumer references any more leave the routes.
            let orphaned = next
                .iter()
                .filter(|(_, consumers)| consumers.is_empty())
                .map(|(sensor, _)| sensor.clone())
                .collect();
            next.retain(|_, consumers| !consumers.is_empty());
            (next, orphaned)
        });
        // Unsubscribe from remote sensors no local consumer references any more, and
        // stop any subscription to them still in flight.
        let now = self.clock.now();
        for sensor in &orphaned {
            self.peers.cancel(|_, request| {
                matches!(request, Request::Subscription { sensor: s, .. } if s.eq_ignore_ascii_case(sensor))
            });
            let producer = producers
                .iter()
                .find(|(node, remote, _)| {
                    *node != self.config.node_id && remote.eq_ignore_ascii_case(sensor)
                })
                .map(|(node, _, _)| *node);
            if let Some(producer) = producer {
                self.peers.send(
                    producer,
                    Message::Unsubscribe {
                        subscriber: self.config.node_id,
                        sensor: sensor.clone(),
                    },
                    now,
                );
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------------------------
    // Querying and subscriptions
    // -----------------------------------------------------------------------------------

    /// Executes an ad-hoc SQL query over the container's virtual sensor output tables.
    pub fn query(&self, sql: &str) -> GsnResult<Relation> {
        self.query_as(&Principal::Anonymous, sql)
    }

    /// Executes an ad-hoc SQL query on behalf of a principal, enforcing access control on
    /// every referenced virtual sensor.
    pub fn query_as(&self, principal: &Principal, sql: &str) -> GsnResult<Relation> {
        let prepared = gsn_sql::SqlEngine::compile(sql, &gsn_sql::OptimizerConfig::default())?;
        for table in prepared.referenced_tables() {
            self.access.authorize(principal, Operation::Read, table)?;
        }
        let watch = Stopwatch::start();
        let result =
            self.runtime
                .query_manager
                .execute_adhoc(sql, &self.runtime.storage, self.clock.now());
        if let Ok(relation) = &result {
            let micros = watch.elapsed_micros();
            self.slow_queries.observe(micros, || SlowQuery {
                sql: sql.to_owned(),
                micros,
                explain: prepared.explain(),
                rows_scanned: 0,
                rows_returned: relation.row_count() as u64,
                hops: Vec::new(),
            });
        }
        result
    }

    /// Opens a *streaming* ad-hoc query: rows are pulled in batches instead of
    /// materialising the whole result, so a `LIMIT` query over a large
    /// `permanent-storage` table reads only the storage pages it needs.
    ///
    /// The returned cursor owns its plan and table handles — it holds no container
    /// lock between pulls.  [`query`](Self::query) remains the collecting convenience.
    pub fn query_cursor(&self, sql: &str) -> GsnResult<QueryCursor> {
        self.query_cursor_as(&Principal::Anonymous, sql)
    }

    /// Opens a streaming ad-hoc query on behalf of a principal, enforcing access
    /// control on every referenced virtual sensor.
    pub fn query_cursor_as(&self, principal: &Principal, sql: &str) -> GsnResult<QueryCursor> {
        let prepared = self.runtime.query_manager.prepare(sql)?;
        for table in prepared.referenced_tables() {
            self.access.authorize(principal, Operation::Read, table)?;
        }
        // When the cursor is dropped its counters fold into the engine statistics, so
        // streaming executions show up in `ContainerStatus` like materialised ones.
        let runtime = Arc::clone(&self.runtime);
        let telemetry = Box::new(
            move |scanned: u64, returned: u64, pages_skipped: u64, residual_filtered: u64| {
                runtime.query_manager.record_cursor(
                    scanned,
                    returned,
                    pages_skipped,
                    residual_filtered,
                );
            },
        );
        QueryCursor::open(
            &prepared,
            Arc::clone(&self.runtime.storage),
            self.clock.now(),
            Some(telemetry),
        )
    }

    /// Issues a streaming SQL query against a *remote* container.  The remote node
    /// opens a pull-based cursor and ships the result as incremental `QueryBatch`
    /// messages of `batch_rows` rows each (instead of one monolithic relation), which
    /// this container assembles over subsequent [`step`](Self::step)s.  Poll
    /// [`take_remote_query_result`](Self::take_remote_query_result) with the returned
    /// request id.
    pub fn remote_query(
        &mut self,
        target: NodeId,
        sql: &str,
        batch_rows: usize,
    ) -> GsnResult<RequestId> {
        self.remote_query_with(target, sql, batch_rows, false)
    }

    /// Like [`remote_query`](Self::remote_query), but with cursor prefetch pipelining:
    /// the server speculatively pushes a window of batches ahead of this container's
    /// acknowledgements, hiding one link round trip per batch.  `QueryNext` becomes a
    /// cumulative ack sent every half-window instead of a per-batch pull.
    pub fn remote_query_prefetch(
        &mut self,
        target: NodeId,
        sql: &str,
        batch_rows: usize,
    ) -> GsnResult<RequestId> {
        self.remote_query_with(target, sql, batch_rows, true)
    }

    fn remote_query_with(
        &mut self,
        target: NodeId,
        sql: &str,
        batch_rows: usize,
        prefetch: bool,
    ) -> GsnResult<RequestId> {
        self.require_network("remote queries")?;
        let request = self.peers.allocate();
        let query = RemoteQuery::new(target, sql, batch_rows, prefetch, None);
        self.peers
            .issue(request, Request::RemoteQuery(query), None, self.clock.now());
        Ok(request)
    }

    /// Fails with a configuration error naming `what` when the container has no
    /// network.
    fn require_network(&self, what: &str) -> GsnResult<()> {
        if self.peers.is_connected() {
            Ok(())
        } else {
            Err(GsnError::config(format!(
                "this container has no network; {what} are unavailable"
            )))
        }
    }

    /// Cancels an in-flight remote query, dropping any batches accumulated so far;
    /// returns whether the request was still tracked.  A server-side cursor left open
    /// by the cancellation is reclaimed by the remote node's idle reaper.
    pub fn cancel_remote_query(&mut self, request: RequestId) -> bool {
        self.peers
            .cancel(|id, r| id == request && matches!(r, Request::RemoteQuery(_)))
            > 0
    }

    /// Number of remote queries issued by this container whose results are still
    /// tracked (in flight or awaiting [`take_remote_query_result`](Self::take_remote_query_result)).
    pub fn pending_remote_queries(&self) -> usize {
        self.peers.pending(Kind::RemoteQuery)
    }

    /// Takes the finished result of a query issued with [`remote_query`](Self::remote_query):
    /// `None` while batches are still in flight, `Some(Err)` when the remote node
    /// reported a failure or the query timed out, `Some(Ok)` with the assembled
    /// relation once complete.
    pub fn take_remote_query_result(
        &mut self,
        request: RequestId,
    ) -> Option<GsnResult<RemoteQueryResult>> {
        let (Request::RemoteQuery(query), outcome) = self.peers.take(request, Kind::RemoteQuery)?
        else {
            return None;
        };
        Some(outcome.and_then(|()| query.into_result()))
    }

    /// Renders the execution plan of a query (EXPLAIN).
    pub fn explain(&self, sql: &str) -> GsnResult<String> {
        self.runtime.query_manager.explain(sql)
    }

    /// Registers a continuous client query (see [`QueryManager::register`]).
    pub fn register_query(
        &self,
        client: &str,
        sql: &str,
        history: WindowSpec,
        sampling_rate: Option<f64>,
    ) -> GsnResult<ClientQueryId> {
        self.runtime
            .query_manager
            .register(client, sql, history, sampling_rate)
    }

    /// Removes a registered client query.
    pub fn deregister_query(&self, id: ClientQueryId) -> GsnResult<()> {
        self.runtime.query_manager.deregister(id)
    }

    /// Number of registered client queries.
    pub fn registered_query_count(&self) -> usize {
        self.runtime.query_manager.registered_count()
    }

    /// Subscribes to a virtual sensor's output stream; notifications arrive on the
    /// returned channel.
    pub fn subscribe(
        &self,
        sensor: &str,
    ) -> GsnResult<(SubscriptionId, crossbeam::channel::Receiver<Notification>)> {
        self.require_sensor(sensor)?;
        Ok(self.runtime.notifications.lock().subscribe_channel(sensor))
    }

    /// Subscribes a callback to a virtual sensor's output stream.
    pub fn subscribe_callback(
        &self,
        sensor: &str,
        callback: impl Fn(&Notification) + Send + Sync + 'static,
    ) -> GsnResult<SubscriptionId> {
        self.require_sensor(sensor)?;
        Ok(self
            .runtime
            .notifications
            .lock()
            .subscribe_callback(sensor, callback))
    }

    /// Cancels a local subscription.
    pub fn unsubscribe(&self, id: SubscriptionId) -> GsnResult<()> {
        self.runtime.notifications.lock().unsubscribe(id)
    }

    fn require_sensor(&self, sensor: &str) -> GsnResult<()> {
        let key = VirtualSensorName::new(sensor)?;
        let table = VirtualSensor::output_table_name(&key);
        if self.sensors.contains_key(&key) || self.runtime.storage.has_table(&table) {
            Ok(())
        } else {
            Err(GsnError::not_found(format!(
                "virtual sensor `{sensor}` is not deployed on this container"
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsn_types::{DataType, SimulatedClock, Timestamp, Value};
    use gsn_xml::{AddressSpec, InputStreamSpec, StreamSourceSpec};

    pub(super) fn mote_descriptor(name: &str, interval_ms: u32) -> VirtualSensorDescriptor {
        VirtualSensorDescriptor::builder(name)
            .unwrap()
            .metadata("type", "temperature")
            .output_field("avg_temp", DataType::Double)
            .unwrap()
            .permanent_storage(true)
            .input_stream(
                InputStreamSpec::new("main", "select * from src1").with_source(
                    StreamSourceSpec::new(
                        "src1",
                        AddressSpec::new("mote")
                            .with_predicate("interval", &interval_ms.to_string()),
                        "select avg(temperature) as avg_temp from WRAPPER",
                    )
                    .with_window(gsn_storage::WindowSpec::Count(10)),
                ),
            )
            .build()
            .unwrap()
    }

    pub(super) fn standalone() -> (GsnContainer, SimulatedClock) {
        let clock = SimulatedClock::new();
        let container = GsnContainer::new(ContainerConfig::default(), Arc::new(clock.clone()));
        (container, clock)
    }

    #[test]
    fn deploy_step_and_query() {
        let (mut container, clock) = standalone();
        container.deploy(mote_descriptor("room-temp", 100)).unwrap();
        assert_eq!(container.sensor_names(), vec!["room-temp"]);

        clock.advance(gsn_types::Duration::from_secs(1));
        let report = container.step();
        assert_eq!(report.local_arrivals, 10);
        assert_eq!(report.outputs, 10);
        assert_eq!(report.errors, 0);

        let rel = container
            .query("select count(*) as n from room_temp")
            .unwrap();
        assert_eq!(rel.rows()[0][0], Value::Integer(10));
        let stats = container.sensor_stats("room-temp").unwrap();
        assert_eq!(stats.outputs, 10);
        assert!(container.sensor_stats("nosuch").is_err());

        let status = container.status();
        assert_eq!(status.sensors.len(), 1);
        assert_eq!(status.workers, 1);
        assert!(status.pool_jobs.is_none());
        assert!(status.render().contains("room-temp"));
        assert!(status.render().contains("sequential"));
    }

    #[test]
    fn sharded_step_uses_the_worker_pool() {
        let clock = SimulatedClock::new();
        let config = ContainerConfig::default().with_workers(4);
        let mut container = GsnContainer::new(config, Arc::new(clock.clone()));
        for i in 0..8 {
            container
                .deploy(mote_descriptor(&format!("mote-{i}"), 100))
                .unwrap();
        }
        clock.advance(gsn_types::Duration::from_secs(1));
        let report = container.step();
        assert_eq!(report.local_arrivals, 80);
        assert_eq!(report.outputs, 80);
        assert_eq!(report.errors, 0);

        let status = container.status();
        assert_eq!(status.workers, 4);
        // The step barrier waits for every shard's result; the pool's completion counter
        // ticks just after the result is sent, so it may trail by a hair.
        let (submitted, completed) = status.pool_jobs.unwrap();
        assert!(submitted > 0);
        assert!(completed <= submitted);
        assert!(status.render().contains("step loop: 4 workers"));
    }

    #[test]
    fn silence_is_counted_in_the_report_and_status() {
        let (mut container, clock) = standalone();
        // A push channel the application feeds once and then abandons (mote-style
        // generators never fall silent: they synthesise data on every poll).
        let schema = Arc::new(
            gsn_types::StreamSchema::from_pairs(&[("reading", DataType::Double)]).unwrap(),
        );
        let push_factory = Arc::new(gsn_wrappers::PushWrapperFactory::new());
        container.wrapper_registry().deregister("push").unwrap();
        container
            .wrapper_registry()
            .register(Arc::clone(&push_factory) as Arc<dyn gsn_wrappers::WrapperFactory>)
            .unwrap();
        let handle = push_factory.handle("quiet-feed", schema);
        container
            .deploy_xml(
                r#"<virtual-sensor name="quiet">
                     <output-structure><field name="reading" type="double"/></output-structure>
                     <input-stream name="main">
                       <stream-source alias="s" storage-size="1">
                         <address wrapper="push"><predicate key="channel" val="quiet-feed"/></address>
                         <query>select reading from WRAPPER</query>
                       </stream-source>
                       <query>select * from s</query>
                     </input-stream>
                   </virtual-sensor>"#,
            )
            .unwrap();
        handle
            .push_values(vec![Value::Double(1.0)], Timestamp(100))
            .unwrap();
        clock.advance(gsn_types::Duration::from_millis(500));
        let report = container.step();
        assert_eq!(report.outputs, 1);
        assert_eq!(report.silence_events, 0);
        // No data for longer than the 30 s silence threshold: one silence event,
        // reported once per episode.
        clock.advance(gsn_types::Duration::from_secs(31));
        let report = container.step();
        assert_eq!(report.silence_events, 1);
        assert_eq!(container.step().silence_events, 0);
        let status = container.status();
        assert_eq!(status.sensors[0].silence_episodes, 1);
        assert!(status.render().contains("silence episode"));
    }

    #[test]
    fn duplicate_and_unknown_deployments() {
        let (mut container, _clock) = standalone();
        container.deploy(mote_descriptor("dup", 100)).unwrap();
        assert!(container.deploy(mote_descriptor("dup", 100)).is_err());
        assert!(container.undeploy("nosuch").is_err());
        container.undeploy("dup").unwrap();
        assert!(container.sensor_names().is_empty());
        assert!(container.storage().table_names().is_empty());
        // Redeployment after undeploy works.
        container.deploy(mote_descriptor("dup", 100)).unwrap();
    }

    #[test]
    fn deploy_from_xml_text() {
        let (mut container, clock) = standalone();
        let xml = r#"<virtual-sensor name="xml-sensor">
          <output-structure><field name="light" type="double"/></output-structure>
          <input-stream name="main">
            <stream-source alias="s" storage-size="5">
              <address wrapper="mote"><predicate key="interval" val="200"/></address>
              <query>select avg(light) as light from WRAPPER</query>
            </stream-source>
            <query>select * from s</query>
          </input-stream>
        </virtual-sensor>"#;
        container.deploy_xml(xml).unwrap();
        clock.advance(gsn_types::Duration::from_secs(1));
        let report = container.step();
        assert_eq!(report.outputs, 5);
        assert!(container.deploy_xml("<broken").is_err());
    }

    #[test]
    fn subscriptions_receive_outputs() {
        let (mut container, clock) = standalone();
        container.deploy(mote_descriptor("room-temp", 250)).unwrap();
        let (_id, rx) = container.subscribe("room-temp").unwrap();
        assert!(container.subscribe("nosuch").is_err());
        clock.advance(gsn_types::Duration::from_secs(1));
        container.step();
        let notifications: Vec<Notification> = rx.try_iter().collect();
        assert_eq!(notifications.len(), 4);
        assert!(notifications[0].element.value("AVG_TEMP").is_some());
    }

    #[test]
    fn registered_queries_run_per_output() {
        let (mut container, clock) = standalone();
        container.deploy(mote_descriptor("room-temp", 500)).unwrap();
        for i in 0..10 {
            container
                .register_query(
                    &format!("client-{i}"),
                    "select avg(avg_temp) from room_temp where avg_temp > 0",
                    WindowSpec::Count(50),
                    None,
                )
                .unwrap();
        }
        assert_eq!(container.registered_query_count(), 10);
        clock.advance(gsn_types::Duration::from_secs(1));
        let report = container.step();
        assert_eq!(report.outputs, 2);
        assert_eq!(report.client_query_evaluations, 20);
        let id = container
            .register_query(
                "late",
                "select * from room_temp",
                WindowSpec::Count(1),
                None,
            )
            .unwrap();
        container.deregister_query(id).unwrap();
        assert_eq!(container.registered_query_count(), 10);
    }

    #[test]
    fn query_cursor_streams_in_batches_and_tracks_counters() {
        let (mut container, clock) = standalone();
        container.deploy(mote_descriptor("room-temp", 100)).unwrap();
        clock.advance(gsn_types::Duration::from_secs(1));
        container.step();

        // Batched pulls drain the same rows query() materialises.
        let reference = container.query("select avg_temp from room_temp").unwrap();
        assert_eq!(reference.row_count(), 10);
        let mut cursor = container
            .query_cursor("select avg_temp from room_temp")
            .unwrap();
        assert_eq!(cursor.columns().len(), 1);
        let first = cursor.next_batch(4).unwrap();
        assert_eq!(first.row_count(), 4);
        assert!(!cursor.is_done());
        let rest = cursor.collect().unwrap();
        assert_eq!(rest.row_count(), 6);
        assert!(cursor.is_done());
        assert_eq!(cursor.rows_returned(), 10);
        let mut all: Vec<Vec<Value>> = first.rows().to_vec();
        all.extend(rest.rows().to_vec());
        assert_eq!(all, reference.rows());

        // LIMIT early-exits: only the limited prefix of the table is scanned.
        let mut limited = container
            .query_cursor("select avg_temp from room_temp limit 2")
            .unwrap();
        assert_eq!(limited.next_batch(10).unwrap().row_count(), 2);
        assert!(limited.is_done());
        assert_eq!(limited.rows_scanned(), 2, "{limited:?}");

        // The engine's scanned/returned counters surface in the status report, and
        // dropping a cursor folds its telemetry in so streaming executions count too.
        let scanned_before_drop = container.status().engine.rows_scanned;
        drop(limited);
        let status = container.status();
        assert_eq!(status.engine.rows_scanned, scanned_before_drop + 2);
        assert!(status.render().contains("query executor:"));

        // Access control applies to cursors like it does to query().
        container
            .access_control()
            .restrict_sensor("room_temp", vec![Principal::named("alice")]);
        assert!(container.query_cursor("select * from room_temp").is_err());
        assert!(container
            .query_cursor_as(&Principal::named("alice"), "select * from room_temp")
            .is_ok());
    }

    #[test]
    fn access_control_gates_adhoc_queries() {
        let (mut container, clock) = standalone();
        container
            .deploy(mote_descriptor("private-temp", 100))
            .unwrap();
        clock.advance(gsn_types::Duration::from_millis(500));
        container.step();
        container
            .access_control()
            .restrict_sensor("private_temp", vec![Principal::named("alice")]);
        assert!(container.query("select * from private_temp").is_err());
        assert!(container
            .query_as(&Principal::named("alice"), "select * from private_temp")
            .is_ok());
        assert!(container
            .query_as(&Principal::named("eve"), "select * from private_temp")
            .is_err());
    }

    #[test]
    fn explain_and_bad_queries() {
        let (mut container, _clock) = standalone();
        container.deploy(mote_descriptor("room-temp", 100)).unwrap();
        let plan = container
            .explain("select avg(avg_temp) from room_temp")
            .unwrap();
        assert!(plan.contains("Aggregate"));
        assert!(container.query("select * from missing_table").is_err());
        assert!(container.query("not sql").is_err());
    }

    #[test]
    fn max_virtual_sensors_is_enforced() {
        let clock = SimulatedClock::new();
        let config = ContainerConfig {
            max_virtual_sensors: 1,
            ..Default::default()
        };
        let mut container = GsnContainer::new(config, Arc::new(clock));
        container.deploy(mote_descriptor("one", 100)).unwrap();
        let err = container.deploy(mote_descriptor("two", 100)).unwrap_err();
        assert_eq!(err.category(), "resource-exhausted");
    }

    #[test]
    fn remote_sources_require_a_directory() {
        let (mut container, _clock) = standalone();
        let descriptor = VirtualSensorDescriptor::builder("follower")
            .unwrap()
            .output_field("v", DataType::Double)
            .unwrap()
            .input_stream(InputStreamSpec::new("main", "select * from r").with_source(
                StreamSourceSpec::new(
                    "r",
                    AddressSpec::new("remote").with_predicate("type", "temperature"),
                    "select avg(v) as v from WRAPPER",
                ),
            ))
            .build()
            .unwrap();
        let err = container.deploy(descriptor).unwrap_err();
        assert_eq!(err.category(), "config");
        // Failed deployment leaves nothing behind.
        assert!(container.sensor_names().is_empty());
        assert!(container.storage().table_names().is_empty());
    }
}
