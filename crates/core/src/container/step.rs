//! The step loop: network intake, the sharded sensor pipelines, storage commit and
//! maintenance (see the threading model in the parent module's docs).

use std::collections::BTreeMap;
use std::sync::Arc;

use gsn_sql::Relation;
use gsn_telemetry::{SpanId, Stopwatch};
use gsn_types::{StreamElement, Timestamp, VirtualSensorName};

use super::{GsnContainer, PipelineRuntime, SensorView};
use crate::peer::{Kind, Request};
use crate::pool::WorkerPool;
use crate::query::{shard_index, ClientQueryResult};
use crate::sensor::SourceRef;

/// What one call to [`GsnContainer::step`] did — the per-tick telemetry the benchmark
/// harnesses aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepReport {
    /// Stream elements that arrived from local wrappers.
    pub local_arrivals: u64,
    /// Stream elements that arrived from remote deliveries.
    pub remote_arrivals: u64,
    /// Output stream elements produced by virtual sensors.
    pub outputs: u64,
    /// Registered client-query evaluations performed.
    pub client_query_evaluations: u64,
    /// Pipeline errors.
    pub errors: u64,
    /// Sources newly detected silent (no data within the quality policy's threshold).
    pub silence_events: u64,
    /// Total wall-clock time spent inside sensor pipelines during this step, microseconds.
    pub processing_micros: u64,
}

impl StepReport {
    /// Adds another report's counters into this one.
    pub fn absorb(&mut self, other: StepReport) {
        self.local_arrivals += other.local_arrivals;
        self.remote_arrivals += other.remote_arrivals;
        self.outputs += other.outputs;
        self.client_query_evaluations += other.client_query_evaluations;
        self.errors += other.errors;
        self.silence_events += other.silence_events;
        self.processing_micros += other.processing_micros;
    }
}

/// What one shard's pipeline pass produced: its slice of the step report plus loop-back
/// deliveries whose consumer lives in another shard (processed sequentially after the
/// barrier, in shard order, so the result is deterministic).
#[derive(Default)]
pub(super) struct ShardOutcome {
    pub(super) report: StepReport,
    pub(super) deferred: Vec<(VirtualSensorName, SourceRef, StreamElement)>,
}

/// Stable shard assignment for sensors: the same normalised FNV-1a hash
/// ([`shard_index`]) the query repository partitions by, so a sensor's worker shard and
/// the partition holding the queries over its output table coincide.
fn sensor_shard(name: &VirtualSensorName, shards: usize) -> usize {
    shard_index(name.as_str(), shards)
}

/// Runs one sensor's full pipeline pass: poll local wrappers, process each arrival,
/// check for silent sources.
fn pipeline_sensor(
    runtime: &PipelineRuntime,
    view: &SensorView,
    name: &VirtualSensorName,
    now: Timestamp,
    out: &mut ShardOutcome,
) {
    let Some(sensor) = view.get(name) else {
        return;
    };
    let poll_span = runtime.trace.begin("wrapper.poll", SpanId::NONE);
    let arrivals = sensor.lock().poll_local_sources(now);
    runtime
        .trace
        .finish_with(poll_span, || format!("{name}: {} arrivals", arrivals.len()));
    for (source_ref, element) in arrivals {
        out.report.local_arrivals += 1;
        process_one(runtime, view, name, source_ref, element, now, out);
    }
    // Stream-quality: silence detection.
    if let Some(sensor) = view.get(name) {
        let newly_silent = sensor.lock().check_silence(now);
        out.report.silence_events += newly_silent.len() as u64;
    }
}

/// Processes a single element arrival for one sensor/source and fans out the result.
///
/// The sensor's mutex is released before the fan-out, so loop-back recursion into a
/// consumer sensor never holds two sensor locks at once.
fn process_one(
    runtime: &PipelineRuntime,
    view: &SensorView,
    name: &VirtualSensorName,
    source_ref: SourceRef,
    element: StreamElement,
    now: Timestamp,
    out: &mut ShardOutcome,
) {
    let Some(sensor) = view.get(name) else {
        return;
    };
    // One root span per element arrival; the pipeline/query/notification children hang
    // off it, reconstructing the paper's wrapper → pipeline → storage → notification
    // flow for a single element.
    let element_span = runtime.trace.begin("element", SpanId::NONE);
    let pipeline_span = runtime.trace.begin("pipeline", element_span.id());
    let (outcome, elapsed_micros, output_table) = {
        let mut guard = sensor.lock();
        let before = guard.stats().total_processing_micros;
        let outcome = guard.process_arrival(source_ref, element, now, &runtime.storage);
        let elapsed = guard.stats().total_processing_micros - before;
        (outcome, elapsed, guard.output_table().to_owned())
    };
    runtime
        .trace
        .finish_with(pipeline_span, || format!("{name} -> {output_table}"));
    out.report.processing_micros += elapsed_micros;
    match outcome {
        Ok(Some(output)) => {
            out.report.outputs += 1;
            // Registered client queries over this sensor's output.
            let query_span = runtime.trace.begin("query.evaluate", element_span.id());
            let results =
                runtime
                    .query_manager
                    .evaluate_for_table(&output_table, &runtime.storage, now);
            out.report.client_query_evaluations += results.len() as u64;
            runtime.trace.finish_with(query_span, || {
                format!("{}: {} evaluations", output_table, results.len())
            });
            deliver_client_results(runtime, results, now);
            // Local + remote notifications.
            let notify_span = runtime.trace.begin("notification", element_span.id());
            runtime.notifications.lock().notify(
                name.as_str(),
                &output,
                now,
                runtime.network.as_deref(),
            );
            runtime
                .trace
                .finish_with(notify_span, || name.as_str().to_owned());
            // Local loop-back remote routes (a sensor on this node consuming another
            // local sensor through the `remote` wrapper).  Snapshot semantics: the
            // routes as of this element's delivery; a concurrent (un)deploy publishes
            // a new generation that later elements see.
            let local_routes = runtime.remote_routes.load();
            for (consumer, consumer_ref) in local_routes.get(name.as_str()).into_iter().flatten() {
                if consumer == name {
                    continue;
                }
                if view.contains_key(consumer) {
                    out.report.remote_arrivals += 1;
                    deliver_remote(
                        runtime,
                        view,
                        consumer,
                        *consumer_ref,
                        output.clone(),
                        now,
                        out,
                    );
                } else {
                    // The consumer lives in another shard (or was undeployed): hand the
                    // delivery back for the sequential post-barrier phase.
                    out.deferred
                        .push((consumer.clone(), *consumer_ref, output.clone()));
                }
            }
        }
        Ok(None) => {}
        Err(_) => out.report.errors += 1,
    }
    runtime
        .trace
        .finish_with(element_span, || name.as_str().to_owned());
}

/// Handles one element delivered for a remote route (a local consumer of a remote or
/// loop-back producer).
pub(super) fn deliver_remote(
    runtime: &PipelineRuntime,
    view: &SensorView,
    consumer: &VirtualSensorName,
    source_ref: SourceRef,
    element: StreamElement,
    now: Timestamp,
    out: &mut ShardOutcome,
) {
    let Some(sensor) = view.get(consumer) else {
        return;
    };
    if sensor
        .lock()
        .ensure_remote_schema(source_ref, &element, &runtime.storage)
        .is_err()
    {
        out.report.errors += 1;
        return;
    }
    process_one(runtime, view, consumer, source_ref, element, now, out);
}

/// Routes client-query results to their subscribers (modelled as notifications on the
/// client's name; the extensible channel architecture of the notification manager lets
/// applications attach whatever transport they need).
fn deliver_client_results(
    runtime: &PipelineRuntime,
    results: Vec<ClientQueryResult>,
    now: Timestamp,
) {
    for result in results {
        if result.relation.is_empty() {
            continue;
        }
        if let Ok(Some(element)) = result
            .relation
            .to_stream_element(&Arc::new(relation_schema(&result.relation)), now)
        {
            runtime.notifications.lock().notify(
                &format!("client:{}", result.client),
                &element,
                now,
                None,
            );
        }
    }
}

impl GsnContainer {
    /// Advances the container to the clock's current time: drains the network, polls local
    /// wrappers, runs pipelines (sharded across the worker pool when `workers > 1`),
    /// evaluates registered queries, delivers notifications and group-commits the WALs.
    pub fn step(&mut self) -> StepReport {
        let now = self.clock.now();
        let mut report = StepReport::default();
        let step_watch = Stopwatch::start();
        let step_span = self.runtime.trace.begin("step", SpanId::NONE);

        // 1. Network intake (remote deliveries, peer requests and replies) — sequential.
        let drain_watch = Stopwatch::start();
        let drain_span = self.runtime.trace.begin("step.network", step_span.id());
        report.absorb(self.drain_network(now));

        // 1b. Reap idle remote cursors; then the peer-request lifecycle: re-send
        // stalled requests, time out abandoned ones.
        self.reap_idle_cursors(now);
        self.peers.tick(now);
        // Mesh federation: one anti-entropy gossip round every few steps, and
        // advancement of any scatter-gather queries this node coordinates.
        self.run_mesh_gossip(now);
        self.advance_federated_queries(now);
        // Requests with no outside taker: finished trace collections assemble into
        // the trace store; acknowledged, refused or timed-out subscriptions just end.
        for (request, _) in self.peers.take_finished(Kind::TraceCollect) {
            if let Request::TraceCollect(collect) = request {
                self.retain_trace(collect.assemble());
            }
        }
        self.peers.take_finished(Kind::Subscription);
        self.runtime.trace.finish(drain_span);
        self.telemetry
            .network_drain_micros
            .record(drain_watch.elapsed_micros());

        // 2. Local wrapper polling + pipeline execution, sharded across the pool.
        let pipeline_watch = Stopwatch::start();
        let pipeline_span = self.runtime.trace.begin("step.pipelines", step_span.id());
        report.absorb(self.run_sensor_pipelines(now));
        self.runtime.trace.finish(pipeline_span);
        self.telemetry
            .pipeline_micros
            .record(pipeline_watch.elapsed_micros());

        // 3. Storage housekeeping: retention pruning, then one batched WAL fsync for
        // everything ingested this step (group commit).
        let commit_watch = Stopwatch::start();
        let commit_span = self.runtime.trace.begin("step.storage", step_span.id());
        self.runtime.storage.prune_all(now);
        if self.runtime.storage.group_commit().is_err() {
            report.errors += 1;
        }
        self.runtime.trace.finish(commit_span);
        self.telemetry
            .commit_micros
            .record(commit_watch.elapsed_micros());

        // 4. Periodic storage maintenance: reclaim file space held by pruned rows
        // (head-segment deletion, boundary compaction).  Sharded containers run it on
        // the worker pool so a large compaction never stalls the step; overlapping
        // passes coalesce inside the manager.  Reclamation only changes the physical
        // layout — queries re-filter at read time — so workers=1 and workers=N stay
        // output-identical.
        self.steps += 1;
        let interval = self.config.maintenance_interval_steps;
        if interval > 0 && self.steps.is_multiple_of(interval) {
            match &self.pool {
                Some(pool) => {
                    let storage = Arc::clone(&self.runtime.storage);
                    if pool
                        .submit(move || {
                            storage.maintain(now);
                        })
                        .is_err()
                    {
                        report.errors += 1;
                    }
                }
                None => {
                    self.runtime.storage.maintain(now);
                }
            }
        }
        self.runtime.trace.finish(step_span);
        self.telemetry.steps_total.inc();
        self.telemetry
            .step_micros
            .record(step_watch.elapsed_micros());
        self.telemetry.absorb_report(&report);
        report
    }

    /// Runs the storage maintenance pass immediately on the caller (pruning plus
    /// segment reclamation), returning what it freed.  The step loop schedules this
    /// automatically every [`ContainerConfig::maintenance_interval_steps`](crate::ContainerConfig::maintenance_interval_steps) steps; an
    /// explicit call is useful before reading footprint statistics.
    pub fn maintain_storage(&self) -> gsn_storage::MaintenanceReport {
        self.runtime.storage.maintain(self.clock.now())
    }

    /// Runs every sensor's pipeline pass for this step: inline in name order when
    /// sequential, sharded across the worker pool otherwise (see the module docs).
    fn run_sensor_pipelines(&mut self, now: Timestamp) -> StepReport {
        let shard_count = self.pool.as_ref().map(WorkerPool::size).unwrap_or(1);
        if shard_count <= 1 || self.sensors.len() <= 1 {
            // Sequential semantics: identical to the pre-sharding loop. The full view
            // means loop-back deliveries recurse inline and nothing is deferred.
            let mut out = ShardOutcome::default();
            let names: Vec<VirtualSensorName> = self.sensors.keys().cloned().collect();
            for name in &names {
                pipeline_sensor(&self.runtime, &self.sensors, name, now, &mut out);
            }
            debug_assert!(out.deferred.is_empty());
            return out.report;
        }

        let mut shards: Vec<SensorView> = (0..shard_count).map(|_| BTreeMap::new()).collect();
        for (name, sensor) in &self.sensors {
            shards[sensor_shard(name, shard_count)].insert(name.clone(), Arc::clone(sensor));
        }
        let pool = self.pool.as_ref().expect("worker pool present");
        let (tx, rx) = crossbeam::channel::unbounded::<(usize, ShardOutcome)>();
        let mut submitted = 0usize;
        let mut report = StepReport::default();
        for (idx, shard) in shards.into_iter().enumerate() {
            if shard.is_empty() {
                continue;
            }
            let runtime = Arc::clone(&self.runtime);
            let tx = tx.clone();
            let job = move || {
                let mut out = ShardOutcome::default();
                let names: Vec<VirtualSensorName> = shard.keys().cloned().collect();
                for name in &names {
                    pipeline_sensor(&runtime, &shard, name, now, &mut out);
                }
                // A failed send means the barrier stopped waiting; it counts the
                // missing shard as an error.
                tx.send((idx, out)).ok();
            };
            match pool.submit(job) {
                Ok(()) => submitted += 1,
                // Unreachable while the container is alive (the pool only shuts down on
                // drop); surface it rather than losing the shard silently.
                Err(_) => report.errors += 1,
            }
        }
        drop(tx);

        // Barrier: collect every shard's outcome, then merge in shard-index order so the
        // aggregate report and the deferred-delivery order are deterministic.  A shard
        // whose job panicked sends nothing (its sender drops with the unwound job); the
        // channel disconnects once every job finished, and the deficit is an error.
        let mut outcomes: Vec<(usize, ShardOutcome)> = Vec::with_capacity(submitted);
        for _ in 0..submitted {
            match rx.recv() {
                Ok(pair) => outcomes.push(pair),
                Err(_) => break,
            }
        }
        report.errors += (submitted - outcomes.len()) as u64;
        outcomes.sort_by_key(|(idx, _)| *idx);
        let mut deferred = Vec::new();
        for (_, out) in outcomes {
            report.absorb(out.report);
            deferred.extend(out.deferred);
        }

        // Sequential post-barrier phase: cross-shard loop-back deliveries run against
        // the full sensor map, so nested fan-out recurses inline.
        let post_barrier_watch = Stopwatch::start();
        for (consumer, source_ref, element) in deferred {
            report.remote_arrivals += 1;
            let mut out = ShardOutcome::default();
            deliver_remote(
                &self.runtime,
                &self.sensors,
                &consumer,
                source_ref,
                element,
                now,
                &mut out,
            );
            debug_assert!(out.deferred.is_empty());
            report.absorb(out.report);
        }
        self.telemetry
            .post_barrier_micros
            .record(post_barrier_watch.elapsed_micros());
        report
    }
}

/// Derives a schema from a relation's column names (for client-result notifications).
fn relation_schema(relation: &Relation) -> gsn_types::StreamSchema {
    let mut schema = gsn_types::StreamSchema::empty();
    for (i, column) in relation.columns().iter().enumerate() {
        let name = if column.name.eq_ignore_ascii_case("pk")
            || column.name.eq_ignore_ascii_case("timed")
        {
            format!("{}_{}", column.name, i)
        } else {
            column.name.clone()
        };
        let field = gsn_types::FieldSpec::new(
            &name,
            column.data_type.unwrap_or(gsn_types::DataType::Varchar),
        );
        if let Ok(field) = field {
            let _ = schema.push(field);
        }
    }
    schema
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor::VirtualSensor;

    #[test]
    fn shard_assignment_is_stable_and_total() {
        let names: Vec<VirtualSensorName> = (0..64)
            .map(|i| VirtualSensorName::new(&format!("sensor-{i}")).unwrap())
            .collect();
        for shards in [1usize, 2, 4, 8] {
            for name in &names {
                let a = sensor_shard(name, shards);
                let b = sensor_shard(name, shards);
                assert_eq!(a, b);
                assert!(a < shards);
            }
        }
        // All shards get some work on a reasonably sized population.
        let hit: std::collections::HashSet<usize> =
            names.iter().map(|n| sensor_shard(n, 4)).collect();
        assert_eq!(hit.len(), 4);
        // Sensors and their output tables co-locate: the query partition of a sensor's
        // output table is the sensor's own worker shard.
        for name in &names {
            let table = VirtualSensor::output_table_name(name);
            assert_eq!(sensor_shard(name, 4), shard_index(&table, 4));
        }
    }
}
