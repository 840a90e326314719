//! The traced twin of `GsnContainer::step` for one local node: the same public
//! layer calls in the same order (poll local wrappers, run each arrival's
//! pipeline, evaluate registered queries, deliver client results, notify,
//! prune, group-commit, and every few steps maintain), each under its own span.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use gsn::container::{NotificationManager, QueryRepository, VirtualSensor};
use gsn::storage::StorageManager;
use gsn::types::{FieldSpec, GsnError, GsnResult, StreamSchema, Timestamp, VirtualSensorName};
use gsn::wrappers::WrapperRegistry;
use gsn::ContainerConfig;

use crate::trace::Tracer;

/// Exact insert totals the storage layer reports, split by backend and size.
#[derive(Debug, Default)]
pub struct InsertTotals(pub BTreeMap<&'static str, (f64, u64)>);

impl InsertTotals {
    fn add(&mut self, class: &'static str, micros: u64, inserts: u64) {
        let e = self.0.entry(class).or_default();
        e.0 += micros as f64;
        e.1 += inserts;
    }

    pub fn mean_us(&self, class: &str) -> f64 {
        self.0
            .get(class)
            .map_or(0.0, |(sum, n)| if *n == 0 { 0.0 } else { sum / *n as f64 })
    }
}

/// What the composed node counted while it ran.
#[derive(Debug, Default)]
pub struct NodeCounts {
    pub arrivals: u64,
    pub elements_bytes: u64,
    pub outputs: u64,
    pub output_bytes: u64,
    pub errors: u64,
    pub evaluations: u64,
    pub nonempty_results: u64,
    pub notified: u64,
}

pub struct ComposedNode {
    pub storage: StorageManager,
    registry: WrapperRegistry,
    pub queries: QueryRepository,
    pub notifications: NotificationManager,
    sensors: BTreeMap<VirtualSensorName, (VirtualSensor, bool)>,
    maintenance_interval: u64,
    steps: u64,
    pub counts: NodeCounts,
    pub inserts: InsertTotals,
}

impl ComposedNode {
    /// Builds the node's layers exactly as `GsnContainer::new` configures them.
    pub fn new(config: &ContainerConfig) -> ComposedNode {
        ComposedNode {
            storage: StorageManager::with_options(config.storage_options()),
            registry: WrapperRegistry::with_builtins(),
            queries: QueryRepository::with_partitions(
                config.workers.max(1),
                config.query_cache_enabled,
                config.incremental_queries,
            ),
            notifications: NotificationManager::new(
                config.node_id,
                config.disconnect_buffer_capacity,
            ),
            sensors: BTreeMap::new(),
            maintenance_interval: config.maintenance_interval_steps,
            steps: 0,
            counts: NodeCounts::default(),
            inserts: InsertTotals::default(),
        }
    }

    /// Parses and deploys one descriptor; `large` names the size class of the
    /// sensor's elements.
    pub fn deploy_xml(
        &mut self,
        xml: &str,
        large: bool,
        now: Timestamp,
        tracer: &mut Tracer,
    ) -> GsnResult<VirtualSensorName> {
        let descriptor =
            tracer.span("deploy.parse", |_| gsn::VirtualSensorDescriptor::parse(xml))?;
        let name = descriptor.name.clone();
        let sensor = tracer.span("deploy.sensor", |_| {
            VirtualSensor::deploy(
                descriptor,
                &self.registry,
                &self.storage,
                |_| {
                    Err(GsnError::not_found(
                        "no directory: remote sources unavailable",
                    ))
                },
                now,
            )
        })?;
        self.sensors.insert(name.clone(), (sensor, large));
        Ok(name)
    }

    pub fn output_table(&self, name: &VirtualSensorName) -> String {
        VirtualSensor::output_table_name(name)
    }

    /// One step at `now`, in `GsnContainer::step`'s order.
    pub fn step(&mut self, now: Timestamp, tracer: &mut Tracer) {
        let step = tracer.begin("step");
        let names: Vec<VirtualSensorName> = self.sensors.keys().cloned().collect();
        for name in &names {
            let arrivals = tracer.span("wrappers.poll", |_| {
                self.sensors
                    .get_mut(name)
                    .expect("deployed")
                    .0
                    .poll_local_sources(now)
            });
            for (source, element) in arrivals {
                self.counts.arrivals += 1;
                self.counts.elements_bytes += element.size_bytes() as u64;
                self.process(name, source, element, now, tracer);
            }
            // Silence detection stays in the step's self time: a span per
            // sensor per step would cost more than the check.
            self.sensors
                .get_mut(name)
                .expect("deployed")
                .0
                .check_silence(now);
        }
        tracer.span("storage.prune", |_| self.storage.prune_all(now));
        if tracer
            .span("storage.commit", |_| self.storage.group_commit())
            .is_err()
        {
            self.counts.errors += 1;
        }
        self.steps += 1;
        if self.maintenance_interval > 0 && self.steps.is_multiple_of(self.maintenance_interval) {
            tracer.span("storage.maintain", |_| self.storage.maintain(now));
        }
        tracer.end(step);
    }

    fn process(
        &mut self,
        name: &VirtualSensorName,
        source: (usize, usize),
        element: gsn::StreamElement,
        now: Timestamp,
        tracer: &mut Tracer,
    ) {
        let telemetry = self.storage.telemetry();
        let (all_sum, all_n) = (
            telemetry.insert_micros.sum(),
            telemetry.insert_micros.count(),
        );
        let (wal_sum, wal_n) = (
            telemetry.wal_append_micros.sum(),
            telemetry.wal_append_micros.count(),
        );
        let pipeline = tracer.begin("pipeline");
        let (sensor, large) = self.sensors.get_mut(name).expect("deployed");
        let large = *large;
        let outcome = sensor.process_arrival(source, element, now, &self.storage);
        // The storage layer's own exact-sum histograms time the inserts made
        // inside the pipeline call; they become derived children of its span.
        let telemetry = self.storage.telemetry();
        let durable_us = telemetry.wal_append_micros.sum() - wal_sum;
        let durable_n = telemetry.wal_append_micros.count() - wal_n;
        let memory_us = telemetry.insert_micros.sum() - all_sum - durable_us;
        let memory_n = telemetry.insert_micros.count() - all_n - durable_n;
        if memory_n > 0 {
            tracer.derived_child("storage.insert", Duration::from_micros(memory_us));
            self.inserts.add(
                if large {
                    "memory_large"
                } else {
                    "memory_small"
                },
                memory_us,
                memory_n,
            );
        }
        if durable_n > 0 {
            tracer.derived_child("storage.insert", Duration::from_micros(durable_us));
            self.inserts.add(
                if large {
                    "durable_large"
                } else {
                    "durable_small"
                },
                durable_us,
                durable_n,
            );
        }
        tracer.end(pipeline);
        let output = match outcome {
            Ok(Some(output)) => output,
            Ok(None) => return,
            Err(_) => {
                self.counts.errors += 1;
                return;
            }
        };
        self.counts.outputs += 1;
        self.counts.output_bytes += output.size_bytes() as u64;
        let table = self.output_table(name);
        let results = tracer.span("query.evaluate", |_| {
            self.queries.evaluate_for_table(&table, &self.storage, now)
        });
        self.counts.evaluations += results.len() as u64;
        tracer.span("notify.client_results", |_| {
            for result in results {
                if result.relation.is_empty() {
                    continue;
                }
                self.counts.nonempty_results += 1;
                let schema = Arc::new(relation_schema(&result.relation));
                if let Ok(Some(element)) = result.relation.to_stream_element(&schema, now) {
                    self.notifications.notify(
                        &format!("client:{}", result.client),
                        &element,
                        now,
                        None,
                    );
                }
            }
        });
        tracer.span("notify", |_| {
            self.notifications.notify(name.as_str(), &output, now, None)
        });
        self.counts.notified += 1;
    }
}

/// The stream schema of a client result, named as the container names it.
fn relation_schema(relation: &gsn::sql::Relation) -> StreamSchema {
    let mut schema = StreamSchema::empty();
    for (i, column) in relation.columns().iter().enumerate() {
        let name = if column.name.eq_ignore_ascii_case("pk")
            || column.name.eq_ignore_ascii_case("timed")
        {
            format!("{}_{}", column.name, i)
        } else {
            column.name.clone()
        };
        let data_type = column.data_type.unwrap_or(gsn::types::DataType::Varchar);
        if let Ok(field) = FieldSpec::new(&name, data_type) {
            let _ = schema.push(field);
        }
    }
    schema
}
