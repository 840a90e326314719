//! `mesh_federated` — the only workload that runs `gsn-network` and
//! `gsn-federation`: 4 containers on one lossless simulated LAN (1 ms one-way),
//! each holding a static shard of the same sensor table.  One coordinator runs
//! closed-loop federated queries: three decomposable aggregates (only
//! partial-aggregate frames travel) to one filtered row-ship query, so the
//! median falls inside the aggregate class and the p99 inside the row-ship one.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gsn::network::{decode, encode, LinkSpec, Message};
use gsn::sql::Relation;
use gsn::storage::WindowSpec;
use gsn::types::{DataType, NodeId, StreamElement, StreamSchema, Timestamp, Value};
use gsn::xml::{AddressSpec, InputStreamSpec, StreamSourceSpec};
use gsn::{ContainerConfig, Mesh, VirtualSensorDescriptor};

use crate::ingest::self_time_report;
use crate::ingest::write_spans;
use crate::layers::Layers;
use crate::trace::Tracer;
use crate::util::{Json, Rng, Samples};
use crate::{Outcome, Settings, Traced};

const NODES: usize = 4;
const SHARD_ROWS: usize = 2_000;
const SENSOR: &str = "readings";
const TICK_MS: i64 = 1;
/// A query that has not completed after this many ticks counts as failed.
const MAX_TICKS: usize = 2_000;
const AGG_SQL: &str = "select count(*) as n, sum(reading) as s, min(reading) as lo, \
     max(reading) as hi from readings";
/// Row shipping: roughly 1 row in 50 passes the filter.
const SHIP_SQL: &str = "select reading from readings where reading < 20";

struct Plan {
    /// Integer readings per shard, in 0..1000.
    shards: Vec<Vec<i64>>,
    xml: String,
    schema: Arc<StreamSchema>,
}

impl Plan {
    fn new(s: &Settings) -> Plan {
        let mut rng = Rng::new(s.seed);
        let rows = if s.smoke { 200 } else { SHARD_ROWS };
        let shards = (0..NODES)
            .map(|_| (0..rows).map(|_| rng.range(0, 999) as i64).collect())
            .collect();
        let descriptor = descriptor();
        Plan {
            shards,
            schema: Arc::new(descriptor.output_structure.clone()),
            xml: descriptor.to_xml(),
        }
    }

    fn all(&self) -> impl Iterator<Item = i64> + '_ {
        self.shards.iter().flatten().copied()
    }

    /// True when `result` answers `sql` over the union of the shards.
    fn check(&self, aggregate: bool, result: &Relation) -> bool {
        let rows = result.rows();
        if aggregate {
            let count = self.all().count() as i64;
            let sum: i64 = self.all().sum();
            let lo = self.all().min();
            let hi = self.all().max();
            rows.len() == 1
                && rows[0][0].as_integer() == Some(count)
                && rows[0][1].as_integer() == Some(sum)
                && rows[0][2].as_integer() == lo
                && rows[0][3].as_integer() == hi
        } else {
            let mut expect: Vec<i64> = self.all().filter(|r| *r < 20).collect();
            let mut got: Vec<i64> = rows.iter().filter_map(|r| r[0].as_integer()).collect();
            expect.sort_unstable();
            got.sort_unstable();
            got == expect
        }
    }

    fn env(&self) -> Json {
        Json::obj()
            .int("containers", NODES as u64)
            .int("rows_per_shard", self.shards[0].len() as u64)
            .str("links", "lossless, 1 ms one-way, 100 MB/s (LinkSpec::lan)")
            .int("tick_ms", TICK_MS as u64)
            .str("queries", "3 partial aggregates : 1 row-ship, cycled")
            .str("load", "closed loop, one coordinator")
            .str("flush_policy", "in-memory storage")
            .int("workers", 1)
    }
}

fn descriptor() -> VirtualSensorDescriptor {
    // The wrapper never fires during a run: the shard is inserted directly.
    let address = AddressSpec::new("mote").with_predicate("interval", "1000000000");
    VirtualSensorDescriptor::builder(SENSOR)
        .expect("valid sensor name")
        .metadata("type", "reading")
        .output_field("reading", DataType::Integer)
        .expect("valid field")
        .permanent_storage(true)
        .input_stream(
            InputStreamSpec::new("main", "select * from src").with_source(
                StreamSourceSpec::new("src", address, "select mote_id as reading from WRAPPER")
                    .with_window(WindowSpec::Count(1)),
            ),
        )
        .build()
        .expect("valid descriptor")
}

/// Joins the mesh, deploys and fills every shard, and gossips until every
/// replica of the directory agrees.
fn build(plan: &Plan) -> (Mesh, Vec<NodeId>) {
    let mut mesh = Mesh::new();
    let ids: Vec<NodeId> = (0..NODES)
        .map(|i| {
            let config = ContainerConfig::named(NodeId::new(i as u64 + 1), &format!("shard-{i}"));
            mesh.add_node_with_config(config).expect("join mesh")
        })
        .collect();
    mesh.set_all_links(LinkSpec::lan());
    for (i, id) in ids.iter().enumerate() {
        let node = mesh.node_mut(*id).expect("member");
        node.deploy_xml(&plan.xml).expect("deploy shard");
        let storage = Arc::clone(node.storage());
        for (j, reading) in plan.shards[i].iter().enumerate() {
            let element = StreamElement::new(
                Arc::clone(&plan.schema),
                vec![Value::Integer(*reading)],
                Timestamp(j as i64 + 1),
            )
            .expect("row matches the schema");
            storage
                .insert(SENSOR, element, Timestamp(j as i64 + 1))
                .expect("shard insert");
        }
    }
    for _ in 0..1_000 {
        if mesh.replicas_converged()
            && ids.iter().all(|id| {
                mesh.node(*id)
                    .map(|n| n.replica_snapshot().len() >= NODES)
                    .unwrap_or(false)
            })
        {
            break;
        }
        mesh.step(gsn::types::Duration::from_millis(TICK_MS));
    }
    (mesh, ids)
}

/// The query mix: every fourth query ships rows, the others aggregate.
fn is_aggregate(i: u64) -> bool {
    i % 4 != 3
}

/// Bytes sent on the simulated network so far.
fn wire_bytes(mesh: &Mesh) -> u64 {
    mesh.network().stats().bytes_sent
}

pub fn run(s: &Settings) -> Outcome {
    let plan = Plan::new(s);
    let mut out = Outcome::default();
    let ((mut mesh, ids), setup_s) = s.set_up(None, || build(&plan));
    out.setup_s = setup_s;
    let coordinator = ids[0];
    let tick = gsn::types::Duration::from_millis(TICK_MS);

    // Warm-up, untimed: one pass of the mix.
    for i in 0..4 {
        let sql = if is_aggregate(i) { AGG_SQL } else { SHIP_SQL };
        let _ = mesh.federated_query(coordinator, sql, tick, MAX_TICKS);
    }
    let mut latency = Samples::default();
    let mut agg = Samples::default();
    let mut ship = Samples::default();
    let bytes_before = wire_bytes(&mesh);
    let frames_before = mesh.network().stats().sent;
    let started = Instant::now();
    while started.elapsed() < s.seconds {
        let aggregate = is_aggregate(out.attempted);
        let sql = if aggregate { AGG_SQL } else { SHIP_SQL };
        out.attempted += 1;
        let t = Instant::now();
        let result = mesh.federated_query(coordinator, sql, tick, MAX_TICKS);
        let took = t.elapsed();
        out.rate.push(1, took);
        let ms = took.as_secs_f64() * 1e3;
        latency.push(ms);
        if aggregate {
            agg.push(ms);
        } else {
            ship.push(ms);
        }
        if !result.map(|r| plan.check(aggregate, &r)).unwrap_or(false) {
            out.failed += 1;
        }
    }
    let queries = out.attempted.max(1);
    let bytes = wire_bytes(&mesh) - bytes_before;
    let frames = mesh.network().stats().sent - frames_before;
    out.check(mesh.network().stats().dropped == 0, || {
        "frames dropped on a lossless network".to_owned()
    });
    out.report = Json::obj()
        .obj_field("fed_query", latency.summary())
        .obj_field("fed_query_aggregate", agg.summary())
        .obj_field("fed_query_row_ship", ship.summary())
        .num("wire_bytes_per_query", bytes as f64 / queries as f64)
        .num("frames_per_query", frames as f64 / queries as f64);
    out.latency = latency;
    out.env = plan.env();
    out
}

pub fn trace(s: &Settings) -> Traced {
    let plan = Plan::new(s);
    let mut out = Traced::default();
    let tick = gsn::types::Duration::from_millis(TICK_MS);

    // Untraced twin for the overhead ratio.
    let (mut mesh, ids) = build(&plan);
    let coordinator = ids[0];
    let mut untraced_busy = Duration::ZERO;
    let mut untraced = 0u64;
    let started = Instant::now();
    while started.elapsed() < s.seconds / 2 {
        let sql = if is_aggregate(untraced) {
            AGG_SQL
        } else {
            SHIP_SQL
        };
        let t = Instant::now();
        let _ = mesh.federated_query(coordinator, sql, tick, MAX_TICKS);
        untraced_busy += t.elapsed();
        untraced += 1;
    }
    drop(mesh);

    // Traced: `Mesh::step` recomposed (advance the clock, step every
    // container twice) with one span per container step.
    let (mut mesh, ids) = build(&plan);
    let gossip_bytes = |mesh: &Mesh| -> u64 {
        ids.iter()
            .filter_map(|id| mesh.node(*id).ok())
            .filter_map(|n| {
                n.metrics_snapshot()
                    .get("gsn_federation_gossip_bytes_total")
                    .and_then(|m| m.as_counter())
            })
            .sum()
    };
    let gossip_before = gossip_bytes(&mesh);
    let stats_before = mesh.network().stats();
    let mut tracer = Tracer::new();
    let mut traced_busy = Duration::ZERO;
    let mut ticks = 0u64;
    let mut last = [None, None];
    let started = Instant::now();
    while started.elapsed() < s.seconds / 2 {
        let aggregate = is_aggregate(out.attempted);
        let sql = if aggregate { AGG_SQL } else { SHIP_SQL };
        out.attempted += 1;
        let t = Instant::now();
        let result = tracer.span("query", |t| {
            let request = t.span("mesh.issue", |_| {
                mesh.node_mut(coordinator)
                    .expect("member")
                    .federated_query(sql)
            });
            let Ok(request) = request else {
                return None;
            };
            for _ in 0..MAX_TICKS {
                let taken = t.span("mesh.take", |_| {
                    mesh.node_mut(coordinator)
                        .expect("member")
                        .take_federated_result(request)
                });
                if let Some(result) = taken {
                    return result.ok();
                }
                ticks += 1;
                mesh.clock().advance(tick);
                for _ in 0..2 {
                    for id in &ids {
                        let name = if *id == coordinator {
                            "mesh.coordinator_step"
                        } else {
                            "mesh.host_step"
                        };
                        t.span(name, |_| mesh.node_mut(*id).expect("member").step());
                    }
                }
            }
            None
        });
        traced_busy += t.elapsed();
        match result {
            Some(r) if plan.check(aggregate, &r) => last[usize::from(!aggregate)] = Some(r),
            _ => out.failed += 1,
        }
    }
    let stats = mesh.network().stats();
    let queries = out.attempted.max(1) as f64;
    let (encode_us, decode_us) = codec_cost(&last);

    let mut l = Layers::default();
    l.set("network.encode_us", encode_us);
    l.set("network.decode_us", decode_us);
    l.set("network.frames", (stats.sent - stats_before.sent) as f64);
    l.set(
        "network.bytes",
        (stats.bytes_sent - stats_before.bytes_sent) as f64,
    );
    l.mean_self("mesh.coordinator_step_us", &tracer, "mesh.coordinator_step");
    l.mean_self("mesh.host_step_us", &tracer, "mesh.host_step");
    l.set(
        "mesh.gossip_bytes",
        (gossip_bytes(&mesh) - gossip_before) as f64,
    );
    l.set("mesh.ticks_per_query", ticks as f64 / queries);
    l.coverage(
        &tracer,
        "query",
        untraced_busy.as_secs_f64() / untraced.max(1) as f64,
        traced_busy.as_secs_f64() / queries,
    );
    out.report = Json::obj()
        .obj_field("self_time_us", self_time_report(&tracer))
        .int("untraced_queries", untraced)
        .num(
            "frames_per_query",
            (stats.sent - stats_before.sent) as f64 / queries,
        )
        .num(
            "wire_bytes_per_query",
            (stats.bytes_sent - stats_before.bytes_sent) as f64 / queries,
        )
        .str(
            "codec_note",
            "network.encode_us/decode_us time gsn_network::encode/decode on frames of this \
             workload's shape (partial-aggregate and query-batch replies carrying the checked \
             results); the simulated network encodes and decodes inside send()",
        );
    out.env = plan.env();
    write_spans(s, "mesh_federated", &tracer);
    out.layers = l.0;
    out
}

/// Mean encode and decode time per frame, in microseconds, over a request and
/// a reply frame of each query kind.
fn codec_cost(results: &[Option<Relation>; 2]) -> (f64, f64) {
    let mut frames = Vec::new();
    for (i, result) in results.iter().enumerate() {
        let Some(result) = result else {
            continue;
        };
        let columns: Vec<String> = result.columns().iter().map(|c| c.name.clone()).collect();
        let rows = result.rows().to_vec();
        if i == 0 {
            frames.push(Message::PartialAggregateRequest {
                request: 1,
                sql: AGG_SQL.to_owned(),
                trace: None,
            });
            frames.push(Message::PartialAggregateReply {
                request: 1,
                columns,
                rows,
                error: String::new(),
                server_micros: 0,
            });
        } else {
            frames.push(Message::QueryRequest {
                request: 2,
                sql: SHIP_SQL.to_owned(),
                batch_rows: 256,
                prefetch: false,
                trace: None,
            });
            frames.push(Message::QueryBatch {
                request: 2,
                cursor: 1,
                columns,
                rows,
                seq: 0,
                done: true,
                error: String::new(),
                server_micros: 0,
            });
        }
    }
    if frames.is_empty() {
        return (0.0, 0.0);
    }
    const REPEATS: usize = 2_000;
    let t = Instant::now();
    let mut wires = Vec::new();
    for _ in 0..REPEATS {
        wires = frames
            .iter()
            .map(|f| std::hint::black_box(encode(f)))
            .collect();
    }
    let encode_us = t.elapsed().as_secs_f64() * 1e6 / (REPEATS * frames.len()) as f64;
    let t = Instant::now();
    for _ in 0..REPEATS {
        for w in &wires {
            let _ = std::hint::black_box(decode(w));
        }
    }
    let decode_us = t.elapsed().as_secs_f64() * 1e6 / (REPEATS * frames.len()) as f64;
    (encode_us, decode_us)
}
