//! `continuous_clients` — the paper's Figure 4: one 32 KB stream in memory
//! with 500 registered random client queries (about 3 predicates each, history
//! from 1 s to 30 min, sampling rate in (0.1, 1], 5% burst arrivals).  Each
//! arrival is timed through `GsnContainer::step`, closed loop.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gsn::storage::WindowSpec;
use gsn::types::{DataType, SimulatedClock, Timestamp};
use gsn::xml::{AddressSpec, InputStreamSpec, StreamSourceSpec};
use gsn::{ContainerConfig, GsnContainer, VirtualSensorDescriptor};

use crate::ingest::{deploy_layers, insert_layers, self_time_report, write_spans};
use crate::layers::Layers;
use crate::node::ComposedNode;
use crate::trace::Tracer;
use crate::util::{Json, Rng, Samples};
use crate::{Outcome, Settings, Traced};

const CLIENTS: usize = 500;
const ELEMENT_BYTES: usize = 32 * 1024;
const INTERVAL_MS: i64 = 10_000;
/// 30 minutes of history at one element per interval.
const HISTORY_ELEMENTS: usize = 180;
const BURST_PROBABILITY: f64 = 0.05;
const BURST_SIZE: i64 = 5;
const SENSOR: &str = "sensor-stream";
const TABLE: &str = "sensor_stream";

struct Client {
    sql: String,
    history: WindowSpec,
    sampling: f64,
}

struct Plan {
    xml: String,
    clients: Vec<Client>,
    history_elements: usize,
    /// Elements per arrival step, cycled: 1, or `BURST_SIZE` for a burst.
    bursts: Vec<i64>,
}

impl Plan {
    fn new(s: &Settings) -> Plan {
        let mut rng = Rng::new(s.seed);
        let clients = if s.smoke { 20 } else { CLIENTS };
        let clients = (0..clients).map(|_| random_client(&mut rng)).collect();
        let bursts = (0..4096)
            .map(|_| {
                if rng.chance(BURST_PROBABILITY) {
                    BURST_SIZE
                } else {
                    1
                }
            })
            .collect();
        Plan {
            xml: descriptor().to_xml(),
            clients,
            history_elements: if s.smoke { 10 } else { HISTORY_ELEMENTS },
            bursts,
        }
    }

    fn env(&self) -> Json {
        Json::obj()
            .int("clients", self.clients.len() as u64)
            .int("element_bytes", ELEMENT_BYTES as u64)
            .int("interval_ms_simulated", INTERVAL_MS as u64)
            .int("history_elements", self.history_elements as u64)
            .num("burst_probability", BURST_PROBABILITY)
            .int("burst_size", BURST_SIZE as u64)
            .str("load", "closed loop, one step per arrival or burst")
            .str("flush_policy", "in-memory storage")
            .int("workers", 1)
    }
}

fn random_client(rng: &mut Rng) -> Client {
    const PREDICATES: [&str; 10] = [
        "temperature > 15",
        "temperature < 35",
        "light > 100",
        "light < 900",
        "mote_id > 2",
        "mote_id < 20",
        "network like 'net%'",
        "temperature between 10 and 40",
        "mote_id in (1, 2, 3, 4, 5, 6, 7, 8)",
        "light is not null",
    ];
    const AGGREGATES: [&str; 4] = [
        "avg(temperature) as v",
        "count(*) as v",
        "max(light) as v",
        "min(temperature) as v",
    ];
    // 2..=4 predicates, 3 on average.
    let count = rng.range(2, 4) as usize;
    let mut chosen: Vec<&str> = Vec::with_capacity(count);
    while chosen.len() < count {
        let p = *rng.pick(&PREDICATES);
        if !chosen.contains(&p) {
            chosen.push(p);
        }
    }
    Client {
        sql: format!(
            "select {} from {TABLE} where {}",
            rng.pick(&AGGREGATES),
            chosen.join(" and ")
        ),
        history: WindowSpec::Time(gsn::types::Duration::from_secs(rng.range(1, 1800) as i64)),
        sampling: 0.1 + 0.9 * (1.0 - rng.unit()),
    }
}

fn descriptor() -> VirtualSensorDescriptor {
    let address = AddressSpec::new("mote")
        .with_predicate("interval", &INTERVAL_MS.to_string())
        .with_predicate("mote-id", "7")
        .with_predicate("network", "net-1")
        .with_predicate("padding", &ELEMENT_BYTES.to_string())
        .with_predicate("seed", "7");
    VirtualSensorDescriptor::builder(SENSOR)
        .expect("valid sensor name")
        .output_field("temperature", DataType::Double)
        .expect("valid field")
        .output_field("light", DataType::Double)
        .expect("valid field")
        .output_field("mote_id", DataType::Integer)
        .expect("valid field")
        .output_field("network", DataType::Varchar)
        .expect("valid field")
        .output_field("payload", DataType::Binary)
        .expect("valid field")
        .output_history(WindowSpec::Time(gsn::types::Duration::from_secs(1800)))
        .input_stream(
            InputStreamSpec::new("main", "select * from src").with_source(
                StreamSourceSpec::new(
                    "src",
                    address,
                    "select temperature, light, mote_id, network, padding from WRAPPER",
                )
                .with_window(WindowSpec::Count(1)),
            ),
        )
        .build()
        .expect("valid descriptor")
}

struct Live {
    container: GsnContainer,
    clock: SimulatedClock,
    notified: Arc<AtomicU64>,
    wrong_size: Arc<AtomicU64>,
}

/// Deploy, fill the history, register every client, then the seeding step.
fn build(plan: &Plan) -> Live {
    let clock = SimulatedClock::new();
    let mut container = GsnContainer::new(ContainerConfig::default(), Arc::new(clock.clone()));
    container.deploy_xml(&plan.xml).expect("deploy stream");
    let notified = Arc::new(AtomicU64::new(0));
    let wrong_size = Arc::new(AtomicU64::new(0));
    let (n, w) = (Arc::clone(&notified), Arc::clone(&wrong_size));
    container
        .subscribe_callback(SENSOR, move |note| {
            n.fetch_add(1, Ordering::Relaxed);
            let bytes = note
                .element
                .value("payload")
                .and_then(|v| v.as_bytes().map(<[u8]>::len));
            if bytes != Some(ELEMENT_BYTES) {
                w.fetch_add(1, Ordering::Relaxed);
            }
        })
        .expect("subscribe");
    for _ in 0..plan.history_elements {
        clock.advance(gsn::types::Duration::from_millis(INTERVAL_MS));
        container.step();
    }
    for (i, c) in plan.clients.iter().enumerate() {
        container
            .register_query(&format!("client-{i}"), &c.sql, c.history, Some(c.sampling))
            .expect("register client query");
    }
    clock.advance(gsn::types::Duration::from_millis(INTERVAL_MS));
    container.step();
    Live {
        container,
        clock,
        notified,
        wrong_size,
    }
}

pub fn run(s: &Settings) -> Outcome {
    let plan = Plan::new(s);
    let mut out = Outcome::default();
    let (mut live, setup_s) = s.set_up(None, || build(&plan));
    out.setup_s = setup_s;
    let before = live.notified.load(Ordering::Relaxed);
    let clients = plan.clients.len() as u64;

    let mut latency = Samples::default();
    let mut burst_latency = Samples::default();
    let mut arrivals = 0u64;
    let mut evaluations = 0u64;
    let started = Instant::now();
    let mut i = 0usize;
    while started.elapsed() < s.seconds {
        let due = plan.bursts[i % plan.bursts.len()];
        i += 1;
        live.clock
            .advance(gsn::types::Duration::from_millis(INTERVAL_MS * due));
        let t = Instant::now();
        let report = live.container.step();
        let took = t.elapsed();
        out.rate.push(report.local_arrivals, took);
        let per_arrival = took.as_secs_f64() * 1e3 / report.local_arrivals.max(1) as f64;
        for _ in 0..report.local_arrivals {
            latency.push(per_arrival);
            if due > 1 {
                burst_latency.push(per_arrival);
            }
        }
        arrivals += report.local_arrivals;
        evaluations += report.client_query_evaluations;
        out.attempted += due as u64;
        let bad = report.local_arrivals != due as u64
            || report.outputs != report.local_arrivals
            || report.client_query_evaluations != report.outputs * clients
            || report.errors > 0;
        if bad {
            out.failed += due as u64;
        }
    }
    let notified = live.notified.load(Ordering::Relaxed) - before;
    let wrong = live.wrong_size.load(Ordering::Relaxed);
    out.check(notified == arrivals, || {
        format!("{notified} notifications for {arrivals} arrivals")
    });
    out.check(wrong == 0, || {
        format!("{wrong} notifications with the wrong payload size")
    });
    out.check(evaluations == arrivals * clients, || {
        format!("{evaluations} evaluations, expected {arrivals} x {clients}")
    });
    out.report = Json::obj()
        .obj_field("client_eval", latency.summary())
        .obj_field("client_eval_burst_arrivals", burst_latency.summary())
        .num(
            "client_eval_per_client_us",
            latency.mean() * 1e3 / clients.max(1) as f64,
        )
        .int("arrivals", arrivals)
        .int("evaluations", evaluations);
    out.latency = latency;
    out.env = plan.env();
    out
}

pub fn trace(s: &Settings) -> Traced {
    let plan = Plan::new(s);
    let mut out = Traced::default();
    let clients = plan.clients.len() as u64;

    // Untraced twin for the overhead ratio.
    let mut live = build(&plan);
    let mut untraced_busy = Duration::ZERO;
    let mut untraced_arrivals = 0u64;
    let started = Instant::now();
    let mut i = 0usize;
    while started.elapsed() < s.seconds / 2 {
        let due = plan.bursts[i % plan.bursts.len()];
        i += 1;
        live.clock
            .advance(gsn::types::Duration::from_millis(INTERVAL_MS * due));
        let t = Instant::now();
        untraced_arrivals += live.container.step().local_arrivals;
        untraced_busy += t.elapsed();
    }
    drop(live);

    let mut tracer = Tracer::new();
    let mut node = ComposedNode::new(&ContainerConfig::default());
    let mut now = 0i64;
    node.deploy_xml(&plan.xml, true, Timestamp(now), &mut tracer)
        .expect("deploy stream");
    node.notifications.subscribe_callback(SENSOR, |_| {});
    for _ in 0..plan.history_elements {
        now += INTERVAL_MS;
        node.step(Timestamp(now), &mut tracer);
    }
    for (i, c) in plan.clients.iter().enumerate() {
        node.queries
            .register(&format!("client-{i}"), &c.sql, c.history, Some(c.sampling))
            .expect("register client query");
    }
    // The seeding evaluation is timed on its own, then the steady state.
    now += INTERVAL_MS;
    let seed_from = tracer.spans().len();
    node.step(Timestamp(now), &mut tracer);
    let seed_ms = tracer.spans()[seed_from..]
        .iter()
        .filter(|s| s.name == "query.evaluate")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .sum::<f64>();
    let mut steady = Tracer::new();
    let counted = (node.counts.arrivals, node.counts.evaluations);
    let mut traced_busy = Duration::ZERO;
    let started = Instant::now();
    let mut i = 0usize;
    while started.elapsed() < s.seconds / 2 {
        let due = plan.bursts[i % plan.bursts.len()];
        i += 1;
        now += INTERVAL_MS * due;
        let t = Instant::now();
        node.step(Timestamp(now), &mut steady);
        traced_busy += t.elapsed();
    }
    let c = &node.counts;
    let arrivals = c.arrivals - counted.0;
    let evaluations = c.evaluations - counted.1;
    out.attempted = arrivals;
    out.failed = c.errors;
    if evaluations != arrivals * clients {
        out.violations.push(format!(
            "{evaluations} evaluations, expected {arrivals} x {clients}"
        ));
    }
    let mut l = Layers::default();
    deploy_layers(&mut l, &tracer, 1);
    l.mean_self("wrappers.poll_us", &steady, "wrappers.poll");
    l.set("wrappers.elements", arrivals as f64);
    l.set("wrappers.bytes", c.elements_bytes as f64);
    l.self_quantiles(
        &steady,
        "pipeline",
        "pipeline.us_per_element_p50",
        "pipeline.us_per_element_p99",
    );
    l.set("pipeline.outputs", c.outputs as f64);
    insert_layers(&mut l, &node);
    l.mean_self("storage.commit_us", &steady, "storage.commit");
    l.mean_self("storage.maintain_us", &steady, "storage.maintain");
    l.mean_self("query.eval_us_per_arrival", &steady, "query.evaluate");
    let per_arrival = steady.self_us_total("query.evaluate") / arrivals.max(1) as f64;
    l.set(
        "query.eval_us_per_client",
        per_arrival / clients.max(1) as f64,
    );
    l.set("query.seed_ms", seed_ms);
    l.set(
        "query.nonempty_ratio",
        c.nonempty_results as f64 / c.evaluations.max(1) as f64,
    );
    l.mean_self("notify.us_per_element", &steady, "notify");
    l.set("notify.delivered", c.notified as f64);
    l.mean_self("notify.client_results_us", &steady, "notify.client_results");
    l.coverage(
        &steady,
        "step",
        untraced_busy.as_secs_f64() / untraced_arrivals.max(1) as f64,
        traced_busy.as_secs_f64() / arrivals.max(1) as f64,
    );
    out.report = Json::obj()
        .obj_field("setup_self_time_us", self_time_report(&tracer))
        .obj_field("self_time_us", self_time_report(&steady))
        .num("query_seed_ms", seed_ms)
        .int("untraced_arrivals", untraced_arrivals)
        .num("untraced_busy_s", untraced_busy.as_secs_f64())
        .num("traced_busy_s", traced_busy.as_secs_f64());
    out.env = plan.env();
    write_spans(s, "continuous_clients", &steady);
    out.layers = l.0;
    out
}
