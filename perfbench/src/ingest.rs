//! `ingest_durable` — the paper's Figure 3 node under open-loop, time-triggered
//! load, with every output written to durable storage.
//!
//! 22 motes (15–100 B readings) and 15 cameras (32 KB frames) in 4 networks,
//! each a virtual sensor with `permanent-storage` on a data dir (WAL group
//! commit, `SyncMode::OnCheckpoint`), and one notification subscriber each.
//! `SyncMode::Always` is left out on purpose: on a shared virtual disk its
//! per-step fsync cost moved between back-to-back runs by more than the
//! benchmark's bounds (see README.md).
//! No client queries are registered, so the continuous-query engine gets no
//! work.  Every device has the same interval; their phases are staggered so one
//! element falls due every `SPACING_MS` of simulated time, and simulated time
//! runs at wall-clock speed, so the offered rate is fixed in advance.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gsn::storage::{SyncMode, WindowSpec};
use gsn::types::{DataType, SimulatedClock, Timestamp};
use gsn::xml::{AddressSpec, InputStreamSpec, StreamSourceSpec};
use gsn::{ContainerConfig, GsnContainer, VirtualSensorDescriptor};

use crate::layers::Layers;
use crate::node::ComposedNode;
use crate::trace::Tracer;
use crate::util::{dir_bytes, ms, Json, Rng, Samples};
use crate::{Outcome, Settings, Traced};

const MOTES: usize = 22;
const CAMERAS: usize = 15;
const NETWORKS: usize = 4;
const CAMERA_BYTES: usize = 32 * 1024;
/// Simulated (= wall) milliseconds between consecutive due elements.
const SPACING_MS: i64 = 6;

struct Device {
    name: String,
    xml: String,
    /// Stagger slot: the device is deployed at `slot * spacing`.
    slot: i64,
    payload: usize,
    camera: bool,
}

/// The generated inputs of one run.
struct Plan {
    devices: Vec<Device>,
    spacing_ms: i64,
    /// Every device's interval: `devices × spacing`.
    interval_ms: i64,
}

impl Plan {
    fn new(s: &Settings) -> Plan {
        let mut rng = Rng::new(s.seed);
        let (motes, cameras) = if s.smoke { (3, 2) } else { (MOTES, CAMERAS) };
        let count = motes + cameras;
        let spacing_ms = SPACING_MS;
        let interval_ms = spacing_ms * count as i64;
        // A stride coprime with the device count spreads cameras over the cycle.
        let stride = (1..count)
            .rev()
            .find(|k| gcd(*k, count) == 1 && *k * 3 < count * 2);
        let stride = stride.unwrap_or(1);
        let devices = (0..count)
            .map(|d| {
                let camera = d >= motes;
                let network = d % NETWORKS;
                let payload = if camera {
                    CAMERA_BYTES
                } else {
                    rng.range(15, 100) as usize
                };
                let name = format!(
                    "{}-{d}-net{network}",
                    if camera { "camera" } else { "mote" }
                );
                let xml = descriptor(&name, camera, network, payload, interval_ms, d).to_xml();
                Device {
                    name,
                    xml,
                    slot: ((d * stride) % count) as i64,
                    payload,
                    camera,
                }
            })
            .collect();
        Plan {
            devices,
            spacing_ms,
            interval_ms,
        }
    }

    fn config(dir: &std::path::Path) -> ContainerConfig {
        let mut config = ContainerConfig::default().with_data_dir(dir);
        config.wal_sync = SyncMode::OnCheckpoint;
        config.wal_group_commit = true;
        config
    }

    /// Simulated due time of device `d`'s `k`-th element (k from 1).
    fn due(&self, d: usize, k: i64) -> i64 {
        self.devices[d].slot * self.spacing_ms + k * self.interval_ms
    }

    /// Elements device `d` has produced by simulated time `t`.
    fn produced_by(&self, d: usize, t: i64) -> i64 {
        ((t - self.devices[d].slot * self.spacing_ms) / self.interval_ms).max(0)
    }

    fn env(&self) -> Json {
        Json::obj()
            .int(
                "motes",
                self.devices.iter().filter(|d| !d.camera).count() as u64,
            )
            .int(
                "cameras",
                self.devices.iter().filter(|d| d.camera).count() as u64,
            )
            .int("networks", NETWORKS as u64)
            .int("camera_bytes", CAMERA_BYTES as u64)
            .str("mote_bytes", "15-100")
            .int("device_interval_ms", self.interval_ms as u64)
            .num("offered_rate_eps", 1000.0 / self.spacing_ms as f64)
            .str("load", "open loop, simulated time = wall time")
            .str("flush_policy", "SyncMode::OnCheckpoint + group commit")
            .int("workers", 1)
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn descriptor(
    name: &str,
    camera: bool,
    network: usize,
    payload: usize,
    interval_ms: i64,
    device: usize,
) -> VirtualSensorDescriptor {
    let (address, source_query, field, field_type) = if camera {
        (
            AddressSpec::new("camera")
                .with_predicate("interval", &interval_ms.to_string())
                .with_predicate("camera-id", &format!("cam-{device}"))
                .with_predicate("location", &format!("net-{network}"))
                .with_predicate("image-size", &payload.to_string())
                .with_predicate("seed", &(device + 1).to_string()),
            "select frame_number, image from WRAPPER",
            "frame_number",
            DataType::Integer,
        )
    } else {
        (
            AddressSpec::new("mote")
                .with_predicate("interval", &interval_ms.to_string())
                .with_predicate("mote-id", &device.to_string())
                .with_predicate("network", &format!("net-{network}"))
                .with_predicate("padding", &payload.to_string())
                .with_predicate("seed", &(device + 1).to_string()),
            "select temperature, padding from WRAPPER",
            "temperature",
            DataType::Double,
        )
    };
    VirtualSensorDescriptor::builder(name)
        .expect("valid sensor name")
        .metadata("network", &format!("net-{network}"))
        .output_field(field, field_type)
        .expect("valid field")
        .output_field("payload", DataType::Binary)
        .expect("valid field")
        .permanent_storage(true)
        .input_stream(
            InputStreamSpec::new("main", "select * from src").with_source(
                StreamSourceSpec::new("src", address, source_query)
                    .with_window(WindowSpec::Count(1)),
            ),
        )
        .build()
        .expect("valid descriptor")
}

/// One notification as the subscriber saw it: device, arrival, payload bytes.
type Note = (usize, Instant, usize);

struct Live {
    container: GsnContainer,
    clock: SimulatedClock,
    notes: Arc<Mutex<Vec<Note>>>,
}

impl Live {
    fn build(plan: &Plan, dir: &std::path::Path) -> Live {
        let clock = SimulatedClock::new();
        let mut container = GsnContainer::new(Plan::config(dir), Arc::new(clock.clone()));
        let notes: Arc<Mutex<Vec<Note>>> = Arc::default();
        let mut order: Vec<usize> = (0..plan.devices.len()).collect();
        order.sort_by_key(|d| plan.devices[*d].slot);
        for d in order {
            let device = &plan.devices[d];
            clock.set(Timestamp(device.slot * plan.spacing_ms));
            container.deploy_xml(&device.xml).expect("deploy device");
            let sink = Arc::clone(&notes);
            container
                .subscribe_callback(&device.name, move |n| {
                    let bytes = n
                        .element
                        .value("payload")
                        .and_then(|v| v.as_bytes().map(<[u8]>::len))
                        .unwrap_or(usize::MAX);
                    sink.lock()
                        .expect("notes lock")
                        .push((d, Instant::now(), bytes));
                })
                .expect("subscribe");
        }
        Live {
            container,
            clock,
            notes,
        }
    }
}

/// Open-loop pacing: sleeps until the next element is due, then advances
/// simulated time to the wall clock (never behind the due time) and calls
/// `step(now, woke)`, where `woke` is when the generator woke if it slept (the
/// node was idle) and `None` if it was already late.  Returns the last
/// simulated time stepped, the wall origin and the simulated origin.
fn paced(
    plan: &Plan,
    clock: &SimulatedClock,
    seconds: Duration,
    mut step: impl FnMut(Timestamp, Option<Instant>),
) -> (i64, Instant, i64) {
    let sim_base = plan.devices.iter().map(|d| d.slot).max().unwrap_or(0) * plan.spacing_ms;
    clock.set(Timestamp(sim_base));
    let wall_base = Instant::now();
    let mut due = sim_base + plan.spacing_ms;
    let mut now = sim_base;
    loop {
        let due_wall = wall_base + Duration::from_millis((due - sim_base) as u64);
        let wall = Instant::now();
        if wall.duration_since(wall_base) >= seconds {
            break;
        }
        let woke = (wall < due_wall).then(|| {
            std::thread::sleep(due_wall - wall);
            Instant::now()
        });
        let elapsed = wall_base.elapsed().as_millis() as i64;
        now = due.max(sim_base + elapsed);
        clock.set(Timestamp(now));
        step(Timestamp(now), woke);
        due = (now / plan.spacing_ms + 1) * plan.spacing_ms;
    }
    (now, wall_base, sim_base)
}

pub fn run(s: &Settings) -> Outcome {
    let plan = Plan::new(s);
    let mut out = Outcome::default();
    let dir = s.data_dir("ingest");
    let (mut node, setup_s) = s.set_up(Some(&dir), || Live::build(&plan, &dir));
    out.setup_s = setup_s;

    let mut step_busy = Duration::ZERO;
    let mut steps = 0u64;
    let mut arrivals = 0u64;
    let mut outputs = 0u64;
    let mut errors = 0u64;
    // Per step: the index of its first notification and when the generator woke.
    let mut marks: Vec<(usize, Option<Instant>)> = Vec::new();
    let container = &mut node.container;
    let notes = &node.notes;
    let rate = &mut out.rate;
    let (end, wall_base, sim_base) = paced(&plan, &node.clock, s.seconds, |_, woke| {
        marks.push((notes.lock().expect("notes lock").len(), woke));
        let start = Instant::now();
        let report = container.step();
        let took = start.elapsed();
        step_busy += took;
        rate.push(report.local_arrivals, took);
        steps += 1;
        arrivals += report.local_arrivals;
        outputs += report.outputs;
        errors += report.errors;
    });

    // Every due element must be notified exactly once, in order, with its
    // configured payload size.  Its latency runs from its due time, or from
    // when the generator woke if it overslept while the node was idle: that
    // lateness is the generator's, not the node's, and is reported apart.
    let notes = node.notes.lock().expect("notes lock").clone();
    let mut seen = vec![0i64; plan.devices.len()];
    let mut wrong_size = 0u64;
    let mut latency = Samples::default();
    let mut camera_latency = Samples::default();
    let mut mote_latency = Samples::default();
    let mut oversleep = Samples::default();
    let mut mark = 0;
    for (i, (d, at, bytes)) in notes.into_iter().enumerate() {
        while mark + 1 < marks.len() && marks[mark + 1].0 <= i {
            mark += 1;
        }
        seen[d] += 1;
        if bytes != plan.devices[d].payload {
            wrong_size += 1;
        }
        let due_wall =
            wall_base + Duration::from_millis((plan.due(d, seen[d]) - sim_base).max(0) as u64);
        let origin = match marks.get(mark).and_then(|m| m.1) {
            Some(woke) if woke > due_wall => {
                oversleep.push(ms(woke - due_wall));
                woke
            }
            _ => due_wall,
        };
        let l = ms(at.saturating_duration_since(origin));
        latency.push(l);
        if plan.devices[d].camera {
            camera_latency.push(l);
        } else {
            mote_latency.push(l);
        }
    }
    let expected: i64 = (0..plan.devices.len())
        .map(|d| plan.produced_by(d, end))
        .sum();
    let miscounted: u64 = (0..plan.devices.len())
        .map(|d| (seen[d] - plan.produced_by(d, end)).unsigned_abs())
        .sum();
    out.attempted = expected as u64;
    out.failed = (miscounted + wrong_size + errors).min(out.attempted.max(1));
    out.check(arrivals == expected as u64, || {
        format!("{arrivals} arrivals, {expected} elements due")
    });
    out.check(outputs == arrivals, || {
        format!("{outputs} outputs for {arrivals} arrivals")
    });
    out.check(miscounted == 0, || {
        format!("{miscounted} notifications missing or duplicated")
    });
    out.check(wrong_size == 0, || {
        format!("{wrong_size} notifications with the wrong payload size")
    });
    out.check(errors == 0, || format!("{errors} step errors"));

    let busy_s = step_busy.as_secs_f64();
    // Cross-check only: the container's own step-phase histograms.
    let snapshot = node.container.metrics_snapshot();
    let hist = |name: &str| {
        snapshot
            .get(name)
            .and_then(|m| m.as_histogram())
            .map_or(Json::obj(), |h| {
                Json::obj()
                    .int("count", h.count)
                    .num("mean_us", h.sum as f64 / h.count.max(1) as f64)
                    .int("p99_bucket_us", h.p99)
            })
    };
    out.report = Json::obj()
        .obj_field("ingest_latency", latency.summary())
        .obj_field("ingest_latency_mote", mote_latency.summary())
        .obj_field("ingest_latency_camera", camera_latency.summary())
        .num("ingest_capacity_eps", out.rate.total())
        .num("ingest_capacity_windowed_eps", out.rate.windowed())
        .int("arrivals", arrivals)
        .int("steps", steps)
        .num("step_busy_s", busy_s)
        .obj_field("generator_oversleep", oversleep.summary())
        .num(
            "generator_lag_ms",
            ms(wall_base.elapsed()) - (end - sim_base) as f64,
        )
        .int("data_dir_bytes", dir_bytes(&dir))
        .obj_field(
            "cross_check",
            Json::obj()
                .obj_field("gsn_step_pipeline_micros", hist("gsn_step_pipeline_micros"))
                .obj_field("gsn_step_commit_micros", hist("gsn_step_commit_micros"))
                .obj_field(
                    "gsn_storage_insert_micros",
                    hist("gsn_storage_insert_micros"),
                )
                .obj_field(
                    "gsn_storage_wal_append_micros",
                    hist("gsn_storage_wal_append_micros"),
                ),
        );
    out.env = plan.env();
    out.latency = latency;
    drop(node);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

pub fn trace(s: &Settings) -> Traced {
    let plan = Plan::new(s);
    let mut out = Traced::default();

    // The untraced twin: the container on the same plan, for the overhead ratio.
    let dir = s.data_dir("ingest-untraced");
    let mut live = Live::build(&plan, &dir);
    let mut untraced_busy = Duration::ZERO;
    let mut untraced_arrivals = 0u64;
    let container = &mut live.container;
    paced(&plan, &live.clock, s.seconds / 2, |_, _| {
        let start = Instant::now();
        untraced_arrivals += container.step().local_arrivals;
        untraced_busy += start.elapsed();
    });
    drop(live);
    let _ = std::fs::remove_dir_all(&dir);

    let dir = s.data_dir("ingest-traced");
    let clock = SimulatedClock::new();
    let mut node = ComposedNode::new(&Plan::config(&dir));
    let mut tracer = Tracer::new();
    let mut order: Vec<usize> = (0..plan.devices.len()).collect();
    order.sort_by_key(|d| plan.devices[*d].slot);
    for d in &order {
        let device = &plan.devices[*d];
        let deployed_at = Timestamp(device.slot * plan.spacing_ms);
        clock.set(deployed_at);
        node.deploy_xml(&device.xml, device.camera, deployed_at, &mut tracer)
            .expect("deploy device");
        node.notifications.subscribe_callback(&device.name, |_| {});
    }
    let fsyncs_before = node.storage.telemetry().wal_fsyncs.get();
    let mut traced_busy = Duration::ZERO;
    let mut steps = 0u64;
    paced(&plan, &clock, s.seconds / 2, |now, _| {
        let start = Instant::now();
        node.step(now, &mut tracer);
        traced_busy += start.elapsed();
        steps += 1;
    });
    let fsyncs = node.storage.telemetry().wal_fsyncs.get() - fsyncs_before;
    let write_amp = dir_bytes(&dir) as f64 / node.counts.output_bytes.max(1) as f64;

    let c = &node.counts;
    out.attempted = c.arrivals;
    out.failed = c.errors + c.arrivals.saturating_sub(c.notified);
    if c.notified != c.arrivals {
        out.violations.push(format!(
            "{} notified for {} arrivals",
            c.notified, c.arrivals
        ));
    }
    let mut l = Layers::default();
    deploy_layers(&mut l, &tracer, plan.devices.len());
    l.mean_self("wrappers.poll_us", &tracer, "wrappers.poll");
    l.set("wrappers.elements", c.arrivals as f64);
    l.set("wrappers.bytes", c.elements_bytes as f64);
    l.self_quantiles(
        &tracer,
        "pipeline",
        "pipeline.us_per_element_p50",
        "pipeline.us_per_element_p99",
    );
    l.set("pipeline.outputs", c.outputs as f64);
    insert_layers(&mut l, &node);
    l.mean_self("storage.commit_us", &tracer, "storage.commit");
    l.mean_self("storage.maintain_us", &tracer, "storage.maintain");
    l.set("storage.fsyncs", fsyncs as f64);
    l.set("storage.write_amp", write_amp);
    l.mean_self("notify.us_per_element", &tracer, "notify");
    l.set("notify.delivered", c.notified as f64);
    l.mean_self("query.eval_us_per_arrival", &tracer, "query.evaluate");
    l.coverage(
        &tracer,
        "step",
        untraced_busy.as_secs_f64() / untraced_arrivals.max(1) as f64,
        traced_busy.as_secs_f64() / c.arrivals.max(1) as f64,
    );
    out.report = Json::obj()
        .obj_field("self_time_us", self_time_report(&tracer))
        .int("steps", steps)
        .num("untraced_busy_s", untraced_busy.as_secs_f64())
        .num("traced_busy_s", traced_busy.as_secs_f64())
        .int("untraced_arrivals", untraced_arrivals);
    out.env = plan.env();
    write_spans(s, "ingest_durable", &tracer);
    out.layers = l.0;
    drop(node);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

pub fn deploy_layers(l: &mut Layers, tracer: &Tracer, sensors: usize) {
    l.mean_self("deploy.parse_us", tracer, "deploy.parse");
    let total = tracer.self_us_total("deploy.parse") + tracer.self_us_total("deploy.sensor");
    l.set("deploy.us_per_sensor", total / sensors.max(1) as f64);
}

pub fn insert_layers(l: &mut Layers, node: &ComposedNode) {
    l.set(
        "storage.insert_us.memory_small",
        node.inserts.mean_us("memory_small"),
    );
    l.set(
        "storage.insert_us.memory_large",
        node.inserts.mean_us("memory_large"),
    );
    l.set(
        "storage.insert_us.durable_small",
        node.inserts.mean_us("durable_small"),
    );
    l.set(
        "storage.insert_us.durable_large",
        node.inserts.mean_us("durable_large"),
    );
}

/// Total and mean self time per span name.
pub fn self_time_report(tracer: &Tracer) -> Json {
    let mut j = Json::obj();
    for (name, values) in tracer.self_us_by_name() {
        let total: f64 = values.iter().sum();
        j = j.obj_field(
            name,
            Json::obj()
                .int("spans", values.len() as u64)
                .num("total_us", total)
                .num("mean_us", total / values.len().max(1) as f64),
        );
    }
    j
}

pub fn write_spans(s: &Settings, workload: &str, tracer: &Tracer) {
    let path = std::path::Path::new(".perfbench")
        .join("traces")
        .join(format!("{workload}-{}.jsonl", s.seed));
    if let Err(e) = tracer.write(&path) {
        eprintln!("could not write spans to {}: {e}", path.display());
    }
}
