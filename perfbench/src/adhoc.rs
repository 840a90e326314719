//! `adhoc_history` — the read side of `gsn-storage`: one closed-loop client
//! runs a fixed mix of ad-hoc queries through `GsnContainer::query` over a
//! durable history several times larger than the container's default
//! 256-page buffer pool.  Every result is checked against a reference
//! computed from the generated rows.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gsn::sql::{open_plan, optimizer, parse_query, plan_query, Relation, RowSource as _};
use gsn::storage::{LiveCatalog, WindowSpec};
use gsn::types::{DataType, SimulatedClock, StreamElement, StreamSchema, Timestamp, Value};
use gsn::xml::{AddressSpec, InputStreamSpec, StreamSourceSpec};
use gsn::{ContainerConfig, GsnContainer, VirtualSensorDescriptor};

use crate::ingest::{self_time_report, write_spans};
use crate::layers::Layers;
use crate::trace::Tracer;
use crate::util::{Json, Rng, Samples};
use crate::{Outcome, Settings, Traced};

const SENSOR: &str = "history";
const ROWS: usize = 24_000;
const PAYLOAD_BYTES: usize = 480;
const MOTES: i64 = 20;
/// Rows of the recent-window aggregate: they fit in the buffer pool.
const RECENT_ROWS: usize = 2_000;
const RANGE_ROWS: i64 = 100;
const ROW_MS: i64 = 1_000;

#[derive(Debug, Clone)]
struct Row {
    temperature: f64,
    light: f64,
    mote: i64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    FullAggregate,
    FullGroup,
    Recent,
    Point,
    Range,
    Limit,
}

impl Kind {
    fn is_scan(self) -> bool {
        matches!(self, Kind::FullAggregate | Kind::FullGroup | Kind::Recent)
    }
}

/// The fixed mix, cycled: two full-history aggregates, one recent-window
/// aggregate and, twice each, a point lookup, a time range and a LIMIT 10.
const MIX: [Kind; 9] = [
    Kind::FullAggregate,
    Kind::Point,
    Kind::Range,
    Kind::Limit,
    Kind::Recent,
    Kind::Point,
    Kind::Range,
    Kind::Limit,
    Kind::FullGroup,
];

struct Op {
    kind: Kind,
    /// Row index (point), first row (range) or mote id (limit).
    arg: i64,
}

struct Plan {
    rows: Vec<Row>,
    ops: Vec<Op>,
    xml: String,
    schema: Arc<StreamSchema>,
    payload: Value,
}

impl Plan {
    fn new(s: &Settings) -> Plan {
        let mut rng = Rng::new(s.seed);
        let n = if s.smoke { 2_000 } else { ROWS };
        let rows: Vec<Row> = (0..n)
            .map(|_| Row {
                temperature: (rng.range(0, 6_000) as f64 - 2_000.0) / 100.0,
                light: rng.range(0, 100_000) as f64 / 100.0,
                mote: rng.range(1, MOTES as u64) as i64,
            })
            .collect();
        let ops = (0..4096)
            .map(|i| {
                let kind = MIX[i % MIX.len()];
                let arg = match kind {
                    Kind::Point => rng.range(0, n as u64 - 1) as i64,
                    Kind::Range => rng.range(0, (n as i64 - RANGE_ROWS) as u64) as i64,
                    Kind::Limit => rng.range(1, MOTES as u64) as i64,
                    _ => 0,
                };
                Op { kind, arg }
            })
            .collect();
        let mut payload = vec![0u8; PAYLOAD_BYTES];
        payload.iter_mut().for_each(|b| *b = rng.next_u64() as u8);
        let descriptor = descriptor();
        Plan {
            rows,
            ops,
            schema: Arc::new(descriptor.output_structure.clone()),
            xml: descriptor.to_xml(),
            payload: Value::binary(payload),
        }
    }

    /// Rows the recent-window aggregate covers.
    fn recent(&self) -> usize {
        RECENT_ROWS.min(self.rows.len() / 4)
    }

    fn timed(&self, i: usize) -> i64 {
        (i as i64 + 1) * ROW_MS
    }

    fn element(&self, i: usize) -> StreamElement {
        let r = &self.rows[i];
        StreamElement::new(
            Arc::clone(&self.schema),
            vec![
                Value::Double(r.temperature),
                Value::Double(r.light),
                Value::Integer(r.mote),
                self.payload.clone(),
            ],
            Timestamp(self.timed(i)),
        )
        .expect("row matches the schema")
    }

    fn sql(&self, op: &Op) -> String {
        let n = self.rows.len();
        match op.kind {
            Kind::FullAggregate => format!(
                "select count(*) as n, sum(mote_id) as s, min(temperature) as lo, max(light) as hi from {SENSOR}"
            ),
            Kind::FullGroup => {
                format!("select mote_id, count(*) as n, max(temperature) as hi from {SENSOR} group by mote_id")
            }
            Kind::Recent => format!(
                "select count(*) as n, max(temperature) as hi, sum(mote_id) as s from {SENSOR} where timed > {}",
                self.timed(n - self.recent() - 1)
            ),
            Kind::Point => format!(
                "select pk, mote_id, temperature from {SENSOR} where pk = {}",
                op.arg + 1
            ),
            Kind::Range => format!(
                "select pk, mote_id, light from {SENSOR} where timed >= {} and timed < {}",
                self.timed(op.arg as usize),
                self.timed((op.arg + RANGE_ROWS) as usize)
            ),
            Kind::Limit => format!(
                "select pk, mote_id, light from {SENSOR} where mote_id = {} limit 10",
                op.arg
            ),
        }
    }

    /// True when `result` is the right answer to `op` over the generated rows.
    fn check(&self, op: &Op, result: &Relation) -> bool {
        let rows = result.rows();
        let int = |v: &Value| v.as_integer();
        let dbl = |v: &Value| v.as_double();
        match op.kind {
            Kind::FullAggregate | Kind::Recent => {
                let from = if op.kind == Kind::Recent {
                    self.rows.len() - self.recent()
                } else {
                    0
                };
                let slice = &self.rows[from..];
                let count = slice.len() as i64;
                let sum: i64 = slice.iter().map(|r| r.mote).sum();
                let lo = slice.iter().map(|r| r.temperature).fold(f64::MAX, f64::min);
                let hi_t = slice.iter().map(|r| r.temperature).fold(f64::MIN, f64::max);
                let hi_l = slice.iter().map(|r| r.light).fold(f64::MIN, f64::max);
                let Some(row) = rows.first() else {
                    return false;
                };
                rows.len() == 1
                    && match op.kind {
                        Kind::Recent => {
                            int(&row[0]) == Some(count)
                                && dbl(&row[1]) == Some(hi_t)
                                && int(&row[2]) == Some(sum)
                        }
                        _ => {
                            int(&row[0]) == Some(count)
                                && int(&row[1]) == Some(sum)
                                && dbl(&row[2]) == Some(lo)
                                && dbl(&row[3]) == Some(hi_l)
                        }
                    }
            }
            Kind::FullGroup => {
                let mut expect: BTreeMap<i64, (i64, f64)> = BTreeMap::new();
                for r in &self.rows {
                    let e = expect.entry(r.mote).or_insert((0, f64::MIN));
                    e.0 += 1;
                    e.1 = e.1.max(r.temperature);
                }
                let mut got: BTreeMap<i64, (i64, f64)> = BTreeMap::new();
                for row in rows {
                    let (Some(m), Some(n), Some(hi)) = (int(&row[0]), int(&row[1]), dbl(&row[2]))
                    else {
                        return false;
                    };
                    got.insert(m, (n, hi));
                }
                got == expect
            }
            Kind::Point => {
                let r = &self.rows[op.arg as usize];
                rows.len() == 1
                    && int(&rows[0][0]) == Some(op.arg + 1)
                    && int(&rows[0][1]) == Some(r.mote)
                    && dbl(&rows[0][2]) == Some(r.temperature)
            }
            Kind::Range => {
                let from = op.arg as usize;
                rows.len() == RANGE_ROWS as usize
                    && rows.iter().enumerate().all(|(i, row)| {
                        let r = &self.rows[from + i];
                        int(&row[0]) == Some((from + i) as i64 + 1)
                            && int(&row[1]) == Some(r.mote)
                            && dbl(&row[2]) == Some(r.light)
                    })
            }
            Kind::Limit => {
                let matching = self.rows.iter().filter(|r| r.mote == op.arg).count();
                let mut pks: Vec<i64> = rows.iter().filter_map(|row| int(&row[0])).collect();
                pks.sort_unstable();
                pks.dedup();
                rows.len() == matching.min(10)
                    && pks.len() == rows.len()
                    && rows.iter().all(|row| {
                        let Some(pk) = int(&row[0]) else {
                            return false;
                        };
                        let Some(r) = usize::try_from(pk - 1).ok().and_then(|i| self.rows.get(i))
                        else {
                            return false;
                        };
                        r.mote == op.arg
                            && int(&row[1]) == Some(op.arg)
                            && dbl(&row[2]) == Some(r.light)
                    })
            }
        }
    }

    fn env(&self) -> Json {
        Json::obj()
            .int("rows", self.rows.len() as u64)
            .int("payload_bytes", PAYLOAD_BYTES as u64)
            .int("recent_rows", self.recent() as u64)
            .int("range_rows", RANGE_ROWS as u64)
            .str(
                "mix",
                "full aggregate, point, range, limit 10, recent aggregate, point, range, limit 10, full group-by",
            )
            .str("load", "closed loop, one client")
            .str("flush_policy", "default (SyncMode::OnCheckpoint), flushed after the build")
            .int("workers", 1)
    }
}

fn descriptor() -> VirtualSensorDescriptor {
    // The wrapper never fires during a run: the history is inserted directly.
    let address = AddressSpec::new("mote").with_predicate("interval", "1000000000");
    VirtualSensorDescriptor::builder(SENSOR)
        .expect("valid sensor name")
        .output_field("temperature", DataType::Double)
        .expect("valid field")
        .output_field("light", DataType::Double)
        .expect("valid field")
        .output_field("mote_id", DataType::Integer)
        .expect("valid field")
        .output_field("payload", DataType::Binary)
        .expect("valid field")
        .permanent_storage(true)
        .input_stream(
            InputStreamSpec::new("main", "select * from src").with_source(
                StreamSourceSpec::new(
                    "src",
                    address,
                    "select temperature, light, mote_id, padding from WRAPPER",
                )
                .with_window(WindowSpec::Count(1)),
            ),
        )
        .build()
        .expect("valid descriptor")
}

/// Deploys the sensor and writes the whole history into its durable table.
/// `insert` wraps each storage insert (the traced run spans it).
fn build(
    plan: &Plan,
    dir: &std::path::Path,
    mut insert: impl FnMut(&dyn Fn() -> bool) -> bool,
) -> (GsnContainer, SimulatedClock) {
    let clock = SimulatedClock::new();
    let mut container = GsnContainer::new(
        ContainerConfig::default().with_data_dir(dir),
        Arc::new(clock.clone()),
    );
    container
        .deploy_xml(&plan.xml)
        .expect("deploy history sensor");
    let storage = Arc::clone(container.storage());
    for i in 0..plan.rows.len() {
        let element = plan.element(i);
        let ts = Timestamp(plan.timed(i));
        let ok = insert(&|| storage.insert(SENSOR, element.clone(), ts).is_ok());
        assert!(ok, "history insert {i} failed");
    }
    container.flush_storage().expect("flush history");
    clock.set(Timestamp(plan.timed(plan.rows.len())));
    (container, clock)
}

pub fn run(s: &Settings) -> Outcome {
    let plan = Plan::new(s);
    let mut out = Outcome::default();
    let dir = s.data_dir("adhoc");
    let ((container, _clock), setup_s) = s.set_up(Some(&dir), || build(&plan, &dir, |f| f()));
    out.setup_s = setup_s;

    // Warm-up, untimed: one pass of the mix fills the pool and the caches.
    for op in plan.ops.iter().take(MIX.len()) {
        let _ = container.query(&plan.sql(op));
    }
    let mut all = Samples::default();
    let mut by_kind: BTreeMap<Kind, Samples> = BTreeMap::new();
    let started = Instant::now();
    let mut i = 0usize;
    while started.elapsed() < s.seconds {
        let op = &plan.ops[i % plan.ops.len()];
        i += 1;
        let sql = plan.sql(op);
        let t = Instant::now();
        let result = container.query(&sql);
        let took = t.elapsed();
        out.rate.push(1, took);
        all.push(took.as_secs_f64() * 1e3);
        by_kind
            .entry(op.kind)
            .or_default()
            .push(took.as_secs_f64() * 1e3);
        out.attempted += 1;
        if !result.map(|r| plan.check(op, &r)).unwrap_or(false) {
            out.failed += 1;
            if out.failed <= 3 {
                eprintln!("wrong result for: {sql}");
            }
        }
    }
    let mut lookups = Samples::default();
    let mut scans = Samples::default();
    let mut kinds = Json::obj();
    for (kind, samples) in &by_kind {
        if kind.is_scan() {
            if *kind != Kind::Recent {
                scans.extend(samples);
            }
        } else {
            lookups.extend(samples);
        }
        kinds = kinds.obj_field(&format!("{kind:?}"), samples.summary());
    }
    out.report = Json::obj()
        .obj_field("adhoc_lookup", lookups.summary())
        .obj_field("adhoc_scan", scans.summary())
        .obj_field("by_kind", kinds)
        .int("data_dir_bytes", crate::util::dir_bytes(&dir));
    out.latency = all;
    out.env = plan.env();
    drop(container);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

pub fn trace(s: &Settings) -> Traced {
    let plan = Plan::new(s);
    let mut out = Traced::default();

    // Untraced twin: the container's own query path on the same history.
    let dir = s.data_dir("adhoc");
    let mut tracer = Tracer::new();
    let deploy_at = Instant::now();
    let (container, _clock) = build(&plan, &dir, |f| tracer.span("storage.insert", |_| f()));
    let build_s = deploy_at.elapsed().as_secs_f64();
    let insert_span_us = tracer.self_us_total("storage.insert");
    let wal_hist = &container.storage().telemetry().wal_append_micros;
    let (wal_hist_us, wal_hist_n) = (wal_hist.sum() as f64, wal_hist.count());
    let mut untraced_busy = Duration::ZERO;
    let mut untraced_ops = 0u64;
    let started = Instant::now();
    while started.elapsed() < s.seconds / 2 {
        let sql = plan.sql(&plan.ops[untraced_ops as usize % plan.ops.len()]);
        let t = Instant::now();
        let _ = container.query(&sql);
        untraced_busy += t.elapsed();
        untraced_ops += 1;
    }

    // Traced: the same path composed from the SQL and storage layers' calls.
    let storage = Arc::clone(container.storage());
    let pool = storage.buffer_pool();
    let misses_before = pool.stats().misses;
    let skipped_before = storage.telemetry().index_pages_skipped.get();
    let mut steady = Tracer::new();
    let mut traced_busy = Duration::ZERO;
    let (mut scanned, mut returned) = (0u64, 0u64);
    let now = Timestamp(plan.timed(plan.rows.len()));
    let started = Instant::now();
    let mut i = 0usize;
    while started.elapsed() < s.seconds / 2 {
        let op = &plan.ops[i % plan.ops.len()];
        i += 1;
        let sql = plan.sql(op);
        let t = Instant::now();
        let result = steady.span("query", |t| -> gsn::GsnResult<Relation> {
            let ast = t.span("sql.parse", |_| parse_query(&sql))?;
            let plan = t.span("sql.plan", |_| {
                plan_query(&ast).and_then(|p| optimizer::optimize(p, &Default::default()))
            })?;
            let catalog = LiveCatalog::new(&storage, &[], now);
            let mut source = t.span("storage.scan_open", |_| open_plan(&plan, &catalog))?;
            let rows = t.span("sql.exec", |_| -> gsn::GsnResult<Vec<Vec<Value>>> {
                let mut rows = Vec::new();
                while let Some(row) = source.next_row()? {
                    rows.push(row);
                }
                Ok(rows)
            })?;
            scanned += source.rows_scanned();
            returned += rows.len() as u64;
            let columns = source.columns().to_vec();
            t.span("sql.collect", |_| Relation::with_rows(columns, rows))
        });
        traced_busy += t.elapsed();
        out.attempted += 1;
        if !result.map(|r| plan.check(op, &r)).unwrap_or(false) {
            out.failed += 1;
        }
    }
    let pages_read = pool.stats().misses - misses_before;
    let pages_skipped = storage.telemetry().index_pages_skipped.get() - skipped_before;

    let mut l = Layers::default();
    l.mean_self("sql.parse_us", &steady, "sql.parse");
    l.mean_self("sql.plan_us", &steady, "sql.plan");
    l.mean_self("storage.scan_open_us", &steady, "storage.scan_open");
    l.set(
        "sql.exec_us_per_row",
        steady.self_us_total("sql.exec") / scanned.max(1) as f64,
    );
    l.mean_self("sql.collect_us", &steady, "sql.collect");
    l.set("storage.pages_read", pages_read as f64);
    l.set("storage.pages_skipped", pages_skipped as f64);
    l.set(
        "storage.rows_examined_per_row_returned",
        scanned as f64 / returned.max(1) as f64,
    );
    l.set(
        "storage.insert_us.durable_small",
        insert_span_us / plan.rows.len().max(1) as f64,
    );
    l.coverage(
        &steady,
        "query",
        untraced_busy.as_secs_f64() / untraced_ops.max(1) as f64,
        traced_busy.as_secs_f64() / out.attempted.max(1) as f64,
    );
    out.report = Json::obj()
        .obj_field("self_time_us", self_time_report(&steady))
        .num("history_build_s", build_s)
        .obj_field(
            "wal_append_histogram_vs_insert_spans",
            Json::obj()
                .int("inserts", plan.rows.len() as u64)
                .int("histogram_count", wal_hist_n)
                .num("histogram_sum_us", wal_hist_us)
                .num("insert_span_sum_us", insert_span_us)
                .num("ratio", wal_hist_us / insert_span_us.max(1e-9)),
        )
        .int("untraced_queries", untraced_ops)
        .int("rows_scanned", scanned)
        .int("rows_returned", returned);
    out.env = plan.env();
    write_spans(s, "adhoc_history", &steady);
    out.layers = l.0;
    drop(container);
    let _ = std::fs::remove_dir_all(&dir);
    out
}
