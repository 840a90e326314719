//! The peer-request lifecycle: every request a container sends a peer — remote
//! queries, federated queries, metrics scrapes, trace collections, subscriptions —
//! ends in a result or a typed timeout, and no tracked request outlives its owner.

use gsn::network::{LinkSpec, Principal};
use gsn::types::{DataType, Duration, NodeId, Timestamp};
use gsn::xml::{AddressSpec, InputStreamSpec, StreamSourceSpec, VirtualSensorDescriptor};
use gsn::{GsnContainer, Mesh, WindowSpec};
use proptest::prelude::*;

/// The request deadline (60 s without progress) plus one retry interval (2 s).
const DEADLINE_PLUS_RETRY: Duration = Duration::from_secs(62);

const KINDS: [&str; 5] = [
    "remote_query",
    "federated",
    "metrics_scrape",
    "trace_collect",
    "subscription",
];

fn producer(name: &str, fields: &[&str], interval_ms: u64) -> VirtualSensorDescriptor {
    let mut builder = VirtualSensorDescriptor::builder(name)
        .unwrap()
        .metadata("type", "temperature")
        .metadata("location", "mesh");
    for field in fields {
        builder = builder.output_field(field, DataType::Double).unwrap();
    }
    let select: Vec<String> = fields.iter().map(|f| format!("avg({f}) as {f}")).collect();
    builder
        .permanent_storage(true)
        .input_stream(
            InputStreamSpec::new("main", "select * from src").with_source(
                StreamSourceSpec::new(
                    "src",
                    AddressSpec::new("mote").with_predicate("interval", &interval_ms.to_string()),
                    &format!("select {} from WRAPPER", select.join(", ")),
                )
                .with_window(WindowSpec::Count(5)),
            ),
        )
        .build()
        .unwrap()
}

fn follower(name: &str) -> VirtualSensorDescriptor {
    VirtualSensorDescriptor::builder(name)
        .unwrap()
        .output_field("temperature", DataType::Double)
        .unwrap()
        .input_stream(
            InputStreamSpec::new("main", "select * from r").with_source(
                StreamSourceSpec::new(
                    "r",
                    AddressSpec::new("remote")
                        .with_predicate("type", "temperature")
                        .with_predicate("location", "mesh"),
                    "select avg(temperature) as temperature from WRAPPER",
                )
                .with_window(WindowSpec::Count(5)),
            ),
        )
        .build()
        .unwrap()
}

/// A mesh of `nodes` containers, each hosting a shard of `mesh_temp`, with converged
/// replicas.
fn mesh_with_shards(nodes: usize, interval_ms: u64) -> (Mesh, Vec<NodeId>) {
    let mut mesh = Mesh::new();
    let ids: Vec<NodeId> = (0..nodes)
        .map(|i| mesh.add_node(&format!("peer-{i}")).unwrap())
        .collect();
    for id in &ids {
        mesh.node_mut(*id)
            .unwrap()
            .deploy(producer("mesh-temp", &["temperature"], interval_ms))
            .unwrap();
    }
    mesh.run_for(Duration::from_secs(2), Duration::from_millis(100));
    assert!(mesh.replicas_converged());
    (mesh, ids)
}

fn counter(container: &GsnContainer, name: &str) -> u64 {
    container
        .metrics_snapshot()
        .get(name)
        .and_then(|s| s.as_counter())
        .unwrap_or(0)
}

fn pending_of_kind(container: &GsnContainer, kind: &str) -> i64 {
    container
        .metrics_snapshot()
        .get_labeled("gsn_federation_requests_pending", kind)
        .and_then(|s| s.as_gauge())
        .unwrap_or(0)
}

/// A row-ship federated query fails on the host that refuses the coordinator; its
/// sub-query to the slow host must not outlive it.
#[test]
fn failed_row_ship_query_cancels_its_sub_queries() {
    let (mut mesh, ids) = mesh_with_shards(3, 100);
    let coordinator = ids[0];
    mesh.node(ids[1])
        .unwrap()
        .access_control()
        .restrict_sensor("mesh_temp", vec![Principal::named("operator")]);
    mesh.set_link(coordinator, ids[2], LinkSpec::wireless(400, 0.0));

    let outcome = mesh.federated_query(
        coordinator,
        "select * from mesh_temp",
        Duration::from_millis(100),
        50,
    );
    let error = outcome.expect_err("host 1 refuses the coordinator");
    assert_eq!(error.category(), "sql-execution", "{error}");
    assert_eq!(mesh.node(coordinator).unwrap().pending_remote_queries(), 0);

    mesh.run_for(Duration::from_secs(125), Duration::from_millis(500));
    let node = mesh.node(coordinator).unwrap();
    assert_eq!(node.pending_remote_queries(), 0);
    assert_eq!(node.pending_federated_queries(), 0);
    for kind in KINDS {
        assert_eq!(pending_of_kind(node, kind), 0, "{kind}");
    }
}

/// Requests aimed at a node that left the mesh end in a typed timeout within the
/// deadline plus one retry interval, instead of vanishing.
#[test]
fn requests_to_a_departed_node_end_in_a_typed_timeout() {
    let (mut mesh, ids) = mesh_with_shards(3, 100);
    let (client, gone) = (ids[0], ids[2]);
    mesh.remove_node(gone).unwrap();
    let node = mesh.node_mut(client).unwrap();
    let query = node
        .remote_query(gone, "select * from mesh_temp", 16)
        .unwrap();
    let scrape = node.request_peer_metrics(gone).unwrap();
    let issued = mesh.now();

    let (mut query_outcome, mut scrape_outcome) = (None, None);
    while mesh.now() <= issued + DEADLINE_PLUS_RETRY {
        mesh.step(Duration::from_millis(500));
        let node = mesh.node_mut(client).unwrap();
        if query_outcome.is_none() {
            query_outcome = node.take_remote_query_result(query);
        }
        if scrape_outcome.is_none() {
            scrape_outcome = node.take_peer_metrics(scrape);
        }
    }
    let query_error = query_outcome
        .expect("the remote query never ended")
        .expect_err("nobody answers a departed node's requests");
    assert_eq!(query_error.category(), "timeout", "{query_error}");
    let scrape_error = scrape_outcome
        .expect("the metrics scrape never ended")
        .expect_err("nobody answers a departed node's requests");
    assert_eq!(scrape_error.category(), "timeout", "{scrape_error}");

    let node = mesh.node(client).unwrap();
    assert_eq!(node.pending_remote_queries(), 0);
    for kind in KINDS {
        assert_eq!(pending_of_kind(node, kind), 0, "{kind}");
    }
    let timeouts = node.metrics_snapshot();
    for kind in ["remote_query", "metrics_scrape"] {
        let count = timeouts
            .get_labeled("gsn_federation_request_timeouts_total", kind)
            .and_then(|s| s.as_counter());
        assert_eq!(count, Some(1), "{kind}");
    }
}

/// Two hosts deploy the same table name with different output fields: shipping both
/// hosts' rows fails the federated query instead of silently dropping rows.
#[test]
fn row_ship_column_mismatch_fails_the_federated_query() {
    let mut mesh = Mesh::new();
    let a = mesh.add_node("narrow").unwrap();
    let b = mesh.add_node("wide").unwrap();
    mesh.node_mut(a)
        .unwrap()
        .deploy(producer("shared-reading", &["temperature"], 100))
        .unwrap();
    mesh.node_mut(b)
        .unwrap()
        .deploy(producer("shared-reading", &["temperature", "light"], 100))
        .unwrap();
    mesh.run_for(Duration::from_secs(2), Duration::from_millis(100));

    let error = mesh
        .federated_query(
            a,
            "select * from shared_reading",
            Duration::from_millis(100),
            50,
        )
        .expect_err("the hosts disagree on the table's columns");
    assert_eq!(error.category(), "sql-execution", "{error}");
    assert!(error.message().contains("columns"), "{error}");
}

/// With only gossip on the wire, the nodes' gossip byte counters add up to exactly
/// the bytes the network accepted.
#[test]
fn gossip_bytes_match_the_network_byte_count() {
    let mut mesh = Mesh::new();
    let ids: Vec<NodeId> = (0..3)
        .map(|i| mesh.add_node(&format!("gossip-{i}")).unwrap())
        .collect();
    mesh.run_for(Duration::from_secs(1), Duration::from_millis(100));
    let gossip_total = |mesh: &Mesh| -> u64 {
        ids.iter()
            .map(|id| counter(mesh.node(*id).unwrap(), "gsn_federation_gossip_bytes_total"))
            .sum()
    };
    let (gossip_before, wire_before) = (gossip_total(&mesh), mesh.network().stats().bytes_sent);
    mesh.run_for(Duration::from_secs(5), Duration::from_millis(100));
    let gossip = gossip_total(&mesh) - gossip_before;
    let wire = mesh.network().stats().bytes_sent - wire_before;
    assert!(gossip > 0, "no gossip in the window");
    assert_eq!(gossip, wire);
}

/// One request issued during the proptest run, and how it ended.
enum Issued {
    Query { id: u64, target: NodeId },
    Federated(u64),
    Scrape { id: u64, target: NodeId },
    Collect,
    Subscribe,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every request of every kind, on a mesh whose links drop 30% of frames and one
    /// of whose nodes leaves at a random tick, ends in a result or a typed timeout
    /// within its deadline, and every pending count returns to zero.
    #[test]
    fn every_peer_request_ends_in_a_result_or_a_timeout(
        ops in prop::collection::vec((0u32..7, 0usize..3, 0usize..3, 0u64..24), 1..10),
        leaver in 0usize..4,
        leave_tick in 0u64..24,
    ) {
        let (mut mesh, ids) = mesh_with_shards(4, 1_000);
        mesh.set_all_links(LinkSpec::wireless(5, 0.3));
        let survivors: Vec<NodeId> = ids.iter().copied().filter(|id| *id != ids[leaver]).collect();
        let tick = Duration::from_millis(250);
        let mut issued: Vec<(NodeId, Timestamp, Issued)> = Vec::new();
        let mut followers = 0;
        for t in 0..24u64 {
            if t == leave_tick {
                mesh.remove_node(ids[leaver]).unwrap();
            }
            for (kind, issuer, target, at) in &ops {
                if *at != t {
                    continue;
                }
                let issuer = survivors[*issuer];
                let targets: Vec<NodeId> = ids.iter().copied().filter(|id| *id != issuer).collect();
                let target = targets[*target];
                let now = mesh.now();
                let node = mesh.node_mut(issuer).unwrap();
                let request = match kind {
                    0 => node
                        .remote_query(target, "select * from mesh_temp", 16)
                        .map(|id| Issued::Query { id, target }),
                    1 => node
                        .remote_query_prefetch(target, "select * from mesh_temp", 16)
                        .map(|id| Issued::Query { id, target }),
                    2 => node
                        .federated_query("select count(*) as n from mesh_temp")
                        .map(Issued::Federated),
                    3 => node
                        .federated_query("select * from mesh_temp")
                        .map(Issued::Federated),
                    4 => node
                        .request_peer_metrics(target)
                        .map(|id| Issued::Scrape { id, target }),
                    5 => node.collect_remote_spans(u128::from(t) + 1).map(|_| Issued::Collect),
                    _ => {
                        followers += 1;
                        node.deploy(follower(&format!("follower-{followers}")))
                            .map(|_| Issued::Subscribe)
                    }
                };
                issued.push((issuer, now, request.expect("issue")));
            }
            mesh.step(tick);
        }

        // Take every result as it lands, recording when.
        let last_issue = issued.iter().map(|(_, at, _)| *at).max().unwrap();
        let mut outcomes: Vec<Option<(Timestamp, Result<(), String>)>> =
            issued.iter().map(|_| None).collect();
        while mesh.now() <= last_issue + DEADLINE_PLUS_RETRY + tick {
            mesh.step(tick);
            let now = mesh.now();
            for ((issuer, _, request), outcome) in issued.iter().zip(outcomes.iter_mut()) {
                if outcome.is_some() {
                    continue;
                }
                let node = mesh.node_mut(*issuer).unwrap();
                let ended: Option<Result<(), gsn::GsnError>> = match request {
                    Issued::Query { id, .. } => node.take_remote_query_result(*id).map(|r| r.map(|_| ())),
                    Issued::Federated(id) => node.take_federated_result(*id).map(|r| r.map(|_| ())),
                    Issued::Scrape { id, .. } => node.take_peer_metrics(*id).map(|r| r.map(|_| ())),
                    Issued::Collect | Issued::Subscribe => None,
                };
                if let Some(result) = ended {
                    *outcome = Some((now, result.map_err(|e| e.category().to_owned())));
                }
            }
        }

        for ((_, at, request), outcome) in issued.iter().zip(&outcomes) {
            let (target, must_succeed) = match request {
                Issued::Query { target, .. } | Issued::Scrape { target, .. } => {
                    (Some(*target), *target != ids[leaver])
                }
                Issued::Federated(_) => (None, false),
                Issued::Collect | Issued::Subscribe => continue,
            };
            let (ended_at, result) = outcome
                .as_ref()
                .unwrap_or_else(|| panic!("request to {target:?} issued at {at} never ended"));
            prop_assert!(*ended_at <= *at + DEADLINE_PLUS_RETRY + tick, "ended at {ended_at}, issued at {at}");
            match result {
                Ok(()) => {}
                Err(category) => {
                    prop_assert_eq!(category.as_str(), "timeout");
                    prop_assert!(!must_succeed, "request to live {target:?} timed out");
                }
            }
        }
        for id in &survivors {
            let node = mesh.node(*id).unwrap();
            prop_assert_eq!(node.pending_remote_queries(), 0);
            prop_assert_eq!(node.pending_federated_queries(), 0);
            prop_assert_eq!(node.pending_trace_collects(), 0);
            for kind in KINDS {
                prop_assert_eq!(pending_of_kind(node, kind), 0, "{}", kind);
            }
        }
    }
}
