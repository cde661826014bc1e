//! End-to-end tests of the HTTP/JSON API over a real socket: every
//! endpoint, the error paths, cache behavior, and `/reload` from on-disk
//! files.

use et_community::{
    batch_query_communities, community_of_edge, community_stats, query_communities,
};
use et_core::{build_index, Variant};
use et_graph::{EdgeIndexedGraph, GraphBuilder};
use et_obs::json::{self, Value};
use et_serve::{ReloadSpec, ServeConfig, ServeState, Server, SharedIndex};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

fn clique_edges(vertices: &[u32]) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for i in 0..vertices.len() {
        for j in (i + 1)..vertices.len() {
            let (a, b) = (vertices[i], vertices[j]);
            edges.push((a.min(b), a.max(b)));
        }
    }
    edges
}

/// Two disjoint cliques: K4 on {0..3} and K5 on {4..8}.
fn fixture_state() -> ServeState {
    let mut edges = clique_edges(&[0, 1, 2, 3]);
    edges.extend(clique_edges(&[4, 5, 6, 7, 8]));
    let graph = EdgeIndexedGraph::new(GraphBuilder::from_edges(9, &edges).build());
    let build = build_index(&graph, Variant::Afforest);
    ServeState::new(graph, build.index, build.hierarchy)
}

fn start_server(state: ServeState, cache: usize, reload: Option<ReloadSpec>) -> Server {
    let shared = Arc::new(SharedIndex::new(state, cache, reload));
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
    };
    Server::start(shared, &config).expect("server binds")
}

/// One-shot request over a fresh connection (`Connection: close`); the body
/// as the server wrote it.
fn request_raw(addr: SocketAddr, method: &str, target: &str, body: Option<&str>) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut req = format!("{method} {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n");
    match body {
        Some(b) => {
            req.push_str(&format!("Content-Length: {}\r\n\r\n{b}", b.len()));
        }
        None => req.push_str("\r\n"),
    }
    stream.write_all(req.as_bytes()).expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {raw:?}"));
    let payload = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or_default();
    (status, payload.to_string())
}

/// [`request_raw`] with the body parsed.
fn request(addr: SocketAddr, method: &str, target: &str, body: Option<&str>) -> (u16, Value) {
    let (status, payload) = request_raw(addr, method, target, body);
    let value = json::parse(&payload).unwrap_or_else(|e| panic!("bad body {payload:?}: {e}"));
    (status, value)
}

fn join<T: ToString>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|item| item.to_string()).collect();
    items.join(",")
}

/// `/edge`, `/batch` and `/query?members=1` answer from hierarchy aggregates
/// and leaf slices; every body must be, byte for byte, the one rendered here
/// from the library calls that materialize the communities.
fn check_bodies_against_materialized_answers(state: ServeState) {
    let server = start_server(state, 0, None);
    let addr = server.local_addr();
    let (state, _) = server.shared().swap().load();
    let (graph, index, hierarchy) = (&state.graph, &state.index, &state.hierarchy);
    let kmax = index.sn_trussness.iter().copied().max().unwrap_or(3);
    let levels = 2..=kmax + 1;

    for (e, u, v) in graph.edges() {
        for k in levels.clone() {
            let found = match community_of_edge(graph, index, hierarchy, e, k) {
                Some(c) => {
                    let (supernodes, edges) = (c.supernodes.len(), c.edges.len());
                    format!(r#""found":true,"supernodes":{supernodes},"edges":{edges}"#)
                }
                None => r#""found":false"#.to_string(),
            };
            let want = format!(r#"{{"epoch":1,"u":{u},"v":{v},"k":{k},{found}}}"#);
            let (status, got) = request_raw(addr, "GET", &format!("/edge?u={u}&v={v}&k={k}"), None);
            assert_eq!((status, got), (200, want));
        }
    }

    let mut pairs = Vec::new();
    for q in 0..graph.num_vertices() as u32 + 1 {
        for k in levels.clone() {
            pairs.push((q, k));
            let answer = query_communities(graph, index, hierarchy, q, k);
            // `stats` is in hierarchy-node order, which no materialized answer
            // carries; its sizes must be the answer's sizes.
            let stats = community_stats(graph, index, hierarchy, q, k);
            let mut sizes: Vec<_> = stats
                .iter()
                .map(|s| (s.supernodes as usize, s.edges as usize))
                .collect();
            sizes.sort_unstable();
            let mut want_sizes: Vec<_> = answer
                .iter()
                .map(|c| (c.supernodes.len(), c.edges.len()))
                .collect();
            want_sizes.sort_unstable();
            assert_eq!(sizes, want_sizes, "q={q} k={k}");
            let stats = join(
                stats
                    .iter()
                    .map(|s| format!(r#"{{"supernodes":{},"edges":{}}}"#, s.supernodes, s.edges)),
            );
            let members = join(
                answer
                    .iter()
                    .map(|c| format!("[{}]", join(c.vertices(graph)))),
            );
            let want = format!(
                r#"{{"epoch":1,"v":{q},"k":{k},"communities":{},"stats":[{stats}],"members":[{members}]}}"#,
                answer.len()
            );
            let target = format!("/query?v={q}&k={k}&members=1");
            assert_eq!(request_raw(addr, "GET", &target, None), (200, want));
        }
    }

    let answers = batch_query_communities(graph, index, hierarchy, &pairs);
    let rows = join(answers.iter().map(|cs| {
        let edges: usize = cs.iter().map(|c| c.edges.len()).sum();
        format!(r#"{{"communities":{},"edges":{edges}}}"#, cs.len())
    }));
    let want = format!(r#"{{"epoch":1,"results":[{rows}]}}"#);
    let body = format!(
        r#"{{"queries": [{}]}}"#,
        join(pairs.iter().map(|(q, k)| format!("[{q}, {k}]")))
    );
    assert_eq!(
        request_raw(addr, "POST", "/batch", Some(&body)),
        (200, want)
    );
    server.stop();
}

#[test]
fn aggregate_bodies_equal_materialized_bodies_on_the_fixture() {
    check_bodies_against_materialized_answers(fixture_state());
}

/// The same on a collaboration graph with overlapping communities, loaded
/// from disk through each storage backend.
#[test]
fn aggregate_bodies_equal_materialized_bodies_on_a_collaboration_graph() {
    let dir = std::env::temp_dir().join(format!("et-serve-bodies-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    let (graph_path, index_path) = (dir.join("g.bin"), dir.join("g.etidx"));
    let csr = et_gen::overlapping_cliques(60, 24, (3, 6), 20, 5);
    et_graph::io::write_binary(&csr, &graph_path).expect("write graph");
    let graph = EdgeIndexedGraph::new(csr);
    let decomposition = et_truss::decompose_parallel(&graph);
    let build = build_index(&graph, Variant::Afforest);
    let overlap = (3..=decomposition.max_trussness).any(|k| {
        let counts = et_community::membership_counts(&graph, &build.index, &build.hierarchy, k);
        counts.iter().any(|&count| count >= 2)
    });
    assert!(
        overlap,
        "some vertex must sit in two communities, or `members` has no order to get wrong"
    );
    et_core::io::write_index_with_hierarchy(
        &build.index,
        &decomposition.trussness,
        &build.hierarchy,
        &index_path,
    )
    .expect("write index");
    for backend in [et_graph::Backend::Owned, et_graph::Backend::Mapped] {
        let state = ServeState::load(&graph_path, &index_path, backend).expect("load");
        check_bodies_against_materialized_answers(state);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn healthz_reports_epoch() {
    let server = start_server(fixture_state(), 0, None);
    let (status, doc) = request(server.local_addr(), "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(doc["ok"].as_bool(), Some(true));
    assert_eq!(doc["epoch"].as_u64(), Some(1));
    server.stop();
}

#[test]
fn query_returns_stats_and_members() {
    let server = start_server(fixture_state(), 0, None);
    let addr = server.local_addr();

    // Vertex 0 sits in the K4: one community of 6 edges at k=4.
    let (status, doc) = request(addr, "GET", "/query?v=0&k=4", None);
    assert_eq!(status, 200);
    assert_eq!(doc["communities"].as_u64(), Some(1));
    assert_eq!(doc["stats"][0]["edges"].as_u64(), Some(6));

    // Vertex 4 sits in the K5: one community of 10 edges at k=4.
    let (_, doc) = request(addr, "GET", "/query?v=4&k=4", None);
    assert_eq!(doc["stats"][0]["edges"].as_u64(), Some(10));

    // K4 dissolves at k=5; the K5 survives.
    let (_, doc) = request(addr, "GET", "/query?v=0&k=5", None);
    assert_eq!(doc["communities"].as_u64(), Some(0));
    let (_, doc) = request(addr, "GET", "/query?v=4&k=5", None);
    assert_eq!(doc["communities"].as_u64(), Some(1));

    // members=1 materializes the vertex lists.
    let (_, doc) = request(addr, "GET", "/query?v=0&k=4&members=1", None);
    let members: Vec<u64> = doc["members"][0]
        .as_array()
        .expect("members array")
        .iter()
        .map(|v| v.as_u64().unwrap())
        .collect();
    assert_eq!(members, [0, 1, 2, 3]);
    server.stop();
}

#[test]
fn query_cache_hits_are_counted_and_identical() {
    let server = start_server(fixture_state(), 64, None);
    let addr = server.local_addr();
    let (_, first) = request(addr, "GET", "/query?v=0&k=4", None);
    let (_, second) = request(addr, "GET", "/query?v=0&k=4", None);
    assert_eq!(first, second);
    let m = server.shared().metrics();
    assert_eq!(
        m.cache_hits.load(std::sync::atomic::Ordering::Relaxed),
        1,
        "second identical query must hit the cache"
    );
    assert_eq!(m.cache_misses.load(std::sync::atomic::Ordering::Relaxed), 1);
    server.stop();
}

#[test]
fn edge_endpoint_finds_and_rejects() {
    let server = start_server(fixture_state(), 0, None);
    let addr = server.local_addr();
    let (status, doc) = request(addr, "GET", "/edge?u=0&v=1&k=4", None);
    assert_eq!(status, 200);
    assert_eq!(doc["found"].as_bool(), Some(true));
    assert_eq!(doc["edges"].as_u64(), Some(6));

    // Edge exists but dissolves at k=5.
    let (_, doc) = request(addr, "GET", "/edge?u=0&v=1&k=5", None);
    assert_eq!(doc["found"].as_bool(), Some(false));

    // No edge between the cliques.
    let (status, _) = request(addr, "GET", "/edge?u=0&v=4&k=3", None);
    assert_eq!(status, 404);
    server.stop();
}

#[test]
fn batch_matches_individual_queries() {
    let server = start_server(fixture_state(), 0, None);
    let addr = server.local_addr();
    let body = r#"{"queries": [[0, 4], [4, 4], [0, 5]]}"#;
    let (status, doc) = request(addr, "POST", "/batch", Some(body));
    assert_eq!(status, 200);
    let results = doc["results"].as_array().expect("results");
    assert_eq!(results.len(), 3);
    assert_eq!(results[0]["edges"].as_u64(), Some(6));
    assert_eq!(results[1]["edges"].as_u64(), Some(10));
    assert_eq!(results[2]["communities"].as_u64(), Some(0));
    server.stop();
}

#[test]
fn stats_reports_shapes_and_counters() {
    let server = start_server(fixture_state(), 8, None);
    let addr = server.local_addr();
    request(addr, "GET", "/query?v=0&k=4", None);
    let (status, doc) = request(addr, "GET", "/stats", None);
    assert_eq!(status, 200);
    assert_eq!(doc["graph"]["vertices"].as_u64(), Some(9));
    assert_eq!(doc["graph"]["edges"].as_u64(), Some(16));
    assert!(doc["index"]["supernodes"].as_u64().unwrap() > 0);
    assert!(doc["serve"]["requests"].as_u64().unwrap() >= 1);
    assert_eq!(doc["serve"]["cache"]["capacity"].as_u64(), Some(8));
    assert!(
        doc["serve"]["latency_us"]["query"]["count"]
            .as_u64()
            .unwrap()
            >= 1
    );
    server.stop();
}

#[test]
fn error_paths() {
    let server = start_server(fixture_state(), 0, None);
    let addr = server.local_addr();
    for (method, target, body, want) in [
        ("GET", "/query?v=0", None, 400),                      // missing k
        ("GET", "/query?v=abc&k=4", None, 400),                // non-numeric
        ("GET", "/nope", None, 404),                           // unknown endpoint
        ("GET", "/batch", None, 405),                          // wrong method
        ("POST", "/query?v=0&k=4", None, 405),                 // wrong method
        ("POST", "/batch", Some("{"), 400),                    // malformed body
        ("POST", "/batch", Some("{\"queries\": [[1]]}"), 400), // bad pair
        ("POST", "/reload", None, 400),                        // reload not configured
    ] {
        let (status, doc) = request(addr, method, target, body);
        assert_eq!(status, want, "{method} {target}");
        assert!(doc["error"].as_str().is_some(), "{method} {target}");
    }
    let m = server.shared().metrics();
    assert!(m.errors.load(std::sync::atomic::Ordering::Relaxed) >= 8);
    server.stop();
}

#[test]
fn out_of_range_queries_answer_empty() {
    let server = start_server(fixture_state(), 0, None);
    let addr = server.local_addr();
    let (status, doc) = request(addr, "GET", "/query?v=9999&k=4", None);
    assert_eq!(status, 200);
    assert_eq!(doc["communities"].as_u64(), Some(0));
    let (status, doc) = request(addr, "GET", "/query?v=0&k=2", None);
    assert_eq!(status, 200, "k < 3 answers empty, not an error");
    assert_eq!(doc["communities"].as_u64(), Some(0));
    server.stop();
}

#[test]
fn reload_republishes_from_disk() {
    let dir = std::env::temp_dir().join(format!("et-serve-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    let graph_path: PathBuf = dir.join("g.txt");
    let index_path: PathBuf = dir.join("g.etidx");

    // The on-disk pair is a single K6 — distinguishable from the fixture.
    let edges = clique_edges(&[0, 1, 2, 3, 4, 5]);
    let text: String = edges.iter().map(|(u, v)| format!("{u} {v}\n")).collect();
    std::fs::write(&graph_path, text).expect("write graph");
    let graph = EdgeIndexedGraph::new(GraphBuilder::from_edges(6, &edges).build());
    let decomposition = et_truss::decompose_parallel(&graph);
    let build = build_index(&graph, Variant::Afforest);
    et_core::io::write_index_with_hierarchy(
        &build.index,
        &decomposition.trussness,
        &build.hierarchy,
        &index_path,
    )
    .expect("write index");

    let spec = ReloadSpec {
        graph: graph_path,
        index: index_path,
        backend: et_graph::Backend::Owned,
    };
    let server = start_server(fixture_state(), 16, Some(spec));
    let addr = server.local_addr();

    // Warm the cache on the old epoch, then reload.
    let (_, doc) = request(addr, "GET", "/query?v=0&k=4", None);
    assert_eq!(doc["stats"][0]["edges"].as_u64(), Some(6));
    let (status, doc) = request(addr, "POST", "/reload", None);
    assert_eq!(status, 200);
    assert_eq!(doc["epoch"].as_u64(), Some(2));

    // The same query now answers from the K6 — the cached K4 answer from
    // epoch 1 must not survive the publish.
    let (_, doc) = request(addr, "GET", "/query?v=0&k=4", None);
    assert_eq!(doc["epoch"].as_u64(), Some(2));
    assert_eq!(doc["stats"][0]["edges"].as_u64(), Some(15));
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}
