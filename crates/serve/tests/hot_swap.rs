//! Satellite: concurrent hot-swap over the wire. Reader threads hammer
//! `/batch` over real sockets while a writer publishes a rebuilt index N
//! times; every response must be internally consistent with exactly one
//! published epoch — the reported community sizes must match the clique
//! size that epoch serves, never a mix. Run at 1, 4, and 8 reader threads.

use et_core::{build_index, SuperGraph, TrussHierarchy, Variant};
use et_graph::{EdgeIndexedGraph, GraphBuilder};
use et_obs::json;
use et_serve::{ServeConfig, ServeState, Server, SharedIndex};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const PUBLISHES: u64 = 30;

/// Clique sizes cycled by the writer. Epoch `e` serves `K(sizes[(e-1) % 3])`,
/// so a response claiming epoch `e` must report exactly `C(size, 2)` edges.
const SIZES: [u32; 3] = [4, 5, 6];

fn size_for_epoch(epoch: u64) -> u32 {
    SIZES[((epoch - 1) % SIZES.len() as u64) as usize]
}

fn expected_edges(size: u32) -> u64 {
    u64::from(size) * u64::from(size - 1) / 2
}

fn clique_components(size: u32) -> (EdgeIndexedGraph, SuperGraph, TrussHierarchy) {
    let mut edges = Vec::new();
    for u in 0..size {
        for v in (u + 1)..size {
            edges.push((u, v));
        }
    }
    let graph = EdgeIndexedGraph::new(GraphBuilder::from_edges(size as usize, &edges).build());
    let build = build_index(&graph, Variant::Afforest);
    (graph, build.index, build.hierarchy)
}

/// One keep-alive client: POSTs `/batch` in a loop, checking every response
/// against the published-state contract. Returns the number of requests it
/// completed.
fn reader_loop(addr: std::net::SocketAddr, done: &AtomicBool) -> u64 {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let read_half = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let body = r#"{"queries": [[0, 3], [1, 3]]}"#;
    let mut last_epoch = 0u64;
    let mut completed = 0u64;
    while !done.load(Ordering::Acquire) {
        write!(
            writer,
            "POST /batch HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("send");
        writer.flush().expect("flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("status line");
        assert!(line.starts_with("HTTP/1.1 200"), "bad status: {line:?}");
        let mut content_length = 0usize;
        loop {
            line.clear();
            reader.read_line(&mut line).expect("header");
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some(v) = trimmed
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
                .and_then(|v| v.parse().ok())
            {
                content_length = v;
            }
        }
        let mut raw = vec![0u8; content_length];
        reader.read_exact(&mut raw).expect("body");
        let doc = json::parse(std::str::from_utf8(&raw).unwrap()).expect("json");

        let epoch = doc["epoch"].as_u64().expect("epoch");
        assert!(
            epoch >= last_epoch,
            "epoch went backwards on one connection: {last_epoch} -> {epoch}"
        );
        last_epoch = epoch;
        let want = expected_edges(size_for_epoch(epoch));
        let results = doc["results"].as_array().expect("results");
        assert_eq!(results.len(), 2);
        for (i, r) in results.iter().enumerate() {
            // Both query vertices live in the single clique, so each must
            // see exactly one community whose edge count matches the clique
            // the claimed epoch serves — any other count is a torn read.
            assert_eq!(
                r["communities"].as_u64(),
                Some(1),
                "epoch {epoch} result {i}"
            );
            assert_eq!(
                r["edges"].as_u64(),
                Some(want),
                "torn read: epoch {epoch} (K{}) reported wrong edge count",
                size_for_epoch(epoch)
            );
        }
        completed += 1;
    }
    completed
}

#[test]
fn http_batch_sees_no_torn_reads_across_publishes() {
    // Prebuild the three states once; publishes clone the components.
    let states: Vec<_> = SIZES.iter().map(|&s| clique_components(s)).collect();

    for readers in [1usize, 4, 8] {
        let (g, i, h) = &states[0];
        let initial = ServeState::new(g.clone(), i.clone(), h.clone());
        let shared = Arc::new(SharedIndex::new(initial, 128, None));
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: readers + 1,
        };
        let server = Server::start(Arc::clone(&shared), &config).expect("server starts");
        let addr = server.local_addr();
        let done = Arc::new(AtomicBool::new(false));

        let handles: Vec<_> = (0..readers)
            .map(|_| {
                let done = Arc::clone(&done);
                std::thread::spawn(move || reader_loop(addr, &done))
            })
            .collect();

        for publish in 0..PUBLISHES {
            // The next publish lands on epoch 2 + publish; pick the clique
            // the readers will expect for that epoch.
            let (g, i, h) = &states[((publish + 1) % SIZES.len() as u64) as usize];
            let epoch = shared.publish(ServeState::new(g.clone(), i.clone(), h.clone()));
            assert_eq!(epoch, 2 + publish);
            // Let requests land between publishes; without this the writer
            // can finish before a reader completes its first roundtrip.
            std::thread::sleep(std::time::Duration::from_millis(2));
        }

        done.store(true, Ordering::Release);
        let mut total = 0;
        for h in handles {
            total += h.join().expect("reader panicked");
        }
        assert!(total > 0, "readers completed no requests");
        assert_eq!(shared.swap().epoch(), 1 + PUBLISHES);
        server.stop();
    }
}
