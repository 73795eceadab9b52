//! Every wire op over TCP through [`cdim_serve::spawn`]: queries, stats,
//! the metrics dump, the span flight recorder, an unknown opcode, and
//! shutdown. A binary of its own, so the one test that samples every
//! request into the process-global flight recorder shares it with no
//! other test's traffic.

use cdim_core::{scan, CreditPolicy};
use cdim_serve::protocol::{decode_response, encode_response, read_frame, write_frame, Response};
use cdim_serve::{spawn, InfluenceService, ModelSnapshot, QueryClient};
use std::net::TcpStream;
use std::sync::Arc;

fn test_service() -> Arc<InfluenceService> {
    let ds = cdim_datagen::presets::tiny().generate();
    let policy = CreditPolicy::time_aware(&ds.graph, &ds.log);
    let store = scan(&ds.graph, &ds.log, &policy, 0.001).unwrap();
    Arc::new(InfluenceService::new(ModelSnapshot::from_store(store), 32))
}

#[test]
fn serves_all_query_kinds_over_tcp() {
    let service = test_service();
    let server = spawn(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = QueryClient::connect(server.addr()).unwrap();

    let (seeds, gains) = client.top_k(3).unwrap();
    assert_eq!(seeds.len(), 3);
    assert_eq!(gains.len(), 3);

    let sigma = client.spread(&seeds).unwrap();
    // Canonical-order telescoping vs CELF-order telescoping: equal up
    // to the λ-truncation error (see service::tests for the exact
    // canonical-order comparison).
    assert!((sigma - gains.iter().sum::<f64>()).abs() < 1e-3 * sigma.abs());

    let info = client.info().unwrap();
    assert_eq!(info.num_users as usize, service.snapshot().num_users());

    // Query-level errors keep the connection usable.
    let err = client.spread(&[u32::MAX]).unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");
    assert!(client.info().is_ok());

    server.shutdown();
}

#[test]
fn stats_op_reports_live_counters() {
    let service = test_service();
    let server = spawn(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = QueryClient::connect(server.addr()).unwrap();

    let before = client.stats().unwrap();
    assert_eq!(before.queries, 0);
    assert_eq!(before.model_version, 0);

    client.spread(&[0]).unwrap();
    client.spread(&[0]).unwrap();
    let after = client.stats().unwrap();
    assert_eq!(after.queries, 2);
    assert_eq!(after.cache_hits, 1);
    assert_eq!(after.cache_misses, 1);
    assert_eq!(after.publishes, 0);

    // A publish bumps the served model version visibly.
    service.publish((*service.snapshot()).clone());
    let bumped = client.stats().unwrap();
    assert_eq!(bumped.publishes, 1);
    assert_eq!(bumped.model_version, 1);

    server.shutdown();
}

#[test]
fn metrics_op_dumps_the_service_registry() {
    let service = test_service();
    let server = spawn(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = QueryClient::connect(server.addr()).unwrap();

    client.spread(&[0]).unwrap();
    client.spread(&[0]).unwrap();
    let dump = client.metrics().unwrap();
    let counter = |name: &str| {
        dump.counters
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing counter {name}"))
            .1
    };
    assert_eq!(counter("cdim_serve_queries_total"), 2);
    assert_eq!(counter("cdim_serve_cache_hits_total"), 1);
    assert_eq!(counter("cdim_serve_cache_misses_total"), 1);
    let (_, query_hist) = dump
        .histograms
        .iter()
        .find(|(n, _)| n == "cdim_serve_query_seconds")
        .expect("missing query histogram");
    assert_eq!(query_hist.count, 2);
    assert!(query_hist.p50 <= query_hist.p99 && query_hist.p99 <= query_hist.max);

    server.shutdown();
}

#[test]
fn trace_op_returns_nested_request_spans() {
    // The global recorder samples 1-in-8 by default; this test needs
    // its specific request traced.
    cdim_obs::Tracer::global().set_sampling(1);
    let service = test_service();
    let server = spawn(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = QueryClient::connect(server.addr()).unwrap();

    client.spread(&[0]).unwrap();
    let dump = client.trace_dump().unwrap();

    // The global recorder is shared across the whole test process, so
    // look for *one trace* that carries the full request pipeline
    // (the spread above is guaranteed to have produced one).
    let full_trace = dump
        .spans
        .iter()
        .filter(|s| s.stage == "serve.request")
        .map(|root| {
            let spans: Vec<_> = dump.spans.iter().filter(|s| s.trace_id == root.trace_id).collect();
            (root, spans)
        })
        .find(|(_, spans)| {
            ["serve.decode", "serve.batch", "serve.eval", "serve.write", "service.compute"]
                .iter()
                .all(|want| spans.iter().any(|s| s.stage == *want))
        });
    let (root, spans) = full_trace.expect("one trace holds the whole request pipeline");

    // Parent/child wiring: every span of the trace sits under the
    // root, and the service's spans nest under the worker's eval.
    assert_eq!(root.parent_id, 0);
    let eval = spans.iter().find(|s| s.stage == "serve.eval").unwrap();
    assert_eq!(eval.parent_id, root.span_id);
    let compute = spans.iter().find(|s| s.stage == "service.compute").unwrap();
    assert_eq!(compute.parent_id, eval.span_id);
    for span in &spans {
        assert!(root.start_ns <= span.start_ns, "{} starts before its root", span.stage);
        assert!(span.end_ns <= root.end_ns, "{} ends after its root", span.stage);
    }

    server.shutdown();
}

#[test]
fn garbage_frame_gets_an_error_response() {
    let service = test_service();
    let server = spawn(service, "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut stream, &[42, 0, 0]).unwrap();
    let payload = read_frame(&mut stream).unwrap().unwrap();
    match decode_response(&payload).unwrap() {
        Response::Error(message) => assert!(message.contains("opcode"), "{message}"),
        other => panic!("expected error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn shutdown_unblocks_and_rejects_new_connections() {
    let service = test_service();
    let server = spawn(service, "127.0.0.1:0").unwrap();
    let addr = server.addr();
    server.shutdown();
    // The listener is gone: a fresh connection either fails outright or
    // is closed without an answer.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut stream) => {
            write_frame(&mut stream, &encode_response(&Response::Spread(0.0))).unwrap();
            assert!(matches!(read_frame(&mut stream), Ok(None) | Err(_)));
        }
    }
}
