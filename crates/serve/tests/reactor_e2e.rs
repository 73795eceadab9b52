//! End-to-end tests for the reactor frontend — pipelining, backpressure,
//! slow peers, connection caps, and the regression tests for the
//! connection-handling bugs of the original thread-per-connection server.

use cdim_core::{scan, CreditPolicy};
use cdim_serve::protocol::{
    decode_response, encode_request, read_frame, write_frame, Request, Response, MAX_FRAME_LEN,
};
use cdim_serve::{spawn, spawn_with, Answer, InfluenceService, ModelSnapshot, Query, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn test_service() -> Arc<InfluenceService> {
    let ds = cdim_datagen::presets::tiny().generate();
    let policy = CreditPolicy::time_aware(&ds.graph, &ds.log);
    let store = scan(&ds.graph, &ds.log, &policy, 0.001).unwrap();
    Arc::new(InfluenceService::new(ModelSnapshot::from_store(store), 256))
}

fn expect_spread(payload: &[u8]) -> f64 {
    match decode_response(payload).unwrap() {
        Response::Spread(sigma) => sigma,
        other => panic!("expected Spread, got {other:?}"),
    }
}

/// N requests written before any response is read; the answers must come
/// back complete and in request order, including an inline `Info` queued
/// behind the batched queries.
#[test]
fn pipelined_requests_are_answered_in_order() {
    let service = test_service();
    let num_users = service.snapshot().num_users() as u32;
    let expected: Vec<f64> = (0..num_users)
        .map(|u| match service.query(&Query::Spread { seeds: vec![u] }).unwrap() {
            Answer::Spread(sigma) => sigma,
            other => panic!("unexpected {other:?}"),
        })
        .collect();

    let server = spawn(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // Write the whole burst up front…
    let mut burst = Vec::new();
    for u in 0..num_users {
        write_frame(&mut burst, &encode_request(&Request::Spread { seeds: vec![u] })).unwrap();
    }
    write_frame(&mut burst, &encode_request(&Request::Info)).unwrap();
    stream.write_all(&burst).unwrap();
    // …then read every response: order must match request order.
    for (u, want) in expected.iter().enumerate() {
        let payload = read_frame(&mut stream).unwrap().unwrap();
        let got = expect_spread(&payload);
        assert_eq!(got.to_bits(), want.to_bits(), "answer {u} out of order");
    }
    let payload = read_frame(&mut stream).unwrap().unwrap();
    match decode_response(&payload).unwrap() {
        Response::Info(info) => assert_eq!(info.num_users, u64::from(num_users)),
        other => panic!("expected Info, got {other:?}"),
    }
    server.shutdown();
}

/// Regression (PR-2 bug: a read timeout mid-frame was treated as idle and
/// the half-delivered request silently dropped). A slow-but-alive writer
/// that trickles a request one byte at a time — each gap shorter than the
/// idle timeout, the whole frame far longer — must still get its answer.
#[test]
fn slow_writer_request_survives_longer_than_the_idle_timeout() {
    let service = test_service();
    let config = ServerConfig { idle_timeout: Duration::from_millis(250), ..Default::default() };
    let server = spawn_with(Arc::clone(&service), "127.0.0.1:0", config).unwrap();

    let expected = match service.query(&Query::Spread { seeds: vec![0] }).unwrap() {
        Answer::Spread(sigma) => sigma,
        other => panic!("unexpected {other:?}"),
    };
    let mut wire = Vec::new();
    write_frame(&mut wire, &encode_request(&Request::Spread { seeds: vec![0] })).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let start = Instant::now();
    for &byte in &wire {
        stream.write_all(&[byte]).unwrap();
        std::thread::sleep(Duration::from_millis(40));
    }
    assert!(
        start.elapsed() > Duration::from_millis(250),
        "the trickle must outlast the idle timeout for the test to mean anything"
    );
    let payload = read_frame(&mut stream)
        .unwrap_or_else(|e| panic!("slow request was dropped: {e}"))
        .unwrap_or_else(|| panic!("connection closed on the slow writer"));
    assert_eq!(expect_spread(&payload).to_bits(), expected.to_bits());
    server.shutdown();
}

/// The other half of the timeout fix: a peer that *stalls* mid-frame past
/// the idle timeout is told why before the close (the old server closed
/// silently), and a fully idle peer still closes silently.
#[test]
fn mid_frame_stall_gets_an_error_while_idle_close_stays_silent() {
    let service = test_service();
    let config = ServerConfig { idle_timeout: Duration::from_millis(200), ..Default::default() };
    let server = spawn_with(Arc::clone(&service), "127.0.0.1:0", config).unwrap();

    // Half a frame, then silence.
    let mut stalled = TcpStream::connect(server.addr()).unwrap();
    stalled.set_nodelay(true).unwrap();
    stalled.write_all(&[9, 0]).unwrap(); // 2 of 4 length-prefix bytes
    stalled.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let payload = read_frame(&mut stalled)
        .unwrap_or_else(|e| panic!("expected an error frame, got {e}"))
        .unwrap_or_else(|| panic!("closed without explaining the mid-frame stall"));
    match decode_response(&payload).unwrap() {
        Response::Error(message) => assert!(message.contains("mid-frame"), "{message}"),
        other => panic!("expected Error, got {other:?}"),
    }
    assert!(
        matches!(read_frame(&mut stalled), Ok(None) | Err(_)),
        "connection must close after the mid-frame error"
    );

    // Nothing at all, then silence: closed with no frame.
    let mut idle = TcpStream::connect(server.addr()).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = [0u8; 1];
    match idle.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("idle close must not send bytes, got {n}"),
        Err(e) => panic!("idle connection not closed within the timeout: {e}"),
    }
    server.shutdown();
}

/// A client that pipelines thousands of requests and never reads is
/// disconnected once its un-flushed responses pass the outbound cap,
/// instead of buffering without bound.
#[test]
fn nonreading_client_is_disconnected_at_the_backpressure_cap() {
    let service = test_service();
    let config = ServerConfig {
        max_outbound_bytes: 64 * 1024,
        idle_timeout: Duration::from_secs(60),
        ..Default::default()
    };
    let server = spawn_with(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    let registry = service.metrics_registry();
    let disconnects = registry.counter("cdim_serve_backpressure_disconnects_total");
    let before = disconnects.get();

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // Cached TopK answers flow back at memory speed while this client
    // reads nothing; kernel socket buffers fill, then the server-side
    // outbound queue passes the cap and the server hangs up (surfacing
    // here as a write error once our own send buffer backs up, or as EOF).
    let frame = {
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request(&Request::TopKSeeds { budget: 20 })).unwrap();
        wire
    };
    stream.set_write_timeout(Some(Duration::from_millis(200))).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut dropped = false;
    // Plain `write` with a resume offset: a timed-out partial write must
    // continue mid-frame, not restart it, or the stream would corrupt and
    // the close we observe would be a protocol error, not backpressure.
    let mut pos = 0usize;
    while Instant::now() < deadline {
        match stream.write(&frame[pos..]) {
            Ok(0) => {
                dropped = true;
                break;
            }
            Ok(n) => pos = (pos + n) % frame.len(),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => {
                dropped = true;
                break;
            }
        }
        if disconnects.get() > before {
            dropped = true;
            break;
        }
    }
    assert!(dropped, "server never applied backpressure to a non-reading client");
    // The counter is the authoritative signal (the write error can also
    // come from an unrelated reset) — wait briefly for it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while disconnects.get() == before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(disconnects.get() > before, "backpressure disconnect counter never moved");
    server.shutdown();
}

/// Regression (PR-2 bug: unbounded thread spawn — no connection cap at
/// all). Connections beyond `max_connections` are closed immediately;
/// established ones keep working.
#[test]
fn connection_cap_rejects_the_excess_connection() {
    let service = test_service();
    let config = ServerConfig { max_connections: 4, ..Default::default() };
    let server = spawn_with(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    let registry = service.metrics_registry();
    let rejected = registry.counter("cdim_serve_conns_rejected_total");

    // Fill the cap and prove the connections are live.
    let mut keepers: Vec<TcpStream> = Vec::new();
    for _ in 0..4 {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut stream, &encode_request(&Request::Info)).unwrap();
        assert!(read_frame(&mut stream).unwrap().is_some());
        keepers.push(stream);
    }
    // The fifth is accepted and dropped without an answer.
    let mut excess = TcpStream::connect(server.addr()).unwrap();
    excess.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let _ = write_frame(&mut excess, &encode_request(&Request::Info));
    assert!(
        matches!(read_frame(&mut excess), Ok(None) | Err(_)),
        "connection over the cap must be closed unanswered"
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while rejected.get() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(rejected.get() >= 1, "rejection counter never moved");

    // The established connections still answer after the rejection.
    for stream in &mut keepers {
        write_frame(stream, &encode_request(&Request::Info)).unwrap();
        assert!(read_frame(stream).unwrap().is_some());
    }
    server.shutdown();
}

/// An oversized length prefix destroys framing: one error response, then
/// the connection closes.
#[test]
fn oversized_frame_prefix_gets_an_error_then_close() {
    let service = test_service();
    let server = spawn(service, "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(&(MAX_FRAME_LEN + 1).to_le_bytes()).unwrap();
    let payload = read_frame(&mut stream).unwrap().unwrap();
    match decode_response(&payload).unwrap() {
        Response::Error(message) => assert!(message.contains("exceeds"), "{message}"),
        other => panic!("expected Error, got {other:?}"),
    }
    assert!(matches!(read_frame(&mut stream), Ok(None) | Err(_)));
    server.shutdown();
}

/// A wire `TopKSeeds` with budget `u32::MAX` once made the server reserve
/// ~34 GB for gains and abort. It must get every candidate, and the
/// server must keep answering on the same connection.
#[test]
fn a_u32_max_top_k_budget_gets_a_full_answer() {
    let ds = cdim_datagen::presets::tiny().generate();
    let policy = CreditPolicy::time_aware(&ds.graph, &ds.log);
    let model = ModelSnapshot::from_store(scan(&ds.graph, &ds.log, &policy, 0.001).unwrap());
    let expected = model.top_k(model.num_users());
    let server = spawn(Arc::new(InfluenceService::new(model, 16)), "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    for request in [Request::TopKSeeds { budget: u32::MAX }, Request::Spread { seeds: vec![0, 1] }]
    {
        write_frame(&mut stream, &encode_request(&request)).unwrap();
        let payload = read_frame(&mut stream).unwrap().unwrap();
        match (request, decode_response(&payload).unwrap()) {
            (Request::TopKSeeds { .. }, Response::TopKSeeds { seeds, gains }) => {
                assert_eq!(seeds, expected.seeds);
                assert_eq!(gains, expected.marginal_gains);
            }
            (Request::Spread { .. }, Response::Spread(sigma)) => assert!(sigma > 0.0),
            (_, other) => panic!("unexpected answer {other:?}"),
        }
    }
    server.shutdown();
}

/// ≥1k live connections on one reactor thread, all answered.
#[test]
fn a_thousand_concurrent_connections_are_served() {
    let service = test_service();
    let server = spawn(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let addr = server.addr();

    let conns = 1000;
    let mut streams: Vec<TcpStream> = Vec::with_capacity(conns);
    for i in 0..conns {
        let stream = connect_with_retry(addr, i);
        streams.push(stream);
    }
    let gauge = service.metrics_registry().gauge("cdim_serve_connections");
    // All connections are open simultaneously before any is used.
    let deadline = Instant::now() + Duration::from_secs(30);
    while (gauge.get() as usize) < conns && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(gauge.get() as usize, conns, "connections gauge must see every socket");

    // One pipelined write per connection, then read everything back.
    let frame = {
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request(&Request::Spread { seeds: vec![0] })).unwrap();
        wire
    };
    for stream in &mut streams {
        stream.write_all(&frame).unwrap();
    }
    for (i, stream) in streams.iter_mut().enumerate() {
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let payload = read_frame(stream)
            .unwrap_or_else(|e| panic!("connection {i} failed: {e}"))
            .unwrap_or_else(|| panic!("connection {i} closed unanswered"));
        expect_spread(&payload);
    }
    drop(streams);
    server.shutdown();
    assert_eq!(gauge.get() as usize, 0, "shutdown must deregister every connection");
}

/// Shutdown with live connections and in-flight requests joins every
/// thread without hanging.
#[test]
fn shutdown_is_deterministic_with_live_connections() {
    let service = test_service();
    let server = spawn(service, "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut stream, &encode_request(&Request::Spread { seeds: vec![0] })).unwrap();
    let start = Instant::now();
    server.shutdown();
    assert!(start.elapsed() < Duration::from_secs(10), "shutdown hung");
    // The socket is dead afterwards.
    let mut buf = [0u8; 1];
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => continue, // drain whatever response was in flight
        }
    }
}

/// Queries pipelined through the reactor land in the per-tick batch path;
/// the batch-size histogram must record them.
#[test]
fn batched_queries_show_up_in_the_batch_histogram() {
    let service = test_service();
    let server = spawn(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut burst = Vec::new();
    for u in 0..8u32 {
        write_frame(&mut burst, &encode_request(&Request::Spread { seeds: vec![u % 4] })).unwrap();
    }
    stream.write_all(&burst).unwrap();
    for _ in 0..8 {
        assert!(read_frame(&mut stream).unwrap().is_some());
    }
    let hist = service.metrics_registry().histogram("cdim_serve_batch_size");
    assert!(hist.count() >= 1, "at least one batch must have been dispatched");
    server.shutdown();
}

fn connect_with_retry(addr: SocketAddr, i: usize) -> TcpStream {
    // Under load the SYN backlog can briefly overflow; retry with a pause.
    for attempt in 0..50 {
        match TcpStream::connect(addr) {
            Ok(stream) => return stream,
            Err(_) if attempt < 49 => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("connection {i} failed after retries: {e}"),
        }
    }
    unreachable!()
}
