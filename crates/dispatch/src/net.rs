//! The TCP side of dispatch: the listening coordinator's accept loop
//! and handshake read, the reconnecting remote worker
//! ([`connect_worker`]), and the status query ([`query_status`]).
//!
//! Networks add failure modes pipes cannot have: workers arrive on
//! their own schedule, vanish without an EOF, stall behind partitions,
//! and come back. The coordinator's state machine ([`crate::pool`])
//! handles the coordinator half; this module supplies:
//!
//! * **Heartbeats.** Once `init` names a heartbeat interval, the worker
//!   pings on a side thread while a cell runs, and treats a coordinator
//!   silent for 4× the interval as lost.
//! * **Reconnect with backoff.** A worker that loses the coordinator
//!   retries under a [`Backoff`] schedule (exponential, jittered,
//!   capped attempt budget). The budget resets after any connection
//!   that got as far as `init`, so a long-lived worker never ages out.
//! * **Bounded admission.** At most `MAX_CONNECTIONS` (256) connections
//!   (handshaking or admitted) are live at once; past that, a new
//!   connection is closed on accept, so a flood of silent peers cannot
//!   pin a thread each for the hello deadline.

use crate::pool::{forward, Event};
use crate::transport::{Backoff, FrameSink, LineSource, NetFault, NextLine, TcpSink, TcpSource};
use crate::worker::{session, End};
use rix_isa::json::Json;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How long a freshly-accepted connection may take to say `hello`.
const HELLO_DEADLINE: Duration = Duration::from_secs(10);
/// Poll granularity for socket reads and the coordinator event loop.
pub(crate) const POLL: Duration = Duration::from_millis(50);
/// Live connections a listening coordinator holds at once.
const MAX_CONNECTIONS: usize = 256;

/// Accepts connections until told to stop, spawning a reader thread per
/// connection while fewer than `MAX_CONNECTIONS` are live.
pub(crate) fn accept_loop(listener: &TcpListener, tx: &mpsc::Sender<Event>, stop: &AtomicBool) {
    let live = Arc::new(AtomicUsize::new(0));
    let mut next_id = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let Ok((stream, _)) = listener.accept() else {
            std::thread::sleep(POLL);
            continue;
        };
        if live.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
            continue; // dropping the stream closes it
        }
        live.fetch_add(1, Ordering::SeqCst);
        let (id, tx, live) = (next_id, tx.clone(), Arc::clone(&live));
        next_id += 1;
        std::thread::spawn(move || {
            connection_reader(id, stream, &tx);
            live.fetch_sub(1, Ordering::SeqCst);
        });
    }
}

/// Drains one connection into the coordinator's event channel: the
/// handshake `hello` first (with a deadline — a connection that never
/// introduces itself is dropped without bothering the event loop), then
/// every subsequent frame, then EOF.
fn connection_reader(id: usize, stream: TcpStream, tx: &mpsc::Sender<Event>) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else { return };
    let mut sink = TcpSink::new(write_half);
    let Ok(mut source) = TcpSource::new(stream, POLL) else {
        sink.close();
        return;
    };
    let deadline = Instant::now() + HELLO_DEADLINE;
    let hello = loop {
        match source.next_line() {
            Ok(NextLine::Line(line)) => break line,
            Ok(NextLine::Idle) if Instant::now() < deadline => {}
            _ => {
                sink.close();
                return;
            }
        }
    };
    let sent =
        Json::parse(&hello).is_ok_and(|h| tx.send(Event::Hello(id, sink.clone(), h)).is_ok());
    if sent {
        forward(id, &mut source, tx);
    } else {
        sink.close();
    }
}

// ----- the remote worker ------------------------------------------------

/// Runs a remote worker against the coordinator at `addr`, reconnecting
/// with `backoff` on connection loss, until the coordinator shuts it
/// down. Returns the process exit code: 0 clean shutdown, 1
/// deterministic failure, 2 the coordinator became unreachable past the
/// backoff budget, 3 quarantined.
///
/// `name` identifies this worker across reconnects — the coordinator's
/// failure attribution and quarantine are keyed by it, so it should be
/// unique per worker process (e.g. `host-pid`).
pub fn connect_worker<F>(addr: &str, name: &str, backoff: &Backoff, mut execute: F) -> i32
where
    F: FnMut(&Json, u64) -> Result<Json, String>,
{
    let fault = NetFault::from_env();
    let mut attempt: u32 = 0;
    loop {
        let end = match TcpStream::connect(addr) {
            Ok(stream) => serve_connection(&stream, name, fault, &mut execute),
            Err(e) => End::Lost { inited: false, reason: format!("cannot connect: {e}") },
        };
        let (inited, reason) = match end {
            End::Shutdown => return 0,
            End::Quarantined => {
                eprintln!("rix worker {name}: quarantined by the coordinator");
                return 3;
            }
            End::Fatal(e) => {
                eprintln!("rix worker {name}: {e}");
                return 1;
            }
            End::Closed(inited) => (inited, "coordinator closed the connection".to_string()),
            End::Lost { inited, reason } => (inited, reason),
        };
        if inited {
            // A session that reached `init` proves the address is real:
            // start the backoff schedule over.
            attempt = 0;
        }
        let Some(delay) = backoff.delay(attempt) else {
            eprintln!(
                "rix worker {name}: {reason}; reconnect budget ({}) spent, giving up",
                backoff.max_attempts
            );
            return 2;
        };
        eprintln!(
            "rix worker {name}: {reason}; reconnecting in {:.2}s (attempt {})",
            delay.as_secs_f64(),
            attempt + 1
        );
        std::thread::sleep(delay);
        attempt += 1;
    }
}

/// Serves one coordinator connection: says hello, then runs the session
/// loop with a ping thread on the shared socket once `init` names a
/// heartbeat.
fn serve_connection(
    stream: &TcpStream,
    name: &str,
    fault: Option<NetFault>,
    execute: &mut dyn FnMut(&Json, u64) -> Result<Json, String>,
) -> End {
    let _ = stream.set_nodelay(true);
    let (Ok(write_half), Ok(read_half)) = (stream.try_clone(), stream.try_clone()) else {
        return End::Lost { inited: false, reason: "cannot clone the socket".into() };
    };
    let mut sink = TcpSink::new(write_half);
    let mut source = match TcpSource::new(read_half, POLL) {
        Ok(s) => s,
        Err(e) => {
            return End::Lost { inited: false, reason: format!("cannot set read timeout: {e}") };
        }
    };
    let hello = format!(
        "{{\"schema\":\"{}\",\"type\":\"hello\",\"name\":{},\"role\":\"worker\"{}}}",
        crate::PROTOCOL_SCHEMA,
        Json::Str(name.to_string()).dump(),
        hello_token()
    );
    if let Err(e) = sink.send(&hello) {
        return End::Lost { inited: false, reason: format!("hello send failed: {e}") };
    }
    let pinger = sink.clone();
    let mut start_heartbeat = |interval: Duration, beating: Arc<AtomicBool>| {
        let mut sink = pinger.clone();
        std::thread::spawn(move || {
            for n in 1u64.. {
                std::thread::sleep(interval);
                let ping = format!("{{\"type\":\"ping\",\"n\":{n}}}");
                if !beating.load(Ordering::Relaxed) || sink.send(&ping).is_err() {
                    break;
                }
            }
        });
    };
    let end = session(&mut source, &mut sink, fault, &mut start_heartbeat, execute);
    sink.close();
    end
}

/// The optional `,"token":…` hello fragment: the shared secret from
/// `RIX_DISPATCH_TOKEN`, empty when unset. Read from the environment on
/// every connection so a rotated secret takes effect on reconnect.
fn hello_token() -> String {
    std::env::var("RIX_DISPATCH_TOKEN")
        .ok()
        .map_or_else(String::new, |t| format!(",\"token\":{}", Json::Str(t).dump()))
}

/// Asks the coordinator at `addr` for its live status document
/// (`rix-dispatch-status/1`): cells done/queued, per-worker liveness,
/// completions, failures, reconnects and quarantine state. Sends the
/// `RIX_DISPATCH_TOKEN` shared secret when set (token-protected
/// coordinators reject status hellos too).
pub fn query_status(addr: &str) -> Result<Json, String> {
    let stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let Ok(write_half) = stream.try_clone() else {
        return Err("cannot clone the socket".into());
    };
    let mut sink = TcpSink::new(write_half);
    let mut source = TcpSource::new(stream, POLL)
        .map_err(|e| format!("cannot set read timeout: {e}"))?;
    sink.send(&format!(
        "{{\"schema\":\"{}\",\"type\":\"hello\",\"name\":\"status\",\"role\":\"status\"{}}}",
        crate::PROTOCOL_SCHEMA,
        hello_token()
    ))
    .map_err(|e| format!("hello send failed: {e}"))?;
    let deadline = Instant::now() + HELLO_DEADLINE;
    let line = loop {
        match source.next_line() {
            Ok(NextLine::Line(line)) => break line,
            Ok(NextLine::Idle) => {
                if Instant::now() >= deadline {
                    return Err(format!("no status reply from {addr} within 10s"));
                }
            }
            Ok(NextLine::Eof) => return Err(format!("{addr} closed the connection mid-reply")),
            Err(e) => return Err(format!("read failed: {e}")),
        }
    };
    sink.close();
    let doc = Json::parse(&line).map_err(|e| format!("unparsable status reply: {e}"))?;
    if doc.get("type").and_then(Json::as_str) == Some("error") {
        let reason =
            doc.get("message").and_then(Json::as_str).unwrap_or("unspecified error");
        return Err(format!("{addr} rejected the status query: {reason}"));
    }
    match doc.get("schema").and_then(Json::as_str) {
        Some(crate::STATUS_SCHEMA) => Ok(doc),
        other => Err(format!("unexpected status schema {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{dispatch_cells, PoolConfig, PoolError, PoolSummary, Workers};
    use std::io::{BufRead, BufReader, Read, Write};

    fn plan() -> Json {
        Json::parse(r#"{"note":"net test plan"}"#).unwrap()
    }

    /// A listening run's results: payloads in cell order (`None` where
    /// the cell was handed back), the handed-back positions, sorted, and
    /// the accounting.
    #[derive(Debug)]
    struct Served {
        payloads: Vec<Option<Json>>,
        unfinished: Vec<usize>,
        summary: PoolSummary,
    }

    fn serve(listener: TcpListener, cells: &[u64], cfg: &PoolConfig) -> Result<Served, PoolError> {
        let mut payloads: Vec<Option<Json>> = vec![None; cells.len()];
        let out = dispatch_cells(Workers::Listen(listener), &plan(), cells, cfg, |pos, payload| {
            assert!(payloads[pos].replace(payload).is_none(), "cell {pos} reported twice");
            Ok(())
        })?;
        let mut unfinished: Vec<usize> = out.unfinished.iter().map(|&(pos, _)| pos).collect();
        unfinished.sort_unstable();
        Ok(Served { payloads, unfinished, summary: out.summary })
    }

    fn echo(_init: &Json, cell: u64) -> Result<Json, String> {
        Json::parse(&format!("{{\"cell\":{cell}}}")).map_err(|e| e.to_string())
    }

    fn fast_cfg() -> PoolConfig {
        PoolConfig {
            cell_timeout: Duration::from_secs(10),
            retries: 2,
            heartbeat: Duration::from_millis(100),
            quarantine_after: 3,
            worker_wait: Duration::from_secs(10),
            token: None,
        }
    }

    fn listen() -> (TcpListener, String) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        (listener, addr)
    }

    /// A backoff that gives up fast, so a worker left over after the
    /// run ends does not stretch the test.
    fn fast_backoff() -> Backoff {
        Backoff {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(50),
            max_attempts: 4,
            seed: 1,
        }
    }

    #[test]
    fn tcp_workers_complete_all_cells_and_shut_down_cleanly() {
        let (listener, addr) = listen();
        let workers: Vec<_> = ["alpha", "beta"]
            .into_iter()
            .map(|name| {
                let addr = addr.clone();
                std::thread::spawn(move || connect_worker(&addr, name, &fast_backoff(), echo))
            })
            .collect();
        let cells: Vec<u64> = vec![3, 1, 4, 15, 9, 2, 6];
        let out = serve(listener, &cells, &fast_cfg()).unwrap();
        assert!(out.unfinished.is_empty());
        for (cell, payload) in cells.iter().zip(&out.payloads) {
            let payload = payload.as_ref().expect("filled");
            assert_eq!(payload.get("cell").and_then(Json::as_u64), Some(*cell));
        }
        assert!(out.summary.workers_spawned >= 1);
        assert_eq!(out.summary.workers_lost, 0);
        let total: u64 = out.summary.workers.iter().map(|w| w.cells_completed).sum();
        assert_eq!(total, cells.len() as u64);
        for w in workers {
            let code = w.join().unwrap();
            // 0: served and saw shutdown; 2: connected after the run
            // ended and exhausted its reconnect budget. Both clean.
            assert!(code == 0 || code == 2, "unexpected worker exit {code}");
        }
    }

    #[test]
    fn worker_error_frames_are_fatal() {
        let (listener, addr) = listen();
        let w = std::thread::spawn(move || {
            connect_worker(&addr, "boom", &fast_backoff(), |_, _| {
                Err("deterministic failure".into())
            })
        });
        let err = serve(listener, &[0, 1], &fast_cfg()).unwrap_err();
        assert!(err.to_string().contains("deterministic failure"), "{err}");
        assert_eq!(w.join().unwrap(), 1, "executor errors kill the worker");
    }

    #[test]
    fn no_workers_degrades_every_cell_after_the_wait() {
        let (listener, _) = listen();
        let cfg = PoolConfig { worker_wait: Duration::from_millis(200), ..fast_cfg() };
        let cells: Vec<u64> = vec![7, 8, 9];
        let out = serve(listener, &cells, &cfg).unwrap();
        assert_eq!(out.unfinished, vec![0, 1, 2], "every cell handed back");
        assert!(out.payloads.iter().all(Option::is_none));
        assert_eq!(out.summary.degraded_cells, 3);
        assert_eq!(out.summary.workers_spawned, 0);
    }

    #[test]
    fn token_mismatch_gets_a_structured_rejection() {
        let (listener, addr) = listen();
        let cfg = PoolConfig {
            token: Some("sesame".into()),
            worker_wait: Duration::from_millis(200),
            ..fast_cfg()
        };
        // A tokenless peer must receive exactly one structured error
        // frame, then EOF — never an init.
        let intruder = std::thread::spawn(move || {
            let mut s = TcpStream::connect(&addr).unwrap();
            writeln!(
                s,
                "{{\"schema\":\"rix-dispatch/2\",\"type\":\"hello\",\"name\":\"intruder\",\"role\":\"worker\"}}"
            )
            .unwrap();
            let mut reader = BufReader::new(s.try_clone().unwrap());
            let mut first = String::new();
            reader.read_line(&mut first).unwrap();
            let mut rest = String::new();
            reader.read_line(&mut rest).unwrap_or(0);
            (first, rest)
        });
        let out = serve(listener, &[3], &cfg).unwrap();
        let (first, rest) = intruder.join().unwrap();
        let reply = Json::parse(first.trim()).expect("rejection is a JSON frame");
        assert_eq!(reply.get("type").and_then(Json::as_str), Some("error"));
        assert!(
            reply.get("message").and_then(Json::as_str).unwrap_or("").contains("token"),
            "{first}"
        );
        assert!(rest.is_empty(), "connection closed after the rejection: {rest:?}");
        assert_eq!(out.summary.workers_spawned, 0, "the intruder never became a worker");
        assert_eq!(out.unfinished, vec![0], "its cell degraded to the caller");
    }

    #[test]
    fn matching_token_is_admitted_and_serves_cells() {
        let (listener, addr) = listen();
        let cfg = PoolConfig { token: Some("sesame".into()), ..fast_cfg() };
        let worker = std::thread::spawn(move || {
            let mut s = TcpStream::connect(&addr).unwrap();
            writeln!(
                s,
                "{{\"schema\":\"rix-dispatch/2\",\"type\":\"hello\",\"name\":\"keyed\",\"role\":\"worker\",\"token\":\"sesame\"}}"
            )
            .unwrap();
            let mut reader = BufReader::new(s.try_clone().unwrap());
            let mut saw_init = false;
            let mut line = String::new();
            loop {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    break;
                }
                let msg = Json::parse(line.trim()).unwrap();
                match msg.get("type").and_then(Json::as_str) {
                    Some("init") => saw_init = true,
                    Some("ping") => {}
                    Some("cell") => {
                        let cell = msg.get("cell").and_then(Json::as_u64).unwrap();
                        writeln!(
                            s,
                            "{{\"type\":\"result\",\"cell\":{cell},\"payload\":{{\"cell\":{cell}}}}}"
                        )
                        .unwrap();
                    }
                    _ => break,
                }
            }
            saw_init
        });
        let out = serve(listener, &[5, 6], &cfg).unwrap();
        assert!(worker.join().unwrap(), "the keyed worker was sent init");
        assert!(out.unfinished.is_empty(), "{:?}", out.summary);
        assert_eq!(
            out.payloads[0].as_ref().and_then(|p| p.get("cell")).and_then(Json::as_u64),
            Some(5)
        );
        assert_eq!(out.summary.workers_spawned, 1);
    }

    /// A raw scripted peer: says hello, waits for its first cell
    /// assignment, signals `got_cell`, and drops the connection — the
    /// worker-died-mid-cell case, without the real client's reconnect
    /// masking it.
    fn flaky_once(
        addr: String,
        name: &'static str,
        got_cell: std::sync::mpsc::Sender<()>,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let mut s = TcpStream::connect(&addr).unwrap();
            writeln!(
                s,
                "{{\"schema\":\"rix-dispatch/2\",\"type\":\"hello\",\"name\":\"{name}\",\"role\":\"worker\"}}"
            )
            .unwrap();
            let mut reader = BufReader::new(s.try_clone().unwrap());
            let mut line = String::new();
            loop {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    break;
                }
                if line.contains("\"type\":\"cell\"") {
                    let _ = got_cell.send(());
                    break; // drop with the cell in flight
                }
            }
        })
    }

    #[test]
    fn mid_cell_disconnect_requeues_on_a_healthy_peer() {
        let (listener, addr) = listen();
        // The steady peer connects only once the flaky one holds a cell,
        // so the flaky peer always takes (and loses) one, however the
        // threads are scheduled.
        let (got_cell, flaky_has_cell) = std::sync::mpsc::channel();
        let flaky = flaky_once(addr.clone(), "flaky", got_cell);
        let steady = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let _ = flaky_has_cell.recv();
                connect_worker(&addr, "steady", &fast_backoff(), echo)
            })
        };
        let cells: Vec<u64> = vec![10, 11, 12, 13];
        let out = serve(listener, &cells, &fast_cfg()).unwrap();
        assert!(out.unfinished.is_empty(), "{:?}", out.summary);
        for (cell, payload) in cells.iter().zip(&out.payloads) {
            assert_eq!(
                payload.as_ref().and_then(|p| p.get("cell")).and_then(Json::as_u64),
                Some(*cell)
            );
        }
        assert_eq!(out.summary.workers_lost, 1, "{:?}", out.summary);
        assert_eq!(out.summary.retries, 1, "{:?}", out.summary);
        let f = out.summary.workers.iter().find(|w| w.name == "flaky").unwrap();
        assert_eq!(f.failures, 1);
        assert!(!f.quarantined, "one failure is below the threshold");
        flaky.join().unwrap();
        assert_eq!(steady.join().unwrap(), 0);
    }

    #[test]
    fn repeat_offender_is_quarantined_and_its_cells_drain_elsewhere() {
        let (listener, addr) = listen();
        // A peer that drops every cell it is handed, reconnecting each
        // time like the real client would.
        let bad = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                loop {
                    let Ok(mut s) = TcpStream::connect(&addr) else { return };
                    if writeln!(
                        s,
                        "{{\"schema\":\"rix-dispatch/2\",\"type\":\"hello\",\"name\":\"bad\",\"role\":\"worker\"}}"
                    )
                    .is_err()
                    {
                        return;
                    }
                    let Ok(clone) = s.try_clone() else { return };
                    let mut reader = BufReader::new(clone);
                    let mut line = String::new();
                    loop {
                        line.clear();
                        if reader.read_line(&mut line).unwrap_or(0) == 0 {
                            return; // coordinator closed on us: give up
                        }
                        if line.contains("\"type\":\"quarantine\"") {
                            return;
                        }
                        if line.contains("\"type\":\"cell\"") {
                            break; // drop mid-cell, then reconnect
                        }
                    }
                }
            })
        };
        // The healthy peer is slowed so the queue cannot drain before
        // `bad` has failed often enough to trip the threshold.
        let steady = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                connect_worker(&addr, "steady", &fast_backoff(), |init, cell| {
                    std::thread::sleep(Duration::from_millis(100));
                    echo(init, cell)
                })
            })
        };
        let cfg = PoolConfig { quarantine_after: 2, retries: 4, ..fast_cfg() };
        let cells: Vec<u64> = vec![20, 21, 22, 23, 24, 25];
        let out = serve(listener, &cells, &cfg).unwrap();
        assert!(out.unfinished.is_empty(), "{:?}", out.summary);
        assert_eq!(out.summary.quarantined, 1, "{:?}", out.summary);
        let b = out.summary.workers.iter().find(|w| w.name == "bad").unwrap();
        assert!(b.quarantined);
        assert!(b.failures >= 2);
        bad.join().unwrap();
        assert_eq!(steady.join().unwrap(), 0);
    }

    #[test]
    fn status_hello_is_answered_during_a_run() {
        let (listener, addr) = listen();
        let cells: Vec<u64> = vec![0, 1];
        let server =
            std::thread::spawn(move || serve(listener, &cells, &fast_cfg()).map(|o| o.unfinished));
        // Query while the run waits for workers.
        let doc = query_status(&addr).unwrap();
        assert_eq!(doc.req_u64("cells_total").unwrap(), 2);
        assert_eq!(doc.req_u64("cells_done").unwrap(), 0);
        // Now provide a worker so the run can finish.
        let w = std::thread::spawn(move || connect_worker(&addr, "late", &fast_backoff(), echo));
        let unfinished = server.join().unwrap().unwrap();
        assert!(unfinished.is_empty());
        assert!(w.join().unwrap() <= 2);
    }

    #[test]
    fn connections_past_the_cap_are_closed_at_once() {
        let (listener, addr) = listen();
        let cfg = PoolConfig { worker_wait: Duration::from_secs(30), ..fast_cfg() };
        let server =
            std::thread::spawn(move || serve(listener, &[1, 2], &cfg).map(|o| o.unfinished));
        // A full house of silent peers, each within its hello deadline.
        let idle: Vec<TcpStream> =
            (0..MAX_CONNECTIONS).map(|_| TcpStream::connect(&addr).unwrap()).collect();
        let mut extra = TcpStream::connect(&addr).unwrap();
        extra.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let started = Instant::now();
        let refused = match extra.read(&mut [0u8; 16]) {
            Ok(n) => n == 0,
            Err(e) => {
                !matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
            }
        };
        assert!(refused, "one connection past the cap is closed");
        assert!(started.elapsed() < Duration::from_secs(3), "and at once");
        // Once the silent peers go, service resumes: a worker gets in
        // (retrying while their reader threads wind down) and finishes.
        drop(idle);
        let patient = Backoff { max_attempts: 40, ..fast_backoff() };
        let code = connect_worker(&addr, "late", &patient, echo);
        assert_eq!(code, 0, "the worker was served and shut down cleanly");
        assert!(server.join().unwrap().unwrap().is_empty(), "every cell finished remotely");
    }
}
