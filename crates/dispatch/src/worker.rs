//! The worker side: one session loop over a framed channel, entered
//! over stdio ([`serve`]) or TCP ([`crate::net::connect_worker`]).
//!
//! A session reads protocol frames, keeps the `init` message, hands
//! each cell assignment to the caller's executor, and writes the result
//! (or error) back. The executor receives the full `init` message —
//! including the opaque `plan` — on every call, so it can lazily build
//! whatever per-plan state it needs on the first cell and reuse it
//! after.
//!
//! Results go to the protocol channel; anything the executor prints
//! must therefore go to std**err**, which passes through to the
//! coordinator's stderr.

use crate::transport::{
    BlockingSource, FrameSink, LineSource, NetFault, NetFaultKind, NextLine, WriteSink,
};
use rix_isa::json::Json;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One-shot guard for non-`repeat` network fault injection.
static NET_FAULT_FIRED: AtomicBool = AtomicBool::new(false);

/// How a session ended.
pub(crate) enum End {
    /// The coordinator closed the channel; `true` once `init` arrived.
    Closed(bool),
    /// The coordinator sent `shutdown`: the sweep is over.
    Shutdown,
    /// The coordinator quarantined this worker.
    Quarantined,
    /// Deterministic failure (executor error, protocol violation),
    /// already reported to the coordinator where possible; retrying
    /// elsewhere cannot help, so the worker must die non-zero.
    Fatal(String),
    /// The channel died (send or read failure, liveness expiry, an
    /// injected drop); `inited` records whether the session got as far
    /// as `init`.
    Lost { inited: bool, reason: String },
}

/// Sends a protocol `error` frame; best-effort (the caller is usually
/// about to die anyway).
fn send_error(sink: &mut dyn FrameSink, cell: Option<u64>, msg: &str) {
    let m = Json::Str(msg.to_string()).dump();
    let line = match cell {
        Some(c) => format!("{{\"type\":\"error\",\"cell\":{c},\"message\":{m}}}"),
        None => format!("{{\"type\":\"error\",\"message\":{m}}}"),
    };
    let _ = sink.send(&line);
}

/// A protocol violation: reported on the channel, fatal to the worker.
fn fatal(sink: &mut dyn FrameSink, msg: &str) -> End {
    send_error(sink, None, msg);
    End::Fatal(msg.to_string())
}

/// Checks an `init` or `hello` frame's schema: this build speaks
/// exactly [`crate::PROTOCOL_SCHEMA`].
pub(crate) fn check_init_schema(msg: &Json) -> Result<(), String> {
    match msg.get("schema").and_then(Json::as_str) {
        Some(crate::PROTOCOL_SCHEMA) => Ok(()),
        other => Err(format!(
            "unsupported protocol schema {other:?} (this build speaks {})",
            crate::PROTOCOL_SCHEMA
        )),
    }
}

/// Serves one coordinator channel until it ends.
///
/// Until `init` arrives the coordinator owes us a frame within 30 s;
/// after an `init` with a non-zero `heartbeat_ms`, silence is bounded by
/// four heartbeats, and `start_heartbeat` is called once with the
/// interval and a flag that stays set while the pings should keep
/// flowing (a blocking stdio source never idles, and a stdio `init`
/// names no heartbeat, so neither applies there). `fault` fires at its
/// `at`-th actionable frame (`init`, `cell` or `shutdown`).
pub(crate) fn session(
    source: &mut dyn LineSource,
    sink: &mut dyn FrameSink,
    fault: Option<NetFault>,
    start_heartbeat: &mut dyn FnMut(Duration, Arc<AtomicBool>),
    execute: &mut dyn FnMut(&Json, u64) -> Result<Json, String>,
) -> End {
    let beating = Arc::new(AtomicBool::new(true));
    let end = session_loop(source, sink, fault, &beating, start_heartbeat, execute);
    beating.store(false, Ordering::Relaxed);
    end
}

fn session_loop(
    source: &mut dyn LineSource,
    sink: &mut dyn FrameSink,
    fault: Option<NetFault>,
    beating: &Arc<AtomicBool>,
    start_heartbeat: &mut dyn FnMut(Duration, Arc<AtomicBool>),
    execute: &mut dyn FnMut(&Json, u64) -> Result<Json, String>,
) -> End {
    let mut init: Option<Json> = None;
    let mut liveness = Duration::from_secs(30);
    let mut last_seen = Instant::now();
    let mut actionable: u64 = 0;
    loop {
        let line = match source.next_line() {
            Ok(NextLine::Line(line)) => line,
            Ok(NextLine::Idle) if last_seen.elapsed() <= liveness => continue,
            Ok(NextLine::Idle) => {
                let reason = format!(
                    "coordinator silent past the {:.1}s liveness deadline",
                    liveness.as_secs_f64()
                );
                return End::Lost { inited: init.is_some(), reason };
            }
            Ok(NextLine::Eof) => return End::Closed(init.is_some()),
            Err(e) => {
                return End::Lost { inited: init.is_some(), reason: format!("read failed: {e}") };
            }
        };
        last_seen = Instant::now();
        if line.is_empty() {
            continue;
        }
        let msg = match Json::parse(&line) {
            Ok(m) => m,
            Err(e) => return fatal(sink, &format!("unparsable coordinator frame {line:?}: {e}")),
        };
        let kind = msg.get("type").and_then(Json::as_str).map(str::to_string);
        if matches!(kind.as_deref(), Some("init" | "cell" | "shutdown")) {
            actionable += 1;
            let fires = |f: &NetFault| {
                f.at == actionable && (f.repeat || !NET_FAULT_FIRED.swap(true, Ordering::Relaxed))
            };
            if let Some(f) = fault.filter(fires) {
                eprintln!("rix worker: injected {:?} at frame {actionable}", f.kind);
                match f.kind {
                    NetFaultKind::Exit => std::process::exit(86),
                    NetFaultKind::Drop => {
                        let reason = "injected connection drop".to_string();
                        return End::Lost { inited: init.is_some(), reason };
                    }
                    NetFaultKind::Stall => {
                        // Half-open: the channel stays up, nothing flows
                        // either way (heartbeats included) — only the
                        // coordinator's liveness deadline can reclaim
                        // the cell.
                        beating.store(false, Ordering::Relaxed);
                        loop {
                            std::thread::sleep(Duration::from_secs(3600));
                        }
                    }
                }
            }
        }
        match kind.as_deref() {
            Some("ping") => {}
            Some("init") => {
                if let Err(e) = check_init_schema(&msg) {
                    return fatal(sink, &e);
                }
                let hb_ms = msg.get("heartbeat_ms").and_then(Json::as_u64).unwrap_or(0);
                if hb_ms > 0 {
                    let interval = Duration::from_millis(hb_ms);
                    liveness = (interval * 4).max(Duration::from_secs(1));
                    start_heartbeat(interval, Arc::clone(beating));
                }
                init = Some(msg);
            }
            Some("cell") => {
                let Some(init) = &init else { return fatal(sink, "cell assignment before init") };
                let cell = match msg.req_u64("cell") {
                    Ok(cell) => cell,
                    Err(e) => return fatal(sink, &format!("bad cell frame: {e}")),
                };
                let payload = match execute(init, cell) {
                    Ok(payload) => payload,
                    Err(e) => {
                        send_error(sink, Some(cell), &e);
                        return End::Fatal(format!("cell {cell}: {e}"));
                    }
                };
                let frame = format!(
                    "{{\"type\":\"result\",\"cell\":{cell},\"payload\":{}}}",
                    payload.dump()
                );
                if let Err(e) = sink.send(&frame) {
                    return End::Lost { inited: true, reason: format!("result send failed: {e}") };
                }
                last_seen = Instant::now();
            }
            Some("shutdown") => return End::Shutdown,
            Some("quarantine") => return End::Quarantined,
            // A structured rejection (bad token, unsupported schema):
            // the coordinator will never accept this configuration, so
            // reconnecting would only loop — treat it as fatal.
            Some("error") => {
                let reason =
                    msg.get("message").and_then(Json::as_str).unwrap_or("unspecified error");
                return End::Fatal(format!("coordinator rejected this worker: {reason}"));
            }
            other => return fatal(sink, &format!("unexpected coordinator frame type {other:?}")),
        }
    }
}

/// Serves cell assignments over stdio until the coordinator closes
/// stdin, then exits the process (status 0 on a clean close or
/// `shutdown`, 1 on a protocol, channel or executor error).
///
/// `execute` maps (the `init` message, a cell id) to a result payload;
/// its `Err` is reported to the coordinator and ends the worker —
/// executor failures are deterministic by contract, so retrying
/// elsewhere cannot help.
pub fn serve<F>(mut execute: F) -> !
where
    F: FnMut(&Json, u64) -> Result<Json, String>,
{
    let mut source = BlockingSource::new(std::io::stdin().lock());
    let mut sink = WriteSink::new(std::io::stdout().lock());
    let code = match session(&mut source, &mut sink, None, &mut |_, _| {}, &mut execute) {
        End::Closed(_) | End::Shutdown => 0,
        End::Quarantined => 3,
        End::Fatal(e) | End::Lost { reason: e, .. } => {
            eprintln!("rix worker: {e}");
            1
        }
    };
    std::process::exit(code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    // `serve` never returns, so unit tests drive `session` directly
    // with in-memory channels (the pool tests exercise the stdio entry
    // end to end via stand-in workers, and `crates/bench` drives the
    // real binary).

    struct VecSink(Vec<String>);
    impl FrameSink for VecSink {
        fn send(&mut self, line: &str) -> std::io::Result<()> {
            self.0.push(line.to_string());
            Ok(())
        }
        fn close(&mut self) {}
    }

    fn exec_double(_init: &Json, cell: u64) -> Result<Json, String> {
        Json::parse(&format!("{{\"doubled\":{}}}", cell * 2)).map_err(|e| e.to_string())
    }

    fn cell_msg(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    /// Runs one session over the scripted coordinator `frames`.
    fn run(
        frames: &str,
        execute: &mut dyn FnMut(&Json, u64) -> Result<Json, String>,
    ) -> (End, Vec<String>) {
        let mut source = BlockingSource::new(Cursor::new(frames.as_bytes().to_vec()));
        let mut sink = VecSink(Vec::new());
        let end = session(&mut source, &mut sink, None, &mut |_, _| {}, execute);
        (end, sink.0)
    }

    const INIT: &str = "{\"type\":\"init\",\"schema\":\"rix-dispatch/2\",\"worker\":0}\n";

    #[test]
    fn uncached_cell_executes_and_emits_one_result() {
        let frames = format!("{INIT}{{\"type\":\"cell\",\"cell\":21}}\n");
        let (end, sent) = run(&frames, &mut exec_double);
        assert!(matches!(end, End::Closed(true)), "EOF after init is a clean close");
        assert_eq!(sent.len(), 1);
        let out = Json::parse(&sent[0]).unwrap();
        assert_eq!(out.get("type").and_then(Json::as_str), Some("result"));
        assert_eq!(out.get("cell").and_then(Json::as_u64), Some(21));
        assert!(out.get("cached").is_none());
        assert_eq!(
            out.req("payload").unwrap().get("doubled").and_then(Json::as_u64),
            Some(42)
        );
    }

    #[test]
    fn executor_error_is_fatal_and_reported() {
        let mut boom =
            |_: &Json, _: u64| -> Result<Json, String> { Err("deterministic failure".into()) };
        match run(&format!("{INIT}{{\"type\":\"cell\",\"cell\":9}}\n"), &mut boom) {
            (End::Fatal(e), sent) => {
                assert!(e.contains("deterministic failure"), "{e}");
                let out = Json::parse(&sent[0]).unwrap();
                assert_eq!(out.get("type").and_then(Json::as_str), Some("error"));
                assert_eq!(out.get("cell").and_then(Json::as_u64), Some(9));
            }
            _ => panic!("executor errors must be fatal"),
        }
    }

    #[test]
    fn protocol_violations_are_reported_and_fatal() {
        let before_init = "{\"type\":\"cell\",\"cell\":1}\n";
        for frames in [before_init, "not json\n", "{\"type\":\"bogus\"}\n"] {
            let (end, sent) = run(frames, &mut exec_double);
            assert!(matches!(end, End::Fatal(_)), "{frames:?} must be fatal");
            assert_eq!(sent.len(), 1, "{frames:?}: one error frame");
            assert!(sent[0].contains("\"type\":\"error\""), "{sent:?}");
        }
        let (end, _) = run(&format!("{INIT}{{\"type\":\"shutdown\"}}\n"), &mut exec_double);
        assert!(matches!(end, End::Shutdown));
    }

    #[test]
    fn init_schema_check_accepts_only_this_version() {
        assert!(check_init_schema(&cell_msg(r#"{"schema":"rix-dispatch/2"}"#)).is_ok());
        for old in [r#"{"schema":"rix-dispatch/1"}"#, r#"{"schema":"rix-dispatch/0"}"#, "{}"] {
            let err = check_init_schema(&cell_msg(old)).unwrap_err();
            assert!(err.contains("unsupported protocol schema"), "{old}: {err}");
        }
    }
}
