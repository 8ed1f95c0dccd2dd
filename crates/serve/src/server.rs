//! The server: accept loop, routing, admission control, the bounded
//! executor pool, and the in-memory run table backed by the persistent
//! [`RunStore`].
//!
//! ## Dedup
//!
//! The run table is keyed by the spec fingerprint ([`crate::SpecInfo`]'s
//! `id`). A submission whose id already exists — queued, running, done
//! or failed — **joins** that run (`200`, `"joined":true`) instead of
//! creating work; only an unseen fingerprint enqueues (`201`).
//! Validation runs outside the table lock (it is the expensive part),
//! then the id is re-checked under the lock, so concurrent identical
//! submissions race to exactly one insertion.
//!
//! ## Restart
//!
//! On startup every stored run record is reloaded: `done` runs whose
//! result document exists are served warm; `queued` and `running` runs
//! (and `done` records whose result write never landed) are re-queued
//! in id order; `failed` runs keep their error. A completed result is
//! re-served byte-for-byte because the store never re-encodes it.

use crate::http::{drain, read_request, write_response, Request};
use crate::store::{progress_json, RunRecord, RunState, RunStore};
use crate::{Engine, Progress, SCHEMA};
use rix_isa::json::Json;
use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::io::Read;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Connection threads a server runs at once (twice the default
/// `queue_cap`). Past it, a new connection is answered `503` on the
/// accept thread and closed, so a flood of slow clients cannot grow the
/// thread count without bound.
const MAX_CONNECTIONS: usize = 128;

/// Service tuning (the listen address is a separate [`Server::bind`]
/// argument).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// The persistent store's root directory.
    pub data_dir: String,
    /// Queued-run cap: submissions beyond it are refused with `429`
    /// (admission control, so a flood degrades loudly instead of
    /// building an unbounded backlog).
    pub queue_cap: usize,
    /// Executor threads draining the queue. `0` accepts and persists
    /// submissions without running anything — useful for drain-free
    /// inspection and exercised by the restart tests.
    pub executors: usize,
    /// Bearer token every request must present, when set.
    pub token: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self { data_dir: String::new(), queue_cap: 64, executors: 1, token: None }
    }
}

struct State {
    runs: HashMap<String, RunRecord>,
    queue: VecDeque<String>,
}

struct Inner {
    cfg: ServerConfig,
    engine: Box<dyn Engine>,
    store: RunStore,
    state: Mutex<State>,
    work: Condvar,
    stop: AtomicBool,
}

/// A bound server: listener up, store loaded, executors running.
/// Consume with [`Server::run`] (the CLI's accept-forever loop) or
/// [`Server::spawn`] (background thread + [`ServerHandle`], for tests
/// and embedding).
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    inner: Arc<Inner>,
    executors: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (port 0 picks a free port), opens the store, warms
    /// the run table from disk, and starts the executor pool. Announces
    /// `serve-api: listening on <addr>` on stderr — the line scripts
    /// parse for the chosen port.
    pub fn bind(
        addr: &str,
        cfg: ServerConfig,
        engine: Box<dyn Engine>,
    ) -> Result<Self, String> {
        let store = RunStore::open(&cfg.data_dir)?;
        let mut state = State { runs: HashMap::new(), queue: VecDeque::new() };
        // load_runs is id-sorted, so the re-queue order is stable.
        for mut run in store.load_runs()? {
            let requeue = match run.state {
                RunState::Queued | RunState::Running => true,
                RunState::Done => !store.has_result(&run.id),
                RunState::Failed => false,
            };
            if requeue {
                run.state = RunState::Queued;
                run.error = None;
                run.progress = Progress { total: run.cells, ..Progress::default() };
                store.save_run(&run)?;
                state.queue.push_back(run.id.clone());
            }
            state.runs.insert(run.id.clone(), run);
        }
        let listener = TcpListener::bind(addr)
            .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("cannot resolve listen address: {e}"))?;
        eprintln!("serve-api: listening on {local}");
        let inner = Arc::new(Inner {
            engine,
            store,
            state: Mutex::new(state),
            work: Condvar::new(),
            stop: AtomicBool::new(false),
            cfg,
        });
        let executors = (0..inner.cfg.executors)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || executor_loop(&inner))
            })
            .collect();
        Ok(Self { listener, addr: local, inner, executors })
    }

    /// The bound address (with the actual port when bound to port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves forever on the calling thread (the CLI entry point).
    pub fn run(self) -> ! {
        accept_loop(&self.listener, &self.inner);
        unreachable!("only a ServerHandle stops the accept loop")
    }

    /// Serves on a background thread and returns a handle that can
    /// stop the server cleanly (used by tests and embedders).
    #[must_use]
    pub fn spawn(self) -> ServerHandle {
        let inner = Arc::clone(&self.inner);
        let addr = self.addr;
        let listener = self.listener;
        let accept = std::thread::spawn(move || accept_loop(&listener, &inner));
        ServerHandle { addr, inner: self.inner, accept: Some(accept), executors: self.executors }
    }
}

/// Controls a [`Server::spawn`]ed server.
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, winds down the executor pool (any in-flight run
    /// finishes first), and joins every service thread.
    pub fn stop(mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.work.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
    }
}

// ----- the executor pool ------------------------------------------------

fn executor_loop(inner: &Inner) {
    while let Some(id) = next_queued(inner) {
        run_one(inner, &id);
    }
}

fn next_queued(inner: &Inner) -> Option<String> {
    let mut state = inner.state.lock().expect("state mutex never poisoned");
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            return None;
        }
        if let Some(id) = state.queue.pop_front() {
            return Some(id);
        }
        let (next, _) = inner
            .work
            .wait_timeout(state, Duration::from_millis(50))
            .expect("state mutex never poisoned");
        state = next;
    }
}

fn run_one(inner: &Inner, id: &str) {
    let spec = {
        let mut state = inner.state.lock().expect("state mutex never poisoned");
        let Some(run) = state.runs.get_mut(id) else { return };
        run.state = RunState::Running;
        let _ = inner.store.save_run(run);
        run.spec.clone()
    };
    let cache_dir = inner.store.cache_dir();
    // Live progress goes to the in-memory table only (status reads it
    // from there); durable state changes are the coarse transitions.
    let mut on_progress = |p: Progress| {
        if let Ok(mut state) = inner.state.lock() {
            if let Some(run) = state.runs.get_mut(id) {
                run.progress = p;
            }
        }
    };
    let outcome = inner.engine.execute(&spec, &cache_dir, &mut on_progress);
    let mut state = inner.state.lock().expect("state mutex never poisoned");
    let Some(run) = state.runs.get_mut(id) else { return };
    match outcome {
        Ok(out) => match inner.store.save_result(id, &out.doc) {
            Ok(()) => {
                run.state = RunState::Done;
                run.dispatch = out.dispatch;
                run.error = None;
            }
            Err(e) => {
                run.state = RunState::Failed;
                run.error = Some(e);
            }
        },
        Err(e) => {
            run.state = RunState::Failed;
            run.error = Some(e);
        }
    }
    if let Err(e) = inner.store.save_run(run) {
        eprintln!("serve-api: cannot persist run {id}: {e}");
    }
}

// ----- connections ------------------------------------------------------

/// Accepts connections until the server is stopped, one thread per
/// connection while fewer than [`MAX_CONNECTIONS`] are live.
fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    /// One live connection thread; the count drops when it ends, however
    /// it ends.
    struct Live(Arc<AtomicUsize>);
    impl Drop for Live {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let live = Arc::new(AtomicUsize::new(0));
    for conn in listener.incoming() {
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        if live.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
            refuse(stream);
            continue;
        }
        live.fetch_add(1, Ordering::SeqCst);
        let (inner, slot) = (Arc::clone(inner), Live(Arc::clone(&live)));
        std::thread::spawn(move || {
            let _slot = slot;
            handle_connection(&inner, stream);
        });
    }
}

/// Answers a connection past the cap without a thread: a `503`, then
/// whatever the peer has already sent is read without waiting (closing
/// on unread input resets the connection, which can destroy the reply).
fn refuse(mut stream: TcpStream) {
    let body = error_body(&format!("server busy: {MAX_CONNECTIONS} connections open; retry"));
    let _ = write_response(&mut stream, 503, &body);
    let _ = stream.shutdown(Shutdown::Write);
    if stream.set_nonblocking(true).is_ok() {
        let mut buf = [0u8; 8192];
        for _ in 0..8 {
            if !matches!(stream.read(&mut buf), Ok(n) if n > 0) {
                break;
            }
        }
    }
}

// ----- routing ----------------------------------------------------------

fn handle_connection(inner: &Inner, mut stream: TcpStream) {
    let req = match read_request(&mut stream) {
        Ok(req) => req,
        Err(e) => {
            let _ = write_response(&mut stream, 400, &error_body(&e));
            drain(&mut stream);
            return;
        }
    };
    let (status, body) = route(inner, &req);
    let _ = write_response(&mut stream, status, &body);
}

fn error_body(msg: &str) -> String {
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("error".into(), Json::Str(msg.into())),
    ])
    .dump()
}

fn route(inner: &Inner, req: &Request) -> (u16, String) {
    if let Some(expected) = &inner.cfg.token {
        let presented =
            req.header("authorization").and_then(|v| v.strip_prefix("Bearer ")).map(str::trim);
        if presented != Some(expected.as_str()) {
            return (401, error_body("missing or invalid bearer token"));
        }
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/runs") => submit(inner, &req.body),
        ("GET", "/v1/runs") => list(inner),
        ("GET", path) => match path.strip_prefix("/v1/runs/") {
            Some(rest) => match rest.strip_suffix("/result") {
                Some(id) => result(inner, id),
                None if !rest.contains('/') => status(inner, rest),
                None => (404, error_body("no such endpoint")),
            },
            None => (404, error_body("no such endpoint")),
        },
        ("POST", _) => (404, error_body("no such endpoint")),
        _ => (405, error_body("method not allowed")),
    }
}

fn submit(inner: &Inner, body: &str) -> (u16, String) {
    // Validation is the expensive step — keep it outside the lock and
    // re-check the id under it, so identical racing submissions all
    // validate but exactly one inserts.
    let info = match inner.engine.validate(body) {
        Ok(info) => info,
        Err(e) => return (400, error_body(&format!("invalid spec: {e}"))),
    };
    let mut state = inner.state.lock().expect("state mutex never poisoned");
    if let Some(run) = state.runs.get(&info.id) {
        return (200, submit_reply(run, true));
    }
    if state.queue.len() >= inner.cfg.queue_cap {
        return (
            429,
            error_body(&format!(
                "run queue is full ({} queued, cap {})",
                state.queue.len(),
                inner.cfg.queue_cap
            )),
        );
    }
    let run = RunRecord {
        id: info.id.clone(),
        name: info.name,
        spec: info.canonical_spec,
        cells: info.cells,
        state: RunState::Queued,
        error: None,
        progress: Progress { total: info.cells, ..Progress::default() },
        dispatch: None,
    };
    if let Err(e) = inner.store.save_run(&run) {
        return (500, error_body(&e));
    }
    let reply = submit_reply(&run, false);
    state.queue.push_back(info.id.clone());
    state.runs.insert(info.id, run);
    inner.work.notify_all();
    (201, reply)
}

fn submit_reply(run: &RunRecord, joined: bool) -> String {
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("id".into(), Json::Str(run.id.clone())),
        ("state".into(), Json::Str(run.state.name().into())),
        ("cells".into(), Json::Num(run.cells.to_string())),
        ("joined".into(), Json::Bool(joined)),
    ])
    .dump()
}

fn status(inner: &Inner, id: &str) -> (u16, String) {
    let state = inner.state.lock().expect("state mutex never poisoned");
    let Some(run) = state.runs.get(id) else {
        return (404, error_body(&format!("no run {id}")));
    };
    let mut fields: Vec<(String, Json)> = vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("id".into(), Json::Str(run.id.clone())),
        ("name".into(), run.name.as_ref().map_or(Json::Null, |n| Json::Str(n.clone()))),
        ("state".into(), Json::Str(run.state.name().into())),
        ("cells".into(), Json::Num(run.cells.to_string())),
        ("progress".into(), progress_json(run.progress)),
    ];
    if let Some(d) = &run.dispatch {
        fields.push(("dispatch".into(), Json::parse(d).unwrap_or(Json::Null)));
    }
    if let Some(e) = &run.error {
        fields.push(("error".into(), Json::Str(e.clone())));
    }
    (200, Json::Obj(fields).dump())
}

fn list(inner: &Inner) -> (u16, String) {
    let state = inner.state.lock().expect("state mutex never poisoned");
    let mut runs: Vec<&RunRecord> = state.runs.values().collect();
    runs.sort_by(|a, b| a.id.cmp(&b.id));
    let rows = runs
        .iter()
        .map(|run| {
            Json::Obj(vec![
                ("id".into(), Json::Str(run.id.clone())),
                (
                    "name".into(),
                    run.name.as_ref().map_or(Json::Null, |n| Json::Str(n.clone())),
                ),
                ("state".into(), Json::Str(run.state.name().into())),
                ("cells".into(), Json::Num(run.cells.to_string())),
            ])
        })
        .collect();
    let body = Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("runs".into(), Json::Arr(rows)),
    ]);
    (200, body.dump())
}

fn result(inner: &Inner, id: &str) -> (u16, String) {
    let run_state = {
        let state = inner.state.lock().expect("state mutex never poisoned");
        state.runs.get(id).map(|r| r.state)
    };
    match run_state {
        None => (404, error_body(&format!("no run {id}"))),
        Some(RunState::Done) => match inner.store.load_result(id) {
            Some(doc) => (200, doc),
            None => (500, error_body("result document is missing from the store")),
        },
        Some(s) => (
            409,
            error_body(&format!("run {id} is {} — its result is not available yet", s.name())),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{client, RunOutput, SpecInfo};
    use std::sync::atomic::AtomicUsize;

    fn scratch(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("rix-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_str().unwrap().to_string()
    }

    /// Specs are `{"id":"0x…","name":…}` objects; executing one sleeps,
    /// bumps a shared counter, and bakes the execution ordinal into the
    /// doc — so a re-simulation is visible as both a counter bump and a
    /// byte difference.
    #[derive(Clone)]
    struct MockEngine {
        delay: Duration,
        executions: Arc<AtomicUsize>,
    }

    impl MockEngine {
        fn new(delay_ms: u64) -> Self {
            Self {
                delay: Duration::from_millis(delay_ms),
                executions: Arc::new(AtomicUsize::new(0)),
            }
        }
    }

    impl Engine for MockEngine {
        fn validate(&self, spec_text: &str) -> Result<SpecInfo, String> {
            let v = Json::parse(spec_text)?;
            let id = v
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| "spec needs an `id`".to_string())?;
            Ok(SpecInfo {
                id: id.to_string(),
                name: v.get("name").and_then(Json::as_str).map(str::to_string),
                canonical_spec: v.dump(),
                cells: 3,
            })
        }

        fn execute(
            &self,
            spec_text: &str,
            _cache_dir: &str,
            progress: &mut dyn FnMut(Progress),
        ) -> Result<RunOutput, String> {
            std::thread::sleep(self.delay);
            let n = self.executions.fetch_add(1, Ordering::SeqCst) + 1;
            let id = Json::parse(spec_text)
                .ok()
                .and_then(|v| v.get("id").and_then(Json::as_str).map(str::to_string))
                .unwrap_or_default();
            if id == "0xfail" {
                return Err("engine exploded".to_string());
            }
            progress(Progress { total: 3, done: 3, cached: 0, degraded: 0 });
            Ok(RunOutput {
                doc: format!("{{\"doc_for\":\"{id}\",\"execution\":{n}}}\n"),
                dispatch: Some(r#"{"cells":3}"#.to_string()),
            })
        }
    }

    fn serve(
        dir: &str,
        executors: usize,
        queue_cap: usize,
        token: Option<&str>,
        engine: &MockEngine,
    ) -> ServerHandle {
        let cfg = ServerConfig {
            data_dir: dir.to_string(),
            queue_cap,
            executors,
            token: token.map(str::to_string),
        };
        Server::bind("127.0.0.1:0", cfg, Box::new(engine.clone())).unwrap().spawn()
    }

    fn post(addr: &str, spec: &str) -> (u16, String) {
        client::request(addr, "POST", "/v1/runs", None, Some(spec)).unwrap()
    }

    fn get(addr: &str, path: &str) -> (u16, String) {
        client::request(addr, "GET", path, None, None).unwrap()
    }

    fn state_of(body: &str) -> String {
        Json::parse(body)
            .unwrap()
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    }

    fn wait_done(addr: &str, id: &str) {
        for _ in 0..200 {
            let (code, body) = get(addr, &format!("/v1/runs/{id}"));
            assert_eq!(code, 200, "{body}");
            match state_of(&body).as_str() {
                "done" => return,
                "failed" => panic!("run {id} failed: {body}"),
                _ => std::thread::sleep(Duration::from_millis(25)),
            }
        }
        panic!("run {id} never finished");
    }

    #[test]
    fn connections_past_the_cap_get_503_until_they_close() {
        let dir = scratch("conn-cap");
        let handle = serve(&dir, 1, 16, None, &MockEngine::new(0));
        let addr = handle.addr().to_string();
        // A full house of silent clients, each within its read deadline.
        let idle: Vec<TcpStream> =
            (0..MAX_CONNECTIONS).map(|_| TcpStream::connect(&addr).unwrap()).collect();
        let started = std::time::Instant::now();
        let (code, body) = get(&addr, "/v1/runs");
        assert_eq!(code, 503, "{body}");
        assert!(started.elapsed() < Duration::from_secs(3), "refused at once");
        let err = Json::parse(&body).unwrap();
        assert_eq!(err.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert!(err.get("error").and_then(Json::as_str).unwrap_or("").contains("busy"), "{body}");
        // Once they close, their threads wind down and service resumes.
        drop(idle);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let (code, body) = get(&addr, "/v1/runs");
            if code == 200 {
                break;
            }
            assert_eq!(code, 503, "{body}");
            assert!(std::time::Instant::now() < deadline, "service never resumed");
            std::thread::sleep(Duration::from_millis(20));
        }
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_identical_submissions_execute_exactly_once() {
        let dir = scratch("dedup");
        let engine = MockEngine::new(150);
        let handle = serve(&dir, 2, 16, None, &engine);
        let addr = handle.addr().to_string();
        let spec = r#"{"id":"0x2a","name":"mock"}"#;

        let replies: Vec<(u16, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..6).map(|_| scope.spawn(|| post(&addr, spec))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let created = replies.iter().filter(|(code, _)| *code == 201).count();
        let joined = replies.iter().filter(|(code, _)| *code == 200).count();
        assert_eq!((created, joined), (1, 5), "{replies:?}");
        for (_, body) in &replies {
            let v = Json::parse(body).unwrap();
            assert_eq!(v.get("id").and_then(Json::as_str), Some("0x2a"));
        }

        wait_done(&addr, "0x2a");
        let docs: Vec<String> = (0..4)
            .map(|_| {
                let (code, doc) = get(&addr, "/v1/runs/0x2a/result");
                assert_eq!(code, 200, "{doc}");
                doc
            })
            .collect();
        assert!(docs.windows(2).all(|w| w[0] == w[1]), "all fetches identical");
        assert!(docs[0].contains("\"execution\":1"), "{}", docs[0]);
        assert_eq!(engine.executions.load(Ordering::SeqCst), 1, "one simulation");

        // A late identical submission joins the completed run.
        let (code, body) = post(&addr, spec);
        assert_eq!(code, 200, "{body}");
        assert_eq!(state_of(&body), "done");
        assert_eq!(engine.executions.load(Ordering::SeqCst), 1);

        // Status carries progress and the structured dispatch report.
        let (_, body) = get(&addr, "/v1/runs/0x2a");
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("progress").and_then(|p| p.get("done")).and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("dispatch").and_then(|d| d.get("cells")).and_then(Json::as_u64), Some(3));

        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_cap_refuses_with_429_but_joins_still_work() {
        let dir = scratch("cap");
        let engine = MockEngine::new(0);
        let handle = serve(&dir, 0, 2, None, &engine);
        let addr = handle.addr().to_string();
        assert_eq!(post(&addr, r#"{"id":"0x01"}"#).0, 201);
        assert_eq!(post(&addr, r#"{"id":"0x02"}"#).0, 201);
        let (code, body) = post(&addr, r#"{"id":"0x03"}"#);
        assert_eq!(code, 429, "{body}");
        assert!(body.contains("queue is full"), "{body}");
        // Joining an existing run bypasses admission control: no new work.
        assert_eq!(post(&addr, r#"{"id":"0x01"}"#).0, 200);
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bearer_token_gates_every_endpoint() {
        let dir = scratch("auth");
        let engine = MockEngine::new(0);
        let handle = serve(&dir, 0, 8, Some("hush"), &engine);
        let addr = handle.addr().to_string();
        let spec = r#"{"id":"0x05"}"#;
        let (code, body) =
            client::request(&addr, "POST", "/v1/runs", None, Some(spec)).unwrap();
        assert_eq!(code, 401, "{body}");
        assert!(body.contains("bearer token"), "{body}");
        let (code, _) = client::request(&addr, "GET", "/v1/runs", Some("wrong"), None).unwrap();
        assert_eq!(code, 401);
        let (code, _) =
            client::request(&addr, "POST", "/v1/runs", Some("hush"), Some(spec)).unwrap();
        assert_eq!(code, 201);
        let (code, _) = client::request(&addr, "GET", "/v1/runs", Some("hush"), None).unwrap();
        assert_eq!(code, 200);
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_serves_completed_runs_warm_and_requeues_the_rest() {
        let dir = scratch("restart");
        let engine = MockEngine::new(0);

        // Phase 1: accept-only server takes two runs, then dies
        // "mid-queue" (nothing executed).
        let a = serve(&dir, 0, 8, None, &engine);
        let addr = a.addr().to_string();
        assert_eq!(post(&addr, r#"{"id":"0x0a","name":"first"}"#).0, 201);
        assert_eq!(post(&addr, r#"{"id":"0x0b","name":"second"}"#).0, 201);
        a.stop();

        // Phase 2: restarted (still accept-only) — both runs are listed
        // as queued, and a duplicate submission joins instead of
        // re-enqueueing.
        let b = serve(&dir, 0, 8, None, &engine);
        let addr = b.addr().to_string();
        let (code, body) = get(&addr, "/v1/runs");
        assert_eq!(code, 200);
        let v = Json::parse(&body).unwrap();
        let runs = v.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 2, "{body}");
        assert!(runs
            .iter()
            .all(|r| r.get("state").and_then(Json::as_str) == Some("queued")));
        let (code, body) = post(&addr, r#"{"id":"0x0a","name":"first"}"#);
        assert_eq!((code, state_of(&body)), (200, "queued".to_string()));
        let (code, body) = get(&addr, "/v1/runs/0x0a/result");
        assert_eq!(code, 409, "queued run has no result yet: {body}");
        b.stop();
        assert_eq!(engine.executions.load(Ordering::SeqCst), 0);

        // Phase 3: restart with an executor — the queue drains.
        let c = serve(&dir, 1, 8, None, &engine);
        let addr = c.addr().to_string();
        wait_done(&addr, "0x0a");
        wait_done(&addr, "0x0b");
        let (_, doc_a) = get(&addr, "/v1/runs/0x0a/result");
        c.stop();
        assert_eq!(engine.executions.load(Ordering::SeqCst), 2);

        // Phase 4: restart again — completed results serve byte-identical
        // with no executor and no re-simulation.
        let d = serve(&dir, 0, 8, None, &engine);
        let addr = d.addr().to_string();
        let (code, body) = get(&addr, "/v1/runs/0x0a");
        assert_eq!((code, state_of(&body)), (200, "done".to_string()));
        let (code, doc_again) = get(&addr, "/v1/runs/0x0a/result");
        assert_eq!(code, 200);
        assert_eq!(doc_again, doc_a, "re-served bytes are identical");
        let (code, body) = post(&addr, r#"{"id":"0x0a","name":"first"}"#);
        assert_eq!((code, state_of(&body)), (200, "done".to_string()));
        d.stop();
        assert_eq!(engine.executions.load(Ordering::SeqCst), 2, "nothing re-simulated");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_are_structured() {
        let dir = scratch("errors");
        let engine = MockEngine::new(0);
        let handle = serve(&dir, 1, 8, None, &engine);
        let addr = handle.addr().to_string();
        let (code, body) = post(&addr, "not json at all");
        assert_eq!(code, 400, "{body}");
        assert!(body.contains("invalid spec"), "{body}");
        let (code, body) = get(&addr, "/v1/runs/0xmissing");
        assert_eq!(code, 404, "{body}");
        let (code, _) = get(&addr, "/v1/nope");
        assert_eq!(code, 404);
        let (code, _) = client::request(&addr, "DELETE", "/v1/runs", None, None).unwrap();
        assert_eq!(code, 405);
        // A failing engine marks the run failed with its error.
        assert_eq!(post(&addr, r#"{"id":"0xfail"}"#).0, 201);
        for _ in 0..200 {
            let (_, body) = get(&addr, "/v1/runs/0xfail");
            if state_of(&body) == "failed" {
                assert!(body.contains("engine exploded"), "{body}");
                let (code, _) = get(&addr, "/v1/runs/0xfail/result");
                assert_eq!(code, 409);
                handle.stop();
                let _ = std::fs::remove_dir_all(&dir);
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        panic!("0xfail never reached the failed state");
    }
}
