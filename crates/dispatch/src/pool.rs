//! The coordinator: one event loop that feeds cells to workers, one
//! cell at a time each, and streams their results to the caller.
//!
//! [`dispatch_cells`] gets its workers one of two ways ([`Workers`]): it
//! spawns N processes and speaks to each over its stdin/stdout, or it
//! accepts remote workers on a TCP listener ([`crate::net`] holds the
//! accept loop and the handshake). Either way each worker becomes a
//! *connection* — a [`FrameSink`] to write to, plus a reader thread
//! draining its frames into one event channel — and one state machine
//! owns the rest: the cell ledger, the feed, per-cell deadlines,
//! heartbeat liveness, quarantine, hand-back, the status document and
//! per-peer stats. Every worker holds at most one cell, so a slow cell
//! never queues behind a fast one.
//!
//! What differs by transport follows from the transport, not from a
//! setting:
//!
//! * A spawned worker is a connection named `proc-N` from birth (no
//!   hello), and losing it kills the process. A pipe cannot go
//!   half-open, so spawned connections get no heartbeat liveness; and a
//!   spawned worker never comes back, so a spawned pool with no live
//!   worker hands its queue back at once.
//! * A remote worker arrives with a hello (token-checked), is kept
//!   honest by heartbeat liveness, may reconnect and may be
//!   quarantined. With no remote capacity for `worker_wait`, the queue
//!   is handed back.
//!
//! A cell whose retry budget runs out, and every queued cell once no
//! worker is left, comes back to the caller *unfinished* with its fault
//! history; the caller decides its fate (fail the run, or finish it
//! in-process). See the [crate docs](crate) for the wire protocol and
//! fault model.

use crate::net::{accept_loop, POLL};
use crate::transport::{BlockingSource, FrameSink, LineSource, NextLine, TcpSink, WriteSink};
use crate::worker::check_init_schema;
use rix_isa::json::Json;
use std::collections::{BTreeMap, VecDeque};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Tuning for one [`dispatch_cells`] run.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Deadline per cell assignment; a worker that exceeds it is
    /// presumed hung, killed or disconnected, and its cell retried
    /// elsewhere.
    pub cell_timeout: Duration,
    /// How many times one cell may be *retried* after a loss (so a cell
    /// runs at most `retries + 1` times) before it is handed back.
    pub retries: u32,
    /// Heartbeat interval for remote workers (their liveness deadline is
    /// 4× this).
    pub heartbeat: Duration,
    /// Consecutive attributed failures that quarantine a remote peer.
    pub quarantine_after: u32,
    /// How long a listening coordinator waits with zero connected
    /// capacity (including at startup) before handing its queue back.
    pub worker_wait: Duration,
    /// Shared secret: when set, every `hello` (worker and status alike)
    /// must carry a matching `"token"` field; a mismatch is answered
    /// with one structured `error` frame and the connection is closed.
    /// Workers read theirs from `RIX_DISPATCH_TOKEN`.
    pub token: Option<String>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            cell_timeout: Duration::from_secs(300),
            retries: 2,
            heartbeat: Duration::from_secs(2),
            quarantine_after: 3,
            worker_wait: Duration::from_secs(60),
            token: None,
        }
    }
}

/// Where a [`dispatch_cells`] run gets its workers.
#[derive(Debug)]
pub enum Workers {
    /// Spawn `count` processes (clamped to at least 1 and at most the
    /// number of cells) running `program args`, speaking the protocol on
    /// their stdin/stdout; their stderr passes through to ours.
    Spawn { count: usize, program: PathBuf, args: Vec<String> },
    /// Accept remote workers on this listener.
    Listen(TcpListener),
}

/// Per-worker accounting inside a [`PoolSummary`] — one row per spawned
/// worker process, or per named remote peer across all of its
/// connections.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerStat {
    /// `proc-N` for spawned processes; the hello-declared name for
    /// remote peers.
    pub name: String,
    /// Still connected/alive when the run ended.
    pub connected: bool,
    /// Cells this worker completed.
    pub cells_completed: u64,
    /// Cell losses attributed to this worker (death, deadline, or
    /// liveness expiry with a cell in flight).
    pub failures: u64,
    /// Reconnections beyond the first connection (remote peers only).
    pub reconnects: u64,
    /// Quarantined after too many consecutive failures (remote peers
    /// only — a dead spawned worker is simply gone).
    pub quarantined: bool,
}

impl WorkerStat {
    /// One table row for status displays: `name  state  cells failures
    /// reconnects`.
    #[must_use]
    pub fn state(&self) -> &'static str {
        if self.quarantined {
            "quarantined"
        } else if self.connected {
            "live"
        } else {
            "lost"
        }
    }
}

/// What a pool run did, beyond the results: fodder for stderr
/// reporting (never for result documents, which must stay byte-stable
/// across worker counts and fault histories).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolSummary {
    /// Worker processes spawned, or distinct remote peers that
    /// connected.
    pub workers_spawned: usize,
    /// Workers lost with a cell in flight (death, deadline, or
    /// heartbeat-liveness expiry).
    pub workers_lost: usize,
    /// Cell assignments retried after a loss.
    pub retries: u64,
    /// Cells handed back to the caller unfinished (a spent retry
    /// budget, or no worker left).
    pub degraded_cells: u64,
    /// Remote peers quarantined for consecutive failures.
    pub quarantined: usize,
    /// Per-worker detail, in a deterministic (name) order.
    pub workers: Vec<WorkerStat>,
}

/// A pool failure: what went wrong, which cell it is attributable to
/// (when one is), and the fault history that led there — so "cell 5
/// exhausted its retry budget" arrives with the three worker deaths
/// that spent it. Callers that can map cell ids back to meaningful
/// work units (benchmark / seed / arm label) should re-render with
/// [`PoolError::with_cell_description`].
#[derive(Clone, Debug)]
pub struct PoolError {
    /// The cell whose fate failed the run, when attributable.
    pub cell: Option<u64>,
    /// The fault events that led here, oldest first.
    pub history: Vec<String>,
    /// The failure itself.
    pub message: String,
}

impl PoolError {
    /// An error with no attributable cell.
    pub fn msg(message: impl Into<String>) -> Self {
        Self { cell: None, history: Vec::new(), message: message.into() }
    }

    /// Re-renders the message with a caller-supplied description of the
    /// failing cell (e.g. `gcc/integration (seed 7)`).
    #[must_use]
    pub fn with_cell_description(mut self, describe: impl Fn(u64) -> Option<String>) -> Self {
        if let Some(desc) = self.cell.and_then(describe) {
            self.message = format!("{desc}: {}", self.message);
        }
        self
    }
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.cell {
            Some(cell) => write!(f, "cell {cell}: {}", self.message)?,
            None => write!(f, "{}", self.message)?,
        }
        if !self.history.is_empty() {
            write!(f, "; fault history: {}", self.history.join("; "))?;
        }
        Ok(())
    }
}


/// What a [`dispatch_cells`] run handed back, and its accounting.
#[derive(Debug)]
pub struct PoolOutcome {
    /// The cells no worker finished, in the order they came back, as
    /// (position in `cells`, why — naming the cell, with its fault
    /// history).
    pub unfinished: Vec<(usize, PoolError)>,
    /// The run's accounting, including per-worker stats.
    pub summary: PoolSummary,
}

impl PoolOutcome {
    /// For a caller with nowhere else to run cells: the summary when
    /// every cell finished, else the error of the first cell that came
    /// back (a spent retry budget comes back before the queue the last
    /// worker left behind).
    pub fn into_result(self) -> Result<PoolSummary, PoolError> {
        match self.unfinished.into_iter().next() {
            Some((_, e)) => Err(e),
            None => Ok(self.summary),
        }
    }
}

/// One input to the coordinator's event loop.
pub(crate) enum Event {
    /// Connection `id` sent its handshake: its write half and `hello`.
    Hello(usize, TcpSink, Json),
    /// One frame from connection `id`.
    Line(usize, String),
    /// Connection `id` closed (EOF, reset, a dead process, or our own
    /// close).
    Eof(usize),
}

/// Drains connection `id`'s frames into the event channel until it
/// closes.
pub(crate) fn forward(id: usize, source: &mut dyn LineSource, tx: &mpsc::Sender<Event>) {
    loop {
        match source.next_line() {
            Ok(NextLine::Line(line)) => {
                if tx.send(Event::Line(id, line)).is_err() {
                    return;
                }
            }
            Ok(NextLine::Idle) => {}
            Ok(NextLine::Eof) | Err(_) => {
                let _ = tx.send(Event::Eof(id));
                return;
            }
        }
    }
}

struct Conn {
    name: String,
    sink: Box<dyn FrameSink>,
    /// The worker process behind a spawned connection.
    child: Option<Child>,
    alive: bool,
    /// `(position in `cells`, deadline)` of the in-flight assignment.
    busy: Option<(usize, Instant)>,
    last_seen: Instant,
}

#[derive(Default)]
struct Peer {
    connections: u64,
    cells_completed: u64,
    failures: u64,
    consecutive: u32,
    quarantined: bool,
}

/// Runs `cells` on `workers`, handing each result payload to
/// `on_result(position in cells, payload)` as it arrives (after the
/// worker that sent it has been given its next cell). Returns the cells
/// no worker finished — see [`PoolOutcome`] — and the accounting.
///
/// Fails on a worker-reported `error` (deterministic, so no retry can
/// help), an `Err` from `on_result`, or an unspawnable worker command;
/// the workers are reaped either way. Every *transport* failure is
/// retried, quarantined around, or handed back, never fatal.
pub fn dispatch_cells(
    workers: Workers,
    plan: &Json,
    cells: &[u64],
    cfg: &PoolConfig,
    mut on_result: impl FnMut(usize, Json) -> Result<(), String>,
) -> Result<PoolOutcome, PoolError> {
    let mut co = Coordinator {
        cfg,
        plan_line: plan.dump(),
        cells,
        queue: (0..cells.len()).collect(),
        attempts: vec![0; cells.len()],
        history: vec![Vec::new(); cells.len()],
        done: 0,
        unfinished: Vec::new(),
        started: Instant::now(),
        summary: PoolSummary::default(),
        conns: BTreeMap::new(),
        peers: BTreeMap::new(),
        ping_n: 0,
    };
    if cells.is_empty() {
        return Ok(PoolOutcome { unfinished: Vec::new(), summary: co.summary });
    }
    let (tx, rx) = mpsc::channel::<Event>();
    let stop = Arc::new(AtomicBool::new(false));
    let accept = match workers {
        Workers::Spawn { count, program, args } => {
            for w in 0..count.clamp(1, cells.len()) {
                if let Err(e) = co.spawn(w, &program, &args, &tx) {
                    co.finish(true);
                    return Err(PoolError::msg(e));
                }
            }
            None
        }
        Workers::Listen(listener) => {
            listener.set_nonblocking(true).map_err(|e| {
                PoolError::msg(format!("cannot make the listener non-blocking: {e}"))
            })?;
            let (tx, stop) = (tx.clone(), Arc::clone(&stop));
            Some(std::thread::spawn(move || accept_loop(&listener, &tx, &stop)))
        }
    };
    let (mut last_capacity, mut last_ping) = (Instant::now(), Instant::now());
    let out = loop {
        if co.done + co.unfinished.len() == cells.len() {
            break Ok(());
        }
        co.feed();
        if last_ping.elapsed() >= cfg.heartbeat {
            last_ping = Instant::now();
            co.ping_all();
        }
        // `tx` lives in this scope, so the channel cannot disconnect:
        // an `Err` is a poll timeout.
        match rx.recv_timeout(POLL) {
            Ok(Event::Hello(id, sink, hello)) => co.handle_hello(id, sink, &hello),
            Ok(Event::Line(id, line)) => {
                if let Err(e) = co.handle_line(id, &line, &mut on_result) {
                    break Err(e);
                }
            }
            Ok(Event::Eof(id)) => co.lose_conn(id, "lost its connection"),
            Err(_) => {}
        }
        co.sweep_deadlines();
        co.sweep_liveness();
        if co.has_capacity() {
            last_capacity = Instant::now();
        } else if accept.is_none() {
            // Spawned workers never come back: hand the queue back now.
            let why = format!(
                "all {} workers died with {} of {} cells unfinished ({} lost, {} retries used)",
                co.conns.len(),
                cells.len() - co.done,
                cells.len(),
                co.summary.workers_lost,
                co.summary.retries,
            );
            co.degrade_queue(&why);
        } else if last_capacity.elapsed() > cfg.worker_wait {
            co.degrade_queue(&format!(
                "no connected workers for {:.1}s",
                cfg.worker_wait.as_secs_f64()
            ));
        }
    };
    stop.store(true, Ordering::Relaxed);
    if let Some(accept) = accept {
        let _ = accept.join();
    }
    co.finish(out.is_err());
    out.map(|()| PoolOutcome { unfinished: co.unfinished, summary: co.summary })
}

struct Coordinator<'a> {
    cfg: &'a PoolConfig,
    plan_line: String,
    cells: &'a [u64],
    queue: VecDeque<usize>,
    attempts: Vec<u32>,
    /// Per-cell fault events (worker deaths, deadline hits), oldest
    /// first — surfaced in [`PoolError`]s.
    history: Vec<Vec<String>>,
    done: usize,
    unfinished: Vec<(usize, PoolError)>,
    started: Instant,
    summary: PoolSummary,
    conns: BTreeMap<usize, Conn>,
    peers: BTreeMap<String, Peer>,
    ping_n: u64,
}

impl Coordinator<'_> {
    fn init_frame(&self, worker: usize, heartbeat: Duration) -> String {
        format!(
            "{{\"schema\":\"{}\",\"type\":\"init\",\"worker\":{worker},\"heartbeat_ms\":{},\
             \"plan\":{}}}",
            crate::PROTOCOL_SCHEMA,
            heartbeat.as_millis(),
            self.plan_line
        )
    }

    /// Spawns worker `w` as connection `w`, named `proc-{w}`.
    fn spawn(
        &mut self,
        w: usize,
        program: &Path,
        args: &[String],
        tx: &mpsc::Sender<Event>,
    ) -> Result<(), String> {
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn worker `{}`: {e}", program.display()))?;
        let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("worker stdio was not piped".into());
        };
        let tx = tx.clone();
        std::thread::spawn(move || forward(w, &mut BlockingSource::new(stdout), &tx));
        // A failed init just means the worker died at birth; its EOF
        // event reports that.
        let mut sink = WriteSink::new(stdin);
        let _ = sink.send(&self.init_frame(w, Duration::ZERO));
        let name = format!("proc-{w}");
        self.peers.entry(name.clone()).or_default().connections += 1;
        let sink = Box::new(sink);
        let last_seen = Instant::now();
        let conn = Conn { name, sink, child: Some(child), alive: true, busy: None, last_seen };
        self.conns.insert(w, conn);
        Ok(())
    }

    fn handle_hello(&mut self, id: usize, mut sink: TcpSink, hello: &Json) {
        let token = hello.get("token").and_then(Json::as_str);
        let rejection = if check_init_schema(hello).is_err() {
            let speaks = crate::PROTOCOL_SCHEMA;
            Some(format!("unsupported hello schema (this coordinator speaks {speaks})"))
        } else if self.cfg.token.as_deref().is_some_and(|t| token != Some(t)) {
            Some(
                "hello rejected: missing or mismatched token (set --token or \
                 RIX_DISPATCH_TOKEN to this coordinator's shared secret)"
                    .to_string(),
            )
        } else {
            None
        };
        if let Some(message) = rejection {
            let message = Json::Str(message).dump();
            let _ = sink.send(&format!("{{\"type\":\"error\",\"message\":{message}}}"));
            sink.close();
            return;
        }
        if hello.get("role").and_then(Json::as_str) == Some("status") {
            let _ = sink.send(&self.status_doc().dump());
            sink.close();
            return;
        }
        let name = hello
            .get("name")
            .and_then(Json::as_str)
            .map_or_else(|| format!("conn-{id}"), str::to_string);
        let peer = self.peers.entry(name.clone()).or_default();
        if peer.quarantined {
            let _ = sink.send("{\"type\":\"quarantine\"}");
            sink.close();
            return;
        }
        peer.connections += 1;
        if sink.send(&self.init_frame(id, self.cfg.heartbeat)).is_err() {
            sink.close();
            return;
        }
        eprintln!("dispatch: worker {name} connected");
        let sink = Box::new(sink);
        let last_seen = Instant::now();
        let conn = Conn { name, sink, child: None, alive: true, busy: None, last_seen };
        self.conns.insert(id, conn);
    }

    fn handle_line(
        &mut self,
        id: usize,
        line: &str,
        on_result: &mut dyn FnMut(usize, Json) -> Result<(), String>,
    ) -> Result<(), PoolError> {
        let Some(conn) = self.conns.get_mut(&id).filter(|c| c.alive) else { return Ok(()) };
        conn.last_seen = Instant::now();
        let Ok(msg) = Json::parse(line) else {
            self.lose_conn(id, "sent an unparsable frame");
            return Ok(());
        };
        match msg.get("type").and_then(Json::as_str) {
            Some("ping") => Ok(()),
            Some("result") => {
                let cell = msg.get("cell").and_then(Json::as_u64);
                let assigned =
                    conn.busy.map(|(pos, _)| pos).filter(|&pos| cell == Some(self.cells[pos]));
                let (Some(pos), Some(payload)) = (assigned, msg.get("payload")) else {
                    let why = format!("sent a malformed or unassigned result for cell {cell:?}");
                    self.lose_conn(id, &why);
                    return Ok(());
                };
                conn.busy = None;
                let peer = self.peers.entry(conn.name.clone()).or_default();
                peer.cells_completed += 1;
                peer.consecutive = 0;
                self.done += 1;
                let payload = payload.clone();
                // The worker gets its next cell before this one is
                // decoded, so decoding never delays a worker.
                self.feed();
                on_result(pos, payload).map_err(PoolError::msg)
            }
            Some("error") => {
                let cell = msg.get("cell").and_then(Json::as_u64);
                let message = msg.get("message").and_then(Json::as_str).unwrap_or("(no message)");
                let pos = cell.and_then(|c| self.cells.iter().position(|&x| x == c));
                Err(PoolError {
                    cell,
                    history: pos.map(|p| self.history[p].clone()).unwrap_or_default(),
                    message: format!("worker {} reported: {message}", conn.name),
                })
            }
            other => {
                self.lose_conn(id, &format!("sent an unexpected {other:?} frame"));
                Ok(())
            }
        }
    }

    /// Hands queued cells to every idle live connection.
    fn feed(&mut self) {
        let mut lost: Vec<usize> = Vec::new();
        for (&id, conn) in &mut self.conns {
            if !(conn.alive && conn.busy.is_none()) {
                continue;
            }
            let Some(pos) = self.queue.pop_front() else { break };
            let frame = format!("{{\"type\":\"cell\",\"cell\":{}}}", self.cells[pos]);
            if conn.sink.send(&frame).is_ok() {
                conn.busy = Some((pos, Instant::now() + self.cfg.cell_timeout));
            } else {
                // The send itself failed, so the cell never reached the
                // worker: put it back uncharged and retire the
                // connection (its EOF event is already in flight).
                self.queue.push_front(pos);
                lost.push(id);
            }
        }
        for id in lost {
            self.lose_conn(id, "lost its connection");
        }
    }

    /// Pings every live remote connection (pipes need no liveness
    /// proof).
    fn ping_all(&mut self) {
        self.ping_n += 1;
        let frame = format!("{{\"type\":\"ping\",\"n\":{}}}", self.ping_n);
        let lost: Vec<usize> = self
            .conns
            .iter_mut()
            .filter(|(_, c)| c.alive && c.child.is_none())
            .filter_map(|(&id, c)| c.sink.send(&frame).is_err().then_some(id))
            .collect();
        for id in lost {
            self.lose_conn(id, "lost its connection");
        }
    }

    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        let timeout = self.cfg.cell_timeout.as_secs_f64();
        let expired: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| c.alive && c.busy.is_some_and(|(_, d)| now >= d))
            .map(|(&id, _)| id)
            .collect();
        let why = format!("exceeded the {timeout:.0}s cell deadline (presumed hung)");
        for id in expired {
            self.lose_conn(id, &why);
        }
    }

    /// Declares silent remote connections lost: the only way to catch a
    /// half-open link or a partition.
    fn sweep_liveness(&mut self) {
        let deadline = self.cfg.heartbeat * 4;
        let silent: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| c.alive && c.child.is_none() && c.last_seen.elapsed() > deadline)
            .map(|(&id, _)| id)
            .collect();
        for id in silent {
            self.lose_conn(
                id,
                &format!(
                    "went silent past the {:.1}s liveness deadline (half-open or partitioned)",
                    deadline.as_secs_f64()
                ),
            );
        }
    }

    /// Records a fault event against cell `pos`, stamped with the time
    /// since the run started.
    fn record(&mut self, pos: usize, event: &str) {
        let t = self.started.elapsed();
        self.history[pos].push(format!("[t+{:.1}s] {event}", t.as_secs_f64()));
    }

    /// Hands cell `pos` back to the caller unfinished.
    fn hand_back(&mut self, pos: usize, message: String) {
        let history = self.history[pos].clone();
        self.unfinished.push((pos, PoolError { cell: Some(self.cells[pos]), history, message }));
        self.summary.degraded_cells += 1;
    }

    /// Declares connection `id` dead: closes it (killing a spawned
    /// worker), and — when a cell was in flight — attributes the loss
    /// to the peer (feeding the quarantine counter) and requeues the
    /// cell or, its retry budget spent, hands it back.
    fn lose_conn(&mut self, id: usize, why: &str) {
        let Some(conn) = self.conns.get_mut(&id).filter(|c| c.alive) else { return };
        conn.alive = false;
        conn.sink.close();
        if let Some(child) = &mut conn.child {
            let _ = child.kill();
        }
        let name = conn.name.clone();
        let Some((pos, _)) = conn.busy.take() else { return };
        eprintln!("dispatch: worker {name} {why}; requeueing its cell");
        self.summary.workers_lost += 1;
        self.record(pos, &format!("worker {name} {why}"));
        self.attempts[pos] += 1;
        if self.attempts[pos] > self.cfg.retries {
            eprintln!("dispatch: cell {} spent its retry budget", self.cells[pos]);
            let message = format!(
                "lost its worker {} times (retry budget {}); giving up",
                self.attempts[pos], self.cfg.retries
            );
            self.hand_back(pos, message);
        } else {
            self.summary.retries += 1;
            self.queue.push_front(pos);
        }
        let peer = self.peers.entry(name.clone()).or_default();
        peer.failures += 1;
        peer.consecutive += 1;
        if peer.consecutive >= self.cfg.quarantine_after && !peer.quarantined {
            peer.quarantined = true;
            eprintln!(
                "dispatch: quarantining worker {name} after {} consecutive failures",
                peer.consecutive
            );
            // Close the peer's other connections; their cells go back
            // uncharged (they never failed there).
            for c in self.conns.values_mut().filter(|c| c.alive && c.name == name) {
                let _ = c.sink.send("{\"type\":\"quarantine\"}");
                c.sink.close();
                c.alive = false;
                if let Some((p, _)) = c.busy.take() {
                    let t = self.started.elapsed().as_secs_f64();
                    let event = format!("[t+{t:.1}s] reassigned: worker {name} quarantined");
                    self.history[p].push(event);
                    self.queue.push_front(p);
                }
            }
        }
    }

    /// Any live connection whose peer is not quarantined?
    fn has_capacity(&self) -> bool {
        let quarantined = |name: &String| self.peers.get(name).is_some_and(|p| p.quarantined);
        self.conns.values().any(|c| c.alive && !quarantined(&c.name))
    }

    /// Hands every queued cell back.
    fn degrade_queue(&mut self, why: &str) {
        while let Some(pos) = self.queue.pop_front() {
            self.hand_back(pos, why.to_string());
        }
    }

    fn status_doc(&self) -> Json {
        let workers: Vec<Json> = self
            .peers
            .iter()
            .map(|(name, p)| {
                let connected = self.conns.values().any(|c| c.alive && &c.name == name);
                let state = if p.quarantined {
                    "quarantined"
                } else if connected {
                    "live"
                } else {
                    "lost"
                };
                Json::Obj(vec![
                    ("name".into(), Json::Str(name.clone())),
                    ("state".into(), Json::Str(state.into())),
                    ("cells_completed".into(), Json::Num(p.cells_completed.to_string())),
                    ("failures".into(), Json::Num(p.failures.to_string())),
                    ("reconnects".into(), Json::Num(p.connections.saturating_sub(1).to_string())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(crate::STATUS_SCHEMA.into())),
            ("cells_total".into(), Json::Num(self.cells.len().to_string())),
            ("cells_done".into(), Json::Num(self.done.to_string())),
            ("queued".into(), Json::Num(self.queue.len().to_string())),
            ("retries".into(), Json::Num(self.summary.retries.to_string())),
            ("workers".into(), Json::Arr(workers)),
        ])
    }

    /// Ends every connection — remote survivors get a clean `shutdown`,
    /// spawned workers see their stdin close (or are killed when
    /// `abort`) — reaps every spawned process, and fills the summary's
    /// per-peer stats.
    fn finish(&mut self, abort: bool) {
        for conn in self.conns.values_mut() {
            match &mut conn.child {
                Some(child) if abort => {
                    let _ = child.kill();
                }
                None if conn.alive => {
                    let _ = conn.sink.send("{\"type\":\"shutdown\"}");
                }
                _ => {}
            }
            conn.sink.close();
        }
        for child in self.conns.values_mut().filter_map(|c| c.child.as_mut()) {
            let _ = child.wait();
        }
        self.summary.workers_spawned = self.peers.len();
        self.summary.quarantined = self.peers.values().filter(|p| p.quarantined).count();
        self.summary.workers = self
            .peers
            .iter()
            .map(|(name, p)| WorkerStat {
                name: name.clone(),
                connected: self.conns.values().any(|c| &c.name == name && c.alive),
                cells_completed: p.cells_completed,
                failures: p.failures,
                reconnects: p.connections.saturating_sub(1),
                quarantined: p.quarantined,
            })
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A POSIX-sh stand-in worker: answers every `cell` assignment with
    /// a `result` whose payload echoes the cell id — enough to test the
    /// pool's scheduling, merging and fault handling without dragging a
    /// simulator in.
    const SH_ECHO_WORKER: &str = r#"
while IFS= read -r line; do
  case "$line" in
    *'"type":"cell"'*)
      c=${line##*\"cell\":}; c=${c%%\}*}
      printf '{"type":"result","cell":%s,"payload":{"cell":%s}}\n' "$c" "$c"
      ;;
  esac
done
"#;

    /// `count` stand-in workers running `script` under `sh -c`.
    fn sh_workers(count: usize, script: &str) -> Workers {
        Workers::Spawn { count, program: "sh".into(), args: vec!["-c".into(), script.into()] }
    }

    fn plan() -> Json {
        Json::parse(r#"{"note":"test plan"}"#).unwrap()
    }

    /// A short cell deadline, for stand-ins that never answer.
    fn hang_cfg() -> PoolConfig {
        PoolConfig { cell_timeout: Duration::from_millis(100), ..PoolConfig::default() }
    }

    /// Runs `cells` on `workers` for a caller with nowhere else to run
    /// them: the payloads in `cells` order, or the first hand-back as an
    /// error.
    fn run(
        workers: Workers,
        cells: &[u64],
        cfg: &PoolConfig,
    ) -> Result<(Vec<Json>, PoolSummary), PoolError> {
        let mut payloads: Vec<Option<Json>> = vec![None; cells.len()];
        let outcome = dispatch_cells(workers, &plan(), cells, cfg, |pos, payload| {
            assert!(payloads[pos].replace(payload).is_none(), "cell {pos} reported twice");
            Ok(())
        })?;
        let summary = outcome.into_result()?;
        Ok((payloads.into_iter().map(|p| p.expect("every cell reported")).collect(), summary))
    }

    #[test]
    fn results_come_back_in_cell_order() {
        let cells: Vec<u64> = vec![3, 1, 4, 1_000_000, 9];
        for workers in [1usize, 2, 4, 8] {
            let cfg = PoolConfig::default();
            let (payloads, summary) =
                run(sh_workers(workers, SH_ECHO_WORKER), &cells, &cfg).unwrap();
            assert_eq!(payloads.len(), cells.len());
            for (cell, payload) in cells.iter().zip(&payloads) {
                assert_eq!(payload.get("cell").and_then(Json::as_u64), Some(*cell));
            }
            assert_eq!(summary.workers_spawned, workers.min(cells.len()));
            assert_eq!(summary.workers_lost, 0);
            assert_eq!(summary.retries, 0);
            assert_eq!(summary.workers.len(), summary.workers_spawned);
            let total: u64 = summary.workers.iter().map(|w| w.cells_completed).sum();
            assert_eq!(total, cells.len() as u64, "per-worker counts add up");
        }
    }

    #[test]
    fn empty_cell_list_spawns_nothing() {
        let cfg = PoolConfig::default();
        let (payloads, summary) = run(sh_workers(2, SH_ECHO_WORKER), &[], &cfg).unwrap();
        assert!(payloads.is_empty());
        assert_eq!(summary.workers_spawned, 0);
    }

    #[test]
    fn dead_worker_cells_are_retried_on_survivors() {
        // Worker 0 exits as soon as it is assigned a cell; worker 1
        // serves normally. Every cell must still complete.
        let script = r#"
read -r init
case "$init" in *'"worker":0'*) die=1;; *) die=0;; esac
while IFS= read -r line; do
  case "$line" in
    *'"type":"cell"'*)
      [ "$die" = 1 ] && exit 7
      c=${line##*\"cell\":}; c=${c%%\}*}
      printf '{"type":"result","cell":%s,"payload":{"cell":%s}}\n' "$c" "$c"
      ;;
  esac
done
"#;
        let cells: Vec<u64> = (0..6).collect();
        let (payloads, summary) =
            run(sh_workers(2, script), &cells, &PoolConfig::default()).unwrap();
        for (cell, payload) in cells.iter().zip(&payloads) {
            assert_eq!(payload.get("cell").and_then(Json::as_u64), Some(*cell));
        }
        assert_eq!(summary.workers_lost, 1);
        assert!(summary.retries >= 1, "{summary:?}");
        let dead = summary.workers.iter().find(|w| w.name == "proc-0").unwrap();
        assert!(!dead.connected && dead.failures >= 1, "{dead:?}");
    }

    #[test]
    fn hung_worker_hits_the_deadline_and_all_dead_is_an_error() {
        // The worker reads assignments and never answers; with one
        // worker the pool must detect the hang and fail descriptively.
        let script = "while IFS= read -r line; do :; done";
        let cfg = PoolConfig { retries: 1, ..hang_cfg() };
        let err = run(sh_workers(1, script), &[0], &cfg).unwrap_err().to_string();
        assert!(err.contains("workers died"), "{err}");
    }

    #[test]
    fn budget_exhaustion_names_the_cell_and_its_fault_history() {
        // Two hang-forever workers, zero retries, a short deadline: the
        // first deadline expiry spends cell 0's budget, and the error
        // must name the cell and carry the deadline event.
        let script = "while IFS= read -r line; do :; done";
        let cfg = PoolConfig { retries: 0, ..hang_cfg() };
        let err = run(sh_workers(2, script), &[41, 42, 43], &cfg).unwrap_err();
        assert!(err.cell.is_some(), "{err}");
        assert!(!err.history.is_empty(), "history travels with the error: {err}");
        let text = err.to_string();
        assert!(text.contains("fault history"), "{text}");
        assert!(text.contains("deadline"), "{text}");
        // The caller can re-render the cell as a meaningful label.
        let described = err.with_cell_description(|c| Some(format!("bench-{c}/arm"))).to_string();
        assert!(described.contains("/arm"), "{described}");
    }

    #[test]
    fn worker_error_is_fatal_not_retried() {
        let script = r#"
while IFS= read -r line; do
  case "$line" in
    *'"type":"cell"'*)
      printf '{"type":"error","cell":0,"message":"deterministic failure"}\n'
      ;;
  esac
done
"#;
        let err = run(sh_workers(1, script), &[0, 1], &PoolConfig::default()).unwrap_err();
        let err = err.to_string();
        assert!(err.contains("deterministic failure"), "{err}");
    }

    #[test]
    fn unspawnable_worker_command_is_an_error() {
        let workers =
            Workers::Spawn { count: 2, program: "/nonexistent/rix-worker".into(), args: vec![] };
        let err = run(workers, &[0], &PoolConfig::default()).unwrap_err().to_string();
        assert!(err.contains("cannot spawn worker"), "{err}");
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rix-pool-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn results_stream_to_the_callback_while_the_run_is_live() {
        // The worker answers its last cell only once the callback has
        // seen the first: a coordinator that held results back until
        // the pool drained would hang here until the cell deadline.
        let dir = scratch("stream");
        let mark = dir.join("first-result-seen");
        let script = format!(
            r#"
while IFS= read -r line; do
  case "$line" in
    *'"type":"cell"'*)
      c=${{line##*\"cell\":}}; c=${{c%%\}}*}}
      [ "$c" = 8 ] && while [ ! -e '{}' ]; do sleep 0.01; done
      printf '{{"type":"result","cell":%s,"payload":{{"cell":%s}}}}\n' "$c" "$c"
      ;;
  esac
done
"#,
            mark.display()
        );
        let cfg = PoolConfig { cell_timeout: Duration::from_secs(20), retries: 0, ..hang_cfg() };
        let mut seen = Vec::new();
        let on_result = |pos: usize, payload: Json| {
            if seen.is_empty() {
                std::fs::write(&mark, b"").map_err(|e| e.to_string())?;
            }
            seen.push((pos, payload.get("cell").and_then(Json::as_u64)));
            Ok(())
        };
        let outcome = dispatch_cells(sh_workers(1, &script), &plan(), &[7, 8], &cfg, on_result);
        let outcome = outcome.unwrap();
        assert!(outcome.unfinished.is_empty(), "{:?}", outcome.summary);
        assert_eq!(seen, [(0, Some(7)), (1, Some(8))], "once per cell, as it arrives");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn callback_error_ends_the_run_and_reaps_every_worker() {
        let dir = scratch("reap");
        let pids = dir.join("pids");
        let script = format!("echo $$ >> '{}'\n{SH_ECHO_WORKER}", pids.display());
        let mut calls = 0;
        let on_result = |_: usize, _: Json| {
            calls += 1;
            Err("the caller gave up".to_string())
        };
        let cfg = PoolConfig::default();
        let err = dispatch_cells(sh_workers(2, &script), &plan(), &[1, 2, 3, 4], &cfg, on_result);
        let err = err.unwrap_err();
        assert_eq!(calls, 1, "the first error ends the run");
        assert!(err.to_string().contains("the caller gave up"), "{err}");
        // Every worker that got as far as running appended its pid, and
        // all of them are dead once the run returns, so the file is final.
        let text = std::fs::read_to_string(&pids).unwrap_or_default();
        let pids: Vec<&str> = text.lines().collect();
        assert!(!pids.is_empty(), "a worker answered, so one started");
        for pid in pids {
            // A killed but unreaped child would linger as a zombie with
            // its /proc entry intact.
            assert!(!Path::new(&format!("/proc/{pid}")).exists(), "worker {pid} was not reaped");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
