//! Distributed sweep execution and the trial cache — the bench-side
//! glue over the generic [`rix_dispatch`] coordinator.
//!
//! ## One cell engine
//!
//! Every cell of a grid, wherever it runs, goes through the same two
//! [`crate::Sweep`] methods: `prepare_row` builds a benchmark's program
//! and prepares its warm-up provenance (loading and program-hash
//! checking the `rix-ckpt/1` snapshot under
//! [`crate::WarmupMode::Checkpoint`], or running the one functional
//! fast-forward), and `run_cell` measures one (row, arm) cell. In
//! process, `run_cells` is the only executor: [`crate::Sweep::try_run`]
//! calls it for the whole grid, and a distributed run calls it for its
//! cache misses, or for a served run's degraded tail — always on the
//! sweep's [`crate::Sweep::threads`]. Those cells never touch JSON until
//! a result is stored in the cache. The extra threads stay inside the
//! memory budget because `run_cells` pins glibc's mmap and trim
//! thresholds once per process: on a 2-vCPU Xeon, a two-thread
//! serve-api benchmark peaked at 17–18 MiB with the thresholds pinned
//! and at 21–22 MiB without (about 16 MiB on one thread).
//!
//! Worker processes get the sweep as a `rix-dispatch-plan/1` document
//! (benchmark names, labelled configs as full canonical JSON, budgets,
//! seed, warm-up policy) in the `init` message, decode it back into a
//! one-thread [`crate::Sweep`], prepare each row on its first cell, and
//! answer with losslessly-serialised [`rix_sim::RunResult`]s. Cells are
//! bench-major grid indices, `cell = bench_idx * narms + arm_idx`,
//! exactly [`crate::Sweep`]'s trial order, so the merged trials are
//! **byte-identical** to [`crate::Sweep::try_run`]'s for every worker
//! count, cache state and fault history.
//!
//! ## The cache (`--cache DIR`)
//!
//! The coordinator's process owns the cache on every path — in-process,
//! spawned workers and served runs alike. With a cache directory set,
//! every cell is first looked up by the
//! 128-bit content hash of its `rix-cell/1` descriptor: benchmark,
//! seed, arm label, the arm's **full canonical config JSON**, budgets,
//! warm-up policy and stop condition — plus the checkpoint *file
//! content hash* under checkpoint warm-up, so re-saving a snapshot
//! invalidates the cells that forked from it. Keying each cell by its
//! own content (rather than the whole spec's fingerprint) is what makes
//! invalidation exact: editing one arm re-simulates only that arm's
//! cells, and unrelated specs sharing identical cells share entries.
//! Only the misses are dispatched, and each fresh result is stored the
//! moment it arrives (decoded first, so a malformed payload is never
//! written): a run that fails late keeps every cell it finished, and
//! workers never name a key — only results for the cells they were
//! assigned are written, under keys computed here. Entry writes are
//! atomic (temp file + rename) and corrupt entries read as misses — see
//! [`rix_dispatch::cache`].
//!
//! Wall-clock time is not cached (a reused trial reports zero), which
//! is why [`crate::Trial::to_json`] — and therefore every result
//! document — deliberately excludes it.
//!
//! ## Multi-host (`--listen` / `exp serve` + `exp worker --connect`)
//!
//! With `--listen ADDR` the coordinator spawns nothing: it binds a TCP
//! listener (announcing `dispatch: listening on …` before it consults
//! the cache) and serves the cache misses to remote workers over
//! `rix-dispatch/2` ([`rix_dispatch::net`]), heartbeats and all, through
//! the same coordinator as `--workers`. Diskless remote hosts still
//! dedup, since the cache never leaves this process; a fully warm served
//! run needs no worker at all. Cells the network cannot finish (retry
//! budgets spent, or all remote capacity lost past the grace period)
//! **degrade** to in-process execution here, so a distributed sweep
//! completes with a slower tail rather than failing; the degradation is
//! visible in the [`DispatchReport`]. A spawned pool has nowhere to
//! degrade to: a cell it cannot finish fails the run once the rest of
//! the grid has drained (and been cached). Merged trials stay
//! byte-identical to a single-process run under any fault history.
//!
//! ## Fault injection (tests)
//!
//! `RIX_DISPATCH_FAULT=abort:K` makes worker `K` abort before running
//! its first cell; `stall:K` makes it hang (exercising the per-cell
//! deadline, tunable via `RIX_DISPATCH_TIMEOUT_SECS`; the retry budget
//! via `RIX_DISPATCH_RETRIES`). TCP workers additionally honour the
//! network-level specs `net-drop:N[:repeat]` / `net-stall:N` /
//! `net-exit:N` (see [`rix_dispatch::transport::NetFault`]), and their
//! reconnect schedule is tunable via `RIX_DISPATCH_BACKOFF_MS` /
//! `RIX_DISPATCH_BACKOFF_ATTEMPTS`; the served coordinator reads
//! `RIX_DISPATCH_HEARTBEAT_MS`, `RIX_DISPATCH_QUARANTINE` and
//! `RIX_DISPATCH_WAIT_SECS`. The variables only affect the processes
//! they are set for (spawned stdio workers inherit the coordinator's
//! environment; remote workers have their own).

use crate::{Harness, Row, Sweep, Trial, WarmupMode};
use rix_dispatch::{PoolSummary, ResultCache, WorkerStat, Workers, WORKER_ARG};
use rix_isa::json::{write_str, Json};
use rix_sim::{RunResult, SimConfig, StopWhen};
use rix_workloads::Benchmark;
use std::time::Duration;

/// The plan document schema shipped to workers.
pub const PLAN_SCHEMA: &str = "rix-dispatch-plan/1";
/// The cache-key descriptor schema (hashed, never stored).
pub const CELL_SCHEMA: &str = "rix-cell/1";

/// How a distributed run executes: worker processes, cache, fault
/// tolerance budgets.
#[derive(Clone, Debug)]
pub struct DispatchOptions {
    /// Worker processes (0 = execute misses in this process).
    pub workers: usize,
    /// Trial cache directory (`None` = simulate everything).
    pub cache: Option<String>,
    /// Serve the grid to remote TCP workers on this address instead of
    /// spawning local processes (mutually exclusive with `workers`).
    pub listen: Option<String>,
    /// Per-cell deadline before a worker is presumed hung.
    pub cell_timeout: Duration,
    /// Retries per cell after a worker death or timeout.
    pub retries: u32,
    /// Heartbeat interval on served (TCP) runs; the liveness deadline
    /// is 4× this.
    pub heartbeat: Duration,
    /// Consecutive attributed failures that quarantine a remote peer.
    pub quarantine_after: u32,
    /// How long a served run waits with zero connected capacity before
    /// degrading the remaining cells to in-process execution.
    pub worker_wait: Duration,
    /// Shared secret for served (TCP) runs: when set, every remote
    /// hello must carry a matching token (see [`rix_dispatch::net`]).
    pub token: Option<String>,
}

impl Default for DispatchOptions {
    fn default() -> Self {
        Self {
            workers: 0,
            cache: None,
            listen: None,
            cell_timeout: Duration::from_secs(300),
            retries: 2,
            heartbeat: Duration::from_secs(2),
            quarantine_after: 3,
            worker_wait: Duration::from_secs(60),
            token: None,
        }
    }
}

impl DispatchOptions {
    /// The options a [`Harness`] command line implies: `--workers`,
    /// `--cache` and `--listen`, with the fault-tolerance budgets
    /// overridable via environment variables (primarily for tests that
    /// need short deadlines): `RIX_DISPATCH_TIMEOUT_SECS` (cell
    /// deadline), `RIX_DISPATCH_RETRIES` (retry budget),
    /// `RIX_DISPATCH_HEARTBEAT_MS` (served-run heartbeat),
    /// `RIX_DISPATCH_QUARANTINE` (consecutive-failure threshold) and
    /// `RIX_DISPATCH_WAIT_SECS` (zero-capacity grace period).
    #[must_use]
    pub fn from_harness(h: &Harness) -> Self {
        let mut opts = Self {
            workers: h.workers,
            cache: h.cache.clone(),
            listen: h.listen.clone(),
            token: h.token.clone().or_else(|| std::env::var("RIX_DISPATCH_TOKEN").ok()),
            ..Self::default()
        };
        if let Some(secs) = env_u64("RIX_DISPATCH_TIMEOUT_SECS") {
            opts.cell_timeout = Duration::from_secs(secs.max(1));
        }
        if let Some(r) = env_u64("RIX_DISPATCH_RETRIES") {
            opts.retries = u32::try_from(r).unwrap_or(u32::MAX);
        }
        if let Some(ms) = env_u64("RIX_DISPATCH_HEARTBEAT_MS") {
            opts.heartbeat = Duration::from_millis(ms.max(1));
        }
        if let Some(k) = env_u64("RIX_DISPATCH_QUARANTINE") {
            opts.quarantine_after = u32::try_from(k.max(1)).unwrap_or(u32::MAX);
        }
        if let Some(secs) = env_u64("RIX_DISPATCH_WAIT_SECS") {
            opts.worker_wait = Duration::from_secs(secs);
        }
        opts
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

/// What a distributed run did: the split between simulated and reused
/// cells, and the pool's fault history. Reported on stderr (and in the
/// `exp` result document's `cache` section when a cache is in use) —
/// never inside trial records, which stay byte-stable across worker
/// counts and fault histories.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DispatchReport {
    /// Grid cells in the run.
    pub cells: usize,
    /// Cells actually simulated (cache misses, or everything without a
    /// cache).
    pub simulated: usize,
    /// Cells reused from the cache.
    pub cache_hits: usize,
    /// Worker processes spawned, or distinct remote peers that
    /// connected (0 for an in-process run).
    pub workers_spawned: usize,
    /// Workers lost to death, deadline, or liveness expiry.
    pub workers_lost: usize,
    /// Cell assignments retried after a loss.
    pub retries: u64,
    /// Cells that degraded from remote workers to in-process execution
    /// (served runs only).
    pub degraded: u64,
    /// Remote peers quarantined for consecutive failures.
    pub quarantined: usize,
    /// Per-worker detail for `--verbose` (empty for in-process runs).
    pub workers: Vec<WorkerStat>,
}

impl DispatchReport {
    /// The report of a run over `cells` grid cells, `cache_hits` of them
    /// reused and the rest simulated, with the pool's fault history.
    fn new(cells: usize, cache_hits: usize, pool: PoolSummary) -> Self {
        Self {
            cells,
            simulated: cells - cache_hits,
            cache_hits,
            workers_spawned: pool.workers_spawned,
            workers_lost: pool.workers_lost,
            retries: pool.retries,
            degraded: pool.degraded_cells,
            quarantined: pool.quarantined,
            workers: pool.workers,
        }
    }

    /// One-line summary for stderr progress reporting.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} cells: {} simulated, {} cache hits",
            self.cells, self.simulated, self.cache_hits
        );
        if self.workers_spawned > 0 {
            s.push_str(&format!(", {} workers", self.workers_spawned));
        }
        if self.workers_lost > 0 {
            s.push_str(&format!(
                " ({} lost, {} cell retries)",
                self.workers_lost, self.retries
            ));
        }
        if self.degraded > 0 {
            s.push_str(&format!(", {} degraded to in-process", self.degraded));
        }
        if self.quarantined > 0 {
            s.push_str(&format!(", {} quarantined", self.quarantined));
        }
        s
    }

    /// The report as JSON — the `dispatch` section of a result document
    /// under `--dispatch-stats`, and the service's per-run stats. The
    /// per-worker detail that used to exist only as the `--verbose`
    /// table is included structurally, so machine consumers never
    /// re-parse tables.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let workers = self
            .workers
            .iter()
            .map(|w| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(w.name.clone())),
                    ("state".into(), Json::Str(w.state().into())),
                    ("cells_completed".into(), Json::Num(w.cells_completed.to_string())),
                    ("failures".into(), Json::Num(w.failures.to_string())),
                    ("reconnects".into(), Json::Num(w.reconnects.to_string())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("cells".into(), Json::Num(self.cells.to_string())),
            ("simulated".into(), Json::Num(self.simulated.to_string())),
            ("cache_hits".into(), Json::Num(self.cache_hits.to_string())),
            ("workers_spawned".into(), Json::Num(self.workers_spawned.to_string())),
            ("workers_lost".into(), Json::Num(self.workers_lost.to_string())),
            ("retries".into(), Json::Num(self.retries.to_string())),
            ("degraded".into(), Json::Num(self.degraded.to_string())),
            ("quarantined".into(), Json::Num(self.quarantined.to_string())),
            ("workers".into(), Json::Arr(workers)),
        ])
    }

    /// Multi-line per-worker table (liveness, completions, failures,
    /// reconnects, quarantine) for `--verbose`. Empty string when the
    /// run had no workers.
    #[must_use]
    pub fn worker_table(&self) -> String {
        if self.workers.is_empty() {
            return String::new();
        }
        let mut s = format!(
            "{:<16} {:<12} {:>6} {:>9} {:>11}\n",
            "worker", "state", "cells", "failures", "reconnects"
        );
        for w in &self.workers {
            s.push_str(&format!(
                "{:<16} {:<12} {:>6} {:>9} {:>11}\n",
                w.name,
                w.state(),
                w.cells_completed,
                w.failures,
                w.reconnects
            ));
        }
        s
    }
}

// ----- progress hooks ---------------------------------------------------

/// A point-in-time snapshot of a distributed run's cell accounting,
/// delivered to the observer installed by [`with_cell_progress`]. The
/// long-lived experiment service surfaces these counts in run status.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellProgress {
    /// Grid cells in the run.
    pub total: usize,
    /// Cells finished so far (simulated or reused).
    pub done: usize,
    /// Of `done`, cells reused from the cache.
    pub cached: usize,
    /// Of `done`, cells that degraded from remote workers to in-process
    /// execution.
    pub degraded: usize,
}

/// The installed progress observer (see [`with_cell_progress`]).
pub type ProgressHook = Box<dyn FnMut(CellProgress)>;

thread_local! {
    static PROGRESS_HOOK: std::cell::RefCell<Option<ProgressHook>> =
        const { std::cell::RefCell::new(None) };
}

/// Installs `hook` as the calling thread's cell-progress observer for
/// the duration of `f`. Progress is reported once the cache hits are
/// in, then per finished cell on every path (in-process, spawned
/// workers, remote workers, a degraded tail). Thread-local, so
/// concurrent runs on different threads (the service's executor pool)
/// never see each other's progress.
pub fn with_cell_progress<R>(hook: Box<dyn FnMut(CellProgress)>, f: impl FnOnce() -> R) -> R {
    struct Uninstall;
    impl Drop for Uninstall {
        fn drop(&mut self) {
            PROGRESS_HOOK.with(|h| *h.borrow_mut() = None);
        }
    }
    PROGRESS_HOOK.with(|h| *h.borrow_mut() = Some(hook));
    let _uninstall = Uninstall;
    f()
}

fn emit_progress(p: CellProgress) {
    PROGRESS_HOOK.with(|h| {
        if let Some(hook) = h.borrow_mut().as_mut() {
            hook(p);
        }
    });
}

// ----- the plan (the wire form of a sweep) -----------------------------

fn plan_json(sweep: &Sweep) -> Json {
    let mut fields: Vec<(String, Json)> = vec![
        ("schema".into(), Json::Str(PLAN_SCHEMA.into())),
        (
            "benchmarks".into(),
            Json::Arr(sweep.benchmarks.iter().map(|b| Json::Str(b.name.into())).collect()),
        ),
        ("seed".into(), Json::Num(sweep.seed.to_string())),
        ("instructions".into(), Json::Num(sweep.instructions.to_string())),
        ("warmup".into(), Json::Num(sweep.warmup.to_string())),
        ("warmup_mode".into(), crate::spec::warmup_mode_json(&sweep.warmup_mode)),
    ];
    if let Some(stop) = &sweep.stop {
        let parsed = Json::parse(&stop.to_json()).expect("StopWhen::to_json is well-formed");
        fields.push(("stop".into(), parsed));
    }
    let arms = sweep
        .configs
        .iter()
        .map(|(label, cfg)| {
            let config =
                Json::parse(&cfg.to_json()).expect("SimConfig::to_json is well-formed");
            Json::Obj(vec![
                ("label".into(), Json::Str(label.clone())),
                ("config".into(), config),
            ])
        })
        .collect();
    fields.push(("arms".into(), Json::Arr(arms)));
    Json::Obj(fields)
}

/// The worker side of [`plan_json`]: the plan as a one-thread [`Sweep`].
fn plan_from_json(v: &Json) -> Result<Sweep, String> {
    match v.get("schema").and_then(Json::as_str) {
        Some(PLAN_SCHEMA) => {}
        other => return Err(format!("unsupported dispatch plan schema {other:?}")),
    }
    let benchmarks = v
        .req("benchmarks")?
        .as_arr()
        .ok_or("plan `benchmarks` must be an array")?
        .iter()
        .map(|b| {
            let name = b.as_str().ok_or("plan benchmark names must be strings")?;
            rix_workloads::lookup(name)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let arms = v
        .req("arms")?
        .as_arr()
        .ok_or("plan `arms` must be an array")?
        .iter()
        .map(|a| {
            let label =
                a.req("label")?.as_str().ok_or("arm `label` must be a string")?.to_string();
            let cfg = SimConfig::from_json_value(a.req("config")?)
                .map_err(|e| format!("arm `{label}`: {e}"))?;
            Ok((label, cfg))
        })
        .collect::<Result<Vec<(String, SimConfig)>, String>>()?;
    if arms.is_empty() || benchmarks.is_empty() {
        return Err("dispatch plan has an empty grid".to_string());
    }
    let mut sweep = Sweep::new()
        .benchmarks(benchmarks)
        .configs(arms)
        .instructions(v.req_u64("instructions")?)
        .warmup(v.req_u64("warmup")?)
        .warmup_mode(crate::spec::parse_warmup_mode(v.req("warmup_mode")?)?)
        .seed(v.req_u64("seed")?);
    if let Some(stop) = v.get("stop") {
        sweep = sweep.stop(StopWhen::from_json_value(stop).map_err(|e| format!("plan stop: {e}"))?);
    }
    Ok(sweep)
}

// ----- payloads ---------------------------------------------------------

/// A cell's payload: its lossless result, plus its wall clock when
/// given. Only stdio workers send one; cache entries and remote
/// payloads carry no host timing, so a cell's bytes do not depend on
/// where it ran.
fn payload_json(result: &RunResult, wall: Option<Duration>) -> Result<Json, String> {
    let mut fields = Vec::with_capacity(2);
    if let Some(wall) = wall {
        let wall_us = u64::try_from(wall.as_micros()).unwrap_or(u64::MAX);
        fields.push(("wall_us".into(), Json::Num(wall_us.to_string())));
    }
    let result = Json::parse(&rix_sim::checkpoint::result_to_json(result))?;
    fields.push(("result".into(), result));
    Ok(Json::Obj(fields))
}

/// Grid cell `i` of `sweep` from its payload. Without a `wall_us` (a
/// cache hit, a remote cell) the trial reports zero wall time.
fn trial_from_payload(sweep: &Sweep, i: usize, payload: &Json) -> Result<Trial, String> {
    let ncfg = sweep.configs.len();
    let result = rix_sim::checkpoint::result_from_json(payload.req("result")?)?;
    let wall = payload
        .get("wall_us")
        .and_then(Json::as_u64)
        .map_or(Duration::ZERO, Duration::from_micros);
    let (bench, label) = (sweep.benchmarks[i / ncfg].name, &sweep.configs[i % ncfg].0);
    Ok(Trial { bench, config_label: label.clone(), result, wall })
}

// ----- cache keys -------------------------------------------------------

/// The `rix-cell/1` descriptor whose 128-bit FNV-1a is the cell's cache
/// key: every input that determines the cell's result, nothing that
/// does not (thread/worker counts, directory paths, spec names). Under
/// checkpoint warm-up the *content hash of the snapshot file* stands in
/// for the mode, so the same snapshot moved to another directory still
/// hits while a re-saved one misses. `config` and `stop` are the arm's
/// config and the sweep's stop condition as canonical JSON text,
/// spliced in as they are: the descriptor is the compact dump of
/// `{"schema", "bench", "seed", "instructions", "warmup",
/// "warmup_mode", "label", "config"[, "stop"]}`.
fn cell_descriptor(
    sweep: &Sweep,
    bench: &Benchmark,
    label: &str,
    config: &str,
    stop: Option<&str>,
    ckpt_hash: Option<&str>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(config.len() + stop.map_or(0, str::len) + 192);
    out.push_str(r#"{"schema":"#);
    write_str(&mut out, CELL_SCHEMA);
    out.push_str(r#","bench":"#);
    write_str(&mut out, bench.name);
    let _ = write!(
        out,
        r#","seed":{},"instructions":{},"warmup":{},"warmup_mode":"#,
        sweep.seed, sweep.instructions, sweep.warmup
    );
    match (&sweep.warmup_mode, ckpt_hash) {
        (WarmupMode::Checkpoint { .. }, Some(h)) => {
            out.push_str(r#"{"checkpoint":"#);
            write_str(&mut out, h);
            out.push('}');
        }
        (m, _) => write_str(&mut out, m.name()),
    }
    out.push_str(r#","label":"#);
    write_str(&mut out, label);
    out.push_str(r#","config":"#);
    out.push_str(config);
    if let Some(stop) = stop {
        out.push_str(r#","stop":"#);
        out.push_str(stop);
    }
    out.push('}');
    out
}

/// Every cell's cache key, in grid order. Each arm's config and the
/// stop condition are encoded to canonical text once per sweep, not
/// once per cell.
fn cell_keys(sweep: &Sweep) -> Result<Vec<String>, String> {
    let ckpt_hashes = checkpoint_hashes(sweep)?;
    // `SimConfig::to_json` is already canonical (compact, in field
    // order), so its text is spliced as it is.
    let configs: Vec<String> = sweep.configs.iter().map(|(_, cfg)| cfg.to_json()).collect();
    let canonical = |text: String| Json::parse(&text).map(|v| v.dump());
    let stop = sweep.stop.as_ref().map(|s| canonical(s.to_json())).transpose()?;
    let mut keys = Vec::with_capacity(sweep.benchmarks.len() * configs.len());
    for (bench, ckpt_hash) in sweep.benchmarks.iter().zip(&ckpt_hashes) {
        for ((label, _), config) in sweep.configs.iter().zip(&configs) {
            let desc = cell_descriptor(
                sweep,
                bench,
                label,
                config,
                stop.as_deref(),
                ckpt_hash.as_deref(),
            );
            keys.push(ResultCache::key(&desc));
        }
    }
    Ok(keys)
}

/// Under checkpoint warm-up, each snapshot file's content hash goes into
/// its row's cache keys (file existence was validated by the caller).
fn checkpoint_hashes(sweep: &Sweep) -> Result<Vec<Option<String>>, String> {
    match &sweep.warmup_mode {
        WarmupMode::Checkpoint { dir } => sweep
            .benchmarks
            .iter()
            .map(|b| {
                let path = crate::checkpoint_path(dir, b.name, sweep.seed);
                std::fs::read(&path)
                    .map(|bytes| Some(rix_dispatch::hash::fnv128_hex(&bytes)))
                    .map_err(|e| {
                        format!("cannot read warm-up checkpoint {}: {e}", path.display())
                    })
            })
            .collect(),
        _ => Ok(vec![None; sweep.benchmarks.len()]),
    }
}

// ----- the coordinator --------------------------------------------------

/// Runs `sweep` under `opts`: consult the cache, simulate the misses
/// (in this process, in spawned worker processes, or on remote workers),
/// store each fresh result as it arrives, and return the full trial
/// grid in [`Sweep::try_run`] order. See the [module docs](self).
pub(crate) fn run_sweep_distributed(
    sweep: &Sweep,
    opts: &DispatchOptions,
) -> Result<(Vec<Trial>, DispatchReport), String> {
    if opts.listen.is_some() && opts.workers > 0 {
        return Err("--listen and --workers are mutually exclusive".to_string());
    }
    sweep.validate()?;
    sweep.validate_checkpoint_files()?;
    // A served run binds and announces its address before anything
    // else, so workers (and scripts waiting for the line) can dial in
    // while the cache is consulted.
    let workers = match (&opts.listen, opts.workers) {
        (Some(addr), _) => {
            let listener = std::net::TcpListener::bind(addr)
                .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
            let local = listener
                .local_addr()
                .map_err(|e| format!("cannot resolve listen address: {e}"))?;
            eprintln!("dispatch: listening on {local}");
            Some(Workers::Listen(listener))
        }
        (None, 0) => None,
        (None, count) => {
            let program = std::env::current_exe()
                .map_err(|e| format!("cannot locate this executable to self-exec workers: {e}"))?;
            Some(Workers::Spawn { count, program, args: vec![WORKER_ARG.to_string()] })
        }
    };
    let total = sweep.cells();
    let cache = match &opts.cache {
        Some(dir) => Some((ResultCache::open(dir)?, cell_keys(sweep)?)),
        None => None,
    };
    let mut slots: Vec<Option<Trial>> = (0..total).map(|_| None).collect();
    let mut misses = Vec::new();
    for (i, slot) in slots.iter_mut().enumerate() {
        *slot = cache.as_ref().and_then(|(store, keys)| {
            trial_from_payload(sweep, i, &store.load(&keys[i])?).ok()
        });
        if slot.is_none() {
            misses.push(i);
        }
    }
    let hits = total - misses.len();
    let mut progress = CellProgress { total, done: hits, cached: hits, degraded: 0 };
    emit_progress(progress);
    // Every finished miss lands here, wherever it ran: stored in the
    // cache (encoded once, under the key computed above), slotted, and
    // reported.
    let mut finish = |i: usize, trial: Trial, degraded: bool| -> Result<(), String> {
        if let Some((store, keys)) = &cache {
            store.store(&keys[i], &payload_json(&trial.result, None)?)?;
        }
        slots[i] = Some(trial);
        progress.done += 1;
        progress.degraded += usize::from(degraded);
        emit_progress(progress);
        Ok(())
    };
    let pool = match workers {
        Some(workers) => run_pool(sweep, opts, workers, &misses, &mut finish)?,
        None => {
            sweep.run_cells(&misses, sweep.threads, |i, t| finish(i, t, false))?;
            PoolSummary::default()
        }
    };
    Ok((crate::filled(slots)?, DispatchReport::new(total, hits, pool)))
}

/// Receives each finished cell: `(grid index, trial, degraded)`.
type Finish<'a> = dyn FnMut(usize, Trial, bool) -> Result<(), String> + 'a;

/// Runs the cache misses on `workers`, streaming each result to
/// `finish`. Cells the pool hands back fail a spawned run (naming the
/// cell in grid terms, with its fault history) and finish in-process in
/// a served one — graceful degradation: a slower tail, not a failure.
fn run_pool(
    sweep: &Sweep,
    opts: &DispatchOptions,
    workers: Workers,
    misses: &[usize],
    finish: &mut Finish<'_>,
) -> Result<PoolSummary, String> {
    let served = matches!(workers, Workers::Listen(_));
    let cfg = rix_dispatch::PoolConfig {
        cell_timeout: opts.cell_timeout,
        retries: opts.retries,
        heartbeat: opts.heartbeat,
        quarantine_after: opts.quarantine_after,
        worker_wait: opts.worker_wait,
        token: opts.token.clone(),
    };
    let cells: Vec<u64> = misses.iter().map(|&i| i as u64).collect();
    let on_result = |pos: usize, payload: Json| {
        let i = misses[pos];
        finish(i, trial_from_payload(sweep, i, &payload)?, false)
    };
    let outcome = rix_dispatch::dispatch_cells(workers, &plan_json(sweep), &cells, &cfg, on_result)
        .map_err(|e| describe_pool_error(e, sweep))?;
    if !served {
        return outcome.into_result().map_err(|e| describe_pool_error(e, sweep));
    }
    let mut tail: Vec<usize> = outcome.unfinished.iter().map(|&(pos, _)| misses[pos]).collect();
    tail.sort_unstable();
    if !tail.is_empty() {
        eprintln!("dispatch: finishing {} degraded cell(s) in-process", tail.len());
    }
    sweep.run_cells(&tail, sweep.threads, |i, t| finish(i, t, true))?;
    Ok(outcome.summary)
}

/// Renders a pool error with the failing cell named in grid terms —
/// `gcc/integration (seed 7)`, not `cell 5` — plus the cell's fault
/// history, so a retry-budget exhaustion tells the user exactly which
/// benchmark/arm to investigate.
fn describe_pool_error(e: rix_dispatch::PoolError, sweep: &Sweep) -> String {
    let narms = sweep.configs.len();
    e.with_cell_description(|cell| {
        let i = usize::try_from(cell).ok()?;
        let bench = sweep.benchmarks.get(i / narms)?;
        let (label, _) = sweep.configs.get(i % narms)?;
        Some(format!("{}/{} (seed {})", bench.name, label, sweep.seed))
    })
    .to_string()
}

// ----- the worker entry points ------------------------------------------

/// The first line of every binary that can be dispatched to: when the
/// process was spawned as a worker (`argv[1]` is
/// [`rix_dispatch::WORKER_ARG`]), enter the serve loop and never
/// return; otherwise do nothing. Must run before any other argument
/// parsing — the worker argument is not a user-facing flag.
pub fn maybe_worker() {
    if std::env::args().nth(1).as_deref() == Some(WORKER_ARG) {
        worker_main();
    }
}

/// The worker serve loop over stdin/stdout (also reachable as the
/// `exp worker` subcommand): runs each assigned cell on the one cell
/// engine and reports its lossless result and wall clock.
pub fn worker_main() -> ! {
    rix_dispatch::serve(cell_executor(true))
}

/// The remote worker entry point (`exp worker --connect ADDR`):
/// connect to a served coordinator, reconnecting with exponential
/// backoff + jitter under a capped attempt budget, and execute assigned
/// cells until told to shut down. Exits 0 on a clean `shutdown`, 1 on a
/// fatal executor error, 2 when the reconnect budget is spent, 3 when
/// quarantined.
pub fn worker_connect_main(addr: &str, name: Option<&str>) -> ! {
    let name = name.map_or_else(default_worker_name, str::to_string);
    // No wall clock in remote payloads: another host's timing says
    // nothing about this run's.
    let code = rix_dispatch::connect_worker(addr, &name, &backoff_from_env(), cell_executor(false));
    std::process::exit(code)
}

/// The executor behind both worker entry points. The plan in the `init`
/// message becomes a [`Sweep`] on the first cell; each row is prepared
/// by [`Sweep::prepare_row`] on its first cell and kept for the row's
/// other cells. Answers with the cell's payload, including its wall
/// clock when `wall` is set.
fn cell_executor(wall: bool) -> impl FnMut(&Json, u64) -> Result<Json, String> {
    let mut state: Option<(u64, Sweep, Vec<Option<Row>>)> = None;
    move |init, cell| {
        if state.is_none() {
            let worker = init.req_u64("worker")?;
            let sweep = plan_from_json(init.req("plan")?)?;
            let rows = sweep.benchmarks.iter().map(|_| None).collect();
            state = Some((worker, sweep, rows));
        }
        let (worker, sweep, rows) = state.as_mut().ok_or("worker state just initialised")?;
        inject_fault(*worker);
        let total = sweep.cells();
        let i = usize::try_from(cell).ok().filter(|&i| i < total).ok_or_else(|| {
            format!("cell {cell} is outside the plan's {total}-cell grid")
        })?;
        let bi = i / sweep.configs.len();
        let row = match &mut rows[bi] {
            Some(row) => row,
            slot => slot.insert(sweep.prepare_row(bi)?),
        };
        let trial = sweep.run_cell(row, i);
        payload_json(&trial.result, wall.then_some(trial.wall))
    }
}

/// The default hello name for a remote worker: `w{pid}`, unique enough
/// per host and stable across that worker's reconnects (which is what
/// quarantine accounting keys on).
fn default_worker_name() -> String {
    format!("w{}", std::process::id())
}

/// The reconnect schedule, tunable for tests: `RIX_DISPATCH_BACKOFF_MS`
/// scales the base delay (the cap scales with it so short schedules
/// stay short), `RIX_DISPATCH_BACKOFF_ATTEMPTS` bounds the budget. The
/// jitter seed is the pid, so a fleet restarting together spreads out.
fn backoff_from_env() -> rix_dispatch::Backoff {
    let mut b =
        rix_dispatch::Backoff { seed: u64::from(std::process::id()), ..Default::default() };
    if let Some(ms) = env_u64("RIX_DISPATCH_BACKOFF_MS") {
        b.base = Duration::from_millis(ms.max(1));
        b.cap = b.base.saturating_mul(8).min(b.cap.max(b.base));
    }
    if let Some(n) = env_u64("RIX_DISPATCH_BACKOFF_ATTEMPTS") {
        b.max_attempts = u32::try_from(n).unwrap_or(u32::MAX);
    }
    b
}

/// Test-only fault injection, keyed by worker id so tests are
/// deterministic about *which* process dies (see the module docs).
fn inject_fault(worker: u64) {
    let Ok(spec) = std::env::var("RIX_DISPATCH_FAULT") else { return };
    let matches = |id: &str| id.parse() == Ok(worker);
    match spec.split_once(':') {
        Some(("abort", id)) if matches(id) => {
            eprintln!("rix worker {worker}: injected abort (RIX_DISPATCH_FAULT={spec})");
            std::process::abort();
        }
        Some(("stall", id)) if matches(id) => {
            eprintln!("rix worker {worker}: injected stall (RIX_DISPATCH_FAULT={spec})");
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sweep() -> Sweep {
        Sweep::new()
            .benchmarks(rix_workloads::all_benchmarks().into_iter().take(2))
            .config("base", SimConfig::baseline())
            .config("integration", SimConfig::default())
            .instructions(1_500)
    }

    /// One cell's descriptor for an arbitrary config, encoding it on the
    /// spot ([`cell_keys`] encodes each arm once per sweep). Checks the
    /// spliced text against the descriptor built as one `Json` tree and
    /// dumped whole, the encoding every cache on disk was keyed by.
    fn cell_descriptor(
        sweep: &Sweep,
        bench: &Benchmark,
        label: &str,
        cfg: &SimConfig,
        ckpt_hash: Option<&str>,
    ) -> Result<String, String> {
        let config = Json::parse(&cfg.to_json())?;
        let stop = sweep.stop.as_ref().map(|s| Json::parse(&s.to_json())).transpose()?;
        let mode = match (&sweep.warmup_mode, ckpt_hash) {
            (WarmupMode::Checkpoint { .. }, Some(h)) => {
                Json::Obj(vec![("checkpoint".into(), Json::Str(h.into()))])
            }
            (m, _) => Json::Str(m.name().into()),
        };
        let mut fields: Vec<(String, Json)> = vec![
            ("schema".into(), Json::Str(CELL_SCHEMA.into())),
            ("bench".into(), Json::Str(bench.name.into())),
            ("seed".into(), Json::Num(sweep.seed.to_string())),
            ("instructions".into(), Json::Num(sweep.instructions.to_string())),
            ("warmup".into(), Json::Num(sweep.warmup.to_string())),
            ("warmup_mode".into(), mode),
            ("label".into(), Json::Str(label.into())),
            ("config".into(), config.clone()),
        ];
        if let Some(stop) = &stop {
            fields.push(("stop".into(), stop.clone()));
        }
        let spliced = super::cell_descriptor(
            sweep,
            bench,
            label,
            &config.dump(),
            stop.map(|s| s.dump()).as_deref(),
            ckpt_hash,
        );
        assert_eq!(spliced, Json::Obj(fields).dump(), "spliced descriptor");
        Ok(spliced)
    }

    #[test]
    fn fig4_cell_keys_are_pinned() {
        // Every trial cache on disk is filed under these keys. A change
        // to any descriptor byte orphans all of them, so it must be a
        // deliberate one that updates these values and says so.
        let spec = crate::ExperimentSpec::from_json(include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../specs/fig4.json"
        )))
        .expect("fig4 spec parses");
        let sweep = spec.sweep(&Harness::default());
        let keys = cell_keys(&sweep).expect("keys");
        assert_eq!(keys.len(), 16 * 9);
        assert_eq!(keys[0], "96ffb8d2b4e7a8fd98715db1ecf01d2a", "bzip2/base");
        assert_eq!(keys[143], "0d72d8695d66fdb1afbd2a3f647906e6", "vpr.r/+reverse*");
        // The once-per-arm encoding matches encoding every cell afresh.
        for (i, key) in keys.iter().enumerate() {
            let (label, cfg) = &sweep.configs[i % 9];
            let desc = cell_descriptor(&sweep, &sweep.benchmarks[i / 9], label, cfg, None);
            assert_eq!(*key, ResultCache::key(&desc.expect("descriptor")), "cell {i}");
        }
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rix-dispatch-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Every file in `dir` as (name, bytes), in name order.
    fn dir_contents(dir: &std::path::Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("cache dir")
            .map(|e| {
                let e = e.expect("dir entry");
                (e.file_name(), std::fs::read(e.path()).expect("entry reads"))
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn every_executor_matches_across_warmup_modes() {
        let dir = scratch_dir("modes");
        let ckpt_dir = dir.join("snapshots");
        std::fs::create_dir_all(&ckpt_dir).expect("snapshot dir");
        let ckpt = ckpt_dir.to_str().expect("utf-8 temp dir").to_string();
        for b in &small_sweep().benchmarks {
            let program = b.build(7);
            let mut sim = rix_sim::Simulator::new(&program, SimConfig::default());
            sim.run_until(&StopWhen::RetiredAtLeast(2_000));
            sim.checkpoint().save(crate::checkpoint_path(&ckpt, b.name, 7)).expect("save");
        }
        let modes = [
            WarmupMode::Detailed,
            WarmupMode::Functional,
            WarmupMode::Checkpoint { dir: ckpt },
        ];
        for (m, mode) in modes.into_iter().enumerate() {
            let name = mode.name();
            let sweep = small_sweep().warmup(2_500).warmup_mode(mode);
            let json = |trials: &[Trial]| trials.iter().map(Trial::to_json).collect::<Vec<_>>();
            let reference = json(&sweep.clone().threads(1).try_run().expect("1 thread"));
            assert_eq!(reference.len(), 4);
            let three = sweep.clone().threads(3).try_run().expect("3 threads");
            assert_eq!(json(&three), reference, "{name}: try_run at 3 threads");

            // `run_distributed` with no, a cold and a warm cache, each on
            // 1, 2 and 3 threads; the cold cache directories it writes
            // are byte-identical whatever the thread count.
            let mut written = Vec::new();
            for threads in [1, 2, 3] {
                let sweep = sweep.clone().threads(threads);
                let what = format!("{name}: run_distributed on {threads} thread(s)");
                let (plain, _) = sweep.run_distributed(&DispatchOptions::default()).expect("plain");
                assert_eq!(json(&plain), reference, "{what}, no cache");
                let cache = dir.join(format!("cache-{m}-{threads}"));
                let opts = DispatchOptions {
                    cache: Some(cache.to_str().expect("utf-8").to_string()),
                    ..DispatchOptions::default()
                };
                for (state, hits) in [("cold", 0), ("warm", 4)] {
                    let (trials, report) = sweep.run_distributed(&opts).expect("cached run");
                    assert_eq!(report.cache_hits, hits, "{what}, {state} cache hits");
                    assert_eq!(json(&trials), reference, "{what}, {state} cache");
                }
                written.push(dir_contents(&cache));
            }
            assert_eq!(written[0].len(), 4, "{name}: one entry per cell");
            assert_eq!(written[1], written[0], "{name}: cache written on 2 threads");
            assert_eq!(written[2], written[0], "{name}: cache written on 3 threads");

            // The worker executor, fed the plan's wire round trip.
            let init = Json::Obj(vec![
                ("worker".into(), Json::Num("0".into())),
                ("plan".into(), Json::parse(&plan_json(&sweep).dump()).expect("plan parses")),
            ]);
            let mut execute = cell_executor(true);
            for (i, want) in reference.iter().enumerate() {
                let payload = execute(&init, i as u64).expect("cell runs");
                let trial = trial_from_payload(&sweep, i, &payload).expect("payload decodes");
                assert_eq!(&trial.to_json(), want, "{name}: worker executor, cell {i}");
            }
            let err = execute(&init, 99).unwrap_err();
            assert!(err.contains("outside the plan's 4-cell grid"), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_process_distributed_run_is_byte_identical() {
        let sweep = small_sweep();
        let reference = sweep.try_run().expect("sweep runs");
        let (trials, report) =
            sweep.run_distributed(&DispatchOptions::default()).expect("dispatch runs");
        assert_eq!(trials.len(), reference.len());
        for (a, b) in reference.iter().zip(&trials) {
            assert_eq!(a.to_json(), b.to_json(), "{}/{}", a.bench, a.config_label);
        }
        assert_eq!(report.cells, 4);
        assert_eq!(report.simulated, 4);
        assert_eq!(report.cache_hits, 0);
        assert_eq!(report.workers_spawned, 0, "in-process run spawns nothing");
    }

    #[test]
    fn warm_served_run_needs_no_worker() {
        let dir = scratch_dir("served-warm");
        let cache = Some(dir.to_str().expect("utf-8 temp dir").to_string());
        let sweep = small_sweep();
        let cold_opts = DispatchOptions { cache: cache.clone(), ..DispatchOptions::default() };
        let (cold, _) = sweep.run_distributed(&cold_opts).expect("cold run");
        // Nobody will connect, and the default grace period is a
        // minute: every cell must come from the cache without waiting.
        let served = DispatchOptions {
            cache,
            listen: Some("127.0.0.1:0".to_string()),
            ..DispatchOptions::default()
        };
        let started = std::time::Instant::now();
        let (warm, report) = sweep.run_distributed(&served).expect("warm served run");
        assert!(started.elapsed() < Duration::from_secs(10), "{:?}", started.elapsed());
        assert_eq!(report.cache_hits, report.cells, "{report:?}");
        assert_eq!((report.workers_spawned, report.degraded), (0, 0), "{report:?}");
        let json = |trials: &[Trial]| trials.iter().map(Trial::to_json).collect::<Vec<_>>();
        assert_eq!(json(&warm), json(&cold));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_round_trip_is_lossless() {
        let sweep = small_sweep();
        let trials = sweep.try_run().expect("sweep runs");
        let payload = payload_json(&trials[0].result, Some(trials[0].wall)).expect("serialises");
        let back = trial_from_payload(&sweep, 0, &payload).expect("parses");
        assert_eq!(back.result, trials[0].result);
        assert_eq!(back.to_json(), trials[0].to_json());
    }

    #[test]
    fn descriptors_differ_exactly_where_content_differs() {
        let sweep = small_sweep();
        let b = &sweep.benchmarks[0];
        let (label, cfg) = &sweep.configs[0];
        let base = cell_descriptor(&sweep, b, label, cfg, None).unwrap();
        assert!(base.contains(CELL_SCHEMA));
        // Same inputs, same descriptor.
        assert_eq!(base, cell_descriptor(&sweep, b, label, cfg, None).unwrap());
        // Any differing input, different descriptor.
        let other_bench = cell_descriptor(&sweep, &sweep.benchmarks[1], label, cfg, None);
        assert_ne!(base, other_bench.unwrap());
        let seeded = sweep.clone().seed(8);
        assert_ne!(base, cell_descriptor(&seeded, b, label, cfg, None).unwrap());
        let mut tweaked = *cfg;
        tweaked.num_pregs += 64;
        assert_ne!(base, cell_descriptor(&sweep, b, label, &tweaked, None).unwrap());
    }

    #[test]
    fn spliced_descriptors_match_the_tree_encoding_in_every_mode() {
        // The helper asserts the spliced text equals the whole-tree dump;
        // cover the optional `stop` field and the checkpoint hash too.
        let stop = StopWhen::Any(vec![StopWhen::RetiredAtLeast(9), StopWhen::CyclesAtLeast(7)]);
        let checkpointed = small_sweep()
            .warmup(500)
            .warmup_mode(WarmupMode::Checkpoint { dir: "ckpts".into() })
            .stop(stop);
        let b = &checkpointed.benchmarks[1];
        let (label, cfg) = &checkpointed.configs[1];
        let desc = cell_descriptor(&checkpointed, b, label, cfg, Some("00ff")).unwrap();
        assert!(desc.contains(r#""warmup_mode":{"checkpoint":"00ff"}"#), "{desc}");
        assert!(desc.ends_with("]}}"), "stop is the last field: {desc}");
        let odd = cell_descriptor(&small_sweep(), b, "a\"b\\c\n", cfg, None).unwrap();
        assert!(odd.contains(r#""label":"a\"b\\c\u000a""#), "{odd}");
    }

    #[test]
    fn cache_hits_skip_simulation_and_misses_are_exact() {
        let dir = std::env::temp_dir()
            .join(format!("rix-dispatch-unit-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache_dir = dir.to_str().expect("utf-8 temp dir").to_string();
        let opts = DispatchOptions { cache: Some(cache_dir), ..DispatchOptions::default() };

        let sweep = small_sweep();
        let (cold, r1) = sweep.run_distributed(&opts).expect("cold run");
        assert_eq!((r1.cache_hits, r1.simulated), (0, 4));
        let (warm, r2) = sweep.run_distributed(&opts).expect("warm run");
        assert_eq!((r2.cache_hits, r2.simulated), (4, 0), "identical re-run is all hits");
        for (a, b) in cold.iter().zip(&warm) {
            assert_eq!(a.to_json(), b.to_json());
        }

        // A one-field change invalidates exactly the affected arm's
        // cells: 2 benchmarks × the changed arm = 2 misses, 2 hits.
        let mut tweaked_cfg = SimConfig::default();
        tweaked_cfg.integration.it_entries *= 2;
        let tweaked = Sweep::new()
            .benchmarks(rix_workloads::all_benchmarks().into_iter().take(2))
            .config("base", SimConfig::baseline())
            .config("integration", tweaked_cfg)
            .instructions(1_500);
        let (_, r3) = tweaked.run_distributed(&opts).expect("tweaked run");
        assert_eq!((r3.cache_hits, r3.simulated), (2, 2), "only the changed arm re-runs");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
