//! # rix-bench: the evaluation harness
//!
//! One binary per figure in the paper's evaluation (§3):
//!
//! | binary | regenerates |
//! |--------|-------------|
//! | `fig4` | Figure 4 — speedup and integration rate per extension arm (squash / +general / +opcode / +reverse), realistic LISP and oracle suppression, mis-integrations per million; `--diagnostics` adds the §3.2 secondary metrics |
//! | `fig5` | Figure 5 — integration-stream breakdowns: Type, Distance, Status, Refcount |
//! | `fig6` | Figure 6 — IT associativity (1/2/4/full) and size (64/256/1K/4K) sweeps |
//! | `fig7` | Figure 7 — reduced-complexity execution engines (base / RS / IW / IW+RS) with and without integration |
//! | `exp`  | The spec-driven runner: `exp run spec.json` executes any `rix-exp/1` experiment spec ([`ExperimentSpec`]) on the shared engine, with `--dry-run`, `--list-arms`, `--json` and `--output` |
//!
//! The figure binaries are themselves spec-driven: each embeds its
//! committed `specs/<name>.json` and adds only the figure-specific
//! table rendering, so the experiment definition is data shared with
//! `exp`.
//!
//! Shared flags: `--instructions N` (retired instructions per run,
//! default 100 000), `--seed S`, `--bench NAME` (filter to one
//! benchmark, case-insensitive), `--threads N` (parallel trials),
//! `--warmup N` (instructions discarded before measuring) with
//! `--warmup-mode detailed|functional` (per-cell detailed warm-up vs
//! one shared interpreter fast-forward per benchmark — see
//! [`WarmupMode`]), `--json` (machine-readable trial records instead of
//! tables). All
//! binaries print aligned text tables whose rows/series match the
//! paper's figures; trial order — and therefore every table — is
//! independent of the thread count.
//!
//! The experiment layer is the [`Sweep`] builder: declare a
//! (benchmark × config) grid, an instruction budget, an optional
//! warm-up, and a thread count, and get back ordered [`Trial`] records.
//! Config grids are declared as a [`ParamSpace`] (named [`Axis`] values
//! over config fields, crossed/zipped/chained), and whole experiments
//! as serializable [`ExperimentSpec`] documents.
//!
//! The benchmark lives in `perfbench/` (declared by `BENCHMARK.json`):
//! it drives this crate's sweeps, dispatch and service through their
//! public calls and reports end-to-end and per-layer metrics.

pub mod dispatch;
pub mod service;
pub mod space;
pub mod spec;

pub use dispatch::{CellProgress, DispatchOptions, DispatchReport};
pub use space::{Axis, AxisValue, ParamSpace};
pub use spec::ExperimentSpec;

use rix_analysis::Diagnostic;
use rix_integration::IntegrationConfig;
use rix_isa::interp::Interp;
use rix_isa::json::write_str;
use rix_isa::{ArchState, Program};
use rix_sim::{Checkpoint, RunResult, SimConfig, Simulator, StopWhen};
use rix_workloads::Benchmark;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// How a [`Sweep`] executes its warm-up phase.
///
/// The default, [`WarmupMode::Detailed`], is the historical behaviour:
/// every (benchmark × config) cell runs its own warm-up on the detailed
/// machine and measures with warm caches, predictors and integration
/// table. [`WarmupMode::Functional`] instead **fast-forwards each
/// (benchmark, seed) once** through the reference interpreter and boots
/// every config arm of that row from the shared [`ArchState`]
/// (`Simulator::from_arch_state`), so an N-config sweep pays one cheap
/// functional warm-up instead of N detailed ones.
///
/// The trade-off is methodological, which is why functional warm-up is
/// opt-in: a functionally fast-forwarded cell starts its measurement
/// with **cold** microarchitectural structures (the architectural state
/// is mid-program, the caches are not), so its absolute numbers are not
/// comparable with detailed-warm-up numbers — but its *relative*
/// comparisons across config arms share identical starting conditions,
/// and the sweep's wall-clock drops by roughly the per-arm warm-up cost.
/// A third mode, [`WarmupMode::Checkpoint`], skips warm-up execution
/// entirely: every config arm of a benchmark row boots from a saved
/// PR-4 [`Checkpoint`] (`<dir>/<bench>-s<seed>.ckpt.json`, see
/// [`checkpoint_path`]), so the warm-up cost is paid **once, offline**
/// and amortised across every sweep that forks from the same snapshots
/// — the building block for checkpoint-seeded sampled grids and
/// multi-process dispatch. Like functional warm-up, the microarchitecture
/// starts cold at the snapshot boundary; the `warmup` instruction count
/// is ignored in this mode (the checkpoint decides the boundary).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum WarmupMode {
    /// Per-cell warm-up on the detailed machine (the default; byte-
    /// identical to sweeps before functional warm-up existed).
    #[default]
    Detailed,
    /// One interpreter fast-forward per (benchmark, seed), forked across
    /// every config arm.
    Functional,
    /// Fork every config arm from a saved checkpoint per benchmark,
    /// loaded from `dir`.
    Checkpoint {
        /// Directory holding one `<bench>-s<seed>.ckpt.json` per
        /// benchmark of the sweep.
        dir: String,
    },
}

impl WarmupMode {
    /// The mode's stable name (CLI value, spec value, perf-record
    /// field). [`WarmupMode::Checkpoint`]'s directory is not part of the
    /// name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Detailed => "detailed",
            Self::Functional => "functional",
            Self::Checkpoint { .. } => "checkpoint",
        }
    }
}

/// Guard for the figure binaries' renderers: each renders a fixed table
/// shape (hard-coded headers and column offsets), so a committed spec
/// that materialises a different arm count must fail loudly — editing
/// the spec without updating the rendering would otherwise silently
/// drop the new arms from the tables. Exits with status 2 and a message
/// naming both sides; `exp run` renders any arm count generically.
pub fn expect_arm_count(figure: &str, actual: usize, expected: usize) {
    if actual != expected {
        eprintln!(
            "error: {figure}'s committed spec materialises {actual} arms but this binary's \
             tables render exactly {expected}; update the rendering alongside the spec, or \
             use `exp run specs/{figure}.json` for generic output"
        );
        std::process::exit(2);
    }
}

/// The on-disk location of the checkpoint
/// [`WarmupMode::Checkpoint`] expects for `(bench, seed)` under `dir`:
/// `<dir>/<bench>-s<seed>.ckpt.json`.
#[must_use]
pub fn checkpoint_path(dir: &str, bench: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(dir).join(format!("{bench}-s{seed}.ckpt.json"))
}

/// Common command-line options for the figure binaries.
#[derive(Clone, Debug)]
pub struct Harness {
    /// Retired instructions per simulation run.
    pub instructions: u64,
    /// Workload generator seed.
    pub seed: u64,
    /// Restrict to one benchmark by name.
    pub filter: Option<String>,
    /// Print the extra §3.2 diagnostics (fig4 only).
    pub diagnostics: bool,
    /// Worker threads for the (benchmark × config) sweep.
    pub threads: usize,
    /// Emit trial records as JSON instead of text tables.
    pub json: bool,
    /// Warm-up instructions discarded before measuring (0 = cold).
    pub warmup: u64,
    /// How the warm-up executes (per-cell detailed vs shared
    /// functional fast-forward vs checkpoint forking).
    pub warmup_mode: WarmupMode,
    /// Also write the run's JSON (trial records, or the perf record) to
    /// this file; the stdout text table is preserved.
    pub output: Option<String>,
    /// Worker **processes** to shard the sweep across (0, the default,
    /// runs in-process; see [`dispatch`]). Orthogonal to
    /// [`Harness::threads`], which parallelises within one process.
    pub workers: usize,
    /// Content-addressed trial cache directory: cells already simulated
    /// under an identical configuration are reused instead of re-run
    /// (see [`dispatch`]).
    pub cache: Option<String>,
    /// Serve the sweep to remote TCP workers on this address instead of
    /// spawning local worker processes (`exp serve`; see
    /// [`dispatch`]). Mutually exclusive with [`Harness::workers`].
    pub listen: Option<String>,
    /// Print the per-worker dispatch table (liveness, completions,
    /// failures, reconnects, quarantine) after a distributed run.
    pub verbose: bool,
    /// Shared secret for served (TCP) runs: when set, remote worker and
    /// status hellos must carry a matching token (workers read theirs
    /// from `RIX_DISPATCH_TOKEN`; see [`dispatch`]).
    pub token: Option<String>,
    /// Include the structured dispatch report (cache split, fault
    /// history, per-worker stats) as a `dispatch` section in JSON
    /// result documents. Off by default so result bytes stay identical
    /// to pre-service releases.
    pub dispatch_stats: bool,
    /// Which flags were given explicitly on the command line (vs left at
    /// their defaults) — what an [`ExperimentSpec`] lets the CLI
    /// override.
    pub given: GivenFlags,
}

/// Tracks which [`Harness`] flags the command line set explicitly.
/// Spec-driven binaries use this to decide precedence: the committed
/// spec provides the experiment's parameters, and only explicitly-given
/// flags override them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GivenFlags {
    /// `--instructions` was given.
    pub instructions: bool,
    /// `--seed` was given.
    pub seed: bool,
    /// `--warmup` was given.
    pub warmup: bool,
    /// `--warmup-mode` was given.
    pub warmup_mode: bool,
}

impl Default for Harness {
    fn default() -> Self {
        Self {
            instructions: 100_000,
            seed: 7,
            filter: None,
            diagnostics: false,
            threads: 1,
            json: false,
            warmup: 0,
            warmup_mode: WarmupMode::Detailed,
            output: None,
            workers: 0,
            cache: None,
            listen: None,
            verbose: false,
            token: None,
            dispatch_stats: false,
            given: GivenFlags::default(),
        }
    }
}

impl Harness {
    /// The usage string printed on a flag error (exit status 2).
    #[must_use]
    pub fn usage() -> &'static str {
        "usage: <figure binary> [flags]\n\
         \n\
         flags:\n\
         \x20 --instructions N, -n N  retired instructions per run (default 100000)\n\
         \x20 --seed S                workload generator seed (default 7)\n\
         \x20 --bench NAME            restrict to one benchmark (case-insensitive)\n\
         \x20 --threads N             worker threads for the sweep (default 1)\n\
         \x20 --warmup N              warm-up instructions discarded before measuring (default 0)\n\
         \x20 --warmup-mode MODE      `detailed` (per cell, default), `functional`\n\
         \x20                         (one interpreter fast-forward shared by all config arms),\n\
         \x20                         or `checkpoint:DIR` (fork every arm from saved checkpoints)\n\
         \x20 --json                  print trial records as JSON, not tables\n\
         \x20 --output FILE           also write the run's JSON to FILE (table stays on stdout)\n\
         \x20 --workers N             shard the sweep across N worker processes (default:\n\
         \x20                         in-process; trials are byte-identical either way)\n\
         \x20 --cache DIR             content-addressed trial cache: reuse every cell already\n\
         \x20                         simulated under an identical configuration, simulate\n\
         \x20                         and store the rest\n\
         \x20 --listen ADDR           serve the sweep to remote TCP workers on ADDR\n\
         \x20                         (e.g. 0.0.0.0:7777; pair with `exp worker --connect`;\n\
         \x20                         mutually exclusive with --workers)\n\
         \x20 --verbose               print the per-worker dispatch table after the run\n\
         \x20 --token SECRET          shared secret for --listen: remote workers must present\n\
         \x20                         it in their hello (they read RIX_DISPATCH_TOKEN)\n\
         \x20 --dispatch-stats        include the structured dispatch report (per-worker\n\
         \x20                         stats) as a `dispatch` section in JSON result documents\n\
         \x20 --diagnostics           extra §3.2 metrics (fig4 only)\n\
         \x20 --help, -h              this message"
    }

    /// Parses the shared flags from `std::env::args`. On an unknown or
    /// malformed flag, prints the error and [`Harness::usage`] to
    /// stderr and exits with status 2 (`--help` prints usage to stdout
    /// and exits 0).
    #[must_use]
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", Self::usage());
            std::process::exit(0);
        }
        match Self::try_parse(args) {
            Ok(h) => h,
            Err(msg) => {
                eprintln!("error: {msg}\n\n{}", Self::usage());
                std::process::exit(2);
            }
        }
    }

    /// The fallible core of [`Harness::from_args`].
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let args: Vec<String> = args.into_iter().collect();
        let mut h = Self::default();
        let mut i = 0;
        let value = |args: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("{flag} is missing its value"))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--instructions" | "-n" => {
                    let v = value(&args, &mut i, "--instructions")?;
                    h.instructions = v
                        .parse()
                        .map_err(|_| format!("--instructions takes a number, got `{v}`"))?;
                    h.given.instructions = true;
                }
                "--seed" => {
                    let v = value(&args, &mut i, "--seed")?;
                    h.seed =
                        v.parse().map_err(|_| format!("--seed takes a number, got `{v}`"))?;
                    h.given.seed = true;
                }
                "--bench" => {
                    let v = value(&args, &mut i, "--bench")?;
                    // Validate eagerly so a typo reports the closest
                    // benchmark names instead of an empty sweep.
                    h.filter = Some(rix_workloads::lookup(&v)?.name.to_string());
                }
                "--threads" => {
                    let v = value(&args, &mut i, "--threads")?;
                    h.threads = v
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("--threads takes a count >= 1, got `{v}`"))?;
                }
                "--warmup" => {
                    let v = value(&args, &mut i, "--warmup")?;
                    h.warmup = v
                        .parse()
                        .map_err(|_| format!("--warmup takes a number, got `{v}`"))?;
                    h.given.warmup = true;
                }
                "--warmup-mode" => {
                    let v = value(&args, &mut i, "--warmup-mode")?;
                    h.warmup_mode = match (v.as_str(), v.split_once(':')) {
                        ("detailed", _) => WarmupMode::Detailed,
                        ("functional", _) => WarmupMode::Functional,
                        (_, Some(("checkpoint", dir))) if !dir.is_empty() => {
                            WarmupMode::Checkpoint { dir: dir.to_string() }
                        }
                        _ => {
                            return Err(format!(
                                "--warmup-mode takes `detailed`, `functional` or \
                                 `checkpoint:DIR`, got `{v}`"
                            ))
                        }
                    };
                    h.given.warmup_mode = true;
                }
                "--json" => h.json = true,
                "--output" => h.output = Some(value(&args, &mut i, "--output")?),
                "--workers" => {
                    let v = value(&args, &mut i, "--workers")?;
                    h.workers = v
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("--workers takes a count >= 1, got `{v}`"))?;
                }
                "--cache" => h.cache = Some(value(&args, &mut i, "--cache")?),
                "--listen" => h.listen = Some(value(&args, &mut i, "--listen")?),
                "--verbose" => h.verbose = true,
                "--token" => h.token = Some(value(&args, &mut i, "--token")?),
                "--dispatch-stats" => h.dispatch_stats = true,
                "--diagnostics" => h.diagnostics = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
            i += 1;
        }
        if h.listen.is_some() && h.workers > 0 {
            return Err(
                "--listen and --workers are mutually exclusive (serve to remote workers \
                 OR spawn local ones)"
                    .to_string(),
            );
        }
        Ok(h)
    }

    /// The benchmarks selected by the filter.
    #[must_use]
    pub fn benchmarks(&self) -> Vec<Benchmark> {
        rix_workloads::all_benchmarks()
            .into_iter()
            .filter(|b| {
                self.filter.as_deref().is_none_or(|f| f.eq_ignore_ascii_case(b.name))
            })
            .collect()
    }

    /// A [`Sweep`] over the selected benchmarks with this harness's
    /// instruction budget, seed, thread count and warm-up settings; add
    /// configs and run.
    #[must_use]
    pub fn sweep(&self) -> Sweep {
        Sweep::new()
            .benchmarks(self.benchmarks())
            .instructions(self.instructions)
            .seed(self.seed)
            .threads(self.threads)
            .warmup(self.warmup)
            .warmup_mode(self.warmup_mode.clone())
    }

    /// Runs `sweep` on the executor the flags choose: the [`dispatch`]
    /// layer when `--workers`, `--cache` or `--listen` is given (its
    /// summary, and under `--verbose` its worker table, go to stderr),
    /// [`Sweep::try_run`] otherwise. The report is `None` for a plain
    /// in-process run.
    pub fn run_sweep(&self, sweep: &Sweep) -> Result<(Vec<Trial>, Option<DispatchReport>), String> {
        if self.workers == 0 && self.cache.is_none() && self.listen.is_none() {
            return Ok((sweep.try_run()?, None));
        }
        let (trials, report) = sweep.run_distributed(&DispatchOptions::from_harness(self))?;
        eprintln!("dispatch: {}", report.summary());
        if self.verbose {
            eprint!("{}", report.worker_table());
        }
        Ok((trials, Some(report)))
    }

    /// The shared JSON output behaviour of the figure binaries: writes
    /// [`trials_json`] to [`Harness::output`] when set (always, so a
    /// file is produced in both table and `--json` mode), prints it to
    /// stdout under `--json`. Returns `true` when the caller should skip
    /// its text tables (`--json` mode).
    ///
    /// Exits with status 1 when the output file cannot be written (the
    /// figure binaries have no recovery path for a failed write).
    pub fn emit_trials(&self, trials: &[Trial]) -> bool {
        let json = trials_json(trials);
        if let Some(path) = &self.output {
            if let Err(e) = std::fs::write(path, format!("{json}\n")) {
                eprintln!("error: cannot write `{path}`: {e}");
                std::process::exit(1);
            }
        }
        if self.json {
            println!("{json}");
        }
        self.json
    }
}

/// One completed (benchmark × config) run from a [`Sweep`].
#[derive(Clone, Debug)]
pub struct Trial {
    /// Benchmark name.
    pub bench: &'static str,
    /// Label of the configuration that produced this trial.
    pub config_label: String,
    /// The simulation outcome.
    pub result: RunResult,
    /// Wall-clock time this cell's simulation took (construction, warm-up
    /// and measurement; excludes work shared across a grid row — program
    /// generation, and the per-benchmark interpreter fast-forward under
    /// [`WarmupMode::Functional`]). Deliberately excluded from
    /// [`Trial::to_json`] so the `--json` figure output stays
    /// deterministic.
    pub wall: std::time::Duration,
}

impl Trial {
    /// Simulated KIPS: thousands of retired instructions per wall-clock
    /// second of host time for this cell.
    #[must_use]
    pub fn kips(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.result.stats.retired as f64 / 1_000.0 / secs
        }
    }

    /// JSON object for this trial record.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(TRIAL_JSON_BYTES);
        self.to_json_into(&mut out);
        out
    }

    /// Appends [`Trial::to_json`]'s bytes to `out`.
    pub fn to_json_into(&self, out: &mut String) {
        out.push_str(r#"{"bench":"#);
        write_str(out, self.bench);
        out.push_str(r#","config":"#);
        write_str(out, &self.config_label);
        out.push_str(r#","result":"#);
        self.result.to_json_into(out);
        out.push('}');
    }
}

/// JSON array over trial records (the `--json` output of every figure
/// binary).
#[must_use]
pub fn trials_json(trials: &[Trial]) -> String {
    let mut out = String::with_capacity(trials.len() * TRIAL_JSON_BYTES + 4);
    write_trials(&mut out, trials);
    out
}

/// About how long one trial record is: a fig4 record is 0.9–1 KB. The
/// result document reserves this much per trial up front.
const TRIAL_JSON_BYTES: usize = 1024;

/// Appends [`trials_json`]'s bytes to `out`, writing every record in
/// place.
fn write_trials(out: &mut String, trials: &[Trial]) {
    out.push_str("[\n");
    for (i, t) in trials.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        t.to_json_into(out);
    }
    out.push_str("\n]");
}

/// The `rix-exp-result/1` document: the canonical output of `exp run
/// --json`, and what the experiment service stores and re-serves.
/// `cache` adds a `cache` section (hit/miss split — given only when the
/// run used a trial cache), `dispatch` adds a `dispatch` section with
/// the full structured [`DispatchReport`] (given under
/// `--dispatch-stats`). With both `None` the bytes are identical to
/// pre-service releases, which is what the byte-identity guarantees in
/// the e2e tests — and the service's dedup story — rest on.
#[must_use]
pub fn result_doc(
    spec: &ExperimentSpec,
    trials: &[Trial],
    cache: Option<&DispatchReport>,
    dispatch: Option<&DispatchReport>,
) -> String {
    use std::fmt::Write as _;
    let spec_json = spec.to_json();
    // The whole document, a caller's trailing newline included, fits.
    let mut out = String::with_capacity(spec_json.len() + trials.len() * TRIAL_JSON_BYTES + 512);
    out.push_str("{\n  \"schema\":\"rix-exp-result/1\",\n  \"name\":");
    match &spec.name {
        Some(name) => write_str(&mut out, name),
        None => out.push_str("null"),
    }
    let _ = write!(out, ",\n  \"spec_fingerprint\":\"{}\",\n  \"spec\":", spec.fingerprint_hex());
    out.push_str(&spec_json);
    out.push(',');
    if let Some(r) = cache {
        let _ = write!(out, "\n  \"cache\":{{\"hits\":{},\"misses\":{}}},", r.cache_hits, r.simulated);
    }
    if let Some(r) = dispatch {
        out.push_str("\n  \"dispatch\":");
        r.to_json().dump_into(&mut out);
        out.push(',');
    }
    out.push_str("\n  \"trials\":");
    write_trials(&mut out, trials);
    out.push_str("\n}");
    out
}

/// How many (benchmark, seed) lint verdicts [`lint_findings`] keeps.
/// Past this many the memo starts over, so no stream of seeds grows it
/// without bound; 256 is every benchmark at 16 seeds.
const LINT_MEMO_CAP: usize = 256;

/// Lint verdicts by (benchmark name, seed), each with the generator
/// parameters it was computed from. A spec names benchmarks only
/// through the built-in table, so the name and the seed determine the
/// program — the same identity a `rix-cell/1` cache key rests on. The
/// stored [`rix_workloads::Spec`] keeps a hand-built benchmark that
/// borrows a built-in's name from reading the built-in's verdict.
type LintMemo = BTreeMap<(&'static str, u64), (rix_workloads::Spec, Vec<Diagnostic>)>;
static LINT_MEMO: Mutex<LintMemo> = Mutex::new(BTreeMap::new());

/// The [`rix_analysis`] lint gate of `exp run --dry-run` and the
/// experiment service: every finding in the programs of `benches` at
/// `seed`, rendered `name: finding`, in order. A generator bug (an
/// uninitialised read, a block that can run off the end) would
/// silently become a bogus data point, so both reject a spec with any.
/// Each program is built and linted once per process and seed; later
/// calls read the verdict from a bounded memo.
pub fn lint_findings<'a>(
    benches: impl IntoIterator<Item = &'a Benchmark>,
    seed: u64,
) -> Vec<String> {
    benches
        .into_iter()
        .flat_map(|b| lint_memoized(b, seed).into_iter().map(move |d| format!("{}: {d}", b.name)))
        .collect()
}

/// [`rix_analysis::lint_program`] of `b` at `seed`, through [`LINT_MEMO`].
/// The lock is not held while a program is built and linted.
fn lint_memoized(b: &Benchmark, seed: u64) -> Vec<Diagnostic> {
    let memo = || LINT_MEMO.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some((_, found)) = memo().get(&(b.name, seed)).filter(|(spec, _)| *spec == b.spec) {
        return found.clone();
    }
    let found = rix_analysis::lint_program(&b.build(seed));
    let mut memo = memo();
    if memo.len() >= LINT_MEMO_CAP {
        memo.clear();
    }
    memo.insert((b.name, seed), (b.spec, found.clone()));
    found
}

/// One grid row's shared state: the benchmark's program and its warm-up
/// provenance, prepared once by [`Sweep::prepare_row`] and read by every
/// cell of the row.
pub(crate) struct Row {
    program: Program,
    ckpt: Option<Checkpoint>,
    warm: Option<ArchState>,
}

/// A declarative experiment over the (benchmark × config) grid,
/// fanned out over a `std::thread` worker pool.
///
/// Workers pull grid cells from a shared queue, so a slow cell (a big
/// benchmark under an expensive config) does not hold up the rest of
/// its row. Results come back as [`Trial`] records in deterministic
/// bench-major grid order — identical for every thread count, because
/// each cell's simulation is independent and seeded.
///
/// ```
/// use rix_bench::Sweep;
/// use rix_sim::SimConfig;
///
/// let trials = Sweep::new()
///     .benchmarks(rix_workloads::all_benchmarks().into_iter().take(2))
///     .config("base", SimConfig::baseline())
///     .config("integration", SimConfig::default())
///     .instructions(2_000)
///     .warmup(500)
///     .threads(2)
///     .run();
/// assert_eq!(trials.len(), 4);
/// assert_eq!(trials[0].config_label, "base");
/// assert!(trials.iter().all(|t| t.result.stats.retired >= 2_000));
/// ```
#[derive(Clone, Debug)]
pub struct Sweep {
    benchmarks: Vec<Benchmark>,
    configs: Vec<(String, SimConfig)>,
    instructions: u64,
    warmup: u64,
    warmup_mode: WarmupMode,
    seed: u64,
    threads: usize,
    stop: Option<StopWhen>,
    err: Option<String>,
}

impl Default for Sweep {
    fn default() -> Self {
        Self::new()
    }
}

impl Sweep {
    /// An empty sweep: 100k instructions, no warm-up, seed 7, 1 thread.
    #[must_use]
    pub fn new() -> Self {
        Self {
            benchmarks: Vec::new(),
            configs: Vec::new(),
            instructions: 100_000,
            warmup: 0,
            warmup_mode: WarmupMode::Detailed,
            seed: 7,
            threads: 1,
            stop: None,
            err: None,
        }
    }

    /// Sets the benchmarks (grid rows).
    #[must_use]
    pub fn benchmarks(mut self, benchmarks: impl IntoIterator<Item = Benchmark>) -> Self {
        self.benchmarks = benchmarks.into_iter().collect();
        self
    }

    /// Sets the labelled configurations (grid columns). Replaces any
    /// earlier `.space()`/`.configs()` arms — including a deferred
    /// space error.
    #[must_use]
    pub fn configs<L: Into<String>>(
        mut self,
        configs: impl IntoIterator<Item = (L, SimConfig)>,
    ) -> Self {
        self.configs = configs.into_iter().map(|(l, c)| (l.into(), c)).collect();
        self.err = None;
        self
    }

    /// Appends one labelled configuration.
    #[must_use]
    pub fn config(mut self, label: impl Into<String>, cfg: SimConfig) -> Self {
        self.configs.push((label.into(), cfg));
        self
    }

    /// Sets the configurations from a [`ParamSpace`]: every labelled arm
    /// of the space becomes a grid column. A malformed space (bad field
    /// path, unknown preset, zip-length mismatch, …) is reported by
    /// [`Sweep::try_run`] rather than here, so builder chains stay
    /// infallible. Replaces any earlier arms — and any earlier deferred
    /// error.
    #[must_use]
    pub fn space(mut self, space: ParamSpace) -> Self {
        match space.into_arms() {
            Ok(arms) => {
                self.configs = arms;
                self.err = None;
            }
            Err(e) => {
                self.configs = Vec::new();
                self.err = Some(e);
            }
        }
        self
    }

    /// Replaces the per-cell measurement condition: instead of the
    /// [`StopWhen::budget`] of [`Sweep::instructions`], each cell runs
    /// until `stop` is satisfied (or the program halts / the machine
    /// deadlocks). The instruction budget is ignored for measurement
    /// when a stop condition is set; warm-up still uses
    /// [`Sweep::warmup`].
    #[must_use]
    pub fn stop(mut self, stop: StopWhen) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Retired instructions measured per trial.
    #[must_use]
    pub fn instructions(mut self, n: u64) -> Self {
        self.instructions = n;
        self
    }

    /// Retired instructions to run — then discard via
    /// [`Simulator::reset_stats`] — before measuring (0 = cold).
    #[must_use]
    pub fn warmup(mut self, n: u64) -> Self {
        self.warmup = n;
        self
    }

    /// How the warm-up executes: [`WarmupMode::Detailed`] (per cell, the
    /// default) or [`WarmupMode::Functional`] (one interpreter
    /// fast-forward per benchmark row, shared by every config arm). Has
    /// no effect when [`Sweep::warmup`] is 0.
    #[must_use]
    pub fn warmup_mode(mut self, mode: WarmupMode) -> Self {
        self.warmup_mode = mode;
        self
    }

    /// Workload generator seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads (clamped to at least 1; more threads than grid
    /// cells idle harmlessly).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Validates the sweep's shape without running anything: a deferred
    /// [`ParamSpace`] error, an empty benchmark or configuration list,
    /// duplicate configuration labels, an unbuildable configuration
    /// ([`SimConfig::validate`] per arm), a zero-instruction
    /// measurement, and functional-warm-up `stack_top` disagreement are
    /// all reported with a descriptive message instead of panicking or
    /// silently producing an empty run. ([`WarmupMode::Checkpoint`] files are
    /// checked by [`Sweep::validate_checkpoint_files`] and
    /// [`Sweep::try_run`], not here, so a spec can be validated before
    /// its checkpoints exist.)
    pub fn validate(&self) -> Result<(), String> {
        if let Some(e) = &self.err {
            return Err(e.clone());
        }
        if self.benchmarks.is_empty() {
            return Err("sweep has no benchmarks: add .benchmarks(...), or loosen the \
                        benchmark filter that removed them all"
                .to_string());
        }
        if self.configs.is_empty() {
            return Err(
                "sweep has no configurations: add .config(...), .configs(...) or .space(...)"
                    .to_string(),
            );
        }
        let mut seen = std::collections::HashSet::new();
        for (label, cfg) in &self.configs {
            if !seen.insert(label.as_str()) {
                return Err(format!(
                    "duplicate configuration label `{label}`: every arm of a sweep needs a \
                     distinct label"
                ));
            }
            // Well-typed is not buildable: catch constructor panics
            // (register-file floor, cache/IT/LISP geometry, predictor
            // table sizes) here, with the arm named, instead of inside
            // a worker thread.
            cfg.validate().map_err(|e| format!("configuration `{label}`: {e}"))?;
        }
        if self.instructions == 0 && self.stop.is_none() {
            return Err("zero-instruction budget: set .instructions(n) or a .stop(...) \
                        condition, otherwise every trial measures nothing"
                .to_string());
        }
        if self.warmup > 0 && self.warmup_mode == WarmupMode::Functional {
            let stack_top = self.configs[0].1.stack_top;
            if !self.configs.iter().all(|(_, c)| c.stack_top == stack_top) {
                return Err("functional warm-up shares one interpreter run per benchmark, \
                            so every config arm must agree on stack_top"
                    .to_string());
            }
        }
        Ok(())
    }

    /// Checks that every snapshot a [`WarmupMode::Checkpoint`] warm-up
    /// will read actually exists, naming each missing path — a no-op
    /// under the other modes. Separate from [`Sweep::validate`] so a
    /// spec can still be *statically* validated before its checkpoints
    /// are saved; `exp --dry-run` and the [`dispatch`] runner call this
    /// too, so a missing file is reported up front instead of failing
    /// mid-run.
    pub fn validate_checkpoint_files(&self) -> Result<(), String> {
        let WarmupMode::Checkpoint { dir } = &self.warmup_mode else {
            return Ok(());
        };
        let missing: Vec<String> = self
            .benchmarks
            .iter()
            .map(|b| checkpoint_path(dir, b.name, self.seed))
            .filter(|p| !p.is_file())
            .map(|p| p.display().to_string())
            .collect();
        if missing.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{} warm-up checkpoint file(s) missing: {} (save each benchmark's snapshot \
                 with Checkpoint::save at checkpoint_path(dir, bench, seed))",
                missing.len(),
                missing.join(", "),
            ))
        }
    }

    /// Runs the sweep through the multi-process [`dispatch`] layer:
    /// cells are sharded across [`DispatchOptions::workers`] worker
    /// processes (0 runs them in this process) after consulting the
    /// content-addressed trial cache when one is configured. The trials
    /// are byte-identical to [`Sweep::try_run`]'s for every worker
    /// count and cache state; the [`DispatchReport`] says what was
    /// simulated versus reused.
    pub fn run_distributed(
        &self,
        opts: &DispatchOptions,
    ) -> Result<(Vec<Trial>, DispatchReport), String> {
        dispatch::run_sweep_distributed(self, opts)
    }

    /// Runs every (benchmark × config) cell and returns the trials in
    /// bench-major grid order, independent of the thread count.
    ///
    /// # Panics
    ///
    /// Panics on an invalid sweep (see [`Sweep::validate`]) or a
    /// missing/mismatched warm-up checkpoint; [`Sweep::try_run`] is the
    /// error-returning form.
    #[must_use]
    pub fn run(&self) -> Vec<Trial> {
        self.try_run().unwrap_or_else(|e| panic!("invalid sweep: {e}"))
    }

    /// As [`Sweep::run`], but an invalid sweep — or a missing or
    /// mismatched [`WarmupMode::Checkpoint`] file — returns a
    /// descriptive error instead of panicking.
    pub fn try_run(&self) -> Result<Vec<Trial>, String> {
        self.validate()?;
        let cells: Vec<usize> = (0..self.cells()).collect();
        let mut slots: Vec<Option<Trial>> = cells.iter().map(|_| None).collect();
        self.run_cells(&cells, self.threads, |i, trial| {
            slots[i] = Some(trial);
            Ok(())
        })?;
        filled(slots)
    }

    /// Grid cells: benchmarks × configurations.
    pub(crate) fn cells(&self) -> usize {
        self.benchmarks.len() * self.configs.len()
    }

    /// Prepares grid row `bi`, the work its cells share: builds the
    /// benchmark's program, then either loads its
    /// [`WarmupMode::Checkpoint`] snapshot and checks the program hash,
    /// or runs the one [`WarmupMode::Functional`] fast-forward that every
    /// arm of the row forks from. This is the only code that prepares a
    /// row, in process and in dispatch workers alike, and it stays
    /// outside every cell's wall clock.
    pub(crate) fn prepare_row(&self, bi: usize) -> Result<Row, String> {
        let bench = self.benchmarks[bi];
        let program = bench.build(self.seed);
        let (mut ckpt, mut warm) = (None, None);
        match &self.warmup_mode {
            WarmupMode::Checkpoint { dir } => {
                let path = checkpoint_path(dir, bench.name, self.seed);
                let ck = Checkpoint::load(&path)
                    .map_err(|e| format!("warm-up checkpoint for `{}`: {e}", bench.name))?;
                if rix_sim::checkpoint::fingerprint(&program) != ck.program_hash {
                    return Err(format!(
                        "warm-up checkpoint {} belongs to a different program than `{}` at \
                         seed {} (wrong benchmark, or saved at another seed)",
                        path.display(),
                        bench.name,
                        self.seed
                    ));
                }
                ckpt = Some(ck);
            }
            WarmupMode::Functional if self.warmup > 0 => {
                // `validate` makes every arm agree on `stack_top`.
                let stack_top = self.configs[0].1.stack_top;
                let mut interp = Interp::new(&program, stack_top);
                let _ = interp.run(self.warmup);
                warm = Some(interp.into_arch_state());
            }
            _ => {}
        }
        Ok(Row { program, ckpt, warm })
    }

    /// Runs grid cell `i` (bench-major) from its prepared `row`. Exactly
    /// one warm-up provenance applies, in precedence order: a checkpoint
    /// fork, a functional fast-forward fork, a detailed per-cell warm-up
    /// (`warmup > 0`), or a cold start.
    pub(crate) fn run_cell(&self, row: &Row, i: usize) -> Trial {
        let ncfg = self.configs.len();
        let (label, cfg) = &self.configs[i % ncfg];
        let (program, cfg) = (&row.program, *cfg);
        // The measurement interval: the stop condition when one is set,
        // the instruction budget otherwise.
        let measure = |sim: &mut Simulator| -> RunResult {
            match &self.stop {
                Some(stop) => {
                    sim.run_until(stop);
                    sim.result()
                }
                None => sim.run_budget(self.instructions),
            }
        };
        let start = std::time::Instant::now();
        let result = if let Some(ck) = &row.ckpt {
            // Fork the arm from the saved snapshot (cold microarchitecture
            // at the checkpoint boundary) and measure fresh from there.
            let mut sim = Simulator::from_checkpoint(program, cfg, ck);
            sim.reset_stats();
            measure(&mut sim)
        } else if let Some(state) = &row.warm {
            // Boot the detailed machine at the fast-forwarded architectural
            // boundary (cold microarchitecture) and measure from there.
            measure(&mut Simulator::from_arch_state(program, cfg, state))
        } else {
            let mut sim = Simulator::new(program, cfg);
            if self.warmup > 0 {
                // Budget safety nets on both phases, so a cell that
                // crawls without deadlocking cannot hang the sweep.
                sim.run_until(&StopWhen::budget(self.warmup));
                sim.reset_stats();
            }
            measure(&mut sim)
        };
        let bench = self.benchmarks[i / ncfg].name;
        Trial { bench, config_label: label.clone(), result, wall: start.elapsed() }
    }

    /// The one in-process executor, behind [`Sweep::try_run`], a
    /// distributed run's cache misses and a served run's degraded tail,
    /// all of which honour [`Sweep::threads`]: runs `cells` (bench-major
    /// grid indices) on up to `threads` threads, the calling thread
    /// included, each claiming the next cell from a shared cursor. Every
    /// finished trial goes to `on_done` **on the calling thread** — its
    /// own at once, the others' between its cells — so a thread-local
    /// observer such as the dispatch progress hook sees every cell. The
    /// rows the cells touch are prepared first, spread over the same
    /// thread budget; with one thread, nothing is spawned. An error from
    /// `on_done` stops the run once the cells in flight finish. The
    /// first call in a process pins the allocator's thresholds (see
    /// [`pin_malloc_thresholds`]), which keeps peak RSS from growing
    /// with the number of threads that have ever run a cell.
    pub(crate) fn run_cells(
        &self,
        cells: &[usize],
        threads: usize,
        mut on_done: impl FnMut(usize, Trial) -> Result<(), String>,
    ) -> Result<(), String> {
        if cells.is_empty() {
            return Ok(());
        }
        pin_malloc_thresholds();
        let ncfg = self.configs.len();
        let mut wanted: Vec<usize> = cells.iter().map(|&i| i / ncfg).collect();
        wanted.sort_unstable();
        wanted.dedup();
        // Rows are independent and near-uniform in cost (program build
        // plus any fast-forward), so contiguous shares suffice.
        let prepared = par_map(wanted.len(), threads, |k| self.prepare_row(wanted[k]));
        let mut rows: Vec<Option<Row>> = self.benchmarks.iter().map(|_| None).collect();
        for (bi, row) in wanted.into_iter().zip(prepared) {
            rows[bi] = Some(row?);
        }
        let row = |i: usize| rows[i / ncfg].as_ref().expect("every touched row is prepared");

        let next = AtomicUsize::new(0);
        let claim = || cells.get(next.fetch_add(1, Ordering::Relaxed)).copied();
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            for _ in 1..threads.clamp(1, cells.len()) {
                let (tx, claim, row) = (tx.clone(), &claim, &row);
                scope.spawn(move || {
                    while let Some(i) = claim() {
                        // A closed channel means `on_done` failed: stop.
                        if tx.send((i, self.run_cell(row(i), i))).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            while let Some(i) = claim() {
                on_done(i, self.run_cell(row(i), i))?;
                rx.try_iter().try_for_each(|(i, trial)| on_done(i, trial))?;
            }
            rx.into_iter().try_for_each(|(i, trial)| on_done(i, trial))
        })
    }
}

/// `f(i)` for every `i` in `0..n`, in index order, computed on up to
/// `threads` threads, the calling thread included. Each thread takes
/// one contiguous share, which suits work that is near-uniform in cost
/// (preparing grid rows, looking cells up in the trial cache). With one
/// thread, or one item, nothing is spawned. Like [`Sweep::run_cells`],
/// it pins the allocator's thresholds first ([`pin_malloc_thresholds`]).
pub(crate) fn par_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    pin_malloc_thresholds();
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(threads.clamp(1, n.max(1))).max(1);
    let fill = |start: usize, slots: &mut [Option<T>]| {
        for (k, slot) in slots.iter_mut().enumerate() {
            *slot = Some(f(start + k));
        }
    };
    std::thread::scope(|scope| {
        let mut shares = out.chunks_mut(chunk).enumerate();
        let first = shares.next();
        for (c, slots) in shares {
            let fill = &fill;
            scope.spawn(move || fill(c * chunk, slots));
        }
        if let Some((_, slots)) = first {
            fill(0, slots);
        }
    });
    out.into_iter().map(|t| t.expect("every share is filled")).collect()
}

/// Fixes glibc's mmap and trim thresholds at 128 KiB, once per process.
///
/// By default glibc raises its mmap threshold to the size of the largest
/// mmapped block freed so far, and its trim threshold to twice that.
/// Once the first simulator's 768 KiB L2 tag array is freed, every later
/// simulator's tables come from the allocating thread's arena and stay
/// resident there, so peak RSS grows with the number of arenas (threads)
/// that have ever run a cell. Pinning the mmap threshold keeps the large
/// tables in mmapped blocks that go back to the kernel on free. Both
/// calls are needed: setting only the mmap threshold leaves the trim
/// threshold where the dynamic adjustment already raised it. On the
/// two-thread `service_mixed` benchmark (2-vCPU Xeon), peak RSS was
/// 21.4–22.3 MiB with neither call or the mmap threshold alone, and
/// 17.1–17.8 MiB with both.
fn pin_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        const THRESHOLD: c_int = 128 * 1024;
        static ONCE: std::sync::Once = std::sync::Once::new();
        // SAFETY: `mallopt` only tunes glibc's allocator and is safe to
        // call at any time from any thread; a rejected value leaves the
        // default in place.
        ONCE.call_once(|| unsafe {
            mallopt(M_MMAP_THRESHOLD, THRESHOLD);
            mallopt(M_TRIM_THRESHOLD, THRESHOLD);
        });
    }
}

/// The trials of a run whose every slot was filled.
pub(crate) fn filled(slots: Vec<Option<Trial>>) -> Result<Vec<Trial>, String> {
    slots.into_iter().map(|t| t.ok_or("internal: unfilled trial slot".to_string())).collect()
}

/// The four Figure 4 extension arms (name, config).
#[must_use]
pub fn figure4_arms() -> Vec<(&'static str, IntegrationConfig)> {
    IntegrationConfig::figure4_arms()
}

/// Percentage speedup of `x` over `base` IPC.
#[must_use]
pub fn speedup_pct(x: &RunResult, base: &RunResult) -> f64 {
    if base.ipc() == 0.0 {
        0.0
    } else {
        (x.ipc() / base.ipc() - 1.0) * 100.0
    }
}

/// Arithmetic mean.
#[must_use]
pub fn amean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean of (1 + x/100) speedup percentages, returned as a
/// percentage (the paper reports geometric-mean speedups).
#[must_use]
pub fn gmean_speedup(pcts: &[f64]) -> f64 {
    if pcts.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = pcts.iter().map(|p| (1.0 + p / 100.0).max(1e-9).ln()).sum();
    ((log_sum / pcts.len() as f64).exp() - 1.0) * 100.0
}

/// A minimal aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(ToString::to_string).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means() {
        assert!((amean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(amean(&[]), 0.0);
        // gmean of +10% and -9.0909..% is ~0.
        let g = gmean_speedup(&[10.0, -9.090_909_090_9]);
        assert!(g.abs() < 1e-6, "{g}");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2.5".into()]);
        let r = t.render();
        assert!(r.contains("long-name"));
        assert_eq!(r.lines().count(), 4);
    }

    #[test]
    fn harness_selects_benchmarks() {
        let mut h = Harness::default();
        assert_eq!(h.benchmarks().len(), 16);
        h.filter = Some("mcf".into());
        assert_eq!(h.benchmarks().len(), 1);
        h.filter = Some("MCF".into());
        assert_eq!(h.benchmarks().len(), 1, "filter is case-insensitive");
    }

    #[test]
    fn try_parse_flags() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let h = Harness::try_parse(args("-n 5000 --seed 9 --threads 4 --json")).unwrap();
        assert_eq!(h.instructions, 5_000);
        assert_eq!(h.seed, 9);
        assert_eq!(h.threads, 4);
        assert!(h.json);
        let h = Harness::try_parse(args("--bench VORTEX")).unwrap();
        assert_eq!(h.filter.as_deref(), Some("vortex"));

        assert!(Harness::try_parse(args("--frobnicate")).unwrap_err().contains("unknown"));
        assert!(Harness::try_parse(args("--seed")).unwrap_err().contains("missing"));
        assert!(Harness::try_parse(args("-n twelve")).unwrap_err().contains("number"));
        assert!(Harness::try_parse(args("--threads 0")).unwrap_err().contains(">= 1"));
        let err = Harness::try_parse(args("--bench vortx")).unwrap_err();
        assert!(err.contains("vortex"), "suggests the close name: {err}");
    }

    #[test]
    fn try_parse_warmup_flags() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let h = Harness::try_parse(args("--warmup 30000")).unwrap();
        assert_eq!(h.warmup, 30_000);
        assert_eq!(h.warmup_mode, WarmupMode::Detailed, "detailed stays the default");
        let h = Harness::try_parse(args("--warmup 1000 --warmup-mode functional")).unwrap();
        assert_eq!(h.warmup_mode, WarmupMode::Functional);
        let h = Harness::try_parse(args("--warmup-mode detailed")).unwrap();
        assert_eq!(h.warmup_mode, WarmupMode::Detailed);
        let h = Harness::try_parse(args("--warmup-mode checkpoint:ckpts/fig4")).unwrap();
        assert_eq!(h.warmup_mode, WarmupMode::Checkpoint { dir: "ckpts/fig4".into() });
        assert!(Harness::try_parse(args("--warmup-mode sampled"))
            .unwrap_err()
            .contains("detailed"));
        assert!(Harness::try_parse(args("--warmup-mode checkpoint:"))
            .unwrap_err()
            .contains("checkpoint:DIR"));
        assert!(Harness::try_parse(args("--warmup lots")).unwrap_err().contains("number"));
    }

    #[test]
    fn try_parse_output_and_given_flags() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let h = Harness::try_parse(args("--output /tmp/fig.json")).unwrap();
        assert_eq!(h.output.as_deref(), Some("/tmp/fig.json"));
        assert_eq!(h.given, GivenFlags::default(), "--output is not a spec override");

        let h = Harness::try_parse(args("-n 5000 --warmup 100")).unwrap();
        assert!(h.given.instructions && h.given.warmup);
        assert!(!h.given.seed && !h.given.warmup_mode);
        let h = Harness::try_parse(args("--seed 9 --warmup-mode functional")).unwrap();
        assert!(h.given.seed && h.given.warmup_mode);
        assert!(!h.given.instructions);
    }

    #[test]
    fn functional_warmup_forks_one_fast_forward_per_row() {
        let benches: Vec<_> = rix_workloads::all_benchmarks().into_iter().take(2).collect();
        let sweep = Sweep::new()
            .benchmarks(benches.clone())
            .config("base", SimConfig::baseline())
            .config("integration", SimConfig::default())
            .instructions(2_000)
            .warmup(3_000)
            .warmup_mode(WarmupMode::Functional);
        let trials = sweep.clone().run();
        assert_eq!(trials.len(), 4);
        for t in &trials {
            assert!(
                t.result.stats.retired >= 2_000,
                "{}/{} measured a full budget",
                t.bench,
                t.config_label
            );
        }
        // Every arm of a row forks from the same architectural boundary:
        // the measured interval starts at warm-up retirement, so the two
        // arms of one benchmark retire the same instruction stream and
        // the trials are deterministic across thread counts.
        let again = sweep.threads(3).run();
        for (a, b) in trials.iter().zip(&again) {
            assert_eq!(a.result, b.result, "{}/{}", a.bench, a.config_label);
        }
        // And the functional path actually took the fast-forward route:
        // its cells start from a mid-program state, so they differ from
        // a cold (no-warm-up) sweep of the same budget.
        let cold = Sweep::new()
            .benchmarks(benches)
            .config("base", SimConfig::baseline())
            .instructions(2_000)
            .run();
        assert_ne!(cold[0].result, trials[0].result);
    }

    #[test]
    fn validation_rejects_degenerate_sweeps_descriptively() {
        let one_bench = || rix_workloads::all_benchmarks().into_iter().take(1);
        // No configurations (the old behaviour silently produced an
        // empty run).
        let err = Sweep::new().benchmarks(one_bench()).try_run().unwrap_err();
        assert!(err.contains("no configurations"), "{err}");
        // No benchmarks.
        let err = Sweep::new().config("base", SimConfig::baseline()).try_run().unwrap_err();
        assert!(err.contains("no benchmarks"), "{err}");
        // Duplicate labels.
        let err = Sweep::new()
            .benchmarks(one_bench())
            .config("base", SimConfig::baseline())
            .config("base", SimConfig::default())
            .try_run()
            .unwrap_err();
        assert!(err.contains("duplicate configuration label `base`"), "{err}");
        // Zero-instruction budget...
        let err = Sweep::new()
            .benchmarks(one_bench())
            .config("base", SimConfig::baseline())
            .instructions(0)
            .try_run()
            .unwrap_err();
        assert!(err.contains("zero-instruction budget"), "{err}");
        // ... unless an explicit stop condition takes over measurement.
        let trials = Sweep::new()
            .benchmarks(one_bench())
            .config("base", SimConfig::baseline())
            .instructions(0)
            .stop(StopWhen::CyclesAtLeast(500))
            .try_run()
            .unwrap();
        assert_eq!(trials.len(), 1);
        assert!(trials[0].result.stats.cycles >= 500);
    }

    #[test]
    fn stop_condition_replaces_the_budget() {
        let sweep = Sweep::new()
            .benchmarks(rix_workloads::all_benchmarks().into_iter().take(1))
            .config("base", SimConfig::baseline())
            .instructions(1_000_000) // would run far longer than the stop
            .stop(StopWhen::CyclesAtLeast(2_000));
        let trials = sweep.run();
        assert!(trials[0].result.stats.cycles >= 2_000);
        assert!(
            trials[0].result.stats.cycles < 100_000,
            "the stop condition, not the budget, ended the cell: {}",
            trials[0].result.stats.cycles
        );
    }

    #[test]
    fn checkpoint_warmup_reports_missing_files() {
        let err = Sweep::new()
            .benchmarks(rix_workloads::all_benchmarks().into_iter().take(1))
            .config("base", SimConfig::baseline())
            .warmup_mode(WarmupMode::Checkpoint { dir: "/nonexistent-ckpt-dir".into() })
            .try_run()
            .unwrap_err();
        assert!(err.contains("warm-up checkpoint for `bzip2`"), "{err}");
        assert!(err.contains("bzip2-s7.ckpt.json"), "names the expected file: {err}");
    }

    #[test]
    fn sweep_parallel_matches_serial() {
        let benches: Vec<_> = rix_workloads::all_benchmarks().into_iter().take(3).collect();
        let configs = vec![
            ("base".to_string(), SimConfig::baseline()),
            ("full".to_string(), SimConfig::default()),
        ];
        let sweep = Sweep::new()
            .benchmarks(benches.clone())
            .configs(configs)
            .instructions(2_000);
        let serial = sweep.clone().threads(1).run();
        let parallel = sweep.threads(3).run();
        assert_eq!(serial.len(), 6);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.bench, b.bench);
            assert_eq!(a.config_label, b.config_label);
            assert_eq!(a.result, b.result, "{}/{}", a.bench, a.config_label);
        }
        // Grid order: bench-major, configs in declaration order.
        assert_eq!(serial[0].bench, benches[0].name);
        assert_eq!(serial[0].config_label, "base");
        assert_eq!(serial[1].config_label, "full");
        assert_eq!(serial[2].bench, benches[1].name);
    }

    #[test]
    fn trials_json_is_balanced() {
        let trials = Sweep::new()
            .benchmarks(rix_workloads::all_benchmarks().into_iter().take(1))
            .config("base", SimConfig::baseline())
            .instructions(1_000)
            .run();
        let j = trials_json(&trials);
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains(r#""bench":"bzip2""#));
        // Labels are escaped like any JSON string.
        let odd = Trial { config_label: "a\"b\\c\n".into(), ..trials[0].clone() };
        assert!(odd.to_json().contains(r#""config":"a\"b\\c\u000a","#), "{}", odd.to_json());
    }

    #[test]
    fn lint_memo_matches_lint_program_and_stays_bounded() {
        for seed in [1, 7] {
            for b in rix_workloads::all_benchmarks() {
                let direct = rix_analysis::lint_program(&b.build(seed));
                // A miss or a hit (other tests share the memo), then a hit.
                assert_eq!(lint_memoized(&b, seed), direct, "{} seed {seed}", b.name);
                assert_eq!(lint_memoized(&b, seed), direct, "{} seed {seed} again", b.name);
                let rendered: Vec<String> =
                    direct.iter().map(|d| format!("{}: {d}", b.name)).collect();
                assert_eq!(lint_findings([&b], seed), rendered);
            }
        }
        // A hand-built benchmark under a built-in's name is linted as
        // itself, not answered from the built-in's entry.
        let b = rix_workloads::by_name("gzip").expect("built-in");
        let mut impostor = b;
        impostor.spec.num_funcs += 3;
        let _ = lint_memoized(&b, 424_242);
        let direct = rix_analysis::lint_program(&impostor.build(424_242));
        assert_eq!(lint_memoized(&impostor, 424_242), direct);
        let entry = LINT_MEMO.lock().expect("memo lock").get(&("gzip", 424_242)).map(|e| e.0);
        assert_eq!(entry, Some(impostor.spec), "the impostor's verdict replaced the entry");
        for seed in 1_000..1_000 + LINT_MEMO_CAP as u64 + 20 {
            let _ = lint_memoized(&b, seed);
            let held = LINT_MEMO.lock().expect("memo lock").len();
            assert!(held <= LINT_MEMO_CAP, "{held} entries past the cap");
        }
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_checks_width() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
