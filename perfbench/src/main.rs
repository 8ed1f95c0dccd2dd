//! The rix benchmark: runs one workload from a seed, checks every
//! output, and prints one JSON result line as the last line of stdout.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim_fig4 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (all on `specs/fig4.json`, the Figure 4 grid of 16
//! benchmarks × 9 arms, at the run's seed):
//!
//! - `sim_fig4`: the spec as committed (100k instructions per cell)
//!   through `Sweep::try_run` on one thread: the pipeline hot loop.
//! - `ff_short`: 2M-instruction functional warm-up per row, 2k measured
//!   per cell, one thread: fast-forward, program build and simulator
//!   boot, little pipeline.
//! - `service_mixed`: an in-process experiment service, one closed-loop
//!   client interleaving warm (all cache hits) and cold (all simulated)
//!   submissions.
//! - `dispatch_workers`: 20k instructions per cell through
//!   `Sweep::run_distributed` on self-exec'd stdio worker processes.
//!
//! Each run sets up several times (median reported as `setup_s`), makes
//! one untimed pass, then times passes for `--seconds`. Every result is
//! checked against the untimed pass or, for service results, against the
//! schema, the cell count and the prefilled trials. `--trace 0` prints
//! the end-to-end metrics; `--trace 1` alternates untraced and traced
//! passes and prints the per-layer metrics, measured by spans around the
//! benchmark's calls into each crate, with the tracing overhead.
//!
//! A report with provenance (CPU, cores, profile, git revision, seed)
//! is written to `.perfbench/report-<workload>-s<seed>-t<trace>.json`
//! and a traced run's spans to `.perfbench/trace-<workload>-s<seed>.json`,
//! both under the repository root.

mod layers;
mod report;
mod service;
mod sweeps;
mod trace;

use report::Outcome;
use rix_bench::ExperimentSpec;
use std::path::{Path, PathBuf};
use std::time::Duration;
use trace::Trace;

/// Metrics printed by an untraced run.
const END_TO_END: &[&str] = &[
    "setup_s",
    "wall_s",
    "cells_per_s",
    "sim_kips",
    "warm_p50_ms",
    "warm_p90_ms",
    "cold_p50_ms",
    "peak_rss_mb",
];

/// Metrics printed by a traced run.
const PER_LAYER: &[&str] = &[
    "sim.ns_per_instr",
    "sim.ns_per_cycle",
    "sim.boot_us",
    "workloads.build_ms",
    "workloads.builds",
    "isa.ff_ns_per_instr",
    "analysis.lint_ms",
    "bench.validate_ms",
    "dispatch.cache_load_us",
    "sim.result_decode_us",
    "isa.json_parse_us",
    "dispatch.cache_store_us",
    "sim.result_encode_us",
    "bench.execute_ms",
    "bench.parallel_efficiency",
    "serve.submit_ms",
    "serve.queue_wait_ms",
    "serve.result_ms",
    "serve.overhead_ms",
    "serve.polls_per_run",
    "serve.rejected",
    "dispatch.overhead_ms_per_cell",
    "dispatch.retries",
    "dispatch.workers_lost",
    "dispatch.cache_hit_ratio",
    "bench.cell_p50_ms",
    "bench.cell_p90_ms",
    "bench.row_prep_ms",
    "sim.ipc",
    "sim.fetched_per_retired",
    "sim.squashes_pki",
    "integration.rate",
    "integration.mis_per_million",
    "integration.suppressed_pki",
    "frontend.mispredict_rate",
    "mem.l1d_miss_rate",
    "mem.l2_miss_rate",
    "trace.overhead_pct",
];

const WORKLOADS: &[&str] = &["sim_fig4", "ff_short", "service_mixed", "dispatch_workers"];

/// What every workload needs: the arguments, where to read and write,
/// and the committed fig4 spec.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Threads, worker processes or engine threads: the cores, at most 2.
    pub threads: usize,
    /// Scratch space for this run, deleted when it ends.
    pub dir: PathBuf,
    /// Where reports and traces go.
    out_dir: PathBuf,
    fig4_text: String,
}

impl Ctx {
    /// The committed fig4 spec, parsed afresh.
    pub fn fig4(&self) -> Result<ExperimentSpec, String> {
        ExperimentSpec::from_json(&self.fig4_text)
    }

    /// Writes the run's spans to the output directory.
    pub fn write_trace(&self, tr: &Trace) -> Result<(), String> {
        let path = self
            .out_dir
            .join(format!("trace-{}-s{}.json", self.workload, self.seed));
        std::fs::write(&path, tr.to_json()).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

fn parse_args(root: &Path) -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{} takes a number, got `{value}`", args[i]))
        };
        match args[i].as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!(
                    "unknown workload `{value}` (one of {})",
                    WORKLOADS.join(", ")
                ))
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec_path = root.join("specs/fig4.json");
    let fig4_text = std::fs::read_to_string(&spec_path)
        .map_err(|e| format!("cannot read {}: {e}", spec_path.display()))?;
    let out_dir = root.join(".perfbench");
    let dir = out_dir.join(format!("run-{workload}-s{seed}-{}", std::process::id()));
    let threads = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2);
    Ok(Ctx {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        threads,
        dir,
        out_dir,
        fig4_text,
    })
}

fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    std::fs::create_dir_all(&ctx.dir)
        .map_err(|e| format!("creating {}: {e}", ctx.dir.display()))?;
    match ctx.workload.as_str() {
        "sim_fig4" => sweeps::run(ctx, sweeps::Kind::SimFig4, out),
        "ff_short" => sweeps::run(ctx, sweeps::Kind::FfShort, out),
        "dispatch_workers" => sweeps::run(ctx, sweeps::Kind::DispatchWorkers, out),
        _ => service::run(ctx, out),
    }?;
    out.metric("peak_rss_mb", report::peak_rss_mb(), "MiB");
    out.select(if ctx.trace { PER_LAYER } else { END_TO_END })
}

fn main() {
    // A dispatched worker process runs this same binary.
    rix_bench::dispatch::maybe_worker();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."));
    let ctx = match parse_args(root) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload NAME --seed N --seconds N --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    for (k, v) in report::provenance(root, ctx.seed) {
        out.note(&k, v);
    }
    out.note("workload", &ctx.workload);
    out.note("threads", ctx.threads);
    let result = run(&ctx, &mut out);
    let _ = std::fs::remove_dir_all(&ctx.dir);
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    let report = ctx.out_dir.join(format!(
        "report-{}-s{}-t{}.json",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    ));
    if let Err(e) = std::fs::write(&report, out.report_json()) {
        eprintln!("perfbench: writing {}: {e}", report.display());
        std::process::exit(1);
    }
    for (k, v) in &out.notes {
        eprintln!("perfbench: {k}: {v}");
    }
    println!("{}", out.result_line());
}
