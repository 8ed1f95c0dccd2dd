//! The traced path: a spec driven cell by cell through the layers'
//! public calls, with a span around each call, plus the checks and
//! layer probes run on what it produced.
//!
//! [`replay`] does what `Sweep::try_run` does for the spec shapes the
//! benchmark uses (cold or functionally warmed cells, budget-measured),
//! so its results must equal the untraced run's bit for bit.
//! [`probe`] then runs, per cell, the arch-state oracle
//! (`Interp::fast_forward` to the cell's retired position, as
//! `tests/arch_equivalence.rs` does), the result codec round trip and a
//! trial-cache store/load round trip.

use crate::report::{median, percentile, Outcome};
use crate::trace::Trace;
use rix_bench::{ExperimentSpec, Harness, Trial, WarmupMode};
use rix_dispatch::ResultCache;
use rix_isa::interp::Interp;
use rix_isa::json::Json;
use rix_isa::{ArchState, Program};
use rix_sim::checkpoint::{result_from_json, result_to_json};
use rix_sim::{RunResult, Simulator, StopWhen};
use std::path::Path;
use std::time::{Duration, Instant};

/// One cell the replay ran.
pub struct Cell {
    pub bench: &'static str,
    pub label: String,
    pub row: usize,
    pub stack_top: u64,
    pub result: RunResult,
    /// The architectural state the simulator retired into.
    pub arch: ArchState,
}

/// What a replay produced.
pub struct Replay {
    /// Each row's benchmark name and program.
    pub rows: Vec<(&'static str, Program)>,
    /// Each row's functional warm-up state, when the spec has one.
    pub warm: Vec<Option<ArchState>>,
    pub cells: Vec<Cell>,
    /// The pass's wall time (validation, row preparation and cells; the
    /// arch-state capture for the oracle is excluded).
    pub wall: Duration,
}

impl Replay {
    /// The cells as sweep trials (wall clock zero), for comparing with
    /// `Sweep` output and result documents.
    pub fn trials(&self) -> Vec<Trial> {
        self.cells
            .iter()
            .map(|c| Trial {
                bench: c.bench,
                config_label: c.label.clone(),
                result: c.result.clone(),
                wall: Duration::ZERO,
            })
            .collect()
    }
}

/// Runs every cell of `spec` through `Benchmark::build`,
/// `Interp::fast_forward`, `Simulator::new`/`from_arch_state` and
/// `Simulator::run_until`, with spans under one `bench.pass` span.
pub fn replay(spec: &ExperimentSpec, tr: &mut Trace, pass: &str) -> Result<Replay, String> {
    let functional = spec.warmup > 0 && spec.warmup_mode == WarmupMode::Functional;
    if spec.stop.is_some() || (spec.warmup > 0 && !functional) {
        return Err("replay supports budget-measured cold or functionally warmed cells".into());
    }
    let start = Instant::now();
    let mut capture = Duration::ZERO;
    let root = tr.open("bench.pass", None, pass);
    let v = tr.open("bench.validate", Some(root), pass);
    spec.sweep(&Harness::default()).validate()?;
    let arms = spec.arms()?;
    tr.close(v);
    let exec = tr.open("bench.execute", Some(root), pass);
    let mut out = Replay {
        rows: Vec::new(),
        warm: Vec::new(),
        cells: Vec::new(),
        wall: Duration::ZERO,
    };
    for (row, bench) in spec.benchmarks.iter().enumerate() {
        let prep = tr.open("bench.row_prep", Some(exec), bench.name);
        let b = tr.open("workloads.build", Some(prep), bench.name);
        let program = bench.build(spec.seed);
        tr.close(b);
        let warm = functional.then(|| {
            let f = tr.open("isa.fast_forward", Some(prep), bench.name);
            let state = Interp::new(&program, arms[0].1.stack_top).fast_forward(spec.warmup);
            tr.close_with(f, state.retired);
            state
        });
        tr.close(prep);
        for (label, cfg) in &arms {
            let id = format!("{}/{label}", bench.name);
            let cell = tr.open("bench.cell", Some(exec), &id);
            let boot = tr.open("sim.boot", Some(cell), &id);
            let mut sim = match &warm {
                Some(state) => Simulator::from_arch_state(&program, *cfg, state),
                None => Simulator::new(&program, *cfg),
            };
            tr.close(boot);
            let run = tr.open("sim.run", Some(cell), &id);
            sim.run_until(&StopWhen::budget(spec.instructions));
            let mut result = sim.result();
            tr.close_with(run, result.stats.retired);
            tr.close(cell);
            // As `Simulator::run_budget`: timed out means the budget was
            // not met.
            result.timed_out = !result.halted && result.stats.retired < spec.instructions;
            let t = Instant::now();
            let arch = sim.arch_state();
            capture += t.elapsed();
            out.cells.push(Cell {
                bench: bench.name,
                label: label.clone(),
                row,
                stack_top: cfg.stack_top,
                result,
                arch,
            });
        }
        out.rows.push((bench.name, program));
        out.warm.push(warm);
    }
    tr.close(exec);
    tr.close(root);
    out.wall = start.elapsed().saturating_sub(capture);
    Ok(out)
}

/// Per-cell checks and layer probes on a finished replay: lint each
/// program, replay each cell on the interpreter and compare arch states,
/// round-trip each result through its JSON codec and through a trial
/// cache under `cache_dir`.
pub fn probe(
    r: &Replay,
    tr: &mut Trace,
    cache_dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    for (bench, program) in &r.rows {
        let l = tr.open("analysis.lint", None, bench);
        let findings = rix_analysis::lint_program(program);
        tr.close(l);
        out.check(findings.is_empty(), || {
            format!("{bench}: {} lint findings", findings.len())
        });
    }
    let cache = ResultCache::open(cache_dir)?;
    for c in &r.cells {
        let id = format!("{}/{}", c.bench, c.label);
        let program = &r.rows[c.row].1;
        let check = tr.open("check.oracle", None, &id);
        let (mut interp, from) = match &r.warm[c.row] {
            Some(state) => (
                Interp::from_arch_state(program, state.clone()),
                state.retired,
            ),
            None => (Interp::new(program, c.stack_top), 0),
        };
        let f = tr.open("isa.fast_forward", Some(check), &id);
        let n = c.arch.retired - from;
        let expect = interp.fast_forward(n);
        tr.close_with(f, n);
        tr.close(check);
        out.check(expect == c.arch, || {
            format!("{id}: simulator arch state differs from interpreter")
        });

        let e = tr.open("sim.result_encode", None, &id);
        let text = result_to_json(&c.result);
        tr.close(e);
        let p = tr.open("isa.json_parse", None, &id);
        let v = Json::parse(&text)?;
        tr.close(p);
        let d = tr.open("sim.result_decode", None, &id);
        let back = result_from_json(&v)?;
        tr.close(d);
        out.check(back == c.result, || {
            format!("{id}: result JSON round trip changed it")
        });

        let key = ResultCache::key(&format!("perfbench/{id}/{}", r.cells.len()));
        let entry = Json::Obj(vec![("result".into(), v)]);
        let s = tr.open("dispatch.cache_store", None, &id);
        cache.store(&key, &entry)?;
        tr.close(s);
        let l = tr.open("dispatch.cache_load", None, &id);
        let loaded = cache.load(&key);
        tr.close(l);
        out.check(loaded.as_ref() == Some(&entry), || {
            format!("{id}: cache round trip changed it")
        });
    }
    Ok(())
}

/// Compares trials cell by cell (benchmark, arm, full result).
pub fn compare(reference: &[Trial], got: &[Trial], what: &str, out: &mut Outcome) {
    out.check(reference.len() == got.len(), || {
        format!("{what}: {} cells, expected {}", got.len(), reference.len())
    });
    for (a, b) in reference.iter().zip(got) {
        out.check(
            a.bench == b.bench && a.config_label == b.config_label && a.result == b.result,
            || {
                format!(
                    "{what}: {}/{} differs from the reference",
                    b.bench, b.config_label
                )
            },
        );
    }
}

/// Per-layer metrics read from the spans of the replays and probes.
pub fn span_metrics(tr: &Trace, out: &mut Outcome) {
    out.metric(
        "sim.ns_per_instr",
        tr.summary("sim.run").ns_per_work(),
        "ns",
    );
    let ff = tr.summary("isa.fast_forward").ns_per_work();
    out.metric("isa.ff_ns_per_instr", ff, "ns");
    // Mean self time per call.
    for (metric, span, scale, unit) in [
        ("sim.boot_us", "sim.boot", 1e6, "us"),
        ("workloads.build_ms", "workloads.build", 1e3, "ms"),
        ("analysis.lint_ms", "analysis.lint", 1e3, "ms"),
        ("dispatch.cache_load_us", "dispatch.cache_load", 1e6, "us"),
        ("dispatch.cache_store_us", "dispatch.cache_store", 1e6, "us"),
        ("sim.result_encode_us", "sim.result_encode", 1e6, "us"),
        ("sim.result_decode_us", "sim.result_decode", 1e6, "us"),
        ("isa.json_parse_us", "isa.json_parse", 1e6, "us"),
    ] {
        out.metric(metric, tr.summary(span).mean(scale), unit);
    }
    let prep = tr.summary("bench.row_prep").mean_duration(1e3);
    out.metric("bench.row_prep_ms", prep, "ms");
    let passes = tr.summary("bench.pass").count.max(1);
    let builds = tr.summary("workloads.build").count as f64 / passes as f64;
    out.metric("workloads.builds", builds, "count");
}

/// `sim.ns_per_cycle` needs the cycles the spans' cells simulated.
pub fn ns_per_cycle(tr: &Trace, cycles: u64) -> f64 {
    let run = tr.summary("sim.run");
    if cycles == 0 {
        0.0
    } else {
        run.self_s * 1e9 / cycles as f64
    }
}

/// Per-cell host latency percentiles (`Trial::wall`), ms.
pub fn cell_percentiles(cell_ms: &[f64], out: &mut Outcome) {
    out.metric("bench.cell_p50_ms", median(cell_ms), "ms");
    out.metric("bench.cell_p90_ms", percentile(cell_ms, 90.0), "ms");
}

/// The modelled counts over a set of cell results: simulated, so they
/// repeat exactly for a seed.
pub fn modelled(results: &[&RunResult], out: &mut Outcome) {
    let sum = |f: &dyn Fn(&RunResult) -> u64| results.iter().map(|r| f(r)).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let retired = sum(&|r| r.stats.retired);
    out.metric(
        "sim.ipc",
        ratio(retired, sum(&|r| r.stats.cycles)),
        "instr/cycle",
    );
    out.metric(
        "sim.fetched_per_retired",
        ratio(sum(&|r| r.stats.fetched), retired),
        "ratio",
    );
    let squashes =
        sum(&|r| r.stats.squashes_branch + r.stats.squashes_memorder + r.stats.squashes_diva);
    out.metric(
        "sim.squashes_pki",
        ratio(squashes * 1e3, retired),
        "1/kinstr",
    );
    let int_retired = sum(&|r| r.stats.integration.retired);
    out.metric(
        "integration.rate",
        ratio(sum(&|r| r.stats.integration.integrations()), int_retired),
        "ratio",
    );
    out.metric(
        "integration.mis_per_million",
        ratio(
            sum(&|r| r.stats.integration.mis_integrations) * 1e6,
            int_retired,
        ),
        "1/Minstr",
    );
    out.metric(
        "integration.suppressed_pki",
        ratio(sum(&|r| r.stats.integration.suppressed) * 1e3, int_retired),
        "1/kinstr",
    );
    out.metric(
        "frontend.mispredict_rate",
        ratio(
            sum(&|r| r.stats.branch_mispredicts),
            sum(&|r| r.stats.cond_branches_retired),
        ),
        "ratio",
    );
    let miss = |c: fn(&RunResult) -> rix_mem::CacheStats| {
        let m = sum(&|r| c(r).misses);
        ratio(m, m + sum(&|r| c(r).hits))
    };
    out.metric("mem.l1d_miss_rate", miss(|r| r.stats.mem.l1d), "ratio");
    out.metric("mem.l2_miss_rate", miss(|r| r.stats.mem.l2), "ratio");
}
