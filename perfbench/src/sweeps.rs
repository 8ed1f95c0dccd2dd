//! The three sweep workloads: `sim_fig4` and `ff_short` through
//! `Sweep::try_run` on one thread, `dispatch_workers` through
//! `Sweep::run_distributed` with one stdio worker process per core the
//! coordinator leaves free (one on a two-core host) and no cache.

use crate::layers::{self, Replay};
use crate::report::{median, percentile, Outcome};
use crate::service;
use crate::trace::Trace;
use crate::Ctx;
use rix_bench::{DispatchOptions, DispatchReport, ExperimentSpec, Harness, Trial, WarmupMode};
use std::time::Instant;

/// `ff_short`'s functional warm-up per benchmark row.
const FF_WARMUP: u64 = 2_000_000;
/// `ff_short`'s measured interval per cell.
const FF_INSTRUCTIONS: u64 = 2_000;
/// `dispatch_workers`' measured interval per cell.
const DISPATCH_INSTRUCTIONS: u64 = 20_000;
/// Set-up repetitions (spec parse, sweep validation, program build and
/// lint).
const SETUPS: usize = 15;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SimFig4,
    FfShort,
    DispatchWorkers,
}

/// The workload's spec: fig4 at the run's seed, with the workload's
/// budgets.
fn spec(ctx: &Ctx, kind: Kind) -> Result<ExperimentSpec, String> {
    let mut spec = ctx.fig4()?;
    spec.seed = ctx.seed;
    match kind {
        Kind::SimFig4 => {}
        Kind::FfShort => {
            spec.warmup = FF_WARMUP;
            spec.warmup_mode = WarmupMode::Functional;
            spec.instructions = FF_INSTRUCTIONS;
        }
        Kind::DispatchWorkers => spec.instructions = DISPATCH_INSTRUCTIONS,
    }
    Ok(spec)
}

/// Set-up: parse and validate the spec, build and lint every program.
fn setup(ctx: &Ctx, kind: Kind) -> Result<ExperimentSpec, String> {
    let spec = spec(ctx, kind)?;
    spec.sweep(&Harness::default()).validate()?;
    for b in &spec.benchmarks {
        let findings = rix_analysis::lint_program(&b.build(spec.seed));
        if !findings.is_empty() {
            return Err(format!(
                "{} at seed {}: {} lint findings",
                b.name,
                spec.seed,
                findings.len()
            ));
        }
    }
    Ok(spec)
}

/// Processes that simulate at once: one thread for `sim_fig4` and
/// `ff_short`; for `dispatch_workers`, one worker per core the
/// coordinator leaves free (at least one). The coordinator decodes every
/// payload while the workers simulate, so a worker per core would put
/// more busy processes than cores on the host and time the scheduler.
fn workers(ctx: &Ctx, kind: Kind) -> usize {
    if kind == Kind::DispatchWorkers {
        ctx.threads.saturating_sub(1).max(1)
    } else {
        1
    }
}

/// One untraced pass: the trials, the wall time and, for
/// `dispatch_workers`, the dispatch report. Worker spawn is inside the
/// wall time, since users pay it on every run.
fn pass(
    ctx: &Ctx,
    kind: Kind,
    spec: &ExperimentSpec,
) -> Result<(Vec<Trial>, f64, DispatchReport), String> {
    let start = Instant::now();
    let sweep = spec.sweep(&Harness::default());
    let (trials, report) = if kind == Kind::DispatchWorkers {
        let opts = DispatchOptions {
            workers: workers(ctx, kind),
            ..DispatchOptions::default()
        };
        sweep.run_distributed(&opts)?
    } else {
        let trials = sweep.try_run()?;
        (trials, DispatchReport::default())
    };
    Ok((trials, start.elapsed().as_secs_f64(), report))
}

/// Runs one sweep workload.
pub fn run(ctx: &Ctx, kind: Kind, out: &mut Outcome) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut spec = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        spec = Some(setup(ctx, kind)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let spec = spec.ok_or("no set-up ran")?;
    out.metric("setup_s", median(&setups), "s");
    let workers = workers(ctx, kind);

    let (reference, _, _) = pass(ctx, kind, &spec)?;
    for t in &reference {
        let r = &t.result;
        out.check(
            !r.timed_out && (r.halted || r.stats.retired >= spec.instructions),
            || {
                format!(
                    "{}/{}: missed its {}-instruction budget",
                    t.bench, t.config_label, spec.instructions
                )
            },
        );
    }
    let cells = reference.len() as f64;
    let retired: u64 = reference.iter().map(|t| t.result.stats.retired).sum();

    let mut tr = Trace::new();
    let (mut walls, mut traced_walls, mut cell_ms) = (vec![], vec![], vec![]);
    let (mut efficiency, mut overhead) = (vec![], vec![]);
    let (mut retries, mut lost, mut hits) = (0u64, 0usize, 0usize);
    let mut replayed: Option<Replay> = None;
    let deadline = Instant::now() + ctx.seconds;
    let mut n = 0;
    loop {
        n += 1;
        let round = Instant::now();
        let (trials, wall, report) = pass(ctx, kind, &spec)?;
        layers::compare(&reference, &trials, &format!("pass {n}"), out);
        walls.push(wall);
        cell_ms.extend(trials.iter().map(|t| t.wall.as_secs_f64() * 1e3));
        let busy: f64 = trials.iter().map(|t| t.wall.as_secs_f64()).sum();
        efficiency.push(busy / (wall * workers as f64));
        overhead.push((wall * workers as f64 - busy) * 1e3 / cells);
        retries += report.retries;
        lost += report.workers_lost;
        hits += report.cache_hits;
        if ctx.trace && kind == Kind::DispatchWorkers {
            let root = tr.open("dispatch.run_distributed", None, &format!("t{n}"));
            let (trials, wall, _) = pass(ctx, kind, &spec)?;
            tr.close(root);
            layers::compare(&reference, &trials, &format!("traced pass {n}"), out);
            traced_walls.push(wall);
        } else if ctx.trace {
            let r = layers::replay(&spec, &mut tr, &format!("t{n}"))?;
            layers::compare(&reference, &r.trials(), &format!("traced pass {n}"), out);
            traced_walls.push(r.wall.as_secs_f64());
            replayed = Some(r);
        }
        // Start another round only if it fits before the deadline, so a
        // run lasts about `--seconds` however slow the host is.
        if Instant::now() + round.elapsed() > deadline {
            break;
        }
    }

    let wall_s = median(&walls);
    out.metric("wall_s", wall_s, "s");
    out.metric("cells_per_s", cells / wall_s, "1/s");
    out.metric("sim_kips", retired as f64 / 1e3 / wall_s, "kinstr/s");
    // A cell is the unit of work once its row is prepared; a pass is
    // the whole request.
    out.metric("warm_p50_ms", median(&cell_ms), "ms");
    out.metric("warm_p90_ms", percentile(&cell_ms, 90.0), "ms");
    out.metric("cold_p50_ms", wall_s * 1e3, "ms");
    out.note("loop", "closed, 1 client (passes back to back)");
    out.note(
        "execution",
        if kind == Kind::DispatchWorkers {
            format!("{workers} stdio worker processes (self-exec), no cache")
        } else {
            "Sweep::try_run on 1 thread".to_string()
        },
    );
    out.note("pass_walls_s", format!("{walls:.4?}"));
    out.note("cells_per_pass", cells);
    out.note("instructions_per_cell", spec.instructions);
    out.note(
        "warmup",
        format!("{} ({})", spec.warmup, spec.warmup_mode.name()),
    );

    if ctx.trace {
        let r = match replayed {
            Some(r) => r,
            // dispatch_workers: the layers under the workers, driven
            // in-process over the same grid.
            None => {
                let r = layers::replay(&spec, &mut tr, "replay")?;
                layers::compare(&reference, &r.trials(), "replay", out);
                r
            }
        };
        layers::probe(&r, &mut tr, &ctx.dir.join("probe-cache"), out)?;
        layers::span_metrics(&tr, out);
        out.metric(
            "sim.ns_per_cycle",
            layers::ns_per_cycle(&tr, cycles_replayed(&tr, &r)),
            "ns",
        );
        let results: Vec<_> = reference.iter().map(|t| &t.result).collect();
        layers::modelled(&results, out);
        layers::cell_percentiles(&cell_ms, out);
        out.metric(
            "bench.validate_ms",
            tr.summary("bench.validate").mean(1e3),
            "ms",
        );
        out.metric("bench.execute_ms", wall_s * 1e3, "ms");
        out.metric("bench.parallel_efficiency", median(&efficiency), "ratio");
        out.metric("dispatch.overhead_ms_per_cell", median(&overhead), "ms");
        out.metric("dispatch.retries", retries as f64, "count");
        out.metric("dispatch.workers_lost", lost as f64, "count");
        out.metric(
            "dispatch.cache_hit_ratio",
            hits as f64 / (cells * walls.len() as f64),
            "ratio",
        );
        out.metric(
            "trace.overhead_pct",
            (median(&traced_walls) / wall_s - 1.0) * 100.0,
            "%",
        );
        service::probe(ctx, &spec, out)?;
        ctx.write_trace(&tr)?;
    }
    Ok(())
}

/// Cycles simulated under the trace's `sim.run` spans: every replay of
/// the grid simulates the same cells.
fn cycles_replayed(tr: &Trace, r: &Replay) -> u64 {
    let per_replay: u64 = r.cells.iter().map(|c| c.result.stats.cycles).sum();
    let replays = tr.summary("sim.run").count / r.cells.len().max(1);
    per_replay * replays as u64
}
