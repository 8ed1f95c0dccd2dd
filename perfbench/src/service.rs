//! `service_mixed`: an in-process `rix_serve::Server` over `ExpEngine`
//! on loopback, driven by one closed-loop client through
//! `rix_serve::client::request`.
//!
//! One pass is [`WARM_PER_PASS`] warm submissions with one cold
//! submission in the middle. A warm submission is the prefilled fig4
//! grid under a new name: a new fingerprint whose cells are all trial
//! cache hits. A cold submission is a reduced-budget fig4 at a fresh
//! seed, so every cell is simulated and stored. The client polls run
//! status every [`POLL`], so the poll interval, not a CLI sleep, bounds
//! what the client adds to a request.

use crate::layers;
use crate::report::{cpu_seconds, median, percentile, Outcome};
use crate::trace::Trace;
use crate::Ctx;
use rix_bench::service::ExpEngine;
use rix_bench::{trials_json, ExperimentSpec};
use rix_isa::json::Json;
use rix_serve::client::request;
use rix_serve::{Engine, Progress, RunOutput, Server, ServerConfig, ServerHandle, SpecInfo};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Retired instructions per cell of the warm (prefilled) grid. Hits cost
/// the same at any budget; a small one keeps the prefill in set-up short.
const WARM_INSTRUCTIONS: u64 = 10_000;
/// Retired instructions per cell of a cold submission.
const COLD_INSTRUCTIONS: u64 = 3_000;
/// Warm submissions per pass; the cold one runs after half of them.
const WARM_PER_PASS: usize = 10;
/// Warm samples needed so that ten lie beyond the 90th percentile.
const MIN_WARM: usize = 100;
/// Set-up repetitions (bind, data directory, prefill).
const SETUPS: usize = 3;
/// The client's status-poll interval.
const POLL: Duration = Duration::from_millis(2);
/// A request that takes longer than this has failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(120);

/// What the engine wrapper saw of one request: when validation and
/// execution ran, and the process CPU time execution used.
#[derive(Clone, Copy)]
struct EngineEvent {
    validate: (Instant, Instant),
    execute: Option<(Instant, Instant, f64)>,
}

/// Wraps `ExpEngine` through the public `Engine` trait and, while
/// recording is on, times each validation and execution.
struct TracedEngine {
    inner: ExpEngine,
    on: Arc<AtomicBool>,
    events: Arc<Mutex<Vec<EngineEvent>>>,
}

impl Engine for TracedEngine {
    fn validate(&self, spec_text: &str) -> Result<SpecInfo, String> {
        let start = Instant::now();
        let info = self.inner.validate(spec_text);
        if self.on.load(Ordering::SeqCst) {
            let ev = EngineEvent {
                validate: (start, Instant::now()),
                execute: None,
            };
            self.events
                .lock()
                .expect("event log never poisoned")
                .push(ev);
        }
        info
    }

    fn execute(
        &self,
        spec_text: &str,
        cache_dir: &str,
        progress: &mut dyn FnMut(Progress),
    ) -> Result<RunOutput, String> {
        let (start, cpu) = (Instant::now(), cpu_seconds());
        let out = self.inner.execute(spec_text, cache_dir, progress);
        if self.on.load(Ordering::SeqCst) {
            let ev = (start, Instant::now(), cpu_seconds() - cpu);
            let mut events = self.events.lock().expect("event log never poisoned");
            // One client, one executor: the execution belongs to the last
            // validated request.
            if let Some(last) = events.last_mut() {
                last.execute = Some(ev);
            }
        }
        out
    }
}

/// A running server with its recorder.
struct Service {
    handle: ServerHandle,
    addr: String,
    dir: PathBuf,
    on: Arc<AtomicBool>,
    events: Arc<Mutex<Vec<EngineEvent>>>,
}

impl Service {
    /// Creates `dir` afresh and serves it on a loopback port.
    fn start(dir: &Path, threads: usize) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let on = Arc::new(AtomicBool::new(false));
        let events = Arc::new(Mutex::new(Vec::new()));
        let engine = TracedEngine {
            inner: ExpEngine {
                threads,
                ..ExpEngine::default()
            },
            on: Arc::clone(&on),
            events: Arc::clone(&events),
        };
        let cfg = ServerConfig {
            data_dir: dir.display().to_string(),
            executors: 1,
            ..ServerConfig::default()
        };
        let handle = Server::bind("127.0.0.1:0", cfg, Box::new(engine))?.spawn();
        let addr = handle.addr().to_string();
        Ok(Self {
            handle,
            addr,
            dir: dir.to_path_buf(),
            on,
            events,
        })
    }

    /// Stops the server, joins its threads and deletes its data.
    fn stop(self) {
        self.handle.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// Turns engine recording on or off (between requests).
    fn record(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    fn take_events(&self) -> Vec<EngineEvent> {
        std::mem::take(&mut *self.events.lock().expect("event log never poisoned"))
    }

    /// Submits `spec_text` and waits for its result document: POST,
    /// status polls every [`POLL`], then GET of the result.
    fn submit(&self, spec_text: &str) -> Result<Sample, String> {
        let start = Instant::now();
        let (status, body) = request(&self.addr, "POST", "/v1/runs", None, Some(spec_text))?;
        let submit = start.elapsed();
        if status != 201 {
            return Err(format!("submit answered {status}: {body}"));
        }
        let id = Json::parse(&body)?
            .get("id")
            .and_then(Json::as_str)
            .ok_or("submit reply has no id")?
            .to_string();
        let mut polls = 0u32;
        let status = loop {
            std::thread::sleep(POLL);
            polls += 1;
            let (code, body) = request(&self.addr, "GET", &format!("/v1/runs/{id}"), None, None)?;
            let v = Json::parse(&body)?;
            match v.get("state").and_then(Json::as_str) {
                _ if code != 200 => return Err(format!("status answered {code}: {body}")),
                Some("done") => break v,
                Some("failed") => return Err(format!("run {id} failed: {body}")),
                _ if start.elapsed() > REQUEST_TIMEOUT => {
                    return Err(format!("run {id} timed out"))
                }
                _ => {}
            }
        };
        let t = Instant::now();
        let (code, doc) = request(
            &self.addr,
            "GET",
            &format!("/v1/runs/{id}/result"),
            None,
            None,
        )?;
        let result = t.elapsed();
        if code != 200 {
            return Err(format!("result answered {code}: {doc}"));
        }
        Ok(Sample {
            start,
            latency: start.elapsed(),
            submit,
            result,
            polls,
            doc,
            status,
        })
    }
}

/// One request as the client saw it.
struct Sample {
    start: Instant,
    latency: Duration,
    submit: Duration,
    result: Duration,
    polls: u32,
    doc: String,
    /// The final status reply (carries the dispatch report).
    status: Json,
}

impl Sample {
    /// The result document's trial array, text as served, after checking
    /// the schema and the cell count. `result_doc` writes the array last.
    fn trials_text(&self, cells: usize) -> Result<&str, String> {
        if !self.doc.starts_with("{\n  \"schema\":\"rix-exp-result/1\"") {
            return Err("result document is not rix-exp-result/1".into());
        }
        let at = self
            .doc
            .rfind("\"trials\":")
            .ok_or("result document has no trials")?;
        let trials = self.doc[at + 9..]
            .trim_end()
            .strip_suffix('}')
            .unwrap_or_default()
            .trim();
        let n = trials.matches("{\"bench\":").count();
        if n == cells {
            Ok(trials)
        } else {
            Err(format!("result document has {n} trials, expected {cells}"))
        }
    }

    /// The whole document parsed: its trial array, after the same checks.
    fn trials(&self, cells: usize) -> Result<Json, String> {
        self.trials_text(cells)?;
        let v = Json::parse(&self.doc)?;
        let trials = v
            .get("trials")
            .cloned()
            .ok_or("result document has no trials")?;
        let n = trials.as_arr().map_or(0, <[Json]>::len);
        if v.get("schema").and_then(Json::as_str) == Some("rix-exp-result/1") && n == cells {
            Ok(trials)
        } else {
            Err(format!(
                "result document does not parse as rix-exp-result/1 with {cells} trials"
            ))
        }
    }

    fn dispatch_u64(&self, key: &str) -> u64 {
        self.status
            .get("dispatch")
            .and_then(|d| d.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    }
}

/// A request: the client's sample with, when recorded, the engine's
/// view of it.
struct Traced {
    cold: bool,
    sample: Sample,
    /// Σ retired instructions over a cold request's cells.
    retired: u64,
    event: Option<EngineEvent>,
}

/// Pairs requests with the engine events recorded for them (none when
/// recording was off). One client and one executor run requests in
/// order, so the `i`th event belongs to the `i`th request.
fn pair(
    samples: Vec<(bool, Sample, u64)>,
    events: Vec<EngineEvent>,
) -> Result<Vec<Traced>, String> {
    if !events.is_empty()
        && (events.len() != samples.len() || events.iter().any(|e| e.execute.is_none()))
    {
        return Err("engine events do not pair with requests".into());
    }
    let mut events = events.into_iter();
    Ok(samples
        .into_iter()
        .map(|(cold, sample, retired)| Traced {
            cold,
            sample,
            retired,
            event: events.next(),
        })
        .collect())
}

/// fig4 from `ctx` at `seed` and `instructions`, named `name`, as
/// canonical spec text.
fn spec_text(ctx: &Ctx, name: &str, seed: u64, instructions: u64) -> Result<String, String> {
    let mut spec = ctx.fig4()?;
    spec.name = Some(name.to_string());
    spec.seed = seed;
    spec.instructions = instructions;
    Ok(spec.to_json())
}

/// The seed of the `k`th cold submission of a run: fresh for every
/// submission, a function of the run's seed only.
fn cold_seed(seed: u64, k: usize) -> u64 {
    1_000_000 + seed * 10_000 + k as u64
}

/// Runs `service_mixed`.
pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let threads = ctx.threads;
    let warm_spec =
        |k: &str| spec_text(ctx, &format!("fig4-warm-{k}"), ctx.seed, WARM_INSTRUCTIONS);
    let cold_spec = |k: usize| {
        spec_text(
            ctx,
            &format!("fig4-cold-{k}"),
            cold_seed(ctx.seed, k),
            COLD_INSTRUCTIONS,
        )
    };
    let cells = ctx.fig4()?.benchmarks.len() * ctx.fig4()?.arms()?.len();

    // Set-up: data directory, bind, prefill of the warm cells. Repeated;
    // the last one stays up.
    let mut setups = Vec::new();
    let mut service = None;
    let mut prefill = None;
    for i in 0..SETUPS {
        if let Some(s) = service.take() {
            Service::stop(s);
        }
        let t = Instant::now();
        let s = Service::start(&ctx.dir.join("serve"), threads)?;
        prefill = Some(s.submit(&warm_spec(&format!("prefill{i}"))?)?);
        setups.push(t.elapsed().as_secs_f64());
        service = Some(s);
    }
    let (service, prefill) = service.zip(prefill).ok_or("no set-up ran")?;
    // Warm documents are checked by their trial text against the
    // prefill's, which is parsed in full once.
    prefill.trials(cells)?;
    let reference = prefill.trials_text(cells)?;
    out.metric("setup_s", median(&setups), "s");

    let (mut colds, mut rejected) = (0usize, 0u64);
    // A pass's wall time is the sum of its request latencies: the
    // client's checks between requests are not the service's time.
    let mut pass =
        |tag: &str, record: bool, out: &mut Outcome| -> Result<(f64, Vec<Traced>), String> {
            service.record(record);
            let mut samples = Vec::new();
            let mut wall = 0.0;
            for k in 0..=WARM_PER_PASS {
                let cold = k == WARM_PER_PASS / 2;
                let text = if cold {
                    colds += 1;
                    cold_spec(colds)?
                } else {
                    warm_spec(&format!("{tag}-{k}"))?
                };
                let sample = service.submit(&text);
                out.check(sample.is_ok(), || {
                    format!(
                        "{tag}/{k}: {}",
                        sample.as_ref().err().map_or("", String::as_str)
                    )
                });
                let Ok(sample) = sample else {
                    rejected += 1;
                    continue;
                };
                wall += sample.latency.as_secs_f64();
                let mut retired = 0;
                if cold {
                    let trials = sample.trials(cells);
                    out.check(trials.as_ref().is_ok_and(cold_ok), || {
                        format!("{tag}/{k}: bad cold result")
                    });
                    retired = trials.as_ref().map_or(0, sum_retired);
                } else {
                    let trials = sample.trials_text(cells);
                    out.check(trials == Ok(reference), || {
                        format!("{tag}/{k}: warm trials differ from the prefill's")
                    });
                }
                samples.push((cold, sample, retired));
            }
            Ok((wall, pair(samples, service.take_events())?))
        };

    pass("untimed", false, out)?;
    let deadline = Instant::now() + ctx.seconds;
    let (mut walls, mut warm_ms, mut cold_ms, mut cold_retired) = (vec![], vec![], vec![], vec![]);
    let mut traced_walls = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let mut n = 0;
    loop {
        n += 1;
        let round = Instant::now();
        let (wall, samples) = pass(&format!("p{n}"), false, out)?;
        walls.push(wall);
        for t in &samples {
            let ms = t.sample.latency.as_secs_f64() * 1e3;
            if t.cold {
                cold_ms.push(ms);
                cold_retired.push(t.retired as f64);
            } else {
                warm_ms.push(ms);
            }
        }
        if ctx.trace {
            let (wall, samples) = pass(&format!("t{n}"), true, out)?;
            traced_walls.push(wall);
            traced.extend(samples);
        }
        // Another round only if it fits before the deadline; an untraced
        // run first collects the warm samples p90 needs.
        let enough = ctx.trace || warm_ms.len() >= MIN_WARM;
        if enough && Instant::now() + round.elapsed() > deadline {
            break;
        }
    }

    let wall_s = median(&walls);
    out.metric("wall_s", wall_s, "s");
    out.metric(
        "cells_per_s",
        ((WARM_PER_PASS + 1) * cells) as f64 / wall_s,
        "1/s",
    );
    out.metric("sim_kips", median(&cold_retired) / 1e3 / wall_s, "kinstr/s");
    out.metric("warm_p50_ms", median(&warm_ms), "ms");
    out.metric("warm_p90_ms", percentile(&warm_ms, 90.0), "ms");
    out.metric("cold_p50_ms", median(&cold_ms), "ms");
    out.note("loop", "closed, 1 client");
    out.note("connections", "1 at a time (one request per connection)");
    out.note("engine_threads", threads);
    out.note("executors", 1);
    out.note("warm_samples", warm_ms.len());
    out.note("cold_samples", cold_ms.len());
    out.note("cold_instructions", COLD_INSTRUCTIONS);

    if ctx.trace {
        let mut tr = Trace::new();
        serve_metrics(&traced, rejected, &mut tr, threads, cells, out);
        out.metric(
            "trace.overhead_pct",
            (median(&traced_walls) / wall_s - 1.0) * 100.0,
            "%",
        );
        // The layers under the engine, on the last cold submission's
        // inputs: replayed through the public calls, compared with the
        // document the service returned, then probed.
        let last = traced
            .iter()
            .rev()
            .find(|t| t.cold)
            .ok_or("no traced cold request")?;
        let spec = ExperimentSpec::from_json(&cold_spec(colds)?)?;
        let replay = layers::replay(&spec, &mut tr, "replay")?;
        let doc_trials = last.sample.trials(cells)?;
        let ours = Json::parse(&trials_json(&replay.trials()))?;
        out.check(ours == doc_trials, || {
            "traced replay differs from the service's cold result".into()
        });
        layers::probe(&replay, &mut tr, &ctx.dir.join("probe-cache"), out)?;
        layers::span_metrics(&tr, out);
        let results: Vec<_> = replay.cells.iter().map(|c| &c.result).collect();
        let cycles = results.iter().map(|r| r.stats.cycles).sum();
        out.metric("sim.ns_per_cycle", layers::ns_per_cycle(&tr, cycles), "ns");
        layers::modelled(&results, out);
        let cell_ms: Vec<f64> = tr
            .summary("bench.cell")
            .durations
            .iter()
            .map(|s| s * 1e3)
            .collect();
        layers::cell_percentiles(&cell_ms, out);
        ctx.write_trace(&tr)?;
    }
    service.stop();
    Ok(())
}

/// Every cold cell met its budget without timing out.
fn cold_ok(trials: &Json) -> bool {
    trials.as_arr().is_some_and(|ts| {
        ts.iter().all(|t| {
            let r = t.get("result");
            let retired = r
                .and_then(|r| r.get("stats"))
                .and_then(|s| s.get("retired"))
                .and_then(Json::as_u64);
            let timed_out = r.and_then(|r| r.get("timed_out")).and_then(Json::as_bool);
            timed_out == Some(false) && retired.is_some_and(|n| n >= COLD_INSTRUCTIONS)
        })
    })
}

/// Σ retired instructions over a trial array.
fn sum_retired(trials: &Json) -> u64 {
    trials
        .as_arr()
        .unwrap_or_default()
        .iter()
        .filter_map(|t| t.get("result")?.get("stats")?.get("retired")?.as_u64())
        .sum()
}

/// The service-layer metrics of traced requests, with their spans.
fn serve_metrics(
    reqs: &[Traced],
    rejected: u64,
    tr: &mut Trace,
    threads: usize,
    cells: usize,
    out: &mut Outcome,
) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let (mut submit, mut result, mut wait, mut overhead, mut validate) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut cold_exec, mut cold_wall, mut cold_cpu) = (vec![], 0.0, 0.0);
    let (mut polls, mut hits, mut total, mut retries, mut lost) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for (i, r) in reqs.iter().enumerate() {
        let id = format!("{}{i}", if r.cold { "cold" } else { "warm" });
        let Some(EngineEvent {
            validate: (v0, v1),
            execute: Some((e0, e1, cpu)),
        }) = r.event
        else {
            continue;
        };
        let start = r.sample.start;
        let root = tr.record("serve.request", None, &id, start, start + r.sample.latency);
        tr.record(
            "serve.submit",
            Some(root),
            &id,
            start,
            start + r.sample.submit,
        );
        tr.record("bench.validate", Some(root), &id, v0, v1);
        tr.record("serve.queue_wait", Some(root), &id, v1, e0);
        tr.record("bench.execute", Some(root), &id, e0, e1);
        submit.push(ms(r.sample.submit));
        result.push(ms(r.sample.result));
        wait.push(ms(e0.saturating_duration_since(v1)));
        validate.push(ms(v1 - v0));
        polls += u64::from(r.sample.polls);
        hits += r.sample.dispatch_u64("cache_hits");
        total += r.sample.dispatch_u64("cells");
        retries += r.sample.dispatch_u64("retries");
        lost += r.sample.dispatch_u64("workers_lost");
        if r.cold {
            cold_exec.push(ms(e1 - e0));
            cold_wall += (e1 - e0).as_secs_f64();
            cold_cpu += cpu;
        } else {
            overhead.push(ms(r.sample.latency.saturating_sub(e1 - e0)));
        }
    }
    let n = reqs.len().max(1) as f64;
    out.metric("serve.submit_ms", median(&submit), "ms");
    out.metric("serve.queue_wait_ms", median(&wait), "ms");
    out.metric("serve.result_ms", median(&result), "ms");
    out.metric("serve.overhead_ms", median(&overhead), "ms");
    out.metric("serve.polls_per_run", polls as f64 / n, "count");
    out.metric("serve.rejected", rejected as f64, "count");
    out.metric("bench.validate_ms", median(&validate), "ms");
    out.metric("bench.execute_ms", median(&cold_exec), "ms");
    // Busy time from outside: the process CPU time the cold executions
    // used, against the thread time they had.
    let capacity = cold_wall * threads as f64;
    out.metric(
        "bench.parallel_efficiency",
        if capacity > 0.0 {
            cold_cpu / capacity
        } else {
            0.0
        },
        "ratio",
    );
    let cold_cells = (cold_exec.len() * cells).max(1) as f64;
    out.metric(
        "dispatch.overhead_ms_per_cell",
        (capacity - cold_cpu) * 1e3 / cold_cells,
        "ms",
    );
    out.metric(
        "dispatch.cache_hit_ratio",
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        },
        "ratio",
    );
    out.metric("dispatch.retries", retries as f64, "count");
    out.metric("dispatch.workers_lost", lost as f64, "count");
}

/// The service layer measured on a small slice of a sweep workload's
/// spec (two benchmarks, budget capped at 2000 instructions): one cold
/// submission, then twelve warm renames of it. Gives the `serve.*`
/// metrics on workloads that do not go through the service.
pub fn probe(ctx: &Ctx, spec: &ExperimentSpec, out: &mut Outcome) -> Result<(), String> {
    let mut spec = spec.clone();
    spec.benchmarks.truncate(2);
    spec.instructions = spec.instructions.min(2_000);
    let cells = spec.benchmarks.len() * spec.arms()?.len();
    let service = Service::start(&ctx.dir.join("probe-serve"), ctx.threads)?;
    service.record(true);
    let (mut samples, mut rejected) = (Vec::new(), 0);
    for k in 0..13 {
        spec.name = Some(format!("probe-{k}"));
        let sample = service.submit(&spec.to_json());
        out.check(
            sample.as_ref().is_ok_and(|s| s.trials(cells).is_ok()),
            || format!("service probe request {k}"),
        );
        match sample {
            Ok(sample) => samples.push((k == 0, sample, 0)),
            Err(_) => rejected += 1,
        }
    }
    let events = service.take_events();
    service.stop();
    let mut probe_out = Outcome::default();
    serve_metrics(
        &pair(samples, events)?,
        rejected,
        &mut Trace::new(),
        ctx.threads,
        cells,
        &mut probe_out,
    );
    for name in crate::PER_LAYER.iter().filter(|n| n.starts_with("serve.")) {
        if let Some((v, unit)) = probe_out.get(name) {
            out.metric(name, v, unit);
        }
    }
    Ok(())
}
