//! `exp` — the spec-driven experiment runner.
//!
//! One entry point for every experiment the repo can express as a
//! `rix-exp/1` spec file (see [`rix_bench::spec`]): the committed figure
//! specs under `specs/`, and any spec you write yourself.
//!
//! ```text
//! exp run <spec.json> [--dry-run | --list-arms] [harness flags]
//! exp serve <spec.json> --listen ADDR [harness flags]
//! exp worker [--connect ADDR [--name NAME]]
//! exp workers --status --connect ADDR [--json]
//! exp serve-api --listen ADDR --data-dir DIR [service flags]
//! exp submit <spec.json> --connect HOST:PORT [--token T] [--json]
//! exp status <id> --connect HOST:PORT [--token T] [--json]
//! exp fetch <id> --connect HOST:PORT [--wait] [--output FILE] [--token T]
//! exp runs --connect HOST:PORT [--token T] [--json]
//! exp cache stats <DIR> | exp cache gc <DIR> --older-than AGE
//! ```
//!
//! * `exp run spec.json` — run the experiment; print a long-form result
//!   table (bench × arm, IPC and counts).
//! * `exp serve spec.json --listen ADDR` — the same run, but served to
//!   remote TCP workers (`exp worker --connect ADDR` on any host that
//!   can reach the coordinator). The listener's bound address goes to
//!   stderr as `dispatch: listening on …`. Cells the network cannot
//!   finish degrade to in-process execution, so the run completes.
//! * `exp worker --connect ADDR` — a remote worker: reconnects with
//!   backoff, heartbeats, and executes cells until shut down.
//! * `exp workers --status --connect ADDR` — one-shot liveness query
//!   against a serving coordinator: per-worker state, completions,
//!   failures, reconnects.
//! * `exp serve-api --listen ADDR --data-dir DIR` — the long-lived
//!   experiment API service ([`rix_serve`]): clients POST specs,
//!   identical submissions join the in-flight or completed run, and
//!   results persist across restarts.
//! * `exp submit`/`status`/`fetch`/`runs` — the thin HTTP client of
//!   that service (`rix-serve/1` schema). `fetch` emits the stored
//!   result document byte-for-byte.
//! * `exp cache stats|gc` — inspect or prune a trial-cache directory.
//! * `--dry-run` — parse and validate the spec (arms materialised,
//!   benchmarks resolved, sweep shape checked, checkpoint warm-up files
//!   present — missing snapshots are named), print its summary and
//!   fingerprint, run nothing.
//! * `--list-arms` — print every materialised arm label in grid order.
//! * `--workers N` — shard the grid across N worker processes
//!   (re-execing this binary); trials are byte-identical to an
//!   in-process run.
//! * `--cache DIR` — content-addressed trial cache: re-runs simulate
//!   only cells whose inputs changed; the result document grows a
//!   `cache` section.
//! * `--json` — print the `rix-exp-result/1` document (canonical spec +
//!   fingerprint + trial records) instead of the table.
//! * `--output FILE` — also write that document to FILE (the table
//!   stays on stdout).
//!
//! The spec owns the experiment's parameters; explicitly-given harness
//! flags (`--instructions`, `--seed`, `--warmup`, `--warmup-mode`)
//! override it, and `--bench`/`--threads` narrow and parallelise the
//! run. Results embed the spec fingerprint, so a record names exactly
//! the experiment that produced it.

use rix_bench::{lint_findings, result_doc, ExperimentSpec, Harness, Table};

const EXP_USAGE: &str = "\
usage: exp run <spec.json> [flags]\n\
\x20      exp serve <spec.json> --listen ADDR [flags]   (coordinator for remote workers)\n\
\x20      exp worker [--connect ADDR [--name NAME]]     (remote worker; bare = stdio)\n\
\x20      exp workers --status --connect ADDR [--json]  (query a serving coordinator)\n\
\x20      exp serve-api --listen ADDR --data-dir DIR    (long-lived experiment service)\n\
\x20                    [--queue N] [--executors N] [--token T]\n\
\x20                    [--threads N] [--workers N] [--cell-listen ADDR]\n\
\x20      exp submit <spec.json> --connect HOST:PORT [--token T] [--json]\n\
\x20      exp status <id> --connect HOST:PORT [--token T] [--json]\n\
\x20      exp fetch <id> --connect HOST:PORT [--wait] [--output FILE] [--token T]\n\
\x20      exp runs --connect HOST:PORT [--token T] [--json]\n\
\x20      exp cache stats <DIR> [--json]\n\
\x20      exp cache gc <DIR> --older-than AGE           (AGE: 30, 45s, 10m, 2h, 7d)\n\
\n\
exp-specific flags:\n\
\x20 --dry-run               validate the spec (incl. checkpoint files) and print\n\
\x20                         its summary; run nothing\n\
\x20 --list-arms             print the materialised arm labels; run nothing\n\
\n\
plus the shared harness flags (see below); explicitly-given\n\
--instructions/--seed/--warmup/--warmup-mode override the spec's values.";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{EXP_USAGE}\n\n{}", Harness::usage());
    std::process::exit(2);
}

/// A runtime (non-usage) failure: network errors, server-side
/// rejections. Exit 1 without re-printing usage.
fn run_fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// `exp workers --status --connect ADDR [--json]`: one status hello to
/// a serving coordinator, rendered as a table (or the raw
/// `rix-dispatch-status/1` document with `--json`).
fn workers_command(args: &[String]) -> ! {
    use rix_isa::json::Json;
    let mut connect: Option<String> = None;
    let mut status = false;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--status" => status = true,
            "--json" => json = true,
            "--connect" => {
                i += 1;
                connect = Some(
                    args.get(i).cloned().unwrap_or_else(|| fail("--connect needs an address")),
                );
            }
            other => fail(&format!("unknown `exp workers` argument `{other}`")),
        }
        i += 1;
    }
    if !status {
        fail("`exp workers` supports exactly one query: --status");
    }
    let Some(addr) = connect else {
        fail("`exp workers --status` needs --connect ADDR");
    };
    let doc = match rix_dispatch::query_status(&addr) {
        Ok(doc) => doc,
        Err(msg) => fail(&msg),
    };
    if json {
        println!("{}", doc.dump());
        std::process::exit(0);
    }
    let n = |name: &str| doc.get(name).and_then(Json::as_u64).unwrap_or(0);
    println!(
        "dispatch @ {addr}: {}/{} cells done, {} queued, {} retries",
        n("cells_done"),
        n("cells_total"),
        n("queued"),
        n("retries"),
    );
    let mut table = Table::new(&["worker", "state", "cells", "failures", "reconnects"]);
    for w in doc.get("workers").and_then(Json::as_arr).unwrap_or(&Vec::new()) {
        let s = |name: &str| w.get(name).and_then(Json::as_str).unwrap_or("?").to_string();
        let u = |name: &str| w.get(name).and_then(Json::as_u64).unwrap_or(0).to_string();
        table.row(vec![
            s("name"),
            s("state"),
            u("cells_completed"),
            u("failures"),
            u("reconnects"),
        ]);
    }
    println!("{}", table.render());
    std::process::exit(0);
}

/// `exp serve-api --listen ADDR --data-dir DIR …`: the long-lived
/// experiment API service (see [`rix_serve`]). Runs until killed.
fn serve_api_command(args: &[String]) -> ! {
    let mut listen: Option<String> = None;
    let mut cfg = rix_serve::ServerConfig::default();
    let mut engine = rix_bench::service::ExpEngine::default();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize, flag: &str| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        let number = |i: &mut usize, flag: &str| -> usize {
            let v = value(i, flag);
            v.parse().unwrap_or_else(|_| fail(&format!("{flag} needs a number, got `{v}`")))
        };
        match args[i].as_str() {
            "--listen" => listen = Some(value(&mut i, "--listen")),
            "--data-dir" => cfg.data_dir = value(&mut i, "--data-dir"),
            "--queue" => cfg.queue_cap = number(&mut i, "--queue"),
            "--executors" => cfg.executors = number(&mut i, "--executors"),
            "--token" => cfg.token = Some(value(&mut i, "--token")),
            "--threads" => engine.threads = number(&mut i, "--threads"),
            "--workers" => engine.workers = number(&mut i, "--workers"),
            "--cell-listen" => engine.cell_listen = Some(value(&mut i, "--cell-listen")),
            other => fail(&format!("unknown `exp serve-api` argument `{other}`")),
        }
        i += 1;
    }
    let Some(listen) = listen else {
        fail("`exp serve-api` needs --listen ADDR");
    };
    if cfg.data_dir.is_empty() {
        fail("`exp serve-api` needs --data-dir DIR");
    }
    if engine.workers > 0 && engine.cell_listen.is_some() {
        fail("--workers and --cell-listen are mutually exclusive");
    }
    if cfg.token.is_none() {
        cfg.token = std::env::var("RIX_DISPATCH_TOKEN").ok().filter(|t| !t.is_empty());
    }
    // The one token guards both doors: HTTP bearer auth here, and the
    // dispatch hello when runs are served to remote cell workers.
    engine.token = cfg.token.clone();
    match rix_serve::Server::bind(&listen, cfg, Box::new(engine)) {
        Ok(server) => server.run(),
        Err(msg) => run_fail(&msg),
    }
}

/// One API exchange, with transport errors fatal (exit 1). Server-side
/// rejections come back to the caller as `(status, body)`.
fn api(addr: &str, method: &str, path: &str, token: Option<&str>, body: Option<&str>) -> (u16, String) {
    match rix_serve::client::request(addr, method, path, token, body) {
        Ok(reply) => reply,
        Err(msg) => run_fail(&msg),
    }
}

/// The server's `"error"` field, or the raw body when it isn't the
/// JSON shape we expect.
fn api_error(body: &str) -> String {
    use rix_isa::json::Json;
    Json::parse(body)
        .ok()
        .and_then(|doc| doc.get("error").and_then(Json::as_str).map(ToString::to_string))
        .unwrap_or_else(|| body.trim_end().to_string())
}

/// `(positional, connect, token, json, extras)` from [`client_args`].
type ClientArgs = (Option<String>, String, Option<String>, bool, Vec<(String, String)>);

/// Shared `--connect/--token/--json` parsing for the client
/// subcommands. Returns `(positional, connect, token, json, extras)`
/// where `extras` collects flags from `extra_flags` that were present.
fn client_args(
    cmd: &str,
    args: &[String],
    extra_value_flags: &[&str],
    extra_bool_flags: &[&str],
) -> ClientArgs {
    let mut positional: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut token: Option<String> = None;
    let mut json = false;
    let mut extras: Vec<(String, String)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize, flag: &str| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        let a = args[i].as_str();
        match a {
            "--connect" => connect = Some(value(&mut i, "--connect")),
            "--token" => token = Some(value(&mut i, "--token")),
            "--json" => json = true,
            _ if extra_value_flags.contains(&a) => {
                let flag = a.to_string();
                let v = value(&mut i, &flag);
                extras.push((flag, v));
            }
            _ if extra_bool_flags.contains(&a) => extras.push((a.to_string(), String::new())),
            _ if !a.starts_with("--") && positional.is_none() => positional = Some(a.to_string()),
            other => fail(&format!("unknown `exp {cmd}` argument `{other}`")),
        }
        i += 1;
    }
    let Some(connect) = connect else {
        fail(&format!("`exp {cmd}` needs --connect HOST:PORT"));
    };
    if token.is_none() {
        token = std::env::var("RIX_DISPATCH_TOKEN").ok().filter(|t| !t.is_empty());
    }
    (positional, connect, token, json, extras)
}

/// `exp submit <spec.json> --connect HOST:PORT`: POST the spec file and
/// report the run id (and whether we joined an existing run).
fn submit_command(args: &[String]) -> ! {
    use rix_isa::json::Json;
    let (path, connect, token, json, _) = client_args("submit", args, &[], &[]);
    let Some(path) = path else {
        fail("`exp submit` needs a spec file path");
    };
    let spec = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => fail(&format!("cannot read `{path}`: {e}")),
    };
    let (status, body) = api(&connect, "POST", "/v1/runs", token.as_deref(), Some(&spec));
    if status != 200 && status != 201 {
        run_fail(&format!("submit refused ({status}): {}", api_error(&body)));
    }
    if json {
        println!("{body}");
        std::process::exit(0);
    }
    let doc = Json::parse(&body).unwrap_or(Json::Null);
    let s = |name: &str| doc.get(name).and_then(Json::as_str).unwrap_or("?").to_string();
    let joined = doc.get("joined").and_then(Json::as_bool).unwrap_or(false);
    println!(
        "run {}: {}{}",
        s("id"),
        s("state"),
        if joined { " (joined existing run)" } else { "" },
    );
    std::process::exit(0);
}

/// `exp status <id> --connect HOST:PORT`: one run's state and progress.
fn status_command(args: &[String]) -> ! {
    use rix_isa::json::Json;
    let (id, connect, token, json, _) = client_args("status", args, &[], &[]);
    let Some(id) = id else {
        fail("`exp status` needs a run id");
    };
    let (status, body) = api(&connect, "GET", &format!("/v1/runs/{id}"), token.as_deref(), None);
    if status != 200 {
        run_fail(&format!("status failed ({status}): {}", api_error(&body)));
    }
    if json {
        println!("{body}");
        std::process::exit(0);
    }
    let doc = Json::parse(&body).unwrap_or(Json::Null);
    let s = |name: &str| doc.get(name).and_then(Json::as_str).unwrap_or("?").to_string();
    let p = |name: &str| {
        doc.get("progress").and_then(|p| p.get(name)).and_then(Json::as_u64).unwrap_or(0)
    };
    println!(
        "run {}: {} — {}/{} cells ({} cached, {} degraded)",
        s("id"),
        s("state"),
        p("done"),
        p("total"),
        p("cached"),
        p("degraded"),
    );
    if let Some(err) = doc.get("error").and_then(Json::as_str) {
        println!("  error: {err}");
    }
    std::process::exit(0);
}

/// `exp fetch <id> --connect HOST:PORT [--wait] [--output FILE]`: the
/// stored result document, byte-for-byte. `--wait` polls through `409`
/// (not finished yet) until the run completes or fails.
fn fetch_command(args: &[String]) -> ! {
    let (id, connect, token, _, extras) =
        client_args("fetch", args, &["--output"], &["--wait"]);
    let Some(id) = id else {
        fail("`exp fetch` needs a run id");
    };
    let wait = extras.iter().any(|(f, _)| f == "--wait");
    let output = extras.iter().find(|(f, _)| f == "--output").map(|(_, v)| v.clone());
    let path = format!("/v1/runs/{id}/result");
    // Short runs finish in tens of milliseconds: poll fast at first, then
    // back off to a 300 ms ceiling for long ones.
    let mut pause = std::time::Duration::from_millis(5);
    let body = loop {
        let (status, body) = api(&connect, "GET", &path, token.as_deref(), None);
        match status {
            200 => break body,
            409 if wait => {
                std::thread::sleep(pause);
                pause = (pause * 2).min(std::time::Duration::from_millis(300));
            }
            _ => run_fail(&format!("fetch failed ({status}): {}", api_error(&body))),
        }
    };
    match output {
        Some(out) => {
            if let Err(e) = std::fs::write(&out, &body) {
                run_fail(&format!("cannot write `{out}`: {e}"));
            }
        }
        // The stored document already ends in a newline; print it
        // verbatim so piped bytes match the stored bytes.
        None => print!("{body}"),
    }
    std::process::exit(0);
}

/// `exp runs --connect HOST:PORT`: every run the server knows.
fn runs_command(args: &[String]) -> ! {
    use rix_isa::json::Json;
    let (extra, connect, token, json, _) = client_args("runs", args, &[], &[]);
    if let Some(extra) = extra {
        fail(&format!("unknown `exp runs` argument `{extra}`"));
    }
    let (status, body) = api(&connect, "GET", "/v1/runs", token.as_deref(), None);
    if status != 200 {
        run_fail(&format!("listing runs failed ({status}): {}", api_error(&body)));
    }
    if json {
        println!("{body}");
        std::process::exit(0);
    }
    let doc = Json::parse(&body).unwrap_or(Json::Null);
    let mut table = Table::new(&["id", "name", "state", "cells"]);
    for run in doc.get("runs").and_then(Json::as_arr).unwrap_or(&Vec::new()) {
        let s = |name: &str| run.get(name).and_then(Json::as_str).unwrap_or("-").to_string();
        let cells = run.get("cells").and_then(Json::as_u64).unwrap_or(0);
        table.row(vec![s("id"), s("name"), s("state"), cells.to_string()]);
    }
    println!("{}", table.render());
    std::process::exit(0);
}

/// Parses a `--older-than` age: plain seconds, or a number with an
/// `s`/`m`/`h`/`d` suffix.
fn parse_age(text: &str) -> Result<std::time::Duration, String> {
    let (digits, unit) = match text.chars().last() {
        Some(u @ ('s' | 'm' | 'h' | 'd')) => (&text[..text.len() - 1], u),
        _ => (text, 's'),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("bad age `{text}` (want e.g. 30, 45s, 10m, 2h, 7d)"))?;
    let secs = match unit {
        's' => n,
        'm' => n * 60,
        'h' => n * 3600,
        _ => n * 86_400,
    };
    Ok(std::time::Duration::from_secs(secs))
}

/// `exp cache stats <DIR>` / `exp cache gc <DIR> --older-than AGE`:
/// inspect or prune a content-addressed trial-cache directory (the
/// `--cache DIR` of runs, or a service data-dir's `cache/`).
fn cache_command(args: &[String]) -> ! {
    let Some(verb) = args.first().map(String::as_str) else {
        fail("`exp cache` needs a subcommand: stats or gc");
    };
    let mut dir: Option<String> = None;
    let mut older_than: Option<std::time::Duration> = None;
    let mut json = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--older-than" => {
                i += 1;
                let v = args
                    .get(i)
                    .unwrap_or_else(|| fail("--older-than needs a value"));
                older_than = Some(parse_age(v).unwrap_or_else(|msg| fail(&msg)));
            }
            a if !a.starts_with("--") && dir.is_none() => dir = Some(a.to_string()),
            other => fail(&format!("unknown `exp cache` argument `{other}`")),
        }
        i += 1;
    }
    let Some(dir) = dir else {
        fail(&format!("`exp cache {verb}` needs a cache directory"));
    };
    let cache = match rix_dispatch::ResultCache::open(&dir) {
        Ok(c) => c,
        Err(msg) => run_fail(&msg),
    };
    match verb {
        "stats" => {
            let stats = match cache.stats() {
                Ok(s) => s,
                Err(msg) => run_fail(&msg),
            };
            if json {
                println!(
                    "{{\"schema\":\"rix-trial-cache-stats/1\",\"dir\":{},\
                     \"entries\":{},\"corrupt\":{},\"bytes\":{}}}",
                    rix_isa::json::Json::Str(dir).dump(),
                    stats.entries,
                    stats.corrupt,
                    stats.bytes,
                );
            } else {
                println!(
                    "cache {dir}: {} entries ({} bytes), {} corrupt",
                    stats.entries, stats.bytes, stats.corrupt,
                );
            }
        }
        "gc" => {
            let Some(age) = older_than else {
                fail("`exp cache gc` needs --older-than AGE");
            };
            match cache.gc(age) {
                Ok(removed) => println!("cache {dir}: removed {removed} entries"),
                Err(msg) => run_fail(&msg),
            }
        }
        other => fail(&format!("unknown `exp cache` subcommand `{other}` (want stats or gc)")),
    }
    std::process::exit(0);
}

fn main() {
    // A coordinator re-execs this binary with the internal worker
    // argument; check before any user-facing parsing.
    rix_bench::dispatch::maybe_worker();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{EXP_USAGE}\n\n{}", Harness::usage());
        std::process::exit(0);
    }
    if raw.is_empty() {
        fail("no command given");
    }
    if raw[0] == "worker" {
        // The documented spelling of the worker entry points: bare for
        // stdio (the coordinator itself uses the internal argv[1]
        // marker), `--connect` for a remote TCP worker.
        let mut connect: Option<String> = None;
        let mut name: Option<String> = None;
        let mut i = 1;
        while i < raw.len() {
            let value = |i: &mut usize, flag: &str| -> String {
                *i += 1;
                raw.get(*i).cloned().unwrap_or_else(|| fail(&format!("{flag} needs a value")))
            };
            match raw[i].as_str() {
                "--connect" => connect = Some(value(&mut i, "--connect")),
                "--name" => name = Some(value(&mut i, "--name")),
                other => fail(&format!("unknown `exp worker` argument `{other}`")),
            }
            i += 1;
        }
        match connect {
            Some(addr) => rix_bench::dispatch::worker_connect_main(&addr, name.as_deref()),
            None => rix_bench::dispatch::worker_main(),
        }
    }
    if raw[0] == "workers" {
        workers_command(&raw[1..]);
    }
    match raw[0].as_str() {
        "serve-api" => serve_api_command(&raw[1..]),
        "submit" => submit_command(&raw[1..]),
        "status" => status_command(&raw[1..]),
        "fetch" => fetch_command(&raw[1..]),
        "runs" => runs_command(&raw[1..]),
        "cache" => cache_command(&raw[1..]),
        _ => {}
    }
    let serve = raw[0] == "serve";
    if !serve && raw[0] != "run" {
        fail(&format!(
            "unknown command `{}` (expected `run`, `serve`, `worker`, `workers`, \
             `serve-api`, `submit`, `status`, `fetch`, `runs` or `cache`)",
            raw[0]
        ));
    }
    let Some(path) = raw.get(1).filter(|p| !p.starts_with("--")) else {
        fail(&format!("`exp {}` needs a spec file path", raw[0]));
    };
    let mut dry_run = false;
    let mut list_arms = false;
    let mut rest = Vec::new();
    for a in &raw[2..] {
        match a.as_str() {
            "--dry-run" => dry_run = true,
            "--list-arms" => list_arms = true,
            other => rest.push(other.to_string()),
        }
    }
    let h = match Harness::try_parse(rest) {
        Ok(h) => h,
        Err(msg) => fail(&msg),
    };
    if serve && h.listen.is_none() {
        fail("`exp serve` needs --listen ADDR");
    }

    let mut spec = match ExperimentSpec::load(path) {
        Ok(s) => s,
        Err(msg) => fail(&msg),
    };
    spec.apply_harness(&h);
    let arms = match spec.arms() {
        Ok(a) => a,
        Err(msg) => fail(&msg),
    };
    let sweep = spec.sweep(&h);

    if list_arms {
        println!(
            "{} arms of `{}` ({}):",
            arms.len(),
            spec.name.as_deref().unwrap_or(path),
            spec.fingerprint_hex()
        );
        for (i, (label, _)) in arms.iter().enumerate() {
            println!("  [{i:>2}] {label}");
        }
        return;
    }
    if dry_run {
        // Validate the static sweep shape too (duplicate labels, empty
        // grids, …) and — under checkpoint warm-up — that every
        // benchmark's snapshot file actually exists, naming any missing
        // paths, so a scheduled run cannot fail hours in on a typo'd
        // checkpoint directory.
        if let Err(msg) = sweep.validate() {
            fail(&msg);
        }
        if let Err(msg) = sweep.validate_checkpoint_files() {
            fail(&msg);
        }
        // Count what this invocation would actually run: the spec's
        // benchmarks narrowed by the `--bench` filter, like the sweep.
        let benches: Vec<_> = spec
            .benchmarks
            .iter()
            .filter(|b| h.filter.as_deref().is_none_or(|f| f.eq_ignore_ascii_case(b.name)))
            .collect();
        // Lint every program the run would measure: a dry run rejects a
        // generator bug rather than validating the spec around it.
        let findings = lint_findings(benches.iter().copied(), spec.seed);
        for f in &findings {
            eprintln!("  {f}");
        }
        if !findings.is_empty() {
            fail(&format!(
                "{} lint findings in the spec's benchmarks (seed {})",
                findings.len(),
                spec.seed
            ));
        }
        println!(
            "spec OK: {} ({})",
            spec.name.as_deref().unwrap_or(path),
            spec.fingerprint_hex()
        );
        println!(
            "  benchmarks: {}  arms: {}  cells: {}  instructions: {}  warmup: {} ({})  seed: {}",
            benches.len(),
            arms.len(),
            benches.len() * arms.len(),
            spec.instructions,
            spec.warmup,
            spec.warmup_mode.name(),
            spec.seed,
        );
        println!("  lint: clean ({} benchmarks at seed {})", benches.len(), spec.seed);
        return;
    }

    let (trials, report) = h.run_sweep(&sweep).unwrap_or_else(|msg| fail(&msg));
    // The cache section only exists when a cache is in use; the
    // dispatch section (per-worker stats) only under --dispatch-stats —
    // neither --verbose nor worker counts may change the doc's bytes.
    let cache_report = report.clone().filter(|_| h.cache.is_some());
    let dispatch_report = report.filter(|_| h.dispatch_stats);
    let doc = result_doc(&spec, &trials, cache_report.as_ref(), dispatch_report.as_ref());
    if let Some(out) = &h.output {
        if let Err(e) = std::fs::write(out, format!("{doc}\n")) {
            fail(&format!("cannot write `{out}`: {e}"));
        }
    }
    if h.json {
        println!("{doc}");
        return;
    }

    println!(
        "experiment: {} ({})",
        spec.name.as_deref().unwrap_or(path),
        spec.fingerprint_hex()
    );
    let mut table = Table::new(&["bench", "config", "IPC", "retired", "cycles"]);
    for t in &trials {
        table.row(vec![
            t.bench.to_string(),
            t.config_label.clone(),
            format!("{:.3}", t.result.ipc()),
            t.result.stats.retired.to_string(),
            t.result.stats.cycles.to_string(),
        ]);
    }
    println!("{}", table.render());
}
