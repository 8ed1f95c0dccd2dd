//! The experiment API service, end to end against the real `exp`
//! binary: `exp serve-api` + the `submit`/`status`/`fetch`/`runs`
//! client subcommands. Proves the tentpole guarantees at the CLI layer:
//! a fetched result document is byte-identical to a direct `exp run
//! --json`, identical submissions join the same run (one simulation,
//! live or after completion), a restarted server re-serves completed
//! results warm, the bearer token gates the HTTP surface, and `exp
//! cache stats/gc` manage a trial-cache directory.

use rix_isa::json::Json;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

const EXP: &str = env!("CARGO_BIN_EXE_exp");

/// A 2-benchmark × 2-arm spec — 4 cells, small budgets, fast runs.
const SPEC: &str = r#"{
    "schema": "rix-exp/1",
    "name": "serve-api-e2e",
    "benchmarks": ["gcc", "vortex"],
    "instructions": 2000,
    "seed": 11,
    "arms": [
        {"label": "base", "preset": "base"},
        {"label": "integration", "preset": "plus_reverse",
         "overrides": {"integration": {"it_entries": 1024}}}
    ]
}"#;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rix-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn write_spec(dir: &Path, text: &str) -> String {
    let path = dir.join("spec.json");
    std::fs::write(&path, text).expect("write spec");
    path.to_str().expect("utf-8 path").to_string()
}

fn exp(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(EXP);
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("exp spawns")
}

/// Runs `exp …` expecting success; returns stdout.
fn exp_ok(args: &[&str], envs: &[(&str, &str)]) -> String {
    let out = exp(args, envs);
    assert!(
        out.status.success(),
        "exp {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// An `exp serve-api` child: bound address parsed from its
/// `serve-api: listening on …` stderr line; killed on drop so a failed
/// assertion doesn't leak a server.
struct Api {
    child: Child,
    addr: String,
}

fn spawn_api(data_dir: &Path, extra: &[&str], envs: &[(&str, &str)]) -> Api {
    let mut cmd = Command::new(EXP);
    cmd.args(["serve-api", "--listen", "127.0.0.1:0", "--data-dir"]);
    cmd.arg(data_dir);
    cmd.args(extra);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.stdout(Stdio::null()).stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("serve-api spawns");
    let mut reader = std::io::BufReader::new(child.stderr.take().expect("stderr piped"));
    let addr = loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read serve-api stderr") == 0 {
            panic!("serve-api exited before listening");
        }
        if let Some(rest) = line.trim().strip_prefix("serve-api: listening on ") {
            break rest.to_string();
        }
    };
    Api { child, addr }
}

impl Drop for Api {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn field<'a>(doc: &'a Json, name: &str) -> &'a Json {
    doc.get(name).unwrap_or_else(|| panic!("reply has `{name}`: {}", doc.dump()))
}

/// The tentpole acceptance check: a document fetched from the service
/// is byte-identical to `exp run --json` on the same spec, and a second
/// identical submission joins the completed run instead of
/// re-simulating.
#[test]
fn fetched_result_is_byte_identical_to_direct_run() {
    let dir = scratch("bytes");
    let spec = write_spec(&dir, SPEC);
    let direct = exp_ok(&["run", &spec, "--json"], &[]);

    let api = spawn_api(&dir.join("data"), &[], &[]);
    let reply = exp_ok(&["submit", &spec, "--connect", &api.addr, "--json"], &[]);
    let reply = Json::parse(&reply).expect("submit reply parses");
    let id = field(&reply, "id").as_str().expect("id is a string").to_string();
    assert!(id.starts_with("0x"), "run id is the spec fingerprint, got {id}");
    assert_eq!(field(&reply, "joined").as_bool(), Some(false));

    let fetched = exp_ok(&["fetch", &id, "--connect", &api.addr, "--wait"], &[]);
    assert_eq!(fetched, direct, "service result must match `exp run --json` byte-for-byte");

    // Identical re-submission joins the completed run: same id, joined
    // flag set, still exactly one simulation behind it (the status
    // dispatch report shows every cell ran in the single execution).
    let again = exp_ok(&["submit", &spec, "--connect", &api.addr, "--json"], &[]);
    let again = Json::parse(&again).expect("second reply parses");
    assert_eq!(field(&again, "id").as_str(), Some(id.as_str()));
    assert_eq!(field(&again, "joined").as_bool(), Some(true));
    assert_eq!(field(&again, "state").as_str(), Some("done"));

    let status = exp_ok(&["status", &id, "--connect", &api.addr, "--json"], &[]);
    let status = Json::parse(&status).expect("status parses");
    let progress = field(&status, "progress");
    assert_eq!(progress.req_u64("total").expect("total"), 4);
    assert_eq!(progress.req_u64("done").expect("done"), 4);
    let dispatch = field(&status, "dispatch");
    assert_eq!(dispatch.req_u64("cells").expect("cells"), 4);

    // `--output` writes the same bytes it would print.
    let out_path = dir.join("fetched.json");
    let out_str = out_path.to_str().expect("utf-8 path");
    exp_ok(&["fetch", &id, "--connect", &api.addr, "--output", out_str], &[]);
    assert_eq!(std::fs::read_to_string(&out_path).expect("fetched file"), direct);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Many clients racing the same spec: every submission resolves to the
/// same run id, exactly one creates it, and every fetch returns the
/// same bytes.
#[test]
fn concurrent_submissions_share_one_run() {
    let dir = scratch("race");
    let spec = write_spec(&dir, SPEC);
    let api = spawn_api(&dir.join("data"), &[], &[]);

    let replies: Vec<Json> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let (addr, spec) = (api.addr.clone(), spec.clone());
                scope.spawn(move || {
                    let out = exp_ok(&["submit", &spec, "--connect", &addr, "--json"], &[]);
                    Json::parse(&out).expect("submit reply parses")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("submitter")).collect()
    });

    let ids: Vec<&str> =
        replies.iter().map(|r| field(r, "id").as_str().expect("id")).collect();
    assert!(ids.windows(2).all(|w| w[0] == w[1]), "all submissions share one run: {ids:?}");
    let created =
        replies.iter().filter(|r| field(r, "joined").as_bool() == Some(false)).count();
    assert_eq!(created, 1, "exactly one submission created the run");

    let reference = exp_ok(&["fetch", ids[0], "--connect", &api.addr, "--wait"], &[]);
    for _ in 0..3 {
        assert_eq!(exp_ok(&["fetch", ids[0], "--connect", &api.addr], &[]), reference);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Restart-warm at the CLI layer: kill the server after a run
/// completes, restart it on the same data-dir, and the run is listed
/// done and its result re-served byte-identical — no re-simulation
/// (the second server never executes anything).
#[test]
fn restarted_server_serves_completed_runs_warm() {
    let dir = scratch("restart");
    let spec = write_spec(&dir, SPEC);
    let data = dir.join("data");

    let first = spawn_api(&data, &[], &[]);
    let reply = exp_ok(&["submit", &spec, "--connect", &first.addr, "--json"], &[]);
    let id = field(&Json::parse(&reply).expect("parses"), "id")
        .as_str()
        .expect("id")
        .to_string();
    let fetched = exp_ok(&["fetch", &id, "--connect", &first.addr, "--wait"], &[]);
    drop(first);

    // `--executors 0` so the restarted server *cannot* simulate: the
    // bytes it serves are necessarily the stored ones.
    let second = spawn_api(&data, &["--executors", "0"], &[]);
    let runs = exp_ok(&["runs", "--connect", &second.addr, "--json"], &[]);
    let runs = Json::parse(&runs).expect("runs parses");
    let listed = field(&runs, "runs").as_arr().expect("runs array");
    assert_eq!(listed.len(), 1);
    assert_eq!(field(&listed[0], "id").as_str(), Some(id.as_str()));
    assert_eq!(field(&listed[0], "state").as_str(), Some("done"));

    let warm = exp_ok(&["fetch", &id, "--connect", &second.addr], &[]);
    assert_eq!(warm, fetched, "restarted server re-serves stored bytes");

    // A duplicate submission joins the completed run even though this
    // server has no executors at all.
    let again = exp_ok(&["submit", &spec, "--connect", &second.addr, "--json"], &[]);
    let again = Json::parse(&again).expect("parses");
    assert_eq!(field(&again, "joined").as_bool(), Some(true));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The bearer token gates every client subcommand; `RIX_DISPATCH_TOKEN`
/// in the client's environment is the flagless spelling.
#[test]
fn http_token_gates_the_client_commands() {
    let dir = scratch("auth");
    let spec = write_spec(&dir, SPEC);
    let api = spawn_api(&dir.join("data"), &["--token", "hush", "--executors", "0"], &[]);

    let refused = exp(&["submit", &spec, "--connect", &api.addr], &[]);
    assert!(!refused.status.success(), "tokenless submit must fail");
    assert_eq!(refused.status.code(), Some(1), "a 401 is a runtime error, not a usage error");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(stderr.contains("401"), "names the refusal: {stderr}");

    let wrong = exp(&["runs", "--connect", &api.addr, "--token", "open"], &[]);
    assert!(!wrong.status.success(), "wrong token must fail");

    let reply =
        exp_ok(&["submit", &spec, "--connect", &api.addr, "--token", "hush", "--json"], &[]);
    let id = field(&Json::parse(&reply).expect("parses"), "id")
        .as_str()
        .expect("id")
        .to_string();
    let status = exp_ok(
        &["status", &id, "--connect", &api.addr, "--json"],
        &[("RIX_DISPATCH_TOKEN", "hush")],
    );
    let status = Json::parse(&status).expect("status parses");
    assert_eq!(field(&status, "state").as_str(), Some("queued"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `exp cache stats` and `exp cache gc --older-than` over the directory
/// a cached run populated.
#[test]
fn cache_subcommand_reports_and_prunes() {
    let dir = scratch("cache");
    let spec = write_spec(&dir, SPEC);
    let cache_dir = dir.join("cache");
    let cache_str = cache_dir.to_str().expect("utf-8 path");
    exp_ok(&["run", &spec, "--json", "--cache", cache_str], &[]);

    let stats = exp_ok(&["cache", "stats", cache_str, "--json"], &[]);
    let stats = Json::parse(&stats).expect("stats parses");
    assert_eq!(field(&stats, "entries").as_u64(), Some(4));
    assert_eq!(field(&stats, "corrupt").as_u64(), Some(0));
    assert!(field(&stats, "bytes").as_u64().unwrap_or(0) > 0);

    // A corrupt entry is counted, not fatal.
    std::fs::write(cache_dir.join("deadbeef.json"), "not json").expect("plant corrupt entry");
    let stats = exp_ok(&["cache", "stats", cache_str, "--json"], &[]);
    let stats = Json::parse(&stats).expect("stats parses");
    assert_eq!(field(&stats, "corrupt").as_u64(), Some(1));

    // Age 0 prunes everything; a long horizon prunes nothing.
    let kept = exp_ok(&["cache", "gc", cache_str, "--older-than", "7d"], &[]);
    assert!(kept.contains("removed 0"), "nothing is a week old: {kept}");
    let swept = exp_ok(&["cache", "gc", cache_str, "--older-than", "0s"], &[]);
    assert!(swept.contains("removed 5"), "4 entries + 1 corrupt: {swept}");
    let stats = exp_ok(&["cache", "stats", cache_str, "--json"], &[]);
    let stats = Json::parse(&stats).expect("stats parses");
    assert_eq!(field(&stats, "entries").as_u64(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A hostile body of 300 000 nested `[` (well under the body cap) is
/// refused with a structured 400 instead of overflowing the parser's
/// stack, and the server goes on serving.
#[test]
fn deeply_nested_body_is_refused_and_server_survives() {
    let dir = scratch("nesting");
    let spec = write_spec(&dir, SPEC);
    let api = spawn_api(&dir.join("data"), &["--executors", "0"], &[]);

    let hostile = "[".repeat(300_000);
    let (status, body) =
        rix_serve::client::request(&api.addr, "POST", "/v1/runs", None, Some(&hostile))
            .expect("the server answers");
    assert_eq!(status, 400, "{body}");
    let body = Json::parse(&body).expect("error body parses");
    assert_eq!(field(&body, "schema").as_str(), Some("rix-serve/1"));
    let error = field(&body, "error").as_str().expect("error is a string");
    assert!(error.contains("nesting deeper than"), "{error}");

    let reply = exp_ok(&["submit", &spec, "--connect", &api.addr, "--json"], &[]);
    let reply = Json::parse(&reply).expect("submit reply parses");
    assert_eq!(field(&reply, "joined").as_bool(), Some(false));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Structured client-side failures: unknown run ids and unfinished
/// results exit 1 with the server's error message, not a usage dump.
#[test]
fn client_failures_are_runtime_errors() {
    let dir = scratch("errors");
    let spec = write_spec(&dir, SPEC);
    let api = spawn_api(&dir.join("data"), &["--executors", "0"], &[]);

    let missing = exp(&["status", "0xdoesnotexist", "--connect", &api.addr], &[]);
    assert_eq!(missing.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&missing.stderr).contains("404"));

    // Submitted but never executed (no executors): fetch without --wait
    // reports the 409 instead of blocking.
    let reply = exp_ok(&["submit", &spec, "--connect", &api.addr, "--json"], &[]);
    let id = field(&Json::parse(&reply).expect("parses"), "id")
        .as_str()
        .expect("id")
        .to_string();
    let unfinished = exp(&["fetch", &id, "--connect", &api.addr], &[]);
    assert_eq!(unfinished.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&unfinished.stderr).contains("409"));

    // An invalid spec is refused by validation with a 400.
    let bad = dir.join("bad.json");
    std::fs::write(&bad, r#"{"schema":"rix-exp/1","benchmarks":[]}"#).expect("write bad spec");
    let refused = exp(&["submit", bad.to_str().expect("utf-8 path"), "--connect", &api.addr], &[]);
    assert_eq!(refused.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("400"));
    let _ = std::fs::remove_dir_all(&dir);
}
