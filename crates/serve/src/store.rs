//! The persistent run store: everything the service must not lose
//! across a restart, laid out under `--data-dir`:
//!
//! ```text
//! <data-dir>/runs/<id>.json      one rix-serve-run/1 record per run
//! <data-dir>/results/<id>.json   the exact rix-exp-result/1 bytes served
//! <data-dir>/cache/              the engine's content-addressed trial cache
//! ```
//!
//! Every write is atomic (same-directory temp file + rename, the
//! `rix_dispatch` cache discipline), so a crash mid-write leaves the
//! previous state intact and a restarted server loads clean records.
//! Result documents are stored and re-read as raw bytes — the store
//! never parses or reformats them, which is what makes re-served
//! results byte-identical.

use crate::{Progress, RUN_SCHEMA};
use rix_isa::json::Json;
use std::path::{Path, PathBuf};

/// A run's lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunState {
    /// Accepted, waiting for an executor.
    Queued,
    /// An executor is simulating it.
    Running,
    /// Finished; its result document is stored and served.
    Done,
    /// The engine reported an error (recorded on the run).
    Failed,
}

impl RunState {
    /// The state's stable wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Done => "done",
            Self::Failed => "failed",
        }
    }

    fn from_name(name: &str) -> Result<Self, String> {
        match name {
            "queued" => Ok(Self::Queued),
            "running" => Ok(Self::Running),
            "done" => Ok(Self::Done),
            "failed" => Ok(Self::Failed),
            other => Err(format!("unknown run state {other:?}")),
        }
    }
}

/// One run's durable record (everything but the result document, which
/// is stored separately as raw bytes).
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// The run id: the spec's `fingerprint128` as `0x…` hex — which is
    /// what makes identical submissions the *same* run.
    pub id: String,
    /// The spec's `name` field, for listings.
    pub name: Option<String>,
    /// The canonical spec JSON (compact), as validated.
    pub spec: String,
    /// Grid cells in the spec.
    pub cells: usize,
    /// Lifecycle state.
    pub state: RunState,
    /// The engine's error, for failed runs.
    pub error: Option<String>,
    /// Cell progress accounting (live while running; final afterwards).
    pub progress: Progress,
    /// The structured dispatch report (compact JSON), once finished.
    pub dispatch: Option<String>,
}

impl RunRecord {
    fn to_json(&self) -> Result<String, String> {
        let mut fields: Vec<(String, Json)> = vec![
            ("schema".into(), Json::Str(RUN_SCHEMA.into())),
            ("id".into(), Json::Str(self.id.clone())),
            (
                "name".into(),
                self.name.as_ref().map_or(Json::Null, |n| Json::Str(n.clone())),
            ),
            ("cells".into(), Json::Num(self.cells.to_string())),
            ("state".into(), Json::Str(self.state.name().into())),
            ("spec".into(), Json::parse(&self.spec)?),
            ("progress".into(), progress_json(self.progress)),
        ];
        if let Some(e) = &self.error {
            fields.push(("error".into(), Json::Str(e.clone())));
        }
        if let Some(d) = &self.dispatch {
            fields.push(("dispatch".into(), Json::parse(d)?));
        }
        Ok(Json::Obj(fields).dump())
    }

    fn from_json(text: &str) -> Result<Self, String> {
        let v = Json::parse(text)?;
        match v.get("schema").and_then(Json::as_str) {
            Some(RUN_SCHEMA) => {}
            other => return Err(format!("unsupported run record schema {other:?}")),
        }
        let state_name = v
            .req("state")?
            .as_str()
            .ok_or_else(|| "run `state` must be a string".to_string())?;
        Ok(Self {
            id: v
                .req("id")?
                .as_str()
                .ok_or_else(|| "run `id` must be a string".to_string())?
                .to_string(),
            name: v.get("name").and_then(Json::as_str).map(str::to_string),
            spec: v.req("spec")?.dump(),
            cells: usize::try_from(v.req_u64("cells")?)
                .map_err(|_| "run `cells` overflows usize".to_string())?,
            state: RunState::from_name(state_name)?,
            error: v.get("error").and_then(Json::as_str).map(str::to_string),
            progress: v.get("progress").map_or_else(Progress::default, progress_from_json),
            dispatch: v.get("dispatch").map(Json::dump),
        })
    }
}

/// The progress counters as a JSON object (shared by run records and
/// the status endpoint).
#[must_use]
pub fn progress_json(p: Progress) -> Json {
    Json::Obj(vec![
        ("total".into(), Json::Num(p.total.to_string())),
        ("done".into(), Json::Num(p.done.to_string())),
        ("cached".into(), Json::Num(p.cached.to_string())),
        ("degraded".into(), Json::Num(p.degraded.to_string())),
    ])
}

fn progress_from_json(v: &Json) -> Progress {
    let count = |name: &str| {
        v.get(name).and_then(Json::as_u64).and_then(|n| usize::try_from(n).ok()).unwrap_or(0)
    };
    Progress {
        total: count("total"),
        done: count("done"),
        cached: count("cached"),
        degraded: count("degraded"),
    }
}

/// The on-disk store rooted at a data directory.
pub struct RunStore {
    runs: PathBuf,
    results: PathBuf,
    cache: PathBuf,
}

impl RunStore {
    /// Opens (creating as needed) the store under `dir` and sweeps any
    /// temp files a crashed writer left behind.
    pub fn open(dir: &str) -> Result<Self, String> {
        let root = PathBuf::from(dir);
        let store = Self {
            runs: root.join("runs"),
            results: root.join("results"),
            cache: root.join("cache"),
        };
        for d in [&store.runs, &store.results, &store.cache] {
            std::fs::create_dir_all(d)
                .map_err(|e| format!("cannot create {}: {e}", d.display()))?;
        }
        for d in [&store.runs, &store.results] {
            sweep_temp_files(d);
        }
        Ok(store)
    }

    /// The trial-cache directory for the engine to use.
    #[must_use]
    pub fn cache_dir(&self) -> String {
        self.cache.display().to_string()
    }

    /// Persists one run record atomically.
    pub fn save_run(&self, run: &RunRecord) -> Result<(), String> {
        let body = run.to_json()?;
        write_atomic(&self.runs.join(format!("{}.json", run.id)), &body)
    }

    /// Loads every run record, sorted by id. Unparseable records are
    /// skipped with a warning rather than wedging startup.
    pub fn load_runs(&self) -> Result<Vec<RunRecord>, String> {
        let entries = std::fs::read_dir(&self.runs)
            .map_err(|e| format!("cannot list {}: {e}", self.runs.display()))?;
        let mut runs = Vec::new();
        for entry in entries {
            let path = entry.map_err(|e| format!("listing run records: {e}"))?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with('.') || !name.ends_with(".json") {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(&path) else { continue };
            match RunRecord::from_json(&text) {
                Ok(run) => runs.push(run),
                Err(e) => eprintln!("serve-api: skipping corrupt {}: {e}", path.display()),
            }
        }
        runs.sort_by(|a, b| a.id.cmp(&b.id));
        Ok(runs)
    }

    /// Stores a result document's bytes verbatim (atomic).
    pub fn save_result(&self, id: &str, doc: &str) -> Result<(), String> {
        write_atomic(&self.results.join(format!("{id}.json")), doc)
    }

    /// The stored result bytes, exactly as saved.
    #[must_use]
    pub fn load_result(&self, id: &str) -> Option<String> {
        std::fs::read_to_string(self.results.join(format!("{id}.json"))).ok()
    }

    /// Whether a completed result document exists for `id`.
    #[must_use]
    pub fn has_result(&self, id: &str) -> bool {
        self.results.join(format!("{id}.json")).is_file()
    }
}

fn sweep_temp_files(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let name = entry.file_name();
        if name.to_str().is_some_and(|n| n.starts_with('.') && n.ends_with(".tmp")) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

fn write_atomic(path: &Path, body: &str) -> Result<(), String> {
    let dir = path.parent().ok_or("store path has no parent directory")?;
    let name = path.file_name().and_then(|n| n.to_str()).ok_or("store path has no name")?;
    let tmp = dir.join(format!(".{name}.{}.tmp", std::process::id()));
    std::fs::write(&tmp, body).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("cannot commit {}: {e}", path.display())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("rix-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_str().unwrap().to_string()
    }

    #[test]
    fn run_records_round_trip() {
        let dir = scratch("roundtrip");
        let store = RunStore::open(&dir).unwrap();
        let run = RunRecord {
            id: "0x0000000000000000000000000000002a".into(),
            name: Some("fig4".into()),
            spec: r#"{"benchmarks":"all"}"#.into(),
            cells: 9,
            state: RunState::Running,
            error: None,
            progress: Progress { total: 9, done: 4, cached: 1, degraded: 0 },
            dispatch: None,
        };
        store.save_run(&run).unwrap();
        let failed = RunRecord {
            id: "0x0000000000000000000000000000001b".into(),
            name: None,
            spec: "{}".into(),
            cells: 1,
            state: RunState::Failed,
            error: Some("boom".into()),
            progress: Progress::default(),
            dispatch: Some(r#"{"cells":1}"#.into()),
        };
        store.save_run(&failed).unwrap();

        let loaded = store.load_runs().unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].id, failed.id, "sorted by id");
        assert_eq!(loaded[0].error.as_deref(), Some("boom"));
        assert_eq!(loaded[0].dispatch.as_deref(), Some(r#"{"cells":1}"#));
        assert_eq!(loaded[1].state, RunState::Running);
        assert_eq!(loaded[1].progress, run.progress);
        assert_eq!(loaded[1].spec, run.spec);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn results_are_stored_verbatim_and_corrupt_runs_are_skipped() {
        let dir = scratch("verbatim");
        let store = RunStore::open(&dir).unwrap();
        let doc = "{\n  \"schema\":\"rix-exp-result/1\",\n  \"trials\":[]\n}\n";
        store.save_result("0xabc", doc).unwrap();
        assert!(store.has_result("0xabc"));
        assert_eq!(store.load_result("0xabc").as_deref(), Some(doc));
        assert!(store.load_result("0xdef").is_none());

        std::fs::write(std::path::Path::new(&dir).join("runs/bad.json"), "not json").unwrap();
        assert!(store.load_runs().unwrap().is_empty(), "corrupt record skipped");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
