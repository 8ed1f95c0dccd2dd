//! The [`rix_serve::Engine`] implementation over the real experiment
//! engine — the glue that turns `exp serve-api` into a long-lived
//! service wrapping [`crate::Sweep`].
//!
//! Validation is exactly as strict as `exp run --dry-run`: spec parse,
//! sweep-shape validation, checkpoint-file checks, and the
//! [`rix_analysis`] program lints over every benchmark the spec would
//! measure ([`crate::lint_findings`], which lints each (benchmark,
//! seed) once per process, so a resubmission pays only for its cache
//! reads). The run id is the spec's canonical `fingerprint128` hex, so
//! the service's dedup key is the same identity the result document
//! embeds.
//!
//! Execution always routes through the distributed dispatcher with the
//! store's trial cache, so identical *cells* (not just identical specs)
//! dedup across runs and across restarts. The stored result document is
//! built with **no** `cache` or `dispatch` sections — byte-identical to
//! `exp run --json` on the same spec, which is the service's
//! re-serve-exactly guarantee; the structured [`DispatchReport`](crate::DispatchReport) is
//! returned separately for the run-status endpoint.

use crate::dispatch::{with_cell_progress, CellProgress};
use crate::{lint_findings, result_doc, DispatchOptions, ExperimentSpec, Harness};
use rix_serve::{Engine, Progress, RunOutput, SpecInfo};

/// How the service executes accepted specs. All knobs are per-server
/// (`exp serve-api` flags), not per-run: every run on one server shares
/// the same execution resources.
#[derive(Clone, Debug, Default)]
pub struct ExpEngine {
    /// Worker threads per run (in-process sweep parallelism; 0 or 1 =
    /// serial).
    pub threads: usize,
    /// Worker processes per run (0 = in-process execution).
    pub workers: usize,
    /// Serve each run's cells to remote TCP workers on this address
    /// (mutually exclusive with `workers`).
    pub cell_listen: Option<String>,
    /// Shared dispatch secret for `cell_listen` workers.
    pub token: Option<String>,
}

impl ExpEngine {
    /// The harness equivalent of this engine's knobs — what
    /// [`ExperimentSpec::sweep`] and [`DispatchOptions::from_harness`]
    /// consume. No `given` flags are set, so the submitted spec is
    /// never overridden.
    fn harness(&self) -> Harness {
        Harness {
            threads: self.threads.max(1),
            workers: self.workers,
            listen: self.cell_listen.clone(),
            token: self.token.clone(),
            ..Harness::default()
        }
    }
}

impl Engine for ExpEngine {
    fn validate(&self, spec_text: &str) -> Result<SpecInfo, String> {
        let spec = ExperimentSpec::from_json(spec_text)?;
        let h = self.harness();
        let sweep = spec.sweep(&h);
        sweep.validate()?;
        sweep.validate_checkpoint_files()?;
        let arms = spec.arms()?;
        let findings = lint_findings(&spec.benchmarks, spec.seed);
        if !findings.is_empty() {
            return Err(format!(
                "{} lint findings in the spec's benchmarks (seed {}): {}",
                findings.len(),
                spec.seed,
                findings.join("; "),
            ));
        }
        Ok(SpecInfo {
            id: spec.fingerprint_hex(),
            name: spec.name.clone(),
            canonical_spec: spec.to_json(),
            cells: spec.benchmarks.len() * arms.len(),
        })
    }

    fn execute(
        &self,
        spec_text: &str,
        cache_dir: &str,
        progress: &mut dyn FnMut(Progress),
    ) -> Result<RunOutput, String> {
        let spec = ExperimentSpec::from_json(spec_text)?;
        let h = self.harness();
        let sweep = spec.sweep(&h);
        let mut opts = DispatchOptions::from_harness(&h);
        opts.cache = Some(cache_dir.to_string());

        // The progress hook must be `'static` (it lives in a
        // thread-local), but `progress` is a borrow — so the sweep runs
        // on a scoped thread feeding a channel, and this thread relays
        // snapshots to the caller until the hook is dropped.
        let (tx, rx) = std::sync::mpsc::channel::<CellProgress>();
        let outcome = std::thread::scope(|scope| {
            let sweep = &sweep;
            let opts = &opts;
            let worker = scope.spawn(move || {
                with_cell_progress(
                    Box::new(move |p| {
                        let _ = tx.send(p);
                    }),
                    || sweep.run_distributed(opts),
                )
            });
            for p in rx {
                progress(Progress {
                    total: p.total,
                    done: p.done,
                    cached: p.cached,
                    degraded: p.degraded,
                });
            }
            worker.join().map_err(|_| "the sweep panicked".to_string())
        })?;
        let (trials, report) = outcome?;

        // No cache/dispatch sections in the stored document: the bytes
        // must match `exp run --json` (which has neither by default) —
        // the report travels separately, for run status.
        let doc = format!("{}\n", result_doc(&spec, &trials, None, None));
        Ok(RunOutput { doc, dispatch: Some(report.to_json().dump()) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "schema": "rix-exp/1",
        "name": "svc-unit",
        "benchmarks": ["gcc", "vortex"],
        "instructions": 1500,
        "seed": 7,
        "arms": [
            {"label": "base", "preset": "base"},
            {"label": "integration", "preset": "plus_reverse"}
        ]
    }"#;

    fn scratch(tag: &str) -> String {
        let dir =
            std::env::temp_dir().join(format!("rix-svc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_str().unwrap().to_string()
    }

    #[test]
    fn validate_reports_ids_and_rejects_junk() {
        let engine = ExpEngine::default();
        let info = engine.validate(SPEC).unwrap();
        let spec = ExperimentSpec::from_json(SPEC).unwrap();
        assert_eq!(info.id, spec.fingerprint_hex());
        assert_eq!(info.name.as_deref(), Some("svc-unit"));
        assert_eq!(info.cells, 4);
        assert_eq!(info.canonical_spec, spec.to_json());
        assert!(engine.validate("{").is_err());
        assert!(engine.validate(r#"{"schema":"rix-exp/1","benchmarks":[],"arms":[]}"#).is_err());
    }

    #[test]
    fn execute_matches_exp_run_bytes_and_reports_progress() {
        // Two cell threads: progress still steps once per cell.
        let engine = ExpEngine { threads: 2, ..ExpEngine::default() };
        let dir = scratch("exec");
        let mut snapshots: Vec<Progress> = Vec::new();
        let out = engine.execute(SPEC, &dir, &mut |p| snapshots.push(p)).unwrap();

        // The stored doc is byte-identical to the sections-free result
        // document of a direct run.
        let spec = ExperimentSpec::from_json(SPEC).unwrap();
        let trials = spec.sweep(&Harness::default()).try_run().unwrap();
        assert_eq!(out.doc, format!("{}\n", result_doc(&spec, &trials, None, None)));
        assert!(out.dispatch.is_some());

        // Progress arrived monotonically and finished complete.
        assert!(!snapshots.is_empty());
        assert!(snapshots.windows(2).all(|w| w[0].done <= w[1].done));
        let last = snapshots.last().unwrap();
        assert_eq!((last.total, last.done), (4, 4));
        assert_eq!(last.cached, 0, "cold cache");
        // One snapshot once the (zero) hits are in, then one per
        // simulated cell: the executor reports every cell, not a final
        // total.
        let done: Vec<usize> = snapshots.iter().map(|p| p.done).collect();
        assert_eq!(done, [0, 1, 2, 3, 4], "per-cell progress on a cold cache");

        // A second execution is all cache hits — and the doc is still
        // byte-identical (the cache never leaks into stored bytes).
        let mut warm: Vec<Progress> = Vec::new();
        let again = engine.execute(SPEC, &dir, &mut |p| warm.push(p)).unwrap();
        assert_eq!(again.doc, out.doc);
        assert_eq!(warm.last().unwrap().cached, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
