//! # rix — register integration, three ways
//!
//! `rix` reproduces *"Three Extensions to Register Integration"* (Amir
//! Roth, Anne Bracy, Vlad Petric; U. Penn MS-CIS-02-22, 2002): a
//! cycle-level 4-way superscalar out-of-order simulator whose register
//! renamer implements **register integration** — instruction reuse via
//! physical register sharing — together with the paper's three extensions:
//!
//! 1. **general reuse** through physical-register reference counting,
//! 2. **opcode/immediate/call-depth integration-table indexing**, and
//! 3. **reverse integration**, which turns stack saves/restores into free
//!    speculative memory bypassing.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! * [`isa`] — the RIX instruction set and assembler,
//! * [`mem`] — the cache/TLB/bus memory hierarchy,
//! * [`frontend`] — branch prediction and fetch,
//! * [`integration`] — the integration table, reference-count vector, LISP,
//! * [`analysis`] — static analysis over programs: CFG, dataflow, the
//!   `RIXnnn` lints, and the integration-opportunity oracle,
//! * [`sim`] — the out-of-order pipeline with DIVA verification, driven
//!   through resumable sessions (`step` / `run_until` / `reset_stats`),
//! * [`workloads`] — synthetic SPEC2000int-like benchmark programs,
//! * [`dispatch`] — multi-process experiment dispatch: the
//!   coordinator/worker pool and the content-addressed trial cache,
//! * [`bench`](mod@bench) — the experiment layer: the thread-parallel [`Sweep`]
//!   grid runner and the figure binaries' shared [`Harness`].
//!
//! [`Sweep`]: bench::Sweep
//! [`Harness`]: bench::Harness
//!
//! ## Quickstart
//!
//! ```
//! use rix::prelude::*;
//!
//! // A stack-heavy workload and two machines: baseline and full
//! // integration (+general +opcode +reverse). Lookup ignores case.
//! let program = by_name("VORTEX").expect("known workload").build(7);
//!
//! // Resumable sessions make warm-up explicit: run 30k instructions to
//! // fill the caches and predictors, zero the counters while keeping
//! // the machine state, then measure 20k instructions hot.
//! let measure = |cfg: SimConfig| {
//!     let mut sim = Simulator::new(&program, cfg);
//!     sim.run_until(&StopWhen::RetiredAtLeast(30_000));
//!     sim.reset_stats();
//!     sim.run_until(&StopWhen::RetiredAtLeast(20_000));
//!     sim.into_result()
//! };
//! let r0 = measure(SimConfig::baseline());
//! let r1 = measure(SimConfig::default());
//! assert!(r1.stats.integration.rate() > 0.05, "integration fires");
//! assert!(r1.ipc() > r0.ipc(), "integration speeds the machine up");
//! ```
//!
//! The same comparison over a (benchmark × config) grid is a [`Sweep`]
//! (`.threads(n)` fans it out over a worker pool; trial order does not
//! depend on the thread count):
//!
//! ```
//! use rix::prelude::*;
//!
//! let trials = Sweep::new()
//!     .benchmarks([by_name("vortex").unwrap()])
//!     .config("base", SimConfig::baseline())
//!     .config("integration", SimConfig::default())
//!     .instructions(20_000)
//!     .warmup(30_000)
//!     .threads(2)
//!     .run();
//! assert!(trials[1].result.ipc() > trials[0].result.ipc());
//! ```
//!
//! **Migrating from the pre-session API:** `Simulator::run(n)` still
//! works (it is now a wrapper over `run_until` with a retired-count /
//! cycle-safety stop condition), but hand-rolled loops over benchmarks
//! and configs are better expressed as a `Sweep`, which adds warm-up
//! and threading for free.
//!
//! ## Fast-forward warm-up, checkpoint, fork a sweep
//!
//! Architectural state is one shared type, [`ArchState`] — PC, logical
//! registers, memory image, retired position — that every engine speaks:
//! the reference interpreter ([`Interp`]) steps one, the detailed
//! simulator retires into one and can boot from one mid-program
//! (borrowing it: the arms of a sweep share the snapshot's memory until
//! each first stores to a page), and sessions serialise one to disk
//! inside a [`Checkpoint`].
//!
//! [`ArchState`]: isa::ArchState
//! [`Interp`]: isa::interp::Interp
//! [`Checkpoint`]: sim::Checkpoint
//!
//! ```
//! use rix::prelude::*;
//!
//! let program = by_name("gcc").expect("known workload").build(7);
//!
//! // 1. Fast-forward the warm-up at interpreter speed (no
//! //    microarchitecture simulated at all) ...
//! let warm = Interp::new(&program, SimConfig::default().stack_top).fast_forward(30_000);
//! assert_eq!(warm.retired, 30_000);
//!
//! // 2. ... fork every config arm from the shared snapshot ...
//! let mut base = Simulator::from_arch_state(&program, SimConfig::baseline(), &warm);
//! let mut full = Simulator::from_arch_state(&program, SimConfig::default(), &warm);
//! base.run_until(&StopWhen::RetiredAtLeast(10_000));
//! full.run_until(&StopWhen::RetiredAtLeast(10_000));
//!
//! // 3. ... and both arms retire into exactly the architectural states
//! //    the interpreter visits (equality covers memory, not just
//! //    registers).
//! let pos = base.arch_state().retired;
//! let reference = Interp::new(&program, SimConfig::default().stack_top).fast_forward(pos);
//! assert_eq!(base.arch_state(), reference);
//!
//! // 4. Checkpoint a session mid-run: save, reload, resume — the disk
//! //    round trip is byte-identical to never having stopped.
//! let ck = full.checkpoint();
//! let restored = Checkpoint::from_json(&ck.to_json()).expect("lossless");
//! let mut resumed = Simulator::from_checkpoint(&program, SimConfig::default(), &restored);
//! // (the budget counts the ~10k instructions already measured, so aim
//! // past them to actually simulate on both sides)
//! assert_eq!(full.run_budget(15_000).to_json(), resumed.run_budget(15_000).to_json());
//! ```
//!
//! The sweep layer packages step 1–2 as
//! [`Sweep::warmup_mode`]`(`[`WarmupMode::Functional`]`)`: one
//! interpreter fast-forward per (benchmark, seed), shared by every
//! config arm, instead of one detailed warm-up per cell.
//!
//! [`Sweep::warmup_mode`]: bench::Sweep::warmup_mode
//! [`WarmupMode::Functional`]: bench::WarmupMode::Functional
//!
//! **Warm-up migration note:** `Sweep`'s default is unchanged —
//! [`WarmupMode::Detailed`](bench::WarmupMode::Detailed) runs the
//! warm-up on the detailed machine per cell, and warm-up-free sweeps
//! stay byte-identical to earlier releases. Functional warm-up is
//! **opt-in** because it changes methodology: the measured interval
//! starts with cold caches/predictors/integration table, so absolute
//! numbers shift (relative comparisons across arms share identical
//! starting conditions, and the sweep's wall clock drops by roughly the
//! per-arm warm-up cost).
//!
//! ## Define a ParamSpace, run it, seed it from a checkpoint
//!
//! Experiments are first-class **data**. Every configuration type
//! round-trips exactly through JSON ([`SimConfig::to_json`] /
//! [`SimConfig::from_json`], unknown keys rejected, omitted fields
//! defaulted), every design point of the paper is a named preset
//! ([`SimConfig::preset`]`("base")`, `"iw3_rs20"`, `"plus_reverse"`,
//! …), and a grid of configurations is a [`ParamSpace`]: named axes
//! over config fields, composed by cross product or zipped, each point
//! yielding a labelled arm.
//!
//! [`SimConfig::to_json`]: sim::SimConfig::to_json
//! [`SimConfig::from_json`]: sim::SimConfig::from_json
//! [`SimConfig::preset`]: sim::SimConfig::preset
//! [`ParamSpace`]: bench::ParamSpace
//!
//! ```
//! use rix::prelude::*;
//!
//! // 1. Define: Figure 6's IT-size axis over the headline machine,
//! //    the register file zipped to grow with the 4K point.
//! let space = ParamSpace::point("base", SimConfig::preset("base").unwrap()).chain(
//!     ParamSpace::base(SimConfig::preset("plus_reverse").unwrap())
//!         .cross(&Axis::new("it_entries", [256u64, 1024, 4096])
//!             .with_labels(["256", "1K", "4K"]))
//!         .zip(&Axis::new("it_ways", [256u64, 1024, 4096]))
//!         .zip(&Axis::new("num_pregs", [1024u64, 1024, 4096])),
//! );
//!
//! // 2. Run it: the space's arms are the sweep's grid columns.
//! let trials = Sweep::new()
//!     .benchmarks([by_name("vortex").unwrap()])
//!     .space(space)
//!     .instructions(2_000)
//!     .threads(2)
//!     .run();
//! let labels: Vec<&str> = trials.iter().map(|t| t.config_label.as_str()).collect();
//! assert_eq!(labels, ["base", "256", "1K", "4K"]);
//!
//! // 3. Seed a sweep from a saved checkpoint: save one snapshot per
//! //    (benchmark, seed) where the sweep will look for it, then every
//! //    config arm forks from the snapshot instead of warming up.
//! let dir = std::env::temp_dir().join("rix-doc-ckpts");
//! std::fs::create_dir_all(&dir).unwrap();
//! let program = by_name("vortex").unwrap().build(7);
//! let mut warm = Simulator::new(&program, SimConfig::default());
//! warm.run_until(&StopWhen::RetiredAtLeast(5_000));
//! let dir = dir.to_str().unwrap().to_string();
//! warm.checkpoint().save(checkpoint_path(&dir, "vortex", 7)).unwrap();
//!
//! let seeded = Sweep::new()
//!     .benchmarks([by_name("vortex").unwrap()])
//!     .space(ParamSpace::presets([("base", "base"), ("integration", "plus_reverse")]))
//!     .instructions(2_000)
//!     .warmup_mode(WarmupMode::Checkpoint { dir })
//!     .run();
//! assert!(seeded.iter().all(|t| t.result.stats.retired >= 2_000));
//! ```
//!
//! The same experiment is expressible as a **spec file** (schema
//! `rix-exp/1`, see [`ExperimentSpec`](bench::ExperimentSpec)): the five
//! figure binaries are committed specs under `specs/` driving one
//! engine, and `exp run spec.json` (with `--dry-run`, `--list-arms`,
//! `--json`, `--output`) runs any spec from the command line, embedding
//! the spec's fingerprint in its results.
//!
//! **Migration note (`Sweep::configs`):** hand-built
//! `(label, SimConfig)` lists still work — `Sweep::config`/`configs`
//! are unchanged — but grids over config *fields* are better said as a
//! `ParamSpace` (axes compose, labels derive, zip expresses tied
//! fields), and experiments worth committing are better said as spec
//! files: data that `exp` can run, validate and fingerprint.
//!
//! ## Distributed experiments: worker processes and the trial cache
//!
//! Big grids shard across worker **processes** (crash isolation — a
//! worker taken down by a bug or the OOM killer costs a retry, not the
//! run) and re-runs reuse cached trials. On the command line every
//! figure binary and `exp` take the same two flags:
//!
//! ```text
//! exp run specs/fig4.json --workers 4 --cache ~/.rix-cache --json
//! # edit one arm of the spec, re-run: only that arm's cells simulate
//! exp run specs/fig4.json --workers 4 --cache ~/.rix-cache --json
//! ```
//!
//! The coordinator re-execs its own binary as workers, streams cell
//! assignments over stdio (schema `rix-dispatch/2`), detects dead or
//! hung workers and retries their cells on survivors — and the merged
//! trials are **byte-identical** to a single-process run for any worker
//! count, fault history, or cache state, so `--workers`/`--cache` are
//! pure execution policy, never methodology. The same machinery is
//! callable from code ([`DispatchOptions::workers`]` = 0` executes
//! in-process, still through the cache):
//!
//! ```
//! use rix::prelude::*;
//!
//! let dir = std::env::temp_dir().join("rix-doc-trial-cache");
//! # let _ = std::fs::remove_dir_all(&dir);
//! let sweep = Sweep::new()
//!     .benchmarks([by_name("vortex").unwrap()])
//!     .config("base", SimConfig::baseline())
//!     .config("integration", SimConfig::default())
//!     .instructions(1_500);
//! let opts = DispatchOptions {
//!     cache: Some(dir.to_str().unwrap().to_string()),
//!     ..DispatchOptions::default()
//! };
//!
//! let (cold, first) = sweep.run_distributed(&opts).unwrap();
//! assert_eq!((first.cache_hits, first.simulated), (0, 2));
//!
//! // An identical re-run simulates nothing and reproduces every trial.
//! let (warm, again) = sweep.run_distributed(&opts).unwrap();
//! assert_eq!((again.cache_hits, again.simulated), (2, 0));
//! assert_eq!(cold[0].to_json(), warm[0].to_json());
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```
//!
//! Cache entries are addressed by a 128-bit content hash of everything
//! that determines a cell's result (benchmark, seed, the arm's full
//! canonical config, budgets, warm-up policy — including the checkpoint
//! *file content* under checkpoint warm-up) and nothing that doesn't
//! (thread/worker counts, paths, spec names), so invalidation is exact
//! and caches are shareable across specs. Writes are atomic and corrupt
//! entries read as misses. Under [`WarmupMode::Checkpoint`] the workers
//! load the same `rix-ckpt/1` snapshots the in-process path does, and
//! `exp run --dry-run` verifies the snapshot files exist before a run
//! is scheduled.
//!
//! [`DispatchOptions::workers`]: bench::DispatchOptions
//! [`WarmupMode::Checkpoint`]: bench::WarmupMode::Checkpoint
//!
//! ## Lint a generated workload, then run it
//!
//! Every simulated data point starts life as a generated program, and a
//! generator bug — a read-before-write, an unreachable block, a missing
//! `halt` — silently becomes a bogus result. The [`analysis`] layer
//! vets a program *before* the simulator burns cycles on it, and its
//! static integration-opportunity oracle bounds the integration-table
//! hits any run of that program can produce (the `lint` binary wraps
//! the same calls for the command line, and `exp --dry-run` lints every
//! benchmark a spec references):
//!
//! ```
//! use rix::prelude::*;
//!
//! let program = by_name("vortex").expect("known workload").build(7);
//!
//! // 1. Lint: the shipped workloads are clean. A finding carries a
//! //    stable code, the PC, and a rendered message.
//! let findings = lint_program(&program);
//! assert!(findings.is_empty(), "{findings:?}");
//!
//! // 2. The static oracle: most static instructions are integration
//! //    eligible, and some are reverse-integration pairs (§2.4 saves
//! //    paired with restores).
//! let opp = analyze_program(&program);
//! assert!(opp.opportunity_fraction() > 0.5);
//! assert!(opp.reverse_pairs > 0);
//!
//! // 3. Run it: the dynamic IT hit count is below the oracle's bound —
//! //    a machine-checked link between the static and dynamic views.
//! let r = Simulator::new(&program, SimConfig::default()).run(20_000);
//! let hits = r.stats.integration.integrations();
//! assert!(hits > 0);
//! assert!(hits <= opp.hit_bound(r.stats.retired));
//! ```

pub use rix_analysis as analysis;
pub use rix_bench as bench;
pub use rix_dispatch as dispatch;
pub use rix_frontend as frontend;
pub use rix_integration as integration;
pub use rix_isa as isa;
pub use rix_mem as mem;
pub use rix_sim as sim;
pub use rix_workloads as workloads;

/// Commonly used items, re-exported for examples and tests.
///
/// Two stop-reason types coexist here, one per engine:
/// [`StopReason`](rix_sim::StopReason) is why a **cycle-level session**
/// returned (halt / retired threshold / cycle threshold / deadlock),
/// while [`InterpStopReason`](rix_isa::interp::StopReason) is why the
/// **functional interpreter** stopped (halt / step limit / fell off the
/// program). The interpreter's type is re-exported under the `Interp`
/// prefix so the two never shadow each other.
pub mod prelude {
    pub use rix_analysis::{
        analyze_program, lint_program, Cfg, Dataflow, Diagnostic, LintCode, Opportunity,
    };
    pub use rix_bench::{
        checkpoint_path, trials_json, Axis, AxisValue, DispatchOptions, DispatchReport,
        ExperimentSpec, Harness, ParamSpace, Sweep, Trial, WarmupMode,
    };
    pub use rix_dispatch::ResultCache;
    pub use rix_integration::{IndexScheme, IntegrationConfig, ReverseScope, Suppression};
    pub use rix_isa::interp::{Interp, StopReason as InterpStopReason};
    pub use rix_isa::{reg, ArchState, Asm, Instr, MemImage, Opcode, Program};
    pub use rix_sim::{Checkpoint, RunResult, SimConfig, Simulator, StopReason, StopWhen};
    pub use rix_workloads::{all_benchmarks, by_name, lookup, Benchmark};
}
