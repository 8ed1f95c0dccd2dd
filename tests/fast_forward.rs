//! Functional fast-forward equivalence: for **every** workload, under
//! both the baseline and the full-integration configuration, the
//! detailed out-of-order machine retires into exactly the architectural
//! state the reference interpreter reports at the same retired position
//! — and a machine *booted* mid-program from an interpreter snapshot
//! (`Simulator::from_arch_state`) keeps retiring into interpreter
//! states.
//!
//! Equality is on the whole [`ArchState`]: PC, all 64 logical
//! registers, the retired position, and the memory image word-for-word.

use rix::prelude::*;

const SEED: u64 = 7;
const BUDGET: u64 = 2_500;

fn configs() -> Vec<(&'static str, SimConfig)> {
    vec![("base", SimConfig::baseline()), ("integration", SimConfig::default())]
}

#[test]
fn detailed_machine_retires_into_interpreter_states() {
    for bench in all_benchmarks() {
        let program = bench.build(SEED);
        for (label, cfg) in configs() {
            // Run the detailed machine cold to (at least) the budget;
            // retirement width means it may overshoot by a few, so ask
            // the interpreter for the exact position reached.
            let mut sim = Simulator::new(&program, cfg);
            sim.run_until(&StopWhen::budget(BUDGET));
            let state = sim.arch_state();
            assert!(state.retired >= BUDGET, "{}/{label} met the budget", bench.name);

            let expected =
                Interp::new(&program, cfg.stack_top).fast_forward(state.retired);
            assert_eq!(
                state, expected,
                "{}/{label}: detailed arch state diverged from the interpreter \
                 at retirement {}",
                bench.name, expected.retired
            );

            // Fork the detailed machine from the snapshot (cold
            // microarchitecture, mid-program architecture) and keep
            // going: it must continue retiring into interpreter states.
            let mut resumed = Simulator::from_arch_state(&program, cfg, &state);
            assert_eq!(resumed.retired_total(), state.retired);
            resumed.run_until(&StopWhen::budget(1_000));
            let later = resumed.arch_state();
            assert!(later.retired >= state.retired + 1_000);
            let expected_later =
                Interp::new(&program, cfg.stack_top).fast_forward(later.retired);
            assert_eq!(
                later, expected_later,
                "{}/{label}: resumed session diverged from the interpreter",
                bench.name
            );
        }
    }
}

/// `Interp::fast_forward(n)` is itself resumable: forwarding in two hops
/// lands on the same state as one, for every workload.
#[test]
fn fast_forward_composes() {
    for bench in all_benchmarks() {
        let program = bench.build(SEED);
        let stack_top = SimConfig::default().stack_top;
        let whole = Interp::new(&program, stack_top).fast_forward(BUDGET);
        let mut first = Interp::new(&program, stack_top);
        let mid = first.fast_forward(BUDGET / 3);
        let two_hop = Interp::from_arch_state(&program, mid).fast_forward(BUDGET - BUDGET / 3);
        assert_eq!(two_hop, whole, "{}", bench.name);
    }
}

/// Where [`fast_forward_reproduces_the_committed_fixture`] keeps its
/// expectations.
fn fixture_path() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/fast_forward.json")
}

/// Functional instructions per fixture entry.
const FIXTURE_INSTRUCTIONS: u64 = 500_000;

/// The fixture document: one line per (benchmark, seed) with the state
/// `Interp::fast_forward(FIXTURE_INSTRUCTIONS)` reaches — `pc`,
/// `retired`, `halted` and the 128-bit FNV-1a of its `to_json()` bytes
/// (so registers and the whole memory image are covered).
fn fixture_document() -> String {
    let stack_top = SimConfig::default().stack_top;
    let mut lines = Vec::new();
    for bench in all_benchmarks() {
        for seed in [1, 7] {
            let program = bench.build(seed);
            let s = Interp::new(&program, stack_top).fast_forward(FIXTURE_INSTRUCTIONS);
            lines.push(format!(
                r#"  {{"bench":"{}","seed":{seed},"pc":{},"retired":{},"halted":{},"hash":"{}"}}"#,
                bench.name,
                s.pc,
                s.retired,
                s.halted,
                rix_dispatch::hash::fnv128_hex(s.to_json().as_bytes()),
            ));
        }
    }
    format!(
        "{{\"instructions\":{FIXTURE_INSTRUCTIONS},\"entries\":[\n{}\n]}}\n",
        lines.join(",\n")
    )
}

/// Every workload at seeds 1 and 7 fast-forwards into the states the
/// committed fixture records, bit for bit. Regenerate it only for a
/// deliberate architectural change:
///
/// ```text
/// RIX_BLESS=1 cargo test --test fast_forward
/// ```
#[test]
fn fast_forward_reproduces_the_committed_fixture() {
    let got = fixture_document();
    let path = fixture_path();
    if std::env::var_os("RIX_BLESS").is_some() {
        std::fs::write(&path, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("fixture is committed");
    let drifted: Vec<_> = want.lines().zip(got.lines()).filter(|(w, g)| w != g).collect();
    assert!(
        want == got,
        "fast-forward states drifted from {path:?} ({} lines differ):\n{drifted:#?}",
        drifted.len()
    );
}
