//! The scheduler's overflow lists carry real traffic and stay exact.
//!
//! The simulator schedules completion and wake events on a calendar of
//! `COMPLETION_RING` buckets (256 cycles); events further ahead wait in
//! `completions_far` / `wake_far` until they come into range. With the
//! default 80-cycle memory latency those lists are almost always empty.
//! Here memory takes 400 cycles, so every load that misses the L2 has
//! its completion, and its consumers' wakes, go through both far lists.
//!
//! The run must give exactly the `RunResult` pinned from a build whose
//! 4096-bucket ring held every such event in range, and must retire the
//! interpreter's architectural state.

use rix::prelude::*;

const SEED: u64 = 7;
const BUDGET: u64 = 25_000;
const MEM_LATENCY: u64 = 400;

/// `RunResult::to_json` of mcf at seed 7, 25k instructions, full
/// integration, `mem_latency` 400 — recorded with the 4096-bucket ring.
const PINNED: &str = "{\"halted\":false,\"timed_out\":false,\"ipc\":0.07686183130544916,\
    \"stats\":{\"cycles\":325298,\"retired\":25003,\"ipc\":0.07686183130544916,\
    \"fetched\":28870,\"executed\":22077,\"loads_executed\":2758,\"loads_retired\":3267,\
    \"stores_retired\":1454,\"cond_branches_retired\":1634,\"branch_mispredicts\":130,\
    \"branch_resolution_latency\":10.261538461538462,\"squashes_branch\":130,\
    \"squashes_memorder\":2,\"squashes_diva\":0,\
    \"avg_rs_occupancy\":21.20841505327423,\"stalls_preg\":0,\"stalls_rob\":308272,\
    \"stalls_rs\":2,\"stalls_lsq\":0,\"stalls_writebuf\":0,\
    \"integration\":{\"direct\":2160,\"reverse\":545,\"rate\":0.10818701755789305,\
    \"suppressed\":0,\"mis_integrations\":0,\"load_mis_integrations\":0,\
    \"register_mis_integrations\":0,\"mis_per_million\":0},\
    \"mem\":{\"l1i\":{\"hits\":8511,\"misses\":37,\"writebacks\":0},\"l1d\":{\"hits\":1792,\
    \"misses\":1444,\"writebacks\":0},\"l2\":{\"hits\":49,\"misses\":1432,\"writebacks\":0},\
    \"itlb_misses\":1,\"dtlb_misses\":699,\"mshr_merges\":614,\"write_buffer_stalls\":0,\
    \"backside_busy\":1481,\"membus_busy\":11456}}}";

#[test]
fn long_memory_latency_goes_through_the_far_lists_exactly() {
    let bench = by_name("mcf").expect("mcf is a workload");
    let program = bench.build(SEED);
    let mut cfg = SimConfig::default();
    cfg.mem.mem_latency = MEM_LATENCY;
    let mut sim = Simulator::new(&program, cfg);
    let result = sim.run_budget(BUDGET);

    // Loads really missed to memory, so the far lists were exercised.
    assert!(result.stats.mem.l2.misses > 100, "{:?}", result.stats.mem.l2);
    assert!(!result.timed_out, "the run met its budget");
    assert_eq!(result.to_json(), PINNED);

    let arch = sim.arch_state();
    let expected = Interp::new(&program, cfg.stack_top).fast_forward(arch.retired);
    assert_eq!(arch, expected, "retired state diverged from the interpreter");
}
