//! Simulation statistics.
//!
//! [`SimStats`] has two encodings. The lossless one (every raw counter;
//! the checkpoint, dispatch and trial-cache format) is generated from the
//! one field list below and those of its nested stats, so a new counter
//! is one line in its struct's list. The figure-facing view,
//! [`SimStats::to_json`], is written by hand because it mixes derived
//! metrics into an order the goldens pin: a counter the figures should
//! show is one more line there.

use rix_integration::IntegrationStats;
use rix_isa::json::{write_u64, JsonFields};
use std::fmt::Write as _;
use rix_mem::MemSystemStats;

/// Everything the evaluation section measures, accumulated over a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Elapsed machine cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Instructions fetched (including wrong-path).
    pub fetched: u64,
    /// Instructions that issued to the execution engine (integrating
    /// instructions bypass it and are not counted).
    pub executed: u64,
    /// Loads that executed (accessed the cache/store queue).
    pub loads_executed: u64,
    /// Loads retired (integrated or not).
    pub loads_retired: u64,
    /// Stores retired.
    pub stores_retired: u64,
    /// Integration accounting (Figures 4 and 5).
    pub integration: IntegrationStats,
    /// Conditional branches retired.
    pub cond_branches_retired: u64,
    /// Retired conditional branches that were mispredicted.
    pub branch_mispredicts: u64,
    /// Sum over retired mispredicted branches of (resolution cycle −
    /// prediction cycle); the paper's mis-prediction resolution latency.
    pub resolution_latency_sum: u64,
    /// Squashes triggered by branch/return mispredictions.
    pub squashes_branch: u64,
    /// Full squashes triggered by memory-order violations.
    pub squashes_memorder: u64,
    /// Flushes triggered by DIVA (mis-integration recovery).
    pub squashes_diva: u64,
    /// Per-cycle sum of busy reservation stations (for the §3.5 occupancy
    /// figure).
    pub rs_occupancy_sum: u64,
    /// Per-cycle sum of ROB occupancy.
    pub rob_occupancy_sum: u64,
    /// Rename stalls: no free physical register.
    pub stalls_preg: u64,
    /// Rename stalls: ROB full.
    pub stalls_rob: u64,
    /// Rename stalls: no reservation station.
    pub stalls_rs: u64,
    /// Rename stalls: memory-op window full.
    pub stalls_lsq: u64,
    /// Retirement stalls: write buffer full.
    pub stalls_writebuf: u64,
    /// Memory hierarchy counters.
    pub mem: MemSystemStats,
}

rix_isa::json_fields!(complete SimStats: "simulator stats" {
    cycles, retired, fetched, executed, loads_executed, loads_retired, stores_retired,
    cond_branches_retired, branch_mispredicts, resolution_latency_sum, squashes_branch,
    squashes_memorder, squashes_diva, rs_occupancy_sum, rob_occupancy_sum, stalls_preg,
    stalls_rob, stalls_rs, stalls_lsq, stalls_writebuf, integration, mem,
});

impl SimStats {
    /// Retired instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Average busy reservation stations per cycle.
    #[must_use]
    pub fn avg_rs_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.rs_occupancy_sum as f64 / self.cycles as f64
        }
    }

    /// Average mis-prediction resolution latency in cycles.
    #[must_use]
    pub fn branch_resolution_latency(&self) -> f64 {
        if self.branch_mispredicts == 0 {
            0.0
        } else {
            self.resolution_latency_sum as f64 / self.branch_mispredicts as f64
        }
    }

    /// Conditional-branch misprediction rate.
    #[must_use]
    pub fn mispredict_rate(&self) -> f64 {
        if self.cond_branches_retired == 0 {
            0.0
        } else {
            self.branch_mispredicts as f64 / self.cond_branches_retired as f64
        }
    }

    /// Fraction of retired loads that executed (1 − load integration
    /// rate; §3.5 reports a 27% reduction in executed loads).
    #[must_use]
    pub fn load_execution_fraction(&self) -> f64 {
        if self.loads_retired == 0 {
            0.0
        } else {
            self.loads_executed as f64 / self.loads_retired as f64
        }
    }
}

/// The outcome of [`crate::Simulator::run`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// Accumulated statistics.
    pub stats: SimStats,
    /// Whether the program executed a `halt`.
    pub halted: bool,
    /// From [`crate::Simulator::run`] / `run_budget`: the instruction
    /// budget was not met (the cycle safety net or deadlock window
    /// fired first — a deadlock or runaway). From a raw
    /// [`crate::Simulator::result`] snapshot: the machine is currently
    /// deadlocked.
    pub timed_out: bool,
}

// The lossless encoding (see `crate::checkpoint::result_to_json`).
rix_isa::json_fields!(complete RunResult: "run result" { halted, timed_out, stats });

impl RunResult {
    /// Retired IPC.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// Serialises the result as a JSON object. Hand-rolled (no
    /// dependencies); every counter plus the headline derived metrics.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        self.to_json_into(&mut out);
        out
    }

    /// Appends [`RunResult::to_json`]'s bytes to `out`, with no
    /// intermediate allocation.
    pub fn to_json_into(&self, out: &mut String) {
        out.push_str(r#"{"halted":"#);
        self.halted.write_json(out);
        out.push_str(r#","timed_out":"#);
        self.timed_out.write_json(out);
        out.push_str(r#","ipc":"#);
        json_f64(out, self.ipc());
        out.push_str(r#","stats":"#);
        self.stats.to_json_into(out);
        out.push('}');
    }
}

/// Appends a finite float as a JSON number; NaN/∞ (impossible for
/// ratios of counters, but defended anyway) become `null`.
fn json_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

impl SimStats {
    /// Serialises the statistics as the figure-facing JSON view (see
    /// [`RunResult::to_json`]): raw counters interleaved with derived
    /// metrics. The lossless encoding is
    /// [`crate::checkpoint::result_to_json`]'s.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        self.to_json_into(&mut out);
        out
    }

    /// Appends [`SimStats::to_json`]'s bytes to `out`, with no
    /// intermediate allocation.
    pub fn to_json_into(&self, out: &mut String) {
        let i = &self.integration;
        write_counters(out, &[(r#"{"cycles":"#, self.cycles), (r#","retired":"#, self.retired)]);
        out.push_str(r#","ipc":"#);
        json_f64(out, self.ipc());
        write_counters(
            out,
            &[
                (r#","fetched":"#, self.fetched),
                (r#","executed":"#, self.executed),
                (r#","loads_executed":"#, self.loads_executed),
                (r#","loads_retired":"#, self.loads_retired),
                (r#","stores_retired":"#, self.stores_retired),
                (r#","cond_branches_retired":"#, self.cond_branches_retired),
                (r#","branch_mispredicts":"#, self.branch_mispredicts),
            ],
        );
        out.push_str(r#","branch_resolution_latency":"#);
        json_f64(out, self.branch_resolution_latency());
        write_counters(
            out,
            &[
                (r#","squashes_branch":"#, self.squashes_branch),
                (r#","squashes_memorder":"#, self.squashes_memorder),
                (r#","squashes_diva":"#, self.squashes_diva),
            ],
        );
        out.push_str(r#","avg_rs_occupancy":"#);
        json_f64(out, self.avg_rs_occupancy());
        write_counters(
            out,
            &[
                (r#","stalls_preg":"#, self.stalls_preg),
                (r#","stalls_rob":"#, self.stalls_rob),
                (r#","stalls_rs":"#, self.stalls_rs),
                (r#","stalls_lsq":"#, self.stalls_lsq),
                (r#","stalls_writebuf":"#, self.stalls_writebuf),
                (r#","integration":{"direct":"#, i.direct),
                (r#","reverse":"#, i.reverse),
            ],
        );
        out.push_str(r#","rate":"#);
        json_f64(out, i.rate());
        write_counters(
            out,
            &[
                (r#","suppressed":"#, i.suppressed),
                (r#","mis_integrations":"#, i.mis_integrations),
                (r#","load_mis_integrations":"#, i.load_mis_integrations),
                (r#","register_mis_integrations":"#, i.register_mis_integrations),
            ],
        );
        out.push_str(r#","mis_per_million":"#);
        json_f64(out, i.mis_per_million());
        out.push_str(r#"},"mem":"#);
        self.mem.write_json(out);
        out.push('}');
    }
}

/// Appends each `(prefix, counter)` pair: the prefix (punctuation and
/// key), then the counter.
fn write_counters(out: &mut String, pairs: &[(&str, u64)]) {
    for &(prefix, n) in pairs {
        out.push_str(prefix);
        write_u64(out, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let mut s = SimStats { cycles: 100, retired: 150, ..SimStats::default() };
        assert!((s.ipc() - 1.5).abs() < 1e-12);
        s.rs_occupancy_sum = 3100;
        assert!((s.avg_rs_occupancy() - 31.0).abs() < 1e-12);
        s.branch_mispredicts = 4;
        s.resolution_latency_sum = 104;
        assert!((s.branch_resolution_latency() - 26.0).abs() < 1e-12);
        s.cond_branches_retired = 40;
        assert!((s.mispredict_rate() - 0.1).abs() < 1e-12);
        s.loads_retired = 100;
        s.loads_executed = 73;
        assert!((s.load_execution_fraction() - 0.73).abs() < 1e-12);
    }

    #[test]
    fn json_is_well_formed() {
        let r = RunResult {
            stats: SimStats { cycles: 100, retired: 150, ..SimStats::default() },
            halted: true,
            timed_out: false,
        };
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains(r#""halted":true"#));
        assert!(j.contains(r#""retired":150"#));
        assert!(j.contains(r#""ipc":1.5"#));
        assert!(j.contains(r#""l1d":{"hits":0"#));
        assert!(!j.contains("NaN") && !j.contains("inf"), "{j}");
    }

    #[test]
    fn zero_denominators() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.avg_rs_occupancy(), 0.0);
        assert_eq!(s.branch_resolution_latency(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
        assert_eq!(s.load_execution_fraction(), 0.0);
    }
}
