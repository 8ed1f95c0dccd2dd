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
use rix_isa::json::JsonFields;
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
        format!(
            r#"{{"halted":{},"timed_out":{},"ipc":{},"stats":{}}}"#,
            self.halted,
            self.timed_out,
            json_f64(self.ipc()),
            self.stats.to_json()
        )
    }
}

/// A finite float as a JSON number; NaN/∞ (impossible for ratios of
/// counters, but defended anyway) become `null`.
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

impl SimStats {
    /// Serialises the statistics as the figure-facing JSON view (see
    /// [`RunResult::to_json`]): raw counters interleaved with derived
    /// metrics. The lossless encoding is
    /// [`crate::checkpoint::result_to_json`]'s.
    #[must_use]
    pub fn to_json(&self) -> String {
        let integration = format!(
            concat!(
                r#"{{"direct":{},"reverse":{},"rate":{},"suppressed":{},"#,
                r#""mis_integrations":{},"load_mis_integrations":{},"#,
                r#""register_mis_integrations":{},"mis_per_million":{}}}"#
            ),
            self.integration.direct,
            self.integration.reverse,
            json_f64(self.integration.rate()),
            self.integration.suppressed,
            self.integration.mis_integrations,
            self.integration.load_mis_integrations,
            self.integration.register_mis_integrations,
            json_f64(self.integration.mis_per_million()),
        );
        let mut mem = String::with_capacity(256);
        self.mem.write_json(&mut mem);
        format!(
            concat!(
                r#"{{"cycles":{},"retired":{},"ipc":{},"fetched":{},"executed":{},"#,
                r#""loads_executed":{},"loads_retired":{},"stores_retired":{},"#,
                r#""cond_branches_retired":{},"branch_mispredicts":{},"#,
                r#""branch_resolution_latency":{},"squashes_branch":{},"#,
                r#""squashes_memorder":{},"squashes_diva":{},"avg_rs_occupancy":{},"#,
                r#""stalls_preg":{},"stalls_rob":{},"stalls_rs":{},"stalls_lsq":{},"#,
                r#""stalls_writebuf":{},"integration":{},"mem":{}}}"#
            ),
            self.cycles,
            self.retired,
            json_f64(self.ipc()),
            self.fetched,
            self.executed,
            self.loads_executed,
            self.loads_retired,
            self.stores_retired,
            self.cond_branches_retired,
            self.branch_mispredicts,
            json_f64(self.branch_resolution_latency()),
            self.squashes_branch,
            self.squashes_memorder,
            self.squashes_diva,
            json_f64(self.avg_rs_occupancy()),
            self.stalls_preg,
            self.stalls_rob,
            self.stalls_rs,
            self.stalls_lsq,
            self.stalls_writebuf,
            integration,
            mem,
        )
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
