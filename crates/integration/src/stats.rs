//! Retirement-stream integration accounting (Figures 4 and 5).
//!
//! Integration rates are measured at **retirement** to avoid counting
//! integrations by squashed instructions and double-counting instructions
//! that integrated, squashed, and squash-reused (§3.2). The simulator
//! captures an [`IntegrationEvent`] at rename and commits it to
//! [`IntegrationStats`] when the instruction retires.

use rix_isa::{reg, ExecClass, Instr};

/// Direct (repetition-based) vs reverse (inverse-operation) integration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntegrationKind {
    /// Conventional reuse of a previously created entry.
    Direct,
    /// Reuse through a reverse entry (§2.4).
    Reverse,
}

/// Instruction classes of the Figure 5 "Type" breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntegrationType {
    /// Loads whose base register is the stack pointer (the reverse-
    /// integration target class).
    StackLoad,
    /// All other loads.
    OtherLoad,
    /// Integer and logical ALU operations.
    Alu,
    /// Conditional branches.
    Branch,
    /// Floating-point operations.
    Fp,
}

impl IntegrationType {
    /// Classifies an instruction (integration-eligible classes only).
    #[must_use]
    pub fn classify(instr: Instr) -> Self {
        match instr.exec_class() {
            ExecClass::Load if instr.src1 == Some(reg::SP) => Self::StackLoad,
            ExecClass::Load => Self::OtherLoad,
            ExecClass::CondBranch => Self::Branch,
            _ if instr.op.is_fp() => Self::Fp,
            _ => Self::Alu,
        }
    }

    /// All classes, in Figure 5 order.
    pub const ALL: [Self; 5] = [
        Self::StackLoad,
        Self::OtherLoad,
        Self::Alu,
        Self::Branch,
        Self::Fp,
    ];

    /// Index into per-type arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Self::StackLoad => 0,
            Self::OtherLoad => 1,
            Self::Alu => 2,
            Self::Branch => 3,
            Self::Fp => 4,
        }
    }

    /// Display label matching the paper's figure.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::StackLoad => "load sp",
            Self::OtherLoad => "load",
            Self::Alu => "ALU",
            Self::Branch => "branch",
            Self::Fp => "FP",
        }
    }
}

/// The state of the integrated result when the integrating instruction
/// was renamed (Figure 5 "Status").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResultStatus {
    /// Allocated but its producer had not issued yet — reuse that
    /// value-based mechanisms cannot perform, because the value does not
    /// exist yet.
    Rename,
    /// Producer issued but the original instruction had not retired.
    Issue,
    /// Producer completed and retired; mapping still architecturally
    /// live.
    Retire,
    /// Producer completed but the register was unmapped at integration
    /// time (squashed, or retired-and-overwritten).
    ShadowSquash,
}

impl ResultStatus {
    /// All statuses, in Figure 5 stack order.
    pub const ALL: [Self; 4] = [Self::Rename, Self::Issue, Self::Retire, Self::ShadowSquash];

    /// Index into per-status arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Self::Rename => 0,
            Self::Issue => 1,
            Self::Retire => 2,
            Self::ShadowSquash => 3,
        }
    }

    /// Display label matching the paper's figure.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Rename => "rename",
            Self::Issue => "issue",
            Self::Retire => "retire",
            Self::ShadowSquash => "shadow/squash",
        }
    }
}

/// Rename-distance buckets (Figure 5 "Distance"): the number of renamed
/// instructions between the entry's creator and its integrator.
pub const DISTANCE_BUCKETS: [u64; 6] = [4, 16, 64, 256, 1024, u64::MAX];

/// Labels for [`DISTANCE_BUCKETS`].
pub const DISTANCE_LABELS: [&str; 6] = ["<=4", "<=16", "<=64", "<=256", "<=1024", ">1024"];

/// Post-integration reference-count buckets (Figure 5 "Refcount"): the
/// sharing degrees representable by 1-, 2-, 3- and 4-bit counters.
pub const REFCOUNT_BUCKETS: [u8; 4] = [1, 3, 7, 15];

/// Labels for [`REFCOUNT_BUCKETS`].
pub const REFCOUNT_LABELS: [&str; 4] = ["1", "<=3", "<=7", "<=15"];

/// One retired integration, as captured at rename time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntegrationEvent {
    /// Direct or reverse.
    pub kind: IntegrationKind,
    /// Instruction class.
    pub itype: IntegrationType,
    /// Renamed instructions between creator and integrator.
    pub distance: u64,
    /// Result state at integration time.
    pub status: ResultStatus,
    /// Reference count after the integration's increment; 0 for branch
    /// integrations, which share an outcome rather than a register (they
    /// are excluded from the refcount histogram).
    pub refcount: u8,
}

/// Aggregated retirement-stream integration statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IntegrationStats {
    /// Retired instructions that integrated directly.
    pub direct: u64,
    /// Retired instructions that integrated via reverse entries.
    pub reverse: u64,
    /// Retired instructions (denominator of the integration rate).
    pub retired: u64,
    /// Mis-integrations detected by DIVA.
    pub mis_integrations: u64,
    /// Of which: loads (store-conflict mis-integrations).
    pub load_mis_integrations: u64,
    /// Of which: register mis-integrations (stale-entry coincidences).
    pub register_mis_integrations: u64,
    /// Integrations suppressed (LISP hit or oracle veto).
    pub suppressed: u64,
    /// Per-type counts, `[type][0]` = direct, `[type][1]` = reverse.
    pub by_type: [[u64; 2]; 5],
    /// Distance histogram, same direct/reverse split.
    pub by_distance: [[u64; 2]; 6],
    /// Status histogram.
    pub by_status: [[u64; 2]; 4],
    /// Refcount histogram.
    pub by_refcount: [[u64; 2]; 4],
}

rix_isa::json_fields!(complete IntegrationStats: "integration stats" {
    direct, reverse, retired, mis_integrations, load_mis_integrations, register_mis_integrations,
    suppressed, by_type, by_distance, by_status, by_refcount,
});

impl IntegrationStats {
    /// Creates zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one retired integration.
    pub fn record(&mut self, ev: IntegrationEvent) {
        let k = match ev.kind {
            IntegrationKind::Direct => {
                self.direct += 1;
                0
            }
            IntegrationKind::Reverse => {
                self.reverse += 1;
                1
            }
        };
        self.by_type[ev.itype.index()][k] += 1;
        let d = DISTANCE_BUCKETS.iter().position(|&b| ev.distance <= b).unwrap_or(5);
        self.by_distance[d][k] += 1;
        self.by_status[ev.status.index()][k] += 1;
        if ev.refcount > 0 {
            let r = REFCOUNT_BUCKETS.iter().position(|&b| ev.refcount <= b).unwrap_or(3);
            self.by_refcount[r][k] += 1;
        }
    }

    /// Total retired integrations.
    #[must_use]
    pub fn integrations(&self) -> u64 {
        self.direct + self.reverse
    }

    /// The integration rate: integrating retired instructions over all
    /// retired instructions.
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.integrations() as f64 / self.retired as f64
        }
    }

    /// Direct-only integration rate.
    #[must_use]
    pub fn direct_rate(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.direct as f64 / self.retired as f64
        }
    }

    /// Reverse-only integration rate.
    #[must_use]
    pub fn reverse_rate(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.reverse as f64 / self.retired as f64
        }
    }

    /// Mis-integrations per one million retired instructions (the number
    /// printed atop each Figure 4 bar).
    #[must_use]
    pub fn mis_per_million(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.mis_integrations as f64 * 1.0e6 / self.retired as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rix_isa::{Instr, Opcode};

    #[test]
    fn classify_types() {
        use IntegrationType::*;
        assert_eq!(
            IntegrationType::classify(Instr::load(Opcode::Ldq, reg::S0, reg::SP, 8)),
            StackLoad
        );
        assert_eq!(
            IntegrationType::classify(Instr::load(Opcode::Ldq, reg::S0, reg::R2, 8)),
            OtherLoad
        );
        assert_eq!(
            IntegrationType::classify(Instr::alu_rr(Opcode::Addq, reg::R1, reg::R2, reg::R3)),
            Alu
        );
        assert_eq!(
            IntegrationType::classify(Instr::cond_branch(Opcode::Beq, reg::R1, 9)),
            Branch
        );
        assert_eq!(
            IntegrationType::classify(Instr::alu_rr(Opcode::Addt, reg::F0, reg::F1, reg::F2)),
            Fp
        );
    }

    #[test]
    fn record_fills_histograms() {
        let mut s = IntegrationStats::new();
        s.record(IntegrationEvent {
            kind: IntegrationKind::Direct,
            itype: IntegrationType::Alu,
            distance: 3,
            status: ResultStatus::Retire,
            refcount: 2,
        });
        s.record(IntegrationEvent {
            kind: IntegrationKind::Reverse,
            itype: IntegrationType::StackLoad,
            distance: 500,
            status: ResultStatus::ShadowSquash,
            refcount: 1,
        });
        s.retired = 10;
        assert_eq!(s.direct, 1);
        assert_eq!(s.reverse, 1);
        assert_eq!(s.integrations(), 2);
        assert!((s.rate() - 0.2).abs() < 1e-12);
        assert_eq!(s.by_type[IntegrationType::Alu.index()][0], 1);
        assert_eq!(s.by_type[IntegrationType::StackLoad.index()][1], 1);
        assert_eq!(s.by_distance[0][0], 1); // 3 ≤ 4
        assert_eq!(s.by_distance[4][1], 1); // 500 ≤ 1024
        assert_eq!(s.by_status[ResultStatus::Retire.index()][0], 1);
        assert_eq!(s.by_refcount[1][0], 1); // 2 ≤ 3
        assert_eq!(s.by_refcount[0][1], 1); // 1
    }

    #[test]
    fn rates_with_zero_retired() {
        let s = IntegrationStats::new();
        assert_eq!(s.rate(), 0.0);
        assert_eq!(s.mis_per_million(), 0.0);
    }

    #[test]
    fn mis_per_million_math() {
        let mut s = IntegrationStats::new();
        s.retired = 2_000_000;
        s.mis_integrations = 50;
        assert!((s.mis_per_million() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn labels_are_paper_labels() {
        assert_eq!(IntegrationType::StackLoad.label(), "load sp");
        assert_eq!(ResultStatus::ShadowSquash.label(), "shadow/squash");
        assert_eq!(DISTANCE_LABELS[0], "<=4");
        assert_eq!(REFCOUNT_LABELS[3], "<=15");
    }
}
