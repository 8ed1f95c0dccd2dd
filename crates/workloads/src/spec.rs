//! Per-benchmark generator parameters.
//!
//! Each [`Spec`] encodes what §3 of the paper reports about the
//! corresponding SPEC2000int program: call structure, save/restore
//! density, reuse fodder, branch entropy, and memory behaviour. The
//! constants here are the calibration knobs for the reproduction — they
//! were chosen so the *relative* behaviour across benchmarks matches the
//! paper's descriptions (which programs are call-intensive, which are
//! hurt by opcode indexing, which are memory-bound), not to match any
//! absolute number.

use crate::Benchmark;

/// Immediate-value diversity of the generated code.
///
/// Call-poor programs with [`ImmDiversity::Low`] concentrate on a few
/// opcode/immediate shapes, which is exactly what makes opcode-indexed
/// integration tables conflict (§3.2: gzip and vpr.r lose ~5% integration
/// rate under opcode indexing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ImmDiversity {
    /// A handful of immediates (`0`, `8`, `16`) — IT sets alias heavily.
    Low,
    /// A broad pool of immediates — IT sets spread well.
    High,
}

/// Generator parameters for one benchmark point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Spec {
    /// Distinct callable functions.
    pub num_funcs: usize,
    /// Maximum call-nesting depth below `main` (functions chain-call).
    pub nest_depth: usize,
    /// Callee-saved registers saved/restored per function (0–5).
    pub saves_per_func: usize,
    /// Caller-saved slots spilled around each call site (0–3).
    pub caller_saves: usize,
    /// Call sites per outer-loop iteration.
    pub calls_per_iter: usize,
    /// Inner-loop trip count.
    pub inner_trip: u32,
    /// Un-hoisted loop-invariant chain length per body.
    pub invariants: usize,
    /// Twin (duplicated-shape) static instruction pairs per body —
    /// integration across different PCs, the §2.3 opcode-indexing win.
    pub twin_ops: usize,
    /// Same-shape, distinct-input operations at call depth 0 — the
    /// opcode-indexing conflict loss.
    pub aliasing_ops: usize,
    /// Data-dependent reconvergent hammocks per body.
    pub hammocks: usize,
    /// RNG mask for hammock conditions (1 = 50/50, 3 = 25/75, …).
    pub hammock_mask: u32,
    /// Fixed-address loads per body (load reuse fodder).
    pub redundant_loads: usize,
    /// Strided loads per inner-loop iteration.
    pub walk_loads: usize,
    /// Stores per inner-loop iteration.
    pub stores_per_body: usize,
    /// Same-address store→load pairs per body (mis-integration fodder).
    pub conflict_pairs: usize,
    /// Reusable dependent load chains per body (address computation
    /// feeding a load feeding the next address).
    pub chain_loads: usize,
    /// Floating-point operation triples per body.
    pub fp_ops: usize,
    /// Array-walk footprint in 64-bit words (power of two).
    pub footprint_words: u64,
    /// Walk stride in words.
    pub stride: u64,
    /// Whether the outer loop chases a pointer cycle (mcf).
    pub pointer_chase: bool,
    /// Nodes in the chase arena (power of two).
    pub chase_nodes: u64,
    /// Bounded recursion depth, if the benchmark recurses (crafty).
    pub recursion: Option<u32>,
    /// Immediate diversity.
    pub imm_diversity: ImmDiversity,
}

impl Spec {
    /// The displacement/immediate pool this spec draws from.
    #[must_use]
    pub fn imm_pool(&self) -> &'static [i32] {
        match self.imm_diversity {
            ImmDiversity::Low => &[0, 8, 16],
            ImmDiversity::High => &[
                0, 8, 16, 24, 32, 48, 56, 72, 96, 104, 128, 152, 200, 248, 320, 392, 440, 488,
            ],
        }
    }
}

/// A call-poor, loop-dominated kernel (the bzip2/gzip/vpr family).
const fn loop_kernel() -> Spec {
    Spec {
        num_funcs: 2,
        nest_depth: 1,
        saves_per_func: 1,
        caller_saves: 0,
        calls_per_iter: 1,
        inner_trip: 12,
        invariants: 4,
        twin_ops: 0,
        aliasing_ops: 10,
        hammocks: 2,
        hammock_mask: 7, // ~12.5% taken: SPEC-like conditional entropy
        redundant_loads: 2,
        walk_loads: 2,
        stores_per_body: 1,
        conflict_pairs: 1,
        chain_loads: 1,
        fp_ops: 0,
        footprint_words: 1 << 12, // 32 KB: L1-resident after warmup
        stride: 5,
        pointer_chase: false,
        chase_nodes: 0,
        recursion: None,
        imm_diversity: ImmDiversity::Low,
    }
}

/// A call-intensive program with deep call graph and full ABI traffic
/// (the gcc/gap/perl/vortex family).
const fn call_intensive() -> Spec {
    Spec {
        num_funcs: 8,
        nest_depth: 5,
        saves_per_func: 3,
        caller_saves: 1,
        calls_per_iter: 3,
        inner_trip: 3,
        invariants: 3,
        twin_ops: 1,
        aliasing_ops: 0,
        hammocks: 2,
        hammock_mask: 7, // ~12.5% taken: SPEC-like conditional entropy
        redundant_loads: 2,
        walk_loads: 1,
        stores_per_body: 1,
        conflict_pairs: 0,
        chain_loads: 1,
        fp_ops: 0,
        footprint_words: 1 << 12, // 32 KB: mostly cache-resident
        stride: 3,
        pointer_chase: false,
        chase_nodes: 0,
        recursion: None,
        imm_diversity: ImmDiversity::High,
    }
}

/// All 16 benchmark points, in the paper's figure order.
#[must_use]
pub fn all() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "bzip2",
            notes: "call-poor block compressor: loop-dominated, moderate aliasing, \
                    mildly hurt by opcode indexing (§3.2)",
            spec: Spec {
                aliasing_ops: 6,
                inner_trip: 16,
                invariants: 5,
                footprint_words: 1 << 13, // 64 KB: some L1 misses
                ..loop_kernel()
            },
        },
        Benchmark {
            name: "crafty",
            notes: "recursive game-tree search: call-intensive, twin static \
                    instructions within functions (+~10% from opcode indexing), \
                    high direct mis-integration rate from conflict pairs",
            spec: Spec {
                twin_ops: 6,
                conflict_pairs: 2,
                recursion: Some(10),
                num_funcs: 10,
                nest_depth: 5,
                calls_per_iter: 3,
                saves_per_func: 4,
                caller_saves: 2,
                invariants: 2,
                ..call_intensive()
            },
        },
        Benchmark {
            name: "eon.c",
            notes: "C++ ray tracer (cook input): 45% loads+stores, small leaf \
                    functions, FP work — hit hardest by losing a memory port (§3.5)",
            spec: Spec {
                num_funcs: 10,
                calls_per_iter: 4,
                saves_per_func: 4,
                caller_saves: 2,
                walk_loads: 3,
                stores_per_body: 2,
                redundant_loads: 4,
                fp_ops: 2,
                inner_trip: 2,
                invariants: 2,
                ..call_intensive()
            },
        },
        Benchmark {
            name: "eon.k",
            notes: "eon, kajiya input: as eon.c with a deeper call chain",
            spec: Spec {
                num_funcs: 10,
                nest_depth: 6,
                calls_per_iter: 4,
                saves_per_func: 4,
                caller_saves: 2,
                walk_loads: 3,
                stores_per_body: 2,
                redundant_loads: 3,
                fp_ops: 2,
                inner_trip: 3,
                ..call_intensive()
            },
        },
        Benchmark {
            name: "eon.r",
            notes: "eon, rushmeier input: as eon.c with more FP and fewer calls",
            spec: Spec {
                num_funcs: 9,
                calls_per_iter: 3,
                saves_per_func: 4,
                caller_saves: 2,
                walk_loads: 3,
                stores_per_body: 2,
                redundant_loads: 3,
                fp_ops: 3,
                inner_trip: 4,
                ..call_intensive()
            },
        },
        Benchmark {
            name: "gap",
            notes: "group-theory interpreter: call-intensive, reverse integration \
                    near 10% (§3.2)",
            spec: Spec { num_funcs: 7, calls_per_iter: 3, saves_per_func: 3, ..call_intensive() },
        },
        Benchmark {
            name: "gcc",
            notes: "compiler: deep call graph, branchy, large instruction working \
                    set; strong reverse integration",
            spec: Spec {
                num_funcs: 12,
                nest_depth: 7,
                calls_per_iter: 4,
                hammocks: 3,
                saves_per_func: 4,
                caller_saves: 1,
                twin_ops: 1,
                invariants: 2,
                ..call_intensive()
            },
        },
        Benchmark {
            name: "gzip",
            notes: "call-poor LZ77 compressor: few integration opportunities \
                    across static instructions, few calls — opcode indexing's \
                    conflict loss dominates (§3.2: rate drops ~5%)",
            spec: Spec {
                aliasing_ops: 12,
                inner_trip: 16,
                calls_per_iter: 0,
                num_funcs: 1,
                hammocks: 2,
                ..loop_kernel()
            },
        },
        Benchmark {
            name: "mcf",
            notes: "network-flow solver: pointer chasing over a 2 MB arena — \
                    execution time dominated by cache misses, so integration's \
                    relative benefit is smallest (§3.2)",
            spec: Spec {
                pointer_chase: true,
                chase_nodes: 1 << 17, // 128K nodes × 16 B = 2 MB
                inner_trip: 2,
                walk_loads: 1,
                calls_per_iter: 1,
                num_funcs: 2,
                invariants: 1,
                aliasing_ops: 2,
                redundant_loads: 1,
                chain_loads: 0,
                footprint_words: 1 << 16,
                stride: 67,
                ..loop_kernel()
            },
        },
        Benchmark {
            name: "parser",
            notes: "link-grammar parser: moderate calls, mildly hurt by opcode \
                    indexing (§3.2)",
            spec: Spec {
                num_funcs: 4,
                nest_depth: 3,
                calls_per_iter: 2,
                aliasing_ops: 6,
                saves_per_func: 2,
                inner_trip: 6,
                imm_diversity: ImmDiversity::Low,
                ..call_intensive()
            },
        },
        Benchmark {
            name: "perl.d",
            notes: "perl, diffmail input: dispatch loop plus helper calls",
            spec: Spec {
                num_funcs: 9,
                calls_per_iter: 3,
                hammocks: 3,
                saves_per_func: 3,
                ..call_intensive()
            },
        },
        Benchmark {
            name: "perl.s",
            notes: "perl, splitmail input: like perl.d with twin static \
                    instructions (+~10% from opcode indexing, §3.2)",
            spec: Spec {
                num_funcs: 12,
                nest_depth: 6,
                calls_per_iter: 4,
                twin_ops: 5,
                saves_per_func: 4,
                caller_saves: 2,
                invariants: 2,
                ..call_intensive()
            },
        },
        Benchmark {
            name: "twolf",
            notes: "place-and-route: moderate in every dimension, some FP",
            spec: Spec {
                num_funcs: 5,
                nest_depth: 3,
                calls_per_iter: 2,
                inner_trip: 8,
                fp_ops: 1,
                saves_per_func: 2,
                footprint_words: 1 << 14,
                ..call_intensive()
            },
        },
        Benchmark {
            name: "vortex",
            notes: "OO database: the most call- and save/restore-dense point; \
                    opcode indexing +~10%, reverse integration ~10% (§3.2)",
            spec: Spec {
                num_funcs: 12,
                nest_depth: 6,
                calls_per_iter: 5,
                saves_per_func: 5,
                caller_saves: 2,
                twin_ops: 4,
                inner_trip: 1,
                invariants: 2,
                redundant_loads: 1,
                walk_loads: 1,
                ..call_intensive()
            },
        },
        Benchmark {
            name: "vpr.p",
            notes: "FPGA placement: loop kernel with annealing-style hammocks",
            spec: Spec {
                inner_trip: 10,
                hammocks: 3,
                aliasing_ops: 8,
                fp_ops: 1,
                footprint_words: 1 << 14,
                ..loop_kernel()
            },
        },
        Benchmark {
            name: "vpr.r",
            notes: "FPGA routing: call-poor, heavy same-shape aliasing — opcode \
                    indexing's biggest loser (§3.2)",
            spec: Spec {
                aliasing_ops: 12,
                inner_trip: 14,
                calls_per_iter: 0,
                num_funcs: 1,
                footprint_words: 1 << 13,
                stride: 7,
                ..loop_kernel()
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_well_formed() {
        for b in all() {
            let s = b.spec;
            assert!(s.footprint_words.is_power_of_two(), "{}", b.name);
            assert!(s.saves_per_func <= 5, "{}", b.name);
            assert!(s.caller_saves <= 3, "{}", b.name);
            if s.pointer_chase {
                assert!(s.chase_nodes.is_power_of_two(), "{}", b.name);
            }
            assert!(!s.imm_pool().is_empty());
        }
    }

    #[test]
    fn families_differ_where_the_paper_says() {
        let gzip = all().into_iter().find(|b| b.name == "gzip").unwrap();
        let vortex = all().into_iter().find(|b| b.name == "vortex").unwrap();
        let mcf = all().into_iter().find(|b| b.name == "mcf").unwrap();
        // Call-poor vs call-dense.
        assert!(gzip.spec.calls_per_iter < vortex.spec.calls_per_iter);
        assert!(gzip.spec.aliasing_ops > vortex.spec.aliasing_ops);
        assert!(vortex.spec.saves_per_func > gzip.spec.saves_per_func);
        // Memory-bound point.
        assert!(mcf.spec.pointer_chase);
        assert_eq!(mcf.spec.chase_nodes * 16, 2 << 20, "2 MB arena");
    }
}
