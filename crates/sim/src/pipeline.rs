//! The out-of-order pipeline with register integration.
//!
//! [`Simulator`] models the paper's 13-stage, 4-way machine as five
//! per-cycle steps processed oldest-first (retire/DIVA → complete →
//! issue → rename/integrate → fetch). Wrong-path instructions are
//! *really fetched and executed* — fetch follows the predicted stream
//! through program memory — which is what makes squash reuse observable,
//! and physical registers hold real values, so a mis-integration
//! propagates a genuinely wrong value until the DIVA checker catches it
//! at retirement and flushes.
//!
//! Timing model in brief:
//!
//! * fetch→rename takes `front_delay` (3 fetch + 1 decode) cycles; one
//!   fetch group per I-cache line per cycle; taken branches end the group
//!   (plus a decode bubble on a BTB miss),
//! * rename→issue takes at least `sched_delay` cycles; operands arrive
//!   through the bypass network, so a dependent may be *selected* once its
//!   producer's result is within `regread_delay` cycles of arriving,
//! * issue→result takes `regread_delay` + execution latency (loads add
//!   1 AGEN cycle plus cache/forwarding latency),
//! * completion→retirement takes `diva_delay` (writeback + DIVA) cycles,
//! * squash recovery is monolithic: fetch restarts at the redirect the
//!   cycle after next (§3.1: recovery modelled as occurring in one cycle).
//!
//! Integrating instructions bypass scheduling, register read and execute
//! entirely: a value integration completes as soon as the shared physical
//! register is ready; a branch integration resolves *at rename*.

use crate::checkpoint::Checkpoint;
use crate::config::SimConfig;
use crate::lsq::{Cht, StoreQueue};
use crate::session::{StopReason, StopWhen};
use crate::stats::{RunResult, SimStats};
use crate::archmem::ArchMem;
use rix_isa::{ArchState, MemImage};
use rix_frontend::{FrontEnd, SpecCheckpoint};
use rix_integration::{
    IntegrationKind, It, ItEntry, ItKey, ItOutput, Lisp, MapTable, PregRef, RefVector,
    Suppression,
};
use rix_integration::{IntegrationEvent, IntegrationType, ResultStatus};
use rix_isa::{semantics, ExecClass, InstAddr, Instr, Opcode, Operand, Program};
use rix_mem::{Cycle, MemSystem};
use std::collections::VecDeque;

const NO_CYCLE: Cycle = u64::MAX;

/// Place expression for the ROB entry at logical index `$idx`: a flat
/// ring-slot access (`abs & mask`), with a field-level borrow of
/// `rob_slots` only, so other simulator fields stay independently
/// borrowable around it.
macro_rules! rob_entry {
    ($s:expr, $idx:expr) => {
        $s.rob_slots[(($s.rob_base as usize).wrapping_add($idx)) & $s.rob_mask]
    };
}

/// Place expression for the checkpoint pair at logical index `$idx`.
macro_rules! rob_pred_at {
    ($s:expr, $idx:expr) => {
        $s.rob_preds[(($s.rob_base as usize).wrapping_add($idx)) & $s.rob_mask]
    };
}

/// Place expression for the seq mirror at logical index `$idx`.
macro_rules! rob_seq_at {
    ($s:expr, $idx:expr) => {
        $s.rob_seqs[(($s.rob_base as usize).wrapping_add($idx)) & $s.rob_mask]
    };
}

/// Cycles without a retirement after which the machine is considered
/// deadlocked. The longest legitimate retirement gap (write-buffer
/// stall on top of serialized cold misses) is a few thousand cycles.
const DEADLOCK_WINDOW: Cycle = 100_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Waiting in a reservation station.
    WaitRs,
    /// Integrated; waiting for the shared register to become ready.
    WaitInt,
    /// Selected for execution; result arrives at `done_at`.
    Issued,
    /// Completed; eligible for DIVA + retirement.
    Done,
}

/// Completion and wake calendar size in cycles (power of two). Events
/// further ahead wait in the overflow lists (`completions_far`,
/// `wake_far`). Memory latency is 80 cycles by default, so almost every
/// event lands in range; a larger ring only costs allocations and live
/// heap per simulator.
const COMPLETION_RING: usize = 256;

/// A parked operand-blocked instruction: everything a wakeup needs, so
/// waking never touches the `DynInst`.
#[derive(Clone, Copy, Debug)]
struct Blocked {
    seq: u64,
    /// Absolute ROB position (see [`Simulator::rob_base`]).
    abs: u64,
    /// The other operand still to check on wake (`u16::MAX` = none —
    /// already ready, which is monotone, or not required).
    other: u16,
    /// Precomputed scheduling rank (meaningless for loads).
    rank: u8,
    /// Precomputed port class (meaningless for loads).
    pclass: u8,
    /// Loads re-enter the poll list instead of the ready set.
    is_load: bool,
}

const NO_OTHER: u16 = u16::MAX;

/// Issue-port classes for ready-set entries (indices into the per-cycle
/// port-counter array).
const PORT_SIMPLE: u8 = 0;
const PORT_COMPLEX: u8 = 1;
const PORT_LOAD: u8 = 2;
const PORT_STORE: u8 = 3;

/// Outcome of the per-entry issue-readiness evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Readiness {
    /// May be selected this cycle.
    Ready,
    /// Blocked on this physical register; cannot issue until it is
    /// ready, so the evaluation can be skipped until then.
    WaitSrc(u16),
    /// A load blocked on store-queue/CHT state: the verdict can only
    /// change when that state changes, so it is cacheable against the
    /// scheduler generation counter.
    StallQueue,
    /// A load blocked on bypass timing (its base arrives exactly at
    /// execute): resolves by the passage of cycles, so it must be
    /// re-evaluated every cycle.
    StallTransient,
}

#[derive(Clone, Copy, Debug)]
struct Integrated {
    entry: ItEntry,
    event: IntegrationEvent,
    key: ItKey,
}

#[derive(Clone, Debug)]
struct DynInst {
    seq: u64,
    pc: InstAddr,
    instr: Instr,
    /// `instr.exec_class()`, computed once at rename — several per-stage
    /// paths dispatch on it.
    class: ExecClass,
    /// Predicted direction/target and fetch-time call depth (the bulky
    /// predictor checkpoints live in the parallel `rob_preds` ring).
    pred_taken: bool,
    pred_next_pc: InstAddr,
    call_depth: u16,
    fetch_cycle: Cycle,
    state: State,
    dst_log: Option<rix_isa::LogReg>,
    dst_new: Option<PregRef>,
    dst_old: Option<PregRef>,
    /// `[src1, src2]` as renamed; for stores only `srcs[0]` (the base)
    /// gates address generation.
    srcs: [Option<PregRef>; 2],
    /// Whether this instruction integrated; the bulky metadata (entry,
    /// key, event) lives in `Simulator::integrated_meta`, keyed by seq,
    /// keeping this struct — and therefore the ROB — small. The IT key
    /// is not stored at all: it is recomputed from `pc`/`instr`/`pred`/
    /// `srcs` where needed, which reproduces the rename-time key
    /// exactly.
    integrated: bool,
    holds_rs: bool,
    holds_lsq: bool,
    agen_at: Cycle,
    done_at: Cycle,
    /// Effective address once generated (`None` = not yet; a wrong-path
    /// address can be any bit pattern, so no sentinel is safe).
    eff_addr: Option<u64>,
    /// Seq of the forwarding store (`u64::MAX` = none/from memory —
    /// sequence numbers never reach the sentinel).
    forward_seq: u64,
    outcome: Option<bool>,
    /// Resolved indirect-jump target (`None` = not yet; a wrong-path
    /// target can be any bit pattern).
    actual_target: Option<InstAddr>,
    resolved_misp: bool,
}

/// A fetched (pre-rename) instruction. Slim: the bulky predictor
/// checkpoints travel in the parallel `fq_ckpts` ring.
#[derive(Clone, Copy, Debug)]
struct Fetched {
    pc: InstAddr,
    instr: Instr,
    taken: bool,
    next_pc: InstAddr,
    call_depth: u16,
    fetch_cycle: Cycle,
    ready_at: Cycle,
}

#[derive(Clone, Copy, Debug)]
struct SquashReq {
    /// Squash every instruction with `seq > after_seq`.
    after_seq: u64,
    redirect: InstAddr,
    checkpoint: SpecCheckpoint,
    corrected: Option<bool>,
}

#[derive(Clone, Copy, Debug)]
struct ViolationEvent {
    fire_at: Cycle,
    load_seq: u64,
    store_seq: u64,
}

#[derive(Clone, Copy, Debug)]
struct RenameMemEntry {
    seq: u64,
    word_addr: u64,
    word: u64,
}

struct PhysFile {
    val: Vec<u64>,
    ready_at: Vec<Cycle>,
    producer_seq: Vec<u64>,
    /// Absolute ROB position of the producer (see `Simulator::rob_base`)
    /// — lets the integration test locate it in O(1).
    producer_abs: Vec<u64>,
}

impl PhysFile {
    fn new(n: usize) -> Self {
        Self {
            val: vec![0; n],
            ready_at: vec![NO_CYCLE; n],
            producer_seq: vec![0; n],
            producer_abs: vec![0; n],
        }
    }
}

/// The cycle-level simulator.
///
/// ```
/// use rix_sim::{SimConfig, Simulator};
/// use rix_isa::{Asm, reg};
///
/// let mut a = Asm::new();
/// a.addq_i(reg::R1, reg::ZERO, 10);
/// a.label("loop");
/// a.subq_i(reg::R1, reg::R1, 1);
/// a.bne(reg::R1, "loop");
/// a.halt();
/// let p = a.assemble()?;
/// let result = Simulator::new(&p, SimConfig::default()).run(100);
/// assert!(result.halted);
/// assert_eq!(result.stats.retired, 22); // 1 init + 10×(subq,bne) + halt
/// # Ok::<(), rix_isa::AsmError>(())
/// ```
pub struct Simulator<'p> {
    program: &'p Program,
    cfg: SimConfig,
    cycle: Cycle,
    /// Cycle of the last `reset_stats` (statistics count from here).
    cycle_base: Cycle,
    /// Last cycle on which an instruction retired (deadlock detection).
    last_retire_cycle: Cycle,
    /// Memory-system counters at the last `reset_stats`.
    mem_base: rix_mem::MemSystemStats,
    /// Memory-system counters carried in from a restored checkpoint
    /// (the fresh `MemSystem` starts at zero, so the pre-checkpoint
    /// accumulation is added back into every delta).
    mem_carry: rix_mem::MemSystemStats,
    /// Instructions retired since **program entry** — the architectural
    /// position, unaffected by [`Simulator::reset_stats`] and carried
    /// across checkpoint restores (unlike `stats.retired`).
    retired_total: u64,
    seq_next: u64,
    // Front end.
    frontend: FrontEnd,
    fetch_pc: InstAddr,
    // Fetch queue as a power-of-two ring (head is an absolute counter),
    // with the predictor checkpoints in a parallel ring.
    fq_slots: Vec<Fetched>,
    fq_ckpts: Vec<(SpecCheckpoint, SpecCheckpoint)>,
    fq_mask: usize,
    fq_head: usize,
    fq_len: usize,
    fetch_blocked: bool,
    fetch_resume_at: Cycle,
    cur_line: Option<u64>,
    line_avail: Cycle,
    // Rename + integration.
    map: MapTable,
    refvec: RefVector,
    it: It,
    lisp: Lisp,
    phys: PhysFile,
    /// Whether the golden value shadow (and its rename-time memory
    /// overlay) must be maintained: only oracle suppression reads it,
    /// so every other configuration skips the bookkeeping entirely.
    needs_golden: bool,
    golden: Vec<u64>,
    /// Rename-time golden-memory overlay, one entry per in-flight
    /// store, in sequence order (so retirement pops the front and a
    /// squash truncates the back — no scans).
    rename_mem: VecDeque<RenameMemEntry>,
    // Windows. The ROB is a power-of-two ring: the entry at logical
    // index `i` lives in slot `(rob_base + i) & rob_mask`, so every
    // access is one flat array index (no deque wrap machinery), and an
    // entry's slot never moves for its whole lifetime.
    /// Ring storage; grows once to capacity, then slots are reused.
    rob_slots: Vec<DynInst>,
    /// Ring mirror of each entry's `seq` (immutable per entry), so the
    /// frequent seq→index searches stay off the structs.
    rob_seqs: Vec<u64>,
    /// Ring of predictor checkpoints (pre, post) parallel to
    /// `rob_slots` — off the hot `DynInst`, touched only at recovery
    /// and branch retirement.
    rob_preds: Vec<(SpecCheckpoint, SpecCheckpoint)>,
    /// Ring capacity − 1 (capacity ≥ `rob_entries`, power of two).
    rob_mask: usize,
    /// Number of in-flight entries.
    rob_len: usize,
    /// Total ROB front-pops so far. `rob_base + idx` is an entry's
    /// *absolute position* — stable for its whole lifetime (retirement
    /// pops shift indices, but never reorder; squashes pop the back) —
    /// so scheduler lists can carry it and relocate entries in O(1)
    /// instead of a binary search.
    rob_base: u64,
    // Event-driven scheduler state. The steady-state cycle loop never
    // sweeps the ROB: every waiting instruction lives in exactly one of
    // these side structures, keyed by sequence number (never an index —
    // indices shift at retirement), and moves between them on the event
    // that changes its readiness.
    /// Known-ready non-load candidates as (key, payload), sorted
    /// ascending by key = `rank << 62 | seq` — the §3.1 selection order
    /// in one u64 compare; payload = `abs << 2 | port class`. Non-load
    /// readiness is monotone, so entries stay until selected/squashed.
    ready_set: Vec<(u64, u64)>,
    /// Operand-blocked instructions parked per producing register:
    /// `preg_waiters[p]` holds the consumers waiting for `p`'s value to
    /// be scheduled. The producer's execute moves them into the wake
    /// calendar — the steady state never scans blocked instructions at
    /// all. Squashed entries are skipped lazily at wake.
    preg_waiters: Vec<Vec<Blocked>>,
    /// Wake calendar: bucket `t & (COMPLETION_RING - 1)` holds the
    /// consumers whose blocking operand becomes consumable at cycle
    /// `t`; one bucket drains per cycle.
    wake_ring: Vec<Vec<Blocked>>,
    /// Wakes scheduled ≥ a ring period ahead; almost always empty.
    wake_far: Vec<(Cycle, Blocked)>,
    /// Operand-unblocked loads as (seq, abs, cached generation, cached
    /// verdict): their readiness also hangs on store-queue state, which
    /// can regress (a conflicting older store address can resolve
    /// later), so they are re-polled — but only when the scheduler
    /// generation has moved since the cached verdict. Sorted by seq.
    wait_loads: Vec<(u64, u64, u64, bool)>,
    /// Calendar queue of completion events: bucket `t & (RING - 1)`
    /// holds the (seq, abs) pairs due at cycle `t` (completion times
    /// land within `COMPLETION_RING` cycles; anything further sits in
    /// `completions_far` until it comes into range). Each cycle drains
    /// exactly one bucket, sorted by seq — the same oldest-first order
    /// the old full-ROB completion sweep processed entries in. Squashed
    /// entries are removed lazily at drain (seqs are never reused).
    completions: Vec<Vec<(u64, u64)>>,
    /// Overflow for completion events scheduled ≥ `COMPLETION_RING`
    /// cycles ahead (a long memory latency, or bus queueing); almost
    /// always empty.
    completions_far: Vec<(Cycle, u64, u64)>,
    /// Issued stores whose data register has no scheduled ready time
    /// yet, as (seq, abs); they learn `done_at` the cycle the producer
    /// schedules it.
    pending_store_data: Vec<(u64, u64)>,
    /// Value integrations waiting for the shared register, as (seq, abs).
    pending_int: Vec<(u64, u64)>,
    /// Integration metadata (entry, key, event) for in-flight integrated
    /// instructions, in seq order: retirement pops the front, a squash
    /// truncates the back — the same discipline as the ROB itself.
    integrated_meta: VecDeque<(u64, Integrated)>,
    rs_used: usize,
    lsq_used: usize,
    sq: StoreQueue,
    cht: Cht,
    /// Pending memory-order violation events, in firing order (`fire_at`
    /// is nondecreasing across pushes because every event fires a fixed
    /// delay after its issue cycle), drained by front-pop.
    events: VecDeque<ViolationEvent>,
    // Per-cycle scratch buffers, hoisted so the steady-state cycle loop
    // allocates nothing (the capacity is reused forever).
    scratch_loads: Vec<(u64, usize)>,
    scratch_due: Vec<ViolationEvent>,
    scratch_comp: Vec<(u64, u64)>,
    scratch_wakes: Vec<Blocked>,
    // Architectural state.
    arch_regs: [u64; rix_isa::reg::NUM_LOG_REGS],
    arch_next_pc: InstAddr,
    arch_mem: ArchMem<'p>,
    mem: MemSystem,
    // Outcome.
    stats: SimStats,
    halted: bool,
}

impl<'p> Simulator<'p> {
    /// Builds a simulator over `program` with the given configuration,
    /// at the program's initial architectural state.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.num_pregs` cannot cover the architectural registers
    /// plus the in-flight window.
    #[must_use]
    pub fn new(program: &'p Program, cfg: SimConfig) -> Self {
        let mut regs = [0u64; rix_isa::reg::NUM_LOG_REGS];
        regs[rix_isa::reg::SP.index()] = cfg.stack_top;
        let mut arch_mem = MemImage::new();
        arch_mem.load_segments(program.data_segments());
        Self::boot(program, cfg, &regs, ArchMem::new(arch_mem), program.entry(), 0, false)
    }

    /// Boots the detailed machine **mid-program** from an architectural
    /// snapshot: registers, memory and PC come from `state` (the
    /// physical registers mapped to the logical file are seeded with the
    /// architectural values), while every microarchitectural structure —
    /// caches, TLBs, predictors, the integration table, the reference
    /// vector — starts cold, exactly as at construction.
    ///
    /// This is the landing half of **functional fast-forward warm-up**:
    /// `Interp::fast_forward(n)` produces the state at interpreter
    /// speed, and the detailed session picks up from it. A session
    /// booted this way retires into exactly the architectural states the
    /// interpreter visits from `state` onward (`ArchState::retired`
    /// positions continue from `state.retired`).
    ///
    /// The machine borrows `state` and reads its memory in place,
    /// copying a page only at the first retired store to it, so every
    /// arm of a sweep boots from one snapshot without copying the image.
    ///
    /// # Panics
    ///
    /// As [`Simulator::new`].
    #[must_use]
    pub fn from_arch_state(program: &'p Program, cfg: SimConfig, state: &'p ArchState) -> Self {
        let mem = ArchMem::over(&state.mem);
        Self::boot(program, cfg, &state.regs, mem, state.pc, state.retired, state.halted)
    }

    /// The shared construction path of [`Simulator::new`] and
    /// [`Simulator::from_arch_state`]: identical cold microarchitecture,
    /// parameterised only by the architectural boot state.
    fn boot(
        program: &'p Program,
        cfg: SimConfig,
        regs: &[u64; rix_isa::reg::NUM_LOG_REGS],
        arch_mem: ArchMem<'p>,
        pc: InstAddr,
        retired_total: u64,
        halted: bool,
    ) -> Self {
        assert!(
            cfg.num_pregs >= rix_isa::reg::NUM_LOG_REGS + cfg.core.rob_entries + 8,
            "physical register file too small for the window"
        );
        let ic = cfg.integration;
        let mut refvec = RefVector::new(cfg.num_pregs, ic.gen_bits, ic.count_bits);
        let mut phys = PhysFile::new(cfg.num_pregs);
        let mut golden = vec![0u64; cfg.num_pregs];
        let mut map = MapTable::new(PregRef::new(0, 0));
        let mut arch_regs = [0u64; rix_isa::reg::NUM_LOG_REGS];
        #[allow(clippy::needless_range_loop)] // index is also the register number
        for i in 0..rix_isa::reg::NUM_LOG_REGS {
            let log = rix_isa::LogReg::new(i as u8);
            let r = refvec.alloc().expect("reset allocation");
            refvec.mark_written(r);
            let init = regs[i];
            phys.val[r.preg as usize] = init;
            phys.ready_at[r.preg as usize] = 0;
            golden[r.preg as usize] = init;
            arch_regs[i] = init;
            map.set(log, r);
        }
        let it_ways = ic.it_ways.min(ic.it_entries);
        Self {
            program,
            cfg,
            cycle: 0,
            cycle_base: 0,
            last_retire_cycle: 0,
            mem_base: rix_mem::MemSystemStats::default(),
            mem_carry: rix_mem::MemSystemStats::default(),
            retired_total,
            seq_next: 1,
            frontend: FrontEnd::new(cfg.predictor),
            fetch_pc: pc,
            fq_slots: Vec::new(),
            fq_ckpts: Vec::new(),
            fq_mask: cfg.core.fetch_queue.next_power_of_two() - 1,
            fq_head: 0,
            fq_len: 0,
            fetch_blocked: false,
            fetch_resume_at: 0,
            cur_line: None,
            line_avail: 0,
            map,
            refvec,
            it: It::new(ic.it_entries, it_ways, ic.index),
            lisp: Lisp::new(ic.lisp_entries, ic.lisp_ways),
            phys,
            needs_golden: ic.enabled && ic.suppression == Suppression::Oracle,
            golden,
            rename_mem: VecDeque::new(),
            rob_slots: Vec::with_capacity(cfg.core.rob_entries.next_power_of_two()),
            rob_seqs: Vec::with_capacity(cfg.core.rob_entries.next_power_of_two()),
            rob_preds: Vec::with_capacity(cfg.core.rob_entries.next_power_of_two()),
            rob_mask: cfg.core.rob_entries.next_power_of_two() - 1,
            rob_len: 0,
            rob_base: 0,
            ready_set: Vec::new(),
            preg_waiters: (0..cfg.num_pregs).map(|_| Vec::new()).collect(),
            wake_ring: (0..COMPLETION_RING).map(|_| Vec::new()).collect(),
            wake_far: Vec::new(),
            wait_loads: Vec::new(),
            completions: (0..COMPLETION_RING).map(|_| Vec::new()).collect(),
            completions_far: Vec::new(),
            pending_store_data: Vec::new(),
            pending_int: Vec::new(),
            integrated_meta: VecDeque::new(),
            rs_used: 0,
            lsq_used: 0,
            sq: StoreQueue::new(),
            cht: Cht::new(256),
            events: VecDeque::new(),
            scratch_loads: Vec::new(),
            scratch_due: Vec::new(),
            scratch_comp: Vec::new(),
            scratch_wakes: Vec::new(),
            arch_regs,
            arch_next_pc: pc,
            arch_mem,
            mem: MemSystem::new(cfg.mem),
            stats: SimStats::default(),
            halted,
        }
    }

    /// Runs until `target_retired` instructions retire, the program
    /// halts, or a safety limit trips: [`StopWhen::budget`]'s cycle net,
    /// or — earlier than the pre-session API would have stopped — the
    /// deadlock window, which cuts a machine that has stopped retiring
    /// loose instead of idling it to the cycle limit.
    ///
    /// A convenience wrapper over the resumable session API: equivalent
    /// to [`Simulator::run_budget`] on a fresh session.
    pub fn run(mut self, target_retired: u64) -> RunResult {
        self.run_budget(target_retired)
    }

    /// Runs one measurement interval: until `target_retired`
    /// instructions retire *counting from the last
    /// [`Simulator::reset_stats`]*, under [`StopWhen::budget`]'s safety
    /// net. In the returned snapshot, `timed_out` means the budget was
    /// not met (the cycle net or deadlock window fired first).
    pub fn run_budget(&mut self, target_retired: u64) -> RunResult {
        self.run_until(&StopWhen::budget(target_retired));
        let mut r = self.result();
        r.timed_out = !self.halted && self.stats.retired < target_retired;
        r
    }

    /// Advances the machine until `stop` is satisfied, the program
    /// halts, or the machine deadlocks (no retirement for 100 000
    /// cycles) — whichever comes first. The session remains usable
    /// afterwards:
    /// call [`Simulator::step`] or `run_until` again to resume, and
    /// [`Simulator::result`] to snapshot statistics.
    pub fn run_until(&mut self, stop: &StopWhen) -> StopReason {
        // Fast path for the overwhelmingly common budget shape
        // (retired-or-cycles): the per-cycle stop test collapses to two
        // integer compares, in the same order the generic walk would
        // evaluate them.
        let reason = if let StopWhen::Any(subs) = stop {
            if let [StopWhen::RetiredAtLeast(a), StopWhen::CyclesAtLeast(b)] = subs[..] {
                loop {
                    if self.halted {
                        break StopReason::Halted;
                    }
                    if self.stats.retired >= a {
                        break StopReason::RetiredAtLeast(a);
                    }
                    if self.stats.cycles >= b {
                        break StopReason::CyclesAtLeast(b);
                    }
                    if self.deadlocked() {
                        break StopReason::Deadlocked;
                    }
                    self.step();
                }
            } else {
                self.run_until_generic(stop)
            }
        } else {
            self.run_until_generic(stop)
        };
        self.stats.mem = self.mem_stats_delta();
        reason
    }

    /// The general stop-condition walk (see [`Simulator::run_until`]).
    fn run_until_generic(&mut self, stop: &StopWhen) -> StopReason {
        loop {
            if self.halted {
                break StopReason::Halted;
            }
            let deadlocked = self.deadlocked();
            if let Some(r) = stop.check(self.stats.retired, self.stats.cycles, deadlocked) {
                break r;
            }
            if deadlocked {
                break StopReason::Deadlocked;
            }
            self.step();
        }
    }

    /// Advances the machine one cycle.
    pub fn step(&mut self) {
        let retired_before = self.stats.retired;
        self.do_retire();
        if !self.halted {
            self.do_complete();
            self.do_issue();
            self.do_rename();
            self.do_fetch();
        }
        #[cfg(any(debug_assertions, feature = "sanitize"))]
        self.sanitize_step();
        self.stats.rs_occupancy_sum += self.rs_used as u64;
        self.stats.rob_occupancy_sum += self.rob_len as u64;
        self.cycle += 1;
        if self.stats.retired != retired_before {
            self.last_retire_cycle = self.cycle;
        }
        self.stats.cycles = self.cycle - self.cycle_base;
    }

    /// Zeroes every statistics counter while preserving machine state
    /// (caches, predictors, integration table, in-flight window), so a
    /// session can warm up and then measure: subsequent statistics —
    /// including [`SimStats::cycles`] and the memory-hierarchy counters
    /// — count from this point.
    pub fn reset_stats(&mut self) {
        self.cycle_base = self.cycle;
        self.mem_base = self.mem.stats();
        self.mem_carry = rix_mem::MemSystemStats::default();
        self.stats = SimStats::default();
    }

    /// Snapshots the session as a [`RunResult`] without consuming it.
    /// `timed_out` reports whether the machine is currently deadlocked.
    pub fn result(&mut self) -> RunResult {
        self.stats.mem = self.mem_stats_delta();
        RunResult {
            stats: self.stats.clone(),
            halted: self.halted,
            timed_out: self.deadlocked(),
        }
    }

    /// Consumes the session into its final [`RunResult`].
    #[must_use]
    pub fn into_result(mut self) -> RunResult {
        self.result()
    }

    /// The current architectural state: PC, logical registers, memory
    /// image and retired position, exactly as retirement has committed
    /// them. The snapshot is always at a retirement boundary —
    /// in-flight (speculative, unretired) work is not part of it — and
    /// equals what [`rix_isa::interp::Interp::fast_forward`] reports at
    /// the same retired position.
    #[must_use]
    pub fn arch_state(&self) -> ArchState {
        ArchState {
            pc: self.arch_next_pc,
            regs: self.arch_regs,
            retired: self.retired_total,
            halted: self.halted,
            mem: self.arch_mem.to_image(),
        }
    }

    /// Instructions retired since program entry (the architectural
    /// position): unaffected by [`Simulator::reset_stats`], continues
    /// across [`Simulator::from_arch_state`] / checkpoint restores.
    #[must_use]
    pub fn retired_total(&self) -> u64 {
        self.retired_total
    }

    /// Captures the session as an on-disk-serialisable [`Checkpoint`]
    /// (architectural state + accumulated statistics + absolute cycle)
    /// at the current retirement boundary, **draining in-flight state**:
    /// speculative, unretired work is discarded, and the live session is
    /// re-synchronised to exactly the machine a
    /// [`Simulator::from_checkpoint`] restore produces (cold caches,
    /// predictors and integration table; warm statistics).
    ///
    /// That re-synchronisation is what makes checkpoints exact:
    /// continuing this session after `checkpoint()` is **byte-identical**
    /// to saving the checkpoint, reloading it in a fresh process, and
    /// resuming there — the session that never left memory and the
    /// session that round-tripped through disk produce the same
    /// [`RunResult::to_json`]. The cost is that a checkpoint, like any
    /// restore, is a full pipeline flush plus cold microarchitectural
    /// structures, so place checkpoints between measurement intervals,
    /// not inside one.
    pub fn checkpoint(&mut self) -> Checkpoint {
        self.stats.mem = self.mem_stats_delta();
        let ck = Checkpoint {
            arch: self.arch_state(),
            stats: self.stats.clone(),
            cycle: self.cycle,
            program_hash: crate::checkpoint::fingerprint(self.program),
        };
        *self = Self::from_checkpoint(self.program, self.cfg, &ck);
        ck
    }

    /// Restores a session from a [`Checkpoint`] over the same program
    /// and configuration: the architectural state boots via
    /// [`Simulator::from_arch_state`], and the statistics — including
    /// the absolute cycle count and the memory-hierarchy counters —
    /// continue from the captured values, so the eventual
    /// [`RunResult`] covers the whole logical run, not just the
    /// post-restore segment.
    ///
    /// # Panics
    ///
    /// As [`Simulator::new`]; additionally panics when `program` does
    /// not match the checkpoint's recorded
    /// [`fingerprint`](crate::checkpoint::fingerprint) — an
    /// architectural snapshot is meaningless against any other
    /// instruction stream, so a wrong program (or the same benchmark at
    /// a different seed) is refused instead of run.
    #[must_use]
    pub fn from_checkpoint(program: &'p Program, cfg: SimConfig, ck: &Checkpoint) -> Self {
        assert_eq!(
            crate::checkpoint::fingerprint(program),
            ck.program_hash,
            "checkpoint belongs to a different program (same benchmark name but a \
             different seed, or a different benchmark entirely)"
        );
        let a = &ck.arch;
        let mem = ArchMem::new(a.mem.clone());
        let mut sim = Self::boot(program, cfg, &a.regs, mem, a.pc, a.retired, a.halted);
        sim.stats = ck.stats.clone();
        sim.cycle = ck.cycle;
        sim.cycle_base = ck.cycle - ck.stats.cycles;
        sim.last_retire_cycle = ck.cycle;
        // The fresh MemSystem's counters restart at zero; the carry adds
        // the pre-checkpoint accumulation back into every delta.
        sim.mem_carry = ck.stats.mem;
        sim
    }

    /// Whether no instruction has retired for the deadlock window.
    #[must_use]
    pub fn deadlocked(&self) -> bool {
        !self.halted && self.cycle - self.last_retire_cycle >= DEADLOCK_WINDOW
    }

    /// Memory-hierarchy counters accumulated since the last
    /// [`Simulator::reset_stats`], plus any carry restored from a
    /// checkpoint (the restored `MemSystem` restarts at zero).
    fn mem_stats_delta(&mut self) -> rix_mem::MemSystemStats {
        let now = self.mem.stats();
        let b = &self.mem_base;
        let c = &self.mem_carry;
        let cache = |n: rix_mem::CacheStats,
                     b: rix_mem::CacheStats,
                     c: rix_mem::CacheStats| rix_mem::CacheStats {
            hits: n.hits - b.hits + c.hits,
            misses: n.misses - b.misses + c.misses,
            writebacks: n.writebacks - b.writebacks + c.writebacks,
        };
        rix_mem::MemSystemStats {
            l1i: cache(now.l1i, b.l1i, c.l1i),
            l1d: cache(now.l1d, b.l1d, c.l1d),
            l2: cache(now.l2, b.l2, c.l2),
            itlb_misses: now.itlb_misses - b.itlb_misses + c.itlb_misses,
            dtlb_misses: now.dtlb_misses - b.dtlb_misses + c.dtlb_misses,
            mshr_merges: now.mshr_merges - b.mshr_merges + c.mshr_merges,
            write_buffer_stalls: now.write_buffer_stalls - b.write_buffer_stalls
                + c.write_buffer_stalls,
            backside_busy: now.backside_busy - b.backside_busy + c.backside_busy,
            membus_busy: now.membus_busy - b.membus_busy + c.membus_busy,
        }
    }

    // ----- helpers -------------------------------------------------------

    fn val(&self, r: PregRef) -> u64 {
        self.phys.val[r.preg as usize]
    }

    fn src_ready(&self, r: PregRef) -> bool {
        // Operands arrive through the bypass network: a consumer may be
        // selected `regread_delay` cycles before the value lands.
        self.phys.ready_at[r.preg as usize] <= self.cycle + self.cfg.core.regread_delay
    }

    fn map_src(&self, r: rix_isa::LogReg) -> PregRef {
        self.map.get(r)
    }

    /// Locates `seq` in the ROB. Sequence numbers are strictly increasing
    /// but *not* contiguous: a squash discards renamed numbers without
    /// reusing them (global uniqueness keeps store-queue ordering,
    /// forwarding comparisons and distance statistics sound), so this is
    /// a binary search rather than front-offset arithmetic.
    /// Appends a renamed entry to the ROB ring.
    fn rob_push(&mut self, d: DynInst, ckpts: (SpecCheckpoint, SpecCheckpoint)) {
        sanity!(
            self.rob_len <= self.rob_mask,
            "rob-ring-capacity",
            "pushing into a full ROB ring ({} entries)",
            self.rob_len
        );
        let slot = ((self.rob_base as usize).wrapping_add(self.rob_len)) & self.rob_mask;
        if slot == self.rob_slots.len() {
            self.rob_seqs.push(d.seq);
            self.rob_preds.push(ckpts);
            self.rob_slots.push(d);
        } else {
            self.rob_seqs[slot] = d.seq;
            self.rob_preds[slot] = ckpts;
            self.rob_slots[slot] = d;
        }
        self.rob_len += 1;
    }

    /// Appends a fetched instruction (and its checkpoint pair) to the
    /// fetch-queue ring.
    fn fq_push(&mut self, f: Fetched, ck: (SpecCheckpoint, SpecCheckpoint)) {
        sanity!(
            self.fq_len <= self.fq_mask,
            "fetch-queue-ring-capacity",
            "pushing into a full fetch-queue ring ({} entries)",
            self.fq_len
        );
        let slot = (self.fq_head.wrapping_add(self.fq_len)) & self.fq_mask;
        if slot == self.fq_slots.len() {
            self.fq_slots.push(f);
            self.fq_ckpts.push(ck);
        } else {
            self.fq_slots[slot] = f;
            self.fq_ckpts[slot] = ck;
        }
        self.fq_len += 1;
    }

    /// First logical index whose seq is `> seq` (the seq mirror is
    /// sorted ascending).
    fn rob_upper_bound(&self, seq: u64) -> usize {
        let (mut lo, mut hi) = (0usize, self.rob_len);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if rob_seq_at!(self, mid) <= seq {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Locates `seq` in the ROB by binary search (used when no absolute
    /// position is at hand; sequence numbers are strictly increasing
    /// but *not* contiguous — a squash discards renamed numbers).
    fn rob_index(&self, seq: u64) -> Option<usize> {
        let (mut lo, mut hi) = (0usize, self.rob_len);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if rob_seq_at!(self, mid) < seq {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < self.rob_len && rob_seq_at!(self, lo) == seq).then_some(lo)
    }

    /// O(1) relocation of an entry whose absolute position was recorded
    /// when it entered a scheduler list; `None` once it has left the
    /// ROB (squashed — retirement never outruns a listed entry).
    #[inline]
    fn rob_locate(&self, seq: u64, abs: u64) -> Option<usize> {
        let idx = abs.checked_sub(self.rob_base)? as usize;
        (idx < self.rob_len && self.rob_seqs[(abs as usize) & self.rob_mask] == seq)
            .then_some(idx)
    }

    fn golden_of(&self, r: PregRef) -> u64 {
        self.golden[r.preg as usize]
    }

    fn rename_read_word(&self, seq: u64, word_addr: u64) -> u64 {
        // Entries are seq-ordered: binary-search the `seq < seq` prefix
        // boundary, then scan it youngest-first for the word.
        let end = self.rename_mem.partition_point(|e| e.seq < seq);
        self.rename_mem
            .range(..end)
            .rev()
            .find(|e| e.word_addr == word_addr)
            .map_or_else(|| self.arch_mem.read_word(word_addr), |e| e.word)
    }

    /// Rename-time functional result on the golden value shadow (used by
    /// oracle suppression and to seed each register's golden value).
    fn rename_golden(&self, seq: u64, pc: InstAddr, instr: Instr) -> Option<u64> {
        let g1 = instr.src1.map(|r| self.golden_of(self.map_src(r)));
        match instr.exec_class() {
            ExecClass::SimpleInt | ExecClass::Complex => {
                let a = g1?;
                let b = match instr.src2 {
                    Some(Operand::Reg(r)) => self.golden_of(self.map_src(r)),
                    Some(Operand::Imm(i)) => i as i64 as u64,
                    None => return None,
                };
                Some(semantics::alu(instr.op, a, b))
            }
            ExecClass::Load => {
                let ea = semantics::effective_addr(instr.op, g1?, instr.disp);
                Some(semantics::load_from_word(
                    instr.op,
                    ea,
                    self.rename_read_word(seq, ea & !7),
                ))
            }
            ExecClass::DirectJump if instr.op == Opcode::Jsr => Some(pc + 1),
            _ => None,
        }
    }

    // ----- fetch ---------------------------------------------------------

    fn icache_line(&self, pc: InstAddr) -> u64 {
        // Line size is a power of two (asserted by `Cache::new`), so
        // the per-fetch division is a shift.
        (pc * rix_isa::encode::INSTR_BYTES) >> self.cfg.mem.l1i.line_bytes.trailing_zeros()
    }

    fn do_fetch(&mut self) {
        if self.halted || self.fetch_blocked || self.cycle < self.fetch_resume_at {
            return;
        }
        let start_line = self.icache_line(self.fetch_pc);
        if self.cur_line != Some(start_line) {
            let ready = self
                .mem
                .ifetch(self.cycle, self.fetch_pc * rix_isa::encode::INSTR_BYTES);
            self.cur_line = Some(start_line);
            // The hit latency is folded into the front-end depth; only
            // extra miss cycles stall fetch.
            self.line_avail = ready.saturating_sub(self.cfg.mem.l1i.hit_latency);
        }
        if self.line_avail > self.cycle {
            return;
        }
        let mut count = 0;
        while count < self.cfg.core.fetch_width && self.fq_len < self.cfg.core.fetch_queue
        {
            if self.icache_line(self.fetch_pc) != start_line {
                self.cur_line = None; // next group starts a new line
                break;
            }
            let Some(instr) = self.program.fetch(self.fetch_pc) else {
                // Ran off the program (a wrong path, or the final halt
                // already fetched): stall until a squash redirects us.
                self.fetch_blocked = true;
                break;
            };
            let pc = self.fetch_pc;
            // Probed before `predict` (which inserts the branch); only
            // conditional branches consult the result.
            let btb_hit = instr.op.is_cond_branch() && self.frontend.btb_hit(pc);
            let pred = self.frontend.predict(pc, instr);
            self.fq_push(
                Fetched {
                    pc,
                    instr,
                    taken: pred.taken,
                    next_pc: pred.next_pc,
                    call_depth: pred.call_depth,
                    fetch_cycle: self.cycle,
                    ready_at: self.cycle + self.cfg.core.front_delay,
                },
                (pred.checkpoint, pred.post_checkpoint),
            );
            self.stats.fetched += 1;
            count += 1;
            if instr.op == Opcode::Halt {
                self.fetch_blocked = true;
                break;
            }
            if pred.next_pc != pc + 1 {
                // Redirected fetch: group ends; a taken conditional
                // branch missing in the BTB redirects at decode instead
                // of fetch, costing one extra bubble.
                self.fetch_pc = pred.next_pc;
                self.cur_line = None;
                let bubble = if instr.op.is_cond_branch() && !btb_hit { 2 } else { 1 };
                self.fetch_resume_at = self.cycle + bubble;
                break;
            }
            self.fetch_pc += 1;
        }
    }

    // ----- rename + integration ------------------------------------------

    fn do_rename(&mut self) {
        for _ in 0..self.cfg.core.rename_width {
            if self.fq_len == 0 {
                return;
            }
            let slot = self.fq_head & self.fq_mask;
            let f = self.fq_slots[slot];
            if f.ready_at > self.cycle {
                return;
            }
            if self.rob_len >= self.cfg.core.rob_entries {
                self.stats.stalls_rob += 1;
                return;
            }
            let ck = self.fq_ckpts[slot];
            if !self.rename_one(f, ck) {
                return; // resource stall; retry next cycle
            }
            // A fast-resolved branch inside `rename_one` clears the
            // queue (the renamed instruction included) — nothing left
            // to pop then.
            if self.fq_len > 0 {
                self.fq_head = self.fq_head.wrapping_add(1);
                self.fq_len -= 1;
            }
        }
    }

    /// Renames one instruction; returns `false` on a structural stall.
    fn rename_one(&mut self, f: Fetched, ck: (SpecCheckpoint, SpecCheckpoint)) -> bool {
        let instr = f.instr;
        let seq = self.seq_next;
        let class = instr.exec_class();
        let dst_log = instr.dst.filter(|d| !d.is_zero());

        let src1 = instr.src1.map(|r| self.map_src(r));
        let src2r = instr.src2_reg().map(|r| self.map_src(r));
        let key = ItKey::new(f.pc, instr, f.call_depth, src1, src2r);

        let mut d = DynInst {
            seq,
            pc: f.pc,
            instr,
            class,
            pred_taken: f.taken,
            pred_next_pc: f.next_pc,
            call_depth: f.call_depth,
            fetch_cycle: f.fetch_cycle,
            state: State::Done,
            dst_log,
            dst_new: None,
            dst_old: None,
            srcs: [src1, src2r],
            integrated: false,
            holds_rs: false,
            holds_lsq: false,
            agen_at: NO_CYCLE,
            done_at: self.cycle,
            eff_addr: None,
            forward_seq: u64::MAX,
            outcome: None,
            actual_target: None,
            resolved_misp: false,
        };

        // Value ops whose destination is a zero register degenerate to
        // no-ops (writes to r31/f31 are discarded).
        let effective_class = if dst_log.is_none()
            && matches!(class, ExecClass::SimpleInt | ExecClass::Complex | ExecClass::Load)
        {
            ExecClass::Nop
        } else {
            class
        };

        match effective_class {
            ExecClass::Nop | ExecClass::Syscall => { /* done at rename */ }
            ExecClass::DirectJump => {
                if instr.op == Opcode::Jsr {
                    // The return address is produced for free at rename.
                    let Some(ra) = self.refvec.alloc() else {
                        self.stats.stalls_preg += 1;
                        return false;
                    };
                    let dst = dst_log.expect("jsr writes ra");
                    self.phys.val[ra.preg as usize] = f.pc + 1;
                    self.phys.ready_at[ra.preg as usize] = self.cycle;
                    self.phys.producer_seq[ra.preg as usize] = seq;
                    self.phys.producer_abs[ra.preg as usize] = self.rob_base + self.rob_len as u64;
                    if self.needs_golden {
                        self.golden[ra.preg as usize] = f.pc + 1;
                    }
                    self.refvec.mark_written(ra);
                    d.dst_new = Some(ra);
                    d.dst_old = Some(self.map.set(dst, ra));
                }
            }
            ExecClass::IndirectJump => {
                if !self.take_rs() {
                    return false;
                }
                d.holds_rs = true;
                d.state = State::WaitRs;
                d.done_at = NO_CYCLE;
            }
            ExecClass::CondBranch => {
                if let Some(ig) = self.try_integrate(seq, &f, key, None) {
                    let ItOutput::Branch(taken) = ig.entry.out else { unreachable!() };
                    d.integrated = true;
                    self.integrated_meta.push_back((seq, ig));
                    d.outcome = Some(taken);
                    d.state = State::Done;
                    d.done_at = self.cycle;
                    if taken != f.taken {
                        // Fast resolution at rename: nothing younger has
                        // renamed, so only the front end must recover.
                        d.resolved_misp = true;
                        let redirect = if taken { instr.target } else { f.pc + 1 };
                        self.frontend.repair(ck.0, Some(taken));
                        self.fq_len = 0;
                        self.fetch_pc = redirect;
                        self.fetch_blocked = false;
                        self.cur_line = None;
                        self.fetch_resume_at = self.cycle + 1;
                        self.stats.squashes_branch += 1;
                        self.finish_rename(d, ck, seq);
                        return true;
                    }
                } else {
                    if !self.take_rs() {
                        return false;
                    }
                    d.holds_rs = true;
                    d.state = State::WaitRs;
                    d.done_at = NO_CYCLE;
                }
            }
            ExecClass::Store => {
                if self.rs_used >= self.cfg.core.rs_entries {
                    self.stats.stalls_rs += 1;
                    return false;
                }
                if self.lsq_used >= self.cfg.core.lsq_entries {
                    self.stats.stalls_lsq += 1;
                    return false;
                }
                self.rs_used += 1;
                self.lsq_used += 1;
                d.holds_rs = true;
                d.holds_lsq = true;
                d.state = State::WaitRs;
                d.done_at = NO_CYCLE;
                let base = src1.expect("store has a base");
                let data = src2r.expect("store has data");
                self.sq.push(seq, instr.op, data);
                if self.cfg.integration.enabled
                    && rix_integration::it::wants_reverse_entry(self.cfg.integration.reverse, instr)
                {
                    self.it
                        .insert_reverse_store(f.pc, instr, f.call_depth, base, data, seq);
                }
                // Golden memory overlay for the rename-time shadow
                // (only oracle suppression ever reads it).
                if self.needs_golden {
                    let g_base = self.golden_of(base);
                    let g_data = self.golden_of(data);
                    let ea = semantics::effective_addr(instr.op, g_base, instr.disp);
                    let word_addr = ea & !7;
                    let prev = self.rename_read_word(seq, word_addr);
                    let word = semantics::merge_store(instr.op, ea, prev, g_data);
                    self.rename_mem.push_back(RenameMemEntry { seq, word_addr, word });
                }
            }
            ExecClass::SimpleInt | ExecClass::Complex | ExecClass::Load => {
                let dst = dst_log.expect("value op has a destination");
                if let Some(ig) = self.try_integrate(seq, &f, key, Some(dst)) {
                    let ItOutput::Value(out) = ig.entry.out else { unreachable!() };
                    d.dst_new = Some(out);
                    d.dst_old = Some(self.map.set(dst, out));
                    d.integrated = true;
                    self.integrated_meta.push_back((seq, ig));
                    d.state = State::WaitInt;
                    d.done_at = NO_CYCLE;
                } else {
                    if self.rs_used >= self.cfg.core.rs_entries {
                        self.stats.stalls_rs += 1;
                        return false;
                    }
                    if instr.op.is_load() && self.lsq_used >= self.cfg.core.lsq_entries {
                        self.stats.stalls_lsq += 1;
                        return false;
                    }
                    let Some(out) = self.refvec.alloc() else {
                        self.stats.stalls_preg += 1;
                        return false;
                    };
                    self.rs_used += 1;
                    d.holds_rs = true;
                    if instr.op.is_load() {
                        self.lsq_used += 1;
                        d.holds_lsq = true;
                    }
                    self.phys.ready_at[out.preg as usize] = NO_CYCLE;
                    self.phys.producer_seq[out.preg as usize] = seq;
                    self.phys.producer_abs[out.preg as usize] =
                        self.rob_base + self.rob_len as u64;
                    if self.needs_golden {
                        if let Some(g) = self.rename_golden(seq, f.pc, instr) {
                            self.golden[out.preg as usize] = g;
                        }
                    }
                    d.dst_new = Some(out);
                    d.dst_old = Some(self.map.set(dst, out));
                    d.state = State::WaitRs;
                    d.done_at = NO_CYCLE;
                    if self.cfg.integration.enabled && instr.op.is_integrable() {
                        self.it.insert_direct(key, out, seq);
                    }
                    if self.cfg.integration.enabled
                        && rix_integration::it::wants_reverse_entry(
                            self.cfg.integration.reverse,
                            instr,
                        )
                        && !instr.op.is_store()
                    {
                        // Reverse entry for an invertible add: the old
                        // mapping of the source is the entry's output.
                        let src = src1.expect("invertible add has a source");
                        self.it
                            .insert_reverse_add(f.pc, instr, f.call_depth, src, out, seq);
                    }
                }
            }
        }
        self.finish_rename(d, ck, seq);
        true
    }

    fn finish_rename(&mut self, d: DynInst, ck: (SpecCheckpoint, SpecCheckpoint), seq: u64) {
        sanity!(
            self.rob_len == 0 || rob_entry!(self, self.rob_len - 1).seq < seq,
            "rename-seq-monotone",
            "renamed seq {seq} is not younger than the ROB tail"
        );
        let state = d.state;
        self.rob_push(d, ck);
        self.seq_next = seq + 1;
        // Enter the event-driven scheduler. Classifying at rename is
        // equivalent to the old next-cycle sweep: a wrong "blocked"
        // verdict is re-examined the moment the operand's readiness
        // deadline passes, and load verdicts only pick a poll list.
        match state {
            State::WaitRs => self.classify_waiting(seq, self.rob_len - 1),
            State::WaitInt => {
                let abs = self.rob_base + (self.rob_len - 1) as u64;
                self.pending_int.push((seq, abs));
            }
            _ => {}
        }
    }

    /// Classifies the just-renamed waiting instruction `seq` (at ROB
    /// position `idx`) into the issue lists. Wakeups after this never
    /// touch the `DynInst` again: the parked entry carries the
    /// remaining operand and the precomputed rank/port class.
    fn classify_waiting(&mut self, seq: u64, idx: usize) {
        let abs = self.rob_base + idx as u64;
        let d = &rob_entry!(self, idx);
        sanity!(d.seq == seq, "classify-seq-match", "rob[{idx}] holds {} not {seq}", d.seq);
        sanity!(
            d.state == State::WaitRs,
            "classify-state-waiting",
            "classifying seq {seq} in state {:?}",
            d.state
        );
        let class = d.class;
        let readiness = self.issue_readiness(d);
        if class == ExecClass::Load {
            // Loads poll every cycle once operand-unblocked; blocking on
            // the base first keeps the poll list short, and the verdict
            // is cached against the scheduler generation.
            match readiness {
                Readiness::WaitSrc(p) => self.block_on(p, Blocked {
                    seq,
                    abs,
                    other: NO_OTHER,
                    rank: 0,
                    pclass: PORT_LOAD,
                    is_load: true,
                }),
                verdict => {
                    let cache =
                        Self::load_poll_cache(self.sched_gen(), self.sched_addr_gen(), verdict);
                    let pos = self.wait_loads.partition_point(|&(s, ..)| s < seq);
                    self.wait_loads.insert(pos, (seq, abs, cache.0, cache.1));
                }
            }
            return;
        }
        let rank: u8 = match class {
            ExecClass::CondBranch | ExecClass::IndirectJump => 0,
            ExecClass::Complex if d.instr.op.is_fp() => 0,
            _ => 1,
        };
        let pclass: u8 = match class {
            ExecClass::SimpleInt | ExecClass::CondBranch | ExecClass::IndirectJump => {
                PORT_SIMPLE
            }
            ExecClass::Complex => PORT_COMPLEX,
            ExecClass::Store => PORT_STORE,
            _ => unreachable!("loads handled above; other classes never wait"),
        };
        match readiness {
            Readiness::Ready => self.insert_ready(rank, seq, abs, pclass),
            Readiness::WaitSrc(p) => {
                // The remaining operand to check on wake: only when the
                // blocker is src1 can an (unready) src2 still matter —
                // a src2 blocker means src1 was already ready, which is
                // monotone. Stores never need their data operand to
                // issue.
                let other = match d.srcs {
                    [Some(s0), Some(s1)]
                        if s0.preg == p && class != ExecClass::Store =>
                    {
                        s1.preg
                    }
                    _ => NO_OTHER,
                };
                self.block_on(p, Blocked { seq, abs, other, rank, pclass, is_load: false });
            }
            Readiness::StallQueue | Readiness::StallTransient => {
                unreachable!("only loads can stall")
            }
        }
    }

    /// Parks an instruction on a not-yet-ready operand register: if the
    /// operand's arrival is already scheduled the wake goes straight on
    /// the calendar; otherwise the producer's execute will move it
    /// there (see [`Simulator::wake_waiters`]).
    fn block_on(&mut self, wait: u16, meta: Blocked) {
        let ready = self.phys.ready_at[wait as usize];
        if ready == NO_CYCLE {
            self.preg_waiters[wait as usize].push(meta);
        } else {
            // `WaitSrc` implies `ready > cycle + regread`, so the wake
            // is strictly in the future.
            let wake = ready - self.cfg.core.regread_delay;
            sanity!(
                wake > self.cycle,
                "wakeup-strictly-future",
                "parking a wake at cycle {wake}, not after {}",
                self.cycle
            );
            self.schedule_wake(wake, meta);
        }
    }

    /// Schedules a wake event on the calendar.
    fn schedule_wake(&mut self, wake: Cycle, meta: Blocked) {
        if wake - self.cycle >= COMPLETION_RING as u64 {
            self.wake_far.push((wake, meta));
        } else {
            self.wake_ring[(wake as usize) & (COMPLETION_RING - 1)].push(meta);
        }
    }

    /// Moves every consumer parked on `preg` onto the wake calendar:
    /// its value arrives at `ready`, so they become selectable
    /// `regread_delay` earlier — but never before the next issue pass.
    fn wake_waiters(&mut self, preg: u16, ready: Cycle) {
        if self.preg_waiters[preg as usize].is_empty() {
            return;
        }
        let wake = ready
            .saturating_sub(self.cfg.core.regread_delay)
            .max(self.cycle + 1);
        while let Some(m) = self.preg_waiters[preg as usize].pop() {
            self.schedule_wake(wake, m);
        }
    }

    /// Inserts a known-ready candidate into the sorted ready set.
    fn insert_ready(&mut self, rank: u8, seq: u64, abs: u64, pclass: u8) {
        sanity!(
            seq < 1 << 62 && abs < 1 << 62,
            "ready-key-width",
            "seq {seq} / abs {abs} overflow the packed ready-set key"
        );
        let key = (u64::from(rank) << 62) | seq;
        let payload = (abs << 2) | u64::from(pclass);
        let pos = self.ready_set.partition_point(|&(k, _)| k < key);
        self.ready_set.insert(pos, (key, payload));
    }

    /// The scheduler generation: changes whenever store-queue contents
    /// or CHT predictions change — the only inputs (beyond monotone
    /// operand readiness) a waiting load's issue verdict depends on.
    #[inline]
    fn sched_gen(&self) -> u64 {
        self.sq.generation() + self.cht.trainings()
    }

    /// The readiness-revoking generation: only an address resolution or
    /// a CHT training can turn a ready load unready, so Ready verdicts
    /// cache against this much quieter counter.
    #[inline]
    fn sched_addr_gen(&self) -> u64 {
        self.sq.addr_generation() + self.cht.trainings()
    }

    /// Maps a load's poll verdict to its (generation, ready) cache
    /// entry: Ready caches against the addr generation, queue stalls
    /// against the full generation, and transient stalls use the
    /// never-matching sentinel so they are re-evaluated every cycle.
    fn load_poll_cache(gen_full: u64, gen_addr: u64, verdict: Readiness) -> (u64, bool) {
        match verdict {
            Readiness::Ready => (gen_addr, true),
            Readiness::StallQueue => (gen_full, false),
            Readiness::StallTransient => (u64::MAX, false),
            Readiness::WaitSrc(_) => unreachable!("polled load operands are ready"),
        }
    }

    fn take_rs(&mut self) -> bool {
        if self.rs_used >= self.cfg.core.rs_entries {
            self.stats.stalls_rs += 1;
            return false;
        }
        self.rs_used += 1;
        true
    }

    /// The integration test (§2.1) with all three extensions: looks up
    /// the IT, applies suppression, checks register-state eligibility,
    /// and on success increments the reference count.
    fn try_integrate(
        &mut self,
        seq: u64,
        f: &Fetched,
        key: ItKey,
        dst: Option<rix_isa::LogReg>,
    ) -> Option<Integrated> {
        let ic = self.cfg.integration;
        if !ic.enabled || !f.instr.op.is_integrable() {
            return None;
        }
        if f.instr.dst.is_some() && dst.is_none() {
            return None;
        }
        let entry = self.it.lookup(key)?;
        // Emulated integration pipelining (§3.3): a too-recent entry is
        // not yet visible to the lookup stage. Entries created before a
        // pipeline flush are always visible (the flush provides the
        // separation), which is why squash reuse is impervious.
        if ic.pipeline_depth > 0 && seq.saturating_sub(entry.creator_seq) < ic.pipeline_depth {
            return None;
        }
        // Suppression.
        match ic.suppression {
            Suppression::Lisp => {
                if f.instr.op.is_load() && self.lisp.suppress(f.pc) {
                    self.stats.integration.suppressed += 1;
                    return None;
                }
            }
            Suppression::Oracle => {
                let ok = match entry.out {
                    ItOutput::Value(out) => {
                        let mine = self.rename_golden(seq, f.pc, f.instr);
                        // The shared register must be destined for my
                        // value — and if it has already been written
                        // (e.g. by a squashed wrong-path producer whose
                        // memory-order speculation went wrong), the value
                        // actually present must match too.
                        mine == Some(self.golden_of(out))
                            && (!self.refvec.written(out) || mine == Some(self.val(out)))
                    }
                    ItOutput::Branch(taken) => f
                        .instr
                        .src1
                        .map(|r| {
                            semantics::branch_taken(
                                f.instr.op,
                                self.golden_of(self.map_src(r)),
                            ) == taken
                        })
                        .unwrap_or(false),
                };
                if !ok {
                    self.stats.integration.suppressed += 1;
                    return None;
                }
            }
        }
        match entry.out {
            ItOutput::Value(out) => {
                let eligible = if ic.general_reuse {
                    self.refvec.eligible_general(out)
                } else {
                    self.refvec.eligible_squash(out)
                };
                if !eligible {
                    return None;
                }
                let refcount = self.refvec.integrate(out)?;
                let status = if refcount == 1 {
                    ResultStatus::ShadowSquash
                } else {
                    let producer = self.phys.producer_seq[out.preg as usize];
                    let pabs = self.phys.producer_abs[out.preg as usize];
                    match self.rob_locate(producer, pabs).map(|i| rob_entry!(self, i).state) {
                        Some(State::WaitRs) | Some(State::WaitInt) => ResultStatus::Rename,
                        Some(State::Issued) | Some(State::Done) => ResultStatus::Issue,
                        None => ResultStatus::Retire,
                    }
                };
                Some(Integrated {
                    entry,
                    key,
                    event: IntegrationEvent {
                        kind: if entry.reverse {
                            IntegrationKind::Reverse
                        } else {
                            IntegrationKind::Direct
                        },
                        itype: IntegrationType::classify(f.instr),
                        distance: seq.saturating_sub(entry.creator_seq),
                        status,
                        refcount,
                    },
                })
            }
            ItOutput::Branch(_) => Some(Integrated {
                entry,
                key,
                event: IntegrationEvent {
                    kind: if entry.reverse {
                        IntegrationKind::Reverse
                    } else {
                        IntegrationKind::Direct
                    },
                    itype: IntegrationType::classify(f.instr),
                    distance: seq.saturating_sub(entry.creator_seq),
                    status: ResultStatus::Retire,
                    refcount: 0,
                },
            }),
        }
    }

    // ----- issue ----------------------------------------------------------

    fn do_issue(&mut self) {
        // Make completed store data visible to forwarding.
        let cycle = self.cycle;
        let phys_ready = &self.phys.ready_at;
        let phys_val = &self.phys.val;
        self.sq.fill_data(
            cycle,
            |p| phys_ready[p.preg as usize],
            |p| phys_val[p.preg as usize],
        );

        // Wake operand-blocked entries whose register hit its readiness
        // deadline and re-classify them (the evaluation has no side
        // effects, so the wake order within a cycle is immaterial).
        let regread = self.cfg.core.regread_delay;
        // Bring far-scheduled wakes into calendar range (almost always
        // empty), then drain this cycle's wake bucket. Squashed entries
        // are skipped lazily (absolute positions never lie).
        if !self.wake_far.is_empty() {
            let mut i = 0;
            while i < self.wake_far.len() {
                let (t, m) = self.wake_far[i];
                if t - cycle < COMPLETION_RING as u64 {
                    self.wake_far.swap_remove(i);
                    self.wake_ring[(t as usize) & (COMPLETION_RING - 1)].push(m);
                } else {
                    i += 1;
                }
            }
        }
        let slot = (cycle as usize) & (COMPLETION_RING - 1);
        let mut due = std::mem::replace(
            &mut self.wake_ring[slot],
            std::mem::take(&mut self.scratch_wakes),
        );
        for &b in &due {
            if self.rob_locate(b.seq, b.abs).is_none() {
                continue; // squashed while parked
            }
            sanity!(
                rob_entry!(self, (b.abs - self.rob_base) as usize).state == State::WaitRs,
                "woken-state-waiting",
                "woken seq {} is not waiting for issue",
                b.seq
            );
            // Woken. Loads re-enter the poll list; others either become
            // candidates or re-park on their remaining operand — all
            // from the parked entry, without touching the DynInst.
            if b.is_load {
                let pos = self.wait_loads.partition_point(|&(s, ..)| s < b.seq);
                self.wait_loads.insert(pos, (b.seq, b.abs, u64::MAX, false));
            } else if b.other != NO_OTHER
                && self.phys.ready_at[b.other as usize] > cycle + regread
            {
                // Re-park on the remaining operand.
                let mut m = b;
                let wait = m.other;
                m.other = NO_OTHER;
                self.block_on(wait, m);
            } else {
                self.insert_ready(b.rank, b.seq, b.abs, b.pclass);
            }
        }
        due.clear();
        self.scratch_wakes = due;

        // Poll operand-unblocked loads: unlike every other class their
        // readiness also hangs on store-queue state, which can regress.
        // The cached verdict short-circuits the evaluation while the
        // scheduler generation is unchanged.
        let gen_full = self.sched_gen();
        let gen_addr = self.sched_addr_gen();
        let mut loads = std::mem::take(&mut self.scratch_loads);
        loads.clear();
        let mut wi = 0;
        while wi < self.wait_loads.len() {
            let (seq, abs, cached_key, cached_ready) = self.wait_loads[wi];
            wi += 1;
            let fresh =
                cached_key == if cached_ready { gen_addr } else { gen_full };
            if fresh {
                if cached_ready {
                    let idx =
                        self.rob_locate(seq, abs).expect("waiting load is in flight");
                    loads.push((seq, idx));
                }
                continue;
            }
            let idx = self.rob_locate(seq, abs).expect("waiting load is in flight");
            let verdict = self.issue_readiness(&rob_entry!(self, idx));
            let cache = Self::load_poll_cache(gen_full, gen_addr, verdict);
            self.wait_loads[wi - 1] = (seq, abs, cache.0, cache.1);
            if verdict == Readiness::Ready {
                loads.push((seq, idx));
            }
        }
        // `wait_loads` is kept sorted by seq, so `loads` already is.
        sanity!(loads.is_sorted(), "poll-list-sorted", "ready loads are out of age order");

        // Greedy in-order selection (§3.1: loads/branches/FP first, age
        // as tie-breaker) over the merge of the two sorted candidate
        // sources: transient ready loads (rank 0) and the persistent
        // ready set. Identical order and port arbitration to the old
        // full-ROB candidate sweep.
        let issue = self.cfg.core.issue;
        let mut total = issue.width;
        let mut ports = [issue.simple, issue.complex, issue.load, issue.store];
        let mut shared = if issue.shared_ldst { 1 } else { usize::MAX };
        let mut li = 0;
        let mut ri = 0;
        while total > 0 {
            let next_load = loads.get(li).copied();
            let next_ready = self.ready_set.get(ri).copied();
            let take_load = match (next_load, next_ready) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                // Load keys are `0 << 62 | seq` — directly comparable.
                (Some((ls, _)), Some((k, _))) => ls < k,
            };
            if take_load {
                let (seq, idx) = next_load.expect("checked");
                li += 1;
                let port =
                    if issue.shared_ldst { &mut shared } else { &mut ports[PORT_LOAD as usize] };
                if *port == 0 {
                    continue;
                }
                *port -= 1;
                total -= 1;
                let pos = self
                    .wait_loads
                    .iter()
                    .position(|&(s, ..)| s == seq)
                    .expect("selected load is listed");
                self.wait_loads.remove(pos); // keeps seq order
                self.execute(idx);
            } else {
                let (key, payload) = next_ready.expect("checked");
                let (seq, abs) = (key & ((1 << 62) - 1), payload >> 2);
                let pclass = (payload & 3) as u8;
                let port = if pclass == PORT_STORE && issue.shared_ldst {
                    &mut shared
                } else {
                    &mut ports[pclass as usize]
                };
                if *port == 0 {
                    ri += 1;
                    continue;
                }
                *port -= 1;
                total -= 1;
                let idx = self.rob_locate(seq, abs).expect("ready instruction is in flight");
                self.ready_set.remove(ri);
                self.execute(idx);
            }
        }
        self.scratch_loads = loads;
    }

    fn issue_readiness(&self, d: &DynInst) -> Readiness {
        let class = d.class;
        // Stores need only the base for address generation.
        let needed: &[Option<PregRef>] = if class == ExecClass::Store {
            &d.srcs[..1]
        } else {
            &d.srcs[..]
        };
        for &s in needed.iter().flatten() {
            if !self.src_ready(s) {
                // A blocking operand: issue is impossible until this
                // register becomes ready (memoizable by the caller).
                return Readiness::WaitSrc(s.preg);
            }
        }
        if class == ExecClass::Load {
            if self.cht.predicts_conflict(d.pc) && !self.sq.all_older_resolved(d.seq) {
                return Readiness::StallQueue;
            }
            // If the youngest older same-word store has no data yet,
            // wait for it (forwarding would stall anyway).
            let base = d.srcs[0].expect("load has a base");
            if self.phys.ready_at[base.preg as usize] <= self.cycle {
                let addr =
                    semantics::effective_addr(d.instr.op, self.val(base), d.instr.disp);
                if let Some(e) = self.sq.youngest_older_match(d.seq, addr & !7) {
                    if e.data.is_none() {
                        return Readiness::StallQueue;
                    }
                }
            } else {
                // Base arrives exactly at execute via bypass; defer the
                // forwarding question one cycle rather than guess.
                return Readiness::StallTransient;
            }
        }
        Readiness::Ready
    }

    fn execute(&mut self, idx: usize) {
        let t_exec = self.cycle + self.cfg.core.regread_delay;
        self.stats.executed += 1;
        let (instr, class, seq, srcs, dst_new) = {
            let d = &mut rob_entry!(self, idx);
            d.state = State::Issued;
            d.holds_rs = false;
            (d.instr, d.class, d.seq, d.srcs, d.dst_new)
        };
        self.rs_used -= 1;

        match class {
            ExecClass::SimpleInt | ExecClass::Complex => {
                let a = self.val(srcs[0].expect("ALU op has src1"));
                let b = match instr.src2 {
                    Some(Operand::Reg(_)) => self.val(srcs[1].expect("reg operand renamed")),
                    Some(Operand::Imm(i)) => i as i64 as u64,
                    None => 0,
                };
                let r = semantics::alu(instr.op, a, b);
                let done = t_exec + instr.op.latency();
                let out = dst_new.expect("ALU op has a destination");
                rob_entry!(self, idx).done_at = done;
                self.schedule_completion_at(done, self.cycle + 1, seq, idx);
                self.phys.val[out.preg as usize] = r;
                self.phys.ready_at[out.preg as usize] = done;
                self.wake_waiters(out.preg, done);
            }
            ExecClass::CondBranch => {
                let c = self.val(srcs[0].expect("branch has a condition"));
                let d = &mut rob_entry!(self, idx);
                d.outcome = Some(semantics::branch_taken(instr.op, c));
                d.done_at = t_exec + 1;
                self.schedule_completion_at(t_exec + 1, self.cycle + 1, seq, idx);
            }
            ExecClass::IndirectJump => {
                let t = self.val(srcs[0].expect("ret reads ra"));
                let d = &mut rob_entry!(self, idx);
                d.actual_target = Some(t);
                d.done_at = t_exec + 1;
                self.schedule_completion_at(t_exec + 1, self.cycle + 1, seq, idx);
            }
            ExecClass::Load => {
                let base = self.val(srcs[0].expect("load has a base"));
                let addr = semantics::effective_addr(instr.op, base, instr.disp);
                let agen = t_exec + 1;
                self.stats.loads_executed += 1;
                let word_addr = addr & !7;
                let arch_word = self.arch_mem.read_word(word_addr);
                let (word, fwd) = self.sq.spec_word(seq, word_addr, arch_word);
                let value = semantics::load_from_word(instr.op, addr, word);
                let done = if fwd.is_some() {
                    agen + 2 // store-to-load forwarding takes 2 cycles
                } else {
                    self.mem.dload(agen, addr)
                };
                let d = &mut rob_entry!(self, idx);
                d.agen_at = agen;
                d.eff_addr = Some(addr);
                d.forward_seq = fwd.unwrap_or(u64::MAX);
                d.done_at = done;
                self.schedule_completion_at(done, self.cycle + 1, seq, idx);
                let out = dst_new.expect("load has a destination");
                self.phys.val[out.preg as usize] = value;
                self.phys.ready_at[out.preg as usize] = done;
                self.wake_waiters(out.preg, done);
            }
            ExecClass::Store => {
                let base = self.val(srcs[0].expect("store has a base"));
                let addr = semantics::effective_addr(instr.op, base, instr.disp);
                let agen = t_exec + 1;
                let data_preg = srcs[1].expect("store has data");
                let data_ready = self.phys.ready_at[data_preg.preg as usize];
                let done =
                    if data_ready == NO_CYCLE { NO_CYCLE } else { agen.max(data_ready) };
                {
                    let d = &mut rob_entry!(self, idx);
                    d.agen_at = agen;
                    d.eff_addr = Some(addr);
                    d.done_at = done;
                }
                if done == NO_CYCLE {
                    // Completion time unknown until the data producer
                    // schedules its result.
                    self.pending_store_data.push((seq, self.rob_base + idx as u64));
                } else {
                    self.schedule_completion_at(done, self.cycle + 1, seq, idx);
                }
                self.sq.set_addr(seq, addr);
                // Memory-order violation check: any younger load that
                // already obtained its value from an older source (or
                // from memory) while touching this word mis-speculated.
                let word_addr = addr & !7;
                let mut victim: Option<u64> = None;
                // Only entries younger than the store can violate; the
                // seq-ordered ROB bounds the scan by binary search.
                let start = self.rob_upper_bound(seq);
                for yi in start..self.rob_len {
                    let y = &rob_entry!(self, yi);
                    if y.integrated {
                        continue;
                    }
                    if !matches!(y.state, State::Issued | State::Done) {
                        continue;
                    }
                    if !y.instr.op.is_load() {
                        continue;
                    }
                    if y.eff_addr.map(|a| a & !7) != Some(word_addr) {
                        continue;
                    }
                    if y.forward_seq == u64::MAX || y.forward_seq < seq {
                        victim = Some(victim.map_or(y.seq, |v: u64| v.min(y.seq)));
                    }
                }
                if let Some(load_seq) = victim {
                    // Every event fires a fixed delay after its issue
                    // cycle, so firing order equals push order and the
                    // drain in `fire_due_violations` can front-pop.
                    sanity!(
                        self.events.back().is_none_or(|e| e.fire_at <= agen),
                        "violation-fifo-order",
                        "violation event at cycle {agen} fires before the queue tail"
                    );
                    self.events.push_back(ViolationEvent {
                        fire_at: agen,
                        load_seq,
                        store_seq: seq,
                    });
                }
            }
            _ => unreachable!("only scheduled classes execute"),
        }
    }

    // ----- completion / resolution ----------------------------------------

    fn do_complete(&mut self) {
        // Fire due memory-order violation events (oldest load wins).
        // Guarded so the common empty case does zero work; events sit in
        // firing order, so the due prefix pops off the front.
        if !self.events.is_empty() {
            self.fire_due_violations();
        }

        // Completions and branch resolution, fully event-driven — no
        // ROB sweep. The three sources below never perturb each other's
        // predicates (they only touch their own entry's state/done_at
        // and non-ROB structures), and due completions drain from the
        // heap in (cycle, seq) order, which is exactly the oldest-first
        // order the historical full scan processed them in.
        let mut squash_req: Option<SquashReq> = None;
        let cycle = self.cycle;

        // Stores waiting on data learn their completion time as soon as
        // the producer has scheduled it.
        let mut i = 0;
        while i < self.pending_store_data.len() {
            let (seq, abs) = self.pending_store_data[i];
            let idx = self.rob_locate(seq, abs).expect("pending store is in flight");
            let d = &rob_entry!(self, idx);
            sanity!(
                d.instr.op.is_store(),
                "pending-store-is-store",
                "seq {seq} on the pending-store-data list is `{}`",
                d.instr
            );
            let data = d.srcs[1].expect("store has data");
            let ready = self.phys.ready_at[data.preg as usize];
            if ready == NO_CYCLE {
                i += 1;
                continue;
            }
            let done = d.agen_at.max(ready);
            self.pending_store_data.swap_remove(i);
            rob_entry!(self, idx).done_at = done;
            self.schedule_completion_at(done, cycle, seq, idx);
        }

        // Value integrations complete when the shared register is ready.
        let mut i = 0;
        while i < self.pending_int.len() {
            let (seq, abs) = self.pending_int[i];
            let idx = self.rob_locate(seq, abs).expect("pending integration is in flight");
            sanity!(
                rob_entry!(self, idx).integrated,
                "pending-int-integrated",
                "seq {seq} on the pending-integration list was never integrated"
            );
            // The shared register is exactly the renamed destination.
            let out = rob_entry!(self, idx).dst_new.expect("value integration has a shared dst");
            if self.phys.ready_at[out.preg as usize] > cycle {
                i += 1;
                continue;
            }
            self.pending_int.swap_remove(i);
            let d = &mut rob_entry!(self, idx);
            d.done_at = cycle;
            d.state = State::Done;
        }

        // Bring far-scheduled completions into calendar range (the
        // overflow list is almost always empty).
        if !self.completions_far.is_empty() {
            let mut i = 0;
            while i < self.completions_far.len() {
                let (t, seq, abs) = self.completions_far[i];
                if t - cycle < COMPLETION_RING as u64 {
                    self.completions_far.swap_remove(i);
                    self.completions[(t as usize) & (COMPLETION_RING - 1)].push((seq, abs));
                } else {
                    i += 1;
                }
            }
        }

        // Drain this cycle's calendar bucket in seq order (lazily
        // skipping squashed sequence numbers).
        let slot = (cycle as usize) & (COMPLETION_RING - 1);
        let mut due = std::mem::replace(
            &mut self.completions[slot],
            std::mem::take(&mut self.scratch_comp),
        );
        due.sort_unstable();
        for &(seq, abs) in &due {
            let Some(idx) = self.rob_locate(seq, abs) else { continue };
            sanity!(
                rob_entry!(self, idx).state == State::Issued,
                "completion-state-issued",
                "completing seq {seq} in state {:?}",
                rob_entry!(self, idx).state
            );
            sanity!(
                rob_entry!(self, idx).done_at <= cycle,
                "completion-not-early",
                "seq {seq} completes at cycle {cycle} but is done at {}",
                rob_entry!(self, idx).done_at
            );
            self.complete_issued(idx, &mut squash_req);
        }
        due.clear();
        self.scratch_comp = due;
        if let Some(req) = squash_req {
            self.stats.squashes_branch += 1;
            self.squash(req);
        }
    }

    /// Schedules the completion event of the issued instruction at ROB
    /// position `idx`, firing no earlier than `floor`: the completion
    /// drain for this cycle has already run when issue-time scheduling
    /// happens, so those events must land at `cycle + 1` at the
    /// earliest — exactly when the old completion sweep would first
    /// have seen them — while schedules from within the completion
    /// phase itself (a store learning a past completion time) may still
    /// fire in the current cycle's bucket.
    #[inline]
    fn schedule_completion_at(&mut self, done_at: Cycle, floor: Cycle, seq: u64, idx: usize) {
        sanity!(
            done_at != NO_CYCLE,
            "completion-time-known",
            "scheduling a completion for seq {seq} with no completion time"
        );
        let abs = self.rob_base + idx as u64;
        let fire = done_at.max(floor);
        if fire - self.cycle >= COMPLETION_RING as u64 {
            self.completions_far.push((fire, seq, abs));
        } else {
            self.completions[(fire as usize) & (COMPLETION_RING - 1)].push((seq, abs));
        }
    }

    /// Marks the issued instruction at `idx` complete: writeback
    /// bookkeeping, branch/return resolution, and (for the oldest
    /// resolving mispredict) the squash request.
    fn complete_issued(&mut self, idx: usize, squash_req: &mut Option<SquashReq>) {
        let d = &rob_entry!(self, idx);
        let seq = d.seq;
        let instr = d.instr;
        let class = d.class;
        let outcome = d.outcome;
        let actual_target = d.actual_target;
        let pred_taken = d.pred_taken;
        let pred_next_pc = d.pred_next_pc;
        let call_depth = d.call_depth;
        let pc = d.pc;
        let srcs = d.srcs;
        rob_entry!(self, idx).state = State::Done;
        if let Some(out) = rob_entry!(self, idx).dst_new {
            self.refvec.mark_written(out);
        }
        match class {
            ExecClass::CondBranch => {
                let taken = outcome.expect("resolved branch");
                if self.cfg.integration.enabled {
                    // Recomputes the rename-time key exactly: srcs hold
                    // the renamed inputs the original key was built from.
                    let key = ItKey::new(pc, instr, call_depth, srcs[0], srcs[1]);
                    self.it.insert_branch(key, taken, seq);
                }
                if taken != pred_taken && !rob_entry!(self, idx).resolved_misp {
                    rob_entry!(self, idx).resolved_misp = true;
                    let redirect = if taken { instr.target } else { pc + 1 };
                    let req = SquashReq {
                        after_seq: seq,
                        redirect,
                        checkpoint: rob_pred_at!(self, idx).0,
                        corrected: Some(taken),
                    };
                    if squash_req.is_none_or(|r| seq < r.after_seq) {
                        *squash_req = Some(req);
                    }
                }
            }
            ExecClass::IndirectJump => {
                let target = actual_target.expect("resolved ret");
                if target != pred_next_pc && !rob_entry!(self, idx).resolved_misp {
                    rob_entry!(self, idx).resolved_misp = true;
                    let req = SquashReq {
                        after_seq: seq,
                        redirect: target,
                        checkpoint: rob_pred_at!(self, idx).1,
                        corrected: None,
                    };
                    if squash_req.is_none_or(|r| seq < r.after_seq) {
                        *squash_req = Some(req);
                    }
                }
            }
            _ => {}
        }
    }

    /// Pops every violation event whose `fire_at` has arrived and
    /// squashes the offending loads, oldest load first. The scratch
    /// buffer keeps this allocation-free.
    fn fire_due_violations(&mut self) {
        let cycle = self.cycle;
        let mut due = std::mem::take(&mut self.scratch_due);
        sanity!(due.is_empty(), "violation-scratch-clean", "violation scratch buffer not drained");
        while let Some(&e) = self.events.front() {
            if e.fire_at > cycle {
                break;
            }
            due.push(e);
            self.events.pop_front();
        }
        due.sort_unstable_by_key(|e| e.load_seq);
        for ev in due.drain(..) {
            let Some(idx) = self.rob_index(ev.load_seq) else { continue };
            let d = &rob_entry!(self, idx);
            if !d.instr.op.is_load() {
                continue;
            }
            self.cht.train(d.pc);
            self.stats.squashes_memorder += 1;
            let req = SquashReq {
                after_seq: ev.load_seq - 1,
                redirect: d.pc,
                checkpoint: rob_pred_at!(self, idx).0,
                corrected: None,
            };
            self.squash(req);
        }
        self.scratch_due = due;
    }

    // ----- squash ----------------------------------------------------------

    fn squash(&mut self, req: SquashReq) {
        while self.rob_len > 0 && rob_entry!(self, self.rob_len - 1).seq > req.after_seq {
            let d = &rob_entry!(self, self.rob_len - 1);
            let (dst_log, dst_old, dst_new) = (d.dst_log, d.dst_old, d.dst_new);
            let (holds_rs, holds_lsq) = (d.holds_rs, d.holds_lsq);
            if let Some(dst) = dst_log {
                let old = dst_old.expect("renamed dst recorded its old mapping");
                self.map.set(dst, old);
                let new = dst_new.expect("renamed dst allocated or integrated");
                self.refvec.unmap_squash(new);
            }
            if holds_rs {
                self.rs_used -= 1;
            }
            if holds_lsq {
                self.lsq_used -= 1;
            }
            self.rob_len -= 1;
        }
        self.sq.squash_younger(req.after_seq);
        // Seq-ordered: squashed rename-overlay entries are a suffix.
        while self.rename_mem.back().is_some_and(|e| e.seq > req.after_seq) {
            self.rename_mem.pop_back();
        }
        // Purge squashed instructions from the eagerly-consumed
        // scheduler lists. The completion heap, wake calendar and
        // per-preg waiter lists are cleaned lazily at drain instead —
        // sequence numbers are never reused, so stale entries are
        // harmless.
        self.ready_set.retain(|&(k, _)| k & ((1 << 62) - 1) <= req.after_seq);
        self.wait_loads.retain(|&(s, ..)| s <= req.after_seq);
        self.pending_store_data.retain(|&(s, _)| s <= req.after_seq);
        self.pending_int.retain(|&(s, _)| s <= req.after_seq);
        // Seq-ordered: squashed integration metadata is a suffix.
        while self.integrated_meta.back().is_some_and(|&(s, _)| s > req.after_seq) {
            self.integrated_meta.pop_back();
        }
        self.events
            .retain(|e| e.load_seq <= req.after_seq && e.store_seq <= req.after_seq);
        self.frontend.repair(req.checkpoint, req.corrected);
        self.fq_len = 0;
        self.fetch_pc = req.redirect;
        self.fetch_blocked = false;
        self.cur_line = None;
        // Monolithic one-cycle recovery (§3.1), then the redirect.
        self.fetch_resume_at = self.cycle + 2;
    }

    // ----- retire / DIVA ----------------------------------------------------

    fn do_retire(&mut self) {
        for _ in 0..self.cfg.core.retire_width {
            if self.rob_len == 0 {
                return;
            }
            let head = &rob_entry!(self, 0);
            if head.state != State::Done
                || self.cycle < head.done_at.saturating_add(self.cfg.core.diva_delay)
            {
                return;
            }
            if !self.retire_head() {
                return;
            }
            if self.halted {
                return;
            }
        }
    }

    /// DIVA-checks and retires the ROB head. Returns `false` when
    /// retirement must stall (write buffer) or the head was flushed.
    fn retire_head(&mut self) -> bool {
        sanity!(self.rob_len > 0, "retire-nonempty-rob", "retiring from an empty ROB");
        let head = &rob_entry!(self, 0);
        let instr = head.instr;
        let class = head.class;
        let pc = head.pc;
        let seq = head.seq;

        // DIVA verifies the retirement PC chain before anything else: a
        // retiring instruction must be the architectural successor of the
        // previous one. A mismatch is repaired like any other DIVA fault:
        // flush and refetch from the correct PC.
        if pc != self.arch_next_pc {
            let redirect = self.arch_next_pc;
            let checkpoint = rob_pred_at!(self, 0).0;
            self.stats.squashes_diva += 1;
            self.squash(SquashReq { after_seq: seq - 1, redirect, checkpoint, corrected: None });
            return false;
        }

        // --- DIVA: in-order functional re-execution on architectural state.
        let g1 = instr.src1.map(|r| self.arch_regs[r.index()]);
        let gop2 = match instr.src2 {
            Some(Operand::Reg(r)) => Some(self.arch_regs[r.index()]),
            Some(Operand::Imm(i)) => Some(i as i64 as u64),
            None => None,
        };
        let mut golden_value: Option<u64> = None;
        let mut golden_ea: Option<u64> = None;
        let mut golden_taken: Option<bool> = None;
        match class {
            ExecClass::SimpleInt | ExecClass::Complex => {
                golden_value = Some(semantics::alu(
                    instr.op,
                    g1.expect("ALU src"),
                    gop2.expect("ALU operand"),
                ));
            }
            ExecClass::Load => {
                let ea = semantics::effective_addr(instr.op, g1.expect("base"), instr.disp);
                golden_ea = Some(ea);
                let word = self.arch_mem.read_word(ea);
                golden_value = Some(semantics::load_from_word(instr.op, ea, word));
            }
            ExecClass::Store => {
                golden_ea = Some(semantics::effective_addr(
                    instr.op,
                    g1.expect("base"),
                    instr.disp,
                ));
            }
            ExecClass::CondBranch => {
                golden_taken = Some(semantics::branch_taken(instr.op, g1.expect("cond")));
            }
            ExecClass::DirectJump if instr.op == Opcode::Jsr => {
                golden_value = Some(pc + 1);
            }
            _ => {}
        }

        let fault = match class {
            ExecClass::SimpleInt | ExecClass::Complex | ExecClass::Load => {
                let out = head.dst_new.expect("value op has dst");
                Some(self.val(out)) != golden_value
            }
            ExecClass::Store => head.eff_addr != golden_ea,
            ExecClass::CondBranch => head.outcome != golden_taken,
            ExecClass::IndirectJump => head.actual_target != g1,
            _ => false,
        };

        if fault {
            let integrated = head.integrated;
            let checkpoint = rob_pred_at!(self, 0).0;
            self.stats.squashes_diva += 1;
            if integrated {
                self.stats.integration.mis_integrations += 1;
                if instr.op.is_load() {
                    self.stats.integration.load_mis_integrations += 1;
                    if self.cfg.integration.suppression == Suppression::Lisp {
                        self.lisp.train(pc);
                    }
                } else {
                    self.stats.integration.register_mis_integrations += 1;
                }
                // The integrated head's metadata is the oldest in the
                // seq-ordered side queue (the squash below drops it
                // together with the head).
                let (mseq, ig) =
                    self.integrated_meta.front().expect("integrated head has metadata");
                sanity!(
                    *mseq == seq,
                    "integrated-meta-front",
                    "integrated head seq {seq} but the metadata front is {mseq}"
                );
                let (key, out) = (ig.key, ig.entry.out);
                self.it.invalidate(key, out);
            } else if instr.op.is_load() {
                // A late memory-order slip: train the CHT so the refetch
                // does not repeat it.
                self.cht.train(pc);
            }
            let req = SquashReq {
                after_seq: seq - 1, // flush includes the offender
                redirect: pc,
                checkpoint,
                corrected: None,
            };
            self.squash(req);
            return false;
        }

        // --- Stores drain through the write buffer.
        if instr.op.is_store() {
            let ea = golden_ea.expect("store ea");
            if self.mem.retire_store(self.cycle, ea).is_none() {
                self.stats.stalls_writebuf += 1;
                return false;
            }
            let data = gop2.expect("store data");
            let merged = semantics::merge_store(instr.op, ea, self.arch_mem.read_word(ea), data);
            self.arch_mem.write_word(ea & !7, merged);
            let _ = self.sq.pop_retire(seq);
            if self.needs_golden {
                // Stores retire in order and the overlay is seq-ordered,
                // so the retiring store's entry is the front.
                sanity!(
                    self.rename_mem.front().is_some_and(|e| e.seq == seq),
                    "rename-mem-front",
                    "retiring store seq {seq} is not the oldest overlay entry"
                );
                self.rename_mem.pop_front();
            }
        }

        let head = &rob_entry!(self, 0);
        // --- Architectural register update.
        if let Some(dst) = head.dst_log {
            self.arch_regs[dst.index()] =
                golden_value.expect("dst implies a value-producing op");
        }
        // --- Branch bookkeeping.
        if instr.op.is_cond_branch() {
            self.stats.cond_branches_retired += 1;
            let taken = golden_taken.expect("cond branch");
            let ckpt = rob_pred_at!(self, 0).0;
            self.frontend.resolve_cond(pc, ckpt, taken);
            if taken != head.pred_taken {
                self.stats.branch_mispredicts += 1;
                self.stats.resolution_latency_sum +=
                    head.done_at.saturating_sub(head.fetch_cycle);
            }
        }
        // --- Reference-count shadow decrement (§2.2: retiring an
        // instruction decrements the *shadowed* register, never its own).
        if let Some(old) = head.dst_old {
            self.refvec.unmap_shadow(old);
        }
        if head.holds_lsq {
            self.lsq_used -= 1;
        }
        // --- Integration accounting happens at retirement (§3.2).
        if head.integrated {
            let (mseq, ig) =
                self.integrated_meta.pop_front().expect("integrated head has metadata");
            sanity!(
                mseq == seq,
                "integrated-meta-front",
                "integrated head seq {seq} but the metadata front is {mseq}"
            );
            self.stats.integration.record(ig.event);
        }
        // Advance the architectural PC chain.
        self.arch_next_pc = match class {
            ExecClass::CondBranch if golden_taken == Some(true) => instr.target,
            ExecClass::DirectJump => instr.target,
            ExecClass::IndirectJump => g1.expect("ret reads ra"),
            _ => pc + 1,
        };
        self.stats.retired += 1;
        self.retired_total += 1;
        self.stats.integration.retired += 1;
        if instr.op.is_load() {
            self.stats.loads_retired += 1;
        }
        if instr.op.is_store() {
            self.stats.stores_retired += 1;
        }
        if instr.op == Opcode::Halt {
            self.halted = true;
        }
        self.rob_len -= 1;
        self.rob_base += 1;
        true
    }

    // ----- introspection (tests/diagnostics) -------------------------------

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Statistics so far. Core counters (cycles, retired, stalls, …)
    /// are live after every [`Simulator::step`]; the memory-hierarchy
    /// block (`mem`) is snapshotted lazily — by [`Simulator::run_until`]
    /// and [`Simulator::result`], not per step — to keep the cycle loop
    /// lean. Use [`Simulator::result`] when `mem` must be current.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Architectural register value (for tests).
    #[must_use]
    pub fn arch_reg(&self, r: rix_isa::LogReg) -> u64 {
        self.arch_regs[r.index()]
    }

    /// Architectural memory word (for tests).
    #[must_use]
    pub fn arch_mem_word(&self, addr: u64) -> u64 {
        self.arch_mem.read_word(addr)
    }

    /// Whether the program has halted.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }
}

// The per-cycle invariant checker, a child module so it can audit the
// private machine state. Declared after the `rob_entry!` family so the
// macros are in scope there.
#[cfg(any(debug_assertions, feature = "sanitize"))]
#[path = "sanitize.rs"]
mod sanitize;
