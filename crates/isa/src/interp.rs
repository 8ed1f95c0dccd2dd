//! The in-order reference interpreter and functional fast-forward engine.
//!
//! [`Interp`] executes a [`Program`] functionally, one instruction at a
//! time, with no microarchitecture at all — it steps an [`ArchState`].
//! The simulator's test suite cross-validates the out-of-order core
//! against it: whatever speculation, integration, or mis-integration
//! happened along the way, the retired architectural state must match
//! this interpreter exactly.
//!
//! Because the interpreter and the simulator share [`ArchState`], the
//! interpreter doubles as the **functional fast-forward** engine:
//! [`Interp::fast_forward`] advances `n` instructions at interpreter
//! speed and returns a snapshot that `Simulator::from_arch_state` can
//! boot the detailed machine from — one cheap warm-up shared by every
//! config arm of a sweep, instead of one detailed warm-up per arm.
//!
//! Its speed sets how long a warm-up a sweep can afford, so it is a
//! pre-decoded dispatch loop (Ertl & Gregg, JILP 2003): construction
//! translates the program once into 16-byte entries with register slots
//! resolved, and [`Interp::run`] executes one `match` per instruction.
//! `zero`/`fzero` read a slot that is always 0 and write a sink, so the
//! values an [`ArchState`] stores for them pass through unchanged. On a
//! 2-vCPU Xeon it runs 3.5–4 ns per instruction, 0.46× the cost of
//! the operand-matching stepper over a `BTreeMap` of pages it replaced.

use crate::arch::{ArchState, PageCursor};
use crate::instr::{Instr, Operand};
use crate::opcode::{ExecClass, Opcode};
use crate::program::Program;
use crate::reg::{LogReg, NUM_LOG_REGS};
use crate::{semantics, InstAddr};

/// Why the interpreter stopped.
///
/// This is the *functional* stop reason — distinct from the simulator's
/// `rix_sim::StopReason`, which reports why a cycle-level session ended.
/// The facade prelude re-exports this type as `InterpStopReason` to keep
/// the two apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Executed a `halt`.
    Halted,
    /// Reached the step limit.
    StepLimit,
    /// Fell off the end of the program.
    FellOffProgram,
}

/// Register-file slot that always reads 0 (`zero` and `fzero` sources).
const ZERO_SLOT: u8 = NUM_LOG_REGS as u8;
/// Register-file slot that swallows writes to `zero` and `fzero`.
const SINK_SLOT: u8 = ZERO_SLOT + 1;

/// What a pre-decoded instruction does: one arm of [`Interp::run`]'s
/// `match`. ALU operations split by operand form, memory operations by
/// width, and `addq` — a third of all instructions — has arms of its
/// own that skip `semantics::alu`'s `match` on the opcode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    AddqReg,
    AddqImm,
    AluReg,
    AluImm,
    Ldq,
    Ldl,
    Stq,
    Stl,
    Branch,
    Jump,
    Call,
    Return,
    Nop,
    Halt,
    /// A malformed instruction: panics when executed.
    Trap,
}

/// One pre-decoded instruction: register slots resolved, and one
/// payload `x` — the sign-extended immediate or displacement, or the
/// jump target.
#[derive(Clone, Copy, Debug)]
struct Decoded {
    kind: Kind,
    op: Opcode,
    dst: u8,
    a: u8,
    b: u8,
    x: u64,
}

const _: () = assert!(std::mem::size_of::<Decoded>() <= 16);

/// The slots a read and a write of `r` use.
fn slots(r: LogReg) -> (u8, u8) {
    if r.is_zero() {
        (ZERO_SLOT, SINK_SLOT)
    } else {
        (r.raw(), r.raw())
    }
}

/// Decodes `i`, or names the operand it lacks (the one a direct stepper
/// would have failed on first).
fn decode(i: &Instr) -> Result<Decoded, &'static str> {
    let (op, sext) = (i.op, |v: i32| v as i64 as u64);
    let read = |r: Option<LogReg>, what| r.map(|r| slots(r).0).ok_or(what);
    let write = |r: Option<LogReg>, what| r.map(|r| slots(r).1).ok_or(what);
    let d = |kind, dst, a, b, x| Ok(Decoded { kind, op, dst, a, b, x });
    let (zero, sink) = (ZERO_SLOT, SINK_SLOT);
    match i.exec_class() {
        ExecClass::SimpleInt | ExecClass::Complex => {
            let (a, dst) = (read(i.src1, "ALU src1")?, write(i.dst, "ALU dst")?);
            let add = op == Opcode::Addq;
            match i.src2 {
                Some(Operand::Reg(b)) => {
                    d(if add { Kind::AddqReg } else { Kind::AluReg }, dst, a, slots(b).0, 0)
                }
                // A missing `src2` reads 0, as an immediate.
                _ => {
                    let x = sext(i.alu_imm().unwrap_or(0));
                    d(if add { Kind::AddqImm } else { Kind::AluImm }, dst, a, zero, x)
                }
            }
        }
        ExecClass::Load => {
            let a = read(i.src1, "load base")?;
            let kind = if op == Opcode::Ldl { Kind::Ldl } else { Kind::Ldq };
            d(kind, write(i.dst, "load dst")?, a, zero, sext(i.disp))
        }
        ExecClass::Store => {
            let (a, b) = (read(i.src1, "store base")?, read(i.src2_reg(), "store data")?);
            d(if op == Opcode::Stl { Kind::Stl } else { Kind::Stq }, sink, a, b, sext(i.disp))
        }
        ExecClass::CondBranch => d(Kind::Branch, sink, read(i.src1, "branch cond")?, zero, i.target),
        ExecClass::DirectJump if op == Opcode::Jsr => {
            d(Kind::Call, write(i.dst, "jsr writes ra")?, zero, zero, i.target)
        }
        ExecClass::DirectJump => d(Kind::Jump, sink, zero, zero, i.target),
        ExecClass::IndirectJump => d(Kind::Return, sink, read(i.src1, "ret reads ra")?, zero, 0),
        _ if op == Opcode::Halt => d(Kind::Halt, sink, zero, zero, 0),
        _ => d(Kind::Nop, sink, zero, zero, 0),
    }
}

/// The reference interpreter: a [`Program`], its pre-decoded form, and
/// the [`ArchState`] it steps.
#[derive(Clone, Debug)]
pub struct Interp<'p> {
    program: &'p Program,
    code: Vec<Decoded>,
    state: ArchState,
}

impl<'p> Interp<'p> {
    /// Creates an interpreter at the program's initial state, with the
    /// stack pointer initialised to `stack_top` and memory seeded from
    /// the program's data segments.
    #[must_use]
    pub fn new(program: &'p Program, stack_top: u64) -> Self {
        Self::from_arch_state(program, ArchState::initial(program, stack_top))
    }

    /// Resumes an interpreter from an existing architectural snapshot
    /// (e.g. one dumped by the detailed simulator or loaded from a
    /// checkpoint).
    #[must_use]
    pub fn from_arch_state(program: &'p Program, state: ArchState) -> Self {
        let trap = |_| Decoded { kind: Kind::Trap, op: Opcode::Nop, dst: 0, a: 0, b: 0, x: 0 };
        let code = program.instrs().iter().map(|i| decode(i).unwrap_or_else(trap)).collect();
        Self { program, code, state }
    }

    /// The current architectural state.
    #[must_use]
    pub fn arch_state(&self) -> &ArchState {
        &self.state
    }

    /// Consumes the interpreter into its architectural state.
    #[must_use]
    pub fn into_arch_state(self) -> ArchState {
        self.state
    }

    /// Current register value.
    #[must_use]
    pub fn reg(&self, r: LogReg) -> u64 {
        self.state.regs[r.index()]
    }

    /// Current memory word (zero when untouched).
    #[must_use]
    pub fn mem_word(&self, addr: u64) -> u64 {
        self.state.mem.read_word(addr)
    }

    /// Instructions executed so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.state.retired
    }

    /// Current program counter.
    #[must_use]
    pub fn pc(&self) -> InstAddr {
        self.state.pc
    }

    /// Whether a `halt` has executed.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.state.halted
    }

    /// Advances up to `n` instructions and returns a snapshot of the
    /// reached architectural state — the functional-warm-up entry point
    /// (see the [module docs](self)).
    ///
    /// Equivalent to [`Interp::run`]`(n)` followed by
    /// [`Interp::arch_state`]`.clone()`; stops early at a `halt` or on
    /// falling off the program, which the snapshot's `halted` flag / `pc`
    /// reflect.
    #[must_use]
    pub fn fast_forward(&mut self, n: u64) -> ArchState {
        let _ = self.run(n);
        self.state.clone()
    }

    /// Runs up to `max_steps` instructions.
    ///
    /// # Panics
    ///
    /// Panics on executing a malformed instruction (one missing an
    /// operand its opcode reads or writes).
    pub fn run(&mut self, max_steps: u64) -> StopReason {
        if self.state.halted {
            return StopReason::Halted;
        }
        // The logical registers, then the zero slot and the sink.
        let mut r = [0u64; NUM_LOG_REGS + 2];
        r[..NUM_LOG_REGS].copy_from_slice(&self.state.regs);
        let mem = &mut self.state.mem;
        let mut cur = PageCursor::default();
        let mut pc = self.state.pc;
        let mut steps = 0;
        let stop = loop {
            if steps == max_steps {
                break StopReason::StepLimit;
            }
            let Some(&d) = usize::try_from(pc).ok().and_then(|i| self.code.get(i)) else {
                break StopReason::FellOffProgram;
            };
            steps += 1;
            // The PC always advances past the executed instruction —
            // including the halt, mirroring how the detailed simulator's
            // architectural PC chain retires it — so snapshots from both
            // engines compare equal.
            let mut next = pc + 1;
            let (a, b) = (r[d.a as usize], r[d.b as usize]);
            match d.kind {
                Kind::AddqReg => r[d.dst as usize] = semantics::alu(Opcode::Addq, a, b),
                Kind::AddqImm => r[d.dst as usize] = semantics::alu(Opcode::Addq, a, d.x),
                Kind::AluReg => r[d.dst as usize] = semantics::alu(d.op, a, b),
                Kind::AluImm => r[d.dst as usize] = semantics::alu(d.op, a, d.x),
                Kind::Ldq => {
                    let ea = semantics::effective_addr(Opcode::Ldq, a, d.x as i32);
                    r[d.dst as usize] = mem.resident_word_with(ea, &mut cur).unwrap_or(0);
                }
                Kind::Ldl => {
                    let ea = semantics::effective_addr(Opcode::Ldl, a, d.x as i32);
                    let word = mem.resident_word_with(ea, &mut cur).unwrap_or(0);
                    r[d.dst as usize] = semantics::load_from_word(Opcode::Ldl, ea, word);
                }
                Kind::Stq => {
                    let ea = semantics::effective_addr(Opcode::Stq, a, d.x as i32);
                    mem.write_word_with(ea, b, &mut cur);
                }
                Kind::Stl => {
                    let ea = semantics::effective_addr(Opcode::Stl, a, d.x as i32);
                    let word = mem.resident_word_with(ea, &mut cur).unwrap_or(0);
                    let merged = semantics::merge_store(Opcode::Stl, ea, word, b);
                    mem.write_word_with(ea & !7, merged, &mut cur);
                }
                Kind::Branch => {
                    if semantics::branch_taken(d.op, a) {
                        next = d.x;
                    }
                }
                Kind::Jump => next = d.x,
                Kind::Call => {
                    r[d.dst as usize] = next;
                    next = d.x;
                }
                Kind::Return => next = a,
                Kind::Nop => {}
                Kind::Halt => {
                    pc = next;
                    break StopReason::Halted;
                }
                Kind::Trap => {
                    let i = self.program.instrs()[pc as usize];
                    let missing = decode(&i).err().unwrap_or("operand");
                    panic!("malformed `{i}` at pc {pc}: no {missing}");
                }
            }
            pc = next;
        };
        self.state.regs.copy_from_slice(&r[..NUM_LOG_REGS]);
        self.state.pc = pc;
        self.state.retired += steps;
        self.state.halted = stop == StopReason::Halted;
        stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::program::DataSegment;
    use crate::reg;
    use proptest::prelude::*;

    /// The operand-matching stepper `run` replaced, kept as the oracle
    /// of `run_matches_the_direct_stepper`: it fetches and matches every
    /// `Instr` afresh and reads and writes the `ArchState` directly.
    fn reference_run(program: &Program, state: &mut ArchState, max_steps: u64) -> StopReason {
        fn read(state: &ArchState, r: LogReg) -> u64 {
            if r.is_zero() {
                0
            } else {
                state.regs[r.index()]
            }
        }
        fn write(state: &mut ArchState, r: LogReg, v: u64) {
            if !r.is_zero() {
                state.regs[r.index()] = v;
            }
        }
        if state.halted {
            return StopReason::Halted;
        }
        for _ in 0..max_steps {
            let Some(i) = program.fetch(state.pc) else {
                return StopReason::FellOffProgram;
            };
            state.retired += 1;
            let mut next = state.pc + 1;
            match i.exec_class() {
                ExecClass::SimpleInt | ExecClass::Complex => {
                    let a = read(state, i.src1.expect("ALU src1"));
                    let b = match i.src2 {
                        Some(Operand::Reg(r)) => read(state, r),
                        Some(Operand::Imm(imm)) => imm as i64 as u64,
                        None => 0,
                    };
                    write(state, i.dst.expect("ALU dst"), semantics::alu(i.op, a, b));
                }
                ExecClass::Load => {
                    let base = read(state, i.src1.expect("load base"));
                    let ea = semantics::effective_addr(i.op, base, i.disp);
                    let word = state.mem.read_word(ea);
                    write(state, i.dst.expect("load dst"), semantics::load_from_word(i.op, ea, word));
                }
                ExecClass::Store => {
                    let base = read(state, i.src1.expect("store base"));
                    let data = read(state, i.src2_reg().expect("store data"));
                    let ea = semantics::effective_addr(i.op, base, i.disp);
                    let word = state.mem.read_word(ea);
                    state.mem.write_word(ea & !7, semantics::merge_store(i.op, ea, word, data));
                }
                ExecClass::CondBranch => {
                    if semantics::branch_taken(i.op, read(state, i.src1.expect("branch cond"))) {
                        next = i.target;
                    }
                }
                ExecClass::DirectJump => {
                    if i.op == Opcode::Jsr {
                        write(state, i.dst.expect("jsr writes ra"), state.pc + 1);
                    }
                    next = i.target;
                }
                ExecClass::IndirectJump => next = read(state, i.src1.expect("ret reads ra")),
                ExecClass::Syscall | ExecClass::Nop => {}
            }
            state.pc = next;
            if i.op == Opcode::Halt {
                state.halted = true;
                return StopReason::Halted;
            }
        }
        StopReason::StepLimit
    }

    /// Registers the random programs write: a few temporaries, `ra`, an
    /// FP register and both zero registers.
    const DSTS: [u8; 8] = [1, 2, 3, 4, 26, 31, 33, 63];
    /// Registers they read: the above plus the stack pointer and `r9`,
    /// the data base.
    const SRCS: [u8; 10] = [1, 2, 3, 4, 9, 26, 30, 31, 33, 63];
    /// Where the data segment lives (and what `r9` holds).
    const DATA: u64 = 0x4000;

    /// A program of one instruction per gene, with branch targets up to
    /// two past the end (so runs fall off), and its initial state: `r9`
    /// at the data segment and the `zero` / `fzero` slots holding
    /// `zero` and `fzero`, which no instruction may read or change.
    fn random_program(genes: &[u64], zero: u64, fzero: u64) -> (Program, ArchState) {
        use Opcode::*;
        const ALU: [Opcode; 17] = [
            Addq, Subq, Mulq, And, Or, Xor, Sll, Srl, Sra, Cmpeq, Cmplt, Cmple, Cmpult, Addt, Subt,
            Mult, Divt,
        ];
        const BRANCH: [Opcode; 6] = [Beq, Bne, Blt, Bge, Bgt, Ble];
        let n = genes.len() as u64;
        let instrs = genes
            .iter()
            .map(|&g| {
                let pick = |set: &[u8], shift: u32| LogReg::new(set[(g >> shift) as usize % set.len()]);
                let (d, a, b) = (pick(&DSTS, 8), pick(&SRCS, 12), pick(&SRCS, 16));
                let base = pick(&[9, 9, 30, 1], 20);
                let small = ((g >> 32) as i32) >> 22;
                let target = (g >> 40) % (n + 2);
                let wide = (g >> 24) & 1 == 0;
                match g % 16 {
                    0..=3 => Instr::alu_rr(ALU[(g >> 4) as usize % 17], d, a, b),
                    4..=6 => Instr::alu_ri(ALU[(g >> 4) as usize % 17], d, a, small),
                    7 => Instr::load(if wide { Ldq } else { Ldl }, d, base, small & !3),
                    8 => Instr::store(if wide { Stq } else { Stl }, a, base, small & !3),
                    9 | 10 => Instr::cond_branch(BRANCH[(g >> 4) as usize % 6], a, target),
                    11 => Instr::br(target),
                    12 => Instr::jsr(target),
                    13 => Instr::ret(),
                    14 => Instr::syscall(),
                    _ if (g >> 4) % 3 == 0 => Instr::halt(),
                    _ => Instr::nop(),
                }
            })
            .collect();
        let data = vec![DataSegment { base: DATA, words: genes.to_vec() }];
        let program = Program::from_parts(instrs, 0, data);
        let mut state = ArchState::initial(&program, 0x8000);
        state.regs[9] = DATA;
        for (k, r) in [1usize, 2, 3, 4, 33].into_iter().enumerate() {
            state.regs[r] = genes[k % genes.len()].rotate_left(7 * k as u32);
        }
        state.regs[reg::ZERO.index()] = zero;
        state.regs[reg::FZERO.index()] = fzero;
        (program, state)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The pre-decoded loop and the direct stepper agree on every
        /// stop reason and every `ArchState`, with `run` split at random
        /// step counts, on random programs that halt, fall off the end,
        /// write the zero registers, use sub-word `ldl`/`stl` and start
        /// with non-zero values in the zero registers' slots.
        #[test]
        fn run_matches_the_direct_stepper(
            genes in proptest::collection::vec(any::<u64>(), 1..40),
            splits in proptest::collection::vec(0u64..48, 1..6),
            zero in prop_oneof![Just(0u64), any::<u64>()],
            fzero in any::<u64>(),
        ) {
            let (program, state) = random_program(&genes, zero, fzero);
            let mut oracle = state.clone();
            let mut interp = Interp::from_arch_state(&program, state);
            for &n in &splits {
                let want = reference_run(&program, &mut oracle, n);
                prop_assert_eq!(interp.run(n), want);
                prop_assert_eq!(interp.arch_state(), &oracle);
            }
            prop_assert_eq!(interp.reg(reg::ZERO), zero, "zero slot left as it was");
            prop_assert_eq!(interp.reg(reg::FZERO), fzero);
        }
    }

    /// The property's programs reach every stop reason and run every
    /// case it names, so its agreement is not vacuous.
    #[test]
    fn random_programs_cover_the_interesting_cases() {
        let (mut stops, mut ops) = (Vec::new(), Vec::new());
        let mut rng = proptest::test_runner::TestRng::deterministic("coverage");
        for _ in 0..300 {
            let genes: Vec<u64> = (0..1 + rng.below(39)).map(|_| rng.next_u64()).collect();
            let (program, mut state) = random_program(&genes, 1, 1);
            for _ in 0..64 {
                let Some(i) = program.fetch(state.pc) else { break };
                let writes_zero = i.dst.is_some_and(LogReg::is_zero) && i.op.writes_reg();
                ops.push((i.op, writes_zero));
                if reference_run(&program, &mut state, 1) != StopReason::StepLimit {
                    break;
                }
            }
            stops.push(reference_run(&program, &mut state, 64));
        }
        for stop in [StopReason::Halted, StopReason::FellOffProgram, StopReason::StepLimit] {
            assert!(stops.contains(&stop), "{stop:?} never reached");
        }
        for op in [Opcode::Ldl, Opcode::Stl, Opcode::Ldq, Opcode::Stq, Opcode::Jsr, Opcode::Ret] {
            assert!(ops.iter().any(|&(o, _)| o == op), "{op} never executed");
        }
        assert!(ops.iter().any(|&(_, z)| z), "no write to a zero register executed");
    }

    fn malformed_add() -> Instr {
        Instr { src1: None, ..Instr::alu_ri(Opcode::Addq, reg::R1, reg::R1, 1) }
    }

    #[test]
    fn malformed_instruction_decodes_and_skipped_is_harmless() {
        let p = Program::from_parts(vec![Instr::br(2), malformed_add(), Instr::halt()], 0, vec![]);
        let mut i = Interp::new(&p, 0);
        assert_eq!(i.run(10), StopReason::Halted);
        assert_eq!(i.steps(), 2);
    }

    #[test]
    #[should_panic(expected = "no ALU src1")]
    fn malformed_instruction_panics_when_executed() {
        let p = Program::from_parts(vec![Instr::nop(), malformed_add()], 0, vec![]);
        let mut i = Interp::new(&p, 0);
        assert_eq!(i.run(1), StopReason::StepLimit);
        let _ = i.run(1);
    }

    #[test]
    fn zero_registers_read_zero_and_keep_their_slots() {
        let mut a = Asm::new();
        a.addq_i(reg::R1, reg::ZERO, 1);
        a.addq_i(reg::ZERO, reg::R1, 7);
        a.addq(reg::R2, reg::ZERO, reg::FZERO);
        a.halt();
        let p = a.assemble().unwrap();
        let mut s = ArchState::initial(&p, 0);
        s.regs[reg::ZERO.index()] = 5;
        s.regs[reg::FZERO.index()] = 6;
        let mut i = Interp::from_arch_state(&p, s);
        assert_eq!(i.run(10), StopReason::Halted);
        assert_eq!((i.reg(reg::R1), i.reg(reg::R2)), (1, 0));
        assert_eq!((i.reg(reg::ZERO), i.reg(reg::FZERO)), (5, 6));
    }

    #[test]
    fn sub_word_loads_and_stores() {
        let mut a = Asm::new();
        a.addq_i(reg::R2, reg::ZERO, 0x100);
        a.stq(reg::R3, 0, reg::R2);
        a.stl(reg::R4, 4, reg::R2);
        a.ldl(reg::R5, 4, reg::R2);
        a.ldl(reg::R6, 0, reg::R2);
        a.halt();
        let p = a.assemble().unwrap();
        let mut s = ArchState::initial(&p, 0);
        s.regs[reg::R3.index()] = 0xdead_beef_cafe_f00d;
        s.regs[reg::R4.index()] = 0xffff_ffff;
        let mut i = Interp::from_arch_state(&p, s);
        assert_eq!(i.run(10), StopReason::Halted);
        assert_eq!(i.mem_word(0x100), 0xffff_ffff_cafe_f00d);
        assert_eq!(i.reg(reg::R5), u64::MAX, "sign-extended");
        // Low half 0xcafe_f00d has its sign bit set → extends to all-ones.
        assert_eq!(i.reg(reg::R6), 0xffff_ffff_cafe_f00d);
    }

    #[test]
    fn loop_sum() {
        // sum = 1 + 2 + ... + 5 = 15
        let mut a = Asm::new();
        a.addq_i(reg::R1, reg::ZERO, 5); // i
        a.addq_i(reg::R2, reg::ZERO, 0); // sum
        a.label("loop");
        a.addq(reg::R2, reg::R2, reg::R1);
        a.subq_i(reg::R1, reg::R1, 1);
        a.bne(reg::R1, "loop");
        a.halt();
        let p = a.assemble().unwrap();
        let mut interp = Interp::new(&p, 0x1000);
        assert_eq!(interp.run(1000), StopReason::Halted);
        assert_eq!(interp.reg(reg::R2), 15);
        assert!(interp.halted());
        assert_eq!(interp.run(1000), StopReason::Halted, "halt is sticky");
    }

    #[test]
    fn call_return_and_stack() {
        let mut a = Asm::new();
        a.addq_i(reg::T0, reg::ZERO, 42);
        a.jsr("f");
        a.halt();
        a.label("f");
        a.lda(reg::SP, -16, reg::SP);
        a.stq(reg::T0, 8, reg::SP);
        a.addq_i(reg::T0, reg::ZERO, 0); // clobber
        a.ldq(reg::T0, 8, reg::SP);
        a.lda(reg::SP, 16, reg::SP);
        a.ret();
        let p = a.assemble().unwrap();
        let mut i = Interp::new(&p, 0x8000);
        assert_eq!(i.run(100), StopReason::Halted);
        assert_eq!(i.reg(reg::T0), 42, "restored across the call");
        assert_eq!(i.reg(reg::SP), 0x8000, "stack balanced");
    }

    #[test]
    fn memory_roundtrip() {
        let mut a = Asm::new();
        a.data(0x2000, vec![7]);
        a.ldq(reg::R1, 0, reg::R2); // r2 = 0 → loads word at 0 (0)
        a.addq_i(reg::R2, reg::ZERO, 0x2000);
        a.ldq(reg::R1, 0, reg::R2);
        a.addq_i(reg::R3, reg::R1, 1);
        a.stq(reg::R3, 8, reg::R2);
        a.halt();
        let p = a.assemble().unwrap();
        let mut i = Interp::new(&p, 0x8000);
        assert_eq!(i.run(100), StopReason::Halted);
        assert_eq!(i.reg(reg::R1), 7);
        assert_eq!(i.mem_word(0x2008), 8);
    }

    #[test]
    fn fell_off_program() {
        let mut a = Asm::new();
        a.nop();
        let p = a.assemble().unwrap();
        let mut i = Interp::new(&p, 0);
        assert_eq!(i.run(10), StopReason::FellOffProgram);
    }

    #[test]
    fn step_limit() {
        let mut a = Asm::new();
        a.label("spin");
        a.br("spin");
        let p = a.assemble().unwrap();
        let mut i = Interp::new(&p, 0);
        assert_eq!(i.run(10), StopReason::StepLimit);
        assert_eq!(i.steps(), 10);
    }

    #[test]
    fn fast_forward_snapshots_and_resumes() {
        let mut a = Asm::new();
        a.addq_i(reg::R1, reg::ZERO, 5);
        a.label("loop");
        a.addq(reg::R2, reg::R2, reg::R1);
        a.subq_i(reg::R1, reg::R1, 1);
        a.bne(reg::R1, "loop");
        a.halt();
        let p = a.assemble().unwrap();

        // Fast-forward 7 instructions, snapshot, resume from the
        // snapshot in a second interpreter: the final states agree with
        // an uninterrupted run.
        let mut whole = Interp::new(&p, 0x1000);
        assert_eq!(whole.run(1_000), StopReason::Halted);

        let mut first = Interp::new(&p, 0x1000);
        let mid = first.fast_forward(7);
        assert_eq!(mid.retired, 7);
        assert!(!mid.halted);
        let mut second = Interp::from_arch_state(&p, mid);
        assert_eq!(second.run(1_000), StopReason::Halted);
        assert_eq!(second.arch_state(), whole.arch_state());

        // Fast-forwarding the first interpreter to completion also
        // converges, and reports the halt in the snapshot.
        let done = first.fast_forward(1_000);
        assert!(done.halted);
        assert_eq!(&done, whole.arch_state());
        assert_eq!(done.pc, whole.pc(), "pc rests past the halt");
    }

    #[test]
    fn halted_snapshot_retires_the_halt() {
        let mut a = Asm::new();
        a.nop();
        a.halt();
        let p = a.assemble().unwrap();
        let mut i = Interp::new(&p, 0);
        let s = i.fast_forward(10);
        assert!(s.halted);
        assert_eq!(s.retired, 2, "nop + halt both count");
        assert_eq!(s.pc, 2, "pc past the halt");
    }
}
