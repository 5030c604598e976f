//! Functional execution of TRISC programs.

use crate::{BranchOutcome, DynInst, Opcode, Program, Reg, WordMemory, TEXT_BASE};
use std::fmt;

/// Errors the functional executor can surface mid-stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// The PC left the program's text segment.
    PcOutOfRange {
        /// The offending program counter.
        pc: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::PcOutOfRange { pc } => write!(f, "pc {pc:#x} outside program text"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The functional executor's whole architectural state, owned apart
/// from the program it runs: pc, sequence number, the halt and error
/// flags, registers and data memory. [`Executor::into_state`] takes it
/// out and [`Executor::resume`] continues from it over a borrowed
/// program, so the state can be kept, cloned and shared after that
/// borrow ends; a warmup checkpoint holds one.
#[derive(Debug, Clone)]
pub struct ExecState {
    pc: u64,
    seq: u64,
    halted: bool,
    error: Option<ExecError>,
    iregs: [i64; Reg::NUM_INT],
    fregs: [f64; Reg::NUM_FP],
    mem: WordMemory,
}

impl ExecState {
    /// The data memory image.
    pub fn memory(&self) -> &WordMemory {
        &self.mem
    }
}

/// Functional executor: runs a [`Program`] architecturally and yields the
/// correct-path dynamic instruction stream as an iterator of [`DynInst`].
///
/// The executor stops (yields `None`) at a `halt` instruction or when the
/// PC runs off the end of the program. Runaway programs should be bounded
/// by the caller with [`Iterator::take`]. [`Executor::fast_forward`] skips
/// instructions without building their records.
///
/// # Example
///
/// ```
/// use ctcp_isa::{Executor, ProgramBuilder, Reg};
///
/// let mut b = ProgramBuilder::new();
/// b.movi(Reg::R1, 2);
/// b.addi(Reg::R1, Reg::R1, 3);
/// b.halt();
/// let p = b.build();
/// let mut ex = Executor::new(&p);
/// assert_eq!(ex.by_ref().count(), 3); // movi, add, halt
/// assert_eq!(ex.reg(Reg::R1), 5);
/// ```
#[derive(Debug, Clone)]
pub struct Executor<'p> {
    program: &'p Program,
    pc: u64,
    seq: u64,
    halted: bool,
    error: Option<ExecError>,
    iregs: [i64; Reg::NUM_INT],
    fregs: [f64; Reg::NUM_FP],
    mem: WordMemory,
}

impl<'p> Executor<'p> {
    /// Creates an executor positioned at the first instruction, with all
    /// registers zero and untouched memory. The stack pointer starts high
    /// so negative-displacement frames work out of the box.
    pub fn new(program: &'p Program) -> Self {
        let mut ex = Executor {
            program,
            pc: TEXT_BASE,
            seq: 0,
            halted: false,
            error: None,
            iregs: [0; Reg::NUM_INT],
            fregs: [0.0; Reg::NUM_FP],
            mem: WordMemory::new(),
        };
        ex.iregs[Reg::SP.index()] = 0x4000_0000;
        ex
    }

    /// Continues executing `program` from `state`, as if the executor
    /// that [`into_state`](Self::into_state) consumed had never
    /// stopped: the next record is the one it would have yielded. The
    /// state must come from an executor of an equal program.
    ///
    /// ```
    /// use ctcp_isa::{Executor, ProgramBuilder, Reg};
    ///
    /// let mut b = ProgramBuilder::new();
    /// b.movi(Reg::R1, 2);
    /// b.addi(Reg::R1, Reg::R1, 3);
    /// b.halt();
    /// let p = b.build();
    /// let mut ex = Executor::new(&p);
    /// ex.fast_forward(2);
    /// let state = ex.into_state();
    /// let mut resumed = Executor::resume(&p, state.clone());
    /// assert_eq!(resumed.reg(Reg::R1), 5);
    /// assert_eq!(resumed.next().map(|d| d.seq), Some(2)); // the halt
    /// ```
    pub fn resume(program: &'p Program, state: ExecState) -> Self {
        let ExecState {
            pc,
            seq,
            halted,
            error,
            iregs,
            fregs,
            mem,
        } = state;
        Executor {
            program,
            pc,
            seq,
            halted,
            error,
            iregs,
            fregs,
            mem,
        }
    }

    /// Ends the run and hands back its architectural state, for
    /// [`resume`](Self::resume).
    pub fn into_state(self) -> ExecState {
        let Executor {
            program: _,
            pc,
            seq,
            halted,
            error,
            iregs,
            fregs,
            mem,
        } = self;
        ExecState {
            pc,
            seq,
            halted,
            error,
            iregs,
            fregs,
            mem,
        }
    }

    /// Current architectural value of `reg`.
    pub fn reg(&self, reg: Reg) -> i64 {
        if reg.is_zero() {
            0
        } else if reg.is_int() {
            self.iregs[reg.index()]
        } else {
            self.fregs[reg.index() - Reg::NUM_INT] as i64
        }
    }

    /// Current architectural value of FP register `reg`.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not a floating-point register.
    pub fn freg(&self, reg: Reg) -> f64 {
        assert!(reg.is_fp(), "{reg} is not an fp register");
        self.fregs[reg.index() - Reg::NUM_INT]
    }

    /// Sets an integer register (useful to parameterise workloads).
    pub fn set_reg(&mut self, reg: Reg, value: i64) {
        if !reg.is_zero() && reg.is_int() {
            self.iregs[reg.index()] = value;
        }
    }

    /// Read access to data memory.
    pub fn memory(&self) -> &WordMemory {
        &self.mem
    }

    /// Write access to data memory (for pre-initialising workload data).
    pub fn memory_mut(&mut self) -> &mut WordMemory {
        &mut self.mem
    }

    /// True once the program has executed `halt` (the `halt` itself is the
    /// final yielded instruction).
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The error that ended execution, if any.
    pub fn error(&self) -> Option<ExecError> {
        self.error
    }

    /// Executes up to `n` instructions without building their
    /// [`DynInst`] records — the functional warmup fast-forward. Returns
    /// how many ran, which is less than `n` only if the program halts
    /// (the `halt` counts) or leaves its text first.
    ///
    /// Afterwards the architectural state, and every record the iterator
    /// yields from then on, are exactly those after `n` calls to
    /// [`Iterator::next`]: both run the same `step`, and this loop only
    /// drops the record it returns.
    ///
    /// ```
    /// use ctcp_isa::{Executor, ProgramBuilder, Reg};
    ///
    /// let mut b = ProgramBuilder::new();
    /// b.movi(Reg::R1, 2);
    /// b.addi(Reg::R1, Reg::R1, 3);
    /// b.halt();
    /// let p = b.build();
    /// let mut ex = Executor::new(&p);
    /// assert_eq!(ex.fast_forward(2), 2);
    /// assert_eq!(ex.reg(Reg::R1), 5);
    /// assert_eq!(ex.next().map(|d| d.seq), Some(2)); // the halt
    /// assert_eq!(ex.fast_forward(10), 0);
    /// ```
    pub fn fast_forward(&mut self, n: u64) -> u64 {
        let mut done = 0;
        while done < n && self.step().is_some() {
            done += 1;
        }
        done
    }

    // The zero register needs no test on reads: `iregs[ZERO]` starts at
    // zero and `write_dest` and `set_reg` never write it.
    #[inline]
    fn read_int(&self, r: Option<Reg>) -> i64 {
        match r {
            None => 0,
            Some(r) if r.is_int() => self.iregs[r.index()],
            Some(r) => self.fregs[r.index() - Reg::NUM_INT] as i64,
        }
    }

    #[inline]
    fn read_fp(&self, r: Option<Reg>) -> f64 {
        match r {
            None => 0.0,
            Some(r) if r.is_fp() => self.fregs[r.index() - Reg::NUM_INT],
            Some(r) => self.iregs[r.index()] as f64,
        }
    }

    #[inline]
    fn write_dest(&mut self, dest: Option<Reg>, ival: i64, fval: f64) {
        if let Some(d) = dest {
            if d.is_fp() {
                self.fregs[d.index() - Reg::NUM_INT] = fval;
            } else if !d.is_zero() {
                self.iregs[d.index()] = ival;
            }
        }
    }

    /// Executes one instruction, returning its dynamic record. The one
    /// interpreter: [`Iterator::next`] returns the record and
    /// [`fast_forward`](Self::fast_forward) drops it. Inlined into both,
    /// so the compiler deletes the record building from the latter.
    #[inline(always)]
    fn step(&mut self) -> Option<DynInst> {
        if self.halted || self.error.is_some() {
            return None;
        }
        let idx = match self.program.index_of(self.pc) {
            Some(i) => i,
            None => {
                self.error = Some(ExecError::PcOutOfRange { pc: self.pc });
                return None;
            }
        };
        let inst = *self.program.get(idx).expect("index_of guarantees range");
        let pc = self.pc;
        let fallthrough = pc + 4;
        let mut mem_addr = None;
        let mut branch = None;
        let mut next_pc = fallthrough;

        // `b` selects between the RS2 register and the immediate: register
        // forms have Some(src2); immediate forms leave src2 empty.
        let a = self.read_int(inst.src1);
        let b = if inst.src2.is_some() {
            self.read_int(inst.src2)
        } else {
            inst.imm
        };

        match inst.op {
            Opcode::Add => self.write_dest(inst.dest, a.wrapping_add(b), 0.0),
            Opcode::Sub => self.write_dest(inst.dest, a.wrapping_sub(b), 0.0),
            Opcode::And => self.write_dest(inst.dest, a & b, 0.0),
            Opcode::Or => self.write_dest(inst.dest, a | b, 0.0),
            Opcode::Xor => self.write_dest(inst.dest, a ^ b, 0.0),
            Opcode::Sll => self.write_dest(inst.dest, a.wrapping_shl((b & 63) as u32), 0.0),
            Opcode::Srl => {
                self.write_dest(inst.dest, ((a as u64) >> (b & 63)) as i64, 0.0);
            }
            Opcode::Sra => self.write_dest(inst.dest, a >> (b & 63), 0.0),
            Opcode::Slt => self.write_dest(inst.dest, i64::from(a < b), 0.0),
            Opcode::Seq => self.write_dest(inst.dest, i64::from(a == b), 0.0),
            Opcode::Mov => self.write_dest(inst.dest, a, 0.0),
            Opcode::Movi => self.write_dest(inst.dest, inst.imm, 0.0),
            Opcode::Mul => self.write_dest(inst.dest, a.wrapping_mul(b), 0.0),
            Opcode::Div => {
                let v = if b == 0 { 0 } else { a.wrapping_div(b) };
                self.write_dest(inst.dest, v, 0.0);
            }
            Opcode::Ld => {
                let addr = (a.wrapping_add(inst.imm)) as u64 & !7;
                mem_addr = Some(addr);
                let v = self.mem.read(addr);
                self.write_dest(inst.dest, v, 0.0);
            }
            Opcode::St => {
                let addr = (a.wrapping_add(inst.imm)) as u64 & !7;
                mem_addr = Some(addr);
                let v = self.read_int(inst.src2);
                self.mem.write(addr, v);
            }
            Opcode::FLd => {
                let addr = (a.wrapping_add(inst.imm)) as u64 & !7;
                mem_addr = Some(addr);
                let v = self.mem.read_f64(addr);
                self.write_dest(inst.dest, 0, v);
            }
            Opcode::FSt => {
                let addr = (a.wrapping_add(inst.imm)) as u64 & !7;
                mem_addr = Some(addr);
                self.mem.write_f64(addr, self.read_fp(inst.src2));
            }
            Opcode::Beq | Opcode::Bne | Opcode::Blt | Opcode::Bge => {
                let cond = match inst.op {
                    Opcode::Beq => a == b,
                    Opcode::Bne => a != b,
                    Opcode::Blt => a < b,
                    _ => a >= b,
                };
                // For a conditional branch with a register RS2, `b` above
                // read the register; with no RS2 it compared against the
                // immediate, but branch immediates hold the target, so
                // treat missing RS2 as comparison against zero instead.
                let cond = if inst.src2.is_some() {
                    cond
                } else {
                    match inst.op {
                        Opcode::Beq => a == 0,
                        Opcode::Bne => a != 0,
                        Opcode::Blt => a < 0,
                        _ => a >= 0,
                    }
                };
                let target = Program::pc_of(inst.imm as usize);
                next_pc = if cond { target } else { fallthrough };
                branch = Some(BranchOutcome {
                    taken: cond,
                    next_pc,
                    target,
                });
            }
            Opcode::Jmp => {
                let target = Program::pc_of(inst.imm as usize);
                next_pc = target;
                branch = Some(BranchOutcome {
                    taken: true,
                    next_pc,
                    target,
                });
            }
            Opcode::Jr => {
                let target = a as u64;
                next_pc = target;
                branch = Some(BranchOutcome {
                    taken: true,
                    next_pc,
                    target,
                });
            }
            Opcode::Call => {
                let target = Program::pc_of(inst.imm as usize);
                self.write_dest(Some(Reg::LR), fallthrough as i64, 0.0);
                next_pc = target;
                branch = Some(BranchOutcome {
                    taken: true,
                    next_pc,
                    target,
                });
            }
            Opcode::Ret => {
                let target = a as u64;
                next_pc = target;
                branch = Some(BranchOutcome {
                    taken: true,
                    next_pc,
                    target,
                });
            }
            // FP operands are read only here: the integer opcodes that
            // dominate the stream never pay for the conversions.
            Opcode::FAdd | Opcode::FSub | Opcode::FMul | Opcode::FDiv | Opcode::FCmp => {
                let (fa, fb) = (self.read_fp(inst.src1), self.read_fp(inst.src2));
                match inst.op {
                    Opcode::FAdd => self.write_dest(inst.dest, 0, fa + fb),
                    Opcode::FSub => self.write_dest(inst.dest, 0, fa - fb),
                    Opcode::FMul => self.write_dest(inst.dest, 0, fa * fb),
                    Opcode::FDiv => {
                        let v = if fb == 0.0 { 0.0 } else { fa / fb };
                        self.write_dest(inst.dest, 0, v);
                    }
                    _ => self.write_dest(inst.dest, i64::from(fa < fb), 0.0),
                }
            }
            Opcode::FSqrt => {
                let fa = self.read_fp(inst.src1);
                self.write_dest(inst.dest, 0, fa.abs().sqrt());
            }
            Opcode::FMov => self.write_dest(inst.dest, 0, self.read_fp(inst.src1)),
            Opcode::ItoF => self.write_dest(inst.dest, 0, a as f64),
            Opcode::FtoI => self.write_dest(inst.dest, self.read_fp(inst.src1) as i64, 0.0),
            Opcode::Nop => {}
            Opcode::Halt => {
                self.halted = true;
            }
        }

        let dyn_inst = DynInst {
            seq: self.seq,
            pc,
            index: idx as u32,
            inst,
            mem_addr,
            branch,
        };
        self.seq += 1;
        self.pc = next_pc;
        Some(dyn_inst)
    }
}

impl Iterator for Executor<'_> {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        self.step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgramBuilder;

    fn run(p: &Program, max: usize) -> (Vec<DynInst>, Executor<'_>) {
        let mut ex = Executor::new(p);
        let mut v = Vec::new();
        for _ in 0..max {
            match ex.next() {
                Some(d) => v.push(d),
                None => break,
            }
        }
        (v, ex)
    }

    #[test]
    fn arithmetic_and_halt() {
        let mut b = ProgramBuilder::new();
        b.movi(Reg::R1, 6);
        b.movi(Reg::R2, 7);
        b.mul(Reg::R3, Reg::R1, Reg::R2);
        b.halt();
        let p = b.build();
        let (stream, ex) = run(&p, 100);
        assert_eq!(stream.len(), 4);
        assert!(ex.halted());
        assert_eq!(ex.reg(Reg::R3), 42);
    }

    #[test]
    fn loop_iterates_expected_count() {
        let mut b = ProgramBuilder::new();
        b.movi(Reg::R1, 0);
        b.movi(Reg::R2, 5);
        let top = b.here();
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        let p = b.build();
        let (stream, ex) = run(&p, 1000);
        assert_eq!(ex.reg(Reg::R1), 5);
        // 2 setup + 5*(add+blt) + halt
        assert_eq!(stream.len(), 2 + 10 + 1);
        // Branch taken 4 times, not taken once.
        let takens: Vec<bool> = stream
            .iter()
            .filter(|d| d.op() == Opcode::Blt)
            .map(|d| d.taken())
            .collect();
        assert_eq!(takens, vec![true, true, true, true, false]);
    }

    #[test]
    fn memory_round_trip_through_loads_and_stores() {
        let mut b = ProgramBuilder::new();
        b.movi(Reg::R1, 0x8000);
        b.movi(Reg::R2, 1234);
        b.st(Reg::R2, Reg::R1, 8);
        b.ld(Reg::R3, Reg::R1, 8);
        b.halt();
        let p = b.build();
        let (stream, ex) = run(&p, 100);
        assert_eq!(ex.reg(Reg::R3), 1234);
        let st = stream.iter().find(|d| d.op() == Opcode::St).unwrap();
        let ld = stream.iter().find(|d| d.op() == Opcode::Ld).unwrap();
        assert_eq!(st.mem_addr, Some(0x8008));
        assert_eq!(ld.mem_addr, Some(0x8008));
    }

    #[test]
    fn call_and_ret_transfer_control() {
        let mut b = ProgramBuilder::new();
        let func = b.label();
        b.call(func); // 0
        b.movi(Reg::R1, 1); // 1 (after return)
        b.halt(); // 2
        b.bind(func);
        b.movi(Reg::R2, 2); // 3
        b.ret(); // 4
        let p = b.build();
        let (stream, ex) = run(&p, 100);
        assert_eq!(ex.reg(Reg::R1), 1);
        assert_eq!(ex.reg(Reg::R2), 2);
        let pcs: Vec<u64> = stream.iter().map(|d| d.pc).collect();
        assert_eq!(
            pcs,
            vec![
                Program::pc_of(0),
                Program::pc_of(3),
                Program::pc_of(4),
                Program::pc_of(1),
                Program::pc_of(2)
            ]
        );
    }

    #[test]
    fn fp_pipeline_works() {
        let mut b = ProgramBuilder::new();
        b.movi(Reg::R1, 9);
        b.itof(Reg::fp(0), Reg::R1);
        b.fsqrt(Reg::fp(1), Reg::fp(0));
        b.ftoi(Reg::R2, Reg::fp(1));
        b.halt();
        let p = b.build();
        let (_, ex) = run(&p, 100);
        assert_eq!(ex.reg(Reg::R2), 3);
        assert_eq!(ex.freg(Reg::fp(1)), 3.0);
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let mut b = ProgramBuilder::new();
        b.movi(Reg::R1, 10);
        b.movi(Reg::R2, 0);
        b.div(Reg::R3, Reg::R1, Reg::R2);
        b.halt();
        let p = b.build();
        let (_, ex) = run(&p, 100);
        assert_eq!(ex.reg(Reg::R3), 0);
    }

    #[test]
    fn sequence_numbers_are_dense() {
        let mut b = ProgramBuilder::new();
        b.movi(Reg::R1, 3);
        let top = b.here();
        b.addi(Reg::R1, Reg::R1, -1);
        b.bne(Reg::R1, Reg::ZERO, top);
        b.halt();
        let p = b.build();
        let (stream, _) = run(&p, 1000);
        for (i, d) in stream.iter().enumerate() {
            assert_eq!(d.seq, i as u64);
        }
    }

    #[test]
    fn zero_register_reads_zero_and_ignores_writes() {
        let mut b = ProgramBuilder::new();
        b.movi(Reg::ZERO, 99);
        b.add(Reg::R1, Reg::ZERO, Reg::ZERO);
        b.halt();
        let p = b.build();
        let (_, ex) = run(&p, 100);
        assert_eq!(ex.reg(Reg::R1), 0);
        assert_eq!(ex.reg(Reg::ZERO), 0);
    }

    #[test]
    fn pc_out_of_range_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.movi(Reg::R1, 0); // runs off the end: no halt
        let p = b.build();
        let mut ex = Executor::new(&p);
        assert!(ex.next().is_some());
        assert!(ex.next().is_none());
        assert!(matches!(ex.error(), Some(ExecError::PcOutOfRange { .. })));
    }

    #[test]
    fn a_resumed_state_continues_the_uninterrupted_stream() {
        let mut b = ProgramBuilder::new();
        b.movi(Reg::R1, 0x100);
        b.movi(Reg::R2, 0);
        b.movi(Reg::R5, 60);
        let top = b.here();
        b.addi(Reg::R2, Reg::R2, 3);
        b.st(Reg::R2, Reg::R1, 0);
        b.ld(Reg::R3, Reg::R1, 0);
        b.blt(Reg::R2, Reg::R5, top);
        b.halt();
        let p = b.build();
        let (whole, _) = run(&p, 1000);
        for split in [0, 1, 7, whole.len() - 1, whole.len(), whole.len() + 5] {
            let mut ex = Executor::new(&p);
            let skipped = ex.fast_forward(split as u64) as usize;
            let state = ex.into_state();
            // Resuming a clone leaves the state intact for the next one.
            for _ in 0..2 {
                let rest: Vec<DynInst> = Executor::resume(&p, state.clone()).collect();
                assert_eq!(rest, whole[skipped..], "split at {split}");
            }
            assert_eq!(state.memory().read(0x100) != 0, skipped > 4);
        }
    }

    #[test]
    fn indirect_jump_through_register() {
        let mut b = ProgramBuilder::new();
        b.movi(Reg::R1, Program::pc_of(3) as i64); // 0
        b.jr(Reg::R1); // 1
        b.movi(Reg::R2, 111); // 2 skipped
        b.movi(Reg::R3, 222); // 3
        b.halt(); // 4
        let p = b.build();
        let (_, ex) = run(&p, 100);
        assert_eq!(ex.reg(Reg::R2), 0);
        assert_eq!(ex.reg(Reg::R3), 222);
    }
}
