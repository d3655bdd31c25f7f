//! Specialized frame execution plans — a branch-minimized compiled
//! alternative to the frame interpreter.
//!
//! The simulator does not use plans: it probes every frame through
//! [`probe_frame`](crate::probe_frame), because an end-to-end measurement
//! showed the plan fast path did not make simulation faster (see
//! `DESIGN.md`, "Hot-path execution"). The plan stays as a measured layer
//! of the benchmark's per-layer attribution and as layer 4 of
//! `replay-check`.
//!
//! [`probe_frame`](crate::probe_frame) re-derives everything about a frame
//! on every dynamic hit: each uop re-matches a 26-way opcode enum, each
//! operand re-unwraps an `Option<Src>`, every load and store pays a SipHash
//! store-buffer lookup, and removed-uop bookkeeping (`Nop`, intra-frame
//! jumps, folded moves) still walks the slots. A hot frame in the frame
//! cache executes thousands of times with none of that ever changing, so
//! it can be "compiled" once into an [`ExecPlan`]: a flat array of
//! fixed-size steps over a register-file-like cell array.
//!
//! The compilation pre-resolves every operand to a *cell index*:
//!
//! | cells | contents |
//! |-------|----------|
//! | `0` | the constant zero (absent operands) |
//! | `1 ..= 16` | the live-in architectural registers, snapshot at probe entry |
//! | `17 .. 17 + n` | one cell per frame slot (slot `s` writes cell `17 + s`) |
//! | tail | the folded constant pool (immediates-as-operands, `MovImm` results) |
//!
//! Flags get the same treatment with their own cell array: cell `0` is the
//! [`Flags::CLEAR`] constant, cell `1` the live-in flags, and one cell per
//! flag-writing slot after that.
//!
//! Folding happens at compile time, not probe time: `MovImm` becomes a
//! constant-pool cell, `Mov` becomes cell aliasing, and `Nop` / `Fence` /
//! control uops emit no step at all — the plan's step array contains only
//! the uops that do work. The store buffer is a backward scan of the
//! transaction list (frames are short; the scan beats hashing every
//! address), and the unsafe-store alias check (§3.4) is the same forward
//! scan the interpreter performs, so conflict attribution is identical.
//!
//! **Bit-identity contract**: for every frame and machine state,
//! [`ExecPlan::probe`] returns exactly the [`ProbeOutcome`] that
//! [`probe_frame`](crate::probe_frame) returns, with a byte-identical
//! transaction list, and [`ExecPlan::exec`] commits exactly what
//! [`exec_frame`](crate::exec_frame) commits. `replay-check` enforces
//! the contract differentially on every generated frame.

use crate::exec::{FrameOutcome, MemTransaction, ProbeOutcome};
use crate::ir::{FlagsSrc, Src};
use crate::OptFrame;
use replay_uop::{eval_alu_with_flags, ArchReg, Cond, Flags, MachineState, Opcode, NUM_ARCH_REGS};

/// Value cell holding the constant zero.
const ZERO_CELL: u16 = 0;
/// First live-in register cell (`1 + ArchReg::index()`).
const LIVE_IN_BASE: u16 = 1;
/// First per-slot value cell.
const SLOT_BASE: u16 = LIVE_IN_BASE + NUM_ARCH_REGS as u16;
/// Flag cell holding [`Flags::CLEAR`].
const FLAGS_CLEAR_CELL: u16 = 0;
/// Flag cell holding the live-in flags.
const FLAGS_LIVE_IN_CELL: u16 = 1;
/// Sentinel: the step writes no flag cell.
const NO_FLAG_CELL: u16 = u16::MAX;

/// One pre-compiled operation of an [`ExecPlan`].
#[derive(Debug, Clone, Copy)]
enum StepKind {
    /// `dst = a + b`, flags [`Flags::from_add`].
    Add,
    /// `dst = a - b`, flags [`Flags::from_sub`].
    Sub,
    /// `dst = a & b`, flags [`Flags::from_logic_result`].
    And,
    /// `dst = a | b`.
    Or,
    /// `dst = a ^ b`.
    Xor,
    /// Flags of `a - b` only.
    Cmp,
    /// Flags of `a & b` only.
    Test,
    /// `dst = a + b * scale + imm`, no flags.
    Lea,
    /// A shift (`Shl`/`Shr`/`Sar`): reads the previous flags cell.
    Shift(Opcode),
    /// Any other ALU opcode (`Mul`, `Div`, `Rem`, `Not`, `Neg`), evaluated
    /// through [`eval_alu_with_flags`]; `Div`/`Rem` can fault.
    AluGen(Opcode),
    /// `dst = mem[a + b * scale + imm]` with store-buffer forwarding.
    Load,
    /// `mem[a + imm] = b` (buffered until commit).
    Store,
    /// A [`Store`](StepKind::Store) marked unsafe by speculative memory
    /// optimization: its address is compared against every earlier
    /// transaction first (§3.4).
    StoreUnsafe,
    /// Assert `cc` over the flags cell `fsrc`.
    AssertFlags(Cond),
    /// Assert `cc` over the flags of `a - b`.
    AssertCmp(Cond),
    /// Assert `cc` over the flags of `a & b`.
    AssertTest(Cond),
}

/// One fixed-size step: pre-resolved cells, no `Option`s on the hot path.
#[derive(Debug, Clone, Copy)]
struct Step {
    kind: StepKind,
    /// Value cell of operand A.
    a: u16,
    /// Value cell of operand B (data cell for stores, index for loads).
    b: u16,
    /// Value cell written.
    dst: u16,
    /// Flags cell read (shifts).
    fsrc: u16,
    /// Flags cell written ([`NO_FLAG_CELL`] if none).
    fdst: u16,
    /// Memory displacement / `Lea` displacement.
    imm: i32,
    /// Index scale for `Load` / `Lea`.
    scale: u32,
    /// The originating frame slot, for transaction and outcome reporting.
    uop_index: u16,
}

/// Reusable buffers for plan execution, mirroring
/// [`ExecScratch`](crate::ExecScratch) for the interpreted path. One
/// scratch serves plans of any size; nothing is zeroed between probes
/// because every cell a plan reads is written first (constants and
/// live-ins at probe entry, slot cells by their producing step).
#[derive(Debug, Default)]
pub struct PlanScratch {
    values: Vec<u32>,
    flags: Vec<Flags>,
    transactions: Vec<MemTransaction>,
}

impl PlanScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> PlanScratch {
        PlanScratch::default()
    }

    /// The memory accesses recorded by the most recent probe, in program
    /// order — byte-identical to what
    /// [`ExecScratch::transactions`](crate::ExecScratch::transactions)
    /// holds after an interpreted probe of the same frame and state.
    pub fn transactions(&self) -> &[MemTransaction] {
        &self.transactions
    }
}

/// A compiled, branch-minimized execution plan for one optimized frame.
///
/// Built once via [`ExecPlan::compile`]; executed with [`ExecPlan::probe`]
/// (outcome and transactions only) or [`ExecPlan::exec`] (probe + commit,
/// the differential-testing path).
#[derive(Debug, Clone)]
pub struct ExecPlan {
    steps: Vec<Step>,
    /// Total value cells (`1 + NUM_ARCH_REGS + slots + constants`).
    value_cells: usize,
    /// Total flag cells (`2 + flag-writing steps`).
    flag_cells: usize,
    /// Constant pool: `(cell, value)` pairs written at probe entry.
    consts: Vec<(u16, u32)>,
    /// Live-out registers resolved to value cells.
    live_out: Vec<(ArchReg, u16)>,
    /// The flags cell committed on completion.
    flags_out: u16,
}

impl ExecPlan {
    /// Compiles a compacted frame into a plan, or `None` if the frame
    /// contains anything the plan format does not cover (invalidated
    /// slots, an unexpected opcode, or a cell count overflowing `u16`) —
    /// the caller then stays on the interpreted path forever.
    pub fn compile(frame: &OptFrame) -> Option<ExecPlan> {
        let n = frame.len();
        // Per-slot value/flag cell of record, as seen by *readers*. Folded
        // slots alias the cell that already holds their result.
        let mut val_cell = vec![ZERO_CELL; n];
        let mut flag_cell = vec![FLAGS_CLEAR_CELL; n];
        let mut consts: Vec<(u16, u32)> = Vec::new();
        let mut next_value_cell = SLOT_BASE as usize + n;
        let mut next_flag_cell = FLAGS_LIVE_IN_CELL as usize + 1;
        let mut steps = Vec::with_capacity(n);

        let mut const_cell = |v: u32, consts: &mut Vec<(u16, u32)>| -> Option<u16> {
            if let Some(&(c, _)) = consts.iter().find(|&&(_, cv)| cv == v) {
                return Some(c);
            }
            let c = u16::try_from(next_value_cell).ok()?;
            next_value_cell += 1;
            consts.push((c, v));
            Some(c)
        };
        let resolve = |src: Option<Src>, val_cell: &[u16]| -> u16 {
            match src {
                None => ZERO_CELL,
                Some(Src::LiveIn(r)) => LIVE_IN_BASE + r.index() as u16,
                Some(Src::Slot(s)) => val_cell[s as usize],
            }
        };
        let resolve_flags = |fs: Option<FlagsSrc>, flag_cell: &[u16]| -> u16 {
            match fs {
                None => FLAGS_CLEAR_CELL,
                Some(FlagsSrc::LiveIn) => FLAGS_LIVE_IN_CELL,
                Some(FlagsSrc::Slot(s)) => flag_cell[s as usize],
            }
        };

        for (i, u) in frame.iter() {
            if !u.valid {
                return None; // plan compilation requires a compacted frame
            }
            let i_us = i as usize;
            let own_cell = u16::try_from(SLOT_BASE as usize + i_us).ok()?;
            let uop_index = u16::try_from(i_us).ok()?;
            let mut step = Step {
                kind: StepKind::Add,
                a: resolve(u.src_a, &val_cell),
                b: ZERO_CELL,
                dst: own_cell,
                fsrc: FLAGS_CLEAR_CELL,
                fdst: NO_FLAG_CELL,
                imm: u.imm,
                scale: u.scale as u32,
                uop_index,
            };
            // The interpreter leaves `values[i] = 0` and
            // `flag_results[i] = CLEAR` for slots that produce nothing;
            // aliasing readers to the constant cells reproduces that.
            val_cell[i_us] = own_cell;
            match u.op {
                Opcode::Nop | Opcode::Fence | Opcode::Br | Opcode::Jmp | Opcode::JmpInd => {
                    val_cell[i_us] = ZERO_CELL;
                    continue;
                }
                Opcode::MovImm if u.src_b.is_none() => {
                    // Folded into the constant pool: no step at all. The
                    // flags result (when `writes_flags`) is CLEAR, which is
                    // exactly flag cell 0.
                    val_cell[i_us] = const_cell(u.imm as u32, &mut consts)?;
                    continue;
                }
                Opcode::Mov | Opcode::MovImm => {
                    // A register copy is cell aliasing; `MovImm` with a
                    // (never emitted) source operand degenerates to one.
                    val_cell[i_us] = match u.op {
                        Opcode::Mov => resolve(u.src_a, &val_cell),
                        _ => resolve(u.src_b, &val_cell),
                    };
                    continue;
                }
                Opcode::Load => {
                    step.kind = StepKind::Load;
                    step.b = resolve(u.src_b, &val_cell);
                }
                Opcode::Store => {
                    step.kind = if u.unsafe_store {
                        StepKind::StoreUnsafe
                    } else {
                        StepKind::Store
                    };
                    step.b = resolve(u.src_b, &val_cell);
                    val_cell[i_us] = ZERO_CELL;
                }
                Opcode::Assert => {
                    step.kind = StepKind::AssertFlags(u.cc?);
                    step.fsrc = resolve_flags(u.flags_src, &flag_cell);
                    val_cell[i_us] = ZERO_CELL;
                }
                Opcode::AssertCmp | Opcode::AssertTest => {
                    let cc = u.cc?;
                    step.kind = if u.op == Opcode::AssertCmp {
                        StepKind::AssertCmp(cc)
                    } else {
                        StepKind::AssertTest(cc)
                    };
                    step.b = match u.src_b {
                        Some(src) => resolve(Some(src), &val_cell),
                        None => const_cell(u.imm as u32, &mut consts)?,
                    };
                    val_cell[i_us] = ZERO_CELL;
                }
                op if op.is_alu() => {
                    step.b = if op == Opcode::Lea {
                        resolve(u.src_b, &val_cell)
                    } else {
                        match u.src_b {
                            Some(src) => resolve(Some(src), &val_cell),
                            None => const_cell(u.imm as u32, &mut consts)?,
                        }
                    };
                    step.kind = match op {
                        Opcode::Add => StepKind::Add,
                        Opcode::Sub => StepKind::Sub,
                        Opcode::And => StepKind::And,
                        Opcode::Or => StepKind::Or,
                        Opcode::Xor => StepKind::Xor,
                        Opcode::Cmp => StepKind::Cmp,
                        Opcode::Test => StepKind::Test,
                        Opcode::Lea => StepKind::Lea,
                        Opcode::Shl | Opcode::Shr | Opcode::Sar => {
                            step.fsrc = resolve_flags(u.flags_src, &flag_cell);
                            StepKind::Shift(op)
                        }
                        _ => StepKind::AluGen(op),
                    };
                    if u.writes_flags {
                        if op == Opcode::Lea {
                            // `Lea` always produces CLEAR flags; alias the
                            // constant cell instead of allocating one.
                            flag_cell[i_us] = FLAGS_CLEAR_CELL;
                        } else {
                            let fc = u16::try_from(next_flag_cell).ok()?;
                            if fc == NO_FLAG_CELL {
                                return None;
                            }
                            next_flag_cell += 1;
                            step.fdst = fc;
                            flag_cell[i_us] = fc;
                        }
                    }
                }
                _ => return None,
            }
            steps.push(step);
        }

        let live_out = frame
            .live_out()
            .iter()
            .map(|&(r, src)| (r, resolve(Some(src), &val_cell)))
            .collect();
        let flags_out = match frame.flags_out() {
            FlagsSrc::LiveIn => FLAGS_LIVE_IN_CELL,
            FlagsSrc::Slot(s) => flag_cell[s as usize],
        };
        Some(ExecPlan {
            steps,
            value_cells: next_value_cell,
            flag_cells: next_flag_cell,
            consts,
            live_out,
            flags_out,
        })
    }

    /// The number of executable steps (folded and control uops excluded).
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Probes the plan against `m` without committing, mirroring
    /// [`probe_frame`](crate::probe_frame): the outcome and the scratch's
    /// transaction list are bit-identical to an interpreted probe of the
    /// source frame.
    pub fn probe(&self, m: &MachineState, scratch: &mut PlanScratch) -> ProbeOutcome {
        scratch.transactions.clear();
        if scratch.values.len() < self.value_cells {
            scratch.values.resize(self.value_cells, 0);
        }
        if scratch.flags.len() < self.flag_cells {
            scratch.flags.resize(self.flag_cells, Flags::CLEAR);
        }
        let values = &mut scratch.values[..];
        let flags = &mut scratch.flags[..];
        let transactions = &mut scratch.transactions;
        values[ZERO_CELL as usize] = 0;
        for r in ArchReg::ALL {
            values[LIVE_IN_BASE as usize + r.index()] = m.reg(r);
        }
        for &(cell, v) in &self.consts {
            values[cell as usize] = v;
        }
        flags[FLAGS_CLEAR_CELL as usize] = Flags::CLEAR;
        flags[FLAGS_LIVE_IN_CELL as usize] = m.flags();

        for s in &self.steps {
            let a = values[s.a as usize];
            let b = values[s.b as usize];
            match s.kind {
                StepKind::Add => {
                    values[s.dst as usize] = a.wrapping_add(b);
                    if s.fdst != NO_FLAG_CELL {
                        flags[s.fdst as usize] = Flags::from_add(a, b);
                    }
                }
                StepKind::Sub => {
                    values[s.dst as usize] = a.wrapping_sub(b);
                    if s.fdst != NO_FLAG_CELL {
                        flags[s.fdst as usize] = Flags::from_sub(a, b);
                    }
                }
                StepKind::And => {
                    let v = a & b;
                    values[s.dst as usize] = v;
                    if s.fdst != NO_FLAG_CELL {
                        flags[s.fdst as usize] = Flags::from_logic_result(v);
                    }
                }
                StepKind::Or => {
                    let v = a | b;
                    values[s.dst as usize] = v;
                    if s.fdst != NO_FLAG_CELL {
                        flags[s.fdst as usize] = Flags::from_logic_result(v);
                    }
                }
                StepKind::Xor => {
                    let v = a ^ b;
                    values[s.dst as usize] = v;
                    if s.fdst != NO_FLAG_CELL {
                        flags[s.fdst as usize] = Flags::from_logic_result(v);
                    }
                }
                StepKind::Cmp => {
                    if s.fdst != NO_FLAG_CELL {
                        flags[s.fdst as usize] = Flags::from_sub(a, b);
                    }
                }
                StepKind::Test => {
                    if s.fdst != NO_FLAG_CELL {
                        flags[s.fdst as usize] = Flags::from_logic_result(a & b);
                    }
                }
                StepKind::Lea => {
                    values[s.dst as usize] = a
                        .wrapping_add(b.wrapping_mul(s.scale))
                        .wrapping_add(s.imm as u32);
                }
                StepKind::Shift(op) | StepKind::AluGen(op) => {
                    let prev = flags[s.fsrc as usize];
                    match eval_alu_with_flags(op, a, b, prev) {
                        Ok(r) => {
                            values[s.dst as usize] = r.value;
                            if s.fdst != NO_FLAG_CELL {
                                flags[s.fdst as usize] = r.flags;
                            }
                        }
                        Err(_) => {
                            return ProbeOutcome::Faulted {
                                uop_index: s.uop_index as usize,
                            }
                        }
                    }
                }
                StepKind::Load => {
                    let addr = a
                        .wrapping_add(b.wrapping_mul(s.scale))
                        .wrapping_add(s.imm as u32);
                    // Latest same-address store in the frame forwards; the
                    // backward scan finds exactly what the interpreter's
                    // latest-wins hash map holds.
                    let value = match transactions
                        .iter()
                        .rev()
                        .find(|t| t.is_store && t.addr == addr)
                    {
                        Some(t) => t.value,
                        None => m.load32(addr),
                    };
                    values[s.dst as usize] = value;
                    transactions.push(MemTransaction {
                        uop_index: s.uop_index as usize,
                        addr,
                        value,
                        is_store: false,
                    });
                }
                StepKind::Store | StepKind::StoreUnsafe => {
                    let addr = a.wrapping_add(s.imm as u32);
                    if matches!(s.kind, StepKind::StoreUnsafe) {
                        if let Some(t) = transactions.iter().find(|t| t.addr == addr) {
                            return ProbeOutcome::UnsafeConflict {
                                uop_index: s.uop_index as usize,
                                conflicts_with: t.uop_index,
                            };
                        }
                    }
                    transactions.push(MemTransaction {
                        uop_index: s.uop_index as usize,
                        addr,
                        value: b,
                        is_store: true,
                    });
                }
                StepKind::AssertFlags(cc) => {
                    if !cc.holds(flags[s.fsrc as usize]) {
                        return ProbeOutcome::AssertFired {
                            uop_index: s.uop_index as usize,
                        };
                    }
                }
                StepKind::AssertCmp(cc) => {
                    if !cc.holds(Flags::from_sub(a, b)) {
                        return ProbeOutcome::AssertFired {
                            uop_index: s.uop_index as usize,
                        };
                    }
                }
                StepKind::AssertTest(cc) => {
                    if !cc.holds(Flags::from_logic_result(a & b)) {
                        return ProbeOutcome::AssertFired {
                            uop_index: s.uop_index as usize,
                        };
                    }
                }
            }
        }
        ProbeOutcome::Completed
    }

    /// Executes the plan against `m`, committing on clean completion —
    /// the specialized counterpart of [`exec_frame`](crate::exec_frame),
    /// with the same commit order: stores, then live-out registers
    /// (collected before any write), then flags.
    pub fn exec(&self, m: &mut MachineState, scratch: &mut PlanScratch) -> FrameOutcome {
        match self.probe(m, scratch) {
            ProbeOutcome::Completed => {
                for t in &scratch.transactions {
                    if t.is_store {
                        m.store32(t.addr, t.value);
                    }
                }
                // Live-out cells were resolved from the entry snapshot and
                // single-assignment slot cells, so reading them here is the
                // interpreter's collect-before-commit, pre-computed.
                for &(r, cell) in &self.live_out {
                    m.set_reg(r, scratch.values[cell as usize]);
                }
                m.set_flags(scratch.flags[self.flags_out as usize]);
                FrameOutcome::Completed {
                    transactions: scratch.transactions.clone(),
                }
            }
            ProbeOutcome::AssertFired { uop_index } => FrameOutcome::AssertFired { uop_index },
            ProbeOutcome::UnsafeConflict {
                uop_index,
                conflicts_with,
            } => FrameOutcome::UnsafeConflict {
                uop_index,
                conflicts_with,
            },
            ProbeOutcome::Faulted { uop_index } => FrameOutcome::Faulted { uop_index },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exec_frame, optimize, probe_frame, AliasProfile, ExecScratch, OptConfig};
    use replay_frame::{Frame, FrameId};
    use replay_uop::Uop;

    fn mk_frame(uops: Vec<Uop>) -> Frame {
        let n = uops.len();
        Frame {
            id: FrameId(0),
            start_addr: 0,
            uops,
            x86_addrs: vec![0],
            block_starts: vec![0],
            expectations: vec![],
            exit_next: 0,
            orig_uop_count: n,
        }
    }

    fn raw(frame: &Frame) -> OptFrame {
        let mut f = OptFrame::from_frame(frame);
        f.compact();
        f
    }

    /// Probes `f` through both paths from `entry` and requires identical
    /// outcomes, transactions, and committed state.
    fn assert_agree(f: &OptFrame, entry: &MachineState) {
        let plan = ExecPlan::compile(f).expect("frame compiles");
        let mut es = ExecScratch::new();
        let mut ps = PlanScratch::new();
        let interp = probe_frame(f, entry, &mut es);
        let spec = plan.probe(entry, &mut ps);
        assert_eq!(interp, spec, "probe outcomes diverge");
        assert_eq!(es.transactions(), ps.transactions(), "transactions diverge");

        let mut m1 = entry.clone();
        let mut m2 = entry.clone();
        let o1 = exec_frame(f, &mut m1);
        let o2 = plan.exec(&mut m2, &mut ps);
        assert_eq!(o1, o2, "exec outcomes diverge");
        for r in ArchReg::ALL {
            assert_eq!(m1.reg(r), m2.reg(r), "{r} diverges");
        }
        assert_eq!(m1.flags(), m2.flags(), "flags diverge");
        for t in es.transactions() {
            assert_eq!(m1.load32(t.addr), m2.load32(t.addr), "mem {:#x}", t.addr);
        }
    }

    #[test]
    fn folds_moves_and_skips_control() {
        let frame = mk_frame(vec![
            Uop::mov_imm(ArchReg::Eax, 7),
            Uop::alu(Opcode::Mov, ArchReg::Ebx, ArchReg::Eax, ArchReg::Eax),
            Uop::nop(),
            Uop::alu_imm(Opcode::Add, ArchReg::Ecx, ArchReg::Ebx, 1),
        ]);
        let f = raw(&frame);
        let plan = ExecPlan::compile(&f).unwrap();
        // MovImm folded, Mov aliased, Nop skipped: only the Add remains.
        assert_eq!(plan.step_count(), 1);
        assert_agree(&f, &MachineState::new());
    }

    #[test]
    fn specialized_matches_interpreter_on_mixed_frames() {
        let frame = mk_frame(vec![
            Uop::store(ArchReg::Esp, -4, ArchReg::Ebp),
            Uop::lea(ArchReg::Esp, ArchReg::Esp, None, 1, -4),
            Uop::store(ArchReg::Esp, -4, ArchReg::Ebx),
            Uop::load(ArchReg::Ecx, ArchReg::Esp, 4),
            Uop::alu(Opcode::Xor, ArchReg::Eax, ArchReg::Eax, ArchReg::Eax),
            Uop::alu_imm(Opcode::Shl, ArchReg::Ecx, ArchReg::Ecx, 3),
            Uop::cmp_imm(ArchReg::Ecx, 0x88),
        ]);
        for (raw_or_opt, seed) in [(false, 1u32), (false, 99), (true, 1), (true, 99)] {
            let f = if raw_or_opt {
                optimize(&frame, &AliasProfile::empty(), &OptConfig::default()).0
            } else {
                raw(&frame)
            };
            let mut m = MachineState::new();
            m.set_reg(ArchReg::Esp, 0x9000 + seed * 4);
            m.set_reg(ArchReg::Ebp, 0x11 ^ seed);
            m.set_reg(ArchReg::Ebx, seed.wrapping_mul(77));
            assert_agree(&f, &m);
        }
    }

    #[test]
    fn assert_fire_and_fault_report_same_slot() {
        let frame = mk_frame(vec![
            Uop::cmp_imm(ArchReg::Ebx, 7),
            Uop::assert_cc(Cond::Eq),
            Uop::alu(Opcode::Div, ArchReg::Eax, ArchReg::Eax, ArchReg::Ecx),
        ]);
        let f = raw(&frame);
        // EBX != 7: the assertion fires in both paths at the same slot.
        let mut m = MachineState::new();
        m.set_reg(ArchReg::Ebx, 8);
        assert_agree(&f, &m);
        // EBX == 7, ECX == 0: the divide faults in both paths.
        let mut m = MachineState::new();
        m.set_reg(ArchReg::Ebx, 7);
        m.set_reg(ArchReg::Eax, 4);
        assert_agree(&f, &m);
    }

    #[test]
    fn unsafe_conflict_attribution_is_identical() {
        let frame = mk_frame(vec![
            Uop::store(ArchReg::Esp, -4, ArchReg::Ebp).at(1),
            Uop::store(ArchReg::Edi, 0, ArchReg::Ebx).at(2),
            Uop::load(ArchReg::Ecx, ArchReg::Esp, -4).at(3),
        ]);
        let (f, stats) = optimize(&frame, &AliasProfile::empty(), &OptConfig::default());
        assert_eq!(stats.unsafe_stores, 1);
        for edi in [0x1000u32 - 4, 0x8000] {
            let mut m = MachineState::new();
            m.set_reg(ArchReg::Esp, 0x1000);
            m.set_reg(ArchReg::Edi, edi);
            m.set_reg(ArchReg::Ebp, 7);
            m.set_reg(ArchReg::Ebx, 9);
            assert_agree(&f, &m);
        }
    }

    #[test]
    fn store_forwarding_reads_latest_store() {
        let frame = mk_frame(vec![
            Uop::store(ArchReg::Esp, 0, ArchReg::Ebp),
            Uop::store(ArchReg::Esp, 0, ArchReg::Ebx),
            Uop::load(ArchReg::Eax, ArchReg::Esp, 0),
        ]);
        let f = raw(&frame);
        let mut m = MachineState::new();
        m.set_reg(ArchReg::Esp, 0x2000);
        m.set_reg(ArchReg::Ebp, 1111);
        m.set_reg(ArchReg::Ebx, 2222);
        let plan = ExecPlan::compile(&f).unwrap();
        let mut ps = PlanScratch::new();
        let mut m2 = m.clone();
        plan.exec(&mut m2, &mut ps);
        assert_eq!(m2.reg(ArchReg::Eax), 2222, "latest store forwards");
        assert_agree(&f, &m);
    }

    #[test]
    fn scratch_reuse_across_plans_is_clean() {
        let big = mk_frame(
            (0..40)
                .map(|i| Uop::alu_imm(Opcode::Add, ArchReg::Eax, ArchReg::Eax, i))
                .collect(),
        );
        let small = mk_frame(vec![Uop::alu_imm(
            Opcode::Add,
            ArchReg::Ebx,
            ArchReg::Ebx,
            1,
        )]);
        let (bf, sf) = (raw(&big), raw(&small));
        let bp = ExecPlan::compile(&bf).unwrap();
        let sp = ExecPlan::compile(&sf).unwrap();
        let mut scratch = PlanScratch::new();
        let m = MachineState::new();
        // Interleave sizes: stale cells from the big plan must never leak
        // into the small plan's results.
        for _ in 0..3 {
            assert_eq!(bp.probe(&m, &mut scratch), ProbeOutcome::Completed);
            assert_eq!(sp.probe(&m, &mut scratch), ProbeOutcome::Completed);
            let mut m2 = m.clone();
            sp.exec(&mut m2, &mut scratch);
            assert_eq!(m2.reg(ArchReg::Ebx), 1);
        }
    }
}
