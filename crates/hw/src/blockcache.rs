//! The CPU's predecoded-block cache.
//!
//! Decoding is the expensive half of interpreting an instruction, and
//! guest code is executed far more often than it changes. The cache
//! keeps straight-line runs of predecoded instructions ("blocks"),
//! keyed by the host-physical address of their first instruction, so
//! the interpreter decodes a block once and replays it.
//!
//! **Staged form.** A block is an array of `Step`s: the decoded
//! [`Insn`] and, resolved once at fill time by
//! [`nova_x86::exec::handler_id`], the [`HandlerId`] of the
//! monomorphised body that executes it — operation, operand kinds and
//! operand size already chosen. Replaying a step is one table load and
//! one indirect call; nothing about the instruction is matched again.
//!
//! **Shape.** Direct-mapped, [`SETS`] blocks of at most
//! [`MAX_BLOCK_INSNS`] instructions, all storage allocated at
//! construction: neither a hit nor a miss allocates. A block never
//! leaves the 4 KB frame it starts in, so one frame's contents decide
//! whether it is still good.
//!
//! **Coherence.** A block records the write generation
//! ([`PhysMem::frame_gen`]) of its frame at decode time and is used
//! only while the generation still matches. Every RAM mutator bumps the
//! generation, so guest stores, device DMA, kernel copies (image load,
//! checkpoint restore, cold reboot) and frame reuse by a new protection
//! domain all invalidate through that one counter — there is nothing to
//! flush by hand. An instruction that straddles a page boundary is
//! never cached (its second half lives in a frame the key does not
//! name, reachable through a translation that may change): `lookup`
//! reports it as [`DecodeError::Truncated`] and the CPU fetches it
//! through both translations every time.
//!
//! **Where a block ends** is decided by `flow`: after a control
//! transfer or a `rep` string instruction (`BlockEnd::Chain`: the
//! next instruction is somewhere else, or the same one again), after
//! anything that can change IF, a control register or the TLB, or that
//! a VMCS intercept can match (`BlockEnd::Outer`: the CPU's outer
//! loop has to look at the machine again), before an instruction that
//! does not decode inside the frame, and at [`MAX_BLOCK_INSNS`].
//!
//! **Counted loops.** A block whose last two instructions are
//! `dec r32` · `jne rel` is marked when it is filled (`CountedTail`):
//! which register counts, whether the `jne` comes back to the block's
//! own first byte, its displacement, and — if the instruction before
//! the `dec` is a register–immediate ALU instruction (`AluStep`) — that
//! *step*. The executor retires the step (if any) and the pair as one
//! step, and a block that is nothing but a self-closing pair — a delay
//! loop — in closed form. A block that is nothing but a strided load
//! (`LoadStep`), its stride and the pair is retired a page of trips at
//! a time. A rewrite of any of these instructions moves
//! the frame's generation like any other store, and the next lookup
//! classifies what it decodes afresh.

use nova_x86::decode::{decode, DecodeError, MAX_INSN_LEN};
use nova_x86::exec::{handler_id, HandlerId};
use nova_x86::insn::{AluOp, Cond, Insn, Op, OpSize, Operand};
use nova_x86::reg::Reg;

use crate::mem::PhysMem;
use crate::PAddr;

/// Number of blocks the cache holds (direct-mapped).
pub const SETS: usize = 1024;
/// Longest block, in instructions.
pub const MAX_BLOCK_INSNS: usize = 8;

/// Decoded-block cache statistics, per block lookup.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Lookups served by a cached, still-coherent block.
    pub hits: u64,
    /// Lookups that had to decode (including uncacheable page
    /// straddlers and undecodable bytes).
    pub misses: u64,
    /// Cached blocks dropped because their frame was written since
    /// they were decoded.
    pub invalidations: u64,
    /// Cached blocks displaced by a block of another address.
    pub evictions: u64,
}

/// What the CPU may do after a block's last instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BlockEnd {
    /// Carry on with the block at the new EIP: nothing the outer loop
    /// looks at can have changed.
    Chain,
    /// Return to the outer loop: the last instruction can change IF, a
    /// control register or the TLB, halt, or be intercepted.
    Outer,
}

/// How one instruction continues a block under construction.
enum Flow {
    /// Falls through to the next instruction.
    Next,
    /// Ends the block with the given verdict.
    End(BlockEnd),
}

/// Classifies an instruction for block construction. Exhaustive on
/// purpose: a new `Op` has to be placed before this compiles.
fn flow(insn: &Insn) -> Flow {
    match insn.op {
        Op::Jmp | Op::Jcc(_) | Op::Call | Op::Ret => Flow::End(BlockEnd::Chain),
        // One iteration per execution, EIP unchanged until the last.
        Op::Movs | Op::Stos | Op::Lods if insn.rep => Flow::End(BlockEnd::Chain),
        // IF: CLI/STI/POPF/IRET/INT. CRs and TLB: MOV CR, INVLPG.
        // Intercept candidates: everything `cpu::intercept` matches.
        Op::Int(_)
        | Op::Iret
        | Op::Popf
        | Op::Cli
        | Op::Sti
        | Op::Hlt
        | Op::In
        | Op::Out
        | Op::Cpuid
        | Op::Rdtsc
        | Op::MovFromCr
        | Op::MovToCr
        | Op::Invlpg
        | Op::Vmcall => Flow::End(BlockEnd::Outer),
        Op::Mov
        | Op::Movzx
        | Op::Movsx
        | Op::Xchg
        | Op::Alu(_)
        | Op::Test
        | Op::Inc
        | Op::Dec
        | Op::Neg
        | Op::Not
        | Op::Mul
        | Op::Imul2
        | Op::Div
        | Op::Shift(_)
        | Op::Lea
        | Op::Push
        | Op::Pop
        | Op::Pushf
        | Op::Cld
        | Op::Std
        | Op::Lidt
        | Op::Movs
        | Op::Stos
        | Op::Lods
        | Op::Nop => Flow::Next,
    }
}

/// The tail of a counted loop: a block whose last two instructions are
/// `dec r32` · `jne rel`, with the ALU step before them if there is
/// one. Recognised once, when the block is filled, so that entering
/// the block costs the executor one more field to read and nothing to
/// compute, and a trip reads no [`Insn`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CountedTail {
    /// The register the `dec` counts down.
    pub counter: Reg,
    /// The `jne` lands on the block's own first byte:
    /// `rel == -(block byte length)`. A statement about displacements
    /// only, so it holds wherever the frame is mapped and the block's
    /// key can stay its host-physical address.
    pub closes: bool,
    /// Bytes from the tail's first instruction (the step, or else the
    /// `dec`) to the end of the `jne`.
    pub len: u8,
    /// The `jne`'s displacement.
    pub rel: u32,
    /// The instruction before the `dec`, if it is an [`AluStep`].
    pub step: Option<AluStep>,
    /// The instruction before the step, if the block is nothing but a
    /// strided load, its stride and the pair ([`LoadStep`]).
    pub load: Option<LoadStep>,
}

/// `op r32, imm`: a register–immediate instruction of the ALU group,
/// the stride or mask of a counted loop, retired with its tail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct AluStep {
    pub op: AluOp,
    pub reg: Reg,
    /// The immediate, sign-extended to 32 bits if it was an imm8.
    pub imm: u32,
}

impl AluStep {
    fn of(insn: &Insn) -> Option<AluStep> {
        match (insn.op, insn.dst, insn.src, insn.size) {
            (Op::Alu(op), Operand::Reg(reg), Operand::Imm(imm), OpSize::Dword) => {
                Some(AluStep { op, reg, imm })
            }
            _ => None,
        }
    }
}

/// `op r32, [base + disp]`, the first of the four instructions of a
/// block that is exactly `op dst, [base + disp]` · `add|sub base, imm`
/// · `dec counter` · `jne` back to its own first byte: a reduction
/// over a strided walk, which the executor can retire a page of trips
/// at a time. `base` is the step's register.
///
/// `op` has no carry-in (not `adc` or `sbb`), so the `k` loads fold
/// without their flags: the step overwrites every flag the load sets.
/// `dst` is neither the base nor the counter, and the base is not the
/// counter, so the fold, the walk and the count are independent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LoadStep {
    pub op: AluOp,
    pub dst: Reg,
    pub disp: u32,
}

impl LoadStep {
    fn of(insn: &Insn, step: &AluStep, counter: Reg) -> Option<LoadStep> {
        let (Op::Alu(op), Operand::Reg(dst), Operand::Mem(m), OpSize::Dword) =
            (insn.op, insn.dst, insn.src, insn.size)
        else {
            return None;
        };
        let folds = !matches!(op, AluOp::Adc | AluOp::Sbb);
        let strides = matches!(step.op, AluOp::Add | AluOp::Sub);
        let base = step.reg;
        (folds
            && strides
            && m.base == Some(base)
            && m.index.is_none()
            && dst != base
            && dst != counter
            && base != counter)
            .then_some(LoadStep {
                op,
                dst,
                disp: m.disp as u32,
            })
    }
}

impl CountedTail {
    /// Classifies a freshly decoded block.
    fn of(steps: &[Step]) -> Option<CountedTail> {
        let [body @ .., dec, jne] = steps else {
            return None;
        };
        let (Op::Dec, Operand::Reg(counter), OpSize::Dword) =
            (dec.insn.op, dec.insn.dst, dec.insn.size)
        else {
            return None;
        };
        let (Op::Jcc(Cond::Ne), Operand::Imm(rel)) = (jne.insn.op, jne.insn.src) else {
            return None;
        };
        let step = body
            .last()
            .and_then(|s| Some((AluStep::of(&s.insn)?, s.insn.len)));
        let bytes: u32 = steps.iter().map(|s| s.insn.len as u32).sum();
        let closes = rel == bytes.wrapping_neg();
        let load = match (body, step) {
            ([load, _], Some((step, _))) if closes => LoadStep::of(&load.insn, &step, counter),
            _ => None,
        };
        Some(CountedTail {
            counter,
            closes,
            len: step.map_or(0, |(_, len)| len) + dec.insn.len + jne.insn.len,
            rel,
            step: step.map(|(step, _)| step),
            load,
        })
    }

    /// Instructions one trip of the tail retires.
    pub fn insns(&self) -> usize {
        2 + self.step.is_some() as usize
    }
}

/// Bookkeeping of one cache slot; its steps live in the shared arena
/// at `slot * MAX_BLOCK_INSNS`.
#[derive(Clone, Copy)]
struct Slot {
    /// Host-physical address of the first instruction.
    key: PAddr,
    /// Write generation of the frame when the block was decoded.
    gen: u64,
    /// Instructions in the block; 0 marks the slot empty.
    len: u8,
    end: BlockEnd,
    counted: Option<CountedTail>,
}

/// One predecoded instruction of a block.
#[derive(Clone, Copy)]
pub(crate) struct Step {
    /// The decoded instruction.
    pub insn: Insn,
    /// The handler that executes it, resolved when the block was
    /// filled.
    pub run: HandlerId,
}

impl Step {
    fn of(insn: Insn) -> Step {
        Step {
            insn,
            run: handler_id(&insn),
        }
    }
}

/// A coherent block handed out by [`BlockCache::lookup`].
pub(crate) struct Block<'a> {
    /// The predecoded instructions, in address order; never empty.
    pub steps: &'a [Step],
    /// What may follow the last one.
    pub end: BlockEnd,
    /// The frame generation the block is good for.
    pub gen: u64,
    /// Set if the block ends in a counted loop's `dec` · `jne`, with or
    /// without a step before them. Read where the slot keeps it: a copy
    /// travels in registers only as far as the compiler can keep it
    /// there, and a spilled one was read back wider than it was stored.
    pub counted: Option<&'a CountedTail>,
}

/// The cache itself. One per CPU core.
pub(crate) struct BlockCache {
    slots: Vec<Slot>,
    steps: Vec<Step>,
    pub stats: DecodeCacheStats,
}

impl BlockCache {
    /// Allocates the whole cache, empty.
    pub fn new() -> BlockCache {
        let nop = Step::of(Insn {
            op: Op::Nop,
            dst: Operand::None,
            src: Operand::None,
            size: OpSize::Dword,
            rep: false,
            len: 1,
        });
        BlockCache {
            slots: vec![
                Slot {
                    key: 0,
                    gen: 0,
                    len: 0,
                    end: BlockEnd::Chain,
                    counted: None,
                };
                SETS
            ],
            steps: vec![nop; SETS * MAX_BLOCK_INSNS],
            stats: DecodeCacheStats::default(),
        }
    }

    fn slot_of(hpa: PAddr) -> usize {
        // Fibonacci hashing: block starts are byte-granular and
        // clustered, the top bits of the product spread them.
        (hpa.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - SETS.trailing_zeros())) as usize
    }

    /// The block starting at host-physical address `hpa`, decoded from
    /// `mem` unless a coherent copy is cached.
    ///
    /// # Errors
    ///
    /// The first instruction does not decode from the bytes left in
    /// its frame: [`DecodeError::Truncated`] if it runs past them (a
    /// page straddler), [`DecodeError::InvalidOpcode`] if it is outside
    /// the subset. Nothing is cached for it.
    ///
    /// The hit half is inlined into the executor so that the block's
    /// fields reach it in registers. Returned through memory, `end` and
    /// `counted` were stored as a byte and a halfword and read back by
    /// one wider load — a store-forwarding stall on every block entry
    /// (6 ns of `exit_storm`'s 253 ns per exit). The miss half stays a
    /// call.
    #[inline(always)]
    pub fn lookup(&mut self, mem: &PhysMem, hpa: PAddr) -> Result<Block<'_>, DecodeError> {
        let slot = Self::slot_of(hpa);
        let gen = mem.frame_gen(hpa);
        let s = &mut self.slots[slot];
        if s.len != 0 && s.key == hpa {
            if s.gen == gen {
                self.stats.hits += 1;
                return Ok(self.block(slot));
            }
            s.len = 0;
            self.stats.invalidations += 1;
        }
        self.stats.misses += 1;
        self.fill(slot, mem, hpa, gen)?;
        Ok(self.block(slot))
    }

    #[inline(always)]
    fn block(&self, slot: usize) -> Block<'_> {
        let s = &self.slots[slot];
        let base = slot * MAX_BLOCK_INSNS;
        Block {
            steps: &self.steps[base..base + s.len as usize],
            end: s.end,
            gen: s.gen,
            counted: s.counted.as_ref(),
        }
    }

    /// Decodes the block at `hpa` into `slot`, displacing its occupant.
    #[cold]
    #[inline(never)]
    fn fill(
        &mut self,
        slot: usize,
        mem: &PhysMem,
        hpa: PAddr,
        gen: u64,
    ) -> Result<(), DecodeError> {
        let base = slot * MAX_BLOCK_INSNS;
        let frame = hpa & !0xfff;
        let mut off = (hpa & 0xfff) as usize;
        let mut len = 0;
        let mut end = BlockEnd::Chain;
        let mut bytes = [0u8; MAX_INSN_LEN];
        while len < MAX_BLOCK_INSNS && off < 4096 {
            // At most what is left of the frame: the bytes beyond
            // belong to whatever the *next* page translates to.
            let avail = (4096 - off).min(MAX_INSN_LEN);
            mem.read_into(frame + off as u64, &mut bytes[..avail]);
            let insn = match decode(&bytes[..avail]) {
                Ok(insn) => insn,
                Err(e) if len == 0 => return Err(e),
                // Reached on its own, it is the first of a lookup and
                // reported above.
                Err(_) => break,
            };
            if len == 0 && self.slots[slot].len != 0 {
                self.stats.evictions += 1;
            }
            self.steps[base + len] = Step::of(insn);
            len += 1;
            off += insn.len as usize;
            if let Flow::End(e) = flow(&insn) {
                end = e;
                break;
            }
        }
        self.slots[slot] = Slot {
            key: hpa,
            gen,
            len: len as u8,
            end,
            counted: CountedTail::of(&self.steps[base..base + len]),
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_x86::insn::MemRef;
    use nova_x86::Asm;

    fn mem_with(addr: PAddr, code: &[u8]) -> PhysMem {
        let mut m = PhysMem::new(1 << 20);
        m.write_bytes(addr, code);
        m
    }

    #[test]
    fn block_ends_after_branch_and_hits_second_time() {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Eax, 1);
        a.add_ri(Reg::Eax, 2);
        let l = a.here_label();
        a.jmp(l);
        a.nop(); // not part of the block
        let mem = mem_with(0x1000, &a.finish());
        let mut c = BlockCache::new();
        let b = c.lookup(&mem, 0x1000).unwrap();
        assert_eq!(b.steps.len(), 3);
        assert_eq!(b.steps[2].insn.op, Op::Jmp);
        assert_eq!(b.end, BlockEnd::Chain);
        c.lookup(&mem, 0x1000).unwrap();
        assert_eq!(
            c.stats,
            DecodeCacheStats {
                hits: 1,
                misses: 1,
                ..Default::default()
            }
        );
    }

    #[test]
    fn sensitive_and_if_changing_instructions_end_with_outer() {
        for emit in [
            Asm::cpuid as fn(&mut Asm),
            Asm::cli,
            Asm::sti,
            Asm::popf,
            Asm::iret,
            Asm::hlt,
            Asm::rdtsc,
            Asm::vmcall,
            Asm::out_dx_al,
            Asm::in_al_dx,
        ] {
            let mut a = Asm::new(0);
            a.nop();
            emit(&mut a);
            a.nop();
            let mem = mem_with(0, &a.finish());
            let mut c = BlockCache::new();
            let b = c.lookup(&mem, 0).unwrap();
            assert_eq!(b.steps.len(), 2);
            assert_eq!(b.end, BlockEnd::Outer);
        }
    }

    #[test]
    fn rep_string_ends_block_plain_string_does_not() {
        let mut a = Asm::new(0);
        a.stosd();
        a.rep_stosd();
        a.nop();
        let mem = mem_with(0, &a.finish());
        let mut c = BlockCache::new();
        let b = c.lookup(&mem, 0).unwrap();
        assert_eq!(b.steps.len(), 2);
        assert!(b.steps[1].insn.rep);
        assert_eq!(b.end, BlockEnd::Chain);
    }

    #[test]
    fn write_to_the_frame_invalidates() {
        let mut a = Asm::new(0x2000);
        a.mov_ri(Reg::Eax, 1);
        a.ret();
        let mut mem = mem_with(0x2000, &a.finish());
        let mut c = BlockCache::new();
        assert_eq!(
            c.lookup(&mem, 0x2000).unwrap().steps[0].insn.src,
            Operand::Imm(1)
        );
        mem.write_u8(0x2001, 9);
        assert_eq!(
            c.lookup(&mem, 0x2000).unwrap().steps[0].insn.src,
            Operand::Imm(9)
        );
        assert_eq!(c.stats.invalidations, 1);
        assert_eq!(c.stats.misses, 2);
        // A write to another frame does not.
        mem.write_u8(0x3000, 9);
        c.lookup(&mem, 0x2000).unwrap();
        assert_eq!(c.stats.hits, 1);
    }

    #[test]
    fn block_stops_at_frame_end_and_straddler_is_not_cached() {
        // Three NOPs, then `mov eax, imm32` with two bytes in this
        // frame and three in the next.
        let mut mem = PhysMem::new(1 << 20);
        mem.write_bytes(0x1ffb, &[0x90, 0x90, 0x90, 0xb8, 0x11, 0x22, 0x33, 0x44]);
        let mut c = BlockCache::new();
        let b = c.lookup(&mem, 0x1ffb).unwrap();
        assert_eq!(b.steps.len(), 3, "ends before the straddler");
        assert_eq!(b.end, BlockEnd::Chain);
        assert_eq!(c.lookup(&mem, 0x1ffe).err(), Some(DecodeError::Truncated));
        assert_eq!(c.lookup(&mem, 0x1ffe).err(), Some(DecodeError::Truncated));
        assert_eq!(c.stats.hits, 0);
        assert_eq!(c.stats.misses, 3);
        // A block that fits exactly ends at the boundary.
        mem.write_bytes(0x2ffe, &[0x90, 0x90, 0x90]);
        assert_eq!(c.lookup(&mem, 0x2ffe).unwrap().steps.len(), 2);
    }

    #[test]
    fn long_runs_split_at_the_block_limit() {
        let mem = mem_with(0x4000, &[0x90; 64]);
        let mut c = BlockCache::new();
        let b = c.lookup(&mem, 0x4000).unwrap();
        assert_eq!(b.steps.len(), MAX_BLOCK_INSNS);
        assert_eq!(b.end, BlockEnd::Chain);
    }

    #[test]
    fn invalid_first_opcode_is_reported_and_later_one_ends_the_block() {
        // 0x0f 0xff is outside the subset.
        let mem = mem_with(0x5000, &[0x90, 0x0f, 0xff]);
        let mut c = BlockCache::new();
        assert_eq!(c.lookup(&mem, 0x5000).unwrap().steps.len(), 1);
        assert_eq!(
            c.lookup(&mem, 0x5001).err(),
            Some(DecodeError::InvalidOpcode)
        );
    }

    #[test]
    fn conflicting_block_evicts() {
        let mem = mem_with(0, &[0xc3; 0x10000]); // RETs everywhere
        let mut c = BlockCache::new();
        let first = 0x100;
        let other = (first + 1..0x10000)
            .find(|a| BlockCache::slot_of(*a) == BlockCache::slot_of(first))
            .expect("some address shares the slot");
        c.lookup(&mem, first).unwrap();
        c.lookup(&mem, other).unwrap();
        assert_eq!(c.stats.evictions, 1);
        c.lookup(&mem, first).unwrap();
        assert_eq!(c.stats.evictions, 2);
        assert_eq!(c.stats.hits, 0);
    }

    /// What `fill` recorded for the block at `at` of `code` (loaded at
    /// 0x1000).
    fn counted_at(code: &[u8], at: PAddr) -> Option<CountedTail> {
        let mem = mem_with(0x1000, code);
        BlockCache::new().lookup(&mem, at).unwrap().counted.copied()
    }

    /// `top: <body NOPs>; <dec>; j<cond> <top or the next instruction>`.
    fn counted_loop(body: usize, dec: &[u8], cond: Cond, to_top: bool) -> Vec<u8> {
        let mut a = Asm::new(0x1000);
        let top = a.here_label();
        for _ in 0..body {
            a.nop();
        }
        a.bytes(dec);
        let next = a.label();
        a.jcc(cond, if to_top { top } else { next });
        a.bind(next);
        a.finish()
    }

    const DEC_ECX: &[u8] = &[0x49];

    /// `jne rel32` is six bytes.
    const JNE_LEN: u8 = 6;

    #[test]
    fn dec_r32_jne_to_the_block_start_is_counted_and_self_closing() {
        let tail = |counter, bytes: u32, dec_len: u8| CountedTail {
            counter,
            closes: true,
            len: dec_len + JNE_LEN,
            rel: bytes.wrapping_neg(),
            step: None,
            load: None,
        };
        let code = counted_loop(0, DEC_ECX, Cond::Ne, true);
        assert_eq!(counted_at(&code, 0x1000), Some(tail(Reg::Ecx, 7, 1)));
        // With a body, and through the `ff /1` encoding of `dec edi`.
        let code = counted_loop(3, &[0xff, 0xcf], Cond::Ne, true);
        assert_eq!(counted_at(&code, 0x1000), Some(tail(Reg::Edi, 11, 2)));
        // Entered past its first instruction the same bytes are another
        // block, which the `jne` does not close.
        assert_eq!(
            counted_at(&code, 0x1001),
            Some(CountedTail {
                closes: false,
                ..tail(Reg::Edi, 11, 2)
            })
        );
    }

    /// `top: nop; <step>; dec ecx; jne top`: what `fill` made of the
    /// instruction before the `dec`.
    fn step_of(step: &[u8]) -> Option<AluStep> {
        let mut code = vec![0x90];
        code.extend_from_slice(step);
        let tail = counted_at(&counted_loop_after(&code), 0x1000).expect("dec r32; jne");
        assert!(tail.closes);
        let step_len = tail.step.map_or(0, |_| step.len() as u8);
        assert_eq!(tail.len, step_len + 1 + JNE_LEN, "{step:02x?}");
        tail.step
    }

    /// `top: <head>; dec ecx; jne top`.
    fn counted_loop_after(head: &[u8]) -> Vec<u8> {
        let mut a = Asm::new(0x1000);
        let top = a.here_label();
        a.bytes(head);
        a.dec_r(Reg::Ecx);
        a.jcc(Cond::Ne, top);
        a.finish()
    }

    #[test]
    fn a_register_immediate_alu_step_before_the_dec_is_part_of_the_tail() {
        for n in 0..8 {
            let op = AluOp::from_num(n);
            // imm8 (sign-extended) and imm32, on EDI and on the counter.
            for (imm, imm_len) in [(0xffff_fffd, 3), (0x1234_5678, 6)] {
                for reg in [Reg::Edi, Reg::Ecx] {
                    let mut a = Asm::new(0);
                    a.alu_ri(op, reg, imm);
                    let code = a.finish();
                    assert_eq!(code.len(), imm_len);
                    assert_eq!(step_of(&code), Some(AluStep { op, reg, imm }), "{op:?}");
                }
            }
        }
        // The short accumulator form: `add eax, imm32`.
        assert_eq!(
            step_of(&[0x05, 0x40, 0, 0, 0]),
            Some(AluStep {
                op: AluOp::Add,
                reg: Reg::Eax,
                imm: 0x40,
            })
        );
        // A block of the step and the pair alone closes on the step.
        let mut a = Asm::new(0);
        a.add_ri(Reg::Edi, 64);
        let tail = counted_at(&counted_loop_after(&a.finish()), 0x1000).unwrap();
        assert_eq!(
            (tail.closes, tail.len, tail.rel),
            (true, 10, 10u32.wrapping_neg())
        );
        assert!(tail.step.is_some());
    }

    #[test]
    fn other_instructions_before_the_dec_are_not_steps() {
        for before in [
            &[0x80, 0xc3, 0x05][..],               // add bl, 5
            &[0x01, 0xc7],                         // add edi, eax
            &[0x83, 0x05, 0x00, 0x20, 0, 0, 0x05], // add dword [0x2000], 5
            &[0x47],                               // inc edi
            &[0x90],                               // nop
        ] {
            assert_eq!(step_of(before), None, "{before:02x?}");
        }
    }

    /// `top: <op> <dst>, [<base> + disp] · <stride> · dec ecx · jne
    /// top`, with the load's memory operand as given: what `fill` made
    /// of the load, after checking the rest of the tail.
    fn load_of(op: AluOp, dst: Reg, m: MemRef, stride: (AluOp, Reg, u32)) -> Option<LoadStep> {
        let mut a = Asm::new(0);
        a.alu_rm(op, dst, m);
        a.alu_ri(stride.0, stride.1, stride.2);
        let tail = counted_at(&counted_loop_after(&a.finish()), 0x1000).expect("dec r32; jne");
        assert!(tail.closes);
        let (op_, reg, imm) = stride;
        assert_eq!(tail.step, Some(AluStep { op: op_, reg, imm }));
        tail.load
    }

    #[test]
    fn a_strided_load_before_the_step_is_part_of_the_tail() {
        let ops = [
            AluOp::Add,
            AluOp::Or,
            AluOp::And,
            AluOp::Sub,
            AluOp::Xor,
            AluOp::Cmp,
        ];
        for op in ops {
            // Up and down, by an imm8 and an imm32, with no, a disp8
            // and a disp32 displacement.
            for stride in [
                (AluOp::Add, Reg::Edi, 4),
                (AluOp::Sub, Reg::Edi, 64),
                (AluOp::Add, Reg::Edi, 0x1_0000),
                (AluOp::Sub, Reg::Edi, 0xffff_fffc),
            ] {
                for disp in [0, -8, 0x1234] {
                    let m = MemRef::base_disp(Reg::Edi, disp);
                    assert_eq!(
                        load_of(op, Reg::Eax, m, stride),
                        Some(LoadStep {
                            op,
                            dst: Reg::Eax,
                            disp: disp as u32,
                        }),
                        "{op:?} {stride:?} {disp}"
                    );
                }
            }
        }
        // The Fig 5 compile loop's own block.
        let mut a = Asm::new(0x1000);
        let top = a.here_label();
        a.alu_rm(AluOp::Add, Reg::Eax, MemRef::base_disp(Reg::Edi, 0));
        a.add_ri(Reg::Edi, 64);
        a.dec_r(Reg::Ecx);
        a.jcc(Cond::Ne, top);
        let tail = counted_at(&a.finish(), 0x1000).unwrap();
        assert_eq!(tail.insns(), 3, "the load is not a trip of the fused tail");
        assert!(tail.load.is_some());
    }

    #[test]
    fn other_loads_and_strides_are_not_batched() {
        let up = (AluOp::Add, Reg::Edi, 4);
        let at_edi = MemRef::base_disp(Reg::Edi, 0);
        for (what, op, dst, m, stride) in [
            ("adc", AluOp::Adc, Reg::Eax, at_edi, up),
            ("sbb", AluOp::Sbb, Reg::Eax, at_edi, up),
            ("dst is the base", AluOp::Add, Reg::Edi, at_edi, up),
            ("dst is the counter", AluOp::Add, Reg::Ecx, at_edi, up),
            (
                "an index register",
                AluOp::Add,
                Reg::Eax,
                MemRef {
                    base: Some(Reg::Edi),
                    index: Some((Reg::Ebx, 4)),
                    disp: 0,
                },
                up,
            ),
            ("no base", AluOp::Add, Reg::Eax, MemRef::abs(0x2000), up),
            (
                "a step on another register",
                AluOp::Add,
                Reg::Eax,
                at_edi,
                (AluOp::Add, Reg::Esi, 4),
            ),
            (
                "a step that is not a stride",
                AluOp::Add,
                Reg::Eax,
                at_edi,
                (AluOp::Xor, Reg::Edi, 4),
            ),
            (
                "the base is the counter",
                AluOp::Add,
                Reg::Eax,
                MemRef::base_disp(Reg::Ecx, 0),
                (AluOp::Add, Reg::Ecx, 4),
            ),
        ] {
            assert_eq!(load_of(op, dst, m, stride), None, "{what}");
        }
        // A store, a byte load and a `mov` are not reductions.
        let mut a = Asm::new(0);
        a.alu_mr(AluOp::Add, at_edi, Reg::Eax);
        a.add_ri(Reg::Edi, 4);
        let tail = counted_at(&counted_loop_after(&a.finish()), 0x1000).unwrap();
        assert_eq!((tail.step.is_some(), tail.load), (true, None), "store");
        for load in [&[0x02, 0x07][..], &[0x8b, 0x07]] {
            // add al, [edi]; mov eax, [edi]
            let mut code = load.to_vec();
            code.extend_from_slice(&[0x83, 0xc7, 0x04]); // add edi, 4
            let tail = counted_at(&counted_loop_after(&code), 0x1000).unwrap();
            assert_eq!(
                (tail.step.is_some(), tail.load),
                (true, None),
                "{load:02x?}"
            );
        }
        // Anything in front of the load: the block is not the loop.
        let mut a = Asm::new(0);
        a.nop();
        a.alu_rm(AluOp::Add, Reg::Eax, at_edi);
        a.add_ri(Reg::Edi, 4);
        let tail = counted_at(&counted_loop_after(&a.finish()), 0x1000).unwrap();
        assert_eq!(tail.load, None, "a body before the load");
        // A `jne` that does not come back to the load.
        let mut a = Asm::new(0x1000);
        a.alu_rm(AluOp::Add, Reg::Eax, at_edi);
        a.add_ri(Reg::Edi, 4);
        a.dec_r(Reg::Ecx);
        let next = a.label();
        a.jcc(Cond::Ne, next);
        a.bind(next);
        let tail = counted_at(&a.finish(), 0x1000).unwrap();
        assert_eq!((tail.closes, tail.load), (false, None), "not closed");
    }

    #[test]
    fn other_tails_are_not_counted_or_not_self_closing() {
        // dec cl; dec dword [0x2000]: not a 32-bit register.
        for dec in [&[0xfe, 0xc9][..], &[0xff, 0x0d, 0x00, 0x20, 0x00, 0x00]] {
            let code = counted_loop(1, dec, Cond::Ne, true);
            assert_eq!(counted_at(&code, 0x1000), None, "{dec:02x?}");
        }
        // je top: another condition.
        let code = counted_loop(1, DEC_ECX, Cond::E, true);
        assert_eq!(counted_at(&code, 0x1000), None);
        // inc ecx; jne top.
        let code = counted_loop(1, &[0x41], Cond::Ne, true);
        assert_eq!(counted_at(&code, 0x1000), None);
        // jne somewhere else: a counted tail, not a closed loop.
        let code = counted_loop(1, DEC_ECX, Cond::Ne, false);
        let tail = counted_at(&code, 0x1000).expect("dec r32; jne");
        assert!(!tail.closes);
        // A loop longer than a block: the `jne` of the block holding
        // the tail targets the loop's start, not its own.
        let code = counted_loop(MAX_BLOCK_INSNS, DEC_ECX, Cond::Ne, true);
        assert_eq!(counted_at(&code, 0x1000), None, "eight NOPs");
        let tail = counted_at(&code, 0x1000 + MAX_BLOCK_INSNS as u64).expect("the tail");
        assert!(!tail.closes);
        // A block of one instruction has no pair to look at.
        assert_eq!(counted_at(&code, 0x1000 + MAX_BLOCK_INSNS as u64 + 1), None);
    }

    #[test]
    fn rewriting_the_displacement_reclassifies_on_the_next_lookup() {
        let code = counted_loop(2, DEC_ECX, Cond::Ne, true);
        let mut mem = mem_with(0x1000, &code);
        let mut c = BlockCache::new();
        assert!(c.lookup(&mem, 0x1000).unwrap().counted.unwrap().closes);
        // The rel32 is the last four bytes: retarget the `jne` one
        // byte further back.
        let rel_at = 0x1000 + code.len() as u64 - 4;
        let rel = mem.read_u32(rel_at);
        mem.write_u32(rel_at, rel.wrapping_sub(1));
        let b = c.lookup(&mem, 0x1000).unwrap();
        assert_eq!(b.steps[3].insn.src, Operand::Imm(rel.wrapping_sub(1)));
        assert!(!b.counted.unwrap().closes, "decoded and classified afresh");
        assert_eq!(c.stats.invalidations, 1);
    }

    #[test]
    fn frames_outside_ram_decode_as_zeros_and_stay_valid() {
        let mem = PhysMem::new(4096);
        let mut c = BlockCache::new();
        let b = c.lookup(&mem, 0xfeb0_0000).unwrap();
        assert_eq!(b.steps.len(), MAX_BLOCK_INSNS, "00 00 = add [eax], al");
        c.lookup(&mem, 0xfeb0_0000).unwrap();
        assert_eq!(c.stats.hits, 1);
    }
}
