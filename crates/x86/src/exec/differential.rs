//! Differential test of the staged handlers against [`super::reference`].
//!
//! The instruction vocabulary is not written down here: it is
//! *discovered* by decoding seeded random byte strings that start with
//! every opcode byte, and bucketed by what handler selection can see —
//! operation (with its ALU/shift/condition selector), operand kinds,
//! operand size, REP. Every bucket is then driven through both
//! executors over seeded random register files, memories and fault
//! sets, and everything observable must agree: the `Result`, every
//! register, the bytes stored and the ordered list of environment
//! calls with their arguments and results.
#![cfg(test)]

use std::collections::BTreeMap;

use super::{handler, handler_id, reference, unassigned, Env, Fault, Handler};
use crate::decode::{decode, MAX_INSN_LEN};
use crate::insn::{AluOp, Cond, Insn, MemRef, Op, OpSize, Operand, ShiftOp};
use crate::reg::{flags, Reg, Reg8, Regs};
use crate::Asm;

/// Executions per bucket.
const TRIPLES: usize = 2_000;
/// Random byte strings decoded to discover the vocabulary.
const DISCOVERY_DRAWS: usize = 600_000;
/// Distinct instructions remembered per bucket.
const EXAMPLES: usize = 128;

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, of: &[T]) -> T {
        of[self.below(of.len() as u64) as usize]
    }
}

/// One environment call, with its arguments and what it returned.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Call {
    Read(u32, OpSize, Result<u32, Fault>),
    Write(u32, OpSize, u32, Result<(), Fault>),
    In(u16, OpSize, Result<u32, Fault>),
    Out(u16, OpSize, u32, Result<(), Fault>),
    Cpuid(u32),
    Rdtsc,
    ReadCr(u8, Result<u32, Fault>),
    WriteCr(u8, u32, Result<(), Fault>),
    Invlpg(u32, Result<(), Fault>),
    Vmcall(Result<(), Fault>),
}

/// A flat 64 KB memory (addresses wrap) over a shared read-only image,
/// that faults on a seeded subset of addresses, ports and control
/// registers and records every call made to it.
struct Recorder<'a> {
    image: &'a [u8],
    /// Bytes stored so far, in store order.
    stored: Vec<(u16, u8)>,
    calls: Vec<Call>,
    faults: u64,
}

impl<'a> Recorder<'a> {
    fn new(image: &'a [u8], faults: u64) -> Recorder<'a> {
        Recorder {
            image,
            stored: Vec::new(),
            calls: Vec::new(),
            faults,
        }
    }

    /// One in sixteen of whatever `what` numbers fails, chosen by the
    /// fault seed.
    fn fails(&self, what: u64) -> bool {
        (what ^ self.faults).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 60 == 0
    }

    fn byte(&self, addr: u16) -> u8 {
        self.stored
            .iter()
            .rev()
            .find(|(a, _)| *a == addr)
            .map_or(self.image[addr as usize], |(_, b)| *b)
    }

    fn page_fault(addr: u32, write: bool) -> Fault {
        Fault::Page {
            addr,
            write,
            fetch: false,
            present: addr & 0x10 != 0,
        }
    }
}

impl Env for Recorder<'_> {
    type Err = Fault;

    fn read_mem(&mut self, addr: u32, size: OpSize) -> Result<u32, Fault> {
        let r = if self.fails(addr as u64 >> 2) {
            Err(Self::page_fault(addr, false))
        } else {
            Ok((0..size.bytes()).fold(0, |v, i| {
                v | (self.byte(addr.wrapping_add(i) as u16) as u32) << (8 * i)
            }))
        };
        self.calls.push(Call::Read(addr, size, r));
        r
    }

    fn write_mem(&mut self, addr: u32, size: OpSize, val: u32) -> Result<(), Fault> {
        let r = if self.fails(addr as u64 >> 2 | 1 << 40) {
            Err(Self::page_fault(addr, true))
        } else {
            for i in 0..size.bytes() {
                self.stored
                    .push((addr.wrapping_add(i) as u16, (val >> (8 * i)) as u8));
            }
            Ok(())
        };
        self.calls.push(Call::Write(addr, size, val, r));
        r
    }

    fn io_in(&mut self, port: u16, size: OpSize) -> Result<u32, Fault> {
        let r = if self.fails(port as u64 | 2 << 40) {
            Err(Fault::Gp)
        } else {
            Ok((port as u32).wrapping_mul(0x0101_0101) ^ self.faults as u32)
        };
        self.calls.push(Call::In(port, size, r));
        r
    }

    fn io_out(&mut self, port: u16, size: OpSize, val: u32) -> Result<(), Fault> {
        let r = if self.fails(port as u64 | 3 << 40) {
            Err(Fault::Gp)
        } else {
            Ok(())
        };
        self.calls.push(Call::Out(port, size, val, r));
        r
    }

    fn cpuid(&mut self, leaf: u32) -> [u32; 4] {
        self.calls.push(Call::Cpuid(leaf));
        [leaf ^ 1, leaf ^ 2, leaf ^ 3, leaf ^ 4]
    }

    fn rdtsc(&mut self) -> u64 {
        self.calls.push(Call::Rdtsc);
        self.faults ^ 0x1234_5678_9abc_def0
    }

    fn read_cr(&mut self, regs: &Regs, n: u8) -> Result<u32, Fault> {
        let r = if self.fails(n as u64 | 4 << 40) {
            Err(Fault::Gp)
        } else {
            Ok(regs.get_cr(n))
        };
        self.calls.push(Call::ReadCr(n, r));
        r
    }

    fn write_cr(&mut self, regs: &mut Regs, n: u8, val: u32) -> Result<(), Fault> {
        let r = if self.fails(n as u64 | 5 << 40) {
            Err(Fault::Gp)
        } else {
            regs.set_cr(n, val);
            Ok(())
        };
        self.calls.push(Call::WriteCr(n, val, r));
        r
    }

    fn invlpg(&mut self, addr: u32) -> Result<(), Fault> {
        let r = if self.fails(addr as u64 >> 12 | 6 << 40) {
            Err(Fault::Gp)
        } else {
            Ok(())
        };
        self.calls.push(Call::Invlpg(addr, r));
        r
    }

    fn vmcall(&mut self, regs: &mut Regs) -> Result<(), Fault> {
        let r = if self.fails(7 << 40) {
            Err(Fault::InvalidOpcode)
        } else {
            regs.set(Reg::Eax, !regs.get(Reg::Eax));
            Ok(())
        };
        self.calls.push(Call::Vmcall(r));
        r
    }
}

/// What handler selection can tell instructions apart by.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Bucket {
    op: u16,
    dst: u8,
    src: u8,
    byte: bool,
    rep: bool,
}

/// A number for every operation and selector (`Op` is not `Ord`); the
/// INT vector is an immediate, not a selector. Exhaustive on purpose.
fn op_number(op: Op) -> u16 {
    match op {
        Op::Alu(alu) => 0x100 | alu as u16,
        Op::Shift(ShiftOp::Shl) => 0x200,
        Op::Shift(ShiftOp::Shr) => 0x201,
        Op::Shift(ShiftOp::Sar) => 0x202,
        Op::Jcc(c) => 0x300 | c as u16,
        Op::Int(_) => 0x400,
        Op::Mov => 1,
        Op::Movzx => 2,
        Op::Movsx => 3,
        Op::Xchg => 4,
        Op::Test => 5,
        Op::Inc => 6,
        Op::Dec => 7,
        Op::Neg => 8,
        Op::Not => 9,
        Op::Mul => 10,
        Op::Imul2 => 11,
        Op::Div => 12,
        Op::Lea => 13,
        Op::Push => 14,
        Op::Pop => 15,
        Op::Pushf => 16,
        Op::Popf => 17,
        Op::Jmp => 18,
        Op::Call => 19,
        Op::Ret => 20,
        Op::Iret => 21,
        Op::Hlt => 22,
        Op::Cli => 23,
        Op::Sti => 24,
        Op::Cld => 25,
        Op::Std => 26,
        Op::In => 27,
        Op::Out => 28,
        Op::Cpuid => 29,
        Op::Rdtsc => 30,
        Op::MovFromCr => 31,
        Op::MovToCr => 32,
        Op::Invlpg => 33,
        Op::Lidt => 34,
        Op::Movs => 35,
        Op::Stos => 36,
        Op::Lods => 37,
        Op::Vmcall => 38,
        Op::Nop => 39,
    }
}

fn kind(op: &Operand) -> u8 {
    match op {
        Operand::None => 0,
        Operand::Reg(_) => 1,
        Operand::Reg8(_) => 2,
        Operand::Imm(_) => 3,
        Operand::Mem(_) => 4,
        Operand::Cr(_) => 5,
    }
}

fn bucket(insn: &Insn) -> Bucket {
    Bucket {
        op: op_number(insn.op),
        dst: kind(&insn.dst),
        src: kind(&insn.src),
        byte: insn.size == OpSize::Byte,
        rep: insn.rep,
    }
}

type Vocabulary = BTreeMap<Bucket, Vec<Insn>>;

fn remember(v: &mut Vocabulary, insn: Insn) {
    let examples = v.entry(bucket(&insn)).or_default();
    if examples.len() < EXAMPLES && !examples.contains(&insn) {
        examples.push(insn);
    }
}

/// Everything `decode` produces, found by decoding random bytes behind
/// every first opcode byte (and every second byte behind `0F`), with
/// and without a REP prefix.
fn discover(rng: &mut Rng) -> Vocabulary {
    let mut v = Vocabulary::new();
    for draw in 0..DISCOVERY_DRAWS {
        let mut bytes = [0u8; MAX_INSN_LEN];
        for b in &mut bytes {
            *b = rng.next() as u8;
        }
        let mut at = 0;
        if draw % 8 == 0 {
            bytes[0] = 0xf3;
            at = 1;
        }
        // Walk the opcode space evenly instead of hoping for it.
        bytes[at] = (draw / 8) as u8;
        if draw % 3 == 0 {
            bytes[at] = 0x0f;
            bytes[at + 1] = (draw / 24) as u8;
            // VMCALL is the one fixed three-byte string (0F 01 C1).
            if bytes[at + 1] == 0x01 && draw % 2 == 0 {
                bytes[at + 2] = 0xc1;
            }
        }
        if let Ok(insn) = decode(&bytes) {
            remember(&mut v, insn);
        }
    }
    v
}

/// One instruction from every `Asm` emitter.
fn asm_vocabulary() -> Vec<Insn> {
    let mut a = Asm::new(0x1000);
    let m = MemRef {
        base: Some(Reg::Ebx),
        index: Some((Reg::Esi, 4)),
        disp: 0x40,
    };
    let l = a.here_label();
    a.mov_ri(Reg::Eax, 1);
    a.mov_r_label(Reg::Ecx, l);
    a.mov_rr(Reg::Eax, Reg::Ebx);
    a.mov_rm(Reg::Eax, m);
    a.mov_mr(m, Reg::Eax);
    a.mov_mi(m, 7);
    a.mov_r8i(Reg8::Ah, 7);
    a.mov_r8m(Reg8::Cl, m);
    a.mov_m8r(m, Reg8::Dl);
    a.mov_m8i(m, 9);
    a.movzx_rm8(Reg::Eax, m);
    a.lea(Reg::Edi, m);
    for op in [
        AluOp::Add,
        AluOp::Or,
        AluOp::Adc,
        AluOp::Sbb,
        AluOp::And,
        AluOp::Sub,
        AluOp::Xor,
        AluOp::Cmp,
    ] {
        a.alu_rr(op, Reg::Eax, Reg::Ebx);
        a.alu_ri(op, Reg::Ebx, 0x1234);
        a.alu_ri(op, Reg::Ebx, 3);
        a.alu_rm(op, Reg::Eax, m);
        a.alu_mr(op, m, Reg::Eax);
        a.alu_mi(op, m, 5);
        a.alu_al_imm(op, 5);
    }
    a.add_ri(Reg::Eax, 1);
    a.sub_ri(Reg::Eax, 1);
    a.cmp_ri(Reg::Eax, 1);
    a.cmp_rr(Reg::Eax, Reg::Ebx);
    a.xor_rr(Reg::Eax, Reg::Eax);
    a.test_rr(Reg::Eax, Reg::Ebx);
    a.inc_r(Reg::Eax);
    a.dec_r(Reg::Ecx);
    a.inc_m(m);
    a.shl_ri(Reg::Eax, 3);
    a.shr_ri(Reg::Eax, 3);
    a.imul_rr(Reg::Eax, Reg::Ebx);
    a.mul_r(Reg::Ebx);
    a.div_r(Reg::Ebx);
    a.push_r(Reg::Eax);
    a.pop_r(Reg::Eax);
    a.push_i(0x1234);
    a.pushf();
    a.popf();
    a.jmp(l);
    a.jmp_r(Reg::Eax);
    for c in 0..16 {
        a.jcc(Cond::from_num(c), l);
    }
    a.call(l);
    a.call_r(Reg::Eax);
    a.ret();
    a.int_n(0x30);
    a.iret();
    a.hlt();
    a.cli();
    a.sti();
    a.cld();
    a.nop();
    a.in_al_imm(0x60);
    a.in_eax_dx();
    a.in_al_dx();
    a.out_imm_al(0x60);
    a.out_dx_al();
    a.out_dx_eax();
    a.cpuid();
    a.rdtsc();
    a.mov_cr_r(3, Reg::Eax);
    a.mov_r_cr(Reg::Eax, 3);
    a.invlpg(m);
    a.lidt(m);
    a.vmcall();
    a.rep_movsd();
    a.rep_stosd();
    a.lodsd();
    a.stosd();
    let bytes = a.finish();
    let mut insns = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let insn = decode(&bytes[at..]).expect("Asm emits only what decode accepts");
        at += insn.len as usize;
        insns.push(insn);
    }
    insns
}

/// A seeded register file: any GPR values, any mix of the defined
/// EFLAGS bits (plus two undefined ones, which must be carried
/// through), and an IDT limit that lets some vectors through.
fn random_regs(rng: &mut Rng) -> Regs {
    let mut regs = Regs::at(rng.next() as u32);
    for r in Reg::ALL {
        regs.set(r, rng.next() as u32);
    }
    // REP counts run out, or nearly.
    if rng.below(3) == 0 {
        regs.set(Reg::Ecx, rng.below(3) as u32);
    }
    let defined = flags::CF | flags::ZF | flags::SF | flags::OF | flags::IF | flags::DF;
    regs.eflags = flags::R1 | (rng.next() as u32 & (defined | 1 << 2 | 1 << 4));
    regs.cr0 = rng.next() as u32;
    regs.cr2 = rng.next() as u32;
    regs.cr3 = rng.next() as u32;
    regs.cr4 = rng.next() as u32;
    regs.idt_base = rng.next() as u32 & 0xffff;
    regs.idt_limit = rng.pick(&[0u16, 0x7ff, 0x1ff, 0xffff]);
    regs
}

/// Runs `insn` through the reference and the staged executor from the
/// same state and compares everything observable.
fn check(insn: &Insn, regs: &Regs, image: &[u8], faults: u64) {
    let mut want_regs = regs.clone();
    let mut want_env = Recorder::new(image, faults);
    let want = reference::execute(insn, &mut want_regs, &mut want_env);

    let mut got_regs = regs.clone();
    let mut got_env = Recorder::new(image, faults);
    let got = handler::<Recorder>(insn)(insn, &mut got_regs, &mut got_env);

    let context = || format!("{insn:x?}\nfrom {regs:x?}\nfaults {faults:#x}");
    assert_eq!(got, want, "result of {}", context());
    assert_eq!(got_regs, want_regs, "registers after {}", context());
    assert_eq!(got_env.calls, want_env.calls, "env calls of {}", context());
    assert_eq!(got_env.stored, want_env.stored, "stores of {}", context());
    if got.is_err() {
        assert_eq!(got_regs.eip, regs.eip, "EIP moved by a failed {insn:x?}");
    }
}

fn random_image(rng: &mut Rng) -> Vec<u8> {
    (0..0x1_0000).map(|_| rng.next() as u8).collect()
}

#[test]
fn staged_handlers_match_the_reference_on_everything_decode_produces() {
    let mut rng = Rng::new(16);
    let mut vocabulary = discover(&mut rng);
    for insn in asm_vocabulary() {
        assert!(
            vocabulary.contains_key(&bucket(&insn)),
            "discovery missed {insn:?}: raise DISCOVERY_DRAWS"
        );
        remember(&mut vocabulary, insn);
    }
    // 8 ALU ops × 10 forms alone make 80.
    assert!(vocabulary.len() > 250, "only {} buckets", vocabulary.len());

    let image = random_image(&mut rng);
    for examples in vocabulary.values() {
        for _ in 0..TRIPLES {
            let insn = rng.pick(examples);
            check(&insn, &random_regs(&mut rng), &image, rng.next());
        }
    }
}

#[test]
fn handler_selection_is_total_over_decode_and_asm() {
    let mut rng = Rng::new(17);
    let unassigned: Handler<Recorder> = unassigned::<Recorder>;
    let mut seen = std::collections::BTreeSet::new();
    for insn in discover(&mut rng)
        .into_values()
        .flatten()
        .chain(asm_vocabulary())
    {
        let run = handler::<Recorder>(&insn);
        assert!(
            !std::ptr::fn_addr_eq(run, unassigned),
            "{insn:?} resolves to an empty table entry"
        );
        assert_eq!(
            handler_id(&insn).handler::<Recorder>() as usize,
            run as usize
        );
        seen.insert(handler_id(&insn).0);
    }
    // Everything decode produces has an instance of its own; the
    // catch-all instances are for hand-built instructions only.
    assert!(seen.len() > 150, "only {} distinct handlers", seen.len());
}

/// Operand combinations `decode` never emits still execute — through
/// the catch-all instances — exactly as the reference does, including
/// the #UD it raises for operands that make no sense.
#[test]
fn staged_handlers_match_the_reference_on_hand_built_instructions() {
    let mut rng = Rng::new(18);
    let image = random_image(&mut rng);
    let ops = |rng: &mut Rng| {
        let plain = [
            Op::Mov,
            Op::Movzx,
            Op::Movsx,
            Op::Xchg,
            Op::Test,
            Op::Inc,
            Op::Dec,
            Op::Neg,
            Op::Not,
            Op::Mul,
            Op::Imul2,
            Op::Div,
            Op::Lea,
            Op::Push,
            Op::Pop,
            Op::Pushf,
            Op::Popf,
            Op::Jmp,
            Op::Call,
            Op::Ret,
            Op::Iret,
            Op::Hlt,
            Op::Cli,
            Op::Sti,
            Op::Cld,
            Op::Std,
            Op::In,
            Op::Out,
            Op::Cpuid,
            Op::Rdtsc,
            Op::MovFromCr,
            Op::MovToCr,
            Op::Invlpg,
            Op::Lidt,
            Op::Movs,
            Op::Stos,
            Op::Lods,
            Op::Vmcall,
            Op::Nop,
        ];
        match rng.below(6) {
            0 => Op::Alu(AluOp::from_num(rng.next() as u8)),
            1 => Op::Shift(rng.pick(&[ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Sar])),
            2 => Op::Jcc(Cond::from_num(rng.next() as u8)),
            3 => Op::Int(rng.next() as u8),
            _ => rng.pick(&plain),
        }
    };
    let operand = |rng: &mut Rng| match rng.below(6) {
        0 => Operand::None,
        1 => Operand::Reg(Reg::from_num(rng.next() as u8)),
        2 => Operand::Reg8(Reg8::from_num(rng.next() as u8)),
        3 => Operand::Imm(rng.next() as u32),
        4 => Operand::Mem(MemRef {
            base: (rng.below(2) == 0).then(|| Reg::from_num(rng.next() as u8)),
            index: (rng.below(2) == 0)
                .then(|| (Reg::from_num(rng.next() as u8), 1 << rng.below(4))),
            disp: rng.next() as i32,
        }),
        _ => Operand::Cr(rng.below(5) as u8),
    };
    for _ in 0..200_000 {
        let insn = Insn {
            op: ops(&mut rng),
            dst: operand(&mut rng),
            src: operand(&mut rng),
            size: rng.pick(&[OpSize::Byte, OpSize::Dword]),
            rep: rng.below(4) == 0,
            len: 1 + rng.below(15) as u8,
        };
        check(&insn, &random_regs(&mut rng), &image, rng.next());
    }
}

/// The one-shot entry and the handler are the same code.
#[test]
fn execute_is_a_call_through_handler() {
    let mut rng = Rng::new(19);
    let image = random_image(&mut rng);
    for insn in asm_vocabulary() {
        let regs = random_regs(&mut rng);
        let faults = rng.next();
        let mut a = (regs.clone(), Recorder::new(&image, faults));
        let mut b = (regs, Recorder::new(&image, faults));
        assert_eq!(
            super::execute(&insn, &mut a.0, &mut a.1),
            handler::<Recorder>(&insn)(&insn, &mut b.0, &mut b.1)
        );
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.calls, b.1.calls);
    }
}
