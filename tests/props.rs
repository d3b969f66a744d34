//! Randomized tests over the core data structures and invariants:
//! assembler/decoder agreement, ALU semantics, TLB coherence, the
//! mapping database's revocation invariants, capability-space
//! behaviour, and IOMMU confinement.
//!
//! A small local xorshift PRNG replaces an external property-testing
//! crate so the suite builds with no registry access; every test is
//! seeded and therefore fully deterministic.

use std::collections::{BTreeMap, BTreeSet};

use nova_core::mdb::MapDb;
use nova_hw::iommu::Iommu;
use nova_hw::tlb::{Tlb, TlbEntry};
use nova_x86::decode::decode;
use nova_x86::insn::{AluOp, MemRef, Op, Operand};
use nova_x86::reg::{Reg, Regs};
use nova_x86::Asm;

/// Deterministic split-mix/xorshift generator for test inputs.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        // xorshift64* — plenty for test-case generation.
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
    fn u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn reg(&mut self) -> Reg {
        Reg::ALL[self.below(Reg::ALL.len() as u64) as usize]
    }
    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

const CASES: usize = 256;

/// Whatever the assembler emits, the decoder parses back to the same
/// operation, operands and length.
#[test]
fn assembler_decoder_roundtrip_mov_ri() {
    let mut rng = Rng::new(0x1001);
    for _ in 0..CASES {
        let r = rng.reg();
        let imm = rng.u32();
        let mut a = Asm::new(0);
        a.mov_ri(r, imm);
        let code = a.finish();
        let i = decode(&code).unwrap();
        assert_eq!(i.op, Op::Mov);
        assert_eq!(i.dst, Operand::Reg(r));
        assert_eq!(i.src, Operand::Imm(imm));
        assert_eq!(i.len as usize, code.len());
    }
}

#[test]
fn assembler_decoder_roundtrip_alu() {
    let ops = [
        AluOp::Add,
        AluOp::Or,
        AluOp::Adc,
        AluOp::Sbb,
        AluOp::And,
        AluOp::Sub,
        AluOp::Xor,
        AluOp::Cmp,
    ];
    let mut rng = Rng::new(0x1002);
    for _ in 0..CASES {
        let op = rng.pick(&ops);
        let dst = rng.reg();
        let src = rng.reg();
        let imm = rng.u32();
        let mut a = Asm::new(0);
        a.alu_rr(op, dst, src);
        a.alu_ri(op, dst, imm);
        let code = a.finish();
        let i1 = decode(&code).unwrap();
        assert_eq!(i1.op, Op::Alu(op));
        assert_eq!(i1.dst, Operand::Reg(dst));
        assert_eq!(i1.src, Operand::Reg(src));
        let i2 = decode(&code[i1.len as usize..]).unwrap();
        assert_eq!(i2.op, Op::Alu(op));
        assert_eq!(i2.src, Operand::Imm(imm));
    }
}

#[test]
fn assembler_decoder_roundtrip_mem() {
    let mut rng = Rng::new(0x1003);
    for _ in 0..CASES {
        let base = rng.reg();
        let disp = (rng.below(0x20000) as i32) - 0x10000;
        let r = rng.reg();
        let m = MemRef::base_disp(base, disp);
        let mut a = Asm::new(0);
        a.mov_rm(r, m);
        a.mov_mr(m, r);
        let code = a.finish();
        let i1 = decode(&code).unwrap();
        assert_eq!(i1.src, Operand::Mem(m));
        let i2 = decode(&code[i1.len as usize..]).unwrap();
        assert_eq!(i2.dst, Operand::Mem(m));
    }
}

/// The decoder never panics on arbitrary bytes and always reports a
/// length within the architectural limit.
#[test]
fn decoder_total_on_junk() {
    let mut rng = Rng::new(0x1004);
    for _ in 0..2048 {
        let len = 1 + rng.below(19) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        if let Ok(i) = decode(&bytes) {
            assert!(i.len as usize <= nova_x86::decode::MAX_INSN_LEN);
            assert!(i.len as usize <= bytes.len());
        }
    }
}

mod exec_env {
    use nova_x86::exec::{Env, Fault};
    use nova_x86::insn::OpSize;

    /// A memory-less environment for pure register tests.
    pub struct NoMem;
    impl Env for NoMem {
        type Err = Fault;
        fn read_mem(&mut self, _: u32, _: OpSize) -> Result<u32, Fault> {
            Ok(0)
        }
        fn write_mem(&mut self, _: u32, _: OpSize, _: u32) -> Result<(), Fault> {
            Ok(())
        }
        fn io_in(&mut self, _: u16, _: OpSize) -> Result<u32, Fault> {
            Ok(0)
        }
        fn io_out(&mut self, _: u16, _: OpSize, _: u32) -> Result<(), Fault> {
            Ok(())
        }
        fn cpuid(&mut self, _: u32) -> [u32; 4] {
            [0; 4]
        }
        fn rdtsc(&mut self) -> u64 {
            0
        }
    }

    /// A flat byte-addressed RAM for tests that push/pop or take
    /// interrupts.
    #[derive(Default)]
    pub struct Ram(pub std::collections::HashMap<u32, u8>);
    impl Env for Ram {
        type Err = Fault;
        fn read_mem(&mut self, a: u32, s: OpSize) -> Result<u32, Fault> {
            let mut v = 0;
            for i in 0..s.bytes() {
                v |= (*self.0.get(&(a + i)).unwrap_or(&0) as u32) << (8 * i);
            }
            Ok(v)
        }
        fn write_mem(&mut self, a: u32, s: OpSize, val: u32) -> Result<(), Fault> {
            for i in 0..s.bytes() {
                self.0.insert(a + i, (val >> (8 * i)) as u8);
            }
            Ok(())
        }
        fn io_in(&mut self, _: u16, _: OpSize) -> Result<u32, Fault> {
            Ok(0)
        }
        fn io_out(&mut self, _: u16, _: OpSize, _: u32) -> Result<(), Fault> {
            Ok(())
        }
        fn cpuid(&mut self, _: u32) -> [u32; 4] {
            [0; 4]
        }
        fn rdtsc(&mut self) -> u64 {
            0
        }
    }
}

/// ADD/SUB through the executor agree with wrapping arithmetic, and
/// CMP preserves the destination.
#[test]
fn alu_semantics() {
    use nova_x86::exec::execute;
    let mut rng = Rng::new(0x1005);
    let mut env = exec_env::NoMem;
    for _ in 0..CASES {
        let a0 = rng.u32();
        let b0 = rng.u32();

        let mut regs = Regs::default();
        regs.set(Reg::Eax, a0);
        regs.set(Reg::Ebx, b0);
        // add eax, ebx -> 01 D8
        let i = decode(&[0x01, 0xd8]).unwrap();
        execute(&i, &mut regs, &mut env).unwrap();
        assert_eq!(regs.get(Reg::Eax), a0.wrapping_add(b0));

        let mut regs = Regs::default();
        regs.set(Reg::Eax, a0);
        regs.set(Reg::Ebx, b0);
        // cmp eax, ebx -> 39 D8
        let i = decode(&[0x39, 0xd8]).unwrap();
        execute(&i, &mut regs, &mut env).unwrap();
        assert_eq!(regs.get(Reg::Eax), a0, "CMP writes no result");
        // ZF iff equal.
        assert_eq!(regs.eflags & nova_x86::reg::flags::ZF != 0, a0 == b0);
    }
}

/// TLB coherence: after inserting an entry it is found (same tag),
/// never found under another tag, and gone after invalidation.
#[test]
fn tlb_coherence() {
    let mut rng = Rng::new(0x1006);
    for _ in 0..CASES {
        let vpn = rng.below(0x10_0000);
        let vpid = 1 + rng.below(15) as u16;
        let other = 16 + rng.below(16) as u16;
        let mut t = Tlb::new();
        let e = TlbEntry {
            vpid,
            vpn,
            hpa: vpn << 12,
            page_size: 4096,
            write: true,
        };
        t.insert(e);
        assert_eq!(t.lookup(vpid, vpn << 12), Some(e));
        assert_eq!(t.lookup(other, vpn << 12), None);
        t.invalidate(vpid, vpn << 12);
        assert_eq!(t.lookup(vpid, vpn << 12), None);
    }
}

/// Flushing a tag removes exactly that tag's entries.
#[test]
fn tlb_flush_vpid_precise() {
    let mut rng = Rng::new(0x1007);
    for _ in 0..64 {
        let mut vpns = std::collections::BTreeSet::new();
        for _ in 0..(1 + rng.below(63)) {
            vpns.insert(rng.below(4096));
        }
        let mut t = Tlb::new();
        for &vpn in &vpns {
            t.insert(TlbEntry {
                vpid: 1,
                vpn,
                hpa: 0,
                page_size: 4096,
                write: false,
            });
            t.insert(TlbEntry {
                vpid: 2,
                vpn: vpn + 8192,
                hpa: 0,
                page_size: 4096,
                write: false,
            });
        }
        t.flush_vpid(1);
        for &vpn in &vpns {
            assert!(t.lookup(1, vpn << 12).is_none());
        }
    }
}

/// Mapping-database invariant: revoking a node removes its whole
/// subtree and nothing else; the database never leaks nodes.
#[test]
fn mdb_revoke_subtree_exact() {
    let mut rng = Rng::new(0x1008);
    for _ in 0..CASES {
        // A random tree over 16 nodes: parent[i] < i.
        let parents: Vec<usize> = (0..15).map(|_| rng.below(16) as usize).collect();
        let mut db: MapDb<u64> = MapDb::new();
        db.insert_root(0, 0);
        for (i, p) in parents.iter().enumerate() {
            let child = i + 1;
            let parent = *p % child;
            db.delegate((parent as u32, 0), (child as u32, 0));
        }
        let total = db.len();
        assert_eq!(total, 16);

        // Compute the expected subtree of node `cut` by hand.
        let cut = (parents.first().copied().unwrap_or(0) % 15) + 1;
        let mut in_subtree = [false; 16];
        in_subtree[cut] = true;
        loop {
            let mut changed = false;
            for (i, p) in parents.iter().enumerate() {
                let child = i + 1;
                let parent = *p % child;
                if in_subtree[parent] && !in_subtree[child] {
                    in_subtree[child] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let expected: usize = in_subtree.iter().filter(|x| **x).count();

        let mut removed = Vec::new();
        db.revoke((cut as u32, 0), true, &mut |k| removed.push(k));
        assert_eq!(removed.len(), expected);
        for (owner, _) in removed {
            assert!(!db.contains(owner, 0));
        }
        assert_eq!(db.len(), total - expected);
        assert!(db.contains(0, 0), "the root is never collateral");
    }
}

/// A `(owner, key)` of the per-key reference below.
type PageKey = (u32, u64);

/// The mapping database as it was before its nodes became ranges: one
/// node per `(owner, key)` — the reference `MapDb`'s range nodes must
/// answer like, key for key.
#[derive(Default)]
struct PageModel {
    /// Parent and children (in delegation order) of each tracked key.
    nodes: BTreeMap<PageKey, (Option<PageKey>, Vec<PageKey>)>,
}

impl PageModel {
    fn delegate(&mut self, from: PageKey, to: PageKey) -> bool {
        if from == to || self.nodes.contains_key(&to) {
            return false;
        }
        self.nodes.insert(to, (Some(from), Vec::new()));
        self.nodes.entry(from).or_default().1.push(to);
        true
    }

    /// Key by key, except that two overlapping ranges of one owner
    /// record nothing.
    fn delegate_range(&mut self, from: PageKey, to: PageKey, len: u64) -> u64 {
        if from.0 == to.0 && from.1 < to.1 + len && to.1 < from.1 + len {
            return 0;
        }
        let recorded = (0..len).filter(|i| self.delegate((from.0, from.1 + i), (to.0, to.1 + i)));
        recorded.count() as u64
    }

    fn revoke(&mut self, at: PageKey, include_self: bool, out: &mut Vec<PageKey>) {
        let Some((_, children)) = self.nodes.get(&at) else {
            return;
        };
        for c in children.clone() {
            self.revoke(c, true, out);
        }
        if include_self {
            let (parent, _) = self.nodes.remove(&at).unwrap();
            if let Some(p) = parent.and_then(|p| self.nodes.get_mut(&p)) {
                p.1.retain(|c| *c != at);
            }
            out.push(at);
        } else {
            self.nodes.get_mut(&at).unwrap().1.clear();
        }
    }

    /// Each key in turn; with `include_self` the owner's own key goes
    /// whether or not it was tracked.
    fn revoke_range(&mut self, at: PageKey, len: u64, include_self: bool, out: &mut Vec<PageKey>) {
        for key in at.1..at.1 + len {
            let start = out.len();
            self.revoke((at.0, key), include_self, out);
            if include_self && out[start..].last() != Some(&(at.0, key)) {
                out.push((at.0, key));
            }
        }
    }

    fn depth(&self, mut at: PageKey) -> Option<usize> {
        for d in 0.. {
            match self.nodes.get(&at)?.0 {
                Some(p) => at = p,
                None => return Some(d),
            }
        }
        None
    }

    fn parents(&self) -> BTreeMap<PageKey, Option<PageKey>> {
        self.nodes.iter().map(|(k, (p, _))| (*k, *p)).collect()
    }
}

/// `db` and `model` track the same keys, each with the same parent and
/// depth, and `db` is a well-linked forest of ranges.
fn ranges_agree_with_pages(db: &MapDb<u64>, model: &PageModel, what: &str) {
    assert_eq!(db.check_links(), Ok(()), "{what}");
    let tracked: BTreeSet<PageKey> = db
        .iter()
        .flat_map(|((owner, base), len, _)| (base..base + len).map(move |k| (owner, k)))
        .collect();
    let want: BTreeSet<PageKey> = model.nodes.keys().copied().collect();
    assert_eq!(tracked, want, "{what}: tracked keys");
    for (&key, (parent, _)) in &model.nodes {
        assert_eq!(db.parent(key), *parent, "{what}: parent of {key:?}");
        assert_eq!(db.depth(key), model.depth(key), "{what}: depth of {key:?}");
    }
}

/// A revocation removed the same keys from both, and the database's
/// order puts every key before the key it was derived from.
fn same_removal(
    got: &[((u32, u64), u64)],
    want: &[PageKey],
    parents: &BTreeMap<PageKey, Option<PageKey>>,
    what: &str,
) {
    let mut first: BTreeMap<PageKey, usize> = BTreeMap::new();
    let keys = got
        .iter()
        .flat_map(|&((owner, base), len)| (base..base + len).map(move |k| (owner, k)));
    for (i, key) in keys.enumerate() {
        first.entry(key).or_insert(i);
    }
    let removed: BTreeSet<PageKey> = first.keys().copied().collect();
    let expected: BTreeSet<PageKey> = want.iter().copied().collect();
    assert_eq!(removed, expected, "{what}: removed keys");
    for (key, at) in &first {
        if let Some(parent_at) = parents
            .get(key)
            .copied()
            .flatten()
            .and_then(|p| first.get(&p))
        {
            assert!(at < parent_at, "{what}: {key:?} removed after its parent");
        }
    }
}

/// The range mapping database against the per-key reference, over
/// seeded scripts on 4–6 owners: range and single-key delegations
/// (half of them of a stretch inside a node the source owner has, the
/// rest anywhere, so sources span several nodes and untracked gaps and
/// destinations run into tracked keys), partial revocations with and
/// without `include_self`, single-key revocations, and whole owners
/// torn down run by run. After every operation both track the same
/// keys with the same parents, every revocation removed the same keys
/// with each one ahead of its parent, and `check_links` holds. 256
/// scripts; 4,096 with `NOVA_SLOW_TESTS` set.
#[test]
fn mdb_ranges_agree_with_a_per_page_model() {
    const KEYS: u64 = 96;
    let scripts = if std::env::var_os("NOVA_SLOW_TESTS").is_some() {
        16 * CASES
    } else {
        CASES
    };
    let (mut spanning, mut cutting) = (0, 0);
    for seed in 0..scripts {
        let mut rng = Rng::new(0x1010 + seed as u64);
        let owners = 4 + rng.below(3) as u32;
        let mut db: MapDb<u64> = MapDb::new();
        let mut model = PageModel::default();
        for step in 0..120 {
            let what = format!("seed {seed} step {step}");
            let owner = rng.below(owners as u64) as u32;
            // `owner`'s nodes; a key inside one of them, or anywhere.
            let held: Vec<(u64, u64)> = db
                .iter()
                .filter(|((o, _), _, _)| *o == owner)
                .map(|((_, base), len, _)| (base, len))
                .collect();
            let key = |rng: &mut Rng| match rng.below(2) {
                0 if !held.is_empty() => {
                    let (base, len) = rng.pick(&held);
                    base + rng.below(len)
                }
                _ => rng.below(KEYS),
            };
            // `a..b` overlaps one of `owner`'s nodes without lying in it.
            let straddles = |a: u64, b: u64| {
                held.iter()
                    .any(|&(base, len)| a < base + len && base < b && (a < base || base + len < b))
            };
            match rng.below(10) {
                0..=4 => {
                    let from = (owner, key(&mut rng));
                    let to = (rng.below(owners as u64) as u32, rng.below(KEYS));
                    let len = 1 + rng.below(16);
                    if len == 1 {
                        let want = model.delegate(from, to);
                        assert_eq!(db.delegate(from, to), want, "{what}: delegate");
                    } else {
                        let want = model.delegate_range(from, to, len);
                        assert_eq!(db.delegate_range(from, to, len), want, "{what}");
                    }
                    spanning += usize::from(straddles(from.1, from.1 + len));
                }
                5..=7 => {
                    let at = (owner, key(&mut rng));
                    let len = 1 + rng.below(24);
                    let include_self = rng.below(2) == 0;
                    let parents = model.parents();
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    db.revoke_range(at, len, include_self, &mut got);
                    model.revoke_range(at, len, include_self, &mut want);
                    same_removal(&got, &want, &parents, &what);
                    let inside = |(base, n): &(u64, u64)| *base < at.1 && at.1 + len < base + n;
                    cutting += usize::from(straddles(at.1, at.1 + len) || held.iter().any(inside));
                }
                8 => {
                    let at = (owner, key(&mut rng));
                    let include_self = rng.below(2) == 0;
                    let parents = model.parents();
                    let mut got = Vec::new();
                    db.revoke(at, include_self, &mut |k| got.push((k, 1)));
                    let mut want = Vec::new();
                    model.revoke(at, include_self, &mut want);
                    same_removal(&got, &want, &parents, &what);
                }
                _ => {
                    // Teardown: every run of keys the owner has, with
                    // everything derived from them.
                    let parents = model.parents();
                    let keys = model.nodes.keys().filter(|(o, _)| *o == owner);
                    let mut runs: Vec<(u64, u64)> = Vec::new();
                    for &(_, k) in keys {
                        match runs.last_mut() {
                            Some((base, len)) if *base + *len == k => *len += 1,
                            _ => runs.push((k, 1)),
                        }
                    }
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    for (base, len) in runs {
                        db.revoke_range((owner, base), len, true, &mut got);
                        model.revoke_range((owner, base), len, true, &mut want);
                    }
                    same_removal(&got, &want, &parents, &what);
                    assert!(db.iter().all(|((o, _), _, _)| o != owner), "{what}");
                }
            }
            ranges_agree_with_pages(&db, &model, &what);
        }
    }
    // Each script delegates across a node's bounds and revokes a part
    // of a node several times over.
    assert!(
        spanning > 4 * scripts,
        "{spanning} delegations across bounds"
    );
    assert!(
        cutting > 4 * scripts,
        "{cutting} revocations cutting a node"
    );
}

/// IOMMU: a device only ever reaches pages explicitly mapped for it,
/// at the translated location.
#[test]
fn iommu_confinement() {
    let mut rng = Rng::new(0x1009);
    for _ in 0..CASES {
        let mut pages = std::collections::BTreeMap::new();
        for _ in 0..(1 + rng.below(31)) {
            pages.insert(rng.below(256), rng.below(256));
        }
        let probe = rng.below(256);
        let mut io = Iommu::enabled();
        for (&bus, &host) in &pages {
            io.map_page(1, bus << 12, host << 12, true);
        }
        let got = io.translate(1, probe << 12, true);
        match pages.get(&probe) {
            Some(&host) => assert_eq!(got, Some(host << 12)),
            None => assert_eq!(got, None),
        }
        // Another device sees nothing.
        assert_eq!(io.translate(2, probe << 12, false), None);
    }
}

/// Shadow page tables built by the vTLB code agree with the MMU's
/// hardware walker for arbitrary fill patterns.
#[test]
fn shadow_fills_match_walker() {
    let mut rng = Rng::new(0x100a);
    for _ in 0..32 {
        let mut fills = std::collections::BTreeMap::new();
        for _ in 0..(1 + rng.below(63)) {
            fills.insert(rng.below(1024) as u32, rng.below(1024));
        }
        use nova_core::hostpt::{FrameAllocator, ShadowPt};
        let mut mem = nova_hw::mem::PhysMem::new(32 << 20);
        let mut alloc = FrameAllocator::new(24 << 20, 8 << 20);
        let mut s = ShadowPt::new(&mut alloc, &mut mem);
        for (&va_page, &pa_page) in &fills {
            s.fill(
                &mut mem,
                &mut alloc,
                va_page << 12,
                pa_page << 12,
                true,
                true,
            );
        }
        let cost = nova_hw::cost::BLM;
        let mut cyc = 0;
        for (&va_page, &pa_page) in &fills {
            let leaf = nova_hw::mmu::walk_2level(
                &mem,
                s.root as u32,
                va_page << 12,
                nova_x86::paging::Access::WRITE,
                false,
                &cost,
                &mut cyc,
            )
            .unwrap();
            assert_eq!(leaf.hpa, pa_page << 12);
        }
        s.flush(&mut mem);
        for &va_page in fills.keys() {
            assert!(
                nova_hw::mmu::walk_2level(
                    &mem,
                    s.root as u32,
                    va_page << 12,
                    nova_x86::paging::Access::READ,
                    false,
                    &cost,
                    &mut cyc,
                )
                .is_err(),
                "flush drops every translation"
            );
        }
    }
}

/// The vTLB guest walk agrees with the architectural access-check
/// predicate (P, W∧WP, US intersected across levels) for arbitrary
/// PDE/PTE flag combinations, and maintains A/D exactly when the
/// access is allowed.
#[test]
fn vtlb_walk_matches_architectural_predicate() {
    use nova_core::hostpt::FrameAllocator;
    use nova_core::obj::{MemMapping, MemRights, MemSpace};
    use nova_core::vtlb::{self, ShadowCache, VtlbOutcome};
    use nova_x86::paging::pte;
    use nova_x86::reg::{cr0, pf_err};

    let mut rng = Rng::new(0x100c);
    for _ in 0..CASES {
        let mut mem = nova_hw::mem::PhysMem::new(32 << 20);
        let mut alloc = FrameAllocator::new(24 << 20, 8 << 20);
        let mut cache = ShadowCache::new(&mut mem, &mut alloc, 4, 1);
        let mut ms = MemSpace::default();
        for p in 0..1024u64 {
            ms.map(
                p,
                MemMapping {
                    hpa: (4 << 20) + p * 4096,
                    rights: MemRights::RW,
                },
            );
        }

        // Random guest PDE/PTE flags (P always set on the PDE so the
        // walk reaches the PTE; the PTE's P is itself random).
        let pde_w = rng.below(2) == 1;
        let pde_us = rng.below(2) == 1;
        let pte_p = rng.below(8) != 0;
        let pte_w = rng.below(2) == 1;
        let pte_us = rng.below(2) == 1;
        let wp = rng.below(2) == 1;
        let write = rng.below(2) == 1;
        let user = rng.below(2) == 1;

        let groot: u32 = 0x10_000;
        let gpt: u32 = 0x11_000;
        let mut pde = gpt | pte::P;
        if pde_w {
            pde |= pte::W;
        }
        if pde_us {
            pde |= pte::US;
        }
        let mut pte_v = 0x5000;
        if pte_p {
            pte_v |= pte::P;
        }
        if pte_w {
            pte_v |= pte::W;
        }
        if pte_us {
            pte_v |= pte::US;
        }
        let pde_hpa = ms.translate(groot as u64 + 4).unwrap(); // di = 1
        mem.write_u32(pde_hpa, pde);
        let pte_hpa = ms.translate(gpt as u64).unwrap(); // ti = 0
        mem.write_u32(pte_hpa, pte_v);

        let mut vmcs = nova_hw::vmx::Vmcs::new_shadow(cache.active_root(), cache.active_vpid());
        vmcs.guest.cr3 = groot;
        vmcs.guest.cr0 = cr0::PE | cr0::PG | if wp { cr0::WP } else { 0 };

        let gva: u32 = 0x40_0000; // di = 1, ti = 0
        let mut err_in = 0;
        if write {
            err_in |= pf_err::WRITE;
        }
        if user {
            err_in |= pf_err::USER;
        }
        let out =
            vtlb::handle_page_fault(&mut mem, &mut alloc, &ms, &mut cache, &vmcs, gva, err_in);

        // The architectural predicate.
        let user_ok = pde_us && pte_us;
        let writable = (pde_w && pte_w) || (!user && !wp);
        let expected = if !pte_p {
            VtlbOutcome::InjectPf { err: err_in }
        } else if (user && !user_ok) || (write && !writable) {
            VtlbOutcome::InjectPf {
                err: err_in | pf_err::PRESENT,
            }
        } else {
            VtlbOutcome::Filled
        };
        assert_eq!(
            out, expected,
            "pde_w={pde_w} pde_us={pde_us} pte_p={pte_p} pte_w={pte_w} \
             pte_us={pte_us} wp={wp} write={write} user={user}"
        );

        // A/D maintenance: set exactly on allowed accesses, D only on
        // writes.
        let pde_after = mem.read_u32(pde_hpa);
        let pte_after = mem.read_u32(pte_hpa);
        if expected == VtlbOutcome::Filled {
            assert_ne!(pde_after & pte::A, 0, "PDE.A after allowed access");
            assert_ne!(pte_after & pte::A, 0, "PTE.A after allowed access");
            assert_eq!(
                pte_after & pte::D != 0,
                write,
                "PTE.D tracks writes exactly"
            );
        } else {
            assert_eq!(pde_after & pte::A, 0, "faulting walk leaves A clear");
            assert_eq!(pte_after & (pte::A | pte::D), 0);
        }
    }
}

/// Shadow-cache coherence across address-space switches: after an
/// A→B→A round trip, translations whose guest entries the guest left
/// alone still resolve from the cached shadow, and every entry the
/// guest rewrote while B was active is gone.
#[test]
fn shadow_cache_round_trip_is_coherent() {
    use nova_core::hostpt::FrameAllocator;
    use nova_core::obj::{MemMapping, MemRights, MemSpace};
    use nova_core::vtlb::{self, CrOutcome, ShadowCache};
    use nova_x86::paging::pte;
    use nova_x86::reg::{cr0, pf_err};
    use nova_x86::Reg;

    let mut rng = Rng::new(0x100d);
    for _ in 0..32 {
        let mut mem = nova_hw::mem::PhysMem::new(32 << 20);
        let mut alloc = FrameAllocator::new(24 << 20, 8 << 20);
        let mut cache = ShadowCache::new(&mut mem, &mut alloc, 4, 1);
        let mut ms = MemSpace::default();
        for p in 0..1024u64 {
            ms.map(
                p,
                MemMapping {
                    hpa: (4 << 20) + p * 4096,
                    rights: MemRights::RW,
                },
            );
        }

        // Space A: root 0x10_000, PT 0x11_000 mapping random PTEs in
        // the 4 MB region at GVA 0x40_0000. Space B: root 0x20_000.
        let build = |mem: &mut nova_hw::mem::PhysMem, ms: &MemSpace, root: u32, pt: u32| {
            let pde_hpa = ms.translate(root as u64 + 4).unwrap();
            mem.write_u32(pde_hpa, pt | pte::P | pte::W | pte::US);
        };
        build(&mut mem, &ms, 0x10_000, 0x11_000);
        build(&mut mem, &ms, 0x20_000, 0x21_000);
        let mut mapped = std::collections::BTreeMap::new();
        for _ in 0..(1 + rng.below(15)) {
            let ti = rng.below(16) as u32;
            let target = 0x100 + rng.below(512) as u32;
            mapped.insert(ti, target);
            let pte_hpa = ms.translate(0x11_000u64 + ti as u64 * 4).unwrap();
            mem.write_u32(pte_hpa, (target << 12) | pte::P | pte::W | pte::US);
        }
        let pte_hpa_b = ms.translate(0x21_000u64).unwrap();
        mem.write_u32(pte_hpa_b, (0x90 << 12) | pte::P | pte::W | pte::US);

        let mut vmcs = nova_hw::vmx::Vmcs::new_shadow(cache.active_root(), cache.active_vpid());
        vmcs.guest.cr0 = cr0::PE | cr0::PG;
        let mov_cr3 = |mem: &mut nova_hw::mem::PhysMem,
                       alloc: &mut FrameAllocator,
                       cache: &mut ShadowCache,
                       vmcs: &mut nova_hw::vmx::Vmcs,
                       val: u32| {
            vmcs.guest.set(Reg::Eax, val);
            vtlb::handle_cr_access(mem, alloc, &ms, cache, vmcs, 3, true, Reg::Eax, 3)
        };

        // Enter A, fill everything, visit B, then mutate a random
        // subset of A's PTEs behind the cache's back.
        mov_cr3(&mut mem, &mut alloc, &mut cache, &mut vmcs, 0x10_000);
        for &ti in mapped.keys() {
            let gva = 0x40_0000 | (ti << 12);
            let out = vtlb::handle_page_fault(
                &mut mem,
                &mut alloc,
                &ms,
                &mut cache,
                &vmcs,
                gva,
                pf_err::WRITE,
            );
            assert_eq!(out, nova_core::vtlb::VtlbOutcome::Filled);
        }
        mov_cr3(&mut mem, &mut alloc, &mut cache, &mut vmcs, 0x20_000);
        vtlb::handle_page_fault(
            &mut mem,
            &mut alloc,
            &ms,
            &mut cache,
            &vmcs,
            0x40_0000,
            pf_err::WRITE,
        );
        let mut changed = std::collections::BTreeSet::new();
        for &ti in mapped.keys() {
            if rng.below(2) == 1 {
                changed.insert(ti);
                let pte_hpa = ms.translate(0x11_000u64 + ti as u64 * 4).unwrap();
                mem.write_u32(pte_hpa, (0x300 << 12) | pte::P | pte::W | pte::US);
            }
        }

        // Return to A: a cache hit that must resynchronize precisely.
        let out = mov_cr3(&mut mem, &mut alloc, &mut cache, &mut vmcs, 0x10_000);
        assert_eq!(
            out,
            CrOutcome::Switch {
                hit: true,
                evicted: false
            }
        );
        let cost = nova_hw::cost::BLM;
        let mut cyc = 0;
        for (&ti, &target) in &mapped {
            let gva = 0x40_0000 | (ti << 12);
            let walk = nova_hw::mmu::walk_2level(
                &mem,
                cache.active_root() as u32,
                gva,
                nova_x86::paging::Access::WRITE,
                false,
                &cost,
                &mut cyc,
            );
            if changed.contains(&ti) {
                assert!(walk.is_err(), "rewritten entry must not survive resync");
            } else {
                assert_eq!(
                    walk.unwrap().hpa,
                    (4 << 20) + (target as u64) * 4096,
                    "untouched entry survives the round trip"
                );
            }
        }
    }
}

/// Shift semantics agree with Rust's wrapping operators for all
/// counts the hardware masks to 0..31.
#[test]
fn shift_semantics() {
    use nova_x86::exec::execute;
    let mut rng = Rng::new(0x100b);
    let mut env = exec_env::NoMem;
    for _ in 0..CASES {
        let a0 = rng.u32();
        let n = rng.below(32) as u8;

        // shl eax, n -> C1 E0 n
        let mut regs = Regs::default();
        regs.set(Reg::Eax, a0);
        let i = decode(&[0xc1, 0xe0, n]).unwrap();
        execute(&i, &mut regs, &mut env).unwrap();
        let expect = if n == 0 { a0 } else { a0 << n };
        assert_eq!(regs.get(Reg::Eax), expect);

        // shr eax, n -> C1 E8 n
        let mut regs = Regs::default();
        regs.set(Reg::Eax, a0);
        let i = decode(&[0xc1, 0xe8, n]).unwrap();
        execute(&i, &mut regs, &mut env).unwrap();
        let expect = if n == 0 { a0 } else { a0 >> n };
        assert_eq!(regs.get(Reg::Eax), expect);

        // sar eax, n -> C1 F8 n
        let mut regs = Regs::default();
        regs.set(Reg::Eax, a0);
        let i = decode(&[0xc1, 0xf8, n]).unwrap();
        execute(&i, &mut regs, &mut env).unwrap();
        let expect = if n == 0 {
            a0
        } else {
            ((a0 as i32) >> n) as u32
        };
        assert_eq!(regs.get(Reg::Eax), expect);
    }
}

/// MUL/DIV round-trip: (a*b)/b == a with the remainder folded in.
#[test]
fn mul_div_roundtrip() {
    use nova_x86::exec::execute;
    let mut rng = Rng::new(0x100c);
    let mut env = exec_env::NoMem;
    for _ in 0..CASES {
        let a0 = rng.u32();
        let b0 = 1 + (rng.u32() % (u32::MAX - 1));

        let mut regs = Regs::default();
        regs.set(Reg::Eax, a0);
        regs.set(Reg::Ebx, b0);
        // mul ebx: EDX:EAX = EAX * EBX
        let i = decode(&[0xf7, 0xe3]).unwrap();
        execute(&i, &mut regs, &mut env).unwrap();
        let wide = (a0 as u64) * (b0 as u64);
        assert_eq!(regs.get(Reg::Eax), wide as u32);
        assert_eq!(regs.get(Reg::Edx), (wide >> 32) as u32);

        // div ebx: back to (a0, remainder 0)
        let i = decode(&[0xf7, 0xf3]).unwrap();
        execute(&i, &mut regs, &mut env).unwrap();
        assert_eq!(regs.get(Reg::Eax), a0);
        assert_eq!(regs.get(Reg::Edx), 0);
    }
}

/// Effective-address arithmetic matches the definition for every
/// base/index/scale/displacement combination.
#[test]
fn effective_address_formula() {
    use nova_x86::exec::effective_address;
    let mut rng = Rng::new(0x100d);
    for _ in 0..CASES {
        let base = rng.u32() % 0x1000_0000;
        let index = rng.u32() % 0x1000;
        let scale = rng.pick(&[1u8, 2, 4, 8]);
        let disp = (rng.below(0x10000) as i32) - 0x8000;
        let mut regs = Regs::default();
        regs.set(Reg::Ebx, base);
        regs.set(Reg::Esi, index);
        let m = MemRef {
            base: Some(Reg::Ebx),
            index: Some((Reg::Esi, scale)),
            disp,
        };
        let got = effective_address(&m, &regs);
        let expect = base
            .wrapping_add(index.wrapping_mul(scale as u32))
            .wrapping_add(disp as u32);
        assert_eq!(got, expect);
    }
}

/// Capability-space invariant: set/get/remove behave like a map, and
/// lookups after a random op sequence agree with a model map.
#[test]
fn capspace_map_semantics() {
    use nova_core::cap::{CapSpace, Capability, Perms};
    use nova_core::obj::{ObjRef, SmId};
    let mut rng = Rng::new(0x100e);
    for _ in 0..64 {
        let mut cs = CapSpace::new();
        let mut model: std::collections::HashMap<usize, usize> = Default::default();
        let ops = 1 + rng.below(63);
        for i in 0..ops as usize {
            let sel = rng.below(64) as usize;
            if rng.next() & 1 == 1 {
                cs.set(
                    sel,
                    Capability {
                        obj: ObjRef::Sm(SmId(i)),
                        perms: Perms::ALL,
                    },
                );
                model.insert(sel, i);
            } else {
                cs.remove(sel);
                model.remove(&sel);
            }
        }
        for sel in 0..64 {
            let got = cs.get(sel).map(|c| match c.obj {
                ObjRef::Sm(SmId(i)) => i,
                _ => usize::MAX,
            });
            assert_eq!(got, model.get(&sel).copied());
        }
        assert_eq!(cs.count(), model.len());
    }
}

/// INT n followed by IRET restores EIP, ESP and EFLAGS exactly.
#[test]
fn int_iret_roundtrip() {
    use nova_x86::exec::{execute, Env};
    use nova_x86::insn::OpSize;
    let mut rng = Rng::new(0x100f);
    for _ in 0..CASES {
        let vec = rng.below(64) as u8;
        let eflags_if = rng.next() & 1 == 1;
        let mut env = exec_env::Ram::default();
        // IDT at 0x5000: handler at 0x4000 for every vector.
        let mut regs = Regs {
            idt_base: 0x5000,
            idt_limit: 0x7ff,
            ..Regs::default()
        };
        env.write_mem(0x5000 + vec as u32 * 8, OpSize::Dword, 0x0008_4000)
            .unwrap();
        env.write_mem(0x5000 + vec as u32 * 8 + 4, OpSize::Dword, 0x8e00)
            .unwrap();
        regs.set(Reg::Esp, 0x8000);
        regs.eip = 0x100;
        if eflags_if {
            regs.eflags |= nova_x86::reg::flags::IF;
        }
        let before = regs.clone();

        let int = decode(&[0xcd, vec]).unwrap();
        execute(&int, &mut regs, &mut env).unwrap();
        assert_eq!(regs.eip, 0x4000);
        assert!(!regs.if_set(), "gates clear IF");

        let iret = decode(&[0xcf]).unwrap();
        execute(&iret, &mut regs, &mut env).unwrap();
        assert_eq!(regs.eip, before.eip + 2, "resumes after INT");
        assert_eq!(regs.get(Reg::Esp), before.get(Reg::Esp));
        assert_eq!(regs.eflags, before.eflags);
    }
}

/// One image for the three ways a guest instruction can run — on the
/// bare machine, emulated by the VMM, emulated inside the monolithic
/// hypervisor — whose RAM operands leave their page: linear pages
/// `CROSS_VA` and `CROSS_VA + 0x1000` sit on the non-adjacent frames
/// `FRAME_A` and `FRAME_C`, and the frame after `FRAME_A` holds poison.
mod crossing {
    use nova_hw::ahci::regs::P0CLB;
    use nova_hw::machine::{GuestImage, AHCI_BASE, DEBUG_EXIT_PORT};
    use nova_x86::insn::MemRef;
    use nova_x86::paging::pte;
    use nova_x86::reg::{cr0, Reg, Reg8};
    use nova_x86::Asm;

    pub const PD: u32 = 0x1_0000;
    pub const CROSS_VA: u32 = 0x40_0000;
    pub const FRAME_A: u32 = 0x2_0000;
    pub const POISON: u32 = FRAME_A + 0x1000;
    pub const FRAME_C: u32 = 0x3_0000;
    /// Where the program leaves EAX, ESI, EDI and ESP.
    pub const OUT: u32 = 0x5000;
    pub const IMAGE_LEN: usize = FRAME_C as usize + 0x1000;

    pub struct Image {
        /// Guest-physical memory from 0, entered with paging off (the
        /// program turns it on and sets its own stack).
        pub guest: GuestImage,
        /// First instruction after paging is on.
        pub paged: u32,
        /// First instruction after the results are stored.
        pub end: u32,
    }

    /// `movsd` from RAM at `..ffe` into a vAHCI register, the register
    /// read back, then `push dword [register]` with the stack slot at
    /// `..fff`: a crossing load and a crossing store, each the RAM
    /// operand of an instruction whose other operand is MMIO.
    pub fn image(second_page_present: bool) -> Image {
        let p0clb = AHCI_BASE as u32 + P0CLB;
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Eax, PD);
        a.mov_cr_r(3, Reg::Eax);
        a.mov_ri(Reg::Eax, cr0::PE | cr0::PG);
        a.mov_cr_r(0, Reg::Eax);
        let paged = a.here();
        a.mov_ri(Reg::Esi, CROSS_VA + 0xffe);
        a.mov_ri(Reg::Edi, p0clb);
        a.mov_ri(Reg::Esp, CROSS_VA + 0x1003);
        a.cld();
        a.bytes(&[0xa5]); // movsd
        a.mov_rm(Reg::Eax, MemRef::abs(p0clb));
        a.bytes(&[0xff, 0x35]); // push dword [p0clb]
        a.dd(p0clb);
        for (i, r) in [Reg::Eax, Reg::Esi, Reg::Edi, Reg::Esp]
            .into_iter()
            .enumerate()
        {
            a.mov_mr(MemRef::abs(OUT + 4 * i as u32), r);
        }
        let end = a.here();
        a.mov_r8i(Reg8::Al, 0);
        a.mov_ri(Reg::Edx, DEBUG_EXIT_PORT as u32);
        a.out_dx_al();
        let code = a.finish();

        let mut bytes = vec![0u8; IMAGE_LEN];
        bytes[0x1000..0x1000 + code.len()].copy_from_slice(&code);
        let mut put = |at: u32, v: u32| {
            bytes[at as usize..at as usize + 4].copy_from_slice(&v.to_le_bytes());
        };
        let rw = pte::P | pte::W;
        let (pt_low, pt_cross, pt_mmio) = (PD + 0x1000, PD + 0x2000, PD + 0x3000);
        put(PD, pt_low | rw);
        put(PD + 4 * (CROSS_VA >> 22), pt_cross | rw);
        put(PD + 4 * (p0clb >> 22), pt_mmio | rw);
        for page in 0..16 {
            put(pt_low + 4 * page, page << 12 | rw);
        }
        put(pt_cross, FRAME_A | rw);
        if second_page_present {
            put(pt_cross + 4, FRAME_C | rw);
        }
        put(
            pt_mmio + 4 * (p0clb >> 12 & 0x3ff),
            (p0clb & pte::ADDR) | rw,
        );
        bytes[FRAME_A as usize + 0xffe..][..2].copy_from_slice(&[0x11, 0x22]);
        bytes[POISON as usize..][..0x1000].fill(0xee);
        bytes[FRAME_C as usize..][..2].copy_from_slice(&[0x33, 0x44]);
        Image {
            guest: GuestImage {
                bytes,
                load_gpa: 0,
                entry: 0x1000,
                stack: 0x8000,
            },
            paged,
            end,
        }
    }

    /// The image after the program ran on the bare machine.
    pub fn native() -> Vec<u8> {
        use nova_hw::cpu::NativeStop;
        use nova_hw::machine::{Machine, MachineConfig};
        let img = image(true);
        let mut m = Machine::new(MachineConfig::core_i7(32 << 20));
        m.load_image(0, &img.guest.bytes);
        m.cpus[0].regs = nova_x86::reg::Regs::at(img.guest.entry);
        assert_eq!(m.run_native(Some(1_000_000)), NativeStop::Shutdown(0));
        let ram = m.mem.read_bytes(0, IMAGE_LEN);
        assert_eq!(ram[OUT as usize..][..4], [0x11, 0x22, 0x33, 0x44], "EAX");
        assert_eq!(ram[FRAME_A as usize + 0xfff], 0x11, "pushed, first page");
        assert_eq!(
            ram[FRAME_C as usize..][..3],
            [0x22, 0x33, 0x44],
            "second page"
        );
        assert!(ram[POISON as usize..][..0x1000].iter().all(|&b| b == 0xee));
        ram
    }
}

/// A root-resident stand-in VMM: the emulator's kernel, identity and
/// devices over 4 MB of guest RAM at root pages `GUEST_BASE_PAGE..`.
fn emu_fixture() -> (
    nova_core::Kernel,
    nova_core::CompCtx,
    u64,
    nova_vmm::devices::VDevices,
) {
    use nova_hw::machine::{Machine, MachineConfig};
    let m = Machine::new(MachineConfig::core_i7(64 << 20));
    let mut k = nova_core::Kernel::new(m, nova_core::KernelConfig::default());
    let (rc, re) = k.load_component(k.root_pd, 0, Box::new(nova_user::RootPm::new()));
    k.start_component(rc, re);
    let ctx = k
        .component_mut::<nova_user::RootPm>(rc)
        .unwrap()
        .ctx
        .unwrap();
    let guest_pages = 1024;
    let dev = nova_vmm::devices::VDevices::new(
        2_670_000_000,
        0,
        nova_vmm::vahci::VAhci::new(guest_pages),
        nova_vmm::pvdisk::PvDisk::new(guest_pages),
        None,
    );
    (k, ctx, guest_pages, dev)
}

/// PR 16's bug class one layer up: `EmuEnv::read_mem`/`write_mem`
/// translated an operand's first byte and moved all its bytes there.
/// Emulated, the instructions must leave the registers and RAM the bare
/// machine leaves; and a store whose second page is missing faults at
/// that page's first byte with nothing stored.
#[test]
fn page_crossing_operand_emulated_by_the_vmm_matches_native() {
    use nova_hw::mmu::MmuRegs;
    use nova_vmm::emu::{emulate_one, EmuEnv, EmuErr, VmmHost};
    use nova_x86::exec::Fault;
    use nova_x86::reg::cr0;

    let native = crossing::native();
    for second_page_present in [true, false] {
        let img = crossing::image(second_page_present);
        let (mut k, ctx, guest_pages, mut dev) = emu_fixture();
        let base = nova_vmm::vmm::GUEST_BASE_PAGE * 4096;
        assert!(k.mem_write(ctx, base, &img.guest.bytes));
        let mut regs = Regs::at(img.paged);
        regs.cr0 = cr0::PE | cr0::PG;
        regs.cr3 = crossing::PD;
        let mut host = VmmHost {
            k: &mut k,
            ctx,
            dev: &mut dev,
        };
        let mut env = EmuEnv::new(&mut host, guest_pages, MmuRegs::from_regs(&regs));
        let mut fault = None;
        while regs.eip != img.end && fault.is_none() {
            fault = emulate_one(&mut env, &mut regs).err();
        }
        let mut ram = vec![0; crossing::IMAGE_LEN];
        k.mem_read_into(ctx, base, &mut ram).unwrap();
        if second_page_present {
            assert_eq!(fault, None);
            assert!(ram == native, "guest RAM differs from native");
        } else {
            assert_eq!(
                fault,
                Some(EmuErr::Fault(Fault::Page {
                    addr: crossing::CROSS_VA + 0x1000,
                    write: false,
                    fetch: false,
                    present: false,
                })),
                "the load's second page, at its first byte"
            );
            assert!(ram == img.guest.bytes, "a faulting access moved bytes");
        }
    }
}

/// The same for the in-kernel emulator of the monolithic baseline,
/// driven through its real exit path (EPT violation → emulate).
#[test]
fn page_crossing_operand_emulated_by_the_monolithic_baseline_matches_native() {
    use nova_baseline::monolithic::{MonoConfig, Monolithic};
    use nova_hw::machine::MachineConfig;

    let native = crossing::native();
    for second_page_present in [true, false] {
        let img = crossing::image(second_page_present);
        let mut mono = Monolithic::new(
            MachineConfig::core_i7(32 << 20),
            MonoConfig::kvm_ept(),
            1024,
            &img.guest,
        );
        mono.run("KVM", Some(10_000_000));
        let ram = mono
            .machine
            .mem
            .read_bytes(mono.gpa_hpa(0).unwrap(), crossing::IMAGE_LEN);
        if second_page_present {
            assert_eq!(mono.guest_exit, Some(0));
            assert!(ram == native, "guest RAM differs from native");
        } else {
            // No IDT: the injected #PF ends the guest.
            assert_eq!(mono.guest_exit, Some(0xfd), "the load faulted");
            assert!(ram == img.guest.bytes, "a faulting access moved bytes");
        }
    }
}

/// What a walker made of one access: where it lands in guest-physical
/// space, or the page fault it reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Xlate {
    Gpa(u64),
    Fault {
        present: bool,
        write: bool,
        fetch: bool,
    },
}

/// Every reader of the guest's two-level page table — the native walk,
/// the 2-D walk over an identity EPT and an identity NPT (4 KB and
/// large host pages), the vTLB fill (supervisor, `CR0.WP` set), the
/// emulator over the VMM's window and over the monolithic baseline's
/// host frames — gives the same guest-physical address or the same
/// fault, over seeded tables with P / W / PS / US drawn per level,
/// `CR4.PSE` on and off, table pointers outside guest RAM and a page
/// directory that maps itself.
///
/// One thing is the walkers' own and is folded here, not compared:
/// under nested paging a table pointer (or a final address) outside
/// guest RAM is an EPT violation, which the VMM resolves to what the
/// others report directly.
#[test]
fn every_walker_of_the_guest_page_table_agrees() {
    use nova_baseline::monolithic::{MonoConfig, Monolithic};
    use nova_core::hostpt::{FrameAllocator, NestedTable};
    use nova_core::obj::{MemMapping, MemRights, MemSpace};
    use nova_core::vtlb::{self, ShadowCache, VtlbOutcome};
    use nova_hw::machine::MachineConfig;
    use nova_hw::mmu::{self, GuestXlate, MmuRegs};
    use nova_hw::vmx::Vmcs;
    use nova_vmm::emu::{EmuEnv, VmmHost};
    use nova_x86::exec::Fault;
    use nova_x86::paging::{pte, Access, NestedFormat};
    use nova_x86::reg::{cr0, cr4, pf_err};

    const RAM_PAGES: u64 = 1024;
    const RAM: u64 = RAM_PAGES * 4096;
    const PD: u32 = 0x1_0000;
    /// Far beyond guest RAM and every simulated machine's memory.
    const OUTSIDE: u32 = 0x4000_0000;
    /// The directory slots the generator fills; the last is left empty.
    const SLOTS: [u32; 9] = [0, 1, 2, 3, 0x100, 0x200, 0x3fa, 0x3ff, 0x155];
    let cost = nova_hw::cost::BLM;

    let (mut k, ctx, guest_pages, mut dev) = emu_fixture();
    let emu_base = nova_vmm::vmm::GUEST_BASE_PAGE * 4096;
    let mut mono = Monolithic::new(
        MachineConfig::core_i7(32 << 20),
        MonoConfig::kvm_ept(),
        RAM_PAGES,
        &nova_hw::machine::GuestImage::default(),
    );

    // Accesses by what the tables say: lands in RAM, lands
    // outside, not present, denied; and table reads outside RAM seen
    // as EPT violations.
    let mut tally = [0usize; 5];
    // Per walker: how many accesses it got wrong, and the first.
    let mut wrong: std::collections::BTreeMap<&str, (usize, String)> = Default::default();
    fn disagree<'a>(
        wrong: &mut std::collections::BTreeMap<&'a str, (usize, String)>,
        walker: &'a str,
        got: Xlate,
        expected: Xlate,
        case: &str,
    ) {
        if got != expected {
            let w = wrong
                .entry(walker)
                .or_insert((0, format!("{case}, got {got:x?}")));
            w.0 += 1;
        }
    }
    let mut rng = Rng::new(0x2201);
    for seed in 0..CASES {
        let pse = seed % 2 == 1;
        let flags = |rng: &mut Rng| {
            (if rng.below(8) != 0 { pte::P } else { 0 })
                | (if rng.below(2) == 1 { pte::W } else { 0 })
                | (if rng.below(2) == 1 { pte::US } else { 0 })
        };
        // The table frames: page 0 (what a PS entry at frame 0 points
        // at when PSE is off), the directory, four page tables.
        let mut frames: Vec<(u32, Vec<u32>)> =
            [0, PD, PD + 0x1000, PD + 0x2000, PD + 0x3000, PD + 0x4000]
                .into_iter()
                .map(|at| (at, vec![0u32; 1024]))
                .collect();
        for (_, words) in frames.iter_mut().filter(|f| f.0 != PD) {
            for w in words.iter_mut() {
                let frame = if rng.below(4) == 0 {
                    OUTSIDE + (rng.below(1024) as u32) * 4096
                } else {
                    (rng.below(RAM_PAGES) as u32) * 4096
                };
                *w = frame | flags(&mut rng);
            }
        }
        for &di in &SLOTS[..8] {
            // With PSE a PS entry is a 4 MB page (its low address bits
            // ignored); without, every entry is a table pointer.
            let pde = match rng.below(6) {
                0 => PD + 0x1000 * (1 + rng.below(4) as u32),
                1 => (PD + 0x1000 * (1 + rng.below(4) as u32)) | pte::PS,
                2 => PD,      // the directory is its own page table
                3 => pte::PS, // frame 0, as a page or as a table
                4 => (OUTSIDE + (rng.below(64) as u32) * (4 << 20)) | pte::PS,
                _ => OUTSIDE + (rng.below(1024) as u32) * 4096,
            };
            frames[1].1[di as usize] = pde | flags(&mut rng);
        }

        // A word of the generated tables; anything else a table pointer
        // can name is outside guest RAM and reads as not present.
        let word = |at: u64| {
            let frame = frames.iter().find(|f| f.0 as u64 == at & !0xfff);
            frame.map_or(0, |f| f.1[(at & 0xfff) as usize / 4])
        };

        // One memory per stack under test, the same table bytes in each.
        let mut mem = nova_hw::mem::PhysMem::new(32 << 20);
        for (at, words) in &frames {
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            mem.write_bytes(*at as u64, &bytes);
            assert!(k.mem_write(ctx, emu_base + *at as u64, &bytes));
            let hpa = mono.gpa_hpa(*at as u64).unwrap();
            mono.machine.mem.write_bytes(hpa, &bytes);
        }

        let mut alloc = FrameAllocator::new(8 << 20, 24 << 20);
        let nested: Vec<(&str, NestedTable)> = [
            ("EPT 4K", NestedFormat::Ept4Level, false),
            ("EPT 2M", NestedFormat::Ept4Level, true),
            ("NPT 4K", NestedFormat::Npt2Level, false),
            ("NPT 4M", NestedFormat::Npt2Level, true),
        ]
        .into_iter()
        .map(|(name, fmt, large)| {
            let mut t = NestedTable::new(fmt, &mut alloc, &mut mem);
            let step = if large { fmt.large_page_size() } else { 4096 };
            for gpa in (0..RAM).step_by(step as usize) {
                if large {
                    t.map_large(&mut mem, &mut alloc, gpa, gpa, true);
                } else {
                    t.map_page(&mut mem, &mut alloc, gpa, gpa, true).unwrap();
                }
            }
            (name, t)
        })
        .collect();
        let mut ms = MemSpace::default();
        for p in 0..RAM_PAGES {
            ms.map(
                p,
                MemMapping {
                    hpa: p * 4096,
                    rights: MemRights::RW,
                },
            );
        }
        let mut cache = ShadowCache::new(&mut mem, &mut alloc, 1, 1);
        let mut vmcs = Vmcs::new_shadow(cache.active_root(), cache.active_vpid());
        vmcs.guest.cr0 = cr0::PE | cr0::PG | cr0::WP;
        vmcs.guest.cr3 = PD;
        vmcs.guest.cr4 = if pse { cr4::PSE } else { 0 };
        let mmu_regs = MmuRegs::from_regs(&vmcs.guest);

        for _ in 0..64 {
            let addr = rng.pick(&SLOTS) << 22 | rng.u32() & 0x3f_ffff;
            for access in [Access::READ, Access::WRITE, Access::FETCH] {
                let fault = |present| Xlate::Fault {
                    present,
                    write: access.write,
                    fetch: access.fetch,
                };
                // The format, spelled out over the generated words.
                let expected = (|| {
                    let pde = word(PD as u64 + (addr >> 22) as u64 * 4);
                    if pde & pte::P == 0 {
                        return fault(false);
                    }
                    if pse && pde & pte::PS != 0 {
                        if access.write && pde & pte::W == 0 {
                            return fault(true);
                        }
                        return Xlate::Gpa((pde & 0xffc0_0000) as u64 + (addr & 0x3f_ffff) as u64);
                    }
                    let pte_v = word((pde & 0xffff_f000) as u64 + (addr >> 12 & 0x3ff) as u64 * 4);
                    if pte_v & pte::P == 0 {
                        return fault(false);
                    }
                    if access.write && (pde & pte::W == 0 || pte_v & pte::W == 0) {
                        return fault(true);
                    }
                    Xlate::Gpa((pte_v & 0xffff_f000) as u64 + (addr & 0xfff) as u64)
                })();
                let case =
                    format!("seed {seed} pse {pse} addr {addr:#x} {access:?}: {expected:x?}");

                let mut cyc = 0;
                let got = match mmu::walk_2level(&mem, PD, addr, access, pse, &cost, &mut cyc) {
                    Ok(leaf) => Xlate::Gpa(leaf.hpa),
                    Err(pf) => {
                        assert_eq!(
                            (pf.addr, pf.write, pf.fetch),
                            (addr, access.write, access.fetch)
                        );
                        fault(pf.present)
                    }
                };
                disagree(&mut wrong, "native", got, expected, &case);
                match expected {
                    Xlate::Gpa(g) if g < RAM => tally[0] += 1,
                    Xlate::Gpa(_) => tally[1] += 1,
                    Xlate::Fault { present: false, .. } => tally[2] += 1,
                    Xlate::Fault { present: true, .. } => tally[3] += 1,
                }

                for (name, t) in &nested {
                    let got = match mmu::translate_nested_guest(
                        &mem, &mmu_regs, t.root, t.fmt, addr, access, &cost, &mut cyc,
                    ) {
                        Ok(leaf) => Xlate::Gpa(leaf.hpa),
                        Err(GuestXlate::GuestFault(pf)) => fault(pf.present),
                        // Outside the identity map: the final address
                        // if the guest's tables lead there, else a
                        // table frame that is not RAM.
                        Err(GuestXlate::Nested(v)) => {
                            assert!(v.gpa >= RAM, "{case}: {name} violation inside RAM");
                            match expected {
                                Xlate::Gpa(g) if g == v.gpa => expected,
                                _ => {
                                    tally[4] += 1;
                                    fault(false)
                                }
                            }
                        }
                    };
                    disagree(&mut wrong, name, got, expected, &case);
                }

                let err = if access.write { pf_err::WRITE } else { 0 }
                    | if access.fetch { pf_err::FETCH } else { 0 };
                let got = match vtlb::handle_page_fault(
                    &mut mem, &mut alloc, &ms, &mut cache, &vmcs, addr, err,
                ) {
                    VtlbOutcome::Filled => {
                        let root = cache.active_root() as u32;
                        let leaf = mmu::walk_2level(
                            &mem,
                            root,
                            addr,
                            Access::READ,
                            false,
                            &cost,
                            &mut cyc,
                        );
                        Xlate::Gpa(leaf.expect("a fill fills").hpa)
                    }
                    VtlbOutcome::Mmio { gpa, write } => {
                        assert_eq!(write, access.write);
                        Xlate::Gpa(gpa)
                    }
                    VtlbOutcome::InjectPf { err } => Xlate::Fault {
                        present: err & pf_err::PRESENT != 0,
                        write: err & pf_err::WRITE != 0,
                        fetch: err & pf_err::FETCH != 0,
                    },
                };
                disagree(&mut wrong, "vTLB", got, expected, &case);

                let mut host = VmmHost {
                    k: &mut k,
                    ctx,
                    dev: &mut dev,
                };
                let env = EmuEnv::new(&mut host, guest_pages, mmu_regs);
                let got = match env.gva_to_gpa(addr, access.write, access.fetch) {
                    Ok(gpa) => Xlate::Gpa(gpa),
                    Err(Fault::Page {
                        addr: a,
                        write,
                        fetch,
                        present,
                    }) => {
                        assert_eq!(a, addr);
                        Xlate::Fault {
                            present,
                            write,
                            fetch,
                        }
                    }
                    Err(other) => panic!("{case}: emulator raised {other:?}"),
                };
                disagree(&mut wrong, "VMM emulator", got, expected, &case);

                let env = EmuEnv::new(&mut mono, RAM_PAGES, mmu_regs);
                let got = match env.gva_to_gpa(addr, access.write, access.fetch) {
                    Ok(gpa) => Xlate::Gpa(gpa),
                    Err(Fault::Page {
                        addr: a,
                        write,
                        fetch,
                        present,
                    }) => {
                        assert_eq!(a, addr);
                        Xlate::Fault {
                            present,
                            write,
                            fetch,
                        }
                    }
                    Err(other) => panic!("{case}: baseline raised {other:?}"),
                };
                disagree(&mut wrong, "monolithic baseline", got, expected, &case);
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "walkers that disagree with the tables: {wrong:#x?}"
    );
    assert!(
        tally.iter().all(|&n| n > 1000),
        "every class exercised: {tally:?}"
    );
}

/// What still differs by design, pinned so it is a documented line and
/// not folklore (DESIGN §6g): the hardware walkers of this model —
/// native, the 2-D nested walk — and the VMM's emulator treat every
/// access as a supervisor access with `CR0.WP` set and never write
/// accessed/dirty bits; the vTLB's software walk honours US and
/// `CR0.WP` and maintains A/D.
#[test]
fn recorded_divergence_hardware_walks_are_supervisor_wp_set_and_write_no_accessed_dirty() {
    use nova_core::hostpt::{FrameAllocator, NestedTable};
    use nova_core::obj::{MemMapping, MemRights, MemSpace};
    use nova_core::vtlb::{self, ShadowCache, VtlbOutcome};
    use nova_hw::mmu::{self, GuestXlate, MmuRegs};
    use nova_hw::vmx::Vmcs;
    use nova_vmm::emu::{EmuEnv, VmmHost};
    use nova_x86::paging::{pte, Access, NestedFormat};
    use nova_x86::reg::{cr0, pf_err};

    // VA 0x40_0000: a supervisor-only, read-only page at frame 0x5000.
    const PD: u32 = 0x1_0000;
    const PT: u32 = 0x1_1000;
    const VA: u32 = 0x40_0000;
    let (pde, pte_v) = (PT | pte::P | pte::W | pte::US, 0x5000 | pte::P);
    let cost = nova_hw::cost::BLM;
    let mut cyc = 0;

    let mut mem = nova_hw::mem::PhysMem::new(32 << 20);
    mem.write_u32(PD as u64 + 4, pde);
    mem.write_u32(PT as u64, pte_v);
    let mut alloc = FrameAllocator::new(8 << 20, 24 << 20);
    let mut ept = NestedTable::new(NestedFormat::Ept4Level, &mut alloc, &mut mem);
    let mut ms = MemSpace::default();
    for p in 0..1024u64 {
        ept.map_page(&mut mem, &mut alloc, p << 12, p << 12, true)
            .unwrap();
        ms.map(
            p,
            MemMapping {
                hpa: p << 12,
                rights: MemRights::RW,
            },
        );
    }
    let (mut k, ctx, guest_pages, mut dev) = emu_fixture();
    let base = nova_vmm::vmm::GUEST_BASE_PAGE * 4096;
    k.mem_write_u32(ctx, base + PD as u64 + 4, pde);
    k.mem_write_u32(ctx, base + PT as u64, pte_v);

    // `CR0.WP` clear: a ring-0 store to the read-only page.
    let mut cache = ShadowCache::new(&mut mem, &mut alloc, 1, 1);
    let mut vmcs = Vmcs::new_shadow(cache.active_root(), cache.active_vpid());
    vmcs.guest.cr0 = cr0::PE | cr0::PG;
    vmcs.guest.cr3 = PD;
    let regs = MmuRegs::from_regs(&vmcs.guest);

    let native = mmu::walk_2level(&mem, PD, VA, Access::WRITE, false, &cost, &mut cyc);
    assert!(native.unwrap_err().present, "native: WP is taken as set");
    let nested = mmu::translate_nested_guest(
        &mem,
        &regs,
        ept.root,
        ept.fmt,
        VA,
        Access::WRITE,
        &cost,
        &mut cyc,
    );
    assert!(
        matches!(nested, Err(GuestXlate::GuestFault(pf)) if pf.present),
        "nested: WP is taken as set"
    );
    let mut host = VmmHost {
        k: &mut k,
        ctx,
        dev: &mut dev,
    };
    let env = EmuEnv::new(&mut host, guest_pages, regs);
    assert!(
        env.gva_to_gpa(VA, true, false).is_err(),
        "emulator: likewise"
    );

    // None of the reads above (nor successful ones) touched A/D.
    assert!(mmu::walk_2level(&mem, PD, VA, Access::READ, false, &cost, &mut cyc).is_ok());
    assert!(env.gva_to_gpa(VA, false, false).is_ok());
    assert_eq!(
        (mem.read_u32(PD as u64 + 4), mem.read_u32(PT as u64)),
        (pde, pte_v)
    );
    assert_eq!(k.mem_read_u32(ctx, base + PT as u64), Some(pte_v));

    // A user access to the supervisor page: hardware walkers have no
    // notion of it (the read above went through); the vTLB refuses.
    let user_read = vtlb::handle_page_fault(
        &mut mem,
        &mut alloc,
        &ms,
        &mut cache,
        &vmcs,
        VA,
        pf_err::USER,
    );
    assert_eq!(
        user_read,
        VtlbOutcome::InjectPf {
            err: pf_err::PRESENT | pf_err::USER
        }
    );
    assert_eq!(
        mem.read_u32(PT as u64),
        pte_v,
        "a refused walk writes nothing"
    );

    // The vTLB lets the ring-0 store through and records it.
    let store = vtlb::handle_page_fault(
        &mut mem,
        &mut alloc,
        &ms,
        &mut cache,
        &vmcs,
        VA,
        pf_err::WRITE,
    );
    assert_eq!(store, VtlbOutcome::Filled);
    assert_eq!(mem.read_u32(PD as u64 + 4), pde | pte::A);
    assert_eq!(mem.read_u32(PT as u64), pte_v | pte::A | pte::D);
}

/// Port and MMIO scripts over the legacy-device windows, replayed
/// against the three stacks that model them: the platform's devices
/// behind `DeviceBus`, the VMM's `VDevices`, and the monolithic
/// baseline's in-kernel dispatch.
mod devices {
    use super::{emu_fixture, Rng};
    use nova_baseline::monolithic::{MonoConfig, Monolithic};
    use nova_hw::ahci::{cmd, regs, P0IS_TFES};
    use nova_hw::machine::{GuestImage, Machine, MachineConfig, AHCI_BASE};
    use nova_hw::platform::{Kbd, Pit};
    use nova_x86::insn::OpSize::{self, Byte, Dword};
    use std::collections::{BTreeMap, VecDeque};

    /// Guest RAM of every stack, in pages.
    pub const RAM_PAGES: u64 = 1024;
    /// Command list whose 32 headers name [`TABLE`]: a doorbell leaves
    /// the slot busy (no stack's disk answers inside a script).
    pub const GOOD_LIST: u64 = 0x10_0000;
    /// Command list whose headers name [`TABLE`] with `CTBAU = 1`.
    pub const HIGH_LIST: u64 = 0x10_0400;
    /// A well-formed 4 KB read.
    pub const TABLE: u64 = 0x10_1000;
    /// Command list of zeros: the FIS at table 0 is no FIS.
    pub const ZERO_LIST: u64 = 0x30_0000;

    #[derive(Clone, Copy, Debug)]
    pub enum Op {
        In(u16, OpSize),
        Out(u16, OpSize, u32),
        Load(u32),
        Store(u32, u32),
        /// A key is pressed (the stacks with a keyboard).
        Key(u8),
    }

    /// One stack's way in.
    pub trait Stack {
        const NAME: &'static str;
        fn write_ram(&mut self, gpa: u64, bytes: &[u8]);
        fn run(&mut self, op: Op) -> Option<u32>;
        /// Cycles between timer ticks, and the CPU clock they count.
        fn pit_period(&mut self) -> (u64, u64);
        fn console(&mut self) -> String;
    }

    pub struct Platform(pub Machine);

    impl Platform {
        pub fn new() -> Platform {
            let mut m = Machine::new(MachineConfig::core_i7(32 << 20));
            // The driver's DMA window: guest RAM, identity.
            for page in 0..RAM_PAGES {
                m.bus
                    .iommu
                    .map_page(m.dev.ahci, page << 12, page << 12, true);
            }
            Platform(m)
        }
    }

    impl Stack for Platform {
        const NAME: &'static str = "platform";
        fn write_ram(&mut self, gpa: u64, bytes: &[u8]) {
            self.0.mem.write_bytes(gpa, bytes);
        }
        fn run(&mut self, op: Op) -> Option<u32> {
            let m = &mut self.0;
            match op {
                Op::In(port, size) => return Some(m.bus.io_read(&mut m.mem, 0, port, size)),
                Op::Out(port, size, val) => m.bus.io_write(&mut m.mem, 0, port, size, val),
                Op::Load(off) => {
                    return Some(
                        m.bus
                            .mmio_read(&mut m.mem, 0, AHCI_BASE + off as u64, Dword),
                    )
                }
                Op::Store(off, val) => {
                    m.bus
                        .mmio_write(&mut m.mem, 0, AHCI_BASE + off as u64, Dword, val)
                }
                Op::Key(code) => {
                    let kbd = m.bus.typed_mut::<Kbd>(m.dev.kbd).unwrap();
                    kbd.chip.inject(code);
                }
            }
            None
        }
        fn pit_period(&mut self) -> (u64, u64) {
            let pit = self.0.bus.typed_mut::<Pit>(self.0.dev.pit).unwrap();
            (pit.period_cycles(), self.0.cost.ident.hz())
        }
        fn console(&mut self) -> String {
            self.0.serial_text()
        }
    }

    pub struct Vmm {
        k: nova_core::Kernel,
        ctx: nova_core::CompCtx,
        base: u64,
        dev: nova_vmm::devices::VDevices,
    }

    impl Vmm {
        pub fn new() -> Vmm {
            let (k, ctx, guest_pages, dev) = emu_fixture();
            assert_eq!(guest_pages, RAM_PAGES);
            let base = nova_vmm::vmm::GUEST_BASE_PAGE * 4096;
            Vmm { k, ctx, base, dev }
        }
    }

    impl Stack for Vmm {
        const NAME: &'static str = "VMM";
        fn write_ram(&mut self, gpa: u64, bytes: &[u8]) {
            assert!(self.k.mem_write(self.ctx, self.base + gpa, bytes));
        }
        fn run(&mut self, op: Op) -> Option<u32> {
            let (k, ctx, dev) = (&mut self.k, self.ctx, &mut self.dev);
            match op {
                Op::In(port, size) => return Some(dev.legacy.io_read(port, size)),
                Op::Out(port, _, val) => dev.io_write(k, ctx, port, val),
                Op::Load(off) => return Some(dev.mmio_read(AHCI_BASE + off as u64, Dword)),
                Op::Store(off, val) => dev.mmio_write(k, ctx, AHCI_BASE + off as u64, Dword, val),
                Op::Key(code) => dev.legacy.kbd.inject(code),
            }
            None
        }
        fn pit_period(&mut self) -> (u64, u64) {
            let hz = 2_670_000_000;
            (self.dev.legacy.pit.period_cycles(hz), hz)
        }
        fn console(&mut self) -> String {
            self.dev.legacy.serial.text()
        }
    }

    pub struct Baseline(pub Monolithic);

    impl Baseline {
        pub fn new() -> Baseline {
            let machine = MachineConfig::core_i7(32 << 20);
            let cfg = MonoConfig::kvm_ept();
            let empty = GuestImage {
                stack: 0x8000,
                ..GuestImage::default()
            };
            Baseline(Monolithic::new(machine, cfg, RAM_PAGES, &empty))
        }
    }

    impl Stack for Baseline {
        const NAME: &'static str = "monolithic baseline";
        fn write_ram(&mut self, gpa: u64, bytes: &[u8]) {
            let hpa = self.0.gpa_hpa(gpa).unwrap();
            self.0.machine.mem.write_bytes(hpa, bytes);
        }
        fn run(&mut self, op: Op) -> Option<u32> {
            match op {
                Op::In(port, size) => return Some(self.0.legacy.io_read(port, size)),
                Op::Out(port, _, val) => {
                    self.0.legacy.io_write(port, val);
                }
                Op::Load(off) => return Some(self.0.disk_mmio_read(off)),
                Op::Store(off, val) => self.0.disk_mmio_write(off, val),
                Op::Key(code) => self.0.legacy.kbd.inject(code),
            }
            None
        }
        fn pit_period(&mut self) -> (u64, u64) {
            (self.0.vpit_period(), self.0.machine.cost.ident.hz())
        }
        fn console(&mut self) -> String {
            self.0.console()
        }
    }

    /// The command structures every script finds in guest RAM.
    pub fn write_commands(s: &mut impl Stack) {
        let read = cmd::Cfis {
            write: false,
            lba: 5,
            sectors: 8,
        };
        s.write_ram(TABLE, &read.encode());
        s.write_ram(TABLE + cmd::PRDT_OFFSET, &cmd::prd::encode(0x20_0000, 4096));
        for (list, ctba) in [(GOOD_LIST, TABLE), (HIGH_LIST, 1 << 32 | TABLE)] {
            for slot in 0..32 {
                let hdr = cmd::Header { prdtl: 1, ctba };
                s.write_ram(list + slot * cmd::HEADER_LEN as u64, &hdr.encode());
            }
        }
    }

    /// The chips as their data sheets have them, spelled out once more:
    /// what each read must return, whoever answers it.
    #[derive(Default)]
    pub struct Spec {
        pit_lo: Option<u8>,
        pit_divisor: Option<u32>,
        pub uart: Vec<u8>,
        keys: VecDeque<u8>,
        pci_address: u32,
        ahci: BTreeMap<u32, u32>,
    }

    impl Spec {
        pub fn pit_period(&self, cpu_hz: u64) -> u64 {
            (self.pit_divisor.unwrap_or(65536) as u64 * cpu_hz / 1_193_182).max(1)
        }

        fn reg(&mut self, off: u32) -> &mut u32 {
            self.ahci.entry(off).or_default()
        }

        /// Where the command list is and what a doorbell there does:
        /// `Some(true)` parks the slot, `Some(false)` fails it.
        fn list(&mut self) -> Option<bool> {
            let clb = (*self.reg(regs::P0CLB2) as u64) << 32 | *self.reg(regs::P0CLB) as u64;
            match clb {
                GOOD_LIST => Some(true),
                HIGH_LIST => Some(false),
                _ if clb >= RAM_PAGES << 12 => Some(false),
                _ => None,
            }
        }

        pub fn run(&mut self, op: Op) -> Option<u32> {
            match op {
                Op::In(0x40, _) => Some(0),
                Op::In(0x41..=0x43, _) => Some(0xff),
                Op::Out(0x43, _, _) => {
                    self.pit_lo = None;
                    None
                }
                Op::Out(0x40, _, val) => {
                    match self.pit_lo.take() {
                        None => self.pit_lo = Some(val as u8),
                        Some(lo) => {
                            let d = (val & 0xff) << 8 | lo as u32;
                            self.pit_divisor = Some(if d == 0 { 65536 } else { d });
                        }
                    }
                    None
                }
                Op::In(0x3fd, _) => Some(0x60),
                Op::In(0x3f8..=0x3ff, _) => Some(0),
                Op::Out(0x3f8, _, val) => {
                    self.uart.push(val as u8);
                    None
                }
                Op::Key(code) => {
                    self.keys.push_back(code);
                    None
                }
                Op::In(0x60, _) => Some(self.keys.pop_front().unwrap_or(0) as u32),
                Op::In(0x64, _) => Some(!self.keys.is_empty() as u32),
                Op::In(0x61..=0x63, _) => Some(0xff),
                Op::Out(0xcf8, _, val) => {
                    self.pci_address = val;
                    None
                }
                Op::In(0xcf8, _) => Some(self.pci_address),
                Op::In(port @ 0xcfc..=0xcff, size) => {
                    let a = self.pci_address;
                    // Enabled, bus 0, device 2, function 0.
                    if a & 0x80ff_ff00 != 0x8000_1000 {
                        return Some(size.mask());
                    }
                    let dword = match a & 0xfc {
                        0x00 => 0x2922_8086,
                        0x08 => 0x0106_0000,
                        0x10 => AHCI_BASE as u32,
                        0x3c => 0x010b,
                        _ => 0,
                    };
                    Some(match size {
                        Dword => dword,
                        Byte => dword >> (8 * (port - 0xcfc)) & 0xff,
                    })
                }
                Op::In(0xcf9..=0xcfb, size) => Some(size.mask()),
                Op::Load(regs::CAP) => Some(0x4000_0000),
                Op::Load(regs::GHC) => Some(0x8000_0002),
                Op::Load(regs::PI) => Some(1),
                Op::Load(regs::P0CMD) => Some(0xc011),
                Op::Load(regs::P0TFD) => Some(0x50),
                Op::Load(
                    off @ (regs::IS
                    | regs::P0CLB
                    | regs::P0CLB2
                    | regs::P0FB
                    | regs::P0IS
                    | regs::P0IE
                    | regs::P0CI),
                ) => Some(*self.reg(off)),
                Op::Load(_) => Some(0),
                Op::Store(off @ (regs::IS | regs::P0IS), val) => {
                    *self.reg(off) &= !val;
                    None
                }
                Op::Store(off @ (regs::P0CLB | regs::P0CLB2 | regs::P0FB | regs::P0IE), val) => {
                    *self.reg(off) = val;
                    None
                }
                Op::Store(regs::P0CI, val) => {
                    let new = val & !*self.reg(regs::P0CI);
                    *self.reg(regs::P0CI) |= val;
                    let parks = self.list().expect("a doorbell the generator placed");
                    if !parks && new != 0 {
                        *self.reg(regs::P0CI) &= !new;
                        *self.reg(regs::P0IS) |= P0IS_TFES;
                        *self.reg(regs::IS) |= 1;
                    }
                    None
                }
                Op::In(..) => panic!("{op:?}: outside the windows"),
                Op::Out(..) | Op::Store(..) => None,
            }
        }
    }

    /// One seeded script: a few hundred accesses, weighted towards the
    /// sequences that have state — latch writes cut short by a mode
    /// write, write-1-to-clear of bits that are and are not set,
    /// doorbells for idle and busy slots with the command list in and
    /// out of reach, configuration reads of every width.
    pub fn script(seed: u64) -> Vec<Op> {
        let mut rng = Rng::new(0x2301 + seed);
        let mut ops = Vec::new();
        for _ in 0..64 + rng.below(192) {
            match rng.below(6) {
                0 => match rng.below(6) {
                    0 => ops.push(Op::Out(0x43, Byte, rng.u32() & 0xff)),
                    1 => ops.push(Op::Out(0x41 + rng.below(2) as u16, Byte, rng.u32() & 0xff)),
                    2 => ops.push(Op::In(0x40 + rng.below(4) as u16, Byte)),
                    // Mostly small values: 0 in both halves is the
                    // divisor that means 65536.
                    _ => {
                        let any = rng.u32() & 0xff;
                        ops.push(Op::Out(0x40, Byte, rng.pick(&[0, 0, 1, 0xe8, any])));
                    }
                },
                1 => {
                    let port = 0x3f8 + rng.below(8) as u16;
                    ops.push(match rng.below(3) {
                        0 => Op::In(port, Byte),
                        1 => Op::Out(port, Byte, rng.u32() & 0xff),
                        _ => Op::Out(0x3f8, Byte, b'a' as u32 + rng.below(26) as u32),
                    });
                }
                2 => ops.push(match rng.below(4) {
                    0 => Op::Key(rng.u32() as u8),
                    1 => Op::In(0x64, Byte),
                    2 => Op::In(0x60 + rng.below(5) as u16, Byte),
                    _ => Op::In(0x60, Byte),
                }),
                3 => {
                    // Device 3 is left out: DESIGN §7's table.
                    let device = rng.pick(&[2, 2, 2, 0, 1, 4, 31]);
                    let bus = rng.pick(&[0, 0, 0, 0, 1, 0xff]);
                    let func = rng.pick(&[0, 0, 0, 0, 1, 7]);
                    let reg = rng.pick(&[0x00, 0x08, 0x10, 0x3c, 0x04, 0x40]) | rng.below(4) as u32;
                    let enable = if rng.below(8) == 0 { 0 } else { 1 << 31 };
                    let address = enable | bus << 16 | device << 11 | func << 8 | reg;
                    ops.push(match rng.below(6) {
                        0 => Op::In(0xcf8, Dword),
                        1 => Op::Out(0xcfc, Dword, rng.u32()),
                        2 => Op::In(0xcf9 + rng.below(3) as u16, Byte),
                        _ => Op::Out(0xcf8, Dword, address),
                    });
                    ops.push(match rng.below(3) {
                        0 => Op::In(0xcfc, Dword),
                        _ => Op::In(0xcfc + rng.below(4) as u16, Byte),
                    });
                }
                4 => {
                    const READABLE: [u32; 14] = [
                        regs::CAP,
                        regs::GHC,
                        regs::IS,
                        regs::PI,
                        regs::P0CLB,
                        regs::P0CLB2,
                        regs::P0FB,
                        regs::P0IS,
                        regs::P0IE,
                        regs::P0CMD,
                        regs::P0TFD,
                        regs::P0CI,
                        0x10,
                        0x13c,
                    ];
                    ops.push(match rng.below(8) {
                        0 => Op::Store(regs::IS, rng.u32() & 3),
                        1 => Op::Store(regs::P0IS, rng.pick(&[1, P0IS_TFES, 1 << 5, !0])),
                        2 => Op::Store(regs::P0IE, rng.u32() & 1),
                        3 => Op::Store(rng.pick(&[regs::P0CLB, regs::P0CLB2]), rng.u32()),
                        // HR (bit 0) is left out: DESIGN §7's table.
                        4 => Op::Store(rng.pick(&[regs::GHC, regs::CAP, 0x13c]), rng.u32() & !1),
                        _ => Op::Load(rng.pick(&READABLE)),
                    });
                }
                _ => {
                    let (lo, hi) = rng.pick(&[
                        (GOOD_LIST, 0),
                        (GOOD_LIST, 0),
                        (HIGH_LIST, 0),
                        (GOOD_LIST, 1),
                    ]);
                    ops.push(Op::Store(regs::P0CLB, lo as u32));
                    ops.push(Op::Store(regs::P0CLB2, hi));
                    ops.push(Op::Store(
                        regs::P0CI,
                        1 << rng.below(32) | 1 << rng.below(4),
                    ));
                    ops.push(Op::Load(regs::P0CI));
                    ops.push(Op::Load(regs::P0IS));
                }
            }
        }
        ops
    }
}

/// Every model of a legacy device gives the data sheet's answer: 256
/// seeded scripts of port and MMIO accesses over the PIT, UART, i8042,
/// PCI-configuration and AHCI port-0 windows, replayed against the
/// platform's devices, the VMM's and the monolithic baseline's; each
/// value read back, the timer period and the console at the end of the
/// script must be what the chips' rules — spelled out in
/// `devices::Spec` — say. A rule broken in a shared core fails every
/// row; a private copy gone wrong fails alone.
///
/// Left out, and pinned by the test below instead: what DESIGN §7's
/// table records as different by design.
#[test]
fn every_model_of_a_legacy_device_agrees() {
    use devices::{Baseline, Platform, Spec, Stack, Vmm};
    use std::collections::BTreeMap;

    fn replay<S: Stack>(
        mut stack: S,
        seed: u64,
        wrong: &mut BTreeMap<&'static str, (u32, String)>,
    ) {
        devices::write_commands(&mut stack);
        let mut spec = Spec::default();
        let mut disagree = |what: String| {
            wrong.entry(S::NAME).or_insert((0, what)).0 += 1;
        };
        for (i, op) in devices::script(seed).into_iter().enumerate() {
            let expected = spec.run(op);
            let got = stack.run(op);
            if got != expected {
                disagree(format!(
                    "seed {seed} step {i} {op:x?}: {got:x?}, not {expected:x?}"
                ));
            }
        }
        let (period, hz) = stack.pit_period();
        if period != spec.pit_period(hz) {
            disagree(format!("seed {seed}: a timer period of {period} cycles"));
        }
        if stack.console() != String::from_utf8_lossy(&spec.uart) {
            disagree(format!("seed {seed}: console {:?}", stack.console()));
        }
    }

    let mut wrong = BTreeMap::new();
    for seed in 0..CASES as u64 {
        replay(Platform::new(), seed, &mut wrong);
        replay(Vmm::new(), seed, &mut wrong);
        replay(Baseline::new(), seed, &mut wrong);
    }
    assert!(
        wrong.is_empty(),
        "models that disagree with the data sheet: {wrong:#?}"
    );
}

/// What still differs between the device models by design, pinned so
/// it is a documented line and not folklore (DESIGN §7): each row of
/// the table, as the three stacks answer it today.
#[test]
fn recorded_divergence_between_the_models_of_a_legacy_device() {
    use devices::{Baseline, Op, Platform, Stack, Vmm, GOOD_LIST, ZERO_LIST};
    use nova_hw::ahci::{regs, P0IS_TFES};
    use nova_x86::insn::OpSize::{Byte, Dword};

    /// The values `ops` read back.
    fn reads(stack: &mut impl Stack, ops: &[Op]) -> Vec<u32> {
        ops.iter().filter_map(|&op| stack.run(op)).collect()
    }
    let stacks = || {
        let mut all = (Platform::new(), Vmm::new(), Baseline::new());
        devices::write_commands(&mut all.0);
        devices::write_commands(&mut all.1);
        devices::write_commands(&mut all.2);
        all
    };

    // GHC.HR: the platform controller resets — the driver's way out of
    // a wedged DMA engine; the virtual ones cannot abort what the
    // physical one is doing and ignore it.
    let (mut p, mut v, mut b) = stacks();
    let hr = [
        Op::Store(regs::P0CLB, GOOD_LIST as u32),
        Op::Store(regs::P0IE, 1),
        Op::Store(regs::P0CI, 1),
        Op::Store(regs::GHC, 1),
        Op::Load(regs::P0CLB),
        Op::Load(regs::P0IE),
        Op::Load(regs::P0CI),
    ];
    assert_eq!(reads(&mut p, &hr), [0, 0, 0]);
    assert_eq!(reads(&mut v, &hr), [GOOD_LIST as u32, 1, 1]);
    assert_eq!(reads(&mut b, &hr), [GOOD_LIST as u32, 1, 1]);

    // P0FB: the VMM's controller has no received-FIS area; the
    // baseline's register file keeps the base, as the platform's does.
    let fb = [Op::Store(regs::P0FB, 0x12_3000), Op::Load(regs::P0FB)];
    assert_eq!(reads(&mut p, &fb), [0x12_3000]);
    assert_eq!(reads(&mut v, &fb), [0]);
    assert_eq!(reads(&mut b, &fb), [0x12_3000]);

    // A command that is no command: every controller fails the slot at
    // the doorbell, the baseline's through the vAHCI's parser.
    let (mut p, mut v, mut b) = stacks();
    let junk = [
        Op::Store(regs::P0CLB, ZERO_LIST as u32),
        Op::Store(regs::P0CI, 1),
        Op::Load(regs::P0CI),
        Op::Load(regs::P0IS),
    ];
    let vmm = reads(&mut v, &junk);
    assert_eq!(vmm, [0, P0IS_TFES]);
    assert_eq!(reads(&mut p, &junk), vmm);
    assert_eq!(reads(&mut b, &junk), vmm);

    // The NIC's function (device 3) is on the platform's bus alone: a
    // VM gets the paravirtual NIC, which is not a PCI device. The
    // baseline's bus is the VMM's.
    let nic = [
        Op::Out(0xcf8, Dword, 1 << 31 | 3 << 11),
        Op::In(0xcfc, Dword),
    ];
    assert_eq!(reads(&mut p, &nic), [0x10de_8086]);
    let vmm = reads(&mut v, &nic);
    assert_eq!(vmm, [0xffff_ffff]);
    assert_eq!(reads(&mut b, &nic), vmm);

    // The configuration mechanism and the keyboard controller: one
    // legacy set, the VMM's and the baseline's.
    let ahci = [
        Op::Out(0xcf8, Dword, 1 << 31 | 2 << 11),
        Op::In(0xcfc, Dword),
    ];
    let key = [Op::Key(0x1e), Op::In(0x64, Byte), Op::In(0x60, Byte)];
    for (ops, platform) in [(&ahci[..], &[0x2922_8086][..]), (&key, &[1, 0x1e])] {
        assert_eq!(reads(&mut p, ops), platform);
        let vmm = reads(&mut v, ops);
        assert_eq!(vmm, platform);
        assert_eq!(reads(&mut b, ops), vmm);
    }
}
