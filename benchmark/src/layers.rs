//! Per-layer host-time metrics, every one measured from outside: by
//! timing calls into a layer's public functions, or by differencing
//! whole runs that differ in one mechanism. Each row names the layer
//! (`crate.module`) it belongs to; `README.md` says which end-to-end
//! metric each should move.

use std::hint::black_box;
use std::time::Instant;

use nova_bench::configs::{run_direct_limit, GUEST_PAGES};
use nova_core::cap::{CapSpace, Capability, Perms};
use nova_core::hostpt::{FrameAllocator, NestedTable, ShadowPt};
use nova_core::kernel::VcpuSnapshot;
use nova_core::mdb::MapDb;
use nova_core::obj::{MemMapping, MemRights, MemSpace, ObjRef, SmId};
use nova_core::{CompCtx, Component, Hypercall, Kernel, KernelConfig, PdId, Utcb};
use nova_guest::os::Program;
use nova_hw::cpu::NativeStop;
use nova_hw::machine::{Machine, MachineConfig};
use nova_hw::mem::PhysMem;
use nova_hw::tlb::{Tlb, TlbEntry};
use nova_user::RootPm;
use nova_vmm::Checkpoint;
use nova_x86::decode::decode;
use nova_x86::exec::{execute, Env, Fault};
use nova_x86::insn::{AluOp, Insn, MemRef, OpSize};
use nova_x86::paging::{pte, Access, NestedFormat};
use nova_x86::reg::{Reg, Regs};
use nova_x86::Asm;

use crate::harness::{stats, time_op, Stats};
use crate::report::{floor_ns, Row};
use crate::workloads::{
    build_guest, compile_params, run_rep, storm_guest, Rep, Size, StormKind, Workload, STORM_BLOCK,
};

/// How long each measurement may take.
#[derive(Clone, Copy)]
pub struct Effort {
    /// Host-time budget of one `time_op` microbenchmark, ms.
    pub micro_ms: u64,
    /// Repetitions of each whole run that is differenced.
    pub run_reps: usize,
    /// Scale of the whole runs.
    pub size: Size,
}

impl Effort {
    /// Measurement effort.
    pub const FULL: Effort = Effort {
        micro_ms: 100,
        run_reps: 5,
        size: Size::Full,
    };
    /// Smoke effort: every metric present, none of them steady.
    pub const SMOKE: Effort = Effort {
        micro_ms: 2,
        run_reps: 1,
        size: Size::Smoke,
    };

    /// The effort that goes with a workload size.
    pub fn of(size: Size) -> Effort {
        match size {
            Size::Smoke => Effort::SMOKE,
            _ => Effort::FULL,
        }
    }
}

/// The layer table plus the native reference the compile workloads'
/// `sim_rel_native_pct` needs.
pub struct Layers {
    /// One row per workload-independent per-layer metric.
    pub rows: Vec<Row>,
    /// Simulated cycles of the compile guest run natively.
    pub native_compile_cycles: f64,
}

/// A flat 64 KB memory with no devices: the smallest `Env` that lets
/// `execute` run, so `x86.exec.ns` times the executor and nothing else.
struct FlatEnv {
    mem: Vec<u8>,
}

impl Env for FlatEnv {
    type Err = Fault;
    fn read_mem(&mut self, addr: u32, size: OpSize) -> Result<u32, Fault> {
        let a = addr as usize & 0xfff8;
        let word = u32::from_le_bytes([
            self.mem[a],
            self.mem[a + 1],
            self.mem[a + 2],
            self.mem[a + 3],
        ]);
        Ok(match size {
            OpSize::Byte => word & 0xff,
            OpSize::Dword => word,
        })
    }
    fn write_mem(&mut self, addr: u32, size: OpSize, val: u32) -> Result<(), Fault> {
        let a = addr as usize & 0xfff8;
        let n = match size {
            OpSize::Byte => 1,
            OpSize::Dword => 4,
        };
        self.mem[a..a + n].copy_from_slice(&val.to_le_bytes()[..n]);
        Ok(())
    }
    fn io_in(&mut self, _port: u16, _size: OpSize) -> Result<u32, Fault> {
        Ok(0)
    }
    fn io_out(&mut self, _port: u16, _size: OpSize, _val: u32) -> Result<(), Fault> {
        Ok(())
    }
    fn cpuid(&mut self, _leaf: u32) -> [u32; 4] {
        [0; 4]
    }
    fn rdtsc(&mut self) -> u64 {
        0
    }
}

/// A straight-line instruction mix (moves, ALU, loads, stores, stack)
/// as raw bytes and decoded.
fn instruction_mix() -> (Vec<u8>, Vec<Insn>) {
    let mut a = Asm::new(0x1000);
    a.mov_ri(Reg::Eax, 0x1234_5678);
    a.mov_ri(Reg::Ebx, 0x2000);
    a.mov_mr(MemRef::base_disp(Reg::Ebx, 16), Reg::Eax);
    a.mov_rm(Reg::Ecx, MemRef::base_disp(Reg::Ebx, 16));
    a.alu_rr(AluOp::Add, Reg::Eax, Reg::Ecx);
    a.alu_rm(AluOp::Xor, Reg::Eax, MemRef::base_disp(Reg::Ebx, 16));
    a.add_ri(Reg::Ebx, 4);
    a.cmp_ri(Reg::Eax, 7);
    a.lea(Reg::Edx, MemRef::base_disp(Reg::Ebx, 64));
    a.push_r(Reg::Eax);
    a.pop_r(Reg::Edx);
    a.shl_ri(Reg::Eax, 3);
    a.inc_r(Reg::Ecx);
    a.dec_r(Reg::Ecx);
    a.mov_rr(Reg::Esi, Reg::Eax);
    a.test_rr(Reg::Esi, Reg::Esi);
    let bytes = a.finish();
    let mut insns = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let i = decode(&bytes[pos..]).expect("assembler output decodes");
        pos += i.len as usize;
        insns.push(i);
    }
    (bytes, insns)
}

struct Echo;
impl Component for Echo {
    fn name(&self) -> &str {
        "echo"
    }
    fn on_call(&mut self, _k: &mut Kernel, _c: CompCtx, _p: u64, u: &mut Utcb) {
        u.set_msg(&[]);
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A booted kernel with root and an echo portal at selector 0x20, in
/// root's own PD or (cross) in a PD of its own.
fn echo_kernel(cross: bool) -> (Kernel, CompCtx) {
    let m = Machine::new(MachineConfig::core_i7(32 << 20));
    let mut k = Kernel::new(m, KernelConfig::default());
    let (rc, re) = k.load_component(k.root_pd, 0, Box::new(RootPm::new()));
    k.start_component(rc, re);
    let ctx = k
        .component_mut::<RootPm>(rc)
        .and_then(|r| r.ctx)
        .expect("root started");
    let pd = if cross {
        k.hypercall(
            ctx,
            Hypercall::CreatePd {
                name: "echo".into(),
                vm: None,
                dst: 10,
            },
        )
        .expect("create pd");
        PdId(1)
    } else {
        k.root_pd
    };
    let (comp, ec) = k.load_component(pd, 0, Box::new(Echo));
    k.start_component(comp, ec);
    k.hypercall(
        CompCtx { pd, ec, comp },
        Hypercall::CreatePt {
            ec: nova_core::kernel::SEL_SELF_EC,
            mtd: 0,
            id: 1,
            dst: 0x20,
        },
    )
    .expect("create portal");
    if cross {
        // Boot-time wiring, as in `fig8_ipc`: hand root the portal.
        let cap = k.obj.pd(pd).caps.get(0x20).expect("portal cap");
        k.obj.pd_mut(k.root_pd).caps.set(0x20, cap);
    }
    (k, ctx)
}

fn ipc_ns(cross: bool, ms: u64) -> Stats {
    let (mut k, ctx) = echo_kernel(cross);
    time_op(20_000, ms, || {
        let mut utcb = Utcb::new();
        k.ipc_call(ctx, 0x20, &mut utcb).expect("ipc");
        black_box(&utcb);
    })
}

fn memspace() -> MemSpace {
    let mut ms = MemSpace::default();
    for p in 0..GUEST_PAGES {
        ms.map(
            p,
            MemMapping {
                hpa: (p + 0x100) << 12,
                rights: MemRights::RW,
            },
        );
    }
    ms
}

/// What a native run of a guest image reports.
struct Native {
    /// Host ns of each 100 k-cycle slice of the run.
    slices_ns: Vec<u64>,
    /// Simulated cycles to shutdown.
    cycles: u64,
    /// Instructions retired.
    instret: u64,
}

/// Runs a guest image on the bare machine, as
/// `nova_baseline::run_native_image` does, but in timed slices:
/// `run_native` checks its budget before it touches any state, so the
/// sliced run is the unsliced one.
fn native(prog: &Program) -> Native {
    let mut m = Machine::new(MachineConfig {
        cost: nova_hw::cost::BLM,
        ram: 96 << 20,
        iommu: true,
        cpus: 1,
    });
    m.bus.iommu = nova_hw::iommu::Iommu::disabled();
    m.load_image(prog.load_gpa, &prog.bytes);
    m.cpus[0].regs.eip = prog.entry;
    m.cpus[0].regs.set(Reg::Esp, prog.stack);
    let mut slices_ns = Vec::new();
    loop {
        let t0 = Instant::now();
        let stop = m.run_native(Some(100_000));
        slices_ns.push(t0.elapsed().as_nanos() as u64);
        match stop {
            NativeStop::Budget if m.clock < 2_000_000_000_000 => {}
            NativeStop::Shutdown(0) => break,
            other => panic!("native run ended {other:?}"),
        }
    }
    Native {
        slices_ns,
        cycles: m.clock,
        instret: m.cpus[0].instret,
    }
}

/// Microbenchmarks: one public function per row, timed in a loop.
fn micro(e: Effort, rows: &mut Vec<Row>) {
    let ms = e.micro_ms;
    let mut ns = |name: &str, s: Stats| rows.push(Row::layer(name, "ns", s));

    let (bytes, insns) = instruction_mix();
    let per_insn = |s: Stats| s.scaled(1.0 / insns.len() as f64);
    ns(
        "x86.decode.ns",
        per_insn(time_op(20_000, ms, || {
            let mut pos = 0;
            while pos < bytes.len() {
                let i = decode(black_box(&bytes[pos..])).expect("decodes");
                pos += i.len as usize;
                black_box(&i);
            }
        })),
    );
    let mut env = FlatEnv {
        mem: vec![0; 0x1_0000],
    };
    let mut regs = Regs::at(0x1000);
    ns(
        "x86.exec.ns",
        per_insn(time_op(20_000, ms, || {
            regs.set(Reg::Esp, 0x8000);
            for i in &insns {
                black_box(execute(i, &mut regs, &mut env).expect("flat memory cannot fault"));
            }
        })),
    );

    let mut tlb = Tlb::new();
    for vpn in 0..256u64 {
        tlb.insert(TlbEntry {
            vpid: 1,
            vpn,
            hpa: vpn << 12,
            page_size: 4096,
            write: true,
        });
    }
    let mut a = 0u64;
    ns(
        "hw.tlb.lookup_ns",
        time_op(1_000_000, ms, || {
            a = (a + 4096) % (256 << 12);
            black_box(tlb.lookup(1, black_box(a)));
        }),
    );

    let cost = nova_hw::cost::BLM;
    let mut mem = PhysMem::new(32 << 20);
    let (root, pt) = (0x10_0000u32, 0x11_0000u32);
    mem.write_u32(root as u64 + 4, pt | pte::P | pte::W);
    for i in 0..1024u64 {
        mem.write_u32(
            pt as u64 + i * 4,
            ((0x20_0000 + i * 4096) as u32) | pte::P | pte::W,
        );
    }
    let mut cyc = 0;
    let mut va = 0x40_0000u32;
    ns(
        "hw.mmu.walk2_ns",
        time_op(500_000, ms, || {
            va = 0x40_0000 | (va.wrapping_add(4096) & 0x3f_f000);
            black_box(
                nova_hw::mmu::walk_2level(
                    &mem,
                    root,
                    black_box(va),
                    Access::READ,
                    false,
                    &cost,
                    &mut cyc,
                )
                .expect("mapped"),
            );
        }),
    );
    let mut alloc = FrameAllocator::new(24 << 20, 8 << 20);
    let fmt = NestedFormat::Ept4Level;
    let mut nested = NestedTable::new(fmt, &mut alloc, &mut mem);
    for p in 0..1024u64 {
        nested.map_page(&mut mem, &mut alloc, p << 12, (p + 0x200) << 12, true);
    }
    let mut gpa = 0u64;
    ns(
        "hw.mmu.walk_nested_ns",
        time_op(500_000, ms, || {
            gpa = (gpa + 4096) % (1024 << 12);
            black_box(
                nova_hw::mmu::walk_nested(
                    &mem,
                    nested.root,
                    fmt,
                    black_box(gpa),
                    Access::READ,
                    &cost,
                    &mut cyc,
                )
                .expect("mapped"),
            );
        }),
    );

    let radix = memspace();
    let mut a = 0u64;
    ns(
        "core.memspace.translate_hot_ns",
        time_op(1_000_000, ms, || {
            a = (a + 4096) % (64 << 12);
            black_box(radix.translate(black_box(a | 0x7f4)));
        }),
    );
    ns(
        "core.memspace.translate_sweep_ns",
        time_op(1_000_000, ms, || {
            a = (a + 4096) % (GUEST_PAGES << 12);
            black_box(radix.translate(black_box(a)));
        }),
    );
    ns("core.ipc.call_ns", ipc_ns(false, ms));
    ns("core.ipc.call_cross_ns", ipc_ns(true, ms));

    let mut cs = CapSpace::new();
    for i in 0..512 {
        cs.set(
            i,
            Capability {
                obj: ObjRef::Sm(SmId(i)),
                perms: Perms::ALL,
            },
        );
    }
    let mut i = 0;
    ns(
        "core.cap.lookup_ns",
        time_op(1_000_000, ms, || {
            i = (i + 7) % 512;
            black_box(cs.get(black_box(i)));
        }),
    );
    ns(
        "core.mdb.delegate_revoke_ns",
        time_op(20_000, ms, || {
            let mut db: MapDb<u64> = MapDb::new();
            db.insert_root(0, 1);
            db.delegate((0, 1), (1, 1));
            db.delegate((1, 1), (2, 1));
            db.delegate((2, 1), (3, 1));
            let mut n = 0;
            db.revoke((0, 1), false, &mut |_| n += 1);
            black_box(n);
        }),
    );
    let mut shadow = ShadowPt::new(&mut alloc, &mut mem);
    let mut va = 0u32;
    ns(
        "core.hostpt.shadow_fill_ns",
        time_op(100_000, ms, || {
            // Stay inside 64 MB of VA so the frame pool is never
            // exhausted however long the budget lets this run.
            va = va.wrapping_add(4096) & 0x3ff_f000;
            shadow.fill(&mut mem, &mut alloc, black_box(va), 0x9000, true, true);
        }),
    );

    let mut buf = vec![0u8; 1 << 20];
    let copy = time_op(20, ms, || {
        mem.read_into(0x20_0000, &mut buf);
        mem.write_bytes(0x40_0000, black_box(&buf));
    });
    // 2 MB moved per call; bytes per ns is GB/s.
    rows.push(Row::layer(
        "hw.mem.copy_gbps",
        "GB/s",
        copy.rate(|ns_per_call| (2u64 << 20) as f64 / ns_per_call),
    ));

    // A checkpoint of `recover`'s shape, four times its size: one vCPU,
    // 16 MB of guest RAM.
    let ckpt = Checkpoint {
        seq: 1,
        vcpus: vec![VcpuSnapshot {
            regs: Regs::at(0x10_0000),
            halted: false,
            sti_shadow: false,
            injection: None,
            intwin_exit: false,
            recall_pending: false,
            tsc_offset: 0,
            blocked: false,
        }],
        vmm_state: vec![0x5a; 4096],
        guest_mem: (0..16u32 << 20).map(|i| (i >> 4) as u8).collect(),
    };
    let bytes = ckpt.to_bytes();
    let enc = time_op(1, ms, || {
        black_box(ckpt.to_bytes());
    });
    let dec = time_op(1, ms, || {
        black_box(Checkpoint::from_bytes(black_box(&bytes)).expect("round trip"));
    });
    for (name, s) in [
        ("vmm.checkpoint.encode_ms", enc),
        ("vmm.checkpoint.decode_ms", dec),
    ] {
        rows.push(Row::layer(name, "ms", s.scaled(1e-6)));
    }
}

/// Interpreter speed with no hypervisor in the way, and the native
/// reference run of the compile guest.
fn interpreter(e: Effort, seed: u64, rows: &mut Vec<Row>) -> f64 {
    // Tight ALU loop, no paging: the interpreter's ceiling.
    let mut m = Machine::new(MachineConfig::core_i7(16 << 20));
    let mut a = Asm::new(0x1000);
    a.mov_ri(Reg::Ecx, 100_000);
    let top = a.here_label();
    a.add_ri(Reg::Eax, 3);
    a.dec_r(Reg::Ecx);
    a.jcc(nova_x86::Cond::Ne, top);
    a.mov_ri(Reg::Edx, nova_hw::machine::DEBUG_EXIT_PORT as u32);
    a.out_dx_al();
    m.load_image(0x1000, &a.finish());
    let mut insns = 0;
    let per_call = time_op(1, e.micro_ms, || {
        let before = m.cpus[0].instret;
        m.cpus[0].regs = Regs::at(0x1000);
        m.cpus[0].regs.set(Reg::Esp, 0x8000);
        black_box(m.run_native(None));
        insns = m.cpus[0].instret - before;
    });
    // Instructions per call over ns per call, ×1000, is MIPS.
    rows.push(Row::layer(
        "hw.cpu.native_mips",
        "MIPS",
        per_call.rate(|ns| insns as f64 * 1e3 / ns),
    ));

    // Direct limit: nested paging, no intercepts, no hypervisor. It has
    // no disk server, so this compile guest never reads the disk.
    // `run_direct_limit` does not report retired instructions; the
    // native run of the same image retires the same program.
    let prog = nova_guest::compile::build(nova_guest::compile::CompileParams {
        disk_every: 0,
        ..compile_params(1)
    });
    let instret = native(&prog).instret;
    let direct_s: Vec<f64> = (0..e.run_reps)
        .map(|_| {
            let t0 = Instant::now();
            let r = run_direct_limit(
                nova_hw::cost::BLM,
                NestedFormat::Ept4Level,
                true,
                true,
                &prog,
                2_000_000_000_000,
            );
            assert!(r.ok, "direct-limit run finished");
            t0.elapsed().as_secs_f64()
        })
        .collect();
    rows.push(Row::layer(
        "hw.cpu.direct_mips",
        "MIPS",
        stats(&direct_s).rate(|secs| instret as f64 / secs / 1e6),
    ));

    // How much of `compile_ept`'s host time the interpreter owns: the
    // same image run natively against the full stack.
    let guest = build_guest(Workload::CompileEpt, seed, e.size);
    let natives: Vec<Native> = (0..e.run_reps).map(|_| native(&guest.prog)).collect();
    let native_ns = floor_ns(natives.iter().map(|n| n.slices_ns.as_slice()));
    let (stack_ns, _) = floor_of(e.run_reps, || {
        run_rep(
            Workload::CompileEpt,
            || build_guest(Workload::CompileEpt, seed, e.size),
            false,
            true,
        )
    });
    rows.push(Row::derived(
        "hw.interp_share",
        "ratio",
        native_ns / stack_ns,
    ));
    natives[0].cycles as f64
}

/// Slice-wise floor of `System.run` host ns over `reps` repetitions of
/// `run`, and the last repetition (for its counters).
fn floor_of(reps: usize, mut run: impl FnMut() -> Rep) -> (f64, Rep) {
    let done: Vec<Rep> = (0..reps).map(|_| run()).collect();
    for r in &done {
        assert!(r.checks.failed == 0, "layer run: {:?}", r.checks.failures);
    }
    let floor = floor_ns(done.iter().map(|r| r.slices_ns.as_slice()));
    (floor, done.into_iter().next_back().expect("reps >= 1"))
}

/// Host time per exit of each kind, and per checkpoint, by
/// differencing whole runs.
fn stack(e: Effort, seed: u64, rows: &mut Vec<Row>) {
    let loops = match e.size {
        Size::Smoke => 20,
        _ => 2000,
    };
    let mut per_kind = Vec::new();
    for (kind, name, _) in StormKind::ALL {
        let (ns, rep) = floor_of(e.run_reps, || {
            run_rep(
                Workload::ExitStorm,
                || storm_guest(&[kind; STORM_BLOCK], loops),
                false,
                true,
            )
        });
        let per_exit = ns / rep.sim("core.exits.total");
        rows.push(Row::derived(
            &format!("stack.exit_ns.{name}"),
            "ns",
            per_exit,
        ));
        per_kind.push(per_exit);
    }
    // MMIO minus CPUID: what the VMM's fetch + decode + gva_to_gpa +
    // device model add to the bare exit → IPC → reply path.
    rows.push(Row::derived("vmm.emu.ns", "ns", per_kind[2] - per_kind[0]));

    let recover = |microreboot: bool| {
        floor_of(e.run_reps, || {
            run_rep(
                Workload::Recover,
                || build_guest(Workload::Recover, seed, e.size),
                false,
                microreboot,
            )
        })
    };
    let (with, rep) = recover(true);
    let (without, _) = recover(false);
    rows.push(Row::derived(
        "vmm.checkpoint.host_ms",
        "ms",
        (with - without) / 1e6 / rep.sim("vmm.checkpoints").max(1.0),
    ));
}

/// Measures every workload-independent per-layer metric.
pub fn measure(e: Effort, seed: u64) -> Layers {
    let mut rows = Vec::new();
    micro(e, &mut rows);
    let native_compile_cycles = interpreter(e, seed, &mut rows);
    stack(e, seed, &mut rows);
    Layers {
        rows,
        native_compile_cycles,
    }
}
