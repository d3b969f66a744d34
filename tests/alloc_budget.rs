//! The allocation budget of the steady-state I/O path (DESIGN §4): a
//! VM exit, a device command and a checkpoint tick allocate nothing
//! once the buffers they reuse have been sized. A counting global
//! allocator counts the calling thread's allocations only — a `const`
//! thread-local — so tests running in parallel do not leak into each
//! other's counts.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;

use nova_core::RunOutcome;
use nova_guest::diskload::{self, DiskLoadParams};
use nova_guest::os::{build_os, OsParams};
use nova_guest::pvdiskload::{self, PvDiskLoadParams};
use nova_hw::ahci::{cmd, regs, Ahci, DiskParams, P0IS_DHRS, SECTOR};
use nova_hw::device::DeviceBus;
use nova_hw::iommu::Iommu;
use nova_hw::mem::PhysMem;
use nova_hw::Cycles;
use nova_user::root::RootPm;
use nova_vmm::checkpoint::View;
use nova_vmm::{LaunchOptions, System, VmmConfig};
use nova_x86::insn::OpSize;
use nova_x86::reg::Reg;
use nova_x86::MemRef;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread past its thread-locals' teardown has nothing to count.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards to the system allocator with the
// caller's own layout and pointer; the count is a statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count();
        // SAFETY: `l` is the caller's layout, passed through unchanged.
        unsafe { Heap.alloc(l) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count();
        // SAFETY: as in `alloc`.
        unsafe { Heap.alloc_zeroed(l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        count();
        // SAFETY: `p` was returned by this allocator for layout `l`.
        unsafe { Heap.realloc(p, l, new) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: `p` was returned by this allocator for layout `l`.
        unsafe { Heap.dealloc(p, l) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What `f` returns, and how many allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

const BASE: u64 = 0xfeb0_0000;
const CLB: u64 = 0x10_0000;
const CTBA: u64 = 0x10_1000;
/// Where the reads land: page offset 0xf00, so every buffer crosses a
/// page.
const BUF: u64 = 0x20_0f00;

/// The platform AHCI on a bus of its own, as `hw::ahci`'s tests drive
/// it.
struct Hba {
    bus: DeviceBus,
    mem: PhysMem,
    dev: usize,
    now: Cycles,
}

impl Hba {
    fn new() -> Hba {
        let mut bus = DeviceBus::new(Iommu::disabled());
        let dev = bus.add_device(Box::new(Ahci::new(DiskParams::sata_250g(), 11)));
        bus.map_mmio(BASE, 0x1000, dev);
        let mut hba = Hba {
            bus,
            mem: PhysMem::new(16 << 20),
            dev,
            now: 0,
        };
        hba.write(regs::P0CLB, CLB as u32);
        hba.write(regs::P0IE, 1);
        hba
    }

    fn write(&mut self, reg: u32, val: u32) {
        let at = BASE + reg as u64;
        self.bus
            .mmio_write(&mut self.mem, self.now, at, OpSize::Dword, val);
    }

    fn read(&mut self, reg: u32) -> u32 {
        let at = BASE + reg as u64;
        self.bus
            .mmio_read(&mut self.mem, self.now, at, OpSize::Dword)
    }

    /// Lays out a read of `sectors` from `lba` as slot 0's command,
    /// scattered over `prdt` (bus address, bytes).
    fn put_read(&mut self, lba: u64, sectors: u16, prdt: &[(u64, u32)]) {
        let hdr = cmd::Header {
            prdtl: prdt.len() as u16,
            ctba: CTBA,
        };
        let cfis = cmd::Cfis {
            write: false,
            lba,
            sectors,
        };
        self.mem.write_bytes(CLB, &hdr.encode());
        self.mem.write_bytes(CTBA, &cfis.encode());
        for (i, &(dba, bytes)) in prdt.iter().enumerate() {
            let at = CTBA + cmd::PRDT_OFFSET + (i * cmd::PRD_LEN) as u64;
            self.mem.write_bytes(at, &cmd::prd::encode(dba, bytes));
        }
    }

    /// Rings slot 0, runs its command to completion and acknowledges
    /// the interrupt as the disk server does.
    fn run_command(&mut self) {
        self.write(regs::P0CI, 1);
        self.now = self.bus.next_event_due().expect("completion scheduled");
        self.bus.process_events(&mut self.mem, self.now);
        let is = self.read(regs::IS);
        self.write(regs::IS, is);
        let p0is = self.read(regs::P0IS);
        self.write(regs::P0IS, p0is);
        assert_eq!((p0is, self.read(regs::P0CI)), (P0IS_DHRS, 0));
    }
}

/// `sectors` split into `entries` runs of whole sectors (fewer if
/// there are fewer sectors), laid end to end from [`BUF`].
fn scatter(sectors: u16, entries: u16) -> Vec<(u64, u32)> {
    let n = entries.min(sectors);
    let mut at = BUF;
    (0..n)
        .map(|i| {
            let run = sectors / n + if i == n - 1 { sectors % n } else { 0 };
            let bytes = run as u32 * SECTOR;
            at += bytes as u64;
            (at - bytes as u64, bytes)
        })
        .collect()
}

/// After one command has sized the controller's buffers — the largest
/// transfer (128 sectors in one descriptor) and the longest PRDT
/// (three descriptors, two of them past the transfer's end) — a read
/// moves its bytes and allocates nothing.
#[test]
fn an_ahci_read_allocates_nothing_after_the_first() {
    let mut hba = Hba::new();
    hba.put_read(0, 128, &[(BUF, 128 * SECTOR), (BUF, SECTOR), (BUF, SECTOR)]);
    hba.run_command();
    for i in 0..64u64 {
        let sectors = [1, 8, 128][i as usize % 3];
        let prdt = scatter(sectors, 1 + (i / 3 % 3) as u16);
        let lba = 1000 * i + 7;
        hba.put_read(lba, sectors, &prdt);
        let ((), n) = allocations(|| hba.run_command());
        assert_eq!(n, 0, "read {i}: {sectors} sectors over {prdt:x?}");
        let got = hba.mem.read_bytes(BUF, sectors as usize * SECTOR as usize);
        let ahci = hba.bus.typed_mut::<Ahci>(hba.dev).expect("the controller");
        let want: Vec<u8> = (lba..lba + sectors as u64)
            .flat_map(|s| ahci.sector(s))
            .collect();
        assert!(got == want, "read {i}: the data is the disk's");
    }
}

/// Simulated cycles of one `System::run` slice: the warm-up one and
/// the checked one.
const SLICE: u64 = 10_000_000;

/// Runs one warm-up slice of `sys`, then requires the next slice to
/// make progress — `progress` counts it, `what`, from the kernel's
/// counters — without allocating.
fn steady_slice_allocates_nothing(
    mut sys: System,
    what: &str,
    progress: fn(&nova_core::Counters) -> u64,
) {
    assert_eq!(sys.run(Some(SLICE)), RunOutcome::Budget, "warm-up");
    let before = progress(&sys.k.counters);
    let (out, n) = allocations(|| sys.run(Some(SLICE)));
    assert_eq!(out, RunOutcome::Budget);
    let done = progress(&sys.k.counters) - before;
    assert!(done > 0, "the checked slice made no {what}");
    assert_eq!(n, 0, "{n} allocations over {done} {what}");
}

/// A VM exit — the kernel's dispatch, the portal IPC to the VMM, the
/// emulation, the reply and the run queue's requeue and pick — allocates
/// nothing: a guest looping over CPUID, a UART port read and an AHCI
/// register read runs a slice of exits after its warm-up slice without
/// one. (A run queue that rebuilt a class FIFO on each enqueue made one
/// allocation per exit.)
#[test]
fn a_vm_exit_allocates_nothing_in_steady_state() {
    let prog = build_os(OsParams::minimal(), |a, _| {
        let top = a.here_label();
        a.mov_ri(Reg::Eax, 0);
        a.cpuid();
        a.mov_ri(Reg::Edx, 0x3fd);
        a.in_al_dx();
        let p0ci = nova_hw::machine::AHCI_BASE as u32 + regs::P0CI;
        a.mov_rm(Reg::Eax, MemRef::abs(p0ci));
        a.jmp(top);
    });
    let sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(prog, 1024)));
    steady_slice_allocates_nothing(sys, "exits", |c| c.total_exits());
}

/// The same exits with a kernel timer firing among them: the guest
/// programs its virtual PIT at 10 kHz, so the VMM arms a kernel timer
/// that `Kernel::fire_timers` signals about every 267 k cycles, and the
/// VMM injects the tick. `LaunchOptions::standard` also arms the
/// hypervisor's own 1 kHz scheduling timer, as every benchmark workload
/// does. The checked slice then covers a timer's firing, its semaphore
/// signal, the VMM's activation and the injection without one
/// allocation. (A `Vec` allocated per firing in `fire_timers` passed
/// the slice above, which arms no kernel timer, and fails this one.)
#[test]
fn a_vm_exit_allocates_nothing_with_a_kernel_timer_firing() {
    let params = OsParams {
        timer_divisor: Some(119),
        ..OsParams::minimal()
    };
    let prog = build_os(params, |a, _| {
        let top = a.here_label();
        a.mov_ri(Reg::Eax, 0);
        a.cpuid();
        a.mov_ri(Reg::Edx, 0x3fd);
        a.in_al_dx();
        a.jmp(top);
    });
    let opts = LaunchOptions::standard(VmmConfig::full_virt(prog, 1024));
    assert_eq!(opts.kernel.scheduler_timer_hz, Some(1000));
    steady_slice_allocates_nothing(System::build(opts), "timer injections", |c| c.injected_virq);
}

/// The trapped-MMIO disk path end to end — the guest's vAHCI exits,
/// the VMM's requests to the disk server, the server's commands and
/// completions — allocates nothing once the first requests have sized
/// its buffers.
#[test]
fn an_ahci_diskload_allocates_nothing_after_its_first_requests() {
    let prog = diskload::build(DiskLoadParams {
        requests: 1000,
        block_bytes: 4096,
    });
    let sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(prog, 1024)));
    steady_slice_allocates_nothing(sys, "disk commands", |c| c.disk_ops);
}

/// The recovery workload's shape: PV disk reads in a 4 MB guest under
/// a 500 k-cycle checkpoint cadence.
fn recover_shaped() -> System {
    let prog = pvdiskload::build(PvDiskLoadParams {
        requests: 128,
        block_bytes: 4096,
        batch: 8,
    });
    let mut cfg = VmmConfig::full_virt(prog, 1024);
    cfg.pv_disk = true;
    let mut opts = LaunchOptions::microrebootable(cfg);
    opts.microreboot = Some(500_000);
    System::build(opts)
}

/// `(seq, stored pages)` of the checkpoint root holds.
fn held_image(sys: &mut System) -> (u64, Vec<usize>) {
    let (root, slot) = (sys.root, sys.microreboot.expect("supervised vm"));
    let rp = sys.k.component_mut::<RootPm>(root).expect("root pm");
    let sup = rp.vmm_supervision[slot].as_ref().expect("supervised vm");
    let blob = sup.last_checkpoint.as_deref().unwrap_or_default();
    View::parse(blob).map_or((0, Vec::new()), |v| {
        (v.seq, v.pages().map(|(i, _)| i).collect())
    })
}

/// A checkpoint tick — vCPU export, device state, the in-place refresh
/// of root's blob — allocates nothing when every page it copies is one
/// the image already stores: called directly between `System::run`
/// slices, from the second capture to the end of the workload. Every
/// third tick follows a move of root's `MemSpace` generation, so the
/// kernel cuts root's window into runs again, into the room the recipe
/// reserved for them.
#[test]
fn a_checkpoint_tick_allocates_nothing_in_steady_state() {
    let mut sys = recover_shaped();
    let (root, root_ctx, slot) = (sys.root, sys.root_ctx, sys.microreboot.expect("slot"));
    let (mut ticks, mut checked, mut recut) = (0, 0, 0);
    loop {
        let out = sys.run(Some(100_000));
        if out == RunOutcome::Shutdown(0) {
            break;
        }
        assert_eq!(out, RunOutcome::Budget);
        let moved = ticks % 3 == 2;
        if moved {
            sys.k.obj.pd_mut(root_ctx.pd).mem.invalidate_cache();
        }
        let (seq, before) = held_image(&mut sys);
        let (_, n) = allocations(|| {
            sys.k
                .invoke_component::<RootPm, _>(root, |rp, k| rp.checkpoint_vm(k, root_ctx, slot))
        });
        let (after_seq, after) = held_image(&mut sys);
        assert_eq!(after_seq, seq + 1, "the tick took a checkpoint");
        ticks += 1;
        if ticks > 1 && after.iter().all(|p| before.binary_search(p).is_ok()) {
            assert_eq!(n, 0, "tick {ticks} (checkpoint {after_seq})");
            checked += 1;
            recut += moved as usize;
        }
    }
    assert!(
        checked >= 16 && recut >= 4,
        "only {checked} of {ticks} ticks were checked, {recut} after a generation move"
    );
}
