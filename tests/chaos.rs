//! Chaos tests: the full stack driven under seeded fault injection,
//! plus the supervision/recovery path (watchdog -> DestroyPd ->
//! respawn -> rewiring -> resubmission) exercised end-to-end. The platform's
//! fault injector is deterministic, so every assertion here is exact:
//! the same seed reproduces the same fault schedule, and the recovery
//! counters must balance the injected counts.

mod common;

use nova_core::cap::CapSel;
use nova_core::kernel::SEL_SELF_EC;
use nova_core::obj::MemRights;
use nova_core::utcb::{Utcb, XferItem};
use nova_core::{
    CompCtx, CompId, Component, HcErr, Hypercall, Kernel, KernelConfig, PdId, RunOutcome,
};
use nova_guest::diskload::{self, DiskLoadParams};
use nova_guest::os::{build_os, OsParams};
use nova_guest::rt;
use nova_hw::fault::{FaultKind, FaultPlan};
use nova_hw::machine::{Machine, MachineConfig};
use nova_trace::{cat, Kind};
use nova_user::disk::{DiskServerConfig, CMD_VA};
use nova_user::proto::disk as dproto;
use nova_user::root::{
    DiskRecipe, Grant, RespawnError, RootOps, RootPm, RETRY_BACKOFF, REVIVE_ATTEMPTS,
};
use nova_vmm::{GuestImage, LaunchOptions, System, VmmConfig};
use nova_x86::insn::{AluOp, Cond};
use nova_x86::reg::Reg;
use nova_x86::MemRef;

use common::{reader_guest, READER_BUF};

/// Number of disk requests the chaos guest issues.
const CHAOS_REQUESTS: u32 = 12;
/// Iterations of the co-resident integrity guest.
const WITNESS_ITERS: u32 = 6;

/// Checksum the witness guest computes on iteration `iter` (fill a
/// page with a rolling pattern, then sum it).
fn witness_checksum(iter: u32) -> u32 {
    let mut v = 0x1234_5678u32.wrapping_add(iter);
    let mut s = 0u32;
    for _ in 0..1024 {
        s = s.wrapping_add(v);
        v = v.wrapping_add(0x9e37_79b9);
    }
    s
}

/// A co-resident VM that repeatedly fills a page of its own RAM with
/// a pattern, checksums it, and reports the checksum through the mark
/// port — an integrity witness: faults injected into the disk path of
/// the *other* VM must never perturb these values.
fn witness_guest() -> GuestImage {
    build_os(OsParams::minimal(), |a, _| {
        a.mov_ri(Reg::Esi, 0);
        let iter = a.here_label();
        // Fill 0x8000..0x9000 with pattern(iter).
        a.mov_ri(Reg::Edi, 0x8000);
        a.mov_ri(Reg::Ecx, 1024);
        a.mov_ri(Reg::Eax, 0x1234_5678);
        a.alu_rr(AluOp::Add, Reg::Eax, Reg::Esi);
        let fill = a.here_label();
        a.mov_mr(MemRef::base_disp(Reg::Edi, 0), Reg::Eax);
        a.add_ri(Reg::Eax, 0x9e37_79b9);
        a.add_ri(Reg::Edi, 4);
        a.dec_r(Reg::Ecx);
        a.jcc(Cond::Ne, fill);
        // Checksum it back.
        a.mov_ri(Reg::Edi, 0x8000);
        a.mov_ri(Reg::Ecx, 1024);
        a.mov_ri(Reg::Ebx, 0);
        let sum = a.here_label();
        a.alu_rm(AluOp::Add, Reg::Ebx, MemRef::base_disp(Reg::Edi, 0));
        a.add_ri(Reg::Edi, 4);
        a.dec_r(Reg::Ecx);
        a.jcc(Cond::Ne, sum);
        // Report via the mark port.
        a.mov_rr(Reg::Eax, Reg::Ebx);
        a.mov_ri(Reg::Edx, 0xf5);
        a.out_dx_eax();
        a.inc_r(Reg::Esi);
        a.cmp_ri(Reg::Esi, WITNESS_ITERS);
        a.jcc(Cond::B, iter);
        // Done: spin (the disk guest's exit shuts the system down).
        let top = a.here_label();
        a.jmp(top);
    })
}

/// Builds the two-VM chaos system: a supervised disk-server stack
/// with the diskload guest, plus the co-resident witness VM.
fn chaos_system(plan: Option<FaultPlan>) -> System {
    let p = DiskLoadParams {
        requests: CHAOS_REQUESTS,
        block_bytes: 4096,
    };
    let mut opts = LaunchOptions::supervised(VmmConfig::full_virt(diskload::build(p), 2048));
    opts.machine.ram = 128 << 20;
    let mut sys = System::build(opts);
    sys.add_vm(VmmConfig::full_virt(witness_guest(), 1024));
    if let Some(plan) = plan {
        sys.k.machine.set_fault_plan(plan);
    }
    sys
}

/// The five-kind chaos plan. Small per-kind caps keep every faulted
/// request inside the server's retry budget, so the guest must stay
/// fault-oblivious.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with(FaultKind::AhciTaskFileError, 9000, 3)
        .with(FaultKind::AhciLostIrq, 9000, 3)
        .with(FaultKind::AhciSpuriousIrq, 9000, 3)
        .with(FaultKind::AhciStuckDma, 9000, 2)
        .with(FaultKind::IommuFault, 5000, 2)
}

const CHAOS_SEED: u64 = 0x5eed_c0ff_ee01;

/// Mark values emitted by the witness (everything except diskload's
/// begin/end marks).
fn witness_marks(sys: &System) -> Vec<u32> {
    sys.k
        .machine
        .marks()
        .iter()
        .map(|&(_, v)| v)
        .filter(|&v| v != 0x1000 && v != 0x1001)
        .collect()
}

/// The kernel's delegation state is what its own rule says it is
/// (`Kernel::check_invariants`): asked after every scenario and after
/// every respawn or revive, whatever the faults did in between.
#[track_caller]
fn assert_sound(k: &Kernel) {
    assert_eq!(k.check_invariants(), Ok(()));
}

/// Tentpole acceptance: five fault kinds injected into a live run;
/// the guest completes with correct data, the co-resident VM is
/// untouched, and the injected counts balance the recovery counters.
#[test]
fn chaos_five_fault_kinds_guest_unaffected() {
    let mut sys = chaos_system(Some(chaos_plan(CHAOS_SEED)));
    assert_sound(&sys.k);
    let out = sys.run(Some(60_000_000_000));
    assert_eq!(out, RunOutcome::Shutdown(0), "disk guest finishes cleanly");
    assert_sound(&sys.k);

    // All five enabled kinds actually fired.
    let injected = sys.k.machine.faults().injected;
    let inj = |k: FaultKind| injected[k as usize];
    for kind in [
        FaultKind::AhciTaskFileError,
        FaultKind::AhciLostIrq,
        FaultKind::AhciSpuriousIrq,
        FaultKind::AhciStuckDma,
        FaultKind::IommuFault,
    ] {
        assert!(inj(kind) >= 1, "{kind:?} never fired; pick another seed");
    }
    assert_eq!(sys.k.machine.faults().count(FaultKind::NicPacketDrop), 0);

    // The last block the guest read is bit-exact despite the chaos.
    let host = 0x1000 * 4096 + rt::layout::DISK_BUF as u64;
    let got = sys.k.machine.mem.read_bytes(host, 512);
    let lba_last = (CHAOS_REQUESTS as u64 - 1) * (4096 / 512);
    let expect = sys.k.machine.ahci().sector(lba_last);
    assert_eq!(got, expect, "guest data correct under fault injection");

    // The co-resident witness VM computed exactly the checksums a
    // fault-free machine computes.
    let marks = witness_marks(&sys);
    let expected: Vec<u32> = (0..WITNESS_ITERS).map(witness_checksum).collect();
    assert_eq!(marks, expected, "co-resident VM unperturbed");
    let baseline = {
        let mut sys = chaos_system(None);
        assert_eq!(sys.run(Some(60_000_000_000)), RunOutcome::Shutdown(0));
        witness_marks(&sys)
    };
    assert_eq!(marks, baseline, "witness marks identical to fault-free run");

    // Injected counters balance recovery/degradation counters.
    let c = &sys.k.counters;
    assert_eq!(c.disk_accepted, CHAOS_REQUESTS as u64, "no vAHCI resubmits");
    assert_eq!(c.disk_accepted, c.disk_ops);
    assert_eq!(c.disk_failed, 0, "no request exhausted its retry budget");
    assert_eq!(c.disk_rejected, 0);
    // Every task-file error — injected directly or produced by an
    // IOMMU-blocked DMA — was retried successfully.
    assert_eq!(
        c.disk_media_retries,
        inj(FaultKind::AhciTaskFileError) + inj(FaultKind::IommuFault),
        "every error completion was retried"
    );
    // Every wedged DMA was recovered by a controller reset.
    assert_eq!(c.controller_resets, inj(FaultKind::AhciStuckDma));
    // Every blocked DMA transaction was logged by the IOMMU.
    assert_eq!(
        sys.k.machine.bus.iommu.faults.len() as u64,
        inj(FaultKind::IommuFault)
    );
    // Lost completions were recovered — either by the timeout poll or
    // absorbed into a conveniently-timed spurious interrupt (in which
    // case neither counter ticks, pairwise).
    assert!(c.disk_lost_irq_recovered <= inj(FaultKind::AhciLostIrq));
    assert!(c.spurious_irqs <= inj(FaultKind::AhciSpuriousIrq));
    assert_eq!(
        c.disk_lost_irq_recovered + c.spurious_irqs,
        inj(FaultKind::AhciLostIrq) + inj(FaultKind::AhciSpuriousIrq)
            - 2 * (inj(FaultKind::AhciLostIrq) - c.disk_lost_irq_recovered),
        "lost/spurious interactions pair up"
    );
    // The supervisor never had to restart anything: degraded-mode
    // recovery handled every fault below the watchdog threshold.
    assert_eq!(c.driver_restarts, 0);
    assert_eq!(c.pd_deaths, 0);
    // Every reset re-issued the command it dropped, and no client had
    // to step in.
    assert_eq!(c.disk_reset_reissues, c.controller_resets);
    assert_eq!(c.client_resubmits, 0);
}

/// Determinism: the same seed over the same workload reproduces the
/// same fault schedule, cycle for cycle, and the same guest-visible
/// outcome.
#[test]
fn same_seed_reproduces_fault_schedule() {
    let run = || {
        let mut sys = chaos_system(Some(chaos_plan(CHAOS_SEED)));
        assert_eq!(sys.run(Some(60_000_000_000)), RunOutcome::Shutdown(0));
        assert_sound(&sys.k);
        sys
    };
    let a = run();
    let b = run();
    assert_eq!(a.k.machine.faults().injected, b.k.machine.faults().injected);
    assert_eq!(a.k.machine.faults().trace, b.k.machine.faults().trace);
    assert!(!a.k.machine.faults().trace.is_empty());
    assert_eq!(a.k.machine.clock, b.k.machine.clock);
    assert_eq!(a.k.machine.marks(), b.k.machine.marks());

    // A different seed produces a different schedule (the plans are
    // probabilistic draws, not fixed scripts).
    let mut c = chaos_system(Some(chaos_plan(CHAOS_SEED + 1)));
    assert_eq!(c.run(Some(60_000_000_000)), RunOutcome::Shutdown(0));
    assert_ne!(a.k.machine.faults().trace, c.k.machine.faults().trace);
}

/// Full-stack supervision: the disk server is killed mid-workload;
/// the watchdog fires, root destroys, respawns and rewires it, the VMM
/// starts its channels over and resubmits, and the guest finishes
/// with correct data, never seeing the crash.
#[test]
fn driver_crash_mid_workload_recovers_end_to_end() {
    let p = DiskLoadParams {
        requests: 10,
        block_bytes: 4096,
    };
    let mut sys = System::build(LaunchOptions::supervised(VmmConfig::full_virt(
        diskload::build(p),
        2048,
    )));

    // Run until the server has completed a couple of requests.
    loop {
        let out = sys.run(Some(100_000));
        assert_ne!(
            out,
            RunOutcome::Shutdown(0),
            "guest finished before the crash"
        );
        if sys.k.counters.disk_ops >= 2 {
            break;
        }
    }

    // Kill the driver domain the way a wild write would: a fault that
    // takes down the whole PD.
    let srv_pd = PdId(
        sys.k
            .obj
            .pds
            .iter()
            .position(|pd| pd.name == "disk-server")
            .unwrap() as u32,
    );
    sys.k.pd_fault(srv_pd, 0xdead);
    assert_eq!(sys.k.counters.pd_deaths, 1);
    assert_sound(&sys.k);

    // The system recovers on its own: watchdog -> root respawn and
    // rewiring -> resubmission of the in-flight request.
    let out = sys.run(Some(60_000_000_000));
    assert_eq!(
        out,
        RunOutcome::Shutdown(0),
        "guest completed after the crash"
    );
    assert_eq!(sys.k.counters.driver_restarts, 1);
    assert_sound(&sys.k);

    // Data integrity across the restart: the last block is correct.
    let host = 0x1000 * 4096 + rt::layout::DISK_BUF as u64;
    let got = sys.k.machine.mem.read_bytes(host, 512);
    let expect = sys.k.machine.ahci().sector(9 * (4096 / 512));
    assert_eq!(got, expect, "guest data correct across driver restart");
    // Both benchmark marks arrived: the guest never saw the crash.
    let vals: Vec<u32> = sys.k.machine.marks().iter().map(|&(_, v)| v).collect();
    assert_eq!(vals, vec![0x1000, 0x1001]);
}

/// A count survives what it counts: the five-kind faulted run with the
/// disk server killed under load. The incarnation that served the first
/// requests is gone — and with it anything it tallied in itself — yet
/// the registry ends at one completion per guest request, beside the
/// restart that would have zeroed a server-local count.
#[test]
fn disk_ops_counts_every_request_across_a_driver_restart() {
    let mut sys = chaos_system(Some(chaos_plan(CHAOS_SEED)));
    while sys.k.counters.disk_ops < 4 {
        assert_eq!(sys.run(Some(100_000)), RunOutcome::Budget);
    }
    kill_disk_server(&mut sys.k);
    assert_eq!(sys.run(Some(60_000_000_000)), RunOutcome::Shutdown(0));
    assert_sound(&sys.k);

    let c = &sys.k.counters;
    assert_eq!(c.driver_restarts, 1);
    assert_eq!(c.disk_ops, CHAOS_REQUESTS as u64);
    assert_eq!(c.disk_bytes, CHAOS_REQUESTS as u64 * 4096);
    assert_eq!(c.degraded_errors(), 0, "and none of them failed");
}

/// A test client that counts its completion/restart signals.
#[derive(Default)]
struct TestClient {
    signals: u64,
}

impl Component for TestClient {
    fn name(&self) -> &str {
        "test-client"
    }
    fn on_call(&mut self, _k: &mut Kernel, _c: CompCtx, _p: u64, _u: &mut Utcb) {}
    fn on_signal(&mut self, _k: &mut Kernel, _c: CompCtx, _sm: nova_core::SmId) {
        self.signals += 1;
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

struct Rig {
    k: Kernel,
    client_ctx: CompCtx,
    client_comp: CompId,
    ahci_dev: usize,
}

/// Boots root + supervised disk server + a bare client through the
/// calls the system builder makes: `start_disk_server`,
/// `supervise_disk_server` (root SC, watchdog semaphore,
/// `WatchdogArm`) and `wire_client` at slot 0 (the completion and
/// restart semaphores, `wire_disk_client` with the client's page 1 as
/// its completion ring, and both semaphores delegated DOWN to the
/// client at the protocol's well-known selectors, which it binds).
fn supervised_rig() -> Rig {
    let m = Machine::new(MachineConfig::core_i7(64 << 20));
    let mut k = Kernel::new(m, KernelConfig::default());
    let (root, root_ec) = k.load_component(k.root_pd, 0, Box::new(RootPm::new()));
    k.start_component(root, root_ec);
    let root_ctx = k.component_mut::<RootPm>(root).unwrap().ctx.unwrap();

    // The server and its supervision: the product recipe and helpers
    // `System::build` runs with `supervise`.
    let ahci_dev = k.machine.dev.ahci;
    let recipe = DiskRecipe::new(DiskServerConfig::supervised(), ahci_dev);
    k.invoke_component::<RootPm, _>(root, |rp, k| {
        rp.start_disk_server(k, root_ctx, &recipe)?;
        rp.supervise_disk_server(k, root_ctx, recipe, 8_000_000)
    })
    .unwrap()
    .unwrap();

    // The client: a PD with DMA-able memory and an SC, wired to the
    // server at client slot 0.
    let client_ram = Grant::Mem {
        base: 0x400,
        count: 64,
        rights: MemRights::RW_DMA,
        hot: 0,
    };
    let mut ops = RootOps::new(&mut k, root_ctx);
    let cl_sel = ops.alloc_sel();
    let cl_pd = ops.provision("client", cl_sel, &[client_ram]).unwrap();
    let (client_comp, client_ec) = k.load_component(cl_pd, 0, Box::<TestClient>::default());
    k.start_component(client_comp, client_ec);
    let client_ctx = CompCtx {
        pd: cl_pd,
        ec: client_ec,
        comp: client_comp,
    };
    k.invoke_component::<RootPm, _>(root, |rp, k| {
        rp.wire_client(k, root_ctx, 0, cl_sel, 0x401, 1)
    })
    .unwrap()
    .unwrap();
    k.hypercall(
        client_ctx,
        Hypercall::CreateSc {
            ec: SEL_SELF_EC,
            prio: 16,
            quantum: 100_000,
            dst: 0x22,
        },
    )
    .unwrap();

    // The semaphores: root keeps UP, the client binds DOWN.
    for sm in [dproto::CLIENT_SEL_DONE, dproto::CLIENT_SEL_RESTART] {
        k.hypercall(client_ctx, Hypercall::SmBind { sm }).unwrap();
    }

    Rig {
        k,
        client_ctx,
        client_comp,
        ahci_dev,
    }
}

/// A read into client pages 8.. at window page 0, through whatever
/// server answers slot 0's request portal now.
fn submit_read(r: &mut Rig, lba: u64, sectors: u32, tag: u64) -> u64 {
    let mut utcb = Utcb::new();
    let bytes = sectors as u64 * 512;
    utcb.set_msg(&[dproto::OP_READ, lba, sectors as u64, tag, 0, 1, 0, bytes]);
    utcb.xfer.push(XferItem {
        base: 8,
        count: bytes.div_ceil(4096),
        rights: MemRights::RW_DMA,
        hot: 0,
    });
    r.k.ipc_call(r.client_ctx, dproto::CLIENT_SEL_REQ as CapSel, &mut utcb)
        .unwrap();
    utcb.word(0)
}

/// What the client does on the restart signal: zero its ring (client
/// page 1), which the new server produces into from zero.
fn start_over(r: &mut Rig) {
    r.k.mem_write(r.client_ctx, 4096, &[0u8; 4096]);
}

fn client_signals(r: &mut Rig) -> u64 {
    let id = r.client_comp;
    r.k.component_mut::<TestClient>(id).unwrap().signals
}

/// Driver restart at the protocol level: after the crash, `DestroyPd`
/// has revoked the dead server's IOMMU mappings (client DMA window
/// included), the respawned server's own command memory is mapped
/// again, and a client that starts over through the rewired portal gets
/// correct data with no stale state.
#[test]
fn restart_revokes_iommu_mappings_and_client_reregisters() {
    let mut r = supervised_rig();
    let window = dproto::window_base(0);
    assert_eq!(submit_read(&mut r, 100, 8, 7), dproto::OK);
    assert_eq!(r.k.run(Some(100_000_000)), RunOutcome::Budget);
    assert_eq!(client_signals(&mut r), 1, "first request completed");
    let mut got = [0u8; 16];
    r.k.mem_read_into(r.client_ctx, 8 * 4096, &mut got).unwrap();
    assert_eq!(got[..], r.k.machine.ahci().sector(100)[..16]);

    // The delegated DMA window stands in the IOMMU while the server
    // lives...
    let dev = r.ahci_dev;
    assert!(r
        .k
        .machine
        .bus
        .iommu
        .translate(dev, window * 4096, true)
        .is_some());
    assert!(r.k.machine.bus.iommu.translate(dev, CMD_VA, true).is_some());

    // Crash the server; the death notification fires the watchdog and
    // root restarts it.
    let srv_pd = PdId(
        r.k.obj
            .pds
            .iter()
            .position(|pd| pd.name == "disk-server")
            .unwrap() as u32,
    );
    r.k.pd_fault(srv_pd, 0xdead);
    let before = client_signals(&mut r);
    assert_eq!(r.k.run(Some(100_000_000)), RunOutcome::Budget);
    assert_eq!(r.k.counters.driver_restarts, 1);
    assert_sound(&r.k);

    // ...and is gone once the PD died: DestroyPd revoked every mapping
    // the dead server held, the stale client window included. The new
    // incarnation's command memory is mapped afresh at the same
    // domain address.
    assert!(
        r.k.machine
            .bus
            .iommu
            .translate(dev, window * 4096, true)
            .is_none(),
        "stale client DMA window revoked at the IOMMU"
    );
    assert!(
        r.k.machine.bus.iommu.translate(dev, CMD_VA, true).is_some(),
        "respawned server's command memory mapped"
    );
    // The client was told to start over (restart semaphore).
    assert!(client_signals(&mut r) > before);

    // Read again from the new incarnation: fresh ring, fresh windows,
    // correct data, no guest-visible corruption.
    start_over(&mut r);
    let sig = client_signals(&mut r);
    assert_eq!(submit_read(&mut r, 555, 8, 9), dproto::OK);
    assert_eq!(r.k.run(Some(100_000_000)), RunOutcome::Budget);
    assert_eq!(client_signals(&mut r), sig + 1, "completion after restart");
    r.k.mem_read_into(r.client_ctx, 8 * 4096, &mut got).unwrap();
    assert_eq!(got[..], r.k.machine.ahci().sector(555)[..16]);
    // Ring record 0 of the zeroed ring: tag 9, status OK.
    assert_eq!(r.k.mem_read_u32(r.client_ctx, 4096).unwrap(), 9);
    assert_eq!(r.k.mem_read_u32(r.client_ctx, 4096 + 4).unwrap(), 0);
    assert_eq!(r.k.counters.driver_restarts, 1);
    assert_sound(&r.k);
}

fn root_pm(r: &mut Rig) -> &mut RootPm {
    r.k.component_mut::<RootPm>(CompId(0)).unwrap()
}

fn kill_disk_server(k: &mut Kernel) {
    let rp = k.component_mut::<RootPm>(CompId(0)).unwrap();
    let srv_pd = rp.disk_server().unwrap().ctx.pd;
    k.pd_fault(srv_pd, 0xdead);
}

/// A respawn attempt that fails late — after the interrupt and the
/// device went to the new PD — must be retryable: the half-built
/// incarnation belongs to the recipe from `CreatePd` on, so the retry's
/// `DestroyPd` hands the GSI and the device assignment back to root
/// before it builds again. (Root's record of the live server used to
/// move to the new PD only on full success, so the retry met `NotOwner`
/// at the GSI grant and one transient failure retired the disk service
/// for good.)
#[test]
fn respawn_retry_after_a_late_step_failure_recovers() {
    let mut r = supervised_rig();
    assert_eq!(submit_read(&mut r, 100, 8, 7), dproto::OK);
    assert_eq!(r.k.run(Some(100_000_000)), RunOutcome::Budget);

    // The transient fault: root's selector for the client goes stale,
    // so rewiring — the step after the server is up — is refused.
    let client_sel = {
        let c = root_pm(&mut r).clients[0].as_mut().unwrap();
        std::mem::replace(&mut c.vmm_sel, 0xdead)
    };
    kill_disk_server(&mut r.k);
    // Long enough for the death notification's attempt, shorter than
    // the first backoff.
    assert_eq!(r.k.run(Some(100_000)), RunOutcome::Budget);
    let ds = root_pm(&mut r).supervision.as_ref().unwrap();
    assert_eq!(
        ds.last_error,
        Some(RespawnError::Step("client pd cap", HcErr::BadCap))
    );
    assert_eq!(ds.retry.as_ref().unwrap().attempts, 1);
    assert!(!ds.failed);
    assert_eq!(r.k.counters.driver_restarts, 0);
    // A half-built incarnation is still a sound kernel.
    assert_sound(&r.k);

    // Repaired before the backoff fires: the second attempt goes
    // through.
    root_pm(&mut r).clients[0].as_mut().unwrap().vmm_sel = client_sel;
    let before = client_signals(&mut r);
    assert_eq!(r.k.run(Some(100_000_000)), RunOutcome::Budget);
    assert_eq!(r.k.counters.driver_restarts, 1);
    assert_sound(&r.k);
    let ds = root_pm(&mut r).supervision.as_ref().unwrap();
    assert!(!ds.failed, "one transient failure must not retire disk");
    assert_eq!(ds.retry.as_ref().unwrap().attempts, 0);
    assert!(client_signals(&mut r) > before, "client told to start over");

    // The survivor is a working server: start over, read, verify.
    start_over(&mut r);
    let sig = client_signals(&mut r);
    assert_eq!(submit_read(&mut r, 555, 8, 9), dproto::OK);
    assert_eq!(r.k.run(Some(100_000_000)), RunOutcome::Budget);
    assert_eq!(client_signals(&mut r), sig + 1, "completion after retry");
    let mut got = [0u8; 16];
    r.k.mem_read_into(r.client_ctx, 8 * 4096, &mut got).unwrap();
    assert_eq!(got[..], r.k.machine.ahci().sector(555)[..16]);
    assert_sound(&r.k);
}

/// The retry ladder's other end: a server recipe that can never be
/// replayed (it asks for an interrupt root does not own) burns its
/// `REVIVE_ATTEMPTS` with backoffs 250 k → 500 k and is then retired.
/// Root does not panic, the VM keeps running, and the requests it
/// still issues complete with an error through the disk client's
/// degrade path.
#[test]
fn respawn_budget_exhaustion_retires_the_disk_and_nothing_else() {
    const REQUESTS: u32 = 4;
    let p = DiskLoadParams {
        requests: REQUESTS,
        block_bytes: 4096,
    };
    let mut sys = System::build(LaunchOptions::supervised(VmmConfig::full_virt(
        diskload::build(p),
        2048,
    )));
    let served = loop {
        assert_eq!(sys.run(Some(100_000)), RunOutcome::Budget);
        let done = sys.k.counters.disk_ops;
        if done >= 2 {
            break done;
        }
    };

    let rp = sys.k.component_mut::<RootPm>(sys.root).unwrap();
    let recipe = &mut rp.supervision.as_mut().unwrap().recipe;
    recipe.grants.push(Grant::Gsi(0xee));

    // Every attempt opens with root's `DestroyPd`; the trace dates
    // them exactly.
    sys.k.machine.enable_tracing(cat::ALL);
    kill_disk_server(&mut sys.k);
    assert_eq!(sys.run(Some(4_000_000)), RunOutcome::Budget);
    let destroy_pd = Hypercall::DestroyPd { pd: 0 }.number();
    let attempts: Vec<u64> = sys
        .k
        .machine
        .tracer()
        .events()
        .iter()
        .filter(|e| e.kind == Kind::Hypercall && e.detail == destroy_pd)
        .map(|e| e.cycle)
        .collect();
    assert_eq!(attempts.len(), REVIVE_ATTEMPTS as usize);
    let waits: Vec<u64> = attempts.windows(2).map(|w| w[1] - w[0]).collect();
    for (wait, backoff) in waits.iter().zip([RETRY_BACKOFF, 2 * RETRY_BACKOFF]) {
        // The timer is armed at the end of the failed attempt.
        assert!(
            (backoff..backoff + 20_000).contains(wait),
            "waited {wait} on a {backoff} backoff"
        );
    }
    let rp = sys.k.component_mut::<RootPm>(sys.root).unwrap();
    let ds = rp.supervision.as_ref().unwrap();
    assert!(ds.failed);
    assert_eq!(
        ds.last_error,
        Some(RespawnError::Step("gsi grant", HcErr::NotOwner))
    );
    assert_eq!(sys.k.counters.driver_restarts, 0);
    assert_sound(&sys.k);

    // The guest is not told why, only that its reads fail: it runs to
    // its end on the client's timeouts.
    assert_eq!(sys.run(Some(60_000_000_000)), RunOutcome::Shutdown(0));
    let vals: Vec<u32> = sys.k.machine.marks().iter().map(|&(_, v)| v).collect();
    assert_eq!(vals, vec![0x1000, 0x1001]);
    let failed = REQUESTS as u64 - served;
    assert_eq!(sys.k.counters.client_degraded, failed);
    assert_eq!(sys.k.counters.disk_failed, 0, "and not by the server");
    assert_eq!(sys.k.counters.driver_restarts, 0);
    let rp = sys.k.component_mut::<RootPm>(sys.root).unwrap();
    let ds = rp.supervision.as_ref().unwrap();
    assert_eq!(ds.retry.as_ref().unwrap().attempts, REVIVE_ATTEMPTS);
    assert_sound(&sys.k);
}

/// The protection domain the capability at `sel` in `pd`'s space names.
fn pd_at(k: &Kernel, pd: PdId, sel: CapSel) -> Option<PdId> {
    match k.obj.pd(pd).caps.get(sel)?.obj {
        nova_core::obj::ObjRef::Pd(p) => Some(p),
        _ => None,
    }
}

/// Which protection domain the disk server holds at each client's
/// PD-capability slot, for the first `n` clients root supervises.
fn client_slots(sys: &mut System, n: usize) -> Vec<Option<PdId>> {
    let rp = sys.k.component_mut::<RootPm>(sys.root).unwrap();
    let srv_pd = rp.disk_server().unwrap().ctx.pd;
    (0..n).map(|i| pd_at(&sys.k, srv_pd, 0x30 + i)).collect()
}

/// Three VMs on one supervised server, the server killed under load:
/// every client's slot at the server is its index among root's
/// supervised clients — at boot as after the respawn, which rewires by
/// that index — and all three guests finish with correct data.
#[test]
fn three_clients_keep_their_slots_across_a_respawn() {
    const REQUESTS: u32 = 8;
    let mut opts = LaunchOptions::supervised(reader_guest(REQUESTS));
    opts.machine.ram = 192 << 20;
    let mut sys = System::build(opts);
    sys.add_vm(reader_guest(REQUESTS));
    sys.add_vm(reader_guest(REQUESTS));

    // Root's view: three clients, each a distinct VMM domain.
    let root_pd = sys.k.root_pd;
    let rp = sys.k.component_mut::<RootPm>(sys.root).unwrap();
    let clients = rp.clients;
    let vmm_pds: Vec<Option<PdId>> = clients
        .iter()
        .flatten()
        .map(|c| pd_at(&sys.k, root_pd, c.vmm_sel))
        .collect();
    assert_eq!(vmm_pds.len(), 3);
    assert!(vmm_pds.iter().all(Option::is_some));
    assert_eq!(client_slots(&mut sys, 3), vmm_pds, "slot = index at boot");
    assert_sound(&sys.k);

    loop {
        assert_eq!(sys.run(Some(100_000)), RunOutcome::Budget);
        if sys.k.counters.disk_ops >= 6 {
            break;
        }
    }
    kill_disk_server(&mut sys.k);

    // Each guest's shutdown stops the world once.
    for _ in 0..3 {
        assert_eq!(sys.run(Some(60_000_000_000)), RunOutcome::Shutdown(0));
    }
    assert_eq!(sys.k.counters.driver_restarts, 1);
    assert_eq!(sys.k.counters.degraded_errors(), 0);
    assert_eq!(client_slots(&mut sys, 3), vmm_pds, "and after the respawn");
    assert_sound(&sys.k);

    assert_read_last_block(&mut sys, REQUESTS);
}

/// A VM the supervisor gave up on takes its disk wiring with it: the
/// next respawn of the disk server rewires only the VMs still running.
/// (The abandoned slot kept the destroyed VMM's selector, so the
/// respawn failed at its client portal with `BadCap` and, after
/// `REVIVE_ATTEMPTS` tries, the disk service was marked failed for
/// every VM.)
#[test]
fn a_failed_vm_leaves_the_disk_server_to_its_siblings() {
    const REQUESTS: u32 = 64;
    let mut opts = LaunchOptions::microrebootable(reader_guest(REQUESTS));
    opts.machine.ram = 128 << 20;
    let mut sys = System::build(opts);
    let sibling = sys.add_vm(reader_guest(REQUESTS));
    let slot = sys.microreboot.expect("VM 0 is supervised");
    let ladder = |sys: &mut System| {
        let sup = root_pm_of(sys).vmm_supervision[slot].as_ref().unwrap();
        (sup.restarts, sup.failed)
    };

    while sys.k.counters.disk_ops < 6 {
        assert_eq!(sys.run(Some(100_000)), RunOutcome::Budget);
    }
    // Each crash inside the stability window of the revive before it:
    // resume, cold reboot, given up on.
    for crash in 0..3 {
        let (_, pd) = sys.microreboot_vmm().unwrap();
        sys.k.pd_fault(pd, nova_core::kernel::VMM_CRASH_CODE);
        while ladder(&mut sys) == (crash, false) {
            assert_eq!(sys.run(Some(10_000)), RunOutcome::Budget);
        }
    }
    assert_eq!(ladder(&mut sys), (2, true));
    assert!(root_pm_of(&mut sys).clients[0].is_none(), "the wiring went");
    let marks = sys.vmm_by_id(sibling).guest_marks();
    assert_eq!(marks, vec![0x1000], "the sibling is mid-workload");

    kill_disk_server(&mut sys.k);
    assert_eq!(sys.run(Some(60_000_000_000)), RunOutcome::Shutdown(0));
    assert_eq!(sys.k.counters.driver_restarts, 1);
    let ds = root_pm_of(&mut sys).supervision.as_ref().unwrap();
    assert!(!ds.failed, "{:?}", ds.last_error);
    assert_eq!(sys.k.counters.degraded_errors(), 0);
    let marks = sys.vmm_by_id(sibling).guest_marks();
    assert_eq!(marks, vec![0x1000, 0x1001]);
    assert_sound(&sys.k);
}

fn root_pm_of(sys: &mut System) -> &mut RootPm {
    sys.k.component_mut::<RootPm>(sys.root).unwrap()
}

/// Every VM of `sys` finished its [`reader_guest`] run: its last block
/// arrived in [`READER_BUF`], read through its own VMM's mapping of
/// guest RAM.
fn assert_read_last_block(sys: &mut System, requests: u32) {
    let expect = sys.k.machine.ahci().sector((requests as u64 - 1) * 8);
    let page = nova_vmm::vmm::GUEST_BASE_PAGE + READER_BUF as u64 / 4096;
    let vmm_pds: Vec<_> = sys.k.obj.pds.iter().filter(|p| p.name == "vmm").collect();
    assert_eq!(vmm_pds.len(), sys.vmms.len());
    for pd in vmm_pds {
        let host = pd.mem.lookup(page).unwrap().hpa;
        assert_eq!(sys.k.machine.mem.read_bytes(host, 512), expect);
    }
    for vmm in sys.vmms.clone() {
        let marks = sys
            .k
            .component_mut::<nova_vmm::Vmm>(vmm)
            .unwrap()
            .guest_marks();
        assert_eq!(marks, vec![0x1000, 0x1001]);
    }
}

/// Two identical VMs reading into one guest-physical buffer: each VMM's
/// disk client delegates the page into its own window at the server,
/// so neither's requests collide with the other's and none degrades.
/// (With one window for all clients, the second VM's delegation of the
/// page was refused, its requests were retried and then failed.)
#[test]
fn two_identical_vms_read_into_one_guest_buffer() {
    const REQUESTS: u32 = 4;
    let mut opts = LaunchOptions::supervised(reader_guest(REQUESTS));
    opts.machine.ram = 128 << 20;
    let mut sys = System::build(opts);
    sys.add_vm(reader_guest(REQUESTS));
    for _ in 0..2 {
        assert_eq!(sys.run(Some(60_000_000_000)), RunOutcome::Shutdown(0));
    }
    assert_eq!(sys.k.counters.degraded_errors(), 0);
    assert_eq!(sys.k.counters.disk_ops, 2 * REQUESTS as u64);
    assert_read_last_block(&mut sys, REQUESTS);
    assert_sound(&sys.k);
}
