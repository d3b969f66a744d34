//! VMM microreboot: guest-transparent checkpoint/restore driven by
//! root's crash-only supervision tree. The headline property is the
//! Issue-7 acceptance run — a PV disk workload with the VMM killed
//! mid-flight completes with byte-identical data versus a crash-free
//! run, the guest makes forward progress after the restore, and a
//! co-resident VM never notices. The remaining tests walk the
//! escalation ladder (resume → cold reboot → mark failed), cross the
//! recovery with a simultaneous disk-server crash, pin checkpoint
//! determinism (same seed ⇒ byte-identical checkpoints), and kill the
//! VMM or the disk server at fixed points and at seeded random cycles.
//! The coherence tests try to break the rule of the checkpoint image
//! (DESIGN.md §6e): root's blob is refreshed in place from the frames
//! whose write generation moved, and must always equal a from-scratch
//! capture.

use nova_core::kernel::VMM_CRASH_CODE;
use nova_core::RunOutcome;
use nova_guest::os::{build_os, OsParams};
use nova_guest::pvdiskload::{self, PvDiskLoadParams};
use nova_guest::rt::layout;
use nova_hw::fault::{FaultKind, FaultPlan};
use nova_trace::{cat, names, Tracer};
use nova_user::root::{RespawnError, RootPm, LEVEL_COLD, LEVEL_FAILED, LEVEL_RESUME};
use nova_vmm::checkpoint::View;
use nova_vmm::vmm::sel;
use nova_vmm::{Checkpoint, GuestImage, LaunchOptions, MicrorebootRecipe, System, Vmm, VmmConfig};
use nova_x86::insn::{AluOp, Cond};
use nova_x86::reg::Reg;
use nova_x86::MemRef;

const BLOCK: u32 = 4096;
const BATCH: u32 = 8;
const REQUESTS: u32 = 32;
const BUDGET: u64 = 200_000_000_000;
/// Tighter-than-default checkpoint cadence so a checkpoint exists
/// well before the workload finishes.
const CKPT_PERIOD: u64 = 500_000;

/// The microrebootable PV-disk system under test.
fn microreboot_system() -> System {
    pv_system(4096, CKPT_PERIOD)
}

/// The PV-disk workload in a guest of `guest_pages` under root's
/// supervision, checkpointed every `period` cycles.
fn pv_system(guest_pages: u64, period: u64) -> System {
    let prog = pvdiskload::build(PvDiskLoadParams {
        requests: REQUESTS,
        block_bytes: BLOCK,
        batch: BATCH,
    });
    let mut cfg = VmmConfig::full_virt(prog, guest_pages);
    cfg.pv_disk = true;
    let mut opts = LaunchOptions::microrebootable(cfg);
    opts.microreboot = Some(period);
    System::build(opts)
}

/// Iterations of the co-resident integrity witness.
const WITNESS_ITERS: u32 = 6;

/// Checksum the witness computes on iteration `iter`.
fn witness_checksum(iter: u32) -> u32 {
    let mut v = 0x1234_5678u32.wrapping_add(iter);
    let mut s = 0u32;
    for _ in 0..1024 {
        s = s.wrapping_add(v);
        v = v.wrapping_add(0x9e37_79b9);
    }
    s
}

/// A sibling VM that fills a page with a rolling pattern, checksums
/// it, and reports each checksum through the mark port. Faults and
/// microreboots of the *other* VM must never perturb these values.
fn witness_guest() -> GuestImage {
    build_os(OsParams::minimal(), |a, _| {
        a.mov_ri(Reg::Esi, 0);
        let iter = a.here_label();
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
        a.mov_ri(Reg::Edi, 0x8000);
        a.mov_ri(Reg::Ecx, 1024);
        a.mov_ri(Reg::Ebx, 0);
        let sum = a.here_label();
        a.alu_rm(AluOp::Add, Reg::Ebx, MemRef::base_disp(Reg::Edi, 0));
        a.add_ri(Reg::Edi, 4);
        a.dec_r(Reg::Ecx);
        a.jcc(Cond::Ne, sum);
        a.mov_rr(Reg::Eax, Reg::Ebx);
        a.mov_ri(Reg::Edx, 0xf5);
        a.out_dx_eax();
        a.inc_r(Reg::Esi);
        a.cmp_ri(Reg::Esi, WITNESS_ITERS);
        a.jcc(Cond::B, iter);
        let top = a.here_label();
        a.jmp(top);
    })
}

/// Mark values emitted by the witness (everything except pvdiskload's
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

/// Host address of the guest's PV read buffer for batch slot `slot`.
fn pv_buf_host(slot: u32) -> u64 {
    0x1000 * 4096 + (layout::PV_DISK_BUF + slot * 4096) as u64
}

/// The microrebooted VM's supervision record, for assertions.
fn with_sup<R>(sys: &mut System, f: impl FnOnce(&nova_user::root::VmmSupervision) -> R) -> R {
    let root = sys.root;
    let slot = sys.microreboot.expect("microreboot enabled");
    let rp = sys.k.component_mut::<RootPm>(root).expect("root pm");
    f(rp.vmm_supervision[slot].as_ref().expect("supervised vm"))
}

/// Slice-runs until `done` says stop (or the workload finishes, which
/// fails the test via the caller's later assertions).
/// The kernel's delegation state is what its own rule says it is
/// (`Kernel::check_invariants`): asked after every teardown and every
/// restore, and on every checked tick in between.
#[track_caller]
fn assert_sound(sys: &System) {
    assert_eq!(sys.k.check_invariants(), Ok(()));
}

fn run_until(sys: &mut System, mut done: impl FnMut(&mut System) -> bool) {
    loop {
        let out = sys.run(Some(100_000));
        assert_ne!(out, RunOutcome::Shutdown(0), "guest finished prematurely");
        if done(sys) {
            return;
        }
    }
}

/// Completed PV requests on the *current* VMM incarnation.
fn pv_completions(sys: &mut System) -> u64 {
    let (vmm, _) = sys.microreboot_vmm().expect("supervised vmm");
    sys.k
        .component_mut::<Vmm>(vmm)
        .map(|v| v.dev().pvdisk.completions)
        .unwrap_or(0)
}

/// Reference run without any crash: the byte-identity baseline.
fn crash_free_reference() -> Vec<u8> {
    let mut sys = microreboot_system();
    assert_eq!(sys.run(Some(BUDGET)), RunOutcome::Shutdown(0));
    sys.k.machine.mem.read_bytes(pv_buf_host(0), 8 * 4096)
}

/// Issue-7 acceptance: kill the VMM mid-workload. The supervisor
/// restores the guest from the last checkpoint; the run completes with
/// byte-identical disk contents, the sibling VM never stalls, and the
/// recovery metrics are published.
#[test]
fn crash_mid_workload_restores_and_completes_byte_identical() {
    let reference = crash_free_reference();

    let mut sys = microreboot_system();
    sys.add_vm(VmmConfig::full_virt(witness_guest(), 1024));
    let cpus = sys.k.machine.cpus.len().max(1);
    sys.k.machine.bus.trace = Tracer::new(cpus, 1 << 21, cat::ALL);

    // Let the guest make real progress and the cadence timer take at
    // least one checkpoint, then kill the VMM.
    run_until(&mut sys, |s| {
        pv_completions(s) >= 8 && with_sup(s, |sup| sup.last_checkpoint.is_some())
    });
    let (_, vmm_pd) = sys.microreboot_vmm().expect("supervised vmm");
    let at_crash = sys.k.counters.snapshot();
    sys.k.pd_fault(vmm_pd, VMM_CRASH_CODE);
    assert_eq!(sys.k.counters.pd_deaths, 1);
    assert_sound(&sys);

    // The revive rolls the guest back to the last capture and no count
    // with it: what the dead VMM's exits and injections counted is in
    // the kernel's registry, not in the wreck or its checkpoint.
    run_until(&mut sys, |s| with_sup(s, |sup| sup.restarts == 1));
    let c = &sys.k.counters;
    assert!((0..at_crash.exits.len()).all(|r| c.exits_of(r) >= at_crash.exits_of(r)));
    assert!(c.injected_virq >= at_crash.injected_virq && at_crash.injected_virq > 0);

    let out = sys.run(Some(BUDGET));
    assert_eq!(
        out,
        RunOutcome::Shutdown(0),
        "guest completed after restore"
    );
    assert_sound(&sys);

    // Exactly one restore, at the resume rung, and the guest made
    // forward progress afterwards (the end mark is emitted once).
    assert_eq!(sys.k.counters.vmm_restarts, 1);
    assert!(sys.k.counters.checkpoints_taken >= 1);
    assert_eq!(sys.k.counters.escalations, 0);
    with_sup(&mut sys, |sup| {
        assert_eq!(sup.restarts, 1);
        assert_eq!(sup.level, LEVEL_RESUME);
        assert!(!sup.failed);
    });
    let diskload_marks: Vec<u32> = sys
        .k
        .machine
        .marks()
        .iter()
        .map(|&(_, v)| v)
        .filter(|&v| v == 0x1000 || v == 0x1001)
        .collect();
    assert_eq!(
        diskload_marks,
        vec![0x1000, 0x1001],
        "begin/end marks each appear once: the restore resumed the \
         guest mid-workload instead of rebooting it"
    );

    // Byte-identical disk contents versus the crash-free run, and both
    // match the backing store.
    let got = sys.k.machine.mem.read_bytes(pv_buf_host(0), 8 * 4096);
    assert_eq!(got, reference, "crashed run delivers identical bytes");
    let sectors = (BLOCK / 512) as u64;
    let mut expect = Vec::new();
    for req in 24..32u64 {
        for s in 0..sectors {
            expect.extend_from_slice(&sys.k.machine.ahci().sector(req * sectors + s));
        }
    }
    assert_eq!(got, expect, "contents match the backing store");

    // The sibling VM ran to completion with correct checksums.
    let marks = witness_marks(&sys);
    assert_eq!(marks.len(), WITNESS_ITERS as usize, "sibling never stalled");
    for (i, &m) in marks.iter().enumerate() {
        assert_eq!(m, witness_checksum(i as u32), "sibling data intact");
    }

    // Recovery metrics are published.
    let metrics = &sys.k.machine.bus.trace.metrics;
    let slot = sys.microreboot.expect("slot") as u64;
    let restarts = metrics.get(names::VMM_RESTARTS, slot).expect("metric");
    assert_eq!(restarts.count, 1);
    let lat = metrics
        .get(names::RESTORE_LATENCY_CYCLES, slot)
        .expect("metric");
    assert_eq!(lat.count, 1);
    assert!(lat.sum > 0, "restore latency is a real cycle count");
    let ckpt = metrics.get(names::CHECKPOINT_BYTES, slot).expect("metric");
    assert!(ckpt.count >= 1 && ckpt.sum > 0);
}

/// A second crash right after the restore means the checkpoint itself
/// reproduces the failure: the ladder climbs to a cold reboot, and the
/// cold-booted guest still finishes with correct data.
#[test]
fn second_crash_inside_stability_window_escalates_to_cold_reboot() {
    let mut sys = microreboot_system();
    run_until(&mut sys, |s| {
        pv_completions(s) >= 8 && with_sup(s, |sup| sup.last_checkpoint.is_some())
    });
    let (_, pd1) = sys.microreboot_vmm().expect("supervised vmm");
    sys.k.pd_fault(pd1, VMM_CRASH_CODE);
    run_until(&mut sys, |s| with_sup(s, |sup| sup.restarts == 1));

    // Crash again inside the stability window (well under 2M cycles
    // after the restore): the resume rung does not hold.
    let (_, pd2) = sys.microreboot_vmm().expect("supervised vmm");
    assert_ne!(pd1, pd2, "revive built a fresh protection domain");
    let seq = with_sup(&mut sys, |sup| sup.seq);
    sys.k.pd_fault(pd2, VMM_CRASH_CODE);

    // The cold-reboot rung discards the checkpoint that did not hold:
    // right after the revive, before the cadence takes a new one, root
    // holds none.
    while with_sup(&mut sys, |sup| sup.restarts) < 2 {
        sys.run(Some(10_000));
    }
    with_sup(&mut sys, |sup| {
        assert_eq!(sup.level, LEVEL_COLD);
        assert_eq!(sup.seq, seq, "no capture since the crash");
        assert!(sup.last_checkpoint.is_none(), "checkpoint discarded");
    });
    assert_sound(&sys);

    let out = sys.run(Some(BUDGET));
    assert_eq!(out, RunOutcome::Shutdown(0), "cold reboot completed");
    assert_eq!(sys.k.counters.vmm_restarts, 2);
    assert_eq!(sys.k.counters.escalations, 1);
    with_sup(&mut sys, |sup| {
        assert_eq!(sup.restarts, 2);
        assert!(!sup.failed);
    });

    // A cold reboot re-runs the workload from the start: the begin
    // mark appears twice, the end mark once, and the data is correct.
    let marks: Vec<u32> = sys.k.machine.marks().iter().map(|&(_, v)| v).collect();
    assert_eq!(marks.iter().filter(|&&v| v == 0x1001).count(), 1);
    assert_eq!(*marks.last().expect("marks"), 0x1001);
    let got = sys.k.machine.mem.read_bytes(pv_buf_host(7), 16);
    let sectors = (BLOCK / 512) as u64;
    let expect = sys.k.machine.ahci().sector(31 * sectors);
    assert_eq!(got, expect[..16].to_vec(), "data correct after cold reboot");
}

/// A cold reboot loads whatever image the recipe holds *now*, over
/// frames whose previous code has already executed. The guest image is
/// replaced between the first boot and the cold reboot by a build that
/// differs in one immediate; the rebooted guest must run the new one.
/// (The interpreter's decoded-instruction cache used to be keyed by
/// host-physical address and never invalidated, so it replayed the old
/// instructions out of the rewritten frames.)
#[test]
fn cold_reboot_over_a_different_image_runs_the_new_code() {
    // Reports `value` through the mark port, forever.
    let reporter = |value: u32| {
        build_os(OsParams::minimal(), |a, _| {
            let top = a.here_label();
            a.mov_ri(Reg::Eax, value);
            a.mov_ri(Reg::Edx, 0xf5);
            a.out_dx_eax();
            a.mov_ri(Reg::Ecx, 20_000);
            let spin = a.here_label();
            a.dec_r(Reg::Ecx);
            a.jcc(Cond::Ne, spin);
            a.jmp(top);
        })
    };
    let mut opts = LaunchOptions::microrebootable(VmmConfig::full_virt(reporter(0xa), 1024));
    opts.microreboot = Some(CKPT_PERIOD);
    let mut sys = System::build(opts);
    run_until(&mut sys, |s| {
        s.k.machine.marks().len() >= 2 && with_sup(s, |sup| sup.last_checkpoint.is_some())
    });

    let (root, slot) = (sys.root, sys.microreboot.expect("slot"));
    let rp = sys.k.component_mut::<RootPm>(root).expect("root pm");
    let sup = rp.vmm_supervision[slot].as_mut().expect("supervised vm");
    let recipe = sup.recipe.as_any().downcast_mut::<MicrorebootRecipe>();
    recipe.expect("microreboot recipe").cfg.image = reporter(0xb);

    // Two crashes inside the stability window: resume from the
    // checkpoint (still the old code), then cold reboot.
    for restarts in 1..=2 {
        let (_, pd) = sys.microreboot_vmm().expect("supervised vmm");
        sys.k.pd_fault(pd, VMM_CRASH_CODE);
        run_until(&mut sys, |s| with_sup(s, |sup| sup.restarts == restarts));
    }
    assert_eq!(
        sys.k.counters.escalations, 1,
        "second revive was a cold boot"
    );

    let before = sys.k.machine.marks().len();
    run_until(&mut sys, |s| s.k.machine.marks().len() >= before + 3);
    let marks: Vec<u32> = sys.k.machine.marks().iter().map(|&(_, v)| v).collect();
    let rebooted = marks.iter().position(|&v| v != 0xa).expect("new marks");
    assert!(
        rebooted >= 2,
        "the first boot and the resume ran the old image"
    );
    assert!(
        marks[rebooted..].iter().all(|&v| v == 0xb),
        "the rebooted guest runs the image that was loaded, not the one that ran before: {:x?}",
        &marks[rebooted..]
    );
}

/// Revives that keep failing at every rung exhaust the ladder: the VM
/// is marked failed and left down, while the sibling VM keeps running
/// untouched — crash-only containment, not a hung system or an
/// unbounded retry loop. The permanent failure is a disk server whose
/// own supervisor has given up: every VMM revive then finds a dead
/// server and must fail cleanly.
#[test]
fn ladder_exhaustion_marks_vm_failed_while_sibling_runs() {
    let mut sys = microreboot_system();
    sys.add_vm(VmmConfig::full_virt(witness_guest(), 1024));
    run_until(&mut sys, |s| {
        pv_completions(s) >= 8 && with_sup(s, |sup| sup.last_checkpoint.is_some())
    });

    // Put the disk server permanently down (its own ladder exhausted),
    // then kill the VMM: every revive attempt now fails, so the VM
    // ladder must climb resume -> cold -> failed and stop.
    let srv_pd = {
        let root = sys.root;
        let rp = sys.k.component_mut::<RootPm>(root).expect("root pm");
        rp.supervision.as_mut().expect("disk supervision").failed = true;
        rp.disk_server().expect("disk server").ctx.pd
    };
    sys.k.pd_fault(srv_pd, 0xdead);
    let (_, vmm_pd) = sys.microreboot_vmm().expect("supervised vmm");
    sys.k.pd_fault(vmm_pd, VMM_CRASH_CODE);

    // Bounded backoffs: the whole ladder plays out in a few million
    // cycles; the run never shuts down (the witness spins), so a fixed
    // slice bounds the test.
    let _ = sys.run(Some(60_000_000));
    with_sup(&mut sys, |sup| {
        assert!(sup.failed, "ladder terminated in the failed state");
        assert_eq!(sup.level, LEVEL_FAILED);
        assert_eq!(sup.restarts, 0, "no revive ever succeeded");
        assert!(!sup.reviving, "no retry left pending after failure");
        assert!(
            sup.last_checkpoint.is_none(),
            "the checkpoint went when the ladder left the resume rung"
        );
    });
    assert_eq!(
        sys.k.counters.escalations, 2,
        "exactly two climbs: resume -> cold -> failed"
    );
    assert_eq!(sys.k.counters.vmm_restarts, 0);
    // Torn down and never rebuilt: both dead domains hold nothing.
    assert_sound(&sys);

    // The sibling finished all its iterations with correct data.
    let marks = witness_marks(&sys);
    assert_eq!(marks.len(), WITNESS_ITERS as usize, "sibling never stalled");
    for (i, &m) in marks.iter().enumerate() {
        assert_eq!(m, witness_checksum(i as u32), "sibling data intact");
    }
}

/// The recovery crossed with a disk-server crash: the server dies at
/// the same moment as the VMM, so the first revive attempt finds a
/// dead server and must fail cleanly; the bounded-backoff retry then
/// succeeds against the respawned server (restore idempotence — a
/// failed attempt's half-built incarnation is torn down and rebuilt).
#[test]
fn disk_server_crash_during_restore_retries_idempotently() {
    let reference = crash_free_reference();

    let mut sys = microreboot_system();
    run_until(&mut sys, |s| {
        pv_completions(s) >= 8 && with_sup(s, |sup| sup.last_checkpoint.is_some())
    });

    // Kill the disk server and the VMM in the same stopped instant,
    // then force root to handle the VMM death first, while the disk
    // server is still dead.
    let srv_pd = {
        let root = sys.root;
        let rp = sys.k.component_mut::<RootPm>(root).expect("root pm");
        rp.disk_server().expect("disk server").ctx.pd
    };
    let (_, vmm_pd) = sys.microreboot_vmm().expect("supervised vmm");
    sys.k.pd_fault(srv_pd, 0xdead);
    sys.k.pd_fault(vmm_pd, VMM_CRASH_CODE);
    let root = sys.root;
    let root_ctx = sys.root_ctx;
    let slot = sys.microreboot.expect("slot");
    sys.k.invoke_component::<RootPm, _>(root, |rp, k| {
        rp.handle_vmm_death(k, root_ctx, slot);
    });
    with_sup(&mut sys, |sup| {
        assert!(sup.reviving, "first attempt could not finish");
        assert_eq!(sup.retry.attempts, 1, "the dead server failed one attempt");
    });
    assert_sound(&sys);

    let out = sys.run(Some(BUDGET));
    assert_eq!(
        out,
        RunOutcome::Shutdown(0),
        "guest completed after both crashes"
    );
    assert_eq!(sys.k.counters.driver_restarts, 1);
    assert!(
        sys.k.counters.vmm_restarts >= 1,
        "the retry revived the VM against the respawned server"
    );
    with_sup(&mut sys, |sup| {
        assert!(!sup.failed);
        assert!(!sup.reviving);
    });
    assert_sound(&sys);

    let got = sys.k.machine.mem.read_bytes(pv_buf_host(0), 8 * 4096);
    assert_eq!(
        got, reference,
        "data byte-identical across the double crash"
    );
}

/// The kernel's own fault injector (`FaultKind::VmmCrash`) kills the
/// VMM at a seed-determined exit; the supervision tree recovers and
/// the guest completes correctly.
#[test]
fn injected_vmm_crash_fault_recovers() {
    let mut sys = microreboot_system();
    sys.k
        .machine
        .set_fault_plan(FaultPlan::seeded(0x5eed_c0ff_ee07).with(FaultKind::VmmCrash, 20_000, 1));
    let out = sys.run(Some(BUDGET));
    assert_eq!(
        out,
        RunOutcome::Shutdown(0),
        "guest completed after injection"
    );
    let injected: u64 = sys.k.machine.faults().injected.iter().sum();
    assert_eq!(injected, 1, "the plan fired exactly once");
    assert_eq!(sys.k.counters.vmm_restarts, 1);
    assert_sound(&sys);

    let got = sys.k.machine.mem.read_bytes(pv_buf_host(7), 16);
    let sectors = (BLOCK / 512) as u64;
    let expect = sys.k.machine.ahci().sector(31 * sectors);
    assert_eq!(got, expect[..16].to_vec(), "data correct after recovery");
}

/// Checkpoint determinism (the CI byte-identity gate): two runs of the
/// same seeded system produce byte-identical checkpoints at the same
/// cadence tick.
#[test]
fn checkpoints_byte_identical_across_same_seed_runs() {
    let snap = |_: ()| -> Vec<u8> {
        let mut sys = microreboot_system();
        run_until(&mut sys, |s| {
            with_sup(s, |sup| sup.seq >= 2 && sup.last_checkpoint.is_some())
        });
        with_sup(&mut sys, |sup| {
            (sup.last_checkpoint.as_ref().expect("checkpoint")).clone()
        })
    };
    let a = snap(());
    let b = snap(());
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed, same checkpoint, byte for byte");
}

/// Pins the `NOVACKPT` v7 byte layout: the whole blob of one cadence
/// tick taken while PV descriptors are in flight (so the request
/// records are in it) hashes to the constant recorded when version 7
/// carried a closed-window halt in each vCPU's recall byte (version 6
/// gave both disk front ends one request record). A change to what is
/// serialized, or in which order, moves it. The length is the 32-byte
/// header and page count, five stored pages of the 1,024 with their
/// index entries, and the records behind them: 655 bytes, version 5's
/// 675 less the vAHCI's 32 slot-presence bytes for a 4-byte count, plus
/// one `nsegs` byte for each of the eight PV descriptors in flight.
#[test]
fn checkpoint_layout_is_pinned() {
    let mut sys = pv_system(SMALL_GUEST, CKPT_PERIOD);
    let in_flight = |s: &mut System| {
        let (vmm, _) = s.microreboot_vmm().expect("supervised vmm");
        let vmm = s.k.component_mut::<Vmm>(vmm).expect("vmm");
        vmm.dev().pvdisk.disk.has_pending()
    };
    while !in_flight(&mut sys) {
        assert_eq!(sys.run(Some(20_000)), RunOutcome::Budget);
    }
    tick(&mut sys).expect("a capture");
    assert!(
        in_flight(&mut sys),
        "device state holds a pending descriptor"
    );
    let (len, fnv) = with_sup(&mut sys, |sup| {
        let blob = sup.last_checkpoint.as_ref().expect("checkpoint");
        let fnv = blob.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        (blob.len(), fnv)
    });
    assert_eq!(len, 32 + 5 * (4 + 4096) + 655);
    assert_eq!(
        fnv, 0x5a58_0084_9179_7132,
        "NOVACKPT v7 bytes moved: {fnv:#018x}"
    );
}

// ---------------------------------------------------------------------
// Crashes anywhere: fixed points and seeded random cycles
// ---------------------------------------------------------------------

/// The component a crash kills.
#[derive(Clone, Copy, Debug)]
enum Victim {
    Vmm,
    DiskServer,
    /// The VMM, then the disk server once the VMM is revived: the
    /// respawned server must be wired to the revived incarnation.
    VmmThenServer,
}

/// When a crash hits.
#[derive(Clone, Copy, Debug)]
enum When {
    /// Once this many PV requests have completed and a checkpoint
    /// exists.
    Completions(u64),
    /// At the first slice boundary at or past this simulated cycle.
    Cycle(u64),
}

/// Slice the crash runs advance by; the invariants are asked after each.
const SLICE: u64 = 100_000;

/// The PV workload with the integrity witness beside it.
fn witnessed_system() -> System {
    let mut sys = microreboot_system();
    sys.add_vm(VmmConfig::full_virt(witness_guest(), 1024));
    sys
}

/// What the crash-free run of [`witnessed_system`] leaves and when:
/// the PV buffers, the cycle by which the first checkpoint exists, and
/// the cycle the guest shuts down at.
struct Reference {
    buffers: Vec<u8>,
    first_capture: u64,
    end: u64,
}

fn witnessed_reference() -> Reference {
    let mut sys = witnessed_system();
    let mut first_capture = None;
    loop {
        let out = sys.run(Some(SLICE));
        if sys.k.counters.checkpoints_taken > 0 {
            first_capture.get_or_insert(sys.k.machine.clock);
        }
        if out == RunOutcome::Shutdown(0) {
            break;
        }
        assert_eq!(out, RunOutcome::Budget);
    }
    Reference {
        buffers: sys.k.machine.mem.read_bytes(pv_buf_host(0), 8 * 4096),
        first_capture: first_capture.expect("a checkpoint before shutdown"),
        end: sys.k.machine.clock,
    }
}

/// Kills `victim` at `when` in the witnessed system, runs it to
/// shutdown — asking `check_invariants` after every slice, before and
/// after the crash — and checks that nobody could tell: the PV buffers
/// equal the crash-free run's and the backing store, the workload's
/// begin and end marks appear once each (it resumed, not rebooted), the
/// killed component restarted exactly once and nothing else did, and
/// the witness finished with correct checksums.
fn crash_and_recover(victim: Victim, when: When, reference: &Reference) {
    let what = format!("{victim:?} killed at {when:?}");
    let mut sys = witnessed_system();
    loop {
        let clock = sys.k.machine.clock;
        let budget = match when {
            When::Completions(n) => {
                let checkpointed = with_sup(&mut sys, |sup| sup.last_checkpoint.is_some());
                if pv_completions(&mut sys) >= n && checkpointed {
                    break;
                }
                SLICE
            }
            When::Cycle(at) if clock >= at => break,
            When::Cycle(at) => (at - clock).min(SLICE),
        };
        let out = sys.run(Some(budget));
        assert_eq!(out, RunOutcome::Budget, "{what}: finished before the crash");
        assert_sound(&sys);
    }
    let server = |sys: &mut System| {
        let root = sys.root;
        let rp = sys.k.component_mut::<RootPm>(root).expect("root pm");
        rp.disk_server().expect("disk server").ctx.pd
    };
    let (pd, code) = match victim {
        Victim::Vmm | Victim::VmmThenServer => {
            (sys.microreboot_vmm().expect("vmm").1, VMM_CRASH_CODE)
        }
        Victim::DiskServer => (server(&mut sys), 0xdead),
    };
    sys.k.pd_fault(pd, code);
    let mut then_server = matches!(victim, Victim::VmmThenServer);
    loop {
        if then_server && sys.k.counters.vmm_restarts == 1 {
            let pd = server(&mut sys);
            sys.k.pd_fault(pd, 0xdead);
            then_server = false;
        }
        let out = sys.run(Some(SLICE));
        assert_sound(&sys);
        if out == RunOutcome::Shutdown(0) {
            break;
        }
        assert_eq!(out, RunOutcome::Budget, "{what}");
    }

    let got = sys.k.machine.mem.read_bytes(pv_buf_host(0), 8 * 4096);
    assert!(
        got == reference.buffers,
        "{what}: the crash-free run's bytes"
    );
    let sectors = (BLOCK / 512) as u64;
    let disk = (24..32u64).flat_map(|req| (0..sectors).map(move |s| req * sectors + s));
    let expect: Vec<u8> = disk.flat_map(|s| sys.k.machine.ahci().sector(s)).collect();
    assert!(got == expect, "{what}: the backing store's bytes");
    let marks = sys.k.machine.marks().iter().map(|&(_, v)| v);
    let diskload: Vec<u32> = marks.filter(|&v| v == 0x1000 || v == 0x1001).collect();
    assert_eq!(diskload, [0x1000, 0x1001], "{what}: resumed, not rebooted");
    let c = &sys.k.counters;
    let restarts = (c.vmm_restarts, c.driver_restarts, c.escalations);
    let expect = match victim {
        Victim::Vmm => (1, 0, 0),
        Victim::DiskServer => (0, 1, 0),
        Victim::VmmThenServer => (1, 1, 0),
    };
    assert_eq!(
        restarts, expect,
        "{what}: (VMM, disk server) restarts, escalations"
    );
    let witness = witness_marks(&sys);
    let checksums: Vec<u32> = (0..WITNESS_ITERS).map(witness_checksum).collect();
    assert_eq!(witness, checksums, "{what}: the sibling VM");
}

/// The fixed points the seeded sweep below generalises: each component
/// killed after 1, 4, 8, 12, 16 and 24 of the 32 requests completed,
/// and the VMM-then-server pair after 4 and 16.
#[test]
fn crash_matrix_sweep() {
    let reference = witnessed_reference();
    for victim in [Victim::Vmm, Victim::DiskServer] {
        for n in [1, 4, 8, 12, 16, 24] {
            crash_and_recover(victim, When::Completions(n), &reference);
        }
    }
    for n in [4, 16] {
        crash_and_recover(Victim::VmmThenServer, When::Completions(n), &reference);
    }
}

/// A disk-server respawn after a VMM revive rewires the revived
/// incarnation, which root's client table names because the revive's
/// own wiring recorded it: the VMM killed after 8 completions, the
/// server once the VMM is back.
#[test]
fn a_respawn_after_a_revive_rewires_the_revived_vmm() {
    let reference = witnessed_reference();
    crash_and_recover(Victim::VmmThenServer, When::Completions(8), &reference);
}

/// Kills `victim` at a cycle drawn, per seed, uniformly between the
/// crash-free run's first checkpoint and 90 % of its length: 4 seeds,
/// or 64 with `NOVA_SLOW_TESTS` set.
fn random_cycle_sweep(victim: Victim) {
    let reference = witnessed_reference();
    let (from, to) = (reference.first_capture, reference.end / 10 * 9);
    assert!(from < to, "a checkpoint early in the run");
    let seeds = if std::env::var_os("NOVA_SLOW_TESTS").is_some() {
        64
    } else {
        4
    };
    for seed in 0..seeds {
        // SplitMix64 of the seed and the arm.
        let mut z = (seed + 1 + ((victim as u64) << 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let at = from + (z ^ (z >> 31)) % (to - from);
        crash_and_recover(victim, When::Cycle(at), &reference);
    }
}

/// A revive detaches both of the dead incarnation's clients at the
/// server, the PV queue's as well as the vAHCI's: what the PV channel
/// still had queued is dropped — replaying it is the new incarnation's
/// business — so by the end every request the server accepted either
/// completed or was dropped with the queue it waited in.
#[test]
fn a_revive_drops_what_the_dead_vmm_left_queued_on_either_channel() {
    let mut sys = microreboot_system();
    run_until(&mut sys, |sys| {
        let c = &sys.k.counters;
        c.checkpoints_taken > 0 && c.disk_accepted - c.disk_ops >= 3
    });
    // One request in flight, the rest of the batch queued behind it.
    let c = &sys.k.counters;
    let queued = c.disk_accepted - c.disk_ops - 1;
    let (_, pd) = sys.microreboot_vmm().expect("supervised vmm");
    sys.k.pd_fault(pd, VMM_CRASH_CODE);
    assert_eq!(sys.run(Some(BUDGET)), RunOutcome::Shutdown(0));
    assert_sound(&sys);
    let c = &sys.k.counters;
    assert_eq!(c.vmm_restarts, 1);
    assert_eq!(c.disk_accepted - c.disk_ops, queued, "dropped, not served");
}

#[test]
fn random_cycle_vmm_crash_recovers() {
    random_cycle_sweep(Victim::Vmm);
}

#[test]
fn random_cycle_disk_server_crash_recovers() {
    random_cycle_sweep(Victim::DiskServer);
}

// ---------------------------------------------------------------------
// Checkpoint-image coherence
// ---------------------------------------------------------------------

/// Pages of the small guest the coherence tests run (the PV workload
/// fits in 4 MB; a quarter of the copying per oracle comparison).
const SMALL_GUEST: u64 = 1024;

fn with_recipe<R>(sys: &mut System, f: impl FnOnce(&mut MicrorebootRecipe) -> R) -> R {
    let (root, slot) = (sys.root, sys.microreboot.expect("slot"));
    let rp = sys.k.component_mut::<RootPm>(root).expect("root pm");
    let sup = rp.vmm_supervision[slot].as_mut().expect("supervised vm");
    let recipe = sup.recipe.as_any().downcast_mut::<MicrorebootRecipe>();
    f(recipe.expect("microreboot recipe"))
}

/// Host-physical address of guest-physical `gpa` of the supervised VM.
fn guest_host(sys: &mut System, gpa: u64) -> u64 {
    with_recipe(sys, |r| r.frames * 4096) + gpa
}

/// Write generation of each of the `pages` frames from host-physical
/// `base`: which frames moved between two instants, read off the
/// memory itself and not off the recipe's table.
fn frame_gens(sys: &System, base: u64, pages: u64) -> Vec<u64> {
    let mem = &sys.k.machine.mem;
    (0..pages).map(|p| mem.frame_gen(base + p * 4096)).collect()
}

/// How many of the supervised VM's `pages` guest frames anything has
/// written since the machine was built (write generation not 0): what
/// a capture into a fresh all-zero image has to copy.
fn written_frames(sys: &mut System, pages: u64) -> u64 {
    let base = guest_host(sys, 0);
    let gens = frame_gens(sys, base, pages);
    gens.iter().filter(|g| **g != 0).count() as u64
}

/// Replaces the checkpoint root holds for the supervised VM.
fn swap_in(sys: &mut System, blob: Option<Vec<u8>>) {
    let (root, slot) = (sys.root, sys.microreboot.expect("slot"));
    let rp = sys.k.component_mut::<RootPm>(root).expect("root pm");
    let sup = rp.vmm_supervision[slot].as_mut().expect("supervised vm");
    sup.last_checkpoint = blob;
}

/// The oracle: what a from-scratch capture of the supervised VM
/// serializes at this instant — every vCPU exported, the device state
/// saved, and all of guest RAM read, with nothing reused.
fn full_capture(sys: &mut System, seq: u64) -> Vec<u8> {
    let (vmm, vmm_sel, frames, vcpus, pages) = with_recipe(sys, |r| {
        (r.vmm, r.vmm_sel, r.frames, r.cfg.vcpus, r.cfg.guest_pages)
    });
    let root_ctx = sys.root_ctx;
    let vcpus = (0..vcpus)
        .map(|i| sys.k.export_vcpu(root_ctx.pd, vmm_sel, sel::vcpu(i)))
        .collect::<Result<Vec<_>, _>>()
        .expect("vcpu export");
    let mut vmm_state = Vec::new();
    let vmm = sys.k.component_mut::<Vmm>(vmm).expect("vmm");
    vmm.save_state(&mut vmm_state);
    let mut guest_mem = vec![0u8; (pages * 4096) as usize];
    sys.k
        .mem_read_into(root_ctx, frames * 4096, &mut guest_mem)
        .expect("guest window");
    Checkpoint {
        seq,
        vcpus,
        vmm_state,
        guest_mem,
    }
    .to_bytes()
}

/// One cadence tick, now, through root's own handler. Returns the
/// pages the capture copied — `None` if root took no checkpoint (the
/// VM is being revived) — after checking the blob root holds against
/// the oracle.
fn tick(sys: &mut System) -> Option<u64> {
    let (root, root_ctx, slot) = (sys.root, sys.root_ctx, sys.microreboot.expect("slot"));
    let seq = with_sup(sys, |sup| sup.seq);
    let copied = sys.k.counters.checkpoint_pages_copied;
    sys.k
        .invoke_component::<RootPm, _>(root, |rp, k| rp.checkpoint_vm(k, root_ctx, slot));
    if with_sup(sys, |sup| sup.seq) == seq {
        return None;
    }
    assert_sound(sys);
    let expect = full_capture(sys, seq + 1);
    with_sup(sys, |sup| {
        let blob = sup.last_checkpoint.as_ref().expect("checkpoint");
        assert!(
            *blob == expect,
            "checkpoint {} differs from a from-scratch capture",
            seq + 1
        );
    });
    Some(sys.k.counters.checkpoint_pages_copied - copied)
}

/// Differential test of the in-place refresh: the PV disk workload
/// (device DMA into guest buffers, guest stores, VMM writes) under a
/// 100 k-cycle cadence, and after every slice one more tick whose
/// result is compared with a from-scratch capture — across a crash and
/// restore, and across an escalation to a cold reboot. Steady-state
/// ticks copy a handful of pages into the same allocation, and so does
/// the one after the restore (which wrote back only the frames that had
/// moved, and recorded where it left them). The first capture copies
/// the frames somebody wrote — the rest of a fresh image is zeros, and
/// so is a frame at write generation 0 — and the one after the cold
/// reboot, whose `mem_fill` moved every generation, copies every page.
#[test]
fn checkpoint_image_equals_full_capture_at_every_tick() {
    let mut sys = pv_system(SMALL_GUEST, 100_000);
    let place = |sys: &mut System| {
        with_sup(sys, |sup| {
            let b = sup.last_checkpoint.as_ref().expect("checkpoint");
            (b.as_ptr(), b.capacity())
        })
    };
    // Per slice with a checked tick: (restarts so far, pages copied by
    // the slice's timer ticks and the checked one together).
    let mut slices = Vec::new();
    let mut home = None;
    let mut crashes = 0;
    // Before anything runs: the image the launcher loaded, and little
    // else of the guest's RAM.
    let written_at_boot = written_frames(&mut sys, SMALL_GUEST);
    assert!((1..SMALL_GUEST / 8).contains(&written_at_boot));
    loop {
        let copied = sys.k.counters.checkpoint_pages_copied;
        let out = sys.run(Some(100_000));
        let restarts = with_sup(&mut sys, |sup| sup.restarts);
        if tick(&mut sys).is_some() {
            slices.push((restarts, sys.k.counters.checkpoint_pages_copied - copied));
            if restarts < 2 {
                // One allocation from the first capture until the cold
                // reboot discards it, the restore included.
                assert_eq!(*home.get_or_insert(place(&mut sys)), place(&mut sys));
            }
        }
        if out == RunOutcome::Shutdown(0) {
            break;
        }
        assert_eq!(out, RunOutcome::Budget);
        // Crash once mid-workload, and again right after the restore
        // (inside the stability window: the ladder climbs).
        let progressed = pv_completions(&mut sys) >= 8 && slices.len() >= 12;
        if (crashes == 0 && progressed) || (crashes == 1 && restarts == 1) {
            let (_, pd) = sys.microreboot_vmm().expect("supervised vmm");
            sys.k.pd_fault(pd, VMM_CRASH_CODE);
            crashes += 1;
        }
    }
    assert_eq!(sys.k.counters.vmm_restarts, 2);
    assert_eq!(
        sys.k.counters.escalations, 1,
        "second revive was a cold boot"
    );

    // The boot starts with a capture of what was written by then, the
    // cold reboot (`mem_fill` moved every generation) with a whole one;
    // the restored incarnation's table came back with its memory.
    for incarnation in 0..=2 {
        let mut of = slices.iter().filter(|&&(r, _)| r == incarnation);
        if incarnation != 1 {
            let &(_, first) = of.next().expect("a checked tick per incarnation");
            let whole = if incarnation == 0 {
                written_at_boot
            } else {
                SMALL_GUEST
            };
            assert!(
                (whole..whole + 64).contains(&first),
                "incarnation {incarnation} starts by capturing {whole} pages, not {first}"
            );
        }
        let mut checked = 0;
        for &(_, copied) in of {
            assert!(
                copied <= 64,
                "incarnation {incarnation}: a steady-state slice copied {copied} pages"
            );
            checked += 1;
        }
        assert!(checked > 0, "incarnation {incarnation} was never checked");
    }
    assert!(slices.len() >= 26, "only {} slices checked", slices.len());
}

/// Writer matrix: between two ticks one distinct page each is touched
/// by every kind of writer — guest stores and AHCI DMA (the workload
/// itself), `Kernel::mem_write`, `mem_write_u32`, `mem_slice_mut` and
/// `mem_fill` — and the tick recopies exactly the touched pages. All of
/// them come back after a crash that scribbles over guest RAM, and the
/// tick after the restore has next to nothing to copy.
#[test]
fn every_writer_reaches_the_checkpoint_image() {
    // No timer ticks (the period outlasts the run): every capture here
    // is one this test asks for.
    let mut sys = pv_system(SMALL_GUEST, 1 << 40);
    let root_ctx = sys.root_ctx;
    run_until(&mut sys, |s| pv_completions(s) >= 4);
    let written = written_frames(&mut sys, SMALL_GUEST);
    assert!((1..SMALL_GUEST / 8).contains(&written), "{written} written");
    assert_eq!(
        tick(&mut sys),
        Some(written),
        "the first capture copies every written frame and no other"
    );
    assert_eq!(tick(&mut sys), Some(0), "nothing ran, nothing to copy");

    // Host-side writers, on four pages the guest never uses.
    let spare = guest_host(&mut sys, 0x30_0000);
    assert!(sys.k.mem_write(root_ctx, spare + 0x10, b"mem_write"));
    assert!(sys.k.mem_write_u32(root_ctx, spare + 0x1000, 0x5eed_0001));
    sys.k
        .mem_slice_mut(root_ctx, spare + 0x2ff0, 8)
        .expect("mapped")
        .copy_from_slice(b"slicemut");
    assert!(sys.k.mem_fill(root_ctx, spare + 0x3800, 0x800, 0xf1));
    assert_eq!(tick(&mut sys), Some(4), "exactly the four written pages");

    // Guest-side writers: one more batch of the workload. The frames
    // that moved are found here from the generations, independently of
    // the recipe's table.
    let base = guest_host(&mut sys, 0);
    let gens = |sys: &System| frame_gens(sys, base, SMALL_GUEST);
    let before = gens(&sys);
    let done = pv_completions(&mut sys);
    run_until(&mut sys, |s| pv_completions(s) >= done + BATCH as u64);
    let after = gens(&sys);
    let moved: Vec<u64> = (0..SMALL_GUEST)
        .filter(|&p| before[p as usize] != after[p as usize])
        .collect();
    let buf = layout::PV_DISK_BUF as u64 / 4096;
    let dma: Vec<u64> = (buf..buf + BATCH as u64).collect();
    assert!(
        dma.iter().all(|p| moved.contains(p)),
        "device DMA moved the request buffers: {moved:x?}"
    );
    assert!(
        moved.contains(&(layout::PV_DISK_RING as u64 / 4096)),
        "guest stores moved the descriptor ring: {moved:x?}"
    );
    assert!(moved.len() < 32, "a batch touches few pages: {moved:x?}");
    assert_eq!(tick(&mut sys), Some(moved.len() as u64));

    // The VMM dies and takes guest RAM with it: the spare pages and
    // the request buffers are overwritten before root gets to run.
    let (_, pd) = sys.microreboot_vmm().expect("supervised vmm");
    sys.k.pd_fault(pd, VMM_CRASH_CODE);
    sys.k.machine.mem.fill(spare, 4 * 4096, 0xee);
    sys.k.machine.mem.fill(base + buf * 4096, 8 * 4096, 0xee);
    while with_sup(&mut sys, |sup| sup.restarts) < 1 {
        sys.run(Some(10_000));
    }
    let read = |sys: &System, at: u64, n: usize| sys.k.machine.mem.read_bytes(at, n);
    assert_eq!(read(&sys, spare + 0x10, 9), b"mem_write");
    assert_eq!(sys.k.machine.mem.read_u32(spare + 0x1000), 0x5eed_0001);
    assert_eq!(read(&sys, spare + 0x2ff0, 8), b"slicemut");
    assert_eq!(read(&sys, spare + 0x3800, 0x800), vec![0xf1; 0x800]);
    assert_eq!(read(&sys, spare + 0x3000, 0x800), vec![0; 0x800]);
    // The restore wrote the scribbled frames back and recorded where
    // that left them: only what ran since is captured again.
    let copied = tick(&mut sys).expect("capture");
    assert!(copied <= 8, "the restore cost the image {copied} pages");

    assert_eq!(sys.run(Some(BUDGET)), RunOutcome::Shutdown(0));
    let got = sys.k.machine.mem.read_bytes(base + buf * 4096, 8 * 4096);
    let sectors = (BLOCK / 512) as u64;
    let mut expect = Vec::new();
    for req in 24..32u64 {
        for s in 0..sectors {
            expect.extend_from_slice(&sys.k.machine.ahci().sector(req * sectors + s));
        }
    }
    assert!(got == expect, "contents match the backing store");
}

/// The generation table describes one blob — the one the recipe last
/// wrote. Whatever else root hands it is recaptured in full and comes
/// out exact (`tick` compares with a from-scratch capture): a *foreign*
/// blob holding an image — another run's checkpoint of the same size,
/// an older one of this run — has every page overwritten, and a
/// *missing* one — none at all, a truncated one — is rebuilt from
/// zeros, so only the frames somebody wrote are copied. A capture that
/// fails leaves the blob alone.
#[test]
fn foreign_or_missing_blob_is_recaptured_in_full() {
    let mut sys = pv_system(SMALL_GUEST, 1 << 40);
    run_until(&mut sys, |s| pv_completions(s) >= 4);
    assert!(tick(&mut sys).expect("capture") < SMALL_GUEST / 8);
    run_until(&mut sys, |s| pv_completions(s) >= 8);
    assert!(tick(&mut sys).expect("capture") < 32);
    let ours = with_sup(&mut sys, |sup| sup.last_checkpoint.clone()).expect("checkpoint");

    // Another run of the same system, further along: same size, valid,
    // and describing different memory.
    let foreign = {
        let mut other = pv_system(SMALL_GUEST, 1 << 40);
        run_until(&mut other, |s| pv_completions(s) >= 16);
        for _ in 0..3 {
            tick(&mut other).expect("capture");
        }
        with_sup(&mut other, |sup| sup.last_checkpoint.clone()).expect("checkpoint")
    };
    assert_eq!(foreign.len(), ours.len());
    assert!(foreign != ours);
    let mut truncated = ours.clone();
    truncated.truncate(ours.len() / 2);

    let written = written_frames(&mut sys, SMALL_GUEST);
    assert!((1..SMALL_GUEST / 8).contains(&written), "{written} written");
    // `ours` went stale when the recipe wrote the blobs after it.
    for (blob, holds_image) in [
        (Some(foreign), true),
        (Some(truncated), false),
        (None, false),
        (Some(ours), true),
    ] {
        swap_in(&mut sys, blob);
        let copied = if holds_image { SMALL_GUEST } else { written };
        assert_eq!(
            tick(&mut sys),
            Some(copied),
            "holds an image: {holds_image}"
        );
        assert_eq!(tick(&mut sys), Some(0), "and is then the recipe's own");
    }

    // A capture that cannot finish — a vCPU that cannot be exported, a
    // window that is not mapped — leaves root's checkpoint byte for
    // byte, although guest RAM and the sequence number have moved on.
    let before = with_sup(&mut sys, |sup| sup.last_checkpoint.clone());
    let base = guest_host(&mut sys, 0);
    sys.k.machine.mem.fill(base + 0x30_0000, 4096, 0xee);
    let (vmm_sel, frames) = with_recipe(&mut sys, |r| (r.vmm_sel, r.frames));
    with_recipe(&mut sys, |r| r.vmm_sel = 0xdead);
    assert_eq!(tick(&mut sys), None, "vCPU export refused");
    with_recipe(&mut sys, |r| {
        (r.vmm_sel, r.frames) = (vmm_sel, u64::MAX >> 16)
    });
    assert_eq!(tick(&mut sys), None, "guest window unmapped");
    assert!(with_sup(&mut sys, |sup| sup.last_checkpoint.clone()) == before);
    with_recipe(&mut sys, |r| r.frames = frames);
    assert_eq!(tick(&mut sys), Some(1), "and the table still describes it");
}

/// A checkpoint in a previous format swapped into root before the VMM
/// dies: version 4's dense image with the records of root's own blob
/// behind it, and root's own blob with its version word set to 5 or 6
/// (the framing is the same; version 5's device record had one request
/// layout per disk front end, version 6's recall byte no halt bit).
/// Every revive at the resume rung refuses
/// it as corrupt (a typed error, not a misparse), and once the rung's
/// attempts are spent the ladder climbs to a cold reboot, which runs
/// the workload to completion from the start.
#[test]
fn a_version_4_blob_is_refused_and_climbs_to_a_cold_reboot() {
    for version in [4u32, 5, 6] {
        let mut sys = microreboot_system();
        run_until(&mut sys, |s| {
            pv_completions(s) >= 8 && with_sup(s, |sup| sup.last_checkpoint.is_some())
        });
        let now = with_sup(&mut sys, |sup| sup.last_checkpoint.clone()).expect("checkpoint");
        let old = if version == 4 {
            let ck = Checkpoint::from_bytes(&now).expect("parses");
            let stored = u32::from_le_bytes(now[28..32].try_into().expect("page count")) as usize;
            let mut v4 = b"NOVACKPT".to_vec();
            v4.extend(4u32.to_le_bytes());
            v4.extend(ck.seq.to_le_bytes());
            v4.extend((ck.guest_mem.len() as u64).to_le_bytes());
            v4.extend(&ck.guest_mem);
            v4.extend(&now[32 + stored * (4 + 4096)..]);
            v4
        } else {
            let mut old = now;
            old[8..12].copy_from_slice(&version.to_le_bytes());
            old
        };
        swap_in(&mut sys, Some(old));

        let (_, pd) = sys.microreboot_vmm().expect("supervised vmm");
        sys.k.pd_fault(pd, VMM_CRASH_CODE);
        let mut errors = Vec::new();
        while with_sup(&mut sys, |sup| sup.restarts) < 1 {
            assert_eq!(sys.run(Some(10_000)), RunOutcome::Budget);
            if let Some(e) = with_sup(&mut sys, |sup| sup.last_error) {
                if errors.last() != Some(&e) {
                    errors.push(e);
                }
            }
        }
        assert_eq!(
            errors,
            [RespawnError::State("corrupt checkpoint")],
            "v{version}"
        );
        with_sup(&mut sys, |sup| {
            assert_eq!((sup.level, sup.restarts), (LEVEL_COLD, 1));
            assert!(sup.last_checkpoint.is_none(), "the refused blob is dropped");
        });
        assert_eq!(sys.k.counters.escalations, 1);
        assert_sound(&sys);

        assert_eq!(sys.run(Some(BUDGET)), RunOutcome::Shutdown(0));
        let marks: Vec<u32> = sys.k.machine.marks().iter().map(|&(_, v)| v).collect();
        assert_eq!(
            marks.iter().filter(|&&v| v == 0x1000).count(),
            2,
            "rebooted"
        );
        assert_eq!(marks.iter().filter(|&&v| v == 0x1001).count(), 1);
    }
}

/// Has root handle the supervised VMM's death at the resume rung, here
/// and now, from the checkpoint it holds; nothing runs afterwards, so
/// what the caller then reads is what the revive left.
fn resume_revive(sys: &mut System) {
    let (root, root_ctx, slot) = (sys.root, sys.root_ctx, sys.microreboot.expect("slot"));
    let rp = sys.k.component_mut::<RootPm>(root).expect("root pm");
    let sup = rp.vmm_supervision[slot].as_mut().expect("supervised vm");
    // Outside the stability window: the ladder resumes.
    (sup.level, sup.last_restore_at) = (LEVEL_RESUME, 0);
    let restarts = sup.restarts;
    sys.k
        .invoke_component::<RootPm, _>(root, |rp, k| rp.handle_vmm_death(k, root_ctx, slot));
    with_sup(sys, |sup| {
        assert_eq!(sup.last_error, None);
        assert_eq!((sup.level, sup.restarts), (LEVEL_RESUME, restarts + 1));
    });
    assert_sound(sys);
}

/// DESIGN §6e's rule read in the restore direction — a frame still at
/// the generation the table holds equals its page of the image — on a
/// guest of `pages` pages: after a clean crash and after one that
/// scribbles over guest RAM, the whole guest window equals the image in
/// root's checkpoint, every frame that moved since the capture was
/// written back, next to nothing else was, and the restore left the
/// table describing what it wrote (the next tick copies nothing). A
/// blob the table does not describe — another sequence number, or any
/// blob before the recipe's first capture — is written back whole.
fn restore_is_coherent(pages: u64) {
    let mut sys = pv_system(pages, 1 << 40);
    let base = guest_host(&mut sys, 0);
    let gens = |sys: &System| frame_gens(sys, base, pages);
    let moved = |a: &[u64], b: &[u64]| -> Vec<u64> {
        (0..pages)
            .filter(|&p| a[p as usize] != b[p as usize])
            .collect()
    };
    let window = |sys: &System| sys.k.machine.mem.read_bytes(base, (pages * 4096) as usize);
    let image = |sys: &mut System| {
        with_sup(sys, |sup| {
            let blob = sup.last_checkpoint.as_ref().expect("checkpoint");
            Checkpoint::from_bytes(blob).expect("parses").guest_mem
        })
    };
    // What a fresh incarnation's `on_start` writes into guest RAM
    // before the restore runs (the boot image and its tables: pages 0
    // and 0x100 here): the only frames a restore may write although
    // they did not move between the capture and the crash.
    let boot_pages = 4;

    // Before the recipe's first capture its table describes nothing:
    // a checkpoint from elsewhere (the oracle's) goes back whole.
    run_until(&mut sys, |s| pv_completions(s) >= 4);
    let oracle = full_capture(&mut sys, 1);
    swap_in(&mut sys, Some(oracle));
    let at_crash = gens(&sys);
    resume_revive(&mut sys);
    assert_eq!(moved(&at_crash, &gens(&sys)).len() as u64, pages);
    assert!(window(&sys) == image(&mut sys));
    assert_eq!(tick(&mut sys), Some(0), "and the table describes it now");

    let spare = 0x30_0000 / 4096;
    let buf = layout::PV_DISK_BUF as u64 / 4096;
    for scribble in [false, true] {
        let done = pv_completions(&mut sys);
        run_until(&mut sys, |s| pv_completions(s) >= done + 4);
        assert!(tick(&mut sys).expect("capture") < 32);
        let at_capture = gens(&sys);
        // The guest runs on past the capture, then its VMM dies —
        // taking, the second time, some of guest RAM with it.
        run_until(&mut sys, |s| pv_completions(s) >= done + 8);
        if scribble {
            let mem = &mut sys.k.machine.mem;
            mem.fill(base + spare * 4096, 4 * 4096, 0xee);
            mem.fill(base + buf * 4096, 8 * 4096, 0xee);
        }
        let at_crash = gens(&sys);
        let stale = moved(&at_capture, &at_crash);
        assert!(stale.len() >= 4, "the workload moved frames: {stale:x?}");
        assert!(!scribble || (spare..spare + 4).all(|p| stale.contains(&p)));
        assert!(window(&sys) != image(&mut sys));

        resume_revive(&mut sys);
        let written = moved(&at_crash, &gens(&sys));
        assert!(
            stale.iter().all(|p| written.contains(p)),
            "every stale frame was written back: {stale:x?} vs {written:x?}"
        );
        assert!(
            written.len() <= stale.len() + boot_pages,
            "and no frame that had not moved: {stale:x?} vs {written:x?}"
        );
        assert!(
            window(&sys) == image(&mut sys),
            "guest RAM equals the image"
        );
        if scribble {
            // The spare pages are zeros, so the image does not store
            // them; the crash scribbled over them, and they read zeros
            // again.
            let absent = with_sup(&mut sys, |sup| {
                let blob = sup.last_checkpoint.as_ref().expect("checkpoint");
                let view = View::parse(blob).expect("parses");
                (spare..spare + 4).all(|p| view.page(p as usize).is_none())
            });
            assert!(absent, "the image stores no spare page");
            let spares = sys.k.machine.mem.read_bytes(base + spare * 4096, 4 * 4096);
            assert!(
                spares.iter().all(|&b| b == 0),
                "absent pages restored as zeros"
            );
        }
        assert_eq!(tick(&mut sys), Some(0), "the restore recorded its writes");
    }

    // The same checkpoint under another sequence number, with one byte
    // changed in a frame that did not move: not the blob the table
    // describes, so the table must not be believed about any frame.
    let ours = with_sup(&mut sys, |sup| sup.last_checkpoint.clone()).expect("checkpoint");
    let mut foreign = Checkpoint::from_bytes(&ours).expect("parses");
    foreign.seq += 7;
    foreign.guest_mem[(spare * 4096 + 0x100) as usize] ^= 0x5a;
    swap_in(&mut sys, Some(foreign.to_bytes()));
    let at_crash = gens(&sys);
    resume_revive(&mut sys);
    assert_eq!(moved(&at_crash, &gens(&sys)).len() as u64, pages);
    assert!(
        window(&sys) == foreign.guest_mem,
        "the changed byte included"
    );
    assert_eq!(tick(&mut sys), Some(0));

    assert_eq!(sys.run(Some(BUDGET)), RunOutcome::Shutdown(0));
}

#[test]
fn restore_writes_back_exactly_what_moved_since_the_image() {
    restore_is_coherent(SMALL_GUEST);
    // The 16 MB guest of the other suites, where the window spans
    // eight radix leaves, rides the slow sweep.
    if std::env::var_os("NOVA_SLOW_TESTS").is_some() {
        restore_is_coherent(4096);
    }
}

// ---------------------------------------------------------------------
// Boot is the first revive
// ---------------------------------------------------------------------

/// Everything root's recipe and the VMM's `on_start` put into the
/// supervised VMM's protection domain, object identities aside: every
/// page mapping (page → frame, rights), every I/O port, and the kind
/// and permissions of the capability at every selector.
type PdShape = (
    Vec<(u64, u64, nova_core::obj::MemRights)>,
    Vec<u16>,
    Vec<(usize, &'static str, nova_core::cap::Perms)>,
);

fn vmm_pd_shape(sys: &mut System) -> PdShape {
    use nova_core::obj::ObjRef;
    let (_, vmm_pd) = sys.microreboot_vmm().expect("supervised vmm");
    let pd = sys.k.obj.pd(vmm_pd);
    let mut mem: Vec<_> = pd.mem.iter().map(|(p, m)| (p, m.hpa, m.rights)).collect();
    mem.sort_unstable_by_key(|m| m.0);
    let io = (0..=u16::MAX).filter(|&p| pd.io.allowed(p)).collect();
    let caps: Vec<_> = (0..0x4000)
        .filter_map(|s| pd.caps.get(s).map(|c| (s, c)))
        .map(|(s, c)| {
            let kind = match c.obj {
                ObjRef::Pd(_) => "pd",
                ObjRef::Ec(_) => "ec",
                ObjRef::Sc(_) => "sc",
                ObjRef::Pt(_) => "pt",
                ObjRef::Sm(_) => "sm",
            };
            (s, kind, c.perms)
        })
        .collect();
    assert_eq!(caps.len(), pd.caps.count(), "no capability out of range");
    (mem, io, caps)
}

/// Has root handle the supervised VMM's death at the cold rung, here
/// and now — the path its watchdog takes when the VMM wedges without
/// faulting. Returns the hypercall numbers root, the fresh VMM and the
/// disk server issued while doing so, in order.
fn cold_revive(sys: &mut System) -> Vec<u64> {
    let (root, root_ctx, slot) = (sys.root, sys.root_ctx, sys.microreboot.expect("slot"));
    let rp = sys.k.component_mut::<RootPm>(root).expect("root pm");
    let sup = rp.vmm_supervision[slot].as_mut().expect("supervised vm");
    // Outside the stability window the ladder would resume; this test
    // is about the cold rung.
    (sup.level, sup.last_checkpoint, sup.last_restore_at) = (LEVEL_COLD, None, 0);
    let restarts = sup.restarts;
    sys.k.machine.enable_tracing(cat::ALL);
    sys.k
        .invoke_component::<RootPm, _>(root, |rp, k| rp.handle_vmm_death(k, root_ctx, slot));
    with_sup(sys, |sup| {
        assert_eq!((sup.level, sup.restarts), (LEVEL_COLD, restarts + 1));
        assert_eq!(sup.last_error, None);
    });
    assert_sound(sys);
    let tracer = sys.k.machine.tracer();
    assert_eq!(tracer.dropped(), 0);
    nova_trace::query::events_of(&tracer.events(), nova_trace::Kind::Hypercall)
        .iter()
        .map(|e| e.detail)
        .collect()
}

/// DESIGN §6e's claim, as an assertion: the incarnation `System::build`
/// boots and the one a cold revive builds come out of one recipe, so
/// their protection domains have the same shape — and two cold revives
/// are the same hypercall sequence, number for number. (Boot itself
/// runs before a tracer can be attached, so its sequence is compared
/// through its result.)
#[test]
fn boot_is_the_first_revive() {
    let mut sys = microreboot_system();
    let boot = vmm_pd_shape(&mut sys);
    assert!(boot.0.len() > 4096 && !boot.1.is_empty() && boot.2.len() > 8);
    let booted = sys.microreboot_vmm().expect("supervised vmm");

    let first = cold_revive(&mut sys);
    assert_ne!(sys.microreboot_vmm(), Some(booted), "a new incarnation");
    assert!(vmm_pd_shape(&mut sys) == boot, "cold revive ≡ boot");

    // Let the second incarnation run (and checkpoint) before it dies.
    run_until(&mut sys, |s| {
        pv_completions(s) >= 8 && with_sup(s, |sup| sup.last_checkpoint.is_some())
    });
    let second = cold_revive(&mut sys);
    assert!(vmm_pd_shape(&mut sys) == boot, "and so is every later one");
    assert!(first.len() > 20, "CreatePd, grants, wiring, the VMM's own");
    assert_eq!(first, second, "one provisioning sequence");

    // The cold-booted guest still does its job.
    assert_eq!(sys.run(Some(BUDGET)), RunOutcome::Shutdown(0));
}
