//! System builder: boots the microhypervisor, the root partition
//! manager, the disk server and one VMM+VM, wiring the delegations the
//! way Figure 2 lays the system out. This code is "what the root
//! partition manager's policy does" — every resource grant goes
//! through the ordinary hypercall interface with root's identity.
//!
//! Boot-time wiring failures are configuration errors, so this module
//! uses `expect` (not `unwrap`) with step names; runtime respawn paths
//! live in `nova_user::root` and `crate::microreboot` and are fallible.

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::panic)]

use nova_core::cap::{CapSel, Perms};
use nova_core::obj::MemRights;
use nova_core::{CompCtx, CompId, Hypercall, Kernel, KernelConfig, RunOutcome};
use nova_hw::machine::{Machine, MachineConfig};
use nova_hw::Cycles;
use nova_user::disk::{DiskServer, DiskServerConfig};
use nova_user::proto::disk as disk_proto;
use nova_user::root::{wire_disk_client, DiskSupervision, RootOps, RootPm, SupervisedClient};

use crate::microreboot::{self, DiskWiring, MicrorebootRecipe};
use crate::vmm::{Vmm, VmmConfig, SEL_RESTART_SM};

/// Disk portal selectors inside the VMM's capability space (the
/// protocol's well-known client selectors, so a restarted server
/// re-delegates to the same slots).
const VMM_SEL_DISK_REG: CapSel = disk_proto::CLIENT_SEL_REG as CapSel;
const VMM_SEL_DISK_REQ: CapSel = disk_proto::CLIENT_SEL_REQ as CapSel;
const VMM_SEL_DISK_BATCH: CapSel = disk_proto::CLIENT_SEL_BATCH as CapSel;

/// Watchdog deadline for the supervised disk server.
const DISK_WATCHDOG_TIMEOUT: Cycles = 8_000_000;

/// What to build.
pub struct LaunchOptions {
    /// The hardware platform.
    pub machine: MachineConfig,
    /// Kernel configuration (tags, host page size, hypervisor memory).
    pub kernel: KernelConfig,
    /// Launch the disk server and attach the VM to it.
    pub with_disk: bool,
    /// Assign the physical AHCI controller directly to the *VM*
    /// instead of using the disk server + virtual controller.
    pub direct_disk: bool,
    /// Assign the NIC directly to the VM.
    pub direct_nic: bool,
    /// Run the disk server under root supervision: heartbeat +
    /// kernel watchdog, automatic respawn on death, and VMM channel
    /// re-registration (the recovery architecture of Section 4.2).
    pub supervise: bool,
    /// Run the first VMM under root supervision with this checkpoint
    /// cadence (cycles): periodic guest-transparent checkpoints and
    /// microreboot recovery when the VMM dies. `None` disables.
    pub microreboot: Option<u64>,
    /// The VMM/VM configuration.
    pub vmm: VmmConfig,
}

impl LaunchOptions {
    /// A full-virtualization single-VM system on the Core i7 with the
    /// disk server attached.
    pub fn standard(vmm: VmmConfig) -> LaunchOptions {
        let ram = (0x1000 + vmm.guest_pages + 0x100) * 4096 + (24 << 20);
        LaunchOptions {
            machine: MachineConfig::core_i7(ram as usize),
            kernel: KernelConfig {
                scheduler_timer_hz: Some(1000),
                ..KernelConfig::default()
            },
            with_disk: true,
            direct_disk: false,
            direct_nic: false,
            supervise: false,
            microreboot: None,
            vmm,
        }
    }

    /// [`LaunchOptions::standard`] with disk-server supervision on.
    pub fn supervised(vmm: VmmConfig) -> LaunchOptions {
        LaunchOptions {
            supervise: true,
            ..LaunchOptions::standard(vmm)
        }
    }

    /// [`LaunchOptions::supervised`] plus VMM microreboot: the first
    /// VM runs under root's crash-only supervision tree with periodic
    /// checkpoints and automatic revive.
    pub fn microrebootable(vmm: VmmConfig) -> LaunchOptions {
        LaunchOptions {
            microreboot: Some(microreboot::DEFAULT_CKPT_PERIOD),
            ..LaunchOptions::supervised(vmm)
        }
    }
}

/// The booted system.
pub struct System {
    /// The kernel (owning the machine).
    pub k: Kernel,
    /// Root's identity.
    pub root_ctx: CompCtx,
    /// The root partition manager.
    pub root: CompId,
    /// The disk server, if launched.
    pub disk: Option<CompId>,
    /// The first VMM.
    pub vmm: CompId,
    /// All VMMs (the first included), one per VM (Section 4.2).
    pub vmms: Vec<CompId>,
    /// Disk-server wiring for adding further VMs.
    disk_srv: Option<(nova_core::cap::CapSel, CompCtx)>,
    /// Next free physical frame page for additional guests.
    next_frames: u64,
    /// The disk server runs supervised (new VMs join supervision).
    supervised: bool,
    /// Supervision slot of the microrebooted first VM, if enabled.
    pub microreboot: Option<usize>,
}

impl System {
    /// Builds and boots the system described by `opts`.
    pub fn build(mut opts: LaunchOptions) -> System {
        let machine = Machine::new(opts.machine);
        let ahci_dev = machine.dev.ahci;
        let nic_dev = machine.dev.nic;
        let mut k = Kernel::new(machine, opts.kernel);

        // Root partition manager.
        let (root, root_ec) = k.load_component(k.root_pd, 0, Box::new(RootPm::new()));
        k.start_component(root, root_ec);
        let root_ctx = k
            .component_mut::<RootPm>(root)
            .expect("boot wiring")
            .ctx
            .expect("boot wiring");

        // ---- Disk server ----
        let mut disk = None;
        let mut disk_srv_sel = None;
        if opts.with_disk && !opts.direct_disk {
            let cfg = if opts.supervise {
                DiskServerConfig::supervised()
            } else {
                DiskServerConfig::standard()
            };
            let mut ops = RootOps::new(&mut k, root_ctx);
            let (srv_sel, srv_pd) = ops.create_pd("disk-server", None).expect("boot wiring");
            ops.grant_mem(
                srv_sel,
                nova_hw::machine::AHCI_BASE / 4096,
                1,
                MemRights::RW,
                cfg.mmio_va / 4096,
            )
            .expect("boot wiring");
            // Private command memory (2 DMA-able pages from root frames).
            ops.grant_mem(srv_sel, 0x300, 2, MemRights::RW_DMA, cfg.cmd_va / 4096)
                .expect("boot wiring");
            ops.grant_gsi(srv_sel, cfg.gsi).expect("boot wiring");
            ops.assign_device(srv_sel, ahci_dev).expect("boot wiring");

            let (comp, ec) = k.load_component(srv_pd, 0, Box::new(DiskServer::new(cfg)));
            k.start_component(comp, ec);
            // Server-side portal creation (the server program's code).
            let srv_ctx = CompCtx {
                pd: srv_pd,
                ec,
                comp,
            };
            k.hypercall(
                srv_ctx,
                Hypercall::CreatePt {
                    ec: nova_core::kernel::SEL_SELF_EC,
                    mtd: 0,
                    id: disk_proto::PORTAL_REGISTER,
                    dst: 0x20,
                },
            )
            .expect("boot wiring");
            k.hypercall(
                srv_ctx,
                Hypercall::CreatePt {
                    ec: nova_core::kernel::SEL_SELF_EC,
                    mtd: 0,
                    id: disk_proto::PORTAL_REQUEST,
                    dst: 0x21,
                },
            )
            .expect("boot wiring");
            k.hypercall(
                srv_ctx,
                Hypercall::CreatePt {
                    ec: nova_core::kernel::SEL_SELF_EC,
                    mtd: 0,
                    id: disk_proto::PORTAL_BATCH,
                    dst: 0x22,
                },
            )
            .expect("boot wiring");
            disk = Some(comp);
            disk_srv_sel = Some((srv_sel, srv_ctx));

            if opts.supervise {
                // Root needs an SC of its own so the watchdog signal
                // actually schedules it, and a semaphore for the
                // kernel to fire when the server goes silent.
                let (sc_sel, wd_sm_sel) = {
                    let rp = k.component_mut::<RootPm>(root).expect("boot wiring");
                    (rp.alloc_sel(), rp.alloc_sel())
                };
                k.hypercall(
                    root_ctx,
                    Hypercall::CreateSc {
                        ec: nova_core::kernel::SEL_SELF_EC,
                        prio: 48,
                        quantum: 100_000,
                        dst: sc_sel,
                    },
                )
                .expect("boot wiring");
                k.hypercall(
                    root_ctx,
                    Hypercall::CreateSm {
                        count: 0,
                        dst: wd_sm_sel,
                    },
                )
                .expect("boot wiring");
                k.hypercall(root_ctx, Hypercall::SmBind { sm: wd_sm_sel })
                    .expect("boot wiring");
                let wd_sm = nova_core::SmId(k.obj.sms.len() - 1);
                k.hypercall(
                    root_ctx,
                    Hypercall::WatchdogArm {
                        pd: srv_sel,
                        sm: wd_sm_sel,
                        timeout: DISK_WATCHDOG_TIMEOUT,
                    },
                )
                .expect("boot wiring");
                let rp = k.component_mut::<RootPm>(root).expect("boot wiring");
                rp.supervision = Some(DiskSupervision {
                    srv_sel,
                    srv_ctx,
                    wd_sm_sel,
                    wd_sm,
                    timeout: DISK_WATCHDOG_TIMEOUT,
                    cfg,
                    ahci_dev,
                    mmio_page: nova_hw::machine::AHCI_BASE / 4096,
                    cmd_frames: 0x300,
                    clients: Vec::new(),
                    restarts: 0,
                });
            }
        }

        // ---- VMM ----
        let guest_pages = opts.vmm.guest_pages;
        // Physical frames backing guest RAM: 16 MiB onward (large-page
        // aligned and physically contiguous for the EPT mirroring).
        let guest_frames_base = 0x1000u64;
        let mut ops = RootOps::new(&mut k, root_ctx);
        let (vmm_sel, vmm_pd) = ops.create_pd("vmm", None).expect("boot wiring");
        ops.grant_mem(
            vmm_sel,
            guest_frames_base,
            guest_pages,
            MemRights::RW_DMA,
            opts.vmm.guest_base_page,
        )
        .expect("boot wiring");
        // Completion-ring pages: one for the vAHCI path, one for the
        // PV batched queue (a second disk-server client).
        ops.grant_mem(
            vmm_sel,
            guest_frames_base + guest_pages,
            1,
            MemRights::RW,
            opts.vmm.ring_page,
        )
        .expect("boot wiring");
        ops.grant_mem(
            vmm_sel,
            guest_frames_base + guest_pages + 1,
            1,
            MemRights::RW,
            opts.vmm.pv_ring_page,
        )
        .expect("boot wiring");
        // Debug/mark ports so the guest's shutdown stops the world.
        ops.grant_io(vmm_sel, crate::devices::PORT_EXIT, 2)
            .expect("boot wiring");
        // VGA window, direct-mapped into the guest by the VMM.
        ops.grant_mem(
            vmm_sel,
            nova_hw::vga::VGA_BASE / 4096,
            1,
            MemRights::RW,
            nova_hw::vga::VGA_BASE / 4096,
        )
        .expect("boot wiring");
        opts.vmm.direct_mmio.push((
            nova_hw::vga::VGA_BASE / 4096,
            nova_hw::vga::VGA_BASE / 4096,
            1,
        ));

        // Direct disk assignment: the VM touches the real controller.
        if opts.direct_disk {
            ops.grant_mem(
                vmm_sel,
                nova_hw::machine::AHCI_BASE / 4096,
                1,
                MemRights::RW,
                0x7_0000,
            )
            .expect("boot wiring");
            ops.grant_gsi(vmm_sel, nova_hw::machine::AHCI_IRQ)
                .expect("boot wiring");
            // Appears in the guest at the same BAR address the
            // virtual controller would use, so one driver serves both.
            opts.vmm
                .direct_mmio
                .push((nova_hw::machine::AHCI_BASE / 4096, 0x7_0000, 1));
            opts.vmm.direct_gsis.push(nova_hw::machine::AHCI_IRQ);
            opts.vmm.guest_dma = true;
        }
        if opts.direct_nic {
            ops.grant_mem(
                vmm_sel,
                nova_hw::machine::NIC_BASE / 4096,
                4,
                MemRights::RW,
                0x7_0010,
            )
            .expect("boot wiring");
            ops.grant_gsi(vmm_sel, nova_hw::machine::NIC_IRQ)
                .expect("boot wiring");
            opts.vmm
                .direct_mmio
                .push((nova_hw::machine::NIC_BASE / 4096, 0x7_0010, 4));
            opts.vmm.direct_gsis.push(nova_hw::machine::NIC_IRQ);
            opts.vmm.guest_dma = true;
        }
        if opts.vmm.exitless_direct {
            // The exit-free configuration also needs the timer and
            // interrupt-controller ports (the hypervisor keeps the
            // physical ones, so this config uses dedicated guest
            // hardware: serial + debug ports suffice for the
            // benchmarks' compute workloads).
            ops.grant_io(vmm_sel, nova_hw::serial::COM1, 8)
                .expect("boot wiring");
            opts.vmm.direct_ports.push((nova_hw::serial::COM1, 8));
            opts.vmm.direct_ports.push((crate::devices::PORT_EXIT, 2));
        }

        // Paravirtual NIC: the VMM (not the VM) owns the physical
        // controller — register window, interrupt, IOMMU mapping.
        // Guest RAM is already DMA-granted into the VMM's space, so
        // packet payloads land straight in guest buffers.
        if opts.vmm.pv_nic {
            ops.grant_mem(
                vmm_sel,
                nova_hw::machine::NIC_BASE / 4096,
                4,
                MemRights::RW,
                crate::pvnet::PVNET_MMIO_PAGE,
            )
            .expect("boot wiring");
            ops.grant_gsi(vmm_sel, nova_hw::machine::NIC_IRQ)
                .expect("boot wiring");
            ops.assign_device(vmm_sel, nic_dev).expect("boot wiring");
        }

        if disk.is_some() {
            opts.vmm.disk_portals = Some((VMM_SEL_DISK_REG, VMM_SEL_DISK_REQ));
            opts.vmm.disk_batch_portal = Some(VMM_SEL_DISK_BATCH);
            opts.vmm.supervised_disk = opts.supervise;
        }

        // The microreboot recipe replays this exact configuration for
        // every incarnation.
        let recipe_cfg = opts.vmm.clone();
        let (vmm, vmm_ec) = k.load_component(vmm_pd, 0, Box::new(Vmm::new(opts.vmm)));

        // Disk portals into the VMM's space (server code path, using a
        // root-granted PD capability).
        let mut vm0_restart_sel = None;
        if let Some((srv_sel, srv_ctx)) = disk_srv_sel {
            wire_disk_client(&mut k, root_ctx, srv_sel, srv_ctx, vmm_sel, 0).expect("boot wiring");

            if opts.supervise {
                // Restart-notification semaphore: root keeps UP, the
                // VMM gets DOWN at the well-known selector before it
                // starts (its on_start binds it).
                let restart_sel = {
                    let rp = k.component_mut::<RootPm>(root).expect("boot wiring");
                    rp.alloc_sel()
                };
                k.hypercall(
                    root_ctx,
                    Hypercall::CreateSm {
                        count: 0,
                        dst: restart_sel,
                    },
                )
                .expect("boot wiring");
                let mut ops = RootOps::new(&mut k, root_ctx);
                ops.grant_cap(vmm_sel, restart_sel, Perms::DOWN, SEL_RESTART_SM)
                    .expect("boot wiring");
                vm0_restart_sel = Some(restart_sel);
                let rp = k.component_mut::<RootPm>(root).expect("boot wiring");
                if let Some(sup) = rp.supervision.as_mut() {
                    sup.clients.push(SupervisedClient {
                        vmm_sel,
                        restart_sm_sel: restart_sel,
                    });
                }
            }
        }

        k.start_component(vmm, vmm_ec);

        // Direct device assignment: the IOMMU translates the device's
        // DMA through the *VM's* memory space (guest-physical
        // addresses). The VMM created the VM PD during start; root
        // receives a capability for it (boot-time wiring equivalent to
        // the VMM delegating its VM-PD capability up).
        if opts.direct_disk || opts.direct_nic {
            let vm_pd = nova_core::PdId(
                k.obj
                    .pds
                    .iter()
                    .position(|p| p.is_vm())
                    .expect("the VMM created a VM domain"),
            );
            let dev_list: Vec<usize> = [
                opts.direct_disk.then_some(ahci_dev),
                opts.direct_nic.then_some(nic_dev),
            ]
            .into_iter()
            .flatten()
            .collect();
            for d in dev_list {
                let sel = {
                    let rp = k.component_mut::<RootPm>(root).expect("boot wiring");
                    rp.alloc_sel()
                };
                k.obj.pd_mut(k.root_pd).caps.set(
                    sel,
                    nova_core::Capability {
                        obj: nova_core::obj::ObjRef::Pd(vm_pd),
                        perms: Perms::CTRL,
                    },
                );
                k.hypercall(root_ctx, Hypercall::AssignDev { pd: sel, device: d })
                    .expect("boot wiring");
            }
        }

        // ---- VMM microreboot supervision ----
        let mut microreboot_slot = None;
        if let Some(period) = opts.microreboot {
            let disk_wiring = disk_srv_sel.and_then(|(srv_sel, srv_ctx)| {
                vm0_restart_sel.map(|restart_sel| DiskWiring {
                    srv_sel,
                    srv_ctx,
                    client_slot: 0,
                    restart_sel,
                })
            });
            let recipe = MicrorebootRecipe {
                root,
                vmm,
                vmm_sel,
                vmm_pd,
                frames: guest_frames_base,
                cfg: recipe_cfg,
                disk: disk_wiring,
                // Disjoint from RootPm's allocator (see the field doc).
                next_sel: 0x10_000,
                image: Default::default(),
            };
            microreboot_slot = Some(
                microreboot::install(
                    &mut k,
                    root,
                    root_ctx,
                    recipe,
                    microreboot::VMM_WATCHDOG_TIMEOUT,
                    period,
                )
                .expect("microreboot supervision install"),
            );
        }

        System {
            k,
            root_ctx,
            root,
            disk,
            vmm,
            vmms: vec![vmm],
            disk_srv: disk_srv_sel,
            next_frames: guest_frames_base + guest_pages + 2,
            supervised: opts.supervise,
            microreboot: microreboot_slot,
        }
    }

    /// Launches an additional VM with its own dedicated VMM — the
    /// per-VM-VMM isolation of Section 4.2. The machine must have
    /// enough RAM for the extra guest frames.
    pub fn add_vm(&mut self, mut cfg: VmmConfig) -> CompId {
        let k = &mut self.k;
        // Align to the EPT large-page granule so the mirror can use
        // 2 MB mappings for the second guest as well.
        let frames = self.next_frames.next_multiple_of(512);
        let guest_pages = cfg.guest_pages;
        self.next_frames = frames + guest_pages + 2;

        let mut ops = RootOps::new(k, self.root_ctx);
        let (vmm_sel, vmm_pd) = ops.create_pd("vmm2", None).expect("boot wiring");
        ops.grant_mem(
            vmm_sel,
            frames,
            guest_pages,
            MemRights::RW_DMA,
            cfg.guest_base_page,
        )
        .expect("boot wiring");
        ops.grant_mem(
            vmm_sel,
            frames + guest_pages,
            1,
            MemRights::RW,
            cfg.ring_page,
        )
        .expect("boot wiring");
        ops.grant_mem(
            vmm_sel,
            frames + guest_pages + 1,
            1,
            MemRights::RW,
            cfg.pv_ring_page,
        )
        .expect("boot wiring");
        ops.grant_io(vmm_sel, crate::devices::PORT_EXIT, 2)
            .expect("boot wiring");
        ops.grant_mem(
            vmm_sel,
            nova_hw::vga::VGA_BASE / 4096,
            1,
            MemRights::RW,
            nova_hw::vga::VGA_BASE / 4096,
        )
        .expect("boot wiring");
        cfg.direct_mmio.push((
            nova_hw::vga::VGA_BASE / 4096,
            nova_hw::vga::VGA_BASE / 4096,
            1,
        ));
        if self.disk_srv.is_some() {
            cfg.disk_portals = Some((VMM_SEL_DISK_REG, VMM_SEL_DISK_REQ));
            cfg.disk_batch_portal = Some(VMM_SEL_DISK_BATCH);
            cfg.supervised_disk = self.supervised;
        }

        let (vmm, vmm_ec) = k.load_component(vmm_pd, 0, Box::new(Vmm::new(cfg)));
        if let Some((srv_sel, srv_ctx)) = self.disk_srv {
            wire_disk_client(k, self.root_ctx, srv_sel, srv_ctx, vmm_sel, 1).expect("boot wiring");
            if self.supervised {
                let restart_sel = {
                    let rp = k.component_mut::<RootPm>(self.root).expect("boot wiring");
                    rp.alloc_sel()
                };
                k.hypercall(
                    self.root_ctx,
                    Hypercall::CreateSm {
                        count: 0,
                        dst: restart_sel,
                    },
                )
                .expect("boot wiring");
                let mut ops = RootOps::new(k, self.root_ctx);
                ops.grant_cap(vmm_sel, restart_sel, Perms::DOWN, SEL_RESTART_SM)
                    .expect("boot wiring");
                let rp = k.component_mut::<RootPm>(self.root).expect("boot wiring");
                if let Some(sup) = rp.supervision.as_mut() {
                    sup.clients.push(SupervisedClient {
                        vmm_sel,
                        restart_sm_sel: restart_sel,
                    });
                }
            }
        }
        k.start_component(vmm, vmm_ec);
        self.vmms.push(vmm);
        vmm
    }

    /// A specific VMM by component id.
    pub fn vmm_by_id(&mut self, id: CompId) -> &mut Vmm {
        self.k.component_mut::<Vmm>(id).expect("vmm component")
    }

    /// The microrebooted VM's *current* VMM component and protection
    /// domain — both change across revives, so callers must not cache
    /// the boot-time ids.
    pub fn microreboot_vmm(&mut self) -> Option<(CompId, nova_core::PdId)> {
        let slot = self.microreboot?;
        let root = self.root;
        let rp = self.k.component_mut::<RootPm>(root)?;
        let sup = rp.vmm_supervision.get_mut(slot)?.as_mut()?;
        let r = sup.recipe.as_any().downcast_mut::<MicrorebootRecipe>()?;
        Some((r.vmm, r.vmm_pd))
    }

    /// Runs the system until shutdown/idle/budget.
    pub fn run(&mut self, budget: Option<Cycles>) -> RunOutcome {
        self.k.run(budget)
    }

    /// The VMM component.
    pub fn vmm(&mut self) -> &mut Vmm {
        let id = self.vmm;
        self.k.component_mut::<Vmm>(id).expect("vmm component")
    }

    /// The disk server, if launched.
    pub fn disk_server(&mut self) -> Option<&mut DiskServer> {
        let id = self.disk?;
        self.k.component_mut::<DiskServer>(id)
    }

    /// Types scancodes at the first VM's virtual keyboard and wakes
    /// its vCPU for the interrupt.
    pub fn type_to_vm(&mut self, codes: &[u8]) {
        let id = self.vmm;
        self.k.invoke_component::<Vmm, _>(id, |v, k| {
            v.type_scancodes(codes);
            v.kick_keyboard(k);
        });
    }
}
