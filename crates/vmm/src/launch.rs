//! System builder: boots the microhypervisor, the root partition
//! manager, the disk server and one VMM+VM, wiring the delegations the
//! way Figure 2 lays the system out. This code is "what the root
//! partition manager's policy does" — every resource grant goes
//! through the ordinary hypercall interface with root's identity.
//!
//! Boot is the first replay of each domain's recipe: the builder
//! decides *what* the disk server and the VMM get (a
//! [`DiskRecipe`], a [`MicrorebootRecipe`] plus whatever hardware the
//! options assign), then has root run the same `spawn_disk_server`
//! (`RootPm::start_disk_server`) and `provision` a respawn or revive
//! runs, and hands the recipes to root's supervision when the options
//! ask for it. There is no boot-only provisioning sequence in this
//! file, and no copy of what root holds: the live disk server and each
//! VM's disk wiring are root's (`RootPm::{disk, clients}`), the current
//! VMM incarnation the recipe's.
//!
//! Boot-time wiring failures are configuration errors, so this module
//! uses `expect` (not `unwrap`) with step names; the same calls are
//! fallible on the recovery paths in `nova_user::root` and
//! `crate::microreboot`.

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::panic)]

use nova_core::cap::Perms;
use nova_core::obj::MemRights;
use nova_core::{CompCtx, CompId, Hypercall, Kernel, KernelConfig, RunOutcome};
use nova_hw::machine::{Machine, MachineConfig, AHCI_BASE, AHCI_IRQ, NIC_BASE, NIC_IRQ};
use nova_hw::Cycles;
use nova_user::disk::DiskServerConfig;
use nova_user::root::{DiskRecipe, Grant, RootPm};

use crate::microreboot::{self, MicrorebootRecipe};
use crate::vmm::{Vmm, VmmConfig};

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
    /// kernel watchdog, automatic respawn and rewiring on death, and
    /// VMM channel restart (the recovery architecture of Section 4.2).
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
    /// The first VMM.
    pub vmm: CompId,
    /// All VMMs (the first included), one per VM (Section 4.2).
    pub vmms: Vec<CompId>,
    /// Next free physical frame page for additional guests.
    next_frames: u64,
    /// Supervision slot of the microrebooted first VM, if enabled.
    pub microreboot: Option<usize>,
}

/// Runs a VMM recipe's first incarnation with root's identity and
/// state — the `provision` every revive runs — and starts it.
fn boot_vmm(k: &mut Kernel, root_ctx: CompCtx, recipe: &mut MicrorebootRecipe) {
    let ec = k
        .invoke_component::<RootPm, _>(root_ctx.comp, |rp, k| recipe.provision(k, root_ctx, rp))
        .expect("boot wiring")
        .expect("boot wiring");
    k.start_component(recipe.vmm, ec);
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
        let served_disk = opts.with_disk && !opts.direct_disk;
        if served_disk {
            let cfg = if opts.supervise {
                DiskServerConfig::supervised()
            } else {
                DiskServerConfig::standard()
            };
            let recipe = DiskRecipe::new(cfg, ahci_dev);
            let supervise = opts.supervise;
            k.invoke_component::<RootPm, _>(root, |rp, k| {
                rp.start_disk_server(k, root_ctx, &recipe)?;
                if !supervise {
                    return Ok(());
                }
                rp.supervise_disk_server(k, root_ctx, recipe, DISK_WATCHDOG_TIMEOUT)
            })
            .expect("boot wiring")
            .expect("boot wiring");
        }

        // ---- VMM ----
        let guest_pages = opts.vmm.guest_pages;
        // Physical frames backing guest RAM: 16 MiB onward (large-page
        // aligned and physically contiguous for the EPT mirroring).
        let guest_frames_base = 0x1000u64;
        let mut hw = Vec::new();
        // A device's register window at VMM page `hot`.
        let window = |base: u64, count, hot| Grant::Mem {
            base: base / 4096,
            count,
            rights: MemRights::RW,
            hot,
        };

        // Direct disk assignment: the VM touches the real controller.
        if opts.direct_disk {
            hw.push(window(AHCI_BASE, 1, 0x7_0000));
            hw.push(Grant::Gsi(AHCI_IRQ));
            // Appears in the guest at the same BAR address the
            // virtual controller would use, so one driver serves both.
            opts.vmm.direct_mmio.push((AHCI_BASE / 4096, 0x7_0000, 1));
            opts.vmm.direct_gsis.push(AHCI_IRQ);
        }
        if opts.direct_nic {
            hw.push(window(NIC_BASE, 4, 0x7_0010));
            hw.push(Grant::Gsi(NIC_IRQ));
            opts.vmm.direct_mmio.push((NIC_BASE / 4096, 0x7_0010, 4));
            opts.vmm.direct_gsis.push(NIC_IRQ);
        }
        // Paravirtual NIC: the VMM (not the VM) owns the physical
        // controller — register window, interrupt, IOMMU mapping.
        // Guest RAM is already DMA-granted into the VMM's space, so
        // packet payloads land straight in guest buffers.
        if opts.vmm.pv_nic {
            hw.push(window(NIC_BASE, 4, crate::pvnet::PVNET_MMIO_PAGE));
            hw.push(Grant::Gsi(NIC_IRQ));
            hw.push(Grant::Dev(nic_dev));
        }

        let mut recipe =
            MicrorebootRecipe::new(guest_frames_base, opts.vmm, served_disk.then_some(0));
        recipe.grants.extend(hw);
        boot_vmm(&mut k, root_ctx, &mut recipe);
        let vmm = recipe.vmm;

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
                    .expect("the VMM created a VM domain") as u32,
            );
            let dev_list = [
                opts.direct_disk.then_some(ahci_dev),
                opts.direct_nic.then_some(nic_dev),
            ];
            for d in dev_list.into_iter().flatten() {
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
        let microreboot = opts.microreboot.map(|period| {
            k.invoke_component::<RootPm, _>(root, |rp, k| {
                let timeout = microreboot::VMM_WATCHDOG_TIMEOUT;
                rp.supervise_vm(k, root_ctx, Box::new(recipe), timeout, period)
            })
            .expect("boot wiring")
            .expect("microreboot supervision install")
        });

        System {
            k,
            root_ctx,
            root,
            vmm,
            vmms: vec![vmm],
            next_frames: guest_frames_base + guest_pages + 2,
            microreboot,
        }
    }

    /// Launches an additional VM with its own dedicated VMM — the
    /// per-VM-VMM isolation of Section 4.2. The machine must have
    /// enough RAM for the extra guest frames.
    pub fn add_vm(&mut self, cfg: VmmConfig) -> CompId {
        // Align to the EPT large-page granule so the mirror can use
        // 2 MB mappings for the second guest as well.
        let frames = self.next_frames.next_multiple_of(512);
        self.next_frames = frames + cfg.guest_pages + 2;
        // Every VMM so far is a client of the disk server, if there is
        // one: the next slot is their number.
        let rp = self.k.component_mut::<RootPm>(self.root);
        let served = rp.is_some_and(|rp| rp.disk_server().is_some());
        let mut recipe = MicrorebootRecipe::new(frames, cfg, served.then_some(self.vmms.len()));
        boot_vmm(&mut self.k, self.root_ctx, &mut recipe);
        self.vmms.push(recipe.vmm);
        recipe.vmm
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
