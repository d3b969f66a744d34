//! The virtual BIOS, integrated with the VMM (Section 7.4).
//!
//! "A more efficient solution is to move the BIOS into the
//! virtual-machine monitor, which facilitates direct access to the
//! device models without expensive transitions between the virtual
//! machine and the VMM. Furthermore, the code of the virtual BIOS can
//! be hidden from the guest OS."
//!
//! This BIOS boots multiboot-style: it loads the guest image into
//! guest-physical memory directly (no faulting I/O loop inside the
//! VM), writes a boot-information block, and hands over in flat
//! protected mode with the multiboot magic in EAX — so no BIOS code
//! ever executes inside the VM.

use nova_core::{CompCtx, Kernel};
use nova_x86::reg::Regs;

use crate::vmm::{guest_va, VmmConfig};

/// Loads the guest image and the boot-information block into guest
/// memory ([`crate::GuestImage::boot`]) and returns the initial
/// architectural state for the boot processor.
pub fn install(k: &mut Kernel, ctx: CompCtx, cfg: &VmmConfig) -> Regs {
    // The image, placed by the BIOS without any guest-visible I/O.
    assert!(
        cfg.image.load_gpa + cfg.image.bytes.len() as u64 <= cfg.guest_pages * 4096,
        "guest image exceeds guest RAM"
    );
    cfg.image.boot(cfg.guest_pages, cfg.vcpus, |gpa, bytes| {
        let ok = k.mem_write(ctx, guest_va(gpa), bytes);
        assert!(ok, "BIOS failed to place the guest image");
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GuestImage;
    use nova_core::{Kernel, KernelConfig};
    use nova_hw::machine::{Machine, MachineConfig, BOOT_INFO_GPA, MULTIBOOT_MAGIC};
    use nova_user::RootPm;
    use nova_x86::reg::Reg;

    #[test]
    fn bios_places_image_and_boot_info() {
        let m = Machine::new(MachineConfig::core_i7(64 << 20));
        let mut k = Kernel::new(m, KernelConfig::default());
        let (rc, re) = k.load_component(k.root_pd, 0, Box::new(RootPm::new()));
        k.start_component(rc, re);
        let ctx = k.component_mut::<RootPm>(rc).unwrap().ctx.unwrap();

        let cfg = VmmConfig::full_virt(
            GuestImage {
                bytes: vec![0x90, 0x90, 0xf4],
                load_gpa: 0x1000,
                entry: 0x1000,
                stack: 0x8000,
            },
            1024,
        );
        let regs = install(&mut k, ctx, &cfg);
        assert_eq!(regs.eip, 0x1000);
        assert_eq!(regs.get(Reg::Eax), MULTIBOOT_MAGIC);
        assert_eq!(regs.get(Reg::Ebx), BOOT_INFO_GPA as u32);
        let base = guest_va(0);
        let mut code = [0u8; 3];
        k.mem_read_into(ctx, base + 0x1000, &mut code).unwrap();
        assert_eq!(code, [0x90, 0x90, 0xf4]);
        assert_eq!(k.mem_read_u32(ctx, base + BOOT_INFO_GPA), Some(1024));
        assert_eq!(k.mem_read_u32(ctx, base + BOOT_INFO_GPA + 4), Some(1));
    }

    #[test]
    #[should_panic(expected = "guest image exceeds guest RAM")]
    fn oversized_image_rejected() {
        let m = Machine::new(MachineConfig::core_i7(64 << 20));
        let mut k = Kernel::new(m, KernelConfig::default());
        let (rc, re) = k.load_component(k.root_pd, 0, Box::new(RootPm::new()));
        k.start_component(rc, re);
        let ctx = k.component_mut::<RootPm>(rc).unwrap().ctx.unwrap();
        let cfg = VmmConfig::full_virt(
            GuestImage {
                bytes: vec![0; 8192],
                load_gpa: 0,
                entry: 0,
                stack: 0,
            },
            1,
        );
        install(&mut k, ctx, &cfg);
    }
}
