//! The instruction emulator (Section 7.1).
//!
//! "It fetches the opcode bytes of the instruction from the guest's
//! instruction pointer and then uses an instruction decoder to
//! determine the length and operands of the instruction. If the
//! operands are memory operands, the instruction emulator fetches them
//! as well." — exactly what happens here, sharing the decoder and
//! executor with the simulated CPU. Memory operands resolve through
//! the *guest's own page tables* (parsed by the emulator), land in
//! guest RAM, or dispatch to the virtual device models for MMIO.
//! Exceptions raised mid-emulation (the "fixup code" of the paper)
//! surface as faults for the VMM to inject.
//!
//! The emulator is the one copy every stack runs, from the MMIO arm of
//! [`crate::exit::handle`]: what differs per host — how guest RAM is
//! backed, which MMIO windows exist, the port devices — is an
//! [`EmuHost`]. The VMM's is [`VmmHost`] (its memory window and
//! [`VDevices`]); the monolithic baseline implements it over its host
//! frames and in-kernel device models.
//!
//! Everything decoded here — opcode bytes, operands, page-table
//! entries — is attacker-controlled guest state: malformed input
//! comes back as [`EmuErr::Fault`] (injected into the guest) or
//! [`EmuErr::Unsupported`] (a structural VM kill), never a panic.
//! The module is lint-gated panic-free.

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::panic)]

use nova_core::{CompCtx, Kernel};
use nova_hw::mmu::MmuRegs;
use nova_x86::cpuid::CpuIdent;
use nova_x86::decode::{decode, DecodeError, MAX_INSN_LEN};
use nova_x86::exec::{emulator_gva_to_gpa, execute, Env, Exec, Fault};
use nova_x86::insn::{Insn, OpSize};
use nova_x86::paging;
use nova_x86::reg::Regs;

use crate::devices::VDevices;
use crate::vmm::guest_va;

/// Emulation failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EmuErr {
    /// An architectural fault to inject into the guest.
    Fault(Fault),
    /// The instruction is outside the emulator's subset.
    Unsupported,
}

impl From<Fault> for EmuErr {
    fn from(f: Fault) -> EmuErr {
        EmuErr::Fault(f)
    }
}

/// What the emulator reaches on its host. An access the emulator
/// hands it lies within one page; whether a guest-physical page is RAM
/// is the emulator's to decide.
pub trait EmuHost {
    /// `len` bytes of guest RAM at `gpa`, borrowed in place; `None` if
    /// the host cannot read them.
    fn ram(&self, gpa: u64, len: usize) -> Option<&[u8]>;
    /// The same bytes to store to; `None` if the host cannot write them.
    fn ram_mut(&mut self, gpa: u64, len: usize) -> Option<&mut [u8]>;
    /// A device-window load; `None` if no window lies at `gpa`.
    fn mmio_read(&mut self, gpa: u64, size: OpSize) -> Option<u32>;
    /// A device-window store; `false` if no window lies at `gpa`.
    fn mmio_write(&mut self, gpa: u64, size: OpSize, val: u32) -> bool;
    /// Port input.
    fn io_in(&mut self, port: u16, size: OpSize) -> u32;
    /// Port output.
    fn io_out(&mut self, port: u16, size: OpSize, val: u32);
    /// The CPU the guest's CPUID describes.
    fn ident(&self) -> &CpuIdent;
    /// The time-stamp counter.
    fn now(&self) -> u64;
}

/// The VMM's host: guest RAM through its memory window at
/// [`crate::vmm::GUEST_BASE_PAGE`], its virtual devices.
pub struct VmmHost<'a> {
    /// Kernel access (guest memory through the VMM's mappings).
    pub k: &'a mut Kernel,
    /// The VMM's identity.
    pub ctx: CompCtx,
    /// Virtual devices for MMIO and port I/O.
    pub dev: &'a mut VDevices,
}

impl EmuHost for VmmHost<'_> {
    fn ram(&self, gpa: u64, len: usize) -> Option<&[u8]> {
        self.k.mem_slice(self.ctx, guest_va(gpa), len)
    }

    fn ram_mut(&mut self, gpa: u64, len: usize) -> Option<&mut [u8]> {
        self.k.mem_slice_mut(self.ctx, guest_va(gpa), len)
    }

    fn mmio_read(&mut self, gpa: u64, size: OpSize) -> Option<u32> {
        self.dev
            .owns_gpa(gpa)
            .then(|| self.dev.mmio_read(gpa, size))
    }

    fn mmio_write(&mut self, gpa: u64, size: OpSize, val: u32) -> bool {
        if !self.dev.owns_gpa(gpa) {
            return false;
        }
        self.dev.mmio_write(self.k, self.ctx, gpa, size, val);
        true
    }

    fn io_in(&mut self, port: u16, size: OpSize) -> u32 {
        self.dev.legacy.io_read(port, size)
    }

    fn io_out(&mut self, port: u16, _size: OpSize, val: u32) {
        self.dev.io_write(self.k, self.ctx, port, val);
    }

    fn ident(&self) -> &CpuIdent {
        &self.k.machine.cost.ident
    }

    fn now(&self) -> u64 {
        self.k.now()
    }
}

/// The emulator's execution environment over a host `H`.
pub struct EmuEnv<'a, H> {
    /// Guest RAM, device windows and ports.
    pub host: &'a mut H,
    /// Guest RAM size in pages: a guest-physical page below it is RAM,
    /// the legacy hole included.
    pub guest_pages: u64,
    /// Guest paging state.
    pub mmu: MmuRegs,
    /// Count of device-model operations performed (for cost charging).
    pub device_ops: u32,
}

impl<'a, H: EmuHost> EmuEnv<'a, H> {
    /// An environment for one emulation in a guest of `guest_pages`
    /// pages paging by `mmu`.
    pub fn new(host: &'a mut H, guest_pages: u64, mmu: MmuRegs) -> Self {
        EmuEnv {
            host,
            guest_pages,
            mmu,
            device_ops: 0,
        }
    }

    /// Translates a guest-virtual address by walking the guest's page
    /// table (in guest memory) the way the hardware walkers do: as a
    /// supervisor access with `CR0.WP` set. An entry outside guest RAM
    /// reads as not present.
    pub fn gva_to_gpa(&self, addr: u32, write: bool, fetch: bool) -> Result<u64, Fault> {
        if !self.mmu.paging() {
            return Ok(addr as u64);
        }
        emulator_gva_to_gpa(self.mmu.cr3, self.mmu.pse(), addr, write, fetch, |at| {
            self.read_ram(at, OpSize::Dword).unwrap_or(0)
        })
    }

    fn in_ram(&self, gpa: u64) -> bool {
        gpa >> 12 < self.guest_pages
    }

    /// Loads `size` bytes of guest RAM at `gpa`, little-endian.
    fn read_ram(&self, gpa: u64, size: OpSize) -> Option<u32> {
        if !self.in_ram(gpa) {
            return None;
        }
        let bytes = self.host.ram(gpa, size.bytes() as usize)?;
        Some(bytes.iter().rev().fold(0, |v, &b| v << 8 | b as u32))
    }

    /// Loads from guest-physical `gpa` (within one page): guest RAM, a
    /// device window, or the floating bus.
    fn read_gpa(&mut self, gpa: u64, size: OpSize) -> Result<u32, EmuErr> {
        if self.in_ram(gpa) {
            self.read_ram(gpa, size).ok_or(EmuErr::Fault(Fault::Gp))
        } else if let Some(val) = self.host.mmio_read(gpa, size) {
            self.device_ops += 1;
            Ok(val)
        } else {
            // Unbacked guest-physical space reads as floating bus.
            Ok(size.mask())
        }
    }

    /// Stores to guest-physical `gpa` (within one page); a store to
    /// unbacked space is dropped.
    fn write_gpa(&mut self, gpa: u64, size: OpSize, val: u32) -> Result<(), EmuErr> {
        if self.in_ram(gpa) {
            let n = size.bytes() as usize;
            let ram = self.host.ram_mut(gpa, n).ok_or(EmuErr::Fault(Fault::Gp))?;
            let bytes = val.to_le_bytes();
            ram.copy_from_slice(bytes.get(..n).unwrap_or(&bytes));
        } else if self.host.mmio_write(gpa, size, val) {
            self.device_ops += 1;
        }
        Ok(())
    }
}

impl<H: EmuHost> Env for EmuEnv<'_, H> {
    type Err = EmuErr;

    fn read_mem(&mut self, addr: u32, size: OpSize) -> Result<u32, EmuErr> {
        if paging::crosses_page(addr, size.bytes()) {
            let at = paging::crossing_bytes(addr, |a| self.gva_to_gpa(a, false, false))?;
            let mut val = 0;
            for (i, &gpa) in at.iter().take(size.bytes() as usize).enumerate() {
                val |= self.read_gpa(gpa, OpSize::Byte)? << (8 * i);
            }
            return Ok(val);
        }
        let gpa = self.gva_to_gpa(addr, false, false)?;
        self.read_gpa(gpa, size)
    }

    fn write_mem(&mut self, addr: u32, size: OpSize, val: u32) -> Result<(), EmuErr> {
        if paging::crosses_page(addr, size.bytes()) {
            let at = paging::crossing_bytes(addr, |a| self.gva_to_gpa(a, true, false))?;
            for (i, &gpa) in at.iter().take(size.bytes() as usize).enumerate() {
                self.write_gpa(gpa, OpSize::Byte, val >> (8 * i) & 0xff)?;
            }
            return Ok(());
        }
        let gpa = self.gva_to_gpa(addr, true, false)?;
        self.write_gpa(gpa, size, val)
    }

    fn io_in(&mut self, port: u16, size: OpSize) -> Result<u32, EmuErr> {
        self.device_ops += 1;
        Ok(self.host.io_in(port, size))
    }

    fn io_out(&mut self, port: u16, size: OpSize, val: u32) -> Result<(), EmuErr> {
        self.device_ops += 1;
        self.host.io_out(port, size, val);
        Ok(())
    }

    fn cpuid(&mut self, leaf: u32) -> [u32; 4] {
        virtual_cpuid(self.host.ident(), leaf)
    }

    fn rdtsc(&mut self) -> u64 {
        self.host.now()
    }

    fn invlpg(&mut self, _addr: u32) -> Result<(), EmuErr> {
        Ok(()) // nothing cached VMM-side
    }

    fn vmcall(&mut self, _regs: &mut Regs) -> Result<(), EmuErr> {
        Err(EmuErr::Unsupported) // VMCALL always exits; never emulated here
    }
}

/// CPUID as the guest sees it: the host's identity with the
/// virtualization feature hidden.
pub fn virtual_cpuid(ident: &CpuIdent, leaf: u32) -> [u32; 4] {
    let mut r = ident.cpuid(leaf);
    if leaf == 1 {
        r[2] &= !nova_x86::cpuid::feature::VMX;
    }
    r
}

/// Fetches and decodes the instruction at `regs.eip` from guest
/// memory.
///
/// # Errors
///
/// Faults from the fetch translation, or [`EmuErr::Unsupported`] for
/// encodings outside the subset.
pub fn fetch_insn<H: EmuHost>(env: &mut EmuEnv<H>, regs: &Regs) -> Result<Insn, EmuErr> {
    // Each guest page on the fetch path is translated once and its
    // bytes borrowed in place. The first chunk is decoded where it
    // lies; only an instruction that runs past it has its bytes
    // gathered on the stack.
    let mut buf = [0u8; MAX_INSN_LEN];
    let mut len = 0usize;
    while len < MAX_INSN_LEN {
        let gva = regs.eip.wrapping_add(len as u32);
        let gpa = match env.gva_to_gpa(gva, false, true) {
            Ok(g) => g,
            Err(f) if len == 0 => return Err(EmuErr::Fault(f)),
            Err(_) => break,
        };
        if !env.in_ram(gpa) {
            break;
        }
        let page_left = 4096 - (gpa & 0xfff) as usize;
        let want = (MAX_INSN_LEN - len).min(page_left);
        let Some(src) = env.host.ram(gpa, want) else {
            break;
        };
        // One decode per fetched chunk. The decoder is prefix-stable
        // (`decode_is_prefix_stable` in nova-x86): what it says of these
        // bytes is what it would have said of the shortest prefix that
        // holds the instruction, so bytes past the instruction are
        // never acted on. Only a truncated encoding reaches for the
        // next page.
        let bytes = if len == 0 {
            src
        } else {
            let Some(dst) = buf.get_mut(len..len + src.len()) else {
                break;
            };
            dst.copy_from_slice(src);
            buf.get(..len + src.len()).unwrap_or(&buf)
        };
        match decode(bytes) {
            Err(DecodeError::Truncated) => {}
            done => return done.map_err(|_| EmuErr::Unsupported),
        }
        if len == 0 {
            if let Some(dst) = buf.get_mut(..src.len()) {
                dst.copy_from_slice(src);
            }
        }
        len += src.len();
    }
    // Still truncated with nothing more to fetch.
    Err(EmuErr::Unsupported)
}

/// Emulates exactly one instruction at the guest's instruction
/// pointer: fetch, decode, execute, write back (Section 7.1). Returns
/// the executed instruction and its flow result.
///
/// # Errors
///
/// Faults to inject into the guest, or [`EmuErr::Unsupported`].
pub fn emulate_one<H: EmuHost>(
    env: &mut EmuEnv<H>,
    regs: &mut Regs,
) -> Result<(Insn, Exec), EmuErr> {
    let insn = fetch_insn(env, regs)?;
    let flow = execute(&insn, regs, env)?;
    Ok((insn, flow))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use nova_core::{Kernel, KernelConfig};
    use nova_hw::machine::{Machine, MachineConfig};
    use nova_user::RootPm;

    use crate::vahci::VAhci;

    /// Builds a kernel with a root-resident "VMM" whose 1024 pages at
    /// `GUEST_BASE_PAGE..` stand in for guest RAM.
    fn setup() -> (Kernel, CompCtx, u64, VDevices) {
        let m = Machine::new(MachineConfig::core_i7(64 << 20));
        let mut k = Kernel::new(m, KernelConfig::default());
        let (rc, re) = k.load_component(k.root_pd, 0, Box::new(RootPm::new()));
        k.start_component(rc, re);
        let ctx = k.component_mut::<RootPm>(rc).unwrap().ctx.unwrap();
        let guest_pages = 1024;
        let dev = VDevices::new(
            2_670_000_000,
            0,
            VAhci::new(guest_pages),
            crate::pvdisk::PvDisk::new(guest_pages),
            None,
        );
        (k, ctx, guest_pages, dev)
    }

    #[test]
    fn emulates_mov_to_guest_ram_unpaged() {
        let (mut k, ctx, guest_pages, mut dev) = setup();
        // Guest code at GPA 0x1000: mov dword [0x2000], 0xabcd1234
        let code = [0xc7, 0x05, 0x00, 0x20, 0x00, 0x00, 0x34, 0x12, 0xcd, 0xab];
        k.mem_write(ctx, guest_va(0x1000), &code);

        let mut host = VmmHost {
            k: &mut k,
            ctx,
            dev: &mut dev,
        };
        let mut env = EmuEnv::new(&mut host, guest_pages, MmuRegs::default());
        let mut regs = Regs::at(0x1000);
        let (insn, flow) = emulate_one(&mut env, &mut regs).unwrap();
        assert_eq!(insn.len, 10);
        assert_eq!(flow, Exec::Normal);
        assert_eq!(regs.eip, 0x1000 + 10);
        assert_eq!(k.mem_read_u32(ctx, guest_va(0x2000)), Some(0xabcd1234));
    }

    #[test]
    fn emulates_through_guest_page_tables() {
        let (mut k, ctx, guest_pages, mut dev) = setup();
        // Guest page table at GPA 0x10000 maps GVA 0x40_0000 -> GPA 0x2000.
        let base = guest_va(0);
        let groot = 0x10000u64;
        let gpt = 0x11000u64;
        k.mem_write_u32(ctx, base + groot + 4, gpt as u32 | 3); // PDE for di=1
        k.mem_write_u32(ctx, base + gpt, 0x2000 | 3); // PTE for ti=0
                                                      // Code at GPA 0x1000: mov eax, [0x40_0000]
        k.mem_write(ctx, base + 0x1000, &[0x8b, 0x05, 0x00, 0x00, 0x40, 0x00]);
        k.mem_write_u32(ctx, base + 0x2000, 0x5555_aaaa);

        let mut host = VmmHost {
            k: &mut k,
            ctx,
            dev: &mut dev,
        };
        let mut env = EmuEnv::new(
            &mut host,
            guest_pages,
            MmuRegs {
                cr0: nova_x86::reg::cr0::PE | nova_x86::reg::cr0::PG,
                cr3: groot as u32,
                cr4: 0,
            },
        );
        // EIP is a GVA too: identity-map it through a PSE-less entry.
        // Simpler: map GVA 0x1000 -> GPA 0x1000 through the same table.
        let gpt0 = 0x12000u64;
        env.host.k.mem_write_u32(ctx, base + groot, gpt0 as u32 | 3);
        env.host.k.mem_write_u32(ctx, base + gpt0 + 4, 0x1000 | 3); // ti=1 -> GPA 0x1000
        let mut regs = Regs::at(0x1000);
        let (_, flow) = emulate_one(&mut env, &mut regs).unwrap();
        assert_eq!(flow, Exec::Normal);
        assert_eq!(regs.get(nova_x86::Reg::Eax), 0x5555_aaaa);
    }

    #[test]
    fn guest_page_fault_surfaces_for_injection() {
        let (mut k, ctx, guest_pages, mut dev) = setup();
        let base = guest_va(0);
        // Unpaged fetch works; the operand hits an unmapped GVA under
        // paging? Use paging on with empty tables: fetch itself faults.
        k.mem_write(ctx, base + 0x1000, &[0x90]);
        let mut host = VmmHost {
            k: &mut k,
            ctx,
            dev: &mut dev,
        };
        let mut env = EmuEnv::new(
            &mut host,
            guest_pages,
            MmuRegs {
                cr0: nova_x86::reg::cr0::PE | nova_x86::reg::cr0::PG,
                cr3: 0x10000,
                cr4: 0,
            },
        );
        let mut regs = Regs::at(0x1000);
        match emulate_one(&mut env, &mut regs) {
            Err(EmuErr::Fault(Fault::Page { addr, fetch, .. })) => {
                assert_eq!(addr, 0x1000);
                assert!(fetch);
            }
            other => panic!("expected page fault, got {other:?}"),
        }
    }

    #[test]
    fn mmio_dispatches_to_vahci() {
        let (mut k, ctx, guest_pages, mut dev) = setup();
        let base = guest_va(0);
        // mov eax, [AHCI_BASE + CAP]
        let mmio = nova_hw::machine::AHCI_BASE as u32;
        let code = [
            0xa1,
            mmio as u8,
            (mmio >> 8) as u8,
            (mmio >> 16) as u8,
            (mmio >> 24) as u8,
        ];
        k.mem_write(ctx, base + 0x1000, &code);
        let mut host = VmmHost {
            k: &mut k,
            ctx,
            dev: &mut dev,
        };
        let mut env = EmuEnv::new(&mut host, guest_pages, MmuRegs::default());
        let mut regs = Regs::at(0x1000);
        emulate_one(&mut env, &mut regs).unwrap();
        assert_eq!(regs.get(nova_x86::Reg::Eax), 0x4000_0000, "vAHCI CAP");
        assert_eq!(env.device_ops, 1);
    }

    /// The fetch loop `fetch_insn` replaced — a decode at every
    /// accumulated length — kept as the reference.
    fn fetch_insn_ref(env: &mut EmuEnv<VmmHost>, regs: &Regs) -> Result<Insn, EmuErr> {
        let mut buf = [0u8; MAX_INSN_LEN];
        let mut len = 0usize;
        'fetch: while len < MAX_INSN_LEN {
            let gva = regs.eip.wrapping_add(len as u32);
            let gpa = match env.gva_to_gpa(gva, false, true) {
                Ok(g) => g,
                Err(f) if len == 0 => return Err(EmuErr::Fault(f)),
                Err(_) => break 'fetch,
            };
            if !env.in_ram(gpa) {
                break 'fetch;
            }
            let page_left = 4096 - (gpa & 0xfff) as usize;
            let want = (MAX_INSN_LEN - len).min(page_left);
            let Some(src) = env.host.ram(gpa, want) else {
                break 'fetch;
            };
            let got = src.len();
            buf[len..len + got].copy_from_slice(src);
            for _ in 0..got {
                len += 1;
                if len >= 2 {
                    match decode(&buf[..len]) {
                        Ok(insn) => return Ok(insn),
                        Err(DecodeError::Truncated) => continue,
                        Err(DecodeError::InvalidOpcode) => return Err(EmuErr::Unsupported),
                    }
                }
            }
        }
        decode(&buf[..len]).map_err(|_| EmuErr::Unsupported)
    }

    /// Fetches at `eip` both ways and returns the common answer.
    fn fetch_both(env: &mut EmuEnv<VmmHost>, eip: u32) -> Result<Insn, EmuErr> {
        let regs = Regs::at(eip);
        let got = fetch_insn(env, &regs);
        assert_eq!(got, fetch_insn_ref(env, &regs), "eip {eip:#x}");
        got
    }

    const MOV_EAX_IMM: [u8; 5] = [0xb8, 0x78, 0x56, 0x34, 0x12];

    #[test]
    fn fetch_decodes_each_chunk_once_and_agrees_with_the_per_length_loop() {
        let (mut k, ctx, guest_pages, mut dev) = setup();
        let base = guest_va(0);
        let ram_end = guest_pages * 4096;
        // Instructions ending on the last byte of guest RAM, a lone
        // invalid byte there, one cut off by the end of RAM, one
        // straddling two pages, and fifteen bytes of prefixes.
        k.mem_write(ctx, base + ram_end - 5, &MOV_EAX_IMM);
        k.mem_write(ctx, base + 0x5000 - 2, &MOV_EAX_IMM);
        k.mem_write(ctx, base + 0x7000 - 4, &[0xf3; 19]);
        k.mem_write(ctx, base + 0x8000, &[0x90, 0x0f, 0xff, 0x8d, 0xc0]);
        // Instructions ending on the last byte of a page inside RAM:
        // the whole first chunk, decoded where it lies.
        k.mem_write(ctx, base + 0x6000 - 5, &MOV_EAX_IMM);
        k.mem_write(ctx, base + 0x9000 - 1, &[0x90, 0x0f]);
        let mut host = VmmHost {
            k: &mut k,
            ctx,
            dev: &mut dev,
        };
        let mut env = EmuEnv::new(&mut host, guest_pages, MmuRegs::default());
        let last = ram_end as u32 - 1;
        assert_eq!(fetch_both(&mut env, last - 4).map(|i| i.len), Ok(5));
        env.host
            .k
            .mem_write(ctx, base + ram_end - 3, &MOV_EAX_IMM[..3]);
        assert_eq!(fetch_both(&mut env, last - 2), Err(EmuErr::Unsupported));
        env.host.k.mem_write(ctx, base + ram_end - 1, &[0x90]);
        assert_eq!(fetch_both(&mut env, last).map(|i| i.len), Ok(1));
        env.host.k.mem_write(ctx, base + ram_end - 1, &[0x06]);
        assert_eq!(fetch_both(&mut env, last), Err(EmuErr::Unsupported));
        assert_eq!(
            fetch_both(&mut env, ram_end as u32),
            Err(EmuErr::Unsupported)
        );

        let insn = fetch_both(&mut env, 0x5000 - 2).unwrap();
        assert_eq!(
            (insn.len, insn.src),
            (5, nova_x86::insn::Operand::Imm(0x1234_5678))
        );
        let insn = fetch_both(&mut env, 0x6000 - 5).unwrap();
        assert_eq!(
            (insn.len, insn.src),
            (5, nova_x86::insn::Operand::Imm(0x1234_5678))
        );
        assert_eq!(fetch_both(&mut env, 0x9000 - 1).map(|i| i.len), Ok(1));
        assert_eq!(fetch_both(&mut env, 0x7000 - 4), Err(EmuErr::Unsupported));
        assert_eq!(fetch_both(&mut env, 0x8000).map(|i| i.len), Ok(1));
        assert_eq!(fetch_both(&mut env, 0x8001), Err(EmuErr::Unsupported));
        assert_eq!(fetch_both(&mut env, 0x8003), Err(EmuErr::Unsupported));

        // Every offset of a page of seeded bytes, across its boundary.
        let mut x = 0x1234_5678_9abc_def1u64;
        let noise: Vec<u8> = (0..4096 + MAX_INSN_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        env.host.k.mem_write(ctx, base + 0x2_0000, &noise);
        for eip in 0x2_0000..0x2_1000 {
            let _ = fetch_both(&mut env, eip);
        }
    }

    #[test]
    fn fetch_into_an_unmapped_page_faults_only_when_the_first_page_cannot_supply() {
        let (mut k, ctx, guest_pages, mut dev) = setup();
        let base = guest_va(0);
        // GVA page 1 -> GPA 0x3000; GVA page 2 is not present.
        let (groot, gpt) = (0x10000u64, 0x11000u64);
        k.mem_write_u32(ctx, base + groot, gpt as u32 | 3);
        k.mem_write_u32(ctx, base + gpt + 4, 0x3000 | 3);
        k.mem_write(ctx, base + 0x3000 + 0xffb, &MOV_EAX_IMM);
        let mut host = VmmHost {
            k: &mut k,
            ctx,
            dev: &mut dev,
        };
        let mut env = EmuEnv::new(
            &mut host,
            guest_pages,
            MmuRegs {
                cr0: nova_x86::reg::cr0::PE | nova_x86::reg::cr0::PG,
                cr3: groot as u32,
                cr4: 0,
            },
        );
        // Ends on the mapped page's last byte: the next page is never
        // asked for.
        assert_eq!(fetch_both(&mut env, 0x1ffb).map(|i| i.len), Ok(5));
        // Cut off by the unmapped page: outside the subset, no fault.
        env.host
            .k
            .mem_write(ctx, base + 0x3000 + 0xffd, &MOV_EAX_IMM[..3]);
        assert_eq!(fetch_both(&mut env, 0x1ffd), Err(EmuErr::Unsupported));
        // Starts on it: the fetch itself faults.
        assert!(matches!(
            fetch_both(&mut env, 0x2000),
            Err(EmuErr::Fault(Fault::Page {
                addr: 0x2000,
                fetch: true,
                ..
            }))
        ));
    }

    #[test]
    fn cpuid_hides_vmx() {
        let ident = nova_x86::cpuid::CORE_I7_920;
        let host = ident.cpuid(1);
        let guest = virtual_cpuid(&ident, 1);
        assert_ne!(host[2] & nova_x86::cpuid::feature::VMX, 0);
        assert_eq!(guest[2] & nova_x86::cpuid::feature::VMX, 0);
        assert_eq!(guest[0], host[0], "signature preserved");
    }

    #[test]
    fn port_io_reaches_virtual_devices() {
        let (mut k, ctx, guest_pages, mut dev) = setup();
        let base = guest_va(0);
        // mov al, 'Z'; mov dx, 0x3f8... (use mov edx) ; out dx, al
        let code = [
            0xb0, b'Z', // mov al, 'Z'
            0xba, 0xf8, 0x03, 0x00, 0x00, // mov edx, 0x3f8
            0xee, // out dx, al
        ];
        k.mem_write(ctx, base + 0x1000, &code);
        let mut host = VmmHost {
            k: &mut k,
            ctx,
            dev: &mut dev,
        };
        let mut env = EmuEnv::new(&mut host, guest_pages, MmuRegs::default());
        let mut regs = Regs::at(0x1000);
        for _ in 0..3 {
            emulate_one(&mut env, &mut regs).unwrap();
        }
        assert_eq!(dev.legacy.serial.text(), "Z");
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod string_mmio_tests {
    use super::*;
    use crate::devices::VDevices;
    use crate::vahci::VAhci;
    use nova_core::{Kernel, KernelConfig};
    use nova_hw::machine::{Machine, MachineConfig};
    use nova_user::RootPm;
    use nova_x86::reg::Regs;

    /// A REP STOSD whose destination is a device window: every
    /// iteration must dispatch to the device model, not RAM — and the
    /// emulator restarts the instruction per unit exactly like the
    /// hardware does.
    #[test]
    fn rep_string_into_mmio_window() {
        let m = Machine::new(MachineConfig::core_i7(64 << 20));
        let mut k = Kernel::new(m, KernelConfig::default());
        let (rc, re) = k.load_component(k.root_pd, 0, Box::new(RootPm::new()));
        k.start_component(rc, re);
        let ctx = k.component_mut::<RootPm>(rc).unwrap().ctx.unwrap();
        let guest_pages = 1024;
        let mut dev = VDevices::new(
            2_670_000_000,
            0,
            VAhci::new(guest_pages),
            crate::pvdisk::PvDisk::new(guest_pages),
            None,
        );

        // rep stosd to [AHCI_BASE + P0IE], 3 dwords. (IE, then two
        // reserved registers — writes must reach the model.)
        let base = guest_va(0);
        k.mem_write(ctx, base + 0x1000, &[0xf3, 0xab]);
        let mut regs = Regs::at(0x1000);
        regs.set(
            nova_x86::Reg::Edi,
            nova_hw::machine::AHCI_BASE as u32 + 0x114,
        );
        regs.set(nova_x86::Reg::Ecx, 3);
        regs.set(nova_x86::Reg::Eax, 1);

        let mut host = VmmHost {
            k: &mut k,
            ctx,
            dev: &mut dev,
        };
        let mut env = EmuEnv::new(&mut host, guest_pages, MmuRegs::default());
        // The executor reports RepContinue per unit; drive it the way
        // the VMM's exit loop would re-fault.
        loop {
            let (_, flow) = emulate_one(&mut env, &mut regs).unwrap();
            if flow != nova_x86::exec::Exec::RepContinue {
                break;
            }
        }
        assert_eq!(env.device_ops, 3, "each unit hit the device");
        // P0IE (offset 0x114) is now enabled in the model.
        assert_eq!(dev.vahci.regs.read(nova_hw::ahci::regs::P0IE), 1);
    }
}
