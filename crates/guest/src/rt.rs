//! Guest runtime: memory-layout constants and code-emission helpers
//! shared by every workload (IDT construction, PIC programming,
//! paging bring-up, the AHCI and console drivers).

use nova_x86::insn::{AluOp, Cond, MemRef};
use nova_x86::reg::{Reg, Reg8};
use nova_x86::Asm;

/// Guest-physical memory layout.
pub mod layout {
    /// IDT (256 × 8-byte gates).
    pub const IDT: u32 = 0x1000;
    /// IDT descriptor (limit + base) for LIDT.
    pub const IDT_DESC: u32 = 0x1800;
    /// Kernel variables (see [`super::vars`]).
    pub const VARS: u32 = 0x1900;
    /// Boot page directory.
    pub const BOOT_PD: u32 = 0x2000;
    /// Per-task page directories (two, rotated).
    pub const TASK_PD: [u32; 2] = [0x4000, 0x5000];
    /// AHCI command list.
    pub const DISK_CMD: u32 = 0x30000;
    /// AHCI command table.
    pub const DISK_CTBA: u32 = 0x31000;
    /// Default disk DMA buffer.
    pub const DISK_BUF: u32 = 0x38000;
    /// NIC receive-descriptor ring.
    pub const NIC_RING: u32 = 0x40000;
    /// Paravirtual disk ring page (shared with the VMM backend).
    pub const PV_DISK_RING: u32 = 0x42000;
    /// Paravirtual net ring (two pages: shared + backend-private).
    pub const PV_NET_RING: u32 = 0x44000;
    /// Paravirtual disk DMA buffers (one batch's worth).
    pub const PV_DISK_BUF: u32 = 0x48000;
    /// NIC packet buffers (16 KB each, up to 256 of them at 8 MB).
    pub const NIC_BUF: u32 = 0x80_0000;
    /// Frame pool for demand paging.
    pub const FRAME_POOL: u32 = 0x40_0000;
    /// Kernel code load address (1 MB).
    pub const CODE: u32 = 0x10_0000;
    /// Initial stack top.
    pub const STACK: u32 = 0x9_0000;
    /// Task working-set virtual base (above the kernel identity map).
    pub const TASK_VA: u32 = 0x1000_0000;
}

/// Offsets of kernel variables within [`layout::VARS`].
pub mod vars {
    /// Timer tick counter.
    pub const TICKS: u32 = 0;
    /// Disk-completion flag.
    pub const DISK_DONE: u32 = 4;
    /// Demand-paging frame bump pointer.
    pub const NEXT_FRAME: u32 = 8;
    /// Current page-directory physical address.
    pub const CUR_PD: u32 = 12;
    /// Packets received (netload).
    pub const PKT_COUNT: u32 = 16;
    /// NIC ring head index.
    pub const RX_HEAD: u32 = 20;
    /// Bytes received (netload).
    pub const RX_BYTES: u32 = 24;
    /// TLB-shootdown acknowledgement counter (MP).
    pub const SHOOT_ACK: u32 = 28;
    /// Application-processor liveness counter (MP).
    pub const AP_COUNT: u32 = 32;
    /// Scratch.
    pub const SCRATCH: u32 = 36;
    /// Paravirtual ring producer slot (next descriptor/entry index,
    /// wraps at the ring capacity).
    pub const PV_SLOT: u32 = 40;
    /// Paravirtual disk LBA cursor.
    pub const PV_LBA: u32 = 44;
    /// Paravirtual auxiliary counter (net buffer index).
    pub const PV_AUX: u32 = 48;
}

/// Address of a kernel variable.
pub fn var(off: u32) -> MemRef {
    MemRef::abs(layout::VARS + off)
}

/// Number of 4 MB kernel identity mappings in the boot page directory
/// (64 MB).
pub const KERNEL_PDES: u32 = 16;

/// Page-directory index of the 4 MB device window (0xFE80_0000).
pub const DEVICE_PDE: u32 = 0xfe80_0000 >> 22;

/// Emits `out <port>, al` for a known byte value.
pub fn out_byte(a: &mut Asm, port: u16, val: u8) {
    a.mov_r8i(Reg8::Al, val);
    if port < 0x100 {
        a.out_imm_al(port as u8);
    } else {
        a.mov_ri(Reg::Edx, port as u32);
        a.out_dx_al();
    }
}

/// Emits the PIC initialization sequence: remap to vectors 0x20/0x28
/// and program the masks (`0` bit = enabled line).
pub fn emit_pic_init(a: &mut Asm, master_mask: u8, slave_mask: u8) {
    out_byte(a, 0x20, 0x11); // ICW1
    out_byte(a, 0x21, 0x20); // ICW2: offset 0x20
    out_byte(a, 0x21, 0x04); // ICW3
    out_byte(a, 0x21, 0x01); // ICW4
    out_byte(a, 0x21, master_mask);
    out_byte(a, 0xa0, 0x11);
    out_byte(a, 0xa1, 0x28);
    out_byte(a, 0xa1, 0x02);
    out_byte(a, 0xa1, 0x01);
    out_byte(a, 0xa1, slave_mask);
}

/// Emits EOI to both PICs (for slave interrupts).
pub fn emit_eoi_both(a: &mut Asm) {
    out_byte(a, 0xa0, 0x20);
    out_byte(a, 0x20, 0x20);
}

/// Emits code that fills the whole IDT with `default_handler` and
/// loads IDTR. Clobbers EAX, EBX, ECX, EDI.
pub fn emit_idt_setup(a: &mut Asm, default_handler: nova_x86::asm::Label) {
    a.mov_ri(Reg::Edi, layout::IDT);
    a.mov_ri(Reg::Ecx, 256);
    a.mov_r_label(Reg::Eax, default_handler);
    let top = a.here_label();
    // Low dword: offset[15:0] | selector 8 << 16.
    a.mov_rr(Reg::Ebx, Reg::Eax);
    a.alu_ri(AluOp::And, Reg::Ebx, 0xffff);
    a.alu_ri(AluOp::Or, Reg::Ebx, 0x0008_0000);
    a.mov_mr(MemRef::base_disp(Reg::Edi, 0), Reg::Ebx);
    // High dword: offset[31:16] | present 32-bit interrupt gate.
    a.mov_rr(Reg::Ebx, Reg::Eax);
    a.alu_ri(AluOp::And, Reg::Ebx, 0xffff_0000);
    a.alu_ri(AluOp::Or, Reg::Ebx, 0x8e00);
    a.mov_mr(MemRef::base_disp(Reg::Edi, 4), Reg::Ebx);
    a.add_ri(Reg::Edi, 8);
    a.dec_r(Reg::Ecx);
    a.jcc(Cond::Ne, top);

    // Descriptor: limit 0x7ff, base IDT.
    a.mov_mi(MemRef::abs(layout::IDT_DESC), 0x07ff | (layout::IDT << 16));
    a.mov_mi(MemRef::abs(layout::IDT_DESC + 4), layout::IDT >> 16);
    a.lidt(MemRef::abs(layout::IDT_DESC));
}

/// Emits code installing `handler` for `vector`. Clobbers EAX, EBX.
pub fn emit_idt_install(a: &mut Asm, vector: u8, handler: nova_x86::asm::Label) {
    let gate = layout::IDT + vector as u32 * 8;
    a.mov_r_label(Reg::Eax, handler);
    a.mov_rr(Reg::Ebx, Reg::Eax);
    a.alu_ri(AluOp::And, Reg::Ebx, 0xffff);
    a.alu_ri(AluOp::Or, Reg::Ebx, 0x0008_0000);
    a.mov_mr(MemRef::abs(gate), Reg::Ebx);
    a.mov_rr(Reg::Ebx, Reg::Eax);
    a.alu_ri(AluOp::And, Reg::Ebx, 0xffff_0000);
    a.alu_ri(AluOp::Or, Reg::Ebx, 0x8e00);
    a.mov_mr(MemRef::abs(gate + 4), Reg::Ebx);
}

/// Emits paging bring-up: identity-maps the first [`KERNEL_PDES`] ×
/// 4 MB with PSE large pages in the boot page directory, then enables
/// CR4.PSE and CR0.PG. Clobbers EAX, EBX, ECX, EDI.
pub fn emit_enable_paging(a: &mut Asm) {
    a.mov_ri(Reg::Edi, layout::BOOT_PD);
    a.mov_ri(
        Reg::Eax,
        nova_x86::paging::pte::P | nova_x86::paging::pte::W | nova_x86::paging::pte::PS,
    );
    a.mov_ri(Reg::Ecx, KERNEL_PDES);
    let top = a.here_label();
    a.mov_mr(MemRef::base_disp(Reg::Edi, 0), Reg::Eax);
    a.add_ri(Reg::Eax, 4 << 20);
    a.add_ri(Reg::Edi, 4);
    a.dec_r(Reg::Ecx);
    a.jcc(Cond::Ne, top);

    // Identity-map the device window (AHCI/NIC MMIO around
    // 0xFE80_0000) with one 4 MB page, as a real kernel would ioremap.
    a.mov_mi(
        MemRef::abs(layout::BOOT_PD + (DEVICE_PDE * 4)),
        0xfe80_0000
            | nova_x86::paging::pte::P
            | nova_x86::paging::pte::W
            | nova_x86::paging::pte::PS,
    );

    a.mov_mi(var(vars::CUR_PD), layout::BOOT_PD);
    a.mov_ri(Reg::Eax, nova_x86::reg::cr4::PSE);
    a.mov_cr_r(4, Reg::Eax);
    a.mov_ri(Reg::Eax, layout::BOOT_PD);
    a.mov_cr_r(3, Reg::Eax);
    a.mov_r_cr(Reg::Eax, 0);
    a.alu_ri(AluOp::Or, Reg::Eax, nova_x86::reg::cr0::PG);
    a.mov_cr_r(0, Reg::Eax);
}

/// Emits a guest shutdown: `out 0xf4, al` with `code`.
pub fn emit_exit(a: &mut Asm, code: u8) {
    out_byte(a, 0xf4, code);
}

/// Emits a benchmark mark: `out 0xf5, eax` with `value`.
pub fn emit_mark(a: &mut Asm, value: u32) {
    a.mov_ri(Reg::Eax, value);
    a.mov_ri(Reg::Edx, 0xf5);
    a.out_dx_eax();
}

/// Emits a string to the serial console.
pub fn emit_puts(a: &mut Asm, s: &str) {
    a.mov_ri(Reg::Edx, 0x3f8);
    for c in s.bytes() {
        a.mov_r8i(Reg8::Al, c);
        a.out_dx_al();
    }
}

/// Emits the mask / acknowledge / unmask sequence real PIC drivers
/// run around interrupt handling (Section 8.2: "Masking,
/// acknowledging, and unmasking the interrupt at the virtual
/// interrupt controller causes up to four more VM exits").
pub fn emit_pic_mask_ack_unmask(a: &mut Asm, line: u8) {
    let (data, bit) = if line < 8 {
        (0x21u8, 1u8 << line)
    } else {
        (0xa1, 1 << (line - 8))
    };
    // Mask the line.
    a.in_al_imm(data);
    a.alu_al_imm(AluOp::Or, bit);
    a.out_imm_al(data);
    // Acknowledge.
    if line >= 8 {
        out_byte(a, 0xa0, 0x20);
    }
    out_byte(a, 0x20, 0x20);
    // Unmask the line.
    a.in_al_imm(data);
    a.alu_al_imm(AluOp::And, !bit);
    a.out_imm_al(data);
}

/// Emits the timer interrupt handler: tick counter plus the full PIC
/// mask/ack/unmask sequence. Returns its label. Must be called where
/// fall-through cannot reach (e.g. after an unconditional jump).
pub fn emit_timer_handler(a: &mut Asm) -> nova_x86::asm::Label {
    let l = a.here_label();
    a.push_r(Reg::Eax);
    a.push_r(Reg::Edx);
    a.inc_m(var(vars::TICKS));
    emit_pic_mask_ack_unmask(a, 0);
    a.pop_r(Reg::Edx);
    a.pop_r(Reg::Eax);
    a.iret();
    l
}

/// Emits the default (spurious) interrupt handler.
pub fn emit_default_handler(a: &mut Asm) -> nova_x86::asm::Label {
    let l = a.here_label();
    a.push_r(Reg::Eax);
    a.push_r(Reg::Edx);
    emit_eoi_both(a);
    a.pop_r(Reg::Edx);
    a.pop_r(Reg::Eax);
    a.iret();
    l
}

/// Emits the demand-paging #PF handler: allocates a frame from the
/// pool, maps the faulting page in the current page directory (4 KB
/// granularity), and returns. Page tables are allocated from the same
/// pool and zeroed. Returns the handler label.
pub fn emit_pf_handler(a: &mut Asm) -> nova_x86::asm::Label {
    let l = a.here_label();
    // Frame: [EFLAGS, CS, EIP, ERR] — ERR on top.
    a.push_r(Reg::Eax);
    a.push_r(Reg::Ebx);
    a.push_r(Reg::Ecx);
    a.push_r(Reg::Edx);
    a.push_r(Reg::Edi);

    a.mov_r_cr(Reg::Eax, 2); // faulting address

    // EBX = PDE slot address = cur_pd + (addr >> 22) * 4.
    a.mov_rr(Reg::Ebx, Reg::Eax);
    a.shr_ri(Reg::Ebx, 22);
    a.shl_ri(Reg::Ebx, 2);
    a.alu_rm(AluOp::Add, Reg::Ebx, var(vars::CUR_PD));

    // ECX = PDE value.
    a.mov_rm(Reg::Ecx, MemRef::base_disp(Reg::Ebx, 0));
    a.test_rr(Reg::Ecx, Reg::Ecx);
    let have_pt = a.label();
    a.jcc(Cond::Ne, have_pt);

    // Allocate and zero a page table.
    a.mov_rm(Reg::Ecx, var(vars::NEXT_FRAME));
    a.alu_mi(AluOp::Add, var(vars::NEXT_FRAME), 4096);
    a.push_r(Reg::Eax);
    a.mov_rr(Reg::Edi, Reg::Ecx);
    a.xor_rr(Reg::Eax, Reg::Eax);
    a.push_r(Reg::Ecx);
    a.mov_ri(Reg::Ecx, 1024);
    a.rep_stosd();
    a.pop_r(Reg::Ecx);
    a.pop_r(Reg::Eax);
    a.alu_ri(AluOp::Or, Reg::Ecx, 3); // present | writable
    a.mov_mr(MemRef::base_disp(Reg::Ebx, 0), Reg::Ecx);

    a.bind(have_pt);
    // EBX = PTE slot = (PDE & ~0xfff) + ((addr >> 12) & 0x3ff) * 4.
    a.alu_ri(AluOp::And, Reg::Ecx, 0xffff_f000u32);
    a.mov_rr(Reg::Ebx, Reg::Eax);
    a.shr_ri(Reg::Ebx, 12);
    a.alu_ri(AluOp::And, Reg::Ebx, 0x3ff);
    a.shl_ri(Reg::Ebx, 2);
    a.alu_rr(AluOp::Add, Reg::Ebx, Reg::Ecx);

    // Frame for the page itself.
    a.mov_rm(Reg::Ecx, var(vars::NEXT_FRAME));
    a.alu_mi(AluOp::Add, var(vars::NEXT_FRAME), 4096);
    a.alu_ri(AluOp::Or, Reg::Ecx, 3);
    a.mov_mr(MemRef::base_disp(Reg::Ebx, 0), Reg::Ecx);

    a.pop_r(Reg::Edi);
    a.pop_r(Reg::Edx);
    a.pop_r(Reg::Ecx);
    a.pop_r(Reg::Ebx);
    a.pop_r(Reg::Eax);
    a.add_ri(Reg::Esp, 4); // discard the error code
    a.iret();
    l
}

/// Emits the disk interrupt handler (slave IRQ 11 → vector 0x2b):
/// acknowledges the virtual controller (read + clear IS/P0IS: the
/// MMIO operations of Section 8.2) and sets the completion flag.
pub fn emit_disk_handler(a: &mut Asm) -> nova_x86::asm::Label {
    use nova_hw::ahci::regs;
    let base = nova_hw::machine::AHCI_BASE as u32;
    let l = a.here_label();
    a.push_r(Reg::Eax);
    a.push_r(Reg::Edx);
    // read IS; write-1-clear IS.
    a.mov_rm(Reg::Eax, MemRef::abs(base + regs::IS));
    a.mov_mr(MemRef::abs(base + regs::IS), Reg::Eax);
    // read P0IS; write-1-clear P0IS.
    a.mov_rm(Reg::Eax, MemRef::abs(base + regs::P0IS));
    a.mov_mr(MemRef::abs(base + regs::P0IS), Reg::Eax);
    // confirm CI cleared.
    a.mov_rm(Reg::Eax, MemRef::abs(base + regs::P0CI));
    a.mov_mi(var(vars::DISK_DONE), 1);
    emit_pic_mask_ack_unmask(a, 11);
    a.pop_r(Reg::Edx);
    a.pop_r(Reg::Eax);
    a.iret();
    l
}

/// Emits the paravirtual disk interrupt handler (slave IRQ 9 →
/// vector 0x29): one write-1-to-clear MMIO exit to acknowledge the
/// coalesced completion interrupt, then EOI. Completion state itself
/// lives in the shared ring page — the handler never reads a device
/// register.
pub fn emit_pv_disk_handler(a: &mut Asm) -> nova_x86::asm::Label {
    let base = nova_hw::pv::PV_BASE as u32;
    let l = a.here_label();
    a.push_r(Reg::Eax);
    a.push_r(Reg::Edx);
    a.mov_mi(MemRef::abs(base + nova_hw::pv::regs::DISK_ISR as u32), 1);
    emit_eoi_both(a);
    a.pop_r(Reg::Edx);
    a.pop_r(Reg::Eax);
    a.iret();
    l
}

/// Emits one-time paravirtual disk bring-up: hands the ring page's
/// guest-physical address to the backend (one MMIO exit, ever).
pub fn emit_pv_disk_init(a: &mut Asm) {
    let base = nova_hw::pv::PV_BASE as u32;
    a.mov_mi(
        MemRef::abs(base + nova_hw::pv::regs::DISK_RING as u32),
        layout::PV_DISK_RING,
    );
}

/// Emits a batched paravirtual disk read: fills `batch` descriptors
/// (sequential LBAs from the [`vars::PV_LBA`] cursor, buffers packed
/// from [`layout::PV_DISK_BUF`]), rings the doorbell **once**, and
/// halts until the ring's cumulative `used` counter reaches the
/// target in [`vars::SCRATCH`]. Clobbers EAX, EBX, ECX, EDX, EDI.
pub fn emit_pv_disk_batch_read(a: &mut Asm, batch: u32, sectors: u32) {
    use nova_hw::pv::{disk, regs, PV_BASE};
    let ring = layout::PV_DISK_RING;
    let block_bytes = sectors * 512;

    a.mov_ri(Reg::Ecx, batch);
    a.mov_ri(Reg::Edi, layout::PV_DISK_BUF);
    let fill = a.here_label();
    // EBX = descriptor address = ring + DESC0 + slot * DESC_SIZE.
    a.mov_rm(Reg::Eax, var(vars::PV_SLOT));
    a.mov_rr(Reg::Ebx, Reg::Eax);
    a.shl_ri(Reg::Ebx, 5);
    a.add_ri(Reg::Ebx, ring + disk::DESC0 as u32);
    a.mov_mi(
        MemRef::base_disp(Reg::Ebx, disk::D_OP as i32),
        disk::OP_READ,
    );
    a.mov_mi(MemRef::base_disp(Reg::Ebx, disk::D_SECTORS as i32), sectors);
    a.mov_rm(Reg::Eax, var(vars::PV_LBA));
    a.mov_mr(MemRef::base_disp(Reg::Ebx, disk::D_LBA as i32), Reg::Eax);
    a.mov_mi(MemRef::base_disp(Reg::Ebx, disk::D_LBA as i32 + 4), 0);
    a.mov_mr(MemRef::base_disp(Reg::Ebx, disk::D_BUF as i32), Reg::Edi);
    a.mov_mi(MemRef::base_disp(Reg::Ebx, disk::D_BUF as i32 + 4), 0);
    a.mov_mi(MemRef::base_disp(Reg::Ebx, disk::D_STATUS as i32), 0);
    a.alu_mi(AluOp::Add, var(vars::PV_LBA), sectors);
    // Advance the producer slot, wrapping at the ring capacity.
    a.mov_rm(Reg::Eax, var(vars::PV_SLOT));
    a.inc_r(Reg::Eax);
    a.cmp_ri(Reg::Eax, disk::CAPACITY);
    let no_wrap = a.label();
    a.jcc(Cond::B, no_wrap);
    a.xor_rr(Reg::Eax, Reg::Eax);
    a.bind(no_wrap);
    a.mov_mr(var(vars::PV_SLOT), Reg::Eax);
    a.add_ri(Reg::Edi, block_bytes);
    a.dec_r(Reg::Ecx);
    a.jcc(Cond::Ne, fill);

    // One doorbell MMIO exit for the whole batch.
    a.mov_mi(
        MemRef::abs(PV_BASE as u32 + regs::DISK_DOORBELL as u32),
        batch,
    );

    // Halt until `used` (read from shared memory — no exit) reaches
    // the cumulative completion target. Both sides are the low 32
    // bits of monotonically growing u64 counters, so the comparison
    // must be wraparound-safe: wait while `used - target` is negative
    // (used modularly behind target), not while `used < target` —
    // the ordered compare deadlocks or exits early when either
    // counter crosses the 2^32 boundary.
    a.alu_mi(AluOp::Add, var(vars::SCRATCH), batch);
    let wait = a.here_label();
    a.sti();
    a.hlt();
    a.mov_rm(Reg::Eax, MemRef::abs(ring + disk::USED as u32));
    a.alu_rm(AluOp::Sub, Reg::Eax, var(vars::SCRATCH));
    a.jcc(Cond::S, wait);
}

/// Emits one-time AHCI driver initialization: command-list base and
/// interrupt enable.
pub fn emit_disk_init(a: &mut Asm) {
    use nova_hw::ahci::regs;
    let base = nova_hw::machine::AHCI_BASE as u32;
    a.mov_mi(MemRef::abs(base + regs::P0CLB), layout::DISK_CMD);
    a.mov_mi(MemRef::abs(base + regs::P0CLB2), 0);
    a.mov_mi(MemRef::abs(base + regs::P0IE), 1);
}

/// Emits a synchronous disk read: builds the command (LBA in EAX,
/// sector count in EBX, buffer GPA in ECX), rings the doorbell, and
/// halts until the completion interrupt. Clobbers EAX, EBX, ECX, EDX,
/// EDI.
pub fn emit_disk_read_sync(a: &mut Asm) {
    use nova_hw::ahci::regs;
    let base = nova_hw::machine::AHCI_BASE as u32;
    let ctba = layout::DISK_CTBA;

    // Command header slot 0.
    a.mov_mi(MemRef::abs(layout::DISK_CMD), 1 << 16);
    a.mov_mi(MemRef::abs(layout::DISK_CMD + 8), ctba);
    a.mov_mi(MemRef::abs(layout::DISK_CMD + 12), 0);

    // CFIS: 0x27 (H2D), command 0x25 (READ DMA EXT) at byte 2.
    a.mov_mi(MemRef::abs(ctba), 0x0025_0027);
    // LBA bytes 4..6 from EAX (low 24 bits), byte 8.. from EAX >> 24.
    a.mov_rr(Reg::Edi, Reg::Eax);
    a.alu_ri(AluOp::And, Reg::Edi, 0x00ff_ffff);
    a.mov_mr(MemRef::abs(ctba + 4), Reg::Edi);
    a.mov_rr(Reg::Edi, Reg::Eax);
    a.shr_ri(Reg::Edi, 24);
    a.mov_mr(MemRef::abs(ctba + 8), Reg::Edi);
    // Sector count at bytes 12..13 from EBX.
    a.mov_mr(MemRef::abs(ctba + 12), Reg::Ebx);

    // PRDT entry 0: buffer from ECX, byte count = EBX*512 - 1.
    a.mov_mr(MemRef::abs(ctba + 0x80), Reg::Ecx);
    a.mov_mi(MemRef::abs(ctba + 0x84), 0);
    a.mov_rr(Reg::Edi, Reg::Ebx);
    a.shl_ri(Reg::Edi, 9);
    a.dec_r(Reg::Edi);
    a.mov_mr(MemRef::abs(ctba + 0x8c), Reg::Edi);

    // Doorbell, then halt until the handler flags completion.
    a.mov_mi(var(vars::DISK_DONE), 0);
    a.mov_mi(MemRef::abs(base + regs::P0CI), 1);
    let wait = a.here_label();
    a.sti();
    a.hlt();
    a.alu_mi(AluOp::Cmp, var(vars::DISK_DONE), 1);
    a.jcc(Cond::Ne, wait);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_x86::decode::decode;

    /// Every emitted fragment must be decodable by the CPU.
    fn decodes(code: &[u8]) {
        let mut pos = 0;
        while pos < code.len() {
            let i = decode(&code[pos..]).expect("fragment decodes");
            pos += i.len as usize;
        }
    }

    #[test]
    fn fragments_decode() {
        let mut a = Asm::new(layout::CODE);
        emit_pic_init(&mut a, 0xfe, 0xff);
        emit_enable_paging(&mut a);
        emit_disk_init(&mut a);
        a.mov_ri(Reg::Eax, 5);
        a.mov_ri(Reg::Ebx, 1);
        a.mov_ri(Reg::Ecx, layout::DISK_BUF);
        emit_disk_read_sync(&mut a);
        emit_pv_disk_init(&mut a);
        emit_pv_disk_batch_read(&mut a, 8, 8);
        emit_exit(&mut a, 0);
        let h = emit_timer_handler(&mut a);
        let d = emit_default_handler(&mut a);
        let p = emit_pf_handler(&mut a);
        let dk = emit_disk_handler(&mut a);
        let pv = emit_pv_disk_handler(&mut a);
        let _ = (h, d, p, dk, pv);
        decodes(&a.finish());
    }

    #[test]
    fn idt_setup_decodes() {
        let mut a = Asm::new(layout::CODE);
        let end = a.label();
        a.jmp(end);
        let h = emit_default_handler(&mut a);
        a.bind(end);
        emit_idt_setup(&mut a, h);
        emit_idt_install(&mut a, 0x20, h);
        decodes(&a.finish());
    }
}
