//! Component-side access to memory and devices, permission-checked
//! against the caller's spaces, and the two window sweeps a checkpoint
//! is taken and restored with.

use nova_hw::mem::PhysMem;
use nova_x86::insn::OpSize;
use nova_x86::paging::PAGE_SIZE;

use super::{CompCtx, Kernel};
use crate::obj::{MemMapping, MemSpace};

impl Kernel {
    /// Reads bytes from the component's address space into a
    /// caller-provided buffer, without allocating. Returns `None` if
    /// any touched page is unmapped; the buffer contents are
    /// unspecified in that case.
    pub fn mem_read_into(&self, ctx: CompCtx, addr: u64, out: &mut [u8]) -> Option<()> {
        let ms = &self.obj.pd(ctx.pd).mem;
        for (a, off, n) in pieces(addr, out.len()) {
            let hpa = ms.translate(a)?;
            self.machine.mem.read_into(hpa, &mut out[off..off + n]);
        }
        Some(())
    }

    /// Hands `copy` each page of the `seen.len()`-page window at `addr`
    /// of the component's address space whose frame was written since
    /// the caller's copy of it: page `i` goes to `copy(i, bytes)` only
    /// if its frame's write generation
    /// ([`nova_hw::mem::PhysMem::frame_gen`]) is not `seen[i]`, and the
    /// generation handed out is recorded there. `u64::MAX` means "never
    /// copied" — generations start at 0 and only rise — and 0 may stand
    /// for a copy of zeros: a frame at generation 0 is a zero page,
    /// because [`PhysMem::new`] (the only constructor) zeroes RAM and
    /// every mutator bumps the generation of the frames it touches. A
    /// run of frames whose generations all equal `seen` is passed over
    /// as one comparison. Returns the number of pages handed out, or
    /// `None` — having called `copy` never and left `seen` untouched —
    /// if `addr` is not page-aligned or any page is unmapped.
    pub fn mem_refresh(
        &self,
        ctx: CompCtx,
        addr: u64,
        seen: &mut [u64],
        mut copy: impl FnMut(usize, &[u8]),
    ) -> Option<usize> {
        let runs = window_runs(&self.obj.pd(ctx.pd).mem, addr, seen.len(), false)?;
        let (mem, page) = (&self.machine.mem, PAGE_SIZE as usize);
        let mut copied = 0;
        for (at, first, n) in runs {
            let (gens, seen) = (mem.frame_gens(first, n), &mut seen[at..at + n]);
            if gens == seen {
                continue;
            }
            // Frames past the end of RAM are at generation 0 and zeros.
            let gens = gens.iter().chain(std::iter::repeat(&0));
            for (j, (&gen, seen)) in gens.zip(seen).enumerate() {
                if gen != *seen {
                    let frame = mem.slice(first + (j * page) as u64, page);
                    copy(at + j, frame.unwrap_or(&[0; PAGE_SIZE as usize]));
                    *seen = gen;
                    copied += 1;
                }
            }
        }
        Some(copied)
    }

    /// The inverse of [`Kernel::mem_refresh`]: brings the `seen.len()`-
    /// page window at `addr` of the component's address space back to an
    /// image whose page `i` is `page(i)` — one page — or zeros where
    /// that is `None`. Page `i` is written only if its frame's write
    /// generation is not `seen[i]`, and the generation the write leaves
    /// is recorded there — so the caller must hold `seen` for *this*
    /// image (frame at `seen[i]` ⇒ frame equals image page `i`), or
    /// pass `u64::MAX` to have the page written regardless. Returns the
    /// number of pages written, or `None` — with memory and `seen`
    /// untouched — if `addr` is not page-aligned or any page is
    /// unmapped or read-only.
    pub fn mem_restore<'a>(
        &mut self,
        ctx: CompCtx,
        addr: u64,
        seen: &mut [u64],
        page: impl Fn(usize) -> Option<&'a [u8]>,
    ) -> Option<usize> {
        let runs = window_runs(&self.obj.pd(ctx.pd).mem, addr, seen.len(), true)?;
        let (mem, size) = (&mut self.machine.mem, PAGE_SIZE as usize);
        let mut written = 0;
        for (at, first, n) in runs {
            let frames = (first..).step_by(size);
            for (i, (seen, hpa)) in (at..).zip(seen[at..at + n].iter_mut().zip(frames)) {
                if mem.frame_gen(hpa) != *seen {
                    match page(i) {
                        Some(src) => mem.write_bytes(hpa, src),
                        None => mem.fill(hpa, size, 0),
                    }
                    *seen = mem.frame_gen(hpa);
                    written += 1;
                }
            }
        }
        Some(written)
    }

    /// Borrows `len` bytes of the component's address space in place
    /// (zero-copy). The range must lie within one page (contiguity of
    /// host frames across page boundaries is not guaranteed) and be
    /// RAM-backed: device MMIO windows are not `PhysMem`-backed, so a
    /// returned slice can never alias live device state. Returns
    /// `None` on a page-crossing range — callers fall back to
    /// [`Kernel::mem_read_into`].
    pub fn mem_slice(&self, ctx: CompCtx, addr: u64, len: usize) -> Option<&[u8]> {
        if len == 0 {
            return Some(&[]);
        }
        if (addr & 0xfff) as usize + len > PAGE_SIZE as usize {
            return None;
        }
        let hpa = self.obj.pd(ctx.pd).mem.translate(addr)?;
        self.machine.mem.slice(hpa, len)
    }

    /// Mutably borrows `len` bytes of the component's address space in
    /// place (zero-copy; write rights required). Same single-page and
    /// RAM-backed contract as [`Kernel::mem_slice`].
    pub fn mem_slice_mut(&mut self, ctx: CompCtx, addr: u64, len: usize) -> Option<&mut [u8]> {
        if len == 0 {
            return Some(&mut []);
        }
        if (addr & 0xfff) as usize + len > PAGE_SIZE as usize {
            return None;
        }
        let m = self.obj.pd(ctx.pd).mem.lookup(addr >> 12)?;
        if !m.rights.write {
            return None;
        }
        self.machine.mem.slice_mut(m.hpa + (addr & 0xfff), len)
    }

    /// Walks `addr..addr + len` of the component's address space page
    /// by page, handing `write` the host address, the offset into the
    /// range and the length of each piece; stops with `false` at the
    /// first page that is unmapped or not writable.
    fn for_writable_chunks(
        &mut self,
        ctx: CompCtx,
        addr: u64,
        len: usize,
        mut write: impl FnMut(&mut PhysMem, u64, usize, usize),
    ) -> bool {
        for (a, off, n) in pieces(addr, len) {
            let m = match self.obj.pd(ctx.pd).mem.lookup(a >> 12) {
                Some(m) if m.rights.write => m,
                _ => return false,
            };
            write(&mut self.machine.mem, m.hpa + (a & 0xfff), off, n);
        }
        true
    }

    /// Writes bytes into the component's address space (write rights
    /// required on every page).
    pub fn mem_write(&mut self, ctx: CompCtx, addr: u64, data: &[u8]) -> bool {
        self.for_writable_chunks(ctx, addr, data.len(), |mem, hpa, off, n| {
            mem.write_bytes(hpa, &data[off..off + n])
        })
    }

    /// Fills `len` bytes of the component's address space with `val`
    /// (write rights required on every page).
    pub fn mem_fill(&mut self, ctx: CompCtx, addr: u64, len: usize, val: u8) -> bool {
        self.for_writable_chunks(ctx, addr, len, |mem, hpa, _, n| mem.fill(hpa, n, val))
    }

    /// Reads a little-endian u32 from the component's address space.
    pub fn mem_read_u32(&self, ctx: CompCtx, addr: u64) -> Option<u32> {
        let mut b = [0; 4];
        self.mem_read_into(ctx, addr, &mut b)?;
        Some(u32::from_le_bytes(b))
    }

    /// Reads a little-endian u64 from the component's address space.
    pub fn mem_read_u64(&self, ctx: CompCtx, addr: u64) -> Option<u64> {
        let mut b = [0; 8];
        self.mem_read_into(ctx, addr, &mut b)?;
        Some(u64::from_le_bytes(b))
    }

    /// Writes a u32 into the component's address space.
    pub fn mem_write_u32(&mut self, ctx: CompCtx, addr: u64, val: u32) -> bool {
        if addr & 0xfff <= 0xffc {
            let Some(m) = self.obj.pd(ctx.pd).mem.lookup(addr >> 12) else {
                return false;
            };
            if !m.rights.write {
                return false;
            }
            self.machine.mem.write_u32(m.hpa + (addr & 0xfff), val);
            true
        } else {
            self.mem_write(ctx, addr, &val.to_le_bytes())
        }
    }

    /// Device MMIO read: the page must be mapped in the component's
    /// space and resolve into a device window.
    pub fn dev_mmio_read(&mut self, ctx: CompCtx, addr: u64, size: OpSize) -> Option<u32> {
        let hpa = self.obj.pd(ctx.pd).mem.translate(addr)?;
        self.machine.bus.mmio_owner(hpa)?;
        self.machine.clock += nova_hw::cpu::DEVICE_ACCESS_CYCLES;
        Some(
            self.machine
                .bus
                .mmio_read(&mut self.machine.mem, self.machine.clock, hpa, size),
        )
    }

    /// Device MMIO write.
    pub fn dev_mmio_write(&mut self, ctx: CompCtx, addr: u64, size: OpSize, val: u32) -> bool {
        let Some(hpa) = self.obj.pd(ctx.pd).mem.translate(addr) else {
            return false;
        };
        if self.machine.bus.mmio_owner(hpa).is_none() {
            return false;
        }
        self.machine.clock += nova_hw::cpu::DEVICE_ACCESS_CYCLES;
        self.machine
            .bus
            .mmio_write(&mut self.machine.mem, self.machine.clock, hpa, size, val);
        true
    }

    /// Port read (I/O space checked).
    pub fn dev_io_read(&mut self, ctx: CompCtx, port: u16, size: OpSize) -> Option<u32> {
        if !self.obj.pd(ctx.pd).io.allowed(port) {
            return None;
        }
        self.machine.clock += nova_hw::cpu::DEVICE_ACCESS_CYCLES;
        Some(
            self.machine
                .bus
                .io_read(&mut self.machine.mem, self.machine.clock, port, size),
        )
    }

    /// Port write (I/O space checked).
    pub fn dev_io_write(&mut self, ctx: CompCtx, port: u16, size: OpSize, val: u32) -> bool {
        if !self.obj.pd(ctx.pd).io.allowed(port) {
            return false;
        }
        self.machine.clock += nova_hw::cpu::DEVICE_ACCESS_CYCLES;
        self.machine
            .bus
            .io_write(&mut self.machine.mem, self.machine.clock, port, size, val);
        true
    }
}

/// The frames behind the `pages`-page window at `addr` of `ms`, as runs
/// `(first window page, first frame, pages)` of consecutive frames:
/// `None` unless `addr` is page-aligned and every page is mapped —
/// writable, if `write`. Nothing has been touched by then.
fn window_runs(
    ms: &MemSpace,
    addr: u64,
    pages: usize,
    write: bool,
) -> Option<impl Iterator<Item = (usize, u64, usize)> + '_> {
    if addr & 0xfff != 0 {
        return None;
    }
    let unusable = |m: &Option<MemMapping>| m.is_none_or(|m| write && !m.rights.write);
    if ms.slices(addr >> 12, pages as u64).flatten().any(unusable) {
        return None;
    }
    let adjacent = |a: &Option<MemMapping>, b: &Option<MemMapping>| {
        a.zip(*b)
            .is_some_and(|(a, b)| b.hpa == a.hpa + PAGE_SIZE as u64)
    };
    let runs = ms
        .slices(addr >> 12, pages as u64)
        .flat_map(move |s| s.chunk_by(adjacent));
    let mut at = 0;
    Some(runs.map(move |run| {
        at += run.len();
        let first = run[0].expect("validated above").hpa;
        (at - run.len(), first, run.len())
    }))
}

/// `addr..addr + len` cut at page boundaries: the address, the offset
/// into the range and the length of each piece.
fn pieces(addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, usize)> {
    let mut off = 0;
    std::iter::from_fn(move || {
        (off < len).then(|| {
            let a = addr + off as u64;
            let n = ((PAGE_SIZE as u64 - (a & 0xfff)) as usize).min(len - off);
            off += n;
            (a, off - n, n)
        })
    })
}
