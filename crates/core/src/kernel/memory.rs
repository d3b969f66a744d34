//! Component-side access to memory and devices, permission-checked
//! against the caller's spaces, and the two window sweeps a checkpoint
//! is taken and restored with.

use nova_hw::mem::PhysMem;
use nova_x86::insn::OpSize;
use nova_x86::paging::PAGE_SIZE;

use super::{CompCtx, Kernel};
use crate::obj::{MemSpace, PdId};

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
    /// every mutator bumps the generation of the frames it touches.
    /// `runs` is the caller's cut of the window into frames, kept
    /// across calls ([`WindowRuns`]). Returns the number of pages
    /// handed out, or `None` — having called `copy` never and left
    /// `seen` untouched — if `addr` is not page-aligned or any page is
    /// unmapped.
    pub fn mem_refresh(
        &self,
        ctx: CompCtx,
        addr: u64,
        runs: &mut WindowRuns,
        seen: &mut [u64],
        mut copy: impl FnMut(usize, &[u8]),
    ) -> Option<usize> {
        let (ms, mem) = (&self.obj.pd(ctx.pd).mem, &self.machine.mem);
        runs.sweep(ctx.pd, ms, (addr, false), mem, seen, |mem, i, hpa, seen| {
            // Frames past the end of RAM are at generation 0 and zeros.
            copy(i, mem.slice(hpa, PAGE).unwrap_or(&[0; PAGE]));
            *seen = mem.frame_gen(hpa);
        })
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
        runs: &mut WindowRuns,
        seen: &mut [u64],
        page: impl Fn(usize) -> Option<&'a [u8]>,
    ) -> Option<usize> {
        let (ms, mem) = (&self.obj.pd(ctx.pd).mem, &mut self.machine.mem);
        runs.sweep(ctx.pd, ms, (addr, true), mem, seen, |mem, i, hpa, seen| {
            mem.write_bytes(hpa, page(i).unwrap_or(&[0; PAGE]));
            *seen = mem.frame_gen(hpa);
        })
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

/// One page, as a length.
const PAGE: usize = PAGE_SIZE as usize;

/// The longest run a window is cut into: the pages whose write
/// generations a sweep compares as one slice.
const BLOCK: usize = 64;

/// A window of a component's address space cut into runs of
/// consecutive frames, `(first window page, first frame, pages)`: what
/// [`Kernel::mem_refresh`] and [`Kernel::mem_restore`] sweep. The
/// kernel alone fills it — its fields are private — and serves it again
/// only while its key holds: the same PD (a `PdId` is never reused), the
/// same generation of that PD's [`MemSpace`] (every map, unmap and
/// [`MemSpace::invalidate_cache`] moves it; nothing puts a new space in
/// a PD's place, which would start the count again), the same window
/// and the same rights. A caller keeps one per window of one kernel,
/// beside its `seen` table.
#[derive(Default)]
pub struct WindowRuns {
    key: Option<(PdId, u64, u64, usize, bool)>,
    runs: Vec<(usize, u64, usize)>,
}

impl WindowRuns {
    /// An empty cut with room for the runs of a `pages`-page window —
    /// one a page at worst — so that no sweep allocates.
    pub fn for_pages(pages: usize) -> WindowRuns {
        let runs = Vec::with_capacity(pages);
        WindowRuns { key: None, runs }
    }

    /// Hands `moved` the window page, the frame and the `seen` entry of
    /// each page of the `seen.len()`-page window at `addr` of `pd`'s
    /// space `ms` whose frame's write generation is not that entry, in
    /// ascending order, and counts them. Unless the key holds, the
    /// window is first cut anew into runs of at most [`BLOCK`]
    /// consecutive frames: `None` — nothing kept, nothing handed out —
    /// unless `addr` is page-aligned and every page is mapped (writable,
    /// if `write`). A run's generations are compared with `seen` as one
    /// slice; only a run that differs is walked page by page.
    fn sweep<M: std::ops::Deref<Target = PhysMem>>(
        &mut self,
        pd: PdId,
        ms: &MemSpace,
        (addr, write): (u64, bool),
        mut mem: M,
        seen: &mut [u64],
        mut moved: impl FnMut(&mut M, usize, u64, &mut u64),
    ) -> Option<usize> {
        let key = Some((pd, ms.gen, addr, seen.len(), write));
        if self.key != key {
            self.key = None;
            self.runs.clear();
            (addr & 0xfff == 0).then_some(())?;
            let window = ms.slices(addr >> 12, seen.len() as u64);
            for (i, m) in window.flatten().enumerate() {
                let m = m.filter(|m| m.rights.write || !write)?;
                match self.runs.last_mut() {
                    Some((_, f, n)) if *n < BLOCK && *f + (*n * PAGE) as u64 == m.hpa => *n += 1,
                    _ => self.runs.push((i, m.hpa, 1)),
                }
            }
            self.key = key;
        }
        let mut count = 0;
        for &(i, hpa, n) in &self.runs {
            if mem.frame_gens(hpa, n) != &seen[i..i + n] {
                for (i, (hpa, seen)) in (i..).zip((hpa..).step_by(PAGE).zip(&mut seen[i..i + n])) {
                    if mem.frame_gen(hpa) != *seen {
                        moved(&mut mem, i, hpa, seen);
                        count += 1;
                    }
                }
            }
        }
        Some(count)
    }
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
