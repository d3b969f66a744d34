//! Physical memory (RAM) of the simulated machine.
//!
//! MMIO regions are *not* backed here; the machine routes physical
//! accesses that fall into device windows to the device bus. Reads of
//! unpopulated addresses return zeros the way open bus lines read on
//! commodity chipsets; writes outside RAM are dropped. Accessors exist
//! in byte, u32 and u64 granularity because page-table walkers, DMA
//! engines and the CPU all touch memory here.
//!
//! Every mutator bumps a **write generation** of each 4 KB frame it
//! touches. Caches of anything derived from RAM contents (the CPU's
//! predecoded-block cache, the supervisor's checkpoint image of guest
//! RAM) record the generation they were filled at and are stale once
//! it moved — guest stores, device DMA, kernel copies and frame reuse
//! all pass through this one chokepoint.

use nova_x86::insn::OpSize;

use crate::PAddr;

/// log2 of the granule the write generations are kept at.
const FRAME_SHIFT: u32 = 12;

/// Byte-addressable RAM.
pub struct PhysMem {
    bytes: Vec<u8>,
    /// Write generation of each 4 KB frame. 64 bits wide so it never
    /// wraps back onto a value a cache still holds.
    gens: Vec<u64>,
}

impl PhysMem {
    /// Allocates `size` bytes of zeroed RAM.
    pub fn new(size: usize) -> PhysMem {
        PhysMem {
            bytes: vec![0; size],
            gens: vec![0; size.div_ceil(1 << FRAME_SHIFT)],
        }
    }

    /// Write generation of the 4 KB frame containing `addr`: moves on
    /// every write that touches the frame. Frames outside RAM never
    /// change (writes there are dropped) and report 0.
    #[inline]
    pub fn frame_gen(&self, addr: PAddr) -> u64 {
        self.gens
            .get((addr >> FRAME_SHIFT) as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Write generations of the `n` consecutive 4 KB frames from the
    /// one containing `addr`, cut short at the end of RAM: a frame past
    /// the returned slice is outside RAM and at generation 0, as
    /// [`PhysMem::frame_gen`] says.
    #[inline]
    pub fn frame_gens(&self, addr: PAddr, n: usize) -> &[u64] {
        let first = ((addr >> FRAME_SHIFT) as usize).min(self.gens.len());
        let gens = &self.gens[first..first.saturating_add(n).min(self.gens.len())];
        // The zero-page rule, which lets a reader of a run take a frame
        // at generation 0 for zeros without looking: nothing wrote it.
        let frames = self.bytes.chunks(1 << FRAME_SHIFT).skip(first);
        debug_assert!(
            gens.iter()
                .zip(frames)
                .all(|(&g, f)| g != 0 || f.iter().all(|&b| b == 0)),
            "a frame at write generation 0 is not zeros"
        );
        gens
    }

    /// Bumps the generation of every frame overlapping the in-RAM
    /// range `a..a + len`.
    #[inline]
    fn touch(&mut self, a: usize, len: usize) {
        if len == 0 {
            return;
        }
        for g in &mut self.gens[a >> FRAME_SHIFT..=(a + len - 1) >> FRAME_SHIFT] {
            *g += 1;
        }
    }

    /// RAM size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// `true` if `addr..addr+len` lies inside RAM.
    pub fn contains(&self, addr: PAddr, len: u32) -> bool {
        (addr as usize)
            .checked_add(len as usize)
            .is_some_and(|end| end <= self.bytes.len())
    }

    /// Reads one byte; unpopulated addresses read as zero.
    #[inline]
    pub fn read_u8(&self, addr: PAddr) -> u8 {
        self.bytes.get(addr as usize).copied().unwrap_or(0)
    }

    /// Writes one byte; writes outside RAM are dropped.
    #[inline]
    pub fn write_u8(&mut self, addr: PAddr, val: u8) {
        if let Some(b) = self.bytes.get_mut(addr as usize) {
            *b = val;
            self.gens[(addr >> FRAME_SHIFT) as usize] += 1;
        }
    }

    /// Reads a little-endian u32.
    #[inline]
    pub fn read_u32(&self, addr: PAddr) -> u32 {
        let a = addr as usize;
        match self.bytes.get(a..a + 4) {
            Some(s) => u32::from_le_bytes(s.try_into().unwrap()),
            None => {
                let mut v = 0;
                for i in 0..4 {
                    v |= (self.read_u8(addr + i) as u32) << (8 * i);
                }
                v
            }
        }
    }

    /// Writes a little-endian u32.
    #[inline]
    pub fn write_u32(&mut self, addr: PAddr, val: u32) {
        let a = addr as usize;
        if let Some(s) = self.bytes.get_mut(a..a + 4) {
            s.copy_from_slice(&val.to_le_bytes());
            self.touch(a, 4);
        } else {
            for i in 0..4 {
                self.write_u8(addr + i, (val >> (8 * i)) as u8);
            }
        }
    }

    /// Reads a little-endian u64 (used by 64-bit EPT entries).
    pub fn read_u64(&self, addr: PAddr) -> u64 {
        self.read_u32(addr) as u64 | (self.read_u32(addr + 4) as u64) << 32
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, addr: PAddr, val: u64) {
        self.write_u32(addr, val as u32);
        self.write_u32(addr + 4, (val >> 32) as u32);
    }

    /// Reads an operand-sized value.
    #[inline]
    pub fn read_sized(&self, addr: PAddr, size: OpSize) -> u32 {
        match size {
            OpSize::Byte => self.read_u8(addr) as u32,
            OpSize::Dword => self.read_u32(addr),
        }
    }

    /// Writes an operand-sized value.
    #[inline]
    pub fn write_sized(&mut self, addr: PAddr, size: OpSize, val: u32) {
        match size {
            OpSize::Byte => self.write_u8(addr, val as u8),
            OpSize::Dword => self.write_u32(addr, val),
        }
    }

    /// Copies a byte slice into RAM (image loading, DMA).
    pub fn write_bytes(&mut self, addr: PAddr, data: &[u8]) {
        let a = addr as usize;
        if let Some(s) = self.bytes.get_mut(a..a + data.len()) {
            s.copy_from_slice(data);
            self.touch(a, data.len());
        } else {
            for (i, b) in data.iter().enumerate() {
                self.write_u8(addr + i as u64, *b);
            }
        }
    }

    /// Copies bytes out of RAM.
    pub fn read_bytes(&self, addr: PAddr, len: usize) -> Vec<u8> {
        let a = addr as usize;
        match self.bytes.get(a..a + len) {
            Some(s) => s.to_vec(),
            None => (0..len).map(|i| self.read_u8(addr + i as u64)).collect(),
        }
    }

    /// Copies bytes out of RAM into a caller-provided buffer without
    /// allocating; bytes beyond the end of RAM read as zero.
    pub fn read_into(&self, addr: PAddr, out: &mut [u8]) {
        let a = addr as usize;
        match self.bytes.get(a..a.wrapping_add(out.len())) {
            Some(s) => out.copy_from_slice(s),
            None => {
                for (i, b) in out.iter_mut().enumerate() {
                    *b = self.read_u8(addr.wrapping_add(i as u64));
                }
            }
        }
    }

    /// Borrows `len` bytes of RAM in place (zero-copy read access);
    /// `None` if the range is not fully RAM-backed.
    pub fn slice(&self, addr: PAddr, len: usize) -> Option<&[u8]> {
        let a = addr as usize;
        self.bytes.get(a..a.checked_add(len)?)
    }

    /// Borrows `len` bytes of RAM mutably in place (zero-copy write
    /// access); `None` if the range is not fully RAM-backed. The
    /// frames count as written when the borrow is handed out: nothing
    /// can read a generation while it is live.
    pub fn slice_mut(&mut self, addr: PAddr, len: usize) -> Option<&mut [u8]> {
        let a = addr as usize;
        let end = a.checked_add(len)?;
        if end > self.bytes.len() {
            return None;
        }
        self.touch(a, len);
        self.bytes.get_mut(a..end)
    }

    /// Fills a region with a byte value.
    pub fn fill(&mut self, addr: PAddr, len: usize, val: u8) {
        let a = addr as usize;
        if let Some(s) = self.bytes.get_mut(a..a + len) {
            s.fill(val);
            self.touch(a, len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_roundtrip() {
        let mut m = PhysMem::new(4096);
        m.write_u32(0x100, 0xdead_beef);
        assert_eq!(m.read_u32(0x100), 0xdead_beef);
        assert_eq!(m.read_u8(0x100), 0xef);
        assert_eq!(m.read_u8(0x103), 0xde);
        m.write_u64(0x200, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(0x200), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u32(0x204), 0x0123_4567);
    }

    #[test]
    fn out_of_range_reads_zero_writes_dropped() {
        let mut m = PhysMem::new(16);
        assert_eq!(m.read_u32(0x1_0000), 0);
        m.write_u32(0x1_0000, 0xffff_ffff); // dropped, no panic
        assert_eq!(m.read_u32(0x1_0000), 0);
        // Straddling the end.
        m.write_u32(14, 0xaabbccdd);
        assert_eq!(m.read_u8(14), 0xdd);
        assert_eq!(m.read_u8(15), 0xcc);
        assert_eq!(m.read_u32(14), 0x0000_ccdd);
    }

    #[test]
    fn bulk_ops() {
        let mut m = PhysMem::new(1024);
        m.write_bytes(0x10, &[1, 2, 3, 4, 5]);
        assert_eq!(m.read_bytes(0x10, 5), vec![1, 2, 3, 4, 5]);
        m.fill(0x20, 8, 0xaa);
        assert_eq!(m.read_u32(0x20), 0xaaaa_aaaa);
    }

    #[test]
    fn every_mutator_bumps_exactly_the_frames_it_touches() {
        let mut m = PhysMem::new(4 * 4096 + 16);
        let gens = |m: &PhysMem| [0u64, 1, 2, 3, 4].map(|f| m.frame_gen(f * 4096));
        let mut before = gens(&m);
        let mut moved = |m: &PhysMem| {
            let now = gens(m);
            let d = [0, 1, 2, 3, 4].map(|i| now[i] != before[i]);
            before = now;
            d
        };
        m.write_u8(0x1005, 1);
        assert_eq!(moved(&m), [false, true, false, false, false]);
        m.write_u32(0x1ffe, 1); // straddles frames 1 and 2
        assert_eq!(moved(&m), [false, true, true, false, false]);
        m.write_u64(0x2ffc, 1); // one dword in frame 2, one in frame 3
        assert_eq!(moved(&m), [false, false, true, true, false]);
        m.write_sized(0x0, OpSize::Byte, 1);
        assert_eq!(moved(&m), [true, false, false, false, false]);
        m.write_bytes(0x0fff, &[0; 4098]); // frames 0, 1 and 2
        assert_eq!(moved(&m), [true, true, true, false, false]);
        m.fill(0x3000, 4096, 7);
        assert_eq!(moved(&m), [false, false, false, true, false]);
        m.slice_mut(0x3fff, 2).expect("in RAM")[0] = 1;
        assert_eq!(moved(&m), [false, false, false, true, true]);
        // Straddling the end of RAM: the in-RAM bytes still count.
        m.write_bytes(0x4000 + 14, &[1, 2, 3, 4]);
        assert_eq!(moved(&m), [false, false, false, false, true]);
        // Reads, empty writes and writes outside RAM move nothing.
        m.read_u32(0x1000);
        m.write_bytes(0x1000, &[]);
        m.write_u32(0x10_0000, 1);
        assert!(m.slice_mut(0x4000, 4096).is_none());
        assert_eq!(moved(&m), [false; 5]);
        assert_eq!(m.frame_gen(0x10_0000), 0);
    }

    /// `frame_gens` is `frame_gen` of each frame of the run, cut short
    /// at the end of RAM.
    #[test]
    fn frame_gens_reads_a_run_of_frame_gen() {
        let mut m = PhysMem::new(4 * 4096);
        m.write_u8(0x1000, 1);
        m.fill(0x2000, 8192, 2);
        for (addr, n) in [
            (0x0, 4),
            (0x1fff, 2),
            (0x2000, 9),
            (0x4000, 3),
            (0x10_0000, 2),
        ] {
            let want: Vec<u64> = (0..n as u64)
                .map(|i| m.frame_gen(addr + i * 4096))
                .collect();
            let got = m.frame_gens(addr, n);
            assert_eq!(got, &want[..got.len()], "{addr:#x} + {n}");
            assert!(want[got.len()..].iter().all(|&g| g == 0), "{addr:#x} + {n}");
        }
        assert_eq!(m.frame_gens(0x2000, 9), &[1, 1]);
    }

    #[test]
    fn contains_checks_bounds() {
        let m = PhysMem::new(4096);
        assert!(m.contains(0, 4096));
        assert!(m.contains(4092, 4));
        assert!(!m.contains(4093, 4));
        assert!(!m.contains(u64::MAX, 1));
    }
}
