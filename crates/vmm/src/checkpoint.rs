//! Versioned, deterministic VMM checkpoint format.
//!
//! A checkpoint is the supervisor's capture of everything needed to
//! transplant a running guest into a freshly spawned VMM incarnation:
//! the architectural state of every vCPU (exported by the kernel), the
//! VMM's virtual-device state (serialized by [`crate::Vmm`]), and an
//! image of guest-physical memory. The byte layout is fully
//! deterministic — same guest state, same bytes — which is what lets
//! the CI gate assert checkpoint byte-identity across same-seed runs.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic     8 bytes  "NOVACKPT"
//! version   u32      format version (7)
//! seq       u64      checkpoint sequence number
//! mem_len   u64      guest-memory length, a whole number of 4 KB pages
//! pages     u32 n, then n page numbers (u32, strictly ascending, each
//!           below mem_len / 4096), then those n pages, 4 KB each
//! vcpus     u32      count, then count 84-byte records: 16 u32 register
//!           words (eax..edi, eip, eflags, cr0, cr2, cr3, cr4, idt base,
//!           idt limit), the u64 TSC offset, six flag bytes (halted,
//!           STI shadow, interrupt window, recall, blocked, injection
//!           present), the injection's vector, u32 error code and
//!           error-code-present flag byte
//! vmm       u32 len, then len bytes (Vmm::save_state); in it, each
//!           disk client's requests in flight are one record
//!           (DiskClient::export_state): u32 count, then per request
//!           tag, op, lba (u64), sectors (u32), nsegs (u8), nsegs ×
//!           (addr u64, bytes u32), attempts (u32), ctx (u64)
//! ```
//!
//! Version 6 gave both disk front ends that one request record;
//! version 5's had one layout each (the vAHCI's 32 slot-presence
//! bytes, the PV queue's single segment without `nsegs`) and is
//! refused by number. Version 7 carries, in bit 1 of each vCPU's recall
//! byte of the VMM record, that it halted with its interrupt window
//! closed; version 6 is refused by number too.
//!
//! **A checkpoint holds what the guest wrote**: a page is stored if and
//! only if it is not all zeros, and a page the index leaves out reads
//! as zeros. The encoding is canonical — one state, one blob, whatever
//! history led there — and its size follows the pages the guest wrote,
//! not the size of its RAM. The parser holds a blob to that: a page
//! number out of order, repeated or past the image, a stored page of
//! zeros, a vCPU record the encoder would not write (a flag byte other
//! than 0 or 1, a field of an absent injection that is not zero), a
//! truncation or trailing bytes all refuse it, so whatever parses
//! re-encodes to itself.
//!
//! [`refresh`] brings the blob the supervisor already holds up to date
//! in place: each page the kernel hands over ([`Pages::put`]) is
//! overwritten where it sits, inserted in order, or removed when it
//! became zeros; then the sequence number is patched and the small
//! records behind the pages are rewritten.
//!
//! What is *not* captured — host VMCS policy, vTLB shadow tables,
//! kernel-object identities, portal wiring, in-flight IPC — is state
//! the respawned VMM re-derives or the restore path reconstructs
//! (DESIGN.md §6e documents the captured/reconstructed split). Nor is
//! any statistic: a checkpoint holds what the guest or the disk
//! protocol can observe, and counts live in the kernel's registry
//! (`nova_core::Counters`), which a VMM's death does not touch.

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::panic)]

use nova_core::kernel::VcpuSnapshot;
use nova_hw::vmx::Injection;
use nova_x86::reg::Regs;

/// Magic prefix of every checkpoint blob.
pub const MAGIC: [u8; 8] = *b"NOVACKPT";

/// Current checkpoint format version. Bump on any layout change; the
/// parser refuses other versions, which makes a stale checkpoint an
/// explicit cold-reboot escalation rather than a silent corruption.
pub const VERSION: u32 = 7;

/// Size of one page of the guest image.
pub const PAGE: usize = 4096;

const SEQ_OFFSET: usize = MAGIC.len() + 4;

/// Offset of the page count; the page index follows it.
const COUNT_OFFSET: usize = SEQ_OFFSET + 8 + 8;

const INDEX_OFFSET: usize = COUNT_OFFSET + 4;

/// Spare capacity a fresh image is given behind its records, so that a
/// device-state record that grows by a few in-flight requests does not
/// reallocate the blob.
const RECORD_SLACK: usize = 4096;

/// Size of one vCPU record (see the layout above).
const VCPU_BYTES: usize = 16 * 4 + 8 + 6 + 1 + 4 + 1;

/// Pages a fresh image has room for before a page the guest writes for
/// the first time reallocates the blob: more than the recovery
/// workload's guest ever writes (13 of its 1,024).
const PAGE_SLACK: usize = 16;

/// Little-endian byte-stream encoder for checkpoint sections.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// An encoder that appends to `buf`.
    pub fn over(buf: Vec<u8>) -> Enc {
        Enc { buf }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte.
    pub fn flag(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes (no length prefix).
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends a u32 length prefix followed by the bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.raw(b);
    }

    /// The accumulated bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Little-endian byte-stream decoder; every read is checked, so a
/// truncated or corrupt checkpoint surfaces as `None` instead of a
/// panic inside the restore path.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf` starting at offset zero.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// Takes the next `N` bytes: a device core's fixed-size record.
    pub fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).and_then(|s| s.first().copied())
    }

    /// Reads one byte as a bool: 0 or 1, what [`Enc::flag`] writes;
    /// any other byte is refused.
    pub fn flag(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .and_then(|s| s.try_into().ok())
            .map(u32::from_le_bytes)
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .and_then(|s| s.try_into().ok())
            .map(u64::from_le_bytes)
    }

    /// Reads a u32 length prefix, then that many bytes.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// `true` if every byte was consumed.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }
}

/// One complete VMM checkpoint: what the supervisor captures on its
/// periodic cadence and replays into a fresh VMM incarnation after a
/// crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Monotonic sequence number (which capture this is).
    pub seq: u64,
    /// Per-vCPU architectural state, in vCPU order.
    pub vcpus: Vec<VcpuSnapshot>,
    /// Serialized VMM device state ([`crate::Vmm::save_state`]).
    pub vmm_state: Vec<u8>,
    /// Guest-physical memory image, from guest address zero: a whole
    /// number of [`PAGE`]s.
    pub guest_mem: Vec<u8>,
}

impl Checkpoint {
    /// Serializes the checkpoint into its canonical byte form, which
    /// stores the pages of `guest_mem` that are not all zeros.
    ///
    /// # Panics
    ///
    /// If `guest_mem` is not a whole number of pages.
    pub fn to_bytes(&self) -> Vec<u8> {
        let len = self.guest_mem.len();
        assert!(len.is_multiple_of(PAGE), "guest memory of {len} bytes");
        let pages: Vec<_> = self
            .guest_mem
            .chunks_exact(PAGE)
            .enumerate()
            .filter(|(_, p)| !is_zero(p))
            .collect();
        encode(self.seq, len, &pages, &self.vcpus, &self.vmm_state)
    }

    /// Parses a checkpoint blob and spells its image out in full;
    /// `None` on anything [`View::parse`] refuses, or an image larger
    /// than the host can allocate.
    pub fn from_bytes(b: &[u8]) -> Option<Checkpoint> {
        let v = View::parse(b)?;
        let mut guest_mem = Vec::new();
        guest_mem.try_reserve_exact(v.mem_len).ok()?;
        guest_mem.resize(v.mem_len, 0);
        for (i, page) in v.pages() {
            guest_mem
                .get_mut(i * PAGE..(i + 1) * PAGE)?
                .copy_from_slice(page);
        }
        Some(Checkpoint {
            seq: v.seq,
            vcpus: v.vcpus,
            vmm_state: v.vmm_state.to_vec(),
            guest_mem,
        })
    }
}

/// A parsed checkpoint whose pages and device state still live in the
/// blob: what the restore path reads, so that neither is copied on the
/// way back into the guest.
#[derive(Debug)]
pub struct View<'a> {
    /// Monotonic sequence number (which capture this is).
    pub seq: u64,
    /// Per-vCPU architectural state, in vCPU order.
    pub vcpus: Vec<VcpuSnapshot>,
    /// Serialized VMM device state ([`crate::Vmm::save_state`]).
    pub vmm_state: &'a [u8],
    /// Length of the guest memory the image describes, in bytes.
    pub mem_len: usize,
    image: Image<'a>,
}

impl<'a> View<'a> {
    /// Parses a checkpoint blob; `None` unless it is the canonical
    /// encoding of some checkpoint (see the module documentation).
    pub fn parse(b: &'a [u8]) -> Option<View<'a>> {
        let mut d = Dec::new(b);
        let image = Image::read(&mut d)?;
        if image.pages().any(|(_, p)| is_zero(p)) {
            return None;
        }
        let nvcpus = d.u32()? as usize;
        // Bound the claimed count by what could physically fit, so a
        // corrupt header cannot drive a huge allocation.
        if nvcpus > d.remaining() / VCPU_BYTES {
            return None;
        }
        let mut vcpus = Vec::with_capacity(nvcpus);
        for _ in 0..nvcpus {
            vcpus.push(read_vcpu(&mut d)?);
        }
        let vmm_state = d.bytes()?;
        if !d.done() {
            return None;
        }
        Some(View {
            seq: image.seq,
            vcpus,
            vmm_state,
            mem_len: image.mem_len,
            image,
        })
    }

    /// Page `page` of the guest image if it is stored; a page that is
    /// not reads as zeros.
    pub fn page(&self, page: usize) -> Option<&'a [u8]> {
        self.image.page(page)
    }

    /// The stored pages in ascending order, with their page numbers.
    pub fn pages(&self) -> impl Iterator<Item = (usize, &'a [u8])> + 'a {
        self.image.pages()
    }
}

/// The page part of a blob — header, page index, pages — checked for
/// shape (every page present, the index ascending and inside the
/// image) but not for pages of zeros.
#[derive(Clone, Copy, Debug)]
struct Image<'a> {
    seq: u64,
    mem_len: usize,
    index: &'a [[u8; 4]],
    data: &'a [u8],
}

impl<'a> Image<'a> {
    fn read(d: &mut Dec<'a>) -> Option<Image<'a>> {
        if d.take(MAGIC.len())? != MAGIC || d.u32()? != VERSION {
            return None;
        }
        let seq = d.u64()?;
        let mem_len = usize::try_from(d.u64()?).ok()?;
        let n = d.u32()? as usize;
        let (index, _) = d.take(n.checked_mul(4)?)?.as_chunks();
        let data = d.take(n.checked_mul(PAGE)?)?;
        let number = |b: &[u8; 4]| u32::from_le_bytes(*b) as usize;
        let ascending = index.is_sorted_by(|a, b| number(a) < number(b));
        let inside = index.last().is_none_or(|b| number(b) < mem_len / PAGE);
        (mem_len.is_multiple_of(PAGE) && ascending && inside).then_some(Image {
            seq,
            mem_len,
            index,
            data,
        })
    }

    fn page(&self, page: usize) -> Option<&'a [u8]> {
        let j = slot(self.index, page).ok()?;
        self.data.get(j * PAGE..(j + 1) * PAGE)
    }

    fn pages(&self) -> impl Iterator<Item = (usize, &'a [u8])> + 'a {
        let numbers = self.index.iter().map(|b| u32::from_le_bytes(*b) as usize);
        numbers.zip(self.data.chunks_exact(PAGE))
    }
}

/// Where page `page` sits in an ascending page index: `Ok` with its
/// slot if it is stored, otherwise `Err` with the slot it would take.
fn slot(index: &[[u8; 4]], page: usize) -> Result<usize, usize> {
    index.binary_search_by_key(&(page as u64), |b| u32::from_le_bytes(*b).into())
}

fn is_zero(page: &[u8]) -> bool {
    page.iter().all(|&b| b == 0)
}

fn write_header(e: &mut Enc, seq: u64, mem_len: usize, pages: usize) {
    e.raw(&MAGIC);
    e.u32(VERSION);
    e.u64(seq);
    e.u64(mem_len as u64);
    e.u32(pages as u32);
}

fn records_len(vcpus: usize, vmm_state: &[u8]) -> usize {
    4 + vcpus * VCPU_BYTES + 4 + vmm_state.len()
}

fn write_records(e: &mut Enc, vcpus: &[VcpuSnapshot], vmm_state: &[u8]) {
    e.u32(vcpus.len() as u32);
    for v in vcpus {
        write_vcpu(e, v);
    }
    e.bytes(vmm_state);
}

/// Appends `v`'s [`VCPU_BYTES`]-byte record.
fn write_vcpu(e: &mut Enc, v: &VcpuSnapshot) {
    let r = &v.regs;
    let words = [r.eip, r.eflags, r.cr0, r.cr2, r.cr3, r.cr4, r.idt_base];
    for w in r.gpr.into_iter().chain(words) {
        e.u32(w);
    }
    e.u32(r.idt_limit.into());
    e.u64(v.tsc_offset);
    let flags = [v.halted, v.sti_shadow, v.intwin_exit, v.recall_pending];
    for f in flags.into_iter().chain([v.blocked, v.injection.is_some()]) {
        e.flag(f);
    }
    let code = v.injection.and_then(|i| i.error_code);
    e.u8(v.injection.map_or(0, |i| i.vector));
    e.u32(code.unwrap_or(0));
    e.flag(code.is_some());
}

/// Reads a record [`write_vcpu`] wrote, and only such a record: a flag
/// byte other than 0 or 1, an IDT limit past 16 bits, or a field of an
/// absent injection or error code that is not zero refuses it, so that
/// whatever decodes encodes back to itself.
fn read_vcpu(d: &mut Dec) -> Option<VcpuSnapshot> {
    let mut regs = Regs::default();
    for w in &mut regs.gpr {
        *w = d.u32()?;
    }
    regs.eip = d.u32()?;
    regs.eflags = d.u32()?;
    regs.cr0 = d.u32()?;
    regs.cr2 = d.u32()?;
    regs.cr3 = d.u32()?;
    regs.cr4 = d.u32()?;
    regs.idt_base = d.u32()?;
    regs.idt_limit = u16::try_from(d.u32()?).ok()?;
    let tsc_offset = d.u64()?;
    let (halted, sti_shadow, intwin_exit) = (d.flag()?, d.flag()?, d.flag()?);
    let (recall_pending, blocked, injected) = (d.flag()?, d.flag()?, d.flag()?);
    let (vector, code, has_code) = (d.u8()?, d.u32()?, d.flag()?);
    let unset = (!has_code && code != 0) || (!injected && (vector != 0 || has_code));
    (!unset).then_some(VcpuSnapshot {
        regs,
        halted,
        sti_shadow,
        injection: injected.then_some(Injection {
            vector,
            error_code: has_code.then_some(code),
        }),
        intwin_exit,
        recall_pending,
        tsc_offset,
        blocked,
    })
}

/// The blob of a checkpoint whose `mem_len`-byte image stores `pages`
/// — `(page number, page)`, ascending, none all zeros.
fn encode(
    seq: u64,
    mem_len: usize,
    pages: &[(usize, &[u8])],
    vcpus: &[VcpuSnapshot],
    vmm_state: &[u8],
) -> Vec<u8> {
    let len = INDEX_OFFSET + pages.len() * (4 + PAGE) + records_len(vcpus.len(), vmm_state);
    let mut e = Enc::over(Vec::with_capacity(len));
    write_header(&mut e, seq, mem_len, pages.len());
    for &(i, _) in pages {
        e.u32(i as u32);
    }
    for &(_, page) in pages {
        e.raw(page);
    }
    write_records(&mut e, vcpus, vmm_state);
    e.finish()
}

/// The image of a blob that [`refresh`] is bringing up to date, handed
/// to its `sync` step to be told, page by page, what moved.
pub struct Pages<'b> {
    blob: &'b mut Vec<u8>,
    /// Pages stored.
    n: usize,
    /// Pages in the image.
    limit: usize,
    /// Sequence number of the image the blob held, if it held one of
    /// this size.
    held: Option<u64>,
}

impl Pages<'_> {
    /// The sequence number of the image being brought up to date, or
    /// `None` if the blob held no image of this size and this one
    /// starts from zeros: then every page that is not all zeros must be
    /// put.
    pub fn held(&self) -> Option<u64> {
        self.held
    }

    /// Makes page `page` of the image read `bytes`, one [`PAGE`]: a
    /// stored page is overwritten where it sits, a page that became
    /// non-zero is inserted in order, and a page that became all zeros
    /// is removed. A page outside the image, or `bytes` of another
    /// length, is ignored.
    pub fn put(&mut self, page: usize, bytes: &[u8]) {
        if page >= self.limit || bytes.len() != PAGE {
            return;
        }
        let data = INDEX_OFFSET + 4 * self.n;
        let index = self.blob.get(INDEX_OFFSET..data).unwrap_or_default();
        let (at, entry) = match (slot(index.as_chunks().0, page), is_zero(bytes)) {
            (Ok(j), false) => {
                let stored = self.blob.get_mut(data + j * PAGE..data + (j + 1) * PAGE);
                stored.into_iter().for_each(|p| p.copy_from_slice(bytes));
                return;
            }
            (Ok(j), true) => {
                self.blob.drain(data + j * PAGE..data + (j + 1) * PAGE);
                self.blob
                    .drain(INDEX_OFFSET + 4 * j..INDEX_OFFSET + 4 * (j + 1));
                self.n -= 1;
                return self.write_count();
            }
            (Err(j), false) => (j, (page as u32).to_le_bytes()),
            (Err(_), true) => return,
        };
        // The pages from slot `at` on and the records behind them move
        // up by an entry and a page, the index tail and the pages in
        // front of the slot by an entry.
        let (entry_at, page_at, len) = (INDEX_OFFSET + 4 * at, data + at * PAGE, self.blob.len());
        self.blob.resize(len + 4 + PAGE, 0);
        self.blob.copy_within(page_at..len, page_at + 4 + PAGE);
        self.blob.copy_within(entry_at..page_at, entry_at + 4);
        for (at, src) in [(entry_at, &entry[..]), (page_at + 4, bytes)] {
            let slot = self.blob.get_mut(at..at + src.len());
            slot.into_iter().for_each(|s| s.copy_from_slice(src));
        }
        self.n += 1;
        self.write_count();
    }

    fn write_count(&mut self) {
        let count = self.blob.get_mut(COUNT_OFFSET..INDEX_OFFSET);
        count
            .into_iter()
            .for_each(|c| c.copy_from_slice(&(self.n as u32).to_le_bytes()));
    }

    /// Where the records start.
    fn end(&self) -> usize {
        INDEX_OFFSET + self.n * (4 + PAGE)
    }
}

/// Brings `blob` up to date in place as checkpoint `seq`: `sync`
/// updates the `mem_len`-byte guest image through [`Pages::put`], then
/// the sequence number is patched and the records behind the pages are
/// rewritten. Afterwards `blob` equals `Checkpoint { seq, vcpus,
/// vmm_state, guest_mem }.to_bytes()` for the image `sync` left behind.
///
/// A `blob` that does not already hold an image of `mem_len` bytes is
/// replaced by one that stores no page — all zeros — built on the side,
/// so `sync` must then put every page that is not all zeros; it reads
/// which of the two it was handed from [`Pages::held`], the one parse
/// of the blob's header and page index.
///
/// `sync` is the only step that can fail, and must leave the image
/// untouched when it does (returns `None`); `blob` is then exactly what
/// it was. Its `Some` value is passed through. `None` too, with `blob`
/// untouched, if `mem_len` is not a whole number of pages.
pub fn refresh<R>(
    blob: &mut Vec<u8>,
    seq: u64,
    mem_len: usize,
    vcpus: &[VcpuSnapshot],
    vmm_state: &[u8],
    sync: impl FnOnce(&mut Pages) -> Option<R>,
) -> Option<R> {
    if !mem_len.is_multiple_of(PAGE) {
        return None;
    }
    let records = records_len(vcpus.len(), vmm_state);
    let held = Image::read(&mut Dec::new(blob)).filter(|i| i.mem_len == mem_len);
    let held = held.map(|i| (i.seq, i.index.len()));
    let mut fresh = held.is_none().then(|| {
        let room = INDEX_OFFSET + PAGE_SLACK * (4 + PAGE) + records + RECORD_SLACK;
        let mut e = Enc::over(Vec::with_capacity(room));
        write_header(&mut e, seq, mem_len, 0);
        e.finish()
    });
    let mut pages = Pages {
        blob: fresh.as_mut().unwrap_or(&mut *blob),
        n: held.map_or(0, |(_, n)| n),
        limit: mem_len / PAGE,
        held: held.map(|(seq, _)| seq),
    };
    let r = sync(&mut pages)?;
    let end = pages.end();
    if let Some(fresh) = fresh {
        *blob = fresh;
    }
    blob.get_mut(SEQ_OFFSET..SEQ_OFFSET + 8)?
        .copy_from_slice(&seq.to_le_bytes());
    blob.truncate(end);
    if blob.capacity() - end < records {
        blob.reserve_exact(records + RECORD_SLACK);
    }
    let mut e = Enc::over(std::mem::take(blob));
    write_records(&mut e, vcpus, vmm_state);
    *blob = e.finish();
    Some(r)
}

#[cfg(test)]
#[allow(clippy::indexing_slicing, clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    /// Four pages: 0 and 2 written, 1 and 3 zeros.
    fn sample() -> Checkpoint {
        let mut snap = vcpu(&[0; VCPU_BYTES]).unwrap();
        snap.regs.eip = 0x7c00;
        snap.halted = true;
        snap.blocked = true;
        let mut guest_mem = vec![0; 4 * PAGE];
        guest_mem[..PAGE].fill(0xaa);
        guest_mem[2 * PAGE + 7] = 0x11;
        Checkpoint {
            seq: 3,
            vcpus: vec![snap],
            vmm_state: vec![1, 2, 3, 4, 5],
            guest_mem,
        }
    }

    /// The vCPU record `b` holds, if it holds exactly one.
    fn vcpu(b: &[u8]) -> Option<VcpuSnapshot> {
        let mut d = Dec::new(b);
        read_vcpu(&mut d).filter(|_| d.done())
    }

    fn vcpu_bytes(v: &VcpuSnapshot) -> Vec<u8> {
        let mut e = Enc::new();
        write_vcpu(&mut e, v);
        e.finish()
    }

    /// A vCPU record is the bytes it was when the kernel wrote it: every
    /// flag set, an injection with an error code.
    #[test]
    fn a_vcpu_record_is_the_bytes_it_always_was() {
        let mut regs = Regs::default();
        for (i, w) in regs.gpr.iter_mut().enumerate() {
            *w = 0x0101_0101 * (i as u32 + 1);
        }
        regs.eip = 0x7c00;
        regs.eflags = 0x202;
        regs.cr0 = 0x8000_0011;
        regs.cr2 = 0xdead_b000;
        regs.cr3 = 0x0010_0000;
        regs.cr4 = 0x10;
        regs.idt_base = 0x5000;
        regs.idt_limit = 0x7ff;
        let snap = VcpuSnapshot {
            regs,
            halted: true,
            sti_shadow: true,
            injection: Some(Injection {
                vector: 0x0e,
                error_code: Some(2),
            }),
            intwin_exit: true,
            recall_pending: true,
            tsc_offset: 0x0123_4567_89ab_cdef,
            blocked: true,
        };
        let hex: String = vcpu_bytes(&snap)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        let want = concat!(
            "0101010102020202030303030404040405050505060606060707070708080808", // eax..edi
            "007c0000020200001100008000b0adde000010001000000000500000ff070000", // eip..idt limit
            "efcdab8967452301",                                                 // TSC offset
            "010101010101",                                                     // six flags
            "0e0200000001", // injection: vector, error code, code present
        );
        assert_eq!(hex, want);
        assert_eq!(vcpu(&vcpu_bytes(&snap)), Some(snap));
    }

    /// A vCPU record decodes to the snapshot that wrote it, and only a
    /// record some snapshot writes decodes at all: every byte whose
    /// change the decoder would not carry back is refused.
    #[test]
    fn vcpu_records_decode_canonically() {
        let mut snap = vcpu(&[0; VCPU_BYTES]).unwrap();
        snap.regs.eip = 0x7c00;
        snap.regs.idt_limit = 0x3ff;
        snap.halted = true;
        snap.tsc_offset = u64::MAX - 5;
        for injection in [None, Some((0x0e, None)), Some((0x0d, Some(0x10)))] {
            snap.injection = injection.map(|(vector, error_code)| Injection { vector, error_code });
            let b = vcpu_bytes(&snap);
            assert_eq!(b.len(), VCPU_BYTES);
            assert_eq!(vcpu(&b), Some(snap.clone()));
            assert_eq!(vcpu(&b[..b.len() - 1]), None);
            for at in 0..b.len() {
                let mut c = b.clone();
                c[at] ^= 0x42;
                if let Some(other) = vcpu(&c) {
                    assert_eq!(vcpu_bytes(&other), c, "byte {at} decodes, not back");
                }
            }
            // A flag byte of 2 reads as true; it is not what `true` writes.
            let mut c = b.clone();
            c[72] = 2;
            assert_eq!(vcpu(&c), None);
        }
    }

    /// Offset of the vCPU count in a blob storing `n` pages.
    fn records_at(n: usize) -> usize {
        INDEX_OFFSET + n * (4 + PAGE)
    }

    #[test]
    fn round_trips() {
        let c = sample();
        let b = c.to_bytes();
        assert_eq!(&b[..8], b"NOVACKPT");
        assert_eq!(Checkpoint::from_bytes(&b).unwrap(), c);
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(sample().to_bytes(), sample().to_bytes());
    }

    /// The image stores exactly the pages that are not all zeros, and
    /// nothing for a guest that wrote nothing.
    #[test]
    fn a_page_is_stored_iff_it_is_not_all_zeros() {
        let c = sample();
        let b = c.to_bytes();
        let v = View::parse(&b).unwrap();
        assert_eq!(v.mem_len, 4 * PAGE);
        let stored: Vec<usize> = v.pages().map(|(i, _)| i).collect();
        assert_eq!(stored, [0, 2]);
        assert_eq!(v.page(0), Some(&c.guest_mem[..PAGE]));
        assert_eq!((v.page(1), v.page(3), v.page(4)), (None, None, None));
        assert_eq!(b.len(), records_at(2) + records_len(1, &c.vmm_state));

        let mut blank = c.clone();
        blank.guest_mem.fill(0);
        let b = blank.to_bytes();
        assert_eq!(b.len(), records_at(0) + records_len(1, &c.vmm_state));
        assert_eq!(Checkpoint::from_bytes(&b).unwrap(), blank);
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let b = sample().to_bytes();
        let mut bad = b.clone();
        bad[0] ^= 1;
        assert!(Checkpoint::from_bytes(&bad).is_none(), "magic");
        let mut bad = b.clone();
        bad[8] = 0xff;
        assert!(Checkpoint::from_bytes(&bad).is_none(), "version");
        for cut in 0..b.len() {
            assert!(View::parse(&b[..cut]).is_none(), "truncation at {cut}");
            assert!(Checkpoint::from_bytes(&b[..cut]).is_none());
        }
        let mut long = b.clone();
        long.push(0);
        assert!(Checkpoint::from_bytes(&long).is_none(), "trailing garbage");
    }

    #[test]
    fn rejects_the_version_1_layout() {
        let c = sample();
        let mut e = Enc::new();
        e.raw(&MAGIC);
        e.u32(1);
        e.u64(c.seq);
        e.u32(c.vcpus.len() as u32);
        for v in &c.vcpus {
            write_vcpu(&mut e, v);
        }
        e.bytes(&c.vmm_state);
        e.u64(c.guest_mem.len() as u64);
        e.raw(&c.guest_mem);
        let v1 = e.finish();
        assert!(Checkpoint::from_bytes(&v1).is_none());
        assert!(Image::read(&mut Dec::new(&v1)).is_none());
    }

    /// Versions 2 to 4 stored the whole image behind `mem_len`, with
    /// other words inside the device-state record (2: statistics; 3:
    /// the vAHCI's in-flight slot mask): refused by number, not
    /// misparsed.
    fn dense(version: u32) -> Vec<u8> {
        let c = sample();
        let mut e = Enc::new();
        e.raw(&MAGIC);
        e.u32(version);
        e.u64(c.seq);
        e.u64(c.guest_mem.len() as u64);
        e.raw(&c.guest_mem);
        write_records(&mut e, &c.vcpus, &c.vmm_state);
        e.finish()
    }

    #[test]
    fn rejects_the_dense_layouts_of_versions_2_to_4() {
        for v in 2..=4 {
            let old = dense(v);
            assert!(Checkpoint::from_bytes(&old).is_none(), "v{v}");
            assert!(View::parse(&old).is_none(), "v{v}");
            assert!(Image::read(&mut Dec::new(&old)).is_none(), "v{v}");
            // Not even the current parser's reading of that framing.
            let mut renumbered = old.clone();
            renumbered[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&VERSION.to_le_bytes());
            assert!(View::parse(&renumbered).is_none(), "v{v} as v{VERSION}");
        }
    }

    #[test]
    fn corrupt_vcpu_count_does_not_overallocate() {
        let mut b = sample().to_bytes();
        let at = records_at(2);
        b[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Checkpoint::from_bytes(&b).is_none());
    }

    /// Sets entry `j` of a blob's page index.
    fn set_entry(b: &mut [u8], j: usize, page: u32) {
        b[INDEX_OFFSET + 4 * j..INDEX_OFFSET + 4 * (j + 1)].copy_from_slice(&page.to_le_bytes());
    }

    /// Every way the page part can be malformed, each refused by the
    /// parser and, where it is the page part's shape, by the header
    /// check an in-place refresh trusts.
    #[test]
    fn refuses_a_malformed_page_index() {
        let b = sample().to_bytes();
        let shape = |b: &[u8]| Image::read(&mut Dec::new(b)).is_some();
        let page_of = |j: usize| records_at(2) - (2 - j) * PAGE;
        let mut cases: Vec<(&str, Vec<u8>, bool)> = Vec::new();

        let mut past = b.clone();
        set_entry(&mut past, 1, 4);
        cases.push(("a page at mem_len / 4096", past, false));
        let mut beyond = b.clone();
        set_entry(&mut beyond, 1, u32::MAX);
        cases.push(("a page far past the image", beyond, false));
        let mut swapped = b.clone();
        set_entry(&mut swapped, 0, 2);
        set_entry(&mut swapped, 1, 0);
        cases.push(("pages out of order", swapped, false));
        let mut twice = b.clone();
        set_entry(&mut twice, 1, 0);
        cases.push(("a page stored twice", twice, false));
        let mut zeros = b.clone();
        zeros[page_of(1)..page_of(1) + PAGE].fill(0);
        cases.push(("a page of zeros stored", zeros, true));
        let mut huge = b.clone();
        huge[COUNT_OFFSET..INDEX_OFFSET].copy_from_slice(&u32::MAX.to_le_bytes());
        cases.push(("n × 4096 past the blob", huge, false));
        let mut more = b.clone();
        more[COUNT_OFFSET..INDEX_OFFSET].copy_from_slice(&3u32.to_le_bytes());
        cases.push(("one page more than stored", more, false));
        let mut odd = b.clone();
        odd[COUNT_OFFSET - 8..COUNT_OFFSET].copy_from_slice(&(4 * PAGE as u64 + 1).to_le_bytes());
        cases.push(("mem_len not a whole number of pages", odd, false));
        let mut shrunk = b.clone();
        shrunk[COUNT_OFFSET - 8..COUNT_OFFSET].copy_from_slice(&(2 * PAGE as u64).to_le_bytes());
        cases.push(("mem_len that cuts off a stored page", shrunk, false));

        for (what, blob, well_shaped) in cases {
            assert!(View::parse(&blob).is_none(), "{what}");
            assert!(Checkpoint::from_bytes(&blob).is_none(), "{what}");
            assert_eq!(shape(&blob), well_shaped, "{what}");
        }
        // `n × 4096` cannot overflow a 64-bit `usize`; the parser's
        // multiplication is checked where it could.
        assert_eq!(
            (u32::MAX as usize).checked_mul(PAGE),
            Some((u32::MAX as usize) << 12)
        );
    }

    /// A vCPU record whose snapshot would write back other bytes (a
    /// flag byte of 7, say) is not a canonical encoding.
    #[test]
    fn refuses_a_vcpu_record_that_does_not_write_back() {
        let mut b = sample().to_bytes();
        let halted = records_at(2) + 4 + 72;
        assert_eq!(b[halted], 1);
        b[halted] = 7;
        assert!(View::parse(&b).is_none());
    }

    /// The canonical-encoding property, by seeded single-byte
    /// corruption: whatever a corrupted blob parses as re-encodes to
    /// exactly that blob — densely too, while its image is small enough
    /// to spell out — or it does not parse.
    #[test]
    fn a_corrupted_blob_fails_to_parse_or_round_trips_to_itself() {
        let b = sample().to_bytes();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Every other corruption lands outside the two pages' bytes,
        // where the framing is.
        let pages_at = INDEX_OFFSET + 2 * 4;
        let framing = b.len() - 2 * PAGE;
        let (mut parsed, mut refused) = (0, 0);
        for i in 0..20_000 {
            let mut c = b.clone();
            let at = match i % 2 {
                0 => next() as usize % c.len(),
                _ => match next() as usize % framing {
                    at if at < pages_at => at,
                    at => at + 2 * PAGE,
                },
            };
            c[at] ^= 1 + (next() % 255) as u8;
            let Some(v) = View::parse(&c) else {
                refused += 1;
                continue;
            };
            parsed += 1;
            let pages: Vec<_> = v.pages().collect();
            assert!(
                encode(v.seq, v.mem_len, &pages, &v.vcpus, v.vmm_state) == c,
                "byte {at} parses but does not re-encode"
            );
            if v.mem_len <= 1 << 20 {
                assert!(Checkpoint::from_bytes(&c).unwrap().to_bytes() == c);
            }
        }
        assert!(
            parsed > 1000 && refused > 1000,
            "{parsed} parsed, {refused} refused"
        );
    }

    /// Blobs a supervisor might hand to [`refresh`] that hold no image
    /// of `sample()`'s size.
    fn imageless_blobs() -> Vec<Vec<u8>> {
        let b = sample().to_bytes();
        let mut other_size = sample();
        other_size.guest_mem.truncate(PAGE);
        vec![
            Vec::new(),
            b[..INDEX_OFFSET + 6].to_vec(),
            b[..records_at(2) - 1].to_vec(),
            other_size.to_bytes(),
            dense(4),
        ]
    }

    /// Puts every page of `mem` that differs from `prev`, as the kernel
    /// hands over the pages whose frames moved.
    fn put_changes(pages: &mut Pages, prev: &[u8], mem: &[u8]) {
        let (a, b) = (prev.chunks_exact(PAGE), mem.chunks_exact(PAGE));
        for (i, (old, new)) in a.zip(b).enumerate() {
            if old != new {
                pages.put(i, new);
            }
        }
    }

    /// The in-place refresh against a from-scratch encoding, for each
    /// kind of change a page can undergo — overwritten where it sits,
    /// inserted before, between and behind the stored pages, removed
    /// when it turns to zeros — in the blob it was given.
    #[test]
    fn refresh_in_place_equals_a_from_scratch_encoding() {
        let mut prev = sample();
        prev.seq = 2;
        prev.vmm_state = vec![9; 40];
        let mut c = sample();
        c.guest_mem.resize(8 * PAGE, 0);
        prev.guest_mem.resize(8 * PAGE, 0);
        prev.guest_mem[5 * PAGE] = 1; // stored, then zeros
        c.guest_mem[PAGE] = 0x22; // inserted between 0 and 2
        c.guest_mem[2 * PAGE + 7] = 0x33; // overwritten
        c.guest_mem[7 * PAGE + 4095] = 0x44; // inserted behind
        c.guest_mem[..PAGE].fill(0); // removed in front
        prev.guest_mem[3 * PAGE] = 5;
        c.guest_mem[3 * PAGE] = 6;
        let mut blob = prev.to_bytes();
        blob.reserve(4 * PAGE);
        let (ptr, cap) = (blob.as_ptr(), blob.capacity());
        let r = refresh(
            &mut blob,
            c.seq,
            8 * PAGE,
            &c.vcpus,
            &c.vmm_state,
            |pages| {
                put_changes(pages, &prev.guest_mem, &c.guest_mem);
                Some(1)
            },
        );
        assert_eq!(r, Some(1));
        assert!(blob == c.to_bytes());
        assert_eq!((blob.as_ptr(), blob.capacity()), (ptr, cap), "in place");

        // A page that was zeros and is put as zeros stays absent; one
        // put unchanged stays where it is.
        let same = blob.clone();
        refresh(
            &mut blob,
            c.seq,
            8 * PAGE,
            &c.vcpus,
            &c.vmm_state,
            |pages| {
                pages.put(4, &[0; PAGE]);
                pages.put(2, &c.guest_mem[2 * PAGE..3 * PAGE]);
                pages.put(8, &[1; PAGE]); // outside the image: ignored
                pages.put(6, &[1; 12]); // not a page: ignored
                Some(())
            },
        );
        assert!(blob == same);
    }

    /// Pages put in descending order land in ascending order.
    #[test]
    fn refresh_inserts_in_order_whatever_order_pages_come_in() {
        let c = sample();
        let mut blob = Vec::new();
        refresh(
            &mut blob,
            c.seq,
            4 * PAGE,
            &c.vcpus,
            &c.vmm_state,
            |pages| {
                for i in (0..4).rev() {
                    pages.put(i, &c.guest_mem[i * PAGE..(i + 1) * PAGE]);
                }
                Some(())
            },
        );
        assert!(blob == c.to_bytes());
    }

    /// 1,000 seeded scripts of four refreshes each, every refresh
    /// putting a random set of pages in random order — inserted,
    /// overwritten or turned to zeros — leave the blob equal to a
    /// from-scratch encoding of the image after every refresh.
    #[test]
    fn seeded_put_scripts_equal_a_from_scratch_encoding() {
        const PAGES: usize = 8;
        for seed in 0..1_000u64 {
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = move |n: usize| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % n as u64) as usize
            };
            let mut c = sample();
            c.guest_mem = vec![0; PAGES * PAGE];
            let mut blob = Vec::new();
            for step in 0..4 {
                let mut order: Vec<usize> = (0..PAGES).collect();
                for i in (1..PAGES).rev() {
                    order.swap(i, next(i + 1));
                }
                order.truncate(1 + next(PAGES));
                for &i in &order {
                    let page = &mut c.guest_mem[i * PAGE..(i + 1) * PAGE];
                    match next(3) {
                        0 => page.fill(0),
                        _ => page[next(PAGE)] = 1 + next(255) as u8,
                    }
                }
                c.seq += 1;
                c.vmm_state = vec![step; next(64)];
                refresh(
                    &mut blob,
                    c.seq,
                    PAGES * PAGE,
                    &c.vcpus,
                    &c.vmm_state,
                    |pages| {
                        for &i in &order {
                            pages.put(i, &c.guest_mem[i * PAGE..(i + 1) * PAGE]);
                        }
                        Some(())
                    },
                );
                assert!(blob == c.to_bytes(), "seed {seed}, refresh {step}");
            }
        }
    }

    #[test]
    fn refresh_replaces_a_blob_that_holds_no_such_image() {
        let c = sample();
        for mut blob in imageless_blobs() {
            let r = refresh(
                &mut blob,
                c.seq,
                4 * PAGE,
                &c.vcpus,
                &c.vmm_state,
                |pages| {
                    assert_eq!(pages.n, 0, "a fresh image stores no page");
                    put_changes(pages, &[0; 4 * PAGE], &c.guest_mem);
                    Some(())
                },
            );
            assert_eq!(r, Some(()));
            assert!(blob == c.to_bytes());
        }
    }

    #[test]
    fn failed_sync_leaves_the_blob_untouched() {
        let c = sample();
        let mut blobs = imageless_blobs();
        blobs.push(c.to_bytes());
        for before in blobs {
            let mut blob = before.clone();
            let r = refresh(&mut blob, 9, 4 * PAGE, &[], &[7; 64], |_| None::<()>);
            assert_eq!(r, None);
            assert_eq!(blob, before);
            let r = refresh(&mut blob, 9, 4 * PAGE + 1, &[], &[7; 64], |_| Some(()));
            assert_eq!(r, None, "not a whole number of pages");
            assert_eq!(blob, before);
        }
    }

    /// A fresh image has room for the records to grow by their slack
    /// and for [`PAGE_SLACK`] pages, and reallocates past either.
    #[test]
    fn growth_within_the_slack_does_not_reallocate_a_fresh_image() {
        let c = sample();
        let mut blob = Vec::new();
        let mut mem = vec![0; 64 * PAGE];
        refresh(&mut blob, 1, mem.len(), &c.vcpus, &[], |_| Some(()));
        let (ptr, cap) = (blob.as_ptr(), blob.capacity());
        for n in [1usize, 64, 1024] {
            refresh(&mut blob, 2, mem.len(), &c.vcpus, &vec![5; n], |_| Some(()));
            assert_eq!((blob.as_ptr(), blob.capacity()), (ptr, cap));
        }
        let state = vec![5; RECORD_SLACK];
        for i in 0..PAGE_SLACK {
            let prev = mem.clone();
            mem[i * 3 * PAGE] = 1 + i as u8;
            refresh(&mut blob, 3, mem.len(), &c.vcpus, &state, |pages| {
                put_changes(pages, &prev, &mem);
                Some(())
            });
            assert_eq!((blob.as_ptr(), blob.capacity()), (ptr, cap), "page {i}");
        }
        // Past the slack it grows, and still encodes the same bytes.
        let (prev, big) = (mem.clone(), vec![5; 3 * RECORD_SLACK]);
        mem[63 * PAGE] = 9;
        refresh(&mut blob, 4, mem.len(), &c.vcpus, &big, |pages| {
            put_changes(pages, &prev, &mem);
            Some(())
        });
        assert!(blob.capacity() > cap);
        let expect = Checkpoint {
            seq: 4,
            vcpus: c.vcpus,
            vmm_state: big,
            guest_mem: mem,
        };
        assert!(blob == expect.to_bytes());
    }

    #[test]
    fn enc_dec_primitives() {
        let mut e = Enc::new();
        e.u8(7);
        e.flag(true);
        e.u32(0xdead_beef);
        e.u64(0x0123_4567_89ab_cdef);
        e.bytes(b"hi");
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        assert_eq!(d.u8(), Some(7));
        assert_eq!(d.flag(), Some(true));
        assert_eq!(d.u32(), Some(0xdead_beef));
        assert_eq!(d.u64(), Some(0x0123_4567_89ab_cdef));
        assert_eq!(d.bytes(), Some(&b"hi"[..]));
        assert!(d.done());
        assert_eq!(d.u8(), None, "reads past the end fail");
        assert_eq!(Dec::new(&[2]).flag(), None, "a flag is 0 or 1");
    }
}
