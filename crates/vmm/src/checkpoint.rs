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
//! version   u32      format version (4)
//! seq       u64      checkpoint sequence number
//! guest mem u64 len, then len bytes (guest-physical image)
//! vcpus     u32      count, then count * VcpuSnapshot::BYTES records
//! vmm       u32 len, then len bytes (Vmm::save_state)
//! ```
//!
//! The image comes first, at the constant offset [`MEM_OFFSET`], so
//! that the blob the supervisor already holds can be brought up to
//! date in place ([`refresh`]): only the pages written since the last
//! capture are copied, the sequence number is patched, and the small
//! records behind the image are rewritten.
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

/// Magic prefix of every checkpoint blob.
pub const MAGIC: [u8; 8] = *b"NOVACKPT";

/// Current checkpoint format version. Bump on any layout change; the
/// parser refuses other versions, which makes a stale checkpoint an
/// explicit cold-reboot escalation rather than a silent corruption.
pub const VERSION: u32 = 4;

const SEQ_OFFSET: usize = MAGIC.len() + 4;

/// Offset of the guest-memory image in every blob: behind the magic,
/// the version, the sequence number and the image length.
pub const MEM_OFFSET: usize = SEQ_OFFSET + 8 + 8;

/// Spare capacity a fresh image is given behind its records, so that a
/// device-state record that grows by a few in-flight requests does not
/// reallocate the guest-sized blob.
const RECORD_SLACK: usize = 4096;

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

    /// Reads one byte as a bool (non-zero = true).
    pub fn flag(&mut self) -> Option<bool> {
        self.u8().map(|b| b != 0)
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
    /// Guest-physical memory image, from guest address zero.
    pub guest_mem: Vec<u8>,
}

impl Checkpoint {
    /// Serializes the checkpoint into its canonical byte form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::over(Vec::with_capacity(
            MEM_OFFSET + self.guest_mem.len() + records_len(self.vcpus.len(), &self.vmm_state),
        ));
        write_header(&mut e, self.seq, self.guest_mem.len());
        e.raw(&self.guest_mem);
        write_records(&mut e, &self.vcpus, &self.vmm_state);
        e.finish()
    }

    /// Parses a checkpoint blob; `None` on bad magic, wrong version,
    /// truncation, or trailing garbage.
    pub fn from_bytes(b: &[u8]) -> Option<Checkpoint> {
        let v = View::parse(b)?;
        Some(Checkpoint {
            seq: v.seq,
            vcpus: v.vcpus,
            vmm_state: v.vmm_state.to_vec(),
            guest_mem: v.guest_mem.to_vec(),
        })
    }
}

/// A parsed checkpoint whose guest image and device state still live
/// in the blob: what the restore path reads, so that neither is copied
/// on the way back into the guest.
#[derive(Debug)]
pub struct View<'a> {
    /// Monotonic sequence number (which capture this is).
    pub seq: u64,
    /// Per-vCPU architectural state, in vCPU order.
    pub vcpus: Vec<VcpuSnapshot>,
    /// Serialized VMM device state ([`crate::Vmm::save_state`]).
    pub vmm_state: &'a [u8],
    /// Guest-physical memory image, from guest address zero.
    pub guest_mem: &'a [u8],
}

impl<'a> View<'a> {
    /// Parses a checkpoint blob; `None` on bad magic, wrong version,
    /// truncation, or trailing garbage.
    pub fn parse(b: &'a [u8]) -> Option<View<'a>> {
        let mut d = Dec::new(b);
        let (seq, mem_len) = read_header(&mut d)?;
        let guest_mem = d.take(mem_len)?;
        let nvcpus = d.u32()? as usize;
        // Bound the claimed count by what could physically fit, so a
        // corrupt header cannot drive a huge allocation.
        if nvcpus > d.remaining() / VcpuSnapshot::BYTES {
            return None;
        }
        let mut vcpus = Vec::with_capacity(nvcpus);
        for _ in 0..nvcpus {
            vcpus.push(VcpuSnapshot::from_bytes(d.take(VcpuSnapshot::BYTES)?)?);
        }
        let vmm_state = d.bytes()?;
        if !d.done() {
            return None;
        }
        Some(View {
            seq,
            vcpus,
            vmm_state,
            guest_mem,
        })
    }
}

fn write_header(e: &mut Enc, seq: u64, mem_len: usize) {
    e.raw(&MAGIC);
    e.u32(VERSION);
    e.u64(seq);
    e.u64(mem_len as u64);
}

/// Reads the fixed header: `(seq, image length)`.
fn read_header(d: &mut Dec) -> Option<(u64, usize)> {
    if d.take(MAGIC.len())? != MAGIC || d.u32()? != VERSION {
        return None;
    }
    let seq = d.u64()?;
    Some((seq, usize::try_from(d.u64()?).ok()?))
}

fn records_len(vcpus: usize, vmm_state: &[u8]) -> usize {
    4 + vcpus * VcpuSnapshot::BYTES + 4 + vmm_state.len()
}

fn write_records(e: &mut Enc, vcpus: &[VcpuSnapshot], vmm_state: &[u8]) {
    e.u32(vcpus.len() as u32);
    for v in vcpus {
        v.write_to(&mut e.buf);
    }
    e.bytes(vmm_state);
}

/// `(seq, image length)` of a blob that holds a whole guest image
/// behind a valid header; the records behind the image are not looked
/// at. This is what tells a blob [`refresh`] can update in place.
pub fn image_header(blob: &[u8]) -> Option<(u64, usize)> {
    let mut d = Dec::new(blob);
    let (seq, mem_len) = read_header(&mut d)?;
    d.take(mem_len)?;
    Some((seq, mem_len))
}

/// `true` if `blob` holds a guest image of `mem_len` bytes, which
/// [`refresh`] then updates in place; otherwise it starts from zeros.
pub fn holds_image(blob: &[u8], mem_len: usize) -> bool {
    image_header(blob).is_some_and(|(_, len)| len == mem_len)
}

/// Brings `blob` up to date in place as checkpoint `seq`: `sync`
/// updates the `mem_len`-byte guest image, then the sequence number is
/// patched and the records behind the image are rewritten. Afterwards
/// `blob` equals `Checkpoint { seq, vcpus, vmm_state, guest_mem }
/// .to_bytes()` for the image `sync` left behind.
///
/// A `blob` that does not already hold an image of `mem_len` bytes is
/// replaced by one of zeros first, so `sync` must then write every page
/// that is not all zeros; the caller — who keeps whatever `sync` knows
/// about the image's contents — checks with [`holds_image`] beforehand.
///
/// `sync` is the only step that can fail, and must leave the image
/// untouched when it does (returns `None`); `blob` is then exactly what
/// it was. Its `Some` value is passed through.
pub fn refresh<R>(
    blob: &mut Vec<u8>,
    seq: u64,
    mem_len: usize,
    vcpus: &[VcpuSnapshot],
    vmm_state: &[u8],
    sync: impl FnOnce(&mut [u8]) -> Option<R>,
) -> Option<R> {
    let end = MEM_OFFSET.checked_add(mem_len)?;
    let records = records_len(vcpus.len(), vmm_state);
    let holds_image = holds_image(blob, mem_len);
    let mut fresh = Vec::new();
    if !holds_image {
        let mut e = Enc::over(Vec::with_capacity(end + records + RECORD_SLACK));
        write_header(&mut e, seq, mem_len);
        e.buf.resize(end, 0);
        fresh = e.finish();
    }
    let image = if holds_image { &mut *blob } else { &mut fresh };
    let r = sync(image.get_mut(MEM_OFFSET..end)?)?;
    if !holds_image {
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

    fn sample() -> Checkpoint {
        let mut snap = VcpuSnapshot::from_bytes(&[0u8; VcpuSnapshot::BYTES]).unwrap();
        snap.regs.eip = 0x7c00;
        snap.halted = true;
        snap.blocked = true;
        Checkpoint {
            seq: 3,
            vcpus: vec![snap],
            vmm_state: vec![1, 2, 3, 4, 5],
            guest_mem: vec![0xaa; 8192],
        }
    }

    #[test]
    fn round_trips() {
        let c = sample();
        let b = c.to_bytes();
        assert_eq!(&b[..8], b"NOVACKPT");
        let d = Checkpoint::from_bytes(&b).unwrap();
        assert_eq!(d, c);
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(sample().to_bytes(), sample().to_bytes());
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
            e.raw(&v.to_bytes());
        }
        e.bytes(&c.vmm_state);
        e.u64(c.guest_mem.len() as u64);
        e.raw(&c.guest_mem);
        let v1 = e.finish();
        assert!(Checkpoint::from_bytes(&v1).is_none());
        assert!(image_header(&v1).is_none());
    }

    /// Versions 2 and 3 had this very framing and other words inside
    /// the device-state record (2: statistics; 3: the vAHCI's
    /// in-flight slot mask): refused by number, not misparsed.
    fn rejects_the_version(v: u32) {
        let mut old = sample().to_bytes();
        old[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&v.to_le_bytes());
        assert!(Checkpoint::from_bytes(&old).is_none());
        assert!(View::parse(&old).is_none());
        assert!(image_header(&old).is_none());
    }

    #[test]
    fn rejects_the_version_2_layout() {
        rejects_the_version(2);
    }

    #[test]
    fn rejects_the_version_3_layout() {
        rejects_the_version(3);
    }

    #[test]
    fn corrupt_vcpu_count_does_not_overallocate() {
        let c = sample();
        let mut b = c.to_bytes();
        // The vcpu count lives right behind the image.
        let at = MEM_OFFSET + c.guest_mem.len();
        b[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Checkpoint::from_bytes(&b).is_none());
    }

    /// Blobs a supervisor might hand to [`refresh`] that hold no image
    /// of `sample()`'s size.
    fn imageless_blobs() -> Vec<Vec<u8>> {
        let b = sample().to_bytes();
        let mut other_size = sample();
        other_size.guest_mem.truncate(4096);
        let mut v1 = b.clone();
        v1[8] = 1;
        vec![
            Vec::new(),
            b[..MEM_OFFSET + 100].to_vec(),
            other_size.to_bytes(),
            v1,
        ]
    }

    #[test]
    fn refresh_in_place_equals_a_from_scratch_encoding() {
        // The previous checkpoint: older seq, other records, one page
        // of the image behind.
        let mut prev = sample();
        prev.seq = 2;
        prev.vmm_state = vec![9; 40];
        prev.guest_mem[4096..].fill(0x11);
        let mut blob = prev.to_bytes();
        let (ptr, cap) = (blob.as_ptr(), blob.capacity());
        let c = sample();
        let r = refresh(&mut blob, c.seq, 8192, &c.vcpus, &c.vmm_state, |image| {
            image[4096..].fill(0xaa);
            Some(1)
        });
        assert_eq!(r, Some(1));
        assert_eq!(blob, c.to_bytes());
        assert_eq!((blob.as_ptr(), blob.capacity()), (ptr, cap), "in place");
    }

    #[test]
    fn refresh_replaces_a_blob_that_holds_no_such_image() {
        let c = sample();
        for mut blob in imageless_blobs() {
            let r = refresh(&mut blob, c.seq, 8192, &c.vcpus, &c.vmm_state, |image| {
                assert!(image.iter().all(|&b| b == 0), "a fresh image is zeros");
                image.fill(0xaa);
                Some(())
            });
            assert_eq!(r, Some(()));
            assert_eq!(blob, c.to_bytes());
        }
    }

    #[test]
    fn failed_sync_leaves_the_blob_untouched() {
        let c = sample();
        let mut blobs = imageless_blobs();
        blobs.push(c.to_bytes());
        for before in blobs {
            let mut blob = before.clone();
            let r = refresh(&mut blob, 9, 8192, &[], &[7; 64], |_| None::<()>);
            assert_eq!(r, None);
            assert_eq!(blob, before);
        }
    }

    #[test]
    fn growing_records_do_not_reallocate_a_fresh_image() {
        let c = sample();
        let mut blob = Vec::new();
        refresh(&mut blob, 1, 8192, &c.vcpus, &[], |_| Some(()));
        let (ptr, cap) = (blob.as_ptr(), blob.capacity());
        for n in [1usize, 64, 1024] {
            refresh(&mut blob, 2, 8192, &c.vcpus, &vec![5; n], |_| Some(()));
            assert_eq!((blob.as_ptr(), blob.capacity()), (ptr, cap));
        }
        // Past the slack it grows, and still encodes the same bytes.
        let big = vec![5; 3 * RECORD_SLACK];
        refresh(&mut blob, 3, 8192, &c.vcpus, &big, |_| Some(()));
        let expect = Checkpoint {
            seq: 3,
            vcpus: c.vcpus,
            vmm_state: big,
            guest_mem: vec![0; 8192],
        };
        assert_eq!(blob, expect.to_bytes());
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
    }
}
