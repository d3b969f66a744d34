//! User thread control blocks and IPC message formats.
//!
//! Messages are a bounded array of untyped words plus optional typed
//! *transfer items* that delegate memory during a call (Section 6),
//! into the receive window of the portal called. For VM-exit messages
//! the UTCB carries the guest state selected by the portal's message
//! transfer descriptor — the optimization of Section 5.2 that minimizes
//! VMREADs.

use nova_hw::vmx::{ExitReason, Injection};
use nova_x86::reg::Regs;

use crate::obj::MemRights;

/// Maximum untyped words per message. Sized so a full disk batch —
/// [`MAX_BATCH`](../../nova_user/proto/disk/constant.MAX_BATCH.html)
/// single-segment entries of 8 words (op, lba, sectors, tag, trace
/// context, segment count, segment address/length) plus the count word
/// — fits in one UTCB with room to spare. Real NOVA UTCBs
/// carry up to a page of untyped words; the cost model charges per
/// word actually sent, so the cap is a safety bound, not a tax.
pub const MAX_WORDS: usize = 128;

/// A typed item: memory pages delegated during a call — `count` pages
/// starting at sender page number `base`, appearing at page `hot` of
/// the called portal's receive window onward (the receiver picks where
/// the window lies, the sender only where in it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XferItem {
    /// Sender page number.
    pub base: u64,
    /// Number of pages.
    pub count: u64,
    /// Rights ceiling for the delegation.
    pub rights: MemRights,
    /// Page offset inside the receive window.
    pub hot: u64,
}

/// Guest-state message for VM-exit portals. `mtd` marks which field
/// groups were actually transferred (and paid for with VMREADs).
#[derive(Clone, Debug)]
pub struct VmExitMsg {
    /// Field groups present (see [`nova_hw::vmx::mtd`]).
    pub mtd: u32,
    /// The exit that produced this message.
    pub reason: ExitReason,
    /// Guest register state (fields outside `mtd` are stale).
    pub regs: Regs,
    /// Guest interruptibility: IF set and not in an STI shadow.
    pub window_open: bool,
    /// Guest halted (activity state).
    pub halted: bool,

    // ---- Reply fields written by the VMM ----
    /// Field groups the VMM modified and wants written back.
    pub reply_mtd: u32,
    /// Event to inject on the next entry.
    pub reply_inject: Option<Injection>,
    /// Request an interrupt-window exit.
    pub reply_intwin: bool,
    /// Block the vCPU (it halted; a later resume unblocks it).
    pub reply_block: bool,
}

/// The message area of an execution context.
#[derive(Clone, Debug, Default)]
pub struct Utcb {
    /// Untyped message words.
    pub msg: Vec<u64>,
    /// Typed transfer items (delegations performed by the kernel
    /// during the IPC).
    pub xfer: Vec<XferItem>,
    /// VM-exit payload, when the message is a VM-exit.
    pub vm: Option<VmExitMsg>,
}

impl Utcb {
    /// An empty UTCB.
    pub fn new() -> Utcb {
        Utcb::default()
    }

    /// Clears all message content.
    pub fn clear(&mut self) {
        self.msg.clear();
        self.xfer.clear();
        self.vm = None;
    }

    /// Sets the untyped words (truncated to [`MAX_WORDS`]).
    pub fn set_msg(&mut self, words: &[u64]) {
        self.msg.clear();
        self.msg
            .extend_from_slice(&words[..words.len().min(MAX_WORDS)]);
    }

    /// Word accessor with default 0.
    pub fn word(&self, i: usize) -> u64 {
        self.msg.get(i).copied().unwrap_or(0)
    }

    /// Total words (payload size used for per-word IPC cost).
    pub fn len_words(&self) -> usize {
        self.msg.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_roundtrip_and_bounds() {
        let mut u = Utcb::new();
        u.set_msg(&[1, 2, 3]);
        assert_eq!(u.word(0), 1);
        assert_eq!(u.word(2), 3);
        assert_eq!(u.word(3), 0);
        assert_eq!(u.len_words(), 3);

        let big: Vec<u64> = (0..2 * MAX_WORDS as u64).collect();
        u.set_msg(&big);
        assert_eq!(u.len_words(), MAX_WORDS);

        // A full disk batch — the count and 8 entries of 8 words — fits
        // without truncation.
        let batch = vec![0u64; 1 + 8 * 8];
        u.set_msg(&batch);
        assert_eq!(u.len_words(), 65);
    }

    #[test]
    fn clear_resets() {
        let mut u = Utcb::new();
        u.set_msg(&[7]);
        u.xfer.push(XferItem {
            base: 0x60,
            count: 1,
            rights: MemRights::RW,
            hot: 0,
        });
        u.vm = Some(VmExitMsg {
            mtd: 0,
            reason: ExitReason::Hlt { len: 1 },
            regs: Regs::default(),
            window_open: false,
            halted: false,
            reply_mtd: 0,
            reply_inject: None,
            reply_intwin: false,
            reply_block: false,
        });
        u.clear();
        assert_eq!(u.len_words(), 0);
        assert!(u.xfer.is_empty());
        assert!(u.vm.is_none());
    }
}
