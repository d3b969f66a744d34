//! IPC protocol definitions shared by the user-level services and
//! their clients (each service exposes portals; clients hold portal
//! capabilities delegated by the root partition manager).

pub mod disk {
    //! Disk-server protocol.
    //!
    //! A client is a channel, not a caller's claim: root wires VMM slot `s`
    //! as two clients, `2·s` (the vAHCI, through a [`PORTAL_REQUEST`]
    //! portal at [`CLIENT_SEL_REQ`]) and `2·s + 1` (the PV queue, if the VM
    //! has one, through a [`PORTAL_BATCH`] portal at [`CLIENT_SEL_BATCH`]).
    //! Each portal is the
    //! server's, created for that one client with id
    //! [`portal_id`]`(client, kind)`, so the server learns who called from
    //! the id the kernel hands it and reads no client number from the
    //! message. Each portal's receive window is the guest part of the
    //! client's window in the server's space ([`window_base`], the pages
    //! below [`RING_WINDOW_PAGE`]): a typed item's `hot` is a page of it,
    //! and the kernel refuses an item outside it before the server runs.
    //! Root also maps the VM's completion ring for the channel at
    //! [`RING_WINDOW_PAGE`] and hands the server `UP` on the VM's
    //! completion semaphore at [`client_sm_sel`]. Nothing is registered,
    //! and the VMM names no page or selector of the server.

    /// Portal kind: request submission. Message words:
    /// `[op, lba, sectors, tag, ctx, nsegs, (addr, bytes) × nsegs]` — a
    /// scatter-gather list of up to [`MAX_SEGMENTS`] segments. Each
    /// `addr` is a guest-physical byte address, i.e. a byte offset into
    /// the caller's window (unaligned buffers carry their in-page
    /// offset), `bytes` its length; the lengths must sum to
    /// `sectors * 512`, and a segment that does not end below
    /// [`RING_WINDOW_PAGE`] is [`EINVAL`]. `ctx` is the request's causal
    /// trace context (0 = none): the server runs the request's work —
    /// accepting, programming the device, completing — under it so its
    /// trace spans stitch into the originating request's tree. Transfer items delegate the
    /// DMA buffer pages covering every segment. Reply word 0: status
    /// ([`OK`] or [`EBUSY`]).
    pub const PORTAL_REQUEST: u64 = 2;

    /// Portal kind: batched request submission — the one-exit-per-batch
    /// path behind the paravirtual ring. Message words:
    /// `[count, (op, lba, sectors, tag, ctx, nsegs, (addr, bytes) ×
    /// nsegs) × count]`, each entry shaped exactly like a
    /// [`PORTAL_REQUEST`] body (each entry carries its own trace
    /// context). Entries are accepted in order; reply words:
    /// `[status, accepted]` where entries `0..accepted` were accepted
    /// and `status` is [`OK`] when all were, otherwise the reason entry
    /// `accepted` was refused ([`EBUSY`] or [`EINVAL`]).
    pub const PORTAL_BATCH: u64 = 3;

    /// The id of client `client`'s portal of kind `kind`
    /// ([`PORTAL_REQUEST`] or [`PORTAL_BATCH`]): the client above the
    /// low byte, as a VMM's exit portals carry the vCPU.
    pub const fn portal_id(client: usize, kind: u64) -> u64 {
        (client as u64) << 8 | kind
    }

    /// A VMM slot's two channels, in client order: the portal kind and
    /// the selector the VMM finds it at.
    pub const CHANNELS: [(u64, usize); 2] = [
        (PORTAL_REQUEST, CLIENT_SEL_REQ),
        (PORTAL_BATCH, CLIENT_SEL_BATCH),
    ];

    /// The clients of VMM slot `slot`, one per entry of [`CHANNELS`].
    pub const fn slot_clients(slot: usize) -> std::ops::Range<usize> {
        2 * slot..2 * slot + 2
    }

    /// Read operation.
    pub const OP_READ: u64 = 1;
    /// Write operation.
    pub const OP_WRITE: u64 = 2;

    /// Request accepted / completed fine.
    pub const OK: u64 = 0;
    /// Too many outstanding requests (client throttled — the
    /// denial-of-service countermeasure of Section 4.2).
    pub const EBUSY: u64 = 1;
    /// Malformed request.
    pub const EINVAL: u64 = 2;

    /// Completion-ring layout: a page of 16-byte records
    /// `[tag, status, bytes, _]` (u32 each), with a producer counter in
    /// the last dword of the page.
    pub const RING_RECORDS: usize = 254;

    /// Maximum requests a client may have outstanding before EBUSY.
    pub const MAX_OUTSTANDING: usize = 8;

    /// Maximum scatter-gather segments per request (bounds the
    /// server's PRDT against a hostile client and keeps a batch of
    /// single-segment requests inside one UTCB).
    pub const MAX_SEGMENTS: usize = 8;

    /// Maximum entries in one [`PORTAL_BATCH`] submission (one batch
    /// fills the outstanding budget exactly).
    pub const MAX_BATCH: usize = MAX_OUTSTANDING;

    /// Maximum sectors per request (bounds the server's PRDT math
    /// against arithmetic overflow from a hostile client).
    pub const MAX_SECTORS: u64 = 1024;

    /// Clients per server instance: eight VMM slots of two channels.
    pub const MAX_CLIENTS: usize = 16;

    /// Pages in one client's window (128 MB): guest RAM below the ring
    /// page, so a client with this much memory or more to hand the
    /// server is a configuration error.
    pub const WINDOW_PAGES: u64 = 0x8000;

    /// The window page where root maps the client's completion ring,
    /// just past the receive window of the client's portal.
    pub const RING_WINDOW_PAGE: u64 = WINDOW_PAGES - 1;

    /// First page of client `client`'s window in the server's space:
    /// the receive window of the client's portal.
    pub const fn window_base(client: usize) -> u64 {
        0x4_0000 + client as u64 * WINDOW_PAGES
    }

    // Every window lies below the controller's register page, and so
    // below the `MemSpace` radix directory's 2^24 pages.
    const _: () = assert!(window_base(MAX_CLIENTS) <= nova_hw::machine::AHCI_BASE / 4096);

    /// Selector in the server's space of client `client`'s `UP`
    /// capability for its VM's completion semaphore.
    pub const fn client_sm_sel(client: usize) -> usize {
        0x80 + client
    }

    /// Completion-ring status: the request failed at the device (task
    /// file error) and exhausted the server's retry budget.
    pub const STATUS_ERROR: u32 = 1;

    /// Selector where a VMM finds its vAHCI channel's request portal
    /// (delegated by root at wiring and again after every supervised
    /// restart).
    pub const CLIENT_SEL_REQ: usize = 0x45;
    /// Selector where a VMM finds its PV channel's batch portal
    /// ([`PORTAL_BATCH`]).
    pub const CLIENT_SEL_BATCH: usize = 0x46;
    /// Selector where a VMM finds `DOWN` on its VM's completion
    /// semaphore, which the server signals for both channels.
    pub const CLIENT_SEL_DONE: usize = 0x41;
    /// Selector where a VMM of a supervised server finds `DOWN` on the
    /// semaphore root signals after every respawn of the server.
    pub const CLIENT_SEL_RESTART: usize = 0x42;
}

/// Log-service protocol.
pub mod log {
    /// Portal id: write bytes. Message words: one byte per word.
    /// Reply word 0: bytes written.
    pub const PORTAL_WRITE: u64 = 1;
}
