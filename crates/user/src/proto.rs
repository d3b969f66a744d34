//! IPC protocol definitions shared by the user-level services and
//! their clients (each service exposes portals; clients hold portal
//! capabilities delegated by the root partition manager).

/// Disk-server protocol.
pub mod disk {
    /// Portal id: channel registration. Phase 1 — no words — replies
    /// the client id (`u64::MAX`: server full). Phase 2 — word 0 the id
    /// — carries transfer items delegating (a) one completion-ring page
    /// RW at [`ring_page`] and (b) an UP capability for the client's
    /// completion semaphore at [`client_sm_sel`]; reply [`OK`].
    pub const PORTAL_REGISTER: u64 = 1;

    /// Portal id: request submission. Message words:
    /// `[client, op, lba, sectors, tag, ctx, nsegs, (addr, bytes) ×
    /// nsegs]` — a scatter-gather list of up to [`MAX_SEGMENTS`]
    /// segments. Each `addr` is a byte address in the client's window
    /// ([`window_base`]; unaligned guest buffers carry their in-page
    /// offset), `bytes` its length; the lengths must sum to
    /// `sectors * 512`, and a segment outside the window is [`EINVAL`].
    /// `ctx` is the request's causal trace context (0 = none): the
    /// server runs the request's accept/issue/complete work under it
    /// so its trace spans stitch into the originating request's tree.
    /// Transfer items delegate the DMA buffer pages covering every
    /// segment. Reply word 0: status ([`OK`] or [`EBUSY`]).
    pub const PORTAL_REQUEST: u64 = 2;

    /// Portal id: batched request submission — the one-exit-per-batch
    /// path behind the paravirtual ring. Message words:
    /// `[client, count, (op, lba, sectors, tag, ctx, nsegs,
    /// (addr, bytes) × nsegs) × count]`, each entry shaped exactly
    /// like a [`PORTAL_REQUEST`] body (each entry carries its own
    /// trace context). Entries are accepted in order; reply words:
    /// `[status, accepted]` where entries `0..accepted` were accepted
    /// and `status` is [`OK`] when all were, otherwise the reason
    /// entry `accepted` was refused ([`EBUSY`] or [`EINVAL`]).
    pub const PORTAL_BATCH: u64 = 3;

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

    /// Maximum registered clients per server instance (bounds channel
    /// state a client population can make the server allocate).
    pub const MAX_CLIENTS: usize = 16;

    /// Pages in one client's DMA window (128 MB): a client with more
    /// memory than this to hand the server is a configuration error.
    pub const WINDOW_PAGES: u64 = 0x8000;

    /// First page of client `client`'s window in the server's space: the
    /// client delegates its buffer page `p` at `window_base(client) + p`,
    /// and the server refuses any segment outside its requester's window.
    pub const fn window_base(client: usize) -> u64 {
        0x4_0000 + client as u64 * WINDOW_PAGES
    }

    // Every window lies below the controller's register page, and so
    // below the `MemSpace` radix directory's 2^24 pages.
    const _: () = assert!(window_base(MAX_CLIENTS) <= nova_hw::machine::AHCI_BASE / 4096);

    /// The server page where client `client` delegates its completion
    /// ring.
    pub const fn ring_page(client: usize) -> u64 {
        0x200 + client as u64
    }

    /// Selector where client `client` delegates its completion
    /// semaphore's capability.
    pub const fn client_sm_sel(client: usize) -> usize {
        0x80 + client
    }

    /// Completion-ring status: the request failed at the device (task
    /// file error) and exhausted the server's retry budget.
    pub const STATUS_ERROR: u32 = 1;

    /// Selector where a client finds the registration portal
    /// capability (delegated by the server at launch and again after
    /// every supervised restart).
    pub const CLIENT_SEL_REG: usize = 0x44;
    /// Selector where a client finds the request portal capability.
    pub const CLIENT_SEL_REQ: usize = 0x45;
    /// Selector where a client finds the batch-submission portal
    /// capability ([`PORTAL_BATCH`]).
    pub const CLIENT_SEL_BATCH: usize = 0x46;
}

/// Log-service protocol.
pub mod log {
    /// Portal id: write bytes. Message words: one byte per word.
    /// Reply word 0: bytes written.
    pub const PORTAL_WRITE: u64 = 1;
}
