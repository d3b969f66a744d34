//! Measurement primitives shared by every workload and every layer
//! microbenchmark: the counting allocator, host-time spans, the
//! fastest-of-N statistic, the one `time_op` loop, the calibration
//! loop and the peak-RSS probe.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts heap allocations made by this process, so a run's
/// allocation count and volume can be read from outside the code
/// under test.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// layout and pointer; the counters are statistics and publish nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(l.size() as u64, Ordering::Relaxed);
        // SAFETY: `l` is the caller's layout, passed through unchanged.
        unsafe { System.alloc(l) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(l.size() as u64, Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new as u64, Ordering::Relaxed);
        // SAFETY: `p` was returned by `System` for layout `l`.
        unsafe { System.realloc(p, l, new) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: `p` was returned by `System` for layout `l`.
        unsafe { System.dealloc(p, l) }
    }
}

/// `(allocations, bytes)` requested by this process so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Tells glibc's allocator to keep freed memory instead of handing it
/// back to the kernel: blocks below 32 MB (the largest threshold glibc
/// takes — every checkpoint buffer, not the 96 MB machine RAM) come
/// from the heap rather than a fresh `mmap`, and the heap is never
/// trimmed. After the first repetition a large allocation then costs
/// no page faults. Those faults are the host kernel's time, not the
/// repository's, and on a shared box they were 40 % of `recover`'s run
/// and nearly all of its run-to-run spread. A no-op off glibc.
pub fn keep_freed_memory() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only stores two tunables of the allocator;
        // called once, before any other thread exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
        }
    }
}

/// One host-time span around a call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name (`guest.build`, `System.run`, …).
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

/// In-memory span recorder: the benchmark's only stopwatch. Every
/// host-time metric of a repetition is read back from these spans.
pub struct Spans {
    origin: Instant,
    open: Vec<usize>,
    /// Recorded spans, in start order.
    pub spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        // Room for a repetition's spans up front: recording one inside
        // a counted region must not allocate.
        Spans {
            origin: Instant::now(),
            open: Vec::with_capacity(8),
            spans: Vec::with_capacity(32),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, nested in whichever span
    /// is open.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        r
    }

    /// Summed duration of every span called `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }
}

/// Order statistics of one host-time sample set. Host interference
/// only ever adds time, so the fastest sample (`best`) is the
/// estimator; the quartiles say how noisy the spell was.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Fastest sample.
    pub best: f64,
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub med: f64,
    /// Third quartile.
    pub p75: f64,
    /// Sample count.
    pub n: usize,
}

impl Stats {
    /// The same statistics in another unit.
    pub fn scaled(self, k: f64) -> Stats {
        Stats {
            best: self.best * k,
            p25: self.p25 * k,
            med: self.med * k,
            p75: self.p75 * k,
            n: self.n,
        }
    }

    /// Times turned into rates by the decreasing function `f`: the
    /// fastest time is the best rate and the quartiles trade places.
    pub fn rate(self, f: impl Fn(f64) -> f64) -> Stats {
        Stats {
            best: f(self.best),
            p25: f(self.p75),
            med: f(self.med),
            p75: f(self.p25),
            n: self.n,
        }
    }
}

/// Order statistics of `samples` (nearest-rank quartiles).
pub fn stats(samples: &[f64]) -> Stats {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: usize| v.get((v.len().saturating_sub(1)) * q / 4).copied();
    Stats {
        best: at(0).unwrap_or(f64::NAN),
        p25: at(1).unwrap_or(f64::NAN),
        med: at(2).unwrap_or(f64::NAN),
        p75: at(3).unwrap_or(f64::NAN),
        n: v.len(),
    }
}

/// Times `op` in batches of `iters` calls until `budget_ms` of host
/// time is spent (at least three batches) and returns ns per call.
pub fn time_op(iters: u64, budget_ms: u64, mut op: impl FnMut()) -> Stats {
    for _ in 0..iters.min(1000) {
        op();
    }
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed().as_millis() < budget_ms as u128 {
        let t0 = Instant::now();
        for _ in 0..iters {
            op();
        }
        samples.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    stats(&samples)
}

/// The machine-speed witness: a fixed integer/table loop whose time
/// depends on nothing in the repository. Returns ns per pass.
pub fn calib_ns() -> f64 {
    let mut table = [0u32; 4096];
    let mut x = 0x9e37_79b9u32;
    let t0 = Instant::now();
    for i in 0..2_000_000u32 {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let slot = &mut table[(x as usize) & 4095];
        *slot = slot.wrapping_add(x ^ i);
    }
    black_box(&table);
    t0.elapsed().as_nanos() as f64
}

/// Resets the kernel's peak-RSS watermark to the current RSS, so the
/// next [`peak_rss_mb`] covers only what ran in between. Best effort:
/// where `/proc` is read-only the watermark stays process-wide.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) in MB, or NaN off Linux.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's only source of seeded choices.
pub struct Rng(pub u64);

impl Rng {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value below `n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The benchmark's correctness tally: operations and end-state checks
/// attempted, how many failed, and why.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Operations and checks made.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
    }

    /// Records `want` operations of which `done` completed.
    pub fn operations(&mut self, want: u64, done: u64, what: &str) {
        self.attempted += want;
        if done < want {
            self.failed += want - done;
            self.failures.push(format!("{done} of {want} {what}"));
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures.iter().cloned());
    }
}
