//! Opt-in heap accounting: a counting [`GlobalAlloc`] wrapper around
//! the system allocator, feeding allocation count/bytes/peak into the
//! hierarchical span profiler.
//!
//! The wrapper is *installed* per binary — a library crate must never
//! claim `#[global_allocator]` — via
//! [`install_counting_allocator!`](crate::install_counting_allocator!):
//!
//! ```ignore
//! graphrare_telemetry::install_counting_allocator!();
//! ```
//!
//! Binaries that do not install it see all-zero counters; nothing else
//! changes. The bookkeeping is four relaxed atomics (no thread-locals:
//! lazy TLS initialisation may itself allocate, which would recurse
//! into the allocator), so counting is cheap, allocation-order
//! insensitive, and — crucially for the telemetry contract — has no
//! effect on any computed numeric result.
//!
//! **Attribution caveat**: the counters are process-wide. The span
//! profiler attributes the *delta* observed between a span's start and
//! end to that span's path, which over-attributes allocations made by
//! concurrent threads during the span. For the repro's mostly
//! single-threaded driver loop this is exact; under the parallel
//! kernels it is an upper bound. Peaks are attributed to a path when a
//! new process-wide live-heap peak was *set* while a span at that path
//! was active.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
// Live bytes can go negative transiently if blocks allocated before the
// wrapper was active are freed through it; signed arithmetic keeps the
// peak computation from wrapping.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// A `GlobalAlloc` that forwards to [`System`] and counts.
pub struct CountingAlloc;

impl CountingAlloc {
    /// Const constructor for the `#[global_allocator]` static.
    pub const fn new() -> Self {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    if live > 0 {
        PEAK.fetch_max(live as u64, Relaxed);
    }
}

fn on_dealloc(size: usize) {
    LIVE.fetch_sub(size as i64, Relaxed);
}

// SAFETY: all methods forward verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping around the calls never
// allocates and never panics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Count a realloc as one allocation of the new size and a
            // free of the old; grows and shrinks both update live bytes.
            on_alloc(new_size);
            on_dealloc(layout.size());
        }
        p
    }
}

/// Point-in-time allocator counters (all zero when the counting
/// allocator is not installed in this binary).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Cumulative number of allocations.
    pub count: u64,
    /// Cumulative bytes requested.
    pub bytes: u64,
    /// High-water mark of live heap bytes.
    pub peak_bytes: u64,
}

/// Reads the current counters (relaxed; consistent enough for
/// attribution, not a synchronisation point).
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        count: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_bytes: PEAK.load(Relaxed),
    }
}

/// Whether the counting allocator is live in this binary. Any Rust
/// process allocates long before user code runs, so a zero allocation
/// count reliably means the wrapper was never installed.
pub fn active() -> bool {
    ALLOCS.load(Relaxed) != 0
}

/// Renders the allocator delta since `base` as a JSON value for the
/// `"alloc"` key of a `BENCH_*.json` report: an object with
/// `count`/`bytes`/`peak_bytes` when the counting allocator is live, and
/// the literal `null` when it was never installed — all-zero counts
/// would be indistinguishable from a genuinely allocation-free run.
/// Consumers (`graphrare-trace`, `telemetry_lint`) accept both forms.
pub fn delta_json(base: &AllocSnapshot) -> String {
    render_delta_json(active(), &snapshot(), base)
}

fn render_delta_json(active: bool, now: &AllocSnapshot, base: &AllocSnapshot) -> String {
    if !active {
        return "null".to_string();
    }
    format!(
        "{{\"count\": {}, \"bytes\": {}, \"peak_bytes\": {}}}",
        now.count.saturating_sub(base.count),
        now.bytes.saturating_sub(base.bytes),
        now.peak_bytes
    )
}

/// Installs [`CountingAlloc`] as the binary's `#[global_allocator]`.
/// Invoke once, at the crate root of a *binary* (or integration-test)
/// crate.
#[macro_export]
macro_rules! install_counting_allocator {
    () => {
        #[global_allocator]
        static GRAPHRARE_COUNTING_ALLOC: $crate::alloc::CountingAlloc =
            $crate::alloc::CountingAlloc::new();
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The telemetry unit-test binary does not install the wrapper, so
    // this test drives the bookkeeping directly. One test only: the
    // counters are process-global and tests run concurrently.
    #[test]
    fn bookkeeping_tracks_count_bytes_and_peak_without_wrapping() {
        let before = snapshot();
        on_alloc(1_000);
        on_alloc(24);
        on_dealloc(1_000);
        let after = snapshot();
        assert_eq!(after.count - before.count, 2);
        assert_eq!(after.bytes - before.bytes, 1_024);
        assert!(after.peak_bytes >= 1_000);

        // A block allocated before the wrapper was active is freed
        // through it: live goes negative, and the peak must not wrap to
        // ~u64::MAX when the next allocation lands.
        on_dealloc(1 << 40);
        on_alloc(8);
        let peak = snapshot().peak_bytes;
        assert!(peak < (1 << 39), "negative live heap wrapped into the peak: {peak}");
        // Restore the live balance for the rest of the binary.
        on_alloc(1 << 40);
        on_dealloc(8);
    }

    // Drives the renderer directly (not the globals): whether `active()`
    // is true here depends on test interleaving with the bookkeeping
    // test above.
    #[test]
    fn delta_json_is_null_without_the_allocator_and_an_object_with_it() {
        let base = AllocSnapshot { count: 10, bytes: 100, peak_bytes: 50 };
        let now = AllocSnapshot { count: 25, bytes: 4_196, peak_bytes: 96 };
        assert_eq!(render_delta_json(false, &now, &base), "null");
        assert_eq!(
            render_delta_json(true, &now, &base),
            "{\"count\": 15, \"bytes\": 4096, \"peak_bytes\": 96}"
        );
        // A stale base (counters reset) must not wrap.
        assert_eq!(
            render_delta_json(true, &base, &now),
            "{\"count\": 0, \"bytes\": 0, \"peak_bytes\": 50}"
        );
    }
}
