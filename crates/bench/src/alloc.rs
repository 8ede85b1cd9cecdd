//! A counting global allocator: benches that report heap held install it
//! with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: streambal_bench::alloc::CountingAlloc = streambal_bench::alloc::CountingAlloc;
//! ```
//!
//! and read [`live_bytes`] before and after building the structure they
//! measure, [`reset_peak`] before an operation and [`peak_bytes`] after
//! it for the most it held at once, or [`allocated_bytes`] around it for
//! everything it asked for, freed or not. The count is of requested
//! sizes (`Layout::size`), so for a fixed operation sequence it is exact
//! and repeats run to run.
//!
//! [`large_frees`] and [`largest_free`] count the frees of blocks of at
//! least [`LARGE_BLOCK`] bytes since [`reset_large_frees`]: glibc mmaps
//! such a block, and freeing one raises its mmap threshold to that
//! block's size, so every later allocation below it lands in the brk
//! heap, which cannot shrink. A `realloc` is not counted: glibc moves an
//! mmapped block with `mremap`, which leaves the threshold alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Heap bytes currently allocated by this process.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The most heap bytes live at once since the last [`reset_peak`].
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Heap bytes ever allocated by this process, frees not subtracted.
static ALLOCATED_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Frees of blocks of at least [`LARGE_BLOCK`] bytes since the last
/// [`reset_large_frees`], and the largest of them.
static LARGE_FREES: AtomicUsize = AtomicUsize::new(0);
static LARGEST_FREE: AtomicUsize = AtomicUsize::new(0);

/// glibc's default mmap threshold: the smallest block it mmaps.
pub const LARGE_BLOCK: usize = 128 * 1024;

/// Heap bytes currently allocated through [`CountingAlloc`].
pub fn live_bytes() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// The most heap bytes live at once since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Heap bytes ever allocated through [`CountingAlloc`]; a `realloc`
/// counts the bytes it grew by.
pub fn allocated_bytes() -> usize {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// Restarts [`peak_bytes`] from the bytes live now.
pub fn reset_peak() {
    PEAK_BYTES.store(live_bytes(), Ordering::Relaxed);
}

/// Frees of blocks of at least [`LARGE_BLOCK`] bytes since the last
/// [`reset_large_frees`].
pub fn large_frees() -> usize {
    LARGE_FREES.load(Ordering::Relaxed)
}

/// The largest block freed since the last [`reset_large_frees`], if it
/// was at least [`LARGE_BLOCK`] bytes; 0 otherwise.
pub fn largest_free() -> usize {
    LARGEST_FREE.load(Ordering::Relaxed)
}

/// Restarts [`large_frees`] and [`largest_free`] from zero.
pub fn reset_large_frees() {
    LARGE_FREES.store(0, Ordering::Relaxed);
    LARGEST_FREE.store(0, Ordering::Relaxed);
}

/// Adds `bytes` to the live and allocated counts and raises the peak to
/// the live count. The peak is read before it is written, so an
/// allocation below it costs no write to the shared line.
fn grow(bytes: usize) {
    ALLOCATED_BYTES.fetch_add(bytes, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK_BYTES.load(Ordering::Relaxed) {
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

/// Forwards to [`System`] and keeps [`live_bytes`], [`peak_bytes`],
/// [`allocated_bytes`] and the large-free counts current.
pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a statistic on the side.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the trait's contract for `alloc`, taken over as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass straight through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    // SAFETY: the trait's contract for `dealloc`, taken over as is.
    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        if layout.size() >= LARGE_BLOCK {
            LARGE_FREES.fetch_add(1, Ordering::Relaxed);
            LARGEST_FREE.fetch_max(layout.size(), Ordering::Relaxed);
        }
        // SAFETY: `p` was returned by `alloc`/`realloc` above, i.e. by
        // `System`, with this `layout`.
        unsafe { System.dealloc(p, layout) }
    }

    // SAFETY: the trait's contract for `realloc`, taken over as is.
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grow(more),
                None => {
                    LIVE_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
                }
            }
        }
        q
    }
}
