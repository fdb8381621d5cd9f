//! Counting global allocator: the peak live heap of a measured section,
//! without any /proc parsing (the same approach as the `scale` bench).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    pub const fn new() -> Self {
        CountingAlloc {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn on_alloc(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    /// Runs `f` and returns its result with the peak live heap above the
    /// level at entry, in bytes. The counters are statistics only, so
    /// `Relaxed` suffices; the benchmark calls this from one thread.
    pub fn peak_during<T>(&self, f: impl FnOnce() -> T) -> (T, usize) {
        let base = self.live.load(Ordering::Relaxed);
        self.peak.store(base, Ordering::Relaxed);
        let out = f();
        let peak = self.peak.load(Ordering::Relaxed);
        (out, peak.saturating_sub(base))
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the extra work only
// updates atomic counters and never touches the allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which obtained it from `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) };
        self.live.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            self.live.fetch_sub(layout.size(), Ordering::Relaxed);
            self.on_alloc(new_size);
        }
        p
    }
}
