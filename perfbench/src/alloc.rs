//! A counting global allocator (std only). Every allocation bumps a
//! counter slot owned by the allocating thread; a span reads the sum over
//! all slots when it opens and closes, so the allocations of helper
//! threads (the search's workers, the server's dispatchers) count too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counter slots; threads past this many share slots (still exact, only
/// slower).
const SLOTS: usize = 64;

/// One thread's counters, alone on its cache line so threads do not
/// contend.
#[repr(align(64))]
struct Slot {
    count: AtomicU64,
    bytes: AtomicU64,
}

static TABLE: [Slot; SLOTS] = [const {
    Slot {
        count: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator never allocates and never observes teardown.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The system allocator, counting allocations.
pub struct Counting;

#[inline]
fn note(size: usize) {
    let i = MY_SLOT.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
        }
        s.get()
    });
    // Statistics only: they publish no other data, so `Relaxed` suffices.
    TABLE[i].count.fetch_add(1, Ordering::Relaxed);
    TABLE[i].bytes.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only atomics and a const thread-local.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded contract of `GlobalAlloc::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes requested)` by every thread of the process so far.
pub fn process_counts() -> (u64, u64) {
    TABLE.iter().fold((0, 0), |(c, b), s| {
        (
            c + s.count.load(Ordering::Relaxed),
            b + s.bytes.load(Ordering::Relaxed),
        )
    })
}
