//! A T2 generation leaks nothing: after one warm-up generation, a tiny
//! `generate()` followed by dropping its result leaves the calling
//! thread's live heap bytes unchanged. (Every served job and every
//! `repro` run generates a design, so a per-call leak grows for the life
//! of the daemon.)
//!
//! This test binary links no other global allocator, so it declares a
//! counting one of its own.

use foldic_t2::T2Config;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the live bytes each thread allocated
/// (minus what it freed).
struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(delta: i64) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

// SAFETY: every method forwards to `System` with its caller's arguments,
// so `System`'s guarantees are the caller's; the counter only observes
// sizes and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` meets `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            count(layout.size() as i64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` meets `alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            count(layout.size() as i64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block `System` allocated with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller passes a block `System` allocated with
        // `layout` and a `new_size` that meets `realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            count(new_size as i64 - layout.size() as i64);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn generating_and_dropping_a_design_leaves_live_bytes_unchanged() {
    // warm-up: anything initialised once per process
    drop(T2Config::tiny().generate());
    let before = live_bytes();
    drop(T2Config::tiny().generate());
    assert_eq!(live_bytes() - before, 0, "live bytes after one generation");
}
