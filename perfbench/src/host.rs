//! Host-side probes: thread on-CPU time, machine steal time, peak
//! resident memory, a counting allocator and a calibration kernel.
//!
//! Every timing the benchmark gates on is on-CPU time of the replay
//! thread, not wall time: on a shared machine wall time also counts the
//! periods the thread was runnable but not running.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `USER_HZ`, the unit of `/proc/stat`; fixed at 100 by the Linux ABI.
const PROC_STAT_TICKS_PER_S: f64 = 100.0;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Nanoseconds this thread has spent on a CPU.
///
/// This is the scheduler's per-thread runtime, the first field of
/// `/proc/thread-self/schedstat`. That file only brings the running
/// thread's figure up to date at a scheduler tick (every 4 ms at
/// `HZ=250`), so the same counter is read through `clock_gettime`, which updates it
/// first and so resolves nanoseconds.
///
/// # Panics
///
/// Panics if the thread CPU clock is unavailable.
#[must_use]
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID is available");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Seconds of machine-wide steal time so far (`/proc/stat`, `cpu` line).
///
/// # Panics
///
/// Panics when `/proc/stat` is unreadable or malformed.
#[must_use]
pub fn steal_s() -> f64 {
    let text = std::fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
    let line = text.lines().next().expect("/proc/stat has a cpu line");
    // cpu user nice system idle iowait irq softirq steal ...
    let steal: u64 = line
        .split_whitespace()
        .nth(8)
        .and_then(|f| f.parse().ok())
        .expect("/proc/stat cpu line has a steal field");
    steal as f64 / PROC_STAT_TICKS_PER_S
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
///
/// # Panics
///
/// Panics when `/proc/self/status` is unreadable or has no `VmHWM`.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("/proc/self/status reports VmHWM in kB");
    kib as f64 / 1024.0
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Heap allocation calls (`alloc`, `alloc_zeroed`, `realloc`) made by
/// this process so far.
#[must_use]
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The system allocator with a call counter in front of it.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic
// that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's guarantees for `dealloc` are passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// On-CPU nanoseconds per step of a fixed kernel: a xorshift stream that
/// updates a 4 MiB table at random offsets (integer ALU plus cache and
/// TLB misses, like the simulator's map lookups). The best of five
/// repetitions is reported, so numbers compare across machines.
#[must_use]
pub fn calibration_ns() -> f64 {
    const STEPS: u64 = 2_000_000;
    let mut table = vec![0u64; 1 << 19];
    let mask = table.len() as u64 - 1;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let t0 = thread_cpu_ns();
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut table[(x & mask) as usize];
            *slot = slot.wrapping_add(x);
        }
        let ns = (thread_cpu_ns() - t0) as f64 / STEPS as f64;
        std::hint::black_box(&table);
        best = best.min(ns);
    }
    best
}
