//! Host-side probes: a counting global allocator, `/proc` readers and the
//! calibration kernel that host times are divided by.
//!
//! This is the one module of the benchmark that uses `unsafe` (forwarding
//! the `GlobalAlloc` calls).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;

/// Allocation counters of the current thread.
///
/// The benchmark is single threaded, so per-thread cells count everything
/// it does without the locked read-modify-write an atomic would put on
/// every allocation of the measured run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes currently allocated and not yet freed.
    pub live: u64,
    /// High-water mark of `live` since [`reset_peak_live`].
    pub peak_live: u64,
}

thread_local! {
    // `const` initialisers and no destructors: touching these cells from
    // inside the allocator neither allocates nor runs after TLS teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK_LIVE: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator with per-thread counters in front of it.
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn note_alloc(size: usize) {
    // `try_with` because the allocator may be called while the thread is
    // being torn down; a missed count there is harmless.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
    let _ = LIVE.try_with(|live| {
        let now = live.get() + size as u64;
        live.set(now);
        let _ = PEAK_LIVE.try_with(|peak| {
            if now > peak.get() {
                peak.set(now);
            }
        });
    });
}

fn note_free(size: usize) {
    // Saturating: memory allocated on another thread may be freed here.
    let _ = LIVE.try_with(|c| c.set(c.get().saturating_sub(size as u64)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain thread-local
// integers and never touch the memory being managed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_free(layout.size());
        note_alloc(new_size);
        // SAFETY: `ptr` was returned by `System` for `layout`, and the
        // caller guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// The calling thread's allocation counters.
pub fn alloc_counts() -> AllocCounts {
    AllocCounts {
        allocs: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
        live: LIVE.with(Cell::get),
        peak_live: PEAK_LIVE.with(Cell::get),
    }
}

/// Restarts the live-bytes high-water mark from the current live size.
pub fn reset_peak_live() {
    PEAK_LIVE.with(|peak| peak.set(LIVE.with(Cell::get)));
}

/// Parses `VmHWM:   123 kB`-style lines of `/proc/<pid>/status`.
fn status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        line.strip_prefix(key)?
            .strip_prefix(':')?
            .trim()
            .strip_suffix("kB")?
            .trim()
            .parse()
            .ok()
    })
}

/// Peak resident set size of this process in KiB (`VmHWM`).
pub fn vm_hwm_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status_kib(&status, "VmHWM").ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Parses the minor-fault count (field 10) out of one `/proc/<pid>/stat`
/// line.  The command name (field 2) is in parentheses and may itself
/// contain spaces and parentheses, so fields are counted from the last `)`.
fn parse_minor_faults(line: &str) -> Option<u64> {
    let rest = &line[line.rfind(')')? + 1..];
    // `rest` starts at field 3 (state).
    rest.split_whitespace().nth(10 - 3)?.parse().ok()
}

/// Minor page faults of this process so far (first touches of a page that
/// needed no I/O), from `/proc/self/stat`.
pub fn minor_faults() -> Result<u64, String> {
    let line = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    parse_minor_faults(&line).ok_or_else(|| "malformed /proc/self/stat".to_string())
}

/// Parses the first field of a `schedstat` file: nanoseconds the task has
/// spent on a CPU.
fn parse_on_cpu_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// Seconds the calling thread has spent on a CPU so far, from
/// `/proc/thread-self/schedstat`.
///
/// Every host time the benchmark bounds is read on this clock, not on the
/// wall: the benchmark runs on one thread, so the two differ by exactly the
/// time the host gave the core to someone else (steal, preemption), which
/// on a busy host stretched a 0.24 s calibration pass to anything between
/// 0.5 and 1.6 s of wall time.
pub fn cpu_seconds() -> Result<f64, String> {
    let schedstat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .map_err(|e| format!("cannot read /proc/thread-self/schedstat: {e}"))?;
    parse_on_cpu_ns(&schedstat)
        .map(|ns| ns as f64 / 1e9)
        .ok_or_else(|| "malformed /proc/thread-self/schedstat".to_string())
}

/// What [`calibrate`] must return; anything else means the kernel did
/// different work and its time cannot divide a run's.
pub const CALIBRATION_CHECKSUM: u64 = 0xc7af_cc3f_3a4d_3ddb;

/// CPU seconds one calibration pass takes on the undisturbed host this
/// benchmark was written on.  `setup_s` is reported in seconds at that
/// speed, because raw seconds do not repeat here (see the README).
pub const CALIBRATION_REFERENCE_S: f64 = 0.24;

const CALIBRATION_HEAP: usize = 20_000;
const CALIBRATION_STEPS: usize = 1_500_000;
const CALIBRATION_MAP: usize = 4_096;

/// The calibration kernel: a fixed amount of heap-, hash- and
/// allocator-bound work shaped like the simulator's inner loop (a priority
/// queue of boxed events plus hash-map churn of small byte vectors).
/// `run_cal` divides a run's time by this kernel's time measured in the
/// same process, which cancels the host's slow drift.
pub fn calibrate() -> u64 {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut heap: BinaryHeap<(u64, Box<[u64; 8]>)> = BinaryHeap::with_capacity(CALIBRATION_HEAP);
    for _ in 0..CALIBRATION_HEAP {
        let key = next();
        heap.push((key, Box::new([key; 8])));
    }
    let mut map: HashMap<u64, Vec<u8>> = HashMap::with_capacity(CALIBRATION_MAP);
    let mut ring = vec![0u64; CALIBRATION_MAP];
    let mut checksum = 0u64;
    for step in 0..CALIBRATION_STEPS {
        let (key, payload) = heap.pop().expect("the heap never drains");
        checksum = checksum.rotate_left(5) ^ key ^ payload[step % 8];
        let fresh = next();
        heap.push((fresh, Box::new([fresh ^ key; 8])));

        let slot = step % CALIBRATION_MAP;
        if let Some(old) = map.remove(&ring[slot]) {
            checksum = checksum.wrapping_add(old.len() as u64);
        }
        ring[slot] = fresh;
        map.insert(fresh, vec![fresh as u8; 16 + (fresh % 48) as usize]);
    }
    black_box(checksum)
}

/// Runs one calibration pass and returns its CPU time in seconds.
pub fn timed_calibration() -> Result<f64, String> {
    let started = cpu_seconds()?;
    let checksum = calibrate();
    let elapsed = cpu_seconds()? - started;
    assert_eq!(
        checksum, CALIBRATION_CHECKSUM,
        "calibration kernel returned {checksum:#x}: it did different work"
    );
    Ok(elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_known_vec_growth_counts_the_expected_allocations() {
        let before = alloc_counts();
        let mut v: Vec<u64> = Vec::with_capacity(4);
        v.extend(0..4);
        let after_first = alloc_counts();
        assert_eq!(after_first.allocs - before.allocs, 1);
        assert_eq!(after_first.bytes - before.bytes, 32);
        assert_eq!(after_first.live - before.live, 32);
        // Growing past capacity is one realloc to the doubled capacity.
        v.push(4);
        let after_growth = alloc_counts();
        assert_eq!(after_growth.allocs - after_first.allocs, 1);
        assert_eq!(after_growth.live - before.live, 8 * v.capacity() as u64);
        drop(black_box(v));
        assert_eq!(alloc_counts().live, before.live);
    }

    #[test]
    fn peak_live_follows_the_high_water_mark() {
        reset_peak_live();
        let base = alloc_counts().live;
        let big = black_box(vec![0u8; 1 << 20]);
        drop(big);
        let counts = alloc_counts();
        assert!(counts.peak_live >= base + (1 << 20));
        assert!(counts.live < base + (1 << 20));
        reset_peak_live();
        assert_eq!(alloc_counts().peak_live, alloc_counts().live);
    }

    #[test]
    fn two_calibration_passes_return_the_same_checksum() {
        assert_eq!(calibrate(), calibrate());
        assert_eq!(calibrate(), CALIBRATION_CHECKSUM);
    }

    #[test]
    fn the_cpu_clock_advances_with_work_and_not_with_sleep() {
        assert_eq!(parse_on_cpu_ns("123456789 42 7\n"), Some(123_456_789));
        assert_eq!(parse_on_cpu_ns(""), None);
        let before = cpu_seconds().expect("procfs is mounted");
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = cpu_seconds().expect("procfs is mounted");
        assert!(slept - before < 0.04, "sleeping cost {} s", slept - before);
        black_box(calibrate());
        let worked = cpu_seconds().expect("procfs is mounted");
        assert!(worked - slept > 0.05, "a pass cost {} s", worked - slept);
    }

    #[test]
    fn status_lines_are_parsed() {
        let status = "Name:\tx\nVmPeak:\t  100 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(status_kib(status, "VmHWM"), Some(2048));
        assert_eq!(status_kib(status, "VmSwap"), None);
        assert!(vm_hwm_kib().expect("procfs is mounted") > 0);
    }

    #[test]
    fn stat_lines_with_awkward_command_names_are_parsed() {
        let line = "42 (a b) c) R 1 42 42 0 -1 4194304 1234 0 7 0 55 11 0 0 20 0 1 0 100 1000 10";
        assert_eq!(parse_minor_faults(line), Some(1234));
        assert_eq!(parse_minor_faults("garbage"), None);
        assert!(minor_faults().expect("procfs is mounted") > 0);
    }
}
