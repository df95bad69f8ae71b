//! What std does not offer: `poll(2)`, CPU clocks, resident set size.
//!
//! Declared straight against the C ABI, as `vendor/mio` does for epoll, so
//! the benchmark needs no `libc` crate. Linux only (the clock ids and
//! `/proc` are Linux's), like the reactor edge it measures.

use std::ffi::{c_int, c_long, c_short, c_ulong};
use std::os::fd::RawFd;
use std::sync::OnceLock;
use std::time::Instant;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    sec: c_long,
    nsec: c_long,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout_ms: c_int) -> c_int;
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

/// Words of a kernel CPU mask: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

const POLLIN: c_short = 0x001;
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// Monotonic nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn cpu_clock_ns(clock: c_int) -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec`; the call writes
    // nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// User + system CPU consumed by every thread of this process.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU consumed by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Resident set size in bytes (`VmRSS` of `/proc/self/status`).
pub fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmRSS line in /proc/self/status");
    kb * 1024
}

/// Clock ticks of all CPUs so far, as `(stolen by the host, total)`: the
/// first line of `/proc/stat`. A virtual machine cannot see who stole its
/// time, only that it was stolen.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .expect("cpu line in /proc/stat")
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest times are
    // already inside user).
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// Blocks until one of the two descriptors is readable (or hung up) or
/// `timeout_ms` passes; says which are.
pub fn poll_readable(fds: [RawFd; 2], timeout_ms: i32) -> [bool; 2] {
    let mut pfds = fds.map(|fd| PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    });
    // SAFETY: `pfds` is a live array of two `struct pollfd`, and `nfds`
    // says two.
    let rc = unsafe { poll(pfds.as_mut_ptr(), 2, timeout_ms) };
    if rc <= 0 {
        // Timeout, or EINTR: the caller's loop polls again either way.
        return [false; 2];
    }
    // POLLHUP / POLLERR also count: the following read reports them.
    [pfds[0].revents != 0, pfds[1].revents != 0]
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is live and writable for the `size_of_val` bytes the
    // call is told it may fill; pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    assert!(rc == 0, "sched_getaffinity failed");
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread, and every thread it spawns from now on, to
/// `cpus`.
pub fn pin_current_thread(cpus: &[usize]) {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is live for the `size_of_val` bytes the call reads;
    // pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert!(rc == 0, "sched_setaffinity({cpus:?}) failed");
}
