//! What the operating system says about this process — peak resident
//! set, CPU time, context switches, thread count, a fixed spin that
//! shows how fast the host is running right now — and the two things
//! the benchmark asks of it: one CPU, never idle.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// Linux's `SCHED_IDLE`: runs only when nothing else wants the CPU.
const SCHED_IDLE: i32 = 5;
const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

/// What the idle spinner itself used, so that [`usage`] can leave it out.
static SPINNER_CPU_US: AtomicU64 = AtomicU64::new(0);
static SPINNER_SWITCHES: AtomicU64 = AtomicU64::new(0);

/// Restrict the calling thread — call it first in `main`, every thread
/// spawned later inherits the mask — to the first CPU it is allowed on.
/// Returns that CPU and how many were allowed, or `None` if the kernel
/// refused (the run then uses every allowed CPU, and says so).
///
/// Why: a closed loop leaves the other CPUs idle between hand-offs, and
/// on this sandbox waking a halted virtual CPU costs tens of
/// microseconds that vary by the minute. On one CPU a closed loop never
/// idles: when the client blocks, the server thread it woke runs.
pub fn pin_to_one_cpu() -> Option<(usize, usize)> {
    let mut allowed: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `allowed` is a live, writable buffer of exactly `size`
    // bytes; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let count = allowed.iter().map(|w| w.count_ones() as usize).sum();
    let word = allowed.iter().position(|w| *w != 0)?;
    let cpu = word * 64 + allowed[word].trailing_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `size` bytes that names
    // one CPU the thread is already allowed on; pid 0 is the caller.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some((cpu, count))
}

/// A thread that spins at idle priority on the benchmark's CPU until it
/// is stopped, so that the CPU is never idle.
///
/// Why: every fsync blocks the one thread that was running, the virtual
/// CPU halts, and the host clocks the core down; for hundreds of
/// milliseconds afterwards (sometimes for a whole run) the same code
/// runs 30-40% slower — the fixed spin of `calib_ms` read 255 ms or
/// 360 ms after the `ingest` fill, and `ingest` ran at 77-114 ops/s.
/// With the core kept busy the same five runs gave 103-106 ops/s. An
/// idle-priority thread is preempted the moment any other thread wakes.
pub struct IdleSpinner {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl IdleSpinner {
    /// `None` if the kernel refused the idle policy: a spinner at normal
    /// priority would take half of the CPU.
    pub fn start() -> Option<IdleSpinner> {
        let stop = Arc::new(AtomicBool::new(false));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("idle-spinner".into())
                .spawn(move || {
                    let priority = 0i32;
                    // SAFETY: `priority` is a live `struct sched_param`
                    // (one int); pid 0 is the calling thread.
                    let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } == 0;
                    let _ = ready_tx.send(idle);
                    // Relaxed: flag and counters publish nothing but
                    // themselves.
                    while idle && !stop.load(Ordering::Relaxed) {
                        for _ in 0..4096 {
                            std::hint::spin_loop();
                        }
                        let own = rusage(RUSAGE_THREAD);
                        SPINNER_CPU_US.store((own.cpu_ms * 1e3) as u64, Ordering::Relaxed);
                        SPINNER_SWITCHES.store(own.ctx_switches, Ordering::Relaxed);
                    }
                })
                .ok()?
        };
        let spinner = IdleSpinner {
            stop,
            thread: Some(thread),
        };
        // Dropping it joins the thread, which has already returned.
        ready_rx.recv().unwrap_or(false).then_some(spinner)
    }
}

impl Drop for IdleSpinner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[derive(Clone, Copy, Default)]
pub struct Usage {
    pub cpu_ms: f64,
    pub ctx_switches: u64,
}

/// CPU time and context switches of the whole process so far, threads
/// that already exited included, the idle spinner left out.
pub fn usage() -> Usage {
    let all = rusage(RUSAGE_SELF);
    Usage {
        cpu_ms: all.cpu_ms - SPINNER_CPU_US.load(Ordering::Relaxed) as f64 / 1e3,
        ctx_switches: all
            .ctx_switches
            .saturating_sub(SPINNER_SWITCHES.load(Ordering::Relaxed)),
    }
}

fn rusage(who: i32) -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable, correctly sized and aligned
    // `struct rusage` for this target (64-bit Linux, the only platform
    // the epoll server under test builds on); `who` is RUSAGE_SELF or
    // RUSAGE_THREAD.
    let rc = unsafe { getrusage(who, &mut ru) };
    if rc != 0 {
        return Usage::default();
    }
    let ms = |tv: [i64; 2]| tv[0] as f64 * 1e3 + tv[1] as f64 / 1e3;
    Usage {
        cpu_ms: ms(ru.utime) + ms(ru.stime),
        // ru_nvcsw and ru_nivcsw are the last two longs.
        ctx_switches: (ru.rest[12] + ru.rest[13]) as u64,
    }
}

fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(name))?;
    line[name.len()..].split_whitespace().next()?.parse().ok()
}

/// `VmHWM`: the peak resident set of the process, in MiB.
pub fn rss_peak_mb() -> f64 {
    status_field("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// A fixed amount of integer work (about 200 ms on the reference box).
/// It measures the host, not the program: a run whose `calib_ms` is far
/// from its neighbours' ran on a slower or busier machine.
pub fn calib_ms() -> f64 {
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..120_000_000u32 {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}
