//! Thread placement for the serving workloads.
//!
//! The two vCPUs of the benchmark's reference machine drift in speed
//! independently (their 10-s medians correlate at about 0.3), so a
//! reference pass only tracks the server's worker when it runs on the
//! worker's CPU. The server is started with the calling thread pinned to
//! one CPU, which its worker inherits; the generator then times its passes
//! on that CPU, only while the worker sleeps on an empty queue.

use std::time::Duration;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the process may run on, and the one its worker is pinned to.
pub struct Placement {
    original: Option<u64>,
    home: Option<u64>,
}

impl Placement {
    /// Reads the calling thread's CPU mask; the lowest CPU in it becomes
    /// the worker's. Without at least two CPUs (or a readable mask of the
    /// first 64) nothing is ever pinned.
    pub fn new() -> Self {
        let mut mask = 0u64;
        // SAFETY: pid 0 is the calling thread, and `mask` is a valid,
        // writable buffer of the size passed.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut mask) } == 0;
        let original = (ok && mask.count_ones() >= 2).then_some(mask);
        Placement {
            original,
            home: original.map(|m| m & m.wrapping_neg()),
        }
    }

    /// Pins the calling thread to the worker's CPU.
    pub fn go_home(&self) {
        if let Some(m) = self.home {
            set(m);
        }
    }

    /// Lets the calling thread run on every CPU it could at the start.
    pub fn roam(&self) {
        if let Some(m) = self.original {
            set(m);
        }
    }
}

fn set(mask: u64) {
    // SAFETY: pid 0 is the calling thread, and `mask` outlives the call
    // with the size passed. A refusal leaves the thread where it was.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<u64>(), &mask);
    }
}

/// This process's thread ids.
pub fn threads() -> Vec<u32> {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

fn sleeping(tid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/self/task/{tid}/stat"))
        .ok()
        .and_then(|stat| {
            let state = stat.rsplit_once(')')?.1.trim_start().chars().next()?;
            Some(state == 'S')
        })
        .unwrap_or(false)
}

/// Whether every thread in `tids` sleeps.
pub fn asleep(tids: &[u32]) -> bool {
    tids.iter().all(|&t| sleeping(t))
}

/// Whether every thread in `tids` sleeps now and still sleeps 3 ms later.
/// A worker holding a batch open sleeps at most the 2-ms batch window and
/// then executes for tens of ms, so two sleeping reads 3 ms apart mean it
/// waits on an empty queue.
pub fn idle(tids: &[u32]) -> bool {
    if !asleep(tids) {
        return false;
    }
    std::thread::sleep(Duration::from_millis(3));
    asleep(tids)
}
