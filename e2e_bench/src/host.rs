//! Host facts read from `/proc`: CPU model, memory high-water mark and
//! per-thread scheduler statistics.

use std::fs;

/// The first `model name` in `/proc/cpuinfo`, or `unknown`.
#[must_use]
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Cores this process may run on.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 when
/// `/proc/self/status` is unreadable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time every thread of this process has received, exited threads
/// included, in seconds (`CLOCK_PROCESS_CPUTIME_ID`); 0 when the clock
/// is unavailable. A kernel that accounts paravirtual steal time, as
/// the reference host's does, leaves time the hypervisor gave to other
/// guests out of it.
#[must_use]
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has received, in seconds
/// (`CLOCK_THREAD_CPUTIME_ID`), without steal as for [`process_cpu_s`];
/// 0 when the clock is unavailable.
#[must_use]
pub fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Reads the CPU-time clock `clock`, in seconds.
fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of
    // 64-bit Linux, and the call writes nothing else.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Scheduler time summed over every thread of this process, from
/// `/proc/self/task/*/schedstat`: nanoseconds on a CPU and nanoseconds
/// runnable but waiting in a run queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedTimes {
    /// Time spent running.
    pub run_ns: u64,
    /// Time spent runnable, waiting for a CPU.
    pub wait_ns: u64,
}

impl SchedTimes {
    /// Reads the current totals (zero when schedstat is unavailable).
    #[must_use]
    pub fn now() -> Self {
        let mut t = Self::default();
        let Ok(dir) = fs::read_dir("/proc/self/task") else {
            return t;
        };
        for task in dir.flatten() {
            let Ok(s) = fs::read_to_string(task.path().join("schedstat")) else {
                continue;
            };
            let mut f = s.split_whitespace().map(|v| v.parse::<u64>().unwrap_or(0));
            t.run_ns += f.next().unwrap_or(0);
            t.wait_ns += f.next().unwrap_or(0);
        }
        t
    }

    /// The change since `earlier`. Threads that exit in between take
    /// their time with them, so each field saturates at zero.
    #[must_use]
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }

    /// Adds `other`'s times.
    pub fn add(&mut self, other: &Self) {
        self.run_ns += other.run_ns;
        self.wait_ns += other.wait_ns;
    }
}

/// System-wide CPU time from the first line of `/proc/stat`, in clock
/// ticks: every state, and the part a hypervisor gave to other guests
/// while this machine's CPUs wanted to run (steal).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    /// Ticks in every state.
    pub total: u64,
    /// Ticks stolen.
    pub steal: u64,
}

impl CpuTicks {
    /// Reads the current totals (zero when `/proc/stat` is unreadable).
    #[must_use]
    pub fn now() -> Self {
        let Ok(stat) = fs::read_to_string("/proc/stat") else {
            return Self::default();
        };
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return Self::default();
        };
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already counted in user and nice.
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|v| v.parse().unwrap_or(0))
            .collect();
        Self {
            total: fields.iter().sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// The change since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            total: self.total.saturating_sub(earlier.total),
            steal: self.steal.saturating_sub(earlier.steal),
        }
    }

    /// Adds `other`'s ticks.
    pub fn add(&mut self, other: &Self) {
        self.total += other.total;
        self.steal += other.steal;
    }

    /// Stolen ticks over all ticks, or 0 when none elapsed.
    #[must_use]
    pub fn steal_share(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.steal as f64 / self.total as f64
        }
    }
}
