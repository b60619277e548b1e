//! Readings from `/proc` and `getrusage(2)`: CPU time of processes, peak
//! memory, host steal.

use std::collections::HashMap;
use std::fs;

/// On-CPU nanoseconds of every live thread of a set of processes, from
/// `/proc/<pid>/task/<tid>/schedstat` (nanosecond resolution; the
/// scheduler's clock excludes time stolen by the hypervisor). Used for
/// an idle router, whose CPU over a second is too small for clock ticks;
/// a thread that exits inside the window loses its share.
#[derive(Default)]
pub struct CpuSnapshot(HashMap<u32, u64>);

impl CpuSnapshot {
    pub fn take(pids: &[u32]) -> CpuSnapshot {
        let mut threads = HashMap::new();
        for pid in pids {
            let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
                continue;
            };
            for task in tasks.flatten() {
                let Some(tid) = task
                    .file_name()
                    .to_str()
                    .and_then(|t| t.parse::<u32>().ok())
                else {
                    continue;
                };
                if let Some(ns) = fs::read_to_string(task.path().join("schedstat"))
                    .ok()
                    .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
                {
                    threads.insert(tid, ns);
                }
            }
        }
        CpuSnapshot(threads)
    }

    /// CPU milliseconds spent between `self` and the later `after`. A
    /// thread that exits inside the window loses its share.
    pub fn ms_until(&self, after: &CpuSnapshot) -> f64 {
        let ns: u64 = after
            .0
            .iter()
            .map(|(tid, end)| end.saturating_sub(self.0.get(tid).copied().unwrap_or(0)))
            .sum();
        ns as f64 / 1e6
    }
}

/// Length of a clock tick (`USER_HZ` is 100 on Linux).
pub const MS_PER_TICK: f64 = 10.0;

/// utime + stime of a process in clock ticks (`/proc/<pid>/stat`),
/// including threads that already exited. This is what serving CPU is
/// measured with: threads come and go in the router, so per-thread
/// counters would miss some. The ticks are coarse; windows are long
/// enough to span hundreds of them.
pub fn stat_ticks(pid: u32) -> u64 {
    let Ok(stat) = fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0;
    };
    // The command name may hold spaces; fields resume after its ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15; `rest` starts at field 3.
    let field = |i: usize| {
        fields
            .get(i - 3)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    field(14) + field(15)
}

/// Peak resident set (VmHWM) of a process, in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn alive(pid: u32) -> bool {
    fs::metadata(format!("/proc/{pid}")).is_ok()
}

/// Aggregate jiffies of the host (`cpu` line of `/proc/stat`): steal and
/// total.
#[derive(Clone, Copy, Default)]
pub struct HostTicks {
    steal: u64,
    total: u64,
}

impl HostTicks {
    pub fn take() -> HostTicks {
        let Ok(stat) = fs::read_to_string("/proc/stat") else {
            return HostTicks::default();
        };
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return HostTicks::default();
        };
        let vals: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user.
        let total = vals.iter().take(8).sum();
        HostTicks {
            steal: vals.get(7).copied().unwrap_or(0),
            total,
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `self`, in %.
    pub fn steal_pct_until(&self, after: &HostTicks) -> f64 {
        let total = after.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * after.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    _rest: [i64; 14],
}

/// CPU seconds (user + system) of every child this process has reaped,
/// including what those children reaped in turn (the router reaps its
/// replicas before it exits). Microsecond resolution, and threads that
/// exited early are counted.
pub fn reaped_children_cpu_s() -> f64 {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage::default();
    // SAFETY: getrusage(2) writes one `struct rusage`, whose layout
    // `RUsage` matches, and nothing else.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) cannot fail");
    let s = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    s(&usage.utime) + s(&usage.stime)
}

pub const SIGKILL: i32 = 9;
pub const SIGTERM: i32 = 15;

pub fn signal(pid: u32, sig: i32) {
    if let Ok(pid) = i32::try_from(pid) {
        // SAFETY: kill(2) takes plain integers and touches no memory of
        // this process.
        unsafe {
            kill(pid, sig);
        }
    }
}

/// Shrinks the calling thread's timer slack to 1 ns so the open-loop
/// generator wakes when a request is due, not up to 50 µs later.
pub fn tight_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK reads one integer argument and changes
    // only the calling thread's scheduling attribute.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}
