//! Per-thread and machine counters read from `/proc`.
//!
//! The parsers take the file text, so the tests can feed them fixed
//! strings; the readers around them return `None` where procfs is
//! missing or a thread has already exited.

use std::fs;

/// `/proc/<pid>/task/<tid>/schedstat`: nanoseconds on a CPU, nanoseconds
/// runnable but waiting on a run queue, and timeslices run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Time spent running.
    pub run_ns: u64,
    /// Time spent runnable but waiting for a CPU.
    pub wait_ns: u64,
    /// Timeslices run.
    pub slices: u64,
}

/// Parses the three fields of a `schedstat` file.
pub fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut fields = text.split_whitespace().map(str::parse::<u64>);
    Some(SchedStat {
        run_ns: fields.next()?.ok()?,
        wait_ns: fields.next()?.ok()?,
        slices: fields.next()?.ok()?,
    })
}

/// The first number after `key:` in a `status` file (`VmRSS`,
/// `voluntary_ctxt_switches`, ...).
pub fn parse_status_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Machine-wide CPU time from the aggregate `cpu` line of `/proc/stat`,
/// in clock ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTimes {
    /// user + nice + system + idle + iowait + irq + softirq + steal.
    pub total: u64,
    /// Time the hypervisor ran something else while a vCPU wanted to run.
    pub steal: u64,
}

impl CpuTimes {
    /// Steal as a percentage of all CPU time since `earlier`.
    pub fn steal_pct_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }

    /// Adds the ticks elapsed between `from` and `to`.
    pub fn accumulate(&mut self, from: &CpuTimes, to: &CpuTimes) {
        self.total += to.total.saturating_sub(from.total);
        self.steal += to.steal.saturating_sub(from.steal);
    }
}

/// Parses the aggregate `cpu` line of `/proc/stat`. Guest time is
/// already included in user and nice, so only the first eight fields
/// are summed.
pub fn parse_stat_cpu(text: &str) -> Option<CpuTimes> {
    let mut fields = text.lines().next()?.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let values: Vec<u64> = fields.take(8).map(|f| f.parse().ok()).collect::<Option<_>>()?;
    if values.len() < 8 {
        return None;
    }
    Some(CpuTimes { total: values.iter().sum(), steal: values[7] })
}

/// Machine-wide CPU times now.
pub fn cpu_times() -> Option<CpuTimes> {
    parse_stat_cpu(&fs::read_to_string("/proc/stat").ok()?)
}

/// One thread's scheduler counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadSample {
    /// Nanoseconds on a CPU.
    pub run_ns: u64,
    /// Nanoseconds waiting on a run queue.
    pub wait_ns: u64,
    /// Times the thread blocked and was woken again.
    pub voluntary: u64,
}

impl ThreadSample {
    /// Counters accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &ThreadSample) -> ThreadSample {
        ThreadSample {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
            voluntary: self.voluntary.saturating_sub(earlier.voluntary),
        }
    }

    /// Adds `other` field by field.
    pub fn add(&mut self, other: &ThreadSample) {
        self.run_ns += other.run_ns;
        self.wait_ns += other.wait_ns;
        self.voluntary += other.voluntary;
    }
}

/// Reads thread `tid` of this process.
pub fn thread_sample(tid: u32) -> Option<ThreadSample> {
    let sched =
        parse_schedstat(&fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?)?;
    let status = fs::read_to_string(format!("/proc/self/task/{tid}/status")).ok()?;
    Some(ThreadSample {
        run_ns: sched.run_ns,
        wait_ns: sched.wait_ns,
        voluntary: parse_status_field(&status, "voluntary_ctxt_switches")?,
    })
}

/// Every thread of this process with its counters, sorted by id.
pub fn all_threads() -> Vec<(u32, ThreadSample)> {
    task_ids().into_iter().filter_map(|tid| Some((tid, thread_sample(tid)?))).collect()
}

/// The ids of this process's threads, sorted.
pub fn task_ids() -> Vec<u32> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else { return Vec::new() };
    let mut ids: Vec<u32> =
        dir.filter_map(|entry| entry.ok()?.file_name().to_str()?.parse().ok()).collect();
    ids.sort_unstable();
    ids
}

/// The calling thread's id, from the `/proc/thread-self` link
/// (`<pid>/task/<tid>`).
pub fn current_tid() -> Option<u32> {
    parse_thread_self(fs::read_link("/proc/thread-self").ok()?.to_str()?)
}

/// The thread id at the end of a `/proc/thread-self` link target.
pub fn parse_thread_self(target: &str) -> Option<u32> {
    target.rsplit('/').next()?.parse().ok()
}

/// Threads present in `after` but not in `before`: the threads a call
/// made between the two listings spawned.
pub fn spawned_between(before: &[u32], after: &[u32]) -> Vec<u32> {
    after.iter().copied().filter(|tid| !before.contains(tid)).collect()
}

/// This process's resident set in bytes.
pub fn vm_rss_bytes() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_status_field(&status, "VmRSS")? * 1024)
}

/// Counters accumulated between two [`all_threads`] listings, summed
/// over the threads present in both and accepted by `keep`.
pub fn sum_since(
    earlier: &[(u32, ThreadSample)],
    later: &[(u32, ThreadSample)],
    mut keep: impl FnMut(u32) -> bool,
) -> ThreadSample {
    let mut total = ThreadSample::default();
    for (tid, sample) in later {
        if !keep(*tid) {
            continue;
        }
        if let Some((_, before)) = earlier.iter().find(|(t, _)| t == tid) {
            total.add(&sample.since(before));
        }
    }
    total
}

/// A CPU set as the kernel's `cpu_set_t` (1024 bits).
type CpuMask = [u64; 16];

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuMask) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuMask) -> i32;
}

/// The CPUs this thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) };
    if rc != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64).filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0).collect()
}

/// Restricts thread `tid` of this process to `cpu`.
///
/// # Errors
///
/// Returns the OS error when the CPU is out of range or not allowed.
pub fn pin(tid: u32, cpu: usize) -> std::io::Result<()> {
    let mut mask: CpuMask = [0; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "cpu out of range"))?;
    *word = 1 << (cpu % 64);
    let tid = i32::try_from(tid)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "tid out of range"))?;
    // SAFETY: `mask` is a live buffer of exactly the size passed; the
    // call only reads it.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuMask>(), &mask) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_has_run_wait_and_slices() {
        let stat = parse_schedstat("1234567 89012 345\n").unwrap();
        assert_eq!(stat, SchedStat { run_ns: 1_234_567, wait_ns: 89_012, slices: 345 });
        assert_eq!(parse_schedstat("12 34"), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn status_fields_parse_by_key() {
        let status = "Name:\tservebench\nVmRSS:\t   10240 kB\nvoluntary_ctxt_switches:\t17\n\
                      nonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_status_field(status, "VmRSS"), Some(10_240));
        assert_eq!(parse_status_field(status, "voluntary_ctxt_switches"), Some(17));
        assert_eq!(parse_status_field(status, "nonvoluntary_ctxt_switches"), Some(3));
        assert_eq!(parse_status_field(status, "VmSwap"), None);
    }

    #[test]
    fn stat_cpu_line_gives_total_and_steal() {
        let text = "cpu  100 5 50 800 10 1 4 30 7 0\ncpu0 50 2 25 400 5 0 2 15 0 0\n";
        let times = parse_stat_cpu(text).unwrap();
        assert_eq!(times, CpuTimes { total: 1_000, steal: 30 });
        let later = CpuTimes { total: 1_200, steal: 50 };
        assert!((later.steal_pct_since(&times) - 10.0).abs() < 1e-9);
        assert_eq!(parse_stat_cpu("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_stat_cpu("cpu 1 2 3\n"), None);
    }

    #[test]
    fn threads_spawned_by_a_call_are_the_new_ids() {
        assert_eq!(spawned_between(&[10, 11], &[10, 11, 14, 15]), vec![14, 15]);
        assert_eq!(spawned_between(&[10, 11, 12], &[10, 12]), Vec::<u32>::new());
    }

    #[test]
    fn launching_a_thread_is_attributed_to_it() {
        let before = task_ids();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            ready_tx.send(current_tid().unwrap()).unwrap();
            stop_rx.recv().unwrap();
        });
        let worker_tid = ready_rx.recv().unwrap();
        let spawned = spawned_between(&before, &task_ids());
        stop_tx.send(()).unwrap();
        worker.join().unwrap();
        assert!(spawned.contains(&worker_tid), "{spawned:?} lacks {worker_tid}");
        assert!(!spawned.contains(&current_tid().unwrap()));
    }

    #[test]
    fn thread_self_link_ends_in_the_tid() {
        assert_eq!(parse_thread_self("4242/task/4250"), Some(4_250));
        assert_eq!(parse_thread_self("4242/task/"), None);
    }

    #[test]
    fn sums_skip_excluded_and_vanished_threads() {
        let sample = |run_ns, voluntary| ThreadSample { run_ns, wait_ns: 0, voluntary };
        let earlier = [(1, sample(100, 1)), (2, sample(200, 2)), (3, sample(300, 3))];
        let later = [(1, sample(150, 2)), (2, sample(260, 5)), (4, sample(999, 9))];
        let total = sum_since(&earlier, &later, |tid| tid != 1);
        assert_eq!(total, sample(60, 3));
    }

    #[test]
    fn a_thread_can_be_pinned_to_an_allowed_cpu() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        let last = *cpus.last().unwrap();
        let worker = std::thread::spawn(move || {
            pin(current_tid().unwrap(), last).unwrap();
            allowed_cpus()
        });
        assert_eq!(worker.join().unwrap(), vec![last]);
        assert!(pin(current_tid().unwrap(), 1 << 20).is_err());
    }

    #[test]
    fn live_counters_are_readable() {
        let tid = current_tid().unwrap();
        assert!(task_ids().contains(&tid));
        assert!(thread_sample(tid).is_some());
        assert!(vm_rss_bytes().unwrap() > 0);
        assert!(cpu_times().unwrap().total > 0);
    }
}
