//! CPU affinity for the timed pass. Client `c` and the daemon thread
//! that serves its connection share a CPU, so a request and its reply
//! each wake a thread on the CPU they were sent from, and the two
//! client–server pairs run side by side on two CPUs.
//!
//! Left to the scheduler, the four threads were placed differently from
//! run to run, and a wake-up across the virtual CPUs of a shared host
//! costs a varying amount. In five-run sets on a 2-vCPU host,
//! cold_reads_1e5 `query_p50_us` spread 0.20 of its median unpinned and
//! 0.05 to 0.14 pinned. What is left is the host's own speed, which
//! drifts by a sixth or so over a few minutes.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use pxml_cli::serve::Client;

use crate::daemon::Daemon;

/// Name the daemon gives each connection thread.
const CONN_THREAD: &str = "pxml-serve-conn";

/// `cpu_set_t` of glibc: 1 024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The last `n` CPUs this process may run on (all of them if it may
/// run on fewer).
pub fn pass_cpus(n: usize) -> Vec<usize> {
    let allowed = allowed_cpus();
    allowed[allowed.len().saturating_sub(n)..].to_vec()
}

/// The CPUs this process may run on, in order.
fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return vec![0];
    }
    (0..1024).filter(|&c| set[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// Restricts thread `tid` (0: the calling thread) to `cpu`.
pub fn pin(tid: i32, cpu: usize) -> Result<(), String> {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a readable buffer of the size passed.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), &set) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("pinning thread {tid} to CPU {cpu}: {}", std::io::Error::last_os_error()))
    }
}

/// Thread ids of the daemon's connection threads.
fn conn_threads(pid: u32) -> HashSet<i32> {
    let Ok(dir) = std::fs::read_dir(format!("/proc/{pid}/task")) else { return HashSet::new() };
    dir.flatten()
        .filter(|e| std::fs::read_to_string(e.path().join("comm")).is_ok_and(|c| c.trim_end() == CONN_THREAD))
        .filter_map(|e| e.file_name().to_str()?.parse().ok())
        .collect()
}

/// Opens a connection to `daemon` and pins the thread that serves it,
/// the one connection thread that was not there before, to `cpu`.
pub fn connect_pinned(daemon: &Daemon, cpu: usize) -> Result<Client, String> {
    let before = conn_threads(daemon.pid());
    let client = daemon.client()?;
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(&tid) = conn_threads(daemon.pid()).difference(&before).next() {
            pin(tid, cpu)?;
            return Ok(client);
        }
        if Instant::now() > deadline {
            return Err("the daemon started no connection thread within 5 s".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
