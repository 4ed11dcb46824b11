//! What the host did to a run: vCPU steal, the process's own CPU time
//! and its peak resident set, read from `/proc`. They move nothing;
//! they explain a bad run.

use std::fs;

/// Kernel clock ticks per second (`USER_HZ`); 100 on every Linux
/// target this repo builds for.
const TICKS_PER_S: f64 = 100.0;

/// One reading of the aggregate `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCpu {
    total: u64,
    steal: u64,
}

impl HostCpu {
    /// Zeroes when `/proc/stat` is unreadable: the steal share then
    /// reads 0 and the run is not retried.
    pub fn now() -> HostCpu {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest ...];
        // guest time is already inside user, so stop at steal.
        HostCpu {
            total: fields.iter().take(8).sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of all vCPU time between `earlier` and `self` that the
    /// hypervisor gave to someone else.
    pub fn steal_frac_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after it.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line; the state,
    // field 3, is the first one after the command name.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_S
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
