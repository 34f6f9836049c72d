//! Order statistics for the reported metrics, and the host-noise record
//! (VM steal share and load average) stored beside every run.

use std::time::{Duration, Instant};

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`; `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// `/proc/stat` counts in units of `USER_HZ`, 100 per second on Linux.
const TICKS_PER_SECOND: f64 = 100.0;

/// Aggregate CPU counters from the first line of `/proc/stat`, in ticks
/// summed over every CPU.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
    cpus: u64,
}

/// Reads the aggregate CPU counters; `None` where `/proc/stat` is absent.
pub fn cpu_times() -> Option<CpuTimes> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().next()?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    if fields.len() < 8 {
        return None;
    }
    let cpus = text
        .lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count() as u64;
    Some(CpuTimes {
        steal: fields[7],
        total: fields.iter().sum(),
        cpus: cpus.max(1),
    })
}

/// The start of a duration that is reported net of VM steal.
///
/// On a shared host the hypervisor runs other guests on this VM's
/// virtual CPUs; that stolen time stretches every CPU-bound stretch by
/// an amount that changes from minute to minute. A net duration is the
/// wall time minus the time stolen from an average virtual CPU
/// meanwhile: a stretch that kept every CPU busy loses exactly its
/// stolen share. Steal is counted host-wide, so while a stretch mostly
/// waits, what it subtracts was taken from other processes; only
/// stretches that keep the CPUs busy themselves are reported net.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    at: Instant,
    cpu: Option<CpuTimes>,
}

impl Mark {
    /// Marks now.
    pub fn now() -> Self {
        Self {
            cpu: cpu_times(),
            at: Instant::now(),
        }
    }

    /// Wall time since the mark.
    pub fn elapsed(&self) -> Duration {
        self.at.elapsed()
    }

    /// Wall time since the mark, and the time to report: net of steal
    /// when `net`, else the same wall time.
    pub fn wall_and_reported(&self, net: bool) -> (Duration, Duration) {
        let wall = self.elapsed();
        (wall, if net { self.net_elapsed() } else { wall })
    }

    /// Wall time since the mark minus the time stolen from an average
    /// virtual CPU meanwhile.
    pub fn net_elapsed(&self) -> Duration {
        let wall = self.at.elapsed();
        let (Some(start), Some(end)) = (self.cpu, cpu_times()) else {
            return wall;
        };
        let stolen =
            end.steal.saturating_sub(start.steal) as f64 / end.cpus as f64 / TICKS_PER_SECOND;
        wall.saturating_sub(Duration::from_secs_f64(stolen))
    }
}

/// The share of CPU time the hypervisor stole between two readings.
pub fn steal_share(start: CpuTimes, end: CpuTimes) -> f64 {
    let total = end.total.saturating_sub(start.total);
    if total == 0 {
        return 0.0;
    }
    end.steal.saturating_sub(start.steal) as f64 / total as f64
}

/// The one-minute load average from `/proc/loadavg`.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }
}
