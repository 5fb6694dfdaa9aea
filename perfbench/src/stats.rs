//! Order statistics and the host readings that come with every run.

/// Nearest-rank quantile `q` in `(0, 1]`: with `n` samples, at least
/// `n·(1-q)` samples lie above the returned one. 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set size of this process, in MiB (`VmHWM`), since
/// start or since the last [`reset_peak_rss`].
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Restarts the peak-RSS count from the current RSS, so the peak covers
/// the measured window and not the input generation before it.
pub fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("cannot reset the peak RSS ({e}); it covers the whole run");
    }
}

fn proc_status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Host-wide counters that tell a contaminated run from a regression.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostSample {
    /// `/proc/stat` steal time, in clock ticks.
    steal_ticks: u64,
    /// `/proc/pressure/cpu` "some" total stall, in microseconds.
    cpu_some_us: u64,
}

/// Clock ticks per second for `/proc/stat`; Linux fixes `USER_HZ` at 100
/// on every architecture this runs on.
const USER_HZ: f64 = 100.0;

impl HostSample {
    pub fn now() -> HostSample {
        HostSample {
            steal_ticks: read_steal_ticks().unwrap_or(0),
            cpu_some_us: read_cpu_some_us().unwrap_or(0),
        }
    }

    /// `(steal ms, cpu "some" pressure ms)` accumulated since `earlier`.
    pub fn since(&self, earlier: &HostSample) -> (f64, f64) {
        (
            self.steal_ticks.saturating_sub(earlier.steal_ticks) as f64 * 1000.0 / USER_HZ,
            self.cpu_some_us.saturating_sub(earlier.cpu_some_us) as f64 / 1000.0,
        )
    }
}

fn read_steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    // cpu user nice system idle iowait irq softirq steal ...
    cpu.split_whitespace().nth(8)?.parse().ok()
}

fn read_cpu_some_us() -> Option<u64> {
    let psi = std::fs::read_to_string("/proc/pressure/cpu").ok()?;
    let some = psi.lines().find(|l| l.starts_with("some "))?;
    some.split_whitespace()
        .find_map(|f| f.strip_prefix("total="))?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_leaves_a_tenth_above_p90() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
