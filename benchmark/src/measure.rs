//! Clocks, counters and order statistics the benchmark measures with:
//! nearest-rank percentiles, `/proc` CPU-time and peak-RSS readers, and the
//! fixed host-calibration kernel.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use prompt_core::hash::mix64;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `pct` percent of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile(mut values: Vec<f64>, pct: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    nearest_rank(&values, pct)
}

/// Samples strictly above the nearest-rank `pct` position. A tail
/// percentile is only reported when at least ten samples lie beyond it.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    let rank = (pct / 100.0 * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1))
}

/// Median of an unsorted sample (mean of the two middle values when even).
/// Zero for an empty sample, so an unused layer reports 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// CPU time of this process and of its reaped children, in clock ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// `utime + stime` of this process.
    pub own: u64,
    /// `cutime + cstime`: children that have been waited for.
    pub children: u64,
}

/// Parse the contents of `/proc/<pid>/stat`. The command name (field 2) may
/// contain spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat(stat: &str) -> Option<CpuTicks> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime..cstime are fields 14..=17.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |field: usize| fields.get(field - 3)?.parse::<u64>().ok();
    Some(CpuTicks {
        own: tick(14)? + tick(15)?,
        children: tick(16)? + tick(17)?,
    })
}

/// Parse `VmHWM` (peak resident set, kB) out of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Clock ticks per second of `/proc` CPU times. Linux fixes `USER_HZ` at
/// 100 on every architecture this repository builds for.
const TICKS_PER_S: f64 = 100.0;

/// Current CPU time of this process and its reaped children.
pub fn cpu_now() -> CpuTicks {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat(&stat).expect("parse /proc/self/stat")
}

/// Seconds of CPU time between two readings.
pub fn ticks_to_s(ticks: u64) -> f64 {
    ticks as f64 / TICKS_PER_S
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("parse VmHWM") as f64 / 1024.0
}

/// Generate, hash and sort `n` `u64`, continuing the sequence from `x`.
fn hash_and_sort(n: u64, x: &mut u64) {
    let mut v: Vec<u64> = (0..n)
        .map(|i| {
            *x = mix64(*x ^ i);
            *x
        })
        .collect();
    v.sort_unstable();
    black_box(&v);
}

/// `host_ref_ms`: hash and sort 4M `u64`, timed before and after each
/// workload of a full run so that a reader can see host drift.
pub fn host_ref_ms() -> f64 {
    let t0 = Instant::now();
    hash_and_sort(4_000_000, &mut 0x9E37_79B9_7F4A_7C15);
    t0.elapsed().as_secs_f64() * 1e3
}

/// The in-run calibration kernel: a fixed miniature of the engine's kinds of
/// work, timed at every `fill` to sample how fast the host is right then.
/// It sorts 64k hashed values (compute, cache-resident), groups 40k skewed
/// keys into a fresh `HashMap` of vectors (allocation, pointer chasing), and
/// bumps 100k random counters in a 32 MiB table (misses to memory). The host
/// slows in more than one way (sometimes the sort slows with the engine,
/// sometimes only the memory-bound parts do), and over nine minutes of
/// mixed speeds the sum of the three tracked the engine's batch time better
/// than any one part: the p50 of 100-batch windows spread 19% raw, 7% over
/// the sort alone, 4% over the sum.
pub struct HostKernel {
    table: Vec<u32>,
    x: u64,
}

impl HostKernel {
    pub fn new() -> HostKernel {
        HostKernel {
            table: vec![0; 8 << 20],
            x: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Run the kernel once; its wall time in milliseconds (about 6).
    pub fn run_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x = self.x;
        hash_and_sort(65_536, &mut x);
        let mut groups: HashMap<u64, Vec<u64>> = HashMap::new();
        for i in 0..40_000u64 {
            x = mix64(x ^ i);
            // Cubing a uniform draw skews the keys toward small values.
            let r = (x >> 11) as f64 / (1u64 << 53) as f64;
            groups
                .entry((16_384.0 * r * r * r) as u64)
                .or_default()
                .push(i);
        }
        let mut sizes: Vec<usize> = groups.values().map(Vec::len).collect();
        sizes.sort_unstable();
        black_box(&sizes);
        drop(groups);
        let n = self.table.len() as u64;
        for i in 0..100_000u64 {
            x = mix64(x ^ i);
            let slot = &mut self.table[(x % n) as usize];
            *slot = slot.wrapping_add(1);
        }
        black_box(&self.table);
        self.x = x;
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// What `HostKernel::run_ms` takes on the calibration host (2-core Xeon
/// 2.1 GHz) when nothing else competes for it. Times are reported as they
/// would have been at this speed.
pub const KERNEL_NOMINAL_MS: f64 = 6.6;

/// How much slower than nominal the host ran around each sample: the median
/// kernel time of the samples within `window` positions, over the nominal
/// time. The shared hosts this benchmark runs on switch between speeds 30 to
/// 40% apart for minutes at a time, in wall and CPU time alike; dividing a
/// duration by this factor removes most of that drift.
pub fn host_factors(kernel_ms: &[f64], window: usize) -> Vec<f64> {
    (0..kernel_ms.len())
        .map(|i| {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(kernel_ms.len());
            median(&kernel_ms[lo..hi]) / KERNEL_NOMINAL_MS
        })
        .collect()
}

/// The host factor of a whole sample.
pub fn host_factor(kernel_ms: &[f64]) -> f64 {
    median(kernel_ms) / KERNEL_NOMINAL_MS
}

/// Milliseconds between two instants.
pub fn ms_between(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ranked_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50.0);
        assert_eq!(nearest_rank(&v, 90.0), 90.0);
        assert_eq!(nearest_rank(&v, 100.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 90.0), 7.0);
        // Five samples: p90 is the fifth (rank ceil(4.5) = 5).
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0, 5.0], 90.0), 5.0);
        assert_eq!(percentile(vec![5.0, 1.0, 4.0, 2.0, 3.0], 50.0), 3.0);
    }

    #[test]
    fn ten_beyond_rule_needs_a_hundred_samples_for_p90() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(160, 90.0), 16);
        assert_eq!(samples_beyond(8, 90.0), 0);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let stat = "4242 (a b) c)) S 1 4242 4242 0 -1 4194304 100 200 0 0 \
                    31 7 11 5 20 0 3 0 12345 1000000 250 18446744073709551615";
        assert_eq!(
            parse_stat(stat),
            Some(CpuTicks {
                own: 38,
                children: 16
            })
        );
        assert_eq!(parse_stat("no parens here"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_parser_reads_vm_hwm() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("Name:\tbench\n"), None);
    }

    #[test]
    fn host_factors_follow_a_speed_change_and_ignore_outliers() {
        let slow = KERNEL_NOMINAL_MS * 1.5;
        let mut kernel = vec![KERNEL_NOMINAL_MS; 20];
        kernel.extend(vec![slow; 20]);
        kernel[5] = 40.0; // one preempted sample
        let f = host_factors(&kernel, 3);
        assert_eq!(f.len(), 40);
        assert!((f[5] - 1.0).abs() < 1e-12);
        assert!((f[0] - 1.0).abs() < 1e-12 && (f[39] - 1.5).abs() < 1e-12);
        assert!((f[30] - 1.5).abs() < 1e-12);
        assert!((host_factor(&kernel[20..]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn proc_readers_work_on_this_host() {
        let before = cpu_now();
        assert!(HostKernel::new().run_ms() > 0.0);
        assert!(cpu_now().own >= before.own);
        assert!(peak_rss_mb() > 0.0);
    }
}
