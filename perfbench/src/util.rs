//! Seeded randomness, order statistics and process probes.

use std::time::Duration;

/// SplitMix64: a tiny, seedable generator. Every input the benchmark
/// derives from `--seed` goes through one of these, so a seed fixes the
/// inputs exactly.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// The percentiles a tail may be reported at, highest last.
const TAIL_PERCENTILES: [f64; 8] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.99];

/// Median and tail of one sample set. The tail is the highest percentile
/// in [`TAIL_PERCENTILES`] that still has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    /// For the readable table: how the tail is approached.
    pub p90: f64,
    pub p99: f64,
    pub tail: f64,
    pub tail_pct: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail_pct = TAIL_PERCENTILES
            .iter()
            .copied()
            .rfind(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
            .unwrap_or(50.0);
        Summary {
            count: n,
            p50: nearest_rank(&sorted, 50.0),
            p90: nearest_rank(&sorted, 90.0),
            p99: nearest_rank(&sorted, 99.0),
            tail: nearest_rank(&sorted, tail_pct),
            tail_pct,
        }
    }
}

/// The given percentiles of `samples` (nearest rank; not empty).
pub fn percentiles<const N: usize>(samples: &[f64], pcts: [f64; N]) -> [f64; N] {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    pcts.map(|p| nearest_rank(&sorted, p))
}

fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Restarts this process's peak resident set (`VmHWM`) from its current
/// resident set, trimmed of freed heap memory, so a peak can be taken per
/// pass. Best effort: without the kernel interface the peak simply covers
/// the whole process.
pub fn reset_peak_rss() {
    crate::sys::trim_heap();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU time this process has used so far.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command field may hold spaces; fields after its closing paren
    // start at field 3 (state), so utime/stime are the 12th/13th after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // Linux reports these in USER_HZ, which is 100 on every mainstream
    // configuration.
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
