//! Seeded randomness, order statistics and host facts shared by every
//! workload.

/// SplitMix64: a tiny, fast, fully seeded generator. The benchmark's
/// inputs (operand seeds, key draws, arrival times) all come from it, so
/// one `--seed` reproduces one run's inputs exactly.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap with the given rate (events/s).
    pub fn exp_gap_s(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Zipf(s) over ranks `0..n` by inverse CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Time `f` `reps` times and return the median wall time in seconds.
pub fn median_time_s(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// The process's peak resident set size in MiB (`ru_maxrss`, the same
/// high-water mark `/proc/self/status` reports as `VmHWM`).
#[cfg(target_os = "linux")]
pub fn peak_rss_mib() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of
    // which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, correctly sized `struct rusage` for 64-bit
    // Linux, and RUSAGE_SELF (0) only writes into it.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}

#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mib() -> f64 {
    f64::NAN
}

/// Last-level cache size in bytes as the CPU reports it (CPUID leaf 4,
/// deterministic cache parameters). `None` where the leaf is unavailable.
#[cfg(target_arch = "x86_64")]
pub fn llc_bytes() -> Option<usize> {
    use std::arch::x86_64::__cpuid_count;
    let mut best = None;
    for sub in 0..16 {
        let r = __cpuid_count(4, sub);
        let kind = r.eax & 0x1f;
        if kind == 0 {
            break;
        }
        let ways = ((r.ebx >> 22) & 0x3ff) as usize + 1;
        let partitions = ((r.ebx >> 12) & 0x3ff) as usize + 1;
        let line = (r.ebx & 0xfff) as usize + 1;
        let sets = r.ecx as usize + 1;
        best = Some(ways * partitions * line * sets);
    }
    best
}

#[cfg(not(target_arch = "x86_64"))]
pub fn llc_bytes() -> Option<usize> {
    None
}
