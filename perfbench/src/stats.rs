//! Small numeric helpers: quantiles, the tail-percentile rule, a seeded
//! generator, peak memory, and the result line.

use std::collections::BTreeMap;

/// Percentiles the tail metric may take, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The highest ladder percentile with at least ten samples beyond it
/// when a run holds `n` samples. Workloads pass their guaranteed
/// minimum sample count, so the percentile is fixed per workload and
/// does not move with how many samples one run happened to take.
pub fn tail_percentile(n: usize) -> f64 {
    let mut best = TAIL_LADDER[0];
    for p in TAIL_LADDER {
        // The epsilon keeps 100 samples at p90 despite 0.9's rounding.
        if n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9 {
            best = p;
        }
    }
    best
}

/// SplitMix64: the workload seed's only consumer-visible randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0bec_b3ac_4f11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets the benchmark runs on) and the
    // clock id is one of the two CPU-time clocks Linux always provides.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Host CPU time the calling thread has run, in ns, as the scheduler
/// accounts it: time the hypervisor stole from the virtual CPU is not
/// counted.
///
/// The benchmark times batch work with CPU clocks rather than the wall
/// clock: on a host whose virtual CPUs lose a varying share of time to
/// steal, wall time moves by 10% or more between identical runs.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Host CPU time of the whole process — every thread, live or exited —
/// in ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Host CPU time (ns) of this process's live threads named `name`, from
/// their scheduler statistics (which advance at scheduler ticks, so
/// measure intervals of seconds).
pub fn named_threads_cpu_ns(name: &str) -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.trim_end() == name)
        })
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next().and_then(|v| v.parse::<u64>().ok()))
        .sum()
}

/// Named metrics of one run, in insertion-independent (sorted) order.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, (value, unit));
    }
}

/// What one run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Side facts for the report (which percentile the tail is, the
    /// workload's own names for its metrics, SLO misses).
    pub extra: Metrics,
    /// Why the run is not correct, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Metrics::default(),
            extra: Metrics::default(),
            problems: Vec::new(),
        }
    }

    /// Records a correctness failure.
    pub fn wrong(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.problems.push(why.into());
    }
}

fn json_metrics(m: &Metrics) -> String {
    let items: Vec<String> = m
        .0
        .iter()
        .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", fmt_num(*v)))
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl Outcome {
    /// The side-facts line (`# extra {...}`) printed before the result.
    pub fn extra_line(&self) -> String {
        format!("# extra {}", json_metrics(&self.extra))
    }

    /// The result line: the last line of standard output.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            json_metrics(&self.metrics)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(400), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
    }

    #[test]
    fn rng_is_a_pure_function_of_the_seed() {
        let a: Vec<u64> = (0..4).map(|_| 0).scan(Rng::new(7), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..4).map(|_| 0).scan(Rng::new(7), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
    }
}
