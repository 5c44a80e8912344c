//! Clocks, process counters, order statistics, and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics (`--trace 0`), in print order, with their units.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("done_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("wall_s", "s"),
    ("energy_error_mha", "mHa"),
    ("compiled_cnots", "count"),
    ("jobs_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`), in print order, with their units.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("chem.exact_reference_ms", "ms"),
    ("vqe.run_ms", "ms"),
    ("vqe.iterations", "count"),
    ("vqe.evaluations", "count"),
    ("vqe.prepare_state_ms", "ms"),
    ("vqe.energy_and_gradient_ms", "ms"),
    ("sim.expectation_ms", "ms"),
    ("sim.expectation_clustered_ms", "ms"),
    ("pauli.apply_ms", "ms"),
    ("par.threads_spawned", "count"),
    ("chem.build_ms", "ms"),
    ("chem.scf_iterations", "count"),
    ("ansatz.compress_ms", "ms"),
    ("supervisor.batch_ms", "ms"),
    ("supervisor.retries", "count"),
    ("supervisor.parallel_efficiency", "ratio"),
    ("serve.ping_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.duplicate_computes", "count"),
    ("serve.cache_load_us", "us"),
    ("serve.cache_store_us", "us"),
    ("ansatz.kept_parameters", "count"),
    ("pauli.group_ms", "ms"),
    ("compiler.mtr_ms", "ms"),
    ("compiler.added_cnots", "count"),
    ("obs.overhead_pct", "%"),
];

/// One reported figure and the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    pub value: f64,
    pub samples: usize,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase (jobs or requests).
    pub attempted: usize,
    /// Of those, the ones that failed or gave a wrong answer.
    pub failed: usize,
    /// Failed correctness checks, one message each.
    pub failures: Vec<String>,
    /// Figures by metric name.
    pub figures: BTreeMap<&'static str, Figure>,
    /// How a figure was derived, where its name alone would mislead.
    pub notes: BTreeMap<&'static str, String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.figures.insert(name, Figure { value, samples });
    }

    /// `done_frac`: operations that completed correctly, of those attempted.
    pub fn set_done_frac(&mut self) {
        let attempted = self.attempted.max(1);
        let done = attempted.saturating_sub(self.failed);
        self.set("done_frac", done as f64 / attempted as f64, attempted);
    }

    /// `request_p50_ms` and `request_p90_ms` from latencies in seconds. A
    /// percentile is reported only when ten samples lie above it; with
    /// fewer, the median and the maximum of the sample stand in and the
    /// printed table says so.
    pub fn set_latency(&mut self, latencies_s: &[f64]) {
        let ms: Vec<f64> = latencies_s.iter().map(|s| s * 1e3).collect();
        let n = ms.len();
        for (name, q) in [("request_p50_ms", 0.5), ("request_p90_ms", 0.9)] {
            let value = if resolvable(n, q) {
                quantile(&ms, q).unwrap_or(0.0)
            } else {
                let stand_in = if q == 0.5 { "median" } else { "maximum" };
                self.notes.insert(
                    name,
                    format!("{stand_in} of {n} latencies: too few samples for a percentile"),
                );
                if q == 0.5 {
                    median(&ms)
                } else {
                    ms.iter().copied().fold(0.0, f64::max)
                }
            };
            self.set(name, value, n);
        }
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of a sample; 0 for an empty one.
pub fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Nearest rank of the `q`-quantile in a sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Whether a sample of `n` has at least ten samples above its
/// `q`-quantile.
pub fn resolvable(n: usize, q: f64) -> bool {
    n >= rank(n, q) + 10
}

/// The `q`-quantile (nearest rank), only when [`resolvable`].
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if !resolvable(xs.len(), q) {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(xs.len(), q) - 1])
}

/// CPU time (user + system) of the whole process so far, in seconds,
/// from `/proc/self/stat` (every thread, live or joined).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / clock_ticks_per_s(),
        _ => 0.0,
    }
}

/// `AT_CLKTCK` from the auxiliary vector (the unit of `/proc/*/stat`
/// times); 100 if it cannot be read.
fn clock_ticks_per_s() -> f64 {
    const AT_CLKTCK: u64 = 17;
    let Ok(bytes) = std::fs::read("/proc/self/auxv") else {
        return 100.0;
    };
    for pair in bytes.chunks_exact(16) {
        let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().unwrap_or([0; 8]));
        if word(&pair[..8]) == AT_CLKTCK {
            return word(&pair[8..]) as f64;
        }
    }
    100.0
}

/// Peak resident set size (VmHWM) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's only source of seeded choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}
