//! Inputs, checks, statistics and the result line shared by the workloads.

use std::path::PathBuf;
use std::time::Instant;

use fzgpu_core::Shape;
use fzgpu_data::{dataset, Dims, Scale};

use crate::calib::{Sample, C_REF_MS};
use crate::spans;

/// Command-line settings of one run.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the store container and the span dump go.
    pub out_dir: PathBuf,
}

/// SplitMix64: the benchmark's only source of randomness, seeded by `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A generated input field.
pub struct Field {
    pub name: &'static str,
    pub dims: Dims,
    pub data: Vec<f32>,
}

impl Field {
    pub fn shape(&self) -> Shape {
        self.dims.as_3d()
    }

    pub fn bytes(&self) -> usize {
        self.data.len() * 4
    }
}

/// Catalog dataset `name` at reduced scale, as the catalog generates it.
pub fn catalog(name: &'static str) -> Field {
    let f = dataset(name).expect("catalog dataset").generate(Scale::Reduced);
    Field { name, dims: f.dims, data: f.data }
}

/// The seeded stand-in for a catalog field: the field rolled circularly
/// along every axis by offsets drawn from `seed`. Every seed gives other
/// bytes at every position while the field keeps its statistics, so ratio
/// and speed do not swing with the seed.
pub fn roll(f: &Field, seed: u64) -> Field {
    let (nz, ny, nx) = f.dims.as_3d();
    let mut rng = Rng::new(seed ^ (f.name.len() as u64 * 7919));
    let (oz, oy, ox) = (rng.below(nz), rng.below(ny), rng.below(nx));
    let mut data = Vec::with_capacity(f.data.len());
    for z in 0..nz {
        for y in 0..ny {
            let row = (((z + oz) % nz) * ny + (y + oy) % ny) * nx;
            data.extend_from_slice(&f.data[row + ox..row + nx]);
            data.extend_from_slice(&f.data[row..row + ox]);
        }
    }
    Field { name: f.name, dims: f.dims, data }
}

/// Range-relative bound resolved to absolute, from the benchmark's own
/// reduction over the input.
pub fn abs_bound(data: &[f32], rel: f64) -> f64 {
    let (lo, hi) = data.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
        (lo.min(v as f64), hi.max(v as f64))
    });
    rel * (hi - lo)
}

/// Values of `back` off `orig` by more than `eb` plus the f32 slack the
/// repository's error-bound contract test allows (`max|x| · 1e-6`).
pub fn violations(orig: &[f32], back: &[f32], eb: f64) -> usize {
    if orig.len() != back.len() {
        return orig.len().max(1);
    }
    let max_abs = orig.iter().fold(0.0f64, |m, &v| m.max((v as f64).abs()));
    let limit = eb + max_abs * 1e-6;
    orig.iter().zip(back).filter(|(&a, &b)| ((a as f64) - (b as f64)).abs() > limit).count()
}

/// Median; the mean of the two middle values for an even count.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile, `0 < q ≤ 1`.
fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64) - 1e-9).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Medians of a sample set: calibrated seconds, raw seconds, `c` (ms).
pub fn med3(samples: &[Sample]) -> (f64, f64, f64) {
    let cal: Vec<f64> = samples.iter().map(Sample::cal).collect();
    let raw: Vec<f64> = samples.iter().map(|s| s.raw).collect();
    let c: Vec<f64> = samples.iter().map(|s| s.c).collect();
    (median(&cal), median(&raw), median(&c))
}

/// Report the read latency of a run, ms, over its distinct requests. A
/// request's latency is the median of its calibrated samples, each scaled
/// by the c taken around it; `read_p50_ms` and `read_p99_ms` are
/// nearest-rank percentiles of those medians across the requests. Every
/// request repeats through the run, so a host stall that hits one of its
/// samples moves its median little, while the spread of latency across
/// requests, which is the program's, stays in the tail. The raw figures
/// beside them are the same percentiles of raw medians, with the run's
/// median c. Requests never timed (a run too short to reach them) are
/// skipped.
pub fn report_latency(rep: &mut Report, by_request: &[Vec<Sample>]) {
    let timed: Vec<&Vec<Sample>> = by_request.iter().filter(|s| !s.is_empty()).collect();
    let per = |f: fn(&Sample) -> f64| -> Vec<f64> {
        timed.iter().map(|s| median(&s.iter().map(|x| f(x) * 1e3).collect::<Vec<_>>())).collect()
    };
    let (cal, raw) = (per(Sample::cal), per(|s| s.raw));
    let c = median(&timed.iter().flat_map(|s| s.iter().map(|x| x.c)).collect::<Vec<_>>());
    rep.cal("read_p50_ms", "ms", percentile(&cal, 0.5), percentile(&raw, 0.5), c);
    rep.cal("read_p99_ms", "ms", percentile(&cal, 0.99), percentile(&raw, 0.99), c);
    let samples: usize = timed.iter().map(|s| s.len()).sum();
    rep.note(format!("read latency: {} requests, {samples} samples", timed.len()));
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// A workload as a sequence of identical rounds.
pub trait Rounds {
    /// One round; `traced` rounds record spans and layer figures.
    fn round(&mut self, traced: bool);
    /// Forget everything recorded so far (after the warm-up round).
    fn reset(&mut self);
}

/// Run whole rounds until `cfg.seconds` have passed (at least two, so a
/// traced run has one round of each kind). In a traced run odd rounds
/// record spans and even rounds do not. One untimed warm-up round runs
/// first, and `reset` then clears what it recorded.
pub fn run_rounds(cfg: &Config, w: &mut impl Rounds) {
    w.round(false);
    w.reset();
    let t0 = Instant::now();
    let mut n = 0usize;
    while n < 2 || t0.elapsed().as_secs_f64() < cfg.seconds {
        let traced = cfg.trace && n % 2 == 1;
        spans::set_enabled(traced);
        w.round(traced);
        spans::set_enabled(false);
        n += 1;
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// The uncalibrated value and the median `c` behind it, ms.
    pub raw: Option<(f64, f64)>,
}

/// What a run prints: counts, metrics and notes.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Self { correct: true, attempted: 0, failed: 0, metrics: Vec::new(), notes: Vec::new() }
    }

    /// A value that is not a time.
    pub fn plain(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.into(), unit, value, raw: None });
    }

    /// A calibrated value with its raw twin and `c`.
    pub fn cal(&mut self, name: impl Into<String>, unit: &'static str, cal: f64, raw: f64, c: f64) {
        self.metrics.push(Metric { name: name.into(), unit, value: cal, raw: Some((raw, c)) });
    }

    /// A rate: `amount` over a (calibrated, raw, c) time from [`med3`].
    pub fn rate(&mut self, name: &str, unit: &'static str, amount: f64, t: (f64, f64, f64)) {
        self.cal(name, unit, amount / t.0, amount / t.1, t.2);
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Record a failed correctness check.
    pub fn wrong(&mut self, text: impl Into<String>) {
        self.correct = false;
        self.notes.push(format!("INCORRECT: {}", text.into()));
    }

    /// Print notes, a table (calibrated, raw, c), a `raw:` line for the
    /// steadiness script, and last the result line.
    pub fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        println!("# c_ref {C_REF_MS} ms; calibrated = raw × c_ref / c");
        for m in &self.metrics {
            match m.raw {
                Some((raw, c)) => println!(
                    "{:<36} {:>14.6} {:<9} raw {:>14.6}  c {:.4} ms",
                    m.name, m.value, m.unit, raw, c
                ),
                None => println!("{:<36} {:>14.6} {}", m.name, m.value, m.unit),
            }
        }
        let raws: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("\"{}\": {}", m.name, num(m.raw.map_or(m.value, |(r, _)| r))))
            .collect();
        println!("raw: {{{}}}", raws.join(", "));
        let vals: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            vals.join(", ")
        );
    }
}

/// A JSON number; a non-finite value is a benchmark bug.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v:?}")
}
