//! Host calibration: a frozen kernel timed beside every sample.
//!
//! The host's own speed drifts in phases of seconds: on a shared machine
//! the cache and memory traffic of other tenants comes and goes, and it
//! moves every raw time of this benchmark by a common factor. The kernel
//! below does fixed work on fixed data, so its time `c` measures the
//! host's speed at that moment. Every timed quantity is scaled to the
//! reference speed: `t × C_REF_MS / c`, where `c` is the mean of the
//! kernel times taken just before and just after the sample.
//!
//! The kernel is `sort_unstable` of a fixed pseudo-random `u32` array of
//! 128 KiB, which lives in L2 and, like the compressor, is bound by loads
//! and branches. An eight-lane integer multiply-add loop was tried beside
//! it and dropped: it stays flat while the compressor slows (README.md
//! gives the figures), so it only adds noise to `c`.
//!
//! The kernel is frozen: changing it, its size or [`C_REF_MS`] changes
//! every calibrated figure, so it is part of the benchmark's definition.

use std::hint::black_box;
use std::time::Instant;

/// Reference kernel time, milliseconds: a typical `c` on the host the
/// benchmark was tuned on (see README.md). Calibrated times read as if
/// every sample had run at that speed.
pub const C_REF_MS: f64 = 0.7;

/// Keys sorted per kernel run (128 KiB of `u32`).
const SORT_KEYS: usize = 32768;

/// One timed sample: raw seconds and the calibration beside it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Raw wall-clock seconds.
    pub raw: f64,
    /// Mean calibration kernel time around the sample, milliseconds.
    pub c: f64,
}

impl Sample {
    /// Seconds scaled to the reference host speed.
    pub fn cal(&self) -> f64 {
        self.raw * C_REF_MS / self.c
    }
}

/// The calibration kernel with its fixed inputs, plus every `c` measured.
pub struct Calib {
    keys: Vec<u32>,
    scratch: Vec<u32>,
    /// Every kernel time measured so far, milliseconds.
    pub history: Vec<f64>,
}

impl Calib {
    pub fn new() -> Self {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let keys = (0..SORT_KEYS).map(|_| (next() >> 32) as u32).collect();
        Self { keys, scratch: vec![0; SORT_KEYS], history: Vec::new() }
    }

    /// Run the kernel once; its time in milliseconds.
    pub fn measure(&mut self) -> f64 {
        let t0 = Instant::now();
        self.scratch.copy_from_slice(black_box(&self.keys[..]));
        self.scratch.sort_unstable();
        black_box(self.scratch[SORT_KEYS / 2]);
        let c = t0.elapsed().as_secs_f64() * 1e3;
        self.history.push(c);
        c
    }

    /// Run `f` between two kernel runs; returns its output and the mean
    /// kernel time. The caller times whatever it needs inside `f`.
    pub fn bracket<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.measure();
        let out = black_box(f());
        let after = self.measure();
        (out, 0.5 * (before + after))
    }

    /// Time `f` as one calibrated sample.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, Sample) {
        let ((out, raw), c) = self.bracket(|| {
            let t0 = Instant::now();
            let out = f();
            (out, t0.elapsed().as_secs_f64())
        });
        (out, Sample { raw, c })
    }
}
