//! `roundtrip`: whole-field compress and decompress on the native path.
//!
//! Seeded stand-ins of HACC (1-D), CESM (2-D) and RTM (3-D) at reduced
//! scale, rel bound 1e-3. Each round saves every field (compress, then
//! write the stream to a file through `FsBackend`) and loads it back (read
//! the file, decompress), ranks and directions interleaved. Every load is
//! checked against the bound.
//!
//! Each round also round-trips the catalog's own HACC field at rel 1e-5.
//! That operation fails every time today: the 16-bit code saturation in
//! `quant::delta_to_code` carries clipped deltas forward and the bound
//! breaks on almost every value. It counts as failed and stays out of
//! every rate and ratio, so mending the fault moves only `failed`.

use std::time::Instant;

use fzgpu_core::{crc32, format, ErrorBound, FzGpu, FzOptions, PipelinePath};
use fzgpu_sim::device::A100;
use fzgpu_store::{FsBackend, StorageBackend};

use crate::calib::{Calib, Sample, C_REF_MS};
use crate::spans::{self, span};
use crate::util::{
    abs_bound, catalog, med3, median, peak_rss_mib, report_latency, roll, run_rounds, violations,
    Config, Field, Report, Rounds,
};

/// Fields measured, one of each rank.
pub const FIELDS: [&str; 3] = ["HACC", "CESM", "RTM"];
const REL: f64 = 1e-3;
/// Bound of the round trip that fails on the saturation fault.
const FAIL_REL: f64 = 1e-5;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Save-and-load passes over the fields per round.
const CYCLES: usize = 2;
/// Operations attempted per round: a save and a load per field and pass,
/// plus the failing round trip.
const OPS_PER_ROUND: u64 = (CYCLES * 2 * FIELDS.len()) as u64 + 1;

#[derive(Default)]
struct Stats {
    compress: Vec<Sample>,
    /// Compress + write.
    save: Vec<Sample>,
    decompress: Vec<Sample>,
    /// Read + decompress.
    load: Vec<Sample>,
    memcpy: Vec<Sample>,
    verify: Vec<Sample>,
    crc: Vec<Sample>,
}

struct Item {
    field: Field,
    eb: f64,
    backend: FsBackend,
    stream: Vec<u8>,
    scratch: Vec<f32>,
    /// Index 0: untraced rounds; 1: traced rounds.
    stats: [Stats; 2],
}

struct Roundtrip {
    cal: Calib,
    fz: FzGpu,
    items: Vec<Item>,
    fixed_hacc: Field,
    fixed_eb: f64,
    rounds: u64,
    failed: u64,
    fixed_violations: usize,
    wrong: Vec<String>,
}

impl Rounds for Roundtrip {
    fn round(&mut self, traced: bool) {
        let k = traced as usize;
        let (cal, fz) = (&mut self.cal, &mut self.fz);
        for _ in 0..CYCLES {
            for it in self.items.iter_mut() {
                spans::next_request();
                let ((tc, tw), c) = cal.bracket(|| {
                    let _op = span("save");
                    let t0 = Instant::now();
                    let out = {
                        let _s = span("fastpath.compress");
                        fz.compress(&it.field.data, it.field.shape(), ErrorBound::RelToRange(REL))
                    };
                    let t1 = Instant::now();
                    {
                        let _s = span("backend.write");
                        it.backend.write_all(&out.bytes).expect("write stream file");
                    }
                    let t2 = Instant::now();
                    it.stream = out.bytes;
                    ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
                });
                it.stats[k].compress.push(Sample { raw: tc, c });
                it.stats[k].save.push(Sample { raw: tc + tw, c });
            }
            for it in self.items.iter_mut() {
                spans::next_request();
                let ((back, tr, td), c) = cal.bracket(|| {
                    let _op = span("load");
                    let t0 = Instant::now();
                    let bytes = {
                        let _s = span("backend.read");
                        it.backend.read_range(0, it.stream.len() as u64).expect("read stream file")
                    };
                    let t1 = Instant::now();
                    let back = {
                        let _s = span("fastpath.decompress");
                        fz.decompress_bytes(&bytes)
                    };
                    let t2 = Instant::now();
                    (back, (t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
                });
                it.stats[k].decompress.push(Sample { raw: td, c });
                it.stats[k].load.push(Sample { raw: tr + td, c });
                match back {
                    Ok(v) => {
                        let bad = violations(&it.field.data, &v, it.eb);
                        if bad > 0 {
                            self.wrong
                                .push(format!("{}: {bad} values break the bound", it.field.name));
                        }
                    }
                    Err(e) => {
                        self.wrong.push(format!("{}: decompress failed: {e:?}", it.field.name))
                    }
                }
            }
            if traced {
                for it in self.items.iter_mut() {
                    let ((tm, tv, tc), c) = cal.bracket(|| {
                        let t0 = Instant::now();
                        it.scratch.copy_from_slice(std::hint::black_box(&it.field.data));
                        let t1 = Instant::now();
                        let header = format::verify(&it.stream);
                        let t2 = Instant::now();
                        std::hint::black_box(crc32(&it.stream));
                        let t3 = Instant::now();
                        assert!(header.is_ok(), "a stream the program just wrote fails to verify");
                        ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64(), (t3 - t2).as_secs_f64())
                    });
                    it.stats[k].memcpy.push(Sample { raw: tm, c });
                    it.stats[k].verify.push(Sample { raw: tv, c });
                    it.stats[k].crc.push(Sample { raw: tc, c });
                }
            }
        }
        // The round trip the saturation fault breaks.
        let f = &self.fixed_hacc;
        let out = fz.compress(&f.data, f.shape(), ErrorBound::RelToRange(FAIL_REL));
        let bad = match fz.decompress(&out) {
            Ok(v) => violations(&f.data, &v, self.fixed_eb),
            Err(_) => f.data.len(),
        };
        self.fixed_violations = bad;
        if bad > 0 {
            self.failed += 1;
        }
        self.rounds += 1;
    }

    fn reset(&mut self) {
        for it in self.items.iter_mut() {
            it.stats = Default::default();
        }
        self.rounds = 0;
        self.failed = 0;
        self.wrong.clear();
    }
}

/// Σ over the fields of the median of one sample set: calibrated and raw
/// seconds, and the median c.
fn sum_med(items: &[Item], k: usize, pick: impl Fn(&Stats) -> &[Sample]) -> (f64, f64, f64) {
    let (mut cal, mut raw, mut cs) = (0.0, 0.0, Vec::new());
    for it in items {
        let (a, b, c) = med3(pick(&it.stats[k]));
        cal += a;
        raw += b;
        cs.push(c);
    }
    (cal, raw, median(&cs))
}

pub fn run(cfg: &Config) -> Report {
    let mut rep = Report::new();
    let mut cal = Calib::new();

    // Set-up: generate the inputs, SETUPS times; the last set is kept.
    let mut gen: Vec<Vec<Sample>> = vec![Vec::new(); FIELDS.len()];
    let mut setup: Vec<Sample> = Vec::new();
    let mut fields = Vec::new();
    let mut fixed = None;
    for _ in 0..SETUPS {
        fields.clear();
        let (mut raw, mut cal_s) = (0.0, 0.0);
        for (i, name) in FIELDS.iter().enumerate() {
            let ((f, base), s) = cal.timed(|| {
                let base = catalog(name);
                (roll(&base, cfg.seed), base)
            });
            gen[i].push(s);
            fields.push(f);
            if *name == "HACC" {
                fixed = Some(base);
            }
            (raw, cal_s) = (raw + s.raw, cal_s + s.cal());
        }
        // The c that scales the summed raw time to the summed calibrated one.
        setup.push(Sample { raw, c: raw * C_REF_MS / cal_s });
    }
    let fixed_hacc = fixed.expect("HACC is generated in every set-up");
    let fixed_eb = abs_bound(&fixed_hacc.data, FAIL_REL);
    let items: Vec<Item> = fields
        .into_iter()
        .enumerate()
        .map(|(i, field)| Item {
            eb: abs_bound(&field.data, REL),
            backend: FsBackend::new(
                cfg.out_dir.join(format!("roundtrip-{i}-{}.fz", std::process::id())),
            ),
            stream: Vec::new(),
            scratch: vec![0.0; field.data.len()],
            field,
            stats: Default::default(),
        })
        .collect();

    let mut w = Roundtrip {
        cal,
        fz: FzGpu::with_options(
            A100,
            FzOptions { path: PipelinePath::Native, ..FzOptions::default() },
        ),
        items,
        fixed_hacc,
        fixed_eb,
        rounds: 0,
        failed: 0,
        fixed_violations: 0,
        wrong: Vec::new(),
    };
    run_rounds(cfg, &mut w);
    for it in &w.items {
        let _ = std::fs::remove_file(it.backend.path());
    }
    for e in &w.wrong {
        rep.wrong(e.clone());
    }
    rep.attempted = w.rounds * OPS_PER_ROUND;
    rep.failed = w.failed;
    rep.note(format!(
        "roundtrip: {} rounds; catalog HACC at rel {FAIL_REL:e}: {} of {} values break the bound (counted as failed)",
        w.rounds,
        w.fixed_violations,
        w.fixed_hacc.data.len()
    ));

    let items = &w.items;
    let bytes: f64 = items.iter().map(|it| it.field.bytes() as f64).sum();
    let values = bytes / 4.0;
    if !cfg.trace {
        let (save, load) = (sum_med(items, 0, |s| &s.save), sum_med(items, 0, |s| &s.load));
        rep.rate("compress_gbps", "GB/s", bytes / 1e9, sum_med(items, 0, |s| &s.compress));
        rep.rate("decompress_gbps", "GB/s", bytes / 1e9, sum_med(items, 0, |s| &s.decompress));
        rep.rate("store_write_gbps", "GB/s", bytes / 1e9, save);
        rep.rate("read_mvalues_per_s", "Mvalues/s", values / 1e6, load);
        let both = (save.0 + load.0, save.1 + load.1, 0.5 * (save.2 + load.2));
        rep.rate("replay_mvalues_per_s", "Mvalues/s", 2.0 * values / 1e6, both);
        let (a, b, c) = med3(&setup);
        rep.cal("setup_s", "s", a, b, c);
        rep.plain("peak_rss_mib", "MiB", peak_rss_mib());
        let stream_bytes: f64 = items.iter().map(|it| it.stream.len() as f64).sum();
        rep.plain("ratio", "x", bytes / stream_bytes);
        // The requests are the fields' loads.
        let loads: Vec<Vec<Sample>> = items.iter().map(|it| it.stats[0].load.clone()).collect();
        report_latency(&mut rep, &loads);
    } else {
        let crc_bytes: f64 = items.iter().map(|it| it.stream.len() as f64).sum();
        rep.rate("host.memcpy_gbps", "GB/s", bytes / 1e9, sum_med(items, 1, |s| &s.memcpy));
        rep.rate("crc.gbps", "GB/s", crc_bytes / 1e9, sum_med(items, 1, |s| &s.crc));
        for (i, it) in items.iter().enumerate() {
            let n = it.field.name;
            let s = &it.stats[1];
            let ms = |x: &[Sample]| {
                let (a, b, c) = med3(x);
                (a * 1e3, b * 1e3, c)
            };
            let (g, gr, gc) = med3(&gen[i]);
            rep.cal(format!("data.generate_s.{n}"), "s", g, gr, gc);
            let (cm, cr, cc) = ms(&s.compress);
            let (dm, dr, dc) = ms(&s.decompress);
            let (vm, vr, vc) = ms(&s.verify);
            let mm = ms(&s.memcpy).0;
            rep.cal(format!("fastpath.compress_ms.{n}"), "ms", cm, cr, cc);
            rep.cal(format!("fastpath.decompress_ms.{n}"), "ms", dm, dr, dc);
            rep.plain(format!("fastpath.compress_x_memcpy.{n}"), "x", cm / mm);
            rep.plain(format!("fastpath.decompress_x_memcpy.{n}"), "x", dm / mm);
            rep.cal(format!("format.verify_ms.{n}"), "ms", vm, vr, vc);
        }
        let op = |k| sum_med(items, k, |s| &s.save).0 + sum_med(items, k, |s| &s.load).0;
        rep.plain("trace.overhead_x", "x", op(1) / op(0));
        // Save is compress + write and load is read + decompress; the
        // spans of those calls must account for the whole operation.
        for name in ["save", "load"] {
            let gap = spans::uncovered_share(name);
            rep.note(format!("{name}: layer spans leave {:.3}% uncovered (median)", gap * 100.0));
            if gap > spans::DECOMPOSITION_TOLERANCE {
                rep.wrong(format!("{name}: layer times miss {:.2}% of the operation", gap * 100.0));
            }
        }
        rep.plain("host.calib_ms", "ms", median(&w.cal.history));
    }
    rep
}
