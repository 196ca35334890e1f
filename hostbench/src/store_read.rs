//! `store-read`: subregion reads from a chunked store on the filesystem.
//!
//! The catalog's RTM field (150×150×78 values, 7 MB) in an `ArrayStore` on
//! `FsBackend`, 32³ chunks (128 KiB of values, inside one core's L2;
//! 5×5×3 chunks, the last of each axis clipped), eight chunks per shard, `fz` codec at rel 1e-3 on the
//! native path. Each round re-creates and reopens the store (the write),
//! then reads the next 64 of the first 512 regions of the repository's own
//! seeded region sequence (`fzgpu_serve::store_read::region_at`, the one
//! the store bench and `fzgpu store serve` replay), in turn, so every
//! region is read several times in a run; then it compresses and decompresses the
//! whole field once as the unchunked reference. The seed's inputs are the
//! requests; the field is fixed, so chunk contents and ratio do not move
//! with the seed. Every region is checked against the benchmark's own
//! slice of the original field.

use std::time::Instant;

use fzgpu_core::{crc32, format, ErrorBound, FzGpu, FzOptions, PipelinePath};
use fzgpu_serve::store_read::region_at;
use fzgpu_sim::device::A100;
use fzgpu_store::{
    ArrayStore, CodecConfig, FsBackend, Region, Registry, StorageBackend, StoreSpec,
};

use crate::calib::{Calib, Sample, C_REF_MS};
use crate::layers::{timed_registry, values_decoded, TimedBackend};
use crate::spans::{self, span};
use crate::util::{
    abs_bound, catalog, med3, median, peak_rss_mib, report_latency, run_rounds, violations, Config,
    Field, Report, Rounds,
};

/// The catalog dataset the store holds.
pub const FIELD: &str = "RTM";
const REL: f64 = 1e-3;
const CHUNK: [usize; 3] = [32, 32, 32];
const CHUNKS_PER_SHARD: usize = 8;
const SETUPS: usize = 9;

/// The run's requests: the first this many regions of the sequence. They
/// are read in turn, [`READS_PER_ROUND`] per round, so a 30-s run at the
/// reference speed reads each about six times, and each region's latency
/// is the median of its reads.
const REGIONS: usize = 512;
/// Reads per round: the next this many of the run's regions.
const READS_PER_ROUND: usize = 64;
const _: () = assert!(REGIONS % READS_PER_ROUND == 0);

/// One read's figures.
struct Read {
    /// Index of the region in the sequence.
    region: usize,
    sample: Sample,
    values: usize,
    bytes: u64,
    backend_reads: u64,
    chunks: usize,
    shards: usize,
    decoded: u64,
}

/// Values moved in calibrated and raw seconds, with the c behind them.
#[derive(Clone, Copy)]
struct Work {
    values: f64,
    cal_s: f64,
    raw_s: f64,
    c: f64,
}

#[derive(Default)]
struct Stats {
    create: Vec<Sample>,
    open: Vec<Sample>,
    reads: Vec<Read>,
    /// Per round: values moved and the calibrated and raw seconds they
    /// took, with c; first of the reads, then of every operation.
    read_work: Vec<Work>,
    round_work: Vec<Work>,
    compress: Vec<Sample>,
    decompress: Vec<Sample>,
    memcpy: Vec<Sample>,
    verify: Vec<Sample>,
    crc: Vec<(f64, Sample)>,
}

struct StoreRead {
    cal: Calib,
    fz: FzGpu,
    field: Field,
    eb: f64,
    spec: StoreSpec,
    path: std::path::PathBuf,
    seed: u64,
    /// Index of the next region to read, below [`REGIONS`].
    next: usize,
    stream_bytes: usize,
    container_bytes: u64,
    rounds: u64,
    stats: [Stats; 2],
    wrong: Vec<String>,
}

fn backend(path: &std::path::Path, traced: bool) -> Box<dyn StorageBackend> {
    if traced {
        Box::new(TimedBackend(FsBackend::new(path)))
    } else {
        Box::new(FsBackend::new(path))
    }
}

/// Create the container and open it; returns the store and the create
/// and open times in seconds.
fn create_and_open(
    reg: &Registry,
    path: &std::path::Path,
    spec: &StoreSpec,
    data: &[f32],
    traced: bool,
) -> (ArrayStore, f64, f64) {
    let mut b = backend(path, traced);
    spans::next_request();
    let t0 = Instant::now();
    {
        let _op = span("store.create");
        ArrayStore::create_with_registry(reg, &mut b, spec, data, A100).expect("create store");
    }
    let t1 = Instant::now();
    spans::next_request();
    let store = {
        let _op = span("store.open");
        ArrayStore::open_with_registry(reg, b, A100).expect("open store")
    };
    let t2 = Instant::now();
    (store, (t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
}

/// The benchmark's own slice of `data` (C order, dims `(z, y, x)`).
fn slice(data: &[f32], dims: [usize; 3], r: &Region) -> Vec<f32> {
    let mut out = Vec::with_capacity(r.count());
    for z in r.lo[0]..r.hi[0] {
        for y in r.lo[1]..r.hi[1] {
            let row = (z * dims[1] + y) * dims[2];
            out.extend_from_slice(&data[row + r.lo[2]..row + r.hi[2]]);
        }
    }
    out
}

impl Rounds for StoreRead {
    fn round(&mut self, traced: bool) {
        let k = traced as usize;
        let reg = if traced { timed_registry() } else { Registry::builtin() };
        let dims = {
            let (z, y, x) = self.field.shape();
            [z, y, x]
        };
        let (field, eb) = (&self.field, self.eb);
        let (path, spec) = (&self.path, &self.spec);

        // The write: re-create and reopen the store.
        let ((mut store, tc, to), c) =
            self.cal.bracket(|| create_and_open(&reg, path, spec, &field.data, traced));
        self.stats[k].create.push(Sample { raw: tc, c });
        self.stats[k].open.push(Sample { raw: to, c });
        self.container_bytes = store.container_bytes();

        // The reads.
        // A traced round repeats the untraced round before it, so the
        // tracing overhead compares the same reads.
        let first =
            if traced { (self.next + REGIONS - READS_PER_ROUND) % REGIONS } else { self.next };
        let regions: Vec<Region> =
            (first..first + READS_PER_ROUND).map(|i| region_at(&dims, self.seed, i)).collect();
        if !traced {
            self.next = (self.next + READS_PER_ROUND) % REGIONS;
        }
        // Each read is checked as soon as it is timed, so no more than one
        // region's values are held at a time.
        let (results, c) = self.cal.bracket(|| {
            let mut out = Vec::with_capacity(regions.len());
            for (i, r) in (first..).zip(&regions) {
                spans::next_request();
                let d0 = values_decoded();
                let t0 = Instant::now();
                let res = {
                    let _op = span("store.read");
                    store.read_region(r)
                };
                let t = t0.elapsed().as_secs_f64();
                let decoded = values_decoded() - d0;
                out.push(res.map(|res| {
                    let bad = violations(&slice(&field.data, dims, r), &res.values, eb);
                    let read = Read {
                        region: i,
                        sample: Sample { raw: t, c: 0.0 },
                        values: r.count(),
                        bytes: res.bytes_read,
                        backend_reads: res.backend_reads,
                        chunks: res.chunks_decoded,
                        shards: res.shards_touched,
                        decoded,
                    };
                    (read, bad)
                }));
            }
            out
        });
        let (mut vals, mut cal_s, mut raw_s) = (0.0, 0.0, 0.0);
        for (r, res) in regions.iter().zip(results) {
            match res {
                Ok((mut read, bad)) => {
                    if bad > 0 {
                        self.wrong.push(format!("region {r:?}: {bad} values break the bound"));
                    }
                    read.sample.c = c;
                    vals += read.values as f64;
                    cal_s += read.sample.cal();
                    raw_s += read.sample.raw;
                    self.stats[k].reads.push(read);
                }
                Err(e) => self.wrong.push(format!("region {r:?}: read failed: {e}")),
            }
        }
        self.stats[k].read_work.push(Work { values: vals, cal_s, raw_s, c });

        // The unchunked reference.
        let fz = &mut self.fz;
        let ((out, t), c1) = self.cal.bracket(|| {
            let t0 = Instant::now();
            let _s = span("fastpath.compress");
            let out = fz.compress(&field.data, field.shape(), ErrorBound::RelToRange(REL));
            (out, t0.elapsed().as_secs_f64())
        });
        self.stats[k].compress.push(Sample { raw: t, c: c1 });
        self.stream_bytes = out.bytes.len();
        let ((back, t), c2) = self.cal.bracket(|| {
            let t0 = Instant::now();
            let _s = span("fastpath.decompress");
            let back = fz.decompress(&out);
            (back, t0.elapsed().as_secs_f64())
        });
        self.stats[k].decompress.push(Sample { raw: t, c: c2 });
        match back {
            Ok(v) if violations(&field.data, &v, self.eb) == 0 => {}
            _ => self.wrong.push("whole-field reference breaks the bound".into()),
        }

        let n = field.data.len() as f64;
        let s = &self.stats[k];
        let last = |v: &Vec<Sample>| *v.last().expect("pushed this round");
        let ops = [last(&s.create), last(&s.compress), last(&s.decompress)];
        let cal_t = cal_s + ops.iter().map(Sample::cal).sum::<f64>();
        let raw_t = raw_s + ops.iter().map(|s| s.raw).sum::<f64>();
        let moved = vals + 3.0 * n;
        self.stats[k].round_work.push(Work { values: moved, cal_s: cal_t, raw_s: raw_t, c });

        if traced {
            let container = std::fs::read(path).expect("read the container back");
            let mut scratch = vec![0.0f32; field.data.len()];
            let ((tm, tv, tcrc), c) = self.cal.bracket(|| {
                let t0 = Instant::now();
                scratch.copy_from_slice(std::hint::black_box(&field.data));
                let t1 = Instant::now();
                let ok = format::verify(&out.bytes).is_ok();
                let t2 = Instant::now();
                std::hint::black_box(crc32(&container));
                let t3 = Instant::now();
                assert!(ok, "a stream the program just wrote fails to verify");
                ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64(), (t3 - t2).as_secs_f64())
            });
            let s = &mut self.stats[k];
            s.memcpy.push(Sample { raw: tm, c });
            s.verify.push(Sample { raw: tv, c });
            s.crc.push((container.len() as f64, Sample { raw: tcrc, c }));
        }
        self.rounds += 1;
    }

    fn reset(&mut self) {
        self.stats = Default::default();
        self.rounds = 0;
        self.wrong.clear();
    }
}

/// Values per second over all rounds: calibrated, raw, and the median c.
/// Rounds read different regions, so their totals are pooled rather than
/// their rates taken one by one.
fn rate(v: &[Work]) -> (f64, f64, f64) {
    let values: f64 = v.iter().map(|w| w.values).sum();
    let cal: f64 = v.iter().map(|w| w.cal_s).sum();
    let raw: f64 = v.iter().map(|w| w.raw_s).sum();
    (values / cal, values / raw, median(&v.iter().map(|w| w.c).collect::<Vec<_>>()))
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut s, mut n) = (0.0, 0usize);
    for x in xs {
        s += x;
        n += 1;
    }
    s / n.max(1) as f64
}

pub fn run(cfg: &Config) -> Report {
    let mut rep = Report::new();
    let mut cal = Calib::new();
    let path = cfg.out_dir.join(format!("store-{}.fzst", std::process::id()));

    // Set-up: generate the field, create and open the store; SETUPS times.
    let mut gen = Vec::new();
    let mut setup = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let (field, g) = cal.timed(|| catalog(FIELD));
        let eb = abs_bound(&field.data, REL);
        let (z, y, x) = field.shape();
        let spec = StoreSpec {
            dims: vec![z, y, x],
            chunk: CHUNK.to_vec(),
            codec: CodecConfig::Fz { eb_abs: eb },
            chunks_per_shard: CHUNKS_PER_SHARD,
        };
        let ((_, tc, to), c) =
            cal.bracket(|| create_and_open(&Registry::builtin(), &path, &spec, &field.data, false));
        let create = Sample { raw: tc + to, c };
        let raw = g.raw + create.raw;
        let cal_s = g.cal() + create.cal();
        setup.push(Sample { raw, c: raw * C_REF_MS / cal_s });
        gen.push(g);
        kept = Some((field, eb, spec));
    }
    let (field, eb, spec) = kept.expect("at least one set-up");

    let mut w = StoreRead {
        cal,
        fz: FzGpu::with_options(
            A100,
            FzOptions { path: PipelinePath::Native, ..FzOptions::default() },
        ),
        field,
        eb,
        spec,
        path: path.clone(),
        seed: cfg.seed,
        next: 0,
        stream_bytes: 0,
        container_bytes: 0,
        rounds: 0,
        stats: Default::default(),
        wrong: Vec::new(),
    };
    run_rounds(cfg, &mut w);
    let _ = std::fs::remove_file(&path);
    for e in &w.wrong {
        rep.wrong(e.clone());
    }
    rep.attempted = w.rounds * (READS_PER_ROUND as u64 + 3);
    let chunks: usize =
        w.spec.dims.iter().zip(&w.spec.chunk).map(|(d, c)| d.div_ceil(*c)).product();
    rep.note(format!(
        "store-read: {} rounds of {} reads; {chunks} chunks in {} shards",
        w.rounds,
        READS_PER_ROUND,
        chunks.div_ceil(CHUNKS_PER_SHARD)
    ));

    let bytes = w.field.bytes() as f64;
    if !cfg.trace {
        let s = &w.stats[0];
        let (a, b, c) = med3(&setup);
        rep.cal("setup_s", "s", a, b, c);
        rep.plain("peak_rss_mib", "MiB", peak_rss_mib());
        rep.plain("ratio", "x", bytes / w.container_bytes as f64);
        rep.rate("compress_gbps", "GB/s", bytes / 1e9, med3(&s.compress));
        rep.rate("decompress_gbps", "GB/s", bytes / 1e9, med3(&s.decompress));
        rep.rate("store_write_gbps", "GB/s", bytes / 1e9, med3(&s.create));
        let (a, b, c) = rate(&s.read_work);
        rep.cal("read_mvalues_per_s", "Mvalues/s", a / 1e6, b / 1e6, c);
        let mut reads = vec![Vec::new(); REGIONS];
        for r in &s.reads {
            reads[r.region].push(r.sample);
        }
        report_latency(&mut rep, &reads);
        let (a, b, c) = rate(&s.round_work);
        rep.cal("replay_mvalues_per_s", "Mvalues/s", a / 1e6, b / 1e6, c);
        rep.note(format!(
            "{} reads timed; unchunked stream {} bytes",
            s.reads.len(),
            w.stream_bytes
        ));
    } else {
        let s = &w.stats[1];
        let (a, b, c) = med3(&gen);
        rep.cal(format!("data.generate_s.{FIELD}"), "s", a, b, c);
        let (cm, cr, cc) = med3(&s.compress);
        let (dm, dr, dc) = med3(&s.decompress);
        let (mm, mr, mc) = med3(&s.memcpy);
        let (vm, vr, vc) = med3(&s.verify);
        rep.cal(format!("fastpath.compress_ms.{FIELD}"), "ms", cm * 1e3, cr * 1e3, cc);
        rep.cal(format!("fastpath.decompress_ms.{FIELD}"), "ms", dm * 1e3, dr * 1e3, dc);
        rep.plain(format!("fastpath.compress_x_memcpy.{FIELD}"), "x", cm / mm);
        rep.plain(format!("fastpath.decompress_x_memcpy.{FIELD}"), "x", dm / mm);
        rep.cal(format!("format.verify_ms.{FIELD}"), "ms", vm * 1e3, vr * 1e3, vc);
        rep.rate("host.memcpy_gbps", "GB/s", bytes / 1e9, (mm, mr, mc));
        let crc_cal: Vec<f64> = s.crc.iter().map(|(n, t)| n / t.cal()).collect();
        let crc_raw: Vec<f64> = s.crc.iter().map(|(n, t)| n / t.raw).collect();
        let crc_c: Vec<f64> = s.crc.iter().map(|(_, t)| t.c).collect();
        let crc_bps = median(&crc_cal);
        rep.cal("crc.gbps", "GB/s", crc_bps / 1e9, median(&crc_raw) / 1e9, median(&crc_c));

        // Span-derived layer times, scaled by the traced reads' median c.
        let c_reads = rate(&s.read_work).2;
        let scale = C_REF_MS / c_reads * 1e3;
        let reads = spans::ops("store.read");
        let per = |f: &dyn Fn(&spans::Op) -> f64| mean(reads.iter().map(f)) * scale;
        rep.plain("store.read_self_ms", "ms", per(&|o| o.dur - o.covered()));
        rep.plain("backend.read_ms", "ms", per(&|o| o.child("backend.read")));
        rep.plain("codec.decode_ms", "ms", per(&|o| o.child("codec.decode")));
        let values: f64 = s.reads.iter().map(|r| r.values as f64).sum();
        let n = s.reads.len() as f64;
        rep.plain(
            "backend.reads_per_read",
            "count",
            mean(s.reads.iter().map(|r| r.backend_reads as f64)),
        );
        rep.plain(
            "backend.bytes_per_value",
            "B/value",
            s.reads.iter().map(|r| r.bytes as f64).sum::<f64>() / values,
        );
        rep.plain(
            "codec.values_decoded_per_value",
            "x",
            s.reads.iter().map(|r| r.decoded as f64).sum::<f64>() / values,
        );
        rep.plain("store.chunks_per_read", "count", mean(s.reads.iter().map(|r| r.chunks as f64)));
        rep.plain("store.shards_per_read", "count", mean(s.reads.iter().map(|r| r.shards as f64)));
        // The decorators must see exactly the calls the store reports.
        let backend_reads: u64 = s.reads.iter().map(|r| r.backend_reads).sum();
        let chunks: usize = s.reads.iter().map(|r| r.chunks).sum();
        if spans::child_count("store.read", "backend.read") as u64 != backend_reads
            || spans::child_count("store.read", "codec.decode") != chunks
        {
            rep.wrong("layer spans disagree with the store's own read accounting");
        }
        let bytes_per_read = s.reads.iter().map(|r| r.bytes as f64).sum::<f64>() / n;
        rep.plain("crc.pass_ms_per_read", "ms", bytes_per_read / crc_bps * 1e3);

        let c_create = median(&s.create.iter().map(|x| x.c).collect::<Vec<_>>());
        let scale = C_REF_MS / c_create * 1e3;
        let creates = spans::ops("store.create");
        let per = |f: &dyn Fn(&spans::Op) -> f64| mean(creates.iter().map(f)) * scale;
        rep.plain("store.create_self_ms", "ms", per(&|o| o.dur - o.covered()));
        rep.plain("codec.encode_ms", "ms", per(&|o| o.child("codec.encode")));
        rep.plain("backend.write_ms", "ms", per(&|o| o.child("backend.write")));
        let (a, b, c) = med3(&s.open);
        rep.cal("store.open_ms", "ms", a * 1e3, b * 1e3, c);

        let read_rate = |k: usize| rate(&w.stats[k].read_work).0;
        rep.plain("trace.overhead_x", "x", read_rate(0) / read_rate(1));
        rep.plain("host.calib_ms", "ms", median(&w.cal.history));
    }
    rep
}
