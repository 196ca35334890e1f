//! `serve-replay`: a seeded trace replayed through `Service::run`.
//!
//! The trace has the shape of the service bench's (`bench_workload` in
//! `crates/bench/src/bin/service.rs`): 12 groups 40 µs apart, each a burst
//! of four 16K-value compressions, one 128K-value compression and one
//! 64K-value decompression, over the service's sine, ramp and mixed
//! generators. The run's seed sets the generator seeds. The service runs
//! the simulated path on the analytic engine with 2 streams, the memory
//! pool and batching on, no faults, and a queue deep enough to admit every
//! job. Arrivals are modeled, so the replay runs as fast as the host
//! allows.
//!
//! Before the replay the service stages the input stream of every
//! decompress job (generate, then compress on the same engine), untimed in
//! its own report. Each round times that staging outside the service with
//! the same calls, so the scheduler's own time can be told from it.
//!
//! Set-up runs every request outside the service on the native path, an
//! independent implementation the repository holds byte-identical: every
//! job digest must equal the CRC of its outside run.

use std::time::Instant;

use fzgpu_core::{crc32, ErrorBound, FzGpu, FzOptions, PipelinePath};
use fzgpu_serve::workload::synth_field;
use fzgpu_serve::{FieldKind, Op, Request, ServeConfig, ServeReport, Service, Workload};
use fzgpu_sim::device::A100;
use fzgpu_sim::Engine;

use crate::calib::{Calib, Sample};
use crate::spans::{self, span};
use crate::util::{med3, median, peak_rss_mib, report_latency, run_rounds, Config, Report, Rounds};

/// Job sizes in values, and their labels in metric names.
pub const SIZES: [usize; 3] = [1 << 14, 1 << 16, 1 << 17];
pub const SIZE_LABELS: [&str; 3] = ["16K", "64K", "128K"];
/// Groups in the trace, and the modeled gap between them.
const GROUPS: u64 = 12;
const GROUP_GAP_S: f64 = 40e-6;
const REL: f64 = 1e-3;
const SETUPS: usize = 9;

/// The trace: the service bench's groups, with generator seeds offset by
/// the run's seed.
fn trace(seed: u64) -> Workload {
    let job = |arrival: f64, op, n, eb, field, seed| Request {
        arrival,
        op,
        n,
        eb,
        field,
        seed,
        priority: 0,
    };
    let mut requests = Vec::new();
    for g in 0..GROUPS {
        let t = g as f64 * GROUP_GAP_S;
        let s = (seed << 16) + g * 17 + 1;
        let kind = if g % 3 == 0 { FieldKind::Sine } else { FieldKind::Mixed };
        for k in 0..4u64 {
            requests.push(job(
                t + k as f64 * 1e-6,
                Op::Compress,
                SIZES[0],
                ErrorBound::Abs(1e-3),
                kind,
                s + k,
            ));
        }
        requests.push(job(
            t + 8e-6,
            Op::Compress,
            SIZES[2],
            ErrorBound::RelToRange(REL),
            FieldKind::Ramp,
            s,
        ));
        requests.push(job(
            t + 12e-6,
            Op::Decompress,
            SIZES[1],
            ErrorBound::Abs(1e-3),
            FieldKind::Sine,
            s,
        ));
    }
    Workload { name: format!("hostbench-{seed}"), device: A100, requests }
}

/// Digest of each request run outside the service on the native path:
/// the CRC of the stream for a compress, of the output's bits for a
/// decompress.
fn reference(fz: &mut FzGpu, w: &Workload) -> Vec<u32> {
    w.requests
        .iter()
        .map(|r| {
            let c = fz.compress(&synth_field(r.field, r.n, r.seed), (1, 1, r.n), r.eb);
            match r.op {
                Op::Compress => crc32(&c.bytes),
                Op::Decompress => {
                    let out = fz.decompress(&c).expect("a fresh stream decompresses");
                    let bytes: Vec<u8> =
                        out.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
                    crc32(&bytes)
                }
            }
        })
        .collect()
}

#[derive(Default)]
struct Stats {
    /// Per round: `Service::run`.
    replay: Vec<Sample>,
    /// Per round: Σ `JobResult::host_seconds`, all jobs, then by direction.
    exec: Vec<Sample>,
    compress_jobs: Vec<Sample>,
    decompress_jobs: Vec<Sample>,
    /// Per job id: its `host_seconds` in every replay, with the replay's c.
    job_times: Vec<Vec<Sample>>,
    /// Per round: the service's staging of decompress inputs, timed outside.
    staging: Vec<Sample>,
    synth: Vec<Sample>,
    /// Per size: (analytic, native) compress samples.
    analytic: Vec<Vec<(Sample, Sample)>>,
    batches: usize,
    pool_hits: u64,
    pool_misses: u64,
}

struct ServeReplay {
    cal: Calib,
    native: FzGpu,
    service: Service,
    workload: Workload,
    digests: Vec<u32>,
    rounds: u64,
    ratio: f64,
    stats: [Stats; 2],
    wrong: Vec<String>,
}

fn serve_config(n_requests: usize) -> ServeConfig {
    ServeConfig {
        streams: 2,
        pool: true,
        batch_max: 4,
        queue_depth: n_requests,
        path: PipelinePath::Simulated,
        engine: Engine::Analytic,
        ..ServeConfig::default()
    }
}

fn native() -> FzGpu {
    FzGpu::with_options(A100, FzOptions { path: PipelinePath::Native, ..FzOptions::default() })
}

fn analytic() -> FzGpu {
    FzGpu::with_options(
        A100,
        FzOptions {
            path: PipelinePath::Simulated,
            engine: Engine::Analytic,
            ..FzOptions::default()
        },
    )
}

/// What `Service::run` does before it replays: generate the input of every
/// decompress job and compress it on the service's engine.
fn stage(w: &Workload) -> usize {
    let mut fz = analytic();
    let mut bytes = 0;
    for r in w.requests.iter().filter(|r| r.op == Op::Decompress) {
        let data = synth_field(r.field, r.n, r.seed);
        bytes += fz.compress(&data, (1, 1, r.n), r.eb).bytes.len();
    }
    bytes
}

/// Every job completed, none refused or failed, every digest as the
/// native run's.
fn check(n: usize, digests: &[u32], rep: &ServeReport, wrong: &mut Vec<String>) {
    if rep.jobs.len() != n
        || !rep.rejected.is_empty()
        || !rep.shed.is_empty()
        || !rep.failed.is_empty()
    {
        wrong.push(format!(
            "replay completed {} of {n} jobs ({} rejected, {} shed, {} failed)",
            rep.jobs.len(),
            rep.rejected.len(),
            rep.shed.len(),
            rep.failed.len()
        ));
    }
    for j in &rep.jobs {
        if digests.get(j.id) != Some(&j.digest) {
            wrong.push(format!("job {} digest {:08x} differs from the native run", j.id, j.digest));
        }
    }
}

impl Rounds for ServeReplay {
    fn round(&mut self, traced: bool) {
        let k = traced as usize;
        let (service, workload) = (&self.service, &self.workload);
        spans::next_request();
        let (rep, s) = self.cal.timed(|| {
            let _op = span("serve.replay");
            service.run(workload)
        });
        check(workload.requests.len(), &self.digests, &rep, &mut self.wrong);
        let st = &mut self.stats[k];
        st.replay.push(s);
        let secs = |op: Option<Op>| -> f64 {
            rep.jobs.iter().filter(|j| op.is_none_or(|o| j.op == o)).map(|j| j.host_seconds).sum()
        };
        st.exec.push(Sample { raw: secs(None), c: s.c });
        st.compress_jobs.push(Sample { raw: secs(Some(Op::Compress)), c: s.c });
        st.decompress_jobs.push(Sample { raw: secs(Some(Op::Decompress)), c: s.c });
        st.job_times.resize(workload.requests.len(), Vec::new());
        for j in &rep.jobs {
            st.job_times[j.id].push(Sample { raw: j.host_seconds, c: s.c });
        }
        let (bytes_in, bytes_out) = rep
            .jobs
            .iter()
            .filter(|j| j.op == Op::Compress)
            .fold((0u64, 0u64), |(a, b), j| (a + j.bytes_in, b + j.bytes_out));
        self.ratio = bytes_in as f64 / bytes_out as f64;
        st.batches = rep.batches;
        if let Some(p) = rep.pool {
            st.pool_hits = p.hits;
            st.pool_misses = p.misses;
        }

        spans::next_request();
        let (staged, s) = self.cal.timed(|| {
            let _op = span("serve.stage");
            stage(workload)
        });
        std::hint::black_box(staged);
        self.stats[k].staging.push(s);

        if traced {
            let (_, s) = self.cal.timed(|| {
                for r in &workload.requests {
                    std::hint::black_box(synth_field(r.field, r.n, r.seed));
                }
            });
            self.stats[k].synth.push(s);
            let (mut analytic, native) = (analytic(), &mut self.native);
            let eb = ErrorBound::RelToRange(REL);
            let mut per_size = Vec::new();
            for &n in &SIZES {
                let data = synth_field(FieldKind::Sine, n, 1);
                let ((ta, tn), c) = self.cal.bracket(|| {
                    let t0 = Instant::now();
                    let a = analytic.compress(&data, (1, 1, n), eb);
                    let t1 = Instant::now();
                    let b = native.compress(&data, (1, 1, n), eb);
                    let t2 = Instant::now();
                    assert_eq!(a.bytes, b.bytes, "analytic and native streams differ");
                    ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
                });
                per_size.push((Sample { raw: ta, c }, Sample { raw: tn, c }));
            }
            self.stats[k].analytic.push(per_size);
        }
        self.rounds += 1;
    }

    fn reset(&mut self) {
        self.stats = Default::default();
        self.rounds = 0;
        self.wrong.clear();
    }
}

pub fn run(cfg: &Config) -> Report {
    let mut rep = Report::new();
    let mut cal = Calib::new();
    let mut native = native();

    // Set-up: build the trace, then the reference digests.
    let mut setup = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let ((workload, digests), s) = cal.timed(|| {
            let w = trace(cfg.seed);
            let d = reference(&mut native, &w);
            (w, d)
        });
        setup.push(s);
        kept = Some((workload, digests));
    }
    let (workload, digests) = kept.expect("at least one set-up");
    let n_req = workload.requests.len();
    let values: f64 = workload.total_values() as f64;
    let (c_values, d_values) = workload.requests.iter().fold((0.0, 0.0), |(c, d), r| match r.op {
        Op::Compress => (c + r.n as f64, d),
        Op::Decompress => (c, d + r.n as f64),
    });

    let mut w = ServeReplay {
        cal,
        native,
        service: Service::new(serve_config(n_req)),
        workload,
        digests,
        rounds: 0,
        ratio: 0.0,
        stats: Default::default(),
        wrong: Vec::new(),
    };
    run_rounds(cfg, &mut w);
    for e in &w.wrong {
        rep.wrong(e.clone());
    }
    rep.attempted = w.rounds * n_req as u64;
    rep.note(format!(
        "serve-replay: {} rounds; {n_req} jobs, {values} values per replay",
        w.rounds
    ));

    if !cfg.trace {
        let s = &w.stats[0];
        let (a, b, c) = med3(&setup);
        rep.cal("setup_s", "s", a, b, c);
        rep.plain("peak_rss_mib", "MiB", peak_rss_mib());
        rep.plain("ratio", "x", w.ratio);
        let gb = |v: f64| v * 4.0 / 1e9;
        rep.rate("compress_gbps", "GB/s", gb(c_values), med3(&s.compress_jobs));
        rep.rate("decompress_gbps", "GB/s", gb(d_values), med3(&s.decompress_jobs));
        rep.rate("store_write_gbps", "GB/s", gb(d_values), med3(&s.staging));
        rep.rate("read_mvalues_per_s", "Mvalues/s", values / 1e6, med3(&s.exec));
        report_latency(&mut rep, &s.job_times);
        rep.rate("replay_mvalues_per_s", "Mvalues/s", values / 1e6, med3(&s.replay));
    } else {
        let s = &w.stats[1];
        let (ra, _, rc) = med3(&s.replay);
        let (ea, er, ec) = med3(&s.exec);
        let (sa, sr, sc) = med3(&s.staging);
        rep.cal("serve.exec_ms", "ms", ea * 1e3, er * 1e3, ec);
        rep.cal("serve.stage_ms", "ms", sa * 1e3, sr * 1e3, sc);
        // Per round, the replay less job execution and the staging before
        // it; the staging is timed apart, so a round can read below 0.
        let rest = |f: fn(&Sample) -> f64| -> f64 {
            let v: Vec<f64> = (0..s.replay.len())
                .map(|i| f(&s.replay[i]) - f(&s.exec[i]) - f(&s.staging[i]))
                .collect();
            median(&v) * 1e3
        };
        rep.cal("serve.sched_self_ms", "ms", rest(Sample::cal), rest(|x| x.raw), rc);
        if ea > ra {
            rep.wrong("job execution time exceeds the replay time");
        }
        let (a, b, c) = med3(&s.synth);
        rep.cal("serve.synth_ms", "ms", a * 1e3, b * 1e3, c);
        rep.plain("serve.batches", "count", s.batches as f64);
        rep.plain(
            "serve.pool_hit_rate",
            "ratio",
            s.pool_hits as f64 / (s.pool_hits + s.pool_misses).max(1) as f64,
        );
        for (i, label) in SIZE_LABELS.iter().enumerate() {
            let x: Vec<f64> = s.analytic.iter().map(|p| p[i].0.raw / p[i].1.raw).collect();
            rep.plain(format!("sim.analytic_over_native_x.{label}"), "x", median(&x));
        }
        let (u, _, _) = med3(&w.stats[0].replay);
        rep.plain("trace.overhead_x", "x", ra / u);
        rep.plain("host.calib_ms", "ms", median(&w.cal.history));
    }
    rep
}
