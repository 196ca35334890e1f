//! Host-calibrated benchmark of the fzgpu workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload roundtrip|store-read|serve-replay --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload on one pool thread for `--seconds`, in
//! whole rounds, and prints every metric by name with its unit. The last
//! line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
//! traced and untraced rounds and reports the per-layer metrics, the
//! tracing overhead, and writes the spans as JSON. README.md describes
//! the workloads, metrics and calibration.

mod calib;
mod layers;
mod roundtrip;
mod serve_replay;
mod spans;
mod store_read;
mod util;

use std::path::PathBuf;

use util::{Config, Report};

const WORKLOADS: [&str; 3] = ["roundtrip", "store-read", "serve-replay"];

/// End-to-end metrics: every workload reports each of these.
const END_TO_END: [&str; 10] = [
    "setup_s",
    "peak_rss_mib",
    "ratio",
    "compress_gbps",
    "decompress_gbps",
    "store_write_gbps",
    "read_mvalues_per_s",
    "read_p50_ms",
    "read_p99_ms",
    "replay_mvalues_per_s",
];

/// Per-layer metrics of a traced run. A layer a workload does not reach
/// reads 0 there.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    // The store holds one of the round-trip fields.
    let fields = roundtrip::FIELDS.iter();
    for f in fields.clone() {
        v.push((format!("data.generate_s.{f}"), "s"));
    }
    for f in fields.clone() {
        v.push((format!("fastpath.compress_ms.{f}"), "ms"));
        v.push((format!("fastpath.decompress_ms.{f}"), "ms"));
        v.push((format!("fastpath.compress_x_memcpy.{f}"), "x"));
        v.push((format!("fastpath.decompress_x_memcpy.{f}"), "x"));
        v.push((format!("format.verify_ms.{f}"), "ms"));
    }
    for (name, unit) in [
        ("host.memcpy_gbps", "GB/s"),
        ("host.calib_ms", "ms"),
        ("crc.gbps", "GB/s"),
        ("store.read_self_ms", "ms"),
        ("backend.read_ms", "ms"),
        ("backend.reads_per_read", "count"),
        ("backend.bytes_per_value", "B/value"),
        ("codec.decode_ms", "ms"),
        ("codec.values_decoded_per_value", "x"),
        ("store.chunks_per_read", "count"),
        ("store.shards_per_read", "count"),
        ("crc.pass_ms_per_read", "ms"),
        ("store.create_self_ms", "ms"),
        ("codec.encode_ms", "ms"),
        ("backend.write_ms", "ms"),
        ("store.open_ms", "ms"),
        ("serve.exec_ms", "ms"),
        ("serve.stage_ms", "ms"),
        ("serve.sched_self_ms", "ms"),
        ("serve.synth_ms", "ms"),
        ("serve.batches", "count"),
        ("serve.pool_hit_rate", "ratio"),
    ] {
        v.push((name.to_string(), unit));
    }
    for size in serve_replay::SIZE_LABELS {
        v.push((format!("sim.analytic_over_native_x.{size}"), "x"));
    }
    v.push(("trace.overhead_x".to_string(), "x"));
    v
}

fn usage() -> ! {
    eprintln!(
        "usage: hostbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Config) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> String {
        let at = args.iter().position(|a| a == key).unwrap_or_else(|| usage());
        args.get(at + 1).cloned().unwrap_or_else(|| usage())
    };
    let workload = get("--workload");
    if !WORKLOADS.contains(&workload.as_str()) {
        usage();
    }
    let seed = get("--seed").parse().unwrap_or_else(|_| usage());
    let seconds: f64 = get("--seconds").parse().unwrap_or_else(|_| usage());
    if !(seconds > 0.0 && seconds.is_finite()) {
        usage();
    }
    let trace = match get("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    let out_dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
            .join("hostbench-out");
    std::fs::create_dir_all(&out_dir).expect("create the output directory");
    (workload, Config { seed, seconds, trace, out_dir })
}

fn main() {
    let (workload, cfg) = parse_args();
    // One pool thread everywhere; the native path for the store's codec.
    // Set before anything reads them: no other thread exists yet.
    std::env::set_var("FZGPU_THREADS", "1");
    std::env::set_var("FZGPU_NATIVE", "1");
    rayon::set_num_threads(1);

    let mut rep: Report = match workload.as_str() {
        "roundtrip" => roundtrip::run(&cfg),
        "store-read" => store_read::run(&cfg),
        _ => serve_replay::run(&cfg),
    };

    if cfg.trace {
        rep.note(format!("{} spans recorded", spans::count()));
        let path = cfg.out_dir.join(format!("spans-{workload}-{}.json", cfg.seed));
        spans::write_json(&path).expect("write the span dump");
        rep.note(format!("spans written to {}", path.display()));
        // Every per-layer metric, in the fixed order; unreached layers read 0.
        let mut out = Vec::new();
        for (name, unit) in per_layer() {
            match rep.metrics.iter().position(|m| m.name == name) {
                Some(i) => out.push(rep.metrics.swap_remove(i)),
                None => out.push(util::Metric { name, unit, value: 0.0, raw: None }),
            }
        }
        assert!(rep.metrics.is_empty(), "unlisted per-layer metrics: {:?}", names(&rep));
        rep.metrics = out;
    } else {
        let got = names(&rep);
        assert!(
            got.len() == END_TO_END.len()
                && END_TO_END.iter().all(|n| got.contains(&n.to_string())),
            "{workload} reports {got:?}"
        );
    }
    rep.print();
}

fn names(rep: &Report) -> Vec<String> {
    rep.metrics.iter().map(|m| m.name.clone()).collect()
}
