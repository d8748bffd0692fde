//! Host-time benchmark of the nestless stack.
//!
//! ```text
//! cargo run --release --manifest-path nestbench/Cargo.toml -- \
//!     --workload <paper_packet|sharded_policy_churn|cloud_replay> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One caller drives each workload in a closed loop: every call into a
//! layer starts after the previous one returned. All times are host
//! wall-clock, taken around calls into the layers' public functions with
//! the program's own observability at its defaults (off). `--trace 1`
//! repeats the same work with the benchmark's spans on, adds the layer
//! probes, and reports the per-layer metrics instead of the end-to-end
//! ones. The last line of standard output is the result object; the
//! lines before it list every metric with its unit and sample count.

mod alloc;
mod churn;
mod cloud;
mod paper;
mod run;
mod stats;
mod trace;

use run::{Reference, Run};
use stats::{result_line, Metric};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// The committed output digests (see `reference.txt`).
const REFERENCE: &str = include_str!("../reference.txt");

/// Per-layer metrics in `BENCHMARK.json` order. A workload that does not
/// touch a layer reports it as zero.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("engine.events", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.events_per_frame", "count"),
    ("topology.build_ms.nat", "ms"),
    ("topology.build_ms.nocont", "ms"),
    ("topology.build_ms.brfusion", "ms"),
    ("topology.build_ms.samenode", "ms"),
    ("topology.build_ms.hostlo", "ms"),
    ("topology.build_ms.natcross", "ms"),
    ("topology.build_ms.overlay", "ms"),
    ("workloads.udp_rr_s", "s"),
    ("workloads.tcp_stream_s", "s"),
    ("workloads.memcached_s", "s"),
    ("stage.bridge.visits", "count"),
    ("stage.endpoint.visits", "count"),
    ("stage.hostlo.visits", "count"),
    ("stage.loopback.visits", "count"),
    ("stage.nat.visits", "count"),
    ("stage.physnic.visits", "count"),
    ("stage.shaper.visits", "count"),
    ("stage.veth.visits", "count"),
    ("stage.vhost.visits", "count"),
    ("stage.virtio.visits", "count"),
    ("stage.other.visits", "count"),
    ("filter.eval_ns", "ns"),
    ("filter.recompile_ms", "ms"),
    ("filter.install_ns", "ns"),
    ("filter.remove_ns", "ns"),
    ("filter.purge_ms", "ms"),
    ("filter.forward.accept", "count"),
    ("filter.forward.drop", "count"),
    ("filter.forward.reject", "count"),
    ("flow.fastpath_share", "fraction"),
    ("flow.promotions", "count"),
    ("flow.escalations", "count"),
    ("flow.probes", "count"),
    ("parallel.partition_ms", "ms"),
    ("parallel.rounds", "count"),
    ("parallel.us_per_round", "us"),
    ("parallel.ring_stalls", "count"),
    ("parallel.ring_high_water", "count"),
    ("cloudsim.scenario_ns_per_event", "ns"),
    ("cloudsim.replay_ns_per_placement", "ns"),
    ("cloudsim.engine_ns_per_placement", "ns"),
    ("cloudsim.index_pick_ns", "ns"),
    ("cloudsim.index_commit_ns", "ns"),
    ("cloudsim.index_release_ns", "ns"),
    ("cloudsim.vms_bought", "count"),
    ("cloudsim.reclaims", "count"),
    ("cloudsim.peak_vms", "count"),
    ("cloudsim.shapes", "count"),
    ("bench.trace_overhead", "ratio"),
    ("bench.nproc", "count"),
    ("bench.threads", "count"),
];

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["paper_packet", "sharded_policy_churn", "cloud_replay"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == val)
                        .ok_or_else(|| format!("unknown workload {val:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    val.parse::<u64>()
                        .map_err(|_| format!("bad seed {val:?}"))?,
                )
            }
            "--seconds" => {
                let s = val
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad seconds {val:?}"))?;
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {val:?}: want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(run::DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Fills every per-layer metric the workload did not produce with zero.
fn complete_layers(mut layer: Vec<Metric>, workload: &str) -> Vec<Metric> {
    let mut out = Vec::with_capacity(LAYER_METRICS.len());
    for &(name, unit) in LAYER_METRICS {
        match layer.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = layer.swap_remove(i);
                debug_assert_eq!(m.unit, unit, "{name}");
                out.push(m);
            }
            None => out.push(
                Metric::new(name, unit, 0.0, 0).note(format!("layer not exercised by {workload}")),
            ),
        }
    }
    debug_assert!(layer.is_empty(), "unlisted layer metrics: {layer:?}");
    out
}

fn spans_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}-seed{seed}.spans.jsonl"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nestbench: {e}");
            eprintln!(
                "usage: nestbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // The simulator reads a few `SIMNET_*` overrides from the environment
    // (shards, fidelity, telemetry); the workloads fix those themselves.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SIMNET_") {
            std::env::remove_var(key);
        }
    }
    let reference = Reference::parse(REFERENCE).expect("committed reference parses");
    let mut run = Run::new(args.workload, args.seed, &reference);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (e2e, layer) = match args.workload {
        "paper_packet" => paper::run(&mut run, args.seconds, args.trace),
        "sharded_policy_churn" => churn::run(&mut run, args.seconds, args.trace, nproc),
        _ => cloud::run(&mut run, args.seconds, args.trace),
    };
    let peak = Metric::new("peak_heap_mib", "MiB", alloc::peak_mib(), 1)
        .note("peak live heap of the whole process");

    println!(
        "nestbench {} seed={} seconds={} trace={} nproc={} reference={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        if run.has_reference() {
            "committed"
        } else {
            "held-out"
        }
    );
    for line in &run.info {
        println!("info {line}");
    }
    for (key, d) in &run.digests {
        println!("digest {} {} {key} {d:#018x}", args.workload, args.seed);
    }
    if let Some(tr) = &run.spans {
        let path = spans_path(args.workload, args.seed);
        match tr.write(&path) {
            Ok(()) => println!("spans {} ({} spans)", path.display(), tr.spans().len()),
            Err(e) => run.problem(format!("writing {}: {e}", path.display())),
        }
    }
    for p in &run.problems {
        println!("FAILED {p}");
    }
    let metrics: Vec<Metric> = if args.trace {
        let mut layer = layer;
        layer.push(Metric::new("bench.nproc", "count", nproc as f64, 1));
        complete_layers(layer, args.workload)
    } else {
        let mut m = e2e;
        m.push(peak);
        m
    };
    println!(
        "metric failed_ratio = {} fraction (n={})",
        run.tally.failed_ratio(),
        run.tally.attempted
    );
    for m in run.reported.iter().chain(&metrics) {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  # {}", m.note)
        };
        println!(
            "metric {} = {} {} (n={}){note}",
            m.name,
            stats::json_num(m.value),
            m.unit,
            m.samples
        );
    }
    let correct = run.problems.is_empty() && run.tally.failed == 0;
    println!("{}", result_line(correct, run.tally, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
