//! `paper_packet`: the paper's evaluation cells at packet fidelity, run
//! one after another on one thread. Netperf UDP_RR and TCP_STREAM over
//! all seven configurations at 64 B and 1280 B, plus memtier against
//! Memcached on NAT, BrFusion and Hostlo.

use crate::run::{Budget, Run};
use crate::stats::{deliveries, median, mix, percentile, sustained, Digest, LayerCounters, Metric};
use crate::trace::Tracer;
use metrics::{CpuBreakdown, Summary, TraceConfig};
use nestless::topology::{build, Config, Testbed, CLIENT_PORT, SERVER_PORT};
use simnet::{SimDuration, SimTime, StopCondition};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workloads::memcached::{MemcachedServer, MemtierClient};
use workloads::netperf::Netperf;
use workloads::report::MacroResult;
use workloads::{run_memcached, MemtierParams};

/// Message sizes: the smallest, where per-packet cost dominates, and the
/// paper's headline size.
const SIZES: [u32; 2] = [64, 1280];

/// Configurations the memcached cells run on.
const MEMCACHED: [Config; 3] = [Config::Nat, Config::BrFusion, Config::Hostlo];

#[derive(Debug, Clone, Copy)]
enum Kind {
    UdpRr(u32),
    TcpStream(u32),
    Memcached,
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    config: Config,
    kind: Kind,
    seed: u64,
}

impl Cell {
    fn key(&self) -> String {
        let c = tag(self.config);
        match self.kind {
            Kind::UdpRr(s) => format!("udp_rr.{c}.{s}"),
            Kind::TcpStream(s) => format!("tcp_stream.{c}.{s}"),
            Kind::Memcached => format!("memcached.{c}"),
        }
    }
}

/// Metric-name tag of a configuration (the paper labels are not unique).
pub fn tag(c: Config) -> &'static str {
    match c {
        Config::Nat => "nat",
        Config::NoCont => "nocont",
        Config::BrFusion => "brfusion",
        Config::SameNode => "samenode",
        Config::Hostlo => "hostlo",
        Config::NatCross => "natcross",
        Config::Overlay => "overlay",
    }
}

fn build_span(c: Config) -> &'static str {
    match c {
        Config::Nat => "topology.build.nat",
        Config::NoCont => "topology.build.nocont",
        Config::BrFusion => "topology.build.brfusion",
        Config::SameNode => "topology.build.samenode",
        Config::Hostlo => "topology.build.hostlo",
        Config::NatCross => "topology.build.natcross",
        Config::Overlay => "topology.build.overlay",
    }
}

fn cells(seed: u64) -> Vec<Cell> {
    let mut out = Vec::new();
    for config in Config::ALL {
        for size in SIZES {
            out.push(Cell {
                config,
                kind: Kind::UdpRr(size),
                seed: 0,
            });
            out.push(Cell {
                config,
                kind: Kind::TcpStream(size),
                seed: 0,
            });
        }
    }
    for config in MEMCACHED {
        out.push(Cell {
            config,
            kind: Kind::Memcached,
            seed: 0,
        });
    }
    for (i, c) in out.iter_mut().enumerate() {
        c.seed = mix(seed ^ mix(i as u64));
    }
    out
}

/// The figure sweep's per-cell Netperf parameters.
fn netperf(msg_size: u32) -> Netperf {
    Netperf {
        msg_size,
        duration: SimDuration::millis(400),
        warmup: SimDuration::millis(50),
        window: 64,
    }
}

fn summary(d: &mut Digest, s: &Summary) {
    d.u64(s.count)
        .f64(s.mean)
        .f64(s.stddev)
        .f64(s.min)
        .f64(s.max);
}

fn breakdown(d: &mut Digest, b: &Option<CpuBreakdown>) {
    match b {
        Some(b) => d.u64(1).f64(b.usr).f64(b.sys).f64(b.soft).f64(b.guest),
        None => d.u64(0),
    };
}

fn macro_digest(r: &MacroResult) -> u64 {
    let mut d = Digest::default();
    d.f64(r.throughput_per_s);
    summary(&mut d, &r.latency_us);
    let (a, b, c) = r.latency_percentiles_us;
    d.f64(a).f64(b).f64(c).u64(r.wall.as_nanos());
    breakdown(&mut d, &r.cpu_server_vm);
    breakdown(&mut d, &r.cpu_client_vm);
    breakdown(&mut d, &Some(r.cpu_host));
    d.finish()
}

fn testbed_digest(d: &mut Digest, tb: &Testbed) {
    let net = tb.vmm.network();
    d.cpu(net.cpu())
        .store(net.store())
        .u64(net.events_processed());
}

/// What one cell produced.
struct CellOut {
    digest: u64,
    deliveries: f64,
    events: u64,
    counters: LayerCounters,
}

impl CellOut {
    fn of(digest: u64, tb: &Testbed) -> CellOut {
        let net = tb.vmm.network();
        let mut counters = LayerCounters::default();
        counters.add(net.store());
        CellOut {
            digest,
            deliveries: deliveries(net.store()),
            events: net.events_processed(),
            counters,
        }
    }
}

/// Memcached run rebuilt from the same public parts `run_memcached`
/// uses, so the testbed (store, events, stage table) stays inspectable.
fn memcached_testbed(config: Config, seed: u64, trace: TraceConfig) -> (MacroResult, Testbed) {
    let params = MemtierParams::paper();
    let mut tb = build(config, seed);
    tb.vmm.network_mut().set_trace_config(trace);
    tb.share_app_station_if_colocated();
    let target = tb.target;
    let warmup_until = SimTime::ZERO + params.warmup;
    let server = tb.install(
        "memcached",
        &tb.server.clone(),
        [SERVER_PORT],
        Box::new(MemcachedServer::new(
            params.value_size,
            config != Config::NoCont,
        )),
    );
    let client = tb.install(
        "memtier",
        &tb.client.clone(),
        [CLIENT_PORT],
        Box::new(MemtierClient::new(target, params, warmup_until)),
    );
    tb.start(&[server, client]);
    tb.vmm
        .network_mut()
        .run(StopCondition::For(params.warmup + params.duration));
    let r = MacroResult::collect(&tb, "memcached.latency_us", params.duration);
    (r, tb)
}

/// Outputs of one memcached cell's rebuilt run.
struct MemcachedCounts {
    macro_digest: u64,
    out: CellOut,
}

/// Runs one cell through the workloads layer's public entry point.
fn run_cell(cell: &Cell, counts: &BTreeMap<String, MemcachedCounts>, tr: &mut Tracer) -> CellOut {
    let mut d = Digest::default();
    match cell.kind {
        Kind::UdpRr(size) => {
            let r = tr.span("workloads.udp_rr", || {
                netperf(size).udp_rr(cell.config, cell.seed)
            });
            summary(&mut d, r.latency_us.as_ref().expect("UDP_RR latency"));
            testbed_digest(&mut d, &r.testbed);
            CellOut::of(d.finish(), &r.testbed)
        }
        Kind::TcpStream(size) => {
            let r = tr.span("workloads.tcp_stream", || {
                netperf(size).tcp_stream(cell.config, cell.seed)
            });
            summary(&mut d, r.throughput_mbps.as_ref().expect("TCP_STREAM rate"));
            testbed_digest(&mut d, &r.testbed);
            CellOut::of(d.finish(), &r.testbed)
        }
        Kind::Memcached => {
            let r = tr.span("workloads.memcached", || {
                run_memcached(MemtierParams::paper(), cell.config, cell.seed)
            });
            let c = &counts[&cell.key()];
            let digest = macro_digest(&r);
            assert_eq!(
                digest, c.macro_digest,
                "run_memcached diverged from its rebuilt twin"
            );
            CellOut {
                digest: c.out.digest,
                deliveries: c.out.deliveries,
                events: c.out.events,
                counters: c.out.counters,
            }
        }
    }
}

/// Totals of one phase (a whole number of passes over every cell).
#[derive(Default)]
struct Phase {
    passes: usize,
    /// Host seconds inside cell calls.
    wall_s: f64,
    /// Per pass: frames per host second inside its cell calls.
    rate: Vec<f64>,
    /// Per pass: mean and slowest host milliseconds per cell call.
    cell_mean: Vec<f64>,
    cell_max: Vec<f64>,
    /// Host seconds of all topology builds, one sample per pass.
    setup_s: Vec<f64>,
    deliveries: f64,
    events: u64,
    counters: LayerCounters,
}

fn phase(
    run: &mut Run,
    cells: &[Cell],
    counts: &BTreeMap<String, MemcachedCounts>,
    budget: Budget,
    tr: &mut Tracer,
) -> Phase {
    let mut ph = Phase::default();
    let start = Instant::now();
    while !budget.done(ph.passes, start.elapsed()) {
        let pass = tr.enter("bench.pass");
        let mut setup = 0.0;
        for cell in cells {
            let t = Instant::now();
            let tb = tr.span(build_span(cell.config), || build(cell.config, cell.seed));
            setup += t.elapsed().as_secs_f64();
            drop(tb);
        }
        ph.setup_s.push(setup);
        let (mut wall, mut frames, mut cell_ms) = (0.0, 0.0, Vec::with_capacity(cells.len()));
        for cell in cells {
            let t = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| run_cell(cell, counts, tr)));
            let dt = t.elapsed().as_secs_f64();
            let ok = match out {
                Ok(out) => {
                    frames += out.deliveries;
                    ph.events += out.events;
                    ph.counters.merge(&out.counters);
                    run.check(&cell.key(), out.digest)
                }
                Err(_) => {
                    run.problem(format!("cell {} panicked", cell.key()));
                    false
                }
            };
            run.tally.one(ok);
            wall += dt;
            cell_ms.push(dt * 1e3);
        }
        ph.wall_s += wall;
        ph.deliveries += frames;
        ph.rate.push(frames / wall);
        ph.cell_mean.push(wall * 1e3 / cell_ms.len() as f64);
        ph.cell_max
            .push(percentile(&cell_ms, 99.0).map_or(0.0, |t| t.value));
        tr.exit(pass);
        ph.passes += 1;
    }
    ph
}

/// Rebuilds every memcached cell once, outside the timed phase, for the
/// store and events `run_memcached` does not return; each timed call
/// asserts its result equals the rebuilt one bit for bit.
fn memcached_counts(cells: &[Cell]) -> BTreeMap<String, MemcachedCounts> {
    let mut out = BTreeMap::new();
    for cell in cells.iter().filter(|c| matches!(c.kind, Kind::Memcached)) {
        let (r, tb) = memcached_testbed(cell.config, cell.seed, TraceConfig::off());
        let macro_digest = macro_digest(&r);
        let mut d = Digest::default();
        d.u64(macro_digest);
        testbed_digest(&mut d, &tb);
        out.insert(
            cell.key(),
            MemcachedCounts {
                macro_digest,
                out: CellOut::of(d.finish(), &tb),
            },
        );
    }
    out
}

/// Stage kinds reported as `stage.<kind>.visits`: every `stage.<kind>`
/// name the simulator interns, plus `other` for any name added later.
pub const STAGES: [&str; 11] = [
    "bridge", "endpoint", "hostlo", "loopback", "nat", "physnic", "shaper", "veth", "vhost",
    "virtio", "other",
];

/// Maps an interned stage name to one of the [`STAGES`] kinds.
pub fn stage_kind(name: &str) -> &'static str {
    let kind = name.strip_prefix("stage.").unwrap_or(name);
    STAGES
        .iter()
        .find(|k| **k == kind)
        .copied()
        .unwrap_or("other")
}

/// Per-kind stage visit counts from counters-mode runs of the memcached
/// cells (the only cells the benchmark can drive with the recorder on).
fn stage_visits(
    run: &mut Run,
    cells: &[Cell],
    counts: &BTreeMap<String, MemcachedCounts>,
) -> BTreeMap<&'static str, u64> {
    let mut visits = BTreeMap::new();
    for cell in cells.iter().filter(|c| matches!(c.kind, Kind::Memcached)) {
        let (r, tb) = memcached_testbed(cell.config, cell.seed, TraceConfig::counters());
        if macro_digest(&r) != counts[&cell.key()].macro_digest {
            run.problem(format!(
                "{}: counters-mode recorder changed the run",
                cell.key()
            ));
        }
        let net = tb.vmm.network();
        for (id, agg) in net.stages().iter() {
            *visits
                .entry(stage_kind(net.store().name_of(id)))
                .or_insert(0) += agg.frames;
        }
    }
    visits
}

/// Runs the workload: the end-to-end phase, and with `traced` a second,
/// traced phase of the same number of passes plus the layer probes.
pub fn run(run: &mut Run, seconds: f64, traced: bool) -> (Vec<Metric>, Vec<Metric>) {
    let cells = cells(run.seed);
    let counts = memcached_counts(&cells);
    let mut off = Tracer::new(false, run.run_id);
    let e2e_phase = phase(run, &cells, &counts, Budget::Time(seconds, 1), &mut off);
    // Cells differ in length by 20x, and a median over them lands on
    // whichever of two similar cells noise ranks first. So the step is a
    // pass (the same 31 cells every time): each pass gives one sample of
    // each statistic.
    let n = e2e_phase.passes;
    run.info.push(format!(
        "per-pass frames/s: {:?}",
        e2e_phase.rate.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));
    let e2e = vec![
        Metric::new("setup_s", "s", median(&e2e_phase.setup_s), n)
            .note("topology::build of all 31 cells; median over passes"),
        Metric::new("throughput_per_s", "1/s", sustained(&e2e_phase.rate), n).note(
            "frames/s: application deliveries per host second inside cell calls; slowest pass",
        ),
        Metric::new("slice_ms_p99", "ms", median(&e2e_phase.cell_max), n)
            .note("slowest cell call of a pass (p99 of 31 cells, 0 beyond); median over passes"),
    ];
    run.reported.push(
        Metric::new("slice_ms_p50", "ms", median(&e2e_phase.cell_mean), n)
            .note("host time of a pass per cell call; median over passes; not gated"),
    );
    if !traced {
        return (e2e, Vec::new());
    }

    let mut tr = Tracer::new(true, run.run_id);
    let ph = phase(
        run,
        &cells,
        &counts,
        Budget::Units(e2e_phase.passes),
        &mut tr,
    );
    let visits = stage_visits(run, &cells, &counts);
    run.spans = Some(tr);
    let tr = run.spans.as_ref().expect("just set");
    let mut layer = vec![
        Metric::new(
            "engine.events",
            "count",
            ph.events as f64 / ph.passes as f64,
            ph.passes,
        )
        .note("simulated events per pass"),
        Metric::new(
            "engine.ns_per_event",
            "ns",
            ph.wall_s * 1e9 / ph.events as f64,
            ph.passes,
        ),
        Metric::new(
            "engine.events_per_frame",
            "count",
            ph.events as f64 / ph.deliveries,
            ph.passes,
        ),
    ];
    for c in Config::ALL {
        let d = tr.durations(build_span(c));
        layer.push(Metric::new(
            format!("topology.build_ms.{}", tag(c)),
            "ms",
            median(&d) / 1e6,
            d.len(),
        ));
    }
    for (name, span) in [
        ("workloads.udp_rr_s", "workloads.udp_rr"),
        ("workloads.tcp_stream_s", "workloads.tcp_stream"),
        ("workloads.memcached_s", "workloads.memcached"),
    ] {
        let (total, n) = tr.total(span);
        layer.push(Metric::new(name, "s", total / 1e9 / n.max(1) as f64, n));
    }
    for k in STAGES {
        let v = visits.get(k).copied().unwrap_or(0);
        layer.push(
            Metric::new(
                format!("stage.{k}.visits"),
                "count",
                v as f64,
                MEMCACHED.len(),
            )
            .note("memcached cells, counters-mode recorder"),
        );
    }
    layer.extend(ph.counters.metrics(ph.passes, ph.deliveries, "pass"));
    layer.push(Metric::new("bench.threads", "count", 1.0, 1));
    layer.push(Metric::new(
        "bench.trace_overhead",
        "ratio",
        ph.wall_s / e2e_phase.wall_s,
        ph.passes,
    ));
    (e2e, layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_digest_repeats_in_process_and_under_tracing() {
        let cells = cells(5);
        let counts = BTreeMap::new();
        for cell in cells
            .iter()
            .filter(|c| matches!(c.kind, Kind::UdpRr(64)))
            .take(2)
        {
            let a = run_cell(cell, &counts, &mut Tracer::new(false, 0)).digest;
            let b = run_cell(cell, &counts, &mut Tracer::new(true, 0)).digest;
            assert_eq!(a, b, "{}", cell.key());
        }
    }

    #[test]
    fn cell_seeds_differ_and_follow_the_run_seed() {
        let a = cells(1);
        let b = cells(2);
        assert_eq!(a.len(), 31);
        assert_ne!(a[0].seed, a[1].seed);
        assert_ne!(a[0].seed, b[0].seed);
        assert_eq!(a[0].seed, cells(1)[0].seed);
    }

    #[test]
    fn stage_names_map_to_kinds() {
        assert_eq!(stage_kind("stage.vhost"), "vhost");
        assert_eq!(stage_kind("stage.vxlan"), "other");
    }
}
