//! `sharded_policy_churn`: four host islands built from public `simnet`
//! parts, run at hybrid fidelity on the sharded engine, with filter-rule
//! churn applied between simulated-time slices.
//!
//! Each island has one host bridge carrying an engaged FORWARD table of
//! `RULES` rules, none of which matches the traffic, and `LOCAL_PAIRS`
//! bouncer pairs whose path crosses `RELAYS` relay bridges on each side
//! of the host bridge (depth for the flow fast path to collapse). One
//! cross-host bouncer pair runs from island 0 to island 3 over 20 µs
//! uplinks between the host bridges, so the shards exchange frames.
//!
//! The run is cut into equal slices of simulated time. Every
//! `CHURN_EVERY`-th slice first applies a batch on every island table:
//! the previous batch is removed, a fresh one installed, and expired
//! rules purged, all at the slice's start instant.

use crate::run::{Budget, Run};
use crate::stats::{deliveries, median, mix, sustained, Digest, LayerCounters, Metric};
use crate::trace::Tracer;
use metrics::{CpuCategory, CpuLocation};
use simnet::bridge::Bridge;
use simnet::costs::StageCost;
use simnet::engine::{LinkParams, Network};
use simnet::filter::{Chain, ConnState, FilterControl, FilterRule, StateMask, Verdict};
use simnet::nat::Proto;
use simnet::shared::SharedStation;
use simnet::testutil::{frame_between, MacBouncer};
use simnet::{
    DeviceId, Fidelity, Ip4, Ip4Net, MacAddr, PartitionPlan, PortId, RunReport, ShardedNetwork,
    SimConfig, SimDuration, SimTime, SockAddr, StopCondition,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Host islands (partition units).
const ISLANDS: usize = 4;
/// FORWARD rules per island table.
const RULES: usize = 20_000;
/// Bouncer pairs local to each island.
const LOCAL_PAIRS: usize = 2;
/// Relay bridges on each side of the host bridge on a local path.
const RELAYS: usize = 6;
/// Latency of the links between host bridges.
const UPLINK: SimDuration = SimDuration::micros(20);
/// Simulated time per slice.
const SLICE: SimDuration = SimDuration::micros(500);
/// Slices per epoch (one topology build, one output digest).
const SLICES: usize = 200;
/// Epochs a timed phase runs at least: 1000 slices, so that the p99 has
/// ten samples beyond it.
const MIN_EPOCHS: usize = 1000 / SLICES;
/// Every this many slices, a churn batch lands.
const CHURN_EVERY: usize = 10;
/// Rules installed (and later removed) per island per batch.
const BATCH: usize = 32;
/// Fixed probe queries for `filter.eval_ns`.
const PROBES: usize = 512;
/// Shards asked for before the `nproc` cap.
const SHARDS: usize = 2;

const PAYLOAD: u32 = 200;

/// Source nets of every generated rule; the traffic's `10.0.0.x`
/// addresses lie outside all of them, so no rule matches a frame.
const SRC_NETS: [(u8, u8, u8, u8, u8); 4] = [
    (172, 16, 0, 0, 16),
    (192, 168, 0, 0, 16),
    (100, 64, 0, 0, 16),
    (203, 0, 113, 0, 24),
];

fn src_net(i: u64) -> Ip4Net {
    let (a, b, c, d, len) = SRC_NETS[(i % 4) as usize];
    Ip4Net::new(Ip4::new(a, b, c, d), len)
}

/// xorshift64: seed-deterministic rule and probe generation.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(mix(seed) | 1)
    }

    fn below(&mut self, n: u64) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x % n
    }
}

fn gen_rule(rng: &mut Rng) -> FilterRule {
    let lo = rng.below(65_000) as u16;
    let span = if rng.below(97) == 0 { 8 } else { 0 };
    let verdict = match rng.below(10) {
        0..=4 => Verdict::Drop,
        5..=7 => Verdict::Reject,
        _ => Verdict::Accept,
    };
    let mut r = FilterRule::any(Chain::Forward, verdict)
        .ports(lo, lo.saturating_add(span))
        .from_net(src_net(rng.below(4)));
    if rng.below(5) == 0 {
        r = r.states(StateMask::NEW);
    }
    match rng.below(4) {
        0 => r,
        1 => r.proto(Proto::Tcp),
        _ => r.proto(Proto::Udp),
    }
}

/// The seed-derived inputs: one static table per island, the churn
/// batches, and the probe queries.
struct Inputs {
    /// Slices per epoch.
    slices: usize,
    tables: Vec<Vec<FilterRule>>,
    /// `batches[b][island]`: rules of batch `b` for that island.
    batches: Vec<Vec<Vec<FilterRule>>>,
    probes: Vec<(Proto, SockAddr, SockAddr, ConnState)>,
}

impl Inputs {
    /// Inputs for epochs of `slices` slices over `rules`-rule tables
    /// (the benchmark runs `RULES` and `SLICES`; tests shrink them).
    fn new(seed: u64, rules: usize, slices: usize) -> Inputs {
        let mut rng = Rng::new(seed);
        let tables = (0..ISLANDS)
            .map(|_| (0..rules).map(|_| gen_rule(&mut rng)).collect())
            .collect();
        let batches = (0..slices / CHURN_EVERY)
            .map(|_| {
                (0..ISLANDS)
                    .map(|_| (0..BATCH).map(|_| gen_rule(&mut rng)).collect())
                    .collect()
            })
            .collect();
        let probes = (0..PROBES)
            .map(|i| {
                let src = if i % 2 == 0 {
                    src_net(rng.below(4)).host(2 + rng.below(200) as u32)
                } else {
                    Ip4::new(10, 0, 0, 1)
                };
                let proto = if rng.below(10) < 7 {
                    Proto::Udp
                } else {
                    Proto::Tcp
                };
                let state = match rng.below(3) {
                    0 => ConnState::New,
                    1 => ConnState::Established,
                    _ => ConnState::Related,
                };
                (
                    proto,
                    SockAddr::new(src, (1_024 + rng.below(60_000)) as u16),
                    SockAddr::new(Ip4::new(10, 0, 0, 2), rng.below(65_536) as u16),
                    state,
                )
            })
            .collect();
        Inputs {
            slices,
            tables,
            batches,
            probes,
        }
    }
}

fn bouncer(net: &mut Network, name: String, mac: u32) -> DeviceId {
    let cost = StageCost::fixed(600, 0.2, CpuCategory::Usr).with_jitter(0.05);
    net.add_device(
        name.clone(),
        CpuLocation::Host,
        Box::new(MacBouncer::new(
            name,
            MacAddr::local(mac),
            PAYLOAD,
            cost,
            false,
        )),
    )
}

/// Connects `from` to `to` through `RELAYS` two-port relay bridges.
fn relay_chain(net: &mut Network, name: &str, from: (DeviceId, PortId), to: (DeviceId, PortId)) {
    let cost = StageCost::fixed(400, 0.1, CpuCategory::Sys).with_jitter(0.05);
    let mut prev = from;
    for r in 0..RELAYS {
        let br = net.add_device(
            format!("{name}.r{r}"),
            CpuLocation::Host,
            Box::new(Bridge::new(2, cost, SharedStation::new())),
        );
        net.connect(prev.0, prev.1, br, PortId(0), LinkParams::default());
        prev = (br, PortId(1));
    }
    net.connect(prev.0, prev.1, to.0, to.1, LinkParams::default());
}

/// Builds the topology and loads every island table. Returns the
/// network and the island tables' handles.
fn build_topology(inputs: &Inputs, seed: u64) -> (Network, Vec<FilterControl>) {
    let mut net = Network::new(mix(seed ^ 0xC4u64));
    let host_cost = StageCost::fixed(400, 0.1, CpuCategory::Sys).with_jitter(0.05);
    // Host bridge ports: two per local pair, one for the cross pair's
    // end, two uplinks.
    let ports = 2 * LOCAL_PAIRS + 3;
    let mut hosts = Vec::with_capacity(ISLANDS);
    let mut ctls = Vec::with_capacity(ISLANDS);
    let mut mac = 0u32;
    for h in 0..ISLANDS {
        let br = Bridge::new(ports, host_cost, SharedStation::new());
        let ctl = br.filter();
        for rule in &inputs.tables[h] {
            ctl.install(*rule);
        }
        ctls.push(ctl);
        let hb = net.add_device(format!("h{h}.br"), CpuLocation::Host, Box::new(br));
        hosts.push(hb);
        for p in 0..LOCAL_PAIRS {
            mac += 2;
            let a = bouncer(&mut net, format!("h{h}.p{p}.a"), mac - 1);
            let b = bouncer(&mut net, format!("h{h}.p{p}.b"), mac);
            relay_chain(
                &mut net,
                &format!("h{h}.p{p}.a"),
                (a, PortId::P0),
                (hb, PortId(2 * p)),
            );
            relay_chain(
                &mut net,
                &format!("h{h}.p{p}.b"),
                (b, PortId::P0),
                (hb, PortId(2 * p + 1)),
            );
            net.inject_frame(
                SimDuration::nanos((h * LOCAL_PAIRS + p) as u64 * 137),
                b,
                PortId::P0,
                frame_between(MacAddr::local(mac - 1), MacAddr::local(mac), PAYLOAD),
            );
        }
    }
    let uplink = LinkParams::with_latency(UPLINK);
    for h in 1..ISLANDS {
        let (l, r) = (PortId(2 * LOCAL_PAIRS + 2), PortId(2 * LOCAL_PAIRS + 1));
        net.connect(hosts[h - 1], l, hosts[h], r, uplink);
    }
    let (xa, xb) = (mac + 1, mac + 2);
    let x = bouncer(&mut net, "x.a".to_string(), xa);
    let y = bouncer(&mut net, "x.b".to_string(), xb);
    let end = PortId(2 * LOCAL_PAIRS);
    relay_chain(&mut net, "x.a", (x, PortId::P0), (hosts[0], end));
    relay_chain(&mut net, "x.b", (y, PortId::P0), (hosts[ISLANDS - 1], end));
    net.inject_frame(
        SimDuration::nanos(61),
        y,
        PortId::P0,
        frame_between(MacAddr::local(xa), MacAddr::local(xb), PAYLOAD),
    );
    (net, ctls)
}

fn report_digest(r: &RunReport) -> u64 {
    Digest::default()
        .store(&r.store)
        .cpu(&r.cpu)
        .u64(r.events_processed)
        .finish()
}

/// Per-phase totals.
#[derive(Default)]
struct Phase {
    epochs: usize,
    slice_ms: Vec<f64>,
    setup_s: Vec<f64>,
    /// Host seconds inside slices.
    wall_s: f64,
    /// Per epoch: frames per host second inside its slices.
    rate: Vec<f64>,
    deliveries: f64,
    events: u64,
    rounds: u64,
    ring_stalls: u64,
    ring_high_water: u64,
    counters: LayerCounters,
    /// Traced phase only.
    eval_ns: Vec<f64>,
    recompile_ms: Vec<f64>,
    partition_ms: Vec<f64>,
}

/// Everything one epoch needs between slices.
struct Epoch {
    sn: ShardedNetwork,
    ctls: Vec<FilterControl>,
    /// Rule ids of the live batch, per island.
    live: Vec<Vec<u64>>,
}

fn setup(inputs: &Inputs, seed: u64, shards: usize, tr: &mut Tracer, ph: &mut Phase) -> Epoch {
    let t = Instant::now();
    let s = tr.enter("bench.setup");
    let (net, ctls) = tr.span("simnet.build_topology", || build_topology(inputs, seed));
    if tr.on() {
        let p = Instant::now();
        let plan = tr.span("parallel.partition", || {
            PartitionPlan::partition(&net, shards)
        });
        ph.partition_ms.push(p.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(plan.nshards());
    }
    let sn = tr.span("simnet.sim_config_build", || {
        SimConfig::new()
            .shards(shards)
            .fidelity(Fidelity::Hybrid)
            .build(net)
    });
    tr.exit(s);
    ph.setup_s.push(t.elapsed().as_secs_f64());
    Epoch {
        sn,
        ctls,
        live: vec![Vec::new(); ISLANDS],
    }
}

/// Applies churn batch `b` at `at` on every island table.
fn churn(ep: &mut Epoch, inputs: &Inputs, b: usize, at: SimTime, tr: &mut Tracer) {
    let s = tr.enter("filter.remove_batch");
    for (ctl, live) in ep.ctls.iter().zip(&mut ep.live) {
        for id in live.drain(..) {
            assert!(ctl.remove_at(id, at), "batch rule {id} must exist");
        }
    }
    tr.exit(s);
    let s = tr.enter("filter.install_batch");
    for (h, (ctl, live)) in ep.ctls.iter().zip(&mut ep.live).enumerate() {
        for rule in &inputs.batches[b][h] {
            live.push(ctl.install_at(*rule, at));
        }
    }
    tr.exit(s);
    let s = tr.enter("filter.purge");
    for ctl in &ep.ctls {
        ctl.purge_expired(at);
    }
    tr.exit(s);
}

/// Times the probe set against island 0's table before a slice runs; the
/// first eval after a batch pays the recompile the slice's first frame
/// would otherwise pay, and is reported on its own.
fn probe(ep: &Epoch, inputs: &Inputs, now: SimTime, after_churn: bool, ph: &mut Phase) {
    let ctl = &ep.ctls[0];
    let (p, s, d, st) = inputs.probes[0];
    let t = Instant::now();
    std::hint::black_box(ctl.eval(Chain::Forward, p, s, d, st, now));
    if after_churn {
        ph.recompile_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let t = Instant::now();
    for &(p, s, d, st) in &inputs.probes {
        std::hint::black_box(ctl.eval(Chain::Forward, p, s, d, st, now));
    }
    ph.eval_ns
        .push(t.elapsed().as_secs_f64() * 1e9 / inputs.probes.len() as f64);
}

/// Runs one epoch's slices. Returns the report, or `None` after a panic.
fn epoch(
    run: &mut Run,
    inputs: &Inputs,
    shards: usize,
    tr: &mut Tracer,
    ph: &mut Phase,
) -> Option<RunReport> {
    let mut ep = setup(inputs, run.seed, shards, tr, ph);
    let wall_before = ph.wall_s;
    let mut now = SimTime::ZERO;
    for k in 0..inputs.slices {
        let is_churn = k % CHURN_EVERY == CHURN_EVERY - 1;
        let s = tr.enter(if is_churn {
            "bench.churn_slice"
        } else {
            "bench.slice"
        });
        let t = Instant::now();
        let end = now + SLICE;
        let ok = catch_unwind(AssertUnwindSafe(|| {
            if is_churn {
                churn(&mut ep, inputs, k / CHURN_EVERY, now, tr);
            }
            if tr.on() {
                tr.span("bench.probe", || probe(&ep, inputs, now, is_churn, ph));
            }
            tr.span("parallel.run", || ep.sn.run(StopCondition::Until(end)));
        }))
        .is_ok();
        let dt = t.elapsed().as_secs_f64();
        tr.exit(s);
        if !ok {
            run.problem(format!("epoch slice {k} panicked"));
            return None;
        }
        ph.slice_ms.push(dt * 1e3);
        ph.wall_s += dt;
        now = end;
    }
    let r = tr.span("parallel.into_report", || ep.sn.into_report());
    ph.rate
        .push(deliveries(&r.store) / (ph.wall_s - wall_before));
    Some(r)
}

fn fold(run: &mut Run, r: &RunReport, ph: &mut Phase) -> bool {
    let c = |n: &str| r.store.counter(n);
    let frames = deliveries(&r.store);
    ph.deliveries += frames;
    ph.events += r.events_processed;
    ph.rounds += r.sync.rounds;
    ph.ring_stalls += r.sync.ring_stalls;
    ph.ring_high_water = ph.ring_high_water.max(r.sync.ring_high_water);
    ph.counters.add(&r.store);
    let mut ok = run.check("epoch", report_digest(r));
    if frames == 0.0 || c("filter.forward.drop") + c("filter.forward.reject") > 0.0 {
        run.problem(format!(
            "epoch delivered {frames} frames and filtered {} (no rule may match)",
            c("filter.forward.drop") + c("filter.forward.reject")
        ));
        ok = false;
    }
    ok
}

fn phase(run: &mut Run, inputs: &Inputs, shards: usize, budget: Budget, tr: &mut Tracer) -> Phase {
    let mut ph = Phase::default();
    let start = Instant::now();
    while !budget.done(ph.epochs, start.elapsed()) {
        let e = tr.enter("bench.epoch");
        let report = epoch(run, inputs, shards, tr, &mut ph);
        tr.exit(e);
        ph.epochs += 1;
        let ok = match report {
            Some(r) => fold(run, &r, &mut ph),
            None => false,
        };
        // An epoch's output check covers all its slices and batches.
        let ops = (inputs.slices + inputs.batches.len()) as u64;
        run.tally.record(ops, if ok { 0 } else { ops });
        if !ok {
            break;
        }
    }
    ph
}

/// Held-out check: at a seed with no committed digest, one epoch at one
/// shard and at two must merge to identical outputs.
fn shard_check(run: &mut Run, inputs: &Inputs) {
    let mut digests = Vec::new();
    for shards in [1, SHARDS] {
        let mut off = Tracer::new(false, 0);
        let mut ph = Phase::default();
        let r = epoch(run, inputs, shards, &mut off, &mut ph);
        digests.push(r.map(|r| report_digest(&r)));
    }
    let ok = digests[0].is_some() && digests[0] == digests[1];
    run.tally.one(ok);
    if !ok {
        run.problem(format!(
            "1-shard and {SHARDS}-shard epochs differ: {digests:x?}"
        ));
    }
    run.info.push(format!(
        "held-out shard check (1 vs {SHARDS} shards): {}",
        if ok { "identical" } else { "DIFFERENT" }
    ));
}

/// Runs the workload.
pub fn run(run: &mut Run, seconds: f64, traced: bool, nproc: usize) -> (Vec<Metric>, Vec<Metric>) {
    let inputs = Inputs::new(run.seed, RULES, SLICES);
    let shards = SHARDS.min(nproc).max(1);
    let threads = if shards > 1 { 1 + shards } else { 1 };
    run.info.push(format!(
        "shards={shards} (asked {SHARDS}, nproc {nproc}); threads: 1 caller + {} shard workers, caller blocked while workers run",
        if shards > 1 { shards } else { 0 }
    ));
    if !run.has_reference() {
        shard_check(run, &inputs);
    }
    let mut off = Tracer::new(false, run.run_id);
    let e2e_ph = phase(
        run,
        &inputs,
        shards,
        Budget::Time(seconds, MIN_EPOCHS),
        &mut off,
    );
    run.info.push(format!(
        "per-epoch frames/s: {:?}",
        e2e_ph.rate.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));
    let e2e = vec![
        Metric::new(
            "setup_s",
            "s",
            median(&e2e_ph.setup_s),
            e2e_ph.setup_s.len(),
        )
        .note("topology + rule-table load + SimConfig::build, median over epochs"),
        Metric::new(
            "throughput_per_s",
            "1/s",
            sustained(&e2e_ph.rate),
            e2e_ph.rate.len(),
        )
        .note("frames/s: bouncer deliveries per host second inside slices; slowest epoch"),
        run.step_p99(&e2e_ph.slice_ms, "one slice"),
    ];
    run.reported
        .push(run.step_p50(&e2e_ph.slice_ms, "one slice"));
    if !traced {
        return (e2e, Vec::new());
    }

    let mut tr = Tracer::new(true, run.run_id);
    let ph = phase(run, &inputs, shards, Budget::Units(e2e_ph.epochs), &mut tr);
    let n = ph.epochs.max(1) as f64;
    // Mean host time per filter-control call: batch span totals over the
    // calls they made (the first batch of an epoch removes nothing).
    let batches = inputs.batches.len() as f64 * n;
    let per_call = |span: &str, calls: f64| (tr.total(span).0 / calls.max(1.0), tr.total(span).1);
    let (install_ns, ni) = per_call("filter.install_batch", batches * (ISLANDS * BATCH) as f64);
    let (remove_ns, nr) = per_call(
        "filter.remove_batch",
        (batches - n) * (ISLANDS * BATCH) as f64,
    );
    let (purge_ns, np) = per_call("filter.purge", batches * ISLANDS as f64);
    let mut layer = vec![
        Metric::new("engine.events", "count", ph.events as f64 / n, ph.epochs).note("per epoch"),
        Metric::new(
            "engine.ns_per_event",
            "ns",
            ph.wall_s * 1e9 / ph.events as f64,
            ph.epochs,
        ),
        Metric::new(
            "engine.events_per_frame",
            "count",
            ph.events as f64 / ph.deliveries,
            ph.epochs,
        ),
        Metric::new(
            "filter.eval_ns",
            "ns",
            median(&ph.eval_ns),
            ph.eval_ns.len(),
        )
        .note(format!(
            "{PROBES} probes on island 0, between slices; median"
        )),
        Metric::new(
            "filter.recompile_ms",
            "ms",
            median(&ph.recompile_ms),
            ph.recompile_ms.len(),
        )
        .note("first probe eval after a batch; median"),
        Metric::new("filter.install_ns", "ns", install_ns, ni),
        Metric::new("filter.remove_ns", "ns", remove_ns, nr),
        Metric::new("filter.purge_ms", "ms", purge_ns / 1e6, np),
        Metric::new(
            "parallel.partition_ms",
            "ms",
            median(&ph.partition_ms),
            ph.partition_ms.len(),
        ),
        Metric::new("parallel.rounds", "count", ph.rounds as f64 / n, ph.epochs).note("per epoch"),
        Metric::new(
            "parallel.us_per_round",
            "us",
            ph.wall_s * 1e6 / ph.rounds.max(1) as f64,
            ph.epochs,
        ),
        Metric::new(
            "parallel.ring_stalls",
            "count",
            ph.ring_stalls as f64 / n,
            ph.epochs,
        )
        .note("per epoch"),
        Metric::new(
            "parallel.ring_high_water",
            "count",
            ph.ring_high_water as f64,
            ph.epochs,
        )
        .note("max over epochs"),
        Metric::new("bench.threads", "count", threads as f64, 1),
        Metric::new(
            "bench.trace_overhead",
            "ratio",
            ph.wall_s / e2e_ph.wall_s,
            ph.epochs,
        ),
    ];
    layer.extend(ph.counters.metrics(ph.epochs, ph.deliveries, "epoch"));
    run.spans = Some(tr);
    (e2e, layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Reference;

    fn digest_of(run: &mut Run, inputs: &Inputs, shards: usize) -> u64 {
        let mut ph = Phase::default();
        let r = epoch(run, inputs, shards, &mut Tracer::new(false, 0), &mut ph);
        report_digest(&r.expect("epoch runs"))
    }

    #[test]
    fn epoch_digest_repeats_in_process_and_across_shards() {
        let inputs = Inputs::new(7, 200, 2 * CHURN_EVERY);
        let reference = Reference::parse("").unwrap();
        let mut run = Run::new("sharded_policy_churn", 7, &reference);
        let a = digest_of(&mut run, &inputs, 2);
        assert_eq!(a, digest_of(&mut run, &inputs, 2));
        assert_eq!(a, digest_of(&mut run, &inputs, 1));
        assert!(run.problems.is_empty(), "{:?}", run.problems);
    }

    #[test]
    fn traced_epoch_matches_untraced() {
        let inputs = Inputs::new(9, 200, CHURN_EVERY);
        let reference = Reference::parse("").unwrap();
        let mut run = Run::new("sharded_policy_churn", 9, &reference);
        let plain = digest_of(&mut run, &inputs, 2);
        let mut ph = Phase::default();
        let mut tr = Tracer::new(true, 1);
        let r = epoch(&mut run, &inputs, 2, &mut tr, &mut ph).expect("epoch runs");
        assert_eq!(
            report_digest(&r),
            plain,
            "probes must not change the outputs"
        );
        assert_eq!(ph.recompile_ms.len(), 1, "one batch, one recompile probe");
    }
}
