//! `cloud_replay`: the hyperscale placement replay, 100k users under
//! `MostRequested` on the indexed engine, `HyperConfig` defaults
//! otherwise. Uses no simnet code: the control workload for simnet
//! changes, as the simnet workloads are for cloudsim changes.

use crate::run::{Budget, Run};
use crate::stats::{median, mix, sustained, Digest, Metric};
use crate::trace::Tracer;
use cloudsim::{
    cheapest_fitting, run_hyperscale, FreeCapIndex, HyperConfig, HyperReport, PlacePolicy, Res,
    ScenarioEvent, ScenarioStream, TieBreak,
};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Users pulled from the trace stream per replay. With fewer, some seeds'
/// fleets peak lower and the peak heap moves by up to a third between
/// seeds (6.2 to 9.0 MiB at 20k users).
const USERS: usize = 100_000;
/// Stream constructions timed together for one `setup_s` sample (one
/// takes about 30 ns).
const SETUP_REPS: u32 = 100_000;
/// Placement-prefix length of the held-out naive-vs-indexed check.
const PREFIX: u64 = 10_000;
/// Arrivals driving the index probe after it is loaded.
const INDEX_OPS: usize = 100_000;

fn config(seed: u64, users: usize) -> HyperConfig {
    HyperConfig {
        users,
        seed: mix(seed),
        policy: PlacePolicy::MostRequested,
        naive: false,
        ..HyperConfig::default()
    }
}

fn report_digest(r: &HyperReport) -> u64 {
    Digest::default()
        .u64(r.digest)
        .u64(r.placements)
        .u64(r.pods_placed)
        .u64(r.ticks)
        .u64(u64::from(r.completed))
        .f64(r.total_cost)
        .u64(r.peak_vms as u64)
        .u64(r.peak_live_pods as u64)
        .u64(r.vms_bought)
        .u64(r.reclaims)
        .u64(r.tenant_exits)
        .u64(r.shapes as u64)
        .finish()
}

#[derive(Default)]
struct Phase {
    replays: usize,
    replay_ms: Vec<f64>,
    /// Per replay: placements per host second.
    rate: Vec<f64>,
    setup_s: Vec<f64>,
    wall_s: f64,
    placements: u64,
    last: Option<HyperReport>,
}

/// Seconds per `HyperConfig` + `ScenarioStream` construction.
fn setup_sample(seed: u64) -> f64 {
    let t = Instant::now();
    for _ in 0..SETUP_REPS {
        let cfg = config(black_box(seed), USERS);
        black_box(ScenarioStream::new(&cfg));
    }
    t.elapsed().as_secs_f64() / f64::from(SETUP_REPS)
}

fn phase(run: &mut Run, budget: Budget, tr: &mut Tracer) -> Phase {
    let mut ph = Phase::default();
    let start = Instant::now();
    while !budget.done(ph.replays, start.elapsed()) {
        ph.setup_s.push(setup_sample(run.seed));
        let cfg = config(run.seed, USERS);
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            tr.span("cloudsim.replay", || run_hyperscale(&cfg))
        }));
        let dt = t.elapsed().as_secs_f64();
        ph.replays += 1;
        let ok = match out {
            Ok(r) => {
                ph.wall_s += dt;
                ph.replay_ms.push(dt * 1e3);
                ph.placements += r.placements;
                ph.rate.push(r.placements as f64 / dt);
                let ok = run.check("replay", report_digest(&r));
                if !r.completed {
                    run.problem("replay did not complete its horizon".to_string());
                }
                let ok = ok && r.completed;
                ph.last = Some(r);
                ok
            }
            Err(_) => {
                run.problem("replay panicked".to_string());
                false
            }
        };
        run.tally.one(ok);
        if !ok {
            break;
        }
    }
    ph
}

/// Held-out check: the indexed and naive engines must agree on a
/// placement prefix.
fn naive_check(run: &mut Run) {
    let prefix = |naive| {
        let cfg = HyperConfig {
            naive,
            max_placements: Some(PREFIX),
            ..config(run.seed, USERS)
        };
        catch_unwind(|| report_digest(&run_hyperscale(&cfg))).ok()
    };
    let (indexed, naive) = (prefix(false), prefix(true));
    let ok = indexed.is_some() && indexed == naive;
    run.tally.one(ok);
    if !ok {
        run.problem(format!(
            "indexed and naive replays differ on a {PREFIX}-placement prefix: {indexed:x?} vs {naive:x?}"
        ));
    }
    run.info.push(format!(
        "held-out naive check ({PREFIX} placements): {}",
        if ok { "identical" } else { "DIFFERENT" }
    ));
}

/// Host ns per event of a scenario stream drained on its own.
fn scenario_drain(seed: u64, tr: &mut Tracer) -> (f64, u64) {
    let cfg = config(seed, USERS);
    let t = Instant::now();
    let events = tr.span("cloudsim.scenario_drain", || {
        ScenarioStream::new(&cfg).fold(0u64, |n, e| {
            black_box(e);
            n + 1
        })
    });
    (t.elapsed().as_secs_f64() * 1e9, events)
}

/// Host ns per `pick`, `commit` and `release` on a `FreeCapIndex`
/// loaded to `peak_vms` nodes and driven by the stream's arrivals.
fn index_probe(seed: u64, peak_vms: usize, tr: &mut Tracer) -> (f64, f64, f64) {
    let reqs: Vec<Res> = ScenarioStream::new(&config(seed, USERS))
        .filter_map(|e| match e {
            ScenarioEvent::Arrive { req, .. } => Some(req),
            _ => None,
        })
        .take(peak_vms + INDEX_OPS)
        .collect();
    let (load, drive) = reqs.split_at(peak_vms.min(reqs.len()));
    let loaded = || {
        let mut idx = FreeCapIndex::new();
        for &r in load {
            let cap = cheapest_fitting(r).expect("the trace only emits hostable pods");
            idx.insert(cap.capacity(), r);
        }
        idx
    };
    // Picks and commits interleave as in the replay; a second pass
    // repeats the same commits alone, and picks take the difference.
    let mut idx = loaded();
    let mut placed = Vec::with_capacity(drive.len());
    let s = tr.enter("cloudsim.index_pick_commit");
    let t = Instant::now();
    for &r in drive {
        if let Some(vm) = idx.pick(r, PlacePolicy::MostRequested, TieBreak::SmallestId) {
            idx.commit(vm, r);
            placed.push((vm, r));
        }
    }
    let pick_commit = t.elapsed().as_secs_f64();
    tr.exit(s);
    let s = tr.enter("cloudsim.index_release");
    let t = Instant::now();
    for &(vm, r) in placed.iter().rev() {
        idx.release(vm, r);
    }
    let release = t.elapsed().as_secs_f64();
    tr.exit(s);
    let mut idx = loaded();
    let s = tr.enter("cloudsim.index_commit");
    let t = Instant::now();
    for &(vm, r) in &placed {
        idx.commit(vm, r);
    }
    let commit = t.elapsed().as_secs_f64();
    tr.exit(s);
    black_box(idx.len());
    let per = |secs: f64, n: usize| secs * 1e9 / n.max(1) as f64;
    (
        per((pick_commit - commit).max(0.0), drive.len()),
        per(commit, placed.len()),
        per(release, placed.len()),
    )
}

/// Runs the workload.
pub fn run(run: &mut Run, seconds: f64, traced: bool) -> (Vec<Metric>, Vec<Metric>) {
    if !run.has_reference() {
        naive_check(run);
    }
    let mut off = Tracer::new(false, run.run_id);
    let e2e_ph = phase(run, Budget::Time(seconds, 1), &mut off);
    run.info.push(format!(
        "per-replay placements/s: {:?}",
        e2e_ph.rate.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));
    let e2e = vec![
        Metric::new(
            "setup_s",
            "s",
            median(&e2e_ph.setup_s),
            e2e_ph.setup_s.len(),
        )
        .note("HyperConfig + ScenarioStream construction, median over replays"),
        Metric::new(
            "throughput_per_s",
            "1/s",
            sustained(&e2e_ph.rate),
            e2e_ph.replays,
        )
        .note("placements/s: HyperReport.placements per host second of replay; slowest replay"),
        run.step_p99(&e2e_ph.replay_ms, "one replay"),
    ];
    run.reported
        .push(run.step_p50(&e2e_ph.replay_ms, "one replay"));
    if !traced {
        return (e2e, Vec::new());
    }

    let mut tr = Tracer::new(true, run.run_id);
    let ph = phase(run, Budget::Units(e2e_ph.replays), &mut tr);
    let Some(rep) = ph.last.as_ref() else {
        return (e2e, Vec::new());
    };
    let (drain_ns, events) = scenario_drain(run.seed, &mut tr);
    let (pick_ns, commit_ns, release_ns) = index_probe(run.seed, rep.peak_vms, &mut tr);
    let replay_ns = ph.wall_s * 1e9 / ph.replays as f64;
    let placements = rep.placements as f64;
    let layer = vec![
        Metric::new(
            "cloudsim.scenario_ns_per_event",
            "ns",
            drain_ns / events as f64,
            1,
        ),
        Metric::new(
            "cloudsim.replay_ns_per_placement",
            "ns",
            replay_ns / placements,
            ph.replays,
        ),
        Metric::new(
            "cloudsim.engine_ns_per_placement",
            "ns",
            (replay_ns - drain_ns) / placements,
            ph.replays,
        )
        .note("replay minus a separate scenario drain"),
        Metric::new("cloudsim.index_pick_ns", "ns", pick_ns, INDEX_OPS),
        Metric::new("cloudsim.index_commit_ns", "ns", commit_ns, INDEX_OPS),
        Metric::new("cloudsim.index_release_ns", "ns", release_ns, INDEX_OPS),
        Metric::new("cloudsim.vms_bought", "count", rep.vms_bought as f64, 1),
        Metric::new("cloudsim.reclaims", "count", rep.reclaims as f64, 1),
        Metric::new("cloudsim.peak_vms", "count", rep.peak_vms as f64, 1),
        Metric::new("cloudsim.shapes", "count", rep.shapes as f64, 1),
        Metric::new("bench.threads", "count", 1.0, 1),
        Metric::new(
            "bench.trace_overhead",
            "ratio",
            ph.wall_s / e2e_ph.wall_s,
            ph.replays,
        ),
    ];
    run.spans = Some(tr);
    (e2e, layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_digest_repeats_in_process() {
        let cfg = config(3, 300);
        let a = run_hyperscale(&cfg);
        assert!(a.placements > 0);
        assert_eq!(report_digest(&a), report_digest(&run_hyperscale(&cfg)));
    }

    #[test]
    fn naive_and_indexed_agree_on_a_prefix() {
        let cfg = |naive| HyperConfig {
            naive,
            max_placements: Some(2_000),
            ..config(4, 300)
        };
        assert_eq!(
            report_digest(&run_hyperscale(&cfg(false))),
            report_digest(&run_hyperscale(&cfg(true)))
        );
    }
}
