//! The benchmark's own arithmetic: order statistics, the failure tally,
//! the output digest and the metric report.

use metrics::CpuAccount;
use simnet::SampleStore;

/// SplitMix64 finalizer: derives independent seeds (cells, rule tables,
/// traces) from the run seed.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of `xs` (mean of the two middle values for an even count).
/// Zero for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A nearest-rank percentile and how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile asked for, in `(0, 100)`.
    pub pct: f64,
    /// The nearest-rank value.
    pub value: f64,
    /// Samples strictly after the value's rank.
    pub beyond: usize,
}

/// Samples a percentile needs beyond it before it is reported as
/// supported by the data.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `pct` percentile of `xs`: the value at rank
/// `ceil(pct * n / 100)`. `None` for an empty slice.
pub fn percentile(xs: &[f64], pct: f64) -> Option<Tail> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // The epsilon keeps float error in `pct * n / 100` from bumping an
    // exact rank to the next one.
    let rank = (pct * n as f64 / 100.0 - 1e-9).ceil().clamp(1.0, n as f64) as usize;
    Some(Tail {
        pct,
        value: v[rank - 1],
        beyond: n - rank,
    })
}

/// Whether a percentile has at least [`MIN_BEYOND`] samples beyond it.
pub fn supported(t: &Tail) -> bool {
    t.beyond >= MIN_BEYOND
}

/// The highest percentile the sample supports, capped at `cap`: the
/// value at rank `n - MIN_BEYOND`. `None` when `n <= MIN_BEYOND`.
pub fn highest_supported(xs: &[f64], cap: f64) -> Option<Tail> {
    let n = xs.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let pct = (100.0 * (n - MIN_BEYOND) as f64 / n as f64).min(cap);
    percentile(xs, pct)
}

/// Throughput a run sustained: the slowest unit's rate, which every pass,
/// epoch or replay of the run reached. Zero when empty.
///
/// The host's neighbours set the pace of whole stretches of a run. Its
/// slow pace recurs at much the same level, while spells of faster pace
/// come and go at 10 s to minutes and run up to 1.9x faster. A median
/// follows whatever share of the run those spells cover; the slowest unit
/// stays at the slow pace as long as the run meets it once.
pub fn sustained(rates: &[f64]) -> f64 {
    rates.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Top-level operations attempted and failed in one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that panicked, returned no result, or failed the check.
    pub failed: u64,
}

impl Tally {
    /// Records `n` operations, `bad` of which failed (at most `n`).
    pub fn record(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad.min(n);
    }

    /// Records one operation.
    pub fn one(&mut self, ok: bool) {
        self.record(1, u64::from(!ok));
    }

    /// Share of attempted operations that failed (0 when none ran).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// FNV-1a digest: stable across platforms and toolchains, unlike
/// `DefaultHasher`, so digests can be committed as references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes.
    pub fn bytes(&mut self, bs: &[u8]) -> &mut Digest {
        for &b in bs {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    /// Folds an integer.
    pub fn u64(&mut self, x: u64) -> &mut Digest {
        self.bytes(&x.to_le_bytes())
    }

    /// Folds a float by its bit pattern (simulated statistics must repeat
    /// exactly, not approximately).
    pub fn f64(&mut self, x: f64) -> &mut Digest {
        self.u64(x.to_bits())
    }

    /// Folds a string, length-prefixed.
    pub fn str(&mut self, s: &str) -> &mut Digest {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Folds every counter and sample series of `store`, in name order.
    pub fn store(&mut self, store: &SampleStore) -> &mut Digest {
        let mut names: Vec<&str> = store.counter_names().collect();
        names.sort_unstable();
        for n in names {
            self.str(n).f64(store.counter(n));
        }
        let mut names: Vec<&str> = store.sample_names().collect();
        names.sort_unstable();
        for n in names {
            let xs = store.samples(n);
            self.str(n).u64(xs.len() as u64);
            for &x in xs {
                self.f64(x);
            }
        }
        self
    }

    /// Folds every (location, category) cell of a CPU account.
    pub fn cpu(&mut self, cpu: &CpuAccount) -> &mut Digest {
        for loc in cpu.locations() {
            self.str(&loc.to_string());
            for cat in metrics::CpuCategory::ALL {
                self.u64(cpu.get(loc, cat));
            }
        }
        self.u64(cpu.total())
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Application deliveries recorded in a store: endpoint `*.delivered`
/// plus bouncer `*.bounced` counters.
pub fn deliveries(store: &SampleStore) -> f64 {
    store
        .counter_names()
        .filter(|n| n.ends_with(".delivered") || n.ends_with(".bounced"))
        .map(|n| store.counter(n))
        .sum()
}

/// Store counters behind the filter and flow layer metrics, in the order
/// of [`LayerCounters`]'s fields.
const LAYER_COUNTERS: [&str; 7] = [
    "filter.forward.accept",
    "filter.forward.drop",
    "filter.forward.reject",
    "flow.fastpath_frames",
    "flow.steady_promotions",
    "flow.escalations",
    "flow.probes",
];

/// Filter-verdict and flow fast-path counters summed over runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounters([f64; 7]);

impl LayerCounters {
    /// Adds the counters of one finished run's store.
    pub fn add(&mut self, store: &SampleStore) {
        for (v, name) in self.0.iter_mut().zip(LAYER_COUNTERS) {
            *v += store.counter(name);
        }
    }

    /// Adds another sum.
    pub fn merge(&mut self, other: &LayerCounters) {
        for (v, o) in self.0.iter_mut().zip(other.0) {
            *v += o;
        }
    }

    /// Layer metrics over `units` work units (passes or epochs) that
    /// delivered `frames` frames: verdicts and flow events per unit, and
    /// the fast-path share of deliveries.
    pub fn metrics(&self, units: usize, frames: f64, unit: &str) -> Vec<Metric> {
        let n = units.max(1) as f64;
        let [accept, drop, reject, fast, promo, esc, probes] = self.0;
        let per = |name: &str, v: f64| {
            Metric::new(name, "count", v / n, units).note(format!("per {unit}"))
        };
        vec![
            per("filter.forward.accept", accept),
            per("filter.forward.drop", drop),
            per("filter.forward.reject", reject),
            Metric::new(
                "flow.fastpath_share",
                "fraction",
                fast / frames.max(1.0),
                units,
            ),
            per("flow.promotions", promo),
            per("flow.escalations", esc),
            per("flow.probes", probes),
        ]
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
    /// Why a layer metric reads zero or what it summarizes.
    pub note: String,
}

impl Metric {
    /// A metric with no note.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
            note: String::new(),
        }
    }

    /// Attaches a note (printed in the human-readable table only).
    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// Formats a finite float as a JSON number with all its digits.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the functions must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn sustained_is_the_slowest_rate() {
        assert_eq!(sustained(&ramp(100)), 1.0);
        assert_eq!(sustained(&[3.0, 2.5, 4.0]), 2.5);
        assert_eq!(sustained(&[]), 0.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        let t = percentile(&ramp(1000), 99.0).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        assert!(supported(&t));
        let t = percentile(&ramp(999), 99.0).unwrap();
        assert_eq!(t.beyond, 9, "ceil(0.99 * 999) = 990, 9 beyond");
        assert!(!supported(&t));
    }

    #[test]
    fn nearest_rank_edges() {
        let t = percentile(&[5.0], 99.0).unwrap();
        assert_eq!((t.value, t.beyond), (5.0, 0));
        let t = percentile(&ramp(10), 50.0).unwrap();
        assert_eq!((t.value, t.beyond), (5.0, 5));
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn highest_supported_percentile_keeps_ten_beyond() {
        assert!(highest_supported(&ramp(10), 99.0).is_none());
        let t = highest_supported(&ramp(40), 99.0).unwrap();
        assert_eq!(t.pct, 75.0);
        assert_eq!((t.value, t.beyond), (30.0, 10));
        let t = highest_supported(&ramp(5000), 99.0).unwrap();
        assert_eq!(t.pct, 99.0, "capped");
        assert_eq!(t.beyond, 50);
    }

    #[test]
    fn failed_ratio_counts_against_attempted() {
        let mut t = Tally::default();
        assert_eq!(t.failed_ratio(), 0.0);
        t.one(true);
        t.one(false);
        t.record(8, 1);
        assert_eq!(
            t,
            Tally {
                attempted: 10,
                failed: 2
            }
        );
        assert_eq!(t.failed_ratio(), 0.2);
        t.record(2, 5);
        assert_eq!(t.failed, 4, "failures never exceed the batch");
    }

    #[test]
    fn digest_is_order_and_value_sensitive() {
        let a = Digest::default().u64(1).u64(2).finish();
        let b = Digest::default().u64(2).u64(1).finish();
        assert_ne!(a, b);
        assert_eq!(a, Digest::default().u64(1).u64(2).finish());
        assert_ne!(
            Digest::default().f64(0.0).finish(),
            Digest::default().f64(-0.0).finish()
        );
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut t = Tally::default();
        t.one(true);
        let line = result_line(true, t, &[Metric::new("setup_s", "s", 0.5, 3)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_num(f64::NAN), "0.0");
    }
}
