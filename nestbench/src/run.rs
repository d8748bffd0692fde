//! State shared by every workload of one benchmark run: the seed, the
//! failure tally, the output checks against committed references, and
//! the traced run's spans.

use crate::stats::{highest_supported, median, mix, percentile, supported, Metric, Tally};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Duration;

/// The seed whose output digests are committed in `reference.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// How long a phase runs: for a host-time budget, or for a fixed number
/// of work units (passes, epochs, replays) so that a traced phase repeats
/// exactly the work of the untraced one.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Start units until this many host seconds have passed and at least
    /// this many units (one or more) have run.
    Time(f64, usize),
    /// Run exactly this many units.
    Units(usize),
}

impl Budget {
    /// Whether a phase that has finished `units` units after `elapsed`
    /// is done.
    pub fn done(self, units: usize, elapsed: Duration) -> bool {
        match self {
            Budget::Time(s, min) => units >= min.max(1) && elapsed.as_secs_f64() >= s,
            Budget::Units(n) => units >= n,
        }
    }
}

/// Committed output digests: `workload seed key hex` per line.
pub struct Reference {
    digests: BTreeMap<(String, u64), BTreeMap<String, u64>>,
}

impl Reference {
    /// Parses the reference file; `#` starts a comment line.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut digests: BTreeMap<(String, u64), BTreeMap<String, u64>> = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("reference line {}: {line:?}", i + 1);
            if f.len() != 4 {
                return Err(bad());
            }
            let seed = f[1].parse::<u64>().map_err(|_| bad())?;
            let hex = f[3].strip_prefix("0x").ok_or_else(bad)?;
            let d = u64::from_str_radix(hex, 16).map_err(|_| bad())?;
            digests
                .entry((f[0].to_string(), seed))
                .or_default()
                .insert(f[2].to_string(), d);
        }
        Ok(Reference { digests })
    }

    fn get(&self, workload: &str, seed: u64) -> Option<&BTreeMap<String, u64>> {
        self.digests.get(&(workload.to_string(), seed))
    }
}

/// One run of one workload.
pub struct Run<'a> {
    /// Input seed.
    pub seed: u64,
    /// Id shared by every span of this run.
    pub run_id: u64,
    /// Top-level operations attempted and failed.
    pub tally: Tally,
    /// Check failures, printed before the result line.
    pub problems: Vec<String>,
    /// Digests in first-seen order, printed as `digest` lines.
    pub digests: Vec<(String, u64)>,
    /// The traced phase's spans, written out at the end.
    pub spans: Option<Tracer>,
    /// Free-form lines for the human-readable report.
    pub info: Vec<String>,
    /// Metrics printed for reading only: not in the result object and
    /// not in `BENCHMARK.json`.
    pub reported: Vec<Metric>,
    reference: Option<&'a BTreeMap<String, u64>>,
    seen: BTreeMap<String, u64>,
}

impl<'a> Run<'a> {
    /// A run of `workload` with `seed`, checked against `reference`.
    pub fn new(workload: &'static str, seed: u64, reference: &'a Reference) -> Run<'a> {
        let run_id = mix(seed ^ mix(workload.len() as u64)) ^ u64::from(std::process::id());
        Run {
            seed,
            run_id,
            tally: Tally::default(),
            problems: Vec::new(),
            digests: Vec::new(),
            spans: None,
            info: Vec::new(),
            reported: Vec::new(),
            reference: reference.get(workload, seed),
            seen: BTreeMap::new(),
        }
    }

    /// Whether committed digests exist for this run's seed.
    pub fn has_reference(&self) -> bool {
        self.reference.is_some()
    }

    /// Records a check failure.
    pub fn problem(&mut self, msg: String) {
        self.problems.push(msg);
    }

    /// Checks an output digest: it must repeat exactly every time `key`
    /// is produced in this run, and equal the committed reference when
    /// the seed has one. Returns whether the check passed.
    pub fn check(&mut self, key: &str, digest: u64) -> bool {
        match self.seen.get(key) {
            Some(&first) if first != digest => {
                self.problem(format!(
                    "{key}: digest {digest:#018x} differs from this run's first {first:#018x}"
                ));
                return false;
            }
            Some(_) => {}
            None => {
                self.seen.insert(key.to_string(), digest);
                self.digests.push((key.to_string(), digest));
            }
        }
        let Some(reference) = self.reference else {
            return true;
        };
        match reference.get(key) {
            Some(&want) if want == digest => true,
            Some(&want) => {
                self.problem(format!(
                    "{key}: digest {digest:#018x} differs from the reference {want:#018x}"
                ));
                false
            }
            None => {
                self.problem(format!("{key}: no reference digest for seed {}", self.seed));
                false
            }
        }
    }

    /// `slice_ms_p50` over `ms`, one sample per top-level step.
    pub fn step_p50(&self, ms: &[f64], step: &str) -> Metric {
        Metric::new("slice_ms_p50", "ms", median(ms), ms.len())
            .note(format!("median host time of {step}; not gated"))
    }

    /// `slice_ms_p99` over `ms`, with the samples beyond it stated.
    pub fn step_p99(&self, ms: &[f64], step: &str) -> Metric {
        let t = percentile(ms, 99.0).expect("a phase runs at least one step");
        let mut note = format!("p99 host time of {step}; {} samples beyond", t.beyond);
        if !supported(&t) {
            note += &match highest_supported(ms, 99.0) {
                Some(h) => format!(
                    " (fewer than 10; highest supported is p{:.1} = {:.4} ms)",
                    h.pct, h.value
                ),
                None => " (fewer than 10; no percentile is supported)".to_string(),
            };
        }
        Metric::new("slice_ms_p99", "ms", t.value, ms.len()).note(note)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> Reference {
        Reference::parse("# comment\nw 1 a 0x10\nw 1 b 0x20\n").unwrap()
    }

    #[test]
    fn reference_parse_rejects_garbage() {
        assert!(Reference::parse("w 1 a 10").is_err(), "hex needs 0x");
        assert!(Reference::parse("w x a 0x10").is_err());
        assert!(Reference::parse("w 1 a").is_err());
    }

    #[test]
    fn check_compares_with_reference_and_first_value() {
        let r = reference();
        let mut run = Run::new("w", 1, &r);
        assert!(run.has_reference());
        assert!(run.check("a", 0x10));
        assert!(run.check("a", 0x10));
        assert!(!run.check("b", 0x21));
        assert!(
            !run.check("c", 0x1),
            "a key missing from the reference fails"
        );
        assert_eq!(run.problems.len(), 2);

        let mut held_out = Run::new("w", 2, &r);
        assert!(!held_out.has_reference());
        assert!(held_out.check("a", 0x99));
        assert!(!held_out.check("a", 0x98), "a repeat must match the first");
    }

    #[test]
    fn time_budget_runs_at_least_one_unit() {
        assert!(!Budget::Time(0.0, 0).done(0, Duration::from_secs(5)));
        assert!(Budget::Time(0.0, 0).done(1, Duration::ZERO));
        assert!(!Budget::Time(2.0, 1).done(3, Duration::from_secs(1)));
        assert!(!Budget::Time(2.0, 5).done(4, Duration::from_secs(9)));
        assert!(Budget::Time(2.0, 5).done(5, Duration::from_secs(9)));
        assert!(Budget::Units(3).done(3, Duration::ZERO));
    }

    #[test]
    fn p99_note_states_support() {
        let r = reference();
        let run = Run::new("w", 1, &r);
        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        let m = run.step_p99(&few, "x");
        assert_eq!(m.value, 20.0);
        assert!(m.note.contains("highest supported is p50.0"), "{}", m.note);
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        let m = run.step_p99(&many, "x");
        assert_eq!(m.value, 1980.0);
        assert!(m.note.contains("20 samples beyond"), "{}", m.note);
    }
}
