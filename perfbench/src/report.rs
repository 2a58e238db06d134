//! The result of one workload run: named metrics with units and sample
//! counts, printed as readable lines and as the final JSON object.

use crate::stats::{median, percentile, percentile_summary};
use std::fmt::Write as _;

/// What the client checks about one right-hand side.
pub struct Verdict {
    pub ok: bool,
    pub forward_error: f64,
    pub iterations: usize,
    pub be_calls: usize,
    pub recovery_events: usize,
}

impl Verdict {
    /// A solve that returned `Err`.
    pub fn error() -> Verdict {
        Verdict {
            ok: false,
            forward_error: f64::NAN,
            iterations: 0,
            be_calls: 0,
            recovery_events: 0,
        }
    }
}

/// Running totals of the client-side checks.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub forward_error_max: f64,
    pub iterations: usize,
    pub be_calls: usize,
    pub recovery_events: usize,
}

impl Tally {
    pub fn record(&mut self, v: &Verdict) {
        self.attempted += 1;
        self.failed += usize::from(!v.ok);
        self.forward_error_max = if v.forward_error.is_finite() {
            self.forward_error_max.max(v.forward_error)
        } else {
            f64::INFINITY
        };
        self.iterations += v.iterations;
        self.be_calls += v.be_calls;
        self.recovery_events += v.recovery_events;
    }

    /// `count` per right-hand side attempted.
    pub fn per_rhs(&self, count: usize) -> f64 {
        count as f64 / self.attempted.max(1) as f64
    }
}

/// The measured loop of an untraced run.
pub struct Loop {
    /// Wall time of each call.
    pub secs: Vec<f64>,
    /// Right-hand sides that passed every check inside the loop.
    pub solved: usize,
    /// Median cold and warm construction times over `setup_reps`.
    pub setup: (f64, f64),
    pub setup_reps: usize,
}

/// The percentile reported as `solve_tail_s` on every workload.  Higher
/// percentiles keep 10 samples beyond them on some workloads, but they land
/// on the host's slow phases and rare extra iterations: across seeded runs
/// p99 spread by up to 0.28 of its median, p90 by at most 0.12.
const TAIL: f64 = 0.90;

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(workload: &str, run: &Loop, tally: &Tally) -> Outcome {
    let secs = &run.secs;
    let (tail, beyond) = percentile(secs, TAIL);
    if beyond < 10 {
        eprintln!("{workload}: only {beyond} samples beyond p90 (want >= 10)");
    }
    println!("{workload}: call times {}", percentile_summary(secs));
    println!(
        "{workload}: {:.3} iterations and {:.1} block-encoding calls per right-hand side, forward error max {:e}",
        tally.per_rhs(tally.iterations),
        tally.per_rhs(tally.be_calls),
        tally.forward_error_max
    );
    println!(
        "{workload} setup_warm_s = {:?} s (n={})",
        run.setup.1, run.setup_reps
    );
    let mut out = Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        ..Default::default()
    };
    let n = secs.len();
    out.metric("solve_p50_s", median(secs), "s", n);
    out.metric("solve_tail_s", tail, "s", n);
    let busy: f64 = secs.iter().sum();
    out.metric("solves_per_s", run.solved as f64 / busy, "1/s", n);
    out.metric("setup_s", run.setup.0, "s", run.setup_reps);
    let reached = tally.attempted - tally.failed;
    out.metric(
        "reached_target_fraction",
        reached as f64 / tally.attempted.max(1) as f64,
        "ratio",
        tally.attempted,
    );
    out.metric("peak_rss_mb", crate::peak_rss_mb(), "MB", 1);
    out
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarises.
    pub samples: usize,
}

/// Everything one workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Extra problems that make the run incorrect (beyond failed solves).
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// One `workload metric = value unit (n=samples)` line per metric.
    pub fn print_lines(&self, workload: &str) {
        for m in &self.metrics {
            println!(
                "{workload} {} = {:?} {} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        let failed_fraction = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{workload} failed_fraction = {failed_fraction} ratio (failed {} of {} attempted)",
            self.failed, self.attempted
        );
        for p in &self.problems {
            println!("{workload} PROBLEM: {p}");
        }
    }
}

/// The final JSON line: `correct`, `attempted`, `failed`, and every metric
/// as `{"value", "unit"}`, keyed by `prefix` + name.
pub fn json_line(runs: &[(String, Outcome)]) -> String {
    let correct = runs.iter().all(|(_, o)| o.correct());
    let attempted: usize = runs.iter().map(|(_, o)| o.attempted).sum();
    let failed: usize = runs.iter().map(|(_, o)| o.failed).sum();
    let mut metrics = String::new();
    for (prefix, outcome) in runs {
        for m in &outcome.metrics {
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            // JSON has no NaN/Inf; a non-finite value was already recorded
            // as a problem, so report it as 0.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "\"{prefix}{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    )
}
