//! End-to-end and per-layer benchmark of the qls mixed-precision solver.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <circuit_stream|circuit_batch_shots|emulation_large_kappa|structured_classical|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload as a closed loop (one client waiting for
//! each reply) through the public solver API and prints the end-to-end
//! metrics; `--trace 1` replays every solve stage by stage from this crate
//! and prints the per-layer metrics.  Every solve is checked; the last line
//! of standard output is one JSON object, and the exit code is 1 when a
//! check failed.  See `perfbench/README.md` for the metric definitions.

mod classical;
mod hybrid;
mod report;
mod setup;
mod stats;
mod trace;

use report::Outcome;
use setup::WorkDir;

/// The end-to-end metrics, reported by `--trace 0` on every workload.
const END_TO_END: [&str; 6] = [
    "solve_p50_s",
    "solve_tail_s",
    "solves_per_s",
    "setup_s",
    "reached_target_fraction",
    "peak_rss_mb",
];

/// The per-layer metrics, reported by `--trace 1` on every workload (0 where
/// the workload does not exercise the layer).
const PER_LAYER: [(&str, &str); 43] = [
    ("core.accounting_s", "s"),
    ("core.accounting_fraction", "ratio"),
    ("qsvt.resources_calls_per_solve", "count"),
    ("core.norm_recovery_s", "s"),
    ("core.brent_evals_per_solve", "count"),
    ("core.readout_s", "s"),
    ("core.update_s", "s"),
    ("core.recovery_events_per_solve", "count"),
    ("core.iterations_per_solve", "count"),
    ("be_calls_per_solve", "count"),
    ("forward_error_max", "ratio"),
    ("qsvt.solve_direction_s", "s"),
    ("encoding.embed_project_s", "s"),
    ("sim.run_s", "s"),
    ("sim.fused_ops", "count"),
    ("sim.bytes_moved_per_run", "B"),
    ("sim.batch_speedup", "ratio"),
    ("linalg.svd_s", "s"),
    ("poly.construct_s", "s"),
    ("qsvt.phases_s", "s"),
    ("qsvt.phase_generations", "count"),
    ("encoding.dilation_s", "s"),
    ("qsvt.circuit_build_s", "s"),
    ("sim.fusion_s", "s"),
    ("sim.calibrations", "count"),
    ("sim.compile_s", "s"),
    ("setup_warm_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("poly.degree", "count"),
    ("poly.eval_s", "s"),
    ("linalg.svd_apply_s", "s"),
    ("linalg.residual_s", "s"),
    ("linalg.inner_solve_s", "s"),
    ("linalg.inner_solves_per_solve", "count"),
    ("linalg.update_s", "s"),
    ("linalg.matvec_bytes_per_solve", "B"),
    ("linalg.factorize_s", "s"),
    ("trace.unattributed_fraction", "ratio"),
    ("trace.overhead_fraction", "ratio"),
    ("trace.setup_unattributed_fraction", "ratio"),
    ("trace.replay_mismatch_fraction", "ratio"),
    ("trace.untraced_solve_s", "s"),
    ("trace.traced_solve_s", "s"),
];

const WORKLOADS: [&str; 4] = [
    "circuit_stream",
    "circuit_batch_shots",
    "emulation_large_kappa",
    "structured_classical",
];

/// Threads the solver may fan out to (`RAYON_NUM_THREADS`).
const THREADS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad value {value:?} for {flag}"))?
            }
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => return Err(format!("bad value {value:?} for {flag}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn run_workload(name: &str, args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let (seed, secs) = (args.seed, args.seconds);
    let spec = match name {
        "circuit_stream" => &hybrid::CIRCUIT_STREAM,
        "circuit_batch_shots" => &hybrid::CIRCUIT_BATCH_SHOTS,
        "emulation_large_kappa" => &hybrid::EMULATION_LARGE_KAPPA,
        _ if args.trace => return classical::trace(seed, secs, work),
        _ => return classical::run(seed, secs, work),
    };
    if args.trace {
        hybrid::trace(spec, seed, secs, work)
    } else {
        hybrid::run(spec, seed, secs, work)
    }
}

/// Order the metrics as the benchmark declares them, fill per-layer metrics
/// the workload does not exercise with 0, and record non-finite values and
/// undeclared or missing names as problems.
fn complete(outcome: &mut Outcome, trace: bool) {
    let declared: Vec<(&str, Option<&str>)> = if trace {
        PER_LAYER.iter().map(|&(n, u)| (n, Some(u))).collect()
    } else {
        END_TO_END.iter().map(|&n| (n, None)).collect()
    };
    for m in &outcome.metrics {
        match declared.iter().find(|(n, _)| *n == m.name) {
            None => outcome
                .problems
                .push(format!("undeclared metric {}", m.name)),
            Some((_, Some(unit))) if *unit != m.unit => outcome
                .problems
                .push(format!("{} has unit {}, declared {unit}", m.name, m.unit)),
            Some(_) => {}
        }
        if !m.value.is_finite() {
            outcome.problems.push(format!("{} is not finite", m.name));
        }
    }
    let mut ordered = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        match outcome.metrics.iter().position(|m| m.name == name) {
            Some(i) => ordered.push(outcome.metrics.swap_remove(i)),
            None => match unit {
                Some(unit) => ordered.push(report::Metric {
                    name,
                    value: 0.0,
                    unit,
                    samples: 0,
                }),
                None => outcome.problems.push(format!("missing metric {name}")),
            },
        }
    }
    outcome.metrics = ordered;
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Both variables are read once, before any solver code runs: the
    // fan-out width, and a cache root inside the working directory for any
    // construction not given a directory of its own.
    let cwd = std::env::current_dir().expect("working directory");
    let work = match WorkDir::create(
        cwd.join(".perfbench_work")
            .join(std::process::id().to_string()),
    ) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the work directory: {e}");
            std::process::exit(1);
        }
    };
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(THREADS);
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    std::env::set_var("QLS_CACHE_DIR", work.root().join("default"));

    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut runs = Vec::new();
    for name in names {
        match run_workload(name, &args, &work) {
            Ok(mut outcome) => {
                complete(&mut outcome, args.trace);
                outcome.print_lines(name);
                runs.push((name.to_string(), outcome));
            }
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                drop(work);
                std::process::exit(1);
            }
        }
    }
    let correct = runs.iter().all(|(_, o)| o.correct());
    // A single workload reports bare metric names; `all` prefixes each with
    // its workload.
    if runs.len() > 1 {
        for (name, _) in runs.iter_mut() {
            name.push('.');
        }
    } else {
        runs[0].0.clear();
    }
    println!("{}", report::json_line(&runs));
    drop(work);
    let _ = std::fs::remove_dir(cwd.join(".perfbench_work"));
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics this program reports.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for name in END_TO_END {
            assert!(
                json.contains(&format!("{{\"name\": \"{name}\", \"unit\"")),
                "{name}"
            );
        }
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name}");
        }
        for name in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{name}\", \"why\"")),
                "{name}"
            );
        }
        let declared = json.matches("{\"name\": ").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
    }

    #[test]
    fn complete_fills_per_layer_metrics_and_flags_missing_end_to_end_ones() {
        let mut traced = Outcome::default();
        traced.metric("sim.run_s", 1e-5, "s", 3);
        complete(&mut traced, true);
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        assert!(traced.problems.is_empty());

        let mut untraced = Outcome::default();
        untraced.metric("solve_p50_s", f64::NAN, "s", 1);
        complete(&mut untraced, false);
        assert!(untraced.problems.iter().any(|p| p.contains("not finite")));
        assert!(untraced
            .problems
            .iter()
            .any(|p| p.contains("missing metric setup_s")));
    }
}
