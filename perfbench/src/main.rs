//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--selfcheck]
//! ```
//!
//! One run builds the workload's inputs from the seed, sets the system up,
//! measures for about `--seconds`, checks the outputs, prints every metric
//! by name with its unit, and ends standard output with one JSON line.
//! `--trace 0` prints the end-to-end metrics (tracing off), `--trace 1` the
//! per-layer metrics and writes the span file. The README in this directory
//! says what each workload and metric is for.

mod datagen;
mod layers;
mod load;
mod model;
mod offline;
mod report;
mod serving;
mod stack;
mod stats;
mod trace;

use report::{Outcome, END_TO_END};
use stack::Scale;
use std::path::PathBuf;
use std::process::ExitCode;

/// The four workload names, in the order `BENCHMARK.json` lists them.
const WORKLOAD_NAMES: [&str; 4] = ["topk_rerank", "topk_scan", "score_sessions", offline::NAME];

/// Where the run may write: `<target dir>/perf`, inside the checkout.
pub fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("perf")
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Lanes the program's pool gets: every core but the one the generator
/// thread occupies.
fn lanes() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.saturating_sub(1).max(1)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    scale: Scale,
    selfcheck: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--selfcheck]",
        WORKLOAD_NAMES.join("|")
    )
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: None,
        traced: false,
        scale: Scale::Full,
        selfcheck: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => args.scale = Scale::Quick,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOAD_NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Run one workload once.
fn run(workload: &str, seed: u64, seconds: f64, traced: bool, scale: Scale) -> Outcome {
    match serving::WORKLOADS.iter().find(|w| w.name == workload) {
        Some(w) => serving::run(w, seed, seconds, traced, scale),
        None => offline::run(seed, seconds, traced, scale),
    }
}

fn print_table(workload: &str, args: &Args, outcome: &Outcome) {
    println!(
        "# {workload}: scale {}, seed {}, trace {}, lanes {} of {} cores",
        args.scale.name(),
        args.seed,
        u8::from(args.traced),
        lanes(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for (def, v) in report::printed(outcome, args.traced) {
        // After the value: which way is better, and for a layer metric the
        // end-to-end metric it should move (and where).
        println!(
            "{:<34} {:>16.6} {:<8} {} is better{}{}",
            def.name,
            v,
            def.unit,
            def.better.word(),
            if def.moves.is_empty() { "" } else { "; moves " },
            def.moves
        );
    }
    println!(
        "# attempted {} failed {} correct {}",
        outcome.checks.attempted,
        outcome.checks.failed,
        outcome.checks.correct()
    );
    for f in &outcome.checks.failures {
        println!("# FAILED: {f}");
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // Before the first pool use: the generator thread keeps one core.
    std::env::set_var("DELREC_THREADS", lanes().to_string());
    let seconds = args.seconds.unwrap_or(match args.scale {
        Scale::Full => 20.0,
        Scale::Quick => 1.0,
    });

    let outcome = run(&args.workload, args.seed, seconds, args.traced, args.scale);
    print_table(&args.workload, &args, &outcome);
    let mut ok = outcome.checks.correct();

    if args.selfcheck {
        // The same commit, seed and settings again: every end-to-end metric
        // must repeat within its own bound.
        let again = run(&args.workload, args.seed, seconds, false, args.scale);
        ok &= again.checks.correct();
        println!(
            "# selfcheck: two runs of {} at seed {}",
            args.workload, args.seed
        );
        for def in END_TO_END {
            let (Some(a), Some(b)) = (outcome.values.get(def.name), again.values.get(def.name))
            else {
                continue;
            };
            let spread = (a - b).abs() / ((a + b) / 2.0);
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let pass = spread <= bound;
            ok &= pass;
            println!(
                "{:<16} {:>14.6} {:>14.6} {}  spread {:.4} bound {:.2}  {}",
                def.name,
                a,
                b,
                def.unit,
                spread,
                bound,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }

    println!("{}", report::result_line(&outcome, args.traced));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(argv("--workload topk_scan --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds),
            ("topk_scan", 7, Some(10.0))
        );
        assert!(a.traced && a.scale == Scale::Full && !a.selfcheck);
        assert!(parse(argv("--workload nope")).is_err());
        assert!(parse(argv("--workload topk_scan --trace 2")).is_err());
        assert!(parse(argv("--workload topk_scan --seconds 0")).is_err());
        assert!(parse(argv("--seed 1")).is_err(), "a workload is required");
    }

    /// The whole path of every workload at the quick sizes, untraced and
    /// traced. One test, so that the runs do not share cores or files.
    #[test]
    fn quick_runs_every_workload_end_to_end() {
        std::env::set_var("DELREC_THREADS", lanes().to_string());
        for name in WORKLOAD_NAMES {
            for traced in [false, true] {
                let outcome = run(name, 3, 0.5, traced, Scale::Quick);
                assert!(
                    outcome.checks.correct(),
                    "{name} traced={traced}: {:?}",
                    outcome.checks.failures
                );
                let printed = report::printed(&outcome, traced);
                if traced {
                    let nonzero = printed.iter().filter(|(_, v)| *v != 0.0).count();
                    assert!(
                        nonzero >= 20,
                        "{name}: only {nonzero} layer metrics measured"
                    );
                    let file = scratch_dir().join(format!("{name}.trace.json"));
                    assert!(file.exists(), "{name}: no span file");
                } else {
                    for (def, v) in printed {
                        assert!(v.is_finite() && v > 0.0, "{name}: {} = {v}", def.name);
                    }
                }
                let line = report::result_line(&outcome, traced);
                assert!(line.starts_with("{\"correct\": true"));
            }
        }
    }
}
