//! `perfbench`: the repository benchmark. Sends Fig. 8 grid requests
//! through the three paths users run — one-shot in-process, the
//! `--procs` fleet, and the resident `sfetch-serve` daemon — checks every
//! merged result bit for bit against a storeless reference, and prints
//! the metrics `BENCHMARK.json` names. See README.md.
//!
//! ```text
//! perfbench --workload fig8-cold|fig8-fleet|serve-mix --seed N --seconds S --trace 0|1
//!           [--jobs N] [--batch N]
//! perfbench --write-reference > perfbench/reference/registered.tsv
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). Everything else
//! goes to standard error. Scratch files live under `.perfbench/` in the
//! working directory; traced runs leave their spans there.

mod fig8;
mod gate;
mod layers;
mod program;
mod report;
mod rss;
mod serve_mix;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{Report, END_TO_END, PER_LAYER};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["fig8-cold", "fig8-fleet", "serve-mix"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 12;

/// Where and how one run measures.
pub struct Env {
    /// Scratch directory of this run (removed at the end).
    pub work: PathBuf,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Time origin of every span.
    pub origin: Instant,
    /// Where the traced run writes its spans.
    pub spans_path: PathBuf,
}

/// Request knobs a comparison may override (the driver never does).
#[derive(Debug, Default, Clone, Copy)]
pub struct Overrides {
    /// `--jobs N`: worker threads per request.
    pub jobs: Option<usize>,
    /// `--batch N`: cells per batched sweep.
    pub batch: Option<usize>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    over: Overrides,
    write_reference: bool,
}

const USAGE: &str = "usage: perfbench --workload fig8-cold|fig8-fleet|serve-mix --seed N \
                     --seconds S --trace 0|1 [--jobs N] [--batch N] | --write-reference";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        over: Overrides::default(),
        write_reference: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--write-reference" {
            a.write_reference = true;
            i += 1;
            continue;
        }
        let v = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |what: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{what} needs a whole number, got {v:?}"))
        };
        match flag {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = num("--seed")?,
            "--seconds" => {
                a.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds needs a positive number, got {v:?}"))?
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--jobs" => a.over.jobs = Some(num("--jobs")?.max(1) as usize),
            "--batch" => a.over.batch = Some(num("--batch")?.max(1) as usize),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    if !a.write_reference {
        if !WORKLOADS.contains(&a.workload.as_str()) {
            return Err(format!("unknown workload {:?}", a.workload));
        }
        if a.seconds <= 0.0 {
            return Err("--seconds is required".into());
        }
    }
    Ok(a)
}

/// Writes the traced run's spans as JSON lines.
///
/// # Errors
///
/// The write failure.
pub fn write_spans(env: &Env, tr: &spans::Tracer) -> Result<(), String> {
    std::fs::write(&env.spans_path, tr.to_jsonl())
        .map_err(|e| format!("write {}: {e}", env.spans_path.display()))
}

/// `--write-reference`: the storeless reference of every request family
/// of the registered program, as the table `gate` embeds.
fn write_reference() {
    let prog = program::build(program::REGISTERED_SEED);
    let grid = sfetch_bench::grid::cells(
        &sfetch_bench::grid::grid_engines(),
        &sfetch_bench::grid::FIG8_WIDTHS,
    );
    let mut all = gate::Reference::default();
    for (fam, family) in program::families().iter().enumerate() {
        eprintln!("reference: family {fam} {family:?}");
        all.extend(gate::Reference::storeless(
            &prog.w,
            fam,
            family,
            &grid,
            program::MAX_WINDOWS,
            program::nproc(),
        ));
    }
    print!("{}", all.to_tsv());
}

fn run(a: &Args) -> Result<Report, String> {
    let root = PathBuf::from(".perfbench");
    let work = root.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let env = Env {
        work: work.clone(),
        seconds: a.seconds,
        trace: a.trace,
        origin: Instant::now(),
        spans_path: root.join(format!("spans-{}-seed{}.jsonl", a.workload, a.seed)),
    };
    let out = match a.workload.as_str() {
        "fig8-cold" => fig8::run(&env, a.seed, false, &a.over),
        "fig8-fleet" => fig8::run(&env, a.seed, true, &a.over),
        _ => serve_mix::run(&env, a.seed, &a.over),
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut report = out?;
    report.set("peak_rss_mb", rss::peak_mib());
    Ok(report)
}

/// Marks the relaunched copy of [`relaunch_without_inherited_children`].
const RELAUNCHED: &str = "PERFBENCH_RELAUNCHED";

/// `cargo run` execs the benchmark in place of cargo, so the processes
/// cargo waited for — the compiler, after a build — already count among
/// this process's reaped children and would set `peak_rss_mb`. A new
/// child process starts with none: when any are counted, run the
/// benchmark in one and pass its exit code on.
fn relaunch_without_inherited_children() -> Option<ExitCode> {
    if rss::children_peak_kib() == 0.0 || std::env::var_os(RELAUNCHED).is_some() {
        return None;
    }
    let status = std::process::Command::new(std::env::current_exe().ok()?)
        .args(std::env::args_os().skip(1))
        .env(RELAUNCHED, "1")
        .status()
        .ok()?;
    Some(ExitCode::from(
        status.code().map_or(1, |c| u8::try_from(c).unwrap_or(1)),
    ))
}

fn main() -> ExitCode {
    // A fleet worker re-spawn of this binary runs its cell and exits here.
    sfetch_bench::fleet_grid::maybe_run_fleet_child();
    if let Some(code) = relaunch_without_inherited_children() {
        return code;
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if a.write_reference {
        write_reference();
        return ExitCode::SUCCESS;
    }
    let report = match run(&a) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let set: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    eprintln!(
        "perfbench: {} seed {} trace {}",
        a.workload,
        a.seed,
        u8::from(a.trace)
    );
    for n in &report.notes {
        eprintln!("  {n}");
    }
    for &(name, unit) in set {
        eprintln!(
            "  {name:<28} {:>14.6} {unit}",
            report.metrics.get(name).copied().unwrap_or(f64::NAN)
        );
    }
    let frac = report.failed as f64 / report.attempted.max(1) as f64;
    eprintln!("  {:<28} {frac:>14.6} fraction", "failed_frac");
    match report.json_line(set) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let a = args("--workload serve-mix --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-mix", 7, 10.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload fig8-cold --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload fig8-cold --seed x --seconds 1 --trace 0").is_err());
    }
}
