//! `querc-benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]`
//! and `querc-benchmark compare <dirA> <dirB>`. See `benchmark/README.md`.

use querc_benchmark::run::{run, Options, Outcome};
use querc_benchmark::spec::{self, Spec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: querc_benchmark::alloc::Counting = querc_benchmark::alloc::Counting;

const USAGE: &str = "usage: querc-benchmark --workload <name|all> [--seed N] [--seconds S] \
                     [--trace 0|1] [--out DIR]\n       querc-benchmark compare <dirA> <dirB>";

struct Args {
    workload: String,
    opts: Options,
}

fn parse(args: &[String], spec: &Spec) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        opts: Options {
            seed: 1,
            seconds: spec.run_seconds,
            traced: false,
            out_dir: PathBuf::from("benchmark/out"),
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.opts.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                parsed.opts.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(parsed.opts.seconds > 0.0 && parsed.opts.seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--trace" => {
                parsed.opts.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => parsed.opts.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

/// The one-line result the driver reads, and the result file's body.
fn result_json(outcome: &Outcome, metrics: &str) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.correct, outcome.attempted, outcome.failed
    )
}

fn run_one(name: &str, spec: &Spec, opts: &Options) -> Result<bool, String> {
    let plan = spec::plan(name).ok_or_else(|| format!("unknown workload {name}"))?;
    if !spec.workloads.iter().any(|w| w == name) {
        return Err(format!("workload {name} is not declared in BENCHMARK.json"));
    }
    let outcome = run(&plan, spec, opts)?;
    let declared = if opts.traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let metrics = outcome.metrics.to_json(declared)?;
    let line = result_json(&outcome, &metrics);
    let file = opts.out_dir.join(if opts.traced {
        format!("{name}.traced.json")
    } else {
        format!("{name}.json")
    });
    let body = format!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"nproc\": {}, \
         \"kernel\": \"{}\", \"commit\": \"{}\", \"result\": {line}, \"metrics\": {metrics}}}\n",
        opts.seed,
        opts.seconds,
        opts.traced,
        querc_benchmark::stack::nproc(),
        querc_linalg::kernel::kernel_name(),
        querc_benchmark::report::commit(),
    );
    std::fs::write(&file, body).map_err(|e| format!("{}: {e}", file.display()))?;
    print!("{}", outcome.log);
    println!("{line}");
    Ok(outcome.correct)
}

/// `--workload all`: one child process per workload, so each reports
/// its own peak memory.
fn run_all(spec: &Spec, opts: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for name in &spec.workloads {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&opts.out_dir)
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("querc-benchmark measures optimized builds only: run it with --release");
        return ExitCode::from(2);
    }
    let spec = match Spec::load() {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("BENCHMARK.json: {e:?}");
            return ExitCode::from(2);
        }
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => Ok(!querc_benchmark::compare::compare(
            &spec,
            Path::new(&args[1]),
            Path::new(&args[2]),
        )),
        Some("compare") => Err(USAGE.to_string()),
        _ => parse(&args, &spec).and_then(|a| {
            if a.workload == "all" {
                run_all(&spec, &a.opts)
            } else {
                run_one(&a.workload, &spec, &a.opts)
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
