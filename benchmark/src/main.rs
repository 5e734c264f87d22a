//! The repository benchmark (see `benchmark/README.md`). One invocation
//! runs one workload in one process, prints every metric as
//! `name value unit`, verifies every output, and ends standard output with
//! the one-line JSON result the driver parses:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload fig8_fv [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every layer is measured from outside: by timing calls into public
//! functions and by reading what the public API already returns. The
//! directory is frozen for later non-benchmark changes, so only the API
//! surface listed in the README is used.

mod host;
mod micro;
mod report;
mod run;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::process::ExitCode;

const USAGE: &str =
    "usage: hesgx-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
       hesgx-benchmark --list | --emit-spec";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    List,
    EmitSpec,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, spec::DEFAULT_SEED, spec::RUN_SECONDS as f64, false);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--list" => return Ok(Command::List),
            "--emit-spec" => return Ok(Command::EmitSpec),
            "--workload" => {
                let name = value()?;
                let known = spec::workload(&name)
                    .ok_or_else(|| format!("unknown workload {name}; see --list"))?;
                workload = Some(known.name);
            }
            "--seed" => {
                seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(Command::Run(args)) => args,
        Ok(Command::List) => {
            print!("{}", spec::list());
            return ExitCode::SUCCESS;
        }
        Ok(Command::EmitSpec) => {
            print!("{}", spec::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let (outcome, table, file) = if args.trace {
        let (outcome, artifacts) = run::traced(args.workload, args.seed, args.seconds);
        for (suffix, contents) in [
            ("spans.json", &artifacts.spans),
            ("profile.collapsed.txt", &artifacts.collapsed),
            ("profile.wall.json", &artifacts.wall),
        ] {
            report::write_out(&format!("{}.{suffix}", args.workload), contents);
        }
        (outcome, &spec::PER_LAYER[..], "layers.json")
    } else {
        let outcome = run::end_to_end(args.workload, args.seed, args.seconds);
        (outcome, &spec::END_TO_END[..], "json")
    };
    report::write_out(
        &format!("{}.{file}", args.workload),
        &outcome.file_json(table),
    );

    print!("{}", outcome.lines(table));
    println!("requests_attempted {} count", outcome.attempted);
    println!("requests_failed {} count", outcome.failed);
    println!("noisy {}", outcome.noisy);
    for error in &outcome.errors {
        eprintln!("INCORRECT: {error}");
    }
    println!("{}", outcome.result_line(table));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
