//! The SpecHD workspace benchmark. See README.md; in short:
//!
//! ```text
//! spechd-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//! spechd-benchmark run [--seed N] [--append] [--reverse]           all workloads, gated
//! spechd-benchmark trace [--seed N]                                all workloads, traced
//! spechd-benchmark compare A.json B.json                           verdict per workload × metric
//! spechd-benchmark repeat [--seed N]                               A B A B … of one binary
//! spechd-benchmark spec                                            BENCHMARK.json, from spec.rs
//! ```

mod json;
mod proc;
mod reference;
mod spec;
mod stats;
mod sweep;
mod trace;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage: spechd-benchmark --workload NAME --seed N --seconds S --trace 0|1
       spechd-benchmark run [--seed N] [--append] [--reverse]
       spechd-benchmark trace [--seed N]
       spechd-benchmark compare A.json B.json
       spechd-benchmark repeat [--seed N]
       spechd-benchmark spec";

/// Command-line flags after the subcommand, `--name value` or bare `--name`.
struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None if self.flag(name) => Err(format!("{name} needs a value")),
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{name}: bad value {text:?}")),
        }
    }
}

/// One workload in this process: what the driver and the sweeps start.
fn single_run(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("--workload needs a name")?;
    let seed: u64 = args.number("--seed", 1)?;
    let seconds: f64 = args.number("--seconds", spec::RUN_SECONDS as f64)?;
    let traced = match args.number("--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace: {other} is neither 0 nor 1")),
    };
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds: {seconds} is not a positive duration"));
    }
    let report = workloads::dispatch(name, seed, seconds, traced)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    println!("{}", report.to_json().to_json());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = if argv.first().is_some_and(|a| !a.starts_with("--")) {
        argv.remove(0)
    } else {
        String::new()
    };
    let args = Args(argv);
    let outcome = match command.as_str() {
        "" if args.flag("--workload") => single_run(&args),
        "run" => sweep::run(&args),
        "trace" => sweep::trace(&args),
        "compare" => sweep::compare(&args.0),
        "repeat" => sweep::repeat(&args),
        "spec" => {
            print!("{}", sweep::benchmark_json().to_json_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_flags_and_values() {
        let args = Args(
            ["--seed", "7", "--append", "--seconds", "x"]
                .map(String::from)
                .to_vec(),
        );
        assert!(args.flag("--append") && !args.flag("--reverse"));
        assert_eq!(args.number("--seed", 1u64), Ok(7));
        assert_eq!(args.number("--trace", 0u8), Ok(0));
        assert!(args.number("--seconds", 1.0f64).is_err());
        assert!(Args(vec!["--seed".into()]).number("--seed", 1u64).is_err());
    }
}
