//! The THEMIS benchmark (see `perfbench/README.md`).
//!
//! ```text
//! themis-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints every end-to-end (`--trace 0`) or per-layer (`--trace 1`)
//! metric as one JSON object on its last line. The same binary also runs
//! the child processes the benchmark spawns: `real` (one engine run),
//! `replay` (the traced single-threaded replay) and `pump` (the
//! federated workload's `source-pump` process).

mod bench;
mod procfs;
mod real;
mod record;
mod replay;
mod stats;
mod trace;
mod workload;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use workload::Workload;

/// Parses `--key value` pairs (and bare `--flag`s) after the mode.
fn flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a}"))?;
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().cloned().unwrap_or_default(),
            _ => String::new(),
        };
        out.insert(key.to_string(), value);
    }
    Ok(out)
}

fn need<T: std::str::FromStr>(f: &HashMap<String, String>, key: &str) -> Result<T, String> {
    let v = f.get(key).ok_or_else(|| format!("missing --{key}"))?;
    v.parse()
        .map_err(|_| format!("--{key} {v}: not a valid value"))
}

fn workload(f: &HashMap<String, String>) -> Result<Workload, String> {
    let name: String = need(f, "workload")?;
    Workload::parse(&name).ok_or_else(|| {
        let known: Vec<&str> = workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })
}

/// Scratch directory: under the build directory, inside the checkout.
fn default_scratch() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("perfbench-scratch")
}

fn main_inner(args: &[String]) -> Result<i32, String> {
    let mode = args.first().map(String::as_str).unwrap_or("");
    match mode {
        "pump" => {
            themis_workloads::remote::pump_main(&args[1..])?;
            Ok(0)
        }
        "real" => {
            let f = flags(&args[1..])?;
            let rec = real::run(&real::RealRun {
                workload: workload(&f)?,
                seed: need(&f, "seed")?,
                run_ms: need(&f, "run-ms")?,
                sampler: f.contains_key("sampler"),
                scratch: need(&f, "scratch")?,
            });
            print!("{}", rec.to_lines());
            Ok(0)
        }
        "replay" => {
            let f = flags(&args[1..])?;
            let rec = replay::run(&replay::Replay {
                workload: workload(&f)?,
                seed: need(&f, "seed")?,
                run_ms: need(&f, "run-ms")?,
                budget_ms: need(&f, "budget-ms")?,
                scratch: need(&f, "scratch")?,
            });
            print!("{}", rec.to_lines());
            Ok(0)
        }
        _ => {
            let f = flags(args)?;
            let trace: u8 = need(&f, "trace")?;
            if trace > 1 {
                return Err("--trace takes 0 or 1".into());
            }
            let seconds: u64 = need(&f, "seconds")?;
            if seconds == 0 {
                return Err("--seconds must be at least 1".into());
            }
            Ok(bench::run(&bench::Bench {
                workload: workload(&f)?,
                seed: need(&f, "seed")?,
                seconds,
                trace: trace == 1,
                scratch: f
                    .get("scratch")
                    .map(PathBuf::from)
                    .unwrap_or_else(default_scratch),
            }))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(code) => ExitCode::from(code as u8),
        Err(e) => {
            eprintln!("themis-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_take_values_and_bare_switches() {
        let f = flags(&strings(&["--seed", "7", "--sampler", "--run-ms", "100"])).unwrap();
        assert_eq!(f["seed"], "7");
        assert_eq!(f["sampler"], "");
        assert_eq!(need::<u64>(&f, "run-ms"), Ok(100));
        assert!(need::<u64>(&f, "seconds").is_err());
        assert!(flags(&strings(&["stray"])).is_err());
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(main_inner(&strings(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(main_inner(&strings(&[
            "--workload",
            "fan-in",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
    }
}
