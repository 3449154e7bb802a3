//! The repository benchmark: one command runs a workload from a seed, checks
//! every response against an independent reference, and prints each metric by
//! name with its unit.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result object; the line before it
//! carries the environment stamp and per-run detail. See `perfbench/README.md`.

mod env;
mod inputs;
mod pipeline;
mod stats;
mod trace;
mod workloads;

use serde::Value;

use workloads::Args;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required: one of {}",
            workloads::WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// A metric value as JSON; a non-finite value (an infinite tail from failed
/// ops) is printed as 1e12 so the line stays valid JSON.
fn number(value: f64) -> Value {
    Value::Float(if value.is_finite() { value } else { 1e12 })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let outcome = match workloads::run(&args) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    };
    let mut detail = outcome.detail;
    detail.push(("ops_attempted".to_string(), Value::Uint(outcome.attempted)));
    detail.push((
        "ops_completed".to_string(),
        Value::Uint(outcome.attempted - outcome.failed),
    ));
    println!(
        "{}",
        serde::json::to_string(&Value::Object(vec![(
            "detail".to_string(),
            Value::Object(detail)
        )]))
    );
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_string(),
                Value::Object(vec![
                    ("value".to_string(), number(value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    println!(
        "{}",
        serde::json::to_string(&Value::Object(vec![
            ("correct".to_string(), Value::Bool(outcome.correct)),
            ("attempted".to_string(), Value::Uint(outcome.attempted)),
            ("failed".to_string(), Value::Uint(outcome.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]))
    );
}
