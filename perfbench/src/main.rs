//! The pauli-codesign benchmark: one command, three workloads, every
//! end-to-end metric (or, with `--trace 1`, every per-layer metric) with
//! its unit and sample count, and a check of every output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-nh3|batch-sweep|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. The
//! command exits non-zero when any check fails. `--write-expected`
//! recomputes the committed table of expected outputs instead.

mod batch;
mod expected;
mod layers;
mod measure;
mod paper;
mod serving;
mod stages;
mod trace;

use std::collections::BTreeMap;

use obs::json::JsonValue;

use measure::{Outcome, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: perfbench --workload paper-nh3|batch-sweep|serve-mixed \
                     --seed N --seconds S --trace 0|1\n       perfbench --write-expected";

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let bad = |k: &str| format!("bad value for {k}");
    let args = Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|_| bad("--seed"))?,
        seconds: get("--seconds")?.parse().map_err(|_| bad("--seconds"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err(bad("--trace")),
        },
    };
    if flags.len() != 4 {
        return Err("unknown flag".to_string());
    }
    Ok(args)
}

fn main() {
    // The paper workload's kernels run at two threads; the batch and
    // serve paths pin each job to one thread themselves.
    std::env::set_var("PCD_THREADS", "2");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--write-expected"] {
        if let Err(e) = expected::write() {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let table = match expected::Table::load() {
        Ok(table) => table,
        Err(e) => {
            eprintln!("error: {e} (run from the repository root)");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "paper-nh3" => paper::run(&args, &table),
        "batch-sweep" => batch::run(&args, &table),
        "serve-mixed" => serving::run(&args, &table),
        other => {
            eprintln!("error: unknown workload `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    let correct = report(&args, outcome);
    if !correct {
        std::process::exit(1);
    }
}

/// Prints the metric table and the result line; returns whether every
/// check passed. A per-layer metric whose layer the workload never
/// reaches prints as 0 with 0 samples.
fn report(args: &Args, mut out: Outcome) -> bool {
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = BTreeMap::new();
    println!(
        "{:<32} {:>16} {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for &(name, unit) in names {
        let figure = match out.figures.get(name) {
            Some(f) => *f,
            None if args.trace => measure::Figure {
                value: 0.0,
                samples: 0,
            },
            None => {
                out.failures.push(format!("no figure for {name}"));
                continue;
            }
        };
        if !figure.value.is_finite() {
            out.failures.push(format!("{name} is {}", figure.value));
            continue;
        }
        let note = match out.notes.get(name) {
            Some(note) => format!("  ({note})"),
            None if figure.samples == 0 => "  (layer not on this workload's path)".to_string(),
            None => String::new(),
        };
        println!(
            "{name:<32} {:>16.6} {unit:<6} {:>8}{note}",
            figure.value, figure.samples
        );
        let mut m = BTreeMap::new();
        m.insert("value".to_string(), JsonValue::Number(figure.value));
        m.insert("unit".to_string(), JsonValue::String(unit.to_string()));
        metrics.insert(name.to_string(), JsonValue::Object(m));
    }
    for failure in &out.failures {
        eprintln!("check failed: {failure}");
    }
    let correct = out.failures.is_empty();
    let mut line = BTreeMap::new();
    line.insert("correct".to_string(), JsonValue::Bool(correct));
    line.insert(
        "attempted".to_string(),
        JsonValue::Number(out.attempted.max(1) as f64),
    );
    line.insert("failed".to_string(), JsonValue::Number(out.failed as f64));
    line.insert("metrics".to_string(), JsonValue::Object(metrics));
    println!("{}", JsonValue::Object(line));
    correct
}
