//! `bench run | compare | manifest` — see `README.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use solros_benchmark::json::{obj, parse, Value};
use solros_benchmark::run::{provenance, run_traced, run_untraced, Options};
use solros_benchmark::workloads::NAMES;
use solros_benchmark::{compare, metrics};

const USAGE: &str = "usage:
  bench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--traced]
            [--trace-calls N] [--setups N] [--warmup S] [--out FILE] [--out-dir DIR]
      With --workload: runs it once and prints the driver's result object
      as the last line (--trace 0: end-to-end metrics, --trace 1: per-layer,
      --traced: both, per-layer last).
      Without: runs all eight, each in a process of its own (and their
      traced passes with --traced), prints every metric and writes a
      result file for `bench compare`.
  bench compare A.json B.json
  bench manifest            prints BENCHMARK.json";

/// Which passes a run makes.
#[derive(Clone, Copy, PartialEq)]
enum Passes {
    Untraced,
    Traced,
    Both,
}

struct RunArgs {
    opts: Options,
    workload: Option<String>,
    passes: Passes,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        opts: Options::default(),
        workload: None,
        passes: Passes::Untraced,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            r.passes = Passes::Both;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {v}: expected {what}");
        match flag.as_str() {
            "--workload" => r.workload = Some(v.clone()),
            "--seed" => {
                r.opts.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|_| bad("an integer"))?;
            }
            "--seconds" => {
                r.opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("seconds in (0, 600]"))?;
            }
            "--warmup" => {
                r.opts.warmup_s = v
                    .parse()
                    .ok()
                    .filter(|s| *s >= 0.0 && *s <= 60.0)
                    .ok_or_else(|| bad("seconds in [0, 60]"))?;
            }
            "--trace" => {
                r.passes = match v.as_str() {
                    "0" => Passes::Untraced,
                    "1" => Passes::Traced,
                    _ => return Err(bad("0 or 1")),
                };
            }
            "--trace-calls" => {
                r.opts.trace_calls = Some(
                    v.parse()
                        .ok()
                        .filter(|n| (1..=1_000_000).contains(n))
                        .ok_or_else(|| bad("a count in [1, 1000000]"))?,
                );
            }
            "--setups" => {
                r.opts.setups = v
                    .parse()
                    .ok()
                    .filter(|n| (1..=9).contains(n))
                    .ok_or_else(|| bad("a count in [1, 9]"))?;
            }
            "--out" => r.out = Some(PathBuf::from(v)),
            "--out-dir" => r.opts.out_dir = PathBuf::from(v),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Some(w) = &r.workload {
        if !NAMES.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {NAMES:?}"));
        }
    }
    Ok(r)
}

/// Runs one workload in this process. Prints every metric, writes the
/// full record to `--out` if given, and ends with the driver's line.
fn run_one(name: &str, a: &RunArgs) -> Result<ExitCode, String> {
    let mut entry = Vec::new();
    let mut last = None;
    if a.passes != Passes::Traced {
        let r = run_untraced(name, &a.opts)?;
        r.print();
        entry.push(("end_to_end", r.to_json()));
        last = Some(r);
    }
    if a.passes != Passes::Untraced {
        let r = run_traced(name, &a.opts)?;
        r.print();
        entry.push(("per_layer", r.to_json()));
        last = Some(r);
    }
    if let Some(out) = &a.out {
        std::fs::write(out, obj(entry).pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    println!("{}", last.expect("at least one pass").driver_line());
    Ok(ExitCode::SUCCESS)
}

/// Runs all eight workloads, each in a child process so that `rss_mb` is
/// one system's footprint and not what earlier workloads left behind,
/// and writes the combined result file.
fn run_all(a: &RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    std::fs::create_dir_all(&a.opts.out_dir)
        .map_err(|e| format!("{}: {e}", a.opts.out_dir.display()))?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for name in NAMES {
        let part = a.opts.out_dir.join(format!("part-{name}.json"));
        let mut child = std::process::Command::new(&exe);
        child
            .args(["run", "--workload", name])
            .args(["--seed", &a.opts.seed.to_string()])
            .args(["--seconds", &a.opts.seconds.to_string()])
            .args(["--warmup", &a.opts.warmup_s.to_string()])
            .args(["--setups", &a.opts.setups.to_string()])
            .arg("--out-dir")
            .arg(&a.opts.out_dir)
            .arg("--out")
            .arg(&part);
        if a.passes == Passes::Both {
            child.arg("--traced");
        }
        if let Some(n) = a.opts.trace_calls {
            child.args(["--trace-calls", &n.to_string()]);
        }
        let status = child.status().map_err(|e| format!("spawn {name}: {e}"))?;
        if !status.success() {
            return Err(format!("{name} exited with {status}"));
        }
        let text = std::fs::read_to_string(&part).map_err(|e| format!("{part:?}: {e}"))?;
        let entry = parse(&text).map_err(|e| format!("{part:?}: {e}"))?;
        let _ = std::fs::remove_file(&part);
        for pass in ["end_to_end", "per_layer"] {
            if let Some(r) = entry.get(pass) {
                all_correct &= r.get("correct") == Some(&Value::Bool(true));
            }
        }
        workloads.push((name.to_string(), entry));
    }
    let doc = obj([
        // A result file records measurements; it never claims a gain.
        ("claim", Value::Null),
        ("provenance", provenance(&a.opts)),
        ("workloads", Value::Obj(workloads)),
    ]);
    let out = a
        .out
        .clone()
        .unwrap_or_else(|| a.opts.out_dir.join(format!("result-{}.json", a.opts.seed)));
    std::fs::write(&out, doc.pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;
    match &a.workload {
        Some(w) => run_one(w, &a),
        None => run_all(&a),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, [a, b])) if cmd == "compare" => {
            compare::main(a, b).map(|code| ExitCode::from(code as u8))
        }
        Some((cmd, [])) if cmd == "manifest" => {
            print!("{}", metrics::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("bench: {e}");
        ExitCode::from(2)
    })
}
