//! `solros-bench [<id>...]` regenerates the named experiments of
//! [`solros_bench::EXPERIMENTS`] (every one, in report order, when none is
//! named), printing `## <title>` and the report of each. A failed gate
//! prints `<ID> FAIL: …` to stderr and makes the exit code 1; an unknown
//! id exits 2 before anything runs.

use std::process::ExitCode;

use solros_bench::{find, Experiment, EXPERIMENTS};

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let chosen: Vec<&Experiment> = if ids.is_empty() {
        EXPERIMENTS.iter().collect()
    } else {
        match ids.iter().map(|id| find(id).ok_or(id)).collect() {
            Ok(chosen) => chosen,
            Err(id) => {
                let known: Vec<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
                eprintln!("unknown experiment {id:?}; expected {}", known.join(", "));
                return ExitCode::from(2);
            }
        }
    };
    let mut failed = false;
    for (i, e) in chosen.iter().enumerate() {
        let run = (e.run)();
        let gap = if i == 0 { "" } else { "\n" };
        print!("{gap}## {}\n\n{}", e.title, run.report);
        for f in &run.failures {
            eprintln!("{} FAIL: {f}", e.id.to_uppercase());
        }
        failed |= !run.failures.is_empty();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
