//! End-to-end smoke test of the `bench` binary: every workload with short
//! windows plus its traced pass, then the shape of everything it emits.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use solros_benchmark::json::{parse, Value};
use solros_benchmark::metrics::{manifest, END_TO_END, PER_LAYER};
use solros_benchmark::workloads::NAMES;

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("bench binary runs")
}

fn scratch(sub: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(sub);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn name_ok(n: &str) -> bool {
    !n.is_empty()
        && n.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

fn metric_names(run: &Value) -> Vec<String> {
    let metrics = run.get("metrics").and_then(Value::as_obj).expect("metrics");
    for (name, m) in metrics {
        assert!(name_ok(name), "metric name {name:?}");
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        assert!(!unit.is_empty(), "{name} has no unit");
        assert!(
            m.get("value").and_then(Value::as_f64).is_some(),
            "{name} has no numeric value"
        );
    }
    metrics.iter().map(|(n, _)| n.clone()).collect()
}

#[test]
fn all_workloads_run_trace_and_emit_a_valid_result_file() {
    let dir = scratch("all");
    let out = dir.join("result.json");
    let (dir_s, out_s) = (dir.to_str().unwrap(), out.to_str().unwrap());
    let run = bench(&[
        "run",
        "--seconds",
        "0.6",
        "--warmup",
        "0.05",
        "--setups",
        "1",
        "--seed",
        "2",
        "--traced",
        "--trace-calls",
        "50",
        "--out-dir",
        dir_s,
        "--out",
        out_s,
    ]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "run failed\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(!stdout.contains("TRIPWIRE"), "{stdout}");

    let doc = parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(doc.get("claim"), Some(&Value::Null));
    let prov = doc.get("provenance").expect("provenance");
    for key in ["commit", "rustc", "seed", "seconds", "max_windows", "nproc"] {
        assert!(prov.get(key).is_some(), "provenance lacks {key}");
    }
    let workloads = doc.get("workloads").and_then(Value::as_obj).unwrap();
    assert_eq!(workloads.len(), 8);
    for ((name, w), want) in workloads.iter().zip(NAMES) {
        assert_eq!(name, want);
        let e2e = w.get("end_to_end").unwrap();
        let layers = w.get("per_layer").unwrap();
        for run in [e2e, layers] {
            assert_eq!(run.get("correct"), Some(&Value::Bool(true)), "{name}");
            assert_eq!(run.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(run.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        }
        let e2e_names = metric_names(e2e);
        assert!(e2e_names.len() <= 16 && e2e_names.iter().any(|n| n == "setup_s"));
        assert_eq!(e2e_names, END_TO_END.map(|m| m.name));
        let windows = e2e
            .get("metrics")
            .and_then(|m| m.get("ops_per_s"))
            .and_then(|m| m.get("windows"))
            .and_then(Value::as_arr)
            .unwrap();
        let bounds = solros_benchmark::run::MIN_WINDOWS..=solros_benchmark::run::MAX_WINDOWS;
        assert!(bounds.contains(&windows.len()), "{} windows", windows.len());
        let layer_names = metric_names(layers);
        assert!(layer_names.len() <= 128);
        assert_eq!(layer_names, PER_LAYER.map(|m| m.0));
        let spans = std::fs::read_to_string(dir.join(format!("trace-{name}.json"))).unwrap();
        let spans = parse(&spans).unwrap();
        let spans = spans.as_arr().unwrap();
        assert!(spans.len() >= 100, "{name}: {} spans", spans.len());
        assert!(spans
            .iter()
            .all(|s| s.get("name").is_some() && s.get("req").is_some()));
    }

    // A result compared with itself is never worse.
    let cmp = bench(&["compare", out_s, out_s]);
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "{table}");
    assert!(table.contains(" 0 worse"), "{table}");
}

#[test]
fn driver_mode_prints_the_contract_line_last() {
    let dir = scratch("driver");
    for (trace, want) in [
        ("0", END_TO_END.map(|m| m.name).to_vec()),
        ("1", PER_LAYER.map(|m| m.0).to_vec()),
    ] {
        let run = bench(&[
            "run",
            "--workload",
            "fs_lease_read_4k",
            "--seed",
            "3",
            "--seconds",
            "0.3",
            "--trace",
            trace,
            "--trace-calls",
            "200",
            "--out-dir",
            dir.to_str().unwrap(),
        ]);
        assert!(run.status.success());
        let stdout = String::from_utf8_lossy(&run.stdout);
        let line = parse(stdout.lines().last().unwrap()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(metric_names(&line), want);
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--seconds", "-1"],
        &["run", "--bogus", "1"],
        &["compare", "only-one.json"],
        &[],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn committed_manifest_is_the_generated_one() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(parse(&committed).unwrap(), manifest());
    assert_eq!(committed, manifest().pretty(), "regenerate: bench manifest");
}
