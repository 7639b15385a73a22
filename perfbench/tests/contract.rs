//! The benchmark's contract: the metric names it prints are the ones
//! `BENCHMARK.json` declares, traced runs attribute time without
//! negative self times, and `corpus` reproduces the Figure 9 harness.

use std::sync::{Mutex, PoisonError};

use perfbench::{run, Args, Kind, Outcome, END_TO_END, PER_LAYER};
use rtr::json::{parse, Json};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn field<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing"))
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{key} missing"))
        .iter()
        .map(|m| {
            (
                field(m, "name").to_owned(),
                field(m, "unit").to_owned(),
                field(m, "better").to_owned(),
            )
        })
        .collect()
}

fn owned(table: &[(&str, &str, &str)]) -> Vec<(String, String, String)> {
    table
        .iter()
        .map(|(n, u, b)| ((*n).to_owned(), (*u).to_owned(), (*b).to_owned()))
        .collect()
}

#[test]
fn the_metric_tables_match_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), owned(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let kinds: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(workloads, kinds);
}

/// Runs one at a time: the tests run on parallel threads, and a run
/// that shares the CPUs and the process-wide interner with another
/// times its layers with the other's noise.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

fn run_for(workload: Kind, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let _serial = ONE_RUN_AT_A_TIME
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    run(&Args {
        workload,
        seed,
        seconds,
        trace,
        trace_dir: std::env::temp_dir(),
    })
}

fn quick(workload: Kind, seed: u64, trace: bool) -> Outcome {
    run_for(workload, seed, 0.0, trace)
}

/// The printed metrics, parsed back from the result line.
fn printed(out: &Outcome) -> Vec<(String, f64, String)> {
    let line = parse(&out.result_line()).expect("the result line is JSON");
    assert_eq!(
        line.get("correct").and_then(Json::as_bool),
        Some(out.correct)
    );
    match line.get("metrics") {
        Some(Json::Obj(members)) => members
            .iter()
            .map(|(name, m)| {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                (name.clone(), value, field(m, "unit").to_owned())
            })
            .collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

/// Checks that every span lies inside its parent (the op).
fn check_trace(out: &Outcome) {
    let doc = parse(out.trace.as_deref().expect("a traced run keeps a trace")).expect("JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("events");
    assert!(!events.is_empty());
    let num = |e: &Json, k: &str| e.get(k).and_then(Json::as_f64).expect(k);
    for e in events {
        assert!(num(e, "dur") >= 0.0);
        let args = e.get("args").expect("args");
        if let Some(p) = args.get("parent").and_then(Json::as_f64) {
            let parent = &events[p as usize];
            assert_eq!(field(parent, "name"), "op");
            assert_eq!(num(parent.get("args").unwrap(), "op"), num(args, "op"));
            assert!(num(e, "ts") >= num(parent, "ts"));
            assert!(num(e, "ts") + num(e, "dur") <= num(parent, "ts") + num(parent, "dur") + 2e-3);
        }
    }
}

#[test]
fn every_run_prints_exactly_the_named_metrics() {
    for kind in Kind::ALL {
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let out = quick(kind, 7, trace);
            assert!(out.correct, "{kind:?}: {:?}", out.failures);
            assert!(out.attempted >= 1);
            let metrics = printed(&out);
            let names: Vec<(&str, &str)> = metrics
                .iter()
                .map(|(n, _, u)| (n.as_str(), u.as_str()))
                .collect();
            let want: Vec<(&str, &str)> = table.iter().map(|(n, u, _)| (*n, *u)).collect();
            assert_eq!(names, want, "{kind:?} trace={trace}");
            assert!(metrics.iter().all(|(_, v, _)| v.is_finite()));
            if trace {
                check_trace(&out);
            } else {
                let e2e: Vec<f64> = metrics.iter().map(|m| m.1).collect();
                assert!(e2e.iter().all(|v| *v > 0.0), "{kind:?}: {metrics:?}");
            }
        }
    }
}

/// `elab.time_us` and `session.residual_us` are a call's time minus
/// the separately timed calls it is made of, kept signed per op. Their
/// means over a run must not be negative beyond noise (5% of the
/// `check_module` time): a layer attributed to the wrong parent shows
/// here as a large negative self time.
#[test]
fn self_times_are_not_negative_on_average() {
    for (kind, seconds) in [
        (Kind::Corpus, 0.0),
        (Kind::Edit, 2.0),
        (Kind::Theories, 2.0),
    ] {
        let out = run_for(kind, 11, seconds, true);
        assert!(out.correct, "{kind:?}: {:?}", out.failures);
        let metrics = printed(&out);
        let value = |name: &str| {
            metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .unwrap_or_else(|| panic!("{name} printed"))
                .1
        };
        let tolerance = 0.05 * value("module.time_us");
        for name in ["elab.time_us", "session.residual_us"] {
            assert!(
                value(name) >= -tolerance,
                "{kind:?}: {name} = {} below -{tolerance}",
                value(name)
            );
        }
    }
}

#[test]
fn corpus_auto_verified_pct_matches_fig9_at_seed_2016() {
    let study = {
        let _serial = ONE_RUN_AT_A_TIME
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        rtr::corpus::report::run_case_study(2016, false)
    };
    let auto: usize = study.tallies.iter().map(|t| t.auto_ops).sum();
    let total: usize = study.tallies.iter().map(|t| t.total()).sum();
    let misclassified: usize = study.tallies.iter().map(|t| t.misclassified).sum();
    assert_eq!(misclassified, 0);
    let fig9 = 100.0 * auto as f64 / total as f64;
    let designed = perfbench::batch::corpus(2016).passes[0].expected_auto_pct();
    assert!((designed - fig9).abs() < 1e-9, "{designed} vs {fig9}");
    let out = quick(Kind::Corpus, 2016, false);
    assert!(out.correct, "{:?}", out.failures);
    let measured = printed(&out)
        .into_iter()
        .find(|(n, _, _)| n == "auto_verified_pct")
        .expect("auto_verified_pct")
        .1;
    assert!((measured - fig9).abs() < 1e-9, "{measured} vs {fig9}");
}
