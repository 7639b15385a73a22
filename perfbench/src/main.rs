//! `perfbench` — runs one workload and prints its result line. See the
//! library docs and `README.md`.

use std::process::ExitCode;

use perfbench::{run, Args, USAGE};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    let s = outcome.sizes;
    eprintln!(
        "perfbench: workload={} seed={} files={} lines={} bytes={} edits={} \
         attempted={} failed={} failed_ops_pct={:.3} samples={}",
        args.workload.name(),
        args.seed,
        s.files,
        s.lines,
        s.bytes,
        outcome.edits,
        outcome.attempted,
        outcome.failed,
        100.0 * outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.samples,
    );
    let drift: Vec<String> = outcome
        .p50_by_fifth
        .iter()
        .map(|v| format!("{v:.1}"))
        .collect();
    eprintln!(
        "perfbench: op_us_p50 by fifth of the run: {}",
        drift.join(" ")
    );
    for msg in &outcome.failures {
        eprintln!("perfbench: FAILED {msg}");
    }
    if let Some(trace) = &outcome.trace {
        let path =
            args.trace_dir
                .join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
        let written =
            std::fs::create_dir_all(&args.trace_dir).and_then(|()| std::fs::write(&path, trace));
        match written {
            Ok(()) => eprintln!("perfbench: trace written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    println!("{}", outcome.result_line());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
