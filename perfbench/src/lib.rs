//! The repo benchmark: end-to-end and per-layer cost of the RTR checker
//! on three workloads (`corpus`, `edit`, `theories`). See `README.md`
//! for what each workload and metric means and which layer metric
//! should move which end-to-end metric.
//!
//! ```text
//! perfbench --workload <corpus|edit|theories> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (every [`END_TO_END`] metric with
//! `--trace 0`, every [`PER_LAYER`] metric with `--trace 1`).

pub mod batch;
pub mod edit;
pub mod layers;
pub mod measure;
pub mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use layers::Layers;
use rand::rngs::StdRng;
use rand::Rng;
use rtr::core::intern::evict_epoch;
use trace::Tracer;

/// `(name, unit, better)` of each end-to-end metric, as in
/// `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("op_us_p50", "us", "lower"),
    ("op_us_p99", "us", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("lines_per_s", "lines/s", "higher"),
    ("ok_ops_pct", "%", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("auto_verified_pct", "%", "higher"),
];

/// `(name, unit, better)` of each per-layer metric, as in
/// `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("sexp.time_us", "us", "lower"),
    ("sexp.bytes", "bytes", "lower"),
    ("sexp.ns_per_byte", "ns/byte", "lower"),
    ("sexp.forms", "count", "lower"),
    ("elab.time_us", "us", "lower"),
    ("elab.items", "count", "lower"),
    ("module.time_us", "us", "lower"),
    ("module.items", "count", "lower"),
    ("module.diagnostics", "count", "lower"),
    ("module.memo_entries", "count", "lower"),
    ("incremental.time_us", "us", "lower"),
    ("incremental.noop_us", "us", "lower"),
    ("incremental.rechecked_items", "count", "lower"),
    ("incremental.unchanged_items", "count", "higher"),
    ("incremental.fallbacks", "count", "lower"),
    ("incremental.splice_ratio", "ratio", "higher"),
    ("session.residual_us", "us", "lower"),
    ("session.evictions", "count", "lower"),
    ("json.time_us", "us", "lower"),
    ("json.bytes", "bytes", "lower"),
    ("json.ns_per_byte", "ns/byte", "lower"),
    ("lsp.decode_us", "us", "lower"),
    ("lsp.encode_us", "us", "lower"),
    ("lsp.bytes_in", "bytes", "lower"),
    ("lsp.bytes_out", "bytes", "lower"),
    ("trace.overhead_us", "us", "lower"),
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// `peak_rss_mb` is the process high-water mark after set-up and this
/// many ops (or at the end of a shorter run).
pub const RSS_AFTER_OPS: u64 = 1000;

/// A traced run first runs this share of the untraced op count
/// untraced, to measure the tracing overhead against...
const UNTRACED_SHARE: f64 = 0.25;

/// ...and then this share traced (a traced op also runs every layer
/// probe, so it costs several untraced ops).
const TRACED_SHARE: f64 = 0.125;

/// A run that has not finished its ops after this many times
/// `--seconds` stops at the next point the workload allows, so that a
/// very slow host still ends within its time limit (standard error
/// says so).
const WALL_CAP_FACTOR: f64 = 3.0;

/// Spans kept in memory per traced run.
const SPAN_CAP: usize = 60_000;

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Cold checks of the §5 synthetic libraries.
    Corpus,
    /// An LSP editing session.
    Edit,
    /// Cold checks of solver-bound modules.
    Theories,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [Kind::Corpus, Kind::Edit, Kind::Theories];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Corpus => "corpus",
            Kind::Edit => "edit",
            Kind::Theories => "theories",
        }
    }

    /// Ops per second of `--seconds`. A run is a fixed amount of work,
    /// `seconds × ops_per_second` ops (rounded up to the next point the
    /// workload may stop at), not a wall-clock length: op times grow as
    /// the process ages, so a run cut by the clock would read slower on
    /// a faster host. The rates are what a shared 2-vCPU Xeon KVM guest
    /// reached in a slow spell, where a run takes about `--seconds`
    /// (about half that in a quiet one).
    pub fn ops_per_second(self) -> f64 {
        match self {
            Kind::Corpus => 1800.0,
            Kind::Edit => 450.0,
            Kind::Theories => 800.0,
        }
    }
}

/// Input sizes of a workload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sizes {
    /// Files (documents, for `edit`).
    pub files: u64,
    /// Lines over all files.
    pub lines: u64,
    /// Bytes over all files.
    pub bytes: u64,
}

/// A workload after set-up: runs ops one at a time.
pub trait Workload {
    /// Runs one op, recording it in `rec`; traced when `tracer` is
    /// given. Returns `true` at a point where the run may stop (the end
    /// of a pass, or no error left open).
    fn op(&mut self, rec: &mut Recorder, tracer: Option<&mut Tracer>) -> bool;

    /// Checks, after the last op, whatever could not be checked during
    /// the run without disturbing it.
    fn finish(&mut self, _rec: &mut Recorder) {}

    /// The input sizes.
    fn sizes(&self) -> Sizes;
}

/// Builds a workload's inputs and sessions.
pub fn setup(kind: Kind, seed: u64) -> Box<dyn Workload> {
    match kind {
        Kind::Corpus => Box::new(batch::BatchRun::new(batch::corpus(seed))),
        Kind::Edit => Box::new(edit::EditRun::new(seed)),
        Kind::Theories => Box::new(batch::BatchRun::new(batch::theories(seed))),
    }
}

/// Fisher–Yates shuffle driven by the workload's seeded generator.
pub(crate) fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// What the ops of one run produced.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Wall time of each untraced op.
    pub op_ns: Vec<u64>,
    /// Input lines over the untraced ops.
    pub lines: u64,
    /// Ops run, traced or not.
    pub attempted: u64,
    /// Ops (or passes) whose output was wrong.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Vector ops in the checked inputs.
    pub vec_ops: u64,
    /// Of those, the ones that verified as written.
    pub vec_ops_verified: u64,
    /// Edits applied (`edit` only).
    pub edits: u64,
    /// Per-layer sums over the traced ops.
    pub layers: Layers,
    /// The peak resident set size after [`RSS_AFTER_OPS`] ops.
    pub rss_mb: Option<f64>,
}

impl Recorder {
    /// Records one op: its wall time and lines (untraced ops only; a
    /// traced op's time goes to [`Layers`]) and its failure, if any.
    pub fn op(&mut self, traced: bool, ns: u64, lines: u64, failure: Option<String>) {
        self.attempted += 1;
        if !traced {
            self.op_ns.push(ns);
            self.lines += lines;
        }
        if let Some(msg) = failure {
            self.fail(msg);
        }
    }

    /// Records a wrong output.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(msg);
        }
    }
}

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload.
    pub workload: Kind,
    /// Seed for every generated input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// A traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Where the traced run writes its Chrome trace.
    pub trace_dir: PathBuf,
}

/// The usage line.
pub const USAGE: &str = "usage: perfbench --workload <corpus|edit|theories> --seed <n> \
                         --seconds <s> --trace <0|1> [--trace-dir <dir>]";

impl Args {
    /// Parses `--workload`, `--seed`, `--seconds` and `--trace` (all
    /// required) and `--trace-dir`.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = args.into_iter();
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut trace_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Kind::ALL
                            .into_iter()
                            .find(|k| k.name() == value)
                            .ok_or_else(bad)?,
                    );
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0);
                    seconds = Some(s.ok_or_else(bad)?);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    });
                }
                "--trace-dir" => trace_dir = PathBuf::from(value),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            trace_dir,
        })
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every output checked out.
    pub correct: bool,
    /// Ops run.
    pub attempted: u64,
    /// Wrong outputs.
    pub failed: u64,
    /// `(name, value, unit)`, in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Input sizes.
    pub sizes: Sizes,
    /// Edits applied.
    pub edits: u64,
    /// Untraced op samples behind the percentiles.
    pub samples: usize,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Median untraced op time (µs) in each fifth of the run, in order:
    /// drift across a run shows here.
    pub p50_by_fifth: Vec<f64>,
    /// The Chrome trace of a traced run.
    pub trace: Option<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn unit_of(table: &[(&'static str, &'static str, &str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, u, _)| *u)
        .expect("every reported metric is in its table")
}

/// Runs `workload` until it has run at least `ops` more ops and may
/// stop, or until `deadline` has passed and it may stop. Returns whether
/// the deadline cut the run short.
fn run_ops(
    workload: &mut dyn Workload,
    rec: &mut Recorder,
    mut tracer: Option<&mut Tracer>,
    ops: u64,
    deadline: Instant,
) -> bool {
    let end = rec.attempted + ops.max(1);
    loop {
        let may_stop = workload.op(rec, tracer.as_deref_mut());
        if rec.attempted == RSS_AFTER_OPS {
            rec.rss_mb = Some(measure::peak_rss_mb());
        }
        if may_stop && rec.attempted >= end {
            return false;
        }
        if may_stop && Instant::now() >= deadline {
            return true;
        }
    }
}

/// Sets the workload up, runs its fixed number of ops (see
/// [`Kind::ops_per_second`]), checks what is left to check, and
/// computes the metrics.
///
/// An untraced run sets up [`SETUP_REPS`] times before the ops and
/// keeps the last workload built; `setup_s` is the median.
pub fn run(args: &Args) -> Outcome {
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut workload = None;
    for _ in 0..reps {
        let start = Instant::now();
        workload = Some(setup(args.workload, args.seed));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");

    let ops = (args.seconds * args.workload.ops_per_second()).ceil() as u64;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds * WALL_CAP_FACTOR);
    let mut rec = Recorder::default();
    let mut tracer = args.trace.then(|| Tracer::new(SPAN_CAP));
    let capped = match tracer.as_mut() {
        None => run_ops(workload.as_mut(), &mut rec, None, ops, deadline),
        Some(t) => {
            let untraced = (ops as f64 * UNTRACED_SHARE) as u64;
            let epoch = evict_epoch();
            let capped = run_ops(workload.as_mut(), &mut rec, None, untraced, deadline);
            let untraced_ops = rec.attempted;
            let untraced_evictions = evict_epoch() - epoch;
            let traced = (ops as f64 * TRACED_SHARE) as u64;
            // Run at least one traced op even when the untraced phase
            // was cut short.
            let capped = run_ops(workload.as_mut(), &mut rec, Some(t), traced, deadline) || capped;
            eprintln!(
                "perfbench: evictions per op: {:.4} untraced, {:.4} traced (the difference is the probes')",
                untraced_evictions as f64 / untraced_ops as f64,
                rec.layers.session_evictions as f64 / rec.layers.ops.max(1) as f64,
            );
            capped
        }
    };
    if capped {
        eprintln!(
            "perfbench: stopped after {} of {ops} ops: the run passed {WALL_CAP_FACTOR} × --seconds",
            rec.attempted
        );
    }
    let rss_mb = rec.rss_mb.unwrap_or_else(measure::peak_rss_mb);
    workload.finish(&mut rec);

    let fifth = rec.op_ns.len().div_ceil(5).max(1);
    let p50_by_fifth = rec
        .op_ns
        .chunks(fifth)
        .map(|c| {
            let mut c = c.to_vec();
            c.sort_unstable();
            measure::percentile(&c, 50.0) as f64 / 1e3
        })
        .collect();
    let mut sorted = rec.op_ns.clone();
    sorted.sort_unstable();
    let busy_s = sorted.iter().sum::<u64>() as f64 / 1e9;
    let mean_us = busy_s * 1e6 / sorted.len() as f64;
    let metrics = if args.trace {
        rec.layers
            .metrics(mean_us)
            .into_iter()
            .map(|(name, v)| (name, v, unit_of(PER_LAYER, name)))
            .collect()
    } else {
        let n = sorted.len() as f64;
        let e2e = [
            ("setup_s", measure::median(&setup_s)),
            ("op_us_p50", measure::percentile(&sorted, 50.0) as f64 / 1e3),
            ("op_us_p99", measure::percentile(&sorted, 99.0) as f64 / 1e3),
            ("ops_per_s", n / busy_s),
            ("lines_per_s", rec.lines as f64 / busy_s),
            (
                "ok_ops_pct",
                100.0 * (rec.attempted - rec.failed.min(rec.attempted)) as f64
                    / rec.attempted as f64,
            ),
            ("peak_rss_mb", rss_mb),
            (
                "auto_verified_pct",
                100.0 * rec.vec_ops_verified as f64 / rec.vec_ops.max(1) as f64,
            ),
        ];
        e2e.into_iter()
            .map(|(name, v)| (name, v, unit_of(END_TO_END, name)))
            .collect()
    };
    let sizes = workload.sizes();
    let trace = tracer.map(|t| {
        t.chrome_json(&[
            ("workload", args.workload.name().to_owned()),
            ("seed", args.seed.to_string()),
            ("files", sizes.files.to_string()),
            ("lines", sizes.lines.to_string()),
            ("bytes", sizes.bytes.to_string()),
            ("edits", rec.edits.to_string()),
            ("traced_ops", rec.layers.ops.to_string()),
        ])
    });
    Outcome {
        correct: rec.failed == 0,
        attempted: rec.attempted,
        failed: rec.failed,
        metrics,
        sizes,
        edits: rec.edits,
        samples: sorted.len(),
        failures: rec.failures,
        p50_by_fifth,
        trace,
    }
}
