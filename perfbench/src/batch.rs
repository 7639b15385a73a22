//! The batch workloads, `corpus` and `theories`: cold `rtr check --json`
//! style checks of seeded passes over files whose verdicts are known in
//! advance.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtr::core::intern::evict_epoch;
use rtr::corpus::gen::generate;
use rtr::corpus::patterns::Class;
use rtr::corpus::profiles::libraries;
use rtr::json::reports_to_json;
use rtr::session::{CheckReport, Session, SessionConfig, SourceFile};

use crate::layers::{
    client_frame, did_open_params, ns, self_time, server_decode, server_publish, ProbeTimes, Probes,
};
use crate::trace::Tracer;
use crate::{shuffle, Recorder, Sizes, Workload};

/// Filler definitions per generated filler module.
pub const FILLER_PER_MODULE: usize = 40;

/// One file of a batch and what checking it must produce.
#[derive(Clone, Debug)]
pub struct BatchFile {
    /// The file.
    pub file: SourceFile,
    /// The verdict it must get (`None`: not constrained by the design,
    /// e.g. a site's annotated variant the staged method never tries).
    pub expect_clean: Option<bool>,
    /// Vector operations counted toward `auto_verified_pct` (a site's
    /// as-written module, a `dot-prod` module); 0 for other files.
    pub vec_ops: u64,
    /// Lines of text.
    pub lines: u64,
}

impl BatchFile {
    fn new(name: String, text: String, expect_clean: Option<bool>, vec_ops: u64) -> BatchFile {
        let lines = text.lines().count() as u64;
        BatchFile {
            file: SourceFile::new(name, text),
            expect_clean,
            vec_ops,
            lines,
        }
    }
}

/// One pass over a batch: files in check order.
#[derive(Clone, Debug)]
pub struct Pass {
    /// The files, in check order.
    pub files: Vec<BatchFile>,
}

impl Pass {
    /// `auto_verified_pct` as designed: the share of counted vector ops
    /// in files that must check clean.
    pub fn expected_auto_pct(&self) -> f64 {
        let total: u64 = self.files.iter().map(|f| f.vec_ops).sum();
        let clean: u64 = self
            .files
            .iter()
            .filter(|f| f.expect_clean == Some(true))
            .map(|f| f.vec_ops)
            .sum();
        100.0 * clean as f64 / total.max(1) as f64
    }
}

/// Seeded passes plus the answers known in advance; the run checks
/// them in turn, round-robin.
#[derive(Clone, Debug)]
pub struct Batch {
    /// The passes.
    pub passes: Vec<Pass>,
    /// A fresh session per file (`theories`) instead of per pass.
    pub session_per_file: bool,
}

impl Batch {
    /// Files, lines and bytes over all passes.
    pub fn sizes(&self) -> Sizes {
        let files = || self.passes.iter().flat_map(|p| &p.files);
        Sizes {
            files: files().count() as u64,
            lines: files().map(|f| f.lines).sum(),
            bytes: files().map(|f| f.file.text.len() as u64).sum(),
        }
    }
}

/// The shape of a definition made by `rtr_corpus::patterns::filler_def`:
/// its name without the numeric id (`util`, `clamp` or `both`).
pub fn filler_shape(def: &str) -> &str {
    let name = def.strip_prefix("(: ").unwrap_or(def);
    let end = name
        .find(|c: char| !c.is_ascii_alphabetic())
        .unwrap_or(name.len());
    &name[..end]
}

/// The §5 synthetic libraries (plot, pict3d, math) at `seed`: each
/// site's as-written, annotated and modified variants are files of their
/// own, and the filler is grouped into modules of [`FILLER_PER_MODULE`]
/// definitions with equal shares of each filler shape.
///
/// Expected verdicts follow the staged method: a site's as-written
/// module is clean exactly when its designed class is `Auto`; the
/// annotated variant is clean for `Annotation` and must fail for
/// `Modification` (or the site would classify as annotated); the
/// modified variant is clean for `Modification`. Filler is clean.
pub fn corpus(seed: u64) -> Batch {
    let mut files = Vec::new();
    for profile in libraries() {
        let lib = generate(&profile, seed);
        let name = lib.profile.name;
        for site in &lib.sites {
            let ops = site.num_ops as u64;
            let auto = site.expected == Class::Auto;
            let id = site.id;
            files.push(BatchFile::new(
                format!("{name}/site{id}.rtr"),
                site.plain.clone(),
                Some(auto),
                ops,
            ));
            if let Some(text) = &site.annotated {
                let expect = match site.expected {
                    Class::Annotation => Some(true),
                    Class::Modification => Some(false),
                    _ => None,
                };
                files.push(BatchFile::new(
                    format!("{name}/site{id}.annotated.rtr"),
                    text.clone(),
                    expect,
                    0,
                ));
            }
            if let Some(text) = &site.modified {
                let expect = (site.expected == Class::Modification).then_some(true);
                files.push(BatchFile::new(
                    format!("{name}/site{id}.modified.rtr"),
                    text.clone(),
                    expect,
                    0,
                ));
            }
        }
        // The filler, sorted by shape, is dealt over the modules in
        // turn, so every module gets the same mix of shapes (to within
        // one each): the costliest modules, which set `op_us_p99`, then
        // cost about the same on every seed.
        let mut filler: Vec<&str> = lib.filler.iter().map(String::as_str).collect();
        filler.sort_by_key(|def| filler_shape(def));
        let modules = filler.len().div_ceil(FILLER_PER_MODULE);
        for k in 0..modules {
            files.push(BatchFile::new(
                format!("{name}/filler{k}.rtr"),
                filler.iter().skip(k).step_by(modules).copied().collect(),
                Some(true),
                0,
            ));
        }
    }
    Batch {
        passes: vec![Pass { files }],
        session_per_file: false,
    }
}

/// The theory module generators, by name.
const THEORY_KINDS: [&str; 4] = ["xtime", "bv_chain", "string", "dot_prod"];

/// Levels per theory kind: level `j` has `2 + 2j` items, plus a seeded
/// jitter of 0 or 1.
pub const LEVELS_PER_THEORY: usize = 6;

/// Passes of theory modules per run; each has every kind at every
/// level, with its own jitter and order.
pub const THEORY_PASSES: usize = 64;

/// Solver-bound modules from `rtr-bench`: bitvector (`xtime_module_src`,
/// `bv_chain_src`, CDCL), regex (`string_module_src`, DFA) and linear
/// arithmetic (`dot_prod_module_src`, Fourier–Motzkin), with sizes on a
/// seeded-jitter grid and a seeded order per pass. Every module must be
/// clean; each `dot-prod` function has two vector ops, all verifying.
pub fn theories(seed: u64) -> Batch {
    let mut rng = StdRng::seed_from_u64(seed);
    let passes = (0..THEORY_PASSES)
        .map(|_| {
            let mut files = Vec::new();
            for kind in THEORY_KINDS {
                for level in 0..LEVELS_PER_THEORY {
                    let n = 2 + 2 * level + rng.gen_range(0..2usize);
                    let (text, ops) = match kind {
                        "xtime" => (rtr_bench::xtime_module_src(n), 0),
                        "bv_chain" => (rtr_bench::bv_chain_src(n), 0),
                        "string" => (rtr_bench::string_module_src(n), 0),
                        _ => (rtr_bench::dot_prod_module_src(n), 2 * n as u64),
                    };
                    files.push(BatchFile::new(
                        format!("{kind}_{n}.rtr"),
                        text,
                        Some(true),
                        ops,
                    ));
                }
            }
            shuffle(&mut files, &mut rng);
            Pass { files }
        })
        .collect();
    Batch {
        passes,
        session_per_file: true,
    }
}

/// A batch being checked pass after pass.
pub struct BatchRun {
    batch: Batch,
    session: Session,
    probes: Probes,
    pass: usize,
    next: usize,
    op: u64,
    lsp_wire: Vec<u8>,
}

/// The session `rtr check` builds: serial, from-scratch.
pub fn check_session() -> Session {
    Session::new(SessionConfig {
        jobs: 1,
        incremental: false,
        ..SessionConfig::default()
    })
}

impl BatchRun {
    /// Ready to check `batch` from its first file.
    pub fn new(batch: Batch) -> BatchRun {
        BatchRun {
            batch,
            session: check_session(),
            probes: Probes::new(),
            pass: 0,
            next: 0,
            op: 0,
            lsp_wire: Vec::new(),
        }
    }

    fn traced_op(&mut self, tracer: &mut Tracer, rec: &mut Recorder) -> CheckReport {
        let file = &self.batch.passes[self.pass].files[self.next].file;
        let op = self.op;
        let layers = &mut rec.layers;
        let start = Instant::now();
        let root = tracer.open("op", op);
        if self.batch.session_per_file {
            self.probes = Probes::new();
        }
        // The probes and the session check alternate which runs first,
        // so that what one leaves warm favours neither.
        let probes_first = op.is_multiple_of(2);
        let mut probe = ProbeTimes::default();
        if probes_first {
            probe = self.probes.run(tracer, op, root, file, layers);
        }
        let session = &mut self.session;
        let per_file = self.batch.session_per_file;
        let epoch = evict_epoch();
        let (report, t_session) = tracer.time("session.check", op, root, || {
            if per_file {
                *session = check_session();
            }
            session.check(file)
        });
        layers.session_evictions += evict_epoch() - epoch;
        if !probes_first {
            probe = self.probes.run(tracer, op, root, file, layers);
        }
        layers.session_residual_ns += self_time(t_session, probe.elaborate + probe.module);
        let (json, t_json) = tracer.time("json.reports_to_json", op, root, || {
            reports_to_json(std::slice::from_ref(&report))
        });
        layers.json_ns += ns(t_json);
        layers.json_bytes += json.len() as u64;
        // What an editor opening this file would cost the server.
        let wire = client_frame(
            "textDocument/didOpen",
            &did_open_params(&format!("file:///{}", file.name), 1, &file.text),
        );
        let (incoming, t_decode) = tracer.time("lsp.decode", op, root, || server_decode(&wire));
        let incoming = incoming.expect("a well-formed didOpen decodes");
        let out = &mut self.lsp_wire;
        let ((), t_encode) = tracer.time("lsp.encode", op, root, || {
            server_publish(
                &incoming.uri,
                incoming.version,
                &incoming.text,
                &report.diagnostics,
                out,
            )
        });
        layers.lsp_decode_ns += ns(t_decode);
        layers.lsp_encode_ns += ns(t_encode);
        layers.lsp_bytes_in += wire.len() as u64;
        layers.lsp_bytes_out += out.len() as u64;
        tracer.close(root);
        layers.ops += 1;
        layers.op_ns += ns(start.elapsed());
        report
    }
}

/// Why `report` is wrong for `f`, if it is. `json` is checked on a
/// sample of ops (`Some`) against the report it renders.
fn verdict_failure(f: &BatchFile, report: &CheckReport, json: Option<&str>) -> Option<String> {
    if let Some(d) = report
        .diagnostics
        .iter()
        .find(|d| matches!(d.code.as_str(), "E0202" | "E0203"))
    {
        return Some(format!(
            "{}: {} {}",
            f.file.name,
            d.code.as_str(),
            d.message
        ));
    }
    if let Some(want) = f.expect_clean {
        if report.is_clean() != want {
            return Some(format!(
                "{}: clean = {}, designed {want}",
                f.file.name,
                report.is_clean()
            ));
        }
    }
    let json = json?;
    let doc = match rtr::json::parse(json) {
        Ok(doc) => doc,
        Err(e) => return Some(format!("{}: report JSON does not parse: {e}", f.file.name)),
    };
    let errors = doc
        .get("summary")
        .and_then(|s| s.get("errors"))
        .and_then(rtr::json::Json::as_f64);
    (errors != Some(report.stats.errors as f64))
        .then(|| format!("{}: report JSON summary disagrees", f.file.name))
}

/// Every this many ops, the rendered JSON is parsed and checked.
const JSON_CHECK_EVERY: u64 = 16;

impl Workload for BatchRun {
    fn op(&mut self, rec: &mut Recorder, tracer: Option<&mut Tracer>) -> bool {
        if self.next == 0 && !self.batch.session_per_file {
            self.session = check_session();
            self.probes = Probes::new();
        }
        let (report, json, elapsed_ns, traced) = match tracer {
            None => {
                let file = &self.batch.passes[self.pass].files[self.next].file;
                let start = Instant::now();
                if self.batch.session_per_file {
                    self.session = check_session();
                }
                let report = self.session.check(file);
                let json = reports_to_json(std::slice::from_ref(&report));
                let elapsed = ns(start.elapsed());
                (report, Some(black_box(json)), elapsed, false)
            }
            Some(t) => (self.traced_op(t, rec), None, 0, true),
        };
        let pass = &self.batch.passes[self.pass];
        let f = &pass.files[self.next];
        let json = json.filter(|_| self.op.is_multiple_of(JSON_CHECK_EVERY));
        let failure = verdict_failure(f, &report, json.as_deref());
        if f.vec_ops > 0 {
            rec.vec_ops += f.vec_ops;
            if report.is_clean() {
                rec.vec_ops_verified += f.vec_ops;
            }
        }
        rec.op(traced, elapsed_ns, f.lines, failure);
        self.op += 1;
        self.next += 1;
        if self.next < pass.files.len() {
            return false;
        }
        self.pass = (self.pass + 1) % self.batch.passes.len();
        self.next = 0;
        true
    }

    fn sizes(&self) -> Sizes {
        self.batch.sizes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(b: &Batch) -> Vec<(String, String)> {
        b.passes
            .iter()
            .flat_map(|p| &p.files)
            .map(|f| (f.file.name.clone(), f.file.text.clone()))
            .collect()
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(texts(&corpus(5)), texts(&corpus(5)));
        assert_ne!(texts(&corpus(5)), texts(&corpus(6)));
        assert_eq!(texts(&theories(5)), texts(&theories(5)));
        assert_ne!(texts(&theories(5)), texts(&theories(6)));
    }

    #[test]
    fn the_corpus_has_paper_scale_and_fixed_op_counts() {
        let b = corpus(2016);
        let s = b.sizes();
        assert!(s.lines > 56_835, "at least the paper's 56,835 lines: {s:?}");
        let ops: u64 = b.passes[0].files.iter().map(|f| f.vec_ops).sum();
        assert_eq!(ops, 1_085, "the paper's vector-op count");
    }

    #[test]
    fn filler_modules_have_equal_shares_of_each_shape() {
        let b = corpus(2016);
        for lib in ["plot", "pict3d", "math"] {
            for shape in ["util", "clamp", "both"] {
                let counts: Vec<usize> = b.passes[0]
                    .files
                    .iter()
                    .filter(|f| f.file.name.starts_with(&format!("{lib}/filler")))
                    .map(|f| f.file.text.matches(&format!("(: {shape}")).count())
                    .collect();
                let (min, max) = (counts.iter().min(), counts.iter().max());
                assert!(
                    max.unwrap() - min.unwrap() <= 1,
                    "{lib} {shape}: {counts:?}"
                );
            }
        }
        assert_eq!(filler_shape("(: clamp12 : [x : Int] -> Int)"), "clamp");
    }

    #[test]
    fn theories_cover_every_kind_at_every_level() {
        let b = theories(2016);
        assert_eq!(b.passes.len(), THEORY_PASSES);
        for pass in &b.passes {
            assert_eq!(pass.files.len(), THEORY_KINDS.len() * LEVELS_PER_THEORY);
            for kind in THEORY_KINDS {
                let n = pass
                    .files
                    .iter()
                    .filter(|f| f.file.name.starts_with(kind))
                    .count();
                assert_eq!(n, LEVELS_PER_THEORY, "{kind}");
            }
        }
    }
}
