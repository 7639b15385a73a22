//! The `edit` workload: one client in a closed loop against an `rtr lsp`
//! style server, following a seeded edit script over documents built
//! from corpus sites plus filler.
//!
//! The server side of each round trip runs in this process through the
//! same public calls `rtr lsp` makes — `framing::read_message`,
//! `protocol::parse_message`, `Session::check_cancellable` on the
//! document overlay, `LineIndex`, `publish_diagnostics_params`,
//! `framing::write_message` — so no thread hand-off is timed.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtr::core::budget::CancelToken;
use rtr::core::intern::evict_epoch;
use rtr::corpus::gen::generate;
use rtr::corpus::patterns::{filler_def, Class};
use rtr::corpus::profiles::libraries;
use rtr::json::{reports_to_json, Json};
use rtr::session::{CheckReport, Session, SessionConfig, SourceFile};

use crate::batch::{check_session, filler_shape};
use crate::layers::{
    client_frame, client_read_publish, did_change_params, did_open_params, ns, self_time,
    server_decode, server_publish, uri_to_path, ProbeTimes, Probes,
};
use crate::trace::Tracer;
use crate::{shuffle, Recorder, Sizes, Workload};

/// Open documents.
const DOCS: usize = 2;
/// Corpus sites per document.
const SITES: usize = 48;
/// Filler definitions per document.
const FILLERS: usize = 63;
/// Shapes `rtr_corpus::patterns::filler_def` draws from.
const FILLER_SHAPES: usize = 3;
/// Editable definitions per document (body edits, errors).
const EDITABLE: usize = 24;
/// Hubs per document, each with one dependent (signature edits). Hub
/// `h` sits at a seeded position in the `h`-th of as many equal strata
/// of the document, so a signature edit re-checks a seeded share of the
/// document, and the shares are spread alike on every seed.
const HUBS: usize = 16;
/// Every this many ops, and every [`REFERENCE_ERRORS_EVERY`]th op whose
/// publish carries an error, the publish is compared with a
/// from-scratch check of the same text after the run.
const REFERENCE_EVERY: u64 = 64;
/// See [`REFERENCE_EVERY`].
const REFERENCE_ERRORS_EVERY: u64 = 16;

/// A piece of a document.
#[derive(Clone, Debug)]
enum Part {
    /// Fixed text: a corpus site (with its vector ops) or filler.
    Text { text: String, vec_ops: u64 },
    /// A definition its dependent calls; its signature toggles between
    /// a plain and a refined range.
    Hub { h: usize, refined: bool },
    /// The caller of hub `h`.
    Dependent { h: usize },
    /// A definition whose body the script edits or breaks.
    Editable { k: usize, a: i64, broken: bool },
}

/// One open document.
#[derive(Clone, Debug)]
pub struct Doc {
    index: usize,
    uri: String,
    version: i64,
    parts: Vec<Part>,
}

impl Doc {
    fn part_text(&self, part: &Part) -> String {
        let d = self.index;
        match part {
            Part::Text { text, .. } => text.clone(),
            Part::Hub { h, refined } => {
                let range = if *refined {
                    "[z : Int #:where (> z x)]"
                } else {
                    "Int"
                };
                format!("(: hub{d}x{h} : [x : Int] -> {range})\n(define (hub{d}x{h} x) (+ x 1))\n")
            }
            Part::Dependent { h } => format!(
                "(: dep{d}x{h} : [y : Int] -> Int)\n\
                 (define (dep{d}x{h} y) (hub{d}x{h} (+ y {h})))\n"
            ),
            Part::Editable { k, a, broken } => {
                let b = if *broken {
                    "#t".to_owned()
                } else {
                    (k % 7).to_string()
                };
                format!(
                    "(: ed{d}x{k} : [x : Int] [y : Int] -> Int)\n\
                     (define (ed{d}x{k} x y)\n\
                     \x20 (+ (* {a} x) (- y {b})))\n"
                )
            }
        }
    }

    /// The text, and the 1-based line range and vector-op count of each
    /// corpus site in it.
    pub fn render(&self) -> (String, Vec<(u32, u32, u64)>) {
        let mut text = String::new();
        let mut sites = Vec::new();
        let mut line = 1u32;
        for part in &self.parts {
            let t = self.part_text(part);
            let n = t.lines().count() as u32;
            if let Part::Text { vec_ops, .. } = part {
                if *vec_ops > 0 {
                    sites.push((line, line + n - 1, *vec_ops));
                }
            }
            line += n;
            text.push_str(&t);
        }
        (text, sites)
    }

    /// Error diagnostics the document must produce: one per broken
    /// definition.
    pub fn expected_errors(&self) -> usize {
        self.parts
            .iter()
            .filter(|p| matches!(p, Part::Editable { broken: true, .. }))
            .count()
    }

    fn editable(&mut self, k: usize) -> (&mut i64, &mut bool) {
        self.parts
            .iter_mut()
            .find_map(|p| match p {
                Part::Editable { k: j, a, broken } if *j == k => Some((a, broken)),
                _ => None,
            })
            .expect("every editable index exists")
    }

    fn hub(&mut self, h: usize) -> &mut bool {
        self.parts
            .iter_mut()
            .find_map(|p| match p {
                Part::Hub { h: j, refined } if *j == h => Some(refined),
                _ => None,
            })
            .expect("every hub index exists")
    }
}

/// Builds document `d` from the seeded corpus library plot (even `d`)
/// or math (odd `d`): a seeded shuffle of verifying sites (as written,
/// annotated or modified, whichever the design says verifies), filler
/// and editable definitions, cut into [`HUBS`] equal strata, with hub
/// `h` and then its dependent at seeded positions in stratum `h`.
///
/// The mix is fixed and only the draws within it are seeded, so the
/// cost of a document barely depends on the seed: sites are taken
/// round-robin over the library's access patterns, and filler in equal
/// numbers of each filler shape.
pub fn document(seed: u64, d: usize) -> Doc {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(d as u64 + 1)));
    let library = if d.is_multiple_of(2) { "plot" } else { "math" };
    let profile = libraries()
        .into_iter()
        .find(|p| p.name == library)
        .expect("the corpus has plot and math");
    let lib = generate(&profile, seed);
    let mut by_pattern: BTreeMap<&str, Vec<(String, u64)>> = BTreeMap::new();
    for s in &lib.sites {
        let text = match s.expected {
            Class::Auto => Some(&s.plain),
            Class::Annotation => s.annotated.as_ref(),
            Class::Modification => s.modified.as_ref(),
            _ => None,
        };
        if let Some(t) = text {
            by_pattern
                .entry(s.pattern)
                .or_default()
                .push((t.clone(), s.num_ops as u64));
        }
    }
    for group in by_pattern.values_mut() {
        shuffle(group, &mut rng);
    }
    let mut parts = Vec::new();
    while parts.len() < SITES && by_pattern.values().any(|g| !g.is_empty()) {
        for group in by_pattern.values_mut() {
            if let Some((text, vec_ops)) = group.pop() {
                if parts.len() < SITES {
                    parts.push(Part::Text { text, vec_ops });
                }
            }
        }
    }
    let mut shapes: BTreeMap<String, usize> = BTreeMap::new();
    let mut fid = 0usize;
    while shapes.values().sum::<usize>() < FILLERS {
        let text = filler_def(&mut rng, fid);
        fid += 1;
        let n = shapes.entry(filler_shape(&text).to_owned()).or_default();
        if *n < FILLERS.div_ceil(FILLER_SHAPES) {
            *n += 1;
            parts.push(Part::Text { text, vec_ops: 0 });
        }
    }
    for k in 0..EDITABLE {
        let a = rng.gen_range(1..=9);
        parts.push(Part::Editable {
            k,
            a,
            broken: false,
        });
    }
    shuffle(&mut parts, &mut rng);
    let n = parts.len();
    let mut rest = parts.into_iter();
    let mut parts = Vec::with_capacity(n + 2 * HUBS);
    for h in 0..HUBS {
        let stratum: Vec<Part> = rest
            .by_ref()
            .take((h + 1) * n / HUBS - h * n / HUBS)
            .collect();
        let at_hub = rng.gen_range(0..=stratum.len());
        let at_dep = rng.gen_range(at_hub..=stratum.len());
        let mut stratum = stratum.into_iter();
        parts.extend(stratum.by_ref().take(at_hub));
        parts.push(Part::Hub { h, refined: false });
        parts.extend(stratum.by_ref().take(at_dep - at_hub));
        parts.push(Part::Dependent { h });
        parts.extend(stratum);
    }
    Doc {
        index: d,
        uri: format!("file:///edit/doc{d}.rtr"),
        version: 1,
        parts,
    }
}

/// One step of the edit script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Edit {
    /// Change one editable body's coefficient by `delta` (mod 9): a
    /// splice of one item.
    Body { doc: usize, k: usize, delta: i64 },
    /// Toggle hub `h`'s range: its dependent, and every item after the
    /// hub, must re-check.
    Signature { doc: usize, h: usize },
    /// Break one editable body (a type error is published).
    Break { doc: usize, k: usize },
    /// Undo the matching `Break`.
    Fix { doc: usize, k: usize },
    /// Resend the unchanged text (a save with no edit).
    Save { doc: usize },
}

impl Edit {
    /// The edited document.
    fn doc(self) -> usize {
        match self {
            Edit::Body { doc, .. }
            | Edit::Signature { doc, .. }
            | Edit::Break { doc, .. }
            | Edit::Fix { doc, .. }
            | Edit::Save { doc } => doc,
        }
    }
}

/// The seeded edit script. Each block of eight edits holds four body
/// edits, one signature edit, one break/fix pair (adjacent) and one
/// save, in a seeded order over seeded definitions and hubs; blocks
/// take the documents in turn, so every document gets the same mix.
/// These proportions are assumed, not taken from a trace of real
/// editing sessions.
#[derive(Debug)]
pub struct Script {
    rng: StdRng,
    queue: VecDeque<Edit>,
    blocks: usize,
}

impl Script {
    /// The script for `seed`.
    pub fn new(seed: u64) -> Script {
        Script {
            rng: StdRng::seed_from_u64(seed.wrapping_add(0x5EED)),
            queue: VecDeque::new(),
            blocks: 0,
        }
    }

    fn refill(&mut self) {
        let mut units: Vec<u8> = vec![0, 0, 0, 0, 1, 2, 3];
        shuffle(&mut units, &mut self.rng);
        let doc = self.blocks % DOCS;
        self.blocks += 1;
        for unit in units {
            let k = self.rng.gen_range(0..EDITABLE);
            match unit {
                0 => {
                    let delta = self.rng.gen_range(1..=8);
                    self.queue.push_back(Edit::Body { doc, k, delta });
                }
                1 => {
                    let h = self.rng.gen_range(0..HUBS);
                    self.queue.push_back(Edit::Signature { doc, h });
                }
                2 => {
                    self.queue.push_back(Edit::Break { doc, k });
                    self.queue.push_back(Edit::Fix { doc, k });
                }
                _ => self.queue.push_back(Edit::Save { doc }),
            }
        }
    }
}

impl Iterator for Script {
    type Item = Edit;

    fn next(&mut self) -> Option<Edit> {
        if self.queue.is_empty() {
            self.refill();
        }
        self.queue.pop_front()
    }
}

/// Applies `edit`; returns the edited document's index.
fn apply(docs: &mut [Doc], edit: Edit) -> usize {
    match edit {
        Edit::Body { doc, k, delta } => {
            let (a, _) = docs[doc].editable(k);
            *a = (*a - 1 + delta).rem_euclid(9) + 1;
        }
        Edit::Signature { doc, h } => {
            let refined = docs[doc].hub(h);
            *refined = !*refined;
        }
        Edit::Break { doc, k } | Edit::Fix { doc, k } => {
            let (_, broken) = docs[doc].editable(k);
            *broken = matches!(edit, Edit::Break { .. });
        }
        Edit::Save { .. } => {}
    }
    edit.doc()
}

/// The live session: documents, script and the server's session.
pub struct EditRun {
    seed: u64,
    docs: Vec<Doc>,
    script: Script,
    session: Session,
    probes: Probes,
    op: u64,
    wire: Vec<u8>,
    sizes: Sizes,
    /// `(op, hash of its publish)` for the ops compared with a
    /// from-scratch check in [`Workload::finish`].
    samples: Vec<(u64, u64)>,
}

/// Whether op `op`'s publish is compared with a from-scratch check.
fn sampled(op: u64, errors: bool) -> bool {
    op.is_multiple_of(REFERENCE_EVERY) || (errors && op.is_multiple_of(REFERENCE_ERRORS_EVERY))
}

/// The publish of a from-scratch check of `doc` as it stands.
fn reference_publish(doc: &Doc) -> Vec<u8> {
    let (text, _) = doc.render();
    let file = SourceFile::new(uri_to_path(&doc.uri), text);
    let report = check_session().check(&file);
    let mut wire = Vec::new();
    server_publish(
        &doc.uri,
        doc.version,
        &file.text,
        &report.diagnostics,
        &mut wire,
    );
    wire
}

fn hash(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

/// The session `rtr lsp` builds: serial, incremental.
fn lsp_session() -> Session {
    Session::new(SessionConfig {
        jobs: 1,
        incremental: true,
        ..SessionConfig::default()
    })
}

impl EditRun {
    /// Builds the documents and opens each (a cold check and publish).
    ///
    /// # Panics
    ///
    /// If an opened document does not publish clean.
    pub fn new(seed: u64) -> EditRun {
        let docs: Vec<Doc> = (0..DOCS).map(|d| document(seed, d)).collect();
        let mut run = EditRun {
            seed,
            samples: Vec::new(),
            sizes: Sizes::default(),
            docs,
            script: Script::new(seed),
            session: lsp_session(),
            probes: Probes::new(),
            op: 0,
            wire: Vec::new(),
        };
        for d in 0..DOCS {
            let doc = &run.docs[d];
            let (text, _) = doc.render();
            run.sizes.files += 1;
            run.sizes.lines += text.lines().count() as u64;
            run.sizes.bytes += text.len() as u64;
            let wire = client_frame(
                "textDocument/didOpen",
                &did_open_params(&doc.uri, doc.version, &text),
            );
            let m = server_decode(&wire).expect("a well-formed didOpen decodes");
            let file = SourceFile::new(uri_to_path(&m.uri), m.text);
            let report = run.session.check_cancellable(&file, &CancelToken::new());
            assert!(
                report.is_clean(),
                "{} opens clean: {:?}",
                m.uri,
                report.diagnostics
            );
            server_publish(
                &m.uri,
                m.version,
                &file.text,
                &report.diagnostics,
                &mut run.wire,
            );
        }
        run
    }

    fn traced_op(
        &mut self,
        wire: &[u8],
        tracer: &mut Tracer,
        rec: &mut Recorder,
    ) -> (SourceFile, CheckReport) {
        let op = self.op;
        let layers = &mut rec.layers;
        let start = Instant::now();
        let root = tracer.open("op", op);
        let (m, t_decode) = tracer.time("lsp.decode", op, root, || server_decode(wire));
        let m = m.expect("a well-formed didChange decodes");
        let file = SourceFile::new(uri_to_path(&m.uri), m.text);
        // The probes and the session check alternate which runs first,
        // so that what one leaves warm favours neither.
        let probes_first = op.is_multiple_of(2);
        let mut probe = ProbeTimes::default();
        if probes_first {
            probe = self.probes.run(tracer, op, root, &file, layers);
        }
        let session = &self.session;
        let epoch = evict_epoch();
        let (report, t_session) = tracer.time("session.check", op, root, || {
            session.check_cancellable(&file, &CancelToken::new())
        });
        layers.session_evictions += evict_epoch() - epoch;
        if !probes_first {
            probe = self.probes.run(tracer, op, root, &file, layers);
        }
        layers.session_residual_ns += self_time(t_session, probe.incremental);
        let (json, t_json) = tracer.time("json.reports_to_json", op, root, || {
            reports_to_json(std::slice::from_ref(&report))
        });
        layers.json_ns += ns(t_json);
        layers.json_bytes += json.len() as u64;
        let out = &mut self.wire;
        let ((), t_encode) = tracer.time("lsp.encode", op, root, || {
            server_publish(&m.uri, m.version, &file.text, &report.diagnostics, out)
        });
        tracer.close(root);
        layers.lsp_decode_ns += ns(t_decode);
        layers.lsp_encode_ns += ns(t_encode);
        layers.lsp_bytes_in += wire.len() as u64;
        layers.lsp_bytes_out += self.wire.len() as u64;
        layers.ops += 1;
        layers.op_ns += ns(start.elapsed());
        (file, report)
    }

    /// Why the publish now in `self.wire` is wrong, if it is.
    fn publish_failure(&self, d: usize, report: &CheckReport) -> Option<String> {
        let doc = &self.docs[d];
        let params = match client_read_publish(&self.wire) {
            Ok(p) => p,
            Err(e) => return Some(format!("publish does not decode: {e}")),
        };
        let diagnostics = params.get("diagnostics").and_then(Json::as_array);
        let uri = params.get("uri").and_then(Json::as_str);
        let version = params.get("version").and_then(Json::as_f64);
        if uri != Some(doc.uri.as_str()) || version != Some(doc.version as f64) {
            return Some(format!(
                "publish for {uri:?} v{version:?}, sent {} v{}",
                doc.uri, doc.version
            ));
        }
        let got = diagnostics.map_or(usize::MAX, <[Json]>::len);
        if got != doc.expected_errors() {
            return Some(format!(
                "{} v{}: {got} diagnostics published, designed {}",
                doc.uri,
                doc.version,
                doc.expected_errors()
            ));
        }
        if let Some(d) = report
            .diagnostics
            .iter()
            .find(|d| matches!(d.code.as_str(), "E0202" | "E0203"))
        {
            return Some(format!("{}: {} {}", doc.uri, d.code.as_str(), d.message));
        }
        None
    }
}

impl Workload for EditRun {
    fn op(&mut self, rec: &mut Recorder, tracer: Option<&mut Tracer>) -> bool {
        let edit = self.script.next().expect("the script is endless");
        if tracer.is_some() {
            // The probes' incremental cache starts where the session's
            // is: at the text before this edit.
            let doc = &self.docs[edit.doc()];
            self.probes
                .warm(&SourceFile::new(uri_to_path(&doc.uri), doc.render().0));
        }
        let d = apply(&mut self.docs, edit);
        let doc = &mut self.docs[d];
        doc.version += 1;
        let (text, sites) = doc.render();
        let wire = client_frame(
            "textDocument/didChange",
            &did_change_params(&doc.uri, doc.version, &text),
        );
        let (file, report, elapsed_ns, traced) = match tracer {
            None => {
                let start = Instant::now();
                let m = server_decode(&wire).expect("a well-formed didChange decodes");
                let file = SourceFile::new(uri_to_path(&m.uri), m.text);
                let report = self.session.check_cancellable(&file, &CancelToken::new());
                server_publish(
                    &m.uri,
                    m.version,
                    &file.text,
                    &report.diagnostics,
                    &mut self.wire,
                );
                (file, report, ns(start.elapsed()), false)
            }
            Some(t) => {
                let (file, report) = self.traced_op(&wire, t, rec);
                (file, report, 0, true)
            }
        };
        if sampled(self.op, self.docs[d].expected_errors() > 0) {
            self.samples.push((self.op, hash(&self.wire)));
        }
        let failure = self.publish_failure(d, &report);
        for (first, last, ops) in sites {
            rec.vec_ops += ops;
            let hit = report.diagnostics.iter().any(|diag| {
                diag.is_error()
                    && diag
                        .primary
                        .is_some_and(|s| (first..=last).contains(&s.start.line))
            });
            if !hit {
                rec.vec_ops_verified += ops;
            }
        }
        rec.edits += 1;
        rec.op(
            traced,
            elapsed_ns,
            file.text.lines().count() as u64,
            failure,
        );
        self.op += 1;
        self.docs.iter().all(|doc| doc.expected_errors() == 0)
    }

    /// Replays the seeded script on fresh documents and compares each
    /// sampled publish with the publish of a from-scratch check. Done
    /// after the run because any check in this process may evict the
    /// interner's fresh region, which discards the session's item
    /// caches: checks between ops would slow the ops they measure.
    fn finish(&mut self, rec: &mut Recorder) {
        let mut docs: Vec<Doc> = (0..DOCS).map(|d| document(self.seed, d)).collect();
        let mut script = Script::new(self.seed);
        let mut samples = self.samples.iter().peekable();
        for op in 0..self.op {
            let d = apply(&mut docs, script.next().expect("the script is endless"));
            docs[d].version += 1;
            let Some(&(_, published)) = samples.next_if(|(at, _)| *at == op) else {
                continue;
            };
            if hash(&reference_publish(&docs[d])) != published {
                rec.fail(format!(
                    "{} v{}: publish differs from a from-scratch check",
                    docs[d].uri, docs[d].version
                ));
            }
        }
    }

    fn sizes(&self) -> Sizes {
        self.sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_and_scripts_are_deterministic_per_seed() {
        assert_eq!(document(9, 0).render(), document(9, 0).render());
        assert_ne!(document(9, 0).render(), document(10, 0).render());
        let a: Vec<Edit> = Script::new(9).take(64).collect();
        let b: Vec<Edit> = Script::new(9).take(64).collect();
        let c: Vec<Edit> = Script::new(10).take(64).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn the_script_mixes_all_four_kinds_with_adjacent_error_pairs() {
        let edits: Vec<Edit> = Script::new(1).take(800).collect();
        let count = |f: fn(&Edit) -> bool| edits.iter().filter(|e| f(e)).count();
        assert_eq!(count(|e| matches!(e, Edit::Body { .. })), 400);
        assert_eq!(count(|e| matches!(e, Edit::Signature { .. })), 100);
        assert_eq!(count(|e| matches!(e, Edit::Save { .. })), 100);
        for (i, e) in edits.iter().enumerate() {
            if let Edit::Break { doc, k } = *e {
                assert_eq!(edits[i + 1], Edit::Fix { doc, k });
            }
        }
    }

    #[test]
    fn each_hub_sits_in_its_stratum_before_its_dependent() {
        let doc = document(2016, 0);
        let m = doc.parts.len() - 2 * HUBS;
        let at = |hub: bool, h: usize| {
            doc.parts
                .iter()
                .position(|p| match p {
                    Part::Hub { h: j, .. } => hub && *j == h,
                    Part::Dependent { h: j } => !hub && *j == h,
                    _ => false,
                })
                .expect("every hub and dependent is placed")
        };
        for h in 0..HUBS {
            let (hub, dep) = (at(true, h), at(false, h));
            assert!(hub < dep, "hub {h} at {hub}, its dependent at {dep}");
            assert!((h * m / HUBS + 2 * h..=(h + 1) * m / HUBS + 2 * h).contains(&hub));
        }
    }

    #[test]
    fn documents_have_the_designed_size_and_check_clean_and_broken() {
        let mut doc = document(2016, 1);
        let (text, sites) = doc.render();
        let lines = text.lines().count();
        assert!((550..650).contains(&lines), "about 600 lines: {lines}");
        assert!(!sites.is_empty());
        let session = check_session();
        assert!(session.check(&SourceFile::new("d.rtr", text)).is_clean());
        *doc.editable(3).1 = true;
        *doc.hub(0) = true;
        let report = session.check(&SourceFile::new("d.rtr", doc.render().0));
        assert_eq!(report.stats.errors, doc.expected_errors());
        assert_eq!(report.diagnostics.len(), 1);
    }
}
