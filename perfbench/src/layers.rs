//! Per-layer attribution for the traced run.
//!
//! Every traced op calls each layer's public entry point on the op's
//! input from here, inside a span, and adds the measured time and
//! counts to [`Layers`]. The layers are the repo's modules:
//!
//! * `sexp` — `rtr_lang::sexp::read_all`;
//! * `elab` — `rtr_lang::elaborate_module_items` minus its `read_all`;
//! * `module` — `Checker::check_module` (judgments and solvers);
//! * `incremental` — `rtr_lang::check_module_source_incremental` with a
//!   cache held here, plus a no-op re-check against the cache it built;
//! * `session` — `Session::check` minus the layers it is made of;
//! * `json` — `rtr::json::reports_to_json`;
//! * `lsp` — `rtr::lsp::framing` and `rtr::lsp::protocol` around one
//!   incoming document message and one `publishDiagnostics`.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Duration;

use rtr::core::check::Checker;
use rtr::core::diag::{Diagnostic, LineIndex};
use rtr::json::{escape, Json};
use rtr::lang::sexp::read_all;
use rtr::lang::{check_module_source_incremental, elaborate_module_items, ModuleCache};
use rtr::lsp::{framing, protocol};
use rtr::session::SourceFile;

use crate::trace::Tracer;

/// Sums over the traced ops, one field per per-layer quantity.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Traced ops.
    pub ops: u64,
    /// Wall time of the traced ops.
    pub op_ns: u64,
    pub sexp_ns: u64,
    pub sexp_bytes: u64,
    pub sexp_forms: u64,
    /// Signed: a difference of separately timed calls.
    pub elab_ns: i64,
    pub elab_items: u64,
    pub module_ns: u64,
    pub module_items: u64,
    pub module_diagnostics: u64,
    pub module_memo_entries: u64,
    pub incremental_ns: u64,
    pub incremental_noop_ns: u64,
    pub incremental_rechecked: u64,
    pub incremental_unchanged: u64,
    pub incremental_fallbacks: u64,
    /// Signed: a difference of separately timed calls.
    pub session_residual_ns: i64,
    pub session_evictions: u64,
    pub json_ns: u64,
    pub json_bytes: u64,
    pub lsp_decode_ns: u64,
    pub lsp_encode_ns: u64,
    pub lsp_bytes_in: u64,
    pub lsp_bytes_out: u64,
}

/// Nanoseconds in `d`, saturating.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A layer's own time in nanoseconds, measured as `outer` minus the
/// calls `inner` it is known to contain. The calls are timed separately,
/// so one op's difference can be negative; it is kept signed, so that a
/// mean over many ops shows a misattribution instead of hiding it.
pub fn self_time(outer: Duration, inner: Duration) -> i64 {
    ns(outer) as i64 - ns(inner) as i64
}

impl Layers {
    /// The per-layer metrics: per-op means (µs, bytes, counts), byte
    /// rates and the splice ratio, in `crate::PER_LAYER` order.
    /// `untraced_op_us` is the mean op time of the same run's untraced
    /// phase, for the tracing overhead.
    pub fn metrics(&self, untraced_op_us: f64) -> Vec<(&'static str, f64)> {
        let ops = self.ops.max(1) as f64;
        let per_op = |x: u64| x as f64 / ops;
        let us = |x: u64| x as f64 / 1e3 / ops;
        let signed_us = |x: i64| x as f64 / 1e3 / ops;
        let rate = |t: u64, b: u64| if b == 0 { 0.0 } else { t as f64 / b as f64 };
        let spliced = self.incremental_rechecked + self.incremental_unchanged;
        vec![
            ("sexp.time_us", us(self.sexp_ns)),
            ("sexp.bytes", per_op(self.sexp_bytes)),
            ("sexp.ns_per_byte", rate(self.sexp_ns, self.sexp_bytes)),
            ("sexp.forms", per_op(self.sexp_forms)),
            ("elab.time_us", signed_us(self.elab_ns)),
            ("elab.items", per_op(self.elab_items)),
            ("module.time_us", us(self.module_ns)),
            ("module.items", per_op(self.module_items)),
            ("module.diagnostics", per_op(self.module_diagnostics)),
            ("module.memo_entries", per_op(self.module_memo_entries)),
            ("incremental.time_us", us(self.incremental_ns)),
            ("incremental.noop_us", us(self.incremental_noop_ns)),
            (
                "incremental.rechecked_items",
                per_op(self.incremental_rechecked),
            ),
            (
                "incremental.unchanged_items",
                per_op(self.incremental_unchanged),
            ),
            ("incremental.fallbacks", per_op(self.incremental_fallbacks)),
            (
                "incremental.splice_ratio",
                rate(self.incremental_unchanged, spliced),
            ),
            ("session.residual_us", signed_us(self.session_residual_ns)),
            ("session.evictions", per_op(self.session_evictions)),
            ("json.time_us", us(self.json_ns)),
            ("json.bytes", per_op(self.json_bytes)),
            ("json.ns_per_byte", rate(self.json_ns, self.json_bytes)),
            ("lsp.decode_us", us(self.lsp_decode_ns)),
            ("lsp.encode_us", us(self.lsp_encode_ns)),
            ("lsp.bytes_in", per_op(self.lsp_bytes_in)),
            ("lsp.bytes_out", per_op(self.lsp_bytes_out)),
            ("trace.overhead_us", us(self.op_ns) - untraced_op_us),
        ]
    }
}

/// Times of the probe calls one traced op made, for the session
/// residual.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeTimes {
    /// `elaborate_module_items` (reader included).
    pub elaborate: Duration,
    /// `Checker::check_module`.
    pub module: Duration,
    /// The first `check_module_source_incremental` call.
    pub incremental: Duration,
}

/// The checkers and incremental caches the probes run against. They are
/// separate from the session under test and follow its lifetime: a
/// fresh `Probes` for a fresh session, a long-lived one for a
/// long-lived session.
#[derive(Debug, Default)]
pub struct Probes {
    module: Checker,
    incremental: Checker,
    caches: HashMap<String, ModuleCache>,
}

impl Probes {
    /// Probes with cold checkers and no caches.
    pub fn new() -> Probes {
        Probes::default()
    }

    /// Fills the incremental cache for `file` untimed, unless it holds
    /// one: the state a long-lived session is in before an edit.
    pub fn warm(&mut self, file: &SourceFile) {
        if !self.caches.contains_key(&file.name) {
            let (_, cache, _) =
                check_module_source_incremental(&file.text, &self.incremental, None);
            if let Some(c) = cache {
                self.caches.insert(file.name.clone(), c);
            }
        }
    }

    /// Runs the reader, elaborator, module and incremental probes on
    /// `file` as children of `parent`.
    pub fn run(
        &mut self,
        tracer: &mut Tracer,
        op: u64,
        parent: Option<usize>,
        file: &SourceFile,
        layers: &mut Layers,
    ) -> ProbeTimes {
        let text = file.text.as_str();
        let (forms, t_read) = tracer.time("sexp.read_all", op, parent, || read_all(text));
        layers.sexp_ns += ns(t_read);
        layers.sexp_bytes += text.len() as u64;
        layers.sexp_forms += forms.map_or(0, |f| f.len() as u64);

        let (elaborated, t_elab) = tracer.time("elab.elaborate_module_items", op, parent, || {
            elaborate_module_items(text)
        });
        layers.elab_ns += self_time(t_elab, t_read);
        let mut times = ProbeTimes {
            elaborate: t_elab,
            ..ProbeTimes::default()
        };
        if let Ok(m) = elaborated {
            layers.elab_items += m.items.len() as u64;
            let checker = &self.module;
            let (mc, t_mod) = tracer.time("module.check_module", op, parent, || {
                checker.check_module(&m.items)
            });
            times.module = t_mod;
            layers.module_ns += ns(t_mod);
            layers.module_items += mc.results.len() as u64;
            layers.module_diagnostics += mc.diagnostics.len() as u64;
            layers.module_memo_entries += self.module.cache_entry_count() as u64;
        }

        let old = self.caches.remove(&file.name);
        let checker = &self.incremental;
        let ((report, cache, stats), t_inc) = tracer.time("incremental.check", op, parent, || {
            check_module_source_incremental(text, checker, old.as_ref())
        });
        black_box(report);
        times.incremental = t_inc;
        layers.incremental_ns += ns(t_inc);
        match stats {
            Some(s) => {
                layers.incremental_rechecked += u64::from(s.rechecked);
                layers.incremental_unchanged += u64::from(s.skipped);
            }
            None => layers.incremental_fallbacks += 1,
        }
        let cache = cache.or(old);
        let ((report, noop_cache, _), t_noop) = tracer.time("incremental.noop", op, parent, || {
            check_module_source_incremental(text, checker, cache.as_ref())
        });
        black_box(report);
        layers.incremental_noop_ns += ns(t_noop);
        if let Some(c) = noop_cache.or(cache) {
            self.caches.insert(file.name.clone(), c);
        }
        times
    }
}

/// `textDocument/didOpen` params carrying `text`.
pub fn did_open_params(uri: &str, version: i64, text: &str) -> String {
    format!(
        "{{\"textDocument\":{{\"uri\":\"{}\",\"languageId\":\"rtr\",\"version\":{version},\"text\":\"{}\"}}}}",
        escape(uri),
        escape(text)
    )
}

/// `textDocument/didChange` params (full sync) carrying `text`.
pub fn did_change_params(uri: &str, version: i64, text: &str) -> String {
    format!(
        "{{\"textDocument\":{{\"uri\":\"{}\",\"version\":{version}}},\"contentChanges\":[{{\"text\":\"{}\"}}]}}",
        escape(uri),
        escape(text)
    )
}

/// The client's side of a notification: the framed bytes on the wire.
pub fn client_frame(method: &str, params: &str) -> Vec<u8> {
    let mut wire = Vec::new();
    framing::write_message(&mut wire, &protocol::notification(method, params))
        .expect("writing to a Vec cannot fail");
    wire
}

/// A document message as the server sees it after decoding.
#[derive(Clone, Debug)]
pub struct Incoming {
    /// `textDocument.uri`.
    pub uri: String,
    /// `textDocument.version`.
    pub version: i64,
    /// The full document text.
    pub text: String,
}

/// The server's decode step for `didOpen`/`didChange`: unframe, parse
/// the JSON-RPC message, extract uri, version and text.
pub fn server_decode(wire: &[u8]) -> Result<Incoming, String> {
    let mut input = wire;
    let body = framing::read_message(&mut input)
        .map_err(|e| e.to_string())?
        .ok_or("no message on the wire")?;
    let m = protocol::parse_message(&body)?;
    let uri = protocol::text_document_uri(&m.params).ok_or("no uri")?;
    let version = protocol::text_document_version(&m.params).ok_or("no version")?;
    let text = match m.method.as_str() {
        "textDocument/didOpen" => protocol::text_document_text(&m.params),
        "textDocument/didChange" => protocol::last_content_change(&m.params),
        other => return Err(format!("unexpected method {other}")),
    }
    .ok_or("no text")?;
    Ok(Incoming {
        uri: uri.to_owned(),
        version,
        text: text.to_owned(),
    })
}

/// The session key the server derives from a uri.
pub fn uri_to_path(uri: &str) -> &str {
    uri.strip_prefix("file://").unwrap_or(uri)
}

/// The server's publish step: positions, `publishDiagnostics` params,
/// the notification and its frame, written to `wire`.
pub fn server_publish(
    uri: &str,
    version: i64,
    text: &str,
    diagnostics: &[Diagnostic],
    wire: &mut Vec<u8>,
) {
    let ix = LineIndex::new(text);
    let params = protocol::publish_diagnostics_params(uri, version, &ix, text, diagnostics);
    wire.clear();
    framing::write_message(
        wire,
        &protocol::notification("textDocument/publishDiagnostics", &params),
    )
    .expect("writing to a Vec cannot fail");
}

/// The client's side of a publish: the `params` of the framed
/// `publishDiagnostics` notification.
pub fn client_read_publish(wire: &[u8]) -> Result<Json, String> {
    let mut input = wire;
    let body = framing::read_message(&mut input)
        .map_err(|e| e.to_string())?
        .ok_or("no message on the wire")?;
    let m = protocol::parse_message(&body)?;
    if m.method != "textDocument/publishDiagnostics" {
        return Err(format!("unexpected method {}", m.method));
    }
    Ok(m.params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_did_change_round_trips_through_the_server_steps() {
        let text = "(define (f [x : Int]) (add1 x))\n\"q\\\"uote\"\n";
        let wire = client_frame(
            "textDocument/didChange",
            &did_change_params("file:///d.rtr", 3, text),
        );
        let m = server_decode(&wire).unwrap();
        assert_eq!(
            (m.uri.as_str(), m.version, m.text.as_str()),
            ("file:///d.rtr", 3, text)
        );
        assert_eq!(uri_to_path(&m.uri), "/d.rtr");
        let mut out = Vec::new();
        server_publish(&m.uri, m.version, &m.text, &[], &mut out);
        let params = client_read_publish(&out).unwrap();
        assert_eq!(params.get("version").and_then(Json::as_f64), Some(3.0));
        assert_eq!(
            params
                .get("diagnostics")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(0)
        );
    }

    #[test]
    fn probes_time_every_layer_and_keep_the_incremental_cache() {
        let file = SourceFile::new(
            "p.rtr",
            "(: f : [x : Int] -> Int)\n(define (f x) (+ x 1))\n",
        );
        let mut probes = Probes::new();
        let mut tracer = Tracer::new(64);
        let mut layers = Layers::default();
        let root = tracer.open("op", 0);
        probes.run(&mut tracer, 0, root, &file, &mut layers);
        tracer.close(root);
        assert_eq!(layers.sexp_forms, 2);
        assert_eq!(layers.elab_items, 1);
        assert_eq!(layers.module_items, 1);
        assert_eq!(layers.incremental_rechecked, 1, "cold");
        // The second run splices the cached item.
        probes.run(&mut tracer, 1, None, &file, &mut layers);
        assert_eq!(layers.incremental_unchanged, 1);
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        for want in [
            "sexp.read_all",
            "elab.elaborate_module_items",
            "module.check_module",
            "incremental.check",
            "incremental.noop",
        ] {
            assert!(names.contains(&want), "{want} missing from {names:?}");
        }
    }
}
