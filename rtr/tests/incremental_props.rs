//! Incremental ≡ from-scratch: randomized edit-script equivalence.
//!
//! One warm incremental [`Session`] replays a script of edits against a
//! synthetic module; after every step, the report is compared against a
//! from-scratch check of the same text. Diagnostic codes, primary
//! spans, per-item verdicts, the module value type, and the whole
//! human rendering must agree. (The single permitted normalization:
//! fresh existential names `%N` are numbered per *run*, not per
//! module, so their digits are stripped before comparison — the same
//! caveat the core equivalence tests document.)
//!
//! Edits cover every cache-relevant transition: body tweaks, flipping
//! an item clean ↔ ill-typed ↔ unbound, insertion, deletion,
//! reordering, dependency rewiring, and whitespace/comment-only
//! touches that must splice everything. The extended scripts add the
//! edits that change a binding other items may or may not read — the
//! case the splice guard's dependency check decides: signature toggles
//! on called definitions, value-define chains, vector tables whose
//! bounds checks leave negative and linear facts at module level, and
//! value defines annotated with an uninhabited refinement.

use rtr::prelude::*;

/// A deterministic LCG (no rand dependency); high bits are the usable
/// ones.
struct Rng(u64);

impl Rng {
    fn next(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % bound.max(1)
    }
}

/// How a definition's body is shaped this step.
#[derive(Clone, Copy, PartialEq)]
enum Body {
    /// `(+ (* a x) y)` — well typed, self-contained.
    Clean,
    /// `(+ (u<dep> x y) a)` — well typed, *depends on* `u<dep>` (which
    /// may or may not exist: an unbound dep is a legal ill-typed step).
    Calls(usize),
    /// `(+ x #t)` — a type error; the definition is poisoned.
    IllTyped,
    /// `(+ x zzz)` — an unbound variable; also poisoned.
    Unbound,
}

#[derive(Clone)]
enum Item {
    Define {
        name: usize,
        a: i64,
        body: Body,
        /// The range is `[z : Int #:where (> z x)]` instead of `Int`.
        refined: bool,
    },
    /// A trailing expression `(u<callee> <arg> 2)`.
    Call { callee: usize, arg: i64 },
    /// `(define n<name> <val>)`, or with a base
    /// `(define n<name> : Int (+ n<base> <val>))`.
    Num {
        name: usize,
        val: i64,
        base: Option<usize>,
    },
    /// `(define t<name> (vec 1 … <len>))` then the trailing
    /// `(safe-vec-ref t<name> <idx>)`, the index a literal or, with
    /// `by_num`, the value define `n<idx>`.
    Table {
        name: usize,
        len: usize,
        idx: usize,
        by_num: bool,
    },
    /// `(define e<name> : (Refine [v : Int] ψ) 0)` with ψ uninhabited
    /// (`empty`) or `(>= v 0)`.
    Guarded { name: usize, empty: bool },
}

fn render(items: &[Item], rng: &mut Rng) -> String {
    let mut src = String::new();
    for item in items {
        // Whitespace and comments between items must never force a
        // re-check on their own (the textual key ignores trivia).
        match rng.next(3) {
            0 => src.push('\n'),
            1 => src.push_str("  ; trivia\n"),
            _ => {}
        }
        match item {
            Item::Define {
                name,
                a,
                body,
                refined,
            } => {
                let range = if *refined {
                    "[z : Int #:where (> z x)]"
                } else {
                    "Int"
                };
                src.push_str(&format!("(: u{name} : [x : Int] [y : Int] -> {range})\n"));
                let body = match body {
                    // A refined range needs a body above `x`.
                    Body::Clean if *refined => format!("(+ x {})", a.abs() + 1),
                    Body::Clean => format!("(+ (* {a} x) y)"),
                    Body::Calls(dep) => format!("(+ (u{dep} x y) {a})"),
                    Body::IllTyped => "(+ x #t)".to_owned(),
                    Body::Unbound => "(+ x zzz)".to_owned(),
                };
                src.push_str(&format!("(define (u{name} x y) {body})\n"));
            }
            Item::Call { callee, arg } => src.push_str(&format!("(u{callee} {arg} 2)\n")),
            Item::Num { name, val, base } => src.push_str(&match base {
                None => format!("(define n{name} {val})\n"),
                Some(b) => format!("(define n{name} : Int (+ n{b} {val}))\n"),
            }),
            Item::Table {
                name,
                len,
                idx,
                by_num,
            } => {
                let elems: Vec<String> = (1..=*len).map(|i| i.to_string()).collect();
                let idx = if *by_num {
                    format!("n{idx}")
                } else {
                    idx.to_string()
                };
                src.push_str(&format!(
                    "(define t{name} (vec {}))\n(safe-vec-ref t{name} {idx})\n",
                    elems.join(" ")
                ));
            }
            Item::Guarded { name, empty } => {
                let prop = if *empty {
                    "(and (< v 0) (> v 0))"
                } else {
                    "(>= v 0)"
                };
                src.push_str(&format!("(define e{name} : (Refine [v : Int] {prop}) 0)\n"));
            }
        }
    }
    src
}

/// Strips the digits after `%`: fresh existentials are numbered per
/// process-wide counter, so two runs of the same module differ only
/// there.
fn normalize(s: &str) -> String {
    let mut out = String::new();
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        out.push(c);
        if c == '%' {
            while chars.peek().is_some_and(char::is_ascii_digit) {
                chars.next();
            }
        }
    }
    out
}

/// Everything observable about a report, up to `%N` renaming.
fn report_key(r: &CheckReport, source: &str) -> String {
    let mut out = String::new();
    for d in &r.diagnostics {
        out.push_str(d.code.as_str());
        if let Some(s) = d.primary {
            out.push_str(&format!(
                " @{}:{}-{}:{}",
                s.start.line, s.start.col, s.end.line, s.end.col
            ));
        }
        out.push('\n');
    }
    for i in &r.results {
        out.push_str(&format!(
            "{:?} : {:?} poisoned={}\n",
            i.name.map(|n| n.as_str().to_owned()),
            i.ty.as_ref().map(|t| normalize(&t.to_string())),
            i.poisoned
        ));
    }
    out.push_str(&format!(
        "value {:?}\n",
        r.value.as_ref().map(|v| normalize(&v.ty.to_string()))
    ));
    out.push_str(&format!(
        "clean {} errors {}\n",
        r.is_clean(),
        r.stats.errors
    ));
    out.push_str(&normalize(&r.render_human(source)));
    out
}

/// One random edit. `extended` adds the binding-changing edit kinds
/// (signature toggles, value-define chains, tables, uninhabited
/// refinements); without it the script is the original generator's,
/// draw for draw.
fn mutate(items: &mut Vec<Item>, rng: &mut Rng, fresh_name: &mut usize, extended: bool) {
    let bodies = [
        Body::Clean,
        Body::Calls(rng.next(*fresh_name)),
        Body::IllTyped,
        Body::Unbound,
    ];
    match rng.next(if extended { 11 } else { 6 }) {
        // Tweak a definition's coefficient (the classic one-line edit).
        0 => {
            let at = rng.next(items.len());
            if let Some(Item::Define { a, .. }) = items.get_mut(at) {
                *a += 1;
            }
        }
        // Flip a definition's body shape (clean / calls / ill-typed /
        // unbound) — exercises poisoning going stale in both directions.
        1 => {
            let (at, shape) = (rng.next(items.len()), rng.next(bodies.len()));
            if let Some(Item::Define { body, .. }) = items.get_mut(at) {
                *body = bodies[shape];
            }
        }
        // Insert a new definition or call at a random position.
        2 => {
            let at = rng.next(items.len() + 1);
            let item = if rng.next(2) == 0 {
                let name = *fresh_name;
                *fresh_name += 1;
                Item::Define {
                    name,
                    a: rng.next(9) as i64,
                    body: bodies[rng.next(bodies.len())],
                    refined: false,
                }
            } else {
                Item::Call {
                    callee: rng.next(*fresh_name),
                    arg: rng.next(9) as i64,
                }
            };
            items.insert(at, item);
        }
        // Delete an item (callers of a deleted define go unbound).
        3 => {
            if items.len() > 1 {
                items.remove(rng.next(items.len()));
            }
        }
        // Swap two items (reorder; FIFO key matching must stay sound).
        4 => {
            let (i, j) = (rng.next(items.len()), rng.next(items.len()));
            items.swap(i, j);
        }
        // Tweak a call site.
        5 => {
            let at = rng.next(items.len());
            if let Some(Item::Call { arg, .. }) = items.get_mut(at) {
                *arg += 1;
            }
        }
        // Toggle the range of a definition some item calls, between
        // `Int` and `[z : Int #:where (> z x)]`.
        6 | 7 => {
            let called: Vec<usize> = items
                .iter()
                .filter_map(|item| match item {
                    Item::Call { callee, .. }
                    | Item::Define {
                        body: Body::Calls(callee),
                        ..
                    } => Some(*callee),
                    _ => None,
                })
                .collect();
            if called.is_empty() {
                return;
            }
            let target = called[rng.next(called.len())];
            for item in items.iter_mut() {
                if let Item::Define { name, refined, .. } = item {
                    if *name == target {
                        *refined = !*refined;
                    }
                }
            }
        }
        // Insert a value define: a root, or one chained on an earlier
        // (possibly deleted) value define.
        8 => {
            let name = *fresh_name;
            *fresh_name += 1;
            let base = (rng.next(2) == 0).then(|| rng.next(name));
            let at = rng.next(items.len() + 1);
            items.insert(
                at,
                Item::Num {
                    name,
                    val: rng.next(4) as i64,
                    base,
                },
            );
        }
        // Insert a vector table and its bounds-checked access, or tweak
        // a value define (which a table's index may read).
        9 => {
            let at = rng.next(items.len());
            if let Some(Item::Num { val, .. }) = items.get_mut(at) {
                *val = (*val + 1) % 4;
                return;
            }
            let name = *fresh_name;
            *fresh_name += 1;
            let item = Item::Table {
                name,
                len: 2 + rng.next(3),
                idx: rng.next(name),
                by_num: rng.next(2) == 0,
            };
            items.insert(at, item);
        }
        // Insert a refinement-annotated value define, or flip one
        // between uninhabited and inhabited.
        _ => {
            let at = rng.next(items.len());
            if let Some(Item::Guarded { empty, .. }) = items.get_mut(at) {
                *empty = !*empty;
                return;
            }
            let name = *fresh_name;
            *fresh_name += 1;
            items.insert(
                at,
                Item::Guarded {
                    name,
                    empty: rng.next(2) == 0,
                },
            );
        }
    }
}

/// Replays seeded edit scripts on one warm session and checks every
/// step against a from-scratch check of the same text.
fn replay_edit_scripts(seeds: std::ops::RangeInclusive<u64>, steps: usize, extended: bool) {
    for seed in seeds {
        let warm = Session::new(SessionConfig::default());
        let scratch = Session::new(SessionConfig {
            incremental: false,
            ..SessionConfig::default()
        });
        let mut rng = Rng(seed);
        let mut fresh_name = 4;
        let mut items: Vec<Item> = (0..4)
            .map(|name| Item::Define {
                name,
                a: name as i64,
                body: if name == 0 {
                    Body::Clean
                } else {
                    Body::Calls(name - 1)
                },
                refined: false,
            })
            .collect();
        items.push(Item::Call { callee: 3, arg: 1 });

        for step in 0..steps {
            // Step 0 checks the seed module cold; later steps mutate
            // (and sometimes only re-render trivia, exercising the
            // pure-splice path).
            if step > 0 && rng.next(8) != 0 {
                mutate(&mut items, &mut rng, &mut fresh_name, extended);
            }
            let src = render(&items, &mut rng);
            let file = SourceFile::new("props.rtr", &src);
            let incremental = warm.check(&file);
            let full = scratch.check(&file);
            assert!(
                full.stats.rechecked_items.is_none(),
                "the comparator must run from scratch"
            );
            assert_eq!(
                report_key(&incremental, &src),
                report_key(&full, &src),
                "seed {seed} step {step} diverged; source:\n{src}"
            );
        }
    }
}

#[test]
fn random_edit_scripts_match_the_from_scratch_path() {
    replay_edit_scripts(1..=12, 10, false);
}

/// The extended scripts: edits that change bindings other items may
/// read, so splices happen under environments that differ from the
/// recorded ones.
#[test]
fn binding_changing_edit_scripts_match_the_from_scratch_path() {
    replay_edit_scripts(1..=24, 16, true);
}

#[test]
fn one_item_edit_reuses_the_unchanged_items() {
    let session = Session::new(SessionConfig::default());
    let mut rng = Rng(7);
    let items: Vec<Item> = (0..6)
        .map(|name| Item::Define {
            name,
            a: name as i64,
            body: Body::Clean,
            refined: false,
        })
        .collect();
    let src = render(&items, &mut rng);
    let cold = session.check(&SourceFile::new("edit.rtr", &src));
    assert!(cold.is_clean());

    // Edit one body; everything else must splice.
    let mut edited = items;
    if let Item::Define { a, .. } = &mut edited[2] {
        *a = 99;
    }
    let src2 = render(&edited, &mut rng);
    let warm = session.check(&SourceFile::new("edit.rtr", &src2));
    assert!(warm.is_clean());
    assert_eq!(
        warm.stats.rechecked_items,
        Some(1),
        "exactly the edited item"
    );
    assert!(
        warm.stats.unchanged_items.is_some_and(|u| u >= 4),
        "the other defines must be reused, got {:?}",
        warm.stats.unchanged_items
    );
}

/// Toggling a hub's range re-checks exactly the hub and the items that
/// can read its binding: direct readers (a caller, an alias define) and
/// transitive ones (a caller of the alias). A caller of a caller reads
/// only that caller's signature, and unrelated items read nothing that
/// changed: all of those splice.
#[test]
fn a_signature_edit_rechecks_exactly_the_hub_and_its_readers() {
    let module = |range: &str| {
        let mut src = format!(
            "(: hub : [x : Int] [y : Int] -> {range})\n\
             (define (hub x y) (+ x 1))\n\
             (: caller : [x : Int] [y : Int] -> Int)\n\
             (define (caller x y) (hub x y))\n\
             (define alias hub)\n\
             (: via-alias : [x : Int] [y : Int] -> Int)\n\
             (define (via-alias x y) (alias x y))\n\
             (: second-hand : [x : Int] [y : Int] -> Int)\n\
             (define (second-hand x y) (caller x y))\n"
        );
        for i in 0..4 {
            src.push_str(&format!(
                "(: other{i} : [x : Int] [y : Int] -> Int)\n(define (other{i} x y) (+ x {i}))\n"
            ));
        }
        src + "(second-hand 1 2)\n(other0 1 2)\n"
    };
    let session = Session::new(SessionConfig::default());
    let scratch = Session::new(SessionConfig {
        incremental: false,
        ..SessionConfig::default()
    });
    let cold = session.check(&SourceFile::new("hub.rtr", module("Int")));
    assert!(cold.is_clean(), "{:#?}", cold.diagnostics);
    let items = cold.results.len() as u32;
    for range in ["[z : Int #:where (> z x)]", "Int"] {
        let src = module(range);
        let file = SourceFile::new("hub.rtr", &src);
        let warm = session.check(&file);
        assert!(warm.is_clean(), "{:#?}", warm.diagnostics);
        assert_eq!(
            report_key(&warm, &src),
            report_key(&scratch.check(&file), &src)
        );
        // hub, caller, alias, via-alias.
        assert_eq!(warm.stats.rechecked_items, Some(4), "range {range}");
        assert_eq!(warm.stats.unchanged_items, Some(items - 4));
    }
}

/// A clean module whose one definition nests past the 160-level inline
/// stack limit must check on the big-stack worker through every module
/// path, and every path must agree on its items and value.
#[test]
fn a_deep_item_checks_clean_on_both_loops() {
    // The reader and elaborator recurse on the caller's stack, which a
    // 200-level form overflows on a default test thread in debug builds.
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(deep_item_paths_agree)
        .expect("spawn")
        .join()
        .expect("deep item check");
}

fn deep_item_paths_agree() {
    const DEPTH: usize = 200;
    let mut body = String::new();
    for i in 0..DEPTH {
        let rhs = if i == 0 {
            "x".to_owned()
        } else {
            format!("a{}", i - 1)
        };
        body.push_str(&format!("(let ([a{i} {rhs}]) "));
    }
    body.push_str(&format!("a{}", DEPTH - 1));
    body.push_str(&")".repeat(DEPTH));
    let src = format!("(: deep : [x : Int] -> Int)\n(define (deep x)\n  {body})\n(deep 1)\n");

    let key = |results: &[rtr::core::module::ItemSummary], value: &Option<TyResult>| {
        let mut out = String::new();
        for i in results {
            out.push_str(&format!(
                "{:?} : {:?} poisoned={}\n",
                i.name.map(|n| n.as_str().to_owned()),
                i.ty.as_ref().map(|t| normalize(&t.to_string())),
                i.poisoned
            ));
        }
        out + &format!(
            "value {:?}",
            value.as_ref().map(|v| normalize(&v.ty.to_string()))
        )
    };

    let items = rtr::lang::elaborate_module_items(&src)
        .expect("reads")
        .items;
    let core = Checker::default().check_module(&items);
    assert!(core.is_clean(), "{:#?}", core.diagnostics);
    let expected = key(&core.results, &core.value);
    assert!(expected.contains("\"deep\""), "{expected}");

    let file = SourceFile::new("deep.rtr", &src);
    let incremental = Session::new(SessionConfig::default());
    let scratch = Session::new(SessionConfig {
        incremental: false,
        ..SessionConfig::default()
    });
    for (path, report) in [
        ("incremental, cold", incremental.check(&file)),
        ("incremental, warm", incremental.check(&file)),
        ("from scratch", scratch.check(&file)),
    ] {
        assert!(report.is_clean(), "{path}: {:#?}", report.diagnostics);
        assert_eq!(key(&report.results, &report.value), expected, "{path}");
    }

    let value = check_source(&src, &Checker::default()).expect("deep module checks");
    assert_eq!(
        normalize(&value.ty.to_string()),
        normalize(&core.value.expect("value").ty.to_string())
    );
}
