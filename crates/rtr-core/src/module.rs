//! Module-level checking with multi-error recovery.
//!
//! [`crate::check::Checker::check_program`] is fail-fast: one nested
//! core expression, first error wins. The §5 workflow — classifying
//! *every* check site in a library — needs the opposite: check a whole
//! module and report **all** of its diagnostics. This module provides
//! the item-structured representation ([`ModuleItem`]) the surface
//! language elaborates into and the one module-item judgment
//! (`Checker::check_item`) both module drivers run: the from-scratch
//! [`Checker::check_module`] and the cache-splicing
//! [`Checker::check_module_incremental`].
//!
//! Recovery works by *poisoning*: when a definition fails to check, its
//! binding is entered into the environment at its **declared** type (the
//! signature if there is one, `Any` otherwise) and checking continues,
//! so one ill-typed `define` yields one diagnostic instead of cascading
//! or aborting the module. A module with N independently ill-typed
//! definitions therefore produces N located diagnostics in one call.
//!
//! For well-typed modules the environments built here are *identical*
//! to the ones the nested encoding produces — both go through the
//! checker's shared `open_let_binding` and `letrec` binding logic —
//! so a module is clean under `check_module` exactly when
//! `check_program` accepts its nested encoding (the corpus equivalence
//! tests and the surface layer's nested-encoding oracle pin this).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::budget::LimitKind;
use crate::check::{attach_node, panic_detail, Checker};
use crate::diag::{Diagnostic, NodeId, Span};
use crate::env::Env;
use crate::mutation::mutated_vars;
use crate::syntax::{Expr, Lambda, Obj, Prop, Symbol, Ty, TyResult};

/// One top-level form of an elaborated module.
#[derive(Clone, Debug)]
pub enum ModuleItem {
    /// A definition with a signature: elaborates to `letrec`, so the
    /// function may recur.
    DefineRec {
        /// The defined name.
        name: Symbol,
        /// Its declared (signature) type.
        sig: Ty,
        /// The implementation.
        lam: Arc<Lambda>,
        /// The `define` form's span node.
        node: Option<NodeId>,
        /// The `(: name …)` signature form's span node.
        sig_node: Option<NodeId>,
    },
    /// A non-recursive value definition (`(define x e)`, possibly
    /// annotated — the annotation is already applied to `rhs`).
    Define {
        /// The defined name.
        name: Symbol,
        /// The declared type, when annotated (used for poisoning).
        sig: Option<Ty>,
        /// The right-hand side (annotation included).
        rhs: Expr,
        /// The `define` form's span node.
        node: Option<NodeId>,
        /// The annotation's span node, if any.
        sig_node: Option<NodeId>,
    },
    /// A trailing expression; the last one's type-result is the module's
    /// value.
    Expr {
        /// The expression.
        expr: Expr,
        /// Its span node.
        node: Option<NodeId>,
    },
    /// A definition whose body failed to elaborate: its name is bound at
    /// the declared type (or `Any`) and never checked, so later forms
    /// that mention it do not cascade into unbound-variable errors.
    Opaque {
        /// The defined name.
        name: Symbol,
        /// The type it is assumed at.
        ty: Ty,
    },
}

impl ModuleItem {
    /// The expression checked for this item, if any (used for the
    /// mutation pre-pass and the stack-depth probe).
    pub(crate) fn body(&self) -> Option<&Expr> {
        match self {
            ModuleItem::DefineRec { lam, .. } => Some(&lam.body),
            ModuleItem::Define { rhs, .. } => Some(rhs),
            ModuleItem::Expr { expr, .. } => Some(expr),
            ModuleItem::Opaque { .. } => None,
        }
    }

    /// The span node of the item's form (`None` for opaque items).
    pub fn node(&self) -> Option<NodeId> {
        match self {
            ModuleItem::DefineRec { node, .. }
            | ModuleItem::Define { node, .. }
            | ModuleItem::Expr { node, .. } => *node,
            ModuleItem::Opaque { .. } => None,
        }
    }

    /// The defined name, for definition items.
    pub fn name(&self) -> Option<Symbol> {
        match self {
            ModuleItem::DefineRec { name, .. }
            | ModuleItem::Define { name, .. }
            | ModuleItem::Opaque { name, .. } => Some(*name),
            ModuleItem::Expr { .. } => None,
        }
    }
}

/// The outcome for one checked item.
#[derive(Clone, Debug)]
pub struct ItemSummary {
    /// The defined name (`None` for trailing expressions).
    pub name: Option<Symbol>,
    /// The type the item was recorded at: the synthesized type for
    /// successful items, the declared type for poisoned ones.
    pub ty: Option<Ty>,
    /// Did this item fail to check, leaving its binding assumed at its
    /// declared type?
    pub poisoned: bool,
    /// The surface extent of the item's form, when the caller knows it.
    ///
    /// The core checker works on elaborated items and leaves this
    /// `None`; the surface layer (`rtr-lang`) stamps it *after* the
    /// check from the current parse — never from a cached summary, whose
    /// recorded positions would be stale after an incremental splice
    /// shifted its form. Hover-style consumers resolve a cursor to the
    /// enclosing item through this field.
    pub span: Option<Span>,
}

/// Everything `check_module` learned about a module.
#[derive(Clone, Debug, Default)]
pub struct ModuleCheck {
    /// All diagnostics, in source order (one per failing item).
    pub diagnostics: Vec<Diagnostic>,
    /// Per-item outcomes, definitions first then trailing expressions
    /// (the order they are checked in).
    pub results: Vec<ItemSummary>,
    /// The type-result of the module's final trailing expression (the
    /// module's value), when it checked.
    pub value: Option<TyResult>,
}

impl ModuleCheck {
    /// No error-severity diagnostics (warnings allowed).
    pub fn is_clean(&self) -> bool {
        !self.diagnostics.iter().any(Diagnostic::is_error)
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.is_error()).count()
    }
}

impl Checker {
    /// Checks a whole module item by item, recovering from failures.
    ///
    /// Definitions are checked first (in order, each in scope for the
    /// later ones and for itself when recursive), then trailing
    /// expressions — the same scoping the nested `letrec`/`let` encoding
    /// produces. A failing definition is reported and *poisoned* (bound
    /// at its declared type); checking continues, so every independently
    /// ill-typed item contributes its own [`Diagnostic`].
    ///
    /// Diagnostics carry [`NodeId`]s; callers holding the elaborator's
    /// span table resolve them with
    /// [`Diagnostic::resolve_spans`].
    pub fn check_module(&self, items: &[ModuleItem]) -> ModuleCheck {
        let this = self.fork_check();
        let _live = crate::intern::check_guard();
        this.caches().reconcile_evictions();
        let deep = items
            .iter()
            .filter_map(ModuleItem::body)
            .any(|e| !this.fits_inline_stack(e));
        if !deep {
            return this.check_items(items);
        }
        // Deep modules ride the persistent big-stack worker (warm stack
        // pages) when it is free; see `check_program`.
        let that = this.clone();
        let owned = items.to_vec();
        match crate::check::big_stack::run(move || that.check_items(&owned)) {
            Some(r) => r,
            None => this.on_big_stack(|| this.check_items(items)),
        }
    }

    /// The from-scratch item loop: every item, in check order, through
    /// [`Checker::check_item`].
    fn check_items(&self, items: &[ModuleItem]) -> ModuleCheck {
        let mut run = ModuleRun::new(
            items
                .iter()
                .filter_map(ModuleItem::body)
                .flat_map(mutated_vars),
        );
        let n = items.len();
        for (i, item) in check_order(items).enumerate() {
            if let Some(v) = self.check_item(&mut run, item, i + 1 == n).value {
                run.out.value = Some(v);
            }
        }
        self.budget().note_margin();
        run.finish()
    }

    /// The module-item judgment, shared by [`Checker::check_module`] and
    /// [`Checker::check_module_incremental`]: checks `item` under
    /// `run.env` and records its summary, diagnostic and binder in `run`.
    ///
    /// A definition extends the environment with its binding; one that
    /// fails is *poisoned* (bound at its declared type, `Any` without a
    /// signature). A trailing expression that is not `last` is opened as
    /// a fresh-named `let` binder (mirroring `begin_form`'s let chain);
    /// the `last` one is the module's value, returned unlifted.
    ///
    /// Each item checks on its own budget fork (salted by the item's
    /// *name*, so chaos schedules are independent of thread scheduling
    /// and stable when an edit inserts or reorders definitions) and
    /// inside `catch_unwind`: an internal checker bug yields one `E0203`
    /// ICE for the item, the binding is poisoned, and the rest of the
    /// module checks normally on the surviving warm caches.
    pub(crate) fn check_item(
        &self,
        run: &mut ModuleRun,
        item: &ModuleItem,
        last: bool,
    ) -> ItemStep {
        let fuel = self.config().logic_fuel;
        if let ModuleItem::Opaque { name, ty } = item {
            self.bind(&mut run.env, *name, ty, fuel);
            run.binders.push((*name, ty.clone(), Obj::Null));
            run.out
                .results
                .push(summary(Some(*name), Some(ty.clone()), true));
            return ItemStep {
                value: None,
                clean: true,
            };
        }
        let node = item.node();
        let context = || match item {
            ModuleItem::DefineRec { name, .. } => format!("(define ({name} …) …)"),
            ModuleItem::Define { name, .. } => format!("(define {name} …)"),
            _ => "this expression".to_owned(),
        };
        let c = self.fork_item(crate::fingerprint::item_salt(item));
        c.chaos_item_entry();
        let env = &mut run.env;
        // The checked result and, for a `define`, the object its binder
        // is lifted at.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            c.chaos_item_panic();
            match item {
                ModuleItem::DefineRec { name, sig, lam, .. } => {
                    c.bind(env, *name, sig, fuel);
                    c.check_lambda(env, lam, sig, &context)?;
                    Ok((TyResult::of_type(sig.clone()), Obj::Null))
                }
                ModuleItem::Define { name, rhs, .. } => {
                    let r = c.synth(env, rhs)?;
                    let (o, mutable) = c.open_let_binding(env, *name, &r);
                    Ok((r, if mutable { Obj::Null } else { o }))
                }
                ModuleItem::Expr { expr, .. } => Ok((c.synth(env, expr)?, Obj::Null)),
                ModuleItem::Opaque { .. } => unreachable!("bound above"),
            }
        }));
        c.budget().note_margin();

        let mut value = None;
        let failure = match caught {
            Ok(Ok((r, lift_obj))) => {
                // A `let`-opened result binds its existentials in scope
                // of the rest of the module; T-Let quantifies them in
                // the module's value, so they are binders too.
                if item.name().is_some() || !last {
                    let opened = r.existentials.iter();
                    run.binders
                        .extend(opened.map(|(g, t)| (*g, t.clone(), Obj::Null)));
                }
                match item.name() {
                    Some(name) => {
                        run.binders.push((name, r.ty.clone(), lift_obj));
                        run.out.results.push(summary(Some(name), Some(r.ty), false));
                    }
                    None if last => {
                        run.out
                            .results
                            .push(summary(None, Some(r.ty.clone()), false));
                        value = Some(r);
                    }
                    None => {
                        let tmp = Symbol::fresh("ignored");
                        let (o1, mutable) = self.open_let_binding(env, tmp, &r);
                        let lift_obj = if mutable { Obj::Null } else { o1 };
                        run.binders.push((tmp, r.ty, lift_obj));
                        run.out.results.push(summary(None, None, false));
                    }
                }
                None
            }
            Ok(Err(d)) => Some(c.degrade_with(
                *attach_node(d, node),
                c.budget().tripped().or(run.degraded),
                context,
            )),
            Err(p) => {
                if let ModuleItem::DefineRec { name, sig, .. } = item {
                    // Re-bind: the panic may have interrupted the
                    // original bind half-way.
                    c.bind(env, *name, sig, fuel);
                }
                Some(Diagnostic::ice(context(), panic_detail(&*p)).at(node))
            }
        };
        let clean = failure.is_none();
        if let Some(d) = failure {
            match item {
                ModuleItem::DefineRec {
                    name,
                    sig,
                    sig_node,
                    ..
                } => run.poison(d, *name, sig.clone(), *sig_node),
                ModuleItem::Define {
                    name,
                    sig,
                    sig_node,
                    ..
                } => {
                    let assumed = sig.clone().unwrap_or(Ty::Top);
                    self.bind(&mut run.env, *name, &assumed, fuel);
                    run.poison(d, *name, assumed, *sig_node);
                }
                _ => {
                    run.out.diagnostics.push(d);
                    run.out.results.push(summary(None, None, false));
                }
            }
        }
        let tripped = c.budget().tripped();
        run.degraded = run.degraded.or(tripped);
        ItemStep {
            value,
            clean: clean && tripped.is_none(),
        }
    }
}

/// The running state of one module check, threaded through
/// [`Checker::check_item`] by both module drivers.
pub(crate) struct ModuleRun {
    /// The environment reaching the next item.
    pub(crate) env: Env,
    /// The report so far.
    pub(crate) out: ModuleCheck,
    /// The binders opened along the way, innermost last. The nested
    /// encoding existentializes every module-local binding out of the
    /// final result at binder exit (T-Let's lifting substitution);
    /// [`ModuleRun::finish`] replays the same lifts on the value, so the
    /// module's value never mentions out-of-scope names.
    pub(crate) binders: Vec<(Symbol, Ty, Obj)>,
    /// The first governance limit that tripped in *any* earlier item.
    /// Once set, later items ran against possibly-coarser bindings (a
    /// starved definition poisons at its declared type, weakening
    /// everything downstream), so their conservative failures are
    /// reported as `E0202` too — a starved run's errors are exactly
    /// "identical to fault-free, or exhausted", never a different
    /// verdict. Item panics do *not* set it: the post-ICE environment
    /// equals the ordinary poison-path environment.
    degraded: Option<LimitKind>,
}

/// What [`Checker::check_item`] reports back beyond what it recorded in
/// the [`ModuleRun`].
pub(crate) struct ItemStep {
    /// The unlifted type-result of the module's last trailing
    /// expression, when this item is that expression and it checked.
    pub(crate) value: Option<TyResult>,
    /// Did the item check without a diagnostic on an untripped budget
    /// fork? Only clean verdicts may be reused by a later run.
    pub(crate) clean: bool,
}

impl ModuleRun {
    /// A run over a module whose `set!`-mutated variables are `mutated`
    /// (the §4.2 pre-pass), with nothing bound yet.
    pub(crate) fn new(mutated: impl IntoIterator<Item = Symbol>) -> ModuleRun {
        let mut env = Env::new();
        for x in mutated {
            env.mark_mutable(x);
        }
        ModuleRun {
            env,
            out: ModuleCheck::default(),
            binders: Vec::new(),
            degraded: None,
        }
    }

    /// Reports a failed definition and records it as bound at `assumed`
    /// (the caller has already bound it so in `env`).
    fn poison(&mut self, d: Diagnostic, name: Symbol, assumed: Ty, sig_node: Option<NodeId>) {
        let mut d = d.with_note(format!(
            "the definition of {name} is poisoned: later checks assume its declared type {assumed}"
        ));
        if sig_node.is_some() {
            d = d.with_label(sig_node, format!("{name} is declared here"));
        }
        self.out.diagnostics.push(d);
        self.binders.push((name, assumed.clone(), Obj::Null));
        self.out
            .results
            .push(summary(Some(name), Some(assumed), true));
    }

    /// The finished report: the module's value lifted out of every
    /// binder the run opened. A module without trailing expressions (its
    /// last item in check order is not one) has the value `#t`, as in
    /// the nested encoding.
    pub(crate) fn finish(mut self) -> ModuleCheck {
        if self.out.results.last().is_none_or(|r| r.name.is_some()) {
            self.out.value = Some(TyResult::new(Ty::True, Prop::TT, Prop::FF, Obj::Null));
        }
        if let Some(v) = self.out.value.take() {
            self.out.value = Some(v.lift_subst_all(&self.binders));
        }
        self.out
    }
}

fn summary(name: Option<Symbol>, ty: Option<Ty>, poisoned: bool) -> ItemSummary {
    ItemSummary {
        name,
        ty,
        poisoned,
        span: None,
    }
}

/// `items` in check order: definitions first (in source order), then
/// trailing expressions — the order every module driver visits them in
/// and [`ModuleCheck::results`] lists them in.
pub fn check_order(items: &[ModuleItem]) -> impl Iterator<Item = &ModuleItem> {
    let is_expr = |item: &&ModuleItem| matches!(item, ModuleItem::Expr { .. });
    items
        .iter()
        .filter(move |item| !is_expr(item))
        .chain(items.iter().filter(is_expr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Code;
    use crate::syntax::Prim;

    fn int_to_int(name: &str) -> (Symbol, Ty) {
        let x = Symbol::intern("x");
        (
            Symbol::intern(name),
            Ty::fun(vec![(x, Ty::Int)], TyResult::of_type(Ty::Int)),
        )
    }

    fn bad_define(name: &str) -> ModuleItem {
        // (: f : Int -> Int) (define (f x) #t) — range mismatch.
        let (sym, sig) = int_to_int(name);
        ModuleItem::DefineRec {
            name: sym,
            sig,
            lam: Arc::new(Lambda {
                params: vec![(Symbol::intern("x"), Ty::Top)],
                body: Expr::Bool(true),
            }),
            node: None,
            sig_node: None,
        }
    }

    fn good_define(name: &str) -> ModuleItem {
        let (sym, sig) = int_to_int(name);
        ModuleItem::DefineRec {
            name: sym,
            sig,
            lam: Arc::new(Lambda {
                params: vec![(Symbol::intern("x"), Ty::Top)],
                body: Expr::prim_app(Prim::Add1, vec![Expr::Var(Symbol::intern("x"))]),
            }),
            node: None,
            sig_node: None,
        }
    }

    #[test]
    fn every_failing_define_reports() {
        let items = vec![
            bad_define("f1"),
            good_define("g"),
            bad_define("f2"),
            bad_define("f3"),
        ];
        let mc = Checker::default().check_module(&items);
        assert_eq!(mc.error_count(), 3, "{:?}", mc.diagnostics);
        assert!(mc.diagnostics.iter().all(|d| d.code == Code::TypeMismatch));
        assert_eq!(mc.results.iter().filter(|r| r.poisoned).count(), 3);
    }

    #[test]
    fn poisoned_bindings_keep_later_items_checkable() {
        // f is ill-typed, but `(f 1)` still checks against f's declared
        // signature.
        let items = vec![
            bad_define("f"),
            ModuleItem::Expr {
                expr: Expr::app(Expr::Var(Symbol::intern("f")), vec![Expr::Int(1)]),
                node: None,
            },
        ];
        let mc = Checker::default().check_module(&items);
        assert_eq!(mc.error_count(), 1);
        let value = mc
            .value
            .expect("trailing expr checks against the poisoned f");
        assert_eq!(value.ty, Ty::Int);
    }

    #[test]
    fn clean_modules_report_nothing_and_a_value() {
        let items = vec![
            good_define("g"),
            ModuleItem::Expr {
                expr: Expr::app(Expr::Var(Symbol::intern("g")), vec![Expr::Int(41)]),
                node: None,
            },
        ];
        let mc = Checker::default().check_module(&items);
        assert!(mc.is_clean());
        assert_eq!(mc.value.expect("value").ty, Ty::Int);
    }

    #[test]
    fn empty_module_value_is_true() {
        let mc = Checker::default().check_module(&[]);
        assert!(mc.is_clean());
        assert_eq!(mc.value.expect("value").ty, Ty::True);
    }
}
