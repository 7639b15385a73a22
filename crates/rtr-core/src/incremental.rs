//! The incremental module driver: splice-don't-recheck.
//!
//! [`crate::check::Checker::check_module`] re-derives every item's
//! verdict from scratch. Editor traffic is the opposite workload:
//! thousands of re-checks where one definition changed and forty-nine
//! did not. [`Checker::check_module_incremental`] walks the same item
//! loop, but replays the previous run's per-item results wherever doing
//! so is *provably* equivalent to re-checking. Every item it does
//! re-check goes through the module-item judgment `check_module` runs
//! (see [`crate::module`]), so the two drivers share one item rule and
//! differ only in the per-item records this one keeps for its next run.
//!
//! # Soundness argument
//!
//! A module item's verdict — its diagnostics, its recorded
//! [`ItemSummary`], the environment it leaves behind and its
//! contribution to the module value — is a deterministic function of
//! the item's elaborated core term and of what its judgments *read* of
//! the environment Γ it is checked under. (`generation`/`lin_epoch`
//! stamps key memo tables and never change a verdict; see
//! [`Env::binding_diff`].) In λ_RTR (PLDI'16 §3–4) a judgment reads Γ
//! in only two ways:
//!
//! * **through the names it mentions**: looking up a variable reads its
//!   type and alias entries, and the names those entries mention in
//!   turn, because proving a refinement or resolving a representative
//!   object follows them;
//! * **through Γ's consistency**: every `env_inconsistent` query scans
//!   every binding for an empty type, every negative fact (reading the
//!   type of its base), and the theory literals, disjunctions and
//!   pending atoms.
//!
//! Let E be the environment reaching an item this run and E₀ the one
//! its record was made under. A record made for the same term
//! (fingerprint or source text) and trailing role may replace
//! re-checking iff:
//!
//! 1. **Everything but the bindings agrees.** The absurdity flag,
//!    negative facts, disjunctions, lin/bv/str literals, pending atoms
//!    and mutability marks of E equal E₀'s. These are read wholesale by
//!    the consistency check, so any difference is observable.
//! 2. **D is what differs.** D is the set of names whose `types` or
//!    `aliases` entry differs ([`Env::binding_diff`], a structural diff
//!    that skips the subtrees the two maps share). D = ∅ is the plain
//!    "value-equal environment" rule.
//! 3. **Each d ∈ D is invisible to the scans.** d is bound on both
//!    sides (so no `is_bound` test — shadowing, the `let x = y` fast
//!    path — can tell the two apart), and its type is non-empty on both
//!    sides (so the emptiness scan answers alike). No fact,
//!    disjunction or pending atom mentions d: their names are roots of
//!    the walk in clause 4.
//! 4. **No d ∈ D is reachable from what the item reads.** Starting from
//!    the item's `free_refs`, its record's binders (name, type and
//!    object of the defined name and of the existentials its
//!    right-hand side opened), and every name the environment-wide
//!    facts mention ([`Env::fact_names`]), following types and alias
//!    objects in E ([`Env::reaches`]) never meets D. The walk stops at
//!    D, so it visits only entries E and E₀ share, and finds the same
//!    closure under both.
//!
//! Under these clauses every read the item's judgments make returns the
//! same answer under E and under E₀, so the run under E performs the
//! same steps, reaches the same verdict and performs the same writes as
//! the recorded run. None of those writes touches a d ∈ D: the item
//! writes its binders (unbound on entry — a record whose binder name is
//! already bound re-checks, since re-binding rewrites every entry that
//! mentions it), the fresh names it opens and the reachable names it
//! learns about. So the environment after the item is exactly
//! [`Env::rebased`]: the record's `env_after` with D's entries copied
//! from E. D carries forward — the next item's E and E₀ differ in
//! exactly D again, unless a re-check in between changed more or put
//! the old values back.
//!
//! Early cutoff falls out of the same rule, stronger than the usual
//! "exported type id unchanged" check. After re-checking a dirty item,
//! if the environment it leaves behind is value-equal to the cached one
//! then D = ∅ for every later item (each splice restores the cached
//! `env_after`, so consecutive splices compare generation-equal
//! environments in O(1)) and nothing else re-checks. If the re-check
//! changed the exported binding — a signature edit — D names it, and
//! only the items that can read it re-check: the callers, aliases and
//! dependents whose own entries point at it, never the unrelated rest
//! of the module.
//!
//! A splice under D ≠ ∅ records a new [`ItemRecord`] with the rebased
//! `env_after` (sharing the reusable results), so every cache keeps the
//! invariant the rule relies on: record *i* was made under record
//! *i − 1*'s `env_after`.
//!
//! # What is never cached
//!
//! An [`ItemRecord`] carries reusable results (`reuse`) only for items
//! that checked *cleanly on an untripped budget fork*: any diagnostic
//! (type errors, `E0202` resource exhaustion, `E0203` ICEs) or a
//! tripped per-item budget leaves `reuse = None`, so degraded or
//! failing verdicts are always re-derived and can never go stale. The
//! driver additionally refuses (`None`, caller falls back to the
//! from-scratch path) when the interner's eviction epoch moved, when
//! the module's `set!`-mutated variable set changed, or when any item
//! needs the big-stack worker — conditions under which cached
//! environment snapshots are not comparable.

use std::collections::HashSet;
use std::sync::Arc;

use crate::check::Checker;
use crate::env::Env;
use crate::fingerprint::fingerprint_and_free_refs;
use crate::intern::TyId;
use crate::module::{ItemStep, ItemSummary, ModuleCheck, ModuleItem, ModuleRun};
use crate::mutation::mutated_vars;
use crate::syntax::{Obj, Symbol, Ty, TyResult};

/// The reusable outcome of one *cleanly* checked item.
#[derive(Clone, Debug)]
struct ReuseData {
    /// The summary pushed onto [`ModuleCheck::results`].
    summary: ItemSummary,
    /// The binders this item opened — its name and the existentials
    /// its right-hand side opened — replayed for the final lifting
    /// substitution.
    binders: Vec<(Symbol, Ty, Obj)>,
    /// `Some` iff this item was recorded as the module's *last trailing
    /// expression*: its pre-lift value result. A record made in the
    /// "last" role cannot splice into a non-last slot (and vice versa) —
    /// the two roles leave different environments behind.
    value: Option<TyResult>,
}

/// What one run of the incremental driver learned about one item slot.
#[derive(Clone, Debug)]
pub struct ItemRecord {
    /// α-stable fingerprint of the elaborated item
    /// ([`crate::fingerprint::item_fingerprint`]).
    fp: u128,
    /// Module-level names the item can read
    /// ([`crate::fingerprint::fingerprint_and_free_refs`]) — roots of
    /// the splice guard's reachability walk, and the edges of the
    /// cutoff accounting.
    free_refs: Vec<Symbol>,
    /// The `set!`-mutated variables of this item's body (the module
    /// mutation pre-pass is the union of these).
    mutated: Vec<Symbol>,
    /// Value snapshot of the environment *after* this item, whether it
    /// checked cleanly or was poisoned.
    env_after: Env,
    /// Reusable results; `None` for items that produced diagnostics or
    /// tripped their budget fork (never cached). Shared by the records
    /// later runs derive from this one.
    reuse: Option<Arc<ReuseData>>,
}

impl ItemRecord {
    /// Is this the record of a trailing expression (as opposed to a
    /// definition)?
    fn is_expr(&self) -> bool {
        self.reuse
            .as_ref()
            .is_some_and(|ru| ru.summary.name.is_none())
    }
}

/// Everything a previous incremental run left behind for one module:
/// per-slot records in check order, plus the run-wide preconditions
/// (eviction epoch, mutated-variable set, initial environment) that
/// gate their reuse.
#[derive(Clone, Debug)]
pub struct ItemCache {
    /// [`crate::intern::evict_epoch`] when the cache was built; a moved
    /// epoch means interned ids in the snapshots may dangle.
    epoch: u64,
    /// The union of `set!`-mutated variables the pre-pass marked.
    mutated: HashSet<Symbol>,
    /// The environment every run starts from (mutability marks
    /// applied, nothing bound yet).
    init_env: Env,
    /// One record per item, in check order (definitions first, then
    /// trailing expressions).
    records: Vec<Arc<ItemRecord>>,
}

impl ItemCache {
    /// Number of item records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// One slot of the incremental run, in check order.
#[derive(Clone, Debug)]
pub enum IncrSlot {
    /// This slot's source text is unchanged from the previous run:
    /// reuse the record at this index of the old [`ItemCache`]. The
    /// item itself is only elaborated (via the `fetch` callback) if the
    /// splice is rejected.
    Reused(usize),
    /// This slot's source changed (or had no cached counterpart): the
    /// freshly elaborated item.
    Fresh(ModuleItem),
}

/// Counters describing how much work one incremental run avoided.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecheckStats {
    /// Slots that were actually re-checked.
    pub rechecked: u32,
    /// Slots spliced from the cache without re-checking.
    pub skipped: u32,
    /// Spliced slots that *depend on* (mention) an item re-checked
    /// earlier in this run — dependents the early cutoff stopped from
    /// dirtying.
    pub cutoff_stopped: u32,
    /// Slots for which a usable cached record existed (fingerprint or
    /// source text matched, with reusable results).
    pub fp_hits: u32,
    /// Slots with no usable cached record.
    pub fp_misses: u32,
}

impl Checker {
    /// Incrementally checks a module against the results of a previous
    /// run.
    ///
    /// `slots` lists the module's items **in check order** (definitions
    /// first, then trailing expressions — the order
    /// [`Checker::check_module`] processes them in). A
    /// [`IncrSlot::Reused`] slot asserts its source text is unchanged
    /// from the old run; `fetch(i)` must elaborate slot `i`'s item on
    /// demand (with spans for the *current* file positions), returning
    /// `None` on failure.
    ///
    /// Returns `None` when the incremental preconditions do not hold
    /// (an item needs the big-stack worker, or a `fetch` failed) — the
    /// caller must fall back to [`Checker::check_module`]. A stale
    /// eviction epoch or a changed mutated-variable set does not fail
    /// the run; it just discards the old cache and re-checks
    /// everything, producing a fresh one.
    ///
    /// On success the returned [`ModuleCheck`] is equivalent to a
    /// from-scratch [`Checker::check_module`] over the same items (the
    /// equivalence property tests pin this, modulo fresh-symbol
    /// numbering), alongside the new [`ItemCache`] and the run's
    /// [`RecheckStats`].
    pub fn check_module_incremental(
        &self,
        slots: &[IncrSlot],
        old: Option<&ItemCache>,
        fetch: &mut dyn FnMut(usize) -> Option<ModuleItem>,
    ) -> Option<(ModuleCheck, ItemCache, RecheckStats)> {
        let this = self.fork_check();
        let _live = crate::intern::check_guard();
        this.caches().reconcile_evictions();
        let epoch = crate::intern::evict_epoch();

        // The old cache is only trusted if nothing was evicted since it
        // was built: interned ids inside its snapshots would dangle
        // otherwise. A stale cache is discarded, not an error — the run
        // proceeds all-fresh (Reused slots are elaborated via `fetch`)
        // and rebuilds it.
        let mut old = old.filter(|c| c.epoch == epoch);

        // Turns every Reused slot into a Fresh one by elaborating it,
        // for the discard paths where the old records are unusable.
        fn materialize(
            slots: &[IncrSlot],
            fetch: &mut dyn FnMut(usize) -> Option<ModuleItem>,
        ) -> Option<Vec<IncrSlot>> {
            slots
                .iter()
                .enumerate()
                .map(|(i, s)| match s {
                    IncrSlot::Fresh(item) => Some(IncrSlot::Fresh(item.clone())),
                    IncrSlot::Reused(_) => fetch(i).map(IncrSlot::Fresh),
                })
                .collect()
        }

        let mut owned: Option<Vec<IncrSlot>> = None;
        if old.is_none() && slots.iter().any(|s| matches!(s, IncrSlot::Reused(_))) {
            owned = Some(materialize(slots, fetch)?);
        }
        let slots: &[IncrSlot] = owned.as_deref().unwrap_or(slots);

        // Mutation pre-pass over the whole module (matching
        // `check_module`'s): the union of every item's `set!`-mutated
        // variables. Reused slots contribute their recorded set without
        // being elaborated; fresh slots keep theirs for their records.
        let mut mutated: HashSet<Symbol> = HashSet::new();
        let mut fresh_muts: Vec<Option<Vec<Symbol>>> = Vec::with_capacity(slots.len());
        for slot in slots {
            match slot {
                IncrSlot::Fresh(item) => {
                    let muts = item_mutated(item);
                    mutated.extend(muts.iter().copied());
                    fresh_muts.push(Some(muts));
                }
                IncrSlot::Reused(j) => {
                    let rec = old.and_then(|c| c.records.get(*j))?;
                    mutated.extend(rec.mutated.iter().copied());
                    fresh_muts.push(None);
                }
            }
        }
        // Cached environments were snapshotted under the old mutability
        // marking; if the set changed they are incomparable. Discard
        // and rebuild.
        let mut owned2: Option<Vec<IncrSlot>> = None;
        if let Some(c) = old {
            if mutated != c.mutated {
                old = None;
                if slots.iter().any(|s| matches!(s, IncrSlot::Reused(_))) {
                    owned2 = Some(materialize(slots, fetch)?);
                }
            }
        }
        let slots: &[IncrSlot] = owned2.as_deref().unwrap_or(slots);

        // Fresh items that need the big-stack worker can't ride this
        // driver (the fetch callback borrows the caller's elaborator,
        // so the module can't move to the worker thread). Reused slots
        // are fine: a cache is only ever built by a run that proved
        // every item inline-sized.
        for slot in slots {
            if let IncrSlot::Fresh(item) = slot {
                if let Some(e) = item.body() {
                    if !this.fits_inline_stack(e) {
                        return None;
                    }
                }
            }
        }

        let mut run = ModuleRun::new(mutated.iter().copied());
        let init_env = run.env.clone();
        let mut records: Vec<Arc<ItemRecord>> = Vec::new();
        let mut stats = RecheckStats::default();
        // Names of items re-checked so far this run, for the
        // cutoff-stopped accounting.
        let mut rechecked_names: HashSet<Symbol> = HashSet::new();
        // Positional cursor into the old records, so a Fresh slot whose
        // *term* is unchanged (whitespace-only edit) can still find its
        // old record by position + fingerprint.
        let mut cursor: usize = 0;
        let n = slots.len();

        for (i, slot) in slots.iter().enumerate() {
            let is_last_slot = i + 1 == n;

            // A fresh item is hashed once: the fingerprint that matches
            // it against the old record is the one its new record keeps.
            let key = match slot {
                IncrSlot::Fresh(item) => Some(fingerprint_and_free_refs(item)),
                IncrSlot::Reused(_) => None,
            };
            // Resolve this slot's splice candidate.
            let (candidate, cand_idx, mut item_owned): (
                Option<Arc<ItemRecord>>,
                usize,
                Option<ModuleItem>,
            ) = match slot {
                IncrSlot::Reused(j) => {
                    let rec = old.and_then(|c| c.records.get(*j))?.clone();
                    cursor = *j + 1;
                    (Some(rec), *j, None)
                }
                IncrSlot::Fresh(item) => {
                    let mut cand = None;
                    let mut idx = 0;
                    if let Some(c) = old {
                        if cursor < c.records.len() {
                            idx = cursor;
                            let rec = &c.records[cursor];
                            cursor += 1;
                            if key.as_ref().is_some_and(|(fp, _)| rec.fp == *fp) {
                                cand = Some(rec.clone());
                            }
                        }
                    }
                    (cand, idx, Some(item.clone()))
                }
            };

            let usable = candidate.as_ref().is_some_and(|rec| rec.reuse.is_some());
            if usable {
                stats.fp_hits += 1;
            } else {
                stats.fp_misses += 1;
            }

            // The splice rule: reusable record, same trailing role, and
            // an incoming environment that differs from the one the
            // record was made under only in bindings the item cannot
            // read (`changed`).
            let changed = candidate.as_ref().and_then(|rec| {
                let ru = rec.reuse.as_ref()?;
                let role_ok = !rec.is_expr() || (ru.value.is_some() == is_last_slot);
                if !role_ok {
                    return None;
                }
                let c = old?;
                let prev = if cand_idx == 0 {
                    &c.init_env
                } else {
                    &c.records[cand_idx - 1].env_after
                };
                this.splice_guard(rec, ru, &run.env, prev)
            });

            if let Some(changed) = changed {
                let rec = candidate.unwrap();
                let ru = rec.reuse.as_ref().unwrap();
                stats.skipped += 1;
                if rec.free_refs.iter().any(|s| rechecked_names.contains(s)) {
                    stats.cutoff_stopped += 1;
                }
                run.out.results.push(ru.summary.clone());
                run.binders.extend(ru.binders.iter().cloned());
                if let Some(v) = &ru.value {
                    run.out.value = Some(v.clone());
                }
                if changed.is_empty() {
                    run.env = rec.env_after.clone();
                    records.push(rec);
                } else {
                    // The changed bindings pass through the item
                    // untouched; the record for this run is the old one
                    // made under (and leaving) this run's environment.
                    run.env = rec.env_after.rebased(&run.env, &changed);
                    records.push(Arc::new(ItemRecord {
                        env_after: run.env.clone(),
                        ..(*rec).clone()
                    }));
                }
                continue;
            }

            // Re-check. Reused slots are elaborated on demand now.
            if item_owned.is_none() {
                item_owned = Some(fetch(i)?);
            }
            let item = item_owned.unwrap();
            if let Some(e) = item.body() {
                if !this.fits_inline_stack(e) {
                    return None;
                }
            }
            stats.rechecked += 1;
            if let Some(name) = item.name() {
                rechecked_names.insert(name);
            }

            let results_before = run.out.results.len();
            let binders_before = run.binders.len();
            let ItemStep { value, clean } = this.check_item(&mut run, &item, is_last_slot);
            if value.is_some() {
                run.out.value.clone_from(&value);
            }
            // Results are reusable only for items that checked cleanly
            // on an untripped fork: a diagnostic or a tripped budget
            // means the verdict may be degraded, and degraded verdicts
            // are never cached.
            let reuse = clean.then(|| {
                Arc::new(ReuseData {
                    summary: run.out.results[results_before].clone(),
                    binders: run.binders[binders_before..].to_vec(),
                    value,
                })
            });
            let (fp, free_refs) = key.unwrap_or_else(|| fingerprint_and_free_refs(&item));
            records.push(Arc::new(ItemRecord {
                fp,
                free_refs,
                mutated: fresh_muts[i].take().unwrap_or_else(|| item_mutated(&item)),
                env_after: run.env.clone(),
                reuse,
            }));
        }
        let out = run.finish();

        this.budget().note_margin();

        let cache = ItemCache {
            epoch,
            mutated,
            init_env,
            records,
        };
        Some((out, cache, stats))
    }

    /// The splice guard for one cached record: `Some(changed)` when
    /// `rec` may stand in for re-checking its item under `env`, where
    /// `prev` is the environment the record was made under and
    /// `changed` the names whose bindings differ between the two (empty
    /// when they hold the same facts); `None` when the item must be
    /// re-checked. The module docs give the rule and why it is sound.
    fn splice_guard(
        &self,
        rec: &ItemRecord,
        ru: &ReuseData,
        env: &Env,
        prev: &Env,
    ) -> Option<Vec<Symbol>> {
        let changed = env.binding_diff(prev)?;
        if changed.is_empty() {
            return Some(changed);
        }
        // Each changed name is bound on both sides at a non-empty type:
        // the consistency check scans every binding for emptiness, and
        // must give the same answer under both environments.
        for &d in &changed {
            for side in [env, prev] {
                if !side.is_bound(d) || side.raw_ty_id(d).is_some_and(|t| self.is_empty_id(t)) {
                    return None;
                }
            }
        }
        // What the item can read: its free references, its binders, and
        // every name the environment-wide facts mention.
        let mut roots = rec.free_refs.clone();
        for (name, ty, obj) in &ru.binders {
            // Binding a name that is already bound rewrites every
            // binding that mentions it, the changed ones included.
            if env.is_bound(*name) {
                return None;
            }
            roots.push(*name);
            roots.extend(TyId::of(ty).free_obj_vars().iter().copied());
            let mut vars = HashSet::new();
            obj.free_vars(&mut vars);
            roots.extend(vars);
        }
        env.fact_names(&mut roots);
        (!env.reaches(roots, &changed)).then_some(changed)
    }
}

/// The `set!`-mutated variables of one item's body.
fn item_mutated(item: &ModuleItem) -> Vec<Symbol> {
    item.body()
        .map(|e| mutated_vars(e).into_iter().collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::item_fingerprint;
    use crate::syntax::{Expr, Lambda, Prim, Prop};

    fn int_to_int(name: &str) -> (Symbol, Ty) {
        let x = Symbol::intern("x");
        (
            Symbol::intern(name),
            Ty::fun(vec![(x, Ty::Int)], TyResult::of_type(Ty::Int)),
        )
    }

    fn define(name: &str, body: Expr) -> ModuleItem {
        let (sym, sig) = int_to_int(name);
        ModuleItem::DefineRec {
            name: sym,
            sig,
            lam: Arc::new(Lambda {
                params: vec![(Symbol::intern("x"), Ty::Top)],
                body,
            }),
            node: None,
            sig_node: None,
        }
    }

    fn good(name: &str) -> ModuleItem {
        define(
            name,
            Expr::prim_app(Prim::Add1, vec![Expr::Var(Symbol::intern("x"))]),
        )
    }

    fn bad(name: &str) -> ModuleItem {
        define(name, Expr::Bool(true))
    }

    fn all_fresh(items: &[ModuleItem]) -> Vec<IncrSlot> {
        items.iter().cloned().map(IncrSlot::Fresh).collect()
    }

    fn no_fetch(_: usize) -> Option<ModuleItem> {
        panic!("driver should not fetch for all-Fresh slots")
    }

    #[test]
    fn cold_run_matches_full_check_and_builds_a_cache() {
        let items = vec![good("ia"), bad("ib"), good("ic")];
        let checker = Checker::default();
        let full = checker.check_module(&items);
        let (incr, cache, stats) = checker
            .check_module_incremental(&all_fresh(&items), None, &mut no_fetch)
            .expect("inline-sized module");
        assert_eq!(incr.error_count(), full.error_count());
        assert_eq!(incr.results.len(), full.results.len());
        for (a, b) in incr.results.iter().zip(&full.results) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.poisoned, b.poisoned);
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(stats.rechecked, 3);
        assert_eq!(stats.skipped, 0);
        // The failing item is never cached.
        assert!(cache.records[0].reuse.is_some());
        assert!(cache.records[1].reuse.is_none());
    }

    #[test]
    fn unchanged_suffix_splices_and_one_edit_recheck_is_equivalent() {
        let v1 = vec![good("ja"), good("jb"), good("jc")];
        let checker = Checker::default();
        let (_, cache, _) = checker
            .check_module_incremental(&all_fresh(&v1), None, &mut no_fetch)
            .expect("cold run");

        // Identical second run: everything splices.
        let slots: Vec<IncrSlot> = (0..3).map(IncrSlot::Reused).collect();
        let mut fetch = |i: usize| Some(v1[i].clone());
        let (r2, cache2, s2) = checker
            .check_module_incremental(&slots, Some(&cache), &mut fetch)
            .expect("incremental run");
        assert!(r2.is_clean());
        assert_eq!(s2.skipped, 3);
        assert_eq!(s2.rechecked, 0);
        assert_eq!(cache2.len(), 3);

        // Edit the middle item to be ill-typed; items 0 and 2 splice
        // (jc does not mention jb, so the early cutoff covers it via
        // the value-equal environment… it re-checks only if the env
        // changed — poisoning binds jb at its declared type, which is
        // exactly the type the clean run exported, so jc still splices).
        let v3 = vec![good("ja"), bad("jb"), good("jc")];
        let slots = vec![
            IncrSlot::Reused(0),
            IncrSlot::Fresh(v3[1].clone()),
            IncrSlot::Reused(2),
        ];
        let mut fetch = |i: usize| Some(v3[i].clone());
        let (r3, cache3, s3) = checker
            .check_module_incremental(&slots, Some(&cache2), &mut fetch)
            .expect("incremental run");
        let full3 = checker.check_module(&v3);
        assert_eq!(r3.error_count(), full3.error_count());
        assert_eq!(r3.results.len(), full3.results.len());
        for (a, b) in r3.results.iter().zip(&full3.results) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.poisoned, b.poisoned);
        }
        assert!(s3.rechecked >= 1, "{s3:?}");
        assert!(s3.skipped >= 1, "{s3:?}");
        assert!(cache3.records[1].reuse.is_none());
    }

    #[test]
    fn stale_epoch_discards_the_cache_but_still_succeeds() {
        let items = vec![good("ka"), good("kb")];
        let checker = Checker::default();
        let (_, cache, _) = checker
            .check_module_incremental(&all_fresh(&items), None, &mut no_fetch)
            .expect("cold run");
        let stale = ItemCache {
            epoch: cache.epoch.wrapping_add(1),
            ..cache
        };
        let slots: Vec<IncrSlot> = (0..2).map(IncrSlot::Reused).collect();
        let mut fetch = |i: usize| Some(items[i].clone());
        let (r, _, s) = checker
            .check_module_incremental(&slots, Some(&stale), &mut fetch)
            .expect("stale cache is discarded, not fatal");
        assert!(r.is_clean());
        assert_eq!(s.rechecked, 2);
        assert_eq!(s.skipped, 0);
    }

    // --- the dependency-aware splice guard, one case per clause ---

    fn opaque(name: &str, ty: Ty) -> ModuleItem {
        ModuleItem::Opaque {
            name: Symbol::intern(name),
            ty,
        }
    }

    fn trailing(expr: Expr) -> ModuleItem {
        ModuleItem::Expr { expr, node: None }
    }

    fn call(f: &str) -> ModuleItem {
        trailing(Expr::app(Expr::Var(Symbol::intern(f)), vec![Expr::Int(1)]))
    }

    fn var(x: &str) -> Obj {
        Obj::var(Symbol::intern(x))
    }

    /// `(U Int True)`: inhabited, fact-free, and not `Int`.
    fn int_or_true() -> Ty {
        Ty::union_of(vec![Ty::Int, Ty::True])
    }

    /// Fresh existentials are numbered per run; strip the digits.
    fn normalized(t: &impl std::fmt::Display) -> String {
        let mut out = String::new();
        let mut digits = false;
        for c in t.to_string().chars() {
            if digits && c.is_ascii_digit() {
                continue;
            }
            digits = c == '%';
            out.push(c);
        }
        out
    }

    fn assert_equivalent(incr: &ModuleCheck, full: &ModuleCheck) {
        let codes = |m: &ModuleCheck| m.diagnostics.iter().map(|d| d.code).collect::<Vec<_>>();
        assert_eq!(codes(incr), codes(full));
        let items = |m: &ModuleCheck| {
            m.results
                .iter()
                .map(|r| (r.name, r.ty.as_ref().map(normalized), r.poisoned))
                .collect::<Vec<_>>()
        };
        assert_eq!(items(incr), items(full));
        assert_eq!(
            incr.value.as_ref().map(|v| normalized(&v.ty)),
            full.value.as_ref().map(|v| normalized(&v.ty))
        );
    }

    /// Checks `v1` cold, then `v2` warm against its cache (a slot whose
    /// fingerprint is unchanged at the same position is `Reused`), and
    /// asserts the warm report equals `check_module(v2)`.
    fn edit(v1: &[ModuleItem], v2: &[ModuleItem]) -> RecheckStats {
        let checker = Checker::default();
        let (_, cache, _) = checker
            .check_module_incremental(&all_fresh(v1), None, &mut no_fetch)
            .expect("cold run");
        let slots: Vec<IncrSlot> = v2
            .iter()
            .enumerate()
            .map(|(i, item)| match v1.get(i) {
                Some(old) if item_fingerprint(old) == item_fingerprint(item) => IncrSlot::Reused(i),
                _ => IncrSlot::Fresh(item.clone()),
            })
            .collect();
        let mut fetch = |i: usize| Some(v2[i].clone());
        let (warm, _, stats) = checker
            .check_module_incremental(&slots, Some(&cache), &mut fetch)
            .expect("warm run");
        assert_equivalent(&warm, &checker.check_module(v2));
        stats
    }

    #[test]
    fn an_unreachable_changed_binding_splices() {
        let v1 = vec![opaque("ga_n", Ty::Int), good("ga_u"), call("ga_u")];
        let mut v2 = v1.clone();
        v2[0] = opaque("ga_n", int_or_true());
        let s = edit(&v1, &v2);
        assert_eq!((s.rechecked, s.skipped), (1, 2), "{s:?}");
    }

    #[test]
    fn a_changed_binding_read_through_a_type_rechecks() {
        // gb_g's range mentions gb_n, so reading gb_g reads gb_n.
        let v = Symbol::intern("v");
        let g_ty = Ty::fun(
            vec![(Symbol::intern("x"), Ty::Int)],
            TyResult::of_type(Ty::refine(
                v,
                Ty::Int,
                Prop::lin(Obj::var(v), crate::syntax::LinCmp::Le, var("gb_n")),
            )),
        );
        let v1 = vec![
            opaque("gb_n", Ty::Int),
            opaque("gb_g", g_ty),
            good("gb_u"),
            call("gb_u"),
            trailing(Expr::Var(Symbol::intern("gb_g"))),
        ];
        let mut v2 = v1.clone();
        v2[0] = opaque("gb_n", int_or_true());
        let s = edit(&v1, &v2);
        // gb_n, gb_g (its type mentions gb_n) and the reader of gb_g.
        assert_eq!((s.rechecked, s.skipped), (3, 2), "{s:?}");
    }

    #[test]
    fn a_changed_binding_read_through_an_alias_rechecks() {
        // `(define gc_a gc_n)` records the alias gc_a ↦ gc_n; its own
        // entry is the same under both types of gc_n.
        let v1 = vec![
            opaque("gc_n", Ty::Int),
            ModuleItem::Define {
                name: Symbol::intern("gc_a"),
                sig: None,
                rhs: Expr::Var(Symbol::intern("gc_n")),
                node: None,
                sig_node: None,
            },
            good("gc_u"),
            call("gc_u"),
            trailing(Expr::Var(Symbol::intern("gc_a"))),
        ];
        let mut v2 = v1.clone();
        v2[0] = opaque("gc_n", int_or_true());
        let s = edit(&v1, &v2);
        assert_eq!((s.rechecked, s.skipped), (3, 2), "{s:?}");
    }

    #[test]
    fn a_changed_binding_empty_on_either_side_rechecks() {
        // A `set!`-mutated variable is bound at its declared type
        // without an emptiness check, so an empty type reaches the
        // environment without marking it absurd — and makes every later
        // judgment vacuous through the consistency check.
        let setter = define(
            "gd_set",
            Expr::Begin(vec![
                Expr::Set(
                    Symbol::intern("gd_n"),
                    Box::new(Expr::Var(Symbol::intern("x"))),
                ),
                Expr::Var(Symbol::intern("x")),
            ]),
        );
        let v1 = vec![opaque("gd_n", Ty::Int), setter, good("gd_u"), call("gd_u")];
        let mut v2 = v1.clone();
        v2[0] = opaque("gd_n", Ty::union_of(vec![]));
        // Empty on the incoming side, then on the recorded side.
        assert_eq!(edit(&v1, &v2).skipped, 0);
        assert_eq!(edit(&v2, &v1).skipped, 0);
    }

    #[test]
    fn a_changed_binding_mentioned_by_a_module_level_fact_rechecks() {
        let v = Symbol::intern("v");
        // ge_p : {v : Int | v < ge_n} leaves the lin fact ge_p < ge_n.
        let lin = opaque(
            "ge_p",
            Ty::refine(
                v,
                Ty::Int,
                Prop::lin(Obj::var(v), crate::syntax::LinCmp::Lt, var("ge_n")),
            ),
        );
        let v1 = vec![opaque("ge_n", Ty::Int), lin, good("ge_u"), call("ge_u")];
        let mut v2 = v1.clone();
        v2[0] = opaque("ge_n", int_or_true());
        assert_eq!(edit(&v1, &v2).skipped, 0, "lin fact");

        // gf_n : {v : τ | v ∉ False} leaves the negative fact
        // gf_n ∉ False, for both choices of τ.
        let refuted = |base: Ty| {
            opaque(
                "gf_n",
                Ty::refine(v, base, Prop::is_not(Obj::var(v), Ty::False)),
            )
        };
        let v1 = vec![refuted(Ty::Int), good("gf_u"), call("gf_u")];
        let mut v2 = v1.clone();
        v2[0] = refuted(int_or_true());
        assert_eq!(edit(&v1, &v2).skipped, 0, "negative fact");
    }

    #[test]
    fn a_binding_on_one_side_only_rechecks() {
        let v1 = vec![opaque("gg_n", Ty::Int), good("gg_u"), call("gg_u")];
        let mut v2 = v1.clone();
        v2[0] = opaque("gg_m", Ty::Int);
        let s = edit(&v1, &v2);
        assert_eq!((s.rechecked, s.skipped), (3, 0), "{s:?}");
    }
}
