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
//! A module item's verdict (its diagnostics, its recorded
//! [`ItemSummary`], the environment it leaves behind, and its
//! contribution to the module value) is a deterministic function of two
//! inputs: the item's elaborated core term and the **value** of the
//! environment it is checked under. The checker judgements consult
//! nothing else — `generation`/`lin_epoch` stamps key memo tables and
//! never change a verdict (see [`Env::same_contents`]). So the splice
//! rule is:
//!
//! > a cached record may replace re-checking item *i* iff the item's
//! > term is unchanged (same fingerprint / same source text) **and**
//! > the environment reaching slot *i* this run is value-equal to the
//! > environment that reached it when the record was made.
//!
//! Early cutoff falls out of the same rule, stronger than the usual
//! "exported type id unchanged" check: after re-checking a dirty item,
//! if the environment it leaves behind is value-equal to the cached
//! one, *every* downstream comparison succeeds (each splice restores
//! the cached `env_after`, so consecutive splices compare
//! generation-equal environments in O(1)) and the item's dependents are
//! never re-checked. If the re-check changed the exported binding, the
//! environment comparison fails exactly for the suffix that can
//! observe it.
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
use crate::fingerprint::{free_refs, item_fingerprint};
use crate::module::{ItemStep, ItemSummary, ModuleCheck, ModuleItem, ModuleRun};
use crate::mutation::mutated_vars;
use crate::syntax::{Obj, Symbol, Ty, TyResult};

/// The reusable outcome of one *cleanly* checked item.
#[derive(Clone, Debug)]
struct ReuseData {
    /// The summary pushed onto [`ModuleCheck::results`].
    summary: ItemSummary,
    /// The binder this item opened (replayed for the final lifting
    /// substitution), if any.
    binder: Option<(Symbol, Ty, Obj)>,
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
    /// ([`crate::fingerprint::free_refs`]) — the dependency edges used
    /// by the cutoff accounting.
    free_refs: Vec<Symbol>,
    /// The `set!`-mutated variables of this item's body (the module
    /// mutation pre-pass is the union of these).
    mutated: Vec<Symbol>,
    /// Value snapshot of the environment *after* this item, whether it
    /// checked cleanly or was poisoned.
    env_after: Env,
    /// Reusable results; `None` for items that produced diagnostics or
    /// tripped their budget fork (never cached).
    reuse: Option<ReuseData>,
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

/// Process-wide accumulation of [`RecheckStats`], for `--stats`.
#[cfg(feature = "stats")]
pub mod stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(super) static RECHECKED: AtomicU64 = AtomicU64::new(0);
    pub(super) static SKIPPED: AtomicU64 = AtomicU64::new(0);
    pub(super) static CUTOFF_STOPPED: AtomicU64 = AtomicU64::new(0);
    pub(super) static FP_HITS: AtomicU64 = AtomicU64::new(0);
    pub(super) static FP_MISSES: AtomicU64 = AtomicU64::new(0);

    /// Snapshot of the process-wide incremental counters.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct IncrStats {
        /// Total items re-checked across all incremental runs.
        pub rechecked: u64,
        /// Total items spliced without re-checking.
        pub skipped: u64,
        /// Total dependents the early cutoff stopped from dirtying.
        pub cutoff_stopped: u64,
        /// Total fingerprint-table hits.
        pub fp_hits: u64,
        /// Total fingerprint-table misses.
        pub fp_misses: u64,
    }

    /// Reads the process-wide incremental counters.
    pub fn incr_stats() -> IncrStats {
        IncrStats {
            rechecked: RECHECKED.load(Ordering::Relaxed),
            skipped: SKIPPED.load(Ordering::Relaxed),
            cutoff_stopped: CUTOFF_STOPPED.load(Ordering::Relaxed),
            fp_hits: FP_HITS.load(Ordering::Relaxed),
            fp_misses: FP_MISSES.load(Ordering::Relaxed),
        }
    }

    pub(super) fn accumulate(s: &super::RecheckStats) {
        RECHECKED.fetch_add(u64::from(s.rechecked), Ordering::Relaxed);
        SKIPPED.fetch_add(u64::from(s.skipped), Ordering::Relaxed);
        CUTOFF_STOPPED.fetch_add(u64::from(s.cutoff_stopped), Ordering::Relaxed);
        FP_HITS.fetch_add(u64::from(s.fp_hits), Ordering::Relaxed);
        FP_MISSES.fetch_add(u64::from(s.fp_misses), Ordering::Relaxed);
    }
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
                            if rec.fp == item_fingerprint(item) {
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
            // a value-equal incoming environment.
            let splice = usable && {
                let rec = candidate.as_ref().unwrap();
                let role_ok =
                    !rec.is_expr() || (rec.reuse.as_ref().unwrap().value.is_some() == is_last_slot);
                role_ok && {
                    let c = old.unwrap();
                    let prev = if cand_idx == 0 {
                        &c.init_env
                    } else {
                        &c.records[cand_idx - 1].env_after
                    };
                    run.env.same_contents(prev)
                }
            };

            if splice {
                let rec = candidate.unwrap();
                let ru = rec.reuse.as_ref().unwrap();
                stats.skipped += 1;
                if rec.free_refs.iter().any(|s| rechecked_names.contains(s)) {
                    stats.cutoff_stopped += 1;
                }
                run.env = rec.env_after.clone();
                run.out.results.push(ru.summary.clone());
                if let Some(b) = &ru.binder {
                    run.binders.push(b.clone());
                }
                if let Some(v) = &ru.value {
                    run.out.value = Some(v.clone());
                }
                records.push(rec);
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
            let reuse = clean.then(|| ReuseData {
                summary: run.out.results[results_before].clone(),
                binder: run.binders.get(binders_before).cloned(),
                value,
            });
            records.push(Arc::new(ItemRecord {
                fp: item_fingerprint(&item),
                free_refs: free_refs(&item),
                mutated: fresh_muts[i].take().unwrap_or_else(|| item_mutated(&item)),
                env_after: run.env.clone(),
                reuse,
            }));
        }
        let out = run.finish();

        #[cfg(feature = "stats")]
        stats::accumulate(&stats);

        let cache = ItemCache {
            epoch,
            mutated,
            init_env,
            records,
        };
        Some((out, cache, stats))
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
    use crate::syntax::{Expr, Lambda, Prim};

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
}
