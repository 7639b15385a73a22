//! Cache-effectiveness smoke tests: checking the §4.1 alias-chain
//! workload must actually *hit* the subtype memo table — if these
//! assertions fail, the caches compile but never fire, and the perf
//! numbers in `BENCH_checker.json` are a lie. The counters belong to
//! the checker that counted them, so concurrent checks on different
//! checkers never mix.

use std::sync::{Mutex, MutexGuard};

use rtr_bench::alias_chain_src;
use rtr_core::check::Checker;
use rtr_lang::check_source;

/// Serializes the tests of this binary. They share the process-wide
/// interner, so a neighbour interning new trees while another test
/// measures would break that test's before/after arena deltas.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn alias_chain_hits_the_memo_tables() {
    let _serial = serial();
    let checker = Checker::default();
    let src = alias_chain_src(16);
    check_source(&src, &checker).expect("alias chain checks");
    let stats = checker.cache_stats();
    assert!(
        stats.subtype.0 > 0,
        "subtype memo table never hit: {stats:?}"
    );
    assert!(
        stats.inconsistent.0 + stats.inconsistent.1 > 0,
        "inconsistency memo table never consulted: {stats:?}"
    );
    assert!(
        stats.update.0 > 0,
        "id-native update± memo table never hit: {stats:?}"
    );
    assert!(checker.cache_entry_count() > 0, "memo tables are empty");

    // A second check of the same module should hit even more (environment
    // generations differ, but env-free subtype pairs are cached globally).
    let before = stats.subtype.0;
    check_source(&src, &checker).expect("alias chain re-checks");
    let after = checker.cache_stats().subtype.0;
    assert!(after > before, "re-check produced no further hits");
}

#[test]
fn fresh_names_stay_out_of_the_permanent_arena() {
    let _serial = serial();
    let checker = Checker::default();
    // dot-prod mints ghost existentials (fresh names) at every
    // application whose argument has no symbolic object — the workload
    // whose goals used to leak permanent arena entries per check.
    let src = rtr_bench::dot_prod_module_src(2);
    // Warm-up: let first-seen trees (annotations, Δ-table instantiations)
    // populate the permanent arena.
    for warm in [
        src.clone(),
        alias_chain_src(16),
        rtr_bench::dot_prod_module_src(4),
        rtr_bench::xtime_module_src(2),
    ] {
        check_source(&warm, &checker).expect("warm-up module checks");
    }

    let arena_before = rtr_core::intern::arena_stats();
    check_source(&src, &checker).expect("dot-prod module re-checks");
    let arena_after = rtr_core::intern::arena_stats();

    // Re-checking a warm module mints fresh names (ghost existentials),
    // and those must land in the fresh region, not the permanent arena.
    assert_eq!(
        arena_after.tys, arena_before.tys,
        "a warm re-check grew the permanent type arena"
    );
    assert_eq!(
        arena_after.props, arena_before.props,
        "a warm re-check grew the permanent proposition arena"
    );
    assert!(
        arena_after.fresh_props > arena_before.fresh_props
            || arena_after.fresh_tys > arena_before.fresh_tys
            || arena_after.fresh_objs > arena_before.fresh_objs,
        "fresh-name-bearing goals produced no fresh-region growth: {arena_after:?}"
    );
}

#[test]
fn lazy_split_scheduler_defers_irrelevant_clauses() {
    let _serial = serial();
    use rtr_core::env::Env;
    use rtr_core::syntax::{BvCmp, LinCmp, Obj, Prop, Symbol, Ty};
    const FUEL: u32 = 64;
    let checker = Checker::default();
    let mut env = Env::new();
    let i = Symbol::intern("smoke_i");
    let num = Symbol::intern("smoke_n");
    checker.bind(&mut env, i, &Ty::Int, FUEL);
    checker.bind(&mut env, num, &Ty::BitVec, FUEL);
    // A bitvector clause (no variables or theory shared with the goal —
    // the lazy scheduler must defer it) and a linear clause whose split
    // decides the goal.
    checker.assume(
        &mut env,
        &Prop::or(
            Prop::bv(Obj::var(num), BvCmp::Eq, Obj::bv(0)),
            Prop::bv(Obj::var(num), BvCmp::Eq, Obj::bv(1)),
        ),
        FUEL,
    );
    checker.assume(
        &mut env,
        &Prop::or(
            Prop::lin(Obj::var(i), LinCmp::Eq, Obj::int(0)),
            Prop::lin(Obj::var(i), LinCmp::Eq, Obj::int(1)),
        ),
        FUEL,
    );
    // 0 ≤ i ∧ i ≤ 1: not entailed directly, provable in both branches of
    // the linear clause.
    let goal = Prop::and(
        Prop::lin(Obj::int(0), LinCmp::Le, Obj::var(i)),
        Prop::lin(Obj::var(i), LinCmp::Le, Obj::int(1)),
    );
    assert!(
        checker.proves(&env, &goal, FUEL),
        "case split must decide the goal"
    );
    let stats = checker.cache_stats();
    let (_, taken, deferred) = stats.splits;
    assert!(taken > 0, "no case splits taken: {stats:?}");
    assert!(
        deferred > 0,
        "goal-irrelevant clause was never deferred: {stats:?}"
    );
    assert!(
        stats.clause_meta.0 + stats.clause_meta.1 > 0,
        "clause-relevance metadata never consulted: {stats:?}"
    );
}

#[test]
fn string_module_hits_the_regex_session() {
    let _serial = serial();
    let checker = Checker::default();
    let src = rtr_bench::string_module_src(8);
    check_source(&src, &checker).expect("string module checks");
    let stats = checker.cache_stats();
    assert!(
        stats.re.0 + stats.re.1 > 0,
        "regex verdict table never consulted: {stats:?}"
    );
    let re = stats.re_session;
    assert!(
        re.dfa_misses > 0,
        "regex session never compiled a DFA: {stats:?}"
    );
    assert!(
        re.dfa_hits > 0,
        "regex session DFA cache never hit: {stats:?}"
    );
}

#[test]
fn theory_heavy_programs_hit_the_solver_caches() {
    let _serial = serial();
    // A scaled dot-prod module: every function re-poses alpha-renamed
    // copies of the same linear systems, so the canonical-fingerprint
    // verdict table must both be consulted and actually hit.
    let checker = Checker::default();
    let src = rtr_bench::dot_prod_module_src(4);
    check_source(&src, &checker).expect("dot-prod module checks");
    let stats = checker.cache_stats();
    assert!(
        stats.lin.0 + stats.lin.1 > 0,
        "linear solver cache never consulted: {stats:?}"
    );
    assert!(stats.lin.0 > 0, "linear solver cache never hit: {stats:?}");

    // Same for the bitvector table on an xtime module.
    let checker = Checker::default();
    let src = rtr_bench::xtime_module_src(2);
    check_source(&src, &checker).expect("xtime module checks");
    let stats = checker.cache_stats();
    assert!(
        stats.bv.0 + stats.bv.1 > 0,
        "bitvector solver cache never consulted: {stats:?}"
    );
    assert!(
        stats.bv.0 > 0,
        "bitvector solver cache never hit: {stats:?}"
    );
}

#[test]
fn concurrent_checkers_count_only_their_own_checks() {
    let _serial = serial();
    let modules = [
        rtr_bench::dot_prod_module_src(2),
        rtr_bench::string_module_src(4),
    ];
    let counters = |src: &str, start: Option<&std::sync::Barrier>| {
        let checker = Checker::default();
        if let Some(start) = start {
            start.wait();
        }
        check_source(src, &checker).expect("module checks");
        (checker.cache_stats(), checker.budget_stats())
    };
    let alone: Vec<_> = modules.iter().map(|src| counters(src, None)).collect();
    // Both checks start together, so they overlap.
    let start = std::sync::Barrier::new(modules.len());
    let parallel: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = modules
            .iter()
            .map(|src| scope.spawn(|| counters(src, Some(&start))))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("checker thread"))
            .collect()
    });
    for ((cache, budget), src) in alone.iter().zip(&modules) {
        assert!(
            cache.subtype.0 + cache.subtype.1 > 0,
            "no subtype queries on\n{src}"
        );
        assert!(budget.steps_synth > 0, "no typing steps counted on\n{src}");
    }
    assert_eq!(
        parallel, alone,
        "a checker's counters depend on what other checkers ran meanwhile"
    );
}
