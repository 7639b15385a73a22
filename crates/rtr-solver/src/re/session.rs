//! Incremental regex solving sessions.
//!
//! A [`ReSession`] keeps compiled automata alive across queries, the way
//! [`crate::bv::BvSession`] keeps one growing CNF: regexes are interned
//! session-locally, each literal's (possibly complemented) minimized DFA
//! is compiled once, intersection products are memoized per *language* —
//! the sorted set of literal ids actually intersected — and emptiness
//! witnesses are cached per language. Repeated queries over a warm fact
//! set (the common shape: one string variable tested against the same
//! refinements at every use site) skip compilation, product construction
//! and emptiness search entirely.
//!
//! Verdicts agree exactly with the one-shot [`super::ReSolver`]: the
//! fold below is the same input-order intersection chain, and every
//! cache key identifies a canonical intermediate. Minimized DFAs of the
//! same language are isomorphic, product construction explores
//! isomorphic pair-graphs state-for-state, so cached DFAs blow (or fit)
//! the state budget exactly when the one-shot run's would. Skipping a
//! *duplicate* literal is likewise exact: the product of a DFA with
//! itself only reaches diagonal states, so the one-shot intersection
//! returns an isomorphic automaton without ever exceeding the budget.

use std::collections::BTreeMap;
use std::sync::Arc;

use super::dfa::Dfa;
use super::solver::{ReConfig, ReConstraint, ReResult};
use super::syntax::Regex;
use crate::fxhash::FxHashMap;
use crate::lin::SolverVar;

/// A session-local literal: interned regex id plus polarity.
type LitId = (u32, bool);

/// A canonical language: the sorted, deduplicated set of literals whose
/// DFAs were actually intersected (budget-blown literals are dropped,
/// exactly as the one-shot solver drops them).
type LangKey = Vec<LitId>;

/// Cache-effectiveness counters for one session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReSessionStats {
    /// Literal-DFA cache hits (compile + complement + minimize skipped).
    pub dfa_hits: u64,
    /// Literal-DFA cache misses.
    pub dfa_misses: u64,
    /// Product cache hits (one intersection + minimization skipped).
    pub product_hits: u64,
    /// Product cache misses.
    pub product_misses: u64,
    /// Emptiness/witness cache hits.
    pub witness_hits: u64,
    /// Emptiness/witness cache misses.
    pub witness_misses: u64,
}

/// A persistent regex solving session (see module docs).
#[derive(Clone, Debug, Default)]
pub struct ReSession {
    config: ReConfig,
    /// Session-local regex interning.
    regex_ids: FxHashMap<Arc<Regex>, u32>,
    /// Minimized literal DFAs; `None` records a blown compile budget.
    literals: FxHashMap<LitId, Option<Arc<Dfa>>>,
    /// Minimized intersection products per language.
    products: FxHashMap<LangKey, Arc<Dfa>>,
    /// Fold steps that blew the product budget, keyed by the incoming
    /// language and the literal whose intersection overflowed. (Blowing
    /// is a function of the *predecessor* language, not the target set —
    /// a different fold order can reach the same set within budget.)
    blown: FxHashMap<(LangKey, LitId), ()>,
    /// Shortest accepted word per language; `None` = empty language.
    witnesses: FxHashMap<LangKey, Option<Vec<u8>>>,
    stats: ReSessionStats,
    /// Optional wall-clock cutoff. Past it, remaining constraints are
    /// skipped (verdict degrades to `Unknown`) *without* writing cache
    /// entries — a deadline trip is transient, unlike a budget blow, so it
    /// must not poison the warm caches for later, unhurried queries.
    deadline: Option<std::time::Instant>,
}

impl ReSession {
    /// Creates an empty session with the given DFA state budget.
    pub fn new(config: ReConfig) -> ReSession {
        ReSession {
            config,
            ..ReSession::default()
        }
    }

    /// Installs (or clears) a wall-clock deadline. Past it, checks degrade
    /// to [`ReResult::Unknown`] rather than being cut off mid-verdict.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
    }

    fn past_deadline(&self) -> bool {
        self.deadline
            .is_some_and(|d| std::time::Instant::now() >= d)
    }

    /// The session-local id of `re`, interning on first use.
    fn regex_id(&mut self, re: &Arc<Regex>) -> u32 {
        if let Some(&id) = self.regex_ids.get(re) {
            return id;
        }
        let id = self.regex_ids.len() as u32;
        self.regex_ids.insert(re.clone(), id);
        id
    }

    /// The literal's minimized DFA, compiling (and complementing, for
    /// negative literals) on first use. `None` = compile budget blown.
    fn literal_dfa(&mut self, lit: LitId, re: &Regex) -> Option<Arc<Dfa>> {
        if let Some(cached) = self.literals.get(&lit) {
            self.stats.dfa_hits += 1;
            return cached.clone();
        }
        self.stats.dfa_misses += 1;
        let compiled = Dfa::compile(re, self.config.max_dfa_states).map(|mut d| {
            if !lit.1 {
                d = d.complement();
            }
            Arc::new(d.minimize())
        });
        self.literals.insert(lit, compiled.clone());
        compiled
    }

    /// Is the conjunction of `constraints` satisfiable? Same verdicts as
    /// [`super::ReSolver::check`], with warm-cache reuse.
    pub fn check(&mut self, constraints: &[ReConstraint]) -> ReResult {
        let budget = self.config.max_dfa_states;
        let mut by_var: BTreeMap<SolverVar, Vec<&ReConstraint>> = BTreeMap::new();
        for c in constraints {
            by_var.entry(c.var).or_default().push(c);
        }
        let mut model = BTreeMap::new();
        let mut unknown = false;
        for (var, cs) in by_var {
            let mut acc: Option<Arc<Dfa>> = None;
            let mut lang: LangKey = Vec::new();
            for c in cs {
                if self.past_deadline() {
                    unknown = true;
                    break;
                }
                let lit = (self.regex_id(&c.regex), c.positive);
                let Some(d) = self.literal_dfa(lit, &c.regex) else {
                    unknown = true;
                    continue;
                };
                acc = Some(match acc {
                    None => {
                        lang.push(lit);
                        d
                    }
                    // Duplicate literal: L ∩ L = L.
                    Some(prev) if lang.binary_search(&lit).is_ok() => prev,
                    Some(prev) if self.blown.contains_key(&(lang.clone(), lit)) => {
                        self.stats.product_hits += 1;
                        unknown = true;
                        prev
                    }
                    Some(prev) => {
                        let at = lang.binary_search(&lit).unwrap_err();
                        let mut next = lang.clone();
                        next.insert(at, lit);
                        if let Some(cached) = self.products.get(&next) {
                            self.stats.product_hits += 1;
                            lang = next;
                            cached.clone()
                        } else {
                            self.stats.product_misses += 1;
                            match prev.intersect(&d, budget) {
                                Some(i) => {
                                    let m = Arc::new(i.minimize());
                                    self.products.insert(next.clone(), m.clone());
                                    lang = next;
                                    m
                                }
                                None => {
                                    self.blown.insert((lang.clone(), lit), ());
                                    unknown = true;
                                    prev
                                }
                            }
                        }
                    }
                });
            }
            let witness = match acc {
                None => {
                    // Every literal for this variable blew the budget.
                    unknown = true;
                    continue;
                }
                Some(acc) => {
                    if let Some(cached) = self.witnesses.get(&lang) {
                        self.stats.witness_hits += 1;
                        cached.clone()
                    } else {
                        self.stats.witness_misses += 1;
                        let w = acc.shortest_accepted();
                        self.witnesses.insert(lang.clone(), w.clone());
                        w
                    }
                }
            };
            match witness {
                Some(w) => {
                    let s = String::from_utf8(w).expect("witnesses are ASCII by construction");
                    model.insert(var, s);
                }
                // The (possibly partial) intersection is empty. Dropping
                // budget-blown literals only *grows* the language, so
                // emptiness still refutes the full conjunction.
                None => return ReResult::Unsat,
            }
        }
        if unknown {
            return ReResult::Unknown;
        }
        ReResult::Sat(model)
    }

    /// Do `facts` entail `goal`? Decided as UNSAT of `facts ∧ ¬goal`;
    /// `Unknown` is conservatively `false`.
    pub fn entails(&mut self, facts: &[ReConstraint], goal: &ReConstraint) -> bool {
        let mut query: Vec<ReConstraint> = facts.to_vec();
        query.push(goal.negate());
        self.check(&query).is_unsat()
    }

    /// Total DFA states held across the literal and product caches — a
    /// growth gauge callers use to decide when to retire a session.
    pub fn num_states(&self) -> usize {
        self.literals
            .values()
            .flatten()
            .map(|d| d.num_states())
            .sum::<usize>()
            + self
                .products
                .values()
                .map(|d| d.num_states())
                .sum::<usize>()
    }

    /// Cache-effectiveness counters.
    pub fn stats(&self) -> ReSessionStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::re::ReSolver;

    fn re(p: &str) -> Arc<Regex> {
        Arc::new(Regex::parse(p).expect("pattern parses"))
    }
    fn v(n: u32) -> SolverVar {
        SolverVar(n)
    }

    #[test]
    fn session_agrees_with_one_shot() {
        let mut session = ReSession::default();
        let one_shot = ReSolver::default();
        let digits = re("[0-9]+");
        let four = re("[0-9]{4}");
        let alpha = re("[a-z]+");
        let queries: Vec<Vec<ReConstraint>> = vec![
            vec![ReConstraint::member(v(0), digits.clone())],
            vec![
                ReConstraint::member(v(0), digits.clone()),
                ReConstraint::member(v(0), alpha.clone()),
            ],
            vec![
                ReConstraint::member(v(0), four.clone()),
                ReConstraint::not_member(v(0), digits.clone()),
            ],
            vec![
                ReConstraint::member(v(0), digits.clone()),
                ReConstraint::member(v(1), alpha.clone()),
            ],
            vec![
                ReConstraint::member(v(0), digits.clone()),
                ReConstraint::member(v(0), digits.clone()),
            ],
        ];
        for q in &queries {
            assert_eq!(session.check(q), one_shot.check(q), "on {q:?}");
        }
        // Entailments agree too.
        assert_eq!(
            session.entails(
                &[ReConstraint::member(v(0), four.clone())],
                &ReConstraint::member(v(0), digits.clone())
            ),
            one_shot.entails(
                &[ReConstraint::member(v(0), four)],
                &ReConstraint::member(v(0), digits)
            ),
        );
    }

    #[test]
    fn caches_are_shared_across_queries() {
        let mut session = ReSession::default();
        let digits = re("[0-9]+");
        let nonempty = re(".+");
        let facts = [ReConstraint::member(v(0), digits.clone())];
        assert!(session.entails(&facts, &ReConstraint::member(v(0), nonempty.clone())));
        let states = session.num_states();
        let stats = session.stats();
        assert!(stats.dfa_misses > 0 && stats.product_misses > 0);
        // The warm re-run compiles and intersects nothing new.
        assert!(session.entails(&facts, &ReConstraint::member(v(0), nonempty)));
        assert_eq!(session.num_states(), states);
        let warm = session.stats();
        assert_eq!(warm.dfa_misses, stats.dfa_misses);
        assert_eq!(warm.product_misses, stats.product_misses);
        assert_eq!(warm.witness_misses, stats.witness_misses);
        assert!(warm.dfa_hits > stats.dfa_hits);
        assert!(warm.witness_hits > stats.witness_hits);
    }

    #[test]
    fn budget_exhaustion_is_unknown_not_wrong() {
        let mut session = ReSession::new(ReConfig { max_dfa_states: 1 });
        let one_shot = ReSolver::new(ReConfig { max_dfa_states: 1 });
        let cs = [ReConstraint::member(v(0), re("abc"))];
        assert_eq!(session.check(&cs), ReResult::Unknown);
        assert_eq!(session.check(&cs), one_shot.check(&cs));
        // A blown product is remembered without poisoning other orders.
        let mut session = ReSession::new(ReConfig { max_dfa_states: 4 });
        let one_shot = ReSolver::new(ReConfig { max_dfa_states: 4 });
        let cs = [
            ReConstraint::member(v(0), re("a{40,60}b{40,60}")),
            ReConstraint::member(v(0), re("a")),
            ReConstraint::member(v(0), re("b")),
        ];
        for _ in 0..2 {
            assert_eq!(session.check(&cs), ReResult::Unsat);
            assert_eq!(session.check(&cs), one_shot.check(&cs));
        }
    }
}
