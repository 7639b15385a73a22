//! Property tests pinning the persistent HAMT ([`rtr_core::pmap::PMap`])
//! to `HashMap` semantics: any sequence of inserts/removes must leave the
//! two maps observationally identical (get, contains, len, iteration as a
//! set), writing to a map must never disturb a snapshot taken before
//! the write, and [`PMap::diff_keys`] between two snapshots of one map
//! must be exactly the keys on which they differ.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use rtr_core::pmap::PMap;
use rtr_core::syntax::Symbol;

/// A small key universe so random sequences actually collide, overwrite
/// and remove existing keys.
fn key(i: u8) -> Symbol {
    Symbol::intern(&format!("pmk{}", i % 24))
}

#[derive(Clone, Debug)]
enum Op {
    Insert(u8, u32),
    Remove(u8),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            any::<u8>().prop_map(Op::Remove),
        ],
        0..64,
    )
}

fn assert_same(pmap: &PMap<u32>, reference: &HashMap<Symbol, u32>) {
    assert_eq!(pmap.len(), reference.len());
    assert_eq!(pmap.is_empty(), reference.is_empty());
    for (k, v) in reference {
        assert_eq!(pmap.get(*k), Some(v), "missing {k}");
    }
    let mut entries: Vec<(Symbol, u32)> = pmap.iter().map(|(k, v)| (k, *v)).collect();
    entries.sort_unstable();
    let mut expected: Vec<(Symbol, u32)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
    expected.sort_unstable();
    assert_eq!(entries, expected, "iteration disagrees with HashMap");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every op sequence leaves the HAMT and a HashMap observationally
    /// identical, and each op reports the same previous value.
    #[test]
    fn pmap_matches_hashmap_semantics(ops in arb_ops()) {
        let mut pmap: PMap<u32> = PMap::new();
        let mut reference: HashMap<Symbol, u32> = HashMap::new();
        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(pmap.insert(key(*k), *v), reference.insert(key(*k), *v));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(pmap.remove(key(*k)), reference.remove(&key(*k)));
                }
            }
        }
        assert_same(&pmap, &reference);
    }

    /// Snapshot/write independence: a clone taken mid-sequence is frozen —
    /// later writes to the original (and writes to the clone) never leak
    /// across, in either direction.
    #[test]
    fn snapshots_are_write_independent(
        before in arb_ops(),
        after in arb_ops(),
        on_snapshot in arb_ops(),
    ) {
        let mut pmap: PMap<u32> = PMap::new();
        let mut reference: HashMap<Symbol, u32> = HashMap::new();
        for op in &before {
            match op {
                Op::Insert(k, v) => {
                    pmap.insert(key(*k), *v);
                    reference.insert(key(*k), *v);
                }
                Op::Remove(k) => {
                    pmap.remove(key(*k));
                    reference.remove(&key(*k));
                }
            }
        }
        let mut snapshot = pmap.clone();
        let witness = pmap.clone();
        let frozen = reference.clone();
        let mut snapshot_ref = reference.clone();
        // Diverge both copies with independent op sequences.
        for op in &after {
            match op {
                Op::Insert(k, v) => {
                    pmap.insert(key(*k), *v);
                    reference.insert(key(*k), *v);
                }
                Op::Remove(k) => {
                    pmap.remove(key(*k));
                    reference.remove(&key(*k));
                }
            }
        }
        for op in &on_snapshot {
            match op {
                Op::Insert(k, v) => {
                    snapshot.insert(key(*k), *v);
                    snapshot_ref.insert(key(*k), *v);
                }
                Op::Remove(k) => {
                    snapshot.remove(key(*k));
                    snapshot_ref.remove(&key(*k));
                }
            }
        }
        assert_same(&pmap, &reference);
        assert_same(&snapshot, &snapshot_ref);
        // An untouched snapshot taken at the same point still shows the
        // frozen state, no matter what the other two copies did.
        assert_same(&witness, &frozen);
    }

    /// `diff_keys` between two diverged snapshots of one map is the
    /// `HashMap` symmetric difference — keys present on one side only,
    /// plus keys mapped to different values — in both directions. The
    /// remove-heavy tail empties whole branches so their collapse leaves
    /// the two tries with different shapes at the same position.
    #[test]
    fn diff_keys_is_the_symmetric_difference(
        before in arb_ops(),
        left in arb_ops(),
        right in arb_ops(),
        drain in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let apply = |map: &mut PMap<u32>, reference: &mut HashMap<Symbol, u32>, ops: &[Op]| {
            for op in ops {
                match op {
                    Op::Insert(k, v) => {
                        map.insert(key(*k), *v);
                        reference.insert(key(*k), *v);
                    }
                    Op::Remove(k) => {
                        map.remove(key(*k));
                        reference.remove(&key(*k));
                    }
                }
            }
        };
        let mut a: PMap<u32> = PMap::new();
        let mut a_ref: HashMap<Symbol, u32> = HashMap::new();
        apply(&mut a, &mut a_ref, &before);
        let mut b = a.clone();
        let mut b_ref = a_ref.clone();
        apply(&mut a, &mut a_ref, &left);
        apply(&mut b, &mut b_ref, &right);
        let removes: Vec<Op> = drain.iter().map(|k| Op::Remove(*k)).collect();
        apply(&mut b, &mut b_ref, &removes);

        let mut expected: Vec<Symbol> = a_ref
            .keys()
            .chain(b_ref.keys())
            .copied()
            .collect::<HashSet<Symbol>>()
            .into_iter()
            .filter(|k| a_ref.get(k) != b_ref.get(k))
            .collect();
        expected.sort_unstable();
        for (x, y) in [(&a, &b), (&b, &a)] {
            let mut got = x.diff_keys(y);
            got.sort_unstable();
            let unique = got.len();
            got.dedup();
            prop_assert_eq!(unique, got.len(), "a key reported twice");
            prop_assert_eq!(&got, &expected);
        }
        prop_assert!(a.diff_keys(&a.clone()).is_empty());
    }
}
