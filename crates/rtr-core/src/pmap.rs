//! A persistent hash-array-mapped trie (HAMT) keyed by [`Symbol`].
//!
//! [`crate::env::Env`] snapshots itself at every binder, branch and case
//! split, then usually writes a handful of bindings into the copy. With
//! `Arc<HashMap<…>>` copy-on-write, the *first* write after a snapshot
//! clones the entire map, so a chain of `n` binders costs `O(n²)` map
//! entries copied. This module provides the persistent replacement: an
//! HAMT whose insert/remove clone only the `O(log n)` nodes on the path
//! to the key, structurally sharing everything else with the snapshot it
//! came from. Cloning a [`PMap`] is one `Arc` bump; writes to a clone
//! never disturb the original.
//!
//! Design notes:
//!
//! * Keys are [`Symbol`]s (interned `u32`s). The trie hashes them through
//!   a fixed odd-multiplier mix, which is a **bijection** on `u64` — two
//!   distinct symbols can never share a full hash, so the trie needs no
//!   collision nodes and its depth is bounded by ⌈64/5⌉ = 13 levels.
//! * Interior nodes are 32-way bitmap-compressed branches (the classic
//!   Bagwell layout): a `u32` bitmap plus a dense child array, indexed by
//!   `popcount(bitmap & (bit - 1))`.
//! * Writes use [`Arc::make_mut`]: when a node is uniquely owned (no live
//!   snapshot shares it) it is edited in place, so an unshared map is
//!   updated with zero allocation beyond leaf creation — snapshots only
//!   pay for the nodes they actually touch afterwards.
//! * Values are `Copy` (the environment stores interned [`crate::intern`]
//!   ids, not trees), which keeps leaves two words and iteration
//!   allocation-free.
//!
//! Iteration order is the (deterministic) hash order of the keys —
//! arbitrary but stable, like `HashMap`'s within one process. The
//! `pmap_props` property suite pins the map to `HashMap` semantics under
//! random operation sequences, including snapshot/write independence.

use std::sync::Arc;

use crate::syntax::Symbol;

/// Bits consumed per trie level.
const BITS: u32 = 5;
const LEVEL_MASK: u64 = (1 << BITS) - 1;

/// Mixes a symbol into a 64-bit hash. An odd multiplier makes this a
/// bijection on `u64`, so distinct symbols always differ somewhere in the
/// 64 bits and the trie never needs collision buckets.
fn hash(key: Symbol) -> u64 {
    (key.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[derive(Debug)]
enum Node<V> {
    /// A single key/value pair.
    Leaf(Symbol, V),
    /// A bitmap-compressed 32-way branch; `children[i]` corresponds to
    /// the `i`-th set bit of `bitmap`.
    Branch {
        bitmap: u32,
        children: Vec<Arc<Node<V>>>,
    },
}

// Manual impl: children are shared by `Arc` clone, values by `Copy`.
impl<V: Copy> Clone for Node<V> {
    fn clone(&self) -> Self {
        match self {
            Node::Leaf(k, v) => Node::Leaf(*k, *v),
            Node::Branch { bitmap, children } => Node::Branch {
                bitmap: *bitmap,
                children: children.clone(),
            },
        }
    }
}

/// A persistent map from [`Symbol`] to a `Copy` value. See the module
/// docs for the design.
#[derive(Debug)]
pub struct PMap<V> {
    root: Option<Arc<Node<V>>>,
    len: usize,
}

impl<V> Clone for PMap<V> {
    fn clone(&self) -> Self {
        PMap {
            root: self.root.clone(),
            len: self.len,
        }
    }
}

impl<V> Default for PMap<V> {
    fn default() -> Self {
        PMap { root: None, len: 0 }
    }
}

impl<V: Copy> PMap<V> {
    /// An empty map.
    pub fn new() -> PMap<V> {
        PMap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up `key`.
    pub fn get(&self, key: Symbol) -> Option<&V> {
        let mut node = self.root.as_deref()?;
        let h = hash(key);
        let mut shift = 0;
        loop {
            match node {
                Node::Leaf(k, v) => return (*k == key).then_some(v),
                Node::Branch { bitmap, children } => {
                    let bit = 1u32 << ((h >> shift) & LEVEL_MASK);
                    if bitmap & bit == 0 {
                        return None;
                    }
                    node = &children[(bitmap & (bit - 1)).count_ones() as usize];
                    shift += BITS;
                }
            }
        }
    }

    /// Is `key` present?
    pub fn contains_key(&self, key: Symbol) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `key ↦ value`, returning the previous value if any. Only
    /// the path to the key is copied; all other nodes stay shared with
    /// snapshots.
    pub fn insert(&mut self, key: Symbol, value: V) -> Option<V> {
        let prev = match &mut self.root {
            None => {
                self.root = Some(Arc::new(Node::Leaf(key, value)));
                None
            }
            Some(root) => insert_rec(root, 0, hash(key), key, value),
        };
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: Symbol) -> Option<V> {
        // Full read-only probe first: `remove_rec` copies shared nodes on
        // its way down (`Arc::make_mut`), so a miss must be detected
        // before any write — `Env::unbind` removes unconditionally and
        // usually misses on freshly snapshot-shared maps.
        if !self.contains_key(key) {
            return None;
        }
        let root = self.root.as_mut()?;
        let (removed, empty) = remove_rec(root, 0, hash(key), key);
        if empty {
            self.root = None;
        }
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Iterates over all entries in deterministic (hash) order.
    pub fn iter(&self) -> Iter<'_, V> {
        Iter {
            stack: self.root.as_deref().map(|n| vec![n]).unwrap_or_default(),
        }
    }
}

impl<V: Copy + PartialEq> PMap<V> {
    /// The keys whose entries differ between the two maps: present in
    /// only one of them, or mapped to unequal values. Each differing key
    /// is reported once, in no particular order.
    ///
    /// The walk descends both tries in lockstep and skips every subtree
    /// the two share (`Arc::ptr_eq`) without visiting it, so diffing a
    /// map against a snapshot it was derived from costs time in the
    /// paths written since the snapshot, not in the size of the map.
    /// Maps with no history in common still diff correctly, at the cost
    /// of visiting both.
    pub fn diff_keys(&self, other: &PMap<V>) -> Vec<Symbol> {
        let mut out = Vec::new();
        diff_rec(self.root.as_ref(), other.root.as_ref(), &mut out);
        out
    }
}

/// Pushes every key whose entry differs between the subtries `a` and
/// `b`, which sit at the same trie position.
fn diff_rec<V: Copy + PartialEq>(
    a: Option<&Arc<Node<V>>>,
    b: Option<&Arc<Node<V>>>,
    out: &mut Vec<Symbol>,
) {
    let (a, b) = match (a, b) {
        (None, None) => return,
        (Some(n), None) | (None, Some(n)) => {
            out.extend(subtrie(n).map(|(k, _)| k));
            return;
        }
        (Some(a), Some(b)) if Arc::ptr_eq(a, b) => return,
        (Some(a), Some(b)) => (a, b),
    };
    match (&**a, &**b) {
        (
            Node::Branch {
                bitmap: ba,
                children: ca,
            },
            Node::Branch {
                bitmap: bb,
                children: cb,
            },
        ) => {
            fn child<V>(bitmap: u32, children: &[Arc<Node<V>>], bit: u32) -> Option<&Arc<Node<V>>> {
                (bitmap & bit != 0).then(|| &children[(bitmap & (bit - 1)).count_ones() as usize])
            }
            let mut bits = ba | bb;
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                bits &= bits - 1;
                diff_rec(child(*ba, ca, bit), child(*bb, cb, bit), out);
            }
        }
        // A leaf against anything: the only position where the two
        // tries can disagree in shape, and small by construction.
        (Node::Leaf(k, v), _) | (_, Node::Leaf(k, v)) => {
            let rest = if matches!(&**a, Node::Leaf(..)) { b } else { a };
            let mut found = false;
            for (k2, v2) in subtrie(rest) {
                if k2 != *k {
                    out.push(k2);
                } else {
                    found = true;
                    if v2 != v {
                        out.push(k2);
                    }
                }
            }
            if !found {
                out.push(*k);
            }
        }
    }
}

/// Iterates over the entries below one node.
fn subtrie<V: Copy>(node: &Node<V>) -> Iter<'_, V> {
    Iter { stack: vec![node] }
}

fn insert_rec<V: Copy>(
    node: &mut Arc<Node<V>>,
    shift: u32,
    h: u64,
    key: Symbol,
    value: V,
) -> Option<V> {
    match Arc::make_mut(node) {
        Node::Leaf(k, v) if *k == key => Some(std::mem::replace(v, value)),
        leaf @ Node::Leaf(..) => {
            let Node::Leaf(k0, v0) = *leaf else {
                unreachable!()
            };
            *leaf = join(shift, hash(k0), Arc::new(Node::Leaf(k0, v0)), h, key, value);
            None
        }
        Node::Branch { bitmap, children } => {
            let bit = 1u32 << ((h >> shift) & LEVEL_MASK);
            let i = (*bitmap & (bit - 1)).count_ones() as usize;
            if *bitmap & bit != 0 {
                insert_rec(&mut children[i], shift + BITS, h, key, value)
            } else {
                children.insert(i, Arc::new(Node::Leaf(key, value)));
                *bitmap |= bit;
                None
            }
        }
    }
}

/// Builds the minimal branch spine separating an existing leaf from a new
/// entry. Terminates because the two full hashes differ (bijective mix).
fn join<V: Copy>(
    shift: u32,
    h0: u64,
    leaf0: Arc<Node<V>>,
    h1: u64,
    key: Symbol,
    value: V,
) -> Node<V> {
    let c0 = (h0 >> shift) & LEVEL_MASK;
    let c1 = (h1 >> shift) & LEVEL_MASK;
    if c0 == c1 {
        Node::Branch {
            bitmap: 1 << c0,
            children: vec![Arc::new(join(shift + BITS, h0, leaf0, h1, key, value))],
        }
    } else {
        let leaf1 = Arc::new(Node::Leaf(key, value));
        let (bitmap, children) = if c0 < c1 {
            ((1 << c0) | (1 << c1), vec![leaf0, leaf1])
        } else {
            ((1 << c0) | (1 << c1), vec![leaf1, leaf0])
        };
        Node::Branch { bitmap, children }
    }
}

/// Removes `key` below `node`; returns the removed value and whether the
/// node is now empty (and should be dropped by the parent).
fn remove_rec<V: Copy>(
    node: &mut Arc<Node<V>>,
    shift: u32,
    h: u64,
    key: Symbol,
) -> (Option<V>, bool) {
    // Read-only probe first so misses never clone shared nodes.
    match &**node {
        Node::Leaf(k, _) if *k != key => return (None, false),
        Node::Branch { bitmap, .. } => {
            let bit = 1u32 << ((h >> shift) & LEVEL_MASK);
            if bitmap & bit == 0 {
                return (None, false);
            }
        }
        Node::Leaf(..) => {}
    }
    let (removed, collapse) = match Arc::make_mut(node) {
        Node::Leaf(_, v) => return (Some(*v), true),
        Node::Branch { bitmap, children } => {
            let bit = 1u32 << ((h >> shift) & LEVEL_MASK);
            let i = (*bitmap & (bit - 1)).count_ones() as usize;
            let (removed, child_empty) = remove_rec(&mut children[i], shift + BITS, h, key);
            if child_empty {
                children.remove(i);
                *bitmap &= !bit;
            }
            if children.is_empty() {
                return (removed, true);
            }
            // Collapse a single remaining leaf upward to keep paths short.
            if children.len() == 1 && matches!(&*children[0], Node::Leaf(..)) {
                (
                    removed,
                    Some((*children.pop().expect("len checked")).clone()),
                )
            } else {
                (removed, None)
            }
        }
    };
    if let Some(leaf) = collapse {
        // The node is already uniquely owned (make_mut above).
        *Arc::make_mut(node) = leaf;
    }
    (removed, false)
}

/// Borrowing iterator over a [`PMap`] in deterministic hash order.
pub struct Iter<'a, V> {
    stack: Vec<&'a Node<V>>,
}

impl<'a, V: Copy> Iterator for Iter<'a, V> {
    type Item = (Symbol, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.stack.pop()? {
                Node::Leaf(k, v) => return Some((*k, v)),
                Node::Branch { children, .. } => {
                    // Push in reverse so children come out low-bit first.
                    self.stack.extend(children.iter().rev().map(|c| &**c));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u32) -> Symbol {
        Symbol::intern(&format!("pm{n}"))
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: PMap<u32> = PMap::new();
        assert!(m.is_empty());
        for i in 0..100 {
            assert_eq!(m.insert(s(i), i), None);
        }
        assert_eq!(m.len(), 100);
        for i in 0..100 {
            assert_eq!(m.get(s(i)), Some(&i));
        }
        assert_eq!(m.get(Symbol::intern("absent")), None);
        assert_eq!(m.insert(s(7), 700), Some(7));
        assert_eq!(m.len(), 100);
        for i in 0..100 {
            let expect = if i == 7 { 700 } else { i };
            assert_eq!(m.remove(s(i)), Some(expect));
            assert_eq!(m.get(s(i)), None);
        }
        assert!(m.is_empty());
        assert_eq!(m.remove(s(0)), None);
    }

    #[test]
    fn snapshots_are_independent() {
        let mut m: PMap<u32> = PMap::new();
        for i in 0..32 {
            m.insert(s(i), i);
        }
        let snapshot = m.clone();
        m.insert(s(0), 999);
        m.remove(s(1));
        m.insert(s(100), 100);
        assert_eq!(snapshot.get(s(0)), Some(&0));
        assert_eq!(snapshot.get(s(1)), Some(&1));
        assert_eq!(snapshot.get(s(100)), None);
        assert_eq!(snapshot.len(), 32);
        assert_eq!(m.get(s(0)), Some(&999));
        assert_eq!(m.get(s(1)), None);
        assert_eq!(m.len(), 32);
    }

    #[test]
    fn iteration_visits_every_entry_once() {
        let mut m: PMap<u32> = PMap::new();
        for i in 0..257 {
            m.insert(s(i), i);
        }
        let mut seen: Vec<u32> = m.iter().map(|(_, v)| *v).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..257).collect::<Vec<_>>());
        // Iteration order is deterministic.
        let a: Vec<Symbol> = m.iter().map(|(k, _)| k).collect();
        let b: Vec<Symbol> = m.clone().iter().map(|(k, _)| k).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn diff_keys_is_history_independent() {
        let mut a: PMap<u32> = PMap::new();
        for i in 0..64 {
            a.insert(s(i), i);
        }
        // Same final contents by a different history (extra inserts and
        // removes leave structurally distinct, equal tries).
        let mut b: PMap<u32> = PMap::new();
        for i in (0..64).rev() {
            b.insert(s(i), 0);
        }
        for i in 64..90 {
            b.insert(s(i), i);
        }
        for i in 64..90 {
            b.remove(s(i));
        }
        for i in 0..64 {
            b.insert(s(i), i);
        }
        assert!(a.diff_keys(&b).is_empty());
        assert!(a.diff_keys(&a.clone()).is_empty(), "shared-root fast path");
        b.insert(s(3), 999);
        assert_eq!(a.diff_keys(&b), vec![s(3)]);
        b.insert(s(3), 3);
        b.remove(s(63));
        assert_eq!(b.diff_keys(&a), vec![s(63)], "missing key must be detected");
        assert_eq!(a.diff_keys(&PMap::new()).len(), 64);
    }

    /// The nodes of `b` not `Arc::ptr_eq`-shared with `a`: a walk of
    /// `b` that stops at every node `a` also holds.
    fn unshared_nodes<V>(a: &PMap<V>, b: &PMap<V>) -> usize {
        fn collect<V>(n: &Arc<Node<V>>, out: &mut std::collections::HashSet<*const Node<V>>) {
            out.insert(Arc::as_ptr(n));
            if let Node::Branch { children, .. } = &**n {
                children.iter().for_each(|c| collect(c, out));
            }
        }
        fn count<V>(n: &Arc<Node<V>>, shared: &std::collections::HashSet<*const Node<V>>) -> usize {
            match &**n {
                _ if shared.contains(&Arc::as_ptr(n)) => 0,
                Node::Leaf(..) => 1,
                Node::Branch { children, .. } => {
                    1 + children.iter().map(|c| count(c, shared)).sum::<usize>()
                }
            }
        }
        let mut shared = std::collections::HashSet::new();
        a.root.iter().for_each(|n| collect(n, &mut shared));
        b.root.iter().map(|n| count(n, &shared)).sum()
    }

    /// Nodes on the longest root-to-leaf path.
    fn depth<V>(n: Option<&Arc<Node<V>>>) -> usize {
        match n.map(|n| &**n) {
            None => 0,
            Some(Node::Leaf(..)) => 1,
            Some(Node::Branch { children, .. }) => {
                1 + children.iter().map(|c| depth(Some(c))).max().unwrap_or(0)
            }
        }
    }

    #[test]
    fn a_write_to_a_snapshot_copies_one_path() {
        let mut m: PMap<u32> = PMap::new();
        for i in 0..1000 {
            m.insert(s(i), i);
        }
        let mut overwritten = m.clone();
        overwritten.insert(s(500), 0);
        let mut grown = m.clone();
        grown.insert(s(1000), 1000);
        let mut shrunk = m.clone();
        shrunk.remove(s(10));
        for copy in [&overwritten, &grown, &shrunk] {
            let unshared = unshared_nodes(&m, copy);
            let depth = depth(copy.root.as_ref());
            assert!(
                (1..=depth).contains(&unshared),
                "{unshared} nodes copied for one write to a depth-{depth} trie"
            );
        }
        assert_eq!(
            unshared_nodes(&m, &m.clone()),
            0,
            "a snapshot shares its root"
        );
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(s(500)), Some(&500), "the snapshot is untouched");
    }

    #[test]
    fn remove_collapses_single_leaf_branches() {
        let mut m: PMap<u32> = PMap::new();
        for i in 0..64 {
            m.insert(s(i), i);
        }
        for i in 1..64 {
            m.remove(s(i));
        }
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(s(0)), Some(&0));
        // The root should have collapsed back toward a leaf (depth ≤ 13
        // either way, but a collapsed map answers in one hop).
        match m.root.as_deref() {
            Some(Node::Leaf(k, 0)) => assert_eq!(*k, s(0)),
            other => {
                // Collapse is best-effort (only single-leaf branches);
                // correctness never depends on it.
                assert!(other.is_some());
            }
        }
    }
}
