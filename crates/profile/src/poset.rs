//! The poset (partially ordered set) of subscription profiles
//! (paper §IV-C.2, Figure 2).
//!
//! A directed acyclic graph where each node holds a unique profile;
//! parents' publication sets are supersets of their children's, while
//! intersecting or disjoint profiles are siblings. Unlike the classic
//! Siena poset, ordering is computed from **bit vectors**, not the
//! subscription language — which is what makes the framework
//! language-independent.
//!
//! CRAM uses the poset for its search-pruning optimization: the search
//! for a profile's closest partner walks the DAG breadth-first and
//! prunes entire subtrees whose roots have an empty relationship with
//! the probe (descendants of a disjoint profile are also disjoint).

#![expect(
    clippy::indexing_slicing,
    reason = "adjacency indices are allocated and owned by the poset itself"
)]

use crate::profile::{Relation, SubscriptionProfile};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::Hash;

#[derive(Debug, Clone)]
struct Node<K: Ord> {
    profile: SubscriptionProfile,
    parents: BTreeSet<K>,
    children: BTreeSet<K>,
}

/// A DAG of profiles ordered by publication-set containment.
#[derive(Debug, Clone)]
pub struct Poset<K: Ord> {
    nodes: BTreeMap<K, Node<K>>,
    roots: BTreeSet<K>,
    /// Relationship computations performed so far (E8 ablation metric).
    relation_ops: u64,
}

impl<K: Copy + Ord + Eq + Hash> Default for Poset<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Ord + Eq + Hash> Poset<K> {
    /// Creates an empty poset.
    pub fn new() -> Self {
        Self {
            nodes: BTreeMap::new(),
            roots: BTreeSet::new(),
            relation_ops: 0,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the poset has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// True when `k` is present.
    pub fn contains(&self, k: K) -> bool {
        self.nodes.contains_key(&k)
    }

    /// The profile stored at `k`.
    pub fn profile(&self, k: K) -> Option<&SubscriptionProfile> {
        self.nodes.get(&k).map(|n| &n.profile)
    }

    /// Keys with no parents (maximal profiles).
    pub fn roots(&self) -> impl Iterator<Item = K> + '_ {
        self.roots.iter().copied()
    }

    /// Children of `k` (covered profiles one level down).
    pub fn children(&self, k: K) -> impl Iterator<Item = K> + '_ {
        self.nodes
            .get(&k)
            .into_iter()
            .flat_map(|n| n.children.iter().copied())
    }

    /// Parents of `k` (covering profiles one level up).
    pub fn parents(&self, k: K) -> impl Iterator<Item = K> + '_ {
        self.nodes
            .get(&k)
            .into_iter()
            .flat_map(|n| n.parents.iter().copied())
    }

    /// All keys, in key order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.nodes.keys().copied()
    }

    /// Number of profile-relationship computations performed by inserts
    /// and removals so far.
    pub fn relation_ops(&self) -> u64 {
        self.relation_ops
    }

    /// Inserts a profile under key `k`, wiring it between its tightest
    /// covering nodes and the maximal nodes it covers.
    ///
    /// Profiles equal to an existing node are attached *below* the equal
    /// node (GIF grouping normally prevents duplicates).
    ///
    /// # Panics
    /// Panics if `k` is already present.
    pub fn insert(&mut self, k: K, profile: SubscriptionProfile) {
        assert!(!self.nodes.contains_key(&k), "key already in poset");

        let parents = self.find_parents(&profile);
        let children = self.find_children(&profile, &parents);

        // Unlink parent→child edges now routed through the new node.
        // find_parents/find_children only yield keys already stored in
        // the poset, so every lookup below succeeds.
        for &p in &parents {
            for &c in &children {
                if self.nodes[&p].children.contains(&c) {
                    if let Some(pn) = self.nodes.get_mut(&p) {
                        pn.children.remove(&c);
                    }
                    if let Some(cn) = self.nodes.get_mut(&c) {
                        cn.parents.remove(&p);
                    }
                }
            }
        }
        for &p in &parents {
            if let Some(pn) = self.nodes.get_mut(&p) {
                pn.children.insert(k);
            }
        }
        for &c in &children {
            if let Some(cn) = self.nodes.get_mut(&c) {
                cn.parents.insert(k);
            }
            if self.nodes[&c].parents.len() == 1 {
                self.roots.remove(&c);
            }
        }
        if parents.is_empty() {
            self.roots.insert(k);
        }
        self.nodes.insert(
            k,
            Node {
                profile,
                parents: parents.into_iter().collect(),
                children: children.into_iter().collect(),
            },
        );
    }

    /// Finds the minimal set of nodes whose profiles cover (⊇) `p`.
    fn find_parents(&mut self, p: &SubscriptionProfile) -> Vec<K> {
        let mut ops = 0u64;
        let mut parents = Vec::new();
        let mut frontier: VecDeque<K> = self.roots.iter().copied().collect();
        let mut visited: BTreeSet<K> = BTreeSet::new();
        while let Some(n) = frontier.pop_front() {
            if !visited.insert(n) {
                continue;
            }
            ops += 1;
            let rel = self.nodes[&n].profile.relationship(p);
            if !matches!(rel, Relation::Superset | Relation::Equal) {
                continue;
            }
            // Does a child cover p more tightly?
            let mut tighter = false;
            let kids: Vec<K> = self.nodes[&n].children.iter().copied().collect();
            for c in kids {
                ops += 1;
                let crel = self.nodes[&c].profile.relationship(p);
                if matches!(crel, Relation::Superset | Relation::Equal) {
                    tighter = true;
                    frontier.push_back(c);
                }
            }
            if !tighter && !parents.contains(&n) {
                parents.push(n);
            }
        }
        self.relation_ops += ops;
        parents
    }

    /// Finds the maximal set of nodes strictly covered by `p`, pruning
    /// subtrees with empty relationships.
    fn find_children(&mut self, p: &SubscriptionProfile, parents: &[K]) -> Vec<K> {
        let mut candidates: Vec<K> = Vec::new();
        let start: Vec<K> = if parents.is_empty() {
            self.roots.iter().copied().collect()
        } else {
            parents
                .iter()
                .flat_map(|&par| self.nodes[&par].children.iter().copied())
                .collect()
        };
        let mut ops = 0u64;
        let mut frontier: VecDeque<K> = start.into();
        let mut visited: BTreeSet<K> = BTreeSet::new();
        while let Some(n) = frontier.pop_front() {
            if !visited.insert(n) {
                continue;
            }
            ops += 1;
            let rel = p.relationship(&self.nodes[&n].profile);
            match rel {
                Relation::Superset => {
                    // p strictly covers n: candidate child; descendants
                    // are dominated.
                    candidates.push(n);
                }
                Relation::Empty => {
                    // Descendants of a disjoint profile are disjoint too.
                }
                _ => {
                    for c in self.nodes[&n].children.iter().copied() {
                        frontier.push_back(c);
                    }
                }
            }
        }
        // Keep only maximal candidates (drop any candidate covered by
        // another candidate).
        let mut maximal: Vec<K> = Vec::new();
        'outer: for &c in &candidates {
            for &d in &candidates {
                if c != d {
                    ops += 1;
                    let rel = self.nodes[&d].profile.relationship(&self.nodes[&c].profile);
                    if rel == Relation::Superset && !maximal.contains(&c) {
                        // c is dominated by d — but only drop when d is
                        // itself (transitively) kept; since domination is
                        // transitive over candidates, dropping is safe.
                        continue 'outer;
                    }
                }
            }
            maximal.push(c);
        }
        self.relation_ops += ops;
        maximal
    }

    /// Removes a node, reconnecting its parents to its children.
    ///
    /// Returns the stored profile, or `None` when absent.
    pub fn remove(&mut self, k: K) -> Option<SubscriptionProfile> {
        let node = self.nodes.remove(&k)?;
        self.roots.remove(&k);
        // Edges are kept symmetric, so every parent/child recorded on
        // the removed node is itself present in the map.
        for &p in &node.parents {
            if let Some(pn) = self.nodes.get_mut(&p) {
                pn.children.remove(&k);
            }
        }
        for &c in &node.children {
            if let Some(cn) = self.nodes.get_mut(&c) {
                cn.parents.remove(&k);
            }
        }
        // Reconnect: every parent adopts every child (edges remain
        // containment-consistent by transitivity).
        for &p in &node.parents {
            for &c in &node.children {
                if let Some(pn) = self.nodes.get_mut(&p) {
                    pn.children.insert(c);
                }
                if let Some(cn) = self.nodes.get_mut(&c) {
                    cn.parents.insert(p);
                }
            }
        }
        for &c in &node.children {
            if self.nodes[&c].parents.is_empty() {
                self.roots.insert(c);
            }
        }
        Some(node.profile)
    }

    /// Breadth-first traversal from the roots, visiting every node once.
    pub fn bfs(&self) -> PosetBfs<'_, K> {
        PosetBfs {
            poset: self,
            frontier: self.roots.iter().copied().collect(),
            visited: BTreeSet::new(),
        }
    }

    /// Verifies structural invariants (tests/debugging): edge symmetry,
    /// containment along edges, acyclicity, and root correctness.
    ///
    /// # Panics
    /// Panics with a description when an invariant is violated.
    pub fn check_invariants(&self) {
        for (k, n) in &self.nodes {
            for c in &n.children {
                assert!(self.nodes.contains_key(c), "dangling child");
                if let Some(cn) = self.nodes.get(c) {
                    assert!(cn.parents.contains(k), "edge not symmetric");
                    let rel = n.profile.relationship(&cn.profile);
                    assert!(
                        matches!(rel, Relation::Superset | Relation::Equal),
                        "parent does not cover child"
                    );
                }
            }
            assert_eq!(
                n.parents.is_empty(),
                self.roots.contains(k),
                "root set wrong"
            );
        }
        // Acyclicity via BFS count (every node reachable exactly once
        // from roots and no node revisited means no cycle among
        // reachable nodes); unreachable nodes would indicate a cycle.
        let reached = self.bfs().count();
        assert_eq!(reached, self.nodes.len(), "cycle or orphan detected");
    }
}

/// Iterator over a poset in breadth-first order from the roots.
pub struct PosetBfs<'a, K: Ord> {
    poset: &'a Poset<K>,
    frontier: VecDeque<K>,
    visited: BTreeSet<K>,
}

impl<K: Copy + Ord + Eq + Hash> Iterator for PosetBfs<'_, K> {
    type Item = K;

    fn next(&mut self) -> Option<K> {
        while let Some(k) = self.frontier.pop_front() {
            if self.visited.insert(k) {
                for c in self.poset.nodes[&k].children.iter().copied() {
                    self.frontier.push_back(c);
                }
                return Some(k);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::ShiftingBitVector;
    use greenps_pubsub::ids::AdvId;

    /// Profile with the given publication ids set for publisher 1.
    fn prof(ids: &[u64]) -> SubscriptionProfile {
        let mut v = ShiftingBitVector::starting_at(256, 0);
        for &id in ids {
            v.record(id);
        }
        let mut p = SubscriptionProfile::with_capacity(256);
        p.insert_vector(AdvId::new(1), v);
        p
    }

    #[test]
    fn figure_2_shape() {
        // ROOT-level nodes: STOCK (broad) and SPORTS (disjoint), with
        // STOCK covering two narrower profiles.
        let mut poset: Poset<u32> = Poset::new();
        let stock = prof(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let yhoo = prof(&[0, 1, 2]);
        let volume = prof(&[4, 5]);
        let sports = prof(&[100, 101]);
        let racing = prof(&[100]);
        poset.insert(1, stock);
        poset.insert(2, yhoo);
        poset.insert(3, volume);
        poset.insert(4, sports);
        poset.insert(5, racing);
        poset.check_invariants();

        let roots: Vec<u32> = poset.roots().collect();
        assert_eq!(roots, vec![1, 4]);
        let stock_children: Vec<u32> = poset.children(1).collect();
        assert_eq!(stock_children, vec![2, 3]);
        assert_eq!(poset.children(4).collect::<Vec<_>>(), vec![5]);
        assert_eq!(poset.parents(5).collect::<Vec<_>>(), vec![4]);
        assert_eq!(poset.len(), 5);
    }

    #[test]
    fn insert_in_any_order_gives_same_structure() {
        let profiles: Vec<(u32, SubscriptionProfile)> = vec![
            (1, prof(&[0, 1, 2, 3, 4, 5, 6, 7])),
            (2, prof(&[0, 1, 2])),
            (3, prof(&[4, 5])),
            (4, prof(&[0, 1])),
        ];
        let mut orders = vec![
            vec![0, 1, 2, 3],
            vec![3, 2, 1, 0],
            vec![1, 3, 0, 2],
            vec![2, 0, 3, 1],
        ];
        let mut shapes: Vec<Vec<(u32, Vec<u32>)>> = Vec::new();
        for order in orders.drain(..) {
            let mut poset: Poset<u32> = Poset::new();
            for i in order {
                let (k, p) = &profiles[i];
                poset.insert(*k, p.clone());
            }
            poset.check_invariants();
            let shape: Vec<(u32, Vec<u32>)> = poset
                .keys()
                .map(|k| (k, poset.children(k).collect()))
                .collect();
            shapes.push(shape);
        }
        for s in &shapes[1..] {
            assert_eq!(s, &shapes[0]);
        }
        // expected: 1 → {2, 3}, 2 → {4}
        assert_eq!(
            shapes[0],
            vec![(1, vec![2, 3]), (2, vec![4]), (3, vec![]), (4, vec![])]
        );
    }

    #[test]
    fn intermediate_insert_rewires_edges() {
        let mut poset: Poset<u32> = Poset::new();
        poset.insert(1, prof(&[0, 1, 2, 3]));
        poset.insert(2, prof(&[0]));
        assert_eq!(poset.children(1).collect::<Vec<_>>(), vec![2]);
        // Insert a profile between 1 and 2.
        poset.insert(3, prof(&[0, 1]));
        poset.check_invariants();
        assert_eq!(poset.children(1).collect::<Vec<_>>(), vec![3]);
        assert_eq!(poset.children(3).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn diamond_with_multiple_parents() {
        let mut poset: Poset<u32> = Poset::new();
        poset.insert(1, prof(&[0, 1, 2]));
        poset.insert(2, prof(&[1, 2, 3]));
        poset.insert(3, prof(&[1, 2])); // covered by both
        poset.check_invariants();
        assert_eq!(poset.parents(3).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(poset.roots().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn remove_reconnects_grandparents() {
        let mut poset: Poset<u32> = Poset::new();
        poset.insert(1, prof(&[0, 1, 2, 3]));
        poset.insert(2, prof(&[0, 1]));
        poset.insert(3, prof(&[0]));
        assert_eq!(poset.children(2).collect::<Vec<_>>(), vec![3]);
        let removed = poset.remove(2).unwrap();
        assert_eq!(removed.count_ones(), 2);
        poset.check_invariants();
        assert_eq!(poset.children(1).collect::<Vec<_>>(), vec![3]);
        assert_eq!(poset.parents(3).collect::<Vec<_>>(), vec![1]);
        assert!(poset.remove(99).is_none());
    }

    #[test]
    fn remove_root_promotes_children() {
        let mut poset: Poset<u32> = Poset::new();
        poset.insert(1, prof(&[0, 1, 2, 3]));
        poset.insert(2, prof(&[0, 1]));
        poset.insert(3, prof(&[2, 3]));
        poset.remove(1);
        poset.check_invariants();
        let roots: Vec<u32> = poset.roots().collect();
        assert_eq!(roots, vec![2, 3]);
    }

    #[test]
    fn bfs_visits_every_node_once() {
        let mut poset: Poset<u32> = Poset::new();
        poset.insert(1, prof(&[0, 1, 2]));
        poset.insert(2, prof(&[1, 2, 3]));
        poset.insert(3, prof(&[1, 2]));
        poset.insert(4, prof(&[50]));
        let order: Vec<u32> = poset.bfs().collect();
        assert_eq!(order.len(), 4);
        assert_eq!(order[..3], [1, 2, 4]); // roots first in key order
        assert_eq!(order[3], 3);
    }

    #[test]
    fn equal_profile_attaches_below() {
        let mut poset: Poset<u32> = Poset::new();
        poset.insert(1, prof(&[0, 1]));
        poset.insert(2, prof(&[0, 1]));
        poset.check_invariants();
        assert_eq!(poset.children(1).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    #[should_panic(expected = "key already in poset")]
    fn duplicate_key_panics() {
        let mut poset: Poset<u32> = Poset::new();
        poset.insert(1, prof(&[0]));
        poset.insert(1, prof(&[1]));
    }

    #[test]
    fn relation_ops_counter_moves() {
        let mut poset: Poset<u32> = Poset::new();
        poset.insert(1, prof(&[0, 1, 2]));
        let before = poset.relation_ops();
        poset.insert(2, prof(&[0, 1]));
        assert!(poset.relation_ops() > before);
    }

    #[test]
    fn randomized_inserts_and_removes_keep_invariants() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let mut poset: Poset<u32> = Poset::new();
        let mut live: Vec<u32> = Vec::new();
        let mut next = 0u32;
        for _ in 0..200 {
            if live.is_empty() || rng.gen_bool(0.65) {
                let ids: Vec<u64> = (0..rng.gen_range(1..6))
                    .map(|_| rng.gen_range(0..24))
                    .collect();
                poset.insert(next, prof(&ids));
                live.push(next);
                next += 1;
            } else {
                let i = rng.gen_range(0..live.len());
                let k = live.swap_remove(i);
                poset.remove(k).unwrap();
            }
            poset.check_invariants();
        }
    }
}
