//! Phase 3: recursive broker overlay construction (paper §V).
//!
//! Each broker allocated by Phase 2 is mapped to a "virtual
//! subscription" — the OR-aggregate of the bit vectors it serves, with a
//! bandwidth requirement equal to its *input* bandwidth — and the
//! Phase-2 allocator is invoked recursively on the remaining broker
//! pool, building the tree layer by layer until a single root remains.
//! Publishers initially connect to the root (GRAPE then relocates them).
//!
//! Three optimizations, applied after each layer allocation (§V-A/B/C):
//!
//! 1. **Eliminate pure forwarders** — a parent with a single child just
//!    adds a hop; it is deallocated and the child promoted.
//! 2. **Takeover children roles** — a parent with spare capacity absorbs
//!    its children directly, least-utilized child first.
//! 3. **Best-fit broker replacement** — each allocated broker is swapped
//!    for the smallest-capacity pool broker that still fits its load.

#![expect(
    clippy::indexing_slicing,
    reason = "layer and cluster indices are built in the same construction pass"
)]

use crate::cram::{CramBuilder, CramConfig};
use crate::model::{AllocError, Allocation, AllocationInput, BrokerSpec, Unit};
use crate::pipeline::CancelToken;
use crate::sorting::{bin_packing_units, fbf_units};
use greenps_profile::{PublisherTable, SubscriptionProfile};
use greenps_pubsub::ids::{BrokerId, SubId};
use std::collections::BTreeMap;
use std::fmt;

/// Which Phase-2 algorithm drives allocation — reused verbatim for the
/// recursive overlay layers, keeping the whole scheme consistent
/// (paper §V: "if CRAM is used to allocate subscriptions to brokers,
/// then CRAM is also used to build the broker overlay").
#[derive(Debug, Clone, Copy)]
pub enum AllocatorKind {
    /// Fastest Broker First with a shuffle seed.
    Fbf {
        /// Seed for the random subscription draw order.
        seed: u64,
    },
    /// BIN PACKING (first-fit decreasing).
    BinPacking,
    /// CRAM with a metric and optimization switches.
    Cram(CramConfig),
}

impl AllocatorKind {
    /// Runs the allocator over prebuilt units, threading `cancel` into
    /// its packing/merge loops.
    ///
    /// # Errors
    /// Allocator failures, or [`AllocError::Cancelled`] when the token
    /// trips mid-run.
    pub fn allocate_units(
        &self,
        brokers: &[BrokerSpec],
        publishers: &PublisherTable,
        units: Vec<Unit>,
        cancel: &CancelToken,
    ) -> Result<Allocation, AllocError> {
        match self {
            AllocatorKind::Fbf { seed } => fbf_units(brokers, publishers, units, *seed, cancel),
            AllocatorKind::BinPacking => bin_packing_units(brokers, publishers, units, cancel),
            AllocatorKind::Cram(cfg) => {
                let input = AllocationInput {
                    brokers: brokers.to_vec(),
                    subscriptions: Vec::new(),
                    publishers: publishers.clone(),
                };
                CramBuilder::from_config(*cfg)
                    .cancel_token(cancel)
                    .run_units(&input, units)
                    .map(|(a, _)| a)
            }
        }
    }
}

/// Overlay-construction switches (all on by default, toggleable for the
/// E9 ablation).
#[derive(Debug, Clone, Copy)]
pub struct OverlayConfig {
    /// The Phase-2 allocator reused for each layer.
    pub allocator: AllocatorKind,
    /// §V-A: eliminate pure forwarding brokers.
    pub eliminate_pure_forwarders: bool,
    /// §V-B: parents take over children's roles.
    pub takeover_children: bool,
    /// §V-C: best-fit broker replacement.
    pub best_fit_replacement: bool,
}

impl OverlayConfig {
    /// All optimizations enabled with the given allocator.
    pub fn new(allocator: AllocatorKind) -> Self {
        Self {
            allocator,
            eliminate_pure_forwarders: true,
            takeover_children: true,
            best_fit_replacement: true,
        }
    }
}

/// One broker in the constructed overlay tree.
#[derive(Debug, Clone)]
pub struct OverlayNode {
    /// The broker occupying this position.
    pub broker: BrokerId,
    /// Child brokers (empty for leaves).
    pub children: Vec<BrokerId>,
    /// Subscription units hosted locally.
    pub units: Vec<Unit>,
    /// Union of every profile in this broker's subtree — its interest.
    pub profile: SubscriptionProfile,
    /// Input bandwidth a parent must provide (bytes/s).
    pub in_bandwidth: f64,
    /// Input publication rate (msg/s).
    pub in_rate: f64,
    /// Output bandwidth responsibility: local copies + forwarding to
    /// children (bytes/s).
    pub out_bw_used: f64,
    /// Routing-table entries: local subscriptions + one per child.
    pub route_entries: usize,
}

impl OverlayNode {
    /// Local subscription count.
    pub fn local_sub_count(&self) -> usize {
        self.units.iter().map(Unit::sub_count).sum()
    }
}

/// The constructed broker overlay tree.
#[derive(Debug, Clone)]
pub struct Overlay {
    nodes: BTreeMap<BrokerId, OverlayNode>,
    root: BrokerId,
    /// Construction statistics for the ablation experiments.
    pub stats: OverlayStats,
}

/// Counters describing one overlay construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverlayStats {
    /// Tree layers built (leaf layer counts as 1).
    pub layers: usize,
    /// Pure forwarders eliminated (optimization 1).
    pub pure_forwarders_removed: usize,
    /// Children absorbed by parents (optimization 2).
    pub takeovers: usize,
    /// Best-fit broker swaps (optimization 3).
    pub best_fit_swaps: usize,
    /// True when a layer could not shrink and a root was forced (the
    /// paper assumes enough headroom for this never to happen).
    pub forced_root: bool,
}

impl Overlay {
    /// Reassembles an overlay from its parts (checkpoint restore),
    /// validating the tree invariant without panicking.
    ///
    /// # Errors
    /// Fails when `root` is missing from `nodes`, a child edge dangles,
    /// or the children edges do not form a tree rooted at `root`.
    pub fn from_parts(
        nodes: BTreeMap<BrokerId, OverlayNode>,
        root: BrokerId,
        stats: OverlayStats,
    ) -> Result<Overlay, OverlayError> {
        if !nodes.contains_key(&root) {
            return Err(OverlayError::Malformed(format!(
                "root {root} is not among the nodes"
            )));
        }
        let mut seen = std::collections::BTreeSet::new();
        let mut stack = vec![root];
        while let Some(b) = stack.pop() {
            if !seen.insert(b) {
                return Err(OverlayError::Malformed(format!(
                    "broker {b} is reached twice — not a tree"
                )));
            }
            match nodes.get(&b) {
                Some(node) => stack.extend(node.children.iter().copied()),
                None => {
                    return Err(OverlayError::Malformed(format!("dangling child {b}")));
                }
            }
        }
        if seen.len() != nodes.len() {
            return Err(OverlayError::Malformed(format!(
                "{} of {} nodes unreachable from the root",
                nodes.len() - seen.len(),
                nodes.len()
            )));
        }
        Ok(Overlay { nodes, root, stats })
    }

    /// The root broker, where publishers initially connect.
    pub fn root(&self) -> BrokerId {
        self.root
    }

    /// Looks up a node.
    pub fn node(&self, id: BrokerId) -> Option<&OverlayNode> {
        self.nodes.get(&id)
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &OverlayNode> {
        self.nodes.values()
    }

    /// Number of allocated brokers.
    pub fn broker_count(&self) -> usize {
        self.nodes.len()
    }

    /// Parent→child edges.
    pub fn edges(&self) -> impl Iterator<Item = (BrokerId, BrokerId)> + '_ {
        self.nodes
            .values()
            .flat_map(|n| n.children.iter().map(move |&c| (n.broker, c)))
    }

    /// The subscription-to-broker placement encoded in the leaves.
    pub fn subscription_homes(&self) -> BTreeMap<SubId, BrokerId> {
        let mut map = BTreeMap::new();
        for n in self.nodes.values() {
            for u in &n.units {
                for &s in &u.subs {
                    map.insert(s, n.broker);
                }
            }
        }
        map
    }

    /// Depth of the tree: 1 for a lone root (hop count upper bound for
    /// a publication entering at the root).
    pub fn depth(&self) -> usize {
        fn rec(o: &Overlay, b: BrokerId) -> usize {
            1 + o.nodes[&b]
                .children
                .iter()
                .map(|&c| rec(o, c))
                .max()
                .unwrap_or(0)
        }
        rec(self, self.root)
    }

    /// Largest number of children on any broker.
    pub fn max_fanout(&self) -> usize {
        self.nodes
            .values()
            .map(|n| n.children.len())
            .max()
            .unwrap_or(0)
    }

    /// Total output bandwidth responsibility across all brokers
    /// (bytes/s) — the planner's estimate of the system's forwarding
    /// work, before simulation confirms it.
    pub fn total_out_bandwidth(&self) -> f64 {
        self.nodes.values().map(|n| n.out_bw_used).sum()
    }

    /// Renders the overlay as a Graphviz DOT digraph (for
    /// documentation and debugging).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph overlay {\n  rankdir=TB;\n");
        for n in self.nodes.values() {
            let _ = writeln!(
                out,
                "  \"{}\" [label=\"{}\\n{} subs, {:.0} B/s\"{}];",
                n.broker,
                n.broker,
                n.local_sub_count(),
                n.out_bw_used,
                if n.broker == self.root {
                    ", shape=doublecircle"
                } else {
                    ""
                }
            );
        }
        for (a, b) in self.edges() {
            let _ = writeln!(out, "  \"{a}\" -> \"{b}\";");
        }
        out.push_str("}\n");
        out
    }

    /// Checks the tree invariant: every node reachable from the root
    /// exactly once.
    ///
    /// # Panics
    /// Panics when the overlay is not a tree.
    pub fn check_tree(&self) {
        let mut seen = std::collections::BTreeSet::new();
        let mut stack = vec![self.root];
        while let Some(b) = stack.pop() {
            assert!(seen.insert(b), "broker {b} reached twice");
            assert!(self.nodes.contains_key(&b), "dangling child {b}");
            if let Some(node) = self.nodes.get(&b) {
                stack.extend(node.children.iter().copied());
            }
        }
        assert_eq!(seen.len(), self.nodes.len(), "unreachable overlay nodes");
    }
}

impl fmt::Display for Overlay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(o: &Overlay, b: BrokerId, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let n = &o.nodes[&b];
            writeln!(
                f,
                "{}{} [{} subs, {:.0} B/s out]",
                "  ".repeat(depth),
                b,
                n.local_sub_count(),
                n.out_bw_used
            )?;
            for &c in &n.children {
                rec(o, c, depth + 1, f)?;
            }
            Ok(())
        }
        rec(self, self.root, 0, f)
    }
}

/// Synthetic sub-ids for virtual subscriptions encode the child broker.
const VIRT_BASE: u64 = 1 << 62;

fn virt_sub(b: BrokerId) -> SubId {
    SubId::new(VIRT_BASE + b.raw())
}

fn virt_broker(s: SubId) -> Option<BrokerId> {
    (s.raw() >= VIRT_BASE).then(|| BrokerId::new(s.raw() - VIRT_BASE))
}

/// Errors from overlay construction.
#[derive(Debug, Clone, PartialEq)]
pub enum OverlayError {
    /// A layer allocation failed outright.
    Alloc(AllocError),
    /// The Phase-2 allocation was empty (nothing to connect).
    EmptyAllocation,
    /// Externally supplied parts do not form a tree (checkpoint
    /// restore).
    Malformed(String),
}

impl fmt::Display for OverlayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OverlayError::Alloc(e) => write!(f, "layer allocation failed: {e}"),
            OverlayError::EmptyAllocation => f.write_str("no brokers were allocated"),
            OverlayError::Malformed(why) => write!(f, "malformed overlay: {why}"),
        }
    }
}

impl std::error::Error for OverlayError {}

impl From<AllocError> for OverlayError {
    fn from(e: AllocError) -> Self {
        OverlayError::Alloc(e)
    }
}

/// Builds the overlay tree above a Phase-2 allocation.
///
/// # Errors
/// Fails when the leaf allocation is empty or a layer allocation fails
/// with no fallback.
pub fn build_overlay(
    input: &AllocationInput,
    leaf: &Allocation,
    config: &OverlayConfig,
) -> Result<Overlay, OverlayError> {
    build_overlay_cancellable(input, leaf, config, &CancelToken::never())
}

/// [`build_overlay`] with a cancellation token: the leaf scan and the
/// per-layer construction loop poll it, and each layer's allocator run
/// polls it internally. A tripped token surfaces as
/// [`OverlayError::Alloc`] of [`AllocError::Cancelled`] — unlike an
/// infeasible layer allocation, it does *not* fall back to the forced
/// root (a cancelled overlay must not silently degrade).
///
/// # Errors
/// As [`build_overlay`], plus the cancellation case above.
pub(crate) fn build_overlay_cancellable(
    input: &AllocationInput,
    leaf: &Allocation,
    config: &OverlayConfig,
    cancel: &CancelToken,
) -> Result<Overlay, OverlayError> {
    if leaf.loads.is_empty() {
        return Err(OverlayError::EmptyAllocation);
    }
    let mut stats = OverlayStats::default();
    let mut nodes: BTreeMap<BrokerId, OverlayNode> = BTreeMap::new();
    let specs: BTreeMap<BrokerId, &BrokerSpec> = input.brokers.iter().map(|b| (b.id, b)).collect();

    // Leaf layer from the Phase-2 allocation.
    let mut layer: Vec<BrokerId> = Vec::new();
    for load in &leaf.loads {
        if cancel.is_cancelled_hot() {
            return Err(OverlayError::Alloc(AllocError::Cancelled));
        }
        nodes.insert(
            load.broker,
            OverlayNode {
                broker: load.broker,
                children: Vec::new(),
                units: load.units.clone(),
                profile: load.union_profile.clone(),
                in_bandwidth: load.in_bandwidth,
                in_rate: load.in_rate,
                out_bw_used: load.out_bw_used,
                route_entries: load.sub_count(),
            },
        );
        layer.push(load.broker);
    }
    stats.layers = 1;

    // Remaining pool: brokers not yet part of the tree.
    let mut pool: Vec<BrokerSpec> = input
        .brokers
        .iter()
        .filter(|b| !nodes.contains_key(&b.id))
        .cloned()
        .collect();

    while layer.len() > 1 {
        if cancel.is_cancelled_hot() {
            return Err(OverlayError::Alloc(AllocError::Cancelled));
        }
        // Virtual subscriptions: one per layer node, bandwidth = the
        // node's input bandwidth.
        let units: Vec<Unit> = layer
            .iter()
            .map(|&b| {
                let n = &nodes[&b];
                Unit {
                    subs: vec![virt_sub(b)],
                    profile: n.profile.clone(),
                    out_bandwidth: n.in_bandwidth,
                }
            })
            .collect();

        let alloc = if pool.is_empty() {
            None
        } else {
            match config
                .allocator
                .allocate_units(&pool, &input.publishers, units, cancel)
            {
                Ok(a) => Some(a),
                // Cancellation aborts the overlay; any other failure
                // falls back to the forced root below.
                Err(AllocError::Cancelled) => {
                    return Err(OverlayError::Alloc(AllocError::Cancelled))
                }
                Err(_) => None,
            }
        };

        let alloc = match alloc {
            Some(a) if a.broker_count() < layer.len() => a,
            _ => {
                // Allocation failed or did not shrink the layer: close
                // the overlay with a single forced root.
                force_root(
                    &mut nodes,
                    &mut layer,
                    &specs,
                    &input.publishers,
                    &mut stats,
                );
                break;
            }
        };

        // Materialize parents.
        let mut next_layer: Vec<BrokerId> = Vec::new();
        for load in &alloc.loads {
            // CRAM may have merged several virtual subscriptions into
            // one unit — every synthetic sub id maps back to a child.
            let children: Vec<BrokerId> = load
                .units
                .iter()
                .flat_map(|u| u.subs.iter().copied().filter_map(virt_broker))
                .collect();
            if config.eliminate_pure_forwarders && children.len() == 1 {
                // Optimization 1: the would-be parent only forwards to a
                // single child — promote the child instead.
                stats.pure_forwarders_removed += 1;
                next_layer.push(children[0]);
                continue;
            }
            pool.retain(|b| b.id != load.broker);
            let input_load = load.union_profile.estimate_load(&input.publishers);
            nodes.insert(
                load.broker,
                OverlayNode {
                    broker: load.broker,
                    children,
                    units: Vec::new(),
                    profile: load.union_profile.clone(),
                    in_bandwidth: input_load.bandwidth,
                    in_rate: input_load.rate,
                    out_bw_used: load.out_bw_used,
                    route_entries: load.units.len(),
                },
            );
            next_layer.push(load.broker);
        }
        stats.layers += 1;

        if config.takeover_children {
            takeover_children(&mut nodes, &next_layer, &specs, &mut pool, &mut stats);
        }
        if config.best_fit_replacement {
            best_fit_swap(&mut nodes, &mut next_layer, &specs, &mut pool, &mut stats);
        }
        layer = next_layer;
    }

    let root = layer[0];
    let overlay = Overlay { nodes, root, stats };
    overlay.check_tree();
    Ok(overlay)
}

/// Fallback when a layer cannot shrink: promote the most capable node of
/// the current layer to root and attach the rest beneath it.
fn force_root(
    nodes: &mut BTreeMap<BrokerId, OverlayNode>,
    layer: &mut Vec<BrokerId>,
    specs: &BTreeMap<BrokerId, &BrokerSpec>,
    publishers: &PublisherTable,
    stats: &mut OverlayStats,
) {
    stats.forced_root = true;
    // An empty layer has nothing to promote; build() never passes one.
    let Some(&root) = layer.iter().max_by(|a, b| {
        let ca = specs[a].out_bandwidth - nodes[a].out_bw_used;
        let cb = specs[b].out_bandwidth - nodes[b].out_bw_used;
        ca.total_cmp(&cb)
    }) else {
        return;
    };
    let children: Vec<BrokerId> = layer.iter().copied().filter(|&b| b != root).collect();
    let mut profile = nodes[&root].profile.clone();
    let mut extra_bw = 0.0;
    for &c in &children {
        profile.or_assign(&nodes[&c].profile.clone());
        extra_bw += nodes[&c].in_bandwidth;
    }
    let input_load = profile.estimate_load(publishers);
    // The root was just drawn from `layer`, whose ids all live in `nodes`.
    if let Some(node) = nodes.get_mut(&root) {
        node.children.extend(children.iter().copied());
        node.profile = profile;
        node.in_bandwidth = input_load.bandwidth;
        node.in_rate = input_load.rate;
        node.out_bw_used += extra_bw;
        node.route_entries += children.len();
    }
    layer.clear();
    layer.push(root);
}

/// Optimization 2: each parent absorbs children it can serve directly,
/// in order of least-to-highest child utilization.
fn takeover_children(
    nodes: &mut BTreeMap<BrokerId, OverlayNode>,
    layer: &[BrokerId],
    specs: &BTreeMap<BrokerId, &BrokerSpec>,
    pool: &mut Vec<BrokerSpec>,
    stats: &mut OverlayStats,
) {
    for &p in layer {
        loop {
            let parent = &nodes[&p];
            let spec = specs[&p];
            // Least-utilized child first.
            let mut kids: Vec<BrokerId> = parent.children.clone();
            kids.sort_by(|a, b| nodes[a].out_bw_used.total_cmp(&nodes[b].out_bw_used));
            let mut absorbed = None;
            for c in kids {
                let child = &nodes[&c];
                let new_out = parent.out_bw_used - child.in_bandwidth + child.out_bw_used;
                let new_entries = parent.route_entries - 1 + child.route_entries;
                let rate_ok = parent.in_rate <= spec.matching_delay.max_rate(new_entries);
                if new_out < spec.out_bandwidth && rate_ok {
                    absorbed = Some((c, new_out));
                    break;
                }
            }
            let Some((c, new_out)) = absorbed else { break };
            // Both ids were read from `nodes` while picking `absorbed`.
            let Some(child) = nodes.remove(&c) else { break };
            let Some(parent) = nodes.get_mut(&p) else {
                break;
            };
            parent.children.retain(|&x| x != c);
            parent.children.extend(child.children.iter().copied());
            parent.units.extend(child.units);
            parent.out_bw_used = new_out;
            parent.route_entries = parent.route_entries - 1 + child.route_entries;
            // Interest profile unchanged: the parent already forwarded
            // everything the child's subtree wanted.
            pool.push(specs[&c].clone());
            stats.takeovers += 1;
        }
    }
}

/// Optimization 3: replace allocated brokers with best-fitting pool
/// brokers (smallest capacity that still satisfies the load).
fn best_fit_swap(
    nodes: &mut BTreeMap<BrokerId, OverlayNode>,
    layer: &mut [BrokerId],
    specs: &BTreeMap<BrokerId, &BrokerSpec>,
    pool: &mut Vec<BrokerSpec>,
    stats: &mut OverlayStats,
) {
    for slot in layer.iter_mut() {
        let b = *slot;
        let Some(node) = nodes.get(&b) else { continue };
        let current_cap = specs[&b].out_bandwidth;
        // Smallest pool broker that still fits.
        let candidate = pool
            .iter()
            .filter(|s| {
                s.out_bandwidth > node.out_bw_used
                    && s.out_bandwidth < current_cap
                    && node.in_rate <= s.matching_delay.max_rate(node.route_entries)
            })
            .min_by(|a, c| a.out_bandwidth.total_cmp(&c.out_bandwidth))
            .map(|s| s.id);
        let Some(new_id) = candidate else { continue };
        // Swap: the new broker takes over the node; the old broker
        // returns to the pool. `b` was confirmed present above.
        let Some(mut node) = nodes.remove(&b) else {
            continue;
        };
        node.broker = new_id;
        nodes.insert(new_id, node);
        pool.retain(|s| s.id != new_id);
        pool.push(specs[&b].clone());
        *slot = new_id;
        stats.best_fit_swaps += 1;
    }
}

/// Used by `LinearFn` in doc headers; re-export for convenience.
pub use crate::model::LinearFn as MatchingDelay;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinearFn, SubscriptionEntry};
    use crate::sorting::bin_packing;
    use greenps_profile::{PublisherProfile, ShiftingBitVector};
    use greenps_pubsub::ids::{AdvId, MsgId};
    use greenps_pubsub::Filter;

    fn publishers() -> PublisherTable {
        [
            PublisherProfile::new(AdvId::new(1), 50.0, 50_000.0, MsgId::new(99)),
            PublisherProfile::new(AdvId::new(2), 50.0, 50_000.0, MsgId::new(99)),
        ]
        .into_iter()
        .collect()
    }

    fn entry(id: u64, adv: u64, ids: &[u64]) -> SubscriptionEntry {
        let mut v = ShiftingBitVector::starting_at(100, 0);
        for &x in ids {
            v.record(x);
        }
        let mut p = SubscriptionProfile::with_capacity(100);
        p.insert_vector(AdvId::new(adv), v);
        SubscriptionEntry::new(SubId::new(id), Filter::new(), p)
    }

    /// 2 interest groups × heavy subscriptions on small brokers →
    /// several leaves; big brokers above them.
    fn scenario() -> AllocationInput {
        let mut subscriptions = Vec::new();
        for i in 0..8 {
            subscriptions.push(entry(i, 1 + (i % 2), &(0..40).collect::<Vec<_>>()));
        }
        let brokers = (0..12)
            .map(|i| {
                BrokerSpec::new(
                    BrokerId::new(i),
                    format!("b{i}"),
                    LinearFn::new(0.0001, 0.0),
                    60_000.0,
                )
            })
            .collect();
        AllocationInput {
            brokers,
            subscriptions,
            publishers: publishers(),
        }
    }

    fn cancelled(got: Result<Overlay, OverlayError>) -> bool {
        matches!(got, Err(OverlayError::Alloc(AllocError::Cancelled)))
    }

    /// The leaf scan polls once per leaf: with one leaf there is no
    /// level to build, so only that poll can stop the run.
    #[test]
    fn leaf_scan_polls_the_cancel_token() {
        let mut input = scenario();
        input.subscriptions.truncate(1);
        let leaf = bin_packing(&input).unwrap();
        assert_eq!(leaf.broker_count(), 1);
        let cfg = OverlayConfig::new(AllocatorKind::BinPacking);
        let token = CancelToken::tripping_at(1);
        assert!(cancelled(build_overlay_cancellable(
            &input, &leaf, &cfg, &token
        )));
    }

    /// The level loop polls once per level, also when the pool is
    /// exhausted and no allocator runs: a token that trips on the poll
    /// after the leaf scan must not yield a forced-root overlay.
    #[test]
    fn level_loop_polls_the_cancel_token() {
        let mut input = scenario();
        let leaf = bin_packing(&input).unwrap();
        assert!(leaf.broker_count() > 1);
        input
            .brokers
            .retain(|b| leaf.loads.iter().any(|l| l.broker == b.id));
        let cfg = OverlayConfig::new(AllocatorKind::BinPacking);
        let after_leaves = leaf.loads.len() as u64 + 1;
        assert!(build_overlay(&input, &leaf, &cfg).is_ok());
        let token = CancelToken::tripping_at(after_leaves);
        assert!(cancelled(build_overlay_cancellable(
            &input, &leaf, &cfg, &token
        )));
    }

    #[test]
    fn builds_a_tree_over_binpacking_leaves() {
        let input = scenario();
        let leaf = bin_packing(&input).unwrap();
        assert!(leaf.broker_count() > 1, "need multiple leaves");
        let overlay = build_overlay(
            &input,
            &leaf,
            &OverlayConfig::new(AllocatorKind::BinPacking),
        )
        .unwrap();
        overlay.check_tree();
        assert!(overlay.broker_count() >= leaf.broker_count());
        // Every subscription still has a home.
        assert_eq!(overlay.subscription_homes().len(), 8);
        // Root reaches everything.
        let edge_count = overlay.edges().count();
        assert_eq!(edge_count, overlay.broker_count() - 1, "tree edge count");
    }

    #[test]
    fn single_leaf_is_its_own_root() {
        let mut input = scenario();
        input.subscriptions.truncate(1);
        let leaf = bin_packing(&input).unwrap();
        assert_eq!(leaf.broker_count(), 1);
        let overlay = build_overlay(
            &input,
            &leaf,
            &OverlayConfig::new(AllocatorKind::BinPacking),
        )
        .unwrap();
        assert_eq!(overlay.broker_count(), 1);
        assert_eq!(overlay.root(), leaf.loads[0].broker);
        assert_eq!(overlay.stats.layers, 1);
    }

    #[test]
    fn empty_allocation_is_an_error() {
        let input = scenario();
        let empty = Allocation::default();
        assert!(matches!(
            build_overlay(
                &input,
                &empty,
                &OverlayConfig::new(AllocatorKind::BinPacking)
            ),
            Err(OverlayError::EmptyAllocation)
        ));
    }

    #[test]
    fn pure_forwarder_elimination_reduces_brokers() {
        let input = scenario();
        let leaf = bin_packing(&input).unwrap();
        let with = build_overlay(
            &input,
            &leaf,
            &OverlayConfig::new(AllocatorKind::BinPacking),
        )
        .unwrap();
        let mut cfg = OverlayConfig::new(AllocatorKind::BinPacking);
        cfg.eliminate_pure_forwarders = false;
        cfg.takeover_children = false;
        cfg.best_fit_replacement = false;
        let without = build_overlay(&input, &leaf, &cfg).unwrap();
        assert!(
            with.broker_count() <= without.broker_count(),
            "opts should not increase broker count: {} vs {}",
            with.broker_count(),
            without.broker_count()
        );
    }

    #[test]
    fn forced_root_when_pool_exhausted() {
        // Exactly as many brokers as the leaves need: no pool remains
        // for upper layers, so a leaf is promoted to root.
        let mut input = scenario();
        let leaf = bin_packing(&input).unwrap();
        let used: Vec<BrokerId> = leaf.broker_ids().collect();
        input.brokers.retain(|b| used.contains(&b.id));
        let overlay = build_overlay(
            &input,
            &leaf,
            &OverlayConfig::new(AllocatorKind::BinPacking),
        )
        .unwrap();
        assert!(overlay.stats.forced_root);
        overlay.check_tree();
        assert_eq!(overlay.broker_count(), leaf.broker_count());
    }

    #[test]
    fn cram_driven_overlay_works() {
        let input = scenario();
        let (leaf, _) = CramBuilder::from_config(CramConfig::default())
            .run(&input)
            .unwrap();
        let overlay = build_overlay(
            &input,
            &leaf,
            &OverlayConfig::new(AllocatorKind::Cram(CramConfig::default())),
        )
        .unwrap();
        overlay.check_tree();
        assert_eq!(overlay.subscription_homes().len(), 8);
    }

    #[test]
    fn fbf_driven_overlay_works() {
        let input = scenario();
        let leaf = crate::sorting::fbf(&input, 3).unwrap();
        let overlay = build_overlay(
            &input,
            &leaf,
            &OverlayConfig::new(AllocatorKind::Fbf { seed: 3 }),
        )
        .unwrap();
        overlay.check_tree();
    }

    #[test]
    fn display_prints_indented_tree() {
        let input = scenario();
        let leaf = bin_packing(&input).unwrap();
        let overlay = build_overlay(
            &input,
            &leaf,
            &OverlayConfig::new(AllocatorKind::BinPacking),
        )
        .unwrap();
        let s = overlay.to_string();
        assert!(s.contains("subs"));
        assert!(s.lines().count() == overlay.broker_count());
    }

    #[test]
    fn depth_and_fanout_accessors() {
        let input = scenario();
        let leaf = bin_packing(&input).unwrap();
        let overlay = build_overlay(
            &input,
            &leaf,
            &OverlayConfig::new(AllocatorKind::BinPacking),
        )
        .unwrap();
        let depth = overlay.depth();
        assert!(depth >= 1 && depth <= overlay.broker_count());
        assert!(overlay.max_fanout() < overlay.broker_count().max(2));
        assert!(overlay.total_out_bandwidth() > 0.0);
    }

    #[test]
    fn dot_export_contains_all_nodes_and_edges() {
        let input = scenario();
        let leaf = bin_packing(&input).unwrap();
        let overlay = build_overlay(
            &input,
            &leaf,
            &OverlayConfig::new(AllocatorKind::BinPacking),
        )
        .unwrap();
        let dot = overlay.to_dot();
        assert!(dot.starts_with("digraph overlay {"));
        assert!(dot.contains("doublecircle"), "root highlighted");
        assert_eq!(
            dot.matches(" -> ").count(),
            overlay.broker_count() - 1,
            "one edge per child"
        );
    }

    #[test]
    fn virt_sub_round_trip() {
        let b = BrokerId::new(42);
        assert_eq!(virt_broker(virt_sub(b)), Some(b));
        assert_eq!(virt_broker(SubId::new(42)), None);
    }
}
