//! Configuration-path generation (§VI "Config. Path Generation").
//!
//! The spatial architecture is configured by routing bitstream words along
//! one or more *configuration paths* that together cover every configurable
//! node; configuration time is dominated by the longest path. The paper's
//! approach — reproduced here — first grows multiple initial paths with a
//! spanning-tree-like pass, then iteratively cuts a node from the longest
//! path and reattaches it to a nearby shorter path until the maximum length
//! converges.
//!
//! Each call works over a dense view built once: CSR undirected adjacency
//! over the configurable nodes and node-indexed tables, with one reusable
//! breadth-first-search scratch (`Bfs`) serving every search. The
//! `HashMap` generator it replaced is kept as the `#[cfg(test)]` oracle
//! `reference`, and the unit tests assert path-for-path equality with it.
//!
//! The walker is written panic-free: every structural assumption that used
//! to be an `expect()` is now either locally impossible by construction
//! (and degrades to a safe fallback) or reported through
//! [`ConfigPathError`] by [`try_generate_config_paths`].

use std::fmt;

use dsagen_adg::{Adg, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A set of configuration paths over an ADG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigPaths {
    /// Each path is a walk over adjacent nodes; nodes it *covers* (owns for
    /// configuration) may be fewer than its length when it passes through
    /// nodes another path covers.
    pub paths: Vec<Vec<NodeId>>,
}

impl ConfigPaths {
    /// Length (in hops/words) of the longest path — the configuration
    /// latency.
    #[must_use]
    pub fn longest(&self) -> usize {
        self.paths.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The ideal longest-path bound `⌈n/p⌉` for `n` nodes and `p` paths
    /// (§VIII-B: "for a network with n nodes, p paths, the longest path
    /// cannot be shorter than ⌈n/p⌉").
    #[must_use]
    pub fn ideal(nodes: usize, paths: usize) -> usize {
        nodes.div_ceil(paths.max(1))
    }

    /// Every covered node, across all paths (deduplicated).
    #[must_use]
    pub fn covered(&self) -> Vec<NodeId> {
        let mut all: Vec<NodeId> = self.paths.iter().flatten().copied().collect();
        all.sort();
        all.dedup();
        all
    }
}

/// Typed failure of configuration-path generation.
///
/// Only the strict entry point ([`try_generate_config_paths`]) surfaces
/// these; the lenient [`generate_config_paths`] degrades gracefully
/// instead (empty path set, or disconnected nodes appended off-walk).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigPathError {
    /// The ADG has no configurable nodes at all — nothing to cover.
    NoConfigurableNodes,
    /// A configurable node cannot be reached through the configurable
    /// subgraph: the walker had to teleport to place it, so the delivery
    /// network cannot actually program it.
    DisconnectedNode {
        /// The unreachable node.
        node: NodeId,
    },
}

impl fmt::Display for ConfigPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoConfigurableNodes => {
                write!(f, "config-path: ADG has no configurable nodes")
            }
            Self::DisconnectedNode { node } => write!(
                f,
                "config-path: node {node} is unreachable through the configurable subgraph"
            ),
        }
    }
}

impl std::error::Error for ConfigPathError {}

/// Hop distance of a node the last search did not reach.
const UNREACHED: u32 = u32::MAX;

/// Undirected adjacency over the configurable nodes of an ADG in CSR
/// form, indexed by [`NodeId::index`]: each list ascending and
/// deduplicated, a self-link listed once.
struct Fabric {
    /// The configurable nodes, ascending.
    nodes: Vec<NodeId>,
    /// `neighbors[offsets[i]..offsets[i + 1]]` are node slot `i`'s
    /// neighbours; empty for slots that are dead or not configurable.
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
}

impl Fabric {
    fn of(adg: &Adg) -> Self {
        let slots = adg.node_slots();
        let mut configurable = vec![false; slots];
        for node in adg.nodes() {
            if let Some(c) = configurable.get_mut(node.id().index()) {
                *c = node.kind.is_configurable();
            }
        }
        let nodes: Vec<NodeId> = (0..slots)
            .filter(|&i| configurable[i])
            .map(NodeId::from_index)
            .collect();
        let is_configurable = |id: NodeId| configurable.get(id.index()).copied().unwrap_or(false);
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for edge in adg.edges() {
            if is_configurable(edge.src) && is_configurable(edge.dst) {
                let (src, dst) = (edge.src.index() as u32, edge.dst.index() as u32);
                pairs.extend([(src, dst), (dst, src)]);
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut offsets = Vec::with_capacity(slots + 1);
        offsets.push(0);
        let mut at = 0;
        for slot in 0..slots {
            at += pairs[at..]
                .iter()
                .take_while(|&&(src, _)| src as usize == slot)
                .count();
            offsets.push(at);
        }
        Self {
            nodes,
            offsets,
            neighbors: pairs.into_iter().map(|(_, dst)| dst).collect(),
        }
    }

    /// Node slots the tables are sized for.
    fn slots(&self) -> usize {
        self.offsets.len() - 1
    }

    fn neighbors(&self, slot: usize) -> &[u32] {
        &self.neighbors[self.offsets[slot]..self.offsets[slot + 1]]
    }
}

/// The one breadth-first-search scratch a generator call reuses: hop
/// distances and predecessors per node slot, and a FIFO queue that also
/// records every slot the last search touched, so the next search resets
/// only those.
///
/// A search expands nodes in FIFO order and neighbours ascending, and a
/// node's predecessor is its first discoverer. Stopping early therefore
/// never changes the distance or predecessor of a node already
/// discovered: every node on its predecessor chain was discovered before
/// it, by the same steps a full search takes.
struct Bfs {
    dist: Vec<u32>,
    pred: Vec<u32>,
    queue: Vec<u32>,
    /// Reversed-walk buffer for [`Bfs::extend_walk`].
    trail: Vec<NodeId>,
}

impl Bfs {
    fn new(slots: usize) -> Self {
        Self {
            dist: vec![UNREACHED; slots],
            pred: vec![0; slots],
            queue: Vec::with_capacity(slots),
            trail: Vec::new(),
        }
    }

    /// Searches from `root`. With a target predicate, stops once every
    /// node as near as the nearest target has been discovered: all
    /// targets at that distance then carry their full-search distance and
    /// predecessor, and nothing nearer exists. With `|_| false` the search
    /// is complete.
    fn search(&mut self, fabric: &Fabric, root: usize, is_target: impl Fn(usize) -> bool) {
        for &n in &self.queue {
            self.dist[n as usize] = UNREACHED;
        }
        self.queue.clear();
        self.dist[root] = 0;
        self.pred[root] = root as u32;
        self.queue.push(root as u32);
        let mut horizon = if is_target(root) { 0 } else { UNREACHED };
        let mut head = 0;
        while let Some(&n) = self.queue.get(head) {
            head += 1;
            let d = self.dist[n as usize];
            if d >= horizon {
                break;
            }
            for &m in fabric.neighbors(n as usize) {
                let m_slot = m as usize;
                if self.dist[m_slot] == UNREACHED {
                    self.dist[m_slot] = d + 1;
                    self.pred[m_slot] = n;
                    self.queue.push(m);
                    if horizon == UNREACHED && is_target(m_slot) {
                        horizon = d + 1;
                    }
                }
            }
        }
    }

    /// Hop distance from the last root to `slot`, [`UNREACHED`] if the
    /// last search did not reach it.
    fn dist(&self, slot: usize) -> u32 {
        self.dist[slot]
    }

    /// Appends the shortest walk from the last root to `to`, excluding
    /// the root itself, to `path`. Returns `false`, leaving `path`
    /// untouched, when the last search did not reach `to`.
    fn extend_walk(&mut self, to: usize, path: &mut Vec<NodeId>) -> bool {
        let hops = self.dist[to];
        if hops == UNREACHED {
            return false;
        }
        self.trail.clear();
        let mut cur = to;
        for _ in 0..hops {
            self.trail.push(NodeId::from_index(cur));
            cur = self.pred[cur] as usize;
        }
        path.extend(self.trail.iter().rev());
        true
    }
}

/// Generates `p` configuration paths covering every configurable node.
///
/// Deterministic for a given `seed`. Lenient: an ADG with no configurable
/// nodes yields an empty path set, and nodes disconnected from the
/// configurable subgraph are still placed (appended off-walk) so coverage
/// is total. Use [`try_generate_config_paths`] to surface those conditions
/// as typed errors instead.
#[must_use]
pub fn generate_config_paths(adg: &Adg, p: usize, seed: u64) -> ConfigPaths {
    generate_with_report(adg, p, seed).0
}

/// Strict variant of [`generate_config_paths`]: identical paths on
/// success, but an ADG without configurable nodes or with a configurable
/// node unreachable through the configurable subgraph is a typed
/// [`ConfigPathError`] instead of a silent degradation.
pub fn try_generate_config_paths(
    adg: &Adg,
    p: usize,
    seed: u64,
) -> Result<ConfigPaths, ConfigPathError> {
    let (paths, disconnected) = generate_with_report(adg, p, seed);
    if paths.paths.is_empty() {
        return Err(ConfigPathError::NoConfigurableNodes);
    }
    if let Some(&node) = disconnected.first() {
        return Err(ConfigPathError::DisconnectedNode { node });
    }
    Ok(paths)
}

/// Shared generator: returns the paths plus every node that had to be
/// placed without a connecting walk (disconnected from the configurable
/// subgraph).
fn generate_with_report(adg: &Adg, p: usize, seed: u64) -> (ConfigPaths, Vec<NodeId>) {
    let fabric = Fabric::of(adg);
    let nodes = &fabric.nodes;
    let Some(&first_node) = nodes.first() else {
        return (ConfigPaths { paths: Vec::new() }, Vec::new());
    };
    let p = p.clamp(1, nodes.len());
    let slots = fabric.slots();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut disconnected: Vec<NodeId> = Vec::new();
    let mut bfs = Bfs::new(slots);

    // --- seeds: spread by farthest-point heuristic; cluster: each node
    // joins its nearest seed ("spanning-tree like"). One search per seed
    // serves both. `spread` is the least distance to any seed searched so
    // far (0 when one cannot reach the node); `owner` is the nearest seed
    // so far, earliest seed on ties.
    let mut seeds = vec![first_node];
    let mut is_seed = vec![false; slots];
    is_seed[first_node.index()] = true;
    let mut spread = vec![UNREACHED; slots];
    let mut owner = vec![(UNREACHED, 0usize); slots];
    let mut searched = 0;
    while let Some(&seed_node) = seeds.get(searched) {
        bfs.search(&fabric, seed_node.index(), |_| false);
        for n in nodes {
            let d = bfs.dist(n.index());
            let s = &mut spread[n.index()];
            *s = (*s).min(if d == UNREACHED { 0 } else { d });
            let o = &mut owner[n.index()];
            if d < o.0 {
                *o = (d, searched);
            }
        }
        searched += 1;
        if seeds.len() >= p {
            continue;
        }
        let mut best = None;
        let mut best_d = 0u32;
        for n in nodes {
            if is_seed[n.index()] {
                continue;
            }
            let d = spread[n.index()];
            if d >= best_d {
                best_d = d;
                best = Some(*n);
            }
        }
        if let Some(n) = best {
            seeds.push(n);
            is_seed[n.index()] = true;
        }
    }
    let mut clusters: Vec<Vec<NodeId>> = vec![Vec::new(); seeds.len()];
    for n in nodes {
        if let Some(cluster) = clusters.get_mut(owner[n.index()].1) {
            cluster.push(*n);
        }
    }

    // --- route each cluster with a nearest-neighbor walk (revisits allowed
    // through shortest connecting walks).
    let mut pending = vec![false; slots];
    let mut paths: Vec<Vec<NodeId>> = clusters
        .iter()
        .map(|cluster| {
            walk_cluster(
                &fabric,
                &mut bfs,
                &mut pending,
                cluster,
                &mut rng,
                &mut disconnected,
            )
        })
        .collect();

    // Coverage counts, kept in step with every edit of `paths` below.
    let mut count = vec![0u32; slots];
    for n in paths.iter().flatten() {
        count[n.index()] += 1;
    }
    prune(&mut paths, &mut count);

    // --- improvement: cut a node from the longest path, attach it to a
    // nearby shorter path (§VI), until converged.
    for _ in 0..4 * nodes.len() {
        prune(&mut paths, &mut count);
        let longest = match paths.iter().enumerate().max_by_key(|(_, path)| path.len()) {
            Some((i, path)) if path.len() > 1 => i,
            _ => break,
        };
        let before = paths[longest].len();
        // Candidate node to cut: an endpoint of the longest path that is
        // not a pass-through for coverage.
        let Some(&victim) = paths[longest].last() else {
            break;
        };
        // Find the shorter path with the cheapest attachment. Hop distance
        // is symmetric, so one search from the victim gives every
        // candidate tail's distance to it.
        bfs.search(&fabric, victim.index(), |_| false);
        let mut best: Option<(usize, usize)> = None; // (path, new length)
        for (pi, path) in paths.iter().enumerate() {
            if pi == longest || path.len() + 1 >= before {
                continue;
            }
            let Some(&tail) = path.last() else { continue };
            let d = bfs.dist(tail.index());
            if d != UNREACHED {
                let new_len = path.len() + d as usize;
                if new_len < before && best.is_none_or(|(_, l)| new_len < l) {
                    best = Some((pi, new_len));
                }
            }
        }
        let Some((target, _)) = best else { break };
        // Commit: remove the victim from the longest path (and any trailing
        // pass-through nodes that were only there to reach it), append the
        // connecting walk to the target path.
        paths[longest].pop();
        count[victim.index()] -= 1;
        let Some(&tail) = paths[target].last() else {
            break;
        };
        bfs.search(&fabric, tail.index(), |m| m == victim.index());
        let from = paths[target].len();
        if !bfs.extend_walk(victim.index(), &mut paths[target]) {
            // The attachment was validated a moment ago; if it vanished,
            // restore the victim and stop improving rather than panic.
            paths[longest].push(victim);
            count[victim.index()] += 1;
            break;
        }
        for n in &paths[target][from..] {
            count[n.index()] += 1;
        }
    }

    // Safety: guarantee coverage (anything lost re-appends to the shortest
    // path).
    let lost: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|n| count[n.index()] == 0)
        .collect();
    for n in lost {
        let Some(shortest) = paths.iter_mut().min_by_key(|p| p.len()) else {
            break; // p >= 1 paths by construction
        };
        match shortest.last().copied() {
            Some(tail) => {
                bfs.search(&fabric, tail.index(), |m| m == n.index());
                if !bfs.extend_walk(n.index(), shortest) {
                    disconnected.push(n);
                    shortest.push(n);
                }
            }
            None => shortest.push(n),
        }
    }

    disconnected.sort();
    disconnected.dedup();
    (ConfigPaths { paths }, disconnected)
}

/// Removes redundant path endpoints: a trailing or leading node that is
/// already covered elsewhere (another path, or earlier in the same path)
/// adds length without adding coverage. `count` holds every node's
/// coverage count and is kept in step.
fn prune(paths: &mut [Vec<NodeId>], count: &mut [u32]) {
    for p in paths.iter_mut() {
        loop {
            let mut trimmed = false;
            if p.len() > 1 {
                if let Some(&last) = p.last() {
                    if count[last.index()] > 1 {
                        p.pop();
                        count[last.index()] -= 1;
                        trimmed = true;
                    }
                }
            }
            if p.len() > 1 {
                let first = p[0];
                if count[first.index()] > 1 {
                    p.remove(0);
                    count[first.index()] -= 1;
                    trimmed = true;
                }
            }
            if !trimmed {
                break;
            }
        }
    }
}

/// Nearest-neighbor walk covering every node of `cluster`. Nodes that
/// cannot be reached through the configurable subgraph are still placed
/// (appended off-walk) and recorded in `disconnected`. `pending` marks
/// the cluster nodes not yet on the walk; it is all `false` on entry and
/// on return.
fn walk_cluster(
    fabric: &Fabric,
    bfs: &mut Bfs,
    pending: &mut [bool],
    cluster: &[NodeId],
    rng: &mut StdRng,
    disconnected: &mut Vec<NodeId>,
) -> Vec<NodeId> {
    if cluster.is_empty() {
        return Vec::new();
    }
    let mut remaining: Vec<NodeId> = cluster.to_vec();
    remaining.shuffle(rng);
    let Some(start) = remaining.pop() else {
        return Vec::new();
    };
    for n in &remaining {
        pending[n.index()] = true;
    }
    let mut path = vec![start];
    while !remaining.is_empty() {
        let Some(&cur) = path.last() else { break };
        // One search from the head finds the nearest remaining node and
        // the walk to it.
        bfs.search(fabric, cur.index(), |m| pending[m]);
        // Nearest remaining node: the first in `remaining` order at the
        // least distance.
        let mut nearest = (0, UNREACHED);
        for (i, n) in remaining.iter().enumerate() {
            let d = bfs.dist(n.index());
            if d < nearest.1 {
                nearest = (i, d);
            }
        }
        let next = remaining.swap_remove(nearest.0);
        let from = path.len();
        if !bfs.extend_walk(next.index(), &mut path) {
            // Disconnected; charged but placed.
            disconnected.push(next);
            path.push(next);
        }
        // Anything passed through is covered for free.
        for n in &path[from..] {
            pending[n.index()] = false;
        }
        remaining.retain(|n| pending[n.index()]);
    }
    for n in &remaining {
        pending[n.index()] = false;
    }
    path
}

/// The generator as it was before the dense rewrite, kept verbatim as the
/// oracle the dense one must match path for path.
#[cfg(test)]
mod reference {
    use std::collections::{HashMap, VecDeque};

    use dsagen_adg::{Adg, NodeId};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    use super::ConfigPaths;

    /// Undirected adjacency over the configurable nodes of `adg`.
    pub(super) fn adjacency(adg: &Adg) -> HashMap<NodeId, Vec<NodeId>> {
        let mut adj: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        let configurable = |id: NodeId| adg.kind(id).map(|k| k.is_configurable()).unwrap_or(false);
        for node in adg.nodes() {
            if configurable(node.id()) {
                adj.entry(node.id()).or_default();
            }
        }
        for edge in adg.edges() {
            if configurable(edge.src) && configurable(edge.dst) {
                adj.entry(edge.src).or_default().push(edge.dst);
                adj.entry(edge.dst).or_default().push(edge.src);
            }
        }
        for list in adj.values_mut() {
            list.sort();
            list.dedup();
        }
        adj
    }

    /// BFS distances within the configurable subgraph.
    fn bfs(adj: &HashMap<NodeId, Vec<NodeId>>, from: NodeId) -> HashMap<NodeId, u32> {
        let mut dist = HashMap::new();
        dist.insert(from, 0u32);
        let mut q = VecDeque::from([from]);
        while let Some(n) = q.pop_front() {
            let d = dist.get(&n).copied().unwrap_or(0);
            for m in adj.get(&n).into_iter().flatten() {
                if !dist.contains_key(m) {
                    dist.insert(*m, d + 1);
                    q.push_back(*m);
                }
            }
        }
        dist
    }

    /// Shortest hop path between two nodes in the configurable subgraph
    /// (inclusive of both endpoints).
    fn shortest_walk(
        adj: &HashMap<NodeId, Vec<NodeId>>,
        from: NodeId,
        to: NodeId,
    ) -> Option<Vec<NodeId>> {
        let mut pred: HashMap<NodeId, NodeId> = HashMap::new();
        let mut q = VecDeque::from([from]);
        pred.insert(from, from);
        while let Some(n) = q.pop_front() {
            if n == to {
                break;
            }
            for m in adj.get(&n).into_iter().flatten() {
                if !pred.contains_key(m) {
                    pred.insert(*m, n);
                    q.push_back(*m);
                }
            }
        }
        if !pred.contains_key(&to) {
            return None;
        }
        let mut walk = vec![to];
        let mut cur = to;
        while cur != from {
            let Some(&prev) = pred.get(&cur) else {
                // Unreachable: every queued node has a predecessor entry. Bail
                // out rather than loop forever.
                return None;
            };
            cur = prev;
            walk.push(cur);
        }
        walk.reverse();
        Some(walk)
    }

    /// Shared generator: returns the paths plus every node that had to be
    /// placed without a connecting walk (disconnected from the configurable
    /// subgraph).
    pub(super) fn generate_with_report(
        adg: &Adg,
        p: usize,
        seed: u64,
    ) -> (ConfigPaths, Vec<NodeId>) {
        let adj = adjacency(adg);
        let mut nodes: Vec<NodeId> = adj.keys().copied().collect();
        nodes.sort();
        let Some(&first_node) = nodes.first() else {
            return (ConfigPaths { paths: Vec::new() }, Vec::new());
        };
        let p = p.clamp(1, nodes.len());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut disconnected: Vec<NodeId> = Vec::new();

        // --- seeds: spread by farthest-point heuristic.
        let mut seeds = vec![first_node];
        while seeds.len() < p {
            let mut best = None;
            let mut best_d = 0u32;
            let dists: Vec<HashMap<NodeId, u32>> = seeds.iter().map(|s| bfs(&adj, *s)).collect();
            for n in &nodes {
                if seeds.contains(n) {
                    continue;
                }
                let d = dists
                    .iter()
                    .map(|dm| dm.get(n).copied().unwrap_or(0))
                    .min()
                    .unwrap_or(0);
                if d >= best_d {
                    best_d = d;
                    best = Some(*n);
                }
            }
            match best {
                Some(n) => seeds.push(n),
                None => break,
            }
        }

        // --- cluster: each node joins its nearest seed ("spanning-tree like").
        let seed_dists: Vec<HashMap<NodeId, u32>> = seeds.iter().map(|s| bfs(&adj, *s)).collect();
        let mut clusters: Vec<Vec<NodeId>> = vec![Vec::new(); seeds.len()];
        for n in &nodes {
            // `seeds` is nonempty, so the min always exists; fall back to the
            // first cluster rather than panicking if it somehow did not.
            let best = seed_dists
                .iter()
                .enumerate()
                .map(|(i, dm)| (i, dm.get(n).copied().unwrap_or(u32::MAX)))
                .min_by_key(|(_, d)| *d)
                .map_or(0, |(i, _)| i);
            if let Some(cluster) = clusters.get_mut(best) {
                cluster.push(*n);
            }
        }

        // --- route each cluster with a nearest-neighbor walk (revisits allowed
        // through shortest connecting walks).
        let mut paths: Vec<Vec<NodeId>> = clusters
            .iter()
            .map(|cluster| walk_cluster(&adj, cluster, &mut rng, &mut disconnected))
            .collect();

        prune(&mut paths);

        // --- improvement: cut a node from the longest path, attach it to a
        // nearby shorter path (§VI), until converged.
        for _ in 0..4 * nodes.len() {
            prune(&mut paths);
            let longest = match paths.iter().enumerate().max_by_key(|(_, path)| path.len()) {
                Some((i, path)) if path.len() > 1 => i,
                _ => break,
            };
            let before = paths[longest].len();
            // Candidate node to cut: an endpoint of the longest path that is
            // not a pass-through for coverage.
            let Some(&victim) = paths[longest].last() else {
                break;
            };
            // Find the shorter path with the cheapest attachment.
            let mut best: Option<(usize, usize)> = None; // (path, new length)
            for (pi, path) in paths.iter().enumerate() {
                if pi == longest || path.len() + 1 >= before {
                    continue;
                }
                let Some(&tail) = path.last() else { continue };
                if let Some(w) = shortest_walk(&adj, tail, victim) {
                    let new_len = path.len() + w.len() - 1;
                    if new_len < before && best.is_none_or(|(_, l)| new_len < l) {
                        best = Some((pi, new_len));
                    }
                }
            }
            let Some((target, _)) = best else { break };
            // Commit: remove the victim from the longest path (and any trailing
            // pass-through nodes that were only there to reach it), append the
            // connecting walk to the target path.
            paths[longest].pop();
            let Some(&tail) = paths[target].last() else {
                break;
            };
            let Some(walk) = shortest_walk(&adj, tail, victim) else {
                // The attachment was validated a moment ago; if it vanished,
                // restore the victim and stop improving rather than panic.
                paths[longest].push(victim);
                break;
            };
            paths[target].extend_from_slice(&walk[1..]);
        }

        // Safety: guarantee coverage (anything lost re-appends to the shortest
        // path).
        let covered: std::collections::HashSet<NodeId> = paths.iter().flatten().copied().collect();
        for n in &nodes {
            if !covered.contains(n) {
                let Some(shortest) = paths.iter_mut().min_by_key(|p| p.len()) else {
                    break; // p >= 1 paths by construction
                };
                match shortest.last().copied() {
                    Some(tail) => {
                        if let Some(w) = shortest_walk(&adj, tail, *n) {
                            shortest.extend_from_slice(&w[1..]);
                        } else {
                            disconnected.push(*n);
                            shortest.push(*n);
                        }
                    }
                    None => shortest.push(*n),
                }
            }
        }

        disconnected.sort();
        disconnected.dedup();
        (ConfigPaths { paths }, disconnected)
    }

    /// Removes redundant path endpoints: a trailing or leading node that is
    /// already covered elsewhere (another path, or earlier in the same path)
    /// adds length without adding coverage.
    fn prune(paths: &mut [Vec<NodeId>]) {
        use std::collections::HashMap;
        // Global coverage counts.
        let mut count: HashMap<NodeId, u32> = HashMap::new();
        for p in paths.iter() {
            for n in p {
                *count.entry(*n).or_insert(0) += 1;
            }
        }
        for p in paths.iter_mut() {
            loop {
                let mut trimmed = false;
                if p.len() > 1 {
                    if let Some(&last) = p.last() {
                        if count.get(&last).copied().unwrap_or(0) > 1 {
                            p.pop();
                            if let Some(c) = count.get_mut(&last) {
                                *c -= 1;
                            }
                            trimmed = true;
                        }
                    }
                }
                if p.len() > 1 {
                    let first = p[0];
                    if count.get(&first).copied().unwrap_or(0) > 1 {
                        p.remove(0);
                        if let Some(c) = count.get_mut(&first) {
                            *c -= 1;
                        }
                        trimmed = true;
                    }
                }
                if !trimmed {
                    break;
                }
            }
        }
    }

    /// Nearest-neighbor walk covering every node of `cluster`. Nodes that
    /// cannot be reached through the configurable subgraph are still placed
    /// (appended off-walk) and recorded in `disconnected`.
    fn walk_cluster(
        adj: &HashMap<NodeId, Vec<NodeId>>,
        cluster: &[NodeId],
        rng: &mut StdRng,
        disconnected: &mut Vec<NodeId>,
    ) -> Vec<NodeId> {
        if cluster.is_empty() {
            return Vec::new();
        }
        let mut remaining: Vec<NodeId> = cluster.to_vec();
        remaining.shuffle(rng);
        let Some(start) = remaining.pop() else {
            return Vec::new();
        };
        let mut path = vec![start];
        while !remaining.is_empty() {
            let Some(&cur) = path.last() else { break };
            let dist = bfs(adj, cur);
            // Nearest remaining node.
            let Some((idx, _)) = remaining
                .iter()
                .enumerate()
                .min_by_key(|(_, n)| dist.get(n).copied().unwrap_or(u32::MAX))
            else {
                break;
            };
            let next = remaining.swap_remove(idx);
            match shortest_walk(adj, cur, next) {
                Some(w) => path.extend_from_slice(&w[1..]),
                None => {
                    // Disconnected; charged but placed.
                    disconnected.push(next);
                    path.push(next);
                }
            }
            // Anything passed through is covered for free.
            remaining.retain(|n| !path.contains(n));
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use dsagen_adg::{presets, OpSet, PeSpec, Scheduling, Sharing, SwitchSpec};

    use super::*;

    fn all_presets() -> Vec<Adg> {
        vec![
            presets::softbrain(),
            presets::maeri(),
            presets::triggered(),
            presets::spu(),
            presets::revel(),
            presets::cca(),
            presets::diannao_tree(),
            presets::dse_initial(),
            presets::plasticine(),
            presets::tabla(),
        ]
    }

    fn lone_pe(adg: &mut Adg) -> NodeId {
        adg.add_pe(PeSpec::new(
            Scheduling::Static,
            Sharing::Dedicated,
            OpSet::integer_alu(),
        ))
    }

    /// Two PEs with no link between them.
    fn split() -> (Adg, NodeId, NodeId) {
        let mut adg = Adg::new("split");
        let a = lone_pe(&mut adg);
        let b = lone_pe(&mut adg);
        (adg, a, b)
    }

    /// Softbrain plus one PE linked to nothing.
    fn island() -> (Adg, NodeId) {
        let mut adg = presets::softbrain();
        adg.set_name("softbrain-island");
        let lone = lone_pe(&mut adg);
        (adg, lone)
    }

    /// The dense generator returns exactly the reference generator's
    /// paths and disconnected list.
    fn assert_matches_reference(adg: &Adg, p: usize, seed: u64) {
        assert_eq!(
            generate_with_report(adg, p, seed),
            reference::generate_with_report(adg, p, seed),
            "{} p={p} seed={seed}",
            adg.name()
        );
    }

    /// Seeds per (preset, path count) and mutation chains per start
    /// fabric: a debug build checks a slice, a release build (CI's
    /// `cargo test --release -p dsagen-hwgen --lib config_path`) all of them.
    const ORACLE_SEEDS: u64 = if cfg!(debug_assertions) { 3 } else { 20 };
    const ORACLE_CHAINS: u64 = if cfg!(debug_assertions) { 1 } else { 4 };

    #[test]
    fn dense_generator_matches_reference_on_presets() {
        for adg in all_presets() {
            for p in 1..=8 {
                for i in 0..ORACLE_SEEDS {
                    assert_matches_reference(&adg, p, i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                }
            }
        }
    }

    #[test]
    fn dense_generator_matches_reference_on_mutated_fabrics() {
        let used = OpSet::integer_alu().union(OpSet::floating_point());
        let mut checked = 0;
        for start in [presets::dse_initial(), presets::softbrain(), presets::spu()] {
            for chain in 0..ORACLE_CHAINS {
                let mut adg = start.clone();
                let mut rng = StdRng::seed_from_u64(chain);
                for step in 0..40u64 {
                    if dsagen_dse::mutate(&mut adg, &mut rng, &used).is_none() {
                        continue;
                    }
                    assert_matches_reference(&adg, 1 + (step % 8) as usize, step ^ chain);
                    checked += 1;
                }
            }
        }
        assert!(
            checked >= 75 * ORACLE_CHAINS,
            "only {checked} mutated fabrics"
        );
    }

    #[test]
    fn dense_generator_matches_reference_on_disconnected_fixtures() {
        let (split, _, _) = split();
        let (island, _) = island();
        for adg in [split, island] {
            for p in 1..=8 {
                for seed in 0..5 {
                    assert_matches_reference(&adg, p, seed);
                }
            }
        }
    }

    #[test]
    fn csr_lists_are_the_reference_adjacency() {
        for adg in all_presets() {
            let fabric = Fabric::of(&adg);
            let adj = reference::adjacency(&adg);
            let mut keys: Vec<NodeId> = adj.keys().copied().collect();
            keys.sort();
            assert_eq!(fabric.nodes, keys, "{}", adg.name());
            for slot in 0..fabric.slots() {
                let want: Vec<u32> = adj
                    .get(&NodeId::from_index(slot))
                    .into_iter()
                    .flatten()
                    .map(|n| n.index() as u32)
                    .collect();
                assert_eq!(fabric.neighbors(slot), want, "{} slot {slot}", adg.name());
            }
        }
    }

    #[test]
    fn covers_every_configurable_node() {
        let adg = presets::softbrain();
        let configurable = adg.nodes().filter(|n| n.kind.is_configurable()).count();
        for p in [1, 3, 6, 9] {
            let cp = generate_config_paths(&adg, p, 7);
            assert_eq!(
                cp.covered().len(),
                configurable,
                "p={p}: coverage incomplete"
            );
        }
    }

    #[test]
    fn more_paths_shorter_longest() {
        let adg = presets::softbrain();
        let one = generate_config_paths(&adg, 1, 7).longest();
        let nine = generate_config_paths(&adg, 9, 7).longest();
        assert!(nine < one, "1 path {one} vs 9 paths {nine}");
    }

    #[test]
    fn overhead_is_modest_on_meshes() {
        // Fig 13: mean ~1.4× over the ⌈n/p⌉ ideal.
        let adg = presets::softbrain();
        let n = adg.nodes().filter(|x| x.kind.is_configurable()).count();
        for p in [3usize, 6, 9] {
            let cp = generate_config_paths(&adg, p, 7);
            let over = cp.longest() as f64 / ConfigPaths::ideal(n, cp.paths.len()).max(1) as f64;
            assert!(over >= 1.0);
            assert!(over < 2.5, "p={p} overhead {over}");
        }
    }

    #[test]
    fn paths_are_contiguous_walks() {
        let adg = presets::spu();
        let configurable = |id: NodeId| adg.kind(id).is_ok_and(|k| k.is_configurable());
        let linked = |a: NodeId, b: NodeId| {
            adg.edges().any(|e| {
                configurable(e.src)
                    && configurable(e.dst)
                    && ((e.src, e.dst) == (a, b) || (e.src, e.dst) == (b, a))
            })
        };
        let cp = generate_config_paths(&adg, 4, 3);
        for path in &cp.paths {
            for pair in path.windows(2) {
                assert!(linked(pair[0], pair[1]), "{} !~ {}", pair[0], pair[1]);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let adg = presets::revel();
        assert_eq!(
            generate_config_paths(&adg, 3, 11),
            generate_config_paths(&adg, 3, 11)
        );
    }

    #[test]
    fn strict_variant_agrees_with_lenient_on_connected_fabrics() {
        let adg = presets::softbrain();
        let strict = try_generate_config_paths(&adg, 4, 9).expect("connected mesh");
        assert_eq!(strict, generate_config_paths(&adg, 4, 9));
    }

    #[test]
    fn strict_variant_rejects_empty_fabric() {
        let adg = dsagen_adg::Adg::new("empty");
        assert_eq!(
            try_generate_config_paths(&adg, 2, 0),
            Err(ConfigPathError::NoConfigurableNodes)
        );
        // Lenient variant degrades to an empty path set.
        assert!(generate_config_paths(&adg, 2, 0).paths.is_empty());
    }

    #[test]
    fn strict_variant_reports_disconnected_nodes() {
        // Two PEs with no link between them: whichever is walked second is
        // unreachable through the configurable subgraph.
        let (adg, a, b) = split();
        match try_generate_config_paths(&adg, 1, 0) {
            Err(ConfigPathError::DisconnectedNode { node }) => {
                assert!(node == a || node == b);
            }
            other => panic!("expected DisconnectedNode, got {other:?}"),
        }
        // Lenient variant still covers both.
        assert_eq!(generate_config_paths(&adg, 1, 0).covered().len(), 2);
    }

    #[test]
    fn strict_variant_reports_an_island_in_a_mesh() {
        let (adg, lone) = island();
        let configurable = adg.nodes().filter(|n| n.kind.is_configurable()).count();
        for p in [1, 4] {
            assert_eq!(
                try_generate_config_paths(&adg, p, 5),
                Err(ConfigPathError::DisconnectedNode { node: lone })
            );
            assert_eq!(
                generate_config_paths(&adg, p, 5).covered().len(),
                configurable
            );
        }
    }

    #[test]
    fn single_component_graph() {
        let mut adg = dsagen_adg::Adg::new("tiny");
        let pe = lone_pe(&mut adg);
        let sw = adg.add_switch(SwitchSpec::new(dsagen_adg::BitWidth::B64));
        adg.add_link(sw, pe).unwrap();
        let cp = generate_config_paths(&adg, 2, 0);
        assert_eq!(cp.covered().len(), 2);
    }
}
