//! Stable structural fingerprinting of [`Adg`]s.
//!
//! The design-space explorer evaluates thousands of candidate graphs, most
//! of which revisit structures seen before (reverted mutations, parallel
//! shards converging on the same design, the no-op opening trim). A stable
//! 64-bit fingerprint of the graph structure lets downstream layers — the
//! DSE schedule cache in particular — key memoized work by *what the
//! hardware is* rather than *which `Adg` instance described it*.
//!
//! Two fingerprints are provided:
//!
//! * [`Adg::fingerprint`] — the whole graph. Equal fingerprints are
//!   intended to coincide with the [`Adg`]'s semantic equality ([`PartialEq`]:
//!   same name, same live nodes and edges at the same ids; trailing
//!   tombstoned slots and derived adjacency do not participate).
//! * [`Adg::footprint_fingerprint`] — a *subgraph* restricted to an
//!   explicit node/edge set (a schedule's placements and routes). If that
//!   footprint is byte-for-byte intact across a mutation, a previously
//!   legal schedule can be rebased onto the mutated graph without a fresh
//!   stochastic scheduling pass.
//!
//! Stability: the hash is FNV-1a over an explicitly little-endian encoding
//! ([`StableHasher`]), so fingerprints are identical across platforms,
//! processes, and runs — they are safe to memoize, snapshot, and compare
//! across thread counts.

use std::hash::{Hash, Hasher};

use crate::graph::Adg;
use crate::ids::{EdgeId, NodeId};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A deterministic, platform-independent 64-bit hasher (FNV-1a).
///
/// Unlike [`std::collections::hash_map::DefaultHasher`], this hasher is
/// unkeyed and encodes every integer write in little-endian byte order, so
/// the same value sequence produces the same digest on every platform and
/// in every process. Use it for fingerprints that are stored, compared
/// across runs, or used as memoization keys.
#[derive(Debug, Clone)]
pub struct StableHasher(u64);

impl StableHasher {
    /// A fresh hasher at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        StableHasher(FNV_OFFSET)
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    // Pin every integer write to little-endian so digests do not depend on
    // the native byte order (the `Hasher` defaults use `to_ne_bytes`).
    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }
    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }
    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }
    fn write_usize(&mut self, i: usize) {
        self.write(&(i as u64).to_le_bytes());
    }
    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }
    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }
    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }
    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }
    fn write_isize(&mut self, i: isize) {
        self.write_usize(i as usize);
    }
}

impl Adg {
    /// A stable 64-bit structural fingerprint of the whole graph.
    ///
    /// Covers the name, every live node (id, kind parameters, label) in id
    /// order, and every live edge (id, endpoints, width) in id order —
    /// exactly the facts the graph's semantic [`PartialEq`] compares.
    /// Tombstoned slots and the derived adjacency indices are excluded, so
    /// two graphs that compare equal fingerprint equal even when their
    /// slot vectors differ by trailing tombstones.
    ///
    /// The digest is identical across runs and platforms, making it safe
    /// as a memoization key (the DSE schedule cache) or a trace tag.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        self.name().hash(&mut h);
        for node in self.nodes() {
            node.id().hash(&mut h);
            node.kind.hash(&mut h);
            node.label.hash(&mut h);
        }
        // Separate the node and edge sections so a graph whose last node
        // hashes like an edge cannot collide with an edge-shifted twin.
        h.write_u8(0xE5);
        for edge in self.edges() {
            edge.id().hash(&mut h);
            edge.src.hash(&mut h);
            edge.dst.hash(&mut h);
            edge.width.hash(&mut h);
        }
        h.finish()
    }

    /// A stable fingerprint of the subgraph a schedule actually occupies.
    ///
    /// Hashes, in the order given, each node's `(id, kind, label)` and each
    /// edge's `(id, src, dst, width)`. Returns `None` if any referenced
    /// node or edge is no longer live — the footprint has been destroyed
    /// and nothing can be concluded from it.
    ///
    /// If a mutation leaves a schedule's footprint fingerprint unchanged,
    /// every component the schedule places onto or routes through is
    /// byte-identical, so the schedule can be *rebased* onto the mutated
    /// graph and re-checked cheaply instead of re-derived stochastically.
    #[must_use]
    pub fn footprint_fingerprint(
        &self,
        nodes: impl IntoIterator<Item = NodeId>,
        edges: impl IntoIterator<Item = EdgeId>,
    ) -> Option<u64> {
        let mut h = StableHasher::new();
        for id in nodes {
            let node = self.node(id)?;
            node.id().hash(&mut h);
            node.kind.hash(&mut h);
            node.label.hash(&mut h);
        }
        h.write_u8(0xE5);
        for id in edges {
            let edge = self.edge(id)?;
            edge.id().hash(&mut h);
            edge.src.hash(&mut h);
            edge.dst.hash(&mut h);
            edge.width.hash(&mut h);
        }
        Some(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitWidth;
    use crate::components::{CtrlSpec, MemSpec, PeSpec, Scheduling, Sharing, SwitchSpec};
    use crate::op::OpSet;
    use crate::presets;

    /// Convenience: the stable 64-bit digest of any [`Hash`] value.
    fn stable_hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = StableHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    fn tiny() -> Adg {
        let mut adg = Adg::new("tiny");
        let ctrl = adg.add_control(CtrlSpec::new());
        let mem = adg.add_memory(MemSpec::main_memory());
        let pe = adg.add_pe(PeSpec::new(
            Scheduling::Static,
            Sharing::Dedicated,
            OpSet::integer_alu(),
        ));
        adg.add_link(ctrl, mem).unwrap();
        adg.add_link(mem, pe).unwrap();
        adg
    }

    #[test]
    fn equal_graphs_fingerprint_equal() {
        assert_eq!(tiny().fingerprint(), tiny().fingerprint());
        assert_eq!(
            presets::softbrain().fingerprint(),
            presets::softbrain().fingerprint()
        );
    }

    #[test]
    fn fingerprint_tracks_semantic_equality_across_tombstones() {
        // Removing a trailing node leaves a tombstoned slot; the graph then
        // compares equal to one that never had the node, and the
        // fingerprints must agree.
        let base = tiny();
        let mut grown = tiny();
        let extra = grown.add_switch(SwitchSpec::new(BitWidth::B64));
        assert_ne!(base.fingerprint(), grown.fingerprint());
        grown.remove_node(extra).unwrap();
        assert_eq!(base, grown, "tombstoned twin should compare equal");
        assert_eq!(base.fingerprint(), grown.fingerprint());
    }

    #[test]
    fn structural_changes_change_the_fingerprint() {
        let base = presets::softbrain();
        let fp = base.fingerprint();

        // Removing an edge.
        let mut cut = base.clone();
        let edge = cut.edges().next().unwrap().id();
        cut.remove_edge(edge).unwrap();
        assert_ne!(fp, cut.fingerprint());

        // Adding a node.
        let mut grown = base.clone();
        grown.add_switch(SwitchSpec::new(BitWidth::B64));
        assert_ne!(fp, grown.fingerprint());

        // Renaming.
        let mut renamed = base.clone();
        renamed.set_name("not-softbrain");
        assert_ne!(fp, renamed.fingerprint());
    }

    #[test]
    fn fingerprints_differ_across_presets() {
        let fps = [
            presets::softbrain().fingerprint(),
            presets::maeri().fingerprint(),
            presets::spu().fingerprint(),
            presets::revel().fingerprint(),
            presets::dse_initial().fingerprint(),
        ];
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                assert_ne!(a, b, "distinct presets must not collide");
            }
        }
    }

    #[test]
    fn fingerprint_is_pinned_across_runs() {
        // The digest must be *stable*: identical on every platform and in
        // every process. Pin a simple graph's value; if this assertion ever
        // fires, the fingerprint definition changed and every persisted
        // fingerprint (golden files, caches) must be regenerated.
        let a = tiny().fingerprint();
        let b = tiny().fingerprint();
        assert_eq!(a, b);
        let mut h = StableHasher::new();
        h.write_u64(0xD5A6E4);
        assert_eq!(h.finish(), 0x60c0_5d42_0704_556a, "FNV-1a encoding drifted");
    }

    #[test]
    fn footprint_fingerprint_ignores_unrelated_mutations() {
        let base = tiny();
        let nodes: Vec<_> = base.nodes().map(|n| n.id()).collect();
        let edges: Vec<_> = base.edges().map(|e| e.id()).collect();
        let fp = base
            .footprint_fingerprint(nodes.iter().copied(), edges.iter().copied())
            .unwrap();

        // Adding an unconnected switch elsewhere leaves the footprint alone.
        let mut grown = base.clone();
        grown.add_switch(SwitchSpec::new(BitWidth::B64));
        assert_eq!(
            grown.footprint_fingerprint(nodes.iter().copied(), edges.iter().copied()),
            Some(fp)
        );

        // Removing a footprint node destroys it.
        let mut cut = base.clone();
        cut.remove_node(nodes[nodes.len() - 1]).unwrap();
        assert_eq!(
            cut.footprint_fingerprint(nodes.iter().copied(), edges.iter().copied()),
            None
        );
    }

    #[test]
    fn stable_hash_of_matches_manual_hashing() {
        let via_helper = stable_hash_of(&42u64);
        let mut h = StableHasher::new();
        42u64.hash(&mut h);
        assert_eq!(via_helper, h.finish());
    }
}
