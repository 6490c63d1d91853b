//! Cluster topology: nodes, racks, and locality levels.
//!
//! Hadoop's scheduling and HDFS replica placement both reason about network
//! distance in three buckets: same node, same rack, off rack. The paper's
//! discussion of *resume locality* (Section V-A) is the scheduling analogue of
//! HDFS data locality, so the topology vocabulary is shared across the
//! workspace.
//!
//! # Hot-path design
//!
//! [`Topology::rack_of`] and [`Topology::locality`] sit on the engine's task
//! launch path (one locality query per preferred replica per launch) and on
//! the NameNode's placement path (one per replica per block), so both are
//! O(1): alongside the registration-ordered assignment list the topology
//! maintains a dense node-id → rack index and per-rack member lists. At the
//! 10k-node scale of the `swim_cluster` bench the old linear scans would have
//! made every launch O(nodes).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a simulated cluster node (a machine running a DataNode and a
/// TaskTracker).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node:{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Identifier of a rack.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct RackId(pub u32);

/// How close a reader is to a block replica (or a resumed task to its
/// suspended image).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Locality {
    /// Data (or the suspended process) is on the same machine.
    NodeLocal,
    /// Data is on a different machine in the same rack.
    RackLocal,
    /// Data is on a machine in a different rack.
    OffRack,
}

impl Locality {
    /// Relative throughput factor compared to a node-local read; matches the
    /// common rule of thumb that rack-local reads run at roughly NIC speed and
    /// off-rack reads contend for the aggregation layer.
    pub fn throughput_factor(self) -> f64 {
        match self {
            Locality::NodeLocal => 1.0,
            Locality::RackLocal => 0.8,
            Locality::OffRack => 0.5,
        }
    }
}

/// Sentinel in the dense node → rack index for unregistered node ids.
const NO_RACK: u32 = u32::MAX;

/// The static shape of the cluster: which node lives in which rack.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// Registration-ordered (node, rack) pairs; the source of truth.
    assignments: Vec<(NodeId, RackId)>,
    /// Dense node-id → rack-id index (`NO_RACK` where unregistered).
    rack_by_node: Vec<u32>,
    /// Per-rack member lists, indexed by rack id, in registration order.
    members: Vec<Vec<NodeId>>,
}

impl Topology {
    /// Creates an empty topology.
    pub(crate) fn new() -> Self {
        Topology::default()
    }

    /// Builds a topology with `racks` racks of `nodes_per_rack` nodes each,
    /// numbering nodes sequentially starting at 0.
    pub(crate) fn regular(racks: u32, nodes_per_rack: u32) -> Self {
        let mut t = Topology::new();
        let mut next = 0;
        for r in 0..racks {
            for _ in 0..nodes_per_rack {
                t.add_node(NodeId(next), RackId(r));
                next += 1;
            }
        }
        t
    }

    /// Splits `nodes` sequentially numbered nodes over exactly `racks` racks
    /// in contiguous blocks whose sizes differ by at most one (rack `r` gets
    /// the `r`-th block). This is how the engine maps a flat node list onto a
    /// requested rack count; when `racks` divides `nodes` every rack gets
    /// `nodes / racks` nodes.
    ///
    /// # Panics
    /// Panics if `racks` is zero or exceeds `nodes`.
    pub fn blocked(nodes: u32, racks: u32) -> Self {
        assert!(racks >= 1, "a topology needs at least one rack");
        assert!(racks <= nodes, "more racks ({racks}) than nodes ({nodes})");
        let base = nodes / racks;
        let remainder = nodes % racks;
        let mut t = Topology::new();
        let mut next = 0;
        for r in 0..racks {
            let size = base + u32::from(r < remainder);
            for _ in 0..size {
                t.add_node(NodeId(next), RackId(r));
                next += 1;
            }
        }
        t
    }

    /// A single-rack topology with `n` nodes — the paper's evaluation setup is
    /// the degenerate single-node case of this.
    pub fn single_rack(n: u32) -> Self {
        Topology::regular(1, n)
    }

    /// Registers a node in a rack.
    pub(crate) fn add_node(&mut self, node: NodeId, rack: RackId) {
        let idx = node.0 as usize;
        if self.rack_by_node.get(idx).copied().unwrap_or(NO_RACK) != NO_RACK {
            return;
        }
        if self.rack_by_node.len() <= idx {
            self.rack_by_node.resize(idx + 1, NO_RACK);
        }
        self.rack_by_node[idx] = rack.0;
        let rack_idx = rack.0 as usize;
        if self.members.len() <= rack_idx {
            self.members.resize_with(rack_idx + 1, Vec::new);
        }
        self.members[rack_idx].push(node);
        self.assignments.push((node, rack));
    }

    /// The `i`-th registered node (registration order), if it exists.
    pub fn node_at(&self, i: usize) -> Option<NodeId> {
        self.assignments.get(i).map(|(n, _)| *n)
    }

    /// Number of registered nodes.
    pub(crate) fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True if no nodes are registered.
    pub(crate) fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Number of rack slots (the highest registered rack id plus one; racks
    /// with no members still count so rack ids stay usable as dense indices).
    pub fn rack_count(&self) -> usize {
        self.members.len()
    }

    /// True when a node with this id is registered.
    pub(crate) fn contains(&self, node: NodeId) -> bool {
        self.rack_of(node).is_some()
    }

    /// The rack a node belongs to, if registered. O(1).
    pub fn rack_of(&self, node: NodeId) -> Option<RackId> {
        match self.rack_by_node.get(node.0 as usize).copied() {
            Some(r) if r != NO_RACK => Some(RackId(r)),
            _ => None,
        }
    }

    /// The members of a rack, in registration order. O(1).
    pub fn members_of(&self, rack: RackId) -> &[NodeId] {
        self.members
            .get(rack.0 as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Locality of `reader` with respect to `holder`. O(1).
    pub fn locality(&self, reader: NodeId, holder: NodeId) -> Locality {
        if reader == holder {
            return Locality::NodeLocal;
        }
        match (self.rack_of(reader), self.rack_of(holder)) {
            (Some(a), Some(b)) if a == b => Locality::RackLocal,
            _ => Locality::OffRack,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regular_topology_shape() {
        let t = Topology::regular(2, 3);
        assert_eq!(t.len(), 6);
        assert_eq!(t.members_of(RackId(0)).len(), 3);
        assert_eq!(t.members_of(RackId(1)).len(), 3);
        assert_eq!(t.rack_of(NodeId(4)), Some(RackId(1)));
        assert_eq!(t.rack_of(NodeId(99)), None);
        assert_eq!(t.rack_count(), 2);
        assert_eq!(t.node_at(4), Some(NodeId(4)));
        assert_eq!(t.node_at(6), None);
    }

    #[test]
    fn blocked_topology_spreads_the_remainder() {
        let t = Topology::blocked(10, 4);
        assert_eq!(t.len(), 10);
        assert_eq!(t.rack_count(), 4);
        // 10 = 3 + 3 + 2 + 2, contiguous blocks.
        assert_eq!(t.members_of(RackId(0)).len(), 3);
        assert_eq!(t.members_of(RackId(1)).len(), 3);
        assert_eq!(t.members_of(RackId(2)).len(), 2);
        assert_eq!(t.members_of(RackId(3)).len(), 2);
        assert_eq!(t.rack_of(NodeId(0)), Some(RackId(0)));
        assert_eq!(t.rack_of(NodeId(9)), Some(RackId(3)));
        // Exact divisor: identical to regular().
        assert_eq!(Topology::blocked(6, 2), Topology::regular(2, 3));
    }

    #[test]
    #[should_panic(expected = "more racks")]
    fn blocked_rejects_more_racks_than_nodes() {
        Topology::blocked(2, 3);
    }

    #[test]
    fn locality_levels() {
        let t = Topology::regular(2, 2);
        assert_eq!(t.locality(NodeId(0), NodeId(0)), Locality::NodeLocal);
        assert_eq!(t.locality(NodeId(0), NodeId(1)), Locality::RackLocal);
        assert_eq!(t.locality(NodeId(0), NodeId(2)), Locality::OffRack);
    }

    #[test]
    fn locality_ordering_and_factors() {
        assert!(Locality::NodeLocal < Locality::RackLocal);
        assert!(Locality::RackLocal < Locality::OffRack);
        assert!(Locality::NodeLocal.throughput_factor() > Locality::RackLocal.throughput_factor());
        assert!(Locality::RackLocal.throughput_factor() > Locality::OffRack.throughput_factor());
    }

    #[test]
    fn duplicate_registration_is_ignored() {
        let mut t = Topology::new();
        t.add_node(NodeId(1), RackId(0));
        t.add_node(NodeId(1), RackId(5));
        assert_eq!(t.len(), 1);
        assert_eq!(t.rack_of(NodeId(1)), Some(RackId(0)));
        assert_eq!(t.members_of(RackId(0)), &[NodeId(1)]);
        assert!(t.members_of(RackId(5)).is_empty());
    }

    #[test]
    fn unknown_nodes_are_off_rack() {
        let t = Topology::single_rack(1);
        assert_eq!(t.locality(NodeId(0), NodeId(7)), Locality::OffRack);
        assert!(!t.is_empty());
        assert!(t.contains(NodeId(0)));
        assert!(!t.contains(NodeId(7)));
    }

    #[test]
    fn sparse_node_ids_are_indexed_correctly() {
        let mut t = Topology::new();
        t.add_node(NodeId(7), RackId(1));
        t.add_node(NodeId(2), RackId(0));
        assert_eq!(t.rack_of(NodeId(7)), Some(RackId(1)));
        assert_eq!(t.rack_of(NodeId(2)), Some(RackId(0)));
        assert_eq!(t.rack_of(NodeId(3)), None);
        assert_eq!(t.locality(NodeId(7), NodeId(2)), Locality::OffRack);
        assert_eq!(
            (t.node_at(0), t.node_at(1)),
            (Some(NodeId(7)), Some(NodeId(2)))
        );
    }
}
