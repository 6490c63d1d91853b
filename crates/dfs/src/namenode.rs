//! The NameNode: namespace and block placement.
//!
//! Only the pieces the MapReduce engine needs are modelled: creating files
//! with a replication factor, the default replica-placement policy (first
//! replica on the writer's node, second on a different rack when possible,
//! third on yet another node), answering "which nodes hold block B?", and
//! re-replicating blocks whose holders died.

use crate::block::{split_into_blocks, Block, BlockId, FileId, FileMeta};
use crate::topology::{NodeId, Topology};
use mrp_sim::SimRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Errors from namespace operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DfsError {
    /// The path already exists.
    AlreadyExists(String),
    /// The file or block does not exist.
    NotFound(String),
    /// No live DataNodes can host a replica.
    NoDataNodes,
}

impl std::fmt::Display for DfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DfsError::AlreadyExists(p) => write!(f, "path already exists: {p}"),
            DfsError::NotFound(w) => write!(f, "not found: {w}"),
            DfsError::NoDataNodes => write!(f, "no datanodes available"),
        }
    }
}

impl std::error::Error for DfsError {}

/// Outcome of repairing under-replicated blocks after a node left the
/// cluster (see [`NameNode::re_replicate`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicationRepair {
    /// New replicas created on surviving nodes.
    pub re_replicated: u64,
    /// Blocks whose last replica disappeared with the node (unrepairable
    /// after a crash; a graceful decommission drains them instead).
    pub lost_blocks: u64,
}

/// Position of an id in a dense table. File and block ids are handed out
/// from 1 in sequence and never removed, so id `n` sits at `n - 1`; id 0
/// has no slot.
fn slot(id: u64) -> Option<usize> {
    id.checked_sub(1).and_then(|i| usize::try_from(i).ok())
}

/// The simulated NameNode. Files, blocks and replica lists are dense
/// tables indexed by id - 1, read once per block of every job's input.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NameNode {
    topology: Topology,
    /// One slot per file id handed out; `None` for an id whose create
    /// failed before the file existed.
    files: Vec<Option<FileMeta>>,
    paths: HashMap<String, FileId>,
    /// One entry per block id handed out, pushed before its placement.
    blocks: Vec<Block>,
    /// The replica holders of each block, parallel to `blocks`.
    replicas: Vec<Vec<NodeId>>,
    /// Dense liveness map (indexed by node id); dead DataNodes hold no
    /// replicas and are never chosen for placement.
    dead: Vec<bool>,
    /// Per-node replica index (dense by node id): the blocks each DataNode
    /// holds. Keeps [`NameNode::decommission`] O(replicas on the node)
    /// instead of O(all blocks in the namespace) — fault-injection runs kill
    /// hundreds of nodes, and a namespace scan per failure dominated their
    /// profile.
    node_blocks: Vec<Vec<BlockId>>,
    /// Maintained count of live nodes (`dead` has this many `false`
    /// entries); placement consults it once per block, so it must not cost
    /// an O(nodes) scan.
    live: usize,
    default_block_size: u64,
    default_replication: u32,
}

impl NameNode {
    /// Creates a NameNode for the given topology.
    pub fn new(topology: Topology, default_block_size: u64, default_replication: u32) -> Self {
        assert!(default_block_size > 0);
        assert!(default_replication > 0);
        let dead = vec![false; topology.len()];
        let node_blocks = vec![Vec::new(); topology.len()];
        let live = topology.len();
        NameNode {
            topology,
            files: Vec::new(),
            paths: HashMap::new(),
            blocks: Vec::new(),
            replicas: Vec::new(),
            dead,
            node_blocks,
            live,
            default_block_size,
            default_replication,
        }
    }

    /// The cluster topology the NameNode knows about.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Looks up a file by path.
    pub fn lookup(&self, path: &str) -> Option<&FileMeta> {
        self.paths.get(path).and_then(|id| self.file(*id))
    }

    /// File metadata by id.
    pub(crate) fn file(&self, id: FileId) -> Option<&FileMeta> {
        self.files.get(slot(id.0)?)?.as_ref()
    }

    /// Block metadata by id.
    pub fn block(&self, id: BlockId) -> Option<&Block> {
        self.blocks.get(slot(id.0)?)
    }

    /// The DataNodes holding replicas of a block.
    pub fn replicas_of(&self, block: BlockId) -> &[NodeId] {
        slot(block.0)
            .and_then(|i| self.replicas.get(i))
            .map_or(&[], Vec::as_slice)
    }

    /// Whether `node` is a live DataNode (in the topology and not
    /// decommissioned/failed).
    pub fn is_live(&self, node: NodeId) -> bool {
        self.topology.contains(node) && !self.dead.get(node.0 as usize).copied().unwrap_or(true)
    }

    /// Number of live DataNodes (O(1): maintained by
    /// [`NameNode::decommission`] / [`NameNode::rejoin`]).
    pub(crate) fn live_count(&self) -> usize {
        self.live
    }

    /// Default replica placement: first replica on the writer (if it is a
    /// cluster node), second preferring a different rack as HDFS does,
    /// remaining replicas on any distinct nodes.
    ///
    /// O(replication) per block: candidates are sampled (with a deterministic
    /// scan fallback) instead of materialising and shuffling whole-cluster
    /// candidate lists, so creating the 100k-block inputs of the 10k-node
    /// `swim_cluster` bench does not cost O(blocks x nodes).
    fn place_replicas(
        &self,
        writer: Option<NodeId>,
        replication: u32,
        rng: &mut SimRng,
    ) -> Result<Vec<NodeId>, DfsError> {
        let live = self.live_count();
        if live == 0 {
            return Err(DfsError::NoDataNodes);
        }
        let target = (replication as usize).min(live);
        let mut chosen: Vec<NodeId> = Vec::with_capacity(target);
        let first = match writer {
            Some(w) if self.is_live(w) => w,
            _ => match self.pick_distinct(&[], rng) {
                Some(n) => n,
                None => return Err(DfsError::NoDataNodes),
            },
        };
        chosen.push(first);
        if chosen.len() < target {
            if let Some(second) = self.pick_off_rack(first, rng) {
                chosen.push(second);
            }
        }
        while chosen.len() < target {
            match self.pick_distinct(&chosen, rng) {
                Some(n) => chosen.push(n),
                None => break,
            }
        }
        Ok(chosen)
    }

    /// A random live node from a non-empty rack other than `anchor`'s, or
    /// `None` when no such node exists. Scans racks (and rack members) from a
    /// random starting offset, so the choice stays seed-deterministic and —
    /// with every node live — draws exactly the same rng sequence as before
    /// liveness tracking existed.
    fn pick_off_rack(&self, anchor: NodeId, rng: &mut SimRng) -> Option<NodeId> {
        let racks = self.topology.rack_count();
        if racks <= 1 {
            return None;
        }
        let anchor_rack = self.topology.rack_of(anchor);
        let start = rng.index(racks);
        for i in 0..racks {
            let rack = crate::RackId(((start + i) % racks) as u32);
            if Some(rack) == anchor_rack {
                continue;
            }
            let members = self.topology.members_of(rack);
            if members.is_empty() {
                continue;
            }
            let offset = rng.index(members.len());
            for j in 0..members.len() {
                let cand = members[(offset + j) % members.len()];
                if self.is_live(cand) {
                    return Some(cand);
                }
            }
        }
        None
    }

    /// A random live node not already in `chosen`. Rejection-samples a few
    /// times (`chosen` has at most `replication` entries), then falls back to
    /// a deterministic scan from a random offset; returns `None` only when
    /// every live node is already chosen.
    fn pick_distinct(&self, chosen: &[NodeId], rng: &mut SimRng) -> Option<NodeId> {
        let n = self.topology.len();
        if n == 0 {
            return None;
        }
        for _ in 0..8 {
            let cand = self.topology.node_at(rng.index(n)).expect("in range");
            if !chosen.contains(&cand) && self.is_live(cand) {
                return Some(cand);
            }
        }
        let start = rng.index(n);
        for i in 0..n {
            let cand = self.topology.node_at((start + i) % n).expect("in range");
            if !chosen.contains(&cand) && self.is_live(cand) {
                return Some(cand);
            }
        }
        None
    }

    /// Creates a file of `len` bytes at `path`, written from `writer` (if the
    /// writer is a cluster node the first replica is local to it).
    pub fn create_file(
        &mut self,
        path: &str,
        len: u64,
        writer: Option<NodeId>,
        rng: &mut SimRng,
    ) -> Result<FileId, DfsError> {
        self.create_file_with(
            path,
            len,
            self.default_block_size,
            self.default_replication,
            writer,
            rng,
        )
    }

    /// Creates a file with explicit block size and replication factor.
    pub(crate) fn create_file_with(
        &mut self,
        path: &str,
        len: u64,
        block_size: u64,
        replication: u32,
        writer: Option<NodeId>,
        rng: &mut SimRng,
    ) -> Result<FileId, DfsError> {
        if self.paths.contains_key(path) {
            return Err(DfsError::AlreadyExists(path.to_string()));
        }
        if self.topology.is_empty() {
            return Err(DfsError::NoDataNodes);
        }
        // The id is used up even if placement fails below: its slot stays
        // `None`, and a block whose placement failed keeps its metadata
        // with no replicas.
        let file_id = FileId(self.files.len() as u64 + 1);
        self.files.push(None);
        let mut block_ids = Vec::new();
        for (index, size) in split_into_blocks(len, block_size).into_iter().enumerate() {
            let block_id = BlockId(self.blocks.len() as u64 + 1);
            self.blocks.push(Block {
                id: block_id,
                file: file_id,
                index: index as u32,
                size,
            });
            self.replicas.push(Vec::new());
            let placement = self.place_replicas(writer, replication, rng)?;
            for holder in &placement {
                self.record_holder(*holder, block_id);
            }
            *self.replicas.last_mut().expect("pushed above") = placement;
            block_ids.push(block_id);
        }
        let meta = FileMeta {
            id: file_id,
            path: path.to_string(),
            len,
            block_size,
            replication,
            blocks: block_ids,
        };
        *self.files.last_mut().expect("pushed above") = Some(meta);
        self.paths.insert(path.to_string(), file_id);
        Ok(file_id)
    }

    /// Records `holder` as holding `block` in the per-node index.
    fn record_holder(&mut self, holder: NodeId, block: BlockId) {
        if let Some(list) = self.node_blocks.get_mut(holder.0 as usize) {
            list.push(block);
        }
    }

    /// Removes a DataNode from service (failure or administrative
    /// decommission): the node is marked dead, its replicas disappear, and
    /// the blocks that lost a replica are returned (sorted, so callers can
    /// repair them deterministically via [`NameNode::re_replicate`]).
    /// O(replicas held by the node) via the per-node index.
    pub fn decommission(&mut self, node: NodeId) -> Vec<BlockId> {
        if let Some(d) = self.dead.get_mut(node.0 as usize) {
            if !*d {
                *d = true;
                self.live -= 1;
            }
        }
        let mut affected = self
            .node_blocks
            .get_mut(node.0 as usize)
            .map(std::mem::take)
            .unwrap_or_default();
        for block in &affected {
            if let Some(replicas) = slot(block.0).and_then(|i| self.replicas.get_mut(i)) {
                replicas.retain(|n| *n != node);
            }
        }
        affected.sort();
        affected
    }

    /// Returns a previously removed DataNode to service. Its disks are
    /// empty: it holds no replicas until placement chooses it again.
    pub fn rejoin(&mut self, node: NodeId) {
        if let Some(d) = self.dead.get_mut(node.0 as usize) {
            if *d {
                *d = false;
                self.live += 1;
            }
        }
    }

    /// Repairs under-replicated blocks after a node left: each affected block
    /// gets new replicas on live nodes until it reaches its file's
    /// replication factor (or the live-node count, whichever is smaller).
    ///
    /// `graceful` models an administrative decommission, where the leaving
    /// node itself serves as the copy source, so even last-replica blocks are
    /// drained rather than lost; after a crash (`graceful == false`) a block
    /// with no surviving replica is counted in
    /// [`ReplicationRepair::lost_blocks`].
    pub fn re_replicate(
        &mut self,
        affected: &[BlockId],
        graceful: bool,
        rng: &mut SimRng,
    ) -> ReplicationRepair {
        let mut repair = ReplicationRepair::default();
        let live = self.live_count();
        for block in affected {
            let Some(i) = slot(block.0).filter(|&i| i < self.blocks.len()) else {
                continue;
            };
            let target = self
                .file(self.blocks[i].file)
                .map(|f| f.replication)
                .unwrap_or(self.default_replication) as usize;
            let target = target.min(live);
            let mut holders = std::mem::take(&mut self.replicas[i]);
            if holders.is_empty() && !graceful {
                repair.lost_blocks += 1;
                continue;
            }
            while holders.len() < target {
                match self.pick_distinct(&holders, rng) {
                    Some(n) => {
                        self.record_holder(n, *block);
                        holders.push(n);
                        repair.re_replicated += 1;
                    }
                    None => break,
                }
            }
            self.replicas[i] = holders;
        }
        repair
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_sim::MIB;

    fn rng() -> SimRng {
        SimRng::new(7)
    }

    fn namenode(racks: u32, per_rack: u32) -> NameNode {
        NameNode::new(Topology::regular(racks, per_rack), 128 * MIB, 3)
    }

    #[test]
    fn create_and_lookup() {
        let mut nn = namenode(1, 4);
        let id = nn
            .create_file("/input", 512 * MIB, Some(NodeId(0)), &mut rng())
            .unwrap();
        let meta = nn.lookup("/input").unwrap();
        assert_eq!(meta.id, id);
        assert_eq!(meta.blocks.len(), 4);
        assert_eq!(nn.paths.len(), 1);
        assert!(nn.lookup("/missing").is_none());
    }

    #[test]
    fn duplicate_path_rejected() {
        let mut nn = namenode(1, 2);
        nn.create_file("/f", MIB, None, &mut rng()).unwrap();
        assert!(matches!(
            nn.create_file("/f", MIB, None, &mut rng()),
            Err(DfsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn first_replica_is_writer_local() {
        let mut nn = namenode(2, 3);
        let id = nn
            .create_file("/local", 100 * MIB, Some(NodeId(4)), &mut rng())
            .unwrap();
        let block = nn.file(id).unwrap().blocks[0];
        assert_eq!(nn.replicas_of(block)[0], NodeId(4));
    }

    #[test]
    fn replication_factor_is_respected_when_possible() {
        let mut nn = namenode(2, 3);
        let id = nn
            .create_file("/r3", 10 * MIB, Some(NodeId(0)), &mut rng())
            .unwrap();
        let block = nn.file(id).unwrap().blocks[0];
        assert_eq!(nn.replicas_of(block).len(), 3);
        // Replicas must be distinct nodes.
        let mut nodes = nn.replicas_of(block).to_vec();
        nodes.sort();
        nodes.dedup();
        assert_eq!(nodes.len(), 3);
    }

    #[test]
    fn second_replica_prefers_other_rack() {
        let mut nn = namenode(2, 2);
        let id = nn
            .create_file("/x", MIB, Some(NodeId(0)), &mut rng())
            .unwrap();
        let block = nn.file(id).unwrap().blocks[0];
        let replicas = nn.replicas_of(block);
        let racks: Vec<_> = replicas
            .iter()
            .map(|n| nn.topology().rack_of(*n).unwrap())
            .collect();
        assert!(
            racks.windows(2).any(|w| w[0] != w[1]),
            "replicas should span racks: {racks:?}"
        );
    }

    #[test]
    fn single_node_cluster_gets_one_replica() {
        let mut nn = NameNode::new(Topology::single_rack(1), 512 * MIB, 3);
        let id = nn
            .create_file("/single", 512 * MIB, Some(NodeId(0)), &mut rng())
            .unwrap();
        let block = nn.file(id).unwrap().blocks[0];
        assert_eq!(nn.replicas_of(block), &[NodeId(0)]);
    }

    #[test]
    fn decommission_removes_replicas() {
        let mut nn = namenode(1, 2);
        let id = nn
            .create_file("/d", MIB, Some(NodeId(0)), &mut rng())
            .unwrap();
        let block = nn.file(id).unwrap().blocks[0];
        let affected = nn.decommission(NodeId(0));
        assert_eq!(affected, vec![block]);
        assert!(!nn.replicas_of(block).contains(&NodeId(0)));
        assert!(!nn.is_live(NodeId(0)));
        assert_eq!(nn.live_count(), 1);
    }

    #[test]
    fn re_replication_restores_the_replication_factor() {
        let mut nn = namenode(2, 3); // replication 3 over 6 nodes
        let mut r = rng();
        let id = nn.create_file("/r", MIB, Some(NodeId(0)), &mut r).unwrap();
        let block = nn.file(id).unwrap().blocks[0];
        let lost = nn.replicas_of(block)[0];
        let affected = nn.decommission(lost);
        assert_eq!(nn.replicas_of(block).len(), 2);
        let repair = nn.re_replicate(&affected, false, &mut r);
        assert_eq!(repair.re_replicated, 1);
        assert_eq!(repair.lost_blocks, 0);
        let replicas = nn.replicas_of(block);
        assert_eq!(replicas.len(), 3);
        assert!(replicas.iter().all(|n| nn.is_live(*n)), "{replicas:?}");
        // Distinct replicas.
        let mut sorted = replicas.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
    }

    #[test]
    fn crash_of_the_last_replica_loses_the_block_but_decommission_drains_it() {
        let mut nn = NameNode::new(Topology::regular(1, 3), 128 * MIB, 1);
        let mut r = rng();
        let id = nn
            .create_file("/solo", MIB, Some(NodeId(1)), &mut r)
            .unwrap();
        let block = nn.file(id).unwrap().blocks[0];

        // Crash: the only replica is gone for good.
        let affected = nn.decommission(NodeId(1));
        let repair = nn.re_replicate(&affected, false, &mut r);
        assert_eq!(repair.lost_blocks, 1);
        assert_eq!(repair.re_replicated, 0);
        assert!(nn.replicas_of(block).is_empty());

        // Graceful drain: the leaving node is still a copy source.
        nn.rejoin(NodeId(1));
        let mut nn2 = NameNode::new(Topology::regular(1, 3), 128 * MIB, 1);
        let id2 = nn2
            .create_file("/solo", MIB, Some(NodeId(1)), &mut r)
            .unwrap();
        let block2 = nn2.file(id2).unwrap().blocks[0];
        let affected2 = nn2.decommission(NodeId(1));
        let repair2 = nn2.re_replicate(&affected2, true, &mut r);
        assert_eq!(repair2.lost_blocks, 0);
        assert_eq!(repair2.re_replicated, 1);
        assert_eq!(nn2.replicas_of(block2).len(), 1);
        assert!(nn2.is_live(nn2.replicas_of(block2)[0]));
    }

    #[test]
    fn placement_skips_dead_nodes_and_rejoined_nodes_return() {
        let mut nn = namenode(1, 4); // replication 3 over 4 nodes
        let mut r = rng();
        nn.decommission(NodeId(2));
        let id = nn
            .create_file("/live", MIB, Some(NodeId(2)), &mut r)
            .unwrap();
        let block = nn.file(id).unwrap().blocks[0];
        // The dead writer cannot hold the first replica.
        assert!(!nn.replicas_of(block).contains(&NodeId(2)));
        assert_eq!(nn.replicas_of(block).len(), 3, "3 live nodes remain");
        nn.rejoin(NodeId(2));
        let id2 = nn
            .create_file("/back", MIB, Some(NodeId(2)), &mut r)
            .unwrap();
        let block2 = nn.file(id2).unwrap().blocks[0];
        assert_eq!(nn.replicas_of(block2)[0], NodeId(2));
    }

    #[test]
    fn failed_create_uses_up_its_ids_and_later_files_still_resolve() {
        let mut nn = namenode(1, 2);
        let mut r = rng();
        let first = nn.create_file("/a", MIB, Some(NodeId(0)), &mut r).unwrap();
        nn.decommission(NodeId(0));
        nn.decommission(NodeId(1));
        // Placement fails on the first block: the file and block ids are
        // used up, the path and the file never appear, and the block keeps
        // its metadata with no replicas.
        assert_eq!(
            nn.create_file("/b", 300 * MIB, Some(NodeId(0)), &mut r),
            Err(DfsError::NoDataNodes)
        );
        assert!(nn.lookup("/b").is_none());
        assert!(nn.file(FileId(2)).is_none());
        assert_eq!(nn.paths.len(), 1);
        let stranded = nn.block(BlockId(2)).expect("placed before placement");
        assert_eq!((stranded.file, stranded.index), (FileId(2), 0));
        assert!(nn.replicas_of(BlockId(2)).is_empty());
        assert!(nn.block(BlockId(3)).is_none());
        assert!(nn.block(BlockId(0)).is_none() && nn.file(FileId(0)).is_none());

        nn.rejoin(NodeId(0));
        nn.rejoin(NodeId(1));
        let third = nn
            .create_file("/c", 200 * MIB, Some(NodeId(1)), &mut r)
            .unwrap();
        assert_eq!(third, FileId(3));
        let meta = nn.lookup("/c").unwrap();
        assert_eq!(meta.blocks, vec![BlockId(3), BlockId(4)]);
        for (i, b) in meta.blocks.iter().enumerate() {
            let block = nn.block(*b).unwrap();
            assert_eq!((block.id, block.file, block.index), (*b, third, i as u32));
            assert_eq!(nn.replicas_of(*b)[0], NodeId(1));
        }
        assert_eq!(nn.file(first).unwrap().path, "/a");
        assert_eq!(nn.paths.len(), 2);
        // The failed path is free for a later create.
        assert_eq!(nn.create_file("/b", MIB, None, &mut r).unwrap(), FileId(4));
        assert_eq!(nn.paths.len(), 3);
    }

    #[test]
    fn empty_topology_cannot_store_files() {
        let mut nn = NameNode::new(Topology::new(), MIB, 1);
        assert!(matches!(
            nn.create_file("/f", MIB, None, &mut rng()),
            Err(DfsError::NoDataNodes)
        ));
    }
}
