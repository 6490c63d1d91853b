//! # mrp-dfs — a simulated HDFS
//!
//! Models the parts of HDFS the paper's evaluation touches: a namespace of
//! files split into blocks, replica placement over a racked topology, the
//! locality of a replica to a reader, and re-replication after DataNode
//! loss.
//!
//! The paper's workload stores two single-block 512 MB files, so the common
//! path here is trivial — but the engine and the schedulers built on top are
//! written against the general API (multi-block files, multi-node clusters,
//! replica loss), which the multi-job examples and the resume-locality
//! ablation exercise.
//!
//! ```
//! use mrp_dfs::{Locality, NameNode, NodeId, Topology};
//! use mrp_sim::{SimRng, MIB};
//!
//! let mut namenode = NameNode::new(Topology::single_rack(4), 128 * MIB, 3);
//! let mut rng = SimRng::new(42);
//! let file = namenode
//!     .create_file("/user/test/input-512mb", 512 * MIB, Some(NodeId(0)), &mut rng)
//!     .unwrap();
//! let blocks = &namenode.lookup("/user/test/input-512mb").unwrap().blocks;
//! assert_eq!(blocks.len(), 4);
//! // The first replica of every block lands on the writer's node.
//! let first = namenode.replicas_of(blocks[0])[0];
//! assert_eq!(first, NodeId(0));
//! assert_eq!(namenode.topology().locality(NodeId(0), first), Locality::NodeLocal);
//! assert_eq!(namenode.block(blocks[3]).unwrap().size, 128 * MIB);
//! ```

#![warn(missing_docs, unreachable_pub)]
#![deny(unsafe_code)]

mod block;
mod namenode;
mod topology;

pub use block::{Block, BlockId, FileId, FileMeta};
pub use namenode::{DfsError, NameNode, ReplicationRepair};
pub use topology::{Locality, NodeId, RackId, Topology};

#[cfg(test)]
mod randomized_tests {
    //! Property-style tests driven by seeded randomization (the container has
    //! no proptest); fixed seeds keep every failure reproducible.

    use super::*;
    use crate::block::split_into_blocks;
    use mrp_sim::{SimRng, MIB};

    /// Block sizes always sum to the file length and never exceed the
    /// configured block size.
    #[test]
    fn block_split_conserves_length() {
        let mut rng = SimRng::new(0xDF5_001);
        for _ in 0..64 {
            let len = rng.next_u64() % (64 * 1024 * 1024 * 1024);
            let bs = (1 + rng.index(1023) as u64) * MIB;
            let sizes = split_into_blocks(len, bs);
            assert_eq!(sizes.iter().sum::<u64>(), len);
            assert!(sizes.iter().all(|s| *s > 0 && *s <= bs));
        }
    }

    /// Every created file is readable: each block has at least one replica,
    /// all replicas are distinct registered nodes, and the first is the
    /// writer.
    #[test]
    fn files_are_always_readable() {
        for seed in 0..64u64 {
            let mut meta_rng = SimRng::new(0xDF5_002 + seed);
            let racks = 1 + meta_rng.index(3) as u32;
            let per_rack = 1 + meta_rng.index(4) as u32;
            let len_mib = 1 + meta_rng.index(4095) as u64;
            let replication = 1 + meta_rng.index(3) as u32;
            let topo = Topology::regular(racks, per_rack);
            let nodes: Vec<NodeId> = (0..topo.len()).filter_map(|i| topo.node_at(i)).collect();
            let mut nn = NameNode::new(topo, 128 * MIB, replication);
            let mut rng = SimRng::new(seed);
            let writer = nodes[(seed as usize) % nodes.len()];
            let id = nn
                .create_file("/f", len_mib * MIB, Some(writer), &mut rng)
                .unwrap();
            let meta = nn.file(id).unwrap().clone();
            for block in &meta.blocks {
                let replicas = nn.replicas_of(*block).to_vec();
                assert!(!replicas.is_empty());
                assert!(replicas.iter().all(|r| nodes.contains(r)));
                // replicas must be distinct
                let mut uniq = replicas.clone();
                uniq.sort();
                uniq.dedup();
                assert_eq!(uniq.len(), replicas.len());
                // first replica is writer-local
                assert_eq!(replicas[0], writer);
            }
        }
    }

    /// Locality is symmetric in rack membership and node-local only for
    /// identical nodes.
    #[test]
    fn locality_properties() {
        let mut rng = SimRng::new(0xDF5_003);
        for _ in 0..200 {
            let racks = 1 + rng.index(4) as u32;
            let per_rack = 1 + rng.index(4) as u32;
            let topo = Topology::regular(racks, per_rack);
            let n = racks * per_rack;
            let a = NodeId(rng.index(25) as u32 % n);
            let b = NodeId(rng.index(25) as u32 % n);
            let ab = topo.locality(a, b);
            let ba = topo.locality(b, a);
            assert_eq!(ab, ba);
            if a == b {
                assert_eq!(ab, Locality::NodeLocal);
            } else {
                assert!(ab != Locality::NodeLocal);
            }
        }
    }
}
