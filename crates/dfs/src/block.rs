//! Blocks and files.
//!
//! HDFS stores files as a sequence of fixed-size blocks (128 MB by default in
//! Hadoop 1 era deployments, 512 MB in the paper's single-block inputs), each
//! replicated on several DataNodes. Map tasks consume one *input split*,
//! which in the common case corresponds to one block.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a stored block.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub u64);

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk_{}", self.0)
    }
}

/// Identifier of a file in the namespace.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct FileId(pub u64);

/// Metadata for one block.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Block {
    /// The block's identifier.
    pub(crate) id: BlockId,
    /// The file this block belongs to.
    pub(crate) file: FileId,
    /// Index of this block within the file.
    pub(crate) index: u32,
    /// Size in bytes (the last block of a file may be short).
    pub size: u64,
}

/// Metadata for one file.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FileMeta {
    /// The file's identifier.
    pub(crate) id: FileId,
    /// Path in the simulated namespace (e.g. `/user/test/input-512mb`).
    pub(crate) path: String,
    /// Total length in bytes.
    pub(crate) len: u64,
    /// Block size used when the file was written.
    pub(crate) block_size: u64,
    /// Replication factor requested for the file.
    pub(crate) replication: u32,
    /// The file's blocks, in order.
    pub blocks: Vec<BlockId>,
}

/// Splits a file of `len` bytes into block sizes of at most `block_size`.
pub(crate) fn split_into_blocks(len: u64, block_size: u64) -> Vec<u64> {
    assert!(block_size > 0, "block size must be positive");
    if len == 0 {
        return Vec::new();
    }
    let full = len / block_size;
    let rem = len % block_size;
    let mut sizes = vec![block_size; full as usize];
    if rem > 0 {
        sizes.push(rem);
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_sim::MIB;

    #[test]
    fn exact_multiple_has_no_tail() {
        assert_eq!(split_into_blocks(512 * MIB, 128 * MIB), vec![128 * MIB; 4]);
    }

    #[test]
    fn remainder_becomes_short_tail_block() {
        let sizes = split_into_blocks(300 * MIB, 128 * MIB);
        assert_eq!(sizes, vec![128 * MIB, 128 * MIB, 44 * MIB]);
        assert_eq!(sizes.iter().sum::<u64>(), 300 * MIB);
    }

    #[test]
    fn small_file_is_a_single_block() {
        assert_eq!(split_into_blocks(1, 128 * MIB), vec![1]);
        assert_eq!(split_into_blocks(0, 128 * MIB), Vec::<u64>::new());
    }

    #[test]
    #[should_panic]
    fn zero_block_size_panics() {
        split_into_blocks(10, 0);
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", BlockId(7)), "blk_7");
    }
}
