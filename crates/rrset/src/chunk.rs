//! The pool's storage unit: one sealed epoch's sets.
//!
//! A chunk holds its sets' nodes back to back and each set's end,
//! rebased to the chunk start behind a leading 0 — a set-CSR in the
//! width-adaptive [`CsrOffsets`] (`u32` while the chunk holds under 2³²
//! entries). Both arrays are built once at exact size and never written
//! again, so pools share chunks by `Arc`, and a chunk is exactly a store
//! segment's layout.

use sns_graph::{GraphError, NodeId};

use crate::index::CsrOffsets;

/// One sealed epoch's sets (see the module docs).
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Chunk {
    /// The sets' nodes, back to back, at exact capacity.
    pub(crate) data: Vec<NodeId>,
    /// Set `i` spans `data[ends.span(i)]`; one more end than sets.
    pub(crate) ends: CsrOffsets,
}

impl Chunk {
    /// Lays `sets` out back to back at exact size, checking every node
    /// id against the universe size `n` in the same pass.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfRange`] naming the largest id if it is
    /// `n` or more.
    pub(crate) fn from_sets(sets: &[&[NodeId]], n: u32) -> Result<Chunk, GraphError> {
        let mut data = Vec::with_capacity(sets.iter().map(|s| s.len()).sum());
        let mut ends = Vec::with_capacity(sets.len() + 1);
        ends.push(0u64);
        let mut max_id = 0;
        for rr in sets {
            data.extend(rr.iter().map(|&v| {
                max_id = max_id.max(v);
                v
            }));
            ends.push(data.len() as u64);
        }
        if !data.is_empty() && max_id >= n {
            return Err(GraphError::NodeOutOfRange { node: max_id, num_nodes: n });
        }
        Ok(Chunk { data, ends: CsrOffsets::from_wide(ends) })
    }

    /// Joins sampling workers' batches, in worker order, into one chunk.
    /// A single batch's nodes move in, shrunk to fit; several are
    /// concatenated at exact size — the one copy of a parallel growth.
    pub(crate) fn from_batches(mut batches: Vec<(Vec<NodeId>, CsrOffsets)>) -> Chunk {
        let ends = CsrOffsets::concat(&batches.iter().map(|b| &b.1).collect::<Vec<_>>());
        let data = match batches.as_mut_slice() {
            [(data, _)] => {
                let mut data = std::mem::take(data);
                data.shrink_to_fit();
                data
            }
            all => all.iter().map(|b| b.0.as_slice()).collect::<Vec<_>>().concat(),
        };
        Chunk { data, ends }
    }

    /// Number of sets.
    pub(crate) fn len(&self) -> usize {
        self.ends.num_slots()
    }

    /// The nodes of local set `i`.
    #[inline]
    pub(crate) fn set(&self, i: usize) -> &[NodeId] {
        &self.data[self.ends.span(i)]
    }

    /// Bytes held, counting capacities.
    pub(crate) fn memory_bytes(&self) -> u64 {
        (self.data.capacity() * std::mem::size_of::<NodeId>()) as u64 + self.ends.memory_bytes()
    }
}
