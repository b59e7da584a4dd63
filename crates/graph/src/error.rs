//! Error type shared by graph construction, IO and sampling helpers.

use std::fmt;

/// Errors produced while building, loading or validating a [`crate::Graph`].
#[derive(Debug)]
#[non_exhaustive]
pub enum GraphError {
    /// The builder contained no nodes.
    EmptyGraph,
    /// An edge referenced a node id `>= num_nodes` after the node count was
    /// fixed with [`crate::GraphBuilder::set_num_nodes`].
    NodeOutOfRange {
        /// The offending node id.
        node: crate::NodeId,
        /// The fixed node count.
        num_nodes: u32,
    },
    /// An edge weight was outside `[0, 1]` or not finite.
    InvalidWeight {
        /// Source of the offending edge.
        from: crate::NodeId,
        /// Target of the offending edge.
        to: crate::NodeId,
        /// The offending weight.
        weight: f32,
    },
    /// The total incoming weight of a node exceeds 1, violating the Linear
    /// Threshold model's requirement `Σ_u w(u,v) ≤ 1`.
    LtWeightOverflow {
        /// The node whose in-weights overflow.
        node: crate::NodeId,
        /// The offending total.
        sum: f64,
    },
    /// A discrete distribution summed to zero (or was empty) where a
    /// positive total was required, e.g. in [`crate::AliasTable::new`].
    ZeroTotalWeight,
    /// A per-node vector (e.g. root weights) does not have one entry per
    /// node.
    LengthMismatch {
        /// The node count the vector must match.
        expected: usize,
        /// The vector's length.
        found: usize,
    },
    /// Text edge-list parsing failed.
    Parse {
        /// 1-based line number in the input.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// Binary graph file was malformed or of an unsupported version.
    BadFormat(String),
    /// Underlying IO failure.
    Io(std::io::Error),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::EmptyGraph => write!(f, "graph has no nodes"),
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node id {node} out of range (num_nodes = {num_nodes})")
            }
            GraphError::InvalidWeight { from, to, weight } => {
                write!(f, "edge ({from} -> {to}) has invalid weight {weight}; expected finite value in [0, 1]")
            }
            GraphError::LtWeightOverflow { node, sum } => {
                write!(f, "node {node} has total incoming weight {sum:.6} > 1, violating the LT model constraint")
            }
            GraphError::ZeroTotalWeight => {
                write!(f, "distribution has zero total weight; nothing to sample")
            }
            GraphError::LengthMismatch { expected, found } => {
                write!(f, "per-node vector has {found} entries for {expected} nodes")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::BadFormat(msg) => write!(f, "bad graph file: {msg}"),
            GraphError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GraphError::NodeOutOfRange { node: 7, num_nodes: 3 };
        let s = e.to_string();
        assert!(s.contains('7') && s.contains('3'));

        let e = GraphError::LtWeightOverflow { node: 1, sum: 1.5 };
        assert!(e.to_string().contains("1.5"));

        let e = GraphError::LengthMismatch { expected: 4, found: 1 };
        assert!(e.to_string().contains("1 entries for 4 nodes"));

        let e = GraphError::Parse { line: 4, message: "bad token".into() };
        assert!(e.to_string().contains("line 4"));
    }

    #[test]
    fn io_error_converts_and_sources() {
        use std::error::Error;
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e: GraphError = io.into();
        assert!(e.source().is_some());
    }
}
