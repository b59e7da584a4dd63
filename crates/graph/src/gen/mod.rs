//! Synthetic network generators.
//!
//! The paper evaluates on SNAP/KONECT snapshots that are not shipped with
//! this repository; these generators produce structurally comparable
//! stand-ins (the rationale is in the [`datasets`] module docs). All generators are deterministic for a
//! given seed and return a [`crate::GraphBuilder`] so the caller picks the
//! edge-weight model.

pub mod datasets;

mod barabasi_albert;
mod erdos_renyi;
mod rmat;
mod watts_strogatz;

pub use barabasi_albert::barabasi_albert;
pub use erdos_renyi::erdos_renyi;
pub use rmat::{rmat, RmatParams};
pub use watts_strogatz::watts_strogatz;

/// How generators that conceptually produce *undirected* edges emit arcs
/// into the directed influence graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Orientation {
    /// Each undirected edge becomes one arc with a random direction.
    #[default]
    RandomSingle,
    /// Each undirected edge becomes two opposite arcs — the paper's
    /// treatment of Orkut and Friendster ("we replace each edge by two
    /// oppositely directed edges").
    Symmetric,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WeightModel;

    #[test]
    fn generators_are_deterministic() {
        let a = erdos_renyi(100, 400, 7).build(WeightModel::Constant(0.1)).unwrap();
        let b = erdos_renyi(100, 400, 7).build(WeightModel::Constant(0.1)).unwrap();
        let ea: Vec<_> = a.arcs().collect();
        let eb: Vec<_> = b.arcs().collect();
        assert_eq!(ea, eb);

        let a = barabasi_albert(200, 3, Orientation::Symmetric, 11)
            .build(WeightModel::WeightedCascade)
            .unwrap();
        let b = barabasi_albert(200, 3, Orientation::Symmetric, 11)
            .build(WeightModel::WeightedCascade)
            .unwrap();
        assert_eq!(a.num_arcs(), b.num_arcs());
    }

    #[test]
    fn different_seeds_differ() {
        let a = erdos_renyi(100, 400, 1).build(WeightModel::Constant(0.1)).unwrap();
        let b = erdos_renyi(100, 400, 2).build(WeightModel::Constant(0.1)).unwrap();
        let ea: Vec<_> = a.arcs().collect();
        let eb: Vec<_> = b.arcs().collect();
        assert_ne!(ea, eb);
    }
}
