//! Pool builders shared by the selection unit tests.

use sns_diffusion::RrMeta;
use sns_graph::NodeId;

use crate::RrCollection;

/// A pool holding `sets` over `n` nodes; each set's first member is its
/// root, as the samplers store them.
pub fn pool(sets: &[&[NodeId]], n: u32) -> RrCollection {
    let mut rc = RrCollection::new(n);
    for s in sets {
        rc.push(s, RrMeta { root: s.first().copied().unwrap_or(0), edges_examined: 0 });
    }
    rc
}

/// A seeded random pool of `sets` root-first sets of 1–5 distinct nodes.
pub fn random_pool(seed: u64, n: u32, sets: usize) -> RrCollection {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut rc = RrCollection::new(n);
    for _ in 0..sets {
        let len = rng.gen_range(1..6usize);
        let root = rng.gen_range(0..n);
        let mut s = vec![root];
        for _ in 1..len {
            let v = rng.gen_range(0..n);
            if !s.contains(&v) {
                s.push(v);
            }
        }
        rc.push(&s, RrMeta { root, edges_examined: 0 });
    }
    rc
}
