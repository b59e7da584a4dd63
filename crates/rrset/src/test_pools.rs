//! Pool builders shared by the selection unit tests.

use sns_graph::NodeId;

use crate::RrCollection;

/// A pool holding `sets` over `n` nodes as one sealed epoch; each set's
/// first member is its root, as the samplers store them.
pub fn pool(sets: &[&[NodeId]], n: u32) -> RrCollection {
    let mut rc = RrCollection::new(n);
    rc.append_epoch(sets, 0).expect("test sets name nodes below n");
    rc
}

/// A seeded random pool of `sets` root-first sets of 1–5 distinct nodes,
/// sealed as one epoch.
pub fn random_pool(seed: u64, n: u32, sets: usize) -> RrCollection {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut all = Vec::with_capacity(sets);
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
        all.push(s);
    }
    let refs: Vec<&[NodeId]> = all.iter().map(Vec::as_slice).collect();
    pool(&refs, n)
}
