//! Failure injection and boundary-condition tests across the stack.

use stop_and_stare::graph::{gen, io, GraphBuilder, GraphError, WeightModel};
use stop_and_stare::{Dssa, Model, Params, SamplingContext, Ssa};

/// Malformed inputs fail loudly with actionable errors, never panic.
#[test]
fn malformed_edge_lists_are_rejected() {
    for (text, expect_line) in [
        ("0\n", 1usize),
        ("0 1 0.5\n0 x\n", 2),
        ("0 1 2.5e400\n", 1), // weight overflows f32 parse -> inf, caught at build or parse
        ("a b\n", 1),
    ] {
        match io::read_edge_list(text.as_bytes()) {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, expect_line, "{text:?}"),
            Ok(builder) => {
                // the inf-weight case parses (f32: inf) and must then be
                // rejected at build time
                assert!(
                    builder.build(WeightModel::Provided).is_err(),
                    "{text:?} should fail somewhere"
                );
            }
            Err(other) => panic!("{text:?}: unexpected error {other}"),
        }
    }
}

/// Graphs with isolated nodes, sink-only nodes and zero-weight edges are
/// all legal and the algorithms behave sensibly on them.
#[test]
fn degenerate_graphs_run_cleanly() {
    // 10 nodes, one dead (p = 0) edge, eight isolated nodes.
    let mut b = GraphBuilder::new();
    b.set_num_nodes(10);
    b.add_edge(0, 1, 0.0);
    let g = b.build(WeightModel::Provided).unwrap();

    let params = Params::new(3, 0.3, 0.1).unwrap();
    for model in [Model::IndependentCascade, Model::LinearThreshold] {
        let ctx = SamplingContext::new(&g, model).with_seed(1);
        let r = Dssa::new(params).run(&ctx).unwrap();
        assert_eq!(r.seeds.len(), 3);
        // every node influences exactly itself: Î ≈ k
        assert!((r.influence_estimate - 3.0).abs() < 1.0, "{model}: Î = {}", r.influence_estimate);
    }
}

/// k ≥ n: all nodes are returned, no panic, estimate ≈ n on a dead graph.
#[test]
fn k_larger_than_n() {
    let mut b = GraphBuilder::new();
    b.set_num_nodes(4);
    b.add_edge(0, 1, 0.0);
    let g = b.build(WeightModel::Provided).unwrap();
    let params = Params::new(100, 0.3, 0.1).unwrap();
    let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(1);
    for r in [Ssa::new(params).run(&ctx).unwrap(), Dssa::new(params).run(&ctx).unwrap()] {
        let mut seeds = r.seeds.clone();
        seeds.sort_unstable();
        assert_eq!(seeds, vec![0, 1, 2, 3]);
    }
}

/// Parameter validation rejects out-of-domain (k, ε, δ) combinations.
#[test]
fn parameter_domain_enforced() {
    assert!(Params::new(0, 0.1, 0.1).is_err());
    assert!(Params::new(1, -0.1, 0.1).is_err());
    assert!(Params::new(1, 0.1, 1.5).is_err());
    // ε beyond 1 − 1/e makes the guarantee vacuous
    assert!(Params::new(1, 0.64, 0.1).is_err());
    // boundary-adjacent values are accepted
    assert!(Params::new(1, 0.63, 0.999).is_ok());
    assert!(Params::new(1, 1e-6, 1e-12).is_ok());
}

/// LT reverse walks require Σ w(u,v) ≤ 1; a graph violating it is
/// detectable, and normalize_for_lt repairs it.
#[test]
fn lt_constraint_detection_and_repair() {
    let mut b = GraphBuilder::new();
    b.add_edge(0, 2, 0.9);
    b.add_edge(1, 2, 0.9);
    let g = b.clone().build(WeightModel::Provided).unwrap();
    assert!(!g.lt_compatible());

    b.normalize_for_lt(true);
    let g = b.build(WeightModel::Provided).unwrap();
    assert!(g.lt_compatible());
    // and LT algorithms run on the repaired graph
    let params = Params::new(1, 0.3, 0.1).unwrap();
    let ctx = SamplingContext::new(&g, Model::LinearThreshold).with_seed(4);
    assert_eq!(Dssa::new(params).run(&ctx).unwrap().seeds.len(), 1);
}

/// Extreme ε/δ near their boundaries still terminate (via cap or
/// conditions) on a small graph.
#[test]
fn boundary_epsilon_delta_terminate() {
    let g = gen::erdos_renyi(60, 240, 3).build(WeightModel::WeightedCascade).unwrap();
    // very lax: huge ε (close to limit), huge δ
    let lax = Params::new(2, 0.6, 0.9).unwrap();
    // strict-ish but tiny graph keeps it fast
    let strict = Params::new(2, 0.05, 1e-6).unwrap();
    for params in [lax, strict] {
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(8);
        let r = Dssa::new(params).run(&ctx).unwrap();
        assert_eq!(r.seeds.len(), 2);
    }
}

/// Binary graph round-trip composes with the full algorithm stack.
#[test]
fn io_roundtrip_then_run() {
    let g = gen::rmat(500, 3000, gen::RmatParams::GRAPH500, 6)
        .build(WeightModel::WeightedCascade)
        .unwrap();
    let mut buf = Vec::new();
    io::write_binary(&g, &mut buf).unwrap();
    let g2 = io::read_binary(&buf[..]).unwrap();

    let params = Params::new(5, 0.3, 0.1).unwrap();
    let r1 = Dssa::new(params)
        .run(&SamplingContext::new(&g, Model::IndependentCascade).with_seed(3))
        .unwrap();
    let r2 = Dssa::new(params)
        .run(&SamplingContext::new(&g2, Model::IndependentCascade).with_seed(3))
        .unwrap();
    assert_eq!(r1.seeds, r2.seeds, "round-tripped graph must behave identically");
}

/// Fault injection against the persistent pool store: truncations at
/// every section boundary, single-bit flips, manifest deletion, version
/// skew in both directions, stale temp files. Every fault must surface
/// as a typed [`stop_and_stare::StoreError`] from the strict loader and
/// either a typed error or a *verified* valid-prefix recovery from the
/// recovering loader — never a panic, never silently wrong answers.
// Test-only reference model keyed by query id; iteration order is never
// observed, so hash order cannot reach an assertion.
#[allow(clippy::disallowed_types)]
mod store_faults {
    use std::collections::HashMap;
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::sync::{Arc, OnceLock};

    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use stop_and_stare::graph::{fnv64, gen, Graph, WeightModel};
    use stop_and_stare::rrset::RrCollection;
    use stop_and_stare::{
        Model, PoolStore, Recovery, SamplingContext, SeedAnswer, SeedQuery, SeedQueryEngine,
    };

    const MANIFEST: &str = "MANIFEST";
    const SEG0: &str = "epoch-00000.rr";
    const SEG1: &str = "epoch-00001.rr";
    const SEG2: &str = "epoch-00002.rr";
    /// 300 + 200 + 100 sets across three sealed epochs.
    const TOTAL_SETS: u64 = 600;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sns-store-faults-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_graph() -> Graph {
        gen::erdos_renyi(200, 1000, 33).build(WeightModel::WeightedCascade).unwrap()
    }

    /// Rewrite `file` inside `dir` through a byte-level mutator.
    fn patch(dir: &Path, file: &str, mutate: impl FnOnce(&mut Vec<u8>)) {
        let path = dir.join(file);
        let mut bytes = fs::read(&path).unwrap();
        mutate(&mut bytes);
        fs::write(&path, &bytes).unwrap();
    }

    fn flip_bit(dir: &Path, file: &str, at: usize) {
        patch(dir, file, |b| {
            let i = at.min(b.len() - 1);
            b[i] ^= 0x01;
        });
    }

    fn truncate_to(dir: &Path, file: &str, len: usize) {
        patch(dir, file, |b| b.truncate(len.min(b.len())));
    }

    /// Overwrite the little-endian `u32` version field at offset 4.
    fn set_version(dir: &Path, file: &str, version: u32) {
        patch(dir, file, |b| b[4..8].copy_from_slice(&version.to_le_bytes()));
    }

    /// Reset `dst` to a byte-exact copy of the pristine store in `src`.
    fn restore(src: &Path, dst: &Path) {
        let _ = fs::remove_dir_all(dst);
        fs::create_dir_all(dst).unwrap();
        for entry in fs::read_dir(src).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }

    /// ≥ 30 distinct faults; each must yield a typed strict-load error and
    /// a recovery outcome whose surviving prefix answers bit-identically
    /// to a pool sampled directly to that prefix.
    #[test]
    fn corruption_sweep_never_panics_and_recovers_valid_prefixes() {
        let g = small_graph();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(33);

        let mut baked = SeedQueryEngine::sample(&ctx, 300);
        baked.extend(&ctx, 200);
        baked.extend(&ctx, 100);
        assert_eq!(baked.pool().epoch_boundaries(), &[300, 500, 600]);

        let pristine = scratch("pristine");
        baked.save(&pristine).unwrap();
        let probe = SeedQuery::top_k(3);

        // Reference answers for every epoch prefix a recovery can return:
        // a prefix of the stored pool must answer exactly like a pool
        // sampled from scratch to the same length (determinism pins the
        // per-sample RNG streams to sample indices, not pool history).
        let mut reference: HashMap<u64, SeedAnswer> = HashMap::new();
        reference.insert(TOTAL_SETS, baked.answer(&probe).unwrap());
        for kept in [300u64, 500] {
            reference.insert(kept, SeedQueryEngine::sample(&ctx, kept).answer(&probe).unwrap());
        }

        let seg1_len = fs::metadata(pristine.join(SEG1)).unwrap().len() as usize;
        let man_len = fs::metadata(pristine.join(MANIFEST)).unwrap().len() as usize;

        // Segment layout: magic[0..4] version[4..8] epoch[8..12]
        // start[12..16] sets[16..20] entries[20..28] edges[28..36]
        // width[36..40] | offsets | node data | checksum[-12..-4] magic[-4..].
        // Manifest: magic version fingerprint … epoch table checksum[-8..].
        type Fault = Box<dyn Fn(&Path)>;
        let faults: Vec<(&'static str, Fault)> = vec![
            // -- segment truncation at every section boundary --
            ("seg: empty file", Box::new(|d: &Path| truncate_to(d, SEG1, 0))),
            ("seg: cut after magic", Box::new(|d: &Path| truncate_to(d, SEG1, 4))),
            ("seg: cut after version", Box::new(|d: &Path| truncate_to(d, SEG1, 8))),
            ("seg: cut inside header", Box::new(|d: &Path| truncate_to(d, SEG1, 39))),
            ("seg: header only", Box::new(|d: &Path| truncate_to(d, SEG1, 40))),
            ("seg: cut after offsets", Box::new(|d: &Path| truncate_to(d, SEG1, 40 + 200 * 4))),
            (
                "seg: cut before footer",
                Box::new(move |d: &Path| truncate_to(d, SEG1, seg1_len - 12)),
            ),
            (
                "seg: cut before end magic",
                Box::new(move |d: &Path| truncate_to(d, SEG1, seg1_len - 4)),
            ),
            ("seg: one byte short", Box::new(move |d: &Path| truncate_to(d, SEG1, seg1_len - 1))),
            // -- segment bit flips, field by field --
            ("seg: flip magic", Box::new(|d: &Path| flip_bit(d, SEG1, 0))),
            (
                "seg: version 1 -> 0 (file older than reader)",
                Box::new(|d: &Path| set_version(d, SEG1, 0)),
            ),
            (
                "seg: version 1 -> 2 (file newer than reader)",
                Box::new(|d: &Path| set_version(d, SEG1, 2)),
            ),
            ("seg: flip epoch id", Box::new(|d: &Path| flip_bit(d, SEG1, 8))),
            ("seg: flip start boundary", Box::new(|d: &Path| flip_bit(d, SEG1, 12))),
            ("seg: flip set count", Box::new(|d: &Path| flip_bit(d, SEG1, 16))),
            ("seg: flip entry count", Box::new(|d: &Path| flip_bit(d, SEG1, 20))),
            ("seg: flip edges delta", Box::new(|d: &Path| flip_bit(d, SEG1, 28))),
            ("seg: flip offset width", Box::new(|d: &Path| flip_bit(d, SEG1, 36))),
            ("seg: flip first offset", Box::new(|d: &Path| flip_bit(d, SEG1, 40))),
            ("seg: flip payload byte", Box::new(move |d: &Path| flip_bit(d, SEG1, seg1_len / 2))),
            (
                "seg: flip stored checksum",
                Box::new(move |d: &Path| flip_bit(d, SEG1, seg1_len - 12)),
            ),
            ("seg: flip end magic", Box::new(move |d: &Path| flip_bit(d, SEG1, seg1_len - 1))),
            // -- segment structural damage --
            ("seg: trailing garbage", Box::new(|d: &Path| patch(d, SEG1, |b| b.push(0xAB)))),
            (
                "seg: zero length with intact manifest",
                Box::new(|d: &Path| fs::write(d.join(SEG1), b"").unwrap()),
            ),
            ("seg: epoch 1 deleted", Box::new(|d: &Path| fs::remove_file(d.join(SEG1)).unwrap())),
            (
                "seg: epoch 0 deleted (no prefix survives)",
                Box::new(|d: &Path| fs::remove_file(d.join(SEG0)).unwrap()),
            ),
            (
                "seg: files swapped",
                Box::new(|d: &Path| {
                    let a = fs::read(d.join(SEG0)).unwrap();
                    let b = fs::read(d.join(SEG1)).unwrap();
                    fs::write(d.join(SEG0), &b).unwrap();
                    fs::write(d.join(SEG1), &a).unwrap();
                }),
            ),
            // -- manifest damage (always a hard error: the epoch table
            //    itself can no longer be trusted) --
            ("manifest: deleted", Box::new(|d: &Path| fs::remove_file(d.join(MANIFEST)).unwrap())),
            ("manifest: empty file", Box::new(|d: &Path| truncate_to(d, MANIFEST, 0))),
            ("manifest: cut after magic", Box::new(|d: &Path| truncate_to(d, MANIFEST, 4))),
            ("manifest: cut after version", Box::new(|d: &Path| truncate_to(d, MANIFEST, 8))),
            (
                "manifest: checksum stripped",
                Box::new(move |d: &Path| truncate_to(d, MANIFEST, man_len - 8)),
            ),
            (
                "manifest: one byte short",
                Box::new(move |d: &Path| truncate_to(d, MANIFEST, man_len - 1)),
            ),
            ("manifest: flip magic", Box::new(|d: &Path| flip_bit(d, MANIFEST, 0))),
            (
                "manifest: version 1 -> 2 (file newer than reader)",
                Box::new(|d: &Path| set_version(d, MANIFEST, 2)),
            ),
            (
                "manifest: version 1 -> 0 (file older than reader)",
                Box::new(|d: &Path| set_version(d, MANIFEST, 0)),
            ),
            ("manifest: flip fingerprint byte", Box::new(|d: &Path| flip_bit(d, MANIFEST, 12))),
            (
                "manifest: flip epoch table byte",
                Box::new(move |d: &Path| flip_bit(d, MANIFEST, man_len - 20)),
            ),
            (
                "manifest: flip checksum",
                Box::new(move |d: &Path| flip_bit(d, MANIFEST, man_len - 1)),
            ),
            (
                "manifest: trailing garbage",
                Box::new(|d: &Path| patch(d, MANIFEST, |b| b.extend_from_slice(b"junk"))),
            ),
        ];
        assert!(faults.len() >= 30, "sweep must cover >= 30 faults, has {}", faults.len());

        let dir = scratch("sweep");
        for (name, fault) in &faults {
            restore(&pristine, &dir);
            fault(&dir);

            let err = match SeedQueryEngine::from_store(&dir, &ctx) {
                Ok(_) => panic!("case {name:?}: strict load accepted a damaged store"),
                Err(e) => e,
            };
            assert!(!err.to_string().is_empty(), "case {name:?}: error must render");

            match SeedQueryEngine::from_store_recovering(&dir, &ctx) {
                Ok((engine, Recovery::Recovered { epochs_lost, sets_lost })) => {
                    assert!(epochs_lost >= 1, "case {name:?}: recovery must report losses");
                    let kept = TOTAL_SETS - sets_lost;
                    assert_eq!(
                        engine.pool().len() as u64,
                        kept,
                        "case {name:?}: prefix length mismatch"
                    );
                    if kept > 0 {
                        let got = engine.answer(&probe).unwrap();
                        let want = reference.get(&kept).unwrap_or_else(|| {
                            panic!("case {name:?}: {kept} sets is not an epoch prefix")
                        });
                        assert_eq!(
                            &got, want,
                            "case {name:?}: recovered prefix must answer bit-identically \
                             to a pool sampled to {kept} sets"
                        );
                    }
                }
                Ok((_, Recovery::Intact)) => {
                    panic!("case {name:?}: damaged store reported as intact")
                }
                Err(e) => {
                    assert!(!e.to_string().is_empty(), "case {name:?}: error must render")
                }
            }
        }

        let _ = fs::remove_dir_all(&pristine);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Leftover `.tmp` files from an interrupted commit are ignored by the
    /// loader and silently replaced by the next save.
    #[test]
    fn stale_temp_files_are_ignored() {
        let g = small_graph();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(9);
        let mut engine = SeedQueryEngine::sample(&ctx, 250);
        let dir = scratch("stale-tmp");
        engine.save(&dir).unwrap();

        fs::write(dir.join("MANIFEST.tmp"), b"half-written manifest junk").unwrap();
        fs::write(dir.join("epoch-00001.rr.tmp"), b"partial segment from a crash").unwrap();

        let probe = SeedQuery::top_k(4);
        let loaded = SeedQueryEngine::from_store(&dir, &ctx).unwrap();
        assert_eq!(loaded.answer(&probe).unwrap(), engine.answer(&probe).unwrap());

        // The next commit cycle overwrites the stale temps without error.
        engine.extend(&ctx, 150);
        engine.save(&dir).unwrap();
        let reloaded = SeedQueryEngine::from_store(&dir, &ctx).unwrap();
        assert_eq!(reloaded.answer(&probe).unwrap(), engine.answer(&probe).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Deterministic round trip across distinct epoch layouts: a saved
    /// pool answers bit-identically after reload, whatever the boundary
    /// structure was.
    #[test]
    fn round_trip_is_bit_identical_across_epoch_layouts() {
        let g = small_graph();
        let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(17);
        let queries = vec![
            SeedQuery::top_k(1),
            SeedQuery::top_k(5),
            SeedQuery::top_k(2).over_range(0..300),
            SeedQuery::top_k(3).with_excluded(vec![0, 1]),
        ];
        let layouts: [&[u64]; 5] =
            [&[600], &[300, 300], &[300, 200, 100], &[150, 150, 150, 150], &[450, 50, 50, 50]];
        for (i, layout) in layouts.iter().enumerate() {
            let mut live = SeedQueryEngine::sample(&ctx, layout[0]);
            for &count in &layout[1..] {
                live.extend(&ctx, count);
            }
            let dir = scratch(&format!("layout-{i}"));
            live.save(&dir).unwrap();
            let loaded = SeedQueryEngine::from_store(&dir, &ctx).unwrap();
            assert_eq!(
                live.answer_planned(&queries).unwrap(),
                loaded.answer_planned(&queries).unwrap(),
                "layout {layout:?} must round-trip bit-identically"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// save → load → extend → save → load pins bit-identical answers
        /// across randomized seeds and epoch layouts, and the second save
        /// reuses every epoch the first one committed.
        #[test]
        fn save_load_extend_save_load_pins_answers(
            seed in 0u64..64,
            epochs in proptest::collection::vec(40u64..160, 1..4),
            extra in 40u64..120,
        ) {
            let g = gen::erdos_renyi(120, 600, 11)
                .build(WeightModel::WeightedCascade)
                .unwrap();
            let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(seed);

            let mut live = SeedQueryEngine::sample(&ctx, epochs[0]);
            for &count in &epochs[1..] {
                live.extend(&ctx, count);
            }
            let dir = scratch(&format!("prop-{seed}-{}-{extra}", epochs.len()));
            let first = live.save(&dir).unwrap();

            let probe = SeedQuery::top_k(4);
            let mut reloaded = SeedQueryEngine::from_store(&dir, &ctx).unwrap();
            prop_assert_eq!(live.answer(&probe).unwrap(), reloaded.answer(&probe).unwrap());

            // Grow the *reloaded* engine and append-save: the incremental
            // path must reuse every epoch of the first commit verbatim.
            reloaded.extend(&ctx, extra);
            live.extend(&ctx, extra);
            let second = reloaded.save(&dir).unwrap();
            prop_assert_eq!(second.epochs_reused, first.epochs_written);
            prop_assert!(second.epochs_written >= 1);

            let again = SeedQueryEngine::from_store(&dir, &ctx).unwrap();
            prop_assert_eq!(live.answer(&probe).unwrap(), again.answer(&probe).unwrap());
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// The 3-epoch store of the corruption sweep (300 + 200 + 100 sets),
    /// held in memory as `(file name, bytes)`, plus the pool it was saved
    /// from. Baked once; every fuzz case writes a fresh copy.
    struct Pristine {
        files: Vec<(&'static str, Vec<u8>)>,
        pool: Arc<RrCollection>,
    }

    fn pristine() -> &'static Pristine {
        static PRISTINE: OnceLock<Pristine> = OnceLock::new();
        PRISTINE.get_or_init(|| {
            let g = small_graph();
            let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(33);
            let mut baked = SeedQueryEngine::sample(&ctx, 300);
            baked.extend(&ctx, 200);
            baked.extend(&ctx, 100);
            let dir = scratch("fuzz-pristine");
            baked.save(&dir).unwrap();
            let files = [MANIFEST, SEG0, SEG1, SEG2]
                .into_iter()
                .map(|name| (name, fs::read(dir.join(name)).unwrap()))
                .collect();
            fs::remove_dir_all(&dir).unwrap();
            Pristine { files, pool: baked.pool() }
        })
    }

    fn pristine_bytes(file: &str) -> Vec<u8> {
        let (_, bytes) = pristine().files.iter().find(|(name, _)| *name == file).unwrap();
        bytes.clone()
    }

    /// `loaded` must be an epoch prefix of the saved pool, set for set.
    fn check_prefix(loaded: &RrCollection) -> Result<(), TestCaseError> {
        let saved = &pristine().pool;
        let bounds = loaded.epoch_boundaries();
        prop_assert!(
            saved.epoch_boundaries().starts_with(bounds),
            "boundaries {:?} are not a prefix of {:?}",
            bounds,
            saved.epoch_boundaries()
        );
        prop_assert_eq!(loaded.len(), bounds.last().map_or(0, |&b| b as usize));
        for id in 0..loaded.len() {
            prop_assert_eq!(loaded.set(id), saved.set(id), "set {} differs", id);
        }
        Ok(())
    }

    /// Writes the pristine store with the `replaced` files swapped in and
    /// loads it through `PoolStore::load` and `PoolStore::load_recovering`.
    /// Neither may panic; each must return a typed error or a verified
    /// prefix of the saved pool. Unless the checksums were `forged`, a
    /// changed file must never load strictly and a changed manifest must
    /// never load at all.
    fn check_decoder(
        tag: &str,
        replaced: &[(&str, &[u8])],
        forged: bool,
    ) -> Result<(), TestCaseError> {
        let dir = scratch(tag);
        fs::create_dir_all(&dir).unwrap();
        for (name, original) in &pristine().files {
            let written =
                replaced.iter().find(|(file, _)| file == name).map_or(&original[..], |r| r.1);
            fs::write(dir.join(name), written).unwrap();
        }
        let store = PoolStore::at(&dir);
        let strict = store.load(1);
        let recovering = store.load_recovering(1);
        let _ = fs::remove_dir_all(&dir);

        let changed: Vec<&str> = replaced
            .iter()
            .filter(|(file, bytes)| *bytes != pristine_bytes(file))
            .map(|(file, _)| *file)
            .collect();
        match strict {
            Ok((pool, _)) => {
                prop_assert!(forged || changed.is_empty(), "{}: strict load of {:?}", tag, changed);
                check_prefix(&pool)?;
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
        match recovering {
            Ok((pool, _, recovery)) => {
                prop_assert!(
                    forged || !changed.contains(&MANIFEST),
                    "{}: recovered past a bad manifest",
                    tag
                );
                check_prefix(&pool)?;
                let lost = match recovery {
                    Recovery::Intact => 0,
                    Recovery::Recovered { sets_lost, .. } => sets_lost,
                };
                prop_assert_eq!(pool.len() as u64 + lost, TOTAL_SETS);
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
        Ok(())
    }

    /// Rewrites the footer checksum of epoch segment `epoch` and its
    /// manifest entry (file length, checksum) so that `segment` passes
    /// every checksum: the structural checks behind them then see the
    /// damaged header fields as if a save had written them.
    fn forge_checksums(epoch: usize, segment: &mut [u8]) -> Vec<u8> {
        let footer = segment.len() - 12;
        let checksum = fnv64(&segment[..footer]);
        segment[footer..footer + 8].copy_from_slice(&checksum.to_le_bytes());
        // Manifest tail: 3 entries of (boundary u32, edges u64, file_len
        // u64, checksum u64), then the manifest's own u64 checksum.
        let mut manifest = pristine_bytes(MANIFEST);
        let man_body = manifest.len() - 8;
        let entry = man_body - 28 * (3 - epoch);
        manifest[entry + 12..entry + 20].copy_from_slice(&(segment.len() as u64).to_le_bytes());
        manifest[entry + 20..entry + 28].copy_from_slice(&checksum.to_le_bytes());
        let sealed = fnv64(&manifest[..man_body]);
        manifest[man_body..].copy_from_slice(&sealed.to_le_bytes());
        manifest
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Arbitrary bytes as the `MANIFEST` of a valid store.
        #[test]
        fn store_decoder_survives_an_arbitrary_manifest(
            bytes in proptest::collection::vec(0u8..=255, 0..512),
        ) {
            check_decoder("fuzz-manifest", &[(MANIFEST, &bytes)], false)?;
        }

        /// Arbitrary bytes as one segment of a valid 3-epoch store.
        #[test]
        fn store_decoder_survives_an_arbitrary_segment(
            epoch in 0usize..3,
            bytes in proptest::collection::vec(0u8..=255, 0..512),
        ) {
            let file = [SEG0, SEG1, SEG2][epoch];
            check_decoder("fuzz-segment", &[(file, &bytes)], false)?;
        }

        /// A random splice (cut `cut` bytes at a random position, insert
        /// arbitrary bytes there) into one file of a valid store.
        #[test]
        fn store_decoder_survives_random_splices(
            file in 0usize..4,
            at in 0.0f64..1.0,
            cut in 0usize..48,
            insert in proptest::collection::vec(0u8..=255, 0..48),
        ) {
            let file = [MANIFEST, SEG0, SEG1, SEG2][file];
            let mut bytes = pristine_bytes(file);
            let pos = ((bytes.len() as f64 * at) as usize).min(bytes.len());
            let end = (pos + cut).min(bytes.len());
            bytes.splice(pos..end, insert);
            check_decoder("fuzz-splice", &[(file, &bytes)], false)?;
        }

        /// Arbitrary values in one header field or offset of segment 1,
        /// with every checksum forged to match: the decoder's structural
        /// cross-checks, not the checksums, must reject (or accept) it.
        #[test]
        fn store_decoder_survives_forged_segment_headers(
            field in 0usize..8,
            value in proptest::collection::vec(0u8..=255, 8),
        ) {
            // (offset, width) of epoch, start, sets, entries, edges
            // delta, offset width, and the first two set offsets.
            let (at, width) = [(8, 4), (12, 4), (16, 4), (20, 8), (28, 8), (36, 4), (40, 4), (44, 4)]
                [field];
            let mut segment = pristine_bytes(SEG1);
            segment[at..at + width].copy_from_slice(&value[..width]);
            let manifest = forge_checksums(1, &mut segment);
            check_decoder("fuzz-forged", &[(MANIFEST, &manifest), (SEG1, &segment)], true)?;
        }
    }
}

/// Empty and zero-weight TVM audiences are rejected; a one-node audience
/// works.
#[test]
fn tvm_weight_edge_cases() {
    use stop_and_stare::tvm::TargetWeights;
    let g = gen::erdos_renyi(50, 250, 2).build(WeightModel::WeightedCascade).unwrap();
    assert!(TargetWeights::from_weights(vec![0.0; 50]).is_err());
    assert!(TargetWeights::from_weights(vec![]).is_err());

    let mut w = vec![0.0; 50];
    w[17] = 2.5;
    let audience = TargetWeights::from_weights(w).unwrap();
    let params = Params::new(1, 0.3, 0.1).unwrap();
    let ctx = SamplingContext::new(&g, Model::IndependentCascade)
        .with_seed(4)
        .with_weighted_roots(audience.weights())
        .unwrap();
    let r = Dssa::new(params).run(&ctx).unwrap();
    assert_eq!(r.seeds.len(), 1);
    // the only mass is on node 17; influence can't exceed Γ = 2.5
    assert!(r.influence_estimate <= 2.5 + 1e-9);
}

/// `SeedQuery` robustness: no query a caller can build may panic the
/// engine. Every field is drawn from a table of edge values (k of 0, 1
/// and `usize::MAX`; NaN, infinite, negative, zero, tiny and huge
/// budgets; inverted, empty and out-of-bounds ranges; out-of-universe,
/// duplicate and overlapping forced/excluded seeds; wrong-length, NaN
/// and negative weights and costs; a topic without weights). Each query
/// is answered alone and through the batch planner, on a two-epoch
/// engine: both must agree on `Ok` — at most `n` distinct in-universe
/// seeds, none excluded, bit-identical on both paths — or both refuse it
/// with `CoreError::InvalidParams`.
mod seed_query_robustness {
    use std::sync::{Arc, OnceLock};

    use proptest::prelude::*;
    use stop_and_stare::core::CoreError;
    use stop_and_stare::graph::{gen, WeightModel};
    use stop_and_stare::{
        Model, NodeCosts, SamplingContext, SeedAnswer, SeedQuery, SeedQueryEngine,
    };

    const N: u32 = 40;
    const SETS: u32 = 500;

    fn engine() -> &'static SeedQueryEngine {
        static ENGINE: OnceLock<SeedQueryEngine> = OnceLock::new();
        ENGINE.get_or_init(|| {
            let g = gen::erdos_renyi(N, 200, 5).build(WeightModel::WeightedCascade).unwrap();
            let ctx = SamplingContext::new(&g, Model::IndependentCascade).with_seed(5);
            let mut e = SeedQueryEngine::sample(&ctx, 300);
            e.extend(&ctx, u64::from(SETS) - 300); // two epochs
            e
        })
    }

    const KS: [usize; 6] = [0, 1, 3, N as usize + 5, 1 << 40, usize::MAX];

    const BUDGETS: [Option<f64>; 10] = [
        Some(f64::NAN),
        Some(f64::INFINITY),
        Some(f64::NEG_INFINITY),
        Some(-1.0),
        Some(0.0),
        Some(1e-300),
        Some(0.5),
        Some(2.5),
        Some(1e300),
        Some(f64::MAX),
    ];

    // Each field is drawn from a pick range wider than its edge-value
    // table; picks past the table leave the field at its default, so
    // about a third of the queries are valid and reach selection.

    fn range(pick: u32, a: u32, b: u32) -> Option<std::ops::Range<u32>> {
        let (lo, hi) = (a.min(b), a.max(b));
        match pick {
            0 => Some(lo..hi),             // valid, maybe empty
            1 => Some(hi..lo),             // inverted unless equal
            2 => Some(lo..SETS + 1 + hi),  // past the pool's end
            3 => Some(u32::MAX..u32::MAX), // empty, far out of bounds
            4 => Some(0..SETS),            // the whole pool, explicitly
            5 => Some(SETS..SETS),         // empty, at the end
            _ => None,
        }
    }

    /// A per-node vector: valid, wrong length, NaN, negative, zero-led,
    /// or infinite.
    fn vector(pick: u32, base: &[f64]) -> Option<Arc<[f64]>> {
        let mut v = base.to_vec();
        match pick {
            0 => {}
            1 => v.truncate(N as usize - 1),
            2 => v.push(1.0),
            3 => v[7] = f64::NAN,
            4 => v[7] = -1.0,
            5 => v[7] = 0.0,
            6 => v[7] = f64::INFINITY,
            7 => v.clear(),
            _ => return None,
        }
        Some(v.into())
    }

    fn same_bits(a: &SeedAnswer, b: &SeedAnswer) -> bool {
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        a.seeds == b.seeds
            && a.range == b.range
            && a.covered.to_bits() == b.covered.to_bits()
            && a.influence_estimate.to_bits() == b.influence_estimate.to_bits()
            && bits(&a.marginal_gains) == bits(&b.marginal_gains)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn seed_query_never_panics(
            picks in (0usize..6, 0usize..20, 0u32..14, (0u32..SETS, 0u32..SETS)),
            seeds in (
                proptest::collection::vec(0u32..N + 2, 0..3),
                proptest::collection::vec(0u32..N + 2, 0..4),
            ),
            vectors in (0u32..40, 0u32..40, 0u32..10),
            base in proptest::collection::vec(0.0f64..4.0, N as usize),
        ) {
            let (k, budget, range_pick, (a, b)) = picks;
            let (forced, excluded) = seeds;
            let (weight_pick, cost_pick, topic_pick) = vectors;
            let mut q = SeedQuery::top_k(KS[k]).with_forced(forced).with_excluded(excluded);
            q.range = range(range_pick, a, b);
            q.budget = BUDGETS.get(budget).copied().flatten();
            q.root_weights = vector(weight_pick, &base);
            // costs must be positive: shift the base off zero
            let costs: Vec<f64> = base.iter().map(|c| c + 0.25).collect();
            if let Some(c) = vector(cost_pick, &costs) {
                q.costs = NodeCosts::per_node(c);
            }
            q.topic = [3, 1 << 62].get(topic_pick as usize).copied();

            let e = engine();
            let alone = e.answer(&q);
            let planned = e.answer_planned(std::slice::from_ref(&q)).map(|mut v| v.remove(0));
            match (alone, planned) {
                (Ok(x), Ok(y)) => {
                    prop_assert!(same_bits(&x, &y), "paths differ for {q:?}: {x:?} vs {y:?}");
                    let mut distinct = x.seeds.clone();
                    distinct.sort_unstable();
                    distinct.dedup();
                    prop_assert_eq!(distinct.len(), x.seeds.len(), "duplicate seeds for {:?}", q);
                    prop_assert!(x.seeds.len() <= N as usize, "{} seeds", x.seeds.len());
                    prop_assert!(x.seeds.iter().all(|&v| v < N), "seed outside the universe");
                    prop_assert!(
                        x.seeds.iter().all(|v| !q.excluded.contains(v)),
                        "excluded seed answered for {q:?}"
                    );
                }
                (Err(CoreError::InvalidParams(_)), Err(CoreError::InvalidParams(_))) => {}
                (x, y) => prop_assert!(false, "{q:?}: answer {x:?}, planned {y:?}"),
            }
        }
    }
}
