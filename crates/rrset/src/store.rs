//! Crash-safe persistent pool store: checksummed epoch snapshots,
//! atomic manifest commit, valid-prefix recovery.
//!
//! Sampling is the expensive phase of SSA/D-SSA; this module makes the
//! sampled pool durable so a restart serves from disk instead of paying
//! for the samples again. The design center is robustness: every byte
//! read back is checksum-verified, the commit protocol cannot publish a
//! manifest pointing at garbage, and corruption degrades to a *typed*
//! outcome — never a panic, never a silently wrong answer.
//!
//! # On-disk layout
//!
//! A store is a directory:
//!
//! ```text
//! store/
//! ├── MANIFEST          committed last, atomically (see below)
//! ├── epoch-00000.rr    one immutable segment per sealed epoch
//! ├── epoch-00001.rr
//! └── …
//! ```
//!
//! Each segment serializes one sealed epoch of an [`RrCollection`] —
//! one chunk — verbatim: the chunk's width-adaptive (u32/u64) per-set
//! end offsets and its nodes, framed by a self-describing header and a
//! checksummed footer. A save writes each chunk's arrays as they are,
//! and a load moves each verified segment's decoded arrays into its
//! chunk, so neither copies the pool into an intermediate arena:
//!
//! ```text
//! "SNSE" | version u32 | epoch u32 | start u32 | sets u32
//!        | entries u64 | edges_delta u64 | offset_width u32
//! offsets: sets × offset_width bytes   (rebased ends, leading 0 implicit)
//! data:    entries × 4 bytes           (node ids)
//! checksum u64 over all bytes above | "ESNS"
//! ```
//!
//! The `MANIFEST` records the [`StoreFingerprint`] (graph content hash,
//! model, RNG seed, Γ, free-form metadata such as stopping-rule
//! provenance) and an epoch table — `(boundary, cumulative edge total,
//! file length, checksum)` per epoch — and ends in its own checksum.
//! All integers are little-endian; checksums are the word-wise FNV-1a
//! of [`sns_graph::hash`].
//!
//! # Commit protocol
//!
//! Segments are immutable once named by a manifest; a save writes new
//! segments first (`write → fsync → rename`), then commits the manifest
//! the same way: write `MANIFEST.tmp`, `fsync`, atomically rename over
//! `MANIFEST`, `fsync` the directory. A crash at any point leaves either
//! the old manifest (new segments are unreferenced garbage, harmless and
//! rewritten by the next save) or the new one (fully written, since the
//! rename happens after the segment fsyncs). Stale `*.tmp` files are
//! ignored by the loader. An incremental save ([`PoolStore::save`] on a
//! directory that already holds a prefix of the pool) writes **only the
//! new epochs** — this is the `extend()`-then-`save()` append path of
//! `sns_core::SeedQueryEngine`.
//!
//! # Recovery semantics
//!
//! Epochs are append-only and immutable, so the longest valid prefix of
//! a damaged store is well-defined. [`PoolStore::load`] fails on the
//! first fault with a typed [`StoreError`];
//! [`PoolStore::load_recovering`] instead stops at the first damaged
//! epoch and returns the verified prefix plus [`Recovery::Recovered`]
//! accounting what was lost. Because sampling is deterministic per
//! sample index, re-extending a recovered prefix by `sets_lost` sets
//! reproduces the original pool bit-for-bit. Manifest damage is never
//! recovered around — without a trusted epoch table there is no "valid
//! prefix" to speak of.
//!
//! # Example
//!
//! ```
//! use sns_rrset::{PoolStore, RrCollection, StoreFingerprint};
//!
//! let mut pool = RrCollection::new(4);
//! // (sampled in real use; see sns_core::SeedQueryEngine::save for the
//! // engine-level path that fills the fingerprint automatically)
//! pool.append_epoch(&[&[0, 1], &[2]], 3).unwrap();
//!
//! let fp = StoreFingerprint {
//!     graph_hash: 0xfeed,
//!     num_nodes: 4,
//!     model: "IC".into(),
//!     rng_seed: 7,
//!     gamma: 4.0,
//!     meta: vec![],
//! };
//! let dir = std::env::temp_dir().join(format!("sns-store-doc-{}", std::process::id()));
//! let store = PoolStore::at(&dir);
//! store.save(&pool, &fp).unwrap();
//! let (loaded, loaded_fp) = store.load(1).unwrap();
//! assert_eq!(loaded.len(), pool.len());
//! assert_eq!(loaded_fp, fp);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use sns_graph::hash::{fnv64, Fnv64};

use crate::chunk::Chunk;
use crate::index::CsrOffsets;
use crate::{narrow, RrCollection};

/// Magic prefix of the manifest file.
const MANIFEST_MAGIC: &[u8; 4] = b"SNSM";
/// Magic prefix of an epoch segment file.
const SEGMENT_MAGIC: &[u8; 4] = b"SNSE";
/// Trailing magic of an epoch segment file.
const SEGMENT_END_MAGIC: &[u8; 4] = b"ESNS";
/// Current store format version (manifest and segments move together).
const STORE_VERSION: u32 = 1;
/// Manifest file name.
const MANIFEST: &str = "MANIFEST";

/// Segment bytes before the offsets payload: magic + (version, epoch,
/// start, sets, width) u32s + (entries, edges_delta) u64s.
const SEGMENT_HEADER_BYTES: u64 = 4 + 4 * 5 + 8 * 2;
/// Segment footer: checksum u64 + end magic.
const SEGMENT_FOOTER_BYTES: u64 = 8 + 4;

/// Hard caps on corruption-controlled counts, so a damaged field can
/// never demand an absurd allocation. (Segment payloads are verified
/// against the manifest's recorded file length before any allocation;
/// these caps guard the manifest itself, which only carries its trailing
/// whole-file checksum and is parsed first.)
const MAX_STRING: usize = 4096;
const MAX_META: usize = 1024;
const MAX_EPOCHS: usize = 1 << 20;

/// Typed failure of a [`PoolStore`] operation. Every injected fault in
/// the corruption sweep (`tests/failure_injection.rs`) surfaces as one
/// of these — never as a panic.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// Underlying filesystem failure (`file` is store-relative).
    Io {
        /// Store-relative file the operation touched.
        file: String,
        /// The originating I/O error.
        source: io::Error,
    },
    /// A file the manifest references (or the manifest itself) does not
    /// exist.
    Missing {
        /// Store-relative file that was not found.
        file: String,
    },
    /// The file does not start (or end) with the expected magic — not a
    /// store file at all, or overwritten wholesale.
    BadMagic {
        /// Store-relative file with the wrong magic.
        file: String,
    },
    /// The file declares a format version this reader does not speak.
    VersionSkew {
        /// Store-relative file with the foreign version.
        file: String,
        /// The version the file declares.
        found: u32,
    },
    /// The file is shorter than its own framing says it must be.
    Truncated {
        /// Store-relative file that ended early.
        file: String,
    },
    /// The file's contents do not hash to its recorded checksum.
    ChecksumMismatch {
        /// Store-relative file whose checksum failed.
        file: String,
    },
    /// The file is structurally inconsistent (its declared fields
    /// contradict each other, the manifest, or the pool being restored).
    BadFormat {
        /// Store-relative file with the inconsistency.
        file: String,
        /// What specifically is inconsistent.
        detail: String,
    },
    /// The store was sampled under a different graph / model / seed than
    /// the caller expects (see [`StoreFingerprint`]).
    FingerprintMismatch {
        /// Which fingerprint field disagrees, and how.
        detail: String,
    },
    /// The in-memory pool's epoch metadata disagrees with its chunks —
    /// the save-time guard that turns a bookkeeping bug into an error
    /// instead of a corrupt store.
    MetadataDrift {
        /// What disagrees.
        detail: String,
    },
    /// A broken invariant inside this crate (not in the store on disk).
    /// Reported as an error rather than a panic, per the workspace
    /// panic-path contract (`docs/ARCHITECTURE.md` §6); seeing one is a
    /// bug in `sns-rrset`.
    Internal {
        /// Which invariant broke.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { file, source } => write!(f, "store io error on {file}: {source}"),
            StoreError::Missing { file } => write!(f, "store file {file} is missing"),
            StoreError::BadMagic { file } => write!(f, "store file {file} has a bad magic"),
            StoreError::VersionSkew { file, found } => {
                write!(f, "store file {file} has version {found}, reader speaks {STORE_VERSION}")
            }
            StoreError::Truncated { file } => write!(f, "store file {file} is truncated"),
            StoreError::ChecksumMismatch { file } => {
                write!(f, "store file {file} fails its checksum")
            }
            StoreError::BadFormat { file, detail } => {
                write!(f, "store file {file} is malformed: {detail}")
            }
            StoreError::FingerprintMismatch { detail } => {
                write!(f, "store fingerprint mismatch: {detail}")
            }
            StoreError::MetadataDrift { detail } => {
                write!(f, "pool epoch metadata drifted from its chunks: {detail}")
            }
            StoreError::Internal { detail } => {
                write!(f, "internal invariant violated (bug in sns-rrset): {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Identity of the sampling run a store was baked from. Serving a pool
/// against the wrong graph (or model, or seed) would silently answer
/// wrong questions, so the manifest records this and loaders compare it
/// ([`StoreFingerprint::matches_sampling`]).
#[derive(Debug, Clone)]
pub struct StoreFingerprint {
    /// [`sns_graph::Graph::content_hash`] of the sampled graph.
    pub graph_hash: u64,
    /// Node-universe size (`Graph::num_nodes`); also sizes the loaded
    /// pool's index.
    pub num_nodes: u32,
    /// Diffusion model short name (`"IC"` / `"LT"`).
    pub model: String,
    /// Master RNG seed of the sampling context.
    pub rng_seed: u64,
    /// Universe mass Γ behind influence estimates (compared bitwise).
    pub gamma: f64,
    /// Free-form provenance — stopping-rule metadata from a solver's
    /// `RunResult`, root-distribution kind, and anything else worth
    /// carrying. Mostly **not** part of the sampling identity (two
    /// stores of the same samples with different notes still match),
    /// with two exceptions checked by
    /// [`StoreFingerprint::matches_sampling`]: the `"roots"` kind and
    /// the `"roots_checksum"` content hash of the root weight vector.
    /// Γ alone cannot tell two vectors with equal mass apart; the
    /// checksum makes reloading a weighted pool under a different vector
    /// fail loudly instead of via silent Γ-compatible drift.
    pub meta: Vec<(String, String)>,
}

impl PartialEq for StoreFingerprint {
    fn eq(&self, other: &Self) -> bool {
        self.graph_hash == other.graph_hash
            && self.num_nodes == other.num_nodes
            && self.model == other.model
            && self.rng_seed == other.rng_seed
            && self.gamma.to_bits() == other.gamma.to_bits()
            && self.meta == other.meta
    }
}

impl StoreFingerprint {
    /// Compares the sampling-identity fields — the scalar identity plus
    /// the `"roots"` / `"roots_checksum"` meta keys (other meta entries
    /// are free-form provenance) — against `expected`, reporting the
    /// first disagreement as [`StoreError::FingerprintMismatch`].
    pub fn matches_sampling(&self, expected: &StoreFingerprint) -> Result<(), StoreError> {
        let fail = |field: &str, found: String, want: String| {
            Err(StoreError::FingerprintMismatch {
                detail: format!("{field}: store has {found}, caller expects {want}"),
            })
        };
        if self.graph_hash != expected.graph_hash {
            return fail(
                "graph_hash",
                format!("{:#x}", self.graph_hash),
                format!("{:#x}", expected.graph_hash),
            );
        }
        if self.num_nodes != expected.num_nodes {
            return fail("num_nodes", self.num_nodes.to_string(), expected.num_nodes.to_string());
        }
        if self.model != expected.model {
            return fail("model", self.model.clone(), expected.model.clone());
        }
        if self.rng_seed != expected.rng_seed {
            return fail("rng_seed", self.rng_seed.to_string(), expected.rng_seed.to_string());
        }
        if self.gamma.to_bits() != expected.gamma.to_bits() {
            return fail("gamma", self.gamma.to_string(), expected.gamma.to_string());
        }
        // Root-distribution identity rides in `meta`: the "roots" kind and
        // the "roots_checksum" content hash of the root weight vector.
        // Present-vs-absent counts as a mismatch — an old store without a
        // checksum cannot prove it was sampled under the caller's vector.
        let meta_value = |fp: &StoreFingerprint, key: &str| -> Option<String> {
            fp.meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
        };
        for key in ["roots", "roots_checksum"] {
            let (found, want) = (meta_value(self, key), meta_value(expected, key));
            if found != want {
                let show = |v: Option<String>| v.unwrap_or_else(|| "<absent>".to_string());
                return fail(key, show(found), show(want));
            }
        }
        Ok(())
    }
}

/// Outcome of [`PoolStore::load_recovering`]: whether the whole store
/// verified, or only a prefix survived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Every epoch verified; the loaded pool is the full saved pool.
    Intact,
    /// Damage was found; the loaded pool is the longest valid epoch
    /// prefix. Re-sampling `sets_lost` sets (deterministic per-index
    /// streams) reproduces the original pool bit-for-bit.
    Recovered {
        /// Saved epochs that failed verification (the damaged one and
        /// everything after it — recovery keeps a *prefix*, because a
        /// later epoch's start depends on every earlier boundary).
        epochs_lost: u32,
        /// RR sets in the lost epochs.
        sets_lost: u64,
    },
}

/// What a [`PoolStore::save`] actually did — incremental saves reuse
/// every epoch already on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SaveStats {
    /// Epoch segments written by this save.
    pub epochs_written: u32,
    /// Epoch segments already on disk and reused verbatim.
    pub epochs_reused: u32,
    /// Bytes written (segments + manifest).
    pub bytes_written: u64,
}

/// One manifest epoch-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EpochEntry {
    /// Cumulative set-id boundary (matches `epoch_boundaries()`).
    boundary: u32,
    /// Cumulative `total_edges_examined` at this boundary.
    edges_total: u64,
    /// Exact byte length of the segment file.
    file_len: u64,
    /// Checksum of the segment file minus its footer — the same value
    /// the segment's own footer carries.
    checksum: u64,
}

/// Parsed manifest.
#[derive(Debug, Clone)]
struct Manifest {
    fingerprint: StoreFingerprint,
    epochs: Vec<EpochEntry>,
}

/// Handle to a pool-store directory. Cheap to construct — no I/O happens
/// until [`PoolStore::save`] / [`PoolStore::load`] /
/// [`PoolStore::read_fingerprint`]. See the module docs for the format,
/// commit protocol and recovery semantics.
#[derive(Debug, Clone)]
pub struct PoolStore {
    dir: PathBuf,
}

impl PoolStore {
    /// A store handle rooted at `dir` (created on first save).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        PoolStore { dir: dir.into() }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether a committed manifest exists (an interrupted first save
    /// leaves none — the directory then reads as "no store").
    pub fn exists(&self) -> bool {
        self.dir.join(MANIFEST).is_file()
    }

    /// Reads and verifies the manifest alone — the cheap way to inspect
    /// a store's [`StoreFingerprint`] without loading any epoch.
    pub fn read_fingerprint(&self) -> Result<StoreFingerprint, StoreError> {
        Ok(self.read_manifest()?.fingerprint)
    }

    /// Persists `pool` (which must be fully sealed — every set inside an
    /// epoch) under `fingerprint`. Incremental: epochs already on disk
    /// with matching boundaries are reused; only new epochs and the
    /// manifest are written. The manifest commit is atomic (see the
    /// module docs), so a crash mid-save can never be observed as a
    /// half-written store.
    ///
    /// # Errors
    ///
    /// [`StoreError::MetadataDrift`] if the pool's epoch metadata
    /// disagrees with its chunks (the guard that keeps a bookkeeping bug
    /// from becoming a corrupt store), [`StoreError::FingerprintMismatch`]
    /// if the directory already holds a committed store of *different*
    /// samples, [`StoreError::Io`] on filesystem failure.
    pub fn save(
        &self,
        pool: &RrCollection,
        fingerprint: &StoreFingerprint,
    ) -> Result<SaveStats, StoreError> {
        validate_pool_metadata(pool)?;
        if pool.num_nodes() != fingerprint.num_nodes {
            return Err(StoreError::MetadataDrift {
                detail: format!(
                    "pool indexes {} nodes but the fingerprint declares {}",
                    pool.num_nodes(),
                    fingerprint.num_nodes
                ),
            });
        }
        fs::create_dir_all(&self.dir)
            .map_err(|e| StoreError::Io { file: ".".into(), source: e })?;

        let bounds = pool.epoch_boundaries();
        let edge_totals = pool.epoch_edge_totals();
        // An existing committed store of the same samples is extended in
        // place. A diverged epoch layout or stale segment files mean the
        // directory predates a different growth schedule: rewrite from
        // epoch 0 (correct either way — the manifest commit is atomic).
        // An unreadable existing manifest is also rewritten; a *readable*
        // one for different samples is an error, not a silent overwrite.
        let reusable = match self.read_manifest() {
            Ok(m) => {
                m.fingerprint.matches_sampling(fingerprint)?;
                let prefix_matches = m.epochs.len() <= bounds.len()
                    && m.epochs
                        .iter()
                        .zip(bounds.iter().zip(edge_totals))
                        .all(|(e, (&b, &t))| e.boundary == b && e.edges_total == t)
                    && m.epochs.iter().enumerate().all(|(i, e)| {
                        fs::metadata(self.dir.join(segment_name(i)))
                            .map(|md| md.len() == e.file_len)
                            .unwrap_or(false)
                    });
                if prefix_matches {
                    m.epochs
                } else {
                    Vec::new()
                }
            }
            Err(StoreError::Missing { .. }) => Vec::new(),
            Err(_) => Vec::new(),
        };

        let mut stats = SaveStats {
            epochs_reused: narrow::small_count(reusable.len()),
            ..SaveStats::default()
        };
        let mut entries = reusable;
        // Walk the epochs past the reused prefix, carrying the previous
        // boundary/total instead of indexing `bounds[e - 1]` — the save
        // path stays free of unchecked indexing (sns-lint `panics/index`).
        let mut lo = entries.last().map_or(0, |e| e.boundary);
        let mut prev_edges = entries.last().map_or(0, |e| e.edges_total);
        let fresh = bounds.iter().zip(edge_totals).zip(pool.chunks()).enumerate();
        for (e, ((&hi, &edges_total), chunk)) in fresh.skip(entries.len()) {
            let bytes = encode_segment(narrow::small_count(e), lo, chunk, edges_total - prev_edges);
            let payload_len = bytes.len().saturating_sub(SEGMENT_FOOTER_BYTES as usize);
            let checksum = fnv64(bytes.get(..payload_len).unwrap_or_default());
            let name = segment_name(e);
            write_atomic(&self.dir, &name, &bytes)?;
            stats.epochs_written += 1;
            stats.bytes_written += bytes.len() as u64;
            entries.push(EpochEntry {
                boundary: hi,
                edges_total,
                file_len: bytes.len() as u64,
                checksum,
            });
            lo = hi;
            prev_edges = edges_total;
        }

        let manifest = encode_manifest(fingerprint, &entries);
        stats.bytes_written += manifest.len() as u64;
        write_atomic(&self.dir, MANIFEST, &manifest)?;
        Ok(stats)
    }

    /// Loads the full pool, verifying every epoch's checksum and
    /// structure. Strict: the first fault is returned as its typed
    /// [`StoreError`]. Index rebuilds fan across `threads` workers (the
    /// result never depends on it).
    pub fn load(&self, threads: usize) -> Result<(RrCollection, StoreFingerprint), StoreError> {
        match self.load_prefix(threads, false)? {
            (pool, fingerprint, Recovery::Intact) => Ok((pool, fingerprint)),
            // Strict loads propagate the first fault instead of
            // recovering, so a partial result here is a bug in this
            // crate — reported as a typed error, not a panic.
            _ => {
                Err(StoreError::Internal { detail: "strict load returned a partial prefix".into() })
            }
        }
    }

    /// Loads the longest valid epoch prefix. Epoch damage (truncation,
    /// bit rot, a deleted segment) stops the scan and returns what
    /// verified, with [`Recovery::Recovered`] accounting the rest;
    /// manifest damage is still a hard error (without a trusted epoch
    /// table there is no meaningful prefix).
    pub fn load_recovering(
        &self,
        threads: usize,
    ) -> Result<(RrCollection, StoreFingerprint, Recovery), StoreError> {
        self.load_prefix(threads, true)
    }

    fn load_prefix(
        &self,
        threads: usize,
        recover: bool,
    ) -> Result<(RrCollection, StoreFingerprint, Recovery), StoreError> {
        let manifest = self.read_manifest()?;
        let mut pool = RrCollection::new(manifest.fingerprint.num_nodes);
        let total_sets = manifest.epochs.last().map_or(0, |e| e.boundary as u64);
        let mut prev_bound = 0u32;
        let mut prev_edges = 0u64;
        for (e, entry) in manifest.epochs.iter().enumerate() {
            let verified =
                self.read_segment(e, entry, prev_bound, prev_edges, manifest.fingerprint.num_nodes);
            match verified {
                Ok((chunk, edges_delta)) => {
                    pool.restore_sealed_epoch(chunk, edges_delta, threads);
                    prev_bound = entry.boundary;
                    prev_edges = entry.edges_total;
                }
                Err(err) => {
                    if recover {
                        return Ok((
                            pool,
                            manifest.fingerprint,
                            Recovery::Recovered {
                                epochs_lost: (manifest.epochs.len() - e) as u32,
                                sets_lost: total_sets - prev_bound as u64,
                            },
                        ));
                    }
                    return Err(err);
                }
            }
        }
        Ok((pool, manifest.fingerprint, Recovery::Intact))
    }

    /// Reads, checksums and structurally validates one epoch segment,
    /// returning its decoded chunk and edge delta.
    fn read_segment(
        &self,
        epoch: usize,
        entry: &EpochEntry,
        prev_bound: u32,
        prev_edges: u64,
        num_nodes: u32,
    ) -> Result<(Chunk, u64), StoreError> {
        let name = segment_name(epoch);
        let bytes = read_file(&self.dir, &name)?;
        let bad = |detail: String| Err(StoreError::BadFormat { file: name.clone(), detail });
        if (bytes.len() as u64) < entry.file_len {
            return Err(StoreError::Truncated { file: name.clone() });
        }
        if bytes.len() as u64 > entry.file_len {
            return bad(format!("{} bytes on disk, manifest says {}", bytes.len(), entry.file_len));
        }
        if (bytes.len() as u64) < SEGMENT_HEADER_BYTES + SEGMENT_FOOTER_BYTES {
            return Err(StoreError::Truncated { file: name.clone() });
        }

        // Verify framing and checksum before believing any header field.
        // All byte access below goes through `field` — clamped slicing
        // that cannot panic on hostile lengths (the length checks above
        // and the exact-layout check below make a short slice impossible,
        // but untrusted-input decoding does not get to rely on that).
        let payload_end = bytes.len() - SEGMENT_FOOTER_BYTES as usize;
        if field(&bytes, 0, 4) != SEGMENT_MAGIC {
            return Err(StoreError::BadMagic { file: name.clone() });
        }
        if field(&bytes, bytes.len() - 4, bytes.len()) != SEGMENT_END_MAGIC {
            return Err(StoreError::BadMagic { file: name.clone() });
        }
        let version = le_u32(field(&bytes, 4, 8));
        if version != STORE_VERSION {
            return Err(StoreError::VersionSkew { file: name.clone(), found: version });
        }
        let footer_checksum = le_u64(field(&bytes, payload_end, payload_end + 8));
        let realized = fnv64(field(&bytes, 0, payload_end));
        if realized != footer_checksum || realized != entry.checksum {
            return Err(StoreError::ChecksumMismatch { file: name.clone() });
        }

        // Header fields (now trustworthy modulo save-time bugs, which the
        // structural cross-checks below turn into typed errors).
        let declared_epoch = le_u32(field(&bytes, 8, 12));
        let start = le_u32(field(&bytes, 12, 16));
        let sets = le_u32(field(&bytes, 16, 20));
        let entries = le_u64(field(&bytes, 20, 28));
        let edges_delta = le_u64(field(&bytes, 28, 36));
        let width = le_u32(field(&bytes, 36, 40));
        if declared_epoch as usize != epoch {
            return bad(format!("declares epoch {declared_epoch}, expected {epoch}"));
        }
        if start != prev_bound {
            return bad(format!("starts at set {start}, previous epoch ended at {prev_bound}"));
        }
        if entry.boundary <= prev_bound || sets != entry.boundary - prev_bound {
            return bad(format!(
                "{sets} sets does not span boundary {} → {}",
                prev_bound, entry.boundary
            ));
        }
        if edges_delta != entry.edges_total - prev_edges {
            return bad(format!(
                "edge delta {edges_delta} disagrees with manifest totals {} → {}",
                prev_edges, entry.edges_total
            ));
        }
        if width != 4 && width != 8 {
            return bad(format!("offset width {width} (expected 4 or 8)"));
        }
        // Checked: a header that hashes clean can still declare an entry
        // count whose byte size overflows (a save-time bug or a forged
        // checksum); that is a malformed layout, not a panic.
        let expect_len = entries
            .checked_mul(4)
            .and_then(|data| data.checked_add(sets as u64 * width as u64))
            .and_then(|body| body.checked_add(SEGMENT_HEADER_BYTES + SEGMENT_FOOTER_BYTES));
        if expect_len != Some(bytes.len() as u64) {
            let declared = expect_len.map_or_else(|| "over 2^64".to_string(), |l| l.to_string());
            return bad(format!("{} bytes for a declared layout of {declared}", bytes.len()));
        }

        // Offsets: rebased per-set ends, nondecreasing, closing exactly
        // at the entry count; decoded straight into the chunk's width.
        let offsets_end = SEGMENT_HEADER_BYTES as usize + sets as usize * width as usize;
        let raw = field(&bytes, SEGMENT_HEADER_BYTES as usize, offsets_end);
        let ends = if width == 4 {
            decode_ends(raw, 4, entries, le_u32).map(CsrOffsets::Narrow)
        } else {
            decode_ends(raw, 8, entries, le_u64).map(CsrOffsets::from_wide)
        };
        let ends = match ends {
            Ok(ends) => ends,
            Err(detail) => return bad(detail),
        };

        // Node data, bounded by the pool's node universe (the bound is
        // folded into the decode pass: one max-tracking sweep instead of
        // a separate validation scan over megabytes of ids).
        let raw = field(&bytes, offsets_end, payload_end);
        let mut data = Vec::with_capacity(entries as usize);
        let mut max_id = 0u32;
        data.extend(raw.chunks_exact(4).map(|c| {
            let v = le_u32(c);
            max_id = max_id.max(v);
            v
        }));
        if max_id >= num_nodes && !data.is_empty() {
            return bad(format!("node id {max_id} out of universe (n = {num_nodes})"));
        }
        Ok((Chunk { data, ends }, edges_delta))
    }

    fn read_manifest(&self) -> Result<Manifest, StoreError> {
        let bytes = read_file(&self.dir, MANIFEST)?;
        decode_manifest(&bytes)
    }
}

/// A segment's per-set ends, `width` bytes each, decoded behind a
/// leading 0: they must not decrease and must close at `entries`.
fn decode_ends<T: Copy + Default + Into<u64>>(
    raw: &[u8],
    width: usize,
    entries: u64,
    decode: impl Fn(&[u8]) -> T,
) -> Result<Vec<T>, String> {
    let mut ends = Vec::with_capacity(raw.len() / width + 1);
    ends.push(T::default());
    let mut prev = 0u64;
    for (i, bytes) in raw.chunks_exact(width).enumerate() {
        let end = decode(bytes);
        let wide: u64 = end.into();
        if wide < prev {
            return Err(format!("offset of set {i} decreases ({prev} → {wide})"));
        }
        prev = wide;
        ends.push(end);
    }
    if prev != entries {
        return Err(format!("offsets close at {prev}, header declares {entries} entries"));
    }
    Ok(ends)
}

/// The save-time drift guard: the pool must be fully sealed and its
/// epoch metadata must agree with the chunks it describes. Catching this
/// here turns a would-be silently corrupt store into a typed error.
fn validate_pool_metadata(pool: &RrCollection) -> Result<(), StoreError> {
    let drift = |detail: String| Err(StoreError::MetadataDrift { detail });
    let bounds = pool.epoch_boundaries();
    let edge_totals = pool.epoch_edge_totals();
    let chunks = pool.chunks();

    if let Some(w) = bounds.windows(2).find(|w| w[0] >= w[1]) {
        return drift(format!("epoch boundaries not strictly ascending: {} → {}", w[0], w[1]));
    }
    if chunks.len() != bounds.len() {
        return drift(format!(
            "pool is not fully sealed: {} chunks for {} epochs",
            chunks.len(),
            bounds.len()
        ));
    }
    let mut lo = 0u32;
    for (e, (chunk, &hi)) in chunks.iter().zip(bounds).enumerate() {
        let sets = hi.saturating_sub(lo) as usize;
        if chunk.len() != sets {
            return drift(format!("chunk {e} holds {} sets, its epoch spans {sets}", chunk.len()));
        }
        let mut ends = chunk.ends.iter();
        if ends.next() != Some(0) {
            return drift(format!("set ends of chunk {e} do not start at 0"));
        }
        let mut prev = 0u64;
        for (i, end) in ends.enumerate() {
            if end < prev {
                return drift(format!("set end {i} of chunk {e} decreases"));
            }
            prev = end;
        }
        if prev != chunk.data.len() as u64 {
            return drift(format!(
                "set ends of chunk {e} close at {prev} but it holds {} entries",
                chunk.data.len()
            ));
        }
        lo = hi;
    }
    if edge_totals.len() != bounds.len() {
        return drift(format!(
            "{} epoch edge totals for {} boundaries",
            edge_totals.len(),
            bounds.len()
        ));
    }
    if let Some(w) = edge_totals.windows(2).find(|w| w[0] > w[1]) {
        return drift(format!("epoch edge totals decrease: {} → {}", w[0], w[1]));
    }
    if edge_totals.last().copied().unwrap_or(0) != pool.total_edges_examined() {
        return drift(format!(
            "last epoch edge total {} disagrees with the pool total {}",
            edge_totals.last().copied().unwrap_or(0),
            pool.total_edges_examined()
        ));
    }
    Ok(())
}

/// Serializes one sealed epoch (its chunk, whose first set has id `lo`)
/// into its segment byte layout, footer included. The chunk's arrays are
/// the segment's layout already: its ends (leading 0 dropped) at their
/// own width — 4 bytes while the epoch holds under 2³² entries, the
/// overwhelmingly common case, 8 beyond — then its nodes.
fn encode_segment(epoch: u32, lo: u32, chunk: &Chunk, edges_delta: u64) -> Vec<u8> {
    let sets = chunk.len() as u64;
    let entries = chunk.data.len() as u64;
    let width_tag: u32 = match &chunk.ends {
        CsrOffsets::Narrow(_) => 4,
        CsrOffsets::Wide(_) => 8,
    };
    let len =
        SEGMENT_HEADER_BYTES + sets * u64::from(width_tag) + entries * 4 + SEGMENT_FOOTER_BYTES;
    let mut out = Vec::with_capacity(len as usize);
    out.extend_from_slice(SEGMENT_MAGIC);
    out.extend_from_slice(&STORE_VERSION.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&lo.to_le_bytes());
    out.extend_from_slice(&narrow::set_count(chunk.len()).to_le_bytes());
    out.extend_from_slice(&entries.to_le_bytes());
    out.extend_from_slice(&edges_delta.to_le_bytes());
    out.extend_from_slice(&width_tag.to_le_bytes());
    match &chunk.ends {
        CsrOffsets::Narrow(ends) => {
            ends.iter().skip(1).for_each(|e| out.extend_from_slice(&e.to_le_bytes()))
        }
        CsrOffsets::Wide(ends) => {
            ends.iter().skip(1).for_each(|e| out.extend_from_slice(&e.to_le_bytes()))
        }
    }
    for &v in &chunk.data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let checksum = fnv64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out.extend_from_slice(SEGMENT_END_MAGIC);
    debug_assert_eq!(out.len() as u64, len);
    out
}

fn encode_manifest(fingerprint: &StoreFingerprint, epochs: &[EpochEntry]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MANIFEST_MAGIC);
    out.extend_from_slice(&STORE_VERSION.to_le_bytes());
    out.extend_from_slice(&fingerprint.num_nodes.to_le_bytes());
    out.extend_from_slice(&fingerprint.graph_hash.to_le_bytes());
    out.extend_from_slice(&fingerprint.rng_seed.to_le_bytes());
    out.extend_from_slice(&fingerprint.gamma.to_bits().to_le_bytes());
    put_string(&mut out, &fingerprint.model);
    out.extend_from_slice(&narrow::small_count(fingerprint.meta.len()).to_le_bytes());
    for (k, v) in &fingerprint.meta {
        put_string(&mut out, k);
        put_string(&mut out, v);
    }
    out.extend_from_slice(&narrow::small_count(epochs.len()).to_le_bytes());
    for e in epochs {
        out.extend_from_slice(&e.boundary.to_le_bytes());
        out.extend_from_slice(&e.edges_total.to_le_bytes());
        out.extend_from_slice(&e.file_len.to_le_bytes());
        out.extend_from_slice(&e.checksum.to_le_bytes());
    }
    let mut h = Fnv64::new();
    h.write(&out);
    out.extend_from_slice(&h.finish().to_le_bytes());
    out
}

fn decode_manifest(bytes: &[u8]) -> Result<Manifest, StoreError> {
    let mut c = Cursor { bytes, pos: 0 };
    let file = || MANIFEST.to_string();
    let bad = |detail: String| Err(StoreError::BadFormat { file: MANIFEST.to_string(), detail });

    if c.take(4)? != MANIFEST_MAGIC {
        return Err(StoreError::BadMagic { file: file() });
    }
    let version = c.u32()?;
    if version != STORE_VERSION {
        return Err(StoreError::VersionSkew { file: file(), found: version });
    }
    // Self-checksum first: everything after the version gate is only
    // interpreted once the whole file hashes clean.
    if bytes.len() < 8 {
        return Err(StoreError::Truncated { file: file() });
    }
    let declared = le_u64(field(bytes, bytes.len() - 8, bytes.len()));
    let mut h = Fnv64::new();
    h.write(field(bytes, 0, bytes.len() - 8));
    if h.finish() != declared {
        return Err(StoreError::ChecksumMismatch { file: file() });
    }

    let num_nodes = c.u32()?;
    let graph_hash = c.u64()?;
    let rng_seed = c.u64()?;
    let gamma = f64::from_bits(c.u64()?);
    let model = c.string()?;
    let meta_len = c.u32()? as usize;
    if meta_len > MAX_META {
        return bad(format!("{meta_len} metadata pairs exceeds the cap {MAX_META}"));
    }
    let mut meta = Vec::with_capacity(meta_len);
    for _ in 0..meta_len {
        let k = c.string()?;
        let v = c.string()?;
        meta.push((k, v));
    }
    let epoch_len = c.u32()? as usize;
    if epoch_len > MAX_EPOCHS {
        return bad(format!("{epoch_len} epochs exceeds the cap {MAX_EPOCHS}"));
    }
    let mut epochs: Vec<EpochEntry> = Vec::with_capacity(epoch_len);
    for i in 0..epoch_len {
        let entry = EpochEntry {
            boundary: c.u32()?,
            edges_total: c.u64()?,
            file_len: c.u64()?,
            checksum: c.u64()?,
        };
        if let Some(prev) = epochs.last() {
            if entry.boundary <= prev.boundary || entry.edges_total < prev.edges_total {
                return bad(format!("epoch table not ascending at entry {i}"));
            }
        } else if entry.boundary == 0 {
            return bad("epoch 0 has boundary 0".into());
        }
        epochs.push(entry);
    }
    if c.pos != bytes.len() - 8 {
        return bad(format!(
            "{} bytes of trailing garbage before the checksum",
            bytes.len() - 8 - c.pos
        ));
    }
    Ok(Manifest {
        fingerprint: StoreFingerprint { graph_hash, num_nodes, model, rng_seed, gamma, meta },
        epochs,
    })
}

/// Bounds-checked little-endian reader over a byte slice; running out of
/// bytes is [`StoreError::Truncated`] on the manifest.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        // The trailing 8 checksum bytes are not part of the payload.
        let payload_len = self.bytes.len().saturating_sub(8);
        let out = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= payload_len)
            .and_then(|end| self.bytes.get(self.pos..end))
            .ok_or(StoreError::Truncated { file: MANIFEST.to_string() })?;
        self.pos += n;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(le_u32(self.take(4)?))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(le_u64(self.take(8)?))
    }

    fn string(&mut self) -> Result<String, StoreError> {
        let len = self.u32()? as usize;
        if len > MAX_STRING {
            return Err(StoreError::BadFormat {
                file: MANIFEST.to_string(),
                detail: format!("string of {len} bytes exceeds the cap {MAX_STRING}"),
            });
        }
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| StoreError::BadFormat {
            file: MANIFEST.to_string(),
            detail: "string is not UTF-8".into(),
        })
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= MAX_STRING, "manifest strings are caller-bounded");
    out.extend_from_slice(&narrow::small_count(s.len()).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// `bytes[lo..hi]`, clamped: an out-of-bounds or inverted range yields
/// the empty slice instead of panicking. Decode paths validate lengths
/// before reading fields, so the clamp never fires on a well-formed
/// file — it exists so that *no* input, however malformed, can reach an
/// indexing panic (the workspace panic-path contract).
fn field(bytes: &[u8], lo: usize, hi: usize) -> &[u8] {
    bytes.get(lo..hi).unwrap_or_default()
}

/// Little-endian `u32` from the first 4 bytes, zero-extending a short
/// slice (callers size their [`field`] reads; a short slice only occurs
/// downstream of a clamped out-of-bounds read, which the structural
/// checks then reject).
fn le_u32(b: &[u8]) -> u32 {
    let mut buf = [0u8; 4];
    for (d, s) in buf.iter_mut().zip(b) {
        *d = *s;
    }
    u32::from_le_bytes(buf)
}

/// Little-endian `u64` from the first 8 bytes, zero-extending like
/// [`le_u32`].
fn le_u64(b: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    for (d, s) in buf.iter_mut().zip(b) {
        *d = *s;
    }
    u64::from_le_bytes(buf)
}

fn segment_name(epoch: usize) -> String {
    format!("epoch-{epoch:05}.rr")
}

fn read_file(dir: &Path, name: &str) -> Result<Vec<u8>, StoreError> {
    match fs::read(dir.join(name)) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            Err(StoreError::Missing { file: name.to_string() })
        }
        Err(e) => Err(StoreError::Io { file: name.to_string(), source: e }),
    }
}

/// The commit primitive: write `name.tmp`, fsync, rename over `name`,
/// fsync the directory (unix). Readers either see the old file or the
/// complete new one — never a torn write.
fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
    let run = || -> io::Result<()> {
        let tmp = dir.join(format!("{name}.tmp"));
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, dir.join(name))?;
        #[cfg(unix)]
        fs::File::open(dir)?.sync_all()?;
        Ok(())
    };
    run().map_err(|e| StoreError::Io { file: name.to_string(), source: e })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_graph::NodeId;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_store(tag: &str) -> PoolStore {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sns-store-unit-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        PoolStore::at(dir)
    }

    /// A small pool with `epochs` sealed epochs of `per_epoch` sets,
    /// each set costing 2 examined edges.
    fn pool(epochs: usize, per_epoch: usize) -> RrCollection {
        let mut rc = RrCollection::new(16);
        for e in 0..epochs {
            let sets: Vec<[NodeId; 3]> = (0..per_epoch)
                .map(|i| {
                    let a = ((e * per_epoch + i) % 16) as NodeId;
                    let b = ((e * 7 + i * 3) % 16) as NodeId;
                    [a, b, (a + b) % 16]
                })
                .collect();
            let refs: Vec<&[NodeId]> = sets.iter().map(|s| s.as_slice()).collect();
            rc.append_epoch(&refs, 2 * per_epoch as u64).expect("ids below 16");
        }
        rc
    }

    fn fp() -> StoreFingerprint {
        StoreFingerprint {
            graph_hash: 0xdead_beef,
            num_nodes: 16,
            model: "IC".into(),
            rng_seed: 42,
            gamma: 16.0,
            meta: vec![("rule".into(), "dssa".into())],
        }
    }

    fn cleanup(store: &PoolStore) {
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn round_trip_preserves_pool_and_fingerprint() {
        let store = temp_store("roundtrip");
        let rc = pool(3, 40);
        let stats = store.save(&rc, &fp()).unwrap();
        assert_eq!(stats.epochs_written, 3);
        assert_eq!(stats.epochs_reused, 0);
        assert!(stats.bytes_written > 0);

        let (loaded, got_fp) = store.load(1).unwrap();
        assert_eq!(got_fp, fp());
        assert_eq!(loaded.len(), rc.len());
        assert_eq!(loaded.chunks(), rc.chunks());
        assert_eq!(loaded.epoch_boundaries(), rc.epoch_boundaries());
        assert_eq!(loaded.epoch_edge_totals(), rc.epoch_edge_totals());
        assert_eq!(loaded.total_edges_examined(), rc.total_edges_examined());
        for v in 0..16 {
            assert_eq!(
                loaded.sets_containing(v).to_vec(),
                rc.sets_containing(v).to_vec(),
                "node {v}"
            );
        }
        cleanup(&store);
    }

    #[test]
    fn incremental_save_writes_only_new_epochs() {
        let store = temp_store("incremental");
        let mut rc = pool(2, 30);
        store.save(&rc, &fp()).unwrap();
        // grow one epoch and save again
        let sets: Vec<[NodeId; 1]> = (0..30).map(|i| [(i % 16) as NodeId]).collect();
        let refs: Vec<&[NodeId]> = sets.iter().map(|s| s.as_slice()).collect();
        rc.append_epoch(&refs, 60).expect("ids below 16");
        let stats = store.save(&rc, &fp()).unwrap();
        assert_eq!(stats.epochs_reused, 2);
        assert_eq!(stats.epochs_written, 1);
        let (loaded, _) = store.load(1).unwrap();
        assert_eq!(loaded.chunks(), rc.chunks());
        assert_eq!(loaded.epoch_boundaries(), rc.epoch_boundaries());
        cleanup(&store);
    }

    #[test]
    fn roots_meta_keys_are_sampling_identity() {
        let base = fp();
        let mut with_ck = base.clone();
        with_ck.meta.push(("roots".into(), "weighted".into()));
        with_ck.meta.push(("roots_checksum".into(), "0x00000000deadbeef".into()));
        with_ck.matches_sampling(&with_ck.clone()).unwrap();

        // A different vector checksum under identical scalars (same Γ!)
        // must fail loudly, naming the key.
        let mut other = with_ck.clone();
        other.meta.retain(|(k, _)| k != "roots_checksum");
        other.meta.push(("roots_checksum".into(), "0x00000000cafebabe".into()));
        match with_ck.matches_sampling(&other) {
            Err(StoreError::FingerprintMismatch { detail }) => {
                assert!(detail.contains("roots_checksum"), "{detail}")
            }
            outcome => panic!("expected FingerprintMismatch, got {outcome:?}"),
        }

        // Absent-vs-present is a mismatch too: a store without a checksum
        // cannot prove it was sampled under the caller's vector.
        match base.matches_sampling(&with_ck) {
            Err(StoreError::FingerprintMismatch { detail }) => {
                assert!(detail.contains("<absent>"), "{detail}")
            }
            outcome => panic!("expected FingerprintMismatch, got {outcome:?}"),
        }

        // Free-form provenance keys stay outside the sampling identity.
        let mut noted = with_ck.clone();
        noted.meta.push(("note".into(), "re-baked overnight".into()));
        noted.matches_sampling(&with_ck).unwrap();
    }

    #[test]
    fn unsealed_pool_is_metadata_drift() {
        let store = temp_store("unsealed");
        let mut rc = pool(1, 10);
        rc.append_unsealed_for_test(&[1]); // past the last boundary
        match store.save(&rc, &fp()) {
            Err(StoreError::MetadataDrift { detail }) => {
                assert!(detail.contains("not fully sealed"), "{detail}")
            }
            other => panic!("expected MetadataDrift, got {other:?}"),
        }
        cleanup(&store);
    }

    #[test]
    fn drifted_offsets_are_caught_at_save_time() {
        let store = temp_store("drift-offsets");
        let mut rc = pool(2, 10);
        rc.corrupt_last_offset_for_test();
        assert!(matches!(store.save(&rc, &fp()), Err(StoreError::MetadataDrift { .. })));
        cleanup(&store);
    }

    #[test]
    fn drifted_edge_totals_are_caught_at_save_time() {
        let store = temp_store("drift-edges");
        let mut rc = pool(2, 10);
        rc.truncate_epoch_edges_for_test();
        assert!(matches!(store.save(&rc, &fp()), Err(StoreError::MetadataDrift { .. })));
        cleanup(&store);
    }

    #[test]
    fn fingerprint_num_nodes_must_match_pool() {
        let store = temp_store("fp-nodes");
        let rc = pool(1, 10);
        let wrong = StoreFingerprint { num_nodes: 17, ..fp() };
        assert!(matches!(store.save(&rc, &wrong), Err(StoreError::MetadataDrift { .. })));
        cleanup(&store);
    }

    #[test]
    fn saving_different_samples_over_a_store_is_rejected() {
        let store = temp_store("overwrite");
        store.save(&pool(1, 10), &fp()).unwrap();
        let other = StoreFingerprint { rng_seed: 43, ..fp() };
        match store.save(&pool(1, 10), &other) {
            Err(StoreError::FingerprintMismatch { detail }) => {
                assert!(detail.contains("rng_seed"), "{detail}")
            }
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
        cleanup(&store);
    }

    #[test]
    fn missing_store_reads_as_missing() {
        let store = temp_store("missing");
        assert!(!store.exists());
        assert!(matches!(store.load(1), Err(StoreError::Missing { .. })));
        assert!(matches!(store.read_fingerprint(), Err(StoreError::Missing { .. })));
        cleanup(&store);
    }

    #[test]
    fn empty_pool_round_trips() {
        let store = temp_store("empty");
        let rc = RrCollection::new(16);
        store.save(&rc, &fp()).unwrap();
        let (loaded, _) = store.load(1).unwrap();
        assert_eq!(loaded.len(), 0);
        assert!(loaded.epoch_boundaries().is_empty());
        cleanup(&store);
    }

    #[test]
    fn recovery_returns_the_valid_prefix() {
        let store = temp_store("recover");
        let rc = pool(4, 25);
        store.save(&rc, &fp()).unwrap();
        // damage epoch 2: flip one payload bit
        let path = store.dir().join(segment_name(2));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).unwrap();

        assert!(matches!(store.load(1), Err(StoreError::ChecksumMismatch { .. })));
        let (prefix, _, recovery) = store.load_recovering(1).unwrap();
        assert_eq!(recovery, Recovery::Recovered { epochs_lost: 2, sets_lost: 50 });
        assert_eq!(prefix.len(), 50);
        assert_eq!(prefix.epoch_boundaries(), &rc.epoch_boundaries()[..2]);
        // the prefix is bit-identical to the original's first two epochs
        assert_eq!(prefix.chunks(), &rc.chunks()[..2]);
        cleanup(&store);
    }

    #[test]
    fn segment_checksum_detects_every_single_bit_flip_in_a_small_store() {
        let store = temp_store("bitflips");
        let rc = pool(1, 3);
        store.save(&rc, &fp()).unwrap();
        let path = store.dir().join(segment_name(0));
        let pristine = fs::read(&path).unwrap();
        for byte in 0..pristine.len() {
            let mut dam = pristine.clone();
            dam[byte] ^= 1;
            fs::write(&path, &dam).unwrap();
            assert!(store.load(1).is_err(), "flip at byte {byte} loaded cleanly");
        }
        fs::write(&path, &pristine).unwrap();
        assert!(store.load(1).is_ok());
        cleanup(&store);
    }
}
