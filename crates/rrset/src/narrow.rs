//! Sanctioned checked narrowing — the one place `usize`/`u64` values may
//! become `u32`.
//!
//! The pool's id domain is `u32` by representation: set ids, node ids,
//! and CSR offsets in the narrow tier are all 32-bit, so every count
//! that reaches these helpers is bounded by `u32::MAX` *by construction*
//! (a pool cannot hold a set it cannot id). The workspace linter
//! (`sns-lint`, rule `casts/lossy`) bans raw narrowing `as` casts
//! everywhere else; code that needs one routes through here, where the
//! bound is stated once and checked in debug builds, or through the
//! fallible [`try_u32`] when the bound is *not* structural and failure
//! must surface as a typed error.

/// The pool length as a set-id bound. Saturates (after a debug assert)
/// instead of truncating: a saturated bound keeps every real id
/// addressable, whereas silent truncation would drop high sets from
/// range queries.
#[inline]
pub fn set_count(len: usize) -> u32 {
    debug_assert!(len <= u32::MAX as usize, "pool of {len} sets exceeds the u32 id domain");
    u32::try_from(len).unwrap_or(u32::MAX)
}

/// A node or seed count as a `u32`. Node ids are `u32` by representation
/// (`sns_graph::NodeId`), so any count derived from them fits; saturates
/// after a debug assert, like [`set_count`].
#[inline]
pub fn node_count(len: usize) -> u32 {
    debug_assert!(len <= u32::MAX as usize, "node count {len} exceeds the u32 id domain");
    u32::try_from(len).unwrap_or(u32::MAX)
}

/// A small structural count (epochs, manifest strings, metadata pairs)
/// as `u32`. These are all hard-capped by the store's corruption guards
/// (`MAX_EPOCHS`, `MAX_STRING`, `MAX_META`) far inside the `u32` domain;
/// saturates after a debug assert, like [`set_count`].
#[inline]
pub fn small_count(len: usize) -> u32 {
    debug_assert!(len <= u32::MAX as usize, "count {len} exceeds the u32 domain");
    u32::try_from(len).unwrap_or(u32::MAX)
}

/// Fallible narrowing for values with no structural bound (e.g. lengths
/// read from a persisted file before validation). `None` means the value
/// does not fit — callers turn that into their own typed error.
#[inline]
pub fn try_u32(v: u64) -> Option<u32> {
    u32::try_from(v).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_domain_values_round_trip() {
        assert_eq!(set_count(0), 0);
        assert_eq!(set_count(123_456), 123_456);
        assert_eq!(node_count(u32::MAX as usize), u32::MAX);
        assert_eq!(try_u32(7), Some(7));
    }

    #[test]
    fn try_u32_rejects_out_of_domain() {
        assert_eq!(try_u32(u64::from(u32::MAX) + 1), None);
        assert_eq!(try_u32(u64::MAX), None);
    }
}
