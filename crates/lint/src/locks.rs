//! The declared-locks registry — the static twin of
//! `crates/storage/src/lockcheck.rs`, analogous to how `names.rs`
//! declares metric names.
//!
//! Every lock the concurrency rules reason about is declared here: its
//! registry name (identical to `LockId::name()` on the runtime side —
//! `tests/cross_check.rs` pins the two tables together), the struct
//! fields that hold it, and the accessor methods that return a tracked
//! guard for it. A `.lock()` / `.read()` / `.write()` on a field *not*
//! declared here is a `lock-registry` finding: an undeclared lock
//! silently evades both the static order check and the runtime sentinel.

/// One declared lock.
pub struct LockDecl {
    /// Registry name, e.g. `"pool.state"` (matches `LockId::name()`).
    pub name: &'static str,
    /// Struct fields that hold the lock (`self.state`, `&pool.disk`, …).
    pub fields: &'static [&'static str],
    /// Methods that acquire it and return a guard (`pool.disk()`,
    /// `self.write_latch(idx)`), recognized at call sites.
    pub acquirers: &'static [&'static str],
}

/// Every declared lock, sorted by name.
pub const LOCKS: &[LockDecl] = &[
    LockDecl {
        name: "catalog",
        fields: &["catalog"],
        acquirers: &["catalog", "catalog_mut"],
    },
    LockDecl {
        name: "pool.disk",
        fields: &["disk"],
        acquirers: &["disk", "disk_mut"],
    },
    LockDecl {
        name: "pool.frame",
        fields: &["frames"],
        acquirers: &["read_latch", "write_latch"],
    },
    LockDecl {
        name: "pool.journal",
        fields: &["journal"],
        acquirers: &[],
    },
    LockDecl {
        name: "pool.retry",
        fields: &["retry"],
        acquirers: &[],
    },
    LockDecl {
        name: "pool.state",
        fields: &["state"],
        acquirers: &[],
    },
];

/// `LockId` variant → registry name, for `lock(&…, LockId::X)` sites.
pub const VARIANTS: &[(&str, &str)] = &[
    ("Catalog", "catalog"),
    ("PoolDisk", "pool.disk"),
    ("PoolFrame", "pool.frame"),
    ("PoolJournal", "pool.journal"),
    ("PoolRetry", "pool.retry"),
    ("PoolState", "pool.state"),
];

/// Declared partial order: `(held, acquired)` pairs that are legal.
/// Mirrors `lockcheck::ORDER` pair-for-pair.
pub const ORDER: &[(&str, &str)] = &[
    ("catalog", "pool.state"),
    ("catalog", "pool.frame"),
    ("catalog", "pool.disk"),
    ("catalog", "pool.retry"),
    ("catalog", "pool.journal"),
    ("pool.state", "pool.frame"),
    ("pool.state", "pool.disk"),
    ("pool.state", "pool.retry"),
    ("pool.journal", "pool.disk"),
];

/// Locks whose *holding* constrains nothing — the pin-count protocol:
/// no other thread ever blocks on a pinned frame's latch, so a held
/// latch cannot appear in a cross-thread wait cycle.
pub const HELD_EXEMPT: &[&str] = &["pool.frame"];

/// Directional `(held, acquired, dominator)` edges legal only while the
/// dominator is held: flush paths take `pin == 0` frame latches while
/// holding the disk mutex, serialized by `pool.state`.
pub const SERIALIZED: &[(&str, &str, &str)] = &[("pool.disk", "pool.frame", "pool.state")];

/// Files exempt from the concurrency rules: the sentinel implementation
/// itself manipulates raw locks by design.
pub const EXEMPT_FILES: &[&str] = &["crates/storage/src/lockcheck.rs"];

/// Crates whose code the concurrency rules analyze. Matches the other
/// hot-path scopes: these are the crates that touch the declared locks.
pub const LOCK_SCOPE: &[&str] = &["crates/storage/src", "crates/core/src"];

/// Looks a lock up by the struct field that holds it.
pub fn by_field(field: &str) -> Option<&'static LockDecl> {
    LOCKS.iter().find(|l| l.fields.contains(&field))
}

/// Looks a lock up by an acquirer method name.
pub fn by_acquirer(method: &str) -> Option<&'static LockDecl> {
    LOCKS.iter().find(|l| l.acquirers.contains(&method))
}

/// Registry name for a `LockId::X` variant token.
pub fn by_variant(variant: &str) -> Option<&'static str> {
    VARIANTS
        .iter()
        .find(|(v, _)| *v == variant)
        .map(|&(_, name)| name)
}

/// Is acquiring `acq` legal while `held` (in acquisition order) is held?
/// The string mirror of `lockcheck::order_allows`; `tests/cross_check.rs`
/// asserts the two agree on every pair.
pub fn order_allows(held: &[&str], acq: &str) -> bool {
    held.iter().all(|&h| pair_allows(held, h, acq))
}

fn pair_allows(held: &[&str], h: &str, acq: &str) -> bool {
    if HELD_EXEMPT.contains(&h) {
        return true;
    }
    if h == acq {
        return false;
    }
    if ORDER.contains(&(h, acq)) {
        return true;
    }
    SERIALIZED
        .iter()
        .any(|&(a, b, dom)| (a, b) == (h, acq) && held.contains(&dom))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unambiguous() {
        for w in LOCKS.windows(2) {
            assert!(w[0].name < w[1].name, "LOCKS not sorted at {}", w[1].name);
        }
        // No field or acquirer may map to two different locks.
        for (i, a) in LOCKS.iter().enumerate() {
            for b in &LOCKS[i + 1..] {
                for f in a.fields {
                    assert!(!b.fields.contains(f), "field `{f}` maps to two locks");
                }
                for m in a.acquirers {
                    assert!(!b.acquirers.contains(m), "acquirer `{m}` maps to two locks");
                }
            }
        }
    }

    #[test]
    fn every_order_endpoint_is_declared() {
        let declared: Vec<&str> = LOCKS.iter().map(|l| l.name).collect();
        for &(a, b) in ORDER {
            assert!(declared.contains(&a), "ORDER names undeclared lock {a}");
            assert!(declared.contains(&b), "ORDER names undeclared lock {b}");
        }
        for &(a, b, d) in SERIALIZED {
            for n in [a, b, d] {
                assert!(declared.contains(&n), "SERIALIZED names undeclared {n}");
            }
        }
        for &(v, n) in VARIANTS {
            assert!(declared.contains(&n), "variant {v} maps to undeclared {n}");
        }
    }

    #[test]
    fn order_mirror_semantics() {
        assert!(order_allows(&["pool.state"], "pool.disk"));
        assert!(!order_allows(&["pool.disk"], "pool.state"));
        assert!(order_allows(&["pool.frame"], "pool.retry"));
        assert!(!order_allows(&["pool.disk"], "pool.frame"));
        assert!(order_allows(&["pool.state", "pool.disk"], "pool.frame"));
        assert!(!order_allows(&["pool.state"], "pool.state"));
    }
}
