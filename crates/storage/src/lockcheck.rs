//! Runtime latch-order sentinel.
//!
//! The workspace's lock discipline is declared twice — statically in
//! `crates/lint/src/locks.rs` (the `lock-order` rule walks the call graph
//! against it) and here, where every real acquisition in a
//! `debug_assertions` build is checked against the same partial order on
//! a thread-local acquisition stack. A cross-check test in the lint crate
//! asserts the two tables agree edge for edge, so the static model and
//! the running system validate each other.
//!
//! # The declared order
//!
//! ```text
//! catalog ──→ pool.state ──→ pool.frame
//!    │             │   ⇅ (pin protocol)
//!    │             ├──→ pool.disk
//!    │             └──→ pool.retry
//!    └──→ pool.journal ──→ pool.disk
//! ```
//!
//! Two relaxations, shared verbatim with the static rule:
//!
//! * **Pin protocol** ([`HELD_EXEMPT`]): a *held* `pool.frame` latch
//!   constrains nothing. A held latch implies `pin > 0` (or a lock-free
//!   in-flight guard drop), and no other thread ever blocks on a pinned
//!   frame's latch — evictors and flushers assert `pin == 0` first — so
//!   a held latch cannot appear in any cross-thread wait cycle. This is
//!   why a caller may keep a `PageRef` while pinning further pages, and
//!   why guard drops may take `pool.state` for the unpin.
//! * **Serialized edges** ([`SERIALIZED`]): *acquiring* a `pin == 0`
//!   frame latch while holding `pool.disk` (the flush batch does) is
//!   legal only while `pool.state` — the dominator that serializes the
//!   pair across threads — is also held.
//!
//! In release builds everything here compiles to nothing: the tracking
//! functions are empty `#[inline(always)]` stubs and [`Tracked`] is a
//! transparent newtype, so the 978 gated bench values stay byte-identical.
//!
//! A violation increments `storage.lockcheck.violations`, appends a dump
//! line to the file named by `PBSM_LOCKCHECK_DUMP` (when set), and panics
//! with the offending stack — loud enough that the stress suite cannot
//! pass over it. Tallies are process-global atomics published to the
//! `storage.lockcheck.*` counters only by an explicit
//! [`publish_metrics`] call, so they never perturb span deltas in
//! ordinary debug tests.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Every declared lock in the workspace, mirrored by name in the lint
/// registry (`crates/lint/src/locks.rs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockId {
    /// `Db::catalog` (`RwLock<Catalog>`).
    Catalog,
    /// `BufferPool::state` — the frame-table mutex.
    PoolState,
    /// Any per-frame latch (`RwLock<Frame>`). Distinct frames share the
    /// id; holding several at once is legal (the flush batch does).
    PoolFrame,
    /// `BufferPool::disk` — the device mutex.
    PoolDisk,
    /// `BufferPool::retry` — the retry-policy cell.
    PoolRetry,
    /// `BufferPool::journal` — the intent-journal slot.
    PoolJournal,
}

/// Every tracked lock, for exhaustive cross-checks against the lint
/// registry (which must declare exactly this set, by these names).
pub const ALL_LOCKS: &[LockId] = &[
    LockId::Catalog,
    LockId::PoolState,
    LockId::PoolFrame,
    LockId::PoolDisk,
    LockId::PoolRetry,
    LockId::PoolJournal,
];

impl LockId {
    /// The registry name, identical to the lint declaration.
    pub const fn name(self) -> &'static str {
        match self {
            LockId::Catalog => "catalog",
            LockId::PoolState => "pool.state",
            LockId::PoolFrame => "pool.frame",
            LockId::PoolDisk => "pool.disk",
            LockId::PoolRetry => "pool.retry",
            LockId::PoolJournal => "pool.journal",
        }
    }
}

/// Declared partial order: `(held, acquired)` pairs that are legal.
/// Everything not listed (and not excused below) is a violation.
pub const ORDER: &[(LockId, LockId)] = &[
    (LockId::Catalog, LockId::PoolState),
    (LockId::Catalog, LockId::PoolFrame),
    (LockId::Catalog, LockId::PoolDisk),
    (LockId::Catalog, LockId::PoolRetry),
    (LockId::Catalog, LockId::PoolJournal),
    (LockId::PoolState, LockId::PoolFrame),
    (LockId::PoolState, LockId::PoolDisk),
    (LockId::PoolState, LockId::PoolRetry),
    (LockId::PoolJournal, LockId::PoolDisk),
];

/// Locks whose *holding* constrains nothing (the pin-count protocol).
/// A held frame latch implies `pin > 0` or a lock-free in-flight guard
/// drop, and no other thread ever blocks on a pinned frame's latch, so
/// a held latch cannot appear in any cross-thread wait cycle. (Two
/// threads taking exclusive latches on the same two pages in opposite
/// orders is a caller bug the latches themselves self-deadlock on; one
/// id covers all frames, so the sentinel cannot order instances.)
pub const HELD_EXEMPT: &[LockId] = &[LockId::PoolFrame];

/// Directional edges `(held, acquired, dominator)` legal only while the
/// dominator is held: the flush and miss paths take `pin == 0` frame
/// latches while holding the disk mutex, which is safe only because
/// `pool.state` serializes those paths across threads.
pub const SERIALIZED: &[(LockId, LockId, LockId)] =
    &[(LockId::PoolDisk, LockId::PoolFrame, LockId::PoolState)];

/// Is acquiring `acq` legal while `held` (in acquisition order) is held?
/// Pure and always compiled, so the lint crate's cross-check test and the
/// release build agree on the model even though release never calls it
/// per-acquisition.
pub fn order_allows(held: &[LockId], acq: LockId) -> bool {
    held.iter().all(|&h| pair_allows(held, h, acq))
}

fn pair_allows(held: &[LockId], h: LockId, acq: LockId) -> bool {
    if HELD_EXEMPT.contains(&h) {
        return true;
    }
    if h == acq {
        // Same-id nesting is self-deadlock for every remaining (mutex /
        // rwlock-behind-one-instance) id.
        return false;
    }
    if ORDER.contains(&(h, acq)) {
        return true;
    }
    SERIALIZED
        .iter()
        .any(|&(a, b, dom)| (a, b) == (h, acq) && held.contains(&dom))
}

/// Process-wide tallies, mirrored into `storage.lockcheck.*` on demand.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockTallies {
    /// Tracked acquisitions checked against the order.
    pub acquisitions: u64,
    /// Tracked releases observed.
    pub releases: u64,
    /// Order violations caught (each also panics in debug builds).
    pub violations: u64,
}

static ACQUISITIONS: AtomicU64 = AtomicU64::new(0);
static RELEASES: AtomicU64 = AtomicU64::new(0);
static VIOLATIONS: AtomicU64 = AtomicU64::new(0);
static PUBLISHED: Mutex<LockTallies> = Mutex::new(LockTallies {
    acquisitions: 0,
    releases: 0,
    violations: 0,
});

/// The tallies so far. All zero in release builds.
pub fn tallies() -> LockTallies {
    LockTallies {
        acquisitions: ACQUISITIONS.load(Ordering::Relaxed),
        releases: RELEASES.load(Ordering::Relaxed),
        violations: VIOLATIONS.load(Ordering::Relaxed),
    }
}

/// Publishes the tallies accumulated since the last publish to the
/// `storage.lockcheck.*` counters. Called explicitly (stress harness,
/// sentinel tests) rather than from a metrics flusher so the informational
/// counters never leak into unrelated span deltas.
pub fn publish_metrics() {
    let now = tallies();
    let mut last = PUBLISHED.lock().unwrap_or_else(PoisonError::into_inner);
    let deltas = [
        (
            "storage.lockcheck.acquisitions",
            now.acquisitions - last.acquisitions,
        ),
        ("storage.lockcheck.releases", now.releases - last.releases),
        (
            "storage.lockcheck.violations",
            now.violations - last.violations,
        ),
    ];
    for (name, d) in deltas {
        if d > 0 {
            pbsm_obs::counter(name).add(d);
        }
    }
    *last = now;
}

#[cfg(debug_assertions)]
mod armed {
    use super::{LockId, ACQUISITIONS, RELEASES, VIOLATIONS};
    use std::cell::RefCell;
    use std::sync::atomic::Ordering;

    thread_local! {
        static STACK: RefCell<Vec<LockId>> = const { RefCell::new(Vec::new()) };
    }

    /// Records (and order-checks) an acquisition of `id`. Called *before*
    /// blocking on the real lock so an inversion panics instead of
    /// deadlocking. Panics on violation.
    pub fn acquired(id: LockId) {
        ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if !super::order_allows(&stack, id) {
                VIOLATIONS.fetch_add(1, Ordering::Relaxed);
                let held: Vec<&str> = stack.iter().map(|l| l.name()).collect();
                let msg = format!(
                    "lockcheck: acquiring `{}` while holding [{}] violates the declared order",
                    id.name(),
                    held.join(", ")
                );
                super::dump_violation(&msg);
                panic!("{msg}");
            }
            stack.push(id);
        });
    }

    /// Records the release of `id`. Guards may drop out of acquisition
    /// order (e.g. two `PageRef`s dropped oldest-first), so this removes
    /// the most recent matching entry rather than popping blindly.
    pub fn released(id: LockId) {
        RELEASES.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&l| l == id) {
                stack.remove(pos);
            }
        });
    }

    /// The calling thread's current acquisition stack (test hook).
    pub fn held_stack() -> Vec<LockId> {
        STACK.with(|s| s.borrow().clone())
    }

    /// Clears the calling thread's stack — for tests that `catch_unwind`
    /// a seeded violation: the panic unwinds the guards of the *legal*
    /// acquisitions, but the violating id was never pushed, so after
    /// recovery the stack is already consistent; this is belt and braces.
    pub fn reset_thread() {
        STACK.with(|s| s.borrow_mut().clear());
    }
}

#[cfg(debug_assertions)]
pub use armed::{acquired, held_stack, released, reset_thread};

#[cfg(not(debug_assertions))]
mod disarmed {
    use super::LockId;

    #[inline(always)]
    pub fn acquired(_id: LockId) {}

    #[inline(always)]
    pub fn released(_id: LockId) {}

    pub fn held_stack() -> Vec<LockId> {
        Vec::new()
    }

    #[inline(always)]
    pub fn reset_thread() {}
}

#[cfg(not(debug_assertions))]
pub use disarmed::{acquired, held_stack, released, reset_thread};

/// Appends `msg` to the file named by `PBSM_LOCKCHECK_DUMP`, best-effort.
/// CI arms the variable so a violation leaves an artifact even after the
/// panicking thread is torn down. Debug-only like its sole caller.
#[cfg(debug_assertions)]
fn dump_violation(msg: &str) {
    use std::io::Write as _;
    if let Ok(path) = std::env::var("PBSM_LOCKCHECK_DUMP") {
        if path.is_empty() {
            return;
        }
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            let _ = writeln!(f, "{msg}");
        }
    }
}

/// An RAII wrapper pairing a real guard with its [`LockId`]: derefs
/// through to the guard's target and reports the release on drop. Deref
/// coercion keeps call sites written against the bare guard compiling
/// unchanged.
pub struct Tracked<G> {
    inner: G,
    #[cfg(debug_assertions)]
    id: LockId,
}

impl<G> Tracked<G> {
    /// Adopts an already-recorded acquisition (the caller ran
    /// [`acquired`] before blocking, as the latch helpers do).
    pub fn adopt(id: LockId, inner: G) -> Tracked<G> {
        #[cfg(not(debug_assertions))]
        let _ = id;
        Tracked {
            inner,
            #[cfg(debug_assertions)]
            id,
        }
    }
}

impl<G: Deref> Deref for Tracked<G> {
    type Target = G::Target;
    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

impl<G: DerefMut> DerefMut for Tracked<G> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.inner
    }
}

impl<G> Drop for Tracked<G> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        released(self.id);
    }
}

/// Locks `m` as lock `id`, order-checked, ignoring poison: shared state
/// stays consistent through the lock discipline, not unwind flags, and a
/// panicked reader must not wedge every other serving thread.
pub fn lock<'a, T>(m: &'a Mutex<T>, id: LockId) -> Tracked<MutexGuard<'a, T>> {
    acquired(id);
    Tracked::adopt(id, m.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Read-locks `l` as lock `id`, order-checked, ignoring poison.
pub fn read<'a, T>(l: &'a RwLock<T>, id: LockId) -> Tracked<RwLockReadGuard<'a, T>> {
    acquired(id);
    Tracked::adopt(id, l.read().unwrap_or_else(PoisonError::into_inner))
}

/// Write-locks `l` as lock `id`, order-checked, ignoring poison.
pub fn write<'a, T>(l: &'a RwLock<T>, id: LockId) -> Tracked<RwLockWriteGuard<'a, T>> {
    acquired(id);
    Tracked::adopt(id, l.write().unwrap_or_else(PoisonError::into_inner))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_order_is_a_dag() {
        // A cycle in ORDER would make the declaration self-contradictory:
        // follow edges from every node; none may reach itself.
        fn reaches(from: LockId, to: LockId, depth: usize) -> bool {
            if depth > ORDER.len() {
                return false;
            }
            ORDER
                .iter()
                .filter(|(a, _)| *a == from)
                .any(|&(_, b)| b == to || reaches(b, to, depth + 1))
        }
        for &(a, _) in ORDER {
            assert!(
                !reaches(a, a, 0),
                "declared ORDER has a cycle through {:?}",
                a
            );
        }
    }

    #[test]
    fn order_allows_declared_and_rejects_reversed() {
        assert!(order_allows(&[LockId::PoolState], LockId::PoolDisk));
        assert!(!order_allows(&[LockId::PoolDisk], LockId::PoolState));
        assert!(order_allows(&[], LockId::PoolDisk));
        // Pin protocol: a held latch constrains nothing, so both the
        // unpin direction and e.g. a caller pinning further pages work.
        assert!(order_allows(&[LockId::PoolFrame], LockId::PoolState));
        assert!(order_allows(&[LockId::PoolState], LockId::PoolFrame));
        assert!(order_allows(&[LockId::PoolFrame], LockId::PoolRetry));
        assert!(order_allows(&[LockId::PoolFrame], LockId::PoolDisk));
        // Serialized edge: disk → frame needs its dominator.
        assert!(!order_allows(&[LockId::PoolDisk], LockId::PoolFrame));
        assert!(order_allows(
            &[LockId::PoolState, LockId::PoolDisk],
            LockId::PoolFrame
        ));
        // Same-id reacquisition: frames only (distinct instances).
        assert!(order_allows(&[LockId::PoolFrame], LockId::PoolFrame));
        assert!(!order_allows(&[LockId::PoolState], LockId::PoolState));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn sentinel_trips_on_inverted_acquisition() {
        // Deliberate inversion: hold the "disk" then take the "state".
        // The sentinel must panic before the second lock blocks.
        let disk = Mutex::new(0u8);
        let state = Mutex::new(0u8);
        let before = tallies().violations;
        let result = std::panic::catch_unwind(|| {
            let _d = lock(&disk, LockId::PoolDisk);
            let _s = lock(&state, LockId::PoolState); // ← fires here
        });
        reset_thread();
        assert!(result.is_err(), "inverted acquisition must panic");
        assert_eq!(tallies().violations, before + 1);
        // And the declared direction is silent.
        let _s = lock(&state, LockId::PoolState);
        let _d = lock(&disk, LockId::PoolDisk);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn stack_tracks_acquire_release() {
        reset_thread();
        let state = Mutex::new(0u8);
        {
            let _g = lock(&state, LockId::PoolState);
            assert_eq!(held_stack(), vec![LockId::PoolState]);
        }
        assert!(held_stack().is_empty());
    }

    #[test]
    fn publish_is_idempotent_on_no_change() {
        publish_metrics();
        publish_metrics(); // second call publishes zero deltas
    }
}
