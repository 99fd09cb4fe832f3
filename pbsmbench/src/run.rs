//! The timed (untraced) run: one closed-loop client issuing joins and
//! selections, every result checked against the reference.

use crate::data::{Digest, Env, Reference, WINDOWS};
use pbsm_join::inl::inl_join;
use pbsm_join::pbsm::pbsm_join;
use pbsm_join::rtree_join::rtree_join;
use pbsm_join::select::select_index;
use pbsm_join::ShardAlgorithm;
use pbsm_storage::Db;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Selections per round: enough that the p99 of one round alone has ten
/// samples beyond it.
pub const SELECTS_PER_ROUND: usize = 1000;

/// The join operations of one round, in the order a round runs them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Join {
    Pbsm,
    Rtree,
    Inl,
    ShardedPbsm,
}

impl Join {
    pub const ALL: [Join; 4] = [Join::Pbsm, Join::Rtree, Join::Inl, Join::ShardedPbsm];

    /// The end-to-end metric holding this join's median wall time.
    pub fn metric(self) -> &'static str {
        match self {
            Join::Pbsm => "pbsm_join_s",
            Join::Rtree => "rtree_join_s",
            Join::Inl => "inl_join_s",
            Join::ShardedPbsm => "sharded_pbsm_join_s",
        }
    }
}

/// Operations attempted and failed (typed error, panic or mismatch).
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, outcome: std::thread::Result<Result<(), String>>) {
        self.attempted += 1;
        let err = match outcome {
            Ok(Ok(())) => return,
            Ok(Err(e)) => e,
            Err(payload) => format!(
                "panic: {}",
                payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string payload")
            ),
        };
        self.failed += 1;
        eprintln!("FAILED {what}: {err}");
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Everything the timed phase measured.
#[derive(Default)]
pub struct Timed {
    /// Wall seconds per join, indexed like [`Join::ALL`].
    pub join_s: [Vec<f64>; 4],
    pub select_ms: Vec<f64>,
    /// Wall seconds the selection batches ran.
    pub select_wall_s: f64,
    /// Σ(|R|+|S|) over completed joins.
    pub tuples_joined: u64,
    pub wall_s: f64,
    /// Modeled disk seconds of each round's joins, main database and
    /// shards.
    pub io_s_per_round: Vec<f64>,
    pub tally: Tally,
}

impl Timed {
    /// Adds the measurements of a later segment of the same run.
    pub fn absorb(&mut self, other: Timed) {
        for (mine, theirs) in self.join_s.iter_mut().zip(other.join_s) {
            mine.extend(theirs);
        }
        self.select_ms.extend(other.select_ms);
        self.select_wall_s += other.select_wall_s;
        self.tuples_joined += other.tuples_joined;
        self.wall_s += other.wall_s;
        self.io_s_per_round.extend(other.io_s_per_round);
        self.tally.absorb(other.tally);
    }
}

/// Runs one join and checks it against the reference.
fn run_join(env: &mut Env, join: Join, reference: &Reference) -> Result<(), String> {
    let (db, spec, config) = (&env.db, &env.spec, &env.config);
    let got = match join {
        Join::ShardedPbsm => {
            let out = env
                .shards
                .join(ShardAlgorithm::Pbsm, spec, config)
                .map_err(|e| e.to_string())?;
            let mut keys = out.pairs;
            keys.sort_unstable();
            return check(Digest::of(keys), reference.join_keys);
        }
        Join::Pbsm => pbsm_join(db, spec, config),
        Join::Rtree => rtree_join(db, spec, config),
        Join::Inl => inl_join(db, spec, config),
    };
    let out = got.map_err(|e| e.to_string())?;
    check(Digest::of_oid_pairs(&out.pairs), reference.join)
}

/// Times one join into `timed`; a failed join leaves no sample.
fn timed_join(env: &mut Env, timed: &mut Timed, reference: &Reference, join: Join) {
    let t = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| run_join(env, join, reference)));
    let secs = t.elapsed().as_secs_f64();
    let ok = matches!(outcome, Ok(Ok(())));
    timed.tally.record(join.metric(), outcome);
    if ok {
        timed.join_s[join as usize].push(secs);
        timed.tuples_joined += env.join_tuples();
    }
}

fn check(got: Digest, want: Digest) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("mismatch: got {got:?}, reference {want:?}"))
    }
}

/// Runs one selection and checks it against the reference.
fn select_once(db: &Db, relation: &str, reference: &Reference, w: usize) -> Result<(), String> {
    let out = select_index(db, relation, &reference.windows[w]).map_err(|e| e.to_string())?;
    check(Digest::of_oids(&out.oids), reference.selects[w])
}

/// Runs [`SELECTS_PER_ROUND`] selections from window `first` on, each
/// timed and checked; returns the latencies in ms of the correct ones.
fn select_batch(db: &Db, relation: &str, reference: &Reference, first: usize) -> (Vec<f64>, Tally) {
    let mut ms = Vec::with_capacity(SELECTS_PER_ROUND);
    let mut tally = Tally::default();
    for w in first..first + SELECTS_PER_ROUND {
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            select_once(db, relation, reference, w % WINDOWS)
        }));
        let elapsed = t.elapsed().as_secs_f64() * 1e3;
        if matches!(outcome, Ok(Ok(()))) {
            ms.push(elapsed);
        }
        tally.record("select", outcome);
    }
    (ms, tally)
}

/// One client runs rounds back to back: each join once (pools cleared
/// first on cold workloads), then a batch of selections.
pub fn single_client(env: &mut Env, reference: &Reference, seconds: f64) -> Timed {
    let relation = env.workload.select_relation();
    let mut cursor = 0usize;
    let mut round = |env: &mut Env, timed: &mut Timed| {
        let io0 = env.io_ms();
        for join in Join::ALL {
            env.cool();
            timed_join(env, timed, reference, join);
        }
        env.cool();
        timed.io_s_per_round.push((env.io_ms() - io0) / 1e3);
        // The batch runs on a thread of its own, still one operation at a
        // time: on the joining thread every span would also copy the
        // counters interned for each temp file the joins created, so
        // selection latency would grow with the joins completed before it
        // (NOTES.md, open findings).
        let batch = Instant::now();
        let db = &env.db;
        let (ms, tally) = std::thread::scope(|s| {
            s.spawn(|| select_batch(db, relation, reference, cursor))
                .join()
                .expect("selection batch thread")
        });
        cursor += SELECTS_PER_ROUND;
        timed.select_wall_s += batch.elapsed().as_secs_f64();
        timed.select_ms.extend(ms);
        timed.tally.absorb(tally);
        // The program's observability state keeps every finished span
        // and query profile until reset, as its own harness binaries do
        // between runs; without this, memory and per-span cost grow with
        // the number of operations a run completes.
        pbsm_obs::reset();
    };
    // An untimed first round fills caches and lazily built state; its
    // results are checked like every other.
    let mut warmup = Timed::default();
    round(env, &mut warmup);
    let mut timed = Timed {
        tally: warmup.tally,
        ..Timed::default()
    };
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        round(env, &mut timed);
    }
    timed.wall_s = t0.elapsed().as_secs_f64();
    timed
}
