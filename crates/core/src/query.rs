//! One query vocabulary: the study's join plans and the window
//! selection as data, and the two executors that run them.
//!
//! The paper's §4 runs one spatial join under three interchangeable
//! plans — PBSM, the BKS93 R-tree join and indexed nested loops — so the
//! plan is a value ([`Algorithm`]) and a query is a value ([`Query`]).
//! [`execute`] runs a query against a [`Db`]; [`execute_at`] runs it
//! against a serving [`Snapshot`] after checking the serving contract.

use crate::inl::{index_side, inl_join};
use crate::pbsm::pbsm_join_resume;
use crate::rtree_join::rtree_join;
use crate::select::{select_index, select_scan, SelectOutcome};
use crate::telemetry::QueryClass;
use crate::{JoinConfig, JoinOutcome, JoinSpec};
use pbsm_geom::Rect;
use pbsm_storage::journal::JoinResume;
use pbsm_storage::{Db, Snapshot, StorageError, StorageResult};

/// The three join plans of the study.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Partition based spatial-merge join (§3).
    Pbsm,
    /// BKS93 synchronized traversal of two R\*-trees (§4.2).
    RtreeJoin,
    /// Indexed nested loops (§4.1).
    Inl,
}

impl Algorithm {
    /// All three plans, in the study's order.
    pub const ALL: [Algorithm; 3] = [Algorithm::Pbsm, Algorithm::RtreeJoin, Algorithm::Inl];

    /// The label the paper's figures use.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Pbsm => "PBSM Join",
            Algorithm::RtreeJoin => "R-tree Based Join",
            Algorithm::Inl => "Idx. Nested Loops",
        }
    }

    /// Short stable identifier for metric/report keys.
    pub fn key(self) -> &'static str {
        self.class().key()
    }

    fn class(self) -> QueryClass {
        match self {
            Algorithm::Pbsm => QueryClass::Pbsm,
            Algorithm::RtreeJoin => QueryClass::Rtree,
            Algorithm::Inl => QueryClass::Inl,
        }
    }
}

/// One query: a join under a chosen plan, or a window selection by scan
/// or index probe.
#[derive(Clone, Debug)]
pub enum Query {
    /// Join `spec` with plan `alg`.
    Join {
        /// The plan.
        alg: Algorithm,
        /// Inputs and predicate.
        spec: JoinSpec,
    },
    /// Every tuple of `relation` whose geometry intersects `window`.
    Select {
        /// Probe the relation's R\*-tree instead of scanning its heap.
        index: bool,
        /// Catalog name of the relation.
        relation: String,
        /// The query window.
        window: Rect,
    },
}

impl Query {
    /// The query's telemetry class.
    pub fn class(&self) -> QueryClass {
        match self {
            Query::Join { alg, .. } => alg.class(),
            Query::Select { index: false, .. } => QueryClass::SelectScan,
            Query::Select { index: true, .. } => QueryClass::SelectIndex,
        }
    }
}

/// What a query produced.
pub enum Outcome {
    /// A join's pairs, costs and counters.
    Join(JoinOutcome),
    /// A selection's OIDs and costs.
    Select(SelectOutcome),
}

impl Outcome {
    /// The join answer; `None` for a selection.
    pub fn into_join(self) -> Option<JoinOutcome> {
        match self {
            Outcome::Join(out) => Some(out),
            Outcome::Select(_) => None,
        }
    }
}

/// Runs `query` against `db`. The index joins build missing indexes as
/// in the paper's Figures 10–11 (an index selection never builds one).
/// `resume` carries crash checkpoints from [`Db::recover`] and reaches
/// PBSM only; the other plans restart from scratch.
pub fn execute(
    db: &Db,
    query: &Query,
    config: &JoinConfig,
    resume: Option<&JoinResume>,
) -> StorageResult<Outcome> {
    match query {
        Query::Join { alg, spec } => match alg {
            Algorithm::Pbsm => pbsm_join_resume(db, spec, config, resume),
            Algorithm::RtreeJoin => rtree_join(db, spec, config),
            Algorithm::Inl => inl_join(db, spec, config),
        }
        .map(Outcome::Join),
        Query::Select {
            index,
            relation,
            window,
        } => if *index {
            select_index(db, relation, window)
        } else {
            select_scan(db, relation, window)
        }
        .map(Outcome::Select),
    }
}

/// [`execute`] against a read snapshot — the serving-thread entry point.
///
/// The serving contract: snapshots never build an index. A build would
/// write the catalog and race identical builds on sibling threads, so
/// every index a query needs must exist before snapshots are handed out.
/// The R-tree join needs both inputs' indexes and INL the one its §4.1/
/// §4.5 side pick chooses; a missing one surfaces as the typed
/// `UnknownRelation("<name> (index)")` error an index selection also
/// returns. PBSM's temp files are private to the running query, so
/// concurrent joins over the shared pool do not interact.
pub fn execute_at(
    snap: Snapshot<'_>,
    query: &Query,
    config: &JoinConfig,
    resume: Option<&JoinResume>,
) -> StorageResult<Outcome> {
    if let Query::Join { alg, spec } = query {
        let cat = snap.catalog();
        let left = cat.relation(&spec.left)?;
        let right = cat.relation(&spec.right)?;
        let (left_needed, right_needed) = match alg {
            Algorithm::Pbsm => (false, false),
            Algorithm::RtreeJoin => (true, true),
            Algorithm::Inl => {
                let on_left = index_side(&cat, left, right);
                (on_left, !on_left)
            }
        };
        for (meta, needed) in [(left, left_needed), (right, right_needed)] {
            if needed && cat.index(&meta.name).is_none() {
                return Err(StorageError::UnknownRelation(format!(
                    "{} (index)",
                    meta.name
                )));
            }
        }
    }
    execute(snap.db(), query, config, resume)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::{build_index, load_relation};
    use pbsm_geom::predicates::SpatialPredicate;
    use pbsm_storage::DbConfig;

    #[test]
    fn keys_match_query_classes() {
        let keys: Vec<&str> = Algorithm::ALL.iter().map(|a| a.key()).collect();
        assert_eq!(keys, ["pbsm", "rtree", "inl"]);
        let select = Query::Select {
            index: true,
            relation: "r".into(),
            window: Rect::new(0.0, 0.0, 1.0, 1.0),
        };
        assert_eq!(select.class(), QueryClass::SelectIndex);
    }

    #[test]
    fn snapshot_requires_the_chosen_inl_index_only() {
        let db = Db::new(DbConfig::with_pool_mb(2));
        let big = crate::testgen::mk_tuples(300, 3, 60.0, 2, 1.0, 0.0, 16);
        let small = crate::testgen::mk_tuples(80, 7, 60.0, 2, 1.0, 0.0, 16);
        let big = load_relation(&db, "big", &big, false).unwrap();
        load_relation(&db, "small", &small, false).unwrap();
        let config = JoinConfig::for_db(&db);
        let join = |alg| Query::Join {
            alg,
            spec: JoinSpec::new("big", "small", SpatialPredicate::Intersects),
        };
        let missing = |alg| match execute_at(db.read_snapshot(), &join(alg), &config, None) {
            Err(StorageError::UnknownRelation(name)) => name,
            Err(e) => panic!("expected UnknownRelation, got {e}"),
            Ok(_) => panic!("a snapshot query built an index"),
        };
        // Neither input indexed: INL would build on the smaller side.
        assert_eq!(missing(Algorithm::Inl), "small (index)");
        assert_eq!(missing(Algorithm::RtreeJoin), "big (index)");
        // An index on the larger side flips INL's pick to it (§4.5).
        build_index(&db, &big).unwrap();
        let want = execute(&db, &join(Algorithm::Pbsm), &config, None)
            .unwrap()
            .into_join()
            .unwrap()
            .pairs;
        let got = execute_at(db.read_snapshot(), &join(Algorithm::Inl), &config, None)
            .unwrap()
            .into_join()
            .unwrap()
            .pairs;
        assert_eq!(got, want);
        assert_eq!(missing(Algorithm::RtreeJoin), "small (index)");
    }
}
