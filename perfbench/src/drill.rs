//! Layer drill-downs below `run_batch`: the kNN refinement loop rebuilt
//! from public calls, and the router's cost at two shards.

use udb_core::{Engine, ObjRef, QueryBatch, RefineGoal, ShardedEngine, ThresholdResult};
use udb_object::UncertainObject;
use udb_serve::{format_results, Op};

use crate::trace::Tracer;

/// One kNN-threshold query to drill into, with the reply the engine
/// gave it.
pub struct KnnCase {
    /// Op id in the replayed sequence.
    pub op: u32,
    /// The query object.
    pub q: UncertainObject,
    /// The `k` of the query.
    pub k: usize,
    /// The threshold `τ`.
    pub tau: f64,
    /// The engine's `RES ...` reply for it.
    pub expected: String,
}

/// Counters of the replicated refinement loop.
#[derive(Debug, Default, Clone, Copy)]
pub struct DrillCounts {
    /// Queries drilled.
    pub queries: u64,
    /// Candidates refined (one refiner each).
    pub candidates: u64,
    /// Snapshot rounds over all candidates.
    pub rounds: u64,
    /// Influence objects after the complete-domination filter.
    pub influence: u64,
    /// Certain dominators counted by the filter.
    pub complete: u64,
    /// Candidates whose final bounds decide the predicate.
    pub decided: u64,
    /// Candidates stopped at `max_iterations` still undecided.
    pub max_depth: u64,
    /// Queries whose rebuilt result differs from the engine's reply.
    pub mismatches: u64,
}

/// Replays kNN-threshold queries on a one-shard engine through
/// `knn_candidates` + `Engine::refiner` and the single-lane lock-step
/// loop of `refine_lockstep` (prefilter off, as in `serve`): snapshot,
/// stop when `RefineGoal::decided` or `converged`, else `step`. Every
/// query's rebuilt result must format to the engine's reply.
pub fn drill_knn(t: &mut Tracer, engine: &Engine, cases: &[KnnCase]) -> DrillCounts {
    let max_iter = engine.config().max_iterations;
    let mut c = DrillCounts::default();
    for case in cases {
        let op = case.op;
        t.enter("drill.query", op);
        let goal = RefineGoal::threshold(case.k, case.tau);
        let mut ids = t.time("index.knn_candidates", op, || {
            engine.knn_candidates(case.q.mbr(), case.k)
        });
        ids.sort_unstable();
        let mut out: Vec<ThresholdResult> = Vec::new();
        for id in ids {
            let q = &case.q;
            let mut refiner = t.time("refiner.build", op, || {
                engine.refiner(ObjRef::Db(id), ObjRef::External(q), goal.predicate())
            });
            c.candidates += 1;
            c.influence += refiner.influence_ids().len() as u64;
            c.complete += refiner.complete_count() as u64;
            let snap = loop {
                let snap = t.time("refiner.snapshot", op, || refiner.snapshot());
                c.rounds += 1;
                if goal.decided(&snap) || refiner.converged(&snap) {
                    break snap;
                }
                if !t.time("refiner.step", op, || refiner.step()) {
                    break snap;
                }
            };
            if goal.decided(&snap) {
                c.decided += 1;
            } else if snap.iteration >= max_iter {
                c.max_depth += 1;
            }
            let (lo, hi) = snap
                .predicate_cdf
                .expect("threshold predicate yields a CDF");
            if hi > 0.0 {
                out.push(ThresholdResult {
                    id,
                    prob_lower: lo,
                    prob_upper: hi,
                    iterations: snap.iteration,
                });
            }
        }
        out.sort_by_key(|r| r.id);
        t.exit();
        c.queries += 1;
        if format_results(&out) != case.expected {
            c.mismatches += 1;
        }
    }
    c
}

/// Re-runs recorded fused query runs on a one-shard engine, one span
/// each; returns how many runs differ from the sharded engine's results.
pub fn router_probe(t: &mut Tracer, one: &ShardedEngine, runs: &[(Vec<Op>, Vec<String>)]) -> u64 {
    let mut mismatches = 0;
    for (ops, expected) in runs {
        let mut batch = QueryBatch::new();
        for op in ops {
            match op {
                Op::Knn { q, k, tau } => batch.knn_threshold(q.clone(), *k, *tau),
                Op::Rknn { q, k, tau } => batch.rknn_threshold(q.clone(), *k, *tau),
                Op::TopM { q, m } => batch.top_probable_nn(q.clone(), *m),
                _ => unreachable!("only queries are fused"),
            };
        }
        let results = t.time("router.run_batch_1shard", crate::trace::NO_OP, || {
            one.run_batch(&batch)
        });
        let got: Vec<String> = results.iter().map(|r| format_results(r)).collect();
        if &got != expected {
            mismatches += 1;
        }
    }
    mismatches
}
