//! Ad-hoc breakdown of the indexed-vs-scan `knn_threshold` cost at ci
//! scale: candidate generation, per-candidate refiner construction (the
//! subtree filter vs the flat scan filter), influence-set sizes and the
//! end-to-end query — the numbers behind the
//! `indexed_early_exit_knn_vs_scan` baseline in `BENCH_idca.json`.
use std::time::Instant;
use udb_bench::Scale;
use udb_core::{Engine, IdcaConfig, ObjRef, QueryEngine, RefineGoal};

fn main() {
    let scale = Scale::ci();
    let cfg = scale.synthetic_config(0.05);
    let db = cfg.generate();
    let qs = scale.query_set(&db, &cfg);
    let r = qs.references[0].clone();
    let knn_cfg = IdcaConfig {
        max_iterations: scale.max_iterations,
        ..Default::default()
    };
    let scan = QueryEngine::with_config(&db, knn_cfg.clone());
    let indexed = Engine::with_config(db.clone(), knn_cfg);
    let (k, tau) = (5usize, 0.3f64);
    let goal = RefineGoal::threshold(k, tau);

    // candidate generation
    let t = Instant::now();
    let mut c1 = Vec::new();
    for _ in 0..50 {
        c1 = scan.knn_candidates(r.mbr(), k);
    }
    println!(
        "scan candidates:    {} in {:.2} ms/call",
        c1.len(),
        t.elapsed().as_secs_f64() / 50.0 * 1e3
    );
    let t = Instant::now();
    let mut c2 = Vec::new();
    for _ in 0..50 {
        c2 = indexed.knn_candidates(r.mbr(), k);
    }
    println!(
        "indexed candidates: {} in {:.2} ms/call",
        c2.len(),
        t.elapsed().as_secs_f64() / 50.0 * 1e3
    );

    // refiner construction (filter + influence build)
    let t = Instant::now();
    for _ in 0..20 {
        for &id in &c1 {
            std::hint::black_box(scan.refiner(
                ObjRef::Db(id),
                ObjRef::External(&r),
                goal.predicate(),
            ));
        }
    }
    println!(
        "scan refiner build (all cands):    {:.2} ms",
        t.elapsed().as_secs_f64() / 20.0 * 1e3
    );
    let t = Instant::now();
    for _ in 0..20 {
        for &id in &c2 {
            std::hint::black_box(indexed.refiner(
                ObjRef::Db(id),
                ObjRef::External(&r),
                goal.predicate(),
            ));
        }
    }
    println!(
        "indexed refiner build (all cands): {:.2} ms",
        t.elapsed().as_secs_f64() / 20.0 * 1e3
    );
    for (name, ids) in [("scan", &c1), ("indexed", &c2)] {
        let inf: usize = ids
            .iter()
            .map(|&id| {
                scan.refiner(ObjRef::Db(id), ObjRef::External(&r), goal.predicate())
                    .influence_ids()
                    .len()
            })
            .sum();
        println!("{name}: total influence objects {inf}");
    }

    // full queries
    let t = Instant::now();
    for _ in 0..5 {
        std::hint::black_box(scan.knn_threshold(&r, k, tau));
    }
    println!(
        "scan knn_threshold:    {:.1} ms",
        t.elapsed().as_secs_f64() / 5.0 * 1e3
    );
    let t = Instant::now();
    for _ in 0..5 {
        std::hint::black_box(indexed.knn_threshold(&r, k, tau));
    }
    println!(
        "indexed knn_threshold: {:.1} ms",
        t.elapsed().as_secs_f64() / 5.0 * 1e3
    );
}
