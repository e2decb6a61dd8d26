//! The three workloads: generation, the TCP run, the oracle check and
//! the traced replay.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use udb_core::{Engine, IdcaConfig, ShardedEngine, StandingSpec};
use udb_object::{Database, UncertainObject};
use udb_serve::{parse_line, Op, Server};
use udb_workload::{QueryStreamConfig, StreamOp, StreamQuery, SyntheticConfig};

use crate::drill::{drill_knn, router_probe, DrillCounts, KnnCase};
use crate::oracle::{self, diff, of_conn};
use crate::replay::{self, reply_members, Replica, Tagged};
use crate::stats::{mean, median, percentile, ratio, sorted};
use crate::tcp::{tree_bytes, Conn, ServeProc};
use crate::trace::{self, Tracer, NO_OP};
use crate::{Ctx, Outcome};

/// Server spawns (each loading the full seed store) per run; `setup_s`
/// is their median.
const SETUP_REPS: usize = 7;
/// `durable_churn` reopens after `kill -9`; `reopen_s` is their median.
const REOPEN_REPS: usize = 5;
/// Objects in the `query_mix` / `standing_churn` store.
const STORE_N: usize = 10_000;
/// Objects in the `durable_churn` store (reopen cost grows
/// superlinearly with it).
const DURABLE_N: usize = 2_000;
/// Maximum relative object extent (the paper uses 0.004; see DESIGN.md).
const EXTENT: f64 = 0.001;
/// Queries generated per `query_mix` client (far more than a run sends).
const QUERIES_PER_CLIENT: usize = 3_000;
/// `durable_churn` open-loop arrival rate, ops per second.
const DURABLE_RATE: f64 = 400.0;
/// Standing queries the `standing_churn` subscriber registers.
const SUBS: usize = 16;
/// INSERT/DELNEAR pairs generated for `standing_churn`.
const CHURN_PAIRS: usize = 4_000;
/// Half-extent of the `query_mix` hot spots. Query cost depends on the
/// few objects around the query; at the generator's default ±0.02 a
/// spot holds ~16 objects, so half of a run's queries sample a handful
/// of neighbourhoods and the run's cost swings with where the two spots
/// land. ±0.1 (~400 objects per spot) still fits the engine's
/// 1,024-object decomposition cache.
const QUERY_HOT_SPREAD: f64 = 0.1;
/// The router and refiner probes replay the first 1/this of a run.
const PROBE_DIVISOR: usize = 3;
/// An UPDATE targets a gid inserted at least this many ops earlier.
const UPDATE_LAG: usize = 8;

/// Query-level worker lanes of an oracle that is not also the timed
/// in-process replay (the benchmark targets 2-CPU hosts).
const ORACLE_LANES: usize = 2;

/// Query-run fusion cap of that oracle: replies do not depend on it,
/// and wide runs keep both lanes busy despite the heavy-tailed costs.
const ORACLE_BATCH_CAP: usize = 256;

/// The serve pump's default query-run fusion cap.
const BATCH_CAP: usize = 16;

/// Derives an independent seed for one input stream of a run.
fn mix(seed: u64, stream: u64) -> u64 {
    // splitmix64 finalizer
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn store_config(seed: u64, n: usize) -> SyntheticConfig {
    SyntheticConfig {
        n,
        max_extent: EXTENT,
        seed: mix(seed, 1),
        ..Default::default()
    }
}

fn json(o: &UncertainObject) -> String {
    serde_json::to_string(o).expect("objects serialize")
}

/// `INSERT` lines for every store object, then `STATS` (whose reply is
/// the "store loaded" signal).
fn load_lines(db: &Database) -> Vec<String> {
    let mut lines: Vec<String> = db
        .iter()
        .map(|(_, o)| format!("INSERT {}", json(o)))
        .collect();
    lines.push("STATS".to_owned());
    lines
}

/// Objects near two hot spots (a `hot` fraction of them) drawn by the
/// query-stream generator, in generation order.
fn hot_stream(store: &SyntheticConfig, cfg: QueryStreamConfig) -> Vec<StreamQuery> {
    cfg.generate(store).batches.into_iter().flatten().collect()
}

fn query_line(e: &StreamQuery) -> String {
    let json = json(&e.object);
    match e.op {
        StreamOp::KnnThreshold { k, tau } => format!("KNN {k} {tau} {json}"),
        StreamOp::RknnThreshold { k, tau } => format!("RKNN {k} {tau} {json}"),
        StreamOp::TopProbableNn { m } => format!("TOPM {m} {json}"),
        _ => unreachable!("query streams hold queries only"),
    }
}

fn tagged(conn: u64, lines: &[String]) -> Vec<Tagged> {
    lines.iter().map(|l| (conn, l.clone())).collect()
}

fn ms(v: &[f64]) -> Vec<f64> {
    sorted(v.iter().map(|s| s * 1e3).collect())
}

fn secs_since(t: Instant, base: Instant) -> f64 {
    t.saturating_duration_since(base).as_secs_f64()
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Checks one connection's replies against the oracle's; mismatches
/// count as errors, and any mismatch fails the run.
fn check(out: &mut Outcome, what: &str, expected: &[String], got: &[String]) {
    let (bad, first) = diff(expected, got);
    out.errors += bad + oracle::err_count(got);
    if let Some(first) = first {
        out.fail(format!(
            "{what}: {bad} replies differ from the oracle; {first}"
        ));
    }
}

/// A served store: the process kept for the measured phase plus every
/// spawn-to-loaded time.
struct Setup {
    proc: ServeProc,
    times: Vec<f64>,
    load_replies: Vec<String>,
    /// `VmHWM` of the kept process once its store was loaded, MB.
    loaded_rss_mb: f64,
}

/// Spawns `serve` [`SETUP_REPS`] times and loads the store each time
/// (`setup_s` = spawn → store loaded → `STATS` reply); keeps the last
/// process. Durable runs get a fresh directory per spawn.
fn setup(
    ctx: &Ctx,
    tag: &str,
    shards: usize,
    dirs: Option<&[PathBuf]>,
    load: &[String],
) -> Result<Setup, String> {
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let mut args = vec!["--shards".to_owned(), shards.to_string()];
        if let Some(dirs) = dirs {
            let _ = std::fs::remove_dir_all(&dirs[rep]);
            args.push("--dir".to_owned());
            args.push(dirs[rep].display().to_string());
        }
        let log = ctx.out.join(format!("{tag}-setup-{rep}.log"));
        let start = Instant::now();
        let proc = ServeProc::spawn(&ctx.serve, &args, &log)?;
        let mut conn = proc.connect()?;
        let replies = conn.pipeline(load, load.len())?;
        times.push(start.elapsed().as_secs_f64());
        drop(conn);
        if rep + 1 == SETUP_REPS {
            kept = Some((proc, replies));
        } else {
            proc.kill();
        }
    }
    let (proc, load_replies) = kept.expect("at least one setup");
    Ok(Setup {
        loaded_rss_mb: proc.rss_peak_mb(),
        proc,
        times,
        load_replies,
    })
}

/// Inputs of the per-layer metrics beyond the spans themselves.
#[derive(Default)]
struct LayerInputs {
    ops: usize,
    queries: usize,
    /// In-process `execute_tagged` time of the measured ops.
    untraced_s: f64,
    /// TCP busy time for the same ops.
    tcp_s: f64,
    drill: Option<DrillCounts>,
    /// Fused query runs the one-shard router probe re-ran.
    router_batches: usize,
    decomp_cache_len: usize,
    /// Mean `standing.subscribe` time, ms.
    subscribe_ms: f64,
    /// Mutation-call time with subscriptions minus without, µs each.
    maintain_us: f64,
    reanswer_share: f64,
    /// Standing deltas per mutation.
    deltas_per_mutation: f64,
    /// Durable mutation-call time minus in-memory, µs each.
    wal_append_us: f64,
    wal_bytes_per_mutation: f64,
    checkpoints: u64,
    late_p99_ms: f64,
}

/// Summed duration of every span named `name` under roots named `root`.
fn total_ns(spans: &[trace::Span], root: &str, names: &[&str]) -> f64 {
    let calls = trace::call_stats(spans, root);
    names
        .iter()
        .filter_map(|n| calls.get(n))
        .map(|c| c.total_ns as f64)
        .sum()
}

/// Durations (ns) of the spans named one of `names` under roots named
/// `root`, in recording order.
fn durations(spans: &[trace::Span], root: &str, names: &[&str]) -> Vec<f64> {
    let ids = trace::under_root(spans, root);
    spans
        .iter()
        .zip(ids)
        .filter(|(s, inside)| *inside && names.contains(&s.name))
        .map(|(s, _)| s.dur_ns() as f64)
        .collect()
}

/// Mean extra µs per call of the first `n` `names` spans under `root`
/// over the first `n` `twin.mutate` spans of the `probe.twin` root: the
/// cost of what the measured engine does that its twin does not.
fn extra_over_twin_us(spans: &[trace::Span], root: &str, names: &[&str], n: usize) -> f64 {
    let a = durations(spans, root, names);
    let b = durations(spans, "probe.twin", &["twin.mutate"]);
    let n = n.min(a.len()).min(b.len());
    let sum = |v: &[f64]| v[..n].iter().sum::<f64>();
    ratio((sum(&a) - sum(&b)) / 1e3, n as f64)
}

/// Mean µs of the spans named `name` under roots named `root`.
fn mean_us(spans: &[trace::Span], root: &str, name: &str) -> f64 {
    trace::call_stats(spans, root)
        .get(name)
        .map_or(0.0, |c| c.mean_us())
}

/// The engine's mutation calls in the traced replay.
const MUTATIONS: [&str; 3] = ["engine.insert", "engine.remove", "engine.update"];

/// Prints the layer self-time table of the traced replay, checks it
/// against the untraced replay total, and derives every per-layer
/// metric.
fn layer_metrics(out: &mut Outcome, t: &Tracer, x: &LayerInputs) {
    let spans = t.spans();
    let replay_ns = trace::root_ns(spans, "replay") as f64;
    let layers = trace::layer_self_times(spans, "replay");
    let self_sum: u64 = layers.values().map(|v| v.0).sum();
    for (layer, (ns, count)) in &layers {
        println!(
            "self {layer:<9} {:>12.3} ms {:>6.2}% {count:>8} spans",
            *ns as f64 / 1e6,
            100.0 * ratio(*ns as f64, self_sum as f64)
        );
    }
    for root in [
        "probe.router",
        "probe.drill",
        "probe.twin",
        "probe.standing",
        "probe.open",
    ] {
        for (layer, (ns, count)) in trace::layer_self_times(spans, root) {
            println!(
                "self {root}/{layer:<9} {:>12.3} ms {count:>8} spans",
                ns as f64 / 1e6
            );
        }
    }
    let untraced_ns = x.untraced_s * 1e9;
    let gap = ratio((self_sum as f64 - untraced_ns).abs(), untraced_ns);
    println!(
        "trace accounting: layer self times {:.3} ms vs untraced replay {:.3} ms (gap {:.2}%)",
        self_sum as f64 / 1e6,
        untraced_ns / 1e6,
        100.0 * gap
    );
    let replay_us = |name: &str| mean_us(spans, "replay", name);
    let drill_us = |name: &str| mean_us(spans, "probe.drill", name);
    let per = |ns: f64, n: usize| ratio(ns, n as f64);

    out.layer("serve.parse_us_per_line", replay_us("serve.parse"), "us");
    out.layer("serve.format_us_per_reply", replay_us("serve.format"), "us");
    out.layer(
        "serve.execute_us_per_op",
        per(x.untraced_s * 1e6, x.ops),
        "us",
    );
    // negative when the in-process replay ran slower than TCP (host drift)
    out.layer(
        "serve.front_share",
        1.0 - ratio(x.untraced_s, x.tcp_s),
        "ratio",
    );
    let batch_ns = total_ns(spans, "replay", &["batch.run_batch"]);
    out.layer(
        "batch.run_batch_us_per_query",
        per(batch_ns / 1e3, x.queries),
        "us",
    );
    out.layer("batch.decomp_cache_len", x.decomp_cache_len as f64, "count");

    let d = x.drill.unwrap_or_default();
    out.layer(
        "index.candidates_us_per_query",
        drill_us("index.knn_candidates"),
        "us",
    );
    out.layer(
        "index.candidates_per_query",
        ratio(d.candidates as f64, d.queries as f64),
        "count",
    );
    out.layer("index.nearest_us", replay_us("index.nearest"), "us");
    let cand = d.candidates as f64;
    out.layer(
        "refiner.build_us_per_candidate",
        drill_us("refiner.build"),
        "us",
    );
    out.layer("refiner.step_us_per_round", drill_us("refiner.step"), "us");
    out.layer(
        "refiner.snapshot_us_per_round",
        drill_us("refiner.snapshot"),
        "us",
    );
    out.layer(
        "refiner.rounds_per_candidate",
        ratio(d.rounds as f64, cand),
        "count",
    );
    out.layer(
        "refiner.influence_per_candidate",
        ratio(d.influence as f64, cand),
        "count",
    );
    out.layer(
        "refiner.complete_per_candidate",
        ratio(d.complete as f64, cand),
        "count",
    );
    out.layer(
        "refiner.decided_share",
        ratio(d.decided as f64, cand),
        "ratio",
    );
    out.layer(
        "refiner.max_depth_share",
        ratio(d.max_depth as f64, cand),
        "ratio",
    );
    let refine_ns = total_ns(
        spans,
        "probe.drill",
        &["refiner.build", "refiner.step", "refiner.snapshot"],
    );
    let drill_ns = total_ns(spans, "probe.drill", &["drill.query"]);
    out.layer(
        "refiner.share_of_query",
        ratio(refine_ns, drill_ns),
        "ratio",
    );

    // the 1-shard probe re-ran the first `router_batches` fused runs
    let one_shard_ns = total_ns(spans, "probe.router", &["router.run_batch_1shard"]);
    let two_shard_ns: f64 = durations(spans, "replay", &["batch.run_batch"])
        .iter()
        .take(x.router_batches)
        .sum();
    let router_share = if one_shard_ns > 0.0 {
        1.0 - ratio(one_shard_ns, two_shard_ns)
    } else {
        0.0
    };
    out.layer("router.overhead_share", router_share, "ratio");

    out.layer("standing.subscribe_ms", x.subscribe_ms, "ms");
    out.layer("standing.maintain_us_per_mutation", x.maintain_us, "us");
    out.layer("standing.reanswer_share", x.reanswer_share, "ratio");
    out.layer(
        "standing.deltas_per_mutation",
        x.deltas_per_mutation,
        "count",
    );
    out.layer("wal.append_us_per_mutation", x.wal_append_us, "us");
    out.layer("wal.bytes_per_mutation", x.wal_bytes_per_mutation, "B");
    out.layer("wal.sync_ms", replay_us("wal.sync") / 1e3, "ms");
    out.layer(
        "durable.checkpoint_ms",
        replay_us("durable.checkpoint") / 1e3,
        "ms",
    );
    out.layer("durable.checkpoints", x.checkpoints as f64, "count");
    out.layer(
        "durable.open_ms",
        mean_us(spans, "probe.open", "durable.open") / 1e3,
        "ms",
    );
    out.layer("client.late_p99_ms", x.late_p99_ms, "ms");
    // the layer self times sum to the replay root, so this ratio is also
    // the accounting check: 1 + the gap printed above
    out.layer(
        "trace.overhead_share",
        ratio(replay_ns, untraced_ns),
        "ratio",
    );
}

fn write_spans(ctx: &Ctx, name: &str, t: &Tracer) -> Result<(), String> {
    let path = ctx.out.join(format!("spans-{name}-{}.jsonl", ctx.seed));
    t.write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans: {} ({} spans)", path.display(), t.spans().len());
    Ok(())
}

/// The traced replica of a run: loads the store untraced, replays `ops`
/// under a `replay` root span and checks its replies against the
/// oracle's.
fn traced_replay(
    out: &mut Outcome,
    t: &mut Tracer,
    engine: ShardedEngine,
    load: &[Tagged],
    ops: &[Tagged],
    expected: &[Tagged],
) -> Replica {
    let mut rep = Replica::new(engine);
    rep.run(t, load, 0);
    rep.calls.clear();
    rep.batches.clear();
    t.set_enabled(true);
    t.enter("replay", NO_OP);
    let got = rep.run(t, ops, 0);
    t.exit();
    if got != expected {
        out.fail("traced replica replies differ from Server::execute_tagged".to_owned());
    }
    rep
}

/// Records the metrics every workload shares, read from the live
/// server just before shutdown.
fn shared_metrics(out: &mut Outcome, su: &Setup, cpu0: f64, ops: usize) {
    out.e2e("setup_s", median(&su.times), "s");
    out.e2e("rss_setup_mb", su.loaded_rss_mb, "MB");
    out.e2e("rss_peak_mb", su.proc.rss_peak_mb(), "MB");
    out.e2e(
        "cpu_ms_per_op",
        ratio((su.proc.cpu_s() - cpu0) * 1e3, ops as f64),
        "ms",
    );
}

// ----------------------------------------------------------------------
// query_mix
// ----------------------------------------------------------------------

/// One closed-loop client's record.
struct ClientRun {
    replies: Vec<String>,
    latency: Vec<f64>,
    end: Instant,
}

fn closed_loop(
    conn: &mut Conn,
    script: &[String],
    start: Instant,
    deadline: Instant,
) -> Result<ClientRun, String> {
    sleep_until(start);
    let mut replies = Vec::new();
    let mut latency = Vec::new();
    for line in script {
        let sent = Instant::now();
        if sent >= deadline {
            break;
        }
        conn.send(line)?;
        replies.push(conn.recv()?);
        latency.push(sent.elapsed().as_secs_f64());
    }
    Ok(ClientRun {
        replies,
        latency,
        end: Instant::now(),
    })
}

/// Read-only KNN/RKNN/TOPM traffic from two closed-loop clients against
/// a two-shard in-memory server.
pub fn query_mix(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let store = store_config(ctx.seed, STORE_N);
    let db = store.generate();
    let load = load_lines(&db);
    let stream = hot_stream(
        &store,
        QueryStreamConfig {
            batches: 1,
            batch_size: 2 * QUERIES_PER_CLIENT,
            knn_weight: 0.5,
            rknn_weight: 0.3,
            top_m_weight: 0.2,
            k: 2,
            tau: 0.3,
            m: 2,
            hotspots: 2,
            hotspot_fraction: 0.5,
            hotspot_spread: QUERY_HOT_SPREAD,
            seed: mix(ctx.seed, 2),
            ..Default::default()
        },
    );
    // both clients query around the same two hot spots
    let scripts: [Vec<String>; 2] =
        [0, 1].map(|c| stream.iter().skip(c).step_by(2).map(query_line).collect());

    let su = setup(ctx, "query_mix", 2, None, &load)?;
    let mut conns = [su.proc.connect()?, su.proc.connect()?];
    let cpu0 = su.proc.cpu_s();
    let start = Instant::now() + Duration::from_millis(20);
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let runs: Vec<Result<ClientRun, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&scripts)
            .map(|(conn, script)| s.spawn(move || closed_loop(conn, script, start, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let runs = runs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let ops: usize = runs.iter().map(|r| r.replies.len()).sum();
    let elapsed = runs
        .iter()
        .map(|r| secs_since(r.end, start))
        .fold(0.0, f64::max);
    drop(conns);
    shared_metrics(&mut out, &su, cpu0, ops);
    let load_replies = su.load_replies;
    su.proc.kill();
    out.attempted = ops as u64;

    // oracle: the same store and each client's sent prefix in-process
    let sent: Vec<Tagged> = runs
        .iter()
        .zip(&scripts)
        .enumerate()
        .flat_map(|(c, (r, script))| tagged(c as u64 + 1, &script[..r.replies.len()]))
        .collect();
    let load_t = tagged(0, &load);
    let mut server = Server::new(
        replay::engine_with_lanes(2, None, ORACLE_LANES)?,
        ORACLE_BATCH_CAP,
    );
    let (loaded, expected, _) = replay::untraced(&mut server, &load_t, &sent);
    drop(server);
    check(&mut out, "store load", &of_conn(&loaded, 0), &load_replies);
    for (c, r) in runs.iter().enumerate() {
        check(
            &mut out,
            &format!("client {}", c + 1),
            &of_conn(&expected, c as u64 + 1),
            &r.replies,
        );
    }

    let latency: Vec<f64> = runs.iter().flat_map(|r| r.latency.clone()).collect();
    let lat = ms(&latency);
    let widths: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.replies.iter())
        .flat_map(|reply| reply_members(reply))
        .map(|(_, lo, hi)| hi - lo)
        .collect();
    out.e2e("ops_per_s", ratio(ops as f64, elapsed), "ops/s");
    out.e2e("query_p50_ms", percentile(&lat, 50.0), "ms");
    out.e2e("query_p95_ms", percentile(&lat, 95.0), "ms");
    out.e2e("reply_p50_ms", percentile(&lat, 50.0), "ms");
    out.e2e("reply_p95_ms", percentile(&lat, 95.0), "ms");
    out.e2e("bound_width_mean", mean(&widths), "prob");
    println!(
        "query_mix: {ops} queries in {elapsed:.3} s, {} result members",
        widths.len()
    );

    if ctx.trace {
        // timed like serve runs it: one lane, and after the oracle has
        // warmed the allocator, like the traced replay that follows
        let mut server = Server::new(replay::engine(2, None)?, BATCH_CAP);
        let (_, replies, untraced_s) = replay::untraced(&mut server, &load_t, &sent);
        drop(server);
        if replies != expected {
            out.fail("single-lane replay replies differ from the oracle".to_owned());
        }
        let mut t = Tracer::new();
        let rep = traced_replay(
            &mut out,
            &mut t,
            replay::engine(2, None)?,
            &load_t,
            &sent,
            &expected,
        );
        // the probes replay the first third of the run: enough for the
        // layer ratios, and it keeps a traced run inside its time limit
        let probe_batches = rep.batches.len().div_ceil(PROBE_DIVISOR);
        let one = ShardedEngine::with_config(db.clone(), IdcaConfig::default(), 1);
        t.enter("probe.router", NO_OP);
        let bad = router_probe(&mut t, &one, &rep.batches[..probe_batches]);
        t.exit();
        if bad > 0 {
            out.fail(format!("{bad} query runs differ between 1 and 2 shards"));
        }
        let probe_ops: usize = rep.batches[..probe_batches].iter().map(|b| b.0.len()).sum();
        let cases = knn_cases(
            sent[..probe_ops]
                .iter()
                .map(|(_, l)| l)
                .zip(expected.iter().map(|(_, r)| r)),
        );
        t.enter("probe.drill", NO_OP);
        let drill = drill_knn(&mut t, &one.shards()[0], &cases);
        t.exit();
        if drill.mismatches > 0 {
            out.fail(format!(
                "rebuilt refinement loop differs from the engine on {} of {} kNN queries",
                drill.mismatches, drill.queries
            ));
        }
        let x = LayerInputs {
            ops,
            queries: ops,
            untraced_s,
            tcp_s: elapsed,
            drill: Some(drill),
            decomp_cache_len: rep.engine.decomp_cache_len(),
            router_batches: probe_batches,
            ..Default::default()
        };
        layer_metrics(&mut out, &t, &x);
        write_spans(ctx, "query_mix", &t)?;
    }
    Ok(out)
}

/// The kNN queries (plain or subscribed) among `(line, reply)` pairs,
/// each with the `RES ...` answer the engine gave it.
fn knn_cases<'a>(pairs: impl Iterator<Item = (&'a String, &'a String)>) -> Vec<KnnCase> {
    pairs
        .enumerate()
        .filter_map(|(i, (line, reply))| {
            let (q, k, tau) = match parse_line(line) {
                Ok(Some(Op::Knn { q, k, tau }))
                | Ok(Some(Op::Sub {
                    q,
                    spec: StandingSpec::Knn { k, tau },
                })) => (q, k, tau),
                _ => return None,
            };
            // a SUB reply carries the initial answer after its id
            let expected = reply[reply.find("RES ")?..].to_owned();
            Some(KnnCase {
                op: i as u32,
                q,
                k,
                tau,
                expected,
            })
        })
        .collect()
}

// ----------------------------------------------------------------------
// standing_churn
// ----------------------------------------------------------------------

/// Net-zero INSERT/DELNEAR churn from one closed-loop writer while a
/// second connection holds standing queries over the same hot spots
/// (one in-memory shard).
pub fn standing_churn(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let store = store_config(ctx.seed, STORE_N);
    let db = store.generate();
    let load = load_lines(&db);
    let objects = hot_stream(
        &store,
        QueryStreamConfig {
            batches: 1,
            batch_size: SUBS + CHURN_PAIRS,
            knn_weight: 0.0,
            rknn_weight: 0.0,
            top_m_weight: 0.0,
            insert_weight: 1.0,
            hotspots: 2,
            hotspot_fraction: 0.9,
            seed: mix(ctx.seed, 3),
            ..Default::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(mix(ctx.seed, 4));
    let subs: Vec<String> = objects[..SUBS]
        .iter()
        .map(|e| {
            let json = json(&e.object);
            let pick: f64 = rng.gen_range(0.0..1.0);
            if pick < 0.5 {
                format!("SUB KNN 2 0.3 {json}")
            } else if pick < 0.8 {
                format!("SUB RKNN 2 0.3 {json}")
            } else {
                format!("SUB TOPM 2 {json}")
            }
        })
        .collect();
    let churn: Vec<String> = objects[SUBS..]
        .iter()
        .flat_map(|e| {
            let json = json(&e.object);
            [format!("INSERT {json}"), format!("DELNEAR {json}")]
        })
        .collect();

    let su = setup(ctx, "standing_churn", 1, None, &load)?;
    let mut sub_conn = su.proc.connect()?;
    let mut writer = su.proc.connect()?;
    let mut sub_replies = Vec::new();
    let mut sub_latency = Vec::new();
    for line in &subs {
        let sent = Instant::now();
        sub_conn.send(line)?;
        sub_replies.push(sub_conn.recv()?);
        sub_latency.push(sent.elapsed().as_secs_f64());
    }
    let mut stats_out = Conn::writer(&sub_conn)?;
    let cpu0 = su.proc.cpu_s();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let (pushed, sent_at, replied_at, replies) = std::thread::scope(|s| {
        // the subscriber's reader: NOTIFY lines until the STATS reply
        let reader = s.spawn(move || -> Result<Vec<(Instant, String)>, String> {
            let mut lines = Vec::new();
            loop {
                let line = sub_conn.recv()?;
                let done = line.starts_with("OK objects=");
                lines.push((Instant::now(), line));
                if done {
                    return Ok(lines);
                }
            }
        });
        let mut sent_at = Vec::new();
        let mut replied_at = Vec::new();
        let mut replies = Vec::new();
        let mut failure = None;
        for line in &churn {
            let sent = Instant::now();
            if sent >= deadline {
                break;
            }
            let reply = writer.send(line).and_then(|()| writer.recv());
            match reply {
                Ok(r) => replies.push(r),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
            sent_at.push(sent);
            replied_at.push(Instant::now());
        }
        // STATS on the subscriber connection lands behind every NOTIFY
        let stats = crate::tcp::send_on(&mut stats_out, "STATS");
        let pushed = reader.join().expect("subscriber thread");
        match (failure, stats) {
            (Some(e), _) | (None, Err(e)) => Err(e),
            (None, Ok(())) => Ok((pushed?, sent_at, replied_at, replies)),
        }
    })?;
    let mutations = replies.len();
    let elapsed = replied_at.last().map_or(0.0, |t| secs_since(*t, start));
    shared_metrics(&mut out, &su, cpu0, mutations);
    drop(writer);
    su.proc.kill();
    out.attempted = (subs.len() + mutations) as u64;

    // oracle: store, subscriptions, the sent churn prefix, closing STATS
    let load_t = tagged(0, &load);
    let mut ops_t = tagged(1, &subs);
    ops_t.extend(tagged(2, &churn[..mutations]));
    ops_t.push((1, "STATS".to_owned()));
    let mut server = Server::new(replay::engine(1, None)?, BATCH_CAP);
    let (loaded, expected, untraced_s) = replay::untraced(&mut server, &load_t, &ops_t);
    let standing = server.engine().standing_stats();
    drop(server);
    check(
        &mut out,
        "store load",
        &of_conn(&loaded, 0),
        &su.load_replies,
    );
    let mut sub_got = sub_replies.clone();
    sub_got.extend(pushed.iter().map(|(_, l)| l.clone()));
    check(&mut out, "subscriber", &of_conn(&expected, 1), &sub_got);
    check(&mut out, "writer", &of_conn(&expected, 2), &replies);

    let rel = |v: &[Instant]| -> Vec<f64> { v.iter().map(|t| secs_since(*t, start)).collect() };
    let sent_s = rel(&sent_at);
    let replied_s = rel(&replied_at);
    let latency: Vec<f64> = replied_s.iter().zip(&sent_s).map(|(r, s)| r - s).collect();
    let lat = ms(&latency);
    let counts = oracle::notify_counts(&expected, 2, 1);
    let arrivals: Vec<f64> = pushed
        .iter()
        .filter(|(_, l)| l.starts_with("NOTIFY "))
        .map(|(t, _)| secs_since(*t, start))
        .collect();
    let notify = match oracle::notify_latencies(&counts, &sent_s, &arrivals) {
        Some(v) => ms(&v),
        None => {
            out.fail("subscriber received fewer NOTIFY lines than the oracle pushed".to_owned());
            Vec::new()
        }
    };
    out.e2e("ops_per_s", ratio(mutations as f64, elapsed), "ops/s");
    out.e2e("mutation_p50_ms", percentile(&lat, 50.0), "ms");
    out.e2e("mutation_p95_ms", percentile(&lat, 95.0), "ms");
    out.e2e("mutation_p99_ms", percentile(&lat, 99.0), "ms");
    out.e2e("reply_p50_ms", percentile(&lat, 50.0), "ms");
    out.e2e("reply_p95_ms", percentile(&lat, 95.0), "ms");
    out.e2e("notify_p50_ms", percentile(&notify, 50.0), "ms");
    out.e2e("notify_p95_ms", percentile(&notify, 95.0), "ms");
    out.e2e(
        "subscribe_p50_ms",
        percentile(&ms(&sub_latency), 50.0),
        "ms",
    );
    println!(
        "standing_churn: {mutations} mutations in {elapsed:.3} s, {} pushed NOTIFY lines over {} mutations, in-process replay {untraced_s:.3} s",
        arrivals.len(),
        notify.len()
    );

    if ctx.trace {
        let mut t = Tracer::new();
        let rep = traced_replay(
            &mut out,
            &mut t,
            replay::engine(1, None)?,
            &load_t,
            &ops_t,
            &expected,
        );
        // the same mutation calls on a twin without subscriptions
        let mut twin = replay::engine(1, None)?;
        for (_, o) in db.iter() {
            twin.insert(o.clone());
        }
        t.enter("probe.twin", NO_OP);
        for call in &rep.calls {
            let res = t.time("twin.mutate", NO_OP, || call.apply(&mut twin));
            if let Err(e) = res {
                out.fail(format!("twin mutation failed: {e}"));
            }
        }
        t.exit();
        // the kNN subscriptions' initial answers, rebuilt on the store
        let engine = Engine::with_config(db.clone(), IdcaConfig::default());
        let cases = knn_cases(subs.iter().zip(&sub_replies));
        t.enter("probe.drill", NO_OP);
        let drill = drill_knn(&mut t, &engine, &cases);
        t.exit();
        if drill.mismatches > 0 {
            out.fail(format!(
                "rebuilt refinement loop differs from the engine on {} of {} kNN subscriptions",
                drill.mismatches, drill.queries
            ));
        }
        let spans = t.spans();
        let passes = standing.maintained + standing.reanswered;
        let x = LayerInputs {
            ops: ops_t.len(),
            untraced_s,
            tcp_s: elapsed,
            drill: Some(drill),
            decomp_cache_len: rep.engine.decomp_cache_len(),
            subscribe_ms: mean_us(spans, "replay", "standing.subscribe") / 1e3,
            maintain_us: extra_over_twin_us(spans, "replay", &MUTATIONS, mutations),
            reanswer_share: ratio(standing.reanswered as f64, passes as f64),
            deltas_per_mutation: ratio(standing.deltas as f64, mutations as f64),
            ..Default::default()
        };
        layer_metrics(&mut out, &t, &x);
        write_spans(ctx, "standing_churn", &t)?;
    }
    Ok(out)
}

// ----------------------------------------------------------------------
// durable_churn
// ----------------------------------------------------------------------

/// Mutations per shard since the last checkpoint and the bytes of the
/// WAL segment holding them, summed over shards: the current segment
/// (highest sequence number) holds exactly the records logged since the
/// last checkpoint.
fn wal_tail(dir: &Path, engine: &ShardedEngine) -> (u64, u64) {
    let every = engine.config().checkpoint_every.max(1) as u64;
    let mut records = 0;
    let mut bytes = 0;
    for (s, shard) in engine.shards().iter().enumerate() {
        records += shard.mutations() % every;
        let seg = std::fs::read_dir(dir.join(format!("shard-{s}")))
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| {
                let n = e.file_name().to_string_lossy().into_owned();
                n.starts_with("wal-") && n.ends_with(".log")
            })
            .max_by_key(|e| e.file_name());
        bytes += seg.and_then(|e| e.metadata().ok()).map_or(0, |m| m.len());
    }
    (records, bytes)
}

/// Checkpoints taken automatically between two per-shard mutation
/// counts (one every `checkpoint_every` logged mutations per shard).
fn auto_checkpoints(engine: &ShardedEngine, before: &[u64]) -> u64 {
    let every = engine.config().checkpoint_every as u64;
    if every == 0 {
        return 0;
    }
    engine
        .shards()
        .iter()
        .zip(before)
        .map(|(s, b)| s.mutations() / every - b / every)
        .sum()
}

/// Mutation calls the standing-maintenance probe replays (each pays
/// maintenance for every subscription, so a prefix suffices).
const STANDING_PROBE_CALLS: usize = 100;

/// Standing-query maintenance on the durable workload's store, measured
/// in-process: [`SUBS`] subscriptions (KNN/RKNN/TOPM at 50/30/20) near
/// the hot spots of an in-memory copy, then the first
/// [`STANDING_PROBE_CALLS`] mutation calls, each timed. Compared with the
/// twin's timings of the same calls, this is the maintenance cost per
/// mutation. Returns the engine's standing counters and the call count.
fn standing_probe(
    t: &mut Tracer,
    out: &mut Outcome,
    seed: u64,
    store: &SyntheticConfig,
    db: &Database,
    calls: &[replay::Call],
) -> Result<(udb_core::StandingStats, usize), String> {
    let mut engine = replay::engine(2, None)?;
    for (_, o) in db.iter() {
        engine.insert(o.clone());
    }
    let subs = hot_stream(
        store,
        QueryStreamConfig {
            batches: 1,
            batch_size: SUBS,
            knn_weight: 0.5,
            rknn_weight: 0.3,
            top_m_weight: 0.2,
            k: 2,
            tau: 0.3,
            m: 2,
            hotspot_fraction: 0.9,
            seed: mix(seed, 7),
            ..Default::default()
        },
    );
    let n = calls.len().min(STANDING_PROBE_CALLS);
    t.enter("probe.standing", NO_OP);
    for e in subs {
        let spec = match e.op {
            StreamOp::KnnThreshold { k, tau } => StandingSpec::Knn { k, tau },
            StreamOp::RknnThreshold { k, tau } => StandingSpec::Rknn { k, tau },
            StreamOp::TopProbableNn { m } => StandingSpec::TopM { m },
            _ => unreachable!("query streams hold queries only"),
        };
        t.time("standing.subscribe", NO_OP, || {
            engine.subscribe(e.object, spec)
        });
    }
    for call in &calls[..n] {
        if let Err(e) = t.time("standing.mutate", NO_OP, || call.apply(&mut engine)) {
            out.fail(format!("standing probe mutation failed: {e}"));
        }
    }
    t.exit();
    Ok((engine.standing_stats(), n))
}

/// Open-loop INSERT/DELNEAR/UPDATE writes against a durable two-shard
/// server, then FLUSH, `kill -9` and reopen.
pub fn durable_churn(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let store = store_config(ctx.seed, DURABLE_N);
    let db = store.generate();
    let load = load_lines(&db);
    let n_ops = (DURABLE_RATE * ctx.seconds).round().max(1.0) as usize;
    let objects = hot_stream(
        &store,
        QueryStreamConfig {
            batches: 1,
            batch_size: n_ops,
            knn_weight: 0.0,
            rknn_weight: 0.0,
            top_m_weight: 0.0,
            insert_weight: 1.0,
            hotspots: 2,
            hotspot_fraction: 0.75,
            seed: mix(ctx.seed, 5),
            ..Default::default()
        },
    );

    // the script and its oracle replies together: UPDATE targets must be
    // live gids this run inserted, which only the oracle knows
    let oracle_dir = ctx.out.join("durable-oracle");
    let mut oracle = Server::new(replay::engine(2, Some(&oracle_dir))?, BATCH_CAP);
    let (oracle_load, _) = oracle.execute_batch(&load);
    let mut rng = StdRng::seed_from_u64(mix(ctx.seed, 6));
    let mut inserted: Vec<(usize, u32)> = Vec::new();
    let mut script = Vec::with_capacity(n_ops);
    let mut expected = Vec::with_capacity(n_ops);
    for (i, e) in objects.iter().enumerate() {
        let json = json(&e.object);
        let pick: f64 = rng.gen_range(0.0..1.0);
        let eligible = inserted
            .iter()
            .filter(|(at, _)| at + UPDATE_LAG <= i)
            .count();
        let line = if pick < 0.35 || (pick >= 0.7 && eligible == 0) {
            format!("INSERT {json}")
        } else if pick < 0.7 {
            format!("DELNEAR {json}")
        } else {
            let (_, gid) = inserted[rng.gen_range(0..eligible)];
            format!("UPDATE {gid} {json}")
        };
        let (mut reply, _) = oracle.execute_batch(std::slice::from_ref(&line));
        let reply = reply.pop().expect("one reply per mutation");
        let gid = reply
            .strip_prefix("OK ")
            .and_then(|g| g.parse::<u32>().ok());
        if let Some(gid) = gid {
            if line.starts_with("INSERT") {
                inserted.push((i, gid));
            } else if line.starts_with("DELNEAR") {
                inserted.retain(|(_, g)| *g != gid);
            }
        }
        script.push(line);
        expected.push(reply);
    }
    let tail = ["FLUSH".to_owned(), "STATS".to_owned()];
    let (expected_tail, _) = oracle.execute_batch(&tail);
    let user_bytes: usize = oracle
        .engine()
        .shards()
        .iter()
        .flat_map(|s| s.db().iter())
        .map(|(_, o)| json(o).len())
        .sum();
    drop(oracle);
    let _ = std::fs::remove_dir_all(&oracle_dir);

    let dirs: Vec<PathBuf> = (0..SETUP_REPS)
        .map(|r| ctx.out.join(format!("durable-serve-{r}")))
        .collect();
    let su = setup(ctx, "durable_churn", 2, Some(&dirs), &load)?;
    let serve_dir = dirs[SETUP_REPS - 1].clone();
    let mut conn = su.proc.connect()?;
    let mut w = Conn::writer(&conn)?;
    let cpu0 = su.proc.cpu_s();
    let start = Instant::now() + Duration::from_millis(20);
    let (sent_at, got) = std::thread::scope(|s| {
        let script = &script;
        let sender = s.spawn(move || -> Result<Vec<Instant>, String> {
            let mut sent = Vec::with_capacity(script.len());
            for (i, line) in script.iter().enumerate() {
                sleep_until(start + Duration::from_secs_f64(oracle::due_s(i, DURABLE_RATE)));
                sent.push(Instant::now());
                crate::tcp::send_on(&mut w, line)?;
            }
            Ok(sent)
        });
        let mut got: Vec<(Instant, String)> = Vec::with_capacity(script.len());
        let mut failure = None;
        while got.len() < script.len() {
            match conn.recv() {
                Ok(r) => got.push((Instant::now(), r)),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        let sent = sender.join().expect("sender thread");
        match failure {
            Some(e) => Err(e),
            None => Ok((sent?, got)),
        }
    })?;
    let mut tail_got = Vec::new();
    for line in &tail {
        conn.send(line)?;
        tail_got.push(conn.recv()?);
    }
    shared_metrics(&mut out, &su, cpu0, n_ops);
    let disk_bytes = tree_bytes(&serve_dir);
    drop(conn);
    let load_replies = su.load_replies.clone();
    su.proc.kill();
    out.attempted = n_ops as u64;

    let replies: Vec<String> = got.iter().map(|(_, r)| r.clone()).collect();
    check(&mut out, "store load", &oracle_load, &load_replies);
    check(&mut out, "writer", &expected, &replies);
    check(&mut out, "flush + stats", &expected_tail, &tail_got);

    // kill -9 happened above; every reopen must recover the acknowledged
    // state exactly
    let mut reopen = Vec::new();
    for rep in 0..REOPEN_REPS {
        let log = ctx.out.join(format!("durable_churn-reopen-{rep}.log"));
        let args = [
            "--shards".to_owned(),
            "2".to_owned(),
            "--dir".to_owned(),
            serve_dir.display().to_string(),
        ];
        let t0 = Instant::now();
        let proc = ServeProc::spawn(&ctx.serve, &args, &log)?;
        let mut c = proc.connect()?;
        c.send("STATS")?;
        let stats = c.recv()?;
        reopen.push(t0.elapsed().as_secs_f64());
        drop(c);
        proc.kill();
        if stats != expected_tail[1] {
            out.errors += 1;
            out.fail(format!(
                "reopen {rep}: STATS {stats:?} differs from the acknowledged state {:?}",
                expected_tail[1]
            ));
        }
    }

    let rel = |t: Instant| secs_since(t, start);
    let sent_s: Vec<f64> = sent_at.iter().map(|t| rel(*t)).collect();
    let replied_s: Vec<f64> = got.iter().map(|(t, _)| rel(*t)).collect();
    let (latency, late) = oracle::open_loop(DURABLE_RATE, &sent_s, &replied_s);
    let lat = ms(&latency);
    let late = ms(&late);
    let elapsed = replied_s.last().copied().unwrap_or(0.0);
    out.e2e("ops_per_s", ratio(n_ops as f64, elapsed), "ops/s");
    out.e2e("mutation_p50_ms", percentile(&lat, 50.0), "ms");
    out.e2e("mutation_p99_ms", percentile(&lat, 99.0), "ms");
    out.e2e("reply_p50_ms", percentile(&lat, 50.0), "ms");
    out.e2e("reply_p95_ms", percentile(&lat, 95.0), "ms");
    out.e2e("reopen_s", median(&reopen), "s");
    out.e2e(
        "disk_bytes_per_user_byte",
        ratio(disk_bytes as f64, user_bytes as f64),
        "ratio",
    );
    out.e2e("client_late_p99_ms", percentile(&late, 99.0), "ms");
    println!(
        "durable_churn: {n_ops} mutations at {DURABLE_RATE} ops/s, last reply at {elapsed:.3} s, reopen {:?} s",
        reopen
    );

    if ctx.trace {
        let load_t = tagged(0, &load);
        let mut ops_t = tagged(0, &script);
        ops_t.extend(tagged(0, &tail));
        let mut expected_t = tagged(0, &expected);
        expected_t.extend(tagged(0, &expected_tail));
        let untraced_dir = ctx.out.join("durable-untraced");
        let mut server = Server::new(replay::engine(2, Some(&untraced_dir))?, BATCH_CAP);
        let (_, replies, untraced_s) = replay::untraced(&mut server, &load_t, &ops_t);
        drop(server);
        let _ = std::fs::remove_dir_all(&untraced_dir);
        if replies != expected_t {
            out.fail("untraced replay replies differ from the oracle".to_owned());
        }
        // the replica, stopped before FLUSH to read the WAL tail
        let replica_dir = ctx.out.join("durable-replica");
        let mut t = Tracer::new();
        let mut rep = Replica::new(replay::engine(2, Some(&replica_dir))?);
        rep.run(&mut t, &load_t, 0);
        rep.calls.clear();
        let before: Vec<u64> = rep.engine.shards().iter().map(Engine::mutations).collect();
        t.set_enabled(true);
        t.enter("replay", NO_OP);
        let mut got = rep.run(&mut t, &ops_t[..n_ops], 0);
        let (records, wal_bytes) = wal_tail(&replica_dir, &rep.engine);
        let checkpoints = auto_checkpoints(&rep.engine, &before);
        got.extend(rep.run(&mut t, &ops_t[n_ops..], n_ops as u32));
        t.exit();
        if got != expected_t {
            out.fail("traced replica replies differ from the oracle".to_owned());
        }
        // the same mutation calls on an in-memory twin
        let mut twin = replay::engine(2, None)?;
        for (_, o) in db.iter() {
            twin.insert(o.clone());
        }
        t.enter("probe.twin", NO_OP);
        for call in &rep.calls {
            let res = t.time("twin.mutate", NO_OP, || call.apply(&mut twin));
            if let Err(e) = res {
                out.fail(format!("twin mutation failed: {e}"));
            }
        }
        t.exit();
        let (standing, probed) =
            standing_probe(&mut t, &mut out, ctx.seed, &store, &db, &rep.calls)?;
        drop(rep);
        t.enter("probe.open", NO_OP);
        let reopened = t.time("durable.open", NO_OP, || {
            ShardedEngine::open(&replica_dir, IdcaConfig::default(), 2)
        });
        t.exit();
        match reopened {
            Ok(e) if replay::stats_line(&e) == expected_tail[1] => {}
            Ok(e) => out.fail(format!(
                "in-process reopen recovered {:?}",
                replay::stats_line(&e)
            )),
            Err(e) => out.fail(format!("in-process reopen failed: {e}")),
        }
        let _ = std::fs::remove_dir_all(&replica_dir);
        let spans = t.spans();
        let passes = standing.maintained + standing.reanswered;
        let x = LayerInputs {
            ops: ops_t.len(),
            untraced_s,
            tcp_s: latency.iter().sum::<f64>(),
            subscribe_ms: mean_us(spans, "probe.standing", "standing.subscribe") / 1e3,
            maintain_us: extra_over_twin_us(spans, "probe.standing", &["standing.mutate"], probed),
            reanswer_share: ratio(standing.reanswered as f64, passes as f64),
            deltas_per_mutation: ratio(standing.deltas as f64, probed as f64),
            wal_append_us: extra_over_twin_us(spans, "replay", &MUTATIONS, n_ops),
            wal_bytes_per_mutation: ratio(wal_bytes as f64, records as f64),
            checkpoints: checkpoints + 1,
            late_p99_ms: percentile(&late, 99.0),
            ..Default::default()
        };
        layer_metrics(&mut out, &t, &x);
        write_spans(ctx, "durable_churn", &t)?;
    }
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    Ok(out)
}
