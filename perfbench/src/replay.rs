//! In-process replays of a run's op sequence.
//!
//! * [`untraced`] feeds the lines through `Server::execute_tagged`, the
//!   call the serve pump makes — its replies are the oracle every TCP
//!   reply is byte-compared with, and its wall time is the in-process
//!   replay total.
//! * [`Replica`] executes the same lines through the public call each
//!   layer exposes (`parse_line`, `ShardedEngine::run_batch`,
//!   `try_insert`, `nearest`, `subscribe`, `wal_sync`, `checkpoint`,
//!   `format_results`, ...) with one span around every call. It mirrors
//!   `execute_tagged` step for step — same query-run fusion, same
//!   `NOTIFY` placement — and its replies must equal the oracle's, so
//!   the spans time exactly the work the server does.

use std::collections::HashMap;
use std::time::Instant;

use udb_core::{DurableError, IdcaConfig, ShardedEngine};
use udb_object::{Database, ObjectId, UncertainObject};
use udb_serve::{format_notify, format_results, parse_line, Op, Server};

use crate::trace::{Tracer, NO_OP};

/// One connection-tagged protocol line.
pub type Tagged = (u64, String);

/// A fresh engine configured like `serve` (defaults; durable under
/// `dir` when given).
pub fn engine(shards: usize, dir: Option<&std::path::Path>) -> Result<ShardedEngine, String> {
    engine_with_lanes(shards, dir, 1)
}

/// [`engine`] with `lanes` query-level worker lanes. Results are
/// bit-identical at every lane count, so an oracle that runs outside
/// the timed region may use both cores.
pub fn engine_with_lanes(
    shards: usize,
    dir: Option<&std::path::Path>,
    lanes: usize,
) -> Result<ShardedEngine, String> {
    let cfg = IdcaConfig {
        batch_threads: lanes,
        ..IdcaConfig::default()
    };
    match dir {
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            ShardedEngine::open(dir, cfg, shards)
                .map_err(|e| format!("cannot open durable engine at {}: {e}", dir.display()))
        }
        None => Ok(ShardedEngine::with_config(
            Database::from_objects(Vec::new()),
            cfg,
            shards,
        )),
    }
}

/// Runs `load` then `ops` through `Server::execute_tagged` on `server`
/// (the serve pump's call); returns the replies to `load`, the replies
/// to `ops` and the wall time of the `ops` part in seconds.
pub fn untraced(
    server: &mut Server,
    load: &[Tagged],
    ops: &[Tagged],
) -> (Vec<Tagged>, Vec<Tagged>, f64) {
    let tag = |v: &[Tagged]| -> Vec<udb_serve::TaggedLine> {
        v.iter().map(|(c, l)| (*c, Ok(l.clone()))).collect()
    };
    let load = tag(load);
    let ops = tag(ops);
    let (loaded, _) = server.execute_tagged(&load);
    let start = Instant::now();
    let (replies, _) = server.execute_tagged(&ops);
    (loaded, replies, start.elapsed().as_secs_f64())
}

/// A mutation call as the engine received it (DELNEAR already resolved
/// to the removed id), so a twin engine can repeat the exact calls.
#[derive(Debug, Clone)]
pub enum Call {
    /// `try_insert`.
    Insert(UncertainObject),
    /// `try_remove`.
    Remove(ObjectId),
    /// `try_update`.
    Update(ObjectId, UncertainObject),
}

impl Call {
    /// Applies the call to `engine`.
    pub fn apply(&self, engine: &mut ShardedEngine) -> Result<(), DurableError> {
        match self {
            Call::Insert(o) => engine.try_insert(o.clone()).map(|_| ()),
            Call::Remove(id) => engine.try_remove(*id).map(|_| ()),
            Call::Update(id, o) => engine.try_update(*id, o.clone()).map(|_| ()),
        }
    }
}

/// The traced executor: `Server::execute_tagged` rebuilt from public
/// per-layer calls, one span each.
pub struct Replica {
    /// The engine the replica drives.
    pub engine: ShardedEngine,
    batch_cap: usize,
    subs: HashMap<u64, u64>,
    /// Fused query runs with their formatted replies, in execution
    /// order.
    pub batches: Vec<(Vec<Op>, Vec<String>)>,
    /// Mutation calls, in execution order (recorded while tracing).
    pub calls: Vec<Call>,
}

impl Replica {
    /// Wraps an engine with the serve default batch cap.
    pub fn new(engine: ShardedEngine) -> Self {
        Replica {
            engine,
            batch_cap: 16,
            subs: HashMap::new(),
            batches: Vec::new(),
            calls: Vec::new(),
        }
    }

    /// Executes `lines` (op ids start at `first_op`); returns the
    /// tagged replies in the order `execute_tagged` produces them.
    pub fn run(&mut self, t: &mut Tracer, lines: &[Tagged], first_op: u32) -> Vec<Tagged> {
        let mut replies: Vec<Tagged> = Vec::new();
        let mut pending: Vec<(usize, Op)> = Vec::new();
        for (i, (conn, line)) in lines.iter().enumerate() {
            let op_id = first_op + i as u32;
            t.enter("serve.op", op_id);
            match t.time("serve.parse", op_id, || parse_line(line)) {
                Ok(None) => {}
                Err(e) => replies.push((*conn, format!("ERR {e}"))),
                Ok(Some(op)) if op.is_query() => {
                    replies.push((*conn, String::new()));
                    pending.push((replies.len() - 1, op));
                    if pending.len() >= self.batch_cap {
                        self.flush(t, &mut replies, &mut pending, op_id);
                    }
                }
                Ok(Some(op)) => {
                    self.flush(t, &mut replies, &mut pending, op_id);
                    let reply = self.apply(t, *conn, op, op_id);
                    replies.push((*conn, reply));
                    let deltas = t.time("standing.take_deltas", op_id, || {
                        self.engine.take_standing_deltas()
                    });
                    for delta in deltas {
                        if let Some(&owner) = self.subs.get(&delta.sub) {
                            let line = t.time("serve.format", op_id, || format_notify(&delta));
                            replies.push((owner, line));
                        }
                    }
                }
            }
            t.exit();
        }
        t.enter("serve.op", NO_OP);
        self.flush(t, &mut replies, &mut pending, NO_OP);
        t.exit();
        replies
    }

    fn flush(
        &mut self,
        t: &mut Tracer,
        replies: &mut [Tagged],
        pending: &mut Vec<(usize, Op)>,
        op_id: u32,
    ) {
        if pending.is_empty() {
            return;
        }
        let mut batch = udb_core::QueryBatch::new();
        for (_, op) in pending.iter() {
            match op {
                Op::Knn { q, k, tau } => batch.knn_threshold(q.clone(), *k, *tau),
                Op::Rknn { q, k, tau } => batch.rknn_threshold(q.clone(), *k, *tau),
                Op::TopM { q, m } => batch.top_probable_nn(q.clone(), *m),
                _ => unreachable!("only queries are pending"),
            };
        }
        let engine = &self.engine;
        let results = t.time("batch.run_batch", op_id, || engine.run_batch(&batch));
        let mut formatted = Vec::with_capacity(results.len());
        for ((slot, _), hits) in pending.iter().zip(results) {
            replies[*slot].1 = t.time("serve.format", op_id, || format_results(&hits));
            formatted.push(replies[*slot].1.clone());
        }
        self.batches
            .push((pending.drain(..).map(|(_, op)| op).collect(), formatted));
    }

    /// A remove or update call, timed, with the server's reply.
    fn mutate(&mut self, t: &mut Tracer, call: Call, op_id: u32) -> String {
        let (span, verb, id) = match &call {
            Call::Remove(id) => ("engine.remove", "delete", *id),
            Call::Update(id, _) => ("engine.update", "update", *id),
            Call::Insert(_) => unreachable!("inserts reply their fresh id"),
        };
        let engine = &mut self.engine;
        let reply = match t.time(span, op_id, || call.apply(engine)) {
            Ok(()) => format!("OK {}", id.0),
            Err(e) => format!("ERR {verb} failed: {e}"),
        };
        self.calls.push(call);
        reply
    }

    /// Applies one non-query op, mirroring the server's replies.
    fn apply(&mut self, t: &mut Tracer, conn: u64, op: Op, op_id: u32) -> String {
        match op {
            Op::Insert(obj) => {
                let engine = &mut self.engine;
                let o = obj.clone();
                let out = t.time("engine.insert", op_id, || engine.try_insert(o));
                self.calls.push(Call::Insert(obj));
                match out {
                    Ok(id) => format!("OK {}", id.0),
                    Err(e) => format!("ERR insert failed: {e}"),
                }
            }
            Op::Delete(id) => {
                if self.engine.try_get(id).is_none() {
                    return format!("ERR no live object {}", id.0);
                }
                self.mutate(t, Call::Remove(id), op_id)
            }
            Op::DeleteNearest(probe) => {
                let engine = &self.engine;
                match t.time("index.nearest", op_id, || engine.nearest(probe.mbr())) {
                    Some(id) => self.mutate(t, Call::Remove(id), op_id),
                    None => "OK none".to_owned(),
                }
            }
            Op::Update(id, obj) => {
                if self.engine.try_get(id).is_none() {
                    return format!("ERR no live object {}", id.0);
                }
                self.mutate(t, Call::Update(id, obj), op_id)
            }
            Op::Sub { q, spec } => {
                let engine = &mut self.engine;
                let (sid, hits) = t.time("standing.subscribe", op_id, || engine.subscribe(q, spec));
                self.subs.insert(sid, conn);
                let res = t.time("serve.format", op_id, || format_results(&hits));
                format!("SUB {sid} {res}")
            }
            Op::Unsub(sid) => {
                if self.engine.unsubscribe(sid) {
                    self.subs.remove(&sid);
                    format!("OK unsub {sid}")
                } else {
                    format!("ERR no subscription {sid}")
                }
            }
            Op::Flush => {
                let engine = &mut self.engine;
                let synced = t.time("wal.sync", op_id, || engine.wal_sync());
                let out = synced
                    .and_then(|()| t.time("durable.checkpoint", op_id, || engine.checkpoint()));
                match out {
                    Ok(()) => "OK flushed".to_owned(),
                    Err(e) => format!("ERR flush failed: {e}"),
                }
            }
            Op::Stats => stats_line(&self.engine),
            Op::Quit => "OK bye".to_owned(),
            Op::Knn { .. } | Op::Rknn { .. } | Op::TopM { .. } => {
                unreachable!("queries are pending")
            }
        }
    }
}

/// The `STATS` reply for an engine's state.
pub fn stats_line(engine: &ShardedEngine) -> String {
    let s = engine.standing_stats();
    format!(
        "OK objects={} mutations={} subs={} maintained={} reanswered={} notified={}",
        engine.len(),
        engine.mutations(),
        s.registered,
        s.maintained,
        s.reanswered,
        s.deltas,
    )
}

/// Members of a `RES` body: `(id, lo, hi)` per `id:lo:hi:iters` entry.
pub fn res_members(body: &str) -> Vec<(u32, f64, f64)> {
    if body == "-" {
        return Vec::new();
    }
    body.split(';')
        .filter_map(|m| {
            let mut f = m.split(':');
            Some((
                f.next()?.parse().ok()?,
                f.next()?.parse().ok()?,
                f.next()?.parse().ok()?,
            ))
        })
        .collect()
}

/// The `RES` members of a reply line (`RES ...` or `SUB <sid> RES ...`).
pub fn reply_members(reply: &str) -> Vec<(u32, f64, f64)> {
    match reply.split_once("RES ") {
        Some((_, body)) => res_members(body),
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn res_bodies_parse() {
        assert_eq!(reply_members("RES -"), vec![]);
        assert_eq!(
            reply_members("RES 3:0.25:0.5:2;7:1:1:0"),
            vec![(3, 0.25, 0.5), (7, 1.0, 1.0)]
        );
        assert_eq!(reply_members("SUB 4 RES 1:0:0.75:8"), vec![(1, 0.0, 0.75)]);
        assert_eq!(reply_members("OK 12"), vec![]);
    }
}
