//! Hostile-but-well-formed requests: objects of the wrong dimensionality
//! and absurd `k`/`m` values must be answered over the protocol — an
//! `ERR` reply or an ordinary result — without aborting the server or
//! losing the replies of the lines around them.

use udb_core::IdcaConfig;
use udb_serve::{empty_server, Server};
use udb_workload::SyntheticConfig;

fn cfg() -> IdcaConfig {
    IdcaConfig {
        max_iterations: 3,
        ..Default::default()
    }
}

/// JSON lines for `n` deterministic synthetic objects of `dims`
/// dimensions.
fn object_jsons(n: usize, dims: usize) -> Vec<String> {
    SyntheticConfig {
        n,
        dims,
        max_extent: 0.02,
        ..Default::default()
    }
    .generate()
    .iter()
    .map(|(_, o)| serde_json::to_string(o).expect("objects serialize"))
    .collect()
}

/// A server holding `n` 2-D objects (every insert acknowledged).
fn loaded_server(shards: usize, n: usize) -> Server {
    let mut server = empty_server(cfg(), shards, 8);
    let inserts: Vec<String> = object_jsons(n, 2)
        .into_iter()
        .map(|json| format!("INSERT {json}"))
        .collect();
    let (replies, _) = server.execute_batch(&inserts);
    assert!(replies.iter().all(|r| r.starts_with("OK ")), "{replies:?}");
    server
}

#[test]
fn wrong_dimension_objects_reply_err_and_serving_continues() {
    for shards in [1, 2] {
        let mut server = empty_server(cfg(), shards, 8);
        let flat = object_jsons(3, 2);
        let deep = &object_jsons(1, 3)[0];
        let lines = vec![
            format!("INSERT {}", flat[0]),
            format!("INSERT {}", flat[1]),
            format!("KNN 1 0.5 {deep}"),
            format!("INSERT {}", flat[2]),
            format!("TOPM 1 {deep}"),
            format!("RKNN 1 0.5 {deep}"),
            format!("INSERT {deep}"),
            format!("UPDATE 0 {deep}"),
            format!("DELNEAR {deep}"),
            format!("SUB KNN 1 0.5 {deep}"),
            format!("SUB TOPM 1 {deep}"),
            format!("KNN 1 0.5 {}", flat[0]),
            "STATS".to_owned(),
        ];
        let (replies, quit) = server.execute_batch(&lines);
        assert!(!quit);
        assert_eq!(replies.len(), lines.len(), "{shards} shards: {replies:?}");
        assert_eq!(&replies[..2], ["OK 0", "OK 1"]);
        assert!(replies[2].starts_with("ERR "), "{}", replies[2]);
        assert_eq!(replies[3], "OK 2");
        for reply in &replies[4..11] {
            assert!(
                reply.starts_with("ERR ") && reply.contains("dimensions"),
                "{shards} shards: {reply}"
            );
        }
        assert!(replies[11].starts_with("RES "), "{}", replies[11]);
        // no rejected line touched the engine
        assert_eq!(
            replies[12],
            "OK objects=3 mutations=3 subs=0 maintained=0 reanswered=0 notified=0"
        );
    }
}

#[test]
fn empty_store_accepts_any_dimensionality() {
    let mut server = empty_server(cfg(), 2, 8);
    let deep = &object_jsons(1, 3)[0];
    let (replies, _) = server.execute_batch(&[
        format!("KNN 1 0.5 {deep}"),
        format!("INSERT {deep}"),
        format!("KNN 1 0.5 {}", object_jsons(1, 2)[0]),
    ]);
    assert_eq!(replies[0], "RES -");
    assert_eq!(replies[1], "OK 0");
    assert!(replies[2].starts_with("ERR "), "{}", replies[2]);
}

#[test]
fn huge_k_replies_like_the_live_count() {
    const LIVE: usize = 12;
    for shards in [1, 2] {
        let mut server = loaded_server(shards, LIVE);
        let q = &object_jsons(1, 2)[0];
        let huge = ["4000000000", "18446744073709551615"];
        let mut lines = vec![
            format!("KNN {LIVE} 0.3 {q}"),
            format!("RKNN {LIVE} 0.3 {q}"),
            format!("TOPM {LIVE} {q}"),
            format!("SUB KNN {LIVE} 0.3 {q}"),
        ];
        for k in huge {
            lines.push(format!("KNN {k} 0.3 {q}"));
            lines.push(format!("RKNN {k} 0.3 {q}"));
            lines.push(format!("TOPM {k} {q}"));
            lines.push(format!("SUB KNN {k} 0.3 {q}"));
        }
        let (replies, _) = server.execute_batch(&lines);
        assert_eq!(replies.len(), lines.len(), "{shards} shards: {replies:?}");
        assert!(replies[0].starts_with("RES ") && replies[0] != "RES -");
        // `SUB <sid> RES ...`: the subscription ids differ, the results not
        let body = |reply: &str| reply.split_once(" RES ").map(|(_, b)| b.to_owned());
        for (i, line) in lines.iter().enumerate().skip(4) {
            let oracle = &replies[i % 4];
            if i % 4 == 3 {
                assert_eq!(body(&replies[i]), body(oracle), "{shards} shards: {line}");
                assert!(body(oracle).is_some(), "{oracle}");
            } else {
                assert_eq!(&replies[i], oracle, "{shards} shards: {line}");
            }
        }
    }
}
