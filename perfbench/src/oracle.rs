//! Reply checking and the bookkeeping that turns reply timestamps into
//! latencies: oracle diffs, NOTIFY-to-mutation attribution and
//! open-loop due-time accounting.

use crate::replay::Tagged;

/// Line-by-line comparison of a connection's replies with the oracle's.
/// Returns the number of positions that differ (a missing or extra line
/// counts once) and a description of the first difference.
pub fn diff(expected: &[String], got: &[String]) -> (u64, Option<String>) {
    let mut bad = 0u64;
    let mut first = None;
    for i in 0..expected.len().max(got.len()) {
        let (e, g) = (expected.get(i), got.get(i));
        if e != g {
            bad += 1;
            if first.is_none() {
                let show = |s: Option<&String>| match s {
                    Some(s) if s.len() > 120 => format!("{:?}...", &s[..120]),
                    Some(s) => format!("{s:?}"),
                    None => "<missing>".to_owned(),
                };
                first = Some(format!("reply {i}: expected {}, got {}", show(e), show(g)));
            }
        }
    }
    (bad, first)
}

/// The replies one connection received, in order.
pub fn of_conn(replies: &[Tagged], conn: u64) -> Vec<String> {
    replies
        .iter()
        .filter(|(c, _)| *c == conn)
        .map(|(_, r)| r.clone())
        .collect()
}

/// `ERR` replies in a reply stream.
pub fn err_count(replies: &[String]) -> u64 {
    replies.iter().filter(|r| r.starts_with("ERR")).count() as u64
}

/// NOTIFY attribution from the oracle's reply order: the server pushes a
/// mutation's NOTIFY lines right behind the mutation's own reply, so
/// the subscriber's NOTIFY lines between writer reply `i` and writer
/// reply `i + 1` belong to mutation `i`. Returns the NOTIFY count per
/// writer reply.
pub fn notify_counts(replies: &[Tagged], writer: u64, subscriber: u64) -> Vec<usize> {
    let mut counts: Vec<usize> = Vec::new();
    for (conn, line) in replies {
        if *conn == writer {
            counts.push(0);
        } else if *conn == subscriber && line.starts_with("NOTIFY ") {
            if let Some(last) = counts.last_mut() {
                *last += 1;
            }
        }
    }
    counts
}

/// Per-mutation NOTIFY latency: from sending mutation `i` until its last
/// NOTIFY line arrived, for every mutation that produced one. `sent[i]`
/// is mutation `i`'s send time; `arrivals` are the subscriber's NOTIFY
/// arrival times in order (the same clock). Returns `None` when the
/// subscriber saw fewer NOTIFY lines than the oracle attributes.
pub fn notify_latencies(counts: &[usize], sent: &[f64], arrivals: &[f64]) -> Option<Vec<f64>> {
    let mut seen = 0usize;
    let mut out = Vec::new();
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        seen += c;
        let last = *arrivals.get(seen - 1)?;
        out.push(last - sent[i]);
    }
    Some(out)
}

/// Due time (seconds after the start) of op `i` in an open loop at
/// `rate` ops per second.
pub fn due_s(i: usize, rate: f64) -> f64 {
    i as f64 / rate
}

/// Open-loop accounting: each op's latency runs from its due time, not
/// from when the generator got around to sending it, so generator
/// lateness and server queueing both count. Returns
/// `(latency, lateness)` per op, in seconds.
pub fn open_loop(rate: f64, sent: &[f64], replied: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let latency = replied
        .iter()
        .enumerate()
        .map(|(i, r)| r - due_s(i, rate))
        .collect();
    let late = sent
        .iter()
        .enumerate()
        .map(|(i, s)| (s - due_s(i, rate)).max(0.0))
        .collect();
    (latency, late)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn diff_catches_a_single_flipped_byte() {
        let expected = lines(&["OK 1", "RES 3:0.25:0.5:2", "OK 2"]);
        assert_eq!(diff(&expected, &expected), (0, None));
        let mut got = expected.clone();
        // flip one byte of one float digit
        got[1] = "RES 3:0.25:0.4:2".to_owned();
        let (bad, first) = diff(&expected, &got);
        assert_eq!(bad, 1);
        assert!(first.unwrap().starts_with("reply 1:"));
        // a missing trailing line counts too
        let (bad, first) = diff(&expected, &expected[..2]);
        assert_eq!(bad, 1);
        assert!(first.unwrap().contains("<missing>"));
    }

    #[test]
    fn notify_lines_attribute_to_the_preceding_mutation() {
        let replies: Vec<Tagged> = vec![
            (1, "SUB 1 RES -".into()),
            (2, "OK 100".into()),
            (1, "NOTIFY 1 ADD 100:1:1:0 DEL - CHG -".into()),
            (2, "OK 100".into()),
            (1, "NOTIFY 1 ADD - DEL 100 CHG -".into()),
            (1, "NOTIFY 2 ADD - DEL 100 CHG -".into()),
            (2, "OK 101".into()),
            (
                1,
                "OK objects=1 mutations=3 subs=2 maintained=3 reanswered=0 notified=3".into(),
            ),
        ];
        let counts = notify_counts(&replies, 2, 1);
        assert_eq!(counts, vec![1, 2, 0]);
        let sent = [0.0, 1.0, 2.0];
        let arrivals = [0.5, 1.25, 1.5];
        assert_eq!(
            notify_latencies(&counts, &sent, &arrivals),
            Some(vec![0.5, 0.5])
        );
        assert_eq!(notify_latencies(&counts, &sent, &arrivals[..2]), None);
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        // 10 ops/s: due at 0.0, 0.1, 0.2
        let sent = [0.0, 0.15, 0.2];
        let replied = [0.01, 0.16, 0.5];
        let (lat, late) = open_loop(10.0, &sent, &replied);
        let close = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-12);
        assert!(close(&lat, &[0.01, 0.06, 0.3]));
        assert!(close(&late, &[0.0, 0.05, 0.0]));
    }
}
