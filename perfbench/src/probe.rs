//! Timed calls into the engine's public API, shared by the workloads: one
//! wire query, one in-process query, each optionally recording a span per
//! call under a parent span of the traced run.

use std::time::{Duration, Instant};

use ranksql::common::wire::{encode_row, PayloadWriter, ResultFingerprint, WireRow};
use ranksql::server::{Server, ServerConfig};
use ranksql::workload::{ClientResult, WireClient};
use ranksql::{Database, Params, PlanMode, PreparedQuery, Value};

use crate::setup::{err, BenchResult, BATCH_SIZE};
use crate::trace::Tracer;

/// Where a call's span goes: its tracer, parent span and request id.
pub struct Probe<'t> {
    pub tracer: &'t mut Tracer,
    pub parent: usize,
    pub request: u64,
}

/// Runs `f`, recording it as span `name` when tracing.
pub fn timed<T>(probe: &mut Option<Probe<'_>>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    if let Some(p) = probe {
        p.tracer.add(name, Some(p.parent), p.request, start);
    }
    out
}

/// Serves `db` on a loopback port while `body` runs against it, then
/// shuts the server down and joins it.  `max_threads` caps what a HELLO
/// may ask for.
pub fn with_server<T>(
    db: &Database,
    max_threads: u16,
    body: impl FnOnce(std::net::SocketAddr) -> BenchResult<T>,
) -> BenchResult<T> {
    let config = ServerConfig::default()
        .with_addr("127.0.0.1:0")
        .with_max_threads(usize::from(max_threads));
    let server = Server::bind(config).map_err(err("bind server"))?;
    let addr = server.local_addr().map_err(err("server address"))?;
    let handle = server.shutdown_handle();
    std::thread::scope(|s| {
        let serving = s.spawn(|| server.serve(db));
        let out = body(addr);
        handle.shutdown();
        let served = serving
            .join()
            .map_err(|_| "server thread panicked".to_owned())?;
        served.map_err(err("server"))?;
        out
    })
}

/// Connects and negotiates a session with every setting explicit; fails
/// unless the server grants exactly what was asked.
pub fn connect(
    addr: std::net::SocketAddr,
    tenant: &str,
    mode: PlanMode,
    threads: u16,
) -> BenchResult<WireClient> {
    let mut client = WireClient::connect(addr).map_err(err("connect"))?;
    hello(&mut client, tenant, mode, threads)?;
    Ok(client)
}

pub fn hello(
    client: &mut WireClient,
    tenant: &str,
    mode: PlanMode,
    threads: u16,
) -> BenchResult<()> {
    let reply = client
        .hello(tenant, mode, threads, BATCH_SIZE as u32, 0)
        .map_err(err("HELLO"))?;
    if reply.threads != threads || reply.batch_size != BATCH_SIZE as u32 || reply.tuple_budget != 0
    {
        return Err(format!(
            "HELLO granted threads={} batch={} budget={} instead of threads={threads} \
             batch={BATCH_SIZE} budget=none",
            reply.threads, reply.batch_size, reply.tuple_budget
        ));
    }
    Ok(())
}

/// One wire top-k request: `BIND`, `OPEN`, `FETCH k`, optionally
/// `FETCH_MORE k`, `CLOSE`.
pub struct WireRequest<'a> {
    pub statement: u32,
    pub k: u64,
    pub params: &'a [(u16, Value)],
    pub fetch_more: bool,
}

pub struct WireOutcome {
    pub rows: Vec<WireRow>,
    pub round_trips: u32,
}

impl WireOutcome {
    pub fn fingerprint(&self) -> String {
        let mut fp = ResultFingerprint::new();
        for r in &self.rows {
            fp.fold_wire_row(r);
        }
        fp.to_string()
    }
}

pub fn wire_query(
    client: &mut WireClient,
    req: &WireRequest<'_>,
    mut probe: Option<Probe<'_>>,
) -> ClientResult<WireOutcome> {
    let bound = timed(&mut probe, "server.bind_rtt", || {
        client.bind(req.statement, Some(req.k), req.params)
    })?;
    let opened = timed(&mut probe, "server.open_rtt", || {
        client.open(bound.binding_id)
    })?;
    let k = req.k as u32;
    let mut rows = timed(&mut probe, "server.fetch_rtt", || {
        client.fetch(opened.cursor_id, k)
    })?
    .rows;
    let mut round_trips = 4;
    if req.fetch_more {
        let more = timed(&mut probe, "server.fetch_more_rtt", || {
            client.fetch_more(opened.cursor_id, k)
        })?;
        rows.extend(more.rows);
        round_trips += 1;
    }
    timed(&mut probe, "server.close_rtt", || {
        client.close(opened.cursor_id)
    })?;
    Ok(WireOutcome { rows, round_trips })
}

/// Whether scores never increase and at most `limit` rows came back.
pub fn well_ordered(scores: impl IntoIterator<Item = f64>, limit: usize) -> bool {
    let mut n = 0;
    let mut prev = f64::INFINITY;
    for s in scores {
        if s.is_nan() || s > prev {
            return false;
        }
        prev = s;
        n += 1;
    }
    n <= limit
}

/// The outcome of one in-process query.
#[derive(Debug, Default)]
pub struct InprocOutcome {
    pub fingerprint: String,
    pub scores: Vec<f64>,
    pub cache_hit: bool,
    /// From the bind through closing the cursor.
    pub wall: Duration,
    pub wire_bytes: usize,
}

/// Binds `params`, opens a cursor, takes `k` rows, optionally extends by
/// `k` more, and closes the cursor, like [`wire_query`] does over the
/// wire.
pub fn inproc_query(
    prepared: &PreparedQuery<'_>,
    params: Params,
    k: usize,
    fetch_more: bool,
    mut probe: Option<Probe<'_>>,
) -> BenchResult<InprocOutcome> {
    let start = Instant::now();
    let bound = timed(&mut probe, "core.bind", || prepared.bind(params)).map_err(err("bind"))?;
    let mut cursor =
        timed(&mut probe, "core.cursor_open", || bound.cursor()).map_err(err("open"))?;
    let mut rows = timed(&mut probe, "executor.take", || cursor.take(k)).map_err(err("take"))?;
    if fetch_more {
        let more = timed(&mut probe, "executor.fetch_more", || cursor.fetch_more(k))
            .map_err(err("fetch_more"))?;
        rows.extend(more);
    }
    let scores: Vec<f64> = rows.iter().map(|r| cursor.score(r)).collect();
    timed(&mut probe, "core.cursor_close", || drop(cursor));
    let wall = start.elapsed();
    let mut out = InprocOutcome {
        cache_hit: bound.cache_hit(),
        wall,
        ..InprocOutcome::default()
    };
    let mut fp = ResultFingerprint::new();
    for (row, score) in rows.iter().zip(&scores) {
        let mut w = PayloadWriter::new();
        encode_row(&mut w, *score, row.tuple.id().parts(), row.tuple.values());
        out.wire_bytes += w.len();
        fp.fold_row(*score, row.tuple.id().parts(), row.tuple.values());
    }
    out.fingerprint = fp.to_string();
    out.scores = scores;
    Ok(out)
}

/// Work counters of one in-process query.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub rows: usize,
    /// `Cursor::tuples_scanned` after the pulls.
    pub tuples_scanned: u64,
    /// `Cursor::pages_faulted` after the pulls.
    pub pages_faulted: u64,
    /// `QueryResult::total_predicate_evaluations` of the drained cursor.
    pub predicate_evals: u64,
    /// `QueryResult::blocks_pruned` of the drained cursor.
    pub blocks_pruned: u64,
}

/// Runs the query of [`inproc_query`] again, untimed, and collects its
/// work counters; the cursor is drained into a `QueryResult` for the ones
/// only the result carries.
pub fn inproc_counters(
    prepared: &PreparedQuery<'_>,
    params: Params,
    k: usize,
    fetch_more: bool,
) -> BenchResult<Counters> {
    let bound = prepared.bind(params).map_err(err("bind"))?;
    let mut cursor = bound.cursor().map_err(err("open"))?;
    let mut rows = cursor.take(k).map_err(err("take"))?.len();
    if fetch_more {
        rows += cursor.fetch_more(k).map_err(err("fetch_more"))?.len();
    }
    let (tuples_scanned, pages_faulted) = (cursor.tuples_scanned(), cursor.pages_faulted());
    let result = cursor.into_result().map_err(err("drain"))?;
    Ok(Counters {
        rows,
        tuples_scanned,
        pages_faulted,
        predicate_evals: result.total_predicate_evaluations(),
        blocks_pruned: result.blocks_pruned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_check_rejects_rising_scores_and_overlong_results() {
        assert!(well_ordered([0.9, 0.9, 0.1], 3));
        assert!(!well_ordered([0.5, 0.6], 3));
        assert!(!well_ordered([0.5, 0.4], 1));
        assert!(!well_ordered([f64::NAN], 1));
    }
}
