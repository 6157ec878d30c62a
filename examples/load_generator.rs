//! End-to-end load harness for the `ranksql-server` front end — the
//! program the CI `server-e2e` job runs and hard-fails on.
//!
//! Phase A (concurrency): starts a server over one shared `Database`,
//! drives `LOADGEN_CLIENTS` concurrent wire clients (default 4) through a
//! mixed work list of prepared top-k queries, and checks every streamed
//! result **byte-identically** against an in-process `Session` execution
//! of the same query under the same negotiated settings — the result
//! fingerprint (order-sensitive FNV over score + tuple id + values) must
//! match exactly, at any `RANKSQL_THREADS`.
//!
//! Phase B (isolation + incrementality): opens a wire cursor and a twin
//! in-process cursor, streams a prefix from both (pinning their MVCC
//! epochs), then INSERTs a burst that pushes the joined table across a
//! 1024-row column seal boundary — and verifies both cursors continue
//! their *pre-insert* answer byte-identically through `FETCH` and
//! `FETCH_MORE` (no re-execution: the server extends the live operator
//! tree).  `STATS` must show the open cursor's pinned epochs and a warm
//! shared plan cache.
//!
//! Phase A also reports its request count, throughput and p50/p99
//! request latency on one line; a request is one work item from `HELLO`
//! through `CLOSE` (six or more wire round trips).
//!
//! Exits non-zero on any mismatch.  Run with:
//! `LOADGEN_CLIENTS=8 cargo run --release --example load_generator`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ranksql::common::wire::ResultFingerprint;
use ranksql::server::{Server, ServerConfig};
use ranksql::workload::client::{stats_value, WireClient};
use ranksql::{DataType, Database, Field, Params, PlanMode, Schema, Value};

/// One work item: a query every client runs and fingerprint-checks.
struct WorkItem {
    sql: &'static str,
    params: Vec<(u16, Value)>,
    k: Option<u64>,
    mode: PlanMode,
    chunk: u32,
}

/// Deterministic pseudo-score in `[0, 1)` (no RNG: the harness must be
/// reproducible bit for bit across runs and thread counts).
fn score(i: i64, salt: i64) -> f64 {
    (((i * 2_654_435_761 + salt * 40_503) % 10_000).abs() as f64) / 10_000.0
}

fn build_database() -> ranksql::Result<Database> {
    let db = Database::new();
    db.create_table(
        "R",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("jc", DataType::Int64),
            Field::new("a", DataType::Float64),
            Field::new("b", DataType::Float64),
        ]),
    )?;
    db.create_table(
        "S",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("jc", DataType::Int64),
            Field::new("c", DataType::Float64),
        ]),
    )?;
    db.insert_batch(
        "R",
        (0..500i64).map(|i| {
            vec![
                Value::from(i),
                Value::from(i % 8),
                Value::from(score(i, 1)),
                Value::from(score(i, 2)),
            ]
        }),
    )?;
    // 900 rows: the phase-B insert burst of 300 pushes S across the
    // 1024-row column seal boundary while cursors hold pinned epochs.
    db.insert_batch(
        "S",
        (0..900i64).map(|i| vec![Value::from(i), Value::from(i % 8), Value::from(score(i, 3))]),
    )?;
    Ok(db)
}

fn work_list() -> Vec<WorkItem> {
    vec![
        WorkItem {
            sql: "SELECT * FROM R WHERE R.jc < ? ORDER BY pa(R.a) + pb(R.b) LIMIT 12",
            params: vec![(0, Value::from(5i64))],
            k: None,
            mode: PlanMode::RankAware,
            chunk: 5,
        },
        WorkItem {
            sql: "SELECT * FROM R WHERE R.jc < ? ORDER BY pa(R.a) + pb(R.b) LIMIT 12",
            params: vec![(0, Value::from(3i64))],
            k: Some(7),
            mode: PlanMode::RankAware,
            chunk: 3,
        },
        WorkItem {
            sql: "SELECT * FROM R, S WHERE R.jc = S.jc ORDER BY pa(R.a) + pc(S.c) LIMIT 10",
            params: vec![],
            k: None,
            mode: PlanMode::RankAware,
            chunk: 4,
        },
        WorkItem {
            sql: "SELECT * FROM R WHERE R.jc < ? ORDER BY pa(R.a) + pb(R.b) LIMIT 12",
            params: vec![(0, Value::from(5i64))],
            k: None,
            mode: PlanMode::Traditional,
            chunk: 12,
        },
    ]
}

/// The in-process reference: the same query, same settings, same chunked
/// pull pattern, fingerprinted with the same canonical row encoding.
fn reference_fingerprint(db: &Database, item: &WorkItem) -> ranksql::Result<String> {
    let session = db.session().with_mode(item.mode);
    let prepared = session.prepare(item.sql)?;
    let mut params = Params::new();
    for (slot, value) in &item.params {
        params = params.set(*slot as usize, value.clone());
    }
    if let Some(k) = item.k {
        params = params.k(k as usize);
    }
    let mut cursor = prepared.bind(params)?.cursor()?;
    let mut fp = ResultFingerprint::new();
    loop {
        let rows = cursor.take(item.chunk as usize)?;
        if rows.is_empty() {
            break;
        }
        for row in &rows {
            fp.fold_row(
                cursor.score(row),
                row.tuple.id().parts(),
                row.tuple.values(),
            );
        }
        if cursor.is_exhausted() {
            break;
        }
    }
    Ok(fp.to_string())
}

/// One wire client's run over the whole work list, `rounds` times.
/// Returns the number of fingerprint mismatches (0 = clean); the latency
/// of every completed request is appended to `latencies`.
fn run_client(
    addr: std::net::SocketAddr,
    client_idx: usize,
    items: &[WorkItem],
    expected: &[String],
    rounds: usize,
    latencies: &mut Vec<Duration>,
) -> Result<u64, String> {
    let mut client = WireClient::connect(addr).map_err(|e| e.to_string())?;
    let tenant = format!("tenant-{}", client_idx % 3);
    let mut mismatches = 0u64;
    for _ in 0..rounds {
        for (item, want) in items.iter().zip(expected) {
            let started = Instant::now();
            // Renegotiate per item so each mode runs under its own envelope
            // (threads/batch 0 = server defaults, budget 0 = none).
            client
                .hello(&tenant, item.mode, 0, 0, 0)
                .map_err(|e| e.to_string())?;
            let prepared = client.prepare(item.sql).map_err(|e| e.to_string())?;
            let bound = client
                .bind(prepared.statement_id, item.k, &item.params)
                .map_err(|e| e.to_string())?;
            let opened = client.open(bound.binding_id).map_err(|e| e.to_string())?;
            let rows = client
                .drain(opened.cursor_id, item.chunk)
                .map_err(|e| e.to_string())?;
            let mut fp = ResultFingerprint::new();
            for row in &rows {
                fp.fold_wire_row(row);
            }
            let got = fp.to_string();
            if got != *want {
                eprintln!(
                    "MISMATCH client {client_idx} {:?} {}: wire {got} != in-process {want}",
                    item.mode, item.sql
                );
                mismatches += 1;
            }
            client.close(opened.cursor_id).map_err(|e| e.to_string())?;
            latencies.push(started.elapsed());
        }
    }
    Ok(mismatches)
}

/// The nearest-rank `q`-quantile of `sorted` (ascending), in milliseconds.
fn quantile_ms(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e3
}

/// Phase B: epoch pinning + FETCH_MORE without re-execution, across a
/// concurrent insert burst.  Returns an error description on any failure.
fn run_pinning_phase(db: &Database, addr: std::net::SocketAddr) -> Result<(), String> {
    let sql = "SELECT * FROM R, S WHERE R.jc = S.jc ORDER BY pa(R.a) + pc(S.c) LIMIT 10";

    // Twin in-process cursor: same mode, same chunk pattern.
    let session = db.session().with_mode(PlanMode::RankAware);
    let prepared = session.prepare(sql).map_err(|e| e.to_string())?;
    let mut reference = prepared
        .bind(Params::new())
        .map_err(|e| e.to_string())?
        .cursor()
        .map_err(|e| e.to_string())?;

    let mut client = WireClient::connect(addr).map_err(|e| e.to_string())?;
    client
        .hello("pinning", PlanMode::RankAware, 0, 0, 0)
        .map_err(|e| e.to_string())?;
    let stmt = client.prepare(sql).map_err(|e| e.to_string())?;
    let bound = client
        .bind(stmt.statement_id, None, &[])
        .map_err(|e| e.to_string())?;
    let opened = client.open(bound.binding_id).map_err(|e| e.to_string())?;

    let compare = |label: &str,
                   wire_rows: &[ranksql::common::wire::WireRow],
                   reference: &mut ranksql::Cursor,
                   n: usize|
     -> Result<(), String> {
        let ref_rows = reference.take(n).map_err(|e| e.to_string())?;
        let mut wire_fp = ResultFingerprint::new();
        for r in wire_rows {
            wire_fp.fold_wire_row(r);
        }
        let mut ref_fp = ResultFingerprint::new();
        for r in &ref_rows {
            ref_fp.fold_row(reference.score(r), r.tuple.id().parts(), r.tuple.values());
        }
        if wire_fp.to_string() != ref_fp.to_string() {
            return Err(format!(
                "{label}: wire {wire_fp} != in-process {ref_fp} ({} vs {} rows)",
                wire_rows.len(),
                ref_rows.len()
            ));
        }
        Ok(())
    };

    // Stream a prefix from both cursors: this pins their MVCC epochs at
    // the pre-insert watermark.
    let first = client
        .fetch(opened.cursor_id, 4)
        .map_err(|e| e.to_string())?;
    compare("pre-insert prefix", &first.rows, &mut reference, 4)?;

    // Insert burst over the wire: S grows 900 → 1200, crossing the
    // 1024-row seal boundary while both cursors are open.
    let burst: Vec<Vec<Value>> = (900..1200i64)
        .map(|i| vec![Value::from(i), Value::from(i % 8), Value::from(0.9999)])
        .collect();
    let inserted = client.insert("S", &burst).map_err(|e| e.to_string())?;
    if inserted != 300 {
        return Err(format!("insert burst: expected 300 rows, got {inserted}"));
    }

    // Both cursors must keep answering from their pinned epochs.
    let rest = client
        .fetch(opened.cursor_id, 6)
        .map_err(|e| e.to_string())?;
    compare("post-insert remainder", &rest.rows, &mut reference, 6)?;

    // FETCH_MORE: extend the server-held operator tree past the original
    // LIMIT — no re-execution, still the pinned snapshot.
    let more = client
        .fetch_more(opened.cursor_id, 5)
        .map_err(|e| e.to_string())?;
    let ref_more = reference.fetch_more(5).map_err(|e| e.to_string())?;
    let mut wire_fp = ResultFingerprint::new();
    for r in &more.rows {
        wire_fp.fold_wire_row(r);
    }
    let mut ref_fp = ResultFingerprint::new();
    for r in &ref_more {
        ref_fp.fold_row(reference.score(r), r.tuple.id().parts(), r.tuple.values());
    }
    if wire_fp.to_string() != ref_fp.to_string() {
        return Err(format!(
            "fetch_more extension: wire {wire_fp} != in-process {ref_fp}"
        ));
    }

    // Observability: the open cursor's pinned epochs and the warm shared
    // plan cache must be visible through STATS.
    let stats = client.stats().map_err(|e| e.to_string())?;
    let pin_key = format!("cursor[{}].pinned_epochs", opened.cursor_id);
    let pins = stats_value(&stats, &pin_key)
        .ok_or_else(|| format!("STATS missing {pin_key}:\n{stats}"))?;
    if !pins.contains('@') {
        return Err(format!("{pin_key} reports no pinned epoch: {pins:?}"));
    }
    let hits: u64 = stats_value(&stats, "plan_cache.hits")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("STATS missing plan_cache.hits:\n{stats}"))?;
    if hits == 0 {
        return Err("plan cache reports zero hits after the load phase".into());
    }
    println!("phase B stats excerpt: {pin_key}={pins} plan_cache.hits={hits}");

    client.close(opened.cursor_id).map_err(|e| e.to_string())?;
    Ok(())
}

fn main() -> ranksql::Result<()> {
    let clients: usize = std::env::var("LOADGEN_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let rounds: usize = std::env::var("LOADGEN_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);

    let db = build_database()?;
    let items = work_list();
    let expected: Vec<String> = items
        .iter()
        .map(|item| reference_fingerprint(&db, item))
        .collect::<ranksql::Result<_>>()?;

    let server = Server::bind(ServerConfig::default())?;
    let addr = server.local_addr()?;
    let handle = server.shutdown_handle();
    println!(
        "load_generator: {clients} clients x {rounds} rounds against {addr} \
         ({} work items)",
        items.len()
    );

    let mismatches = AtomicU64::new(0);
    let failures = AtomicU64::new(0);
    let latencies = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let server_thread = scope.spawn(|| server.serve(&db));

        // Phase A: concurrent clients, each fingerprint-checked.
        scope
            .spawn(|| {
                let phase_a = Instant::now();
                std::thread::scope(|clients_scope| {
                    for i in 0..clients {
                        let items = &items;
                        let expected = &expected;
                        let mismatches = &mismatches;
                        let failures = &failures;
                        let latencies = &latencies;
                        clients_scope.spawn(move || {
                            let mut mine = Vec::new();
                            match run_client(addr, i, items, expected, rounds, &mut mine) {
                                Ok(n) => {
                                    mismatches.fetch_add(n, Ordering::Relaxed);
                                }
                                Err(e) => {
                                    eprintln!("client {i} failed: {e}");
                                    failures.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            latencies
                                .lock()
                                .expect("a client thread panicked holding the latency list")
                                .extend(mine);
                        });
                    }
                });
                let wall = phase_a.elapsed().as_secs_f64();
                let mut sorted = latencies
                    .lock()
                    .expect("a client thread panicked holding the latency list")
                    .clone();
                sorted.sort_unstable();
                println!(
                    "phase A: {clients} clients, {} requests in {wall:.3} s, {:.1} QPS, \
                     request latency p50 {:.3} ms p99 {:.3} ms",
                    sorted.len(),
                    sorted.len() as f64 / wall,
                    quantile_ms(&sorted, 0.50),
                    quantile_ms(&sorted, 0.99),
                );

                // Phase B: epoch pinning across an insert burst.
                if let Err(e) = run_pinning_phase(&db, addr) {
                    eprintln!("phase B failed: {e}");
                    failures.fetch_add(1, Ordering::Relaxed);
                }

                handle.shutdown();
            })
            .join()
            .expect("driver thread panicked");

        server_thread
            .join()
            .expect("server thread panicked")
            .expect("server accept loop failed");
    });

    let mismatches = mismatches.load(Ordering::Relaxed);
    let failures = failures.load(Ordering::Relaxed);
    println!(
        "load_generator: {} ({} fingerprint mismatches, {} client failures)",
        if mismatches == 0 && failures == 0 {
            "PASS"
        } else {
            "FAIL"
        },
        mismatches,
        failures
    );
    if mismatches > 0 || failures > 0 {
        std::process::exit(1);
    }
    Ok(())
}
