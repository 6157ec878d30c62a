//! `serve_point`: prepared single-table rank-aware top-k over the wire,
//! warm plan cache, closed loop over two connections.
//!
//! Tables A and B of the paper at s = 100 000 on the row backend, with
//! score indexes prebuilt.  Per request the seed draws a `jc1` threshold
//! (filter selectivity 1 % to 100 %) and k ∈ {1, 10, 100}; about one
//! request in eight extends its answer with `FETCH_MORE`.  Every session
//! asks for one engine thread.  Wire and server time dominate; the planner
//! does nothing after warm-up.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ranksql::workload::WireClient;
use ranksql::{Database, Params, PreparedQuery, StorageBackend, Value};

use crate::layers::{Coverage, LayerValues, TemplateCounters};
use crate::probe::{self, Probe, WireRequest};
use crate::setup::{self, err, BenchResult, Rng, MODE};
use crate::stats::{peak_rss_mb, Samples, Tally, Timeline};
use crate::trace::Tracer;
use crate::{Args, Report};

pub const TABLE_ROWS: usize = 100_000;
/// Distinct `jc1` values at s = 100 000 (join selectivity 0.0001).
const DISTINCT: i64 = 10_000;
pub const CLIENTS: usize = 2;
const ENGINE_THREADS: u16 = 1;
const KS: [u64; 3] = [1, 10, 100];
const FETCH_MORE_ONE_IN: u64 = 8;
/// One request in this many is fingerprint-checked against an in-process
/// run after the timed interval.
const CHECK_ONE_IN: u64 = 16;
/// Requests per template in warm-up, after the fixed first binding.
const WARMUP_REQUESTS: usize = 64;
/// Requests the timed interval needs for a reportable p99 (printed, not
/// part of the JSON result).
const MIN_REQUESTS: usize = 1_000;

struct Template {
    name: &'static str,
    sql: &'static str,
}

const TEMPLATES: [Template; 2] = [
    Template {
        name: "point_a",
        sql: "SELECT * FROM A WHERE A.jc1 < ? ORDER BY f1(A.p1) + f2(A.p2) LIMIT ?",
    },
    Template {
        name: "point_b",
        sql: "SELECT * FROM B WHERE B.jc1 < ? ORDER BY f3(B.p1) + f4(B.p2) LIMIT ?",
    },
];

#[derive(Debug, Clone, Copy)]
struct Request {
    template: usize,
    threshold: i64,
    k: u64,
    fetch_more: bool,
}

impl Request {
    fn draw(rng: &mut Rng) -> Request {
        Request {
            template: rng.below(TEMPLATES.len() as u64) as usize,
            threshold: rng.range(DISTINCT / 100, DISTINCT),
            k: rng.pick(&KS),
            fetch_more: rng.one_in(FETCH_MORE_ONE_IN),
        }
    }

    /// The first binding of each template plans the cached shape, so it
    /// is the same for every seed.
    fn planning(template: usize) -> Request {
        Request {
            template,
            threshold: DISTINCT / 2,
            k: 10,
            fetch_more: false,
        }
    }

    fn params(&self) -> [(u16, Value); 1] {
        [(0, Value::from(self.threshold))]
    }

    fn wire<'a>(&self, statements: &[u32], params: &'a [(u16, Value)]) -> WireRequest<'a> {
        WireRequest {
            statement: statements[self.template],
            k: self.k,
            params,
            fetch_more: self.fetch_more,
        }
    }
}

fn build_database() -> BenchResult<Database> {
    let w = setup::synthetic(TABLE_ROWS)?;
    let db = setup::memory_database(usize::from(ENGINE_THREADS), StorageBackend::Row);
    setup::copy_tables(&w.catalog, &db, &["A", "B"])?;
    setup::add_score_indexes(&db)?;
    Ok(db)
}

fn prepare_all(client: &mut WireClient) -> BenchResult<Vec<u32>> {
    TEMPLATES
        .iter()
        .map(|t| {
            client
                .prepare(t.sql)
                .map(|p| p.statement_id)
                .map_err(err("PREPARE"))
        })
        .collect()
}

/// Plans both templates with their fixed first binding, then warms the
/// caches with seeded requests.
fn warm_up(addr: std::net::SocketAddr, seed: u64) -> BenchResult<()> {
    let mut client = probe::connect(addr, "warmup", MODE, ENGINE_THREADS)?;
    let statements = prepare_all(&mut client)?;
    let mut rng = Rng::new(seed, 0x5741_524d);
    let mut requests: Vec<Request> = (0..TEMPLATES.len()).map(Request::planning).collect();
    requests.extend((0..WARMUP_REQUESTS * TEMPLATES.len()).map(|_| Request::draw(&mut rng)));
    for req in requests {
        let params = req.params();
        probe::wire_query(&mut client, &req.wire(&statements, &params), None)
            .map_err(err("warm-up query"))?;
    }
    Ok(())
}

struct ClientLog {
    timeline: Timeline,
    tally: Tally,
    /// Sampled requests and the fingerprint of their wire result.
    checks: Vec<(Request, String)>,
}

fn client_loop(
    addr: std::net::SocketAddr,
    seed: u64,
    index: usize,
    (begin, stop, done): (Instant, &AtomicBool, &AtomicU64),
) -> BenchResult<ClientLog> {
    let mut client = probe::connect(addr, "app", MODE, ENGINE_THREADS)?;
    let mut statements = prepare_all(&mut client)?;
    let mut rng = Rng::new(seed, 0x434c_0000 + index as u64);
    let mut check_rng = Rng::new(seed, 0x4348_0000 + index as u64);
    let mut log = ClientLog {
        timeline: Timeline::default(),
        tally: Tally::default(),
        checks: Vec::new(),
    };
    while !stop.load(Ordering::Relaxed) {
        let req = Request::draw(&mut rng);
        let params = req.params();
        let start = Instant::now();
        let outcome = probe::wire_query(&mut client, &req.wire(&statements, &params), None);
        let elapsed = start.elapsed();
        match outcome {
            Ok(out) => {
                log.timeline.push(begin.elapsed(), setup::ms(elapsed));
                done.fetch_add(1, Ordering::Relaxed);
                let limit = req.k as usize * if req.fetch_more { 2 } else { 1 };
                let ok = probe::well_ordered(out.rows.iter().map(|r| r.score), limit);
                log.tally.record(ok);
                if check_rng.one_in(CHECK_ONE_IN) {
                    log.checks.push((req, out.fingerprint()));
                }
            }
            Err(e) => {
                eprintln!("serve_point: request failed: {e}");
                log.tally.record(false);
                client = probe::connect(addr, "app", MODE, ENGINE_THREADS)?;
                statements = prepare_all(&mut client)?;
            }
        }
    }
    Ok(log)
}

fn prepared_templates(db: &Database) -> BenchResult<Vec<PreparedQuery<'_>>> {
    let session = setup::session(db, MODE, usize::from(ENGINE_THREADS), StorageBackend::Row);
    TEMPLATES
        .iter()
        .map(|t| session.prepare(t.sql).map_err(err("prepare")))
        .collect()
}

impl Request {
    fn inproc_params(&self) -> Params {
        Params::new().set(0, self.threshold).k(self.k as usize)
    }
}

fn inproc(
    prepared: &[PreparedQuery<'_>],
    req: &Request,
    probe: Option<Probe<'_>>,
) -> BenchResult<probe::InprocOutcome> {
    let p = &prepared[req.template];
    probe::inproc_query(
        p,
        req.inproc_params(),
        req.k as usize,
        req.fetch_more,
        probe,
    )
}

pub fn measure(args: &Args) -> BenchResult<Report> {
    let mut report = Report::default();
    let mut setup_s = Samples::new();
    for rep in 0..setup::SETUP_REPS {
        let start = Instant::now();
        let db = build_database()?;
        let last = rep + 1 == setup::SETUP_REPS;
        let mut checks = Vec::new();
        probe::with_server(&db, ENGINE_THREADS, |addr| {
            warm_up(addr, args.seed)?;
            setup_s.push(start.elapsed().as_secs_f64());
            if last {
                checks = run_load(args, &db, addr, &mut report)?;
            }
            Ok(())
        })?;
        // After the timed interval: every sampled wire result must equal
        // an in-process run of the same request.
        let prepared = prepared_templates(&db)?;
        for (req, wire) in checks {
            let local = inproc(&prepared, &req, None)?;
            if local.fingerprint != wire {
                eprintln!(
                    "serve_point: {req:?}: wire {wire} != in-process {}",
                    local.fingerprint
                );
                report.tally.fail_checked();
            }
        }
    }
    report.gated("setup_s", setup_s.plain_median(), "s", setup_s.len())?;
    let rss = peak_rss_mb().ok_or("peak RSS unavailable")?;
    report.gated("peak_rss_mb", Some(rss), "MiB", 1)?;
    Ok(report)
}

/// The timed interval: [`CLIENTS`] closed-loop connections for at least
/// `--seconds` and until [`MIN_REQUESTS`] requests completed.  Returns
/// the sampled requests to check.
fn run_load(
    args: &Args,
    db: &Database,
    addr: std::net::SocketAddr,
    report: &mut Report,
) -> BenchResult<Vec<(Request, String)>> {
    let stop = AtomicBool::new(false);
    let done = AtomicU64::new(0);
    let misses_before = db.plan_cache_stats().misses;
    let start = Instant::now();
    let logs: Vec<BenchResult<ClientLog>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let (stop, done) = (&stop, &done);
                s.spawn(move || client_loop(addr, args.seed, i, (start, stop, done)))
            })
            .collect();
        setup::wait_until(start, args.seconds, || {
            done.load(Ordering::Relaxed) >= MIN_REQUESTS as u64
        });
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let mut timeline = Timeline::default();
    let mut checks = Vec::new();
    for log in logs {
        let log = log?;
        timeline.merge(&log.timeline);
        report.tally.merge(log.tally);
        checks.extend(log.checks);
    }
    let n = timeline.len();
    report.gated("queries_per_s", timeline.rate(), "1/s", n)?;
    report.gated("query_p50_ms", timeline.percentile(50.0), "ms", n)?;
    report.gated("query_p90_ms", timeline.percentile(90.0), "ms", n)?;
    report.line(
        "pooled query_p99_ms",
        timeline.latencies().percentile(99.0),
        "ms",
        n,
    );
    report.lines.push(format!(
        "plan-cache misses in the timed interval: {}",
        db.plan_cache_stats().misses - misses_before
    ));
    report
        .lines
        .push(format!("fingerprint-checked requests: {}", checks.len()));
    Ok(checks)
}

pub fn traced(args: &Args) -> BenchResult<Report> {
    let mut report = Report::default();
    let db = build_database()?;
    let prepared = prepared_templates(&db)?;
    let mut values = LayerValues::default();
    let mut tracer = Tracer::new();
    let mut coverage = Coverage::default();
    let mut counters = [TemplateCounters::default(); 2];
    let (mut bytes, mut rows, mut trips, mut ops) = (0usize, 0usize, 0u64, 0u64);
    let mut overhead_us = Samples::new();
    probe::with_server(&db, ENGINE_THREADS, |addr| {
        warm_up(addr, args.seed)?;
        let stats_before = db.plan_cache_stats();
        let mut client = probe::connect(addr, "app", MODE, ENGINE_THREADS)?;
        let statements = prepare_all(&mut client)?;
        let mut rng = Rng::new(args.seed, 0x434c_0000);
        let start = Instant::now();
        let mut request = 0u64;
        while start.elapsed() < Duration::from_secs(args.seconds) {
            let req = Request::draw(&mut rng);
            request += 1;
            let params = req.params();
            let wreq = req.wire(&statements, &params);
            // The request and its in-process twin, untraced and traced;
            // which pair runs first alternates, so neither is always the
            // one that finds the caches warm.
            let untraced = |client: &mut WireClient| -> BenchResult<_> {
                let t = Instant::now();
                probe::wire_query(client, &wreq, None).map_err(err("wire query"))?;
                let wire_wall = t.elapsed();
                Ok((wire_wall, inproc(&prepared, &req, None)?.wall))
            };
            let mut walls = None;
            if request.is_multiple_of(2) {
                walls = Some(untraced(&mut client)?);
            }
            let root = tracer.begin("serve_point.wire_query", None, request);
            let out = probe::wire_query(
                &mut client,
                &wreq,
                Some(Probe {
                    tracer: &mut tracer,
                    parent: root,
                    request,
                }),
            )
            .map_err(err("traced wire query"))?;
            tracer.end(root);
            let iroot = tracer.begin("serve_point.inproc_query", None, request);
            let traced_twin = inproc(
                &prepared,
                &req,
                Some(Probe {
                    tracer: &mut tracer,
                    parent: iroot,
                    request,
                }),
            )?;
            tracer.end(iroot);
            let (wire_wall, twin_wall) = match walls {
                Some(w) => w,
                None => untraced(&mut client)?,
            };
            coverage.add(wire_wall, &tracer, root);
            report
                .tally
                .record(out.fingerprint() == traced_twin.fingerprint);
            overhead_us.push(setup::us(wire_wall) - setup::us(twin_wall));
            counters[req.template].add(&probe::inproc_counters(
                &prepared[req.template],
                req.inproc_params(),
                req.k as usize,
                req.fetch_more,
            )?);
            bytes += traced_twin.wire_bytes;
            rows += traced_twin.scores.len();
            trips += u64::from(out.round_trips);
            ops += 1;
        }
        values.set_plan_cache(stats_before, db.plan_cache_stats());
        Ok(())
    })?;
    values.set_span_medians(&tracer);
    for (i, t) in TEMPLATES.iter().enumerate() {
        counters[i].report(t.name, &mut values);
    }
    if ops > 0 {
        values.set("server.round_trips_per_query", trips as f64 / ops as f64);
        values.set("server.bytes_per_row", bytes as f64 / rows.max(1) as f64);
        values.set_opt("server.wire_overhead_us", overhead_us.plain_median());
    }
    coverage.report(&tracer, &mut values);
    report.lines.extend(crate::layers::span_lines(
        &tracer,
        args.trace_out.as_deref(),
    ));
    values.report("serve_point", &mut report.metrics)?;
    Ok(report)
}
