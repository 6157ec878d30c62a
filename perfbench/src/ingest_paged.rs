//! `ingest_paged`: inserts beside reads on the paged backend, data larger
//! than the buffer pool.
//!
//! A and B start at 20 000 rows each in a fresh on-disk directory whose
//! buffer pool holds about a quarter of the starting data's pages.  One
//! wire connection inserts a fixed volume of 64-row batches in a closed
//! loop under the engine's own flush policy (WAL, fsync at each 1024-row
//! seal); a second runs prepared reads: a rank-aware selective top-k and a
//! Traditional-mode scan top-k that faults pages through the pool.  The
//! tables cross a log₂ size bucket during the run, so re-plans show as
//! read tail spikes.  Only this workload writes, seals, extends indexes or
//! evicts pool pages.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ranksql::workload::{SyntheticConfig, SyntheticWorkload, WireClient};
use ranksql::{Database, PagedOptions, Params, PlanMode, StorageBackend, Value};

use crate::layers::{Coverage, LayerValues, TemplateCounters};
use crate::probe::{self, Probe, WireRequest};
use crate::setup::{self, err, BenchResult, Deck, Rng};
use crate::stats::{peak_rss_mb, Samples, Tally, Timeline, ROUNDS};
use crate::trace::Tracer;
use crate::{Args, Report};

pub const START_ROWS: usize = 20_000;
pub const BATCH_ROWS: usize = 64;
/// Batches per run: 262 144 rows, half to each table, so both cross the
/// 32 768, 65 536 and 131 072-row size buckets.
pub const BATCHES: usize = 4_096;
/// Buffer-pool capacity: about a quarter of the starting data's pages.
pub const POOL_PAGES: u64 = 32;
const ENGINE_THREADS: u16 = 1;
const TABLES: [&str; 2] = ["A", "B"];
/// Distinct join-column values: those of `SyntheticConfig::small` at the
/// starting size, kept for the inserted rows.
const DISTINCT: i64 = (START_ROWS / 10) as i64;
/// The k deck: half the reads at k = 10, so that the median, which falls
/// at two thirds of the selective reads, lies inside one k's latencies
/// instead of on the step between two.
const KS: [u64; 4] = [1, 10, 10, 100];
/// Reads the timed interval needs: a reportable p90 in every round.
const MIN_READS: usize = 150 * ROUNDS;
/// In the traced replay, one read after this many insert batches.
const TRACE_READ_EVERY: usize = 16;

struct Template {
    name: &'static str,
    mode: PlanMode,
    sql: &'static str,
    /// Index in [`TABLES`] of the table read.
    table: usize,
    /// Column index of the filtered column in the result rows.
    filtered: usize,
    /// Thresholds of the filter's selectivity, in per cent.
    selectivity: (i64, i64),
}

const TEMPLATES: [Template; 2] = [
    Template {
        name: "read_rank",
        mode: PlanMode::RankAware,
        sql: "SELECT * FROM A WHERE A.jc1 < ? ORDER BY f1(A.p1) + f2(A.p2) LIMIT ?",
        table: 0,
        filtered: 0,
        selectivity: (1, 10),
    },
    Template {
        name: "read_scan",
        mode: PlanMode::Traditional,
        sql: "SELECT * FROM B WHERE B.jc2 < ? ORDER BY f3(B.p1) + f4(B.p2) LIMIT ?",
        table: 1,
        filtered: 1,
        selectivity: (50, 100),
    },
];

#[derive(Debug, Clone, Copy)]
struct Read {
    template: usize,
    threshold: i64,
    k: u64,
}

/// The seeded read sequence: templates and k from decks, so every run
/// has the same shares of each.  Three selective reads per scan keep the
/// median inside the selective reads' latencies and the p90 inside the
/// scans', rather than on the gap between the two.
///
/// The plan cache re-plans a template when its table enters a new log₂
/// size bucket, costing the plan with that binding's values.  So the
/// first read of a template in each bucket uses the template's fixed
/// planning binding: the plans, and the latencies they give, are then the
/// same for every seed.
struct Reads {
    rng: Rng,
    templates: Deck<usize>,
    ks: Deck<u64>,
    /// Per template, the size bucket its cached plan was made for.
    planned: [u32; 2],
}

/// The plan cache's size bucket of a table with `rows` rows.
fn size_bucket(rows: u64) -> u32 {
    u64::BITS - rows.leading_zeros()
}

impl Reads {
    fn new(seed: u64) -> Self {
        Reads {
            rng: Rng::new(seed, 0x5245_4144),
            templates: Deck::new(&[0, 0, 0, 1]),
            ks: Deck::new(&KS),
            planned: [size_bucket(START_ROWS as u64); 2],
        }
    }

    /// The next read, given the tables' current row counts.
    fn next(&mut self, rows: [u64; 2]) -> Read {
        let template = self.templates.draw(&mut self.rng);
        let (lo, hi) = TEMPLATES[template].selectivity;
        let drawn = Read {
            template,
            threshold: self.rng.range(lo * DISTINCT / 100, hi * DISTINCT / 100),
            k: self.ks.draw(&mut self.rng),
        };
        let bucket = size_bucket(rows[TEMPLATES[template].table]);
        if bucket == self.planned[template] {
            return drawn;
        }
        self.planned[template] = bucket;
        Read::planning(template)
    }
}

/// The tables' current row counts.
fn table_rows(db: &Database) -> BenchResult<[u64; 2]> {
    let mut rows = [0; 2];
    for (i, name) in TABLES.iter().enumerate() {
        rows[i] = db
            .catalog()
            .table(name)
            .map_err(err("table"))?
            .epoch_ordinal();
    }
    Ok(rows)
}

impl Read {
    /// The first binding of each template, the same for every seed.
    fn planning(template: usize) -> Read {
        let (lo, hi) = TEMPLATES[template].selectivity;
        Read {
            template,
            threshold: (lo + hi) / 2 * DISTINCT / 100,
            k: 10,
        }
    }
}

/// Tables of `rows` rows; see [`setup::data_seed`] for why the contents do
/// not depend on `--seed`.
fn generate(rows: usize, seed: u64) -> BenchResult<SyntheticWorkload> {
    SyntheticWorkload::generate(SyntheticConfig {
        seed,
        build_indexes: false,
        join_selectivity: 1.0 / DISTINCT as f64,
        ..SyntheticConfig::small(rows)
    })
    .map_err(err("generating synthetic rows"))
}

/// The insert stream: batch `i` goes to `TABLES[i % 2]`.
fn insert_stream() -> BenchResult<Vec<Vec<Vec<Value>>>> {
    let w = generate(BATCHES * BATCH_ROWS / 2, setup::data_seed() ^ 0x494e_5345)?;
    let mut per_table = Vec::new();
    for name in TABLES {
        let rows: Vec<Vec<Value>> = w
            .catalog
            .table(name)
            .map_err(err("stream table"))?
            .scan()
            .into_iter()
            .map(|t| t.values().to_vec())
            .collect();
        per_table.push(rows);
    }
    Ok((0..BATCHES)
        .map(|i| {
            let at = (i / 2) * BATCH_ROWS;
            per_table[i % 2][at..at + BATCH_ROWS].to_vec()
        })
        .collect())
}

fn fresh_dir(base: &Path, tag: &str) -> BenchResult<PathBuf> {
    let dir = base.join(format!("ingest-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(err("clearing work dir"))?;
    }
    std::fs::create_dir_all(&dir).map_err(err("creating work dir"))?;
    Ok(dir)
}

/// A fresh paged database with A and B at [`START_ROWS`] and score
/// indexes on every ranking predicate.
fn build_database(dir: &Path) -> BenchResult<Database> {
    let db = Database::open_paged_with(
        dir,
        PagedOptions {
            pool_pages: POOL_PAGES,
        },
    )
    .map_err(err("open paged"))?;
    let w = generate(START_ROWS, setup::data_seed())?;
    setup::copy_tables(&w.catalog, &db, &TABLES)?;
    setup::add_score_indexes(&db)?;
    Ok(db)
}

fn dir_bytes(dir: &Path) -> BenchResult<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(err("reading work dir"))? {
        let meta = entry
            .map_err(err("dir entry"))?
            .metadata()
            .map_err(err("metadata"))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

fn pool_stats(db: &Database) -> (u64, u64, u64) {
    db.catalog()
        .paged_store()
        .map_or((0, 0, 0), |s| s.pool().stats())
}

/// A read connection.  Each template runs in its own plan mode, so
/// switching template re-negotiates the session (which drops its
/// statements) and prepares the new one, outside the timed request.
struct Reader {
    client: WireClient,
    template: Option<usize>,
    statement: u32,
}

impl Reader {
    fn connect(addr: std::net::SocketAddr) -> BenchResult<Reader> {
        Ok(Reader {
            client: WireClient::connect(addr).map_err(err("connect"))?,
            template: None,
            statement: 0,
        })
    }

    fn prepare_for(&mut self, template: usize) -> BenchResult<()> {
        if self.template == Some(template) {
            return Ok(());
        }
        let t = &TEMPLATES[template];
        probe::hello(&mut self.client, "reader", t.mode, ENGINE_THREADS)?;
        self.statement = self
            .client
            .prepare(t.sql)
            .map_err(err("PREPARE"))?
            .statement_id;
        self.template = Some(template);
        Ok(())
    }

    /// One timed read; returns its latency and whether its rows are
    /// ordered, at most k, and satisfy the filter.
    fn read(&mut self, r: &Read, probe: Option<Probe<'_>>) -> BenchResult<(Duration, bool)> {
        let params = [(0u16, Value::from(r.threshold))];
        let req = WireRequest {
            statement: self.statement,
            k: r.k,
            params: &params,
            fetch_more: false,
        };
        let start = Instant::now();
        let out = probe::wire_query(&mut self.client, &req, probe).map_err(err("read"))?;
        let wall = start.elapsed();
        let col = TEMPLATES[r.template].filtered;
        let filtered = out.rows.iter().all(|row| {
            row.values
                .get(col)
                .and_then(Value::as_i64)
                .is_some_and(|v| v < r.threshold)
        });
        let ok = filtered && probe::well_ordered(out.rows.iter().map(|w| w.score), r.k as usize);
        Ok((wall, ok))
    }
}

fn warm_up(addr: std::net::SocketAddr) -> BenchResult<()> {
    let mut reader = Reader::connect(addr)?;
    for t in 0..TEMPLATES.len() {
        reader.prepare_for(t)?;
        reader.read(&Read::planning(t), None)?;
    }
    Ok(())
}

/// Acknowledged rows must be table rows, before and after recovery.
fn check_durable(db: Database, dir: &Path, acked: [u64; 2], tally: &mut Tally) -> BenchResult<()> {
    let mut expect = [0usize; 2];
    for (i, name) in TABLES.iter().enumerate() {
        expect[i] = START_ROWS + acked[i] as usize;
        let live = db.catalog().table(name).map_err(err("table"))?.row_count();
        if live != expect[i] {
            eprintln!(
                "ingest_paged: {name} holds {live} rows, {} acknowledged",
                expect[i]
            );
            tally.fail_checked();
        }
    }
    drop(db);
    let reopened = Database::open_paged(dir).map_err(err("reopen"))?;
    for (i, name) in TABLES.iter().enumerate() {
        let rows = reopened
            .catalog()
            .table(name)
            .map_err(err("table"))?
            .row_count();
        if rows != expect[i] {
            eprintln!(
                "ingest_paged: {name} recovered {rows} rows, {} acknowledged",
                expect[i]
            );
            tally.fail_checked();
        }
    }
    Ok(())
}

pub fn measure(args: &Args) -> BenchResult<Report> {
    let mut report = Report::default();
    let stream = insert_stream()?;
    let mut setup_s = Samples::new();
    for rep in 0..setup::SETUP_REPS {
        let start = Instant::now();
        let dir = fresh_dir(&args.work_dir, &rep.to_string())?;
        let db = build_database(&dir)?;
        let last = rep + 1 == setup::SETUP_REPS;
        let mut acked = [0u64; 2];
        probe::with_server(&db, ENGINE_THREADS, |addr| {
            warm_up(addr)?;
            setup_s.push(start.elapsed().as_secs_f64());
            if last {
                acked = run_load(args, &db, &stream, addr, &mut report)?;
            }
            Ok(())
        })?;
        if last {
            let rows = (2 * START_ROWS) as u64 + acked.iter().sum::<u64>();
            let bytes = dir_bytes(&dir)?;
            report.line(
                "disk_bytes_per_row",
                Some(bytes as f64 / rows as f64),
                "bytes",
                1,
            );
            let (hits, misses, evictions) = pool_stats(&db);
            report.lines.push(format!(
                "pool: {POOL_PAGES} pages, hits {hits}, misses {misses}, evictions {evictions}"
            ));
            check_durable(db, &dir, acked, &mut report.tally)?;
        } else {
            drop(db);
        }
        std::fs::remove_dir_all(&dir).map_err(err("removing work dir"))?;
    }
    report.gated("setup_s", setup_s.plain_median(), "s", setup_s.len())?;
    let rss = peak_rss_mb().ok_or("peak RSS unavailable")?;
    report.gated("peak_rss_mb", Some(rss), "MiB", 1)?;
    Ok(report)
}

/// The timed interval: the writer inserts the whole stream, spread over
/// `--seconds` by a fixed think time between batches, while the reader
/// reads until the stream is in.  Returns the rows acknowledged per table.
fn run_load(
    args: &Args,
    db: &Database,
    stream: &[Vec<Vec<Value>>],
    addr: std::net::SocketAddr,
    report: &mut Report,
) -> BenchResult<[u64; 2]> {
    let writer_done = AtomicBool::new(false);
    let start = Instant::now();
    let (written, read) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let think = Duration::from_secs(args.seconds) / BATCHES as u32;
            let out = write_stream(addr, stream, think);
            writer_done.store(true, Ordering::Relaxed);
            out
        });
        let reader = s.spawn(|| {
            let mut reader = Reader::connect(addr)?;
            let mut reads = Reads::new(args.seed);
            let mut timeline = Timeline::default();
            let mut tally = Tally::default();
            while !writer_done.load(Ordering::Relaxed) || timeline.len() < MIN_READS {
                if start.elapsed() > setup::MAX_RUN {
                    break;
                }
                let r = reads.next(table_rows(db)?);
                reader.prepare_for(r.template)?;
                match reader.read(&r, None) {
                    Ok((wall, ok)) => {
                        timeline.push(start.elapsed(), setup::ms(wall));
                        tally.record(ok);
                    }
                    Err(e) => {
                        eprintln!("ingest_paged: {r:?} failed: {e}");
                        tally.record(false);
                        reader = Reader::connect(addr)?;
                    }
                }
            }
            BenchResult::Ok((timeline, tally))
        });
        (
            writer
                .join()
                .unwrap_or_else(|_| Err("writer panicked".into())),
            reader
                .join()
                .unwrap_or_else(|_| Err("reader panicked".into())),
        )
    });
    let (acked, insert_ms, write_tally) = written?;
    let (reads, read_tally) = read?;
    report.tally.merge(write_tally);
    report.tally.merge(read_tally);
    let n = reads.len();
    report.gated("queries_per_s", reads.rate(), "1/s", n)?;
    report.gated("query_p50_ms", reads.percentile(50.0), "ms", n)?;
    report.gated("query_p90_ms", reads.percentile(90.0), "ms", n)?;
    report.line(
        "pooled query_p99_ms",
        reads.latencies().percentile(99.0),
        "ms",
        n,
    );
    // Rows per second of insert service time (the think time excluded).
    let rows = acked.iter().sum::<u64>() as f64;
    report.line(
        "insert_rows_per_s",
        Some(rows / (insert_ms.sum() / 1e3)),
        "1/s",
        insert_ms.len(),
    );
    report.line(
        "insert_p99_ms",
        insert_ms.percentile(99.0),
        "ms",
        insert_ms.len(),
    );
    Ok(acked)
}

type WriteLog = ([u64; 2], Samples, Tally);

/// Inserts every batch of `stream` over one connection, closed loop with
/// `think` between a reply and the next batch.
fn write_stream(
    addr: std::net::SocketAddr,
    stream: &[Vec<Vec<Value>>],
    think: Duration,
) -> BenchResult<WriteLog> {
    let mut client = probe::connect(addr, "writer", setup::MODE, ENGINE_THREADS)?;
    let mut acked = [0u64; 2];
    let mut latencies = Samples::new();
    let mut tally = Tally::default();
    for (i, batch) in stream.iter().enumerate() {
        std::thread::sleep(think);
        let t = Instant::now();
        match client.insert(TABLES[i % 2], batch) {
            Ok(n) => {
                latencies.push(setup::ms(t.elapsed()));
                acked[i % 2] += n;
                tally.record(n == batch.len() as u64);
            }
            Err(e) => {
                eprintln!("ingest_paged: insert batch {i} failed: {e}");
                tally.record(false);
            }
        }
    }
    Ok((acked, latencies, tally))
}

/// One step of the traced replay: an insert batch, or a read.
enum Step {
    Insert(usize),
    Read(Read),
}

fn replay_steps(seed: u64) -> Vec<Step> {
    let mut reads = Reads::new(seed);
    let mut steps = Vec::new();
    let mut rows = [START_ROWS as u64; 2];
    for i in 0..BATCHES {
        steps.push(Step::Insert(i));
        rows[i % 2] += BATCH_ROWS as u64;
        if (i + 1) % TRACE_READ_EVERY == 0 {
            steps.push(Step::Read(reads.next(rows)));
        }
    }
    steps
}

pub fn traced(args: &Args) -> BenchResult<Report> {
    let mut report = Report::default();
    let mut values = LayerValues::default();
    let stream = insert_stream()?;
    let steps = replay_steps(args.seed);

    // Untraced pass over a fresh database.
    let dir = fresh_dir(&args.work_dir, "untraced")?;
    let db = build_database(&dir)?;
    let mut walls = Vec::new();
    let mut insert_ms = Samples::new();
    let mut insert_time = Duration::ZERO;
    probe::with_server(&db, ENGINE_THREADS, |addr| {
        warm_up(addr)?;
        let mut writer = probe::connect(addr, "writer", setup::MODE, ENGINE_THREADS)?;
        let mut reader = Reader::connect(addr)?;
        for step in &steps {
            match step {
                Step::Insert(i) => {
                    let t = Instant::now();
                    writer
                        .insert(TABLES[i % 2], &stream[*i])
                        .map_err(err("insert"))?;
                    walls.push(t.elapsed());
                    insert_ms.push(setup::ms(t.elapsed()));
                    insert_time += t.elapsed();
                }
                Step::Read(r) => {
                    reader.prepare_for(r.template)?;
                    walls.push(reader.read(r, None)?.0);
                }
            }
        }
        Ok(())
    })?;
    let rows = (BATCHES * BATCH_ROWS) as f64;
    values.set("e2e.insert_rows_per_s", rows / insert_time.as_secs_f64());
    values.set_opt("e2e.insert_p99_ms", insert_ms.percentile(99.0));
    values.set(
        "e2e.disk_bytes_per_row",
        dir_bytes(&dir)? as f64 / (rows + (2 * START_ROWS) as f64),
    );
    drop(db);
    std::fs::remove_dir_all(&dir).map_err(err("removing work dir"))?;

    // Traced pass over another fresh database.
    let dir = fresh_dir(&args.work_dir, "traced")?;
    let db = build_database(&dir)?;
    let mut tracer = Tracer::new();
    let mut coverage = Coverage::default();
    let mut counters = [TemplateCounters::default(); 2];
    let (mut faulted, mut pruned, mut reads) = (0u64, 0u64, 0u64);
    let mut pool = (0u64, 0u64, 0u64);
    let mut wire_trips = 0u64;
    probe::with_server(&db, ENGINE_THREADS, |addr| {
        warm_up(addr)?;
        let stats_before = db.plan_cache_stats();
        let mut writer = probe::connect(addr, "writer", setup::MODE, ENGINE_THREADS)?;
        let mut reader = Reader::connect(addr)?;
        for (n, (step, wall)) in steps.iter().zip(&walls).enumerate() {
            let request = n as u64 + 1;
            let before = pool_stats(&db);
            let root = match step {
                Step::Insert(i) => {
                    let root = tracer.begin("ingest_paged.insert", None, request);
                    let t = Instant::now();
                    let acked = writer
                        .insert(TABLES[i % 2], &stream[*i])
                        .map_err(err("insert"))?;
                    tracer.add("server.insert_rtt", Some(root), request, t);
                    tracer.end(root);
                    report.tally.record(acked == BATCH_ROWS as u64);
                    root
                }
                Step::Read(r) => {
                    reader.prepare_for(r.template)?;
                    let root = tracer.begin("ingest_paged.read", None, request);
                    let (_, ok) = reader.read(
                        r,
                        Some(Probe {
                            tracer: &mut tracer,
                            parent: root,
                            request,
                        }),
                    )?;
                    tracer.end(root);
                    report.tally.record(ok);
                    wire_trips += 4;
                    root
                }
            };
            let after = pool_stats(&db);
            pool.0 += after.0 - before.0;
            pool.1 += after.1 - before.1;
            pool.2 += after.2 - before.2;
            coverage.add(*wall, &tracer, root);
            if let Step::Read(r) = step {
                // The in-process twin, for the executor and storage
                // counters (not part of the operation's coverage).
                let t = &TEMPLATES[r.template];
                let session = setup::session(
                    &db,
                    t.mode,
                    usize::from(ENGINE_THREADS),
                    StorageBackend::Paged,
                );
                let prepared = session.prepare(t.sql).map_err(err("prepare"))?;
                let params = || Params::new().set(0, r.threshold).k(r.k as usize);
                let iroot = tracer.begin("ingest_paged.inproc_read", None, request);
                probe::inproc_query(
                    &prepared,
                    params(),
                    r.k as usize,
                    false,
                    Some(Probe {
                        tracer: &mut tracer,
                        parent: iroot,
                        request,
                    }),
                )?;
                tracer.end(iroot);
                let c = probe::inproc_counters(&prepared, params(), r.k as usize, false)?;
                counters[r.template].add(&c);
                faulted += c.pages_faulted;
                pruned += c.blocks_pruned;
                reads += 1;
            }
        }
        values.set_plan_cache(stats_before, db.plan_cache_stats());
        Ok(())
    })?;
    drop(db);
    std::fs::remove_dir_all(&dir).map_err(err("removing work dir"))?;

    // In-process replay of the insert stream, for the storage layer alone.
    let dir = fresh_dir(&args.work_dir, "storage")?;
    let db = build_database(&dir)?;
    for (i, batch) in stream.iter().enumerate() {
        let root = tracer.begin("ingest_paged.inproc_insert", None, i as u64 + 1);
        let t = Instant::now();
        db.insert_batch(TABLES[i % 2], batch.clone())
            .map_err(err("insert_batch"))?;
        tracer.add("storage.insert_batch", Some(root), i as u64 + 1, t);
        tracer.end(root);
    }
    drop(db);
    std::fs::remove_dir_all(&dir).map_err(err("removing work dir"))?;

    values.set_span_medians(&tracer);
    for (i, t) in TEMPLATES.iter().enumerate() {
        counters[i].report(t.name, &mut values);
    }
    if reads > 0 {
        let n = reads as f64;
        values.set("storage.pages_faulted_per_query", faulted as f64 / n);
        values.set("storage.blocks_pruned_per_query", pruned as f64 / n);
        values.set("server.round_trips_per_query", wire_trips as f64 / n);
    }
    let (hits, misses, evictions) = pool;
    values.set(
        "storage.pool_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    values.set("storage.pool_evictions", evictions as f64);
    coverage.report(&tracer, &mut values);
    report.lines.extend(crate::layers::span_lines(
        &tracer,
        args.trace_out.as_deref(),
    ));
    values.report("ingest_paged", &mut report.metrics)?;
    Ok(report)
}
