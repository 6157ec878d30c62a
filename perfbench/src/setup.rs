//! Pinned engine settings, seeded randomness and data generation shared by
//! the workloads.
//!
//! Every engine setting the benchmark depends on is set here explicitly,
//! so neither the environment nor a changed engine default can change what
//! is measured: plan mode, thread counts (never 0, which would inherit
//! `RANKSQL_THREADS`), batch and morsel size, backend, buffer-pool pages,
//! and the optimizer's sample ratio and seed.

use std::time::Duration;

use ranksql::expr::RankPredicate;
use ranksql::optimizer::OptimizerConfig;
use ranksql::storage::{Catalog, ScoreIndex};
use ranksql::workload::{SyntheticConfig, SyntheticWorkload};
use ranksql::{Database, OptimizerMode, PlanMode, Session, StorageBackend};

/// Plan mode of every query unless a workload names another.
pub const MODE: PlanMode = PlanMode::RankAware;
/// Tuples per batched pull.
pub const BATCH_SIZE: usize = 1024;
/// Base-table rows per parallel morsel.
pub const MORSEL_SIZE: usize = 4096;
/// The optimizer's sampling ratio and sampling seed.
pub const SAMPLE_RATIO: f64 = 0.01;
pub const OPTIMIZER_SEED: u64 = 0xC0FFEE;
/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

pub type BenchResult<T> = Result<T, String>;

/// Converts any displayable error into the benchmark's error string.
pub fn err<E: std::fmt::Display>(context: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// The optimizer configuration every database is built with.
pub fn optimizer_config() -> OptimizerConfig {
    OptimizerConfig {
        mode: OptimizerMode::RankAwareHeuristic,
        sample_ratio: SAMPLE_RATIO,
        seed: OPTIMIZER_SEED,
        compare_with_traditional: true,
        fuse_mu_chains: false,
    }
}

/// Databases opened from a directory take the engine's default optimizer
/// configuration; refuse to run if it differs from the pinned one.
pub fn check_default_optimizer_config() -> BenchResult<()> {
    let d = OptimizerConfig::default();
    let p = optimizer_config();
    if d.sample_ratio != p.sample_ratio
        || d.seed != p.seed
        || d.compare_with_traditional != p.compare_with_traditional
        || d.fuse_mu_chains != p.fuse_mu_chains
    {
        return Err(format!(
            "the engine's default optimizer configuration changed ({d:?}); \
             pin it for paged databases before comparing runs"
        ));
    }
    Ok(())
}

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A session with every execution setting pinned.
pub fn session(
    db: &Database,
    mode: PlanMode,
    threads: usize,
    backend: StorageBackend,
) -> Session<'_> {
    db.session()
        .with_mode(mode)
        .with_threads(threads.max(1))
        .with_batch_size(BATCH_SIZE)
        .with_morsel_size(MORSEL_SIZE)
        .with_storage_backend(backend)
}

/// An in-memory database with the pinned optimizer configuration and
/// default session settings matching [`session`] (used where the
/// benchmark opens cursors over hand-planned physical plans).
pub fn memory_database(threads: usize, backend: StorageBackend) -> Database {
    #[allow(deprecated)] // the default threads of cursors over explicit plans
    let db = Database::with_optimizer_config(optimizer_config())
        .with_storage_backend(backend)
        .with_threads(threads.max(1));
    db
}

/// The seed of every table's contents: the generator's own default, so
/// that all seeds of a workload plan and run against the same tables and
/// `--seed` varies only the operation sequence.  (Table contents decide
/// which plans the optimizer picks; with seeded tables, run-to-run spread
/// came from plan choice rather than from the code under test.)
pub fn data_seed() -> u64 {
    SyntheticConfig::default().seed
}

/// The paper's Section 6 tables A, B and C at `table_size` rows, with the
/// join selectivity of `SyntheticConfig::small`.
pub fn synthetic(table_size: usize) -> BenchResult<SyntheticWorkload> {
    SyntheticWorkload::generate(SyntheticConfig {
        seed: data_seed(),
        build_indexes: false,
        ..SyntheticConfig::small(table_size)
    })
    .map_err(err("generating synthetic tables"))
}

/// Copies tables `names` of `src` into `db` (schema and rows).
pub fn copy_tables(src: &Catalog, db: &Database, names: &[&str]) -> BenchResult<()> {
    for name in names {
        let table = src.table(name).map_err(err("source table"))?;
        let schema = ranksql::Schema::new(
            table
                .schema()
                .fields()
                .iter()
                .map(|f| ranksql::Field::new(f.name.clone(), f.data_type))
                .collect(),
        );
        db.create_table(name, schema).map_err(err("create table"))?;
        db.insert_batch(name, table.scan().into_iter().map(|t| t.values().to_vec()))
            .map_err(err("load table"))?;
    }
    Ok(())
}

/// Builds a score index for every ranking predicate of the A and B
/// templates (`f1`..`f4`), as the paper's plans assume.
pub fn add_score_indexes(db: &Database) -> BenchResult<()> {
    for (name, column, table) in [
        ("f1", "A.p1", "A"),
        ("f2", "A.p2", "A"),
        ("f3", "B.p1", "B"),
        ("f4", "B.p2", "B"),
    ] {
        let t = db.catalog().table(table).map_err(err("table"))?;
        let pred = RankPredicate::attribute_with_cost(name, column, 1);
        let index = ScoreIndex::build(&pred, t.schema(), &t.scan()).map_err(err("score index"))?;
        t.add_score_index(index);
    }
    Ok(())
}

/// SplitMix64: a small seeded generator, so every draw of the benchmark
/// is a function of `--seed` alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// True with probability `1/n`.
    pub fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// Draws items from shuffled copies of a fixed list, so every stretch of
/// `items.len()` draws holds each item once: shares stay exact however
/// short the run.
#[derive(Debug, Clone)]
pub struct Deck<T> {
    items: Vec<T>,
    left: Vec<T>,
}

impl<T: Copy> Deck<T> {
    pub fn new(items: &[T]) -> Self {
        Deck {
            items: items.to_vec(),
            left: Vec::new(),
        }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> T {
        if self.left.is_empty() {
            self.left = self.items.clone();
            for i in (1..self.left.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                self.left.swap(i, j);
            }
        }
        self.left.pop().expect("refilled above")
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Longest a timed interval may run while waiting for its sample floor.
pub const MAX_RUN: Duration = Duration::from_secs(120);

/// Sleeps until `seconds` have passed since `start` and `enough()` holds,
/// or [`MAX_RUN`] has passed.
pub fn wait_until(start: std::time::Instant, seconds: u64, enough: impl Fn() -> bool) {
    let target = Duration::from_secs(seconds);
    while (start.elapsed() < target || !enough()) && start.elapsed() < MAX_RUN {
        std::thread::sleep(Duration::from_millis(10));
    }
}
