//! The repository's one benchmark.
//!
//! Each workload runs from one process at threads = nproc, checks every
//! output against an oracle, and returns a [`Report`]. With tracing off the
//! report carries the end-to-end metrics; with tracing on it carries the
//! per-layer metrics, taken by timing calls into each layer's public
//! functions from this package (the library crates are not instrumented).
//! See `README.md` in this directory for the workloads and the layer map.

pub mod calls;
pub mod check;
pub mod env;
pub mod layers;
pub mod merge_large;
pub mod report;
pub mod setup;
pub mod sort_keyed;
pub mod stats;
pub mod tcp;

pub use check::Checker;
pub use report::Report;

/// The named workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Parallel merge of two 2^25-element sorted uniform `u32` arrays.
    MergeLarge,
    /// Parallel stable sort of 2^22 keyed, duplicate-heavy records.
    SortKeyed,
    /// Small merges over TCP: a light phase and a saturated phase.
    TcpSmall,
    /// Bulk sorts beside interactive merges over TCP.
    TcpMixed,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::MergeLarge,
        Workload::SortKeyed,
        Workload::TcpSmall,
        Workload::TcpMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MergeLarge => "merge_large",
            Workload::SortKeyed => "sort_keyed",
            Workload::TcpSmall => "tcp_small",
            Workload::TcpMixed => "tcp_mixed",
        }
    }

    /// Parses a [`name`](Self::name).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes and fixed counts. [`Scale::full`] is the benchmark;
/// [`Scale::smoke`] runs the same code paths at small sizes for the
/// self-tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Elements per side of the merge_large merge.
    pub merge_side: usize,
    /// Records sorted by sort_keyed.
    pub sort_len: usize,
    /// Keys per side of one small TCP merge request.
    pub small_keys: usize,
    /// Distinct pre-encoded small merge frames.
    pub small_frames: usize,
    /// Keys of one bulk TCP sort request.
    pub bulk_keys: usize,
    /// Distinct pre-encoded bulk sort frames.
    pub bulk_frames: usize,
    /// Set-ups per run of merge_large and sort_keyed, each in a fresh
    /// process (see [`setup`]); `setup_s` is their median.
    pub fresh_setups: usize,
    /// Warm-up ops per set-up of merge_large and sort_keyed.
    pub warmup_ops: usize,
    /// Set-ups (daemons) per TCP run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Warm-up small requests per connection per TCP set-up.
    pub warmup_requests: usize,
    /// Warm-up bulk sorts per TCP set-up of tcp_mixed.
    pub warmup_bulk: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Scale {
            merge_side: 1 << 25,
            sort_len: 1 << 22,
            small_keys: 512,
            small_frames: 256,
            bulk_keys: 1 << 16,
            bulk_frames: 16,
            fresh_setups: 9,
            warmup_ops: 2,
            setup_reps: 5,
            warmup_requests: 200,
            warmup_bulk: 4,
        }
    }

    /// Small sizes for the self-tests: same code paths, seconds not minutes.
    pub fn smoke() -> Self {
        Scale {
            merge_side: 1 << 12,
            sort_len: 1 << 12,
            small_keys: 64,
            small_frames: 8,
            bulk_keys: 1 << 10,
            bulk_frames: 4,
            fresh_setups: 2,
            warmup_ops: 1,
            setup_reps: 2,
            warmup_requests: 4,
            warmup_bulk: 1,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Input seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Measured seconds (set-up and input generation excluded).
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Sizes.
    pub scale: Scale,
    /// Corrupt one output element before its oracle check, to prove the
    /// check counts it as failed (self-tests only).
    pub corrupt: bool,
    /// This benchmark's program, run again for each set-up of merge_large
    /// and sort_keyed (see [`setup`]).
    pub exe: std::path::PathBuf,
}

/// Runs one workload.
pub fn run(opts: &Opts) -> Report {
    match opts.workload {
        Workload::MergeLarge => merge_large::run(opts),
        Workload::SortKeyed => sort_keyed::run(opts),
        Workload::TcpSmall => tcp::run_small(opts),
        Workload::TcpMixed => tcp::run_mixed(opts),
    }
}

/// Parallelism of the machine: every workload runs at this thread count.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Calls `op` until `seconds` have passed and it has run at least
/// `min_ops` times; returns how many times it ran.
pub fn repeat_for(seconds: f64, min_ops: usize, mut op: impl FnMut()) -> usize {
    let start = std::time::Instant::now();
    let mut ops = 0;
    while ops < min_ops || start.elapsed().as_secs_f64() < seconds {
        op();
        ops += 1;
    }
    ops
}
