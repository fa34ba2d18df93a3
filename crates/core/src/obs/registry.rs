//! The metric series tables and their lock-free storage.
//!
//! Every series the process exports is declared **statically** in the
//! [`CounterId`] / [`GaugeId`] / [`HistId`] tables below — no runtime
//! registration, no name hashing, no allocation. A record call indexes a
//! fixed array with the enum discriminant and lands on a relaxed atomic;
//! counters are additionally striped across [`N_SHARDS`] cache lines
//! ([`ShardedU64`]) so concurrent pool workers never contend on one
//! line. Folding the stripes back into a single number happens only at
//! snapshot time, off the hot path.
//!
//! Naming convention: `smpx_<subsystem>_<name>_<unit>`, with `_total`
//! suffixed to monotone counters (Prometheus style). Time series store
//! **nanoseconds** internally ([`Unit::Nanos`]) and export seconds.

use super::hist::Histogram;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Stripes per counter: enough that a machine-width pool rarely collides,
/// small enough that the whole registry stays a few KiB of statics.
pub const N_SHARDS: usize = 8;

/// One cache line worth of counter stripe (padded so two stripes never
/// false-share).
#[repr(align(64))]
struct Slot(AtomicU64);

/// A monotone `u64` counter striped across [`N_SHARDS`] cache lines.
///
/// `add` touches exactly one relaxed atomic on the caller's stripe;
/// `get` folds the stripes with relaxed loads. Successive `get`s are
/// monotone (each stripe is monotone and is re-read no earlier), which
/// is what the snapshot consistency tests pin.
pub struct ShardedU64 {
    slots: [Slot; N_SHARDS],
}

/// Round-robin stripe assignment: each thread picks its stripe once, on
/// first use, and keeps it for life.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % N_SHARDS;
}

impl ShardedU64 {
    /// A zeroed counter (const so whole registries can live in statics).
    pub const fn new() -> ShardedU64 {
        // Const-init template for the array below, never read as a
        // shared constant — the interior-mutability lint does not apply.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: Slot = Slot(AtomicU64::new(0));
        ShardedU64 { slots: [ZERO; N_SHARDS] }
    }

    /// Bump this thread's stripe by `n` (relaxed; never blocks).
    #[inline]
    pub fn add(&self, n: u64) {
        let idx = SHARD.with(|s| *s);
        self.slots[idx].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Fold the stripes into the counter's current value.
    pub fn get(&self) -> u64 {
        self.slots.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

impl Default for ShardedU64 {
    fn default() -> Self {
        ShardedU64::new()
    }
}

/// The unit a series stores its raw `u64` in. Time series store
/// nanoseconds and are scaled to seconds at export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A plain event or item count.
    Count,
    /// Bytes.
    Bytes,
    /// Nanoseconds (exported as seconds).
    Nanos,
}

impl Unit {
    /// Scale a raw stored value to the exported magnitude.
    pub fn scale(self, raw: u64) -> f64 {
        match self {
            Unit::Count | Unit::Bytes => raw as f64,
            Unit::Nanos => raw as f64 / 1e9,
        }
    }
}

/// The static definition of one exported series.
#[derive(Debug, Clone, Copy)]
pub struct SeriesDef {
    /// Exposition name (`smpx_<subsystem>_<name>_<unit>`).
    pub name: &'static str,
    /// Storage unit of the raw value.
    pub unit: Unit,
    /// One-line help string for the exposition `# HELP` comment.
    pub help: &'static str,
}

macro_rules! define_counters {
    ($( $variant:ident => $name:literal, $unit:ident, $help:literal; )+) => {
        /// Identifier of one process-wide **counter** series (monotone,
        /// fold rule: *sum*).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum CounterId {
            $( #[doc = $help] $variant, )+
        }

        /// Every counter series, in exposition order.
        pub const ALL_COUNTERS: &[CounterId] = &[ $( CounterId::$variant, )+ ];

        impl CounterId {
            /// Number of registered counter series.
            pub const COUNT: usize = ALL_COUNTERS.len();

            /// The series' static definition.
            pub const fn def(self) -> SeriesDef {
                match self {
                    $( CounterId::$variant =>
                        SeriesDef { name: $name, unit: Unit::$unit, help: $help }, )+
                }
            }
        }
    };
}

macro_rules! define_gauges {
    ($( $variant:ident => $name:literal, $unit:ident, $help:literal; )+) => {
        /// Identifier of one process-wide **gauge** series (set or
        /// max-folded, never summed).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum GaugeId {
            $( #[doc = $help] $variant, )+
        }

        /// Every gauge series, in exposition order.
        pub const ALL_GAUGES: &[GaugeId] = &[ $( GaugeId::$variant, )+ ];

        impl GaugeId {
            /// Number of registered gauge series.
            pub const COUNT: usize = ALL_GAUGES.len();

            /// The series' static definition.
            pub const fn def(self) -> SeriesDef {
                match self {
                    $( GaugeId::$variant =>
                        SeriesDef { name: $name, unit: Unit::$unit, help: $help }, )+
                }
            }
        }
    };
}

macro_rules! define_hists {
    ($( $variant:ident => $name:literal, $unit:ident, $bounds:expr, $help:literal; )+) => {
        /// Identifier of one process-wide **histogram** series
        /// (fixed-bucket; the `+Inf` bucket is implicit).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum HistId {
            $( #[doc = $help] $variant, )+
        }

        /// Every histogram series, in exposition order.
        pub const ALL_HISTS: &[HistId] = &[ $( HistId::$variant, )+ ];

        impl HistId {
            /// Number of registered histogram series.
            pub const COUNT: usize = ALL_HISTS.len();

            /// The series' static definition.
            pub const fn def(self) -> SeriesDef {
                match self {
                    $( HistId::$variant =>
                        SeriesDef { name: $name, unit: Unit::$unit, help: $help }, )+
                }
            }

            /// The series' upper bucket bounds, in the storage unit,
            /// ascending; observations above the last bound land in the
            /// implicit `+Inf` bucket.
            pub const fn bounds(self) -> &'static [u64] {
                match self {
                    $( HistId::$variant => $bounds, )+
                }
            }
        }
    };
}

define_counters! {
    // -- per-run accounting (RunStats folded at end of run) ------------
    RunRuns => "smpx_run_runs_total", Count,
        "Prefilter runs completed (documents, shard fallbacks included).";
    RunInputBytes => "smpx_run_input_bytes_total", Bytes,
        "Input bytes across all runs.";
    RunOutputBytes => "smpx_run_output_bytes_total", Bytes,
        "Projected output bytes across all runs.";
    RunCharsCompared => "smpx_run_chars_compared_total", Count,
        "Characters inspected by genuine pattern comparisons.";
    RunBytesScanned => "smpx_run_bytes_scanned_total", Bytes,
        "Bytes consumed by skip-scans and tag/balanced traversal.";
    RunShifts => "smpx_run_shifts_total", Count,
        "Forward shifts performed by the matchers.";
    RunShiftChars => "smpx_run_shift_chars_total", Count,
        "Sum of shift sizes in characters.";
    RunInitialJumpChars => "smpx_run_initial_jump_chars_total", Count,
        "Characters skipped by initial jump offsets.";
    RunTokensMatched => "smpx_run_tokens_matched_total", Count,
        "Tokens matched and processed.";
    RunFalseMatches => "smpx_run_false_matches_total", Count,
        "Keyword matches rejected by the tag-name boundary check.";
    RunMatchEvents => "smpx_run_match_events_total", Count,
        "Transitions into potential-match states.";
    RunShardSegments => "smpx_run_shard_segments_total", Count,
        "Stitched segments of intra-document sharded runs.";
    // -- work-stealing pool --------------------------------------------
    PoolTasks => "smpx_pool_tasks_total", Count,
        "Tasks executed by pool workers.";
    PoolSteals => "smpx_pool_steals_total", Count,
        "Successful steals of a sibling deque's FIFO half.";
    PoolParks => "smpx_pool_parks_total", Count,
        "Times an empty-handed worker parked on the idle condvar.";
    PoolWakes => "smpx_pool_wakes_total", Count,
        "Work-available wake broadcasts after a local requeue or steal.";
    PoolBusyNanos => "smpx_pool_busy_seconds_total", Nanos,
        "Wall-clock time pool workers spent executing tasks.";
    // -- document sources ----------------------------------------------
    SourceReadBytes => "smpx_source_read_bytes_total", Bytes,
        "Bytes delivered by the chunked streaming reader.";
    SourceMmapBytes => "smpx_source_mmap_bytes_total", Bytes,
        "Bytes delivered by memory-mapped (or slurped) file sources.";
    // -- dynamic query lifecycle ---------------------------------------
    LifecycleCompiles => "smpx_lifecycle_compiles_total", Count,
        "Workload recompiles attempted by the lifecycle compiler thread.";
    LifecycleCompileNanos => "smpx_lifecycle_compile_seconds_total", Nanos,
        "Wall-clock time spent in lifecycle workload recompiles.";
    LifecycleBurstEdits => "smpx_lifecycle_burst_edits_total", Count,
        "Query edits drained by lifecycle recompiles (coalesced bursts).";
    LifecycleFailedPublishes => "smpx_lifecycle_failed_publishes_total", Count,
        "Lifecycle recompiles that failed (previous generation kept serving).";
    // -- intra-document sharding ---------------------------------------
    ShardRuns => "smpx_shard_runs_total", Count,
        "Sharded runs that found a record loop and actually split.";
    ShardFallbacks => "smpx_shard_fallbacks_total", Count,
        "Sharded runs that fell back to the sequential path.";
    ShardSpeculationHits => "smpx_shard_speculation_hits_total", Count,
        "Speculative shards spliced at the confirmed frontier.";
    ShardRepairs => "smpx_shard_repairs_total", Count,
        "Sequential repair runs around speculation misses.";
    // -- stage timers ---------------------------------------------------
    StageCompileNanos => "smpx_stage_compile_seconds_total", Nanos,
        "Wall-clock time spent compiling automatons.";
    StageCompileEvents => "smpx_stage_compile_events_total", Count,
        "Automaton compiles timed.";
    StageScanNanos => "smpx_stage_scan_seconds_total", Nanos,
        "Wall-clock time spent in sequential document scans.";
    StageScanEvents => "smpx_stage_scan_events_total", Count,
        "Sequential document scans timed.";
    StageIoWaitNanos => "smpx_stage_io_wait_seconds_total", Nanos,
        "Wall-clock time the scan thread blocked on synchronous reads.";
    StageIoWaitEvents => "smpx_stage_io_wait_events_total", Count,
        "Synchronous read waits timed.";
    StageStitchNanos => "smpx_stage_stitch_seconds_total", Nanos,
        "Wall-clock time spent stitching sharded-run segments.";
    StageStitchEvents => "smpx_stage_stitch_events_total", Count,
        "Sharded-run stitch phases timed.";
    StageRepairNanos => "smpx_stage_repair_seconds_total", Nanos,
        "Wall-clock time spent in sequential shard repair runs.";
    StageRepairEvents => "smpx_stage_repair_events_total", Count,
        "Shard repair runs timed.";
    StageSwapNanos => "smpx_stage_swap_seconds_total", Nanos,
        "Wall-clock time spent publishing lifecycle generations.";
    StageSwapEvents => "smpx_stage_swap_events_total", Count,
        "Lifecycle generation publishes timed.";
}

define_gauges! {
    RunIoWindowBytesPeak => "smpx_run_io_window_bytes_peak", Bytes,
        "Peak owned I/O-window bytes any single run allocated (max-folded).";
    PoolWorkers => "smpx_pool_workers", Count,
        "Worker width of the most recent pool run.";
    PoolQueueDepthPeak => "smpx_pool_queue_depth_peak", Count,
        "Peak injector queue depth at batch submission (max-folded).";
    LifecycleGeneration => "smpx_lifecycle_generation", Count,
        "Generation number of the currently published lifecycle automaton.";
}

define_hists! {
    LifecycleCompileLatency => "smpx_lifecycle_compile_latency_seconds", Nanos,
        // 1ms .. 4s, exponential.
        &[1_000_000, 4_000_000, 16_000_000, 64_000_000, 250_000_000,
          1_000_000_000, 4_000_000_000],
        "Latency distribution of lifecycle workload recompiles.";
    LifecycleBurstSize => "smpx_lifecycle_burst_edits", Count,
        &[1, 2, 4, 8, 16, 32, 64],
        "Edits coalesced into one lifecycle recompile.";
    ShardSegments => "smpx_shard_segments", Count,
        &[1, 2, 4, 8, 16, 32, 64, 128],
        "Stitched segments per intra-document sharded run.";
}

/// The process-wide metric store: one slot per declared series, all
/// const-constructible so the global registry is a zero-init static.
///
/// The registry itself is **always on** — whether a record call happens
/// at all is the caller's decision (the [`crate::obs`] free functions
/// gate on the process-wide enable flag; `smpxd` or tests may drive an
/// owned registry directly).
pub struct MetricsRegistry {
    counters: [ShardedU64; CounterId::COUNT],
    gauges: [AtomicU64; GaugeId::COUNT],
    histograms: [Histogram; HistId::COUNT],
}

impl MetricsRegistry {
    /// An all-zero registry.
    pub const fn new() -> MetricsRegistry {
        // Const-init templates for the arrays below, never read as
        // shared constants — the interior-mutability lint does not apply.
        #[allow(clippy::declare_interior_mutable_const)]
        const C: ShardedU64 = ShardedU64::new();
        #[allow(clippy::declare_interior_mutable_const)]
        const G: AtomicU64 = AtomicU64::new(0);
        #[allow(clippy::declare_interior_mutable_const)]
        const H: Histogram = Histogram::new();
        MetricsRegistry {
            counters: [C; CounterId::COUNT],
            gauges: [G; GaugeId::COUNT],
            histograms: [H; HistId::COUNT],
        }
    }

    /// Bump counter `id` by `n` (relaxed, striped; never blocks).
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        self.counters[id as usize].add(n);
    }

    /// The current folded value of counter `id`.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize].get()
    }

    /// Set gauge `id` to `v` (last write wins).
    #[inline]
    pub fn gauge_set(&self, id: GaugeId, v: u64) {
        self.gauges[id as usize].store(v, Ordering::Relaxed);
    }

    /// Raise gauge `id` to at least `v` (max fold).
    #[inline]
    pub fn gauge_max(&self, id: GaugeId, v: u64) {
        self.gauges[id as usize].fetch_max(v, Ordering::Relaxed);
    }

    /// The current value of gauge `id`.
    pub fn gauge(&self, id: GaugeId) -> u64 {
        self.gauges[id as usize].load(Ordering::Relaxed)
    }

    /// Record one observation `v` (in the series' storage unit) into
    /// histogram `id`.
    #[inline]
    pub fn observe(&self, id: HistId, v: u64) {
        self.histograms[id as usize].observe(id.bounds(), v);
    }

    /// Read access for snapshotting.
    pub(super) fn histogram(&self, id: HistId) -> &Histogram {
        &self.histograms[id as usize]
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::super::hist::MAX_BUCKETS;
    use super::*;

    #[test]
    fn sharded_counter_folds_across_threads() {
        let c = ShardedU64::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn every_series_name_is_unique_and_conventional() {
        let mut names: Vec<&str> = ALL_COUNTERS
            .iter()
            .map(|c| c.def().name)
            .chain(ALL_GAUGES.iter().map(|g| g.def().name))
            .chain(ALL_HISTS.iter().map(|h| h.def().name))
            .collect();
        for n in &names {
            assert!(n.starts_with("smpx_"), "{n}: must carry the smpx_ prefix");
            assert!(
                n.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
                "{n}: exposition names are snake_case ascii"
            );
        }
        for c in ALL_COUNTERS {
            let name = c.def().name;
            assert!(name.ends_with("_total"), "{name}: counters end in _total");
            if c.def().unit == Unit::Nanos {
                assert!(name.ends_with("_seconds_total"), "{name}: time counters export seconds");
            }
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate series name");
    }

    #[test]
    fn histogram_bounds_are_ascending_and_fit() {
        for h in ALL_HISTS {
            let bounds = h.bounds();
            assert!(!bounds.is_empty());
            assert!(bounds.len() < MAX_BUCKETS, "{}: too many buckets", h.def().name);
            assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{}: bounds ascend", h.def().name);
        }
    }

    #[test]
    fn gauge_set_and_max_fold() {
        let r = MetricsRegistry::new();
        r.gauge_set(GaugeId::PoolWorkers, 4);
        r.gauge_set(GaugeId::PoolWorkers, 2);
        assert_eq!(r.gauge(GaugeId::PoolWorkers), 2, "set is last-write-wins");
        r.gauge_max(GaugeId::RunIoWindowBytesPeak, 100);
        r.gauge_max(GaugeId::RunIoWindowBytesPeak, 50);
        assert_eq!(r.gauge(GaugeId::RunIoWindowBytesPeak), 100, "max fold never lowers");
    }

    #[test]
    fn unit_scaling() {
        assert_eq!(Unit::Count.scale(7), 7.0);
        assert_eq!(Unit::Bytes.scale(1024), 1024.0);
        assert!((Unit::Nanos.scale(1_500_000_000) - 1.5).abs() < 1e-12);
    }
}
