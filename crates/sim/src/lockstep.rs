//! Lock-step multi-design kernel: K designs advance through the same
//! trace reference together, sharing one L1 front end per lane group.
//!
//! The fan-out engine (see [`crate::fanout`]) already generates the
//! trace once per sweep, but it still *simulates* scalar: every design
//! re-filters every reference through its own L1 pair and retires it
//! through its own core loop, even though the L1 configuration is
//! identical across the sweep. This module flips the loop order and
//! removes that multiplier:
//!
//! * **Shared front end** ([`FrontEnd`]): the L1 filter decision is
//!   *time-independent* — replacement state ([`moca_cache`] LRU) never
//!   reads the access timestamp, so hit/miss, victim choice, and the
//!   demand/writeback requests produced for a reference are a pure
//!   function of the access sequence, not of any design's clock. One
//!   front end therefore filters each chunk once per lane group and
//!   every design lane replays the same [`FilteredChunk`].
//! * **Filtered-chunk memo** ([`FilteredMemo`]): the filtered stream
//!   does not depend on the L2 design either, so front ends read their
//!   chunks through one bounded process-wide memo. A lane group whose
//!   stream another group already filtered pays only L2 replay (see
//!   [`crate::memo`]).
//! * **Event replay** ([`LockStep`]): a lane only touches its L2 at the
//!   L2-visible events of the chunk. The (dominant) runs of pure L1
//!   hits between events are retired in O(1) by the closed-form
//!   [`crate::cpu::InOrderCore::retire_many`], at each lane's *own*
//!   local time — so per-design timestamps, stalls, leakage windows and
//!   expiry decisions are bit-identical to a scalar run.
//!
//! Lanes are laid out design-major: within a lane group the per-design
//! state (`System`s, wall clocks, failure slots) sits side-by-side in
//! flat arrays indexed by lane. Replay is block-major: the front end
//! fills a block of up to `BLOCK_CHUNKS` filtered chunks, then each lane
//! replays the whole block before the next lane starts, so a lane's L2
//! state (about 1.6 MB at the default geometry) stays in the host cache
//! for a block instead of being evicted by the other lanes after every
//! chunk. Lanes share no state, so the order lanes and chunks are
//! interleaved in never shows in a report.
//!
//! # Determinism
//!
//! Every report is **byte-identical** to a sequential
//! [`run_app`](crate::workloads::run_app) of the same design: the L1
//! counts are the front end's (identical by construction, adopted into
//! each lane before [`System::finish`]); the L2/DRAM interactions happen
//! at the same per-lane cycles with the same requests. A memoized chunk
//! is the chunk a miss would have filtered, so memo state never shows
//! (`crates/sim/tests/filtered_memo.rs`). The cross-engine
//! differential suites (`crates/sim/tests/lockstep_differential.rs`,
//! `lockstep_props.rs`) pin this against both the scalar oracle and the
//! retained broadcast engine ([`crate::fanout::FanOut::run_broadcast`]).

use std::sync::Arc;
use std::time::Instant;

use moca_cache::stats::CacheStats;
use moca_cache::{CacheGeometry, L1Pair, L2Request, ReplacementPolicy};
use moca_core::L2Design;
use moca_trace::AppProfile;

use crate::cancel::{CancelToken, Cancelled};
use crate::config::SystemConfig;
use crate::error::{PointCause, SweepPointError};
use crate::fanout::{TraceStream, ARENA_CHUNK};
use crate::memo::{FilteredMemo, MemoKey};
use crate::metrics::SimReport;
use crate::parallel::catch_panic;
use crate::system::{BuildSystemError, System};
use crate::telemetry::{self, Event};

/// Filtered chunks a lane group's front end hands out before its lanes
/// replay them: 1,048,576 references, one quick-scale stream.
///
/// The block is `Arc`s of chunks, so a memoized stream costs no memory
/// beyond the memo's; a stream read once holds at most one block (a few
/// MB) per lane group.
const BLOCK_CHUNKS: usize = 128;

/// `Err(Cancelled)` once `cancel` (when given) has tripped.
fn poll(cancel: Option<&CancelToken>) -> Result<(), Cancelled> {
    match cancel {
        Some(token) if token.is_cancelled() => Err(Cancelled),
        _ => Ok(()),
    }
}

/// Default number of design lanes sharing one front-end filter pass.
///
/// Eight matches the widest sweeps in the experiment suite; pools larger
/// than the width run as consecutive lane groups, each with its own
/// front end over the memoized filtered stream.
pub const LANE_GROUP: usize = 8;

/// One L2-visible event of a filtered chunk: the demand miss (and the
/// dirty-victim writeback it may carry) plus the run of pure L1 hits
/// that preceded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneEvent {
    /// Pure-L1-hit references retired before this event's reference.
    pub gap: u32,
    /// The demand request of the L1 miss (every event is a miss).
    pub demand: L2Request,
    /// Writeback of a dirty L1 victim, if the miss evicted one.
    pub writeback: Option<L2Request>,
}

/// One chunk of the shared stream after L1 filtering: the L2-visible
/// events in order, the trailing run of hits, and the merged L1
/// statistics of the stream up to and including this chunk.
///
/// Immutable once filtered and shared as an `Arc`, so every lane of
/// every lane group that reads it from the [`FilteredMemo`] replays the
/// same copy.
#[derive(Debug)]
pub struct FilteredChunk {
    refs: u32,
    tail: u32,
    events: Box<[LaneEvent]>,
    l1_stats: CacheStats,
}

impl FilteredChunk {
    /// References this chunk represents (events + every gap + tail).
    pub fn refs(&self) -> usize {
        self.refs as usize
    }

    /// The L2-visible events, in reference order.
    pub fn events(&self) -> &[LaneEvent] {
        &self.events
    }

    /// Pure-L1-hit references after the last event.
    pub fn tail_gap(&self) -> usize {
        self.tail as usize
    }

    /// The L1 pair's merged I+D statistics after this chunk — what a
    /// scalar run that stops here reports as `l1_stats`.
    pub fn l1_stats(&self) -> CacheStats {
        self.l1_stats
    }

    /// Bytes this chunk occupies (its weight in the memo bound).
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of::<Self>() + std::mem::size_of_val(&*self.events)
    }
}

/// The shared front end of one lane group: it hands out the `(app,
/// seed)` stream chunk by chunk after L1 filtering, once for all lanes.
///
/// Each chunk is looked up in the [`FilteredMemo`] first; a hit touches
/// no raw chunk and does no L1 work. On a miss, the live L1 pair and the
/// raw stream catch up from wherever they stopped — filtering, and
/// discarding, the chunks earlier hits skipped — then filter the chunk
/// and offer it to the memo. The L1 pair is built on the first miss, so
/// a front end served entirely from the memo never builds one.
#[derive(Debug)]
pub struct FrontEnd<'a> {
    /// Memo consulted before filtering; `None` for a read-once stream.
    memo: Option<&'a FilteredMemo>,
    /// Raw reads: the global arena and registry, never filling the arena.
    stream: TraceStream<'a>,
    seed: u64,
    l1i: CacheGeometry,
    l1d: CacheGeometry,
    /// The live L1 pair, positioned at `stream`'s cursor.
    l1: Option<L1Pair>,
    /// References filtered so far. Doubles as the timestamp handed to the
    /// L1 — any monotone stamp works, because L1 decisions and statistics
    /// are time-independent (timestamps land only in cold metadata that
    /// never reaches a report).
    filtered: u64,
    /// Index of the next chunk to hand out.
    next: u32,
    /// Chunks handed out from the memo.
    memo_hits: u64,
    /// Chunks this front end filtered itself (every chunk of a
    /// read-once stream).
    memo_misses: u64,
    /// L1 statistics after the last chunk handed out.
    l1_stats: CacheStats,
    /// Event buffer reused across misses.
    scratch: Vec<LaneEvent>,
}

impl<'a> FrontEnd<'a> {
    /// A front end over the `(app, seed)` stream with `cfg`'s L1 pair,
    /// reading through the global [`FilteredMemo`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildSystemError`] if an L1 geometry is inconsistent
    /// (the same validation [`System::new`] applies).
    pub fn new(
        app: &'a AppProfile,
        seed: u64,
        cfg: &SystemConfig,
    ) -> Result<Self, BuildSystemError> {
        Self::with_memo(app, seed, cfg, Some(FilteredMemo::global()))
    }

    /// [`FrontEnd::new`] reading through `memo`, or filtering every chunk
    /// itself (neither looking up nor inserting) when `memo` is `None`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildSystemError`] if an L1 geometry is inconsistent.
    pub fn with_memo(
        app: &'a AppProfile,
        seed: u64,
        cfg: &SystemConfig,
        memo: Option<&'a FilteredMemo>,
    ) -> Result<Self, BuildSystemError> {
        Ok(FrontEnd {
            memo,
            stream: TraceStream::non_caching(app, seed),
            seed,
            l1i: cfg.l1i_geometry()?,
            l1d: cfg.l1d_geometry()?,
            l1: None,
            filtered: 0,
            next: 0,
            memo_hits: 0,
            memo_misses: 0,
            l1_stats: CacheStats::new(),
            scratch: Vec::new(),
        })
    }

    /// The L1 pair's merged statistics after every chunk handed out so
    /// far (adopted by every lane before `finish`).
    pub fn l1_stats(&self) -> CacheStats {
        self.l1_stats
    }

    /// `(memo hits, memo misses)` over every chunk handed out so far; a
    /// read-once front end counts every chunk as a miss.
    pub(crate) fn memo_counts(&self) -> (u64, u64) {
        (self.memo_hits, self.memo_misses)
    }

    /// The next chunk of the filtered stream, cut at `limit` references.
    ///
    /// The cut is what keeps the L1 statistics exact for runs that end
    /// mid-chunk; such a partial chunk is memoized under its own key.
    pub fn fill_next(&mut self, limit: usize) -> Arc<FilteredChunk> {
        let refs = ARENA_CHUNK.min(limit) as u32;
        let key = MemoKey {
            source: self.stream.source_fingerprint(),
            seed: self.seed,
            l1i: self.l1i,
            l1d: self.l1d,
            chunk: self.next,
            refs,
        };
        let chunk = match self.memo.and_then(|memo| memo.get(&key)) {
            Some(hit) => {
                self.memo_hits += 1;
                hit
            }
            None => {
                self.memo_misses += 1;
                let chunk = Arc::new(self.filter(refs as usize));
                if let Some(memo) = self.memo {
                    memo.insert(key, &chunk);
                }
                chunk
            }
        };
        debug_assert_eq!(chunk.refs(), refs as usize, "memo key {key:?}");
        self.next += 1;
        self.l1_stats = chunk.l1_stats;
        chunk
    }

    /// Filters the first `refs` references of chunk `self.next` through
    /// the live L1, after catching it (and the raw stream) up to the
    /// chunk.
    fn filter(&mut self, refs: usize) -> FilteredChunk {
        let (l1i, l1d) = (self.l1i, self.l1d);
        let l1 = self
            .l1
            .get_or_insert_with(|| L1Pair::new(l1i, l1d, ReplacementPolicy::Lru));
        // Chunks before `next` were served from the memo; only the L1
        // state they leave behind is needed (every one of them is full —
        // a run's only partial chunk is its last).
        while self.stream.position() < self.next {
            for access in self.stream.next_chunk().iter() {
                l1.filter(access, self.filtered);
                self.filtered += 1;
            }
        }
        let raw = self.stream.next_chunk();
        let n = raw.len().min(refs);
        self.scratch.clear();
        let mut gap = 0u32;
        for access in &raw[..n] {
            let outcome = l1.filter(access, self.filtered);
            self.filtered += 1;
            match outcome.demand {
                Some(demand) => {
                    self.scratch.push(LaneEvent {
                        gap,
                        demand,
                        writeback: outcome.writeback,
                    });
                    gap = 0;
                }
                None => gap += 1,
            }
        }
        let mut l1_stats = CacheStats::new();
        l1_stats.merge(l1.icache().stats());
        l1_stats.merge(l1.dcache().stats());
        FilteredChunk {
            refs: n as u32,
            tail: gap,
            events: self.scratch.as_slice().into(),
            l1_stats,
        }
    }
}

/// Replays one filtered chunk into a design lane: O(1) retires over the
/// hit gaps, one L2 interaction per event, all at the lane's own clock.
fn replay(sys: &mut System, chunk: &FilteredChunk) {
    for ev in &chunk.events {
        sys.retire_hits(u64::from(ev.gap));
        sys.step_filtered(Some(&ev.demand), ev.writeback.as_ref());
    }
    sys.retire_hits(u64::from(chunk.tail));
    // Mirrors `System::run_batch`: one counter bump per lane per chunk,
    // so the drained telemetry totals match the scalar engines exactly.
    if telemetry::enabled() {
        telemetry::add("sim_batches", 1);
        telemetry::add("sim_refs", u64::from(chunk.refs));
    }
}

/// Per-lane execution state inside [`LockStep::run_timed_isolated_span`].
enum LaneSlot {
    /// Still simulating: the system plus its accumulated wall time.
    Live(Box<System>, u64),
    /// Failed at build time or mid-replay; the system was dropped.
    Failed(SweepPointError),
}

/// The lock-step runner: one `(app, seed)` stream, K design lanes per
/// front end.
///
/// Most callers reach this engine through the [`crate::fanout::FanOut`]
/// entry points (every sweep, sweep-shaped experiment, and `repro` run
/// routes here). The suite's design matrix
/// ([`crate::experiments::matrix`]) drives it directly, one lane group
/// per app; the type is also public for the differential suites and
/// the lane-group-width benchmarks.
///
/// # Examples
///
/// ```
/// use moca_core::L2Design;
/// use moca_sim::lockstep::LockStep;
/// use moca_trace::AppProfile;
///
/// let app = AppProfile::music();
/// let designs = [L2Design::baseline(), L2Design::static_default()];
/// let reports = LockStep::new(&app, 1).run(&designs, 30_000);
/// // Byte-identical to the scalar oracle:
/// let solo = moca_sim::run_app(&app, designs[1], 30_000, 1);
/// assert_eq!(format!("{:?}", reports[1]), format!("{solo:?}"));
/// ```
#[derive(Debug, Clone)]
pub struct LockStep<'a> {
    app: &'a AppProfile,
    seed: u64,
    cfg: SystemConfig,
    lane_group: usize,
    /// Memo every lane group's front end reads through; `None` for a
    /// stream read once.
    memo: Option<&'a FilteredMemo>,
    /// Absolute sweep indices whose lane carries the behaviour probe.
    probed: Vec<usize>,
    /// Absolute sweep indices forced to panic at the start of their
    /// replay (fault-injection hook for the isolation suites).
    injected_faults: Vec<usize>,
}

impl<'a> LockStep<'a> {
    /// A lock-step runner over the `(app, seed)` stream with the default
    /// [`SystemConfig`] and [`LANE_GROUP`] lanes per front end.
    pub fn new(app: &'a AppProfile, seed: u64) -> Self {
        LockStep {
            app,
            seed,
            cfg: SystemConfig::default(),
            lane_group: LANE_GROUP,
            memo: Some(FilteredMemo::global()),
            probed: Vec::new(),
            injected_faults: Vec::new(),
        }
    }

    /// Replaces the system configuration used for every lane.
    pub fn with_config(mut self, cfg: SystemConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the number of lanes sharing one front end (minimum 1).
    ///
    /// Width 1 disables front-end sharing entirely — each design pays
    /// its own filter pass — which is the contrast the
    /// `lockstep/lane-group-width` benchmark measures.
    pub fn with_lane_group(mut self, width: usize) -> Self {
        self.lane_group = width.max(1);
        self
    }

    /// Reads the filtered stream through `memo` instead of the global
    /// [`FilteredMemo`] (tests and benchmarks use private memos).
    pub fn with_memo(mut self, memo: &'a FilteredMemo) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Declares the stream read once: its front ends neither look up nor
    /// insert memo entries, so a stream no one re-reads does not crowd
    /// out the streams later runs do replay.
    pub fn read_once(mut self) -> Self {
        self.memo = None;
        self
    }

    /// Enables segment-behaviour probing on the listed absolute sweep
    /// indices only (see [`System::with_behavior_probe`]).
    ///
    /// The probe observes L2 state without changing it, so a probed
    /// lane's report equals the unprobed one in every field but
    /// `behavior`, and other lanes pay nothing for it.
    pub(crate) fn with_behavior_probes(mut self, lanes: &[usize]) -> Self {
        self.probed = lanes.to_vec();
        self
    }

    /// Builds the system of the lane at absolute sweep index `index`.
    fn build(&self, design: L2Design, index: usize) -> Result<System, BuildSystemError> {
        let sys = System::new(self.app.name, design, self.cfg)?;
        Ok(if self.probed.contains(&index) {
            sys.with_behavior_probe()
        } else {
            sys
        })
    }

    /// The shared front end of one lane group.
    fn front_end(&self) -> FrontEnd<'a> {
        // Every caller built a lane first, which validated the L1
        // geometries.
        FrontEnd::with_memo(self.app, self.seed, &self.cfg, self.memo)
            .expect("lane builds validated the config")
    }

    /// Injects deterministic mid-run faults: each listed absolute sweep
    /// index panics (`"injected fault at index {i}"`) at the start of its
    /// lane's replay. Only [`LockStep::run_timed_isolated_span`] survives
    /// an injected fault; the non-isolated paths propagate the panic.
    pub fn with_injected_faults(mut self, faults: &[usize]) -> Self {
        self.injected_faults = faults.to_vec();
        self
    }

    /// Runs `refs` references through one lane per design and returns
    /// the reports in design order.
    ///
    /// # Panics
    ///
    /// Panics if any design is invalid (callers construct designs from
    /// validated enums, matching [`crate::workloads::run_app`]).
    pub fn run(&self, designs: &[L2Design], refs: usize) -> Vec<SimReport> {
        self.run_timed_span(designs, refs, 0, designs.len())
            .into_iter()
            .map(|(report, _)| report)
            .collect()
    }

    /// [`LockStep::run`] returning `(report, wall_ns)` pairs over one
    /// contiguous slice of a larger sweep: `offset` is the slice's
    /// position in sweep order and `total` the full sweep size, so
    /// telemetry `point` events carry stable indices for any
    /// partitioning of the designs over workers or lane groups.
    pub fn run_timed_span(
        &self,
        designs: &[L2Design],
        refs: usize,
        offset: usize,
        total: usize,
    ) -> Vec<(SimReport, u64)> {
        let mut out = Vec::with_capacity(designs.len());
        for (g, lanes) in designs.chunks(self.lane_group).enumerate() {
            out.extend(
                self.run_group(lanes, refs, offset + g * self.lane_group, total, None)
                    .expect("uncancellable run cannot be cancelled"),
            );
        }
        out
    }

    /// [`LockStep::run_timed_span`] with cooperative cancellation: the
    /// token is polled before every chunk the front end fetches and
    /// before every chunk a lane replays, so abort latency is bounded by
    /// one chunk of work per lane group.
    ///
    /// Determinism is untouched — a run that completes returns exactly
    /// the bytes the uncancellable path would have returned, and a
    /// cancelled run returns [`Cancelled`] with nothing partial
    /// observable.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] if `cancel` tripped before the last lane
    /// group finished.
    pub fn try_run_timed_span(
        &self,
        designs: &[L2Design],
        refs: usize,
        offset: usize,
        total: usize,
        cancel: &CancelToken,
    ) -> Result<Vec<(SimReport, u64)>, Cancelled> {
        let mut out = Vec::with_capacity(designs.len());
        for (g, lanes) in designs.chunks(self.lane_group).enumerate() {
            out.extend(self.run_group(
                lanes,
                refs,
                offset + g * self.lane_group,
                total,
                Some(cancel),
            )?);
        }
        Ok(out)
    }

    /// Streams `refs` references of the filtered stream in blocks of up
    /// to [`BLOCK_CHUNKS`] chunks and hands each block to `replay_block`,
    /// which replays it lane by lane. `cancel` (when given) is polled
    /// before every chunk fetch. Returns the front end (for its L1
    /// statistics and memo counts) and the time spent filling blocks.
    fn replay_blocks(
        &self,
        refs: usize,
        cancel: Option<&CancelToken>,
        mut replay_block: impl FnMut(&[Arc<FilteredChunk>]) -> Result<(), Cancelled>,
    ) -> Result<(FrontEnd<'a>, u64), Cancelled> {
        let mut front = self.front_end();
        let mut block = Vec::with_capacity(BLOCK_CHUNKS.min(refs.div_ceil(ARENA_CHUNK)));
        let mut front_ns = 0u64;
        let mut left = refs;
        while left > 0 {
            let start = Instant::now();
            block.clear();
            while left > 0 && block.len() < BLOCK_CHUNKS {
                poll(cancel)?;
                let chunk = front.fill_next(left);
                left -= chunk.refs();
                block.push(chunk);
            }
            front_ns += start.elapsed().as_nanos() as u64;
            replay_block(&block)?;
        }
        Ok((front, front_ns))
    }

    /// One lane group: build the lanes, replay the filtered stream block
    /// by block, finish. `cancel` (when given) is polled before every
    /// chunk fetch and before every chunk each lane replays.
    fn run_group(
        &self,
        lanes: &[L2Design],
        refs: usize,
        offset: usize,
        total: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<(SimReport, u64)>, Cancelled> {
        let mut systems: Vec<System> = lanes
            .iter()
            .enumerate()
            .map(|(i, design)| {
                self.build(*design, offset + i)
                    .expect("fan-out design must be valid")
            })
            .collect();
        let mut walls = vec![0u64; systems.len()];
        let (front, front_ns) = self.replay_blocks(refs, cancel, |block| {
            for (sys, wall) in systems.iter_mut().zip(&mut walls) {
                let start = Instant::now();
                for chunk in block {
                    poll(cancel)?;
                    replay(sys, chunk);
                }
                *wall += start.elapsed().as_nanos() as u64;
            }
            Ok(())
        })?;
        if telemetry::enabled() {
            // The shared front end's time is reported once for the whole
            // group; each lane's `point` carries only its own replay and
            // finish time.
            let (memo_hits, memo_misses) = front.memo_counts();
            telemetry::record(Event::FrontEnd {
                app: self.app.name.to_string(),
                index: offset as u32,
                lanes: lanes.len() as u32,
                refs: refs as u64,
                front_end_ns: front_ns,
                memo_hits,
                memo_misses,
            });
        }
        Ok(systems
            .into_iter()
            .zip(walls)
            .enumerate()
            .map(|(i, (mut sys, wall))| {
                sys.adopt_l1_stats(front.l1_stats());
                let start = Instant::now();
                let report = sys.finish();
                let energy_ns = start.elapsed().as_nanos() as u64;
                if telemetry::enabled() {
                    telemetry::record(Event::point(
                        &report.app,
                        &report.design,
                        offset + i,
                        total,
                        0,
                        wall,
                        energy_ns,
                    ));
                }
                (report, wall + energy_ns)
            })
            .collect())
    }

    /// [`LockStep::run_timed_span`] with per-lane failure isolation: a
    /// design that fails to build, or panics at any point of its replay,
    /// yields `Err(SweepPointError)` in its slot — carrying its
    /// **absolute** sweep index `offset + lane` — while every other lane
    /// of the group keeps replaying the shared front end's chunks.
    ///
    /// Failure values are deterministic (build errors are pure functions
    /// of the design; panics in a deterministic replay carry a
    /// deterministic payload), so the failed-point set is identical for
    /// any grouping of the designs over workers or lane groups.
    pub fn run_timed_isolated_span(
        &self,
        designs: &[L2Design],
        refs: usize,
        offset: usize,
    ) -> Vec<Result<(SimReport, u64), SweepPointError>> {
        let mut out = Vec::with_capacity(designs.len());
        for (g, lanes) in designs.chunks(self.lane_group).enumerate() {
            out.extend(self.run_group_isolated(lanes, refs, offset + g * self.lane_group));
        }
        out
    }

    /// One isolated lane group; `offset` is the absolute sweep index of
    /// the group's first lane.
    fn run_group_isolated(
        &self,
        lanes: &[L2Design],
        refs: usize,
        offset: usize,
    ) -> Vec<Result<(SimReport, u64), SweepPointError>> {
        let mut slots: Vec<LaneSlot> = lanes
            .iter()
            .enumerate()
            .map(|(lane, design)| {
                match catch_panic(|| self.build(*design, offset + lane)) {
                    Ok(Ok(sys)) => LaneSlot::Live(Box::new(sys), 0),
                    Ok(Err(e)) => LaneSlot::Failed(SweepPointError {
                        index: offset + lane,
                        label: design.label(),
                        cause: PointCause::Build(e),
                    }),
                    Err(msg) => LaneSlot::Failed(SweepPointError {
                        index: offset + lane,
                        label: design.label(),
                        cause: PointCause::Panic(msg),
                    }),
                }
            })
            .collect();

        let live = slots.iter().any(|s| matches!(s, LaneSlot::Live(..)));
        let front = live.then(|| {
            let mut first = true;
            self.replay_blocks(refs, None, |block| {
                for (lane, slot) in slots.iter_mut().enumerate() {
                    let failure = match slot {
                        LaneSlot::Live(sys, wall) => {
                            let index = offset + lane;
                            let trip = first && self.injected_faults.contains(&index);
                            let start = Instant::now();
                            let outcome = catch_panic(|| {
                                if trip {
                                    panic!("injected fault at index {index}");
                                }
                                for chunk in block {
                                    replay(sys, chunk);
                                }
                            });
                            *wall += start.elapsed().as_nanos() as u64;
                            outcome.err()
                        }
                        LaneSlot::Failed(_) => None,
                    };
                    if let Some(msg) = failure {
                        // The panicked lane's state is unspecified;
                        // replacing the slot drops it for good.
                        *slot = LaneSlot::Failed(SweepPointError {
                            index: offset + lane,
                            label: lanes[lane].label(),
                            cause: PointCause::Panic(msg),
                        });
                    }
                }
                first = false;
                Ok(())
            })
            .expect("no token, no cancellation")
            .0
        });

        slots
            .into_iter()
            .enumerate()
            .map(|(lane, slot)| match slot {
                LaneSlot::Live(mut sys, wall) => {
                    if let Some(front) = &front {
                        sys.adopt_l1_stats(front.l1_stats());
                    }
                    let start = Instant::now();
                    match catch_panic(move || sys.finish()) {
                        Ok(report) => Ok((report, wall + start.elapsed().as_nanos() as u64)),
                        Err(msg) => Err(SweepPointError {
                            index: offset + lane,
                            label: lanes[lane].label(),
                            cause: PointCause::Panic(msg),
                        }),
                    }
                }
                LaneSlot::Failed(e) => Err(e),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::run_app;

    fn pool() -> Vec<L2Design> {
        vec![
            L2Design::baseline(),
            L2Design::static_default(),
            L2Design::dynamic_default(),
            L2Design::SharedSram { ways: 4 },
            L2Design::SharedSram { ways: 12 },
        ]
    }

    #[test]
    fn lockstep_matches_scalar_oracle() {
        let app = AppProfile::game();
        let designs = pool();
        let refs = 20_011; // not chunk-aligned
        let reports = LockStep::new(&app, 3).run(&designs, refs);
        for (design, got) in designs.iter().zip(&reports) {
            let want = run_app(&app, *design, refs, 3);
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
    }

    #[test]
    fn lane_group_width_does_not_change_reports() {
        let app = AppProfile::browser();
        let designs = pool();
        let reference = LockStep::new(&app, 7).run(&designs, 15_000);
        for width in [1usize, 2, 3, 8, 64] {
            let got = LockStep::new(&app, 7)
                .with_lane_group(width)
                .run(&designs, 15_000);
            assert_eq!(got.len(), reference.len());
            for (g, r) in got.iter().zip(&reference) {
                assert_eq!(format!("{g:?}"), format!("{r:?}"), "width={width}");
            }
        }
    }

    #[test]
    fn filtered_chunk_accounts_every_reference() {
        let app = AppProfile::music();
        let cfg = SystemConfig::default();
        let memo = FilteredMemo::with_capacity(1 << 20);
        let mut front = FrontEnd::with_memo(&app, 1, &cfg, Some(&memo)).expect("valid");
        let chunk = front.fill_next(5_000);
        assert_eq!(chunk.refs(), 5_000);
        assert_eq!(chunk.l1_stats().accesses(), 5_000);
        let events = chunk.events().len();
        let gaps: usize = chunk.events().iter().map(|e| e.gap as usize).sum();
        assert!(events > 0, "a cold L1 must miss");
        assert_eq!(events + gaps + chunk.tail_gap(), 5_000);
    }

    #[test]
    fn injected_fault_poisons_only_its_own_lane() {
        let app = AppProfile::video();
        let designs = pool();
        let outcomes = LockStep::new(&app, 5)
            .with_injected_faults(&[2])
            .run_timed_isolated_span(&designs, 12_000, 0);
        let clean = LockStep::new(&app, 5).run(&designs, 12_000);
        for (i, outcome) in outcomes.iter().enumerate() {
            if i == 2 {
                let e = outcome.as_ref().expect_err("injected fault must fail");
                assert_eq!(e.index, 2);
                assert!(e.to_string().contains("injected fault at index 2"), "{e}");
            } else {
                let (report, _) = outcome.as_ref().expect("other lanes survive");
                assert_eq!(format!("{report:?}"), format!("{:?}", clean[i]));
            }
        }
    }

    #[test]
    fn isolated_span_reports_absolute_indices() {
        let app = AppProfile::email();
        let designs = [L2Design::SharedSram { ways: 0 }, L2Design::baseline()];
        let outcomes = LockStep::new(&app, 1).run_timed_isolated_span(&designs, 3_000, 10);
        let e = outcomes[0].as_ref().expect_err("ways=0 is invalid");
        assert_eq!(e.index, 10);
        assert!(matches!(e.cause, PointCause::Build(_)));
        assert!(outcomes[1].is_ok());
    }
}
