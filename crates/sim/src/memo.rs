//! Bounded process-wide memos: the storage behind the raw chunk arena
//! ([`crate::fanout::ChunkArena`]) and the filtered-chunk memo
//! ([`FilteredMemo`]) the lock-step front end reads.
//!
//! # The filtered-chunk memo
//!
//! The paper's designs change only the L2. The L1-filtered stream of a
//! trace — which references miss the L1, what they request from the L2,
//! and the L1 statistics — depends on the trace and the L1 geometry,
//! never on the L2 design. So one filter pass per trace serves every L2
//! design ever evaluated on it: a [`crate::lockstep::FrontEnd`] looks
//! each chunk up here first, and a lane group whose stream another group
//! already filtered pays only L2 replay.
//!
//! * **Key**: stream source fingerprint (the profile's, or
//!   a compiled trace file's source fingerprint, so `--trace` corpora
//!   keep their own namespace), seed, L1I and L1D geometry, chunk index,
//!   and the references filtered from that chunk. The last field keeps a
//!   run that ends mid-chunk exact: its partial chunk is a different
//!   entry from the full one.
//! * **Value**: the [`FilteredChunk`] — its L2-visible events plus the
//!   merged L1 statistics after it — shared as an `Arc`, so a hit copies
//!   nothing.
//! * **Bound**: insert-until-full at [`MEMO_CAP_BYTES`] of event data;
//!   nothing is evicted, further inserts are rejected and counted.
//!
//! Memoized content never influences output: a hit returns exactly the
//! chunk a miss would have filtered, so the bound is purely a space/time
//! knob.

use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use moca_cache::CacheGeometry;
use moca_trace::fxhash::FxHashMap;

use crate::lockstep::FilteredChunk;
use crate::parallel::catch_panic;

/// Bound of the global filtered-chunk memo, in bytes of cached chunks.
///
/// A filtered chunk holds only the L2-visible events of its 8192
/// references (about 27 KiB), so 48 MiB holds every stream a quick
/// suite run, a full-scale search or a full-scale suite run filters more
/// than once. Together with the raw arena's bound it keeps a full-scale
/// `repro` below the peak memory it had when the raw arena alone was
/// twice as large.
pub const MEMO_CAP_BYTES: usize = 48 << 20;

#[derive(Debug)]
struct Inner<K, V: ?Sized> {
    map: FxHashMap<K, Arc<V>>,
    weight: usize,
    hits: u64,
    misses: u64,
    rejected: u64,
}

/// A snapshot of a [`Bounded`] map's counters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Counters {
    pub(crate) entries: usize,
    pub(crate) weight: usize,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) rejected: u64,
}

/// A thread-safe, insert-until-full map of shared immutable values:
/// once the summed weight of the entries would pass the bound, further
/// inserts are rejected (and counted) instead of evicting anything.
#[derive(Debug)]
pub(crate) struct Bounded<K, V: ?Sized> {
    inner: Mutex<Inner<K, V>>,
    cap: usize,
}

impl<K: Hash + Eq, V: ?Sized> Bounded<K, V> {
    pub(crate) fn new(cap: usize) -> Self {
        Bounded {
            inner: Mutex::new(Inner {
                map: FxHashMap::default(),
                weight: 0,
                hits: 0,
                misses: 0,
                rejected: 0,
            }),
            cap,
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        // A poisoned lock means a panicking thread held it mid-update;
        // every critical section below leaves the map consistent, so
        // continuing is safe (mirrors `parallel::parallel_map`).
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn get(&self, key: &K) -> Option<Arc<V>> {
        let mut inner = self.lock();
        match inner.map.get(key) {
            Some(value) => {
                let value = Arc::clone(value);
                inner.hits += 1;
                Some(value)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Offers `value` (of `weight`) under `key`.
    pub(crate) fn insert(&self, key: K, value: &Arc<V>, weight: usize) {
        let mut inner = self.lock();
        if inner.weight + weight > self.cap {
            inner.rejected += 1;
            return;
        }
        // A racing worker may have produced the same value; both copies
        // are identical, so the first insert wins.
        if let Entry::Vacant(slot) = inner.map.entry(key) {
            slot.insert(Arc::clone(value));
            inner.weight += weight;
        }
    }

    pub(crate) fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.weight = 0;
    }

    pub(crate) fn counters(&self) -> Counters {
        let inner = self.lock();
        Counters {
            entries: inner.map.len(),
            weight: inner.weight,
            hits: inner.hits,
            misses: inner.misses,
            rejected: inner.rejected,
        }
    }
}

impl<K: Send, V: ?Sized + Send + Sync> Bounded<K, V> {
    /// Leaves the lock poisoned, exactly as a worker that panicked while
    /// holding it would (fault injection; see [`FilteredMemo::poison`]).
    pub(crate) fn poison(&self) {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // catch_panic keeps the injected panic from reaching the
                // process hook; the guard still drops during unwinding,
                // which is what marks the mutex poisoned.
                let _ = catch_panic(|| {
                    let _guard = self.inner.lock();
                    panic!("injected lock poison");
                });
            });
        });
    }
}

/// The identity of one filtered chunk (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct MemoKey {
    pub(crate) source: u64,
    pub(crate) seed: u64,
    pub(crate) l1i: CacheGeometry,
    pub(crate) l1d: CacheGeometry,
    pub(crate) chunk: u32,
    pub(crate) refs: u32,
}

/// Counters describing a [`FilteredMemo`]'s effectiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Filtered chunks currently cached.
    pub cached_chunks: usize,
    /// Bytes those chunks occupy.
    pub bytes: usize,
    /// Lookups served from the memo (no L1 work).
    pub hits: u64,
    /// Lookups that made a front end filter the chunk itself.
    pub misses: u64,
    /// Filtered chunks not cached because the memo was full.
    pub rejected: u64,
}

impl MemoStats {
    /// A warning line once the memo has rejected an insert, `None`
    /// before.
    ///
    /// Past the bound, every stream not yet cached is filtered again by
    /// each lane group that reads it; the rejected count makes that
    /// repeated work visible.
    pub fn saturation_warning(&self, cap_bytes: usize) -> Option<String> {
        (self.rejected > 0).then(|| {
            format!(
                "warning: filtered memo saturated ({} chunk(s), {} of {} KiB, {} insert(s) rejected) — \
                 streams past the cap are re-filtered by every lane group",
                self.cached_chunks,
                self.bytes / 1024,
                cap_bytes / 1024,
                self.rejected
            )
        })
    }
}

/// The bounded, thread-safe memo of L1-filtered chunks (see the
/// [module docs](self)).
///
/// Front ends use [`FilteredMemo::global`] unless given another one;
/// private memos (tests, benchmarks) come from
/// [`FilteredMemo::with_capacity`].
#[derive(Debug)]
pub struct FilteredMemo {
    chunks: Bounded<MemoKey, FilteredChunk>,
}

impl FilteredMemo {
    /// A private memo bounded at `cap_bytes` bytes of cached chunks.
    pub fn with_capacity(cap_bytes: usize) -> Self {
        FilteredMemo {
            chunks: Bounded::new(cap_bytes),
        }
    }

    /// The process-wide memo every front end shares by default.
    pub fn global() -> &'static FilteredMemo {
        static GLOBAL: OnceLock<FilteredMemo> = OnceLock::new();
        GLOBAL.get_or_init(|| FilteredMemo::with_capacity(MEMO_CAP_BYTES))
    }

    /// The memo bound in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.chunks.capacity()
    }

    pub(crate) fn get(&self, key: &MemoKey) -> Option<Arc<FilteredChunk>> {
        self.chunks.get(key)
    }

    pub(crate) fn insert(&self, key: MemoKey, chunk: &Arc<FilteredChunk>) {
        self.chunks.insert(key, chunk, chunk.bytes());
    }

    /// Drops every cached chunk (counters are kept), so the next front
    /// end over any stream starts cold — what a benchmark of the filter
    /// pass needs between iterations.
    pub fn clear(&self) {
        self.chunks.clear();
    }

    /// Deliberately poisons the memo's internal lock (fault injection).
    ///
    /// Every accessor recovers via [`PoisonError::into_inner`] (the
    /// critical sections keep the map consistent), so front ends and
    /// [`FilteredMemo::stats`] keep working afterwards.
    pub fn poison(&self) {
        self.chunks.poison();
    }

    /// Current memo counters.
    pub fn stats(&self) -> MemoStats {
        let c = self.chunks.counters();
        MemoStats {
            cached_chunks: c.entries,
            bytes: c.weight,
            hits: c.hits,
            misses: c.misses,
            rejected: c.rejected,
        }
    }
}
