//! Layer probes: the benchmark's own calls into each layer's public
//! functions, each wrapped in a span named after the layer.
//!
//! A simulated point is replayed layer by layer — `TraceGenerator`
//! fills the reference stream, `L1Pair::filter` reduces it to L2-visible
//! requests, `MobileL2::request` replays those at the in-order core's
//! clock, and `MobileL2::finalize`/`energy` close the accounting — and
//! `System::run_batch` runs the same point whole as the reference. The
//! decomposed replay must land on exactly the reference's L2 statistics
//! and cycle count; a mismatch is counted as a probe failure.

use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;

use moca_cache::{L1Pair, L2Request, MrcProfiler, ReplacementPolicy};
use moca_core::{L2BaseParams, L2Design, MobileL2};
use moca_search::nsga;
use moca_search::SearchOutcome;
use moca_sim::checkpoint::Journal;
use moca_sim::{InOrderCore, System, SystemConfig};
use moca_trace::binfmt::{self, TraceReader};
use moca_trace::{AppProfile, MemoryAccess, TraceGenerator};

use crate::spans::Tracer;

/// Batch size of the whole-point reference, matching the generator's
/// chunking.
const BATCH: usize = TraceGenerator::DEFAULT_CHUNK;

/// One L2-visible L1 outcome and the index of the reference behind it.
struct L1Event {
    index: u64,
    demand: Option<L2Request>,
    writeback: Option<L2Request>,
}

/// Which `core.l2.ns_per_request.<family>` a design is charged to.
fn family(design: &L2Design) -> &'static str {
    match design {
        L2Design::SharedSram { .. } | L2Design::SharedStt { .. } => "shared",
        L2Design::StaticSram { .. } | L2Design::StaticMultiRetention { .. } => "static",
        L2Design::DynamicSram { .. } | L2Design::DynamicStt { .. } => "dynamic",
    }
}

/// `trace.generate`: the first `refs` references of `(app, seed)`.
fn generate(t: &mut Tracer, app: &AppProfile, seed: u64, refs: usize) -> Vec<MemoryAccess> {
    let buf = t.span("trace.generate", |_| {
        let mut gen = TraceGenerator::new(app, seed);
        let mut out = Vec::with_capacity(refs + BATCH);
        let mut chunk = Vec::with_capacity(BATCH);
        while out.len() < refs {
            gen.fill(&mut chunk);
            out.extend_from_slice(&chunk);
        }
        out.truncate(refs);
        out
    });
    t.add("trace.generate.refs", refs as f64);
    buf
}

/// `cache.l1`: filters `trace` through a fresh L1 pair.
fn filter(
    t: &mut Tracer,
    cfg: &SystemConfig,
    trace: &[MemoryAccess],
) -> Result<Vec<L1Event>, String> {
    let igeom = cfg.l1i_geometry().map_err(|e| e.to_string())?;
    let dgeom = cfg.l1d_geometry().map_err(|e| e.to_string())?;
    let events = t.span("cache.l1", |_| {
        let mut l1 = L1Pair::new(igeom, dgeom, ReplacementPolicy::Lru);
        let mut events = Vec::new();
        for (i, a) in trace.iter().enumerate() {
            // The L1 decision never reads the timestamp, so the
            // reference index stands in for the core clock here.
            let out = l1.filter(a, i as u64);
            if !out.hit {
                events.push(L1Event {
                    index: i as u64,
                    demand: out.demand,
                    writeback: out.writeback,
                });
            }
        }
        events
    });
    t.add("cache.l1.refs", trace.len() as f64);
    t.add("cache.l1.passed", events.len() as f64);
    Ok(events)
}

/// Replays one design over an already generated trace.
fn replay_design(
    t: &mut Tracer,
    cfg: &SystemConfig,
    app: &AppProfile,
    design: L2Design,
    trace: &[MemoryAccess],
    events: &[L1Event],
) -> Result<(), String> {
    let params = L2BaseParams {
        line_bytes: cfg.line_bytes,
        clock_ghz: cfg.clock_ghz,
        next_line_prefetch: cfg.l2_next_line_prefetch,
        policy: cfg.l2_policy,
        ..L2BaseParams::default()
    };
    let fam = family(&design);
    let mut l2 = MobileL2::new(design, params).map_err(|e| e.to_string())?;
    let mut core = InOrderCore::new(cfg.base_cycles_per_ref);
    let refs = trace.len() as u64;
    let requests = t.span(&format!("core.l2.{fam}"), |_| {
        let mut requests = 0u64;
        let mut next = 0u64;
        for ev in events {
            core.retire_many(ev.index - next);
            let now = core.cycle();
            let mut stall = 0;
            if let Some(d) = &ev.demand {
                let resp = l2.request(d, now);
                requests += 1;
                stall = resp.latency_cycles
                    + if resp.dram_read {
                        cfg.dram_latency_cycles
                    } else {
                        0
                    };
            }
            if let Some(wb) = &ev.writeback {
                l2.request(wb, now);
                requests += 1;
            }
            core.retire(stall);
            next = ev.index + 1;
        }
        core.retire_many(refs - next);
        requests
    });
    t.add(&format!("core.l2.requests.{fam}"), requests as f64);

    let reference = t.span("sim.system.run_batch", |_| {
        let mut sys = System::new(app.name, design, *cfg).map_err(|e| e.to_string())?;
        for batch in trace.chunks(BATCH) {
            sys.run_batch(batch);
        }
        let matches = *sys.l2().stats() == *l2.stats() && sys.cycles() == core.cycle();
        black_box(sys.finish());
        Ok::<bool, String>(matches)
    })?;
    if !reference {
        t.add("probe.mismatch", 1.0);
    }

    t.span("energy.finish", |_| {
        l2.finalize(core.cycle());
        black_box(l2.energy());
    });
    t.add("energy.finish.points", 1.0);
    Ok(())
}

/// One whole point per design: each design generates and filters its
/// own trace, as a scalar run on a private generator does.
pub fn replay_points(
    t: &mut Tracer,
    app: &AppProfile,
    seed: u64,
    refs: usize,
    designs: &[L2Design],
) -> Result<(), String> {
    let cfg = SystemConfig::default();
    for &design in designs {
        t.span("point", |t| {
            let trace = generate(t, app, seed, refs);
            let events = filter(t, &cfg, &trace)?;
            replay_design(t, &cfg, app, design, &trace, &events)
        })?;
    }
    Ok(())
}

/// The search's shape: one trace identity generated and filtered once,
/// profiled by the MRC engine, and replayed by several designs.
pub fn replay_identity(
    t: &mut Tracer,
    app: &AppProfile,
    seed: u64,
    refs: usize,
    designs: &[L2Design],
) -> Result<(), String> {
    let cfg = SystemConfig::default();
    t.span("identity", |t| {
        let trace = generate(t, app, seed, refs);
        decode(t, app, seed, &trace)?;
        let events = filter(t, &cfg, &trace)?;
        profile(t, &events)?;
        for &design in designs {
            replay_design(t, &cfg, app, design, &trace, &events)?;
        }
        Ok(())
    })
}

/// `trace.decode`: compiles the identity to the on-disk format in
/// memory, then decodes it back and checks it against the generator.
fn decode(
    t: &mut Tracer,
    app: &AppProfile,
    seed: u64,
    trace: &[MemoryAccess],
) -> Result<(), String> {
    let mut file = Cursor::new(Vec::new());
    t.span("trace.compile", |_| {
        binfmt::compile(&mut file, app, seed, trace.len())
    })
    .map_err(|e| format!("compile: {e}"))?;
    let bytes = file.into_inner();
    let (decoded, mismatched, errors) = t.span("trace.decode", |_| {
        let mut reader = match TraceReader::new(Cursor::new(&bytes[..])) {
            Ok(r) => r,
            Err(_) => return (0u64, 0u64, 1u64),
        };
        let mut it = reader.accesses();
        let (mut n, mut bad) = (0u64, 0u64);
        for a in &mut it {
            if let Some(expected) = trace.get(n as usize) {
                bad += u64::from(a != *expected);
            }
            n += 1;
        }
        (n, bad, u64::from(it.finish().is_err()))
    });
    t.add("trace.decode.refs", decoded as f64);
    t.add("trace.decode.bytes", bytes.len() as f64);
    t.add("trace.decode.errors", errors as f64);
    if mismatched > 0 || decoded < trace.len() as u64 {
        t.add("probe.mismatch", 1.0);
    }
    Ok(())
}

/// `cache.mrc`: one Mattson pass over the L2-visible stream
/// (demand then writeback), as the search's pruning pass observes it.
fn profile(t: &mut Tracer, events: &[L1Event]) -> Result<(), String> {
    let sets = u32::try_from(L2BaseParams::default().sets).map_err(|e| e.to_string())?;
    let mut prof = MrcProfiler::new(&[sets], 16).map_err(|e| e.to_string())?;
    t.span("cache.mrc", |_| {
        for ev in events {
            if let Some(d) = &ev.demand {
                prof.observe(d);
            }
            if let Some(wb) = &ev.writeback {
                prof.observe(wb);
            }
        }
        black_box(prof.curve(sets));
    });
    t.add("cache.mrc.requests", prof.observed() as f64);
    Ok(())
}

/// `search.rank`: ranks each generation's parents-plus-offspring window
/// of the archive, one `rank_population` call per generation.
pub fn rank(t: &mut Tracer, outcome: &SearchOutcome) {
    let pop = outcome.config.population;
    for g in 0..outcome.config.generations as usize {
        let end = ((g + 1) * pop).min(outcome.archive.len());
        let window = &outcome.archive[end.saturating_sub(2 * pop)..end];
        let fitness: Vec<nsga::Fitness> = window.iter().map(|r| r.fitness).collect();
        let labels: Vec<&str> = window.iter().map(|r| r.label.as_str()).collect();
        t.span("search.rank", |_| {
            black_box(nsga::rank_population(&fitness, &labels))
        });
        t.add("search.rank.calls", 1.0);
    }
}

/// `journal.*`: reopens a served journal (crash-recovery read of every
/// line), then appends each served `key` into a fresh journal.
pub fn journal(
    t: &mut Tracer,
    served: &Path,
    keys: &[String],
    work: &Path,
) -> Result<(), String> {
    let source = t
        .span("journal.open", |_| Journal::resume(served))
        .map_err(|e| format!("journal resume: {e}"))?;
    t.add("journal.open.entries", source.len() as f64);
    let mut copy = Journal::open(work).map_err(|e| format!("journal open: {e}"))?;
    let mut appended = 0u64;
    let mut missing = 0u64;
    t.span("journal.append", |_| {
        for key in keys {
            match source.get(key) {
                Some(payload) => {
                    copy.record(key, payload)?;
                    appended += 1;
                }
                None => missing += 1,
            }
        }
        Ok::<(), std::io::Error>(())
    })
    .map_err(|e| format!("journal append: {e}"))?;
    t.add("journal.append.records", appended as f64);
    t.add("probe.mismatch", missing as f64);
    let bytes = std::fs::metadata(copy.path())
        .map_err(|e| e.to_string())?
        .len();
    t.add("journal.append.bytes", bytes as f64);
    Ok(())
}
