//! Differential suite for the filtered-chunk memo behind the lock-step
//! front end.
//!
//! A memo hit replaces the whole L1 filter pass, so every way a lane
//! group can meet the memo — cold, warm, partly warm, shared by racing
//! workers, full, poisoned — must leave the reports `Debug`-identical to
//! the scalar `run_app` oracle, which shares no code with the front end.
//!
//! Every test runs on a private [`FilteredMemo`] so it does not depend on
//! what else the process has memoized, and asserts the memo counters
//! that prove the path it meant to exercise was taken. Tests that touch
//! the process-global trace registry use a unique `(app, seed)`.

use std::fs::File;
use std::io::BufWriter;

use moca_core::L2Design;
use moca_sim::lockstep::LockStep;
use moca_sim::{
    parallel_map, run_app, CancelToken, Cancelled, FileTraceSource, FilteredMemo, Jobs, SimReport,
    System, SystemConfig, TraceRegistry, MEMO_CAP_BYTES,
};
use moca_trace::binfmt::{self, CHUNK_REFS};
use moca_trace::{AppProfile, TraceGenerator};

/// Chunks a run of `refs` references reads (the last may be partial).
fn chunks(refs: usize) -> u64 {
    refs.div_ceil(CHUNK_REFS) as u64
}

fn designs() -> Vec<L2Design> {
    vec![
        L2Design::baseline(),
        L2Design::static_default(),
        L2Design::dynamic_default(),
        L2Design::SharedSram { ways: 4 },
    ]
}

fn assert_matches_oracle(app: &AppProfile, seed: u64, refs: usize, got: &[SimReport], ctx: &str) {
    for (design, report) in designs().iter().zip(got) {
        let want = run_app(app, *design, refs, seed);
        assert_eq!(
            format!("{report:?}"),
            format!("{want:?}"),
            "{} diverges from the scalar oracle [{ctx}]",
            design.label()
        );
    }
}

#[test]
fn cold_and_warm_memo_match_the_oracle_at_every_job_count() {
    let app = AppProfile::game();
    let seed = 0x3E30_0001;
    let refs = 3 * CHUNK_REFS + 1_001;
    for jobs in [1, 2, 8] {
        let memo = FilteredMemo::with_capacity(MEMO_CAP_BYTES);
        // One lane group per design: the workers race on every chunk of
        // the cold pass, and the first insert must win cleanly.
        let run = || {
            parallel_map(Jobs::new(jobs), designs(), |design| {
                LockStep::new(&app, seed)
                    .with_memo(&memo)
                    .run(&[design], refs)
                    .pop()
                    .expect("one design in, one report out")
            })
        };
        let cold = run();
        assert_matches_oracle(&app, seed, refs, &cold, &format!("cold, jobs={jobs}"));
        let after_cold = memo.stats();
        assert_eq!(after_cold.cached_chunks as u64, chunks(refs));

        let warm = run();
        assert_matches_oracle(&app, seed, refs, &warm, &format!("warm, jobs={jobs}"));
        let after_warm = memo.stats();
        assert_eq!(
            after_warm.hits - after_cold.hits,
            designs().len() as u64 * chunks(refs),
            "a warm memo serves every chunk of every lane group [jobs={jobs}]"
        );
        assert_eq!(after_warm.misses, after_cold.misses);
        assert_eq!(after_warm.rejected, 0);
    }
}

/// Runs `refs` through the shared designs on `memo` and checks them
/// against the oracle.
fn run_prefix(memo: &FilteredMemo, app: &AppProfile, seed: u64, refs: usize, ctx: &str) {
    let got = LockStep::new(app, seed)
        .with_memo(memo)
        .run(&designs(), refs);
    assert_matches_oracle(app, seed, refs, &got, ctx);
}

#[test]
fn shorter_run_first_then_longer_run_catches_up_past_the_partial_chunk() {
    let app = AppProfile::browser();
    let seed = 0x3E30_0002;
    let (short, long) = (300_000, 1_000_000);
    let memo = FilteredMemo::with_capacity(MEMO_CAP_BYTES);
    run_prefix(&memo, &app, seed, short, "300k cold");
    let before = memo.stats();
    assert_eq!(before.misses, chunks(short));

    // The long run hits every full chunk of the short one, misses the
    // short run's partial chunk (a different key), and its front end
    // catches the L1 up over the chunks it was served from the memo.
    run_prefix(&memo, &app, seed, long, "1M after 300k");
    let after = memo.stats();
    let full_short = (short / CHUNK_REFS) as u64;
    assert_eq!(after.hits - before.hits, full_short);
    assert_eq!(after.misses - before.misses, chunks(long) - full_short);
    assert_eq!(
        after.cached_chunks as u64,
        chunks(short) + chunks(long) - full_short
    );
}

#[test]
fn longer_run_first_then_shorter_run_filters_only_its_partial_chunk() {
    let app = AppProfile::email();
    let seed = 0x3E30_0003;
    let (short, long) = (300_000, 1_000_000);
    let memo = FilteredMemo::with_capacity(MEMO_CAP_BYTES);
    run_prefix(&memo, &app, seed, long, "1M cold");
    let before = memo.stats();

    run_prefix(&memo, &app, seed, short, "300k after 1M");
    let after = memo.stats();
    let full_short = (short / CHUNK_REFS) as u64;
    assert_eq!(after.hits - before.hits, full_short);
    assert_eq!(
        after.misses - before.misses,
        1,
        "only the partial chunk is new"
    );
}

/// The scalar oracle under an explicit system configuration.
fn oracle_with(
    cfg: SystemConfig,
    app: &AppProfile,
    design: L2Design,
    refs: usize,
    seed: u64,
) -> SimReport {
    let mut sys = System::new(app.name, design, cfg).expect("valid design");
    sys.run_generated(&mut TraceGenerator::new(app, seed), refs);
    sys.finish()
}

#[test]
fn two_l1_geometries_on_one_identity_never_alias() {
    let app = AppProfile::video();
    let seed = 0x3E30_0004;
    let refs = 2 * CHUNK_REFS + 77;
    let small = SystemConfig {
        l1d_bytes: 8 * 1024,
        l1i_bytes: 8 * 1024,
        ..SystemConfig::default()
    };
    let memo = FilteredMemo::with_capacity(MEMO_CAP_BYTES);
    for (name, cfg) in [("default", SystemConfig::default()), ("8 KiB L1s", small)] {
        let got = LockStep::new(&app, seed)
            .with_config(cfg)
            .with_memo(&memo)
            .run(&designs(), refs);
        for (design, report) in designs().iter().zip(&got) {
            let want = oracle_with(cfg, &app, *design, refs, seed);
            assert_eq!(format!("{report:?}"), format!("{want:?}"), "{name}");
        }
    }
    let stats = memo.stats();
    assert_eq!(
        stats.hits, 0,
        "the second geometry must not read the first's chunks"
    );
    assert_eq!(stats.cached_chunks as u64, 2 * chunks(refs));
}

#[test]
fn file_backed_stream_keeps_its_own_namespace() {
    let app = AppProfile::music();
    let seed = 0x3E30_0005;
    let refs = 3 * CHUNK_REFS + 5;
    let memo = FilteredMemo::with_capacity(MEMO_CAP_BYTES);
    run_prefix(&memo, &app, seed, refs, "generated");
    let generated = memo.stats();

    let path = std::env::temp_dir().join(format!("moca-filtered-memo-{}.mtrc", std::process::id()));
    let file = File::create(&path).expect("create temp trace");
    binfmt::compile(BufWriter::new(file), &app, seed, refs).expect("compile");
    TraceRegistry::global().register(FileTraceSource::open(&path).expect("open source"));

    run_prefix(&memo, &app, seed, refs, "file-backed");
    let replayed = memo.stats();
    assert_eq!(
        replayed.hits, generated.hits,
        "decoded chunks are keyed apart"
    );
    assert_eq!(replayed.cached_chunks, 2 * generated.cached_chunks);
    std::fs::remove_file(&path).ok();
}

#[test]
fn full_memo_rejects_inserts_and_keeps_reports_identical() {
    let app = AppProfile::camera();
    let seed = 0x3E30_0006;
    let refs = 4 * CHUNK_REFS + 300;
    // Room for about one filtered chunk.
    let memo = FilteredMemo::with_capacity(48 * 1024);
    run_prefix(&memo, &app, seed, refs, "full, cold");
    run_prefix(&memo, &app, seed, refs, "full, warm");
    let stats = memo.stats();
    assert!(stats.rejected > 0, "{stats:?}");
    assert!(stats.bytes <= memo.capacity_bytes());
    assert!(stats
        .saturation_warning(memo.capacity_bytes())
        .is_some_and(|w| w.contains("filtered memo saturated")));
}

#[test]
fn poisoned_memo_recovers_and_serves_identical_reports() {
    let app = AppProfile::game();
    let seed = 0x3E30_0007;
    let refs = 2 * CHUNK_REFS + 9;
    let memo = FilteredMemo::with_capacity(MEMO_CAP_BYTES);
    run_prefix(&memo, &app, seed, refs, "before poison");
    memo.poison();
    let before = memo.stats();
    run_prefix(&memo, &app, seed, refs, "after poison");
    assert_eq!(memo.stats().hits - before.hits, chunks(refs));
}

/// One full replay block of the lock-step engine (128 chunks) plus a
/// partial chunk: the run crosses a block boundary and ends mid-chunk.
const PAST_ONE_BLOCK: usize = 128 * CHUNK_REFS + 4_097;

/// Runs `designs` split the way the fan-out engine splits them over
/// `jobs` workers — contiguous spans, each its own lane group — and
/// concatenates the per-span results in design order. `run` gets the
/// span and its offset in sweep order.
fn over_jobs<T: Send>(
    jobs: usize,
    designs: &[L2Design],
    run: impl Fn(&[L2Design], usize) -> Vec<T> + Sync,
) -> Vec<T> {
    let per_span = designs.len().div_ceil(jobs);
    let spans: Vec<(usize, &[L2Design])> = designs
        .chunks(per_span)
        .enumerate()
        .map(|(s, span)| (s * per_span, span))
        .collect();
    parallel_map(Jobs::new(jobs), spans, |(offset, span)| run(span, offset))
        .into_iter()
        .flatten()
        .collect()
}

fn assert_debug_eq(got: &[SimReport], want: &[String], ctx: &str) {
    assert_eq!(got.len(), want.len(), "[{ctx}]");
    for (report, want) in got.iter().zip(want) {
        assert_eq!(&format!("{report:?}"), want, "{} [{ctx}]", report.design);
    }
}

#[test]
fn runs_past_one_replay_block_match_the_oracle_at_every_job_count() {
    let app = AppProfile::game();
    let seed = 0x3E30_0008;
    let refs = PAST_ONE_BLOCK;
    // `designs()` carries a `StaticMultiRetention` and a `DynamicStt`
    // lane, the two designs whose expiry and repartition decisions read
    // the lane's own clock.
    let designs = designs();
    let oracle: Vec<String> = designs
        .iter()
        .map(|d| format!("{:?}", run_app(&app, *d, refs, seed)))
        .collect();
    for jobs in [1, 2, 8] {
        let memo = FilteredMemo::with_capacity(MEMO_CAP_BYTES);
        // Lane groups `over_jobs` runs: each reads every chunk once.
        let groups = designs.chunks(designs.len().div_ceil(jobs)).count() as u64;
        let on_memo = || {
            over_jobs(jobs, &designs, |span, _| {
                LockStep::new(&app, seed).with_memo(&memo).run(span, refs)
            })
        };
        let cold = on_memo();
        assert_debug_eq(&cold, &oracle, &format!("cold, jobs={jobs}"));
        let after_cold = memo.stats();
        assert_eq!(after_cold.cached_chunks as u64, chunks(refs));

        let warm = on_memo();
        assert_debug_eq(&warm, &oracle, &format!("warm, jobs={jobs}"));
        let after_warm = memo.stats();
        assert_eq!(after_warm.hits - after_cold.hits, groups * chunks(refs));
        assert_eq!(after_warm.misses, after_cold.misses);

        let once = over_jobs(jobs, &designs, |span, _| {
            LockStep::new(&app, seed).read_once().run(span, refs)
        });
        assert_debug_eq(&once, &oracle, &format!("read_once, jobs={jobs}"));

        // A lane that panics at the start of its first block is dropped;
        // every other lane of its group replays both blocks unchanged.
        let faulted = 2;
        let outcomes = over_jobs(jobs, &designs, |span, offset| {
            LockStep::new(&app, seed)
                .with_memo(&memo)
                .with_injected_faults(&[faulted])
                .run_timed_isolated_span(span, refs, offset)
        });
        for (i, outcome) in outcomes.iter().enumerate() {
            let ctx = format!("isolated, jobs={jobs}, index {i}");
            if i == faulted {
                let e = outcome.as_ref().expect_err(&ctx);
                assert_eq!(e.index, faulted, "{ctx}");
            } else {
                let (report, _) = outcome.as_ref().expect(&ctx);
                assert_eq!(format!("{report:?}"), oracle[i], "{ctx}");
            }
        }
    }
}

#[test]
fn pre_tripped_token_cancels_before_any_chunk_is_fetched() {
    let app = AppProfile::game();
    let memo = FilteredMemo::with_capacity(MEMO_CAP_BYTES);
    let token = CancelToken::new();
    token.cancel();
    let designs = designs();
    let got = LockStep::new(&app, 0x3E30_0009)
        .with_memo(&memo)
        .try_run_timed_span(&designs, PAST_ONE_BLOCK, 0, designs.len(), &token);
    assert_eq!(got.err(), Some(Cancelled));
    let stats = memo.stats();
    assert_eq!((stats.hits, stats.misses), (0, 0), "{stats:?}");
}
