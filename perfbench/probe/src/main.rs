//! `moca_perfbench` — the compiled half of the moca benchmark
//! (`perfbench/run.py` drives it and the release binaries).
//!
//! ```text
//! moca_perfbench search --seed N
//! moca_perfbench calibrate
//! moca_perfbench serve-client --socket PATH --seed N --conns 1|2
//! moca_perfbench probe-suite [--no-spans]
//! moca_perfbench probe-search --seed N [--no-spans]
//! moca_perfbench probe-serve --seed N --journal DIR --keys FILE --work DIR [--no-spans]
//! ```
//!
//! `search` is the `search-full` unit: it prints `ready`, runs the
//! full-scale S1 search through `moca_search::run_search`, prints the
//! rendered outcome and a `#summary` line. The `probe-*` commands are
//! the traced runs: they call each layer's public functions inside
//! spans and print the spans and counters as JSON lines, then a
//! `#wall_ns` line. With `--no-spans` they do the same work unrecorded,
//! which measures the tracing overhead.

mod host;
mod layers;
mod script;
mod spans;

use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use moca_core::L2Design;
use moca_search::{experiment, run_search, SearchConfig};
use moca_sim::parallel::Jobs;
use moca_sim::workloads::Scale;
use moca_sim::{ChunkArena, EXPERIMENT_SEED};
use moca_trace::AppProfile;

use spans::Tracer;

/// Worker threads of every run: the benchmark is sized for 2 CPUs.
const JOBS: usize = 2;

/// References per point of the `suite-quick` probe (`Scale::Quick`).
const SUITE_REFS: usize = 1_000_000;

/// Cold identities the `serve-mixed` probe replays layer by layer.
const SERVE_PROBE_IDENTITIES: usize = 2;

struct Args {
    seed: u64,
    spans: bool,
    socket: Option<PathBuf>,
    conns: usize,
    journal: Option<PathBuf>,
    keys: Option<PathBuf>,
    work: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 0,
        spans: true,
        socket: None,
        conns: 2,
        journal: None,
        keys: None,
        work: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag {
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--conns" => a.conns = value()?.parse().map_err(|e| format!("--conns: {e}"))?,
            "--socket" => a.socket = Some(PathBuf::from(value()?)),
            "--journal" => a.journal = Some(PathBuf::from(value()?)),
            "--keys" => a.keys = Some(PathBuf::from(value()?)),
            "--work" => a.work = Some(PathBuf::from(value()?)),
            "--no-spans" => a.spans = false,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if !(1..=2).contains(&a.conns) {
        return Err("--conns must be 1 or 2".to_string());
    }
    Ok(a)
}

fn required(p: &Option<PathBuf>, name: &str) -> Result<PathBuf, String> {
    p.clone().ok_or_else(|| format!("{name} is required"))
}

/// The search of search seed `n`: `EXPERIMENT_SEED + n`, so seed 0 is
/// the repository's own S1 search.
fn search_config(n: u64) -> SearchConfig {
    let mut cfg = SearchConfig::for_scale(Scale::Full);
    cfg.seed = EXPERIMENT_SEED.wrapping_add(n);
    cfg
}

fn jobs() -> Jobs {
    Jobs::new(JOBS)
}

fn search(seed: u64) -> Result<(), String> {
    let cfg = search_config(seed);
    let mut out = io::stdout().lock();
    writeln!(out, "ready")
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    let outcome = run_search(&cfg, jobs(), None, None)
        .map_err(|e| format!("search: {e}"))?
        .ok_or("uncancelled search returned no outcome")?;
    let passed = experiment::result_from(&outcome).passed();
    let arena = ChunkArena::global().stats();
    let sum = |f: fn(&moca_search::GenStats) -> u32| outcome.stats.iter().map(f).sum::<u32>();
    write!(out, "{}", outcome.render()).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "#summary {{\"claims_pass\":{passed},\"evaluated\":{},\"pruned\":{},\"simulated\":{},\
         \"cached\":{},\"archive\":{},\"arena_hits\":{},\"arena_misses\":{},\"arena_rejected\":{}}}",
        sum(|g| g.evaluated),
        sum(|g| g.pruned),
        sum(|g| g.simulated),
        sum(|g| g.cached),
        outcome.archive.len(),
        arena.hits,
        arena.misses,
        arena.rejected
    )
    .map_err(|e| e.to_string())
}

/// `suite-quick`'s dominant unit: every suite app under the baseline,
/// the static (C7) and the dynamic (C8) design at quick scale.
fn probe_suite(t: &mut Tracer) -> Result<(), String> {
    let designs = [
        L2Design::baseline(),
        L2Design::static_default(),
        L2Design::dynamic_default(),
    ];
    for app in AppProfile::suite() {
        layers::replay_points(t, &app, EXPERIMENT_SEED, SUITE_REFS, &designs)?;
    }
    Ok(())
}

/// `search-full`: the search itself (its arena and outcome counters),
/// then its trace identity probed layer by layer with the baseline, C7
/// and C8 replayed over it, then one ranking per generation.
fn probe_search(t: &mut Tracer, seed: u64) -> Result<(), String> {
    let cfg = search_config(seed);
    let outcome = t
        .span("search.run", |_| run_search(&cfg, jobs(), None, None))
        .map_err(|e| format!("search: {e}"))?
        .ok_or("uncancelled search returned no outcome")?;
    let arena = ChunkArena::global().stats();
    t.add("sim.arena.hits", arena.hits as f64);
    t.add("sim.arena.misses", arena.misses as f64);
    t.add("sim.arena.rejected", arena.rejected as f64);
    for g in &outcome.stats {
        t.add("search.evaluated", f64::from(g.evaluated));
        t.add("search.pruned", f64::from(g.pruned));
        t.add("search.simulated", f64::from(g.simulated));
        t.add("search.cached", f64::from(g.cached));
    }
    if !experiment::result_from(&outcome).passed() {
        t.add("probe.mismatch", 1.0);
    }
    let app = AppProfile::by_name(&cfg.app).ok_or("unknown search app")?;
    let designs = [
        L2Design::baseline(),
        L2Design::static_default(),
        L2Design::dynamic_default(),
    ];
    layers::replay_identity(t, &app, cfg.seed, cfg.refs, &designs)?;
    layers::rank(t, &outcome);
    Ok(())
}

/// `serve-mixed`: the first cold identities' sweeps replayed layer by
/// layer, then the journal the daemon wrote reopened and re-appended.
fn probe_serve(t: &mut Tracer, a: &Args) -> Result<(), String> {
    let items = script::build(a.seed);
    for item in items
        .iter()
        .filter(|i| i.kind == "cold")
        .take(SERVE_PROBE_IDENTITIES)
    {
        let moca_serve::Request::Sweep(req) = &item.request else {
            return Err("cold items are sweeps".to_string());
        };
        let app = AppProfile::by_name(&req.app).ok_or("unknown sweep app")?;
        let designs = moca_serve::spec::parse_designs(&req.designs)?;
        layers::replay_points(t, &app, req.seed, req.refs, &designs)?;
    }
    let keys_file = required(&a.keys, "--keys")?;
    let keys: Vec<String> = std::fs::read_to_string(&keys_file)
        .map_err(|e| format!("{}: {e}", keys_file.display()))?
        .lines()
        .map(str::to_string)
        .collect();
    layers::journal(
        t,
        &required(&a.journal, "--journal")?,
        &keys,
        &required(&a.work, "--work")?,
    )
}

fn run(cmd: &str, a: &Args) -> Result<(), String> {
    if cmd == "search" {
        return search(a.seed);
    }
    if cmd == "calibrate" {
        println!("{}", host::calibrate(JOBS));
        return Ok(());
    }
    if cmd == "serve-client" {
        let socket = required(&a.socket, "--socket")?;
        let items = script::build(a.seed);
        return script::run_client(&socket, &items, a.conns).map_err(|e| format!("client: {e}"));
    }
    let mut t = Tracer::new(a.spans);
    t.add("probe.mismatch", 0.0);
    match cmd {
        "probe-suite" => probe_suite(&mut t)?,
        "probe-search" => probe_search(&mut t, a.seed)?,
        "probe-serve" => probe_serve(&mut t, a)?,
        other => return Err(format!("unknown command {other:?}")),
    }
    let wall_ns = t.elapsed_ns();
    let mut out = io::stdout().lock();
    t.write_jsonl(&mut out)
        .and_then(|()| writeln!(out, "#wall_ns {wall_ns}"))
        .map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: moca_perfbench <search|calibrate|serve-client|probe-suite|probe-search|probe-serve> [args]");
        return ExitCode::from(2);
    };
    let result = parse(rest).and_then(|a| run(cmd, &a));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("moca_perfbench {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}
