//! `telemetry_report` — aggregates a `repro --telemetry` JSONL stream
//! into a per-phase profile.
//!
//! Usage:
//!
//! ```text
//! telemetry_report PATH
//! ```
//!
//! Reads the stream written by `repro --telemetry PATH` (one
//! self-describing JSON object per line; see `DESIGN.md` § Telemetry &
//! profiling), validates that **every** line parses against the
//! emitted schema, and prints:
//!
//! * a per-scope profile table — sweep points, lock-step lane groups,
//!   and the nanoseconds each scope spent in trace generation vs cache
//!   simulation vs energy accounting, plus each scope's share of the
//!   total measured time. A lane group's shared front end is counted
//!   once (its `front_end` event), not once per lane;
//! * a worker-pool table (workers observed, items processed, busy time)
//!   when the run was parallel;
//! * checkpoint journal activity and the end-of-run trace-arena and
//!   filtered-memo snapshot, when present;
//! * MRC pruning decisions and search generations, when present;
//! * the event count per kind and the counter totals.
//!
//! Lines are validated against the engine's own schema table
//! ([`moca_sim::telemetry::KINDS`]): every kind the engine emits is
//! understood, and every field its row lists must be present. A
//! malformed line is a hard error naming the line number (exit 2): the
//! stream doubles as the CI fixture proving the JSONL emitter and
//! parser agree, so "mostly parses" is not good enough.

use std::collections::BTreeMap;
use std::process::ExitCode;

use moca_sim::table::Table;
use moca_sim::telemetry::{kind_spec, parse_line, JsonValue};

/// Per-scope accumulator for `point` and `front_end` events.
#[derive(Default)]
struct PhaseAgg {
    points: u64,
    /// Lock-step lane groups (`front_end` events).
    groups: u64,
    /// Trace time: each point's own (0 on the lock-step engine) plus
    /// each lane group's front end, once per group.
    gen_ns: u64,
    sim_ns: u64,
    energy_ns: u64,
}

impl PhaseAgg {
    fn total_ns(&self) -> u64 {
        self.gen_ns + self.sim_ns + self.energy_ns
    }
}

/// Per-`(scope, pool)` accumulator for `worker_stop` events.
#[derive(Default)]
struct PoolAgg {
    workers: u64,
    jobs: u64,
    items: u64,
    busy_ns: u64,
}

/// Totals over `mrc` events.
#[derive(Default)]
struct MrcAgg {
    profiles: u64,
    grid: u64,
    pruned: u64,
    simulated: u64,
    profile_ns: u64,
}

/// Totals over `search` events.
#[derive(Default)]
struct SearchAgg {
    generations: u64,
    pruned: u64,
    simulated: u64,
    cached: u64,
    eval_ns: u64,
}

/// Looks up a string field emitted by the telemetry renderer.
fn str_field<'a>(fields: &'a [(String, JsonValue)], key: &str) -> Result<&'a str, String> {
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, JsonValue::Str(s))) => Ok(s),
        Some(_) => Err(format!("field {key:?} is not a string")),
        None => Err(format!("missing field {key:?}")),
    }
}

/// Looks up a numeric field emitted by the telemetry renderer.
fn num_field(fields: &[(String, JsonValue)], key: &str) -> Result<u64, String> {
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, JsonValue::Num(n))) => Ok(*n),
        Some(_) => Err(format!("field {key:?} is not a number")),
        None => Err(format!("missing field {key:?}")),
    }
}

fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", part as f64 / whole as f64 * 100.0)
    }
}

/// Aggregated view of one stream; built line by line.
#[derive(Default)]
struct Report {
    events: usize,
    /// Events per kind.
    kinds: BTreeMap<&'static str, u64>,
    phases: BTreeMap<String, PhaseAgg>,
    pools: BTreeMap<(String, String), PoolAgg>,
    counters: BTreeMap<String, u64>,
    appends: u64,
    replays: u64,
    /// Last `arena` snapshot seen: (cached, capacity, hits, misses, rejected).
    arena: Option<(u64, u64, u64, u64, u64)>,
    /// The filtered-chunk memo half of the last `arena` snapshot:
    /// (chunks, bytes, capacity bytes, hits, misses, rejected).
    memo: Option<(u64, u64, u64, u64, u64, u64)>,
    /// Last `trace_io` snapshot seen:
    /// (files, chunks_decoded, bytes_read, decode_ns, checksum_verifies, decode_errors).
    trace_io: Option<(u64, u64, u64, u64, u64, u64)>,
    mrc: Option<MrcAgg>,
    search: Option<SearchAgg>,
}

impl Report {
    /// Folds one JSONL line into the aggregate.
    fn ingest(&mut self, line: &str) -> Result<(), String> {
        let fields = parse_line(line)?;
        let kind = str_field(&fields, "kind")?;
        let spec = kind_spec(kind).ok_or_else(|| format!("unknown event kind {kind:?}"))?;
        if let Some(missing) = spec
            .fields
            .iter()
            .find(|key| !fields.iter().any(|(k, _)| k == *key))
        {
            return Err(format!("{kind} event is missing field {missing:?}"));
        }
        self.events += 1;
        *self.kinds.entry(spec.kind).or_default() += 1;
        match spec.kind {
            "point" => {
                let agg = self
                    .phases
                    .entry(str_field(&fields, "scope")?.to_string())
                    .or_default();
                agg.points += 1;
                agg.gen_ns += num_field(&fields, "trace_gen_ns")?;
                agg.sim_ns += num_field(&fields, "sim_ns")?;
                agg.energy_ns += num_field(&fields, "energy_ns")?;
            }
            "front_end" => {
                let agg = self
                    .phases
                    .entry(str_field(&fields, "scope")?.to_string())
                    .or_default();
                agg.groups += 1;
                agg.gen_ns += num_field(&fields, "front_end_ns")?;
            }
            "worker_stop" => {
                let key = (
                    str_field(&fields, "scope")?.to_string(),
                    str_field(&fields, "pool")?.to_string(),
                );
                let agg = self.pools.entry(key).or_default();
                agg.workers += 1;
                agg.jobs = agg.jobs.max(num_field(&fields, "jobs")?);
                agg.items += num_field(&fields, "items")?;
                agg.busy_ns += num_field(&fields, "busy_ns")?;
            }
            // Starts carry no payload the stop doesn't repeat.
            "worker_start" => {}
            "checkpoint" => match str_field(&fields, "event")? {
                "append" => self.appends += 1,
                "replay" => self.replays += 1,
                other => return Err(format!("unknown checkpoint event {other:?}")),
            },
            "arena" => {
                self.arena = Some((
                    num_field(&fields, "cached_chunks")?,
                    num_field(&fields, "capacity_chunks")?,
                    num_field(&fields, "hits")?,
                    num_field(&fields, "misses")?,
                    num_field(&fields, "rejected")?,
                ));
                self.memo = Some((
                    num_field(&fields, "memo_chunks")?,
                    num_field(&fields, "memo_bytes")?,
                    num_field(&fields, "memo_capacity_bytes")?,
                    num_field(&fields, "memo_hits")?,
                    num_field(&fields, "memo_misses")?,
                    num_field(&fields, "memo_rejected")?,
                ));
            }
            "trace_io" => {
                self.trace_io = Some((
                    num_field(&fields, "files")?,
                    num_field(&fields, "chunks_decoded")?,
                    num_field(&fields, "bytes_read")?,
                    num_field(&fields, "decode_ns")?,
                    num_field(&fields, "checksum_verifies")?,
                    num_field(&fields, "decode_errors")?,
                ));
            }
            "counter" => {
                *self
                    .counters
                    .entry(str_field(&fields, "name")?.to_string())
                    .or_default() += num_field(&fields, "value")?;
            }
            "mrc" => {
                let agg = self.mrc.get_or_insert_with(MrcAgg::default);
                agg.profiles += 1;
                agg.grid += num_field(&fields, "grid")?;
                agg.pruned += num_field(&fields, "pruned")?;
                agg.simulated += num_field(&fields, "simulated")?;
                agg.profile_ns += num_field(&fields, "profile_ns")?;
            }
            "search" => {
                let agg = self.search.get_or_insert_with(SearchAgg::default);
                agg.generations += 1;
                agg.pruned += num_field(&fields, "evals_pruned")?;
                agg.simulated += num_field(&fields, "evals_simulated")?;
                agg.cached += num_field(&fields, "evals_cached")?;
                agg.eval_ns += num_field(&fields, "eval_ns")?;
            }
            // A schema row this report has no aggregate for is still
            // validated and counted above.
            _ => {}
        }
        Ok(())
    }

    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# telemetry report — {} event(s), {} scope(s) with sweep points\n\n",
            self.events,
            self.phases.len()
        ));

        let grand_total: u64 = self.phases.values().map(PhaseAgg::total_ns).sum();
        let mut profile = Table::new(vec![
            "scope", "points", "groups", "gen ms", "sim ms", "energy ms", "share",
        ]);
        for (scope, agg) in &self.phases {
            profile.row(vec![
                scope.clone(),
                agg.points.to_string(),
                agg.groups.to_string(),
                ms(agg.gen_ns),
                ms(agg.sim_ns),
                ms(agg.energy_ns),
                pct(agg.total_ns(), grand_total),
            ]);
        }
        if !profile.is_empty() {
            out.push_str("## per-scope profile\n\n");
            out.push_str(&profile.render());
            let gen: u64 = self.phases.values().map(|a| a.gen_ns).sum();
            let sim: u64 = self.phases.values().map(|a| a.sim_ns).sum();
            let energy: u64 = self.phases.values().map(|a| a.energy_ns).sum();
            out.push_str(&format!(
                "\nphase split: trace-gen {}, cache-sim {}, energy {}\n",
                pct(gen, grand_total),
                pct(sim, grand_total),
                pct(energy, grand_total)
            ));
        }

        if !self.pools.is_empty() {
            let mut pools = Table::new(vec!["scope", "pool", "workers", "jobs", "items", "busy ms"]);
            for ((scope, pool), agg) in &self.pools {
                pools.row(vec![
                    scope.clone(),
                    pool.clone(),
                    agg.workers.to_string(),
                    agg.jobs.to_string(),
                    agg.items.to_string(),
                    ms(agg.busy_ns),
                ]);
            }
            out.push_str("\n## worker pools\n\n");
            out.push_str(&pools.render());
        }

        if self.appends + self.replays > 0 {
            out.push_str(&format!(
                "\ncheckpoint journal: {} append(s), {} replay(s)\n",
                self.appends, self.replays
            ));
        }
        if let Some((cached, cap, hits, misses, rejected)) = self.arena {
            out.push_str(&format!(
                "trace arena: {cached}/{cap} chunk(s) cached, {hits} hit(s) / {misses} miss(es), {rejected} rejected\n"
            ));
        }
        if let Some((chunks, bytes, cap, hits, misses, rejected)) = self.memo {
            out.push_str(&format!(
                "filtered memo: {chunks} chunk(s) cached ({}/{} KiB), {hits} hit(s) / {misses} miss(es), {rejected} rejected\n",
                bytes / 1024,
                cap / 1024
            ));
        }
        if let Some((files, chunks, bytes, ns, verifies, errors)) = self.trace_io {
            out.push_str(&format!(
                "trace replay: {files} file(s), {chunks} chunk(s) decoded ({bytes} bytes, {} ms), \
                 {verifies} checksum(s) verified, {errors} decode error(s)\n",
                ms(ns)
            ));
        }
        if let Some(m) = &self.mrc {
            out.push_str(&format!(
                "mrc pruning: {} profile(s), {} grid point(s), {} pruned, {} simulated, {} ms profiling\n",
                m.profiles,
                m.grid,
                m.pruned,
                m.simulated,
                ms(m.profile_ns)
            ));
        }
        if let Some(s) = &self.search {
            out.push_str(&format!(
                "search: {} generation(s), {} evaluation(s) simulated, {} pruned, {} cached, {} ms evaluating\n",
                s.generations,
                s.simulated,
                s.pruned,
                s.cached,
                ms(s.eval_ns)
            ));
        }

        if !self.kinds.is_empty() {
            let mut kinds = Table::new(vec!["kind", "events"]);
            for (kind, n) in &self.kinds {
                kinds.row(vec![kind.to_string(), n.to_string()]);
            }
            out.push_str("\n## events by kind\n\n");
            out.push_str(&kinds.render());
        }

        if !self.counters.is_empty() {
            let mut counters = Table::new(vec!["counter", "total"]);
            for (name, value) in &self.counters {
                counters.row(vec![name.clone(), value.to_string()]);
            }
            out.push_str("\n## counters\n\n");
            out.push_str(&counters.render());
        }
        out
    }
}

fn run(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut report = Report::default();
    for (i, line) in text.lines().enumerate() {
        report
            .ingest(line)
            .map_err(|e| format!("{path}:{}: {e}", i + 1))?;
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        eprintln!("usage: telemetry_report PATH\n  PATH  JSONL stream written by `repro --telemetry PATH`");
        return ExitCode::from(2);
    };
    match run(path) {
        Ok(report) => {
            print!("{}", report.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("telemetry_report: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_sim::telemetry::{Event, JsonlRecorder, Recorder, KINDS};

    /// One event of every variant the engine can emit.
    fn one_of_each() -> Vec<Event> {
        let events = vec![
            Event::point("music", "sram-16", 0, 1, 5, 10, 5),
            Event::FrontEnd {
                app: "music".to_string(),
                index: 0,
                lanes: 1,
                refs: 8_192,
                front_end_ns: 7,
                memo_hits: 1,
                memo_misses: 0,
            },
            Event::WorkerStart {
                pool: "parallel_map",
                worker: 0,
                jobs: 2,
            },
            Event::WorkerStop {
                pool: "parallel_map",
                worker: 0,
                jobs: 2,
                items: 3,
                busy_ns: 30,
            },
            Event::Arena {
                cached_chunks: 3,
                capacity_chunks: 512,
                hits: 9,
                misses: 3,
                rejected: 0,
                memo_chunks: 2,
                memo_bytes: 81_920,
                memo_capacity_bytes: 1 << 26,
                memo_hits: 14,
                memo_misses: 2,
                memo_rejected: 1,
            },
            Event::TraceIo {
                files: 4,
                chunks_decoded: 148,
                bytes_read: 900_000,
                decode_ns: 123_456,
                checksum_verifies: 148,
                decode_errors: 0,
            },
            Event::Checkpoint {
                event: "append",
                key: "k".to_string(),
            },
            Event::Counter {
                name: "sim_batches",
                value: 4,
            },
            Event::Mrc {
                app: "game".to_string(),
                grid: 24,
                max_ways: 24,
                pruned: 20,
                simulated: 4,
                profile_ns: 1_000_000,
            },
            Event::Search {
                generation: 0,
                population: 8,
                front_size: 3,
                hv_permille: 412,
                evals_pruned: 2,
                evals_simulated: 5,
                evals_cached: 1,
                eval_ns: 2_000_000,
            },
        ];
        for event in &events {
            // No wildcard on purpose: a new variant stops this test
            // compiling until it is added to the list above.
            match event {
                Event::Point { .. }
                | Event::WorkerStart { .. }
                | Event::WorkerStop { .. }
                | Event::Arena { .. }
                | Event::TraceIo { .. }
                | Event::Checkpoint { .. }
                | Event::Counter { .. }
                | Event::Mrc { .. }
                | Event::Search { .. }
                | Event::FrontEnd { .. } => {}
            }
        }
        events
    }

    #[test]
    fn renders_one_of_every_event_variant() {
        let rec = JsonlRecorder::new();
        rec.set_scope("M1");
        for event in one_of_each() {
            match event {
                // Counters are synthesized from `add` at drain time.
                Event::Counter { name, value } => rec.add(name, value),
                event => rec.record(event),
            }
        }
        let mut stream = Vec::new();
        let lines = rec.write_jsonl(&mut stream).expect("in-memory write");
        let stream = String::from_utf8(stream).expect("utf-8");

        let mut r = Report::default();
        for line in stream.lines() {
            // Every line carries exactly the fields its schema row lists.
            let fields = parse_line(line).expect("rendered line parses");
            let spec = kind_spec(str_field(&fields, "kind").unwrap()).expect("known kind");
            let keys: Vec<&str> = fields[2..].iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, spec.fields, "{line}");
            r.ingest(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        assert_eq!(r.events, lines);
        let seen: Vec<&str> = r.kinds.keys().copied().collect();
        let mut every: Vec<&str> = KINDS.iter().map(|k| k.kind).collect();
        every.sort_unstable();
        assert_eq!(seen, every, "one line of every schema kind");
        let m1 = &r.phases["M1"];
        assert_eq!(
            (m1.points, m1.groups, m1.gen_ns, m1.sim_ns, m1.energy_ns),
            (1, 1, 12, 10, 5)
        );
        let pool = &r.pools[&("M1".to_string(), "parallel_map".to_string())];
        assert_eq!((pool.workers, pool.items, pool.busy_ns), (1, 3, 30));
        assert_eq!((r.appends, r.replays), (1, 0));
        assert_eq!(r.arena, Some((3, 512, 9, 3, 0)));
        assert_eq!(r.memo, Some((2, 81_920, 1 << 26, 14, 2, 1)));
        assert_eq!(r.trace_io, Some((4, 148, 900_000, 123_456, 148, 0)));
        assert_eq!(r.counters["sim_batches"], 4);

        let rendered = r.render();
        for needle in [
            "per-scope profile",
            "worker pools",
            "checkpoint journal: 1 append(s)",
            "trace arena: 3/512",
            "filtered memo: 2 chunk(s) cached (80/65536 KiB), 14 hit(s) / 2 miss(es), 1 rejected",
            "trace replay: 4 file(s)",
            "mrc pruning: 1 profile(s), 24 grid point(s), 20 pruned, 4 simulated",
            "search: 1 generation(s), 5 evaluation(s) simulated, 2 pruned, 1 cached",
            "events by kind",
            "sim_batches",
        ] {
            assert!(
                rendered.contains(needle),
                "missing {needle:?} in:\n{rendered}"
            );
        }
    }

    #[test]
    fn ingests_every_emitted_kind() {
        let mut r = Report::default();
        let lines = [
            r#"{"v":1,"kind":"point","scope":"F3","app":"music","design":"d","index":0,"total":2,"trace_gen_ns":5,"sim_ns":10,"energy_ns":5}"#,
            r#"{"v":1,"kind":"point","scope":"F3","app":"music","design":"e","index":1,"total":2,"trace_gen_ns":0,"sim_ns":20,"energy_ns":0}"#,
            r#"{"v":1,"kind":"worker_start","scope":"F3","pool":"parallel_map","worker":0,"jobs":2}"#,
            r#"{"v":1,"kind":"worker_stop","scope":"F3","pool":"parallel_map","worker":0,"jobs":2,"items":2,"busy_ns":30}"#,
            r#"{"v":1,"kind":"checkpoint","scope":"F3","event":"append","key":"k"}"#,
            r#"{"v":1,"kind":"checkpoint","scope":"F3","event":"replay","key":"k"}"#,
            r#"{"v":1,"kind":"arena","cached_chunks":3,"capacity_chunks":512,"hits":9,"misses":3,"rejected":0,"memo_chunks":5,"memo_bytes":2048,"memo_capacity_bytes":4096,"memo_hits":6,"memo_misses":5,"memo_rejected":0}"#,
            r#"{"v":1,"kind":"trace_io","files":4,"chunks_decoded":148,"bytes_read":900000,"decode_ns":123456,"checksum_verifies":148,"decode_errors":0}"#,
            r#"{"v":1,"kind":"counter","name":"sim_batches","value":4}"#,
        ];
        for line in lines {
            r.ingest(line).unwrap();
        }
        assert_eq!(r.events, lines.len());
        let f3 = &r.phases["F3"];
        assert_eq!((f3.points, f3.gen_ns, f3.sim_ns, f3.energy_ns), (2, 5, 30, 5));
        let pool = &r.pools[&("F3".to_string(), "parallel_map".to_string())];
        assert_eq!((pool.workers, pool.items, pool.busy_ns), (1, 2, 30));
        assert_eq!((r.appends, r.replays), (1, 1));
        assert_eq!(r.arena, Some((3, 512, 9, 3, 0)));
        assert_eq!(r.memo, Some((5, 2048, 4096, 6, 5, 0)));
        assert_eq!(r.trace_io, Some((4, 148, 900000, 123456, 148, 0)));
        assert_eq!(r.counters["sim_batches"], 4);
        let rendered = r.render();
        assert!(rendered.contains("per-scope profile"));
        assert!(rendered.contains("worker pools"));
        assert!(rendered.contains("sim_batches"));
        assert!(rendered.contains("trace replay: 4 file(s), 148 chunk(s) decoded"));
        assert!(
            rendered.contains("filtered memo: 5 chunk(s) cached (2/4 KiB), 6 hit(s) / 5 miss(es)")
        );
    }

    #[test]
    fn front_end_time_counts_once_per_lane_group() {
        // A five-lane group: the points carry only replay and finish
        // time, and the group's 1 ms front end is counted once, not five
        // times.
        let mut r = Report::default();
        for i in 0..5 {
            r.ingest(&format!(
                r#"{{"v":1,"kind":"point","scope":"F1","app":"game","design":"d{i}","index":{i},"total":5,"trace_gen_ns":0,"sim_ns":2000000,"energy_ns":0}}"#
            ))
            .unwrap();
        }
        r.ingest(r#"{"v":1,"kind":"front_end","scope":"F1","app":"game","index":0,"lanes":5,"refs":1048576,"front_end_ns":1000000,"memo_hits":0,"memo_misses":128}"#)
            .unwrap();
        let f1 = &r.phases["F1"];
        assert_eq!(
            (f1.points, f1.groups, f1.gen_ns, f1.sim_ns),
            (5, 1, 1_000_000, 10_000_000)
        );
        let rendered = r.render();
        assert!(
            rendered.contains("phase split: trace-gen 9.1%, cache-sim 90.9%, energy 0.0%"),
            "{rendered}"
        );
    }

    #[test]
    fn rejects_malformed_and_unknown_lines() {
        let mut r = Report::default();
        assert!(r.ingest("not json").is_err());
        assert!(r
            .ingest(r#"{"v":1,"kind":"mystery","scope":"F3"}"#)
            .is_err());
        assert!(r
            .ingest(r#"{"v":1,"kind":"point","scope":"F3"}"#)
            .is_err(),
            "point without timing fields must be rejected");
    }

    #[test]
    fn share_handles_empty_stream() {
        let r = Report::default();
        let rendered = r.render();
        assert!(rendered.contains("0 event(s)"));
    }
}
