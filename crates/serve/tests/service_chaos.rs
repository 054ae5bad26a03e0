//! End-to-end service chaos: the full server driven over real socket
//! pairs with deterministic faults — disconnects mid-stream, stalled
//! writers, pre-expired deadlines, drain-while-busy, journal
//! corruption, and kill/restart recovery. No sleeps anywhere: every
//! ordering is forced by channel blocking, queue order, or scripted
//! streams.
#![cfg(unix)]

use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;

use moca_serve::proto::{
    read_frame, write_frame, ExpRequest, Request, Response, SearchRequest, SweepRequest,
};
use moca_serve::{ExecutorLatch, Server, ServerConfig};
use moca_sim::checkpoint::{experiment_key, sweep_checkpointed, write_checkpoint_csv, Journal};
use moca_sim::parallel::Jobs;
use moca_sim::workloads::Scale;
use moca_testkit::{SlowWriter, StallPlan};
use moca_trace::AppProfile;

const SWEEP_REFS: usize = 6_000;
const SWEEP_SEED: u64 = 11;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("moca-serve-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(dir: &std::path::Path, jobs: usize) -> Arc<Server> {
    let mut config = ServerConfig::new(dir);
    config.scale = Scale::Quick;
    config.jobs = Jobs::new(jobs);
    Arc::new(Server::start(config).expect("server starts"))
}

fn stop(server: &Arc<Server>) {
    server.begin_drain();
    server.join();
}

fn sweep_request(designs: &[&str], deadline_ms: Option<u64>) -> Request {
    Request::Sweep(SweepRequest {
        client: "chaos".to_string(),
        app: "game".to_string(),
        seed: SWEEP_SEED,
        refs: SWEEP_REFS,
        designs: designs.iter().map(|s| s.to_string()).collect(),
        deadline_ms,
    })
}

/// Sends one request over a fresh socket pair and collects replies up
/// to (and including) the terminal one.
fn roundtrip(server: &Arc<Server>, request: &Request) -> Vec<Response> {
    let (client, served) = UnixStream::pair().expect("socketpair");
    let handler = {
        let server = Arc::clone(server);
        std::thread::spawn(move || server.serve_connection(served))
    };
    let mut client = client;
    write_frame(&mut client, &request.encode()).expect("send");
    let replies = read_until_terminal(&mut client);
    drop(client);
    handler.join().expect("handler").expect("connection ok");
    replies
}

fn read_until_terminal(stream: &mut UnixStream) -> Vec<Response> {
    let mut replies = Vec::new();
    loop {
        let payload = read_frame(stream)
            .expect("reply frame")
            .expect("terminal reply before close");
        let response = Response::decode(&payload).expect("decodable reply");
        let terminal = response.is_terminal();
        replies.push(response);
        if terminal {
            return replies;
        }
    }
}

fn terminal(replies: &[Response]) -> &Response {
    replies.last().expect("non-empty reply stream")
}

fn sweep_csv(replies: &[Response]) -> &str {
    match terminal(replies) {
        Response::SweepResult { csv } => csv,
        other => panic!("expected a sweep result, got {other:?}"),
    }
}

/// Event lines of a reply stream (the JSONL payloads).
fn event_lines(replies: &[Response]) -> Vec<&str> {
    replies
        .iter()
        .filter_map(|r| match r {
            Response::Event { line } => Some(line.as_str()),
            _ => None,
        })
        .collect()
}

#[test]
fn served_sweep_is_byte_identical_to_direct_engine_output() {
    let designs = ["baseline", "static", "dynamic", "sram:8"];

    // Direct engine reference, separate journal.
    let ref_dir = temp_dir("ref");
    let mut journal = Journal::open(&ref_dir).expect("journal");
    let app = AppProfile::by_name("game").expect("app");
    let points = sweep_checkpointed(
        &mut journal,
        &designs
            .iter()
            .map(|s| moca_serve::spec::parse_design(s).expect("spec"))
            .collect::<Vec<_>>(),
        |d| *d,
        &app,
        SWEEP_REFS,
        SWEEP_SEED,
        Jobs::SERIAL,
    )
    .expect("direct sweep");
    let mut expected = Vec::new();
    write_checkpoint_csv(&mut expected, &points).expect("csv");
    let expected = String::from_utf8(expected).expect("utf8");

    // Server runs at jobs 1 and jobs 2 in separate journals: all three
    // renderings must match byte-for-byte.
    for jobs in [1usize, 2] {
        let dir = temp_dir(&format!("ident-j{jobs}"));
        let server = start(&dir, jobs);
        let replies = roundtrip(&server, &sweep_request(&designs, None));
        assert_eq!(sweep_csv(&replies), expected, "jobs={jobs}");
        // First run simulates everything: all events are appends.
        let events = event_lines(&replies);
        assert!(
            events.iter().any(|l| l.contains("\"event\":\"append\"")),
            "append events streamed: {events:?}"
        );
        assert!(!events.iter().any(|l| l.contains("\"event\":\"replay\"")));
        stop(&server);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
    std::fs::remove_dir_all(&ref_dir).expect("cleanup");
}

#[test]
fn duplicate_requests_dedup_through_the_result_cache() {
    let dir = temp_dir("dedup");
    let server = start(&dir, 1);
    let request = sweep_request(&["baseline", "sram:4"], None);

    let first = roundtrip(&server, &request);
    let second = roundtrip(&server, &request);
    assert_eq!(sweep_csv(&first), sweep_csv(&second), "dedup is byte-stable");
    let events = event_lines(&second);
    assert!(
        events.iter().any(|l| l.contains("\"event\":\"replay\"")),
        "second submission replays from the journal: {events:?}"
    );
    assert!(
        !events.iter().any(|l| l.contains("\"event\":\"append\"")),
        "nothing re-simulated: {events:?}"
    );
    stop(&server);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn expired_deadline_fails_uncached_work_but_serves_cached_work() {
    let dir = temp_dir("deadline");
    let server = start(&dir, 1);

    // deadline_ms=0 expires at admission; nothing is cached yet.
    let replies = roundtrip(&server, &sweep_request(&["baseline"], Some(0)));
    match terminal(&replies) {
        Response::Error { class, .. } => assert_eq!(class, "deadline"),
        other => panic!("expected a deadline error, got {other:?}"),
    }

    // Warm the cache without a deadline, then the same pre-expired
    // request succeeds: replay costs no computation.
    let warm = roundtrip(&server, &sweep_request(&["baseline"], None));
    let cached = roundtrip(&server, &sweep_request(&["baseline"], Some(0)));
    assert_eq!(sweep_csv(&warm), sweep_csv(&cached));
    stop(&server);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn disconnect_mid_stream_never_loses_the_accepted_request() {
    let dir = temp_dir("disconnect");
    let server = start(&dir, 1);
    let request = sweep_request(&["baseline", "static", "sram:8"], None);

    // Submit, read only the `queued` ack, then vanish.
    {
        let (mut client, served) = UnixStream::pair().expect("socketpair");
        let handler = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.serve_connection(served))
        };
        write_frame(&mut client, &request.encode()).expect("send");
        let ack = read_frame(&mut client).expect("ack").expect("present");
        assert!(matches!(
            Response::decode(&ack).expect("decode"),
            Response::Queued { .. }
        ));
        drop(client); // abrupt disconnect while the job is queued/running
        handler.join().expect("handler").expect("handler closes cleanly");
    }

    // The job still ran to completion and journaled: an identical
    // request (executed strictly after it, queue order) is a pure
    // replay.
    let replies = roundtrip(&server, &request);
    let events = event_lines(&replies);
    assert!(
        events.iter().any(|l| l.contains("\"event\":\"replay\"")),
        "results survived the disconnect: {events:?}"
    );
    assert!(!events.iter().any(|l| l.contains("\"event\":\"append\"")));
    stop(&server);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn served_search_replays_its_result_and_resumes_from_generation_checkpoints() {
    let dir = temp_dir("search");
    let server = start(&dir, 2);
    let request = |deadline_ms| {
        Request::Search(SearchRequest {
            client: "chaos".to_string(),
            app: "game".to_string(),
            seed: 0xD0_0DAD,
            refs: SWEEP_REFS,
            population: 4,
            generations: 2,
            deadline_ms,
        })
    };

    let first = roundtrip(&server, &request(None));
    let rendered = match terminal(&first) {
        Response::SearchResult { rendered } => rendered.clone(),
        other => panic!("expected a search result, got {other:?}"),
    };
    assert!(rendered.contains("design-space search:"), "report rendered: {rendered}");
    let events = event_lines(&first);
    assert!(
        events.iter().any(|l| l.contains("\"kind\":\"search\"")),
        "per-generation search events streamed: {events:?}"
    );

    // Identical request: served from the journal, byte-identical, and
    // immune to a pre-expired deadline (replay costs nothing).
    let second = roundtrip(&server, &request(Some(0)));
    match terminal(&second) {
        Response::SearchResult { rendered: got } => assert_eq!(got, &rendered),
        other => panic!("expected a replayed search result, got {other:?}"),
    }
    let events = event_lines(&second);
    assert!(
        events.iter().any(|l| l.contains("\"event\":\"replay\"")),
        "second submission replays: {events:?}"
    );
    assert!(!events.iter().any(|l| l.contains("\"kind\":\"search\"")));

    // A *different* search with a pre-expired deadline fails fast with
    // the resumable-deadline contract, without burning generations.
    let expired = roundtrip(
        &server,
        &Request::Search(SearchRequest {
            client: "chaos".to_string(),
            app: "game".to_string(),
            seed: 0xBEEF,
            refs: SWEEP_REFS,
            population: 4,
            generations: 2,
            deadline_ms: Some(0),
        }),
    );
    match terminal(&expired) {
        Response::Error { class, message } => {
            assert_eq!(class, "deadline");
            assert!(message.contains("resubmit to resume"), "resume hint: {message}");
        }
        other => panic!("expected a deadline error, got {other:?}"),
    }

    // Bad search parameters skip the queue entirely.
    let bad = roundtrip(
        &server,
        &Request::Search(SearchRequest {
            client: "chaos".to_string(),
            app: "game".to_string(),
            seed: 1,
            refs: SWEEP_REFS,
            population: 1, // below the floor of 2
            generations: 2,
            deadline_ms: None,
        }),
    );
    match terminal(&bad) {
        Response::Error { class, .. } => assert_eq!(class, "badrequest"),
        other => panic!("expected badrequest, got {other:?}"),
    }
    assert_eq!(server.queue_len(), 0);
    stop(&server);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn queued_to_quota_disconnect_neither_leaks_nor_bypasses_quota() {
    let dir = temp_dir("quota-disconnect");
    let latch = ExecutorLatch::closed();
    let mut config = ServerConfig::new(&dir).with_latch(Arc::clone(&latch));
    config.scale = Scale::Quick;
    config.jobs = Jobs::new(1);
    config.client_quota = 1;
    let server = Arc::new(Server::start(config).expect("server starts"));

    let req = |client: &str, designs: &[&str], refs: usize| {
        Request::Sweep(SweepRequest {
            client: client.to_string(),
            app: "game".to_string(),
            seed: SWEEP_SEED,
            refs,
            designs: designs.iter().map(|s| s.to_string()).collect(),
            deadline_ms: None,
        })
    };

    // A job from an unrelated client holds the single executor at the
    // closed latch, pinning everything submitted after it in the queue
    // until the test opens the latch.
    let blocker = req("blocker", &["static"], SWEEP_REFS);
    let (mut blocker_conn, served) = UnixStream::pair().expect("socketpair");
    let blocker_handler = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve_connection(served))
    };
    write_frame(&mut blocker_conn, &blocker.encode()).expect("send blocker");
    let ack = read_frame(&mut blocker_conn).expect("ack").expect("present");
    assert!(matches!(
        Response::decode(&ack).expect("decode"),
        Response::Queued { .. }
    ));

    // "chaos" queues to its quota of one, then vanishes. Its handler
    // keeps draining the orphan's replies until the job completes, so
    // it can only be joined once the latch is open.
    let orphan = req("chaos", &["baseline"], SWEEP_REFS);
    let orphan_handler = {
        let (mut conn, served) = UnixStream::pair().expect("socketpair");
        let handler = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.serve_connection(served))
        };
        write_frame(&mut conn, &orphan.encode()).expect("send orphan");
        let ack = read_frame(&mut conn).expect("ack").expect("present");
        assert!(matches!(
            Response::decode(&ack).expect("decode"),
            Response::Queued { .. }
        ));
        drop(conn); // disconnect with the job still queued
        handler
    };

    // The orphaned job still charges the quota: an immediate resubmit
    // sheds instead of letting the reconnecting client double-book.
    let shed = roundtrip(&server, &req("chaos", &["static"], SWEEP_REFS));
    match terminal(&shed) {
        Response::Overloaded { reason, cap, .. } => {
            assert_eq!(reason, "client-quota");
            assert_eq!(*cap, 1);
        }
        other => panic!("expected a client-quota shed, got {other:?}"),
    }

    // Synchronize on completion without sleeping: once released, the
    // blocker's terminal reply proves the executor moved past it...
    latch.open();
    let replies = read_until_terminal(&mut blocker_conn);
    assert!(matches!(terminal(&replies), Response::SweepResult { .. }));
    drop(blocker_conn);
    blocker_handler.join().expect("handler").expect("connection ok");
    orphan_handler
        .join()
        .expect("handler")
        .expect("handler closes cleanly");

    // ...and a second client replaying the orphan's identity queues
    // strictly behind it, so this terminal proves the orphan ran to
    // completion (and journaled) despite the disconnect.
    let probe = roundtrip(&server, &req("probe", &["baseline"], SWEEP_REFS));
    let events = event_lines(&probe);
    assert!(
        events.iter().any(|l| l.contains("\"event\":\"replay\"")),
        "orphan ran to completion: {events:?}"
    );

    // Completion released the quota — not the disconnect, and not a
    // leak: the client's resubmit is admitted and replays the orphan's
    // journaled result.
    let again = roundtrip(&server, &req("chaos", &["baseline"], SWEEP_REFS));
    assert!(matches!(terminal(&again), Response::SweepResult { .. }));
    stop(&server);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A scripted connection: requests come from a fixed buffer, replies go
/// through a deterministically stalling writer.
struct ScriptedStream {
    read: io::Cursor<Vec<u8>>,
    write: SlowWriter<Vec<u8>>,
}

impl Read for ScriptedStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.read.read(buf)
    }
}

impl Write for ScriptedStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.write.flush()
    }
}

#[test]
fn slow_loris_client_is_cut_off_but_its_job_completes() {
    let dir = temp_dir("loris");
    let server = start(&dir, 1);
    let request = sweep_request(&["baseline"], None);

    let mut wire = Vec::new();
    write_frame(&mut wire, &request.encode()).expect("script request");
    let stream = ScriptedStream {
        read: io::Cursor::new(wire),
        // Every reply write times out, like a peer that never drains
        // its receive buffer.
        write: SlowWriter::new(Vec::new(), StallPlan::new(5).with_stall_rate(1, 1)),
    };
    let err = server
        .serve_connection(stream)
        .expect_err("stalled reply surfaces as an i/o error");
    assert_eq!(err.kind(), io::ErrorKind::TimedOut);

    // The admitted job was not cancelled by the write failure: the
    // rerun replays from the journal.
    let replies = roundtrip(&server, &request);
    let events = event_lines(&replies);
    assert!(
        events.iter().any(|l| l.contains("\"event\":\"replay\"")),
        "job survived the slow-loris cutoff: {events:?}"
    );
    stop(&server);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn drain_sheds_new_work_finishes_accepted_work_and_terminates() {
    let dir = temp_dir("drain");
    let server = start(&dir, 1);

    // Accepted before the drain: must complete.
    let (mut client, served) = UnixStream::pair().expect("socketpair");
    let handler = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve_connection(served))
    };
    write_frame(&mut client, &sweep_request(&["static"], None).encode()).expect("send");
    let ack = read_frame(&mut client).expect("ack").expect("present");
    assert!(matches!(
        Response::decode(&ack).expect("decode"),
        Response::Queued { .. }
    ));

    server.begin_drain();

    // Submitted after the drain: structured shed, not a hang.
    let shed = roundtrip(&server, &sweep_request(&["baseline"], None));
    match terminal(&shed) {
        Response::Overloaded { reason, .. } => assert_eq!(reason, "draining"),
        other => panic!("expected overloaded/draining, got {other:?}"),
    }

    // The pre-drain job still delivers its result.
    let replies = read_until_terminal(&mut client);
    assert!(matches!(terminal(&replies), Response::SweepResult { .. }));
    drop(client);
    handler.join().expect("handler").expect("connection ok");

    // And the executor terminates with the accepted job accounted for.
    let summary = server.join().expect("executor summary");
    assert_eq!(summary.completed, 1, "exactly the accepted job ran");
    assert!(summary.journal_entries > 0, "its results were journaled");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn restart_after_kill_replays_from_the_journal_even_when_corrupted() {
    let dir = temp_dir("restart");
    let request = sweep_request(&["baseline", "dynamic"], None);

    // First server lifetime: complete the sweep, then stop without any
    // special teardown (journal writes are flushed per record, so this
    // models a SIGKILL landing after the last record).
    let server = start(&dir, 1);
    let first = roundtrip(&server, &request);
    stop(&server);

    // Corrupt the journal the way a crash would: a torn final line,
    // plus some scribbled garbage.
    {
        let path = dir.join(Journal::FILE_NAME);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("journal exists");
        f.write_all(b"garbage line with no structure\n").expect("append");
        f.write_all(b"pt:dead,0123").expect("torn tail");
    }

    // Second lifetime: valid records replay byte-identically; the
    // corruption is skipped, not fatal.
    let server = start(&dir, 1);
    let second = roundtrip(&server, &request);
    assert_eq!(sweep_csv(&first), sweep_csv(&second));
    let events = event_lines(&second);
    assert!(
        events.iter().all(|l| !l.contains("\"event\":\"append\"")),
        "nothing re-simulated after restart: {events:?}"
    );
    stop(&server);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn experiment_requests_share_the_repro_journal_cache() {
    let dir = temp_dir("exp-cache");

    // Seed the journal exactly as `repro --checkpoint --quick F3`
    // would: same key, some rendered payload.
    let key = experiment_key("F3", "Quick", moca_sim::EXPERIMENT_SEED);
    let rendered = "## F3 — seeded block\n\nnot re-run\n\n";
    {
        let mut journal = Journal::open(&dir).expect("journal");
        journal.record(&key, rendered).expect("seed record");
    }

    let server = start(&dir, 1);
    let replies = roundtrip(
        &server,
        &Request::Exp(ExpRequest {
            client: "chaos".to_string(),
            id: "F3".to_string(),
            mrc: false,
            deadline_ms: None,
        }),
    );
    match terminal(&replies) {
        Response::ExpResult { rendered: got } => assert_eq!(got, rendered),
        other => panic!("expected an experiment result, got {other:?}"),
    }
    let events = event_lines(&replies);
    assert!(
        events.iter().any(|l| l.contains("\"event\":\"replay\"") && l.contains(&key)),
        "served from the shared cache: {events:?}"
    );

    // A pre-expired deadline on a *cached* experiment still succeeds...
    let cached = roundtrip(
        &server,
        &Request::Exp(ExpRequest {
            client: "chaos".to_string(),
            id: "F3".to_string(),
            mrc: false,
            deadline_ms: Some(0),
        }),
    );
    assert!(matches!(terminal(&cached), Response::ExpResult { .. }));
    // ...while an uncached one fails fast with a deadline error instead
    // of burning minutes of simulation.
    let uncached = roundtrip(
        &server,
        &Request::Exp(ExpRequest {
            client: "chaos".to_string(),
            id: "F1".to_string(),
            mrc: false,
            deadline_ms: Some(0),
        }),
    );
    match terminal(&uncached) {
        Response::Error { class, .. } => assert_eq!(class, "deadline"),
        other => panic!("expected a deadline error, got {other:?}"),
    }
    stop(&server);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn protocol_faults_get_structured_errors_and_bad_requests_skip_the_queue() {
    let dir = temp_dir("faults");
    let server = start(&dir, 1);

    // Garbage inside a valid frame: structured error, connection stays
    // usable for the next request.
    {
        let (mut client, served) = UnixStream::pair().expect("socketpair");
        let handler = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.serve_connection(served))
        };
        write_frame(&mut client, b"summon the demons").expect("send");
        let replies = read_until_terminal(&mut client);
        match terminal(&replies) {
            Response::Error { class, .. } => assert_eq!(class, "protocol"),
            other => panic!("expected protocol error, got {other:?}"),
        }
        write_frame(&mut client, &Request::Ping.encode()).expect("send ping");
        let replies = read_until_terminal(&mut client);
        assert!(matches!(terminal(&replies), Response::Pong));
        drop(client);
        handler.join().expect("handler").expect("connection ok");
    }

    // Torn frame: structured error, then the server closes the
    // desynchronized connection.
    {
        let (mut client, served) = UnixStream::pair().expect("socketpair");
        let handler = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.serve_connection(served))
        };
        client.write_all(&[0, 0]).expect("half a length prefix");
        client.shutdown(std::net::Shutdown::Write).expect("shutdown");
        let payload = read_frame(&mut client).expect("reply").expect("present");
        match Response::decode(&payload).expect("decode") {
            Response::Error { class, .. } => assert_eq!(class, "protocol"),
            other => panic!("expected protocol error, got {other:?}"),
        }
        assert!(
            read_frame(&mut client).expect("close").is_none(),
            "server closes after a torn frame"
        );
        handler.join().expect("handler").expect("connection ok");
    }

    // Validation failures answer immediately without consuming a slot.
    let bad = roundtrip(
        &server,
        &Request::Sweep(SweepRequest {
            client: "chaos".to_string(),
            app: "no-such-app".to_string(),
            seed: 1,
            refs: 1000,
            designs: vec!["baseline".to_string()],
            deadline_ms: None,
        }),
    );
    match terminal(&bad) {
        Response::Error { class, .. } => assert_eq!(class, "badrequest"),
        other => panic!("expected badrequest, got {other:?}"),
    }
    assert_eq!(server.queue_len(), 0);
    stop(&server);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
