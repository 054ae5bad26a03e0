//! The `serve-mixed` request script and its closed-loop client.
//!
//! The script is a pure function of the benchmark seed. Ten (app, seed)
//! identities — one per suite app — are split between two clients; each
//! identity contributes one cold sweep (8 designs), three sweeps of new
//! designs on the now-warm identity, four exact repeats (journal
//! replays) and two small searches, 100 requests in all. Every request
//! that depends on an earlier one belongs to the same client and comes
//! after it, so each kind stays what it claims to be under any
//! interleaving of the two clients.
//!
//! No served traffic has been recorded, so the mix per identity is a
//! chosen one, not a measured one. One cold sweep, because an identity
//! turns cold only once per daemon. Three warm sweeps, enough that new
//! designs on a resident identity (the arena and matrix-cache path) are
//! a kind of their own in the latency figures. Four repeats, the most
//! common kind, so the median latency sits on journal replays and a
//! change to the journal's read path moves `latency_p50_ms`. Two small
//! searches, the costliest kind after a cold sweep, so the search path
//! through admission is loaded without dominating the makespan. Ten
//! identities give 100 requests, so `latency_p90_ms` has 10 samples
//! beyond it.

use std::hash::Hasher;
use std::io::{self, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use moca_serve::proto::{SearchRequest, SweepRequest};
use moca_serve::{read_frame, write_frame, Request, Response};
use moca_trace::fxhash::FxHasher;
use moca_trace::rng::Xoshiro256;
use moca_trace::AppProfile;

/// Designs of every cold sweep.
const COLD: [&str; 8] = [
    "baseline",
    "static",
    "dynamic",
    "sram:4",
    "sram:8",
    "sram:12",
    "sram-static:4:4",
    "sram-static:8:4",
];

/// Designs no cold sweep uses; each identity draws its warm sweeps
/// from a seeded order of this pool.
const WARM: [&str; 9] = [
    "sram:2",
    "sram:6",
    "sram:10",
    "sram:14",
    "sram-static:6:4",
    "sram-static:4:8",
    "sram-static:10:4",
    "sram-static:6:6",
    "sram-static:2:2",
];

const SWEEP_REFS: usize = 300_000;
const SEARCH_REFS: usize = 100_000;
const CLIENTS: usize = 2;

/// One scripted request.
pub struct Item {
    pub kind: &'static str,
    pub client: usize,
    pub request: Request,
    /// Script index of the request this one repeats verbatim.
    pub repeat_of: Option<usize>,
}

/// Builds the script for `seed`, in global order (the order a single
/// connection sends it; each client sends its own items in this order).
pub fn build(seed: u64) -> Vec<Item> {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5e27_e0d1_b3a9_4c1f);
    let mut apps = AppProfile::suite();
    rng.shuffle(&mut apps);

    // Per-client sequences of (identity, step) before interleaving.
    let mut per_client: Vec<Vec<Item>> = (0..CLIENTS).map(|_| Vec::new()).collect();
    let mut tracks: Vec<Vec<Vec<Item>>> = (0..CLIENTS).map(|_| Vec::new()).collect();
    for (id, app) in apps.iter().enumerate() {
        let client = id % CLIENTS;
        let trace_seed = rng.next_u64();
        let name = format!("c{client}");
        let sweep = |designs: Vec<String>| {
            Request::Sweep(SweepRequest {
                client: name.clone(),
                app: app.name.to_string(),
                seed: trace_seed,
                refs: SWEEP_REFS,
                designs,
                deadline_ms: None,
            })
        };
        let mut warm: Vec<&str> = WARM.to_vec();
        rng.shuffle(&mut warm);
        let mut steps: Vec<&'static str> = vec![
            "warm", "warm", "warm", "repeat", "repeat", "repeat", "repeat", "search", "search",
        ];
        rng.shuffle(&mut steps);
        let mut track = vec![Item {
            kind: "cold",
            client,
            request: sweep(COLD.iter().map(|d| d.to_string()).collect()),
            repeat_of: None,
        }];
        let (mut warm_used, mut searches) = (0usize, 0u32);
        for kind in steps {
            let item = match kind {
                "warm" => {
                    let designs = warm[warm_used..warm_used + 3].iter().map(|d| d.to_string());
                    warm_used += 3;
                    Item {
                        kind,
                        client,
                        request: sweep(designs.collect()),
                        repeat_of: None,
                    }
                }
                "repeat" => {
                    // Any earlier sweep of this identity, cold or warm.
                    let sweeps: Vec<usize> = (0..track.len())
                        .filter(|&k| matches!(track[k].request, Request::Sweep(_)))
                        .collect();
                    let k = sweeps[rng.below(sweeps.len() as u64) as usize];
                    Item {
                        kind,
                        client,
                        request: track[k].request.clone(),
                        // Track-local for now; made global below.
                        repeat_of: Some(k),
                    }
                }
                _ => {
                    searches += 1;
                    Item {
                        kind,
                        client,
                        request: Request::Search(SearchRequest {
                            client: name.clone(),
                            app: app.name.to_string(),
                            seed: trace_seed,
                            refs: SEARCH_REFS,
                            population: 4 + 2 * searches,
                            generations: 3,
                            deadline_ms: None,
                        }),
                        repeat_of: None,
                    }
                }
            };
            track.push(item);
        }
        tracks[client].push(track);
    }

    // Interleave each client's identities in a seeded order, keeping
    // every identity's own order; map track-local repeat indices to
    // positions in the client's sequence.
    for (client, client_tracks) in tracks.into_iter().enumerate() {
        let mut cursors = vec![0usize; client_tracks.len()];
        let mut placed: Vec<Vec<usize>> = client_tracks.iter().map(|_| Vec::new()).collect();
        let mut tracks_left: Vec<Vec<Option<Item>>> = client_tracks
            .into_iter()
            .map(|tr| tr.into_iter().map(Some).collect())
            .collect();
        loop {
            let open: Vec<usize> = (0..tracks_left.len())
                .filter(|&t| cursors[t] < tracks_left[t].len())
                .collect();
            if open.is_empty() {
                break;
            }
            let t = open[rng.below(open.len() as u64) as usize];
            let mut item = tracks_left[t][cursors[t]]
                .take()
                .expect("each step placed once");
            item.repeat_of = item.repeat_of.map(|k| placed[t][k]);
            placed[t].push(per_client[client].len());
            per_client[client].push(item);
            cursors[t] += 1;
        }
    }

    // Global order: alternate the clients' sequences.
    let mut global = Vec::new();
    let mut local_to_global: Vec<Vec<usize>> = per_client.iter().map(|_| Vec::new()).collect();
    let longest = per_client.iter().map(Vec::len).max().unwrap_or(0);
    let mut queues: Vec<std::vec::IntoIter<Item>> =
        per_client.into_iter().map(Vec::into_iter).collect();
    for _ in 0..longest {
        for (client, q) in queues.iter_mut().enumerate() {
            if let Some(mut item) = q.next() {
                item.repeat_of = item.repeat_of.map(|k| local_to_global[client][k]);
                local_to_global[client].push(global.len());
                global.push(item);
            }
        }
    }
    global
}

/// What one request saw, timed from the shared epoch.
struct Outcome {
    send_ns: u64,
    queued_ns: u64,
    done_ns: u64,
    position: i64,
    terminal: String,
    reply_bytes: usize,
    digest: u64,
    appends: u64,
    replays: u64,
    keys: Vec<String>,
}

fn nanos(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).expect("client runs < 584 years")
}

/// Field `"name":"value"` of a JSONL event line.
fn event_field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"{name}\":\"");
    let start = line.find(&tag)? + tag.len();
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

fn send_one(stream: &mut UnixStream, request: &Request, epoch: Instant) -> io::Result<Outcome> {
    let send_ns = nanos(epoch);
    write_frame(stream, &request.encode())?;
    let mut out = Outcome {
        send_ns,
        queued_ns: 0,
        done_ns: 0,
        position: -1,
        terminal: String::new(),
        reply_bytes: 0,
        digest: 0,
        appends: 0,
        replays: 0,
        keys: Vec::new(),
    };
    loop {
        let payload = read_frame(stream)
            .map_err(|e| io::Error::other(format!("reading reply: {e:?}")))?
            .ok_or_else(|| io::Error::other("server closed the connection mid-request"))?;
        let response = Response::decode(&payload).map_err(io::Error::other)?;
        match &response {
            Response::Queued { position } => {
                out.queued_ns = nanos(epoch);
                out.position = i64::from(*position);
            }
            Response::Event { line } if event_field(line, "kind") == Some("checkpoint") => {
                match event_field(line, "event") {
                    Some("append") => {
                        out.appends += 1;
                        if let Some(key) = event_field(line, "key") {
                            out.keys.push(key.to_string());
                        }
                    }
                    Some("replay") => out.replays += 1,
                    _ => {}
                }
            }
            _ => {}
        }
        if response.is_terminal() {
            out.done_ns = nanos(epoch);
            out.terminal = match &response {
                Response::SweepResult { .. } => "result-sweep".to_string(),
                Response::SearchResult { .. } => "result-search".to_string(),
                Response::ExpResult { .. } => "result-exp".to_string(),
                Response::Pong => "pong".to_string(),
                Response::Overloaded { reason, .. } => format!("shed:{reason}"),
                Response::Error { class, .. } => format!("error:{class}"),
                Response::Queued { .. } | Response::Event { .. } => unreachable!("non-terminal"),
            };
            let mut h = FxHasher::default();
            h.write(&payload);
            out.digest = h.finish();
            out.reply_bytes = payload.len();
            return Ok(out);
        }
    }
}

/// Replays `script` over `conns` connections (1 sends everything in
/// global order; 2 gives each client its own connection), one request
/// in flight per connection. Prints one JSON line per request, then
/// one `#key` line per journal append, to stdout.
pub fn run_client(socket: &Path, script: &[Item], conns: usize) -> io::Result<()> {
    let epoch = Instant::now();
    let results: Mutex<Vec<Option<Outcome>>> =
        Mutex::new((0..script.len()).map(|_| None).collect());
    std::thread::scope(|scope| -> io::Result<()> {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let results = &results;
                scope.spawn(move || -> io::Result<()> {
                    let mut stream = UnixStream::connect(socket)?;
                    for (i, item) in script.iter().enumerate() {
                        if conns > 1 && item.client % conns != c {
                            continue;
                        }
                        let outcome = send_one(&mut stream, &item.request, epoch)?;
                        results
                            .lock()
                            .expect("no client thread panics holding the lock")[i] = Some(outcome);
                    }
                    Ok(())
                })
            })
            .collect();
        for h in handles {
            h.join()
                .map_err(|_| io::Error::other("client thread panicked"))??;
        }
        Ok(())
    })?;

    let results = results.into_inner().expect("client threads joined");
    let stdout = io::stdout();
    let mut out = stdout.lock();
    for (i, (item, r)) in script.iter().zip(&results).enumerate() {
        let r = r
            .as_ref()
            .ok_or_else(|| io::Error::other(format!("request {i} never sent")))?;
        writeln!(
            out,
            "{{\"i\":{i},\"kind\":\"{}\",\"client\":{},\"repeat_of\":{},\"send_ns\":{},\
             \"queued_ns\":{},\"done_ns\":{},\"position\":{},\"terminal\":\"{}\",\
             \"reply_bytes\":{},\"digest\":\"{:016x}\",\"appends\":{},\"replays\":{}}}",
            item.kind,
            item.client,
            item.repeat_of.map_or(-1, |k| k as i64),
            r.send_ns,
            r.queued_ns,
            r.done_ns,
            r.position,
            r.terminal,
            r.reply_bytes,
            r.digest,
            r.appends,
            r.replays
        )?;
    }
    for r in results.iter().flatten() {
        for key in &r.keys {
            writeln!(out, "#key {key}")?;
        }
    }
    out.flush()
}
