//! `moca_serve` — the resident sweep daemon.
//!
//! Usage:
//!
//! ```text
//! moca_serve (--socket PATH | --tcp ADDR) --checkpoint DIR
//!            [--quick] [--jobs N] [--queue N] [--client-quota N]
//!            [--io-timeout-ms N] [--telemetry PATH]
//! ```
//!
//! The daemon listens on a Unix socket (`--socket`) or TCP address
//! (`--tcp`), prints one `listening ...` line to stderr when ready, and
//! serves until SIGTERM/SIGINT. On the first signal it **drains**:
//! stops accepting connections and admissions, finishes every accepted
//! job (journaling each result), flushes telemetry, prints a drain
//! summary, and exits 0. A SIGKILL instead loses at most the record
//! being written — the journal's crash recovery skips the torn line on
//! the next start, and everything already journaled is served from
//! cache.
//!
//! `--io-timeout-ms` bounds how long one connection may sit between
//! frames (slow-loris protection): a stalled peer gets a structured
//! `error class=protocol` reply and its connection closed; the
//! executor and every other connection are unaffected.

use std::io::{self};
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use moca_serve::{Server, ServerConfig};
use moca_sim::parallel::Jobs;
use moca_sim::telemetry;
use moca_sim::workloads::Scale;

const USAGE: &str = "usage: moca_serve (--socket PATH | --tcp ADDR) --checkpoint DIR
                  [--quick] [--jobs N] [--queue N] [--client-quota N]
                  [--io-timeout-ms N] [--telemetry PATH]
  --socket PATH       listen on a Unix domain socket at PATH
  --tcp ADDR          listen on a TCP address (e.g. 127.0.0.1:7070)
  --checkpoint DIR    journal directory (the durable result cache)
  --quick             CI scale for experiments (default: full scale)
  --jobs N            worker threads per job (default: all cores)
  --queue N           admission queue capacity (default: 16)
  --client-quota N    pending jobs allowed per client (default: 4)
  --io-timeout-ms N   per-connection read/write timeout (default: 10000)
  --telemetry PATH    write the global JSONL telemetry stream at drain";

struct Options {
    socket: Option<PathBuf>,
    tcp: Option<String>,
    checkpoint: PathBuf,
    scale: Scale,
    jobs: Jobs,
    queue: usize,
    client_quota: usize,
    io_timeout: Duration,
    telemetry: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut socket = None;
    let mut tcp = None;
    let mut checkpoint = None;
    let mut scale = Scale::Full;
    let mut jobs = Jobs::available();
    let mut queue = 16usize;
    let mut client_quota = 4usize;
    let mut io_timeout = Duration::from_millis(10_000);
    let mut telemetry = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} requires a value\n{USAGE}"))
        };
        match flag {
            "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
            "--tcp" => tcp = Some(value("--tcp")?),
            "--checkpoint" => checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
            "--quick" => scale = Scale::Quick,
            "--jobs" => {
                let v = value("--jobs")?;
                jobs = v.parse().map_err(|e| format!("invalid --jobs {v:?}: {e}"))?;
            }
            "--queue" => {
                let v = value("--queue")?;
                queue = parse_positive(&v, "--queue")?;
            }
            "--client-quota" => {
                let v = value("--client-quota")?;
                client_quota = parse_positive(&v, "--client-quota")?;
            }
            "--io-timeout-ms" => {
                let v = value("--io-timeout-ms")?;
                io_timeout = Duration::from_millis(
                    v.parse()
                        .map_err(|_| format!("invalid --io-timeout-ms {v:?}"))?,
                );
            }
            "--telemetry" => telemetry = Some(PathBuf::from(value("--telemetry")?)),
            other => return Err(format!("unknown flag: {other}\n{USAGE}")),
        }
        i += 1;
    }
    let checkpoint = checkpoint.ok_or_else(|| format!("--checkpoint is required\n{USAGE}"))?;
    if socket.is_some() == tcp.is_some() {
        return Err(format!("exactly one of --socket / --tcp is required\n{USAGE}"));
    }
    Ok(Options {
        socket,
        tcp,
        checkpoint,
        scale,
        jobs,
        queue,
        client_quota,
        io_timeout,
        telemetry,
    })
}

fn parse_positive(v: &str, name: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("invalid {name} value {v:?} (positive integer required)")),
    }
}

/// A listener over either transport, set non-blocking so the accept
/// loop can poll the shutdown flag.
enum Listener {
    #[cfg(unix)]
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn bind(opts: &Options) -> io::Result<Self> {
        #[cfg(unix)]
        if let Some(path) = &opts.socket {
            // A stale socket file from a killed daemon blocks rebinding.
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path)?;
            l.set_nonblocking(true)?;
            return Ok(Listener::Unix(l));
        }
        #[cfg(not(unix))]
        if opts.socket.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "--socket requires a Unix platform; use --tcp",
            ));
        }
        let addr = opts.tcp.as_deref().expect("transport validated at parse");
        let l = TcpListener::bind(addr)?;
        l.set_nonblocking(true)?;
        Ok(Listener::Tcp(l))
    }

    fn describe(&self) -> String {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => format!(
                "unix:{}",
                l.local_addr()
                    .ok()
                    .and_then(|a| a.as_pathname().map(|p| p.display().to_string()))
                    .unwrap_or_else(|| "?".to_string())
            ),
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| format!("tcp:{a}"))
                .unwrap_or_else(|_| "tcp:?".to_string()),
        }
    }

    /// Accepts one connection with timeouts applied, or `None` when no
    /// connection is pending.
    fn try_accept(&self, timeout: Duration) -> io::Result<Option<Connection>> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => match l.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    stream.set_read_timeout(Some(timeout))?;
                    stream.set_write_timeout(Some(timeout))?;
                    Ok(Some(Connection::Unix(stream)))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            Listener::Tcp(l) => match l.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    stream.set_read_timeout(Some(timeout))?;
                    stream.set_write_timeout(Some(timeout))?;
                    Ok(Some(Connection::Tcp(stream)))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

enum Connection {
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
    Tcp(std::net::TcpStream),
}

impl io::Read for Connection {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Connection::Unix(s) => s.read(buf),
            Connection::Tcp(s) => s.read(buf),
        }
    }
}

impl io::Write for Connection {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Connection::Unix(s) => s.write(buf),
            Connection::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Connection::Unix(s) => s.flush(),
            Connection::Tcp(s) => s.flush(),
        }
    }
}

fn run(opts: &Options) -> io::Result<()> {
    if opts.telemetry.is_some() {
        telemetry::install();
    }
    moca_sim::signals::install_shutdown_handlers();

    let mut config = ServerConfig::new(opts.checkpoint.clone());
    config.scale = opts.scale;
    config.jobs = opts.jobs;
    config.queue_capacity = opts.queue;
    config.client_quota = opts.client_quota;
    let server = Arc::new(Server::start(config)?);
    let listener = Listener::bind(opts)?;
    eprintln!(
        "moca_serve: listening {} (scale {:?}, jobs {}, queue {}, quota {})",
        listener.describe(),
        opts.scale,
        opts.jobs,
        opts.queue,
        opts.client_quota
    );

    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !moca_sim::signals::shutdown_requested() {
        match listener.try_accept(opts.io_timeout)? {
            Some(conn) => {
                let server = Arc::clone(&server);
                handlers.push(std::thread::spawn(move || {
                    if let Err(e) = server.serve_connection(conn) {
                        eprintln!("moca_serve: connection error: {e}");
                    }
                }));
                // Opportunistically reap finished handlers so a
                // long-lived daemon does not accumulate join handles.
                handlers.retain(|h| !h.is_finished());
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }

    // Graceful drain: stop admitting, finish accepted jobs, flush, exit.
    eprintln!("moca_serve: shutdown requested, draining");
    server.begin_drain();
    let summary = server.join().unwrap_or_default();
    for h in handlers {
        let _ = h.join();
    }
    if let Some(path) = &opts.telemetry {
        if let Some(rec) = telemetry::global() {
            let file = std::fs::File::create(path)?;
            let events = rec.write_jsonl(io::BufWriter::new(file))?;
            eprintln!("moca_serve: telemetry: {events} event(s) written to {}", path.display());
        }
    }
    #[cfg(unix)]
    if let Some(path) = &opts.socket {
        let _ = std::fs::remove_file(path);
    }
    eprintln!(
        "moca_serve: drained cleanly ({} job(s) completed, journal holds {} entr{})",
        summary.completed,
        summary.journal_entries,
        if summary.journal_entries == 1 { "y" } else { "ies" }
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("moca_serve: {e}");
            ExitCode::FAILURE
        }
    }
}
