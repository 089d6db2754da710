//! Loopback load harness for the decision server.
//!
//! Starts an in-process [`Server`] (or targets `--addr`), drives it with
//! `--clients` concurrent keep-alive connections, and writes
//! `BENCH_serve.json` with throughput, client-side latency percentiles,
//! and cache hit rates.
//!
//! Two phases run by default:
//!
//! * **cached** — every request is drawn from a small pool of distinct
//!   bodies (primed once beforehand), so the server answers from its
//!   decision cache. This measures the serving path itself.
//! * **uncached** — every request is unique (a fresh RandomK density), so
//!   every request runs Algorithms 1–2. This measures decision cost under
//!   concurrency.
//!
//! `--repeat-ratio R` replaces the two defaults with a single mixed phase
//! where each request is pooled with probability `R` and unique otherwise.
//!
//! `--smoke` runs the CI gate instead: start a server on an ephemeral
//! port, issue one decision and one `/metrics` request, assert both are
//! 200, run the chaos probes (below), shut down cleanly.
//!
//! `--chaos` runs only the adversarial-client phase: malformed JSON
//! (expect 400), an oversized `Content-Length` (expect 413 without
//! reading the body), a mid-request disconnect, a byte-at-a-time slow
//! writer (expect 200 within the server deadline), a too-slow writer
//! against a short-deadline server (expect the 408 to arrive *early*,
//! proving the deadline actually fires), raw non-HTTP garbage, a
//! half-close client (full request, then `shutdown(Write)` — must still
//! get the full response), and a membership-delta replay against a
//! self-hosted fleet plane (the same rejoin epoch delivered twice must
//! be idempotently ignored the second time). After every probe the
//! server must still answer a well-formed request with 200 — the point
//! is that an abusive client costs the server nothing but the
//! connection.
//!
//! `--fleet` runs the fleet control-plane bench: spawn `espresso-cli
//! serve --fleet-dir` as a child process, register `--jobs` jobs over
//! `--clients` connections, stream Poisson-paced health deltas, `kill -9`
//! the child mid-run, restart it against the same directory, verify the
//! job table recovered, stream the remaining deltas, and write
//! `BENCH_fleet.json` with registration throughput, recovery time, and
//! the server's `fleet_*` metrics (including the health-delta → decision
//! latency histogram).
//!
//! `--fleet-gate` is the CI variant: two identical runs, one interrupted
//! by `kill -9` at the midpoint and one not, must converge to
//! byte-identical `/fleet/jobs` documents — the crash may cost time but
//! never state and never a different decision.
//!
//! `--churn` is the elastic-membership variant of the gate: the delta
//! stream carries Poisson-paced worker *losses and re-joins* (not just
//! link health), the crash run is `kill -9`ed mid-churn with the replan
//! queue busy, and after restart both runs must converge to
//! byte-identical `/fleet/jobs` and `/fleet/deadletter` documents.
//! Writes `BENCH_churn.json` with per-phase timings and recovery cost.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use espresso::service::DecisionRequest;
use espresso_cluster::ClusterHealth;
use espresso_json::Json;
use espresso_serve::client::Connection;
use espresso_serve::fleet::{HealthDelta, JobSpec};
use espresso_serve::{FleetConfig, FleetController, RetryPolicy, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn usage() -> ! {
    eprintln!(
        "usage: espresso-loadgen [--smoke] [--chaos] [--addr HOST:PORT] \
         [--clients N] [--requests N] [--uncached-requests N] \
         [--repeat-ratio R] [--model NAME] [--out FILE] [--seed N]\n\
         \n\
         or:    espresso-loadgen --fleet [--jobs N] [--deltas N] [--clusters N] \
         [--clients N] [--out FILE] [--seed N]   (fleet bench: registers jobs, \
         streams Poisson health deltas, kill -9s and restarts the server mid-run, \
         writes BENCH_fleet.json)\n\
         \n\
         or:    espresso-loadgen --fleet-gate [--jobs N] [--deltas N] [--clusters N] \
         [--seed N]   (CI gate: kill -9 + restart must recover the job table \
         byte-for-byte and converge to the same decisions as an uninterrupted run)\n\
         \n\
         or:    espresso-loadgen --churn [--jobs N] [--deltas N] [--clusters N] \
         [--seed N] [--out FILE]   (elastic-membership gate: Poisson-paced worker \
         losses AND re-joins, kill -9 mid-churn, restart; crashed and uninterrupted \
         runs must converge byte-for-byte; writes BENCH_churn.json)"
    );
    std::process::exit(2)
}

#[derive(Clone)]
struct Options {
    smoke: bool,
    chaos: bool,
    fleet: bool,
    fleet_gate: bool,
    churn: bool,
    addr: Option<String>,
    clients: usize,
    requests: usize,
    uncached_requests: usize,
    repeat_ratio: Option<f64>,
    jobs: Option<usize>,
    deltas: Option<usize>,
    clusters: usize,
    model: String,
    out: Option<String>,
    seed: u64,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            smoke: false,
            chaos: false,
            fleet: false,
            fleet_gate: false,
            churn: false,
            addr: None,
            clients: 4,
            requests: 2000,
            uncached_requests: 200,
            repeat_ratio: None,
            jobs: None,
            deltas: None,
            clusters: 8,
            model: "LSTM".into(),
            out: None,
            seed: 42,
        }
    }
}

fn parse_options(args: &[String]) -> Options {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--smoke" => opts.smoke = true,
            "--chaos" => opts.chaos = true,
            "--fleet" => opts.fleet = true,
            "--fleet-gate" => opts.fleet_gate = true,
            "--churn" => opts.churn = true,
            "--addr" => opts.addr = Some(value()),
            "--clients" => opts.clients = value().parse().unwrap_or_else(|_| usage()),
            "--requests" => opts.requests = value().parse().unwrap_or_else(|_| usage()),
            "--uncached-requests" => {
                opts.uncached_requests = value().parse().unwrap_or_else(|_| usage())
            }
            "--repeat-ratio" => {
                opts.repeat_ratio = Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--jobs" => opts.jobs = Some(value().parse().unwrap_or_else(|_| usage())),
            "--deltas" => opts.deltas = Some(value().parse().unwrap_or_else(|_| usage())),
            "--clusters" => opts.clusters = value().parse().unwrap_or_else(|_| usage()),
            "--model" => opts.model = value(),
            "--out" => opts.out = Some(value()),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    opts.clients = opts.clients.max(1);
    opts.clusters = opts.clusters.max(1);
    opts
}

/// A decision-request body with the given RandomK density.
fn body(model: &str, machines: usize, density: f64) -> Vec<u8> {
    format!(
        r#"{{"model":{{"model":"{model}"}},"gc":{{"algorithm":{{"RandomK":{{"density":{density}}}}}}},"system":{{"machines":{machines},"gpus_per_machine":4,"intra":"Pcie","inter_gbps":25.0}}}}"#
    )
    .into_bytes()
}

/// The fixed pool the cached phase draws from: distinct configs, all
/// primed before measurement so every draw is a hit.
fn pool(model: &str) -> Vec<Vec<u8>> {
    let mut bodies = Vec::new();
    for machines in [2usize, 4] {
        for density in [0.01, 0.02, 0.05, 0.1] {
            bodies.push(body(model, machines, density));
        }
    }
    bodies
}

/// Monotonic counter making the "uncached" bodies globally unique: each
/// perturbs the density by a distinct number of nano-steps, which changes
/// the canonical key without meaningfully changing the workload.
static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn unique_body(model: &str) -> Vec<u8> {
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    // machines = 1 keeps the per-decision cost low enough that the
    // uncached phase measures decision throughput, not sim-sweep depth.
    body(model, 1, 0.01 + n as f64 * 1e-9)
}

struct PhaseResult {
    name: &'static str,
    requests: usize,
    seconds: f64,
    throughput_rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    cache_hits: u64,
    cache_misses: u64,
    decisions_computed: u64,
}

impl PhaseResult {
    fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("requests", Json::Num(self.requests as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("throughput_rps", Json::Num(self.throughput_rps)),
            ("latency_p50_ms", Json::Num(self.p50_ms)),
            ("latency_p95_ms", Json::Num(self.p95_ms)),
            ("latency_p99_ms", Json::Num(self.p99_ms)),
            ("cache_hits", Json::Num(self.cache_hits as f64)),
            ("cache_misses", Json::Num(self.cache_misses as f64)),
            ("cache_hit_rate", Json::Num(self.hit_rate())),
            ("decisions_computed", Json::Num(self.decisions_computed as f64)),
        ])
    }
}

/// Snapshot of the server-side counters this harness cares about.
#[derive(Default, Clone, Copy)]
struct Counters {
    cache_hits: u64,
    cache_misses: u64,
    decisions_computed: u64,
}

fn read_counters(addr: SocketAddr) -> Counters {
    let Ok(resp) = espresso_serve::client::request(addr, "GET", "/metrics", b"") else {
        return Counters::default();
    };
    let Ok(doc) = Json::parse(&String::from_utf8_lossy(&resp.body)) else {
        return Counters::default();
    };
    Counters {
        cache_hits: doc.req::<u64>("cache_hits").unwrap_or(0),
        cache_misses: doc.req::<u64>("cache_misses").unwrap_or(0),
        decisions_computed: doc.req::<u64>("decisions_computed").unwrap_or(0),
    }
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_ms.len() as f64).ceil() as usize).clamp(1, sorted_ms.len());
    sorted_ms[rank - 1]
}

/// Runs one phase: `total` requests spread over `clients` keep-alive
/// connections, each request pooled with probability `repeat_ratio`.
fn run_phase(
    name: &'static str,
    addr: SocketAddr,
    opts: &Options,
    total: usize,
    repeat_ratio: f64,
) -> Result<PhaseResult, String> {
    let bodies = Arc::new(pool(&opts.model));
    let model = Arc::new(opts.model.clone());
    let before = read_counters(addr);
    let started = Instant::now();
    let per_client = total.div_ceil(opts.clients);
    let handles: Vec<_> = (0..opts.clients)
        .map(|client_id| {
            let bodies = Arc::clone(&bodies);
            let model = Arc::clone(&model);
            let seed = opts.seed ^ (client_id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            std::thread::spawn(move || -> Result<Vec<f64>, String> {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut conn = Connection::open(addr, Duration::from_secs(30))
                    .map_err(|e| format!("connect {addr}: {e}"))?;
                let mut latencies = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let fresh;
                    let body: &[u8] = if rng.random_bool(repeat_ratio) {
                        &bodies[rng.random_range(0..bodies.len())]
                    } else {
                        fresh = unique_body(&model);
                        &fresh
                    };
                    let t0 = Instant::now();
                    let resp = conn
                        .request("POST", "/decide", body)
                        .map_err(|e| format!("request {i} on client {client_id}: {e}"))?;
                    latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                    if resp.status != 200 {
                        return Err(format!(
                            "client {client_id} request {i}: status {} body {}",
                            resp.status,
                            String::from_utf8_lossy(&resp.body)
                        ));
                    }
                }
                Ok(latencies)
            })
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::with_capacity(total);
    for handle in handles {
        latencies.extend(handle.join().map_err(|_| "client thread panicked")??);
    }
    let seconds = started.elapsed().as_secs_f64();
    let after = read_counters(addr);
    latencies.sort_by(f64::total_cmp);
    let requests = latencies.len();
    Ok(PhaseResult {
        name,
        requests,
        seconds,
        throughput_rps: requests as f64 / seconds.max(1e-9),
        p50_ms: percentile(&latencies, 0.50),
        p95_ms: percentile(&latencies, 0.95),
        p99_ms: percentile(&latencies, 0.99),
        cache_hits: after.cache_hits.saturating_sub(before.cache_hits),
        cache_misses: after.cache_misses.saturating_sub(before.cache_misses),
        decisions_computed: after
            .decisions_computed
            .saturating_sub(before.decisions_computed),
    })
}

/// Sends every pool body once so the cached phase starts warm.
fn prime(addr: SocketAddr, opts: &Options) -> Result<(), String> {
    let mut conn =
        Connection::open(addr, Duration::from_secs(30)).map_err(|e| format!("connect: {e}"))?;
    for body in pool(&opts.model) {
        let resp = conn
            .request("POST", "/decide", &body)
            .map_err(|e| format!("prime: {e}"))?;
        if resp.status != 200 {
            return Err(format!(
                "prime: status {} body {}",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            ));
        }
    }
    Ok(())
}

/// Opens a raw TCP connection, writes `payload` byte-for-byte (optionally
/// throttled), and returns the status code of whatever response comes
/// back (`None` when the server just closes the connection).
fn raw_probe(addr: SocketAddr, payload: &[u8], chunk: usize, pause: Duration) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    for piece in payload.chunks(chunk.max(1)) {
        if stream.write_all(piece).is_err() {
            // The server may legitimately reject early (e.g. 413 before
            // the body); keep going to the read.
            break;
        }
        if !pause.is_zero() {
            std::thread::sleep(pause);
        }
    }
    let mut buf = Vec::new();
    let mut scratch = [0u8; 1024];
    loop {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                buf.extend_from_slice(&scratch[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
        }
    }
    let head = buf.split(|&b| b == b'\r').next()?;
    std::str::from_utf8(head)
        .ok()?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

fn http_request(path: &str, body: &[u8]) -> Vec<u8> {
    let mut req = format!(
        "POST {path} HTTP/1.1\r\nHost: chaos\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

/// Asserts the server still answers a well-formed decision request.
fn assert_alive(addr: SocketAddr, model: &str, after: &str) -> Result<(), String> {
    let resp = espresso_serve::client::request(addr, "POST", "/decide", &body(model, 2, 0.01))
        .map_err(|e| format!("well-formed request after {after}: {e}"))?;
    if resp.status != 200 {
        return Err(format!(
            "well-formed request after {after}: status {} body {}",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ));
    }
    Ok(())
}

/// The adversarial-client probes. Each misbehaves in a different way;
/// after every probe the server must answer a clean request with 200.
fn chaos_probes(addr: SocketAddr, model: &str) -> Result<usize, String> {
    let fast = Duration::ZERO;

    // 1. Syntactically valid HTTP, body is not JSON: a clean 400.
    let status = raw_probe(
        addr,
        &http_request("/decide", b"{this is not json"),
        usize::MAX,
        fast,
    );
    if status != Some(400) {
        return Err(format!("malformed JSON: expected 400, got {status:?}"));
    }
    assert_alive(addr, model, "malformed JSON")?;

    // 2. Content-Length far past the body cap: 413 without reading the
    // (never-sent) ten megabytes.
    let oversized =
        b"POST /decide HTTP/1.1\r\nHost: chaos\r\nContent-Length: 10485760\r\n\r\n".to_vec();
    let status = raw_probe(addr, &oversized, usize::MAX, fast);
    if status != Some(413) {
        return Err(format!("oversized Content-Length: expected 413, got {status:?}"));
    }
    assert_alive(addr, model, "oversized Content-Length")?;

    // 3. Mid-request disconnect: promise 512 bytes, send 20, hang up.
    {
        let mut partial =
            b"POST /decide HTTP/1.1\r\nHost: chaos\r\nContent-Length: 512\r\n\r\n".to_vec();
        partial.extend_from_slice(b"{\"model\":{\"model\"");
        if let Ok(mut stream) = TcpStream::connect(addr) {
            let _ = stream.write_all(&partial);
            drop(stream); // Abandon the request mid-body.
        }
    }
    assert_alive(addr, model, "mid-request disconnect")?;

    // 4. Slow writer: a valid request trickled a few bytes at a time,
    // total well inside the server deadline. Must still get 200.
    let status = raw_probe(
        addr,
        &http_request("/decide", &body(model, 2, 0.02)),
        24,
        Duration::from_millis(20),
    );
    if status != Some(200) {
        return Err(format!("slow writer: expected 200, got {status:?}"));
    }
    assert_alive(addr, model, "slow writer")?;

    // 5. Raw non-HTTP garbage (a TLS-looking preamble). Any 4xx or a
    // plain close is fine; the server must not die.
    let garbage = [0x16u8, 0x03, 0x01, 0x00, 0xff, 0x00, 0x00, 0xde, 0xad]
        .repeat(16);
    let status = raw_probe(addr, &garbage, usize::MAX, fast);
    if let Some(code) = status {
        if !(400..500).contains(&code) {
            return Err(format!("garbage bytes: expected a 4xx or close, got {code}"));
        }
    }
    assert_alive(addr, model, "garbage bytes")?;

    // 6. Half-close: the client sends a complete request, then shuts
    // down its write side before reading. The EOF on the server's read
    // side must not be mistaken for a disconnect — the full response
    // still has to come back over the intact read half.
    {
        let payload = http_request("/decide", &body(model, 2, 0.03));
        let mut stream =
            TcpStream::connect(addr).map_err(|e| format!("half-close connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| format!("half-close timeout: {e}"))?;
        stream
            .write_all(&payload)
            .map_err(|e| format!("half-close write: {e}"))?;
        stream
            .shutdown(Shutdown::Write)
            .map_err(|e| format!("half-close shutdown: {e}"))?;
        let mut buf = Vec::new();
        let _ = stream.read_to_end(&mut buf);
        let head = String::from_utf8_lossy(&buf);
        if !head.starts_with("HTTP/1.1 200") {
            return Err(format!(
                "half-close: expected a full 200 over the read half, got {:?}",
                head.lines().next().unwrap_or("<nothing>")
            ));
        }
        if !head.contains("iteration_time_ms") {
            return Err("half-close: the response body was cut short".into());
        }
    }
    assert_alive(addr, model, "half-close")?;

    Ok(6)
}

/// A fleet-plane chaos probe: membership deltas arrive over a lossy
/// transport, so the same re-join epoch delivered twice (a retry, a
/// journal replay, a confused operator) must be applied exactly once.
/// Hosts its own fleet-enabled server, preempts a rank, re-joins it,
/// replays both deltas, and checks the replays were idempotently
/// ignored — including via the `fleet_health_deltas_ignored` counter.
fn rejoin_replay_probe(model: &str) -> Result<(), String> {
    let dir = scratch_dir("chaos-rejoin-replay")?;
    let fleet = FleetController::open(FleetConfig {
        dir: dir.clone(),
        shards: 2,
        replan_workers: 1,
        queue_watermark: 64,
        snapshot_every: 32,
        plan_cache_entries: 16,
        batch_replans: true,
        retry: RetryPolicy {
            max_attempts: 1,
            initial_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(100),
            attempt_timeout: Duration::from_millis(10),
        },
    })
    .map_err(|e| format!("rejoin replay: open fleet: {e}"))?;
    let server = Server::start(ServeConfig {
        workers: 2,
        fleet: Some(Arc::new(fleet)),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("rejoin replay: start server: {e}"))?;
    let addr = server.addr();

    let post = |path: &str, payload: &[u8]| -> Result<Json, String> {
        let resp = espresso_serve::client::request(addr, "POST", path, payload)
            .map_err(|e| format!("rejoin replay: POST {path}: {e}"))?;
        if resp.status != 200 {
            return Err(format!(
                "rejoin replay: POST {path}: status {} body {}",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            ));
        }
        Json::parse(&String::from_utf8_lossy(&resp.body))
            .map_err(|e| format!("rejoin replay: POST {path}: {e}"))
    };
    let applied = |doc: &Json| doc.req::<bool>("applied").unwrap_or(false);

    let register = format!(
        r#"{{"id":"probe","cluster":"c0","priority":1,"request":{}}}"#,
        String::from_utf8_lossy(&body(model, 1, 0.01)),
    );
    post("/fleet/register", register.as_bytes())?;

    let shrink = br#"{"cluster":"c0","epoch":1,"workers":8,"lost":[1],"health":{"inter":{"Degraded":{"factor":1.5}}}}"#;
    let grow = br#"{"cluster":"c0","epoch":2,"workers":8,"rejoined":[1],"health":{"inter":{"Degraded":{"factor":1.25}}}}"#;
    for (name, payload, expect_applied) in [
        ("preemption", &shrink[..], true),
        ("preemption replay", &shrink[..], false),
        ("re-join", &grow[..], true),
        ("re-join replay", &grow[..], false),
    ] {
        let doc = post("/fleet/health", payload)?;
        if applied(&doc) != expect_applied {
            server.shutdown();
            return Err(format!(
                "rejoin replay: {name} delta reported applied={}, expected {expect_applied}",
                applied(&doc)
            ));
        }
        if name == "re-join" && doc.req::<u64>("dead_letters_requeued").unwrap_or(u64::MAX) != 0 {
            server.shutdown();
            return Err("rejoin replay: an empty park requeued dead letters".into());
        }
    }
    let ignored = scrape_fleet_metrics(addr)?
        .into_iter()
        .find(|(k, _)| k == "fleet_health_deltas_ignored")
        .map_or(0.0, |(_, v)| v);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    if ignored != 2.0 {
        return Err(format!(
            "rejoin replay: expected 2 ignored deltas on the counter, saw {ignored}"
        ));
    }
    Ok(())
}

/// The slow-writer probe above proves a *polite* slow writer inside the
/// deadline still gets its 200; this one proves the deadline itself is
/// live. It hosts a dedicated server with a 300 ms deadline and trickles
/// a valid request far too slowly to ever finish. The server must answer
/// 408 — and the 408 must arrive well before the trickle would have
/// completed, i.e. the deadline cut the request short rather than the
/// server waiting out the full body and answering late.
fn deadline_probe(model: &str) -> Result<(), String> {
    let deadline = Duration::from_millis(300);
    let server = Server::start(ServeConfig {
        deadline,
        workers: 2,
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let addr = server.addr();
    let payload = http_request("/decide", &body(model, 2, 0.02));
    let chunk = 8usize;
    let pause = Duration::from_millis(60);
    let full_trickle = pause * payload.len().div_ceil(chunk) as u32;
    let started = Instant::now();
    let status = raw_probe(addr, &payload, chunk, pause);
    let elapsed = started.elapsed();
    let still_alive = assert_alive(addr, model, "deadline probe");
    server.shutdown();
    if status != Some(408) {
        return Err(format!(
            "deadline probe: expected 408 from a {deadline:?} deadline, got {status:?}"
        ));
    }
    if elapsed >= full_trickle / 2 {
        return Err(format!(
            "deadline probe: the 408 took {elapsed:?}, but the full trickle is only \
             {full_trickle:?} — the deadline waited the request out instead of firing"
        ));
    }
    still_alive
}

// ---------------------------------------------------------------------------
// Fleet control-plane bench and CI gate
// ---------------------------------------------------------------------------

/// A child `espresso-cli serve --fleet-dir` process. Unlike the
/// in-process `Server`, this can be `kill -9`ed — which is the whole
/// point: the journal must survive a crash that skips every destructor.
struct FleetServer {
    child: Child,
    addr: SocketAddr,
}

impl FleetServer {
    /// SIGKILL, then reap. No shutdown hooks run, nothing is flushed by
    /// the process on the way down; whatever reached the page cache via
    /// the journal's write+flush is all the restart gets.
    fn kill9(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `espresso-cli serve` (a sibling of this binary) with the fleet
/// control plane on `dir`, and parses the announced ephemeral address
/// from its stdout.
fn spawn_fleet_server(dir: &Path) -> Result<FleetServer, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let cli: PathBuf = exe
        .parent()
        .ok_or("current_exe has no parent directory")?
        .join("espresso-cli");
    if !cli.exists() {
        return Err(format!(
            "{} not found — build the full package first (cargo build --release)",
            cli.display()
        ));
    }
    let mut child = Command::new(&cli)
        .arg("serve")
        .args(["--addr", "127.0.0.1:0", "--workers", "8", "--deadline-ms", "30000"])
        .arg("--fleet-dir")
        .arg(dir)
        .args(["--fleet-workers", "4", "--fleet-snapshot-every", "64"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", cli.display()))?;
    let Some(stdout) = child.stdout.take() else {
        let _ = child.kill();
        let _ = child.wait();
        return Err("child stdout was not piped".into());
    };
    let mut reader = BufReader::new(stdout);
    let mut addr = None;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {
                if let Some(rest) = line.split(" listening on ").nth(1) {
                    addr = rest.split_whitespace().next().and_then(|t| t.parse().ok());
                    break;
                }
            }
        }
    }
    let Some(addr) = addr else {
        let _ = child.kill();
        let _ = child.wait();
        return Err("child server never announced a listening address".into());
    };
    // Keep draining the child's stdout so it can never block on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    Ok(FleetServer { child, addr })
}

/// A registration body for job `i`: eight request variants (so planning
/// stays cache-friendly at fleet scale) spread round-robin over the
/// clusters, with an explicit priority so shedding order is deterministic.
fn fleet_register_body(job: usize, clusters: usize, model: &str) -> Vec<u8> {
    let density = [0.01, 0.02, 0.05, 0.1][job % 4];
    let machines = 1 + (job / 4) % 2;
    let request = body(model, machines, density);
    format!(
        r#"{{"id":"job-{job:05}","cluster":"c{}","priority":{},"request":{}}}"#,
        job % clusters,
        1 + job % 7,
        String::from_utf8_lossy(&request),
    )
    .into_bytes()
}

/// A health-delta body: one cluster's inter-machine link degrades to the
/// given factor at the given epoch.
fn fleet_delta_body(cluster: usize, epoch: u64, factor: f64) -> Vec<u8> {
    format!(
        r#"{{"cluster":"c{cluster}","epoch":{epoch},"workers":8,"health":{{"inter":{{"Degraded":{{"factor":{factor}}}}}}}}}"#
    )
    .into_bytes()
}

/// The deterministic delta stream: each event picks a cluster, bumps that
/// cluster's epoch (strictly monotone per cluster — exactly what
/// `Membership::apply_health_delta` demands), and degrades its inter link
/// by one of four quantised factors. Quantised factors keep the plan
/// cache effective; determinism lets the gate replay the identical stream
/// into two servers.
fn delta_sequence(seed: u64, count: usize, clusters: usize) -> Vec<(usize, u64, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut epochs = vec![0u64; clusters];
    (0..count)
        .map(|_| {
            let c = rng.random_range(0..clusters);
            epochs[c] += 1;
            let factor = [1.25, 1.5, 2.0, 3.0][rng.random_range(0..4usize)];
            (c, epochs[c], factor)
        })
        .collect()
}

/// GETs a path and returns the body, requiring a 200.
fn fetch(addr: SocketAddr, path: &str) -> Result<String, String> {
    let resp = espresso_serve::client::request(addr, "GET", path, b"")
        .map_err(|e| format!("GET {path}: {e}"))?;
    if resp.status != 200 {
        return Err(format!(
            "GET {path}: status {} body {}",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ));
    }
    Ok(String::from_utf8_lossy(&resp.body).into_owned())
}

/// Registers `jobs` jobs over `threads` keep-alive connections; returns
/// the wall-clock seconds the registrations took.
fn register_jobs(
    addr: SocketAddr,
    jobs: usize,
    clusters: usize,
    model: &str,
    threads: usize,
) -> Result<f64, String> {
    let started = Instant::now();
    let threads = threads.clamp(1, jobs.max(1));
    let per = jobs.div_ceil(threads);
    let model = Arc::new(model.to_string());
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let model = Arc::clone(&model);
            std::thread::spawn(move || -> Result<(), String> {
                let mut conn = Connection::open(addr, Duration::from_secs(30))
                    .map_err(|e| format!("connect {addr}: {e}"))?;
                for job in (t * per)..((t + 1) * per).min(jobs) {
                    let body = fleet_register_body(job, clusters, &model);
                    let resp = conn
                        .request("POST", "/fleet/register", &body)
                        .map_err(|e| format!("register job-{job:05}: {e}"))?;
                    if resp.status != 200 {
                        return Err(format!(
                            "register job-{job:05}: status {} body {}",
                            resp.status,
                            String::from_utf8_lossy(&resp.body)
                        ));
                    }
                }
                Ok(())
            })
        })
        .collect();
    for handle in handles {
        handle.join().map_err(|_| "register thread panicked")??;
    }
    Ok(started.elapsed().as_secs_f64())
}

/// Streams a slice of the delta sequence, optionally Poisson-paced
/// (exponential inter-arrival gaps around `mean_gap`). Returns wall-clock
/// seconds.
fn apply_deltas(
    addr: SocketAddr,
    sequence: &[(usize, u64, f64)],
    mean_gap: Option<Duration>,
    seed: u64,
) -> Result<f64, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut conn = Connection::open(addr, Duration::from_secs(30))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let started = Instant::now();
    for &(cluster, epoch, factor) in sequence {
        let resp = conn
            .request("POST", "/fleet/health", &fleet_delta_body(cluster, epoch, factor))
            .map_err(|e| format!("health c{cluster}@{epoch}: {e}"))?;
        if resp.status != 200 {
            return Err(format!(
                "health c{cluster}@{epoch}: status {} body {}",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            ));
        }
        if let Some(mean) = mean_gap {
            let u: f64 = rng.random::<f64>().max(1e-12);
            std::thread::sleep(mean.mul_f64(-u.ln()).min(mean * 10));
        }
    }
    Ok(started.elapsed().as_secs_f64())
}

/// POSTs `/fleet/drain` until the replan queue reports empty.
fn fleet_drain(addr: SocketAddr) -> Result<(), String> {
    let give_up = Instant::now() + Duration::from_secs(120);
    loop {
        let resp = espresso_serve::client::request(addr, "POST", "/fleet/drain", b"")
            .map_err(|e| format!("drain: {e}"))?;
        if resp.status != 200 {
            return Err(format!("drain: status {}", resp.status));
        }
        let doc = Json::parse(&String::from_utf8_lossy(&resp.body))
            .map_err(|e| format!("drain response: {e}"))?;
        if doc.req::<bool>("drained").unwrap_or(false) {
            return Ok(());
        }
        if Instant::now() > give_up {
            return Err("drain: replan queue did not empty within 120 s".into());
        }
    }
}

/// Parses `/fleet/jobs` (a JSON array) and returns how many jobs it holds.
fn count_jobs(jobs_doc: &str) -> Result<usize, String> {
    match Json::parse(jobs_doc) {
        Ok(Json::Arr(items)) => Ok(items.len()),
        Ok(_) => Err("/fleet/jobs did not return an array".into()),
        Err(e) => Err(format!("/fleet/jobs is not JSON: {e}")),
    }
}

/// All `fleet_*` entries from `/metrics`, as flat key → number pairs.
fn scrape_fleet_metrics(addr: SocketAddr) -> Result<Vec<(String, f64)>, String> {
    let doc = Json::parse(&fetch(addr, "/metrics")?).map_err(|e| format!("metrics: {e}"))?;
    let Json::Obj(pairs) = doc else {
        return Err("/metrics did not return an object".into());
    };
    Ok(pairs
        .into_iter()
        .filter_map(|(k, v)| match v {
            Json::Num(n) if k.starts_with("fleet_") => Some((k, n)),
            _ => None,
        })
        .collect())
}

/// A scratch directory under the system temp dir, recreated empty.
fn scratch_dir(label: &str) -> Result<PathBuf, String> {
    let dir = std::env::temp_dir().join(format!("espresso-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    Ok(dir)
}

/// One run of the batched-replanning throughput probe.
///
/// Hosts an in-process [`FleetController`] with no worker threads (the
/// caller's `run_pending` drains the queue, so pop order — and with it
/// the measured latency — is deterministic), registers `jobs` jobs whose
/// ids round-robin across `groups` identical-spec groups on one cluster,
/// plans them, then invalidates the whole fleet with a single epoch-bump
/// delta and re-plans. The planner's selection memo is sized *below*
/// the group count on purpose: with groups interleaved in pop order it
/// rarely hits, so the probe measures planner-run amortization — the
/// thing batching changes — rather than memo hits.
///
/// Returns `(delta→decision p50 ms, mean batch size)` as the
/// controller's own metrics report them.
fn batch_probe_run(
    label: &str,
    jobs: usize,
    groups: usize,
    model: &str,
    batched: bool,
) -> Result<(f64, f64), String> {
    let dir = scratch_dir(&format!("fleet-batch-probe-{label}"))?;
    let fleet = FleetController::open(FleetConfig {
        dir: dir.clone(),
        shards: 4,
        replan_workers: 0,
        queue_watermark: 4096,
        snapshot_every: 1_000_000,
        plan_cache_entries: 2,
        batch_replans: batched,
        retry: RetryPolicy {
            max_attempts: 1,
            initial_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(100),
            attempt_timeout: Duration::from_millis(10),
        },
    })
    .map_err(|e| format!("batch probe {label}: open fleet: {e}"))?;
    for i in 0..jobs {
        let group = i % groups;
        let request_text = String::from_utf8_lossy(&body(model, 1, 0.01 + group as f64 * 0.002))
            .into_owned();
        let request = DecisionRequest::parse(&request_text)
            .map_err(|e| format!("batch probe {label}: request: {e}"))?;
        fleet
            .register(JobSpec {
                id: format!("probe-{i:05}"),
                cluster: "c0".into(),
                priority: 1,
                notify: None,
                request,
            })
            .map_err(|e| format!("batch probe {label}: register: {e}"))?;
    }
    fleet.run_pending();
    // A pure epoch bump: every decision goes stale while the effective
    // health stays nominal, so the sweep re-prices each group from
    // scratch on the plain (non-robust) planning path.
    fleet
        .apply_health(&HealthDelta {
            cluster: "c0".into(),
            epoch: 1,
            workers: Some(8),
            health: ClusterHealth::nominal(),
            lost: Vec::new(),
            rejoined: Vec::new(),
        })
        .map_err(|e| format!("batch probe {label}: delta: {e}"))?;
    let planned = fleet.run_pending();
    if planned != jobs {
        fleet.shutdown();
        return Err(format!(
            "batch probe {label}: the delta re-planned {planned} of {jobs} jobs"
        ));
    }
    let entries = fleet.metric_entries();
    let metric = |key: &str| {
        entries
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v)
    };
    let p50 = metric("fleet_delta_to_decision_p50_ms");
    let mean_batch = metric("fleet_replan_batch_size_mean");
    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    Ok((p50, mean_batch))
}

/// The batched-replanning probe's gated outcome.
struct BatchProbe {
    shared_batched_p50: f64,
    shared_unbatched_p50: f64,
    shared_speedup: f64,
    shared_mean_batch: f64,
    unique_batched_p50: f64,
    unique_unbatched_p50: f64,
    unique_ratio: f64,
}

/// Runs the shared-spec and all-unique-specs probes, batched versus
/// unbatched, with one retry per comparison (the probe is in-process and
/// single-threaded, but wall-clock percentiles on a loaded CI box can
/// still wobble once).
///
/// Gates: ≥ `3×` delta→decision p50 when 8 jobs share each spec, and no
/// more than 5% regression when every spec is unique.
fn batch_probe(model: &str) -> Result<BatchProbe, String> {
    const SHARED_JOBS: usize = 96;
    const SHARED_GROUPS: usize = 12; // 8 jobs per spec group.
    const UNIQUE_JOBS: usize = 48;
    let mut shared = None;
    for attempt in 0..2 {
        let (batched, mean_batch) =
            batch_probe_run("shared-on", SHARED_JOBS, SHARED_GROUPS, model, true)?;
        let (unbatched, _) =
            batch_probe_run("shared-off", SHARED_JOBS, SHARED_GROUPS, model, false)?;
        let speedup = unbatched / batched.max(1e-9);
        shared = Some((batched, unbatched, speedup, mean_batch));
        if speedup >= 3.0 {
            break;
        }
        if attempt == 0 {
            println!("fleet: shared-spec batch probe saw only {speedup:.2}x, retrying once");
        }
    }
    let (shared_batched_p50, shared_unbatched_p50, shared_speedup, shared_mean_batch) =
        shared.expect("two attempts ran");
    if shared_speedup < 3.0 {
        return Err(format!(
            "batch probe: shared-spec speedup {shared_speedup:.2}x < 3x \
             (batched p50 {shared_batched_p50:.3} ms, unbatched {shared_unbatched_p50:.3} ms)"
        ));
    }
    let mut unique = None;
    for attempt in 0..2 {
        let (batched, _) = batch_probe_run("unique-on", UNIQUE_JOBS, UNIQUE_JOBS, model, true)?;
        let (unbatched, _) =
            batch_probe_run("unique-off", UNIQUE_JOBS, UNIQUE_JOBS, model, false)?;
        let ratio = batched / unbatched.max(1e-9);
        unique = Some((batched, unbatched, ratio));
        if ratio <= 1.05 {
            break;
        }
        if attempt == 0 {
            println!("fleet: unique-spec batch probe saw {ratio:.3}x, retrying once");
        }
    }
    let (unique_batched_p50, unique_unbatched_p50, unique_ratio) = unique.expect("two attempts ran");
    if unique_ratio > 1.05 {
        return Err(format!(
            "batch probe: unique-spec regression {unique_ratio:.3}x > 1.05x \
             (batched p50 {unique_batched_p50:.3} ms, unbatched {unique_unbatched_p50:.3} ms)"
        ));
    }
    Ok(BatchProbe {
        shared_batched_p50,
        shared_unbatched_p50,
        shared_speedup,
        shared_mean_batch,
        unique_batched_p50,
        unique_unbatched_p50,
        unique_ratio,
    })
}

/// `--fleet`: the control-plane bench. Registers the fleet, streams the
/// first half of the deltas Poisson-paced, `kill -9`s the server with the
/// replan queue still busy, restarts it, checks the whole fleet came
/// back, streams the rest, drains, and writes `BENCH_fleet.json`.
fn fleet_bench(opts: &Options) -> Result<(), String> {
    let jobs = opts.jobs.unwrap_or(1200);
    let deltas = opts.deltas.unwrap_or(200);
    let out = opts.out.clone().unwrap_or_else(|| "BENCH_fleet.json".into());
    let dir = scratch_dir("fleet-bench")?;
    let sequence = delta_sequence(opts.seed, deltas, opts.clusters);
    let half = deltas / 2;
    let mean_gap = Duration::from_millis(4);

    let server = spawn_fleet_server(&dir)?;
    let register_seconds = register_jobs(server.addr, jobs, opts.clusters, &opts.model, opts.clients)?;
    println!(
        "fleet: registered {jobs} jobs over {} clients in {register_seconds:.2} s ({:.0} jobs/s)",
        opts.clients,
        jobs as f64 / register_seconds.max(1e-9),
    );
    let first_half_seconds = apply_deltas(server.addr, &sequence[..half], Some(mean_gap), opts.seed ^ 1)?;
    // Crash mid-run, queue still busy: no drain, no flush, no mercy.
    server.kill9();
    println!("fleet: killed -9 mid-run after {half} deltas, restarting against the same journal");
    let restart = Instant::now();
    let server = spawn_fleet_server(&dir)?;
    let recovery_seconds = restart.elapsed().as_secs_f64();
    let recovered = count_jobs(&fetch(server.addr, "/fleet/jobs")?)?;
    if recovered != jobs {
        server.kill9();
        return Err(format!(
            "recovery lost jobs: registered {jobs}, recovered {recovered}"
        ));
    }
    println!("fleet: recovered all {recovered} jobs in {recovery_seconds:.2} s");
    // Let the recovery re-plan backlog drain before resuming the stream,
    // so delta→decision latency measures steady-state re-planning rather
    // than the one-off post-crash queue.
    fleet_drain(server.addr)?;
    // While the second half streams and drains, a reader polls decision
    // documents: jobs whose re-plan is still queued behind the backlog
    // serve their previous decision marked `"stale": true` — never a 503.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reader = {
        let stop = Arc::clone(&stop);
        let addr = server.addr;
        std::thread::spawn(move || -> Result<(u64, u64), String> {
            let mut conn = Connection::open(addr, Duration::from_secs(30))
                .map_err(|e| format!("reader connect: {e}"))?;
            let (mut read, mut stale) = (0u64, 0u64);
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let path = format!("/fleet/job/job-{:05}", i % jobs);
                i = i.wrapping_add(17);
                let resp = conn
                    .request("GET", &path, b"")
                    .map_err(|e| format!("reader {path}: {e}"))?;
                if resp.status != 200 {
                    return Err(format!("reader {path}: status {}", resp.status));
                }
                read += 1;
                if String::from_utf8_lossy(&resp.body).contains("\"stale\":true") {
                    stale += 1;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok((read, stale))
        })
    };
    let second_half_seconds =
        apply_deltas(server.addr, &sequence[half..], Some(mean_gap), opts.seed ^ 2)?;
    fleet_drain(server.addr)?;
    stop.store(true, Ordering::Relaxed);
    let (decisions_read, stale_seen) = reader.join().map_err(|_| "reader thread panicked")??;
    let metrics = scrape_fleet_metrics(server.addr)?;
    server.kill9();

    let metric = |key: &str| {
        metrics
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v)
    };
    // The planner-thread count the child server ran with (it inherits
    // this process's environment), recorded so bench deltas are
    // attributable to the planner configuration that produced them.
    let planner_threads = std::env::var("ESPRESSO_PLANNER_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1);
    println!(
        "fleet: {} replans committed ({} planner thread(s)) | delta→decision \
         p50 {:.2} ms p95 {:.2} ms p99 {:.2} ms | \
         {decisions_read} decisions read under load, {stale_seen} served stale",
        metric("fleet_replans_committed"),
        planner_threads,
        metric("fleet_delta_to_decision_p50_ms"),
        metric("fleet_delta_to_decision_p95_ms"),
        metric("fleet_delta_to_decision_p99_ms"),
    );

    // The batched-replanning throughput gate, run in-process against the
    // same model the child server just planned.
    let probe = batch_probe(&opts.model)?;
    println!(
        "fleet: batch probe OK — shared-spec {:.2}x faster (p50 {:.3} ms vs {:.3} ms, \
         mean batch {:.1}), unique-spec ratio {:.3}x (p50 {:.3} ms vs {:.3} ms)",
        probe.shared_speedup,
        probe.shared_batched_p50,
        probe.shared_unbatched_p50,
        probe.shared_mean_batch,
        probe.unique_ratio,
        probe.unique_batched_p50,
        probe.unique_unbatched_p50,
    );

    let doc = Json::obj(vec![
        (
            "config",
            Json::obj(vec![
                ("jobs", Json::Num(jobs as f64)),
                ("deltas", Json::Num(deltas as f64)),
                ("clusters", Json::Num(opts.clusters as f64)),
                ("clients", Json::Num(opts.clients as f64)),
                ("model", Json::Str(opts.model.clone())),
                ("seed", Json::Num(opts.seed as f64)),
                ("planner_threads", Json::Num(planner_threads as f64)),
            ]),
        ),
        (
            "register",
            Json::obj(vec![
                ("seconds", Json::Num(register_seconds)),
                (
                    "jobs_per_sec",
                    Json::Num(jobs as f64 / register_seconds.max(1e-9)),
                ),
            ]),
        ),
        (
            "deltas",
            Json::obj(vec![
                ("first_half_seconds", Json::Num(first_half_seconds)),
                ("second_half_seconds", Json::Num(second_half_seconds)),
                ("mean_gap_ms", Json::Num(mean_gap.as_secs_f64() * 1e3)),
            ]),
        ),
        (
            "recovery",
            Json::obj(vec![
                ("seconds", Json::Num(recovery_seconds)),
                ("jobs_recovered", Json::Num(recovered as f64)),
            ]),
        ),
        (
            "reads_under_load",
            Json::obj(vec![
                ("decisions_read", Json::Num(decisions_read as f64)),
                ("served_stale", Json::Num(stale_seen as f64)),
            ]),
        ),
        (
            "delta_to_decision_ms",
            Json::obj(vec![
                ("p50", Json::Num(metric("fleet_delta_to_decision_p50_ms"))),
                ("p95", Json::Num(metric("fleet_delta_to_decision_p95_ms"))),
                ("p99", Json::Num(metric("fleet_delta_to_decision_p99_ms"))),
            ]),
        ),
        (
            "batch_probe",
            Json::obj(vec![
                ("shared_jobs", Json::Num(96.0)),
                ("shared_group_size", Json::Num(8.0)),
                ("shared_batched_p50_ms", Json::Num(probe.shared_batched_p50)),
                (
                    "shared_unbatched_p50_ms",
                    Json::Num(probe.shared_unbatched_p50),
                ),
                ("shared_speedup", Json::Num(probe.shared_speedup)),
                ("shared_mean_batch", Json::Num(probe.shared_mean_batch)),
                ("unique_jobs", Json::Num(48.0)),
                ("unique_batched_p50_ms", Json::Num(probe.unique_batched_p50)),
                (
                    "unique_unbatched_p50_ms",
                    Json::Num(probe.unique_unbatched_p50),
                ),
                ("unique_ratio", Json::Num(probe.unique_ratio)),
            ]),
        ),
        (
            "fleet_metrics",
            Json::Obj(metrics.into_iter().map(|(k, v)| (k, Json::Num(v))).collect()),
        ),
    ]);
    std::fs::write(&out, doc.pretty() + "\n").map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out}");
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// `--fleet-gate`: the crash-equivalence gate. Run A is interrupted by
/// `kill -9` at the midpoint; run B sees the identical input stream
/// uninterrupted. The restart must recover run A's job table
/// byte-for-byte, and both runs must end with byte-identical
/// `/fleet/jobs` documents.
fn fleet_gate(opts: &Options) -> Result<(), String> {
    let jobs = opts.jobs.unwrap_or(200);
    let deltas = opts.deltas.unwrap_or(50);
    let base = scratch_dir("fleet-gate")?;
    let dir_a = base.join("crash");
    let dir_b = base.join("control");
    let sequence = delta_sequence(opts.seed, deltas, opts.clusters);
    let half = deltas / 2;

    // Run A, first act: register, half the stream, settle, crash.
    let server = spawn_fleet_server(&dir_a)?;
    register_jobs(server.addr, jobs, opts.clusters, &opts.model, 4)?;
    apply_deltas(server.addr, &sequence[..half], None, opts.seed)?;
    fleet_drain(server.addr)?;
    let before_crash = fetch(server.addr, "/fleet/jobs")?;
    server.kill9();

    // Run A, second act: restart from the journal and keep going.
    let server = spawn_fleet_server(&dir_a)?;
    fleet_drain(server.addr)?;
    let after_restart = fetch(server.addr, "/fleet/jobs")?;
    if after_restart != before_crash {
        server.kill9();
        return Err(format!(
            "job table changed across kill -9: {} bytes before, {} bytes after restart",
            before_crash.len(),
            after_restart.len()
        ));
    }
    apply_deltas(server.addr, &sequence[half..], None, opts.seed)?;
    fleet_drain(server.addr)?;
    let final_crashed = fetch(server.addr, "/fleet/jobs")?;
    server.kill9();

    // Run B: the identical stream, never interrupted.
    let server = spawn_fleet_server(&dir_b)?;
    register_jobs(server.addr, jobs, opts.clusters, &opts.model, 4)?;
    apply_deltas(server.addr, &sequence, None, opts.seed)?;
    fleet_drain(server.addr)?;
    let final_control = fetch(server.addr, "/fleet/jobs")?;
    server.kill9();

    if final_crashed != final_control {
        return Err(format!(
            "crashed and uninterrupted runs diverged: {} vs {} bytes of /fleet/jobs",
            final_crashed.len(),
            final_control.len()
        ));
    }
    let _ = std::fs::remove_dir_all(&base);
    println!(
        "fleet gate OK: {jobs} jobs + {deltas} deltas, kill -9 at the midpoint — \
         table recovered byte-for-byte and converged identically to the uninterrupted run"
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Elastic-membership churn gate
// ---------------------------------------------------------------------------

/// One event of the churn stream: a stamped membership delta that may
/// preempt a rank, re-join one, or only move link health.
struct ChurnDelta {
    cluster: usize,
    epoch: u64,
    factor: f64,
    lost: Vec<usize>,
    rejoined: Vec<usize>,
}

/// The deterministic churn stream: each event picks a cluster, bumps its
/// epoch, and — tracking that cluster's lost set — either preempts an
/// alive rank or re-joins a lost one (50/50 once anything is lost).
/// At most 6 of the 8 ranks are ever down, so quorum holds by
/// construction, and the identical stream replays into the crash and
/// control runs.
fn churn_sequence(seed: u64, count: usize, clusters: usize) -> Vec<ChurnDelta> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut epochs = vec![0u64; clusters];
    let mut down: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); clusters];
    (0..count)
        .map(|_| {
            let c = rng.random_range(0..clusters);
            epochs[c] += 1;
            let factor = [1.25, 1.5, 2.0, 3.0][rng.random_range(0..4usize)];
            let gone = &mut down[c];
            let (mut lost, mut rejoined) = (Vec::new(), Vec::new());
            if !gone.is_empty() && (gone.len() >= 6 || rng.random_bool(0.5)) {
                let pick = *gone
                    .iter()
                    .nth(rng.random_range(0..gone.len()))
                    .expect("non-empty lost set");
                gone.remove(&pick);
                rejoined.push(pick);
            } else {
                loop {
                    let w = rng.random_range(0..8usize);
                    if gone.insert(w) {
                        lost.push(w);
                        break;
                    }
                }
            }
            ChurnDelta {
                cluster: c,
                epoch: epochs[c],
                factor,
                lost,
                rejoined,
            }
        })
        .collect()
}

fn churn_delta_body(d: &ChurnDelta) -> Vec<u8> {
    let list = |ranks: &[usize]| {
        ranks
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        r#"{{"cluster":"c{}","epoch":{},"workers":8,"lost":[{}],"rejoined":[{}],"health":{{"inter":{{"Degraded":{{"factor":{}}}}}}}}}"#,
        d.cluster,
        d.epoch,
        list(&d.lost),
        list(&d.rejoined),
        d.factor,
    )
    .into_bytes()
}

/// Streams churn deltas, optionally Poisson-paced. Returns wall-clock
/// seconds. Every delta must be accepted with a 200 — whether it applies
/// or is idempotently ignored is the server's call.
fn apply_churn_deltas(
    addr: SocketAddr,
    sequence: &[ChurnDelta],
    mean_gap: Option<Duration>,
    seed: u64,
) -> Result<f64, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut conn = Connection::open(addr, Duration::from_secs(30))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let started = Instant::now();
    for delta in sequence {
        let resp = conn
            .request("POST", "/fleet/health", &churn_delta_body(delta))
            .map_err(|e| format!("churn c{}@{}: {e}", delta.cluster, delta.epoch))?;
        if resp.status != 200 {
            return Err(format!(
                "churn c{}@{}: status {} body {}",
                delta.cluster,
                delta.epoch,
                resp.status,
                String::from_utf8_lossy(&resp.body)
            ));
        }
        if let Some(mean) = mean_gap {
            let u: f64 = rng.random::<f64>().max(1e-12);
            std::thread::sleep(mean.mul_f64(-u.ln()).min(mean * 10));
        }
    }
    Ok(started.elapsed().as_secs_f64())
}

/// `--churn`: the elastic-membership gate and bench in one. A crash run
/// registers the fleet, streams half the churn (Poisson-paced worker
/// losses and re-joins), is `kill -9`ed mid-churn with the replan queue
/// busy, restarts against the same journal, and streams the rest. A
/// control run sees the identical stream uninterrupted. Both must
/// converge to byte-identical `/fleet/jobs` and `/fleet/deadletter`
/// documents; `BENCH_churn.json` records the timings.
fn churn_bench(opts: &Options) -> Result<(), String> {
    let jobs = opts.jobs.unwrap_or(96);
    let deltas = opts.deltas.unwrap_or(80);
    let out = opts.out.clone().unwrap_or_else(|| "BENCH_churn.json".into());
    let base = scratch_dir("churn")?;
    let dir_a = base.join("crash");
    let dir_b = base.join("control");
    let sequence = churn_sequence(opts.seed, deltas, opts.clusters);
    let losses: usize = sequence.iter().map(|d| d.lost.len()).sum();
    let rejoins: usize = sequence.iter().map(|d| d.rejoined.len()).sum();
    if rejoins == 0 {
        return Err(format!(
            "churn sequence of {deltas} deltas produced no re-joins — raise --deltas"
        ));
    }
    let half = deltas / 2;
    let mean_gap = Duration::from_millis(3);

    // Crash run, first act: register, churn, kill -9 mid-churn. No
    // drain first — the replan queue is busy when the process dies.
    let server = spawn_fleet_server(&dir_a)?;
    let register_seconds =
        register_jobs(server.addr, jobs, opts.clusters, &opts.model, 4)?;
    let first_half_seconds =
        apply_churn_deltas(server.addr, &sequence[..half], Some(mean_gap), opts.seed ^ 1)?;
    server.kill9();
    println!(
        "churn: {jobs} jobs registered, killed -9 mid-churn after {half} of {deltas} \
         membership deltas ({losses} preemptions / {rejoins} re-joins in the full stream)"
    );

    // Second act: restart from the journal, finish the stream.
    let restart = Instant::now();
    let server = spawn_fleet_server(&dir_a)?;
    let recovery_seconds = restart.elapsed().as_secs_f64();
    let recovered = count_jobs(&fetch(server.addr, "/fleet/jobs")?)?;
    if recovered != jobs {
        server.kill9();
        return Err(format!(
            "churn recovery lost jobs: registered {jobs}, recovered {recovered}"
        ));
    }
    fleet_drain(server.addr)?;
    let second_half_seconds =
        apply_churn_deltas(server.addr, &sequence[half..], Some(mean_gap), opts.seed ^ 2)?;
    fleet_drain(server.addr)?;
    let crashed_jobs = fetch(server.addr, "/fleet/jobs")?;
    let crashed_letters = fetch(server.addr, "/fleet/deadletter")?;
    let metrics = scrape_fleet_metrics(server.addr)?;
    server.kill9();

    // Control run: the identical stream, never interrupted, full pace.
    let server = spawn_fleet_server(&dir_b)?;
    register_jobs(server.addr, jobs, opts.clusters, &opts.model, 4)?;
    let control_seconds = apply_churn_deltas(server.addr, &sequence, None, opts.seed ^ 3)?;
    fleet_drain(server.addr)?;
    let control_jobs = fetch(server.addr, "/fleet/jobs")?;
    let control_letters = fetch(server.addr, "/fleet/deadletter")?;
    server.kill9();

    if crashed_jobs != control_jobs {
        return Err(format!(
            "crashed and uninterrupted churn runs diverged: {} vs {} bytes of /fleet/jobs",
            crashed_jobs.len(),
            control_jobs.len()
        ));
    }
    if crashed_letters != control_letters {
        return Err(format!(
            "dead-letter parks diverged across the crash: {} vs {} bytes",
            crashed_letters.len(),
            control_letters.len()
        ));
    }
    println!(
        "churn OK: kill -9 mid-churn recovered all {jobs} jobs in {recovery_seconds:.2} s; \
         /fleet/jobs and /fleet/deadletter byte-identical to the uninterrupted run"
    );

    let doc = Json::obj(vec![
        (
            "config",
            Json::obj(vec![
                ("jobs", Json::Num(jobs as f64)),
                ("deltas", Json::Num(deltas as f64)),
                ("clusters", Json::Num(opts.clusters as f64)),
                ("preemptions", Json::Num(losses as f64)),
                ("rejoins", Json::Num(rejoins as f64)),
                ("model", Json::Str(opts.model.clone())),
                ("seed", Json::Num(opts.seed as f64)),
            ]),
        ),
        (
            "register",
            Json::obj(vec![
                ("seconds", Json::Num(register_seconds)),
                (
                    "jobs_per_sec",
                    Json::Num(jobs as f64 / register_seconds.max(1e-9)),
                ),
            ]),
        ),
        (
            "churn",
            Json::obj(vec![
                ("first_half_seconds", Json::Num(first_half_seconds)),
                ("second_half_seconds", Json::Num(second_half_seconds)),
                ("control_seconds", Json::Num(control_seconds)),
                ("mean_gap_ms", Json::Num(mean_gap.as_secs_f64() * 1e3)),
            ]),
        ),
        (
            "recovery",
            Json::obj(vec![
                ("seconds", Json::Num(recovery_seconds)),
                ("jobs_recovered", Json::Num(recovered as f64)),
            ]),
        ),
        (
            "equivalence",
            Json::obj(vec![
                ("jobs_doc_bytes", Json::Num(crashed_jobs.len() as f64)),
                ("jobs_doc_identical", Json::Bool(true)),
                ("dead_letters_identical", Json::Bool(true)),
            ]),
        ),
        (
            "fleet_metrics",
            Json::Obj(metrics.into_iter().map(|(k, v)| (k, Json::Num(v))).collect()),
        ),
    ]);
    std::fs::write(&out, doc.pretty() + "\n").map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out}");
    let _ = std::fs::remove_dir_all(&base);
    Ok(())
}

/// The standalone `--chaos` phase: host (or target) a server, run the
/// probes, confirm the server is still healthy.
fn chaos(opts: &Options) -> Result<(), String> {
    let mut hosted: Option<Server> = None;
    let addr: SocketAddr = match &opts.addr {
        Some(addr) => addr.parse().map_err(|e| format!("--addr {addr}: {e}"))?,
        None => {
            let server = Server::start(ServeConfig::default()).map_err(|e| e.to_string())?;
            let addr = server.addr();
            hosted = Some(server);
            addr
        }
    };
    let mut probes = chaos_probes(addr, &opts.model)?;
    // The deadline and rejoin-replay probes need servers of their own
    // (a short deadline, a fleet plane), so they only run when this
    // harness controls the server configuration.
    if opts.addr.is_none() {
        deadline_probe(&opts.model)?;
        rejoin_replay_probe(&opts.model)?;
        probes += 2;
    } else {
        println!(
            "note: skipping the deadline and rejoin-replay probes \
             (an external --addr controls its own configuration)"
        );
    }
    println!(
        "chaos OK: {probes} adversarial probes answered correctly, \
         well-formed requests served throughout"
    );
    if let Some(server) = hosted {
        server.shutdown();
    }
    Ok(())
}

/// The CI gate: one decision, one metrics scrape, chaos probes, clean
/// shutdown.
fn smoke(opts: &Options) -> Result<(), String> {
    let server = Server::start(ServeConfig::default()).map_err(|e| e.to_string())?;
    let addr = server.addr();
    let decision = espresso_serve::client::request(addr, "POST", "/decide", &body(&opts.model, 2, 0.01))
        .map_err(|e| format!("decide: {e}"))?;
    if decision.status != 200 {
        return Err(format!(
            "decide: status {} body {}",
            decision.status,
            String::from_utf8_lossy(&decision.body)
        ));
    }
    let doc = Json::parse(&String::from_utf8_lossy(&decision.body))
        .map_err(|e| format!("decide response is not JSON: {e}"))?;
    let iteration_ms = doc
        .req::<f64>("iteration_time_ms")
        .map_err(|e| format!("decide response: {e}"))?;
    let metrics = espresso_serve::client::request(addr, "GET", "/metrics", b"")
        .map_err(|e| format!("metrics: {e}"))?;
    if metrics.status != 200 {
        return Err(format!("metrics: status {}", metrics.status));
    }
    Json::parse(&String::from_utf8_lossy(&metrics.body))
        .map_err(|e| format!("metrics response is not JSON: {e}"))?;
    let probes = chaos_probes(addr, &opts.model)?;
    server.shutdown();
    deadline_probe(&opts.model)?;
    println!(
        "serve smoke OK: decision in {iteration_ms:.2} ms iteration time, metrics scraped, \
         {} chaos probes survived, clean shutdown",
        probes + 1,
    );
    Ok(())
}

fn run(opts: &Options) -> Result<(), String> {
    if opts.smoke {
        return smoke(opts);
    }
    if opts.chaos {
        return chaos(opts);
    }
    if opts.fleet_gate {
        return fleet_gate(opts);
    }
    if opts.churn {
        return churn_bench(opts);
    }
    if opts.fleet {
        return fleet_bench(opts);
    }
    // Either target an external server or host one in-process.
    let mut hosted: Option<Server> = None;
    let addr: SocketAddr = match &opts.addr {
        Some(addr) => addr.parse().map_err(|e| format!("--addr {addr}: {e}"))?,
        None => {
            let server = Server::start(ServeConfig {
                workers: opts.clients + 2,
                ..ServeConfig::default()
            })
            .map_err(|e| e.to_string())?;
            let addr = server.addr();
            hosted = Some(server);
            addr
        }
    };

    prime(addr, opts)?;
    let phases: Vec<PhaseResult> = match opts.repeat_ratio {
        Some(ratio) => vec![run_phase("mixed", addr, opts, opts.requests, ratio)?],
        None => vec![
            run_phase("cached", addr, opts, opts.requests, 1.0)?,
            run_phase("uncached", addr, opts, opts.uncached_requests, 0.0)?,
        ],
    };

    for phase in &phases {
        println!(
            "{:<8} {:>6} requests in {:>6.2} s | {:>8.0} req/s | p50 {:.2} ms p95 {:.2} ms p99 {:.2} ms | hit rate {:.0}%",
            phase.name,
            phase.requests,
            phase.seconds,
            phase.throughput_rps,
            phase.p50_ms,
            phase.p95_ms,
            phase.p99_ms,
            phase.hit_rate() * 100.0,
        );
    }

    let doc = Json::obj(vec![
        (
            "config",
            Json::obj(vec![
                ("clients", Json::Num(opts.clients as f64)),
                ("model", Json::Str(opts.model.clone())),
                ("seed", Json::Num(opts.seed as f64)),
                (
                    "repeat_ratio",
                    opts.repeat_ratio.map_or(Json::Null, Json::Num),
                ),
            ]),
        ),
        (
            "phases",
            Json::obj(
                phases
                    .iter()
                    .map(|p| (p.name, p.to_json()))
                    .collect::<Vec<_>>(),
            ),
        ),
    ]);
    let out = opts.out.clone().unwrap_or_else(|| "BENCH_serve.json".into());
    std::fs::write(&out, doc.pretty() + "\n").map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out}");

    if let Some(server) = hosted {
        server.shutdown();
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_options(&args);
    if let Err(e) = run(&opts) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
