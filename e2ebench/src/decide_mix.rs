//! `decide-mix`: a closed loop of repeated and fresh `/decide` requests.
//!
//! Two keep-alive connections each send their own seeded stream. In every
//! run of ten requests one is *fresh* — a canonical key nobody has sent
//! before, so the server runs the planner — and nine are *repeats* of a
//! key this connection has already had answered, so the server answers
//! from its decision cache. Fresh requests are drawn class by class from
//! a fixed catalogue in seeded blocks, which keeps the mix of planner
//! costs the same in every run and on every seed.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use espresso::service::{decide, DecisionRequest};
use espresso_json::Json;
use espresso_serve::client::Connection;
use espresso_serve::{ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{maybe_span, Tracer};
use crate::Live;

/// Closed-loop connections (one per core of the reference machine).
pub const CONNECTIONS: usize = 2;
/// One request in this many is fresh.
const FRESH_EVERY: usize = 10;
/// Repeats draw from the pool plus this many most recent fresh keys of
/// their connection, so a repeat always targets a key the LRU still
/// holds, however long the run.
const RECENT_FRESH: usize = 64;
/// Fresh bodies per connection re-derived in process and compared byte
/// for byte, drawn from its first `FRESH_CHECK_WINDOW` fresh requests.
const FRESH_CHECKS: usize = 2;
const FRESH_CHECK_WINDOW: u64 = 50;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

const DGC: &str = r#"{"Dgc":{"density":0.01}}"#;
const EFSIGN: &str = r#""EfSignSgd""#;
const FP16: &str = r#""Fp16""#;
const RANDOMK: &str = r#"{"RandomK":{"density":0.01}}"#;
const DEGRADE_FACTORS: [f64; 3] = [1.5, 2.0, 3.0];

/// One decision request, as the generator describes it.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub model: &'static str,
    pub machines: usize,
    pub algo: &'static str,
    pub inter_gbps: f64,
    /// Inter-machine degradation factor; `None` is nominal health.
    pub degraded: Option<f64>,
}

impl Spec {
    pub fn body(&self) -> String {
        let health = self.degraded.map_or_else(String::new, |f| {
            format!(r#","health":{{"inter":{{"Degraded":{{"factor":{f:?}}}}}}}"#)
        });
        format!(
            r#"{{"model":{{"model":"{}"}},"gc":{{"algorithm":{}}},"system":{{"machines":{},"gpus_per_machine":4,"intra":"Pcie","inter_gbps":{:?}}}{health}}}"#,
            self.model, self.algo, self.machines, self.inter_gbps
        )
    }
}

/// The primed pool: cheap single-machine specs every connection sends
/// once during set-up.
pub fn pool() -> Vec<Spec> {
    let mut specs = Vec::new();
    for model in ["LSTM", "VGG16"] {
        for algo in [DGC, EFSIGN, FP16, RANDOMK] {
            specs.push(Spec {
                model,
                machines: 1,
                algo,
                inter_gbps: 25.0,
                degraded: None,
            });
        }
    }
    specs
}

/// A class of fresh request; `Sibling` re-sends an earlier degraded
/// fresh request of the same connection under a different health, so the
/// planner's warm start for that spec hits.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FreshClass {
    Nominal(&'static str, usize, &'static str),
    Degraded(&'static str, usize, &'static str),
    Sibling,
}

/// One block of fresh classes; every block holds each class once.
fn fresh_catalogue() -> Vec<FreshClass> {
    let mut classes = Vec::new();
    for machines in [1, 2, 4] {
        for algo in [DGC, EFSIGN, FP16] {
            classes.push(FreshClass::Nominal("LSTM", machines, algo));
        }
        for algo in [DGC, EFSIGN] {
            classes.push(FreshClass::Nominal("VGG16", machines, algo));
        }
    }
    for model in ["UGATIT", "GPT2", "ResNet101", "BERT-base"] {
        for algo in [DGC, EFSIGN] {
            classes.push(FreshClass::Nominal(model, 1, algo));
        }
    }
    for (model, machines) in [("LSTM", 1), ("LSTM", 2), ("VGG16", 1)] {
        for algo in [DGC, EFSIGN] {
            classes.push(FreshClass::Degraded(model, machines, algo));
            classes.push(FreshClass::Sibling);
        }
    }
    classes
}

/// The inter-machine bandwidth of the `n`-th fresh request of a run, so
/// the canonical key of every fresh request differs from every other. The
/// half step keeps it off whole numbers, and so off the pool's 25 Gbps.
fn fresh_gbps(n: u64, offset: u64) -> f64 {
    24.0 + (((n + offset) % 8192) as f64 + 0.5) / 1024.0
}

/// One request of a connection's stream.
#[derive(Debug, Clone)]
pub struct Request {
    pub body: String,
    pub fresh: bool,
}

/// The seeded request stream of one connection. It is a pure function of
/// the seed, the connection and the requests already issued, so the
/// replay regenerates exactly what the live run sent.
pub struct Stream {
    rng: StdRng,
    connection: usize,
    catalogue: Vec<FreshClass>,
    block: Vec<FreshClass>,
    gbps_offset: u64,
    fresh_sent: u64,
    slot: usize,
    fresh_slot: usize,
    pool: Vec<String>,
    recent: Vec<String>,
    degraded_sent: Vec<Spec>,
}

impl Stream {
    pub fn new(seed: u64, connection: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ (0xdec1_de00 + connection as u64));
        // Shared by both connections, so their bandwidths never collide.
        let gbps_offset = StdRng::seed_from_u64(seed ^ 0x9b95).random_range(0..4096u64);
        let fresh_slot = rng.random_range(0..FRESH_EVERY);
        Self {
            rng,
            connection,
            catalogue: fresh_catalogue(),
            block: Vec::new(),
            gbps_offset,
            fresh_sent: 0,
            slot: 0,
            fresh_slot,
            pool: pool().iter().map(Spec::body).collect(),
            recent: Vec::new(),
            degraded_sent: Vec::new(),
        }
    }

    fn unique_gbps(&self) -> f64 {
        fresh_gbps(
            self.fresh_sent * CONNECTIONS as u64 + self.connection as u64,
            self.gbps_offset,
        )
    }

    fn next_fresh(&mut self) -> Spec {
        if self.block.is_empty() {
            self.block = self.catalogue.clone();
            // Fisher-Yates with the stream's own generator.
            for i in (1..self.block.len()).rev() {
                let j = self.rng.random_range(0..=i);
                self.block.swap(i, j);
            }
        }
        let mut class = self.block.pop().expect("a refilled block is not empty");
        if class == FreshClass::Sibling && self.degraded_sent.is_empty() {
            class = FreshClass::Degraded("LSTM", 1, DGC);
        }
        let factor = DEGRADE_FACTORS[self.rng.random_range(0..DEGRADE_FACTORS.len())];
        let spec = match class {
            FreshClass::Nominal(model, machines, algo) => Spec {
                model,
                machines,
                algo,
                inter_gbps: self.unique_gbps(),
                degraded: None,
            },
            FreshClass::Degraded(model, machines, algo) => Spec {
                model,
                machines,
                algo,
                inter_gbps: self.unique_gbps(),
                degraded: Some(factor),
            },
            FreshClass::Sibling => {
                // Each degraded request yields at most one sibling, with a
                // factor it has not been sent with, so the key is new.
                let at = self.rng.random_range(0..self.degraded_sent.len());
                let source = self.degraded_sent.swap_remove(at);
                let old = source
                    .degraded
                    .expect("only degraded requests have siblings");
                let shifted = DEGRADE_FACTORS
                    .iter()
                    .copied()
                    .filter(|f| *f != old)
                    .nth(self.rng.random_range(0..DEGRADE_FACTORS.len() - 1))
                    .expect("two other factors exist");
                Spec {
                    degraded: Some(shifted),
                    ..source
                }
            }
        };
        if matches!(class, FreshClass::Degraded(..)) {
            self.degraded_sent.push(spec.clone());
        }
        self.fresh_sent += 1;
        spec
    }

    /// The next request; call [`Stream::answered`] once it is answered.
    pub fn next_request(&mut self) -> Request {
        let fresh = self.slot == self.fresh_slot;
        self.slot += 1;
        if self.slot == FRESH_EVERY {
            self.slot = 0;
            self.fresh_slot = self.rng.random_range(0..FRESH_EVERY);
        }
        if fresh {
            return Request {
                body: self.next_fresh().body(),
                fresh: true,
            };
        }
        let known = self.pool.len() + self.recent.len();
        let pick = self.rng.random_range(0..known);
        let body = if pick < self.pool.len() {
            self.pool[pick].clone()
        } else {
            self.recent[pick - self.pool.len()].clone()
        };
        Request { body, fresh: false }
    }

    /// Records that a request was answered: a fresh key may now repeat.
    /// Returns the body of the fresh key that can no longer repeat, if
    /// this pushed one out.
    pub fn answered(&mut self, request: &Request) -> Option<String> {
        if !request.fresh {
            return None;
        }
        self.recent.push(request.body.clone());
        (self.recent.len() > RECENT_FRESH).then(|| self.recent.remove(0))
    }
}

/// Raw bytes of a `/decide` request, exactly as the client sends them.
pub fn wire_request(body: &str) -> Vec<u8> {
    let mut bytes = format!(
        "POST /decide HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

fn open(addr: std::net::SocketAddr) -> Result<Connection, String> {
    Connection::open(addr, Duration::from_secs(30)).map_err(|e| format!("connect {addr}: {e}"))
}

fn post(conn: &mut Connection, body: &str) -> Result<Vec<u8>, String> {
    let resp = conn
        .request("POST", "/decide", body.as_bytes())
        .map_err(|e| format!("POST /decide: {e}"))?;
    if resp.status != 200 {
        return Err(format!(
            "POST /decide: status {} ({})",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ));
    }
    Ok(resp.body)
}

fn cache_misses(server: &Server) -> Result<u64, String> {
    let doc = Json::parse(&server.metrics_json()).map_err(|e| format!("/metrics: {e}"))?;
    doc.req::<u64>("cache_misses")
        .map_err(|e| format!("/metrics cache_misses: {e}"))
}

/// The server, one primed connection per generator thread, and the first
/// answer for each pool key.
type Primed = (Server, Vec<Connection>, HashMap<String, Vec<u8>>);

/// Starts a server and primes the pool over every connection.
fn set_up() -> Result<Primed, String> {
    let server = Server::start(ServeConfig::default()).map_err(|e| e.to_string())?;
    let mut conns = Vec::new();
    let mut first = HashMap::new();
    for _ in 0..CONNECTIONS {
        let mut conn = open(server.addr())?;
        for spec in pool() {
            let body = spec.body();
            let answer = post(&mut conn, &body)?;
            first.entry(body).or_insert(answer);
        }
        conns.push(conn);
    }
    Ok((server, conns, first))
}

/// What one connection saw.
#[derive(Default)]
struct Seen {
    fresh_ms: Vec<f64>,
    repeat_ms: Vec<f64>,
    /// Untraced end-to-end microseconds of each request, in send order.
    request_us: Vec<f64>,
    /// The sampled fresh requests and their answers.
    fresh_bodies: Vec<(String, Vec<u8>)>,
    failed: u64,
    mismatches: u64,
    error: Option<String>,
}

fn drive(
    conn: &mut Connection,
    seed: u64,
    connection: usize,
    until: Instant,
    first: &HashMap<String, Vec<u8>>,
    tracer: Option<&Tracer>,
) -> Seen {
    let mut stream = Stream::new(seed, connection);
    let mut seen = Seen::default();
    // First answers of the fresh keys that may still repeat.
    let mut answers: HashMap<String, Vec<u8>> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4ec ^ connection as u64);
    let checked: Vec<usize> = (0..FRESH_CHECKS)
        .map(|_| rng.random_range(0..FRESH_CHECK_WINDOW) as usize)
        .collect();
    let mut index = 0u64;
    while Instant::now() < until {
        let request = stream.next_request();
        let request_id = request_id(connection, index);
        index += 1;
        let t0 = Instant::now();
        let outcome = maybe_span(tracer, "decide.request", request_id, || {
            post(conn, &request.body)
        });
        let elapsed = t0.elapsed();
        seen.request_us.push(elapsed.as_secs_f64() * 1e6);
        let body = match outcome {
            Ok(body) => body,
            Err(e) => {
                seen.failed += 1;
                seen.error.get_or_insert(e);
                break;
            }
        };
        let ms = elapsed.as_secs_f64() * 1e3;
        if request.fresh {
            if checked.contains(&seen.fresh_ms.len()) {
                seen.fresh_bodies.push((request.body.clone(), body.clone()));
            }
            seen.fresh_ms.push(ms);
            answers.insert(request.body.clone(), body);
        } else {
            seen.repeat_ms.push(ms);
            let expected = answers
                .get(&request.body)
                .or_else(|| first.get(&request.body));
            if expected != Some(&body) {
                seen.failed += 1;
                seen.mismatches += 1;
            }
        }
        if let Some(gone) = stream.answered(&request) {
            answers.remove(&gone);
        }
    }
    seen
}

/// The request id a connection's `index`-th request carries in spans.
pub fn request_id(connection: usize, index: u64) -> u64 {
    ((connection as u64) << 40) | index
}

/// Runs the workload for `seconds` and checks every answer.
pub fn run(seed: u64, seconds: f64, tracer: Option<&Tracer>) -> Result<Live, String> {
    let mut setup_s = Vec::new();
    let mut timed_set_up = || -> Result<_, String> {
        let t0 = Instant::now();
        let ready = set_up()?;
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok(ready)
    };
    for _ in 1..SETUPS {
        let (server, conns, _) = timed_set_up()?;
        drop(conns);
        server.shutdown();
    }
    // The last set-up is the one measured.
    let (server, mut conns, first) = timed_set_up()?;
    let misses_before = cache_misses(&server)?;

    let started = Instant::now();
    let until = started + Duration::from_secs_f64(seconds);
    let seen: Vec<Seen> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let first = &first;
                scope.spawn(move || drive(conn, seed, c, until, first, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a generator thread panicked"))
            .collect()
    });
    let window_s = started.elapsed().as_secs_f64();
    let misses_after = cache_misses(&server)?;
    drop(conns);
    server.shutdown();

    let mut live = Live::new(setup_s, window_s, 0.95, 0.99);
    let mut fresh_count = 0u64;
    for (c, s) in seen.iter().enumerate() {
        live.main.extend(&s.fresh_ms);
        live.side.extend(&s.repeat_ms);
        live.ops += s.fresh_ms.len() + s.repeat_ms.len();
        live.attempted += s.request_us.len() as u64;
        live.failed += s.failed;
        fresh_count += s.fresh_ms.len() as u64;
        if let Some(e) = &s.error {
            live.problems.push(format!("connection {c}: {e}"));
        }
        if s.mismatches > 0 {
            live.problems.push(format!(
                "connection {c}: {} repeat bodies differ from the first answer for their key",
                s.mismatches
            ));
        }
        for (i, us) in s.request_us.iter().enumerate() {
            live.per_op.push((request_id(c, i as u64), *us));
        }
    }
    // Every fresh request, and only those, missed the decision cache.
    if misses_after - misses_before != fresh_count {
        live.failed += 1;
        live.problems.push(format!(
            "server counted {} cache misses, the generator sent {fresh_count} fresh requests",
            misses_after - misses_before
        ));
    }
    // A seeded sample of fresh bodies must equal an in-process decision.
    for (body, answer) in seen.iter().flat_map(|s| &s.fresh_bodies) {
        live.attempted += 1;
        let expected = DecisionRequest::parse(body)
            .and_then(|req| decide(&req))
            .map(|d| Json::encode(&d.response()).into_bytes());
        if expected.ok().as_ref() != Some(answer) {
            live.failed += 1;
            live.problems.push(format!(
                "fresh body differs from an in-process decision: {body}"
            ));
        }
    }
    live.notes.push(format!(
        "decide-mix: {} requests ({fresh_count} fresh) over {CONNECTIONS} connections in {window_s:.2} s",
        live.ops
    ));
    Ok(live)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Drives a stream as a closed loop whose every request is answered.
    fn drive(seed: u64, connection: usize, n: usize) -> Vec<Request> {
        let mut stream = Stream::new(seed, connection);
        (0..n)
            .map(|_| {
                let r = stream.next_request();
                stream.answered(&r);
                r
            })
            .collect()
    }

    fn key(body: &str) -> String {
        DecisionRequest::parse(body).unwrap().canonical_key()
    }

    #[test]
    fn fresh_keys_are_new_and_repeats_were_answered_on_the_same_connection() {
        let pool: HashSet<String> = pool().iter().map(|s| key(&s.body())).collect();
        let mut seen_anywhere = pool.clone();
        for connection in 0..CONNECTIONS {
            let mut answered = pool.clone();
            for r in drive(12, connection, 3000) {
                let k = key(&r.body);
                if r.fresh {
                    assert!(
                        seen_anywhere.insert(k.clone()),
                        "fresh key sent twice: {}",
                        r.body
                    );
                    answered.insert(k);
                } else {
                    assert!(
                        answered.contains(&k),
                        "repeat of an unanswered key: {}",
                        r.body
                    );
                }
            }
        }
    }

    #[test]
    fn fresh_bandwidths_are_distinct_and_never_the_pools() {
        for offset in [0, 1023, 4095] {
            let all: HashSet<u64> = (0..8192).map(|n| fresh_gbps(n, offset).to_bits()).collect();
            assert_eq!(all.len(), 8192);
            assert!(!all.contains(&25.0f64.to_bits()));
        }
    }

    #[test]
    fn one_request_in_ten_is_fresh() {
        let requests = drive(3, 0, 1000);
        assert_eq!(requests.iter().filter(|r| r.fresh).count(), 100);
        for window in requests.chunks(FRESH_EVERY) {
            assert_eq!(window.iter().filter(|r| r.fresh).count(), 1);
        }
    }

    #[test]
    fn siblings_shift_only_the_health_of_an_earlier_degraded_request() {
        let fresh: Vec<DecisionRequest> = drive(11, 1, 1000)
            .into_iter()
            .filter(|r| r.fresh)
            .map(|r| DecisionRequest::parse(&r.body).unwrap())
            .collect();
        let spec_key = |r: &DecisionRequest| {
            let mut r = r.clone();
            r.health = espresso_cluster::ClusterHealth::nominal();
            r.canonical_key()
        };
        let degraded = fresh.iter().filter(|r| !r.health.is_nominal()).count();
        let mut specs = HashSet::new();
        let siblings = fresh
            .iter()
            .filter(|r| !r.health.is_nominal() && !specs.insert(spec_key(r)))
            .count();
        assert!(
            siblings > 0 && 2 * siblings <= degraded,
            "{siblings} of {degraded}"
        );
    }

    #[test]
    fn the_same_seed_gives_the_same_stream() {
        let bodies = |seed| {
            drive(seed, 0, 300)
                .into_iter()
                .map(|r| r.body)
                .collect::<Vec<_>>()
        };
        assert_eq!(bodies(5), bodies(5));
        assert_ne!(bodies(5), bodies(6));
    }
}
