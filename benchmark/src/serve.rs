//! `serve-disk`: closed-loop query latency against an in-process
//! `xstream serve` (`xstream_server::Server`) on the disk engine.
//!
//! Set-up (service open plus the lazy first query of each family) runs
//! several times on fresh stores; the last server then takes the timed
//! load: one client connection per CPU, each sending its next query
//! only after the previous answer arrived. Every answer is checked
//! against the oracle after the timed window.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xstream_core::EngineConfig;
use xstream_server::{GraphService, ServeOptions, Server, StatsSnapshot};

use crate::bounds::Bounds;
use crate::gen::{self, Query, Rng, FAMILIES};
use crate::json::{parse, Json};
use crate::metrics::{median, percentile, Metrics};
use crate::oracle::{self, Csr, UNREACHED};
use crate::{Outcome, RunArgs};

const PAGERANK_ITERATIONS: usize = 5;

fn serve_config() -> EngineConfig {
    EngineConfig::default()
        .with_memory_budget(16 << 20)
        .with_io_unit(1 << 20)
        .with_partitions(8)
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = s.set_nodelay(true);
        let _ = s.set_read_timeout(Some(Duration::from_secs(60)));
        let writer = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(s),
            writer,
            line: String::new(),
        })
    }

    /// Sends one request line and returns the response line.
    fn ask(&mut self, request: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(self.line.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// A running server and what is needed to stop it.
struct Running {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: JoinHandle<StatsSnapshot>,
}

impl Running {
    fn start(input: &Path, store: &Path) -> Result<Running, String> {
        let _ = std::fs::remove_dir_all(store);
        let service = GraphService::open_disk(input, store, serve_config(), PAGERANK_ITERATIONS)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let opts = ServeOptions {
            port: 0,
            ..ServeOptions::default()
        };
        let server = Server::bind(service, opts, Arc::clone(&shutdown))?;
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        Ok(Running {
            addr,
            shutdown,
            handle,
        })
    }

    fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.handle.join().expect("server thread panicked");
    }
}

/// The oracle's view of the served graph.
struct Oracle {
    csr: Csr,
    labels: Vec<u32>,
    ranks: Vec<f64>,
}

impl Oracle {
    /// Checks one response line against the oracle.
    fn check(&self, q: &Query, line: &str) -> Result<(), String> {
        let v = parse(line)?;
        if v.get("ok").and_then(Json::bool) != Some(true) {
            return Err(format!("error response: {line}"));
        }
        let num = |k: &str| v.get(k).and_then(Json::num);
        let expect = |ok: bool| {
            if ok {
                Ok(())
            } else {
                Err(format!("{q:?} answered {line}"))
            }
        };
        match *q {
            Query::Bfs { root, target } => {
                let levels = self.csr.bfs(root);
                let reached = levels.iter().filter(|&&l| l != UNREACHED).count() as f64;
                let level = levels[target as usize];
                let level_ok = match v.get("level") {
                    Some(Json::Null) => level == UNREACHED,
                    Some(Json::Num(l)) => level != UNREACHED && *l == level as f64,
                    _ => false,
                };
                expect(num("reached") == Some(reached) && level_ok)
            }
            Query::Sssp { root, target } => {
                let dist = self.csr.dijkstra(root);
                let reachable = dist.iter().filter(|d| d.is_finite()).count() as f64;
                let d = dist[target as usize];
                let dist_ok = match v.get("dist") {
                    Some(Json::Null) => d.is_infinite(),
                    Some(Json::Num(x)) => d.is_finite() && *x == d as f64,
                    _ => false,
                };
                expect(num("reachable") == Some(reachable) && dist_ok)
            }
            Query::Reach { src, dst } => {
                let reachable = self.csr.bfs(src)[dst as usize] != UNREACHED;
                expect(v.get("reachable").and_then(Json::bool) == Some(reachable))
            }
            Query::SameComponent { u, v: w } => {
                let same = self.labels[u as usize] == self.labels[w as usize];
                expect(v.get("same").and_then(Json::bool) == Some(same))
            }
            Query::PagerankTop { k } => {
                let top = oracle::top_vertices(&self.ranks, k);
                let kth = self.ranks[top[k - 1] as usize];
                let Some(Json::Arr(items)) = v.get("top") else {
                    return expect(false);
                };
                let ok = items.len() == k
                    && items.iter().all(|item| match item {
                        Json::Arr(pair) if pair.len() == 2 => {
                            match (pair[0].num(), pair[1].num()) {
                                (Some(id), Some(r)) if (id as usize) < self.ranks.len() => {
                                    let want = self.ranks[id as usize];
                                    oracle::rank_close(r, want)
                                        && (want >= kth || oracle::rank_close(want, kth))
                                }
                                _ => false,
                            }
                        }
                        _ => false,
                    });
                expect(ok)
            }
        }
    }
}

/// One timed query: what was asked, how long it took, what came back.
struct Sample {
    query: Query,
    latency_s: f64,
    response: Result<String, String>,
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let scale = if args.smoke { 10 } else { 16 };
    let input = args.work.join("graph.xse");
    let (oracle, hub) = {
        let g = gen::rmat(scale, args.seed);
        gen::write_xse(&input, &g)?;
        let o = Oracle {
            csr: Csr::new(g.num_vertices, &g.edges),
            labels: oracle::components(g.num_vertices, &g.edges),
            ranks: oracle::pagerank(g.num_vertices, &g.edges, PAGERANK_ITERATIONS),
        };
        (o, oracle::max_out_degree_vertex(g.num_vertices, &g.edges))
    };
    let n = oracle.labels.len();
    crate::metrics::reset_peak_rss();
    let clients = std::thread::available_parallelism().map_or(1, |c| c.get());
    eprintln!(
        "{}: RMAT-{scale} seed {} ({n} vertices), {clients} clients",
        args.workload, args.seed
    );
    let mut out = Outcome::default();
    let fail = |out: &mut Outcome, what: String| {
        out.failed += 1;
        eprintln!("FAILED {what}");
    };

    // Set-up: open the service and send the first query of each family
    // (reach shares the bfs engine). The cold traversals start at the
    // highest out-degree vertex, so every seed does comparable work. A
    // cold query is short, so set-up repeats on fresh stores and the
    // median is reported.
    let setups = if args.smoke { 2 } else { 11 };
    let mut warm_rng = Rng::fork(args.seed, 1000);
    let mut setup_s = Vec::new();
    let mut cold_s: [Vec<f64>; 4] = Default::default();
    let mut server = None;
    for i in 0..setups {
        let t = Instant::now();
        let running = Running::start(&input, &args.work.join(format!("store{i}")))?;
        let mut client = Client::connect(running.addr)?;
        let (a, b) = (
            warm_rng.below(n as u64) as u32,
            warm_rng.below(n as u64) as u32,
        );
        let warm = [
            Query::Bfs {
                root: hub,
                target: b,
            },
            Query::Sssp {
                root: hub,
                target: b,
            },
            Query::SameComponent { u: a, v: b },
            Query::PagerankTop { k: 5 },
        ];
        for (slot, q) in warm.iter().enumerate() {
            let tq = Instant::now();
            let response = client.ask(&q.line());
            cold_s[slot].push(tq.elapsed().as_secs_f64());
            out.attempted += 1;
            if let Err(e) = response.and_then(|line| oracle.check(q, &line)) {
                fail(&mut out, e);
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
        drop(client);
        if i + 1 < setups {
            running.stop();
            let _ = std::fs::remove_dir_all(args.work.join(format!("store{i}")));
        } else {
            server = Some(running);
        }
    }
    let server = server.expect("at least one set-up");
    // Peak memory is that of serving: set-up churn of the earlier
    // servers is not counted.
    crate::metrics::reset_peak_rss();

    // The timed closed loop.
    let min_queries = if args.smoke { 40 } else { 1000 };
    let cap = Duration::from_secs_f64(args.seconds.max(120.0));
    let done = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let workers: Vec<JoinHandle<Result<Vec<Sample>, String>>> = (0..clients)
        .map(|c| {
            let done = Arc::clone(&done);
            let addr = server.addr;
            let seconds = args.seconds;
            let mut rng = Rng::fork(args.seed, c as u64);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr)?;
                let mut samples = Vec::new();
                loop {
                    let elapsed = start.elapsed();
                    let enough = elapsed.as_secs_f64() >= seconds
                        && done.load(Ordering::Relaxed) >= min_queries;
                    if enough || elapsed >= cap {
                        return Ok(samples);
                    }
                    let query = Query::draw(&mut rng, n);
                    let t = Instant::now();
                    let response = client.ask(&query.line());
                    samples.push(Sample {
                        query,
                        latency_s: t.elapsed().as_secs_f64(),
                        response,
                    });
                    done.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    let mut samples = Vec::new();
    for w in workers {
        samples.extend(w.join().expect("client thread panicked")?);
    }
    let wall_s = start.elapsed().as_secs_f64();

    let stats = if args.trace {
        let mut client = Client::connect(server.addr)?;
        Some(client.ask(r#"{"op":"stats"}"#)?)
    } else {
        None
    };
    server.stop();

    // Checks, outside the timed window.
    let mut completed = 0usize;
    for s in &samples {
        out.attempted += 1;
        match s
            .response
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|l| oracle.check(&s.query, l))
        {
            Ok(()) => completed += 1,
            Err(e) => fail(&mut out, e),
        }
    }
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_s * 1e3).collect();
    eprintln!(
        "{} queries in {wall_s:.2}s, p50 {:.3} ms, p99 {:.3} ms",
        samples.len(),
        median(&latencies),
        percentile(&latencies, 99.0)
    );

    let m = &mut out.metrics;
    if !args.trace {
        m.set("setup_s", median(&setup_s));
        m.set("bfs_s", median(&cold_s[0]));
        m.set("wcc_s", median(&cold_s[2]));
        m.set("pagerank_s", median(&cold_s[3]));
        m.set("qps", completed as f64 / wall_s);
        m.set("latency_p50_ms", median(&latencies));
        m.set("latency_p99_ms", percentile(&latencies, 99.0));
        return Ok(out);
    }

    for (f, family) in FAMILIES.iter().enumerate() {
        let l: Vec<f64> = samples
            .iter()
            .filter(|s| s.query.family() == f)
            .map(|s| s.latency_s * 1e3)
            .collect();
        m.set(format!("server.{family}.p50_ms"), median(&l));
        m.set(format!("server.{family}.p99_ms"), percentile(&l, 99.0));
    }
    if let Some(line) = stats {
        server_stats(&line, m)?;
    }
    service_times(&input, args, n, m)?;
    m.set(
        "server.overhead_ms",
        m.get("server.bfs.p50_ms") - m.get("server.service_bfs_ms"),
    );
    Bounds::measure(&args.work, args.smoke)?.set_metrics(m);
    Ok(out)
}

/// Counters from the `stats` op.
fn server_stats(line: &str, m: &mut Metrics) -> Result<(), String> {
    let v = parse(line)?;
    let c = |k: &str| v.get(k).and_then(Json::num).unwrap_or(0.0);
    let admitted = c("admitted").max(1.0);
    let runs = c("engine_runs").max(1.0);
    m.set("server.cache_hit_frac", c("cache_hits") / admitted);
    m.set("server.batched_frac", c("batched_queries") / admitted);
    m.set("server.edges_per_run", c("edges_streamed") / runs);
    m.set("server.passes_per_run", c("scatter_passes") / runs);
    m.set("server.rejected", c("rejected"));
    m.set("server.timed_out", c("timed_out"));
    m.set("server.inflight_peak", c("inflight_peak"));
    Ok(())
}

/// Direct single-root service calls, without protocol, queue or TCP.
fn service_times(input: &Path, args: &RunArgs, n: usize, m: &mut Metrics) -> Result<(), String> {
    let store = args.work.join("service");
    let mut service = GraphService::open_disk(input, &store, serve_config(), PAGERANK_ITERATIONS)?;
    let mut rng = Rng::fork(args.seed, 2000);
    let calls = if args.smoke { 5 } else { 50 };
    // The first call of each family ingests; it is not timed.
    service.run_bfs_batch(&[0])?;
    service.run_sssp_batch(&[0])?;
    let (mut bfs_ms, mut sssp_ms) = (Vec::new(), Vec::new());
    for _ in 0..calls {
        let root = rng.below(n as u64) as u32;
        let t = Instant::now();
        service.run_bfs_batch(&[root])?;
        bfs_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        service.run_sssp_batch(&[root])?;
        sssp_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(service);
    let _ = std::fs::remove_dir_all(&store);
    m.set("server.service_bfs_ms", median(&bfs_ms));
    m.set("server.service_sssp_ms", median(&sssp_ms));
    Ok(())
}
