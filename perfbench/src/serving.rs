//! `serve-mixed`: an in-process `serve::run_serve` daemon (two workers,
//! fresh state dir, unbounded cache) under a closed loop of two client
//! connections. Each round is a fresh daemon and one seeded request
//! sequence over a pool of small-molecule specs: every pool spec is asked
//! once cold (a miss: compute plus a sealed cache write) and the rest of
//! the sequence repeats specs already answered (hits).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::json::{self, JsonValue};
use pauli_codesign::chem::Benchmark;
use pauli_codesign::resilience::FaultPlan;
use pauli_codesign::serve::{cache_key, run_serve, Cache, ServeConfig, ServeError, ServeSummary};
use pauli_codesign::supervisor::JobSpec;

use crate::expected::{Table, ENERGY_TOL_HA, RATIOS};
use crate::layers;
use crate::measure::{median, peak_rss_mb, process_cpu_s, quantile, secs, Outcome, Rng};
use crate::trace::{self, span_total_ms, Spans, DIR, JOB_STAGE_SPANS};
use crate::Args;

/// Molecules of the request pool (6, 8 and 10 qubits).
const POOL_MOLECULES: [Benchmark; 3] = [Benchmark::LiH, Benchmark::NaH, Benchmark::HF];
/// Requests per round: the 63 pool specs asked once each (misses, 30 %)
/// and 147 repeats (hits).
const REQUESTS: usize = 210;
/// Client connections, each sending its next request only after the
/// previous response (closed loop).
const CLIENTS: usize = 2;
/// Daemon workers.
const WORKERS: usize = 2;
/// Pings a traced round times after the daemon is up.
const PINGS: usize = 20;
/// How long a daemon may take to answer its first ping.
const READY_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a client waits for one response.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(120);

/// The pool: every molecule at every bond of its `bond_length_scan()`
/// and every ratio, 3 × 7 × 3 = 63 specs.
fn pool() -> Vec<JobSpec> {
    let mut pool = Vec::new();
    for b in POOL_MOLECULES {
        for bond in b.bond_length_scan() {
            for ratio in RATIOS {
                pool.push(JobSpec {
                    id: format!("{}-{bond:.3}-{ratio}", b.name()),
                    benchmark: b,
                    bond: Some(bond),
                    ratio,
                });
            }
        }
    }
    pool
}

/// The seeded request sequence, as pool indices: the seed sets the order
/// of first asks and which spec each repeat asks for. First asks are spread
/// evenly through the sequence; every other slot repeats a spec first
/// asked at least two slots earlier (so two clients seldom race on a
/// spec still being computed), or any asked spec when none is that old.
fn sequence(seed: u64, pool_len: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x5E9);
    let mut order: Vec<usize> = (0..pool_len).collect();
    rng.shuffle(&mut order);
    let mut seq = Vec::with_capacity(REQUESTS);
    let mut asked: Vec<(usize, usize)> = Vec::new(); // (slot, pool index)
    let mut next_new = 0;
    for slot in 0..REQUESTS {
        if next_new < order.len() && slot >= next_new * REQUESTS / order.len() {
            seq.push(order[next_new]);
            asked.push((slot, order[next_new]));
            next_new += 1;
            continue;
        }
        let old = asked.iter().filter(|(s, _)| s + 2 <= slot).count();
        let pick = if old > 0 {
            asked[rng.below(old)].1
        } else {
            asked[rng.below(asked.len())].1
        };
        seq.push(pick);
    }
    seq
}

/// One parsed `done` response.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Answer {
    energy_bits: u64,
    iterations: usize,
    evaluations: usize,
    cached: bool,
}

fn parse_answer(line: &str) -> Result<Answer, String> {
    let v = json::parse(line.trim()).map_err(|e| format!("bad response `{line}`: {e}"))?;
    let status = v.get("status").and_then(JsonValue::as_str).unwrap_or("");
    if status != "done" {
        return Err(format!("response `{}`", line.trim()));
    }
    let energy_bits = v
        .get("energy_bits")
        .and_then(JsonValue::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok());
    let count = |k: &str| v.get(k).and_then(JsonValue::as_u64).map(|x| x as usize);
    match (energy_bits, count("iterations"), count("evaluations")) {
        (Some(energy_bits), Some(iterations), Some(evaluations)) => Ok(Answer {
            energy_bits,
            iterations,
            evaluations,
            cached: v
                .get("cached")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
        }),
        _ => Err(format!("incomplete response `{}`", line.trim())),
    }
}

/// One request on its own connection, timed from connect to the full
/// response line.
fn call(socket: &Path, line: &str) -> Result<(String, f64), String> {
    let t = Instant::now();
    let mut stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(RESPONSE_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    BufReader::new(&stream)
        .read_line(&mut response)
        .map_err(|e| format!("receive: {e}"))?;
    Ok((response, secs(t)))
}

/// A daemon running on its own thread.
struct Daemon {
    socket: PathBuf,
    state_dir: PathBuf,
    handle: JoinHandle<Result<ServeSummary, ServeError>>,
}

impl Daemon {
    /// Starts a daemon on a fresh state dir and waits for it to answer a
    /// ping: readiness by handshake, retried until [`READY_TIMEOUT`].
    fn start(seed: u64, state_dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&state_dir);
        std::fs::create_dir_all(&state_dir).map_err(|e| format!("{state_dir:?}: {e}"))?;
        let config = ServeConfig {
            state_dir: state_dir.clone(),
            workers: WORKERS,
            seed,
            cache_max_bytes: None,
            ..ServeConfig::default()
        };
        let socket = config.socket_path();
        let handle = std::thread::spawn(move || run_serve(&config));
        let daemon = Daemon {
            socket,
            state_dir,
            handle,
        };
        let t = Instant::now();
        loop {
            match daemon.ping() {
                Ok(_) => return Ok(daemon),
                Err(e) if secs(t) > READY_TIMEOUT.as_secs_f64() || daemon.handle.is_finished() => {
                    let _ = daemon.stop();
                    return Err(format!("daemon never answered a ping: {e}"));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    fn ping(&self) -> Result<f64, String> {
        let (response, latency) = call(&self.socket, r#"{"op":"ping"}"#)?;
        if response.contains("pong") {
            Ok(latency)
        } else {
            Err(format!("ping answered `{}`", response.trim()))
        }
    }

    /// Drains the daemon and waits for it to seal and exit.
    fn stop(self) -> Result<ServeSummary, String> {
        let drained = call(&self.socket, r#"{"op":"drain"}"#);
        let summary = self
            .handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| e.to_string())?;
        drained?;
        Ok(summary)
    }
}

/// What one round measured.
struct Round {
    setup: f64,
    wall: f64,
    cpu: f64,
    /// (pool index, latency s, answer) per request, in completion order.
    answers: Vec<(usize, f64, Result<Answer, String>)>,
    pings: Vec<f64>,
    summary: ServeSummary,
    snapshot: Option<obs::Snapshot>,
    /// (load µs, store µs) per pool spec, traced rounds only.
    cache_us: Vec<(f64, f64)>,
    cache_ok: bool,
}

/// One round: fresh daemon, handshake, warm-up request (set-up), then
/// the sequence under two closed-loop clients (timed), then drain.
fn round(
    seed: u64,
    index: usize,
    pool: &[JobSpec],
    seq: &[usize],
    traced: Option<&Spans>,
) -> Result<Round, String> {
    let t = Instant::now();
    let daemon = Daemon::start(seed, PathBuf::from(format!("{DIR}/serve-{seed}-{index}")))?;
    // A spec outside the pool: NaH off the scan grid, which also fits
    // the 3sp shell on the first round.
    let warm = JobSpec {
        id: "warm-up".to_string(),
        benchmark: Benchmark::NaH,
        bond: Some(Benchmark::NaH.equilibrium_bond_length() + 0.05),
        ratio: 1.0,
    };
    let warmed = call(&daemon.socket, &warm.to_json_line()).and_then(|(r, _)| parse_answer(&r));
    if let Err(e) = warmed {
        let _ = daemon.stop();
        return Err(format!("warm-up: {e}"));
    }
    let setup = secs(t);
    let mut pings = Vec::new();
    if traced.is_some() {
        for _ in 0..PINGS {
            match daemon.ping() {
                Ok(latency) => pings.push(latency),
                Err(e) => {
                    let _ = daemon.stop();
                    return Err(e);
                }
            }
        }
        trace::start();
    }

    let lines: Vec<String> = pool.iter().map(JobSpec::to_json_line).collect();
    let next = AtomicUsize::new(0);
    let answers = Mutex::new(Vec::with_capacity(seq.len()));
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&p) = seq.get(i) else { break };
                let _span = traced.map(|spans| spans.open("serve.request", i as u64 + 1, 0));
                let (answer, latency) = match call(&daemon.socket, &lines[p]) {
                    Ok((response, latency)) => (parse_answer(&response), latency),
                    Err(e) => (Err(e), 0.0),
                };
                answers
                    .lock()
                    .expect("answer log lock")
                    .push((p, latency, answer));
            });
        }
    });
    let wall = secs(t0);
    let cpu = process_cpu_s() - cpu0;
    let snapshot = traced.map(|_| trace::stop());
    let state_dir = daemon.state_dir.clone();
    let summary = daemon.stop()?;

    let answers = answers.into_inner().expect("answer log lock");
    let (cache_us, cache_ok) = if traced.is_some() {
        time_cache(&state_dir, seed, pool, &answers)
    } else {
        (Vec::new(), true)
    };
    let _ = std::fs::remove_dir_all(&state_dir);
    Ok(Round {
        setup,
        wall,
        cpu,
        answers,
        pings,
        summary,
        snapshot,
        cache_us,
        cache_ok,
    })
}

/// Times `Cache::load` of every pool spec's sealed entry in the round's
/// state dir, and `Cache::store` of the same result into a scratch
/// cache. Also checks each loaded entry matches what was answered.
fn time_cache(
    state_dir: &Path,
    seed: u64,
    pool: &[JobSpec],
    answers: &[(usize, f64, Result<Answer, String>)],
) -> (Vec<(f64, f64)>, bool) {
    let (Ok(cache), Ok(scratch)) = (
        Cache::open(state_dir.join("cache")),
        Cache::open(state_dir.join("cache-copy")),
    ) else {
        return (Vec::new(), false);
    };
    let mut plan = FaultPlan::new(seed, 0.0);
    let mut out = Vec::new();
    let mut ok = true;
    for (p, spec) in pool.iter().enumerate() {
        let key = cache_key(spec, seed, 0.0);
        let t = Instant::now();
        let loaded = cache.load(key);
        let load_us = secs(t) * 1e6;
        let answered = answers
            .iter()
            .find_map(|(q, _, a)| (*q == p).then_some(a.as_ref().ok()).flatten());
        let Some(result) = loaded else {
            ok = false;
            continue;
        };
        ok &= answered.is_some_and(|a| a.energy_bits == result.energy_bits);
        let t = Instant::now();
        ok &= scratch.store(key, result, &mut plan);
        out.push((load_us, secs(t) * 1e6));
    }
    (out, ok)
}

/// Checks every answer: `done`, bit-identical to the first computed
/// answer for its spec (across rounds too), and within tolerance of the
/// table. Returns the first computed answer per pool spec.
fn check(
    out: &mut Outcome,
    pool: &[JobSpec],
    rounds: &[Round],
    table: &Table,
) -> BTreeMap<usize, Answer> {
    let mut first: BTreeMap<usize, Answer> = BTreeMap::new();
    for round in rounds {
        // Computed answers set the reference, whatever order they came in.
        for (p, _, answer) in &round.answers {
            if let Ok(a) = answer {
                if !a.cached {
                    first.entry(*p).or_insert(*a);
                }
            }
        }
    }
    for round in rounds {
        let mut seen = vec![false; pool.len()];
        for (p, _, answer) in &round.answers {
            seen[*p] = true;
            let spec = &pool[*p];
            let ok = match (answer, first.get(p)) {
                (Ok(a), Some(f)) => {
                    let row = table.row(spec.benchmark, spec.bond_length(), spec.ratio);
                    let same = (a.energy_bits, a.iterations, a.evaluations)
                        == (f.energy_bits, f.iterations, f.evaluations);
                    same && row.is_ok_and(|row| {
                        (f64::from_bits(a.energy_bits) - row.energy).abs() <= ENERGY_TOL_HA
                    })
                }
                _ => false,
            };
            out.check(ok, || format!("serve `{}`: {answer:?}", spec.id));
            if !ok {
                out.failed += 1;
            }
        }
        out.check(seen.iter().all(|&s| s), || {
            "a round left a pool spec unanswered".to_string()
        });
        out.check(round.summary.done == round.answers.len() + 1, || {
            format!(
                "daemon counted {} done, clients saw {} plus the warm-up",
                round.summary.done,
                round.answers.len()
            )
        });
        out.check(round.cache_ok, || {
            "a sealed cache entry differs from its answer".to_string()
        });
    }
    first
}

fn pool_error_mha(pool: &[JobSpec], first: &BTreeMap<usize, Answer>, table: &Table) -> f64 {
    let total: f64 = first
        .iter()
        .filter_map(|(p, a)| {
            let spec = &pool[*p];
            let row = table
                .row(spec.benchmark, spec.bond_length(), spec.ratio)
                .ok()?;
            Some((f64::from_bits(a.energy_bits) - row.exact) * 1e3)
        })
        .sum();
    total / pool.len() as f64
}

pub fn run(args: &Args, table: &Table) -> Outcome {
    let mut out = Outcome::default();
    let pool = pool();
    let seq = sequence(args.seed, pool.len());
    println!(
        "serve-mixed: {} pool specs, {} requests per round, {CLIENTS} clients, {WORKERS} workers",
        pool.len(),
        seq.len()
    );
    if args.trace {
        traced(&mut out, args, &pool, &seq, table);
        return out;
    }

    let mut rounds = Vec::new();
    let mut timed = 0.0;
    while rounds.is_empty() || timed < args.seconds {
        match round(args.seed, rounds.len(), &pool, &seq, None) {
            Ok(r) => {
                timed += r.wall;
                rounds.push(r);
            }
            Err(e) => {
                out.check(false, || e);
                break;
            }
        }
    }
    out.attempted = rounds.iter().map(|r| r.answers.len()).sum::<usize>().max(1);
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall).collect();
    println!("unit wall times (s): {walls:.3?}");
    let first = check(&mut out, &pool, &rounds, table);
    let recount = layers::recount(&mut out, &Spans::default(), &pool, table);

    let setups: Vec<f64> = rounds.iter().map(|r| r.setup).collect();
    let latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.answers.iter().map(|(_, l, _)| *l))
        .collect();
    let cpu: f64 = rounds.iter().map(|r| r.cpu).sum();
    out.set("setup_s", median(&setups), setups.len());
    out.set("wall_s", median(&walls), walls.len());
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.answers.len() as f64 / r.wall)
        .collect();
    out.set("jobs_per_s", median(&rates), rates.len());
    out.set("cpu_s", cpu / out.attempted as f64, out.attempted);
    out.set_latency(&latencies);
    out.set(
        "energy_error_mha",
        pool_error_mha(&pool, &first, table),
        pool.len(),
    );
    out.set("compiled_cnots", recount.cnots as f64, pool.len());
    out.set_done_frac();
    out.set("peak_rss_mb", peak_rss_mb(), 1);
    out
}

/// The traced run: two untraced rounds, then one round with the
/// program's spans and counters recorded and the benchmark's own span
/// around every request, then the cache timings, the recount and the
/// kernels on the pool's heaviest spec.
fn traced(out: &mut Outcome, args: &Args, pool: &[JobSpec], seq: &[usize], table: &Table) {
    let spans = Spans::default();
    let mut rounds = Vec::new();
    for i in 0..3 {
        let traced = (i == 2).then_some(&spans);
        match round(args.seed, i, pool, seq, traced) {
            Ok(r) => rounds.push(r),
            Err(e) => {
                out.attempted = 1;
                out.failed = 1;
                out.check(false, || e);
                return;
            }
        }
    }
    out.attempted = rounds.iter().map(|r| r.answers.len()).sum();
    let first = check(out, pool, &rounds, table);
    let last = &rounds[2];
    let snap = last.snapshot.clone().unwrap_or_default();

    trace::start();
    let recount = layers::recount(out, &spans, pool, table);
    layers::kernels_on_heaviest(out, &spans, &recount);
    let mut full = trace::stop();
    full.spans.extend(snap.spans.iter().cloned());
    for (name, value) in &snap.counters {
        *full.counters.entry(name.clone()).or_default() += value;
    }

    let n = last.answers.len();
    let ms = |pick: bool| -> Vec<f64> {
        last.answers
            .iter()
            .filter(|(_, _, a)| a.as_ref().is_ok_and(|a| a.cached == pick))
            .map(|(_, l, _)| l * 1e3)
            .collect()
    };
    let (hits, misses) = (ms(true), ms(false));
    out.set("serve.ping_ms", median(&last.pings) * 1e3, last.pings.len());
    out.set(
        "serve.hit_p50_ms",
        quantile(&hits, 0.5).unwrap_or(median(&hits)),
        hits.len(),
    );
    out.set(
        "serve.miss_p50_ms",
        quantile(&misses, 0.5).unwrap_or(median(&misses)),
        misses.len(),
    );
    out.set("serve.cache_hit_ratio", hits.len() as f64 / n as f64, n);
    out.set(
        "serve.duplicate_computes",
        misses.len().saturating_sub(pool.len()) as f64,
        n,
    );
    let loads: Vec<f64> = last.cache_us.iter().map(|c| c.0).collect();
    let stores: Vec<f64> = last.cache_us.iter().map(|c| c.1).collect();
    out.set("serve.cache_load_us", median(&loads), loads.len());
    out.set("serve.cache_store_us", median(&stores), stores.len());

    let (batch_ms, batches) = span_total_ms(&snap, "supervisor.batch");
    out.set("supervisor.batch_ms", batch_ms, batches);
    out.set(
        "supervisor.retries",
        snap.counter("supervisor.retries") as f64,
        batches,
    );
    let stage_ms: f64 = JOB_STAGE_SPANS
        .iter()
        .map(|name| span_total_ms(&snap, name).0)
        .sum();
    out.set(
        "supervisor.parallel_efficiency",
        stage_ms / (WORKERS as f64 * last.wall * 1e3),
        batches,
    );
    let (vqe_ms, vqe_runs) = span_total_ms(&snap, "vqe.run");
    out.set("vqe.run_ms", vqe_ms, vqe_runs);
    let iterations: usize = first.values().map(|a| a.iterations).sum();
    let evaluations: usize = first.values().map(|a| a.evaluations).sum();
    out.set("vqe.iterations", iterations as f64, first.len());
    out.set("vqe.evaluations", evaluations as f64, first.len());
    out.set("par.threads_spawned", snap.counter("par.threads") as f64, n);
    layers::set_recount_figures(out, &recount, pool.len());
    let untraced = median(&[rounds[0].wall, rounds[1].wall]);
    out.set(
        "obs.overhead_pct",
        (last.wall - untraced) / untraced * 100.0,
        1,
    );
    if let Err(e) = trace::write_and_report(&full, "serve-mixed", args.seed) {
        out.check(false, || e);
    }
}
