//! The serve campaign's driver behind `pcd chaos --serve`, run by
//! [`resilience::chaos::Campaign`]. Two kinds of trial, both seeded and
//! replayable:
//!
//! - **Storm trials** ([`ServeChaos::storm_trial`]) run a real daemon on
//!   a scratch socket and throw a seeded storm at it: normal requests,
//!   clients that vanish after sending, and cache entries corrupted on
//!   disk between requests — all under the configured fault rate, so the
//!   `Accept` and `CacheWrite` injection sites fire too. Every `done`
//!   response is compared bit-for-bit against an in-process reference
//!   computed through the same content-keyed engine path.
//! - **The restart trial** ([`ServeChaos::restart_trial`]) exercises what
//!   only a real `pcd serve` process can: a burst of requests, then
//!   SIGTERM once the burst is journaled — the daemon must exit 30 with
//!   a sealed manifest — then a restart that resumes any pending tail,
//!   serves repeats from the cache (no SCF, no VQE in the response
//!   trace), survives an on-disk cache corruption, and finally drains;
//!   the sealed manifest's records must match the reference
//!   bit-for-bit, which is the zero-downtime-restart contract.
//!
//! A trial never panics on a misbehaving daemon: every broken promise
//! is a violation in its [`Outcome`].

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use chem::Benchmark;
use obs::json::{self, JsonValue};
use resilience::chaos::Outcome;
use resilience::Checkpoint;
use supervisor::{decode_manifest, BatchMeta, JobRecord, JobSpec, JobState, KIND_BATCH_MANIFEST};

use crate::cache::{cache_key, CACHE_EXT};
use crate::daemon::{compute_record, run_serve, ServeConfig, KIND_SERVE_MANIFEST};
use crate::splitmix64;
use crate::sys;

/// Bond lengths the storm draws from. Four distinct computations, so
/// any storm longer than four requests is guaranteed repeat traffic.
const BONDS: [f64; 4] = [0.70, 0.74, 0.78, 0.82];

/// How long to wait for a daemon's socket file to appear.
const SOCKET_WAIT: Duration = Duration::from_secs(30);

/// How long a client waits to connect once the socket exists.
const CONNECT_WAIT: Duration = Duration::from_secs(10);

/// How long a client waits for its response line. A daemon that blows
/// this budget counts as wedged — the violation the campaign exists to
/// catch.
const RESPONSE_WAIT: Duration = Duration::from_secs(60);

/// How long to wait for a subprocess daemon to exit after SIGTERM.
const EXIT_WAIT: Duration = Duration::from_secs(30);

/// The serve campaign's knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeChaos {
    /// Requests per storm trial.
    pub requests: usize,
    /// Daemon worker threads for storm trials.
    pub workers: usize,
    /// Fault rate for storm trials (pipeline + serve sites).
    pub fault_rate: f64,
    /// Flight-recorder dump directory for the storm daemons.
    pub flight_dir: Option<PathBuf>,
}

impl Default for ServeChaos {
    fn default() -> Self {
        ServeChaos {
            requests: 12,
            workers: 2,
            fault_rate: 0.05,
            flight_dir: None,
        }
    }
}

fn h2_spec(id: String, bond: f64) -> JobSpec {
    JobSpec {
        id,
        benchmark: Benchmark::H2,
        bond: Some(bond),
        ratio: 1.0,
    }
}

fn next(rng: &mut u64) -> u64 {
    *rng = splitmix64(*rng);
    *rng
}

/// Reference outcomes per bond: `Some(energy_bits)` for a converged
/// reference, `None` when the reference itself quarantines under the
/// configured fault rate (the daemon must then quarantine too).
fn reference_outcomes(config: &ServeConfig) -> HashMap<u64, Option<u64>> {
    let mut reference = HashMap::new();
    for (i, bond) in BONDS.iter().enumerate() {
        let spec = h2_spec(format!("ref{i}"), *bond);
        let record = compute_record(&spec, 0, config, None);
        let outcome = match record.state {
            JobState::Done { energy_bits, .. } => Some(energy_bits),
            _ => None,
        };
        reference.insert(bond.to_bits(), outcome);
    }
    reference
}

impl ServeChaos {
    /// One storm trial: a daemon seeded with `seed`, its state in
    /// `scratch`, under a storm of `requests` seeded requests.
    pub fn storm_trial(&self, trial: usize, seed: u64, scratch: &Path) -> Outcome {
        let mut outcome = Outcome::default();
        storm(self, trial, seed, scratch, &mut outcome);
        outcome
    }

    /// The restart trial against real `pcd serve` processes spawned from
    /// `exe`, seeded with `seed`, their state in `scratch`. Its daemons
    /// run at fault rate 0: the storm trials own fault injection, and
    /// this trial isolates the kill/restart/cache contracts so an
    /// injected accept shed cannot mask a missing cache hit.
    pub fn restart_trial(exe: &Path, seed: u64, scratch: &Path) -> Outcome {
        let mut outcome = Outcome::default();
        restart(exe, seed, scratch, &mut outcome);
        outcome
    }
}

fn storm(
    options: &ServeChaos,
    trial: usize,
    trial_seed: u64,
    scratch: &Path,
    outcome: &mut Outcome,
) {
    let state_dir = scratch.to_path_buf();
    let config = ServeConfig {
        state_dir: state_dir.clone(),
        workers: options.workers.max(1),
        seed: trial_seed,
        fault_rate: options.fault_rate,
        flight_dir: options.flight_dir.clone(),
        ..ServeConfig::default()
    };
    let reference = reference_outcomes(&config);
    let socket = config.socket_path();
    let daemon = std::thread::spawn({
        let config = config.clone();
        move || run_serve(&config)
    });
    if !wait_for_path(&socket, SOCKET_WAIT) {
        outcome.violations.push("socket never appeared".to_string());
    }
    let mut rng = splitmix64(trial_seed ^ 0x000C_4A05);
    for i in 0..options.requests {
        let bond = BONDS[(next(&mut rng) % BONDS.len() as u64) as usize];
        let spec = h2_spec(format!("t{trial}-r{i}"), bond);
        outcome.add("requests_sent", 1);
        match next(&mut rng) % 5 {
            0 => {
                // The client vanishes right after sending: the daemon
                // must cancel or absorb it, never wedge.
                if let Some(mut stream) = connect_socket(&socket, CONNECT_WAIT) {
                    let _ = writeln!(stream, "{}", spec.to_json_line());
                }
                continue;
            }
            1 => {
                // Corrupt this request's sealed cache entry (if any)
                // before asking again: the daemon must quarantine it and
                // recompute the same bits.
                let key = cache_key(&spec, config.seed, config.fault_rate);
                let entry = state_dir
                    .join("cache")
                    .join(format!("{key:016x}.{CACHE_EXT}"));
                if corrupt_file(&entry, next(&mut rng)) {
                    outcome.add("corruptions_injected", 1);
                }
            }
            _ => {}
        }
        match roundtrip(&socket, &spec.to_json_line()) {
            None => outcome.violations.push(format!(
                "request {i}: no response within {RESPONSE_WAIT:?} (wedged?)"
            )),
            Some(line) => {
                check_response(&format!("request {i}"), &line, bond, &reference, outcome);
            }
        }
    }
    // Drain (the op itself can be shed by an injected accept fault —
    // retry until acknowledged).
    let mut drained = false;
    for _ in 0..50 {
        match roundtrip(&socket, "{\"op\":\"drain\"}") {
            Some(line) if response_status(&line).as_deref() == Some("draining") => {
                drained = true;
                break;
            }
            Some(_) => {}
            None => break,
        }
    }
    if !drained {
        outcome
            .violations
            .push("drain op never acknowledged".to_string());
    }
    match daemon.join() {
        Ok(Ok(summary)) => {
            if !summary.drained {
                outcome
                    .violations
                    .push("daemon exited without draining".to_string());
            }
            outcome.add("cache_hits", summary.cache_hits);
            outcome.add("cache_misses", summary.cache_misses);
        }
        Ok(Err(e)) => outcome.violations.push(format!("daemon error: {e}")),
        Err(_) => outcome
            .violations
            .push("daemon thread panicked".to_string()),
    }
    // The sealed manifest must decode under the serve kind.
    match sealed_manifest(&config) {
        Ok((meta, _)) if meta.batch_seed != config.seed => outcome.violations.push(format!(
            "sealed seed {} != {}",
            meta.batch_seed, config.seed
        )),
        Ok(_) => {}
        Err(e) => outcome.violations.push(e),
    }
}

/// Reads a daemon's sealed manifest: a serve-kind checkpoint whose
/// payload is a batch manifest.
fn sealed_manifest(config: &ServeConfig) -> Result<(BatchMeta, Vec<JobRecord>), String> {
    let mut ck = Checkpoint::read(config.manifest_path())
        .map_err(|e| format!("sealed manifest unreadable: {e}"))?;
    if ck.kind != KIND_SERVE_MANIFEST {
        return Err(format!(
            "manifest kind `{}`, expected `{KIND_SERVE_MANIFEST}`",
            ck.kind
        ));
    }
    ck.kind = KIND_BATCH_MANIFEST.to_string();
    decode_manifest(&ck).map_err(|e| format!("sealed manifest undecodable: {e}"))
}

/// Checks one response against the reference. Returns whether a `done`
/// response came from the cache, or `None` for any other response.
fn check_response(
    label: &str,
    line: &str,
    bond: f64,
    reference: &HashMap<u64, Option<u64>>,
    outcome: &mut Outcome,
) -> Option<bool> {
    let Ok(v) = json::parse(line.trim()) else {
        outcome
            .violations
            .push(format!("{label}: unparseable response {line:?}"));
        return None;
    };
    match v.get("status").and_then(JsonValue::as_str) {
        Some("done") => {
            outcome.add("done_responses", 1);
            let cached = v
                .get("cached")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false);
            if cached {
                outcome.add("cached_responses", 1);
                if stages_contain(&v, "scf") || stages_contain(&v, "vqe") {
                    outcome
                        .violations
                        .push(format!("{label}: cache hit ran pipeline stages"));
                }
            }
            let bits = v
                .get("energy_bits")
                .and_then(JsonValue::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok());
            match reference.get(&bond.to_bits()) {
                Some(Some(expected)) if bits != Some(*expected) => {
                    outcome.violations.push(format!(
                        "{label}: energy bits {bits:?} diverge from reference {expected:016x}"
                    ));
                }
                Some(None) => outcome.violations.push(format!(
                    "{label}: daemon served done where reference quarantines"
                )),
                _ => {}
            }
            return Some(cached);
        }
        Some("shed") => outcome.add("shed_responses", 1),
        Some("quarantined") => {
            if matches!(reference.get(&bond.to_bits()), Some(Some(_))) {
                outcome.violations.push(format!(
                    "{label}: daemon quarantined where reference converges"
                ));
            }
        }
        Some("pending") | Some("deadline") => {}
        other => outcome
            .violations
            .push(format!("{label}: unexpected response status {other:?}")),
    }
    None
}

fn stages_contain(v: &JsonValue, stage: &str) -> bool {
    match v.get("stages") {
        Some(JsonValue::Array(stages)) => stages.iter().any(|s| s.as_str() == Some(stage)),
        _ => false,
    }
}

fn response_status(line: &str) -> Option<String> {
    let v = json::parse(line.trim()).ok()?;
    Some(v.get("status")?.as_str()?.to_string())
}

fn response_field(line: &str, field: &str) -> Option<f64> {
    let v = json::parse(line.trim()).ok()?;
    match v.get(field)? {
        JsonValue::Number(n) => Some(*n),
        _ => None,
    }
}

fn wait_for_path(path: &Path, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while !path.exists() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

fn connect_socket(path: &Path, timeout: Duration) -> Option<UnixStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match UnixStream::connect(path) {
            Ok(stream) => return Some(stream),
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return None,
        }
    }
}

fn roundtrip(socket: &Path, line: &str) -> Option<String> {
    let mut stream = connect_socket(socket, CONNECT_WAIT)?;
    stream.set_read_timeout(Some(RESPONSE_WAIT)).ok()?;
    writeln!(stream, "{line}").ok()?;
    let mut reader = BufReader::new(stream);
    let mut out = String::new();
    match reader.read_line(&mut out) {
        Ok(n) if n > 0 => Some(out),
        _ => None,
    }
}

/// Flips one seeded byte of `path` in place. Returns whether a file was
/// actually corrupted (a missing entry is not).
fn corrupt_file(path: &Path, salt: u64) -> bool {
    let Ok(mut bytes) = std::fs::read(path) else {
        return false;
    };
    if bytes.is_empty() {
        return false;
    }
    let idx = (splitmix64(salt) as usize) % bytes.len();
    bytes[idx] ^= 0x20;
    std::fs::write(path, &bytes).is_ok()
}

// ---------------------------------------------------------------------
// Subprocess phase: SIGTERM, restart, cache-hit and corruption checks
// against a real `pcd serve` process.
// ---------------------------------------------------------------------

fn spawn_serve(exe: &Path, config: &ServeConfig) -> Option<Child> {
    Command::new(exe)
        .arg("serve")
        .arg("--state-dir")
        .arg(&config.state_dir)
        .arg("--seed")
        .arg(config.seed.to_string())
        .arg("--workers")
        .arg(config.workers.to_string())
        .arg("--fault-rate")
        .arg(config.fault_rate.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .ok()
}

fn wait_child(child: &mut Child, timeout: Duration) -> Option<i32> {
    let deadline = Instant::now() + timeout;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return status.code(),
            Ok(None) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return None;
            }
        }
    }
}

/// Decodes the sealed manifest: pending-record count plus the bonds of
/// every journaled request (by id, via `sent`). Journaled bonds are the
/// ones whose repeats must be cache hits after restart.
fn sealed_state(
    config: &ServeConfig,
    sent: &HashMap<String, f64>,
    outcome: &mut Outcome,
) -> (usize, HashSet<u64>) {
    let mut pending = 0;
    let mut sealed = HashSet::new();
    match sealed_manifest(config) {
        Ok((_, records)) => {
            for record in records {
                if !record.state.is_terminal() {
                    pending += 1;
                }
                if let Some(bond) = sent.get(&record.id) {
                    sealed.insert(bond.to_bits());
                }
            }
        }
        Err(e) => outcome
            .violations
            .push(format!("subprocess: after SIGTERM: {e}")),
    }
    (pending, sealed)
}

fn restart(exe: &Path, seed: u64, scratch: &Path, outcome: &mut Outcome) {
    let state_dir = scratch.to_path_buf();
    let config = ServeConfig {
        state_dir: state_dir.clone(),
        workers: 1,
        seed,
        fault_rate: 0.0,
        ..ServeConfig::default()
    };
    let reference = reference_outcomes(&config);
    let socket = config.socket_path();
    let mut sent: HashMap<String, f64> = HashMap::new();

    // --- Lifetime 1: burst, then SIGTERM. ---
    let Some(mut child) = spawn_serve(exe, &config) else {
        outcome
            .violations
            .push("subprocess: failed to spawn pcd serve".to_string());
        return;
    };
    if !wait_for_path(&socket, SOCKET_WAIT) {
        outcome
            .violations
            .push("subprocess: socket never appeared".to_string());
        let _ = child.kill();
        let _ = child.wait();
        return;
    }
    // Hold the streams open: a vanished client is *cancelled*, a held
    // one caught by the drain is *pended* — the restart path under test.
    let mut held = Vec::new();
    for (i, bond) in BONDS.iter().enumerate() {
        let spec = h2_spec(format!("s1-{i}"), *bond);
        sent.insert(spec.id.clone(), *bond);
        if let Some(mut stream) = connect_socket(&socket, CONNECT_WAIT) {
            if writeln!(stream, "{}", spec.to_json_line()).is_ok() {
                held.push(stream);
                outcome.add("requests_sent", 1);
            }
        }
    }
    // Pull the plug once the daemon has accepted (journaled) the whole
    // burst — asked, not guessed with a fixed sleep.
    let burst = held.len();
    let deadline = Instant::now() + RESPONSE_WAIT;
    loop {
        let accepted = roundtrip(&socket, "{\"op\":\"stats\"}")
            .and_then(|line| response_field(&line, "accepted"))
            .unwrap_or(0.0) as usize;
        if accepted >= burst {
            break;
        }
        if Instant::now() > deadline {
            outcome.violations.push(format!(
                "subprocess: daemon accepted {accepted} of {burst} burst requests"
            ));
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    if !sys::send_sigterm(child.id()) {
        outcome
            .violations
            .push("subprocess: SIGTERM delivery failed".to_string());
    }
    match wait_child(&mut child, EXIT_WAIT) {
        Some(30) => {}
        code => outcome.violations.push(format!(
            "subprocess: SIGTERM exit code {code:?}, expected 30 (drained)"
        )),
    }
    drop(held);
    outcome.add("restarts", 1);
    let (pending, sealed) = sealed_state(&config, &sent, outcome);
    if sealed.is_empty() {
        outcome
            .violations
            .push("subprocess: no requests journaled before SIGTERM".to_string());
    }

    // --- Lifetime 2: resume, repeats hit the cache, survive corruption,
    // drain cleanly. ---
    let Some(mut child) = spawn_serve(exe, &config) else {
        outcome
            .violations
            .push("subprocess: failed to respawn pcd serve".to_string());
        return;
    };
    if !wait_for_path(&socket, SOCKET_WAIT) {
        outcome
            .violations
            .push("subprocess: socket never reappeared after restart".to_string());
        let _ = child.kill();
        let _ = child.wait();
        return;
    }
    // Wait until the resumed tail has recomputed (its results seal the
    // cache the repeats below must hit).
    let deadline = Instant::now() + RESPONSE_WAIT;
    loop {
        let resumed = roundtrip(&socket, "{\"op\":\"stats\"}")
            .and_then(|line| response_field(&line, "resumed"))
            .unwrap_or(0.0) as usize;
        if resumed >= pending {
            break;
        }
        if Instant::now() > deadline {
            outcome
                .violations
                .push("subprocess: resumed tail never completed".to_string());
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    // Repeats of journaled requests must be O(1) cache hits.
    for (i, bond) in BONDS.iter().enumerate() {
        let spec = h2_spec(format!("s2-{i}"), *bond);
        sent.insert(spec.id.clone(), *bond);
        outcome.add("requests_sent", 1);
        let Some(line) = roundtrip(&socket, &spec.to_json_line()) else {
            outcome
                .violations
                .push(format!("subprocess repeat {i}: no response (wedged?)"));
            continue;
        };
        let label = format!("subprocess repeat {i}");
        match check_response(&label, &line, *bond, &reference, outcome) {
            Some(false) if sealed.contains(&bond.to_bits()) => outcome.violations.push(format!(
                "{label}: journaled request recomputed instead of hitting the cache"
            )),
            Some(_) => {}
            None => outcome
                .violations
                .push(format!("{label}: not done: {}", line.trim())),
        }
    }
    // Corrupt a sealed entry on disk; the daemon must quarantine it and
    // recompute the same bits — never serve the corrupt seal.
    let bond = BONDS[0];
    let corrupt_spec = h2_spec("s2-corrupt".to_string(), bond);
    sent.insert(corrupt_spec.id.clone(), bond);
    let key = cache_key(&corrupt_spec, config.seed, config.fault_rate);
    let entry = state_dir
        .join("cache")
        .join(format!("{key:016x}.{CACHE_EXT}"));
    if corrupt_file(&entry, seed ^ 0x0B17_F11B) {
        outcome.add("corruptions_injected", 1);
        outcome.add("requests_sent", 1);
        match roundtrip(&socket, &corrupt_spec.to_json_line()) {
            None => outcome
                .violations
                .push("subprocess corruption probe: no response (wedged?)".to_string()),
            Some(line) => {
                check_response(
                    "subprocess corruption probe",
                    &line,
                    bond,
                    &reference,
                    outcome,
                );
                let mut quarantined = entry.as_os_str().to_os_string();
                quarantined.push(".quarantined");
                if !PathBuf::from(quarantined).exists() {
                    outcome.violations.push(
                        "subprocess corruption probe: corrupt entry not quarantined aside"
                            .to_string(),
                    );
                }
            }
        }
    }
    // Grab the daemon-side cache stats before draining.
    if let Some(line) = roundtrip(&socket, "{\"op\":\"stats\"}") {
        outcome.add(
            "cache_hits",
            response_field(&line, "cache_hits").unwrap_or(0.0) as usize,
        );
        outcome.add(
            "cache_misses",
            response_field(&line, "cache_misses").unwrap_or(0.0) as usize,
        );
    }
    // Final drain via the op, then the sealed record-level replay check.
    let mut acked = false;
    for _ in 0..10 {
        if let Some(line) = roundtrip(&socket, "{\"op\":\"drain\"}") {
            if response_status(&line).as_deref() == Some("draining") {
                acked = true;
                break;
            }
        }
    }
    if !acked {
        outcome
            .violations
            .push("subprocess: final drain never acknowledged".to_string());
    }
    match wait_child(&mut child, EXIT_WAIT) {
        Some(30) => {}
        code => outcome.violations.push(format!(
            "subprocess: final drain exit code {code:?}, expected 30"
        )),
    }
    outcome.add("restarts", 1);
    // Every sealed Done record — including the resumed tail — must match
    // the in-process reference bit-for-bit: the restart replay contract.
    match sealed_manifest(&config) {
        Ok((_, records)) => {
            for record in &records {
                let JobState::Done { energy_bits, .. } = record.state else {
                    continue;
                };
                let Some(bond) = sent.get(&record.id) else {
                    continue;
                };
                if reference.get(&bond.to_bits()) != Some(&Some(energy_bits)) {
                    outcome.violations.push(format!(
                        "subprocess: sealed record `{}` diverges from reference",
                        record.id
                    ));
                }
            }
        }
        Err(e) => outcome
            .violations
            .push(format!("subprocess: after the final drain: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience::chaos::{Campaign, Report};

    fn storms(seed: u64, requests: usize, fault_rate: f64) -> Report {
        let driver = ServeChaos {
            requests,
            fault_rate,
            ..ServeChaos::default()
        };
        Campaign::new("serve-test", seed, 1).run(|t, s, dir| driver.storm_trial(t, s, dir))
    }

    #[test]
    fn in_process_campaign_passes_clean() {
        let report = storms(11, 6, 0.0);
        assert!(report.survived(), "{:?}", report.outcomes);
        assert!(
            report.total("done_responses") > 0,
            "storm produced no answers"
        );
    }

    #[test]
    fn in_process_campaign_survives_fault_injection() {
        let report = storms(23, 8, 0.15);
        assert!(report.survived(), "{:?}", report.outcomes);
    }
}
