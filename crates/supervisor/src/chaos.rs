//! The supervisor's chaos drivers, run by
//! [`resilience::chaos::Campaign`]. One [`BatchChaos`] configures both:
//!
//! - **Supervised** ([`BatchChaos::supervised_trial`]): a whole batch
//!   under injected panics, hangs, and transients. No job is lost or
//!   double-counted (`done + quarantined + shed` equals the batch size,
//!   and panics stay inside their worker). The same batch at another
//!   worker count yields bit-identical records. A batch drained after a
//!   few budget slices and resumed from its manifest reproduces the
//!   uninterrupted batch bit-for-bit.
//! - **Net** ([`BatchChaos::net_trial`]): real `pcd batch --connect`
//!   workers reach an in-process coordinator through a seeded
//!   [`net::FaultProxy`], and one is SIGKILLed while it holds a grant.
//!   The coordinator's sealed manifest must equal the in-process
//!   reference ([`Reference`]). At `net_fault_rate: 0` the proxy passes
//!   every frame through, which leaves the kill-a-fleet-member check.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use chem::Benchmark;
use net::{FaultProxy, ProxyOptions};
use resilience::chaos::Outcome;
use resilience::Checkpoint;

use crate::engine::{run_batch, run_batch_resumed, InjectionPlan, SupervisorConfig};
use crate::job::{JobRecord, JobSpec};
use crate::manifest::{decode_manifest, encode_manifest, BatchMeta};
use crate::queue::ShedPolicy;
use crate::remote::{Coordinator, CoordinatorOptions};
use crate::splitmix64;

/// Knobs the supervisor's two campaign drivers share.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchChaos {
    /// Jobs per trial batch.
    pub jobs: usize,
    /// Worker threads per supervisor: the in-process batch (supervised)
    /// or each fleet process (net).
    pub workers: usize,
    /// TCP worker processes per net trial.
    pub fleet: usize,
    /// Injection rate for panics, hangs, and transients.
    pub fault_rate: f64,
    /// Proxy injection rate per fault site per frame (net only).
    pub net_fault_rate: f64,
    /// The `pcd` binary fleets are spawned from.
    pub pcd_exe: PathBuf,
    /// When set, supervised trials arm the flight recorder here, so
    /// quarantines and injected faults dump `flight-<job>.jsonl` rings.
    pub flight_dir: Option<PathBuf>,
}

impl Default for BatchChaos {
    fn default() -> Self {
        BatchChaos {
            jobs: 6,
            workers: 2,
            fleet: 3,
            fault_rate: 0.25,
            net_fault_rate: 0.05,
            pcd_exe: PathBuf::from("pcd"),
            flight_dir: None,
        }
    }
}

pub(crate) fn trial_jobs(n: usize) -> Vec<JobSpec> {
    (0..n)
        .map(|i| JobSpec {
            id: format!("h2-{i}"),
            benchmark: Benchmark::H2,
            bond: Some(0.64 + 0.05 * i as f64),
            ratio: 1.0,
        })
        .collect()
}

impl BatchChaos {
    /// One supervised trial: checks the three supervision invariants on
    /// a batch seeded with `batch_seed`, draining into `scratch`.
    pub fn supervised_trial(&self, trial: usize, batch_seed: u64, scratch: &Path) -> Outcome {
        let jobs = trial_jobs(self.jobs.max(1));
        let config = self.supervised_config(trial, batch_seed);
        let mut outcome = Outcome::default();

        let baseline = match run_batch(&jobs, &config) {
            Ok(report) => report,
            Err(e) => {
                outcome.violations.push(format!("supervisor error: {e}"));
                return outcome;
            }
        };
        outcome.add("jobs_done", baseline.done());
        outcome.add("jobs_quarantined", baseline.quarantined());
        outcome.add("jobs_shed", baseline.shed());
        outcome.add(
            "retries_spent",
            baseline.records.iter().map(|r| r.retries).sum(),
        );

        // Invariant 1: exactly one terminal state per job, none lost.
        if baseline.records.len() != jobs.len() {
            outcome.violations.push(format!(
                "{} records for {} jobs",
                baseline.records.len(),
                jobs.len()
            ));
        }
        if !baseline.all_terminal() {
            outcome
                .violations
                .push("undrained batch left non-terminal jobs".to_string());
        }
        let counted = baseline.done() + baseline.quarantined() + baseline.shed();
        if counted != jobs.len() {
            outcome.violations.push(format!(
                "terminal states count {counted}, expected {} (lost or double-counted)",
                jobs.len()
            ));
        }

        // Invariant 2: worker count is invisible in the records.
        let alt_workers = if config.workers == 1 { 4 } else { 1 };
        match run_batch(
            &jobs,
            &SupervisorConfig {
                workers: alt_workers,
                ..config.clone()
            },
        ) {
            Ok(alt) if alt.records != baseline.records => outcome.violations.push(format!(
                "records differ between {} and {alt_workers} workers",
                config.workers
            )),
            Ok(_) => {}
            Err(e) => outcome
                .violations
                .push(format!("rerun at {alt_workers} workers failed: {e}")),
        }

        // Invariant 3: drain + resume reproduces the uninterrupted batch.
        if let Err(v) = drain_resume(&jobs, &config, &baseline.records, scratch) {
            outcome.violations.push(v);
        }
        outcome
    }

    fn supervised_config(&self, trial: usize, batch_seed: u64) -> SupervisorConfig {
        // Every third trial undersizes the queue so the shed path gets
        // exercised too, alternating the policy.
        let (queue_cap, shed) = if trial % 3 == 2 && self.jobs > 1 {
            let policy = if trial.is_multiple_of(2) {
                ShedPolicy::RejectNew
            } else {
                ShedPolicy::DropOldest
            };
            (self.jobs - 1, policy)
        } else {
            (0, ShedPolicy::RejectNew)
        };
        SupervisorConfig {
            workers: self.workers,
            batch_seed,
            max_retries: 3,
            queue_cap,
            shed,
            slice_ticks: 2,
            max_slices: 64,
            breaker_threshold: 3,
            pipeline_fault_rate: self.fault_rate * 0.5,
            injection: InjectionPlan::chaos(self.fault_rate),
            flight_dir: self.flight_dir.clone(),
            ..SupervisorConfig::default()
        }
    }

    /// The config a net trial's coordinator and its in-process reference
    /// both run under (the workers receive it in the welcome).
    fn fleet_config(&self, batch_seed: u64) -> SupervisorConfig {
        SupervisorConfig {
            workers: self.workers.max(1),
            batch_seed,
            pipeline_fault_rate: self.fault_rate,
            injection: if self.fault_rate > 0.0 {
                InjectionPlan::chaos(self.fault_rate)
            } else {
                InjectionPlan::none()
            },
            ..SupervisorConfig::default()
        }
    }

    /// One net trial: binds an in-process coordinator, stands a
    /// [`FaultProxy`] in front of it, launches `fleet` real `pcd batch
    /// --connect` workers through the proxy, SIGKILLs a seeded victim as
    /// soon as it holds a grant, and checks the coordinator's sealed
    /// manifest against the single-machine reference — no record lost,
    /// duplicated, or silently corrupted by the damaged link.
    pub fn net_trial(&self, batch_seed: u64, scratch: &Path) -> Outcome {
        let mut outcome = Outcome::default();
        if let Err(v) = self.net(batch_seed, scratch, &mut outcome) {
            outcome.violations.push(v);
        }
        outcome
    }

    fn net(&self, batch_seed: u64, scratch: &Path, outcome: &mut Outcome) -> Result<(), String> {
        let jobs = trial_jobs(self.jobs.max(1));
        let workers = self.fleet.max(1);
        let config = self.fleet_config(batch_seed);
        let reference = Reference::of(&jobs, &config)?;

        let coordinator = Coordinator::bind(
            &jobs,
            &SupervisorConfig {
                ckpt_dir: Some(scratch.join("ckpt")),
                ..config
            },
            CoordinatorOptions {
                shards: workers,
                deadline: Duration::from_secs(60),
                ..CoordinatorOptions::default()
            },
        )
        .map_err(|e| format!("coordinator bind: {e}"))?;
        let watch = coordinator.watch();
        let proxy = FaultProxy::start(ProxyOptions {
            listen: SocketAddr::from(([127, 0, 0, 1], 0)),
            target: coordinator.addr(),
            seed: splitmix64(batch_seed ^ 0x5EA_F007),
            fault_rate: self.net_fault_rate,
        })
        .map_err(|e| format!("proxy start: {e}"))?;
        let proxy_addr = proxy.addr().to_string();
        let coord_thread = std::thread::spawn(move || coordinator.run());

        let victim = (splitmix64(batch_seed ^ 0xFEED) % workers as u64) as usize;
        let victim_id = format!("w{victim}");
        let fleet = self.run_fleet(
            workers,
            victim,
            Duration::from_secs(20),
            || watch.granted_to(&victim_id),
            |w, cmd| {
                cmd.arg("batch")
                    .args(["--connect", &proxy_addr])
                    .args(["--worker-id", &format!("w{w}")])
                    .args(["--workers", &self.workers.max(1).to_string()])
                    .arg("--local-dir")
                    .arg(scratch.join(format!("w{w}")));
            },
        );
        // Join the coordinator and stop the proxy on every path.
        let coordinated = coord_thread.join();
        proxy.stop();
        let (statuses, killed_mid_run) = fleet?;
        outcome.add("killed_mid_run", usize::from(killed_mid_run));
        // Survivors must end in the exit taxonomy: 0 (drained clean) or
        // 36 (transport exhausted, sealed partial, resumable).
        for (w, status) in statuses.iter().enumerate() {
            match status.code() {
                _ if w == victim => {}
                Some(0) | Some(36) => {}
                code => outcome
                    .violations
                    .push(format!("worker w{w} exited {code:?} (want 0 or 36)")),
            }
        }

        let report = coordinated
            .map_err(|_| "coordinator thread panicked".to_string())?
            .map_err(|e| format!("coordinator run: {e}"))?;
        outcome.add("takeovers", report.takeovers.len());
        outcome.add("rescued", report.rescued.len());
        outcome.add("deduped", report.deduped);
        reference.check(outcome, "coordinator", report.records.len(), &report.sealed);
        Ok(())
    }

    /// Spawns `members` `pcd` subprocesses (`configure` adds member `i`'s
    /// arguments), SIGKILLs member `victim` as soon as `mid_run` reports
    /// it holds work (or `wait` runs out), and waits for the whole fleet.
    /// Returns every member's exit status and whether the kill landed
    /// mid-run: a victim that beat the poll to completion exits 0.
    fn run_fleet(
        &self,
        members: usize,
        victim: usize,
        wait: Duration,
        mid_run: impl Fn() -> bool,
        configure: impl Fn(usize, &mut Command),
    ) -> Result<(Vec<ExitStatus>, bool), String> {
        let mut children = Vec::with_capacity(members);
        for i in 0..members {
            let mut cmd = Command::new(&self.pcd_exe);
            configure(i, &mut cmd);
            match cmd.stdout(Stdio::null()).stderr(Stdio::null()).spawn() {
                Ok(child) => children.push(child),
                Err(e) => {
                    for mut child in children {
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                    return Err(format!("spawning fleet member {i}: {e}"));
                }
            }
        }
        // Stop polling once the victim has exited on its own: it can no
        // longer be caught mid-run, and waiting out `wait` only idles.
        let deadline = Instant::now() + wait;
        while !mid_run()
            && Instant::now() < deadline
            && children
                .get_mut(victim)
                .is_some_and(|child| matches!(child.try_wait(), Ok(None)))
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Some(child) = children.get_mut(victim) {
            let _ = child.kill();
        }
        let mut statuses = Vec::with_capacity(members);
        for (i, mut child) in children.into_iter().enumerate() {
            let status = child
                .wait()
                .map_err(|e| format!("waiting for fleet member {i}: {e}"))?;
            statuses.push(status);
        }
        let killed_mid_run = statuses.get(victim).is_some_and(|s| !s.success());
        Ok((statuses, killed_mid_run))
    }
}

/// The in-process oracle: the sealed `batch.manifest` bytes of an
/// uninterrupted run. Every fleet run must reproduce them bit for bit.
struct Reference {
    bytes: Vec<u8>,
    jobs: usize,
}

impl Reference {
    fn of(jobs: &[JobSpec], config: &SupervisorConfig) -> Result<Self, String> {
        let reference = run_batch(jobs, config).map_err(|e| format!("reference run: {e}"))?;
        let meta = BatchMeta {
            batch_seed: config.batch_seed,
            jobs: jobs.len(),
            pipeline_fault_rate: config.pipeline_fault_rate,
        };
        Ok(Reference {
            bytes: encode_manifest(&meta, &reference.records).to_bytes(),
            jobs: jobs.len(),
        })
    }

    /// Records a violation unless `who` holds one record per job and
    /// sealed exactly the reference bytes.
    fn check(&self, outcome: &mut Outcome, who: &str, records: usize, sealed: &[u8]) {
        if records != self.jobs {
            outcome.violations.push(format!(
                "{who} holds {records} records for {} jobs",
                self.jobs
            ));
        }
        if sealed != self.bytes.as_slice() {
            outcome.violations.push(format!(
                "{who} batch.manifest differs from the uninterrupted in-process reference"
            ));
        }
    }
}

fn drain_resume(
    jobs: &[JobSpec],
    config: &SupervisorConfig,
    expected: &[JobRecord],
    scratch: &Path,
) -> Result<(), String> {
    let drained_config = SupervisorConfig {
        drain_after_ticks: Some(3),
        ckpt_dir: Some(scratch.to_path_buf()),
        ..config.clone()
    };
    let drained = run_batch(jobs, &drained_config).map_err(|e| format!("drained run: {e}"))?;
    let resumed = if drained.pending() > 0 {
        let ck = Checkpoint::read(scratch.join("batch.manifest"))
            .map_err(|e| format!("manifest read: {e}"))?;
        let (meta, prior) = decode_manifest(&ck).map_err(|e| format!("manifest decode: {e}"))?;
        if meta.batch_seed != config.batch_seed {
            return Err("manifest carries a different batch seed".to_string());
        }
        let resume_config = SupervisorConfig {
            ckpt_dir: Some(scratch.to_path_buf()),
            ..config.clone()
        };
        run_batch_resumed(jobs, &resume_config, Some(&prior))
            .map_err(|e| format!("resume: {e}"))?
            .records
    } else {
        drained.records
    };
    if resumed != expected {
        return Err("drained-then-resumed records differ from the uninterrupted batch".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience::chaos::{Campaign, Report};

    fn supervised(trials: usize, fault_rate: f64) -> Report {
        let driver = BatchChaos {
            jobs: 4,
            fault_rate,
            ..BatchChaos::default()
        };
        Campaign::new("supervised-test", 42, trials)
            .run(|t, seed, dir| driver.supervised_trial(t, seed, dir))
    }

    #[test]
    fn small_campaign_survives() {
        let report = supervised(3, 0.3);
        assert_eq!(report.outcomes.len(), 3);
        for (trial, outcome) in report.outcomes.iter().enumerate() {
            assert!(
                outcome.violations.is_empty(),
                "trial {trial} violations: {:?}",
                outcome.violations
            );
        }
        assert!(report.survived());
    }

    #[test]
    fn shed_trials_actually_shed() {
        let report = supervised(3, 0.0);
        // Trial 2 undersizes the queue by one.
        assert_eq!(report.outcomes[2].count("jobs_shed"), 1);
        assert!(report.survived());
    }
}
