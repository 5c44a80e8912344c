//! The one chaos-campaign runner, and the pipeline campaigns it drives.
//!
//! A campaign is `trials` seeded trials of one *driver*: a function from
//! `(trial, trial seed, scratch dir)` to an outcome that carries named
//! counts and the invariants the trial broke. [`Campaign::run`] owns
//! everything the campaigns share:
//!
//! - the trial-seed mix ([`Campaign::trial_seed`]);
//! - running the trials in index order on the calling thread, so every
//!   obs event a trial emits lands in trial order at any thread count
//!   (kernel-level `par` inside a trial is unaffected);
//! - creating and removing each trial's scratch directory;
//! - the `chaos` span, one `chaos.trial` event per trial and the
//!   `chaos.failures` counter;
//! - the generic [`Report`].
//!
//! Drivers live beside what they test: [`PipelineChaos`] (the full
//! pipeline under a fault plan) and [`KillResume`] (checkpoint/resume
//! bit-identity) here, the supervised, kill-shard and net drivers in
//! `supervisor::chaos`, and the serve driver in `serve::chaos`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use ansatz::compress;
use ansatz::uccsd::UccsdAnsatz;
use arch::{simulate_yield, simulate_yield_resumable, CollisionModel, Topology, YieldRun};
use chem::scf::ScfOptions;
use chem::Benchmark;
use par::Budget;
use vqe::driver::{run_vqe, run_vqe_resumable, VqeOptions, VqeRun};

use crate::checkpoint::{f64_to_hex, Checkpoint};
use crate::codec::{decode_vqe, decode_yield, encode_vqe, encode_yield};
use crate::fault::{FaultKind, FaultPlan};
use crate::recover::{
    build_system_with_recovery, compile_with_fallback, run_vqe_with_restart, CompileStrategy,
};
use crate::PcdError;

/// A seeded campaign: what every chaos mode shares.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// Names the campaign in obs and in scratch-directory names.
    pub name: &'static str,
    /// Base seed; trial `t` runs under [`Campaign::trial_seed`].
    pub seed: u64,
    /// Number of trials.
    pub trials: usize,
    /// Parent of the per-trial scratch directories (defaults to the
    /// system temp directory).
    pub scratch_dir: Option<PathBuf>,
}

impl Campaign {
    /// A campaign with scratch directories under the system temp dir.
    pub fn new(name: &'static str, seed: u64, trials: usize) -> Self {
        Campaign {
            name,
            seed,
            trials,
            scratch_dir: None,
        }
    }

    /// Trial `trial`'s seed: a SplitMix64-style odd-constant step keeps
    /// trials decorrelated while staying reproducible from the base seed.
    pub fn trial_seed(&self, trial: usize) -> u64 {
        self.seed
            .wrapping_add((trial as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Runs every trial through `driver`, in index order on the calling
    /// thread. Each trial gets a fresh, empty scratch directory that is
    /// removed once the driver returns.
    pub fn run<O: TrialOutcome>(
        &self,
        mut driver: impl FnMut(usize, u64, &Path) -> O,
    ) -> Report<O> {
        let mut span = obs::span("chaos");
        span.record("campaign", self.name);
        span.record("seed", self.seed);
        span.record("trials", self.trials);
        let parent = self.scratch_dir.clone().unwrap_or_else(std::env::temp_dir);
        // Scratch names carry a per-process run number, so two campaigns
        // running at once never share a directory.
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        let mut outcomes = Vec::with_capacity(self.trials);
        for trial in 0..self.trials {
            let scratch = parent.join(format!(
                "pcd-chaos-{}-{}-{run}-{trial}",
                self.name,
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&scratch);
            let _ = std::fs::create_dir_all(&scratch);
            let outcome = driver(trial, self.trial_seed(trial), &scratch);
            let _ = std::fs::remove_dir_all(&scratch);

            let mut fields = vec![
                ("campaign".to_string(), obs::Value::from(self.name)),
                ("trial".to_string(), obs::Value::from(trial)),
            ];
            fields.extend(
                outcome
                    .counts()
                    .into_iter()
                    .map(|(name, n)| (name.to_string(), obs::Value::from(n))),
            );
            fields.push((
                "violations".to_string(),
                obs::Value::from(outcome.violations().len()),
            ));
            obs::event_fields("chaos.trial", fields);
            if !outcome.violations().is_empty() {
                obs::counter_add("chaos.failures", 1);
            }
            outcomes.push(outcome);
        }
        let report = Report { outcomes };
        span.record("failures", report.failures());
        report
    }
}

/// What a trial hands back to the runner.
pub trait TrialOutcome {
    /// Named counts, in print order; the report sums them per name.
    fn counts(&self) -> Vec<(&'static str, u64)>;
    /// Broken invariants (empty = the trial survived).
    fn violations(&self) -> &[String];
}

/// The outcome most drivers return: named counts plus violations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outcome {
    /// Named counts, in the order first added.
    pub counts: Vec<(&'static str, u64)>,
    /// Broken invariants, in the order observed.
    pub violations: Vec<String>,
}

impl Outcome {
    /// Adds `n` to the named count, appending the name on first use.
    pub fn add(&mut self, name: &'static str, n: usize) {
        match self.counts.iter_mut().find(|(k, _)| *k == name) {
            Some((_, v)) => *v += n as u64,
            None => self.counts.push((name, n as u64)),
        }
    }

    /// The named count (0 if never added).
    pub fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |(_, v)| *v)
    }
}

impl TrialOutcome for Outcome {
    fn counts(&self) -> Vec<(&'static str, u64)> {
        self.counts.clone()
    }

    fn violations(&self) -> &[String] {
        &self.violations
    }
}

/// A campaign's per-trial outcomes, in trial order.
#[derive(Debug, Clone, PartialEq)]
pub struct Report<O = Outcome> {
    /// One outcome per trial.
    pub outcomes: Vec<O>,
}

impl<O: TrialOutcome> Report<O> {
    /// Trials that broke an invariant.
    pub fn failures(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| !o.violations().is_empty())
            .count()
    }

    /// Whether every trial upheld every invariant.
    pub fn survived(&self) -> bool {
        self.failures() == 0
    }

    /// Every count summed per name, in order of first appearance.
    pub fn totals(&self) -> Vec<(&'static str, u64)> {
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for (name, n) in self.outcomes.iter().flat_map(TrialOutcome::counts) {
            match totals.iter_mut().find(|(k, _)| *k == name) {
                Some((_, v)) => *v += n,
                None => totals.push((name, n)),
            }
        }
        totals
    }

    /// The named count summed over every trial.
    pub fn total(&self, name: &str) -> u64 {
        self.totals()
            .into_iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |(_, n)| n)
    }
}

/// The pipeline-recovery policy classes and the count each reports under.
const RECOVERED: [(&str, &str); 3] = [
    ("scf_retry", "recovered.scf_retry"),
    ("compiler_fallback", "recovered.compiler_fallback"),
    ("vqe_restart", "recovered.vqe_restart"),
];

/// The pipeline campaign's driver: the full chemistry → ansatz → VQE →
/// compilation pipeline under a per-trial [`FaultPlan`], through the
/// recovery policies in [`crate::recover`]. A trial survives when it
/// completes — possibly via retries and fallbacks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineChaos {
    /// Per-visit fault probability in `[0, 1]`.
    pub fault_rate: f64,
    /// Benchmark molecule.
    pub benchmark: Benchmark,
    /// Bond length in Angstrom (`None` = equilibrium).
    pub bond_length: Option<f64>,
    /// Maximum VQE restarts per trial.
    pub max_restarts: usize,
}

impl Default for PipelineChaos {
    fn default() -> Self {
        PipelineChaos {
            fault_rate: 0.1,
            benchmark: Benchmark::H2,
            bond_length: None,
            max_restarts: 3,
        }
    }
}

/// What one pipeline trial did.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineTrial {
    /// Trial index.
    pub trial: usize,
    /// Faults the plan injected, in decision order.
    pub faults: Vec<FaultKind>,
    /// SCF ladder retries spent.
    pub scf_retries: usize,
    /// VQE restarts spent.
    pub vqe_restarts: usize,
    /// Whether the compiler fell back to SABRE.
    pub sabre_fallback: bool,
    /// Final VQE energy (Hartree) when the trial completed.
    pub energy: Option<f64>,
    /// The error when the trial died despite recovery.
    pub error: Option<String>,
}

impl PipelineTrial {
    /// Whether the trial completed (with or without recovery work).
    pub fn completed(&self) -> bool {
        self.error.is_none()
    }
}

impl TrialOutcome for PipelineTrial {
    /// `faults_injected`, one count per injection site, the faults
    /// recovered per policy class (a fault counts when its trial
    /// completed), then the recovery work spent.
    fn counts(&self) -> Vec<(&'static str, u64)> {
        let tally = |keep: &dyn Fn(FaultKind) -> bool| {
            self.faults.iter().filter(|&&k| keep(k)).count() as u64
        };
        let mut counts = vec![("faults_injected", self.faults.len() as u64)];
        counts.extend(
            FaultKind::ALL
                .iter()
                .map(|&site| (site.site(), tally(&|k| k == site))),
        );
        counts.extend(RECOVERED.iter().map(|&(class, name)| {
            let recovered = if self.completed() {
                tally(&|k| k.policy_class() == class)
            } else {
                0
            };
            (name, recovered)
        }));
        counts.push(("scf_retries", self.scf_retries as u64));
        counts.push(("vqe_restarts", self.vqe_restarts as u64));
        counts.push(("sabre_fallbacks", u64::from(self.sabre_fallback)));
        counts
    }

    fn violations(&self) -> &[String] {
        self.error.as_slice()
    }
}

impl Report<PipelineTrial> {
    /// Total faults injected across all trials.
    pub fn faults_injected(&self) -> usize {
        self.total("faults_injected") as usize
    }

    /// Faults recovered per policy class (`scf_retry`,
    /// `compiler_fallback`, `vqe_restart`).
    pub fn recovered_by_class(&self) -> BTreeMap<&'static str, u64> {
        RECOVERED
            .iter()
            .map(|&(class, name)| (class, self.total(name)))
            .collect()
    }

    /// True when at least one injected fault of *each* policy class was
    /// recovered — the acceptance bar for a chaos run with a meaningful
    /// fault rate.
    pub fn all_policy_classes_recovered(&self) -> bool {
        self.recovered_by_class().values().all(|&n| n > 0)
    }
}

impl PipelineChaos {
    /// Runs one trial under a fault plan seeded with `seed`.
    pub fn trial(&self, trial: usize, seed: u64) -> PipelineTrial {
        let mut plan = FaultPlan::new(seed, self.fault_rate);
        let mut outcome = PipelineTrial {
            trial,
            faults: Vec::new(),
            scf_retries: 0,
            vqe_restarts: 0,
            sabre_fallback: false,
            energy: None,
            error: None,
        };
        let bond = self
            .bond_length
            .unwrap_or_else(|| self.benchmark.equilibrium_bond_length());

        let result = (|| -> Result<(), PcdError> {
            let (system, scf_retries) =
                build_system_with_recovery(self.benchmark, bond, ScfOptions::default(), &mut plan)?;
            outcome.scf_retries = scf_retries;

            let ir = UccsdAnsatz::for_system(&system).into_ir();

            let (vqe_result, restarts) = run_vqe_with_restart(
                system.qubit_hamiltonian(),
                &ir,
                VqeOptions::default(),
                self.max_restarts,
                &mut plan,
            )?;
            outcome.vqe_restarts = restarts;
            outcome.energy = Some(vqe_result.energy);

            let topology = Topology::xtree(system.num_qubits().max(5) + 1);
            let (_, strategy) = compile_with_fallback(&ir, &topology, &mut plan)?;
            outcome.sabre_fallback = strategy == CompileStrategy::SabreFallback;
            Ok(())
        })();

        if let Err(e) = result {
            outcome.error = Some(e.to_string());
        }
        outcome.faults = plan.injected().iter().map(|f| f.kind).collect();
        outcome
    }
}

/// The kill-and-resume campaign's driver: trial 0 interrupts the VQE
/// stage and trial 1 the yield Monte Carlo every `kill_every` budget
/// ticks, persisting each checkpoint to the trial's scratch directory and
/// resuming from the file. The resumed result must equal an
/// uninterrupted run bit-for-bit — the durability layer's end-to-end
/// proof.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KillResume {
    /// Molecule for the VQE trial.
    pub benchmark: Benchmark,
    /// Bond length in Angstrom.
    pub bond: f64,
    /// Ansatz compression ratio for the VQE trial.
    pub ratio: f64,
    /// Budget ticks between kills.
    pub kill_every: u64,
    /// Yield Monte Carlo samples.
    pub samples: usize,
}

impl KillResume {
    /// Trials in the campaign: VQE, then yield.
    pub const TRIALS: usize = 2;

    /// Runs trial 0 (VQE) or trial 1 (yield), checkpointing in `scratch`.
    pub fn trial(&self, trial: usize, scratch: &Path) -> Outcome {
        let mut outcome = Outcome::default();
        let result = if trial == 0 {
            self.vqe_trial(scratch, &mut outcome)
        } else {
            self.yield_trial(scratch, &mut outcome)
        };
        if let Err(e) = result {
            outcome.violations.push(e.to_string());
        }
        outcome
    }

    fn vqe_trial(&self, scratch: &Path, outcome: &mut Outcome) -> Result<(), PcdError> {
        let system = self.benchmark.build(self.bond)?;
        let full = UccsdAnsatz::for_system(&system).into_ir();
        let (ir, _) = compress(&full, system.qubit_hamiltonian(), self.ratio);
        let x0 = vec![0.0; ir.num_parameters()];
        let baseline = run_vqe(system.qubit_hamiltonian(), &ir, VqeOptions::default())?;
        let path = scratch.join("vqe.ckpt");
        let resumed = loop {
            let resume = match path.exists() {
                true => Some(decode_vqe(&Checkpoint::read(&path)?)?),
                false => None,
            };
            let budget = Budget::max_ticks(self.kill_every);
            match run_vqe_resumable(
                system.qubit_hamiltonian(),
                &ir,
                &x0,
                VqeOptions::default(),
                resume,
                &budget,
            )? {
                VqeRun::Done(r) => break r,
                VqeRun::Interrupted(ck) => {
                    outcome.add("vqe_kills", 1);
                    encode_vqe(&ck).write(&path)?;
                }
            }
        };
        if resumed.energy.to_bits() != baseline.energy.to_bits() {
            outcome.violations.push(format!(
                "vqe: resumed energy 0x{} differs from uninterrupted 0x{}",
                f64_to_hex(resumed.energy),
                f64_to_hex(baseline.energy)
            ));
        }
        Ok(())
    }

    fn yield_trial(&self, scratch: &Path, outcome: &mut Outcome) -> Result<(), PcdError> {
        let topology = Topology::xtree(17);
        let model = CollisionModel::default();
        let baseline = simulate_yield(&topology, &model, 0.04, self.samples, 17);
        let path = scratch.join("yield.ckpt");
        let resumed = loop {
            let resume = match path.exists() {
                true => Some(decode_yield(&Checkpoint::read(&path)?)?),
                false => None,
            };
            let budget = Budget::max_ticks(self.kill_every);
            match simulate_yield_resumable(
                &topology,
                &model,
                0.04,
                self.samples,
                17,
                resume,
                &budget,
            ) {
                YieldRun::Done(e) => break e,
                YieldRun::Interrupted(ck) => {
                    outcome.add("yield_kills", 1);
                    encode_yield(&ck).write(&path)?;
                }
            }
        };
        if resumed.yield_rate.to_bits() != baseline.yield_rate.to_bits()
            || resumed.mean_collisions.to_bits() != baseline.mean_collisions.to_bits()
        {
            outcome.violations.push(format!(
                "yield: resumed rate 0x{} differs from uninterrupted 0x{}",
                f64_to_hex(resumed.yield_rate),
                f64_to_hex(baseline.yield_rate)
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline(fault_rate: f64, seed: u64, trials: usize) -> Report<PipelineTrial> {
        let driver = PipelineChaos {
            fault_rate,
            ..PipelineChaos::default()
        };
        Campaign::new("pipeline-test", seed, trials).run(|t, s, _| driver.trial(t, s))
    }

    #[test]
    fn zero_fault_rate_is_a_clean_sweep() {
        let report = pipeline(0.0, 42, 1);
        assert!(report.survived());
        assert_eq!(report.faults_injected(), 0);
        let e = report.outcomes[0].energy.expect("trial completed");
        assert!((e - (-1.1373)).abs() < 1e-2, "H2 energy {e}");
    }

    #[test]
    fn full_fault_rate_recovers_every_policy_class() {
        let report = pipeline(1.0, 42, 1);
        assert!(report.survived(), "outcome: {:?}", report.outcomes[0]);
        assert!(report.all_policy_classes_recovered());
        assert!(report.outcomes[0].scf_retries >= 1);
        assert!(report.outcomes[0].vqe_restarts >= 1);
        assert!(report.outcomes[0].sabre_fallback);
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        assert_eq!(pipeline(0.3, 42, 4), pipeline(0.3, 42, 4));
    }

    #[test]
    fn kill_resume_trials_resume_bit_identically() {
        let driver = KillResume {
            benchmark: Benchmark::H2,
            bond: Benchmark::H2.equilibrium_bond_length(),
            ratio: 1.0,
            kill_every: 1,
            samples: 2_000,
        };
        let report = Campaign::new("kill-resume-test", 0, KillResume::TRIALS)
            .run(|t, _, dir| driver.trial(t, dir));
        assert!(report.survived(), "{:?}", report.outcomes);
        assert!(report.total("vqe_kills") > 0);
        assert!(report.total("yield_kills") > 0);
    }
}
