//! Resilience layer for the pauli-codesign pipeline: error taxonomy,
//! deterministic fault injection, and retry/fallback recovery policies.
//!
//! The paper's pipeline is a chain of numerically fragile stages — SCF
//! can diverge, geometries can degenerate, coupling graphs can violate
//! Merge-to-Root's tree precondition, optimizers can hit NaN or stall.
//! This crate gives each failure a typed home ([`PcdError`]), a way to
//! provoke it on demand ([`FaultPlan`]), and a policy that survives it
//! ([`recover`]):
//!
//! | failure | typed error | recovery policy |
//! |---|---|---|
//! | SCF non-convergence / NaN | `ScfError` | retry ladder: damping → damping+shift → strong shift, restarted DIIS |
//! | degenerate geometry | `ChemError::DegenerateGeometry` | rebuild from the clean geometry |
//! | non-tree coupling graph | `CompileError::NotATree` | degrade MtR → SABRE |
//! | NaN objective / stall | `OptimizeError` / unconverged | restart from perturbed parameters |
//!
//! The [`chaos`] module holds the one seeded campaign runner behind every
//! `pcd chaos` mode, plus the pipeline and kill-resume drivers; a
//! pipeline campaign checks every injected fault was recovered. All
//! retries, fallbacks, and injections are counted in obs
//! (`resilience.retries`, `resilience.fallbacks`,
//! `resilience.faults_injected`) and emitted as events, so a trace shows
//! the full fault/recovery story.
//!
//! ```
//! use resilience::chaos::{Campaign, PipelineChaos};
//!
//! let driver = PipelineChaos {
//!     fault_rate: 1.0,
//!     ..Default::default()
//! };
//! let report = Campaign::new("doc", 42, 1).run(|trial, seed, _| driver.trial(trial, seed));
//! assert!(report.survived());
//! assert!(report.all_policy_classes_recovered());
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chaos;
pub mod checkpoint;
pub mod codec;
pub mod degrade;
pub mod error;
pub mod fault;
pub mod recover;

pub use checkpoint::{f64_from_hex, f64_to_hex, Checkpoint, CheckpointError};
pub use codec::{
    decode_scf, decode_vqe, decode_vqe_result, decode_yield, encode_scf, encode_vqe,
    encode_vqe_result, encode_yield, KIND_SCF, KIND_VQE, KIND_VQE_RESULT, KIND_YIELD,
};
pub use degrade::{DegradationLadder, DegradationPolicy};
pub use error::PcdError;
pub use fault::{splitmix64, FaultKind, FaultPlan, InjectedFault};
pub use recover::{
    build_system_with_ladder, build_system_with_recovery, compile_with_fallback,
    run_vqe_with_restart, scf_ladder, CompileStrategy,
};
