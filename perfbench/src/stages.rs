//! The paper pipeline rebuilt from public stage calls, in the order and
//! with the options `CoDesignPipeline::run` uses. The traced paper run
//! wraps a benchmark span around each call; the batch and serve
//! workloads use the same calls to recount CNOTs after their timed phase.

use pauli_codesign::ansatz::uccsd::UccsdAnsatz;
use pauli_codesign::ansatz::{compress, PauliIr};
use pauli_codesign::arch::Topology;
use pauli_codesign::chem::MolecularSystem;
use pauli_codesign::compiler::pipeline::{compile_mtr, CompiledProgram};
use pauli_codesign::vqe::driver::{run_vqe, VqeOptions, VqeResult};
use pauli_codesign::vqe::VqeError;

/// A compressed ansatz and its kept parameter count.
pub struct Compressed {
    pub ir: PauliIr,
    pub kept: usize,
}

/// UCCSD for the system, compressed to `ratio` by importance.
pub fn compressed_ir(system: &MolecularSystem, ratio: f64) -> Compressed {
    let full = UccsdAnsatz::for_system(system).into_ir();
    let (ir, report) = compress(&full, system.qubit_hamiltonian(), ratio);
    Compressed {
        ir,
        kept: report.kept_parameters,
    }
}

/// Noise-free VQE from the Hartree-Fock point with default options.
pub fn vqe(system: &MolecularSystem, ir: &PauliIr) -> Result<VqeResult, VqeError> {
    run_vqe(system.qubit_hamiltonian(), ir, VqeOptions::default())
}

/// MtR on the X-Tree sized to fit, as the pipeline picks it.
pub fn compile(system: &MolecularSystem, ir: &PauliIr) -> CompiledProgram {
    compile_mtr(ir, &Topology::xtree(system.num_qubits().max(5) + 1))
}
