//! Electronic-structure substrate: molecular qubit Hamiltonians from first
//! principles.
//!
//! The paper generates its Hamiltonians with PySCF (STO-3G orbitals,
//! Jordan–Wigner encoding, frozen core — §VI-A). That pipeline is rebuilt
//! here in full:
//!
//! 1. [`geometry`] — molecular geometries (the paper's nine benchmarks,
//!    parameterized by bond length);
//! 2. [`basis`] — the STO-3G minimal Gaussian basis;
//! 3. [`integrals`] — one- and two-electron integrals over contracted
//!    Gaussians (McMurchie–Davidson scheme, [`boys`] function);
//! 4. [`scf`] — restricted Hartree-Fock with DIIS convergence acceleration;
//! 5. [`mo`] — AO→MO integral transformation and active-space reduction;
//! 6. [`fermion`] — second-quantized operators and the Jordan–Wigner
//!    encoding onto Pauli strings;
//! 7. [`hamiltonian`] — the end-to-end driver producing a
//!    [`MolecularSystem`]: qubit Hamiltonian, Hartree-Fock reference state,
//!    and active-space metadata;
//! 8. [`molecules`] — the paper's Table I benchmark set.
//!
//! [`MolecularSystem::exact_ground_state_energy`] is the exact reference:
//! full CI in the (N/2, N/2) determinant sector of the active space.
//!
//! # Examples
//!
//! ```no_run
//! use chem::molecules::Benchmark;
//!
//! // H2 at its equilibrium bond length: a 4-qubit Hamiltonian.
//! let system = Benchmark::H2.build(0.74)?;
//! assert_eq!(system.num_qubits(), 4);
//! let e = system.exact_ground_state_energy();
//! assert!(e < -1.0); // Hartree
//! # Ok::<(), chem::ChemError>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
pub mod basis;
pub mod boys;
pub mod element;
pub mod encoding;
pub mod fermion;
pub mod geometry;
pub mod hamiltonian;
pub mod hubbard;
pub mod integrals;
pub mod mo;
pub mod molecules;
pub mod properties;
pub mod scf;
mod sector;

pub use element::Element;
pub use geometry::{Atom, Molecule};
pub use hamiltonian::{ChemError, MolecularSystem};
pub use molecules::Benchmark;

/// Bohr radii per Angstrom (CODATA).
pub const ANGSTROM_TO_BOHR: f64 = 1.889_726_124_626_18;
