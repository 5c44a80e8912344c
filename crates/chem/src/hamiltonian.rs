//! End-to-end driver: molecule → qubit Hamiltonian.

use std::error::Error;
use std::fmt;

use pauli::WeightedPauliSum;

use crate::basis::build_basis;
use crate::fermion::{build_qubit_hamiltonian, hartree_fock_bitmask};
use crate::geometry::Molecule;
use crate::integrals::compute_ao_integrals;
use crate::mo::{active_space_integrals, transform_to_mo, ActiveSpace};
use crate::scf::{restricted_hartree_fock, ScfError, ScfOptions};

/// Errors from the electronic-structure pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ChemError {
    /// The SCF stage failed.
    Scf(ScfError),
    /// The requested active space does not fit the molecule.
    InvalidActiveSpace(String),
    /// Two atoms are (nearly) coincident, so the integrals are singular.
    DegenerateGeometry {
        /// Indices of the offending atom pair.
        atoms: (usize, usize),
        /// Their separation in Bohr.
        distance: f64,
    },
}

impl fmt::Display for ChemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChemError::Scf(e) => write!(f, "SCF failure: {e}"),
            ChemError::InvalidActiveSpace(msg) => write!(f, "invalid active space: {msg}"),
            ChemError::DegenerateGeometry { atoms, distance } => write!(
                f,
                "degenerate geometry: atoms {} and {} are {distance:.3e} Bohr apart",
                atoms.0, atoms.1
            ),
        }
    }
}

impl Error for ChemError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ChemError::Scf(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScfError> for ChemError {
    fn from(e: ScfError) -> Self {
        ChemError::Scf(e)
    }
}

/// A molecular simulation problem reduced to qubits: the Jordan–Wigner
/// Hamiltonian over an active space, plus the metadata the ansatz and VQE
/// layers need.
///
/// # Examples
///
/// ```no_run
/// use chem::{Molecule, MolecularSystem};
/// use chem::geometry::shapes::diatomic;
/// use chem::mo::ActiveSpace;
/// use chem::Element;
///
/// # fn main() -> Result<(), chem::ChemError> {
/// let h2 = diatomic(Element::H, Element::H, 0.74);
/// let system = MolecularSystem::build(h2, ActiveSpace::full(2), "H2")?;
/// assert_eq!(system.num_qubits(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MolecularSystem {
    name: String,
    molecule: Molecule,
    active_space: ActiveSpace,
    num_active_electrons: usize,
    hamiltonian: WeightedPauliSum,
    hf_total_energy: f64,
    hf_bitmask: u64,
}

impl MolecularSystem {
    /// Runs the full pipeline: integrals → RHF → MO transform → active-space
    /// reduction → Jordan–Wigner.
    ///
    /// # Errors
    ///
    /// Returns [`ChemError`] if SCF fails or the active space does not fit.
    pub fn build(
        molecule: Molecule,
        active_space: ActiveSpace,
        name: &str,
    ) -> Result<Self, ChemError> {
        Self::build_with_options(molecule, active_space, name, ScfOptions::default())
    }

    /// Like [`MolecularSystem::build`], but with explicit SCF convergence
    /// options — the hook the resilience layer uses to retry with damping or
    /// a level shift after a failed default attempt.
    ///
    /// # Errors
    ///
    /// Returns [`ChemError`] if the geometry is degenerate, SCF fails, or the
    /// active space does not fit.
    pub fn build_with_options(
        molecule: Molecule,
        active_space: ActiveSpace,
        name: &str,
        scf_options: ScfOptions,
    ) -> Result<Self, ChemError> {
        // Coincident nuclei make the overlap matrix singular and the nuclear
        // repulsion infinite; reject before spending time on integrals.
        const MIN_SEPARATION_BOHR: f64 = 1e-3;
        let atoms = molecule.atoms();
        for i in 0..atoms.len() {
            for j in (i + 1)..atoms.len() {
                let d: f64 = (0..3)
                    .map(|k| (atoms[i].position[k] - atoms[j].position[k]).powi(2))
                    .sum::<f64>()
                    .sqrt();
                if !d.is_finite() || d < MIN_SEPARATION_BOHR {
                    return Err(ChemError::DegenerateGeometry {
                        atoms: (i, j),
                        distance: d,
                    });
                }
            }
        }

        let basis = build_basis(&molecule);
        let n_mo = basis.len();
        if active_space.active().iter().any(|&i| i >= n_mo) {
            return Err(ChemError::InvalidActiveSpace(format!(
                "active orbitals exceed the {n_mo} molecular orbitals"
            )));
        }
        let n_electrons = molecule.num_electrons();
        let active_e = active_space.active_electrons(n_electrons);
        let n_active = active_space.num_active();
        if active_e > 2 * n_active {
            return Err(ChemError::InvalidActiveSpace(format!(
                "{active_e} active electrons exceed {n_active} active orbitals"
            )));
        }

        let ints = compute_ao_integrals(&molecule, &basis);
        let scf = restricted_hartree_fock(&ints, n_electrons, scf_options)?;
        let mut encode_span = obs::span("chem.encode");
        let mo = transform_to_mo(&ints, &scf);
        let act = active_space_integrals(&mo, &active_space, ints.nuclear_repulsion);
        let mut hamiltonian = build_qubit_hamiltonian(&act);
        hamiltonian.simplify(1e-12);
        encode_span.record("system", name);
        encode_span.record("qubits", 2 * n_active);
        encode_span.record("pauli_terms", hamiltonian.len());
        drop(encode_span);

        let hf_bitmask = hartree_fock_bitmask(n_active, active_e);
        Ok(MolecularSystem {
            name: name.to_string(),
            molecule,
            active_space,
            num_active_electrons: active_e,
            hamiltonian,
            hf_total_energy: scf.total_energy,
            hf_bitmask,
        })
    }

    /// The system's display name (e.g. `"LiH"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying molecule.
    pub fn molecule(&self) -> &Molecule {
        &self.molecule
    }

    /// The active-space partition used.
    pub fn active_space(&self) -> &ActiveSpace {
        &self.active_space
    }

    /// Number of qubits (2 × active spatial orbitals).
    pub fn num_qubits(&self) -> usize {
        2 * self.active_space.num_active()
    }

    /// Number of active electrons.
    pub fn num_active_electrons(&self) -> usize {
        self.num_active_electrons
    }

    /// The Jordan–Wigner qubit Hamiltonian (weights in Hartree).
    pub fn qubit_hamiltonian(&self) -> &WeightedPauliSum {
        &self.hamiltonian
    }

    /// The Hartree-Fock total energy from the SCF stage (Hartree).
    pub fn hartree_fock_energy(&self) -> f64 {
        self.hf_total_energy
    }

    /// The Hartree-Fock reference determinant as a basis-state bitmask in
    /// block spin ordering.
    pub fn hartree_fock_state(&self) -> u64 {
        self.hf_bitmask
    }

    /// The paper's "Ground State" reference: (N/2, N/2)-sector FCI, the
    /// lowest eigenvalue of the active-space Hamiltonian over the
    /// determinants with N/2 α and N/2 β electrons. That is the energy the
    /// number- and S_z-conserving UCCSD ansatz aims at; the whole-Fock-space
    /// minimum ([`WeightedPauliSum::ground_state_energy`]) can lie in another
    /// electron-number sector. Lanczos runs matrix-free over the
    /// C(n/2, N/2)² sector states inside a `chem.exact_reference` span.
    ///
    /// # Panics
    ///
    /// Panics if the Hamiltonian couples the sector to any state outside
    /// it (the Jordan–Wigner Hamiltonians built here never do).
    pub fn exact_ground_state_energy(&self) -> f64 {
        let per_spin = self.num_active_electrons / 2;
        crate::sector::ground_state_energy(&self.hamiltonian, per_spin, per_spin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::shapes::diatomic;
    use crate::Element;
    use numeric::Complex64;

    fn h2_system() -> MolecularSystem {
        let m = diatomic(Element::H, Element::H, 0.7414);
        MolecularSystem::build(m, ActiveSpace::full(2), "H2").unwrap()
    }

    #[test]
    fn h2_qubit_hamiltonian_shape() {
        let sys = h2_system();
        assert_eq!(sys.num_qubits(), 4);
        assert_eq!(sys.num_active_electrons(), 2);
        // JW H2/STO-3G has 15 distinct Pauli terms (incl. identity).
        assert_eq!(sys.qubit_hamiltonian().len(), 15);
    }

    #[test]
    fn h2_hf_expectation_matches_scf_energy() {
        // ⟨HF|H_qubit|HF⟩ must reproduce the SCF total energy exactly:
        // the qubit Hamiltonian and the HF determinant share the MO basis.
        let sys = h2_system();
        let dim = 1usize << sys.num_qubits();
        let mut state = vec![Complex64::ZERO; dim];
        state[sys.hartree_fock_state() as usize] = Complex64::ONE;
        let e = sys.qubit_hamiltonian().expectation(&state);
        assert!(
            (e - sys.hartree_fock_energy()).abs() < 1e-8,
            "⟨HF|H|HF⟩ = {e} vs SCF {}",
            sys.hartree_fock_energy()
        );
    }

    #[test]
    fn h2_exact_ground_state_below_hf() {
        let sys = h2_system();
        let exact = sys.exact_ground_state_energy();
        // FCI < HF (correlation energy), both near literature values:
        // E_FCI(H2/STO-3G, 0.7414 Å) ≈ −1.1373 Ha.
        assert!(exact < sys.hartree_fock_energy());
        assert!((exact + 1.137).abs() < 5e-3, "exact = {exact}");
    }

    #[test]
    fn invalid_active_space_is_reported() {
        let m = diatomic(Element::H, Element::H, 0.74);
        let bad = ActiveSpace::new(9, vec![], vec![]);
        assert!(matches!(
            MolecularSystem::build(m, bad, "H2"),
            Err(ChemError::InvalidActiveSpace(_))
        ));
    }
}
