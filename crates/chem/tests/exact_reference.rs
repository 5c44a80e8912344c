//! The exact reference is (N/2, N/2)-sector FCI.
//!
//! Near equilibrium the whole-Fock-space minimum lies in the N-electron
//! sector, so the whole-space Lanczos solve is an independent oracle there.
//! Stretched NaH is the case where the two differ: its whole-space minimum
//! is the cation's, while the reference must stay the 2-electron energy.

use chem::Benchmark;

#[test]
fn sector_reference_matches_whole_space_minimum_at_equilibrium() {
    for molecule in [Benchmark::H2, Benchmark::LiH, Benchmark::H2O] {
        let system = molecule
            .build(molecule.equilibrium_bond_length())
            .expect("chemistry");
        let sector = system.exact_ground_state_energy();
        let whole = system.qubit_hamiltonian().ground_state_energy();
        assert!(
            (sector - whole).abs() < 1e-9,
            "{molecule}: sector {sector} vs whole space {whole}"
        );
    }
}

#[test]
fn stretched_nah_reference_is_the_two_electron_energy() {
    for (bond, fci) in [(2.50, -160.2191), (3.78, -160.1278)] {
        let system = Benchmark::NaH.build(bond).expect("chemistry");
        let e = system.exact_ground_state_energy();
        assert!((e - fci).abs() < 1e-4, "NaH @ {bond} Å: {e} vs {fci}");
        // The whole-space minimum lies lower, in another electron-number
        // sector, so it is not the reference.
        assert!(system.qubit_hamiltonian().ground_state_energy() < e - 1e-2);
    }
}

#[test]
fn sector_reference_is_thread_count_invariant() {
    for (molecule, bond) in [(Benchmark::NaH, 3.78), (Benchmark::H2O, 0.96)] {
        let system = molecule.build(bond).expect("chemistry");
        let bits =
            |threads| par::with_threads(threads, || system.exact_ground_state_energy().to_bits());
        let one = bits(1);
        assert_eq!(bits(2), one, "{molecule}");
        assert_eq!(bits(4), one, "{molecule}");
    }
}
