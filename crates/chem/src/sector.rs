//! The exact reference: full CI in the (N/2, N/2) determinant sector.
//!
//! The paper's "Ground State" curves are the N-electron FCI energy of the
//! active space, which is what the number- and S_z-conserving UCCSD ansatz
//! aims at. The Jordan–Wigner encoding uses block spin ordering (α spin
//! orbitals on the low half of the register, β on the high half), so the
//! determinants with N/2 α and N/2 β electrons are exactly the bitmasks with
//! N/2 set bits in each half. A Hamiltonian that conserves N_α and N_β maps that set onto
//! itself, and its lowest eigenvalue there is the reference. For NH₃ that is
//! C(7,4)² = 1,225 states instead of the 2¹⁴ of the whole Fock space, whose
//! minimum can lie in another electron-number sector (stretched NaH's lies
//! in the cation's).
//!
//! `H` is applied matrix-free, grouped by X-mask: `H = Σₓ Xˣ·Dₓ` with every
//! `Dₓ` diagonal, the simultaneous-diagonalization view of a Pauli sum. One
//! pass over the sector per group evaluates `Dₓ(b)` and scatters it to
//! `rank(b ⊕ x)`; no sparse matrix is stored.

use std::collections::BTreeMap;

use numeric::{lanczos_ground_state, Complex64, LanczosOptions};
use pauli::{Phase, WeightedPauliSum};

/// Rank-table entry for a half-register mask with the wrong electron count.
const OUTSIDE: u32 = u32::MAX;

/// Relative bound, against the Hamiltonian's one-norm, on any matrix
/// element leaving the sector.
const LEAKAGE_TOL: f64 = 1e-9;

/// The `half`-bit masks with `k` set bits in ascending order, plus a table
/// from every `half`-bit mask to its index in that list ([`OUTSIDE`] if its
/// popcount is not `k`). The table has 2^(n/2) entries, the square root of
/// a whole-space statevector.
fn half_ranks(half: usize, k: usize) -> (Vec<u32>, Vec<u64>) {
    let mut table = vec![OUTSIDE; 1 << half];
    let mut masks = Vec::new();
    for m in 0..1u64 << half {
        if m.count_ones() as usize == k {
            table[m as usize] = masks.len() as u32;
            masks.push(m);
        }
    }
    (table, masks)
}

/// The determinants with `n_alpha` electrons in the low half of the
/// register and `n_beta` in the high half, in ascending bitmask order.
struct Sector {
    half: usize,
    lo_rank: Vec<u32>,
    hi_rank: Vec<u32>,
    lo_count: usize,
    dets: Vec<u64>,
}

impl Sector {
    fn new(num_qubits: usize, n_alpha: usize, n_beta: usize) -> Self {
        assert!(
            num_qubits.is_multiple_of(2),
            "block spin ordering needs an even qubit count"
        );
        let half = num_qubits / 2;
        let (lo_rank, lo) = half_ranks(half, n_alpha);
        let (hi_rank, hi) = half_ranks(half, n_beta);
        let dets = hi
            .iter()
            .flat_map(|&h| lo.iter().map(move |&l| (h << half) | l))
            .collect();
        Sector {
            half,
            lo_rank,
            hi_rank,
            lo_count: lo.len(),
            dets,
        }
    }

    /// The index of determinant `b` in [`Sector::dets`], if it lies in
    /// the sector.
    #[inline]
    fn rank(&self, b: u64) -> Option<usize> {
        let lo = self.lo_rank[(b & ((1 << self.half) - 1)) as usize];
        let hi = self.hi_rank[(b >> self.half) as usize];
        (lo != OUTSIDE && hi != OUTSIDE).then(|| hi as usize * self.lo_count + lo as usize)
    }
}

/// The terms of `H` sharing X-mask `x`, each stored as `(z, i^{|x∧z|}·w)`.
struct XGroup {
    x: u64,
    terms: Vec<(u64, Complex64)>,
}

impl XGroup {
    /// `Dₓ(b) = ⟨b ⊕ x|H|b⟩` restricted to this group's terms.
    #[inline]
    fn coefficient(&self, b: u64) -> Complex64 {
        self.terms.iter().fold(Complex64::ZERO, |acc, &(z, c)| {
            if (b & z).count_ones().is_multiple_of(2) {
                acc + c
            } else {
                acc - c
            }
        })
    }
}

/// `H` restricted to one [`Sector`], applied group by group.
struct SectorHamiltonian {
    sector: Sector,
    groups: Vec<XGroup>,
}

impl SectorHamiltonian {
    /// # Panics
    ///
    /// Panics if any matrix element from a sector determinant to one
    /// outside it exceeds `1e-9·‖H‖₁`: such an `H` does not conserve
    /// (N_α, N_β), and restricting it would silently truncate it.
    fn new(h: &WeightedPauliSum, n_alpha: usize, n_beta: usize) -> Self {
        let mut by_x: BTreeMap<u64, Vec<(u64, Complex64)>> = BTreeMap::new();
        for &(w, p) in h {
            let (x, z) = (p.x_mask(), p.z_mask());
            let phase = Phase::from_power_of_i((x & z).count_ones()).to_complex();
            by_x.entry(x).or_default().push((z, phase * w));
        }
        let op = SectorHamiltonian {
            sector: Sector::new(h.num_qubits(), n_alpha, n_beta),
            groups: by_x
                .into_iter()
                .map(|(x, terms)| XGroup { x, terms })
                .collect(),
        };
        op.assert_conserves(LEAKAGE_TOL * h.one_norm());
        op
    }

    fn assert_conserves(&self, tol: f64) {
        for g in &self.groups {
            for &b in &self.sector.dets {
                if self.sector.rank(b ^ g.x).is_none() {
                    let c = g.coefficient(b);
                    assert!(
                        c.norm() <= tol,
                        "Hamiltonian does not conserve (N_α, N_β): ⟨{:#b}|H|{b:#b}⟩ = {c}",
                        b ^ g.x
                    );
                }
            }
        }
    }

    fn dim(&self) -> usize {
        self.sector.dets.len()
    }

    /// `out = H·input` on sector amplitudes. Every output amplitude sums
    /// its contributions in group order, so the result is deterministic.
    fn apply(&self, input: &[Complex64], out: &mut [Complex64]) {
        out.fill(Complex64::ZERO);
        for g in &self.groups {
            for (&b, &amp) in self.sector.dets.iter().zip(input) {
                if let Some(j) = self.sector.rank(b ^ g.x) {
                    out[j] += amp * g.coefficient(b);
                }
            }
        }
    }
}

/// The lowest eigenvalue of `h` over the determinants with `n_alpha`
/// electrons in the low half of the register and `n_beta` in the high
/// half, by Lanczos with the same options and seed as
/// [`WeightedPauliSum::ground_state_energy`]. Runs inside a
/// `chem.exact_reference` span that records `sector_dim` and `iterations`.
///
/// # Panics
///
/// Panics if `h` does not conserve (N_α, N_β) (see
/// [`SectorHamiltonian::new`]) or the sector is empty.
pub(crate) fn ground_state_energy(h: &WeightedPauliSum, n_alpha: usize, n_beta: usize) -> f64 {
    let mut span = obs::span("chem.exact_reference");
    let op = SectorHamiltonian::new(h, n_alpha, n_beta);
    span.record("sector_dim", op.dim());
    let r = lanczos_ground_state(
        op.dim(),
        |x, y| op.apply(x, y),
        LanczosOptions::default(),
        0x5eed,
    );
    span.record("iterations", r.iterations);
    r.eigenvalue
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sector_ranks_invert_the_ascending_determinant_list() {
        let s = Sector::new(14, 4, 4);
        assert_eq!(s.dets.len(), 35 * 35);
        assert!(s.dets.windows(2).all(|w| w[0] < w[1]));
        for (i, &b) in s.dets.iter().enumerate() {
            assert_eq!((b & 0x7f).count_ones(), 4);
            assert_eq!((b >> 7).count_ones(), 4);
            assert_eq!(s.rank(b), Some(i));
        }
        assert_eq!(s.rank(0b1_1111), None);
        assert_eq!(s.rank(0b1111 << 7), None);
    }

    #[test]
    fn number_conserving_sum_matches_dense_sector_block() {
        // Two spatial orbitals: α hopping 0↔1 and β hopping 2↔3 plus a
        // constant. In the (1, 1) sector H is the 4×4 block spanned by
        // 0b0101, 0b0110, 0b1001, 0b1010 with spectrum {±t ± t} + 0.3.
        let t = 0.75;
        let mut h = WeightedPauliSum::new(4);
        for s in ["IIXX", "IIYY", "XXII", "YYII"] {
            h.push(-t / 2.0, s.parse().unwrap());
        }
        h.push(0.3, "IIII".parse().unwrap());
        let e = ground_state_energy(&h, 1, 1);
        assert!((e - (0.3 - 2.0 * t)).abs() < 1e-10, "e = {e}");
    }

    #[test]
    #[should_panic(expected = "does not conserve")]
    fn lone_x_term_is_rejected() {
        let mut h = WeightedPauliSum::new(4);
        h.push(1.0, "IIIZ".parse().unwrap());
        h.push(0.5, "IIIX".parse().unwrap());
        ground_state_energy(&h, 1, 1);
    }

    #[test]
    #[should_panic(expected = "does not conserve")]
    fn spin_flip_that_conserves_n_is_rejected() {
        // a†_{0β} a_{0α} + h.c. keeps N but moves an electron between the
        // halves, so it leaves the (1, 1) sector.
        let mut h = WeightedPauliSum::new(4);
        h.push(0.5, "IXZX".parse().unwrap());
        h.push(0.5, "IYZY".parse().unwrap());
        ground_state_energy(&h, 1, 1);
    }
}
