//! Per-layer measurements shared by the workloads: the microkernels at a
//! converged parameter point, and the chemistry → ansatz → compile
//! recount that the batch and serve workloads run after their timed
//! phase.

use std::hint::black_box;
use std::time::Instant;

use pauli_codesign::numeric::Complex64;
use pauli_codesign::pauli::WeightedPauliSum;
use pauli_codesign::supervisor::JobSpec;
use pauli_codesign::vqe::state::{energy_and_gradient, prepare_state};

use crate::expected::Table;
use crate::measure::{median, Outcome};
use crate::stages::{self, Compressed};
use crate::trace::Spans;

/// Calls per kernel; the median is reported.
const KERNEL_REPS: usize = 5;

fn time_ms(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Times the VQE inner-loop kernels on `ir` at `theta` (the converged
/// point of a VQE run): state preparation, energy plus adjoint gradient,
/// ⟨H⟩ per term and per commuting cluster, and H·ψ.
pub fn kernels(
    out: &mut Outcome,
    spans: &Spans,
    trace_id: u64,
    h: &WeightedPauliSum,
    compressed: &Compressed,
    theta: &[f64],
) {
    let ir = &compressed.ir;
    let (_root, root) = spans.open("kernels", trace_id, 0);
    let psi = prepare_state(ir, theta);
    let mut timed = |name: &'static str, f: &mut dyn FnMut()| {
        let (_s, _) = spans.open(name.trim_end_matches("_ms"), trace_id, root);
        let ms = time_ms(KERNEL_REPS, f);
        out.set(name, median(&ms), ms.len());
    };
    timed("vqe.prepare_state_ms", &mut || {
        black_box(prepare_state(black_box(ir), black_box(theta)));
    });
    timed("vqe.energy_and_gradient_ms", &mut || {
        black_box(energy_and_gradient(black_box(h), ir, theta));
    });
    timed("sim.expectation_ms", &mut || {
        black_box(black_box(&psi).expectation(h));
    });
    timed("sim.expectation_clustered_ms", &mut || {
        black_box(black_box(&psi).expectation_clustered(h));
    });
    let mut h_psi = vec![Complex64::ZERO; psi.amplitudes().len()];
    timed("pauli.apply_ms", &mut || {
        h.apply(black_box(psi.amplitudes()), &mut h_psi);
        black_box(&h_psi);
    });
}

/// What the recount found.
pub struct Recount {
    /// Σ compiled CNOTs (MtR original + added) over the specs.
    pub cnots: usize,
    /// Σ added CNOTs.
    pub added: usize,
    /// Σ kept parameters.
    pub kept: usize,
    /// Σ SCF iterations of the chemistry builds (from the obs counter, so
    /// only when recording).
    pub scf_iterations: u64,
    /// Time in each stage, ms: chemistry, ansatz, compile.
    pub build_ms: f64,
    pub compress_ms: f64,
    pub mtr_ms: f64,
    /// The most expensive spec (most qubits, then most parameters) and
    /// its system and ansatz, for the kernel timings.
    pub heaviest: Option<(JobSpec, pauli_codesign::chem::MolecularSystem, Compressed)>,
}

/// Rebuilds every spec through the public stage calls (one benchmark
/// span per stage), checks its CNOT and kept-parameter counts against
/// the table, and sums them. Deterministic: depends only on `specs`.
pub fn recount(out: &mut Outcome, spans: &Spans, specs: &[JobSpec], table: &Table) -> Recount {
    let mut r = Recount {
        cnots: 0,
        added: 0,
        kept: 0,
        scf_iterations: 0,
        build_ms: 0.0,
        compress_ms: 0.0,
        mtr_ms: 0.0,
        heaviest: None,
    };
    let scf_before = obs::snapshot().counter("chem.scf.iterations");
    for (i, spec) in specs.iter().enumerate() {
        let trace_id = 1_000_000 + i as u64;
        let (_job, root) = spans.open("recount", trace_id, 0);
        let t = Instant::now();
        let system = {
            let (_s, _) = spans.open("chem.build", trace_id, root);
            spec.benchmark.build(spec.bond_length())
        };
        r.build_ms += t.elapsed().as_secs_f64() * 1e3;
        let system = match system {
            Ok(system) => system,
            Err(e) => {
                out.check(false, || format!("recount {}: {e}", spec.benchmark.name()));
                continue;
            }
        };
        let t = Instant::now();
        let compressed = {
            let (_s, _) = spans.open("ansatz.compress", trace_id, root);
            stages::compressed_ir(&system, spec.ratio)
        };
        r.compress_ms += t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let program = {
            let (_s, _) = spans.open("compiler.mtr", trace_id, root);
            stages::compile(&system, &compressed.ir)
        };
        r.mtr_ms += t.elapsed().as_secs_f64() * 1e3;
        let cnots = program.original_cnots() + program.added_cnots();
        match table.row(spec.benchmark, spec.bond_length(), spec.ratio) {
            Ok(row) => {
                out.check(row.cnots == cnots && row.kept == compressed.kept, || {
                    format!(
                        "{} {:.3} {}: {cnots} CNOTs / {} kept, expected {} / {}",
                        spec.benchmark.name(),
                        spec.bond_length(),
                        spec.ratio,
                        compressed.kept,
                        row.cnots,
                        row.kept
                    )
                });
            }
            Err(e) => out.check(false, || e),
        }
        r.cnots += cnots;
        r.added += program.added_cnots();
        r.kept += compressed.kept;
        let heavier = match &r.heaviest {
            None => true,
            Some((_, s, c)) => {
                (system.num_qubits(), compressed.ir.num_parameters())
                    > (s.num_qubits(), c.ir.num_parameters())
            }
        };
        if heavier {
            r.heaviest = Some((spec.clone(), system, compressed));
        }
    }
    r.scf_iterations = obs::snapshot().counter("chem.scf.iterations") - scf_before;
    r
}

/// Stores the recount's per-layer figures.
pub fn set_recount_figures(out: &mut Outcome, r: &Recount, n: usize) {
    out.set("chem.build_ms", r.build_ms, n);
    out.set("ansatz.compress_ms", r.compress_ms, n);
    out.set("compiler.mtr_ms", r.mtr_ms, n);
    out.set("chem.scf_iterations", r.scf_iterations as f64, n);
    out.set("ansatz.kept_parameters", r.kept as f64, n);
    out.set("compiler.added_cnots", r.added as f64, n);
}

/// Runs VQE on the recount's heaviest spec and times the kernels at its
/// converged point.
pub fn kernels_on_heaviest(out: &mut Outcome, spans: &Spans, r: &Recount) {
    let Some((spec, system, compressed)) = &r.heaviest else {
        return;
    };
    match stages::vqe(system, &compressed.ir) {
        Ok(result) => kernels(
            out,
            spans,
            2_000_000,
            system.qubit_hamiltonian(),
            compressed,
            &result.params,
        ),
        Err(e) => out.check(false, || {
            format!("kernel subject {}: {e}", spec.benchmark.name())
        }),
    }
}
