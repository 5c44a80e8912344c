//! `paper-nh3`: one NH₃ co-design job (14 qubits, ratio 0.3) through
//! `CoDesignPipeline::run`, exact reference included, at two threads.

use std::time::Instant;

use pauli_codesign::chem::Benchmark;
use pauli_codesign::pauli::group_qubit_wise;
use pauli_codesign::{CoDesignPipeline, CoDesignReport};

use crate::expected::{self, Row, Table, ENERGY_TOL_HA, PAPER_RATIO};
use crate::layers;
use crate::measure::{median, peak_rss_mb, process_cpu_s, secs, Outcome, Rng};
use crate::stages;
use crate::trace::{self, span_total_ms, Spans};
use crate::Args;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The untimed warm-up job: the same entry point on a 12-qubit molecule,
/// so every stage (exact reference included) has run once.
fn warm_up() -> Result<CoDesignReport, String> {
    CoDesignPipeline::new(Benchmark::H2O)
        .compression_ratio(PAPER_RATIO)
        .run()
        .map_err(|e| format!("warm-up: {e}"))
}

fn pipeline(bond: f64) -> CoDesignPipeline {
    let mut p = CoDesignPipeline::new(Benchmark::NH3);
    p.bond_length(bond).compression_ratio(PAPER_RATIO);
    p
}

/// Input generation (the seed picks the bond) plus the warm-up job.
fn setup(seed: u64, table: &Table) -> Result<(f64, Row, f64), String> {
    let t = Instant::now();
    let bonds = expected::paper_bonds();
    let bond = bonds[Rng::new(seed).below(bonds.len())];
    let row = table.row(Benchmark::NH3, bond, PAPER_RATIO)?;
    warm_up()?;
    Ok((bond, row, secs(t)))
}

/// Checks one finished job against the committed row.
fn check(out: &mut Outcome, report: &CoDesignReport, row: &Row) -> bool {
    let cnots = report.original_cnots + report.added_cnots;
    let error = report.energy - report.exact_energy;
    let ok = report.energy >= report.exact_energy - 1e-9
        && (report.energy - row.energy).abs() <= ENERGY_TOL_HA
        && (error - (row.energy - row.exact)).abs() <= ENERGY_TOL_HA
        && cnots == row.cnots
        && report.kept_parameters == row.kept;
    out.check(ok, || {
        format!(
            "NH3: energy {:.9} (exact {:.9}), {cnots} CNOTs, {} kept; expected {:.9} ({:.9}), {}, {}",
            report.energy,
            report.exact_energy,
            report.kept_parameters,
            row.energy,
            row.exact,
            row.cnots,
            row.kept
        )
    });
    ok
}

pub fn run(args: &Args, table: &Table) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut input = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        match setup(args.seed, table) {
            Ok((bond, row, s)) => {
                setups.push(s);
                input = Some((bond, row));
            }
            Err(e) => out.check(false, || e),
        }
    }
    let Some((bond, row)) = input else {
        out.attempted = 1;
        out.failed = 1;
        return out;
    };
    println!("paper-nh3: NH3 at {bond:.3} Å, ratio {PAPER_RATIO}, PCD_THREADS=2");
    if args.trace {
        traced(&mut out, args, bond, &row);
        return out;
    }

    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<CoDesignReport> = None;
    while walls.is_empty() || secs(t0) < args.seconds {
        let t = Instant::now();
        let result = pipeline(bond).run();
        walls.push(secs(t));
        out.attempted += 1;
        match result {
            Ok(report) => {
                let same = first
                    .as_ref()
                    .is_none_or(|f| f.energy.to_bits() == report.energy.to_bits());
                out.check(same, || "NH3: repeat run changed the energy bits".into());
                if !(check(&mut out, &report, &row) && same) {
                    out.failed += 1;
                }
                first.get_or_insert(report);
            }
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("NH3: {e}"));
            }
        }
    }
    let cpu = process_cpu_s() - cpu0;
    println!("unit wall times (s): {walls:.3?}");
    let n = walls.len();
    out.set("setup_s", median(&setups), setups.len());
    out.set("wall_s", median(&walls), n);
    out.set("cpu_s", cpu / n as f64, n);
    let rates: Vec<f64> = walls.iter().map(|w| 1.0 / w).collect();
    out.set("jobs_per_s", median(&rates), n);
    out.set_latency(&walls);
    if let Some(report) = &first {
        out.set(
            "energy_error_mha",
            (report.energy - report.exact_energy) * 1e3,
            n,
        );
        out.set(
            "compiled_cnots",
            (report.original_cnots + report.added_cnots) as f64,
            n,
        );
    }
    out.set_done_frac();
    out.set("peak_rss_mb", peak_rss_mb(), 1);
    out
}

/// The traced run: the pipeline once untraced, then rebuilt from public
/// stage calls under benchmark spans, then the kernels at its converged
/// point. The rebuilt pipeline must reproduce `CoDesignPipeline::run`'s
/// energy bits and CNOT count.
fn traced(out: &mut Outcome, args: &Args, bond: f64, row: &Row) {
    out.attempted = 2;
    let t = Instant::now();
    let reference = match pipeline(bond).run() {
        Ok(report) => report,
        Err(e) => {
            out.failed = 2;
            out.check(false, || format!("NH3: {e}"));
            return;
        }
    };
    let untraced = secs(t);
    if !check(out, &reference, row) {
        out.failed += 1;
    }

    trace::start();
    let spans = Spans::default();
    let t = Instant::now();
    let rebuilt = {
        let (_job, root) = spans.open("job", 1, 0);
        let system = {
            let (_s, _) = spans.open("chem.build", 1, root);
            Benchmark::NH3.build(bond)
        };
        system.map_err(|e| e.to_string()).and_then(|system| {
            let compressed = {
                let (_s, _) = spans.open("ansatz.compress", 1, root);
                stages::compressed_ir(&system, PAPER_RATIO)
            };
            let result = {
                let (_s, _) = spans.open("vqe.run", 1, root);
                stages::vqe(&system, &compressed.ir).map_err(|e| e.to_string())?
            };
            {
                let (_s, _) = spans.open("pauli.group", 1, root);
                std::hint::black_box(group_qubit_wise(system.qubit_hamiltonian()).len());
            }
            let program = {
                let (_s, _) = spans.open("compiler.mtr", 1, root);
                stages::compile(&system, &compressed.ir)
            };
            let exact = {
                let (_s, _) = spans.open("chem.exact_reference", 1, root);
                system.exact_ground_state_energy()
            };
            Ok((system, compressed, result, program, exact))
        })
    };
    let traced_wall = secs(t);
    let (system, compressed, result, program, exact) = match rebuilt {
        Ok(parts) => parts,
        Err(e) => {
            out.failed += 1;
            out.check(false, || format!("NH3 rebuilt: {e}"));
            trace::stop();
            return;
        }
    };
    let cnots = program.original_cnots() + program.added_cnots();
    let same = result.energy.to_bits() == reference.energy.to_bits()
        && exact.to_bits() == reference.exact_energy.to_bits()
        && cnots == reference.original_cnots + reference.added_cnots;
    out.check(same, || {
        format!(
            "NH3 rebuilt from stage calls: energy {:.12}, exact {:.12}, {cnots} CNOTs; \
             CoDesignPipeline::run gave {:.12}, {:.12}, {}",
            result.energy,
            exact,
            reference.energy,
            reference.exact_energy,
            reference.original_cnots + reference.added_cnots
        )
    });
    if !same {
        out.failed += 1;
    }
    println!("paper-nh3: rebuilt pipeline reproduces CoDesignPipeline::run: {same}");
    let counters = obs::snapshot();
    layers::kernels(
        out,
        &spans,
        1,
        system.qubit_hamiltonian(),
        &compressed,
        &result.params,
    );
    let snap = trace::stop();

    for (metric, span) in [
        ("chem.build_ms", "bench.chem.build"),
        ("ansatz.compress_ms", "bench.ansatz.compress"),
        ("vqe.run_ms", "bench.vqe.run"),
        ("pauli.group_ms", "bench.pauli.group"),
        ("compiler.mtr_ms", "bench.compiler.mtr"),
        ("chem.exact_reference_ms", "bench.chem.exact_reference"),
    ] {
        let (ms, n) = span_total_ms(&snap, span);
        out.set(metric, ms, n);
    }
    out.set("vqe.iterations", result.iterations as f64, 1);
    out.set("vqe.evaluations", result.evaluations as f64, 1);
    out.set(
        "par.threads_spawned",
        counters.counter("par.threads") as f64,
        1,
    );
    out.set(
        "chem.scf_iterations",
        counters.counter("chem.scf.iterations") as f64,
        1,
    );
    out.set("ansatz.kept_parameters", compressed.kept as f64, 1);
    out.set("compiler.added_cnots", program.added_cnots() as f64, 1);
    out.set(
        "obs.overhead_pct",
        (traced_wall - untraced) / untraced * 100.0,
        1,
    );
    if let Err(e) = trace::write_and_report(&snap, "paper-nh3", args.seed) {
        out.check(false, || e);
    }
}
