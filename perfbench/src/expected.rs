//! The committed table of expected outputs, and the generator that
//! writes it.
//!
//! One row per (molecule, bond, ratio) the workloads can draw: the VQE
//! energy, the exact reference energy, the compiled CNOT count (MtR
//! original plus added, on the X-Tree the pipeline picks), and the kept
//! parameter count. Every row comes from the public stage calls, exactly
//! as `CoDesignPipeline::run` chains them, so the table is the reference
//! both the pipeline and the supervised batch path must reproduce.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use pauli_codesign::chem::Benchmark;

use crate::stages;

/// Where the table lives, relative to the checkout root.
pub const PATH: &str = "perfbench/expected.tsv";

/// Largest VQE energy difference (Hartree) a run may show against the
/// table. Bit-identical runs differ by 0; the slack admits a change to the
/// order of floating-point sums that moves the optimizer's last digits.
pub const ENERGY_TOL_HA: f64 = 1e-6;

/// Molecules the batch sweep draws from.
pub const SWEEP_MOLECULES: [Benchmark; 6] = [
    Benchmark::H2,
    Benchmark::LiH,
    Benchmark::NaH,
    Benchmark::HF,
    Benchmark::BeH2,
    Benchmark::H2O,
];

/// Compression ratios the batch sweep and the serve pool draw from.
pub const RATIOS: [f64; 3] = [0.3, 0.5, 1.0];

/// The ratio the paper workload runs NH₃ at.
pub const PAPER_RATIO: f64 = 0.3;

/// NH₃ bonds the paper workload draws from: equilibrium ± 0.02 Å in
/// 0.005 Å steps. See `BENCHMARK.json` for why not the whole
/// `bond_length_scan()`.
pub fn paper_bonds() -> Vec<f64> {
    let eq = Benchmark::NH3.equilibrium_bond_length();
    (-4..=4).map(|j| eq + 0.005 * j as f64).collect()
}

/// One expected row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    pub energy: f64,
    pub exact: f64,
    pub cnots: usize,
    pub kept: usize,
}

/// Table key: molecule name, bond to the milli-Angstrom, ratio.
pub fn key(benchmark: Benchmark, bond: f64, ratio: f64) -> String {
    format!("{}\t{bond:.3}\t{ratio:.1}", benchmark.name())
}

/// The committed table, keyed by [`key`].
pub struct Table(BTreeMap<String, Row>);

impl Table {
    /// Reads the table from the checkout.
    pub fn load() -> Result<Table, String> {
        let text = std::fs::read_to_string(PATH).map_err(|e| format!("{PATH}: {e}"))?;
        let mut rows = BTreeMap::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let cols: Vec<&str> = line.split('\t').collect();
            let bad = || format!("{PATH}:{}: malformed row", lineno + 1);
            let [molecule, bond, ratio, energy, exact, cnots, kept] = cols.as_slice() else {
                return Err(bad());
            };
            let row = Row {
                energy: energy.parse().map_err(|_| bad())?,
                exact: exact.parse().map_err(|_| bad())?,
                cnots: cnots.parse().map_err(|_| bad())?,
                kept: kept.parse().map_err(|_| bad())?,
            };
            rows.insert(format!("{molecule}\t{bond}\t{ratio}"), row);
        }
        Ok(Table(rows))
    }

    /// The expected row for a spec.
    pub fn row(&self, benchmark: Benchmark, bond: f64, ratio: f64) -> Result<Row, String> {
        let k = key(benchmark, bond, ratio);
        self.0
            .get(&k)
            .copied()
            .ok_or_else(|| format!("no expected row for `{}`", k.replace('\t', " ")))
    }
}

/// Recomputes every row and writes the table (the `--write-expected`
/// mode). Rows are independent, so two threads split them.
pub fn write() -> Result<(), String> {
    let mut systems: Vec<(Benchmark, f64, Vec<f64>)> = Vec::new();
    for b in SWEEP_MOLECULES {
        for bond in b.bond_length_scan() {
            systems.push((b, bond, RATIOS.to_vec()));
        }
    }
    for bond in paper_bonds() {
        systems.push((Benchmark::NH3, bond, vec![PAPER_RATIO]));
    }
    let rows = std::sync::Mutex::new(Vec::new());
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(&(b, bond, ref ratios)) = systems.get(i) else {
                    break;
                };
                let out = pauli_codesign::par::with_threads(1, || row_group(b, bond, ratios));
                rows.lock().expect("row lock").push(out);
            });
        }
    });
    let mut lines: Vec<String> = Vec::new();
    for group in rows.into_inner().expect("row lock") {
        lines.extend(group?);
    }
    lines.sort();
    let mut text = String::from(
        "# molecule\tbond_A\tratio\tvqe_energy_Ha\texact_energy_Ha\tcompiled_cnots\tkept_parameters\n\
         # Written by `cargo run --release --manifest-path perfbench/Cargo.toml -- --write-expected`.\n",
    );
    for line in lines {
        text.push_str(&line);
        text.push('\n');
    }
    std::fs::write(PATH, text).map_err(|e| format!("{PATH}: {e}"))
}

fn row_group(b: Benchmark, bond: f64, ratios: &[f64]) -> Result<Vec<String>, String> {
    let t = std::time::Instant::now();
    let system = b
        .build(bond)
        .map_err(|e| format!("{} @ {bond}: {e}", b.name()))?;
    let build_s = t.elapsed().as_secs_f64();
    let exact = system.exact_ground_state_energy();
    let exact_s = t.elapsed().as_secs_f64() - build_s;
    let mut out = Vec::new();
    for &ratio in ratios {
        let t = std::time::Instant::now();
        let ir = stages::compressed_ir(&system, ratio);
        let vqe = stages::vqe(&system, &ir.ir).map_err(|e| format!("{}: {e}", b.name()))?;
        let cnots = stages::compile(&system, &ir.ir);
        let mut line = key(b, bond, ratio);
        let _ = write!(
            line,
            "\t{:.12}\t{exact:.12}\t{}\t{}",
            vqe.energy,
            cnots.original_cnots() + cnots.added_cnots(),
            ir.kept
        );
        eprintln!(
            "{}  (build {build_s:.2} s, exact {exact_s:.2} s, ansatz+vqe+compile {:.2} s, {} evaluations)",
            line.replace('\t', " "),
            t.elapsed().as_secs_f64(),
            vqe.evaluations
        );
        out.push(line);
    }
    Ok(out)
}
