//! `batch-sweep`: a seeded set of distinct specs submitted at once to
//! `supervisor::run_batch` with two workers and no faults.

use std::time::Instant;

use pauli_codesign::chem::Benchmark;
use pauli_codesign::supervisor::{run_batch, BatchReport, JobSpec, JobState, SupervisorConfig};

use crate::expected::{Table, ENERGY_TOL_HA, RATIOS, SWEEP_MOLECULES};
use crate::layers;
use crate::measure::{median, peak_rss_mb, process_cpu_s, secs, Outcome, Rng};
use crate::trace::{self, span_total_ms, Spans, JOB_STAGE_SPANS};
use crate::Args;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Supervisor workers.
const WORKERS: usize = 2;

/// The batch: every sweep molecule at every bond of its
/// `bond_length_scan()` and every ratio (6 × 7 × 3 = 126 distinct jobs),
/// in an arrival order the seed sets.
fn specs(seed: u64) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for b in SWEEP_MOLECULES {
        for bond in b.bond_length_scan() {
            for ratio in RATIOS {
                specs.push(JobSpec {
                    id: format!("{}-{bond:.3}-{ratio}", b.name()),
                    benchmark: b,
                    bond: Some(bond),
                    ratio,
                });
            }
        }
    }
    Rng::new(seed).shuffle(&mut specs);
    specs
}

fn config(seed: u64) -> SupervisorConfig {
    SupervisorConfig {
        workers: WORKERS,
        batch_seed: seed,
        ..SupervisorConfig::default()
    }
}

/// Input generation plus one untimed warm-up job through `run_batch`.
/// The warm-up is NaH, whose first build in a process fits the 3sp shell
/// once; without it that cost would land on the first timed batch.
fn setup(seed: u64) -> Result<(Vec<JobSpec>, f64), String> {
    let t = Instant::now();
    let specs = specs(seed);
    let warm = JobSpec {
        id: "warm-up".to_string(),
        benchmark: Benchmark::NaH,
        bond: None,
        ratio: 0.3,
    };
    let report = run_batch(&[warm], &config(seed)).map_err(|e| format!("warm-up: {e}"))?;
    if report.done() != 1 {
        return Err("warm-up job did not finish".to_string());
    }
    Ok((specs, secs(t)))
}

/// Checks every record against the table and the first batch's bits;
/// returns Σ (E − E_exact) in mHa over the batch.
fn check(
    out: &mut Outcome,
    specs: &[JobSpec],
    report: &BatchReport,
    first: Option<&BatchReport>,
    table: &Table,
) -> f64 {
    let mut error_mha = 0.0;
    for (spec, record) in specs.iter().zip(&report.records) {
        let ok = match (
            &record.state,
            table.row(spec.benchmark, spec.bond_length(), spec.ratio),
        ) {
            (JobState::Done { energy_bits, .. }, Ok(row)) => {
                let energy = f64::from_bits(*energy_bits);
                error_mha += (energy - row.exact) * 1e3;
                let same = first.is_none_or(|f| f.records[record.index].state == record.state);
                (energy - row.energy).abs() <= ENERGY_TOL_HA && same
            }
            _ => false,
        };
        out.check(ok, || {
            format!("batch job `{}` ended {:?}", spec.id, record.state)
        });
        if !ok {
            out.failed += 1;
        }
    }
    error_mha
}

pub fn run(args: &Args, table: &Table) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut specs = Vec::new();
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        match setup(args.seed) {
            Ok((s, secs)) => {
                specs = s;
                setups.push(secs);
            }
            Err(e) => out.check(false, || e),
        }
    }
    if specs.is_empty() {
        out.attempted = 1;
        out.failed = 1;
        return out;
    }
    println!(
        "batch-sweep: {} jobs, {WORKERS} workers, PCD_THREADS=2",
        specs.len()
    );
    let cfg = config(args.seed);
    if args.trace {
        traced(&mut out, args, &specs, &cfg, table);
        return out;
    }

    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<BatchReport> = None;
    let mut error_mha = 0.0;
    while walls.is_empty() || secs(t0) < args.seconds {
        let t = Instant::now();
        let result = run_batch(&specs, &cfg);
        walls.push(secs(t));
        out.attempted += specs.len();
        match result {
            Ok(report) => {
                error_mha = check(&mut out, &specs, &report, first.as_ref(), table);
                first.get_or_insert(report);
            }
            Err(e) => {
                out.failed += specs.len();
                out.check(false, || format!("batch: {e}"));
            }
        }
    }
    let cpu = process_cpu_s() - cpu0;
    println!("unit wall times (s): {walls:.3?}");
    let recount = layers::recount(&mut out, &Spans::default(), &specs, table);

    let n = walls.len();
    let jobs = specs.len() as f64;
    let rates: Vec<f64> = walls.iter().map(|w| jobs / w).collect();
    out.set("setup_s", median(&setups), setups.len());
    out.set("wall_s", median(&walls), n);
    out.set("jobs_per_s", median(&rates), n);
    out.set("cpu_s", cpu / out.attempted as f64, out.attempted);
    out.set_latency(&walls);
    out.set("energy_error_mha", error_mha / jobs, specs.len());
    out.set("compiled_cnots", recount.cnots as f64, specs.len());
    out.set_done_frac();
    out.set("peak_rss_mb", peak_rss_mb(), 1);
    out
}

/// The traced run: one batch untraced, one under a benchmark span with
/// the program's own spans and counters recorded, then the recount and
/// the kernels on the batch's heaviest spec.
fn traced(
    out: &mut Outcome,
    args: &Args,
    specs: &[JobSpec],
    cfg: &SupervisorConfig,
    table: &Table,
) {
    out.attempted = 2 * specs.len();
    let t = Instant::now();
    let untraced = run_batch(specs, cfg);
    let untraced_wall = secs(t);

    trace::start();
    let spans = Spans::default();
    let t = Instant::now();
    let traced = {
        let (_s, _) = spans.open("supervisor.batch", 1, 0);
        run_batch(specs, cfg)
    };
    let traced_wall = secs(t);
    let batch_snap = obs::snapshot();
    for result in [&untraced, &traced] {
        match result {
            Ok(report) => {
                check(out, specs, report, untraced.as_ref().ok(), table);
            }
            Err(e) => {
                out.failed += specs.len();
                out.check(false, || format!("batch: {e}"));
            }
        }
    }
    let recount = layers::recount(out, &spans, specs, table);
    layers::kernels_on_heaviest(out, &spans, &recount);
    let snap = trace::stop();

    let n = specs.len();
    layers::set_recount_figures(out, &recount, n);
    out.set("supervisor.batch_ms", traced_wall * 1e3, 1);
    out.set(
        "supervisor.retries",
        batch_snap.counter("supervisor.retries") as f64,
        n,
    );
    let stage_ms: f64 = JOB_STAGE_SPANS
        .iter()
        .map(|name| span_total_ms(&batch_snap, name).0)
        .sum();
    out.set(
        "supervisor.parallel_efficiency",
        stage_ms / (WORKERS as f64 * traced_wall * 1e3),
        n,
    );
    let (vqe_ms, vqe_runs) = span_total_ms(&batch_snap, "vqe.run");
    out.set("vqe.run_ms", vqe_ms, vqe_runs);
    if let Ok(report) = &traced {
        let (mut iterations, mut evaluations) = (0, 0);
        for record in &report.records {
            if let JobState::Done {
                iterations: i,
                evaluations: e,
                ..
            } = record.state
            {
                iterations += i;
                evaluations += e;
            }
        }
        out.set("vqe.iterations", iterations as f64, n);
        out.set("vqe.evaluations", evaluations as f64, n);
    }
    out.set(
        "par.threads_spawned",
        batch_snap.counter("par.threads") as f64,
        n,
    );
    out.set(
        "obs.overhead_pct",
        (traced_wall - untraced_wall) / untraced_wall * 100.0,
        1,
    );
    if let Err(e) = trace::write_and_report(&snap, "batch-sweep", args.seed) {
        out.check(false, || e);
    }
}
