//! The traced run's spans: recorded from the benchmark's own code around
//! calls into each crate, written in the obs JSONL format, and read back
//! through `pcd report`'s aggregation to prove the file is usable.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use pauli_codesign::report::{classify_named, Artifact, ReportBuilder};

/// Where traced runs write their spans, relative to the checkout root.
pub const DIR: &str = ".perfbench";

/// Program spans that make up one job's stage time, for
/// `supervisor.parallel_efficiency`. The integral build has no span of
/// its own and is not counted.
pub const JOB_STAGE_SPANS: [&str; 5] = [
    "chem.scf",
    "chem.encode",
    "ansatz.compress",
    "vqe.run",
    "compiler.mtr",
];

/// Hands out span ids. Every benchmark span carries `trace_id` (the job
/// or request it belongs to), its own `span_id`, and `parent_id` (0 for a
/// root).
#[derive(Default)]
pub struct Spans {
    next: AtomicU64,
}

impl Spans {
    /// Opens `bench.<name>`; the span records itself when the guard drops.
    pub fn open(&self, name: &str, trace_id: u64, parent_id: u64) -> (obs::SpanGuard, u64) {
        let id = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        let mut guard = obs::span(&format!("bench.{name}"));
        guard.record("trace_id", trace_id);
        guard.record("span_id", id);
        guard.record("parent_id", parent_id);
        (guard, id)
    }
}

/// Starts recording into a clean registry.
pub fn start() {
    obs::reset();
    obs::enable();
}

/// Stops recording and returns everything recorded since [`start`].
pub fn stop() -> obs::Snapshot {
    obs::disable();
    obs::snapshot()
}

/// Total duration (ms) and count of the spans named `name`.
pub fn span_total_ms(snap: &obs::Snapshot, name: &str) -> (f64, usize) {
    let spans = snap.spans_named(name);
    let total = spans.iter().map(|s| s.duration_us).sum::<f64>() / 1e3;
    (total, spans.len())
}

/// Writes the snapshot as JSONL under [`DIR`] and aggregates it the way
/// `pcd report` does. Returns an error unless the report classifies the
/// file as a trace and lists every `bench.*` span name.
pub fn write_and_report(snap: &obs::Snapshot, workload: &str, seed: u64) -> Result<(), String> {
    std::fs::create_dir_all(DIR).map_err(|e| format!("{DIR}: {e}"))?;
    let name = format!("trace-{workload}-{seed}.jsonl");
    let path = format!("{DIR}/{name}");
    obs::atomic_write(&path, obs::export_snapshot_jsonl(snap).as_bytes())
        .map_err(|e| format!("{path}: {e}"))?;
    let bytes = std::fs::read(&path).map_err(|e| format!("{path}: {e}"))?;
    let artifact = classify_named(&name, &bytes).map_err(|e| format!("{path}: {e}"))?;
    if !matches!(artifact, Artifact::Trace { .. }) {
        return Err(format!("{path}: report does not read it as a trace"));
    }
    let mut builder = ReportBuilder::new();
    builder.add(&path, artifact);
    let report = builder.finish(&BTreeMap::new(), 0.1);
    let staged: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
    for span in &snap.spans {
        if span.name.starts_with("bench.") && !staged.contains(&span.name.as_str()) {
            return Err(format!("{path}: report has no stage `{}`", span.name));
        }
    }
    println!(
        "trace: {} spans, {} report stages -> {path}",
        snap.spans.len(),
        report.stages.len()
    );
    Ok(())
}
