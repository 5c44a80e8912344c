//! Sharded-batch integration: a coordinated run over loopback merges
//! bit-identically to a single-process run, its shard manifests and
//! lineage feed `pcd report`, and the merge is idempotent and commutative
//! over shard counts (property-tested). Worker takeover and in-process
//! rescue are covered by the `supervisor::remote` unit tests.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use pauli_codesign::chem::Benchmark;
use pauli_codesign::report::{classify as classify_artifact, Artifact, ReportBuilder};
use pauli_codesign::supervisor::{
    encode_manifest, encode_shard_manifest, merge_shards, run_batch, run_worker,
    shard_manifest_path, BatchMeta, Coordinator, CoordinatorOptions, CoordinatorReport, JobRecord,
    JobSpec, JobState, ShardMeta, SupervisorConfig, WorkerOptions,
};
use proptest::prelude::*;

static SCRATCH_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch(tag: &str) -> PathBuf {
    let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("pcd-shardmerge-{}-{tag}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn jobs(n: usize) -> Vec<JobSpec> {
    (0..n)
        .map(|i| JobSpec {
            id: format!("h2-{i}"),
            benchmark: Benchmark::H2,
            bond: Some(0.62 + 0.05 * i as f64),
            ratio: 1.0,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Property: merge idempotence and commutativity over 1/2/4 shards.
// ---------------------------------------------------------------------------

/// An arbitrary terminal (or pending) job state.
fn state_strategy() -> impl Strategy<Value = JobState> {
    let stage = prop_oneof![Just("scf"), Just("compile"), Just("vqe")];
    prop_oneof![
        (0u32..u32::MAX, 1usize..100, 0usize..5).prop_map(|(e, iters, retries)| JobState::Done {
            energy_bits: (-1.0 - f64::from(e) * 1e-9).to_bits(),
            iterations: iters,
            evaluations: iters * 4,
            scf_retries: retries,
            sabre_fallback: e % 2 == 0,
        }),
        (1usize..4, stage).prop_map(|(attempts, stage)| JobState::Quarantined {
            attempts,
            stage: stage.to_string(),
            error: "injected".to_string(),
        }),
        Just(JobState::Shed),
        (0usize..3, 0usize..8).prop_map(|(attempt, slices)| JobState::Pending {
            attempt,
            slices_used: slices,
            checkpoint: None,
            breaker: [0, 0, 0],
        }),
    ]
}

fn write_partition(dir: &Path, specs: &[JobSpec], states: &[JobState], shards: usize) {
    let batch = BatchMeta {
        batch_seed: 7,
        jobs: specs.len(),
        pipeline_fault_rate: 0.125,
    };
    for shard_id in 0..shards {
        let records: Vec<JobRecord> = (0..specs.len())
            .filter(|i| i % shards == shard_id)
            .map(|i| JobRecord {
                index: i,
                id: specs[i].id.clone(),
                state: states[i].clone(),
                retries: i % 3,
                backoff_ms: 0,
            })
            .collect();
        let meta = ShardMeta {
            batch,
            shards,
            shard_id,
            owner: format!("pid:{}/{:08x}", 1000 + shard_id, shard_id),
            epoch: 0,
            taken_over_from: None,
        };
        encode_shard_manifest(&meta, &records)
            .write(shard_manifest_path(dir, shard_id))
            .unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The same record set partitioned as 1, 2, and 4 shards seals the
    /// byte-identical batch.manifest, and re-merging is a no-op — the
    /// merge is a pure function of the record set, not of the partition
    /// or the number of merge passes.
    #[test]
    fn merge_is_idempotent_and_commutative_over_shard_counts(
        states in prop::collection::vec(state_strategy(), 1..12),
    ) {
        let specs = jobs(states.len());
        let mut sealed: Vec<Vec<u8>> = Vec::new();
        for shards in [1usize, 2, 4] {
            let dir = scratch("prop");
            write_partition(&dir, &specs, &states, shards);
            let first = merge_shards(&dir, &specs).unwrap();
            let second = merge_shards(&dir, &specs).unwrap();
            prop_assert!(
                first.sealed == second.sealed,
                "merge not idempotent at {} shards", shards
            );
            prop_assert_eq!(first.records.len(), specs.len());
            prop_assert_eq!(first.missing.len(), 0);
            sealed.push(first.sealed);
            let _ = std::fs::remove_dir_all(&dir);
        }
        prop_assert!(sealed[0] == sealed[1], "1-shard vs 2-shard seal differs");
        prop_assert!(sealed[0] == sealed[2], "1-shard vs 4-shard seal differs");
    }
}

// ---------------------------------------------------------------------------
// Real-pipeline equivalence over the coordinator.
// ---------------------------------------------------------------------------

fn config(batch_seed: u64, ckpt: Option<PathBuf>) -> SupervisorConfig {
    SupervisorConfig {
        batch_seed,
        ckpt_dir: ckpt,
        ..SupervisorConfig::default()
    }
}

fn reference_bytes(specs: &[JobSpec], batch_seed: u64) -> Vec<u8> {
    let report = run_batch(specs, &config(batch_seed, None)).unwrap();
    let meta = BatchMeta {
        batch_seed,
        jobs: specs.len(),
        pipeline_fault_rate: 0.0,
    };
    encode_manifest(&meta, &report.records).to_bytes()
}

/// Runs `specs` as `shards` shards: a coordinator on an ephemeral
/// loopback port plus one in-process worker thread per shard, sealing
/// into `dir`.
fn run_coordinated(
    specs: &[JobSpec],
    batch_seed: u64,
    shards: usize,
    dir: &Path,
) -> CoordinatorReport {
    let coordinator = Coordinator::bind(
        specs,
        &config(batch_seed, Some(dir.to_path_buf())),
        CoordinatorOptions {
            shards,
            ..CoordinatorOptions::default()
        },
    )
    .unwrap();
    let addr = coordinator.addr();
    let coord = std::thread::spawn(move || coordinator.run());
    let workers: Vec<_> = (0..shards)
        .map(|k| {
            let opts = WorkerOptions {
                connect: addr,
                worker_id: format!("local-{k}"),
                ..WorkerOptions::default()
            };
            std::thread::spawn(move || run_worker(&opts))
        })
        .collect();
    for worker in workers {
        worker.join().unwrap().unwrap();
    }
    coord.join().unwrap().unwrap()
}

#[test]
fn two_shard_run_merges_bit_identically_to_one_shard_reference() {
    let specs = jobs(5);
    let reference = reference_bytes(&specs, 11);
    let dir = scratch("twoshards");
    let report = run_coordinated(&specs, 11, 2, &dir);
    assert!(report.takeovers.is_empty() && report.rescued.is_empty());
    assert_eq!(
        report.sealed, reference,
        "merged manifest differs from the 1-shard reference"
    );
    assert_eq!(
        std::fs::read(dir.join("batch.manifest")).unwrap(),
        reference,
        "sealed file differs from the reported bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Report pipeline: shard manifests and merge lineage classify and render.
// ---------------------------------------------------------------------------

#[test]
fn report_classifies_shard_manifests_and_lineage() {
    let specs = jobs(4);
    let dir = scratch("report");
    run_coordinated(&specs, 13, 2, &dir);

    let shard_text = std::fs::read_to_string(shard_manifest_path(&dir, 0)).unwrap();
    let artifact = classify_artifact(&shard_text).unwrap();
    assert!(
        matches!(artifact, Artifact::Shard { .. }),
        "shard manifest misclassified"
    );
    let lineage_text = std::fs::read_to_string(dir.join("merge.lineage")).unwrap();
    let lineage = classify_artifact(&lineage_text).unwrap();
    assert!(
        matches!(lineage, Artifact::Lineage(_)),
        "lineage misclassified"
    );

    let mut builder = ReportBuilder::new();
    builder.add("shard-0.manifest", artifact);
    builder.add("merge.lineage", lineage);
    let report = builder.finish(&Default::default(), 0.25);
    assert_eq!(report.shards.len(), 1);
    assert_eq!(report.shards[0].0, 0, "wrong shard id in breakdown");
    let rendered = report.render();
    assert!(
        rendered.contains("shards:"),
        "render misses the shard section:\n{rendered}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
