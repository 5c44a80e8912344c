//! The batch manifest: a drained (or finished) batch's per-job records in
//! the versioned, CRC-guarded checkpoint container.
//!
//! Payload line 0 is the [`BatchMeta`] (seed, job count, fault rate —
//! the keys a resume must match); every following line is one
//! [`JobRecord`] in arrival order. Energies and the pipeline fault rate
//! travel as bit-exact hex, and the batch seed as a decimal *string*
//! (JSON numbers are f64 and would shear a full-width u64), so a decode ∘
//! encode round-trip preserves every record to the last bit.

use std::collections::BTreeMap;
use std::time::Duration;

use obs::json::JsonValue;
use resilience::checkpoint::{f64_from_hex, f64_to_hex};
use resilience::{Checkpoint, CheckpointError};

use crate::backoff::BackoffPolicy;
use crate::engine::{InjectionPlan, SupervisorConfig};
use crate::job::{JobRecord, JobState};
use crate::queue::ShedPolicy;

/// Checkpoint kind tag for batch manifests.
pub const KIND_BATCH_MANIFEST: &str = "batch-manifest";

/// Batch-level identity a resume validates before trusting the records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchMeta {
    /// Root seed of every per-job derivation.
    pub batch_seed: u64,
    /// Number of jobs in the batch.
    pub jobs: usize,
    /// Pipeline fault rate the batch ran with.
    pub pipeline_fault_rate: f64,
}

pub(crate) fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

pub(crate) fn num(v: usize) -> JsonValue {
    JsonValue::Number(v as f64)
}

pub(crate) fn string(s: &str) -> JsonValue {
    JsonValue::String(s.to_string())
}

fn get<'a>(record: &'a JsonValue, field: &str) -> Result<&'a JsonValue, CheckpointError> {
    record
        .get(field)
        .ok_or_else(|| CheckpointError::Malformed(format!("manifest: missing field `{field}`")))
}

pub(crate) fn get_usize(record: &JsonValue, field: &str) -> Result<usize, CheckpointError> {
    get(record, field)?
        .as_u64()
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| {
            CheckpointError::Malformed(format!("manifest: field `{field}` is not an integer"))
        })
}

pub(crate) fn get_str<'a>(record: &'a JsonValue, field: &str) -> Result<&'a str, CheckpointError> {
    get(record, field)?.as_str().ok_or_else(|| {
        CheckpointError::Malformed(format!("manifest: field `{field}` is not a string"))
    })
}

fn get_bool(record: &JsonValue, field: &str) -> Result<bool, CheckpointError> {
    get(record, field)?.as_bool().ok_or_else(|| {
        CheckpointError::Malformed(format!("manifest: field `{field}` is not a bool"))
    })
}

pub(crate) fn get_u64_str(record: &JsonValue, field: &str) -> Result<u64, CheckpointError> {
    get_str(record, field)?.parse::<u64>().map_err(|_| {
        CheckpointError::Malformed(format!("manifest: field `{field}` is not a decimal u64"))
    })
}

fn get_bits(record: &JsonValue, field: &str) -> Result<u64, CheckpointError> {
    let s = get_str(record, field)?;
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(CheckpointError::Malformed(format!(
            "manifest: field `{field}` is not 16 hex digits"
        )));
    }
    u64::from_str_radix(s, 16)
        .map_err(|_| CheckpointError::Malformed(format!("manifest: field `{field}` is not hex")))
}

fn get_breaker(record: &JsonValue) -> Result<[usize; 3], CheckpointError> {
    let JsonValue::Array(items) = get(record, "breaker")? else {
        return Err(CheckpointError::Malformed(
            "manifest: field `breaker` is not an array".to_string(),
        ));
    };
    if items.len() != 3 {
        return Err(CheckpointError::Malformed(format!(
            "manifest: breaker has {} entries, expected 3",
            items.len()
        )));
    }
    let mut counts = [0usize; 3];
    for (slot, item) in counts.iter_mut().zip(items) {
        *slot = item
            .as_u64()
            .and_then(|v| usize::try_from(v).ok())
            .ok_or_else(|| {
                CheckpointError::Malformed("manifest: breaker entry is not an integer".to_string())
            })?;
    }
    Ok(counts)
}

pub(crate) fn encode_record(record: &JobRecord) -> JsonValue {
    let mut fields = vec![
        ("index", num(record.index)),
        ("id", string(&record.id)),
        ("state", string(record.state.label())),
        ("retries", num(record.retries)),
        ("backoff_ms", string(&record.backoff_ms.to_string())),
    ];
    match &record.state {
        JobState::Done {
            energy_bits,
            iterations,
            evaluations,
            scf_retries,
            sabre_fallback,
        } => {
            fields.push(("energy", string(&format!("{energy_bits:016x}"))));
            fields.push(("iterations", num(*iterations)));
            fields.push(("evaluations", num(*evaluations)));
            fields.push(("scf_retries", num(*scf_retries)));
            fields.push(("sabre_fallback", JsonValue::Bool(*sabre_fallback)));
        }
        JobState::Quarantined {
            attempts,
            stage,
            error,
        } => {
            fields.push(("attempts", num(*attempts)));
            fields.push(("stage", string(stage)));
            fields.push(("error", string(error)));
        }
        JobState::Shed => {}
        JobState::Pending {
            attempt,
            slices_used,
            checkpoint,
            breaker,
        } => {
            fields.push(("attempt", num(*attempt)));
            fields.push(("slices_used", num(*slices_used)));
            fields.push((
                "breaker",
                JsonValue::Array(breaker.iter().map(|&c| num(c)).collect()),
            ));
            if let Some(name) = checkpoint {
                fields.push(("checkpoint", string(name)));
            }
        }
    }
    obj(fields)
}

fn decode_record(line: &JsonValue, position: usize) -> Result<JobRecord, CheckpointError> {
    let record = decode_record_sparse(line)?;
    if record.index != position {
        return Err(CheckpointError::Malformed(format!(
            "manifest: record at line {position} claims index {}",
            record.index
        )));
    }
    Ok(record)
}

/// Decodes one record line without pinning its index to a line position —
/// shard manifests carry *global* job indices, so a shard's records are a
/// sparse, ascending subsequence rather than `0..n`.
pub(crate) fn decode_record_sparse(line: &JsonValue) -> Result<JobRecord, CheckpointError> {
    let index = get_usize(line, "index")?;
    let id = get_str(line, "id")?.to_string();
    let retries = get_usize(line, "retries")?;
    let backoff_ms = get_u64_str(line, "backoff_ms")?;
    let state = match get_str(line, "state")? {
        "done" => JobState::Done {
            energy_bits: get_bits(line, "energy")?,
            iterations: get_usize(line, "iterations")?,
            evaluations: get_usize(line, "evaluations")?,
            scf_retries: get_usize(line, "scf_retries")?,
            sabre_fallback: get_bool(line, "sabre_fallback")?,
        },
        "quarantined" => JobState::Quarantined {
            attempts: get_usize(line, "attempts")?,
            stage: get_str(line, "stage")?.to_string(),
            error: get_str(line, "error")?.to_string(),
        },
        "shed" => JobState::Shed,
        "pending" => JobState::Pending {
            attempt: get_usize(line, "attempt")?,
            slices_used: get_usize(line, "slices_used")?,
            checkpoint: line
                .get("checkpoint")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
            breaker: get_breaker(line)?,
        },
        other => {
            return Err(CheckpointError::Malformed(format!(
                "manifest: unknown job state `{other}`"
            )))
        }
    };
    Ok(JobRecord {
        index,
        id,
        state,
        retries,
        backoff_ms,
    })
}

/// Encodes a batch's records as a `"batch-manifest"` checkpoint.
pub fn encode_manifest(meta: &BatchMeta, records: &[JobRecord]) -> Checkpoint {
    let mut payload = vec![obj(vec![
        ("batch_seed", string(&meta.batch_seed.to_string())),
        ("jobs", num(meta.jobs)),
        ("fault_rate", string(&f64_to_hex(meta.pipeline_fault_rate))),
    ])];
    payload.extend(records.iter().map(encode_record));
    Checkpoint::new(KIND_BATCH_MANIFEST, payload)
}

/// Decodes a `"batch-manifest"` checkpoint back to meta + records.
///
/// # Errors
///
/// [`CheckpointError`] on a wrong kind, a record count that disagrees
/// with the meta, or any malformed line.
pub fn decode_manifest(ck: &Checkpoint) -> Result<(BatchMeta, Vec<JobRecord>), CheckpointError> {
    if ck.kind != KIND_BATCH_MANIFEST {
        return Err(CheckpointError::Malformed(format!(
            "expected a {KIND_BATCH_MANIFEST} checkpoint, found `{}`",
            ck.kind
        )));
    }
    let header = ck
        .payload
        .first()
        .ok_or_else(|| CheckpointError::Malformed("manifest: empty payload".to_string()))?;
    let meta = BatchMeta {
        batch_seed: get_u64_str(header, "batch_seed")?,
        jobs: get_usize(header, "jobs")?,
        pipeline_fault_rate: f64_from_hex(get_str(header, "fault_rate")?)?,
    };
    let lines = &ck.payload[1..];
    if lines.len() != meta.jobs {
        return Err(CheckpointError::Malformed(format!(
            "manifest declares {} jobs but carries {} records",
            meta.jobs,
            lines.len()
        )));
    }
    let records = lines
        .iter()
        .enumerate()
        .map(|(position, line)| decode_record(line, position))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((meta, records))
}

/// Encodes the supervisor knobs a coordinator ships to its workers in
/// the `welcome` (opaque to the wire, like the jobs file): retries,
/// admission, slicing, breaker, backoff, and injection. A job record
/// depends on these as much as on the batch seed, so a worker that ran
/// with defaults instead would seal different records.
///
/// Per-process knobs (worker threads, drain triggers, directories,
/// progress) stay local and are not encoded; the batch seed and fault
/// rate travel in their own `welcome` fields.
pub fn encode_config(config: &SupervisorConfig) -> String {
    let mut fields = vec![
        ("max_retries", num(config.max_retries)),
        ("queue_cap", num(config.queue_cap)),
        ("shed", string(config.shed.name())),
        ("slice_ticks", string(&config.slice_ticks.to_string())),
        ("max_slices", num(config.max_slices)),
        ("breaker_threshold", num(config.breaker_threshold)),
        (
            "backoff_base_ms",
            string(&config.backoff.base_ms.to_string()),
        ),
        ("backoff_factor", string(&f64_to_hex(config.backoff.factor))),
        ("backoff_cap_ms", string(&config.backoff.cap_ms.to_string())),
        ("backoff_jitter", string(&f64_to_hex(config.backoff.jitter))),
        ("injection_rate", string(&f64_to_hex(config.injection.rate))),
        ("inject_panics", JsonValue::Bool(config.injection.panics)),
        ("inject_hangs", JsonValue::Bool(config.injection.hangs)),
        (
            "inject_transients",
            JsonValue::Bool(config.injection.transients),
        ),
    ];
    if let Some(wall) = config.slice_wall {
        let nanos = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        fields.push(("slice_wall_ns", string(&nanos.to_string())));
    }
    obj(fields).to_string()
}

/// Decodes [`encode_config`]'s text onto [`SupervisorConfig::default`]
/// (the fields it does not carry keep their defaults).
///
/// # Errors
///
/// [`CheckpointError::Malformed`] on non-JSON text or a missing or
/// mistyped field.
pub fn decode_config(text: &str) -> Result<SupervisorConfig, CheckpointError> {
    let value = obs::json::parse(text)
        .map_err(|e| CheckpointError::Malformed(format!("config: not JSON: {e}")))?;
    let shed = ShedPolicy::parse(get_str(&value, "shed")?).map_err(CheckpointError::Malformed)?;
    let slice_wall = match value.get("slice_wall_ns") {
        Some(_) => Some(Duration::from_nanos(get_u64_str(&value, "slice_wall_ns")?)),
        None => None,
    };
    Ok(SupervisorConfig {
        max_retries: get_usize(&value, "max_retries")?,
        queue_cap: get_usize(&value, "queue_cap")?,
        shed,
        slice_ticks: get_u64_str(&value, "slice_ticks")?,
        slice_wall,
        max_slices: get_usize(&value, "max_slices")?,
        breaker_threshold: get_usize(&value, "breaker_threshold")?,
        backoff: BackoffPolicy {
            base_ms: get_u64_str(&value, "backoff_base_ms")?,
            factor: f64_from_hex(get_str(&value, "backoff_factor")?)?,
            cap_ms: get_u64_str(&value, "backoff_cap_ms")?,
            jitter: f64_from_hex(get_str(&value, "backoff_jitter")?)?,
        },
        injection: InjectionPlan {
            rate: f64_from_hex(get_str(&value, "injection_rate")?)?,
            panics: get_bool(&value, "inject_panics")?,
            hangs: get_bool(&value, "inject_hangs")?,
            transients: get_bool(&value, "inject_transients")?,
        },
        ..SupervisorConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<JobRecord> {
        vec![
            JobRecord {
                index: 0,
                id: "a".to_string(),
                state: JobState::Done {
                    energy_bits: (-1.137_283_9f64).to_bits(),
                    iterations: 12,
                    evaluations: 48,
                    scf_retries: 1,
                    sabre_fallback: true,
                },
                retries: 2,
                backoff_ms: 350,
            },
            JobRecord {
                index: 1,
                id: "b".to_string(),
                state: JobState::Quarantined {
                    attempts: 4,
                    stage: "panic".to_string(),
                    error: "worker panic (isolated)".to_string(),
                },
                retries: 3,
                backoff_ms: 700,
            },
            JobRecord {
                index: 2,
                id: "c".to_string(),
                state: JobState::Shed,
                retries: 0,
                backoff_ms: 0,
            },
            JobRecord {
                index: 3,
                id: "d".to_string(),
                state: JobState::Pending {
                    attempt: 1,
                    slices_used: 3,
                    checkpoint: Some("job3.vqe.ckpt".to_string()),
                    breaker: [0, 1, 2],
                },
                retries: 1,
                backoff_ms: 120,
            },
        ]
    }

    fn meta() -> BatchMeta {
        BatchMeta {
            batch_seed: u64::MAX - 12345, // would shear as a JSON number
            jobs: 4,
            pipeline_fault_rate: 0.2,
        }
    }

    #[test]
    fn manifest_round_trips_bit_exactly() {
        let records = sample_records();
        let ck = encode_manifest(&meta(), &records);
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        let (m, r) = decode_manifest(&back).unwrap();
        assert_eq!(m, meta());
        assert_eq!(r, records);
    }

    #[test]
    fn wrong_kind_and_count_mismatch_are_rejected() {
        let records = sample_records();
        let mut ck = encode_manifest(&meta(), &records);
        ck.kind = "scf".to_string();
        assert!(decode_manifest(&ck).is_err());

        let short = encode_manifest(&meta(), &records[..3]);
        assert!(decode_manifest(&short).is_err(), "3 records, meta says 4");
    }

    #[test]
    fn shuffled_indices_are_rejected() {
        let mut records = sample_records();
        records.swap(0, 2);
        let ck = encode_manifest(&meta(), &records);
        assert!(decode_manifest(&ck).is_err());
    }

    #[test]
    fn config_round_trips_every_shipped_knob() {
        let config = SupervisorConfig {
            max_retries: 0,
            queue_cap: 3,
            shed: ShedPolicy::DropOldest,
            slice_ticks: u64::MAX - 5, // would shear as a JSON number
            slice_wall: Some(Duration::from_millis(1500)),
            max_slices: 7,
            breaker_threshold: 1,
            backoff: BackoffPolicy {
                base_ms: 12,
                factor: 1.5,
                cap_ms: 900,
                jitter: 0.1,
            },
            injection: InjectionPlan {
                rate: 0.3,
                panics: true,
                hangs: false,
                transients: true,
            },
            ..SupervisorConfig::default()
        };
        let back = decode_config(&encode_config(&config)).unwrap();
        assert_eq!(back, config);
        let plain = SupervisorConfig::default();
        assert_eq!(decode_config(&encode_config(&plain)).unwrap(), plain);
        assert!(decode_config("{\"max_retries\":1}").is_err());
        assert!(decode_config("not json").is_err());
    }
}
