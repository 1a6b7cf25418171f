//! The deployment checkpoint payload — every piece of *dynamic* state a
//! running deployment owns — and its binary codec.
//!
//! A checkpoint deliberately captures only what evolves at runtime: model
//! weights and per-coordinate optimizer accumulators, each stateful
//! component's online statistics, the prequential and cost curves, the
//! scheduler-context inputs (Eq. 6), the materialization manifest (chunk
//! *references* only — evicted features re-materialize on demand, §3.4),
//! the sampler's RNG cursor, fault-injection counters, and the metrics
//! snapshot. Static configuration — loss, optimizer kind, regularizer,
//! batch sizes, scheduler, budgets — is *not* stored: resume receives the
//! same [`DeploymentSpec`](crate::presets::DeploymentSpec) and
//! [`DeploymentConfig`](crate::deployment::DeploymentConfig) the original
//! run used, and the checkpoint only makes sense against them.
//!
//! The encoding is big-endian binary through the writer and bounds-checked
//! reader of [`cdp_obs::durable`] (the workspace has no serialization
//! dependency): integers as fixed-width BE, floats as `to_bits` BE
//! (bit-exact round trips, the determinism contract), strings and byte blobs
//! as `u32` length + payload. The
//! [`CheckpointDir`](cdp_storage::checkpoint::CheckpointDir) file layer
//! adds magic/version/CRC framing and atomic-rename durability around this
//! payload; a malformed payload decodes to [`StorageError::Corrupt`], never
//! a panic.

use std::collections::BTreeMap;

use cdp_faults::FaultStats;
use cdp_ml::TrainReport;
use cdp_obs::durable::{
    put_bytes, put_f64, put_f64_vec, put_str, put_u32, put_u64, put_u64_vec, Reader,
};
use cdp_obs::{Event, HistogramSnapshot, LineageEntry, LineageEventKind, MetricsSnapshot};
use cdp_pipeline::PipelineCounters;
use cdp_storage::{StorageError, StoreStats, TieredStats};

/// A point-in-time capture of a deployment's dynamic state, taken at a
/// chunk boundary (after chunk `chunk_idx`'s arrival, evaluation, learning,
/// and any training fired by it were fully processed).
#[derive(Debug, Clone)]
pub struct DeploymentCheckpoint {
    /// Stream index of the last fully processed deployment chunk.
    pub chunk_idx: u64,
    /// Simulated deployment-clock seconds at the boundary.
    pub now_secs: f64,
    /// Model weights (dense).
    pub weights: Vec<f64>,
    /// Optimizer step counter `t`.
    pub opt_t: u64,
    /// First per-coordinate optimizer accumulator.
    pub opt_acc1: Vec<f64>,
    /// Second per-coordinate optimizer accumulator.
    pub opt_acc2: Vec<f64>,
    /// Training points the trainer has consumed.
    pub points_seen: u64,
    /// Serialized online statistics of every pipeline stage (components
    /// plus the encoder), in pipeline order.
    pub component_states: Vec<Vec<u8>>,
    /// Pipeline work counters (the cost-accounting base).
    pub pipeline_counters: PipelineCounters,
    /// Prequential examples evaluated.
    pub eval_count: u64,
    /// Prequential raw error accumulator.
    pub eval_acc: f64,
    /// `(examples_seen, cumulative_error)` curve so far.
    pub eval_curve: Vec<(u64, f64)>,
    /// Accounted seconds per cost phase, in `Phase` declaration order.
    pub accounted: [f64; 4],
    /// `(chunk_index, cumulative_accounted_seconds)` curve so far.
    pub cost_curve: Vec<(u64, f64)>,
    /// Chunks since the last training (scheduler input).
    pub chunks_since_training: u64,
    /// Accounted seconds of the last proactive training (Eq. 6's `T`).
    pub last_training_secs: f64,
    /// Deployment-clock seconds when training last fired.
    pub last_training_at_secs: f64,
    /// Proactive-training instances executed so far.
    pub proactive_runs: u64,
    /// Accounted proactive seconds summed so far.
    pub proactive_secs_sum: f64,
    /// Full retrainings executed so far (periodical mode).
    pub retrain_runs: u64,
    /// Drift level fed to the drift-adaptive scheduler (0/1/2).
    pub drift_level: u8,
    /// Drift monitor baseline window, oldest first.
    pub drift_baseline: Vec<f64>,
    /// Drift monitor recent window, oldest first.
    pub drift_recent: Vec<f64>,
    /// Error accumulator at the previous chunk boundary (per-chunk-error
    /// delta base for the drift monitor).
    pub prev_acc: f64,
    /// Example count at the previous chunk boundary.
    pub prev_count: u64,
    /// The sampler's raw RNG state, so resumed sampling draws the same
    /// future sequence.
    pub sampler_rng: u64,
    /// Fault-injection and recovery counters at the boundary.
    pub fault_stats: FaultStats,
    /// The fault injector's worker-reseed epoch.
    pub fault_epoch: u64,
    /// Chunk-store behaviour counters.
    pub store_stats: StoreStats,
    /// Storage-tier counters (spills, disk hits, fallbacks).
    pub tiered_stats: TieredStats,
    /// Timestamps of the feature chunks materialized in memory at the
    /// boundary, oldest first — references only, never feature bytes.
    pub manifest: Vec<u64>,
    /// The initial-training report (carried into the final result).
    pub initial_report: TrainReport,
    /// Checkpoint writes completed *before* this one.
    pub ckpt_writes: u64,
    /// Bytes written by those checkpoints.
    pub ckpt_bytes: u64,
    /// Checkpoint restores performed by the run that wrote this.
    pub ckpt_restores: u64,
    /// Full metrics snapshot at the boundary (taken before this write's
    /// own `checkpoint.*` accounting, so it is causally consistent with
    /// the state above).
    pub metrics: MetricsSnapshot,
}

impl DeploymentCheckpoint {
    /// Serializes the checkpoint payload under the current schema.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4096);
        put_u64(&mut out, self.chunk_idx);
        put_f64(&mut out, self.now_secs);
        put_f64_vec(&mut out, &self.weights);
        put_u64(&mut out, self.opt_t);
        put_f64_vec(&mut out, &self.opt_acc1);
        put_f64_vec(&mut out, &self.opt_acc2);
        put_u64(&mut out, self.points_seen);
        put_u32(&mut out, self.component_states.len() as u32);
        for state in &self.component_states {
            put_bytes(&mut out, state);
        }
        put_u64(&mut out, self.pipeline_counters.parsed_records);
        put_u64(&mut out, self.pipeline_counters.update_rows);
        put_u64(&mut out, self.pipeline_counters.transform_rows);
        put_u64(&mut out, self.pipeline_counters.encoded_points);
        put_u64(&mut out, self.eval_count);
        put_f64(&mut out, self.eval_acc);
        put_curve(&mut out, &self.eval_curve);
        for secs in self.accounted {
            put_f64(&mut out, secs);
        }
        put_curve(&mut out, &self.cost_curve);
        put_u64(&mut out, self.chunks_since_training);
        put_f64(&mut out, self.last_training_secs);
        put_f64(&mut out, self.last_training_at_secs);
        put_u64(&mut out, self.proactive_runs);
        put_f64(&mut out, self.proactive_secs_sum);
        put_u64(&mut out, self.retrain_runs);
        out.push(self.drift_level);
        put_f64_vec(&mut out, &self.drift_baseline);
        put_f64_vec(&mut out, &self.drift_recent);
        put_f64(&mut out, self.prev_acc);
        put_u64(&mut out, self.prev_count);
        put_u64(&mut out, self.sampler_rng);
        for v in fault_stats_fields(&self.fault_stats) {
            put_u64(&mut out, v);
        }
        put_u64(&mut out, self.fault_epoch);
        for v in store_stats_fields(&self.store_stats) {
            put_u64(&mut out, v);
        }
        for v in tiered_stats_fields(&self.tiered_stats) {
            put_u64(&mut out, v);
        }
        put_u64_vec(&mut out, &self.manifest);
        put_u64(&mut out, self.initial_report.epochs as u64);
        put_u64(&mut out, self.initial_report.steps);
        put_f64(&mut out, self.initial_report.initial_loss);
        put_f64(&mut out, self.initial_report.final_loss);
        out.push(u8::from(self.initial_report.converged));
        put_u64(&mut out, self.ckpt_writes);
        put_u64(&mut out, self.ckpt_bytes);
        put_u64(&mut out, self.ckpt_restores);
        encode_metrics(&mut out, &self.metrics);
        out
    }

    /// Decodes a checkpoint payload read from a file of schema `version`,
    /// as [`cdp_storage::CheckpointDir::latest_valid_versioned`] reports it.
    ///
    /// # Errors
    /// [`StorageError::VersionMismatch`] for any schema but the current one
    /// (there is one payload layout); otherwise as
    /// [`DeploymentCheckpoint::decode`].
    pub fn decode_versioned(version: u16, bytes: &[u8]) -> Result<Self, StorageError> {
        let expected = cdp_storage::CHECKPOINT_SCHEMA.0;
        if version != expected {
            return Err(StorageError::VersionMismatch {
                found: version,
                expected,
            });
        }
        Self::decode(bytes)
    }

    /// Decodes a checkpoint payload written by this build (the current
    /// schema).
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] on any truncated, malformed, or
    /// trailing-garbage input — never a panic.
    pub fn decode(bytes: &[u8]) -> Result<Self, StorageError> {
        let mut r = Reader::new(bytes);
        let checkpoint = Self {
            chunk_idx: r.u64()?,
            now_secs: r.f64()?,
            weights: r.f64_vec()?,
            opt_t: r.u64()?,
            opt_acc1: r.f64_vec()?,
            opt_acc2: r.f64_vec()?,
            points_seen: r.u64()?,
            component_states: (0..r.count()?)
                .map(|_| r.bytes().map(<[u8]>::to_vec))
                .collect::<Result<_, _>>()?,
            pipeline_counters: PipelineCounters {
                parsed_records: r.u64()?,
                update_rows: r.u64()?,
                transform_rows: r.u64()?,
                encoded_points: r.u64()?,
            },
            eval_count: r.u64()?,
            eval_acc: r.f64()?,
            eval_curve: curve(&mut r)?,
            accounted: [r.f64()?, r.f64()?, r.f64()?, r.f64()?],
            cost_curve: curve(&mut r)?,
            chunks_since_training: r.u64()?,
            last_training_secs: r.f64()?,
            last_training_at_secs: r.f64()?,
            proactive_runs: r.u64()?,
            proactive_secs_sum: r.f64()?,
            retrain_runs: r.u64()?,
            drift_level: r.u8()?,
            drift_baseline: r.f64_vec()?,
            drift_recent: r.f64_vec()?,
            prev_acc: r.f64()?,
            prev_count: r.u64()?,
            sampler_rng: r.u64()?,
            fault_stats: FaultStats {
                injected_disk_read: r.u64()?,
                injected_disk_write: r.u64()?,
                injected_corruption: r.u64()?,
                injected_worker_panics: r.u64()?,
                injected_delays: r.u64()?,
                injected_crashes: r.u64()?,
                retries: r.u64()?,
                recovered: r.u64()?,
                fallback_rematerializations: r.u64()?,
                lost_spills: r.u64()?,
                fatal: r.u64()?,
            },
            fault_epoch: r.u64()?,
            store_stats: StoreStats {
                raw_puts: r.u64()?,
                feature_puts: r.u64()?,
                evictions: r.u64()?,
                bytes_evicted: r.u64()?,
                feature_hits: r.u64()?,
                feature_misses: r.u64()?,
                unavailable: r.u64()?,
                compactions: r.u64()?,
                gc_runs: r.u64()?,
            },
            tiered_stats: TieredStats {
                memory_hits: r.u64()?,
                disk_hits: r.u64()?,
                recomputes: r.u64()?,
                spills: r.u64()?,
                read_fallbacks: r.u64()?,
                lost_spills: r.u64()?,
            },
            manifest: r.u64_vec()?,
            initial_report: TrainReport {
                epochs: r.u64()? as usize,
                steps: r.u64()?,
                initial_loss: r.f64()?,
                final_loss: r.f64()?,
                converged: r.u8()? != 0,
            },
            ckpt_writes: r.u64()?,
            ckpt_bytes: r.u64()?,
            ckpt_restores: r.u64()?,
            metrics: decode_metrics(&mut r)?,
        };
        r.finish()?;
        Ok(checkpoint)
    }
}

fn fault_stats_fields(s: &FaultStats) -> [u64; 11] {
    [
        s.injected_disk_read,
        s.injected_disk_write,
        s.injected_corruption,
        s.injected_worker_panics,
        s.injected_delays,
        s.injected_crashes,
        s.retries,
        s.recovered,
        s.fallback_rematerializations,
        s.lost_spills,
        s.fatal,
    ]
}

fn store_stats_fields(s: &StoreStats) -> [u64; 9] {
    [
        s.raw_puts,
        s.feature_puts,
        s.evictions,
        s.bytes_evicted,
        s.feature_hits,
        s.feature_misses,
        s.unavailable,
        s.compactions,
        s.gc_runs,
    ]
}

fn tiered_stats_fields(s: &TieredStats) -> [u64; 6] {
    [
        s.memory_hits,
        s.disk_hits,
        s.recomputes,
        s.spills,
        s.read_fallbacks,
        s.lost_spills,
    ]
}

// ---- MetricsSnapshot codec ----

fn encode_metrics(out: &mut Vec<u8>, snap: &MetricsSnapshot) {
    put_u32(out, snap.counters.len() as u32);
    for (name, value) in &snap.counters {
        put_str(out, name);
        put_u64(out, *value);
    }
    put_u32(out, snap.gauges.len() as u32);
    for (name, value) in &snap.gauges {
        put_str(out, name);
        put_f64(out, *value);
    }
    put_u32(out, snap.histograms.len() as u32);
    for (name, h) in &snap.histograms {
        put_str(out, name);
        put_f64_vec(out, &h.bounds);
        put_u64_vec(out, &h.buckets);
        put_u64(out, h.count);
        put_f64(out, h.sum);
        put_f64(out, h.min);
        put_f64(out, h.max);
        put_u64(out, h.dropped);
    }
    put_u32(out, snap.events.len() as u32);
    for event in &snap.events {
        put_f64(out, event.at_secs);
        put_str(out, &event.name);
        put_str(out, &event.detail);
    }
    put_u64(out, snap.dropped_events);
    put_u32(out, snap.lineage.len() as u32);
    for (chunk_ts, entries) in &snap.lineage {
        put_u64(out, *chunk_ts);
        put_u32(out, entries.len() as u32);
        for entry in entries {
            put_f64(out, entry.at_secs);
            out.push(kind_to_u8(entry.kind));
        }
    }
    put_u64(out, snap.dropped_lineage);
}

fn decode_metrics(r: &mut Reader<'_>) -> Result<MetricsSnapshot, StorageError> {
    let mut counters = BTreeMap::new();
    for _ in 0..r.count()? {
        let name = r.string()?;
        counters.insert(name, r.u64()?);
    }
    let mut gauges = BTreeMap::new();
    for _ in 0..r.count()? {
        let name = r.string()?;
        gauges.insert(name, r.f64()?);
    }
    let mut histograms = BTreeMap::new();
    for _ in 0..r.count()? {
        let name = r.string()?;
        let h = HistogramSnapshot {
            bounds: r.f64_vec()?,
            buckets: r.u64_vec()?,
            count: r.u64()?,
            sum: r.f64()?,
            min: r.f64()?,
            max: r.f64()?,
            dropped: r.u64()?,
        };
        histograms.insert(name, h);
    }
    let mut events = Vec::new();
    for _ in 0..r.count()? {
        events.push(Event {
            at_secs: r.f64()?,
            name: r.string()?,
            detail: r.string()?,
        });
    }
    let dropped_events = r.u64()?;
    let mut lineage = BTreeMap::new();
    for _ in 0..r.count()? {
        let chunk_ts = r.u64()?;
        let mut entries = Vec::new();
        for _ in 0..r.count()? {
            entries.push(LineageEntry {
                at_secs: r.f64()?,
                kind: kind_from_u8(r.u8()?)?,
            });
        }
        lineage.insert(chunk_ts, entries);
    }
    let dropped_lineage = r.u64()?;
    Ok(MetricsSnapshot {
        counters,
        gauges,
        histograms,
        events,
        dropped_events,
        lineage,
        dropped_lineage,
    })
}

fn kind_to_u8(kind: LineageEventKind) -> u8 {
    match kind {
        LineageEventKind::Arrival => 0,
        LineageEventKind::Transform => 1,
        LineageEventKind::Materialize => 2,
        LineageEventKind::Evict => 3,
        LineageEventKind::Spill => 4,
        LineageEventKind::LostSpill => 5,
        LineageEventKind::SpillRead => 6,
        LineageEventKind::Rematerialize => 7,
        LineageEventKind::SpillReadFallback => 8,
        LineageEventKind::SampledForTraining => 9,
    }
}

fn kind_from_u8(v: u8) -> Result<LineageEventKind, StorageError> {
    Ok(match v {
        0 => LineageEventKind::Arrival,
        1 => LineageEventKind::Transform,
        2 => LineageEventKind::Materialize,
        3 => LineageEventKind::Evict,
        4 => LineageEventKind::Spill,
        5 => LineageEventKind::LostSpill,
        6 => LineageEventKind::SpillRead,
        7 => LineageEventKind::Rematerialize,
        8 => LineageEventKind::SpillReadFallback,
        9 => LineageEventKind::SampledForTraining,
        other => {
            return Err(StorageError::Corrupt(format!(
                "unknown lineage event kind {other}"
            )))
        }
    })
}

fn put_curve(out: &mut Vec<u8>, curve: &[(u64, f64)]) {
    put_u32(out, curve.len() as u32);
    for (x, y) in curve {
        put_u64(out, *x);
        put_f64(out, *y);
    }
}

fn curve(r: &mut Reader<'_>) -> Result<Vec<(u64, f64)>, StorageError> {
    let mut out = Vec::new();
    for _ in 0..r.count()? {
        out.push((r.u64()?, r.f64()?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> DeploymentCheckpoint {
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("deployment.chunks".into(), 12);
        metrics.gauges.insert("drift.level".into(), 1.0);
        metrics.histograms.insert(
            "proactive.accounted_secs".into(),
            HistogramSnapshot {
                bounds: vec![0.1, 1.0],
                buckets: vec![3, 1, 0],
                count: 4,
                sum: 0.9,
                min: 0.05,
                max: 0.6,
                dropped: 0,
            },
        );
        metrics.events.push(Event {
            at_secs: 120.0,
            name: "drift.level_change".into(),
            detail: "chunk 7: 0 -> 1".into(),
        });
        metrics.dropped_events = 2;
        metrics.lineage.insert(
            5,
            vec![
                LineageEntry {
                    at_secs: 60.0,
                    kind: LineageEventKind::Arrival,
                },
                LineageEntry {
                    at_secs: 61.0,
                    kind: LineageEventKind::Materialize,
                },
            ],
        );
        metrics.dropped_lineage = 1;
        DeploymentCheckpoint {
            chunk_idx: 17,
            now_secs: 1020.0,
            weights: vec![0.25, -1.5, std::f64::consts::PI],
            opt_t: 42,
            opt_acc1: vec![0.1, 0.2, 0.3],
            opt_acc2: vec![0.0; 3],
            points_seen: 999,
            component_states: vec![vec![], vec![1, 2, 3], vec![0xff; 9]],
            pipeline_counters: PipelineCounters {
                parsed_records: 1,
                update_rows: 2,
                transform_rows: 3,
                encoded_points: 4,
            },
            eval_count: 1200,
            eval_acc: 88.5,
            eval_curve: vec![(100, 0.4), (200, 0.35)],
            accounted: [1.0, 2.0, 3.0, 4.0],
            cost_curve: vec![(10, 1.5), (11, 2.5)],
            chunks_since_training: 3,
            last_training_secs: 0.7,
            last_training_at_secs: 600.0,
            proactive_runs: 5,
            proactive_secs_sum: 3.5,
            retrain_runs: 0,
            drift_level: 1,
            drift_baseline: vec![0.1, 0.2],
            drift_recent: vec![0.3],
            prev_acc: 88.0,
            prev_count: 1100,
            sampler_rng: 0xDEAD_BEEF_CAFE_F00D,
            fault_stats: FaultStats {
                injected_disk_read: 1,
                injected_disk_write: 2,
                injected_corruption: 3,
                injected_worker_panics: 4,
                injected_delays: 5,
                injected_crashes: 6,
                retries: 7,
                recovered: 8,
                fallback_rematerializations: 9,
                lost_spills: 10,
                fatal: 11,
            },
            fault_epoch: 2,
            store_stats: StoreStats {
                raw_puts: 20,
                feature_puts: 19,
                evictions: 4,
                bytes_evicted: 4096,
                feature_hits: 7,
                feature_misses: 2,
                unavailable: 0,
                compactions: 3,
                gc_runs: 2,
            },
            tiered_stats: TieredStats {
                memory_hits: 7,
                disk_hits: 1,
                recomputes: 1,
                spills: 4,
                read_fallbacks: 0,
                lost_spills: 0,
            },
            manifest: vec![13, 14, 15, 16, 17],
            initial_report: TrainReport {
                epochs: 3,
                steps: 120,
                initial_loss: 0.9,
                final_loss: 0.2,
                converged: true,
            },
            ckpt_writes: 2,
            ckpt_bytes: 8192,
            ckpt_restores: 1,
            metrics,
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let original = sample_checkpoint();
        let encoded = original.encode();
        let decoded = match DeploymentCheckpoint::decode(&encoded) {
            Ok(c) => c,
            Err(e) => panic!("decode failed: {e}"),
        };
        // Bit-exactness via re-encoding: every field participates in the
        // byte stream, so byte equality is field equality (including f64
        // bit patterns).
        assert_eq!(decoded.encode(), encoded);
        assert_eq!(decoded.chunk_idx, 17);
        assert_eq!(decoded.weights[2].to_bits(), std::f64::consts::PI.to_bits());
        assert_eq!(decoded.component_states.len(), 3);
        assert_eq!(decoded.metrics.counter("deployment.chunks"), 12);
        assert_eq!(decoded.metrics.lineage[&5].len(), 2);
        assert_eq!(decoded.initial_report.epochs, 3);
        assert!(decoded.initial_report.converged);
    }

    #[test]
    fn any_other_schema_version_is_a_typed_mismatch() {
        let encoded = sample_checkpoint().encode();
        let current = cdp_storage::CHECKPOINT_SCHEMA.0;
        assert!(DeploymentCheckpoint::decode_versioned(current, &encoded).is_ok());
        for version in [1, current + 1] {
            assert!(matches!(
                DeploymentCheckpoint::decode_versioned(version, &encoded),
                Err(StorageError::VersionMismatch { found, expected })
                    if found == version && expected == current
            ));
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let encoded = sample_checkpoint().encode();
        // Check a sample of prefixes (every 7th) — exhaustive is slow.
        for len in (0..encoded.len()).step_by(7) {
            match DeploymentCheckpoint::decode(&encoded[..len]) {
                Err(StorageError::Corrupt(_)) => {}
                Ok(_) => panic!("prefix of {len} bytes decoded successfully"),
                Err(other) => panic!("prefix of {len} bytes: wrong error {other}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut encoded = sample_checkpoint().encode();
        encoded.push(0);
        assert!(matches!(
            DeploymentCheckpoint::decode(&encoded),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn unknown_lineage_kind_is_corrupt_not_panic() {
        assert!(kind_from_u8(9).is_ok());
        assert!(matches!(kind_from_u8(10), Err(StorageError::Corrupt(_))));
        // Kind codec is a bijection over all ten variants.
        for v in 0..10u8 {
            let kind = kind_from_u8(v).expect("known kind");
            assert_eq!(kind_to_u8(kind), v);
        }
    }

    #[test]
    fn hostile_length_field_errors_without_allocating() {
        // A payload claiming 4 billion weights must fail on truncation,
        // not attempt the allocation.
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 0); // chunk_idx
        put_f64(&mut bytes, 0.0); // now_secs
        put_u32(&mut bytes, u32::MAX); // weights length
        assert!(matches!(
            DeploymentCheckpoint::decode(&bytes),
            Err(StorageError::Corrupt(_))
        ));
    }
}
