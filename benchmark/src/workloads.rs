//! The three deployment workloads: stream, pipeline spec and configuration.
//!
//! Sizes are fixed here and nowhere else. The URL stream is the repo
//! scale's (121 "days", 1200 deployment chunks of 40 rows, Adam) hashed to
//! 2^16 dimensions instead of 2^18 (see `URL_HASH_BITS`).

use std::path::PathBuf;

use cdp_core::deployment::WalConfig;
use cdp_core::presets::url_spec_from;
use cdp_core::{
    taxi_spec, url_spec, CheckpointConfig, DeploymentConfig, DeploymentSpec, ModelServer,
    RecorderConfig, SpecScale, TelemetryConfig,
};
use cdp_datagen::taxi::{TaxiConfig, TaxiGenerator};
use cdp_datagen::url::UrlConfig;
use cdp_datagen::ChunkStream;
use cdp_engine::ExecutionEngine;
use cdp_faults::{CrashSite, FaultPlan};
use cdp_ml::LinearModel;
use cdp_sampling::SamplingStrategy;
use cdp_storage::StorageBudget;

use crate::scratch::Scratch;
use crate::stats::nproc;
use crate::stream::RecordedStream;

/// Hash bits of the full-size URL pipeline: 2^16, not the repo scale's 2^18.
/// A 2^18-dimension vector is 2 MB, the whole of this host's L2 cache, and a
/// proactive fire sweeps forty of them, so at 2^18 the fires run out of the
/// L3 the host shares with its neighbours: measured side by side over ten
/// seeds, the fire chunks' time spread by 13% at 2^18 and by 2% at 2^16.
const URL_HASH_BITS: u32 = 16;
/// Hash bits of `url_spec(SpecScale::Tiny)`.
const URL_TINY_HASH_BITS: u32 = 8;
/// Rows per chunk of the full-size Taxi stream. Peak RSS is about 600 MB;
/// do not raise it.
const TAXI_ROWS_PER_CHUNK: usize = 1000;
/// Feature chunks `taxi_remat` keeps materialized.
const TAXI_BUDGET_CHUNKS: usize = 8;

/// Full size, or the Tiny specs of `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the driver measures.
    Full,
    /// Tiny specs: same code paths and checks in seconds.
    Smoke,
}

/// Which deployment workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// URL stream, everything in memory, every optional subsystem off.
    UrlMem,
    /// Taxi stream with an 8-chunk feature budget: nearly every sampled
    /// chunk is re-materialized.
    TaxiRemat,
    /// The `url_mem` stream with the whole platform on.
    UrlDurable,
}

impl Kind {
    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::UrlMem => "url_mem",
            Kind::TaxiRemat => "taxi_remat",
            Kind::UrlDurable => "url_durable",
        }
    }

    /// The deployment workload called `name`, if there is one.
    pub fn from_name(name: &str) -> Option<Self> {
        [Kind::UrlMem, Kind::TaxiRemat, Kind::UrlDurable]
            .into_iter()
            .find(|kind| kind.name() == name)
    }
}

/// Directories of one durable run.
#[derive(Debug, Clone)]
pub struct RunDirs {
    /// WAL segments.
    pub wal: PathBuf,
    /// Checkpoint files.
    pub checkpoint: PathBuf,
    /// Flight-recorder segments.
    pub recorder: PathBuf,
}

impl RunDirs {
    /// Fresh directories under the scratch root.
    pub fn fresh(scratch: &Scratch) -> Self {
        let root = scratch.fresh("run");
        Self {
            wal: root.join("wal"),
            checkpoint: root.join("checkpoint"),
            recorder: root.join("recorder"),
        }
    }

    /// Removes the run's directories (they share one parent).
    pub fn remove(&self) {
        if let Some(root) = self.wal.parent() {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

/// A deployment workload ready to run.
pub struct DeployWorkload {
    /// Which workload.
    pub kind: Kind,
    /// The pre-generated input.
    pub stream: RecordedStream,
    /// Pipeline and training specification.
    pub spec: DeploymentSpec,
    /// Mode, budget, seed and the sequential engine; no directories.
    pub config: DeploymentConfig,
    /// Chunks between checkpoints (`url_durable`).
    pub checkpoint_every: usize,
    /// 1-based deployment chunk after which the crash run dies.
    pub crash_after: usize,
}

/// Mixes the benchmark seed into a generator's or sampler's base seed.
fn mix(base: u64, seed: u64) -> u64 {
    base ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The threaded engine of the traced pass's engine comparison. Timed runs
/// use `ExecutionEngine::Sequential`: this host's second core comes and goes
/// (two spinning threads take between 1.0 and 2.0 times as long as one), so
/// a run on two threads measures the hypervisor's scheduler.
pub fn threaded_engine() -> ExecutionEngine {
    ExecutionEngine::Threaded {
        workers: nproc().min(2),
    }
}

/// The URL stream and spec of `url_mem`, `url_durable` and `serve_storm`.
pub fn url_stream(seed: u64, scale: Scale) -> (RecordedStream, DeploymentSpec) {
    let (config, bits, spec_scale) = match scale {
        Scale::Full => (UrlConfig::repo_scale(), URL_HASH_BITS, SpecScale::Repo),
        Scale::Smoke => (
            url_spec(SpecScale::Tiny).0.config().clone(),
            URL_TINY_HASH_BITS,
            SpecScale::Tiny,
        ),
    };
    let config = UrlConfig {
        seed: mix(config.seed, seed),
        ..config
    };
    let (generator, spec) = url_spec_from(config, bits, spec_scale);
    (RecordedStream::generate(&generator), spec)
}

fn taxi_stream(seed: u64, scale: Scale) -> (RecordedStream, DeploymentSpec) {
    let (base, spec) = match scale {
        Scale::Full => (
            TaxiConfig {
                rows_per_chunk: TAXI_ROWS_PER_CHUNK,
                ..TaxiConfig::repo_scale()
            },
            taxi_spec(SpecScale::Repo).1,
        ),
        Scale::Smoke => {
            let (generator, spec) = taxi_spec(SpecScale::Tiny);
            (generator.config().clone(), spec)
        }
    };
    let generator = TaxiGenerator::new(TaxiConfig {
        seed: mix(base.seed, seed),
        ..base
    });
    (RecordedStream::generate(&generator), spec)
}

impl DeployWorkload {
    /// Generates the stream and fixes the configuration.
    pub fn build(kind: Kind, seed: u64, scale: Scale) -> Self {
        let (stream, spec) = match kind {
            Kind::UrlMem | Kind::UrlDurable => url_stream(seed, scale),
            Kind::TaxiRemat => taxi_stream(seed, scale),
        };
        let deploy_chunks = stream.deployment_range().len();
        let strategy = match kind {
            Kind::TaxiRemat => SamplingStrategy::Uniform,
            Kind::UrlMem | Kind::UrlDurable => SamplingStrategy::TimeBased,
        };
        let mut config =
            DeploymentConfig::continuous(spec.proactive_every, spec.sample_chunks, strategy);
        config.chunk_period_secs = spec.chunk_period_secs;
        config.seed = mix(config.seed, seed);
        config.engine = ExecutionEngine::Sequential;
        match kind {
            Kind::UrlMem => {}
            Kind::TaxiRemat => {
                config.optimization.budget =
                    StorageBudget::MaxChunks(TAXI_BUDGET_CHUNKS.min(deploy_chunks / 4).max(1));
            }
            Kind::UrlDurable => {
                // m/n ≈ 0.2 of the final history, as in Table 4.
                config.optimization.budget = StorageBudget::MaxChunks((deploy_chunks / 5).max(1));
                config.spill_to_disk = true;
            }
        }
        // Four 6 MB checkpoints per run, not one every 25 chunks: the host's
        // disk throttles after a few GB, and the driver runs this workload
        // 22 times. The crash lands 12 chunks (or half the remaining gap)
        // past the last checkpoint that is not the final chunk.
        let checkpoint_every = (deploy_chunks / 4).max(3);
        let last_checkpoint = (deploy_chunks - 1) / checkpoint_every * checkpoint_every;
        let crash_after = last_checkpoint + 12.min((deploy_chunks - last_checkpoint) / 2);
        Self {
            kind,
            stream,
            spec,
            config,
            checkpoint_every,
            crash_after,
        }
    }

    /// Capacity `m` of the feature cache in chunks, clamped to the history.
    pub fn capacity_chunks(&self) -> usize {
        let total = self.stream.total_chunks();
        match self.config.optimization.budget {
            StorageBudget::MaxChunks(m) => m.min(total),
            _ => total,
        }
    }

    /// `config` as it is, with WAL, checkpoints, telemetry, metrics and
    /// serving off: what every run must reproduce.
    pub fn reference_config(&self) -> DeploymentConfig {
        self.config.clone()
    }

    /// A server for the deployment to publish to (no readers attached).
    pub fn publish_only_server(&self) -> ModelServer {
        let pipeline = self.spec.build_pipeline();
        let model = LinearModel::zeros(pipeline.dim(), self.spec.sgd.loss);
        ModelServer::new(pipeline, model)
    }

    /// The configuration of a timed run: `config`, plus the whole platform
    /// for `url_durable`.
    pub fn run_config(&self, dirs: &RunDirs) -> DeploymentConfig {
        let mut config = self.config.clone();
        if self.kind == Kind::UrlDurable {
            config.collect_metrics = true;
            // Window off: with a 60 s chunk period the default 1 s window
            // would force a commit every second append.
            config.wal = Some(WalConfig::new(&dirs.wal).fsync_every(8).group_window(0.0));
            config.checkpoint = Some(
                CheckpointConfig::new(&dirs.checkpoint)
                    .every(self.checkpoint_every)
                    .keep(2),
            );
            config.telemetry = Some(
                TelemetryConfig::new()
                    .recorder(RecorderConfig::new(&dirs.recorder).flush_every(32)),
            );
            config.serving = Some(self.publish_only_server());
        }
        config
    }

    /// `run_config` on the threaded engine.
    pub fn threaded_config(&self, dirs: &RunDirs) -> DeploymentConfig {
        DeploymentConfig {
            engine: threaded_engine(),
            ..self.run_config(dirs)
        }
    }

    /// `run_config` dying at the chunk boundary after `crash_after`.
    pub fn crash_config(&self, dirs: &RunDirs) -> DeploymentConfig {
        DeploymentConfig {
            faults: FaultPlan {
                crash_site: Some(CrashSite::ChunkBoundary),
                crash_at: self.crash_after as u64 - 1,
                ..FaultPlan::none()
            },
            ..self.run_config(dirs)
        }
    }
}
