//! Experiment execution: native mode and cluster-sim mode.
//!
//! **Native mode** ([`run_native`]) is the real thing at laptop scale: data
//! is generated per step, partitioned across ranks, moved through the
//! chosen coupling over the real transport, rendered with the real
//! renderers, and depth-composited to rank 0, which keeps (and optionally
//! writes) the final images. Every phase is wall-clock timed and all
//! traffic is counted.
//!
//! **Cluster-sim mode** ([`run_cluster`]) executes the same design point on
//! the calibrated Hikari model at paper scale, producing the execution
//! time / power / energy numbers the tables and figures report.
//!
//! Native mode has one executor. The couplings differ in one thing only:
//! where a visualization rank gets each step's block. A `Plan`, built once
//! from the spec, resolves that `Link` and everything else the run
//! branches on:
//! * [`Coupling::Tight`] — R ranks; each reads its block from the staged
//!   store on its own call stack, and there is no wire.
//! * [`Coupling::Intercore`] — 2R ranks on one fabric: sim rank `r` sends
//!   each step's block to its paired viz rank `R + r` (the same-node
//!   process boundary); the sim ranks also join the composite gathers.
//! * [`Coupling::Internode`] — R sim threads and V viz threads in separate
//!   "applications": sim ranks publish to the layout file, open their
//!   sockets and wait; viz ranks poll the file and connect (the paper's
//!   Section III-C bootstrap), then viz rank `v` drains every sim rank
//!   `s` with `s % V == v` over TCP.
//!
//! Every simulation rank runs `sim_loop` and every visualization rank
//! `viz_loop`; one [`eth_transport::launch`] starts them all and applies
//! the fault plan's budget and, under a
//! [`RecoveryPolicy`](crate::config::RecoveryPolicy), heartbeat
//! supervision. Ownership of partitions follows Megaphone's migration
//! model: a plain run's ownership map never changes, a
//! [`crate::config::MigrationPlan`] changes it on a schedule, and adoption
//! keeps a dead rank's partition rendering from the shared staged store.
//! Each viz step drains the rank's wires (owner or not), adopts on a
//! confirmed death, runs the step's migration handshakes, renders the
//! partitions the rank owns and composites at the root, which marks the
//! step for the critical-path walk. Composite payloads are the rank's raw
//! framebuffer while ownership is static, and framed `(partition,
//! framebuffer)` entries under a migration plan.

use crate::config::{Coupling, ExperimentSpec, Handoff};
use crate::error::{CoreError, Result};
use crate::pipeline::{accumulate, VizPipeline};
use bytes::Bytes;
use eth_cluster::costmodel::{AlgorithmClass, Calibration, CostModel, Workload};
use eth_cluster::counters::CounterSet;
use eth_cluster::coupling::{build_schedule, CouplingStrategy};
use eth_cluster::machine::ClusterMachine;
use eth_cluster::metrics::RunMetrics;
use eth_cluster::node::ClusterSpec;
use eth_cluster::power::{self, BusyInterval};
use eth_cluster::task::NodeGroup;
use eth_data::partition::{partition_grid_slabs, partition_points};
use eth_data::staging;
use eth_data::{Aabb, DataObject};
use eth_render::composite::{composite_direct, composite_owned};
use eth_render::framebuffer::Framebuffer;
use eth_render::pipeline::RenderStats;
use eth_render::Image;
use eth_transport::chaos::{ChaosChannel, ChaosComm};
use eth_transport::collectives::{
    gather, gather_surviving, recv_adopt_notice, recv_migrate_ack, recv_migrate_offer,
    send_adopt_notice, send_migrate_ack, send_migrate_offer, AdoptNotice, MigrateAck, MigrateOffer,
};
use eth_transport::comm::{Communicator, TransportError};
use eth_transport::layout::LayoutFile;
use eth_transport::local::LocalFabric;
use eth_transport::message::{decode_dataset_from, encode_dataset};
use eth_transport::runner::{launch, Liveness, MigrationBook, RankBody};
use eth_transport::socket::{connect_to, listen_as};
use eth_transport::{HeartbeatBoard, HeartbeatPolicy};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Wall time spent in each phase, summed over steps, max'd over ranks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTimes {
    pub sim_s: f64,
    pub transfer_s: f64,
    pub viz_s: f64,
    pub composite_s: f64,
}

impl PhaseTimes {
    fn max_with(&mut self, other: &PhaseTimes) {
        self.sim_s = self.sim_s.max(other.sim_s);
        self.transfer_s = self.transfer_s.max(other.transfer_s);
        self.viz_s = self.viz_s.max(other.viz_s);
        self.composite_s = self.composite_s.max(other.composite_s);
    }
}

/// Faults absorbed by a fault-tolerant run, summed over ranks. With no
/// fault plan this is always all-zero; with one, it is the run's
/// degradation record (deterministic for a given plan seed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Degradation {
    /// Steps a visualization rank completed with *no* fresh data (it
    /// rendered nothing and joined the composite with empty frames).
    pub dropped_steps: u64,
    /// Steps completed with partial data (some, not all, blocks arrived).
    pub degraded_steps: u64,
    /// Receives that hit their deadline.
    pub timeouts: u64,
    /// Uses of a link that was (or became) dead.
    pub disconnects: u64,
    /// Payloads that failed integrity or decode checks.
    pub corrupt_payloads: u64,
    /// Ranks that stopped beating and were declared dead mid-run (only
    /// possible under a [`crate::config::RecoveryPolicy`]).
    #[serde(default)]
    pub rank_losses: u64,
    /// Dead ranks' partitions taken over by a surviving rank from the last
    /// step checkpoint.
    #[serde(default)]
    pub adopted_partitions: u64,
    /// Per-frame contributor holes composited around (frames produced
    /// between a rank's death and its partition's adoption, plus frames a
    /// live rank failed to deliver in time).
    #[serde(default)]
    pub missing_contributions: u64,
    /// Planned partition handoffs that committed: the target acked, took
    /// ownership, and rendered from that step on (only possible under a
    /// [`crate::config::MigrationPlan`]).
    #[serde(default)]
    pub migrations: u64,
    /// Planned handoffs that degraded to "no migration happened": the
    /// offer was aborted (source partition's rank died first), refused,
    /// or timed out — the source kept rendering, no frame was lost.
    #[serde(default)]
    pub migration_failures: u64,
}

impl Degradation {
    pub fn is_clean(&self) -> bool {
        *self == Degradation::default()
    }

    /// Transport faults observed (not derived step counts).
    fn faults(&self) -> u64 {
        self.timeouts + self.disconnects + self.corrupt_payloads
    }

    fn absorb(&mut self, other: &Degradation) {
        self.dropped_steps += other.dropped_steps;
        self.degraded_steps += other.degraded_steps;
        self.timeouts += other.timeouts;
        self.disconnects += other.disconnects;
        self.corrupt_payloads += other.corrupt_payloads;
        self.rank_losses += other.rank_losses;
        self.adopted_partitions += other.adopted_partitions;
        self.missing_contributions += other.missing_contributions;
        self.migrations += other.migrations;
        self.migration_failures += other.migration_failures;
    }

    /// Classify one transport fault into the matching counter.
    fn count(&mut self, err: &TransportError) {
        match err {
            TransportError::Timeout { .. } => self.timeouts += 1,
            // integrity failures detected by the codec (checksum trailer)
            // and payloads too mangled to frame at all
            TransportError::Corrupt { .. } | TransportError::Decode(_) => {
                self.corrupt_payloads += 1
            }
            // disconnects, IO errors on a dying socket, everything else
            // that severs a link
            _ => self.disconnects += 1,
        }
    }
}

/// Result of one native-mode run.
#[derive(Debug, Clone)]
pub struct NativeOutcome {
    pub spec: ExperimentSpec,
    /// End-to-end wall time.
    pub wall_s: f64,
    pub phases: PhaseTimes,
    /// Final composited images, step-major (`steps × images_per_step`).
    pub images: Vec<Image>,
    /// Render statistics summed over ranks and steps.
    pub stats: RenderStats,
    /// Bytes moved through the transport layer (all ranks).
    pub bytes_moved: u64,
    /// Faults absorbed (all-zero unless the spec carries a fault plan).
    pub degradation: Degradation,
    /// Per-loss recovery latency: seconds from a dead rank's last
    /// heartbeat to its partition's adoption (empty for clean runs or
    /// runs without a [`crate::config::RecoveryPolicy`]). Feeds the campaign telemetry's
    /// `recovery_latency_s` histogram.
    pub recovery_latency_s: Vec<f64>,
    /// Per-handoff step-latency disruption: seconds the source rank spent
    /// stalled in the three-phase handshake (offer → state transfer →
    /// ack), one sample per attempted handoff. Empty without a
    /// [`crate::config::MigrationPlan`]. Feeds the campaign telemetry's
    /// `migration_disruption_s` histogram (p50/p95 per pattern).
    pub migration_disruption_s: Vec<f64>,
    /// Power/energy of this run on the modeled cluster, driven by the
    /// recorded span trace instead of a synthetic phase graph: each span
    /// is a busy interval on its rank's node at the phase's modeled
    /// utilization, integrated through the Apollo-style sampler.
    pub metrics: RunMetrics,
    /// Dynamic-energy breakdown by phase (which phases bought the watts).
    pub phase_energy: Vec<PhaseEnergy>,
    /// Structured counters from the run's trace: per-phase busy seconds /
    /// span counts / bytes, proxy skipped steps, and degradation totals.
    pub counters: CounterSet,
    /// Per-step critical path through the stitched cross-rank trace:
    /// which phases bound each frame's latency, attributed by walking
    /// flow edges backwards from every step boundary (`None` when the
    /// run recorded no spans).
    pub critical_path: Option<eth_obs::CriticalPathSummary>,
}

/// Dynamic energy attributed to one phase of a native run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseEnergy {
    /// Phase name (see [`eth_obs::Phase::name`]).
    pub phase: String,
    /// Spans recorded for the phase.
    pub spans: u64,
    /// Total busy seconds across ranks (spans may overlap in wall time).
    pub busy_s: f64,
    /// Modeled utilization while a span of this phase runs.
    pub utilization: f64,
    /// Dynamic energy above the idle floor, kJ (`busy × util × dynamic`).
    pub energy_kj: f64,
}

impl NativeOutcome {
    /// First image of the run (the usual artifact for quality comparison).
    pub fn first_image(&self) -> Option<&Image> {
        self.images.first()
    }

    /// One-paragraph human-readable summary.
    pub fn report(&self) -> String {
        let mut base = format!(
            "experiment '{}' [{} | {} | {} | {} ranks | ratio {:.2}]: \
             {} images in {:.3}s (sim {:.3}s, transfer {:.3}s, viz {:.3}s, \
             composite {:.3}s), {} fragments, {} bytes moved",
            self.spec.name,
            self.spec.application.default_scalar(),
            self.spec.algorithm.name(),
            self.spec.coupling.name(),
            self.spec.ranks,
            self.spec.sampling_ratio,
            self.images.len(),
            self.wall_s,
            self.phases.sim_s,
            self.phases.transfer_s,
            self.phases.viz_s,
            self.phases.composite_s,
            self.stats.fragments,
            self.bytes_moved,
        );
        if !self.degradation.is_clean() {
            let d = &self.degradation;
            base.push_str(&format!(
                "; degraded: {} steps dropped, {} partial ({} timeouts, \
                 {} disconnects, {} corrupt payloads)",
                d.dropped_steps, d.degraded_steps, d.timeouts, d.disconnects, d.corrupt_payloads
            ));
            if d.rank_losses > 0 {
                base.push_str(&format!(
                    "; recovered: {} rank losses, {} partitions adopted, \
                     {} missing contributions",
                    d.rank_losses, d.adopted_partitions, d.missing_contributions
                ));
                if let Some(worst) = self
                    .recovery_latency_s
                    .iter()
                    .copied()
                    .reduce(f64::max)
                {
                    base.push_str(&format!(" (worst detection-to-adoption {worst:.3}s)"));
                }
            }
            if d.migrations + d.migration_failures > 0 {
                base.push_str(&format!(
                    "; migrated: {} handoffs committed, {} degraded to no-op",
                    d.migrations, d.migration_failures
                ));
                if let Some(worst) = self
                    .migration_disruption_s
                    .iter()
                    .copied()
                    .reduce(f64::max)
                {
                    base.push_str(&format!(" (worst handoff stall {worst:.3}s)"));
                }
            }
        }
        base
    }
}

/// Encode a block for a process boundary, honoring the spec's wire
/// codec ([`ExperimentSpec::wire_codec`]: explicit `wire_compression`,
/// or `Quantize` via the legacy `compress_transport` flag). Compressed
/// sends record raw-vs-compressed byte counters so campaigns can report
/// what the codec actually bought on the wire.
fn encode_block(spec: &ExperimentSpec, block: &DataObject) -> Bytes {
    match spec.wire_codec() {
        Some(codec) => {
            let payload = codec.encode(block);
            eth_obs::count("wire_raw_bytes", eth_data::io::binary::encoded_len(block) as f64);
            eth_obs::count("wire_compressed_bytes", payload.len() as f64);
            payload
        }
        None => encode_dataset(block),
    }
}

/// Inverse of [`encode_block`]. `from` is the sending rank: uncompressed
/// payloads verify their checksum trailer here, so in-flight corruption
/// surfaces as [`TransportError::Corrupt`] attributed to the sender — the
/// codec detects it, the chaos layer's own bookkeeping is not consulted.
fn decode_block(spec: &ExperimentSpec, from: usize, payload: Bytes) -> Result<DataObject> {
    match spec.wire_codec() {
        Some(codec) => Ok(codec.decode(payload)?),
        None => Ok(decode_dataset_from(from, payload)?),
    }
}

/// Per-rank result inside the parallel sections (the default is a dead
/// rank's tombstone: nothing rendered, nothing to report — its
/// partition's story continues in the adopter).
#[derive(Default)]
struct RankOutput {
    images: Vec<Image>,
    stats: RenderStats,
    phases: PhaseTimes,
    bytes_sent: u64,
    degradation: Degradation,
    /// Detection-to-adoption latencies this rank observed (root only).
    recovery_latency_s: Vec<f64>,
    /// Handoff handshake stalls this rank observed (migration sources).
    migration_disruption_s: Vec<f64>,
}

/// Minimal per-rank recovery state, snapshotted after each completed step.
/// On rank death the deterministic successor resumes the partition from
/// here: `proxy_cursor` is the next step the dead rank would have
/// produced, `rng_state` the seed of its data stream, `degradation` the
/// faults it had absorbed so far (so the record survives the death).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepCheckpoint {
    /// The checkpointing rank.
    pub rank: usize,
    /// The partition it owned (== rank for the shipped partitioners).
    pub partition: usize,
    /// Last completed step.
    pub step: usize,
    /// Next step to produce (the simulation proxy's cursor).
    pub proxy_cursor: usize,
    /// Seed of the rank's deterministic data stream.
    pub rng_state: u64,
    /// Faults the rank had absorbed when the snapshot was taken.
    #[serde(default)]
    pub degradation: Degradation,
}

/// Shared checkpoint slots, one per simulation rank, newest-wins. In
/// intercore runs the store lives in process memory; internode runs with
/// an artifact dir additionally spill every snapshot through the
/// crash-safe WAL ([`crate::journal::JournalRecord::Checkpoint`]), the
/// path a real multi-node deployment would need.
pub(crate) struct CheckpointStore {
    slots: Mutex<Vec<Option<StepCheckpoint>>>,
    spill: Option<crate::journal::Journal>,
}

impl CheckpointStore {
    fn new(ranks: usize, spill: Option<crate::journal::Journal>) -> CheckpointStore {
        CheckpointStore {
            slots: Mutex::new(vec![None; ranks]),
            spill,
        }
    }

    fn record(&self, checkpoint: StepCheckpoint) {
        if let Some(journal) = &self.spill {
            // spill failures must not fail the step: the in-memory slot
            // still updates and adoption proceeds from it
            let _ = journal.append(&crate::journal::JournalRecord::Checkpoint {
                checkpoint: checkpoint.clone(),
            });
        }
        let mut slots = self.slots.lock().unwrap();
        let slot = &mut slots[checkpoint.rank];
        match slot {
            Some(existing) if existing.step >= checkpoint.step => {}
            _ => *slot = Some(checkpoint),
        }
    }

    fn latest(&self, rank: usize) -> Option<StepCheckpoint> {
        self.slots.lock().unwrap()[rank].clone()
    }
}

/// Background liveness beacon for one rank: beats the board every half
/// heartbeat interval until silenced (the rank finished — or was killed,
/// which is exactly a beacon going silent). Beating from a helper thread
/// keeps detection latency independent of step duration; a genuinely
/// wedged rank is still caught by the global deadline backstop.
struct Beater {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Beater {
    fn spawn(board: &Arc<HeartbeatBoard>, rank: usize, policy: HeartbeatPolicy) -> Beater {
        let stop = Arc::new(AtomicBool::new(false));
        let board = board.clone();
        let flag = stop.clone();
        let interval = policy.poll_interval();
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                board.beat(rank);
                std::thread::sleep(interval);
            }
        });
        Beater {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop beating *now* (the kill path: the rank must fall silent before
    /// it parks awaiting its own death).
    fn silence(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Beater {
    fn drop(&mut self) {
        self.silence();
    }
}

/// Pre-generated per-step data — block (step, rank) plus global bounds
/// and the global scalar range (so every rank colors through the same
/// transfer function — rank-local ranges would shift colors per block).
///
/// Blocks live in a byte-accounted [`staging::BlockStore`]: with a
/// memory budget on the spec, least-recently-used blocks spill to
/// lossless on-disk chunks and stream back on [`StagedData::block`], so
/// a staged dataset larger than the budget replays with byte-identical
/// images while peak resident bytes stay ≤ the budget.
struct StagedData {
    store: staging::BlockStore,
    ranks: usize,
    bounds: Vec<Aabb>,
    scalar_ranges: Vec<Option<(f32, f32)>>,
}

impl StagedData {
    /// Fetch (a copy of) the block for `(step, rank)`, streaming it back
    /// from its spill chunk when the budget evicted it.
    fn block(&self, step: usize, rank: usize) -> Result<DataObject> {
        Ok(self.store.get(step * self.ranks + rank)?)
    }
}

fn global_scalar_range(obj: &DataObject, name: &str) -> Option<(f32, f32)> {
    let values = match obj {
        DataObject::Points(p) => p.scalar(name).ok()?,
        DataObject::Grid(g) => g.scalar(name).ok()?,
    };
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in values {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    (lo.is_finite() && hi > lo).then_some((lo, hi))
}

fn stage_data(spec: &ExperimentSpec) -> Result<StagedData> {
    let _span = eth_obs::span(eth_obs::Phase::Stage);
    let resources = spec.resources.clone().unwrap_or_default();
    let store = staging::BlockStore::new(
        resources.memory_budget_bytes,
        resources.spill_dir.clone(),
    );
    let alloc_fail_at = spec.fault_plan.as_ref().and_then(|p| p.alloc_fail_at_stage);
    let mut bounds = Vec::with_capacity(spec.steps);
    let mut scalar_ranges = Vec::with_capacity(spec.steps);
    let mut staged_blocks: u64 = 0;
    for step in 0..spec.steps {
        let global = spec.application.generate(step, spec.seed)?;
        bounds.push(global.bounds());
        scalar_ranges.push(global_scalar_range(
            &global,
            spec.application.default_scalar(),
        ));
        let parts: Vec<DataObject> = match &global {
            DataObject::Points(cloud) => partition_points(cloud, spec.ranks)?
                .into_iter()
                .map(DataObject::Points)
                .collect(),
            DataObject::Grid(grid) => partition_grid_slabs(grid, spec.ranks)?
                .into_iter()
                .map(DataObject::Grid)
                .collect(),
        };
        for (rank, part) in parts.into_iter().enumerate() {
            // Seeded allocation-failure injection: exhaustion is a fault
            // like any other — classified, retryable, quarantineable.
            if alloc_fail_at == Some(staged_blocks) {
                return Err(CoreError::OutOfMemory(format!(
                    "staging block {staged_blocks} (step {step}, rank {rank}): \
                     injected alloc_fail_at_stage"
                )));
            }
            store.insert(step * spec.ranks + rank, part)?;
            staged_blocks += 1;
        }
    }
    let stats = store.stats();
    eth_obs::count("staging_resident_bytes", stats.resident_bytes as f64);
    eth_obs::count("staging_peak_resident_bytes", stats.peak_resident_bytes as f64);
    eth_obs::count("spilled_bytes_total", stats.spilled_bytes as f64);
    Ok(StagedData {
        store,
        ranks: spec.ranks,
        bounds,
        scalar_ranges,
    })
}

/// Cache hit/miss counters for a [`RunCaches`] instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    pub staging_hits: u64,
    pub staging_misses: u64,
    pub baseline_hits: u64,
    pub baseline_misses: u64,
}

impl CacheStats {
    /// Fraction of staging lookups served from cache (0 when unused).
    pub fn staging_hit_rate(&self) -> f64 {
        let total = self.staging_hits + self.staging_misses;
        if total == 0 {
            0.0
        } else {
            self.staging_hits as f64 / total as f64
        }
    }
}

/// Staging content key: everything [`stage_data`] depends on. The
/// application's `Debug` form carries its identity *and* size (particle
/// count / grid dims), so two points share staged data exactly when the
/// generator and partitioner would produce identical blocks. The
/// resource policy and injected staging fault are part of the key: the
/// blocks are identical either way (spill is lossless), but the stores'
/// budgets and failure behavior are not interchangeable.
type StageKey = (String, u64, usize, usize, String);

fn stage_key(spec: &ExperimentSpec) -> StageKey {
    (
        format!("{:?}", spec.application),
        spec.seed,
        spec.steps,
        spec.ranks,
        format!(
            "{:?}|{:?}",
            spec.resources,
            spec.fault_plan.as_ref().and_then(|p| p.alloc_fail_at_stage)
        ),
    )
}

/// A memo slot: the per-key mutex serializes the *first* computation so
/// concurrent same-key requesters block on the one staging pass instead of
/// racing to duplicate it. A failed computation leaves the slot empty and
/// the next requester retries.
struct MemoSlot<T>(Mutex<Option<Arc<T>>>);

impl<T> Default for MemoSlot<T> {
    fn default() -> Self {
        MemoSlot(Mutex::new(None))
    }
}

fn memoize<T, K, F>(
    map: &Mutex<HashMap<K, Arc<MemoSlot<T>>>>,
    key: K,
    compute: F,
) -> Result<(Arc<T>, bool)>
where
    K: std::hash::Hash + Eq,
    F: FnOnce() -> Result<T>,
{
    let slot = map.lock().unwrap().entry(key).or_default().clone();
    let mut guard = slot.0.lock().unwrap();
    if let Some(cached) = guard.as_ref() {
        return Ok((cached.clone(), true));
    }
    let fresh = Arc::new(compute()?);
    *guard = Some(fresh.clone());
    Ok((fresh, false))
}

/// Memoization shared across the runs of a campaign (or any repeated
/// native runs):
///
/// * **staging** — [`stage_data`] results, keyed by
///   `(application, seed, steps, ranks)`. Design points that differ only
///   on the algorithm / sampling-ratio / coupling axes share one staging
///   pass; the staged blocks are deterministic in the key, so cached and
///   uncached runs are byte-identical.
/// * **baselines** — full-fidelity (sampling ratio 1.0) reference renders
///   for RMSE comparisons, keyed by everything that shapes the image
///   except the sampling ratio and the coupling (couplings produce
///   identical images; the baseline renders tight, the cheapest). A ratio
///   sweep thus renders its baseline once, not once per ratio point.
///
/// All methods are `&self` and thread-safe; a first-comer computing an
/// entry blocks same-key requesters rather than letting them duplicate
/// the work, so a campaign over n same-data points always does exactly
/// one staging pass (hit rate (n-1)/n).
#[derive(Default)]
pub struct RunCaches {
    staging: Mutex<HashMap<StageKey, Arc<MemoSlot<StagedData>>>>,
    baselines: Mutex<HashMap<String, Arc<MemoSlot<Vec<Image>>>>>,
    stats: Mutex<CacheStats>,
}

impl RunCaches {
    pub fn new() -> RunCaches {
        RunCaches::default()
    }

    /// Counters so far (snapshot).
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock().unwrap()
    }

    fn staged(&self, spec: &ExperimentSpec) -> Result<Arc<StagedData>> {
        // The lookup span covers the memoize call, so a miss (or blocking
        // on a first-comer's staging pass) shows up as lookup latency; the
        // nested Stage span carries the compute itself.
        let lookup = eth_obs::span(eth_obs::Phase::CacheLookup);
        let (data, hit) = memoize(&self.staging, stage_key(spec), || stage_data(spec))?;
        drop(lookup);
        eth_obs::count(
            if hit { "staging_cache_hits" } else { "staging_cache_misses" },
            1.0,
        );
        let mut stats = self.stats.lock().unwrap();
        if hit {
            stats.staging_hits += 1;
        } else {
            stats.staging_misses += 1;
        }
        Ok(data)
    }

    /// The design point's full-fidelity reference images (sampling ratio
    /// 1.0), for RMSE against sampled renders. Memoized; the underlying
    /// render goes through the staging cache too.
    pub fn baseline_images(&self, spec: &ExperimentSpec) -> Result<Arc<Vec<Image>>> {
        let key = format!(
            "{:?}|{:?}|r{}|s{}|i{}|{}x{}|seed{}",
            spec.application,
            spec.algorithm,
            spec.ranks,
            spec.steps,
            spec.images_per_step,
            spec.width,
            spec.height,
            spec.seed
        );
        let lookup = eth_obs::span(eth_obs::Phase::CacheLookup);
        let (images, hit) = memoize(&self.baselines, key, || {
            let base = baseline_spec(spec);
            base.validate()?;
            Ok(run_staged(&base, self.staged(&base)?)?.images)
        })?;
        drop(lookup);
        eth_obs::count(
            if hit { "baseline_cache_hits" } else { "baseline_cache_misses" },
            1.0,
        );
        let mut stats = self.stats.lock().unwrap();
        if hit {
            stats.baseline_hits += 1;
        } else {
            stats.baseline_misses += 1;
        }
        Ok(images)
    }
}

/// The full-fidelity reference configuration for `spec`: sampling ratio
/// 1.0, tight coupling (coupling does not change pixels, tight is the
/// cheapest), no compression, faults, or viz split. RMSE sweeps compare
/// every sampled point against this spec's images; [`RunCaches::
/// baseline_images`] renders it once per `(application, algorithm, ranks,
/// image size, seed)`.
pub fn baseline_spec(spec: &ExperimentSpec) -> ExperimentSpec {
    let mut base = spec.clone();
    base.name = format!("{}-baseline", spec.name);
    base.sampling_ratio = 1.0;
    base.coupling = Coupling::Tight;
    base.compress_transport = false;
    base.wire_compression = None;
    base.viz_ranks = None;
    base.fault_plan = None;
    base.recovery = None;
    base.migration = None;
    base.artifact_dir = None;
    base
}

/// Pipeline configured with the step's global color range.
fn pipeline_for_step(spec: &ExperimentSpec, staged: &StagedData, step: usize) -> VizPipeline {
    let mut options = eth_render::pipeline::RenderOptions {
        scalar: Some(spec.application.default_scalar().to_string()),
        tile: spec.render.and_then(|r| r.tile),
        progressive: spec.render.and_then(|r| r.progressive_stride),
        ..Default::default()
    };
    options.range = staged.scalar_ranges[step];
    VizPipeline::new(spec).with_options(options)
}

fn merge_outputs(spec: &ExperimentSpec, wall_s: f64, outputs: Vec<RankOutput>) -> NativeOutcome {
    let mut images = Vec::new();
    let mut stats = RenderStats::default();
    let mut phases = PhaseTimes::default();
    let mut bytes_moved = 0;
    let mut degradation = Degradation::default();
    let mut recovery_latency_s = Vec::new();
    let mut migration_disruption_s = Vec::new();
    for out in outputs {
        if !out.images.is_empty() {
            images = out.images;
        }
        stats = accumulate(stats, out.stats);
        phases.max_with(&out.phases);
        bytes_moved += out.bytes_sent;
        degradation.absorb(&out.degradation);
        recovery_latency_s.extend(out.recovery_latency_s);
        migration_disruption_s.extend(out.migration_disruption_s);
    }
    NativeOutcome {
        spec: spec.clone(),
        wall_s,
        phases,
        images,
        stats,
        bytes_moved,
        degradation,
        recovery_latency_s,
        migration_disruption_s,
        // filled in by attribute_run once the span trace is drained
        metrics: RunMetrics::default(),
        phase_energy: Vec::new(),
        counters: CounterSet::new(),
        critical_path: None,
    }
}

/// Run an experiment natively (see module docs).
pub fn run_native(spec: &ExperimentSpec) -> Result<NativeOutcome> {
    spec.validate()?;
    run_recorded(spec, |spec| Ok(Arc::new(stage_data(spec)?)))
}

/// [`run_native`], but staging goes through `caches` so repeated runs over
/// the same data (a campaign's algorithm/ratio/coupling axes) share one
/// staging pass. Byte-identical to the uncached path: the staged blocks
/// are a pure function of the cache key.
pub fn run_native_cached(spec: &ExperimentSpec, caches: &RunCaches) -> Result<NativeOutcome> {
    spec.validate()?;
    run_recorded(spec, |spec| caches.staged(spec))
}

/// The post-staging body shared by the cached and uncached entry points.
fn run_staged(spec: &ExperimentSpec, staged: Arc<StagedData>) -> Result<NativeOutcome> {
    run_recorded(spec, move |_| Ok(staged))
}

/// Run one experiment under a per-run flight recorder: stage (or fetch)
/// the data and execute the coupling with the recorder attached, then
/// drain the trace into the outcome's power attribution and counters.
/// The recorder stacks on whatever sinks the caller already attached
/// (e.g. a campaign-level recorder), so both see the same spans.
fn run_recorded<F>(spec: &ExperimentSpec, stage: F) -> Result<NativeOutcome>
where
    F: FnOnce(&ExperimentSpec) -> Result<Arc<StagedData>>,
{
    let recorder = eth_obs::Recorder::new();
    let t0 = Instant::now();
    let t0_ns = eth_obs::now_ns();
    let outputs = {
        let _obs = recorder.attach();
        stage(spec).and_then(|staged| run_coupled(spec, &staged))
    }?;
    let mut outcome = merge_outputs(spec, t0.elapsed().as_secs_f64(), outputs);
    attribute_run(&mut outcome, &recorder.take(), t0_ns);
    Ok(outcome)
}

/// Modeled node utilization while one span of `phase` runs: compute
/// phases saturate a core, the codec streams at ~0.7, wire transfers sit
/// at ~0.3 (DMA-ish), staging (generate + partition) at ~0.5 — the same
/// figures the cost model uses. Waiting phases (queue, backoff, cache
/// lookup, bootstrap) draw only the idle floor and are excluded, which
/// also keeps the busy intervals non-overlapping: a cache-lookup span
/// enclosing a staging pass must not bill the node twice.
fn phase_utilization(phase: eth_obs::Phase) -> Option<f64> {
    use eth_obs::Phase;
    match phase {
        Phase::Sim | Phase::Render | Phase::Composite => Some(1.0),
        Phase::Encode | Phase::Decode => Some(0.7),
        Phase::Send | Phase::Recv => Some(0.3),
        Phase::Stage => Some(0.5),
        Phase::JournalAppend => Some(0.2),
        // recovery spans wrap adoption bookkeeping; the adopted partition's
        // actual compute bills through its nested render/composite spans,
        // so billing the wrapper too would double-charge the node. The
        // render-internal spans (build, tiles, progressive passes) nest
        // inside a Render span for the same reason.
        Phase::CacheLookup
        | Phase::QueueWait
        | Phase::Backoff
        | Phase::Bootstrap
        | Phase::Recovery
        | Phase::BvhBuild
        | Phase::Tile
        | Phase::ProgressivePass => None,
    }
}

/// Nodes the native run models for power: tight runs one rank per node;
/// intercore pairs each sim rank with its viz rank on one node (that is
/// the design point); internode puts the two applications on disjoint
/// allocations.
fn modeled_nodes(spec: &ExperimentSpec) -> u32 {
    let r = spec.ranks.max(1);
    let nodes = match spec.coupling {
        Coupling::Tight | Coupling::Intercore => r,
        Coupling::Internode => r + spec.viz_ranks.unwrap_or(r).max(1),
    };
    nodes as u32
}

/// Fill the outcome's [`RunMetrics`], per-phase energy, and counters from
/// the run's drained span trace. Every compute-class span becomes a
/// [`BusyInterval`] on its rank's node (rank → `rank % nodes`, which maps
/// an intercore viz rank onto its sim pair's node); the cluster model
/// integrates them over the wall-clock makespan with a sampler period
/// scaled to the run (the Apollo chain samples 5 s runs ~20 times).
fn attribute_run(outcome: &mut NativeOutcome, trace: &eth_obs::Trace, t0_ns: u64) {
    let nodes = modeled_nodes(&outcome.spec);
    let cluster = ClusterSpec::hikari(nodes);
    let makespan = outcome.wall_s.max(1e-9);

    let mut intervals = Vec::new();
    for s in trace.spans() {
        let Some(util) = phase_utilization(s.phase) else {
            continue;
        };
        // Rebase onto the run clock and clip to the run window (spans
        // recorded just outside it collapse to zero width and drop out).
        let start = (s.start_ns.saturating_sub(t0_ns) as f64 * 1e-9).min(makespan);
        let end = (s.end_ns().saturating_sub(t0_ns) as f64 * 1e-9).min(makespan);
        if end <= start {
            continue;
        }
        let node = if s.rank == eth_obs::NO_RANK {
            0 // harness-side work (staging) bills the first node
        } else {
            s.rank % nodes
        };
        intervals.push(BusyInterval {
            start,
            end,
            group: NodeGroup::new(node, 1),
            utilization: util,
        });
    }

    let sample_period = (makespan / 20.0).clamp(1e-6, 5.0);
    let profile = power::integrate(&cluster, &intervals, makespan, sample_period);
    outcome.metrics = RunMetrics {
        nodes,
        exec_time_s: makespan,
        avg_power_kw: profile.sampled_avg_power_kw,
        // the paper multiplies reported average power by exec time
        energy_kj: profile.sampled_avg_power_kw * makespan,
        dynamic_power_kw: profile.avg_dynamic_power_kw,
        degraded_steps: outcome.degradation.degraded_steps,
        dropped_steps: outcome.degradation.dropped_steps,
    };

    let mut counters = CounterSet::new();
    for t in trace.phase_totals() {
        if t.spans == 0 {
            continue;
        }
        let name = t.phase.name();
        counters.add(&format!("phase_{name}_busy_s"), t.busy_s);
        counters.add(&format!("phase_{name}_spans"), t.spans as f64);
        if t.bytes > 0 {
            counters.add(&format!("phase_{name}_bytes"), t.bytes as f64);
        }
        if let Some(utilization) = phase_utilization(t.phase) {
            outcome.phase_energy.push(PhaseEnergy {
                phase: name.to_string(),
                spans: t.spans,
                busy_s: t.busy_s,
                utilization,
                energy_kj: t.busy_s * utilization * cluster.node.dynamic_watts / 1000.0,
            });
        }
    }
    for (name, value) in trace.counts() {
        counters.add(name, value);
    }
    // Stitch the cross-rank flows and attribute each step's latency to the
    // phases on its critical path.
    if trace.spans().next().is_some() {
        let merged = eth_obs::MergedTrace::build(trace.clone());
        if !merged.matched.is_empty() {
            counters.add("flow_matched", merged.matched.len() as f64);
        }
        if merged.dangling_out + merged.dangling_in > 0 {
            counters.add(
                "flow_dangling",
                (merged.dangling_out + merged.dangling_in) as f64,
            );
        }
        if let Some(cp) = merged.critical_path {
            for p in &cp.phases {
                counters.add(&format!("critical_path_{}_s", p.phase), p.seconds);
            }
            outcome.critical_path = Some(cp);
        }
    }
    let d = &outcome.degradation;
    if !d.is_clean() {
        counters.add("degradation_dropped_steps", d.dropped_steps as f64);
        counters.add("degradation_degraded_steps", d.degraded_steps as f64);
        counters.add("degradation_timeouts", d.timeouts as f64);
        counters.add("degradation_disconnects", d.disconnects as f64);
        counters.add("degradation_corrupt_payloads", d.corrupt_payloads as f64);
        if d.rank_losses > 0 {
            counters.add("recovery_rank_losses", d.rank_losses as f64);
            counters.add("recovery_adopted_partitions", d.adopted_partitions as f64);
            counters.add(
                "recovery_missing_contributions",
                d.missing_contributions as f64,
            );
        }
        if d.migrations + d.migration_failures > 0 {
            counters.add("recovery_migrations", d.migrations as f64);
            counters.add("recovery_migration_failures", d.migration_failures as f64);
        }
    }
    outcome.counters = counters;
}

/// Wall-clock backstop for a heartbeat-supervised run: the plan's per-rank
/// budget when one is set, else a generous default (heartbeats, not this
/// deadline, are the primary detector).
fn recovery_deadline(spec: &ExperimentSpec) -> Duration {
    spec.fault_plan
        .as_ref()
        .and_then(|p| p.rank_timeout())
        .unwrap_or(Duration::from_secs(120))
}

const DATA_TAG_BASE: u32 = 0x1000;

fn data_tag(step: usize) -> u32 {
    DATA_TAG_BASE + step as u32
}

/// Where a visualization rank gets each step's block: the one thing the
/// couplings differ in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Link {
    /// Tight: from the staged store, on the rank's own call stack.
    Staged,
    /// Intercore: sim rank `s` sends to viz rank `R + s` on one fabric.
    Fabric,
    /// Internode: sim rank `s` streams over a socket to viz rank `s % V`.
    Socket,
}

/// One native run, resolved once from the spec — who simulates, who
/// renders, who drains which wire, who composites and how ownership may
/// move — plus the handles every rank body shares.
struct Plan {
    spec: ExperimentSpec,
    link: Link,
    /// Separate simulation ranks, one per partition (none under tight).
    sims: usize,
    /// Visualization ranks: the most any rescale reaches.
    viz: usize,
    /// Fabric rank of visualization rank 0, the composite root.
    root: usize,
    /// The viz rank owning each partition at step 0. It drains the
    /// partition's wire for the whole run, whoever owns it later.
    initial_owners: Vec<usize>,
    /// Planned ownership changes (empty without a migration plan).
    handoffs: Vec<Handoff>,
    staged: Arc<StagedData>,
    /// Liveness under a [`crate::config::RecoveryPolicy`]: one slot per
    /// fabric rank, or per simulation rank when those sit beside the
    /// fabric (internode).
    board: Option<Arc<HeartbeatBoard>>,
    checkpoints: CheckpointStore,
    book: Arc<MigrationBook>,
}

impl Plan {
    fn new(spec: &ExperimentSpec, staged: &Arc<StagedData>) -> Plan {
        let r = spec.ranks;
        let (link, sims, root) = match spec.coupling {
            Coupling::Tight => (Link::Staged, 0, 0),
            Coupling::Intercore => (Link::Fabric, r, r),
            Coupling::Internode => (Link::Socket, r, 0),
        };
        let viz = spec.max_viz_count();
        let board_size = if link == Link::Socket {
            sims
        } else {
            root + viz
        };
        // Internode checkpoints spill through the journal WAL when the run
        // keeps artifacts, the path a real multi-node deployment needs.
        let spill = spec
            .artifact_dir
            .as_ref()
            .filter(|_| link == Link::Socket && spec.recovery.is_some())
            .and_then(|dir| crate::journal::Journal::open(&dir.join("recovery")).ok());
        let handoffs = spec.migration_handoffs();
        Plan {
            spec: spec.clone(),
            link,
            sims,
            viz,
            root,
            initial_owners: (0..r).map(|p| spec.initial_owner(p)).collect(),
            book: MigrationBook::new(handoffs.len()),
            handoffs,
            staged: staged.clone(),
            board: spec.recovery.map(|_| HeartbeatBoard::new(board_size)),
            checkpoints: CheckpointStore::new(r, spill),
        }
    }

    /// The board, if rank `id` beats on it.
    fn on_board(&self, id: usize) -> Option<&Arc<HeartbeatBoard>> {
        self.board.as_ref().filter(|b| id < b.size())
    }

    fn beater(&self, id: usize) -> Option<Beater> {
        let policy = self.spec.recovery?;
        self.on_board(id)
            .map(|board| Beater::spawn(board, id, policy.heartbeat))
    }

    /// Is partition `p`'s simulation rank confirmed dead?
    fn is_dead(&self, p: usize) -> bool {
        self.board.as_ref().is_some_and(|b| b.is_dead(p))
    }
}

/// The internode layout directory, removed when the run ends however it
/// ends.
struct LayoutDir {
    path: PathBuf,
    file: LayoutFile,
}

impl LayoutDir {
    fn create(spec: &ExperimentSpec) -> Result<LayoutDir> {
        // The counter keeps dirs distinct when a campaign runs same-named
        // internode points concurrently in one process.
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "eth-layout-{}-{:x}-{}",
            spec.name.replace('/', "_"),
            std::process::id(),
            RUNS.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        let file = LayoutFile::create(&path)?;
        Ok(LayoutDir { path, file })
    }
}

impl Drop for LayoutDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Execute the coupling: build the plan, then launch every rank body
/// once. The launch applies the fault plan's `rank_timeout` (under a
/// recovery policy, [`recovery_deadline`]) and, with liveness, supervises
/// heartbeats and enforces `max_rank_losses`.
fn run_coupled(spec: &ExperimentSpec, staged: &Arc<StagedData>) -> Result<Vec<RankOutput>> {
    let plan = Arc::new(Plan::new(spec, staged));
    let layout = match plan.link {
        Link::Socket => Some(LayoutDir::create(spec)?),
        _ => None,
    };
    let mut fabric: Vec<Box<dyn Communicator>> = LocalFabric::new(plan.root + plan.viz)
        .into_iter()
        .map(|comm| -> Box<dyn Communicator> {
            // With a fault plan, a fabric carrying the data path runs behind
            // the chaos wrapper; the plan's tag window keeps the composite
            // collectives fault-free while the data path misbehaves.
            match spec
                .fault_plan
                .clone()
                .filter(|_| plan.link == Link::Fabric)
            {
                Some(faults) => Box::new(ChaosComm::new(comm, faults)),
                None => Box::new(comm),
            }
        })
        .collect();
    let viz_comms = fabric.split_off(plan.root);
    let mut sim_comms = fabric.into_iter();
    let mut bodies = Vec::new();
    // Visualization ranks first: an internode viz rank's bootstrap wait
    // then shows up inside its connect span, not as pre-spawn idle.
    for (v, comm) in viz_comms.into_iter().enumerate() {
        let (plan, layout) = (plan.clone(), layout.as_ref().map(|l| l.file.clone()));
        bodies.push(RankBody::new(plan.sims + v, move || {
            viz_loop(&plan, v, comm.as_ref(), layout.as_ref())
        }));
    }
    for sim in 0..plan.sims {
        let (plan, layout) = (plan.clone(), layout.as_ref().map(|l| l.file.clone()));
        let comm = sim_comms.next();
        bodies.push(RankBody::new(sim, move || {
            sim_loop(&plan, sim, comm, layout.as_ref())
        }));
    }
    let budget = match plan.board {
        Some(_) => Some(recovery_deadline(spec)),
        None => spec.fault_plan.as_ref().and_then(|p| p.rank_timeout()),
    };
    let liveness = plan
        .board
        .clone()
        .zip(spec.recovery)
        .map(|(board, policy)| Liveness {
            board,
            policy: policy.heartbeat,
            max_losses: policy.max_rank_losses as usize,
            book: plan.book.clone(),
            handoffs: plan
                .handoffs
                .iter()
                .enumerate()
                .map(|(i, h)| (i, h.partition))
                .collect(),
        });
    let outputs = launch(bodies, budget, liveness)?;
    Ok(outputs.into_iter().flatten().collect())
}

/// A simulation rank's end of its pair link.
enum SimLink {
    /// Intercore: a peer on the shared fabric; the rank also joins every
    /// composite gather there.
    Fabric(Box<dyn Communicator>),
    /// Internode: a socket to the draining visualization rank.
    Socket(Box<ChaosChannel>),
}

/// The simulation side of every coupling with separate simulation ranks.
/// Each step: park on a scripted kill, fetch and encode the block, send it
/// over the pair link, and — under liveness — checkpoint and report the
/// step. `comm` is the rank's fabric endpoint (intercore); `layout` the
/// file an internode socket bootstraps through.
fn sim_loop(
    plan: &Plan,
    sim: usize,
    comm: Option<Box<dyn Communicator>>,
    layout: Option<&LayoutFile>,
) -> Result<RankOutput> {
    let spec = &plan.spec;
    let faults = spec.fault_plan.clone().unwrap_or_default();
    let link = match comm {
        Some(comm) => SimLink::Fabric(comm),
        // the socket always goes through the chaos wrapper; with no plan
        // it is a passthrough
        None => {
            let layout = layout.expect("socket links bootstrap through a layout file");
            SimLink::Socket(Box::new(ChaosChannel::new(
                listen_as(layout, sim)?,
                faults.clone(),
            )))
        }
    };
    let tolerant = spec.fault_plan.is_some() || plan.board.is_some();
    let mut beater = plan.beater(sim);
    let mut out = RankOutput::default();
    for step in 0..spec.steps {
        if let (Some(beater), Some(board)) = (beater.as_mut(), &plan.board) {
            if faults.kills(sim, step) {
                // The scripted death: stop beating, wait to be declared
                // dead (so detection latency is measured against a real
                // silence), and leave a tombstone. Dropping the link then
                // snaps a socket, so its drainer sees a disconnect.
                beater.silence();
                board.await_death(sim, recovery_deadline(spec));
                return Ok(RankOutput::default());
            }
        }
        let t = Instant::now();
        // `block` stays alive through the send: dropping it first measured
        // ~8 MiB more peak RSS on `hacc-internode-raycast` (EXPERIMENTS.md).
        let block = plan.staged.block(step, sim)?;
        let payload = encode_block(spec, &block);
        out.phases.sim_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let sent = match &link {
            SimLink::Fabric(comm) => comm.send(plan.root + sim, data_tag(step), payload),
            SimLink::Socket(chan) => chan.send(data_tag(step), payload),
        };
        if let Err(e) = sent {
            if !tolerant {
                return Err(e.into());
            }
            // A dead viz link must not kill the simulation: count it and
            // keep stepping. A socket does not come back, so the remaining
            // steps stay local.
            out.degradation.count(&e);
            if let SimLink::Socket(_) = link {
                break;
            }
        }
        out.phases.transfer_s += t.elapsed().as_secs_f64();
        if let SimLink::Fabric(comm) = &link {
            for image in 0..spec.images_per_step {
                composite_round(plan, comm.as_ref(), step, image, Bytes::new())?;
            }
        }
        if let Some(board) = &plan.board {
            plan.checkpoints.record(StepCheckpoint {
                rank: sim,
                partition: sim,
                step,
                proxy_cursor: step + 1,
                rng_state: spec.seed ^ sim as u64,
                degradation: out.degradation,
            });
            board.step_done(sim, step);
        }
    }
    out.bytes_sent = match &link {
        SimLink::Fabric(comm) => comm.traffic().bytes_sent,
        SimLink::Socket(chan) => chan.bytes_sent(),
    };
    Ok(out)
}

/// A visualization rank's end of one wire.
enum Feed {
    Staged,
    Peer,
    Socket(Box<ChaosChannel>),
}

/// What one wire delivered for one step.
enum Intake {
    Block(DataObject),
    /// Nothing arrived; the fault is already counted.
    Lost,
    /// The sending simulation rank is confirmed dead.
    Dead,
}

/// The visualization side of every coupling. Each step: drain every wire
/// this rank holds (owner or not), account and adopt a confirmed death,
/// run the step's migration handshakes, render the partitions it owns in
/// ascending order, and composite at the root, which marks the step.
fn viz_loop(
    plan: &Plan,
    v: usize,
    comm: &dyn Communicator,
    layout: Option<&LayoutFile>,
) -> Result<RankOutput> {
    let spec = &plan.spec;
    let id = plan.sims + v;
    let _beater = plan.beater(id);
    let adopt = spec.recovery.is_some_and(|r| r.adopt);
    let mut feeds = Vec::new();
    for p in (0..spec.ranks).filter(|&p| plan.initial_owners[p] == v) {
        let feed = match plan.link {
            Link::Staged => Feed::Staged,
            Link::Fabric => Feed::Peer,
            Link::Socket => {
                // the viz rank announces its own rank on the pair link, so
                // frames and errors on both ends carry true identities
                let layout = layout.expect("socket links bootstrap through a layout file");
                let chan = connect_to(layout, p, v, Duration::from_secs(30))?;
                Feed::Socket(Box::new(ChaosChannel::new(
                    chan,
                    spec.fault_plan.clone().unwrap_or_default(),
                )))
            }
        };
        feeds.push((p, feed));
    }
    let mut owners = plan.initial_owners.clone();
    let mut adopted = vec![false; spec.ranks];
    let mut notices = Vec::new();
    let mut out = RankOutput::default();
    for step in 0..spec.steps {
        let mut deg = Degradation::default();
        let t = Instant::now();
        let mut blocks: Vec<Option<DataObject>> = vec![None; spec.ranks];
        let mut starved = false;
        for (p, feed) in &feeds {
            match intake(plan, comm, feed, *p, step, &mut deg)? {
                Intake::Block(block) => blocks[*p] = Some(block),
                Intake::Lost => {}
                Intake::Dead => {
                    if !adopted[*p] {
                        adopted[*p] = true;
                        account_loss(plan, comm, *p, owners[*p], step, &mut deg, &mut notices)?;
                    }
                    starved |= !adopt;
                }
            }
        }
        // Faults (or an unadopted death) with nothing delivered drop the
        // step; with partial delivery they degrade it. Either way the rank
        // joins every composite, so one sick link never deadlocks the run.
        if deg.faults() > 0 || starved {
            if blocks.iter().all(Option::is_none) {
                deg.dropped_steps += 1;
            } else {
                deg.degraded_steps += 1;
            }
        }
        match plan.link {
            Link::Staged => out.phases.sim_s += t.elapsed().as_secs_f64(),
            _ => out.phases.transfer_s += t.elapsed().as_secs_f64(),
        }

        // After intake, so a death racing a migration is already on the board.
        migrate_handshakes(
            plan,
            comm,
            &mut owners,
            v,
            step,
            &mut deg,
            &mut out.migration_disruption_s,
        )?;

        let pipeline = pipeline_for_step(spec, &plan.staged, step);
        let t = Instant::now();
        let mut rendered: Vec<(usize, Vec<Framebuffer>)> = Vec::new();
        let mut holes = 0;
        for p in (0..spec.ranks).filter(|&p| owners[p] == v) {
            let block = match blocks[p].take() {
                Some(block) => block,
                // An adopted dead partition, or one migrated in (its wire is
                // drained elsewhere): the shared staged store is
                // byte-identical to the wire block.
                None if plan.is_dead(p) && adopt
                    || !plan.is_dead(p) && plan.initial_owners[p] != v =>
                {
                    plan.staged.block(step, p)?
                }
                // lost on its wire, or dead and not adopted: a hole
                None => {
                    holes += 1;
                    continue;
                }
            };
            let frame = pipeline.execute_step(step, &block, &plan.staged.bounds[step])?;
            out.stats = accumulate(out.stats, frame.stats);
            rendered.push((p, frame.frames));
        }
        if plan.board.is_some() {
            deg.missing_contributions += holes * spec.images_per_step as u64;
        }
        out.phases.viz_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        for (image_index, payload) in contributions(spec, rendered).enumerate() {
            if let Some(parts) = composite_round(plan, comm, step, image_index, payload)? {
                let image = composite_at_root(plan, &parts, &mut deg)?;
                pipeline.write_artifact(step, image_index, &image)?;
                out.images.push(image);
            }
        }
        out.phases.composite_s += t.elapsed().as_secs_f64();
        // The composite root closing a step is the frame boundary the
        // critical-path walk in `eth_obs::merge` attributes backwards from.
        if comm.rank() == plan.root {
            eth_obs::step_mark(step as u64);
        }
        out.degradation.absorb(&deg);
        if let Some(board) = plan.on_board(id) {
            board.step_done(id, step);
        }
    }
    // The root drains the control plane: one adoption notice per dead
    // simulation rank, from the rank draining its wire, carries the
    // measured detection-to-adoption latency; a missing notice falls back
    // to the board's own estimate.
    if let (Some(board), Some(policy)) = (plan.board.as_ref().filter(|_| v == 0), spec.recovery) {
        for death in board.deaths().into_iter().filter(|d| d.rank < plan.sims) {
            let drainer = plan.initial_owners[death.rank];
            let notice = if drainer == v {
                notices.iter().find(|n| n.dead_rank == death.rank).copied()
            } else if policy.adopt {
                let wait = policy.heartbeat.detection_deadline() * 4;
                recv_adopt_notice(comm, plan.root + drainer, death.rank, wait).ok()
            } else {
                None
            };
            out.recovery_latency_s.push(
                notice
                    .map(|n| n.latency_ns as f64 * 1e-9)
                    .unwrap_or_else(|| death.detection_latency().as_secs_f64()),
            );
            eth_obs::count("adopt_notices", 1.0);
        }
    }
    out.bytes_sent = comm.traffic().bytes_sent;
    for (_, feed) in &feeds {
        if let Feed::Socket(chan) = feed {
            out.bytes_sent += chan.bytes_sent();
        }
    }
    Ok(out)
}

/// Take partition `p`'s block for `step` off its wire. Without liveness
/// the receive runs to the fault plan's deadline. With it, a missing block
/// is either a lost message or a death in progress, so the receive runs in
/// slices a bit past the detection deadline, re-checking liveness between
/// slices: a slow-but-alive sender gets the full budget, a confirmed death
/// resolves in O(detection).
fn intake(
    plan: &Plan,
    comm: &dyn Communicator,
    feed: &Feed,
    p: usize,
    step: usize,
    deg: &mut Degradation,
) -> Result<Intake> {
    let spec = &plan.spec;
    let recv = |timeout: Option<Duration>| match (feed, timeout) {
        (Feed::Socket(chan), Some(t)) => chan.recv_timeout(data_tag(step), t),
        (Feed::Socket(chan), None) => chan.recv(data_tag(step)),
        (_, Some(t)) => comm.recv_timeout(p, data_tag(step), t),
        (_, None) => comm.recv(p, data_tag(step)),
    };
    let tolerant = spec.fault_plan.is_some() || plan.board.is_some();
    let received = match (feed, &plan.board, spec.recovery) {
        // "simulation": the proxy presents its block (a copy, as a real
        // proxy's load would be)
        (Feed::Staged, _, _) => return Ok(Intake::Block(plan.staged.block(step, p)?)),
        (_, Some(board), Some(policy)) => {
            let wait = policy.heartbeat.detection_deadline() * 2 + Duration::from_millis(25);
            let budget = spec
                .fault_plan
                .as_ref()
                .and_then(|f| f.deadline())
                .unwrap_or(Duration::from_secs(2))
                .max(wait);
            let deadline = Instant::now() + budget;
            loop {
                if board.is_dead(p) {
                    return Ok(Intake::Dead);
                }
                let now = Instant::now();
                if now >= deadline {
                    deg.timeouts += 1;
                    return Ok(Intake::Lost);
                }
                match recv(Some(wait.min(deadline - now))) {
                    Err(TransportError::Timeout { .. }) => continue,
                    Err(_) if board.is_dead(p) => return Ok(Intake::Dead),
                    received => break received,
                }
            }
        }
        _ => recv(None),
    };
    match received.map(|payload| decode_block(spec, p, payload)) {
        Ok(Ok(block)) => Ok(Intake::Block(block)),
        Ok(Err(_)) if tolerant => {
            deg.corrupt_payloads += 1;
            Ok(Intake::Lost)
        }
        Ok(Err(e)) => Err(e),
        Err(e) if tolerant => {
            deg.count(&e);
            Ok(Intake::Lost)
        }
        Err(e) => Err(e.into()),
    }
}

/// Account a confirmed death of partition `p`'s simulation rank, once, at
/// the rank draining its wire. With adoption on, the partition's owner
/// renders it from the shared staged store from here on, and the root
/// learns the detection-to-adoption latency from an [`AdoptNotice`].
fn account_loss(
    plan: &Plan,
    comm: &dyn Communicator,
    p: usize,
    owner: usize,
    step: usize,
    deg: &mut Degradation,
    notices: &mut Vec<AdoptNotice>,
) -> Result<()> {
    let _span = eth_obs::span(eth_obs::Phase::Recovery);
    deg.rank_losses += 1;
    eth_obs::count("rank_losses", 1.0);
    let (Some(board), Some(true)) = (&plan.board, plan.spec.recovery.map(|r| r.adopt)) else {
        return Ok(());
    };
    deg.adopted_partitions += 1;
    eth_obs::count("adopted_partitions", 1.0);
    // The dead rank may have checkpointed past this step (sim and viz ranks
    // progress independently); adoption renders from the shared staged
    // store at the adopter's own step regardless.
    let notice = AdoptNotice {
        dead_rank: p,
        adopted_at_step: step,
        adopter: plan.root + owner,
        latency_ns: board
            .death_of(p)
            .map(|d| board.now_ns().saturating_sub(d.last_beat_ns))
            .unwrap_or(0),
    };
    if comm.rank() == plan.root {
        notices.push(notice);
    } else {
        send_adopt_notice(comm, plan.root, &notice)?;
    }
    Ok(())
}

/// One composite gather to the root; the root gets every fabric rank's
/// slot, `None` for a contributor lost to death or deadline. Where the
/// fabric hosts simulation ranks a kill can take down (intercore under
/// liveness), the gather skips the dead instead of blocking on them.
fn composite_round(
    plan: &Plan,
    comm: &dyn Communicator,
    step: usize,
    image: usize,
    payload: Bytes,
) -> Result<Option<Vec<Option<Bytes>>>> {
    match &plan.board {
        Some(board) if plan.link == Link::Fabric => {
            let salt = (step * plan.spec.images_per_step + image) as u32;
            let is_dead = |peer| board.is_dead(peer);
            let budget = recovery_deadline(&plan.spec);
            Ok(gather_surviving(
                comm, plan.root, salt, payload, &is_dead, budget,
            )?)
        }
        _ => Ok(
            gather(comm, plan.root, payload)?.map(|parts| parts.into_iter().map(Some).collect())
        ),
    }
}

/// A rank's composite payload per image. While ownership is static it is
/// the rank's raw framebuffer: its partitions depth-merged locally, or a
/// blank frame when it rendered nothing (a rank with no wire still joins
/// every gather). Under a migration plan it is framed `(partition,
/// framebuffer)` entries, empty when nothing rendered, so the root can
/// composite in partition order whoever rendered what. Payloads are
/// encoded one image at a time, as the gathers consume them.
fn contributions(
    spec: &ExperimentSpec,
    rendered: Vec<(usize, Vec<Framebuffer>)>,
) -> Box<dyn Iterator<Item = Bytes>> {
    if spec.migration.is_some() {
        return Box::new((0..spec.images_per_step).map(move |i| {
            let entries: Vec<(usize, &Framebuffer)> = rendered
                .iter()
                .filter_map(|(p, frames)| frames.get(i).map(|fb| (*p, fb)))
                .collect();
            if entries.is_empty() {
                Bytes::new()
            } else {
                encode_contribution(&entries)
            }
        }));
    }
    let mut parts = rendered.into_iter().map(|(_, frames)| frames);
    let mut merged = parts.next().unwrap_or_else(|| {
        (0..spec.images_per_step)
            .map(|_| Framebuffer::new(spec.width, spec.height, eth_data::Vec3::ZERO))
            .collect()
    });
    for frames in parts {
        for (acc, fb) in merged.iter_mut().zip(&frames) {
            acc.composite_in(fb);
        }
    }
    Box::new(merged.into_iter().map(|fb| Bytes::from(fb.to_bytes())))
}

/// Composite one gathered image at the root. Visualization contributors
/// lost in the gather count as missing contributions; an image nobody
/// contributed to comes out dark rather than panicking.
fn composite_at_root(plan: &Plan, parts: &[Option<Bytes>], deg: &mut Degradation) -> Result<Image> {
    let spec = &plan.spec;
    let viz = &parts[plan.root..];
    deg.missing_contributions += viz.iter().filter(|part| part.is_none()).count() as u64;
    let present = viz.iter().flatten().filter(|raw| !raw.is_empty());
    let merged = if spec.migration.is_some() {
        let mut contribs = Vec::new();
        for raw in present {
            contribs.extend(decode_contribution(raw)?);
        }
        (!contribs.is_empty()).then(|| composite_owned(spec.ranks, contribs).0)
    } else {
        let buffers: Vec<Framebuffer> = present
            .map(|raw| {
                Framebuffer::from_bytes(raw)
                    .ok_or_else(|| CoreError::Config("malformed framebuffer on the wire".into()))
            })
            .collect::<Result<_>>()?;
        (!buffers.is_empty()).then(|| composite_direct(buffers).0)
    };
    let merged =
        merged.unwrap_or_else(|| Framebuffer::new(spec.width, spec.height, eth_data::Vec3::ZERO));
    Ok(merged.into_image())
}

/// Encode one visualization rank's contribution to a composite as a
/// framed list of `(partition, framebuffer)` entries, so the root can
/// fold in ascending *partition* order regardless of which rank rendered
/// what. This is what decouples the image bytes from the ownership map:
/// a migrated partition moves to a different sender but lands in the
/// same composite slot.
fn encode_contribution(entries: &[(usize, &Framebuffer)]) -> Bytes {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (partition, fb) in entries {
        let body = fb.to_bytes();
        buf.extend_from_slice(&(*partition as u32).to_le_bytes());
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&body);
    }
    Bytes::from(buf)
}

/// Inverse of [`encode_contribution`].
fn decode_contribution(raw: &[u8]) -> Result<Vec<(usize, Framebuffer)>> {
    fn malformed() -> CoreError {
        CoreError::Config("malformed framed contribution on the wire".into())
    }
    if raw.len() < 4 {
        return Err(malformed());
    }
    let count = u32::from_le_bytes(raw[0..4].try_into().unwrap()) as usize;
    let mut entries = Vec::with_capacity(count);
    let mut at = 4;
    for _ in 0..count {
        if raw.len() < at + 8 {
            return Err(malformed());
        }
        let partition = u32::from_le_bytes(raw[at..at + 4].try_into().unwrap()) as usize;
        let len = u32::from_le_bytes(raw[at + 4..at + 8].try_into().unwrap()) as usize;
        at += 8;
        if raw.len() < at + len {
            return Err(malformed());
        }
        let fb = Framebuffer::from_bytes(&raw[at..at + len]).ok_or_else(malformed)?;
        at += len;
        entries.push((partition, fb));
    }
    Ok(entries)
}

/// The fallback handoff state when the partition has no checkpoint yet
/// (a migration scheduled before the first step completed).
fn synthetic_checkpoint(spec: &ExperimentSpec, partition: usize, step: usize) -> StepCheckpoint {
    StepCheckpoint {
        rank: partition,
        partition,
        step: step.saturating_sub(1),
        proxy_cursor: step,
        rng_state: spec.seed ^ partition as u64,
        degradation: Degradation::default(),
    }
}

/// Run the three-phase handshakes scheduled for `step` that involve viz
/// index `me`: offer → checkpoint-state transfer → ack, all on the
/// chaos-exempt control plane. Every rank walks the handoff list in the
/// same (index) order, so a rank that sources one handoff and targets
/// another can never cross-wait with a peer. Commits flip the local
/// ownership map on both ends; a refused, aborted, or timed-out handoff
/// degrades to "no migration happened" — the source keeps rendering.
///
/// Death wins the migration-vs-death race deterministically: intake runs
/// before the handshake, and a killed simulation rank parks until the
/// board confirms its death, so by offer time `board.is_dead` already
/// reflects any death scheduled at or before this step.
fn migrate_handshakes(
    plan: &Plan,
    comm: &dyn Communicator,
    owners: &mut [usize],
    me: usize,
    step: usize,
    deg: &mut Degradation,
    disruption: &mut Vec<f64>,
) -> Result<()> {
    let (spec, book) = (&plan.spec, &plan.book);
    let is_dead = |p| plan.is_dead(p);
    let fabric = |viz| plan.root + viz;
    let timeout = spec
        .migration
        .as_ref()
        .map(|plan| plan.handoff_timeout())
        .unwrap_or(Duration::from_secs(1));
    for (index, h) in plan.handoffs.iter().enumerate() {
        if h.step != step {
            continue;
        }
        if h.from == me {
            let t = Instant::now();
            // Death wins: never offer a partition whose simulation rank is
            // confirmed dead — the adoption path keeps rendering it here.
            if is_dead(h.partition) || !book.is_pending(index) {
                book.abort(index);
                deg.migration_failures += 1;
                eth_obs::count("migration_failures", 1.0);
                disruption.push(t.elapsed().as_secs_f64());
                continue;
            }
            let state = plan
                .checkpoints
                .latest(h.partition)
                .unwrap_or_else(|| synthetic_checkpoint(spec, h.partition, step));
            let payload = serde_json::to_vec(&state)
                .map(Bytes::from)
                .unwrap_or_default();
            let offer = MigrateOffer {
                handoff: index,
                partition: h.partition,
                source: fabric(me),
                step,
            };
            send_migrate_offer(comm, fabric(h.to), &offer, payload)?;
            match recv_migrate_ack(comm, fabric(h.to), index, timeout) {
                Ok(MigrateAck {
                    committed: true, ..
                }) => {
                    owners[h.partition] = h.to;
                    deg.migrations += 1;
                    eth_obs::count("migrations", 1.0);
                }
                _ => {
                    // refused, aborted, or the ack never landed: keep the
                    // partition (the target commits only through the book's
                    // CAS, so a lost ack can at worst double-render one
                    // step — idempotent under the partition-ordered
                    // composite).
                    book.abort(index);
                    deg.migration_failures += 1;
                    eth_obs::count("migration_failures", 1.0);
                }
            }
            disruption.push(t.elapsed().as_secs_f64());
        } else if h.to == me {
            // The source skips offering a dead partition, so don't burn
            // the timeout waiting for an offer that will never come.
            if is_dead(h.partition) || book.is_aborted(index) {
                continue;
            }
            // A receive error means the source never offered (it saw the
            // death or aborted first); the source owns the failure
            // accounting, so nothing to do here on that path.
            if let Ok((offer, state)) = recv_migrate_offer(comm, fabric(h.from), index, timeout) {
                debug_assert_eq!(offer.partition, h.partition);
                let committed = !is_dead(h.partition) && book.try_commit(index);
                send_migrate_ack(
                    comm,
                    fabric(h.from),
                    &MigrateAck {
                        handoff: index,
                        committed,
                    },
                )?;
                if committed {
                    owners[h.partition] = h.to;
                    if let Ok(ckpt) = serde_json::from_slice::<StepCheckpoint>(&state) {
                        // the simulation side streams ahead of the viz
                        // steps (sends are non-blocking), so the cursor
                        // may already be past `step`; it can never be
                        // past the end of the run
                        debug_assert!(
                            ckpt.proxy_cursor <= spec.steps,
                            "handoff cursor {} past the run ({} steps)",
                            ckpt.proxy_cursor,
                            spec.steps
                        );
                    }
                }
            }
        }
    }
    Ok(())
}

/// A paper-scale design point for the cluster simulator.
#[derive(Debug, Clone, Copy)]
pub struct ClusterExperiment {
    pub algorithm: AlgorithmClass,
    pub coupling: CouplingStrategy,
    pub nodes: u32,
    pub workload: Workload,
    pub calibration: Calibration,
    /// Asymmetric internode split: share of the allocation given to the
    /// visualization proxy. `None` uses the coupling's canonical layout
    /// (internode = 0.5). Ignored for tight/intercore.
    pub viz_fraction: Option<f64>,
}

impl ClusterExperiment {
    /// HACC at paper scale: `particles` across `nodes` Hikari nodes,
    /// 500 images per step at 512².
    pub fn hacc(algorithm: AlgorithmClass, nodes: u32, particles: u64) -> ClusterExperiment {
        ClusterExperiment {
            algorithm,
            coupling: CouplingStrategy::Tight,
            nodes,
            workload: Workload {
                global_elements: particles,
                image_pixels: 512 * 512,
                images_per_step: 500,
                steps: 1,
                bytes_per_element: 32,
                sampling_ratio: 1.0,
                planes: 0,
                sim_ops_per_element: 0.0,
            },
            calibration: Calibration::default(),
            viz_fraction: None,
        }
    }

    /// xRAGE at paper scale: `dims` grid across `nodes`, 100 images/step.
    pub fn xrage(algorithm: AlgorithmClass, nodes: u32, dims: [u64; 3]) -> ClusterExperiment {
        ClusterExperiment {
            algorithm,
            coupling: CouplingStrategy::Tight,
            nodes,
            workload: Workload {
                global_elements: dims[0] * dims[1] * dims[2],
                image_pixels: 512 * 512,
                images_per_step: 100,
                steps: 1,
                bytes_per_element: 4,
                sampling_ratio: 1.0,
                planes: 2,
                sim_ops_per_element: 0.0,
            },
            calibration: Calibration::default(),
            viz_fraction: None,
        }
    }

    pub fn with_coupling(mut self, coupling: CouplingStrategy) -> Self {
        self.coupling = coupling;
        self
    }

    pub fn with_sampling(mut self, ratio: f64) -> Self {
        self.workload.sampling_ratio = ratio;
        self
    }

    pub fn with_steps(mut self, steps: u32) -> Self {
        self.workload.steps = steps;
        self
    }

    pub fn with_images_per_step(mut self, images: u32) -> Self {
        self.workload.images_per_step = images;
        self
    }

    pub fn with_sim_ops(mut self, ops_per_element: f64) -> Self {
        self.workload.sim_ops_per_element = ops_per_element;
        self
    }

    pub fn with_calibration(mut self, cal: Calibration) -> Self {
        self.calibration = cal;
        self
    }

    /// Space-share with an asymmetric split (implies internode coupling).
    pub fn with_viz_fraction(mut self, fraction: f64) -> Self {
        self.coupling = CouplingStrategy::Internode;
        self.viz_fraction = Some(fraction);
        self
    }
}

/// Execute a paper-scale design point on the Hikari model.
pub fn run_cluster(exp: &ClusterExperiment) -> RunMetrics {
    let cluster = ClusterSpec::hikari(exp.nodes);
    let model = CostModel::new(exp.calibration, cluster);
    let graph = match (exp.coupling, exp.viz_fraction) {
        (CouplingStrategy::Internode, Some(fraction)) => {
            eth_cluster::coupling::build_schedule_split(
                &model,
                exp.algorithm,
                &exp.workload,
                exp.nodes,
                fraction,
            )
        }
        _ => build_schedule(&model, exp.coupling, exp.algorithm, &exp.workload, exp.nodes),
    };
    let machine = ClusterMachine::new(cluster);
    let (trace, profile) = machine.run(&graph);
    RunMetrics::from_run(exp.nodes, &trace, &profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, Application, ExperimentSpec, RecoveryPolicy};
    use eth_transport::fault::FaultPlan;

    fn base_spec(name: &str) -> ExperimentSpec {
        ExperimentSpec::builder(name)
            .application(Application::Hacc { particles: 3_000 })
            .algorithm(Algorithm::GaussianSplat)
            .ranks(3)
            .steps(2)
            .images_per_step(2)
            .image_size(40, 40)
            .build()
            .unwrap()
    }

    #[test]
    fn tight_native_run_end_to_end() {
        let spec = base_spec("tight");
        let out = run_native(&spec).unwrap();
        assert_eq!(out.images.len(), 4); // 2 steps x 2 images
        assert!(out.images[0].coverage(0.01) > 0.0, "blank image");
        assert!(out.stats.fragments > 0);
        assert!(out.phases.viz_s > 0.0);
        assert!(out.bytes_moved > 0, "compositing moved no bytes");
        assert!(out.report().contains("tight"));
    }

    #[test]
    fn intercore_native_run_matches_tight_images() {
        let tight = run_native(&base_spec("a")).unwrap();
        let mut spec = base_spec("a"); // same name/seed => same data
        spec.coupling = Coupling::Intercore;
        let intercore = run_native(&spec).unwrap();
        assert_eq!(intercore.images.len(), tight.images.len());
        for (a, b) in tight.images.iter().zip(&intercore.images) {
            let rmse = a.rmse(b).unwrap();
            assert!(rmse < 1e-6, "couplings changed the image: rmse {rmse}");
        }
        assert!(intercore.phases.transfer_s >= 0.0);
    }

    #[test]
    fn internode_native_run_matches_tight_images() {
        let tight = run_native(&base_spec("b")).unwrap();
        let mut spec = base_spec("b");
        spec.coupling = Coupling::Internode;
        let internode = run_native(&spec).unwrap();
        assert_eq!(internode.images.len(), tight.images.len());
        for (a, b) in tight.images.iter().zip(&internode.images) {
            let rmse = a.rmse(b).unwrap();
            assert!(rmse < 1e-6, "couplings changed the image: rmse {rmse}");
        }
        // internode really moved the data across the socket layer
        assert!(internode.bytes_moved > tight.bytes_moved);
    }

    #[test]
    fn grid_application_native_run() {
        let spec = ExperimentSpec::builder("grid")
            .application(Application::Xrage { dims: [20, 16, 12] })
            .algorithm(Algorithm::RaycastIsosurface)
            .ranks(2)
            .image_size(40, 40)
            .build()
            .unwrap();
        let out = run_native(&spec).unwrap();
        assert_eq!(out.images.len(), 1);
        assert!(out.images[0].coverage(0.01) > 0.005, "isosurface invisible");
    }

    #[test]
    fn sampling_changes_output_but_not_shape() {
        let full = run_native(&base_spec("s")).unwrap();
        let mut spec = base_spec("s");
        spec.sampling_ratio = 0.25;
        let sampled = run_native(&spec).unwrap();
        let rmse = sampled.images[0].rmse(&full.images[0]).unwrap();
        assert!(rmse > 0.0, "sampling must change the image");
        assert!(rmse < 0.5, "sampled image unrecognizable: rmse {rmse}");
    }

    #[test]
    fn clean_runs_report_no_degradation() {
        let out = run_native(&base_spec("clean")).unwrap();
        assert!(out.degradation.is_clean());
        assert!(!out.report().contains("degraded"));
    }

    #[test]
    fn internode_disconnect_degrades_not_deadlocks() {
        // Sim rank 1's viz link dies after 2 messages and a quarter of the
        // remaining data traffic is dropped. The run must complete (inside
        // the deadline budget, not hang), produce every image slot, and
        // report the lost steps.
        let plan = FaultPlan::seeded(5)
            .with_disconnect(1, 2)
            .with_drop(0.25)
            .with_recv_deadline_ms(500);
        let spec = ExperimentSpec::builder("chaos-internode")
            .application(Application::Hacc { particles: 2_000 })
            .algorithm(Algorithm::GaussianSplat)
            .coupling(Coupling::Internode)
            .ranks(2)
            .steps(4)
            .image_size(32, 32)
            .fault_plan(plan)
            .build()
            .unwrap();
        let t0 = Instant::now();
        let out = run_native(&spec).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(30), "run wedged");
        assert_eq!(out.images.len(), 4, "every image slot must fill");
        assert!(
            out.degradation.dropped_steps >= 1,
            "disconnect lost no steps: {:?}",
            out.degradation
        );
        assert!(out.degradation.disconnects >= 1, "{:?}", out.degradation);
        assert!(out.report().contains("degraded"));
    }

    #[test]
    fn internode_payload_corruption_is_detected_at_the_codec() {
        // Send-side corruption mangles real payload bytes; the checksum
        // trailer must catch every one of them at decode time, so the
        // corrupt counter reflects *detected* corruption, not merely the
        // injector's bookkeeping.
        let plan = FaultPlan::seeded(9).with_corrupt(0.6).with_recv_deadline_ms(500);
        let mut spec = base_spec("chaos-corrupt");
        spec.coupling = Coupling::Internode;
        spec.fault_plan = Some(plan);
        let out = run_native(&spec).unwrap();
        assert!(
            out.degradation.corrupt_payloads > 0,
            "no corruption detected: {:?}",
            out.degradation
        );
        // the run still fills every image slot (degraded, not dead)
        assert_eq!(out.images.len(), 4);
    }

    #[test]
    fn failed_compute_leaves_memo_slot_retryable() {
        // A compute that errors must leave the slot empty so a retry can
        // populate it — this is what lets a campaign retry hit RunCaches
        // instead of poisoning the key for the rest of the sweep.
        let map: Mutex<HashMap<u32, Arc<MemoSlot<u64>>>> = Mutex::new(HashMap::new());
        let first = memoize(&map, 1, || Err(CoreError::Config("injected".into())));
        assert!(first.is_err());
        // retry succeeds and populates the slot (a miss, not a hit)
        let (v, hit) = memoize(&map, 1, || Ok(41)).unwrap();
        assert_eq!((*v, hit), (41, false));
        // and the third requester is served from cache
        let (v, hit) = memoize::<u64, _, _>(&map, 1, || {
            panic!("slot was not populated")
        })
        .unwrap();
        assert_eq!((*v, hit), (41, true));
    }

    #[test]
    fn fault_degradation_is_reproducible() {
        // Same seed, same plan => byte-identical fault schedule => the
        // same degradation record, run after run.
        let run = || {
            let plan = FaultPlan::seeded(77).with_drop(1.0).with_recv_deadline_ms(150);
            let mut spec = base_spec("chaos-repro");
            spec.coupling = Coupling::Intercore;
            spec.fault_plan = Some(plan);
            run_native(&spec).unwrap()
        };
        let a = run();
        let b = run();
        assert!(!a.degradation.is_clean(), "total drop must degrade");
        assert!(a.degradation.dropped_steps > 0);
        assert_eq!(
            a.degradation, b.degradation,
            "same seed degraded differently across runs"
        );
        // the composite still ran for every step
        assert_eq!(a.images.len(), b.images.len());
    }

    #[test]
    fn supervised_run_times_out_instead_of_wedging() {
        // An absurdly small rank budget: the supervisor must convert the
        // overrun into a structured error, not block — under every coupling.
        for coupling in [Coupling::Tight, Coupling::Intercore, Coupling::Internode] {
            let plan = FaultPlan::seeded(1)
                .with_rank_timeout_ms(1)
                .with_recv_deadline_ms(100);
            let mut spec = base_spec("tiny-budget");
            spec.coupling = coupling;
            spec.fault_plan = Some(plan);
            match run_native(&spec) {
                Err(crate::error::CoreError::Rank(f)) => {
                    assert!(f.to_string().contains("did not finish"), "{coupling:?}: {f}");
                }
                Err(other) => panic!("{coupling:?}: expected a rank failure, got {other}"),
                // A very fast machine may finish a fabric run inside 1 ms,
                // but the socket bootstrap alone takes far longer.
                Ok(_) => assert_ne!(coupling, Coupling::Internode, "the rank budget was ignored"),
            }
        }
    }

    #[test]
    fn failed_internode_run_leaves_no_layout_dir() {
        // An artifact dir below a regular file cannot be created, so the
        // root's first artifact write fails the run after every rank has
        // bootstrapped. The layout directory must go with the run.
        let name = format!("layout-leak-{:x}", std::process::id());
        let blocker = std::env::temp_dir().join(format!("eth-{name}-blocker"));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let mut spec = base_spec(&name);
        spec.coupling = Coupling::Internode;
        spec.artifact_dir = Some(blocker.join("artifacts"));
        let result = run_native(&spec);
        std::fs::remove_file(&blocker).unwrap();
        assert!(result.is_err(), "an unwritable artifact dir must fail the run");
        let prefix = format!("eth-layout-{name}-");
        let leaked: Vec<_> = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
            .map(|e| e.path())
            .collect();
        assert!(leaked.is_empty(), "failed run left {leaked:?} behind");
    }

    #[test]
    fn cached_run_is_byte_identical_to_fresh() {
        let spec = base_spec("cache-eq");
        let fresh = run_native(&spec).unwrap();
        let caches = RunCaches::new();
        let cold = run_native_cached(&spec, &caches).unwrap();
        let warm = run_native_cached(&spec, &caches).unwrap();
        assert_eq!(fresh.images, cold.images, "cold cache changed the image");
        assert_eq!(fresh.images, warm.images, "warm cache changed the image");
        let stats = caches.stats();
        assert_eq!(stats.staging_misses, 1);
        assert_eq!(stats.staging_hits, 1);
        assert!((stats.staging_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn baseline_renders_once_across_ratio_and_coupling_axes() {
        let caches = RunCaches::new();
        let mut spec = base_spec("base");
        spec.sampling_ratio = 0.5;
        let b1 = caches.baseline_images(&spec).unwrap();
        spec.sampling_ratio = 0.25;
        spec.coupling = Coupling::Intercore;
        let b2 = caches.baseline_images(&spec).unwrap();
        assert!(Arc::ptr_eq(&b1, &b2), "second lookup must reuse the render");
        let stats = caches.stats();
        assert_eq!(stats.baseline_misses, 1);
        assert_eq!(stats.baseline_hits, 1);
        // The cached baseline is exactly the full-fidelity run's output.
        let full = run_native(&base_spec("base")).unwrap();
        assert_eq!(*b1, full.images);
    }

    /// A recovery policy with a fast heartbeat so tests detect deaths in
    /// tens of milliseconds instead of the production default.
    fn fast_recovery() -> RecoveryPolicy {
        RecoveryPolicy {
            heartbeat: HeartbeatPolicy {
                interval_ms: 10,
                miss_budget: 3,
            },
            max_rank_losses: 1,
            adopt: true,
        }
    }

    fn kill_spec(name: &str, coupling: Coupling, victim: usize, step: usize) -> ExperimentSpec {
        let mut spec = base_spec(name);
        spec.coupling = coupling;
        spec.steps = 4;
        spec.recovery = Some(fast_recovery());
        spec.fault_plan = Some(FaultPlan::seeded(7).with_kill_rank_at_step(victim, step));
        spec
    }

    #[test]
    fn intercore_kill_is_adopted_and_images_match_the_healthy_run() {
        let mut healthy = base_spec("ic-kill");
        healthy.coupling = Coupling::Intercore;
        healthy.steps = 4;
        let reference = run_native(&healthy).unwrap();

        let out = run_native(&kill_spec("ic-kill", Coupling::Intercore, 1, 2)).unwrap();
        assert_eq!(out.degradation.rank_losses, 1, "{:?}", out.degradation);
        assert_eq!(out.degradation.adopted_partitions, 1);
        assert_eq!(out.images.len(), reference.images.len());
        // Adoption re-renders the dead rank's partition from the shared
        // staged store, so every image — not just the pre-kill ones — is
        // byte-identical to the run where nobody died.
        for (i, (a, b)) in reference.images.iter().zip(&out.images).enumerate() {
            assert_eq!(a, b, "image {i} diverged after adoption");
        }
        assert_eq!(out.recovery_latency_s.len(), 1);
        assert!(
            out.recovery_latency_s[0] > 0.0 && out.recovery_latency_s[0] < 30.0,
            "implausible recovery latency {:?}",
            out.recovery_latency_s
        );
    }

    #[test]
    fn internode_kill_is_adopted_and_prekill_images_are_identical() {
        let kill_at = 1;
        let mut healthy = base_spec("in-kill");
        healthy.coupling = Coupling::Internode;
        healthy.steps = 4;
        let reference = run_native(&healthy).unwrap();

        let out = run_native(&kill_spec("in-kill", Coupling::Internode, 2, kill_at)).unwrap();
        assert_eq!(out.degradation.rank_losses, 1, "{:?}", out.degradation);
        assert_eq!(out.degradation.adopted_partitions, 1);
        // the run completes with a full image set despite the death
        assert_eq!(out.images.len(), reference.images.len());
        // steps before the kill cannot have been touched by recovery
        let spec = &reference.spec;
        for i in 0..kill_at * spec.images_per_step {
            assert_eq!(reference.images[i], out.images[i], "pre-kill image {i} diverged");
        }
        assert_eq!(out.recovery_latency_s.len(), 1);
        assert!(out.recovery_latency_s[0] > 0.0);
    }

    #[test]
    fn kill_without_adoption_completes_dark() {
        let mut spec = kill_spec("no-adopt", Coupling::Intercore, 0, 1);
        spec.recovery = Some(RecoveryPolicy {
            adopt: false,
            ..fast_recovery()
        });
        let out = run_native(&spec).unwrap();
        assert_eq!(out.degradation.rank_losses, 1);
        assert_eq!(out.degradation.adopted_partitions, 0);
        assert!(
            out.degradation.missing_contributions > 0,
            "the dead partition's frames must be counted as holes: {:?}",
            out.degradation
        );
        // still a full-length image sequence; the hole is composited around
        assert_eq!(out.images.len(), 4 * out.spec.images_per_step);
    }

    #[test]
    fn recovery_policy_without_faults_changes_nothing() {
        let reference = run_native(&base_spec("rec-noop")).unwrap();
        for coupling in [Coupling::Tight, Coupling::Intercore, Coupling::Internode] {
            let mut spec = base_spec("rec-noop");
            spec.coupling = coupling;
            spec.recovery = Some(fast_recovery());
            let out = run_native(&spec).unwrap();
            assert_eq!(out.degradation.rank_losses, 0);
            assert_eq!(out.recovery_latency_s.len(), 0);
            for (a, b) in reference.images.iter().zip(&out.images) {
                assert_eq!(a, b, "recovery supervision changed pixels under {coupling:?}");
            }
        }
    }

    /// Recovery policy for the migration tests: same fast 10 ms beat, but
    /// a miss budget wide enough that a beater thread starved by a loaded
    /// parallel test run is not falsely declared dead (a spurious death
    /// would nondeterministically abort a planned handoff).
    fn sturdy_recovery() -> RecoveryPolicy {
        RecoveryPolicy {
            heartbeat: HeartbeatPolicy {
                interval_ms: 10,
                miss_budget: 30,
            },
            max_rank_losses: 1,
            adopt: true,
        }
    }

    fn migrating(mut spec: ExperimentSpec, pattern: crate::config::MigrationPattern) -> ExperimentSpec {
        spec.recovery = Some(sturdy_recovery());
        spec.migration = Some(crate::config::MigrationPlan::new(pattern));
        spec
    }

    #[test]
    fn recovering_and_migrating_runs_report_a_critical_path() {
        use crate::config::{MigrationPattern, MigrationPlan};
        let sudden = MigrationPattern::Sudden { from: 1, to: 0, at_step: 1 };
        for (coupling, pattern) in [
            (Coupling::Intercore, None),
            (Coupling::Intercore, Some(sudden)),
            (Coupling::Internode, Some(sudden)),
        ] {
            let mut spec = base_spec("cp-modes");
            spec.coupling = coupling;
            spec.recovery = Some(sturdy_recovery());
            spec.migration = pattern.map(MigrationPlan::new);
            let out = run_native(&spec).unwrap();
            let tag = format!("{coupling:?} migrating={}", pattern.is_some());
            let Some(cp) = out.critical_path.as_ref() else {
                panic!("{tag}: no critical path");
            };
            assert!(cp.steps > 0, "{tag}: {cp:?}");
            assert!(
                cp.phases
                    .iter()
                    .any(|p| out.counters.get(&format!("critical_path_{}_s", p.phase)) > 0.0),
                "{tag}: no critical_path_* counters"
            );
        }
    }

    #[test]
    fn intercore_sudden_migration_is_byte_identical_and_counted() {
        use crate::config::MigrationPattern;
        let mut healthy = base_spec("mig-sudden");
        healthy.coupling = Coupling::Intercore;
        healthy.steps = 4;
        let reference = run_native(&healthy).unwrap();

        let spec = migrating(
            healthy.clone(),
            MigrationPattern::Sudden { from: 1, to: 2, at_step: 2 },
        );
        let out = run_native(&spec).unwrap();
        assert_eq!(out.degradation.migrations, 1, "{:?}", out.degradation);
        assert_eq!(out.degradation.migration_failures, 0);
        assert_eq!(out.degradation.rank_losses, 0);
        assert_eq!(out.images.len(), reference.images.len());
        // The migrated partition renders from the shared staged store and
        // lands in the same composite slot: no frame drops, no pixel moves.
        for (i, (a, b)) in reference.images.iter().zip(&out.images).enumerate() {
            assert_eq!(a, b, "image {i} diverged under migration");
        }
        assert_eq!(out.migration_disruption_s.len(), 1);
        assert!(out.migration_disruption_s[0] >= 0.0);
        assert!(out.report().contains("migrated"));
    }

    #[test]
    fn internode_fluid_and_batched_migrations_are_byte_identical() {
        use crate::config::MigrationPattern;
        let mut healthy = base_spec("mig-fluid");
        healthy.coupling = Coupling::Internode;
        healthy.steps = 4;
        healthy.ranks = 4;
        healthy.viz_ranks = Some(2);
        let reference = run_native(&healthy).unwrap();

        for (tag, pattern) in [
            ("fluid", MigrationPattern::Fluid { from: 0, to: 1, start_step: 1 }),
            (
                "batched",
                MigrationPattern::BatchedFluid { from: 0, to: 1, start_step: 1, batch: 2 },
            ),
        ] {
            let out = run_native(&migrating(healthy.clone(), pattern)).unwrap();
            // viz 0 initially owns partitions {0, 2}: two handoffs
            assert_eq!(out.degradation.migrations, 2, "{tag}: {:?}", out.degradation);
            assert_eq!(out.degradation.migration_failures, 0, "{tag}");
            assert_eq!(out.images.len(), reference.images.len(), "{tag}");
            for (i, (a, b)) in reference.images.iter().zip(&out.images).enumerate() {
                assert_eq!(a, b, "{tag}: image {i} diverged under migration");
            }
            assert_eq!(out.migration_disruption_s.len(), 2, "{tag}");
        }
    }

    #[test]
    fn internode_rescale_grows_and_shrinks_without_dropping_a_frame() {
        use crate::config::MigrationPattern;
        let mut healthy = base_spec("mig-rescale");
        healthy.coupling = Coupling::Internode;
        healthy.steps = 4;
        healthy.ranks = 4;
        healthy.viz_ranks = Some(2);
        let reference = run_native(&healthy).unwrap();

        for (tag, viz, target) in [("grow", 2usize, 3usize), ("shrink", 3, 2)] {
            let mut spec = healthy.clone();
            spec.viz_ranks = Some(viz);
            let spec = migrating(spec, MigrationPattern::Rescale { viz_ranks: target, at_step: 2 });
            let out = run_native(&spec).unwrap();
            let expected = (0..4).filter(|p| p % viz != p % target).count() as u64;
            assert_eq!(out.degradation.migrations, expected, "{tag}: {:?}", out.degradation);
            assert_eq!(out.degradation.migration_failures, 0, "{tag}");
            assert_eq!(out.images.len(), reference.images.len(), "{tag}");
            for (i, (a, b)) in reference.images.iter().zip(&out.images).enumerate() {
                assert_eq!(a, b, "{tag}: image {i} diverged under rescale");
            }
        }
    }

    #[test]
    fn migration_racing_a_death_resolves_deterministically() {
        use crate::config::MigrationPattern;
        // Death first: the owning sim rank is killed the step before the
        // handoff. Death wins — the handoff degrades to "no migration
        // happened" — and adoption keeps every image byte-identical.
        let run = || {
            let mut spec = kill_spec("mig-race", Coupling::Intercore, 1, 1);
            spec.recovery = Some(sturdy_recovery());
            spec.migration = Some(crate::config::MigrationPlan::new(MigrationPattern::Sudden {
                from: 1,
                to: 0,
                at_step: 2,
            }));
            run_native(&spec).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.degradation.migrations, 0, "{:?}", a.degradation);
        assert_eq!(a.degradation.migration_failures, 1);
        assert_eq!(a.degradation.rank_losses, 1);
        assert_eq!(a.degradation, b.degradation, "racing death was nondeterministic");
        assert_eq!(a.images, b.images, "racing death changed pixels across runs");

        let mut healthy = base_spec("mig-race");
        healthy.coupling = Coupling::Intercore;
        healthy.steps = 4;
        let reference = run_native(&healthy).unwrap();
        assert_eq!(a.images, reference.images, "failed handoff + adoption dropped a frame");

        // Death after the handoff: the migration commits, the new owner
        // rides out the death, and the drainer still accounts the loss.
        let mut spec = kill_spec("mig-race", Coupling::Intercore, 1, 3);
        spec.recovery = Some(sturdy_recovery());
        spec.migration = Some(crate::config::MigrationPlan::new(MigrationPattern::Sudden {
            from: 1,
            to: 0,
            at_step: 1,
        }));
        let late = run_native(&spec).unwrap();
        assert_eq!(late.degradation.migrations, 1, "{:?}", late.degradation);
        assert_eq!(late.degradation.migration_failures, 0);
        assert_eq!(late.degradation.rank_losses, 1);
        assert_eq!(late.images, reference.images, "committed handoff diverged under a late death");
    }

    #[test]
    fn cluster_mode_produces_paper_scale_metrics() {
        let exp = ClusterExperiment::hacc(AlgorithmClass::RaycastSpheres, 400, 1_000_000_000);
        let m = run_cluster(&exp);
        assert_eq!(m.nodes, 400);
        assert!(m.exec_time_s > 1.0);
        assert!((40.0..60.0).contains(&m.avg_power_kw), "power {}", m.avg_power_kw);
        assert!(m.energy_kj > 0.0);
    }

    #[test]
    fn cluster_mode_coupling_builder() {
        let exp = ClusterExperiment::hacc(AlgorithmClass::VtkPoints, 64, 10_000_000)
            .with_coupling(CouplingStrategy::Internode)
            .with_sampling(0.5)
            .with_steps(3)
            .with_sim_ops(100.0);
        let m = run_cluster(&exp);
        assert!(m.exec_time_s.is_finite() && m.exec_time_s > 0.0);
    }

    #[test]
    fn budgeted_run_is_byte_identical_and_stays_under_budget() {
        let full = run_native(&base_spec("budget")).unwrap();
        let mut spec = base_spec("budget");
        let budget: u64 = 32_000; // far below the ~6 staged blocks' total
        spec.resources = Some(crate::config::ResourcePolicy::with_memory_budget(budget));
        let lean = run_native(&spec).unwrap();
        assert_eq!(full.images, lean.images, "budget changed the image");
        // The byte-accountant must show real spill traffic and a peak
        // residency that never exceeded the budget, even transiently.
        let staged = stage_data(&spec).unwrap();
        let stats = staged.store.stats();
        assert!(stats.spills > 0, "budget too large to exercise spilling");
        assert!(
            stats.peak_resident_bytes <= budget,
            "peak {} exceeded budget {budget}",
            stats.peak_resident_bytes
        );
        staged.store.assert_within_budget();
        // Every block streams back byte-identical from its chunk.
        let unbudgeted = stage_data(&base_spec("budget")).unwrap();
        for step in 0..spec.steps {
            for rank in 0..spec.ranks {
                let a = staged.block(step, rank).unwrap();
                let b = unbudgeted.block(step, rank).unwrap();
                assert_eq!(
                    eth_data::io::binary::encode(&a),
                    eth_data::io::binary::encode(&b),
                    "spilled block ({step},{rank}) diverged"
                );
            }
        }
    }

    #[test]
    fn lossless_wire_compression_is_byte_identical_across_couplings() {
        let tight = run_native(&base_spec("wire")).unwrap();
        for coupling in [Coupling::Intercore, Coupling::Internode] {
            let mut spec = base_spec("wire");
            spec.coupling = coupling;
            spec.wire_compression = Some(eth_data::compress::Codec::Lossless);
            let out = run_native(&spec).unwrap();
            assert_eq!(
                tight.images, out.images,
                "lossless wire codec changed the image under {coupling:?}"
            );
        }
        // The lossy codec still runs end-to-end and stays close.
        let mut spec = base_spec("wire");
        spec.coupling = Coupling::Internode;
        spec.wire_compression = Some(eth_data::compress::Codec::Quantize);
        let lossy = run_native(&spec).unwrap();
        for (a, b) in tight.images.iter().zip(&lossy.images) {
            let rmse = a.rmse(b).unwrap();
            assert!(rmse < 0.1, "quantize drifted too far: rmse {rmse}");
        }
    }

    #[test]
    fn injected_alloc_failure_surfaces_as_out_of_memory() {
        let mut spec = base_spec("alloc-fail");
        spec.fault_plan = Some(FaultPlan::default().with_alloc_fail_at_stage(3));
        let err = match run_native(&spec) {
            Ok(_) => panic!("injection must fail the run"),
            Err(e) => e,
        };
        match err {
            CoreError::OutOfMemory(m) => {
                assert!(m.contains("alloc_fail_at_stage"), "{m}");
            }
            other => panic!("expected OutOfMemory, got {other}"),
        }
        // The injection is positional: past the staged-block count it is
        // inert and the run completes normally.
        spec.fault_plan = Some(FaultPlan::default().with_alloc_fail_at_stage(10_000));
        run_native(&spec).unwrap();
    }
}
