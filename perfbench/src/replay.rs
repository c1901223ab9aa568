//! The per-layer replay: one load unit of a workload, stage by stage,
//! calling each layer's public function directly on the same generated
//! data the harness would stage.
//!
//! The replay opens an `eth_obs` span around every layer call. Spans are
//! free while no recorder is attached, so the untraced and the traced
//! replay run the same code; the traced one attaches a
//! [`eth_obs::Recorder`] for the pipeline's calls. Probes of layers the
//! pipeline does not call (the codec and wire off the internode path, the
//! CRC on its own, the journal off the sweep) run after it detaches, so
//! the trace shows the pipeline alone. Nothing inside the program changes.
//!
//! Rank-parallel work runs one rank after the other here, so for each
//! step the replay charges the *slowest* rank's layer times to the design
//! point's critical path, and an internode point's simulation side is
//! modeled as running ahead of its visualization side; every call still
//! counts toward the layer's throughput.

use crate::workload::Workload;
use eth_core::config::orbit_camera;
use eth_core::journal::{self, Journal, JournalRecord, RecordedOutcome};
use eth_core::pipeline::VizPipeline;
use eth_core::{Algorithm, Coupling, ExperimentSpec, NativeOutcome};
use eth_data::crc::crc32;
use eth_data::partition::{partition_grid_slabs, partition_points};
use eth_data::staging::BlockStore;
use eth_data::{Bytes, DataObject};
use eth_obs::Phase;
use eth_render::color::TransferFunction;
use eth_render::composite::composite_direct;
use eth_render::framebuffer::Framebuffer;
use eth_render::pipeline::{render, RenderAlgorithm, RenderOptions};
use eth_render::ray::sphere::SphereRaycaster;
use eth_render::tile::DEFAULT_TILE;
use eth_render::Image;
use eth_transport::collectives::gather;
use eth_transport::layout::LayoutFile;
use eth_transport::message::{decode_dataset_from, encode_dataset};
use eth_transport::socket::{connect_to, listen_as, StreamChannel};
use eth_transport::LocalFabric;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

type Seconds = BTreeMap<&'static str, f64>;

fn ctx<E: Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Seconds per layer, accumulated around spans.
#[derive(Default, Clone)]
struct Clock(Seconds);

impl Clock {
    fn time<T>(&mut self, layer: &'static str, phase: Phase, f: impl FnOnce() -> T) -> T {
        let _span = eth_obs::span(phase);
        let t = Instant::now();
        let out = f();
        *self.0.entry(layer).or_default() += t.elapsed().as_secs_f64();
        out
    }

    fn total(&self) -> f64 {
        self.0.values().sum()
    }

    fn add(&mut self, other: &Clock) {
        for (k, v) in &other.0 {
            *self.0.entry(k).or_default() += v;
        }
    }
}

/// What one replay measured.
#[derive(Default)]
pub struct Replay {
    pub points: usize,
    /// Wall seconds of the unit's design points (after the staging pass).
    pub wall_s: f64,
    /// Staging-pass layer seconds (generate, partition, insert).
    pub staging_s: Seconds,
    /// Critical-path layer seconds summed over the unit's design points.
    pub point_s: Seconds,
    /// Each design point's critical path through its layer times.
    pub point_layer_s: Vec<f64>,
    /// Every layer call, critical or not (codec probes, CRC nested in
    /// decode, journal probes): seconds and bytes, for throughputs.
    pub all_s: Seconds,
    pub bytes: BTreeMap<&'static str, u64>,
    /// Exact work counts of the unit.
    pub counts: BTreeMap<&'static str, u64>,
    /// Journal layer seconds when the unit does not journal (probe).
    pub journal_probe_s: Seconds,
    /// Composited images, per design point.
    pub images: Vec<Vec<Image>>,
}

impl Replay {
    fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    fn bytes(&mut self, name: &'static str, n: usize) {
        *self.bytes.entry(name).or_default() += n as u64;
    }

    fn absorb_all(&mut self, clock: &Clock) {
        for (k, v) in &clock.0 {
            *self.all_s.entry(k).or_default() += v;
        }
    }

    /// Throughput of a layer over every call: `numerator` per second of
    /// `layer` time (0 when the layer never ran).
    pub fn rate(&self, numerator: f64, layer: &str) -> f64 {
        match self.all_s.get(layer) {
            Some(&s) if s > 0.0 => numerator / s,
            _ => 0.0,
        }
    }

    pub fn bytes_per_s(&self, layer: &str) -> f64 {
        self.rate(self.bytes.get(layer).copied().unwrap_or(0) as f64, layer)
    }

    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0) as f64
    }

    /// A critical-path layer's seconds per design point.
    pub fn per_point(&self, layer: &str) -> f64 {
        self.point_s.get(layer).copied().unwrap_or(0.0) / self.points.max(1) as f64
    }
}

/// The global range of the default scalar, as the harness's staging pass
/// computes it, so every rank colors through one transfer function.
fn global_scalar_range(obj: &DataObject, name: &str) -> Option<(f32, f32)> {
    let values = match obj {
        DataObject::Points(p) => p.scalar(name).ok()?,
        DataObject::Grid(g) => g.scalar(name).ok()?,
    };
    let (lo, hi) = values
        .iter()
        .filter(|v| v.is_finite())
        .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    (lo.is_finite() && hi > lo).then_some((lo, hi))
}

fn partition(obj: &DataObject, ranks: usize) -> Result<Vec<DataObject>, String> {
    Ok(match obj {
        DataObject::Points(c) => partition_points(c, ranks)
            .map_err(ctx("partition"))?
            .into_iter()
            .map(DataObject::Points)
            .collect(),
        DataObject::Grid(g) => partition_grid_slabs(g, ranks)
            .map_err(ctx("partition"))?
            .into_iter()
            .map(DataObject::Grid)
            .collect(),
    })
}

/// A connected loopback socket pair: (simulation end, visualization end).
fn socket_pair(dir: &Path) -> Result<(StreamChannel, StreamChannel), String> {
    let _ = std::fs::remove_dir_all(dir);
    let layout = LayoutFile::create(dir).map_err(ctx("layout"))?;
    let listener = {
        let layout = layout.clone();
        std::thread::spawn(move || listen_as(&layout, 0))
    };
    let viz = connect_to(&layout, 0, 1, Duration::from_secs(30)).map_err(ctx("connect"))?;
    let sim = listener
        .join()
        .map_err(|_| "listener panicked".to_string())?
        .map_err(ctx("listen"))?;
    Ok((sim, viz))
}

const DATA_TAG: u32 = 0x1000;

/// Replay one load unit of `w`, recording the pipeline's spans into
/// `recorder` when one is given. `outcomes` are the untraced run's results
/// for the unit's points: a sweep journals them, a single point feeds
/// them to the journal probe. `scratch` receives the spill chunks, the
/// layout file and the journal.
pub fn replay(
    w: Workload,
    specs: &[ExperimentSpec],
    outcomes: Option<&[NativeOutcome]>,
    recorder: Option<&eth_obs::Recorder>,
    scratch: &Path,
) -> Result<Replay, String> {
    let attached = recorder.map(eth_obs::Recorder::attach);
    let mut r = Replay {
        points: specs.len(),
        ..Replay::default()
    };
    let base = &specs[0];
    let (app, ranks, steps, seed) = (&base.application, base.ranks, base.steps, base.seed);
    let internode = base.coupling == Coupling::Internode;
    let scalar = app.default_scalar();

    // Staging pass: what the first point of a fresh cache set pays.
    let budget = base.resources.as_ref().and_then(|p| p.memory_budget_bytes);
    let store = BlockStore::new(budget, Some(scratch.join("spill")));
    let mut staging = Clock::default();
    let mut bounds = Vec::with_capacity(steps);
    let mut ranges = Vec::with_capacity(steps);
    eth_obs::set_rank(0);
    for step in 0..steps {
        let global = staging
            .time("sim.generate", Phase::Sim, || app.generate(step, seed))
            .map_err(ctx("generate"))?;
        r.bytes("sim.generate", global.payload_bytes());
        bounds.push(global.bounds());
        ranges.push(global_scalar_range(&global, scalar));
        let parts = staging.time("data.partition", Phase::Stage, || partition(&global, ranks))?;
        for (rank, part) in parts.into_iter().enumerate() {
            staging
                .time("data.stage_insert", Phase::Stage, || {
                    store.insert(step * ranks + rank, part)
                })
                .map_err(ctx("stage insert"))?;
        }
    }
    r.absorb_all(&staging);
    r.staging_s = staging.0;

    let (sim_end, viz_end) = socket_pair(&scratch.join("layout"))?;
    let journal_dir = scratch.join("journal");
    let _ = std::fs::remove_dir_all(&journal_dir);
    let journal = Journal::open(&journal_dir).map_err(ctx("journal open"))?;
    let mut gets = 0u64;
    // inputs of the probes that run once the recorder is detached
    let (mut probe_blocks, mut crc_payloads) = (Vec::new(), Vec::new());

    let t_points = Instant::now();
    for (index, spec) in specs.iter().enumerate() {
        let mut point = Clock::default();
        // Internode coupling is a two-stage pipeline: the simulation side
        // (fetch, encode, send) runs ahead while frames queue at the
        // receiver, so a step's visualization work starts once its data
        // has arrived *and* the previous step is composited.
        let (mut sim_done, mut viz_done) = (0.0, 0.0);
        let mut images = Vec::new();
        for step in 0..steps {
            let options = RenderOptions {
                scalar: Some(scalar.to_string()),
                tile: spec.render.and_then(|t| t.tile),
                progressive: spec.render.and_then(|t| t.progressive_stride),
                range: ranges[step],
                ..Default::default()
            };
            let pipeline = VizPipeline::new(spec).with_options(options.clone());
            let algorithm = spec.algorithm.resolve(app, step, seed);
            let (mut slowest_sim, mut slowest) = (Clock::default(), Clock::default());
            let mut frames: Vec<Vec<Framebuffer>> = Vec::with_capacity(ranks);
            for rank in 0..ranks {
                let viz_rank = if internode { ranks + rank } else { rank };
                // simulation side (internode only) and visualization side
                let (mut sim, mut c) = (Clock::default(), Clock::default());
                eth_obs::set_rank(rank);
                gets += 1;
                let mut block = if internode { &mut sim } else { &mut c }
                    .time("data.stage_get", Phase::Stage, || {
                        store.get(step * ranks + rank)
                    })
                    .map_err(ctx("stage get"))?;
                if internode {
                    let payload =
                        sim.time("transport.encode", Phase::Encode, || encode_dataset(&block));
                    let got = sim
                        .time("transport.wire", Phase::Send, || {
                            sim_end.send(DATA_TAG + step as u32, payload.clone())?;
                            viz_end.recv(DATA_TAG + step as u32)
                        })
                        .map_err(ctx("wire"))?;
                    eth_obs::set_rank(viz_rank);
                    block = c
                        .time("transport.decode", Phase::Decode, || {
                            decode_dataset_from(rank, got)
                        })
                        .map_err(ctx("decode"))?;
                    for layer in ["transport.encode", "transport.wire", "transport.decode"] {
                        r.bytes(layer, payload.len());
                    }
                    crc_payloads.push(payload);
                } else if rank == 0 && index == 0 {
                    probe_blocks.push(block.clone());
                }
                let sampled = c
                    .time("data.sample", Phase::Stage, || pipeline.sample(&block))
                    .map_err(ctx("sample"))?;
                let mut rank_frames = Vec::with_capacity(spec.images_per_step);
                for image_index in 0..spec.images_per_step {
                    let camera = orbit_camera(
                        &bounds[step],
                        spec.width,
                        spec.height,
                        image_index,
                        spec.images_per_step,
                    );
                    let fb = match &algorithm {
                        RenderAlgorithm::RaycastSpheres { radius } => {
                            let cloud = sampled.as_points().ok_or("raycast needs particles")?;
                            let rc = c.time("render.bvh_build", Phase::BvhBuild, || {
                                SphereRaycaster::build(cloud, options.scalar.as_deref(), *radius)
                            });
                            r.count("render.bvh_build_ops", rc.build_ops());
                            let tf = match options.range {
                                Some((lo, hi)) => TransferFunction::new(options.colormap, lo, hi),
                                None => TransferFunction::fit(
                                    options.colormap,
                                    cloud.scalar(scalar).unwrap_or(&[]),
                                ),
                            };
                            let tile = options.tile.unwrap_or(DEFAULT_TILE);
                            let (fb, s) = c.time("render.raycast", Phase::Render, || {
                                rc.render_tiled(
                                    &camera,
                                    &tf,
                                    &options.lighting,
                                    options.background,
                                    tile,
                                )
                            });
                            r.count("render.rays", s.rays);
                            r.count("render.ray_steps", s.traversal_steps);
                            r.count("render.fragments", s.hits);
                            fb
                        }
                        other => {
                            let layer = if app.is_particle() {
                                "render.raster"
                            } else {
                                "render.isosurface"
                            };
                            let out = c
                                .time(layer, Phase::Render, || {
                                    render(&sampled, other, &camera, &options)
                                })
                                .map_err(ctx("render"))?;
                            r.count("render.triangles", out.stats.triangles);
                            r.count("render.fragments", out.stats.fragments);
                            // per-algorithm rates for the cost-model gap
                            let key = match spec.algorithm {
                                Algorithm::VtkPoints => "raster.vtk_points",
                                Algorithm::GaussianSplat => "raster.splat",
                                _ => "raster.mesh",
                            };
                            *r.all_s.entry(key).or_default() += out.stats.render_time.as_secs_f64();
                            r.count(key, out.stats.elements);
                            out.framebuffer
                        }
                    };
                    rank_frames.push(fb);
                }
                frames.push(rank_frames);
                r.absorb_all(&sim);
                r.absorb_all(&c);
                if sim.total() > slowest_sim.total() {
                    slowest_sim = sim;
                }
                if c.total() > slowest.total() {
                    slowest = c;
                }
            }
            point.add(&slowest_sim);
            point.add(&slowest);
            sim_done += slowest_sim.total();
            viz_done = f64::max(viz_done, sim_done) + slowest.total();

            // Sort-last composite: every rank ships its frame to rank 0.
            eth_obs::set_rank(if internode { ranks } else { 0 });
            for image_index in 0..spec.images_per_step {
                let mut comp = Clock::default();
                let comms = LocalFabric::new(ranks);
                let parts = comp.time(
                    "transport.gather",
                    Phase::Send,
                    || -> Result<Vec<Bytes>, String> {
                        let mut root = None;
                        for (comm, rank_frames) in comms.iter().zip(&frames).rev() {
                            let payload = Bytes::from(rank_frames[image_index].to_bytes());
                            root = gather(comm, 0, payload).map_err(ctx("gather"))?.or(root);
                        }
                        root.ok_or_else(|| "gather: root got nothing".to_string())
                    },
                )?;
                let (image, merges) = comp
                    .time("render.composite", Phase::Composite, || {
                        let buffers: Option<Vec<Framebuffer>> = parts
                            .iter()
                            .map(|raw| Framebuffer::from_bytes(raw))
                            .collect();
                        buffers.map(|b| {
                            let (merged, stats) = composite_direct(b);
                            (merged.into_image(), stats.merge_ops)
                        })
                    })
                    .ok_or("malformed framebuffer")?;
                r.count("render.composite_merges", merges);
                r.absorb_all(&comp);
                point.add(&comp);
                viz_done += comp.total();
                images.push(image);
            }
            eth_obs::step_mark(step as u64);
        }

        if let Some(outcome) = outcomes.filter(|_| w.is_sweep()).and_then(|o| o.get(index)) {
            let mut jc = Clock::default();
            journal_point(&mut jc, &journal, &journal_dir, index, spec, outcome)?;
            r.absorb_all(&jc);
            point.add(&jc);
            viz_done += jc.total();
        }
        r.point_layer_s.push(viz_done);
        for (k, v) in &point.0 {
            *r.point_s.entry(k).or_default() += v;
        }
        r.images.push(images);
    }
    r.wall_s = t_points.elapsed().as_secs_f64();
    drop(attached);

    // Probes, untraced and off the critical path: the CRC on its own (the
    // decode above verifies it too), the codec and the wire on the first
    // point's rank-0 blocks where the pipeline does not ship them, and the
    // journal with this unit's own outcome where the pipeline does not
    // journal.
    let mut probe = Clock::default();
    for payload in &crc_payloads {
        probe.time("data.crc", Phase::Decode, || crc32(payload));
        r.bytes("data.crc", payload.len());
    }
    for (step, block) in probe_blocks.iter().enumerate() {
        let payload = probe.time("transport.encode", Phase::Encode, || encode_dataset(block));
        probe.time("data.crc", Phase::Decode, || crc32(&payload));
        let got = probe
            .time("transport.wire", Phase::Send, || {
                sim_end.send(DATA_TAG + step as u32, payload.clone())?;
                viz_end.recv(DATA_TAG + step as u32)
            })
            .map_err(ctx("wire probe"))?;
        probe
            .time("transport.decode", Phase::Decode, || {
                decode_dataset_from(0, got)
            })
            .map_err(ctx("decode probe"))?;
        for layer in [
            "transport.encode",
            "data.crc",
            "transport.wire",
            "transport.decode",
        ] {
            r.bytes(layer, payload.len());
        }
    }
    r.absorb_all(&probe);
    if let Some(outcome) = outcomes.filter(|_| !w.is_sweep()).and_then(|o| o.first()) {
        let mut jc = Clock::default();
        journal_point(&mut jc, &journal, &journal_dir, 0, &specs[0], outcome)?;
        r.absorb_all(&jc);
        r.journal_probe_s = jc.0;
    }
    drop(journal);
    r.count("core.journal_bytes", dir_bytes(&journal_dir));
    let stats = store.stats();
    r.count("data.spilled_bytes", stats.spilled_bytes);
    r.count("data.resident_peak_bytes", stats.peak_resident_bytes);
    r.count("data.stage_gets", gets);
    r.count("data.stage_reloads", stats.reloads);
    Ok(r)
}

/// What a journaled campaign writes for one finished point: a `Started`
/// and a `Finished` record, then the persisted result.
fn journal_point(
    clock: &mut Clock,
    journal: &Journal,
    dir: &Path,
    index: usize,
    spec: &ExperimentSpec,
    outcome: &NativeOutcome,
) -> Result<(), String> {
    let spec_hash = journal::spec_hash(spec);
    let started = JournalRecord::Started {
        index,
        spec_hash,
        attempt: 1,
    };
    let finished = JournalRecord::Finished {
        index,
        spec_hash,
        attempt: 1,
        elapsed_s: outcome.wall_s,
        outcome: RecordedOutcome::Ok,
    };
    for record in [started, finished] {
        clock
            .time("core.journal_append", Phase::JournalAppend, || {
                journal.append(&record)
            })
            .map_err(ctx("journal append"))?;
    }
    clock
        .time("core.result_save", Phase::JournalAppend, || {
            journal::save_result(dir, index, spec_hash, outcome)
        })
        .map_err(ctx("result save"))
}

/// Total size of the regular files under `dir` (recursively).
fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            match entry.metadata() {
                Ok(m) if m.is_dir() => stack.push(entry.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}
