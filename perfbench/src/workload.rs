//! The three workloads and their untraced, end-to-end measurement.
//!
//! Every load is a closed loop: a design point (or, for the sweep, a whole
//! journaled campaign) starts only after the previous one has finished.
//! The program is driven only through its public entry points,
//! [`run_native_cached`] on one [`RunCaches`] per load unit and
//! [`Campaign::run_journaled`]; the workload seed reaches it only as
//! `ExperimentSpec.seed`.

use eth_core::config::ResourcePolicy;
use eth_core::{
    run_native_cached, Algorithm, Application, Campaign, Coupling, ExperimentSpec, NativeOutcome,
    RunCaches, Sweep,
};
use eth_render::Image;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Staging memory budget of the sweep: well below its ~128 MiB of staged
/// blocks, so staging spills and every point reloads from disk.
const SWEEP_BUDGET_BYTES: u64 = 48 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// W1: the paper's space-shared headline point. 10^6 HACC particles
    /// cross a loopback socket from one simulation rank to one
    /// visualization rank, which raycasts spheres over an HLBVH. Loads
    /// the codec (encode, decode + CRC), the wire, the BVH build and ray
    /// traversal.
    HaccInternodeRaycast,
    /// W2: an xRAGE 128^3 grid, tight coupling, VTK isosurface on two
    /// ranks. Never encodes, never touches a socket, never builds a BVH:
    /// codec, wire and raycaster changes must show no change here. Loads
    /// grid generation, marching cubes, triangle raster and the two-rank
    /// composite.
    XrageTightIsosurface,
    /// W3: a journaled campaign of 8 points (VTK points and Gaussian
    /// splats at sampling ratios 1, 0.5, 0.25, 0.1) over 10^6 HACC
    /// particles staged under a 48 MiB budget. The only workload that
    /// spills and reloads staged blocks, hits the staging cache, samples,
    /// and appends to a journal.
    HaccSweepSpill,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HaccInternodeRaycast,
        Workload::XrageTightIsosurface,
        Workload::HaccSweepSpill,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HaccInternodeRaycast => "hacc-internode-raycast",
            Workload::XrageTightIsosurface => "xrage-tight-isosurface",
            Workload::HaccSweepSpill => "hacc-sweep-spill",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_sweep(self) -> bool {
        self == Workload::HaccSweepSpill
    }

    /// The design points of one load unit: the single point of W1 and W2,
    /// or W3's eight-point sweep. `spill_dir` receives W3's spill chunks.
    pub fn specs(self, seed: u64, spill_dir: &Path) -> Vec<ExperimentSpec> {
        let base = ExperimentSpec::builder(self.name())
            .steps(4)
            .images_per_step(1)
            .image_size(640, 480)
            .seed(seed);
        let base = match self {
            Workload::HaccInternodeRaycast => base
                .application(Application::Hacc {
                    particles: 1_000_000,
                })
                .algorithm(Algorithm::RaycastSpheres)
                .coupling(Coupling::Internode)
                .ranks(1),
            Workload::XrageTightIsosurface => base
                .application(Application::Xrage { dims: [128; 3] })
                .algorithm(Algorithm::VtkIsosurface)
                .coupling(Coupling::Tight)
                .ranks(2),
            Workload::HaccSweepSpill => base
                .application(Application::Hacc {
                    particles: 1_000_000,
                })
                .algorithm(Algorithm::VtkPoints)
                .coupling(Coupling::Tight)
                .ranks(2)
                .resources(ResourcePolicy {
                    spill_dir: Some(spill_dir.to_path_buf()),
                    ..ResourcePolicy::with_memory_budget(SWEEP_BUDGET_BYTES)
                }),
        };
        let base = base.build().expect("workload specs are valid");
        if !self.is_sweep() {
            return vec![base];
        }
        Sweep::over(base)
            .algorithms(&[Algorithm::VtkPoints, Algorithm::GaussianSplat])
            .sampling_ratios(&[1.0, 0.5, 0.25, 0.1])
            .specs()
            .expect("sweep specs are valid")
    }
}

/// What the untraced loop measured and checked.
#[derive(Default)]
pub struct Measurement {
    /// Wall seconds per design point: W1/W2 warm points timed around
    /// `run_native_cached`; W3 each sweep's wall time over its points.
    pub point_s: Vec<f64>,
    /// W3: wall seconds of each whole journaled sweep.
    pub sweep_s: Vec<f64>,
    /// Points completed in the timed loop, and the loop's busy wall time.
    pub points_done: usize,
    pub busy_s: f64,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Exact counts of one load unit (checked to repeat inside the run).
    pub counts: BTreeMap<String, f64>,
    /// W3: RMSE of each sampled point against its full-fidelity baseline.
    pub rmse: BTreeMap<String, f64>,
    /// Critical-path share samples per phase, from `NativeOutcome`.
    pub cp_shares: BTreeMap<String, Vec<f64>>,
    pub staging_hit_ratio: f64,
    /// Per point of the load unit: the images a replay must reproduce.
    pub reference: Vec<Vec<Image>>,
    /// Outcomes of the last load unit (the journal replay persists them).
    pub outcomes: Vec<NativeOutcome>,
}

impl Measurement {
    fn fail(&mut self, what: String) {
        eprintln!("perfbench: FAILED {what}");
        self.failures.push(what);
    }

    /// Record a unit's counts; a later unit must reproduce them exactly.
    fn check_counts(&mut self, unit: &str, counts: BTreeMap<String, f64>) {
        if self.counts.is_empty() {
            self.counts = counts;
        } else if self.counts != counts {
            self.fail(format!(
                "{unit}: counts {counts:?} differ from {:?}",
                self.counts
            ));
        }
    }

    fn record_cp(&mut self, outcome: &NativeOutcome) {
        let Some(cp) = &outcome.critical_path else {
            return;
        };
        if cp.total_s <= 0.0 {
            return;
        }
        let mut shares: BTreeMap<String, f64> = cp
            .phases
            .iter()
            .map(|p| (p.phase.clone(), p.share))
            .collect();
        shares.insert("idle".into(), cp.idle_s / cp.total_s);
        for phase in crate::report::CP_PHASES {
            let share = shares.get(*phase).copied().unwrap_or(0.0);
            self.cp_shares
                .entry(phase.to_string())
                .or_default()
                .push(share);
        }
    }
}

/// The harness's own counts for a set of outcomes, summed.
fn harness_counts<'a>(outcomes: impl Iterator<Item = &'a NativeOutcome>) -> BTreeMap<String, f64> {
    let mut c: BTreeMap<String, f64> = BTreeMap::new();
    for o in outcomes {
        let s = &o.stats;
        for (name, v) in [
            ("transport.bytes_moved", o.bytes_moved),
            ("render.build_ops", s.build_ops),
            ("render.rays", s.rays),
            ("render.ray_steps", s.ray_steps),
            ("render.triangles", s.triangles),
            ("render.fragments", s.fragments),
        ] {
            *c.entry(name.to_string()).or_default() += v as f64;
        }
    }
    c
}

/// Byte-identical image check (pixel bit patterns, not float equality).
pub fn same_images(a: &[Image], b: &[Image]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.width() == y.width()
                && x.height() == y.height()
                && x.pixels().iter().zip(y.pixels()).all(|(p, q)| {
                    p.x.to_bits() == q.x.to_bits()
                        && p.y.to_bits() == q.y.to_bits()
                        && p.z.to_bits() == q.z.to_bits()
                })
        })
}

fn mean_rmse(images: &[Image], baseline: &[Image]) -> f64 {
    let sum: f64 = images
        .iter()
        .zip(baseline)
        .map(|(a, b)| a.rmse(b).unwrap_or(f64::NAN))
        .sum();
    sum / images.len().max(1) as f64
}

/// One cold first point on a fresh [`RunCaches`]: generate + partition +
/// stage + run. Returns its wall seconds.
pub fn cold_setup(w: Workload, seed: u64, scratch: &Path) -> Result<f64, String> {
    let spec = w.specs(seed, &scratch.join("spill")).remove(0);
    let caches = RunCaches::new();
    let t = Instant::now();
    run_native_cached(&spec, &caches).map_err(|e| format!("cold setup: {e}"))?;
    Ok(t.elapsed().as_secs_f64())
}

/// Run the workload's closed loop for `seconds` (at least one load unit).
pub fn measure(w: Workload, seed: u64, seconds: f64, scratch: &Path) -> Measurement {
    if w.is_sweep() {
        measure_sweeps(w, seed, seconds, scratch)
    } else {
        measure_points(w, seed, seconds, scratch)
    }
}

/// W1/W2: one cold point, then warm points on the same caches, each
/// checked byte-identical to the tight ratio-1.0 baseline.
fn measure_points(w: Workload, seed: u64, seconds: f64, scratch: &Path) -> Measurement {
    let mut m = Measurement::default();
    let spec = w.specs(seed, &scratch.join("spill")).remove(0);
    let caches = RunCaches::new();
    m.attempted += 1;
    let cold = match run_native_cached(&spec, &caches) {
        Ok(o) => o,
        Err(e) => {
            m.fail(format!("cold point: {e}"));
            return m;
        }
    };
    let baseline = match caches.baseline_images(&spec) {
        Ok(b) => b,
        Err(e) => {
            m.fail(format!("baseline: {e}"));
            return m;
        }
    };
    if !same_images(&cold.images, &baseline) {
        m.fail("cold point: images differ from the baseline".into());
    }
    m.check_counts("cold point", harness_counts(std::iter::once(&cold)));
    let budget = Duration::from_secs_f64(seconds);
    let t_loop = Instant::now();
    while t_loop.elapsed() < budget {
        m.attempted += 1;
        let t = Instant::now();
        let result = run_native_cached(&spec, &caches);
        let dt = t.elapsed().as_secs_f64();
        match result {
            Ok(o) => {
                m.point_s.push(dt);
                if !same_images(&o.images, &baseline) {
                    m.fail(format!(
                        "warm point {}: images differ from the baseline",
                        m.point_s.len()
                    ));
                }
                m.check_counts("warm point", harness_counts(std::iter::once(&o)));
                m.record_cp(&o);
            }
            Err(e) => m.fail(format!("warm point: {e}")),
        }
    }
    m.points_done = m.point_s.len();
    m.busy_s = m.point_s.iter().sum();
    m.staging_hit_ratio = caches.stats().staging_hit_rate();
    m.reference = vec![baseline.to_vec()];
    m.outcomes = vec![cold];
    m
}

/// W3: whole journaled sweeps, each on a fresh cache set, journal dir and
/// spill dir, until the timed sweeps add up to `seconds`, and at least two
/// so every run checks that a sweep reproduces the one before it. The
/// correctness checks between sweeps stay out of that budget, so the
/// number of sweeps depends only on how long a sweep takes.
fn measure_sweeps(w: Workload, seed: u64, seconds: f64, scratch: &Path) -> Measurement {
    let mut m = Measurement::default();
    let mut sweep = 0;
    while sweep < 2 || m.busy_s < seconds {
        sweep += 1;
        let dir = scratch.join(format!("sweep-{sweep}"));
        let specs = w.specs(seed, &dir.join("spill"));
        let caches = RunCaches::new();
        m.attempted += specs.len() as u64;
        let t = Instant::now();
        let result =
            Campaign::with_capacity(1).run_journaled(&specs, &caches, &dir.join("journal"));
        let dt = t.elapsed().as_secs_f64();
        let outcome = match result {
            Ok(o) => o,
            Err(e) => {
                for spec in &specs {
                    m.fail(format!("sweep {sweep} {}: {e}", spec.name));
                }
                let _ = std::fs::remove_dir_all(&dir);
                break;
            }
        };
        m.sweep_s.push(dt);
        m.busy_s += dt;
        m.points_done += specs.len();
        if !outcome.restored.is_empty() {
            m.fail(format!(
                "sweep {sweep}: {} points restored from a stale journal",
                outcome.restored.len()
            ));
        }
        m.staging_hit_ratio = outcome.cache.staging_hit_rate();
        let mut outcomes = Vec::with_capacity(specs.len());
        for (spec, result) in specs.iter().zip(outcome.results) {
            match result {
                Ok(o) => outcomes.push(o),
                Err(e) => m.fail(format!("sweep {sweep} {}: {e}", spec.name)),
            }
        }
        if outcomes.len() != specs.len() {
            let _ = std::fs::remove_dir_all(&dir);
            break;
        }
        // the sweep's points differ by algorithm and ratio (1 to 2.5 s),
        // so a median over single points jumps between those clusters;
        // a sweep's mean point time is what its user waits per point
        m.point_s.push(dt / specs.len() as f64);
        for o in &outcomes {
            m.record_cp(o);
        }
        m.check_counts(&format!("sweep {sweep}"), harness_counts(outcomes.iter()));
        // correctness, outside the timed sweep: in the first sweep,
        // ratio-1.0 points must be byte-identical to the baseline and
        // sampled points record their RMSE against it; every later sweep
        // must reproduce the first one's images bit for bit (so its RMSE
        // repeats exactly) without rendering the baselines again
        if !m.reference.is_empty() {
            let changed: Vec<String> = specs
                .iter()
                .zip(&outcomes)
                .zip(&m.reference)
                .filter(|((_, o), first)| !same_images(&o.images, first))
                .map(|((spec, _), _)| {
                    format!("sweep {sweep} {}: images differ from sweep 1", spec.name)
                })
                .collect();
            for what in changed {
                m.fail(what);
            }
        } else {
            for (spec, o) in specs.iter().zip(&outcomes) {
                match caches.baseline_images(spec) {
                    Ok(baseline) if spec.sampling_ratio == 1.0 => {
                        if !same_images(&o.images, &baseline) {
                            m.fail(format!("{}: images differ from the baseline", spec.name));
                        }
                    }
                    Ok(baseline) => {
                        m.rmse
                            .insert(spec.name.clone(), mean_rmse(&o.images, &baseline));
                    }
                    Err(e) => m.fail(format!("baseline for {}: {e}", spec.name)),
                }
            }
        }
        m.reference = outcomes.iter().map(|o| o.images.clone()).collect();
        m.outcomes = outcomes;
        let _ = std::fs::remove_dir_all(&dir);
    }
    m
}
