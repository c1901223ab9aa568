//! Metric catalogue, sample statistics, provenance and the output files.

use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// End-to-end metrics (`--trace 0`): name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("point_s_p50", "s"),
    ("sweep_points_per_s", "points/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name, unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.generate_s", "s"),
    ("sim.bytes_per_s", "B/s"),
    ("data.partition_s", "s"),
    ("data.sample_s", "s"),
    ("data.crc_bytes_per_s", "B/s"),
    ("data.stage_insert_s", "s"),
    ("data.stage_get_s", "s"),
    ("data.stage_hit_ratio", "ratio"),
    ("data.spilled_bytes", "B"),
    ("data.resident_peak_bytes", "B"),
    ("transport.encode_bytes_per_s", "B/s"),
    ("transport.decode_bytes_per_s", "B/s"),
    ("transport.wire_bytes_per_s", "B/s"),
    ("transport.gather_s", "s"),
    ("transport.bytes_moved", "B"),
    ("render.bvh_build_s", "s"),
    ("render.bvh_build_ops", "count"),
    ("render.raycast_s", "s"),
    ("render.ns_per_ray", "ns"),
    ("render.ray_steps_per_ray", "ratio"),
    ("render.isosurface_s", "s"),
    ("render.triangles", "count"),
    ("render.raster_s", "s"),
    ("render.fragments", "count"),
    ("render.composite_s", "s"),
    ("render.composite_pixels_per_s", "1/s"),
    ("core.journal_append_s", "s"),
    ("core.result_save_s", "s"),
    ("core.journal_bytes", "B"),
    ("core.staging_hit_ratio", "ratio"),
    ("core.harness_overhead_s", "s"),
    ("obs.trace_overhead_s", "s"),
    ("cp.render_share", "ratio"),
    ("cp.decode_share", "ratio"),
    ("cp.encode_share", "ratio"),
    ("cp.recv_share", "ratio"),
    ("cp.composite_share", "ratio"),
    ("cp.idle_share", "ratio"),
    ("cluster.gap.ray_steps_per_sec", "ratio"),
    ("cluster.gap.bvh_build_ops_per_sec", "ratio"),
    ("cluster.gap.tris_per_sec", "ratio"),
    ("cluster.gap.vtk_points_per_sec", "ratio"),
    ("cluster.gap.splat_points_per_sec", "ratio"),
    ("cluster.gap.composite_pixels_per_sec", "ratio"),
    ("cluster.gap.sim_bytes_per_sec", "ratio"),
];

/// Critical-path phases reported as `cp.<phase>_share`.
pub const CP_PHASES: &[&str] = &["render", "decode", "encode", "recv", "composite", "idle"];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or("")
}

/// Median and quartiles as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method); a single sample is
/// its own median and quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n == 0 {
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    if n == 1 {
        return (x[0], x[0], x[0]);
    }
    let q = |i: usize| {
        let m = (n + 1) * i;
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (4 * j) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// One reported metric: its value and the samples behind it.
pub struct Metric {
    pub value: f64,
    pub samples: Vec<f64>,
    /// Where a per-layer value comes from: this workload's replay, or
    /// the replay of the workload that loads a layer this one bypasses.
    pub source: String,
}

impl Metric {
    pub fn from_samples(samples: Vec<f64>) -> Metric {
        Metric {
            value: median(&samples),
            samples,
            source: "own".into(),
        }
    }

    pub fn single(value: f64) -> Metric {
        Metric::from_samples(vec![value])
    }

    fn to_value(&self, name: &str) -> Value {
        let (q1, med, q3) = quartiles(&self.samples);
        obj(vec![
            ("value", num(self.value)),
            ("unit", Value::Str(unit_of(name).into())),
            ("n", Value::U64(self.samples.len() as u64)),
            ("median", num(med)),
            ("q1", num(q1)),
            ("q3", num(q3)),
            ("source", Value::Str(self.source.clone())),
        ])
    }

    /// `name = value unit (n, q1 / median / q3)` for the console.
    pub fn line(&self, name: &str) -> String {
        let (q1, med, q3) = quartiles(&self.samples);
        let source = if self.source == "own" {
            String::new()
        } else {
            format!(" [{}]", self.source)
        };
        format!(
            "{name} = {} {} (n={}, q1={q1:.6}, median={med:.6}, q3={q3:.6}){source}",
            self.value,
            unit_of(name),
            self.samples.len()
        )
    }
}

pub fn num(v: f64) -> Value {
    if v.is_finite() {
        Value::F64(v)
    } else {
        Value::Null
    }
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn map_value(map: &BTreeMap<String, f64>) -> Value {
    Value::Object(map.iter().map(|(k, v)| (k.clone(), num(*v))).collect())
}

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    out.status
        .success()
        .then(|| text.lines().next().unwrap_or("").trim().to_string())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Host fingerprint and source revision.
pub fn provenance() -> Value {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let revision = if Path::new(".git").exists() {
        first_line("git", &["rev-parse", "HEAD"])
    } else {
        None
    };
    obj(vec![
        (
            "cpu",
            Value::Str(proc_field("/proc/cpuinfo", "model name").unwrap_or_default()),
        ),
        ("nproc", Value::U64(nproc as u64)),
        (
            "mem_total",
            Value::Str(proc_field("/proc/meminfo", "MemTotal").unwrap_or_default()),
        ),
        (
            "rustc",
            Value::Str(first_line("rustc", &["--version"]).unwrap_or_default()),
        ),
        (
            "git_revision",
            Value::Str(revision.unwrap_or_else(|| "unknown (not a git checkout)".into())),
        ),
    ])
}

/// Everything a run reports, for the console, the results file and the
/// result line.
pub struct RunReport<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub metrics: Vec<(&'static str, Metric)>,
    pub counts: BTreeMap<String, f64>,
    pub rmse: BTreeMap<String, f64>,
    /// `VmHWM` of the measuring process after its timed loop: it grows
    /// with allocator fragmentation over a varying number of points, so
    /// it is recorded beside `peak_rss_mb` rather than gated.
    pub loop_peak_rss_mb: f64,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl RunReport<'_> {
    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }

    pub fn error_rate(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    pub fn print_console(&self) {
        println!(
            "workload {} seed {} ({} s, trace {})",
            self.workload, self.seed, self.seconds, self.trace as u8
        );
        for (name, m) in &self.metrics {
            println!("  {}", m.line(name));
        }
        println!(
            "  loop_peak_rss_mb = {} MiB (the measuring process)",
            self.loop_peak_rss_mb
        );
        println!(
            "  error_rate = {} ratio ({} failed of {} attempted)",
            self.error_rate(),
            self.failed(),
            self.attempted
        );
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
    }

    /// The full record: provenance, every metric with its samples, counts.
    pub fn to_file_value(&self) -> Value {
        obj(vec![
            ("schema", Value::Str("eth-perfbench/v1".into())),
            ("workload", Value::Str(self.workload.into())),
            ("seed", Value::U64(self.seed)),
            ("seconds", num(self.seconds)),
            ("trace", Value::Bool(self.trace)),
            ("host", provenance()),
            (
                "metrics",
                Value::Object(
                    self.metrics
                        .iter()
                        .map(|(n, m)| (n.to_string(), m.to_value(n)))
                        .collect(),
                ),
            ),
            ("loop_peak_rss_mb", num(self.loop_peak_rss_mb)),
            ("error_rate", num(self.error_rate())),
            ("attempted", Value::U64(self.attempted)),
            (
                "failures",
                Value::Array(
                    self.failures
                        .iter()
                        .map(|f| Value::Str(f.clone()))
                        .collect(),
                ),
            ),
            ("counts", map_value(&self.counts)),
            ("rmse", map_value(&self.rmse)),
        ])
    }

    /// The result line, printed last on standard output: correctness,
    /// attempts and metric values.
    pub fn to_result_line(&self) -> Value {
        obj(vec![
            ("correct", Value::Bool(self.failures.is_empty())),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed())),
            (
                "metrics",
                Value::Object(
                    self.metrics
                        .iter()
                        .map(|(n, m)| {
                            (
                                n.to_string(),
                                obj(vec![
                                    ("value", num(m.value)),
                                    ("unit", Value::Str(unit_of(n).into())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}
