//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload (see `workload.rs` and `README.md` for why each
//! exists) from the root of a checkout. `--trace 0` measures the
//! end-to-end metrics with tracing off; `--trace 1` measures the same
//! untraced loop, then replays the workload layer by layer with an
//! `eth_obs` recorder attached and reports the per-layer metrics. Every
//! image is checked; the last stdout line is the JSON result, and a
//! failed point or a wrong image makes the exit code nonzero. Full
//! records (samples, quartiles, host, counts) go to `perfbench/out/`.

mod replay;
mod report;
mod workload;

use replay::{replay, Replay};
use report::{median, Metric, RunReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use workload::{same_images, Measurement, Workload};

/// Cold set-ups per run, each in a fresh process with its own seed derived
/// from the run's seed: `setup_s` is their median and `peak_rss_mb` their
/// mean, because a workload's memory depends on its dataset (W3's varies
/// by ±13% from seed to seed) and one unlucky dataset should not set it.
const SETUP_RUNS: usize = 4;
/// Untraced and traced replays per run for the single-point workloads
/// (the sweep replays once each: one replay is eight points).
const REPLAYS: usize = 3;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
                     workloads: hacc-internode-raycast, xrage-tight-isosurface, hacc-sweep-spill";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("setup-child") {
        std::process::exit(setup_child(&argv[1..]));
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    std::process::exit(run(&args));
}

/// `perfbench setup-child NAME SEED DIR`: one cold set-up in this fresh
/// process; prints `setup_s=<seconds> peak_rss_mb=<VmHWM in MiB>`.
fn setup_child(argv: &[String]) -> i32 {
    let (Some(w), Some(seed), Some(dir)) = (
        argv.first().and_then(|n| Workload::parse(n)),
        argv.get(1).and_then(|s| s.parse::<u64>().ok()),
        argv.get(2),
    ) else {
        eprintln!("usage: perfbench setup-child NAME SEED DIR");
        return 2;
    };
    match workload::cold_setup(w, seed, Path::new(dir)) {
        Ok(s) => {
            println!("setup_s={s} peak_rss_mb={}", report::peak_rss_mib());
            0
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

/// Cold set-ups, each in a fresh child process (waited for) with seed
/// `SETUP_RUNS * seed + k`: their wall seconds and peak resident sets.
fn setups(
    w: Workload,
    seed: u64,
    scratch: &Path,
    failures: &mut Vec<String>,
) -> (Vec<f64>, Vec<f64>) {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            failures.push(format!("setup: {e}"));
            return (Vec::new(), Vec::new());
        }
    };
    let (mut setup_s, mut rss) = (Vec::new(), Vec::new());
    for k in 0..SETUP_RUNS {
        let dir = scratch.join(format!("setup-{k}"));
        let child_seed = seed.wrapping_mul(SETUP_RUNS as u64).wrapping_add(k as u64);
        let out = Command::new(&exe)
            .args(["setup-child", w.name(), &child_seed.to_string()])
            .arg(&dir)
            .output();
        let _ = std::fs::remove_dir_all(&dir);
        let parsed = out.ok().filter(|o| o.status.success()).and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout).into_owned();
            let field = |key: &str| {
                text.split_whitespace()
                    .find_map(|f| f.strip_prefix(key).and_then(|v| v.parse::<f64>().ok()))
            };
            Some((field("setup_s=")?, field("peak_rss_mb=")?))
        });
        match parsed {
            Some((s, mb)) => {
                setup_s.push(s);
                rss.push(mb);
            }
            None => failures.push(format!("setup {k} failed")),
        }
    }
    (setup_s, rss)
}

fn end_to_end(
    w: Workload,
    m: &Measurement,
    setup_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
) -> Vec<(&'static str, Metric)> {
    let throughput = if w.is_sweep() {
        // one sample per sweep: its points over its wall time
        let points = m.points_done as f64 / m.sweep_s.len().max(1) as f64;
        let per_sweep = m.sweep_s.iter().map(|s| points / s).collect();
        Metric {
            value: m.points_done as f64 / m.busy_s,
            ..Metric::from_samples(per_sweep)
        }
    } else {
        Metric::single(m.points_done as f64 / m.busy_s)
    };
    vec![
        ("setup_s", Metric::from_samples(setup_s)),
        ("point_s_p50", Metric::from_samples(m.point_s.clone())),
        ("sweep_points_per_s", throughput),
        (
            "peak_rss_mb",
            Metric {
                value: peak_rss_mb.iter().sum::<f64>() / peak_rss_mb.len().max(1) as f64,
                ..Metric::from_samples(peak_rss_mb)
            },
        ),
    ]
}

/// Per-layer values of one replay of workload `w`.
fn layer_values(w: Workload, r: &Replay) -> BTreeMap<&'static str, f64> {
    let cal = eth_cluster::Calibration::default();
    let staging = |k: &str| r.staging_s.get(k).copied().unwrap_or(0.0);
    let gets = r.counted("data.stage_gets");
    let rays = r.counted("render.rays");
    let per_ray = |v: f64| if rays > 0.0 { v / rays } else { 0.0 };
    let journal = |k: &str| {
        if w.is_sweep() {
            r.per_point(k)
        } else {
            r.journal_probe_s.get(k).copied().unwrap_or(0.0)
        }
    };
    let raycast_s = r.all_s.get("render.raycast").copied().unwrap_or(0.0);
    let merges = r.counted("render.composite_merges");
    BTreeMap::from([
        ("sim.generate_s", staging("sim.generate")),
        ("sim.bytes_per_s", r.bytes_per_s("sim.generate")),
        ("data.partition_s", staging("data.partition")),
        ("data.sample_s", r.per_point("data.sample")),
        ("data.crc_bytes_per_s", r.bytes_per_s("data.crc")),
        ("data.stage_insert_s", staging("data.stage_insert")),
        ("data.stage_get_s", r.per_point("data.stage_get")),
        (
            "data.stage_hit_ratio",
            (gets - r.counted("data.stage_reloads")) / gets.max(1.0),
        ),
        ("data.spilled_bytes", r.counted("data.spilled_bytes")),
        (
            "data.resident_peak_bytes",
            r.counted("data.resident_peak_bytes"),
        ),
        (
            "transport.encode_bytes_per_s",
            r.bytes_per_s("transport.encode"),
        ),
        (
            "transport.decode_bytes_per_s",
            r.bytes_per_s("transport.decode"),
        ),
        (
            "transport.wire_bytes_per_s",
            r.bytes_per_s("transport.wire"),
        ),
        ("transport.gather_s", r.per_point("transport.gather")),
        ("render.bvh_build_s", r.per_point("render.bvh_build")),
        ("render.bvh_build_ops", r.counted("render.bvh_build_ops")),
        ("render.raycast_s", r.per_point("render.raycast")),
        ("render.ns_per_ray", per_ray(raycast_s * 1e9)),
        (
            "render.ray_steps_per_ray",
            per_ray(r.counted("render.ray_steps")),
        ),
        ("render.isosurface_s", r.per_point("render.isosurface")),
        ("render.triangles", r.counted("render.triangles")),
        ("render.raster_s", r.per_point("render.raster")),
        ("render.fragments", r.counted("render.fragments")),
        ("render.composite_s", r.per_point("render.composite")),
        (
            "render.composite_pixels_per_s",
            r.rate(merges, "render.composite"),
        ),
        ("core.journal_append_s", journal("core.journal_append")),
        ("core.result_save_s", journal("core.result_save")),
        ("core.journal_bytes", r.counted("core.journal_bytes")),
        (
            "cluster.gap.ray_steps_per_sec",
            r.rate(r.counted("render.ray_steps"), "render.raycast") / cal.ray_steps_per_sec,
        ),
        (
            "cluster.gap.bvh_build_ops_per_sec",
            r.rate(r.counted("render.bvh_build_ops"), "render.bvh_build")
                / cal.bvh_build_ops_per_sec,
        ),
        (
            "cluster.gap.tris_per_sec",
            r.rate(r.counted("render.triangles"), "raster.mesh") / cal.tris_per_sec,
        ),
        (
            "cluster.gap.vtk_points_per_sec",
            r.rate(r.counted("raster.vtk_points"), "raster.vtk_points") / cal.vtk_points_per_sec,
        ),
        (
            "cluster.gap.splat_points_per_sec",
            r.rate(r.counted("raster.splat"), "raster.splat") / cal.splat_points_per_sec,
        ),
        (
            "cluster.gap.composite_pixels_per_sec",
            r.rate(merges, "render.composite") / cal.composite_pixels_per_sec,
        ),
        (
            "cluster.gap.sim_bytes_per_sec",
            r.bytes_per_s("sim.generate") / cal.sim_bytes_per_sec,
        ),
    ])
}

/// Layers only one workload loads, and that workload. On the others the
/// value is taken from a replay of the owner with the same seed, so the
/// metric is a measured reference rather than a constant zero; the
/// console and the results file mark it `[ref:<owner>]`.
const OWNED_LAYERS: &[(&str, Workload)] = &[
    ("render.bvh_build_s", Workload::HaccInternodeRaycast),
    ("render.raycast_s", Workload::HaccInternodeRaycast),
    ("render.ns_per_ray", Workload::HaccInternodeRaycast),
    (
        "cluster.gap.ray_steps_per_sec",
        Workload::HaccInternodeRaycast,
    ),
    (
        "cluster.gap.bvh_build_ops_per_sec",
        Workload::HaccInternodeRaycast,
    ),
    ("render.isosurface_s", Workload::XrageTightIsosurface),
    ("cluster.gap.tris_per_sec", Workload::XrageTightIsosurface),
    ("render.raster_s", Workload::HaccSweepSpill),
    ("cluster.gap.vtk_points_per_sec", Workload::HaccSweepSpill),
    ("cluster.gap.splat_points_per_sec", Workload::HaccSweepSpill),
];

/// Counts a replay must reproduce exactly, replay to replay.
fn replay_counts(r: &Replay) -> BTreeMap<String, f64> {
    r.counts
        .iter()
        // result headers and WAL records carry wall-clock floats, so the
        // journal's size is not an exact count
        .filter(|(k, _)| **k != "core.journal_bytes")
        .map(|(k, v)| (format!("replay.{k}"), *v as f64))
        .collect()
}

struct Traced {
    metrics: Vec<(&'static str, Metric)>,
    counts: BTreeMap<String, f64>,
}

/// The traced run: untraced and traced replays of this workload, one
/// untraced replay of each owner of a bypassed layer, and the Chrome
/// trace export.
fn traced_run(
    w: Workload,
    seed: u64,
    m: &Measurement,
    scratch: &Path,
    trace_path: &Path,
    failures: &mut Vec<String>,
) -> Result<Traced, String> {
    // a replay stages into its own scratch dir; the specs' spill dir only
    // names one
    let specs = w.specs(seed, &scratch.join("unused-spill"));
    let rounds = if w.is_sweep() { 1 } else { REPLAYS };
    let outcomes = Some(m.outcomes.as_slice());
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let recorder = eth_obs::Recorder::new();
    // alternate which side goes first, so neither always runs cold; each
    // replay's spill chunks are deleted before the next one starts, so its
    // pending writeback does not slow the next
    for k in 0..rounds {
        for traced_turn in [k % 2 == 1, k % 2 == 0] {
            let dir = scratch.join(format!("replay-{k}-{}", traced_turn as u8));
            let sink = traced_turn.then_some(&recorder);
            let r = replay(w, &specs, outcomes, sink, &dir)?;
            let _ = std::fs::remove_dir_all(&dir);
            if traced_turn {
                traced.push(r);
            } else {
                untraced.push(r);
            }
        }
    }
    let chrome = recorder.take().to_chrome_trace();
    check_chrome(&chrome).map_err(|e| format!("chrome trace: {e}"))?;
    std::fs::write(trace_path, chrome).map_err(|e| format!("write trace: {e}"))?;

    // replay faithfulness: same images as the untraced run, same counts
    let first_counts = replay_counts(&traced[0]);
    for (k, r) in untraced.iter().chain(&traced).enumerate() {
        if r.images.len() != m.reference.len()
            || r.images
                .iter()
                .zip(&m.reference)
                .any(|(a, b)| !same_images(a, b))
        {
            failures.push(format!("replay {k}: images differ from the harness run"));
        }
        if replay_counts(r) != first_counts {
            failures.push(format!("replay {k}: counts differ between replays"));
        }
    }

    let per_replay: Vec<BTreeMap<&str, f64>> = traced.iter().map(|r| layer_values(w, r)).collect();
    let mut values: BTreeMap<String, Metric> = BTreeMap::new();
    for name in per_replay[0].keys() {
        let samples = per_replay.iter().map(|v| v[name]).collect();
        values.insert(name.to_string(), Metric::from_samples(samples));
    }
    for owner in Workload::ALL.into_iter().filter(|o| *o != w) {
        let names: Vec<&str> = OWNED_LAYERS
            .iter()
            .filter(|(_, o)| *o == owner)
            .map(|(n, _)| *n)
            .collect();
        if names.is_empty() {
            continue;
        }
        let owner_specs = owner.specs(seed, &scratch.join("unused-spill"));
        let dir = scratch.join(format!("ref-{}", owner.name()));
        let r = replay(owner, &owner_specs, None, None, &dir)?;
        let _ = std::fs::remove_dir_all(&dir);
        let owner_values = layer_values(owner, &r);
        for name in names {
            values.insert(
                name.to_string(),
                Metric {
                    source: format!("ref:{}", owner.name()),
                    ..Metric::single(owner_values[name])
                },
            );
        }
    }

    // accounting: the untraced point time = traced layer times + overhead;
    // a sweep's point time includes its share of the staging pass
    let points = specs.len() as f64;
    let p50 = median(&m.point_s);
    let overhead: Vec<f64> = traced
        .iter()
        .map(|r| {
            let layers = if w.is_sweep() {
                (r.staging_s.values().sum::<f64>() + r.point_layer_s.iter().sum::<f64>()) / points
            } else {
                median(&r.point_layer_s)
            };
            p50 - layers
        })
        .collect();
    values.insert(
        "core.harness_overhead_s".into(),
        Metric::from_samples(overhead),
    );
    let walls = |rs: &[Replay]| median(&rs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    values.insert(
        "obs.trace_overhead_s".into(),
        Metric::single((walls(&traced) - walls(&untraced)) / points),
    );
    values.insert(
        "transport.bytes_moved".into(),
        Metric::single(
            m.counts
                .get("transport.bytes_moved")
                .copied()
                .unwrap_or(0.0)
                / points,
        ),
    );
    values.insert(
        "core.staging_hit_ratio".into(),
        Metric::single(m.staging_hit_ratio),
    );
    for phase in report::CP_PHASES {
        let samples = m.cp_shares.get(*phase).cloned().unwrap_or_default();
        values.insert(
            format!("cp.{phase}_share"),
            if samples.is_empty() {
                Metric::single(0.0)
            } else {
                Metric::from_samples(samples)
            },
        );
    }

    let metrics = report::PER_LAYER
        .iter()
        .map(|(name, _)| {
            let metric = values
                .remove(*name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (*name, metric)
        })
        .collect();
    Ok(Traced {
        metrics,
        counts: first_counts,
    })
}

/// The exported trace must load back through `eth_obs`'s Chrome reader,
/// the one `reproduce trace-analyze` uses.
fn check_chrome(text: &str) -> Result<(), String> {
    let value = serde_json::parse_value_complete(text).map_err(|e| e.to_string())?;
    let (trace, _) = eth_obs::trace_from_chrome(&value).map_err(|e| e.to_string())?;
    if trace.spans().next().is_none() {
        return Err("no spans recorded".into());
    }
    Ok(())
}

/// Compare this run's exact counts with an earlier run of the same
/// workload and seed in this checkout, then store the union.
fn check_counts_file(path: &Path, counts: &BTreeMap<String, f64>, failures: &mut Vec<String>) {
    let mut stored: BTreeMap<String, f64> = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| serde_json::from_str(&t).ok())
        .unwrap_or_default();
    for (k, v) in counts {
        match stored.get(k) {
            Some(old) if old.to_bits() != v.to_bits() => failures.push(format!(
                "count {k} = {v} does not repeat the earlier run's {old}"
            )),
            _ => {
                stored.insert(k.clone(), *v);
            }
        }
    }
    if let Ok(text) = serde_json::to_string_pretty(&stored) {
        let _ = std::fs::write(path, text);
    }
}

fn run(args: &Args) -> i32 {
    let w = args.workload;
    let out_dir = PathBuf::from("perfbench/out");
    let scratch = out_dir
        .join("tmp")
        .join(format!("{}-{}", w.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch)
        .and_then(|_| std::fs::create_dir_all(out_dir.join("counts")))
    {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return 1;
    }
    // internode layout files go to the temp dir: keep them in the checkout
    std::env::set_var(
        "TMPDIR",
        std::fs::canonicalize(&scratch).unwrap_or_else(|_| scratch.clone()),
    );

    let mut failures = Vec::new();
    let (setup_s, peak_rss_mb) = if args.trace {
        (Vec::new(), Vec::new())
    } else {
        setups(w, args.seed, &scratch, &mut failures)
    };
    let m = workload::measure(w, args.seed, args.seconds, &scratch);
    let loop_peak_rss_mb = report::peak_rss_mib();
    failures.extend(m.failures.iter().cloned());
    let setup_attempts = if args.trace { 0 } else { SETUP_RUNS as u64 };
    let mut attempted = m.attempted + setup_attempts;
    // exact values a later run of the same workload and seed must repeat
    let mut counts: BTreeMap<String, f64> = m
        .counts
        .iter()
        .map(|(k, v)| (format!("harness.{k}"), *v))
        .collect();
    counts.extend(m.rmse.iter().map(|(k, v)| (format!("rmse.{k}"), *v)));

    let stem = format!("{}-seed{}", w.name(), args.seed);
    let metrics = if !args.trace {
        if m.point_s.is_empty() || setup_s.is_empty() {
            failures.push("no design point completed".into());
        }
        end_to_end(w, &m, setup_s, peak_rss_mb)
    } else if m.outcomes.is_empty() {
        failures.push("no design point completed".into());
        Vec::new()
    } else {
        let trace_path = out_dir.join(format!("{stem}.trace.json"));
        attempted += 1;
        match traced_run(w, args.seed, &m, &scratch, &trace_path, &mut failures) {
            Ok(t) => {
                counts.extend(t.counts);
                t.metrics
            }
            Err(e) => {
                failures.push(format!("traced run: {e}"));
                Vec::new()
            }
        }
    };
    check_counts_file(
        &out_dir.join("counts").join(format!("{stem}.json")),
        &counts,
        &mut failures,
    );
    let _ = std::fs::remove_dir_all(&scratch);

    let report = RunReport {
        workload: w.name(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        metrics,
        counts,
        rmse: m.rmse.clone(),
        loop_peak_rss_mb,
        attempted,
        failures,
    };
    report.print_console();
    let record = out_dir.join(format!("{stem}-trace{}.json", args.trace as u8));
    if let Ok(text) = serde_json::to_string_pretty(&report.to_file_value()) {
        let _ = std::fs::write(&record, text);
    }
    // metrics the run could not measure leave the result line incomplete
    // only together with a failure, which makes the exit code nonzero
    match serde_json::to_string(&report.to_result_line()) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: result line: {e}");
            return 1;
        }
    }
    if report.failures.is_empty() {
        0
    } else {
        1
    }
}
