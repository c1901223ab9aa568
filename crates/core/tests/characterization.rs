//! Characterization of the native executor over every valid
//! coupling × mode cell.
//!
//! One table: {tight, intercore, internode, internode with one viz rank}
//! × {plain, seeded fault plan, recovery policy, recovery + scripted kill,
//! migration (Sudden / Fluid / Rescale where the spec validates)}. Each
//! cell pins what the harness already promises elsewhere:
//!
//! * images byte-identical to the tight baseline for clean runs, recovery
//!   without faults, every migration, and a kill with adoption (every
//!   image for intercore, the pre-kill images for internode);
//! * `bytes_moved` on every clean cell equal to a recorded golden;
//! * the fault counters of the seeded-fault cells equal to recorded
//!   goldens (a total-drop plan, the schedule `fault_degradation_is_reproducible`
//!   already treats as deterministic);
//! * one loss and one adoption on every kill cell, and the planned
//!   handoffs on every migration cell.

use eth_core::{
    run_native, Algorithm, Application, Coupling, ExperimentSpec, MigrationPattern, MigrationPlan,
    NativeOutcome, RecoveryPolicy,
};
use eth_transport::{FaultPlan, HeartbeatPolicy};

const STEPS: usize = 3;
const KILL: (usize, usize) = (1, 1); // (victim sim rank, step)

#[derive(Debug, Clone, Copy)]
enum Mode {
    Plain,
    Faulty,
    Recovering,
    Killed,
    Migrating(MigrationPattern),
}

fn base(coupling: Coupling, viz_ranks: Option<usize>) -> ExperimentSpec {
    let mut b = ExperimentSpec::builder("characterize")
        .application(Application::Hacc { particles: 2_000 })
        .algorithm(Algorithm::GaussianSplat)
        .coupling(coupling)
        .ranks(2)
        .steps(STEPS)
        .images_per_step(2)
        .image_size(32, 32);
    if let Some(v) = viz_ranks {
        b = b.viz_ranks(v);
    }
    b.build().unwrap()
}

/// A beat budget wide enough that a starved beater on a loaded box is not
/// declared dead (a spurious death would change the cell's counts).
fn recovery() -> RecoveryPolicy {
    RecoveryPolicy {
        heartbeat: HeartbeatPolicy {
            interval_ms: 10,
            miss_budget: 30,
        },
        max_rank_losses: 1,
        adopt: true,
    }
}

fn cell_spec(coupling: Coupling, viz_ranks: Option<usize>, mode: Mode) -> ExperimentSpec {
    let mut spec = base(coupling, viz_ranks);
    match mode {
        Mode::Plain => {}
        Mode::Faulty => {
            spec.fault_plan = Some(
                FaultPlan::seeded(77)
                    .with_drop(1.0)
                    .with_recv_deadline_ms(150),
            )
        }
        Mode::Recovering => spec.recovery = Some(recovery()),
        Mode::Killed => {
            spec.recovery = Some(recovery());
            spec.fault_plan = Some(FaultPlan::seeded(7).with_kill_rank_at_step(KILL.0, KILL.1));
        }
        Mode::Migrating(pattern) => {
            spec.recovery = Some(recovery());
            spec.migration = Some(MigrationPlan::new(pattern));
        }
    }
    spec
}

/// Recorded `bytes_moved` of every clean cell.
fn golden_bytes(cell: &str) -> u64 {
    match cell {
        "tight/plain" | "tight/recovering" => 98_424,
        "intercore/plain" | "intercore/recovering" => 314_886,
        "intercore/sudden" => 249_613,
        "intercore/fluid" => 380_925,
        "internode/plain" | "internode/recovering" => 314_886,
        "internode/sudden" => 249_613,
        "internode/fluid" => 380_925,
        "internode/rescale3" => 314_958,
        "internode-viz1/plain" | "internode-viz1/recovering" => 216_462,
        "internode-viz1/rescale3" | "internode-viz1/rescale2" => 282_445,
        other => panic!("no golden bytes for {other}"),
    }
}

/// Recorded fault counters of every seeded-fault cell:
/// `(dropped_steps, degraded_steps, timeouts, disconnects, corrupt_payloads)`.
fn golden_faults(cell: &str) -> (u64, u64, u64, u64, u64) {
    match cell {
        "tight/faulty" => (0, 0, 0, 0, 0),
        "intercore/faulty" => (6, 0, 6, 0, 0),
        // the simulation side finishes its dropped sends and hangs up
        // before the receive deadline: the link reads as disconnected
        "internode/faulty" => (6, 0, 0, 6, 0),
        "internode-viz1/faulty" => (3, 0, 0, 6, 0),
        other => panic!("no golden faults for {other}"),
    }
}

#[test]
fn every_coupling_and_mode_keeps_its_images_bytes_and_counts() {
    let baseline = run_native(&base(Coupling::Tight, None)).unwrap();
    assert_eq!(baseline.images.len(), STEPS * 2);
    let couplings = [
        ("tight", Coupling::Tight, None),
        ("intercore", Coupling::Intercore, None),
        ("internode", Coupling::Internode, None),
        ("internode-viz1", Coupling::Internode, Some(1)),
    ];
    let modes = [
        ("plain", Mode::Plain),
        ("faulty", Mode::Faulty),
        ("recovering", Mode::Recovering),
        ("killed", Mode::Killed),
        (
            "sudden",
            Mode::Migrating(MigrationPattern::Sudden {
                from: 1,
                to: 0,
                at_step: 1,
            }),
        ),
        (
            "fluid",
            Mode::Migrating(MigrationPattern::Fluid {
                from: 0,
                to: 1,
                start_step: 1,
            }),
        ),
        (
            "rescale3",
            Mode::Migrating(MigrationPattern::Rescale {
                viz_ranks: 3,
                at_step: 1,
            }),
        ),
        (
            "rescale2",
            Mode::Migrating(MigrationPattern::Rescale {
                viz_ranks: 2,
                at_step: 1,
            }),
        ),
    ];
    let mut ran = 0;
    for (cname, coupling, viz) in couplings {
        for (mname, mode) in modes {
            let spec = cell_spec(coupling, viz, mode);
            if spec.validate().is_err() {
                continue; // not a valid cell (e.g. a kill under tight coupling)
            }
            let cell = format!("{cname}/{mname}");
            let out = run_native(&spec).unwrap_or_else(|e| panic!("{cell} failed: {e}"));
            check_cell(&cell, &spec, mode, &baseline, &out);
            ran += 1;
        }
    }
    // tight: 3 cells; intercore: 6; internode: 7; one viz rank: 6
    assert_eq!(ran, 22, "the valid-cell table changed shape");
}

fn check_cell(
    cell: &str,
    spec: &ExperimentSpec,
    mode: Mode,
    baseline: &NativeOutcome,
    out: &NativeOutcome,
) {
    let d = &out.degradation;
    assert_eq!(
        out.images.len(),
        baseline.images.len(),
        "{cell}: image count"
    );
    match mode {
        Mode::Plain | Mode::Recovering | Mode::Migrating(_) => {
            assert_eq!(out.images, baseline.images, "{cell}: images diverged");
            assert_eq!(out.bytes_moved, golden_bytes(cell), "{cell}: bytes_moved");
            assert_eq!(d.rank_losses, 0, "{cell}: {d:?}");
            assert_eq!(d.faults_and_steps(), (0, 0, 0, 0, 0), "{cell}: {d:?}");
            if let Mode::Migrating(_) = mode {
                let planned = spec.migration_handoffs().len() as u64;
                assert_eq!(d.migrations, planned, "{cell}: {d:?}");
                assert_eq!(d.migration_failures, 0, "{cell}: {d:?}");
            } else {
                assert!(d.is_clean(), "{cell}: {d:?}");
            }
        }
        Mode::Faulty => {
            assert_eq!(d.faults_and_steps(), golden_faults(cell), "{cell}: {d:?}");
        }
        Mode::Killed => {
            assert_eq!(d.rank_losses, 1, "{cell}: {d:?}");
            assert_eq!(d.adopted_partitions, 1, "{cell}: {d:?}");
            assert_eq!(out.recovery_latency_s.len(), 1, "{cell}");
            // Intercore promises every image; internode the pre-kill ones.
            let promised = match spec.coupling {
                Coupling::Intercore => out.images.len(),
                _ => KILL.1 * spec.images_per_step,
            };
            assert_eq!(
                out.images[..promised],
                baseline.images[..promised],
                "{cell}: adopted images diverged"
            );
        }
    }
}

trait FaultCounts {
    fn faults_and_steps(&self) -> (u64, u64, u64, u64, u64);
}

impl FaultCounts for eth_core::Degradation {
    fn faults_and_steps(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.dropped_steps,
            self.degraded_steps,
            self.timeouts,
            self.disconnects,
            self.corrupt_payloads,
        )
    }
}
