//! The `mpirun` equivalent: launch N ranks and join them.
//!
//! "In the first case, experiments are easily run using the standard batch
//! scheduler" (Section III-C) — in this harness the "batch scheduler" is a
//! thread per rank. [`launch`] is the one launcher the native harness uses
//! for every coupling: it runs a list of rank bodies (whatever fabric or
//! sockets they captured), converts panics and overruns into a structured
//! [`RankFailure`], and — given a [`HeartbeatBoard`] — doubles as the
//! liveness supervisor. [`run_ranks`] wires a [`LocalFabric`] for tests
//! and collectives; the socket fabric has its own bootstrap (see
//! [`crate::socket`]), which [`run_ranks_socket`] wires the same way.

use crate::comm::{Communicator, Result};
use crate::layout::LayoutFile;
use crate::local::{LocalComm, LocalFabric};
use crate::socket::SocketFabric;
use crossbeam::channel::{unbounded, RecvTimeoutError};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Spawn `size` ranks over an in-process fabric, run `body` on each, and
/// join. Returns per-rank results (indexed by rank).
///
/// Panics in a rank are propagated as a panic here (after all ranks are
/// joined), matching the fail-fast behaviour of `mpirun`.
pub fn run_ranks<T, F>(size: usize, body: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(LocalComm) -> T + Send + Sync + Clone + 'static,
{
    let comms = LocalFabric::new(size);
    // Rank threads inherit the launcher's flight-recorder sinks so a
    // per-run or campaign recorder sees rank-side spans tagged by rank.
    let obs = eth_obs::current_context();
    let handles: Vec<_> = comms
        .into_iter()
        .map(|comm| {
            let body = body.clone();
            let obs = obs.clone();
            thread::Builder::new()
                .name(format!("eth-rank-{}", comm.rank()))
                .spawn(move || {
                    let _obs = obs.attach();
                    eth_obs::set_rank(comm.rank());
                    body(comm)
                })
                .expect("spawn rank thread")
        })
        .collect();
    let mut results = Vec::with_capacity(size);
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
    for h in handles {
        match h.join() {
            Ok(v) => results.push(v),
            Err(p) => panic = Some(p),
        }
    }
    if let Some(p) = panic {
        std::panic::resume_unwind(p);
    }
    results
}

/// Like [`run_ranks`] but with fallible rank bodies: the first error is
/// returned after all ranks complete.
pub fn try_run_ranks<T, F>(size: usize, body: F) -> Result<Vec<T>>
where
    T: Send + 'static,
    F: Fn(LocalComm) -> Result<T> + Send + Sync + Clone + 'static,
{
    let mut out = Vec::with_capacity(size);
    for r in run_ranks(size, body) {
        out.push(r?);
    }
    Ok(out)
}

/// Spawn `size` ranks over a loopback socket fabric bootstrapped through a
/// layout directory at `layout_dir`.
pub fn run_ranks_socket<T, F>(size: usize, layout_dir: &Path, body: F) -> Result<Vec<T>>
where
    T: Send + 'static,
    F: Fn(SocketFabric) -> T + Send + Sync + Clone + 'static,
{
    let layout = LayoutFile::create(layout_dir)?;
    layout.clear()?;
    let obs = eth_obs::current_context();
    let handles: Vec<_> = (0..size)
        .map(|rank| {
            let body = body.clone();
            let layout = layout.clone();
            let obs = obs.clone();
            thread::Builder::new()
                .name(format!("eth-sock-rank-{rank}"))
                .spawn(move || {
                    let _obs = obs.attach();
                    eth_obs::set_rank(rank);
                    let comm =
                        SocketFabric::bootstrap(rank, size, &layout, Duration::from_secs(30))?;
                    Ok::<T, crate::comm::TransportError>(body(comm))
                })
                .expect("spawn rank thread")
        })
        .collect();
    let mut results = Vec::with_capacity(size);
    for h in handles {
        match h.join() {
            Ok(Ok(v)) => results.push(v),
            Ok(Err(e)) => return Err(e),
            Err(p) => std::panic::resume_unwind(p),
        }
    }
    Ok(results)
}

/// How a supervised run failed: a rank panicked, or a rank failed to
/// finish within its wall-clock budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankFailure {
    /// A rank's body panicked; `message` is the panic payload when it was
    /// a string.
    Panic { rank: usize, message: String },
    /// A rank did not finish within the budget. Under the global-deadline
    /// fallback the rank reported is one that had not completed when the
    /// budget expired and `last_step` is `None`; under heartbeat
    /// supervision it is the rank that *stopped beating*, with the last
    /// step it completed before going silent.
    Hang {
        rank: usize,
        waited: Duration,
        last_step: Option<usize>,
    },
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankFailure::Panic { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            RankFailure::Hang {
                rank,
                waited,
                last_step: Some(step),
            } => write!(
                f,
                "rank {rank} stopped beating after completing step {step} \
                 (silent for {:.3}s)",
                waited.as_secs_f64()
            ),
            RankFailure::Hang {
                rank,
                waited,
                last_step: None,
            } => write!(
                f,
                "rank {rank} did not finish within {:.3}s",
                waited.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for RankFailure {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-rank liveness beacons: how often a healthy rank must beat, and how
/// many missed intervals mark it dead. Replaces the single global hang
/// deadline for detection (the global budget stays as a backstop): a dead
/// rank is noticed in `interval_ms × miss_budget` milliseconds instead of
/// at the end of the whole run's wall-clock budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeartbeatPolicy {
    /// Expected beacon interval, milliseconds.
    #[serde(default = "default_heartbeat_interval_ms")]
    pub interval_ms: u64,
    /// Consecutive missed intervals before a rank is declared dead.
    #[serde(default = "default_heartbeat_miss_budget")]
    pub miss_budget: u32,
}

fn default_heartbeat_interval_ms() -> u64 {
    25
}

fn default_heartbeat_miss_budget() -> u32 {
    4
}

impl Default for HeartbeatPolicy {
    fn default() -> HeartbeatPolicy {
        HeartbeatPolicy {
            interval_ms: default_heartbeat_interval_ms(),
            miss_budget: default_heartbeat_miss_budget(),
        }
    }
}

impl HeartbeatPolicy {
    /// Silence longer than this marks a rank dead.
    pub fn detection_deadline(&self) -> Duration {
        Duration::from_millis(self.interval_ms.max(1) * self.miss_budget.max(1) as u64)
    }

    /// How often the supervisor scans the board (half the beat interval,
    /// floored at 1 ms, so detection latency stays O(interval)).
    pub fn poll_interval(&self) -> Duration {
        Duration::from_millis((self.interval_ms / 2).max(1))
    }

    /// Sanity-check the policy, naming the offending field.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.interval_ms == 0 {
            return Err("heartbeat interval_ms must be > 0".into());
        }
        if self.miss_budget == 0 {
            return Err("heartbeat miss_budget must be > 0".into());
        }
        Ok(())
    }
}

const RANK_ALIVE: u8 = 0;
const RANK_DONE: u8 = 1;
const RANK_DEAD: u8 = 2;

struct RankSlot {
    /// Nanoseconds since board origin of the last beacon.
    last_beat_ns: AtomicU64,
    /// Last *completed* step + 1 (0 = none completed yet).
    last_step: AtomicU64,
    state: AtomicU8,
}

/// One confirmed rank death, as recorded by the supervisor scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeathNotice {
    /// The rank that stopped beating.
    pub rank: usize,
    /// The last step it completed before going silent, if any.
    pub last_step: Option<usize>,
    /// Board-origin nanoseconds of its last beacon.
    pub last_beat_ns: u64,
    /// Board-origin nanoseconds when the supervisor declared it dead.
    pub detected_ns: u64,
}

impl DeathNotice {
    /// Silence between the last beacon and the declaration — the
    /// detection half of recovery latency.
    pub fn detection_latency(&self) -> Duration {
        Duration::from_nanos(self.detected_ns.saturating_sub(self.last_beat_ns))
    }
}

/// Shared liveness board: every rank posts beacons, a supervisor scans for
/// silence, and survivors consult it to learn who died (and at which step)
/// without ever messaging the dead peer. Lock-free on the beat path — one
/// atomic store per beacon.
pub struct HeartbeatBoard {
    origin: Instant,
    slots: Vec<RankSlot>,
    notices: Mutex<Vec<DeathNotice>>,
}

impl HeartbeatBoard {
    /// A board for `size` ranks; every rank starts alive with a beacon at
    /// the origin, so a rank that dies before its first beat is still
    /// detected one detection-deadline after the board is created.
    pub fn new(size: usize) -> Arc<HeartbeatBoard> {
        Arc::new(HeartbeatBoard {
            origin: Instant::now(),
            slots: (0..size)
                .map(|_| RankSlot {
                    last_beat_ns: AtomicU64::new(0),
                    last_step: AtomicU64::new(0),
                    state: AtomicU8::new(RANK_ALIVE),
                })
                .collect(),
            notices: Mutex::new(Vec::new()),
        })
    }

    pub fn size(&self) -> usize {
        self.slots.len()
    }

    /// Nanoseconds since the board's origin (the liveness clock).
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Post a liveness beacon for `rank`.
    pub fn beat(&self, rank: usize) {
        self.slots[rank].last_beat_ns.store(self.now_ns(), Ordering::Release);
    }

    /// Record that `rank` completed `step`, which doubles as a beacon.
    /// Monotonic: a late or reordered report of an earlier step never
    /// rewinds the attribution (fetch_max, not store), so concurrent
    /// reporters can race without corrupting `last_step`.
    pub fn step_done(&self, rank: usize, step: usize) {
        self.slots[rank]
            .last_step
            .fetch_max(step as u64 + 1, Ordering::AcqRel);
        self.beat(rank);
    }

    /// Mark `rank` cleanly finished: it stops beating and must not be
    /// declared dead. Keeps an existing DEAD state (a dead rank's
    /// tombstone return does not resurrect it).
    pub fn mark_done(&self, rank: usize) {
        let _ = self.slots[rank].state.compare_exchange(
            RANK_ALIVE,
            RANK_DONE,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    pub fn is_dead(&self, rank: usize) -> bool {
        self.slots[rank].state.load(Ordering::Acquire) == RANK_DEAD
    }

    pub fn is_done(&self, rank: usize) -> bool {
        self.slots[rank].state.load(Ordering::Acquire) == RANK_DONE
    }

    /// The last step `rank` completed, if any.
    pub fn last_step(&self, rank: usize) -> Option<usize> {
        match self.slots[rank].last_step.load(Ordering::Acquire) {
            0 => None,
            s => Some(s as usize - 1),
        }
    }

    /// Board-origin nanoseconds of `rank`'s last beacon.
    pub fn last_beat_ns(&self, rank: usize) -> u64 {
        self.slots[rank].last_beat_ns.load(Ordering::Acquire)
    }

    /// Declare `rank` dead (idempotent). Returns the notice when this call
    /// made the transition.
    pub fn declare_dead(&self, rank: usize) -> Option<DeathNotice> {
        let flipped = self.slots[rank]
            .state
            .compare_exchange(RANK_ALIVE, RANK_DEAD, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if !flipped {
            return None;
        }
        let notice = DeathNotice {
            rank,
            last_step: self.last_step(rank),
            last_beat_ns: self.last_beat_ns(rank),
            detected_ns: self.now_ns(),
        };
        self.notices.lock().unwrap().push(notice);
        Some(notice)
    }

    /// One supervisor scan: declare dead every alive rank silent for
    /// longer than `detection`. Returns the *new* notices.
    pub fn scan(&self, detection: Duration) -> Vec<DeathNotice> {
        let now = self.now_ns();
        let limit = detection.as_nanos() as u64;
        let mut fresh = Vec::new();
        for rank in 0..self.slots.len() {
            if self.slots[rank].state.load(Ordering::Acquire) != RANK_ALIVE {
                continue;
            }
            if now.saturating_sub(self.last_beat_ns(rank)) > limit {
                if let Some(n) = self.declare_dead(rank) {
                    fresh.push(n);
                }
            }
        }
        fresh
    }

    /// All deaths declared so far, in declaration order.
    pub fn deaths(&self) -> Vec<DeathNotice> {
        self.notices.lock().unwrap().clone()
    }

    /// The first death declared for `rank`, if any.
    pub fn death_of(&self, rank: usize) -> Option<DeathNotice> {
        self.notices.lock().unwrap().iter().find(|n| n.rank == rank).copied()
    }

    /// The stalest still-alive rank — the best hang suspect when the
    /// global budget expires before any detection fires.
    pub fn stalest_alive(&self) -> Option<usize> {
        (0..self.slots.len())
            .filter(|&r| self.slots[r].state.load(Ordering::Acquire) == RANK_ALIVE)
            .min_by_key(|&r| self.last_beat_ns(r))
    }

    /// Block until `rank` is declared dead (the parked tombstone path a
    /// kill-injected rank takes: a dead node does not "finish early", it
    /// goes silent until the supervisor notices). Bounded by `budget`.
    pub fn await_death(&self, rank: usize, budget: Duration) -> Option<DeathNotice> {
        let deadline = Instant::now() + budget;
        while Instant::now() < deadline {
            if self.is_dead(rank) {
                return self.death_of(rank);
            }
            thread::sleep(Duration::from_millis(1));
        }
        self.death_of(rank)
    }
}

/// Handoff states on a [`MigrationBook`]. A handoff starts `PENDING` and
/// makes exactly one transition: `COMMITTED` (the target accepted and the
/// ack landed) or `ABORTED` (timeout, refusal, or the source's sim rank
/// died mid-handoff).
pub const HANDOFF_PENDING: u8 = 0;
pub const HANDOFF_COMMITTED: u8 = 1;
pub const HANDOFF_ABORTED: u8 = 2;

/// Shared arbitration board for live migration: one atomic cell per
/// planned handoff. The single compare-and-swap out of `PENDING` is the
/// linearization point that makes a migration racing a rank death resolve
/// deterministically — whichever transition lands first wins, both sides
/// observe the same winner, and the loser's path degrades cleanly (a lost
/// commit means "no migration happened"; a lost abort means the new owner
/// already has everything it needs).
pub struct MigrationBook {
    slots: Vec<AtomicU8>,
}

impl MigrationBook {
    /// A book for `handoffs` planned handoffs, all `PENDING`.
    pub fn new(handoffs: usize) -> Arc<MigrationBook> {
        Arc::new(MigrationBook {
            slots: (0..handoffs).map(|_| AtomicU8::new(HANDOFF_PENDING)).collect(),
        })
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Commit handoff `h`: `PENDING → COMMITTED`. `true` iff this call won
    /// the transition (an already-aborted handoff stays aborted).
    pub fn try_commit(&self, h: usize) -> bool {
        self.slots[h]
            .compare_exchange(
                HANDOFF_PENDING,
                HANDOFF_COMMITTED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Abort handoff `h`: `PENDING → ABORTED`. `true` iff this call won
    /// the transition (an already-committed handoff stays committed).
    pub fn abort(&self, h: usize) -> bool {
        self.slots[h]
            .compare_exchange(
                HANDOFF_PENDING,
                HANDOFF_ABORTED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    pub fn status(&self, h: usize) -> u8 {
        self.slots[h].load(Ordering::Acquire)
    }

    pub fn is_committed(&self, h: usize) -> bool {
        self.status(h) == HANDOFF_COMMITTED
    }

    pub fn is_aborted(&self, h: usize) -> bool {
        self.status(h) == HANDOFF_ABORTED
    }

    pub fn is_pending(&self, h: usize) -> bool {
        self.status(h) == HANDOFF_PENDING
    }

    /// Handoffs that reached `COMMITTED`.
    pub fn committed(&self) -> usize {
        (0..self.len()).filter(|&h| self.is_committed(h)).count()
    }

    /// Handoffs that reached `ABORTED`.
    pub fn aborted(&self) -> usize {
        (0..self.len()).filter(|&h| self.is_aborted(h)).count()
    }
}

/// One rank for [`launch`]. Its `id` names the thread, tags the rank's
/// flight-recorder spans and, below the [`Liveness`] board's size, is its
/// heartbeat slot.
pub struct RankBody<T, E> {
    id: usize,
    body: Box<dyn FnOnce() -> std::result::Result<T, E> + Send>,
}

impl<T, E> RankBody<T, E> {
    pub fn new(
        id: usize,
        body: impl FnOnce() -> std::result::Result<T, E> + Send + 'static,
    ) -> Self {
        RankBody {
            id,
            body: Box::new(body),
        }
    }
}

/// Heartbeat supervision for [`launch`]: the collector scans `board` at
/// the policy's poll interval, declares ranks silent for longer than the
/// detection deadline dead, and fails the run once more than
/// `max_losses` have died. `handoffs` lists `(handoff, sim rank)` pairs
/// arbitrated in the same scan: a pending handoff whose simulation rank
/// died is aborted on `book` — death wins.
pub struct Liveness {
    pub board: Arc<HeartbeatBoard>,
    pub policy: HeartbeatPolicy,
    pub max_losses: usize,
    pub book: Arc<MigrationBook>,
    pub handoffs: Vec<(usize, usize)>,
}

impl Liveness {
    fn on_board(&self, id: usize) -> bool {
        id < self.board.size()
    }

    /// One supervision pass: detect deaths, arbitrate handoffs, enforce
    /// the loss budget (the newest death is the one that broke it).
    fn scan(&self) -> std::result::Result<(), RankFailure> {
        self.board.scan(self.policy.detection_deadline());
        for &(handoff, rank) in &self.handoffs {
            if self.book.is_pending(handoff) && self.board.is_dead(rank) {
                self.book.abort(handoff);
            }
        }
        let deaths = self.board.deaths();
        match deaths.last() {
            Some(d) if deaths.len() > self.max_losses => Err(RankFailure::Hang {
                rank: d.rank,
                waited: d.detection_latency(),
                last_step: d.last_step,
            }),
            _ => Ok(()),
        }
    }
}

/// Launch one thread per rank body and collect every body's value, in
/// body order. Rank threads inherit the caller's flight-recorder sinks.
///
/// The first body error is returned as soon as it arrives, and a panic
/// becomes a structured [`RankFailure::Panic`]. With a `budget`, a run
/// still unfinished when it expires fails with [`RankFailure::Hang`]
/// instead of wedging. On any failure, ranks still running are
/// *detached*, not killed (Rust threads cannot be cancelled): they finish
/// on their own and their results are discarded.
///
/// With `liveness`, the collector doubles as the heartbeat supervisor
/// (see [`Liveness`]): ranks on the board are beaten once at spawn and
/// marked done when they report, a silent one is declared dead after
/// `interval × miss_budget`, and the run keeps going while at most
/// `max_losses` ranks have died. A dead rank's slot stays `None` unless
/// it reports a tombstone within one more detection window. Without
/// liveness every slot is `Some` on success.
pub fn launch<T, E>(
    ranks: Vec<RankBody<T, E>>,
    budget: Option<Duration>,
    liveness: Option<Liveness>,
) -> std::result::Result<Vec<Option<T>>, E>
where
    T: Send + 'static,
    E: From<RankFailure> + Send + 'static,
{
    let ids: Vec<usize> = ranks.iter().map(|r| r.id).collect();
    let size = ranks.len();
    let (tx, rx) = unbounded();
    let obs = eth_obs::current_context();
    for (slot, rank) in ranks.into_iter().enumerate() {
        if let Some(live) = liveness.as_ref().filter(|l| l.on_board(rank.id)) {
            live.board.beat(rank.id);
        }
        let tx = tx.clone();
        let obs = obs.clone();
        thread::Builder::new()
            .name(format!("eth-rank-{}", rank.id))
            .spawn(move || {
                let result = {
                    let _obs = obs.attach();
                    eth_obs::set_rank(rank.id);
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(rank.body))
                };
                // Detaching flushed the rank's buffered spans: a caller
                // draining its recorder after the launch sees all of them.
                let _ = tx.send((slot, result));
            })
            .expect("spawn rank thread");
    }
    drop(tx);
    let deadline = budget.map(|b| Instant::now() + b);
    let mut outputs: Vec<Option<T>> = (0..size).map(|_| None).collect();
    // Once only dead ranks are outstanding, they get one more detection
    // window to deliver a parked tombstone before the run ends without them.
    let mut tombstone_grace: Option<Instant> = None;
    loop {
        let next = match (&liveness, deadline) {
            (Some(live), _) => rx.recv_timeout(live.policy.poll_interval()),
            (None, Some(d)) => rx.recv_deadline(d),
            (None, None) => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match next {
            Ok((slot, Ok(Ok(value)))) => {
                if let Some(live) = liveness.as_ref().filter(|l| l.on_board(ids[slot])) {
                    live.board.mark_done(ids[slot]);
                }
                outputs[slot] = Some(value);
            }
            Ok((_, Ok(Err(e)))) => return Err(e),
            Ok((slot, Err(payload))) => {
                return Err(RankFailure::Panic {
                    rank: ids[slot],
                    message: panic_message(payload.as_ref()),
                }
                .into())
            }
            Err(RecvTimeoutError::Timeout) => {}
            // every rank thread exited and the queue is drained
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if let Some(live) = &liveness {
            live.scan()?;
        }
        let outstanding: Vec<usize> = (0..size)
            .filter(|&s| outputs[s].is_none())
            .map(|s| ids[s])
            .collect();
        if outstanding.is_empty() {
            break;
        }
        let only_dead = liveness.as_ref().filter(|live| {
            outstanding
                .iter()
                .all(|&id| live.on_board(id) && live.board.is_dead(id))
        });
        match only_dead {
            Some(live) => {
                let since = *tombstone_grace.get_or_insert_with(Instant::now);
                if since.elapsed() > live.policy.detection_deadline() {
                    break;
                }
            }
            None => tombstone_grace = None,
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            // the backstop, with heartbeat attribution when possible
            let board = liveness.as_ref().map(|l| &l.board);
            let rank = board
                .and_then(|b| b.stalest_alive())
                .unwrap_or(outstanding[0]);
            return Err(RankFailure::Hang {
                rank,
                waited: budget.unwrap_or_default(),
                last_step: board
                    .filter(|b| rank < b.size())
                    .and_then(|b| b.last_step(rank)),
            }
            .into());
        }
    }
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{allreduce_f64, barrier};
    use crate::comm::Communicator;
    use bytes::Bytes;
    use std::sync::atomic::AtomicBool;

    /// [`launch`] over a local fabric: rank `i` runs `body` on endpoint `i`.
    fn launch_fabric<T, F>(
        size: usize,
        budget: Duration,
        liveness: Option<Liveness>,
        body: F,
    ) -> std::result::Result<Vec<Option<T>>, RankFailure>
    where
        T: Send + 'static,
        F: Fn(LocalComm) -> T + Send + Clone + 'static,
    {
        let ranks = LocalFabric::new(size)
            .into_iter()
            .map(|comm| {
                let body = body.clone();
                RankBody::new(comm.rank(), move || Ok(body(comm)))
            })
            .collect();
        launch(ranks, Some(budget), liveness)
    }

    /// Heartbeat supervision over a fresh board of `size` slots.
    fn watched(size: usize, max_losses: usize) -> (Arc<HeartbeatBoard>, Liveness) {
        let board = HeartbeatBoard::new(size);
        let live = Liveness {
            board: board.clone(),
            policy: fast_policy(),
            max_losses,
            book: MigrationBook::new(0),
            handoffs: Vec::new(),
        };
        (board, live)
    }

    /// [`launch_fabric`] under [`watched`] supervision; bodies get the board.
    fn launch_heartbeat<T, F>(
        size: usize,
        max_losses: usize,
        budget: Duration,
        body: F,
    ) -> std::result::Result<(Vec<Option<T>>, Vec<DeathNotice>), RankFailure>
    where
        T: Send + 'static,
        F: Fn(LocalComm, Arc<HeartbeatBoard>) -> T + Send + Clone + 'static,
    {
        let (board, live) = watched(size, max_losses);
        let shared = board.clone();
        let outputs = launch_fabric(size, budget, Some(live), move |c| body(c, shared.clone()))?;
        Ok((outputs, board.deaths()))
    }

    #[test]
    fn ranks_see_their_ids() {
        let ids = run_ranks(4, |c| (c.rank(), c.size()));
        assert_eq!(ids, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn results_indexed_by_rank() {
        let sq = run_ranks(5, |c| c.rank() * c.rank());
        assert_eq!(sq, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn ring_pass_over_runner() {
        let sums = run_ranks(4, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 0, Bytes::from(vec![c.rank() as u8])).unwrap();
            let from_prev = c.recv(prev, 0).unwrap()[0] as usize;
            barrier(&c).unwrap();
            from_prev
        });
        assert_eq!(sums, vec![3, 0, 1, 2]);
    }

    #[test]
    fn collectives_work_over_runner() {
        let totals = run_ranks(6, |c| {
            allreduce_f64(&c, vec![1.0], |a, b| a + b).unwrap()[0]
        });
        assert!(totals.iter().all(|&t| t == 6.0));
    }

    #[test]
    fn try_run_ranks_propagates_errors() {
        let r = try_run_ranks(3, |c| {
            if c.rank() == 1 {
                Err(crate::comm::TransportError::InvalidArgument("boom".into()))
            } else {
                Ok(c.rank())
            }
        });
        assert!(r.is_err());
    }

    #[test]
    #[should_panic(expected = "rank 2 exploded")]
    fn rank_panic_propagates() {
        run_ranks(3, |c| {
            if c.rank() == 2 {
                panic!("rank 2 exploded");
            }
        });
    }

    #[test]
    fn supervised_clean_run_matches_unsupervised() {
        let sq = launch_fabric(5, Duration::from_secs(30), None, |c| c.rank() * c.rank()).unwrap();
        assert_eq!(sq, vec![Some(0), Some(1), Some(4), Some(9), Some(16)]);
    }

    #[test]
    fn supervised_panic_becomes_structured_failure() {
        let err = launch_fabric(3, Duration::from_secs(30), None, |c| {
            if c.rank() == 1 {
                panic!("rank 1 exploded");
            }
            c.rank()
        })
        .unwrap_err();
        match err {
            RankFailure::Panic { rank, message } => {
                assert_eq!(rank, 1);
                assert!(message.contains("exploded"), "{message}");
            }
            other => panic!("expected Panic, got {other:?}"),
        }
    }

    #[test]
    fn supervised_hang_becomes_structured_failure() {
        let start = Instant::now();
        let err = launch_fabric(2, Duration::from_millis(100), None, |c| {
            if c.rank() == 1 {
                // a wedged rank: sleeps far past the budget
                thread::sleep(Duration::from_secs(5));
            }
            c.rank()
        })
        .unwrap_err();
        assert!(
            matches!(err, RankFailure::Hang { rank: 1, .. }),
            "{err:?}"
        );
        // the supervisor must give up at the budget, not wait out the hang
        assert!(start.elapsed() < Duration::from_secs(4));
    }

    #[test]
    fn rank_records_reach_the_caller_before_launch_returns() {
        // A run's recorder is drained right after the launch: every rank's
        // buffered records must already be in it, not still in flight.
        let recorder = eth_obs::Recorder::new();
        let _attached = recorder.attach();
        for _ in 0..20 {
            let ranks = (0..3)
                .map(|id| {
                    RankBody::new(id, move || {
                        eth_obs::step_mark(id as u64);
                        Ok::<_, RankFailure>(())
                    })
                })
                .collect();
            launch(ranks, Some(Duration::from_secs(30)), None).unwrap();
            assert_eq!(recorder.take().step_marks().len(), 3);
        }
    }

    #[test]
    fn first_rank_error_is_returned_without_waiting_for_the_rest() {
        let start = Instant::now();
        let ranks = vec![
            RankBody::new(0, || {
                thread::sleep(Duration::from_secs(5));
                Ok(0)
            }),
            RankBody::new(7, || {
                Err(RankFailure::Panic {
                    rank: 7,
                    message: "body error".into(),
                })
            }),
        ];
        let err = launch(ranks, None, None).unwrap_err();
        assert!(matches!(err, RankFailure::Panic { rank: 7, .. }), "{err:?}");
        assert!(start.elapsed() < Duration::from_secs(4));
    }

    fn fast_policy() -> HeartbeatPolicy {
        HeartbeatPolicy {
            interval_ms: 10,
            miss_budget: 3,
        }
    }

    #[test]
    fn heartbeat_policy_defaults_and_serde() {
        let p = HeartbeatPolicy::default();
        assert!(p.validate().is_ok());
        assert_eq!(
            p.detection_deadline(),
            Duration::from_millis(p.interval_ms * p.miss_budget as u64)
        );
        let empty: HeartbeatPolicy = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, HeartbeatPolicy::default());
        let back: HeartbeatPolicy =
            serde_json::from_str(&serde_json::to_string(&fast_policy()).unwrap()).unwrap();
        assert_eq!(back, fast_policy());
        assert!(HeartbeatPolicy { interval_ms: 0, miss_budget: 3 }.validate().is_err());
        assert!(HeartbeatPolicy { interval_ms: 5, miss_budget: 0 }.validate().is_err());
    }

    #[test]
    fn heartbeat_clean_run_matches_unsupervised() {
        let (outputs, deaths) = launch_heartbeat(4, 0, Duration::from_secs(30), |c, board| {
            for step in 0..3 {
                board.step_done(c.rank(), step);
            }
            c.rank() * c.rank()
        })
        .unwrap();
        let values: Vec<usize> = outputs.into_iter().map(|o| o.unwrap()).collect();
        assert_eq!(values, vec![0, 1, 4, 9]);
        assert!(deaths.is_empty());
    }

    #[test]
    fn heartbeat_detects_the_silent_rank_and_its_last_step() {
        // rank 1 completes step 4, then goes silent forever. With a zero
        // loss budget the run must fail in O(detection deadline) — far
        // under the 30 s global budget — naming rank 1 and step 4.
        let start = Instant::now();
        let err = launch_heartbeat(3, 0, Duration::from_secs(30), |c, board| {
            board.step_done(c.rank(), 4);
            if c.rank() == 1 {
                thread::sleep(Duration::from_secs(10));
            }
            c.rank()
        })
        .unwrap_err();
        match err {
            RankFailure::Hang {
                rank,
                last_step,
                waited,
            } => {
                assert_eq!(rank, 1);
                assert_eq!(last_step, Some(4));
                assert!(waited >= fast_policy().detection_deadline());
            }
            other => panic!("expected heartbeat Hang, got {other:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "detection took {:?}, not O(interval)",
            start.elapsed()
        );
        let msg = err.to_string();
        assert!(msg.contains("rank 1") && msg.contains("step 4"), "{msg}");
    }

    #[test]
    fn heartbeat_run_survives_a_death_within_the_loss_budget() {
        // rank 2 "dies" at step 1: stops beating and parks until the
        // supervisor declares it dead (the kill-injection protocol), then
        // returns a tombstone. Survivors keep beating until the death is
        // on the board, then finish. max_losses = 1 ⇒ the run completes.
        let (outputs, deaths) = launch_heartbeat(3, 1, Duration::from_secs(30), |c, board| {
            let rank = c.rank();
            if rank == 2 {
                board.step_done(rank, 0);
                board.await_death(rank, Duration::from_secs(10));
                return usize::MAX; // tombstone
            }
            for step in 0..5 {
                board.step_done(rank, step);
                thread::sleep(Duration::from_millis(5));
            }
            // survivors must be able to observe the death
            while !board.is_dead(2) {
                board.beat(rank);
                thread::sleep(Duration::from_millis(2));
            }
            rank
        })
        .unwrap();
        assert_eq!(deaths.len(), 1);
        let death = deaths[0];
        assert_eq!(death.rank, 2);
        assert_eq!(death.last_step, Some(0));
        assert!(death.detection_latency() >= fast_policy().detection_deadline());
        assert_eq!(outputs[0], Some(0));
        assert_eq!(outputs[1], Some(1));
        assert_eq!(outputs[2], Some(usize::MAX), "tombstone must be kept");
    }

    #[test]
    fn global_deadline_backstop_still_fires_under_heartbeats() {
        // every rank keeps beating but rank 0 never finishes: detection
        // cannot fire (it is not silent), so the global budget must.
        let err = launch_heartbeat(2, 1, Duration::from_millis(200), |c, board| {
            let rank = c.rank();
            board.step_done(rank, 7);
            if rank == 0 {
                let t = Instant::now();
                while t.elapsed() < Duration::from_secs(5) {
                    board.beat(rank);
                    thread::sleep(Duration::from_millis(2));
                }
            }
            rank
        })
        .unwrap_err();
        match err {
            RankFailure::Hang {
                rank, last_step, ..
            } => {
                assert_eq!(rank, 0);
                assert_eq!(last_step, Some(7), "backstop keeps step attribution");
            }
            other => panic!("expected Hang, got {other:?}"),
        }
    }

    #[test]
    fn board_state_machine_is_idempotent_and_monotonic() {
        let board = HeartbeatBoard::new(2);
        assert_eq!(board.last_step(0), None);
        board.step_done(0, 3);
        assert_eq!(board.last_step(0), Some(3));
        // first declaration yields a notice, the second does not
        assert!(board.declare_dead(0).is_some());
        assert!(board.declare_dead(0).is_none());
        assert!(board.is_dead(0));
        // a dead rank's tombstone return must not resurrect it
        board.mark_done(0);
        assert!(board.is_dead(0) && !board.is_done(0));
        // a done rank can never be declared dead
        board.mark_done(1);
        assert!(board.declare_dead(1).is_none());
        assert!(board.scan(Duration::from_nanos(0)).is_empty());
        assert_eq!(board.deaths().len(), 1);
        assert_eq!(board.death_of(0).unwrap().last_step, Some(3));
        assert!(board.death_of(1).is_none());
    }

    #[test]
    fn standalone_supervisor_declares_silent_ranks() {
        // Only ids below the board's size are watched (the internode
        // layout: simulation ranks beat, visualization ranks do not). Id 1
        // goes silent and is declared dead; id 5 is off the board and
        // never beats, yet must not be declared anything.
        let (board, live) = watched(2, 1);
        let shared = board.clone();
        let beating = RankBody::new(0, move || {
            let t = Instant::now();
            while shared.death_of(1).is_none() && t.elapsed() < Duration::from_secs(5) {
                shared.beat(0);
                thread::sleep(Duration::from_millis(2));
            }
            Ok::<_, RankFailure>(shared.death_of(1).map(|d| d.rank))
        });
        let silent = RankBody::new(1, || {
            thread::sleep(Duration::from_millis(200));
            Ok(None)
        });
        let off_board = RankBody::new(5, || {
            thread::sleep(Duration::from_millis(100));
            Ok(None)
        });
        let outputs = launch(vec![beating, silent, off_board], None, Some(live)).unwrap();
        assert_eq!(outputs[0], Some(Some(1)), "the collector never declared rank 1");
        assert!(!board.is_dead(0), "a beating rank must stay alive");
        assert_eq!(board.deaths().len(), 1);
    }

    #[test]
    fn migration_book_transitions_are_exclusive_and_sticky() {
        let book = MigrationBook::new(3);
        assert_eq!(book.len(), 3);
        assert!(book.is_pending(0));
        // first transition wins, the loser observes it
        assert!(book.try_commit(0));
        assert!(!book.abort(0), "commit already won handoff 0");
        assert!(book.is_committed(0));
        assert!(book.abort(1));
        assert!(!book.try_commit(1), "abort already won handoff 1");
        assert!(book.is_aborted(1));
        // transitions are one-shot
        assert!(!book.try_commit(0));
        assert!(!book.abort(1));
        assert_eq!(book.committed(), 1);
        assert_eq!(book.aborted(), 1);
        assert!(book.is_pending(2));
    }

    #[test]
    fn migration_supervisor_aborts_handoffs_of_dead_ranks() {
        let (board, mut live) = watched(3, 2);
        let book = MigrationBook::new(2);
        // handoff 0 rides sim rank 1, handoff 1 rides sim rank 2
        live.book = book.clone();
        live.handoffs = vec![(0, 1), (1, 2)];
        // rank 2's handoff commits before the death lands: commit sticks
        assert!(book.try_commit(1));
        board.declare_dead(1);
        board.declare_dead(2);
        let watcher = book.clone();
        let waiter = RankBody::new(0, move || {
            let t = Instant::now();
            while watcher.is_pending(0) && t.elapsed() < Duration::from_secs(5) {
                thread::sleep(Duration::from_millis(1));
            }
            Ok::<_, RankFailure>(())
        });
        launch(vec![waiter], None, Some(live)).unwrap();
        assert!(book.is_aborted(0), "death must abort the pending handoff");
        assert!(book.is_committed(1), "a committed handoff survives the death");
    }

    #[test]
    fn step_done_never_rewinds_attribution() {
        let board = HeartbeatBoard::new(1);
        board.step_done(0, 5);
        // a late report of an earlier step is absorbed, not a rewind
        board.step_done(0, 2);
        assert_eq!(board.last_step(0), Some(5));
        board.step_done(0, 7);
        assert_eq!(board.last_step(0), Some(7));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Step attribution is monotonic per rank no matter how
            /// reporters interleave: two writer threads race randomly
            /// ordered `step_done` calls while a reader samples, and the
            /// observed sequence never decreases; the final attribution is
            /// the maximum reported step.
            #[test]
            fn step_attribution_is_monotonic_under_interleavings(
                ops in prop::collection::vec((0usize..2, 0usize..40), 4..40),
            ) {
                let board = HeartbeatBoard::new(2);
                let split = ops.len() / 2;
                let halves = [ops[..split].to_vec(), ops[split..].to_vec()];
                let stop = Arc::new(AtomicBool::new(false));
                let reader = {
                    let board = board.clone();
                    let stop = stop.clone();
                    thread::spawn(move || {
                        let mut seen: [Vec<Option<usize>>; 2] = [Vec::new(), Vec::new()];
                        while !stop.load(Ordering::Acquire) {
                            for (rank, log) in seen.iter_mut().enumerate() {
                                log.push(board.last_step(rank));
                            }
                        }
                        seen
                    })
                };
                let writers: Vec<_> = halves
                    .into_iter()
                    .map(|half| {
                        let board = board.clone();
                        thread::spawn(move || {
                            for (rank, step) in half {
                                board.step_done(rank, step);
                            }
                        })
                    })
                    .collect();
                for w in writers {
                    w.join().unwrap();
                }
                stop.store(true, Ordering::Release);
                let seen = reader.join().unwrap();
                for (rank, seen_rank) in seen.iter().enumerate() {
                    for pair in seen_rank.windows(2) {
                        prop_assert!(
                            pair[1] >= pair[0],
                            "rank {} attribution rewound: {:?} -> {:?}",
                            rank, pair[0], pair[1]
                        );
                    }
                    let expect = ops
                        .iter()
                        .filter(|(r, _)| *r == rank)
                        .map(|&(_, s)| s)
                        .max();
                    prop_assert_eq!(board.last_step(rank), expect);
                }
            }

            /// Death notices never report negative silence: whatever the
            /// interleaving of beats, step reports, and declarations, every
            /// notice's detection timestamp is at or after the last beacon
            /// it blames, and each rank dies at most once.
            #[test]
            fn death_latency_is_non_negative_under_interleavings(
                ops in prop::collection::vec((0usize..3, 0u8..4, 0usize..16), 4..48),
            ) {
                let board = HeartbeatBoard::new(3);
                let split = ops.len() / 2;
                let halves = [ops[..split].to_vec(), ops[split..].to_vec()];
                let workers: Vec<_> = halves
                    .into_iter()
                    .map(|half| {
                        let board = board.clone();
                        thread::spawn(move || {
                            for (rank, op, step) in half {
                                match op {
                                    0 => board.beat(rank),
                                    1 => board.step_done(rank, step),
                                    2 => {
                                        board.declare_dead(rank);
                                    }
                                    _ => {
                                        board.scan(Duration::from_nanos(step as u64));
                                    }
                                }
                            }
                        })
                    })
                    .collect();
                for w in workers {
                    w.join().unwrap();
                }
                let deaths = board.deaths();
                for d in &deaths {
                    prop_assert!(
                        d.detected_ns >= d.last_beat_ns,
                        "rank {} declared dead {}ns before its last beacon",
                        d.rank,
                        d.last_beat_ns - d.detected_ns
                    );
                    prop_assert!(d.detection_latency() >= Duration::ZERO);
                }
                for rank in 0..3 {
                    prop_assert!(
                        deaths.iter().filter(|d| d.rank == rank).count() <= 1,
                        "rank {} died more than once", rank
                    );
                }
            }
        }
    }

    #[test]
    fn socket_runner_end_to_end() {
        let dir = std::env::temp_dir().join("eth-runner-socket-test");
        let _ = std::fs::remove_dir_all(&dir);
        let sums = run_ranks_socket(3, &dir, |c| {
            allreduce_f64(&c, vec![c.rank() as f64], |a, b| a + b).unwrap()[0]
        })
        .unwrap();
        assert_eq!(sums, vec![3.0, 3.0, 3.0]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
