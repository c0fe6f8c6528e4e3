//! Set-up measurement and the untraced timed phase.
//!
//! Every iteration is fenced by a benchmark-owned `std::sync::Barrier`,
//! so no library barrier enters a fence. After each parallel iteration,
//! rank 0's thread runs the sequential baseline of the same problem
//! while the other rank threads are parked on the fence: no library code
//! runs during the baseline.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use kamping::prelude::*;
use kmp_mpi::{Config, RankOutcome, Universe};

use crate::problem::{Problem, Workload};

/// Entry-point calls that warm a fresh universe up before timing.
pub const WARMUP_ITERS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;

/// One set-up, split into its steps (seconds).
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    /// `Universe` start until every rank thread is running.
    pub spawn: f64,
    /// Communicator and topology construction.
    pub topology: f64,
    /// Warm-up entry-point calls.
    pub warmup: f64,
}

impl Setup {
    pub fn total(&self) -> f64 {
        self.spawn + self.topology + self.warmup
    }
}

/// Per-rank context handed to the body that runs after set-up.
pub struct Ctx<'a> {
    pub comm: &'a Communicator,
    pub fence: &'a Barrier,
    pub problem: &'a Problem,
}

/// Starts a universe, builds the communicator (and, for the BFS
/// workloads, the rank-communication graph and its topology), warms the
/// entry point up, then runs `body` on every rank. Returns the set-up
/// times measured on rank 0 and every rank's outcome.
pub fn with_setup<R: Send>(
    problem: &Problem,
    body: impl Fn(&Ctx) -> R + Sync,
) -> (Setup, Vec<RankOutcome<(Setup, R)>>) {
    let fence = Barrier::new(problem.p);
    let t0 = Instant::now();
    let out = Universe::run_with(Config::new(problem.p), |raw| {
        fence.wait();
        let spawned = t0.elapsed();
        let comm = Communicator::new(raw);
        if let Workload::BfsSparse | Workload::BfsOverlap = problem.workload {
            let peers = kmp_apps::bfs::comm_graph_peers(&problem.graph().parts[comm.rank()]);
            if problem.workload == Workload::BfsOverlap {
                comm.create_dist_graph_adjacent(&peers, &peers)
                    .expect("dist-graph topology");
            }
        }
        fence.wait();
        let built = t0.elapsed();
        for _ in 0..WARMUP_ITERS {
            fence.wait();
            problem.par(&comm).expect("warm-up call");
        }
        fence.wait();
        let warm = t0.elapsed();
        let setup = Setup {
            spawn: spawned.as_secs_f64(),
            topology: (built - spawned).as_secs_f64(),
            warmup: (warm - built).as_secs_f64(),
        };
        let ctx = Ctx {
            comm: &comm,
            fence: &fence,
            problem,
        };
        (setup, body(&ctx))
    });
    let setup = match &out[0] {
        RankOutcome::Completed((s, _)) => *s,
        _ => Setup::default(),
    };
    (setup, out)
}

/// One timed iteration on rank 0: the parallel entry point and its
/// paired sequential baseline (seconds).
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub par: f64,
    pub seq: f64,
}

/// What one rank brings back from the timed phase.
pub struct RankPhase {
    /// Filled on rank 0 only.
    pub samples: Vec<Sample>,
    /// Per iteration: this rank's output was correct (and, on rank 0,
    /// the baseline's too).
    pub ok: Vec<bool>,
}

/// The untraced timed phase: iterate until `seconds` have passed.
pub fn timed_phase(ctx: &Ctx, seconds: f64, go: &AtomicBool) -> RankPhase {
    let rank = ctx.comm.rank();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut phase = RankPhase {
        samples: Vec::new(),
        ok: Vec::new(),
    };
    let k = ctx.problem.workload.calls_per_fence();
    loop {
        ctx.fence.wait();
        let t0 = Instant::now();
        let outs: Vec<_> = (0..k).map(|_| ctx.problem.par(ctx.comm)).collect();
        ctx.fence.wait();
        let par = t0.elapsed().as_secs_f64() / k as f64;
        let mut seq_ok = true;
        if rank == 0 {
            let t1 = Instant::now();
            for _ in 0..k {
                seq_ok &= ctx.problem.seq();
            }
            let seq = t1.elapsed().as_secs_f64() / k as f64;
            phase.samples.push(Sample { par, seq });
            go.store(Instant::now() < deadline, Ordering::SeqCst);
        }
        ctx.fence.wait();
        for out in outs {
            phase
                .ok
                .push(seq_ok && out.is_ok_and(|o| ctx.problem.check(rank, &o)));
        }
        if !go.load(Ordering::SeqCst) {
            return phase;
        }
    }
}
