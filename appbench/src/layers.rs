//! The traced run: per-layer metrics measured from outside the library.
//!
//! Benchmark-side timers wrap each public call an app makes. Where an
//! entry point hides its steps (`bfs_with_exchange`,
//! `bfs_kamping_overlap`, `phylo::run_kamping`), the replay below repeats
//! them from the public pieces, and every replayed result must equal the
//! entry point's. Counters come from the default build
//! (`Comm::call_counts`, `copy_stats`, `mailbox_stats`, `tuning_stats`).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use kamping::prelude::*;
use kmp_apps::bfs::{comm_graph_peers, expand_frontier, VId, UNDEF};
use kmp_apps::phylo::{self, Model};
use kmp_mpi::{
    CallCounts, Config, CopyStats, CostModel, MailboxStats, Rank, RankOutcome, Universe,
};

use crate::problem::{
    Input, Output, Problem, Vectors, Workload, PHYLO_BRANCHES, PHYLO_ROUNDS, PHYLO_SITES_PER_RANK,
};
use crate::stats::median;
use crate::timed::{with_setup, Ctx, Setup};
use crate::{BenchError, Metrics};

/// Per-call durations (seconds) of each span name, on one rank.
#[derive(Default)]
struct Spans(BTreeMap<&'static str, Vec<f64>>);

impl Spans {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.0
            .entry(name)
            .or_default()
            .push(t.elapsed().as_secs_f64());
        r
    }

    fn total(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.iter().sum())
    }

    fn covered(&self) -> f64 {
        self.0.values().flatten().sum()
    }

    fn absorb(&mut self, other: Spans) {
        for (k, mut v) in other.0 {
            self.0.entry(k).or_default().append(&mut v);
        }
    }

    /// Median of one span's calls in microseconds; 0 when it never ran.
    fn p50_us(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v) * 1e6)
    }
}

/// Application bytes one replay delivered to this rank from other
/// ranks, plus the copy bill and message count of its sparse exchanges.
#[derive(Clone, Copy, Default)]
struct Extra {
    payload_bytes: u64,
    sparse_copy_bytes: u64,
    sparse_msgs: u64,
}

impl Extra {
    fn add(&mut self, o: &Extra) {
        self.payload_bytes += o.payload_bytes;
        self.sparse_copy_bytes += o.sparse_copy_bytes;
        self.sparse_msgs += o.sparse_msgs;
    }
}

/// Replays the workload's entry point from its public pieces, timing
/// each piece.
fn replay(
    problem: &Problem,
    comm: &Communicator,
    sp: &mut Spans,
) -> kmp_mpi::Result<(Output, Extra)> {
    let rank = comm.rank();
    let mut extra = Extra::default();
    match (&problem.input, problem.workload) {
        (Input::Graph(g), Workload::BfsSparse) => {
            // `bfs_with_exchange(.., Exchange::KampingSparse)`.
            let g = &g.parts[rank];
            let mut dist = vec![UNDEF; g.local_n()];
            let mut frontier: Vec<VId> = Vec::new();
            if g.is_local(problem.graph().source) {
                frontier.push(problem.graph().source);
            }
            sp.time("apps.peers", || comm_graph_peers(g));
            let mut level = 0u64;
            loop {
                let empty = u8::from(frontier.is_empty());
                let done = sp.time("coll.allreduce", || {
                    comm.allreduce_single((send_buf(&[empty]), op(ops::LogicalAnd)))
                })?;
                if done != 0 {
                    break;
                }
                let next = sp.time("apps.kernel", || {
                    expand_frontier(g, &frontier, &mut dist, level)
                });
                let before = comm.raw().copy_stats();
                let received = sp.time("sparse.exchange", || comm.sparse_alltoallv(&next))?;
                extra.sparse_copy_bytes += comm.raw().copy_stats().since(&before).bytes_copied;
                frontier = sp.time("apps.merge", || {
                    extra.sparse_msgs += received.len() as u64;
                    let remote: usize = received
                        .iter()
                        .filter(|(r, _)| *r != rank)
                        .map(|(_, v)| v.len())
                        .sum();
                    extra.payload_bytes += 8 * remote as u64;
                    received.into_iter().flat_map(|(_, v)| v).collect()
                });
                level += 1;
            }
            Ok((Output::Dist(dist), extra))
        }
        (Input::Graph(g), _) => {
            // `bfs_kamping_overlap`.
            let g = &g.parts[rank];
            let peers = sp.time("apps.peers", || comm_graph_peers(g));
            let topo = sp.time("nb.topology", || {
                comm.create_dist_graph_adjacent(&peers, &peers)
            })?;
            let mut dist = vec![UNDEF; g.local_n()];
            let mut frontier: Vec<VId> = Vec::new();
            if g.is_local(problem.graph().source) {
                frontier.push(problem.graph().source);
            }
            let mut level = 0u64;
            loop {
                let empty = u8::from(frontier.is_empty());
                let done_fut = sp.time("nb.init", || {
                    comm.iallreduce((send_buf(vec![empty]), op(ops::LogicalAnd)))
                })?;
                let next = sp.time("apps.kernel", || {
                    expand_frontier(g, &frontier, &mut dist, level)
                });
                let (done, _) = sp.time("nb.wait", || done_fut.wait())?;
                if done[0] != 0 {
                    break;
                }
                let (own, data, counts) =
                    sp.time("apps.pack", || pack_by_peers(&peers, rank, next));
                let exchange = sp.time("nb.init", || {
                    topo.topology().ineighbor_alltoallv(&data, &counts)
                })?;
                let blocks = sp.time("nb.wait", || exchange.wait())?;
                frontier = sp.time("apps.merge", || {
                    let mut merged = own;
                    for block in blocks.into_blocks().expect("blocks completion") {
                        extra.payload_bytes += block.len() as u64;
                        merged.extend_from_slice(&kmp_mpi::plain::bytes_to_vec::<VId>(&block));
                    }
                    merged
                });
                level += 1;
            }
            Ok((Output::Dist(dist), extra))
        }
        (Input::Phylo(ph), _) => {
            // `phylo::run_kamping`.
            let lo = rank as u64 * PHYLO_SITES_PER_RANK;
            let range = lo..lo + PHYLO_SITES_PER_RANK;
            let mut model = Model::initial(PHYLO_BRANCHES);
            // The model's serialized size does not change between rounds.
            let received = if rank == 0 { 0 } else { model_bytes(&model) };
            let mut ll = 0.0;
            for it in 0..PHYLO_ROUNDS {
                if rank == 0 {
                    sp.time("apps.perturb", || model.perturb(it));
                }
                sp.time("serialize.bcast", || {
                    phylo::kamping_broadcast(&mut model, comm)
                })?;
                let local = sp.time("apps.kernel", || phylo::local_loglik(range.clone(), &model));
                let out: Vec<f64> = sp.time("coll.allreduce", || {
                    comm.allreduce((send_buf(&[local]), op(ops::Sum)))
                })?;
                ll = out[0];
                extra.payload_bytes += received + 8 * (ph.p as u64 - 1);
            }
            Ok((Output::Ll(ll), extra))
        }
        (Input::Vectors(v), _) => {
            let got = sp.time("coll.allgatherv", || {
                comm.allgatherv(send_buf(&v.inputs[rank]))
            })?;
            extra.payload_bytes = 8 * (v.expected.len() - v.inputs[rank].len()) as u64;
            Ok((Output::Gathered(got), extra))
        }
    }
}

/// Serialized size of the broadcast model.
fn model_bytes(model: &Model) -> u64 {
    kmp_serialize::to_bytes(model).map_or(0, |b| b.len() as u64)
}

/// The self-destined block and the packed per-peer payload in `peers`
/// order, as `bfs_kamping_overlap` builds them.
fn pack_by_peers(
    peers: &[Rank],
    own_rank: Rank,
    mut next: HashMap<Rank, Vec<VId>>,
) -> (Vec<VId>, Vec<VId>, Vec<usize>) {
    let own = next.remove(&own_rank).unwrap_or_default();
    let mut counts = Vec::with_capacity(peers.len());
    let mut data = Vec::new();
    for r in peers {
        let block = next.remove(r).unwrap_or_default();
        counts.push(block.len());
        data.extend_from_slice(&block);
    }
    (own, data, counts)
}

fn same_output(a: &Output, b: &Output) -> bool {
    match (a, b) {
        (Output::Dist(x), Output::Dist(y)) | (Output::Gathered(x), Output::Gathered(y)) => x == y,
        (Output::Ll(x), Output::Ll(y)) => x.to_bits() == y.to_bits(),
        _ => false,
    }
}

/// The default-build counters of one rank at one moment.
#[derive(Clone, Default)]
struct Counters {
    calls: CallCounts,
    copy: CopyStats,
    mailbox: MailboxStats,
    decisions: u64,
    cpu_ns: u64,
}

impl Counters {
    fn snap(comm: &Communicator) -> Counters {
        Counters {
            calls: comm.call_counts(),
            copy: comm.raw().copy_stats(),
            mailbox: comm.raw().mailbox_stats(),
            decisions: comm.tuning_stats().decisions,
            cpu_ns: kmp_mpi::sys::thread_cpu_ns(),
        }
    }
}

/// Counter growth between two snapshots, summed over whatever it is
/// added to.
#[derive(Clone, Copy, Default)]
struct Delta {
    calls: u64,
    iprobes: u64,
    copy_bytes: u64,
    allocs: u64,
    envelopes: u64,
    targeted: u64,
    multi: u64,
    spurious: u64,
    decisions: u64,
    cpu_ns: u64,
}

impl Delta {
    fn between(a: &Counters, b: &Counters) -> Delta {
        let calls = b.calls.since(&a.calls);
        Delta {
            calls: calls.total() - calls.get("iprobe"),
            iprobes: calls.get("iprobe"),
            copy_bytes: b.copy.since(&a.copy).bytes_copied,
            allocs: b.copy.since(&a.copy).allocations,
            envelopes: b.mailbox.envelopes_posted - a.mailbox.envelopes_posted,
            targeted: b.mailbox.targeted_wakeups - a.mailbox.targeted_wakeups,
            multi: b.mailbox.multi_wakeups - a.mailbox.multi_wakeups,
            spurious: b.mailbox.spurious_wakeups - a.mailbox.spurious_wakeups,
            decisions: b.decisions - a.decisions,
            cpu_ns: b.cpu_ns - a.cpu_ns,
        }
    }

    fn add(&mut self, o: &Delta) {
        self.calls += o.calls;
        self.iprobes += o.iprobes;
        self.copy_bytes += o.copy_bytes;
        self.allocs += o.allocs;
        self.envelopes += o.envelopes;
        self.targeted += o.targeted;
        self.multi += o.multi;
        self.spurious += o.spurious;
        self.decisions += o.decisions;
        self.cpu_ns += o.cpu_ns;
    }
}

/// What one rank brings back from the traced phase.
#[derive(Default)]
struct RankTrace {
    spans: Spans,
    /// Per traced iteration: spans' share of this rank's replay time.
    coverage: Vec<f64>,
    /// Per iteration: fenced wall of the entry point and of the replay
    /// (rank 0 only).
    untraced: Vec<f64>,
    traced: Vec<f64>,
    /// Sum of the replay's own (unfenced) time on this rank.
    replay_s: f64,
    delta: Delta,
    extra: Extra,
    ok: Vec<bool>,
    max_unexpected_depth: usize,
    /// Binding minus substrate per call, one per interleaved pair.
    overhead: Vec<f64>,
    unfair: Option<String>,
}

/// Alternates an untraced entry-point iteration with a traced replay
/// for `seconds`; both must produce the reference result.
fn traced_phase(ctx: &Ctx, seconds: f64, go: &AtomicBool) -> RankTrace {
    let rank = ctx.comm.rank();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rt = RankTrace::default();
    loop {
        ctx.fence.wait();
        let t0 = Instant::now();
        let entry = ctx.problem.par(ctx.comm);
        ctx.fence.wait();
        let untraced = t0.elapsed().as_secs_f64();

        let mut sp = Spans::default();
        let before = Counters::snap(ctx.comm);
        ctx.fence.wait();
        let t0 = Instant::now();
        let replayed = replay(ctx.problem, ctx.comm, &mut sp);
        let own = t0.elapsed().as_secs_f64();
        ctx.fence.wait();
        let traced = t0.elapsed().as_secs_f64();
        let after = Counters::snap(ctx.comm);

        rt.delta.add(&Delta::between(&before, &after));
        rt.coverage.push(sp.covered() / own);
        rt.replay_s += own;
        rt.spans.absorb(sp);
        if rank == 0 {
            rt.untraced.push(untraced);
            rt.traced.push(traced);
            go.store(Instant::now() < deadline, Ordering::SeqCst);
        }
        ctx.fence.wait();
        let ok = match (entry, replayed) {
            (Ok(e), Ok((r, x))) => {
                rt.extra.add(&x);
                ctx.problem.check(rank, &e) && same_output(&e, &r)
            }
            _ => false,
        };
        rt.ok.push(ok);
        if !go.load(Ordering::SeqCst) {
            rt.max_unexpected_depth = ctx.comm.raw().mailbox_stats().max_unexpected_depth;
            return rt;
        }
    }
}

/// Calls timed back to back between two fences in the overhead pairs.
const OVERHEAD_BATCH: usize = 20;

/// `kamping.overhead_us`: the binding call against the substrate call
/// doing the same operation on the same size, in interleaved batches.
/// Both sides must issue identical substrate calls and copy the same
/// bytes, or the comparison is refused.
fn overhead_pairs(ctx: &Ctx, seconds: f64, go: &AtomicBool, rt: &mut RankTrace) {
    let comm = ctx.comm;
    let raw = comm.raw();
    let rank = comm.rank();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // Binding (true) or substrate (false) side of one call. The
    // substrate side issues the substrate calls the binding resolves to,
    // with the same allocations; `vector_allgather_mpi` would not do
    // (its in-place count exchange copies 8 B less and allocates once
    // less), and the guard below refuses any such pair.
    let call = |binding: bool| -> kmp_mpi::Result<()> {
        match &ctx.problem.input {
            Input::Graph(_) => {
                if binding {
                    comm.allreduce_single((send_buf(&[1u8]), op(ops::LogicalAnd)))?;
                } else {
                    raw.allreduce_one(1u8, kmp_mpi::op::LogicalAnd)?;
                }
            }
            Input::Phylo(_) => {
                let x = [rank as f64];
                if binding {
                    comm.allreduce((send_buf(&x), op(ops::Sum)))?;
                } else {
                    let mut out = kmp_mpi::plain::zeroed_vec::<f64>(1);
                    raw.allreduce_into(&x, &mut out, kmp_mpi::op::Sum)?;
                }
            }
            Input::Vectors(v) => {
                let mine = &v.inputs[rank];
                if binding {
                    comm.allgatherv(send_buf(mine))?;
                } else {
                    let counts = raw.allgather_vec(&[mine.len()])?;
                    let displs = kmp_mpi::collectives::displacements_from_counts(&counts);
                    let mut out = kmp_mpi::plain::zeroed_vec::<u64>(counts.iter().sum());
                    raw.allgatherv_into(mine, &mut out, &counts, &displs)?;
                }
            }
        }
        Ok(())
    };
    let batch = if let Input::Vectors(_) = ctx.problem.input {
        1
    } else {
        OVERHEAD_BATCH
    };
    let mut times = [0.0f64; 2];
    loop {
        let mut binding_bill = None;
        for (side, binding) in [(0, true), (1, false)] {
            let before = Counters::snap(comm);
            ctx.fence.wait();
            let t0 = Instant::now();
            for _ in 0..batch {
                if let Err(e) = call(binding) {
                    rt.unfair
                        .get_or_insert(format!("overhead pair call failed: {e}"));
                }
            }
            ctx.fence.wait();
            times[side] = t0.elapsed().as_secs_f64() / batch as f64;
            let after = Counters::snap(comm);
            let d = Delta::between(&before, &after);
            let bill = (after.calls.since(&before.calls), d.copy_bytes, d.allocs);
            if binding {
                binding_bill = Some(bill);
            } else if binding_bill.as_ref() != Some(&bill) {
                rt.unfair.get_or_insert(format!(
                    "binding and substrate sides differ (calls, bytes copied, allocations): \
                     binding {binding_bill:?}, substrate {bill:?}"
                ));
            }
        }
        if rank == 0 {
            rt.overhead.push(times[0] - times[1]);
            go.store(Instant::now() < deadline, Ordering::SeqCst);
        }
        ctx.fence.wait();
        if !go.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Ranks of the count-only pass, more than the host has cores: it
/// yields counts and virtual time, never wall time.
const P8: usize = 8;
const P8_ITERS: u64 = 2;
/// The p = 8 bulk allgatherv is scaled down to keep memory small.
const P8_BULK_UNIT: usize = 1 << 15;

/// Messages, copied bytes (both summed over ranks) and virtual time per
/// iteration at p = 8 under `CostModel::cluster()`, with no compute
/// charged. `None` if an output was wrong.
fn p8_counts(workload: Workload, seed: u64) -> Option<(f64, f64, f64)> {
    let problem = match workload {
        Workload::AllgathervBulk => Problem {
            workload,
            p: P8,
            input: Input::Vectors(Vectors::generate(seed, P8, P8_BULK_UNIT)),
        },
        _ => Problem::generate(workload, seed, P8),
    };
    let fence = Barrier::new(P8);
    let out = Universe::run_with(Config::new(P8).cost(CostModel::cluster()), |raw| {
        let comm = Communicator::new(raw);
        let mut ok = problem
            .par(&comm)
            .is_ok_and(|o| problem.check(comm.rank(), &o));
        // Snapshot between two fences: no warm-up message can still
        // arrive, and no timed one has been sent yet.
        fence.wait();
        let before = Counters::snap(&comm);
        fence.wait();
        let v0 = comm.clock_now_ns();
        for _ in 0..P8_ITERS {
            ok &= problem
                .par(&comm)
                .is_ok_and(|o| problem.check(comm.rank(), &o));
        }
        let vtime = comm.clock_now_ns() - v0;
        fence.wait();
        (ok, Delta::between(&before, &Counters::snap(&comm)), vtime)
    });
    let mut total = Delta::default();
    let mut vtime = 0u64;
    for o in out {
        let RankOutcome::Completed((true, d, v)) = o else {
            return None;
        };
        total.add(&d);
        vtime = vtime.max(v);
    }
    let per = |x: u64| x as f64 / P8_ITERS as f64;
    Some((
        per(total.envelopes),
        per(total.copy_bytes),
        per(vtime) / 1e3,
    ))
}

/// The traced run of one workload: the replayed iterations interleaved
/// with untraced ones, the binding-versus-substrate pairs, and the
/// count-only p = 8 pass.
pub fn traced_run(
    problem: &Problem,
    seed: u64,
    seconds: f64,
    setups: &mut Vec<Setup>,
) -> Result<(Metrics, u64, u64), BenchError> {
    let (go_trace, go_pairs) = (AtomicBool::new(true), AtomicBool::new(true));
    let (setup, outcomes) = with_setup(problem, |ctx| {
        let mut rt = traced_phase(ctx, 0.7 * seconds, &go_trace);
        overhead_pairs(ctx, 0.3 * seconds, &go_pairs, &mut rt);
        rt
    });
    setups.push(setup);
    let ranks: Vec<RankTrace> = outcomes
        .into_iter()
        .filter_map(|o| match o {
            RankOutcome::Completed((_, rt)) => Some(rt),
            _ => None,
        })
        .collect();
    if ranks.len() != problem.p {
        return Ok((Metrics::new(), 1, 1));
    }
    if let Some(why) = ranks.iter().find_map(|r| r.unfair.clone()) {
        return Err(BenchError(why));
    }
    let r0 = &ranks[0];
    let iters = r0.traced.len() as u64;
    let mut attempted = iters;
    let mut failed = (0..r0.ok.len())
        .filter(|&i| ranks.iter().any(|r| !r.ok[i]))
        .count() as u64;

    let mut spans = Spans::default();
    let mut delta = Delta::default();
    let mut extra = Extra::default();
    let mut replay_s = 0.0;
    let mut coverage = f64::INFINITY;
    let mut max_depth = 0;
    let (untraced, traced, overhead) =
        (r0.untraced.clone(), r0.traced.clone(), r0.overhead.clone());
    for r in ranks {
        delta.add(&r.delta);
        extra.add(&r.extra);
        replay_s += r.replay_s;
        coverage = coverage.min(median(&r.coverage));
        max_depth = max_depth.max(r.max_unexpected_depth);
        spans.absorb(r.spans);
    }
    let per_iter = |x: u64| x as f64 / iters as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let kernel = spans.total("apps.kernel");
    let nb_wait = spans.total("nb.wait");
    let overlap = problem.workload == Workload::BfsOverlap;
    let bcast_bytes = if let Input::Phylo(_) = problem.input {
        model_bytes(&Model::initial(PHYLO_BRANCHES)) as f64
    } else {
        0.0
    };
    let setup_med = |f: fn(&Setup) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    // Two count-only passes; a count that differs between them depends
    // on timing and is reported as 0.
    let passes = [
        p8_counts(problem.workload, seed),
        p8_counts(problem.workload, seed),
    ];
    attempted += 2;
    failed += passes.iter().filter(|p| p.is_none()).count() as u64;
    let [a, b] = passes.map(Option::unwrap_or_default);
    let keep = |x: f64, y: f64, name: &str| {
        if x == y {
            x
        } else {
            println!("layer {name} dropped: {x} then {y} in two passes");
            0.0
        }
    };
    let p8_msgs = keep(a.0, b.0, "p8.msgs_per_iter");
    let p8_bytes = keep(a.1, b.1, "p8.bytes_per_iter");
    let p8_vtime = keep(a.2, b.2, "p8.vtime_us");

    let mut m = Metrics::new();
    m.insert("apps.kernel_share", (ratio(kernel, replay_s), "ratio"));
    m.insert("kamping.calls_per_iter", (per_iter(delta.calls), "count"));
    m.insert("kamping.overhead_us", (median(&overhead) * 1e6, "us"));
    m.insert(
        "sparse.exchange_us_p50",
        (spans.p50_us("sparse.exchange"), "us"),
    );
    m.insert(
        "sparse.probes_per_msg",
        (
            ratio(delta.iprobes as f64, extra.sparse_msgs as f64),
            "ratio",
        ),
    );
    m.insert(
        "sparse.copy_bytes_per_iter",
        (per_iter(extra.sparse_copy_bytes), "B"),
    );
    m.insert(
        "serialize.bcast_us_p50",
        (spans.p50_us("serialize.bcast"), "us"),
    );
    m.insert("serialize.bytes_per_bcast", (bcast_bytes, "B"));
    m.insert(
        "coll.allreduce_us_p50",
        (spans.p50_us("coll.allreduce"), "us"),
    );
    m.insert(
        "coll.allgatherv_us_p50",
        (spans.p50_us("coll.allgatherv"), "us"),
    );
    m.insert("coll.algo_picks", (per_iter(delta.decisions), "count"));
    m.insert("nb.init_us_p50", (spans.p50_us("nb.init"), "us"));
    m.insert("nb.wait_us_p50", (spans.p50_us("nb.wait"), "us"));
    m.insert(
        "nb.hidden_share",
        (
            if overlap {
                ratio(kernel, kernel + nb_wait)
            } else {
                0.0
            },
            "ratio",
        ),
    );
    m.insert(
        "mailbox.envelopes_per_iter",
        (per_iter(delta.envelopes), "count"),
    );
    m.insert("mailbox.max_unexpected_depth", (max_depth as f64, "count"));
    m.insert(
        "mailbox.targeted_wakeups_per_iter",
        (per_iter(delta.targeted), "count"),
    );
    m.insert(
        "completion.cpu_per_wall",
        (
            ratio(
                delta.cpu_ns as f64 * 1e-9,
                problem.p as f64 * traced.iter().sum::<f64>(),
            ),
            "ratio",
        ),
    );
    m.insert(
        "completion.spurious_wakeups",
        (per_iter(delta.spurious), "count"),
    );
    m.insert("completion.multi_wakeups", (per_iter(delta.multi), "count"));
    m.insert(
        "copy.amplification",
        (
            ratio(delta.copy_bytes as f64, extra.payload_bytes as f64),
            "ratio",
        ),
    );
    m.insert("copy.allocs_per_iter", (per_iter(delta.allocs), "count"));
    m.insert("setup.spawn_ms", (setup_med(|s| s.spawn) * 1e3, "ms"));
    m.insert("setup.topology_ms", (setup_med(|s| s.topology) * 1e3, "ms"));
    m.insert("setup.warmup_ms", (setup_med(|s| s.warmup) * 1e3, "ms"));
    m.insert("setup.cold_s", (setups[0].total(), "s"));
    m.insert("trace.coverage", (coverage, "ratio"));
    m.insert(
        "trace.overhead_pct",
        (100.0 * (median(&traced) / median(&untraced) - 1.0), "%"),
    );
    m.insert("p8.msgs_per_iter", (p8_msgs, "count"));
    m.insert("p8.bytes_per_iter", (p8_bytes, "B"));
    m.insert("p8.vtime_us", (p8_vtime, "us"));
    for (k, (v, u)) in &m {
        println!("layer {k:<36} {v:>16.4} {u}");
    }
    println!(
        "traced iterations: {iters} (interleaved with as many untraced ones); overhead pairs: {}",
        overhead.len()
    );
    Ok((m, attempted, failed))
}
