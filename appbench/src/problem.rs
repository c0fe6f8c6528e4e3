//! The four workloads: input generation from a seed, input
//! fingerprints, the benchmark-owned sequential baselines, the library
//! entry point each one times, and the output checks.

use std::hint::black_box;

use kamping::prelude::*;
use kmp_apps::bfs::{self, Exchange, UNDEF};
use kmp_apps::phylo::{self, Model};
use kmp_graphgen::DistGraph;

/// Vertices per rank of the RGG-2D graph.
const BFS_VERTICES_PER_RANK: usize = 20_000;
/// Target average degree of the RGG-2D graph.
const BFS_AVG_DEGREE: f64 = 16.0;
/// Sites per rank and rounds per iteration of the RAxML call-rate proxy.
pub const PHYLO_SITES_PER_RANK: u64 = 256;
pub const PHYLO_ROUNDS: u64 = 200;
/// Branches of the broadcast model (as in `phylo::run_kamping`).
pub const PHYLO_BRANCHES: usize = 16;
/// Rank r of the bulk allgatherv holds `(r + 1) * BULK_UNIT` `u64`s.
const BULK_UNIT: usize = 1 << 19;
/// The seed whose input fingerprints are pinned below.
pub const DEFAULT_SEED: u64 = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BfsSparse,
    BfsOverlap,
    PhyloRate,
    AllgathervBulk,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BfsSparse,
        Workload::BfsOverlap,
        Workload::PhyloRate,
        Workload::AllgathervBulk,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BfsSparse => "bfs_sparse",
            Workload::BfsOverlap => "bfs_overlap",
            Workload::PhyloRate => "phylo_rate",
            Workload::AllgathervBulk => "allgatherv_bulk",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Entry-point calls run back to back between two fences.
    /// `phylo_rate` runs eight. Fencing and pairing each 4.5 ms call would
    /// park the other rank thread through every 1.5 ms baseline. The
    /// wake-up latency after that dominates the call-rate workload's noise.
    pub fn calls_per_fence(self) -> usize {
        match self {
            Workload::PhyloRate => 8,
            _ => 1,
        }
    }

    /// Fenced iterations averaged into one timing sample, so a sample
    /// spans 25-50 ms and a sub-millisecond host stall does not make a
    /// tail sample on its own.
    pub fn batch(self) -> usize {
        match self {
            Workload::BfsSparse | Workload::BfsOverlap => 2,
            Workload::PhyloRate => 1,
            Workload::AllgathervBulk => 8,
        }
    }

    /// What `work_per_s` counts.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::BfsSparse | Workload::BfsOverlap => "directed edges scanned",
            Workload::PhyloRate => "rounds",
            Workload::AllgathervBulk => "gathered bytes summed over ranks",
        }
    }
}

/// What a changed input generator would change: sizes, BFS depth and a
/// checksum over every generated word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub n: u64,
    pub m: u64,
    pub levels: u64,
    pub checksum: u64,
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} m={} levels={} checksum={:016x}",
            self.n, self.m, self.levels, self.checksum
        )
    }
}

/// Fingerprints of the inputs [`DEFAULT_SEED`] generates at p = 2.
pub fn pinned_fingerprint(w: Workload) -> Fingerprint {
    match w {
        Workload::BfsSparse | Workload::BfsOverlap => Fingerprint {
            n: 40_000,
            m: 631_354,
            levels: 150,
            checksum: 0xea6f_1a99_ade1_dd7e,
        },
        Workload::PhyloRate => Fingerprint {
            n: 512,
            m: 200,
            levels: 0,
            checksum: 0x676c_f8fb_e878_3ba3,
        },
        Workload::AllgathervBulk => Fingerprint {
            n: 3 * BULK_UNIT as u64,
            m: 2,
            levels: 0,
            checksum: 0x17c4_a1be_7dcd_e74f,
        },
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RGG-2D graph, its global CSR for the sequential baseline, and the
/// reference distances.
pub struct Graph {
    pub parts: Vec<DistGraph>,
    pub source: u64,
    offsets: Vec<usize>,
    targets: Vec<u32>,
    pub reference: Vec<u64>,
    pub levels: u64,
    /// Directed edges scanned by one BFS from `source`.
    pub traversed: u64,
}

impl Graph {
    fn generate(seed: u64, p: usize) -> Graph {
        let n = BFS_VERTICES_PER_RANK * p;
        let radius = (BFS_AVG_DEGREE / (std::f64::consts::PI * n as f64)).sqrt();
        let parts: Vec<DistGraph> = (0..p)
            .map(|r| kmp_graphgen::rgg2d(n, radius, seed, r, p))
            .collect();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for g in &parts {
            for (_, nbrs) in g.iter_local() {
                targets.extend(nbrs.iter().map(|&u| u as u32));
                offsets.push(targets.len());
            }
        }
        let mut g = Graph {
            parts,
            source: 0,
            offsets,
            targets,
            reference: Vec::new(),
            levels: 0,
            traversed: 0,
        };
        // Double sweep: start from a vertex farthest from vertex 0, so the
        // BFS depth is close to the graph's diameter for every seed
        // instead of depending on where vertex 0 happened to land.
        let from0 = g.sequential(0);
        g.source = farthest(&from0);
        g.reference = g.sequential(g.source);
        let reached = g.reference.iter().filter(|&&d| d != UNDEF);
        g.levels = reached.clone().max().map_or(0, |&d| d + 1);
        g.traversed = (0..n)
            .filter(|&v| g.reference[v] != UNDEF)
            .map(|v| (g.offsets[v + 1] - g.offsets[v]) as u64)
            .sum();
        g
    }

    /// The benchmark-owned sequential BFS over the whole graph.
    pub fn sequential(&self, source: u64) -> Vec<u64> {
        let n = self.offsets.len() - 1;
        let mut dist = vec![UNDEF; n];
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        dist[source as usize] = 0;
        queue.push(source as u32);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head] as usize;
            head += 1;
            let next = dist[v] + 1;
            for &u in &self.targets[self.offsets[v]..self.offsets[v + 1]] {
                if dist[u as usize] == UNDEF {
                    dist[u as usize] = next;
                    queue.push(u);
                }
            }
        }
        dist
    }

    /// Rank `rank`'s slice of the reference distances.
    pub fn reference_slice(&self, rank: usize) -> &[u64] {
        let r = &self.parts[0].vertex_ranges;
        &self.reference[r[rank]..r[rank + 1]]
    }

    fn fingerprint(&self) -> Fingerprint {
        let mut h = Fnv::new();
        for g in &self.parts {
            for &o in &g.offsets {
                h.word(o as u64);
            }
            for &t in &g.targets {
                h.word(t);
            }
        }
        h.word(self.source);
        Fingerprint {
            n: (self.offsets.len() - 1) as u64,
            m: self.targets.len() as u64,
            levels: self.levels,
            checksum: h.0,
        }
    }
}

/// Smallest vertex id at the largest finite distance.
fn farthest(dist: &[u64]) -> u64 {
    let mut best = 0;
    for (v, &d) in dist.iter().enumerate() {
        if d != UNDEF && d > dist[best] {
            best = v;
        }
    }
    best as u64
}

/// The RAxML proxy's inputs are fixed by `phylo::run_kamping`'s
/// signature (sites per rank, rounds); the seed does not enter.
pub struct Phylo {
    pub p: usize,
    pub reference: f64,
}

impl Phylo {
    fn generate(p: usize) -> Phylo {
        let mut ph = Phylo { p, reference: 0.0 };
        ph.reference = ph.sequential();
        ph
    }

    /// The sequential fold: the same rounds on one thread, summing the
    /// per-rank site ranges in rank order.
    pub fn sequential(&self) -> f64 {
        let mut model = Model::initial(PHYLO_BRANCHES);
        let mut ll = 0.0;
        for it in 0..PHYLO_ROUNDS {
            model.perturb(it);
            ll = (0..self.p as u64)
                .map(|r| {
                    let lo = r * PHYLO_SITES_PER_RANK;
                    phylo::local_loglik(lo..lo + PHYLO_SITES_PER_RANK, black_box(&model))
                })
                .sum();
        }
        ll
    }

    pub fn matches(&self, ll: f64) -> bool {
        (ll - self.reference).abs() <= 1e-12 * self.reference.abs()
    }

    fn fingerprint(&self) -> Fingerprint {
        let mut h = Fnv::new();
        let model =
            kmp_serialize::to_bytes(&Model::initial(PHYLO_BRANCHES)).expect("the model serializes");
        for b in model {
            h.word(u64::from(b));
        }
        h.word(self.reference.to_bits());
        Fingerprint {
            n: self.p as u64 * PHYLO_SITES_PER_RANK,
            m: PHYLO_ROUNDS,
            levels: 0,
            checksum: h.0,
        }
    }
}

/// Per-rank vectors of the bulk allgatherv and their concatenation.
pub struct Vectors {
    pub inputs: Vec<Vec<u64>>,
    pub expected: Vec<u64>,
}

impl Vectors {
    pub fn generate(seed: u64, p: usize, unit: usize) -> Vectors {
        let inputs: Vec<Vec<u64>> = (0..p)
            .map(|r| {
                let base = splitmix64(seed ^ splitmix64(r as u64));
                (0..(r + 1) * unit)
                    .map(|i| splitmix64(base.wrapping_add(i as u64)))
                    .collect()
            })
            .collect();
        let expected = Vectors::concat(&inputs);
        Vectors { inputs, expected }
    }

    /// The sequential baseline: the concatenation in rank order.
    pub fn concat(inputs: &[Vec<u64>]) -> Vec<u64> {
        let mut out = Vec::with_capacity(inputs.iter().map(Vec::len).sum());
        for v in inputs {
            out.extend_from_slice(v);
        }
        out
    }

    fn fingerprint(&self) -> Fingerprint {
        let mut h = Fnv::new();
        for &x in &self.expected {
            h.word(x);
        }
        Fingerprint {
            n: self.expected.len() as u64,
            m: self.inputs.len() as u64,
            levels: 0,
            checksum: h.0,
        }
    }
}

pub enum Input {
    Graph(Graph),
    Phylo(Phylo),
    Vectors(Vectors),
}

/// What one rank's entry-point call returned.
pub enum Output {
    Dist(Vec<u64>),
    Ll(f64),
    Gathered(Vec<u64>),
}

/// A workload with its generated inputs.
pub struct Problem {
    pub workload: Workload,
    pub p: usize,
    pub input: Input,
}

impl Problem {
    pub fn generate(workload: Workload, seed: u64, p: usize) -> Problem {
        let input = match workload {
            Workload::BfsSparse | Workload::BfsOverlap => Input::Graph(Graph::generate(seed, p)),
            Workload::PhyloRate => Input::Phylo(Phylo::generate(p)),
            Workload::AllgathervBulk => Input::Vectors(Vectors::generate(seed, p, BULK_UNIT)),
        };
        Problem { workload, p, input }
    }

    pub fn fingerprint(&self) -> Fingerprint {
        match &self.input {
            Input::Graph(g) => g.fingerprint(),
            Input::Phylo(ph) => ph.fingerprint(),
            Input::Vectors(v) => v.fingerprint(),
        }
    }

    pub fn graph(&self) -> &Graph {
        match &self.input {
            Input::Graph(g) => g,
            _ => panic!("{} has no graph", self.workload.name()),
        }
    }

    /// Work units of one iteration: directed edges scanned, rounds, or
    /// gathered bytes summed over ranks.
    pub fn work_per_iter(&self) -> f64 {
        match &self.input {
            Input::Graph(g) => g.traversed as f64,
            Input::Phylo(_) => PHYLO_ROUNDS as f64,
            Input::Vectors(v) => (v.expected.len() * 8 * self.p) as f64,
        }
    }

    /// One call of the workload's library entry point on this rank.
    pub fn par(&self, comm: &Communicator) -> kmp_mpi::Result<Output> {
        let rank = comm.rank();
        Ok(match (&self.input, self.workload) {
            (Input::Graph(g), Workload::BfsSparse) => Output::Dist(bfs::bfs_with_exchange(
                &g.parts[rank],
                g.source,
                comm,
                Exchange::KampingSparse,
            )?),
            (Input::Graph(g), _) => {
                Output::Dist(bfs::bfs_kamping_overlap(&g.parts[rank], g.source, comm)?)
            }
            (Input::Phylo(_), _) => Output::Ll(phylo::run_kamping(
                PHYLO_SITES_PER_RANK,
                PHYLO_ROUNDS,
                comm,
            )?),
            (Input::Vectors(v), _) => Output::Gathered(comm.allgatherv(send_buf(&v.inputs[rank]))?),
        })
    }

    /// The benchmark-owned single-thread baseline of the same problem.
    /// Returns whether its result equals the reference.
    pub fn seq(&self) -> bool {
        match &self.input {
            Input::Graph(g) => g.sequential(black_box(g.source)) == g.reference,
            Input::Phylo(ph) => ph.matches(ph.sequential()),
            Input::Vectors(v) => Vectors::concat(black_box(&v.inputs)) == v.expected,
        }
    }

    /// Whether rank `rank`'s entry-point output is correct.
    pub fn check(&self, rank: usize, out: &Output) -> bool {
        match (&self.input, out) {
            (Input::Graph(g), Output::Dist(d)) => d.as_slice() == g.reference_slice(rank),
            (Input::Phylo(ph), Output::Ll(ll)) => ph.matches(*ll),
            (Input::Vectors(v), Output::Gathered(got)) => *got == v.expected,
            _ => false,
        }
    }
}
