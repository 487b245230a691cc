//! The pieces the workloads are built from. Each function drives one
//! layer through its public API and, when its scope is traced, records a
//! span around every call it makes into that layer.

use crate::check::{fnv1a, Checker};
use crate::spans::Scope;
use btbx_bench::journal::{self, SweepJournal};
use btbx_bench::serve::{http_request, ServeConfig, ServeStats, Server};
use btbx_bench::sweep::plan_batches;
use btbx_bench::{HarnessOpts, ResultStore, SimPoint, Sweep};
use btbx_core::BtbSpec;
use btbx_trace::container::write_container;
use btbx_trace::record::Op;
use btbx_trace::{AnySource, PackedBuf, SyntheticTrace, TraceSource, WorkloadSpec};
use btbx_uarch::batch::{lookahead_slack, BatchStream};
use btbx_uarch::bpu::Bpu;
use btbx_uarch::hierarchy::{Hierarchy, Port};
use btbx_uarch::{
    AnyWarmLadder, ParallelSession, ParallelTelemetry, SimConfig, SimResult, SimSession,
};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Events per staging block, as the simulator's own fill loop uses.
const BLOCK: usize = 4096;
/// Events a container holds beyond a point's window: covers the
/// simulator's lookahead past its committed target.
pub const CONTAINER_HEADROOM: u64 = 65_536;

/// SplitMix64: the benchmark's own deterministic generator.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce5_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The synthetic stream of `spec` with its walker seed chosen by the
/// benchmark seed. The program image stays the calibrated one, so other
/// seeds are other dynamic paths through the same program; seed 0 is
/// exactly `spec.build_source()`.
pub fn synth_source(spec: &WorkloadSpec, seed: u64) -> AnySource {
    let walker = if seed == crate::DEFAULT_SEED {
        spec.seed
    } else {
        spec.seed ^ mix(seed)
    };
    AnySource::Synth(SyntheticTrace::new(
        spec.build_image(),
        spec.name.clone(),
        walker,
    ))
}

/// Write the first `len` instructions of `source` to `dir/<name>.btbt`
/// and describe the container as a workload.
pub fn write_trace(dir: &Path, spec: &WorkloadSpec, source: &AnySource, len: u64) -> WorkloadSpec {
    let path = dir.join(format!("{}.btbt", spec.name));
    let file =
        std::fs::File::create(&path).unwrap_or_else(|e| panic!("creating {}: {e}", path.display()));
    let mut out = std::io::BufWriter::new(file);
    let mut source = source.clone();
    write_container(&mut out, &spec.name, spec.params.arch, &mut source, len)
        .and_then(|_| out.flush())
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    WorkloadSpec::from_container(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// One point simulated serially or sharded: a stream plus everything a
/// session needs.
#[derive(Clone)]
pub struct SerialPoint {
    /// Reference key.
    pub key: String,
    pub source: AnySource,
    pub spec: BtbSpec,
    pub config: SimConfig,
    pub warmup: u64,
    pub measure: u64,
}

impl SerialPoint {
    fn label(&self) -> &'static str {
        self.spec.org.id()
    }

    /// `SimSession::run` on one thread.
    pub fn run(&self) -> SimResult {
        SimSession::new(self.source.clone())
            .btb_spec(self.spec)
            .config(self.config.clone())
            .label(self.label())
            .warmup(self.warmup)
            .measure(self.measure)
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", self.key))
    }

    /// `ParallelSession::run` in checkpoint mode, 2 shards on 2 threads,
    /// handing warm state through `ladder`.
    pub fn run_sharded(&self, ladder: &AnyWarmLadder) -> (SimResult, ParallelTelemetry) {
        let proto = self.source.clone();
        let out = ParallelSession::new(move || proto.clone(), self.spec)
            .config(self.config.clone())
            .label(self.label())
            .warmup(self.warmup)
            .measure(self.measure)
            .shards(2)
            .threads(2)
            .checkpoints(true)
            .warm_ladder(ladder)
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", self.key));
        (out.result, out.telemetry)
    }

    /// Every instruction a run of this point simulates: the warm-up plus
    /// the measured ones.
    pub fn simulated(&self, r: &SimResult) -> u64 {
        self.warmup + r.stats.instructions
    }
}

/// Host time of one operation and the instructions it simulated.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub seconds: f64,
    pub instructions: u64,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Serial sessions, one span per point.
pub fn sessions(scope: Scope, points: &[SerialPoint]) -> Vec<(SimResult, Timed)> {
    points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let (r, seconds) = scope
                .op(i as u64)
                .span("uarch.session_run", |_| timed(|| p.run()));
            let instructions = p.simulated(&r);
            (
                r,
                Timed {
                    seconds,
                    instructions,
                },
            )
        })
        .collect()
}

/// One sharded run per point, each with a fresh warm ladder (the cold
/// case: shard 0 warms and hands snapshots forward).
pub fn sharded(scope: Scope, points: &[SerialPoint]) -> Vec<(SimResult, Timed, ParallelTelemetry)> {
    points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let ladder = AnyWarmLadder::new();
            let ((r, tel), seconds) = scope
                .op(i as u64)
                .span("parallel.session_run", |_| timed(|| p.run_sharded(&ladder)));
            let instructions = p.simulated(&r);
            (
                r,
                Timed {
                    seconds,
                    instructions,
                },
                tel,
            )
        })
        .collect()
}

/// Per-layer numbers of the parallel layer for a set of points.
#[derive(Debug, Default, Clone)]
pub struct ParallelLayer {
    pub cold_s: f64,
    pub warm_s: f64,
    pub setup_s: f64,
    pub position_s: f64,
    pub restore_s: f64,
    pub snapshot_bytes: u64,
}

/// A cold sharded run and a warm rerun over the same ladder per point.
pub fn parallel_layer(
    scope: Scope,
    points: &[SerialPoint],
    checker: &Checker,
    twins: &[SimResult],
) -> ParallelLayer {
    let mut out = ParallelLayer::default();
    for (i, p) in points.iter().enumerate() {
        let scope = scope.op(i as u64);
        let ladder = AnyWarmLadder::new();
        for warm in [false, true] {
            let name = if warm {
                "parallel.warm_rerun"
            } else {
                "parallel.cold_run"
            };
            let ((r, tel), s) = scope.span(name, |_| timed(|| p.run_sharded(&ladder)));
            checker.record(checker.stats(&p.key, &r, twins.get(i)));
            if warm {
                out.warm_s += s;
            } else {
                out.cold_s += s;
                out.setup_s += tel.serial_setup_seconds;
                out.position_s += tel.position_seconds;
                out.restore_s += tel.restore_seconds;
                out.snapshot_bytes = out.snapshot_bytes.max(tel.snapshot_bytes);
            }
        }
    }
    out
}

/// Replays of one point's instruction stream through single layers.
#[derive(Debug, Default, Clone)]
pub struct Replays {
    /// Producing the stream (synthetic walk or container decode).
    pub stream_s: f64,
    pub btb_s: f64,
    pub btb_ops: u64,
    pub bpu_s: f64,
    pub hierarchy_s: f64,
}

impl Replays {
    fn add(&mut self, o: &Replays) {
        self.stream_s += o.stream_s;
        self.btb_s += o.btb_s;
        self.btb_ops += o.btb_ops;
        self.bpu_s += o.bpu_s;
        self.hierarchy_s += o.hierarchy_s;
    }
}

/// Feed `n` instructions of `source` to `f`, one staging block at a
/// time, as the simulator's fill loop does.
fn for_blocks(source: &AnySource, n: u64, mut f: impl FnMut(&PackedBuf)) {
    let mut source = source.clone();
    let mut buf = PackedBuf::with_capacity(BLOCK);
    let mut left = n;
    while left > 0 {
        buf.clear();
        let got = source.fill_block(&mut buf, (left as usize).min(BLOCK));
        if got == 0 {
            break;
        }
        left -= got as u64;
        f(&buf);
    }
}

/// [`for_blocks`], returning the seconds spent inside `f` only: the
/// replayed layer's time without the stream's.
fn replay_blocks(source: &AnySource, n: u64, mut f: impl FnMut(&PackedBuf)) -> f64 {
    let mut busy = 0.0;
    for_blocks(source, n, |buf| {
        let t = Instant::now();
        f(buf);
        busy += t.elapsed().as_secs_f64();
    });
    busy
}

/// Time producing `n` instructions of `source` (synthetic generation or
/// container decode) into staging blocks.
pub fn stream_pass(scope: Scope, source: &AnySource, n: u64) -> f64 {
    let name = if matches!(source, AnySource::Synth(_)) {
        "trace.synth_pass"
    } else {
        "trace.decode_pass"
    };
    scope.span(name, |_| {
        timed(|| {
            for_blocks(source, n, |buf| {
                black_box(buf);
            })
        })
        .1
    })
}

/// Replay the point's stream through its `BtbEngine` alone, through a
/// `Bpu` around the same engine kind, and through the `Hierarchy`. The
/// replays approximate the cycle loop's call pattern (every instruction
/// looks up the BTB and is predicted, taken hits consume their target,
/// every branch commits, every new
/// fetch block and data access enters the hierarchy, taken branches
/// prefetch their target when FDIP is on); they time the layer, not the
/// model.
pub fn replays(scope: Scope, p: &SerialPoint) -> Replays {
    let n = p.warmup + p.measure;
    let mut out = Replays {
        stream_s: stream_pass(scope, &p.source, n),
        ..Replays::default()
    };
    scope.span("core.btb_replay", |_| {
        let mut engine = p.spec.build_engine().expect("benchmark specs are valid");
        let mut ops = 0u64;
        out.btb_s = replay_blocks(&p.source, n, |buf| {
            for i in 0..buf.len() {
                let ins = buf.get(i);
                let hit = engine.lookup(ins.pc);
                ops += 1;
                if let Some(ev) = ins.branch_event() {
                    if let Some(h) = hit.filter(|_| ev.taken) {
                        engine.note_target_consumed(&h);
                        ops += 1;
                    }
                    engine.update(ev);
                    ops += 1;
                }
            }
        });
        out.btb_ops = ops;
    });
    scope.span("uarch.bpu_replay", |_| {
        let engine = p.spec.build_engine().expect("benchmark specs are valid");
        let mut bpu = Bpu::new(engine, p.config.ras_entries, p.config.decode_resteer);
        out.bpu_s = replay_blocks(&p.source, n, |buf| {
            for i in 0..buf.len() {
                let ins = buf.get(i);
                let ev = ins.branch_event();
                black_box(bpu.predict(ins.pc, ins.size, ev));
                if let Some(ev) = ev {
                    bpu.commit(ev);
                }
            }
        });
    });
    scope.span("uarch.hierarchy_replay", |_| {
        let mut h = Hierarchy::new(&p.config);
        let mut seq = 0u64;
        let mut last_block = u64::MAX;
        out.hierarchy_s = replay_blocks(&p.source, n, |buf| {
            for i in 0..buf.len() {
                let ins = buf.get(i);
                // About 2.5 cycles per instruction, the model's IPC.
                let now = seq * 5 / 2;
                seq += 1;
                if ins.pc >> 6 != last_block {
                    last_block = ins.pc >> 6;
                    black_box(h.access(Port::Instr, ins.pc, now));
                }
                match ins.op {
                    Op::Mem(a) => {
                        black_box(h.access(Port::Data, a.address(), now));
                    }
                    Op::Branch(ev) if ev.taken && p.config.fdip => {
                        black_box(h.prefetch_instr(ev.target, now));
                    }
                    _ => {}
                }
            }
        });
    });
    out
}

/// Replays summed over points.
pub fn replays_all(scope: Scope, points: &[SerialPoint]) -> Replays {
    let mut total = Replays::default();
    for (i, p) in points.iter().enumerate() {
        total.add(&replays(scope.op(i as u64), p));
    }
    total
}

/// Per-layer numbers of a sweep: the real `Sweep::run` plus isolated
/// probes of the calls it makes.
#[derive(Debug, Default, Clone)]
pub struct SweepLayer {
    /// Host seconds of `Sweep::run`.
    pub wall_s: f64,
    pub plan_s: f64,
    pub materialize_s: f64,
    pub groups: u64,
    pub lanes: u64,
    pub publish_ms: Vec<f64>,
    pub fsync_ms: Vec<f64>,
    /// `(disk_hits, computes, joins)` the run added to its store.
    pub counters: (u64, u64, u64),
    pub results: Vec<SimResult>,
}

/// `Sweep::run` with `opts` inside one span. Its store's counters are
/// read from a store opened on the same directory, which shares them.
/// Then, one by one with a span around each, the calls the run makes:
/// `plan_batches` over every point (a fresh store misses them all),
/// `BatchStream::materialize` of every planned group, and per point a
/// journal `attempt`, a `ResultStore::store` and a journal `done`, into a
/// probe journal and store under `opts.out_dir/probe`.
pub fn sweep_layer(scope: Scope, sweep: &Sweep, opts: &HarnessOpts) -> SweepLayer {
    let store = ResultStore::open(opts.out_dir.join("cache")).expect("opening the sweep store");
    let before = store.counters();
    let (results, wall_s) = scope.span("sweep.run", |_| timed(|| sweep.run(opts)));
    let after = store.counters();
    let mut out = SweepLayer {
        wall_s,
        counters: (
            after.disk_hits - before.disk_hits,
            after.computes - before.computes,
            after.joins - before.joins,
        ),
        ..SweepLayer::default()
    };

    let points = sweep.points();
    let all: Vec<usize> = (0..points.len()).collect();
    let (groups, plan_s) = scope.span("sweep.plan_batches", |_| {
        timed(|| plan_batches(&points, &all))
    });
    out.plan_s = plan_s;
    out.groups = groups.len() as u64;
    out.lanes = groups.iter().map(|g| g.members.len() as u64).sum();
    for (g, group) in groups.iter().enumerate() {
        let first = &points[group.members[0]];
        let slack = group
            .members
            .iter()
            .map(|&i| lookahead_slack(&points[i].config))
            .max()
            .expect("groups are non-empty");
        let (stream, s) = scope.op(g as u64).span("batch.materialize", |_| {
            timed(|| {
                let source = first
                    .workload
                    .build_source()
                    .expect("sweep containers open");
                BatchStream::materialize(source, first.warmup, first.measure, slack)
                    .expect("sweep windows are bounded")
            })
        });
        black_box(stream);
        out.materialize_s += s;
    }

    let probe = opts.out_dir.join("probe");
    let probe_store = ResultStore::open(probe.join("cache")).expect("opening the probe store");
    let names: Vec<String> = points.iter().map(SimPoint::cache_file).collect();
    let (journal, _) = scope.span("journal.open", |_| {
        SweepJournal::open(&probe, journal::sweep_key(&names), false).expect("opening the journal")
    });
    for (i, (name, r)) in names.iter().zip(&results).enumerate() {
        let scope = scope.op(i as u64);
        let (_, a) = scope.span("journal.attempt", |_| timed(|| journal.attempt(name, name)));
        let (stored, s) = scope.span("store.publish", |_| timed(|| probe_store.store(name, r)));
        stored.expect("publishing a sweep result");
        let (_, d) = scope.span("journal.done", |_| timed(|| journal.done(name)));
        out.publish_ms.push(s * 1e3);
        out.fsync_ms.extend([a * 1e3, d * 1e3]);
    }
    scope.span("journal.finish", |_| journal.finish());
    out.results = results;
    out
}

/// Warm-up offset of join points: keeps them apart from miss points,
/// whose offsets stay far below it.
pub const JOIN_OFFSET: u64 = 5_000;

/// Counters that keep every unseen point unseen across client windows.
#[derive(Default)]
pub struct Fresh {
    pub misses: AtomicU64,
    pub joins: AtomicU64,
}

/// How a `/sim` request was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A pre-populated point: the store's read path.
    Hit,
    /// A point no one asked for before: computed and published.
    Miss,
    /// A new point sent on both connections at once.
    Join,
    /// A deliberately malformed body (self-tests only).
    Bad,
}

/// Which point a request asked for, kept small so a long window's
/// samples cost little memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// Pre-populated point `h`.
    Hit(usize),
    /// Pre-populated point `u mod n` with its warm-up lengthened by
    /// `offset + u / n` instructions: a point no request asked for before.
    Unseen { u: u64, offset: u64 },
}

/// The point a request asked for.
pub fn target_point(hits: &[(SimPoint, SimResult)], target: Target) -> SimPoint {
    match target {
        Target::Hit(h) => hits[h].0.clone(),
        Target::Unseen { u, offset } => {
            let n = hits.len() as u64;
            let mut p = hits[(u % n) as usize].0.clone();
            p.warmup += offset + u / n;
            p
        }
    }
}

/// One answered (or failed) request.
#[derive(Debug, Clone)]
pub struct Sample {
    pub kind: Kind,
    pub ms: f64,
    pub status: u16,
    /// `X-Btbx-Cache`: `disk`, `computed`, `joined`, or empty.
    pub cache: &'static str,
    pub target: Target,
    /// FNV-1a of the response body.
    pub body_hash: u64,
    /// The body, kept the first time a client sees it: repeated hits
    /// return the same bytes, so memory stays flat however long the
    /// window runs, and a wrong body is new and therefore kept.
    pub body: Option<String>,
}

// The traffic mix below is an assumption, not measured traffic: a
// mostly warm shared cache that still sees new points (see README.md,
// "The serve traffic mix is an assumption").

/// Requests each client sends per round, after the round's join.
const OPS_PER_ROUND: u32 = 20;
/// One join request per this many rounds.
const JOIN_EVERY: u64 = 5;
/// Every this-many-th request of a client's own asks for an unseen
/// point (3%). A fixed pattern, not a draw, so every seed runs the same
/// mix and only the hit points and trace paths change.
const MISS_EVERY: u64 = 33;

/// Faults the self-tests force on the serve workload: a server that
/// sheds above `max_inflight` concurrent requests (0 = never), and a
/// malformed body on every `bad_every`-th request of client 0.
#[derive(Debug, Clone, Default)]
pub struct ServeFaults {
    pub max_inflight: usize,
    pub bad_every: Option<u64>,
}

/// A running server over a pre-populated cache, plus the points it
/// already holds.
pub struct ServeRig {
    server: Server,
    addr: String,
    cache_dir: std::path::PathBuf,
    /// Pre-populated points and their results (computed by
    /// `SimPoint::run` at set-up).
    pub hits: Vec<(SimPoint, SimResult)>,
    /// Milliseconds per `ResultStore::store` while pre-populating.
    pub publish_ms: Vec<f64>,
}

impl ServeRig {
    /// Compute and publish `points` into a fresh cache under `dir`, then
    /// start a server on it (2 threads, 1 shard, ephemeral port).
    pub fn start(scope: Scope, dir: &Path, points: Vec<SimPoint>, max_inflight: usize) -> ServeRig {
        let cache_dir = dir.join("cache");
        let store = ResultStore::open(&cache_dir).expect("opening the serve cache");
        let mut hits = Vec::with_capacity(points.len());
        let mut publish_ms = Vec::new();
        for p in points {
            let r = scope.span("sweep.sim_point_run", |_| p.run());
            let (stored, s) = scope.span("store.publish", |_| {
                timed(|| store.store(&p.cache_file(), &r))
            });
            stored.expect("pre-populating the serve cache");
            publish_ms.push(s * 1e3);
            hits.push((p, r));
        }
        let server = scope.span("serve.start", |_| {
            Server::start(ServeConfig {
                port: 0,
                cache_dir: cache_dir.clone(),
                threads: 2,
                shards: 1,
                max_inflight,
                deadline: None,
                store: None,
                http_timeout: Duration::from_secs(60),
            })
            .expect("starting the server")
        });
        let addr = server.addr().to_string();
        ServeRig {
            server,
            addr,
            cache_dir,
            hits,
            publish_ms,
        }
    }

    /// The server's counters.
    pub fn stats(&self) -> Option<ServeStats> {
        let r = http_request(&self.addr, "GET", "/stats", "").ok()?;
        serde_json::from_str(&r.body).ok()
    }

    /// Shut the server down and wait until it has stopped.
    pub fn stop(self) {
        if self.server.shutdown().is_ok() {
            self.server.join();
        }
    }

    /// Two closed-loop clients for `seconds`. Each round both clients
    /// meet at a barrier (where client 0 decides whether time is up),
    /// send one shared new point every `JOIN_EVERY` rounds, then
    /// `OPS_PER_ROUND` requests of their own: mostly pre-populated
    /// points, every `MISS_EVERY`-th an unseen one.
    pub fn clients(
        &self,
        scope: Scope,
        seed: u64,
        seconds: f64,
        faults: &ServeFaults,
        fresh: &Fresh,
    ) -> (Vec<Sample>, f64) {
        let barrier = Barrier::new(2);
        let stop = AtomicBool::new(false);
        let samples = Mutex::new(Vec::new());
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for c in 0..2u64 {
                let (barrier, stop, samples) = (&barrier, &stop, &samples);
                s.spawn(move || {
                    let mut rng = mix(seed ^ (c + 1).wrapping_mul(0xa076_1d64_78bd_642f));
                    let mut next = || {
                        rng = mix(rng);
                        rng
                    };
                    let mut mine = Vec::new();
                    let mut bodies = HashSet::new();
                    let mut sent = 0u64;
                    for round in 0u64.. {
                        barrier.wait();
                        let join = round % JOIN_EVERY == 0;
                        if c == 0 {
                            if t0.elapsed().as_secs_f64() >= seconds {
                                stop.store(true, Ordering::SeqCst);
                            } else if join {
                                fresh.joins.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        if join {
                            let u = fresh.joins.load(Ordering::SeqCst);
                            let target = Target::Unseen {
                                u,
                                offset: JOIN_OFFSET,
                            };
                            mine.push(self.send(scope.op(sent), Kind::Join, target, &mut bodies));
                            sent += 1;
                        }
                        for _ in 0..OPS_PER_ROUND {
                            let bad = c == 0
                                && faults
                                    .bad_every
                                    .is_some_and(|n| (sent + 1).is_multiple_of(n));
                            let (kind, target) = if bad {
                                (Kind::Bad, Target::Hit(0))
                            } else if sent % MISS_EVERY == MISS_EVERY - 1 {
                                let u = fresh.misses.fetch_add(1, Ordering::Relaxed);
                                (Kind::Miss, Target::Unseen { u, offset: 1 })
                            } else {
                                let h = (next() % self.hits.len() as u64) as usize;
                                (Kind::Hit, Target::Hit(h))
                            };
                            mine.push(self.send(scope.op(sent), kind, target, &mut bodies));
                            sent += 1;
                        }
                    }
                    samples.lock().expect("samples poisoned").extend(mine);
                });
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        (samples.into_inner().expect("samples poisoned"), wall)
    }

    fn send(&self, scope: Scope, kind: Kind, target: Target, bodies: &mut HashSet<u64>) -> Sample {
        let body = if kind == Kind::Bad {
            "{\"workload\":".to_string()
        } else {
            serde_json::to_string(&target_point(&self.hits, target)).expect("points serialize")
        };
        let name = match kind {
            Kind::Hit => "serve.request_hit",
            Kind::Miss => "serve.request_miss",
            Kind::Join => "serve.request_join",
            Kind::Bad => "serve.request_bad",
        };
        let (resp, s) = scope.span(name, |_| {
            timed(|| http_request(&self.addr, "POST", "/sim", &body))
        });
        let (status, cache, body) = match resp {
            Ok(r) => {
                let cache = match r.header("x-btbx-cache") {
                    Some("disk") => "disk",
                    Some("computed") => "computed",
                    Some("joined") => "joined",
                    _ => "",
                };
                (r.status, cache, r.body)
            }
            Err(e) => (0, "", e.to_string()),
        };
        let body_hash = fnv1a(body.as_bytes());
        Sample {
            kind,
            ms: s * 1e3,
            status,
            cache,
            target,
            body_hash,
            body: bodies.insert(body_hash).then_some(body),
        }
    }

    /// Direct `ResultStore::load` of every pre-populated point, in ms.
    pub fn direct_loads(&self, scope: Scope) -> Vec<f64> {
        let store = ResultStore::open(&self.cache_dir).expect("opening the serve cache");
        self.hits
            .iter()
            .map(|(p, _)| {
                let (r, s) = scope.span("store.load", |_| timed(|| store.load(&p.cache_file())));
                black_box(r.ok());
                s * 1e3
            })
            .collect()
    }
}

/// Check every sample: status 200, and the body equal to the point's
/// result — the pre-populated one for hits, a fresh `SimPoint::run`
/// (spread over two threads) for everything else.
pub fn verify_samples(checker: &Checker, hits: &[(SimPoint, SimResult)], samples: &[Sample]) {
    let bodies: HashMap<u64, &str> = samples
        .iter()
        .filter_map(|s| s.body.as_deref().map(|b| (s.body_hash, b)))
        .collect();
    let hit_keys: Vec<String> = hits.iter().map(|(p, _)| p.cache_key()).collect();
    let mut parsed: HashMap<u64, Result<SimResult, String>> = HashMap::new();
    let mut pending: Vec<(Target, SimResult)> = Vec::new();
    for s in samples {
        let body = bodies.get(&s.body_hash).copied().unwrap_or("");
        if s.status != 200 {
            checker.record(Err(format!(
                "{:?} request for {:?}: status {} ({})",
                s.kind,
                s.target,
                s.status,
                body.chars().take(120).collect::<String>()
            )));
            continue;
        }
        let got = match parsed
            .entry(s.body_hash)
            .or_insert_with(|| serde_json::from_str(body).map_err(|e| e.to_string()))
        {
            Ok(r) => r.clone(),
            Err(e) => {
                checker.record(Err(format!("{:?}: unparseable body: {e}", s.target)));
                continue;
            }
        };
        match s.target {
            Target::Hit(h) => checker.record(checker.stats(&hit_keys[h], &got, Some(&hits[h].1))),
            unseen => pending.push((unseen, got)),
        }
    }
    let unique: Vec<Target> = pending
        .iter()
        .map(|(t, _)| *t)
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    let points: Vec<SimPoint> = unique.iter().map(|&t| target_point(hits, t)).collect();
    let twins: HashMap<Target, (String, SimResult)> = unique
        .into_iter()
        .zip(points.iter().map(SimPoint::cache_key))
        .zip(per_point(&points))
        .map(|((t, key), r)| (t, (key, r)))
        .collect();
    for (t, got) in &pending {
        let (key, twin) = &twins[t];
        // The reference covers the pre-populated points only; unseen
        // points are checked against their twin alone.
        checker.record(checker.twin(key, got, Some(twin)));
    }
}

/// `SimPoint::run` of every point, spread over two threads.
pub fn per_point(points: &[SimPoint]) -> Vec<SimResult> {
    let (a, b) = points.split_at(points.len().div_ceil(2));
    std::thread::scope(|s| {
        let hb = s.spawn(|| b.iter().map(SimPoint::run).collect::<Vec<_>>());
        let mut out: Vec<SimResult> = a.iter().map(SimPoint::run).collect();
        out.extend(hb.join().expect("per-point thread panicked"));
        out
    })
}

/// Split of request latencies by how the server answered.
pub fn split_ms(samples: &[Sample], cache: &str) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.status == 200 && s.cache == cache)
        .map(|s| s.ms)
        .collect()
}
