//! The four workloads. Each runs untraced for the end-to-end metrics
//! or, with `--trace 1`, as a traced run that reports the per-layer
//! metrics (see README.md for which metric comes from where).

use crate::layers::{
    self, Fresh, Kind, Sample, SerialPoint, ServeFaults, ServeRig, CONTAINER_HEADROOM, JOIN_OFFSET,
};
use crate::report::{median, peak_rss_mb, percentile, Report};
use crate::spans::{self, Scope};
use crate::Ctx;
use btbx_bench::{HarnessOpts, SimPoint, Sweep};
use btbx_core::storage::BudgetPoint;
use btbx_core::{AccessCounts, BtbSpec, OrgKind};
use btbx_trace::{suite, AnySource, WorkloadSpec};
use btbx_uarch::{SimConfig, SimResult};
use std::time::Instant;

/// Set-ups per run, by workload; `setup_s` is their median. Each
/// workload repeats its set-up for about a second in total, so the
/// median is steady however short one set-up is.
const SERVER_SETUPS: usize = 15;
const SWEEP_SETUPS: usize = 7;
const SERVE_SETUPS: usize = 5;
/// Budgets of the sweep matrix.
const SWEEP_BUDGETS: [BudgetPoint; 3] =
    [BudgetPoint::Kb1_8, BudgetPoint::Kb3_6, BudgetPoint::Kb14_5];
/// Budgets of the serve workload's pre-populated points.
const SERVE_BUDGETS: [BudgetPoint; 2] = [BudgetPoint::Kb1_8, BudgetPoint::Kb14_5];

/// Warm-up and measured instructions of one kind of point.
#[derive(Debug, Clone, Copy)]
struct Windows {
    warmup: u64,
    measure: u64,
}

impl Ctx<'_> {
    /// `serial_server` / `sharded_server`: full warm-up and measure
    /// windows, every instruction simulated.
    fn server_windows(&self) -> Windows {
        self.size(
            Windows {
                warmup: 2_000_000,
                measure: 2_000_000,
            },
            Windows {
                warmup: 20_000,
                measure: 20_000,
            },
        )
    }

    /// `sweep_matrix`: one 8 MB batch window per group.
    fn sweep_windows(&self) -> Windows {
        self.size(
            Windows {
                warmup: 400_000,
                measure: 100_000,
            },
            Windows {
                warmup: 10_000,
                measure: 10_000,
            },
        )
    }

    /// `serve_mixed` points and the small sweep/serve sections of the
    /// other workloads' traced runs: 50k-instruction points.
    fn short_windows(&self) -> Windows {
        self.size(
            Windows {
                warmup: 20_000,
                measure: 30_000,
            },
            Windows {
                warmup: 5_000,
                measure: 5_000,
            },
        )
    }
}

pub fn run(ctx: &Ctx) -> Report {
    match ctx.args.workload.as_str() {
        "serial_server" => serial_server(ctx),
        "sharded_server" => sharded_server(ctx),
        "sweep_matrix" => sweep_matrix(ctx),
        "serve_mixed" => serve_mixed(ctx),
        other => unreachable!("workload {other} is rejected by Args::parse"),
    }
}

fn workload(list: Vec<WorkloadSpec>, name: &str) -> WorkloadSpec {
    list.into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("the suite defines {name}"))
}

/// The large-footprint server stand-in (BTB MPKI 6.4–11.3 at 14.5 KB).
fn server_030() -> WorkloadSpec {
    workload(suite::ipc1_server(), "server_030")
}

/// A BTB-hit-dominated client.
fn client(i: u32) -> WorkloadSpec {
    workload(suite::ipc1_client(), &format!("client_{i:03}"))
}

/// Median of `reps` timed set-ups and the last set-up's output.
fn set_up<T>(reps: usize, mut f: impl FnMut(usize) -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for k in 0..reps {
        // Drop the previous set-up first, so repeating it does not
        // raise the peak resident set.
        drop(last.take());
        let t = Instant::now();
        last = Some(f(k));
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one set-up"))
}

/// The paper's three organizations at 14.5 KB with FDIP on, over `source`.
fn paper_points(
    ctx: &Ctx,
    name: &str,
    source: &AnySource,
    spec: &WorkloadSpec,
    w: Windows,
) -> Vec<SerialPoint> {
    OrgKind::PAPER_EVAL
        .iter()
        .map(|&org| SerialPoint {
            key: format!(
                "{name}|{}|{}|14.5KB|fdip|{}+{}|seed{}",
                spec.name,
                org.id(),
                w.warmup,
                w.measure,
                ctx.seed()
            ),
            source: source.clone(),
            spec: BtbSpec::of(org)
                .at(BudgetPoint::Kb14_5)
                .arch(spec.params.arch),
            config: SimConfig::with_fdip(),
            warmup: w.warmup,
            measure: w.measure,
        })
        .collect()
}

/// A sweep over container-backed workloads: `orgs × budgets × fdip`.
fn sim_sweep(
    workloads: &[WorkloadSpec],
    budgets: &[BudgetPoint],
    fdip: &[bool],
    w: Windows,
) -> Sweep {
    Sweep::named("points")
        .workloads(workloads.iter().cloned())
        .orgs(OrgKind::PAPER_EVAL)
        .budgets(budgets.iter().copied())
        .fdip_options(fdip.iter().copied())
        .windows(w.warmup, w.measure)
        .config(SimConfig::with_fdip())
}

/// What an untraced run measured.
#[derive(Default)]
struct Measured {
    setup_s: f64,
    /// Host seconds the operations took (summed for sequential
    /// operations, the window's wall time for concurrent clients).
    busy_s: f64,
    instructions: u64,
    points: u64,
    latencies_ms: Vec<f64>,
    /// What one latency sample is.
    op: &'static str,
}

fn end_to_end(m: &Measured) -> Report {
    let mut r = Report::default();
    r.push("sim_instr_per_s", m.instructions as f64 / m.busy_s, "1/s");
    r.push("points_per_s", m.points as f64 / m.busy_s, "1/s");
    r.push("op_p50_ms", percentile(&m.latencies_ms, 50.0), "ms");
    r.push("op_p99_ms", percentile(&m.latencies_ms, 99.0), "ms");
    r.push("setup_s", m.setup_s, "s");
    r.push("peak_rss_mb", peak_rss_mb(), "MB");
    let n = m.latencies_ms.len();
    r.notes.push(format!(
        "op = {}; {n} latency samples, {} above p99{}",
        m.op,
        n / 100,
        if n >= 1000 {
            ""
        } else {
            " (fewer than 10: p99 is close to the maximum)"
        }
    ));
    r
}

fn serial_setup(ctx: &Ctx) -> (f64, Vec<SerialPoint>) {
    let spec = server_030();
    let (setup_s, source) = set_up(SERVER_SETUPS, |_| layers::synth_source(&spec, ctx.seed()));
    let points = paper_points(ctx, "server", &source, &spec, ctx.server_windows());
    (setup_s, points)
}

fn serial_server(ctx: &Ctx) -> Report {
    let (setup_s, points) = serial_setup(ctx);
    if ctx.args.trace {
        return traced(ctx, &points, TraceOwn::Serial);
    }
    let mut m = Measured {
        setup_s,
        op: "one SimSession::run of one point",
        ..Measured::default()
    };
    let mut firsts: Option<Vec<SimResult>> = None;
    let start = Instant::now();
    loop {
        let round = layers::sessions(ctx.scope, &points);
        // Every repeat must equal the point's first run; the reference
        // checks every run at the default seed.
        for (i, (p, (r, _))) in points.iter().zip(&round).enumerate() {
            let twin = firsts.as_ref().map(|f| &f[i]);
            ctx.checker.record(ctx.checker.stats(&p.key, r, twin));
        }
        firsts.get_or_insert_with(|| round.iter().map(|(r, _)| r.clone()).collect());
        for (_, t) in &round {
            m.busy_s += t.seconds;
            m.instructions += t.instructions;
            m.points += 1;
            m.latencies_ms.push(t.seconds * 1e3);
        }
        if start.elapsed().as_secs_f64() >= ctx.args.seconds {
            break;
        }
    }
    end_to_end(&m)
}

fn sharded_server(ctx: &Ctx) -> Report {
    let (setup_s, points) = serial_setup(ctx);
    if ctx.args.trace {
        return traced(ctx, &points, TraceOwn::Sharded);
    }
    let mut m = Measured {
        setup_s,
        op: "one cold ParallelSession::run (2 shards, 2 threads) of one point",
        ..Measured::default()
    };
    let mut results: Vec<Vec<SimResult>> = vec![Vec::new(); points.len()];
    let start = Instant::now();
    loop {
        for (i, (r, t, _)) in layers::sharded(ctx.scope, &points).into_iter().enumerate() {
            m.busy_s += t.seconds;
            m.instructions += t.instructions;
            m.points += 1;
            m.latencies_ms.push(t.seconds * 1e3);
            results[i].push(r);
        }
        if start.elapsed().as_secs_f64() >= ctx.args.seconds {
            break;
        }
    }
    // Sharded must equal serial: the reference holds the serial results
    // at the default seed; elsewhere the serial twin runs now.
    let twins: Vec<Option<SimResult>> = if ctx.has_reference() {
        vec![None; points.len()]
    } else {
        layers::sessions(Scope::default(), &points)
            .into_iter()
            .map(|(r, _)| Some(r))
            .collect()
    };
    for ((p, rs), twin) in points.iter().zip(&results).zip(&twins) {
        for r in rs {
            ctx.checker
                .record(ctx.checker.stats(&p.key, r, twin.as_ref()));
        }
    }
    end_to_end(&m)
}

/// Write the sweep's two containers: one client, one server.
fn sweep_setup(ctx: &Ctx) -> (f64, Vec<WorkloadSpec>) {
    let w = ctx.sweep_windows();
    let len = w.warmup + w.measure + CONTAINER_HEADROOM;
    set_up(SWEEP_SETUPS, |k| {
        let dir = ctx.fresh_dir(&format!("sweep-traces-{k}"));
        [client(1), server_030()]
            .iter()
            .map(|spec| {
                layers::write_trace(&dir, spec, &layers::synth_source(spec, ctx.seed()), len)
            })
            .collect()
    })
}

fn sweep_of(ctx: &Ctx, traces: &[WorkloadSpec]) -> Sweep {
    let w = ctx.sweep_windows();
    Sweep::named("sweep_matrix")
        .workloads(traces.iter().cloned())
        .orgs(OrgKind::PAPER_EVAL)
        .budgets(SWEEP_BUDGETS)
        .fdip_both()
        .windows(w.warmup, w.measure)
}

fn sweep_opts(ctx: &Ctx, dir: &str) -> HarnessOpts {
    HarnessOpts {
        out_dir: ctx.fresh_dir(dir),
        threads: 2,
        ..HarnessOpts::default()
    }
}

fn sweep_matrix(ctx: &Ctx) -> Report {
    let (setup_s, traces) = sweep_setup(ctx);
    let sweep = sweep_of(ctx, &traces);
    let points = sweep.points();
    if ctx.args.trace {
        return traced(ctx, &[], TraceOwn::Sweep(&traces, &sweep));
    }
    let mut m = Measured {
        setup_s,
        op: "one Sweep::run of the 36-point matrix into a fresh store",
        ..Measured::default()
    };
    let mut runs: Vec<Vec<SimResult>> = Vec::new();
    let start = Instant::now();
    loop {
        let opts = sweep_opts(ctx, "sweep-store");
        let t = Instant::now();
        let results = sweep.run(&opts);
        let s = t.elapsed().as_secs_f64();
        m.busy_s += s;
        m.latencies_ms.push(s * 1e3);
        m.points += results.len() as u64;
        m.instructions += points
            .iter()
            .zip(&results)
            .map(|(p, r)| p.warmup + r.stats.instructions)
            .sum::<u64>();
        runs.push(results);
        if start.elapsed().as_secs_f64() >= ctx.args.seconds {
            break;
        }
    }
    // Each batched lane must equal its per-point twin: stored in the
    // reference at the default seed, computed now elsewhere.
    let twins: Vec<Option<SimResult>> = if ctx.has_reference() {
        vec![None; points.len()]
    } else {
        layers::per_point(&points).into_iter().map(Some).collect()
    };
    for results in &runs {
        for ((p, r), twin) in points.iter().zip(results).zip(&twins) {
            ctx.checker
                .record(ctx.checker.stats(&p.cache_key(), r, twin.as_ref()));
        }
    }
    end_to_end(&m)
}

/// Containers for the serve workload's four clients, long enough for
/// every unseen point's longer warm-up.
fn serve_points(ctx: &Ctx, dir: &std::path::Path) -> Vec<SimPoint> {
    let w = ctx.short_windows();
    let len = w.warmup + JOIN_OFFSET + 1_000 + w.measure + CONTAINER_HEADROOM;
    let traces: Vec<WorkloadSpec> = (1..=4)
        .map(|i| {
            let spec = client(i);
            layers::write_trace(dir, &spec, &layers::synth_source(&spec, ctx.seed()), len)
        })
        .collect();
    sim_sweep(&traces, &SERVE_BUDGETS, &[true], w).points()
}

/// Set up the serve workload `SERVE_SETUPS` times: containers, computed
/// and published points, a started server. Only the last server keeps
/// running; stopping the others is not timed.
fn serve_setup(ctx: &Ctx, scope: Scope, max_inflight: usize) -> (f64, ServeRig) {
    let mut times = Vec::new();
    let mut rig: Option<ServeRig> = None;
    for k in 0..SERVE_SETUPS {
        if let Some(old) = rig.take() {
            old.stop();
        }
        let t = Instant::now();
        let dir = ctx.fresh_dir(&format!("serve-{k}"));
        let points = serve_points(ctx, &dir);
        rig = Some(ServeRig::start(scope, &dir, points, max_inflight));
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), rig.expect("at least one set-up"))
}

fn serve_mixed(ctx: &Ctx) -> Report {
    serve_mixed_with(ctx, &ServeFaults::default())
}

/// `serve_mixed` with forced faults (the self-tests force 400s and
/// 429s through it).
pub fn serve_mixed_with(ctx: &Ctx, faults: &ServeFaults) -> Report {
    if ctx.args.trace {
        return traced(ctx, &[], TraceOwn::Serve);
    }
    let (setup_s, rig) = serve_setup(ctx, Scope::default(), faults.max_inflight);
    // Pre-populated results are the first operations checked: against
    // the reference at the default seed.
    for (p, r) in &rig.hits {
        ctx.checker
            .record(ctx.checker.stats(&p.cache_key(), r, None));
    }
    let fresh = Fresh::default();
    let (samples, wall) = rig.clients(
        Scope::default(),
        ctx.seed(),
        ctx.args.seconds,
        faults,
        &fresh,
    );
    let hits = rig.hits.clone();
    rig.stop();
    layers::verify_samples(&ctx.checker, &hits, &samples);
    let m = Measured {
        setup_s,
        busy_s: wall,
        instructions: computed_instructions(&hits, &samples),
        points: samples.len() as u64,
        latencies_ms: samples.iter().map(|s| s.ms).collect(),
        op: "one POST /sim on one of two closed-loop connections",
    };
    let mut r = end_to_end(&m);
    r.notes.push(mix_note(&samples));
    r
}

fn computed_instructions(hits: &[(SimPoint, SimResult)], samples: &[Sample]) -> u64 {
    samples
        .iter()
        .filter(|s| s.cache == "computed")
        .map(|s| {
            let p = layers::target_point(hits, s.target);
            p.warmup + p.measure
        })
        .sum()
}

fn mix_note(samples: &[Sample]) -> String {
    let count = |k: Kind| samples.iter().filter(|s| s.kind == k).count();
    let cache = |c: &str| samples.iter().filter(|s| s.cache == c).count();
    let share = |k: Kind| 100.0 * count(k) as f64 / samples.len().max(1) as f64;
    format!(
        "requests: {} hit, {} miss, {} join ({:.1}% / {:.1}% / {:.1}%); \
         answered disk {}, computed {}, joined {}",
        count(Kind::Hit),
        count(Kind::Miss),
        count(Kind::Join),
        share(Kind::Hit),
        share(Kind::Miss),
        share(Kind::Join),
        cache("disk"),
        cache("computed"),
        cache("joined")
    )
}

/// The workload whose traced run this is, with what its own operation
/// needs.
enum TraceOwn<'a> {
    Serial,
    Sharded,
    Sweep(&'a [WorkloadSpec], &'a Sweep),
    Serve,
}

/// What the four traced sections run on.
struct Sections {
    serial: Vec<SerialPoint>,
    /// Indices into `serial` that the parallel section runs.
    parallel: Vec<usize>,
    /// A synthetic stream and how much of it the generation pass reads.
    synth: (AnySource, u64),
    sweep: Sweep,
    /// Container workloads of the serve section; the first also feeds
    /// the decode pass.
    serve: Vec<WorkloadSpec>,
}

/// The traced run. It first times the workload's own operation
/// untraced, then runs four traced sections on the workload's own
/// inputs — serial sessions with single-layer replays, the parallel
/// layer cold and warm, `Sweep::run` with probes of the calls it
/// makes, and a served client window — and reports every per-layer metric. The
/// section that *is* the workload runs at full size and gives the
/// traced twin of the untraced operation; the others run small.
fn traced(ctx: &Ctx, server_points: &[SerialPoint], own: TraceOwn) -> Report {
    let tracer = ctx.scope.tracer.expect("traced runs have a tracer");
    let quiet = Scope::default();
    let short = ctx.short_windows();
    let probe_dir = ctx.fresh_dir("probe");

    // Inputs of the four sections, by workload.
    let inputs = match &own {
        TraceOwn::Serial | TraceOwn::Sharded => {
            let spec = server_030();
            let p = &server_points[0];
            let len = short.warmup + short.measure + CONTAINER_HEADROOM;
            let small = vec![layers::write_trace(&probe_dir, &spec, &p.source, len)];
            Sections {
                serial: server_points.to_vec(),
                parallel: if matches!(own, TraceOwn::Sharded) {
                    vec![0, 1, 2]
                } else {
                    vec![2]
                },
                synth: (p.source.clone(), p.warmup + p.measure),
                sweep: sim_sweep(&small, &[BudgetPoint::Kb14_5], &[false, true], short),
                serve: small,
            }
        }
        TraceOwn::Sweep(traces, sweep) => {
            let w = ctx.sweep_windows();
            let mut serial = Vec::new();
            for t in traces.iter() {
                let source = t.build_source().expect("sweep containers open");
                serial.extend(paper_points(ctx, "sweep", &source, t, w));
            }
            Sections {
                serial,
                // btbx on the server container.
                parallel: vec![5],
                synth: (
                    layers::synth_source(&server_030(), ctx.seed()),
                    w.warmup + w.measure,
                ),
                sweep: (*sweep).clone(),
                serve: vec![traces[0].clone()],
            }
        }
        TraceOwn::Serve => {
            let spec = client(1);
            let source = layers::synth_source(&spec, ctx.seed());
            let len = short.warmup + short.measure + CONTAINER_HEADROOM;
            let small = layers::write_trace(&probe_dir, &spec, &source, len);
            let replayed = small.build_source().expect("probe container opens");
            Sections {
                serial: paper_points(ctx, "serve", &replayed, &small, short),
                parallel: vec![2],
                synth: (source, short.warmup + short.measure),
                sweep: sim_sweep(
                    std::slice::from_ref(&small),
                    &[BudgetPoint::Kb14_5],
                    &[false, true],
                    short,
                ),
                serve: vec![small],
            }
        }
    };
    let Sections {
        serial,
        parallel: parallel_idx,
        synth,
        sweep,
        serve: serve_traces,
    } = inputs;

    // The untraced operation, for the overhead.
    let serve_seconds = ctx.size(ctx.args.seconds.min(4.0), 0.3);
    let probe_serve_seconds = ctx.size(1.0, 0.3);
    let faults = ServeFaults::default();
    let fresh = Fresh::default();
    let mut serve_rig = None;
    let mut untraced_samples = Vec::new();
    let untraced_s = match &own {
        TraceOwn::Serial => layers::sessions(quiet, &serial)
            .iter()
            .map(|(_, t)| t.seconds)
            .sum(),
        TraceOwn::Sharded => layers::sharded(quiet, &serial)
            .iter()
            .map(|(_, t, _)| t.seconds)
            .sum(),
        TraceOwn::Sweep(..) => {
            let opts = sweep_opts(ctx, "overhead-store");
            let t = Instant::now();
            sweep.run(&opts);
            t.elapsed().as_secs_f64()
        }
        TraceOwn::Serve => {
            let (_, rig) = serve_setup(ctx, quiet, 0);
            let (samples, wall) = rig.clients(quiet, ctx.seed(), serve_seconds, &faults, &fresh);
            serve_rig = Some(rig);
            untraced_samples = samples;
            // Seconds per request, comparable with the traced window.
            wall / untraced_samples.len().max(1) as f64
        }
    };

    let t_start = tracer.now();
    let scope = ctx.scope;
    let mut r = Report::default();

    // Section 1: serial sessions, stream passes and single-layer replays.
    let sessions = layers::sessions(scope, &serial);
    let results: Vec<SimResult> = sessions.iter().map(|(r, _)| r.clone()).collect();
    for (p, res) in serial.iter().zip(&results) {
        ctx.checker.record(ctx.checker.stats(&p.key, res, None));
    }
    let session_s: f64 = sessions.iter().map(|(_, t)| t.seconds).sum();
    let synth_s = layers::stream_pass(scope, &synth.0, synth.1);
    let decode_source = serve_traces[0]
        .build_source()
        .expect("probe container opens");
    let decode_n = decode_source.len_instrs().unwrap_or(0);
    let decode_s = layers::stream_pass(scope, &decode_source, decode_n);
    let rep = layers::replays_all(scope, &serial);

    // Section 2: the parallel layer, cold and warm.
    let par_points: Vec<SerialPoint> = parallel_idx.iter().map(|&i| serial[i].clone()).collect();
    let par_twins: Vec<SimResult> = parallel_idx.iter().map(|&i| results[i].clone()).collect();
    let par = layers::parallel_layer(scope, &par_points, &ctx.checker, &par_twins);
    let par_serial_s: f64 = parallel_idx.iter().map(|&i| sessions[i].1.seconds).sum();

    // Section 3: the sweep, then probes of the calls it makes.
    let sw = layers::sweep_layer(scope, &sweep, &sweep_opts(ctx, "traced-sweep"));
    let sweep_points = sweep.points();
    // Section 4: a served client window.
    let rig = match serve_rig.take() {
        Some(rig) => rig,
        None => {
            let dir = ctx.fresh_dir("traced-serve");
            let points = sim_sweep(&serve_traces, &SERVE_BUDGETS, &[true], short).points();
            ServeRig::start(scope, &dir, points, 0)
        }
    };
    let window = if matches!(own, TraceOwn::Serve) {
        serve_seconds
    } else {
        probe_serve_seconds
    };
    let before = rig.stats();
    let (samples, serve_wall) = rig.clients(scope, ctx.seed(), window, &faults, &fresh);
    let direct_ms = rig.direct_loads(scope);
    // Counters of the traced window only.
    let serve_store = match (before, rig.stats()) {
        (Some(a), Some(b)) => (
            b.store.disk_hits - a.store.disk_hits,
            b.store.computes - a.store.computes,
            b.store.joins - a.store.joins,
        ),
        _ => (0, 0, 0),
    };
    let hits = rig.hits.clone();
    let mut publish_ms = rig.publish_ms.clone();
    scope.span("serve.shutdown", |_| rig.stop());
    let t_end = tracer.now();

    // Checks that need twins run after the traced window.
    layers::verify_samples(&ctx.checker, &hits, &untraced_samples);
    layers::verify_samples(&ctx.checker, &hits, &samples);
    let sweep_twins: Vec<Option<SimResult>> =
        if ctx.has_reference() && matches!(own, TraceOwn::Sweep(..)) {
            vec![None; sweep_points.len()]
        } else {
            layers::per_point(&sweep_points)
                .into_iter()
                .map(Some)
                .collect()
        };
    for ((p, res), twin) in sweep_points.iter().zip(&sw.results).zip(&sweep_twins) {
        let outcome = if matches!(own, TraceOwn::Sweep(..)) {
            ctx.checker.stats(&p.cache_key(), res, twin.as_ref())
        } else {
            ctx.checker.twin(&p.cache_key(), res, twin.as_ref())
        };
        ctx.checker.record(outcome);
    }

    // The traced twin of the untraced operation.
    let traced_s = match &own {
        TraceOwn::Serial => session_s,
        TraceOwn::Sharded => par.cold_s,
        TraceOwn::Sweep(..) => sw.wall_s,
        TraceOwn::Serve => serve_wall / samples.len().max(1) as f64,
    };

    // trace
    r.push("trace.synth_instr_per_s", synth.1 as f64 / synth_s, "1/s");
    r.push(
        "trace.decode_instr_per_s",
        decode_n as f64 / decode_s,
        "1/s",
    );
    r.push("trace.share", rep.stream_s / session_s, "ratio");
    // core
    r.push("core.btb_ops_per_s", rep.btb_ops as f64 / rep.btb_s, "1/s");
    // Exact access counts of the simulated measurement windows.
    let mut counts = AccessCounts::default();
    for x in &results {
        counts.merge(&x.stats.btb_counts);
    }
    r.push("core.btb_reads", counts.reads as f64, "count");
    r.push("core.btb_read_hit_ratio", counts.hit_rate(), "ratio");
    r.push("core.page_reads", counts.page_reads as f64, "count");
    r.push("core.region_reads", counts.region_reads as f64, "count");
    // uarch
    let instr: u64 = results.iter().map(|x| x.stats.instructions).sum();
    let cycles: u64 = results.iter().map(|x| x.stats.cycles).sum();
    let weighted = |f: fn(&SimResult) -> f64| {
        results
            .iter()
            .map(|x| f(x) * x.stats.instructions as f64)
            .sum::<f64>()
            / instr.max(1) as f64
    };
    let est_cycles: f64 = serial
        .iter()
        .zip(&results)
        .map(|(p, x)| {
            x.stats.cycles as f64 * (p.warmup + x.stats.instructions) as f64
                / x.stats.instructions.max(1) as f64
        })
        .sum();
    let fdip_issued: u64 = results.iter().map(|x| x.stats.fdip.issued).sum();
    let prefetch_hits: u64 = results.iter().map(|x| x.stats.l1i.prefetch_hits).sum();
    r.push("uarch.bpu_s", rep.bpu_s, "s");
    r.push("uarch.hierarchy_s", rep.hierarchy_s, "s");
    r.push(
        "uarch.loop_self_s",
        session_s - rep.stream_s - rep.bpu_s - rep.hierarchy_s,
        "s",
    );
    r.push(
        "uarch.host_ns_per_sim_cycle",
        session_s * 1e9 / est_cycles,
        "ns",
    );
    r.push(
        "uarch.ipc",
        instr as f64 / cycles.max(1) as f64,
        "instr/cycle",
    );
    r.push(
        "uarch.btb_mpki",
        weighted(|x| x.stats.btb_mpki()),
        "1/kinstr",
    );
    r.push(
        "uarch.l1i_mpki",
        weighted(|x| x.stats.l1i_mpki()),
        "1/kinstr",
    );
    r.push("uarch.fdip_issued", fdip_issued as f64, "count");
    r.push(
        "uarch.fdip_useful_ratio",
        prefetch_hits as f64 / fdip_issued.max(1) as f64,
        "ratio",
    );
    r.push(
        "uarch.fetch_starved_cycles",
        results
            .iter()
            .map(|x| x.stats.fetch_starved_cycles)
            .sum::<u64>() as f64,
        "cycles",
    );
    // parallel
    r.push("parallel.setup_s", par.setup_s, "s");
    r.push("parallel.position_s", par.position_s, "s");
    r.push("parallel.restore_s", par.restore_s, "s");
    r.push(
        "parallel.snapshot_bytes",
        par.snapshot_bytes as f64,
        "bytes",
    );
    r.push("parallel.factor", par_serial_s / par.cold_s, "ratio");
    r.push(
        "parallel.warm_restore_factor",
        par.cold_s / par.warm_s,
        "ratio",
    );
    // batch, sweep, journal
    r.push("batch.materialize_s", sw.materialize_s, "s");
    r.push("batch.groups", sw.groups as f64, "count");
    r.push("batch.lanes", sw.lanes as f64, "count");
    r.push("sweep.plan_s", sw.plan_s, "s");
    r.push("journal.fsync_ms", median(&sw.fsync_ms), "ms");
    // store
    publish_ms.extend(&sw.publish_ms);
    r.push("store.load_ms", median(&direct_ms), "ms");
    r.push("store.publish_ms", median(&publish_ms), "ms");
    r.push(
        "store.disk_hits",
        (sw.counters.0 + serve_store.0) as f64,
        "count",
    );
    r.push(
        "store.computes",
        (sw.counters.1 + serve_store.1) as f64,
        "count",
    );
    r.push(
        "store.joins",
        (sw.counters.2 + serve_store.2) as f64,
        "count",
    );
    // serve
    let hit_p50 = median(&layers::split_ms(&samples, "disk"));
    r.push("serve.hit_p50_ms", hit_p50, "ms");
    r.push(
        "serve.miss_p50_ms",
        median(&layers::split_ms(&samples, "computed")),
        "ms",
    );
    r.push(
        "serve.join_p50_ms",
        median(&layers::split_ms(&samples, "joined")),
        "ms",
    );
    r.push("serve.http_overhead_ms", hit_p50 - median(&direct_ms), "ms");
    r.push("serve.requests", samples.len() as f64, "count");
    // the trace itself
    let spans = tracer.spans();
    r.push("trace.overhead_ratio", traced_s / untraced_s - 1.0, "ratio");
    r.push(
        "trace.coverage",
        spans::coverage(&spans, t_start, t_end),
        "ratio",
    );

    r.notes.push(format!(
        "traced wall {:.3} s; own operation untraced {:.4} s, traced {:.4} s",
        t_end - t_start,
        untraced_s,
        traced_s
    ));
    let selfs = spans::self_times(&spans);
    r.notes.push(format!(
        "self time by layer (s): {}",
        selfs
            .iter()
            .map(|(k, v)| format!("{k} {v:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    r.notes.push(mix_note(&samples));
    r
}
