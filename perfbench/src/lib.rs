//! The btbx benchmark: four workloads that drive the simulator crates
//! through their public APIs, an untraced run that reports end-to-end
//! metrics, and a traced run that reports per-layer metrics. See
//! `perfbench/README.md` for why each workload exists and which layer
//! metric should move which end-to-end metric.

pub mod check;
pub mod layers;
pub mod report;
pub mod spans;
pub mod workloads;

use check::{Checker, Reference};
use report::Report;
use spans::{Scope, Tracer};
use std::path::{Path, PathBuf};

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "serial_server",
    "sharded_server",
    "sweep_matrix",
    "serve_mixed",
];

/// The seed whose results the stored reference covers.
pub const DEFAULT_SEED: u64 = 0;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny windows, for the self-tests.
    pub tiny: bool,
    /// Reference file; `None` disables the reference comparison.
    pub reference: Option<PathBuf>,
    /// Record this run's reference-path results into `reference`.
    pub write_reference: bool,
    /// Scratch directory for stores, containers and span files.
    pub work: PathBuf,
}

pub const USAGE: &str = "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
[--tiny] [--reference FILE] [--write-reference] [--work DIR]";

impl Args {
    /// Parse `argv` (without the program name). The reference defaults
    /// to `perfbench/reference.json` for full-size runs and to none for
    /// `--tiny` runs, whose windows it does not cover.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut tiny = false;
        let mut reference = None;
        let mut write_reference = false;
        let mut work = PathBuf::from(".bench_out");
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--tiny" => tiny = true,
                "--reference" => reference = Some(PathBuf::from(value()?)),
                "--write-reference" => write_reference = true,
                "--work" => work = PathBuf::from(value()?),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        let reference = reference
            .or_else(|| (!tiny).then(|| PathBuf::from("perfbench").join("reference.json")));
        if write_reference && (reference.is_none() || seed != DEFAULT_SEED) {
            return Err("--write-reference needs a reference file and the default seed".into());
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            tiny,
            reference,
            write_reference,
            work,
        })
    }
}

/// Everything a workload needs while it runs.
pub struct Ctx<'t> {
    pub args: Args,
    /// A fresh directory for this run's files.
    pub dir: PathBuf,
    pub checker: Checker,
    /// Root scope: traced when `--trace 1`.
    pub scope: Scope<'t>,
}

impl Ctx<'_> {
    pub fn seed(&self) -> u64 {
        self.args.seed
    }

    /// A fresh, empty subdirectory of this run's directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
        dir
    }

    /// Pick the full-size or the tiny value.
    pub fn size<T>(&self, full: T, tiny: T) -> T {
        if self.args.tiny {
            tiny
        } else {
            full
        }
    }

    /// Whether results must match the stored reference.
    pub fn has_reference(&self) -> bool {
        self.args.seed == DEFAULT_SEED
            && self.args.reference.is_some()
            && !self.args.write_reference
    }
}

/// Run one workload and return its report. The run's files live under
/// `args.work/<workload>-<seed>-<pid>` and are removed afterwards,
/// except the span file of a traced run.
pub fn run(args: Args) -> Result<Report, String> {
    let reference: Option<Reference> = match &args.reference {
        Some(path) if args.seed == DEFAULT_SEED && !args.write_reference => {
            Some(check::load_reference(path)?)
        }
        _ => None,
    };
    let dir = args.work.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let tracer = Tracer::default();
    let ctx = Ctx {
        scope: Scope::new(args.trace.then_some(&tracer)),
        checker: Checker::new(reference),
        dir: dir.clone(),
        args,
    };
    let mut report = workloads::run(&ctx);
    if ctx.args.trace {
        let path = ctx.args.work.join(format!(
            "spans-{}-seed{}.jsonl",
            ctx.args.workload, ctx.args.seed
        ));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report.notes.push(format!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        ));
    }
    if ctx.args.write_reference {
        let path = ctx.args.reference.as_deref().expect("checked in parse");
        let n = check::merge_reference(path, ctx.checker.seen())?;
        report.notes.push(format!(
            "reference: {n} entries merged into {}",
            path.display()
        ));
    }
    report.attempted = ctx.checker.attempted();
    report.failed = ctx.checker.failed();
    report.correct = report.failed == 0 && report.attempted > 0;
    if !ctx.args.trace {
        // `failed / attempted` as a metric that is never 0.
        let ok = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
        report.push("success_ratio", ok, "ratio");
    }
    for p in ctx.checker.problems() {
        report.notes.push(format!("FAILED: {p}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(report)
}

/// Lines printed before the result line: the seed and host facts as one
/// JSON object, then the notes and every metric by name with its unit.
pub fn preamble(args: &Args, report: &Report, root: &Path) -> Vec<String> {
    let mut facts = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}",
        report::json_string(&args.workload),
        args.seed,
        args.trace
    );
    for (k, v) in report::host_facts(root) {
        facts.push_str(&format!(", \"{k}\": {}", report::json_string(&v)));
    }
    facts.push('}');
    let mut lines = vec![facts];
    lines.extend(report.notes.iter().map(|n| format!("# {n}")));
    for m in &report.metrics {
        lines.push(format!(
            "{:<32} {:>18} {}",
            m.name,
            report::json_number(m.value),
            m.unit
        ));
    }
    lines
}
