//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`: run one
//! workload and print every metric by name with its unit; the last
//! stdout line is the JSON result. Exits 1 when a result is wrong.

use perfbench::{preamble, run, Args, USAGE};
use std::io::Write;
use std::path::Path;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = match run(args.clone()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let lines = preamble(&args, &report, Path::new("."));
    let result = report.result_line();
    // Keep the full record next to the span files: facts, then result.
    let record = args.work.join(format!(
        "result-{}-seed{}-trace{}.jsonl",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::write(&record, format!("{}\n{result}\n", lines[0]));
    let mut out = std::io::stdout().lock();
    for l in &lines {
        let _ = writeln!(out, "{l}");
    }
    let _ = writeln!(out, "{result}");
    let _ = out.flush();
    if !report.correct {
        eprintln!(
            "{} of {} operations failed",
            report.failed, report.attempted
        );
        std::process::exit(1);
    }
}
