//! Trace interoperability: serialize a synthetic workload into the
//! ChampSim `input_instr` format, convert the ChampSim bytes into a
//! `.btbt` packed container, then replay both through the simulator.
//!
//! This is the bridge for running the *real* Qualcomm IPC-1 traces (which
//! ship in ChampSim format) through this repository when you have them;
//! `btbx trace convert` performs the same conversion on files.
//!
//! ```text
//! cargo run --release --example champsim_traces
//! ```

use btbx::core::spec::BtbSpec;
use btbx::core::{Arch, OrgKind};
use btbx::trace::champsim::{write_champsim, ChampSimReader};
use btbx::trace::container::write_container;
use btbx::trace::suite;
use btbx::trace::{PackedFileSource, TraceSource};
use btbx::uarch::SimSession;
use std::fs::File;

fn main() {
    let spec = &suite::ipc1_client()[0];
    let n = 300_000u64;

    // ChampSim format: 64 bytes per instruction.
    let mut champsim_bytes = Vec::new();
    write_champsim(
        &mut champsim_bytes,
        spec.build_trace().take_instrs(n).into_iter_instrs(),
    )
    .expect("in-memory write");
    let champsim = || ChampSimReader::new(&champsim_bytes[..], spec.name.clone());

    // ChampSim bytes → `.btbt` container: 16 bytes per event plus a
    // block index and the rare escape record.
    let path = std::env::temp_dir().join(format!("btbx-champsim-{}.btbt", std::process::id()));
    let summary = write_container(
        File::create(&path).expect("create temp container"),
        &spec.name,
        Arch::Arm64,
        &mut champsim(),
        u64::MAX,
    )
    .expect("container write");
    let container = PackedFileSource::open(&path).expect("container opens");
    println!(
        "{} instructions: ChampSim {} B/event vs container {:.1} B/event on disk \
         ({} escapes, {:.1}x smaller)",
        summary.events,
        champsim_bytes.len() as u64 / n,
        summary.bytes as f64 / summary.events as f64,
        summary.escapes,
        champsim_bytes.len() as f64 / summary.bytes as f64
    );

    // The container replays exactly the stream the ChampSim parser yields.
    let parsed: Vec<_> = champsim().into_iter_instrs().collect();
    let packed: Vec<_> = container.clone().into_iter_instrs().collect();
    assert_eq!(packed, parsed, "container stream diverges from ChampSim");
    println!("ChampSim → container: {} events identical ✓", packed.len());

    // Replay both through the simulator.
    let run = |source: Box<dyn TraceSource>| {
        SimSession::new(source)
            .btb_spec(BtbSpec::of(OrgKind::BtbX))
            .warmup(100_000)
            .measure(150_000)
            .run()
            .expect("default spec is valid")
    };
    let from_champsim = run(Box::new(champsim()));
    let from_container = run(Box::new(container));
    assert_eq!(
        from_champsim.stats, from_container.stats,
        "replays must agree"
    );
    println!(
        "replayed from ChampSim bytes and container: IPC {:.3}, BTB MPKI {:.2}",
        from_champsim.stats.ipc(),
        from_champsim.stats.btb_mpki()
    );
    let _ = std::fs::remove_file(&path);
}
