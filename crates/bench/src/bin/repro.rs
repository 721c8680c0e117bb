//! `repro` — regenerates every table and figure of the DATE 2008 paper.
//!
//! ```text
//! repro [all|fig1|table1|fig2|table2|fig3|perf|quality|ablation|
//!        runtime-scenario|modes|feedback]
//! ```
//!
//! Paper-vs-measured comparisons for each experiment are assertions in
//! `tests/paper_reproduction.rs`.

use rtsm_bench::alloc_track::PeakAlloc;
use rtsm_bench::{
    ablation, feedback_demo, fig1, fig2, fig3, modes, perf, quality_comparison, runtime_scenario,
    table1, table2,
};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

fn section(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

fn run(which: &str) -> bool {
    match which {
        "fig1" => {
            section("E1 / Figure 1 — HIPERLAN/2 receiver KPN");
            print!("{}", fig1());
        }
        "table1" => {
            section("E2 / Table 1 — available implementations");
            print!("{}", table1());
        }
        "fig2" => {
            section("E3 / Figure 2 — MPSoC layout (reconstructed, see rtsm_platform::paper)");
            print!("{}", fig2());
        }
        "table2" => {
            section("E4 / Table 2 — processor assignment iterations in step 2");
            let (rendered, trace) = table2();
            print!("{rendered}");
            println!(
                "\npaper: costs 11 (initial), 11 (revert), 9 (keep), 7 (keep) — measured: \
                 {} (initial), {}",
                trace.initial_cost,
                trace
                    .events
                    .iter()
                    .map(|e| format!("{} ({})", e.cost, if e.kept { "keep" } else { "revert" }))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        "fig3" => {
            section("E5 / Figure 3 — final CSDF graph with computed buffers");
            let f = fig3();
            println!(
                "router actors: {} (paper: 12); total actors: {} (paper: 18)",
                f.routers, f.actors
            );
            for (label, words) in &f.buffers {
                println!("  {label} = {words} words");
            }
            println!(
                "achieved period: {} ps / {} iterations (required 4000000 ps)",
                f.achieved_period.0, f.achieved_period.1
            );
            println!("\n{}", f.summary);
            println!("DOT of the composed CSDF graph:\n{}", f.dot);
        }
        "perf" => {
            section("E6 / §4.5 — mapper run time and memory");
            let (peak_bytes, stats) = ALLOC.peak_during(|| perf(100));
            let peak_kb = peak_bytes as f64 / 1024.0;
            println!(
                "mapping the HIPERLAN/2 receiver, {} runs: min {:.0} µs, mean {:.0} µs, \
                 max {:.0} µs",
                stats.runs, stats.min_us, stats.mean_us, stats.max_us
            );
            println!("peak heap during runs: {peak_kb:.0} kB");
            println!(
                "paper (C on ARM926 @ 100 MHz): < 4 ms, 137 kB code, 110 kB peak data — \
                 shape reproduced: run-time capable on both."
            );
        }
        "quality" => {
            section("E7 / §5 — quantitative benchmark: heuristic vs baselines");
            let (table, _) = quality_comparison(&[21, 22, 23, 24]);
            print!("{table}");
        }
        "ablation" => {
            section("E8/E9 — ablations");
            print!("{}", ablation());
        }
        "runtime-scenario" => {
            section("E10 / §1.3 — run-time knowledge vs design-time worst case");
            print!("{}", runtime_scenario());
        }
        "modes" => {
            section("E11 / §4.1 — the seven HIPERLAN/2 modes");
            let (table, _) = modes();
            print!("{table}");
        }
        "feedback" => {
            section("E12 / §3 — feedback-driven iterative refinement");
            let (report, _) = feedback_demo();
            print!("{report}");
        }
        _ => return false,
    }
    true
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let all = [
        "fig1",
        "table1",
        "fig2",
        "table2",
        "fig3",
        "perf",
        "quality",
        "ablation",
        "runtime-scenario",
        "modes",
        "feedback",
    ];
    if which == "all" {
        for w in all {
            assert!(run(w));
        }
    } else if !run(which) {
        eprintln!(
            "unknown experiment `{which}`; expected one of: all {}",
            all.join(" ")
        );
        std::process::exit(2);
    }
}
