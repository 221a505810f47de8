//! Emit machine-readable engine numbers as JSON (hand-formatted — no
//! serialization dependency): single-pass generation throughput of the
//! full figure suite. `scripts/verify.sh` writes the output to
//! `BENCH_engine.json` at the repo root.
//!
//! Usage: `cargo run --release -p lockdown-bench --bin engine_json
//! [--fidelity test|standard]` (prints to stdout).

use lockdown_core::experiments::suite;
use lockdown_core::{Context, Fidelity};
use std::time::Instant;

fn main() {
    let fidelity = match std::env::args().nth(2).as_deref() {
        Some("standard") => Fidelity::Standard,
        _ => Fidelity::Test,
    };
    let fidelity_name = match fidelity {
        Fidelity::Test => "test",
        Fidelity::Standard => "standard",
        Fidelity::High => "high",
    };

    // Warm-up pass (page-in and allocator effects should not land on the
    // timings).
    let _ = suite::run_all(&Context::new(fidelity));

    let t = Instant::now();
    let ctx = Context::new(fidelity);
    let single = suite::run_all(&ctx);
    let single_secs = t.elapsed().as_secs_f64();

    let stats = single.stats;
    let flows_per_sec = stats.flows_emitted as f64 / single_secs.max(1e-9);
    println!("{{");
    println!("  \"fidelity\": \"{fidelity_name}\",");
    println!("  \"workers\": {},", stats.workers);
    println!("  \"cells_generated\": {},", stats.cells_generated);
    println!("  \"flows_emitted\": {},", stats.flows_emitted);
    println!("  \"single_pass_secs\": {single_secs:.4},");
    println!("  \"flows_per_sec\": {flows_per_sec:.0}");
    println!("}}");
}
