//! The repository benchmark.
//!
//! ```text
//! dta-perfbench --workload <bitcnt|mmul|serve-zipf> --seed <n>
//!               --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, drives the layers
//! through their public functions, checks every job against the
//! benchmark's own host reference, and prints one JSON line last: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! separate traced run with `--trace 1`. Run each workload in a fresh
//! process, so `peak_rss_mb` belongs to that workload alone. NOTES.md
//! lists the measurement traps this design avoids.

mod gen;
mod report;
mod serve;
mod sim;
mod speed;
mod trace;

use report::Report;
use std::path::Path;

/// Scratch space (serve-zipf's disk store, trace files), relative to
/// the directory the benchmark runs in.
pub const WORK_DIR: &str = ".bench_work";

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("job_ms_p50", "ms"),
    ("job_ms_tail", "ms"),
    ("sim_mips", "Minstr/s"),
    ("sim_cycles", "cycles"),
    ("goodput_per_s", "jobs/s"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Layers whose self time the traced run reports: the crates the
/// benchmark calls, its own code (`bench`) and its load generator.
const LAYERS: [&str; 9] = [
    "bench",
    "loadgen",
    "workloads",
    "compiler",
    "isa",
    "core",
    "serve",
    "json",
    "obs",
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("workloads.build_ms", "ms"),
    ("compiler.transform_ms", "ms"),
    ("compiler.decoupled_read_frac", "ratio"),
    ("isa.encode_ms", "ms"),
    ("core.job_key_ms", "ms"),
    ("core.run_job_ms", "ms"),
    ("core.host_ns_per_instr", "ns"),
    ("core.host_ns_per_cycle", "ns"),
    ("core.memo_hit_frac", "ratio"),
    ("core.memo_replayed_cycle_frac", "ratio"),
    ("core.memo_aborts", "count"),
    ("core.visited_cycle_frac", "ratio"),
    ("core.skipped_tick_frac", "ratio"),
    ("core.wake_heap_mean", "count"),
    ("core.epochs", "count"),
    ("core.merge_wall_frac", "ratio"),
    ("core.shard_wall_imbalance", "ratio"),
    ("core.ipc", "instr/cycle"),
    ("core.compute_frac", "ratio"),
    ("core.read_stall_frac", "ratio"),
    ("core.ls_stall_frac", "ratio"),
    ("core.dma_wait_frac", "ratio"),
    ("core.idle_frac", "ratio"),
    ("mem.requests", "count"),
    ("mem.dma_commands", "count"),
    ("mem.bus_utilisation", "ratio"),
    ("mem.dma_retries", "count"),
    ("sched.instances", "count"),
    ("sched.pe_deliveries", "count"),
    ("sched.dse_deliveries", "count"),
    ("sched.falloc_wait_frac", "ratio"),
    ("obs.overlap_frac", "ratio"),
    ("obs.pf_coverage", "ratio"),
    ("obs.critical_edge_frac", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
    ("serve.hit_frac", "ratio"),
    ("serve.disk_hit_frac", "ratio"),
    ("serve.coalesced_frac", "ratio"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.memory_ms_p50", "ms"),
    ("serve.disk_ms_p50", "ms"),
    ("serve.sheds", "count"),
    ("serve.timeouts", "count"),
    ("serve.quarantines", "count"),
    ("json.encode_ms", "ms"),
    ("json.decode_ms", "ms"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.backlog_max", "count"),
    ("bench.self_ms", "ms"),
    ("loadgen.self_ms", "ms"),
    ("workloads.self_ms", "ms"),
    ("compiler.self_ms", "ms"),
    ("isa.self_ms", "ms"),
    ("core.self_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("json.self_ms", "ms"),
    ("obs.self_ms", "ms"),
];

/// Checked command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 60)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Reports each layer's self time and writes the spans out as a
/// Chrome/Perfetto trace.
pub fn finish_trace(
    workload: &str,
    args: &Args,
    spans: Vec<trace::Span>,
    report: &mut Report,
) -> Result<(), String> {
    let by_layer = trace::self_ns_by_layer(&spans);
    for layer in LAYERS {
        let ns = by_layer.get(layer).copied().unwrap_or(0);
        report.put(&format!("{layer}.self_ms"), ns as f64 / 1e6, "ms");
    }
    let dir = Path::new(WORK_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}-seed{}.json", args.seed));
    std::fs::write(&path, trace::chrome_trace(&spans))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report.note(format!(
        "trace: {} spans written to {}",
        spans.len(),
        path.display()
    ));
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let mut report = Report::default();
    let (outcomes, absent_why) = if args.workload == serve::NAME {
        let why = "serve-zipf loads the service; the simulation layers are measured on bitcnt and mmul";
        (serve::run(args, &mut report)?, why)
    } else {
        let w = sim::WORKLOADS
            .iter()
            .find(|w| w.name == args.workload)
            .ok_or_else(|| format!("unknown workload {}", args.workload))?;
        let why = "closed-loop simulation workload: no result service and no arrival schedule";
        (sim::run(w, args, &mut report)?, why)
    };
    report.put("peak_rss_mb", report::peak_rss_mb()?, "MB");
    if args.trace {
        for (name, unit) in PER_LAYER {
            if !report.has(name) {
                report.absent(name, unit, absent_why);
            }
        }
        report.print(&PER_LAYER, outcomes.attempted, outcomes.failed)
    } else {
        report.print(&END_TO_END, outcomes.attempted, outcomes.failed)
    }
}

fn main() {
    let result = parse_args(std::env::args().skip(1)).and_then(|args| run(&args));
    if let Err(e) = result {
        eprintln!("dta-perfbench: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &dta_json::Json) -> Vec<(String, String)> {
        list.as_arr()
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(|v| v.as_str())
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
        let doc = dta_json::parse(&text).expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(doc.get("end_to_end").unwrap()), own(&END_TO_END));
        assert_eq!(names(doc.get("per_layer").unwrap()), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|w| w.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap())
            .collect();
        let mut ours: Vec<&str> = sim::WORKLOADS.iter().map(|w| w.name).collect();
        ours.push(serve::NAME);
        assert_eq!(workloads, ours);
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload mmul --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("mmul", 3, 10, true)
        );
        assert!(parse("--workload mmul --seed x --seconds 10").is_err());
        assert!(parse("--workload mmul --seed 1 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload mmul --seconds 10").is_err());
        assert!(parse("--bogus 1").is_err());
    }
}
