//! Closed-loop simulation workloads: one client runs seeded jobs back to
//! back through `dta_core::run_job`, timing each call.
//!
//! `run_job` is called directly on purpose: `dta_bench::run`/`try_run`
//! go through the cached `Service`, so timing them measures cache hits.

use crate::gen::{check, install, Kernel, Rng};
use crate::report::{median, ratio, tail_of_thirds, Digest, Outcomes, Report};
use crate::speed::{Gauge, REFERENCE_MS};
use crate::trace::Tracer;
use crate::Args;
use dta_compiler::{prefetch_program, ProgramReport, TransformOptions};
use dta_core::{
    analyze, run_job, FineCat, JobOutput, MemoConfig, MetricsSink, ObsMode, Parallelism, SimJob,
    SystemConfig, NUM_FINE,
};
use dta_isa::{encode_program, Program};
use dta_workloads::Variant;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Jobs whose simulated results form `sim_cycles` and the digest. Every
/// run completes at least this many, so both are fixed by the seed.
pub const DIGEST_JOBS: u64 = 16;

/// Seconds between gauge samples in the timed loop (one per job when
/// jobs take longer).
const GAUGE_EVERY_S: f64 = 0.02;

/// Spans recorded outside the timed jobs (set-up and probes) carry this
/// job id.
pub const NO_JOB: u64 = u64::MAX;

pub struct SimWorkload {
    pub name: &'static str,
    kernel: Kernel,
    variant: Variant,
    config: fn() -> SystemConfig,
    /// Percentile of `job_ms_tail`: the highest of p90/p95/p99/p99.9
    /// that keeps at least ten jobs beyond it in each third of a 35 s run
    /// on the 2-vCPU reference host in its slow phase.
    pub tail_pct: f64,
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// The paper machine (1 node × 8 PEs), fast-forward + memo, sequential.
fn paper_machine() -> SystemConfig {
    SystemConfig {
        memo: MemoConfig::on(),
        parallelism: Parallelism::Off,
        ..SystemConfig::paper_default()
    }
}

pub const WORKLOADS: [SimWorkload; 2] = [
    SimWorkload {
        name: "bitcnt",
        kernel: Kernel::Bitcnt(10_000),
        variant: Variant::AutoPrefetch,
        config: paper_machine,
        tail_pct: 90.0,
    },
    SimWorkload {
        name: "mmul",
        kernel: Kernel::Mmul(32),
        variant: Variant::AutoPrefetch,
        config: paper_machine,
        tail_pct: 99.0,
    },
];

/// A built program ready for seeded inputs.
struct Prepared {
    program: Program,
    args: Vec<i64>,
    compiler: Option<ProgramReport>,
    config: SystemConfig,
}

/// Host-side and simulated counters summed over the timed jobs.
#[derive(Default)]
struct Totals {
    jobs: u64,
    run_ns: u64,
    instructions: u64,
    cycles: u64,
    pe_cycles: u64,
    issued: u64,
    fine: [u64; NUM_FINE],
    memo_hits: u64,
    memo_misses: u64,
    memo_aborts: u64,
    memo_replayed: u64,
    visited: u64,
    shard_cycles: u64,
    pe_ticks: u64,
    skipped: u64,
    heap_sum: u64,
    heap_samples: u64,
    epochs: u64,
    merge_us: u64,
    imbalance: f64,
    mem_requests: u64,
    dma_commands: u64,
    bus_utilisation: f64,
    dma_retries: u64,
    instances: u64,
    pe_deliveries: u64,
    dse_deliveries: u64,
}

impl Totals {
    fn add(&mut self, run_ns: u64, out: &JobOutput) {
        let (s, e) = (&out.stats, &out.engine);
        self.jobs += 1;
        self.run_ns += run_ns;
        self.instructions += s.instructions;
        self.cycles += s.cycles;
        self.pe_cycles += s.aggregate.total_cycles();
        self.issued += s.aggregate.issued;
        for (t, f) in self.fine.iter_mut().zip(s.aggregate.fine) {
            *t += f;
        }
        self.memo_hits += e.memo_hits;
        self.memo_misses += e.memo_misses;
        self.memo_aborts += e.memo_aborts;
        self.memo_replayed += e.memo_replayed_cycles;
        let shards = e.shard_wall_us.len().max(1) as u64;
        self.visited += e.visited_cycles;
        self.shard_cycles += s.cycles * shards;
        self.pe_ticks += e.pe_ticks;
        self.skipped += e.skipped_ticks;
        self.heap_sum += e.wake_heap_occupancy.sum;
        self.heap_samples += e.wake_heap_occupancy.total;
        self.epochs += e.epochs;
        self.merge_us += e.merge_wall_us;
        let walls: Vec<f64> = e.shard_wall_us.iter().map(|&w| w as f64).collect();
        let mean = walls.iter().sum::<f64>() / walls.len().max(1) as f64;
        self.imbalance += ratio(walls.iter().copied().fold(0.0, f64::max), mean);
        self.mem_requests += e.mem_requests;
        self.dma_commands += s.dma_commands;
        self.bus_utilisation += s.bus_utilisation;
        self.dma_retries += s.dma_retries;
        self.instances += s.instances;
        self.pe_deliveries += e.pe_deliveries;
        self.dse_deliveries += e.dse_deliveries;
    }

    fn per_layer(&self, r: &mut Report) {
        let n = self.jobs as f64;
        let fine = |c: FineCat| ratio(self.fine[c as usize] as f64, self.pe_cycles as f64);
        r.put("core.run_job_ms", self.run_ns as f64 / 1e6 / n, "ms");
        r.put(
            "core.host_ns_per_instr",
            ratio(self.run_ns as f64, self.instructions as f64),
            "ns",
        );
        r.put(
            "core.host_ns_per_cycle",
            ratio(self.run_ns as f64, self.cycles as f64),
            "ns",
        );
        let memo_tries = (self.memo_hits + self.memo_misses + self.memo_aborts) as f64;
        r.put(
            "core.memo_hit_frac",
            ratio(self.memo_hits as f64, memo_tries),
            "ratio",
        );
        r.put(
            "core.memo_replayed_cycle_frac",
            ratio(self.memo_replayed as f64, self.pe_cycles as f64),
            "ratio",
        );
        r.put("core.memo_aborts", self.memo_aborts as f64 / n, "count");
        r.put(
            "core.visited_cycle_frac",
            ratio(self.visited as f64, self.shard_cycles as f64),
            "ratio",
        );
        r.put(
            "core.skipped_tick_frac",
            ratio(self.skipped as f64, (self.skipped + self.pe_ticks) as f64),
            "ratio",
        );
        r.put(
            "core.wake_heap_mean",
            ratio(self.heap_sum as f64, self.heap_samples as f64),
            "count",
        );
        if self.epochs == 0 {
            let why = "no workload runs the sharded engine (Parallelism::Off here; \
                       gather-wide was dropped, see NOTES.md)";
            r.absent("core.epochs", "count", why);
            r.absent("core.merge_wall_frac", "ratio", why);
            r.absent("core.shard_wall_imbalance", "ratio", why);
        } else {
            r.put("core.epochs", self.epochs as f64 / n, "count");
            r.put(
                "core.merge_wall_frac",
                ratio(self.merge_us as f64 * 1e3, self.run_ns as f64),
                "ratio",
            );
            r.put("core.shard_wall_imbalance", self.imbalance / n, "ratio");
        }
        r.put(
            "core.ipc",
            ratio(self.issued as f64, self.pe_cycles as f64),
            "instr/cycle",
        );
        r.put("core.compute_frac", fine(FineCat::Compute), "ratio");
        r.put("core.read_stall_frac", fine(FineCat::ReadStall), "ratio");
        r.put("core.ls_stall_frac", fine(FineCat::LsStall), "ratio");
        r.put("core.dma_wait_frac", fine(FineCat::DmaWait), "ratio");
        r.put("core.idle_frac", fine(FineCat::Idle), "ratio");
        r.put("mem.requests", self.mem_requests as f64 / n, "count");
        r.put("mem.dma_commands", self.dma_commands as f64 / n, "count");
        r.put("mem.bus_utilisation", self.bus_utilisation / n, "ratio");
        r.put("mem.dma_retries", self.dma_retries as f64 / n, "count");
        r.put("sched.instances", self.instances as f64 / n, "count");
        r.put(
            "sched.pe_deliveries",
            self.pe_deliveries as f64 / n,
            "count",
        );
        r.put(
            "sched.dse_deliveries",
            self.dse_deliveries as f64 / n,
            "count",
        );
        r.put("sched.falloc_wait_frac", fine(FineCat::FallocWait), "ratio");
    }
}

fn prepare(w: &SimWorkload, t: &mut Tracer) -> Prepared {
    let wp = t.span("workloads", "build", |_| w.kernel.build(Variant::Baseline));
    let (program, compiler) = match w.variant {
        Variant::AutoPrefetch => {
            let (p, report) = t.span("compiler", "prefetch_program", |_| {
                prefetch_program(&wp.program, &TransformOptions::default())
            });
            (p, Some(report))
        }
        Variant::Baseline => (wp.program, None),
        Variant::HandPrefetch => unreachable!("no timed workload runs the hand variant"),
    };
    t.span("isa", "encode_program", |_| {
        black_box(encode_program(&program).len())
    });
    Prepared {
        program,
        args: wp.args,
        compiler,
        config: (w.config)(),
    }
}

/// Runs job `index` of the seeded stream; returns the `run_job` host
/// time and the verified output.
fn run_seeded(
    w: &SimWorkload,
    p: &Prepared,
    config: &SystemConfig,
    seed: u64,
    index: u64,
    t: &mut Tracer,
) -> Result<(u64, JobOutput), String> {
    let inputs = t.span("bench", "inputs", |_| {
        w.kernel.inputs(&mut Rng::new(seed, index))
    });
    let expected = t.span("bench", "reference", |_| w.kernel.reference(&inputs));
    let mut program = p.program.clone();
    t.span("bench", "install", |_| install(&mut program, &inputs))?;
    let job = SimJob::new(Arc::new(program), p.args.clone(), config.clone());
    let start = Instant::now();
    let result = t.span("core", "run_job", |_| run_job(&job));
    let run_ns = start.elapsed().as_nanos() as u64;
    let out = result.outcome.map_err(|e| format!("job error: {e}"))?;
    t.span("bench", "verify", |_| check(&out.globals, &expected))?;
    Ok((run_ns, out))
}

pub fn run(w: &SimWorkload, args: &Args, report: &mut Report) -> Result<Outcomes, String> {
    let t0 = Instant::now();
    let mut t = Tracer::new(args.trace, 0, t0);
    let mut gauge = Gauge::new(t0);
    let mut outcomes = Outcomes::default();
    t.set_job(NO_JOB);

    // Set-up: build, transform, encode, one untimed warm-up job (its
    // inputs come from a stream the timed jobs never use). Half the
    // set-ups run before the timed loop and half after, so their median
    // samples the host at two points in time. Each returns its start
    // (seconds since `t0`) and its duration.
    let setup = |t: &mut Tracer, gauge: &mut Gauge, outcomes: &mut Outcomes| {
        gauge.sample();
        let start = Instant::now();
        let p = prepare(w, t);
        let warm = run_seeded(w, &p, &p.config, args.seed, NO_JOB, t);
        outcomes.record("warm-up job", warm);
        let at = start.duration_since(t0).as_secs_f64();
        (p, (at, start.elapsed().as_secs_f64()))
    };
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS.div_ceil(2) {
        let (p, timed) = setup(&mut t, &mut gauge, &mut outcomes);
        setups.push(timed);
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up");

    // Timed closed loop. With tracing on, every other job runs untraced
    // so the two can be compared. The gauge is sampled between jobs.
    let mut totals = Totals::default();
    let mut digest = Digest::default();
    let mut digest_cycles = 0u64;
    // Per verified job: start (seconds since `t0`), `run_job` ms and
    // whole-iteration ms.
    let mut jobs: Vec<(f64, f64, f64)> = Vec::new();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut index = 0u64;
    while index < DIGEST_JOBS || start.elapsed() < budget {
        if gauge.since_last() >= GAUGE_EVERY_S {
            gauge.sample();
        }
        let traced = args.trace && index.is_multiple_of(2);
        t.set_on(traced);
        t.set_job(index);
        let iter = Instant::now();
        let r = t.span("bench", "job", |t| {
            run_seeded(w, &p, &p.config, args.seed, index, t)
        });
        let iter_ms = iter.elapsed().as_secs_f64() * 1e3;
        if let Some((run_ns, out)) = outcomes.record(&format!("{} job {index}", w.name), r) {
            let at = iter.duration_since(t0).as_secs_f64();
            jobs.push((at, run_ns as f64 / 1e6, iter_ms));
            totals.add(run_ns, &out);
            if index < DIGEST_JOBS {
                digest.add(&out);
                digest_cycles += out.stats.cycles;
            }
        }
        if traced {
            &mut traced_ms
        } else {
            &mut untraced_ms
        }
        .push(iter_ms);
        index += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    t.set_on(args.trace);
    t.set_job(NO_JOB);
    for _ in 0..SETUPS / 2 {
        setups.push(setup(&mut t, &mut gauge, &mut outcomes).1);
    }

    report.note(digest.line(w.name, args.seed));
    report.note(format!(
        "{}: {} timed jobs in {elapsed:.2} s, job_ms_tail = p{}",
        w.name,
        jobs.len(),
        w.tail_pct
    ));
    // Host times, unscaled and scaled to the reference host speed.
    let factors = gauge.into_factors();
    let scale = |at: f64, ms: f64| ms * factors.at(at + ms / 2e3);
    let raw_ms: Vec<f64> = jobs.iter().map(|&(_, ms, _)| ms).collect();
    let job_ms: Vec<f64> = jobs.iter().map(|&(at, ms, _)| scale(at, ms)).collect();
    let iter_s: f64 = jobs.iter().map(|&(at, _, it)| scale(at, it)).sum::<f64>() / 1e3;
    let raw_setup: Vec<f64> = setups.iter().map(|&(_, s)| s).collect();
    let setup_s: Vec<f64> = setups.iter().map(|&(at, s)| scale(at, s * 1e3) / 1e3).collect();
    let mips = |ms: &[f64]| ratio(totals.instructions as f64, ms.iter().sum::<f64>()) / 1e3;
    report.note(format!(
        "{}: unscaled job_ms_p50 {:.4}, job_ms_tail {:.4}, sim_mips {:.3}, setup_s {:.5}; \
         gauge kernel median {:.4} ms (reference {REFERENCE_MS} ms)",
        w.name,
        median(&raw_ms),
        tail_of_thirds(&raw_ms, w.tail_pct),
        mips(&raw_ms),
        median(&raw_setup),
        factors.median_ms()
    ));
    report.put("job_ms_p50", median(&job_ms), "ms");
    report.put("job_ms_tail", tail_of_thirds(&job_ms, w.tail_pct), "ms");
    report.put("sim_mips", mips(&job_ms), "Minstr/s");
    // Over the digested jobs that verified: a failed job (counted in
    // `failed`) neither lowers the mean nor enters the digest.
    report.put(
        "sim_cycles",
        ratio(digest_cycles as f64, digest.jobs() as f64),
        "cycles",
    );
    // A closed loop has no latency limit: every verified job counts,
    // over the scaled time of the iterations (inputs, reference, run,
    // verification) that produced them.
    report.put("goodput_per_s", ratio(jobs.len() as f64, iter_s), "jobs/s");
    report.put(
        "ok_frac",
        1.0 - ratio(outcomes.failed as f64, outcomes.attempted as f64),
        "ratio",
    );
    report.put("setup_s", median(&setup_s), "s");

    if args.trace {
        totals.per_layer(report);
        report.put(
            "obs.trace_overhead_frac",
            ratio(median(&traced_ms), median(&untraced_ms)) - 1.0,
            "ratio",
        );
        probes(w, &p, args, &mut t, &mut outcomes, report);
        crate::finish_trace(w.name, args, t.into_spans(), report)?;
    }
    Ok(outcomes)
}

/// Traced-run measurements outside the timed loop.
fn probes(
    w: &SimWorkload,
    p: &Prepared,
    args: &Args,
    t: &mut Tracer,
    outcomes: &mut Outcomes,
    report: &mut Report,
) {
    // Set-up layers, timed alone (median of five).
    let time_ms = |f: &mut dyn FnMut()| {
        let v: Vec<f64> = (0..5)
            .map(|_| {
                let s = Instant::now();
                f();
                s.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&v)
    };
    let base = w.kernel.build(Variant::Baseline).program;
    report.put(
        "workloads.build_ms",
        time_ms(&mut || drop(black_box(w.kernel.build(Variant::Baseline)))),
        "ms",
    );
    match &p.compiler {
        Some(c) => {
            report.put(
                "compiler.transform_ms",
                time_ms(&mut || {
                    drop(black_box(prefetch_program(
                        &base,
                        &TransformOptions::default(),
                    )))
                }),
                "ms",
            );
            report.put(
                "compiler.decoupled_read_frac",
                c.decoupled_fraction(),
                "ratio",
            );
        }
        None => {
            let why = format!(
                "{} runs the baseline variant, which is not transformed",
                w.name
            );
            report.absent("compiler.transform_ms", "ms", &why);
            report.absent("compiler.decoupled_read_frac", "ratio", &why);
        }
    }
    report.put(
        "isa.encode_ms",
        time_ms(&mut || drop(black_box(encode_program(&p.program)))),
        "ms",
    );

    // Key and codec costs on one seeded job of the stream.
    let mut program = p.program.clone();
    let inputs = w.kernel.inputs(&mut Rng::new(args.seed, 0));
    install(&mut program, &inputs).expect("inputs fit the program they were made for");
    let job = SimJob::new(Arc::new(program), p.args.clone(), p.config.clone());
    report.put(
        "core.job_key_ms",
        time_ms(&mut || {
            black_box(job.key());
        }),
        "ms",
    );
    let result = t.span("core", "run_job", |_| run_job(&job));
    let verified = match &result.outcome {
        Ok(out) => check(&out.globals, &w.kernel.reference(&inputs)),
        Err(e) => Err(format!("job error: {e}")),
    };
    outcomes.record("codec probe job", verified);
    let text = t.span("json", "canonical_string", |_| result.canonical_string());
    report.put(
        "json.encode_ms",
        time_ms(&mut || drop(black_box(result.canonical_string()))),
        "ms",
    );
    report.put(
        "json.decode_ms",
        time_ms(&mut || drop(black_box(dta_core::JobResult::from_canonical_str(&text)))),
        "ms",
    );
    let back = t.span("json", "from_canonical_str", |_| {
        dta_core::JobResult::from_canonical_str(&text)
    });
    let round_trip = back.map(|b| b.canonical_string());
    outcomes.record(
        "canonical JSON round trip",
        if round_trip.as_ref() == Some(&text) {
            Ok(())
        } else {
            Err("decoded result re-encodes differently".into())
        },
    );

    // Observability: the same job with events and gauges on.
    let mut config = p.config.clone();
    config.obs.mode = ObsMode::All;
    let obs = run_seeded(w, p, &config, args.seed, 0, t);
    if let Some((_, out)) = outcomes.record("observed job", obs) {
        let stream = out.obs.as_ref().expect("ObsMode::All collects a stream");
        let mut sink = MetricsSink::new(config.total_pes());
        t.span("obs", "metrics_fold", |_| stream.feed(&mut sink));
        report.put(
            "obs.overlap_frac",
            sink.finish().overlap_fraction(),
            "ratio",
        );
        let fine: Vec<_> = out.stats.per_pe.iter().map(|s| s.fine).collect();
        let cycles: Vec<u64> = out.stats.per_pe.iter().map(|s| s.total_cycles()).collect();
        let names: Vec<String> = p.program.threads.iter().map(|t| t.name.clone()).collect();
        let a = t.span("obs", "analyze", |_| {
            analyze(&stream.records, &fine, &cycles, &names)
        });
        let (dec, blk) = a.threads.iter().fold((0, 0), |(d, b), t| {
            (d + t.reads_decoupled, b + t.reads_blocking)
        });
        report.put(
            "obs.pf_coverage",
            ratio(dec as f64, (dec + blk) as f64),
            "ratio",
        );
        let cp = &a.critical_path;
        let dominant = cp.dominant();
        report.put(
            "obs.critical_edge_frac",
            ratio(
                dominant.map_or(0, |e| e.cycles) as f64,
                cp.total_cycles() as f64,
            ),
            "ratio",
        );
        report.note(format!(
            "{}: dominant critical edge {}",
            w.name,
            dominant.map_or("none", |e| e.kind.name())
        ));
    }
    model_accuracy(t, outcomes, report);
}

/// Prefetch speed-ups of the model beside the paper's, on the paper
/// machine with the workloads' built-in inputs.
fn model_accuracy(t: &mut Tracer, outcomes: &mut Outcomes, report: &mut Report) {
    for (kernel, paper) in [(Kernel::Bitcnt(10_000), 1.13), (Kernel::Mmul(32), 11.18)] {
        let expected = kernel.reference(&kernel.builtin_inputs());
        let mut cycles = Vec::new();
        let mut decoupled = None;
        for variant in [
            Variant::Baseline,
            Variant::AutoPrefetch,
            Variant::HandPrefetch,
        ] {
            let wp = t.span("workloads", "build", |_| kernel.build(variant));
            if let Some(c) = &wp.compiler_report {
                decoupled = Some(c.decoupled_fraction());
            }
            let job = SimJob::new(Arc::new(wp.program), wp.args, paper_machine());
            let result = t.span("core", "run_job", |_| run_job(&job));
            let out = result
                .outcome
                .map_err(|e| format!("job error: {e}"))
                .and_then(|out| check(&out.globals, &expected).map(|()| out));
            let name = format!("model-accuracy {} {}", kernel.name(), variant.label());
            cycles.push(
                outcomes
                    .record(&name, out)
                    .map_or(0.0, |o| o.stats.cycles as f64),
            );
        }
        report.note(format!(
            "model-accuracy {} at 8 PEs: prefetch speed-up auto {:.2}x, hand {:.2}x (paper {paper:.2}x){}",
            kernel.name(),
            ratio(cycles[0], cycles[1]),
            ratio(cycles[0], cycles[2]),
            match (kernel, decoupled) {
                (Kernel::Bitcnt(_), Some(d)) => format!("; decoupled_read_frac {d:.2} (paper 0.62)"),
                _ => String::new(),
            }
        ));
    }
    report.note(
        "model-accuracy: the paper's figures above are the model's only reference; \
         it has no other validation against hardware"
            .into(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::self_ns_by_layer;

    const SMALL: SimWorkload = SimWorkload {
        name: "mmul-small",
        kernel: Kernel::Mmul(8),
        variant: Variant::AutoPrefetch,
        config: paper_machine,
        tail_pct: 99.0,
    };

    #[test]
    fn traced_self_times_sum_to_at_most_the_job_wall_time() {
        let mut t = Tracer::new(true, 0, Instant::now());
        let p = prepare(&SMALL, &mut t);
        let before = t.into_spans().len();
        let mut t = Tracer::new(true, 0, Instant::now());
        t.set_job(3);
        let wall = Instant::now();
        t.span("bench", "job", |t| {
            run_seeded(&SMALL, &p, &p.config, 1, 3, t)
        })
        .expect("job verifies");
        let wall_ns = wall.elapsed().as_nanos() as u64;
        let spans = t.into_spans();
        assert!(
            before >= 3,
            "set-up records build, transform and encode spans"
        );
        assert!(
            spans.iter().all(|s| s.job == 3),
            "spans of one job share its id"
        );
        let by_layer = self_ns_by_layer(&spans);
        assert!(by_layer["core"] > 0);
        assert!(by_layer.values().sum::<u64>() <= wall_ns);
    }

    #[test]
    fn seeded_jobs_are_deterministic_and_vary_with_the_index() {
        let mut t = Tracer::new(false, 0, Instant::now());
        let p = prepare(&SMALL, &mut t);
        let mut digest = |index| {
            let (_, out) =
                run_seeded(&SMALL, &p, &p.config, 9, index, &mut t).expect("job verifies");
            Digest::job_hash(&out)
        };
        assert_eq!(digest(0), digest(0));
        assert_ne!(digest(0), digest(1));
    }
}
