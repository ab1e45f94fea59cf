//! `serve-zipf`: an open loop of small jobs against one
//! `dta_serve::Service` (default configuration plus a fresh on-disk
//! store per run).
//!
//! Arrivals are Poisson at a fixed rate. New jobs enter at a steady
//! rate and each is popular for a fixed window: its requests, in number
//! following a Zipf law, fall within that window. So after a warm-up as
//! long as the window the traffic is stationary: about 38 % memory hits,
//! 42 % disk hits (jobs evicted from the 512-entry memory cache and
//! requested again) and 20 % misses (simulate, then store to memory and
//! disk) in every second of the timed phase. The median request is a
//! disk hit (read, checksum, decode) and the tail a miss. Each request
//! is timed from the moment it was due, so a stall also delays the
//! requests queued behind it.

use crate::gen::{check, install, Globals, Kernel, Rng};
use crate::report::{median, percentile, ratio, tail_of_thirds, Digest, Outcomes, Report};
use crate::sim::NO_JOB;
use crate::speed::{Gauge, REFERENCE_MS};
use crate::trace::Tracer;
use crate::Args;
use dta_compiler::{prefetch_program, TransformOptions};
use dta_core::{JobResult, MemoConfig, SimJob, SystemConfig};
use dta_serve::{CacheStatus, Service, ServiceConfig};
use dta_workloads::Variant;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAME: &str = "serve-zipf";
/// Offered load, requests per second. A miss costs about 5 ms and a
/// disk hit about 1.3 ms of host time, so the client is busy about a
/// sixth of the time. At 150 requests/s with 30 % misses it was busy a
/// third of the time, and queueing turned a 1.3× slower host into a
/// 1.8× higher median; now latency follows service time nearly in
/// proportion.
const RATE_PER_S: f64 = 100.0;
/// Zipf exponent of the popularity law. At s = 1 most requests go to a
/// few hundred jobs that never leave memory, and the rest are requested
/// about once: almost no disk hits. s = 0.3 spreads re-requests over
/// the whole catalogue.
const ZIPF_S: f64 = 0.3;
/// The quick-suite sizes of the paper's three benchmarks.
const KERNELS: [Kernel; 3] = [Kernel::Bitcnt(512), Kernel::Mmul(16), Kernel::Zoom(16)];
const PES: [u16; 4] = [1, 2, 4, 8];
/// Jobs that enter per second of schedule: 20 % of the requests are
/// first requests, i.e. misses.
const NEW_JOBS_PER_S: f64 = 20.0;
/// Seconds over which a job's requests fall. About 640 jobs are popular
/// at once, more than the 512-entry memory cache holds, so re-requests
/// are split between memory and disk hits.
const POPULAR_S: u64 = 32;
/// Seconds of schedule served before the timed phase: as long as the
/// popularity window, after which the mix no longer changes. A fresh
/// service misses on almost every request at first; timed, that burst
/// queues and sets the tail of the whole run. The warm-up requests are
/// served back to back (the cache's state depends only on the order of
/// requests), verified and counted like all others, but not timed.
const WARM_UP_S: u64 = 32;
/// Percentile of `job_ms_tail`. p99 would keep ten requests beyond it in
/// each third of a 35 s timed phase (1167 of 3500 requests), but with one
/// client those are the requests queued behind a slow miss when the
/// hypervisor stalled the vCPU, and their count follows the host: over
/// ten seeds the scaled p99 spread by 0.33 of its median. p95 (58
/// requests beyond it per third) is set by the slow misses themselves.
pub const TAIL_PCT: f64 = 95.0;
/// Latency limit a request must meet to count towards `goodput_per_s`:
/// ten times the median miss (about 5 ms), so only a request that
/// waited behind a queue or a host stall misses it.
pub const LIMIT_MS: f64 = 50.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// How long before a due time the client stops sleeping and spins. 1 ms
/// absorbs the usual OS wake-up delay (~0.1 ms); a 5 ms window kept both
/// vCPUs of a 2-vCPU host busy and raised the median latency fivefold.
const SPIN: Duration = Duration::from_millis(1);
/// The client samples the host-speed gauge (about 0.4 ms of work) while
/// it waits for a request, when the request is due at least this far ahead
/// and its last sample is older than `GAUGE_EVERY`, so sampling never
/// delays a request.
const GAUGE_AHEAD: Duration = Duration::from_millis(4);
const GAUGE_EVERY: f64 = 0.02;
/// Rng stream offsets, so catalogue inputs, the request order and the
/// arrival times never share draws.
const CATALOGUE_STREAM: u64 = 1 << 32;
const ORDER_STREAM: u64 = 2 << 32;
const ARRIVAL_STREAM: u64 = 3 << 32;

struct Entry {
    job: SimJob,
    expected: Globals,
}

/// The on-disk store of one set-up; removed when dropped.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is harmless and reported.
        if let Err(e) = std::fs::remove_dir_all(&self.0) {
            eprintln!("could not remove {}: {e}", self.0.display());
        }
    }
}

fn catalogue(seed: u64, input_sets: u64, t: &mut Tracer) -> Vec<Entry> {
    let mut entries = Vec::new();
    for kernel in KERNELS {
        for variant in Variant::ALL {
            let wp = match variant {
                Variant::AutoPrefetch => {
                    let base = t.span("workloads", "build", |_| kernel.build(Variant::Baseline));
                    let (program, _) = t.span("compiler", "prefetch_program", |_| {
                        prefetch_program(&base.program, &TransformOptions::default())
                    });
                    dta_workloads::WorkloadProgram { program, ..base }
                }
                v => t.span("workloads", "build", |_| kernel.build(v)),
            };
            for pes in PES {
                let config = SystemConfig {
                    memo: MemoConfig::on(),
                    ..SystemConfig::with_pes(pes)
                };
                for _ in 0..input_sets {
                    let stream = CATALOGUE_STREAM + entries.len() as u64;
                    let inputs = kernel.inputs(&mut Rng::new(seed, stream));
                    let mut program = wp.program.clone();
                    install(&mut program, &inputs)
                        .expect("inputs fit the program they were made for");
                    entries.push(Entry {
                        job: SimJob::new(Arc::new(program), wp.args.clone(), config.clone()),
                        expected: kernel.reference(&inputs),
                    });
                }
            }
        }
    }
    entries
}

/// Catalogue index of every request, in arrival order, for a schedule
/// of `schedule_s` seconds. Jobs enter uniformly over the schedule plus
/// one popularity window; each job's requests fall uniformly within
/// `POPULAR_S` seconds of its entry, and their number follows the Zipf
/// law (largest-remainder rounding) over a fixed popularity ranking.
/// The first `requests` in time order are served, so the schedule ends
/// as stationary as it runs and no job's requests are squeezed into its
/// end. The seed picks entries, request times and so the order.
fn request_order(catalogue: usize, requests: usize, schedule_s: u64, seed: u64) -> Vec<usize> {
    let span = (schedule_s + POPULAR_S) as f64;
    let generated = (requests as f64 * span / schedule_s as f64).round() as usize;
    let mut rank: Vec<usize> = (0..catalogue).collect();
    shuffle(&mut rank, &mut Rng::new(0x5EED_CA7A, 0));
    let weights: Vec<f64> = (1..=catalogue).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights
        .iter()
        .map(|w| w / total * generated as f64)
        .collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..catalogue).collect();
    by_remainder.sort_by(|&a, &b| {
        (quotas[b] - quotas[b].floor()).total_cmp(&(quotas[a] - quotas[a].floor()))
    });
    let short = generated - counts.iter().sum::<usize>();
    for &r in &by_remainder[..short] {
        counts[r] += 1;
    }
    let window = POPULAR_S as f64;
    let mut rng = Rng::new(seed, ORDER_STREAM);
    let mut at: Vec<(f64, usize)> = Vec::with_capacity(generated);
    for (r, &c) in counts.iter().enumerate().filter(|&(_, &c)| c > 0) {
        let entry = rng.unit() * (span - window);
        at.push((entry, rank[r]));
        for _ in 1..c {
            at.push((entry + window * rng.unit(), rank[r]));
        }
    }
    at.sort_by(|a, b| a.0.total_cmp(&b.0));
    at.truncate(requests);
    at.into_iter().map(|(_, entry)| entry).collect()
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
}

/// Poisson arrival offsets from the start of the timed phase: a
/// Poisson process conditioned on `requests` arrivals in `seconds`
/// (sorted uniform draws), so every seed offers exactly the same rate.
fn arrivals(requests: usize, seconds: u64, seed: u64) -> Vec<Duration> {
    let mut rng = Rng::new(seed, ARRIVAL_STREAM);
    let mut at: Vec<f64> = (0..requests).map(|_| rng.unit() * seconds as f64).collect();
    at.sort_by(f64::total_cmp);
    at.into_iter().map(Duration::from_secs_f64).collect()
}

fn new_service(dir: &Path) -> Service {
    Service::new(ServiceConfig {
        disk_dir: Some(dir.to_path_buf()),
        ..ServiceConfig::default()
    })
}

/// What one client saw for one request.
struct Served {
    request: usize,
    latency_ms: f64,
    /// Completion, in seconds since the gauges' origin.
    done_at: f64,
    /// From pick-up to completion (no waiting for the due time).
    handle_ms: f64,
    late_ms: f64,
    backlog: usize,
    traced: bool,
    status: CacheStatus,
    service_ms: f64,
    instructions: u64,
    /// Verification outcome. The result itself is not kept, so the
    /// benchmark holds no results beyond what the service caches.
    result: Result<(), String>,
}

/// Serves request `request` of the schedule, due at `due` after
/// `start`, and records what the client saw. `picked` is when the client
/// took it up.
fn serve_one(
    setup: &Setup,
    request: usize,
    t0: Instant,
    start: Instant,
    due: Duration,
    picked: Duration,
    t: &mut Tracer,
) -> Served {
    let entry = &setup.entries[setup.order[request]];
    t.set_job(request as u64);
    let (done, completed, result) = t.span("loadgen", "request", |t| {
        let done = t.span("serve", "submit", |_| setup.service.submit(&entry.job));
        let completed = start.elapsed();
        let result = t.span("bench", "verify", |_| match &done.result.outcome {
            Ok(out) => check(&out.globals, &entry.expected),
            Err(e) => Err(format!("job error: {e}")),
        });
        (done, completed, result)
    });
    let instructions = match &done.result.outcome {
        Ok(out) => out.stats.instructions,
        Err(_) => 0,
    };
    Served {
        request,
        latency_ms: (completed - due).as_secs_f64() * 1e3,
        done_at: (start + completed).duration_since(t0).as_secs_f64(),
        handle_ms: (completed - picked).as_secs_f64() * 1e3,
        late_ms: picked.saturating_sub(due).as_secs_f64() * 1e3,
        backlog: 0,
        traced: false,
        status: done.status,
        service_ms: done.wall_ms,
        instructions,
        result,
    }
}

/// The client: serves the warm-up requests back to back, then the timed
/// ones on their schedule, sampling the gauge while it waits. Returns
/// what it saw for each request and when the timed phase started. With
/// `trace`, every other timed request is traced.
fn client(
    setup: &Setup,
    t0: Instant,
    trace: bool,
    t: &mut Tracer,
    gauge: &mut Gauge,
) -> (Vec<Served>, Instant) {
    let warm_up = setup.order.len() - setup.due.len();
    let mut served = Vec::with_capacity(setup.order.len());
    let start = Instant::now();
    for request in 0..warm_up {
        let now = start.elapsed();
        served.push(serve_one(setup, request, t0, start, now, now, t));
    }

    let start = Instant::now();
    for (i, &due) in setup.due.iter().enumerate() {
        // Sleep until shortly before the due time, then spin: sleeping
        // to the due time itself would add the OS wake-up delay to
        // every request.
        let due_at = start + due;
        if due_at > Instant::now() + GAUGE_AHEAD && gauge.since_last() >= GAUGE_EVERY {
            gauge.sample();
        }
        if let Some(wait) = due_at.checked_duration_since(Instant::now() + SPIN) {
            std::thread::sleep(wait);
        }
        while Instant::now() < due_at {
            std::hint::spin_loop();
        }
        let picked = start.elapsed();
        let traced = trace && i.is_multiple_of(2);
        t.set_on(traced);
        let mut s = serve_one(setup, warm_up + i, t0, start, due, picked, t);
        s.backlog = setup.due.partition_point(|&d| d <= picked) - (i + 1);
        s.traced = traced;
        served.push(s);
    }
    t.set_on(trace);
    (served, start)
}

/// Everything the warm-up and the timed phase need.
struct Setup {
    entries: Vec<Entry>,
    /// Catalogue index of every request: the warm-up's, then the timed
    /// phase's.
    order: Vec<usize>,
    /// Due times of the timed requests, from the start of the timed
    /// phase.
    due: Vec<Duration>,
    service: Service,
    /// Declared after `service`, so the store outlives the service.
    _dir: ScratchDir,
}

/// Catalogue, schedule, a service with a fresh store, and one untimed
/// warm-up job that is not in the catalogue.
fn set_up(
    args: &Args,
    rep: usize,
    t: &mut Tracer,
    outcomes: &mut Outcomes,
) -> Result<Setup, String> {
    let work = Path::new(crate::WORK_DIR);
    std::fs::create_dir_all(work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let schedule_s = WARM_UP_S + args.seconds;
    // Enough input sets for every job that may enter.
    let jobs = NEW_JOBS_PER_S * (schedule_s + POPULAR_S) as f64;
    let shapes = KERNELS.len() * Variant::ALL.len() * PES.len();
    let entries = catalogue(args.seed, (jobs / shapes as f64).ceil() as u64, t);
    let requests = (RATE_PER_S * schedule_s as f64).round() as usize;
    let order = request_order(entries.len(), requests, schedule_s, args.seed);
    let timed = (RATE_PER_S * args.seconds as f64).round() as usize;
    let due = arrivals(timed, args.seconds, args.seed);
    let dir = ScratchDir(work.join(format!("serve-{}-{rep}", std::process::id())));
    let service = t.span("serve", "new", |_| new_service(&dir.0));
    let warm = Kernel::Mmul(16);
    let mut wp = warm.build(Variant::Baseline);
    let inputs = warm.inputs(&mut Rng::new(args.seed, NO_JOB));
    install(&mut wp.program, &inputs)?;
    let job = SimJob::new(Arc::new(wp.program), wp.args, entries[0].job.config.clone());
    let done = t.span("serve", "submit", |_| service.submit(&job));
    let warm_result = match &done.result.outcome {
        Ok(out) => check(&out.globals, &warm.reference(&inputs)),
        Err(e) => Err(format!("job error: {e}")),
    };
    outcomes.record("warm-up job", warm_result);
    Ok(Setup {
        entries,
        order,
        due,
        service,
        _dir: dir,
    })
}

pub fn run(args: &Args, report: &mut Report) -> Result<Outcomes, String> {
    let t0 = Instant::now();
    let mut t = Tracer::new(args.trace, 0, t0);
    t.set_job(NO_JOB);
    let mut outcomes = Outcomes::default();

    // Half the set-ups run before the timed phase and half after, so
    // their median samples the host at two points in time. Each is
    // recorded with its start (seconds since `t0`) and duration.
    let mut gauge = Gauge::new(t0);
    let mut setups = Vec::new();
    let mut ready = None;
    for rep in 0..SETUPS.div_ceil(2) {
        gauge.sample();
        let start = Instant::now();
        ready = Some(set_up(args, rep, &mut t, &mut outcomes)?);
        setups.push((start.duration_since(t0).as_secs_f64(), start.elapsed().as_secs_f64()));
    }
    let setup = ready.expect("at least one set-up");

    let (served, start) = client(&setup, t0, args.trace, &mut t, &mut gauge);
    let elapsed = start.elapsed().as_secs_f64();
    t.set_job(NO_JOB);
    for rep in SETUPS.div_ceil(2)..SETUPS {
        gauge.sample();
        let start = Instant::now();
        set_up(args, rep, &mut t, &mut outcomes)?;
        setups.push((start.duration_since(t0).as_secs_f64(), start.elapsed().as_secs_f64()));
    }
    // Host times are scaled to the reference host speed by the gauge
    // samples near them; the unscaled figures are printed as a note.
    let factors = gauge.into_factors();
    let warm_up = setup.order.len() - setup.due.len();
    let is_timed = |s: &Served| s.request >= warm_up;

    let mut digest = Digest::default();
    let mut hashes: HashMap<usize, u128> = HashMap::new();
    let (mut latency, mut raw_latency, mut good) = (Vec::new(), Vec::new(), 0u64);
    // Simulated cycles summed over the distinct jobs whose digest fetch
    // verified, and their number.
    let (mut cycles, mut cycled) = (0u64, 0u64);
    let (mut miss_instr, mut miss_ms, mut raw_miss_ms) = (0u64, 0.0, 0.0);
    for s in &served {
        let what = format!("{NAME} request {}", s.request);
        if outcomes.record(&what, s.result.clone()).is_none() {
            continue;
        }
        // Each distinct job is hashed once, from the service's cached
        // copy (byte-identical to what was served), after the timed phase.
        let entry = setup.order[s.request];
        let hash = *hashes.entry(entry).or_insert_with(|| {
            let done = setup.service.submit(&setup.entries[entry].job);
            let hashed = match &done.result.outcome {
                Ok(out) => Ok((Digest::job_hash(out), out.stats.cycles)),
                Err(e) => Err(format!("job error: {e}")),
            };
            match outcomes.record("digest fetch", hashed) {
                Some((hash, job_cycles)) => {
                    cycles += job_cycles;
                    cycled += 1;
                    hash
                }
                None => 0,
            }
        });
        digest.push(hash);
        if !is_timed(s) {
            continue;
        }
        let factor = factors.at(s.done_at);
        let scaled = s.latency_ms * factor;
        latency.push(scaled);
        raw_latency.push(s.latency_ms);
        good += u64::from(scaled <= LIMIT_MS);
        if s.status == CacheStatus::Miss {
            miss_instr += s.instructions;
            miss_ms += s.service_ms * factor;
            raw_miss_ms += s.service_ms;
        }
    }
    report.note(digest.line(NAME, args.seed));
    let (warm, timed): (Vec<Served>, Vec<Served>) = served.into_iter().partition(|s| !is_timed(s));
    report.note(format!(
        "{NAME}: {} catalogue jobs, {} warm-up requests served back to back, then {} at \
         {RATE_PER_S}/s in {elapsed:.2} s, 1 client, job_ms_tail = p{TAIL_PCT}, limit {LIMIT_MS} ms",
        setup.entries.len(),
        warm.len(),
        timed.len()
    ));
    for (phase, served) in [("warm-up", &warm), ("timed", &timed)] {
        let count = |st: CacheStatus| served.iter().filter(|s| s.status == st).count();
        report.note(format!(
            "{NAME} {phase}: memory {} / disk {} / coalesced {} / miss {} requests, backlog max {}",
            count(CacheStatus::Memory),
            count(CacheStatus::Disk),
            count(CacheStatus::Coalesced),
            count(CacheStatus::Miss),
            served.iter().map(|s| s.backlog).max().unwrap_or(0)
        ));
    }
    let raw_setup: Vec<f64> = setups.iter().map(|&(_, s)| s).collect();
    let setup_s: Vec<f64> = setups
        .iter()
        .map(|&(at, s)| s * factors.at(at + s / 2.0))
        .collect();
    report.note(format!(
        "{NAME}: unscaled job_ms_p50 {:.4}, job_ms_tail {:.4}, sim_mips {:.3}, setup_s {:.5}; \
         gauge kernel median {:.4} ms (reference {REFERENCE_MS} ms)",
        median(&raw_latency),
        tail_of_thirds(&raw_latency, TAIL_PCT),
        ratio(miss_instr as f64, raw_miss_ms) / 1e3,
        median(&raw_setup),
        factors.median_ms()
    ));
    report.put("job_ms_p50", median(&latency), "ms");
    report.put("job_ms_tail", tail_of_thirds(&latency, TAIL_PCT), "ms");
    report.put(
        "sim_mips",
        ratio(miss_instr as f64, miss_ms) / 1e3,
        "Minstr/s",
    );
    // Over the distinct jobs served: every job shape is in the catalogue
    // equally often, while which shapes the timed requests hit most
    // depends on the seed.
    report.put("sim_cycles", ratio(cycles as f64, cycled as f64), "cycles");
    report.put("goodput_per_s", good as f64 / elapsed, "jobs/s");
    report.put(
        "ok_frac",
        1.0 - ratio(outcomes.failed as f64, outcomes.attempted as f64),
        "ratio",
    );
    report.put("setup_s", median(&setup_s), "s");

    if args.trace {
        per_layer(&timed, &setup.service, &setup.entries, &mut t, report);
        crate::finish_trace(NAME, args, t.into_spans(), report)?;
    }
    Ok(outcomes)
}

fn per_layer(
    served: &[Served],
    service: &Service,
    entries: &[Entry],
    t: &mut Tracer,
    report: &mut Report,
) {
    let n = served.len() as f64;
    let count = |st: CacheStatus| served.iter().filter(|s| s.status == st).count() as f64;
    let service_ms = |st: CacheStatus| {
        let v: Vec<f64> = served
            .iter()
            .filter(|s| s.status == st)
            .map(|s| s.service_ms)
            .collect();
        median(&v)
    };
    report.put("serve.hit_frac", count(CacheStatus::Memory) / n, "ratio");
    report.put("serve.disk_hit_frac", count(CacheStatus::Disk) / n, "ratio");
    report.absent(
        "serve.coalesced_frac",
        "ratio",
        "one client submits one request at a time, so none waits on another's run",
    );
    report.put("serve.miss_ms_p50", service_ms(CacheStatus::Miss), "ms");
    report.put("serve.memory_ms_p50", service_ms(CacheStatus::Memory), "ms");
    report.put("serve.disk_ms_p50", service_ms(CacheStatus::Disk), "ms");
    let health = service.health();
    report.put("serve.sheds", health.sheds as f64, "count");
    report.put("serve.timeouts", health.timeouts as f64, "count");
    report.put("serve.quarantines", health.quarantines as f64, "count");
    let late: Vec<f64> = served.iter().map(|s| s.late_ms).collect();
    report.put("loadgen.late_ms_p99", percentile(&late, 99.0), "ms");
    report.put(
        "loadgen.backlog_max",
        served.iter().map(|s| s.backlog).max().unwrap_or(0) as f64,
        "count",
    );
    let traced: Vec<f64> = served
        .iter()
        .filter(|s| s.traced)
        .map(|s| s.handle_ms)
        .collect();
    let untraced: Vec<f64> = served
        .iter()
        .filter(|s| !s.traced)
        .map(|s| s.handle_ms)
        .collect();
    report.put(
        "obs.trace_overhead_frac",
        ratio(median(&traced), median(&untraced)) - 1.0,
        "ratio",
    );

    // Key and codec costs over the catalogue (results from the cache).
    let start = Instant::now();
    for e in entries {
        std::hint::black_box(t.span("core", "job_key", |_| e.job.key()));
    }
    report.put(
        "core.job_key_ms",
        start.elapsed().as_secs_f64() * 1e3 / entries.len() as f64,
        "ms",
    );
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for e in entries.iter().step_by(entries.len() / 32) {
        let result = service.submit(&e.job).result;
        let s = Instant::now();
        let text = t.span("json", "canonical_string", |_| result.canonical_string());
        enc.push(s.elapsed().as_secs_f64() * 1e3);
        let s = Instant::now();
        std::hint::black_box(t.span("json", "from_canonical_str", |_| {
            JobResult::from_canonical_str(&text)
        }));
        dec.push(s.elapsed().as_secs_f64() * 1e3);
    }
    report.put("json.encode_ms", median(&enc), "ms");
    report.put("json.decode_ms", median(&dec), "ms");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed_and_stationary_after_the_warm_up() {
        let schedule_s = WARM_UP_S + 35;
        let requests = (RATE_PER_S * schedule_s as f64) as usize;
        let jobs = (NEW_JOBS_PER_S * (schedule_s + POPULAR_S) as f64) as usize;
        let a = request_order(jobs, requests, schedule_s, 1);
        assert_eq!(a, request_order(jobs, requests, schedule_s, 1));
        assert_ne!(a, request_order(jobs, requests, schedule_s, 2));
        assert_eq!(a.len(), requests);

        // First requests (misses on a fresh service) are about 20 % of
        // every tenth of the schedule after the warm-up, not bunched at
        // its start or thinned out at its end.
        let mut seen = vec![false; jobs];
        let tenth = requests / 10;
        let firsts: Vec<f64> = a
            .chunks(tenth)
            .map(|chunk| {
                let new = chunk
                    .iter()
                    .filter(|&&e| !std::mem::replace(&mut seen[e], true))
                    .count();
                new as f64 / chunk.len() as f64
            })
            .collect();
        let timed = &firsts[(10 * WARM_UP_S).div_ceil(schedule_s) as usize..];
        let share = NEW_JOBS_PER_S / RATE_PER_S;
        assert!(
            timed.iter().all(|&f| (f - share).abs() < 0.06),
            "{firsts:?}"
        );
        assert!(firsts[0] > share + 0.2, "the warm-up starts cold: {firsts:?}");

        let due = arrivals(requests, schedule_s, 1);
        assert_eq!(due, arrivals(requests, schedule_s, 1));
        assert_ne!(due, arrivals(requests, schedule_s, 2));
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.last().unwrap() < &Duration::from_secs(schedule_s));
    }
}
