//! `suite_batch`: the compiler path. One pass maps the 11 suite kernels
//! on 2x2, 3x3 and 4x4 meshes (33 jobs) with `Engine::map_batch` on a
//! fresh in-memory engine; every answer is checked against the pinned
//! table and verified by simulation against the DFG interpreter.

use crate::layers::Layers;
use crate::problems::{self, Pin, SUITE_SIZES};
use crate::replay::{self, Rung, StageCounts};
use crate::report::Report;
use crate::trace::{Tracer, UNATTRIBUTED};
use crate::util::{self, median, Rng, Summary};
use satmapit_cgra::Cgra;
use satmapit_core::AttemptOutcome;
use satmapit_engine::{BatchItem, Engine, EngineConfig, Job};
use satmapit_kernels::Kernel;
use satmapit_sat::StopReason;
use std::time::Instant;

/// Iterations each mapping is simulated for against the interpreter.
const SIM_ITERATIONS: u32 = 8;
/// Cached resubmissions of the whole batch after each cold pass (what a
/// repeated `batch` round costs); each one's wall time is a hot sample.
const HOT_ROUNDS: usize = 3000;
/// The hot tail: this percentile of one pass's hot samples. A round is
/// two thread spawns and 33 lookups; beyond this percentile its latency
/// follows the host's other tenants rather than the program (per-pass p90
/// moved by 30% between runs while p50 moved by 8%). The hot figures are
/// taken per pass and the median over passes is reported, so a slow phase
/// of the host during one or two passes does not set them either.
const HOT_TAIL_PCT: f64 = 75.0;
/// Set-up is timed in groups of `SETUP_REPS` repetitions, `SETUP_GROUPS`
/// groups before each pass with a short sleep between them. A group's
/// time is its median; `setup_s` is the mean over all groups of the run.
/// Group medians fall into two modes about 40% apart (the scheduler
/// runs the same code at another speed after a sleep), so the median of all
/// repetitions jumped between the modes from run to run, while the mean
/// over many groups moves only with the share of each mode.
const SETUP_REPS: usize = 29;
const SETUP_GROUPS: usize = 16;
const SETUP_GAP: std::time::Duration = std::time::Duration::from_millis(2);

struct Suite {
    jobs: Vec<Job>,
    kernels: Vec<Kernel>,
    pins: Vec<Pin>,
}

fn load(seed: u64) -> Suite {
    let mut rng = Rng::new(seed);
    let mut suite = Suite {
        jobs: Vec::new(),
        kernels: Vec::new(),
        pins: Vec::new(),
    };
    for kernel in satmapit_kernels::all() {
        for size in SUITE_SIZES {
            let k = problems::perturbed_kernel(&kernel, &mut rng, SIM_ITERATIONS);
            suite.pins.push(problems::pinned(kernel.name(), size));
            suite.jobs.push(Job::new(
                format!("{}@{size}x{size}", kernel.name()),
                k.dfg.clone(),
                Cgra::square(size),
            ));
            suite.kernels.push(k);
        }
    }
    suite
}

fn config() -> EngineConfig {
    EngineConfig {
        workers: util::hardware_threads(),
        ..EngineConfig::default()
    }
}

/// Checks one pass against the pinned table and the simulator. Returns
/// the pass's II sum: each job's achieved II, or its pinned II plus
/// [`problems::II_PENALTY`] when it failed to map or to verify.
fn check(
    suite: &Suite,
    items: &[BatchItem],
    report: &mut Report,
    tracer: &Tracer,
    parent: Option<usize>,
) -> u32 {
    let mut ii_sum = 0;
    for (i, item) in items.iter().enumerate() {
        report.attempted += 1;
        let pin = suite.pins[i];
        let Ok(mapped) = &item.outcome.outcome.result else {
            ii_sum += pin.ii + problems::II_PENALTY;
            report.wrong_answer(format!(
                "{} failed: {:?}",
                item.name, item.outcome.outcome.result
            ));
            continue;
        };
        ii_sum += mapped.ii();
        if mapped.ii() != pin.ii || mapped.mii != pin.mii {
            report.wrong_answer(format!(
                "{}: (MII, II) = ({}, {}), pinned ({}, {})",
                item.name,
                mapped.mii,
                mapped.ii(),
                pin.mii,
                pin.ii
            ));
            continue;
        }
        let kernel = &suite.kernels[i];
        let job = &suite.jobs[i];
        let verified = tracer.time("check.verify", "check", parent, i as u64, || {
            satmapit_sim::verify_mapping(
                &job.dfg,
                &job.cgra,
                mapped,
                kernel.memory.clone(),
                SIM_ITERATIONS,
            )
        });
        if let Err(e) = verified {
            ii_sum += problems::II_PENALTY;
            report.wrong_answer(format!("{}: simulation disagrees: {e}", item.name));
        }
    }
    ii_sum
}

pub fn run(seed: u64, seconds: u64, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let suite = load(seed);

    // A fixed pass count per run length keeps the same job mix behind
    // every percentile from run to run.
    let passes = if tracer.enabled() {
        2
    } else {
        (seconds / 4).max(2) as usize
    };
    let cpu0 = util::process_cpu();
    let (mut walls, mut cold, mut hot, mut rss) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut layers = Layers::default();
    let mut ii_sum = 0u32;
    // A traced run makes one untraced pass as its baseline and one traced
    // pass with the stage replay.
    for pass in 0..passes {
        util::reset_peak_rss();
        // The program's side of set-up only: its kernel library and a
        // fresh engine. The seeded perturbation (which runs the reference
        // interpreter, the oracle) happened once, above, untimed.
        for _ in 0..SETUP_GROUPS {
            let mut group = [0.0; SETUP_REPS];
            for rep in &mut group {
                let t = Instant::now();
                let kernels = satmapit_kernels::all();
                let engine = Engine::new(config());
                *rep = t.elapsed().as_secs_f64();
                drop((kernels, engine));
            }
            setups.push(median(&group));
            std::thread::sleep(SETUP_GAP);
        }
        let traced = tracer.enabled() && pass == 1;
        let silent = Tracer::new(false);
        let tr = if traced { tracer } else { &silent };
        let root = tr.open("pass", UNATTRIBUTED, None, 0);
        let engine = Engine::new(config());
        let jobs = suite.jobs.clone();
        let cpu_before = util::process_cpu();
        let span = tr.open("engine.map_batch", "engine", root, 0);
        let t = Instant::now();
        let items = engine.map_batch(jobs);
        let wall = t.elapsed();
        tr.close(span);
        let cpu = util::process_cpu().saturating_sub(cpu_before);
        walls.push(wall.as_secs_f64());
        cold.extend(items.iter().map(|i| util::us(i.elapsed)));
        // The worst pass counts, so one bad pass cannot hide behind good ones.
        ii_sum = ii_sum.max(check(&suite, &items, &mut report, tr, root));
        let mut pass_hot = Vec::with_capacity(HOT_ROUNDS);
        for _ in 0..HOT_ROUNDS {
            let jobs = suite.jobs.clone();
            let t = Instant::now();
            let answers = tr.time("engine.map_batch", "engine", root, 0, || {
                engine.map_batch(jobs)
            });
            pass_hot.push(util::us(t.elapsed()));
            // Resubmissions are not requests of their own (`attempted`
            // counts the cold jobs), but a wrong one fails the run.
            for (item, first) in answers.iter().zip(&items) {
                if !item.cached || item.outcome.ii() != first.outcome.ii() {
                    report.broken(format!("{}: resubmission not served from cache", item.name));
                }
            }
        }
        hot.push(util::percentiles(&pass_hot, [50.0, HOT_TAIL_PCT]));
        rss.push(util::peak_rss_mb());
        if traced {
            let replay_span = tracer.open("replay", UNATTRIBUTED, root, 0);
            let mut counts = StageCounts::default();
            for (i, item) in items.iter().enumerate() {
                let rungs: Vec<Rung> = item
                    .outcome
                    .outcome
                    .attempts
                    .iter()
                    .filter(|a| a.outcome != AttemptOutcome::SolverBudget(StopReason::Cancelled))
                    .map(|a| Rung {
                        ii: a.ii,
                        cut: a.ra_cuts > 0,
                    })
                    .collect();
                let job = &suite.jobs[i];
                let ii = replay::replay(
                    tracer,
                    replay_span,
                    i as u64,
                    &job.dfg,
                    &job.cgra,
                    &rungs,
                    &mut counts,
                );
                if ii != Some(suite.pins[i].ii) {
                    report.broken(format!("{}: replay mapped at {ii:?}", item.name));
                }
            }
            tracer.close(replay_span);
            tracer.close(root);
            layers.add_counts(&counts);
            let started: u64 = items.iter().map(|i| i.outcome.stats.tasks_started).sum();
            let cancelled: u64 = items.iter().map(|i| i.outcome.stats.tasks_cancelled).sum();
            let definitive = items
                .iter()
                .flat_map(|i| &i.outcome.outcome.attempts)
                .filter(|a| a.outcome != AttemptOutcome::SolverBudget(StopReason::Cancelled))
                .count();
            let stats = engine.cache_stats();
            layers.set("engine.tasks_started", started as f64);
            layers.set("engine.tasks_cancelled", cancelled as f64);
            layers.set(
                "engine.useful_frac",
                definitive as f64 / started.max(1) as f64,
            );
            layers.set(
                "engine.busy_frac",
                cpu.as_secs_f64() / (wall.as_secs_f64() * config().workers as f64),
            );
            layers.set("engine.cache_hits", stats.hits as f64);
            layers.set("engine.cache_misses", stats.misses as f64);
            let spans = tracer.take();
            layers.add_spans(&spans);
            layers.set("trace.overhead_us", (walls[1] - walls[0]) * 1e6);
            let path =
                std::path::Path::new(crate::OUT_DIR).join(format!("trace-suite_batch-{seed}.json"));
            if let Err(e) = tracer.write_chrome(&spans, &path) {
                report.note(format!("trace not written: {e}"));
            }
        }
    }
    let cpu_all = util::process_cpu().saturating_sub(cpu0);

    report.metric(
        "setup_s",
        setups.iter().sum::<f64>() / setups.len() as f64,
        "s",
    );
    report.metric(
        "sustained_rps",
        suite.jobs.len() as f64 / median(&walls),
        "1/s",
    );
    let hot_p50: Vec<f64> = hot.iter().map(|h| h[0]).collect();
    let hot_tail: Vec<f64> = hot.iter().map(|h| h[1]).collect();
    report.metric("hot_p50_us", median(&hot_p50), "us");
    report.metric("hot_tail_us", median(&hot_tail), "us");
    report.note(format!(
        "hot: p50 and p{HOT_TAIL_PCT} per pass over {HOT_ROUNDS} cached resubmissions each: {hot_p50:.1?} and {hot_tail:.1?} us"
    ));
    report.latency("cold", Summary::of(&cold), "us");
    report.metric("ii_sum", f64::from(ii_sum), "II");
    report.metric(
        "ok_frac",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    report.metric("peak_rss_mb", median(&rss), "MiB");
    report.note(format!(
        "{} cold passes, pass wall median {:.3} s (all: {walls:.3?}), peak RSS per pass {rss:.1?} MiB, process CPU {:.2} s",
        walls.len(),
        median(&walls),
        cpu_all.as_secs_f64()
    ));
    if tracer.enabled() {
        layers.emit(&mut report);
    }
    report
}
