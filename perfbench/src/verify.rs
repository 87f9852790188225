//! The `verify-catalog` workload and the verifier's per-layer measurements.
//!
//! End to end, one unit of work is a *catalog pass*: the full
//! commutativity-condition catalog through `core::verify::verify_catalog`
//! at `threads` workers, then the eight inverse methods. The catalog is the
//! paper's and does not depend on the seed.
//!
//! Per layer, the verifier is taken apart by a t=1 traced pass that proves
//! each obligation through the prover's public pieces in the order
//! `Portfolio::prove` uses them (canonical key and cache, structural
//! prover, finite-model search), timing each piece. The scheduler layer
//! comes from a separate run of `prover::queue` at `threads` workers.
//!
//! Layer busy time is never taken from `InterfaceReport::elapsed` or from a
//! `ProofStats::elapsed` of a scheduled run: under splitting those add up
//! claim-to-verdict walls across threads (a 2 s run on 2 threads reports
//! about 5 s of busy time). Every `prover.*` time here comes from the t=1
//! traced pass, where one thread does all the work and spans cannot overlap.

use std::sync::Arc;
use std::time::{Duration, Instant};

use semcommute::core::inverse::verify_inverse;
use semcommute::core::template::testing_methods;
use semcommute::core::vcgen::generate_obligations;
use semcommute::core::verify::{scope_for, verify_catalog, verify_interface, VerifyOptions};
use semcommute::core::{interface_catalog, inverse_catalog, InterfaceReport};
use semcommute::prover::bytecode::LANES;
use semcommute::prover::queue::{self, ExitGuard, ScheduledObligation, DEFAULT_SPLIT_THRESHOLD};
use semcommute::prover::space::BlockBuf;
use semcommute::prover::structural::prove_structural;
use semcommute::prover::{
    FiniteModelProver, InputSpace, Obligation, Portfolio, ProofStats, Scope, Verdict, VerdictCache,
};
use semcommute::spec::InterfaceId;

use crate::report::{print_table, Metrics, Outcome};
use crate::stats::{median, peak_rss_mb, quantile};
use crate::trace::{out_dir, write_spans, SpanLog};
use crate::Config;

/// The ArrayList sequence scope of the paper's default run.
const SEQ_LEN: usize = 4;

/// What a full pass must report at the default scope with orbit reduction
/// on, as (methods, candidate models checked, candidates pruned): the
/// catalog's 1020 testing methods (two per distinct condition), and the
/// eight inverse methods of Table 5.10.
const CATALOG_WORK: (u64, u64, u64) = (1020, 4_799_689, 3_820_078);
const INVERSE_WORK: (u64, u64, u64) = (8, 2_799, 2_254);

/// Set-ups measured per run; their median is `setup_s`.
const SETUPS: usize = 15;
/// Catalog passes measured per run, at least.
const MIN_PASSES: usize = 3;

fn scope(interface: InterfaceId) -> Scope {
    scope_for(interface, SEQ_LEN)
        .with_orbit(true)
        .with_bytecode(true)
}

fn options(threads: usize) -> VerifyOptions {
    VerifyOptions {
        threads,
        seq_len: SEQ_LEN,
        limit: None,
        split_threshold: DEFAULT_SPLIT_THRESHOLD,
        orbit: true,
        bytecode: true,
    }
}

/// Verdict counters summed over a pass.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Counts {
    verdicts: u64,
    failed: u64,
    models: u64,
    pruned: u64,
    cache_hits: u64,
    batches: u64,
    fallback_lanes: u64,
    instrs: u64,
}

impl Counts {
    /// Counts one method verdict.
    fn verdict(&mut self, verdict: &Verdict) {
        self.verdicts += 1;
        self.failed += u64::from(!verdict.is_valid());
        self.stats(verdict.stats());
    }

    /// Adds one proof's work counters.
    fn stats(&mut self, stats: &ProofStats) {
        self.models += stats.models_checked;
        self.pruned += stats.orbits_pruned;
        self.cache_hits += stats.cache_hits;
        self.batches += stats.batches;
        self.fallback_lanes += stats.batch_fallbacks;
        self.instrs += stats.instrs_executed;
    }

    fn add(&mut self, other: &Counts) {
        self.verdicts += other.verdicts;
        self.failed += other.failed;
        self.models += other.models;
        self.pruned += other.pruned;
        self.cache_hits += other.cache_hits;
        self.batches += other.batches;
        self.fallback_lanes += other.fallback_lanes;
        self.instrs += other.instrs;
    }

    fn reports(&mut self, reports: &[InterfaceReport]) {
        for report in reports {
            for r in &report.reports {
                self.verdict(&r.soundness);
                self.verdict(&r.completeness);
            }
        }
    }
}

/// The correctness gate of a pass over `interfaces`: every verdict Valid,
/// and for the full catalog the paper's method counts and the pinned model
/// counts.
fn check(
    interfaces: &[InterfaceId],
    catalog: &Counts,
    inverses: &Counts,
    what: &str,
) -> Result<(), String> {
    if catalog.failed + inverses.failed != 0 {
        return Err(format!(
            "{what}: {} verdicts are not Valid",
            catalog.failed + inverses.failed
        ));
    }
    if interfaces == InterfaceId::ALL {
        for (part, counts, expected) in [
            ("catalog", catalog, CATALOG_WORK),
            ("inverses", inverses, INVERSE_WORK),
        ] {
            let got = (counts.verdicts, counts.models, counts.pruned);
            if got != expected {
                return Err(format!(
                    "{what}: {part} (methods, models checked, orbits pruned) = {got:?}, \
                     expected {expected:?}"
                ));
            }
        }
    }
    Ok(())
}

/// The inverse methods of `interfaces`' structures, each verified with its
/// own portfolio as `examples/verify_catalog.rs` does.
fn verify_inverses(interfaces: &[InterfaceId], counts: &mut Counts) {
    for inverse in inverse_catalog() {
        if interfaces.contains(&inverse.interface) {
            let verdict = verify_inverse(&inverse, &Portfolio::new(scope(inverse.interface)));
            counts.verdict(&verdict);
        }
    }
}

/// One untraced pass: the catalog of `interfaces` at `threads` workers,
/// then their inverses. Returns the pass's wall time and the catalog's and
/// the inverses' counters.
fn pass(interfaces: &[InterfaceId], threads: usize) -> (Duration, Counts, Counts) {
    let opts = options(threads);
    let start = Instant::now();
    let reports = if interfaces == InterfaceId::ALL {
        verify_catalog(&opts).interfaces
    } else {
        interfaces
            .iter()
            .map(|&i| verify_interface(i, &opts))
            .collect()
    };
    let mut catalog = Counts::default();
    catalog.reports(&reports);
    let mut inverses = Counts::default();
    verify_inverses(interfaces, &mut inverses);
    (start.elapsed(), catalog, inverses)
}

/// The obligations of `interfaces`' catalogs, per interface and per
/// testing method, generated the way `core::verify` generates them.
type Plan = Vec<(InterfaceId, Vec<Vec<Obligation>>)>;

fn plan(interfaces: &[InterfaceId]) -> Result<Plan, String> {
    let mut plan = Vec::new();
    for &interface in interfaces {
        let mut methods = Vec::new();
        for (id, condition) in interface_catalog(interface).iter().enumerate() {
            let (soundness, completeness) = testing_methods(condition, id);
            for method in [soundness, completeness] {
                methods.push(
                    generate_obligations(&method)
                        .map_err(|e| format!("vcgen failed for {}: {e}", condition.id()))?,
                );
            }
        }
        plan.push((interface, methods));
    }
    Ok(plan)
}

fn obligation_count(plan: &Plan) -> usize {
    plan.iter()
        .flat_map(|(_, methods)| methods)
        .map(Vec::len)
        .sum()
}

/// The `verify-catalog` workload, untraced: set-up is generating the
/// catalog's obligations (what a pass does before its first proof), then
/// catalog passes for at least `config.seconds`.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let all = InterfaceId::ALL;
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let start = Instant::now();
        let plan = plan(&all)?;
        setups.push(start.elapsed().as_secs_f64());
        std::hint::black_box(obligation_count(&plan));
    }

    // One warm-up pass, checked but not timed.
    let (_, catalog, inverses) = pass(&all, config.threads);
    check(&all, &catalog, &inverses, "warm-up pass")?;

    let mut walls = Vec::new();
    let mut outcome = Outcome::default();
    let mut measured = Duration::ZERO;
    while walls.len() < MIN_PASSES || measured.as_secs_f64() < config.seconds {
        let (wall, catalog, inverses) = pass(&all, config.threads);
        check(&all, &catalog, &inverses, "catalog pass")?;
        measured += wall;
        walls.push(wall.as_secs_f64());
        outcome.attempted += catalog.verdicts + inverses.verdicts;
        outcome.failed += catalog.failed + inverses.failed;
    }
    let rss = peak_rss_mb()?;
    let mut sorted = walls.clone();
    sorted.sort_by(f64::total_cmp);
    println!(
        "verify-catalog: {} passes at {} threads, catalog_wall_s median {:.4} s (min {:.4}, max {:.4})",
        walls.len(),
        config.threads,
        median(&walls),
        sorted[0],
        sorted[sorted.len() - 1]
    );
    println!(
        "  fail_ratio {} ({} of {} verdicts)",
        outcome.failed as f64 / outcome.attempted as f64,
        outcome.failed,
        outcome.attempted
    );
    let m = &mut outcome.metrics;
    m.set("setup_s", median(&setups));
    m.set("throughput_per_s", 1.0 / median(&walls));
    m.set(
        "latency_mean_us",
        1e6 * measured.as_secs_f64() / walls.len() as f64,
    );
    m.set("latency_p99_us", 1e6 * quantile(&sorted, 0.99));
    m.set("peak_rss_mb", rss);
    Ok(outcome)
}

/// Per-obligation layer times of the traced pass, in seconds.
#[derive(Debug, Default)]
struct LayerTimes {
    key: f64,
    structural: f64,
    compile: f64,
    search: f64,
    slowest: f64,
    structural_decided: u64,
    finite_decided: u64,
}

/// Proves one obligation the way `Portfolio::prove_keyed` does, timing each
/// piece. Returns the candidates checked when a finite-model search ran.
fn traced_prove(
    portfolio: &Portfolio,
    ob: &Obligation,
    request: u64,
    times: &mut LayerTimes,
    counts: &mut Counts,
    log: &mut SpanLog,
) -> Result<Option<u64>, String> {
    let keep = log.sampled(request);
    let t0 = Instant::now();
    let key = portfolio.canonical_key(ob);
    let cached = portfolio.cache().get(key);
    let t1 = Instant::now();
    times.key += (t1 - t0).as_secs_f64();
    if keep {
        log.record(request, "prover.portfolio.key", "core.obligation", t0, t1);
    }
    if let Some(verdict) = cached {
        counts.cache_hits += 1;
        if !verdict.is_valid() {
            counts.failed += 1;
        }
        return Ok(None);
    }
    let mut searched = None;
    let verdict = if let Some(stats) = prove_structural(ob) {
        let t2 = Instant::now();
        times.structural += (t2 - t1).as_secs_f64();
        times.structural_decided += 1;
        times.slowest = times.slowest.max((t2 - t0).as_secs_f64());
        if keep {
            log.record(request, "prover.structural", "core.obligation", t1, t2);
        }
        Verdict::Valid { stats }
    } else {
        let t2 = Instant::now();
        times.structural += (t2 - t1).as_secs_f64();
        let search = FiniteModelProver::new(portfolio.scope().clone())
            .begin(ob)
            .map_err(|v| format!("obligation {} not searchable: {v:?}", ob.name))?;
        let t3 = Instant::now();
        let verdict = search.run();
        let t4 = Instant::now();
        times.compile += (t3 - t2).as_secs_f64();
        times.search += (t4 - t3).as_secs_f64();
        times.finite_decided += 1;
        times.slowest = times.slowest.max((t4 - t0).as_secs_f64());
        if keep {
            log.record(request, "prover.structural", "core.obligation", t1, t2);
            log.record(request, "prover.finite.compile", "core.obligation", t2, t3);
            log.record(request, "prover.finite.search", "core.obligation", t3, t4);
        }
        searched = Some(verdict.stats().models_checked);
        verdict
    };
    counts.stats(verdict.stats());
    counts.failed += u64::from(!verdict.is_valid());
    portfolio.publish_keyed(key, &verdict);
    Ok(searched)
}

/// The enumeration-only pass: every searched obligation's input space
/// enumerated once more in blocks, evaluating nothing. Returns its seconds;
/// the candidate count must equal what the (Valid) search checked.
fn enumerate(searched: &[(InterfaceId, &Obligation, u64)]) -> Result<f64, String> {
    let mut seconds = 0.0;
    let mut block = BlockBuf::new();
    for (interface, ob, checked) in searched {
        let space = InputSpace::from_obligation(ob, scope(*interface));
        let start = Instant::now();
        let mut it = space.iter();
        let mut lanes = 0u64;
        loop {
            let n = it.next_block(LANES, &mut block);
            if n == 0 {
                break;
            }
            lanes += n as u64;
        }
        seconds += start.elapsed().as_secs_f64();
        if lanes != *checked {
            return Err(format!(
                "obligation {}: enumeration yields {lanes} candidates, the search checked {checked}",
                ob.name
            ));
        }
    }
    Ok(seconds)
}

/// Runs the plan through `prover::queue` at `threads` workers, one
/// portfolio per interface over one shared verdict cache, exactly as
/// `verify_catalog` submits it.
fn queue_run(plan: &Plan, threads: usize) -> Result<(f64, queue::QueueReport), String> {
    let cache = VerdictCache::new();
    let mut portfolios = Vec::new();
    let mut items = Vec::new();
    for (p, (interface, methods)) in plan.iter().enumerate() {
        portfolios.push(Portfolio::new(scope(*interface)).with_shared_cache(&cache));
        for method in methods {
            let guard = Arc::new(ExitGuard::new());
            for (index, ob) in method.iter().enumerate() {
                items.push(
                    ScheduledObligation::new(ob.clone())
                        .with_portfolio(p)
                        .with_guard(guard.clone(), index as u32),
                );
            }
        }
    }
    let start = Instant::now();
    let run =
        queue::prove_all_scheduled_split(&portfolios, items, threads, DEFAULT_SPLIT_THRESHOLD);
    let wall = start.elapsed().as_secs_f64();
    let invalid = run
        .verdicts
        .iter()
        .filter(|v| !v.as_ref().is_some_and(Verdict::is_valid))
        .count();
    if invalid != 0 {
        return Err(format!("queue run: {invalid} obligations not proved Valid"));
    }
    Ok((wall, run.report))
}

/// The verifier's per-layer metrics over `interfaces`. Returns the trace
/// overhead: traced t=1 wall over untraced t=1 wall.
pub fn layers(
    interfaces: &[InterfaceId],
    config: &Config,
    metrics: &mut Metrics,
) -> Result<f64, String> {
    let (untraced, untraced_counts, untraced_inverses) = pass(interfaces, 1);
    check(
        interfaces,
        &untraced_counts,
        &untraced_inverses,
        "untraced t=1 pass",
    )?;
    let untraced = untraced.as_secs_f64();

    let mut log = SpanLog::new(Instant::now(), "verifier");
    let mut times = LayerTimes::default();
    let mut counts = Counts::default();
    let start = Instant::now();
    let plan = plan(interfaces)?;
    let planned = Instant::now();
    let mut request = 0u64;
    let mut searched = Vec::new();
    for (interface, methods) in &plan {
        let portfolio = Portfolio::new(scope(*interface));
        for ob in methods.iter().flatten() {
            let t = Instant::now();
            if let Some(checked) =
                traced_prove(&portfolio, ob, request, &mut times, &mut counts, &mut log)?
            {
                searched.push((*interface, ob, checked));
            }
            if log.sampled(request) {
                log.record(request, "core.obligation", "core.pass", t, Instant::now());
            }
            request += 1;
        }
        counts.verdicts += methods.len() as u64;
    }
    let proved = Instant::now();
    let mut inverses = Counts::default();
    verify_inverses(interfaces, &mut inverses);
    let end = Instant::now();
    let wall = (end - start).as_secs_f64();
    let plan_s = (planned - start).as_secs_f64();
    let inverse_s = (end - proved).as_secs_f64();
    // The traced pass sees per-obligation cache hits where the untraced one
    // sees them folded into method verdicts; the work counters must agree.
    let same_work = |c: &Counts| (c.failed, c.models, c.pruned, c.batches, c.instrs);
    if same_work(&counts) != same_work(&untraced_counts) {
        return Err(format!(
            "traced pass did different work than the untraced one: {counts:?} vs {untraced_counts:?}"
        ));
    }
    check(interfaces, &counts, &inverses, "traced t=1 pass")?;
    let mut all = counts.clone();
    all.add(&inverses);

    let enumerate_s = enumerate(&searched)?;
    let (queue_wall, report) = queue_run(&plan, config.threads)?;
    let prove_s = times.key + times.structural + times.compile + times.search;

    let finite = times.compile + times.search;
    let eval = times.search - enumerate_s;
    let unattributed = wall - plan_s - prove_s - inverse_s;
    let m = metrics;
    m.set("core.plan_s", plan_s);
    m.set("core.obligations", obligation_count(&plan) as f64);
    m.set("core.inverse_s", inverse_s);
    m.set("core.t1_wall_s", untraced);
    m.set("core.unattributed_s", unattributed);
    m.set("prover.portfolio.key_s", times.key);
    m.set("prover.portfolio.cache_hits", counts.cache_hits as f64);
    m.set("prover.structural.decided", times.structural_decided as f64);
    m.set("prover.structural.s", times.structural);
    m.set("prover.finite.decided", times.finite_decided as f64);
    m.set("prover.finite.s", finite);
    m.set("prover.finite.compile_s", times.compile);
    m.set("prover.space.enum_s", enumerate_s);
    m.set("prover.bytecode.eval_s", eval);
    m.set("prover.finite.models_checked", all.models as f64);
    m.set("prover.orbit.pruned", all.pruned as f64);
    m.set("prover.bytecode.batches", all.batches as f64);
    m.set("prover.bytecode.fallback_lanes", all.fallback_lanes as f64);
    m.set(
        "prover.bytecode.batched_lane_ratio",
        1.0 - all.fallback_lanes as f64 / all.models.max(1) as f64,
    );
    m.set(
        "prover.bytecode.instrs_per_candidate",
        all.instrs as f64 / all.models.max(1) as f64,
    );
    m.set("prover.slowest_obligation_s", times.slowest);
    m.set("prover.queue.wall_s", queue_wall);
    m.set("prover.queue.steals", report.steals as f64);
    m.set("prover.queue.splits", report.splits as f64);
    m.set("prover.queue.subranges", report.subranges as f64);
    m.set(
        "prover.queue.max_obligation_wall_s",
        report.max_obligation_wall.as_secs_f64(),
    );
    m.set(
        "prover.queue.p99_obligation_wall_s",
        report.p99_obligation_wall.as_secs_f64(),
    );
    m.set(
        "prover.queue.parallel_efficiency",
        prove_s / (config.threads as f64 * queue_wall),
    );

    let names: Vec<String> = interfaces.iter().map(|i| i.to_string()).collect();
    print_table(
        &format!(
            "verifier layers, t=1 traced pass over {} ({} obligations)",
            names.join(", "),
            obligation_count(&plan)
        ),
        "s",
        wall,
        &[
            ("core.plan_s", plan_s),
            ("prover.portfolio.key_s", times.key),
            ("prover.structural.s", times.structural),
            ("prover.finite.compile_s", times.compile),
            ("prover.space.enum_s", enumerate_s),
            ("prover.bytecode.eval_s", eval),
            ("core.inverse_s", inverse_s),
            ("core.unattributed_s", unattributed),
        ],
    );
    println!(
        "  untraced t=1 wall {untraced:.4} s; queue at {} threads {queue_wall:.4} s",
        config.threads
    );
    write_spans(
        &out_dir()?.join(format!("perfbench-spans-verifier-{}.jsonl", config.seed)),
        &[log],
    )?;
    Ok(wall / untraced)
}
