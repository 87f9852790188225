//! Named metrics, the result line, and the per-layer tables.

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_mean_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with their units.
pub const PER_LAYER: [(&str, &str); 59] = [
    // Context of the run.
    ("host_parallelism", "count"),
    ("threads", "count"),
    ("client.think_ns_per_iter", "ns"),
    // Verifier layers: the t=1 traced pass of per-obligation proofs.
    ("core.plan_s", "s"),
    ("core.obligations", "count"),
    ("core.inverse_s", "s"),
    ("core.t1_wall_s", "s"),
    ("core.unattributed_s", "s"),
    ("prover.portfolio.key_s", "s"),
    ("prover.portfolio.cache_hits", "count"),
    ("prover.structural.decided", "count"),
    ("prover.structural.s", "s"),
    ("prover.finite.decided", "count"),
    ("prover.finite.s", "s"),
    ("prover.finite.compile_s", "s"),
    ("prover.space.enum_s", "s"),
    ("prover.bytecode.eval_s", "s"),
    ("prover.finite.models_checked", "count"),
    ("prover.orbit.pruned", "count"),
    ("prover.bytecode.batches", "count"),
    ("prover.bytecode.fallback_lanes", "count"),
    ("prover.bytecode.batched_lane_ratio", "ratio"),
    ("prover.bytecode.instrs_per_candidate", "count"),
    ("prover.slowest_obligation_s", "s"),
    // Scheduler layer: the run at `threads` workers.
    ("prover.queue.wall_s", "s"),
    ("prover.queue.steals", "count"),
    ("prover.queue.splits", "count"),
    ("prover.queue.subranges", "count"),
    ("prover.queue.max_obligation_wall_s", "s"),
    ("prover.queue.p99_obligation_wall_s", "s"),
    ("prover.queue.parallel_efficiency", "ratio"),
    // Per-operation runtime layers.
    ("executor.txn_ns", "ns"),
    ("executor.begin_ns", "ns"),
    ("executor.execute_ns.p50", "ns"),
    ("executor.execute_ns.p99", "ns"),
    ("executor.commit_ns", "ns"),
    ("structure.concrete_ns", "ns"),
    ("structure.tracked_ns", "ns"),
    ("executor.unattributed_ns", "ns"),
    ("client.self_ns", "ns"),
    // Admission, rollback and contention layers.
    ("gatekeeper.check_ns", "ns"),
    ("index.pending_at_execute", "count"),
    ("executor.abort_ns", "ns"),
    ("executor.aborts", "count"),
    ("executor.conflicts", "count"),
    ("executor.abort_ratio", "ratio"),
    ("executor.useful_op_ratio", "ratio"),
    ("executor.retries_exhausted", "count"),
    ("contention.degraded_commits", "count"),
    ("contention.mode_switches", "count"),
    ("client.think_share", "ratio"),
    ("client.ops_per_txn", "count"),
    // Reference and overhead.
    ("runtime.txn_per_s", "1/s"),
    ("runtime.traced_txn_per_s", "1/s"),
    ("baseline.txn_per_s", "1/s"),
    ("baseline.speedup", "ratio"),
    ("baseline.p99_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("fail_ratio", "ratio"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Renders the declared metrics as the result's `metrics` object,
    /// refusing a missing or non-finite value.
    fn json(&self, declared: &[(&str, &str)]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(declared.len());
        for (name, unit) in declared {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", fields.join(", ")))
    }
}

/// One run's outcome: the counts of the result line plus its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Prints every declared metric by name with its unit, then the result
/// line (last on stdout).
pub fn print_result(outcome: &Outcome, traced: bool) -> Result<(), String> {
    let declared: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    println!();
    for (name, unit) in declared {
        if let Some(value) = outcome.metrics.get(name) {
            println!("  {name:<40} {value:>16.4} {unit}");
        }
    }
    let metrics = outcome.metrics.json(declared)?;
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.attempted, outcome.failed
    );
    Ok(())
}

/// Prints a layer table whose rows sum to `total`; the caller's last row
/// is the unattributed remainder.
pub fn print_table(title: &str, unit: &str, total: f64, rows: &[(&str, f64)]) {
    println!("\n{title}");
    for (name, value) in rows {
        println!(
            "  {name:<34} {value:>14.4} {unit}  {:>6.1}%",
            100.0 * value / total
        );
    }
    let sum: f64 = rows.iter().map(|(_, v)| v).sum();
    println!(
        "  {:<34} {sum:>14.4} {unit}  (end to end {total:.4} {unit})",
        "sum"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` name the same metrics
    /// with the same units.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let declared = spec.matches("\"name\"").count();
        // Workload entries carry names too.
        let workloads = spec.matches("\"why\"").count();
        assert_eq!(declared - workloads, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn json_refuses_missing_and_non_finite_values() {
        let mut m = Metrics::default();
        assert!(m.json(&[("a", "s")]).is_err());
        m.set("a", f64::NAN);
        assert!(m.json(&[("a", "s")]).is_err());
        m.set("a", 1.5);
        assert_eq!(
            m.json(&[("a", "s")]).unwrap(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}}"
        );
    }
}
