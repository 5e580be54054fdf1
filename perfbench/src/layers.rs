//! The per-layer metric set every traced run reports, in one place so the
//! three workloads print the same names (a layer idle on a workload reads
//! zero there).

use crate::replay::StageCounts;
use crate::report::Report;
use crate::trace::{self, Span};
use std::collections::BTreeMap;

pub const PER_LAYER: &[(&str, &str)] = &[
    ("schedule.prepare_us", "us"),
    ("schedule.kms_fold_us", "us"),
    ("schedule.kms_candidates", "count"),
    ("core.encode_us", "us"),
    ("core.cnf_vars", "count"),
    ("core.cnf_clauses", "count"),
    ("core.decode_validate_us", "us"),
    ("core.attempt_us", "us"),
    ("sat.load_us", "us"),
    ("sat.solve_us", "us"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.decisions", "count"),
    ("sat.rungs_unsat", "count"),
    ("sat.rungs_sat", "count"),
    ("regalloc.us", "us"),
    ("regalloc.failures", "count"),
    ("engine.tasks_started", "count"),
    ("engine.tasks_cancelled", "count"),
    ("engine.useful_frac", "ratio"),
    ("engine.busy_frac", "ratio"),
    ("engine.cache_hits", "count"),
    ("engine.cache_misses", "count"),
    ("persist.load_us", "us"),
    ("persist.records_loaded", "count"),
    ("persist.appends", "count"),
    ("persist.fsyncs", "count"),
    ("persist.compactions", "count"),
    ("persist.store_bytes", "bytes"),
    ("persist.bytes_per_record", "bytes"),
    ("persist.append_errors", "count"),
    ("service.queue_p50_us", "us"),
    ("service.queue_tail_us", "us"),
    ("service.solve_p50_us", "us"),
    ("service.solve_tail_us", "us"),
    ("service.shed", "count"),
    ("service.rejected", "count"),
    ("net.overhead_p50_us", "us"),
    ("net.overhead_tail_us", "us"),
    ("gen.lag_tail_us", "us"),
    ("check.verify_us", "us"),
    ("self.schedule_us", "us"),
    ("self.core_us", "us"),
    ("self.sat_us", "us"),
    ("self.regalloc_us", "us"),
    ("self.engine_us", "us"),
    ("self.persist_us", "us"),
    ("self.service_us", "us"),
    ("self.net_us", "us"),
    ("self.gen_us", "us"),
    ("self.check_us", "us"),
    ("self.unattributed_us", "us"),
    ("trace.wall_us", "us"),
    ("trace.overhead_us", "us"),
];

/// Per-layer values gathered by one traced run.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn add_counts(&mut self, c: &StageCounts) {
        self.set("schedule.kms_candidates", c.kms_candidates as f64);
        self.set("core.cnf_vars", c.cnf_vars as f64);
        self.set("core.cnf_clauses", c.cnf_clauses as f64);
        self.set("sat.conflicts", c.conflicts as f64);
        self.set("sat.propagations", c.propagations as f64);
        self.set("sat.decisions", c.decisions as f64);
        self.set("sat.rungs_unsat", c.rungs_unsat as f64);
        self.set("sat.rungs_sat", c.rungs_sat as f64);
        self.set("regalloc.failures", c.regalloc_failures as f64);
    }

    /// Span-time sums per stage and self time per layer. The self times
    /// plus `unattributed` add up to `trace.wall_us`.
    pub fn add_spans(&mut self, spans: &[Span]) {
        let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
        for s in spans {
            *by_name.entry(s.name).or_insert(0.0) +=
                s.end.duration_since(s.start).as_secs_f64() * 1e6;
        }
        let stage = |n: &str| by_name.get(n).copied().unwrap_or(0.0);
        self.set("schedule.prepare_us", stage("schedule.prepare"));
        self.set("schedule.kms_fold_us", stage("schedule.kms_fold"));
        self.set("core.encode_us", stage("core.encode"));
        self.set("core.decode_validate_us", stage("core.decode_validate"));
        self.set("core.attempt_us", stage("core.attempt"));
        self.set("sat.load_us", stage("sat.load"));
        self.set("sat.solve_us", stage("sat.solve"));
        self.set("regalloc.us", stage("regalloc.allocate"));
        self.set("check.verify_us", stage("check.verify"));
        self.set("persist.load_us", stage("persist.load"));
        let (selfs, wall) = trace::self_times(spans);
        for (layer, value) in selfs {
            let name = match layer {
                "schedule" => "self.schedule_us",
                "core" => "self.core_us",
                "sat" => "self.sat_us",
                "regalloc" => "self.regalloc_us",
                "engine" => "self.engine_us",
                "persist" => "self.persist_us",
                "service" => "self.service_us",
                "net" => "self.net_us",
                "gen" => "self.gen_us",
                "check" => "self.check_us",
                trace::UNATTRIBUTED => "self.unattributed_us",
                other => panic!("span layer {other} has no self-time metric"),
            };
            self.set(name, value);
        }
        self.set("trace.wall_us", wall);
    }

    pub fn emit(&self, report: &mut Report) {
        let self_sum: f64 = PER_LAYER
            .iter()
            .filter(|(n, _)| n.starts_with("self."))
            .map(|(n, _)| self.0.get(n).copied().unwrap_or(0.0))
            .sum();
        let wall = self.0.get("trace.wall_us").copied().unwrap_or(0.0);
        report.note(format!(
            "self times + unattributed = {self_sum:.1} us, traced wall = {wall:.1} us"
        ));
        for (name, unit) in PER_LAYER {
            let value = self.0.get(name).copied().unwrap_or(0.0);
            report.layer(name, value, unit);
        }
    }
}
