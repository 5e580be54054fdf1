//! Stage split of a solved problem, measured from outside the program:
//! each definitive rung is replayed through the public stage functions in
//! the order `PreparedMapper::attempt_ii` calls them, one span per call.
//! A rung that needed a register-allocation cut (the cut clause is
//! crate-private) is timed whole through `attempt_ii` as `core.attempt`.

use crate::trace::{SpanId, Tracer};
use satmapit_cgra::Cgra;
use satmapit_core::encoder::{encode_with_options, EncodeOptions};
use satmapit_core::{allocate_registers, decode_model, validate_mapping, Mapper, MapperConfig};
use satmapit_dfg::Dfg;
use satmapit_sat::{SolveLimits, SolveResult, Solver};
use satmapit_schedule::{Kms, MobilitySchedule};

/// Work counters summed over replayed rungs. Every field is a pure
/// function of the replayed problems, so it repeats exactly across runs
/// and seeds.
#[derive(Debug, Default, Clone)]
pub struct StageCounts {
    pub kms_candidates: u64,
    pub cnf_vars: u64,
    pub cnf_clauses: u64,
    pub conflicts: u64,
    pub propagations: u64,
    pub decisions: u64,
    pub rungs_sat: u64,
    pub rungs_unsat: u64,
    pub regalloc_failures: u64,
}

/// One rung to replay: the candidate II and whether the engine is known
/// to have needed register-allocation cuts there (an unknown cut shows as
/// a failed allocation during the replay and is handled then).
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    pub ii: u32,
    pub cut: bool,
}

/// Replays `rungs` of one problem under the default mapper configuration,
/// as children of `parent`. Returns the achieved II of the last rung that
/// mapped, for cross-checking against the program's answer.
pub fn replay(
    tracer: &Tracer,
    parent: Option<SpanId>,
    req: u64,
    dfg: &Dfg,
    cgra: &Cgra,
    rungs: &[Rung],
    counts: &mut StageCounts,
) -> Option<u32> {
    let config = MapperConfig::default();
    let mapper = Mapper::new(dfg, cgra).with_config(config.clone());
    let prepared = tracer.time("schedule.prepare", "schedule", parent, req, || {
        mapper.prepare()
    });
    let prepared = prepared.expect("a pinned suite problem prepares");
    let ms = tracer.time("schedule.mobility", "schedule", parent, req, || {
        MobilitySchedule::compute(dfg).expect("validated by prepare")
    });
    let options = EncodeOptions {
        amo: config.amo,
        register_pressure: config.register_pressure,
    };
    let mut mapped_ii = None;
    for rung in rungs {
        let ii = rung.ii;
        if rung.cut {
            let report = tracer.time("core.attempt", "core", parent, req, || {
                prepared.attempt_ii(ii, &SolveLimits::none())
            });
            if report.is_ok_and(|r| r.mapped.is_some()) {
                counts.rungs_sat += 1;
                mapped_ii = Some(ii);
            } else {
                counts.rungs_unsat += 1;
            }
            continue;
        }
        let kms = tracer.time("schedule.kms_fold", "schedule", parent, req, || {
            Kms::build_with_slack(&ms, ii, config.slack.slack(ii))
        });
        counts.kms_candidates += kms.num_candidates() as u64;
        let enc = tracer.time("core.encode", "core", parent, req, || {
            encode_with_options(dfg, cgra, &kms, options)
        });
        let enc = enc.expect("a pinned suite problem encodes");
        counts.cnf_vars += enc.stats.total_vars as u64;
        counts.cnf_clauses += enc.stats.clauses as u64;
        let mut solver = tracer.time("sat.load", "sat", parent, req, || {
            Solver::from_cnf_with(&enc.formula, &config.solver)
        });
        let result = tracer.time("sat.solve", "sat", parent, req, || {
            solver.solve_limited(&[], &SolveLimits::none())
        });
        let stats = solver.stats();
        counts.conflicts += stats.conflicts;
        counts.propagations += stats.propagations;
        counts.decisions += stats.decisions;
        if result != SolveResult::Sat {
            counts.rungs_unsat += 1;
            continue;
        }
        counts.rungs_sat += 1;
        let model = solver.model().expect("SAT result has a model");
        let mapping = tracer.time("core.decode_validate", "core", parent, req, || {
            let mapping = decode_model(dfg, &kms, &enc.varmap, model).expect("model decodes");
            validate_mapping(dfg, cgra, &mapping).map(|()| mapping)
        });
        let mapping = mapping.expect("decoded mapping validates");
        let allocated = tracer.time("regalloc.allocate", "regalloc", parent, req, || {
            allocate_registers(dfg, cgra, &mapping, config.regalloc_budget)
        });
        if allocated.is_ok() {
            mapped_ii = Some(ii);
        } else {
            // The engine resolved this rung with cuts the replay cannot
            // add; time the whole attempt as the engine ran it.
            counts.regalloc_failures += 1;
            let report = tracer.time("core.attempt", "core", parent, req, || {
                prepared.attempt_ii(ii, &SolveLimits::none())
            });
            if report.is_ok_and(|r| r.mapped.is_some()) {
                mapped_ii = Some(ii);
            }
        }
    }
    mapped_ii
}
