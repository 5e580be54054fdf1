//! `--record-pins`: regenerates `data/pinned.txt`. The SAT backend gives
//! each (MII, II); the morph backend, an independent exact search over the
//! same candidate space, must agree wherever it finishes. Morph is skipped
//! on `hotspot` at 2x2 and 3x3, its documented small-mesh blind spot.

use crate::problems::SUITE_SIZES;
use satmapit_cgra::Cgra;
use satmapit_engine::{BackendKind, Engine, EngineConfig, Job};

/// The regenerated table, or the disagreements that make it untrustworthy.
pub fn record() -> Result<String, String> {
    let jobs: Vec<(String, u16, Job)> = satmapit_kernels::all()
        .into_iter()
        .flat_map(|k| {
            SUITE_SIZES.map(|size| {
                let job = Job::new(
                    format!("{}@{size}x{size}", k.name()),
                    k.dfg.clone(),
                    Cgra::square(size),
                );
                (k.name().to_string(), size, job)
            })
        })
        .collect();
    let sat =
        Engine::new(EngineConfig::default()).map_batch(jobs.iter().map(|j| j.2.clone()).collect());
    let cross: Vec<Job> = jobs
        .iter()
        .filter(|(name, size, _)| !(name == "hotspot" && *size < 4))
        .map(|j| j.2.clone())
        .collect();
    let morph = Engine::new(EngineConfig {
        backend: BackendKind::Morph,
        ..EngineConfig::default()
    })
    .map_batch(cross);
    let mut table = String::from(
        "# Pinned answers of the suite_batch jobs: kernel, mesh edge, MII, II.\n\
         # Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --record-pins\n",
    );
    let mut disagreements = Vec::new();
    for ((name, size, _), item) in jobs.iter().zip(&sat) {
        let Ok(mapped) = &item.outcome.outcome.result else {
            disagreements.push(format!("{}: the SAT backend did not map it", item.name));
            continue;
        };
        let check = match morph.iter().find(|m| m.name == item.name) {
            None => "not cross-checked",
            Some(m) if m.outcome.ii() == Some(mapped.ii()) => "morph agrees",
            Some(m) => {
                disagreements.push(format!(
                    "{}: SAT II {} but morph {:?}",
                    item.name,
                    mapped.ii(),
                    m.outcome.ii()
                ));
                "MORPH DISAGREES"
            }
        };
        table.push_str(&format!(
            "{name} {size} {} {}  # {check}\n",
            mapped.mii,
            mapped.ii()
        ));
    }
    if disagreements.is_empty() {
        Ok(table)
    } else {
        Err(disagreements.join("\n"))
    }
}
