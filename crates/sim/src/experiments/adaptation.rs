//! F7 — dynamic partition adaptation over time.
//!
//! Reproduces claim C6: the dynamic controller minimizes the active cache
//! size, repartitioning the user/kernel segments each epoch and power-gating
//! unused ways. The table samples the allocation timeline of two
//! representative apps.

use moca_core::L2Design;

use crate::experiments::matrix::{Column, DesignMatrix, Needs};
use crate::experiments::{ClaimCheck, ExperimentResult};
use crate::table::Table;

/// Apps shown in the timeline table.
pub const TIMELINE_APPS: [&str; 2] = ["browser", "camera"];

/// Timeline samples shown per app.
const SAMPLES: usize = 12;

/// The matrix cells F7 reads: the timeline apps on the dynamic design.
pub fn needs() -> Needs {
    Needs {
        apps: TIMELINE_APPS.to_vec(),
        columns: vec![Column::plain(L2Design::dynamic_default())],
    }
}

/// Builds the result from a design matrix that planned F7.
pub fn from_matrix(m: &DesignMatrix) -> ExperimentResult {
    let mut table = Table::new(vec!["app", "time (ms)", "user ways", "kernel ways", "total"]);
    let mut mean_ways = Vec::new();
    let mut changes = Vec::new();
    for name in TIMELINE_APPS {
        let r = m.cell(name, L2Design::dynamic_default());
        mean_ways.push(r.mean_active_ways);
        changes.push(r.timeline.len().saturating_sub(1));
        let step = (r.timeline.len() / SAMPLES).max(1);
        for s in r.timeline.iter().step_by(step) {
            table.row(vec![
                name.to_string(),
                format!("{:.2}", s.cycle as f64 / (r.clock_ghz * 1e6)),
                s.user_ways.to_string(),
                s.kernel_ways.to_string(),
                (s.user_ways + s.kernel_ways).to_string(),
            ]);
        }
    }
    let mean = mean_ways.iter().sum::<f64>() / mean_ways.len() as f64;
    let total_changes: usize = changes.iter().sum();

    let claims = vec![
        ClaimCheck {
            claim: "C6",
            target: "dynamic design power-gates capacity (time-weighted mean < 16 ways)".into(),
            measured: format!("{mean:.1} mean active ways"),
            pass: mean < 16.0,
        },
        ClaimCheck {
            claim: "C6",
            target: "allocation actually adapts over time (> 3 repartitions)".into(),
            measured: format!("{total_changes} repartitions"),
            pass: total_changes > 3,
        },
    ];
    ExperimentResult {
        id: "F7",
        title: "Dynamic partition adaptation (active ways over time)",
        table: table.render(),
        summary: format!(
            "Starting from an even 8+8 split, the controller shrinks each segment to \
             the smallest allocation that preserves its hits and tracks phase changes; \
             the time-weighted mean is {mean:.1} active ways (of 16), with unused ways \
             power-gated."
        ),
        claims,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::Jobs;
    use crate::workloads::Scale;

    #[test]
    fn dynamic_adapts() {
        let m = DesignMatrix::plan(&["F7"], Scale::Quick, Jobs::available());
        let r = from_matrix(&m);
        assert!(r.passed(), "claims failed:\n{}", r.render());
        assert!(r.table.contains("browser"));
    }
}
