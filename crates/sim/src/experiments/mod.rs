//! The reproduced evaluation: one module per figure/table of `DESIGN.md`'s
//! experiment index.
//!
//! Every experiment returns an [`ExperimentResult`] containing the
//! rendered data table, a prose summary, and machine-checkable
//! [`ClaimCheck`]s against the paper's abstract-level claims (C1–C8 in
//! `DESIGN.md`). The `repro` binary runs them all and regenerates the
//! data behind `EXPERIMENTS.md`.

pub mod adaptation;
pub mod area;
pub mod behavior;
pub mod duty_cycle;
pub mod energy_table;
pub mod hybrid_study;
pub mod interference;
pub mod kernel_share;
pub mod matrix;
pub mod mrc_sweep;
pub mod multitask;
pub mod partition_style;
pub mod performance;
pub mod prefetch_study;
pub mod retention_sweep;
pub mod sensitivity;
pub mod static_sweep;
pub mod temperature;

use crate::parallel::Jobs;
use crate::workloads::Scale;

/// A paper claim checked against measured data.
#[derive(Debug, Clone)]
pub struct ClaimCheck {
    /// Claim id from `DESIGN.md` (e.g. `"C1"`).
    pub claim: &'static str,
    /// What the paper states / the reproduction targets.
    pub target: String,
    /// What this run measured.
    pub measured: String,
    /// Whether the measurement satisfies the target band.
    pub pass: bool,
}

impl std::fmt::Display for ClaimCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {}: target {}, measured {}",
            if self.pass { "PASS" } else { "FAIL" },
            self.claim,
            self.target,
            self.measured
        )
    }
}

/// Output of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment id from the `DESIGN.md` index (e.g. `"F1"`).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Rendered data table(s).
    pub table: String,
    /// One-paragraph interpretation.
    pub summary: String,
    /// Claim checks.
    pub claims: Vec<ClaimCheck>,
}

impl ExperimentResult {
    /// `true` when every claim check passed.
    pub fn passed(&self) -> bool {
        self.claims.iter().all(|c| c.pass)
    }

    /// Renders the full experiment block (title, table, summary, claims).
    pub fn render(&self) -> String {
        let mut out = format!(
            "## {} — {}\n\n{}\n{}\n",
            self.id, self.title, self.table, self.summary
        );
        for c in &self.claims {
            out.push_str(&format!("{c}\n"));
        }
        out.push('\n');
        out
    }
}

/// Ids of [`all`], in suite order.
const SUITE: [&str; 17] = [
    "F1", "F2", "F3", "F4", "F5", "T2", "F6", "F7", "F8", "A1", "A2", "A3", "A4", "A5", "A6", "A7",
    "M1",
];

/// A run of experiments that shares one [`matrix::DesignMatrix`].
///
/// The session is told up front which experiments it will run; the
/// first matrix consumer to run computes the union of the planned
/// consumers' cells, and every later consumer renders from the same
/// matrix. This is the one dispatch behind [`all`], [`by_id`], `repro`
/// and the daemon's `exp` requests.
#[derive(Debug)]
pub struct Session {
    scale: Scale,
    jobs: Jobs,
    planned: Vec<&'static str>,
    matrix: Option<matrix::DesignMatrix>,
}

impl Session {
    /// A session planning to run `ids` (unknown ids are ignored here
    /// and rejected by [`Session::run`]). Only the matrix consumers
    /// among `ids` contribute cells, so callers leave out ids they will
    /// not run (e.g. ones a checkpoint journal replays).
    pub fn new(ids: &[&str], scale: Scale, jobs: Jobs) -> Self {
        let planned = matrix::CONSUMERS
            .into_iter()
            .filter(|c| ids.iter().any(|id| id.eq_ignore_ascii_case(c)))
            .collect();
        Session {
            scale,
            jobs,
            planned,
            matrix: None,
        }
    }

    /// The shared matrix, computed on first use.
    ///
    /// # Panics
    ///
    /// Panics when consumer `id` was not planned: its cells would be
    /// missing from the matrix.
    fn matrix(&mut self, id: &'static str) -> &matrix::DesignMatrix {
        assert!(
            self.planned.contains(&id),
            "experiment {id} reads the design matrix but was not planned"
        );
        let (planned, scale, jobs) = (&self.planned, self.scale, self.jobs);
        self.matrix
            .get_or_insert_with(|| matrix::DesignMatrix::plan(planned, scale, jobs))
    }

    /// Runs one experiment by id (`"F1"`, `"T2"`, ...; any case), or
    /// returns `None` for an unknown id.
    pub fn run(&mut self, id: &str) -> Option<ExperimentResult> {
        let (scale, jobs) = (self.scale, self.jobs);
        Some(match id.to_ascii_uppercase().as_str() {
            "F1" => kernel_share::from_matrix(self.matrix("F1")),
            "F2" => interference::from_matrix(self.matrix("F2")),
            "F3" => static_sweep::run(scale, jobs),
            "F4" => behavior::from_matrix(self.matrix("F4")),
            "F5" => retention_sweep::run(scale, jobs),
            "T2" => energy_table::from_matrix(self.matrix("T2")),
            "F6" => performance::from_matrix(self.matrix("F6")),
            "F7" => adaptation::from_matrix(self.matrix("F7")),
            "F8" => sensitivity::run(scale, jobs),
            "A1" => area::run(scale, jobs),
            "A2" => partition_style::run(scale, jobs),
            "A3" => hybrid_study::run(scale, jobs),
            "A4" => duty_cycle::run(scale, jobs),
            "A5" => prefetch_study::run_experiment(scale, jobs),
            "A6" => temperature::run(scale, jobs),
            "A7" => multitask::run(scale, jobs),
            "M1" => mrc_sweep::run(scale, jobs),
            _ => return None,
        })
    }
}

/// Runs the complete experiment suite.
///
/// The matrix consumers (F1, F2, F4, T2, F6, F7) share one design
/// matrix, computed when F1 runs. Each experiment shards its
/// independent simulations over `jobs` threads; output is bit-identical
/// for every job count.
pub fn all(scale: Scale, jobs: Jobs) -> Vec<ExperimentResult> {
    let mut session = Session::new(&SUITE, scale, jobs);
    SUITE
        .iter()
        .map(|id| session.run(id).expect("suite ids are known"))
        .collect()
}

/// Looks up and runs a single experiment by id (`"F1"`, `"T2"`, ...).
///
/// A matrix consumer computes only its own cells. Returns `None` for an
/// unknown id.
pub fn by_id(id: &str, scale: Scale, jobs: Jobs) -> Option<ExperimentResult> {
    Session::new(&[id], scale, jobs).run(id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_check_display() {
        let c = ClaimCheck {
            claim: "C1",
            target: ">40%".into(),
            measured: "46%".into(),
            pass: true,
        };
        let s = c.to_string();
        assert!(s.contains("PASS") && s.contains("C1"));
    }

    #[test]
    fn experiment_result_render_and_pass() {
        let r = ExperimentResult {
            id: "F0",
            title: "smoke",
            table: "a b\n---\n1 2\n".into(),
            summary: "fine.".into(),
            claims: vec![ClaimCheck {
                claim: "C0",
                target: "t".into(),
                measured: "m".into(),
                pass: false,
            }],
        };
        assert!(!r.passed());
        let s = r.render();
        assert!(s.contains("## F0") && s.contains("FAIL"));
    }

    #[test]
    fn by_id_rejects_unknown() {
        assert!(by_id("F99", Scale::Quick, Jobs::SERIAL).is_none());
    }
}
