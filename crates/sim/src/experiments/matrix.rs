//! The shared design matrix: the cells of every experiment that runs a
//! few designs over the suite's `(app, EXPERIMENT_SEED, Scale::refs())`
//! traces.
//!
//! F1, F2, F4, T2, F6 and F7 each read a handful of (app, design) cells
//! of the same traces — per app only five distinct designs between
//! them. Each of those experiments declares what it reads as a [`Needs`]
//! (its apps and its [`Column`]s) and renders from a [`DesignMatrix`].
//! The matrix computes the union of the planned consumers' cells as one
//! [`LockStep`] lane group per app, so every app's trace is generated
//! and L1-filtered once however many columns read it; apps shard over
//! `jobs` and merge back in suite order, so the matrix is bit-identical
//! for every job count.
//!
//! Each trace identity is read exactly once, so the lane groups are
//! declared [read-once](LockStep): their front ends bypass the
//! filtered-chunk memo ([`crate::memo`]), whose room is kept for the
//! streams later runs do re-read.

use moca_core::L2Design;
use moca_trace::AppProfile;

use crate::experiments::{
    adaptation, behavior, energy_table, interference, kernel_share, performance,
};
use crate::lockstep::LockStep;
use crate::metrics::SimReport;
use crate::parallel::{parallel_map, Jobs};
use crate::workloads::{Scale, EXPERIMENT_SEED};

/// Ids of the experiments that render from the matrix, in suite order.
pub const CONSUMERS: [&str; 6] = ["F1", "F2", "F4", "T2", "F6", "F7"];

/// One matrix column: a design, and whether its lane carries the
/// segment-behaviour probe.
///
/// The probe only observes L2 state, so a probed lane also serves
/// readers of the unprobed column: its report differs only in
/// `behavior`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Column {
    /// The L2 design simulated in this column.
    pub design: L2Design,
    /// `true` when the lane records segment behaviour.
    pub probe: bool,
}

impl Column {
    /// An unprobed column.
    pub fn plain(design: L2Design) -> Self {
        Column {
            design,
            probe: false,
        }
    }

    /// A column whose lane carries the behaviour probe.
    pub fn probed(design: L2Design) -> Self {
        Column {
            design,
            probe: true,
        }
    }
}

/// The cells one consumer reads: its apps, in the order it renders
/// them, times its columns.
#[derive(Debug, Clone)]
pub struct Needs {
    /// App names.
    pub apps: Vec<&'static str>,
    /// Columns read for every app.
    pub columns: Vec<Column>,
}

impl Needs {
    /// `columns` over every app of the suite.
    pub fn suite(columns: Vec<Column>) -> Self {
        Needs {
            apps: AppProfile::suite().iter().map(|a| a.name).collect(),
            columns,
        }
    }
}

/// The cells consumer `id` reads, or `None` when `id` does not render
/// from the matrix.
pub fn needs(id: &str) -> Option<Needs> {
    match id {
        "F1" => Some(kernel_share::needs()),
        "F2" => Some(interference::needs()),
        "F4" => Some(behavior::needs()),
        "T2" => Some(energy_table::needs()),
        "F6" => Some(performance::needs()),
        "F7" => Some(adaptation::needs()),
        _ => None,
    }
}

/// The four headline designs of the reproduced evaluation, in table
/// order: baseline, static SRAM partition, static multi-retention
/// STT-RAM, dynamic STT-RAM.
pub fn headline_designs() -> Vec<L2Design> {
    vec![
        L2Design::baseline(),
        L2Design::StaticSram {
            user_ways: 6,
            kernel_ways: 4,
        },
        L2Design::static_default(),
        L2Design::dynamic_default(),
    ]
}

/// One app's row: its columns and their reports, in lane order.
#[derive(Debug, Clone)]
struct Row {
    app: &'static str,
    cells: Vec<(Column, SimReport)>,
}

/// The computed cells of a set of consumers.
#[derive(Debug, Clone)]
pub struct DesignMatrix {
    /// Rows in suite order; only apps some consumer reads.
    rows: Vec<Row>,
}

impl DesignMatrix {
    /// Computes the union of the cells the consumers among `ids` read
    /// (ids that are not consumers are ignored) at `scale`, one lane
    /// group per app, sharding the apps over `jobs` threads.
    pub fn plan(ids: &[&str], scale: Scale, jobs: Jobs) -> Self {
        let wanted: Vec<Needs> = ids.iter().filter_map(|id| needs(id)).collect();
        let rows: Vec<(AppProfile, Vec<Column>)> = AppProfile::suite()
            .into_iter()
            .filter_map(|app| {
                let mut columns: Vec<Column> = Vec::new();
                for n in wanted.iter().filter(|n| n.apps.contains(&app.name)) {
                    for c in &n.columns {
                        match columns.iter_mut().find(|have| have.design == c.design) {
                            Some(have) => have.probe |= c.probe,
                            None => columns.push(*c),
                        }
                    }
                }
                (!columns.is_empty()).then_some((app, columns))
            })
            .collect();
        let rows = parallel_map(jobs, rows, |(app, columns)| {
            let designs: Vec<L2Design> = columns.iter().map(|c| c.design).collect();
            let probed: Vec<usize> = (0..columns.len()).filter(|&i| columns[i].probe).collect();
            let reports = LockStep::new(&app, EXPERIMENT_SEED)
                .read_once()
                .with_behavior_probes(&probed)
                .run(&designs, scale.refs());
            Row {
                app: app.name,
                cells: columns.into_iter().zip(reports).collect(),
            }
        });
        DesignMatrix { rows }
    }

    /// Every computed cell as `(app, column, report)`, in row then lane
    /// order.
    pub fn cells(&self) -> impl Iterator<Item = (&str, Column, &SimReport)> {
        self.rows
            .iter()
            .flat_map(|row| row.cells.iter().map(move |(c, r)| (row.app, *c, r)))
    }

    /// The report of `column` on `app`; an unprobed column is also
    /// served by a probed lane of the same design.
    fn lookup(&self, app: &str, column: Column) -> Option<&SimReport> {
        self.cells()
            .find(|(a, have, _)| {
                *a == app && have.design == column.design && (have.probe || !column.probe)
            })
            .map(|(_, _, r)| r)
    }

    fn find(&self, app: &str, column: Column) -> &SimReport {
        self.lookup(app, column).unwrap_or_else(|| {
            panic!("design matrix has no cell ({app}, {column:?}): its consumer must declare it")
        })
    }

    /// The report of `design` on `app`, from a probed or unprobed lane.
    ///
    /// # Panics
    ///
    /// Panics when no planned consumer declared the cell.
    pub fn cell(&self, app: &str, design: L2Design) -> &SimReport {
        self.find(app, Column::plain(design))
    }

    /// The report of `design` on `app` from a behaviour-probed lane.
    ///
    /// # Panics
    ///
    /// Panics when no planned consumer declared the probed cell.
    pub fn probed(&self, app: &str, design: L2Design) -> &SimReport {
        self.find(app, Column::probed(design))
    }

    /// The T2/F6 view: every suite app on every headline design.
    ///
    /// # Panics
    ///
    /// Panics when T2 or F6 was not planned.
    pub fn headline(&self) -> Headline<'_> {
        let designs = headline_designs();
        let rows = AppProfile::suite()
            .iter()
            .map(|app| designs.iter().map(|d| self.cell(app.name, *d)).collect())
            .collect();
        Headline { designs, rows }
    }
}

/// All suite apps × all headline designs, borrowed from a
/// [`DesignMatrix`].
#[derive(Debug, Clone)]
pub struct Headline<'m> {
    /// The designs, in column order (`designs[0]` is the baseline).
    pub designs: Vec<L2Design>,
    /// `rows[app][design]` simulation reports.
    pub rows: Vec<Vec<&'m SimReport>>,
}

impl Headline<'_> {
    /// Mean over apps of `f(report, baseline)` for design column `d`.
    pub fn mean_over_apps<F>(&self, d: usize, f: F) -> f64
    where
        F: Fn(&SimReport, &SimReport) -> f64,
    {
        let n = self.rows.len() as f64;
        self.rows.iter().map(|r| f(r[d], r[0])).sum::<f64>() / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::run_app;

    #[test]
    fn headline_designs_start_with_baseline() {
        let d = headline_designs();
        assert_eq!(d.len(), 4);
        assert_eq!(d[0], L2Design::baseline());
    }

    #[test]
    fn every_consumer_declares_its_cells() {
        for id in CONSUMERS {
            let n = needs(id).expect("consumer declares needs");
            assert!(!n.apps.is_empty() && !n.columns.is_empty(), "{id}");
        }
        assert!(needs("F3").is_none());
    }

    #[test]
    fn plan_computes_only_the_declared_cells() {
        let m = DesignMatrix::plan(&["F7"], Scale::Smoke, Jobs::SERIAL);
        let cells: Vec<(&str, Column)> = m.cells().map(|(a, c, _)| (a, c)).collect();
        assert_eq!(
            cells,
            vec![
                ("browser", Column::plain(L2Design::dynamic_default())),
                ("camera", Column::plain(L2Design::dynamic_default())),
            ]
        );
    }

    #[test]
    fn shared_designs_merge_into_one_lane_and_keep_the_probe() {
        let m = DesignMatrix::plan(&["T2", "F4"], Scale::Smoke, Jobs::SERIAL);
        let row: Vec<Column> = m
            .cells()
            .filter(|(a, _, _)| *a == "music")
            .map(|(_, c, _)| c)
            .collect();
        assert_eq!(row.len(), 4, "F4's design is T2's second column");
        assert_eq!(row.iter().filter(|c| c.probe).count(), 1);
        let partition = headline_designs()[1];
        let probed = m.probed("music", partition);
        assert!(probed.behavior[0].reuse.total() > 0);
        let solo = run_app(
            &AppProfile::music(),
            partition,
            Scale::Smoke.refs(),
            EXPERIMENT_SEED,
        );
        assert_eq!(probed.cycles, solo.cycles);
        assert_eq!(m.headline().rows.len(), 10);
    }

    #[test]
    #[should_panic(expected = "design matrix has no cell")]
    fn undeclared_cells_are_a_bug() {
        let m = DesignMatrix::plan(&["F7"], Scale::Smoke, Jobs::SERIAL);
        m.cell("music", L2Design::baseline());
    }
}
