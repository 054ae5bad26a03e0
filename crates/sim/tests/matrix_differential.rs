//! The shared design matrix against the scalar oracle.
//!
//! F1, F2, F4, T2, F6 and F7 render from one [`DesignMatrix`] that runs
//! each app's columns as one lock-step lane group. This suite pins that
//! sharing to the per-design reference path:
//!
//! * every (app, column) cell is Debug-identical to
//!   [`run_app`] (to [`run_app_with_behavior`] for the probed lane) at
//!   every job count;
//! * a probed report equals the unprobed one in every field except
//!   `behavior`;
//! * every consumer renders the same bytes alone ([`by_id`]) as inside
//!   the full suite ([`all`]), where it shares the matrix with the
//!   others.

use moca_sim::experiments::matrix::{DesignMatrix, CONSUMERS};
use moca_sim::experiments::{all, by_id};
use moca_sim::parallel::Jobs;
use moca_sim::workloads::{run_app, run_app_with_behavior, Scale, EXPERIMENT_SEED};
use moca_trace::AppProfile;

const SCALE: Scale = Scale::Smoke;

#[test]
fn every_cell_matches_the_scalar_oracle_at_every_job_count() {
    let oracle: Vec<(String, String)> = DesignMatrix::plan(&CONSUMERS, SCALE, Jobs::SERIAL)
        .cells()
        .map(|(app, column, _)| {
            let profile = AppProfile::by_name(app).expect("suite app");
            let run = if column.probe {
                run_app_with_behavior
            } else {
                run_app
            };
            let report = run(&profile, column.design, SCALE.refs(), EXPERIMENT_SEED);
            (format!("{app} {column:?}"), format!("{report:?}"))
        })
        .collect();
    // Five distinct designs per suite app: the union of the consumers.
    assert_eq!(oracle.len(), 50);
    for jobs in [1, 2, 8] {
        let m = DesignMatrix::plan(&CONSUMERS, SCALE, Jobs::new(jobs));
        let got: Vec<(String, String)> = m
            .cells()
            .map(|(app, column, report)| (format!("{app} {column:?}"), format!("{report:?}")))
            .collect();
        assert_eq!(got.len(), oracle.len(), "jobs = {jobs}");
        for (g, want) in got.iter().zip(&oracle) {
            assert_eq!(g, want, "jobs = {jobs}");
        }
    }
}

#[test]
fn probed_report_differs_from_the_unprobed_one_only_in_behavior() {
    let m = DesignMatrix::plan(&["F4"], SCALE, Jobs::new(2));
    let mut probed_cells = 0;
    for (app, column, probed) in m.cells() {
        assert!(column.probe, "F4 reads only probed cells");
        let profile = AppProfile::by_name(app).expect("suite app");
        let mut plain = run_app(&profile, column.design, SCALE.refs(), EXPERIMENT_SEED);
        assert_ne!(
            format!("{:?}", plain.behavior),
            format!("{:?}", probed.behavior),
            "{app}: the probe must record behaviour"
        );
        plain.behavior = probed.behavior.clone();
        assert_eq!(format!("{plain:?}"), format!("{probed:?}"), "{app}");
        probed_cells += 1;
    }
    assert_eq!(probed_cells, 10);
}

#[test]
fn each_consumer_renders_alone_as_it_does_in_the_suite() {
    let suite = all(SCALE, Jobs::new(2));
    for id in CONSUMERS {
        let block = suite
            .iter()
            .find(|r| r.id == id)
            .expect("consumer is in the suite")
            .render();
        for jobs in [1, 8] {
            let alone = by_id(id, SCALE, Jobs::new(jobs))
                .expect("known id")
                .render();
            assert_eq!(alone, block, "{id} at jobs = {jobs}");
        }
    }
}
