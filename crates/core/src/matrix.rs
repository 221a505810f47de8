//! Multi-scenario matrix: one figure suite per scenario, diffed against
//! the first.
//!
//! `lockdown scenarios --matrix a.toml b.toml …` sweeps several scenario
//! specs. Each lane is a plain suite pass ([`suite::run_all_opts`]) on a
//! context that shares the base registry, corpus and generator config and
//! holds the lane's spec, so lane 0 of a matrix run is byte-identical to a
//! plain single-scenario pass under the same spec
//! (`tests/scenario_matrix.rs`). Lanes run one after another: sharing the
//! cell enumeration across lanes saved nothing measurable, because every
//! lane still generates its own flows.
//!
//! Archives compose per lane: with a base directory attached, each lane
//! spills to (or replays from) its own complete archive under a
//! [`scenario_subdir`], keyed like any suite archive by the lane's
//! [`Context::scenario_hash`], so a warm matrix re-run generates nothing
//! at all. Wire mode and chaos supervision do not compose with the matrix
//! — those axes exercise the collection plane, which is orthogonal to
//! scenario calibration.

use crate::context::Context;
use crate::experiments::suite::{self, Suite, SuiteOptions};
use lockdown_scenario::measures::ScenarioSpec;
use lockdown_store::{scenario_subdir, StoreError};
use std::path::PathBuf;
use std::sync::Arc;

/// One scenario lane of a matrix run.
pub struct MatrixScenario {
    /// Display label (scenario name, or the file stem it was loaded from).
    pub label: String,
    /// The scenario the lane interprets.
    pub spec: ScenarioSpec,
}

/// How to run a matrix: the archive is optional.
#[derive(Default)]
pub struct MatrixOptions {
    /// Base archive directory; each lane archives/replays under its own
    /// [`scenario_subdir`] of it.
    pub archive: Option<PathBuf>,
}

/// What a matrix run did, in distinct-cell terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixStats {
    /// Scenario lanes swept.
    pub scenarios: usize,
    /// Distinct cells in the suite plan (equal for every lane).
    pub cells: u64,
    /// Distinct cells generated — a cell counts once no matter how many
    /// lanes materialized it. Equal to a single scenario's
    /// `cells_generated` when any lane ran cold; zero on a fully warm
    /// run.
    pub cells_generated: u64,
    /// Distinct cells served entirely from lane archives.
    pub cells_replayed: u64,
    /// Flow records fanned out across all lanes.
    pub flows_emitted: u64,
    /// Worker threads each lane's pass used.
    pub workers: usize,
}

impl MatrixStats {
    /// One-line human-readable summary (the CLI prints this to stderr
    /// after a matrix run). Format is stable; `verify.sh` greps it.
    pub fn summary(&self) -> String {
        format!(
            "matrix: {} scenarios, {} cells generated once (shared pass), {} replayed, {} flows, {} workers",
            self.scenarios, self.cells_generated, self.cells_replayed, self.flows_emitted, self.workers,
        )
    }
}

/// One completed lane: the label, the spec's behavioural fingerprint and
/// the fully assembled figure suite.
pub struct ScenarioRun {
    /// The lane's display label.
    pub label: String,
    /// [`ScenarioSpec::fingerprint`] of the lane's spec.
    pub fingerprint: u64,
    /// Every figure and table, computed from this lane's flows. Its
    /// `stats` are the lane's own tallies (its cells, its flows).
    pub suite: Suite,
}

/// A completed matrix run: per-scenario suites plus the distinct-cell
/// accounting.
pub struct MatrixRun {
    /// One run per requested scenario, in request order. The first lane
    /// is the diff baseline.
    pub runs: Vec<ScenarioRun>,
    /// Distinct-cell statistics across the lanes.
    pub stats: MatrixStats,
}

impl MatrixRun {
    /// Per-scenario divergence from the first (baseline) lane: how many
    /// rendered sections differ, and across how many lines. Scenarios
    /// with the baseline's behavioural fingerprint are called out as
    /// identical instead of diffed.
    pub fn diff_report(&self) -> String {
        let Some(base) = self.runs.first() else {
            return String::new();
        };
        let base_sections = base.suite.renders();
        let mut out = format!("scenario diff vs '{}':\n", base.label);
        for run in &self.runs[1..] {
            if run.fingerprint == base.fingerprint {
                out.push_str(&format!(
                    "  {:<24} identical behavioural fingerprint\n",
                    run.label
                ));
                continue;
            }
            let sections = run.suite.renders();
            let mut sections_differ = 0usize;
            let mut lines_differ = 0usize;
            for (a, b) in base_sections.iter().zip(sections.iter()) {
                if a == b {
                    continue;
                }
                sections_differ += 1;
                let (la, lb): (Vec<_>, Vec<_>) = (a.lines().collect(), b.lines().collect());
                let shared = la.len().min(lb.len());
                lines_differ += (0..shared).filter(|&i| la[i] != lb[i]).count();
                lines_differ += la.len().max(lb.len()) - shared;
            }
            out.push_str(&format!(
                "  {:<24} {}/{} sections differ ({} lines)\n",
                run.label,
                sections_differ,
                base_sections.len(),
                lines_differ,
            ));
        }
        out
    }
}

/// Sweep `scenarios`, one full suite pass per lane, in request order.
/// See the module docs for semantics; archive I/O and corruption surface
/// as errors naming the offending lane file.
pub fn run_matrix(
    ctx: &Context,
    scenarios: Vec<MatrixScenario>,
    opts: MatrixOptions,
) -> Result<MatrixRun, StoreError> {
    assert!(!scenarios.is_empty(), "matrix needs at least one scenario");
    let mut runs = Vec::with_capacity(scenarios.len());
    for (i, sc) in scenarios.into_iter().enumerate() {
        let lane = Context {
            registry: ctx.registry.clone(),
            corpus: ctx.corpus.clone(),
            config: ctx.config,
            scenario: Arc::new(sc.spec),
        };
        let archive = opts
            .archive
            .as_ref()
            .map(|base| scenario_subdir(base, i, &sc.label));
        let suite = suite::run_all_opts(
            &lane,
            SuiteOptions {
                archive,
                ..SuiteOptions::default()
            },
        )?;
        runs.push(ScenarioRun {
            label: sc.label,
            fingerprint: lane.scenario.fingerprint(),
            suite,
        });
    }

    // Every lane runs the same plan and is either fully cold or fully
    // warm, so the most any lane generated is the distinct-cell count of
    // the matrix.
    let lane0 = &runs[0].suite.stats;
    let cells = lane0.cells_generated + lane0.cells_replayed;
    let cells_generated = runs
        .iter()
        .map(|r| r.suite.stats.cells_generated)
        .max()
        .unwrap_or(0);
    let stats = MatrixStats {
        scenarios: runs.len(),
        cells,
        cells_generated,
        cells_replayed: cells - cells_generated,
        flows_emitted: runs.iter().map(|r| r.suite.stats.flows_emitted).sum(),
        workers: lane0.workers,
    };
    Ok(MatrixRun { runs, stats })
}
