//! Figure assembly from externally fetched cells — the serving path.
//!
//! The suite ([`crate::experiments::suite`]) runs every figure in one
//! engine pass over generated (or archive-replayed) cells. A query
//! plane serving `GET /figures/<name>` needs the opposite shape: *one*
//! figure, assembled on demand, from cells fetched through whatever
//! read layer the caller owns (a predicate-pushdown scan with a decoded
//! -segment cache, in the CLI's case). [`render_figure`] does exactly
//! that: it builds the named figure's standalone plan — the same plan
//! the suite registers, same subscriptions, same consumer factories —
//! enumerates its deduplicated cells, feeds each fetched batch to every
//! covering subscription, and finishes the figure through the identical
//! consumer machinery. Because generation and replay are byte-identical
//! (the store's contract) and consumer merging is order-independent
//! (the engine's contract), the rendering is byte-identical to the
//! corresponding [`Suite::renders`] section.
//!
//! [`Suite::renders`]: crate::experiments::suite::Suite::renders

use crate::context::Context;
use crate::engine::{EngineOutput, EnginePlan, EngineStats};
use crate::experiments::{
    fig1, fig10, fig11_12, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, sec3_4, sec9, tables,
};
use lockdown_flow::record::FlowRecord;
use lockdown_store::StoreError;
use lockdown_topology::vantage::VantagePoint;
use lockdown_traffic::plan::Cell;
use std::fmt;
use std::sync::Arc;

/// Why a figure could not be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The name is not in [`figure_names`].
    UnknownFigure(String),
    /// A cell fetch failed (missing coverage, I/O, corruption). The
    /// store error names the offending segment, so callers can degrade
    /// per supervisor conventions: report it, keep serving the rest.
    Store(StoreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownFigure(name) => write!(f, "unknown figure '{name}'"),
            ServeError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> ServeError {
        ServeError::Store(e)
    }
}

/// The cell source a figure is assembled from.
pub type Fetch<'a> = dyn FnMut(Cell) -> Result<Arc<Vec<FlowRecord>>, StoreError> + 'a;

/// Every servable figure/table name, in [`Suite::renders`] print order —
/// reassembling all of them in order reproduces the suite stdout.
///
/// [`Suite::renders`]: crate::experiments::suite::Suite::renders
pub fn figure_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "table2", "table1", "fig1", "fig2a", "fig2b", "fig2c", "fig3a", "fig3b", "fig4", "fig5",
        "fig6", "sec3.4", "fig7a", "fig7b", "fig8",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    names.extend(
        VantagePoint::CORE_FOUR
            .into_iter()
            .map(|vp| format!("fig9:{}", vp.label())),
    );
    names.extend(["fig10", "fig11-12", "sec9"].into_iter().map(String::from));
    names
}

/// Run one figure's standalone plan against fetched cells: build the
/// plan, pull every distinct cell once, fan each batch to the covering
/// subscriptions, and hand back the redeemable output.
fn assemble<T>(
    fetch: &mut Fetch<'_>,
    build: impl FnOnce(&mut EnginePlan) -> T,
) -> Result<(T, EngineOutput), StoreError> {
    let mut plan = EnginePlan::new();
    let plans = build(&mut plan);
    let (trace, subs) = plan.into_trace_and_subs();
    let mut stats = EngineStats {
        demands: subs.len(),
        cells_demanded: trace.cells_demanded(),
        cells_generated: 0,
        cells_replayed: 0,
        cells_resumed: 0,
        cells_quarantined: 0,
        retries: 0,
        flows_emitted: 0,
        workers: 1,
    };
    let mut consumers: Vec<_> = subs.iter().map(|s| s.build()).collect();
    for cell in trace.cells() {
        let records = fetch(cell)?;
        stats.cells_replayed += 1;
        stats.flows_emitted += records.len() as u64;
        for (sub, consumer) in subs.iter().zip(consumers.iter_mut()) {
            if sub.covers(cell) {
                consumer.observe_batch(&records);
            }
        }
    }
    Ok((plans, EngineOutput::from_consumers(consumers, stats)))
}

/// Render one figure (by [`figure_names`] name) from fetched cells,
/// byte-identical to the corresponding suite section.
pub fn render_figure(
    ctx: &Context,
    name: &str,
    fetch: &mut Fetch<'_>,
) -> Result<String, ServeError> {
    match name {
        // The tables need no trace: Table 2 is static, Table 1 is
        // registry-derived.
        "table2" => return Ok(tables::table2()),
        "table1" => return Ok(tables::table1(ctx).render()),
        _ => {}
    }
    if let Some(label) = name.strip_prefix("fig9:") {
        let vp = VantagePoint::CORE_FOUR
            .into_iter()
            .find(|vp| vp.label() == label)
            .ok_or_else(|| ServeError::UnknownFigure(name.to_string()))?;
        let (p, mut out) = assemble(fetch, |pl| fig9::plan(pl, &ctx.registry, vp))?;
        return Ok(fig9::finish(p, &mut out).render());
    }
    Ok(match name {
        "fig1" => {
            let (p, mut out) = assemble(fetch, fig1::plan)?;
            fig1::finish(p, &mut out).render()
        }
        "fig2a" => {
            let (p, mut out) = assemble(fetch, fig2::plan_2a)?;
            fig2::finish_2a(p, &mut out).render()
        }
        "fig2b" => {
            let (p, mut out) = assemble(fetch, |pl| fig2::plan_2bc(pl, VantagePoint::IspCe))?;
            fig2::finish_2bc(p, &mut out).render()
        }
        "fig2c" => {
            let (p, mut out) = assemble(fetch, |pl| fig2::plan_2bc(pl, VantagePoint::IxpCe))?;
            fig2::finish_2bc(p, &mut out).render()
        }
        "fig3a" => {
            let (p, mut out) = assemble(fetch, fig3::plan_3a)?;
            fig3::finish_3a(p, &mut out).render()
        }
        "fig3b" => {
            let (p, mut out) = assemble(fetch, fig3::plan_3b)?;
            fig3::finish_3b(p, &mut out).render()
        }
        "fig4" => {
            let (p, mut out) = assemble(fetch, fig4::plan)?;
            fig4::finish(p, &mut out).render()
        }
        "fig5" => {
            let (p, mut out) = assemble(fetch, fig5::plan)?;
            fig5::finish(ctx, p, &mut out).render()
        }
        "fig6" => {
            let (p, mut out) = assemble(fetch, fig6::plan)?;
            fig6::finish(ctx, p, &mut out).render()
        }
        "sec3.4" => {
            let (p, mut out) = assemble(fetch, sec3_4::plan)?;
            sec3_4::finish(p, &mut out).render()
        }
        "fig7a" => {
            let (p, mut out) = assemble(fetch, |pl| fig7::plan(pl, VantagePoint::IspCe))?;
            fig7::finish(p, &mut out).render()
        }
        "fig7b" => {
            let (p, mut out) = assemble(fetch, |pl| fig7::plan(pl, VantagePoint::IxpCe))?;
            fig7::finish(p, &mut out).render()
        }
        "fig8" => {
            let (p, mut out) = assemble(fetch, |pl| fig8::plan(pl, &ctx.registry))?;
            fig8::finish(p, &mut out).render()
        }
        "fig10" => {
            let (p, mut out) = assemble(fetch, |pl| fig10::plan(pl, ctx))?;
            fig10::finish(p, &mut out).render()
        }
        "fig11-12" => {
            let (p, mut out) = assemble(fetch, |pl| fig11_12::plan(pl, &ctx.registry))?;
            fig11_12::finish(p, &mut out).render()
        }
        "sec9" => {
            let (p, mut out) = assemble(fetch, sec9::plan)?;
            sec9::finish(p, &mut out).render()
        }
        other => return Err(ServeError::UnknownFigure(other.to_string())),
    })
}

/// The full-suite plan hash for this context — the value an archive
/// manifest key pins. A server fronting an archive built for a different
/// seed/scenario/fidelity would answer every figure with missing-cell
/// errors; comparing this hash up front turns that into one clear
/// startup diagnostic.
pub fn suite_plan_hash(ctx: &Context) -> u64 {
    let mut plan = EnginePlan::new();
    crate::experiments::suite::build_plan(ctx, &mut plan);
    let (trace, _) = plan.into_trace_and_subs();
    trace.plan_hash()
}

/// The set of distinct cells the named figure's plan demands — what a
/// serving layer must be able to fetch before it can render the figure.
pub fn figure_cells(ctx: &Context, name: &str) -> Result<Vec<Cell>, ServeError> {
    let mut plan = EnginePlan::new();
    match name {
        "table2" | "table1" => return Ok(Vec::new()),
        "fig1" => {
            fig1::plan(&mut plan);
        }
        "fig2a" => {
            fig2::plan_2a(&mut plan);
        }
        "fig2b" => {
            fig2::plan_2bc(&mut plan, VantagePoint::IspCe);
        }
        "fig2c" => {
            fig2::plan_2bc(&mut plan, VantagePoint::IxpCe);
        }
        "fig3a" => {
            fig3::plan_3a(&mut plan);
        }
        "fig3b" => {
            fig3::plan_3b(&mut plan);
        }
        "fig4" => {
            fig4::plan(&mut plan);
        }
        "fig5" => {
            fig5::plan(&mut plan);
        }
        "fig6" => {
            fig6::plan(&mut plan);
        }
        "sec3.4" => {
            sec3_4::plan(&mut plan);
        }
        "fig7a" => {
            fig7::plan(&mut plan, VantagePoint::IspCe);
        }
        "fig7b" => {
            fig7::plan(&mut plan, VantagePoint::IxpCe);
        }
        "fig8" => {
            fig8::plan(&mut plan, &ctx.registry);
        }
        "fig10" => {
            fig10::plan(&mut plan, ctx);
        }
        "fig11-12" => {
            fig11_12::plan(&mut plan, &ctx.registry);
        }
        "sec9" => {
            sec9::plan(&mut plan);
        }
        other => match other.strip_prefix("fig9:").and_then(|label| {
            VantagePoint::CORE_FOUR
                .into_iter()
                .find(|vp| vp.label() == label)
        }) {
            Some(vp) => {
                fig9::plan(&mut plan, &ctx.registry, vp);
            }
            None => return Err(ServeError::UnknownFigure(other.to_string())),
        },
    }
    let (trace, _) = plan.into_trace_and_subs();
    Ok(trace.cells())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Fidelity;

    #[test]
    fn unknown_figures_are_typed_errors() {
        let ctx = Context::new(Fidelity::Test);
        let mut fetch = |_: Cell| -> Result<Arc<Vec<FlowRecord>>, StoreError> {
            unreachable!("unknown figures never fetch")
        };
        assert!(matches!(
            render_figure(&ctx, "fig99", &mut fetch),
            Err(ServeError::UnknownFigure(_))
        ));
        assert!(matches!(
            render_figure(&ctx, "fig9:MOON", &mut fetch),
            Err(ServeError::UnknownFigure(_))
        ));
        assert!(figure_cells(&ctx, "fig99").is_err());
    }

    #[test]
    fn tables_need_no_cells_and_figures_name_theirs() {
        let ctx = Context::new(Fidelity::Test);
        assert!(figure_cells(&ctx, "table1").unwrap().is_empty());
        let cells = figure_cells(&ctx, "fig8").unwrap();
        assert!(!cells.is_empty());
        // A fetch-backed render of a generated figure matches the direct
        // engine run: feed generation output straight through the fetch.
        let emitter = lockdown_traffic::plan::TraceEmitter::with_scenario(
            &ctx.registry,
            &ctx.corpus,
            ctx.config,
            &ctx.scenario,
        );
        let mut fetch = |cell: Cell| -> Result<Arc<Vec<FlowRecord>>, StoreError> {
            let mut batch = Vec::new();
            emitter.generate_cell(cell, &mut batch);
            Ok(Arc::new(batch))
        };
        let served = render_figure(&ctx, "fig8", &mut fetch).unwrap();
        let direct = fig8::run(&ctx).render();
        assert_eq!(served, direct);
    }
}
