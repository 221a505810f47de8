//! Single-pass trace engine: one shared generation plan feeding every
//! subscribed consumer.
//!
//! The figure drivers overlap heavily in the trace slices they demand —
//! regenerating per figure materializes the same `(stream, date, hour)`
//! cell many times over. The engine inverts that: drivers *declare* their
//! demands as `(stream, window, consumer factory)` subscriptions, the
//! underlying [`TracePlan`] deduplicates the union of windows, and each
//! distinct cell is generated exactly once and fanned out to every
//! subscription whose window covers it.
//!
//! Determinism: cells are independently seeded, workers claim batches of
//! the sorted cell list from one shared queue, and every [`FlowConsumer`]
//! merge is commutative and associative over disjoint cell sets — so the
//! merged result is bit-identical regardless of worker count or of which
//! worker ran which cell, and identical to the old per-figure
//! regeneration. `tests/determinism.rs` asserts both.

use crate::context::Context;
use crate::supervisor::{
    AttemptError, DegradedReport, QuarantinedCell, Supervisor, SupervisorMetrics,
};
use lockdown_analysis::codec::CodecError;
use lockdown_analysis::consumer::FlowConsumer;
use lockdown_chaos::{ChaosConfig, InjectedPanic, WriteFault};
use lockdown_collect::{CollectMetrics, CollectionPlane, WireConfig};
use lockdown_flow::record::FlowRecord;
use lockdown_flow::time::Date;
use lockdown_store::{
    ArchiveReader, ArchiveWriter, SegmentMeta, SegmentScan, SpillFault, StoreError, StoreKey,
    StoreMetrics,
};
use lockdown_traffic::parallel::default_workers;
use lockdown_traffic::plan::{Cell, Stream, TraceEmitter, TracePlan};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Object-safe face of [`FlowConsumer`] used inside the engine (and the
/// serving path's per-figure assembly).
pub(crate) trait AnyConsumer: Send {
    fn observe_batch(&mut self, records: &[FlowRecord]);
    fn merge_box(&mut self, other: Box<dyn AnyConsumer>);
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
    /// Serialize this consumer's state as a self-checking codec frame
    /// (the shard worker's side of the cross-process merge).
    fn encode_state_frame(&self) -> Vec<u8>;
    /// Decode a peer's frame and merge it into this consumer (the shard
    /// coordinator's side).
    fn merge_state_frame(&mut self, frame: &[u8]) -> Result<(), CodecError>;
}

struct Erased<C>(C);

impl<C: FlowConsumer + Send + 'static> AnyConsumer for Erased<C> {
    fn observe_batch(&mut self, records: &[FlowRecord]) {
        self.0.observe_all(records);
    }

    fn merge_box(&mut self, other: Box<dyn AnyConsumer>) {
        // Unreachable by construction: partials are merged strictly by
        // subscription index, and each index has exactly one concrete
        // consumer type (enforced at `subscribe` time by the factory).
        let other = other
            .into_any()
            .downcast::<Erased<C>>()
            .expect("merged consumers share one subscription type");
        self.0.merge(other.0);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }

    fn encode_state_frame(&self) -> Vec<u8> {
        lockdown_analysis::codec::encode_frame(&self.0)
    }

    fn merge_state_frame(&mut self, frame: &[u8]) -> Result<(), CodecError> {
        lockdown_analysis::codec::merge_frame(&mut self.0, frame)
    }
}

pub(crate) struct Subscription {
    stream: Stream,
    start: Date,
    end: Date,
    /// Figure label from [`EnginePlan::scoped`]; attributes quarantined
    /// cells to the figures they starve in the degraded-mode report.
    label: Option<String>,
    factory: Box<dyn Fn() -> Box<dyn AnyConsumer> + Send + Sync>,
}

impl Subscription {
    pub(crate) fn covers(&self, cell: Cell) -> bool {
        self.stream == cell.stream && self.start <= cell.date && cell.date <= self.end
    }

    pub(crate) fn build(&self) -> Box<dyn AnyConsumer> {
        (self.factory)()
    }
}

/// Typed handle to one subscription; redeem it against the
/// [`EngineOutput`] after the run.
pub struct Demand<C> {
    idx: usize,
    _marker: PhantomData<fn() -> C>,
}

impl<C> Clone for Demand<C> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<C> Copy for Demand<C> {}

/// The union of every driver's trace demands, with one consumer factory
/// per subscription.
#[derive(Default)]
pub struct EnginePlan {
    trace: TracePlan,
    subs: Vec<Subscription>,
    wire: Option<WireConfig>,
    archive: Option<PathBuf>,
    supervisor: Option<ChaosConfig>,
    scope: Option<String>,
}

impl EnginePlan {
    /// An empty plan.
    pub fn new() -> EnginePlan {
        EnginePlan::default()
    }

    /// Route every generated cell through the wire-mode collection plane
    /// (export → faulty transport → sequence-tracking collect) before
    /// fan-out. With [`lockdown_collect::FaultProfile::zero`] the delivered
    /// records are exactly the generated ones, so figure output is
    /// byte-identical to an unwired run.
    pub fn with_wire(&mut self, cfg: WireConfig) -> &mut EnginePlan {
        self.wire = Some(cfg);
        self
    }

    /// The wire configuration, if wire mode is enabled.
    pub fn wire_config(&self) -> Option<&WireConfig> {
        self.wire.as_ref()
    }

    /// Attach a columnar archive directory to the pass. A manifest keyed to
    /// the same `(seed, scenario)` generation and covering every demanded
    /// cell makes the pass *warm*: cells are decoded from segments instead
    /// of generated, byte-identically. Anything else — no manifest, a stale
    /// key, missing cells — makes the pass *cold*: cells are generated as
    /// usual and spilled so the next run replays. I/O and corruption
    /// surface as errors from [`run`]/[`run_with_workers`].
    pub fn with_archive(&mut self, dir: impl Into<PathBuf>) -> &mut EnginePlan {
        self.archive = Some(dir.into());
        self
    }

    /// The archive directory, if one is attached.
    pub fn archive_dir(&self) -> Option<&std::path::Path> {
        self.archive.as_deref()
    }

    /// Attach a supervisor: each cell slot runs under panic isolation
    /// with seeded retries, budget-exhausted cells are quarantined
    /// instead of fatal, archived passes checkpoint a resume journal, and
    /// the configured chaos schedule (if any) injects deterministic
    /// faults. [`ChaosConfig::zero`] gives supervision without chaos —
    /// and a zero-chaos supervised pass is byte-identical to a plain one.
    pub fn with_supervisor(&mut self, cfg: ChaosConfig) -> &mut EnginePlan {
        self.supervisor = Some(cfg);
        self
    }

    /// The supervisor configuration, if supervision is enabled.
    pub fn supervisor_config(&self) -> Option<&ChaosConfig> {
        self.supervisor.as_ref()
    }

    /// Run `f` with every subscription it records labeled `label` (the
    /// figure being planned). Labels drive the degraded-mode report's
    /// "affected figures" attribution; unlabeled subscriptions are
    /// reported under `unlabeled`.
    pub fn scoped<R>(&mut self, label: &str, f: impl FnOnce(&mut EnginePlan) -> R) -> R {
        let prev = self.scope.replace(label.to_string());
        let out = f(self);
        self.scope = prev;
        out
    }

    /// Subscribe a consumer to an inclusive date window of one stream.
    /// `factory` builds one fresh consumer per worker; partials are merged
    /// in worker order after the pass.
    pub fn subscribe<C, F>(
        &mut self,
        stream: Stream,
        start: Date,
        end: Date,
        factory: F,
    ) -> Demand<C>
    where
        C: FlowConsumer + Send + 'static,
        F: Fn() -> C + Send + Sync + 'static,
    {
        self.trace.demand(stream, start, end);
        let idx = self.subs.len();
        self.subs.push(Subscription {
            stream,
            start,
            end,
            label: self.scope.clone(),
            factory: Box::new(move || Box::new(Erased(factory()))),
        });
        Demand {
            idx,
            _marker: PhantomData,
        }
    }

    /// Number of subscriptions recorded.
    pub fn demand_count(&self) -> usize {
        self.subs.len()
    }

    /// Fingerprint of the deduplicated cell plan. Two processes that
    /// build the same subscriptions get the same hash — the shard
    /// protocol's guard against running an assignment against a
    /// differently built plan.
    pub fn plan_hash(&self) -> u64 {
        self.trace.plan_hash()
    }

    /// Decompose into the deduplicated trace plan and the subscription
    /// list, dropping the wire/archive/chaos options — for callers that
    /// fetch cells themselves (the serving path) or only count them.
    pub(crate) fn into_trace_and_subs(self) -> (TracePlan, Vec<Subscription>) {
        (self.trace, self.subs)
    }

    /// Whether nothing has been subscribed.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }
}

/// What one engine pass did: the dedup story in numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Subscriptions served.
    pub demands: usize,
    /// Cells requested across all demands, counting overlap multiplicity
    /// — what per-figure regeneration would materialize.
    pub cells_demanded: u64,
    /// Distinct cells actually generated (each exactly once). Zero on a
    /// warm archived pass — the proof that replay did no generation.
    pub cells_generated: u64,
    /// Distinct cells decoded from an archive instead of generated.
    /// Includes resumed cells — replay is replay, whether the index that
    /// named the segment was a manifest or a journal.
    pub cells_replayed: u64,
    /// Of the replayed cells, how many were adopted from a checkpoint
    /// journal left by an interrupted pass (supervised passes only).
    pub cells_resumed: u64,
    /// Cells the supervisor quarantined after exhausting their attempt
    /// budget. Always zero without a supervisor.
    pub cells_quarantined: u64,
    /// Cell attempts beyond the first (supervised passes only).
    pub retries: u64,
    /// Flow records fanned out across all cells, generated or replayed.
    pub flows_emitted: u64,
    /// Worker threads used.
    pub workers: usize,
}

impl EngineStats {
    /// How many times over per-figure regeneration would have re-made the
    /// average cell.
    pub fn dedup_ratio(&self) -> f64 {
        self.cells_demanded as f64 / (self.cells_generated + self.cells_replayed).max(1) as f64
    }

    /// One-line human-readable summary (the CLI prints this after a full
    /// suite run). The base format is stable — supervised-only outcomes
    /// (resume, quarantine, retries) are appended only when nonzero so
    /// plain passes render exactly as before.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "engine: {} demands, {} cells generated once + {} replayed (vs {} demanded, dedup x{:.2}), {} flows, {} workers",
            self.demands,
            self.cells_generated,
            self.cells_replayed,
            self.cells_demanded,
            self.dedup_ratio(),
            self.flows_emitted,
            self.workers,
        );
        if self.cells_resumed > 0 {
            s.push_str(&format!(", {} resumed", self.cells_resumed));
        }
        if self.cells_quarantined > 0 || self.retries > 0 {
            s.push_str(&format!(
                ", {} quarantined ({} retries)",
                self.cells_quarantined, self.retries
            ));
        }
        s
    }
}

/// Why [`EngineOutput::try_take`] could not redeem a demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TakeError {
    /// The demand was already taken from this output.
    AlreadyTaken,
    /// The demand's type parameter does not match the consumer the
    /// subscription actually built (a handle redeemed against the wrong
    /// output, or transmuted indices).
    TypeMismatch,
}

impl std::fmt::Display for TakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TakeError::AlreadyTaken => write!(f, "demand already taken from this engine output"),
            TakeError::TypeMismatch => write!(f, "demand type does not match its subscription"),
        }
    }
}

impl std::error::Error for TakeError {}

/// Merged consumer states of one engine pass, redeemable by [`Demand`].
pub struct EngineOutput {
    consumers: Vec<Option<Box<dyn AnyConsumer>>>,
    stats: EngineStats,
    wire_metrics: Option<Arc<CollectMetrics>>,
    audit: Option<lockdown_audit::Report>,
    store_metrics: Option<Arc<StoreMetrics>>,
    supervisor_metrics: Option<Arc<SupervisorMetrics>>,
    degraded: Option<DegradedReport>,
}

impl EngineOutput {
    /// Assemble an output from consumers fed outside the engine (the
    /// serving path). Wire, audit and supervisor artefacts do not apply
    /// there.
    pub(crate) fn from_consumers(
        consumers: Vec<Box<dyn AnyConsumer>>,
        stats: EngineStats,
    ) -> EngineOutput {
        EngineOutput {
            consumers: consumers.into_iter().map(Some).collect(),
            stats,
            wire_metrics: None,
            audit: None,
            store_metrics: None,
            supervisor_metrics: None,
            degraded: None,
        }
    }

    /// Take the merged consumer of one subscription, reporting a typed
    /// error for the two reachable misuses (double-take, wrong-type
    /// redemption) instead of panicking.
    pub fn try_take<C: FlowConsumer + Send + 'static>(
        &mut self,
        demand: Demand<C>,
    ) -> Result<C, TakeError> {
        let slot = self
            .consumers
            .get_mut(demand.idx)
            .ok_or(TakeError::TypeMismatch)?;
        let boxed = slot.take().ok_or(TakeError::AlreadyTaken)?;
        // A failed downcast consumes the slot: erasure is one-way, so a
        // wrong-typed probe cannot restore the consumer. That is fine —
        // both reachable misuses are programming errors the caller should
        // surface, not probe-and-recover paths.
        boxed
            .into_any()
            .downcast::<Erased<C>>()
            .map(|erased| erased.0)
            .map_err(|_| TakeError::TypeMismatch)
    }

    /// Take the merged consumer of one subscription (each demand can be
    /// taken once). Panics on misuse — use [`EngineOutput::try_take`] for
    /// the typed-error form.
    pub fn take<C: FlowConsumer + Send + 'static>(&mut self, demand: Demand<C>) -> C {
        self.try_take(demand)
            .unwrap_or_else(|e| panic!("engine demand redemption failed: {e}"))
    }

    /// The pass's statistics.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Wire-plane metrics, present when the plan ran in wire mode.
    pub fn wire_metrics(&self) -> Option<&Arc<CollectMetrics>> {
        self.wire_metrics.as_ref()
    }

    /// Conservation-audit report, present when the plan ran in wire mode
    /// with auditing enabled.
    pub fn audit(&self) -> Option<&lockdown_audit::Report> {
        self.audit.as_ref()
    }

    /// Store metrics, present when the plan ran with an archive attached
    /// (counts spills on a cold pass, reads and pruning on a warm one).
    pub fn store_metrics(&self) -> Option<&Arc<StoreMetrics>> {
        self.store_metrics.as_ref()
    }

    /// Supervisor metrics, present when the plan ran supervised.
    pub fn supervisor_metrics(&self) -> Option<&Arc<SupervisorMetrics>> {
        self.supervisor_metrics.as_ref()
    }

    /// The degraded-mode report, present when a supervised pass
    /// quarantined at least one cell. `None` means the pass is complete.
    pub fn degraded(&self) -> Option<&DegradedReport> {
        self.degraded.as_ref()
    }
}

/// Run a plan with the default worker count. An archive-free,
/// unsupervised plan cannot actually fail; archived plans surface I/O and
/// corruption errors here instead of panicking.
pub fn run(ctx: &Context, plan: EnginePlan) -> Result<EngineOutput, StoreError> {
    run_with_workers(ctx, plan, default_workers())
}

/// Consumer states and cell accounting of a run of cells: the cells one
/// worker claimed, a whole pass, or every slice a shard coordinator absorbed.
struct Partial {
    consumers: Vec<Box<dyn AnyConsumer>>,
    tallies: Tallies,
}

impl Partial {
    /// Fresh consumers for every subscription, nothing counted yet.
    fn empty(subs: &[Subscription]) -> Partial {
        Partial {
            consumers: subs.iter().map(|s| s.build()).collect(),
            tallies: Tallies::default(),
        }
    }
}

/// Per-worker cell accounting.
#[derive(Debug, Default, Clone, Copy)]
struct Tallies {
    flows: u64,
    generated: u64,
    replayed: u64,
    resumed: u64,
}

impl Tallies {
    fn add(&mut self, other: Tallies) {
        self.flows += other.flows;
        self.generated += other.generated;
        self.replayed += other.replayed;
        self.resumed += other.resumed;
    }
}

/// How one cell's records were obtained.
enum CellFill {
    Generated,
    Replayed,
    Resumed,
}

/// Render a caught panic payload for the quarantine record.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(p) = payload.downcast_ref::<InjectedPanic>() {
        format!("injected worker panic (attempt {})", p.attempt)
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Consecutive cells a worker claims from the shared queue at a time:
/// enough to keep cursor traffic negligible, few enough that the tail of
/// the list still spreads across workers.
const CLAIM_BATCH: usize = 16;

/// Everything one engine pass shares across workers to execute a cell:
/// generation, replay, resume, the wire plane and (optionally) the
/// supervisor. The in-process pass and the shard slice both run their
/// cells through [`CellRunner::run_cells`], so supervised semantics
/// cannot drift between worker counts or across the shard boundary.
struct CellRunner<'a> {
    emitter: &'a TraceEmitter<'a>,
    scan: Option<&'a SegmentScan<'a>>,
    writer: Option<&'a ArchiveWriter>,
    adopted: &'a BTreeMap<Cell, SegmentMeta>,
    plane: Option<&'a CollectionPlane>,
    supervisor: Option<&'a Supervisor>,
    store_metrics: Option<&'a Arc<StoreMetrics>>,
    subs: &'a [Subscription],
}

impl CellRunner<'_> {
    /// Unsupervised fill: exactly the pre-supervisor semantics — first
    /// error aborts the pass, archive corruption included.
    fn fill_plain(&self, cell: Cell, buf: &mut Vec<FlowRecord>) -> Result<CellFill, StoreError> {
        match self.scan {
            Some(sc) => {
                *buf = sc.read_cell(cell)?;
                Ok(CellFill::Replayed)
            }
            None => {
                self.emitter.generate_cell(cell, buf);
                if let Some(w) = self.writer {
                    w.spill(cell, buf)?;
                }
                Ok(CellFill::Generated)
            }
        }
    }

    /// One supervised attempt. Every injected failure point precedes the
    /// cell's wire processing and ledger posts, so a retried attempt
    /// leaves no partial side effects behind.
    fn fill_attempt(
        &self,
        sup: &Supervisor,
        cell: Cell,
        attempt: u32,
        force_generate: bool,
        buf: &mut Vec<FlowRecord>,
    ) -> Result<CellFill, AttemptError> {
        let chaos = sup.decide(cell, attempt);
        if chaos.panic {
            std::panic::panic_any(sup.injected_panic(cell, attempt));
        }
        let fill = 'fill: {
            if !force_generate {
                if let Some(sc) = self.scan {
                    // Warm replay. Corruption downgrades from hard abort
                    // to regenerate-that-cell; a cell genuinely absent
                    // from the archive stays fatal (retrying cannot make
                    // it appear).
                    match sc.read_cell(cell) {
                        Ok(records) => {
                            *buf = records;
                            break 'fill CellFill::Replayed;
                        }
                        Err(e @ StoreError::Missing { .. }) => return Err(AttemptError::Store(e)),
                        Err(_) => sup.metrics().replay_corruptions.inc(),
                    }
                } else if let (Some(w), Some(meta)) = (self.writer, self.adopted.get(&cell)) {
                    // Cold resume: adopt the journaled segment. A failed
                    // integrity check self-heals by regenerating inline.
                    match w.read_adopted(meta) {
                        Ok(records) => {
                            *buf = records;
                            break 'fill CellFill::Resumed;
                        }
                        Err(_) => {
                            if let Some(m) = self.store_metrics {
                                m.resume_rejected.inc();
                            }
                        }
                    }
                }
            }
            self.emitter.generate_cell(cell, buf);
            if let Some(w) = self.writer {
                let fault = chaos.write.map(|f| match f {
                    WriteFault::Torn => SpillFault::Torn,
                    WriteFault::Enospc => SpillFault::Enospc,
                });
                if fault.is_some() {
                    sup.metrics().write_faults.inc();
                }
                w.spill_with_fault(cell, buf, fault)
                    .map_err(AttemptError::Store)?;
            }
            CellFill::Generated
        };
        if self.plane.is_some() && chaos.stall {
            // The exporter fleet timed out before delivering anything:
            // the attempt is abandoned before any conservation post.
            if let Some(pl) = self.plane {
                pl.note_stalled(&cell);
            }
            sup.metrics().stalls.inc();
            return Err(AttemptError::Stall);
        }
        Ok(fill)
    }

    /// The supervised attempt loop: catch panics, back off, retry, and
    /// quarantine once the budget is spent. `Ok(None)` means quarantined.
    fn fill_supervised(
        &self,
        sup: &Supervisor,
        cell: Cell,
        buf: &mut Vec<FlowRecord>,
    ) -> Result<Option<CellFill>, StoreError> {
        let budget = sup.attempts();
        let mut force_generate = false;
        let mut last_error = String::new();
        for attempt in 1..=budget {
            if attempt > 1 {
                sup.backoff(cell, attempt - 1);
            }
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.fill_attempt(sup, cell, attempt, force_generate, buf)
            }));
            let err = match caught {
                Ok(Ok(fill)) => return Ok(Some(fill)),
                Ok(Err(e)) => e,
                Err(payload) => {
                    sup.metrics().panics_caught.inc();
                    AttemptError::Panic(panic_message(payload))
                }
            };
            if let Some(fatal) = err.fatal() {
                return Err(fatal.clone());
            }
            // Whatever the failure left behind (a torn file, a half
            // filled buffer), the next attempt regenerates from scratch
            // rather than trusting on-disk state.
            force_generate = true;
            last_error = err.render();
        }
        // Budget exhausted: quarantine. The archive must not claim the
        // cell, and the auditor records the outcome as a first-class
        // conservation stage instead of a violation.
        if let Some(w) = self.writer {
            let _ = w.remove(cell);
        }
        if let Some(pl) = self.plane {
            pl.note_quarantined(&cell);
        }
        sup.quarantine(cell, budget, last_error);
        Ok(None)
    }

    /// Run one cell end to end: fill (plain or supervised), wire
    /// processing, conservation posts, and fan-out to covering
    /// subscriptions. Quarantined cells skip everything downstream.
    fn process(
        &self,
        cell: Cell,
        buf: &mut Vec<FlowRecord>,
        out: &mut Partial,
    ) -> Result<(), StoreError> {
        let fill = match self.supervisor {
            Some(sup) => match self.fill_supervised(sup, cell, buf)? {
                Some(fill) => fill,
                None => return Ok(()),
            },
            None => self.fill_plain(cell, buf)?,
        };
        let tallies = &mut out.tallies;
        match fill {
            CellFill::Generated => tallies.generated += 1,
            CellFill::Replayed => tallies.replayed += 1,
            CellFill::Resumed => {
                tallies.replayed += 1;
                tallies.resumed += 1;
            }
        }
        tallies.flows += buf.len() as u64;
        let wired;
        let batch: &[FlowRecord] = match self.plane {
            Some(pl) => {
                wired = pl.process_cell(cell, buf);
                &wired
            }
            None => buf,
        };
        if let Some(pl) = self.plane {
            pl.note_consumed(&cell, batch);
        }
        for (sub, consumer) in self.subs.iter().zip(out.consumers.iter_mut()) {
            if sub.covers(cell) {
                consumer.observe_batch(batch);
            }
        }
        Ok(())
    }

    /// Run `cells` on up to `workers` threads that drain one shared queue:
    /// each worker claims the next [`CLAIM_BATCH`] consecutive cells from
    /// an atomic cursor, so vantage points whose cells differ in volume by
    /// orders of magnitude still keep every core busy. Which worker ran
    /// which cell does not show in the output: chaos and backoff draws
    /// are per `(cell, attempt)`, consumer merges commute (module docs),
    /// and the quarantine list is sorted at publish.
    ///
    /// The first fatal error wins: it stops the other workers at their
    /// next cell, so (say) a demanded-but-absent segment aborts the pass
    /// promptly. Supervised retriable failures never stop anything. When
    /// only one worker would run, it runs on the calling thread, so a
    /// shard worker's slice allocates its consumers in the worker's own
    /// malloc arena; a fresh thread per slice raised the `shard`
    /// benchmark's peak RSS by about 10% on a 2-core host.
    fn run_cells(&self, cells: &[Cell], workers: usize) -> Result<Partial, StoreError> {
        // The cursor only hands out disjoint index ranges; the partials
        // reach the merge through the scope's joins, which synchronize.
        let cursor = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let drain = || -> Result<Partial, StoreError> {
            let mut out = Partial::empty(self.subs);
            let mut buf = Vec::new();
            loop {
                let start = cursor.fetch_add(CLAIM_BATCH, Ordering::Relaxed);
                if start >= cells.len() {
                    return Ok(out);
                }
                for &cell in &cells[start..cells.len().min(start + CLAIM_BATCH)] {
                    if stop.load(Ordering::Relaxed) {
                        return Ok(out);
                    }
                    if let Err(e) = self.process(cell, &mut buf, &mut out) {
                        stop.store(true, Ordering::Relaxed);
                        return Err(e);
                    }
                }
            }
        };
        let workers = workers.min(cells.len().div_ceil(CLAIM_BATCH));
        if workers <= 1 {
            return drain();
        }
        let partials: Vec<Result<Partial, StoreError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(drain)).collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });
        let mut partials = partials.into_iter();
        let mut merged = partials.next().expect("two or more workers ran")?;
        for partial in partials {
            let partial = partial?;
            merged.tallies.add(partial.tallies);
            for (m, l) in merged.consumers.iter_mut().zip(partial.consumers) {
                m.merge_box(l);
            }
        }
        Ok(merged)
    }
}

/// Open the manifest in `dir` for a pass over `cells` of the plan
/// `plan_hash`. Returns the key a cold pass spills under and, when a
/// manifest of the same generation (seed + scenario — the plan hash may
/// differ, a superset archive serves a subset plan with pruning) covers
/// every cell, the reader to replay from. A corrupt manifest is fatal
/// unless `tolerate_corrupt`, which counts it as a rejected resume and
/// treats it as absent.
fn open_archive(
    ctx: &Context,
    dir: &Path,
    plan_hash: u64,
    cells: &[Cell],
    metrics: &Arc<StoreMetrics>,
    tolerate_corrupt: bool,
) -> Result<(StoreKey, Option<ArchiveReader>), StoreError> {
    let key = StoreKey {
        seed: ctx.config.seed,
        scenario_hash: ctx.scenario_hash(),
        plan_hash,
    };
    let opened = match ArchiveReader::open(dir, Arc::clone(metrics)) {
        Ok(r) => r,
        Err(StoreError::Corrupt { .. }) if tolerate_corrupt => {
            metrics.resume_rejected.inc();
            None
        }
        Err(e) => return Err(e),
    };
    let warm = opened.filter(|r| r.key().same_generation(&key) && r.covers(cells.iter()));
    Ok((key, warm))
}

/// A pass whose cells have all run — in this process, or in shard
/// workers whose slices were absorbed — ready to publish.
struct Pass {
    subs: Vec<Subscription>,
    merged: Partial,
    cells_demanded: u64,
    writer: Option<ArchiveWriter>,
    store_metrics: Option<Arc<StoreMetrics>>,
    quarantined: Vec<QuarantinedCell>,
    supervisor_metrics: Option<Arc<SupervisorMetrics>>,
}

impl Pass {
    /// Publish the archive and assemble the output. A complete pass
    /// publishes the manifest; a degraded pass (any quarantined cell)
    /// must not claim completeness, so it checkpoints the journal
    /// instead, leaving the archive resumable. (A pass that errored
    /// fatally never gets here and leaves the archive manifest-less.)
    /// The degraded report attributes each quarantined cell to every
    /// figure whose window covers it.
    fn publish(self, workers: usize) -> Result<EngineOutput, StoreError> {
        let supervisor_metrics = self.supervisor_metrics;
        let mut quarantined = self.quarantined;
        quarantined.sort_by_key(|q| q.cell);
        if let Some(w) = &self.writer {
            if quarantined.is_empty() {
                w.finish()?;
            } else {
                w.checkpoint()?;
            }
        }
        let tallies = self.merged.tallies;
        let retries = supervisor_metrics.as_ref().map_or(0, |m| m.retries.get());
        if let Some(m) = &supervisor_metrics {
            m.quarantined_cells.set_max(quarantined.len() as u64);
            m.resumed_cells.set_max(tallies.resumed);
        }
        let stats = EngineStats {
            demands: self.subs.len(),
            cells_demanded: self.cells_demanded,
            cells_generated: tallies.generated,
            cells_replayed: tallies.replayed,
            cells_resumed: tallies.resumed,
            cells_quarantined: quarantined.len() as u64,
            retries,
            flows_emitted: tallies.flows,
            workers,
        };
        let degraded = (!quarantined.is_empty()).then(|| {
            let mut affected: BTreeMap<String, u64> = BTreeMap::new();
            for q in &quarantined {
                let mut seen = BTreeSet::new();
                for sub in &self.subs {
                    if sub.covers(q.cell) {
                        let label = sub.label.clone().unwrap_or_else(|| "unlabeled".to_string());
                        if seen.insert(label.clone()) {
                            *affected.entry(label).or_default() += 1;
                        }
                    }
                }
            }
            DegradedReport {
                quarantined,
                affected: affected.into_iter().collect(),
                retries,
            }
        });
        Ok(EngineOutput {
            consumers: self.merged.consumers.into_iter().map(Some).collect(),
            stats,
            wire_metrics: None,
            audit: None,
            store_metrics: self.store_metrics,
            supervisor_metrics,
            degraded,
        })
    }
}

/// Run a plan with an explicit worker count, surfacing archive errors.
/// Output is bit-identical for any count (see module docs) and for warm
/// vs. cold archive passes (`tests/archive_replay.rs`).
pub fn run_with_workers(
    ctx: &Context,
    plan: EnginePlan,
    workers: usize,
) -> Result<EngineOutput, StoreError> {
    let EnginePlan {
        trace,
        subs,
        wire,
        archive,
        supervisor,
        scope: _,
    } = plan;
    let emitter =
        TraceEmitter::with_scenario(&ctx.registry, &ctx.corpus, ctx.config, &ctx.scenario);
    // Wire mode: each cell's flows cross the export → transport → collect
    // plane before fan-out. The plane is per-cell seeded, so the delivered
    // batch is the same whichever worker processes the cell.
    let plane = wire.map(CollectionPlane::new);
    let cells = trace.cells();
    let supervisor = supervisor.map(Supervisor::new);

    // Replay only from a covering manifest of the same generation;
    // everything else is regenerated and respilled — except under
    // supervision, where a journal or partially covering manifest of the
    // same generation is *adopted* so the pass regenerates only what is
    // actually missing (checkpoint/resume), and a corrupt manifest
    // downgrades from hard abort to regeneration.
    let store_metrics = archive.as_ref().map(|_| StoreMetrics::new());
    let mut reader = None;
    let mut writer = None;
    let mut adopted = BTreeMap::new();
    if let (Some(dir), Some(metrics)) = (&archive, &store_metrics) {
        let supervised = supervisor.is_some();
        match open_archive(ctx, dir, trace.plan_hash(), &cells, metrics, supervised)? {
            (_, Some(r)) => reader = Some(r),
            (key, None) if supervised => {
                let (w, a) = ArchiveWriter::create_or_resume(dir, key, Arc::clone(metrics))?;
                writer = Some(w);
                adopted = a;
            }
            (key, None) => writer = Some(ArchiveWriter::create(dir, key, Arc::clone(metrics))?),
        }
    }
    let scan = reader
        .as_ref()
        .zip(store_metrics.as_ref())
        .map(|(r, m)| SegmentScan::new(r, cells.iter().copied(), m));

    let workers = workers.max(1).min(cells.len().max(1));
    let merged = CellRunner {
        emitter: &emitter,
        scan: scan.as_ref(),
        writer: writer.as_ref(),
        adopted: &adopted,
        plane: plane.as_ref(),
        supervisor: supervisor.as_ref(),
        store_metrics: store_metrics.as_ref(),
        subs: &subs,
    }
    .run_cells(&cells, workers)?;

    let pass = Pass {
        subs,
        merged,
        cells_demanded: trace.cells_demanded(),
        writer,
        store_metrics,
        quarantined: supervisor
            .as_ref()
            .map(|s| s.quarantined())
            .unwrap_or_default(),
        supervisor_metrics: supervisor.map(|s| s.metrics()),
    };
    let mut out = pass.publish(workers)?;
    out.audit = plane.as_ref().and_then(|p| p.audit_report());
    out.wire_metrics = plane.map(|p| p.metrics());
    Ok(out)
}

/// Everything one shard worker hands back after running a cell-index
/// slice of a plan: serialized consumer states, cell accounting, the
/// archive segment inventory it spilled, and any quarantined cells.
#[derive(Debug, Default)]
pub struct SliceOutcome {
    /// One encoded state frame per subscription, in subscription order
    /// (consumers whose windows miss the slice still contribute an empty
    /// state — merging it is the identity).
    pub states: Vec<Vec<u8>>,
    /// Flow records fanned out across the slice's cells.
    pub flows: u64,
    /// Distinct cells generated.
    pub generated: u64,
    /// Distinct cells replayed from the archive.
    pub replayed: u64,
    /// Of the replayed cells, how many came from journal adoption.
    pub resumed: u64,
    /// Cell attempts beyond the first (supervised slices only).
    pub retries: u64,
    /// Segments this slice spilled (cold archived slices only); the
    /// coordinator adopts these into the one published manifest.
    pub segments: Vec<SegmentMeta>,
    /// Cells the slice's supervisor quarantined.
    pub quarantined: Vec<QuarantinedCell>,
}

/// Run one cell-index slice `[range.start, range.end)` of a plan's sorted
/// cell list — the shard worker's half of a coordinated pass. Semantics
/// match [`run_with_workers`] except:
///
/// * only the slice's cells execute, on one thread (worker *processes*
///   are the parallelism, so a thread pool inside each would fight the
///   scheduler);
/// * an archived cold slice spills through [`ArchiveWriter::attach`] —
///   segment files only, never the manifest or journal, which belong to
///   the coordinator;
/// * nothing is published: the consumers come back as codec frames for
///   [`ShardAssembler::absorb`] to merge.
///
/// The plan must be built identically on both sides (guarded by the plan
/// hash in the shard protocol); wire mode does not cross the shard
/// boundary.
pub fn run_slice(
    ctx: &Context,
    plan: EnginePlan,
    range: std::ops::Range<usize>,
) -> Result<SliceOutcome, StoreError> {
    let EnginePlan {
        trace,
        subs,
        wire,
        archive,
        supervisor,
        scope: _,
    } = plan;
    assert!(
        wire.is_none(),
        "wire mode does not cross the shard boundary"
    );
    let emitter =
        TraceEmitter::with_scenario(&ctx.registry, &ctx.corpus, ctx.config, &ctx.scenario);
    let cells = trace.cells();
    let start = range.start.min(cells.len());
    let end = range.end.min(cells.len()).max(start);
    let slice = &cells[start..end];
    let supervisor = supervisor.map(Supervisor::new);

    // A same-generation manifest covering the slice means warm replay;
    // anything else means the coordinator already invalidated the index
    // and this slice spills fresh segments in attach (index-untouching)
    // mode.
    let store_metrics = archive.as_ref().map(|_| StoreMetrics::new());
    let mut reader = None;
    let mut writer = None;
    if let (Some(dir), Some(metrics)) = (&archive, &store_metrics) {
        let supervised = supervisor.is_some();
        match open_archive(ctx, dir, trace.plan_hash(), slice, metrics, supervised)? {
            (_, Some(r)) => reader = Some(r),
            (key, None) => writer = Some(ArchiveWriter::attach(dir, key, Arc::clone(metrics))?),
        }
    }
    let scan = reader
        .as_ref()
        .zip(store_metrics.as_ref())
        .map(|(r, m)| SegmentScan::new(r, slice.iter().copied(), m));

    let ran = CellRunner {
        emitter: &emitter,
        scan: scan.as_ref(),
        writer: writer.as_ref(),
        adopted: &BTreeMap::new(),
        plane: None,
        supervisor: supervisor.as_ref(),
        store_metrics: store_metrics.as_ref(),
        subs: &subs,
    }
    .run_cells(slice, 1)?;

    Ok(SliceOutcome {
        states: ran
            .consumers
            .iter()
            .map(|c| c.encode_state_frame())
            .collect(),
        flows: ran.tallies.flows,
        generated: ran.tallies.generated,
        replayed: ran.tallies.replayed,
        resumed: ran.tallies.resumed,
        retries: supervisor.as_ref().map_or(0, |s| s.metrics().retries.get()),
        segments: writer.as_ref().map(|w| w.metas()).unwrap_or_default(),
        quarantined: supervisor
            .as_ref()
            .map(|s| s.quarantined())
            .unwrap_or_default(),
    })
}

/// The shard coordinator's merge half: owns the archive index, merges
/// worker [`SliceOutcome`]s through the consumer-state codec, and
/// produces an [`EngineOutput`] indistinguishable from a single-process
/// [`run_with_workers`] pass over the same plan.
///
/// Construction resolves the archive (warm manifest kept, anything else
/// invalidated) *before* any worker opens it, so every worker sees a
/// consistent warm/cold decision.
pub struct ShardAssembler {
    pass: Pass,
    cells: Vec<Cell>,
    plan_hash: u64,
    warm: bool,
}

impl ShardAssembler {
    /// Prepare a coordinated pass: build the merge targets and resolve
    /// the archive. Wire mode is not supported across the shard boundary.
    pub fn new(ctx: &Context, plan: EnginePlan) -> Result<ShardAssembler, StoreError> {
        let EnginePlan {
            trace,
            subs,
            wire,
            archive,
            supervisor,
            scope: _,
        } = plan;
        assert!(
            wire.is_none(),
            "wire mode does not cross the shard boundary"
        );
        let cells = trace.cells();
        let plan_hash = trace.plan_hash();
        let store_metrics = archive.as_ref().map(|_| StoreMetrics::new());
        let mut warm = false;
        let mut writer = None;
        if let (Some(dir), Some(metrics)) = (&archive, &store_metrics) {
            match open_archive(ctx, dir, plan_hash, &cells, metrics, true)? {
                (_, Some(_)) => warm = true,
                (key, None) => writer = Some(ArchiveWriter::create(dir, key, Arc::clone(metrics))?),
            }
        }
        Ok(ShardAssembler {
            pass: Pass {
                merged: Partial::empty(&subs),
                subs,
                cells_demanded: trace.cells_demanded(),
                writer,
                store_metrics,
                quarantined: Vec::new(),
                supervisor_metrics: supervisor.map(|_| SupervisorMetrics::new()),
            },
            cells,
            plan_hash,
            warm,
        })
    }

    /// Fingerprint of the deduplicated cell plan; workers echo it back so
    /// an assignment can never run against a differently built plan.
    pub fn plan_hash(&self) -> u64 {
        self.plan_hash
    }

    /// Number of cells in the sorted plan (the assignment index space).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Whether the pass replays a warm archive (workers decode segments
    /// instead of generating, and no segments come back to adopt).
    pub fn is_warm(&self) -> bool {
        self.warm
    }

    /// Merge one worker's slice into the coordinator state: consumer
    /// frames through the codec, tallies additively, segments adopted
    /// into the pending manifest. A frame that fails to decode is
    /// surfaced as archive-grade corruption — the slice must be re-run,
    /// not silently dropped.
    pub fn absorb(&mut self, outcome: SliceOutcome) -> Result<(), StoreError> {
        let merged = &mut self.pass.merged;
        if outcome.states.len() != merged.consumers.len() {
            return Err(StoreError::Corrupt {
                segment: "consumer state".to_string(),
                detail: format!(
                    "worker returned {} states for {} subscriptions",
                    outcome.states.len(),
                    merged.consumers.len()
                ),
            });
        }
        for (consumer, frame) in merged.consumers.iter_mut().zip(&outcome.states) {
            consumer
                .merge_state_frame(frame)
                .map_err(|e| StoreError::Corrupt {
                    segment: "consumer state".to_string(),
                    detail: e.to_string(),
                })?;
        }
        merged.tallies.add(Tallies {
            flows: outcome.flows,
            generated: outcome.generated,
            replayed: outcome.replayed,
            resumed: outcome.resumed,
        });
        if let Some(m) = &self.pass.supervisor_metrics {
            m.retries.add(outcome.retries);
        }
        if let Some(w) = &self.pass.writer {
            for meta in outcome.segments {
                w.adopt(meta)?;
            }
        }
        self.pass.quarantined.extend(outcome.quarantined);
        Ok(())
    }

    /// Quarantine a whole assignment range: every replica of these cells
    /// died. The archive must not claim any of them, and each cell is
    /// reported exactly like a supervisor quarantine.
    pub fn quarantine_range(&mut self, range: std::ops::Range<usize>, attempts: u32, error: &str) {
        let start = range.start.min(self.cells.len());
        let end = range.end.min(self.cells.len()).max(start);
        for &cell in &self.cells[start..end] {
            if let Some(w) = &self.pass.writer {
                let _ = w.remove(cell);
            }
            self.pass.quarantined.push(QuarantinedCell {
                cell,
                attempts,
                error: error.to_string(),
            });
        }
    }

    /// Publish and assemble: manifest on a clean pass, resumable journal
    /// on a degraded one, and an [`EngineOutput`] carrying the merged
    /// consumers, the combined stats and the degraded-mode report.
    /// `workers` is recorded in the stats (worker processes, not threads).
    pub fn finish(self, workers: usize) -> Result<EngineOutput, StoreError> {
        self.pass.publish(workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Fidelity;
    use lockdown_analysis::timeseries::HourlyVolume;
    use lockdown_topology::vantage::VantagePoint;

    #[test]
    fn overlapping_subscriptions_share_cells() {
        let ctx = Context::with_seed(Fidelity::Test, 3);
        let mut plan = EnginePlan::new();
        let vp = VantagePoint::IxpSe;
        let d1 = Date::new(2020, 2, 3);
        let d2 = Date::new(2020, 2, 6);
        let a = plan.subscribe(Stream::Vantage(vp), d1, d2, HourlyVolume::new);
        let b = plan.subscribe(Stream::Vantage(vp), d1, d1, HourlyVolume::new);
        let mut out = run_with_workers(&ctx, plan, 2).expect("archive-free pass cannot fail");
        let stats = out.stats();
        // 4 + 1 days demanded, 4 distinct days generated.
        assert_eq!(stats.cells_demanded, 5 * 24);
        assert_eq!(stats.cells_generated, 4 * 24);
        let full = out.take(a);
        let first_day = out.take(b);
        assert_eq!(full.daily_total(d1), first_day.daily_total(d1));
        assert!(first_day.daily_total(d2) == 0, "window gates fan-out");
    }

    #[test]
    fn sharded_slices_match_single_process() {
        let ctx = Context::with_seed(Fidelity::Test, 9);
        let d1 = Date::new(2020, 3, 9);
        let d2 = Date::new(2020, 3, 12);
        let build = |plan: &mut EnginePlan| {
            plan.subscribe(
                Stream::Vantage(VantagePoint::IxpSe),
                d1,
                d2,
                HourlyVolume::new,
            )
        };
        let mut plan = EnginePlan::new();
        let h = build(&mut plan);
        let mut reference = run_with_workers(&ctx, plan, 1).expect("archive-free pass cannot fail");
        let series = reference.take(h).hourly_series(d1, d2);

        // Three disjoint slices, each run through its own plan instance
        // (as worker processes would), absorbed out of order.
        let mut coord_plan = EnginePlan::new();
        let ch = build(&mut coord_plan);
        let mut asm = ShardAssembler::new(&ctx, coord_plan).expect("assembler");
        let n = asm.cell_count();
        assert_eq!(n, 4 * 24);
        let cuts = [0, n / 3, 2 * n / 3, n];
        let mut outcomes = Vec::new();
        for w in 0..3 {
            let mut p = EnginePlan::new();
            build(&mut p);
            outcomes.push(run_slice(&ctx, p, cuts[w]..cuts[w + 1]).expect("slice"));
        }
        outcomes.rotate_left(1);
        for o in outcomes {
            asm.absorb(o).expect("absorb");
        }
        let mut merged = asm.finish(3).expect("finish");
        assert_eq!(merged.stats().cells_generated, (4 * 24) as u64);
        assert!(merged.degraded().is_none());
        assert_eq!(merged.take(ch).hourly_series(d1, d2), series);
    }

    #[test]
    fn supervised_sharded_slices_match_single_process() {
        let ctx = Context::with_seed(Fidelity::Test, 9);
        let d1 = Date::new(2020, 3, 9);
        let d2 = Date::new(2020, 3, 12);
        let chaos = ChaosConfig {
            panic: 0.1,
            attempts: 1,
            ..ChaosConfig::zero()
        };
        let build = |plan: &mut EnginePlan| {
            plan.with_supervisor(chaos);
            let vp = Stream::Vantage(VantagePoint::IxpSe);
            let all = plan.scoped("fig-all", |p| p.subscribe(vp, d1, d2, HourlyVolume::new));
            plan.scoped("fig-first", |p| p.subscribe(vp, d1, d1, HourlyVolume::new));
            all
        };
        let mut plan = EnginePlan::new();
        let h = build(&mut plan);
        let mut single = run_with_workers(&ctx, plan, 2).expect("supervised pass");

        let mut coord_plan = EnginePlan::new();
        let ch = build(&mut coord_plan);
        let mut asm = ShardAssembler::new(&ctx, coord_plan).expect("assembler");
        let n = asm.cell_count();
        let cuts = [0, n / 3, 2 * n / 3, n];
        for w in 0..3 {
            let mut p = EnginePlan::new();
            build(&mut p);
            asm.absorb(run_slice(&ctx, p, cuts[w]..cuts[w + 1]).expect("slice"))
                .expect("absorb");
        }
        let mut sharded = asm.finish(3).expect("finish");

        let report = single.degraded().expect("the panic rate quarantines cells");
        assert!(report
            .affected
            .iter()
            .any(|(label, _)| label == "fig-first"));
        assert_eq!(sharded.degraded(), Some(report));
        assert_eq!(
            EngineStats {
                workers: 0,
                ..sharded.stats()
            },
            EngineStats {
                workers: 0,
                ..single.stats()
            }
        );
        assert_eq!(
            sharded.take(ch).hourly_series(d1, d2),
            single.take(h).hourly_series(d1, d2)
        );
    }

    #[test]
    fn quarantined_ranges_degrade_the_assembled_pass() {
        let ctx = Context::with_seed(Fidelity::Test, 9);
        let d = Date::new(2020, 3, 9);
        let mut plan = EnginePlan::new();
        plan.with_supervisor(lockdown_chaos::ChaosConfig::zero());
        plan.scoped("fig-x", |p| {
            p.subscribe(
                Stream::Vantage(VantagePoint::IxpSe),
                d,
                d,
                HourlyVolume::new,
            )
        });
        let mut asm = ShardAssembler::new(&ctx, plan).expect("assembler");
        asm.quarantine_range(0..2, 3, "worker died (test)");
        let out = asm.finish(2).expect("finish");
        let report = out.degraded().expect("degraded");
        assert_eq!(report.quarantined.len(), 2);
        assert_eq!(report.affected, vec![("fig-x".to_string(), 2)]);
        assert!(report
            .render()
            .contains("DEGRADED PASS: 2 cells quarantined"));
    }

    #[test]
    fn worker_count_does_not_change_output() {
        // Two streams of very different volume: the shared queue hands
        // each worker batches of both, in whatever order the race makes.
        let ctx = Context::with_seed(Fidelity::Test, 5);
        let d1 = Date::new(2020, 3, 1);
        let d2 = Date::new(2020, 3, 4);
        let mut reference = None;
        for workers in [1usize, 2, 3, 8] {
            let mut plan = EnginePlan::new();
            let handles = [VantagePoint::IspCe, VantagePoint::IxpSe]
                .map(|vp| plan.subscribe(Stream::Vantage(vp), d1, d2, HourlyVolume::new));
            let mut out =
                run_with_workers(&ctx, plan, workers).expect("archive-free pass cannot fail");
            let stats = EngineStats {
                workers: 0,
                ..out.stats()
            };
            let series = handles.map(|h| out.take(h).hourly_series(d1, d2));
            match &reference {
                None => reference = Some((stats, series)),
                Some(r) => assert_eq!(r, &(stats, series), "workers={workers}"),
            }
        }
    }
}
