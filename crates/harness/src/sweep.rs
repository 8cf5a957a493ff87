//! The parallel sweep engine: every paper experiment is a matrix of
//! independent, deterministic simulations, and this module is the one
//! place that executes such matrices.
//!
//! A sweep is a flat list of **cells** (the [`SweepCell`] trait:
//! `RunSpec` runs, crash/recovery measurements, campaign cells, custom
//! micro cells). The engine
//!
//! * executes cells on a worker pool sized by [`SweepOpts::jobs`]
//!   (default: available hardware parallelism; `1` runs inline on the
//!   calling thread exactly like the historical serial loops);
//! * aggregates outputs **in cell order** regardless of completion
//!   order, so parallel and serial sweeps produce byte-identical
//!   tables and JSON — each cell is a self-contained `Gpu` simulation
//!   with no shared mutable state, making the per-cell result
//!   trivially independent of scheduling;
//! * memoizes finished cells in an on-disk cache keyed by a stable
//!   fingerprint of everything that determines the result (see
//!   [`SweepCell::fingerprint`]), so re-runs skip unchanged cells;
//! * reports progress (`[done/total] cell (ms)`) and collects per-cell
//!   wall-clock into a [`SweepSummary`] for reproduction-budget
//!   bookkeeping.
//!
//! # Fault tolerance
//!
//! Multi-hour campaigns must degrade, not die, so every cell executes
//! inside a fault boundary and resolves to a typed [`CellOutcome`]:
//!
//! * **Panic isolation** — `run` executes under `catch_unwind`; a
//!   panicking cell becomes [`CellOutcome::Panicked`] (an explicit
//!   error row downstream) instead of poisoning the flush mutex and
//!   aborting the whole matrix.
//! * **Bounded cells** — the engine sets no wall-clock deadline and
//!   never retries. Every cell stops on its own deterministic bound
//!   (`CYCLE_LIMIT` for every `Gpu::run*` path, `McOpts::max_states` in
//!   the model checker), so a failure re-run would fail the same way,
//!   and an outcome never depends on the host or on `--jobs`.
//! * **Crash-safe resume journal** — with [`SweepOpts::journal_root`]
//!   set, every successful cell result is also recorded in a per-sweep
//!   journal directory via atomic temp-file + rename, and
//!   [`SweepOpts::resume`] re-executes only the cells missing from the
//!   journal — a `kill -9` mid-sweep loses at most the in-flight
//!   cells.
//!
//! ```no_run
//! use sbrp_harness::sweep::{run_specs, SweepOpts};
//! use sbrp_harness::RunSpec;
//!
//! // Two cells, default parallelism, default cache directory.
//! let specs = vec![RunSpec::default(), RunSpec { seed: 7, ..RunSpec::default() }];
//! let (results, summary) = run_specs(&SweepOpts::default(), &specs);
//! assert_eq!(results.len(), 2);
//! eprintln!("{}", summary.summary_line());
//! ```

use crate::json::{write_atomic, Json};
use crate::{
    run_recovery, run_workload, HarnessError, RecoveryOutput, RunOutput, RunSpec, CYCLE_LIMIT,
};
use sbrp_core::fingerprint::Fingerprint;
use sbrp_gpu_sim::stats::SimStats;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Bumped whenever the cache serialization or the simulator's observable
/// behaviour changes incompatibly; part of every fingerprint, so stale
/// caches miss instead of serving wrong results.
pub const CACHE_SCHEMA: u64 = 3;

/// How a sweep executes.
#[derive(Clone, Debug)]
pub struct SweepOpts {
    /// Worker threads; `0` means available hardware parallelism, `1`
    /// runs cells inline on the calling thread (the historical serial
    /// behaviour).
    pub jobs: usize,
    /// Result-cache directory; `None` disables memoization.
    pub cache_dir: Option<PathBuf>,
    /// Print `[done/total] cell (ms)` progress lines to stderr.
    pub progress: bool,
    /// Root directory for resume journals; each sweep writes its
    /// records into a subdirectory keyed by the sweep's identity (the
    /// ordered cell fingerprints). `None` disables journaling.
    pub journal_root: Option<PathBuf>,
    /// Load existing journal records for this sweep and re-execute only
    /// the cells without one (`--resume`). Journal *writing* is
    /// governed solely by [`SweepOpts::journal_root`].
    pub resume: bool,
}

impl Default for SweepOpts {
    /// Default parallelism, caching under [`SweepOpts::default_cache_dir`],
    /// journaling under [`SweepOpts::default_journal_root`], progress on.
    fn default() -> Self {
        SweepOpts {
            jobs: 0,
            cache_dir: Some(Self::default_cache_dir()),
            progress: true,
            journal_root: Some(Self::default_journal_root()),
            resume: false,
        }
    }
}

impl SweepOpts {
    /// Serial, cache-less, journal-less, silent — bit-for-bit the
    /// pre-engine behaviour; what library callers and tests that
    /// measure the simulator itself should use.
    #[must_use]
    pub fn serial() -> Self {
        SweepOpts {
            jobs: 1,
            cache_dir: None,
            progress: false,
            journal_root: None,
            resume: false,
        }
    }

    /// The conventional cache location, `outputs/.cache` under the
    /// current directory.
    #[must_use]
    pub fn default_cache_dir() -> PathBuf {
        PathBuf::from("outputs").join(".cache")
    }

    /// The conventional resume-journal root,
    /// `outputs/.cache/journal` under the current directory.
    #[must_use]
    pub fn default_journal_root() -> PathBuf {
        Self::default_cache_dir().join("journal")
    }

    /// The worker count this configuration resolves to.
    #[must_use]
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.jobs
        }
    }
}

/// One unit of sweep work: independent, deterministic, and (optionally)
/// cacheable.
///
/// Implementations must uphold the engine's two contracts:
///
/// 1. **Determinism** — `run` depends only on the cell's own fields, so
///    executing on any thread, in any order, yields the same output.
/// 2. **Fingerprint completeness** — every input that can change the
///    output is folded into `fingerprint` (the engine adds nothing but
///    the cache file name). An under-hashed cell silently serves stale
///    results; when in doubt, hash more.
///
/// Workers share the cell list and run each cell on the thread that
/// claimed it, inside one `std::thread::scope`, so cells only need to be
/// `Sync` and may borrow from the caller.
pub trait SweepCell: Sync {
    /// The cell's result. `Send` because workers hand it back across
    /// threads.
    type Out: Send;

    /// Human-readable cell name for progress lines and summaries.
    fn name(&self) -> String;

    /// Stable digest of everything determining the output (config,
    /// kernel, inputs, schema version).
    fn fingerprint(&self) -> u64;

    /// Executes the cell.
    fn run(&self) -> Self::Out;

    /// Classifies a completed output as a failure (returning its
    /// message) or a success (`None`, the default). Failures resolve to
    /// [`CellOutcome::Err`].
    fn failure(&self, _out: &Self::Out) -> Option<String> {
        None
    }

    /// Serializes an output for the cache; `None` skips caching (the
    /// default, and the right choice for errors, which should re-run).
    fn to_cache(&self, _out: &Self::Out) -> Option<String> {
        None
    }

    /// Deserializes a cached output; `None` on any mismatch falls back
    /// to running the cell.
    fn parse_cached(&self, _cached: &str) -> Option<Self::Out> {
        None
    }
}

/// How one cell of a sweep resolved. `Ok` is the only variant produced
/// by pre-fault-tolerance sweeps; the other two are the contained forms
/// of what used to kill the whole process.
#[derive(Clone, Debug)]
pub enum CellOutcome<T> {
    /// The cell completed and its output classified as a success.
    Ok(T),
    /// The cell completed, but its output classified as a failure
    /// ([`SweepCell::failure`]). The typed output is preserved alongside
    /// the failure message.
    Err {
        /// The cell's output.
        out: T,
        /// The failure message.
        message: String,
    },
    /// The cell panicked; the panic payload is captured.
    Panicked {
        /// The panic message.
        message: String,
    },
}

impl<T> CellOutcome<T> {
    /// Whether the cell succeeded.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Ok(_))
    }

    /// The typed output, if one exists (`Ok` and `Err` carry one;
    /// panicked cells have none).
    #[must_use]
    pub fn output(&self) -> Option<&T> {
        match self {
            CellOutcome::Ok(out) | CellOutcome::Err { out, .. } => Some(out),
            _ => None,
        }
    }

    /// The failure description, if the cell failed.
    #[must_use]
    pub fn error(&self) -> Option<String> {
        match self {
            CellOutcome::Ok(_) => None,
            CellOutcome::Err { message, .. } => Some(message.clone()),
            CellOutcome::Panicked { message } => Some(format!("panicked: {message}")),
        }
    }
}

/// Every failing cell of a sweep, aggregated — what strict sweeps
/// report *instead of* panicking on the first failure and discarding
/// the rest.
#[derive(Clone, Debug, Default)]
pub struct SweepFailures {
    /// `(cell name, failure description)`, in cell order.
    pub failures: Vec<(String, String)>,
}

impl SweepFailures {
    /// Prints every failing cell (as a table, to stderr) and exits the
    /// process with a nonzero status — the shared abort path of the
    /// experiment binaries.
    pub fn exit_with_report(&self) -> ! {
        eprint!(
            "{}",
            crate::report::failures_table(&self.failures).to_text()
        );
        eprintln!("sweep: {} cell(s) failed; aborting", self.failures.len());
        std::process::exit(1);
    }
}

impl std::fmt::Display for SweepFailures {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{} sweep cell(s) failed:", self.failures.len())?;
        for (cell, err) in &self.failures {
            writeln!(f, "  {cell}: {err}")?;
        }
        Ok(())
    }
}

impl std::error::Error for SweepFailures {}

/// Splits a finished sweep into its outputs, or the aggregated list of
/// **every** failing cell (never just the first).
///
/// # Errors
/// [`SweepFailures`] naming each failed cell, in cell order.
pub fn unwrap_outcomes<C: SweepCell>(
    cells: &[C],
    outcomes: Vec<CellOutcome<C::Out>>,
) -> Result<Vec<C::Out>, SweepFailures> {
    let mut outs = Vec::with_capacity(outcomes.len());
    let mut failures = Vec::new();
    for (cell, outcome) in cells.iter().zip(outcomes) {
        match outcome {
            CellOutcome::Ok(out) => outs.push(out),
            other => failures.push((
                cell.name(),
                other.error().unwrap_or_else(|| "unknown failure".into()),
            )),
        }
    }
    if failures.is_empty() {
        Ok(outs)
    } else {
        Err(SweepFailures { failures })
    }
}

/// Wall-clock record of one executed cell.
#[derive(Clone, Debug)]
pub struct CellTiming {
    /// The cell's display name.
    pub name: String,
    /// Execution (or cache-load) time in milliseconds.
    pub millis: u64,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// Whether the result came from the resume journal.
    pub resumed: bool,
    /// Whether the cell resolved to a non-`Ok` outcome.
    pub failed: bool,
}

/// What a sweep did: totals and per-cell timings, in cell order.
#[derive(Clone, Debug)]
pub struct SweepSummary {
    /// Worker threads actually used.
    pub jobs: usize,
    /// Total wall-clock of the whole sweep in milliseconds.
    pub wall_millis: u64,
    /// Per-cell timings, in cell order.
    pub timings: Vec<CellTiming>,
}

impl SweepSummary {
    /// Number of cells executed or loaded.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.timings.len()
    }

    /// Number of cells served from the cache.
    #[must_use]
    pub fn cache_hits(&self) -> usize {
        self.timings.iter().filter(|t| t.cached).count()
    }

    /// Number of cells served from the resume journal.
    #[must_use]
    pub fn journal_hits(&self) -> usize {
        self.timings.iter().filter(|t| t.resumed).count()
    }

    /// Number of cells that resolved to a non-`Ok` outcome.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.timings.iter().filter(|t| t.failed).count()
    }

    /// One-line human summary: cells, cache hits, wall-clock, jobs, and
    /// the slowest cell — the line CI prints for trend-watching.
    /// Resumed and failed counts appear only when nonzero, keeping the
    /// happy-path line stable.
    #[must_use]
    pub fn summary_line(&self) -> String {
        let slowest = self
            .timings
            .iter()
            .filter(|t| !t.cached && !t.resumed)
            .max_by_key(|t| t.millis);
        let slowest = match slowest {
            Some(t) => format!("; slowest {} {} ms", t.name, t.millis),
            None => String::new(),
        };
        let resumed = match self.journal_hits() {
            0 => String::new(),
            n => format!(", {n} resumed"),
        };
        let failed = match self.failed() {
            0 => String::new(),
            n => format!("; {n} FAILED"),
        };
        format!(
            "sweep: {} cells ({} cached{resumed}) in {} ms on {} jobs{failed}{slowest}",
            self.cells(),
            self.cache_hits(),
            self.wall_millis,
            self.jobs
        )
    }
}

/// Executes `cells`, returning outcomes in cell order plus the timing
/// summary. See the module docs for the execution and fault model.
pub fn sweep<C: SweepCell>(
    opts: &SweepOpts,
    cells: &[C],
) -> (Vec<CellOutcome<C::Out>>, SweepSummary) {
    sweep_with(opts, cells, |_, _| {})
}

/// Like [`sweep`], but invokes `on_done(index, &outcome)` for every cell
/// **in cell order** as the completed prefix grows — the hook campaign
/// drivers use for streaming per-cell status lines. The hook never runs
/// concurrently with itself and observes cells exactly once each.
pub fn sweep_with<C: SweepCell>(
    opts: &SweepOpts,
    cells: &[C],
    on_done: impl FnMut(usize, &CellOutcome<C::Out>) + Send,
) -> (Vec<CellOutcome<C::Out>>, SweepSummary) {
    let t0 = Instant::now();
    let jobs = opts.effective_jobs().min(cells.len()).max(1);
    let cache = opts.cache_dir.as_deref().inspect(|dir| {
        // Creation failure degrades to cache misses, not sweep failure.
        let _ = std::fs::create_dir_all(dir);
    });
    let journal = opts
        .journal_root
        .as_deref()
        .map(|root| journal_dir(root, cells));
    let ctx = CellContext {
        cache,
        journal: journal.as_deref(),
        resume: opts.resume,
    };

    let mut slots: Vec<Option<(CellOutcome<C::Out>, CellTiming)>> = Vec::new();
    slots.resize_with(cells.len(), || None);

    if jobs <= 1 {
        let mut on_done = on_done;
        for (i, (cell, slot)) in cells.iter().zip(&mut slots).enumerate() {
            let done = run_one(&ctx, i, cell);
            on_done(i, &done.0);
            if opts.progress {
                progress_line(i + 1, cells.len(), &done.1);
            }
            *slot = Some(done);
        }
    } else {
        let next = AtomicUsize::new(0);
        let flush = Mutex::new(FlushState {
            slots: &mut slots,
            flushed: 0,
            on_done,
        });
        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cells.len() {
                        break;
                    }
                    let done = run_one(&ctx, i, &cells[i]);
                    // Cell panics are contained by run_one, but recover
                    // from poisoning anyway (e.g. an on_done hook that
                    // panicked on another worker) — one bad observer
                    // must not wedge result aggregation.
                    let mut guard = flush.lock().unwrap_or_else(PoisonError::into_inner);
                    let FlushState {
                        slots,
                        flushed,
                        on_done,
                    } = &mut *guard;
                    slots[i] = Some(done);
                    // Flush the completed prefix in cell order so the
                    // on_done hook and progress lines are deterministic
                    // in content and order (only their timing varies).
                    while let Some((out, timing)) = slots.get(*flushed).and_then(Option::as_ref) {
                        on_done(*flushed, out);
                        *flushed += 1;
                        if opts.progress {
                            progress_line(*flushed, cells.len(), timing);
                        }
                    }
                });
            }
        });
    }

    let mut outs = Vec::with_capacity(cells.len());
    let mut timings = Vec::with_capacity(cells.len());
    for slot in slots {
        let (out, timing) = slot.expect("every cell ran");
        outs.push(out);
        timings.push(timing);
    }
    let summary = SweepSummary {
        jobs,
        wall_millis: t0.elapsed().as_millis() as u64,
        timings,
    };
    (outs, summary)
}

struct FlushState<'a, Out, F> {
    slots: &'a mut Vec<Option<(CellOutcome<Out>, CellTiming)>>,
    flushed: usize,
    on_done: F,
}

fn progress_line(done: usize, total: usize, t: &CellTiming) {
    let source = if t.cached {
        " (cached)"
    } else if t.resumed {
        " (resumed)"
    } else {
        ""
    };
    let failed = if t.failed { " FAILED" } else { "" };
    eprintln!(
        "[{done}/{total}] {} {} ms{source}{failed}",
        t.name, t.millis
    );
}

/// Everything `run_one` needs besides the cell itself.
struct CellContext<'a> {
    cache: Option<&'a Path>,
    journal: Option<&'a Path>,
    resume: bool,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_one<C: SweepCell>(
    ctx: &CellContext<'_>,
    index: usize,
    cell: &C,
) -> (CellOutcome<C::Out>, CellTiming) {
    let t0 = Instant::now();
    let key = Fingerprint::hex(cell.fingerprint());
    let timing = |cached: bool, resumed: bool, failed: bool, t0: Instant| CellTiming {
        name: cell.name(),
        millis: t0.elapsed().as_millis() as u64,
        cached,
        resumed,
        failed,
    };

    // 1. Resume journal: a record proves this very sweep already
    //    completed the cell successfully.
    if ctx.resume {
        if let Some(dir) = ctx.journal {
            if let Some(out) = read_journal_record(dir, index, &key)
                .and_then(|payload| cell.parse_cached(&payload))
            {
                return (CellOutcome::Ok(out), timing(false, true, false, t0));
            }
        }
    }

    // 2. Fingerprint cache.
    let cache_path = ctx.cache.map(|dir| dir.join(format!("{key}.json")));
    if let Some(path) = &cache_path {
        if let Ok(cached) = std::fs::read_to_string(path) {
            if let Some(out) = cell.parse_cached(&cached) {
                // Mirror cache hits into the journal so a later
                // `--resume` does not depend on the cache surviving.
                if let Some(dir) = ctx.journal {
                    write_journal_record(dir, index, &cell.name(), &key, &cached);
                }
                return (CellOutcome::Ok(out), timing(true, false, false, t0));
            }
        }
    }

    // 3. Execute once, on this worker, behind the fault boundary.
    let outcome = match catch_unwind(AssertUnwindSafe(|| cell.run())) {
        Ok(out) => match cell.failure(&out) {
            None => CellOutcome::Ok(out),
            Some(message) => CellOutcome::Err { out, message },
        },
        Err(payload) => CellOutcome::Panicked {
            message: panic_message(payload.as_ref()),
        },
    };

    // 4. Persist successful outcomes: cache (by fingerprint) and
    //    journal (by sweep + index), both via atomic temp-file+rename
    //    so a kill mid-write can never publish a torn record.
    if let CellOutcome::Ok(out) = &outcome {
        if let Some(serialized) = cell.to_cache(out) {
            if let Some(path) = &cache_path {
                // A failed write only costs the memoization; never the
                // sweep.
                let _ = write_atomic(path, &serialized);
            }
            if let Some(dir) = ctx.journal {
                write_journal_record(dir, index, &cell.name(), &key, &serialized);
            }
        }
    }
    let failed = !outcome.is_ok();
    (outcome, timing(false, false, failed, t0))
}

// ---------------------------------------------------------------------
// Resume journal
// ---------------------------------------------------------------------

/// The per-sweep journal directory under `root`: keyed by the ordered
/// cell fingerprints (plus the schema version), so a resumed invocation
/// of the *same* sweep finds its records and any other sweep — even one
/// sharing cells — does not.
fn journal_dir<C: SweepCell>(root: &Path, cells: &[C]) -> PathBuf {
    let mut fp = Fingerprint::new();
    fp.write_str("journal");
    fp.write_u64(CACHE_SCHEMA);
    for cell in cells {
        fp.write_u64(cell.fingerprint());
    }
    root.join(format!("sweep-{}", Fingerprint::hex(fp.finish())))
}

fn journal_record_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("cell-{index}.json"))
}

/// Reads and validates one journal record, returning the serialized
/// cell payload. Any mismatch (schema, kind, fingerprint) or torn file
/// yields `None` — the cell simply re-runs.
fn read_journal_record(dir: &Path, index: usize, key: &str) -> Option<String> {
    let raw = std::fs::read_to_string(journal_record_path(dir, index)).ok()?;
    let v = Json::parse(&raw).ok()?;
    if v.get("schema")?.as_u64()? != CACHE_SCHEMA
        || v.get("kind")?.as_str()? != "journal"
        || v.get("fp")?.as_str()? != key
    {
        return None;
    }
    Some(v.get("payload")?.as_str()?.to_string())
}

/// Writes one journal record atomically; failures cost only
/// resumability, never the sweep.
fn write_journal_record(dir: &Path, index: usize, name: &str, key: &str, payload: &str) {
    let record = Json::Obj(vec![
        ("schema".into(), Json::U64(CACHE_SCHEMA)),
        ("kind".into(), Json::Str("journal".into())),
        ("fp".into(), Json::Str(key.into())),
        ("name".into(), Json::Str(name.into())),
        ("payload".into(), Json::Str(payload.into())),
    ])
    .render();
    let _ = std::fs::create_dir_all(dir);
    let _ = write_atomic(&journal_record_path(dir, index), &record);
}

// ---------------------------------------------------------------------
// RunSpec cells (the figure/table sweeps)
// ---------------------------------------------------------------------

/// Folds everything a [`RunSpec`] simulation depends on into `fp`: the
/// schema version, the full resolved `GpuConfig`, the spec's workload
/// inputs, and the built kernels (main and recovery) with their launch
/// geometry. The kernel disassembly makes workload-builder changes
/// invalidate caches automatically.
fn fingerprint_spec(fp: &mut Fingerprint, spec: &RunSpec) {
    fp.write_u64(CACHE_SCHEMA);
    fp.write_str(&format!("{:?}", spec.config()));
    fp.write_str(&format!("{:?}", spec.workload));
    fp.write_u64(spec.scale);
    fp.write_u64(spec.seed);
    fp.write_u64(u64::from(spec.demote_scopes));
    let w = spec.workload.instantiate(spec.scale, spec.seed);
    let opts = sbrp_workloads::BuildOpts {
        model: spec.model,
        demote_scopes: spec.demote_scopes,
    };
    for l in std::iter::once(w.kernel(opts)).chain(w.recovery(opts)) {
        fp.write_str(l.kernel.name());
        fp.write_str(&l.kernel.disassemble());
        for &p in l.kernel.params().iter() {
            fp.write_u64(p);
        }
        fp.write_u64(u64::from(l.launch.blocks));
        fp.write_u64(u64::from(l.launch.threads_per_block));
    }
}

/// The cache fingerprint of a crash-free [`RunSpec`] cell, exposed for
/// cache-management tooling and tests.
#[must_use]
pub fn spec_fingerprint(spec: &RunSpec) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write_str("run");
    fingerprint_spec(&mut fp, spec);
    fp.finish()
}

impl SweepCell for RunSpec {
    type Out = Result<RunOutput, HarnessError>;

    fn name(&self) -> String {
        self.cell_name()
    }

    fn fingerprint(&self) -> u64 {
        spec_fingerprint(self)
    }

    fn run(&self) -> Self::Out {
        run_workload(self)
    }

    fn failure(&self, out: &Self::Out) -> Option<String> {
        out.as_ref().err().map(ToString::to_string)
    }

    fn to_cache(&self, out: &Self::Out) -> Option<String> {
        let out = out.as_ref().ok()?;
        Some(format!(
            "{{\"schema\":{CACHE_SCHEMA},\"kind\":\"run\",\"run_cycles\":{},\"verified\":{},\"stats\":{}}}",
            out.cycles,
            out.verified,
            out.stats.to_json()
        ))
    }

    fn parse_cached(&self, cached: &str) -> Option<Self::Out> {
        let v = crate::json::Json::parse(cached).ok()?;
        if v.get("schema")?.as_u64()? != CACHE_SCHEMA || v.get("kind")?.as_str()? != "run" {
            return None;
        }
        let stats = SimStats::from_json(&v.get("stats")?.render()).ok()?;
        Some(Ok(RunOutput {
            cycles: v.get("run_cycles")?.as_u64()?,
            stats,
            verified: v.get("verified")?.as_bool()?,
        }))
    }
}

/// A crash-at-`fraction` + recovery measurement cell (Fig. 11).
#[derive(Clone, Debug)]
pub struct RecoveryCell {
    /// The cell to crash and recover.
    pub spec: RunSpec,
    /// Crash point as a fraction of the crash-free runtime.
    pub fraction: f64,
}

impl SweepCell for RecoveryCell {
    type Out = Result<RecoveryOutput, HarnessError>;

    fn name(&self) -> String {
        format!("{} recovery@{}", self.spec.cell_name(), self.fraction)
    }

    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_str("recovery");
        fp.write_f64(self.fraction);
        fp.write_u64(CYCLE_LIMIT);
        fingerprint_spec(&mut fp, &self.spec);
        fp.finish()
    }

    fn run(&self) -> Self::Out {
        run_recovery(&self.spec, self.fraction)
    }

    fn failure(&self, out: &Self::Out) -> Option<String> {
        out.as_ref().err().map(ToString::to_string)
    }

    fn to_cache(&self, out: &Self::Out) -> Option<String> {
        let out = out.as_ref().ok()?;
        Some(format!(
            "{{\"schema\":{CACHE_SCHEMA},\"kind\":\"recovery\",\"crash_cycle\":{},\
             \"recovery_cycles\":{},\"crash_free_cycles\":{},\"verified\":{}}}",
            out.crash_cycle, out.recovery_cycles, out.crash_free_cycles, out.verified
        ))
    }

    fn parse_cached(&self, cached: &str) -> Option<Self::Out> {
        let v = crate::json::Json::parse(cached).ok()?;
        if v.get("schema")?.as_u64()? != CACHE_SCHEMA || v.get("kind")?.as_str()? != "recovery" {
            return None;
        }
        Some(Ok(RecoveryOutput {
            crash_cycle: v.get("crash_cycle")?.as_u64()?,
            recovery_cycles: v.get("recovery_cycles")?.as_u64()?,
            crash_free_cycles: v.get("crash_free_cycles")?.as_u64()?,
            verified: v.get("verified")?.as_bool()?,
        }))
    }
}

/// Flattens one engine outcome of a `Result`-valued cell into the
/// harness's single error channel: a panicking cell becomes a typed
/// [`HarnessError`] alongside the simulation's own.
pub(crate) fn flatten_outcome<T>(
    cell: String,
    outcome: CellOutcome<Result<T, HarnessError>>,
) -> Result<T, HarnessError> {
    match outcome {
        CellOutcome::Ok(r) | CellOutcome::Err { out: r, .. } => r,
        CellOutcome::Panicked { message } => Err(HarnessError::Panicked { cell, message }),
    }
}

/// Sweeps crash-free [`RunSpec`] cells; the common case for figure
/// binaries. A panicking cell surfaces as a [`HarnessError::Panicked`]
/// row.
pub fn run_specs(
    opts: &SweepOpts,
    specs: &[RunSpec],
) -> (Vec<Result<RunOutput, HarnessError>>, SweepSummary) {
    let (outcomes, summary) = sweep(opts, specs);
    let results = specs
        .iter()
        .zip(outcomes)
        .map(|(spec, outcome)| flatten_outcome(spec.cell_name(), outcome))
        .collect();
    (results, summary)
}

/// Sweeps [`RecoveryCell`]s (Fig. 11), flattening engine-level failures
/// into [`HarnessError`] like [`run_specs`] does.
pub fn run_recovery_cells(
    opts: &SweepOpts,
    cells: &[RecoveryCell],
) -> (Vec<Result<RecoveryOutput, HarnessError>>, SweepSummary) {
    let (outcomes, summary) = sweep(opts, cells);
    let results = cells
        .iter()
        .zip(outcomes)
        .map(|(cell, outcome)| flatten_outcome(cell.name(), outcome))
        .collect();
    (results, summary)
}

/// Splits flattened results into their outputs, or the aggregated list
/// of **every** failing cell, named by `names` in cell order.
pub(crate) fn collect_strict<T>(
    names: impl Iterator<Item = String>,
    results: Vec<Result<T, HarnessError>>,
) -> Result<Vec<T>, SweepFailures> {
    let mut outs = Vec::with_capacity(results.len());
    let mut failures = Vec::new();
    for (name, result) in names.zip(results) {
        match result {
            Ok(out) => outs.push(out),
            Err(e) => failures.push((name, e.detail())),
        }
    }
    if failures.is_empty() {
        Ok(outs)
    } else {
        Err(SweepFailures { failures })
    }
}

/// Like [`run_specs`] but strict: either every cell succeeded, or the
/// aggregated error names **every** failing cell (the historical
/// behaviour panicked on the first failure and discarded the rest).
///
/// # Errors
/// [`SweepFailures`] listing each failed cell with its error.
pub fn run_specs_strict(
    opts: &SweepOpts,
    specs: &[RunSpec],
) -> Result<(Vec<RunOutput>, SweepSummary), SweepFailures> {
    let (results, summary) = run_specs(opts, specs);
    collect_strict(specs.iter().map(RunSpec::cell_name), results).map(|outs| (outs, summary))
}

/// Like [`run_specs_expect`] but for [`RecoveryCell`] sweeps: on any
/// failing cell, prints the aggregated failure table naming **every**
/// failing cell and exits nonzero.
#[must_use]
pub fn run_recovery_cells_expect(
    opts: &SweepOpts,
    cells: &[RecoveryCell],
) -> (Vec<RecoveryOutput>, SweepSummary) {
    let (results, summary) = run_recovery_cells(opts, cells);
    collect_strict(cells.iter().map(SweepCell::name), results)
        .map(|outs| (outs, summary))
        .unwrap_or_else(|failures| failures.exit_with_report())
}

/// Like [`run_specs`] but for binaries: on any failing cell, prints the
/// aggregated failure table naming **every** failing cell and exits the
/// process with a nonzero status.
#[must_use]
pub fn run_specs_expect(opts: &SweepOpts, specs: &[RunSpec]) -> (Vec<RunOutput>, SweepSummary) {
    run_specs_strict(opts, specs).unwrap_or_else(|failures| failures.exit_with_report())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct SquareCell(u64);

    impl SweepCell for SquareCell {
        type Out = u64;
        fn name(&self) -> String {
            format!("sq{}", self.0)
        }
        fn fingerprint(&self) -> u64 {
            self.0
        }
        fn run(&self) -> u64 {
            self.0 * self.0
        }
    }

    fn opts(jobs: usize) -> SweepOpts {
        SweepOpts {
            jobs,
            ..SweepOpts::serial()
        }
    }

    fn values(outcomes: Vec<CellOutcome<u64>>) -> Vec<u64> {
        outcomes
            .into_iter()
            .map(|o| match o {
                CellOutcome::Ok(v) => v,
                other => panic!("unexpected outcome {other:?}"),
            })
            .collect()
    }

    #[test]
    fn outputs_follow_cell_order_at_any_parallelism() {
        let cells: Vec<SquareCell> = (0..50).map(SquareCell).collect();
        let expected: Vec<u64> = (0..50u64).map(|i| i * i).collect();
        for jobs in [1, 2, 4, 16] {
            let (outs, summary) = sweep(&opts(jobs), &cells);
            assert_eq!(values(outs), expected, "jobs={jobs}");
            assert_eq!(summary.cells(), 50);
            assert_eq!(summary.cache_hits(), 0);
            assert_eq!(summary.failed(), 0);
            assert_eq!(summary.jobs, jobs.min(50));
        }
    }

    #[test]
    fn on_done_hook_sees_cells_in_order_exactly_once() {
        let cells: Vec<SquareCell> = (0..40).map(SquareCell).collect();
        for jobs in [1, 8] {
            let mut seen = Vec::new();
            sweep_with(&opts(jobs), &cells, |i, out| match out {
                CellOutcome::Ok(v) => seen.push((i, *v)),
                other => panic!("unexpected outcome {other:?}"),
            });
            let expected: Vec<(usize, u64)> =
                (0..40).map(|i| (i, (i as u64) * (i as u64))).collect();
            assert_eq!(seen, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_sweep_is_fine() {
        let (outs, summary) = sweep::<SquareCell>(&opts(4), &[]);
        assert!(outs.is_empty());
        assert_eq!(summary.cells(), 0);
        assert!(summary.summary_line().contains("0 cells"));
    }

    /// Borrows two caller-owned counters: `run` calls in progress and
    /// `run` calls started. Odd cells panic mid-run.
    struct LiveCell<'a> {
        id: u64,
        live: &'a AtomicUsize,
        started: &'a AtomicUsize,
    }

    /// Decrements the live counter on return and on unwind alike.
    struct Leave<'a>(&'a AtomicUsize);

    impl Drop for Leave<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl SweepCell for LiveCell<'_> {
        type Out = u64;
        fn name(&self) -> String {
            format!("live{}", self.id)
        }
        fn fingerprint(&self) -> u64 {
            self.id
        }
        fn run(&self) -> u64 {
            self.started.fetch_add(1, Ordering::SeqCst);
            self.live.fetch_add(1, Ordering::SeqCst);
            let _leave = Leave(self.live);
            assert!(self.id.is_multiple_of(2), "odd cell {}", self.id);
            self.id
        }
    }

    #[test]
    fn no_cell_outlives_its_sweep() {
        for jobs in [1, 4] {
            let live = AtomicUsize::new(0);
            let started = AtomicUsize::new(0);
            let cells: Vec<LiveCell<'_>> = (0..12)
                .map(|id| LiveCell {
                    id,
                    live: &live,
                    started: &started,
                })
                .collect();
            let (outs, summary) = sweep(&opts(jobs), &cells);
            assert_eq!(live.load(Ordering::SeqCst), 0, "jobs={jobs}");
            assert_eq!(started.load(Ordering::SeqCst), 12, "each cell runs once");
            assert_eq!(summary.failed(), 6);
            for (id, out) in (0..).zip(&outs) {
                match out {
                    CellOutcome::Ok(v) => assert_eq!(*v, id),
                    CellOutcome::Panicked { message } => {
                        assert_eq!(*message, format!("odd cell {id}"));
                    }
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
        }
    }

    #[test]
    fn spec_fingerprint_distinguishes_inputs() {
        let a = RunSpec::default();
        assert_eq!(spec_fingerprint(&a), spec_fingerprint(&a.clone()));
        for mutated in [
            RunSpec {
                seed: 43,
                ..a.clone()
            },
            RunSpec {
                scale: a.scale + 1,
                ..a.clone()
            },
            RunSpec {
                small_gpu: true,
                ..a.clone()
            },
            RunSpec {
                model: sbrp_core::ModelKind::Epoch,
                ..a.clone()
            },
            RunSpec {
                nvm_bw_scale: 2.0,
                ..a.clone()
            },
            RunSpec {
                demote_scopes: true,
                ..a.clone()
            },
        ] {
            assert_ne!(
                spec_fingerprint(&a),
                spec_fingerprint(&mutated),
                "{mutated:?} must change the fingerprint"
            );
        }
    }
}
