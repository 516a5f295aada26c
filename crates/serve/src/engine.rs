//! Supervised sweep-job engine.
//!
//! A [`SweepService`] takes one [`SweepRequest`], shards its grid into
//! cells, and runs the cells on the `TrialRunner` worker pool with a
//! supervision layer the raw harness does not have:
//!
//! * **detection** — worker panics (caught per attempt), deadline overruns
//!   and stalls all surface as typed [`TrialError`]s;
//! * **retry** — transient failures ([`TrialError::is_transient`]) are
//!   retried with seeded exponential backoff and a capped attempt budget;
//!   deterministic failures (misconfiguration, saturation, conflicts) fail
//!   fast, because re-running a pure function cannot change its answer;
//! * **graceful degradation** — a sweep always returns a full
//!   [`SweepMatrix`] with one typed [`CellOutcome`] per cell; a dead cell
//!   never aborts its neighbors;
//! * **memoization** — cells are deduped through the content-addressed
//!   [`ResultCache`], corrupt entries are quarantined and recomputed, and
//!   an optional [`Journal`] makes an interrupted run resumable after
//!   `kill -9`.
//!
//! Determinism contract: the *results* in the matrix are a pure function
//! of the request (worker count, chaos schedule, cache state and resume
//! history only change *how* a result was obtained, which the per-cell
//! status records) — so [`SweepMatrix::digest`] is bit-identical across a
//! clean run, a chaos-ridden run, a warm-cache run and a resumed run.

use crate::cache::{fnv1a64, CacheError, CellResult, ResultCache};
use crate::chaos::{ChaosEvent, ChaosPlan};
use crate::journal::{Journal, JournalError};
use gpgpu_covert::atomic_channel::{AtomicChannel, AtomicScenario};
use gpgpu_covert::bits::Message;
use gpgpu_covert::cache_channel::L1Channel;
use gpgpu_covert::harness::{TrialError, TrialRunner};
use gpgpu_covert::mitigations::ChannelFamily;
use gpgpu_covert::nvlink_channel::NvlinkChannel;
use gpgpu_covert::parallel::ParallelSfuChannel;
use gpgpu_covert::sync_channel::SyncChannel;
use gpgpu_covert::CovertError;
use gpgpu_sim::{DeviceTuning, FaultPlan};
use gpgpu_spec::{
    presets, DefenseSpec, DeviceSpec, SpecError, SweepCell, SweepRequest, TopologySpec,
};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Cycle budget reported for injected stalls when the runner imposes no
/// explicit per-trial deadline.
const DEFAULT_STALL_BUDGET: u64 = 1_000_000;

/// Why a sweep service could not be built or started. Per-*cell* failures
/// never surface here — they live in the matrix as typed outcomes.
#[derive(Debug)]
pub enum ServeError {
    /// The sweep request failed validation.
    Request(SpecError),
    /// A fault-axis sub-spec does not parse under the `gpgpu-sim` grammar.
    InvalidFaults {
        /// The offending axis value.
        spec: String,
        /// The fault grammar's typed error.
        error: SpecError,
    },
    /// The journal refused to resume (header mismatch or I/O).
    Journal(JournalError),
    /// The cache directory could not be opened.
    CacheDir {
        /// The directory.
        dir: PathBuf,
        /// The I/O error text.
        error: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Request(e) => write!(f, "{e}"),
            ServeError::InvalidFaults { spec, error } => {
                write!(f, "invalid fault axis value `{spec}`: {error}")
            }
            ServeError::Journal(e) => write!(f, "{e}"),
            ServeError::CacheDir { dir, error } => {
                write!(f, "cannot open cache directory {}: {error}", dir.display())
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// One fully-resolved grid cell, ready to run.
#[derive(Debug, Clone)]
struct JobCell {
    /// The canonicalized cell spec (fault axis normalized through
    /// [`FaultPlan`]'s round trip, so spelling variants dedupe).
    spec: SweepCell,
    /// The canonical cache key ([`SweepCell::key`] of `spec`).
    key: String,
    /// FNV-1a of `key` — the identity every seeded chaos/backoff decision
    /// derives from.
    hash: u64,
    device: DeviceSpec,
    family: ChannelFamily,
    fault: Option<FaultPlan>,
    defense: DefenseSpec,
    topology: Option<TopologySpec>,
}

/// How one cell's result was obtained (or why it was not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellStatus {
    /// Computed fresh on the first attempt.
    Computed(CellResult),
    /// Served from the content-addressed cache.
    Cached(CellResult),
    /// Recovered from the run journal (resume after a hard kill).
    Resumed(CellResult),
    /// Computed after one or more supervised retries.
    Recovered {
        /// The (bit-identical to a clean run) result.
        result: CellResult,
        /// Total attempts, including the successful one.
        attempts: u32,
        /// The transient error the last failed attempt died with.
        last_error: TrialError,
    },
    /// Every attempt failed; the sweep carried on without this cell.
    Failed {
        /// The final attempt's typed error.
        error: TrialError,
        /// Attempts spent (1 for fail-fast deterministic errors).
        attempts: u32,
    },
}

impl CellStatus {
    /// Short status label for tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            CellStatus::Computed(_) => "computed",
            CellStatus::Cached(_) => "cached",
            CellStatus::Resumed(_) => "resumed",
            CellStatus::Recovered { .. } => "recovered",
            CellStatus::Failed { .. } => "failed",
        }
    }

    /// The result, when the cell has one.
    pub fn result(&self) -> Option<&CellResult> {
        match self {
            CellStatus::Computed(r) | CellStatus::Cached(r) | CellStatus::Resumed(r) => Some(r),
            CellStatus::Recovered { result, .. } => Some(result),
            CellStatus::Failed { .. } => None,
        }
    }
}

/// One cell of the outcome matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOutcome {
    /// The canonicalized cell spec.
    pub cell: SweepCell,
    /// The canonical cache key.
    pub key: String,
    /// How the cell fared.
    pub status: CellStatus,
    /// The typed corruption error when this run quarantined the cell's
    /// cache entry before recomputing it.
    pub quarantined: Option<CacheError>,
}

/// Aggregate counters over one run's matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Cells computed fresh on the first attempt.
    pub computed: usize,
    /// Cells served from the result cache.
    pub cached: usize,
    /// Cells recovered from the run journal.
    pub resumed: usize,
    /// Cells that needed supervised retries before succeeding.
    pub recovered: usize,
    /// Cells whose attempt budget ran out (or that failed fast).
    pub failed: usize,
    /// Failed attempts that were retried.
    pub retries: usize,
    /// Corrupt cache entries quarantined (and recomputed).
    pub quarantined: usize,
}

/// The typed per-cell outcome matrix of one sweep run.
#[derive(Debug, Clone)]
pub struct SweepMatrix {
    /// The request this matrix answers.
    pub request: SweepRequest,
    /// One outcome per grid cell, in [`SweepRequest::cells`] order.
    pub outcomes: Vec<CellOutcome>,
    /// Aggregate counters.
    pub stats: ServiceStats,
    /// Human-readable note when journal recovery discarded a torn tail.
    pub recovery_note: Option<String>,
}

impl SweepMatrix {
    /// Whether every cell has a result.
    pub fn is_complete(&self) -> bool {
        self.stats.failed == 0
    }

    /// Content digest of the matrix: FNV-1a over every cell's key and its
    /// exact result encoding (or typed error text). Provenance — computed
    /// vs cached vs resumed vs recovered — is deliberately excluded, so a
    /// clean run, a chaos run, a warm re-run and a resumed run of the same
    /// request all digest identically iff their results are bit-identical.
    pub fn digest(&self) -> u64 {
        let mut text = String::new();
        for o in &self.outcomes {
            text.push_str(&o.key);
            text.push('|');
            match o.status.result() {
                Some(r) => text.push_str(&r.encode()),
                None => {
                    if let CellStatus::Failed { error, .. } = &o.status {
                        text.push_str(&format!("failed:{error}"));
                    }
                }
            }
            text.push('\n');
        }
        fnv1a64(text.as_bytes())
    }

    /// Renders the matrix as an aligned text table with a stats footer and
    /// the content digest (the line CI smoke tests grep for).
    pub fn render(&self) -> String {
        let mut rows: Vec<[String; 8]> = vec![[
            "device".into(),
            "family".into(),
            "iters".into(),
            "faults".into(),
            "defense".into(),
            "status".into(),
            "ber".into(),
            "kbps".into(),
        ]];
        for o in &self.outcomes {
            let (ber, kbps) = match o.status.result() {
                Some(r) => (format!("{:.4}", r.ber), format!("{:.1}", r.bandwidth_kbps)),
                None => ("-".into(), "-".into()),
            };
            let status = match &o.status {
                CellStatus::Recovered { attempts, .. } => format!("recovered({attempts})"),
                CellStatus::Failed { error, .. } => format!("failed: {error}"),
                other => other.label().to_string(),
            };
            rows.push([
                o.cell.device.clone(),
                o.cell.family.clone(),
                o.cell.iterations.to_string(),
                o.cell.faults.clone(),
                o.cell.defense.clone(),
                status,
                ber,
                kbps,
            ]);
        }
        let mut widths = [0usize; 8];
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        for row in &rows {
            let mut line = String::new();
            for (w, cell) in widths.iter().zip(row) {
                line.push_str(&format!("{cell:<w$}  "));
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
        let s = &self.stats;
        out.push_str(&format!(
            "cells={} computed={} cached={} resumed={} recovered={} failed={} retries={} quarantined={}\n",
            self.outcomes.len(),
            s.computed,
            s.cached,
            s.resumed,
            s.recovered,
            s.failed,
            s.retries,
            s.quarantined,
        ));
        if let Some(note) = &self.recovery_note {
            out.push_str(&format!("journal: {note}\n"));
        }
        out.push_str(&format!("matrix digest {:#018x}\n", self.digest()));
        out
    }

    /// Serializes the matrix as JSON (hand-rolled; the workspace carries
    /// no serialization dependency).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"request\": \"{}\",\n", esc(&self.request.to_spec())));
        out.push_str(&format!("  \"digest\": \"{:#018x}\",\n", self.digest()));
        let s = &self.stats;
        out.push_str(&format!(
            "  \"stats\": {{\"computed\": {}, \"cached\": {}, \"resumed\": {}, \"recovered\": {}, \"failed\": {}, \"retries\": {}, \"quarantined\": {}}},\n",
            s.computed, s.cached, s.resumed, s.recovered, s.failed, s.retries, s.quarantined
        ));
        out.push_str("  \"cells\": [\n");
        for (i, o) in self.outcomes.iter().enumerate() {
            let sep = if i + 1 == self.outcomes.len() { "" } else { "," };
            match o.status.result() {
                Some(r) => out.push_str(&format!(
                    "    {{\"key\": \"{}\", \"status\": \"{}\", \"ber\": {:.6}, \"kbps\": {:.3}, \"cycles\": {}}}{sep}\n",
                    esc(&o.key),
                    o.status.label(),
                    r.ber,
                    r.bandwidth_kbps,
                    r.cycles
                )),
                None => {
                    let error = match &o.status {
                        CellStatus::Failed { error, .. } => error.to_string(),
                        _ => String::new(),
                    };
                    out.push_str(&format!(
                        "    {{\"key\": \"{}\", \"status\": \"failed\", \"error\": \"{}\"}}{sep}\n",
                        esc(&o.key),
                        esc(&error)
                    ));
                }
            }
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The supervised sweep engine. Build one per request, configure, `run`.
#[derive(Debug)]
pub struct SweepService {
    request: SweepRequest,
    cells: Vec<JobCell>,
    runner: TrialRunner,
    max_attempts: u32,
    backoff_base_ms: u64,
    chaos: ChaosPlan,
    cache: Option<ResultCache>,
    journal_path: Option<PathBuf>,
    resume: bool,
}

impl SweepService {
    /// Builds a service for `request`: validates it, resolves every axis
    /// value (devices, families, fault plans, defenses, topology) and
    /// canonicalizes the per-cell cache keys.
    ///
    /// # Errors
    ///
    /// [`ServeError::Request`] for an invalid request,
    /// [`ServeError::InvalidFaults`] for a fault axis value the simulator
    /// grammar rejects.
    pub fn new(request: SweepRequest) -> Result<Self, ServeError> {
        request.validate().map_err(ServeError::Request)?;
        let mut cells = Vec::new();
        for raw in request.cells() {
            let fault = if raw.faults == "none" {
                None
            } else {
                Some(FaultPlan::from_spec(&raw.faults).map_err(|error| {
                    ServeError::InvalidFaults { spec: raw.faults.clone(), error }
                })?)
            };
            // Canonicalize the fault axis through the plan's round trip so
            // two spellings of one plan share a cache key.
            let spec = SweepCell {
                faults: fault.as_ref().map_or_else(|| "none".to_string(), FaultPlan::to_spec),
                ..raw
            };
            let device = presets::by_name(&spec.device).expect("validated device alias");
            let family = family_from_label(&spec.family).expect("validated family label");
            let defense = if spec.defense == "none" {
                DefenseSpec::none()
            } else {
                DefenseSpec::from_spec(&spec.defense).expect("validated canonical defense sub-spec")
            };
            let topology = if spec.topology == "none" {
                None
            } else {
                Some(
                    TopologySpec::from_spec(&spec.topology)
                        .expect("validated canonical topology sub-spec"),
                )
            };
            let key = spec.key();
            let hash = fnv1a64(key.as_bytes());
            cells.push(JobCell { spec, key, hash, device, family, fault, defense, topology });
        }
        Ok(SweepService {
            request,
            cells,
            runner: TrialRunner::new(),
            max_attempts: 3,
            backoff_base_ms: 1,
            chaos: ChaosPlan::none(),
            cache: None,
            journal_path: None,
            resume: false,
        })
    }

    /// Uses an explicit runner (worker count, base seed, deadline).
    pub fn with_runner(mut self, runner: TrialRunner) -> Self {
        self.runner = runner;
        self
    }

    /// Enables the content-addressed result cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`ServeError::CacheDir`] when the directory cannot be created.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Result<Self, ServeError> {
        let dir = dir.into();
        let cache = ResultCache::open(&dir)
            .map_err(|e| ServeError::CacheDir { dir, error: e.to_string() })?;
        self.cache = Some(cache);
        Ok(self)
    }

    /// Enables the run journal at `path`. With `resume` false the journal
    /// is truncated; with `resume` true an existing journal for the same
    /// request is recovered first (see [`Journal::resume`]).
    pub fn with_journal(mut self, path: impl Into<PathBuf>, resume: bool) -> Self {
        self.journal_path = Some(path.into());
        self.resume = resume;
        self
    }

    /// Installs a chaos schedule (tests and resilience drills).
    pub fn with_chaos(mut self, chaos: ChaosPlan) -> Self {
        self.chaos = chaos;
        self
    }

    /// Caps supervised attempts per cell (minimum 1).
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the exponential-backoff base (milliseconds; 0 disables
    /// sleeping, which tests use to stay fast).
    pub fn with_backoff_base_ms(mut self, ms: u64) -> Self {
        self.backoff_base_ms = ms;
        self
    }

    /// Number of grid cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The canonical cache keys, in grid order (diagnostics and tests).
    pub fn keys(&self) -> Vec<String> {
        self.cells.iter().map(|c| c.key.clone()).collect()
    }

    /// The seeded backoff delay before retry `retry` (1-based) of the cell
    /// identified by `cell_hash`: an exponential window with full seeded
    /// jitter, a pure function of its inputs so schedules are reproducible.
    pub fn backoff_delay_ms(&self, cell_hash: u64, retry: u32) -> u64 {
        if self.backoff_base_ms == 0 {
            return 0;
        }
        let window = self.backoff_base_ms << retry.min(6).saturating_sub(1);
        let jitter = crate::chaos::mix_for_backoff(cell_hash, retry) % (window + 1);
        window + jitter
    }

    /// Runs the sweep: journal recovery (when resuming), then every
    /// remaining cell on the worker pool under supervision. Always returns
    /// a full matrix — per-cell failures are typed outcomes, not errors.
    ///
    /// # Errors
    ///
    /// Only *run-level* problems: [`ServeError::Journal`] when an existing
    /// journal belongs to a different request or the journal file cannot
    /// be written.
    pub fn run(&self) -> Result<SweepMatrix, ServeError> {
        let request_hash = fnv1a64(self.request.to_spec().as_bytes());
        let mut prefilled: HashMap<usize, CellResult> = HashMap::new();
        let mut recovery_note = None;
        let journal = match &self.journal_path {
            Some(path) if self.resume => {
                let (journal, recovery) = Journal::resume(path, request_hash, self.cells.len())
                    .map_err(ServeError::Journal)?;
                if let Some(damage) = recovery.damage {
                    recovery_note = Some(damage.to_string());
                }
                for (index, result) in recovery.entries {
                    prefilled.insert(index, result);
                }
                Some(journal)
            }
            Some(path) => Some(
                Journal::create(path, request_hash, self.cells.len())
                    .map_err(ServeError::Journal)?,
            ),
            None => None,
        };
        let indices: Vec<usize> = (0..self.cells.len()).collect();
        let outcomes = self.runner.map(&indices, |trial, &i| {
            self.process(i, trial.deadline, &prefilled, journal.as_ref())
        });
        let mut stats = ServiceStats::default();
        for o in &outcomes {
            if o.quarantined.is_some() {
                stats.quarantined += 1;
            }
            match &o.status {
                CellStatus::Computed(_) => stats.computed += 1,
                CellStatus::Cached(_) => stats.cached += 1,
                CellStatus::Resumed(_) => stats.resumed += 1,
                CellStatus::Recovered { attempts, .. } => {
                    stats.recovered += 1;
                    stats.retries += (*attempts - 1) as usize;
                }
                CellStatus::Failed { attempts, .. } => {
                    stats.failed += 1;
                    stats.retries += (*attempts - 1) as usize;
                }
            }
        }
        Ok(SweepMatrix { request: self.request.clone(), outcomes, stats, recovery_note })
    }

    /// Supervises one cell end to end: journal prefill, chaos corruption
    /// strike, cache lookup (with quarantine on corruption), then the
    /// attempt loop.
    fn process(
        &self,
        i: usize,
        deadline: Option<u64>,
        prefilled: &HashMap<usize, CellResult>,
        journal: Option<&Journal>,
    ) -> CellOutcome {
        let cell = &self.cells[i];
        let mut quarantined = None;
        if let Some(result) = prefilled.get(&i) {
            return CellOutcome {
                cell: cell.spec.clone(),
                key: cell.key.clone(),
                status: CellStatus::Resumed(result.clone()),
                quarantined,
            };
        }
        if let Some(cache) = &self.cache {
            if self.chaos.corrupts(cell.hash) {
                corrupt_file(&cache.entry_path(&cell.key), &self.chaos, cell.hash);
            }
            match cache.load(&cell.key) {
                Ok(result) => {
                    return CellOutcome {
                        cell: cell.spec.clone(),
                        key: cell.key.clone(),
                        status: CellStatus::Cached(result),
                        quarantined,
                    };
                }
                Err(e) if e.is_miss() => {}
                Err(e) => {
                    cache.quarantine(&cell.key);
                    quarantined = Some(e);
                }
            }
        }
        let status = self.supervise(cell, i, deadline, journal);
        CellOutcome { cell: cell.spec.clone(), key: cell.key.clone(), status, quarantined }
    }

    /// The retry state machine: attempt → classify → (done | fail fast |
    /// backoff and retry) until success or the attempt budget runs out.
    fn supervise(
        &self,
        cell: &JobCell,
        index: usize,
        deadline: Option<u64>,
        journal: Option<&Journal>,
    ) -> CellStatus {
        let budget = deadline.unwrap_or(DEFAULT_STALL_BUDGET);
        let mut last_error: Option<TrialError> = None;
        let mut attempts: u32 = 0;
        while attempts < self.max_attempts {
            let attempt = attempts;
            let injected = self.chaos.injection_for(cell.hash, attempt);
            let caught = catch_unwind(AssertUnwindSafe(|| match injected {
                Some(ChaosEvent::Kill) => {
                    panic!("chaos: worker killed on `{}` attempt {attempt}", cell.key)
                }
                Some(ChaosEvent::Stall) => Err(TrialError::DeadlineExceeded { budget }),
                None => compute_cell(cell).map_err(|e| TrialError::from_covert(&e)),
            }));
            let verdict = caught.unwrap_or_else(|payload| {
                Err(TrialError::Panicked { message: panic_text(payload.as_ref()) })
            });
            attempts += 1;
            match verdict {
                Ok(result) => {
                    if let Some(cache) = &self.cache {
                        // Best effort: a failed store costs a future
                        // recompute, never correctness.
                        let _ = cache.store(&cell.key, &result);
                    }
                    if let Some(journal) = journal {
                        let _ = journal.append(index, &result);
                    }
                    return match last_error {
                        None => CellStatus::Computed(result),
                        Some(last_error) => CellStatus::Recovered { result, attempts, last_error },
                    };
                }
                Err(error) => {
                    if !error.is_transient() || attempts >= self.max_attempts {
                        return CellStatus::Failed { error, attempts };
                    }
                    let delay = self.backoff_delay_ms(cell.hash, attempts);
                    if delay > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(delay));
                    }
                    last_error = Some(error);
                }
            }
        }
        // max_attempts >= 1, so the loop always returns before this.
        unreachable!("supervise loop exits via return")
    }
}

/// Maps a family label to the channel family enum.
fn family_from_label(label: &str) -> Option<ChannelFamily> {
    ChannelFamily::ALL.into_iter().find(|f| f.label() == label)
}

/// Computes one cell: builds the family's channel with the cell's symbol
/// time, defense tuning, fault plan and topology, and transmits the
/// request's pseudo-random message. Pure: identical cells give bit-identical
/// results regardless of worker, attempt or cache history.
fn compute_cell(cell: &JobCell) -> Result<CellResult, CovertError> {
    let msg = Message::pseudo_random(cell.spec.bits as usize, cell.spec.seed);
    let tuning = DeviceTuning::from_defense(&cell.defense);
    let unsupported_faults = || CovertError::Config {
        reason: format!(
            "the {} family does not support fault injection (drop the fault axis for it)",
            cell.spec.family
        ),
    };
    let outcome = match cell.family {
        ChannelFamily::L1 => {
            let mut ch = L1Channel::new(cell.device.clone())
                .with_iterations(cell.spec.iterations)
                .with_tuning(tuning);
            if let Some(plan) = &cell.fault {
                ch = ch.with_faults(*plan);
            }
            ch.transmit(&msg)?
        }
        ChannelFamily::Sync => {
            // The sync channel's symbol time is its round structure; the
            // iters axis is accepted but does not re-pace it.
            let mut ch = SyncChannel::new(cell.device.clone()).with_tuning(tuning);
            if let Some(plan) = &cell.fault {
                ch = ch.with_faults(*plan);
            }
            ch.transmit(&msg)?
        }
        ChannelFamily::ParallelSfu => {
            if cell.fault.is_some() {
                return Err(unsupported_faults());
            }
            ParallelSfuChannel::new(cell.device.clone()).with_tuning(tuning).transmit(&msg)?
        }
        ChannelFamily::Atomic => {
            let mut ch = AtomicChannel::new(cell.device.clone(), AtomicScenario::OneAddress)
                .with_iterations(cell.spec.iterations)
                .with_tuning(tuning);
            if let Some(plan) = &cell.fault {
                ch = ch.with_faults(*plan);
            }
            ch.transmit(&msg)?
        }
        ChannelFamily::Nvlink => {
            let topology = cell.topology.clone().ok_or_else(|| CovertError::Config {
                reason: "the nvlink family needs a multi-GPU topology (set the topology field)"
                    .to_string(),
            })?;
            let mut ch = NvlinkChannel::new(topology)?
                .with_iterations(cell.spec.iterations)
                .with_tuning(tuning);
            if let Some(plan) = &cell.fault {
                ch = ch.with_faults(*plan);
            }
            ch.transmit(&msg)?
        }
    };
    Ok(CellResult::from_outcome(&outcome))
}

/// XORs one seeded byte of `path` in place (the chaos corruption strike).
/// Missing files are fine — a cold cache simply has nothing to rot.
fn corrupt_file(path: &std::path::Path, chaos: &ChaosPlan, cell_hash: u64) {
    let Ok(mut bytes) = std::fs::read(path) else { return };
    if bytes.is_empty() {
        return;
    }
    let (offset, mask) = chaos.corruption_site(cell_hash, bytes.len());
    bytes[offset] ^= mask;
    let _ = std::fs::write(path, bytes);
}

/// Stringifies a caught panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}
