//! `grid_cold` and `grid_warm`: one 24-cell sweep-service request
//! (2 devices x 3 families x 2 symbol times x 2 fault plans) on 2 workers.
//!
//! A cold op parses the request and runs it against a fresh cache
//! directory and journal, so every cell is simulated and stored; each cold
//! op gets its own request seed. A warm op replays one request from a cache
//! populated in set-up, so it parses, canonicalizes and reads back without
//! simulating.

use crate::trace::Tracer;
use crate::workload::{self, Finish, Layer, Workload};
use gpgpu_covert::harness::TrialRunner;
use gpgpu_serve::{fnv1a64, CellStatus, Journal, ResultCache, SweepMatrix, SweepService};
use gpgpu_spec::SweepRequest;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

const SEED_TAG: u64 = 0x6121D;
const WORKERS: usize = 2;
const BITS: usize = 24;

/// The request of op `i`; its 24-bit message has twelve ones.
fn request(seed: u64, i: u64) -> String {
    format!(
        "device=kepler+ampere;family=l1+sync+atomic;iters=16+32;bits={BITS};seed={:#x};\
         faults=none|seed=7,intensity=0.5,kinds=evict+storm",
        workload::balanced_seed(seed, SEED_TAG, i, BITS)
    )
}

/// One op's matrix and the wall time of its `run` call.
pub struct GridOp {
    matrix: SweepMatrix,
    digest: u64,
    run_s: f64,
}

pub struct Grid {
    warm: bool,
    seed: u64,
    scratch: PathBuf,
    setups: u64,
    /// Warm only: the populated cache, and the matrix digest and simulated
    /// cycles of the cold run that populated it.
    cache: Option<(PathBuf, u64, u64)>,
    /// Simulated cycles of each timed op that passed its checks.
    cycles: BTreeMap<u64, u64>,
    digest0: u64,
    layer: Layer,
    /// Isolated per-layer time (s), and the `run` time it is a share of.
    iso: BTreeMap<&'static str, f64>,
}

impl Grid {
    pub fn new(warm: bool, seed: u64, scratch: PathBuf) -> Self {
        Grid {
            warm,
            seed,
            scratch,
            setups: 0,
            cache: None,
            cycles: BTreeMap::new(),
            digest0: 0,
            layer: Layer::new(),
            iso: BTreeMap::new(),
        }
    }

    fn op_dir(&self, i: u64) -> PathBuf {
        self.scratch.join(format!("cold-{}-{i}", self.setups))
    }

    /// The isolated measurements of op `i` (traced runs, first ops only):
    /// every cell recomputed as a one-cell request without a cache (checked
    /// against the op's result), then re-stored through the cache and the
    /// journal (cold), or every entry read back per key (warm).
    fn isolate(&mut self, i: u64, op: &GridOp, t: &Tracer) -> Result<(), String> {
        let dir = self.scratch.join(format!("iso-{i}"));
        let mut time =
            |t: &Tracer, name: &'static str, f: &mut dyn FnMut() -> Result<(), String>| {
                let start = Instant::now();
                let out = t.span(name, f);
                *self.iso.entry(name).or_default() += start.elapsed().as_secs_f64();
                out
            };
        if let Some((populated, ..)) = &self.cache {
            let populated = ResultCache::open(populated).map_err(|e| e.to_string())?;
            for o in &op.matrix.outcomes {
                time(t, "serve.cache_load", &mut || match populated.load(&o.key) {
                    Ok(r) if Some(&r) == o.status.result() => Ok(()),
                    _ => Err(format!("cache entry `{}` does not read back", o.key)),
                })?;
            }
        } else {
            let cache = ResultCache::open(&dir).map_err(|e| e.to_string())?;
            let journal = Journal::create(
                &dir.join("journal"),
                fnv1a64(op.matrix.request.to_spec().as_bytes()),
                op.matrix.outcomes.len(),
            )
            .map_err(|e| e.to_string())?;
            for (index, o) in op.matrix.outcomes.iter().enumerate() {
                let c = &o.cell;
                let single = SweepRequest {
                    devices: vec![c.device.clone()],
                    families: vec![c.family.clone()],
                    iterations: vec![c.iterations],
                    bits: c.bits,
                    seed: c.seed,
                    faults: vec![c.faults.clone()],
                    defenses: vec![c.defense.clone()],
                    topology: c.topology.clone(),
                };
                let mut result = None;
                time(t, "serve.compute", &mut || {
                    let service = SweepService::new(single.clone()).map_err(|e| e.to_string())?;
                    let m = service
                        .with_runner(TrialRunner::sequential())
                        .with_backoff_base_ms(0)
                        .run();
                    result = m
                        .map_err(|e| e.to_string())?
                        .outcomes
                        .first()
                        .and_then(|o| o.status.result().cloned());
                    Ok(())
                })?;
                let result = result.filter(|r| Some(r) == o.status.result()).ok_or_else(|| {
                    format!("cell `{}` computed alone disagrees with the grid", o.key)
                })?;
                time(t, "serve.cache_store", &mut || {
                    cache.store(&o.key, &result).map_err(|e| e.to_string())
                })?;
                time(t, "serve.journal_append", &mut || {
                    journal.append(index, &result).map_err(|e| e.to_string())
                })?;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }
}

/// Parses `spec` and runs it on [`WORKERS`] workers, with the cache and
/// journal when given, then takes the matrix digest: one client request.
fn serve(spec: &str, cache: &Path, journal: Option<PathBuf>, t: &Tracer) -> Result<GridOp, String> {
    let request =
        t.span("spec.parse", || SweepRequest::from_spec(spec)).map_err(|e| e.to_string())?;
    let service = t.span("serve.new", || {
        let service = SweepService::new(request)?
            .with_runner(TrialRunner::sequential().with_workers(WORKERS))
            .with_backoff_base_ms(0)
            .with_cache_dir(cache)?;
        Ok::<_, gpgpu_serve::ServeError>(match journal {
            Some(path) => service.with_journal(path, false),
            None => service,
        })
    });
    let service = service.map_err(|e| e.to_string())?;
    let start = Instant::now();
    let matrix = t.span("serve.run", || service.run()).map_err(|e| e.to_string())?;
    let run_s = start.elapsed().as_secs_f64();
    let digest = t.span("serve.digest", || matrix.digest());
    Ok(GridOp { matrix, digest, run_s })
}

/// Every cell's exact result encoding, in grid order.
fn semantic_digest(matrix: &SweepMatrix) -> u64 {
    let lines: Vec<String> = matrix
        .outcomes
        .iter()
        .map(|o| o.status.result().map_or_else(|| "failed".to_string(), |r| r.encode()))
        .collect();
    workload::digest(&lines)
}

fn result_cycles(matrix: &SweepMatrix) -> u64 {
    matrix.outcomes.iter().filter_map(|o| o.status.result()).map(|r| r.cycles).sum()
}

impl Workload for Grid {
    /// Cold ops recompute every cell alone, so only the first two are
    /// isolated; warm isolation reads 24 entries and covers more ops.
    fn count_ops(&self) -> u64 {
        if self.warm {
            200
        } else {
            2
        }
    }

    type Out = GridOp;

    fn setup(&mut self, t: &Tracer) -> Result<(), String> {
        self.setups += 1;
        if self.warm {
            let dir = self.scratch.join(format!("warm-{}", self.setups));
            let cold = serve(&request(self.seed, 0), &dir, None, t)?;
            if !cold.matrix.is_complete() {
                return Err("the populating run left failed cells".into());
            }
            let cycles = result_cycles(&cold.matrix);
            if let Some((old, ..)) = self.cache.replace((dir, cold.digest, cycles)) {
                let _ = std::fs::remove_dir_all(old);
            }
        }
        let warm = self.op(0, t)?;
        self.record(0, warm, t)
    }

    fn op(&mut self, i: u64, t: &Tracer) -> Result<GridOp, String> {
        match &self.cache {
            Some((dir, ..)) => serve(&request(self.seed, 0), dir, None, t),
            None => {
                let dir = self.op_dir(i);
                serve(&request(self.seed, i), &dir, Some(dir.join("journal")), t)
            }
        }
    }

    fn record(&mut self, i: u64, op: GridOp, t: &Tracer) -> Result<(), String> {
        if !self.warm {
            let _ = std::fs::remove_dir_all(self.op_dir(i));
        }
        let cells = op.matrix.outcomes.len();
        let stats = op.matrix.stats;
        if t.on() && (1..=self.count_ops()).contains(&i) {
            let computed: u64 = op
                .matrix
                .outcomes
                .iter()
                .filter_map(|o| match &o.status {
                    CellStatus::Computed(r) | CellStatus::Recovered { result: r, .. } => {
                        Some(r.cycles)
                    }
                    _ => None,
                })
                .sum();
            for (k, v) in [
                ("serve.computed", stats.computed),
                ("serve.retries", stats.retries),
                ("serve.failed", stats.failed),
                ("serve.quarantined", stats.quarantined),
                ("serve.cached_cells", stats.cached),
                ("serve.cells", cells),
            ] {
                workload::count(&mut self.layer, k, v as u64);
            }
            workload::count(&mut self.layer, "serve.sim_cycles", computed);
            *self.iso.entry("serve.run").or_default() += op.run_s;
            self.isolate(i, &op, t)?;
        }
        if i == 0 {
            self.digest0 = semantic_digest(&op.matrix);
        }
        let cycles = match &self.cache {
            Some((_, digest, cycles)) => {
                if op.digest != *digest || stats.cached != cells {
                    return Err(
                        "the warm replay differs from the run that populated the cache".into()
                    );
                }
                *cycles
            }
            None => result_cycles(&op.matrix),
        };
        if !op.matrix.is_complete() {
            return Err(format!("{} failed cells", stats.failed));
        }
        if i >= 1 {
            self.cycles.insert(i, cycles);
        }
        Ok(())
    }

    fn finish(&mut self, t: &Tracer) -> Finish {
        let mut layer = std::mem::take(&mut self.layer);
        if t.on() {
            let cells = layer.remove("serve.cells").unwrap_or(0.0);
            let cached = layer.remove("serve.cached_cells").unwrap_or(0.0);
            layer.insert("serve.hit_ratio", cached / cells.max(1.0));
            // Isolated layer time as a share of the `run` calls it stands in for.
            let run = self.iso.get("serve.run").copied().unwrap_or(0.0);
            for (name, metric) in [
                ("serve.cache_load", "serve.cache_load_share"),
                ("serve.cache_store", "serve.cache_store_share"),
                ("serve.journal_append", "serve.journal_append_share"),
            ] {
                let spent = self.iso.get(name).copied().unwrap_or(0.0);
                layer.insert(metric, if run > 0.0 { spent / run } else { 0.0 });
            }
            if !self.warm && run > 0.0 {
                let compute = self.iso.get("serve.compute").copied().unwrap_or(0.0);
                layer.insert(
                    "harness.worker_idle_share",
                    (1.0 - compute / (WORKERS as f64 * run)).max(0.0),
                );
            }
        }
        if let Some((dir, ..)) = self.cache.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        Finish {
            op_cycles: std::mem::take(&mut self.cycles),
            failed: BTreeMap::new(),
            digest: self.digest0,
            layer,
        }
    }
}
