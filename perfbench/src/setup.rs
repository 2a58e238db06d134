//! Solver construction on fresh threads with private cache directories.
//!
//! The artifact cache (`qls-cache`) and the fused-cost calibration table
//! (`qls_sim::calibration_count`) are both per-thread or per-directory, so
//! a construction on a reused thread or directory is not cold.  Every
//! measured construction here runs on a new thread whose cache is rooted in
//! a directory of its own below the run's work directory.

use crate::stats::median;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir {
    root: PathBuf,
    next: std::cell::Cell<usize>,
}

impl WorkDir {
    pub fn create(root: PathBuf) -> std::io::Result<WorkDir> {
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A new, empty cache directory.
    pub fn fresh(&self) -> PathBuf {
        let id = self.next.get();
        self.next.set(id + 1);
        let dir = self.root.join(format!("cache-{id}"));
        std::fs::create_dir_all(&dir).expect("work directory is writable");
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Run `f` on a new thread whose artifact cache is rooted at `dir`.
pub fn on_fresh_thread<T: Send>(dir: &Path, f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        s.spawn(|| qls_cache::with_cache_dir(dir, f))
            .join()
            .expect("construction thread panicked")
    })
}

/// Wall time of `f` and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Warm constructions per cold one: they are cheap on the workloads that
/// hit the cache, and a short median is at the mercy of the host's slow
/// phases.
const WARM_PER_COLD: usize = 3;

/// Cold and warm construction times, sampled at even intervals across the
/// measured period so that their medians see the same machine as the
/// solves do.  Each sample is one cold construction (fresh thread, empty
/// cache directory) followed by [`WARM_PER_COLD`] warm constructions (each
/// on a fresh thread, against the directory the cold build just filled).
pub struct SetupSampler {
    cold: Vec<f64>,
    warm: Vec<f64>,
    reps: usize,
    start: Instant,
    interval: f64,
}

impl SetupSampler {
    pub fn new(reps: usize, seconds: f64) -> Self {
        SetupSampler {
            cold: Vec::with_capacity(reps),
            warm: Vec::with_capacity(reps),
            reps,
            start: Instant::now(),
            interval: seconds / reps as f64,
        }
    }

    /// Take every sample that is due by now.
    pub fn poll<T, E: std::fmt::Display>(
        &mut self,
        work: &WorkDir,
        build: impl Fn() -> Result<T, E> + Sync,
    ) -> Result<(), String> {
        while self.cold.len() < self.reps
            && self.start.elapsed().as_secs_f64() >= self.interval * (self.cold.len() as f64 + 0.5)
        {
            self.sample(work, &build)?;
        }
        Ok(())
    }

    /// Take the samples still missing; return (median cold, median warm).
    pub fn finish<T, E: std::fmt::Display>(
        mut self,
        work: &WorkDir,
        build: impl Fn() -> Result<T, E> + Sync,
    ) -> Result<(f64, f64), String> {
        while self.cold.len() < self.reps {
            self.sample(work, &build)?;
        }
        Ok((median(&self.cold), median(&self.warm)))
    }

    fn sample<T, E: std::fmt::Display>(
        &mut self,
        work: &WorkDir,
        build: &(impl Fn() -> Result<T, E> + Sync),
    ) -> Result<(), String> {
        let dir = work.fresh();
        let once = || {
            on_fresh_thread(&dir, || {
                let (secs, built) = timed(build);
                built
                    .map(|_| secs)
                    .map_err(|e| format!("solver construction failed: {e}"))
            })
        };
        self.cold.push(once()?);
        for _ in 0..WARM_PER_COLD {
            self.warm.push(once()?);
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }
}
