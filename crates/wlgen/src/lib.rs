//! Synthetic workload generators.
//!
//! The paper's corpus (24,275 hand-written queries by 591 users over
//! 3,891 uploaded tables, 2011–2015) is a released dataset we cannot
//! fetch offline, so this crate generates a *behavioural* stand-in: users
//! are sampled from the usage personas the paper identifies (one-shot /
//! exploratory / analytical / pipeline, Fig. 13), upload messy CSVs
//! through the real ingest path, derive view chains, and write queries
//! from idiom-weighted grammars — and every query is actually executed by
//! the service, so plans, runtimes, and logs are measurements, not
//! labels. The SDSS comparison workload is generated the way the real one
//! arose: a fixed astronomy schema and a small set of canned templates
//! instantiated with (mostly duplicated) constants.
//!
//! Generation parameters are calibrated to the paper's aggregate
//! statistics; all *analysis* lives in `sqlshare-workload` and computes
//! everything from the resulting log.

pub mod sdss;
pub mod sqlshare;
pub mod tables;
pub mod text;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlshare_core::{Engine, SqlShare};

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct GeneratorConfig {
    /// RNG seed; corpora are fully deterministic given a seed.
    pub seed: u64,
    /// Linear scale against the paper's deployment: `1.0` ≈ 591 users /
    /// 24k queries (SQLShare) and ≈ 70k queries (SDSS at 1:100 of the
    /// real 7M).
    pub scale: f64,
}

impl GeneratorConfig {
    /// Paper-scale corpus.
    pub fn paper() -> Self {
        GeneratorConfig {
            seed: 0x5915_4a2e,
            scale: 1.0,
        }
    }

    /// Small corpus for tests: ~2% of paper scale.
    pub fn dev() -> Self {
        GeneratorConfig {
            seed: 42,
            scale: 0.02,
        }
    }

    pub(crate) fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }

    /// Scale a paper-scale count, keeping at least `min`.
    pub(crate) fn scaled(&self, paper_value: usize, min: usize) -> usize {
        ((paper_value as f64 * self.scale).round() as usize).max(min)
    }

    /// The empty service a generator drives. Its DOP cap is 4, not the
    /// host's CPU count, so the corpus plans (and the report's operator
    /// tables) come out the same on any host; the cost threshold is the
    /// engine's default.
    pub(crate) fn service(&self) -> SqlShare {
        let mut engine = Engine::new();
        engine.set_max_dop(4);
        SqlShare::with_engine(engine)
    }
}
