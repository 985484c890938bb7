//! [`TraceSpec`]: the typed front door for trace synthesis.
//!
//! `gen-trace` used to thread its knobs (release, seed, scale, query
//! count, output path) positionally through the CLI into ad-hoc
//! `WorkloadConfig` surgery. `TraceSpec` replaces that with a builder
//! whose fields are typed, whose validation lives in exactly one place
//! ([`TraceSpec::validate`]), and whose [`TraceSpec::write`] path streams
//! query-by-query through [`crate::io::TraceWriter`] — so
//! `gen-trace --queries 100000000` runs in constant memory.

use crate::generator::{generate_with, WorkloadConfig};
use crate::io::TraceWriter;
use crate::trace::Trace;
use byc_catalog::sdss::{self, SdssRelease};
use byc_types::{Bytes, Error, Result};
use std::path::PathBuf;

/// A validated recipe for one synthesized trace.
///
/// Build with [`TraceSpec::new`] plus the chainable setters; every entry
/// point ([`TraceSpec::generate`], [`TraceSpec::write`]) funnels through
/// the single [`TraceSpec::validate`] site.
#[derive(Clone, Debug)]
pub struct TraceSpec {
    release: SdssRelease,
    scale: f64,
    seed: u64,
    queries: Option<usize>,
    out: Option<PathBuf>,
}

/// What [`TraceSpec::write`] produced, without holding the queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSummary {
    /// Queries written.
    pub queries: usize,
    /// Total result bytes of the trace (the no-caching baseline).
    pub sequence_cost: Bytes,
}

impl TraceSpec {
    /// A spec for `release` with the defaults the CLI has always used:
    /// full catalog scale, seed 42, the release's preset query count.
    pub fn new(release: SdssRelease) -> Self {
        Self {
            release,
            scale: 1.0,
            seed: 42,
            queries: None,
            out: None,
        }
    }

    /// Catalog scale (1.0 = full size).
    #[must_use]
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Generator seed: traces are bit-reproducible per seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the release's preset query count.
    #[must_use]
    pub fn queries(mut self, queries: usize) -> Self {
        self.queries = Some(queries);
        self
    }

    /// Output path for [`TraceSpec::write`].
    #[must_use]
    pub fn out(mut self, path: impl Into<PathBuf>) -> Self {
        self.out = Some(path.into());
        self
    }

    /// The one validation site for every knob.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for a non-positive or non-finite scale,
    /// or a query-count override of zero or above 2^32 (query ids are
    /// `u32`).
    pub fn validate(&self) -> Result<()> {
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return Err(Error::InvalidConfig(format!(
                "catalog scale must be a positive number, got {}",
                self.scale
            )));
        }
        if self.queries == Some(0) {
            return Err(Error::InvalidConfig(
                "query count must be positive (omit the override for the release preset)".into(),
            ));
        }
        if let Some(queries) = self.queries.filter(|&q| u32::try_from(q - 1).is_err()) {
            return Err(crate::generator::too_many(queries));
        }
        Ok(())
    }

    /// The generator config this spec resolves to.
    fn config(&self) -> WorkloadConfig {
        let mut config = match self.release {
            SdssRelease::Edr => WorkloadConfig::edr(self.seed),
            SdssRelease::Dr1 => WorkloadConfig::dr1(self.seed),
        };
        if let Some(queries) = self.queries {
            config.query_count = queries;
        }
        config
    }

    /// Generate the trace in memory.
    ///
    /// # Errors
    ///
    /// Validation errors (see [`TraceSpec::validate`]) and generation
    /// failures.
    pub fn generate(&self) -> Result<Trace> {
        self.validate()?;
        let catalog = sdss::build(self.release, self.scale, 1);
        crate::generator::generate(&catalog, &self.config())
    }

    /// Stream the trace straight to the configured output path, never
    /// materializing more than one query at a time.
    ///
    /// # Errors
    ///
    /// Validation errors; [`Error::InvalidConfig`] when no output path
    /// was set; generation and I/O failures.
    pub fn write(&self) -> Result<TraceSummary> {
        self.validate()?;
        let out = self.out.as_deref().ok_or_else(|| {
            Error::InvalidConfig("TraceSpec::write needs an output path (.out(FILE))".into())
        })?;
        let catalog = sdss::build(self.release, self.scale, 1);
        let config = self.config();
        let mut w = TraceWriter::create(out, &config.name, config.seed, config.query_count)?;
        let mut sequence_cost = Bytes::ZERO;
        generate_with(&catalog, &config, |q| {
            sequence_cost += q.total_yield;
            w.write(&q)
        })?;
        w.finish()?;
        Ok(TraceSummary {
            queries: config.query_count,
            sequence_cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::read_trace;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("byc-spec-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        assert!(TraceSpec::new(SdssRelease::Edr)
            .scale(0.0)
            .validate()
            .is_err());
        assert!(TraceSpec::new(SdssRelease::Edr)
            .scale(f64::NAN)
            .validate()
            .is_err());
        assert!(TraceSpec::new(SdssRelease::Edr)
            .queries(0)
            .validate()
            .is_err());
        #[cfg(target_pointer_width = "64")]
        {
            assert!(TraceSpec::new(SdssRelease::Edr)
                .queries((1 << 32) + 1)
                .validate()
                .is_err());
            assert!(TraceSpec::new(SdssRelease::Edr)
                .queries(1 << 32)
                .validate()
                .is_ok());
        }
        assert!(TraceSpec::new(SdssRelease::Edr).validate().is_ok());
    }

    #[test]
    fn write_requires_out_path() {
        let err = TraceSpec::new(SdssRelease::Edr)
            .scale(1e-3)
            .queries(5)
            .write()
            .unwrap_err();
        assert!(err.to_string().contains("output path"));
    }

    #[test]
    fn streamed_write_matches_in_memory_generate() {
        let spec = TraceSpec::new(SdssRelease::Edr)
            .scale(1e-3)
            .seed(11)
            .queries(120);
        let whole = spec.generate().unwrap();
        let path = tmp("write.jsonl");
        let summary = spec.clone().out(&path).write().unwrap();
        assert_eq!(summary.queries, 120);
        assert_eq!(summary.sequence_cost, whole.sequence_cost());
        let back = read_trace(&path).unwrap();
        assert_eq!(back, whole);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn presets_resolve_per_release() {
        let edr = TraceSpec::new(SdssRelease::Edr).config();
        assert_eq!(edr.name, "EDR");
        assert_eq!(edr.query_count, 27_663);
        let dr1 = TraceSpec::new(SdssRelease::Dr1).seed(7).config();
        assert_eq!(dr1.name, "DR1");
        assert_eq!(dr1.query_count, 24_567);
        assert_eq!(dr1.seed, 7);
        let overridden = TraceSpec::new(SdssRelease::Edr).queries(99).config();
        assert_eq!(overridden.query_count, 99);
    }
}
