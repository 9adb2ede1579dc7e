//! Shared fixtures for the top-level integration tests.
//!
//! Every integration binary used to open with its own copy of the same
//! three lines (generate a small synthetic campaign, run the fast study
//! config); they now share these helpers so a change to the canonical
//! test-scale setup happens in exactly one place. Each test binary
//! compiles this module independently, so helpers unused by a given
//! binary are expected.
#![allow(dead_code)]

use icn_repro::prelude::*;
use icn_synth::Date;

/// The canonical small synthetic campaign used across the suite.
pub fn dataset() -> Dataset {
    Dataset::generate(SynthConfig::small())
}

/// The small campaign shrunk to `scale` of its population.
pub fn dataset_at(scale: f64) -> Dataset {
    Dataset::generate(SynthConfig::small().with_scale(scale))
}

/// The small campaign re-rolled under a different seed.
pub fn dataset_seeded(seed: u64) -> Dataset {
    Dataset::generate(SynthConfig::small().with_seed(seed))
}

/// Runs the fast study configuration over `dataset`.
pub fn study_for(dataset: &Dataset) -> IcnStudy {
    IcnStudy::run(dataset, StudyConfig::fast())
}

/// The canonical fixture: small campaign plus its fast study.
pub fn study() -> (Dataset, IcnStudy) {
    let ds = dataset();
    let st = study_for(&ds);
    (ds, st)
}

/// Scaled-down fixture for tests that synthesise per-session data.
pub fn study_at(scale: f64) -> (Dataset, IcnStudy) {
    let ds = dataset_at(scale);
    let st = study_for(&ds);
    (ds, st)
}

/// A short probe-campaign window starting on the study's first full
/// Monday (2023-01-09), as used by the measurement-plane tests.
pub fn probe_window(days: usize) -> StudyCalendar {
    StudyCalendar::custom(Date::new(2023, 1, 9), days)
}

/// Saves `ICN_THREADS` and restores it on drop — even when an assertion
/// unwinds mid-matrix — so a thread-count matrix never leaks its last
/// setting into other tests of the binary.
pub struct EnvGuard {
    saved: Option<String>,
}

impl EnvGuard {
    pub fn capture() -> EnvGuard {
        EnvGuard {
            saved: std::env::var("ICN_THREADS").ok(),
        }
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        match &self.saved {
            Some(v) => std::env::set_var("ICN_THREADS", v),
            None => std::env::remove_var("ICN_THREADS"),
        }
    }
}
