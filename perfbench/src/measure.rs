//! Timing, tracing and checking helpers shared by the workloads.

use icn_ingest::{HourlyRecord, RecordSource, SourceError};
use icn_obs::Json;
use std::time::Instant;

/// What one iteration of a workload measured and checked.
pub struct Outcome {
    /// Wall time of each input generation, in seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of the timed region (for ingest: minus the source).
    pub run_s: f64,
    /// Process CPU time over the timed region (for ingest: minus the
    /// source's thread CPU time).
    pub cpu_s: f64,
    /// Input records the timed region consumed: cells of `T` for the batch
    /// workloads, hourly records for the ingest feed.
    pub records: u64,
    /// Hash of the workload's outputs; must repeat across runs and threads.
    pub fingerprint: u64,
    /// The output checks.
    pub checks: Checks,
    /// Traced wall seconds of the layer calls inside the timed region,
    /// the load generator's (`synth.*`) excluded: the share of `run_s` the
    /// traced layers account for.
    pub attributed_s: f64,
    /// Per-layer counts, reported by the traced pass.
    pub counts: Vec<(&'static str, f64)>,
}

/// Output checks: how many ran and which failed.
#[derive(Default)]
pub struct Checks {
    /// Checks evaluated.
    pub attempted: u32,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `detail` describes the observed values.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(format!("{name}: {}", detail()));
        }
    }
}

/// FNV-1a over 64-bit words: an order-sensitive hash of output bits.
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Mixes in one word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes in a float by its bit pattern.
    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Mixes in a slice of floats.
    pub fn f64s(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        xs.iter().for_each(|&x| self.f64(x));
    }

    /// Mixes in a slice of indices.
    pub fn usizes(&mut self, xs: &[usize]) {
        self.word(xs.len() as u64);
        xs.iter().for_each(|&x| self.word(x as u64));
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Wall and process-CPU clock started at the beginning of a timed region.
pub struct Timer {
    wall: Instant,
    cpu: f64,
}

impl Timer {
    /// Starts both clocks.
    pub fn start() -> Timer {
        Timer {
            wall: Instant::now(),
            cpu: cpu_seconds(CLOCK_PROCESS_CPUTIME_ID),
        }
    }

    /// `(wall seconds, process CPU seconds)` since [`Timer::start`].
    pub fn stop(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - self.cpu,
        )
    }
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Reads a CPU-time clock (user + system) of this process or thread.
fn cpu_seconds(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux, matching `Timespec`) through a pointer to a
    // live, exclusively borrowed local, and keeps no reference to it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The benchmark-side layer hook. With tracing off, [`Layers::call`] is a
/// plain call; with tracing on it opens an `icn_obs` span named after the
/// layer and adds the call's wall time to that layer's total.
pub struct Layers {
    traced: bool,
    walls: Vec<(&'static str, f64)>,
}

impl Layers {
    /// A hook that traces when `traced` is set.
    pub fn new(traced: bool) -> Layers {
        Layers {
            traced,
            walls: Vec::new(),
        }
    }

    /// Whether this hook traces.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Calls `f` as one call into `layer`.
    pub fn call<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.traced {
            return f();
        }
        let _span = icn_obs::Span::enter(layer);
        let t0 = Instant::now();
        let out = f();
        self.add(layer, t0.elapsed().as_secs_f64());
        out
    }

    /// Adds `secs` to `layer`'s total (used to move source time out of the
    /// ingest pipeline's span).
    pub fn add(&mut self, layer: &'static str, secs: f64) {
        if !self.traced {
            return;
        }
        match self.walls.iter_mut().find(|(name, _)| *name == layer) {
            Some((_, w)) => *w += secs,
            None => self.walls.push((layer, secs)),
        }
    }

    /// Total traced wall seconds of every layer but the load generator's
    /// (`synth.*`).
    pub fn attributed(&self) -> f64 {
        self.walls
            .iter()
            .filter(|(layer, _)| !layer.starts_with("synth."))
            .map(|(_, w)| w)
            .sum()
    }

    /// Per-layer wall seconds and the allocator peak growth of the layer's
    /// spans (largest over its calls), as JSON.
    pub fn to_json(&self, snapshot: &icn_obs::Snapshot) -> Json {
        Json::obj(
            self.walls
                .iter()
                .map(|&(layer, wall)| {
                    let peak = snapshot
                        .span_tree
                        .iter()
                        .filter(|s| s.name == layer)
                        .map(|s| s.peak_growth_bytes)
                        .max()
                        .unwrap_or(0);
                    let entry = Json::obj(vec![
                        ("wall_s", Json::num(wall)),
                        ("peak_mb", Json::num(peak as f64 / (1024.0 * 1024.0))),
                    ]);
                    (layer, entry)
                })
                .collect(),
        )
    }
}

/// A [`RecordSource`] wrapper that keeps the generator's time out of the
/// pipeline's: it times every `next_chunk` call (wall and this thread's CPU)
/// and counts the chunks and records it hands out.
pub struct TimedSource<S> {
    inner: S,
    /// Wall seconds spent inside the wrapped source.
    pub wall_s: f64,
    /// Thread CPU seconds spent inside the wrapped source.
    pub cpu_s: f64,
    /// Non-empty chunks handed out.
    pub chunks: u64,
    /// Records handed out.
    pub records: u64,
}

impl<S> TimedSource<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> TimedSource<S> {
        TimedSource {
            inner,
            wall_s: 0.0,
            cpu_s: 0.0,
            chunks: 0,
            records: 0,
        }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: RecordSource> RecordSource for TimedSource<S> {
    fn next_chunk(&mut self, max: usize) -> Result<Vec<HourlyRecord>, SourceError> {
        let cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
        let t0 = Instant::now();
        let chunk = self.inner.next_chunk(max);
        self.wall_s += t0.elapsed().as_secs_f64();
        self.cpu_s += cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
        if let Ok(records) = &chunk {
            if !records.is_empty() {
                self.chunks += 1;
                self.records += records.len() as u64;
            }
        }
        chunk
    }
}
