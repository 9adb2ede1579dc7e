//! Scalable (sampled) Ward path for large antenna populations.
//!
//! The exact stage-2 pipeline materialises the condensed distance matrix
//! (4N² bytes) plus a second condensed matrix of the same size (the
//! NN-chain working copy, later the k-sweep's sqrt matrix): ~8N² bytes,
//! which walls out around N ≈ 10⁴–10⁵ on commodity memory. This module
//! provides the classic sample-cluster-extend escape hatch:
//!
//! 1. draw a seeded sample of `s` rows and run the **exact** Ward
//!    agglomeration on it (so every guarantee of the exact path — NN-chain
//!    equivalence, thread invariance — holds on the sample);
//! 2. cut the sample hierarchy at `k` and pin those labels;
//! 3. assign every remaining row to the nearest cluster centroid
//!    (4-lane squared-Euclidean kernel, parallel over rows);
//! 4. optionally refine: recompute centroids over the *full* assignment
//!    and reassign the non-sample rows, for `refine_iters` rounds. Sample
//!    rows never move, so `s == n` degenerates to exactly the exact path's
//!    labels.
//!
//! Memory is governed by the sample: [`exact_memory_bytes`]`(s)` bounds the
//! transient footprint and [`max_sample_for_budget`] inverts it, so callers
//! state a budget in bytes and get the largest admissible sample.
//! [`ClusterPath::resolve`] picks exact vs sampled from that same budget,
//! which keeps the paper-scale study (N ≈ 4.8k, well under the default
//! budget) on the exact path — golden snapshots of the exact stage-2 hash
//! are unaffected by `ClusterPath::Auto`.

use crate::agglomerative::{agglomerate_condensed, MergeHistory};
use crate::condensed::Condensed;
use crate::linkage::Linkage;
use icn_stats::distance::sq_euclidean4;
use icn_stats::{par, Matrix, Rng};

/// Which stage-2 clustering implementation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClusterPath {
    /// Full condensed matrix + NN-chain Ward. O(N²) memory, exact.
    Exact,
    /// Sampled Ward: exact on a seeded sample, nearest-centroid extension.
    Sampled,
    /// Pick [`Exact`] when it fits the memory budget, else [`Sampled`].
    ///
    /// [`Exact`]: ClusterPath::Exact
    /// [`Sampled`]: ClusterPath::Sampled
    Auto,
}

impl ClusterPath {
    /// Resolves `Auto` against a population size and memory budget.
    pub fn resolve(self, n: usize, budget_bytes: usize) -> ClusterPath {
        match self {
            ClusterPath::Auto => {
                if exact_memory_bytes(n) <= budget_bytes {
                    ClusterPath::Exact
                } else {
                    ClusterPath::Sampled
                }
            }
            fixed => fixed,
        }
    }

    /// Parses the CLI spelling (`exact` / `sampled` / `auto`).
    pub fn parse(s: &str) -> Option<ClusterPath> {
        match s {
            "exact" => Some(ClusterPath::Exact),
            "sampled" => Some(ClusterPath::Sampled),
            "auto" => Some(ClusterPath::Auto),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            ClusterPath::Exact => "exact",
            ClusterPath::Sampled => "sampled",
            ClusterPath::Auto => "auto",
        }
    }
}

/// Memory budget of the exact path at population `n`: a conservative
/// `12n²` bytes. The measured peak is about `8n²` — the condensed upper
/// triangle (≈4n²) plus either the NN-chain's condensed working copy or,
/// after that is freed, the sqrt matrix taken for the k-sweep (≈4n²
/// each). The budget keeps its older, looser constant because
/// [`max_sample_for_budget`] inverts it and the sampled-path golden is
/// pinned to the resulting sample size.
pub fn exact_memory_bytes(n: usize) -> usize {
    12 * n * n
}

/// Largest sample size whose exact-path footprint fits `budget_bytes`
/// (the inverse of [`exact_memory_bytes`]).
pub fn max_sample_for_budget(budget_bytes: usize) -> usize {
    ((budget_bytes / 12) as f64).sqrt() as usize
}

/// Configuration for [`sampled_ward`].
#[derive(Clone, Copy, Debug)]
pub struct SampledWardConfig {
    /// Sample size `s` (clamped to `[k, n]`; `s == n` reproduces the exact
    /// path's labels).
    pub sample: usize,
    /// Seed for the sample draw (independent of the data).
    pub seed: u64,
    /// Centroid-refinement rounds after the initial extension.
    pub refine_iters: usize,
}

/// Result of [`sampled_ward`].
#[derive(Clone, Debug)]
pub struct SampledWardResult {
    /// Per-row cluster assignment, dense `0..k`, full population.
    pub labels: Vec<usize>,
    /// Sorted row indices of the sample (their labels come from the exact
    /// Ward cut and are pinned through refinement).
    pub sample: Vec<usize>,
    /// Final cluster centroids (k × features).
    pub centroids: Matrix,
    /// Bytes of the condensed matrix actually materialised (sample-sized —
    /// the budget regression test gates on this staying under budget).
    pub condensed_bytes: usize,
    /// Refinement rounds executed before convergence or the cap.
    pub refine_rounds: usize,
    /// Exact Ward merge history **of the sample** (n = sample size) —
    /// hierarchy consumers (dendrogram, k-sweep) operate on the sample.
    pub history: MergeHistory,
    /// Condensed distance matrix **of the sample**, in Ward's squared-
    /// Euclidean geometry, kept for the k-sweep.
    pub sample_condensed: Condensed,
}

/// Rows below this count are assigned sequentially; thread spawns cost
/// more than the scan.
const PAR_ASSIGN_MIN: usize = 4096;

/// Nearest-centroid assignment for the rows listed in `which`
/// (lowest-index argmin, strict `<`, identical to the sequential fold).
fn assign_rows(data: &Matrix, centroids: &Matrix, which: &[usize], out: &mut [usize]) -> bool {
    let k = centroids.rows();
    let metered = icn_obs::global().is_enabled();
    let nearest = |row: &[f64]| -> usize {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for c in 0..k {
            let d = sq_euclidean4(row, centroids.row(c));
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        best
    };
    let labels: Vec<usize> = if which.len() >= PAR_ASSIGN_MIN && par::thread_count() > 1 {
        let chunk = (which.len() / (par::thread_count() * 4)).clamp(1, 4096);
        par::map_chunks(which.len(), chunk, |r| {
            let t0 = std::time::Instant::now();
            let part: Vec<usize> = which[r].iter().map(|&i| nearest(data.row(i))).collect();
            if metered {
                icn_obs::global().record_hist("cluster.assign_ns", t0.elapsed().as_nanos() as u64);
            }
            part
        })
        .into_iter()
        .flatten()
        .collect()
    } else {
        let t0 = std::time::Instant::now();
        let part: Vec<usize> = which.iter().map(|&i| nearest(data.row(i))).collect();
        if metered {
            icn_obs::global().record_hist("cluster.assign_ns", t0.elapsed().as_nanos() as u64);
        }
        part
    };
    let mut changed = false;
    for (&i, &l) in which.iter().zip(&labels) {
        if out[i] != l {
            out[i] = l;
            changed = true;
        }
    }
    changed
}

/// Mean of each cluster over the current full assignment. Empty clusters
/// keep their previous centroid (sample labels are dense `0..k`, so after
/// the initial extension every cluster holds at least one sample row).
fn recompute_centroids(data: &Matrix, labels: &[usize], centroids: &mut Matrix) {
    let (k, d) = (centroids.rows(), centroids.cols());
    let mut sums = Matrix::zeros(k, d);
    let mut counts = vec![0usize; k];
    for (i, &l) in labels.iter().enumerate() {
        counts[l] += 1;
        for (s, &v) in sums.row_mut(l).iter_mut().zip(data.row(i)) {
            *s += v;
        }
    }
    for c in 0..k {
        if counts[c] > 0 {
            let inv = 1.0 / counts[c] as f64;
            for (dst, &s) in centroids.row_mut(c).iter_mut().zip(sums.row(c)) {
                *dst = s * inv;
            }
        }
    }
}

/// Sampled Ward clustering: exact Ward on a seeded sample, nearest-centroid
/// extension to the rest, pinned-sample centroid refinement. See the module
/// docs for the contract.
///
/// # Panics
/// If `k == 0` or `k > data.rows()`.
pub fn sampled_ward(data: &Matrix, k: usize, config: &SampledWardConfig) -> SampledWardResult {
    let n = data.rows();
    assert!(
        k >= 1 && k <= n,
        "sampled_ward: k={k} out of range for n={n}"
    );
    let s = config.sample.clamp(k, n);

    let mut span = icn_obs::Span::enter("sampled_ward");
    span.attr("rows", n as u64);
    span.attr("sample", s as u64);

    // Seeded sample, sorted so sample geometry is row-order stable.
    let mut sample = Rng::seed_from(config.seed ^ 0x5A3D_1E57).sample_indices(n, s);
    sample.sort_unstable();
    let in_sample = {
        let mut mask = vec![false; n];
        for &i in &sample {
            mask[i] = true;
        }
        mask
    };

    // Exact Ward on the sample.
    let mut sample_m = Matrix::zeros(s, data.cols());
    for (si, &i) in sample.iter().enumerate() {
        sample_m.row_mut(si).copy_from_slice(data.row(i));
    }
    let cond = Condensed::from_rows(&sample_m, Linkage::Ward.base_metric());
    let condensed_bytes = std::mem::size_of_val(cond.as_slice());
    let history = agglomerate_condensed(&cond, Linkage::Ward);
    let sample_labels = history.cut(k);

    // Seed centroids from the sample clusters, pin the sample labels.
    let mut labels = vec![0usize; n];
    for (si, &i) in sample.iter().enumerate() {
        labels[i] = sample_labels[si];
    }
    let mut centroids = Matrix::zeros(k, data.cols());
    {
        let mut counts = vec![0usize; k];
        for (si, &i) in sample.iter().enumerate() {
            let l = sample_labels[si];
            counts[l] += 1;
            for (dst, &v) in centroids.row_mut(l).iter_mut().zip(data.row(i)) {
                *dst += v;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                let inv = 1.0 / counts[c] as f64;
                for dst in centroids.row_mut(c).iter_mut() {
                    *dst *= inv;
                }
            }
        }
    }

    // Extend to the non-sample rows, then refine with the sample pinned.
    let rest: Vec<usize> = (0..n).filter(|&i| !in_sample[i]).collect();
    let mut refine_rounds = 0;
    if !rest.is_empty() {
        let _assign = icn_obs::Span::enter("assign");
        assign_rows(data, &centroids, &rest, &mut labels);
        for _ in 0..config.refine_iters {
            refine_rounds += 1;
            recompute_centroids(data, &labels, &mut centroids);
            if !assign_rows(data, &centroids, &rest, &mut labels) {
                break;
            }
        }
    }
    // Final centroids reflect the assignment we return.
    recompute_centroids(data, &labels, &mut centroids);
    icn_obs::global().set_gauge("cluster.sampled_sample_rows", s as f64);

    SampledWardResult {
        labels,
        sample,
        centroids,
        condensed_bytes,
        refine_rounds,
        history,
        sample_condensed: cond,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validation::adjusted_rand_index;

    fn blobs(n: usize, seed: u64) -> Matrix {
        let mut rng = Rng::seed_from(seed);
        let centers = [(0.0, 0.0), (8.0, 0.0), (4.0, 7.0)];
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let (x, y) = centers[i % 3];
                vec![rng.normal(x, 0.5), rng.normal(y, 0.5)]
            })
            .collect();
        Matrix::from_rows(&rows)
    }

    #[test]
    fn full_sample_reproduces_exact_ward_labels() {
        let m = blobs(90, 11);
        let exact = agglomerate_condensed(
            &Condensed::from_rows(&m, Linkage::Ward.base_metric()),
            Linkage::Ward,
        )
        .cut(3);
        let sw = sampled_ward(
            &m,
            3,
            &SampledWardConfig {
                sample: m.rows(),
                seed: 7,
                refine_iters: 3,
            },
        );
        assert_eq!(sw.labels, exact, "s == n must degenerate to exact Ward");
        assert_eq!(sw.sample.len(), m.rows());
    }

    #[test]
    fn half_sample_recovers_blobs() {
        let m = blobs(120, 23);
        let exact = agglomerate_condensed(
            &Condensed::from_rows(&m, Linkage::Ward.base_metric()),
            Linkage::Ward,
        )
        .cut(3);
        let sw = sampled_ward(
            &m,
            3,
            &SampledWardConfig {
                sample: 60,
                seed: 7,
                refine_iters: 2,
            },
        );
        let ari = adjusted_rand_index(&exact, &sw.labels);
        assert!(ari > 0.99, "well-separated blobs must agree, ARI={ari}");
        // Condensed matrix is sample-sized, not population-sized.
        assert_eq!(sw.condensed_bytes, 60 * 59 / 2 * 8);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let m = blobs(100, 5);
        let cfg = SampledWardConfig {
            sample: 40,
            seed: 99,
            refine_iters: 2,
        };
        let a = sampled_ward(&m, 3, &cfg);
        let b = sampled_ward(&m, 3, &cfg);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.sample, b.sample);
    }

    #[test]
    fn sample_labels_stay_pinned_through_refinement() {
        let m = blobs(150, 31);
        let cfg = SampledWardConfig {
            sample: 50,
            seed: 13,
            refine_iters: 4,
        };
        let sw = sampled_ward(&m, 3, &cfg);
        // Re-derive the sample's exact Ward cut and check it survived.
        let mut sm = Matrix::zeros(sw.sample.len(), m.cols());
        for (si, &i) in sw.sample.iter().enumerate() {
            sm.row_mut(si).copy_from_slice(m.row(i));
        }
        let cut = agglomerate_condensed(
            &Condensed::from_rows(&sm, Linkage::Ward.base_metric()),
            Linkage::Ward,
        )
        .cut(3);
        for (si, &i) in sw.sample.iter().enumerate() {
            assert_eq!(sw.labels[i], cut[si], "sample row {i} moved");
        }
    }

    #[test]
    fn budget_math_round_trips() {
        for budget in [1 << 20, 64 << 20, 512 << 20] {
            let s = max_sample_for_budget(budget);
            assert!(exact_memory_bytes(s) <= budget);
            assert!(exact_memory_bytes(s + 2) > budget);
        }
        assert_eq!(ClusterPath::Auto.resolve(100, 1 << 30), ClusterPath::Exact);
        assert_eq!(
            ClusterPath::Auto.resolve(100_000, 1 << 30),
            ClusterPath::Sampled
        );
        assert_eq!(
            ClusterPath::Sampled.resolve(10, usize::MAX),
            ClusterPath::Sampled
        );
    }

    #[test]
    fn path_parse_round_trips() {
        for p in [ClusterPath::Exact, ClusterPath::Sampled, ClusterPath::Auto] {
            assert_eq!(ClusterPath::parse(p.as_str()), Some(p));
        }
        assert_eq!(ClusterPath::parse("bogus"), None);
    }
}
