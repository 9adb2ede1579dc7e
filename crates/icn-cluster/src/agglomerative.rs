//! Agglomerative hierarchical clustering via the nearest-neighbour chain.
//!
//! This is the paper's clustering algorithm (Section 4.2.1): bottom-up
//! agglomeration under Ward's criterion. We use the **nearest-neighbour
//! chain** algorithm, which runs in O(N²) time and, for *reducible*
//! linkages (Ward, single, complete, average all are), produces exactly the
//! same merge hierarchy as the naive O(N³) greedy algorithm. This is the
//! same algorithmic core modern SciPy/scikit-learn use for `ward` linkage.
//!
//! The output is a [`MergeHistory`] in the familiar linkage-matrix shape:
//! step `s` merges clusters `a` and `b` (labels `< N` are original points,
//! labels `≥ N` refer to the cluster created at step `label − N`) at a
//! given height, producing a cluster of recorded size.

use crate::condensed::Condensed;
use crate::linkage::Linkage;
use icn_stats::Matrix;

/// One merge step of the hierarchy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Merge {
    /// First merged cluster label (point id if `< N`, else `N + step`).
    pub a: usize,
    /// Second merged cluster label.
    pub b: usize,
    /// Dendrogram height of this merge (Ward heights are square-rooted
    /// variance increases; see [`Linkage::to_height`]).
    pub height: f64,
    /// Size of the newly formed cluster.
    pub size: usize,
}

/// The full merge history of an agglomerative run (N − 1 merges).
#[derive(Clone, Debug)]
pub struct MergeHistory {
    /// Number of original observations.
    pub n: usize,
    /// Linkage used.
    pub linkage: Linkage,
    /// Merges in execution order (non-decreasing heights for reducible
    /// linkages up to floating-point noise).
    pub merges: Vec<Merge>,
}

impl MergeHistory {
    /// Cluster labels obtained by cutting the hierarchy into `k` clusters.
    ///
    /// Labels are renumbered `0..k` by **decreasing cluster size** (ties by
    /// first-member order), which gives stable, human-friendly ids.
    pub fn cut(&self, k: usize) -> Vec<usize> {
        assert!(
            k >= 1 && k <= self.n,
            "cut: k={k} out of range for n={}",
            self.n
        );
        // Apply the first n-k merges with a union-find.
        let mut uf = UnionFind::new(self.n + self.merges.len());
        for (step, m) in self.merges.iter().take(self.n - k).enumerate() {
            let new_label = self.n + step;
            uf.union(m.a, new_label);
            uf.union(m.b, new_label);
        }
        canonical_labels(self.n, |i| uf.find(i))
    }

    /// The height threshold that separates exactly `k` clusters: cutting
    /// anywhere in `[merge[n-k-1].height, merge[n-k].height)` yields `k`
    /// clusters. Returns the midpoint band `(lo, hi)`; `hi` is infinite for
    /// `k = 1`.
    pub fn cut_band(&self, k: usize) -> (f64, f64) {
        assert!(k >= 1 && k <= self.n, "cut_band: bad k");
        let lo = if self.n - k == 0 {
            0.0
        } else {
            self.merges[self.n - k - 1].height
        };
        let hi = if k == 1 {
            f64::INFINITY
        } else {
            self.merges[self.n - k].height
        };
        (lo, hi)
    }

    /// Heights in merge order.
    pub fn heights(&self) -> Vec<f64> {
        self.merges.iter().map(|m| m.height).collect()
    }
}

/// Runs agglomerative clustering on the rows of `data` under `linkage`.
///
/// ```
/// use icn_cluster::{agglomerate, Linkage};
/// use icn_stats::Matrix;
/// // Two obvious groups on a line:
/// let m = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![9.0], vec![9.1]]);
/// let labels = agglomerate(&m, Linkage::Ward).cut(2);
/// assert_eq!(labels[0], labels[1]);
/// assert_eq!(labels[2], labels[3]);
/// assert_ne!(labels[0], labels[2]);
/// ```
///
/// # Panics
/// If `data` has fewer than 2 rows or contains non-finite values.
pub fn agglomerate(data: &Matrix, linkage: Linkage) -> MergeHistory {
    assert!(
        data.rows() >= 2,
        "agglomerate: need at least 2 observations"
    );
    assert!(
        !data.has_non_finite(),
        "agglomerate: non-finite values in input (filter dead antennas first)"
    );
    let cond = Condensed::from_rows(data, linkage.base_metric());
    agglomerate_condensed(&cond, linkage)
}

/// Runs agglomerative clustering on a precomputed condensed distance matrix
/// (must be in the linkage's base metric — squared Euclidean for Ward).
///
/// # Algorithm notes
///
/// The nearest-neighbour chain runs on a **condensed working copy** of
/// `cond` (the strict upper triangle, `N·(N−1)/2` values) with eager
/// Lance–Williams updates, as in SciPy's `nn_chain` (Müllner,
/// arXiv:1109.2378). Every pair has exactly one stored distance, so a
/// merge rewrites each surviving `d(i, k)` once and there is no mirror to
/// keep in sync. Peak working memory is one extra triangle (`4N²` bytes).
///
/// * **Active list.** Retired slots are removed from a sorted index list,
///   so scans and Lance–Williams updates touch `O(remaining)` slots rather
///   than all `n` with a liveness branch per slot.
/// * **Scan order.** The nearest-neighbour scan of `x` visits the active
///   slots in ascending order, split at `x`: slots `y < x` are read
///   strided from column `x` of earlier rows (`block_start(y) + x − y − 1`),
///   slots `y > x` from the contiguous row block of `x`. A strict `<`
///   keeps the lowest-index minimum, and a tie with the previous chain
///   element goes to that element (which guarantees termination).
///
/// The scan order, the tie-break and each `Linkage::update` operand are
/// those of the textbook square-matrix chain, so the merge history is
/// bit-identical to it; the loop is sequential, so it is bit-identical at
/// any `ICN_THREADS` too.
pub fn agglomerate_condensed(cond: &Condensed, linkage: Linkage) -> MergeHistory {
    let _span = icn_obs::Span::enter("agglomerate");
    let n = cond.len();
    assert!(n >= 2, "agglomerate: need at least 2 observations");

    let mut d = cond.as_slice().to_vec();
    let bs = |i: usize| crate::condensed::block_start(n, i);
    // Condensed index of the pair (a, b), a ≠ b.
    let at = |a: usize, b: usize| {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        bs(lo) + hi - lo - 1
    };

    let mut active_list: Vec<usize> = (0..n).collect(); // sorted live slots
    let mut size = vec![1usize; n]; // cluster sizes
    let mut label = (0..n).collect::<Vec<usize>>(); // slot -> output label
    let mut merges: Vec<Merge> = Vec::with_capacity(n - 1);
    let mut chain: Vec<usize> = Vec::with_capacity(n);

    // Raw merge list; heights sorted at the end (NN-chain finds reciprocal
    // pairs out of height order).
    let mut raw: Vec<(usize, usize, f64, usize)> = Vec::with_capacity(n - 1);

    // Per-merge latency tallied locally and flushed once at the end
    // (flush-once pattern: the enabled check happens a single time here,
    // and the hot loop never touches the registry mutex).
    let obs = icn_obs::global();
    let metered = obs.is_enabled();
    let mut merge_hist = icn_obs::Histogram::new();

    while active_list.len() > 1 {
        if chain.is_empty() {
            // Start a new chain from the lowest active cluster.
            chain.push(active_list[0]);
        }
        loop {
            let x = *chain.last().unwrap();
            let prev = chain.len().checked_sub(2).map(|p| chain[p]);
            // Nearest active neighbour of x in ascending slot order: the
            // slots below x (strided), then the row block of x (contiguous).
            let split = active_list.partition_point(|&y| y < x);
            debug_assert_eq!(active_list[split], x);
            let mut best = usize::MAX;
            let mut best_d = f64::INFINITY;
            for &y in &active_list[..split] {
                let dy = d[bs(y) + x - y - 1];
                if dy < best_d {
                    best_d = dy;
                    best = y;
                }
            }
            let row = &d[bs(x)..bs(x) + (n - 1 - x)];
            for &y in &active_list[split + 1..] {
                let dy = row[y - x - 1];
                if dy < best_d {
                    best_d = dy;
                    best = y;
                }
            }
            if let Some(p) = prev {
                if d[at(x, p)] == best_d {
                    best = p;
                }
            }
            debug_assert!(best != usize::MAX);
            if Some(best) != prev {
                chain.push(best);
                continue;
            }
            // Reciprocal nearest neighbours: merge x and best into slot i
            // with a Lance–Williams update of every d(i, k); retire slot j.
            let merge_t0 = metered.then(std::time::Instant::now);
            chain.pop();
            chain.pop();
            let (i, j) = (x.min(best), x.max(best));
            let d_ij = d[at(i, j)];
            let (n_i, n_j) = (size[i] as f64, size[j] as f64);
            for &k in &active_list {
                if k == i || k == j {
                    continue;
                }
                let (ik, jk) = (at(i, k), at(j, k));
                d[ik] = linkage.update(d[ik], d[jk], d_ij, n_i, n_j, size[k] as f64);
            }
            let pos = active_list.binary_search(&j).expect("j active");
            active_list.remove(pos);
            raw.push((label[i], label[j], d_ij, size[i] + size[j]));
            size[i] += size[j];
            // The new cluster's output label is assigned after sorting;
            // remember its creation index via a placeholder in `label`.
            label[i] = n + raw.len() - 1;
            if let Some(t0) = merge_t0 {
                merge_hist.record(t0.elapsed().as_nanos() as u64);
            }
            break;
        }
    }

    // NN-chain emits merges out of height order; sort by height (stable) and
    // relabel so that "cluster N+s" refers to the merge at sorted step s —
    // the standard linkage-matrix convention.
    let mut order: Vec<usize> = (0..raw.len()).collect();
    order.sort_by(|&a, &b| {
        raw[a]
            .2
            .partial_cmp(&raw[b].2)
            .expect("finite heights")
            .then(a.cmp(&b))
    });
    let mut new_index = vec![0usize; raw.len()];
    for (new_pos, &old_pos) in order.iter().enumerate() {
        new_index[old_pos] = new_pos;
    }
    let relabel = |l: usize| -> usize {
        if l < n {
            l
        } else {
            n + new_index[l - n]
        }
    };
    for &old_pos in &order {
        let (a, b, dist, sz) = raw[old_pos];
        merges.push(Merge {
            a: relabel(a),
            b: relabel(b),
            height: linkage.to_height(dist),
            size: sz,
        });
    }

    obs.add_counter("cluster.merges", merges.len() as u64);
    obs.merge_hist("cluster.merge_ns", &merge_hist);
    MergeHistory { n, linkage, merges }
}

/// Renumbers arbitrary representative ids into dense labels `0..k`, ordered
/// by decreasing cluster size (ties broken by first occurrence).
fn canonical_labels(n: usize, mut rep: impl FnMut(usize) -> usize) -> Vec<usize> {
    use std::collections::HashMap;
    let reps: Vec<usize> = (0..n).map(&mut rep).collect();
    let mut counts: HashMap<usize, usize> = HashMap::new();
    let mut first: HashMap<usize, usize> = HashMap::new();
    for (i, &r) in reps.iter().enumerate() {
        *counts.entry(r).or_default() += 1;
        first.entry(r).or_insert(i);
    }
    let mut uniq: Vec<usize> = counts.keys().copied().collect();
    uniq.sort_by_key(|r| (usize::MAX - counts[r], first[r]));
    let map: HashMap<usize, usize> = uniq.into_iter().enumerate().map(|(i, r)| (r, i)).collect();
    reps.into_iter().map(|r| map[&r]).collect()
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_stats::Rng;

    /// Two well-separated 2-D blobs.
    fn blobs() -> (Matrix, Vec<usize>) {
        let mut rng = Rng::seed_from(11);
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for _ in 0..20 {
            rows.push(vec![rng.normal(0.0, 0.3), rng.normal(0.0, 0.3)]);
            truth.push(0);
        }
        for _ in 0..15 {
            rows.push(vec![rng.normal(10.0, 0.3), rng.normal(10.0, 0.3)]);
            truth.push(1);
        }
        (Matrix::from_rows(&rows), truth)
    }

    #[test]
    fn two_blobs_recovered_by_all_linkages() {
        let (m, truth) = blobs();
        for linkage in Linkage::ALL {
            let h = agglomerate(&m, linkage);
            let labels = h.cut(2);
            // Perfect recovery up to label permutation; label 0 is the
            // bigger blob by our canonical ordering.
            assert_eq!(labels, truth, "{}", linkage.name());
        }
    }

    #[test]
    fn merge_count_and_sizes() {
        let (m, _) = blobs();
        let h = agglomerate(&m, Linkage::Ward);
        assert_eq!(h.merges.len(), m.rows() - 1);
        assert_eq!(h.merges.last().unwrap().size, m.rows());
    }

    #[test]
    fn heights_monotone_for_reducible_linkages() {
        let (m, _) = blobs();
        for linkage in Linkage::ALL {
            let h = agglomerate(&m, linkage);
            let hs = h.heights();
            for w in hs.windows(2) {
                assert!(
                    w[1] >= w[0] - 1e-9,
                    "{}: heights {w:?} not monotone",
                    linkage.name()
                );
            }
        }
    }

    #[test]
    fn cut_partitions_are_nested() {
        let (m, _) = blobs();
        let h = agglomerate(&m, Linkage::Ward);
        let l5 = h.cut(5);
        let l2 = h.cut(2);
        // Every k=5 cluster must live inside exactly one k=2 cluster.
        use std::collections::HashMap;
        let mut map: HashMap<usize, usize> = HashMap::new();
        for i in 0..m.rows() {
            match map.get(&l5[i]) {
                None => {
                    map.insert(l5[i], l2[i]);
                }
                Some(&c) => assert_eq!(c, l2[i], "cluster {} split across cuts", l5[i]),
            }
        }
    }

    #[test]
    fn cut_k_equals_n_is_singletons() {
        let (m, _) = blobs();
        let h = agglomerate(&m, Linkage::Ward);
        let labels = h.cut(m.rows());
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), m.rows());
    }

    #[test]
    fn cut_k1_is_single_cluster() {
        let (m, _) = blobs();
        let h = agglomerate(&m, Linkage::Ward);
        assert!(h.cut(1).iter().all(|&l| l == 0));
    }

    #[test]
    fn cut_band_brackets_merges() {
        let (m, _) = blobs();
        let h = agglomerate(&m, Linkage::Ward);
        let (lo, hi) = h.cut_band(2);
        assert!(lo <= hi);
        let (_, hi1) = h.cut_band(1);
        assert!(hi1.is_infinite());
    }

    #[test]
    fn ward_matches_naive_on_small_input() {
        // Brute-force greedy Ward and compare merge heights.
        let mut rng = Rng::seed_from(5);
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|_| (0..3).map(|_| rng.gaussian()).collect())
            .collect();
        let m = Matrix::from_rows(&rows);
        let fast = agglomerate(&m, Linkage::Ward);

        // Naive O(n^3) greedy with the same LW recurrence.
        let n = m.rows();
        let mut d = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in 0..n {
                d[i][j] = icn_stats::distance::sq_euclidean(m.row(i), m.row(j));
            }
        }
        let mut alive: Vec<usize> = (0..n).collect();
        let mut size = vec![1f64; n];
        let mut naive_heights = Vec::new();
        while alive.len() > 1 {
            let (mut bi, mut bj, mut bd) = (0, 0, f64::INFINITY);
            for (ai, &i) in alive.iter().enumerate() {
                for &j in &alive[ai + 1..] {
                    if d[i][j] < bd {
                        bd = d[i][j];
                        bi = i;
                        bj = j;
                    }
                }
            }
            naive_heights.push(bd.sqrt());
            for &k in &alive {
                if k == bi || k == bj {
                    continue;
                }
                let v = Linkage::Ward
                    .update(d[bi][k], d[bj][k], d[bi][bj], size[bi], size[bj], size[k]);
                d[bi][k] = v;
                d[k][bi] = v;
            }
            size[bi] += size[bj];
            alive.retain(|&x| x != bj);
        }
        let fast_heights = fast.heights();
        assert_eq!(fast_heights.len(), naive_heights.len());
        for (f, g) in fast_heights.iter().zip(&naive_heights) {
            assert!((f - g).abs() < 1e-9, "heights differ: {f} vs {g}");
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_input_panics() {
        let mut m = Matrix::zeros(3, 2);
        m.set(1, 1, f64::NAN);
        agglomerate(&m, Linkage::Ward);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_point_panics() {
        agglomerate(&Matrix::zeros(1, 2), Linkage::Ward);
    }

    #[test]
    fn duplicate_points_merge_at_zero_height() {
        let m = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0], vec![5.0, 5.0]]);
        let h = agglomerate(&m, Linkage::Ward);
        assert!(h.merges[0].height.abs() < 1e-12);
    }
}
