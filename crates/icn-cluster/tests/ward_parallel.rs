//! Thread-invariance suite for the parallel stage-2 machinery: the
//! condensed distance build, the NN-chain agglomeration over it and the
//! sampled-Ward extension must all be **bit-identical at any
//! `ICN_THREADS`** — parallelism is an execution detail, never an answer
//! detail.
//!
//! Environment discipline: `ICN_THREADS` is process-global, so every
//! mutation lives inside a single `#[test]` function
//! (`thread_invariance_matrix`) that saves and restores it. Other tests in
//! this binary only ever read results that are thread-invariant by
//! contract, so concurrent execution is safe.

use icn_cluster::{
    agglomerate, agglomerate_condensed, sampled_ward, Condensed, Linkage, MergeHistory,
    SampledWardConfig,
};
use icn_stats::{Matrix, Metric, Rng};
use icn_testkit::{naive_agglomerate, permutation, permute_rows, permute_slice, same_partition};

fn blobs(n: usize, dims: usize, seed: u64) -> Matrix {
    let mut rng = Rng::seed_from(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let centre = (i % 5) as f64 * 3.0;
            (0..dims).map(|_| rng.normal(centre, 1.0)).collect()
        })
        .collect();
    Matrix::from_rows(&rows)
}

/// Exact bit-level fingerprint of a merge history (heights via `to_bits`,
/// labels and sizes verbatim).
fn fingerprint(h: &MergeHistory) -> Vec<(usize, usize, u64, usize)> {
    h.merges
        .iter()
        .map(|m| (m.a, m.b, m.height.to_bits(), m.size))
        .collect()
}

struct EnvGuard {
    saved: Vec<(&'static str, Option<String>)>,
}

impl EnvGuard {
    fn capture(keys: &[&'static str]) -> EnvGuard {
        EnvGuard {
            saved: keys.iter().map(|&k| (k, std::env::var(k).ok())).collect(),
        }
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        // Restore even if an assertion unwinds mid-matrix.
        for (k, v) in &self.saved {
            match v {
                Some(v) => std::env::set_var(k, v),
                None => std::env::remove_var(k),
            }
        }
    }
}

/// The invariance matrix: every `ICN_THREADS` ∈ {1, 2, 8} must reproduce
/// the single-thread baseline bit for bit — condensed matrix, the merge
/// history of every linkage, and sampled-Ward labels alike.
#[test]
fn thread_invariance_matrix() {
    let _guard = EnvGuard::capture(&["ICN_THREADS"]);
    let m = blobs(257, 4, 0xA11CE);
    // Population for the sampled path: big enough that the parallel
    // nearest-centroid assignment path (gated at 4096 rows) engages.
    let big = blobs(5000, 3, 0xB0B);

    std::env::set_var("ICN_THREADS", "1");
    let cond_base = Condensed::from_rows(&m, Metric::SqEuclidean);
    let hist_base: Vec<_> = Linkage::ALL
        .iter()
        .map(|&l| fingerprint(&agglomerate_condensed(&cond_base, l)))
        .collect();
    let sw_cfg = SampledWardConfig {
        sample: 400,
        seed: 17,
        refine_iters: 2,
    };
    let sw_base = sampled_ward(&big, 5, &sw_cfg);

    for threads in ["1", "2", "8"] {
        std::env::set_var("ICN_THREADS", threads);
        let cond = Condensed::from_rows(&m, Metric::SqEuclidean);
        assert_eq!(
            cond.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u64>>(),
            cond_base
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u64>>(),
            "condensed drifted at ICN_THREADS={threads}"
        );
        for (linkage, base) in Linkage::ALL.iter().zip(&hist_base) {
            assert_eq!(
                &fingerprint(&agglomerate_condensed(&cond, *linkage)),
                base,
                "{} merge history drifted at ICN_THREADS={threads}",
                linkage.name()
            );
        }
        let sw = sampled_ward(&big, 5, &sw_cfg);
        assert_eq!(
            sw.labels, sw_base.labels,
            "sampled-ward labels drifted at ICN_THREADS={threads}"
        );
        assert_eq!(sw.sample, sw_base.sample);
        assert_eq!(
            sw.centroids
                .row(0)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u64>>(),
            sw_base
                .centroids
                .row(0)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u64>>(),
            "sampled-ward centroids drifted at ICN_THREADS={threads}"
        );
    }
}

/// Differential oracle: the condensed NN-chain against the testkit's O(n³)
/// greedy agglomeration. Reducible linkages make the two hierarchies equal.
#[test]
fn nn_chain_matches_greedy_oracle() {
    for seed in [1u64, 2, 3] {
        let m = blobs(60, 3, seed);
        let fast = agglomerate(&m, Linkage::Ward);
        let slow = naive_agglomerate(&m, Linkage::Ward);
        for (f, s) in fast.heights().iter().zip(&slow.heights()) {
            assert!(
                (f - s).abs() < 1e-9 * (1.0 + f.abs()),
                "seed {seed}: height {f} vs oracle {s}"
            );
        }
        for k in [2, 5, 9] {
            assert!(
                same_partition(&fast.cut(k), &slow.cut(k)),
                "seed {seed}: k={k} partitions differ"
            );
        }
    }
}

/// Metamorphic: clustering commutes with row permutation — labels of the
/// permuted input are the permuted labels of the original (up to renaming).
#[test]
fn row_permutation_equivariance() {
    let mut rng = Rng::seed_from(77);
    for seed in [11u64, 12] {
        let m = blobs(80, 4, seed);
        let p = permutation(&mut rng, m.rows());
        let base = agglomerate(&m, Linkage::Ward);
        let shuffled = agglomerate(&permute_rows(&m, &p), Linkage::Ward);
        for k in [2, 4, 7] {
            let expected = permute_slice(&base.cut(k), &p);
            assert!(
                same_partition(&shuffled.cut(k), &expected),
                "seed {seed}, k={k}: permuted clustering disagrees"
            );
        }
    }
}

/// The eager condensed updates must be value-preserving for every
/// reducible linkage, not just Ward.
#[test]
fn all_linkages_match_oracle() {
    let m = blobs(40, 3, 99);
    for linkage in Linkage::ALL {
        let fast = agglomerate(&m, linkage);
        let slow = naive_agglomerate(&m, linkage);
        for k in [2, 6] {
            assert!(
                same_partition(&fast.cut(k), &slow.cut(k)),
                "{}: k={k} differs",
                linkage.name()
            );
        }
    }
}

/// Integer grid points plus two duplicates: most pairwise distances come
/// in large tied groups, so every nearest-neighbour scan has to break ties.
/// Rows are interleaved (row `i` is grid point `5i mod 44`) so that tied
/// neighbours sit on both sides of the scanned slot.
fn tie_grid() -> Matrix {
    let mut grid: Vec<Vec<f64>> = (0..6)
        .flat_map(|r| (0..7).map(move |c| vec![r as f64, c as f64]))
        .collect();
    grid.push(vec![2.0, 3.0]);
    grid.push(vec![5.0, 0.0]);
    let n = grid.len();
    let rows: Vec<Vec<f64>> = (0..n).map(|i| grid[i * 5 % n].clone()).collect();
    Matrix::from_rows(&rows)
}

/// Full square matrix of the linkage's base-metric distances.
fn square_distances(data: &Matrix, linkage: Linkage) -> Vec<Vec<f64>> {
    let metric = linkage.base_metric();
    (0..data.rows())
        .map(|i| {
            (0..data.rows())
                .map(|j| metric.distance(data.row(i), data.row(j)))
                .collect()
        })
        .collect()
}

/// Textbook nearest-neighbour chain over a full square matrix with
/// symmetric Lance–Williams updates: scan every live slot in index order
/// with a strict `<`, prefer the previous chain element on a tie, then sort
/// merges by height. The condensed implementation claims exactly this
/// scan order and tie-break.
fn square_nn_chain(data: &Matrix, linkage: Linkage) -> Vec<(usize, usize, u64, usize)> {
    let n = data.rows();
    let mut d = square_distances(data, linkage);
    let mut alive = vec![true; n];
    let mut size = vec![1usize; n];
    let mut label: Vec<usize> = (0..n).collect();
    let mut raw: Vec<(usize, usize, f64, usize)> = Vec::new();
    let mut chain: Vec<usize> = Vec::new();
    while raw.len() + 1 < n {
        if chain.is_empty() {
            chain.push((0..n).find(|&y| alive[y]).unwrap());
        }
        let x = *chain.last().unwrap();
        let prev = chain.len().checked_sub(2).map(|p| chain[p]);
        let mut best = usize::MAX;
        for y in (0..n).filter(|&y| alive[y] && y != x) {
            if best == usize::MAX || d[x][y] < d[x][best] {
                best = y;
            }
        }
        if prev.is_some_and(|p| d[x][p] == d[x][best]) {
            best = prev.unwrap();
        }
        if Some(best) != prev {
            chain.push(best);
            continue;
        }
        chain.truncate(chain.len() - 2);
        let (i, j) = (x.min(best), x.max(best));
        let d_ij = d[i][j];
        for k in (0..n).filter(|&k| alive[k] && k != i && k != j) {
            let v = linkage.update(
                d[i][k],
                d[j][k],
                d_ij,
                size[i] as f64,
                size[j] as f64,
                size[k] as f64,
            );
            d[i][k] = v;
            d[k][i] = v;
        }
        alive[j] = false;
        raw.push((label[i], label[j], d_ij, size[i] + size[j]));
        size[i] += size[j];
        label[i] = n + raw.len() - 1;
    }
    let mut order: Vec<usize> = (0..raw.len()).collect();
    order.sort_by(|&a, &b| raw[a].2.partial_cmp(&raw[b].2).unwrap().then(a.cmp(&b)));
    let mut rank = vec![0usize; raw.len()];
    for (r, &o) in order.iter().enumerate() {
        rank[o] = r;
    }
    let relabel = |l: usize| if l < n { l } else { n + rank[l - n] };
    order
        .iter()
        .map(|&o| {
            let (a, b, h, sz) = raw[o];
            (relabel(a), relabel(b), linkage.to_height(h).to_bits(), sz)
        })
        .collect()
}

/// Tie-heavy differential case. With ties, the greedy oracle's
/// lowest-pair tie-break and the chain's tie-break can build different
/// (equally valid) hierarchies, so the oracle checks are the tie-robust
/// ones: every merge, replayed in height order through the greedy
/// Lance–Williams recurrence, joins a closest live pair; single linkage
/// matches the greedy oracle's heights and its partitions at every
/// untied level; and the history is bit-identical to the square-matrix
/// chain, which pins the split scan's order and tie-break.
#[test]
fn tie_heavy_grid_matches_oracles() {
    let m = tie_grid();
    let n = m.rows();
    for linkage in Linkage::ALL {
        let fast = agglomerate(&m, linkage);
        assert_eq!(
            fingerprint(&fast),
            square_nn_chain(&m, linkage),
            "{}: condensed chain diverged from the square-matrix chain",
            linkage.name()
        );

        // Greedy legality replay (the naive oracle's recurrence).
        let mut d = square_distances(&m, linkage);
        let mut slot_of: Vec<usize> = (0..n).collect(); // label -> slot
        slot_of.resize(2 * n - 1, usize::MAX);
        let mut alive: Vec<usize> = (0..n).collect();
        let mut size = vec![1usize; n];
        for (step, mg) in fast.merges.iter().enumerate() {
            let (i, j) = (slot_of[mg.a], slot_of[mg.b]);
            let closest = alive
                .iter()
                .flat_map(|&p| alive.iter().filter(move |&&q| q > p).map(move |&q| (p, q)))
                .map(|(p, q)| d[p][q])
                .fold(f64::INFINITY, f64::min);
            let got = linkage.to_height(d[i][j]);
            let want = linkage.to_height(closest);
            assert!(
                (got - want).abs() <= 1e-9 * (1.0 + want.abs()),
                "{} step {step}: merged at {got}, closest live pair at {want}",
                linkage.name()
            );
            assert_eq!(size[i] + size[j], mg.size);
            for &k in alive.iter().filter(|&&k| k != i && k != j) {
                let v = linkage.update(
                    d[i][k],
                    d[j][k],
                    d[i][j],
                    size[i] as f64,
                    size[j] as f64,
                    size[k] as f64,
                );
                d[i][k] = v;
                d[k][i] = v;
            }
            size[i] += size[j];
            alive.retain(|&x| x != j);
            slot_of[n + step] = i;
        }

        if linkage == Linkage::Single {
            let slow = naive_agglomerate(&m, linkage);
            assert_eq!(fast.heights(), slow.heights(), "single: heights differ");
            // Between two distinct heights the single-linkage clusters are
            // the connected components of the threshold graph, whatever
            // order the tied merges below took.
            let hs = fast.heights();
            for k in (2..n).filter(|&k| hs[n - k - 1] < hs[n - k]) {
                assert!(
                    same_partition(&fast.cut(k), &slow.cut(k)),
                    "single: k={k} partitions differ"
                );
            }
        }
    }
}
