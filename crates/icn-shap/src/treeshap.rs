//! TreeSHAP — polynomial-time exact Shapley values for decision trees.
//!
//! The paper uses the TreeShap model-specific approximation "employed for
//! tree-based ML algorithms such as random forests" because it is
//! "dramatically faster" than model-agnostic estimation (Section 5.1.1).
//! This module computes the same path-dependent attributions as the
//! algorithm of Lundberg et al., but through its **integral form**: for a
//! leaf with unique path features `P` (repeated splits merged), feature
//! `i`'s Shapley weight is
//!
//! ```text
//! phi_i(leaf) = (one_i − zero_i) · v_leaf · ∫₀¹ ∏_{j ∈ P∖{i}} u_j(t) dt,
//!               u_j(t) = one_j·t + zero_j·(1 − t)
//! ```
//!
//! Expanding the product and integrating term-by-term (the Beta integral
//! `∫ t^k (1−t)^{l−1−k} dt = k!(l−1−k)!/l!`) reproduces exactly the
//! `|S|!(l−1−|S|)!/l!` subset weights of the classic recurrence. The
//! integrand is a polynomial of degree `< l`, so an `m = ⌈l_max/2⌉`-point
//! Gauss–Legendre rule ([`crate::quad`]) integrates it **exactly** — this
//! is a reformulation, not an approximation (only ordinary ~1e-15 f64
//! rounding differs from the recursive formulation).
//!
//! ## Kernel
//!
//! The descent keeps `V_q = ∏_j u_j(t_q)` at the `m` quadrature points,
//! updated with one fused multiply per point per node — no
//! cardinality-weight recurrences, no divisions on the hot path. At a
//! leaf, with `W_q = ω_q·V_q`:
//!
//! * **absent-branch features** (`one = 0`): `u_i(t) = zero_i·(1−t)`, so
//!   `zero_i` cancels and every such feature shares one sum
//!   `−Σ_q W_q/(1−t_q)` — O(1) per feature, `1/(1−t_q)` precomputed.
//! * **present-branch features** (`one = 1`): `Σ_q W_q / u_i(t_q)` with
//!   the inverse row `1/(t_q + ratio·(1−t_q))` precomputed **once per
//!   tree** for every node and amortized across all samples of a batch
//!   chunk; repeated-feature merges compute their own inverse row into a
//!   per-depth scratch arena.
//!
//! The walk itself is iterative (explicit frame stack) and allocation-free:
//! a [`Scratch`] arena holds per-depth path/product buffers plus the
//! per-tree tables, allocated once per worker and reused for every
//! (tree, sample) walk. Complexity is O(nodes·m) per tree and sample with
//! `m = ⌈l_max/2⌉`, versus the O(L·D²) of the recurrence and the 2^M
//! enumeration of [`crate::exact`], against which the unit tests verify
//! agreement (and `icn_testkit::naive_forest_shap` keeps the recursive
//! formulation as a differential oracle).
//!
//! The batch API runs the same kernel on blocks of eight samples per tree
//! walk (the private `lanes` module) and replays each sample's leaf
//! contributions in this walk's order, so batch and single-sample results
//! are bit-identical.

mod lanes;

use crate::quad::gauss_legendre_01;
use icn_forest::{DecisionTree, RandomForest, SoaForest, SoaTree};
use icn_stats::{par, Matrix};
use lanes::{replay_lane, walk_lanes, LaneScratch, LANES};

/// Marker for "no node / no slot" in `u32` fields.
const NONE: u32 = u32::MAX;

/// One unique feature on the current root→node path, packed to 16 bytes —
/// the per-depth buffers are copied parent→child at every node visit, so
/// element size is memcpy bandwidth on the hot path.
#[derive(Clone, Copy, Debug)]
struct PathElem {
    /// Feature index.
    feature: u32,
    /// Depth whose row of the per-depth `riu` arena holds this element's
    /// inverse row `1/u(t_q)` (the depth the element was appended or last
    /// merged at). Only meaningful while the element is present-branch.
    src: u32,
    /// Product of cover ratios over the feature's occurrences, with the
    /// one-fraction folded into the sign: positive while every occurrence
    /// followed the sample's branch (`one = 1`), negated once any
    /// occurrence went the other way (`one = 0`). Cover ratios are
    /// strictly positive, so the sign is never ambiguous.
    zero: f64,
}

const EMPTY_ELEM: PathElem = PathElem {
    feature: NONE,
    src: NONE,
    zero: 0.0,
};

/// One pending node visit of the iterative descent. The frame carries the
/// full delta to apply at its own depth: which feature the parent split
/// on, whether that feature already sat on the path (`merged_slot`), and
/// the branch fractions of this child.
#[derive(Clone, Copy, Debug)]
struct Frame {
    node: u32,
    depth: u32,
    parent_len: u32,
    feature: u32,
    /// Path slot of an earlier occurrence of `feature`, or [`NONE`].
    merged_slot: u32,
    /// 1.0 on the branch the sample follows, 0.0 on the other.
    one: f64,
    /// Cover ratio of descending into `node`.
    ratio: f64,
}

/// Reusable per-worker scratch for the TreeSHAP kernel — the walk itself
/// performs no heap allocation. Holds the per-depth path and
/// quadrature-product arenas (a node's buffers are derived from its
/// parent's, one level up, which stays intact while the whole subtree is
/// processed) plus the per-tree quadrature tables installed by `prepare`.
#[derive(Clone, Debug)]
pub struct Scratch {
    /// Arena depth capacity (levels = max tree depth + 1).
    levels: usize,
    /// Slots per level of the `elems` arena.
    elem_stride: usize,
    /// Quadrature order of the prepared tree.
    m: usize,
    /// Per-depth unique-feature path buffers.
    elems: Vec<PathElem>,
    /// Per-depth weighted products `ω_q · ∏_j u_j(t_q)`, `m` per level —
    /// the quadrature weights are folded in at the root, so leaves sum
    /// lanes directly.
    v: Vec<f64>,
    /// Per-depth inverse rows of the path's present-branch elements, `m`
    /// per level — copied from `iu` on descent (or computed, after a
    /// merge), so every leaf dot reads this one small resident arena.
    riu: Vec<f64>,
    /// Leaf staging: the product row of a leaf child, derived in place
    /// from its parent's row (leaves never get a frame or an arena level).
    vleaf: Vec<f64>,
    /// Leaf staging: inverse row of a merge happening at a leaf child.
    rleaf: Vec<f64>,
    /// Leaf staging: the shared absent-element credits `−s_cold · v` per
    /// nonzero leaf class — every absent path element adds exactly these
    /// values, so they are computed once per leaf, not once per element.
    svc: Vec<f64>,
    /// Pending node visits.
    stack: Vec<Frame>,
    /// Gauss–Legendre nodes on [0, 1].
    qt: Vec<f64>,
    /// Gauss–Legendre weights (sum 1).
    qw: Vec<f64>,
    /// `1 − t_q`.
    omt: Vec<f64>,
    /// `1 / (1 − t_q)` — the shared absent-feature leaf sum folds this.
    ic: Vec<f64>,
    /// Per-node inverse rows `1/(t_q + ratio·(1−t_q))`, `m` per node of
    /// the prepared tree.
    iu: Vec<f64>,
}

impl Scratch {
    /// Scratch sized for trees of depth ≤ `max_depth` (root = 0). The
    /// quadrature tables are installed per tree by the kernel; buffers
    /// grow on demand if a deeper tree shows up.
    pub fn for_depth(max_depth: usize) -> Scratch {
        Scratch {
            levels: max_depth + 1,
            elem_stride: max_depth + 1,
            m: 0,
            elems: Vec::new(),
            v: Vec::new(),
            riu: Vec::new(),
            vleaf: Vec::new(),
            rleaf: Vec::new(),
            svc: Vec::new(),
            stack: Vec::with_capacity(max_depth + 2),
            qt: Vec::new(),
            qw: Vec::new(),
            omt: Vec::new(),
            ic: Vec::new(),
            iu: Vec::new(),
        }
    }

    /// Installs the quadrature tables for `tree`: rule order
    /// `m = ⌈max_unique_path/2⌉` (exact for every leaf polynomial of this
    /// tree), derived point tables, and the per-node inverse rows shared
    /// by every sample subsequently walked through this tree.
    fn prepare(&mut self, tree: &SoaTree) {
        if tree.max_depth + 1 > self.levels {
            self.levels = tree.max_depth + 1;
            self.elem_stride = tree.max_depth + 1;
        }
        let m = tree.max_unique_path.div_ceil(2).max(1);
        if m != self.m {
            let (t, w) = gauss_legendre_01(m);
            self.omt = t.iter().map(|&t| 1.0 - t).collect();
            self.ic = self.omt.iter().map(|&o| 1.0 / o).collect();
            self.qt = t;
            self.qw = w;
            self.m = m;
        }
        self.elems.clear();
        self.elems
            .resize(self.levels * self.elem_stride, EMPTY_ELEM);
        self.v.clear();
        self.v.resize(self.levels * m, 0.0);
        self.riu.clear();
        self.riu.resize(self.levels * m, 0.0);
        self.vleaf.clear();
        self.vleaf.resize(m, 0.0);
        self.rleaf.clear();
        self.rleaf.resize(m, 0.0);
        self.svc.clear();
        self.svc.resize(tree.n_classes, 0.0);
        let n = tree.num_nodes();
        self.iu.clear();
        self.iu.resize(n * m, 0.0);
        for i in 0..n {
            let r = tree.ratio[i];
            let row = &mut self.iu[i * m..(i + 1) * m];
            for q in 0..m {
                row[q] = 1.0 / (self.qt[q] + r * self.omt[q]);
            }
        }
    }
}

/// Four-lane dot product — the quadrature sums at a leaf are short
/// (`m = ⌈l_max/2⌉`) serial reductions, so splitting the accumulator
/// breaks the add-latency chain. Deterministic: the fold order depends
/// only on the slice lengths.
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let ra = ca.remainder();
    let rb = cb.remainder();
    for (x, y) in ca.zip(cb) {
        acc[0] += x[0] * y[0];
        acc[1] += x[1] * y[1];
        acc[2] += x[2] * y[2];
        acc[3] += x[3] * y[3];
    }
    let mut s = (acc[0] + acc[2]) + (acc[1] + acc[3]);
    for (x, y) in ra.iter().zip(rb) {
        s += x * y;
    }
    s
}

/// Iterative TreeSHAP walk of one tree (already installed in `scratch` by
/// `Scratch::prepare`) for one sample, accumulating into the flat
/// row-major `phi[feature * n_classes + class]` buffer (zeroed first).
fn walk(tree: &SoaTree, x: &[f64], scratch: &mut Scratch, phi: &mut [f64]) {
    phi.fill(0.0);
    if tree.is_leaf(0) {
        // Single-node tree: no features to credit.
        return;
    }
    let m = scratch.m;
    let stride = scratch.elem_stride;
    let n_classes = tree.n_classes;
    scratch.stack.clear();
    scratch.stack.push(Frame {
        node: 0,
        depth: 0,
        parent_len: 0,
        feature: NONE,
        merged_slot: NONE,
        one: 1.0,
        ratio: 1.0,
    });
    while let Some(fr) = scratch.stack.pop() {
        let depth = fr.depth as usize;
        let ebase = depth * stride;
        let vbase = depth * m;
        let mut len = fr.parent_len as usize;
        if depth == 0 {
            // Root: empty path — seed each lane with its quadrature
            // weight, so leaf sums integrate by summing lanes directly.
            scratch.v[vbase..vbase + m].copy_from_slice(&scratch.qw[..m]);
        } else {
            // Derive this depth's path and product from the parent's
            // buffers one level up, which stay intact while the whole
            // subtree is processed (descendants only write deeper levels).
            let psrc = (depth - 1) * stride;
            scratch.elems.copy_within(psrc..psrc + len, ebase);
            let qt = &scratch.qt[..m];
            let omt = &scratch.omt[..m];
            let (lo, hi) = scratch.v.split_at_mut(vbase);
            let pv = &lo[vbase - m..];
            let vrow = &mut hi[..m];
            if fr.merged_slot == NONE {
                let r = fr.ratio;
                scratch.elems[ebase + len] = PathElem {
                    feature: fr.feature,
                    src: fr.depth,
                    zero: if fr.one != 0.0 { r } else { -r },
                };
                len += 1;
                if fr.one != 0.0 {
                    // Stage the node's precomputed inverse row in this
                    // depth's slot, so leaf dots read one resident arena.
                    let src = fr.node as usize * m;
                    let irow_src = &scratch.iu[src..src + m];
                    let irow = &mut scratch.riu[vbase..vbase + m];
                    for q in 0..m {
                        vrow[q] = pv[q] * (qt[q] + r * omt[q]);
                        irow[q] = irow_src[q];
                    }
                } else {
                    // Absent-branch elements never dereference a row.
                    for q in 0..m {
                        vrow[q] = pv[q] * (r * omt[q]);
                    }
                }
            } else {
                // The feature already sits on the path: a feature's
                // presence decision is made once, so the two occurrences
                // merge — fractions multiply, and the product swaps the
                // old factor for the merged one.
                let k = ebase + fr.merged_slot as usize;
                let old = scratch.elems[k];
                let old_zero = old.zero.abs();
                let old_one = if old.zero > 0.0 { 1.0 } else { 0.0 };
                let one = old_one * fr.one;
                let zero = old_zero * fr.ratio;
                scratch.elems[k] = PathElem {
                    feature: fr.feature,
                    src: fr.depth,
                    zero: if one != 0.0 { zero } else { -zero },
                };
                let irow = &mut scratch.riu[vbase..vbase + m];
                for q in 0..m {
                    let u_old = old_one * qt[q] + old_zero * omt[q];
                    let u_new = one * qt[q] + zero * omt[q];
                    vrow[q] = pv[q] * u_new / u_old;
                    irow[q] = 1.0 / u_new;
                }
            }
        }

        let node = fr.node as usize;
        let feature = tree.feature[node];
        let (hot, cold) = if x[feature as usize] <= tree.threshold[node] {
            (tree.left[node], tree.right[node])
        } else {
            (tree.right[node], tree.left[node])
        };
        let merged_slot = scratch.elems[ebase..ebase + len]
            .iter()
            .position(|e| e.feature == feature)
            .map_or(NONE, |p| p as u32);
        // Cold pushed below hot: popping processes the hot subtree first,
        // so its arrays stay cache-warm along the sample's own decision
        // path. Leaf children never get a frame — their contribution is
        // folded right here from the parent's buffers.
        for (child, one) in [(cold, 0.0f64), (hot, 1.0f64)] {
            let cnode = child as usize;
            let r = tree.ratio[cnode];
            if !tree.is_leaf(cnode) {
                scratch.stack.push(Frame {
                    node: child,
                    depth: fr.depth + 1,
                    parent_len: len as u32,
                    feature,
                    merged_slot,
                    one,
                    ratio: r,
                });
                continue;
            }
            // Derive the leaf's product row (and, after a merge, its
            // inverse row) from the parent's without touching the arenas.
            let hot_child = one != 0.0;
            let own_zero;
            let own_hot;
            {
                let vrow = &scratch.v[vbase..vbase + m];
                let qt = &scratch.qt[..m];
                let omt = &scratch.omt[..m];
                let vleaf = &mut scratch.vleaf[..m];
                if merged_slot == NONE {
                    own_zero = r;
                    own_hot = hot_child;
                    if hot_child {
                        for q in 0..m {
                            vleaf[q] = vrow[q] * (qt[q] + r * omt[q]);
                        }
                    } else {
                        for q in 0..m {
                            vleaf[q] = vrow[q] * (r * omt[q]);
                        }
                    }
                } else {
                    let old = scratch.elems[ebase + merged_slot as usize];
                    let old_zero = old.zero.abs();
                    let old_one = if old.zero > 0.0 { 1.0 } else { 0.0 };
                    let one_m = if hot_child { old_one } else { 0.0 };
                    own_zero = old_zero * r;
                    own_hot = one_m != 0.0;
                    let rleaf = &mut scratch.rleaf[..m];
                    for q in 0..m {
                        let u_old = old_one * qt[q] + old_zero * omt[q];
                        let u_new = one_m * qt[q] + own_zero * omt[q];
                        vleaf[q] = vrow[q] * u_new / u_old;
                        rleaf[q] = 1.0 / u_new;
                    }
                }
            }
            // V carries ω_q, so the shared absent-feature integral is
            // Σ_q V_q/(1−t_q) (each feature's own zero fraction cancels
            // algebraically).
            let vleaf = &scratch.vleaf[..m];
            let s_cold = dot(&scratch.ic[..m], vleaf);
            let (classes, vals) = tree.leaf_nonzero(cnode);
            // Every absent element credits this leaf by the same
            // `−s_cold · v` products; computing them once per leaf keeps
            // the multiplications and the add order into `phi` identical,
            // so results stay bit-for-bit unchanged.
            let svc = &mut scratch.svc[..vals.len()];
            for (s, &v) in svc.iter_mut().zip(vals) {
                *s = -s_cold * v;
            }
            let svc = &scratch.svc[..vals.len()];
            let skip = if merged_slot == NONE {
                usize::MAX
            } else {
                merged_slot as usize
            };
            for (idx, e) in scratch.elems[ebase..ebase + len].iter().enumerate() {
                if idx == skip {
                    continue;
                }
                let f = e.feature as usize * n_classes;
                if e.zero < 0.0 {
                    for (&c, &s) in classes.iter().zip(svc) {
                        phi[f + c as usize] += s;
                    }
                } else {
                    let off = e.src as usize * m;
                    let scale = (1.0 - e.zero) * dot(vleaf, &scratch.riu[off..off + m]);
                    for (&c, &v) in classes.iter().zip(vals) {
                        phi[f + c as usize] += scale * v;
                    }
                }
            }
            // The split feature's own element at this leaf.
            let f = feature as usize * n_classes;
            if !own_hot {
                for (&c, &s) in classes.iter().zip(svc) {
                    phi[f + c as usize] += s;
                }
            } else {
                let own_scale = if merged_slot == NONE {
                    let src = cnode * m;
                    (1.0 - own_zero) * dot(vleaf, &scratch.iu[src..src + m])
                } else {
                    (1.0 - own_zero) * dot(vleaf, &scratch.rleaf[..m])
                };
                for (&c, &v) in classes.iter().zip(vals) {
                    phi[f + c as usize] += own_scale * v;
                }
            }
        }
    }
}

/// `Scratch::prepare` + [`walk`] for one (tree, sample) pair. Batch
/// callers prepare once per tree and call [`walk`] directly.
fn soa_tree_shap(tree: &SoaTree, x: &[f64], scratch: &mut Scratch, phi: &mut [f64]) {
    scratch.prepare(tree);
    walk(tree, x, scratch, phi);
}

/// Forest SHAP for one sample into a flat `features × classes` accumulator:
/// per-tree walks accumulate in strict forest order, then scale by 1/T.
/// `phi_tree` and `acc` must both hold `n_features * n_classes` slots.
fn soa_forest_shap_into(
    forest: &SoaForest,
    x: &[f64],
    scratch: &mut Scratch,
    phi_tree: &mut [f64],
    acc: &mut [f64],
) {
    acc.fill(0.0);
    for tree in &forest.trees {
        soa_tree_shap(tree, x, scratch, phi_tree);
        for (a, &p) in acc.iter_mut().zip(phi_tree.iter()) {
            *a += p;
        }
    }
    let inv = 1.0 / forest.trees.len() as f64;
    for a in acc.iter_mut() {
        *a *= inv;
    }
}

/// Unflattens a row-major `features × classes` buffer into the historical
/// `phi[feature][class]` shape.
fn unflatten(flat: &[f64], n_features: usize, n_classes: usize) -> Vec<Vec<f64>> {
    (0..n_features)
        .map(|f| flat[f * n_classes..(f + 1) * n_classes].to_vec())
        .collect()
}

/// TreeSHAP explanation of one tree for one sample.
///
/// Returns `phi[feature][class]`; together with the base value (the root's
/// cover-weighted expectation, [`base_value`]) these satisfy local accuracy:
/// `Σ_f phi[f][c] + base[c] = predict_proba(x)[c]`.
///
/// ```
/// use icn_forest::{DecisionTree, TrainSet, TreeConfig};
/// use icn_shap::{base_value, tree_shap};
/// use icn_stats::{Matrix, Rng};
/// let ts = TrainSet::new(
///     Matrix::from_rows(&[vec![0.0], vec![0.2], vec![0.9], vec![1.0]]),
///     vec![0, 0, 1, 1],
/// );
/// let rows: Vec<usize> = (0..4).collect();
/// let tree = DecisionTree::fit(&ts, &rows, &TreeConfig::default(), &mut Rng::seed_from(1));
/// let x = [0.95];
/// let phi = tree_shap(&tree, &x);
/// let base = base_value(&tree);
/// let pred = tree.predict_proba(&x);
/// for c in 0..2 {
///     assert!((phi[0][c] + base[c] - pred[c]).abs() < 1e-12); // local accuracy
/// }
/// ```
pub fn tree_shap(tree: &DecisionTree, x: &[f64]) -> Vec<Vec<f64>> {
    assert_eq!(x.len(), tree.n_features, "tree_shap: feature mismatch");
    let soa = SoaTree::from_tree(tree);
    let mut scratch = Scratch::for_depth(soa.max_depth);
    let mut phi = vec![0.0f64; tree.n_features * tree.n_classes];
    soa_tree_shap(&soa, x, &mut scratch, &mut phi);
    unflatten(&phi, tree.n_features, tree.n_classes)
}

/// The base (expected) value of a tree: its output with every feature
/// absent — the cover-weighted average over leaves, which for our trees is
/// simply the root's class distribution.
pub fn base_value(tree: &DecisionTree) -> Vec<f64> {
    crate::exact::tree_expectation(
        tree,
        &vec![0.0; tree.n_features],
        &vec![false; tree.n_features],
    )
}

/// TreeSHAP explanation of a random forest for one sample: the average of
/// per-tree explanations (Shapley values are linear in the model).
/// Returns `phi[feature][class]`.
///
/// Freezes the forest into [`SoaForest`] form first; callers explaining
/// many samples should freeze once and use [`forest_shap_soa`] or the
/// batch APIs.
pub fn forest_shap(forest: &RandomForest, x: &[f64]) -> Vec<Vec<f64>> {
    forest_shap_soa(&SoaForest::from_forest(forest), x)
}

/// [`forest_shap`] over an already-frozen forest.
pub fn forest_shap_soa(forest: &SoaForest, x: &[f64]) -> Vec<Vec<f64>> {
    let mut scratch = Scratch::for_depth(forest.max_depth);
    let fc = forest.n_features * forest.n_classes;
    let mut phi_tree = vec![0.0f64; fc];
    let mut acc = vec![0.0f64; fc];
    soa_forest_shap_into(forest, x, &mut scratch, &mut phi_tree, &mut acc);
    unflatten(&acc, forest.n_features, forest.n_classes)
}

/// Forest base values: mean of per-tree base values.
pub fn forest_base_value(forest: &RandomForest) -> Vec<f64> {
    let mut acc = vec![0.0f64; forest.n_classes];
    for tree in &forest.trees {
        for (a, b) in acc.iter_mut().zip(base_value(tree)) {
            *a += b;
        }
    }
    let inv = 1.0 / forest.trees.len() as f64;
    acc.iter().map(|v| v * inv).collect()
}

/// SHAP values of a forest for **one output class** across a batch of
/// samples: returns a `samples × features` matrix — the shape the Figure 5
/// beeswarm plots consume. Computed in parallel over samples.
///
/// When several classes are needed, prefer [`forest_shap_batch`], which
/// pays the per-sample tree walks once for all classes.
pub fn forest_shap_class_matrix(forest: &RandomForest, x: &Matrix, class: usize) -> Matrix {
    assert!(
        class < forest.n_classes,
        "forest_shap_class_matrix: bad class"
    );
    let mut all = forest_shap_batch(forest, x);
    all.swap_remove(class)
}

/// SHAP values of a forest for **all output classes** across a batch of
/// samples in one parallel pass: returns one `samples × features` matrix
/// per class. The expensive per-sample tree walks are shared across
/// classes, so this is ~`n_classes`× cheaper than calling
/// [`forest_shap_class_matrix`] per class.
pub fn forest_shap_batch(forest: &RandomForest, x: &Matrix) -> Vec<Matrix> {
    assert_eq!(x.cols(), forest.n_features, "feature mismatch");
    forest_shap_batch_soa(&SoaForest::from_forest(forest), x)
}

/// [`forest_shap_batch`] over an already-frozen forest — the stage-3 hot
/// path. Samples are processed in parallel chunks; within a chunk the walk
/// is tree-major (every sample of the chunk walks tree t before any walks
/// tree t+1), so one tree's quadrature tables are installed once and its
/// arrays stay cache-hot, while each sample's accumulator still folds
/// trees in strict forest order. Each tree is walked once per block of
/// eight samples by the lane kernel, whose per-lane replay reproduces the
/// single-sample kernel ([`forest_shap_soa`]) bit for bit. Chunk and block
/// boundaries never enter any floating-point expression, so results are
/// bit-identical for every thread count and chunk size.
pub fn forest_shap_batch_soa(forest: &SoaForest, x: &Matrix) -> Vec<Matrix> {
    assert_eq!(x.cols(), forest.n_features, "feature mismatch");
    let _span = icn_obs::Span::enter("shap_batch");
    let obs = icn_obs::global();
    let started = obs.is_enabled().then(std::time::Instant::now);

    let n = x.rows();
    let fc = forest.n_features * forest.n_classes;
    let inv = 1.0 / forest.trees.len().max(1) as f64;
    let chunk = shap_chunk_size(n);
    // Each chunk returns its samples' flat phi buffers concatenated.
    let chunks: Vec<Vec<f64>> = par::map_chunks(n, chunk, |range| {
        let mut chunk_span = icn_obs::Span::enter("shap_chunk");
        chunk_span.attr("start", range.start as u64);
        chunk_span.attr("samples", range.len() as u64);
        let chunk_t0 = chunk_span.path().is_some().then(std::time::Instant::now);
        let mut scratch = Scratch::for_depth(forest.max_depth);
        let mut lanes = LaneScratch::default();
        let mut phi_tree = vec![0.0f64; fc];
        let mut acc = vec![0.0f64; fc * range.len()];
        for tree in &forest.trees {
            scratch.prepare(tree);
            lanes.prepare(&scratch, tree);
            for block in range.clone().step_by(LANES) {
                // A short tail block pads its spare lanes with its last
                // sample; padded lanes are walked but never replayed.
                let real = (range.end - block).min(LANES);
                let xs: [&[f64]; LANES] = std::array::from_fn(|l| x.row(block + l.min(real - 1)));
                walk_lanes(tree, &xs, &scratch, &mut lanes);
                for lane in 0..real {
                    replay_lane(&lanes, lane, &mut phi_tree);
                    let si = block - range.start + lane;
                    for (a, &p) in acc[si * fc..(si + 1) * fc].iter_mut().zip(phi_tree.iter()) {
                        *a += p;
                    }
                }
            }
        }
        for a in acc.iter_mut() {
            *a *= inv;
        }
        if let Some(t0) = chunk_t0 {
            obs.record_hist("shap.chunk_ns", t0.elapsed().as_nanos() as u64);
        }
        acc
    });

    // One flush for the whole batch: every sample walks every tree once,
    // inside one lane block per tree.
    let blocks = (0..n)
        .step_by(chunk)
        .map(|start| (n - start).min(chunk).div_ceil(LANES))
        .sum::<usize>();
    obs.add_counter("shap.tree_walks", (n * forest.trees.len()) as u64);
    obs.add_counter("shap.lane_blocks", (blocks * forest.trees.len()) as u64);
    if blocks > 0 {
        obs.set_gauge("shap.lane_fill", n as f64 / (blocks * LANES) as f64);
    }
    if let Some(t0) = started {
        let secs = t0.elapsed().as_secs_f64();
        if secs > 0.0 {
            obs.set_gauge("shap.samples_per_sec", n as f64 / secs);
        }
    }

    // Scatter each sample's `features × classes` buffer into the per-class
    // `samples × features` matrices.
    let mut out: Vec<Matrix> = (0..forest.n_classes)
        .map(|_| Matrix::zeros(n, forest.n_features))
        .collect();
    for (i, phi) in chunks.iter().flat_map(|c| c.chunks_exact(fc)).enumerate() {
        for (f, per_class) in phi.chunks_exact(forest.n_classes).enumerate() {
            for (m, &v) in out.iter_mut().zip(per_class) {
                m.set(i, f, v);
            }
        }
    }
    out
}

/// Sample-chunk width for the batched SHAP walk: large enough that the
/// per-tree table preparation amortizes over a chunk's lane blocks, small
/// enough that the chunk's accumulator rows stay L2-resident across the
/// tree loop (128 rows of the study's 73 × 9 slots are 0.67 MB) and that
/// several chunks per worker load-balance, and a multiple of the lane
/// width so only the batch's last block pads. Never affects results.
fn shap_chunk_size(n: usize) -> usize {
    (n / (par::thread_count() * 4))
        .clamp(16, 128)
        .next_multiple_of(LANES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_tree_shap;
    use icn_forest::{ForestConfig, TrainSet, TreeConfig};
    use icn_stats::{Matrix, Rng};

    fn training_set(seed: u64, m: usize, n: usize) -> TrainSet {
        let mut rng = Rng::seed_from(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let x: Vec<f64> = (0..m).map(|_| rng.uniform(0.0, 1.0)).collect();
            // Nonlinear 3-class rule over the first three features.
            let score = x[0] + 0.7 * x[1 % m] - 0.5 * x[2 % m];
            let label = if score > 0.9 {
                2
            } else if score > 0.5 {
                1
            } else {
                0
            };
            rows.push(x);
            labels.push(label);
        }
        TrainSet::new(Matrix::from_rows(&rows), labels)
    }

    fn fit_tree(ts: &TrainSet, seed: u64) -> icn_forest::DecisionTree {
        let all: Vec<usize> = (0..ts.len()).collect();
        icn_forest::DecisionTree::fit(ts, &all, &TreeConfig::default(), &mut Rng::seed_from(seed))
    }

    #[test]
    fn matches_exact_enumeration() {
        // The heart of the validation: TreeSHAP == brute-force Shapley.
        for seed in [1u64, 2, 3] {
            let ts = training_set(seed, 5, 80);
            let tree = fit_tree(&ts, seed);
            for i in (0..ts.len()).step_by(17) {
                let x = ts.x.row(i);
                let fast = tree_shap(&tree, x);
                let (slow, _) = exact_tree_shap(&tree, x);
                for f in 0..5 {
                    for c in 0..tree.n_classes {
                        assert!(
                            (fast[f][c] - slow[f][c]).abs() < 1e-9,
                            "seed {seed} sample {i} feature {f} class {c}: {} vs {}",
                            fast[f][c],
                            slow[f][c]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn local_accuracy_single_tree() {
        let ts = training_set(4, 6, 100);
        let tree = fit_tree(&ts, 4);
        let base = base_value(&tree);
        for i in (0..ts.len()).step_by(13) {
            let x = ts.x.row(i);
            let phi = tree_shap(&tree, x);
            let pred = tree.predict_proba(x);
            for c in 0..tree.n_classes {
                let total: f64 = phi.iter().map(|p| p[c]).sum::<f64>() + base[c];
                assert!(
                    (total - pred[c]).abs() < 1e-9,
                    "sample {i} class {c}: {total} vs {}",
                    pred[c]
                );
            }
        }
    }

    #[test]
    fn local_accuracy_forest() {
        let ts = training_set(5, 6, 120);
        let forest = icn_forest::RandomForest::fit(
            &ts,
            &ForestConfig {
                n_trees: 12,
                ..ForestConfig::default()
            },
        );
        let base = forest_base_value(&forest);
        for i in (0..ts.len()).step_by(29) {
            let x = ts.x.row(i);
            let phi = forest_shap(&forest, x);
            let pred = forest.predict_proba(x);
            for c in 0..forest.n_classes {
                let total: f64 = phi.iter().map(|p| p[c]).sum::<f64>() + base[c];
                assert!(
                    (total - pred[c]).abs() < 1e-9,
                    "sample {i} class {c}: {total} vs {}",
                    pred[c]
                );
            }
        }
    }

    #[test]
    fn repeated_feature_on_path_handled() {
        // Deep tree on a single feature: splits reuse the same feature at
        // several depths, exercising the merge/imu branch.
        let mut rng = Rng::seed_from(6);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..100 {
            let v = rng.uniform(0.0, 4.0);
            rows.push(vec![v]);
            labels.push((v as usize).min(3));
        }
        let ts = TrainSet::new(Matrix::from_rows(&rows), labels);
        let tree = fit_tree(&ts, 6);
        assert!(tree.depth() >= 2, "need depth to reuse the feature");
        let base = base_value(&tree);
        for x in [[0.5], [1.5], [2.5], [3.5]] {
            let phi = tree_shap(&tree, &x);
            let pred = tree.predict_proba(&x);
            for c in 0..tree.n_classes {
                let total = phi[0][c] + base[c];
                assert!((total - pred[c]).abs() < 1e-9, "x {x:?} class {c}");
            }
        }
    }

    #[test]
    fn repeated_feature_matches_exact_enumeration() {
        // Two features, deep tree: features recur along paths in both hot
        // and cold positions, covering every merge combination against the
        // 2^M oracle.
        let mut rng = Rng::seed_from(13);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..150 {
            let a = rng.uniform(0.0, 4.0);
            let b = rng.uniform(0.0, 4.0);
            rows.push(vec![a, b]);
            labels.push(((a + b) as usize / 2).min(3));
        }
        let ts = TrainSet::new(Matrix::from_rows(&rows), labels);
        let tree = fit_tree(&ts, 13);
        for i in (0..ts.len()).step_by(11) {
            let x = ts.x.row(i);
            let fast = tree_shap(&tree, x);
            let (slow, _) = exact_tree_shap(&tree, x);
            for f in 0..2 {
                for c in 0..tree.n_classes {
                    assert!(
                        (fast[f][c] - slow[f][c]).abs() < 1e-9,
                        "sample {i} feature {f} class {c}: {} vs {}",
                        fast[f][c],
                        slow[f][c]
                    );
                }
            }
        }
    }

    #[test]
    fn stump_tree_returns_zero_phi() {
        let ts = TrainSet::new(Matrix::from_rows(&[vec![1.0], vec![1.0]]), vec![0, 0]);
        let tree = fit_tree(&ts, 7);
        assert!(tree.nodes[0].is_leaf());
        let phi = tree_shap(&tree, &[1.0]);
        assert_eq!(phi, vec![vec![0.0]]);
    }

    #[test]
    fn class_matrix_shape_and_content() {
        let ts = training_set(8, 4, 60);
        let forest = icn_forest::RandomForest::fit(
            &ts,
            &ForestConfig {
                n_trees: 6,
                ..ForestConfig::default()
            },
        );
        let m = forest_shap_class_matrix(&forest, &ts.x, 1);
        assert_eq!(m.shape(), (60, 4));
        // Spot-check one row against the per-sample API.
        let phi = forest_shap(&forest, ts.x.row(7));
        for f in 0..4 {
            assert!((m.get(7, f) - phi[f][1]).abs() < 1e-12);
        }
    }

    #[test]
    fn base_value_is_class_prior() {
        let ts = training_set(9, 4, 200);
        let tree = fit_tree(&ts, 9);
        let base = base_value(&tree);
        // Base = training-class proportions at the root.
        let mut prior = vec![0.0; tree.n_classes];
        for &y in &ts.y {
            prior[y] += 1.0 / ts.len() as f64;
        }
        for (b, p) in base.iter().zip(&prior) {
            assert!((b - p).abs() < 1e-9);
        }
    }

    #[test]
    fn scratch_reuse_across_dissimilar_trees() {
        // One Scratch must serve trees of different depths and quadrature
        // orders back to back (the batch kernel reuses it tree-major);
        // stale arena contents must never leak into a later walk.
        let deep_ts = training_set(10, 5, 150);
        let deep = fit_tree(&deep_ts, 10);
        let shallow_ts = training_set(11, 5, 12);
        let shallow = fit_tree(&shallow_ts, 11);
        let soa_deep = SoaTree::from_tree(&deep);
        let soa_shallow = SoaTree::from_tree(&shallow);
        let max_depth = soa_deep.max_depth.max(soa_shallow.max_depth);
        let mut scratch = Scratch::for_depth(max_depth);
        let x = deep_ts.x.row(3);
        let fc = 5 * deep.n_classes;
        let mut phi = vec![0.0f64; fc];
        // Dirty the arena with the deep tree, then walk the shallow one.
        soa_tree_shap(&soa_deep, x, &mut scratch, &mut phi);
        let first = {
            let mut p = vec![0.0f64; 5 * shallow.n_classes];
            soa_tree_shap(&soa_shallow, x, &mut scratch, &mut p);
            p
        };
        let fresh = {
            let mut s = Scratch::for_depth(soa_shallow.max_depth);
            let mut p = vec![0.0f64; 5 * shallow.n_classes];
            soa_tree_shap(&soa_shallow, x, &mut s, &mut p);
            p
        };
        for (a, b) in first.iter().zip(&fresh) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn batch_soa_matches_per_sample_bitwise() {
        let ts = training_set(12, 5, 90);
        let forest = icn_forest::RandomForest::fit(
            &ts,
            &ForestConfig {
                n_trees: 8,
                ..ForestConfig::default()
            },
        );
        let soa = SoaForest::from_forest(&forest);
        let batched = forest_shap_batch_soa(&soa, &ts.x);
        for i in 0..ts.len() {
            let phi = forest_shap_soa(&soa, ts.x.row(i));
            for c in 0..forest.n_classes {
                for f in 0..forest.n_features {
                    assert_eq!(
                        batched[c].get(i, f).to_bits(),
                        phi[f][c].to_bits(),
                        "sample {i} class {c} feature {f}"
                    );
                }
            }
        }
    }
}
