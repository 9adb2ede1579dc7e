//! Lane kernel of the batched TreeSHAP pass: one walk of a tree explains
//! a block of [`LANES`] samples.
//!
//! Every sample of a block visits every node of the tree; only the
//! branch each sample follows differs. The lane walk therefore shares
//! the structural work of the scalar [`walk`](super::walk) — the frame
//! stack, path features, cover-ratio products, merged slots, the per-node
//! inverse rows `iu` and the leaf class lists — and keeps per lane only
//! what depends on the sample:
//!
//! * a present/absent bit per path element (`one` of the scalar kernel);
//! * the weighted product row `V_q`, stored `[q][lane]` so each update
//!   is one element-wise vector expression across the lanes.
//!
//! A merged element's inverse row is shared too: it is only ever read by
//! lanes for which the element is present, and for those the scalar
//! `1/(one·t + zero·(1−t))` has `one = 1`.
//!
//! **Bit-identity.** Every floating-point expression is the scalar
//! kernel's expression evaluated per lane: `one·t + zero·(1−t)` with
//! `one ∈ {0, 1}` rounds exactly like the scalar's two branch forms, and
//! [`dot_lanes`] folds each lane in [`dot`](super::dot)'s 4-accumulator
//! order. What differs is the order in which a sample's leaves are
//! reached: the scalar walk goes hot branch first, so each sample adds
//! into `phi` in its own leaf order. The lane walk therefore stores each
//! leaf's per-lane terms (`coefficient × class value`, one per path item
//! and nonzero class, in the scalar item order) and, for every lane, the
//! position of the leaf in that lane's scalar order; [`replay_lane`] then
//! adds one lane's terms into its `phi` position by position — the same
//! additions, in the same order, as the scalar walk of that sample.
//!
//! The scalar order follows from the walk's stack discipline: popping a
//! node emits its leaf children at once (cold, then hot) and pushes its
//! internal children (cold below hot), and a pushed subtree is finished
//! before anything beneath it on the stack. So every subtree's leaves
//! form one contiguous run, and at each node the two child runs are
//! ordered: leaf before subtree, cold leaf before hot leaf, hot subtree
//! before cold subtree. A leaf's position is the sum, over its
//! ancestors, of the leaf counts of the child runs placed before it.

use super::{Scratch, NONE};
use icn_forest::SoaTree;

/// Samples walked together through one tree.
pub(super) const LANES: usize = 8;

/// Lane mask with every lane set.
const ALL_LANES: u8 = u8::MAX;

/// One unique feature on the lane-shared root→node path.
#[derive(Clone, Copy, Debug)]
struct LaneElem {
    /// Feature index.
    feature: u32,
    /// Depth whose row of the `riu` arena holds this element's inverse
    /// row (the depth it was appended or last merged at).
    src: u32,
    /// Product of cover ratios over the feature's occurrences.
    zero: f64,
    /// Bit `l` set while every occurrence followed lane `l`'s branch.
    present: u8,
}

const EMPTY_ELEM: LaneElem = LaneElem {
    feature: NONE,
    src: NONE,
    zero: 0.0,
    present: 0,
};

/// One pending node visit of the lane walk (cf. the scalar `Frame`).
#[derive(Clone, Copy, Debug)]
struct LaneFrame {
    node: u32,
    depth: u32,
    parent_len: u32,
    feature: u32,
    /// Path slot of an earlier occurrence of `feature`, or [`NONE`].
    merged_slot: u32,
    /// Lanes whose sample descends into `node` (the scalar `one = 1`).
    hot: u8,
    /// Cover ratio of descending into `node`.
    ratio: f64,
    /// Per lane, the position of the node's first leaf in that lane's
    /// scalar leaf order.
    pos: [u32; LANES],
}

/// Per-worker arenas of the lane walk; the quadrature tables and per-node
/// inverse rows come from the scalar [`Scratch`] prepared for the same
/// tree.
#[derive(Clone, Debug, Default)]
pub(super) struct LaneScratch {
    /// Per-depth path buffers, `elem_stride` slots per level.
    elems: Vec<LaneElem>,
    /// Per-depth product rows, `m × LANES` per level, lane-contiguous.
    v: Vec<f64>,
    /// Per-depth inverse rows (shared by the lanes), `m` per level.
    riu: Vec<f64>,
    /// Leaf staging: the leaf's product rows, `m × LANES`.
    vleaf: Vec<f64>,
    /// Leaf staging: the inverse row of a merge happening at a leaf.
    rleaf: Vec<f64>,
    /// Pending node visits.
    stack: Vec<LaneFrame>,
    /// Leaves in the subtree of each node of the prepared tree.
    leaves: Vec<u32>,
    /// Preorder of the prepared tree's nodes (prepare's working list).
    pre: Vec<u32>,
    /// `phi` index (`feature · n_classes + class`) of each stored term.
    slots: Vec<u32>,
    /// Per stored term and lane, the scalar kernel's addend: `−s_cold · v`
    /// for an absent element, `(1 − zero)·Σ_q W_q/u(t_q) · v` for a
    /// present one.
    terms: Vec<[f64; LANES]>,
    /// Per lane (`leaves[0]` entries each), the term ranges of the leaves
    /// in that lane's scalar leaf order.
    seq: Vec<(u32, u32)>,
}

impl LaneScratch {
    /// Sizes the arenas for `tree`; `tab` must already be prepared for it.
    pub(super) fn prepare(&mut self, tab: &Scratch, tree: &SoaTree) {
        let m = tab.m;
        let n = tree.num_nodes();
        self.elems.clear();
        self.elems.resize(tab.levels * tab.elem_stride, EMPTY_ELEM);
        self.v.clear();
        self.v.resize(tab.levels * m * LANES, 0.0);
        self.riu.clear();
        self.riu.resize(tab.levels * m, 0.0);
        self.vleaf.clear();
        self.vleaf.resize(m * LANES, 0.0);
        self.rleaf.clear();
        self.rleaf.resize(m, 0.0);
        // Subtree leaf counts, folded bottom-up over a preorder.
        self.pre.clear();
        self.pre.push(0);
        let mut i = 0;
        while i < self.pre.len() {
            let node = self.pre[i] as usize;
            if !tree.is_leaf(node) {
                self.pre.push(tree.left[node]);
                self.pre.push(tree.right[node]);
            }
            i += 1;
        }
        self.leaves.clear();
        self.leaves.resize(n, 1);
        for &node in self.pre.iter().rev() {
            let node = node as usize;
            if !tree.is_leaf(node) {
                self.leaves[node] =
                    self.leaves[tree.left[node] as usize] + self.leaves[tree.right[node] as usize];
            }
        }
        self.seq.clear();
        self.seq.resize(self.leaves[0] as usize * LANES, (0, 0));
    }
}

/// `[f64; LANES]` of `one` values (1.0 for lanes in `mask`, else 0.0).
#[inline]
fn lane_ones(mask: u8) -> [f64; LANES] {
    std::array::from_fn(|l| f64::from((mask >> l) & 1))
}

/// Per-lane [`dot`](super::dot)`(row, v_l)` over the lane-contiguous rows
/// `vl` (`m × LANES`), with the scalar 4-accumulator fold order per lane.
#[inline]
fn dot_lanes(row: &[f64], vl: &[f64]) -> [f64; LANES] {
    let mut acc = [[0.0f64; LANES]; 4];
    let rows = row.chunks_exact(4);
    let vs = vl.chunks_exact(4 * LANES);
    let rr = rows.remainder();
    let rv = vs.remainder();
    for (r, v) in rows.zip(vs) {
        for k in 0..4 {
            for l in 0..LANES {
                acc[k][l] += r[k] * v[k * LANES + l];
            }
        }
    }
    let mut s: [f64; LANES] =
        std::array::from_fn(|l| (acc[0][l] + acc[2][l]) + (acc[1][l] + acc[3][l]));
    for (q, &r) in rr.iter().enumerate() {
        for l in 0..LANES {
            s[l] += r * rv[q * LANES + l];
        }
    }
    s
}

/// Appends a new path factor: `v = pv · (one·t + r·(1−t))` per lane, which
/// rounds exactly like the scalar `pv·(t + r·(1−t))` (`one = 1`) and
/// `pv·(r·(1−t))` (`one = 0`).
#[inline]
fn extend_lanes(pv: &[f64], v: &mut [f64], one: &[f64; LANES], r: f64, qt: &[f64], omt: &[f64]) {
    for (q, (pv, v)) in pv
        .chunks_exact(LANES)
        .zip(v.chunks_exact_mut(LANES))
        .enumerate()
    {
        let b = r * omt[q];
        for l in 0..LANES {
            v[l] = pv[l] * (one[l] * qt[q] + b);
        }
    }
}

/// Swaps a merged path factor: `v = pv · u_new / u_old` per lane, and the
/// shared present-lane inverse row `1/u_new` into `irow`.
#[allow(clippy::too_many_arguments)]
#[inline]
fn merge_lanes(
    pv: &[f64],
    v: &mut [f64],
    irow: &mut [f64],
    old_one: &[f64; LANES],
    old_zero: f64,
    one: &[f64; LANES],
    zero: f64,
    qt: &[f64],
    omt: &[f64],
) {
    for (q, (pv, v)) in pv
        .chunks_exact(LANES)
        .zip(v.chunks_exact_mut(LANES))
        .enumerate()
    {
        let a = old_zero * omt[q];
        let b = zero * omt[q];
        for l in 0..LANES {
            let u_old = old_one[l] * qt[q] + a;
            let u_new = one[l] * qt[q] + b;
            v[l] = pv[l] * u_new / u_old;
        }
        // Present lanes have `one = 1`, and `1·t` is exactly `t`.
        irow[q] = 1.0 / (qt[q] + b);
    }
}

/// Coefficients of one path item: `(1 − zero)·dot(v_l, row)` for the
/// lanes in `present`, `absent` (`−s_cold`) for the rest.
#[inline]
fn item_coef(
    present: u8,
    zero: f64,
    row: &[f64],
    vleaf: &[f64],
    absent: &[f64; LANES],
) -> [f64; LANES] {
    if present == 0 {
        return *absent;
    }
    let d = dot_lanes(row, vleaf);
    let scale = 1.0 - zero;
    std::array::from_fn(|l| {
        if (present >> l) & 1 != 0 {
            scale * d[l]
        } else {
            absent[l]
        }
    })
}

/// Walks `tree` (prepared in `tab` and `ls`) once for the samples `xs`,
/// storing every leaf's per-lane terms and every lane's leaf order for
/// [`replay_lane`].
pub(super) fn walk_lanes(
    tree: &SoaTree,
    xs: &[&[f64]; LANES],
    tab: &Scratch,
    ls: &mut LaneScratch,
) {
    ls.slots.clear();
    ls.terms.clear();
    if tree.is_leaf(0) {
        return;
    }
    let m = tab.m;
    let ml = m * LANES;
    let stride = tab.elem_stride;
    let qt = &tab.qt[..m];
    let omt = &tab.omt[..m];
    ls.stack.clear();
    ls.stack.push(LaneFrame {
        node: 0,
        depth: 0,
        parent_len: 0,
        feature: NONE,
        merged_slot: NONE,
        hot: ALL_LANES,
        ratio: 1.0,
        pos: [0; LANES],
    });
    let n_leaves = ls.leaves[0] as usize;
    let n_classes = tree.n_classes as u32;
    while let Some(fr) = ls.stack.pop() {
        let depth = fr.depth as usize;
        let ebase = depth * stride;
        let vbase = depth * ml;
        let mut len = fr.parent_len as usize;
        if depth == 0 {
            for (v, &w) in ls.v[..ml].chunks_exact_mut(LANES).zip(&tab.qw[..m]) {
                v.fill(w);
            }
        } else {
            let psrc = (depth - 1) * stride;
            ls.elems.copy_within(psrc..psrc + len, ebase);
            let (lo, hi) = ls.v.split_at_mut(vbase);
            let pv = &lo[vbase - ml..];
            let vrow = &mut hi[..ml];
            let irow = &mut ls.riu[depth * m..(depth + 1) * m];
            if fr.merged_slot == NONE {
                ls.elems[ebase + len] = LaneElem {
                    feature: fr.feature,
                    src: fr.depth,
                    zero: fr.ratio,
                    present: fr.hot,
                };
                len += 1;
                let src = fr.node as usize * m;
                irow.copy_from_slice(&tab.iu[src..src + m]);
                extend_lanes(pv, vrow, &lane_ones(fr.hot), fr.ratio, qt, omt);
            } else {
                let k = ebase + fr.merged_slot as usize;
                let old = ls.elems[k];
                let present = old.present & fr.hot;
                let zero = old.zero * fr.ratio;
                ls.elems[k] = LaneElem {
                    feature: fr.feature,
                    src: fr.depth,
                    zero,
                    present,
                };
                merge_lanes(
                    pv,
                    vrow,
                    irow,
                    &lane_ones(old.present),
                    old.zero,
                    &lane_ones(present),
                    zero,
                    qt,
                    omt,
                );
            }
        }

        let node = fr.node as usize;
        let feature = tree.feature[node];
        let threshold = tree.threshold[node];
        let mut left = 0u8;
        for (l, x) in xs.iter().enumerate() {
            if x[feature as usize] <= threshold {
                left |= 1 << l;
            }
        }
        let merged_slot = ls.elems[ebase..ebase + len]
            .iter()
            .position(|e| e.feature == feature)
            .map_or(NONE, |p| p as u32);
        // Lanes whose scalar order puts the left child's leaves after the
        // right child's.
        let (lc, rc) = (tree.left[node], tree.right[node]);
        let left_second = match (tree.is_leaf(lc as usize), tree.is_leaf(rc as usize)) {
            (true, true) => left,
            (false, false) => !left,
            (true, false) => 0,
            (false, true) => ALL_LANES,
        };
        let (nl, nr) = (ls.leaves[lc as usize], ls.leaves[rc as usize]);
        let second = |l: usize| (left_second >> l) & 1 != 0;
        let lpos = std::array::from_fn(|l| fr.pos[l] + if second(l) { nr } else { 0 });
        let rpos = std::array::from_fn(|l| fr.pos[l] + if second(l) { 0 } else { nl });
        for (child, hot, pos) in [(rc, !left, rpos), (lc, left, lpos)] {
            let cnode = child as usize;
            let r = tree.ratio[cnode];
            if !tree.is_leaf(cnode) {
                ls.stack.push(LaneFrame {
                    node: child,
                    depth: fr.depth + 1,
                    parent_len: len as u32,
                    feature,
                    merged_slot,
                    hot,
                    ratio: r,
                    pos,
                });
                continue;
            }
            // Leaf child: derive its product rows from the parent's.
            let vrow = &ls.v[vbase..vbase + ml];
            let (own_present, own_zero) = if merged_slot == NONE {
                extend_lanes(vrow, &mut ls.vleaf, &lane_ones(hot), r, qt, omt);
                (hot, r)
            } else {
                let old = ls.elems[ebase + merged_slot as usize];
                let present = old.present & hot;
                let zero = old.zero * r;
                merge_lanes(
                    vrow,
                    &mut ls.vleaf,
                    &mut ls.rleaf,
                    &lane_ones(old.present),
                    old.zero,
                    &lane_ones(present),
                    zero,
                    qt,
                    omt,
                );
                (present, zero)
            };
            let s_cold = dot_lanes(&tab.ic[..m], &ls.vleaf);
            let absent: [f64; LANES] = std::array::from_fn(|l| -s_cold[l]);
            let (classes, vals) = tree.leaf_nonzero(cnode);
            let start = ls.slots.len() as u32;
            for idx in 0..len {
                if idx == merged_slot as usize {
                    continue;
                }
                let e = ls.elems[ebase + idx];
                let off = e.src as usize * m;
                let k = item_coef(e.present, e.zero, &ls.riu[off..off + m], &ls.vleaf, &absent);
                for (&c, &v) in classes.iter().zip(vals) {
                    ls.slots.push(e.feature * n_classes + c);
                    ls.terms.push(std::array::from_fn(|l| k[l] * v));
                }
            }
            // The split feature's own element at this leaf.
            let row = if merged_slot == NONE {
                &tab.iu[cnode * m..(cnode + 1) * m]
            } else {
                &ls.rleaf[..]
            };
            let k = item_coef(own_present, own_zero, row, &ls.vleaf, &absent);
            for (&c, &v) in classes.iter().zip(vals) {
                ls.slots.push(feature * n_classes + c);
                ls.terms.push(std::array::from_fn(|l| k[l] * v));
            }
            let run = (start, ls.slots.len() as u32);
            for (l, &p) in pos.iter().enumerate() {
                ls.seq[l * n_leaves + p as usize] = run;
            }
        }
    }
}

/// Adds lane `lane`'s stored terms into `phi` (zeroed first) leaf by leaf
/// in that sample's scalar leaf order, i.e. exactly as the scalar walk of
/// the same sample adds them.
pub(super) fn replay_lane(ls: &LaneScratch, lane: usize, phi: &mut [f64]) {
    phi.fill(0.0);
    let n_leaves = ls.leaves[0] as usize;
    for &(start, end) in &ls.seq[lane * n_leaves..(lane + 1) * n_leaves] {
        let range = start as usize..end as usize;
        for (&slot, t) in ls.slots[range.clone()].iter().zip(&ls.terms[range]) {
            phi[slot as usize] += t[lane];
        }
    }
}
