"""Base learners, cross-validated model selection, and the stacked ensemble.

Three learner kinds share one interface: k-nearest-neighbors, bagged
regression trees with random-subspace splits, and least-squares boosted
trees. Base models are combined by an ordinary least-squares stack fitted on
out-of-fold predictions; final ensemble predictions are truncated below at
zero, since the target is a nonnegative density.

Every fit is a pure function of (data, hyperparameters, seed). Trees grow
level by level in batches, each on its own rows and target: a bagged batch's
trees in groups, or tree t of every boosted fit on features presorted once; a
single fit is the batch of one. Each bagged tree draws from its own rng, spawned
from the fit's. So a fit's first t trees cut at depth d are the fit of those
hyperparameters, and model selection grows each nested family of specs once, in
one batch: the k folds and the fit on all rows of every target (allometry).
A tree model keeps only its node table; each predict builds its walk from it.
Predicts run over chunks of cells on every CPU, the same bits at any count.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .grid import Grid, finite_number
from .metrics import PairedSample, error_metrics

MODEL_FORMAT_VERSION = 2

# entries of the per-chunk work arrays: node ids of a forest walk (chunk = this
# // trees) and distances of a knn query (chunk = this // training rows), one chunk
# per worker (a CPU this process may run on) in flight, and split costs of a tree
# level (candidates = this // 8 // rows of the widest node: passes that stay in cache)
_CHUNK_ENTRIES = 65_536
_GROUP_TREES = 128  # bagged trees per grower call: bounds its (trees, rows) arrays
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

# default hyperparameter grids for model selection
DEFAULT_GRIDS: dict[str, list[dict]] = {
    "knn": [{"k": k} for k in (1, 5, 10, 25)],
    "bagged_trees": [
        {"trees": t, "max_depth": d, "max_features": m}
        for t in (100, 300) for d in (8, 16, None) for m in ("sqrt", "third")
    ],
    "boosted_trees": [
        {"trees": t, "learning_rate": lr, "max_depth": d}
        for t in (200, 500) for lr in (0.05, 0.1) for d in (3, 6)
    ],
}


def of_type(value, types) -> bool:  # a bool is an int, but no count or number here
    return isinstance(value, types) and not isinstance(value, bool)


@dataclass(frozen=True)
class LearnerSpec:
    kind: str
    hyperparameters: tuple

    @staticmethod
    def make(kind: str, **hyperparameters) -> "LearnerSpec":
        spec = LearnerSpec(kind=kind, hyperparameters=tuple(sorted(hyperparameters.items())))
        spec.validate()
        return spec

    @property
    def hp(self) -> dict:
        return dict(self.hyperparameters)

    def validate(self) -> None:
        hp = self.hp
        if self.kind == "knn":
            allowed = {"k"}
            if not (of_type(hp.get("k"), int) and hp["k"] >= 1):
                raise ValueError("knn needs an integer k >= 1")
        elif self.kind in ("bagged_trees", "boosted_trees"):
            bagged = self.kind == "bagged_trees"
            allowed = {"trees", "max_depth", "max_features" if bagged else "learning_rate"}
            if not (of_type(hp.get("trees"), int) and hp["trees"] >= 1):
                raise ValueError(f"{self.kind} needs an integer trees >= 1")
            lr = hp.get("learning_rate")
            if not bagged and not (finite_number(lr) and lr >= 0):
                raise ValueError("learning_rate must be a nonnegative finite number")
            d = hp.get("max_depth")
            if d is not None and not (of_type(d, int) and d >= 0):
                raise ValueError("max_depth must be None or an integer >= 0")
            if bagged and hp.get("max_features") not in ("sqrt", "third", None):
                raise ValueError("max_features must be 'sqrt', 'third' or None")
        else:
            raise ValueError(f"unknown learner kind {self.kind!r}")
        extra = set(hp) - allowed
        if extra:
            raise ValueError(f"unknown hyperparameters for {self.kind}: {sorted(extra)}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "hyperparameters": self.hp}

    @staticmethod
    def from_dict(d: dict) -> "LearnerSpec":
        return LearnerSpec.make(d["kind"], **d["hyperparameters"])


def _as_2d(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError("X must be a nonempty (n, p) array")
    if not np.all(np.isfinite(X)):
        raise ValueError("X must be finite")
    return X


def _by_chunks(n: int, chunk: int, values) -> np.ndarray:
    """`values(lo, hi)` of each chunk of range(n) in one array. The caller and w - 1
    helper threads, w = min(_WORKERS, chunks), take every w-th chunk; the bodies
    call no public function or model `predict`, so every span opens on the caller."""
    out, starts = np.empty(n, dtype=np.float64), range(0, n, chunk)
    w = min(_WORKERS, len(starts))

    def take(i):
        for lo in starts[i::w]:
            out[lo:lo + chunk] = values(lo, min(lo + chunk, n))

    with ThreadPoolExecutor(max(w - 1, 1)) as pool:  # a thread starts on its first submit
        helpers = pool.map(take, range(1, w))
        take(0)
        list(helpers)  # re-raises a helper's exception
    return out


# -- regression trees -----------------------------------------------------
#
# A node table holds trees in level order, as `_grow` makes it and the model
# JSON stores it: tree t is node t, and each later level lists the children of
# the level above, left (x[feature] <= threshold) then right, in parent order.
# `left` and `right` are ids in the table, -1 at leaves, which have feature -1
# and threshold 0.
_TREE_ARRAYS = {"feature": np.int32, "threshold": np.float64,  # as in the model JSON
                "left": np.int32, "right": np.int32, "value": np.float64}


def _concat(tables: list[dict]) -> tuple[dict, np.ndarray]:
    """Node tables end to end, children offset per table; and each one's first node."""
    sizes = [t["value"].size for t in tables]
    roots = np.cumsum([0] + sizes[:-1])
    cat = {name: np.concatenate([t[name] for t in tables]) for name in _TREE_ARRAYS}
    for side in ("left", "right"):
        cat[side] = np.where(cat["feature"] < 0, -1, cat[side] + np.repeat(roots, sizes))
    return cat, roots


def _gather(roots, max_depth, feature, threshold, left, right, value) -> dict:
    """The trees at `roots` of a node table, cut at `max_depth`, as a new
    level-order table: nodes numbered in the order a breadth-first walk visits
    them, children left then right in parent order, so tree t is node t."""
    levels = [np.asarray(roots)]
    while max_depth is None or len(levels) <= max_depth:
        split = levels[-1][feature[levels[-1]] >= 0]
        if not split.size:
            break
        levels.append(np.column_stack([left[split], right[split]]).ravel())
    old = np.concatenate(levels)
    inner = feature[old] >= 0
    inner[old.size - levels[-1].size:] = False  # the last level is all leaves or cut
    children = np.arange(levels[0].size, old.size)
    table = {"feature": np.where(inner, feature[old], -1),
             "threshold": np.where(inner, threshold[old], 0.0),
             "left": np.full(old.size, -1), "right": np.full(old.size, -1), "value": value[old]}
    table["left"][inner], table["right"][inner] = children[0::2], children[1::2]
    return {name: table[name].astype(dtype) for name, dtype in _TREE_ARRAYS.items()}


def _grow(X, y, order, keep, max_depth, max_features, rngs) -> tuple[dict, np.ndarray]:
    """Grow a regression tree on each sample, all together, level by level.

    X is (trees, n, p), y (trees, n), `order` X's stable argsort along axis 1
    and `keep` (trees, n) marks the rows each tree is grown on. A node is a leaf
    at `max_depth`, below two rows or with equal targets; its value is the mean
    of its targets in row order. Otherwise it splits at the midpoint between
    distinct sorted values that minimizes the summed child squared error, ties
    going to the first feature, then the first midpoint. With `max_features`
    below p, each tree's rng draws that many candidate features per node, one
    call per level. Returns a node table (tree b rooted at node b) and each kept
    row's leaf value, (trees, n).
    """
    B, n, p = X.shape
    xe, ye = X.reshape(-1), y.reshape(-1)  # row e = b * n + i has feature f at xe[e * p + f]
    # one row per feature holding the kept rows of each open node in ascending
    # x, and a last row holding them in ascending e; nodes in level order
    perm = np.vstack([(order + n * np.arange(B)[:, None, None]).transpose(2, 0, 1).reshape(p, -1),
                      np.arange(B * n)])
    perm = perm[keep.reshape(-1)[perm]].reshape(p + 1, -1)
    size, tree, ids, table = keep.sum(axis=1), np.arange(B), np.arange(B), []
    leaf_of = np.zeros(B * n, dtype=np.int64)
    while True:
        start, slot = np.cumsum(size) - size, np.repeat(np.arange(size.size), size)
        leaf_of[perm[-1]] = ids[slot]
        y_rows, width, sums = ye[perm[-1]], np.maximum(size, 7), np.empty(size.size)
        # numpy sums each row of a 2-D array as it sums a 1-D one, and fewer than
        # 8 values one by one from 0.0, so padding to 7 with zeros keeps `mean`
        for w in np.unique(width):
            same, col = np.flatnonzero(width == w), np.arange(w)
            at = np.minimum(start[same, None] + col, y_rows.size - 1)
            sums[same] = np.where(col < size[same, None], y_rows[at], 0.0).sum(axis=1)
        level = {"value": sums / size, "threshold": np.zeros(size.size),
                 **{name: np.full(size.size, -1) for name in ("feature", "left", "right")}}
        table.append(level)
        lo_y, hi_y = np.minimum.reduceat(y_rows, start), np.maximum.reduceat(y_rows, start)
        node = np.flatnonzero((size >= 2) & (lo_y < hi_y) & (max_depth is None
                                                              or len(table) <= max_depth))
        if not node.size:
            break
        if max_features >= p:
            feats = np.zeros((node.size, 1), dtype=np.int64) + np.arange(p)
        else:
            owner, count = np.unique(tree[node], return_counts=True)
            draws = np.concatenate([rngs[b].random((c, p)) for b, c in zip(owner, count)])
            feats = np.sort(np.argsort(draws, axis=1, kind="stable")[:, :max_features], axis=1)
        # score each (node, feature) candidate, in padded passes of at most
        # _CHUNK_ENTRIES // 8 entries, widest nodes first
        K, flat = feats.shape[1], perm.ravel()
        cand, cand_f = np.repeat(node, K), feats.ravel()
        cand_at, m_all = cand_f * perm.shape[1] + start[cand], size[cand]
        cost_min, j_min = np.empty(cand.size), np.empty(cand.size, dtype=np.int64)
        by_width = np.argsort(-m_all, kind="stable")
        while by_width.size:
            c, by_width = np.split(by_width, [max(1, _CHUNK_ENTRIES // 8 // m_all[by_width[0]])])
            m, col = m_all[c][:, None], np.arange(m_all[c[0]])
            e = flat[cand_at[c][:, None] + np.minimum(col, m - 1)]  # pads with the last row
            xs, ys = xe[e * p + cand_f[c][:, None]], np.where(col < m, ye[e], 0.0)
            c1, c2 = np.cumsum(ys, axis=1), np.cumsum(ys * ys, axis=1)
            s1, s2, c1, c2, i = c1[:, -1:], c2[:, -1:], c1[:, :-1], c2[:, :-1], col[1:]
            cost = (c2 - c1 ** 2 / i) + ((s2 - c2) - (s1 - c1) ** 2 / np.maximum(m - i, 1))
            cost = np.where(xs[:, 1:] > xs[:, :-1], cost, np.inf)
            j_min[c], cost_min[c] = np.argmin(cost, axis=1), cost.min(axis=1)
        pick = np.arange(node.size) * K + np.argmin(cost_min.reshape(-1, K), axis=1)
        pick = pick[cost_min[pick] < np.inf]
        if not pick.size:
            break
        split, f, S = cand[pick], cand_f[pick], pick.size
        lo_x, hi_x = xe[flat[cand_at[pick] + j_min[pick] + [[0], [1]]] * p + f]
        mid = lo_x + (hi_x - lo_x) / 2.0
        thr = np.where((lo_x < mid) & (mid < hi_x), mid, lo_x)
        children = ids[-1] + 1 + np.arange(2 * S)
        for name, column in (("feature", f), ("threshold", thr),
                             ("left", children[0::2]), ("right", children[1::2])):
            level[name][split] = column
        # each row of `perm` sorts its rows by child, left before right, and
        # drops the rows of leaves
        rank = np.full(size.size, -1, dtype=np.int16 if S < 2 ** 14 else np.int64)  # radix-sorted
        rank[split] = np.arange(S)
        r = rank[slot]
        goes_left = np.zeros(B * n, dtype=bool)
        goes_left[perm[-1]] = xe[perm[-1] * p + f[r]] <= thr[r]
        key = np.where(r < 0, 2 * S, 2 * r + ~goes_left[perm])
        size = np.bincount(key[-1], minlength=2 * S + 1)[:-1]
        perm = perm[np.arange(p + 1)[:, None], np.argsort(key, axis=1, kind="stable")]
        perm, tree, ids = perm[:, :size.sum()], np.repeat(tree[split], 2), children
    cat = {name: np.concatenate([level[name] for level in table]) for name in table[0]}
    return cat, cat["value"][leaf_of].reshape(B, n)


def _accumulate(table: dict, trees: int, X: np.ndarray, start: float, weight: float) -> np.ndarray:
    """`start + weight * v0 + weight * v1 + ...` per row of X, summed in tree
    order, over the `trees` trees of a node table. In its walk, leaves point at
    themselves with a +inf threshold, so as many gather, compare and child
    lookup steps as a tree is deep take every cell to its leaf in that tree,
    with no leaf test; the trees walk deepest first, so each step is one slice.
    """
    leaf = table["feature"] < 0
    ids = np.arange(leaf.size)
    left, right = (np.where(leaf, ids, table[side]) for side in ("left", "right"))
    feature = np.where(leaf, 0, table["feature"])
    threshold = np.where(leaf, np.inf, table["threshold"])
    child = np.stack([left, right], axis=1).ravel()  # child[2 * node + go_right]
    depth = np.zeros(trees, dtype=np.int64)  # of each tree
    level = tree = np.arange(trees)  # a level's nodes and their trees
    while level.size:
        inner = ~leaf[level]
        level, tree = level[inner], tree[inner]
        depth[tree] += 1  # once per tree with a split on this level
        level, tree = np.concatenate([left[level], right[level]]), np.tile(tree, 2)
    roots = np.argsort(-depth, kind="stable")  # deepest first; tree t is node t
    unsort = np.argsort(roots)
    walking = [int(np.count_nonzero(depth > step)) for step in range(1, depth.max())]

    def walk(lo, hi):
        xt, m = np.ascontiguousarray(X[lo:hi].T), hi - lo  # feature-major
        # (trees, cells): all cells start at each root, so step one compares whole rows of xt
        node = np.where(xt[feature[roots]] > threshold[roots][:, None],
                        child[2 * roots + 1][:, None], child[2 * roots][:, None])
        cells, at, xt = np.arange(m), feature * m, xt.ravel()  # xt[at[node] + cell]
        for k in walking:  # the k deepest trees take this step
            top = node[:k]
            go_right = xt[at[top] + cells] > threshold[top]
            node[:k] = child[2 * top + go_right]
        leaves = weight * table["value"][node[unsort]]
        leaves[0] += start
        # cumsum adds row after row, the order of a per-tree `acc +=` loop
        return np.cumsum(leaves, axis=0)[-1]

    return _by_chunks(X.shape[0], max(1, _CHUNK_ENTRIES // trees), walk)


# -- learner kinds --------------------------------------------------------


class KnnModel:
    """k-nearest-neighbor mean with internally standardized features."""

    kind = "knn"
    _FITTED = ("mu", "sigma", "X", "y")  # float arrays of the model JSON

    def __init__(self, k: int):
        self.k = k
        self.mu = self.sigma = self.X = self.y = None

    def _fit_batch(self, models, X, Y, keep, rngs) -> None:
        for m, y, rows in zip(models, Y, keep):  # one fold at a time
            Xr, m.y = X[rows], y[rows]
            if m.k > Xr.shape[0]:
                raise ValueError(f"k={m.k} exceeds the {Xr.shape[0]} training rows")
            m.mu, m.sigma = Xr.mean(axis=0), Xr.std(axis=0)
            m.sigma[m.sigma == 0.0] = 1.0
            m.X = (Xr - m.mu) / m.sigma

    def predict(self, X) -> np.ndarray:
        Q = (_as_2d(X).T - self.mu[:, None]) / self.sigma[:, None]  # feature-major
        XT = np.ascontiguousarray(self.X.T)
        def query(lo, hi):  # (cells, training rows) of exact differences summed feature by feature
            d2 = (Q[0, lo:hi, None] - XT[0]) ** 2
            for qf, xf in zip(Q[1:, lo:hi], XT[1:]):
                d2 += (qf[:, None] - xf) ** 2
            if not d2.max() < np.inf:  # an inf or nan distance would tie the masked rows
                return self.y[np.argsort(d2, axis=1, kind="stable")[:, :self.k]].mean(axis=1)
            nearest, cells = np.empty((hi - lo, self.k), dtype=np.intp), np.arange(hi - lo)
            for j in range(self.k):  # argmin's ties go to the lower row, as in a stable sort
                nearest[:, j] = pick = d2.argmin(axis=1)
                d2[cells, pick] = np.inf
            return self.y[nearest].mean(axis=1)

        return _by_chunks(Q.shape[1], max(1, _CHUNK_ENTRIES // self.X.shape[0]), query)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "k": self.k,
                **{name: getattr(self, name).tolist() for name in self._FITTED}}

    @staticmethod
    def from_dict(d: dict) -> "KnnModel":
        m = KnnModel(k=int(d["k"]))
        for name in KnnModel._FITTED:
            setattr(m, name, np.array(d[name], dtype=np.float64))
        return m


class _TreeModel:
    """Model JSON of the tree kinds: `trees`, the other constructor arguments
    (`_ARGS`), the one fitted scalar (`_FITTED`) and `fitted_trees`, the
    model's level-order node table as one object of `_TREE_ARRAYS` columns
    (null for a model that grows no trees). That table, `table`, is the only
    array a model keeps: each predict builds its walk from it. Each kind keeps
    its own `predict`: the benchmark tracer books it by class.
    """

    kind: str
    _ARGS: tuple[str, ...]
    _FITTED: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "trees": self.n_trees,
            **{name: getattr(self, name) for name in self._ARGS},
            self._FITTED: getattr(self, self._FITTED),
            "fitted_trees": None if self.table is None else
                            {name: column.tolist() for name, column in self.table.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "_TreeModel":
        m = cls(trees=int(d["trees"]), **{name: d[name] for name in cls._ARGS})
        setattr(m, cls._FITTED, d[cls._FITTED])
        if d["fitted_trees"] is not None:
            m.table = {name: np.array(d["fitted_trees"][name], dtype=dtype)
                       for name, dtype in _TREE_ARRAYS.items()}
        return m

    def nested(self, spec: LearnerSpec) -> "_TreeModel":
        """The model a fit of `spec`, of this model's family, makes from the same
        data and seed: this model's first trees cut at the spec's depth."""
        m = type(self)(**spec.hp)
        setattr(m, self._FITTED, getattr(self, self._FITTED))
        if self.table is not None:
            m.table = _gather(range(m.n_trees), m.max_depth, **self.table)
        return m


class BaggedTreesModel(_TreeModel):
    """Bootstrap-aggregated trees with a random feature subset per split.

    Each tree draws its bootstrap sample and then its split candidates from
    its own rng, spawned from the fit's, so the first t trees of a fit cut at
    depth d are the fit of (t, d). max_depth=0 degenerates to the constant
    mean-of-targets predictor: with no splits allowed there is nothing for
    resampling to vary, so no trees are grown.
    """

    kind = "bagged_trees"
    _ARGS = ("max_depth", "max_features")
    _FITTED = "constant"

    def __init__(self, trees: int, max_depth=None, max_features="sqrt"):
        self.n_trees = trees
        self.max_depth = max_depth
        self.max_features = max_features
        self.table = self.constant = None

    def _fit_batch(self, models, X, Y, keep, rngs) -> None:
        for m, y, rows in zip(models, Y, keep):
            m.table, m.constant = None, float(y[rows].mean()) if self.max_depth == 0 else None
        if self.max_depth == 0:
            return
        T, G, tables = self.n_trees, _GROUP_TREES, []
        rngs = [r for rng in rngs for r in rng.spawn(T)]  # tree t of models[b] is b * T + t
        of, sizes = np.repeat(np.arange(len(models)), T), np.repeat(keep.sum(axis=1), T)
        for g in (slice(lo, lo + G) for lo in range(0, len(rngs), G)):  # each tree as if alone
            boot = np.zeros((len(rngs[g]), sizes[g].max()), dtype=np.int64)  # padded with row 0
            for i, (b, size, r) in enumerate(zip(of[g], sizes[g], rngs[g])):
                boot[i, :size] = np.flatnonzero(keep[b])[r.integers(0, size, size=size)]
            Xb = X[boot]
            tables.append(_grow(Xb, Y[of[g, None], boot], np.argsort(Xb, axis=1, kind="stable"),
                                np.arange(boot.shape[1]) < sizes[g, None], self.max_depth,
                                self.features_drawn(X.shape[1]), rngs[g])[0])
        table, roots = _concat(tables)
        del tables  # members are gathered from `_concat`'s copy alone
        roots = np.repeat(roots, G)[:len(rngs)] + np.arange(len(rngs)) % G  # of each tree
        for b, m in enumerate(models):
            m.table = _gather(roots[b * T:(b + 1) * T], None, **table)

    def features_drawn(self, p: int) -> int:
        """How many of p features each split draws: fits that draw as many
        grow the same trees, whatever `max_features` names the count."""
        k = {None: p, "sqrt": np.sqrt(p), "third": p / 3}[self.max_features]
        return max(1, int(round(k)))

    def predict(self, X) -> np.ndarray:
        X = _as_2d(X)
        if self.constant is not None:
            return np.full(X.shape[0], self.constant, dtype=np.float64)
        return _accumulate(self.table, self.n_trees, X, 0.0, 1.0) / self.n_trees


class BoostedTreesModel(_TreeModel):
    """Least-squares gradient boosting: mean start, shrunken residual trees."""

    kind = "boosted_trees"
    _ARGS = ("learning_rate", "max_depth")
    _FITTED = "init_value"

    def __init__(self, trees: int, learning_rate: float, max_depth=3):
        self.n_trees = trees
        self.learning_rate = float(learning_rate)
        self.max_depth = max_depth
        self.init_value = self.table = None

    def _fit_batch(self, models, X, Y, keep, rngs) -> None:
        """Fit models[b] on the rows keep[b] of Y[b]: tree t of every model grows in
        one batch, on X presorted once, from each model's own mean and residuals."""
        init = np.array([y[rows].mean() for y, rows in zip(Y, keep)])
        current = np.repeat(init[:, None], X.shape[0], axis=1)
        Xb, order = (np.repeat(a[None], len(keep), axis=0)  # X is the same for every tree
                     for a in (X, np.argsort(X, axis=0, kind="stable")))
        tables = []
        for _ in range(self.n_trees):
            table, fitted = _grow(Xb, Y - current, order, keep, self.max_depth, X.shape[1], None)
            current = current + self.learning_rate * fitted
            tables.append(table)
        cat, roots = _concat(tables)
        del tables  # members are gathered from `_concat`'s copy alone
        for b, m in enumerate(models):  # tree t of models[b] is node roots[t] + b
            m.init_value = float(init[b])
            m.table = _gather(roots + b, None, **cat)

    def predict(self, X) -> np.ndarray:
        return _accumulate(self.table, self.n_trees, _as_2d(X), self.init_value, self.learning_rate)


_MODEL_CLASSES = {cls.kind: cls for cls in (KnnModel, BaggedTreesModel, BoostedTreesModel)}


def train_base(spec: LearnerSpec, X, y, seed, held_out=None):
    """Fit one base learner; the result is a pure function of the inputs.

    The spec's hyperparameters are its model class's constructor arguments
    (defaults fill those it leaves out); `seed` seeds the fit's rng. Given
    `held_out`, B row-index arrays, and B seeds, it returns B models fitted in
    one batch: model b fits y (or y[b], for a y of B rows) on the rows outside
    held_out[b] from seed[b], in `_fit_batch(models, X, Y, keep, rngs)`.
    """
    spec.validate()
    X = _as_2d(X)
    folds = [[]] if held_out is None else held_out
    keep = np.array([~np.isin(np.arange(X.shape[0]), out) for out in folds])
    y = np.asarray(y, dtype=np.float64)
    if y.shape not in ((X.shape[0],), keep.shape) or not np.all(np.isfinite(y)):
        raise ValueError("y must be finite and match the rows of X")
    models = [_MODEL_CLASSES[spec.kind](**spec.hp) for _ in folds]
    models[0]._fit_batch(models, X, np.broadcast_to(y, keep.shape), keep,
                         [np.random.default_rng(s) for s in ([seed] if held_out is None else seed)])
    return models[0] if held_out is None else models


def kfold_indices(n: int, k: int, seed) -> list[np.ndarray]:
    """Seeded k-fold partition; the first n % k folds get the extra row."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < k:
        raise ValueError(f"cannot split {n} rows into {k} folds")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(fold) for fold in np.array_split(perm, k)]


def _family(spec: LearnerSpec, p: int):
    """Specs of one family nest: one kind, and the same arguments besides
    `trees` and, for bagged trees that grow any, `max_depth`. Bagged trees on
    p features compare the count `max_features` draws, not its name."""
    if spec.kind == "knn":
        return spec
    model = _MODEL_CLASSES[spec.kind](**spec.hp)
    args = {a: getattr(model, a) for a in model._ARGS}
    if spec.kind == "bagged_trees":
        args["max_features"] = model.features_drawn(p)
        if args["max_depth"] != 0:
            del args["max_depth"]
    return spec.kind, tuple(sorted(args.items()))


def cv_predict(specs, X, y, k: int = 5, seed=0, final_seed=None):
    """Out-of-fold predictions of one nested family under a seeded k-fold split.

    The k folds fit the family's head (most trees, greatest depth) in one batch,
    and each predicts with each member's nested part of it: column j is the
    cross-validation of `specs[j]` alone. A (targets, n) y takes a seed per
    target and gives (targets, n, specs). Given `final_seed`, a seed per target,
    the batch also fits the head on all rows of each: the result is `(oof, fits)`.
    """
    specs, X, y = list(specs), _as_2d(X), np.asarray(y, dtype=np.float64)
    if not specs or len({_family(s, X.shape[1]) for s in specs}) != 1:
        raise ValueError("cv_predict needs the specs of one nested family")
    head = specs[0]
    if head.kind != "knn":
        depths = [_MODEL_CLASSES[s.kind](**s.hp).max_depth for s in specs]  # defaults filled in
        head = LearnerSpec.make(head.kind, **{**head.hp, "trees": max(s.hp["trees"] for s in specs),
                                              "max_depth": None if None in depths else max(depths)})
    Y, seeds = (y, seed) if y.ndim == 2 else (y[None], [seed])
    folds = [(a, out, [s, i]) for a, s in enumerate(seeds)
             for i, out in enumerate(kfold_indices(X.shape[0], k, s))]
    of, held_out, member_seeds = zip(*folds, *((a, [], s) for a, s in enumerate(final_seed or [])))
    models = train_base(head, X, Y[list(of)], list(member_seeds), held_out=list(held_out))
    oof = np.empty((len(Y), X.shape[0], len(specs)))
    for (a, test_idx, _), model in zip(folds, models):
        for j, spec in enumerate(specs):
            fit = model if spec == head else model.nested(spec)
            oof[a, test_idx, j] = fit.predict(X[test_idx])
    oof = oof if y.ndim == 2 else oof[0]
    return oof if final_seed is None else (oof, models[len(folds):])


def grid_search(specs, X, y, k: int = 5, seed=0, final_seed=None):
    """Pick the spec with the lowest k-fold CV RMSE; ties keep grid order.

    Each nested family of specs is cross-validated once, on the same seeded
    folds. Returns `(best, best_oof, scores)`: the winner, its out-of-fold
    predictions (those of `cv_predict([best], X, y, k, seed)`) and `(spec,
    rmse)` in grid order; a (targets, n) y with a seed per target, a list of
    them. Given `final_seed`, a seed per target, each adds the winner's fit on
    all rows from it, as `train_base` fits it, cut from its family's head.
    """
    specs, X, y = list(specs), _as_2d(X), np.asarray(y, dtype=np.float64)
    if not specs:
        raise ValueError("empty hyperparameter grid")
    families: dict = {}
    for spec in specs:
        families.setdefault(_family(spec, X.shape[1]), []).append(spec)
    Y, seeds = (y, seed) if y.ndim == 2 else (y[None], [seed])
    got = [(family, cv_predict(family, X, Y, k=k, seed=seeds, final_seed=final_seed or []))
           for family in families.values()]
    results = []
    for a, target in enumerate(Y):
        oof = {s: col for family, (cols, _) in got for s, col in zip(family, cols[a].T)}
        scores = [(spec, error_metrics(PairedSample(target, oof[spec])).rmse) for spec in specs]
        best = min(scores, key=lambda score: score[1])[0]
        final = [fits[a] if best.kind == "knn" else fits[a].nested(best)
                 for family, (_, fits) in got if fits and best in family]
        results.append((best, oof[best], scores, *final))
    return results if y.ndim == 2 else results[0]


@dataclass
class StackFit:
    """OLS combination of base-model prediction columns, with intercept."""

    intercept: float
    coefficients: np.ndarray
    rank_deficient: bool

    def apply(self, columns) -> np.ndarray:
        return self.intercept + _as_2d(columns) @ self.coefficients

    def to_dict(self) -> dict:
        return {**vars(self), "coefficients": self.coefficients.tolist()}

    @staticmethod
    def from_dict(d: dict) -> "StackFit":
        return StackFit(float(d["intercept"]), np.array(d["coefficients"], dtype=np.float64),
                        bool(d["rank_deficient"]))


def fit_stack(oof, y) -> StackFit:
    """Least-squares stacking weights on out-of-fold columns.

    Coefficients are unconstrained. A rank-deficient design (collinear
    columns) takes the minimal-norm solution and is flagged.
    """
    oof = _as_2d(oof)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (oof.shape[0],):
        raise ValueError("y must match the rows of the prediction matrix")
    A = np.column_stack([np.ones(oof.shape[0]), oof])
    sol, _res, rank, _sv = np.linalg.lstsq(A, y, rcond=None)
    return StackFit(intercept=float(sol[0]), coefficients=sol[1:].copy(),
                    rank_deficient=bool(rank < A.shape[1]))


@dataclass
class EnsembleModel:
    """Fitted base models plus the stacking combination.

    `feature_names` fixes the predictor order for tabular and raster
    prediction; `ybar_train` (mean training reference) rides along for
    percent-metric normalization downstream.
    """

    specs: list[LearnerSpec]
    models: list[object]
    stack: StackFit
    feature_names: list[str]
    ybar_train: float

    def predict(self, X) -> np.ndarray:
        """Stacked prediction, truncated below at zero."""
        return np.maximum(self.stack.apply(np.column_stack([m.predict(X) for m in self.models])),
                          0.0)

    def to_json(self) -> str:
        return json.dumps({
            "format_version": MODEL_FORMAT_VERSION,
            "feature_names": self.feature_names,
            "ybar_train": self.ybar_train,
            "stack": self.stack.to_dict(),
            "base": [{"spec": s.to_dict(), "model": m.to_dict()}
                     for s, m in zip(self.specs, self.models)],
        }, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "EnsembleModel":
        doc = json.loads(text)
        version = doc.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version!r}")
        specs = [LearnerSpec.from_dict(entry["spec"]) for entry in doc["base"]]
        models = [_MODEL_CLASSES[spec.kind].from_dict(entry["model"])
                  for spec, entry in zip(specs, doc["base"])]
        return EnsembleModel(specs=specs, models=models, stack=StackFit.from_dict(doc["stack"]),
                             feature_names=list(doc["feature_names"]),
                             ybar_train=float(doc["ybar_train"]))


def predict_grid(model: EnsembleModel, predictors: dict, domain) -> Grid:
    """Prediction over aligned predictor grids at the cells of the boolean `domain`
    (of their shape) where every predictor is valid; every other cell is masked.
    Missing layers, misaligned grids and a domain of another shape raise."""
    missing = [name for name in model.feature_names if name not in predictors]
    if missing:
        raise ValueError(f"missing predictor layers: {missing}")
    grids = [predictors[name] for name in model.feature_names]
    first = grids[0]
    if not all(first.aligned_with(g) for g in grids[1:]):
        raise ValueError("predictor grids are not aligned")
    if np.shape(domain) != first.values.shape:
        raise ValueError(f"domain of shape {np.shape(domain)} on grids of {first.values.shape}")
    mask = np.logical_and.reduce([np.asarray(domain, dtype=bool)] + [g.mask for g in grids])
    values = np.zeros(first.values.shape, dtype=np.float32)
    if np.any(mask):
        X = np.column_stack([g.values[mask].astype(np.float64) for g in grids])
        values[mask] = model.predict(X)
    return first.with_values(values, mask, units="Mg/ha")
