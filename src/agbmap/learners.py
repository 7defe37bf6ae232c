"""Base learners, cross-validated model selection, and the stacked ensemble.

Three learner kinds share one interface: k-nearest-neighbors, bagged
regression trees with random-subspace splits, and least-squares boosted
trees. Base models are combined by an ordinary least-squares stack fitted on
out-of-fold predictions; final ensemble predictions are truncated below at
zero, since the target is a nonnegative density.

Every fit is a pure function of (data, hyperparameters, seed). Trees grow
level by level in batches, each tree on its own rows: all trees of a bagged
fit, or tree t of a boosted fit on features presorted once, and those of all k
folds of a cross-validation at once; a single fit is the batch of one. Each
bagged tree draws from its own rng, spawned from the fit's. So a fit's first t
trees cut at depth d are the fit of those hyperparameters, and model selection
cross-validates each nested family of specs once. A tree model's trees are one
node table in level order, tree t at node t, numbered as the grower numbers
them and stored so in the model file; predict walks all trees at once over
chunks of cells, each tree as many steps as it is deep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .grid import Grid

MODEL_FORMAT_VERSION = 2

# entries of the per-chunk work arrays: node ids of a forest walk (chunk = this
# // trees), distances of a knn query (chunk = this // training rows), and split
# costs of a tree level (candidates = this // rows of the widest node)
_CHUNK_ENTRIES = 65_536

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
            if not bagged and not (of_type(lr, (int, float)) and lr >= 0):
                raise ValueError("learning_rate must be a nonnegative number")
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
        # _CHUNK_ENTRIES entries, widest nodes first
        K, flat = feats.shape[1], perm.ravel()
        cand, cand_f = np.repeat(node, K), feats.ravel()
        cand_at, m_all = cand_f * perm.shape[1] + start[cand], size[cand]
        cost_min, j_min = np.empty(cand.size), np.empty(cand.size, dtype=np.int64)
        by_width = np.argsort(-m_all, kind="stable")
        while by_width.size:
            c, by_width = np.split(by_width, [max(1, _CHUNK_ENTRIES // m_all[by_width[0]])])
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
        rank = np.full(size.size, -1)
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


class _Forest:
    """The `trees` trees of one model as one level-order node table (tree t
    at node t), walked all at once.

    Leaves point at themselves with a +inf threshold, so a walk of as many
    gather, compare and child lookup steps as a tree is deep takes every cell
    to its leaf in that tree, with no leaf test. The walk keeps the trees
    deepest first, so each step is one slice.
    """

    def __init__(self, table: dict, trees: int):
        self.table = table  # as stored
        leaf = table["feature"] < 0
        ids = np.arange(leaf.size)
        left, right = (np.where(leaf, ids, table[side]) for side in ("left", "right"))
        self.feature = np.where(leaf, 0, table["feature"])
        self.threshold = np.where(leaf, np.inf, table["threshold"])
        self.child = np.stack([left, right], axis=1).ravel()  # child[2 * node + go_right]
        self.value = table["value"]
        depth = np.zeros(trees, dtype=np.int64)  # of each tree
        level = tree = np.arange(trees)  # a level's nodes and their trees
        while level.size:
            inner = ~leaf[level]
            level, tree = level[inner], tree[inner]
            depth[tree] += 1  # once per tree with a split on this level
            level, tree = np.concatenate([left[level], right[level]]), np.tile(tree, 2)
        self.roots = np.argsort(-depth, kind="stable")  # deepest first; tree t is node t
        self.unsort = np.argsort(self.roots)
        self.walking = [int(np.count_nonzero(depth > step)) for step in range(depth.max())]

    def accumulate(self, X: np.ndarray, start: float, weight: float) -> np.ndarray:
        """`start + weight * v0 + weight * v1 + ...` per row, summed in tree order."""
        out = np.empty(X.shape[0], dtype=np.float64)
        chunk = max(1, _CHUNK_ENTRIES // self.roots.size)
        for lo in range(0, X.shape[0], chunk):
            xt = np.ascontiguousarray(X[lo:lo + chunk].T).ravel()  # feature-major
            m = xt.size // X.shape[1]
            cells, at = np.arange(m), self.feature * m  # xt[at[node] + cell] is x[cell, feature]
            node = np.repeat(self.roots[:, None], m, axis=1)  # (trees, cells)
            for k in self.walking:  # the k deepest trees take this step
                top = node[:k]
                go_right = xt[at[top] + cells] > self.threshold[top]
                node[:k] = self.child[2 * top + go_right]
            leaf = weight * self.value[node[self.unsort]]
            leaf[0] += start
            # cumsum adds row after row, the order of a per-tree `acc +=` loop
            out[lo:lo + chunk] = np.cumsum(leaf, axis=0)[-1]
        return out


# -- learner kinds --------------------------------------------------------


class KnnModel:
    """k-nearest-neighbor mean with internally standardized features."""

    kind = "knn"
    _FITTED = ("mu", "sigma", "X", "y")  # float arrays of the model JSON

    def __init__(self, k: int):
        self.k = k
        self.mu = self.sigma = self.X = self.y = None

    def _fit_batch(self, models, X, y, keep, rngs) -> None:
        for m, rows in zip(models, keep):  # one fold at a time
            Xr, m.y = X[rows], y[rows]
            if m.k > Xr.shape[0]:
                raise ValueError(f"k={m.k} exceeds the {Xr.shape[0]} training rows")
            m.mu, m.sigma = Xr.mean(axis=0), Xr.std(axis=0)
            m.sigma[m.sigma == 0.0] = 1.0
            m.X = (Xr - m.mu) / m.sigma

    def predict(self, X) -> np.ndarray:
        X = _as_2d(X)
        Q = (X.T - self.mu[:, None]) / self.sigma[:, None]  # feature-major
        out = np.empty(Q.shape[1], dtype=np.float64)
        chunk = max(1, _CHUNK_ENTRIES // self.X.shape[0])
        for lo in range(0, Q.shape[1], chunk):
            q = Q[:, lo:lo + chunk]
            # (training rows, cells) of exact differences summed feature by
            # feature; the stable sort resolves ties by training-row order
            d2 = sum((self.X[:, f, None] - q[f]) ** 2 for f in range(len(q)))
            nearest = np.argsort(d2.T, axis=1, kind="stable")[:, : self.k]
            out[lo:lo + chunk] = self.y[nearest].mean(axis=1)
        return out

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
    forest's level-order node table as one object of `_TREE_ARRAYS` columns
    (null for a model that grows no trees). Each kind keeps its own
    `predict`: the benchmark tracer books it by class.
    """

    kind: str
    _ARGS: tuple[str, ...]
    _FITTED: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "trees": self.n_trees,
            **{name: getattr(self, name) for name in self._ARGS},
            self._FITTED: getattr(self, self._FITTED),
            "fitted_trees": None if self.forest is None else
                            {name: column.tolist() for name, column in self.forest.table.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "_TreeModel":
        m = cls(trees=int(d["trees"]), **{name: d[name] for name in cls._ARGS})
        setattr(m, cls._FITTED, d[cls._FITTED])
        if d["fitted_trees"] is not None:
            m.forest = _Forest({name: np.array(d["fitted_trees"][name], dtype=dtype)
                                for name, dtype in _TREE_ARRAYS.items()}, m.n_trees)
        return m

    def nested(self, trees: int, max_depth) -> "_TreeModel":
        """This model's first `trees` trees cut at `max_depth`: the model a fit
        with those hyperparameters makes from the same data and seed."""
        m = type(self)(trees=trees, **{**{a: getattr(self, a) for a in self._ARGS},
                                       "max_depth": max_depth})
        setattr(m, self._FITTED, getattr(self, self._FITTED))
        if self.forest is not None:
            m.forest = _Forest(_gather(np.arange(trees), max_depth, **self.forest.table), trees)
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
        self.forest = None
        self.constant = None

    def _fit_batch(self, models, X, y, keep, rngs) -> None:
        for m, rows in zip(models, keep):
            m.forest, m.constant = None, float(y[rows].mean()) if self.max_depth == 0 else None
        if self.max_depth == 0:
            return
        T, p, sizes = self.n_trees, X.shape[1], np.repeat(keep.sum(axis=1), self.n_trees)
        rngs = [r for rng in rngs for r in rng.spawn(T)]  # tree t of models[b] is b * T + t
        boot = np.zeros((len(rngs), sizes.max()), dtype=np.int64)  # padded with row 0
        for b, (rows, r) in enumerate(zip(np.repeat(keep, T, axis=0), rngs)):
            boot[b, :sizes[b]] = np.flatnonzero(rows)[r.integers(0, sizes[b], size=sizes[b])]
        Xb = X[boot]
        k = {None: p, "sqrt": np.sqrt(p), "third": p / 3}[self.max_features]
        table, _ = _grow(Xb, y[boot], np.argsort(Xb, axis=1, kind="stable"),
                         np.arange(boot.shape[1]) < sizes[:, None], self.max_depth,
                         max(1, int(round(k))), rngs)
        for b, m in enumerate(models):
            m.forest = _Forest(_gather(np.arange(b * T, (b + 1) * T), None, **table), T)

    def predict(self, X) -> np.ndarray:
        X = _as_2d(X)
        if self.constant is not None:
            return np.full(X.shape[0], self.constant, dtype=np.float64)
        return self.forest.accumulate(X, 0.0, 1.0) / self.n_trees


class BoostedTreesModel(_TreeModel):
    """Least-squares gradient boosting: mean start, shrunken residual trees."""

    kind = "boosted_trees"
    _ARGS = ("learning_rate", "max_depth")
    _FITTED = "init_value"

    def __init__(self, trees: int, learning_rate: float, max_depth=3):
        self.n_trees = trees
        self.learning_rate = float(learning_rate)
        self.max_depth = max_depth
        self.init_value = None
        self.forest = None

    def _fit_batch(self, models, X, y, keep, rngs) -> None:
        """Fit models[b] on the rows keep[b]: tree t of every model grows in one
        batch, on X presorted once, from each model's own mean and residuals."""
        init = np.array([y[rows].mean() for rows in keep])
        current = np.repeat(init[:, None], X.shape[0], axis=1)
        Xb, order = (np.repeat(a[None], len(keep), axis=0)  # X is the same for every tree
                     for a in (X, np.argsort(X, axis=0, kind="stable")))
        tables = []
        for _ in range(self.n_trees):
            table, fitted = _grow(Xb, y - current, order, keep, self.max_depth, X.shape[1], None)
            current = current + self.learning_rate * fitted
            tables.append(table)
        cat, roots = _concat(tables)
        for b, m in enumerate(models):  # tree t of models[b] is node roots[t] + b
            m.init_value = float(init[b])
            m.forest = _Forest(_gather(roots + b, None, **cat), self.n_trees)

    def predict(self, X) -> np.ndarray:
        return self.forest.accumulate(_as_2d(X), self.init_value, self.learning_rate)


_MODEL_CLASSES = {
    "knn": KnnModel,
    "bagged_trees": BaggedTreesModel,
    "boosted_trees": BoostedTreesModel,
}


def train_base(spec: LearnerSpec, X, y, seed, held_out=None):
    """Fit one base learner; the result is a pure function of the inputs.

    The spec's hyperparameters are its model class's constructor arguments
    (defaults fill those it leaves out); `seed` seeds the fit's rng. Given
    `held_out`, a list of k row-index arrays, it fits k models in one batch
    and returns them: model i is the fit on the rows outside `held_out[i]`
    from seed `[seed, i]`. A single fit is the batch of one. Each kind fits a
    batch in `_fit_batch(models, X, y, keep, rngs)`: models[b] on the rows
    keep[b] of X, y from rngs[b], with its own hyperparameters.
    """
    spec.validate()
    X = _as_2d(X)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (X.shape[0],):
        raise ValueError("y must match the rows of X")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    folds = [[]] if held_out is None else held_out
    keep = np.ones((len(folds), X.shape[0]), dtype=bool)
    for rows, out in zip(keep, folds):
        rows[out] = False
    seeds = [seed] if held_out is None else [[seed, i] for i in range(len(folds))]
    models = [_MODEL_CLASSES[spec.kind](**spec.hp) for _ in folds]
    models[0]._fit_batch(models, X, y, keep, [np.random.default_rng(s) for s in seeds])
    return models[0] if held_out is None else models


def kfold_indices(n: int, k: int, seed) -> list[np.ndarray]:
    """Seeded k-fold partition; the first n % k folds get the extra row."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < k:
        raise ValueError(f"cannot split {n} rows into {k} folds")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(fold) for fold in np.array_split(perm, k)]


def _family(spec: LearnerSpec):
    """Specs of one family nest: one kind, and the same arguments besides
    `trees` and, for bagged trees that grow any, `max_depth`."""
    if spec.kind == "knn":
        return spec
    model = _MODEL_CLASSES[spec.kind](**spec.hp)
    args = {a: getattr(model, a) for a in model._ARGS}
    if spec.kind == "bagged_trees" and args["max_depth"] != 0:
        del args["max_depth"]
    return spec.kind, tuple(sorted(args.items()))


def cv_predict(specs, X, y, k: int = 5, seed=0) -> np.ndarray:
    """Out-of-fold predictions of one nested family under a seeded k-fold split.

    The k folds fit the family's head (most trees, greatest depth) in one batch,
    and each predicts with each member's nested part of it: column j is the
    cross-validation of `specs[j]` alone.
    """
    specs = list(specs)
    if not specs or len({_family(s) for s in specs}) != 1:
        raise ValueError("cv_predict needs the specs of one nested family")
    members = [_MODEL_CLASSES[s.kind](**s.hp) for s in specs]  # unfitted: their arguments
    head = specs[0]
    if head.kind != "knn":
        depths = [m.max_depth for m in members]
        deepest = None if None in depths else max(depths)
        head = LearnerSpec.make(head.kind, **{**head.hp, "max_depth": deepest,
                                              "trees": max(m.n_trees for m in members)})
    X = _as_2d(X)
    oof = np.empty((X.shape[0], len(specs)), dtype=np.float64)
    folds = kfold_indices(X.shape[0], k, seed)
    for test_idx, model in zip(folds, train_base(head, X, y, seed, held_out=folds)):
        for j, (spec, member) in enumerate(zip(specs, members)):
            fit = model if spec == head else model.nested(member.n_trees, member.max_depth)
            oof[test_idx, j] = fit.predict(X[test_idx])
    return oof


def grid_search(specs, X, y, k: int = 5, seed=0):
    """Pick the spec with the lowest k-fold CV RMSE; ties keep grid order.

    Each nested family of specs is cross-validated once, on the same seeded
    folds. Returns `(best, best_oof, scores)`: the winner, its out-of-fold
    predictions (those of `cv_predict([best], X, y, k, seed)`) and `(spec,
    rmse)` in grid order.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("empty hyperparameter grid")
    y = np.asarray(y, dtype=np.float64)
    families: dict = {}
    for spec in specs:
        families.setdefault(_family(spec), []).append(spec)
    oof = {}
    for family in families.values():
        oof.update(zip(family, cv_predict(family, X, y, k=k, seed=seed).T))
    scores = [(spec, float(np.sqrt(np.mean((y - oof[spec]) ** 2)))) for spec in specs]
    best = min(scores, key=lambda score: score[1])[0]
    return best, oof[best], scores


@dataclass
class StackFit:
    """OLS combination of base-model prediction columns, with intercept."""

    intercept: float
    coefficients: np.ndarray
    rank_deficient: bool

    def apply(self, columns) -> np.ndarray:
        columns = _as_2d(columns)
        return self.intercept + columns @ self.coefficients

    def to_dict(self) -> dict:
        return {**vars(self), "coefficients": self.coefficients.tolist()}

    @staticmethod
    def from_dict(d: dict) -> "StackFit":
        return StackFit(intercept=float(d["intercept"]),
                        coefficients=np.array(d["coefficients"], dtype=np.float64),
                        rank_deficient=bool(d["rank_deficient"]))


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
    return StackFit(intercept=float(sol[0]),
                    coefficients=sol[1:].copy(),
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

    def base_predictions(self, X) -> np.ndarray:
        X = _as_2d(X)
        return np.column_stack([m.predict(X) for m in self.models])

    def predict(self, X) -> np.ndarray:
        """Stacked prediction, truncated below at zero."""
        return np.maximum(self.stack.apply(self.base_predictions(X)), 0.0)

    def to_json(self) -> str:
        doc = {
            "format_version": MODEL_FORMAT_VERSION,
            "feature_names": self.feature_names,
            "ybar_train": self.ybar_train,
            "stack": self.stack.to_dict(),
            "base": [
                {"spec": s.to_dict(), "model": m.to_dict()}
                for s, m in zip(self.specs, self.models)
            ],
        }
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "EnsembleModel":
        doc = json.loads(text)
        version = doc.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version!r}")
        specs = [LearnerSpec.from_dict(entry["spec"]) for entry in doc["base"]]
        models = [_MODEL_CLASSES[spec.kind].from_dict(entry["model"])
                  for spec, entry in zip(specs, doc["base"])]
        return EnsembleModel(
            specs=specs,
            models=models,
            stack=StackFit.from_dict(doc["stack"]),
            feature_names=list(doc["feature_names"]),
            ybar_train=float(doc["ybar_train"]),
        )


def predict_grid(model: EnsembleModel, predictors: dict) -> Grid:
    """Wall-to-wall prediction over aligned predictor grids.

    A cell is predicted only where every predictor is valid. Missing layers
    and geometry mismatches raise.
    """
    missing = [name for name in model.feature_names if name not in predictors]
    if missing:
        raise ValueError(f"missing predictor layers: {missing}")
    grids = [predictors[name] for name in model.feature_names]
    first = grids[0]
    for g in grids[1:]:
        if not first.aligned_with(g):
            raise ValueError("predictor grids are not aligned")
    mask = np.logical_and.reduce([g.mask for g in grids])
    values = np.zeros((first.nrows, first.ncols), dtype=np.float64)
    if np.any(mask):
        X = np.column_stack([g.values[mask].astype(np.float64) for g in grids])
        values[mask] = model.predict(X)
    return first.with_values(values, mask, units="Mg/ha")
