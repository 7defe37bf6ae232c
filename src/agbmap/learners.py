"""Base learners, cross-validated model selection, and the stacked ensemble.

Three learner kinds share one interface: k-nearest-neighbors, bagged
regression trees with random-subspace splits, and least-squares boosted
trees. Base models are combined by an ordinary least-squares stack fitted on
out-of-fold predictions; final ensemble predictions are truncated below at
zero, since the target is a nonnegative density.

Every fit is a pure function of (data, hyperparameters, seed). Trees grow level by level
in batches, each on its own rows and target: a bagged batch's trees in groups, or tree t of
every boosted fit on features presorted once; a single fit is the batch of one. Each bagged
tree draws from its own rng, spawned from the fit's. So a fit's first t trees cut at depth d
are the fit of those hyperparameters, and a knn fit keeps every row and serves any k. A
family is the specs of one kind that differ only in its nesting arguments (for knn, k);
model selection grows each family once, in one batch: the folds and the fit on all rows of
every target (allometry).
A model keeps its spec, the one record of its hyperparameters, and a tree model only its
level-order table of feature, threshold and value (the order implies the children); a
model file the predicts would misread is refused. A map is predicted in row blocks, each
over chunks of cells on every CPU in buffers per worker; a cell gets the same bits in any
block and at any CPU count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .grid import Grid, finite_number, map_chunks, row_blocks
from .metrics import PairedSample, error_metrics, least_squares

MODEL_FORMAT_VERSION = 5

# entries of the per-chunk work arrays: node ids of a forest walk (chunk = this
# // trees) and distances of a knn query (chunk = this // training rows), one chunk
# per worker (a CPU this process may run on) in flight, and split costs of a tree
# level (candidates = this // 8 // rows of the widest node: passes that stay in cache)
_CHUNK_ENTRIES = 65_536
_GROUP_TREES = 128  # bagged trees per grower call: bounds its (trees, rows) arrays

DEFAULT_GRIDS: dict[str, list[dict]] = {  # hyperparameter grids for model selection
    "knn": [{"k": k} for k in (1, 5, 10, 25)],
    "bagged_trees": [{"trees": t, "max_depth": d, "max_features": m}
                     for t in (100, 300) for d in (8, 16, None) for m in ("sqrt", "third")],
    "boosted_trees": [{"trees": t, "learning_rate": lr, "max_depth": d}
                      for t in (200, 500) for lr in (0.05, 0.1) for d in (3, 6)],
}


def of_type(value, types) -> bool:  # a bool is an int, but no count or number here
    return isinstance(value, types) and not isinstance(value, bool)


@dataclass(frozen=True)
class LearnerSpec:
    kind: str
    hyperparameters: tuple

    @staticmethod
    def make(kind: str, /, **hyperparameters) -> "LearnerSpec":
        spec = LearnerSpec(kind=kind, hyperparameters=tuple(sorted(hyperparameters.items())))
        spec.validate()
        return spec

    @property
    def hp(self) -> dict:
        return dict(self.hyperparameters)

    def validate(self) -> None:
        hp, bagged = self.hp, self.kind == "bagged_trees"
        allowed = {"knn": {"k"}, "bagged_trees": {"trees", "max_depth", "max_features"},
                   "boosted_trees": {"trees", "max_depth", "learning_rate"}}.get(self.kind)
        if allowed is None:
            raise ValueError(f"unknown learner kind {self.kind!r}")
        extra = sorted(set(hp) - allowed)
        if extra:  # before a missing name: a misspelt one is both
            raise ValueError(f"unknown hyperparameters for {self.kind}: {extra}")
        if self.kind == "knn":
            if not (of_type(hp.get("k"), int) and hp["k"] >= 1):
                raise ValueError("knn needs an integer k >= 1")
            return
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

    def to_dict(self) -> dict:
        return {"kind": self.kind, "hyperparameters": self.hp}


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
# Leaves have feature -1 and threshold 0. The order implies the children.
_TREE_ARRAYS = {"feature": np.int32, "threshold": np.float64, "value": np.float64}


def _left(feature) -> np.ndarray:
    """Each node's left child in a level-order table, -1 at leaves; right is left + 1. With
    t trees, the size less twice the splits, split k (from 0) has children t + 2k, t + 2k + 1."""
    inner = np.asarray(feature) >= 0
    return np.where(inner, inner.size - 2 * inner.sum() + 2 * np.cumsum(inner) - 2, -1)


def _concat(tables: list[dict]) -> tuple[dict, np.ndarray]:
    """Level-order tables end to end, each split's left child in `left`; each one's first node."""
    roots = np.cumsum([0] + [t["value"].size for t in tables[:-1]])
    cat = {name: np.concatenate([t[name] for t in tables]) for name in _TREE_ARRAYS}
    cat["left"] = np.concatenate([_left(t["feature"]) + r for t, r in zip(tables, roots)])
    return cat, roots


def _gather(roots, max_depth, feature, threshold, value, left=None) -> dict:
    """The trees at `roots` of a node table, cut at `max_depth`, as a new
    level-order table: nodes numbered in the order a breadth-first walk visits
    them, children left then right in parent order, so tree t is node t. `left`
    gives each split's left child if the table is not level order."""
    left = _left(feature) if left is None else left
    levels = [np.asarray(roots)]
    while max_depth is None or len(levels) <= max_depth:
        split = left[levels[-1][feature[levels[-1]] >= 0]]
        if not split.size:
            break
        levels.append(np.column_stack([split, split + 1]).ravel())
    old = np.concatenate(levels)
    inner = feature[old] >= 0
    inner[old.size - levels[-1].size:] = False  # the last level is all leaves or cut
    table = {"feature": np.where(inner, feature[old], -1),
             "threshold": np.where(inner, threshold[old], 0.0), "value": value[old]}
    return {name: table[name].astype(dtype) for name, dtype in _TREE_ARRAYS.items()}


def _grow(X, y, order, keep, max_depth, max_features, rngs) -> tuple[dict, np.ndarray]:
    """Grow a regression tree on each sample, all together, level by level.

    X is (trees, n, p), y (trees, n), `order` X's stable argsort along axis 1
    and `keep` (trees, n) marks the rows each tree is grown on. A node is a leaf
    at `max_depth`, below two rows or with equal targets; its value is numpy's
    pairwise sum of its targets in row order over their count, as `mean` takes
    it, one `reduceat` per level. Otherwise it splits at the midpoint between
    distinct sorted values that minimizes the summed child squared error, ties
    going to the first feature, then the first midpoint. With `max_features`
    below p, each tree's rng draws that many candidate features per node, one
    call per level. Returns a node table (tree b rooted at node b) and each kept
    row's leaf value, 0 at the other rows, (trees, n).
    """
    B, n, p = X.shape
    xe, ye = X.reshape(-1), y.reshape(-1)  # row e = b * n + i has feature f at xe[e * p + f]
    # one row per feature holding the kept rows of each open node in ascending
    # x, and a last row holding them in ascending e; nodes in level order
    perm = np.vstack([(order + n * np.arange(B)[:, None, None]).transpose(2, 0, 1).reshape(p, -1),
                      np.arange(B * n)])
    perm = perm[keep.reshape(-1)[perm]].reshape(p + 1, -1)
    size, tree, table, fitted = keep.sum(axis=1), np.arange(B), [], np.zeros(B * n)
    while True:
        start, slot = np.cumsum(size) - size, np.repeat(np.arange(size.size), size)
        y_rows = ye[perm[-1]]
        # `mean` sums 0.0 + the pairwise sum of a node's targets, and `reduceat` a segment's
        # first value + the pairwise sum of the rest: so each node's segment leads with 0.0
        sums = np.add.reduceat(np.insert(y_rows, start, 0.0), start + np.arange(size.size))
        level = {"feature": np.full(size.size, -1, dtype=_TREE_ARRAYS["feature"]),
                 "threshold": np.zeros(size.size), "value": sums / size}
        table.append(level)
        fitted[perm[-1]] = level["value"][slot]  # until a deeper level's
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
        level["feature"][split], level["threshold"][split] = f, thr
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
        perm, tree = perm[:, :size.sum()], np.repeat(tree[split], 2)
    cat = {name: np.concatenate([level[name] for level in table]) for name in table[0]}
    return cat, fitted.reshape(B, n)


def _accumulate(table: dict, trees: int, X: np.ndarray, start: float, weight: float) -> np.ndarray:
    """`start + weight * v0 + weight * v1 + ...` per row of X, summed in tree
    order, over the `trees` trees of a level-order node table, each right child
    at its left + 1 (`_left`). In the walk a leaf is its own left child with a +inf
    threshold, so a step is `node = left[node] + (x > threshold)`, and as many steps
    as a tree is deep take every cell to its leaf with no leaf test. The trees walk
    deepest first, so a step is one slice of a worker's buffers and allocates nothing."""
    leaf, (n, p), chunk = table["feature"] < 0, X.shape, max(1, _CHUNK_ENTRIES // trees)
    left = np.where(leaf, np.arange(leaf.size), _left(table["feature"]))
    feature = np.where(leaf, 0, table["feature"]).astype(np.intp)
    threshold = np.where(leaf, np.inf, table["threshold"])
    depth, tree, lo = np.zeros(trees, dtype=np.int64), np.arange(trees), 0
    while tree.size:  # the tree of each node of the level at ids lo, lo + 1, ...
        split = tree[~leaf[lo:lo + tree.size]]
        depth[split] += 1  # once per tree with a split on this level
        lo, tree = lo + tree.size, np.repeat(split, 2)
    roots = np.argsort(-depth, kind="stable")  # deepest first; tree t is node t
    unsort = np.argsort(roots)
    walking = [int(np.count_nonzero(depth > step)) for step in range(1, depth.max())]
    cells, full = np.arange(min(chunk, n)), feature * min(chunk, n)
    root_feature, root_threshold, root_left = feature[roots], threshold[roots, None], left[roots]

    def walk(lo, hi, b):
        m, xt, x, node, i = hi - lo, b["xt"], b["x"], b["node"], b["i"]
        xt[...] = X[lo:hi].T  # feature-major: xt.ravel()[at[node] + c] is cell c's feature
        at = full if m == cells.size else feature * m
        # all cells start at each root, so step one compares whole rows of xt
        np.take(xt, root_feature, axis=0, out=x, mode="clip")
        np.add(root_left[:, None], np.greater(x, root_threshold, out=b["go"]), out=node)
        for k in walking:  # the k deepest trees take this step
            top, go = node[:k], b["go"][:k]
            np.add(np.take(at, top, out=i[:k], mode="clip"), cells[:m], out=i[:k])
            np.greater(np.take(xt.ravel(), i[:k], out=x[:k], mode="clip"),
                       np.take(threshold, top, out=b["thr"][:k], mode="clip"), out=go)
            np.add(np.take(left, top, out=i[:k], mode="clip"), go, out=top)
        np.take(node, unsort, axis=0, out=i, mode="clip")  # rows back in tree order
        leaves = np.multiply(np.take(table["value"], i, out=x, mode="clip"), weight, out=x)
        leaves[0] += start
        if m == 1:  # one cell: `sum` would add pairwise
            return np.cumsum(leaves, axis=0)[-1]
        # row after row, the order of a per-tree `acc +=` loop; -0.0 + v is v
        return np.add.reduce(leaves, axis=0, out=b["thr"][0], initial=-0.0)

    per_cell = {"xt": (p, float), "go": (trees, bool), "x": (trees, float), "thr": (trees, float)}
    return map_chunks(n, chunk, walk, {**per_cell, "node": (trees, np.intp), "i": (trees, np.intp)})


# -- learner kinds --------------------------------------------------------


class _Model:
    """A model keeps its spec and its fitted state, `_FITTED`. A fit reads `hp`: the spec's
    hyperparameters, `_DEFAULTS` filling those it leaves out. Specs of a kind that differ
    only in its nesting arguments `_NESTS` are a family, which one fit serves (`nested`)."""

    _DEFAULTS: dict = {}

    def __init__(self, spec: LearnerSpec):
        self.spec = spec

    @property
    def hp(self) -> dict:
        return {**self._DEFAULTS, **self.spec.hp}

    def nested(self, spec: LearnerSpec) -> "_Model":
        """The fit of `spec`, of this model's family, on the same data and seed."""
        m = type(self)(spec)
        vars(m).update({name: getattr(self, name) for name in self._FITTED})
        return m


class KnnModel(_Model):
    """k-nearest-neighbor mean with internally standardized features; a fit serves any k."""

    kind = "knn"
    _NESTS = ("k",)
    _FITTED = ("mu", "sigma", "X", "y")  # float arrays of the model JSON

    def _fit_batch(self, models, X, Y, keep, rngs) -> None:
        for m, y, rows in zip(models, Y, keep):  # one fold at a time
            Xr, m.y = X[rows], y[rows]
            if self.hp["k"] > Xr.shape[0]:
                raise ValueError(f"k={self.hp['k']} exceeds the {Xr.shape[0]} training rows")
            m.mu, m.sigma = Xr.mean(axis=0), Xr.std(axis=0)
            m.sigma[m.sigma == 0.0] = 1.0
            m.X = (Xr - m.mu) / m.sigma

    def predict(self, X) -> np.ndarray:
        Q = (_as_2d(X).T - self.mu[:, None]) / self.sigma[:, None]  # feature-major
        XT, n, k = np.ascontiguousarray(self.X.T), self.X.shape[0], self.hp["k"]

        def query(lo, hi, b):  # (cells, training rows) of exact differences, feature by feature
            d2, diff = b["d2"].reshape(hi - lo, n), b["diff"].reshape(hi - lo, n)
            np.square(np.subtract(Q[0, lo:hi, None], XT[0], out=d2), out=d2)
            for qf, xf in zip(Q[1:, lo:hi], XT[1:]):
                d2 += np.square(np.subtract(qf[:, None], xf, out=diff), out=diff)
            if not d2.max() < np.inf:  # an inf or nan distance would tie the masked rows
                return self.y[np.argsort(d2, axis=1, kind="stable")[:, :k]].mean(axis=1)
            nearest, cells = np.empty((hi - lo, k), dtype=np.intp), np.arange(hi - lo)
            for j in range(k):  # argmin's ties go to the lower row, as in a stable sort
                nearest[:, j] = pick = d2.argmin(axis=1)
                d2[cells, pick] = np.inf
            return self.y[nearest].mean(axis=1)

        return map_chunks(Q.shape[1], max(1, _CHUNK_ENTRIES // n), query,
                          dict.fromkeys(("d2", "diff"), (n, np.float64)))

    def to_dict(self) -> dict:
        return {name: getattr(self, name).tolist() for name in self._FITTED}

    def _fill(self, fitted: dict) -> None:  # from its model JSON
        for name in self._FITTED:
            setattr(self, name, np.array(fitted[name], dtype=np.float64))

    def _sound(self, p: int) -> bool:  # else predict zips features short or repeats a row
        rows, arrays = self.y.size if self.y.ndim == 1 else -1, map(vars(self).get, self._FITTED)
        return (self.X.shape == (rows, p) and self.mu.shape == self.sigma.shape == (p,)
                and self.hp["k"] <= rows and all(np.isfinite(a).all() for a in arrays))


class _TreeModel(_Model):
    """Model JSON of the tree kinds: its fitted scalars (`_FITTED`) and `fitted_trees`, the
    level-order node table `table` as one object of exactly the `_TREE_ARRAYS` columns, the
    only array a model keeps. Each kind keeps its own `predict`: the tracer books it by class."""

    def to_dict(self) -> dict:
        return {**{name: getattr(self, name) for name in self._FITTED},
                "fitted_trees": {name: column.tolist() for name, column in self.table.items()}}

    def _fill(self, fitted: dict) -> None:  # from its model JSON
        for name in self._FITTED:
            setattr(self, name, fitted[name])
        self.table = {name: np.array(column, dtype=_TREE_ARRAYS[name])  # KeyError on another
                      for name, column in fitted["fitted_trees"].items()}  # column, as `left`

    def _sound(self, p: int) -> bool:
        """Whether the walk (clipped gathers) reads all three columns right: with each of `trees
        + 2 * splits` entries, a split a root reaches has its children after it, in the table."""
        t, T, fitted = self.table, self.hp["trees"], map(vars(self).get, self._FITTED)
        inner = t["feature"] >= 0
        return (all(c.shape == (T + 2 * inner.sum(),) for c in t.values())
                and np.all(t["feature"] < p) and np.isfinite(t["threshold"][inner]).all()
                and np.isfinite(t["value"]).all() and all(map(finite_number, fitted)))

    def nested(self, spec: LearnerSpec) -> "_TreeModel":  # the first trees, cut at its depth
        m = super().nested(spec)
        m.table = _gather(range(spec.hp["trees"]), m.hp["max_depth"], **self.table)
        return m


class BaggedTreesModel(_TreeModel):
    """Bootstrap-aggregated trees with a random feature subset per split. Each
    tree draws its bootstrap sample and then its split candidates from its own
    rng, spawned from the fit's, so the first t trees of a fit cut at depth d are
    the fit of (t, d), max_depth=0 too: t bootstrap means."""

    kind = "bagged_trees"
    _DEFAULTS = {"max_depth": None, "max_features": "sqrt"}
    _NESTS = ("trees", "max_depth")
    _FITTED = ()

    def _fit_batch(self, models, X, Y, keep, rngs) -> None:
        T, depth, G, tables = self.hp["trees"], self.hp["max_depth"], _GROUP_TREES, []
        rngs = [r for rng in rngs for r in rng.spawn(T)]  # tree t of models[b] is b * T + t
        of, sizes = np.repeat(np.arange(len(models)), T), np.repeat(keep.sum(axis=1), T)
        for g in (slice(lo, lo + G) for lo in range(0, len(rngs), G)):  # each tree as if alone
            boot = np.zeros((len(rngs[g]), sizes[g].max()), dtype=np.int64)  # padded with row 0
            for i, (b, size, r) in enumerate(zip(of[g], sizes[g], rngs[g])):
                boot[i, :size] = np.flatnonzero(keep[b])[r.integers(0, size, size=size)]
            Xb = X[boot]
            tables.append(_grow(Xb, Y[of[g, None], boot], np.argsort(Xb, axis=1, kind="stable"),
                                np.arange(boot.shape[1]) < sizes[g, None], depth,
                                self.features_drawn(X.shape[1]), rngs[g])[0])
        table, roots = _concat(tables)
        del tables  # members are gathered from `_concat`'s copy alone
        roots = np.repeat(roots, G)[:len(rngs)] + np.arange(len(rngs)) % G  # of each tree
        for b, m in enumerate(models):
            m.table = _gather(roots[b * T:(b + 1) * T], None, **table)

    def features_drawn(self, p: int) -> int:
        """How many of p features each split draws: fits that draw as many
        grow the same trees, whatever `max_features` names the count."""
        k = {None: p, "sqrt": np.sqrt(p), "third": p / 3}[self.hp["max_features"]]
        return max(1, int(round(k)))

    def predict(self, X) -> np.ndarray:
        T = self.hp["trees"]
        return _accumulate(self.table, T, _as_2d(X), 0.0, 1.0) / T


class BoostedTreesModel(_TreeModel):
    """Least-squares gradient boosting: mean start, shrunken residual trees."""

    kind = "boosted_trees"
    _DEFAULTS = {"max_depth": 3}
    _NESTS = ("trees",)
    _FITTED = ("init_value",)

    def _fit_batch(self, models, X, Y, keep, rngs) -> None:
        """Fit models[b] on the rows keep[b] of Y[b]: tree t of every model grows in
        one batch, on X presorted once, from each model's own mean and residuals."""
        init = np.array([y[rows].mean() for y, rows in zip(Y, keep)])
        current = np.repeat(init[:, None], X.shape[0], axis=1)
        Xb, order = (np.repeat(a[None], len(keep), axis=0)  # X is the same for every tree
                     for a in (X, np.argsort(X, axis=0, kind="stable")))
        tables, hp = [], self.hp
        for _ in range(hp["trees"]):
            table, fitted = _grow(Xb, Y - current, order, keep, hp["max_depth"], X.shape[1], None)
            current = current + hp["learning_rate"] * fitted
            tables.append(table)
        cat, roots = _concat(tables)
        del tables  # members are gathered from `_concat`'s copy alone
        for b, m in enumerate(models):  # tree t of models[b] is node roots[t] + b
            m.init_value = float(init[b])
            m.table = _gather(roots + b, None, **cat)

    def predict(self, X) -> np.ndarray:
        hp = self.hp
        return _accumulate(self.table, hp["trees"], _as_2d(X), self.init_value, hp["learning_rate"])


_MODEL_CLASSES = {cls.kind: cls for cls in (KnnModel, BaggedTreesModel, BoostedTreesModel)}


def train_base(spec: LearnerSpec, X, y, seed, held_out=None):
    """Fit one base learner; the result is a pure function of the inputs. Each model
    is made from the spec and keeps it; `seed` seeds the fit's rng. Given `held_out`,
    B row-index arrays, and B seeds, it returns B models fitted in one batch: model b
    fits y (or y[b], for a y of B rows) on the rows outside held_out[b] from
    seed[b], in `_fit_batch(models, X, Y, keep, rngs)`."""
    spec.validate()
    X = _as_2d(X)
    folds = [[]] if held_out is None else held_out
    keep = np.array([~np.isin(np.arange(X.shape[0]), out) for out in folds])
    y = np.asarray(y, dtype=np.float64)
    if y.shape not in ((X.shape[0],), keep.shape) or not np.all(np.isfinite(y)):
        raise ValueError("y must be finite and match the rows of X")
    models = [_MODEL_CLASSES[spec.kind](spec) for _ in folds]
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
    """A family is the specs of one kind that differ only in its nesting arguments
    `_NESTS` (defaults filled in): `k` of knn, `trees` of boosted trees, `trees` and
    `max_depth` of bagged trees, which on p features compare the count `max_features`
    draws, not its name."""
    model = _MODEL_CLASSES[spec.kind](spec)
    args = {a: v for a, v in model.hp.items() if a not in model._NESTS}
    if spec.kind == "bagged_trees":
        args["max_features"] = model.features_drawn(p)
    return spec.kind, tuple(sorted(args.items()))


def cv_predict(specs, X, Y, k: int, seeds, final_seeds):
    """Out-of-fold predictions of one nested family under seeded k-fold splits.

    A family is the specs of one kind that differ only in its nesting arguments (for
    knn, k). Y holds one target per row, each with a seed and a final seed. One batch
    fits the family's head, the greatest of each nesting argument (a depth of None the
    greatest), on every target's k folds and on all its rows from its final seed.
    Returns `(oof, fits)`: oof[a, :, j] is the cross-validation of `specs[j]` alone on
    target a, each fold predicting with the member's nested part of the head, and
    fits[a] the head on all rows of target a.
    """
    specs, X, Y = list(specs), _as_2d(X), np.asarray(Y, dtype=np.float64)
    if not specs or len({_family(s, X.shape[1]) for s in specs}) != 1:
        raise ValueError("cv_predict needs the specs of one nested family")
    if Y.ndim != 2 or not len(Y) == len(seeds) == len(final_seeds):
        raise ValueError("Y needs one target per row, each with a seed and a final seed")
    cls = _MODEL_CLASSES[specs[0].kind]
    nests = {a: [cls(s).hp[a] for s in specs] for a in cls._NESTS}  # defaults filled in
    head = LearnerSpec.make(cls.kind, **{**specs[0].hp, **{a: None if None in v else max(v)
                                                            for a, v in nests.items()}})
    folds = [(a, out, [s, i]) for a, s in enumerate(seeds)
             for i, out in enumerate(kfold_indices(X.shape[0], k, s))]
    of, held_out, member_seeds = zip(*folds, *((a, [], s) for a, s in enumerate(final_seeds)))
    models = train_base(head, X, Y[list(of)], list(member_seeds), held_out=list(held_out))
    oof = np.empty((len(Y), X.shape[0], len(specs)))
    for (a, test_idx, _), model in zip(folds, models):
        for j, spec in enumerate(specs):
            fit = model if spec == head else model.nested(spec)
            oof[a, test_idx, j] = fit.predict(X[test_idx])
    return oof, models[len(folds):]


def grid_search(specs, X, Y, k: int, seeds, final_seeds):
    """Pick, per target, the spec with the lowest k-fold CV RMSE; ties keep grid order.

    Each nested family of specs is cross-validated once (`cv_predict`, these
    arguments). Returns one `(best, best_oof, scores, final)` per target: the
    winner, its out-of-fold predictions, `(spec, rmse)` in grid order, and the
    winner's fit on all rows, as `train_base` fits it from the target's final seed.
    """
    specs, X, Y = list(specs), _as_2d(X), np.asarray(Y, dtype=np.float64)
    if not specs:
        raise ValueError("empty hyperparameter grid")
    families: dict = {}
    for spec in specs:
        families.setdefault(_family(spec, X.shape[1]), []).append(spec)
    got = [(f, *cv_predict(f, X, Y, k, seeds, final_seeds)) for f in families.values()]
    results = []
    for a, target in enumerate(Y):
        oof = {s: col for family, cols, _ in got for s, col in zip(family, cols[a].T)}
        scores = [(spec, error_metrics(PairedSample(target, oof[spec])).rmse) for spec in specs]
        best = min(scores, key=lambda score: score[1])[0]
        fit = next(fits[a] for family, _, fits in got if best in family)
        results.append((best, oof[best], scores, fit.nested(best)))
    return results


@dataclass
class StackFit:
    """OLS combination of base-model prediction columns, with intercept, as
    `metrics.least_squares` fits it; `rank_deficient` flags a minimal-norm fit."""

    intercept: float
    coefficients: np.ndarray
    rank_deficient: bool

    def apply(self, columns) -> np.ndarray:
        return sum((x * c for x, c in zip(_as_2d(columns).T, self.coefficients)), self.intercept)


def fit_stack(oof, y) -> StackFit:
    """Least-squares stacking weights on out-of-fold columns, unconstrained, by
    `least_squares`: collinear or constant columns of the centred design take the
    minimal-norm solution and are flagged."""
    oof = _as_2d(oof)
    if np.shape(y) != (oof.shape[0],):
        raise ValueError("y must match the rows of the prediction matrix")
    return StackFit(*least_squares(oof.T, y))


@dataclass
class EnsembleModel:
    """Fitted base models, each keeping its spec, plus the stacking combination.
    `feature_names` fixes the predictor order for tabular and raster prediction."""

    models: list[object]
    stack: StackFit
    feature_names: list[str]

    def predict(self, X) -> np.ndarray:
        """Stacked prediction, truncated below at zero."""
        return np.maximum(self.stack.apply(np.column_stack([m.predict(X) for m in self.models])),
                          0.0)

    def to_json(self) -> str:
        return json.dumps({
            "format_version": MODEL_FORMAT_VERSION,
            "feature_names": self.feature_names,
            "stack": {**vars(self.stack), "coefficients": self.stack.coefficients.tolist()},
            "base": [{"spec": m.spec.to_dict(), "model": m.to_dict()} for m in self.models],
        }, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "EnsembleModel":
        doc = json.loads(text)
        version = doc.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version!r}: this code reads "
                             f"format {MODEL_FORMAT_VERSION}; run fit again to write one")
        base, names, st = doc["base"], list(doc["feature_names"]), doc["stack"]
        specs = [LearnerSpec.make(e["spec"]["kind"], **e["spec"]["hyperparameters"]) for e in base]
        models = [_MODEL_CLASSES[s.kind](s) for s in specs]
        for i, (m, e) in enumerate(zip(models, base)):  # the predicts trust what `_sound` checks
            try:  # other keys than its kind writes, a table that is none or not numbers
                m._fill(e["model"])
                sound = e["model"].keys() == m.to_dict().keys() and m._sound(len(names))
            except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
                sound = False
            if not sound:
                raise ValueError(f"malformed {m.kind} model: base {i} on {len(names)} features")
        coefficients = np.array(st["coefficients"], dtype=np.float64)
        if not (models and coefficients.shape == (len(models),) and np.isfinite(coefficients).all()
                and finite_number(st["intercept"]) and isinstance(st["rank_deficient"], bool)):
            raise ValueError(f"malformed stack: it needs {len(models)} finite coefficients, one "
                             "per base model (>= 1), a finite intercept and a bool rank_deficient")
        stack = StackFit(float(st["intercept"]), coefficients, st["rank_deficient"])
        return EnsembleModel(models, stack, names)


def predict_grid(model: EnsembleModel, predictors: dict, domain) -> Grid:
    """Prediction over aligned predictor grids at the cells of the boolean `domain`
    (of their shape) where every predictor has a value; every other cell has none. Missing
    layers, misaligned grids, a domain of another shape and a non-finite prediction raise."""
    missing = [name for name in model.feature_names if name not in predictors]
    if missing:
        raise ValueError(f"missing predictor layers: {missing}")
    grids = [predictors[name] for name in model.feature_names]
    first = grids[0]
    if not all(first.aligned_with(g) for g in grids[1:]):
        raise ValueError("predictor grids are not aligned")
    if np.shape(domain) != first.values.shape:
        raise ValueError(f"domain of shape {np.shape(domain)} on grids of {first.values.shape}")
    values = np.full(first.values.shape, np.nan, dtype=np.float32)
    for rows in row_blocks(first.nrows, first.ncols):  # no whole-domain X or validity
        block = [g.values[rows] for g in grids]  # a NaN would walk left: `x > threshold`
        if (m := np.logical_and.reduce([domain[rows], *(~np.isnan(v) for v in block)])).any():
            yhat = model.predict(np.stack([v[m] for v in block], axis=1))
            if not np.isfinite(yhat).all():  # NaN would read as a cell with no value
                raise ValueError("the model predicts a value that is not finite")
            values[rows][m] = yhat
    values.flags.writeable = False  # so the grid keeps it
    return first.with_values(values, units="Mg/ha")
