"""Base learners, cross-validated model selection, and the stacked ensemble.

Three learner kinds share one interface: k-nearest-neighbors, bagged
regression trees with random-subspace splits, and least-squares boosted
trees. Base models are combined by an ordinary least-squares stack fitted on
out-of-fold predictions; final ensemble predictions are truncated below at
zero, since the target is a nonnegative density.

Every fit is a pure function of (data, hyperparameters, seed). A tree model's
trees are also kept as one flat forest of concatenated node arrays; predict
walks all trees at once over chunks of cells, each tree as many steps as it is
deep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .grid import Grid

MODEL_FORMAT_VERSION = 1

# entries of the per-chunk work arrays of a predict: node ids of a forest walk
# (chunk = this // trees), distances of a knn query (chunk = this // training rows)
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
            if not (isinstance(hp.get("k"), int) and hp["k"] >= 1):
                raise ValueError("knn needs an integer k >= 1")
        elif self.kind in ("bagged_trees", "boosted_trees"):
            bagged = self.kind == "bagged_trees"
            allowed = {"trees", "max_depth", "max_features" if bagged else "learning_rate"}
            if not (isinstance(hp.get("trees"), int) and hp["trees"] >= 1):
                raise ValueError(f"{self.kind} needs an integer trees >= 1")
            lr = hp.get("learning_rate")
            if not bagged and not (isinstance(lr, (int, float)) and lr >= 0):
                raise ValueError("learning_rate must be a nonnegative number")
            d = hp.get("max_depth")
            if d is not None and not (isinstance(d, int) and d >= 0):
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


# -- regression tree ------------------------------------------------------

_TREE_ARRAYS = {"feature": np.int32, "threshold": np.float64,  # as in the model JSON
                "left": np.int32, "right": np.int32, "value": np.float64}


class RegressionTree:
    """CART-style regression tree stored as flat node arrays.

    `max_features` limits the candidate features drawn (without replacement)
    at each split; None considers all of them. Split search is exhaustive over
    midpoints between distinct sorted values, minimizing the summed child
    squared error, with first-candidate tie-breaking for determinism.
    """

    def __init__(self, max_depth=None, max_features=None):
        self.max_depth = max_depth
        self.max_features = max_features

    def fit(self, X, y, rng) -> np.ndarray:
        """Grow the tree; returns its prediction for every training row."""
        X = _as_2d(X)
        y = np.asarray(y, dtype=np.float64)
        n, p = X.shape
        columns = feature, threshold, left, right, value = [], [], [], [], []

        def new_node():
            for column, empty in zip(columns, (-1, 0.0, -1, -1, 0.0)):
                column.append(empty)
            return len(feature) - 1

        fitted = np.empty(n, dtype=np.float64)
        root = new_node()
        stack = [(np.arange(n), 0, root)]
        while stack:
            idx, depth, nid = stack.pop()
            yn = y[idx]
            value[nid] = fitted[idx] = float(yn.mean())
            m = idx.size
            if (self.max_depth is not None and depth >= self.max_depth) \
                    or m < 2 or np.all(yn == yn[0]):
                continue
            if self.max_features is not None and self.max_features < p:
                feats = np.sort(rng.choice(p, size=self.max_features, replace=False))
            else:
                feats = np.arange(p)
            best = None  # (cost, f, threshold)
            for f in feats:
                col = X[idx, f]
                order = np.argsort(col, kind="stable")
                xs = col[order]
                if xs[0] == xs[-1]:
                    continue
                ys = yn[order]
                c1 = np.cumsum(ys)
                c2 = np.cumsum(ys * ys)
                s1, s2 = c1[-1], c2[-1]
                i = np.arange(1, m)
                ok = xs[1:] > xs[:-1]
                if not np.any(ok):
                    continue
                cost = (c2[:-1] - c1[:-1] ** 2 / i) \
                    + ((s2 - c2[:-1]) - (s1 - c1[:-1]) ** 2 / (m - i))
                cost = np.where(ok, cost, np.inf)
                j = int(np.argmin(cost))
                if best is None or cost[j] < best[0]:
                    lo, hi = xs[j], xs[j + 1]
                    thr = lo + (hi - lo) / 2.0
                    if not (lo < thr < hi):
                        thr = lo
                    best = (float(cost[j]), int(f), float(thr))
            if best is None:
                continue
            _, f_best, thr = best
            go_left = X[idx, f_best] <= thr
            lid = new_node()
            rid = new_node()
            feature[nid] = f_best
            threshold[nid] = thr
            left[nid] = lid
            right[nid] = rid
            # right pushed first so the left child is processed next (fixed
            # preorder keeps the rng call sequence reproducible)
            stack.append((idx[~go_left], depth + 1, rid))
            stack.append((idx[go_left], depth + 1, lid))

        for (name, dtype), column in zip(_TREE_ARRAYS.items(), columns):
            setattr(self, name, np.array(column, dtype=dtype))
        return fitted

    def to_dict(self) -> dict:
        return {name: getattr(self, name).tolist() for name in _TREE_ARRAYS}

    @staticmethod
    def from_dict(d: dict) -> "RegressionTree":
        t = RegressionTree()
        for name, dtype in _TREE_ARRAYS.items():
            setattr(t, name, np.array(d[name], dtype=dtype))
        return t


class _Forest:
    """The trees of one model as one set of concatenated node arrays.

    Child ids are offset per tree, and leaves point at themselves with a +inf
    threshold, so a walk of as many gather, compare and child lookup steps as
    a tree is deep takes every cell to its leaf in that tree, with no leaf
    test. The walk keeps the trees deepest first, so each step is one slice.
    """

    def __init__(self, trees: list[RegressionTree]):
        cat = {name: np.concatenate([getattr(t, name) for t in trees]) for name in _TREE_ARRAYS}
        sizes = [t.value.size for t in trees]
        roots = np.cumsum([0] + sizes[:-1])
        leaf = cat["feature"] < 0
        ids = np.arange(leaf.size)
        left, right = (np.where(leaf, ids, cat[side] + np.repeat(roots, sizes))
                       for side in ("left", "right"))
        self.feature = np.where(leaf, 0, cat["feature"])
        self.threshold = np.where(leaf, np.inf, cat["threshold"])
        self.child = np.stack([left, right], axis=1).ravel()  # child[2 * node + go_right]
        self.value = cat["value"]
        depth = np.zeros(leaf.size, dtype=np.int64)  # of each node
        level = roots
        while level.size:
            level = level[~leaf[level]]
            depth[left[level]] = depth[right[level]] = depth[level] + 1
            level = np.concatenate([left[level], right[level]])
        depth = np.maximum.reduceat(depth, roots)  # of each tree
        order = np.argsort(-depth, kind="stable")
        self.roots = roots[order]
        self.unsort = np.argsort(order)
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


def _feature_count(mode, p: int) -> int | None:
    if mode is None:
        return None
    if mode == "sqrt":
        return max(1, int(round(np.sqrt(p))))
    if mode == "third":
        return max(1, int(round(p / 3)))
    raise ValueError(f"unknown max_features mode {mode!r}")


# -- learner kinds --------------------------------------------------------


class KnnModel:
    """k-nearest-neighbor mean with internally standardized features."""

    kind = "knn"

    def __init__(self, k: int):
        self.k = k
        self.mu = None
        self.sigma = None
        self.X = None
        self.y = None

    def fit(self, X, y, rng=None) -> "KnnModel":
        X = _as_2d(X)
        y = np.asarray(y, dtype=np.float64)
        if self.k > X.shape[0]:
            raise ValueError(f"k={self.k} exceeds the {X.shape[0]} training rows")
        self.mu = X.mean(axis=0)
        sigma = X.std(axis=0)
        sigma[sigma == 0.0] = 1.0
        self.sigma = sigma
        self.X = (X - self.mu) / self.sigma
        self.y = y.copy()
        return self

    def predict(self, X) -> np.ndarray:
        X = _as_2d(X)
        Q = (X - self.mu) / self.sigma
        out = np.empty(Q.shape[0], dtype=np.float64)
        train_norm = np.sum(self.X ** 2, axis=1)
        chunk = max(1, _CHUNK_ENTRIES // self.X.shape[0])
        for lo in range(0, Q.shape[0], chunk):
            q = Q[lo:lo + chunk]
            d2 = np.sum(q ** 2, axis=1)[:, None] + train_norm[None, :] - 2.0 * q @ self.X.T
            # stable sort: equal distances resolve by training-row order
            nearest = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
            out[lo:lo + chunk] = self.y[nearest].mean(axis=1)
        return out

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "k": self.k,
            "mu": self.mu.tolist(), "sigma": self.sigma.tolist(),
            "X": self.X.tolist(), "y": self.y.tolist(),
        }

    @staticmethod
    def from_dict(d: dict) -> "KnnModel":
        m = KnnModel(k=int(d["k"]))
        m.mu = np.array(d["mu"], dtype=np.float64)
        m.sigma = np.array(d["sigma"], dtype=np.float64)
        m.X = np.array(d["X"], dtype=np.float64)
        m.y = np.array(d["y"], dtype=np.float64)
        return m


class _TreeModel:
    """Model JSON of the tree kinds: `trees`, the other constructor arguments
    (`_ARGS`), the one fitted scalar (`_FITTED`) and the fitted trees. Each
    kind keeps its own `predict`: the benchmark tracer books it by class.
    """

    kind: str
    _ARGS: tuple[str, ...]
    _FITTED: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "trees": self.n_trees,
            **{name: getattr(self, name) for name in self._ARGS},
            self._FITTED: getattr(self, self._FITTED),
            "fitted_trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "_TreeModel":
        m = cls(trees=int(d["trees"]), **{name: d[name] for name in cls._ARGS})
        setattr(m, cls._FITTED, d[cls._FITTED])
        m.trees = [RegressionTree.from_dict(t) for t in d["fitted_trees"]]
        m.forest = _Forest(m.trees) if m.trees else None
        return m


class BaggedTreesModel(_TreeModel):
    """Bootstrap-aggregated trees with a random feature subset per split.

    max_depth=0 degenerates to the constant mean-of-targets predictor: with no
    splits allowed there is nothing for resampling to vary, so no trees are
    grown.
    """

    kind = "bagged_trees"
    _ARGS = ("max_depth", "max_features")
    _FITTED = "constant"

    def __init__(self, trees: int, max_depth=None, max_features="sqrt"):
        self.n_trees = trees
        self.max_depth = max_depth
        self.max_features = max_features
        self.trees: list[RegressionTree] = []
        self.forest = None
        self.constant = None

    def fit(self, X, y, rng) -> "BaggedTreesModel":
        X = _as_2d(X)
        y = np.asarray(y, dtype=np.float64)
        n, p = X.shape
        self.trees, self.forest, self.constant = [], None, None
        if self.max_depth == 0:
            self.constant = float(y.mean())
            return self
        k = _feature_count(self.max_features, p)
        for _ in range(self.n_trees):
            boot = rng.integers(0, n, size=n)
            tree = RegressionTree(max_depth=self.max_depth, max_features=k)
            tree.fit(X[boot], y[boot], rng)
            self.trees.append(tree)
        self.forest = _Forest(self.trees)
        return self

    def predict(self, X) -> np.ndarray:
        X = _as_2d(X)
        if self.constant is not None:
            return np.full(X.shape[0], self.constant, dtype=np.float64)
        return self.forest.accumulate(X, 0.0, 1.0) / len(self.trees)


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
        self.trees: list[RegressionTree] = []
        self.forest = None

    def fit(self, X, y, rng=None) -> "BoostedTreesModel":
        X = _as_2d(X)
        y = np.asarray(y, dtype=np.float64)
        self.trees, self.forest = [], None
        self.init_value = float(y.mean())
        current = np.full(y.shape, self.init_value)
        for _ in range(self.n_trees):
            tree = RegressionTree(max_depth=self.max_depth)  # all features: no rng draws
            current = current + self.learning_rate * tree.fit(X, y - current, None)
            self.trees.append(tree)
        self.forest = _Forest(self.trees)
        return self

    def predict(self, X) -> np.ndarray:
        return self.forest.accumulate(_as_2d(X), self.init_value, self.learning_rate)


_MODEL_CLASSES = {
    "knn": KnnModel,
    "bagged_trees": BaggedTreesModel,
    "boosted_trees": BoostedTreesModel,
}


def train_base(spec: LearnerSpec, X, y, seed) -> object:
    """Fit one base learner; the result is a pure function of the inputs.

    The spec's hyperparameters are its model class's constructor arguments
    (defaults fill those it leaves out); `seed` seeds the fit's rng.
    """
    spec.validate()
    X = _as_2d(X)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (X.shape[0],):
        raise ValueError("y must match the rows of X")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    return _MODEL_CLASSES[spec.kind](**spec.hp).fit(X, y, np.random.default_rng(seed))


def kfold_indices(n: int, k: int, seed) -> list[np.ndarray]:
    """Seeded k-fold partition; the first n % k folds get the extra row."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < k:
        raise ValueError(f"cannot split {n} rows into {k} folds")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(fold) for fold in np.array_split(perm, k)]


def cv_predict(spec: LearnerSpec, X, y, k: int = 5, seed=0) -> np.ndarray:
    """Out-of-fold predictions under a seeded k-fold split."""
    X = _as_2d(X)
    y = np.asarray(y, dtype=np.float64)
    folds = kfold_indices(X.shape[0], k, seed)
    oof = np.empty(X.shape[0], dtype=np.float64)
    for i, test_idx in enumerate(folds):
        train_mask = np.ones(X.shape[0], dtype=bool)
        train_mask[test_idx] = False
        model = train_base(spec, X[train_mask], y[train_mask], seed=[seed, i])
        oof[test_idx] = model.predict(X[test_idx])
    return oof


def grid_search(specs, X, y, k: int = 5, seed=0):
    """Pick the spec with the lowest k-fold CV RMSE; ties keep grid order.

    All specs are cross-validated once, on the same seeded folds. Returns
    `(best, best_oof, scores)`: the winner, its out-of-fold predictions (equal
    to `cv_predict(best, X, y, k, seed)`) and `(spec, rmse)` in grid order.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("empty hyperparameter grid")
    y = np.asarray(y, dtype=np.float64)
    best = best_oof = None
    best_rmse = np.inf
    scores = []
    for spec in specs:
        oof = cv_predict(spec, X, y, k=k, seed=seed)
        rmse = float(np.sqrt(np.mean((y - oof) ** 2)))
        scores.append((spec, rmse))
        if rmse < best_rmse:
            best = spec
            best_oof = oof
            best_rmse = rmse
    return best, best_oof, scores


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
        return {"intercept": self.intercept,
                "coefficients": self.coefficients.tolist(),
                "rank_deficient": self.rank_deficient}

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
