"""Base learners, cross-validated model selection, and the stacked ensemble.

Three learner kinds share one interface: k-nearest-neighbors, bagged
regression trees with random-subspace splits, and least-squares boosted
trees. Base models are combined by an ordinary least-squares stack fitted on
out-of-fold predictions; final ensemble predictions are truncated below at
zero, since the target is a nonnegative density.

Every fit is a pure function of (data, hyperparameters, seed). Trees are kept
as flat arrays so prediction over raster-sized inputs stays vectorized.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .grid import Grid

MODEL_FORMAT_VERSION = 1

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
        elif self.kind == "bagged_trees":
            allowed = {"trees", "max_depth", "max_features"}
            if not (isinstance(hp.get("trees"), int) and hp["trees"] >= 1):
                raise ValueError("bagged_trees needs an integer trees >= 1")
            d = hp.get("max_depth")
            if d is not None and not (isinstance(d, int) and d >= 0):
                raise ValueError("max_depth must be None or an integer >= 0")
            if hp.get("max_features") not in ("sqrt", "third", None):
                raise ValueError("max_features must be 'sqrt', 'third' or None")
        elif self.kind == "boosted_trees":
            allowed = {"trees", "learning_rate", "max_depth"}
            if not (isinstance(hp.get("trees"), int) and hp["trees"] >= 1):
                raise ValueError("boosted_trees needs an integer trees >= 1")
            lr = hp.get("learning_rate")
            if not (isinstance(lr, (int, float)) and lr >= 0):
                raise ValueError("learning_rate must be a nonnegative number")
            d = hp.get("max_depth")
            if d is not None and not (isinstance(d, int) and d >= 0):
                raise ValueError("max_depth must be None or an integer >= 0")
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


class RegressionTree:
    """CART-style regression tree stored as flat node arrays.

    `max_features` limits the candidate features drawn (without replacement)
    at each split; None considers all of them. Split search is exhaustive over
    midpoints between distinct sorted values, minimizing the summed child
    squared error, with first-candidate tie-breaking for determinism.
    """

    def __init__(self, max_depth=None, max_features=None, min_samples_leaf=1):
        self.max_depth = max_depth
        self.max_features = max_features
        self.min_samples_leaf = min_samples_leaf
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None
        self.value = None

    def fit(self, X, y, rng) -> "RegressionTree":
        X = _as_2d(X)
        y = np.asarray(y, dtype=np.float64)
        n, p = X.shape
        feature = []
        threshold = []
        left = []
        right = []
        value = []

        def new_node():
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(0.0)
            return len(feature) - 1

        msl = self.min_samples_leaf
        root = new_node()
        stack = [(np.arange(n), 0, root)]
        while stack:
            idx, depth, nid = stack.pop()
            yn = y[idx]
            value[nid] = float(yn.mean())
            m = idx.size
            if (self.max_depth is not None and depth >= self.max_depth) \
                    or m < 2 * msl or m < 2 or np.all(yn == yn[0]):
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
                if msl > 1:
                    ok &= (i >= msl) & (m - i >= msl)
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

        self.feature = np.array(feature, dtype=np.int32)
        self.threshold = np.array(threshold, dtype=np.float64)
        self.left = np.array(left, dtype=np.int32)
        self.right = np.array(right, dtype=np.int32)
        self.value = np.array(value, dtype=np.float64)
        return self

    def predict(self, X) -> np.ndarray:
        X = _as_2d(X)
        node = np.zeros(X.shape[0], dtype=np.int32)
        while True:
            f = self.feature[node]
            at_leaf = f < 0
            if np.all(at_leaf):
                break
            go_left = X[np.arange(X.shape[0]), np.maximum(f, 0)] <= self.threshold[node]
            nxt = np.where(go_left, self.left[node], self.right[node])
            node = np.where(at_leaf, node, nxt).astype(np.int32)
        return self.value[node]

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @staticmethod
    def from_dict(d: dict) -> "RegressionTree":
        t = RegressionTree()
        t.feature = np.array(d["feature"], dtype=np.int32)
        t.threshold = np.array(d["threshold"], dtype=np.float64)
        t.left = np.array(d["left"], dtype=np.int32)
        t.right = np.array(d["right"], dtype=np.int32)
        t.value = np.array(d["value"], dtype=np.float64)
        return t


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
        chunk = max(1, int(2_000_000 // max(1, self.X.shape[0])))
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


class BaggedTreesModel:
    """Bootstrap-aggregated trees with a random feature subset per split.

    max_depth=0 degenerates to the constant mean-of-targets predictor: with no
    splits allowed there is nothing for resampling to vary, so no trees are
    grown.
    """

    kind = "bagged_trees"

    def __init__(self, trees: int, max_depth=None, max_features="sqrt"):
        self.n_trees = trees
        self.max_depth = max_depth
        self.max_features = max_features
        self.trees: list[RegressionTree] = []
        self.constant = None

    def fit(self, X, y, rng) -> "BaggedTreesModel":
        X = _as_2d(X)
        y = np.asarray(y, dtype=np.float64)
        n, p = X.shape
        if self.max_depth == 0:
            self.constant = float(y.mean())
            self.trees = []
            return self
        k = _feature_count(self.max_features, p)
        for _ in range(self.n_trees):
            boot = rng.integers(0, n, size=n)
            tree = RegressionTree(max_depth=self.max_depth, max_features=k)
            tree.fit(X[boot], y[boot], rng)
            self.trees.append(tree)
        return self

    def predict(self, X) -> np.ndarray:
        X = _as_2d(X)
        if self.constant is not None:
            return np.full(X.shape[0], self.constant, dtype=np.float64)
        acc = np.zeros(X.shape[0], dtype=np.float64)
        for tree in self.trees:
            acc += tree.predict(X)
        return acc / len(self.trees)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "trees": self.n_trees, "max_depth": self.max_depth,
            "max_features": self.max_features, "constant": self.constant,
            "fitted_trees": [t.to_dict() for t in self.trees],
        }

    @staticmethod
    def from_dict(d: dict) -> "BaggedTreesModel":
        m = BaggedTreesModel(trees=int(d["trees"]), max_depth=d["max_depth"],
                             max_features=d["max_features"])
        m.constant = d["constant"]
        m.trees = [RegressionTree.from_dict(t) for t in d["fitted_trees"]]
        return m


class BoostedTreesModel:
    """Least-squares gradient boosting: mean start, shrunken residual trees."""

    kind = "boosted_trees"

    def __init__(self, trees: int, learning_rate: float, max_depth=3):
        self.n_trees = trees
        self.learning_rate = float(learning_rate)
        self.max_depth = max_depth
        self.init_value = None
        self.trees: list[RegressionTree] = []

    def fit(self, X, y, rng=None) -> "BoostedTreesModel":
        X = _as_2d(X)
        y = np.asarray(y, dtype=np.float64)
        self.init_value = float(y.mean())
        current = np.full(y.shape, self.init_value)
        dummy_rng = np.random.default_rng(0)  # no randomness is consumed
        for _ in range(self.n_trees):
            tree = RegressionTree(max_depth=self.max_depth)
            tree.fit(X, y - current, dummy_rng)
            current = current + self.learning_rate * tree.predict(X)
            self.trees.append(tree)
        return self

    def predict(self, X) -> np.ndarray:
        X = _as_2d(X)
        acc = np.full(X.shape[0], self.init_value, dtype=np.float64)
        for tree in self.trees:
            acc += self.learning_rate * tree.predict(X)
        return acc

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "trees": self.n_trees,
            "learning_rate": self.learning_rate, "max_depth": self.max_depth,
            "init_value": self.init_value,
            "fitted_trees": [t.to_dict() for t in self.trees],
        }

    @staticmethod
    def from_dict(d: dict) -> "BoostedTreesModel":
        m = BoostedTreesModel(trees=int(d["trees"]),
                              learning_rate=d["learning_rate"],
                              max_depth=d["max_depth"])
        m.init_value = d["init_value"]
        m.trees = [RegressionTree.from_dict(t) for t in d["fitted_trees"]]
        return m


_MODEL_CLASSES = {
    "knn": KnnModel,
    "bagged_trees": BaggedTreesModel,
    "boosted_trees": BoostedTreesModel,
}


def train_base(spec: LearnerSpec, X, y, seed) -> object:
    """Fit one base learner; the result is a pure function of the inputs."""
    spec.validate()
    X = _as_2d(X)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (X.shape[0],):
        raise ValueError("y must match the rows of X")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    rng = np.random.default_rng(seed)
    hp = spec.hp
    if spec.kind == "knn":
        return KnnModel(k=hp["k"]).fit(X, y)
    if spec.kind == "bagged_trees":
        return BaggedTreesModel(trees=hp["trees"], max_depth=hp.get("max_depth"),
                                max_features=hp.get("max_features", "sqrt")).fit(X, y, rng)
    if spec.kind == "boosted_trees":
        return BoostedTreesModel(trees=hp["trees"], learning_rate=hp["learning_rate"],
                                 max_depth=hp.get("max_depth", 3)).fit(X, y, rng)
    raise ValueError(f"unknown learner kind {spec.kind!r}")


def kfold_indices(n: int, k: int, seed) -> list[np.ndarray]:
    """Seeded k-fold partition; the first n % k folds get the extra row."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < k:
        raise ValueError(f"cannot split {n} rows into {k} folds")
    perm = np.random.default_rng(seed).permutation(n)
    base = n // k
    rem = n % k
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < rem else 0)
        folds.append(np.sort(perm[start:start + size]))
        start += size
    return folds


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


def grid_search(specs, X, y, k: int = 5, seed=0, return_scores: bool = False):
    """Pick the spec with the lowest k-fold CV RMSE; ties keep grid order.

    All specs are scored on the same seeded folds.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("empty hyperparameter grid")
    y = np.asarray(y, dtype=np.float64)
    best = None
    best_rmse = np.inf
    scores = []
    for spec in specs:
        oof = cv_predict(spec, X, y, k=k, seed=seed)
        rmse = float(np.sqrt(np.mean((y - oof) ** 2)))
        scores.append((spec, rmse))
        if rmse < best_rmse:
            best = spec
            best_rmse = rmse
    if return_scores:
        return best, scores
    return best


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
        specs = []
        models = []
        for entry in doc["base"]:
            spec = LearnerSpec.from_dict(entry["spec"])
            specs.append(spec)
            models.append(_MODEL_CLASSES[spec.kind].from_dict(entry["model"]))
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
    mask = np.ones((first.nrows, first.ncols), dtype=bool)
    for g in grids:
        mask &= g.mask
    values = np.zeros((first.nrows, first.ncols), dtype=np.float64)
    if np.any(mask):
        X = np.column_stack([g.values[mask].astype(np.float64) for g in grids])
        values[mask] = model.predict(X)
    return first.with_values(values, mask, units="Mg/ha")
