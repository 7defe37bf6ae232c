import inspect
import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agbmap import grid as grid_mod, learners
from agbmap.grid import Grid
from agbmap.learners import (
    DEFAULT_GRIDS, EnsembleModel, KnnModel, LearnerSpec, StackFit,
    cv_predict, fit_stack, grid_search, kfold_indices, predict_grid, train_base,
)


def toy_data(n=60, p=4, seed=0, noise=5.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, size=(n, p))
    y = 3.0 * X[:, 0] + 10.0 * (X[:, 1] > 5) + rng.normal(0, noise, n)
    return X, y


class TestSpecValidation:
    def test_default_grids_validate(self):
        for kind, grid in DEFAULT_GRIDS.items():
            for hp in grid:
                LearnerSpec.make(kind, **hp)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            LearnerSpec.make("svm", c=1.0)

    def test_bad_domain(self):
        with pytest.raises(ValueError):
            LearnerSpec.make("knn", k=0)
        with pytest.raises(ValueError):
            LearnerSpec.make("boosted_trees", trees=10, learning_rate=-0.1, max_depth=3)

    @pytest.mark.parametrize("kind, hp", [
        ("knn", {"k": True}),
        ("bagged_trees", {"trees": True}),
        ("bagged_trees", {"trees": 10, "max_depth": False}),
        ("boosted_trees", {"trees": True, "learning_rate": 0.1}),
        ("boosted_trees", {"trees": 10, "learning_rate": True}),
        ("boosted_trees", {"trees": 10, "learning_rate": 0.1, "max_depth": True}),
    ])
    def test_bool_is_not_a_number(self, kind, hp):
        with pytest.raises(ValueError):
            LearnerSpec.make(kind, **hp)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 10**400],
                             ids=["nan", "inf", "10**400"])
    def test_non_finite_learning_rate(self, lr):
        with pytest.raises(ValueError, match="finite"):
            LearnerSpec.make("boosted_trees", trees=3, learning_rate=lr)

    def test_unknown_hyperparameter(self):
        with pytest.raises(ValueError):
            LearnerSpec.make("knn", k=3, metric="manhattan")


class TestKnn:
    def test_k1_reproduces_training_targets(self):
        X, y = toy_data(40)
        model = train_base(LearnerSpec.make("knn", k=1), X, y, seed=0)
        assert np.allclose(model.predict(X), y, atol=0, rtol=0)

    def test_k_equals_n_predicts_global_mean(self):
        X, y = toy_data(15)
        model = train_base(LearnerSpec.make("knn", k=15), X, y, seed=0)
        assert np.allclose(model.predict(X), y.mean())

    def test_k_exceeding_n_rejected(self):
        X, y = toy_data(5)
        with pytest.raises(ValueError):
            train_base(LearnerSpec.make("knn", k=6), X, y, seed=0)

    def test_scale_invariance_of_neighbors(self):
        # an inflated feature scale must not change the neighbor structure
        X, y = toy_data(30)
        m1 = train_base(LearnerSpec.make("knn", k=3), X, y, seed=0)
        X2 = X.copy()
        X2[:, 0] *= 1e6
        m2 = train_base(LearnerSpec.make("knn", k=3), X2, y, seed=0)
        q = X[:5].copy()
        q2 = X2[:5].copy()
        assert np.allclose(m1.predict(q), m2.predict(q2))

    def test_distance_ties_go_to_the_lower_training_row(self):
        # rows 1, 3, 4 are one point and rows 0, 5 another; a query on the
        # first takes its copies in row order, then the second's, in row order
        a, b = [1.0, 2.0, 3.0], [1.5, 2.5, 2.0]
        X = np.array([b, a, [9.0, 9.0, 9.0], a, a, b, [-5.0, 0.0, 7.0]])
        y = np.array([100.0, 1.0, 1e4, 10.0, 1000.0, 10000.0, 1e5])
        q = np.array([a, a])
        expected = {1: 1.0, 2: 5.5, 3: 337.0, 4: 277.75, 5: 2222.2}
        for k, mean in expected.items():
            model = train_base(LearnerSpec.make("knn", k=k), X, y, seed=0)
            assert np.array_equal(model.predict(q), np.full(2, mean)), k

    @pytest.mark.parametrize("first", ["q + d", "q - d"])
    def test_equidistant_distinct_rows_go_to_the_lower_row(self, first):
        # q sits halfway between two training rows; when both stay exactly
        # equidistant after standardization, k = 1 takes the lower row
        rng = np.random.default_rng(0)
        ties = expansion_breaks = 0
        for trial in range(300):
            q, d = rng.uniform(0, 10, 4), rng.uniform(-1, 1, 4)
            far = rng.uniform(0, 10, (3, 4)) + (10.0 if trial % 2 else -20.0)
            pair = [q + d, q - d] if first == "q + d" else [q - d, q + d]
            model = train_base(LearnerSpec.make("knn", k=1), np.vstack([*pair, far]),
                               np.arange(1.0, 6.0), seed=0)
            Q = (q[None] - model.mu) / model.sigma
            d2 = [sum((Q[0, f] - model.X[r, f]) ** 2 for f in range(4)) for r in (0, 1)]
            if d2[0] != d2[1]:
                continue
            ties += 1
            assert model.predict(q[None])[0] == 1.0
            # the |q|^2 + |x|^2 - 2 q.x expansion this distance replaced
            expanded = np.sum(Q ** 2) + np.sum(model.X[:2] ** 2, axis=1) - 2.0 * model.X[:2] @ Q[0]
            expansion_breaks += bool(expanded[0] != expanded[1])
        assert ties >= 10 and expansion_breaks >= 1

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
    def test_ties_at_the_kth_distance_across_a_chunk_edge(self, monkeypatch, k):
        # rows 1, 3, 5 are copies of a and rows 0, 2, 6 copies of b: a query on
        # a takes a's copies and then b's, each in training-row order, and one
        # on b the other way round, in whichever chunk of cells it falls
        a, b = [0.0, 0.0], [4.0, 4.0]
        X = np.array([b, a, b, a, [20.0, -20.0], a, b])
        y = np.array([8.0, 1.0, 16.0, 2.0, 1000.0, 4.0, 32.0])
        order = ([1, 3, 5, 0, 2, 6, 4], [0, 2, 6, 1, 3, 5, 4])  # of a query on a, on b
        q = np.array([a, b] * 4)
        expected = np.array([y[order[i % 2][:k]].mean() for i in range(len(q))])
        model = train_base(LearnerSpec.make("knn", k=k), X, y, seed=0)
        assert np.array_equal(model.predict(q), expected)
        monkeypatch.setattr(learners, "_CHUNK_ENTRIES", 3 * len(X))  # chunks of 3 cells
        assert np.array_equal(model.predict(q), expected)

    def test_chunked_predict_matches_one_chunk(self, monkeypatch):
        X, y = toy_data(40)
        model = train_base(LearnerSpec.make("knn", k=3), X, y, seed=0)
        chunk = learners._CHUNK_ENTRIES // 40
        q = np.random.default_rng(4).uniform(-1, 11, size=(2 * chunk + chunk // 3, X.shape[1]))
        chunked = model.predict(q)
        monkeypatch.setattr(learners, "_CHUNK_ENTRIES", 40 * q.shape[0])
        assert np.array_equal(chunked, model.predict(q))

    def test_overflowing_distances_keep_training_row_order(self):
        # sigma ~ 8e-151 standardizes the query's 1e10 past sqrt(max float), so
        # every squared distance is inf: the k nearest are rows 0-2 in row order
        X = np.array([[0.0, 0.0], [1e-150, 1.0], [0.0, 2.0], [2e-150, 3.0], [0.0, 4.0]])
        y = np.array([1.0, 10.0, 100.0, 1000.0, 10000.0])
        model = train_base(LearnerSpec.make("knn", k=3), X, y, seed=0)
        with np.errstate(over="ignore"):  # one chunk: it runs on this thread
            assert np.all(np.isinf(((1e10 - model.mu[0]) / model.sigma[0] - model.X[:, 0]) ** 2))
            assert np.array_equal(model.predict(np.array([[1e10, 3.0]])), [37.0])

    @pytest.mark.parametrize("k", [2, 4, 5, 6])
    def test_finite_distances_before_infinite_ones(self, k):
        # rows 1, 3 and 5 lie too far for a finite squared distance: a query
        # takes the finite rows nearest first, then the infinite ones by row
        model = KnnModel(LearnerSpec.make("knn", k=k))
        model._fill({"mu": [0.0], "sigma": [1.0],
                     "X": [[0.0], [1e200], [1.0], [-1e200], [2.0], [1e300]],
                     "y": [1.0, 10.0, 100.0, 1000.0, 10000.0, 1e5]})
        order = [0, 2, 4, 1, 3, 5]  # of a query at 0.4
        want = model.y[order[:k]].mean()
        with np.errstate(over="ignore"):  # one chunk: it runs on this thread
            assert np.array_equal(model.predict(np.array([[0.4], [0.4]])), [want, want])

    @pytest.mark.parametrize("k", [1, 5, 10, 25])
    def test_matches_a_stable_sort_of_the_distances(self, monkeypatch, k):
        # duplicated training rows and queries on training rows tie distances,
        # within a cell and at its k-th distance; cells span several chunks
        rng = np.random.default_rng(k)
        X = np.round(rng.normal(size=(120, 3)) * [1.0, 10.0, 0.1], 1)
        X = np.vstack([X, X[rng.choice(120, 40)]])
        y = rng.gamma(2.0, 50.0, size=len(X))
        q = np.vstack([np.round(rng.normal(size=(150, 3)) * [1.0, 10.0, 0.1], 1),
                       X[rng.choice(len(X), 50)]])
        model = train_base(LearnerSpec.make("knn", k=k), X, y, seed=0)
        Q = (q - model.mu) / model.sigma
        d2 = sum((Q[:, f, None] - model.X[:, f]) ** 2 for f in range(3))
        want = model.y[np.argsort(d2, axis=1, kind="stable")[:, :k]].mean(axis=1)
        monkeypatch.setattr(learners, "_CHUNK_ENTRIES", 37 * len(X))  # chunks of 37 cells
        assert np.array_equal(model.predict(q), want)


class TestTrees:
    def test_bagged_depth0_is_the_mean_of_its_bootstrap_means(self):
        # each of the T trees is one leaf, the mean of its bootstrap sample in
        # draw order; the model adds them in tree order and divides by T
        X, y = toy_data(30)
        spec = LearnerSpec.make("bagged_trees", trees=25, max_depth=0, max_features="sqrt")
        model = train_base(spec, X, y, seed=3)
        assert np.all(model.table["feature"] < 0) and model.table["value"].size == 25
        acc = 0.0
        for rng in np.random.default_rng(3).spawn(25):
            acc += y[rng.integers(0, 30, size=30)].sum() / 30
        assert np.all(model.predict(X) == acc / 25)

    def test_boosted_lr0_is_exactly_mean(self):
        X, y = toy_data(30)
        spec = LearnerSpec.make("boosted_trees", trees=5, learning_rate=0.0, max_depth=3)
        model = train_base(spec, X, y, seed=0)
        assert np.all(model.predict(X) == y.mean())

    def test_single_deep_tree_fits_step_function(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, size=(50, 2))
        y = np.where(X[:, 0] > 0.5, 10.0, -10.0)
        spec = LearnerSpec.make("bagged_trees", trees=40, max_depth=None, max_features=None)
        model = train_base(spec, X, y, seed=0)
        pred = model.predict(X)
        assert np.corrcoef(pred, y)[0, 1] > 0.99

    def test_boosting_reduces_training_error(self):
        X, y = toy_data(80, noise=2.0)
        spec = LearnerSpec.make("boosted_trees", trees=100, learning_rate=0.1, max_depth=3)
        model = train_base(spec, X, y, seed=0)
        rmse = np.sqrt(np.mean((model.predict(X) - y) ** 2))
        baseline = np.sqrt(np.mean((y - y.mean()) ** 2))
        assert rmse < 0.5 * baseline

    def test_same_seed_same_model(self):
        X, y = toy_data(50)
        spec = LearnerSpec.make("bagged_trees", trees=10, max_depth=8, max_features="sqrt")
        a = train_base(spec, X, y, seed=11)
        b = train_base(spec, X, y, seed=11)
        q = toy_data(20, seed=9)[0]
        assert np.array_equal(a.predict(q), b.predict(q))

    @pytest.mark.parametrize("kind,hp", [
        ("bagged_trees", {"trees": 5, "max_depth": 8, "max_features": "sqrt"}),
        ("bagged_trees", {"trees": 5, "max_depth": 0}),
        ("boosted_trees", {"trees": 5, "learning_rate": 0.1, "max_depth": 3}),
    ])
    def test_refit_starts_from_empty_state(self, kind, hp):
        # a batch fit sets every fitted attribute of the models it is given
        X, y = toy_data(40)
        once = train_base(LearnerSpec.make(kind, **hp), X, y, seed=4)
        twice = learners._MODEL_CLASSES[kind](LearnerSpec.make(kind, **hp))
        keep = np.ones((1, 40), dtype=bool)
        twice._fit_batch([twice], X[::-1] + 1.0, y[None, ::-1] * 2.0, keep,
                         [np.random.default_rng(9)])
        twice._fit_batch([twice], X, y[None], keep, [np.random.default_rng(4)])
        assert entry(twice) == entry(once)
        q = toy_data(30, seed=6)[0]
        assert np.array_equal(twice.predict(q), once.predict(q))

    def test_different_seed_different_model(self):
        X, y = toy_data(50)
        spec = LearnerSpec.make("bagged_trees", trees=10, max_depth=8, max_features="sqrt")
        a = train_base(spec, X, y, seed=1)
        b = train_base(spec, X, y, seed=2)
        q = toy_data(20, seed=9)[0]
        assert not np.array_equal(a.predict(q), b.predict(q))


def implied_children(table) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) of each node of a level-order table, -1 at leaves: after the
    roots come the splits' children, two each, in the order of the splits."""
    feature = np.asarray(table["feature"])
    split = np.flatnonzero(feature >= 0)
    left, right = np.full(feature.size, -1), np.full(feature.size, -1)
    left[split] = feature.size - 2 * split.size + 2 * np.arange(split.size)
    right[split] = left[split] + 1
    return left, right


def per_tree_accumulate(table, trees, q, start, weight) -> np.ndarray:
    """start, then `acc += weight * value` of each tree's leaf, one tree at a time."""
    acc, (left, right) = np.full(len(q), start, dtype=np.float64), implied_children(table)
    for t in range(trees):
        node = np.full(len(q), t)
        while np.any(inner := table["feature"][node] >= 0):
            at = node[inner]
            go_right = q[np.flatnonzero(inner), table["feature"][at]] > table["threshold"][at]
            node[inner] = np.where(go_right, right[at], left[at])
        acc += weight * table["value"][node]
    return acc


def leaf_roots_table():
    """Single-leaf trees between deep ones, in one level-order table."""
    X, y = toy_data(60)
    deep = train_base(LearnerSpec.make("bagged_trees", trees=6, max_depth=None,
                                       max_features=None), X, y, seed=3)
    flat = train_base(LearnerSpec.make("boosted_trees", trees=5, learning_rate=0.1),
                      X, np.full_like(y, 2.5), seed=0)
    cat, at = learners._concat([deep.table, flat.table])
    roots = [at[1], at[0], at[0] + 1, at[1] + 1, at[1] + 2, at[0] + 2, at[0] + 3,
             at[1] + 3, at[0] + 4, at[0] + 5, at[1] + 4]
    return learners._gather(roots, None, **cat), len(roots)


class TestWalkInSmallChunks:
    """Chunks of 1, 2, 3 and 7 cells, the last of one cell: the walk's buffers are
    reused from chunk to chunk, and each cell's sum runs in tree order, as a per-tree
    `acc +=` loop adds (also in a one-cell chunk, where numpy's `sum` is pairwise)."""

    CELLS = 43  # 43 % 2 == 43 % 3 == 43 % 7 == 1

    @pytest.mark.parametrize("chunk_cells", [1, 2, 3, 7])
    @pytest.mark.parametrize("kind", ["bagged", "boosted", "leaf roots"])
    def test_sums_of_the_walk_equal_a_per_tree_loop(self, monkeypatch, kind, chunk_cells):
        X, y = toy_data(60)
        if kind == "leaf roots":
            (table, trees), start, weight = leaf_roots_table(), 0.75, 0.5
        elif kind == "bagged":
            model = train_base(LearnerSpec.make("bagged_trees", trees=40, max_depth=None,
                                                max_features="sqrt"), X, y * 1e3, seed=1)
            table, trees, start, weight = model.table, 40, 0.0, 1.0
        else:
            model = train_base(LearnerSpec.make("boosted_trees", trees=40, learning_rate=0.3,
                                                max_depth=4), X, y * 1e3, seed=1)
            table, trees, start, weight = model.table, 40, model.init_value, 0.3
        q = np.random.default_rng(chunk_cells).uniform(-1, 11, size=(self.CELLS, X.shape[1]))
        monkeypatch.setattr(learners, "_CHUNK_ENTRIES", chunk_cells * trees)
        for workers in (1, 2):
            monkeypatch.setattr(grid_mod, "_WORKERS", workers)
            got = learners._accumulate(table, trees, q, start, weight)
            assert np.array_equal(got, per_tree_accumulate(table, trees, q, start, weight))

    @pytest.mark.parametrize("chunk_cells", [1, 2, 3, 7])
    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_knn_with_ties_equals_a_stable_sort(self, monkeypatch, chunk_cells, k):
        # 12 points 3 times each: a query on a training row ties at distance 0
        X, y = toy_data(12, p=3)
        X, y = np.repeat(X, 3, axis=0), np.arange(36.0) ** 2
        model = train_base(LearnerSpec.make("knn", k=k), X, y, seed=0)
        q = np.vstack([X, np.random.default_rng(k).uniform(0, 10, size=(self.CELLS - 36, 3))])
        Q = (q - model.mu) / model.sigma
        d2 = sum((Q[:, f, None] - model.X[:, f]) ** 2 for f in range(3))
        want = model.y[np.argsort(d2, axis=1, kind="stable")[:, :k]].mean(axis=1)
        monkeypatch.setattr(learners, "_CHUNK_ENTRIES", chunk_cells * len(X))
        for workers in (1, 2):
            monkeypatch.setattr(grid_mod, "_WORKERS", workers)
            assert np.array_equal(model.predict(q), want)


def canonical(table, node=0, children=None) -> list:
    """The tree below `node` of a level-order node table (or of one with `left` and
    `right` columns) as nested lists [value, feature, threshold, left, right],
    independent of how the table numbers its nodes; a child id of -1 stays -1."""
    if children is None:
        children = ((table["left"], table["right"]) if "left" in table
                    else implied_children(table))
    kids = [canonical(table, int(c), children) if c >= 0 else int(c)
            for c in (children[0][node], children[1][node])]
    return [float(table["value"][node]), int(table["feature"][node]),
            float(table["threshold"][node]), *kids]


def model_trees(model) -> list:
    """A tree model's trees in model order, canonical, from its model JSON."""
    d = model.to_dict()
    return [] if d["fitted_trees"] is None else [canonical(d["fitted_trees"], t)
                                                 for t in range(model.spec.hp["trees"])]


def entry(model) -> dict:
    """A base model as its model file's entry holds it: its spec and its fitted state."""
    return {"spec": model.spec.to_dict(), "model": model.to_dict()}


def same_tree(a, b):
    # json keeps the sign of a zero, which == does not
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def per_tree_predict(tree: list, X) -> np.ndarray:
    """One canonical tree walked on its own, the reference for the flat forest
    walk: a row goes left when x[feature] <= threshold."""
    value, feature, threshold, left, right = tree
    if feature < 0:
        return np.full(X.shape[0], value)
    go_left = X[:, feature] <= threshold
    out = np.empty(X.shape[0])
    out[go_left], out[~go_left] = (per_tree_predict(child, X[rows])
                                   for child, rows in ((left, go_left), (right, ~go_left)))
    return out


def per_tree_model_predict(model, X) -> np.ndarray:
    """Frozen copy of the per-tree accumulate loops of both tree kinds."""
    d, trees = model.to_dict(), model_trees(model)
    if model.spec.kind == "bagged_trees":
        acc = np.zeros(X.shape[0], dtype=np.float64)
        for tree in trees:
            acc += per_tree_predict(tree, X)
        return acc / len(trees)
    acc = np.full(X.shape[0], d["init_value"], dtype=np.float64)
    for tree in trees:
        acc += model.spec.hp["learning_rate"] * per_tree_predict(tree, X)
    return acc


def on_thresholds(model, X) -> np.ndarray:
    """Rows of X with one feature set exactly to a split threshold (ties go left)."""
    rows, table = [], model.to_dict()["fitted_trees"]
    for f, t in zip(table["feature"], table["threshold"]):
        if f >= 0:
            rows.append(X[len(rows) % len(X)].copy())
            rows[-1][f] = t
    return np.array(rows).reshape(-1, X.shape[1])


class TestForestMatchesPerTreeWalk:
    """The flat forest walk reproduces the per-tree walk bit for bit."""

    @pytest.mark.parametrize("max_depth", [None, 8, 0])
    @pytest.mark.parametrize("max_features", ["sqrt", "third", None])
    def test_bagged(self, max_depth, max_features):
        X, y = toy_data(60, p=6)
        spec = LearnerSpec.make("bagged_trees", trees=15, max_depth=max_depth,
                                max_features=max_features)
        model = train_base(spec, X, y, seed=5)
        q = np.vstack([toy_data(300, p=6, seed=8)[0], on_thresholds(model, X)])
        assert np.array_equal(model.predict(q), per_tree_model_predict(model, q))

    @pytest.mark.parametrize("learning_rate", [0.0, 0.1])
    @pytest.mark.parametrize("constant_y", [False, True])
    @pytest.mark.parametrize("max_depth", [3, None])
    def test_boosted(self, learning_rate, constant_y, max_depth):
        X, y = toy_data(60)
        if constant_y:
            y = np.full_like(y, 4.25)  # every tree is a single leaf
        spec = LearnerSpec.make("boosted_trees", trees=25, learning_rate=learning_rate,
                                max_depth=max_depth)
        model = train_base(spec, X, y, seed=0)
        q = np.vstack([X, toy_data(200, seed=8)[0], on_thresholds(model, X)])
        assert np.array_equal(model.predict(q), per_tree_model_predict(model, q))

    @pytest.mark.parametrize("kind", ["bagged_trees", "boosted_trees"])
    @pytest.mark.parametrize("offset", [None, -1, 0, 1, "non-multiple"])
    def test_chunk_boundaries(self, kind, offset):
        X, y = toy_data(50)
        hp = ({"trees": 40, "max_depth": None, "max_features": "sqrt"}
              if kind == "bagged_trees" else
              {"trees": 40, "learning_rate": 0.1, "max_depth": 3})
        model = train_base(LearnerSpec.make(kind, **hp), X, y, seed=2)
        chunk = learners._CHUNK_ENTRIES // 40
        n = {None: 1, "non-multiple": 2 * chunk + chunk // 3}.get(offset)
        n = chunk + offset if n is None else n
        q = np.random.default_rng(n).uniform(-1, 11, size=(n, X.shape[1]))
        assert np.array_equal(model.predict(q), per_tree_model_predict(model, q))

    @pytest.mark.parametrize("chunk_cells", [None, 3])
    def test_leaf_roots_among_deep_trees(self, monkeypatch, chunk_cells):
        # single-leaf trees (a boosted fit on equal targets) between deep bagged
        # trees, one forest: every cell starts at the roots, and a leaf root
        # keeps it, whatever the tree's place in the deepest-first walk
        X, y = toy_data(60)
        deep = train_base(LearnerSpec.make("bagged_trees", trees=6, max_depth=None,
                                           max_features=None), X, y, seed=3)
        flat = train_base(LearnerSpec.make("boosted_trees", trees=5, learning_rate=0.1),
                          X, np.full_like(y, 2.5), seed=0)
        cat, at = learners._concat([deep.table, flat.table])
        roots = [at[1], at[0], at[0] + 1, at[1] + 1, at[1] + 2, at[0] + 2, at[0] + 3,
                 at[1] + 3, at[0] + 4, at[0] + 5, at[1] + 4]
        table = learners._gather(roots, None, **cat)
        q = np.vstack([toy_data(10, seed=8)[0], on_thresholds(deep, X)[:7]])
        want, children = [], implied_children(table)
        for x in q:  # one cell, one tree at a time: start + w * v0 + w * v1 + ...
            acc = 0.75
            for t in range(len(roots)):
                node = t
                while table["feature"][node] >= 0:
                    go_left = x[table["feature"][node]] <= table["threshold"][node]
                    node = children[0 if go_left else 1][node]
                acc += 0.5 * table["value"][node]
            want.append(acc)
        if chunk_cells:
            monkeypatch.setattr(learners, "_CHUNK_ENTRIES", chunk_cells * len(roots))
        assert np.array_equal(learners._accumulate(table, len(roots), q, 0.75, 0.5), want)

    def test_boosted_depth_zero(self):
        X, y = toy_data(40)
        model = train_base(LearnerSpec.make("boosted_trees", trees=7, learning_rate=0.3,
                                            max_depth=0), X, y, seed=0)
        assert np.all(model.table["feature"] < 0)  # every node is a leaf
        q = toy_data(30, seed=8)[0]
        assert np.array_equal(model.predict(q), per_tree_model_predict(model, q))

    def test_json_round_trip(self):
        X, y = toy_data(50)
        specs = [LearnerSpec.make("bagged_trees", trees=12, max_depth=None, max_features="third"),
                 LearnerSpec.make("boosted_trees", trees=30, learning_rate=0.1, max_depth=3)]
        models = [train_base(s, X, y, seed=[1, i]) for i, s in enumerate(specs)]
        ens = EnsembleModel(models=models, stack=StackFit(0.5, np.array([0.6, 0.4]), False),
                            feature_names=[f"f{j}" for j in range(X.shape[1])])
        text = ens.to_json()
        clone = EnsembleModel.from_json(text)
        assert clone.to_json() == text
        q = toy_data(120, seed=4)[0]
        for m in clone.models:
            assert np.array_equal(m.predict(q), per_tree_model_predict(m, q))
        assert np.array_equal(clone.predict(q), ens.predict(q))

    def test_tree_fit_returns_its_walk_of_the_training_rows(self):
        # boosting adds these fitted values to its running prediction
        X, y = toy_data(70)
        for max_depth in (None, 2):
            tree, fitted = grow(X, y, max_depth)
            assert np.array_equal(fitted, per_tree_predict(tree, X))

    def test_model_json_keys_of_each_kind(self):
        # one serializer writes both kinds; `fitted_trees` is the node table
        # as one object of columns, at every depth; bagged trees keep nothing
        # else, boosted trees their `init_value`; the hyperparameters are the
        # spec's alone
        X, y = toy_data(30)
        cases = [("bagged_trees", {"trees": 3, "max_depth": 4, "max_features": "third"}, {}),
                 ("bagged_trees", {"trees": 3, "max_depth": 0, "max_features": "sqrt"}, {}),
                 ("boosted_trees", {"trees": 3, "learning_rate": 0.25, "max_depth": 2},
                  {"init_value": float(y.mean())})]
        for kind, hp, scalars in cases:
            model = train_base(LearnerSpec.make(kind, **hp), X, y, seed=3)
            d = model.to_dict()
            assert sorted(d) == sorted([*scalars, "fitted_trees"])
            assert model.spec.to_dict() == {"kind": kind, "hyperparameters": hp}
            assert {name: d[name] for name in scalars} == scalars
            assert sorted(d["fitted_trees"]) == sorted(learners._TREE_ARRAYS)
            assert len(model_trees(model)) == 3
            clone = type(model)(model.spec)
            clone._fill(json.loads(json.dumps(d)))
            assert json.dumps(clone.to_dict(), sort_keys=True) == json.dumps(d, sort_keys=True)
            assert clone.spec == model.spec
            assert np.array_equal(clone.predict(X), model.predict(X))

    def test_each_model_kind_defines_its_own_predict(self):
        # the benchmark tracer wraps `predict` per class to book time by kind
        classes = (learners.KnnModel, learners.BaggedTreesModel, learners.BoostedTreesModel)
        assert all("predict" in vars(cls) for cls in classes)
        assert len({cls.predict for cls in classes}) == len(classes)


def frozen_fit(X, y, max_depth):
    """Frozen copy of the depth-first fitter the level-wise grower replaced,
    with all features as split candidates; returns (tree dict, fitted)."""
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
        if (max_depth is not None and depth >= max_depth) or m < 2 or np.all(yn == yn[0]):
            continue
        best = None  # (cost, f, threshold)
        for f in range(p):
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
        stack.append((idx[~go_left], depth + 1, rid))
        stack.append((idx[go_left], depth + 1, lid))
    names = ("feature", "threshold", "left", "right", "value")
    return dict(zip(names, columns)), fitted


def grow_together(samples, max_depth):
    """The level-wise grower on several (X, y) samples of one shape at once,
    all features candidates; returns each canonical tree and the fitted values."""
    X = np.stack([x for x, _ in samples])
    y = np.stack([t for _, t in samples])
    table, fitted = learners._grow(X, y, np.argsort(X, axis=1, kind="stable"),
                                   np.ones(y.shape, dtype=bool), max_depth, X.shape[2], None)
    return [canonical(table, b) for b in range(len(samples))], fitted


def grow(X, y, max_depth):
    (tree,), (fitted,) = grow_together([(X, y)], max_depth)
    return tree, fitted


def grower_cases():
    rng = np.random.default_rng(12)
    X, y = toy_data(40)
    ties = np.round(X / 3.0)  # few distinct values per feature
    const_col = X.copy()
    const_col[:, 1] = 2.0
    dup = np.vstack([X[:15], X[:15], X[5:10]])
    dup_y = rng.normal(size=dup.shape[0])
    return {
        "ties_in_x": (ties, y),
        "tied_targets": (ties, np.round(y / 10.0)),
        "constant_column": (const_col, y),
        "all_columns_constant": (np.ones((12, 3)), y[:12]),
        "constant_y": (X, np.full(40, 3.5)),
        "n1": (X[:1], y[:1]),
        "n2": (X[:2], y[:2]),
        "n2_equal_x": (np.ones((2, 4)), y[:2]),
        "duplicated_rows": (dup, dup_y),
        "negative_zero": (np.where(ties == 0, -0.0, ties), np.where(y > 0, -0.0, y)),
        # neighbouring doubles whose midpoint rounds up to the larger one
        "adjacent_floats": (np.column_stack([np.where(np.arange(20) % 3, 1 + 2**-51, 1 + 2**-52),
                                             X[:20, 1]]), y[:20]),
        "wide": toy_data(300, p=5, seed=3),
    }


class TestLevelWiseGrower:
    """With all features as candidates, the level-wise grower makes the trees
    of the depth-first fitter it replaced, array for array."""

    @pytest.mark.parametrize("case", sorted(grower_cases()))
    @pytest.mark.parametrize("max_depth", [0, 1, 3, None])
    def test_matches_frozen_fitter(self, case, max_depth):
        X, y = grower_cases()[case]
        tree, fitted = grow(X, y, max_depth)
        frozen, frozen_fitted = frozen_fit(X, y, max_depth)
        assert same_tree(tree, canonical(frozen))
        assert fitted.tobytes() == frozen_fitted.tobytes()

    @pytest.mark.parametrize("max_depth", [2, None])
    def test_trees_grown_together_match_frozen_fitter(self, max_depth):
        X, y = toy_data(60)
        boots = np.random.default_rng(1).integers(0, 60, size=(7, 60))
        trees, fitted = grow_together([(X[b], y[b]) for b in boots], max_depth)
        for b, tree, leaf_values in zip(boots, trees, fitted):
            frozen, frozen_fitted = frozen_fit(X[b], y[b], max_depth)
            assert same_tree(tree, canonical(frozen))
            assert leaf_values.tobytes() == frozen_fitted.tobytes()

    @pytest.mark.parametrize("entries", [1, 7, 64, 333])
    def test_samples_spanning_several_chunks(self, monkeypatch, entries):
        monkeypatch.setattr(learners, "_CHUNK_ENTRIES", entries)
        X, y = toy_data(120, p=5, seed=4)
        boots = np.random.default_rng(2).integers(0, 120, size=(3, 120))
        trees, _ = grow_together([(X[b], np.round(y[b])) for b in boots], None)
        for b, tree in zip(boots, trees):
            assert same_tree(tree, canonical(frozen_fit(X[b], np.round(y[b]), None)[0]))

    @pytest.mark.parametrize("max_depth", [3, None])
    def test_boosted_model_is_the_frozen_fitters(self, max_depth):
        X, y = toy_data(50)
        hp = {"trees": 20, "learning_rate": 0.1, "max_depth": max_depth}
        model = train_base(LearnerSpec.make("boosted_trees", **hp), X, y, seed=0)
        init = float(y.mean())
        current = np.full(y.shape, init)
        trees = []
        for _ in range(hp["trees"]):
            tree, fitted = frozen_fit(X, y - current, max_depth)
            current = current + hp["learning_rate"] * fitted
            trees.append(canonical(tree))
        frozen = {"spec": {"kind": "boosted_trees", "hyperparameters": hp},
                  "model": {"init_value": init, "fitted_trees": trees}}
        got = entry(model)
        assert same_tree({**got, "model": {**got["model"], "fitted_trees": model_trees(model)}},
                         frozen)


class TestNestedFits:
    """A fit with fewer trees, or (bagged) a smaller depth, is a prefix of a
    larger fit from the same seed, cut at its depth."""

    @pytest.mark.parametrize("max_features", ["sqrt", "third", None])
    def test_bagged(self, max_features):
        X, y = toy_data(50, p=6)
        head = LearnerSpec.make("bagged_trees", trees=12, max_depth=None,
                                max_features=max_features)
        model = train_base(head, X, y, seed=[4, 1])
        q = np.vstack([toy_data(40, p=6, seed=5)[0], on_thresholds(model, X)])
        for trees, max_depth in ((12, None), (12, 3), (5, None), (5, 1), (1, 6), (12, 0), (5, 0)):
            spec = LearnerSpec.make("bagged_trees", trees=trees, max_depth=max_depth,
                                    max_features=max_features)
            alone = train_base(spec, X, y, seed=[4, 1])
            assert same_tree(entry(model.nested(spec)), entry(alone))
            assert np.array_equal(model.nested(spec).predict(q), alone.predict(q))
            assert np.array_equal(alone.predict(q), per_tree_model_predict(alone, q))

    def test_boosted(self):
        X, y = toy_data(50)
        head = LearnerSpec.make("boosted_trees", trees=30, learning_rate=0.1, max_depth=3)
        model = train_base(head, X, y, seed=0)
        for trees in (30, 12, 1):
            spec = LearnerSpec.make("boosted_trees", trees=trees, learning_rate=0.1, max_depth=3)
            alone = train_base(spec, X, y, seed=0)
            assert same_tree(entry(model.nested(spec)), entry(alone))
            q = toy_data(40, seed=5)[0]
            assert np.array_equal(model.nested(spec).predict(q), alone.predict(q))

    @pytest.mark.parametrize("kind,family", [
        ("bagged_trees", [{"trees": 6, "max_depth": 2, "max_features": "sqrt"},
                          {"trees": 9, "max_depth": None, "max_features": "sqrt"},
                          {"trees": 3, "max_depth": 5}]),
        ("bagged_trees", [{"trees": 4, "max_depth": 0}, {"trees": 2, "max_depth": 0},
                          {"trees": 5, "max_depth": None}, {"trees": 3, "max_depth": 1}]),
        ("boosted_trees", [{"trees": 8, "learning_rate": 0.2},
                           {"trees": 3, "learning_rate": 0.2, "max_depth": 3}]),
        ("knn", [{"k": 3}]),
    ])
    def test_family_columns_equal_each_member_alone(self, kind, family):
        X, y = toy_data(45)
        specs = [LearnerSpec.make(kind, **hp) for hp in family]
        together, fits = cv_predict(specs, X, y[None], 5, [[3, 1]], [9])
        assert together.shape == (1, 45, len(specs)) and len(fits) == 1
        for j, spec in enumerate(specs):
            assert np.array_equal(together[0, :, j], cv_oof([spec], X, y, 5, [3, 1])[:, 0])

    def test_cv_predict_refuses_specs_of_two_families(self):
        X, y = toy_data(20)
        specs = [LearnerSpec.make("boosted_trees", trees=3, learning_rate=lr) for lr in (0.1, 0.2)]
        with pytest.raises(ValueError, match="one nested family"):
            cv_predict(specs, X, y[None], 5, [0], [0])

    @pytest.mark.parametrize("targets, seeds, final_seeds", [
        (0, [0], [0]), (2, [0], [0, 1]), (2, [0, 1], [0]), (1, [0, 1], [0, 1])])
    def test_cv_predict_refuses_targets_without_one_seed_and_final_seed_each(
            self, targets, seeds, final_seeds):
        # a 1-D y (targets 0) holds no row of targets; a target without a seed
        # would leave its out-of-fold rows unset
        X, y = toy_data(20)
        Y = y if targets == 0 else np.vstack([y, -y][:targets])
        spec = LearnerSpec.make("knn", k=3)
        with pytest.raises(ValueError, match="one target per row"):
            cv_predict([spec], X, Y, 5, seeds, final_seeds)


def cv_oof(specs, X, y, k, seed) -> np.ndarray:
    """cv_predict's (n, specs) out-of-fold columns for the one target y."""
    return cv_predict(specs, X, y[None], k, [seed], [0])[0][0]


def per_fold_cv(specs, X, y, k, seed) -> np.ndarray:
    """cv_predict as one fit per fold of the family head, specs[0], each
    member predicting with its nested part of the head."""
    oof = np.empty((X.shape[0], len(specs)))
    for i, test_idx in enumerate(kfold_indices(X.shape[0], k, seed)):
        train = np.setdiff1d(np.arange(X.shape[0]), test_idx)
        model = train_base(specs[0], X[train], y[train], seed=[seed, i])
        for j, spec in enumerate(specs):
            fit = model if spec.kind == "knn" else model.nested(spec)
            oof[test_idx, j] = fit.predict(X[test_idx])
    return oof


class TestBatchedFolds:
    """cv_predict grows the k folds of a family in one batch; each column is
    what fitting every fold on its own gives."""

    @pytest.mark.parametrize("n,k", [(23, 5), (23, 3), (20, 5)])
    @pytest.mark.parametrize("kind,family", [
        ("knn", [{"k": 1}]),
        ("knn", [{"k": 4}]),
        ("bagged_trees", [{"trees": 4, "max_depth": 0}, {"trees": 2, "max_depth": 0}]),
        ("bagged_trees", [{"trees": 6, "max_depth": None, "max_features": "sqrt"},
                          {"trees": 3, "max_depth": 2, "max_features": "sqrt"}]),
        ("bagged_trees", [{"trees": 5, "max_depth": 3, "max_features": "third"}]),
        ("bagged_trees", [{"trees": 5, "max_depth": None, "max_features": None},
                          {"trees": 5, "max_depth": 1, "max_features": None}]),
        ("boosted_trees", [{"trees": 12, "learning_rate": 0.1, "max_depth": 3},
                           {"trees": 5, "learning_rate": 0.1, "max_depth": 3}]),
        ("boosted_trees", [{"trees": 6, "learning_rate": 0.3, "max_depth": None}]),
    ])
    def test_columns_equal_one_fit_per_fold(self, monkeypatch, n, k, kind, family):
        X, y = toy_data(n, p=5, seed=n)
        X[:, 2] = np.round(X[:, 2] / 3.0)  # ties in x
        specs = [LearnerSpec.make(kind, **hp) for hp in family]
        calls = []
        batched = learners.train_base
        monkeypatch.setattr(learners, "train_base", lambda *a, **kw: calls.append(a) or
                            batched(*a, **kw))
        oof, _ = cv_predict(specs, X, y[None], k, [7], [9])
        monkeypatch.undo()
        assert len(calls) == 1
        assert np.array_equal(oof[0], per_fold_cv(specs, X, y, k, 7))

    @pytest.mark.parametrize("max_depth", [2, None])
    @pytest.mark.parametrize("max_features", [5, 2])
    def test_grow_with_masked_rows_equals_each_subset_alone(self, max_depth, max_features):
        rng = np.random.default_rng(3)
        X = np.round(rng.uniform(0, 8, size=(6, 30, 5)))
        y = np.round(rng.normal(size=(6, 30)), 1)
        keep = rng.random((6, 30)) < 0.6
        keep[0], keep[1], keep[2] = True, np.arange(30) == 7, np.arange(30) < 2
        table, fitted = learners._grow(X, y, np.argsort(X, axis=1, kind="stable"), keep,
                                       max_depth, max_features,
                                       [np.random.default_rng(b) for b in range(6)])
        for b in range(6):
            xs, ys = X[b][keep[b]][None], y[b][keep[b]][None]
            alone, alone_fitted = learners._grow(xs, ys, np.argsort(xs, axis=1, kind="stable"),
                                                 np.ones(ys.shape, dtype=bool), max_depth,
                                                 max_features, [np.random.default_rng(b)])
            assert same_tree(canonical(table, b), canonical(alone))
            assert fitted[b][keep[b]].tobytes() == alone_fitted[0].tobytes()


class TestLevelOrderTable:
    """A tree model stores its trees as one level-order node table, tree t at
    node t, numbered as the grower numbers them."""

    @pytest.mark.parametrize("kind,hp", [
        ("bagged_trees", {"trees": 7, "max_depth": None, "max_features": "sqrt"}),
        ("bagged_trees", {"trees": 7, "max_depth": 3, "max_features": None}),
        ("boosted_trees", {"trees": 9, "learning_rate": 0.1, "max_depth": 3}),
    ])
    def test_stored_layout(self, monkeypatch, kind, hp):
        X, y = toy_data(50)
        grown, grow = [], learners._grow
        monkeypatch.setattr(learners, "_grow", lambda *a: grown.append(grow(*a)) or grown[-1])
        model = train_base(LearnerSpec.make(kind, **hp), X, y, seed=2)
        table = {name: np.array(column)
                 for name, column in model.to_dict()["fitted_trees"].items()}
        T, inner = hp["trees"], table["feature"] >= 0
        assert sorted(table) == ["feature", "threshold", "value"]
        assert table["value"].size == T + 2 * inner.sum()
        # nodes 0..T-1 are the roots; every other node is a child, numbered in
        # the order a breadth-first walk reaches it: left then right, in
        # parent order, after its parent; so the order implies the children
        left, right = implied_children(table)
        assert np.array_equal(learners._left(table["feature"]), left)
        level, reached = np.arange(T), []
        while level.size:
            reached.extend(level.tolist())
            split = level[inner[level]]
            level = np.column_stack([left[split], right[split]]).ravel()
        assert reached == list(range(table["value"].size))
        assert np.all(left[inner] > np.flatnonzero(inner))
        if kind == "bagged_trees":  # a single fit is a batch of one: `_grow`'s table as is
            [(grown_table, _)] = grown
            gathered = learners._gather(np.arange(T), None, **grown_table)
            for name in learners._TREE_ARRAYS:
                assert np.array_equal(table[name], grown_table[name])
                assert np.array_equal(gathered[name], grown_table[name])
        else:  # the first tree's root mean is that of the first residuals
            assert table["value"][0] == (y - y.mean()).mean()
        stumps = learners._gather(np.arange(T), 0, **table)
        assert stumps["value"].size == T
        assert same_tree([canonical(stumps, t) for t in range(T)],
                         [[float(v), -1, 0.0, -1, -1] for v in table["value"][:T]])


@st.composite
def sized_tables(draw):
    """(table, trees, X): a random `feature` column on 3 features of `trees + 2 *
    splits` entries, the one rule the loader keeps, with 1-5 trees, split nodes
    anywhere (so tails that no root reaches), and thresholds, values and rows of
    few distinct values, so rows tie thresholds."""
    trees, splits = draw(st.integers(1, 5)), draw(st.integers(0, 12))
    size = trees + 2 * splits
    feature = np.full(size, -1, dtype=np.int32)
    feature[draw(st.permutations(range(size)))[:splits]] = draw(
        st.lists(st.integers(0, 2), min_size=splits, max_size=splits))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    table = {"feature": feature,
             "threshold": np.where(feature >= 0, rng.integers(0, 5, size) / 2.0, 0.0),
             "value": rng.normal(size=size).round(2)}
    return table, trees, rng.integers(-1, 6, (draw(st.integers(1, 9)), 3)) / 2.0


def reached(table, trees) -> list:
    """The nodes a root reaches over the implied children, in breadth-first order."""
    left, _ = implied_children(table)
    level, out = np.arange(trees), []
    while level.size:
        out.extend(level.tolist())
        split = level[table["feature"][level] >= 0]
        level = np.column_stack([left[split], left[split] + 1]).ravel()
    return out


def leaf_value(table, left, node, x) -> float:
    """A recursive walk from `node` to its leaf over the children `left` implies."""
    f = table["feature"][node]
    if f < 0:
        return float(table["value"][node])
    return leaf_value(table, left, left[node] + int(x[f] > table["threshold"][node]), x)


class TestAnySizedTableWalksSafely:
    """The loader keeps only the size rule (each column of `trees + 2 * splits`
    entries); any table it admits walks inside itself, as a per-tree loop does."""

    @settings(max_examples=300, deadline=None)
    @given(case=sized_tables())
    def test_walk(self, case):
        table, trees, X = case
        model = learners.BoostedTreesModel(LearnerSpec.make(
            "boosted_trees", trees=trees, learning_rate=0.5, max_depth=None))
        model.init_value, model.table = 0.25, table
        assert model._sound(3)
        left, nodes, size = learners._left(table["feature"]), reached(table, trees), trees
        size += 2 * np.count_nonzero(table["feature"] >= 0)
        # the children of a split a root reaches come after it, inside the table;
        # so the nodes no root reaches are the table's tail
        for node in nodes:
            if table["feature"][node] >= 0:
                assert node < left[node] and left[node] + 1 < size
        assert nodes == list(range(len(nodes)))
        want = []
        for x in X:  # start, then `acc += weight * leaf` one tree at a time
            acc = 0.25
            for t in range(trees):
                acc = acc + 0.5 * leaf_value(table, left, t, x)
            want.append(acc)
        got = learners._accumulate(table, trees, X, 0.25, 0.5)
        assert got.tobytes() == np.array(want).tobytes()
        assert model.predict(X).tobytes() == got.tobytes()
        # the tail's splits shuffled among it, new thresholds and values: the
        # same predictions, bit for bit
        tail, rng = np.arange(len(nodes), size), np.random.default_rng(size)
        other = {name: column.copy() for name, column in table.items()}
        other["feature"][tail] = rng.permutation(other["feature"][tail])
        other["threshold"][tail] = rng.normal(size=tail.size)
        other["value"][tail] = rng.normal(size=tail.size) * 1e6
        assert learners._accumulate(other, trees, X, 0.25, 0.5).tobytes() == got.tobytes()


class TestCrossValidation:
    def test_fold_sizes_11_into_5(self):
        folds = kfold_indices(11, 5, seed=0)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [2, 2, 2, 2, 3]
        assert sorted(np.concatenate(folds).tolist()) == list(range(11))

    def test_folds_are_seeded(self):
        a = kfold_indices(20, 5, seed=4)
        b = kfold_indices(20, 5, seed=4)
        c = kfold_indices(20, 5, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_n_smaller_than_k_rejected(self):
        with pytest.raises(ValueError):
            kfold_indices(3, 5, seed=0)

    def test_constant_target_oof_is_constant(self):
        X = np.random.default_rng(0).uniform(size=(20, 3))
        y = np.full(20, 5.0)
        for kind, hp in (("knn", {"k": 3}),
                         ("bagged_trees", {"trees": 5, "max_depth": 4, "max_features": None}),
                         ("boosted_trees", {"trees": 5, "learning_rate": 0.1, "max_depth": 2})):
            oof = cv_oof([LearnerSpec.make(kind, **hp)], X, y, 5, 1)
            assert np.allclose(oof, 5.0), kind

    def test_oof_deterministic(self):
        X, y = toy_data(30)
        spec = LearnerSpec.make("bagged_trees", trees=8, max_depth=6, max_features="sqrt")
        assert np.array_equal(cv_oof([spec], X, y, 5, 7), cv_oof([spec], X, y, 5, 7))


class TestGridSearch:
    def test_minimizes_cv_rmse(self):
        X, y = toy_data(60)
        specs = [LearnerSpec.make("knn", k=k) for k in (1, 5, 10, 25)]
        [(best, _, scores, _)] = grid_search(specs, X, y[None], 5, [3], [9])
        assert [s for s, _ in scores] == specs
        rmses = [r for _, r in scores]
        assert best == scores[int(np.argmin(rmses))][0]
        assert min(rmses) == dict((s, r) for s, r in scores)[best]

    def test_tie_takes_grid_order(self):
        X = np.random.default_rng(5).uniform(size=(20, 2))
        y = np.full(20, 7.0)  # every spec scores identically (RMSE 0)
        specs = [LearnerSpec.make("knn", k=k) for k in (5, 2, 3)]
        [(best, _, _, _)] = grid_search(specs, X, y[None], 5, [0], [9])
        assert best == specs[0]

    @pytest.mark.parametrize("kind,grid", [
        ("knn", [{"k": 1}, {"k": 4}, {"k": 12}]),
        ("bagged_trees", [{"trees": 6, "max_depth": 2, "max_features": "sqrt"},
                          {"trees": 6, "max_depth": None, "max_features": None}]),
        ("boosted_trees", [{"trees": 8, "learning_rate": 0.05, "max_depth": 1},
                           {"trees": 8, "learning_rate": 0.3, "max_depth": 3}]),
        # grids of one nested family each
        ("bagged_trees", [{"trees": 6, "max_depth": 2, "max_features": "sqrt"},
                          {"trees": 3, "max_depth": None, "max_features": "sqrt"},
                          {"trees": 9, "max_depth": 4, "max_features": "sqrt"}]),
        ("boosted_trees", [{"trees": 8, "learning_rate": 0.3, "max_depth": 1},
                           {"trees": 2, "learning_rate": 0.3, "max_depth": 1}]),
    ])
    def test_best_oof_is_the_winners_cross_validation(self, kind, grid):
        # the pipeline stacks these columns instead of cross-validating the
        # winner a second time
        X, y = toy_data(45)
        specs = [LearnerSpec.make(kind, **hp) for hp in grid]
        seed = [2, 310, 0, 1]
        [(best, best_oof, scores, _)] = grid_search(specs, X, y[None], 5, [seed], [9])
        assert np.array_equal(best_oof, cv_oof([best], X, y, 5, seed)[:, 0])
        rmse = float(np.sqrt(np.mean((y - best_oof) ** 2)))
        assert rmse == dict(scores)[best] == min(r for _, r in scores)

    def test_names_drawing_one_feature_count_share_a_cross_validation(self, monkeypatch):
        # at p = 6 "sqrt" and "third" both draw 2 features per split, so they
        # grow the same trees; the search gives what each alone would give
        X, y = toy_data(45, p=6)
        specs = [LearnerSpec.make("bagged_trees", **hp) for hp in (
            {"trees": 6, "max_depth": 2, "max_features": "sqrt"},
            {"trees": 6, "max_depth": None, "max_features": "third"},
            {"trees": 4, "max_depth": 3, "max_features": None})]
        seed = [2, 310, 0, 1]
        alone = {s: cv_oof([s], X, y, 5, seed)[:, 0] for s in specs}
        want = [(s, float(np.sqrt(np.mean((y - alone[s]) ** 2)))) for s in specs]
        want_best = min(want, key=lambda score: score[1])[0]
        calls = []
        counted = learners.cv_predict
        monkeypatch.setattr(learners, "cv_predict",
                            lambda *a, **kw: calls.append(a) or counted(*a, **kw))
        [(best, best_oof, scores, final)] = grid_search(specs, X, y[None], 5, [seed],
                                                        [[2, 320, 0, 1]])
        assert len(calls) == len(specs) - 1  # one per drawn count, not per name
        assert scores == want
        assert best == want_best
        assert np.array_equal(best_oof, alone[want_best])
        reference = train_base(want_best, X, y, seed=[2, 320, 0, 1])
        assert json.dumps(entry(final)) == json.dumps(entry(reference))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_search([], np.zeros((5, 1)), np.zeros((1, 5)), 5, [0], [0])


ONE_BATCH_GRIDS = {
    "boosted_trees": [{"trees": 6, "learning_rate": 0.1, "max_depth": 2},
                      {"trees": 3, "learning_rate": 0.1, "max_depth": 2},
                      {"trees": 5, "learning_rate": 0.3, "max_depth": 2}],
    "bagged_trees": [{"trees": 6, "max_depth": 2, "max_features": "sqrt"},
                     {"trees": 4, "max_depth": None, "max_features": "sqrt"},
                     {"trees": 3, "max_depth": 0}],
    "knn": [{"k": 2}, {"k": 7}],
}


def one_target_oracle(specs, X, y, k, seed, final_seed):
    """grid_search for one target as separate calls: one batched fit of each
    family's head per fold set, then the winner grown again on all rows."""
    families = {}
    for spec in specs:
        families.setdefault(learners._family(spec, X.shape[1]), []).append(spec)
    oof = {}
    for family in families.values():
        head = family[0]
        if head.kind != "knn":
            depths = [learners._MODEL_CLASSES[s.kind](s).hp["max_depth"] for s in family]
            head = LearnerSpec.make(head.kind, **{
                **head.hp, "trees": max(s.hp["trees"] for s in family),
                "max_depth": None if None in depths else max(depths)})
        folds = kfold_indices(X.shape[0], k, seed)
        models = train_base(head, X, y, [[seed, i] for i in range(k)], held_out=folds)
        for spec in family:
            oof[spec] = np.empty(X.shape[0])
            for test_idx, model in zip(folds, models):
                fit = model if spec.kind == "knn" else model.nested(spec)
                oof[spec][test_idx] = fit.predict(X[test_idx])
    scores = [(s, float(np.sqrt(np.mean((y - oof[s]) ** 2)))) for s in specs]
    best = min(scores, key=lambda score: score[1])[0]
    return best, oof[best], scores, train_base(best, X, y, final_seed)


class TestOneBatchSelection:
    """One grid_search serves several targets: each family grows every
    target's folds and fit on all rows in one train_base call, and each
    target's result is that of searching it alone and refitting the winner."""

    @pytest.mark.parametrize("cap", [None, 7])
    def test_two_targets_equal_the_per_target_oracle(self, monkeypatch, cap):
        X, y = toy_data(40, p=4, seed=2)
        Y = np.vstack([y, np.round(2.0 * y[::-1] + X[:, 3], 1)])
        seeds = [[5, 310, a, 1] for a in range(2)]
        finals = [[5, 320, a, 1] for a in range(2)]
        if cap is not None:
            monkeypatch.setattr(learners, "_GROUP_TREES", cap)
        grown, grow = [], learners._grow
        fits, train = [], learners.train_base
        monkeypatch.setattr(learners, "_grow", lambda *a: grown.append(
            (a[0].shape[0], a[-1] is not None)) or grow(*a))
        monkeypatch.setattr(learners, "train_base", lambda *a, **kw: fits.append(a[0]) or
                            train(*a, **kw))
        results = {kind: grid_search([LearnerSpec.make(kind, **hp) for hp in grid], X, Y, 5,
                                     seeds, finals)
                   for kind, grid in ONE_BATCH_GRIDS.items()}
        monkeypatch.undo()
        # one train_base call per family: 2 boosted, 1 bagged (depths nest), 2 knn
        assert sorted(spec.kind for spec in fits) == sorted(
            ["boosted_trees"] * 2 + ["bagged_trees"] + ["knn"] * 2)
        bagged = [trees for trees, is_bagged in grown if is_bagged]
        if cap is not None:  # the 6-tree head, 2 targets x (5 folds + 1): 72 trees
            assert len(bagged) >= 3 and max(bagged) <= cap and sum(bagged) == 72
        else:
            assert bagged == [72]
        for kind, per_target in results.items():
            specs = [LearnerSpec.make(kind, **hp) for hp in ONE_BATCH_GRIDS[kind]]
            assert len(per_target) == 2
            for a, (best, best_oof, scores, final) in enumerate(per_target):
                want = one_target_oracle(specs, X, Y[a], 5, seeds[a], finals[a])
                assert best == want[0]
                assert best_oof.tobytes() == want[1].tobytes()
                assert scores == want[2]
                assert json.dumps(entry(final)) == json.dumps(entry(want[3]))

    def test_each_members_part_of_the_fit_on_all_rows_is_its_own_fit(self):
        # at p = 6 "sqrt" and "third" both draw 2 features, so they share a
        # head; each member's part of it keeps the member's own arguments
        X, y = toy_data(30, p=6, seed=5)
        family = [LearnerSpec.make("bagged_trees", **hp) for hp in (
            {"trees": 5, "max_depth": 2, "max_features": "sqrt"},
            {"trees": 3, "max_depth": None, "max_features": "third"},
            {"trees": 5, "max_depth": 1, "max_features": "third"})]
        oof, [full] = cv_predict(family, X, y[None], 5, [3], [9])
        assert np.array_equal(oof, cv_predict(family, X, y[None], 5, [3], [10])[0])
        for spec in family:
            assert json.dumps(entry(full.nested(spec))) == \
                json.dumps(entry(train_base(spec, X, y, 9)))

    def test_one_target_with_a_final_seed(self):
        X, y = toy_data(30, seed=4)
        specs = [LearnerSpec.make("bagged_trees", **hp) for hp in ONE_BATCH_GRIDS["bagged_trees"]]
        [(best, best_oof, scores, final)] = grid_search(specs, X, y[None], 5, [3], [9])
        assert (best, scores) == grid_search(specs, X, y[None], 5, [3], [10])[0][::2]
        assert np.array_equal(best_oof, cv_oof([best], X, y, 5, 3)[:, 0])
        assert json.dumps(entry(final)) == json.dumps(entry(train_base(best, X, y, 9)))


class TestStacking:
    def test_exact_linear_recovery(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=50)
        b = rng.normal(size=50)
        y = 3.0 + 2.0 * a - 1.5 * b
        fit = fit_stack(np.column_stack([a, b]), y)
        assert not fit.rank_deficient
        assert fit.intercept == pytest.approx(3.0, abs=1e-9)
        assert fit.coefficients == pytest.approx([2.0, -1.5], abs=1e-9)

    def test_collinear_columns_flagged_minimal_norm(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=40)
        y = 1.0 + 4.0 * a
        fit = fit_stack(np.column_stack([a, a]), y)
        assert fit.rank_deficient
        # minimal-norm solution still reproduces y
        pred = fit.apply(np.column_stack([a, a]))
        assert np.allclose(pred, y, atol=1e-8)

    def test_stack_never_worse_than_any_base_column(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n, m = int(rng.integers(10, 60)), int(rng.integers(1, 5))
            oof = rng.normal(size=(n, m))
            y = rng.normal(size=n)
            fit = fit_stack(oof, y)
            stack_rmse = np.sqrt(np.mean((y - fit.apply(oof)) ** 2))
            for j in range(m):
                base_rmse = np.sqrt(np.mean((y - oof[:, j]) ** 2))
                assert stack_rmse <= base_rmse + 1e-9

    @pytest.mark.parametrize("n", [1, 2000])
    def test_a_row_gets_the_same_bits_alone_and_in_any_batch(self, n):
        # columns of mixed magnitude, where a dot product's order or fused
        # multiply-adds would move the last bits of some rows
        rng = np.random.default_rng(11)
        columns = rng.normal(size=(n, 3)) * [1e-3, 1.0, 1e4] + [0.0, 50.0, 0.0]
        fit = StackFit(float(rng.normal()), rng.normal(size=3), False)
        whole = fit.apply(columns)
        alone = np.array([fit.apply(row[None])[0] for row in columns])
        oracle = []
        for row in columns:  # the intercept, then each column times its coefficient
            total = fit.intercept
            for x, c in zip(row.tolist(), fit.coefficients.tolist()):
                total = total + x * c
            oracle.append(total)
        assert whole.shape == (n,)
        assert np.array_equal(whole, alone)
        assert np.array_equal(whole, oracle)


def small_ensemble(X, y, seed=0):
    specs = [
        LearnerSpec.make("knn", k=3),
        LearnerSpec.make("boosted_trees", trees=20, learning_rate=0.1, max_depth=2),
    ]
    oof = np.column_stack([cv_oof([s], X, y, 5, seed)[:, 0] for s in specs])
    stack = fit_stack(oof, y)
    models = [train_base(s, X, y, seed=[seed, i]) for i, s in enumerate(specs)]
    return EnsembleModel(models=models, stack=stack,
                         feature_names=[f"f{j}" for j in range(X.shape[1])])


class TestEnsemble:
    def test_predictions_truncated_at_zero(self):
        X, y = toy_data(40)
        ens = small_ensemble(X, y)
        # force a strongly negative stack to exercise the floor
        ens.stack = StackFit(intercept=-1e6, coefficients=ens.stack.coefficients,
                             rank_deficient=False)
        assert np.all(ens.predict(X) == 0.0)

    def test_in_sample_not_worse_than_bases(self):
        X, y = toy_data(60, noise=4.0)
        ens = small_ensemble(X, y)
        base = np.column_stack([m.predict(X) for m in ens.models])
        stack_rmse = np.sqrt(np.mean((y - ens.predict(X)) ** 2))
        for j in range(base.shape[1]):
            base_rmse = np.sqrt(np.mean((y - base[:, j]) ** 2))
            assert stack_rmse <= base_rmse + 1e-9

    def test_serialization_round_trip_exact(self):
        X, y = toy_data(35)
        ens = small_ensemble(X, y)
        clone = EnsembleModel.from_json(ens.to_json())
        q = toy_data(25, seed=3)[0]
        assert np.array_equal(clone.predict(q), ens.predict(q))
        assert clone.feature_names == ens.feature_names
        assert [m.spec for m in clone.models] == [m.spec for m in ens.models]

    def test_unsupported_version_rejected(self):
        X, y = toy_data(20)
        doc = json.loads(small_ensemble(X, y).to_json())
        # format 1 stored one node table per tree, numbered depth first, and
        # format 2 wrote each hyperparameter in both a base's spec and its model
        for version in (1, 2, learners.MODEL_FORMAT_VERSION + 1, None):
            doc["format_version"] = version
            with pytest.raises(ValueError, match="unsupported model format version"):
                EnsembleModel.from_json(json.dumps(doc))


def model_file_doc() -> dict:
    """The model file document of an ensemble of every kind on 4 features."""
    X, y = toy_data(60)
    specs = [LearnerSpec.make("knn", k=3),
             LearnerSpec.make("bagged_trees", trees=4, max_depth=3, max_features=None),
             LearnerSpec.make("boosted_trees", trees=3, learning_rate=0.1, max_depth=2)]
    ens = EnsembleModel(models=[train_base(s, X, y, seed=i) for i, s in enumerate(specs)],
                        stack=StackFit(0.0, np.full(3, 1 / 3), False),
                        feature_names=[f"f{j}" for j in range(4)])
    return json.loads(ens.to_json())


def inner_node(model, which=0) -> int:
    """Id of the `which`-th inner node of a tree model document's table."""
    return [i for i, f in enumerate(model["fitted_trees"]["feature"]) if f >= 0][which]


def set_node(name, value, which=0, inner=True):
    """An edit of one cell of column `name`: at an inner node, or at a leaf."""
    def edit(model):
        table = model["fitted_trees"]
        node = (inner_node(model, which) if inner else
                [i for i, f in enumerate(table["feature"]) if f < 0][which])
        table[name][node] = value(model, node) if callable(value) else value
    return edit


def as_format_4(doc):  # format 4 stored each table's children in `left` and `right`
    doc["format_version"] = 4
    for base in doc["base"]:
        if "fitted_trees" in base["model"]:
            table = base["model"]["fitted_trees"]
            table["left"], table["right"] = (c.tolist() for c in implied_children(table))


def fitted(base):  # where a base's fitted model is in the document
    return "base", base, "model"


def hyperparameters(base):  # where a base's hyperparameters are: its spec's
    return "base", base, "spec", "hyperparameters"


NAN = float("nan")
MALFORMED_MODELS = {  # name: (where in the document, edit of what is there)
    "knn k above the training rows": (hyperparameters(0), lambda hp: hp.update(k=1000)),
    "knn k of zero": (hyperparameters(0), lambda hp: hp.update(k=0)),
    "knn X narrower than the features": (fitted(0), lambda m: m.update(X=[r[:-1] for r in m["X"]])),
    "knn mu narrower than the features": (fitted(0), lambda m: m["mu"].pop()),
    "knn sigma wider than the features": (fitted(0), lambda m: m["sigma"].append(1.0)),
    "knn y shorter than X": (fitted(0), lambda m: m["y"].pop()),
    "knn nan in X": (fitted(0), lambda m: m["X"][0].__setitem__(0, NAN)),
    "short value column": (fitted(1), lambda m: m["fitted_trees"]["value"].pop()),
    "a tree more than the table holds": (hyperparameters(1),
                                         lambda hp: hp.update(trees=hp["trees"] + 1)),
    "feature -2 at an inner node": (fitted(1), set_node("feature", -2)),
    "feature past the last feature": (fitted(1), set_node("feature", 4)),
    "nan threshold": (fitted(1), set_node("threshold", NAN)),
    "a threshold that is not a number": (fitted(1), set_node("threshold", "x")),
    "a feature beyond int32": (fitted(1), set_node("feature", 2**40)),
    "infinite leaf value": (fitted(1), set_node("value", float("inf"), inner=False)),
    "bagged constant beside its table": (fitted(1), lambda m: m.update(constant=1.0)),
    "boosted nan init_value": (fitted(2), lambda m: m.update(init_value=NAN)),
    "boosted nan learning_rate": (hyperparameters(2), lambda hp: hp.update(learning_rate=NAN)),
    "boosted without its table": (fitted(2), lambda m: m.update(fitted_trees=None)),
    "bagged without its table": (fitted(1), lambda m: m.update(fitted_trees=None)),
    "bagged table of no columns": (fitted(1), lambda m: m.update(fitted_trees=[])),
    "bagged table without its value column": (fitted(1), lambda m: m["fitted_trees"].pop("value")),
    "a table with a `left` column": (fitted(1), lambda m: m["fitted_trees"].update(
        left=implied_children(m["fitted_trees"])[0].tolist())),
    "boosted without init_value": (fitted(2), lambda m: m.pop("init_value")),
    "knn with a tree table": (fitted(0), lambda m: m.update(fitted_trees={})),
    "two stack coefficients for three bases": (("stack",), lambda st: st["coefficients"].pop()),
    "nan stack intercept": (("stack",), lambda st: st.update(intercept=NAN)),
    "rank_deficient not a bool": (("stack",), lambda st: st.update(rank_deficient="no")),
    "a format-4 file": ((), as_format_4),
}
# what a refusal says, where a spec, the stack or the format version refuses it
REFUSALS = {"knn k of zero": "knn needs an integer k >= 1",
            "boosted nan learning_rate": "learning_rate must be a nonnegative finite number",
            "a format-4 file": "unsupported model format version 4: .*format 5; run fit again"}


class TestMalformedModelFiles:
    """A model file the predicts would misread is refused when it is loaded."""

    def test_the_unedited_file_loads(self):
        text = json.dumps(model_file_doc())
        assert EnsembleModel.from_json(text).to_json() == text

    @pytest.mark.parametrize("name", list(MALFORMED_MODELS))
    def test_refused(self, name):
        doc = model_file_doc()
        where, edit = MALFORMED_MODELS[name]
        part = doc
        for key in where:
            part = part[key]
        edit(part)
        if name in REFUSALS:
            refusal = REFUSALS[name]
        elif where[0] == "stack":
            refusal = "malformed stack: it needs 3 finite coefficients"
        else:
            kind = doc["base"][where[1]]["spec"]["kind"]
            refusal = f"malformed {kind} model: base {where[1]} on 4 features"
        with pytest.raises(ValueError, match=refusal):
            EnsembleModel.from_json(json.dumps(doc))

    def test_a_file_with_no_base_model_refused(self):
        # an empty stack over no base would leave predict nothing to combine
        doc = model_file_doc()
        doc["base"], doc["stack"]["coefficients"] = [], []
        with pytest.raises(ValueError, match=r"malformed stack: it needs 0 finite coefficients, "
                                             r"one per base model \(>= 1\)"):
            EnsembleModel.from_json(json.dumps(doc))


def grid_of(values, mask=True):  # NaN where `mask` is False
    values = np.where(mask, np.asarray(values, dtype=np.float32), np.float32(np.nan))
    return Grid(ncols=values.shape[1], nrows=values.shape[0], x_origin=0.0,
                y_origin=0.0, cellsize=30.0, units="", values=values)


def everywhere(grid):
    """The domain of every cell of `grid`."""
    return np.ones(grid.values.shape, dtype=bool)


class TestPredictGrid:
    def setup_method(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 10, size=(50, 2))
        y = 5.0 + 2.0 * X[:, 0] + rng.normal(0, 1, 50)
        self.ens = small_ensemble(X, y)
        self.ens.feature_names = ["a", "b"]

    def test_masked_where_any_predictor_masked(self):
        a = grid_of([[1.0, 2.0], [3.0, 4.0]], mask=[[True, True], [False, True]])
        b = grid_of([[5.0, 6.0], [7.0, 8.0]], mask=[[True, False], [True, True]])
        out = predict_grid(self.ens, {"a": a, "b": b}, everywhere(a))
        assert out.mask.tolist() == [[True, False], [False, True]]
        assert out.units == "Mg/ha"
        assert np.all(out.values[out.mask] >= 0)

    def test_values_match_tabular_prediction(self):
        a = grid_of([[1.0, 2.0]])
        b = grid_of([[5.0, 6.0]])
        out = predict_grid(self.ens, {"a": a, "b": b}, everywhere(a))
        ref = self.ens.predict(np.array([[1.0, 5.0], [2.0, 6.0]]))
        assert np.allclose(out.values[0], ref.astype(np.float32))

    def test_masked_outside_the_domain(self):
        rng = np.random.default_rng(1)
        a = grid_of(rng.uniform(0, 10, (6, 7)), mask=rng.random((6, 7)) > 0.2)
        b = grid_of(rng.uniform(0, 10, (6, 7)))
        domain = rng.random((6, 7)) > 0.5
        out = predict_grid(self.ens, {"a": a, "b": b}, domain)
        assert np.array_equal(out.mask, domain & a.mask)
        assert (out.values[~out.mask].view(np.uint32) == 0x7FC00000).all()  # the quiet NaN
        # a domain cell is predicted as it is over the whole grid
        whole = predict_grid(self.ens, {"a": a, "b": b}, everywhere(a))
        assert np.array_equal(out.values[out.mask], whole.values[out.mask])

    @pytest.mark.parametrize("shape", [(6,), (7, 6), (6, 7, 1), (1, 1)])
    def test_domain_of_another_shape_rejected(self, shape):
        a = grid_of(np.ones((6, 7)))
        with pytest.raises(ValueError, match="domain of shape"):
            predict_grid(self.ens, {"a": a, "b": a}, np.ones(shape, dtype=bool))

    def test_missing_layer_rejected(self):
        a = grid_of([[1.0]])
        with pytest.raises(ValueError, match="missing predictor"):
            predict_grid(self.ens, {"a": a}, everywhere(a))

    def test_misaligned_rejected(self):
        a = grid_of([[1.0, 2.0]])
        b = Grid(ncols=2, nrows=1, x_origin=15.0, y_origin=0.0, cellsize=30.0,
                 units="", values=np.array([[5.0, 6.0]], dtype=np.float32))
        with pytest.raises(ValueError, match="aligned"):
            predict_grid(self.ens, {"a": a, "b": b}, everywhere(a))

    def layers(self, shape, seed=2):
        rng = np.random.default_rng(seed)
        a = grid_of(rng.uniform(0, 10, shape), mask=rng.random(shape) > 0.15)
        return {"a": a, "b": grid_of(rng.uniform(0, 10, shape))}, rng.random(shape) > 0.1

    @pytest.mark.parametrize("block_cells", [1, 2, 7])
    def test_a_cell_gets_the_same_bits_in_any_block(self, monkeypatch, block_cells):
        # 11 rows of 3 cells: 7 cells make blocks of 2 rows and a 1-row tail
        layers, domain = self.layers((11, 3))
        default = predict_grid(self.ens, layers, domain)
        monkeypatch.setattr(grid_mod, "ROW_BLOCK_CELLS", block_cells)
        out = predict_grid(self.ens, layers, domain)
        assert np.array_equal(out.mask, default.mask) and default.mask.sum() > 20
        assert out.values.tobytes() == default.values.tobytes()
        alone = [self.ens.predict([[layers["a"].values[i, j], layers["b"].values[i, j]]])[0]
                 for i, j in zip(*np.nonzero(out.mask))]
        assert np.array_equal(out.values[out.mask], np.array(alone, dtype=np.float32))

    def test_one_cell_and_empty_domains(self, monkeypatch):
        layers, _ = self.layers((4, 5))
        i, j = np.argwhere(layers["a"].mask)[-1]
        one = np.zeros((4, 5), dtype=bool)
        one[i, j] = True
        out = predict_grid(self.ens, layers, one)
        assert np.array_equal(out.mask, one)
        cell = [[layers["a"].values[i, j], layers["b"].values[i, j]]]
        assert out.values[i, j] == np.float32(self.ens.predict(cell)[0])
        calls = []
        monkeypatch.setattr(EnsembleModel, "predict", lambda model, X: calls.append(X))
        empty = predict_grid(self.ens, layers, np.zeros((4, 5), dtype=bool))
        assert (empty.values.view(np.uint32) == 0x7FC00000).all() and calls == []

    def test_a_nan_predictor_cell_is_a_missing_cell_never_a_prediction(self, monkeypatch):
        # the walk steps `left + (x > threshold)`: a NaN would go left silently
        a = grid_of(np.arange(12.0).reshape(3, 4))
        nan = a.values.copy()
        nan[1, 2] = nan[2, 0] = np.nan
        layers = {"a": a.with_values(nan), "b": a}
        seen, predict = [], EnsembleModel.predict
        monkeypatch.setattr(EnsembleModel, "predict",
                            lambda model, X: seen.append(np.isnan(X).any()) or predict(model, X))
        out = predict_grid(self.ens, layers, everywhere(a))
        assert out.mask.tolist() == [[True] * 4, [True, True, False, True],
                                     [False, True, True, True]]
        assert seen == [False]

    def test_a_model_file_edited_to_predict_nan_raises(self):
        # every base predicts above 1 here, so stack weights of +-1e308 give
        # inf - inf: NaN, which would read as a cell with no value
        doc = json.loads(self.ens.to_json())
        doc["stack"]["coefficients"] = [1e308, -1e308]
        model = EnsembleModel.from_json(json.dumps(doc))
        a = grid_of([[4.0, 5.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(model.predict(np.array([[4.0, 4.0]]))).all()
            with pytest.raises(ValueError, match="predicts a value that is not finite"):
                predict_grid(model, {"a": a, "b": a}, everywhere(a))

    def test_no_model_predict_takes_more_than_a_block(self, monkeypatch):
        # a design matrix over the whole domain would be one call of every cell
        layers, domain = self.layers((30, 13))
        monkeypatch.setattr(grid_mod, "ROW_BLOCK_CELLS", 64)  # 4 rows of 13 cells
        rows, predict = [], EnsembleModel.predict

        def spy(model, X):
            rows.append(len(X))
            return predict(model, X)

        monkeypatch.setattr(EnsembleModel, "predict", spy)
        out = predict_grid(self.ens, layers, domain)
        assert len(rows) == 8 and max(rows) <= grid_mod.ROW_BLOCK_CELLS
        assert sum(rows) == out.mask.sum()


def spy_on_chunks(monkeypatch, fail_at=None):
    """Record (chunk start, thread id, live threads) of every chunk body call;
    the body of chunk number `fail_at` raises instead."""
    calls, map_chunks = [], learners.map_chunks

    def spy(n, chunk, values, per_cell):
        def body(lo, hi, buffers):
            calls.append((lo, threading.get_ident(), threading.active_count()))
            if fail_at is not None and lo == fail_at * chunk:
                raise RuntimeError(f"chunk body at cell {lo}")
            return values(lo, hi, buffers)
        return map_chunks(n, chunk, body, per_cell)

    monkeypatch.setattr(learners, "map_chunks", spy)
    return calls


THREADED_MODELS = {
    "bagged depth 8": ("bagged_trees", {"trees": 40, "max_depth": 8, "max_features": "sqrt"}),
    "bagged depth None": ("bagged_trees", {"trees": 40, "max_depth": None,
                                           "max_features": "third"}),
    "boosted": ("boosted_trees", {"trees": 40, "learning_rate": 0.1, "max_depth": 3}),
    "knn": ("knn", {"k": 3}),
}


@pytest.fixture
def frequent_thread_switches():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestChunksOnThreads:
    """Forest and knn predicts spread their chunks over `_WORKERS` threads."""

    @pytest.mark.parametrize("name", sorted(THREADED_MODELS))
    @pytest.mark.usefixtures("frequent_thread_switches")
    def test_same_bits_at_any_worker_count(self, monkeypatch, name):
        # 40 training rows, each of 10 points 4 times: a knn query on a point
        # has 4 rows at distance 0 for k = 3, and every second query is one of
        # those points, so such ties fall on both sides of each chunk edge
        X, y = toy_data(40)
        X = np.repeat(X[:10], 4, axis=0)
        kind, hp = THREADED_MODELS[name]
        model = train_base(LearnerSpec.make(kind, **hp), X, y, seed=3)
        chunk = learners._CHUNK_ENTRIES // 40  # 40 trees or 40 training rows
        calls, main = spy_on_chunks(monkeypatch), threading.get_ident()
        threads = threading.active_count()
        for n in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + chunk // 3):
            q = np.random.default_rng(n).uniform(-1, 11, size=(n, X.shape[1]))
            q[::2] = X[np.arange(0, n, 2) % 40]
            one_worker = None
            for workers in (1, 2, 3, 8):
                monkeypatch.setattr(grid_mod, "_WORKERS", workers)
                calls.clear()
                got = model.predict(q)
                one_worker = got if one_worker is None else one_worker
                assert np.array_equal(got, one_worker), (n, workers)
                assert sorted(lo for lo, _, _ in calls) == list(range(0, n, chunk))
                # the caller takes chunks too: w - 1 helpers at most, where w
                # is the smaller of the worker and chunk counts (8 workers on
                # 2 chunks start one helper)
                w = min(workers, len(range(0, n, chunk)))
                helpers = {ident for _, ident, _ in calls} - {main}
                assert (len(helpers) <= w - 1) and (w == 1 or helpers), (n, workers)
                assert max(live for _, _, live in calls) <= threads + w - 1, (n, workers)

    def test_traced_functions_run_on_the_calling_thread(self, monkeypatch):
        # the benchmark tracer wraps every public function of the module and
        # each model class's predict, and keeps one span stack: none of them
        # may run on a helper thread
        X, y = toy_data(50, p=2)
        specs = [LearnerSpec.make("knn", k=3),
                 LearnerSpec.make("bagged_trees", trees=10, max_depth=None),
                 LearnerSpec.make("boosted_trees", trees=10, learning_rate=0.1)]
        ens = EnsembleModel(models=[train_base(s, X, y, seed=0) for s in specs],
                            stack=StackFit(0.0, np.full(3, 1 / 3), False),
                            feature_names=["a", "b"])
        grids = {name: grid_of(np.random.default_rng(j).uniform(0, 10, (60, 60)))
                 for j, name in enumerate(ens.feature_names)}
        monkeypatch.setattr(grid_mod, "_WORKERS", 2)
        monkeypatch.setattr(learners, "_CHUNK_ENTRIES", 1000)  # chunks of 20 or 100 cells
        ran, main = [], threading.get_ident()

        def record(fn, name):
            def traced(*args, **kwargs):
                ran.append((name, threading.get_ident()))
                return fn(*args, **kwargs)
            return traced

        for name, fn in list(vars(learners).items()):
            if (inspect.isfunction(fn) and not name.startswith("_")
                    and fn.__module__ == learners.__name__):
                monkeypatch.setattr(learners, name, record(fn, name))
        for cls in (learners.KnnModel, learners.BaggedTreesModel,
                    learners.BoostedTreesModel, EnsembleModel):
            monkeypatch.setattr(cls, "predict", record(cls.predict, f"{cls.__name__}.predict"))
        bodies = spy_on_chunks(monkeypatch)
        domain = everywhere(grids["a"])
        out = learners.predict_grid(ens, grids, domain)
        assert {name for name, _ in ran} == {"predict_grid", "EnsembleModel.predict",
                                             "KnnModel.predict", "BaggedTreesModel.predict",
                                             "BoostedTreesModel.predict"}
        assert {ident for _, ident in ran} == {main}
        assert {ident for _, ident, _ in bodies} - {main}  # a helper took chunks
        monkeypatch.undo()
        monkeypatch.setattr(grid_mod, "_WORKERS", 1)
        assert np.array_equal(out.values, predict_grid(ens, grids, domain).values)

    @pytest.mark.parametrize("name", ["bagged depth 8", "boosted", "knn"])
    @pytest.mark.parametrize("fail_at", [1, 0])  # a helper's chunk, then the caller's
    def test_a_failing_chunk_raises_in_predict(self, monkeypatch, name, fail_at):
        X, y = toy_data(40)
        kind, hp = THREADED_MODELS[name]
        model = train_base(LearnerSpec.make(kind, **hp), X, y, seed=0)
        q = toy_data(3 * learners._CHUNK_ENTRIES // 40, seed=1)[0]  # 3 chunks
        monkeypatch.setattr(grid_mod, "_WORKERS", 2)
        calls = spy_on_chunks(monkeypatch, fail_at=fail_at)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk body at cell"):
            model.predict(q)
        assert threading.active_count() == threads
        assert len({ident for _, ident, _ in calls}) == 2
