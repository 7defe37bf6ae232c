"""Span recording around agbmap's layers, installed from outside the package.

`install` rebinds public functions of the agbmap modules with wrappers that
record one span per call (name, start, end, parent) plus counts taken from the
call's arguments and result. Nothing under `src/` changes; `restore` puts the
originals back. A layer is a module, and a span's layer is the first part of
its name (`footprint.pixel_overlap_weights` belongs to `footprint`).

The analysis half (`phase_metrics`, `stage_counts`) works on the plain span
lists that a traced worker writes out, so it runs in the parent process.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from contextlib import contextmanager

LAYERS = ("pipeline", "footprint", "learners", "grid", "hexgrid", "metrics",
          "carbon", "inventory")

# modules whose functions agbmap.pipeline imports by name
_PIPELINE_SOURCES = ("footprint", "grid", "hexgrid", "inventory", "learners",
                     "metrics")
_MODEL_CLASSES = ("KnnModel", "BaggedTreesModel", "BoostedTreesModel")


class Tracer:
    """In-memory span list; one process, one thread."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, counts dict]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name, count=None):
        """Wrapper recording a span per call; `name` may be a callable of the
        call's arguments, `count(counts, args, kwargs, result)` fills counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.spans[idx][4], args, kwargs, result)
            return result

        return traced


# -- counts from call arguments and results ---------------------------------

def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_valid_cells(counts, args, kwargs, result):
    counts["cells"] = int(result.mask.sum())


def _count_read_bytes(counts, args, kwargs, result):
    counts["bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_written_bytes(counts, args, kwargs, result):
    counts["bytes"] = os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_aggregate(counts, args, kwargs, result):
    counts["points"] = len(_arg(args, kwargs, 1, "locations"))
    counts["hexes"] = len(result)


def _count_assign(counts, args, kwargs, result):
    counts["points"] = len(result)


def _count_trees(counts, args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    counts["trees"] = int(spec.hp.get("trees", 0)) if spec.kind != "knn" else 0


def _count_rows(counts, args, kwargs, result):
    counts["rows"] = len(result)


_COUNTERS = {
    "learners.predict_grid": _count_valid_cells,
    "grid.percent_rank": _count_valid_cells,
    "grid.read_grid": _count_read_bytes,
    "grid.write_grid": _count_written_bytes,
    "hexgrid.aggregate_pairs": _count_aggregate,
    "hexgrid.assign": _count_assign,
    "learners.train_base": _count_trees,
    "inventory.load_trees": _count_rows,
    "inventory.load_plots": _count_rows,
}


def _train_base_name(spec, *args, **kwargs):
    return f"learners.train_base.{spec.kind}"


def install(tracer: Tracer):
    """Rebind agbmap's public functions with span-recording wrappers.

    Returns a function that restores every original binding.
    """
    import agbmap.carbon
    import agbmap.cli
    import agbmap.hexgrid
    import agbmap.learners
    import agbmap.metrics
    import agbmap.pipeline as pipeline

    undo = []
    wrappers = {}

    def wrapped(fn, name):
        if fn not in wrappers:
            span_name = _train_base_name if name == "learners.train_base" else name
            wrappers[fn] = tracer.wrap(fn, span_name, _COUNTERS.get(name))
        return wrappers[fn]

    def rebind(owner, attr, name):
        original = getattr(owner, attr)
        undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, wrapped(original, name))

    def restore():
        while undo:
            undo.pop()()

    def layer_of(fn):
        return fn.__module__.rsplit(".", 1)[-1]

    def public_functions(module, defined_in):
        for attr, value in sorted(vars(module).items()):
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and layer_of(value) in defined_in):
                yield attr, value

    # the names the pipeline imports from the library modules
    for attr, fn in public_functions(pipeline, _PIPELINE_SOURCES):
        rebind(pipeline, attr, f"{layer_of(fn)}.{fn.__name__}")
    # calls the library modules make among themselves
    for attr, fn in public_functions(agbmap.metrics, ("hexgrid",)):
        rebind(agbmap.metrics, attr, f"hexgrid.{fn.__name__}")
    for module in (agbmap.learners, agbmap.hexgrid, agbmap.carbon):
        layer = module.__name__.rsplit(".", 1)[-1]
        for attr, fn in public_functions(module, (layer,)):
            rebind(module, attr, f"{layer}.{fn.__name__}")
    for cls_name in _MODEL_CLASSES:
        cls = getattr(agbmap.learners, cls_name, None)
        if cls is not None:
            rebind(cls, "predict", f"learners.{cls.kind}.predict")

    # orchestration: what the CLI calls, and every stage function
    for attr in ("run", "validate", "render_report"):
        rebind(agbmap.cli, attr, f"pipeline.{attr}")
        rebind(pipeline, attr, f"pipeline.{attr}")
    stage_fns = {getattr(pipeline, f"_stage_{s}"): s for s in pipeline.STAGE_ORDER}
    tables = [t for t in vars(pipeline).values()
              if isinstance(t, dict) and any(v in stage_fns for v in t.values()
                                             if inspect.isfunction(v))]
    if not tables:
        restore()
        raise RuntimeError("no stage table found in agbmap.pipeline")
    for table in tables:
        for key, fn in list(table.items()):
            if inspect.isfunction(fn) and fn in stage_fns:
                undo.append(lambda table=table, key=key, fn=fn: table.__setitem__(key, fn))
                table[key] = wrapped(fn, f"pipeline.{stage_fns[fn]}")
    return restore


# -- analysis ---------------------------------------------------------------

def _children(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            kids[s[3]].append(i)
    return kids


def _subtree(kids, root):
    out, todo = [], [root]
    while todo:
        i = todo.pop()
        out.append(i)
        todo.extend(kids[i])
    return out


def _has_ancestor(spans, i, name):
    j = spans[i][3]
    while j >= 0:
        if spans[j][0] == name:
            return True
        j = spans[j][3]
    return False


def _dur(s):
    return s[2] - s[1]


def _roots(spans, name):
    return [i for i, s in enumerate(spans) if s[3] < 0 and s[0] == name]


def stage_counts(spans, stage: str, root_name: str) -> dict:
    """Counts recorded under one stage's spans in a phase, keyed by span name."""
    kids = _children(spans)
    out: dict = {}
    for r in _roots(spans, root_name):
        for i in _subtree(kids, r):
            if spans[i][0] != f"pipeline.{stage}":
                continue
            for j in _subtree(kids, i)[1:]:
                entry = out.setdefault(spans[j][0], {"calls": 0})
                entry["calls"] += 1
                for key, value in spans[j][4].items():
                    entry[key] = entry.get(key, 0) + value
    return out


def phase_metrics(spans, root_name: str) -> dict:
    """Aggregate the spans under one phase root into named values.

    Keys: `<span>.s` (inclusive seconds), `<span>.calls`, `<span>.<count>`,
    `<span>.self_s`, `<layer>.self_s`, `<model>.predict.under_predict_grid.s`
    for model predictions inside `learners.predict_grid`, and `phase.s` /
    `phase.unexplained_s` (root minus its children) for the root.
    """
    kids = _children(spans)
    out: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for r in _roots(spans, root_name):
        add("phase.s", _dur(spans[r]))
        add("phase.unexplained_s",
            _dur(spans[r]) - sum(_dur(spans[k]) for k in kids[r]))
        for i in _subtree(kids, r):
            if i == r:
                continue
            s = spans[i]
            name = s[0]
            self_s = _dur(s) - sum(_dur(spans[k]) for k in kids[i])
            add(f"{name}.s", _dur(s))
            add(f"{name}.self_s", self_s)
            add(f"{name}.calls", 1)
            add(f"{name.split('.', 1)[0]}.self_s", self_s)
            for key, value in s[4].items():
                add(f"{name}.{key}", value)
            if name.endswith(".predict") and _has_ancestor(spans, i, "learners.predict_grid"):
                add(f"{name}.under_predict_grid.s", _dur(s))
    return out
