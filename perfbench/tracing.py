"""Outside-in span tracing of idemrange's layers.

The benchmark does not instrument the program.  It wraps the public
cross-module names that ``idemrange.idsstruct`` calls, by replacing them in
the ``idemrange.idsstruct`` (and ``idemrange.cwd``) namespaces and on
``GridIndex``, records one span per call, and restores the originals on
exit.  Spans are kept in memory as columns and written out at the end.

A wrapped name that no longer exists, or that the traced run never calls,
is an error: a rename in the program must not read as a layer taking 0 ms.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager

import numpy as np

import workloads  # noqa: F401  (imports idemrange from the checkout's src)
from idemrange import cwd, idsstruct

__all__ = ["Tracer", "TraceError", "installed", "layer_metrics", "QUERY_CHILD_LAYERS"]


class TraceError(RuntimeError):
    """A wrapped name is missing or was never called."""


class Tracer:
    """In-memory span store: one row per span in parallel columns."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.qid = array("q")
        self.payload: dict[int, tuple] = {}
        self.current_qid = -1  # -1 marks build-time spans
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.qid.append(self.current_qid)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def calls(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return 0 if nid is None else self.name.count(nid)

    def write(self, path, header: dict) -> None:
        """Spans as compressed numpy columns; ``names[name[i]]`` is span i's
        name and ``payload[j]`` holds the counts of span ``payload_span[j]``."""
        width = max((len(v) for v in self.payload.values()), default=0)
        payload = np.full((len(self.payload), width), -1, dtype=np.int64)
        for j, v in enumerate(self.payload.values()):
            payload[j, : len(v)] = v
        np.savez_compressed(
            path,
            header=np.array(json.dumps(header)),
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            start_ns=np.array(self.start, dtype=np.int64),
            end_ns=np.array(self.end, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            query_id=np.array(self.qid, dtype=np.int64),
            payload_span=np.fromiter(self.payload.keys(), dtype=np.int64, count=len(self.payload)),
            payload=payload,
        )


def _dominance_payload(args, out):
    m_idx, covered, used = out
    return (len(args[0]), len(args[1]), len(m_idx), int(np.count_nonzero(covered)), int(np.count_nonzero(used)))


# (owner, attribute, span name, payload(args, result) -> tuple of counts)
PATCHES = [
    (idsstruct, "decompose_query", "idsstruct.decompose_query", lambda a, out: (len(out[0]), int(out[1]))),
    (idsstruct, "balanced_prefix_cover", "dyadic.balanced_prefix_cover", lambda a, out: (len(out),)),
    (idsstruct, "suffix_cover", "dyadic.suffix_cover", lambda a, out: (len(out),)),
    (idsstruct, "dominance_cover", "dominance.dominance_cover", _dominance_payload),
    (idsstruct, "fold_values", "semigroup.fold_values", None),
    (idsstruct, "singleton_value", "semigroup.singleton_value", None),
    (idsstruct, "build_cwd_family", "cwd.build_cwd_family", lambda a, out: (out.total_points(),)),
    (cwd, "hammersley_wd", "points.hammersley_wd", None),
    (idsstruct.GridIndex, "__init__", "gridindex.build", None),
    (idsstruct.GridIndex, "points_in_box", "gridindex.points_in_box", lambda a, out: (len(out),)),
    (idsstruct.GridIndex, "candidates_in_box", "gridindex.candidates_in_box", lambda a, out: (len(out),)),
]

# Spans that run directly under a query span.  Their per-query times plus
# idsstruct.self_ms make up idsstruct.query_ms.
QUERY_CHILD_LAYERS = {
    "idsstruct.decompose_ms": ("idsstruct.decompose_query",),
    "dyadic.cover_ms": ("dyadic.balanced_prefix_cover", "dyadic.suffix_cover"),
    "gridindex.points_in_box_ms": ("gridindex.points_in_box",),
    "dominance.cover_ms": ("dominance.dominance_cover",),
    "semigroup.fold_ms": ("semigroup.fold_values",),
    "semigroup.singleton_ms": ("semigroup.singleton_value",),
}


def _wrap(tracer: Tracer, span: str, fn, payload):
    begin, finish, store = tracer.begin, tracer.finish, tracer.payload

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = begin(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            finish(idx)
        if payload is not None:
            store[idx] = payload(args, out)
        return out

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Route every name in PATCHES through ``tracer``; restore on exit."""
    originals = []
    try:
        for owner, attr, span, payload in PATCHES:
            fn = getattr(owner, attr, None)
            if not callable(fn):
                raise TraceError(f"{owner.__name__}.{attr} is missing; update perfbench/tracing.py")
            originals.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, span, fn, payload))
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


def require_all_called(tracer: Tracer) -> None:
    never = [span for _, _, span, _ in PATCHES if tracer.calls(span) == 0]
    if never:
        raise TraceError(f"wrapped names never called: {', '.join(never)}")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from the spans of one build and one query pass.

    The query pass must wrap each query in an ``idsstruct.query`` span and
    the build in an ``idsstruct.build`` span.
    """
    nid = {n: i for i, n in enumerate(tracer.names)}
    name = np.array(tracer.name, dtype=np.int64)
    dur_ms = (np.array(tracer.end, dtype=np.int64) - np.array(tracer.start, dtype=np.int64)) / 1e6
    parent = np.array(tracer.parent, dtype=np.int64)
    in_query = np.array(tracer.qid, dtype=np.int64) >= 0

    def rows(span, query=True):
        return np.nonzero((name == nid.get(span, -1)) & (in_query if query else ~in_query))[0]

    def build_s(span):
        return float(dur_ms[rows(span, query=False)].sum()) / 1e3

    def counts(span, width=1):
        r = rows(span)
        return np.array([tracer.payload[i] for i in r], dtype=np.float64).reshape(len(r), width)

    q = rows("idsstruct.query")
    nq = len(q)
    has_parent = parent >= 0
    child_ms = np.bincount(parent[has_parent], weights=dur_ms[has_parent], minlength=len(dur_ms))

    m = {
        "idsstruct.query_ms": float(dur_ms[q].mean()),
        "idsstruct.self_ms": float((dur_ms[q] - child_ms[q]).mean()),
        "cwd.build_s": build_s("cwd.build_cwd_family"),
        "points.hammersley_s": build_s("points.hammersley_wd"),
        "gridindex.build_s": build_s("gridindex.build"),
    }
    m["idsstruct.build_self_s"] = build_s("idsstruct.build") - m["cwd.build_s"] - m["gridindex.build_s"]
    fam = rows("cwd.build_cwd_family", query=False)
    m["cwd.family_points"] = float(sum(tracer.payload[i][0] for i in fam))
    for metric, spans in QUERY_CHILD_LAYERS.items():
        m[metric] = float(sum(dur_ms[rows(s)].sum() for s in spans)) / nq

    dec = counts("idsstruct.decompose_query", 2)
    m["idsstruct.pieces_per_query"] = float(dec[:, 0].sum()) / nq
    m["idsstruct.singleton_only_frac"] = float(dec[:, 1].sum()) / nq

    pairs = sum(counts(s)[:, 0].sum() for s in QUERY_CHILD_LAYERS["dyadic.cover_ms"])
    m["dyadic.pairs_per_query"] = float(pairs) / nq

    pib = counts("gridindex.points_in_box")
    cib = counts("gridindex.candidates_in_box")
    m["gridindex.calls_per_query"] = len(pib) / nq
    m["gridindex.candidates_per_call"] = float(cib[:, 0].mean()) if len(cib) else 0.0
    m["gridindex.hit_ratio"] = float(pib[:, 0].sum() / cib[:, 0].sum()) if cib[:, 0].sum() else 0.0

    dom = counts("dominance.dominance_cover", 5)
    cand, targets, maxima, covered, used = dom.sum(axis=0)
    calls = max(len(dom), 1)
    m["dominance.calls_per_query"] = len(dom) / nq
    m["dominance.candidates_per_call"] = float(cand) / calls
    m["dominance.targets_per_call"] = float(targets) / calls
    m["dominance.maxima_per_call"] = float(maxima) / calls
    m["dominance.covered_ratio"] = float(covered / targets) if targets else 0.0
    m["dominance.used_ratio"] = float(used / maxima) if maxima else 0.0

    m["semigroup.singleton_calls_per_query"] = len(rows("semigroup.singleton_value")) / nq
    return m
