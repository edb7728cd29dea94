"""Correctness oracle: every response is compared with the answer the
in-memory engines give over the same data.

Read-only workloads compare against a fixed expected answer.  On
``mixed_rw`` reads overlap the stream's own inserts and deletes, so the
expected answer is the fixed one over the base data plus exactly those
stream rectangles the client-side timeline says must be visible, and at
most those it says may be (a write is certain once acknowledged before
the read was submitted, possible once submitted before the read
completed).
"""

from __future__ import annotations

import itertools
import math
from typing import Any

import numpy as np

from repro.geometry import kernels
from repro.queries.knn import KNNEngine
from repro.queries.point import PointQueryEngine
from repro.rtree.query import QueryEngine
from repro.rtree.tree import RTree
from repro.server import DeleteRequest, InsertRequest, Request

#: Uncertain in-range stream rectangles above which a kNN answer is only
#: checked structurally (2^n candidate states otherwise).
_MAX_UNCERTAIN = 6


class Engines:
    """One warm engine per operator over one tree handle — the calls the
    server itself makes, and the boundary the layer pass names
    ``engines`` (in-memory tree), ``paged`` and ``shard``."""

    def __init__(self, window, point, knn) -> None:
        self.window, self.point, self.knn = window, point, knn

    @classmethod
    def over(cls, tree: RTree) -> "Engines":
        return cls(QueryEngine(tree), PointQueryEngine(tree), KNNEngine(tree))

    def answer(self, request: Request) -> tuple[Any, Any]:
        """``(value, stats)`` exactly as ``QueryServer`` dispatches it."""
        kind = request.kind
        if kind == "window":
            return self.window.query(request.window)
        if kind == "point":
            return self.point.point_query(request.point)
        if kind == "count":
            return self.point.count(request.window)
        if kind == "containment":
            return self.point.containment_query(request.window)
        if kind == "knn":
            return self.knn.knn(request.target, request.k)
        raise TypeError(f"not a read request: {request!r}")


def canon(request: Request, value: Any) -> Any:
    """Order-independent form of a read's payload."""
    kind = request.kind
    if kind == "count":
        return value
    if kind == "knn":
        return [(nb.distance, nb.value) for nb in value]
    return sorted(v for _, v in value)


def _knn_equal(expected: list, got: list) -> bool:
    """Same distances; same members strictly inside the k-th distance
    (equidistant rectangles at the cutoff may legitimately differ)."""
    if [d for d, _ in expected] != [d for d, _ in got]:
        return False
    if not got:
        return True
    cutoff = got[-1][0]
    return {v for d, v in expected if d < cutoff} == {
        v for d, v in got if d < cutoff
    }


def check_static(request: Request, expected: Any, value: Any) -> bool:
    """True when ``value`` answers ``request`` over unchanging data."""
    try:
        got = canon(request, value)
    except (TypeError, AttributeError, ValueError):
        return False
    if request.kind == "knn":
        return _knn_equal(expected, got)
    return got == expected


class WriteLedger:
    """Client-side timeline of the stream's own inserts and deletes.

    Times are ``time.perf_counter()`` stamps taken by the load generator
    around ``await service.submit``; +inf means "has not happened".
    """

    def __init__(self, requests: list[Request]) -> None:
        inserts = [r for r in requests if isinstance(r, InsertRequest)]
        self.slot = {r.value: i for i, r in enumerate(inserts)}
        self.values = [r.value for r in inserts]
        self.rects = [r.rect for r in inserts]
        m = len(inserts)
        dim = inserts[0].rect.dim if inserts else 0
        self.lo = np.array([r.rect.lo for r in inserts]).reshape(m, dim)
        self.hi = np.array([r.rect.hi for r in inserts]).reshape(m, dim)
        self.ins_sub = np.full(m, math.inf)
        self.ins_ack = np.full(m, math.inf)
        self.del_sub = np.full(m, math.inf)
        self.del_ack = np.full(m, math.inf)
        self.oid: list[int | None] = [None] * m

    def note(self, request: Request, t_sub: float, t_done: float, value) -> bool:
        """Record an acknowledged write; False when its reply is wrong."""
        i = self.slot[request.value]
        if isinstance(request, InsertRequest):
            self.ins_sub[i], self.ins_ack[i], self.oid[i] = t_sub, t_done, value
            return isinstance(value, int)
        self.del_sub[i], self.del_ack[i] = t_sub, t_done
        return value is True

    def note_submitted(self, request: Request, t_sub: float) -> None:
        """A write that failed may still have been applied."""
        i = self.slot[request.value]
        if isinstance(request, InsertRequest):
            self.ins_sub[i] = t_sub
        else:
            self.del_sub[i] = t_sub

    def visible(self, t_sub: float, t_done: float):
        """``(must, may)`` masks for a read in flight over [t_sub, t_done]."""
        must = (self.ins_ack < t_sub) & (self.del_sub > t_done)
        may = (self.ins_sub < t_done) & (self.del_ack > t_sub)
        return must, may

    def live(self) -> dict[int, Any]:
        """oid -> rect of stream rectangles that must survive a restart."""
        return {
            self.oid[i]: self.rects[i]
            for i in range(len(self.values))
            if self.oid[i] is not None and math.isinf(self.del_sub[i])
        }

    # -- predicates over the stream's rectangles -----------------------

    def matching(self, request: Request):
        """Mask of stream rectangles satisfying ``request``'s predicate
        (for kNN: their distances instead)."""
        kind = request.kind
        if kind in ("window", "count"):
            w = request.window
            return (self.lo <= w.hi).all(1) & (self.hi >= w.lo).all(1)
        if kind == "containment":
            w = request.window
            return (self.lo >= w.lo).all(1) & (self.hi <= w.hi).all(1)
        if kind == "point":
            p = request.point
            return (self.lo <= p).all(1) & (self.hi >= p).all(1)
        # The engine's own kernel, so distances are bit-identical.
        dist_sq = kernels.frame_dist_sq_to_point(
            self.lo, self.hi, kernels.as_coords(request.target)
        )
        return np.sqrt(np.asarray(dist_sq, dtype=np.float64))


def check_dynamic(
    request: Request,
    expected: Any,
    value: Any,
    ledger: WriteLedger,
    t_sub: float,
    t_done: float,
) -> bool:
    """True when ``value`` answers ``request`` over base ∪ S for some S
    between the must-visible and may-visible stream rectangles."""
    must, may = ledger.visible(t_sub, t_done)
    if not len(ledger.values):
        return check_static(request, expected, value)
    match = ledger.matching(request)
    kind = request.kind
    try:
        if kind == "count":
            low = expected + int((must & match).sum())
            high = expected + int((may & match).sum())
            return low <= value <= high
        if kind == "knn":
            return _check_dynamic_knn(expected, value, ledger, must, may, match)
        base = sorted(v for _, v in value if not isinstance(v, str))
        own = {v for _, v in value if isinstance(v, str)}
    except (TypeError, AttributeError, ValueError):
        return False
    need = {ledger.values[i] for i in np.flatnonzero(must & match)}
    allowed = {ledger.values[i] for i in np.flatnonzero(may & match)}
    return base == expected and need <= own <= allowed


def _check_dynamic_knn(expected, value, ledger, must, may, dist) -> bool:
    got = [(nb.distance, nb.value) for nb in value]
    if not expected:
        cutoff = math.inf
    else:
        cutoff = expected[-1][0]
    certain = [
        (float(dist[i]), ledger.values[i])
        for i in np.flatnonzero(must & (dist <= cutoff))
    ]
    unsure = [
        (float(dist[i]), ledger.values[i])
        for i in np.flatnonzero(may & ~must & (dist <= cutoff))
    ]
    k = len(expected)
    if len(unsure) > _MAX_UNCERTAIN:
        distances = [d for d, _ in got]
        return len(got) == k and distances == sorted(distances)
    for r in range(len(unsure) + 1):
        for extra in itertools.combinations(unsure, r):
            merged = sorted(
                expected + certain + list(extra), key=lambda item: item[0]
            )[:k]
            if _knn_equal(merged, got):
                return True
    return False


def expected_answers(
    engines: Engines, requests: list[Request]
) -> tuple[list[Any], list[Any]]:
    """Canonical expected answer and engine stats per request (None for
    writes), computed once from the in-memory engines."""
    answers: list[Any] = []
    stats: list[Any] = []
    for request in requests:
        if isinstance(request, (InsertRequest, DeleteRequest)):
            answers.append(None)
            stats.append(None)
            continue
        value, st = engines.answer(request)
        answers.append(canon(request, value))
        stats.append(st)
    return answers, stats
