"""Batched query serving over disk-backed trees.

The storage engine (:mod:`repro.storage`) makes an index file queryable
without holding the tree in memory; this package adds the serving layer
on top: a :class:`~repro.server.server.QueryServer` that fronts a
catalog of named trees and executes *batches* of mixed
window/point/containment/count/kNN/join/insert/delete requests — writes
first, then each unique read once in arrival order over shared warm
engines — and reports per-batch latency, logical I/O, and physical page
reads.
"""

from repro.server.requests import (
    DEFAULT_INDEX,
    ContainmentRequest,
    CountRequest,
    DeleteRequest,
    InsertRequest,
    JoinRequest,
    KNNRequest,
    PointRequest,
    Request,
    RequestResult,
    UpdateStats,
    WindowRequest,
)
from repro.server.server import BatchReport, QueryServer

__all__ = [
    "QueryServer",
    "BatchReport",
    "Request",
    "WindowRequest",
    "ContainmentRequest",
    "CountRequest",
    "PointRequest",
    "KNNRequest",
    "JoinRequest",
    "InsertRequest",
    "DeleteRequest",
    "UpdateStats",
    "RequestResult",
    "DEFAULT_INDEX",
]
