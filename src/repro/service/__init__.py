"""The asyncio serving layer.

Puts an async front end — request queueing, batch coalescing,
admission control, streaming latency percentiles — in front of the
batched :class:`~repro.server.QueryServer` stack.  See
``docs/async-serving.md`` for the model and
:mod:`repro.service.service` for the mechanics.
"""

from repro.service.service import (
    AdmissionError,
    AsyncQueryService,
    ServiceClosed,
    ServiceResponse,
)
from repro.service.stats import KindSummary, LatencyHistogram, ServiceStats

__all__ = [
    "AdmissionError",
    "AsyncQueryService",
    "KindSummary",
    "LatencyHistogram",
    "ServiceClosed",
    "ServiceResponse",
    "ServiceStats",
]
