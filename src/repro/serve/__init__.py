"""``repro.serve``: the long-lived yield-analysis service.

Turns the Monte-Carlo yield API (:func:`repro.core.montecarlo.measure_yield`
and friends) into an HTTP/JSON service with a structural-hash result cache:
identical designs — whatever name or client they arrive from — are measured
once and served from cache afterwards, and concurrent identical requests
coalesce onto a single computation. Start it with::

    python -m repro serve --port 8080 --workers 4 --cache-size 4096

and drive it with plain JSON::

    curl -s localhost:8080/yield -d '{"design": "Min-Max", "sigma": 1.0}'

See docs/serving.md for the API reference and cache-key semantics, and
``tools/loadtest.py`` for a closed-loop load generator against a running
instance.
"""

from ..cache import MISSING, LRUCache, hit_rate
from .http import YieldHTTPServer, run_server, serving
from .service import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_COMPILED_CACHE_SIZE,
    SERVE_VERSION,
    BadRequest,
    RequestError,
    ResolvedDesign,
    UnknownDesign,
    YieldService,
)

__all__ = [
    "BadRequest",
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_COMPILED_CACHE_SIZE",
    "LRUCache",
    "MISSING",
    "RequestError",
    "ResolvedDesign",
    "SERVE_VERSION",
    "UnknownDesign",
    "YieldHTTPServer",
    "YieldService",
    "hit_rate",
    "run_server",
    "serving",
]
