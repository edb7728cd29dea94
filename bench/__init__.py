"""The repo's benchmark of record (``BENCHMARK.json`` names this package).

One command — ``python3 -m bench run`` from the repo root — drives four
named workloads end to end through ``AsyncQueryService.submit`` and, with
``--trace 1``, replays each workload's request list at every public layer
boundary under benchmark-owned spans.  See ``bench/README.md``.

The program under test is imported from the checkout's own ``src/``; the
path is added here so the command needs no ``PYTHONPATH``.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SRC = ROOT / "src"
if not (_SRC / "repro").is_dir():
    raise ImportError(
        f"bench must run from a checkout of the repo: {_SRC / 'repro'} "
        "is missing"
    )
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
