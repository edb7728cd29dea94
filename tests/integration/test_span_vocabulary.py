"""The span table in ``docs/observability.md`` is the span vocabulary.

Three traced runs between them emit every span the stack has: a
``QueryServer`` batch with writes on a single file, an
``AsyncQueryService`` run with a write on a K=4 family, and a
``PagedTree.open`` under an active trace.  Their exported events, read
back through ``TraceWriter`` and ``load_trace_events``, must name
exactly the table's rows — a span the code emits but the table lacks
fails, and so does a row no run emits.
"""

import asyncio
import pathlib
import re

import pytest

from repro import BlockStore, Rect, build_prtree
from repro.experiments.serving import mixed_requests, pack_index
from repro.obs import Tracer, TraceWriter, activate_trace, load_trace_events
from repro.server import InsertRequest, QueryServer, WindowRequest
from repro.service import AsyncQueryService
from repro.storage import PagedTree, open_index, pack_tree

DOC = pathlib.Path(__file__).resolve().parents[2] / "docs" / "observability.md"
_ROW = re.compile(r"^\| `([^`]+)` \| (\w+) \|", re.MULTILINE)


def table_rows(text: str) -> set[tuple[str, str]]:
    """``(span, cat)`` for every row of the page's span table."""
    start = text.index("| span | cat | covers |")
    table = text[start : text.index("\n\n", start)]
    return set(_ROW.findall(table))


def normalise(name: str) -> str:
    """``shard:3`` -> ``shard:<i>``; ``engine:window`` -> ``engine:<kind>``."""
    prefix, sep, suffix = name.partition(":")
    if not sep:
        return name
    return f"{prefix}:{'<i>' if suffix.isdigit() else '<kind>'}"


def emitted_spans(path: pathlib.Path) -> set[tuple[str, str]]:
    return {
        (normalise(event["name"]), event["cat"])
        for event in load_trace_events(path)
        if event.get("ph") == "X"
    }


def traced_server_batch(tmp: pathlib.Path) -> set[tuple[str, str]]:
    data = [(Rect((i, 0.0), (i + 1.0, 1.0)), i) for i in range(400)]
    pack_tree(build_prtree(BlockStore(), data, fanout=16), tmp / "one.pack")
    out = tmp / "server.jsonl"
    with PagedTree.open(tmp / "one.pack", cache_pages=8) as paged:
        with TraceWriter(out) as writer:
            tracer = Tracer(writer, sample_rate=1.0)
            batch = [
                InsertRequest(Rect((5.0, 0.0), (6.0, 1.0)), "new"),
                WindowRequest(Rect((0.0, 0.0), (40.0, 1.0))),
            ]
            traces = [tracer.begin(r.kind, r.kind) for r in batch]
            QueryServer(paged).submit(batch, traces=traces)
            for trace in traces:
                tracer.finish(trace)
    return emitted_spans(out)


def traced_family_service(tmp: pathlib.Path) -> set[tuple[str, str]]:
    index = tmp / "k4.manifest"
    pack_index(index, n=2000, shards=4, seed=0)
    out = tmp / "service.jsonl"

    async def drive(tree, tracer):
        bounds = tree.root().mbr()
        requests = mixed_requests(bounds, count=40, seed=3)
        requests.append(InsertRequest(Rect(bounds.lo, bounds.lo), "new"))
        async with AsyncQueryService(tree, tracer=tracer) as service:
            await service.submit_many(requests)

    with open_index(index, cache_pages=16) as tree:
        with TraceWriter(out) as writer:
            asyncio.run(drive(tree, Tracer(writer, sample_rate=1.0)))
    return emitted_spans(out)


def traced_open(tmp: pathlib.Path) -> set[tuple[str, str]]:
    data = [(Rect((i, 0.0), (i + 1.0, 1.0)), i) for i in range(50)]
    pack_tree(build_prtree(BlockStore(), data, fanout=8), tmp / "o.pack")
    out = tmp / "open.jsonl"
    with TraceWriter(out) as writer:
        tracer = Tracer(writer, sample_rate=1.0)
        trace = tracer.begin("open", "open")
        with activate_trace(trace):
            PagedTree.open(tmp / "o.pack").close()
        tracer.finish(trace)
    return emitted_spans(out)


@pytest.fixture(scope="module")
def emitted(tmp_path_factory) -> set[tuple[str, str]]:
    tmp = tmp_path_factory.mktemp("spans")
    return traced_server_batch(tmp) | traced_family_service(tmp) | traced_open(
        tmp
    )


def vocabulary_errors(text: str, emitted: set[tuple[str, str]]) -> list[str]:
    documented = table_rows(text)
    return [
        f"emitted but not in the table: {row}"
        for row in sorted(emitted - documented)
    ] + [
        f"in the table but never emitted: {row}"
        for row in sorted(documented - emitted)
    ]


def test_span_table_equals_emitted_spans(emitted):
    assert vocabulary_errors(DOC.read_text(), emitted) == []


@pytest.mark.parametrize("row", ["`recovery`", "`shard:<i>`", "`request:<kind>`"])
def test_a_missing_row_is_caught(emitted, row):
    lines = DOC.read_text().splitlines(keepends=True)
    dropped = "".join(line for line in lines if not line.startswith(f"| {row} |"))
    assert len(dropped) < len("".join(lines))
    assert vocabulary_errors(dropped, emitted)
