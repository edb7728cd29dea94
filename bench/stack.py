"""The program's stack as the benchmark builds and opens it.

Everything here goes through the repo's public entry points
(``DATASETS``, ``build_variant``, ``pack_tree``/``shard_pack``,
``open_index``, ``AsyncQueryService``); each step is timed so ``setup_s``
and the ``bulk.*`` layer metrics are the same clock reads.
"""

from __future__ import annotations

import gc
import os
import pathlib
import platform
import shutil
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.experiments.harness import build_variant
from repro.experiments.serving import DATASETS
from repro.geometry import kernels
from repro.geometry.rect import Rect
from repro.iomodel.codec import fanout_for_block
from repro.rtree.tree import RTree
from repro.service import AsyncQueryService
from repro.storage import open_index, pack_tree, shard_pack

from bench import ROOT
from bench.drive import PROBE_REF_S, probe
from bench.spec import (
    BLOCK_SIZE,
    DATASET,
    EXECUTOR_WORKERS,
    OUT_DIR,
    SHARDS,
    VARIANT,
    Scale,
    Workload,
)

FANOUT = fanout_for_block(BLOCK_SIZE, 2)


def require_numpy() -> None:
    if not kernels.HAVE_NUMPY:
        raise SystemExit(
            "bench needs the numpy kernel backend (repro.geometry.kernels "
            "fell back to pure Python); numbers from the fallback are not "
            "comparable"
        )


def run_header() -> str:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, timeout=10,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return (
        f"backend={kernels.BACKEND} numpy={kernels.np.__version__} "
        f"python={platform.python_version()} nproc={os.cpu_count()} "
        f"commit={commit}"
    )


@contextmanager
def scratch_dir() -> Iterator[pathlib.Path]:
    """A private directory under ``bench/out`` removed on exit, so a run
    leaves no index files behind."""
    path = OUT_DIR / f"tmp-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


class Stages:
    """Seconds per named set-up stage, as measured (``raw``) and divided
    by the machine speed probed just before and after the stage
    (``scaled``; see :func:`bench.drive.probe`)."""

    def __init__(self) -> None:
        self.raw: dict[str, float] = {}
        self.scaled: dict[str, float] = {}

    @contextmanager
    def stage(self, key: str) -> Iterator[None]:
        before = probe()
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            speed = (before + probe()) / 2.0 / PROBE_REF_S
            self.raw[key] = self.raw.get(key, 0.0) + elapsed
            self.scaled[key] = self.scaled.get(key, 0.0) + elapsed / speed


@dataclass
class Built:
    """The bulk-loaded in-memory tree and what was packed from it."""

    n: int
    tree: RTree
    bounds: Rect
    #: Centers of the data rectangles (query generators aim at data).
    centers: list[tuple[float, ...]]
    #: Base rectangle per object id, for the durability check.
    base_rects: list[Rect]
    timings: Stages = field(default_factory=Stages)
    single: pathlib.Path | None = None
    family: pathlib.Path | None = None


def build(seed: int, scale: Scale) -> Built:
    timings = Stages()
    with timings.stage("dataset_s"):
        data = DATASETS[DATASET](scale.n, seed)
    with timings.stage("build_s"):
        tree = build_variant(VARIANT, data, FANOUT)
    # Object ids are assigned in input order, so oid i holds data[i].
    return Built(
        n=scale.n,
        tree=tree,
        bounds=tree.root().mbr(),
        centers=[rect.center() for rect, _ in data],
        base_rects=[rect for rect, _ in data],
        timings=timings,
    )


def pack_single(built: Built, directory: pathlib.Path) -> None:
    built.single = directory / "index.pack"
    with built.timings.stage("pack_s"):
        pack_tree(built.tree, built.single, BLOCK_SIZE)


def pack_family(built: Built, directory: pathlib.Path) -> None:
    built.family = directory / "family" / "index.manifest"
    built.family.parent.mkdir()
    with built.timings.stage("shard_pack_s"):
        shard_pack(built.tree, built.family, shards=SHARDS, block_size=BLOCK_SIZE)


def copy_index(source: pathlib.Path, dest: pathlib.Path) -> pathlib.Path:
    """A fresh copy of a packed index in directory ``dest`` — the file,
    or a family's whole directory — for whoever is about to write to it
    (a just-packed tree has full leaves, so every replay of a write list
    must start from the same files)."""
    shutil.rmtree(dest, ignore_errors=True)
    if source.name.endswith(".manifest"):
        shutil.copytree(source.parent, dest)
    else:
        dest.mkdir()
        shutil.copyfile(source, dest / source.name)
    return dest / source.name


def index_bytes(path: pathlib.Path) -> int:
    """On-disk bytes of an index: the file, or a family's whole directory."""
    if path.name.endswith(".manifest"):
        return sum(p.stat().st_size for p in path.parent.iterdir())
    return path.stat().st_size


def open_tree(built: Built, path: pathlib.Path, cache_pages: int, **kwargs):
    """``open_index`` with values mapping object id -> id, so answers can
    be compared by id (a copy: inserts add to the mapping)."""
    return open_index(
        path, values=dict(built.tree.objects), cache_pages=cache_pages, **kwargs
    )


def open_for(workload: Workload, path: pathlib.Path, built: Built):
    """``open_index`` the way ``workload`` serves it."""
    return open_tree(
        built, path, workload.cache_pages, readonly=not workload.writes
    )


def new_service(tree, workload: Workload, **kwargs) -> AsyncQueryService:
    return AsyncQueryService(
        tree,
        executor_workers=EXECUTOR_WORKERS,
        sync_every_n=workload.sync_every_n,
        **kwargs,
    )


def page_stats(tree):
    """Summed ``PageCacheStats`` snapshot (over shards for a family)."""
    return tree.page_stats.snapshot()


def settle_gc() -> None:
    """Collect, then move every survivor out of the collector's sight:
    the harness's own 100k-rectangle tables otherwise trigger full
    collections that show up as the program's tail latency."""
    gc.collect()
    gc.freeze()
