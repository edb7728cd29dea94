"""Documentation integrity: links resolve, runnable snippets execute,
documented CLI subcommands and flags exist, documented files exist.

Drives ``tools/check_docs.py`` — the same checks the CI docs job runs —
so a broken intra-repo link, a docs example that stopped working, a
subcommand or flag the CLI no longer accepts, or a deleted module still
named in the docs fails the tier-1 suite locally too.
"""

import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


def test_docs_tree_exists():
    expected = {
        "architecture.md",
        "storage-format.md",
        "query-engine.md",
        "server.md",
        "benchmarks.md",
        "io-accounting.md",
    }
    present = {p.name for p in (REPO_ROOT / "docs").glob("*.md")}
    assert expected <= present, expected - present


def test_readme_links_every_docs_page():
    readme = (REPO_ROOT / "README.md").read_text()
    for page in sorted((REPO_ROOT / "docs").glob("*.md")):
        assert f"docs/{page.name}" in readme, (
            f"README does not link docs/{page.name}"
        )


def test_intra_repo_links_resolve():
    assert check_docs.check_links() == []


def test_docs_have_runnable_snippets():
    snippets = check_docs.runnable_snippets()
    assert len(snippets) >= 4
    # Every snippet is tagged in a docs page or the README.
    assert all(path.suffix == ".md" for path, _, _ in snippets)


@pytest.mark.parametrize(
    "snippet",
    check_docs.runnable_snippets(),
    ids=lambda s: f"{s[0].name}#{s[1]}",
)
def test_runnable_snippet_executes(snippet, tmp_path):
    path, index, source = snippet
    import os

    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    proc = subprocess.run(
        [sys.executable, "-c", source],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, (
        f"{path.name} snippet #{index} failed:\n{proc.stderr}"
    )


def test_documented_cli_flags_exist():
    assert check_docs.check_cli_flags() == []


def test_cli_flag_check_catches_a_deleted_flag(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "Run `repro pack x.pack --n 10` or `status x.pack --explain`.\n"
        "```console\n"
        "$ python -m repro status x.pack \\\n"
        "    --trace t.jsonl | tail  # --not-a-flag\n"
        "```\n"
    )
    assert check_docs.check_cli_flags(tmp_path) == []
    (tmp_path / "docs" / "status.md").write_text(
        "Score only: `status\n--score-only`.\n"
        "```console\n"
        "$ python -m repro status x.pack \\\n"
        "    --score-only\n"
        "```\n"
    )
    errors = check_docs.check_cli_flags(tmp_path)
    assert len(errors) == 2
    assert all(
        error.startswith("docs/status.md: ") and "--score-only" in error
        for error in errors
    )


def test_cli_check_catches_an_unknown_subcommand(tmp_path):
    (tmp_path / "README.md").write_text(
        "```python\n"
        "import repro\n"
        "from repro import build_prtree\n"
        "```\n"
        "The `repro` package; `repro --help` lists the subcommands.\n"
    )
    assert check_docs.check_cli_flags(tmp_path) == []
    (tmp_path / "README.md").write_text(
        "```console\n"
        "$ python -m repro serve-async --rates 1\n"
        "repro bogus-view x.pack\n"
        "```\n"
        "Or inline: `repro trace out.jsonl`.\n"
    )
    errors = check_docs.check_cli_flags(tmp_path)
    assert [error.split(":", 2)[1].strip() for error in errors] == [
        "no subcommand `serve-async`",
        "no subcommand `bogus-view`",
        "no subcommand `trace`",
    ]


def test_cli_check_accepts_every_live_subcommand(tmp_path):
    flags = check_docs.subcommand_flags()
    assert sorted(flags) == ["crash-bench", "list", "pack", "run", "status"]
    lines = []
    for name, options in sorted(flags.items()):
        long_flags = sorted(o for o in options if o.startswith("--"))
        lines.append(f"$ python -m repro {name} {' '.join(long_flags)}")
        lines.append(f"repro {name} x")
    (tmp_path / "README.md").write_text(
        "```console\n" + "\n".join(lines) + "\n```\n"
        "Inline too: `repro status x.pack --explain`.\n"
    )
    assert check_docs.check_cli_flags(tmp_path) == []


def test_documented_py_paths_exist():
    assert check_docs.check_py_paths() == []


def test_py_path_check_catches_a_deleted_module(tmp_path):
    module = tmp_path / "src" / "repro" / "rtree" / "tree.py"
    module.parent.mkdir(parents=True)
    module.write_text("")
    (tmp_path / "README.md").write_text(
        "See `rtree/tree.py:12`, `tree.py` and "
        "`src/repro/rtree/tree.py::RTree`.\n"
    )
    assert check_docs.check_py_paths(tmp_path) == []
    (tmp_path / "README.md").write_text(
        "Images come from `rtree/persist.py`.\n"
        "```console\n$ python tools/gone.py --quick\n```\n"
    )
    assert check_docs.check_py_paths(tmp_path) == [
        "README.md: no file `tools/gone.py`",
        "README.md: no file `rtree/persist.py`",
    ]


def test_checker_cli_passes():
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_docs.py"),
         "--links"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert "OK" in proc.stdout
