#!/usr/bin/env python3
"""Documentation checks: links, runnable snippets, CLI flags, file paths.

Six checks over ``README.md`` and ``docs/*.md`` (stdlib plus the
checkout's own ``src/``, used both by the CI docs job and by
``tests/unit/test_docs.py``):

* **Links** — every intra-repo Markdown link (``[text](relative/path)``)
  must resolve to an existing file or directory, after stripping any
  ``#anchor``.  External (``http(s)://``, ``mailto:``) and pure-anchor
  links are skipped.
* **Snippets** — every fenced code block tagged ``python run`` is
  executed in a subprocess with ``PYTHONPATH=src`` from a temporary
  working directory; a non-zero exit fails the check.  Tag a block
  plain ``python`` to keep it illustrative-only.
* **CLI** — every ``python -m repro <word>`` invocation, and every
  command that starts with ``repro <word>``, must name a subcommand of
  ``repro.experiments.cli.build_parser()``, and every ``--flag``
  written after a ``repro`` subcommand must be accepted by it.  Checked
  on every line of a fenced block (a leading ``$`` prompt is skipped)
  and on every inline code span; a span that starts with a subcommand
  name has its flags checked too.  ``import repro`` and ``from repro
  import`` are Python, not invocations.  A deleted subcommand or flag
  therefore cannot live on in the docs.
* **CLI table** — the README's flag table (``| subcommand | flag |
  ...``) has exactly one row per flag of every subcommand, and one
  ``—`` row for a subcommand with none, so a new flag cannot ship
  undocumented either.
* **Paths** — every ``*.py`` path written in code (a fenced block or an
  inline span) must name an existing file, relative to the repository
  root, ``src/`` or ``src/repro/``; a bare file name (``rect.py``) must
  name a module somewhere under ``src/repro/``.  A deleted module
  therefore cannot live on in the docs either.
* **Roadmap references** — no ``ROADMAP item <N>``: the roadmap is
  renumbered at every re-anchor, so a number goes stale while the page
  citing it does not.  Name an item by its title instead.

Run from the repository root::

    python tools/check_docs.py            # all six checks
    python tools/check_docs.py --links    # links only (fast)
"""

from __future__ import annotations

import argparse
import os
import pathlib
import re
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Markdown inline links: [text](target).  Images ![alt](target) match
#: too via the optional bang.  Targets with spaces are not used here.
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
#: Fenced blocks whose info string marks them runnable.
_RUNNABLE = re.compile(r"```python run\n(.*?)```", re.DOTALL)
#: Schemes that are not intra-repo files.
_EXTERNAL = ("http://", "https://", "mailto:")
#: Any fenced block, and inline code spans outside of them (a span may
#: wrap onto the next line, as Markdown allows).
_FENCE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)
_SPAN = re.compile(r"`([^`]+)`")
#: Shell tokens that end the command a flag could belong to (a comment,
#: any token starting with "#", ends it too).
_SHELL_STOP = {"|", "||", "&&", ";", ">", ">>"}
#: The README's CLI reference table and its rows.
_CLI_TABLE = "| subcommand | flag |"
_CLI_ROW = re.compile(r"^\| `([\w-]+)` \| (?:`(--[\w-]+)`|—) \|", re.MULTILINE)
#: A ``*.py`` path in code; a ``:line`` or ``::name`` suffix ends it.
_PY_PATH = re.compile(r"[\w./-]+\.py\b")
#: Directories a documented path may be written relative to.
_PY_ROOTS = ("", "src", "src/repro")
#: A roadmap item cited by number ("ROADMAP item 5c", "roadmap items 3").
_ROADMAP_NUMBER = re.compile(r"\bROADMAP\s+items?\s+\d", re.IGNORECASE)


def markdown_files(root: pathlib.Path = REPO_ROOT) -> list[pathlib.Path]:
    """The documentation set under check: README plus the docs tree."""
    files = [root / "README.md"]
    files.extend(sorted((root / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def check_links(root: pathlib.Path = REPO_ROOT) -> list[str]:
    """Return one error string per broken intra-repo link."""
    errors = []
    for path in markdown_files(root):
        for match in _LINK.finditer(path.read_text()):
            target = match.group(1)
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                errors.append(
                    f"{path.relative_to(root)}: broken link -> {target}"
                )
    return errors


def runnable_snippets(
    root: pathlib.Path = REPO_ROOT,
) -> list[tuple[pathlib.Path, int, str]]:
    """Every ``python run`` block as (file, index, source)."""
    snippets = []
    for path in markdown_files(root):
        for i, match in enumerate(_RUNNABLE.finditer(path.read_text())):
            snippets.append((path, i, match.group(1)))
    return snippets


def check_snippets(root: pathlib.Path = REPO_ROOT) -> list[str]:
    """Execute every runnable snippet; return one error per failure."""
    errors = []
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    with tempfile.TemporaryDirectory(prefix="repro-docs-") as tmp:
        for path, index, source in runnable_snippets(root):
            proc = subprocess.run(
                [sys.executable, "-c", source],
                cwd=tmp,
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            if proc.returncode != 0:
                errors.append(
                    f"{path.relative_to(root)} snippet #{index}: "
                    f"exit {proc.returncode}\n{proc.stderr.strip()}"
                )
    return errors


def subcommand_flags() -> dict[str, set[str]]:
    """Subcommand name -> the option strings it accepts."""
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.experiments.cli import build_parser

    parser = build_parser()
    (sub,) = (
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: {
            option
            for action in subparser._actions
            for option in action.option_strings
        }
        for name, subparser in sub.choices.items()
    }


def _commands(text: str) -> list[tuple[str, bool]]:
    """(command line, is inline span) for every candidate in ``text``."""
    lines = [
        (line, False)
        for block in _FENCE.findall(text)
        for line in block.replace("\\\n", " ").splitlines()
    ]
    spans = _SPAN.findall(_FENCE.sub("", text))
    return lines + [(span, True) for span in spans]


def _subcommand_at(tokens: list[str], flags: dict[str, set[str]]):
    """``(index of the subcommand token, must exist)`` or None.

    ``python -m repro <word>`` and a command starting ``repro <word>``
    are invocations whatever ``<word>`` is; elsewhere in a line only
    ``repro`` followed by a known subcommand counts (prose may say
    "repro" for other reasons).
    """
    for i, token in enumerate(tokens[:-1]):
        if token != "repro" or tokens[i + 1].startswith("-"):
            continue
        if i == 0 or tokens[i - 1] == "-m":
            return i + 1, True
        if tokens[i + 1] in flags:
            return i + 1, False
    return None


def cli_flag_errors(text: str, flags: dict[str, set[str]]) -> list[str]:
    """One error per documented ``repro`` invocation the parser rejects:
    an unknown subcommand, or a ``--flag`` its subcommand lacks."""
    errors = []
    for command, inline in _commands(text):
        tokens = command.split()
        if tokens[:1] == ["$"]:
            tokens = tokens[1:]
        found = _subcommand_at(tokens, flags)
        if found is not None:
            at = found[0]
        elif inline and tokens and tokens[0] in flags:
            at = 0
        else:
            continue
        name = tokens[at]
        if name not in flags:
            errors.append(f"no subcommand `{name}`: {' '.join(tokens)}")
            continue
        for token in tokens[at + 1 :]:
            if token in _SHELL_STOP or token.startswith("#"):
                break
            flag = token.split("=", 1)[0]
            if flag.startswith("--") and flag not in flags[name]:
                errors.append(f"`{name}` has no {flag}: {' '.join(tokens)}")
    return errors


def check_cli_flags(root: pathlib.Path = REPO_ROOT) -> list[str]:
    """Return one error per documented invocation the parser rejects."""
    flags = subcommand_flags()
    return [
        f"{path.relative_to(root)}: {error}"
        for path in markdown_files(root)
        for error in cli_flag_errors(path.read_text(), flags)
    ]


def cli_table_errors(text: str, flags: dict[str, set[str]]) -> list[str]:
    """One error per difference between the CLI table in ``text`` and
    ``flags``: a row the parser lacks, or a flag with no row."""
    start = text.find(_CLI_TABLE)
    if start < 0:
        return ["no CLI table"]
    table = text[start : text.find("\n\n", start)]
    documented = {(name, flag or None) for name, flag in _CLI_ROW.findall(table)}
    expected = set()
    for name, options in flags.items():
        long_flags = {o for o in options if o.startswith("--")} - {"--help"}
        expected |= {(name, flag) for flag in long_flags} or {(name, None)}
    return [
        f"CLI table row `{name}` {flag or '—'} is not in the parser"
        for name, flag in sorted(documented - expected, key=str)
    ] + [
        f"`{name}` {flag or '—'} has no CLI table row"
        for name, flag in sorted(expected - documented, key=str)
    ]


def check_cli_table(root: pathlib.Path = REPO_ROOT) -> list[str]:
    """Return one error per difference between README's CLI table and
    ``build_parser()``."""
    readme = root / "README.md"
    return [
        f"README.md: {error}"
        for error in cli_table_errors(readme.read_text(), subcommand_flags())
    ]


def _py_path_exists(token: str, root: pathlib.Path) -> bool:
    if any((root / base / token).is_file() for base in _PY_ROOTS):
        return True
    return "/" not in token and any((root / "src" / "repro").rglob(token))


def check_py_paths(root: pathlib.Path = REPO_ROOT) -> list[str]:
    """Return one error per documented ``*.py`` path with no file."""
    return [
        f"{path.relative_to(root)}: no file `{token}`"
        for path in markdown_files(root)
        for command, _ in _commands(path.read_text())
        for token in _PY_PATH.findall(command)
        if not _py_path_exists(token, root)
    ]


def roadmap_number_errors(text: str) -> list[str]:
    """One error per roadmap item ``text`` cites by number."""
    return [
        f"cites a roadmap item by number: {' '.join(match.group(0).split())}"
        for match in _ROADMAP_NUMBER.finditer(text)
    ]


def check_roadmap_refs(root: pathlib.Path = REPO_ROOT) -> list[str]:
    """Return one error per roadmap item the docs cite by number."""
    return [
        f"{path.relative_to(root)}: {error}"
        for path in markdown_files(root)
        for error in roadmap_number_errors(path.read_text())
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--links", action="store_true", help="check links only"
    )
    args = parser.parse_args(argv)

    files = markdown_files()
    errors = check_links()
    snippets = 0
    if not args.links:
        errors += check_cli_flags()
        errors += check_cli_table()
        errors += check_py_paths()
        errors += check_roadmap_refs()
        snippets = len(runnable_snippets())
        errors += check_snippets()

    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    print(
        f"checked {len(files)} markdown files, "
        f"{snippets} runnable snippets: "
        + ("OK" if not errors else f"{len(errors)} error(s)")
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
