#!/usr/bin/env python3
"""Line counts of the package, split into code, docstring, comment and
blank lines, per module of ``src/avgrec`` and in total.

    python3 scripts/loc.py [--against REV]

A line is a docstring line where it lies in the first statement of a
module, class or function body that is a string literal (found with
``ast``), blank lines inside it included; otherwise blank where it holds
only white space; a comment line where its one token is a comment (found
with ``tokenize``, so a ``#`` inside a string is not one); and a code line
otherwise, a line with code and a trailing comment included.  With
--against, the split of the git revision REV follows, its committed files
extracted with ``git archive`` (local git only, as ``scripts/census.py``
does) into a temporary directory that is removed afterwards, and then the
change of each total from REV to this tree.  A revision that cannot be
extracted ends the script with exit 2.
"""
from __future__ import annotations

import argparse
import ast
import io
import sys
import tempfile
import tokenize
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from census import ROOT, extract  # noqa: E402

KINDS = ("code", "docstring", "comment", "blank")
PACKAGE = Path("src") / "avgrec"


def split(source: str) -> dict:
    """The number of lines of each kind of ``KINDS`` in a module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    comments, code = set(), set()
    layout = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in layout:
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        if number in docstrings:
            kind = "docstring"
        elif not line.strip():
            kind = "blank"
        elif number in comments and number not in code:
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def package_split(tree: Path) -> dict:
    """The split of each module of the package under ``tree``, by file
    name, and of all of them under ``total``."""
    modules = {path.name: split(path.read_text()) for path in sorted((tree / PACKAGE).glob("*.py"))}
    modules["total"] = {kind: sum(c[kind] for c in modules.values()) for kind in KINDS}
    return modules


def table(title: str, modules: dict) -> list[str]:
    """The split as text lines: a title, a header, one line per module."""
    lines = [title, f"  {'module':<16}{'lines':>7}" + "".join(f"{kind:>11}" for kind in KINDS)]
    for name, counts in modules.items():
        cells = "".join(f"{counts[kind]:>11,}" for kind in KINDS)
        lines.append(f"  {name:<16}{sum(counts.values()):>7,}{cells}")
    return lines


def change(old: dict, new: dict) -> str:
    """The change of each total from ``old`` to ``new``, signed."""
    parts = [("lines", sum(new.values()) - sum(old.values()))]
    parts += [(kind, new[kind] - old[kind]) for kind in KINDS]
    return "change: " + ", ".join(f"{name} {delta:+,}" for name, delta in parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="also count this git revision")
    args = parser.parse_args(argv)
    current = package_split(ROOT)
    lines = table("this tree", current)
    if args.against:
        with tempfile.TemporaryDirectory() as folder:
            extract(args.against, Path(folder))
            against = package_split(Path(folder))
        lines += table(args.against, against)
        lines.append(change(against["total"], current["total"]))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
