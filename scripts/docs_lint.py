#!/usr/bin/env python
"""Docs/source consistency lint (CI's docs-lint job).

Three checks, two-way where that makes sense:

1. **Environment variables** -- every ``REPRO_*`` name read anywhere in
   ``src/`` or ``benchmarks/`` must be documented in
   ``docs/environment.md``, and every variable documented there must still
   exist in the code (no ghost documentation).

2. **Dead relative links** -- every relative markdown link in ``docs/*.md``
   and ``README.md`` must point at a file that exists (``#anchors`` are
   stripped; absolute URLs are ignored).

3. **Markdown files named in the source** -- every ``*.md`` path a comment
   or docstring under ``src/`` names (``docs/caching.md``) must resolve from
   the repository root.

Exit status 0 when clean; 1 with one line per violation otherwise.  No
dependencies beyond the standard library, so it runs anywhere CI does:

    python scripts/docs_lint.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ENV_DOC = REPO / "docs" / "environment.md"

#: where env-var reads live: the program and its perf harnesses
SOURCE_DIRS = ("src", "benchmarks")

ENV_RE = re.compile(r"REPRO_[A-Z]+(?:_[A-Z]+)*")

#: inline markdown links: [text](target) -- images share the syntax
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: a markdown file named in source text, with its directories
MD_PATH_RE = re.compile(r"[\w./-]*\w\.md\b")


def source_env_vars() -> dict:
    """``{var: first use site}`` across the scanned source trees."""
    found = {}
    for directory in SOURCE_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            for match in ENV_RE.finditer(path.read_text(errors="replace")):
                found.setdefault(match.group(), path.relative_to(REPO))
    return found


def documented_env_vars() -> set:
    if not ENV_DOC.exists():
        return set()
    return set(ENV_RE.findall(ENV_DOC.read_text()))


def check_env_vars() -> list:
    errors = []
    used = source_env_vars()
    documented = documented_env_vars()
    if not ENV_DOC.exists():
        return [f"missing {ENV_DOC.relative_to(REPO)}"]
    for var in sorted(set(used) - documented):
        errors.append(
            f"{var} (used in {used[var]}) is not documented in "
            f"{ENV_DOC.relative_to(REPO)}"
        )
    for var in sorted(documented - set(used)):
        errors.append(
            f"{var} is documented in {ENV_DOC.relative_to(REPO)} but no longer "
            f"read anywhere under {'/'.join(SOURCE_DIRS)}"
        )
    return errors


def markdown_files() -> list:
    files = [REPO / "README.md"]
    files += sorted((REPO / "docs").glob("*.md")) if (REPO / "docs").is_dir() else []
    return [path for path in files if path.exists()]


def check_links() -> list:
    errors = []
    for path in markdown_files():
        for match in LINK_RE.finditer(path.read_text()):
            target = match.group(1).split("#", 1)[0]
            if not target or "://" in target or target.startswith("mailto:"):
                continue
            resolved = (path.parent / target).resolve()
            if not resolved.exists():
                errors.append(
                    f"{path.relative_to(REPO)}: dead link -> {match.group(1)}"
                )
    return errors


def check_source_md_paths() -> list:
    errors = []
    for path in sorted((REPO / "src").rglob("*.py")):
        for number, line in enumerate(path.read_text(errors="replace").splitlines(), 1):
            for match in MD_PATH_RE.finditer(line):
                if not (REPO / match.group()).exists():
                    errors.append(
                        f"{path.relative_to(REPO)}:{number}: names {match.group()}, "
                        "which is not in the repository"
                    )
    return errors


def main() -> int:
    errors = check_env_vars() + check_links() + check_source_md_paths()
    for error in errors:
        print(f"docs-lint: {error}", file=sys.stderr)
    if errors:
        print(f"docs-lint: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print("docs-lint: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
