"""Source size: lines of ``src/repro`` per package, gated like speed.

The least code for the same behaviour is a design goal of this
repository, so the size of the tree is recorded next to its timings.
Each subpackage of ``repro`` (``src/repro/<package>/**/*.py``) gets its
physical line count; the modules directly under ``src/repro``
(``cli.py`` and the package entry points) are counted as
``top_level``; ``src_lines_total`` is the sum of both, the same figure
``find src -name '*.py' | xargs wc -l`` prints.

Everything lands in ``BENCH_size.json``.  ``tools/bench_gate.py`` lets
``src_lines_total`` grow by at most 10% against the committed baseline
and requires every package count to be present, so a deleted subsystem
cannot silently grow back.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import render_mapping

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE = REPO_ROOT / "src" / "repro"
OUTPUT = REPO_ROOT / "BENCH_size.json"


def _lines(paths) -> int:
    return sum(
        len(path.read_bytes().splitlines()) for path in sorted(paths)
    )


def bench_size():
    packages = {
        package.name: _lines(package.rglob("*.py"))
        for package in sorted(SOURCE.iterdir())
        if (package / "__init__.py").exists()
    }
    top_level = _lines(SOURCE.glob("*.py"))
    report = {
        "packages": packages,
        "top_level": top_level,
        "src_lines_total": sum(packages.values()) + top_level,
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print()
    print(render_mapping("source lines:", report))
    print(f"wrote {OUTPUT}")

    assert packages, "no packages found under src/repro"
    assert all(count > 0 for count in packages.values())
