"""Doc tables quote the committed BENCH files instead of restating them.

A measured-economics row in ``docs/*.md`` names its source as
```BENCH_<name>.json:<dotted.key>``` followed by the quoted value::

    | median speedup, warm | `BENCH_solver.json:median_speedup_warm` | 70.26 |

Every such row must match the committed file exactly, so a
re-baselined benchmark that moves a number fails here until the doc is
updated with it.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``| ... | `BENCH_x.json:key.path` | value |``
ROW = re.compile(r"\|\s*`(BENCH_\w+\.json):([\w.]+)`\s*\|\s*([^|]+?)\s*\|")

#: Docs whose economics tables must be keyed to a BENCH file.
KEYED_DOCS = (
    "solver.md",
    "certificates.md",
    "engine.md",
    "sweep.md",
    "service.md",
    "observability.md",
    "simulator.md",
)


def _rows():
    rows = []
    for doc in sorted((REPO_ROOT / "docs").glob("*.md")):
        for match in ROW.finditer(doc.read_text(encoding="utf-8")):
            rows.append((doc.name, *match.groups()))
    return rows


def _lookup(data, path):
    for part in path.split("."):
        data = data[part]
    return data


@pytest.mark.parametrize("doc", KEYED_DOCS)
def test_economics_tables_name_their_bench_keys(doc):
    assert any(row[0] == doc for row in _rows()), (
        f"docs/{doc} has no table row quoting a BENCH_*.json key"
    )


def test_quoted_doc_numbers_match_the_bench_files():
    drift = []
    for doc, bench, key, quoted in _rows():
        recorded = _lookup(
            json.loads((REPO_ROOT / bench).read_text(encoding="utf-8")), key
        )
        if quoted != json.dumps(recorded):
            drift.append(f"docs/{doc}: {bench}:{key} is {recorded!r}, doc says {quoted}")
    assert not drift, "\n".join(drift)
