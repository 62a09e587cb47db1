"""File formats and report emission.

``build`` writes poset files, line-oriented text (diff-able golden
files); macposet reads none back::

    macposet 1
    name box(2,2)
    elements 4
    ranks 0 1 1 2
    covers 4
    0 1
    0 2
    1 3
    2 3
    labels 2 x y
    0 0
    1 0
    0 1
    1 1
    provenance wedge 2
    0:0 1:0
    0:1

Reports are a single JSON document with deterministic byte layout:
sorted keys, fixed separators, integers only, one trailing newline.
The ``timings`` block holds work counters (subsets enumerated, search
nodes), not wall-clock times, so reports are byte-identical across
runs.
"""

from __future__ import annotations

import json

from . import __version__
from .construct import OperationResult
from .core import RankedPoset


class FormatError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def poset_to_text(p: RankedPoset, result: OperationResult | None = None) -> str:
    out = ["macposet 1"]
    if p.name:
        out.append(f"name {p.name}")
    out.append(f"elements {p.n}")
    out.append("ranks " + " ".join(str(r) for r in p.rank))
    covers = [(a, b) for a in range(p.n) for b in p.up[a]]
    out.append(f"covers {len(covers)}")
    out.extend(f"{a} {b}" for a, b in covers)
    if p.labels is not None:
        out.append(f"labels {len(p.var_names)} " + " ".join(p.var_names))
        out.extend(" ".join(str(e) for e in lab) for lab in p.labels)
    if result is not None:
        out.append(f"provenance {result.operation} {p.n}")
        for rec in result.provenance.sources:
            out.append(" ".join(f"{f}:{s}" for f, s in rec))
    return "\n".join(out) + "\n"


def order_lists_from_text(text: str):
    lines = [l.strip() for l in text.splitlines() if l.strip()]
    if not lines or lines[0] != "macorder 1":
        raise FormatError("expected header 'macorder 1'", 1)
    lists = []
    for k, line in enumerate(lines[1:], start=2):
        if not line.startswith("level "):
            raise FormatError("expected 'level d: ids'", k)
        head, _, rest = line.partition(":")
        d = int(head.split()[1])
        if d != len(lists):
            raise FormatError(f"levels out of order at level {d}", k)
        lists.append([int(t) for t in rest.split()])
    return lists


def fibermap_from_text(text: str):
    lines = [l.strip() for l in text.splitlines()
             if l.strip() and not l.strip().startswith("#")]
    if not lines or lines[0] != "macposet-fibermap 1":
        raise FormatError("expected header 'macposet-fibermap 1'", 1)
    if len(lines) < 2:
        raise FormatError("expected the count of base elements after the header", 2)
    count = int(lines[1])
    triples = []
    for k, line in enumerate(lines[2:2 + count], start=3):
        c, a, b = (int(t) for t in line.split())
        triples.append((c, a, b))
    if len(triples) != count or [c for c, _, _ in triples] != list(range(count)):
        raise FormatError("fiber map must list base ids 0..k-1 in order", 2)
    return triples


def build_report(command: str, input_text: str, verdict=None, witness=None,
                 grid=None, timings=None) -> dict:
    return {
        "command": command,
        "input": input_text,
        "verdict": verdict,
        "witness": witness,
        "grid": grid,
        "timings": timings or {},
        "version": __version__,
    }


def report_to_bytes(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n").encode()


def write_report(report: dict, path: str):
    with open(path, "wb") as fh:
        fh.write(report_to_bytes(report))
