"""File formats and report emission.

``build`` writes poset files, line-oriented text (diff-able golden
files); macposet reads none back.  ``build "wedge(path(1), path(1))"``
writes::

    macposet 1
    name wedge(path(1),path(1))
    elements 3
    ranks 0 1 1
    covers 2
    0 1
    0 2
    provenance wedge 3
    0:0 1:0
    0:1
    1:1

A ``covers`` line is ``i j``: j covers i.  An operation's result ends
with ``provenance <op> <elements>`` and one record per element, the
``factor:element`` pairs it came from.  A poset with monomial labels
(``box``, ``poset(ideal(...))``) has ``labels <k> <variables>`` before
that, then one row of k exponents per element.

Reports are a single JSON document with deterministic byte layout:
sorted keys, fixed separators, integers only, one trailing newline.
The ``timings`` block holds work counters (subsets enumerated, search
nodes), not wall-clock times, so reports are byte-identical across
runs.
"""

from __future__ import annotations

import json

from . import __version__
from .core import RankedPoset


class FormatError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def poset_to_text(p: RankedPoset) -> str:
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
    if p.provenance is not None:
        out.append(f"provenance {p.provenance.operation} {p.n}")
        for rec in p.provenance.sources:
            out.append(" ".join(f"{f}:{s}" for f, s in rec))
    return "\n".join(out) + "\n"


def _body_lines(text: str, header: str, comment: str | None = None) -> list:
    """(line number, stripped text) of the lines after ``header``, which
    must come first, skipping blank lines and ``comment`` lines."""
    lines = [(k, l.strip()) for k, l in enumerate(text.splitlines(), start=1)
             if l.strip() and not (comment and l.strip().startswith(comment))]
    if not lines or lines[0][1] != header:
        raise FormatError(f"expected header {header!r}", lines[0][0] if lines else 1)
    return lines[1:]


def _ints(fields, what: str, line: int) -> list:
    try:
        return [int(t) for t in fields]
    except ValueError:
        raise FormatError(f"expected integer {what}, got {' '.join(fields)!r}",
                          line) from None


def order_lists_from_text(text: str):
    lists = []
    for k, line in _body_lines(text, "macorder 1"):
        head, colon, rest = line.partition(":")
        head = head.split()
        if len(head) != 2 or head[0] != "level" or not colon:
            raise FormatError("expected 'level d: ids'", k)
        d = _ints(head[1:], "level number", k)[0]
        if d != len(lists):
            raise FormatError(f"levels out of order at level {d}", k)
        lists.append(_ints(rest.split(), "ids", k))
    return lists


def fibermap_from_text(text: str):
    lines = _body_lines(text, "macposet-fibermap 1", comment="#")
    if not lines:
        raise FormatError("expected the count of base elements after the header",
                          len(text.splitlines()) + 1)
    at, head = lines[0]
    count = _ints([head], "count of base elements", at)[0]
    triples = []
    for k, line in lines[1:]:
        triple = tuple(_ints(line.split(), "ids", k))
        if len(triple) != 3:
            raise FormatError(f"expected 'c a b', got {len(triple)} ids", k)
        triples.append(triple)
    if len(triples) != count:
        raise FormatError(f"the count is {count}, but {len(triples)} triples follow", at)
    if [c for c, _, _ in triples] != list(range(count)):
        raise FormatError("fiber map must list base ids 0..k-1 in order", at)
    return triples


def build_report(command: str, input_text: str, verdict=None, witness=None,
                 grid=None, timings=None) -> dict:
    """A report; its ``timings`` are zero work counters unless given."""
    if timings is None:
        timings = {"search_nodes": 0, "subsets_enumerated": 0}
    return {
        "command": command,
        "input": input_text,
        "verdict": verdict,
        "witness": witness,
        "grid": grid,
        "timings": timings,
        "version": __version__,
    }


def report_to_bytes(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n").encode()


def write_report(report: dict, path: str):
    with open(path, "wb") as fh:
        fh.write(report_to_bytes(report))
