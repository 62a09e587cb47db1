"""File formats and report emission.

Poset files are line-oriented text (diff-able golden files)::

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
from .construct import OperationResult, Provenance
from .core import PosetError, RankedPoset, validate_poset


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


def poset_from_text(text: str):
    """Parse a poset file; returns (poset, operation_result_or_None).

    The loaded poset is validated; a cover violating the rank law is a
    load error citing its line.
    """
    lines = text.splitlines()
    k = 0

    def take():
        nonlocal k
        while k < len(lines) and not lines[k].strip():
            k += 1
        if k >= len(lines):
            return None, k
        k += 1
        return lines[k - 1].strip(), k

    header, ln = take()
    if header != "macposet 1":
        raise FormatError("expected header 'macposet 1'", ln)
    name = ""
    line, ln = take()
    if line is not None and line.startswith("name "):
        name = line[5:]
        line, ln = take()
    if line is None or not line.startswith("elements "):
        raise FormatError("expected 'elements N'", ln)
    n = int(line.split()[1])
    line, ln = take()
    if line is None or not line.startswith("ranks"):
        raise FormatError("expected 'ranks ...'", ln)
    ranks = [int(t) for t in line.split()[1:]]
    if len(ranks) != n:
        raise FormatError(f"expected {n} ranks, found {len(ranks)}", ln)
    line, ln = take()
    if line is None or not line.startswith("covers "):
        raise FormatError("expected 'covers K'", ln)
    ncov = int(line.split()[1])
    covers = []
    cover_lines = []
    for _ in range(ncov):
        line, ln = take()
        if line is None:
            raise FormatError("unexpected end of file inside covers", ln)
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"bad cover line {line!r}", ln)
        covers.append((int(parts[0]), int(parts[1])))
        cover_lines.append(ln)
    labels = None
    var_names = None
    op = None
    sources = None
    line, ln = take()
    while line is not None:
        if line.startswith("labels "):
            parts = line.split()
            arity = int(parts[1])
            var_names = tuple(parts[2:])
            if len(var_names) != arity:
                raise FormatError("label header names disagree with arity", ln)
            labels = []
            for _ in range(n):
                line, ln = take()
                if line is None:
                    raise FormatError("unexpected end of file inside labels", ln)
                vec = tuple(int(t) for t in line.split())
                if len(vec) != arity:
                    raise FormatError(f"label needs {arity} exponents", ln)
                labels.append(vec)
        elif line.startswith("provenance "):
            parts = line.split()
            op = parts[1]
            count = int(parts[2])
            sources = []
            for _ in range(count):
                line, ln = take()
                if line is None:
                    raise FormatError("unexpected end of file inside provenance", ln)
                rec = []
                for item in line.split():
                    f, _, s = item.partition(":")
                    rec.append((int(f), int(s)))
                sources.append(tuple(rec))
        else:
            raise FormatError(f"unknown section {line.split()[0]!r}", ln)
        line, ln = take()
    try:
        p = RankedPoset(ranks, covers, labels=labels, var_names=var_names, name=name)
    except PosetError as e:
        raise FormatError(str(e), cover_lines[-1] if cover_lines else 1)
    verdict = validate_poset(p)
    if not verdict.ok:
        w = verdict.witness
        bad = cover_lines[0]
        for (a, b), l in zip(covers, cover_lines):
            if (a, b) == tuple(w.elements) or (len(w.elements) == 1 and a == w.elements[0]):
                bad = l
                break
        raise FormatError(f"invalid poset: {w.detail}", bad)
    result = None
    if op is not None:
        result = OperationResult(p, Provenance(tuple(sources)), op)
    return p, result


def order_lists_to_text(per_level) -> str:
    out = ["macorder 1"]
    for d, l in enumerate(per_level):
        out.append(f"level {d}: " + " ".join(str(i) for i in l))
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
