"""Text formats: the algebra document, generator configurations, and check
reports.

An algebra document is canonical JSON with fields `size`, `operations`
(name/arity/flat row-major table), optional `labels` (named partitions as
sorted block lists), and an optional `generator` block carrying the
configuration an algebra was generated from.  Serialization is
deterministic, so documents round-trip byte-exactly.
"""

from __future__ import annotations

import json
from typing import Any

from .core import FiniteAlgebra
from .congruences import Partition
from .report import Report


class DocumentError(ValueError):
    """A document failed to parse or validate."""


def serialize_algebra(
    algebra: FiniteAlgebra,
    labels: dict[str, Partition] | None = None,
    generator: dict | None = None,
) -> str:
    doc: dict[str, Any] = {
        "size": algebra.size,
        "operations": [
            {"name": op.name, "arity": op.arity, "table": list(op.table)}
            for op in algebra.operations
        ],
    }
    if labels:
        doc["labels"] = {
            name: [list(blk) for blk in part.blocks] for name, part in sorted(labels.items())
        }
    if generator is not None:
        doc["generator"] = generator
    return json.dumps(doc, indent=1, sort_keys=False) + "\n"


def parse_algebra(text: str):
    """Parse an algebra document.

    Returns (algebra, labels, generator_config_dict_or_None).  Nullary
    operations are normalized to constant unary operations.  Malformed
    documents raise DocumentError with the offending field.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    try:
        size = int(doc["size"])
    except (KeyError, TypeError, ValueError):
        raise DocumentError("missing or bad 'size'") from None
    ops_field = doc.get("operations")
    if not isinstance(ops_field, list):
        raise DocumentError("missing or bad 'operations'")
    ops = []
    for i, entry in enumerate(ops_field):
        try:
            name = str(entry["name"])
            arity = int(entry["arity"])
            table = entry["table"]
        except (KeyError, TypeError, ValueError):
            raise DocumentError(f"operation #{i}: need name, arity, table") from None
        if arity < 0:
            raise DocumentError(f"operation '{name}': negative arity")
        ops.append((name, arity, table))
    try:
        algebra = FiniteAlgebra(size, ops)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    labels = {}
    for name, blocks in (doc.get("labels") or {}).items():
        try:
            labels[str(name)] = Partition(size, blocks)
        except (TypeError, ValueError) as exc:
            raise DocumentError(f"label '{name}': {exc}") from None
    return algebra, labels, doc.get("generator")


def serialize_report(report: Report, *, command: str | None = None) -> str:
    """Stable, machine-parseable text for a report.

    One `item` line per check with verdict and anchor; multi-line witness
    and note fields are indented.  Timing is deliberately excluded so that
    reports are byte-identical across runs.
    """
    lines = ["# finalg report"]
    if command is not None:
        lines.append(f"command: {command}")
    lines.append(f"title: {report.title}")
    npass = sum(1 for it in report.items if it.passed is True)
    nfail = sum(1 for it in report.items if it.passed is False)
    nskip = sum(1 for it in report.items if it.passed is None)
    for it in report.items:
        lines.append(f"item {it.id} {it.verdict} anchor={it.anchor}")
        lines.append(f"  statement: {it.statement}")
        if it.witness is not None:
            lines.append(f"  witness: {it.witness!r}")
        if it.note:
            lines.append(f"  note: {it.note}")
    lines.append(f"summary: pass {npass} fail {nfail} skip {nskip}")
    return "\n".join(lines) + "\n"


def parse_partition_argument(spec: str, size: int, labels: dict[str, Partition]) -> Partition:
    """Resolve a CLI partition argument: a label name, the words 'zero' or
    'full', a JSON block list, or compact 'a,b|c,d' block syntax."""
    spec = spec.strip()
    if spec in labels:
        return labels[spec]
    if spec in ("zero", "identity", "0"):
        return Partition.zero(size)
    if spec in ("full", "one", "1"):
        return Partition.one(size)
    if spec.startswith("["):
        try:
            return Partition(size, json.loads(spec))
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            raise DocumentError(f"bad partition blocks: {exc}") from None
    try:
        blocks = [
            [int(x) for x in blk.split(",") if x.strip() != ""]
            for blk in spec.split("|")
        ]
        return Partition(size, blocks)
    except ValueError as exc:
        raise DocumentError(f"bad partition '{spec}': {exc}") from None
