"""Tabulated series input.

Two-column text: an integer index and a value per line, whitespace or comma
separated; blank lines and ``#`` comments are skipped.  The value column is
either the series term a_n (``kind="terms"``) or the ratio a_n/a_{n+1}
(``kind="ratios"``).  Indices must be strictly increasing and values finite
and positive.  Ratios are only formed between adjacent provided indices; no
interpolation is ever done.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Sequence

from .convergence import RatioSpec
from .errors import DomainError

KINDS = ("terms", "ratios")


def parse_rows(lines: Iterable[str]) -> list[tuple[int, float]]:
    rows: list[tuple[int, float]] = []
    prev = None
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.replace(",", " ").split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two columns, got {len(parts)}")
        try:
            n = int(parts[0])
        except ValueError:
            raise ValueError(f"line {lineno}: index {parts[0]!r} is not an integer") from None
        try:
            value = float(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: value {parts[1]!r} is not a number") from None
        if n < 1:
            raise ValueError(f"line {lineno}: index must be >= 1, got {n}")
        if prev is not None and n <= prev:
            raise ValueError(f"line {lineno}: indices must be strictly increasing ({prev} then {n})")
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"line {lineno}: values must be finite and positive, got {value}")
        rows.append((n, value))
        prev = n
    if len(rows) < 2:
        raise ValueError("table needs at least two rows")
    return rows


def ratio_spec_from_rows(rows: Sequence[tuple[int, float]], kind: str) -> RatioSpec:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if kind == "ratios":
        ratios = dict(rows)
    else:  # a_n/a_{n+1} over adjacent indices; rows are strictly increasing
        ratios = {n: a / b for (n, a), (m, b) in zip(rows, rows[1:]) if m == n + 1}
    if not ratios:
        raise ValueError("no adjacent index pairs; cannot form any ratio")

    def ratio(n: int) -> float:
        if n not in ratios:
            raise DomainError(f"no tabulated ratio at n={n}")
        return ratios[n]

    support = tuple(ratios)
    return RatioSpec(
        ratio=ratio,
        first_index=support[0],
        last_index=support[-1],
        support=support,
    )


def load_table(path: str | Path, kind: str) -> RatioSpec:
    text = Path(path).read_text()
    rows = parse_rows(text.splitlines())
    return ratio_spec_from_rows(rows, kind)
