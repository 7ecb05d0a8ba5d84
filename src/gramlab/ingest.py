"""Cross-validation of computed zeros against external ordinate tables.

External format: UTF-8 text, one decimal ordinate per line, strictly
ascending; blank lines and '#' comments are ignored.  Matching is greedy
one-to-one within a tolerance over two sorted lists: the file's ordinates and
the computed zeros within the tolerance of its span [first, last], none for an
empty file, so a report does not depend on how far the table reaches.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, PreconditionError
from .zeros import ZeroTable

DEFAULT_MATCH_TOL = 1e-4


@dataclass(frozen=True)
class MatchReport:
    matched: int
    unmatched_external: int
    unmatched_computed: int
    max_abs_diff: float
    external_count: int
    computed_count: int


def parse_ordinate_file(path: str | Path) -> np.ndarray:
    """The ordinates of a UTF-8 file; ParseError naming the first bad line."""
    data = Path(path).read_bytes()
    try:
        lines = io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        raise ParseError("not UTF-8 text", line=data.count(b"\n", 0, exc.start) + 1) from None
    vals: list[float] = []
    prev = -np.inf
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            v = float(text)
        except ValueError:
            raise ParseError(f"not a decimal ordinate: {text!r}", line=lineno) from None
        if not np.isfinite(v):
            raise ParseError(f"non-finite ordinate {text!r}", line=lineno)
        if v <= prev:
            raise ParseError("ordinates must be strictly ascending", line=lineno)
        vals.append(v)
        prev = v
    return np.asarray(vals)


def require_match_tol(match_tol: float) -> None:
    """PreconditionError unless 0 <= match_tol < inf."""
    if not 0.0 <= match_tol < math.inf:
        raise PreconditionError(f"ingest requires a finite match_tol >= 0 (--match-tol), "
                                f"got {match_tol}")


def match_ordinates(ext: np.ndarray, table: ZeroTable,
                    match_tol: float = DEFAULT_MATCH_TOL) -> MatchReport:
    """Match ascending ordinates against the computed zeros within match_tol
    of their span; the table must reach the last ordinate plus match_tol."""
    require_match_tol(match_tol)
    comp = ext      # no ordinate: no zero, and the table is not read
    if ext.size:
        z = table.zeros
        comp = z[np.searchsorted(z, ext[0] - match_tol):
                 np.searchsorted(z, ext[-1] + match_tol, side="right")]
    i = j = matched = unmatched_ext = unmatched_comp = 0
    max_diff = 0.0
    while i < ext.size and j < comp.size:
        d = ext[i] - comp[j]
        if abs(d) <= match_tol:
            matched += 1
            max_diff = max(max_diff, abs(float(d)))
            i += 1
            j += 1
        elif d > 0:
            unmatched_comp += 1
            j += 1
        else:
            unmatched_ext += 1
            i += 1
    return MatchReport(matched, unmatched_ext + ext.size - i, unmatched_comp + comp.size - j,
                       max_diff, ext.size, comp.size)


def ingest_external_table(path: str | Path, table: ZeroTable,
                          match_tol: float = DEFAULT_MATCH_TOL) -> MatchReport:
    """Match the ordinates of the file at path against the computed zeros."""
    return match_ordinates(parse_ordinate_file(path), table, match_tol)
