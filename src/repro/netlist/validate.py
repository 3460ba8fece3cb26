"""Input validation and repair for netlists entering the placement pipeline.

:class:`~repro.netlist.netlist.Netlist` construction rejects structurally
broken inputs (duplicate names, out-of-range pin indices, non-finite,
zero or negative cell sizes), and a netlist's cells are read-only views,
so no size can change afterwards.  This module handles the grey zone:
inputs that are *formally* valid but would poison or degrade a placement
run — degenerate all-same-cell nets, non-finite initial position hints,
fixed cells pinned outside the placement region.

:func:`validate_netlist` either repairs these in place (permissive mode,
the default) or rejects them (``strict=True``), and always returns a
structured :class:`ValidationReport` saying exactly what it found and what
it did about it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..geometry import PlacementRegion
from .netlist import Netlist


@dataclass(frozen=True)
class ValidationIssue:
    """One defect found in a netlist.

    ``code`` is a stable machine-readable identifier (``nonfinite-hint``,
    ``degenerate-net``, ``fixed-outside-region``),
    ``subject`` the offending cell or net name, ``message`` the human
    explanation, and ``repaired`` whether permissive mode fixed it.
    """

    code: str
    subject: str
    message: str
    repaired: bool = False

    def __str__(self) -> str:
        state = "repaired" if self.repaired else "rejected"
        return f"[{self.code}] {self.subject}: {self.message} ({state})"


@dataclass
class ValidationReport:
    """Everything :func:`validate_netlist` found, in discovery order."""

    issues: List[ValidationIssue]

    @property
    def ok(self) -> bool:
        return not self.issues

    @property
    def num_repairs(self) -> int:
        return sum(1 for issue in self.issues if issue.repaired)

    def by_code(self, code: str) -> List[ValidationIssue]:
        return [issue for issue in self.issues if issue.code == code]

    def summary(self) -> str:
        if not self.issues:
            return "netlist clean: no issues found"
        counts: dict = {}
        for issue in self.issues:
            counts[issue.code] = counts.get(issue.code, 0) + 1
        parts = ", ".join(f"{code} x{n}" for code, n in sorted(counts.items()))
        return f"{len(self.issues)} issue(s): {parts} ({self.num_repairs} repaired)"


def validate_netlist(
    netlist: Netlist,
    region: Optional[PlacementRegion] = None,
    strict: bool = False,
) -> Tuple[Netlist, ValidationReport]:
    """Check *netlist* for pipeline-poisoning defects; repair or reject.

    Checks performed:

    - movable cells with non-finite initial position hints (the hint is
      dropped — the placer starts them at the region center anyway);
    - nets whose pins all sit on one cell — they contribute nothing to the
      quadratic system but still cost clique expansion (the net is dropped);
    - with *region* given, fixed cells whose center lies outside it (the
      center is clamped onto the region boundary).  Pads conventionally
      sit *on* the boundary, so containment is closed.

    In permissive mode (default) every defect is repaired and recorded; a
    new :class:`Netlist` is built only if something actually changed.  With
    ``strict=True`` the first category found raises :class:`ValueError`
    listing every offender, so callers get the full damage report in one
    failure instead of a fix-one-rerun loop.

    Returns ``(netlist, report)`` — the original instance when clean.
    """
    issues: List[ValidationIssue] = []
    repaired = not strict
    nl = netlist
    columns = nl.columns()
    x, y = nl.cell_x.copy(), nl.cell_y.copy()
    has_x, has_y = nl.has_x.copy(), nl.has_y.copy()

    with np.errstate(invalid="ignore"):
        bad_hint = nl.movable_mask & (
            (has_x & ~np.isfinite(x)) | (has_y & ~np.isfinite(y))
        )
        outside = np.zeros(nl.num_cells, dtype=bool)
        if region is not None:
            b = region.bounds
            outside = nl.fixed_mask & ~(
                (b.xlo <= x) & (x <= b.xhi) & (b.ylo <= y) & (y <= b.yhi)
            )
    for i in np.flatnonzero(bad_hint | outside).tolist():
        name = nl.cell_names[i]
        cx = float(x[i]) if has_x[i] else None
        cy = float(y[i]) if has_y[i] else None
        if bad_hint[i]:
            has_x[i] = has_y[i] = False
            x[i] = y[i] = 0.0
            issues.append(ValidationIssue(
                code="nonfinite-hint",
                subject=name,
                message=(
                    f"initial position hint ({cx}, {cy}) is not finite; "
                    "dropping it"
                ),
                repaired=repaired,
            ))
        else:
            b = region.bounds
            x[i] = float(np.clip(cx, b.xlo, b.xhi))
            y[i] = float(np.clip(cy, b.ylo, b.yhi))
            issues.append(ValidationIssue(
                code="fixed-outside-region",
                subject=name,
                message=(
                    f"fixed at ({cx}, {cy}), outside the region; "
                    f"clamping to ({x[i]}, {y[i]})"
                ),
                repaired=repaired,
            ))

    keep = np.ones(nl.num_nets, dtype=bool)
    if nl.num_nets:
        starts = nl.net_ptr[:-1]
        one_cell = (
            np.minimum.reduceat(nl.pin_cell, starts)
            == np.maximum.reduceat(nl.pin_cell, starts)
        )
        for j in np.flatnonzero(one_cell).tolist():
            keep[j] = False
            issues.append(ValidationIssue(
                code="degenerate-net",
                subject=nl.net_names[j],
                message=(
                    f"all {int(nl.net_degree[j])} pin(s) sit on one cell; "
                    "the net constrains nothing and is dropped"
                ),
                repaired=repaired,
            ))

    report = ValidationReport(issues=issues)
    if strict and issues:
        detail = "; ".join(str(issue) for issue in issues)
        raise ValueError(f"netlist {netlist.name!r} failed validation: {detail}")
    if report.num_repairs == 0:
        return netlist, report
    # Rebuild rather than mutate: a Netlist is immutable, and construction
    # re-derives every array from the repaired columns.
    pins = np.repeat(keep, nl.net_degree)
    columns.update(
        cell_x=x, cell_y=y, has_x=has_x, has_y=has_y,
        net_weight=nl.net_weight[keep],
        net_ptr=np.concatenate(([0], np.cumsum(nl.net_degree[keep]))),
        **{c: columns[c][pins] for c in ("pin_cell", "pin_dir", "pin_dx", "pin_dy")},
    )
    names = [n for n, k in zip(nl.net_names, keep.tolist()) if k]
    rebuilt = Netlist.from_columns(nl.name, nl.cell_names, names, **columns)
    return rebuilt, report
