"""Minimal CPLEX-LP reader for cross-checking exported files.

Parses only the subset export_lp emits (a Minimize objective, = and <=
rows, a Binary section, every coefficient and right-hand side an
integer) and hands the matrices to scipy's MILP solver.  HiGHS works in
floating point, so its solution is rounded to 0/1, every row is checked
again in integers, and the objective is the exact integer sum over the
chosen columns.  Deliberately separate from the package: it rebuilds the
problem from the text alone, so a bug in the exporter cannot cancel out.
"""

from __future__ import annotations

import re

_LABEL = re.compile(r"^\s*([A-Za-z]\w*):\s*$")
_TERM = re.compile(r"\s*([+-]?)\s*(\d+)\s+(x_\w+)\s*")
_ROW = re.compile(r"^(.*?)(<=|=)\s*(-?\d+)\s*$")


def _terms(expr: str) -> list[tuple[int, str]]:
    """`<int> <var>` terms, each after the first led by + or -; anything
    else, a non-integer coefficient included, raises ValueError."""
    out = []
    at = 0
    while at < len(expr):
        match = _TERM.match(expr, at)
        if match is None or (out and not match[1]):
            raise ValueError(f"not an integer term: {expr[at:]!r}")
        sign, coef, var = match.groups()
        out.append((-int(coef) if sign == "-" else int(coef), var))
        at = match.end()
    return out


def parse_lp(text: str):
    lines = [
        line
        for line in (raw.rstrip() for raw in text.splitlines())
        if line.strip() and not line.lstrip().startswith("\\")
    ]

    def section(keyword: str) -> int:
        for i, line in enumerate(lines):
            if line.strip().lower() == keyword:
                return i
        raise ValueError(f"missing section {keyword!r}")

    i_min = section("minimize")
    i_sub = section("subject to")
    i_bin = section("binary")
    i_end = section("end")

    obj_text = " ".join(lines[i_min + 1 : i_sub])
    _, _, obj_expr = obj_text.partition(":")
    objective = _terms(obj_expr)

    rows: list[tuple[str, str]] = []
    label = None
    buffer: list[str] = []
    for line in lines[i_sub + 1 : i_bin]:
        match = _LABEL.match(line)
        if match:
            if label is not None:
                rows.append((label, " ".join(buffer)))
            label = match.group(1)
            buffer = []
        else:
            buffer.append(line)
    if label is not None:
        rows.append((label, " ".join(buffer)))

    constraints = []
    for name, body in rows:
        match = _ROW.match(body)
        if match is None:
            raise ValueError(f"cannot parse constraint {name!r}: {body!r}")
        expr, relation, rhs = match.groups()
        constraints.append((name, _terms(expr), relation, int(rhs)))

    binaries = [line.strip() for line in lines[i_bin + 1 : i_end]]
    return objective, constraints, binaries


def solve_lp_text(text: str) -> tuple[str, int | None, dict[str, int]]:
    """Solve an exported LP with scipy's MILP backend.

    Returns (status, objective, solution); status is "optimal" or
    "infeasible".  An optimal solution is HiGHS's rounded to 0/1 and
    re-checked against every row in integers; its objective is exact.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    objective, constraints, binaries = parse_lp(text)
    index = {name: i for i, name in enumerate(binaries)}
    n = len(binaries)
    c = np.zeros(n)
    for coef, var in objective:
        c[index[var]] += coef
    matrix = np.zeros((len(constraints), n))
    lower = np.zeros(len(constraints))
    upper = np.zeros(len(constraints))
    for r, (_, terms, relation, rhs) in enumerate(constraints):
        for coef, var in terms:
            matrix[r, index[var]] += coef
        upper[r] = rhs
        lower[r] = rhs if relation == "=" else -np.inf
    result = milp(
        c=c,
        constraints=LinearConstraint(matrix, lower, upper),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if result.status == 0:
        solution = {name: int(round(result.x[i])) for name, i in index.items()}
        if set(solution.values()) - {0, 1}:
            raise RuntimeError("HiGHS returned a value outside 0/1")
        for name, terms, relation, rhs in constraints:
            lhs = sum(coef * solution[var] for coef, var in terms)
            if lhs > rhs or (relation == "=" and lhs != rhs):
                raise RuntimeError(f"rounded solution violates row {name!r}: {lhs} vs {rhs}")
        return "optimal", sum(coef * solution[var] for coef, var in objective), solution
    if result.status == 2:
        return "infeasible", None, {}
    raise RuntimeError(f"unexpected MILP status {result.status}: {result.message}")
