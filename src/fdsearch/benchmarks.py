"""Benchmark model builders and the multi-knapsack instance file format.

Instance files are whitespace-separated integers: ``n m``, then ``n``
profits, then ``m`` rows of ``n`` weights, then ``m`` capacities, then an
optional known optimum.  The bundled ``knap1-*`` instances live in
``fdsearch/data`` together with their exact optima.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence, Union

from .model import Model, ModelError
from .propagators import (
    AllDifferent,
    BinaryKnapsackAtmost,
    BinaryLess,
    LinearEq,
    LinearLeq,
)

BUNDLED_KNAPSACKS = ("1-2", "1-3", "1-4", "1-5", "1-6")


@dataclass
class KnapsackInstance:
    n_items: int
    n_constraints: int
    profits: list[int]
    weights: list[list[int]]  # one row per constraint
    capacities: list[int]
    optimum: Optional[int] = None
    name: str = ""

    def validate(self) -> None:
        if self.n_items < 0 or self.n_constraints < 0:
            raise ValueError("item and constraint counts must be non-negative")
        if len(self.profits) != self.n_items:
            raise ValueError(
                f"expected {self.n_items} profits, got {len(self.profits)}"
            )
        if len(self.weights) != self.n_constraints:
            raise ValueError(
                f"expected {self.n_constraints} weight rows, got {len(self.weights)}"
            )
        for i, row in enumerate(self.weights):
            if len(row) != self.n_items:
                raise ValueError(
                    f"weight row {i} has {len(row)} entries, expected {self.n_items}"
                )
            if any(w < 0 for w in row):
                raise ValueError(f"weight row {i} contains a negative weight")
        if len(self.capacities) != self.n_constraints:
            raise ValueError(
                f"expected {self.n_constraints} capacities, got {len(self.capacities)}"
            )


def parse_knapsack_text(text: str, name: str = "") -> KnapsackInstance:
    tokens = text.split()
    pos = 0

    def take(count: int, what: str) -> list[int]:
        nonlocal pos
        if pos + count > len(tokens):
            raise ValueError(
                f"truncated instance: expected {count} integers for {what}, "
                f"found {len(tokens) - pos}"
            )
        out = []
        for tok in tokens[pos:pos + count]:
            try:
                out.append(int(tok))
            except ValueError:
                raise ValueError(f"bad integer {tok!r} in {what}") from None
        pos += count
        return out

    n, m = take(2, "the item/constraint counts")
    if n < 0 or m < 0:
        raise ValueError(f"malformed counts n={n}, m={m}")
    profits = take(n, "the profit vector")
    weights = [take(n, f"weight row {i}") for i in range(m)]
    capacities = take(m, "the capacity vector")
    optimum = None
    if pos < len(tokens):
        optimum = take(1, "the optimum")[0]
    if pos != len(tokens):
        raise ValueError(f"unexpected trailing data: {len(tokens) - pos} extra tokens")
    inst = KnapsackInstance(n, m, profits, weights, capacities, optimum, name)
    inst.validate()
    return inst


def parse_knapsack_file(path: Union[str, Path]) -> KnapsackInstance:
    path = Path(path)
    return parse_knapsack_text(path.read_text(), name=path.stem)


def load_bundled_instance(name: str) -> KnapsackInstance:
    """Load one of the packaged instances, e.g. ``"1-4"``."""
    if name not in BUNDLED_KNAPSACKS:
        raise ValueError(
            f"unknown bundled instance {name!r}; choose from {BUNDLED_KNAPSACKS}"
        )
    text = resources.files(__package__).joinpath(f"data/knap{name}.txt").read_text()
    return parse_knapsack_text(text, name=f"knap{name}")


# -- model builders --


def _nonzero(coeffs: Sequence[int], xs: Sequence[int]) -> tuple[list[int], list[int]]:
    """The non-zero coefficients and the variables they multiply."""
    return [c for c in coeffs if c != 0], [x for c, x in zip(coeffs, xs) if c != 0]


def _post_rows(m: Model, inst: KnapsackInstance, row_class) -> list[int]:
    """Declare the 0/1 items and post each weight row over its non-zero
    weights; a row with no items needs a capacity >= 0.  Returns the items."""
    xs = m.add_vars(inst.n_items, 0, 1)
    for row, cap in zip(inst.weights, inst.capacities):
        weights, scope = _nonzero(row, xs)
        if scope:
            m.post(row_class(weights, scope, cap))
        elif cap < 0:
            raise ModelError("constraint with no items and negative capacity")
    return xs


def build_knapsack_csp(inst: KnapsackInstance) -> Model:
    """Satisfaction variant: arithmetic encoding of the weight constraints
    plus a linear equality pinning the profit to the known optimum.  A
    profit row with no non-zero profit needs an optimum of 0."""
    inst.validate()
    if inst.optimum is None:
        raise ModelError("the satisfaction variant needs the known optimum")
    m = Model(f"knap-csp-{inst.name or 'anon'}")
    xs = _post_rows(m, inst, LinearLeq)
    coeffs, scope = _nonzero(inst.profits, xs)
    if scope:
        m.post(LinearEq(coeffs, scope, inst.optimum))
    elif inst.optimum != 0:
        raise ModelError("profit row with no items and a non-zero optimum")
    return m


def build_knapsack_cop(inst: KnapsackInstance) -> Model:
    """Optimization variant: global binary knapsack constraints and a
    maximized profit variable."""
    inst.validate()
    m = Model(f"knap-cop-{inst.name or 'anon'}")
    xs = _post_rows(m, inst, BinaryKnapsackAtmost)
    obj = m.add_var(0, max(0, sum(p for p in inst.profits if p > 0)), name="profit")
    coeffs, scope = _nonzero(inst.profits, xs)
    m.post(LinearEq(coeffs + [-1], scope + [obj], 0))
    m.maximize(obj)
    m.set_branch_vars(xs)
    return m


def magic_constant(n: int) -> int:
    return n * (n * n + 1) // 2


def build_magic_square(n: int) -> Model:
    """n x n magic square: row/column/diagonal sums, one alldifferent (not
    domain-consistent), strict ordering along both diagonals, and the
    top-left corner ordered against the bottom-left and top-right corners."""
    if n < 3:
        raise ModelError("magic squares need n >= 3")
    m = Model(f"msq-{n}")
    cells = [[m.add_var(1, n * n, f"c{i},{j}") for j in range(n)] for i in range(n)]
    total = magic_constant(n)
    ones = [1] * n
    for i in range(n):
        m.post(LinearEq(ones, cells[i], total))
    for j in range(n):
        m.post(LinearEq(ones, [cells[i][j] for i in range(n)], total))
    main_diag = [cells[i][i] for i in range(n)]
    anti_diag = [cells[i][n - 1 - i] for i in range(n)]
    m.post(LinearEq(ones, main_diag, total))
    m.post(LinearEq(ones, anti_diag, total))
    m.post(AllDifferent([cells[i][j] for i in range(n) for j in range(n)]))
    for i in range(n - 1):
        m.post(BinaryLess(main_diag[i], main_diag[i + 1]))
        m.post(BinaryLess(anti_diag[i], anti_diag[i + 1]))
    m.post(BinaryLess(cells[0][0], cells[n - 1][0]))
    m.post(BinaryLess(cells[0][0], cells[0][n - 1]))
    return m


# -- independent solution checkers (direct evaluation, no propagators) --


def check_knapsack_csp(inst: KnapsackInstance, values: Sequence[int]) -> bool:
    return check_knapsack_cop(inst, values, inst.optimum)


def check_knapsack_cop(
    inst: KnapsackInstance, values: Sequence[int], objective: int
) -> bool:
    if len(values) < inst.n_items:
        return False
    xs = values[: inst.n_items]
    if any(v not in (0, 1) for v in xs):
        return False
    for row, cap in zip(inst.weights, inst.capacities):
        if sum(w * v for w, v in zip(row, xs)) > cap:
            return False
    return sum(p * v for p, v in zip(inst.profits, xs)) == objective


def check_magic_square(n: int, values: Sequence[int]) -> bool:
    if len(values) < n * n:
        return False
    grid = [[values[i * n + j] for j in range(n)] for i in range(n)]
    total = magic_constant(n)
    flat = [grid[i][j] for i in range(n) for j in range(n)]
    if sorted(flat) != list(range(1, n * n + 1)):
        return False
    for i in range(n):
        if sum(grid[i]) != total:
            return False
        if sum(grid[r][i] for r in range(n)) != total:
            return False
    main = [grid[i][i] for i in range(n)]
    anti = [grid[i][n - 1 - i] for i in range(n)]
    if sum(main) != total or sum(anti) != total:
        return False
    for i in range(n - 1):
        if not (main[i] < main[i + 1] and anti[i] < anti[i + 1]):
            return False
    return grid[0][0] < grid[n - 1][0] and grid[0][0] < grid[0][n - 1]
