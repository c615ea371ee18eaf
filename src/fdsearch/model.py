"""Model container: variables with initial domains, propagators, optional
objective.  Models are immutable by convention once built; every solve
creates its own DomainStore copy."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .domain import DomainStore, FiniteDomain
from .propagators import BinaryKnapsackAtmost, Propagator


class ModelError(ValueError):
    """A model violates a structural invariant."""


class Model:
    def __init__(self, name: str = "model"):
        self.name = name
        self._specs: list[tuple[int, int]] = []  # (anchor, mask) per variable
        self.var_names: list[str] = []
        self.propagators: list[Propagator] = []
        self.objective: Optional[tuple[int, str]] = None  # (var, "max"|"min")
        self._branch_vars: Optional[list[int]] = None

    # -- construction --

    def add_var(self, lo: int, hi: int, name: str = "") -> int:
        """Declare a variable with domain [lo, hi]."""
        if hi < lo:
            raise ModelError(f"empty initial domain [{lo}, {hi}]")
        self._specs.append((lo, (1 << (hi - lo + 1)) - 1))
        self.var_names.append(name or f"x{len(self._specs) - 1}")
        return len(self._specs) - 1

    def add_var_values(self, values: Iterable[int], name: str = "") -> int:
        values = list(values)
        if not values:
            raise ModelError("empty initial domain")
        d = FiniteDomain.from_values(values)
        self._specs.append((d.anchor, d.mask))
        self.var_names.append(name or f"x{len(self._specs) - 1}")
        return len(self._specs) - 1

    def add_vars(self, n: int, lo: int, hi: int, prefix: str = "x") -> list[int]:
        return [self.add_var(lo, hi, f"{prefix}{i}") for i in range(n)]

    def post(self, prop: Propagator) -> int:
        """Register a propagator; returns its dense PropagatorId."""
        for x in prop.scope:
            if not 0 <= x < len(self._specs):
                raise ModelError(f"scope refers to undeclared variable {x}")
        prop.pid = len(self.propagators)
        self.propagators.append(prop)
        return prop.pid

    def maximize(self, var: int) -> None:
        self._set_objective(var, "max")

    def minimize(self, var: int) -> None:
        self._set_objective(var, "min")

    def _set_objective(self, var: int, direction: str) -> None:
        if not 0 <= var < len(self._specs):
            raise ModelError(f"objective variable {var} not declared")
        self.objective = (var, direction)

    def set_branch_vars(self, vars: Sequence[int]) -> None:
        """Restrict search decisions (and heuristic statistics) to these
        variables; auxiliaries must then be fixed by propagation."""
        vars = list(vars)
        for x in vars:
            if not 0 <= x < len(self._specs):
                raise ModelError(f"branch variable {x} not declared")
        if len(set(vars)) != len(vars):
            raise ModelError("branch variables must be duplicate-free")
        self._branch_vars = vars

    # -- queries --

    @property
    def num_vars(self) -> int:
        return len(self._specs)

    @property
    def branch_vars(self) -> list[int]:
        if self._branch_vars is not None:
            return self._branch_vars
        return list(range(len(self._specs)))

    def initial_domain(self, x: int) -> FiniteDomain:
        return FiniteDomain.from_mask(*self._specs[x])

    def new_store(self) -> DomainStore:
        return DomainStore([FiniteDomain.from_mask(a, mask) for a, mask in self._specs])

    def audit(self) -> None:
        """Validate structural invariants; raises ModelError on violation.
        The declared domains need no check: ``add_var`` and
        ``add_var_values`` reject an empty one."""
        for pid, p in enumerate(self.propagators):
            if p.pid != pid:
                raise ModelError(f"propagator {pid} has stale id {p.pid}")
            if len(set(p.scope)) != len(p.scope) or not p.scope:
                raise ModelError(f"propagator {pid} has invalid scope")
            for x in p.scope:
                if not 0 <= x < len(self._specs):
                    raise ModelError(f"propagator {pid} scope out of range")
            if isinstance(p, BinaryKnapsackAtmost):
                for x in p.scope:
                    d = self.initial_domain(x)
                    if d.min < 0 or d.max > 1:
                        raise ModelError(
                            f"propagator {pid} ({p.kind}) needs 0/1 items, but variable "
                            f"{x} ({self.var_names[x]}) has domain {d}"
                        )
        if self.objective is not None:
            var, direction = self.objective
            if direction not in ("max", "min"):
                raise ModelError(f"bad objective direction {direction!r}")
            if not 0 <= var < len(self._specs):
                raise ModelError("objective variable out of range")

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, vars={self.num_vars}, "
            f"constraints={len(self.propagators)})"
        )
