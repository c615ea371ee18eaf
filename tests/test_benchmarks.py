import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fdsearch
from fdsearch import (
    AllDifferent,
    KnapsackInstance,
    LinearEq,
    Model,
    ModelError,
    Status,
    build_knapsack_cop,
    build_knapsack_csp,
    build_magic_square,
    check_knapsack_cop,
    check_knapsack_csp,
    check_magic_square,
    load_bundled_instance,
    solve,
)
from fdsearch.benchmarks import magic_constant, parse_knapsack_text

TOY = KnapsackInstance(3, 1, [10, 6, 4], [[5, 4, 3]], [9], 16, "toy")
TOY_TEXT = "3 1\n10 6 4\n5 4 3\n9\n16\n"


class TestParser:
    def test_round_trip_toy(self):
        inst = parse_knapsack_text(TOY_TEXT, name="toy")
        assert inst == TOY

    def test_optimum_is_optional(self):
        inst = parse_knapsack_text("3 1\n10 6 4\n5 4 3\n9\n")
        assert inst.optimum is None

    def test_truncation_names_the_missing_section(self):
        with pytest.raises(ValueError, match="capacity"):
            parse_knapsack_text("3 1\n10 6 4\n5 4 3\n")
        with pytest.raises(ValueError, match="weight row 1"):
            parse_knapsack_text("2 2\n10 6\n5 4\n")
        with pytest.raises(ValueError, match="profit"):
            parse_knapsack_text("3 1\n10 6\n")

    def test_malformed_counts(self):
        with pytest.raises(ValueError, match="counts"):
            parse_knapsack_text("-2 1\n")
        with pytest.raises(ValueError, match="bad integer"):
            parse_knapsack_text("x 1\n")

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative weight"):
            parse_knapsack_text("2 1\n3 3\n5 -4\n9\n")

    def test_trailing_junk_rejected(self):
        with pytest.raises(ValueError, match="trailing"):
            parse_knapsack_text(TOY_TEXT + "42 42\n")

    def test_empty_instance_is_valid(self):
        inst = parse_knapsack_text("0 0\n")
        assert inst.n_items == 0 and inst.n_constraints == 0

    def test_bundled_instances_load_and_validate(self):
        sizes = {}
        for name in ("1-2", "1-3", "1-4", "1-5", "1-6"):
            inst = load_bundled_instance(name)
            inst.validate()
            assert inst.optimum is not None
            sizes[name] = inst.n_items
        assert sizes == {"1-2": 10, "1-3": 15, "1-4": 20, "1-5": 28, "1-6": 39}

    def test_a_renamed_copy_reads_its_own_data(self, tmp_path):
        """``-S`` keeps an installed ``fdsearch`` out of reach, so the copy
        can only find the data under its own name."""
        shutil.copytree(
            Path(fdsearch.__file__).parent, tmp_path / "fdcopy",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        code = "import fdcopy; print(fdcopy.load_bundled_instance('1-4').optimum)"
        done = subprocess.run(
            [sys.executable, "-S", "-c", code], cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(tmp_path)},
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) == load_bundled_instance("1-4").optimum

    def test_unknown_bundled_name(self):
        with pytest.raises(ValueError, match="unknown bundled instance"):
            load_bundled_instance("9-9")


@pytest.mark.parametrize("inst, message", [
    (KnapsackInstance(-1, 0, [], [], []), "non-negative"),
    (KnapsackInstance(2, 0, [1], [], []), "expected 2 profits"),
    (KnapsackInstance(1, 1, [1], [], [3]), "expected 1 weight rows"),
    (KnapsackInstance(1, 1, [1], [[1, 2]], [3]), "weight row 0 has 2 entries"),
    (KnapsackInstance(1, 1, [1], [[-1]], [3]), "negative weight"),
    (KnapsackInstance(1, 1, [1], [[1]], []), "expected 1 capacities"),
])
def test_validate_rejects_inconsistent_instances(inst, message):
    with pytest.raises(ValueError, match=message):
        inst.validate()


@pytest.mark.parametrize("build", (build_knapsack_csp, build_knapsack_cop))
def test_infeasible_empty_row_rejected_by_both_builders(build):
    """A weight row with no items and a capacity below 0 can hold for no
    assignment.  The optimisation builder once dropped it and reported
    PROVED_OPTIMAL 7 with an assignment that check_knapsack_cop rejects."""
    inst = KnapsackInstance(2, 2, [3, 4], [[1, 1], [0, 0]], [5, -1], 7, "empty-row")
    with pytest.raises(ModelError, match="no items and negative capacity"):
        build(inst)
    assert not check_knapsack_cop(inst, [1, 1, 7], 7)


class TestKnapsackCsp:
    def test_toy_has_unique_solution(self):
        stats = solve(build_knapsack_csp(TOY), "wdeg", seed=0, all_solutions=True)
        assert stats.all_solutions == [(1, 1, 0)]
        assert check_knapsack_csp(TOY, (1, 1, 0))

    def test_optimum_above_max_is_infeasible(self):
        inst = KnapsackInstance(3, 1, [10, 6, 4], [[5, 4, 3]], [9], 99, "too-high")
        stats = solve(build_knapsack_csp(inst), "abs", seed=0)
        assert stats.status is Status.PROVED_INFEASIBLE

    def test_slack_capacity_all_ones(self):
        inst = KnapsackInstance(3, 1, [7, 8, 9], [[1, 1, 1]], [50], 24, "slack")
        stats = solve(build_knapsack_csp(inst), "ibs", seed=0)
        assert stats.status is Status.SOLUTION_FOUND
        assert stats.best_assignment[:3] == [1, 1, 1]

    def test_missing_optimum_rejected(self):
        inst = KnapsackInstance(1, 1, [5], [[2]], [4], None)
        with pytest.raises(ModelError, match="optimum"):
            build_knapsack_csp(inst)

    def test_model_audit_passes(self):
        build_knapsack_csp(TOY).audit()

    @pytest.mark.parametrize("n_items", (0, 2))
    def test_no_profit_and_a_non_zero_optimum_rejected(self, n_items):
        """A profit row with no non-zero profit sums to 0, so it can reach
        no other optimum, with items or without."""
        inst = KnapsackInstance(n_items, 0, [0] * n_items, [], [], 5, "no-profit")
        with pytest.raises(ModelError, match="no items and a non-zero optimum"):
            build_knapsack_csp(inst)

    def test_no_profit_and_optimum_zero_is_satisfiable(self):
        inst = KnapsackInstance(2, 0, [0, 0], [], [], 0, "no-profit")
        assert solve(build_knapsack_csp(inst), "abs", seed=0).status is Status.SOLUTION_FOUND


class TestKnapsackCop:
    def test_toy_optimum(self):
        stats = solve(build_knapsack_cop(TOY), "abs", seed=0)
        assert stats.status is Status.PROVED_OPTIMAL
        assert stats.best_objective == 16
        assert check_knapsack_cop(TOY, stats.best_assignment, 16)

    def test_empty_instance_optimum_zero(self):
        inst = KnapsackInstance(0, 0, [], [], [], None, "empty")
        stats = solve(build_knapsack_cop(inst), "abs", seed=0)
        assert stats.status is Status.PROVED_OPTIMAL
        assert stats.best_objective == 0

    def test_single_item_heavier_than_capacity(self):
        inst = KnapsackInstance(1, 1, [10], [[5]], [4], None, "heavy")
        stats = solve(build_knapsack_cop(inst), "wdeg", seed=0)
        assert stats.status is Status.PROVED_OPTIMAL
        assert stats.best_objective == 0

    def test_checker_rejects_a_value_other_than_0_or_1(self):
        """[0, 2, 0] weighs 8 <= 9 and earns 12, so only the 0/1 test
        rejects it."""
        assert check_knapsack_cop(TOY, [0, 1, 0], 6)
        assert not check_knapsack_cop(TOY, [0, 2, 0], 12)

    def test_checkers_reject_a_short_assignment(self):
        """Each prefix below is feasible and earns the objective it is
        checked against, so only the length test rejects it."""
        inst = load_bundled_instance("1-2")
        assert not check_knapsack_cop(inst, [1], inst.profits[0])
        assert not check_knapsack_cop(TOY, [1], 10)
        nothing = KnapsackInstance(2, 1, [3, 4], [[5, 5]], [4], 0, "nothing")
        assert check_knapsack_csp(nothing, [0, 0])
        assert not check_knapsack_csp(nothing, [])

    def test_branching_is_restricted_to_items(self):
        model = build_knapsack_cop(TOY)
        assert model.branch_vars == [0, 1, 2]
        assert model.objective == (3, "max")


class TestMagicSquare:
    def test_rejects_small_orders(self):
        for n in (0, 1, 2):
            with pytest.raises(ModelError):
                build_magic_square(n)

    def test_magic_constants(self):
        assert magic_constant(3) == 15
        assert magic_constant(4) == 34
        assert magic_constant(7) == 175

    def test_constraint_census_n7(self):
        model = build_magic_square(7)
        assert model.num_vars == 49
        kinds = {}
        for p in model.propagators:
            kinds[p.kind] = kinds.get(p.kind, 0) + 1
        assert kinds["linear_eq"] == 16  # 7 rows + 7 cols + 2 diagonals
        assert kinds["alldifferent"] == 1
        assert kinds["binary_less"] == 2 * 6 + 2  # diagonal chains + corners

    @pytest.mark.parametrize("n", [3, 4])
    def test_solved_squares_validate(self, n):
        stats = solve(build_magic_square(n), "abs", seed=2)
        assert stats.status is Status.SOLUTION_FOUND
        assert check_magic_square(n, stats.best_assignment)

    # Each square below passes every check before the one it names.  VALID
    # meets the ordering; LO_SHU, VALID transposed, is still magic but its
    # anti-diagonal falls; CORNER has both diagonals rising but its
    # top-right corner below its top-left one.
    VALID = [2, 9, 4, 7, 5, 3, 6, 1, 8]
    LO_SHU = [2, 7, 6, 9, 5, 1, 4, 3, 8]
    CORNER = [4, 9, 2, 3, 5, 7, 8, 1, 6]

    @pytest.mark.parametrize("values", [
        pytest.param(VALID[:8], id="too-few-values"),
        pytest.param([2, 9, 4, 7, 5, 3, 6, 1, 2], id="repeated-value"),
        pytest.param([7, 9, 4, 2, 5, 3, 6, 1, 8], id="row-sum"),  # (0,0) <-> (1,0)
        pytest.param([9, 2, 4, 7, 5, 3, 6, 1, 8], id="column-sum"),  # (0,0) <-> (0,1)
        pytest.param([7, 5, 3, 2, 9, 4, 6, 1, 8], id="diagonal-sum"),  # rows 0 <-> 1
        pytest.param(LO_SHU, id="diagonal-order"),
        pytest.param(CORNER, id="corner-order"),
    ])
    def test_checker_rejects_each_broken_square(self, values):
        assert check_magic_square(3, self.VALID)
        assert not check_magic_square(3, values)

    def test_checker_rejects_broken_squares(self):
        stats = solve(build_magic_square(3), "wdeg", seed=0)
        square = list(stats.best_assignment)
        square[0], square[1] = square[1], square[0]
        assert not check_magic_square(3, square)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_symmetry_breaking_preserves_satisfiability(self, n):
        # with the ordering constraints
        with_sb = solve(build_magic_square(n), "ibs", seed=1, timeout=60)
        assert with_sb.status is Status.SOLUTION_FOUND
        # and without them: plain rows/cols/diagonals/alldifferent
        plain = Model(f"msq-{n}-plain")
        cells = [[plain.add_var(1, n * n) for _ in range(n)] for _ in range(n)]
        ones = [1] * n
        total = magic_constant(n)
        for i in range(n):
            plain.post(LinearEq(ones, cells[i], total))
            plain.post(LinearEq(ones, [cells[r][i] for r in range(n)], total))
        plain.post(LinearEq(ones, [cells[i][i] for i in range(n)], total))
        plain.post(LinearEq(ones, [cells[i][n - 1 - i] for i in range(n)], total))
        plain.post(AllDifferent([c for row in cells for c in row]))
        loose = solve(plain, "ibs", seed=1, timeout=60)
        assert loose.status is Status.SOLUTION_FOUND

    def test_ordering_constraints_hold_on_solutions(self):
        stats = solve(build_magic_square(4), "wdeg", seed=5)
        vals = stats.best_assignment
        n = 4
        main = [vals[i * n + i] for i in range(n)]
        anti = [vals[i * n + (n - 1 - i)] for i in range(n)]
        assert main == sorted(main) and anti == sorted(anti)
        assert vals[0] < vals[(n - 1) * n] and vals[0] < vals[n - 1]
