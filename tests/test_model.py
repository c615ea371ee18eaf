"""``Model``'s checks on what is posted to it, ``audit``'s checks on what was
edited after, and the reprs of a model and a propagator."""

import pytest

from fdsearch import BinaryKnapsackAtmost, LinearLeq, Model, ModelError


def two_vars():
    m = Model("two")
    m.add_var(0, 1)
    m.add_var(0, 3)
    return m


class TestDeclarationChecks:
    def test_post_over_an_undeclared_variable(self):
        with pytest.raises(ModelError, match="undeclared variable 2"):
            two_vars().post(LinearLeq([1, 1], [0, 2], 1))

    @pytest.mark.parametrize("direction", ("maximize", "minimize"))
    def test_objective_over_an_undeclared_variable(self, direction):
        m = two_vars()
        with pytest.raises(ModelError, match="objective variable 5 not declared"):
            getattr(m, direction)(5)
        assert m.objective is None

    def test_branch_vars_over_an_undeclared_variable(self):
        m = two_vars()
        with pytest.raises(ModelError, match="branch variable -1 not declared"):
            m.set_branch_vars([0, -1])
        assert m.branch_vars == [0, 1]

    def test_knapsack_with_fewer_weights_than_items(self):
        with pytest.raises(ValueError, match="one weight per variable"):
            BinaryKnapsackAtmost([3], [0, 1], 2)


class TestAudit:
    def test_a_propagator_posted_to_two_models_has_a_stale_id(self):
        p = LinearLeq([1], [0], 1)
        first, second = two_vars(), two_vars()
        first.post(p)
        second.post(LinearLeq([1], [1], 2))
        second.post(p)  # now p.pid == 1, but p is propagator 0 of first
        second.audit()
        with pytest.raises(ModelError, match="propagator 0 has stale id 1"):
            first.audit()

    @pytest.mark.parametrize("scope, message", [
        ([], "invalid scope"),
        ([1, 1], "invalid scope"),
        ([0, 2], "scope out of range"),
    ])
    def test_an_edited_scope(self, scope, message):
        m = two_vars()
        m.post(LinearLeq([1, 1], [0, 1], 3))
        m.audit()
        m.propagators[0].scope = scope
        with pytest.raises(ModelError, match=message):
            m.audit()

    @pytest.mark.parametrize("objective, message", [
        ((1, "up"), "bad objective direction 'up'"),
        ((2, "max"), "objective variable out of range"),
    ])
    def test_an_edited_objective(self, objective, message):
        m = two_vars()
        m.maximize(1)
        m.audit()
        m.objective = objective
        with pytest.raises(ModelError, match=message):
            m.audit()


def test_reprs():
    m = two_vars()
    p = LinearLeq([1, 1], [0, 1], 3)
    assert repr(p) == "LinearLeq(pid=-1, scope=[0, 1])"
    m.post(p)
    assert repr(p) == "LinearLeq(pid=0, scope=[0, 1])"
    assert repr(m) == "Model('two', vars=2, constraints=1)"
