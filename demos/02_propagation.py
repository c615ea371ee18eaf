"""The propagation layer: each constraint filters domains, the engine runs
them to a mutual fixpoint and reports exactly which variables changed.

Run:  python demos/02_propagation.py
"""

from fdsearch import (
    AllDifferent,
    BinaryKnapsackAtmost,
    BinaryLess,
    Engine,
    LinearEq,
    Model,
)


def show(store, model, names):
    for x, name in enumerate(names):
        print(f"  {name} = {store.domains[x]}")


print("== bounds reasoning on a linear equality ==")
m = Model()
x = m.add_var(0, 5, "x")
y = m.add_var(0, 3, "y")
m.post(LinearEq([2, 1], [x, y], 10))
store = m.new_store()
res = Engine(m.num_vars, m.propagators).propagate(store)
print("2x + y = 10 with x in 0..5, y in 0..3 propagates to:")
show(store, m, "xy")
print("affected:", res.affected)

print("\n== forward checking through alldifferent ==")
m = Model()
a = m.add_var(3, 3, "a")
b = m.add_var_values([1, 3], "b")
c = m.add_var_values([3, 4], "c")
m.post(AllDifferent([a, b, c]))
store = m.new_store()
Engine(m.num_vars, m.propagators).propagate(store)
print("a=3 knocks 3 out of b and c, binding both:")
show(store, m, "abc")

print("\n== knapsack filtering kicks in as items get committed ==")
m = Model()
xs = m.add_vars(3, 0, 1)
m.post(BinaryKnapsackAtmost([6, 5, 4], xs, 9))
store = m.new_store()
engine = Engine(m.num_vars, m.propagators)
store.push_level()
engine.propagate(store, decision=("eq", xs[0], 1))
print("weights (6,5,4), capacity 9, committing item 0:")
show(store, m, ["item0", "item1", "item2"])

print("\n== failures name the constraint that caused them ==")
m = Model()
p = m.add_var(5, 5, "p")
q = m.add_var(1, 5, "q")
first = m.post(BinaryLess(p, q))
res = Engine(m.num_vars, m.propagators).propagate(m.new_store())
print(f"p < q with p=5, q in 1..5 -> failed={res.failed} (the p<q constraint, id {first})")
