"""Tour of the state layer: finite domains, shrinking operations, and the
trail that makes backtracking exact.

Run:  python demos/01_domains_and_backtracking.py
"""

from fdsearch import ChangeOutcome, DomainStore, FiniteDomain

print("== domains are anchored bitsets ==")
d = FiniteDomain.from_values([2, 3, 5, 8])
print(f"domain {d}: min={d.min} max={d.max} size={d.size}")

store = DomainStore([FiniteDomain(1, 4), FiniteDomain.from_values([2, 3, 5, 8])])
print("\n== shrinking operations report what happened ==")
print("remove 3 from x1      ->", store.remove_value(1, 3).name)
print("remove 3 again        ->", store.remove_value(1, 3).name, "(already gone)")
print("assign x0 := 2        ->", store.assign(0, 2).name)
print("x0 is now", store.domains[0])

print("\n== a shrink that would empty a domain never happens ==")
out = store.assign(0, 4)
print("assign x0 := 4        ->", out.name)
assert out is ChangeOutcome.WOULD_EMPTY
print("x0 is still", store.domains[0], "- the caller treats WOULD_EMPTY as failure")

print("\n== the trail restores levels exactly ==")
store = DomainStore([FiniteDomain(1, 4), FiniteDomain(1, 4)])
level = store.push_level()
print(f"pushed level {level}; making a mess ...")
store.assign(0, 3)
store.tighten_max(1, 2)
print("  x0 =", store.domains[0], " x1 =", store.domains[1])
store.restore_to(level)
print(f"restored level {level}:")
print("  x0 =", store.domains[0], " x1 =", store.domains[1])

print("\n== the search-space measure lives in log space ==")
print("log of product of domain sizes:", round(store.search_space_log_size(), 4))
store.assign(0, 1)
print("after binding x0:              ", round(store.search_space_log_size(), 4))
