"""Activity probing: random root-to-leaf probes estimate mean variable
activity; probing stops once the 95% t-confidence interval of every mean
is within delta of it.  Smaller delta -> more probes -> steadier start.

Run:  python demos/05_probing_and_activity.py
"""

from collections import Counter

from fdsearch import HeuristicConfig, build_magic_square, probe_activities

MODEL = "magic square 5x5"

print(f"probing {MODEL} at different confidence widths\n")
print(f"{'delta':>6} {'probes':>7} {'most active variables (top 5)':<40}")
for delta in (0.8, 0.4, 0.2, 0.1, 0.05):
    config = HeuristicConfig(kind="abs", delta=delta)
    activities, fixed, stats = probe_activities(
        build_magic_square(5), config, seed=1
    )
    top = sorted(range(len(activities)), key=lambda x: -activities[x])[:5]
    summary = ", ".join(f"x{x}={activities[x]:.2f}" for x in top)
    print(f"{delta:>6} {stats.probes:>7} {summary:<40}")

print("\nactivity histogram at delta=0.2 (root-fixed variables excluded):")
config = HeuristicConfig(kind="abs", delta=0.2)
activities, fixed, stats = probe_activities(build_magic_square(5), config, seed=1)
buckets = Counter(round(a) for a, fx in zip(activities, fixed) if not fx)
for level in sorted(buckets):
    print(f"  activity ~{level:>2}: {'#' * buckets[level]}")
print("\nthe same dump is available from the command line:")
print("  bench activities --bench msq:5 --seed 1 --out activities.csv")
