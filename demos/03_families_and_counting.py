"""Family classifiers, closed counting formulas, and their agreement.

Run with:  python3 demos/03_families_and_counting.py
"""

from tamari import Family, count, count_self_dual, tally, trivariate_coefficients
from tamari.counting import count_by_canopy_matches

print("counts by closed formula:")
header = f"{'n':>3} " + "".join(f"{f.value:>22}" for f in Family)
print(header)
for n in range(1, 9):
    row = f"{n:>3} " + "".join(f"{count(f, n):>22}" for f in Family)
    print(row)

print("\nself-dual counts (Table formulas):")
print(header)
for n in range(1, 9):
    row = f"{n:>3} " + "".join(f"{count_self_dual(f, n):>22}" for f in Family)
    print(row)

# The tally recomputes every count by brute force with the direct
# classifiers; `tamari verify` holds them to the forbidden-pattern
# classifiers on the blossoming side, interval by interval.
print("\nbrute force at n = 5:")
result = tally(5)
for family in Family:
    print(f"  {family.value:22} {result.families[family]:6}  (formula {count(family, 5)})")
print(f"  self-dual total        {result.self_dual_total:6}  (formula {count_self_dual(Family.GENERAL, 5)})")

# Refinement by the number of positions where the two canopies agree.
print("\nintervals of size 5 by canopy agreements (k + 2 positions):")
for k in range(5):
    print(f"  k = {k}: {count_by_canopy_matches(5, k)}")

# The trivariate coefficients refine further, by all three joint types.
print("\njoint canopy type refinement at n = 3:")
for (i, j, m), value in trivariate_coefficients(4).items():
    if i + j + m == 4:
        print(f"  types (11, 00, 10) = ({i}, {j}, {m}): {value}")
