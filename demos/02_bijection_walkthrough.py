"""One interval walked through the whole bijection, step by step.

Run with:  python3 demos/02_bijection_walkthrough.py
"""

from tamari import (
    from_tree_pair,
    interval_from_text,
    is_meandering_tree,
    to_interval,
    to_tree_pair,
)
from tamari.blossoming import closure, from_meandering, to_debug_text, to_meandering
from tamari.meandering import diagram_to_json, flawed_pairs, underlying_edges
from tamari.trees import tree_from_dyck

interval = interval_from_text("UDUDUD|UUUDDD")
print("interval          ", f"{interval!r}")

# Step 1: superimpose the two diagram drawings.  Every white point carries
# one upper arc (from the upper tree) and one lower arc (from the lower
# tree); the pair of endpoint arrays is the whole diagram.
m = from_tree_pair(interval.lower, interval.upper)
print("meandering diagram", diagram_to_json(m))
print("underlying edges  ", underlying_edges(m))
print("is a tree?        ", is_meandering_tree(m))

# A non-interval pair fails exactly by containing a flawed pair of arcs.
bad_low = tree_from_dyck("UUDD")
bad_up = tree_from_dyck("UDUD")
bad = from_tree_pair(bad_low, bad_up)
print("non-interval pair ", diagram_to_json(bad))
print("flawed pairs      ", flawed_pairs(bad))

# Step 2: unfold the meandering tree into a blossoming tree by granting
# each black point two buds.
b = from_meandering(m)
print("blossoming tree:")
print(to_debug_text(b))

# Step 3: closing the tree back up matches buds with legs planarly; the
# two leftover buds mark the ends of the meandric path, which alternates
# node ids and edge ids.
path = closure(b)
print("meandric path     ", path)
print("path ends at nodes", (path[0], path[-1]))
print("stretches back to ", diagram_to_json(to_meandering(b)))

# Round trip.
print("round trip ok?    ", to_interval(b) == interval and to_tree_pair(m) == (interval.lower, interval.upper))
