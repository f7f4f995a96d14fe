"""Polynomial deciders for one-vertex targets.

Covering F(k, m), one vertex with k semi-edges and m loops, never needs
exhaustive search when k <= 1 (any number of loops) or (k, m) = (2, 0);
each such case reduces to degrees, matchings or 2-factors.  The front
door decide_colored picks the decider from the dichotomy table and
reports which reduction it used.
"""

from semicover import (build_F, cycle, decide_colored, disjoint_union,
                       petersen, verify_cover)

from _stdout import run_demo


def show(name, g, fk, fm):
    h = build_F(fk, fm)
    v = decide_colored(g, h)
    line = f"{name:>14} -> F({fk},{fm}): {'yes' if v.answer else 'no '}"
    line += f"  via {v.method}"
    if not v.answer and v.reason:
        line += f"  ({v.reason})"
    if v.answer:
        assert verify_cover(g, h, v.witness) == []
    print(line)


def main():
    print("F(0,1) is one loop; its covers are the cycles:")
    show("C5", cycle(5), 0, 1)
    show("C3 + C8", disjoint_union([cycle(3), cycle(8)]), 0, 1)

    print("\nF(1,1) has degree 3; covers are cubic graphs with a")
    print("perfect matching (the loop lifts to the 2-factor left over):")
    show("Petersen", petersen(), 1, 1)
    show("C4", cycle(4), 1, 1)

    print("\nF(2,0) forces 2-regular plus a proper 2-edge-coloring,")
    print("so odd cycles fail:")
    show("C6", cycle(6), 2, 0)
    show("C5", cycle(5), 2, 0)


if __name__ == "__main__":
    run_demo(main)
