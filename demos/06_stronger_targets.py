"""Comparing targets by their sets of simple covers.

Target A is stronger than B when every connected simple graph covering
A also covers B.  The check enumerates all candidate covers of A up to
a vertex bound and tests each against B, so a "stronger" verdict is
evidence up to that order while a counterexample is a proof.
"""

from semicover import (build_F, build_W, check_equivalent, check_stronger,
                       enumerate_simple_covers, isomorphic, petersen)

from _stdout import run_demo


def main():
    rep = check_stronger(build_F(2, 0), build_F(0, 1), 10)
    print("F(2,0) stronger than F(0,1) up to 10 vertices:", rep.stronger)
    print(f"  ({rep.covers_found} covers of F(2,0) found, all even cycles,")
    print("   and every one of them wraps around the loop)")

    fwd, back = check_equivalent(build_W(0, 0, 2, 0, 0), build_F(2, 0), 10)
    print("\nW(0,0,2) equivalent to F(2,0) up to 10 vertices:",
          fwd.stronger and back.stronger)
    orders = [g.n for g in enumerate_simple_covers(build_F(2, 0), 10)]
    print(f"  shared cover orders: {orders} (the even cycles)")

    rep = check_stronger(build_F(1, 1), build_F(3, 0), 10)
    print("\nF(1,1) stronger than F(3,0)?", rep.stronger)
    ce = rep.counterexample
    print(f"  counterexample on {ce.n} vertices, "
          f"isomorphic to Petersen: {isomorphic(ce, petersen())}")
    print("  (cubic with a perfect matching yet not 3-edge-colorable)")


if __name__ == "__main__":
    run_demo(main)
