"""Three semantics for covers of disconnected graphs.

Once G or H has several components, "G covers H" forks into three
inequivalent readings: every component of G covers some component of H
(lbhom), additionally every component of H is hit (surjective), or the
stronger equitable form where all vertex fibers share one size.  The
component-versus-component answers form a bipartite pattern; the three
readings are properties of that pattern.
"""

import json

from semicover import build_F, cycle, decide, disjoint_union, gen_binpacking

from _stdout import run_demo


def main():
    g = disjoint_union([cycle(3), cycle(4)])
    h = disjoint_union([build_F(0, 1), build_F(2, 0)])
    print("G = C3 + C4, H = loop + two-semis (both 2-regular targets).")
    d = decide(g, h, "lbhom")
    print("pattern:", json.dumps(d.pattern.as_json()["weights"]))

    for semantics in ("lbhom", "surjective", "equitable"):
        d = decide(g, h, semantics)
        verdict = "yes" if d.answer else "no"
        tail = f"  ({d.reason})" if d.reason else ""
        print(f"{semantics:>11}: {verdict}{tail}")
    print("Equitable fails because 7 vertices cannot spread evenly")
    print("over 2 target vertices.")

    print("\nEquitable covering onto disjoint loops is bin packing:")
    xs, bins = [3, 3, 2, 2, 2], 2
    g, h = gen_binpacking(xs, bins)
    d = decide(g, h, "equitable")
    print(f"items {xs} into {bins} equal bins: {'yes' if d.answer else 'no'}")
    print(f"assignment of cycles to loops: {d.sigma}")

    xs = [3, 3, 3]
    g, h = gen_binpacking(xs, 2)
    d = decide(g, h, "equitable")
    print(f"items {xs} into 2 equal bins: {'yes' if d.answer else 'no'}")


if __name__ == "__main__":
    run_demo(main)
