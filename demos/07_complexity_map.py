"""The polynomial versus NP-complete frontier for small targets.

classify() names the complexity of deciding covers of a fixed connected
target with one or two vertices, splitting it into color classes and
citing the inequality that settles each piece.
"""

from semicover import build_F, build_W, build_WD, classify

from _stdout import run_demo


def main():
    print("One-vertex targets F(semis, loops):")
    for k in range(4):
        row = []
        for m in range(4):
            row.append(f"F({k},{m})={classify(build_F(k, m)).verdict:<12}")
        print("  " + " ".join(row))
    print("  (hard exactly when semis >= 2 and semis + loops >= 3)")

    print("\nSome two-vertex targets:")
    table = [
        ("W(0,0,3,0,0)", build_W(0, 0, 3, 0, 0)),
        ("W(1,0,1,0,1)", build_W(1, 0, 1, 0, 1)),
        ("W(1,1,1,1,1)", build_W(1, 1, 1, 1, 1)),
        ("WD(1,1,1)", build_WD(1, 1, 1)),
        ("WD(1,2,1)", build_WD(1, 2, 1)),
    ]
    for name, h in table:
        cls = classify(h)
        print(f"  {name:<13} {cls.verdict}")

    print("\nWhy W(1,1,1,1,1) is hard:")
    for rule in classify(build_W(1, 1, 1, 1, 1)).rules:
        print(f"  {rule}")


if __name__ == "__main__":
    run_demo(main)
