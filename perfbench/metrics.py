"""Every metric the benchmark reports: name, unit, better direction, and
for a per-layer metric the end-to-end metric and workload it should move.

This table is the source of ``BENCHMARK.json``; running this file prints
the JSON that belongs there, and test_perfbench.py checks that the
committed file matches.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

WORKLOADS = [
    ("poly-lifts", "decide_colored on seeded lifts and rewired lifts of the 11 polynomial "
                   "targets, 1e2-1e4 darts, parsed from text: matching, 2-SAT and decider "
                   "time, no exact search"),
    ("np-search", "find_cover and the decide_colored fallback on cubic graphs, flower "
                  "snarks and lifts of NP-complete targets: nearly all time in exact "
                  "search, yes and no mixed"),
    ("components", "decide with witnesses on disconnected inputs: equitable bin packing "
                   "(many repeated component pairs) and cubic unions (few): thousands of "
                   "tiny decider calls"),
    ("enumerate", "connected graph generation and check_stronger: the only workload where "
                  "canon and generate do the work; same inputs for every seed"),
]

# (name, unit, better, bound).  Times are scaled to the reference speed of
# speed.py.  Even so, ten runs on ten seeds spread by up to 0.18 (quartile
# distance over median) on a shared 2-vCPU VM, hence bounds of 0.25.
END_TO_END = [
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p95_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better, what it should move)
PER_LAYER = [
    ("matching.max_weight_matching.calls", "count", "lower",
     "op_p95_ms, ops_per_s on poly-lifts (one-semi-edge targets); ~0 on np-search, enumerate"),
    ("matching.max_weight_matching.self_s", "s", "lower", "same as .calls"),
    ("matching.max_weight_matching.nodes", "count", "lower", "same as .calls"),
    ("matching.max_weight_matching.busy_share", "ratio", "lower",
     "share of traced busy time inside networkx blossom; ops_per_s on poly-lifts"),
    ("matching.konig_split.calls", "count", "lower",
     "ops_per_s on poly-lifts (2-factor, bar, directed targets) and components"),
    ("matching.konig_split.self_s", "s", "lower", "same as .calls"),
    ("matching.konig_split.links", "count", "lower", "same as .calls"),
    ("matching.kuhn_matching.calls", "count", "lower",
     "poly-lifts, and pattern matching on components"),
    ("matching.kuhn_matching.self_s", "s", "lower", "same as .calls"),
    ("matching.exact_link_cover.self_s", "s", "lower", "poly-lifts, components"),
    ("matching.two_factor_orientations.self_s", "s", "lower",
     "poly-lifts, components (cycles onto F(0,1))"),
    ("twosat.two_sat_solve.calls", "count", "lower", "ops_per_s on poly-lifts (W/WD targets)"),
    ("twosat.two_sat_solve.self_s", "s", "lower", "same as .calls"),
    ("twosat.two_sat_solve.clauses", "count", "lower", "same as .calls"),
    ("deciders.one_vertex.self_s", "s", "lower",
     "poly-lifts; per-call overhead on components"),
    ("deciders.two_vertex_nonregular.self_s", "s", "lower", "same as deciders.one_vertex"),
    ("deciders.two_vertex_2sat.self_s", "s", "lower", "same as deciders.one_vertex"),
    ("dichotomy.classify.calls", "count", "lower",
     "ops_per_s on components (one classify per pattern pair); np-search fallback"),
    ("dichotomy.classify.self_s", "s", "lower", "same as .calls"),
    ("dichotomy.decide_colored.calls", "count", "lower", "same as dichotomy.classify.calls"),
    ("dichotomy.fallback_ratio", "ratio", "lower",
     "decide_colored calls answered by exact search / decide_colored.calls; np-search"),
    ("disconnected.build_pattern.self_s", "s", "lower",
     "ops_per_s, op_p95_ms on components; ~0 elsewhere"),
    ("disconnected.pairs_tried", "count", "lower", "same as build_pattern"),
    ("disconnected.pairs_skipped", "count", "higher",
     "pairs cut by the divisibility filter; same as build_pattern"),
    ("disconnected.pattern_hit_ratio", "ratio", "higher",
     "pattern edges / pairs_tried; same as build_pattern"),
    ("disconnected.repeat_pair_share", "ratio", "higher",
     "input property: tried pairs whose (source class, target class) pair came "
     "earlier in the same op / tried pairs; what solving each class once can save"),
    ("disconnected.repeat_pair_share.binpacking", "ratio", "higher",
     "the same for the bin-packing half of components"),
    ("disconnected.repeat_pair_share.cubic", "ratio", "higher",
     "the same for the cubic-union half of components"),
    ("disconnected.decide_equitable.self_s", "s", "lower", "ops_per_s on components"),
    ("disconnected.decide_surjective.self_s", "s", "lower", "ops_per_s on components"),
    ("cover.find_cover.calls", "count", "lower",
     "ops_per_s, op_p95_ms on np-search; ops_per_s on enumerate (stronger); ~0 on poly-lifts"),
    ("cover.find_cover.self_s", "s", "lower", "same as .calls"),
    ("cover.find_cover.darts", "count", "lower", "same as .calls"),
    ("cover.find_cover.hit_ratio", "ratio", "higher", "covers found / find_cover.calls"),
    ("cover.verify_cover.calls", "count", "lower",
     "witness check inside the library; a share of every workload, must stay"),
    ("cover.verify_cover.self_s", "s", "lower", "same as .calls"),
    ("canon.CanonicalSet.add.calls", "count", "lower",
     "generate.classes_per_s on enumerate; ~0 elsewhere"),
    ("canon.CanonicalSet.add.self_s", "s", "lower", "same as .calls"),
    ("canon.new_ratio", "ratio", "higher", "adds that were new / CanonicalSet.add.calls"),
    ("generate.self_s", "s", "lower", "generate.classes_per_s on enumerate"),
    ("generate.classes_per_s", "1/s", "higher",
     "isomorphism classes emitted per second of generation ops, untraced; enumerate"),
    ("graph.Graph.calls", "count", "lower", "components (many small graphs), poly-lifts"),
    ("graph.Graph.self_s", "s", "lower", "same as .calls"),
    ("graph.parse_graph.self_s", "s", "lower", "poly-lifts (each op parses its input)"),
    ("graph.components.calls", "count", "lower", "components, poly-lifts"),
    ("graph.components.self_s", "s", "lower", "same as .calls"),
    ("graph.induced_subgraph.self_s", "s", "lower",
     "induced_link_subgraph + induced_vertex_subgraph; poly-lifts"),
    ("stronger.check_stronger.self_s", "s", "lower", "ops_per_s on enumerate"),
    ("stronger.generated", "count", "lower", "candidates generated by check_stronger"),
    ("stronger.covers_found", "count", "lower", "candidates covering the first base"),
    ("trace.overhead_ratio", "ratio", "lower",
     "traced busy time / untraced busy time of the same ops, minus 1, both "
     "scaled to the reference speed"),
    ("trace.traced_busy_s", "s", "lower", "base of the traced ratios"),
    ("trace.untraced_busy_s", "s", "lower", "base of trace.overhead_ratio"),
    ("trace.harness_self_s", "s", "lower",
     "time inside ops but outside every traced layer"),
    ("ops.attempted", "count", "higher", "base of ops.failed_ratio and input.yes_share"),
    ("ops.failed_ratio", "ratio", "lower",
     "failed ops / attempted ops; 0 at the commit that defined the benchmark"),
    ("input.yes_share", "ratio", "higher", "input property: yes answers / yes-no answers"),
    ("input.darts_p50", "count", "higher", "input property: median source darts per op"),
    ("input.darts_max", "count", "higher", "input property: largest source in darts"),
    ("probes.recursion_errors", "count", "lower",
     "known-defect inputs that raised RecursionError, run outside the measured loop"),
    ("probes.attempted", "count", "higher", "base of probes.recursion_errors"),
]


def bench_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(bench_json(), indent=2))
