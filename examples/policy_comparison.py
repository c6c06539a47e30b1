#!/usr/bin/env python3
"""Compare all five policies on one workload mix (Figure 5 style).

Runs Table 2's workload #6 — one each of MVA, MATRIX and GRAVITY, the
heaviest mix — under every policy as one sweep (5 policies x 3 seeds,
each policy on the same seeds), then prints a relative-response-time
table against Equipartition and the Table 3 style affinity metrics.
Pass a cache to ``run_sweep`` (``repro.sweep.ResultCache``) and a rerun
is served from disk.

Run:  python examples/policy_comparison.py
"""

from repro import MIXES
from repro.reporting.tables import render_relative_rt_table, render_table3
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.cells import mix_comparison

MIX = 6


def main() -> None:
    spec = SweepSpec(
        name="policy-comparison",
        kind="mix",
        mixes=(MIX,),
        policies=(
            "Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-NoPri", "Dyn-Aff-Delay",
        ),
        seeds=3,
    )
    print(f"Running mix {dict(MIXES[MIX].copies)} under 5 policies x 3 seeds ...")
    comparison = mix_comparison(spec, run_sweep(spec).payloads, MIX)
    print()
    print(render_relative_rt_table(comparison))
    print()
    print(render_table3(comparison, policies=("Dynamic", "Dyn-Aff", "Dyn-Aff-Delay")))
    print()
    for policy in comparison.policies():
        mean = comparison.mean_response_time(policy)
        print(f"  mean job response time under {policy:14s}: {mean:6.1f} s")
    print()
    print(
        "Things to notice: the fair dynamic policies cluster tightly below\n"
        "Equipartition, while Dyn-Aff-NoPri is erratic — it favours whichever\n"
        "job happened to grab processors first (Figure 6's lesson)."
    )


if __name__ == "__main__":
    main()
