#!/usr/bin/env python3
"""Extrapolate policy behavior to future machines (Figures 8-13 style).

Parameterizes the extended response time model (Figure 7) from a live run
of workload #5 and sweeps processor-speed x cache-size over six decades,
printing each policy's relative-response-time curve and crossover point.

Run:  python examples/future_machines.py
"""

from repro.model import (
    DEFAULT_PENALTIES,
    FutureMachineModel,
    observations_from_comparison,
    sweep_relative,
)
from repro.reporting.figures import ascii_chart
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.cells import mix_comparison

MIX = 5
POLICIES = ("Dynamic", "Dyn-Aff", "Dyn-Aff-Delay")


def main() -> None:
    print(f"Parameterizing the model from workload #{MIX} runs ...")
    spec = SweepSpec(
        name="future-machines",
        kind="mix",
        mixes=(MIX,),
        policies=("Equipartition",) + POLICIES,
        seeds=3,
    )
    comparison = mix_comparison(spec, run_sweep(spec).payloads, MIX)
    observations = observations_from_comparison(comparison)
    model = FutureMachineModel(DEFAULT_PENALTIES)

    for job in comparison.job_names():
        sweeps = {
            policy: sweep_relative(
                model, observations[policy][job], observations["Equipartition"][job]
            )
            for policy in POLICIES
        }
        print()
        print(
            ascii_chart(
                {p: list(zip(s.products, s.ratios)) for p, s in sweeps.items()},
                title=f"{job}: response time relative to Equipartition",
                log_x=True,
                y_label="rel RT",
            )
        )
        for policy, sweep in sweeps.items():
            crossover = sweep.crossover_product()
            where = f"at ~{crossover:,.0f}x speed-cache" if crossover else "never (in range)"
            print(f"    {policy:14s} crosses above Equipartition {where}")

    print()
    print(
        "The oblivious Dynamic curve rises first: on fast machines its\n"
        "cache-blind reallocation erodes the utilization gains.  Dyn-Aff\n"
        "and especially Dyn-Aff-Delay keep the crossover far in the future\n"
        "— the paper's argument for building affinity into the allocator\n"
        "even though it buys nothing on current hardware."
    )


if __name__ == "__main__":
    main()
