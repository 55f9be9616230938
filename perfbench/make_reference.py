"""Regenerate reference.json, the verdicts every benchmark pass is gated on.

    python3 perfbench/make_reference.py

Run it only when the library's verdicts are meant to change, and review
the diff.  Floating-point residuals of the linear backends are left
out, so a change that reorders sums does not read as a mismatch;
set-backend residuals are exact counts and are kept.
"""
import json

import workloads
from putget import registry
from putget.finsets import SetType


def _exact(workload: str, item: str) -> bool:
    if workload == "registry":
        return isinstance(registry.build_example(item).system, SetType)
    return workload == "set_scale"


def main() -> None:
    reference = {}
    for workload in workloads.WORKLOADS:
        seeds = range(workloads.SET_VARIANTS) if workload == "set_scale" else (0,)
        for seed in seeds:
            inputs = workloads.make_inputs(workload, seed)
            verdicts = workloads.run_pass(workload, inputs)
            for item, verdict in verdicts.items():
                if not _exact(workload, item):
                    verdict.pop("residuals")
            key = workloads.reference_key(workload, inputs)
            reference.setdefault(workload, {})[key] = verdicts
    with workloads.REFERENCE.open("w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
