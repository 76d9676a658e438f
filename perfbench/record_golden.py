"""Rewrite perfbench/golden.json from the current source.

    python3 perfbench/record_golden.py

The digests pin every workload's outputs bit for bit, and every benchmark
run compares against them.  Re-record only when a change is meant to alter
outputs, and say so in that change.
"""
from __future__ import annotations

import json

import run


def main() -> None:
    run.use_checkout_source()
    import workloads

    golden = {}
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, 0, {name: {}})
        golden[name] = {
            case: workload.digest(item, workload.run(item))
            for case, item in workload.golden_cases().items()
        }
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(golden, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
