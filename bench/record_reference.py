#!/usr/bin/env python3
"""Record the reference rows that the benchmark's output checks compare
against, for every input the benchmark can make (each workload at every
seed in the pool).

    python3 bench/record_reference.py

Rows come from the sources in this checkout and replace the whole of
reference.json.  Record them again only when a change is meant to alter
results; a speed-up must reproduce them to 1e-10 relative.
"""
from __future__ import annotations

import argparse
import json
import sys

from run import import_package, machine_facts


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(
        argv)
    import_package()
    import workloads
    reference = {}
    for w_cls in workloads.RECORDED:
        for seed in range(workloads.F_POOL):
            w = w_cls(seed, reference)
            with w.hooks():
                for op in w.ops:
                    rows = w.reference_rows(op, op.run())
                    for key, values in rows.items():
                        reference[key] = workloads.rows_to_json(values)
                    print(f"{w.name} seed {seed}: {', '.join(rows)}",
                          flush=True)
    reference["_recorded_with"] = machine_facts(None, None, None)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
