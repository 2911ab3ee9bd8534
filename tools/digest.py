#!/usr/bin/env python3
"""Print one SHA-256 per output family of a checkout, so that two checkouts
can be compared bit for bit:

    python3 tools/digest.py CHECKOUT
    python3 tools/digest.py BASE HEAD

CHECKOUT is the root of a checkout (``.`` for this one).  Its package is
imported from ``CHECKOUT/src`` and its benchmark workloads from
``CHECKOUT/bench``, with BLAS pinned to one thread as in a benchmark run.
Given two checkouts, each is digested in its own interpreter, and each
family's line shows both digests and ``same`` or ``differs``; the exit
status is 1 when any family differs.  The families are

- equiconv: every report row (m, nu, norm_diff), ``M_est``,
  ``det_residual``, and of both root systems the root and dual vectors
  ``Y``, ``Z`` and the eigenvalues, multiplicities and diagnostics of
  their localization, for the four equiconv configs at f seeds 0 and 5;
- spectrum: the eigenvalues, multiplicities and diagnostics of the three
  spectrum problems, and the winding number and Rouche margin of each
  circle that validation recorded, as sorted (center, radius, winding) and
  (center, radius, margin);
- resolvent: the rows of the resolvent ops (operator-norm estimates and
  slopes, contour partial sums) at f seeds 0-7.

A digest covers the bit patterns of every number, so a change that claims
unchanged results must print the same three lines as its parent.  Nothing
is written.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys

EQUICONV_SEEDS = (0, 5)
RESOLVENT_SEEDS = range(8)


def _feed(h, value):
    """Add the type, shape and bits of value to the hash h; lists and
    tuples are fed item by item, in order."""
    # imported here, after import_package has pinned BLAS
    import numpy as np
    if isinstance(value, (list, tuple)):
        h.update(f"seq {len(value)};".encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, str):
        h.update(f"str {len(value)};".encode() + value.encode())
    else:
        a = np.ascontiguousarray(value)
        h.update(f"{a.dtype.str} {a.shape};".encode() + a.tobytes())


def equiconv(workloads):
    h = hashlib.sha256()
    for seed in EQUICONV_SEEDS:
        w = workloads.Equiconv(seed, {})
        with w.hooks():
            for op in w.ops:
                report, rs, rs0 = op.run()
                _feed(h, [op.key, [(r["m"], r["nu"], r["norm_diff"])
                                   for r in report.rows],
                          report.metadata["M_est"],
                          report.metadata["det_residual"],
                          rs.Y, rs.Z, rs0.Y, rs0.Z,
                          _eigenvalues(rs.eigs), _eigenvalues(rs0.eigs)])
    return h.hexdigest()


def _eigenvalues(eigs):
    """The indices, eigenvalues, multiplicities and diagnostics of an
    EigenvalueList, in index order."""
    n = sorted(eigs.values)
    return [n, [eigs.values[k] for k in n],
            [eigs.multiplicity[k] for k in n], eigs.diagnostics]


def spectrum(workloads):
    h = hashlib.sha256()
    w = workloads.Spectrum(0, {})
    for op in w.ops:
        eigs, _ = op.run()
        windings, margins = (sorted(
            ((c.center.real, c.center.imag, c.radius), v)
            for c, v in record.items())
            for record in (eigs.windings, eigs.margins))
        _feed(h, [op.key, *_eigenvalues(eigs), windings, margins])
    return h.hexdigest()


def resolvent(workloads):
    h = hashlib.sha256()
    for seed in RESOLVENT_SEEDS:
        w = workloads.Resolvent(seed, {})
        for op in w.ops:
            _feed(h, [op.key, op.rows(op.run())])
    return h.hexdigest()


def _digests(checkout):
    """{family: digest} of a checkout, from this script run on it in a new
    interpreter, which imports that checkout's package and nothing else."""
    cmd = ([sys.executable] + [f"-W{w}" for w in sys.warnoptions]
           + [os.path.abspath(__file__), checkout])
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                         text=True).stdout
    return dict(line.split() for line in out.splitlines())


def compare(base, head):
    """Print each family's digests in base and head; 1 if any differs."""
    old, new = _digests(base), _digests(head)
    differs = False
    for family, digest in old.items():
        same = new.get(family) == digest
        differs |= not same
        print(f"{family} {digest} {new.get(family)} "
              f"{'same' if same else 'differs'}", flush=True)
    return 1 if differs else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkout", help="root of the checkout to digest, "
                        "or of the base checkout when head is given")
    parser.add_argument("head", nargs="?",
                        help="root of a second checkout to compare with")
    args = parser.parse_args(argv)
    if args.head is not None:
        return compare(args.checkout, args.head)
    bench = os.path.join(os.path.abspath(args.checkout), "bench")
    sys.path.insert(0, bench)
    # pins BLAS and imports the package from the checkout's src/
    from run import import_package
    import_package()
    import workloads
    for family in (equiconv, spectrum, resolvent):
        print(f"{family.__name__} {family(workloads)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
