"""Self-test of the benchmark's op checks: corrupted combs must fail.

    python3 bench/selftest.py

Feeds a one-entry 1e-3 kick and a NaN kick into the comb that
``gate_check_d4`` and ``sdp_rederive`` hand to the library, runs two set-ups
and one op cycle of each, and requires ``failed_frac > 0``; the same run
without corruption must have ``failed_frac == 0``.  Exits 1 if any case
disagrees.
"""

from __future__ import annotations

import sys

import run


def kick(choi):
    """Hermitian 1e-3 perturbation of one off-diagonal entry pair."""
    bad = choi.copy()
    bad[0, 1] += 1e-3
    bad[1, 0] += 1e-3
    return bad


def nan_kick(choi):
    bad = choi.copy()
    bad[0, 1] = float("nan")
    return bad


def main() -> int:
    run.prepare()
    from workloads import WORKLOADS

    ok = True
    for name in ("gate_check_d4", "sdp_rederive"):
        wl = WORKLOADS[name]
        for label, corrupt, want_failures in (("clean", None, False), ("kick_1e-3", kick, True),
                                              ("nan", nan_kick, True)):
            summary = run.summarize(run.run_phase(wl, seed=0, seconds=0.0, corrupt=corrupt,
                                                  max_ops=wl.cycle, setups=2))
            frac = summary["failed_frac"]
            good = (frac > 0) if want_failures else (frac == 0)
            ok = ok and good
            reasons = sorted({o["error"].split(":")[0] if o["error"]
                              else ",".join(c[0] for c in o["failed_checks"])
                              for o in summary["failures"]})
            print(f"{'ok  ' if good else 'FAIL'} {name:<14} {label:<10} "
                  f"failed_frac={frac:.3f} caught by: {reasons}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
