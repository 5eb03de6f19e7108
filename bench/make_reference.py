"""Regenerate the verify-all reference snapshot.

Runs ``run_verify("all")`` at the default ``SuiteConfig`` for every
reference rng seed and stores each record's ``measured`` value.  The
snapshot in ``bench/reference/verify_measured.json`` was taken at the
commit named in the file; re-running this at a later commit is how a
deliberate change of a measured value would be recorded.

    python3 bench/make_reference.py
"""

import json
import sys

import harness

from verify_all import REFERENCE_PATH, REFERENCE_SEEDS, RTOL, ATOL


def main():
    hs = harness.import_program()
    doc = {
        "commit": harness.git_sha(),
        "rule": f"|measured - reference| <= {RTOL:g} * |reference| + {ATOL:g}",
        "seeds": {},
    }
    for rng_seed in REFERENCE_SEEDS:
        report = hs.run_verify("all", hs.SuiteConfig(rng_seed=rng_seed))
        if not report.passed:
            sys.exit(f"reference run for rng_seed={rng_seed} does not pass")
        doc["seeds"][str(rng_seed)] = {r.check_id: r.measured for r in report.records}
        print(rng_seed, flush=True)
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
