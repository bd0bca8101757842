"""Run the shard fuzzer over many hypothesis seeds, to find examples that tier-1's one seed misses.

    PYTHONPATH=src python tools/fuzz_sweep.py [--examples N] [SEED ...]

For each hypothesis seed (by default 77, 991 and 2-9) it draws N examples
(default 150) from the shard_configs strategy of tests/test_simengine.py and
checks each with _check_shards, as the tier-1 shard fuzzer does: forked and
in-process files, the trace's metrics and observation log, each shard alone
(with no advance_to target past the scenario's end), beside the others,
renumbered, and run queued only: under the tests' _queued_only hook a
stretch ends where it starts, so the cycle loop queues every dwell end
through its own stretch-end path. No example is shrunk, and a failure does
not stop the seed. For each failure it prints the seeds, the config as JSON,
the error, and the first line where each device's shard run alone differs
from the same shard run queued only. It exits 1 if any seed fails.

A 150-example seed takes ~40-70 s on a 2-vCPU host, so it is run by hand,
not by tier-1.
"""

import argparse
import io
import json
import os
import sys
import time
import traceback
from contextlib import redirect_stdout
from itertools import zip_longest
from pathlib import Path
from unittest.mock import patch

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
os.chdir(ROOT)  # the tests read configs/ by relative path

from hypothesis import HealthCheck, Phase, given, seed as hypothesis_seed, settings, strategies as st  # noqa: E402

from openhealth.simengine import SimDevice  # noqa: E402
from test_simengine import _body, _check_shards, _drawn_once, _queued_only, shard_configs  # noqa: E402


def first_differences(raw, seed):
    """Each device's (index, in place, queued only) of the first body line where its shard alone, run in
    place, differs from it run queued only (_queued_only: every stretch ends where it starts, so every
    dwell end is a queued entry); None where none does."""
    found = {}
    for device in raw["scenario"]["devices"]:
        alone = dict(raw, scenario=dict(raw["scenario"], devices=[device]))
        in_place = _body(alone, seed)
        with _queued_only():
            queued = _body(alone, seed)
        pairs = enumerate(zip_longest(in_place, queued))  # None past the shorter body's end
        found[device["id"]] = next(((i, a, b) for i, (a, b) in pairs if a != b), None)
    return found


def sweep(hyp_seed: int, examples: int) -> list[tuple[dict, int, str]]:
    """The (config, scenario seed, error) of each failing example of one hypothesis seed."""
    failures = []

    @hypothesis_seed(hyp_seed)
    @settings(max_examples=examples, deadline=None, database=None, suppress_health_check=list(HealthCheck),
              phases=[phase for phase in Phase if phase is not Phase.shrink])
    @given(raw=shard_configs(), seed=st.integers(0, 2**32), data=st.data())
    def check(raw, seed, data):
        try:
            with redirect_stdout(io.StringIO()), patch.object(SimDevice, "_window_samples",
                                                              _drawn_once(SimDevice._window_samples)):
                _check_shards(raw, seed, data)  # simulate's summary lines are not the sweep's
        except Exception:  # noqa: BLE001 - noted, and the seed goes on
            failures.append((raw, seed, traceback.format_exc(limit=-1).strip()))

    check()
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[77, 991, *range(2, 10)], help="hypothesis seeds")
    parser.add_argument("--examples", type=int, default=150, help="examples per seed")
    args = parser.parse_args()
    failed = 0
    for hyp_seed in args.seeds:
        start = time.perf_counter()
        failures = sweep(hyp_seed, args.examples)
        print(f"seed {hyp_seed}: {args.examples} examples, {len(failures)} failed, "
              f"{time.perf_counter() - start:.1f} s", flush=True)
        for raw, seed, error in failures:
            print(f"  scenario seed {seed}\n  raw = {json.dumps(raw)}\n  {error}")
            for device_id, diff in first_differences(raw, seed).items():
                if diff is None:
                    print(f"  dev{device_id}: in place and queued only are the same")
                else:
                    i, in_place, queued = diff
                    print(f"  dev{device_id}: body line {i} differs\n    in place:    {in_place}\n"
                          f"    queued only: {queued}")
        failed += bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
