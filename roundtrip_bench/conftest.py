"""A tiny round trip shared by the benchmark's tests.

The workforce has a few groups of up to 40 workers, so the fit takes
about a second, yet it has a single-gender group and recommends raises.
"""

import sys
import time

import pytest

import checks
import run
from workforce import Shape, generate

TINY = run.Workload(Shape(n_geos=2, n_gjs=2, n_jobs=4, size_exponent=0.5, max_size=40),
                    chains=2, warmup=30, samples=40, leapfrog_steps=8)
SEED = 3


@pytest.fixture(scope="session")
def tiny(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    wf = generate(TINY.shape, SEED)
    csv_path = root / "workforce.csv"
    wf.write_csv(csv_path)
    args = run.subcommand_args(TINY, SEED, csv_path, root)
    launcher = run.Launcher(time.monotonic() + 120.0)
    for cmd in run.SUBCOMMANDS:
        _, _, code, _ = launcher.run([sys.executable, "-m", "payequity.cli"] + args[cmd],
                                     root / ("%s.log" % cmd))
        assert code == 0, (root / ("%s.log" % cmd)).read_text()
    launcher.close()
    return wf, checks.Expected(wf), root
