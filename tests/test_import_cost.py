"""What a fresh process pays for ``import glmmkit``: the modules it loads,
and the page faults of the heap it leaves for the quadrature sweeps.

Each command-line subcommand is its own process, so the import is paid
on every call.  Both checks run in a subprocess, away from the modules
and the heap of the test session.
"""

import os
import subprocess
import sys

import pytest

import glmmkit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(glmmkit.__file__)))


def _python(code):
    """The last line ``code`` prints, run by a fresh interpreter that
    imports this glmmkit on one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return done.stdout.strip().splitlines()[-1]


def test_import_loads_neither_scipy_stats_nor_scipy_optimize():
    # scipy.stats served two normal tails, and scipy.optimize an L-BFGS-B
    # that most fits never run; together they were over half the import
    loaded = _python(
        "import glmmkit, sys; print(sorted(m for m in sys.modules if "
        "m.startswith(('scipy.stats', 'scipy.optimize'))))")
    assert loaded == "[]"


FAULTS = """
import resource
from glmmkit import estfun, hessian, load_fitted, make_glmm_data

sim = make_glmm_data("binomial", beta=(0.2, 0.8), random="slope",
                     theta=(1, 0, 1), n_clusters=40, cluster_size=10,
                     seed=11)
fitted = load_fitted((0.2, 0.8), (1.0, 0.0, 1.0), sim.data, "binomial",
                     n_points=7)
hessian(fitted, n_points=7)
estfun(fitted, n_points=7)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(30):
    hessian(fitted, n_points=7)
    estfun(fitted, n_points=7)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor page-fault counts are read on Linux")
def test_the_sweeps_node_blocks_stay_on_the_heap():
    # the (400, 49) node blocks of the M = 7 sweep, 157 KB each, are above
    # glibc's first mmap threshold; mapped afresh at every call they
    # page-fault about 15,000 times in these 30 rounds, against none once
    # the block freed at import has raised the threshold
    assert int(_python(FAULTS)) < 500
