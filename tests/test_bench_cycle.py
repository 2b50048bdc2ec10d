"""One cycle of each benchmark workload at the default seed, checked op by op.

The benchmark refuses a run whose inputs moved or whose ops fail their
checks; this runs the same builders and checks in the test suite, so such a
change fails here first.  It reads ``bench/`` and writes only to ``tmp_path``.
"""

import ast
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))

from workloads import BUILDERS, digest  # noqa: E402

SEED = 1506  # bench/run.py DEFAULT_SEED, the seed of bench/input_digests.json
RECORDED = json.loads((BENCH / "input_digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_one_benchmark_cycle_is_correct(tmp_path, name):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    wl = BUILDERS[name](SEED, False, str(tmp_path), env, ROOT)
    assert digest(wl.reprs) == RECORDED[name]
    assert wl.ops
    failures = {op.label: reason for op in wl.ops if (reason := op.check(op.run(None))) is not None}
    assert not failures


def test_the_generators_the_benchmark_imports_import_only_json_numpy_and_the_library():
    """bench/workloads.py imports tests/genutil.py, so each module genutil imports lands in every workload's peak RSS.

    A ``from unittest import mock`` there once raised peak_rss_mb by 7 to 10% on all four workloads.
    """
    tree = ast.parse((ROOT / "tests" / "genutil.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert {name.split(".")[0] for name in imported} <= {"json", "numpy", "stieltjeskit"}, imported
