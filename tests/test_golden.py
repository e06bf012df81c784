import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import inclined
import make_golden
from inclined import __version__

# Prints make_golden.run_set's digests of a run in the directory argv[1].
_RUN_SET = ("import json, sys, pathlib, make_golden; "
            "print(json.dumps(make_golden.run_set(pathlib.Path(sys.argv[1]))))")


def _one_cpu():
    # like `taskset -c 0`, on the first CPU this process may use
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# Each environment's BLAS thread count and start-up hook.  On one CPU the count
# is left to OpenBLAS, which follows the CPU affinity, and large files are read
# and written in one process, not two.
_ENVIRONMENTS = {"threads1": ({"OPENBLAS_NUM_THREADS": "1"}, None),
                 "threads2": ({"OPENBLAS_NUM_THREADS": "2"}, None), "one_cpu": ({}, _one_cpu)}


@pytest.fixture(scope="module")
def run_in(tmp_path_factory):
    """Runs the golden set once per environment, in one fresh interpreter,
    every command in process; returns its directory and digests."""
    @functools.cache
    def run(where):
        blas, preexec_fn = _ENVIRONMENTS[where]
        if preexec_fn is _one_cpu and not hasattr(os, "sched_setaffinity"):
            pytest.skip("no os.sched_setaffinity to run on one CPU")
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env.update(blas, PYTHONPATH=os.pathsep.join(
            [str(Path(inclined.__file__).parents[1]), str(Path(make_golden.__file__).parent)]))
        workdir = tmp_path_factory.mktemp(where)
        done = subprocess.run([sys.executable, "-c", _RUN_SET, str(workdir)], env=env,
                              capture_output=True, text=True, timeout=600, preexec_fn=preexec_fn)
        assert done.returncode == 0, done.stderr
        return workdir, json.loads(done.stdout)
    return run


def _changed_in(where, expected, digests):
    return [f"{where}: {name}" for name in make_golden.changed(expected, digests)]


@pytest.mark.parametrize("where", list(_ENVIRONMENTS))
def test_the_golden_set_keeps_every_byte(where, run_in):
    # Every exit code, stdout and file of tests/data/make_golden.py's commands
    # against the digests it recorded for this numpy and BLAS; for a pair it
    # has no set for, the three environments' runs against one another.
    golden = make_golden.load()
    assert golden["version"] == __version__, "rerun tests/data/make_golden.py"
    workdir, digests = run_in(where)
    # the digests demo records of its own files are the ones taken here
    summary = json.loads((workdir / "demo" / "demo_summary.json").read_text())
    assert {f"demo/{name}": digest for name, digest in summary["files"].items()}.items() \
        <= digests["files"].items()
    expected = golden["sets"].get(make_golden.environment_key())
    if expected is None:
        expected = run_in("threads2" if where == "threads1" else "threads1")[1]
    assert _changed_in(where, expected, digests) == []


def test_a_changed_digest_is_named_with_its_environment():
    expected = next(iter(make_golden.load()["sets"].values()))
    digests = {"commands": expected["commands"], "files": {**expected["files"], "cover.json": ""}}
    assert _changed_in("threads2", expected, digests) == ["threads2: cover.json"]
