"""OpenBLAS's idle-thread timeout, set only while `import vortexcert` loads numpy.

Each test runs a fresh interpreter: pytest has imported numpy already, and
OpenBLAS reads the timeout once, when numpy loads it.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vortexcert

TIMEOUT_VARS = ("OPENBLAS_THREAD_TIMEOUT", "GOTO_THREAD_TIMEOUT")


def _env(**extra) -> dict:
    """os.environ with the package on the path, no timeout unless given."""
    src = str(Path(vortexcert.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in TIMEOUT_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(extra)
    return env


def _python(code: str, env: dict, *args: str) -> str:
    res = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout


_ENVIRON = """
import json, os, subprocess, sys
before = dict(os.environ)
import vortexcert
assert "numpy" in sys.modules
child = subprocess.run([sys.executable, "-c", "import os, json; "
                        "print(json.dumps({k: os.environ.get(k) for k in %r}))"],
                       capture_output=True, text=True, check=True).stdout
print(json.dumps({"unchanged": dict(os.environ) == before,
                  "timeouts": {k: os.environ.get(k) for k in %r},
                  "child": json.loads(child)}))
""" % (TIMEOUT_VARS, TIMEOUT_VARS)


def test_import_leaves_os_environ_as_it_was():
    out = json.loads(_python(_ENVIRON, _env()))
    none = dict.fromkeys(TIMEOUT_VARS)
    assert out == {"unchanged": True, "timeouts": none, "child": none}


@pytest.mark.parametrize("var", TIMEOUT_VARS)
def test_a_timeout_the_user_set_is_left_in_place(var):
    out = json.loads(_python(_ENVIRON, _env(**{var: "28"})))
    assert out["unchanged"]
    assert out["timeouts"] == out["child"] == {k: "28" if k == var else None
                                               for k in TIMEOUT_VARS}


_IDLE_CPU = """
import resource, time
import vortexcert
time.sleep(0.3)
every = resource.getrusage(resource.RUSAGE_SELF)
main = resource.getrusage(resource.RUSAGE_THREAD)
print(every.ru_utime + every.ru_stime - main.ru_utime - main.ru_stime)
"""


def _openblas() -> bool:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not _openblas(), reason="numpy's BLAS is not OpenBLAS")
@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="OpenBLAS starts no worker thread on one CPU")
@pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"),
                    reason="no per-thread rusage")
def test_idle_blas_workers_sleep_after_import():
    # with OpenBLAS's default timeout the worker spins for about 0.1 s
    # after the library loads (0.13 s of CPU on a 2-vCPU Xeon)
    assert float(_python(_IDLE_CPU, _env())) < 0.030


_CERTIFY = """
import json, sys
from vortexcert import cli
code = cli.main(sys.argv[1:])
doc = json.loads(open(sys.argv[-1]).read())
doc.pop("sidecar")
print(json.dumps({"code": code, "payload": doc}, sort_keys=True))
"""


@pytest.mark.parametrize("argv", [
    ["--lambda", "0.1", "--beta", "1"],
    ["--lx", "4", "--ly", "4", "--boundary", "periodic"]],
    ids=["diamond", "torus"])
def test_certify_payload_is_the_same_with_the_default_timeout(tmp_path, argv):
    # the timeout changes when idle workers sleep, not the arithmetic:
    # the stripped bundle is byte-identical to one run with OpenBLAS's own
    # default, 28
    outs = [_python(_CERTIFY, env, "certify", *argv, "--seed", "1",
                    "--out", str(tmp_path / f"{i}.json"))
            for i, env in enumerate((_env(), _env(OPENBLAS_THREAD_TIMEOUT="28")))]
    assert json.loads(outs[0])["code"] == 0
    assert outs[0] == outs[1]
