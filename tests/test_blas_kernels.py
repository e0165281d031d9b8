"""Reports are the same bytes whichever OpenBLAS kernel numpy runs.

No reported number passes through a matrix product: the subset tables
are built by a doubling recurrence and the spectrum's class products by
elementwise products and row sums.  So forcing OpenBLAS onto its generic
kernel (``OPENBLAS_CORETYPE=Prescott``), or onto its AVX2 one where the
CPU has AVX2 and FMA3, must not move a byte of ``construct`` and
``epsilon`` on an n = 12 pair, nor of ``spectrum`` and one ``realize`` on
an n = 8 pair.  OpenBLAS reads the variable once, when it loads, so every
kernel runs in a process of its own.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from inacc import ProbabilityVector, in_blind_spot

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: runs construct and epsilon, then spectrum and a realize of its middle achievable degree
CHILD = """
import contextlib, io, json, sys
from inacc.cli import run_command

construct, epsilon, spectrum, realize = json.loads(sys.argv[1])
for argv in (construct, epsilon):
    assert run_command(argv) == 0
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert run_command(spectrum) == 0
sys.stdout.write(out.getvalue())
achievable = json.loads(out.getvalue())["achievable"]
assert run_command([*realize, "--k", str(achievable[len(achievable) // 2])]) == 0
"""


def _openblas_on_x86_64() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower() and platform.machine() in ("x86_64", "AMD64")


def _forced_kernels() -> list[str]:
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy before 2.0
        features = {}
    return ["Prescott"] + (["Haswell"] if features.get("AVX2") and features.get("FMA3") else [])


def _pair(n: int, seed: int) -> list[str]:
    """--pstar/--p flags of the first seeded Dirichlet pair at n with an injective ratio."""
    rng = np.random.default_rng(seed)
    while True:
        p_star = ProbabilityVector(rng.dirichlet(np.ones(n)))
        p = ProbabilityVector(rng.dirichlet(np.ones(n)))
        if in_blind_spot(p_star, p):
            return ["--pstar", ",".join(map(repr, p_star.weights)), "--p", ",".join(map(repr, p.weights))]


@pytest.mark.skipif(not _openblas_on_x86_64(), reason="needs numpy on OpenBLAS, x86-64")
def test_reports_are_the_same_bytes_under_every_kernel():
    pair12, pair8 = _pair(12, 2712), _pair(8, 2708)
    d12 = ",".join(map(repr, np.random.default_rng(2712).uniform(-1.0, 1.0, 12).tolist()))
    argvs = json.dumps([
        ["construct", *pair12],
        ["epsilon", *pair12, "--d", d12, "--eps", "0.25"],
        ["spectrum", *pair8, "--seed", "1"],
        ["realize", *pair8, "--seed", "1"],
    ])
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [env.get("PYTHONPATH")])])
    kernels = [None, *_forced_kernels()]
    children = [
        subprocess.Popen(
            [sys.executable, "-c", CHILD, argvs],
            env=env if kernel is None else {**env, "OPENBLAS_CORETYPE": kernel},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        for kernel in kernels
    ]
    outputs = [child.communicate(timeout=120) for child in children]
    for kernel, child, (out, err) in zip(kernels, children, outputs):
        assert child.returncode == 0, (kernel, err.decode())
    default = outputs[0][0]
    assert default.count(b"\n") > 4
    for kernel, (out, _) in zip(kernels[1:], outputs[1:]):
        assert out == default, f"OPENBLAS_CORETYPE={kernel} changed the reports"
