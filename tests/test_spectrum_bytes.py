"""The bytes of ``spectrum`` and ``realize``, pinned by one sha256.

``SHA256`` was last recorded when the spectrum's class products stopped
going through a matrix product (now elementwise products and numpy's row
sum, and E_{p*} in eta's margin by ``math.fsum``), so that no BLAS kernel
moves them.  Floats moved in 57 of the 253 outputs (8 ``spectrum``, 49
``realize``), each by at most 2.3e-16: eta, class scores and g_eta in
``spectrum``; c, d and the report's e_p, e_pstar, min_score and
max_score in ``realize``.  No degree, achievable set or other byte moved.

It covers, in order: the ``spectrum`` JSON of three seeded blind-spot
pairs per n = 3..8; the ``realize`` JSON of every achievable degree k of
each pair at n <= 5, and of the lowest, middle and top k above that; and
one ``realize --format table``.
"""

import hashlib
import json

import numpy as np

from inacc import ProbabilityVector, in_blind_spot
from inacc.cli import run_command

SHA256 = "052397bbc31f783df9096f1f520ba3c6d85b2460e2848e1ec8e29915fd2ec766"
PAIRS_PER_N = 3
#: above this n only the lowest, middle and top achievable degrees are realized
EVERY_K_MAX_N = 5


def flag(vector: ProbabilityVector) -> str:
    return ",".join(repr(w) for w in vector.weights)


def blind_spot_pairs(n: int) -> list[tuple[str, str]]:
    """PAIRS_PER_N seeded Dirichlet pairs with an injective ratio, as --pstar/--p text."""
    rng = np.random.default_rng(1500 + n)
    out = []
    while len(out) < PAIRS_PER_N:
        p_star = ProbabilityVector(rng.dirichlet(np.ones(n)))
        p = ProbabilityVector(rng.dirichlet(np.ones(n)))
        if in_blind_spot(p_star, p):
            out.append((flag(p_star), flag(p)))
    return out


def run(capsys, argv: list[str]) -> str:
    code = run_command(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return out


def test_spectrum_and_realize_bytes(capsys):
    chunks = []
    for n in range(3, 9):
        for i, (ps, p) in enumerate(blind_spot_pairs(n)):
            pair = ["--pstar", ps, "--p", p, "--seed", str(i)]
            spectrum = run(capsys, ["spectrum", *pair])
            chunks.append(spectrum)
            achievable = json.loads(spectrum)["achievable"]
            if n > EVERY_K_MAX_N:
                achievable = [achievable[0], achievable[len(achievable) // 2], achievable[-1]]
            for k in achievable:
                chunks.append(run(capsys, ["realize", *pair, "--k", str(k)]))
    ps, p = blind_spot_pairs(4)[0]
    chunks.append(run(capsys, ["realize", "--pstar", ps, "--p", p, "--k", "5", "--format", "table"]))
    assert hashlib.sha256("".join(chunks).encode()).hexdigest() == SHA256
