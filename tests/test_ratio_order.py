"""The results that read the one ratio order and the one pair builder, pinned by sha256.

``SHA256`` holds one digest per set, recorded before the appendix
certificate, the blind-spot witness and the level sets shared
``ratio_order`` and ``pair_partition``: the certificate JSON or error of
seeded pairs at n = 3..8 (random, tied, near-tied and rounded), the
blind-spot result of the same pairs, and the level sets of seeded vectors
with ties and near-ties.  The certificate set leaves out the pairs whose
margins S_m or A_m are within ``TOL_NUM`` of zero, which it now refuses
with ``SeparationBelowTolerance`` (and used to certify with a margin of
at most 1e-9, or report as a ``TheoremViolation``).  Six near-tied pairs
still end in a ``TheoremViolation`` with margins above the refusal
(t_m = S_m / A_m up to about 1e9); their messages are pinned as they are.
"""

import hashlib
import json

import numpy as np
import pytest

from inacc import (
    TOL_NUM,
    InaccError,
    OutOfRange,
    ProbabilityVector,
    SeparationBelowTolerance,
    SetPartition,
    UtilityFunction,
    appendix_certificate,
    in_blind_spot,
    level_set_partition,
)
from inacc.partitions import pair_partition

KINDS = ("random", "tied", "near-tied", "rounded")

SHA256 = {
    "certificate": "5e387a4f954c59137e654fca34e759b214e4415c577431a594c726bbb3a27b1e",
    "blind spot": "5f3b4cb56ae24197c12983c48679335071cb5926f5c19bc55f09750c6653b08e",
    "level sets": "5519bc979195f74335111e9dbc94d5fa176220664404ce7c88cb34be48ea733a",
}
#: near-tied pairs left out of the certificate set, all refused for thin margins
#: (34 of them were theorem violations before the refusal, 14 certified)
THIN = 48


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def normalized(w):
    w = np.asarray(w, dtype=float)
    return ProbabilityVector(w / w.sum())


def seeded_pairs():
    """(p*, p) pairs at n = 3..8, 25 of each kind per n, in a fixed order."""
    out = []
    for n in range(3, 9):
        rng = np.random.default_rng(1400 + n)
        for k in range(100):
            kind = KINDS[k % 4]
            p = rng.dirichlet(np.ones(n))
            if kind == "random":
                ps = rng.dirichlet(np.full(n, rng.choice([0.2, 1.0, 5.0])))
            elif kind == "rounded":
                ps = np.round(rng.dirichlet(np.ones(n)), 2) + 0.01
                p = np.round(p, 1) + 0.1
            else:
                r = rng.uniform(0.3, 3.0, n)
                i, j = rng.choice(n, 2, replace=False)
                gap = 0.0 if kind == "tied" else 10 ** rng.uniform(-12, -7)
                r[j] = r[i] * (1.0 + gap)
                ps = r * p
            out.append((normalized(ps), normalized(p)))
    return out


def outcome(fn, *args):
    """The result, or the error as "Type: message"."""
    try:
        return fn(*args)
    except InaccError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_certificates_are_pinned():
    lines, thin = [], 0
    for p_star, p in seeded_pairs():
        cert = outcome(appendix_certificate, p_star, p)
        if isinstance(cert, str):
            if cert.startswith(SeparationBelowTolerance.__name__):
                thin += 1
            else:
                lines.append(cert)
            continue
        assert min(cert.S) > TOL_NUM and min(cert.A) > TOL_NUM
        lines.append(json.dumps(cert.to_json_dict(), sort_keys=True))
    assert thin == THIN
    assert digest(lines) == SHA256["certificate"]


def test_blind_spot_results_are_pinned():
    lines = []
    for p_star, p in seeded_pairs():
        res = in_blind_spot(p_star, p)
        witness = None if res.witness is None else str(res.witness)
        ratio = res.ratio
        lines.append(json.dumps(
            [res.member, witness, [repr(v) for v in ratio.values], ratio.order, ratio.injective]
        ))
    assert digest(lines) == SHA256["blind spot"]


def seeded_vectors():
    """Value vectors at n = 3..10: random, rounded, ties off by up to 2e-9, constant, chained."""
    rng = np.random.default_rng(1410)
    out = []
    for k in range(2000):
        n = 3 + k % 8
        v = rng.uniform(-2.0, 2.0, n)
        kind = k % 5
        if kind == 1:
            v = np.round(v)
        elif kind == 2:
            v = np.round(2.0 * v) + rng.choice([0.0, 1e-12, 5e-10, 1e-9, 2e-9], n)
        elif kind == 3:
            v[:] = v[0]
        elif kind == 4:
            v = np.cumsum(rng.choice([0.0, 9e-10, 1e-9, 1.1e-9, 1.0], n))
        out.append(UtilityFunction(v))
    return out


def test_level_sets_are_pinned():
    lines = []
    for v in seeded_vectors():
        out = level_set_partition(v)
        lines.append(str(out) if isinstance(out, SetPartition) else repr(out))
    assert digest(lines) == SHA256["level sets"]


@pytest.mark.parametrize("n", range(3, 8))
def test_pair_builder_is_the_blocks_form(n):
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            blocks = [[i + 1, j + 1]] + [[k + 1] for k in range(n) if k not in (i, j)]
            assert pair_partition(i, j, n) == SetPartition.from_blocks(blocks)
    with pytest.raises(OutOfRange):
        pair_partition(1, 1, n)
    with pytest.raises(OutOfRange):
        pair_partition(0, n, n)
