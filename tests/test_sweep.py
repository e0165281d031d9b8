"""The sweep's reports pinned byte for byte, and the certificate that lets it skip class passes.

``PINNED`` holds the JSON of ``sweep`` for a small grid (n = 3..6; sparse,
flat and concentrated Dirichlets; two 2,000-sample runs at n = 5 that span
two batches), recorded before the sweep answered its batches in arrays.
The sparse runs have class collisions and degenerate constructions.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inacc import OutOfRange, ProbabilityVector, _scan, bell_number, monotonicity
from inacc.monotonicity import DIRICHLET_FLOOR, sweep

#: (n, samples, seed, alpha, the report's JSON with sorted keys)
PINNED = [
    (3, 40, 1103, 0.05, '{"alpha": 0.05, "blind_spot_frequency": 0.925, "construct_degenerate": 3, "constructed": 34, "degree_histogram": {"0": 10, "1": 11, "2": 11, "3": 8}, "multiplicity_collisions": 0, "n": 3, "samples": 40, "seed": 1103, "theorem_violations": 0}'),
    (3, 40, 1103, 1.0, '{"alpha": 1.0, "blind_spot_frequency": 1.0, "construct_degenerate": 0, "constructed": 40, "degree_histogram": {"0": 10, "1": 8, "2": 6, "3": 16}, "multiplicity_collisions": 0, "n": 3, "samples": 40, "seed": 1103, "theorem_violations": 0}'),
    (3, 40, 1103, 5.0, '{"alpha": 5.0, "blind_spot_frequency": 1.0, "construct_degenerate": 0, "constructed": 40, "degree_histogram": {"0": 15, "1": 9, "2": 4, "3": 12}, "multiplicity_collisions": 0, "n": 3, "samples": 40, "seed": 1103, "theorem_violations": 0}'),
    (4, 40, 1104, 0.05, '{"alpha": 0.05, "blind_spot_frequency": 0.8, "construct_degenerate": 13, "constructed": 19, "degree_histogram": {"0": 13, "1": 1, "10": 2, "13": 5, "3": 3, "4": 4, "6": 1, "7": 4, "8": 1, "9": 6}, "multiplicity_collisions": 22, "n": 4, "samples": 40, "seed": 1104, "theorem_violations": 0}'),
    (4, 40, 1104, 1.0, '{"alpha": 1.0, "blind_spot_frequency": 1.0, "construct_degenerate": 0, "constructed": 40, "degree_histogram": {"0": 8, "10": 1, "11": 1, "12": 2, "13": 15, "2": 1, "3": 2, "4": 1, "5": 1, "6": 1, "7": 4, "8": 1, "9": 2}, "multiplicity_collisions": 0, "n": 4, "samples": 40, "seed": 1104, "theorem_violations": 0}'),
    (4, 40, 1104, 5.0, '{"alpha": 5.0, "blind_spot_frequency": 1.0, "construct_degenerate": 0, "constructed": 40, "degree_histogram": {"0": 13, "10": 2, "11": 4, "13": 9, "2": 1, "3": 1, "4": 1, "5": 2, "6": 3, "7": 2, "8": 1, "9": 1}, "multiplicity_collisions": 0, "n": 4, "samples": 40, "seed": 1104, "theorem_violations": 0}'),
    (5, 40, 1105, 0.05, '{"alpha": 0.05, "blind_spot_frequency": 0.775, "construct_degenerate": 8, "constructed": 23, "degree_histogram": {"0": 4, "10": 1, "14": 3, "15": 1, "16": 1, "17": 1, "19": 1, "21": 2, "24": 2, "28": 1, "29": 2, "33": 1, "34": 1, "36": 9, "38": 1, "40": 3, "50": 6}, "multiplicity_collisions": 18, "n": 5, "samples": 40, "seed": 1105, "theorem_violations": 0}'),
    (5, 40, 1105, 1.0, '{"alpha": 1.0, "blind_spot_frequency": 1.0, "construct_degenerate": 0, "constructed": 40, "degree_histogram": {"0": 13, "10": 1, "14": 3, "15": 2, "19": 1, "20": 1, "24": 2, "26": 2, "27": 1, "29": 1, "38": 1, "40": 1, "42": 1, "5": 1, "50": 5, "6": 2, "7": 1, "9": 1}, "multiplicity_collisions": 0, "n": 5, "samples": 40, "seed": 1105, "theorem_violations": 0}'),
    (5, 40, 1105, 5.0, '{"alpha": 5.0, "blind_spot_frequency": 1.0, "construct_degenerate": 1, "constructed": 39, "degree_histogram": {"0": 13, "15": 1, "22": 1, "29": 1, "3": 1, "30": 1, "32": 1, "37": 1, "42": 1, "43": 1, "47": 1, "50": 16, "6": 1}, "multiplicity_collisions": 0, "n": 5, "samples": 40, "seed": 1105, "theorem_violations": 0}'),
    (6, 40, 1106, 0.05, '{"alpha": 0.05, "blind_spot_frequency": 0.65, "construct_degenerate": 9, "constructed": 17, "degree_histogram": {"0": 5, "108": 2, "113": 2, "123": 1, "150": 5, "164": 1, "174": 1, "184": 1, "201": 5, "27": 1, "34": 1, "37": 4, "48": 1, "51": 3, "62": 1, "65": 1, "78": 1, "81": 1, "86": 1, "88": 1, "98": 1}, "multiplicity_collisions": 25, "n": 6, "samples": 40, "seed": 1106, "theorem_violations": 0}'),
    (6, 40, 1106, 1.0, '{"alpha": 1.0, "blind_spot_frequency": 1.0, "construct_degenerate": 0, "constructed": 40, "degree_histogram": {"0": 15, "106": 1, "109": 1, "113": 2, "121": 1, "122": 1, "134": 1, "151": 1, "157": 1, "162": 1, "169": 1, "172": 1, "198": 1, "2": 1, "201": 4, "21": 1, "3": 1, "36": 2, "63": 1, "69": 1, "77": 1}, "multiplicity_collisions": 0, "n": 6, "samples": 40, "seed": 1106, "theorem_violations": 0}'),
    (6, 40, 1106, 5.0, '{"alpha": 5.0, "blind_spot_frequency": 1.0, "construct_degenerate": 0, "constructed": 40, "degree_histogram": {"0": 11, "1": 1, "100": 1, "101": 1, "104": 1, "125": 1, "16": 1, "162": 1, "163": 1, "187": 1, "201": 14, "43": 1, "45": 1, "62": 1, "66": 1, "69": 1, "92": 1}, "multiplicity_collisions": 0, "n": 6, "samples": 40, "seed": 1106, "theorem_violations": 0}'),
    (5, 2000, 1105, 0.05, '{"alpha": 0.05, "blind_spot_frequency": 0.681, "construct_degenerate": 390, "constructed": 972, "degree_histogram": {"0": 374, "1": 3, "10": 71, "11": 7, "12": 18, "13": 10, "14": 166, "15": 8, "16": 6, "17": 29, "18": 5, "19": 45, "2": 3, "20": 4, "21": 45, "22": 19, "23": 9, "24": 92, "25": 4, "26": 100, "27": 7, "28": 17, "29": 66, "3": 6, "30": 2, "31": 38, "32": 7, "33": 42, "34": 5, "35": 9, "36": 133, "37": 9, "38": 18, "39": 6, "4": 9, "40": 68, "41": 6, "42": 1, "43": 35, "44": 2, "45": 13, "46": 7, "47": 5, "48": 5, "49": 1, "5": 15, "50": 388, "6": 2, "7": 55, "8": 3, "9": 2}, "multiplicity_collisions": 1074, "n": 5, "samples": 2000, "seed": 1105, "theorem_violations": 0}'),
    (5, 2000, 1115, 1.0, '{"alpha": 1.0, "blind_spot_frequency": 1.0, "construct_degenerate": 1, "constructed": 1999, "degree_histogram": {"0": 440, "1": 9, "10": 34, "11": 22, "12": 19, "13": 9, "14": 46, "15": 24, "16": 20, "17": 17, "18": 15, "19": 25, "2": 33, "20": 18, "21": 31, "22": 21, "23": 20, "24": 38, "25": 25, "26": 31, "27": 24, "28": 29, "29": 32, "3": 14, "30": 17, "31": 29, "32": 20, "33": 22, "34": 18, "35": 29, "36": 49, "37": 19, "38": 24, "39": 17, "4": 23, "40": 15, "41": 17, "42": 19, "43": 25, "44": 16, "45": 31, "46": 21, "47": 21, "48": 23, "49": 15, "5": 29, "50": 428, "6": 9, "7": 30, "8": 18, "9": 20}, "multiplicity_collisions": 0, "n": 5, "samples": 2000, "seed": 1115, "theorem_violations": 0}'),
]


def test_pinned_grid_covers_the_branches():
    reports = [json.loads(text) for *_, text in PINNED]
    assert any(r["multiplicity_collisions"] > 0 for r in reports)
    assert any(r["construct_degenerate"] > 0 for r in reports)
    assert any(
        samples > _scan.CHUNK_ROWS // (bell_number(n) - 2) for n, samples, *_ in PINNED
    )


@pytest.mark.parametrize("n, samples, seed, alpha, text", PINNED)
def test_sweep_report_is_pinned(n, samples, seed, alpha, text):
    summary = sweep(n=n, samples=samples, seed=seed, dirichlet_alpha=alpha)
    assert json.dumps(summary.to_json_dict(), sort_keys=True) == text


@pytest.mark.parametrize(
    "args", [(5, True), (5, 2.5), (5.0, 3), (True, 3), (5, np.float64(3.0))], ids=repr
)
def test_counts_must_be_integers(args):
    with pytest.raises(OutOfRange, match="must be an integer"):
        sweep(*args)


def test_alpha_must_not_be_a_bool():
    with pytest.raises(OutOfRange, match="bool"):
        sweep(5, 3, dirichlet_alpha=True)


def test_numpy_integers_are_reported_as_ints():
    report = sweep(np.int64(3), np.int32(4), seed=np.int64(2)).to_json_dict()
    assert report == sweep(3, 4, seed=2).to_json_dict()


def test_credence_redraws_are_capped(monkeypatch):
    # at n = 8, alpha = 0.01 fewer than one draw in 200,000 clears DIRICHLET_FLOOR;
    # with no cap this sweep ran for minutes
    monkeypatch.setattr(monotonicity, "MAX_CREDENCE_DRAWS", 1000)
    with pytest.raises(OutOfRange, match="1000 draws at n = 8, alpha = 0.01"):
        sweep(n=8, samples=1, seed=2, dirichlet_alpha=0.01)


# ---------------------------------------------------------------------------
# the certificate that lets the sweep skip class passes


def largest_multiplicity(pstar, p):
    """The largest class multiplicity of one pair, from the full class scan."""
    return _scan.class_scan(len(p), _scan._ratio_table(pstar, p), p)["multiplicity"].max()


def normalized(w):
    w = np.asarray(w, dtype=float)
    return np.asarray(ProbabilityVector(w / w.sum()).weights)


def certificate_cases(n):
    """(kind, p*, p) pairs at n: random, tied and near-tied ratios, uniform p, rounded weights."""
    rng = np.random.default_rng(1300 + n)
    out = []
    for _ in range(4):
        out.append(("random", normalized(rng.dirichlet(np.ones(n))), normalized(rng.dirichlet(np.ones(n)))))
    for gap in (0.0, 3e-10):
        p = normalized(rng.dirichlet(np.ones(n)))
        r = rng.uniform(0.5, 2.0, n)
        r[1] = r[0] + gap
        out.append(("tied" if gap == 0.0 else "near-tied", normalized(r * p), p))
    uniform = np.full(n, 1.0 / n)
    out.append(("uniform p", normalized(rng.dirichlet(np.ones(n))), uniform))
    out.append(("p* = p", uniform, uniform))
    out.append(("rounded", normalized(np.round(rng.dirichlet(np.ones(n)), 2) + 0.01),
                normalized(np.round(rng.dirichlet(np.ones(n)), 1) + 0.1)))
    return out


@pytest.mark.parametrize("n", range(3, 9))
def test_certified_pairs_have_only_singleton_classes(n):
    cases = certificate_cases(n)
    ps = np.array([pstar for _, pstar, _ in cases])
    pw = np.array([p for _, _, p in cases])
    batched = _scan.certify_singletons(_scan._ratio_table(ps, pw), pw)
    for (kind, pstar, p), certified in zip(cases, batched):
        assert bool(_scan.certify_singletons(_scan._ratio_table(pstar, p), p)) == certified, kind
        if certified:
            assert largest_multiplicity(pstar, p) == 1, kind
    kinds = {kind for (kind, *_), certified in zip(cases, batched) if certified}
    assert "random" in kinds
    assert not batched[[kind == "p* = p" for kind, *_ in cases]].any()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n),
            st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n),
            st.sampled_from([None, 1, 2]),
        )
    )
)
def test_certificate_is_sound(case):
    raw_pstar, raw_p, digits = case
    if digits is not None:  # rounded weights make exact subset-ratio ties likely
        raw_pstar, raw_p = np.round(raw_pstar, digits) + 0.01, np.round(raw_p, digits) + 0.01
    pstar, p = normalized(raw_pstar), normalized(raw_p)
    if _scan.certify_singletons(_scan._ratio_table(pstar, p), p):
        assert largest_multiplicity(pstar, p) == 1


def sweep_pairs(n, samples, seed, alpha):
    """The (p*, p) pairs a sweep draws, in its rng order."""
    rng = np.random.default_rng(seed)
    alpha_vec = np.full(n, alpha)
    pairs = []
    for _ in range(samples):
        pstar = ProbabilityVector(rng.dirichlet(alpha_vec)).weights
        while True:
            raw = rng.dirichlet(alpha_vec)
            if raw.min() >= DIRICHLET_FLOOR:
                break
        pairs.append((pstar, ProbabilityVector(raw).weights))
        rng.uniform(-1.0, 1.0, n)
    return np.array(pairs).transpose(1, 0, 2)


@pytest.mark.parametrize("n, alpha", [(4, 0.05), (5, 0.05), (6, 0.3), (7, 0.05)])
def test_sweep_collisions_equal_a_class_scan_of_every_sample(n, alpha):
    samples, seed = 60, 1400 + n
    ps, pw = sweep_pairs(n, samples, seed, alpha)
    ratio = _scan._ratio_table(ps, pw)
    # the samples with a class of multiplicity > 1, in a class scan of all of them
    table = _scan.class_scan(n, ratio, pw)
    every = len(set(table["posterior"][table["multiplicity"] > 1, 0].tolist()))
    certified = _scan.certify_singletons(ratio, pw)
    assert 0 < certified.sum() < samples  # both paths taken
    assert sweep(n=n, samples=samples, seed=seed, dirichlet_alpha=alpha).multiplicity_collisions == every
