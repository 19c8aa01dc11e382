"""The stream layout: every random draw comes from cfg.stream(site, index).

A stream is keyed by (seed mod 2**64, SITE_ID[site], index), so distinct
seeds, sites and indices never share numbers, as the XOR of hand-spaced
integer bases once did.  An audit's trial t takes row t of one block per
draw kind, so its numbers do not depend on how many trials run, and the
lockstep ascent gives restart i row i of each tick's directions, whatever
else is live.
"""

import json
import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import multinorm as mn
from multinorm.optim import COUNTS, NORMALS, SITE_ID, UNIFORMS, OptimConfig, field_normal, field_normal_block, gaussian_starts, seeded_ascent
from multinorm.partitions import GRID_BLOCK
from multinorm.spaces import INF, SpaceSpec

from test_lockstep import PROJECTIONS, _seeds, _sequential_ascent, _stacked

Spec = mn.MultiNormSpec
SRC = Path(__file__).resolve().parents[1] / "src"


def _first(rng, k=8):
    return rng.standard_normal(k)


def test_site_ids_are_distinct():
    assert len(set(SITE_ID.values())) == len(SITE_ID)
    # retired: 4 drew the torus sweep's starts and 7 the Hilbert alternation's, and neither returns under a new site
    assert not {4, 7} & set(SITE_ID.values())
    keys = [(site, kind) for site in SITE_ID for kind in (COUNTS, NORMALS, UNIFORMS)]
    for (a, i), (b, j) in combinations(keys, 2):
        assert not np.array_equal(_first(OptimConfig().stream(a, i)), _first(OptimConfig().stream(b, j))), (a, i, b, j)


def test_adjacent_seeds_do_not_share_streams():
    # under the XOR layout, seed 2024 stream 5001 was seed 2025 stream 5000
    for site in ("ascent.directions", "axioms"):
        a, b = OptimConfig(seed=2024), OptimConfig(seed=2025)
        assert not np.array_equal(_first(a.stream(site, 1)), _first(b.stream(site, 0)))
        assert not np.array_equal(_first(a.stream(site)), _first(b.stream(site)))


def test_seed_is_taken_mod_2_64():
    for seed, same in ((-1, 2**64 - 1), (-(2**70), (-(2**70)) % 2**64), (2**64 + 5, 5)):
        got = _first(OptimConfig(seed=seed).stream("ascent.starts"))
        assert np.array_equal(got, _first(OptimConfig(seed=same).stream("ascent.starts")))


def test_axiom_trial_30000_is_not_law_trial_0():
    # under the old bases, axiom trial 30000 (40000 + 30000) drew from matrix-law trial 0's stream (70000)
    cfg = OptimConfig(seed=1)
    axioms = field_normal_block(cfg.stream("axioms", NORMALS), 30001, (3, 4), False)[30000]
    law = field_normal_block(cfg.stream("matrix_law", NORMALS), 1, (3, 4), False)[0]
    assert not np.array_equal(axioms, law)
    assert not np.array_equal(cfg.stream("axioms", COUNTS).integers(2, 5, 30001)[30000:], cfg.stream("matrix_law", COUNTS).integers(1, 5, 1))


def test_restart_2000_directions_are_not_power_ascent_starts():
    # under the old bases, restart 2000's directions (5000 + 2000) were power-ascent start 0 (7000)
    cfg = OptimConfig(seed=1)
    direction = field_normal(cfg.stream("ascent.directions"), (2001, 3), False)[2000]
    start = gaussian_starts(cfg, "power_ascent.starts", (3,), False)[0]
    assert not np.array_equal(direction, start)


def _violations(report):
    if isinstance(report, mn.AxiomReport):
        return [json.dumps(v.to_json(), sort_keys=True) for v in report.violations]
    return [(v.lhs, v.bound, repr(v.matrix), v.tuple_columns.tobytes()) for v in report.violations]


def test_more_trials_see_a_superset_across_a_chunk_boundary():
    # 4100 trials are two chunks (GRID_BLOCK = 4096); their first 10 trials are the 10-trial audit's
    cfg = OptimConfig(seed=9)
    big = GRID_BLOCK + 4
    space = SpaceSpec(2, 3, field="complex")
    audits = [
        lambda t: mn.check_axioms(Spec.lp_sum(2), space, 4, t, cfg),
        lambda t: mn.check_multinorm_matrix_law(Spec.dual_lattice(), SpaceSpec(1.5, 2, field="complex"), INF, t, cfg),
        lambda t: mn.check_coagulation_contraction(Spec.lattice(), SpaceSpec(INF, 2), t, cfg),
    ]
    for audit in audits:
        few, many = _violations(audit(10)), _violations(audit(big))
        assert few and len(many) > len(few)
        assert many[: len(few)] == few

    sp = SpaceSpec(1.5, 3, (0.6, 1.0, 1.7))
    d = mn.coordinate_decomposition(sp, [[0], [1, 2]])
    P1 = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    skew = mn.Decomposition((P1, np.eye(2) - P1))
    fam = mn.band_family(sp)
    t = mn.VectorTuple.of(SpaceSpec(INF, 4), [1, 0, 0, 0.5], [0, 1, 0, 0.5], [0, 0, 1, 0.5])
    detectors = [
        lambda n: mn.is_small(d, Spec.min_spec(), sp, n, cfg),
        lambda n: mn.is_hermitian(skew, SpaceSpec(1, 2, field="complex"), n, cfg),
        lambda n: mn.orthogonal_set(Spec.min_spec(), t, n, cfg),
        lambda n: mn.is_orthogonal_multinorm(Spec.dual_lattice(), fam, sp, n, cfg),
    ]
    for detector in detectors:
        few, many = detector(10), detector(big)
        assert 0 < few.gap <= many.gap


def _report(command, doc, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed), PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "multinorm.cli", command, json.dumps(doc)], env=env, capture_output=True, text=True, check=True
    )
    report = json.loads(proc.stdout)
    report.pop("timestamp")
    return report


@pytest.mark.parametrize(
    "command, doc",
    [
        ("axioms", {"space": {"p": 1.5, "dim": 3}, "spec": {"variant": "pq", "p": 1, "q": 2}, "trials": 3, "cfg": {"restarts": 2}}),
        ("eval", {"space": {"p": 2, "dim": 3, "field": "complex"}, "spec": {"variant": "hilbert"}, "tuple": [[1, 0.5, 0], [0, 1, -2], [1, 1, 1]]}),
        ("eval", {"space": {"p": 3, "dim": 3}, "spec": {"variant": "pq", "p": 1.5, "q": 3}, "tuple": [[1, 0.5, 0], [0, 1, -2]], "cfg": {"restarts": 3}}),
    ],
)
def test_reports_do_not_depend_on_the_hash_seed(command, doc):
    assert _report(command, doc, 1) == _report(command, doc, 2)


def _two_entries(x):
    # only two entries count, so restarts converge and leave through the step exit at different ticks
    return -abs(float(x.flat[0]) - 0.3) - abs(float(x.flat[1]) + 0.2)


def test_lockstep_matches_sequential_at_one_tick_per_block():
    # 130 Gaussian restarts and four seeds of shape (16, 16): L0 * 256 = 34304 > 2**15, so K = 1 and
    # every tick draws its own block
    shape, iters = (16, 16), 400
    cfg = OptimConfig(seed=13, restarts=130)
    L0 = cfg.restarts + 4
    assert 2**16 // (L0 * math.prod(shape)) == 1
    project = PROJECTIONS["identity"]
    seeds = _seeds(shape, False)
    sizes = []

    def sized(P):
        sizes.append(len(P))
        return np.array([_two_entries(x) for x in P], dtype=float)

    want_val, want_pt = _sequential_ascent(project, _two_entries, seeds, shape, cfg, False, iters)
    got_val, got_pt = seeded_ascent(_stacked(project, _two_entries)[0], sized, seeds, shape, cfg, False, iters)
    assert got_val == want_val
    assert np.array_equal(got_pt, want_pt)
    # restarts leave mid-climb, at several ticks, while others keep climbing
    assert sizes[0] == L0 and 0 < sizes[-1] < L0 and len(set(sizes)) > 3
