"""The no-search bound step of the search-backed variants runs each rule once.

multinorms._search_bounds is the only code that applies the closed forms,
_pq_upper and the pair arc.  evaluate and _source_scale both read it, so
counting calls to _pair_arc and _pq_upper shows that no rule runs twice:
a doubled pair arc would double the cost of every (1,q) pair evaluation.
The Hilbert multi-norm is the (2,2) one, so it runs the same bound step
and one spectral polish, and standard_q past its enumeration budget reads
the same bound step for its upper side.
"""

import numpy as np
import pytest

from multinorm import MultiNormSpec as S, OptimConfig, SpaceSpec, VectorTuple, evaluate
from multinorm import multinorms

CFG = OptimConfig(seed=3, restarts=2)
SPACE = SpaceSpec(1.5, 3)
PAIR = np.array([[1.0, 0.5], [-0.25, 2.0], [0.75, -1.0]])  # real, and its columns share their support


@pytest.fixture
def calls(monkeypatch):
    counts = {"_pair_arc": 0, "_pq_upper": 0, "_pq_spectral_polish": 0}
    for name in counts:
        inner = getattr(multinorms, name)

        def counted(*args, _inner=inner, _name=name):
            counts[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(multinorms, name, counted)
    return counts


@pytest.mark.parametrize("q", (1.5, 2.0, 4.0))
def test_a_real_one_q_pair_runs_each_rule_once(calls, q):
    res = evaluate(S.pq_spec(1, q), VectorTuple(PAIR, SPACE), CFG)
    assert res.method == "real_pair_arc_bisection"
    assert calls == {"_pair_arc": 1, "_pq_upper": 1, "_pq_spectral_polish": 0}


@pytest.mark.parametrize(
    "spec, X, method",
    [
        (S.pq_spec(1.5, 3), np.array([[1.0, 0.0], [0.0, -2.0], [0.5, 0.0]]), "disjoint_closed_form"),
        (S.max_spec(), np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]), "disjoint_closed_form"),
        (S.pq_spec(1, 1), PAIR, "real_pair_closed_form"),
        (S.max_spec(), PAIR, "real_pair_closed_form"),
    ],
)
def test_a_closed_form_runs_neither(calls, spec, X, method):
    assert evaluate(spec, VectorTuple(X, SPACE), CFG).method == method
    assert calls == {"_pair_arc": 0, "_pq_upper": 0, "_pq_spectral_polish": 0}


def test_source_scale_runs_each_rule_once_per_tuple(calls):
    C = np.stack([PAIR * c for c in (1.0, -0.5, 3.0, 0.25)])  # (B, 3, 2) with B = 4
    want = [evaluate(S.pq_spec(1, 2), VectorTuple(X, SPACE), CFG).upper for X in C]
    calls.update(_pair_arc=0, _pq_upper=0)
    assert multinorms._source_scale(S.pq_spec(1, 2), SPACE, CFG)(C).tolist() == want
    assert calls == {"_pair_arc": len(C), "_pq_upper": len(C), "_pq_spectral_polish": 0}


def test_a_dense_hilbert_tuple_runs_one_bound_step_and_one_polish(calls):
    X = np.array([[1.0, 0.5, -0.25], [-0.25, 2.0, 1.0], [0.75, -1.0, 0.5]])
    res = evaluate(S.hilbert(), VectorTuple(X, SpaceSpec(2, 3)), CFG)
    assert res.method == "pq_spectral_polish"
    assert calls == {"_pair_arc": 1, "_pq_upper": 1, "_pq_spectral_polish": 1}


def test_a_disjoint_hilbert_tuple_runs_neither(calls):
    X = np.array([[1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.5, 0.0, 0.0]])
    assert evaluate(S.hilbert(), VectorTuple(X, SpaceSpec(2, 3)), CFG).method == "disjoint_closed_form"
    assert calls == {"_pair_arc": 0, "_pq_upper": 0, "_pq_spectral_polish": 0}


def test_standard_q_past_its_budget_runs_the_bound_step_once(calls):
    res = evaluate(S.standard_q(3), VectorTuple(PAIR, SPACE), OptimConfig(seed=3, restarts=2, max_enum=4))
    assert res.method == "partition_local_search"
    assert calls == {"_pair_arc": 0, "_pq_upper": 1, "_pq_spectral_polish": 0}
