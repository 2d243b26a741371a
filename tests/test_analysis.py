import numpy as np
import pytest

from oqwalk.analysis import (
    dqc_predicted_readout,
    internal_sector_occupation,
    node_fidelity,
    occupation,
    position_moments,
    readout_probability,
    state_prep_elements,
    state_prep_predicted_pss,
    transport_predicted_arrival,
)
from oqwalk.core import WalkerState, find_steady_state, pure_state, run
from oqwalk.linalg import KET_MINUS, KET_PLUS, outer
from oqwalk.scenarios import (
    build_dqc_chain,
    build_line_walk,
    build_transport_chain,
    state_prep_targets,
)

from oracles import biased_coin_distribution, random_unitary

THETA = np.arccos(0.8)


def test_occupation_localized():
    assert occupation(WalkerState({0: np.eye(2) / 2})) == {0: 1.0}


def test_occupation_line_one_step():
    spec, init = build_line_walk(THETA, 2)
    occ = occupation(run(spec, init, 1)[-1][1])
    assert abs(occ[1] - 17 / 25) < 1e-14
    assert abs(occ[-1] - 8 / 25) < 1e-14


def test_position_moments():
    assert position_moments({0: 1.0}) == (0.0, 0.0)
    mean, var = position_moments({1: 17 / 25, -1: 8 / 25})
    assert abs(mean - 9 / 25) < 1e-14
    assert abs(var - (1 - (9 / 25) ** 2)) < 1e-14
    with pytest.raises(TypeError):
        position_moments({"a": 1.0})
    with pytest.raises(ValueError):
        position_moments({})


def test_readout_probability():
    state = WalkerState({2: 0.3 * np.eye(2) / 2})
    assert abs(readout_probability(state, 2) - 0.3) < 1e-14
    assert readout_probability(state, 1) == 0.0
    with pytest.raises(KeyError):
        readout_probability(state, 7, nodes=(1, 2))


def test_node_fidelity_conditional():
    # quarter-weight pure block still has conditional fidelity 1
    state = WalkerState({1: 0.25 * outer(KET_PLUS)})
    assert abs(node_fidelity(state, 1, KET_PLUS) - 1.0) < 1e-12
    mixed = WalkerState({1: np.eye(2) / 2})
    assert abs(node_fidelity(mixed, 1, KET_PLUS) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        node_fidelity(state, 2, KET_PLUS)


def test_internal_sector_occupation_splits_line_walk():
    spec, init = build_line_walk(THETA, 4)
    state = run(spec, init, 4)[-1][1]
    plus = internal_sector_occupation(state, KET_PLUS)
    minus = internal_sector_occupation(state, KET_MINUS)
    total = occupation(state)
    for node in total:
        assert abs(plus[node] + minus[node] - total[node]) < 1e-12
    # the |+> sector rides entirely on the rightmost reached site
    assert abs(plus[4] - 0.5) < 1e-12
    assert sum(w for n, w in plus.items() if n != 4) < 1e-12


def test_line_sector_drift_matches_binomial_oracle():
    n = 30
    spec, init = build_line_walk(THETA, n)
    state = run(spec, init, n)[-1][1]
    minus = internal_sector_occupation(state, KET_MINUS)
    oracle = biased_coin_distribution(n, p_right=(3 / 5) ** 2)
    for site, weight in oracle.items():
        assert abs(minus.get(site, 0.0) - 0.5 * weight) < 1e-12
    drift = position_moments(minus)[0] / n
    assert abs(drift - (-7 / 25)) < 1e-12


def test_dqc_predicted_readout_values():
    assert abs(dqc_predicted_readout(0.5, 9) - 0.1) < 1e-15
    assert abs(dqc_predicted_readout(2 / 3, 4) - 16 / 31) < 1e-12
    assert abs(dqc_predicted_readout(0.5, 1) - 0.5) < 1e-15
    with pytest.raises(ValueError):
        dqc_predicted_readout(0.0, 3)
    with pytest.raises(ValueError):
        dqc_predicted_readout(1.0, 3)
    with pytest.raises(ValueError):
        dqc_predicted_readout(0.5, 0)


def _left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    return total


def test_closed_forms_add_left_to_right():
    # Python 3.12's sum() compensates and so changes printed last bits
    # (0.5714797698089811 here); the CLI prints these values in full
    assert dqc_predicted_readout(0.7, 10) == 0.571479769808981
    for omega in [k / 50 for k in range(1, 50)] + [0.7, 0.05, 0.95]:
        r = omega / (1.0 - omega)
        for t_final in range(1, 41):
            denom = _left_to_right((1.0 / r) ** s for s in range(t_final + 1))
            assert dqc_predicted_readout(omega, t_final) == 1.0 / denom
    rng = np.random.default_rng(3)
    for size in (2, 7, 40, 301):
        dist = dict(zip(range(-size // 2, size), rng.random(size).tolist()))
        total = _left_to_right(dist.values())
        mean = _left_to_right(n * w for n, w in dist.items()) / total
        var = _left_to_right((n - mean) ** 2 * w for n, w in dist.items()) / total
        assert position_moments(dist) == (mean, var)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and NaN arithmetic
def test_closed_forms_reject_what_they_cannot_evaluate():
    nan = float("nan")
    for args in ((nan, 0.5, 3), (2.5, 0.5, 3), (4, 0.5, 2.5), (4, nan, 3),
                 (4, 0.5j, 3), ("4", 0.5, 3)):
        with pytest.raises((ValueError, TypeError)):
            transport_predicted_arrival(*args)
    for args in (((1, 0, 0, 0), nan, 3), ((1, 0, 0, 0), 1.5, 3),
                 ((1, 0, 0, 0), 0.5, 2.5), ((1, 0, 0, 0), 0.5, nan),
                 ((nan, 0, 0, 0), 0.5, 3), ((1, 0, 0), 0.5, 3),
                 ((1j, 0, 0, 0), 0.5, 3), ((1e308,) * 4, 0.5, 3)):
        with pytest.raises((ValueError, TypeError)):
            state_prep_predicted_pss(*args)
    for dist in ({0: nan}, {0: float("inf")}, {0: 1j}, {10 ** 400: 1.0},
                 {10 ** 200: 1.0, -10 ** 200: 1.0}, [1], None, "ab",
                 {True: 1.0}, {np.True_: 1.0}, {1.0: 1.0}):
        with pytest.raises((ValueError, TypeError)):
            position_moments(dist)
    for args in ((nan, 3), (0.5, 2.5), (0.5, nan), ("0.5", 3)):
        with pytest.raises((ValueError, TypeError)):
            dqc_predicted_readout(*args)
    # r^-T past the float range: the read-out is below it
    assert dqc_predicted_readout(1e-10, 40) == 0.0
    # q^(N-1) for a node count past the float range
    assert transport_predicted_arrival(10 ** 400, 0.5, 10 ** 400 - 1) == 0.5
    assert transport_predicted_arrival(10 ** 400, 0.0, 10 ** 400 - 1) == 1.0


def test_dqc_prediction_matches_simulation():
    rng = np.random.default_rng(14)
    gates = [random_unitary(2, rng) for _ in range(3)]
    for omega in (0.4, 0.5, 0.8):
        spec, init = build_dqc_chain(gates, omega)
        result = find_steady_state(spec, init)
        sim = readout_probability(result.state, 3)
        assert abs(sim - dqc_predicted_readout(omega, 3)) <= 1e-8


def test_state_prep_predicted_pss_values():
    # no weight anywhere: none reaches the target
    assert state_prep_predicted_pss((0, 0, 0, 0), 0.5, 4) == 0.0
    # walker at node 1 in the target state, q = 1/2, m = 3
    assert abs(state_prep_predicted_pss((1, 0, 0, 0), 0.5, 3) - 63 / 64) < 1e-15
    # the weight is conserved, and all of it ends in the target at node 2
    assert state_prep_predicted_pss((1, 1, 1, 1), 0.5, 200) == 4.0
    with pytest.raises(ValueError):
        state_prep_predicted_pss((0, 0, 0, 0), 0.5, 0)


def test_state_prep_elements_reads_initial_weights():
    alpha, beta = np.pi / 5, 0.7
    target, complement = state_prep_targets(alpha, beta)
    state = pure_state(1, complement)
    e11, e12, e21, e22 = state_prep_elements(state, target, complement)
    assert abs(e11) < 1e-14
    assert abs(e12 - 1.0) < 1e-14
    assert e21 == 0.0 and e22 == 0.0


# acceptance criterion 7 checks four longer chains
@pytest.mark.parametrize("n, p", [(2, 0.3), (3, 1.0), (5, 0.0), (9, 0.25)])
def test_transport_predicted_arrival_matches_run(n, p):
    spec, init = build_transport_chain(n, p)
    for k, state in run(spec, init, n + 2):
        exact = transport_predicted_arrival(n, p, k)
        assert abs(readout_probability(state, n) - exact) <= 1e-13
    assert transport_predicted_arrival(n, p, n - 2) == 0.0
    assert transport_predicted_arrival(n, p, n) == 1.0


def test_transport_predicted_arrival_values():
    assert transport_predicted_arrival(3, 0.5, 2) == 0.625
    assert transport_predicted_arrival(2, 1.0, 1) == 0.5
    assert transport_predicted_arrival(2, 0.0, 1) == 1.0
    with pytest.raises(ValueError):
        transport_predicted_arrival(1, 0.5, 3)
    with pytest.raises(ValueError):
        transport_predicted_arrival(4, 1.5, 3)
