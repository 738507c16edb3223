import math

import numpy as np
import pytest

from qchain.chain import ChainParams, mode_profile, real_mode_basis
from qchain.fock import (
    apply_create,
    apply_create_local,
    apply_creator,
    dump_state,
    energy_eigenvalue,
    inner_product,
    linear_combine,
    norm,
    vacuum,
)

P3 = ChainParams(n_sites=3)


def test_vacuum():
    v = vacuum(P3)
    assert v.terms == {(0, 0, 0): 1.0 + 0.0j}
    assert norm(v) == 1.0


def test_create_ladder_factors():
    v = vacuum(P3)
    one = apply_create(v, 0)
    assert one.terms == {(0, 1, 0): 1.0 + 0.0j}
    two = apply_create(one, 0)
    # second quantum brings sqrt(2)
    assert two.terms == {(0, 2, 0): complex(math.sqrt(2.0))}
    assert abs(norm(two) - math.sqrt(2.0)) < 1e-15

    minus = apply_create(v, -1)
    assert minus.terms == {(1, 0, 0): 1.0 + 0.0j}


def test_create_validates_index():
    v = vacuum(P3)
    with pytest.raises(ValueError):
        apply_create(v, 2)
    with pytest.raises(ValueError):
        apply_create(v, -2)
    with pytest.raises(ValueError):
        apply_create_local(v, 0)
    with pytest.raises(ValueError):
        apply_create_local(v, 4)


def test_creator_vector_is_the_weighted_sum_of_mode_creators():
    # (0.5 a[-1] + 2i a[1]) applied twice: linear in the vector, zero slots skipped
    v = vacuum(P3)
    vec = np.array([0.5, 0.0, 2j])
    once = apply_creator(v, vec)
    assert once.terms == {(1, 0, 0): 0.5 + 0j, (0, 0, 1): 2j}
    twice = apply_creator(once, vec)
    want = linear_combine([(0.25, apply_create(apply_create(v, -1), -1)),
                           (2j, apply_create(apply_create(v, 1), -1)),
                           (-4.0, apply_create(apply_create(v, 1), 1))])
    assert set(twice.terms) == set(want.terms)
    for occ, amp in want.terms.items():
        assert twice.terms[occ] == pytest.approx(amp, rel=1e-15)
    assert apply_creator(v, np.zeros(3)).terms == {}
    with pytest.raises(ValueError):
        apply_creator(v, np.ones(5))


def test_local_create_coefficients():
    # b_n applied to the vacuum spreads one quantum over the modes with the
    # site's profile as coefficients
    state = apply_create_local(vacuum(P3), 2)
    profile = mode_profile(3, 2)
    for slot in range(3):
        occ = tuple(1 if i == slot else 0 for i in range(3))
        assert state.terms[occ] == complex(profile[slot])
    assert abs(norm(state) - 1.0) < 1e-15

    # against the plane-wave one-particle states: overlap is the profile
    for k in (-1, 0, 1):
        plane = apply_create(vacuum(P3), k)
        assert inner_product(plane, state) == complex(profile[k + 1])


def test_local_create_commutes_bit_identically():
    params = ChainParams(n_sites=11)
    v = vacuum(params)
    for n1 in range(1, 12):
        for n2 in range(1, 12):
            ab = apply_create_local(apply_create_local(v, n1), n2)
            ba = apply_create_local(apply_create_local(v, n2), n1)
            assert ab.terms == ba.terms  # dict equality, exact floats


def test_mixed_create_commutes_bit_identically():
    params = ChainParams(n_sites=5)
    v = vacuum(params)
    for k in range(-2, 3):
        for site in range(1, 6):
            ab = apply_create(apply_create_local(v, site), k)
            ba = apply_create_local(apply_create(v, k), site)
            assert ab.terms == ba.terms


def test_linear_combine_and_exact_cancellation():
    v = vacuum(P3)
    a = apply_create(v, 1)
    b = apply_create(v, -1)
    s = linear_combine([(1.0, a), (1j, b)])
    assert s.terms == {(0, 0, 1): 1.0 + 0.0j, (1, 0, 0): 1j}

    # exact cancellation prunes the term entirely
    z = linear_combine([(1.0, a), (-1.0, a)])
    assert z.terms == {}
    assert norm(z) == 0.0
    assert dump_state(z) == ""


def test_linear_combine_rejects_mixed_chains():
    with pytest.raises(ValueError):
        linear_combine([(1.0, vacuum(P3)), (1.0, vacuum(ChainParams(n_sites=5)))])


def test_inner_product_and_norm():
    v = vacuum(P3)
    s = linear_combine([(0.6, apply_create(v, 0)), (0.8j, apply_create(v, 1))])
    assert abs(norm(s) - 1.0) < 1e-15
    assert inner_product(s, s) == pytest.approx(1.0)
    # antilinear in the first argument
    assert inner_product(s, apply_create(v, 1)) == pytest.approx(-0.8j)


def test_energy_eigenvalue_frozen():
    basis = real_mode_basis(P3)  # frequencies (2, 1, 2)
    assert energy_eigenvalue((0, 0, 0), basis) == pytest.approx(2.5)
    assert energy_eigenvalue((0, 1, 0), basis) == pytest.approx(3.5)
    assert energy_eigenvalue((1, 0, 1), basis) == pytest.approx(6.5)
    assert energy_eigenvalue((0, 2, 0), basis) == pytest.approx(4.5)


def test_dump_state_format():
    v = vacuum(P3)
    assert dump_state(v) == "1 0 0 0 0\n"
    s = apply_create(apply_create(v, 0), 0)
    assert dump_state(s) == f"{math.sqrt(2.0):.17g} 0 0 2 0\n"

    mix = linear_combine([(1.0, apply_create(v, 1)), (1j, apply_create(v, -1))])
    lines = dump_state(mix).splitlines()
    # terms come out in ascending occupation-tuple order: the k=+1 quantum
    # (0,0,1) sorts before the k=-1 quantum (1,0,0)
    assert lines == ["1 0 0 0 1", "0 1 1 0 0"]


def test_dump_state_round_trips_through_float():
    state = apply_create_local(vacuum(ChainParams(n_sites=11)), 5)
    for line in dump_state(state).splitlines():
        cols = line.split(" ")
        assert len(cols) == 2 + 11
        re, im = float(cols[0]), float(cols[1])
        occ = tuple(int(c) for c in cols[2:])
        assert state.terms[occ] == complex(re, im)
