import itertools
from pathlib import Path

import pytest

from qtlie import xmatrix
from qtlie.matrices import ExactMatrix
from qtlie.torus import canonical_rep, class_representatives, exp_add, in_R, load_torus
from qtlie.xmatrix import (
    glN_bracket,
    span_dimension,
    verify_identity_on_R,
    verify_product_relation,
    x_power,
)


SPECS = sorted((Path(__file__).resolve().parents[1] / "specs").glob("e*.json"))


def _clock_and_shift(spec, i):
    """diag(1, q_i, ..., q_i^{k_i-1}) and the cyclic shift E_{1,2} + ... + E_{k,1}, entry by entry."""
    ki, fld = spec.k[i], spec.field
    clock, shift = ExactMatrix.zeros(fld, ki), ExactMatrix.zeros(fld, ki)
    for r in range(ki):
        clock[r, r] = fld.root(spec.L // ki * r)
        shift[r, (r + 1) % ki] = fld.one
    return clock, shift


@pytest.mark.parametrize("path", SPECS, ids=lambda path: path.stem)
def test_pair_factor_is_clock_power_times_shift_power(path):
    """The closed form of each pair factor against Clock^a * Shift^b multiplied out, with a
    and b reduced mod k_i (Clock^k_i = Shift^k_i = 1), for a, b in [-k_i, 2 k_i); E6 has no pair."""
    spec = load_torus(path)
    for i, ki in enumerate(spec.k):
        clock, shift = _clock_and_shift(spec, i)
        ident = ExactMatrix.identity(spec.field, ki)
        powers, shifts = [ident], [ident]
        for _ in range(ki):
            powers.append(powers[-1] * clock)
            shifts.append(shifts[-1] * shift)
        assert powers[ki] == shifts[ki] == ident
        for a, b in itertools.product(range(-ki, 2 * ki), repeat=2):
            assert xmatrix._pair_factor(spec, i, a, b) == powers[a % ki] * shifts[b % ki], (i, a, b)


def test_frozen_matrices(e1, e2):
    fld = e1.field
    assert x_power(e1, (1, 1)) == ExactMatrix(fld, [[0, 1], [-1, 0]])
    assert x_power(e1, (2, 2)) == ExactMatrix.identity(fld, 2)
    assert x_power(e2, (3, 0)) == ExactMatrix.identity(e2.field, 3)


def test_power_depends_only_on_class(e1, e2):
    for spec in (e1, e2):
        for n in itertools.product(range(-3, 4), repeat=2):
            assert x_power(spec, n) == x_power(spec, canonical_rep(spec, n))


def test_identity_on_central_lattice(e1, e2):
    for spec in (e1, e2):
        report = verify_identity_on_R(spec, 2 * spec.k[0])
        assert report.passed and report.cases > 0


def test_identity_on_central_lattice_names_the_first_exponent(e1, monkeypatch):
    """X^n doubled off the origin: (0, 0) passes and (0, 2), the next exponent in R, fails."""
    monkeypatch.setattr(xmatrix, "x_power", lambda spec, n: x_power(spec, n).scale(2 if any(n) else 1))
    report = verify_identity_on_R(e1, 4)
    assert not report.passed
    assert (report.cases, report.counterexample) == (2, ((0, 2),))


def test_product_relation(e1, e2):
    assert verify_product_relation(e1, 4).passed
    assert verify_product_relation(e2, 6).passed


def test_flipped_convention_fails(e1):
    report = verify_product_relation(e1, 4, flip=True)
    assert not report.passed
    assert report.counterexample == ((0, 1), (1, 0))


def test_span_is_full_matrix_algebra(e1, e2):
    assert span_dimension(e1) == 4
    assert span_dimension(e2) == 9


def test_bracket_frozen(e1):
    fld = e1.field
    res = glN_bracket(e1, (1, 0), (0, 1))
    assert res.coeff == fld.from_rational(2)
    assert res.exp == (1, 1)
    # matches the literal commutator
    commut = x_power(e1, (1, 0)) * x_power(e1, (0, 1)) - x_power(e1, (0, 1)) * x_power(e1, (1, 0))
    assert commut == ExactMatrix(fld, [[0, 2], [-2, 0]])
    assert commut == x_power(e1, res.exp).scale(res.coeff)


def test_bracket_vanishes_on_central_sums(e1):
    res = glN_bracket(e1, (1, 0), (1, 2))
    assert res.coeff.is_zero()
    assert glN_bracket(e1, (1, 1), (1, 1)).coeff.is_zero()


@pytest.mark.parametrize("fixture", ["e1", "e2"])
def test_bracket_matches_matrix_commutator_exhaustive(fixture, request):
    spec = request.getfixturevalue(fixture)
    reps = class_representatives(spec)
    for r in reps:
        xr = x_power(spec, r)
        for s in reps:
            xs = x_power(spec, s)
            res = glN_bracket(spec, r, s)
            assert xr * xs - xs * xr == x_power(spec, res.exp).scale(res.coeff)


def test_commutative_case(commutative):
    assert x_power(commutative, (5, -2)) == ExactMatrix.identity(commutative.field, 1)
    assert span_dimension(commutative) == 1


def test_trailing_coordinates_do_not_matter(e3):
    for n in itertools.product(range(0, 3), repeat=3):
        shifted = exp_add(n, (0, 0, 5))
        assert x_power(e3, n) == x_power(e3, shifted)
        assert in_R(e3, (2, 2, 7))
