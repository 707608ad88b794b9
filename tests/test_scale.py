"""Scale invariance across the float range.

Every parameter is homogeneous in B and every bound of degree 2, so scaling a
float profile by 2^k must scale each output by an exact power of two and
leave every beta and every branch choice alone, for k far beyond the range
where squares or fourth powers of the entries are representable.  Two kinds
of output may differ, both by rounding:

- Schatten roots (so every Schatten field and bound) are taken of the
  full-scale sum where that is a normal float, else of the normalised sum.
  Where the sum leaves the normal range the root switches, and libm's pow is
  not correctly rounded, so the root can move in the last place; a scan of
  60 seeded profiles saw this for b_p and beta_p at p = 4 on one of them.
  For p >= 6, 1/p is rounded too, so inside the normal range
  (2^(2pk) x)^fl(1/p) drifts from 2^(2k) x^fl(1/p) by about
  2pk |1/p - fl(1/p)| ln 2 relative, under 1e-14.
- The free-probability comparator has the half-degree factors sqrt(sigma_*)
  and sigma^(3/2).  They are evaluated on 2^-e B with e even, which keeps the
  values of B itself at normal scales, so they scale exactly by 4^j but at an
  odd power of two are rounded anew, a few units in the last place.

Warnings are errors: no overflow or underflow may be signalled on the way.
"""

import math

import numpy as np
import pytest

from covdev import (
    VarianceProfile,
    chz_bound,
    compute_params,
    compute_schatten_params,
    diagonal_bound,
    free_probability_bound,
    kl_comparator,
    lower_bound_opnorm,
    load_profile,
    lower_bound_schatten,
    main_upper_bound,
    schatten_upper_bound,
)
from covdev.params import normalized_params, normalized_schatten_params

from conftest import float_profile, scaled

pytestmark = pytest.mark.filterwarnings("error")

ORDERS = (2, 4, 6)
LAST_PLACES = 2.0**-50  # relative: a few units in the last place
ROOT_DRIFT = 1e-14  # relative, for the Schatten fields and bounds of order p >= 6
DEGREE = {
    "sigma_C": 1, "sigma_R": 1, "sigma_star": 1, "b_p": 1,
    "sigma_tilde_inf": 2, "sigma_bar_inf": 2, "sigma_inf": 2,
    "sigma_p": 2, "sigma_p_prime": 2, "sigma_bar_p": 2,
    "beta_inf": 0, "beta_p": 0, "eff_rank": 0, "p": 0,
}
TWO_BRANCH = ("main_upper_bound", "schatten_upper_bound")


def outputs(B):
    """[(Schatten order or None, name, value)] for every parameter and bound
    total, and {(order, bound name): case_taken}."""
    values = [(None, f, v) for f, v in compute_params(B).to_dict().items()]
    reports = [(None, r) for r in (main_upper_bound(B), chz_bound(B), free_probability_bound(B),
                                   lower_bound_opnorm(B), kl_comparator(B))]
    for p in ORDERS:
        values += [(p, f, v) for f, v in compute_schatten_params(B, p).to_dict().items()]
        reports += [(p, schatten_upper_bound(B, p)), (p, diagonal_bound(B, p)), (p, lower_bound_schatten(B, p))]
    values += [(p, r.bound_name, r.total) for p, r in reports]
    return values, {(p, r.bound_name): r.case_taken for p, r in reports}


def assert_power_of_two_image(B, k):
    """Every output of B scaled by 2^k is that of B times 2^(degree * k)."""
    base_values, base_cases = outputs(B)
    values, cases = outputs(scaled(B, 2.0**k))
    assert cases == base_cases, k
    assert all(cases[key] in ("beta_le_1", "beta_gt_1") for key in cases if key[1] in TWO_BRANCH)
    for (p, name, want), (_, _, got) in zip(base_values, values):
        image = math.ldexp(want, DEGREE.get(name, 2) * k)
        if p is not None:
            assert math.isclose(got, image, rel_tol=ROOT_DRIFT if p >= 6 else LAST_PLACES), (k, p, name, got, image)
        elif name == "free_probability_bound" and k % 2:
            assert math.isclose(got, image, rel_tol=LAST_PLACES), (k, name, got, image)
        else:
            assert got == image, (k, p, name, got, image)


def test_two_by_two_at_every_binade():
    B = VarianceProfile([[1.0, 1.0], [1.0, 0.5]], exact=False)
    assert compute_params(B).beta_inf > 1  # the branch that underflow used to flip
    for k in range(-500, 501):
        assert_power_of_two_image(B, k)


@pytest.mark.parametrize("seed", range(6))
def test_seeded_float_profiles(seed):
    rng = np.random.default_rng(100 + seed)
    B = float_profile(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)), zero_frac=0.2)
    for k in list(range(-500, 501, 25)) + [-499, -1, 1, 499]:
        assert_power_of_two_image(B, k)


def test_schatten_orders_below_six_keep_the_plain_root():
    # where the full-scale sum is normal, sigma_p is its root, as without the normalisation
    B = VarianceProfile([[1.0, 1.0], [1.0, 0.5]], exact=False)
    rows = (B.as_array() ** 2) @ (B.as_array() ** 2).T
    for p in ORDERS:
        assert compute_schatten_params(B, p).sigma_p == float(np.sum(rows.sum(axis=1) ** (p // 2))) ** (1.0 / p)


@pytest.mark.parametrize("k", [1030, 1200, 3000])
def test_exact_profile_below_the_float_range(k):
    # every float cell underflows to a subnormal or to 0; the normalisation
    # comes from the exact cells, so 2^-k B normalises as B does
    B = load_profile("1,1\n1,2\n3/2,0", format="csv")
    tiny = load_profile(f"1/{2**k},1/{2**k}\n1/{2**k},2/{2**k}\n3/{2**(k + 1)},0", format="csv")
    assert tiny.as_array().max() < 2.0**-1022
    e, P = normalized_params(B)
    assert normalized_params(tiny) == (e - k, P)
    for p in ORDERS:
        (e_tiny, got), want = normalized_schatten_params(tiny, p), normalized_schatten_params(B, p)[1].to_dict()
        assert e_tiny == e - k
        for name, value in got.to_dict().items():  # the roots: see the module docstring
            assert math.isclose(value, want[name], rel_tol=ROOT_DRIFT if p >= 6 else LAST_PLACES), (p, name)
