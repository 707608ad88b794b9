"""Scale invariance across the float range.

Every parameter is homogeneous in B and every bound of degree 2, so scaling a
float profile by 2^k must scale each output by an exact power of two and
leave every beta and every branch choice alone, for k far beyond the range
where squares or fourth powers of the entries are representable.  Each
output is computed from 2^-e B, the same array at every scale, so each must
be its exact power-of-two image, bit for bit, wherever that image is a
float: the Schatten roots, the betas and the free-probability comparator's
half-degree factors included.

Warnings are errors: no overflow or underflow may be signalled on the way.
"""

import math
from dataclasses import asdict

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
    values = [(None, f, v) for f, v in asdict(compute_params(B)).items()]
    reports = [(None, r) for r in (main_upper_bound(B), chz_bound(B), free_probability_bound(B),
                                   lower_bound_opnorm(B), kl_comparator(B))]
    for p in ORDERS:
        values += [(p, f, v) for f, v in asdict(compute_schatten_params(B, p)).items()]
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
        assert got == image, (k, p, name, got, image)


def test_two_by_two_at_every_binade():
    B = VarianceProfile([[1.0, 1.0], [1.0, 0.5]])
    assert compute_params(B).beta_inf > 1  # the branch that underflow used to flip
    for k in range(-500, 501):
        assert_power_of_two_image(B, k)


def test_one_row_constant_at_every_binade():
    # one row: sigma_p = sigma_bar_p and b_p = sigma_C, so beta_p is 1 exactly at every
    # scale, on the boundary between the two Schatten branches
    B = VarianceProfile([[1.0, 1.0, 1.0]])
    for k in range(-500, 501):
        assert_power_of_two_image(B, k)
        assert all(compute_schatten_params(scaled(B, 2.0**k), p).beta_p == 1.0 for p in (2, 4, 6, 8)), k


@pytest.mark.parametrize("seed", range(6))
def test_seeded_float_profiles(seed):
    rng = np.random.default_rng(100 + seed)
    B = float_profile(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)), zero_frac=0.2)
    for k in list(range(-500, 501, 25)) + [-499, -1, 1, 499]:
        assert_power_of_two_image(B, k)


@pytest.mark.parametrize("k", [1030, 1200, 3000])
def test_exact_profile_below_the_float_range(k):
    # every float cell underflows to a subnormal or to 0; the normalisation
    # comes from the exact cells, so 2^-k B normalises as B does
    B = load_profile("1,1\n1,2\n3/2,0")
    tiny = load_profile(f"1/{2**k},1/{2**k}\n1/{2**k},2/{2**k}\n3/{2**(k + 1)},0")
    assert tiny.as_array().max() < 2.0**-1022
    e, P = normalized_params(B)
    assert normalized_params(tiny) == (e - k, P)
    for p in ORDERS:
        assert normalized_schatten_params(tiny, p) == (e - k, normalized_schatten_params(B, p)[1])
