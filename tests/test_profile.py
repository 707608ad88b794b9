import math
from fractions import Fraction

import numpy as np
import pytest

from covdev import (
    ProfileDomainError,
    ProfileFormatError,
    VarianceProfile,
    bounded_ratio,
    load_profile,
    rank_one,
)

from conftest import entries, float_profile, rational_profile, scaled


def reference_csv(B: VarianceProfile) -> str:
    """The per-cell renderer that `to_csv` replaced: every cell of every row
    formatted, repr for floats, str for ints and "p/q" cells in lowest terms."""

    def ratio(num, den):
        g = math.gcd(num, den)
        return num // g if g == den else f"{num // g}/{den // g}"

    cells = B._matrix.tolist()
    if B._den not in (None, 1):
        cells = [[ratio(x, B._den) for x in row] for row in cells]
    fmt = repr if not B.exact else str
    return "".join(",".join(map(fmt, row)) + "\n" for row in cells)


def to_json_obj(B: VarianceProfile) -> dict:
    """B as a JSON object: float cells, or ints and "p/q" strings in lowest terms."""

    def cell(x):
        if isinstance(x, float):
            return x
        return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    return {"d": B.d, "n": B.n, "entries": [[cell(x) for x in row] for row in entries(B)]}


class TestLoadCsv:
    def test_exact_integers(self):
        B = load_profile("1,2\n3,4")
        assert (B.d, B.n) == (2, 2)
        assert B.exact
        assert entries(B) == ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))

    def test_negative_entry_rejected(self):
        with pytest.raises(ProfileDomainError):
            load_profile("1,-2")

    def test_ragged_rows(self):
        with pytest.raises(ProfileFormatError) as exc:
            load_profile("1,2\n3")
        assert exc.value.line == 2

    def test_rational_cells(self):
        B = load_profile("1/2,3\n0,5/4")
        assert B.exact
        assert entries(B)[0][0] == Fraction(1, 2)
        assert entries(B)[1][1] == Fraction(5, 4)

    def test_decimal_demotes_to_float(self):
        B = load_profile("1,0.5\n2,3")
        assert not B.exact
        assert all(isinstance(x, float) for row in entries(B) for x in row)

    def test_empty_rejected(self):
        with pytest.raises((ProfileDomainError, ProfileFormatError)):
            load_profile("")

    def test_garbage_cell(self):
        with pytest.raises(ProfileFormatError) as exc:
            load_profile("1,x")
        assert exc.value.line == 1

    def test_bytes_input(self):
        B = load_profile(b"2,3\n")
        assert entries(B) == ((Fraction(2), Fraction(3)),)


class TestLoadJson:
    def test_zero_profile_admissible(self):
        B = load_profile("[[0,0],[0,0]]")
        assert (B.d, B.n) == (2, 2)
        assert B.is_zero
        assert B.exact

    def test_object_form(self):
        B = load_profile('{"d":2,"n":3,"entries":[[1,2,3],["1/2",0,1]]}')
        assert (B.d, B.n) == (2, 3)
        assert B.exact
        assert entries(B)[1][0] == Fraction(1, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ProfileFormatError):
            load_profile('{"d":2,"n":2,"entries":[[1,2]]}')

    def test_float_entries(self):
        B = load_profile("[[0.5,1.5]]")
        assert not B.exact

    def test_negative_rejected(self):
        with pytest.raises(ProfileDomainError):
            load_profile("[[1,-1]]")


class TestRoundTrip:
    def test_csv_bit_exact(self):
        text = "1/2,3\n0,7/5\n"
        B = load_profile(text)
        assert B.to_csv() == text
        assert load_profile(B.to_csv()) == B

    def test_random_rational_round_trips(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            B = rational_profile(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            again = load_profile(B.to_csv())
            assert again == B
            assert again.to_csv() == B.to_csv()

    def test_csv_matches_per_cell_reference(self):
        rng = np.random.default_rng(23)
        a, b = rng.uniform(0.5, 1.5, size=6), rng.uniform(0.5, 1.5, size=4)
        ia, ib = [Fraction(int(x), 3) for x in rng.integers(0, 5, size=6)], [int(x) for x in rng.integers(1, 4, size=4)]
        big = 2**70 + 1
        shared = VarianceProfile._of(np.array([[big, 3], [big, 3], [big, 3]], dtype=object), 1)
        # equal values in distinct int objects: each row keys apart and renders alike
        apart = VarianceProfile._of(np.array([[int(str(big)), int(str(big))] for _ in range(3)], dtype=object), 1)
        assert shared._matrix[0, 0] is shared._matrix[1, 0] and apart._matrix[0, 0] is not apart._matrix[1, 0]
        signed = rank_one([0.0, -0.0, 1.5, -0.0, 0.0], b)
        profiles = [
            rank_one([1] * 6, [1] * 4),
            rank_one([1] * 6, [1.0] * 4),  # constant, float form
            rank_one([1] * 6, ib),
            rank_one([1] * 6, b),
            rank_one(ia, [1] * 4),
            rank_one(a, [1] * 4),
            rank_one(ia, ib),
            rank_one(a, b),
            bounded_ratio(float_profile(rng, 6, 4), 1.2),
            float_profile(rng, 20, 30),
            load_profile("1/2,3,7/5\n1/2,3,7/5\n0,2/3,4\n"),
            rational_profile(rng, 7, 5, max_num=3, max_den=3),
            TestExactArithmeticSafety().big_profile(),
            shared,
            apart,
            signed,
            rank_one([1.5], b),
            rank_one(ia, [1]),
            rank_one([1], [1]),
        ]
        assert shared._matrix.dtype == apart._matrix.dtype == object
        assert signed.to_csv().splitlines()[1].split(",") == ["-0.0"] * 4
        for B in profiles:
            assert B.to_csv() == reference_csv(B)

    def test_json_round_trip(self):
        import json

        B = load_profile("1/2,3\n0,7/5")
        again = load_profile(json.dumps(to_json_obj(B)))
        assert again == B


class TestGenerate:
    def test_iid_rows(self):
        B = rank_one([1] * 2, (1, 2))
        assert entries(B) == ((1, 2), (1, 2))

    def test_rank_one(self):
        B = rank_one((1, 2), (3, 1))
        assert entries(B) == ((3, 1), (6, 2))

    def test_constant(self):
        B = rank_one([1] * 3, [1] * 5)
        assert (B.d, B.n) == (3, 5)
        assert all(x == 1 for row in entries(B) for x in row)
        assert B.exact

    def test_iid_columns(self):
        B = rank_one((2, 5), [1] * 3)
        assert entries(B) == ((2, 2, 2), (5, 5, 5))

    def test_rank_one_is_entrywise_product(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            a = [Fraction(int(rng.integers(0, 5))) for _ in range(d)]
            b = [Fraction(int(rng.integers(0, 5))) for _ in range(n)]
            R = rank_one(a, b)
            C = rank_one(a, [1] * n)
            Rw = rank_one([1] * d, b)
            for i in range(d):
                for j in range(n):
                    assert entries(R)[i][j] == entries(C)[i][j] * entries(Rw)[i][j]

    def test_negative_vector_rejected(self):
        with pytest.raises(ProfileDomainError):
            rank_one([1] * 2, (1, -2))


class TestRankOne:
    @pytest.mark.parametrize("a, b, dtype", [
        ((2**63 - 1, 3, 0), (1, 0), np.int64),  # the largest product is the largest int64
        ((Fraction(2**63 - 1, 3), 1), (Fraction(1, 5), 0), np.int64),
        ((2**62, 3, 0), (2, 1), object),  # the largest product is 2**63
        ((2**70, 1), (0, 1), object),
    ])
    def test_int64_only_while_the_largest_product_fits(self, a, b, dtype):
        B = rank_one(a, b)
        assert B._matrix.dtype == dtype
        assert B == VarianceProfile([[Fraction(x) * Fraction(y) for y in b] for x in a])
        assert entries(B) == tuple(tuple(Fraction(x) * Fraction(y) for y in b) for x in a)

    def test_int_and_fraction_cells_are_exact(self):
        a, b = (1, Fraction(1, 2), 0), (Fraction(2, 3), 3)
        B = rank_one(a, b)
        assert B.exact
        assert entries(B) == tuple(tuple(Fraction(x) * y for y in b) for x in a)

    @pytest.mark.parametrize("a, b", [
        ((1, 2), (0.5, 3)),
        ((Fraction(1, 3), 2), (3, 2.0)),
    ])
    def test_any_float_cell_gives_the_float_products(self, a, b):
        B = rank_one(a, b)
        assert not B.exact
        want = np.array([[float(x) * float(y) for y in b] for x in a])
        assert np.array_equal(B.as_array(), want)

    @pytest.mark.parametrize("a, b", [((), (1, 2)), ((1,), ()), ([], [1.5])])
    def test_empty_vector_rejected(self, a, b):
        with pytest.raises(ProfileDomainError):
            rank_one(a, b)


class TestBoundedRatio:
    def test_column_norms_within_factor(self):
        rng = np.random.default_rng(3)
        for K in (1.0, 1.5, 3.0):
            base = VarianceProfile(
                tuple(tuple(float(x) for x in row) for row in rng.uniform(0.1, 2.0, size=(4, 6)))
            )
            B = bounded_ratio(base, K)
            arr = B.as_array()
            norms = np.sqrt((arr**2).sum(axis=0))
            nz = norms[norms > 0]
            assert nz.max() <= K * nz.min() * (1 + 1e-12)

    def test_compliant_base_unchanged(self):
        base = rank_one([1] * 3, [1] * 3)
        B = bounded_ratio(base, 2.0)
        assert B is base
        assert B.exact

    def test_zero_columns_tolerated(self):
        base = VarianceProfile(((1.0, 0.0), (1.0, 0.0)))
        B = bounded_ratio(base, 1.0)
        arr = B.as_array()
        assert arr[0, 1] == 0.0

    def test_k_below_one_rejected(self):
        base = rank_one([1] * 2, [1] * 2)
        for K in (0.5, float("nan")):
            with pytest.raises(ValueError):
                bounded_ratio(base, K)
        assert bounded_ratio(base, float("inf")) is base


class TestProfileObject:
    def test_immutable_array_view(self):
        B = load_profile("1,2")
        with pytest.raises(ValueError):
            B.as_array()[0, 0] = 5.0

    def test_scaled_exact(self):
        B = load_profile("1/2,3")
        S = scaled(B, Fraction(2))
        assert S.exact and entries(S) == ((Fraction(1), Fraction(6)),)

    @pytest.mark.parametrize("entries, exact", [
        ([[1, Fraction(1, 2)]], True),
        ([[1, 0.5]], False),
        ([[True, 2]], False),  # a bool counts as a float
        (np.array([[1, 2]]), True),
        (np.array([[2**64 - 1, 2]], dtype=np.uint64), True),
        (np.array([[1.0, 2.0]]), False),
        (np.array([[Fraction(1, 2), 2]], dtype=object), False),
    ])
    def test_exactness_follows_the_cells(self, entries, exact):
        B = VarianceProfile(entries)
        assert B.exact is exact
        nums, den = B.numerators
        assert [Fraction(int(x), den) for x in nums.flat] == [Fraction(x) for x in np.asarray(entries).flat]

    @pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1.0, 2.0], [3.0]]], ids=["exact", "float"])
    def test_ragged_rows_rejected(self, rows):
        with pytest.raises(ProfileFormatError, match="row 2 has 1 cells, expected 2") as info:
            VarianceProfile(rows)
        assert info.value.line == 2

    def test_non_finite_rejected(self):
        with pytest.raises(ProfileDomainError):
            VarianceProfile(((float("nan"),),))

    def test_numerators(self):
        B = load_profile("1/2,3\n0,5/4")
        nums, den = B.numerators
        assert den == 4
        assert nums.tolist() == [[2, 12], [0, 5]]

    def test_numerators_of_float_cells_are_exact(self):
        cells = [5e-324, -0.0, 2.0**500, 2.0**-500, 2.2250738585072014e-308 / 3, 0.1]
        rows = [cells, cells[::-1]]
        nums, den = VarianceProfile(rows).numerators
        assert not nums.flags.writeable and all(type(x) is int for x in nums.flat)
        assert [[Fraction(x, den) for x in row] for row in nums.tolist()] == [list(map(Fraction, row)) for row in rows]


class TestExactArithmeticSafety:
    """Numerators and denominators beyond int64, and the float view, cell by cell."""

    BIG = 2**64 + 13  # odd, so the common denominator stays above 2**63

    def big_profile(self):
        rows = (
            (Fraction(2**70 + 1, self.BIG), Fraction(3, 7), Fraction(0)),
            (Fraction(5, self.BIG * 3), Fraction(2**66 + 5, 11), Fraction(1, 2)),
        )
        return VarianceProfile(rows)

    def test_beyond_int64_stays_python_ints(self):
        B = self.big_profile()
        nums, den = B.numerators
        nums = nums.tolist()
        assert den > 2**63 and max(map(max, nums)) > 2**63
        assert all(type(x) is int for row in nums for x in row) and type(den) is int
        assert [[Fraction(x, den) for x in row] for row in nums] == [list(row) for row in entries(B)]

    def test_offdiag_moment_exact_beyond_int64(self):
        from covdev.oracle import offdiag_trace_moment

        B = self.big_profile()
        ent, d, n = entries(B), B.d, B.n
        want = sum(ent[i][j] ** 2 * ent[l][j] ** 2 for i in range(d) for l in range(d) if l != i for j in range(n))
        assert offdiag_trace_moment(B, 2) == want

    def test_csv_round_trip_beyond_int64(self):
        B = self.big_profile()
        again = load_profile(B.to_csv())
        assert again == B and again.exact
        assert again.to_csv() == B.to_csv()

    def test_as_array_matches_float_of_each_cell(self):
        rng = np.random.default_rng(17)
        profiles = [self.big_profile(), load_profile("1/3,2/7\n5,1/1000003\n")]
        profiles += [rational_profile(rng, 6, 8, max_num=1000, max_den=30) for _ in range(5)]
        profiles += [rational_profile(rng, 3, 4, max_num=10**6, max_den=10**5) for _ in range(5)]
        # int64 cells that float64 would round: a numerator above 2**53, a denominator above 2**53
        profiles.append(VarianceProfile(((Fraction(2**54 + 1, 3), Fraction(1, 3)),)))
        profiles.append(VarianceProfile(((Fraction(1, 2**53 + 1), Fraction(2**40 + 1, 2**53 + 1)),)))
        for B in profiles:
            want = np.array([[float(x) for x in row] for row in entries(B)])
            got = B.as_array()
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    def test_params_computed_once_per_profile(self):
        from covdev.params import compute_params, compute_schatten_params

        B = rank_one([1] * 3, [1] * 4)
        assert compute_params(B) is compute_params(B)
        assert compute_schatten_params(B, 4) is compute_schatten_params(B, 4)

    def test_bounds_command_builds_pair_sums_once(self, monkeypatch, capsys):
        from covdev import params
        from covdev.cli import main

        built = []
        real = params._pair_sums

        def spy(B):
            built.append(B)
            return real(B)

        monkeypatch.setattr(params, "_pair_sums", spy)
        assert main(["bounds", "--family", "constant", "--d", "4", "--n", "6", "--p", "2,4"]) == 0
        capsys.readouterr()
        assert len(built) == 1
