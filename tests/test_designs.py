import hashlib
import itertools
import time
import tracemalloc

import numpy as np
import pytest

from mixedwidths import (
    Design,
    affine_line_design,
    field_tables,
    is_supported_order,
    repeat_design,
    verify_design,
)

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 11, 13, 16]


# sha256 of the int64 bytes of the addition table, then the
# multiplication table, of every supported order up to 64, recorded from
# the scalar field arithmetic the tables replaced
TABLE_DIGESTS = {
    2: "e0e2ab06335db0a120bf836bd1238025e1f166a28ad4c5b58024fcb0b7f3790c",
    3: "cffce48c67cbb359149810ed7be82d51276b41fef6207415e262cadfdb4ee823",
    4: "4450d8a9fbb25198650d8f11c764d9d67452dad2da65911e7b51e603ce347a04",
    5: "85abf1af779bdf17b77369e2c22e52a81e8442f4b3ffd388a1a68ff992c71dc6",
    7: "d47d2047798c9f20faad86b50dc62b52eec8a5668d7ebd0a9ef2e763367e4f48",
    8: "5f037fb7a3a3e3d85b9577b60aed3a79c638ed31036d065bdb7346f90fc311bb",
    11: "56f1eb01bcf3ddc005ded52de5c3ac2d76f386ee8734584f2c6db01b7caea20f",
    13: "2b791b349f218002d90967d3f2690ba794ca463645e4bfff4e31bc42c9a09f6c",
    16: "d37030fcdd9c22139034f3d0897b7cd4f8a9c12cecb1b29dd50d5c5cef955e74",
    17: "433889178d737594099582a58884e266fb0a1290ff6da4a2bb07f975069b6016",
    19: "9b927223af476c1fd141fe99baa37776e55f645d6e75536a40cacdf236c72019",
    23: "3e767e4a54a2fe23c30d902d968de99b7aacf6a6b1c5907c01e34e50b56cb63e",
    29: "7a753a2780e0cbc837241f8cc395bcefecb57109bb37ac2f3711bdbe513c7c42",
    31: "208845b517e7860003deedba31da5dec093a18261400ef50d3b5c050ba14da16",
    32: "45d5e5be67f0350e8196582a586aa8848f01bc141aba1a3fcb840c797de5c2a6",
    37: "6b88183848fc678c26ceaeb2c95f1954e814e3648edfc5aff36e12bbaf091eec",
    41: "f61cabf3ab3e800bf1cbc4dce4b7f148a5b4b9edea6aacde6c669e9ed9517efb",
    43: "5a4fb0ad509958d13cd4c5589d1bd10267c5eacfac42962e90d705179ff2223d",
    47: "94e29e7693946161b8f2b30584a54e9aa1702d65895dd5df950906b02a039dfd",
    53: "47adf036f0a9a143f0192c37d9bdbca72ebf07c8581c7f9a90bcd6f6a44b091b",
    59: "16dd7f787691954f11409c433946a5a7aa04b7f23589afb0580ddcc8c49ab2fb",
    61: "f498d1a9edf96d2c0c21c8df137d0cbdd921f57e33f0f120401ea6fa0d93b31f",
    64: "51fcc993f469ca3471602275a85e02474e79b1ba9da97a62786045360c21ecc6",
}


class TestGaloisField:
    @pytest.mark.parametrize("r", SMALL_ORDERS)
    def test_field_axioms_exhaustive(self, r):
        add, mul = field_tables(r)
        els = range(r)
        # identities and commutativity
        for a in els:
            assert add[a, 0] == a and mul[a, 1] == a and mul[a, 0] == 0
        assert (add == add.T).all() and (mul == mul.T).all()
        # associativity and distributivity over all triples
        for a, b, c in itertools.product(els, repeat=3):
            assert add[add[a, b], c] == add[a, add[b, c]]
            assert mul[mul[a, b], c] == mul[a, mul[b, c]]
            assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]
        # unique inverses, and none for 0
        assert (mul == 1).sum(axis=1).tolist() == [0] + [1] * (r - 1)

    def test_tables_match_the_recorded_digests(self):
        assert [r for r in range(2, 65) if is_supported_order(r)] == list(TABLE_DIGESTS)
        for r, digest in TABLE_DIGESTS.items():
            add, mul = field_tables(r)
            assert add.dtype == mul.dtype == np.int64 and add.shape == mul.shape == (r, r)
            assert hashlib.sha256(add.tobytes() + mul.tobytes()).hexdigest() == digest, r

    def test_characteristic_two(self):
        add, _ = field_tables(2)
        assert add[1, 1] == 0

    def test_gf4_inverses(self):
        _, mul = field_tables(4)
        assert [mul[a].tolist().index(1) for a in range(1, 4)] == [1, 3, 2]

    def test_gf3_product(self):
        _, mul = field_tables(3)
        assert mul[2, 2] == 1

    def test_zero_inverse_rejected(self):
        _, mul = field_tables(5)
        assert 1 not in mul[0]

    @pytest.mark.parametrize("bad", [1, 6, 9, 12, 15])
    def test_unsupported_orders_rejected(self, bad):
        with pytest.raises(ValueError):
            field_tables(bad)
        assert not is_supported_order(bad)

    def test_supported_orders(self):
        for r in SMALL_ORDERS + [32, 64]:
            assert is_supported_order(r)

    def test_primality_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))

        # the supported orders are exactly the primes and powers of two
        # from 2 to 64, and no order outside that range is supported
        assert [r for r in range(-5, 5000) if is_supported_order(r)] == list(TABLE_DIGESTS)
        for lo in (0, 10**4, 10**6):
            orders = [n for n in range(lo, lo + 1000) if n & (n - 1)]
            assert [is_supported_order(n) for n in orders] == [trial(n) and n <= 64 for n in orders]

    def test_large_orders_are_tested_at_once(self):
        start = time.perf_counter()
        # a prime just past the cap, a Mersenne prime, its odd neighbour,
        # and a strong pseudoprime to every prime base up to 37
        for r in (67, 2**61 - 1, 2**61 + 1, 318665857834031151167461):
            assert is_supported_order(r) is False
        assert time.perf_counter() - start < 0.1

    def test_orders_past_the_exact_range_refused(self):
        # a strong pseudoprime to every prime base up to 41: refused by
        # returning False, not by an exception
        assert is_supported_order(3317044064679887385961981) is False
        with pytest.raises(ValueError, match="exceeds 64"):
            field_tables(3317044064679887385961981)

    @pytest.mark.parametrize("r, supported", [(np.int64(8), True), (np.int64(6), False), (np.int64(7), True)])
    def test_numpy_integer_orders_read_as_ints(self, r, supported):
        assert is_supported_order(r) == supported

    @pytest.mark.parametrize("r", [8.0, 7.0])
    def test_float_orders_refused(self, r):
        with pytest.raises(TypeError):
            is_supported_order(r)

    def test_tables_refuse_orders_no_design_uses(self):
        with pytest.raises(ValueError, match="exceeds 64"):
            field_tables(67)
        with pytest.raises(ValueError, match="exceeds 64"):
            field_tables(2**61 - 1)
        assert field_tables(64)[0].shape == (64, 64)


class TestAffineLineDesign:
    @pytest.mark.parametrize(
        "r,d,m,repl",
        [(2, 2, 6, 3), (3, 2, 12, 4), (2, 3, 28, 7)],
    )
    def test_small_cases(self, r, d, m, repl):
        design = affine_line_design(r, d)
        assert design.b == r**d and design.m == m and design.l == 1
        report = verify_design(design)
        assert report.ok and report.l_observed == 1
        assert set(design.point_replication()) == {repl}

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 7, 8])
    @pytest.mark.parametrize("d", [2, 3])
    def test_parameter_formulas(self, r, d):
        if r**d > 4096:
            pytest.skip("ground set too large for the exhaustive scan")
        design = affine_line_design(r, d)
        b = r**d
        assert design.m == r ** (d - 1) * (b - 1) // (r - 1)
        assert set(design.point_replication()) == {(b - 1) // (r - 1)}
        assert verify_design(design).ok

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError):
            affine_line_design(2, 1)

    def test_too_many_line_memberships_refused_before_building(self):
        # 2^12 fits the 4096-point cap, but AG(12, 2) has 16.8 million
        # line memberships
        start = time.perf_counter()
        with pytest.raises(ValueError, match="line memberships, over 6000000"):
            affine_line_design(2, 12)
        assert time.perf_counter() - start < 1.0

    def test_deterministic_enumeration(self):
        a = affine_line_design(3, 2)
        b = Design.from_json_dict(a.to_json_dict())
        assert a.sets == b.sets


class TestRepeatDesign:
    def test_identity(self):
        design = affine_line_design(2, 2)
        assert repeat_design(design, 1) is design

    def test_triple_repeat(self):
        design = repeat_design(affine_line_design(2, 2), 3)
        assert design.m == 18 and design.l == 3
        report = verify_design(design)
        assert report.ok and report.l_observed == 3
        assert set(design.point_replication()) == {9}

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            repeat_design(affine_line_design(2, 2), 0)


class TestVerifyDesign:
    def test_detects_missing_set(self):
        design = affine_line_design(2, 2)
        broken = Design(b=design.b, r=design.r, l=design.l, sets=design.sets[1:])
        report = verify_design(broken)
        assert not report.ok and report.l_observed is None

    def test_detects_declared_l_mismatch(self):
        design = affine_line_design(2, 2)
        mislabeled = Design(b=design.b, r=design.r, l=5, sets=design.sets)
        report = verify_design(mislabeled)
        assert not report.ok and report.l_observed == 1

    def test_memory_per_pair_of_an_affine_line_design(self):
        # no two adjacent sets are equal, so the pair count needs neither a
        # weight array nor a sort order: about 20 bytes per pair, where
        # the weighted count held about 50
        design = affine_line_design(32, 2)
        verify_design(affine_line_design(4, 2))  # first-call imports
        pairs = len(design.sets) * design.r * (design.r - 1) // 2
        tracemalloc.start()
        try:
            report = verify_design(design)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and report.l_observed == 1
        assert peak < 30 * pairs, peak / pairs

    def test_detects_wrong_set_size(self):
        design = Design(b=4, r=3, l=1, sets=((0, 1), (2, 3)))
        assert not verify_design(design).ok
