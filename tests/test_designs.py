import itertools
import tracemalloc

import pytest

from mixedwidths import (
    Design,
    GaloisField,
    affine_line_design,
    is_supported_order,
    repeat_design,
    verify_design,
)

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 11, 13, 16]


class TestGaloisField:
    @pytest.mark.parametrize("r", SMALL_ORDERS)
    def test_field_axioms_exhaustive(self, r):
        gf = GaloisField(r)
        els = list(gf.elements())
        add = {(a, b): gf.add(a, b) for a in els for b in els}
        mul = {(a, b): gf.mul(a, b) for a in els for b in els}
        # identities and commutativity
        for a in els:
            assert add[(a, 0)] == a and mul[(a, 1)] == a and mul[(a, 0)] == 0
            for b in els:
                assert add[(a, b)] == add[(b, a)]
                assert mul[(a, b)] == mul[(b, a)]
        # associativity and distributivity over all triples
        for a, b, c in itertools.product(els, repeat=3):
            assert add[(add[(a, b)], c)] == add[(a, add[(b, c)])]
            assert mul[(mul[(a, b)], c)] == mul[(a, mul[(b, c)])]
            assert mul[(a, add[(b, c)])] == add[(mul[(a, b)], mul[(a, c)])]
        # unique inverses
        for a in els[1:]:
            inverses = [b for b in els if mul[(a, b)] == 1]
            assert inverses == [gf.inv(a)]

    def test_characteristic_two(self):
        assert GaloisField(2).add(1, 1) == 0

    def test_gf4_inverses(self):
        gf = GaloisField(4)
        for a in range(1, 4):
            assert gf.mul(a, gf.inv(a)) == 1

    def test_gf3_product(self):
        assert GaloisField(3).mul(2, 2) == 1

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroDivisionError):
            GaloisField(5).inv(0)

    @pytest.mark.parametrize("bad", [1, 6, 9, 12, 15])
    def test_unsupported_orders_rejected(self, bad):
        with pytest.raises(ValueError):
            GaloisField(bad)
        assert not is_supported_order(bad)

    def test_supported_orders(self):
        for r in SMALL_ORDERS + [32, 64]:
            assert is_supported_order(r)


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
