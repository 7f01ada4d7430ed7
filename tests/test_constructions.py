import pytest

from hatkit.constructions import (
    XeParams,
    XoParams,
    build_circulant,
    build_cubic_arc_graph,
    build_wreath,
    build_xe,
    build_xo,
    geometric_sum,
    reconstruct_from_invariants,
    special_circulant_k44,
    valid_xe_params,
    valid_xo_params,
    wreath_hat_group,
)
from hatkit.errors import (
    ContainsZeroError,
    InvalidParamsError,
    NoSolutionError,
    NotInverseClosedError,
)
from hatkit.graphcore import build_graph, certify_hat


class TestParams:
    def test_xo_rejects_even_radius(self):
        with pytest.raises(InvalidParamsError):
            XoParams(3, 8, 3).validate()

    def test_xo_rejects_bad_power(self):
        with pytest.raises(InvalidParamsError):
            XoParams(3, 9, 3).validate()  # 3 is not a unit mod 9

    def test_xo_rejects_wrong_power(self):
        with pytest.raises(InvalidParamsError):
            XoParams(4, 9, 2).validate()  # 2^4 = 7, not +-1 mod 9

    def test_xe_rejects_odd_m(self):
        with pytest.raises(InvalidParamsError):
            XeParams(3, 20, 3, 0).validate()

    def test_xe_wrap_constraint(self):
        with pytest.raises(InvalidParamsError):
            XeParams(4, 20, 3, 1).validate()  # 40 + 2 != 0 mod 20
        XeParams(4, 20, 3, 0).validate()
        XeParams(4, 20, 3, 10).validate()

    def test_geometric_sum(self):
        assert geometric_sum(3, 4, 20) == (1 + 3 + 9 + 27) % 20

    def test_valid_param_enumeration(self):
        qs = {p.q for p in valid_xo_params(3, 9)}
        assert qs == {1, 2, 4, 5, 7, 8}
        pairs = {(p.q, p.t) for p in valid_xe_params(4, 20)}
        assert (3, 0) in pairs and (3, 10) in pairs

    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_xe_params_match_the_scan(self, m):
        """The solved t against every (q, t) that validates, in order."""
        for r in range(4, 61):
            scan = []
            for q in range(1, r):
                for t in range(r):
                    try:
                        XeParams(m, r, q, t).validate()
                    except InvalidParamsError:
                        continue
                    scan.append(XeParams(m, r, q, t))
            assert valid_xe_params(m, r) == scan, r

    @pytest.mark.parametrize("m", range(3, 9))
    def test_xo_params_match_the_scan(self, m):
        """The units with q^m = +-1 against every q that validates, in
        order."""
        for r in range(3, 100, 2):
            scan = []
            for q in range(1, r):
                try:
                    XoParams(m, r, q).validate()
                except InvalidParamsError:
                    continue
                scan.append(XoParams(m, r, q))
            assert valid_xo_params(m, r) == scan, r


class TestBuildFamilies:
    def test_xo_shape(self):
        g, grp = build_xo(XoParams(3, 9, 2))
        assert g.n == 27 and g.is_regular(4) and g.is_connected
        assert grp.order() == 2 * 3 * 9

    def test_xe_shape(self):
        g, grp = build_xe(XeParams(4, 6, 1, 1))
        assert g.n == 24 and g.is_regular(4) and g.is_connected
        assert grp.order() == 2 * 4 * 6

    def test_families_certify(self):
        for p in (XoParams(3, 9, 2), XoParams(4, 5, 2)):
            g, grp = build_xo(p)
            certify_hat(g, grp)
        g, grp = build_xe(XeParams(4, 20, 3, 10))
        certify_hat(g, grp)

    def test_stabilizer_order_two(self):
        # |G| = 2|V|: vertex stabilizers have order 2
        g, grp = build_xo(XoParams(3, 9, 2))
        stab = [p for p in grp.elements() if p(0) == 0]
        assert len(stab) == 2


class TestCirculant:
    def test_zero_rejected(self):
        with pytest.raises(ContainsZeroError):
            build_circulant(7, {0, 1, -1})

    def test_inverse_closure_enforced(self):
        with pytest.raises(NotInverseClosedError):
            build_circulant(7, {1, 6, 2})

    def test_structure(self):
        g = build_circulant(13, {1, -1, 3, -3})
        assert g.n == 13 and g.is_regular(4)

    def test_two_cycle_instance(self):
        g, grp = special_circulant_k44()
        assert g.n == 8 and grp.order() == 16
        certify_hat(g, grp)


class TestWreath:
    def test_too_small(self):
        with pytest.raises(InvalidParamsError):
            build_wreath(2)

    def test_shape(self):
        g = build_wreath(5)
        assert g.n == 10 and g.is_regular(4)

    def test_group(self):
        grp = wreath_hat_group(5)
        assert grp.order() == 2**5 * 5


class TestArcGraph:
    def test_k4_arc_graph(self):
        from hatkit.autsearch import automorphism_group
        k4 = build_graph(4, [(i, j) for i in range(4)
                             for j in range(i + 1, 4)])
        g, grp = build_cubic_arc_graph(k4, automorphism_group(k4))
        assert g.n == 12 and g.is_regular(4)
        certify_hat(g, grp)

    def test_rejects_non_cubic(self):
        with pytest.raises(InvalidParamsError):
            build_cubic_arc_graph(build_circulant(7, {1, -1, 2, -2}),
                                  None)


class TestReconstruct:
    def test_odd_radius_unique(self):
        (p,) = reconstruct_from_invariants(27, 9, 2)
        assert p == XoParams(3, 9, 2)

    def test_even_radius_pair(self):
        ps = reconstruct_from_invariants(80, 20, 3)
        assert {p.t for p in ps} == {0, 10}

    def test_invalid(self):
        with pytest.raises(NoSolutionError):
            reconstruct_from_invariants(28, 9, 2)
        with pytest.raises(NoSolutionError):
            reconstruct_from_invariants(27, 9, 3)
