"""Bound functionals: example values, monotonicity, harness consistency."""

import csv
import io
import json
import math

import pytest
import scipy.linalg

import hierspec.annihilated as ann
import hierspec.closedform as cf
from hierspec.annihilated import a_coefficient
from hierspec.bounds import (REPORT_COLUMNS, THEOREM_TAGS, bound_report,
                             evaluate_functionals, fitted_constant_range,
                             functional, report_to_csv, report_to_json)
from hierspec.errors import DomainError
from hierspec.hierops import VolumeGrid, assemble_dense
from hierspec.lattice import LatticeParams, hier_distance
from hierspec.schrodinger import Potential, delta_potential, powerlaw_potential

PA_2_QUARTER = LatticeParams(2, 0.25)
PA_4_HALF = LatticeParams(4, 0.5)
EMPTY = Potential({})
BARGMANN = ("bargmann", "bargmann-uniform", "bargmann-refined")


class TestClr:
    def test_zero_potential(self):
        rep = functional(VolumeGrid(PA_4_HALF, 4), EMPTY, "clr", a=1.0,
                         sigma=2.0)
        assert rep.functional == 0.0
        assert rep.components == {"cardinality": 0.0, "weighted_sum": 0.0}

    def test_single_site_value(self):
        # V = 0.5 delta: below threshold, so the weighted term is
        # 0.5 * int_{sigma/0.5}^inf p(t,x,x) dt
        g = VolumeGrid(PA_4_HALF, 4)
        rep = functional(g, delta_potential(5, 0.5), "clr", a=1.0, sigma=2.0)
        assert rep.components["cardinality"] == 0.0
        expected = 0.5 * cf.green_tail_integral(PA_4_HALF, 4.0, 0.0)
        assert rep.functional == pytest.approx(expected, rel=1e-12)

    def test_sigma_zero_uses_green_function(self):
        g = VolumeGrid(PA_4_HALF, 4)
        v = Potential({1: 0.25, 6: 0.75})
        rep = functional(g, v, "clr", a=1.0, sigma=0.0)
        assert rep.functional == pytest.approx(1.5 * (0.25 + 0.75), rel=1e-12)

    def test_recurrent_flagged_divergent(self):
        rep = functional(VolumeGrid(PA_2_QUARTER, 4),
                         delta_potential(1, 0.5), "clr", a=1.0, sigma=0.0)
        assert rep.functional is None
        assert any("divergent" in f for f in rep.flags)

    def test_cardinality_term(self):
        g = VolumeGrid(PA_4_HALF, 4)
        rep = functional(g, Potential({0: 3.0, 1: 0.2}), "clr", a=1.0,
                         sigma=0.0)
        assert rep.components["cardinality"] == 1.0


class TestLt:
    def test_zero_potential(self):
        g = VolumeGrid(PA_4_HALF, 4)
        assert functional(g, EMPTY, "lt", gamma=1.0).functional == 0.0

    def test_weighted_converges_at_critical_dimension(self):
        # gamma + s_h/2 = 1.8 > 1 at s_h = 2, even though gamma=0 diverges
        pa = LatticeParams(2, 0.5)
        g = VolumeGrid(pa, 4)
        rep = functional(g, delta_potential(2, 0.5), "lt-weighted",
                         sigma=1.0, gamma=0.8)
        from scipy.special import gamma as gamma_fn
        expected = (2 * 0.8 * gamma_fn(0.8) * 0.5
                    * cf.green_tail_integral(pa, 2.0, 0.8))
        assert rep.functional == pytest.approx(expected, rel=1e-10)

    def test_plain_diverges_when_recurrent(self):
        rep = functional(VolumeGrid(PA_2_QUARTER, 4),
                         delta_potential(2, 0.5), "lt", gamma=1.0)
        assert rep.functional is None and rep.flags


class TestClrGeneral:
    def test_zero_potential_keeps_leading_one(self):
        rep = functional(VolumeGrid(PA_2_QUARTER, 4), EMPTY, "clr-general")
        assert rep.functional == 1.0

    def test_sigma_zero_uses_exact_coefficients(self):
        # V = v delta_x at distance 1: functional = 1 + v a(1) = 1 + 2v
        g = VolumeGrid(PA_2_QUARTER, 4)
        v = 0.5
        rep = functional(g, Potential({1: v}, origin=0), "clr-general",
                         a=1.0, sigma=0.0)
        assert rep.functional == pytest.approx(1.0 + v * 2.0, rel=1e-12)

    def test_finite_where_transient_clr_diverges(self):
        g = VolumeGrid(PA_2_QUARTER, 4)
        v = delta_potential(1, 0.5)
        assert functional(g, v, "clr", sigma=0.0).functional is None
        assert functional(g, v, "clr-general", sigma=0.0).functional \
            is not None

    def test_origin_term_drops(self):
        g = VolumeGrid(PA_2_QUARTER, 4)
        rep = functional(g, Potential({0: 0.5}, origin=0), "clr-general",
                         sigma=0.0)
        assert rep.functional == 1.0


class TestLtGeneral:
    """Both general LT forms against their sums written out here."""

    @staticmethod
    def _setup():
        g = VolumeGrid(PA_2_QUARTER, 5)
        pot = powerlaw_potential(PA_2_QUARTER, 0, 0.8, 3.0, 3)
        h = assemble_dense(g)
        for site, v in pot.support.items():
            h[site, site] += v
        lam = scipy.linalg.eigvalsh(h)[-1]
        assert lam > 0.0
        sites = [(v, hier_distance(0, s, 2)) for s, v in pot.support.items()
                 if s != 0]
        return g, pot, lam, sites

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_plain_value(self, sigma):
        g, pot, lam, sites = self._setup()
        gamma = 0.8
        expected = lam**gamma + sum(
            v ** (1 + gamma) * ann.p1_tail_integral(PA_2_QUARTER, sigma / v, r)
            for v, r in sites)
        rep = functional(g, pot, "lt-general", sigma=sigma, gamma=gamma)
        assert rep.functional == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_weighted_value(self, sigma):
        g, pot, lam, sites = self._setup()
        gamma = 0.8
        weighted = sum(v * ann.p1_weighted_tail_integral(PA_2_QUARTER,
                                                         sigma / v, gamma, r)
                       for v, r in sites)
        expected = lam**gamma + 2 * gamma * math.gamma(gamma) * weighted
        rep = functional(g, pot, "lt-general-weighted", sigma=sigma,
                         gamma=gamma)
        assert rep.functional == pytest.approx(expected, rel=1e-12)

    def test_weighted_flagged_at_sigma_zero_gamma_one(self):
        g, pot, _, _ = self._setup()
        rep = functional(g, pot, "lt-general-weighted", sigma=0.0, gamma=1.0)
        assert rep.functional is None
        assert any("divergent" in f for f in rep.flags)


class TestValidation:
    def test_negative_sigma_rejected_for_every_tag(self):
        g = VolumeGrid(PA_2_QUARTER, 4)
        for tag in THEOREM_TAGS:
            with pytest.raises(DomainError):
                functional(g, delta_potential(1, 0.5), tag, sigma=-1.0)

    def test_unknown_tag_rejected(self):
        with pytest.raises(DomainError):
            functional(VolumeGrid(PA_2_QUARTER, 4), EMPTY, "clr-special")

    @pytest.mark.parametrize("theorems,sigma,gamma", [
        (("clr-general",), -1.0, 1.0), (("clr", "clr-special"), 0.0, 1.0),
        (("lt",), 0.0, 0.0)])
    def test_rejected_before_the_eigensolve(self, monkeypatch, theorems,
                                            sigma, gamma):
        def count_and_sums(*args, **kwargs):
            raise AssertionError("eigensolve run before validation")
        monkeypatch.setattr("hierspec.bounds.count_and_sums", count_and_sums)
        with pytest.raises(DomainError):
            evaluate_functionals(VolumeGrid(PA_2_QUARTER, 4),
                                 delta_potential(1, 0.5), theorems=theorems,
                                 sigma=sigma, gamma=gamma)


class TestBargmann:
    def test_zero_potential(self):
        for tag in BARGMANN:
            rep = functional(VolumeGrid(PA_2_QUARTER, 4), EMPTY, tag)
            assert rep.functional == 1.0

    def test_classic_value(self):
        # s_h = 1: weight rho**(2-s_h) = rho = 7 at distance 3
        g = VolumeGrid(PA_2_QUARTER, 4)
        rep = functional(g, Potential({4: 0.5}, origin=0), "bargmann")
        assert rep.components["weighted_sum"] == pytest.approx(3.5)

    def test_log_form_at_critical_dimension(self):
        import math
        pa = LatticeParams(2, 0.5)
        g = VolumeGrid(pa, 4)
        reps = {r.theorem: r
                for r in evaluate_functionals(g, Potential({2: 0.5}, origin=0),
                                              theorems=BARGMANN)}
        assert set(reps) == {"bargmann-uniform"}
        # rho = 1 at distance 2: 0.5 ln(2)/ln(sqrt 2) = 1
        assert reps["bargmann-uniform"].components["weighted_sum"] == \
            pytest.approx(1.0, rel=1e-12)
        assert math.isclose(pa.s_h, 2.0)

    def test_classic_and_refined_need_s_h_below_two(self):
        # (4, 1/2) has s_h = 4: only the uniform form applies
        g = VolumeGrid(PA_4_HALF, 3)
        pot = Potential({1: 0.5, 5: 0.25}, origin=0)
        reps = evaluate_functionals(g, pot, theorems=BARGMANN)
        assert [r.theorem for r in reps] == ["bargmann-uniform"]
        for tag in ("bargmann", "bargmann-refined"):
            with pytest.raises(DomainError):
                functional(g, pot, tag)

    def test_large_values_route_to_cardinality(self):
        g = VolumeGrid(PA_2_QUARTER, 4)
        for tag in BARGMANN:
            rep = functional(g, Potential({1: 2.0, 2: 0.5}, origin=0), tag)
            assert rep.components["head"] == 2.0


class TestMonotonicity:
    def test_functionals_monotone_in_potential(self):
        g = VolumeGrid(PA_2_QUARTER, 5)
        v1 = powerlaw_potential(PA_2_QUARTER, 0, 0.4, 3.0, 3)
        v2 = powerlaw_potential(PA_2_QUARTER, 0, 0.8, 3.0, 3)
        for tag in ("clr-general", "bargmann", "bargmann-uniform",
                    "bargmann-refined"):
            r1 = evaluate_functionals(g, v1, theorems=(tag,), sigma=0.0)[0]
            r2 = evaluate_functionals(g, v2, theorems=(tag,), sigma=0.0)[0]
            assert r2.functional >= r1.functional - 1e-12


class TestDichotomy:
    def test_transient_weight_blows_up_at_wall(self):
        # sigma=0 CLR weight R_0 diverges as p nu -> 1+, while the
        # annihilated weight a(r) stays bounded
        nu = 4
        ps = [0.26, 0.2505, 0.25002]
        r0s = [cf.resolvent_zero(LatticeParams(nu, p), 0) for p in ps]
        assert all(b > 2 * a for a, b in zip(r0s, r0s[1:]))
        ars = [a_coefficient(LatticeParams(nu, p), 3) for p in ps]
        spread = max(ars) / min(ars)
        assert spread < 1.05


@pytest.fixture(scope="module")
def sweep():
    g = VolumeGrid(PA_2_QUARTER, 7)
    thetas = [0.2 * 2**k for k in range(4)]
    pots = [powerlaw_potential(PA_2_QUARTER, 0, th, 3.0, 4) for th in thetas]
    return bound_report(
        g, pots, theorems=("clr-general", "bargmann", "bargmann-refined"),
        sigma=0.0, gamma=1.0, thetas=thetas, betas=[3.0] * 4)


class TestHarness:

    def test_row_structure(self, sweep):
        assert len(sweep) == 12
        assert [r["theorem"] for r in sweep[:3]] == [
            "bargmann", "bargmann-refined", "clr-general"]
        thetas = [r["theta"] for r in sweep]
        assert thetas == sorted(thetas)

    def test_validity_of_fitted_supremum(self, sweep):
        # sup fitted constant times each functional dominates each actual
        for tag in ("clr-general", "bargmann", "bargmann-refined"):
            _, sup = fitted_constant_range(sweep, tag)
            for row in sweep:
                if row["theorem"] == tag and row["actual"]:
                    assert sup * row["functional"] >= row["actual"] - 1e-9

    def test_csv_shape_and_determinism(self, sweep):
        text = report_to_csv(sweep)
        assert text == report_to_csv(sweep)
        reader = csv.reader(io.StringIO(text))
        rows = list(reader)
        assert rows[0] == list(REPORT_COLUMNS)
        assert len(rows) == 13
        assert text.count("\r\n") == 13

    def test_json_mirror_round_trips(self, sweep):
        payload = json.loads(report_to_json(sweep))
        assert len(payload["rows"]) == len(sweep)
        for parsed, row in zip(payload["rows"], sweep):
            assert parsed["functional"] == row["functional"]
            assert parsed["theta"] == row["theta"]
