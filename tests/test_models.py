import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from quadham import (
    Classification,
    DimensionlessModel,
    PhysicalParameters,
    adjoint_representation,
    angular_momentum_form,
    build_model,
    classify_spectrum,
    isotropic_form,
    ladder_check,
    linear_commutator,
    make_quadratic_form,
    phase_scan,
    random_positive_definite_form,
    reduce_to_dimensionless,
    sb_operator,
    spectrum_lattice,
    symmetric_energy,
    symmetric_ladders,
    symmetric_raising_pair,
)
from quadham import models, spectral
from quadham.models import PX, PY, X, Y
from conftest import scaled_tolerances


class TestReduction:
    def test_worked_example(self):
        p = PhysicalParameters(m1=1.0, m2=2.0, k1=4.0, k2=1.0, omega=2.0)
        d = reduce_to_dimensionless(p)
        # first oscillator frequency is 2, so the energy unit is hbar
        assert d.mu == 2.0
        assert d.k == 0.25
        assert d.b == 2.0
        assert d.energy_scale == 1.0

    def test_identical_oscillators(self):
        p = PhysicalParameters(m1=3.0, m2=3.0, k1=2.0, k2=2.0,
                               omega=0.5 * math.sqrt(2.0 / 3.0))
        d = reduce_to_dimensionless(p)
        assert d.mu == 1.0
        assert d.k == 1.0
        assert d.b == pytest.approx(1.0, rel=1e-15)
        assert d.is_symmetric

    def test_hbar_scales_energy_unit(self):
        p = PhysicalParameters(m1=1.0, m2=1.0, k1=1.0, k2=1.0, omega=0.0,
                               hbar=2.0)
        assert reduce_to_dimensionless(p).energy_scale == 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PhysicalParameters(m1=-1.0, m2=1.0, k1=1.0, k2=1.0, omega=0.0)
        with pytest.raises(ValueError):
            PhysicalParameters(m1=1.0, m2=1.0, k1=0.0, k2=1.0, omega=0.0)
        with pytest.raises(ValueError):
            PhysicalParameters(m1=1.0, m2=1.0, k1=1.0, k2=1.0,
                               omega=math.inf)
        # a bool is not a number here, as nowhere else in the package
        for name in ("m1", "m2", "k1", "k2", "hbar"):
            kwargs = {"m1": 1.0, "m2": 1.0, "k1": 1.0, "k2": 1.0, "omega": 0.0,
                      name: True}
            with pytest.raises(ValueError, match=f"{name} must be a positive"):
                PhysicalParameters(**kwargs)
        with pytest.raises(ValueError, match="omega must be a finite number"):
            PhysicalParameters(m1=1.0, m2=1.0, k1=1.0, k2=1.0, omega=True)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            DimensionlessModel(mu=0.0, k=1.0, b=1.0)
        with pytest.raises(ValueError):
            DimensionlessModel(mu=1.0, k=-2.0, b=1.0)
        with pytest.raises(ValueError):
            DimensionlessModel(mu=1.0, k=1.0, b=math.nan)
        with pytest.raises(ValueError):
            DimensionlessModel(mu=1.0, k=1.0, b=1.0, energy_scale=0.0)
        for kwargs, message in [
            ({"mu": True}, "mu must be a real number, got True"),
            ({"k": True}, "k must be a real number, got True"),
            ({"b": False}, "b must be a real number, got False"),
            ({"energy_scale": True}, "energy_scale must be a real number, got True"),
            ({"b": "1"}, "b must be a real number, got '1'"),
            ({"k": 1j}, "k must be a real number, got 1j"),
            ({"mu": np.bool_(True)}, f"mu must be a real number, got {np.bool_(True)!r}"),
            ({"mu": 5e-324}, "1/mu must be finite"),
            # reals without a finite float: an error of the model, not of float()
            ({"mu": 10 ** 400}, "mu is beyond the float range"),
            ({"k": 10 ** 400}, "k is beyond the float range"),
            ({"b": 10 ** 400}, "b is beyond the float range"),
            ({"b": -10 ** 400}, "b is beyond the float range"),
            ({"b": Fraction(10 ** 400, 3)}, "b is beyond the float range"),
            ({"energy_scale": 10 ** 400}, "energy_scale is beyond the float range"),
            ({"mu": Fraction(1, 10 ** 400)}, "1/mu must be finite"),
            ({"mu": -10 ** 400}, "mu is beyond the float range"),
            # the existing checks keep their order: mu before k
            ({"mu": -1.0, "k": True}, "mu must be positive and finite"),
        ]:
            with pytest.raises(ValueError) as info:
                DimensionlessModel(**{"mu": 1.0, "k": 1.0, "b": 1.0, **kwargs})
            assert str(info.value) == message
        # numpy and rational reals stay accepted
        d = DimensionlessModel(mu=np.float64(2.0), k=np.int64(1), b=Fraction(1, 2))
        assert np.array_equal(build_model(d).gamma,
                              build_model(DimensionlessModel(2.0, 1.0, 0.5)).gamma)
        # a tiny rational mu is accepted while its 1/mu has a float
        d = DimensionlessModel(mu=Fraction(1, 10 ** 300), k=10 ** 300, b=-(10 ** 300))
        assert build_model(d).gamma[3, 3] == 1.0 / 1e-300


class TestBuildModel:
    def test_gamma_entries(self):
        d = DimensionlessModel(mu=2.0, k=0.5, b=1.7)
        g = build_model(d).gamma
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        expected[1, 1] = 0.5
        expected[2, 2] = 1.0
        expected[3, 3] = 0.5
        expected[0, 3] = expected[3, 0] = 0.85
        expected[1, 2] = expected[2, 1] = -0.85
        assert np.array_equal(g, expected)
        assert build_model(d).offset == 0.0

    @staticmethod
    def summed(mu, k, b):
        return make_quadratic_form(2, [(X, X, 1.0), (Y, Y, k), (PX, PX, 1.0),
                                       (PY, PY, 1 / mu), (X, PY, b), (Y, PX, -b)])

    def test_gamma_bits_match_make_quadratic_form(self):
        # array_equal cannot see the sign of a zero; the bytes can
        rng = np.random.default_rng(24)
        cases = list(zip(np.exp(rng.uniform(-6.0, 6.0, 250)).tolist(),
                         np.exp(rng.uniform(-6.0, 6.0, 250)).tolist(),
                         rng.uniform(-6.0, 6.0, 250).tolist()))
        cases += [(mu, k, b) for mu, k, _ in cases[:125] for b in (0.0, -0.0)]
        # b/2 and k/2 round to zero here
        cases += [(1.0, 1.0, 5e-324), (1.0, 1.0, -5e-324), (2.0, 5e-324, 1.5)]
        for mu, k, b in cases:
            got = build_model(DimensionlessModel(mu=mu, k=k, b=b)).gamma
            assert got.tobytes() == self.summed(mu, k, b).gamma.tobytes(), (mu, k, b)

    def test_decomposes_into_named_parts(self):
        d = DimensionlessModel(mu=1.0, k=1.0, b=2.5)
        combined = isotropic_form().gamma + 2.5 * angular_momentum_form().gamma
        assert np.array_equal(build_model(d).gamma, combined)


class TestSbOperator:
    def test_matches_model_at_two(self):
        # completing the square: B = +-2 reproduces the b = +-2 coupled model,
        # bit for bit, which the CLI's wavefunction command relies on
        for B in (2.0, -2.0):
            lhs = sb_operator(B)
            rhs = build_model(DimensionlessModel(mu=1.0, k=1.0, b=B))
            assert lhs.gamma.tobytes() == rhs.gamma.tobytes()
            assert lhs.offset == rhs.offset == 0.0

    def test_zero_field_defective(self):
        rep = classify_spectrum(sb_operator(0.0))
        assert rep.classification is Classification.DEFECTIVE_EXCEPTIONAL

    def test_nonzero_field_critical(self):
        rep = classify_spectrum(sb_operator(3.0))
        assert rep.classification is Classification.CRITICAL_INFINITE_MULTIPLICITY
        assert rep.ground_energy == pytest.approx(3.0, abs=1e-12)
        levels = spectrum_lattice(rep, 3)
        assert [round(lv.energy, 9) for lv in levels] == [3.0, 9.0, 15.0, 21.0]
        assert all(lv.infinite for lv in levels)

    def test_field_sign_irrelevant_for_energies(self):
        for B in (1.5, -1.5):
            rep = classify_spectrum(sb_operator(B))
            assert rep.ground_energy == pytest.approx(1.5, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            sb_operator(math.inf)

    @pytest.mark.parametrize("B", [0.0, -0.0])
    def test_zero_field_bits(self, B):
        # the four field terms at B = +-0.0 add nothing to gamma or offset
        q = sb_operator(B)
        ref = make_quadratic_form(2, [(PX, PX, 1.0), (PY, PY, 1.0)])
        assert q.gamma.tobytes() == ref.gamma.tobytes()
        assert math.copysign(1.0, q.offset) == math.copysign(1.0, ref.offset)
        assert q.offset == ref.offset

    @staticmethod
    def _by_monomials(B):
        """sb_operator through make_quadratic_form's per-monomial sums."""
        if not math.isfinite(B):
            raise ValueError("B must be finite")
        c = B * B / 4.0
        return make_quadratic_form(2, [(PX, PX, 1.0), (PY, PY, 1.0), (X, X, c),
                                       (Y, Y, c), (X, PY, B), (Y, PX, -B)])

    @pytest.mark.parametrize("B", [0.0, -0.0, 5e-324, -5e-324, 0.38, -0.38,
                                   2.0, -2.0, 1e154, -1e154, 1e200,
                                   math.inf, -math.inf, math.nan])
    def test_gamma_and_errors_match_the_monomial_route(self, B):
        try:
            ref = self._by_monomials(B)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                sb_operator(B)
            assert B == 1e200 or not math.isfinite(B)
            return
        q = sb_operator(B)
        assert q.gamma.tobytes() == ref.gamma.tobytes()
        assert math.copysign(1.0, q.offset) == math.copysign(1.0, ref.offset)
        assert q.offset == ref.offset == 0.0

    def test_bool_field_rejected_as_the_monomial_route_rejects_it(self):
        with pytest.raises(ValueError) as ref:
            self._by_monomials(True)
        with pytest.raises(ValueError, match=f"^{re.escape(str(ref.value))}$"):
            sb_operator(True)


class TestSymmetricLadders:
    def test_frequencies(self):
        ladders = symmetric_ladders()
        assert len(ladders) == 4
        for b in (0.0, 1.3, -2.7):
            freqs = [ladder.isotropic_shift + ladder.rotation_weight * b
                     for ladder in ladders]
            assert freqs == [-2 - b, 2 - b, -2 + b, 2 + b]

    def test_ladder_relation_all_couplings(self):
        for b in (0.0, 1.3, -2.7, 5.0):
            h = build_model(DimensionlessModel(mu=1.0, k=1.0, b=b))
            for ladder, freq in zip(symmetric_ladders(),
                                    (-2 - b, 2 - b, -2 + b, 2 + b)):
                assert abs(ladder_check(h, ladder.form) - freq) < 1e-12

    def test_commutator_table(self):
        # the only nonvanishing brackets pair each lowering member with its
        # opposite raising member, both equal to 4
        ladders = symmetric_ladders()
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = 4.0
        expected[3, 0] = -4.0
        expected[2, 1] = 4.0
        expected[1, 2] = -4.0
        table = np.array([
            [linear_commutator(a.form, b.form) for b in ladders]
            for a in ladders
        ])
        assert np.allclose(table, expected, atol=1e-14)

    def test_raising_pair_selection(self):
        zp, zm = symmetric_raising_pair()
        h = build_model(DimensionlessModel(mu=1.0, k=1.0, b=0.7))
        assert ladder_check(h, zp.form) == pytest.approx(2 + 0.7)
        assert ladder_check(h, zm.form) == pytest.approx(2 - 0.7)
        assert (zp.isotropic_shift, zp.rotation_weight) == (2.0, 1.0)
        assert (zm.isotropic_shift, zm.rotation_weight) == (2.0, -1.0)

    def test_forms_are_b_independent(self):
        # same coefficient vectors whatever the coupling: frequencies move,
        # operators do not
        first = symmetric_ladders()
        second = symmetric_ladders()
        for a, b in zip(first, second):
            assert np.array_equal(a.form.coeffs, b.form.coeffs)


class TestRandomForms:
    def test_reproducible(self):
        a = random_positive_definite_form(2, seed=11)
        b = random_positive_definite_form(2, seed=11)
        assert np.array_equal(a.gamma, b.gamma)
        c = random_positive_definite_form(2, seed=12)
        assert not np.array_equal(a.gamma, c.gamma)

    def test_eigenvalue_range(self):
        for seed in range(10):
            g = random_positive_definite_form(3, seed=seed).gamma
            w = np.linalg.eigvalsh(g)
            assert np.all(w > 0.5)
            assert np.all(w < 1.9)

    def test_exactly_symmetric(self):
        g = random_positive_definite_form(2, seed=5).gamma
        assert np.array_equal(g, g.T)

    def test_spread_validation(self):
        with pytest.raises(ValueError):
            random_positive_definite_form(1, seed=0, spread=(0.0, 1.0))
        with pytest.raises(ValueError):
            random_positive_definite_form(1, seed=0, spread=(2.0, 1.0))

    @pytest.mark.parametrize("K", [0, -1, True, 1.0])
    def test_mode_count_checked_before_any_draw(self, K, monkeypatch):
        drawn = []
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match="^K must be a positive integer$"):
            random_positive_definite_form(K, seed=0)
        assert drawn == []

    @pytest.mark.parametrize("seed", [-5, 1.5, True, None, "3", np.float64(2.0)])
    def test_seed_checked_before_any_draw(self, seed, monkeypatch):
        drawn = []
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *args: drawn.append(args))
        with pytest.raises(ValueError,
                           match="^seed must be a non-negative integer$"):
            random_positive_definite_form(2, seed=seed)
        assert drawn == []

    @pytest.mark.parametrize("spread", [(0.5, math.inf), (0.5, np.float64("inf"))])
    def test_spread_checked_finite_before_any_draw(self, spread, monkeypatch):
        drawn = []
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match="^spread must be finite$"):
            random_positive_definite_form(2, seed=0, spread=spread)
        assert drawn == []

    def test_numpy_integer_seed_accepted(self):
        a = random_positive_definite_form(2, seed=np.int64(11))
        assert np.array_equal(a.gamma, random_positive_definite_form(2, seed=11).gamma)
        assert random_positive_definite_form(1, seed=0).gamma.shape == (2, 2)


class TestSymmetricEnergy:
    def test_formula(self):
        assert symmetric_energy(0.0, 0, 0) == 2.0
        assert symmetric_energy(1.3, 2, 1) == pytest.approx(
            2.0 + 3.3 * 2 + 0.7, rel=1e-15)
        # at the critical coupling the second quantum number is free
        assert symmetric_energy(2.0, 1, 5) == symmetric_energy(2.0, 1, 0)

    def test_exact_for_a_fraction(self):
        e = symmetric_energy(Fraction(-7, 8), 3, 2)
        assert isinstance(e, Fraction) and e == Fraction(89, 8)
        assert symmetric_energy(Fraction(2), 4, 9) == 18

    def test_float_bits_match_the_float_formula(self):
        rng = np.random.default_rng(3)
        bs = np.concatenate([rng.uniform(-5.0, 5.0, 40),
                             [0.0, -0.0, 2.0, -2.0, 1.3, 1e-300, 0.1]])
        for b in map(float, bs):
            for m in range(30):
                for n in range(30):
                    e = symmetric_energy(b, m, n)
                    assert type(e) is float
                    assert e.hex() == (2.0 + (2.0 + b) * m + (2.0 - b) * n).hex()


class TestPhaseScan:
    def test_bisected_transition(self):
        res = phase_scan(0.0, 4.0, steps=6)
        assert len(res.transitions) == 1
        t = res.transitions[0]
        assert abs(t.b_star - 2.0) <= 1e-10
        assert t.bracket_hi - t.bracket_lo <= 1e-10

    def test_sample_on_boundary(self):
        # a grid point lands exactly on the critical coupling
        res = phase_scan(0.0, 4.0, steps=5)
        assert len(res.transitions) == 1
        t = res.transitions[0]
        assert t.b_star == 2.0
        assert t.bracket_lo == t.bracket_hi == 2.0

    def test_sample_fields(self):
        res = phase_scan(0.0, 4.0, steps=5)
        first, last = res.samples[0], res.samples[-1]
        assert first.b == 0.0
        assert first.classification is Classification.BOUNDED_BELOW_DISCRETE
        assert first.ground_energy == pytest.approx(2.0, abs=1e-12)
        assert first.margin > 0
        assert last.classification is Classification.UNBOUNDED_LATTICE
        assert last.ground_energy is None
        assert last.margin < 0

    def test_classification_sequence_monotone(self):
        res = phase_scan(0.0, 4.0, steps=9)
        order = {
            Classification.BOUNDED_BELOW_DISCRETE: 0,
            Classification.CRITICAL_INFINITE_MULTIPLICITY: 1,
            Classification.UNBOUNDED_LATTICE: 2,
        }
        ranks = [order[s.classification] for s in res.samples]
        assert ranks == sorted(ranks)

    def test_anisotropic_boundary(self):
        # with mu = 2, k = 1/4 the weaker spring loses definiteness first,
        # at coupling 1
        res = phase_scan(0.0, 2.0, steps=6, mu=2.0, k=0.25)
        assert len(res.transitions) == 1
        assert abs(res.transitions[0].b_star - 1.0) <= 1e-10

    def test_steps_validated(self):
        with pytest.raises(ValueError):
            phase_scan(0.0, 1.0, steps=0)

    def test_negative_direction(self):
        res = phase_scan(0.0, -4.0, steps=6)
        assert len(res.transitions) == 1
        assert abs(res.transitions[0].b_star + 2.0) <= 1e-10


class TestPhaseScanBisection:
    # the boundary b^2 = 4 min(k, 1/mu) is irrational here, so no midpoint
    # lands on it and the bisection runs to its 1e-10 bracket
    @pytest.mark.parametrize("mu, k, b_from, b_to, steps, roots", [
        (1.0, 0.5, 0.0, 3.0, 4, (math.sqrt(2.0),)),
        (2.0, 1.0, -3.0, 3.0, 7, (-math.sqrt(2.0), math.sqrt(2.0))),
    ])
    def test_irrational_boundary(self, mu, k, b_from, b_to, steps, roots,
                                 monkeypatch):
        from quadham import models
        calls = []
        margins = models._margins
        monkeypatch.setattr(models, "_margins",
                            lambda *args: calls.append(args) or margins(*args))
        res = phase_scan(b_from, b_to, steps=steps, mu=mu, k=k)
        # each call takes one midpoint per open bracket
        assert sum(len(mids) for mids, _, _ in calls) >= 30 * len(roots)
        assert len(res.transitions) == len(roots)
        for t, root in zip(sorted(res.transitions, key=lambda t: t.b_star),
                           roots):
            assert abs(t.b_star - root) <= 1e-10
            assert t.bracket_lo <= root <= t.bracket_hi
            assert t.bracket_hi - t.bracket_lo <= 1e-10


# sweeps landing on b = +-2, covering the non-real band of mu = 2, and
# landing on the Jordan-block boundary points of mu = 4 and k = 2; then one
# large anisotropic stack, a single sample, and a sweep through b = 0, whose
# double eigenvalues take the rank-SVD path
SWEEPS = [((-3.0, 3.0, 7), {}), ((0.0, 3.0, 31), {"mu": 2.0, "k": 1.0}),
          ((0.0, 2.0, 5), {"mu": 4.0, "k": 1.0}), ((0.0, 4.0, 5), {"mu": 1.0, "k": 2.0}),
          ((-5.0, 5.0, 1001), {"mu": 2.0, "k": 0.5}), ((0.7, 3.0, 1), {}),
          ((-1.0, 1.0, 5), {})]
SWEEP_IDS = ["b=+-2", "non-real band", "mu=4", "k=2", "1001 anisotropic",
             "one sample", "b=0"]
SCALES = ("1", "1e6", "1e8")


class TestPhaseScanVerdicts:
    """Each sample carries classify_spectrum's verdict bit for bit, though the
    scan builds no ladder operators."""

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("bounds, model", SWEEPS, ids=SWEEP_IDS)
    def test_samples_match_classify_spectrum(self, bounds, model, scale):
        with scaled_tolerances(scale):
            res = phase_scan(*bounds, **model)
            assert len(res.samples) == bounds[2]
            for s in res.samples:
                r = classify_spectrum(build_model(DimensionlessModel(b=s.b, **{
                    "mu": 1.0, "k": 1.0, **model})))
                assert s.classification is r.classification
                assert repr(s.margin) == repr(r.gamma_min)
                assert repr(s.ground_energy) == repr(r.ground_energy)
                assert repr(s.generators) == repr(r.lattice_generators)

    @pytest.mark.parametrize("scale", SCALES)
    def test_no_ladder_is_built(self, scale, monkeypatch):
        calls = []
        commutator = spectral.linear_commutator
        monkeypatch.setattr(spectral, "linear_commutator",
                            lambda *args: calls.append(args) or commutator(*args))
        with scaled_tolerances(scale):
            for bounds, model in SWEEPS:
                phase_scan(*bounds, **model)
            assert calls == []
            classify_spectrum(build_model(DimensionlessModel(1.0, 1.0, 1.3)))
        assert len(calls) == 2

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("args, kwargs, message", [
        ((math.nan, 1.0, 3), {}, "b must be finite"),
        ((0.0, math.nan, 3), {}, "b must be finite"),
        ((0.0, math.inf, 3), {}, "b must be finite"),
        ((-math.inf, 1.0, 3), {}, "b must be finite"),
        ((0.0, 1.0, 3), {"mu": 0.0}, "mu must be positive and finite"),
        ((0.0, 1.0, 3), {"mu": -1.0}, "mu must be positive and finite"),
        ((0.0, 1.0, 3), {"k": -1.0}, "k must be positive and finite"),
        ((0.0, 1.0, 0), {}, "steps must be at least 1"),
    ], ids=["nan-from", "nan-to", "inf-to", "-inf-from", "mu=0", "mu<0", "k<0",
            "steps=0"])
    def test_invalid_input(self, args, kwargs, message, scale):
        with scaled_tolerances(scale), np.errstate(invalid="ignore"):
            with pytest.raises(ValueError) as info:
                phase_scan(*args, **kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("args, message", [
        ((0.0, math.inf, 3), "b must be finite"),
        ((-math.inf, 1.0, 3), "b must be finite"),
        ((0.0, math.inf, 1), "b must be finite"),
        ((0.0, 1.0, True), "steps must be an integer"),
        ((0.0, 1.0, 2.5), "steps must be an integer"),
        ((0.0, 1.0, 3.0), "steps must be an integer"),
        ((-1e308, 1e308, 3), "b_to - b_from must be finite"),
        ((0.0, 1.0, 3, 5e-324), "1/mu must be finite"),
        ((0.0, 1.0, 3, True), "mu must be a real number, got True"),
        ((0.0, 1.0, 3, 1.0, True), "k must be a real number, got True"),
        ((0.0, "1", 3), "b must be a real number, got '1'"),
        ((0, 10 ** 400, 3), "b is beyond the float range"),
        ((-(10 ** 400), 0, 3), "b is beyond the float range"),
        ((0.0, 1.0, 3, Fraction(1, 10 ** 400)), "1/mu must be finite"),
        ((0.0, 1.0, 3, 1.0, 10 ** 400), "k is beyond the float range"),
    ], ids=["inf-to", "-inf-from", "inf-to-one-step", "steps=True", "steps=2.5",
            "steps=3.0", "overflowing-span", "subnormal-mu", "mu=True", "k=True",
            "string-to", "huge-int-to", "huge-int-from", "tiny-fraction-mu",
            "huge-int-k"])
    def test_invalid_input_fails_before_sampling(self, args, message):
        # no warning either: an endpoint is checked before np.linspace sees it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                phase_scan(*args)
        assert str(info.value) == message

    def test_numpy_integer_steps(self):
        res = phase_scan(0.0, 1.0, np.int64(3))
        assert [s.b for s in res.samples] == [0.0, 0.5, 1.0]


class TestPhaseScanStacked:
    def test_one_lapack_call_per_stage(self, monkeypatch):
        bounds = (-3.5058, 3.5058, 101)
        bs = np.linspace(*bounds).tolist()
        # every multi-member cluster takes its own rank SVD
        multi = sum(c.algebraic > 1 for b in bs for c in spectral.eigen_decompose(
            adjoint_representation(build_model(DimensionlessModel(1.0, 1.0, b)))).clusters)
        assert multi == 2  # the double eigenvalues of b = 0
        shapes = {"eig": [], "svd": [], "eigvalsh": []}
        for name, seen in shapes.items():
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, *args, _solver=solver,
                                _seen=seen, **kw: _seen.append(a.shape)
                                or _solver(a, *args, **kw))
        res = phase_scan(*bounds)
        assert shapes["eig"] == [(101, 4, 4)]
        assert shapes["svd"] == [(101, 4, 4)] + [(4, 4)] * multi
        # both brackets of b = +-2 start one sample spacing wide and halve
        # together, one stacked eigvalsh a step, down to 1e-10
        halvings = math.ceil(math.log2((bs[1] - bs[0]) / 1e-10))
        assert shapes["eigvalsh"] == [(101, 4, 4)] + [(2, 4, 4)] * halvings
        assert len(res.transitions) == 2

    def test_no_model_or_form_per_sample(self, monkeypatch):
        # the endpoints are checked as models; every sample and midpoint is
        # a slice of a gamma stack, and only the b = 0 fallback a form
        calls = {}
        for module, name in ((models, "build_model"), (models, "DimensionlessModel"),
                             (spectral, "QuadraticForm")):
            key = f"{module.__name__.split('.')[-1]}.{name}"
            calls[key] = 0
            original = getattr(module, name)

            def counted(*args, _key=key, _original=original, **kwargs):
                calls[_key] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        res = phase_scan(-3.5058, 3.5058, 101)
        assert len(res.samples) == 101 and len(res.transitions) == 2
        assert calls == {"models.build_model": 0, "models.DimensionlessModel": 2,
                         "spectral.QuadraticForm": 1}
