import math

import numpy as np
import pytest
import scipy.optimize
from numpy.testing import assert_allclose

from qkdprobe import (
    Branch,
    FamilyTag,
    PossibilityStatus,
    ProbeParams,
    SearchConfig,
    SignalGeometry,
    asymptotic_capacity,
    coefficients,
    csc_branch_overlap,
    enumerate_possibilities,
    error_rate,
    mu_from_constraint,
    optimal_overlap,
    optimal_parameter_families,
    overlap,
    possibility_d_feasibility,
    sample_params,
    sec_branch_overlap,
    stationarity_residuals,
)
from qkdprobe.errors import (
    DomainError,
    InfeasibleConstraintError,
    OutOfDomainError,
)
from qkdprobe.optimum import (
    _corner,
    constant_error_overlap,
    lambda_cubic_coefficients,
    max_error_rate,
    optimal_renyi_bits,
    peak_error_rate,
    phi_neg_lambda_window,
    quintic_coefficients,
    sin2phi_cubic_coefficients,
)
from conftest import draw_constrained_points

PI = math.pi


def family_by_tag(families, tag):
    return next(f for f in families if f.tag is tag)


class TestOptimalOverlap:
    def test_zero_error_is_unit_overlap(self):
        for alpha in (PI / 12, PI / 9, PI / 8, 0.2 * PI):
            best = optimal_overlap(0.0, SignalGeometry(alpha))
            assert best.overlap == 1.0
            assert best.renyi_bits == 0.0

    def test_standard_angle_value(self, geom_pi8):
        best = optimal_overlap(0.2, geom_pi8)
        assert abs(best.overlap - 0.5) < 1e-12
        assert best.branch is Branch.CSC

    def test_standard_angle_closed_form(self, geom_pi8):
        # At alpha = pi/8 the optimum reduces to 3 - 2/(1 - E).
        for target in np.linspace(0.0, 0.49, 50):
            best = optimal_overlap(float(target), geom_pi8)
            assert abs(best.overlap - (3.0 - 2.0 / (1.0 - target))) < 1e-12

    def test_branch_selection(self):
        low = optimal_overlap(0.05, SignalGeometry(PI / 9))
        high = optimal_overlap(0.05, SignalGeometry(0.2 * PI))
        assert low.branch is Branch.CSC
        assert high.branch is Branch.SEC
        assert math.isclose(
            high.overlap, sec_branch_overlap(0.05, SignalGeometry(0.2 * PI))
        )

    def test_seam_agreement(self, geom_pi8):
        for target in np.linspace(0.0, 0.49, 25):
            csc = csc_branch_overlap(float(target), geom_pi8)
            sec = sec_branch_overlap(float(target), geom_pi8)
            assert abs(csc - sec) < 1e-14

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomainError):
            optimal_overlap(0.3, SignalGeometry(0.2 * PI))  # E_max ~ 0.095
        # Every entry point that needs an attainable E gives the same
        # class and message, naming the maximum.
        geom = SignalGeometry(PI / 12)  # E_max = 1/4
        for entry_point in (
            optimal_overlap, optimal_renyi_bits, optimal_parameter_families
        ):
            with pytest.raises(OutOfDomainError) as info:
                entry_point(0.3, geom)
            assert str(info.value) == (
                f"error rate 0.3 exceeds the attainable maximum "
                f"{max_error_rate(geom)!r} at alpha = {PI / 12!r}"
            )

    @pytest.mark.parametrize("alpha", [1e-7, PI / 10, PI / 6, 0.7])
    def test_just_past_the_maximum(self, alpha):
        # At E_max and the floats above it up to E_max + 1e-12, each call
        # answers with Q_min >= -1 or refuses naming the maximum.  The
        # formula falls fast past E_max: at alpha = 1e-7, E_max ~ 4e-14,
        # it reads -4 at E = 1e-13, which an absolute slack would accept.
        geom = SignalGeometry(alpha)
        top = max_error_rate(geom)
        rates = [top]
        while rates[-1] < top + 1e-12 and len(rates) < 500:
            rates.append(math.nextafter(rates[-1], 1.0))
        rates += [top + d for d in (1e-13, 5e-13, 1e-12)] + [1e-13]
        answered = 0
        for rate in rates:
            try:
                best = optimal_overlap(rate, geom)
            except OutOfDomainError as info:
                assert f"attainable maximum {top!r}" in str(info)
                continue
            answered += 1
            assert best.overlap >= -1.0, rate
            if rate >= top:
                assert best.overlap <= -1.0 + 1e-12, rate
            assert best.renyi_bits == optimal_renyi_bits(rate, geom)
        assert answered >= 1  # E_max itself is attained

    def test_error_rate_domain(self, geom_pi8):
        # Every entry point that takes an error rate rejects it with the
        # same class and message.
        entry_points = (
            lambda e: optimal_overlap(e, geom_pi8),
            lambda e: mu_from_constraint(PI / 2, 0.0, 0.0, e, geom_pi8),
            lambda e: SearchConfig(geom=geom_pi8, target_error=e),
            lambda e: asymptotic_capacity(e, geom_pi8),
        )
        for bad in (0.5, -0.01, math.nan):
            for entry_point in entry_points:
                with pytest.raises(DomainError) as info:
                    entry_point(bad)
                assert type(info.value) is DomainError
                assert str(info.value) == (
                    f"error rate must lie in [0, 1/2); got {bad!r}"
                )


class TestBranchFormulas:
    def test_csc_examples(self, geom_pi8):
        assert abs(csc_branch_overlap(1.0 / 3.0, geom_pi8)) < 1e-14
        assert type(csc_branch_overlap(0.1, SignalGeometry(PI / 10))) is float
        assert (
            abs(csc_branch_overlap(0.3, SignalGeometry(PI / 5)) - 0.909509)
            < 1e-6
        )

    def test_sec_zero_error(self):
        for alpha in (PI / 9, PI / 8, 0.22 * PI):
            assert sec_branch_overlap(0.0, SignalGeometry(alpha)) == 1.0
        assert type(sec_branch_overlap(0.1, SignalGeometry(PI / 10))) is float

    def test_branch_symmetry(self):
        # The two formulas are exchanged by alpha -> pi/4 - alpha.
        rng = np.random.default_rng(3)
        for _ in range(100):
            alpha = rng.uniform(0.02 * PI, PI / 8)
            target = rng.uniform(0.0, 0.49)
            low = csc_branch_overlap(target, SignalGeometry(alpha))
            high = sec_branch_overlap(
                target, SignalGeometry(PI / 4 - alpha)
            )
            assert abs(low - high) < 1e-12

    def test_max_error_rate(self):
        assert math.isclose(max_error_rate(SignalGeometry(PI / 12)), 0.25)
        assert math.isclose(
            max_error_rate(SignalGeometry(0.2 * PI)),
            math.cos(0.4 * PI) ** 2,
        )

    @pytest.mark.parametrize(
        "alpha", [PI / 12, PI / 10, PI / 8, PI / 6, 0.2 * PI]
    )
    def test_peak_error_rate_is_the_zero_of_the_optimum(self, alpha):
        geom = SignalGeometry(alpha)
        peak = peak_error_rate(geom)
        # The gain's maximum: brentq on Q_min(E) over the family domain.
        root = scipy.optimize.brentq(
            lambda e: optimal_overlap(e, geom).overlap,
            0.0,
            max_error_rate(geom),
            xtol=1e-16,
        )
        assert abs(peak - root) < 1e-15
        assert abs(optimal_overlap(peak, geom).overlap) < 1e-15
        assert optimal_renyi_bits(peak, geom) == 1.0
        assert type(optimal_renyi_bits(0.05, geom)) is float

    def test_peak_error_rate_at_standard_angle(self):
        assert math.isclose(peak_error_rate(SignalGeometry(PI / 8)), 1 / 3)
        assert math.isclose(peak_error_rate(SignalGeometry(PI / 12)), 1 / 7)


def raised(fn, *args):
    """(class, message) of the exception fn(*args) raises."""
    with pytest.raises(DomainError) as info:
        fn(*args)
    return type(info.value), str(info.value)


class TestArrayKernel:
    """The Renyi-chain kernels, mapped one float at a time over a list."""

    GEOM = SignalGeometry(PI / 10)  # E_max = sin^2(pi/5) ~ 0.345

    @pytest.mark.parametrize(
        "formula", [csc_branch_overlap, sec_branch_overlap, optimal_renyi_bits]
    )
    @pytest.mark.parametrize("bad", [0.5, -0.01, math.nan])
    def test_error_rate_checked_elementwise(self, formula, bad):
        # The first bad rate in the list raises what optimal_overlap raises.
        def over_rates():
            return [formula(e, self.GEOM) for e in (0.1, bad, 0.2)]

        assert raised(over_rates) == raised(optimal_overlap, bad, self.GEOM)
        assert raised(over_rates)[0] is DomainError

    def test_attainable_maximum_checked_elementwise(self):
        geom = SignalGeometry(PI / 12)  # E_max = 1/4

        def over_rates():
            return [optimal_renyi_bits(e, geom) for e in (0.0, 0.3, 0.1)]

        assert raised(over_rates) == raised(optimal_overlap, 0.3, geom)
        assert raised(over_rates)[0] is OutOfDomainError


class TestFamilies:
    def test_lower_branch_family_list(self, geom_pi8):
        tags = {f.tag for f in optimal_parameter_families(0.1, geom_pi8)}
        assert tags == {FamilyTag.SET_E, FamilyTag.SET_H, FamilyTag.SET_PHI_NEG}
        tags9 = {
            f.tag
            for f in optimal_parameter_families(0.1, SignalGeometry(PI / 9))
        }
        assert tags9 == {FamilyTag.SET_E, FamilyTag.SET_H}

    def test_set_e_mu_value(self, geom_pi8):
        families = optimal_parameter_families(0.1, geom_pi8)
        params = sample_params(
            family_by_tag(families, FamilyTag.SET_E), 0.1, geom_pi8
        )
        assert math.isclose(params.lam, PI / 2)
        assert math.isclose(math.sin(2 * params.mu), 0.6, abs_tol=1e-14)

    def test_set_h_zero_error_with_degenerate_lambda(self, geom_pi8):
        families = optimal_parameter_families(0.0, geom_pi8)
        set_h = family_by_tag(families, FamilyTag.SET_H)
        params = sample_params(
            set_h, 0.0, geom_pi8, {"lam": 0.0, "phi": PI / 4}
        )
        assert math.isclose(math.sin(2 * params.phi), 1.0)
        with pytest.raises(OutOfDomainError):
            sample_params(set_h, 0.0, geom_pi8, {"lam": 0.0, "phi": 0.1})

    def test_phi_neg_examples(self, geom_pi8):
        families = optimal_parameter_families(0.1, geom_pi8)
        phi_neg = family_by_tag(families, FamilyTag.SET_PHI_NEG)
        params = sample_params(phi_neg, 0.1, geom_pi8, {"lam": PI / 2})
        assert math.isclose(math.sin(2 * params.mu), 0.6, abs_tol=1e-14)
        assert math.isclose(math.sin(2 * params.phi), -1.0)
        params2 = sample_params(phi_neg, 0.2, geom_pi8, {"lam": PI / 2})
        q = overlap(coefficients(params2), geom_pi8)
        assert abs(q - 0.5) < 1e-12

    def test_phi_neg_theta_free(self, geom_pi8):
        # On sin(2 phi) = -1 at pi/8, c = 0 and theta drops out of E and
        # Q: every (lam, theta) across the window attains the optimum.
        thetas = (0.0, 0.3, 0.7, 1.2, 2.0, 3.0)
        for target in (0.15, 0.2, 0.24):
            families = optimal_parameter_families(target, geom_pi8)
            phi_neg = family_by_tag(families, FamilyTag.SET_PHI_NEG)
            assert phi_neg.free_parameters == ("lam", "theta")
            q_min = optimal_overlap(target, geom_pi8).overlap
            lo, hi = phi_neg_lambda_window(target)
            for lam in np.linspace(lo, hi, 19)[1:-1].tolist():
                for theta in thetas:
                    params = sample_params(
                        phi_neg, target, geom_pi8, {"lam": lam, "theta": theta}
                    )
                    assert params.theta == theta
                    coeffs = coefficients(params)
                    # cos(2 phi) is cos(3 pi / 2) ~ -1.8e-16 in floats.
                    assert abs(coeffs.c) <= 2e-16
                    assert abs(error_rate(coeffs, geom_pi8) - target) <= 4.5e-16
                    assert abs(overlap(coeffs, geom_pi8) - q_min) <= 4.5e-16

    def test_phi_neg_lambda_window(self, geom_pi8):
        lo, hi = phi_neg_lambda_window(0.05)
        families = optimal_parameter_families(0.05, geom_pi8)
        phi_neg = family_by_tag(families, FamilyTag.SET_PHI_NEG)
        sample_params(phi_neg, 0.05, geom_pi8, {"lam": 0.5 * (lo + hi)})
        with pytest.raises(OutOfDomainError):
            sample_params(phi_neg, 0.05, geom_pi8, {"lam": lo - 0.05})

    def test_unknown_free_choice_rejected(self, geom_pi8):
        families = optimal_parameter_families(0.1, geom_pi8)
        with pytest.raises(DomainError):
            sample_params(
                family_by_tag(families, FamilyTag.SET_E),
                0.1,
                geom_pi8,
                {"lam": 1.0},
            )

    def test_set_e_free_angle_example(self, geom_pi8):
        families = optimal_parameter_families(0.1, geom_pi8)
        params = sample_params(
            family_by_tag(families, FamilyTag.SET_E),
            0.1,
            geom_pi8,
            {"theta": 0.3 * PI, "phi": 0.9 * PI},
        )
        q = overlap(coefficients(params), geom_pi8)
        assert abs(q - (3.0 - 2.0 / 0.9)) < 1e-12

    @pytest.mark.parametrize("alpha", [PI / 8, PI / 10, PI / 9])
    def test_samples_are_pinned_angles_with_the_constraint_mu(self, alpha):
        # Each lower-branch family pins one angle and frees the other two;
        # mu is mu_from_constraint's at the sample's angles, bit for bit,
        # and where no mu exists both routes refuse.
        geom = SignalGeometry(alpha)
        rng = np.random.default_rng([24, int(alpha * 1e6)])
        pins = {
            FamilyTag.SET_E: ("lam", PI / 2),
            FamilyTag.SET_H: ("theta", 0.0),
            FamilyTag.SET_PHI_NEG: ("phi", 0.75 * PI),
        }
        solved = refused = 0
        for target in np.linspace(0.0, max_error_rate(geom), 13).tolist():
            for family in optimal_parameter_families(target, geom):
                pinned, value = pins[family.tag]
                assert family.free_parameters == tuple(
                    name for name in ("lam", "theta", "phi") if name != pinned
                )
                for _ in range(30):
                    choices = {
                        name: rng.uniform(0.0, PI)
                        for name in family.free_parameters
                    }
                    try:
                        params = sample_params(family, target, geom, choices)
                    except OutOfDomainError:
                        angles = {**choices, pinned: value}
                        with pytest.raises(InfeasibleConstraintError):
                            mu_from_constraint(
                                angles["lam"], angles["theta"],
                                angles["phi"], target, geom,
                            )
                        refused += 1
                        continue
                    solved += 1
                    assert getattr(params, pinned) == value
                    for name, chosen in choices.items():
                        assert getattr(params, name) == chosen
                    assert params.mu == mu_from_constraint(
                        params.lam, params.theta, params.phi, target, geom
                    )
        assert solved > 500 and refused > 50

    @pytest.mark.parametrize("target", [0.05, 0.2])
    def test_samples_reproduce_everything(self, target, geom_pi8):
        # Error rate, optimum overlap, stationarity, and the canonical
        # coefficient form (c, d) = (0, 1), per family on random draws.
        rng = np.random.default_rng(500)
        q_ref = optimal_overlap(target, geom_pi8).overlap
        families = optimal_parameter_families(target, geom_pi8)
        for family in families:
            produced = 0
            while produced < 8:
                if family.tag is FamilyTag.SET_E:
                    choices = {
                        "theta": rng.uniform(0, PI),
                        "phi": rng.uniform(0, PI),
                    }
                elif family.tag is FamilyTag.SET_H:
                    choices = {
                        "lam": rng.uniform(0.2 * PI, 0.8 * PI),
                        "phi": rng.uniform(0, PI),
                    }
                else:
                    lo, hi = phi_neg_lambda_window(target)
                    choices = {"lam": rng.uniform(lo, hi)}
                try:
                    params = sample_params(family, target, geom_pi8, choices)
                except OutOfDomainError:
                    continue
                produced += 1
                coeffs = coefficients(params)
                assert abs(error_rate(coeffs, geom_pi8) - target) < 1e-10
                assert abs(overlap(coeffs, geom_pi8) - q_ref) < 1e-9
                residuals = stationarity_residuals(params, geom_pi8)
                assert (
                    max(
                        abs(residuals.r_lambda),
                        abs(residuals.r_theta),
                        abs(residuals.r_phi),
                    )
                    < 1e-9
                )
                assert abs(coeffs.c) < 1e-12
                assert abs(coeffs.d - 1.0) < 1e-12


class TestUpperBranchFamilies:
    @pytest.mark.parametrize("alpha,target", [(0.15 * PI, 0.08), (0.2 * PI, 0.05)])
    def test_samples_reproduce_error_and_overlap(self, alpha, target):
        geom = SignalGeometry(alpha)
        q_ref = sec_branch_overlap(target, geom)
        for family in optimal_parameter_families(target, geom):
            params = sample_params(family, target, geom)
            coeffs = coefficients(params)
            assert abs(error_rate(coeffs, geom) - target) < 1e-10
            assert abs(overlap(coeffs, geom) - q_ref) < 1e-9

    def test_boundary_extremum_is_not_interior_stationary(self):
        # The upper-branch optimum sits on the sin(2 mu) = 1 feasibility
        # boundary: theta and phi residuals vanish, lambda's does not.
        geom = SignalGeometry(0.2 * PI)
        family = optimal_parameter_families(0.05, geom)[0]
        params = sample_params(family, 0.05, geom)
        assert math.isclose(math.sin(2 * params.mu), 1.0)
        residuals = stationarity_residuals(params, geom)
        assert abs(residuals.r_theta) < 1e-12
        assert abs(residuals.r_phi) < 1e-12
        assert abs(residuals.r_lambda) > 1e-3

    def test_seam_continuity_through_phi_neg_family(self, geom_pi8):
        # The upper-branch construction evaluated at alpha = pi/8 lands
        # inside the sin(2 phi) = -1 family and still attains the optimum.
        from qkdprobe.optimum import _upper_branch_params

        params = _upper_branch_params(0.1, geom_pi8)
        coeffs = coefficients(params)
        assert abs(error_rate(coeffs, geom_pi8) - 0.1) < 1e-12
        assert (
            abs(overlap(coeffs, geom_pi8) - optimal_overlap(0.1, geom_pi8).overlap)
            < 1e-12
        )

    def test_out_of_domain_sec_family(self):
        geom = SignalGeometry(0.2 * PI)
        with pytest.raises(OutOfDomainError):
            optimal_parameter_families(0.3, geom)


class TestStationarity:
    def test_random_point_is_not_stationary(self):
        geom = SignalGeometry(PI / 9)
        params_base = (0.3 * PI, 0.1 * PI, 0.2 * PI)
        from qkdprobe import mu_from_constraint

        mu = mu_from_constraint(*params_base, 0.1, geom)
        params = ProbeParams(params_base[0], mu, params_base[1], params_base[2])
        residuals = stationarity_residuals(params, geom)
        assert (
            max(
                abs(residuals.r_lambda),
                abs(residuals.r_theta),
                abs(residuals.r_phi),
            )
            > 1e-3
        )

    @pytest.mark.parametrize("alpha", [PI / 9, PI / 8])
    def test_residuals_match_finite_differences(self, alpha):
        # r_lambda = -2 D dQ/dlam, r_theta = +2 D dQ/dtheta,
        # r_phi = +2 D dQ/dphi along the constant-error overlap.
        geom = SignalGeometry(alpha)
        rng = np.random.default_rng(97)
        step = 1e-5
        s2 = geom.sin_sq_two_alpha
        for _ in range(50):
            target = rng.uniform(0.02, 0.3)
            (params,) = draw_constrained_points(rng, geom, target, 1)
            residuals = stationarity_residuals(params, geom)
            c = coefficients(params).c
            scale = 2.0 * math.sqrt(
                (1.0 - target) ** 2 - 0.25 * c * c * s2
            )

            def q_at(lam, theta, phi):
                return constant_error_overlap(lam, theta, phi, target, geom)

            lam, theta, phi = params.lam, params.theta, params.phi
            grad_lam = (
                q_at(lam + step, theta, phi) - q_at(lam - step, theta, phi)
            ) / (2 * step)
            grad_theta = (
                q_at(lam, theta + step, phi) - q_at(lam, theta - step, phi)
            ) / (2 * step)
            grad_phi = (
                q_at(lam, theta, phi + step) - q_at(lam, theta, phi - step)
            ) / (2 * step)
            assert abs(residuals.r_lambda + scale * grad_lam) < 1e-5
            assert abs(residuals.r_theta - scale * grad_theta) < 1e-5
            assert abs(residuals.r_phi - scale * grad_phi) < 1e-5

    @pytest.mark.parametrize("alpha", [PI / 9, PI / 8, PI / 5])
    def test_constant_error_overlap_is_the_overlap_at_the_solved_mu(
        self, alpha
    ):
        # Wherever a mu meets the target, the constant-E overlap is the
        # overlap of the probe setting with that mu.
        geom = SignalGeometry(alpha)
        rng = np.random.default_rng(131)
        for _ in range(200):
            target = rng.uniform(0.0, 0.45)
            (params,) = draw_constrained_points(rng, geom, target, 1)
            assert abs(
                constant_error_overlap(
                    params.lam, params.theta, params.phi, target, geom
                )
                - overlap(coefficients(params), geom)
            ) < 1e-13


class TestPolynomialCoefficients:
    @pytest.mark.parametrize("alpha", [PI / 9, PI / 8, PI / 5, 0.22 * PI])
    @pytest.mark.parametrize("target", [0.1, 0.3, 0.45])
    def test_roots_satisfy_unfactored_relations(self, alpha, target):
        # Independent check of the printed polynomial coefficients: every
        # root must satisfy the unfactored stationarity relation that the
        # polynomial encodes, reconstructed here from the defining
        # quantities (cos 2theta pinned by the error-rate constraint on
        # the sin(lam) = 0 slice, q rebuilt from it, c^2 = sin^2 2theta
        # cos^2 2phi).
        from qkdprobe.roots import real_roots_in_interval

        geom = SignalGeometry(alpha)
        s2 = geom.sin_sq_two_alpha
        c2 = geom.cos_sq_two_alpha
        cot_sq = c2 / s2

        def pinned(x):
            big_l = c2 + s2 * x
            cos_two_theta = (1.0 - 2.0 * target) / big_l
            q = x + (1.0 + x) * (1.0 - 2.0 * target) / big_l
            cos_sq_two_phi = 1.0 - x * x
            c_sq = (1.0 - cos_two_theta**2) * cos_sq_two_phi
            return big_l, cos_two_theta, q, cos_sq_two_phi, c_sq

        for x in real_roots_in_interval(
            sin2phi_cubic_coefficients(target, geom)
        ):
            big_l = c2 + s2 * x
            residual = (1.0 - 2.0 * cot_sq - x) * x * (
                big_l**2 - (1.0 - 2.0 * target) ** 2
            ) - (1.0 - 2.0 * target) * (1.0 - x * x) * (
                big_l - (1.0 - 2.0 * target)
            )
            assert abs(residual) < 1e-8
        lam_roots = real_roots_in_interval(
            lambda_cubic_coefficients(target, geom),
            c2 - s2 - 1e-9,
            c2 + s2 + 1e-9,
        )
        for big_l in lam_roots:
            x = (big_l - c2) / s2
            if abs(c2 + s2 * x) < 1e-7:
                continue
            _, _, q, cos_sq_two_phi, _ = pinned(x)
            lhs = 4.0 * (1.0 - target) ** 2 * big_l**2
            rhs = (2.0 * (1.0 - target) - s2 * (1.0 - x)) * (
                (2.0 * target - s2 * (1.0 - x)) * s2 * cos_sq_two_phi
                + big_l * (q - 1.0 + 2.0 * target) * s2 * x
            )
            assert abs(lhs - rhs) < 1e-8
        for x in real_roots_in_interval(quintic_coefficients(target, geom)):
            if abs(c2 + s2 * x) < 1e-7:
                continue
            _, cos_two_theta, q, cos_sq_two_phi, c_sq = pinned(x)
            lhs = (q - 1.0 + 2.0 * target) * s2 * cos_two_theta * (
                cos_sq_two_phi
            )
            rhs = (1.0 - 2.0 * cot_sq - x) * (
                4.0 * (1.0 - target) ** 2 - c_sq * s2
            )
            assert abs(lhs - rhs) < 1e-7

    def test_cubic_at_standard_angle(self, geom_pi8):
        a1, a2, a3, a4 = sin2phi_cubic_coefficients(0.2, geom_pi8)
        assert math.isclose(a1, 0.5)
        assert math.isclose(a2, 1.0)
        assert math.isclose(a3, 1.1)
        assert math.isclose(a4, 0.6)

    def test_lambda_cubic_leading(self, geom_pi8):
        b1, _, _, _ = lambda_cubic_coefficients(0.2, geom_pi8)
        assert math.isclose(b1, -1.8)
        _, _, _, b4_zero = lambda_cubic_coefficients(0.0, geom_pi8)
        assert math.isclose(b4_zero, 0.0, abs_tol=1e-15)

    def test_quintic_leading(self, geom_pi8):
        c = quintic_coefficients(0.3, geom_pi8)
        assert math.isclose(c[0], 0.125)


class TestCornerPoints:
    @pytest.mark.parametrize("alpha", [PI / 9, PI / 8, PI / 6, 0.7])
    def test_forced_error_and_overlap(self, alpha):
        # (E, Q) at each sign corner (cos 2theta, sin 2phi), bit for bit;
        # the (-1, +1) corner forces E = 1, where Q = 0/0 resolves to +1.
        geom = SignalGeometry(alpha)
        s2 = geom.sin_sq_two_alpha
        assert _corner(1, 1, geom) == (0.0, 1.0)
        assert _corner(1, -1, geom) == (s2, -1.0)
        assert _corner(-1, 1, geom) == (1.0, 1.0)
        assert _corner(-1, -1, geom) == (1.0 - s2, -1.0)


class TestPossibilities:
    def test_twelve_reports(self, geom_pi8):
        reports = enumerate_possibilities(0.2, geom_pi8)
        assert [r.label for r in reports] == list("ABCDEFGHIJKL")

    def test_corner_case_overlap(self, geom_pi8):
        reports = {r.label: r for r in enumerate_possibilities(0.2, geom_pi8)}
        assert reports["A"].achieved_q in (1.0, -1.0)
        assert reports["A"].status is PossibilityStatus.EXCLUDED_ANALYTICALLY
        assert "-1" in reports["A"].detail

    def test_optimum_yielding_cases(self):
        for alpha, target in ((PI / 9, 0.1), (PI / 8, 0.2)):
            geom = SignalGeometry(alpha)
            expected = csc_branch_overlap(target, geom)
            reports = {
                r.label: r for r in enumerate_possibilities(target, geom)
            }
            for label in "BEFGHIKL":
                assert (
                    reports[label].status is PossibilityStatus.YIELDS_OPTIMUM
                )
                assert abs(reports[label].achieved_q - expected) < 1e-9

    def test_b_value_example(self, geom_pi8):
        reports = {r.label: r for r in enumerate_possibilities(0.2, geom_pi8)}
        assert abs(reports["B"].achieved_q - 0.5) < 1e-12

    def test_c_excluded(self, geom_pi8):
        reports = {r.label: r for r in enumerate_possibilities(0.1, geom_pi8)}
        assert reports["C"].status is PossibilityStatus.EXCLUDED_ANALYTICALLY

    def test_j_infeasible_away_from_seam(self):
        for alpha in (PI / 6, PI / 9):
            reports = {
                r.label: r
                for r in enumerate_possibilities(0.1, SignalGeometry(alpha))
            }
            assert (
                reports["J"].status
                is PossibilityStatus.INFEASIBLE_NUMERICALLY
            )

    def test_j_maps_to_phi_neg_family_at_seam(self, geom_pi8):
        reports = {r.label: r for r in enumerate_possibilities(0.1, geom_pi8)}
        assert reports["J"].status is PossibilityStatus.YIELDS_OPTIMUM

    def test_d_infeasible(self, geom_pi8):
        reports = {r.label: r for r in enumerate_possibilities(0.2, geom_pi8)}
        assert reports["D"].status is PossibilityStatus.INFEASIBLE_NUMERICALLY


class TestPossibilityD:
    def test_infeasible_on_small_grid(self):
        report = possibility_d_feasibility(
            SignalGeometry(PI / 9), [0.1, 0.25, 0.4]
        )
        assert not report.feasible
        assert report.min_joint_residual > 1e-6

    def test_generator_grid_is_counted(self):
        geom = SignalGeometry(PI / 9)
        rates = (0.1, 0.25, 0.4)
        report = possibility_d_feasibility(geom, (e for e in rates))
        assert report.grid_size == 3
        assert report == possibility_d_feasibility(geom, list(rates))

    def test_ghost_root_filtered_at_standard_angle(self, geom_pi8):
        # At alpha = pi/8 all three polynomials share the spurious root
        # sin(2 phi) = -1 where the removed Lambda factor vanishes; the
        # check must not report it as a joint solution.
        report = possibility_d_feasibility(geom_pi8, [0.05, 0.25, 0.45])
        assert not report.feasible
        assert report.min_joint_residual > 1e-6
