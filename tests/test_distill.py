import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qkdprobe import (
    DistillationConfig,
    SignalGeometry,
    asymptotic_capacity,
    capacity_curve,
    compression_level,
    defense_frontier,
    optimal_overlap,
    pa_empirical_check,
    pa_shannon_bound,
    renyi_information,
    xi,
)
from qkdprobe import distill
from qkdprobe.distill import (
    CapacityPoint,
    FrontierResult,
    PaCheckResult,
    _renyi_envelope,
    binary_entropy,
)
from qkdprobe.errors import DomainError, NotNormalizedError, TooLargeError
from qkdprobe.optimum import (
    max_error_rate,
    optimal_renyi_bits,
    peak_error_rate,
)
from qkdprobe.probe import _linspace, renyi_info

from conftest import SMALLEST_ALPHA

PI = math.pi
ORACLE_ALPHAS = [PI / 12, PI / 10, PI / 8, PI / 6]
# 24 angles across (0, pi/4), both branches, for the capacity oracle.
GRID_ALPHAS = [PI / 4 * (i + 0.5) / 24 for i in range(24)]

# Pinned on first verified computation (bisection of the capacity formula
# at alpha = pi/8 to 1e-9).
CAPACITY_ZERO_CROSSING = 0.3058921690
# Regression pins of the capacity curve at alpha = pi/8.
CAPACITY_PINS = {
    0.0: 0.5,
    0.02: 0.43561646671478965,
    0.05: 0.3503751107762119,
    0.08: 0.2769701704729772,
    0.11: 0.21390300324497993,
}


class TestRenyiInformation:
    @pytest.mark.parametrize("l_bits", range(13))
    def test_uniform_is_zero(self, l_bits):
        probs = np.full(2**l_bits, 2.0**-l_bits)
        assert renyi_information(probs, l_bits) == 0.0

    @pytest.mark.parametrize("l_bits", range(13))
    def test_point_mass_is_l(self, l_bits):
        probs = np.zeros(2**l_bits)
        probs[0] = 1.0
        assert renyi_information(probs, l_bits) == float(l_bits)

    def test_skewed_single_bit(self):
        expected = 1.0 + math.log2(10.0 / 16.0)
        assert math.isclose(
            renyi_information([0.75, 0.25], 1), expected, abs_tol=1e-15
        )

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            renyi_information([0.5, 0.6], 1)
        with pytest.raises(NotNormalizedError, match="non-negative"):
            renyi_information([1.25, -0.25], 1)

    def test_wrong_length(self):
        with pytest.raises(DomainError):
            renyi_information([0.5, 0.25, 0.25], 1)
        # No count of probabilities fits a negative bit count.
        with pytest.raises(DomainError, match="bit count must be"):
            renyi_information([1.0], -1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, bad):
        # NaN compares false in the sum and in the sign check alike.
        with pytest.raises(NotNormalizedError, match="finite"):
            renyi_information([bad, 1.0], 1)
        with pytest.raises(NotNormalizedError, match="finite"):
            renyi_information([0.5, 0.5, 0.0, bad], 2)

    def test_bounds_over_random_distributions(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            raw = rng.random(16)
            probs = raw / raw.sum()
            info = renyi_information(probs, 4)
            assert -1e-12 <= info <= 4.0


def helstrom_collision_info(q):
    """Collision information of a uniform bit b about the outcome of the
    symmetric (Helstrom) measurement on two pure states with overlap q.

    |psi_b> = cos g |0> + (-1)^b sin g |1> with cos 2g = q, measured in
    the basis (|0> +- |1>)/sqrt(2), bisecting the two states.
    """
    g = 0.5 * math.acos(q)
    states = np.array(
        [[math.cos(g), math.sin(g)], [math.cos(g), -math.sin(g)]]
    )
    basis = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    joint = 0.5 * (states @ basis.T) ** 2  # joint[b, m] = P(b, m)
    info = 0.0
    for outcome in range(2):
        p_outcome = joint[:, outcome].sum()
        conditional = joint[:, outcome] / p_outcome
        info += p_outcome * renyi_information(conditional, 1)
    return info


class TestRenyiGainFromMeasurement:
    """log2(2 - Q^2) is what a measurement of the probe states teaches:
    the paper's Renyi gain, checked from first principles."""

    OVERLAPS = np.linspace(-1.0, 1.0, 2001).tolist()

    @staticmethod
    def largest_gap(gain):
        return max(
            abs(helstrom_collision_info(q) - gain(q))
            for q in TestRenyiGainFromMeasurement.OVERLAPS
        )

    def test_equals_renyi_info(self):
        assert self.largest_gap(renyi_info) <= 1e-14

    def test_rejects_a_wrong_gain(self):
        # The check has power: log2(1 + Q^2) swaps the roles of Q and
        # sqrt(1 - Q^2) and fails it.
        assert self.largest_gap(lambda q: math.log2(1.0 + q * q)) > 1e-14


class TestPaShannonBound:
    def test_examples(self):
        assert math.isclose(pa_shannon_bound(3.0, 3.0), 1.0 / math.log(2.0))
        assert math.isclose(
            pa_shannon_bound(0.0, 10.0), 2.0**-10 / math.log(2.0)
        )
        assert math.isclose(
            pa_shannon_bound(0.0, 10.0), 1.409e-3, rel_tol=1e-3
        )
        assert pa_shannon_bound(4.0, 400.0) < 1e-100


class TestPaEmpiricalCheck:
    def test_uniform_source_holds(self):
        probs = np.full(2**8, 2.0**-8)
        result = pa_empirical_check(8, 2, probs, 100, seed=1)
        assert result.holds
        assert result.observed_info <= result.bound + 3 * result.mc_sigma

    def test_point_mass_analytic_comparison(self):
        probs = np.zeros(2**6)
        probs[5] = 1.0
        for s in range(7):
            result = pa_empirical_check(6, s, probs, 10, seed=2)
            # Output is deterministic: observed info is exactly l - s,
            # and the bound 2^(l-s)/ln2 >= l - s always.
            assert math.isclose(result.observed_info, 6 - s, abs_tol=1e-12)
            assert result.holds

    def test_partially_known_source(self):
        # 64 equiprobable outcomes of 10 bits: collision information 4.
        probs = np.zeros(2**10)
        probs[:64] = 1.0 / 64.0
        result = pa_empirical_check(10, 6, probs, 500, seed=42)
        assert math.isclose(
            renyi_information(probs, 10), 4.0, abs_tol=1e-12
        )
        assert result.holds

    def test_size_guard(self):
        probs = np.full(2**15, 2.0**-15)
        with pytest.raises(TooLargeError):
            pa_empirical_check(15, 3, probs, 10, seed=0)

    @pytest.mark.parametrize(
        "bad,message",
        [({"hash_count": 2.5}, "hash_count must be an integer"),
         ({"seed": 1.5}, "seed must be an integer"),
         ({"l_bits": 4.0}, "l_bits must be an integer"),
         ({"compression_bits": 1.0}, "compression_bits must be an integer"),
         ({"seed": np.float64(3.0)}, "seed must be an integer"),
         ({"seed": None}, "seed must be an integer"),
         ({"seed": -1}, "seed must be non-negative"),
         ({"compression_bits": 5}, r"compression must lie in \[0, l\]"),
         ({"hash_count": 0}, "hash_count must be positive")],
        ids=["hash_count", "float_seed", "l_bits", "compression_bits",
             "numpy_float_seed", "no_seed", "negative_seed",
             "compression_above_l", "no_hashes"],
    )
    def test_bad_inputs_refused(self, bad, message):
        # Counts and seeds must be integers, the seed non-negative: a
        # missing seed would make the check unrepeatable.  At least one
        # hash, and no more compression than l.
        args = dict(l_bits=4, compression_bits=1, source=[1 / 16] * 16,
                    hash_count=10, seed=3)
        with pytest.raises(DomainError, match=message):
            pa_empirical_check(**{**args, **bad})

    def test_numpy_integer_inputs_accepted(self):
        source = [1 / 16] * 16
        assert pa_empirical_check(
            np.int64(4), np.int32(1), source, np.uint8(10), np.uint64(3)
        ) == pa_empirical_check(4, 1, source, 10, 3)

    def test_randomized_configurations_hold(self):
        rng = np.random.default_rng(2024)
        for trial in range(20):
            l_bits = int(rng.integers(4, 11))
            s = int(rng.integers(1, l_bits))
            raw = rng.random(2**l_bits) ** 3
            probs = raw / raw.sum()
            result = pa_empirical_check(
                l_bits, s, probs, 200, seed=trial
            )
            assert result.holds


def numpy_pa_check(l_bits, compression_bits, source, hash_count, seed):
    """pa_empirical_check written on numpy arrays: the oracle for its hash
    matrices, hashed indices and sums."""
    probs = np.asarray(source, dtype=float)
    bound = pa_shannon_bound(
        renyi_information(probs, l_bits), compression_bits
    )
    out_bits = l_bits - compression_bits
    rng = np.random.default_rng(seed)
    observed = np.zeros(hash_count)
    if out_bits:
        # Bit matrix of all 2^l source outcomes, one row per outcome.
        outcomes = (
            np.arange(2**l_bits)[:, None] >> np.arange(l_bits)[None, :]
        ) & 1
        weights = 1 << np.arange(out_bits)
        for k in range(hash_count):
            matrix = rng.integers(0, 2, size=(out_bits, l_bits))
            indices = ((outcomes @ matrix.T) & 1) @ weights
            p_out = np.bincount(
                indices, weights=probs, minlength=2**out_bits
            )
            positive = p_out[p_out > 0.0]
            entropy = float(-(positive * np.log2(positive)).sum())
            observed[k] = out_bits - entropy
    mean = float(observed.mean())
    sigma = (
        float(observed.std(ddof=1)) / math.sqrt(hash_count)
        if hash_count > 1
        else 0.0
    )
    return PaCheckResult(
        observed_info=mean,
        bound=bound,
        mc_sigma=sigma,
        holds=mean <= bound + 3.0 * sigma,
    )


def assert_matches_numpy(l_bits, s, probs, hash_count, seed):
    ours = pa_empirical_check(l_bits, s, probs, hash_count, seed)
    oracle = numpy_pa_check(l_bits, s, probs, hash_count, seed)
    assert ours.holds == oracle.holds
    for name in ("observed_info", "bound", "mc_sigma"):
        assert abs(getattr(ours, name) - getattr(oracle, name)) <= 1e-14, (
            name, l_bits, s, seed
        )


class TestPaNumpyOracle:
    def test_criterion_12_configurations(self):
        # The fifty sources of test_criterion_12, drawn the same way.
        rng = np.random.default_rng(1212)
        for trial in range(50):
            l_bits = int(rng.integers(4, 13))
            s = int(rng.integers(1, l_bits + 1))
            raw = rng.random(2**l_bits) ** float(rng.uniform(1.0, 4.0))
            assert_matches_numpy(l_bits, s, raw / raw.sum(), 500, trial)

    @pytest.mark.parametrize("l_bits", [0, 1, 5])
    def test_no_output_bits(self, l_bits):
        probs = np.full(2**l_bits, 2.0**-l_bits)
        assert_matches_numpy(l_bits, l_bits, probs, 7, 3)
        result = pa_empirical_check(l_bits, l_bits, probs, 7, 3)
        assert (result.observed_info, result.mc_sigma) == (0.0, 0.0)

    def test_single_hash_and_small_sources(self):
        for l_bits in range(1, 5):
            raw = np.arange(1.0, 2**l_bits + 1.0)
            for s in range(l_bits + 1):
                assert_matches_numpy(l_bits, s, raw / raw.sum(), 1, 11)
                assert_matches_numpy(l_bits, s, raw / raw.sum(), 9, 2**40)


# erfcinv(p) = erfinv(1 - p) for the float p, from mpmath:
#     mp.dps = -log10(p) + 60; mp.nstr(mp.erfinv(1 - mp.mpf(p)), 50)
ERFCINV_TABLE = {
    0.5: 0.47693627620446987338141835364313055980896974905947,
    1e-2: 1.8213863677184496679503491873549618197554806357024,
    1e-6: 3.458910737279500028447560910876607348460534410569,
    1e-10: 4.5728249673894852748466112860278821272315649559015,
    1e-12: 5.0420297456390593761915987497229591248837807452404,
    1e-15: 5.6758463474676469782613440207987064414860620938056,
    1e-16: 5.8723700904539631468214368071993209073314558596186,
    1e-18: 6.2473660437464638313203886191174782401264261887858,
    1e-20: 6.6015806223551425656243458907703602111747772320057,
    1e-100: 15.065574702592645703742566525478381259524610785685,
    1e-300: 26.209469960516123885520731790456089173201240382875,
}


# The exact maximizer argmax_e and maximum t_F of the frontier's maximand
# f(e) = n (1 - e/n) I*(e/n + xi) + xi n sqrt(1 - e/n) over the integers
# e in [0, e_t], from mpmath at mp.dps = 60 with alpha and p_fail as their
# exact binary values:
#     s = sin(2a)^2 (a <= pi/8) or cos(2a)^2; k = 1 - 2/s; E_pk = s/(2 - s)
#     xi = erfinv(1 - p) / sqrt(2 n)
#     I*(E) = log2(2 - Q^2), Q = (1 + k E')/(1 - E'), E' = min(E, E_pk)
#     x* = the root of h'(x), h(x) = f(n x)/n, by 250 bisections of [0, 1/2]
#         (h' with the analytic dI/dE = -2 Q (1 + k) / ((1 - E)^2 (2 - Q^2)
#         ln 2), 0 past E_pk)
#     argmax_e = the e in floor(n x*) + {-1, 0, 1, 2}, clamped to [0, e_t],
#         with the largest f(e); t_F = mp.nstr(f(argmax_e), 40)
# Rows: (alpha, n, e_t, p_fail, argmax_e, t_F).
FRONTIER_TABLE = [
    (PI / 10, 10**4, 10**4 // 20, 0.01,
     500, 5159.496308149322251335606356285950774426),
    (PI / 10, 10**4, 10**4 // 20, 1e-10,
     500, 6447.797273647569874749135655752318640782),
    (PI / 10, 10**4, 10**4, 0.01,
     1714, 8278.5407122457277354356400734049207584),
    (PI / 10, 10**4, 10**4, 1e-10,
     1522, 8650.720309379968315718329199093595627562),
    (PI / 10, 10**6, 10**6 // 20, 0.01,
     50000, 430420.4189437600946116085067685247669703),
    (PI / 10, 10**6, 10**6 // 20, 1e-10,
     50000, 445266.8248907046819087131548725442238848),
    (PI / 10, 10**6, 10**6, 0.01,
     182772, 805878.7876694778325241539593694416409101),
    (PI / 10, 10**6, 10**6, 1e-10,
     180859, 809556.855728587485033613694572973599479),
    (PI / 10, 10**8, 10**8 // 20, 0.01,
     5000000, 42147791.74064445711096527388220180113295),
    (PI / 10, 10**8, 10**8 // 20, 1e-10,
     5000000, 42298401.23149359428351242300200195343238),
    (PI / 10, 10**8, 10**8, 0.01,
     18391190, 80368948.27393435622384651823890592706983),
    (PI / 10, 10**8, 10**8, 1e-10,
     18372057, 80405684.75638523915971266915819460185701),
    (PI / 10, 10**10, 10**10 // 20, 0.01,
     500000000, 4205796337.311805191018594128640022627709),
    (PI / 10, 10**10, 10**10 // 20, 1e-10,
     500000000, 4207304599.232960694429885691089118604716),
    (PI / 10, 10**10, 10**10, 0.01,
     1840258897, 8034706348.179875739690650951546080771232),
    (PI / 10, 10**10, 10**10, 1e-10,
     1840067570, 8035073668.758273853072751363574245678583),
    (PI / 10, 10**12, 10**12 // 20, 0.01,
     50000000000, 420489764881.2504143743505503889542257301),
    (PI / 10, 10**12, 10**12 // 20, 1e-10,
     50000000000, 420504849669.6710508601511526801139728752),
    (PI / 10, 10**12, 10**12, 0.01,
     184037288502, 803448750851.8920674319840088540305381813),
    (PI / 10, 10**12, 10**12, 1e-10,
     184035375236, 803452424013.425133570161910773984772922),
    (PI / 10, 10**15, 10**15 // 20, 0.01,
     50000000000000, 420480094781682.5091007539468805756077616),
    (PI / 10, 10**15, 10**15 // 20, 1e-10,
     50000000000000, 420480571811958.3729520988273021203083639),
    (PI / 10, 10**15, 10**15, 0.01,
     184038514987485, 803446396201472.3983012171655960932786779),
    (PI / 10, 10**15, 10**15, 1e-10,
     184038454484682, 803446512356888.4136055975253047272819812),
    (PI / 8, 10**4, 10**4 // 20, 0.01,
     500, 3188.059366977766260996128930744608535974),
    (PI / 8, 10**4, 10**4 // 20, 1e-10,
     500, 4189.53518776449311746688229629460621387),
    (PI / 8, 10**4, 10**4, 0.01,
     2646, 7175.226331945648011553608525148257553779),
    (PI / 8, 10**4, 10**4, 1e-10,
     2460, 7532.683094950977889125995203902078915342),
    (PI / 8, 10**6, 10**6 // 20, 0.01,
     50000, 256327.2521518518449384357068287650018317),
    (PI / 8, 10**6, 10**6 // 20, 1e-10,
     50000, 266966.6199587543429739614725633123996529),
    (PI / 8, 10**6, 10**6, 0.01,
     275710, 696440.3306771274696764238369264276972702),
    (PI / 8, 10**6, 10**6, 1e-10,
     273851, 699967.6688277552013214593438188541660105),
    (PI / 8, 10**8, 10**8 // 20, 0.01,
     5000000, 24995876.70956882916298067497817126737056),
    (PI / 8, 10**8, 10**8 // 20, 1e-10,
     5000000, 25102926.18937261085220875142850918092534),
    (PI / 8, 10**8, 10**8, 0.01,
     27681774, 69434099.07614538112300617712513913223958),
    (PI / 8, 10**8, 10**8, 1e-10,
     27663186, 69469324.66318301770015963408259480974726),
    (PI / 8, 10**10, 10**10 // 20, 0.01,
     500000000, 2493206897.488460396772644902837844934676),
    (PI / 8, 10**10, 10**10 // 20, 1e-10,
     500000000, 2494278051.572463310892627387428111248627),
    (PI / 8, 10**10, 10**10, 0.01,
     2769284778, 6941311460.679468870905890746077880592707),
    (PI / 8, 10**10, 10**10, 1e-10,
     2769098901, 6941663668.697639697803767916815917211044),
    (PI / 8, 10**12, 10**12 // 20, 0.01,
     50000000000, 249256869702.0915958904729127038238549832),
    (PI / 8, 10**12, 10**12 // 20, 1e-10,
     50000000000, 249267581902.5699021208139643248469674103),
    (PI / 8, 10**12, 10**12, 0.01,
     276939551880, 694110162491.9670510393144625494698457978),
    (PI / 8, 10**12, 10**12, 1e-10,
     276937693118, 694113684524.2907679140553322694221250485),
    (PI / 8, 10**15, 10**15 // 20, 0.01,
     50000000000000, 249250002693156.8561866862694995145638335),
    (PI / 8, 10**15, 10**15 // 20, 1e-10,
     50000000000000, 249250341444924.0544631113929751635967478),
    (PI / 8, 10**15, 10**15, 0.01,
     276940743426255, 694107904721974.7181370135678589772323558),
    (PI / 8, 10**15, 10**15, 1e-10,
     276940684647021, 694108016098253.2346757488068551039053687),
    (PI / 6, 10**4, 10**4 // 20, 0.01,
     500, 6931.527450093331066064089192085113632434),
    (PI / 6, 10**4, 10**4 // 20, 1e-10,
     500, 8270.733074496657745509551882709880556706),
    (PI / 6, 10**4, 10**4, 0.01,
     1177, 8881.627972500128891011104045561160939657),
    (PI / 6, 10**4, 10**4, 1e-10,
     984, 9260.902471770135602786629593131037388431),
    (PI / 6, 10**6, 10**6 // 20, 0.01,
     50000, 596164.0090558558603416660708984288397506),
    (PI / 6, 10**6, 10**6 // 20, 1e-10,
     50000, 613417.6658674823426852833387228047555692),
    (PI / 6, 10**6, 10**6, 0.01,
     129253, 865757.8212781489985288771259187656574479),
    (PI / 6, 10**6, 10**6, 1e-10,
     127322, 869508.4036442724690390764082490831619055),
    (PI / 6, 10**8, 10**8 // 20, 0.01,
     5000000, 58568954.05522051117358165115887908866874),
    (PI / 6, 10**8, 10**8 // 20, 1e-10,
     5000000, 58745793.79559235660600493405307565030537),
    (PI / 6, 10**8, 10**8, 0.01,
     13040291, 86352524.06211106147738768787302645146806),
    (PI / 6, 10**8, 10**8, 1e-10,
     13020982, 86389987.30056332089937239206330623143688),
    (PI / 6, 10**10, 10**10 // 20, 0.01,
     500000000, 5846339864.00046417416479653465272779072),
    (PI / 6, 10**10, 10**10 // 20, 1e-10,
     500000000, 5848112620.943284374327668928410184136278),
    (PI / 6, 10**10, 10**10, 0.01,
     1305179427, 8633020621.091792496492726328573550215546),
    (PI / 6, 10**10, 10**10, 1e-10,
     1304986341, 8633395210.847653074532800911329759629344),
    (PI / 6, 10**12, 10**12 // 20, 0.01,
     50000000000, 584528349525.3652056739857240483022599115),
    (PI / 6, 10**12, 10**12 // 20, 1e-10,
     50000000000, 584546081460.1131949509923372353791531955),
    (PI / 6, 10**12, 10**12, 0.01,
     130529446416, 863279745053.8260262423309510649133134256),
    (PI / 6, 10**12, 10**12, 1e-10,
     130527515550, 863283490908.7516139652337031831366866721),
    (PI / 6, 10**15, 10**15 // 20, 0.01,
     50000000000000, 584516982382028.3216738846974636205221427),
    (PI / 6, 10**15, 10**15 // 20, 1e-10,
     50000000000000, 584517543129894.6932216041685842306781562),
    (PI / 6, 10**15, 10**15, 0.01,
     130530684182775, 863277343803771.0376796329886454895767456),
    (PI / 6, 10**15, 10**15, 1e-10,
     130530623123444, 863277462257959.4702099720242571247635841),
]

# The capacity's inner maximizer E*, the root of g'(E) = -I(E) + (1 - E)
# I'(E) on (0, E_pk), g = (1 - E) I(E), with I and I' as in FRONTIER_TABLE;
# from mpmath at mp.dps = 80, alpha as its exact binary value, by 300
# bisections of [0, E_pk]: mp.nstr(root, 40).
INNER_ARGMAX_TABLE = {
    1e-6: 1.999999999998560563603541459849256387999e-12,
    PI / 20: 0.04848118176407113000809802935389492828811,
    PI / 10: 0.1840385550388890658591871236248027538135,
    PI / 8: 0.2769407823366976856743307680113816072993,
    PI / 6: 0.130530724602587589947342815437214159624,
    PI / 4 - 1e-6: 2.000000000236048082597382716386689688501e-12,
}


class TestErrorFunction:
    def test_domain(self):
        # xi inverts erf at y = 1 - p, so erfinv's domain edges y = 1
        # and y = -1, and y = 1.5 beyond them, are p = 0, 2 and -0.5.
        for y in (-1.0, 1.0, 1.5):
            with pytest.raises(DomainError):
                xi(100, 1.0 - y)


class TestXi:
    @pytest.mark.parametrize("p_fail", sorted(ERFCINV_TABLE))
    @pytest.mark.parametrize("n", [1, 5000, 10**9])
    def test_matches_high_precision_table(self, n, p_fail):
        # xi sqrt(2 n) = erfinv(1 - p) = erfcinv(p).
        scaled = xi(n, p_fail) * math.sqrt(2 * n)
        for reference in (
            ERFCINV_TABLE[p_fail],
            float(scipy.special.erfcinv(p_fail)),
        ):
            assert math.isclose(scaled, reference, rel_tol=2e-15)

    def test_pinned_value(self):
        # erfinv(0.99)/100; cross-checked against scipy and an
        # arbitrary-precision evaluation.
        assert math.isclose(
            xi(5000, 0.01), 0.018213863677, abs_tol=1e-10
        )

    def test_limits(self):
        assert xi(5000, 0.999999) < 1e-5
        assert xi(10**9, 0.01) < 1e-4
        assert xi(100, 0.01) > xi(10_000, 0.01)

    def test_domain(self):
        with pytest.raises(DomainError):
            xi(0, 0.5)
        # 5e-324 / 2 underflows to 0, outside the normal quantile's domain.
        for p_fail in (0.0, 1.0, math.nan, 5e-324):
            with pytest.raises(DomainError):
                xi(100, p_fail)


def envelope_gain(error_rate, geom):
    """I*(E) one float at a time: the optimal gain at min(E, E_pk)."""
    return optimal_overlap(
        min(error_rate, peak_error_rate(geom)), geom
    ).renyi_bits


def clamped_gain(error_rate, geom):
    """The former frontier's gain: the argument clamped to the domain edge."""
    edge = min(max_error_rate(geom), 0.5 - 1e-12)
    return optimal_overlap(min(error_rate, edge), geom).renyi_bits


def loop_frontier(config, geom, gain=envelope_gain, counts=None):
    """Reference defense frontier: one scalar Renyi gain per error count,
    over every count in [0, e_t] or over ``counts``."""
    n = config.n
    allowance = xi(n, config.p_fail)
    best = -math.inf
    best_e = 0
    for e in range(config.e_t + 1) if counts is None else counts:
        value = n * (1.0 - e / n) * gain(e / n + allowance, geom) + (
            allowance * n * math.sqrt(1.0 - e / n)
        )
        if value > best:
            best = value
            best_e = e
    return FrontierResult(t_f=best, argmax_e=best_e, xi=allowance)


def frontier_per_bit(x, allowance, geom):
    """(1 - x) I*(x + xi) + xi sqrt(1 - x): the frontier's maximand per
    sifted bit, at x = e/n on the continuum."""
    return (1.0 - x) * envelope_gain(x + allowance, geom) + (
        allowance * math.sqrt(1.0 - x)
    )


def inner_gain(error_rate, geom):
    """(1 - E) I*(E) at one error rate."""
    return (1.0 - error_rate) * envelope_gain(error_rate, geom)


def grid_capacity(error_rate, geom, step=1e-4):
    """Reference capacity: the inner maximum over a dense grid on [0, E],
    refined by scipy's bounded scalar minimizer around the best grid
    point."""

    def gain(e_prime):
        return inner_gain(e_prime, geom)

    if error_rate == 0.0:
        best_x = 0.0
    else:
        grid = np.linspace(
            0.0, error_rate, max(2, int(error_rate / step) + 1)
        ).tolist()
        k = int(np.argmax([gain(e) for e in grid]))
        lo = grid[max(0, k - 1)]
        hi = grid[min(len(grid) - 1, k + 1)]
        best_x = scipy.optimize.minimize_scalar(
            lambda x: -gain(x),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-12},
        ).x
        if gain(grid[k]) > gain(best_x):
            best_x = grid[k]
    return 0.5 * (1.0 - error_rate - gain(best_x))


class TestRenyiEnvelope:
    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_monotone_and_never_below_gain(self, alpha):
        geom = SignalGeometry(alpha)
        peak = peak_error_rate(geom)
        rates = np.linspace(0.0, max_error_rate(geom), 2001).tolist()
        envelope = [_renyi_envelope(rate, geom) for rate in rates]
        for rate, value in zip(rates, envelope):
            gain = optimal_renyi_bits(rate, geom)
            assert value >= gain
            assert value == (gain if rate <= peak else 1.0)
        assert all(a <= b for a, b in zip(envelope, envelope[1:]))

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_one_bit_from_peak_to_half(self, alpha):
        geom = SignalGeometry(alpha)
        peak = peak_error_rate(geom)
        for rate in (peak, max_error_rate(geom), 0.5 * (peak + 0.5), 0.4999):
            value = _renyi_envelope(rate, geom)
            assert type(value) is float and value == 1.0


# The edges of the frontier's accepted domain: the extreme alphas, pi/8
# and its neighbours; the extreme counts; the smallest p_fail whose half
# is still positive, and the largest below 1.
FRONTIER_EDGE_ALPHAS = [
    SMALLEST_ALPHA,
    1e-150,
    math.nextafter(PI / 8, 0.0),
    PI / 8,
    math.nextafter(PI / 8, 1.0),
    math.nextafter(PI / 4, 0.0),
]
FRONTIER_EDGE_COUNTS = [1, 2, 2**53 - 1, 2**53, 2**53 + 1, 2**63 - 1]
FRONTIER_EDGE_P_FAILS = [2.0 * math.ulp(0.0), 0.5, math.nextafter(1.0, 0.0)]


def counted_frontier(config, geom):
    """defense_frontier and the number of Renyi envelopes it evaluated."""
    calls = []

    def counted(error_rate, geom):
        calls.append(error_rate)
        return envelope_gain(error_rate, geom)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distill, "_renyi_envelope", counted)
        return defense_frontier(config, geom), len(calls)


@st.composite
def frontier_counts(draw):
    """(n, e_t, e_t') with 0 <= e_t <= e_t' <= n, drawn toward the edges."""
    n = draw(
        st.sampled_from(FRONTIER_EDGE_COUNTS) | st.integers(1, 2**63 - 1)
    )
    error_counts = st.sampled_from([0, 1, n // 2, n - 1, n]) | st.integers(
        0, n
    )
    return (n, *sorted([draw(error_counts), draw(error_counts)]))


class TestFrontierOracle:
    """The bisected frontier against the per-count loop, bit for bit."""

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    @pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
    @pytest.mark.parametrize("fraction", [0.05, 0.7])
    def test_matches_loop(self, alpha, n, fraction):
        # e_t = 0.7 n runs past the peak error rate at every alpha.
        geom = SignalGeometry(alpha)
        config = DistillationConfig(n=n, e_t=int(fraction * n), p_fail=0.01)
        got = defense_frontier(config, geom)
        assert got == loop_frontier(config, geom)
        assert type(got.t_f) is float and type(got.argmax_e) is int

    @given(
        alpha=st.floats(1e-3, PI / 4 - 1e-3),
        n=st.integers(1, 10**5),
        fraction=st.floats(0.0, 1.0),
        p_fail=st.floats(1e-10, 0.99),
    )
    @settings(max_examples=60, deadline=None)
    # At n = 2000 and p_fail = 0.1 the peak is interior for e_t = 1400 and
    # at e_t itself for e_t = 50, at every oracle alpha.
    @example(alpha=PI / 12, n=2000, fraction=0.7, p_fail=0.1)
    @example(alpha=PI / 12, n=2000, fraction=0.025, p_fail=0.1)
    @example(alpha=PI / 10, n=2000, fraction=0.7, p_fail=0.1)
    @example(alpha=PI / 10, n=2000, fraction=0.025, p_fail=0.1)
    @example(alpha=PI / 8, n=2000, fraction=0.7, p_fail=0.1)
    @example(alpha=PI / 8, n=2000, fraction=0.025, p_fail=0.1)
    @example(alpha=PI / 6, n=2000, fraction=0.7, p_fail=0.1)
    @example(alpha=PI / 6, n=2000, fraction=0.025, p_fail=0.1)
    def test_matches_loop_sweep(self, alpha, n, fraction, p_fail):
        geom = SignalGeometry(alpha)
        config = DistillationConfig(
            n=n, e_t=int(fraction * n), p_fail=p_fail
        )
        assert defense_frontier(config, geom) == loop_frontier(config, geom)

    @given(
        alpha=st.floats(1e-3, PI / 4 - 1e-3),
        allowance=st.floats(0.0, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_objective_is_concave(self, alpha, allowance):
        # The second differences of the frontier's maximand on a grid
        # are never above rounding.
        geom = SignalGeometry(alpha)
        values = [
            frontier_per_bit(x, allowance, geom)
            for x in np.linspace(0.0, 1.0, 2001)[:-1].tolist()
        ]
        assert np.diff(values, 2).max() <= 8.0 * math.ulp(1.0)

    @pytest.mark.parametrize(
        "alpha, n, e_t, p_fail, argmax_e, t_f",
        FRONTIER_TABLE,
        ids=[f"{a:.6f}-{n}-{e}-{p}" for a, n, e, p, _, _ in FRONTIER_TABLE],
    )
    def test_matches_high_precision_table(
        self, alpha, n, e_t, p_fail, argmax_e, t_f
    ):
        # Beyond the per-count loop's reach, and without its ties: the
        # exact maximizer at every n below 2^53.
        config = DistillationConfig(n=n, e_t=e_t, p_fail=p_fail)
        got = defense_frontier(config, SignalGeometry(alpha))
        assert got.argmax_e == argmax_e
        assert math.isclose(got.t_f, t_f, rel_tol=4e-15)

    def test_sublinear_in_error_count(self):
        # One Renyi envelope per bisection step and one for t_F, at most
        # ceil(log2(e_t + 1)) + 1 = e_t.bit_length() + 1 in all.
        geom = SignalGeometry(PI / 8)
        for n in (10**8, 10**12, 2**63 - 1):
            config = DistillationConfig(n=n, e_t=n, p_fail=0.01)
            got, calls = counted_frontier(config, geom)
            assert got == defense_frontier(config, geom)
            assert 0 < calls <= config.e_t.bit_length() + 1

    @given(
        alpha=st.sampled_from(FRONTIER_EDGE_ALPHAS)
        | st.floats(SMALLEST_ALPHA, PI / 4, exclude_max=True),
        counts=frontier_counts(),
        p_fail=st.sampled_from(FRONTIER_EDGE_P_FAILS)
        | st.floats(FRONTIER_EDGE_P_FAILS[0], FRONTIER_EDGE_P_FAILS[-1]),
    )
    @settings(max_examples=300, deadline=None)
    def test_whole_accepted_domain(self, alpha, counts, p_fail):
        # Every accepted (alpha, n, e_t, p_fail) answers within the call
        # bound, and t_F does not fall as e_t rises beyond rounding.
        geom = SignalGeometry(alpha)
        n, lower, upper = counts
        t_values = []
        for e_t in (lower, upper):
            config = DistillationConfig(n=n, e_t=e_t, p_fail=p_fail)
            got, calls = counted_frontier(config, geom)
            assert 0 <= got.argmax_e <= e_t
            assert config.compression(got.t_f) >= got.t_f
            assert calls <= e_t.bit_length() + 1
            t_values.append(got.t_f)
        assert t_values[0] <= t_values[1] * (1.0 + 4e-15)

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_never_below_clamped_frontier(self, alpha):
        # The former frontier clamped e/n + xi to the domain edge, where
        # the gain is 0.  Below the peak the two agree exactly; at n = 5
        # xi alone passes the peak and the envelope gives more.
        geom = SignalGeometry(alpha)
        peak = peak_error_rate(geom)
        regimes = set()
        for n, p_fail in itertools.product((5, 1000), (0.01, 0.5)):
            for e_t in range(0, n + 1, max(1, n // 20)):
                config = DistillationConfig(n=n, e_t=e_t, p_fail=p_fail)
                got = defense_frontier(config, geom)
                old = loop_frontier(config, geom, gain=clamped_gain)
                assert got.t_f >= old.t_f
                below = e_t / n + got.xi <= peak
                if below:
                    assert got == old
                regimes.add((below, got.t_f > old.t_f))
        assert regimes == {(True, False), (False, False), (False, True)}

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_monotone_across_peak(self, alpha):
        geom = SignalGeometry(alpha)
        peak = peak_error_rate(geom)
        n = 2000
        allowance = xi(n, 0.1)
        # First count whose gain argument reaches the peak; beyond it the
        # envelope is flat, so the frontier's terms fall with e.
        at_peak = math.ceil((peak - allowance) * n)
        assert 0 < at_peak < n
        t_values = []
        for e_t in range(0, n + 1, 25):
            frontier = defense_frontier(
                DistillationConfig(n=n, e_t=e_t, p_fail=0.1), geom
            )
            assert frontier.argmax_e <= at_peak
            t_values.append(frontier.t_f)
        assert all(a <= b for a, b in zip(t_values, t_values[1:]))


class TestCapacityOracle:
    @pytest.mark.parametrize("alpha", GRID_ALPHAS)
    def test_inner_gain_is_unimodal(self, alpha):
        geom = SignalGeometry(alpha)
        rates = np.linspace(0.0, peak_error_rate(geom), 20001).tolist()
        steps = np.diff([inner_gain(rate, geom) for rate in rates])
        k = int(np.argmax(steps <= 0.0))
        assert 0 < k < len(steps)
        assert np.all(steps[:k] > 0.0) and np.all(steps[k:] < 0.0)

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS + GRID_ALPHAS)
    def test_matches_per_point_grid(self, alpha):
        geom = SignalGeometry(alpha)
        for fraction in (0.0, 0.05, 0.1, 0.3, 0.6, 0.9, 1.0):
            error_rate = fraction * 0.49
            got = asymptotic_capacity(error_rate, geom)
            want = grid_capacity(error_rate, geom)
            assert type(got.capacity) is float
            assert abs(got.capacity - want) <= 1e-12
            assert got.capacity <= want + 1e-15

    @pytest.mark.parametrize("alpha", sorted(INNER_ARGMAX_TABLE))
    def test_inner_argmax_to_the_last_place(self, alpha):
        root = INNER_ARGMAX_TABLE[alpha]
        star = asymptotic_capacity(0.49, SignalGeometry(alpha)).inner_argmax
        assert abs(star - root) <= 4.0 * math.ulp(root)

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_linear_past_inner_argmax(self, alpha):
        geom = SignalGeometry(alpha)
        star = asymptotic_capacity(0.49, geom).inner_argmax
        assert 0.0 < star < peak_error_rate(geom)
        at_star = asymptotic_capacity(star, geom)
        assert at_star.inner_argmax == star
        for error_rate in np.linspace(star, 0.49, 9):
            point = asymptotic_capacity(float(error_rate), geom)
            assert point.inner_argmax == star
            assert math.isclose(
                point.capacity,
                at_star.capacity - (error_rate - star) / 2.0,
                abs_tol=1e-15,
            )

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_equals_boundary_below_inner_argmax(self, alpha):
        # Below E* the inner maximum sits at E itself.
        geom = SignalGeometry(alpha)
        star = asymptotic_capacity(0.49, geom).inner_argmax
        for error_rate in np.linspace(0.0, star, 7)[:-1]:
            point = asymptotic_capacity(float(error_rate), geom)
            assert point.inner_argmax == error_rate
            assert point.capacity == 0.5 * (
                1.0 - error_rate - inner_gain(float(error_rate), geom)
            )


class TestDefenseFrontier:
    def test_zero_errors_small_allowance(self, geom_pi8):
        config = DistillationConfig(n=10**6, e_t=0, p_fail=0.999999)
        frontier = defense_frontier(config, geom_pi8)
        assert frontier.argmax_e == 0
        assert 0.0 <= frontier.t_f / config.n < 1e-4

    def test_zero_error_dominated_by_allowance_term(self, geom_pi8):
        # At e = 0 the frontier is n I(xi) + xi n, slightly above xi n.
        config = DistillationConfig(n=10**4, e_t=0, p_fail=0.01)
        frontier = defense_frontier(config, geom_pi8)
        assert frontier.t_f >= frontier.xi * config.n
        assert frontier.t_f <= 8.0 * frontier.xi * config.n

    def test_monotone_in_error_count(self, geom_pi8):
        values = [
            defense_frontier(
                DistillationConfig(n=10**4, e_t=e_t, p_fail=0.01), geom_pi8
            ).t_f
            for e_t in (0, 100, 500, 1000)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_converges_to_asymptotic_inner_max(self, geom_pi8):
        point = asymptotic_capacity(0.1, geom_pi8)
        inner_max = 1.0 - 0.1 - 2.0 * point.capacity
        gaps = []
        for n in (10**3, 10**5):
            config = DistillationConfig(n=n, e_t=n // 10, p_fail=0.5)
            frontier = defense_frontier(config, geom_pi8)
            gaps.append(abs(frontier.t_f / n - inner_max))
        assert gaps[1] < gaps[0]

    def test_above_family_maximum_holds_one_bit(self):
        # xi alone exceeds the family domain edge E = 1/4 at pi/12: the
        # former clamp put every count at the edge, where the gain is 0.
        geom = SignalGeometry(PI / 12)
        config = DistillationConfig(n=20, e_t=6, p_fail=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frontier = defense_frontier(config, geom)
        assert frontier.xi > max_error_rate(geom)
        assert frontier == loop_frontier(config, geom)
        assert frontier.argmax_e == 0
        assert math.isclose(
            frontier.t_f, config.n * (1.0 + frontier.xi), rel_tol=1e-15
        )
        clamped = loop_frontier(config, geom, clamped_gain)
        assert math.isclose(
            clamped.t_f, config.n * frontier.xi, rel_tol=1e-12
        )

    def test_no_warning_in_domain(self, geom_pi8):
        config = DistillationConfig(n=1000, e_t=50, p_fail=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            defense_frontier(config, geom_pi8)


COVERAGE_DRAWS = 20_000


def frontier_failure_rate(alpha, error_rate, n, p_fail, bits_bounded, seed):
    """P-hat[t_F(n, e_T) < bits_bounded(n, e_T) I*(E)] over seeded draws
    e_T ~ Binomial(n, E): how often the frontier falls short of the
    information a probe at the true error rate E holds."""
    geom = SignalGeometry(alpha)
    gain = envelope_gain(error_rate, geom)
    rng = np.random.default_rng(seed)
    counts = rng.binomial(n, error_rate, COVERAGE_DRAWS)
    failures = 0
    # t_F once per distinct count.
    for e_t, draws in zip(*np.unique(counts, return_counts=True)):
        config = DistillationConfig(n=n, e_t=int(e_t), p_fail=p_fail)
        t_f = defense_frontier(config, geom).t_f
        if t_f < bits_bounded(n, int(e_t)) * gain:
            failures += int(draws)
    return failures / COVERAGE_DRAWS


def corrected_bits(n, e_t):
    return n - e_t


def sifted_bits(n, e_t):
    return n


def three_sigma_above(p_fail):
    return p_fail + 3.0 * math.sqrt(p_fail * (1.0 - p_fail) / COVERAGE_DRAWS)


class TestFrontierCoverage:
    """The frontier's guarantee, measured (Slutsky et al. 1998): except
    with probability p_fail, t_F(n, e_T) bounds the Renyi information of
    a probe at the true error rate E on the n - e_T corrected bits."""

    @pytest.mark.parametrize("n", [10**3, 10**4])
    @pytest.mark.parametrize("error_rate", [0.02, 0.05, 0.1])
    @pytest.mark.parametrize("alpha", [PI / 10, PI / 8], ids=["pi10", "pi8"])
    def test_failure_rate_within_p_fail(self, alpha, error_rate, n):
        for seed, p_fail in enumerate((0.5, 0.1, 0.01)):
            rate = frontier_failure_rate(
                alpha, error_rate, n, p_fail, corrected_bits, seed
            )
            assert rate <= three_sigma_above(p_fail), (p_fail, rate)

    def test_all_sifted_bits_reading_is_rejected(self):
        # Read as a bound on the information in all n sifted bits, the
        # frontier fails far more often than p_fail allows.
        p_fail = 0.01
        rate = frontier_failure_rate(
            PI / 10, 0.1, 10**4, p_fail, sifted_bits, seed=11
        )
        assert rate > three_sigma_above(p_fail)
        assert rate > 0.5


class TestCompressionLevel:
    def test_additivity_of_integer_leakage(self, geom_pi8):
        base = DistillationConfig(n=10**4, e_t=500, p_fail=0.01)
        with_leak = DistillationConfig(
            n=10**4, e_t=500, p_fail=0.01, q_leak=100.0
        )
        assert compression_level(with_leak, geom_pi8) == compression_level(
            base, geom_pi8
        ) + 100

    def test_matches_frontier(self, geom_pi8):
        config = DistillationConfig(n=10**4, e_t=500, p_fail=0.01)
        frontier = defense_frontier(config, geom_pi8)
        assert compression_level(config, geom_pi8) == math.ceil(frontier.t_f)

    def test_vanishing_allowance_limit(self, geom_pi8):
        # With no errors and the allowance sent to zero the frontier
        # vanishes; the rounded-up compression collapses toward zero
        # (ceil keeps it at one bit for any positive frontier).
        t_values = []
        s_values = []
        for p_fail in (0.9, 0.999, 0.999999):
            config = DistillationConfig(n=10**6, e_t=0, p_fail=p_fail)
            t_values.append(defense_frontier(config, geom_pi8).t_f)
            s_values.append(compression_level(config, geom_pi8))
        assert t_values[0] > t_values[1] > t_values[2]
        assert t_values[2] < 1e-2
        assert s_values[0] > s_values[1] > s_values[2]
        assert s_values[2] <= 1

    def test_validation(self):
        with pytest.raises(DomainError):
            DistillationConfig(n=0, e_t=0, p_fail=0.5)
        with pytest.raises(DomainError):
            DistillationConfig(n=10, e_t=11, p_fail=0.5)
        with pytest.raises(DomainError):
            DistillationConfig(n=10, e_t=1, p_fail=1.0)
        with pytest.raises(DomainError):
            DistillationConfig(n=10, e_t=1, p_fail=0.5, nu=-1.0)

    def test_leakage_sum_must_be_finite(self, geom_pi8):
        # Each term is finite and the sum is not: s would be ceil(inf).
        with pytest.raises(DomainError, match=r"q_leak \+ nu \+ g"):
            DistillationConfig(
                n=10, e_t=1, p_fail=0.1, q_leak=1e308, nu=1e308
            )
        # The largest finite sums still compress.
        config = DistillationConfig(
            n=10, e_t=1, p_fail=0.1, q_leak=1e308, nu=7e307
        )
        assert compression_level(config, geom_pi8) == math.ceil(1.7e308)

    @pytest.mark.parametrize(
        "field, n, e_t",
        [
            ("n", 1000.5, 10),
            ("n", 1000.0, 10),
            ("n", math.nan, 10),
            ("e_t", 1000, 10.5),
        ],
    )
    def test_counts_must_be_integers(self, field, n, e_t):
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            DistillationConfig(n=n, e_t=e_t, p_fail=0.5)

    def test_numpy_integer_counts_accepted(self, geom_pi8):
        config = DistillationConfig(
            n=np.int64(10**4), e_t=np.int32(500), p_fail=0.01
        )
        assert compression_level(config, geom_pi8) == compression_level(
            DistillationConfig(n=10**4, e_t=500, p_fail=0.01), geom_pi8
        )


class TestAsymptoticCapacity:
    @pytest.mark.parametrize("alpha", [PI / 12, PI / 9, PI / 8])
    def test_zero_error_capacity_is_half(self, alpha):
        point = asymptotic_capacity(0.0, SignalGeometry(alpha))
        assert point.capacity == 0.5
        assert point.inner_argmax == 0.0

    def test_standard_angle_is_best(self):
        # The standard protocol leaks the least: capacity at fixed E is
        # maximal at alpha = pi/8.
        capacities = {
            alpha: asymptotic_capacity(0.05, SignalGeometry(alpha)).capacity
            for alpha in (PI / 12, PI / 10, PI / 9, PI / 8)
        }
        assert capacities[PI / 8] == max(capacities.values())
        assert (
            capacities[PI / 12]
            < capacities[PI / 10]
            < capacities[PI / 9]
            < capacities[PI / 8]
        )

    @pytest.mark.parametrize("alpha", [SMALLEST_ALPHA, 1e-153, 1e-150])
    def test_smallest_alphas(self, alpha):
        # E_pk is at most ~2e-300 here, and the gain reaches 1 bit within
        # ~E_pk^2 of it, so E* is E_pk to rounding and C'(0.49) is
        # (1 - 0.49 - 1) / 2.
        geom = SignalGeometry(alpha)
        point = asymptotic_capacity(0.49, geom)
        assert math.isclose(
            point.inner_argmax, peak_error_rate(geom), rel_tol=1e-12
        )
        assert math.isclose(point.capacity, -0.245, abs_tol=1e-15)

    def test_regression_pins(self, geom_pi8):
        for target, expected in CAPACITY_PINS.items():
            assert math.isclose(
                asymptotic_capacity(target, geom_pi8).capacity,
                expected,
                abs_tol=1e-12,
            )

    def test_zero_crossing_location(self, geom_pi8):
        lo, hi = 0.25, 0.4
        while hi - lo > 1e-8:
            mid = 0.5 * (lo + hi)
            if asymptotic_capacity(mid, geom_pi8).capacity > 0.0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - CAPACITY_ZERO_CROSSING) < 1e-7

    def test_domain(self):
        geom = SignalGeometry(PI / 12)  # family domain edge at E = 1/4
        star = asymptotic_capacity(0.49, geom).inner_argmax
        above = asymptotic_capacity(0.3, geom)
        assert above.inner_argmax == star
        assert math.isclose(
            above.capacity,
            asymptotic_capacity(star, geom).capacity - (0.3 - star) / 2.0,
            abs_tol=1e-15,
        )
        for error_rate in (-1e-12, 0.5, 0.7, math.nan):
            with pytest.raises(DomainError):
                asymptotic_capacity(error_rate, geom)


class TestCapacityCurve:
    def test_single_step(self, geom_pi8):
        curve = capacity_curve(geom_pi8, 0.07, 0.2, 1)
        assert len(curve) == 1
        assert curve[0] == asymptotic_capacity(0.07, geom_pi8)

    def test_monotone_nonincreasing(self, geom_pi8):
        curve = capacity_curve(geom_pi8, 0.0, 0.15, 31)
        caps = [point.capacity for point in curve]
        assert all(a >= b for a, b in zip(caps, caps[1:]))

    def test_endpoints_bit_exact(self, geom_pi8):
        curve = capacity_curve(geom_pi8, 0.01, 0.11, 5)
        assert curve[0] == asymptotic_capacity(0.01, geom_pi8)
        assert curve[-1] == asymptotic_capacity(0.11, geom_pi8)

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_every_point_bit_exact(self, alpha):
        # 0.49 lies past E* at every alpha, so both sides of E* are covered.
        geom = SignalGeometry(alpha)
        rates = np.linspace(0.0, 0.49, 40)
        curve = capacity_curve(geom, 0.0, 0.49, 40)
        assert [point.error_rate for point in curve] == list(rates)
        assert curve == [asymptotic_capacity(float(e), geom) for e in rates]

    @settings(max_examples=300, deadline=None)
    @given(
        span=st.one_of(
            # Any rates in [0, 0.49], also equal ones.
            st.floats(0.0, 0.49).flatmap(
                lambda lo: st.tuples(
                    st.just(lo), st.one_of(st.just(lo), st.floats(lo, 0.49))
                )
            ),
            # Subnormal widths, a few units (where numpy's step underflows
            # to zero) or up to the largest subnormal.
            st.tuples(
                st.integers(0, 2**20),
                st.integers(0, 600) | st.integers(0, 2**52 - 1),
            ).map(lambda ks: (ks[0] * 5e-324, (ks[0] + ks[1]) * 5e-324)),
        ),
        steps=st.integers(1, 500),
    )
    @example(span=(0.07, 0.2), steps=1)
    @example(span=(0.1, 0.1), steps=7)
    @example(span=(0.0, 3 * 5e-324), steps=10)
    @example(span=(0.0, 0.49), steps=500)
    def test_rates_are_numpys_linspace(self, span, steps):
        e_min, e_max = span
        curve = capacity_curve(SignalGeometry(PI / 8), e_min, e_max, steps)
        rates = [point.error_rate for point in curve]
        expected = np.linspace(e_min, e_max, steps).tolist()
        assert list(map(float.hex, rates)) == list(map(float.hex, expected))

    @settings(max_examples=300, deadline=None)
    @given(
        start=st.floats(allow_nan=False),
        stop=st.floats(allow_nan=False),
        num=st.integers(1, 50),
    )
    @example(start=-1.7e308, stop=1.7e308, num=1)
    @example(start=-1.7e308, stop=1.7e308, num=3)
    def test_linspace_on_any_floats(self, start, stop, num):
        # The float formula holds numpy's own branches, infinite and
        # overflowing spans included.
        with np.errstate(all="ignore"):
            expected = np.linspace(start, stop, num).tolist()
        points = _linspace(start, stop, num)
        assert list(map(float.hex, points)) == list(map(float.hex, expected))

    @pytest.mark.parametrize(
        "e_min, e_max, given",
        [(0.0, math.inf, "inf"), (-math.inf, 0.1, "-inf")],
    )
    def test_refused_rate_is_named(self, geom_pi8, e_min, e_max, given):
        # The bounds are checked as given, before the grid is spread.
        with pytest.raises(DomainError, match=f"; got {given}$"):
            capacity_curve(geom_pi8, e_min, e_max, 5)
        with pytest.raises(DomainError, match="e_max must not be below"):
            capacity_curve(geom_pi8, 0.2, 0.1, 5)

    @pytest.mark.parametrize("steps", [2.5, math.nan, 5.0])
    def test_non_integer_steps_refused(self, geom_pi8, steps):
        with pytest.raises(DomainError, match="steps must be an integer"):
            capacity_curve(geom_pi8, 0.0, 0.1, steps)
        with pytest.raises(DomainError, match="steps must be positive"):
            capacity_curve(geom_pi8, 0.0, 0.1, 0)

    def test_one_inner_solve_per_curve(self, geom_pi8, monkeypatch):
        # The E* bisection's steps for one point, and for 40.
        calls = []
        rises = distill._rises

        def counted(*args):
            calls.append(args)
            return rises(*args)

        monkeypatch.setattr(distill, "_rises", counted)
        asymptotic_capacity(0.1, geom_pi8)
        one_point = len(calls)
        calls.clear()
        capacity_curve(geom_pi8, 0.0, 0.3, 40)
        assert 0 < len(calls) == one_point


class TestBinaryEntropy:
    def test_values(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0
        assert math.isclose(binary_entropy(0.11), 0.499916, abs_tol=1e-4)
        for x in (-0.1, 1.1):
            with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
                binary_entropy(x)
