import cmath
import math

import numpy as np
import pytest

from _oracles import (
    KrausChannel,
    QubitMapSpec,
    Unitary2,
    apply_channel,
    apply_unitary,
    choi_matrix,
    coherence_gain_witness,
    derive_stream,
    is_cptp,
    maximally_mixed,
    min_eigenvalue,
    off_diagonal_gain_spec,
    random_diagonal_channel,
    random_state,
    rz,
    unit_images,
)
from noisegames.qubit import DensityMatrix2, coherence, plus_state


def random_unitary2(stream) -> Unitary2:
    a, b, g = (float(x) * 2.0 * math.pi for x in stream.uniform(3))
    t = float(stream.uniform(1)[0]) * math.pi / 2.0
    ca, sa = math.cos(t), math.sin(t)
    return Unitary2(
        ca * cmath.exp(1j * a),
        -sa * cmath.exp(1j * (a + g)),
        sa * cmath.exp(1j * (b - g)),
        ca * cmath.exp(1j * b),
    )


class TestDensityMatrix2:
    def test_valid(self):
        rho = DensityMatrix2(0.25, 0.1 + 0.2j, 0.75)
        assert rho.a == 0.25 and rho.c == 0.75

    def test_trace_enforced(self):
        with pytest.raises(ValueError):
            DensityMatrix2(0.6, 0.0j, 0.6)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            DensityMatrix2(0.5, 0.51 + 0.0j, 0.5)

    def test_negative_population_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix2(-0.1, 0.0j, 1.1)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix2(float("nan"), 0.0j, 1.0)
        with pytest.raises(ValueError):
            DensityMatrix2(0.5, complex(float("inf"), 0.0), 0.5)


class TestRz:
    def test_identity_at_zero(self):
        u = rz(0.0)
        assert u.u00 == 1.0 and u.u11 == 1.0 and u.u01 == 0.0 and u.u10 == 0.0

    def test_pi_flips_coherence_sign(self):
        rho = apply_unitary(rz(math.pi), plus_state())
        assert abs(rho.b - (-0.5)) < 1e-12
        assert rho.a == pytest.approx(0.5, abs=1e-15)
        assert rho.c == pytest.approx(0.5, abs=1e-15)

    def test_angles_add(self):
        rho = plus_state()
        two_step = apply_unitary(rz(0.4), apply_unitary(rz(0.3), rho))
        one_step = apply_unitary(rz(0.7), rho)
        assert abs(two_step.b - one_step.b) < 1e-12

    def test_general_action_on_offdiagonal(self):
        rho = DensityMatrix2(0.3, 0.2 - 0.1j, 0.7)
        out = apply_unitary(rz(1.1), rho)
        assert out.a == pytest.approx(0.3, abs=1e-15)
        assert out.c == pytest.approx(0.7, abs=1e-15)
        assert abs(out.b - rho.b * cmath.exp(-1.1j)) < 1e-12

    def test_nonfinite_angle_rejected(self):
        with pytest.raises(ValueError):
            rz(float("inf"))


class TestApplyUnitary:
    def test_identity(self):
        rho = DensityMatrix2(0.3, 0.1 + 0.05j, 0.7)
        out = apply_unitary(Unitary2(1, 0, 0, 1), rho)
        assert out == rho

    def test_eigenvalues_preserved(self):
        stream = derive_stream(77, 0)
        for _ in range(50):
            rho = random_state(stream)
            u = random_unitary2(stream)
            out = apply_unitary(u, rho)
            assert abs(min_eigenvalue(out) - min_eigenvalue(rho)) < 1e-12
            assert abs((out.a + out.c) - (rho.a + rho.c)) < 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            Unitary2(1, 0, 0, 0.9)


class TestKrausChannel:
    def test_identity_channel(self):
        rho = DensityMatrix2(0.4, 0.2j, 0.6)
        assert apply_channel(KrausChannel.identity(), rho) == rho

    def test_completeness_enforced(self):
        with pytest.raises(ValueError):
            KrausChannel(((0.5, ((1, 0), (0, 1))),))

    def test_weight_range_enforced(self):
        with pytest.raises(ValueError):
            KrausChannel(((1.5, ((1, 0), (0, 1))),))

    def test_output_valid_for_random_channels(self):
        stream = derive_stream(5, 0)
        for _ in range(200):
            ch = random_diagonal_channel(stream)
            rho = random_state(stream)
            out = apply_channel(ch, rho)
            assert abs(out.a + out.c - 1.0) < 1e-10
            assert min_eigenvalue(out) >= -1e-10


class TestCoherence:
    def test_values(self):
        assert coherence(maximally_mixed()) == 0.0
        assert coherence(plus_state()) == 0.5
        assert coherence(DensityMatrix2(0.5, 1.0 / 6.0, 0.5)) == pytest.approx(1 / 6)


class TestMinEigenvalue:
    def test_half_identity(self):
        assert min_eigenvalue(((0.5, 0), (0, 0.5))) == 0.5

    def test_closed_form_for_unit_diagonal(self):
        # eigenvalues of ((1, x), (x*, 1)) / 2 are (1 +- |x|) / 2
        x = 1.2 * cmath.exp(0.4j)
        m = ((0.5, 0.5 * x), (0.5 * x.conjugate(), 0.5))
        assert min_eigenvalue(m) == pytest.approx(-0.1, abs=1e-12)

    def test_states_nonnegative(self):
        stream = derive_stream(6, 0)
        for _ in range(100):
            assert min_eigenvalue(random_state(stream)) >= -1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            min_eigenvalue(((0, 1), (0, 0)))


class TestChoi:
    def test_identity_map(self):
        eigs = np.linalg.eigvalsh(choi_matrix(QubitMapSpec.identity()))
        assert np.allclose(eigs, [0, 0, 0, 2], atol=1e-12)

    def test_completely_depolarizing(self):
        half = ((0.5, 0), (0, 0.5))
        zero = ((0, 0), (0, 0))
        spec = QubitMapSpec(half, zero, zero, half)
        eigs = np.linalg.eigvalsh(choi_matrix(spec))
        assert np.allclose(eigs, [0.5] * 4, atol=1e-12)
        assert is_cptp(spec)

    def test_rotation_conjugation_is_rank_one(self):
        u = rz(0.8)
        ch = KrausChannel(((1.0, ((u.u00, u.u01), (u.u10, u.u11))),))
        eigs = np.linalg.eigvalsh(choi_matrix(QubitMapSpec.from_kraus(ch)))
        assert np.allclose(eigs, [0, 0, 0, 2], atol=1e-12)

    def test_kraus_built_maps_are_psd(self):
        stream = derive_stream(8, 0)
        for _ in range(100):
            spec = QubitMapSpec.from_kraus(random_diagonal_channel(stream))
            eigs = np.linalg.eigvalsh(choi_matrix(spec))
            assert eigs[0] >= -1e-10
            assert is_cptp(spec)

    def test_unit_images_from_arrays_are_from_kraus(self):
        stream = derive_stream(9, 0)
        u = rz(0.8)
        channels = [KrausChannel(((1.0, ((u.u00, u.u01), (u.u10, u.u11))),))]
        channels += [random_diagonal_channel(stream) for _ in range(100)]
        for ch, img in zip(channels, unit_images(channels), strict=True):
            spec = QubitMapSpec.from_kraus(ch)
            want = [spec.img00, spec.img01, spec.img10, spec.img11]
            assert np.allclose(img, np.array(want), rtol=0, atol=1e-15)


class TestIsCptp:
    def test_identity_true(self):
        assert is_cptp(QubitMapSpec.identity())

    def test_gain_map_false(self):
        assert not is_cptp(off_diagonal_gain_spec(1.2, 0.0))

    def test_trace_condition(self):
        bad = QubitMapSpec(
            ((0.9, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((0, 0), (0, 1))
        )
        assert not is_cptp(bad)


class TestGainWitness:
    def test_simple_gain(self):
        w = coherence_gain_witness(off_diagonal_gain_spec(1.2, 0.0))
        assert w.violated
        assert w.min_eig == pytest.approx(-0.1, abs=1e-12)
        assert coherence(w.input_state) == pytest.approx(0.5, abs=1e-15)

    def test_identity_no_violation(self):
        w = coherence_gain_witness(QubitMapSpec.identity())
        assert not w.violated
        assert w.min_eig >= -1e-12

    def test_split_gain_at_theta_zero(self):
        w = coherence_gain_witness(off_diagonal_gain_spec(0.7, 0.7))
        assert w.violated
        assert w.theta == pytest.approx(0.0, abs=1e-12)
        assert w.min_eig == pytest.approx(-0.2, abs=1e-12)

    def test_complex_entries(self):
        w = coherence_gain_witness(
            off_diagonal_gain_spec(0.9 * cmath.exp(0.7j), 0.4 * cmath.exp(-1.1j))
        )
        assert w.violated
        assert w.min_eig == pytest.approx((1.0 - 1.3) / 2.0, abs=1e-12)

    def test_requires_diagonal_fixing(self):
        bad = QubitMapSpec(
            ((0.8, 0), (0, 0.2)), ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((0, 0), (0, 1))
        )
        with pytest.raises(ValueError):
            coherence_gain_witness(bad)


def test_no_coherence_gain_for_random_dephasing_channels():
    # Compact version of the exhaustive acceptance sweep.
    gen = derive_stream(314, 0)
    for _ in range(300):
        ch = random_diagonal_channel(gen)
        for _ in range(20):
            rho = random_state(gen)
            assert coherence(apply_channel(ch, rho)) <= coherence(rho) + 1e-10
