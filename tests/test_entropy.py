"""Entropy models: prior CDF chain, discrete logistic bins, rate totals."""

import math

import numpy as np
import pytest
from helpers import gradcheck, skip_boundary_sigma
from hypothesis import given, settings
from hypothesis import strategies as st

import flowcodec.entropy as E
import flowcodec.tensor as T
from flowcodec.entropy import (
    BASE_STEP_INDICES,
    LEVEL_STEP_INDICES,
    PRIOR_DEPTH,
    PROB_FLOOR,
    FactorizedPrior,
    QuantSpec,
    bits,
    channels_first,
    grid_step,
    latent_rate_bits,
    logistic_bin_prob,
    mean_symbol,
    step_index,
)
from flowcodec.flow import LatentSet
from flowcodec.tensor import Tensor, sigmoid_np


def eval_chain_oracle(prior: FactorizedPrior, v: np.ndarray) -> np.ndarray:
    """Independent plain-numpy evaluation of the CDF chain."""

    def softplus(x):
        return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))

    x = v[:, None, :]
    for k in range(PRIOR_DEPTH):
        W = softplus(prior.matrices[k].data)
        x = W @ x + prior.biases[k].data
        if k < PRIOR_DEPTH - 1:
            a = np.tanh(prior.gates[k].data)
            x = x + a * np.tanh(x)
    return (1.0 / (1.0 + np.exp(-x)))[:, 0, :]


@pytest.fixture
def prior():
    return FactorizedPrior(4, np.random.default_rng(40), np.float64)


class TestFactorizedPrior:
    def test_symmetric_init_cdf_at_zero(self, prior):
        v = Tensor(np.zeros((4, 1)))
        assert np.array_equal(prior.cdf(v).data, np.full((4, 1), 0.5))

    def test_bin_prob_matches_direct_evaluation(self, prior):
        v = np.zeros((4, 1))
        expected = eval_chain_oracle(prior, v + 0.5) - eval_chain_oracle(prior, v - 0.5)
        got = prior.bin_prob(Tensor(v), 1.0).data
        assert np.max(np.abs(got - expected)) < 1e-14
        assert np.all(got > 0) and np.all(got < 1)

    def test_telescoping_mass(self, prior):
        k = 1000
        grid = np.arange(-k, k + 1, dtype=np.float64)
        v = Tensor(np.broadcast_to(grid, (4, grid.size)).copy())
        total = prior.bin_prob(v, 1.0).data.sum(axis=1)
        assert np.all(total >= 1.0 - 1e-3)

    def test_monotone_cdf_simple(self, prior):
        f0 = prior.cdf(Tensor(np.zeros((4, 1)))).data
        f1 = prior.cdf(Tensor(np.ones((4, 1)))).data
        assert np.all(f1 > f0)

    def test_monotone_cdf_random_pairs(self, prior):
        rng = np.random.default_rng(41)
        v1 = rng.uniform(-200, 200, size=(4, 1000))
        v2 = v1 + rng.uniform(1e-3, 50, size=v1.shape)
        f1 = prior.cdf(Tensor(v1)).data
        f2 = prior.cdf(Tensor(v2)).data
        assert np.all(f2 > f1)

    def test_tail_limits(self, prior):
        lo = prior.cdf(Tensor(np.full((4, 1), -1e4))).data
        hi = prior.cdf(Tensor(np.full((4, 1), 1e4))).data
        assert np.all(lo < 1e-6) and np.all(hi > 1 - 1e-6)

    def test_monotone_after_training_steps(self):
        # positivity is structural: arbitrary parameter values keep F increasing
        prior = FactorizedPrior(2, np.random.default_rng(42), np.float64)
        for t in prior.matrices + prior.biases + prior.gates:
            t.data = t.data + np.random.default_rng(43).normal(size=t.data.shape)
        v = np.linspace(-50, 50, 500)
        f = prior.cdf(Tensor(np.broadcast_to(v, (2, 500)).copy())).data
        assert np.all(np.diff(f, axis=1) > 0)

    def test_per_channel_delta(self, prior):
        v = Tensor(np.zeros((4, 3)))
        deltas = np.array([0.5, 1.0, 2.0, 4.0])
        p = prior.bin_prob(v, deltas).data
        # wider bins hold more mass
        assert np.all(np.diff(p[:, 0]) > 0)

    def test_rate_decreases_with_coarser_steps(self, prior):
        rng = np.random.default_rng(44)
        v = Tensor(rng.uniform(-20, 20, size=(4, 50)))
        fine = T.reduce_sum(bits(prior.bin_prob(v, 0.5))).item()
        coarse = T.reduce_sum(bits(prior.bin_prob(v, 2.0))).item()
        assert coarse < fine


class TestDiscreteLogistic:
    def test_closed_form_at_mean(self):
        # v = mu, delta 1, sigma 0.5: 2*sigmoid(1) - 1
        expected = 2.0 * sigmoid_np(1.0) - 1.0
        got = logistic_bin_prob(0.3, 0.3, 0.5, 1.0)
        assert abs(got - expected) < 1e-15
        assert abs(got - 0.46211715726000974) < 1e-11

    def test_skip_threshold_boundary(self):
        # mass at mean exceeds 0.9 iff sigma < delta/(2 ln 19)
        for delta in (1.0, 0.25, 4.0):
            boundary = skip_boundary_sigma(delta, 0.9)
            assert abs(boundary / delta - 0.16981) < 1e-4
            below = logistic_bin_prob(0.0, 0.0, boundary * (1 - 1e-9), delta)
            above = logistic_bin_prob(0.0, 0.0, boundary * (1 + 1e-9), delta)
            assert below > 0.9 > above

    def test_flat_density_limit(self):
        p = logistic_bin_prob(0.0, 0.0, 1e9, 1.0)
        assert p < 1e-6

    def test_normalization_within_20_sigma(self):
        for mu, sigma, delta in [(0.3, 1.0, 1.0), (-7.7, 4.0, 0.5), (2.0, 0.2, 0.25)]:
            center = mean_symbol(mu, delta)
            half = int(np.ceil(20 * sigma / delta)) + 1
            grid = center + delta * np.arange(-half, half + 1)
            total = logistic_bin_prob(grid, mu, sigma, delta).sum()
            assert total >= 1.0 - 1e-6

    def test_strict_positivity_floor(self):
        p = logistic_bin_prob(1e6, 0.0, 0.1, 0.5)
        assert p >= PROB_FLOOR

    def test_tensor_and_numpy_paths_agree(self):
        rng = np.random.default_rng(45)
        v = rng.normal(size=16)
        mu = rng.normal(size=16)
        sigma = np.abs(rng.normal(size=16)) + 0.1
        a = logistic_bin_prob(v, mu, sigma, 0.5)
        b = logistic_bin_prob(Tensor(v), Tensor(mu), Tensor(sigma), 0.5).data
        assert np.array_equal(a, b)


class TestMeanSymbol:
    def test_examples(self):
        assert mean_symbol(0.4, 1.0) == 0.0
        assert mean_symbol(0.5, 1.0) == 0.0  # ties to even
        assert mean_symbol(-1.3, 0.5) == -1.5

    def test_is_argmax_of_bin_mass(self):
        rng = np.random.default_rng(46)
        for _ in range(50):
            mu = rng.uniform(-5, 5)
            sigma = rng.uniform(0.1, 3.0)
            delta = rng.choice([0.25, 1.0, 2.0])
            star = mean_symbol(mu, delta)
            grid = star + delta * np.arange(-40, 41)
            probs = logistic_bin_prob(grid, mu, sigma, delta)
            assert grid[np.argmax(probs)] == star


class TestRate:
    def test_single_half_probability_symbol_is_one_bit(self):
        sigma = 1.0 / (2.0 * np.log(3.0))  # bin mass exactly 0.5 at the mean
        p = logistic_bin_prob(0.0, 0.0, sigma, 1.0)
        assert abs(p - 0.5) < 1e-12
        assert abs(bits(Tensor(np.array([p]))).item() - 1.0) < 1e-9

    def test_total_matches_numpy_decomposition(self):
        rng = np.random.default_rng(47)
        prior = FactorizedPrior(8, rng, np.float64)
        z0 = rng.normal(size=(2, 8, 2, 2))
        z1 = rng.normal(size=(2, 4, 4, 4))
        z2 = rng.normal(size=(2, 2, 8, 8))
        mu1, s1 = rng.normal(size=z1.shape), np.abs(rng.normal(size=z1.shape)) + 0.3
        mu2, s2 = rng.normal(size=z2.shape), np.abs(rng.normal(size=z2.shape)) + 0.3
        d2, d1, d0 = 1.0, 0.5, np.full(8, 0.25)

        total = latent_rate_bits(
            LatentSet(z2=Tensor(z2), z1=Tensor(z1), z0=Tensor(z0)), prior,
            [(Tensor(mu2), Tensor(s2)), (Tensor(mu1), Tensor(s1))], (d2, d1, d0),
        ).item()

        v0 = z0.transpose(1, 0, 2, 3).reshape(8, -1)
        p0 = eval_chain_oracle(prior, v0 + d0[:, None] / 2) - eval_chain_oracle(
            prior, v0 - d0[:, None] / 2
        )
        expected = (
            -np.log2(np.clip(p0, PROB_FLOOR, 1)).sum()
            - np.log2(logistic_bin_prob(z1, mu1, s1, d1)).sum()
            - np.log2(logistic_bin_prob(z2, mu2, s2, d2)).sum()
        )
        assert abs(total - expected) < 1e-8 * abs(expected)
        assert total >= 0.0

    def test_differentiable_in_all_arguments(self):
        rng = np.random.default_rng(48)
        prior = FactorizedPrior(2, rng, np.float64)
        z0 = Tensor(rng.normal(size=(1, 2, 2, 2)), requires_grad=True)
        z1 = Tensor(rng.normal(size=(1, 1, 4, 4)), requires_grad=True)
        z2 = Tensor(rng.normal(size=(1, 1, 4, 4)), requires_grad=True)
        mu1 = Tensor(rng.normal(size=(1, 1, 4, 4)), requires_grad=True)
        sig1 = Tensor(np.abs(rng.normal(size=(1, 1, 4, 4))) + 0.5, requires_grad=True)
        d1 = Tensor(np.array(0.7), requires_grad=True)
        d0 = Tensor(np.array([0.5, 1.5]), requires_grad=True)
        params = [z0, z1, z2, mu1, sig1, d1, d0] + [p for _, p in prior.parameters()]

        def build():
            return latent_rate_bits(
                LatentSet(z2, z1, z0), prior, [(mu1, sig1), (mu1, sig1)], (1.0, d1, d0)
            )

        assert gradcheck(build, params, h=1e-5, floor=1e-5) < 1e-4


class TestQuantSpec:
    def test_text_roundtrip(self):
        spec = QuantSpec(2.0, 0.5, np.array([0.25, 1.0, 0.125]))
        again = QuantSpec.from_lines(spec.to_lines())
        assert again.delta2 == spec.delta2 and again.delta1 == spec.delta1
        assert np.array_equal(again.delta0, spec.delta0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            QuantSpec(1.0, 0.0, np.array([1.0]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            QuantSpec(bad, 1.0, np.array([1.0]))
        with pytest.raises(ValueError, match="finite"):
            QuantSpec(1.0, 1.0, np.array([1.0, bad]))

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError, match="declares"):
            QuantSpec.from_lines(["5", "1.0", "1.0", "1.0"])


GRID = settings(derandomize=True, max_examples=300, deadline=None, database=None)


class TestStepGrid:
    """Steps live on the grid 2^(k/16); a header carries the index k."""

    def test_every_index_round_trips(self):
        for k in range(LEVEL_STEP_INDICES[0], LEVEL_STEP_INDICES[1] + 1):
            assert step_index(grid_step(k), LEVEL_STEP_INDICES) == k
            assert QuantSpec.from_indices(k, k, []).indices() == (k, k, [])
        base = list(range(BASE_STEP_INDICES[0], BASE_STEP_INDICES[1] + 1))
        assert QuantSpec.from_indices(0, 0, base).indices() == (0, 0, base)

    @GRID
    @given(st.floats(min_value=grid_step(BASE_STEP_INDICES[0]),
                     max_value=grid_step(BASE_STEP_INDICES[1])),
           st.floats(min_value=2.0 ** -40, max_value=2.0 ** 40))
    def test_snapping_is_idempotent_and_near(self, base, level):
        once = QuantSpec(level, level, [base])
        twice = QuantSpec(once.delta2, once.delta1, once.delta0)
        assert (twice.delta1, twice.delta0.tobytes()) == (once.delta1, once.delta0.tobytes())
        for step, snapped in ((base, once.delta0[0]), (level, once.delta1)):
            assert abs(math.log2(snapped / step)) <= 1 / 32 + 1e-12  # 2.2% at most

    def test_powers_of_two_are_exact(self):
        for e in range(-8, 8):
            assert grid_step(16 * e) == 2.0 ** e
            spec = QuantSpec.uniform(2.0 ** e, 3)
            assert spec.delta2 == spec.delta1 == 2.0 ** e
            assert np.all(spec.delta0 == 2.0 ** e)

    def test_octave_literals_within_one_ulp(self):
        assert len(E._OCTAVE) == 16
        for i, value in enumerate(E._OCTAVE):
            assert abs(value - 2.0 ** (i / 16)) <= math.ulp(value)

    @pytest.mark.parametrize("step", [2.0 ** -8.04, 2.0 ** (127.6 / 16), 1e300],
                             ids=["below", "above", "far above"])
    def test_base_steps_outside_the_grid_refused(self, step):
        with pytest.raises(ValueError, match="outside the grid"):
            QuantSpec(1.0, 1.0, [step])

    @pytest.mark.parametrize("k", [-641, 641, 32767])
    def test_indices_outside_the_grid_refused(self, k):
        with pytest.raises(ValueError, match="outside"):
            grid_step(k)
