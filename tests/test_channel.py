import math

import numpy as np
import pytest

from btdm import channel, codec
from btdm import tensor_core as tc


class TestComplexGaussian:
    def test_moments(self):
        rng = np.random.default_rng(7)
        z = tc.complex_gaussian(rng, 200_000)
        assert abs(np.mean(z)) <= 0.01
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.01)
        # Real and imaginary parts each carry half the variance.
        assert np.var(z.real) == pytest.approx(0.5, abs=0.01)

    def test_sample_channels_shape(self):
        rng = np.random.default_rng(0)
        H = channel.sample_channels(3, 8, rng)
        assert H.shape == (3, 8) and H.dtype == np.complex128


class TestNoiseSigma:
    def test_full_scale_operating_point(self):
        # E_s = 720 cu at B0 = 204 bits: Eb = 720/204.
        eb = 720.0 / 204.0
        assert channel.noise_sigma(0.0, 720.0, 204) == pytest.approx(math.sqrt(eb))
        assert channel.noise_sigma(3.0, 720.0, 204) == pytest.approx(
            math.sqrt(eb / 10 ** 0.3))

    def test_pinned_value(self):
        # Frozen from the defining formula: sqrt((80/20) / 10^(10/10)).
        assert channel.noise_sigma(10.0, 80.0, 20) == pytest.approx(
            0.6324555320336759, abs=1e-12)

    def test_monotone_in_snr(self):
        sigmas = [channel.noise_sigma(db, 80.0, 20) for db in (0, 5, 10, 20)]
        assert sigmas == sorted(sigmas, reverse=True)

    def test_invalid(self):
        with pytest.raises(ValueError):
            channel.noise_sigma(0.0, -1.0, 20)


class TestTransmit:
    def setup_method(self):
        self.p1 = codec.CodecParams(6, 2, 12)
        self.p2 = codec.CodecParams(5, 2, 10)
        self.config = channel.ChannelConfig(
            n_antennas=4, n_users=2, ebn0_db=20.0, symbol_energy=30.0)

    def payloads(self, rng, n=2):
        return [rng.integers(0, 2, 22).astype(np.uint8) for _ in range(n)]

    def test_noiseless_matches_model(self, rng):
        Y, model = channel.transmit(self.payloads(rng), self.p1, self.p2,
                                    self.config, b0=10,
                                    channel_rng=np.random.default_rng(1))
        np.testing.assert_allclose(Y, tc.synthesize_received(model), atol=1e-12)
        assert Y.shape == (6, 5, 4)

    def test_per_user_energy(self, rng):
        _, model = channel.transmit(self.payloads(rng), self.p1, self.p2,
                                    self.config, b0=10,
                                    channel_rng=np.random.default_rng(1))
        for term in model.terms:
            core = term.A @ term.B.T
            assert np.linalg.norm(core) ** 2 == pytest.approx(30.0, rel=1e-10)

    def test_payloads_recoverable_from_terms(self, rng):
        payloads = self.payloads(rng)
        _, model = channel.transmit(payloads, self.p1, self.p2, self.config,
                                    b0=10, channel_rng=np.random.default_rng(1))
        for payload, term in zip(payloads, model.terms):
            Qa, Qb = np.linalg.qr(term.A)[0], np.linalg.qr(term.B)[0]
            b1 = codec.demap_symbol(Qa, self.p1)
            b2 = codec.demap_symbol(Qb, self.p2)
            np.testing.assert_array_equal(np.concatenate([b1, b2]), payload)

    def test_noise_energy_statistics(self, rng):
        # With noise the residual against the clean model equals the noise,
        # whose expected squared norm is sigma^2 * T1*T2*N.
        cfg = channel.ChannelConfig(n_antennas=4, n_users=2, ebn0_db=5.0,
                                    symbol_energy=30.0)
        sigma = channel.noise_sigma(5.0, 30.0, 10)
        total = 0.0
        trials = 50
        for i in range(trials):
            Y, model = channel.transmit(
                self.payloads(rng), self.p1, self.p2, cfg, b0=10,
                channel_rng=np.random.default_rng((2, i)),
                noise_rng=np.random.default_rng((3, i)))
            total += tc.frobenius(Y - tc.synthesize_received(model)) ** 2
        expected = sigma ** 2 * 6 * 5 * 4
        assert total / trials == pytest.approx(expected, rel=0.15)

    def test_channel_noise_streams_independent(self, rng):
        payloads = self.payloads(rng)
        Y1, m1 = channel.transmit(payloads, self.p1, self.p2, self.config, b0=10,
                                  channel_rng=np.random.default_rng(5),
                                  noise_rng=np.random.default_rng(6))
        Y2, m2 = channel.transmit(payloads, self.p1, self.p2, self.config, b0=10,
                                  channel_rng=np.random.default_rng(5),
                                  noise_rng=np.random.default_rng(7))
        np.testing.assert_array_equal(m1.terms[0].h, m2.terms[0].h)
        assert not np.array_equal(Y1, Y2)

    def test_wrong_user_count(self, rng):
        with pytest.raises(ValueError):
            channel.transmit(self.payloads(rng, n=3), self.p1, self.p2,
                             self.config, b0=10,
                             channel_rng=np.random.default_rng(0))

    def test_wrong_payload_length(self):
        bad = [np.zeros(21, dtype=np.uint8), np.zeros(22, dtype=np.uint8)]
        with pytest.raises(ValueError):
            channel.transmit(bad, self.p1, self.p2, self.config, b0=10,
                             channel_rng=np.random.default_rng(0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            channel.ChannelConfig(n_antennas=0, n_users=1, ebn0_db=0.0,
                                  symbol_energy=1.0)
        with pytest.raises(ValueError):
            channel.ChannelConfig(n_antennas=1, n_users=1, ebn0_db=0.0,
                                  symbol_energy=0.0)
