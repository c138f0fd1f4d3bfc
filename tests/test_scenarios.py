"""Scenario generators: channels, gains, ingestion, and exact-value oracles."""

import math
import os

import numpy as np
import pytest

from gleak import (
    Prior,
    ValidationError,
    identity_gain,
    posterior_vulnerability,
    prior_vulnerability,
    sample_joint,
    stream,
)
from gleak.preprocess import channel_preprocess, data_table
from gleak.scenarios import (
    SCENARIO_NAMES,
    build_scenario,
    geometric_lambda,
    two_sided_geometric,
)
from oracles import enumerate_strategies_vulnerability
from gleak.scenarios import dp
from gleak.scenarios.dp import exact_dp_vulnerability
from gleak.scenarios.location import (
    diamond_gain,
    gowalla_ingest,
    grid_geometric_mechanism,
    synthetic_prior,
)
from gleak.scenarios.multi_guess import geometric_channel, two_tries_gain
from gleak.scenarios.password import reduced_channel

DESK_CHANNEL = (0.002, 10, 1600, 160.0)  # nu, secrets, observables, scale
PAPER_CHANNEL = (0.002, 10, 16000, 1000.0)
PASSWORD = (128, 6, 1.0)  # total bits, known prefix, delay nu


class TestTwoTriesGain:
    def test_reference_sizes(self):
        gain = two_tries_gain(10, 2)
        assert gain.guesses.size == 45
        assert gain.secrets.size == 10
        assert set(np.unique(gain.matrix)) == {0.0, 1.0}

    def test_column_sums_count_containing_subsets(self):
        gain = two_tries_gain(10, 2)
        assert (gain.matrix.sum(axis=0) == 9).all()
        gain3 = two_tries_gain(6, 3)
        assert (gain3.matrix.sum(axis=0) == math.comb(5, 2)).all()

    def test_single_try_is_identity(self):
        gain = two_tries_gain(5, 1)
        assert (gain.matrix == np.eye(5)).all()

    def test_rows_have_k_ones(self):
        gain = two_tries_gain(7, 3)
        assert (gain.matrix.sum(axis=1) == 3).all()

    def test_invalid_k(self):
        with pytest.raises(ValidationError):
            two_tries_gain(5, 0)
        with pytest.raises(ValidationError):
            two_tries_gain(5, 5)

    def test_uniform_prior_vulnerability_is_k_over_n(self):
        gain = two_tries_gain(10, 2)
        prior = Prior.uniform(gain.secrets)
        assert prior_vulnerability(prior, gain) == pytest.approx(0.2, abs=1e-15)


class TestGeometricChannel:
    def test_rows_stochastic(self):
        for args in (PAPER_CHANNEL, (0.5, 4, 30, 7.5)):
            channel = geometric_channel(*args)
            assert np.allclose(channel.rows.sum(axis=1), 1.0, atol=1e-9)

    def test_lambda_normalizer(self):
        assert geometric_lambda(0.002) == pytest.approx(
            (math.exp(0.002) - 1) / (math.exp(0.002) + 1), rel=1e-15
        )
        # the law sums to one over the integers: lambda (1 + 2 q / (1 - q))
        q = math.exp(-1.0)
        assert geometric_lambda(1.0) * (1 + 2 * q / (1 - q)) == pytest.approx(1.0, abs=1e-15)

    def test_reference_centers(self):
        # each row peaks on the two cells bracketing its half-integer center
        expected = {PAPER_CHANNEL: (3499.5, 12499.5), DESK_CHANNEL: (79.5, 1519.5)}
        for args, centers in expected.items():
            rows = geometric_channel(*args).rows
            for x, center in zip((0, 9), centers):
                lo, hi = int(math.floor(center)), int(math.ceil(center))
                assert rows[x, lo] == rows[x, hi] == rows[x].max()

    def test_rows_peak_at_bracketing_cells(self):
        channel = geometric_channel(*DESK_CHANNEL)
        for x in range(10):
            row = channel.rows[x]
            center = 160.0 * x + 79.5
            lo, hi = int(math.floor(center)), int(math.ceil(center))
            assert row[lo] == pytest.approx(row[hi], rel=1e-12)
            assert row.max() == pytest.approx(row[lo], rel=1e-12)

    def test_decay_rate_between_adjacent_cells(self):
        channel = geometric_channel(0.01, 2, 200, 100.0)
        row = channel.rows[0]
        center = 49  # floor of r(0) = 199/2 - 100/2
        # moving one cell away from the center multiplies mass by e^-nu
        assert row[center + 5] / row[center + 4] == pytest.approx(
            math.exp(-0.01), rel=1e-9
        )


class TestMultiGuessScenario:
    def test_paper_profile_exact_value(self):
        scenario = build_scenario("multi-guess", profile="paper")
        assert scenario.exact_vg == pytest.approx(0.89172643515224, abs=1e-11)
        # headline check: 0.892 +/- 0.001
        assert abs(scenario.exact_vg - 0.892) < 1e-3

    def test_desk_profile_exact_value(self):
        scenario = build_scenario("multi-guess", profile="desk")
        assert scenario.exact_vg == pytest.approx(0.394053718697675, abs=1e-11)

    def test_multiplicative_leakage_from_uniform_prior(self):
        scenario = build_scenario("multi-guess", profile="paper")
        prior_v = prior_vulnerability(scenario.prior, scenario.gain)
        assert prior_v == pytest.approx(0.2, abs=1e-15)
        assert scenario.exact_vg / prior_v == pytest.approx(
            4.4586321757612, abs=1e-10
        )

    def test_details_record_rescale(self):
        scenario = build_scenario("multi-guess", profile="paper")
        rescaled = geometric_channel(*PAPER_CHANNEL)
        np.testing.assert_array_equal(scenario.channel.rows, rescaled.rows)
        assert scenario.metric.kind == "absolute"

    def test_enumeration_oracle_on_shrunken_replica(self):
        channel = geometric_channel(0.5, 4, 5, 1.25)
        prior = Prior.uniform(channel.input)
        gain = two_tries_gain(4, 2)  # 6^5 = 7776 strategies
        exact = posterior_vulnerability(prior, channel, gain)
        brute = enumerate_strategies_vulnerability(prior, channel, gain)
        assert exact == pytest.approx(brute, abs=1e-12)

    @staticmethod
    def desk_vulnerability(nu):
        channel = geometric_channel(nu, *DESK_CHANNEL[1:])
        prior = Prior.uniform(channel.input)
        return posterior_vulnerability(prior, channel, two_tries_gain(10, 2))

    def test_noiseless_limit(self):
        assert self.desk_vulnerability(20.0) > 1.0 - 1e-9

    def test_uninformative_limit(self):
        assert self.desk_vulnerability(1e-8) == pytest.approx(0.2, abs=1e-4)

    def test_unknown_profile(self):
        with pytest.raises(ValidationError):
            build_scenario("multi-guess", profile="giant")


class TestDiamondGain:
    def test_center_and_rings(self):
        gain = diamond_gain()
        m = gain.matrix.reshape(400, 20, 20)
        x = 10 * 20 + 10  # interior cell (10, 10)
        patch = m[x, 8:13, 8:13]
        expected = np.array(
            [
                [0, 0, 1, 0, 0],
                [0, 1, 2, 1, 0],
                [1, 2, 4, 2, 1],
                [0, 1, 2, 1, 0],
                [0, 0, 1, 0, 0],
            ],
            dtype=float,
        )
        assert (patch == expected).all()

    def test_interior_column_sums_to_twenty(self):
        gain = diamond_gain()
        x = 10 * 20 + 10
        assert gain.matrix[:, x].sum() == 20.0
        assert gain.matrix[x, :].sum() == 20.0

    def test_symmetry_and_range(self):
        gain = diamond_gain()
        assert (gain.matrix == gain.matrix.T).all()
        assert gain.range == (0.0, 4.0)
        assert gain.matrix.min() == 0.0 and gain.matrix.max() == 4.0

    def test_values_are_integers(self):
        gain = diamond_gain()
        assert (gain.matrix == np.round(gain.matrix)).all()

    def test_no_value_lands_on_a_half(self):
        # the documented half-up rounding never has to break a tie: check
        # every distinct cell-offset distance of the 20x20 reference grid
        i, j = np.meshgrid(np.arange(20), np.arange(20))
        raw = 4.0 * np.exp(-0.95 * np.hypot(i, j).ravel())
        assert (np.abs(raw - (np.floor(raw) + 0.5)) > 1e-9).all()


class TestGridMechanism:
    def test_rows_stochastic_and_peaked(self):
        channel = grid_geometric_mechanism(5, 5, nu=1.0)
        assert np.allclose(channel.rows.sum(axis=1), 1.0, atol=1e-12)
        assert (channel.rows.argmax(axis=1) == np.arange(25)).all()

    def test_noiseless_limit_is_identity(self):
        channel = grid_geometric_mechanism(4, 4, nu=60.0)
        assert np.allclose(channel.rows, np.eye(16), atol=1e-12)

    def test_uninformative_limit_recovers_prior_vulnerability(self):
        channel = grid_geometric_mechanism(3, 3, nu=1e-9)
        prior = synthetic_prior(3, 3)
        gain = diamond_gain(3, 3)
        post = posterior_vulnerability(prior, channel, gain)
        assert post == pytest.approx(prior_vulnerability(prior, gain), abs=1e-6)

    def test_enumeration_oracle_on_shrunken_replica(self):
        # 2x2 grid: 4^4 = 256 strategies (a 3x3 grid would need 9^9)
        channel = grid_geometric_mechanism(2, 2, nu=1.0)
        prior = synthetic_prior(2, 2)
        gain = diamond_gain(2, 2)
        exact = posterior_vulnerability(prior, channel, gain)
        brute = enumerate_strategies_vulnerability(prior, channel, gain)
        assert exact == pytest.approx(brute, abs=1e-12)


class TestGowallaIngest:
    CENTER = (37.755, -122.440)
    KM_PER_LON = 111.32 * math.cos(math.radians(37.755))

    def point(self, north_km, east_km):
        lat = self.CENTER[0] + (north_km - 2.5) / 111.32
        lon = self.CENTER[1] + (east_km - 2.5) / self.KM_PER_LON
        return f"u0\t2010-10-19T23:55:27Z\t{lat:.10f}\t{lon:.10f}\t12345"

    def ingest(self, tmp_path, lines):
        path = tmp_path / "checkins.txt"
        path.write_text("\n".join(lines) + "\n")
        return gowalla_ingest(str(path))

    def test_point_mass_prior(self, tmp_path):
        ingest = self.ingest(tmp_path, [self.point(2.5, 2.5)] * 7)
        assert ingest.in_region == 7 and ingest.total == 7
        probs = ingest.prior.probs.reshape(20, 20)
        assert probs[9, 9] == 1.0

    def test_out_of_region_points_skipped(self, tmp_path):
        ingest = self.ingest(
            tmp_path, [self.point(2.5, 2.5), self.point(-0.1, 2.5), self.point(2.5, 5.1)]
        )
        assert ingest.total == 3
        assert ingest.in_region == 1

    def test_near_edge_cells(self, tmp_path):
        ingest = self.ingest(
            tmp_path, [self.point(0.001, 0.001), self.point(4.999, 4.999)]
        )
        assert ingest.in_region == 2
        probs = ingest.prior.probs.reshape(20, 20)
        assert probs[0, 0] == 0.5 and probs[19, 19] == 0.5

    def test_exact_boundary_goes_to_lower_cell(self, tmp_path):
        # the center point sits exactly on the row-9/row-10 boundary
        # (lat == lat0 survives the text round trip, and 2.5 / 0.25 is an
        # exact binary quotient), so it exercises the documented tie rule
        ingest = self.ingest(tmp_path, [self.point(2.5, 0.3)])
        probs = ingest.prior.probs.reshape(20, 20)
        assert probs[9, 1] == 1.0

    def test_off_boundary_goes_to_upper_cell(self, tmp_path):
        ingest = self.ingest(tmp_path, [self.point(2.6, 0.3)])
        probs = ingest.prior.probs.reshape(20, 20)
        assert probs[10, 1] == 1.0

    def test_short_and_malformed_lines_skipped(self, tmp_path):
        lines = ["u0 2010", "u0\tt\tnot-a-number\t-122.44\t3", self.point(2.5, 2.5)]
        ingest = self.ingest(tmp_path, lines)
        assert ingest.in_region == 1
        assert ingest.total == 2  # the short line is not counted as a record

    def test_no_points_in_region(self, tmp_path):
        with pytest.raises(ValidationError, match="region"):
            self.ingest(tmp_path, [self.point(9.0, 9.0)])

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ValidationError, match="read"):
            gowalla_ingest(str(tmp_path / "missing.txt"))

    @pytest.mark.skipif(
        not os.path.exists(os.environ.get("GOWALLA_DUMP", "/root/data/gowalla.txt")),
        reason="real check-in dump not available",
    )
    def test_reference_region_count_on_real_dump(self):
        path = os.environ.get("GOWALLA_DUMP", "/root/data/gowalla.txt")
        assert gowalla_ingest(path).in_region == 35162


class TestSyntheticPrior:
    def test_distribution(self):
        prior = synthetic_prior(20, 20)
        assert prior.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert (prior.probs > 0).all()

    def test_hotspots(self):
        prior = synthetic_prior(20, 20)
        grid = prior.probs.reshape(20, 20)
        assert grid.argmax() == 6 * 20 + 6  # dominant spot at (0.3, 0.3)
        assert grid[14, 13] > grid[14, 0]  # secondary spot beats the fringe


class TestLocationScenario:
    def test_desk_exact_value(self):
        scenario = build_scenario("location")
        assert scenario.exact_vg == pytest.approx(0.686018320516057, abs=1e-11)
        np.testing.assert_array_equal(scenario.prior.probs, synthetic_prior(20, 20).probs)
        assert scenario.metric.kind == "euclidean"

    def test_gowalla_prior_used_when_given(self, tmp_path):
        helper = TestGowallaIngest()
        path = tmp_path / "dump.txt"
        path.write_text("\n".join([helper.point(2.5, 2.5)] * 3) + "\n")
        scenario = build_scenario("location", gowalla_path=str(path))
        np.testing.assert_array_equal(
            scenario.prior.probs, gowalla_ingest(str(path)).prior.probs
        )
        assert scenario.prior.probs.max() == 1.0
        # a point-mass prior leaks nothing: the adversary already knows x
        assert scenario.exact_vg == pytest.approx(4.0, abs=1e-9)
        assert scenario.prior.alphabet is scenario.channel.input

    def test_one_cell_alphabet(self):
        scenario = build_scenario("location")
        cells = scenario.prior.alphabet
        assert cells.labels == tuple(str(i) for i in range(400))
        alphabets = [scenario.channel.input, scenario.channel.output, scenario.gain.guesses]
        assert all(alphabet is cells for alphabet in alphabets + [scenario.gain.secrets])


class TestDpScenario:
    def test_cleveland_default_counts(self):
        assert dp.CLEVELAND_COUNTS == (164, 55, 36, 35, 13)
        assert sum(dp.CLEVELAND_COUNTS) == 303
        assert (dp.REMOVED_LABEL, dp.GAIN_VALUE) == (4, 2.0)

    def test_exact_value_matches_closed_form(self):
        scenario = build_scenario("dp")
        gain, exact = scenario.gain, scenario.exact_vg
        assert exact == pytest.approx(1.4621171572589988, abs=1e-12)
        # nu=1 collapses the truncated sum to 2e/(e+1)
        assert exact == pytest.approx(2 * math.e / (math.e + 1), abs=1e-10)
        assert (gain.matrix == 2 * np.eye(2)).all()
        assert gain.range == (0.0, 2.0)

    def test_gain_value_depends_on_removed_label(self):
        # removing a severity-0 record (count 164) has gain 1, a severity-3
        # record (count 35) gain 2
        prior = build_scenario("dp").prior
        v_low = exact_dp_vulnerability(prior, 164, 1.0, 1.0, 1e-12)
        v_high = exact_dp_vulnerability(prior, 35, 1.0, 2.0, 1e-12)
        # the 1-D sum is translation invariant, so only the gain scales
        assert v_high == pytest.approx(2 * v_low, rel=1e-12)

    def test_truncation_radius_converged(self):
        prior = build_scenario("dp").prior
        coarse = exact_dp_vulnerability(prior, 13, 1.0, 2.0, 1e-9)
        fine = exact_dp_vulnerability(prior, 13, 1.0, 2.0, 1e-15)
        assert coarse == pytest.approx(fine, abs=1e-8)

    def test_noiseless_limit(self):
        prior = build_scenario("dp").prior
        expected = sum(prior.probs * 2.0)  # observation reveals the secret
        exact = exact_dp_vulnerability(prior, 13, 50.0, 2.0, 1e-12)
        assert exact == pytest.approx(expected, abs=1e-12)

    def test_monte_carlo_cross_check(self):
        scenario = build_scenario("dp")
        prior, channel, gain, exact = (
            scenario.prior, scenario.channel, scenario.gain, scenario.exact_vg
        )

        class OracleRule:
            """True optimal decision from the 1-D likelihood of count 4."""

            def predict(self, ys):
                z = np.asarray(ys)[:, dp.REMOVED_LABEL]
                return (z < dp.CLEVELAND_COUNTS[dp.REMOVED_LABEL]).astype(np.int64)

        n = 1_000_000
        sampled = sample_joint((prior, channel), n, stream(0, "t/dp/mc"))
        gains = gain.matrix[OracleRule().predict(sampled.ys), sampled.xs]
        estimate = float(gains.mean())
        sem = float(gains.std()) / math.sqrt(n)
        assert abs(estimate - exact) <= 3 * sem

    def test_noise_law_matches_two_sided_geometric(self):
        channel = build_scenario("dp").channel
        n = 200_000
        xs = np.zeros(n, dtype=np.int64)
        ys = channel.sample(xs, stream(1, "t/dp/noise").gen)
        noise = ys[:, 0] - 164
        lam = (math.e - 1) / (math.e + 1)
        for d in (-2, -1, 0, 1, 2):
            expected = lam * math.exp(-abs(d))
            observed = float((noise == d).mean())
            sigma = math.sqrt(expected * (1 - expected) / n)
            assert abs(observed - expected) < 4 * sigma

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    @pytest.mark.parametrize("nu", [dp.NU, 0.002, 2.5])
    @pytest.mark.parametrize("shape", [1, 1000, (3, 5), (2000, 5), (4, 2, 3)])
    def test_two_sided_geometric_bytes(self, seed, nu, shape):
        """The difference of two int64 geometrics, drawn in the same order:
        the same bytes as the expression cast to int64."""
        got = two_sided_geometric(shape, nu, np.random.default_rng(seed))
        gen = np.random.default_rng(seed)
        p = 1.0 - math.exp(-nu)
        want = (gen.geometric(p, size=shape) - gen.geometric(p, size=shape)).astype(np.int64)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("n", [1, 5, 3000])
    def test_sampler_bytes(self, seed, n):
        """The noisy counts are each secret's counts plus the noise, byte for
        byte."""
        channel = build_scenario("dp").channel
        xs = np.random.default_rng(seed + 100).integers(0, 2, n)
        got = channel.sample(xs, np.random.default_rng(seed))
        table = np.array([dp.CLEVELAND_COUNTS, dp.CLEVELAND_COUNTS], dtype=np.int64)
        table[1, dp.REMOVED_LABEL] -= 1
        gen = np.random.default_rng(seed)
        p = 1.0 - math.exp(-dp.NU)
        noise = gen.geometric(p, size=(n, 5)) - gen.geometric(p, size=(n, 5))
        want = table[xs] + noise.astype(np.int64)
        assert got.dtype == np.int64 and got.tobytes() == want.tobytes()

    def test_data_preproc_expansion_factor_equals_gain_value(self):
        scenario = build_scenario("dp")
        prior, channel, gain = scenario.prior, scenario.channel, scenario.gain
        train = sample_joint((prior, channel), 2000, stream(2, "t/dp/exp"))
        assert data_table(train, gain).total_weight == 2 * train.size

    def test_build_scenario_codec(self):
        scenario = build_scenario("dp")
        assert scenario.metric.kind == "manhattan"
        assert scenario.metric.codec.dim == 5


class TestPasswordScenario:
    def test_reduced_channel_shape_and_stochasticity(self):
        rc = reduced_channel(*PASSWORD)
        assert rc.rows.shape == (2, 128)
        assert np.allclose(rc.rows.sum(axis=1), 1.0, atol=1e-12)
        assert (rc.rows > 0).all()

    def test_exact_value(self):
        exact = build_scenario("password").exact_vg
        assert exact == pytest.approx(0.783139106826576, abs=1e-11)

    def test_no_delay_separates_the_classes(self):
        rc = reduced_channel(128, 6, math.inf)
        prior = Prior.uniform(rc.input)
        exact = posterior_vulnerability(prior, rc, identity_gain(rc.input))
        assert exact == pytest.approx(1.0, abs=1e-12)
        # disagreeing passwords always stop exactly at the target bit
        assert rc.rows[1, 6] == 1.0
        assert rc.rows[0, 6] == 0.0

    def test_agree_row_is_the_fair_bit_law(self):
        rc = reduced_channel(128, 6, math.inf)
        # stop at bit 7+j with probability 2^-j for the agreeing class
        assert rc.rows[0, 7] == pytest.approx(0.5, abs=1e-15)
        assert rc.rows[0, 8] == pytest.approx(0.25, abs=1e-15)
        assert rc.rows[0, 127] == pytest.approx(2.0**-120, rel=1e-12)

    def test_sampler_matches_reduced_channel(self):
        rc = reduced_channel(*PASSWORD)
        channel = build_scenario("password").channel
        n = 100_000
        for cls in (0, 1):
            xs = np.full(n, cls, dtype=np.int64)
            ys = channel.sample(xs, stream(cls, "t/pw/tv").gen)
            freq = np.bincount(ys[:, 0] - 1, minlength=128) / n
            tv = 0.5 * np.abs(freq - rc.rows[cls]).sum()
            assert tv <= 0.02

    def test_partition_gain_makes_preprocessings_coincide(self):
        scenario = build_scenario("password")
        prior, gain = scenario.prior, scenario.gain
        deriv = channel_preprocess(prior, gain)
        assert deriv.beta == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(deriv.tau.probs, prior.probs, atol=1e-15)
        assert np.allclose(deriv.R.rows, np.eye(2), atol=1e-15)

    def test_enumeration_oracle_on_shrunken_replica(self):
        rc = reduced_channel(5, 2, 1.0)
        prior = Prior.uniform(rc.input)
        gain = identity_gain(rc.input)
        exact = posterior_vulnerability(prior, rc, gain)
        brute = enumerate_strategies_vulnerability(prior, rc, gain)
        assert exact == pytest.approx(brute, abs=1e-12)

    def test_build_scenario_codec_normalizes_buckets(self):
        scenario = build_scenario("password")
        lo = scenario.metric.codec.encode(np.array([[1]], dtype=np.int64))
        hi = scenario.metric.codec.encode(np.array([[128]], dtype=np.int64))
        assert lo[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert hi[0, 0] == pytest.approx(1.0, abs=1e-15)


class TestBuildScenarioDispatch:
    def test_unknown_name(self):
        with pytest.raises(ValidationError, match="unknown scenario"):
            build_scenario("fingerprinting")

    @pytest.mark.parametrize("name", ["multi-guess", "dp", "password"])
    def test_gowalla_path_only_for_location(self, name):
        with pytest.raises(ValidationError, match="gowalla_path"):
            build_scenario(name, gowalla_path="dump.txt")

    def test_names_registry(self):
        assert SCENARIO_NAMES == ("multi-guess", "location", "dp", "password")

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_every_scenario_builds_with_positive_exact(self, name):
        scenario = build_scenario(name)
        assert scenario.name == name
        assert 0.0 < scenario.exact_vg <= scenario.gain.range[1]
