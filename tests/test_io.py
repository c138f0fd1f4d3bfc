"""Text formats: exact round-trips and malformed-file rejection.

Gain and sample files are read by ``leak`` and written by the tests'
own writers; weighted sample files are written by ``leak preprocess`` and
parsed here.
"""

import csv

import numpy as np
import pytest

from conftest import original_gain, write_gain, write_samples
from gleak import (
    Alphabet,
    Channel,
    GainFunction,
    Prior,
    SampleSet,
    ValidationError,
    identity_gain,
    sample_joint,
    stream,
)
from gleak.io import (
    read_channel,
    read_gain,
    read_prior,
    read_samples,
    write_channel,
    write_prior,
    write_weighted,
)
from gleak.preprocess import data_table
from oracles import table_entries


class TestPriorFormat:
    def test_round_trip_is_exact(self, tmp_path):
        probs = np.array([1 / 3, 1 / 7, 1 - 1 / 3 - 1 / 7])
        prior = Prior(Alphabet.integers(3), probs)
        path = tmp_path / "prior.txt"
        write_prior(prior, path)
        back = read_prior(path)
        assert (back.probs == prior.probs).all()

    def test_alphabet_preserved_when_supplied(self, tmp_path):
        names = Alphabet(("alice", "bob"))
        prior = Prior(names, np.array([0.25, 0.75]))
        path = tmp_path / "prior.txt"
        write_prior(prior, path)
        back = read_prior(path, names)
        assert back.alphabet == names

    def test_multiline_rejected(self, tmp_path):
        path = tmp_path / "prior.txt"
        path.write_text("0.5 0.5\n0.1 0.9\n")
        with pytest.raises(ValidationError, match="one line"):
            read_prior(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "prior.txt"
        path.write_text("0.5 zero.five\n")
        with pytest.raises(ValidationError, match="malformed"):
            read_prior(path)


class TestChannelFormat:
    def test_round_trip_is_exact(self, tmp_path):
        rows = np.array([[0.8, 0.2], [1 / 3, 2 / 3], [0.05, 0.95]])
        channel = Channel(Alphabet.integers(3), Alphabet.integers(2, "y"), rows)
        path = tmp_path / "chan.txt"
        write_channel(channel, path)
        back = read_channel(path)
        assert (back.rows == channel.rows).all()
        assert back.input.size == 3 and back.output.size == 2

    def test_header_checked(self, tmp_path):
        path = tmp_path / "chan.txt"
        path.write_text("two 2\n0.5 0.5\n")
        with pytest.raises(ValidationError, match="header"):
            read_channel(path)

    def test_superscript_digit_header_names_the_file(self, tmp_path):
        # "²" is a digit to str.isdigit but not to int()
        path = tmp_path / "chan.txt"
        path.write_text("\u00b2 2\n0.5 0.5\n0.5 0.5\n")
        with pytest.raises(ValidationError, match="header") as err:
            read_channel(path)
        assert str(path) in str(err.value)

    def test_row_count_checked(self, tmp_path):
        path = tmp_path / "chan.txt"
        path.write_text("2 2\n0.5 0.5\n")
        with pytest.raises(ValidationError, match="matrix rows"):
            read_channel(path)

    def test_row_width_checked(self, tmp_path):
        path = tmp_path / "chan.txt"
        path.write_text("2 2\n0.5 0.5\n1.0\n")
        with pytest.raises(ValidationError, match="width"):
            read_channel(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "chan.txt"
        path.write_text("\n\n")
        with pytest.raises(ValidationError, match="empty"):
            read_channel(path)

    def test_nonstochastic_content_rejected_by_domain_type(self, tmp_path):
        path = tmp_path / "chan.txt"
        path.write_text("1 2\n0.9 0.3\n")
        with pytest.raises(ValidationError):
            read_channel(path)


class TestGainFormat:
    def test_round_trip_preserves_original_units(self, tmp_path):
        matrix = np.array([[1.0, -2.0], [0.5, 3.0]])
        gain = GainFunction(
            Alphabet.integers(2, "w"), Alphabet.integers(2), matrix
        )
        path = tmp_path / "gain.txt"
        write_gain(gain, path)
        back = read_gain(path)
        assert (original_gain(back) == matrix).all()
        assert back.shift == gain.shift
        assert back.range == gain.range

    def test_header_shape_mismatch(self, tmp_path):
        path = tmp_path / "gain.txt"
        path.write_text("2 3\n1 0 0\n0 1\n")
        with pytest.raises(ValidationError, match="width"):
            read_gain(path)

    @pytest.mark.parametrize("reader", [read_gain, read_channel])
    @pytest.mark.parametrize("header", ["0 0", "0 3", "2 0"])
    def test_zero_dimension_rejected(self, tmp_path, reader, header):
        path = tmp_path / "matrix.txt"
        path.write_text(f"{header}\n")
        with pytest.raises(ValidationError, match="header of positive sizes") as err:
            reader(path)
        assert str(path) in str(err.value)


class TestSampleFormat:
    def make_samples(self):
        X = Alphabet(("north", "south"))
        xs = np.array([0, 1, 1, 0])
        ys = np.array([[3], [1], [4], [1]])
        return SampleSet(X, xs, ys)

    def test_round_trip(self, tmp_path):
        samples = self.make_samples()
        path = tmp_path / "samples.csv"
        write_samples(samples, path)
        back = read_samples(path, samples.secrets)
        assert (back.xs == samples.xs).all()
        assert (back.ys == samples.ys).all()

    def test_tuple_observables_round_trip(self, tmp_path):
        X = Alphabet.integers(2)
        ys = np.array([[1, -2, 3], [0, 0, 7]])
        samples = SampleSet(X, np.array([0, 1]), ys)
        path = tmp_path / "samples.csv"
        write_samples(samples, path)
        back = read_samples(path, X)
        assert (back.ys == ys).all()
        assert path.read_text().splitlines()[0] == "0,1|-2|3"

    def test_sampled_set_round_trip(self, tmp_path, two_secret_example):
        prior, channel = two_secret_example
        samples = sample_joint((prior, channel), 200, stream(0, "t/io"))
        path = tmp_path / "samples.csv"
        write_samples(samples, path)
        back = read_samples(path, prior.alphabet)
        assert (back.xs == samples.xs).all() and (back.ys == samples.ys).all()

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("east,3\n")
        with pytest.raises(ValidationError):
            read_samples(path, Alphabet(("north", "south")))

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("north,3,9\n")
        with pytest.raises(ValidationError, match="x_label"):
            read_samples(path, Alphabet(("north", "south")))

    def test_ragged_widths_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("north,1|2\nsouth,3\n")
        with pytest.raises(ValidationError, match="widths"):
            read_samples(path, Alphabet(("north", "south")))

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("")
        with pytest.raises(ValidationError, match="no samples"):
            read_samples(path, Alphabet(("north", "south")))

    def test_malformed_encoding_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("north,3|x\n")
        with pytest.raises(ValidationError, match="encoding"):
            read_samples(path, Alphabet(("north", "south")))

    @pytest.mark.parametrize("component", [str(2**63), str(-(2**63) - 1), str(2**70)])
    def test_encoding_outside_int64_rejected(self, tmp_path, component):
        path = tmp_path / "samples.csv"
        path.write_text(f"north,1|2\nsouth,3|{component}\n")
        with pytest.raises(ValidationError, match="malformed observable encoding"):
            read_samples(path, Alphabet(("north", "south")))

    def test_int64_extremes_read_exactly(self, tmp_path):
        lo, hi = -(2**63), 2**63 - 1
        path = tmp_path / "samples.csv"
        path.write_text(f"north,{hi}|{lo}\nsouth,{lo}|{hi}\n")
        back = read_samples(path, Alphabet(("north", "south")))
        assert back.ys.dtype == np.int64
        assert back.ys.tolist() == [[hi, lo], [lo, hi]]


class TestWeightedFormat:
    def make_weighted(self, two_secret_example):
        prior, channel = two_secret_example
        gain = identity_gain(prior.alphabet)
        samples = sample_joint((prior, channel), 300, stream(1, "t/io/w"))
        return data_table(samples, gain), gain

    def test_round_trip(self, tmp_path, two_secret_example):
        table, gain = self.make_weighted(two_secret_example)
        path = tmp_path / "weighted.csv"
        write_weighted(table, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        weighted = table_entries(table)
        assert [gain.guesses.index(row[0]) for row in rows] == weighted.ws.tolist()
        assert [[int(row[1])] for row in rows] == weighted.ys.tolist()
        assert [int(row[2]) for row in rows] == weighted.weights.tolist()
