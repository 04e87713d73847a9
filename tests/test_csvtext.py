"""``earc._csvtext`` against Python's ``%``: the CSV text of a table equals,
byte for byte, the ``%``-block oracle and the value-by-value row loop, in
every notation ``%.17g`` switches between, on exact and near rounding ties,
at the magnitudes that Python formats, whatever the chunk size and however
many rows each CSV worker gets.  Every warning is an error here: the
formatter's products must not overflow and its word arithmetic must not
leave uint64."""

import io
import math

import numpy as np
import pytest

from earc import _csvtext, cli

from oracles import rows_bytes_by_percent, write_rows_by_value

pytestmark = pytest.mark.filterwarnings("error")


def _table(values, columns=5, first=0, index=None):
    """``values`` as rows of ``columns`` (zero-padded), beside an index."""
    values = np.asarray(values, dtype=np.float64).ravel()
    values = np.concatenate([values, np.zeros(-values.size % columns)]).reshape(-1, columns)
    if index is None:
        index = np.arange(first, first + values.shape[0])
    return np.column_stack([index, values])


def _assert_python_text(table):
    text = _csvtext.rows_text(table)
    assert text == rows_bytes_by_percent(table)
    by_value = io.StringIO()
    write_rows_by_value(by_value, table[:, 0], table[:, 1:])
    assert text.decode("ascii") == by_value.getvalue()


def _neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])


def test_random_bit_patterns():
    """Every double is as likely as any other: all exponents, subnormals,
    infinities and NaNs, both signs."""
    bits = np.random.default_rng(0).integers(0, np.iinfo(np.uint64).max, 40000,
                                             dtype=np.uint64, endpoint=True)
    _assert_python_text(_table(bits.view(np.float64)))


def test_random_exponents():
    rng = np.random.default_rng(1)
    mantissa = rng.uniform(0.5, 1.0, 40000) * rng.choice([-1.0, 1.0], 40000)
    _assert_python_text(_table(np.ldexp(mantissa, rng.integers(-1074, 1025, 40000))))


def test_normals_at_scales():
    rng = np.random.default_rng(2)
    normals = rng.standard_normal((61, 500)) * 10.0 ** np.arange(-30, 31)[:, None]
    _assert_python_text(_table(normals))


def test_powers_of_ten_and_their_neighbours():
    powers = 10.0 ** np.arange(-300, 301)
    _assert_python_text(_table(np.concatenate([_neighbours(powers), -_neighbours(powers)])))


def test_exact_ties_go_to_even():
    """A double M / 2**(17 - k) with M odd and k = floor(log10) has 18
    significant digits, the last a 5: an exact tie at 17 digits, which
    ``%`` rounds to even.  (No tie exists from 10**17 on: its odd part would
    be at least 5 * 10**16, more than 53 bits.)"""
    rng = np.random.default_rng(3)
    ties = []
    for k in range(-6, 16):
        low, high = 10.0 ** k, 10.0 ** (k + 1)
        scale = 2.0 ** (17 - k)
        odd = rng.integers(math.ceil(low * scale) // 2, int(high * scale) // 2, 400) * 2 + 1
        tie = odd / scale
        ties.append(tie[(tie >= low) & (tie < high)])
    ties = np.concatenate(ties)
    digits = np.array([len(format(t, ".25e").split("e")[0].replace(".", "").rstrip("0"))
                       for t in ties[:200]])
    assert (digits == 18).all()  # each is a tie at 17 digits
    _assert_python_text(_table(np.concatenate([ties, -ties])))


def test_dyadic_fractions_and_integers():
    rng = np.random.default_rng(4)
    dyadic = rng.integers(-2 ** 40, 2 ** 40, 20000) / 2.0 ** rng.integers(0, 70, 20000)
    integers = rng.integers(-10 ** 17, 10 ** 17, 20000).astype(np.float64)
    large = rng.integers(1, 2 ** 53, 20000) * 2.0 ** rng.integers(4, 80, 20000)
    # integers past 10**17 whose 18th significant digit is 5: a near tie
    fifth = large[[format(v, ".25e")[18] == "5" for v in large]]
    assert fifth.size > 100
    _assert_python_text(_table(np.concatenate([dyadic, integers, large, fifth])))


def test_trailing_zeros():
    rng = np.random.default_rng(5)
    rounded = [round(v, int(d)) for v, d in zip(rng.uniform(-1e4, 1e4, 20000),
                                                  rng.integers(0, 14, 20000))]
    short = [float(f"{m}e{e}") for m in (1, 5, 25, 125, 999, 123456789, 1234567890123456)
             for e in range(-30, 30)]
    _assert_python_text(_table(rounded + short + [-v for v in short]))


def test_notation_switch_points():
    """``%.17g`` is fixed from 1e-4 up to 1e17 and scientific outside; the
    exponent gets a third digit from 1e100 and below 1e-99."""
    points = [1e-5, 1e-4, 1e16, 1e17, 1e99, 1e100, 1e-99, 1e-100,
              9.9999999999999991e-05, 9.9999999999999998e-17, 99999999999999984.0,
              12345678901234565.0, 2.0 ** 60]
    _assert_python_text(_table(np.concatenate([_neighbours(points), -_neighbours(points)])))


def test_extreme_and_special_values():
    """Non-finite values, zeros, subnormals, the largest doubles and the
    magnitudes where the power-of-ten table changes its binary scale, at the
    start and end of rows and of the table."""
    edges = [1e-284, 1e-285, 1e-286, 1e276, 1e277, 1e278]
    special = [np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
               2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308,
               *_neighbours(edges), *(-_neighbours(edges)), 0.5, -2.5, 1.0]
    for columns in (1, 3, 5):
        _assert_python_text(_table(special, columns))
        _assert_python_text(_table(special[::-1], columns))


def test_subnormals():
    bits = np.random.default_rng(7).integers(1, 2 ** 52, 20000, dtype=np.uint64)
    subnormals = bits.view(np.float64)
    _assert_python_text(_table(np.concatenate([subnormals, -subnormals])))


def test_index_column():
    """The index is ``%d`` of a float: negative, zero, past 10**16 and
    10**17, and truncated when it has a fraction."""
    index = np.array([-10 ** 17, -10 ** 16 - 2, -12345, -1, -0.9, -0.0, 0, 0.9, 1, 9, 10, 99,
                      100, 12345678, 10 ** 16 - 1, 10 ** 16, 10 ** 17 - 16, 10 ** 17,
                      2 ** 62, 2 ** 63, 1e300], dtype=np.float64)
    values = np.linspace(-1, 1, index.size * 3)
    _assert_python_text(_table(values, 3, index=index))
    alone = index[:, None]
    assert _csvtext.rows_text(alone) == rows_bytes_by_percent(alone)


def test_empty_tables():
    assert _csvtext.rows_text(np.empty((0, 4))) == b""
    assert cli._rows_bytes(np.empty((0, 4))) == b""


SPECIAL_TABLE = _table(np.concatenate([
    [np.nan, -0.0, 5e-324, 1e16, 1e17, 1e-5, np.inf, 2.0 ** -17 + 1],
    np.random.default_rng(6).standard_normal(3000) * 10.0 ** np.arange(-30, 30).repeat(50)]),
    7, first=-40)


@pytest.mark.parametrize("chunk", [1, 7, cli.CSV_CHUNK_ENTRIES])
def test_chunk_size_does_not_change_the_text(chunk, monkeypatch):
    monkeypatch.setattr(cli, "CSV_CHUNK_ENTRIES", chunk)
    assert cli._rows_bytes(SPECIAL_TABLE) == rows_bytes_by_percent(SPECIAL_TABLE)


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("chunk", [7, cli.CSV_CHUNK_ENTRIES])
def test_rows_per_worker_do_not_change_the_text(cores, chunk, monkeypatch):
    """The forked writer at one to three processes, each with its own row
    slice, writes the oracle's text."""
    monkeypatch.setattr(cli, "CSV_CHUNK_ENTRIES", chunk)
    monkeypatch.setattr(cli, "PARALLEL_ENTRIES", 1)
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
    fh = io.StringIO()
    cli._write_rows(fh, SPECIAL_TABLE[:, 0], SPECIAL_TABLE[:, 1:])
    assert fh.getvalue().encode("ascii") == rows_bytes_by_percent(SPECIAL_TABLE)


def test_digit_words():
    """8-digit values in steps of a prime, which vary every digit, and the
    last 20,000 below 10**8."""
    v = np.concatenate([np.arange(0, 10 ** 8, 9973, dtype=np.uint64),
                        np.arange(10 ** 8 - 20000, 10 ** 8, dtype=np.uint64)])
    words = _csvtext._digit_bytes(v)
    text = (words + np.uint64(0x3030303030303030)).view("S8").astype(str)
    assert text.tolist() == [f"{int(n):08d}" for n in v]
