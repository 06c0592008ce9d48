import hashlib
import math
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specklesim.medium import (
    MatrixKind,
    TransmissionMatrix,
    gaussian_transmission_matrix,
    haar_unitary,
    load_matrix,
    matrix_bytes,
    save_matrix,
)
from specklesim.oracles import transmit
from specklesim.rng import child_seed, rng_for


def test_gaussian_determinism_single_entry():
    a = gaussian_transmission_matrix(1, 1, seed=7)
    b = gaussian_transmission_matrix(1, 1, seed=7)
    assert a.entries.shape == (1, 1)
    assert a.entries.tobytes() == b.entries.tobytes()


def test_gaussian_determinism_large():
    a = gaussian_transmission_matrix(200, 300, seed=11)
    b = gaussian_transmission_matrix(200, 300, seed=11)
    assert a.entries.tobytes() == b.entries.tobytes()
    c = gaussian_transmission_matrix(200, 300, seed=12)
    assert a.entries.tobytes() != c.entries.tobytes()


def test_gaussian_entry_power():
    # law of large numbers over 1e6 entries: mean |entry|^2 = 1/n_in
    m = gaussian_transmission_matrix(1000, 1000, seed=1)
    mean_power = np.mean(np.abs(m.entries) ** 2)
    assert abs(mean_power * 1000 - 1.0) < 0.05


def test_gaussian_row_norm_concentration():
    # rows have expected squared norm 1; chi-square concentration
    m = gaussian_transmission_matrix(4000, 960, seed=3)
    row_norms = np.linalg.norm(m.entries, axis=1)
    assert abs(np.mean(row_norms) - 1.0) < 0.05
    assert np.std(row_norms) / np.mean(row_norms) < 0.10


def test_gaussian_invalid_dims():
    with pytest.raises(ValueError):
        gaussian_transmission_matrix(0, 5, seed=1)
    with pytest.raises(ValueError):
        gaussian_transmission_matrix(5, 0, seed=1)
    with pytest.raises(ValueError):
        gaussian_transmission_matrix(5, 5, seed=-1)
    with pytest.raises(ValueError):
        gaussian_transmission_matrix(2**40, 5, seed=1)


def test_integral_float_dims_build_integer_media():
    for medium in (
        gaussian_transmission_matrix(4, 3.0, 1),
        haar_unitary(3.0, 1),
        gaussian_transmission_matrix(4.0, 3, 1),
    ):
        assert type(medium.n_out) is int and type(medium.n_in) is int
        assert medium.entries.shape == (medium.n_out, medium.n_in)
        assert len(matrix_bytes(medium)) == 48 + 16 * medium.n_out * medium.n_in
    same_draw = gaussian_transmission_matrix(4.0, 3.0, 1).entries
    assert same_draw.tobytes() == gaussian_transmission_matrix(4, 3, 1).entries.tobytes()
    assert haar_unitary(3.0, 1).entries.tobytes() == haar_unitary(3, 1).entries.tobytes()


_SEEDED = {
    "gaussian": lambda seed: gaussian_transmission_matrix(4, 2, seed),
    "haar": lambda seed: haar_unitary(2, seed),
    "rng_for": rng_for,
    "child_seed": child_seed,
}


@pytest.mark.parametrize("seed", [3.7, math.inf, math.nan, -1, 2**64])
@pytest.mark.parametrize("name", sorted(_SEEDED))
def test_seeds_must_be_unsigned_64_bit_integers(name, seed):
    # 3.7 once built seed 3's medium and recorded seed = 3.7
    with pytest.raises(ValueError, match="^seed: expected unsigned 64-bit integer"):
        _SEEDED[name](seed)


@pytest.mark.parametrize("tag", [2.5, -1, math.inf, math.nan])
@pytest.mark.parametrize("derive", [rng_for, child_seed])
def test_stream_paths_must_be_nonnegative_integers(derive, tag):
    # 2.5 once gave tag 2's stream
    with pytest.raises(ValueError, match="^path: expected nonnegative integer"):
        derive(0, 1, tag)


@pytest.mark.parametrize("seed", [3, 3.0, np.uint64(3), np.int64(3)])
def test_a_medium_records_its_seed_as_an_int(seed):
    for medium, reference in ((gaussian_transmission_matrix(4, 2, seed), gaussian_transmission_matrix(4, 2, 3)),
                              (haar_unitary(2, seed), haar_unitary(2, 3))):
        assert type(medium.seed) is int and medium.seed == 3
        assert matrix_bytes(medium) == matrix_bytes(reference)


def test_haar_dimension_one():
    u = haar_unitary(1, seed=123)
    assert abs(abs(u.entries[0, 0]) - 1.0) < 1e-12


def test_haar_unitarity():
    u = haar_unitary(16, seed=5)
    defect = np.max(np.abs(u.entries.conj().T @ u.entries - np.eye(16)))
    assert defect < 1e-10


def test_haar_determinism():
    a = haar_unitary(8, seed=9)
    b = haar_unitary(8, seed=9)
    assert a.entries.tobytes() == b.entries.tobytes()


# sha256 of the entries' bytes.  Determinism tests compare two runs of the
# same code, so only fixed constants catch a change of the random streams
# or of the arithmetic that builds the entries from them.
_PINNED_STREAMS = {
    0: (
        "7327df5978bef8900840a522ea5304e354c44d82f34e1a808342a4bf4a38fee2",
        "7f9b7f40499c0b90061eca16f8f00be8b9407b36e62052285e1803282f74bcaa",
    ),
    3: (
        "bdb32b4044e1da3385efff157da8d623ad47f32a9485889d4328a111da3122a5",
        "a5aa3f4715525dd55033b13777cfd0236e749164c0dd4d3c69360c91c684743b",
    ),
    7: (
        "3d95331f77c7eb913d4f545dc42e59576059cade605ad463cf45247ac5ba1630",
        "db0bc036311e6dce5c111711503a9e97598023ca203de5379d40673362a7d832",
    ),
    2**64 - 1: (
        "dfc8df4dcc0458ae073528cca88fce5d2241823d9628c33edada445731e1d23d",
        "2ae977a12ade27a37cf1295d937dfb8abe6524935e57d5bf4e74fcb0ed3c393a",
    ),
}


@pytest.mark.parametrize("seed", sorted(_PINNED_STREAMS))
def test_streams_are_pinned(seed):
    gaussian_digest, haar_digest = _PINNED_STREAMS[seed]
    gaussian = gaussian_transmission_matrix(17, 5, seed).entries.tobytes()
    assert hashlib.sha256(gaussian).hexdigest() == gaussian_digest
    haar = haar_unitary(6, seed).entries.tobytes()
    assert hashlib.sha256(haar).hexdigest() == haar_digest


def test_haar_entry_moment():
    # uniform-measure first moment: E|U_ij|^2 = 1/n, Monte Carlo over seeds.
    # Diagonal entries avoid the trivially exact row/column sums.
    n = 64
    samples = [np.mean(np.abs(np.diagonal(haar_unitary(n, seed=s).entries)) ** 2) for s in range(150)]
    assert abs(np.mean(samples) * n - 1.0) < 0.05


def test_haar_rejects_zero():
    with pytest.raises(ValueError):
        haar_unitary(0, seed=9)


def test_transmit_identity():
    m = TransmissionMatrix(np.eye(2, dtype=complex), MatrixKind.UNITARY, seed=0)
    out = transmit(m, np.array([1.0, 0.0]))
    assert np.allclose(out, [1.0, 0.0], atol=1e-15)


def test_transmit_ideal_splitter_block():
    t = 1.0 / np.sqrt(2.0)
    block = t * np.array([[1.0, 1.0], [1.0, np.exp(1j * np.pi)]])
    m = TransmissionMatrix(block, MatrixKind.UNITARY, seed=0)
    out = transmit(m, np.array([1.0, 0.0]))
    assert np.allclose(out, [t, t], atol=1e-12)


def test_transmit_dimension_mismatch():
    m = gaussian_transmission_matrix(4, 3, seed=2)
    with pytest.raises(ValueError):
        transmit(m, np.ones(4))


def test_transmit_rejects_nonfinite_input():
    m = gaussian_transmission_matrix(4, 3, seed=2)
    with pytest.raises(ValueError):
        transmit(m, np.array([1.0, np.nan, 0.0]))


def test_transmit_linearity():
    m = gaussian_transmission_matrix(50, 40, seed=21)
    rng = rng_for(77)
    x = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    y = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    a, b = 0.7 - 0.2j, -1.3 + 0.5j
    lhs = transmit(m, a * x + b * y)
    rhs = a * transmit(m, x) + b * transmit(m, y)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_unitary_conserves_intensity():
    u = haar_unitary(32, seed=4)
    rng = rng_for(14)
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    y = transmit(u, x)
    power_in = np.sum(np.abs(x) ** 2)
    power_out = np.sum(np.abs(y) ** 2)
    assert abs(power_out - power_in) / power_in < 1e-9


def test_speckle_intensity_distribution():
    # Fully developed speckle: output intensities are exponential.
    # Across independent media with a fixed unit-power input, output fields
    # are exactly i.i.d. circular Gaussian, so the null holds exactly and
    # the empirical CDF must stay under the 1% KS critical value.
    n = 100
    intensities = []
    for seed in range(100):
        medium = gaussian_transmission_matrix(n, n, seed=50_000 + seed)
        rng = rng_for(60_000 + seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x /= np.linalg.norm(x)
        intensities.append(np.abs(transmit(medium, x)) ** 2)
    samples = np.sort(np.concatenate(intensities))
    mean_intensity = 1.0 / n  # unit-norm input, entry variance 1/n
    cdf = 1.0 - np.exp(-samples / mean_intensity)
    ecdf_high = np.arange(1, samples.size + 1) / samples.size
    ecdf_low = np.arange(0, samples.size) / samples.size
    ks = max(np.max(np.abs(cdf - ecdf_high)), np.max(np.abs(cdf - ecdf_low)))
    critical_1pct = 1.628 / np.sqrt(samples.size)  # asymptotic 1% point
    assert ks < critical_1pct


def test_unitary_validation_rejects_nonunitary():
    with pytest.raises(ValueError):
        TransmissionMatrix(np.ones((2, 2), dtype=complex), MatrixKind.UNITARY, seed=0)
    with pytest.raises(ValueError):
        TransmissionMatrix(np.eye(3)[:2], MatrixKind.UNITARY, seed=0)


def test_kind_strings_become_the_enum_and_get_its_checks():
    medium = TransmissionMatrix(np.eye(2), "unitary", 0)
    assert medium.kind is MatrixKind.UNITARY
    assert TransmissionMatrix(np.ones((2, 3)), "gaussian", 0).kind is MatrixKind.GAUSSIAN
    with pytest.raises(ValueError, match="not unitary"):
        TransmissionMatrix(5 * np.ones((2, 2)), "unitary", 0)
    with pytest.raises(ValueError):
        TransmissionMatrix(np.eye(2), "lossless", 0)


def test_matrix_validation_rejects_nonfinite():
    bad = np.ones((2, 2), dtype=complex)
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        TransmissionMatrix(bad, MatrixKind.GAUSSIAN, seed=0)


def test_container_round_trip_gaussian(tmp_path):
    m = gaussian_transmission_matrix(7, 5, seed=31)
    path = tmp_path / "g.tmat"
    save_matrix(m, path)
    back = load_matrix(path)
    assert back.entries.tobytes() == m.entries.tobytes()
    assert back.kind is MatrixKind.GAUSSIAN
    assert back.seed == 31
    assert (back.n_out, back.n_in) == (7, 5)


def test_container_round_trip_unitary(tmp_path):
    m = haar_unitary(6, seed=8)
    path = tmp_path / "u.tmat"
    save_matrix(m, path)
    back = load_matrix(path)
    assert back.entries.tobytes() == m.entries.tobytes()
    assert back.kind is MatrixKind.UNITARY


def test_container_rejects_corruption(tmp_path):
    m = gaussian_transmission_matrix(3, 3, seed=1)
    path = tmp_path / "c.tmat"
    save_matrix(m, path)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_matrix(path)
    path.write_bytes(bytes(blob)[:40])
    with pytest.raises(ValueError):
        load_matrix(path)


def test_regeneration_matches_container(tmp_path):
    m = gaussian_transmission_matrix(20, 10, seed=99)
    path = tmp_path / "m.tmat"
    save_matrix(m, path)
    back = load_matrix(path)
    regenerated = gaussian_transmission_matrix(back.n_out, back.n_in, back.seed)
    assert regenerated.entries.tobytes() == back.entries.tobytes()


def _patched(blob: bytes, fmt: str, offset: int, *values) -> bytes:
    out = bytearray(blob)
    struct.pack_into(fmt, out, offset, *values)
    return bytes(out)


_U32 = st.integers(0, 2**32 - 1)
_U64 = st.integers(0, 2**64 - 1)
_DEFECTS = ("truncated", "magic", "version", "kind", "dims", "zero_dims", "non_finite", "unitary_tag")


@st.composite
def corrupted_containers(draw):
    """Container bytes of a small medium with one defect that loading must reject."""
    defect = draw(st.sampled_from(_DEFECTS))
    if defect == "unitary_tag":  # a non-square and a square non-unitary payload
        medium = draw(st.sampled_from([gaussian_transmission_matrix(3, 2, 1), gaussian_transmission_matrix(3, 3, 1)]))
        return _patched(matrix_bytes(medium), "<I", 32, 1)
    medium = draw(st.sampled_from([gaussian_transmission_matrix(3, 2, 1), haar_unitary(3, 2)]))
    blob = matrix_bytes(medium)
    size = medium.n_out * medium.n_in
    if defect == "truncated":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if defect == "magic":
        return draw(st.binary(min_size=8, max_size=8).filter(lambda magic: magic != b"SPKLTMAT")) + blob[8:]
    if defect == "version":
        return _patched(blob, "<I", 8, draw(_U32.filter(lambda version: version != 1)))
    if defect == "kind":
        return _patched(blob, "<I", 32, draw(st.integers(2, 2**32 - 1)))
    if defect == "dims":
        return _patched(blob, "<QQ", 16, *draw(st.tuples(_U64, _U64).filter(lambda d: d[0] * d[1] != size)))
    if defect == "zero_dims":  # the payload is emptied to agree with the dims
        other = draw(_U64)
        return _patched(blob[:48], "<QQ", 16, *draw(st.sampled_from([(0, other), (other, 0)])))
    index = draw(st.integers(0, 2 * size - 1))
    return _patched(blob, "<d", 48 + 8 * index, draw(st.sampled_from([math.nan, math.inf, -math.inf])))


@settings(derandomize=True, deadline=None, max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corrupted_containers())
def test_container_rejects_every_corruption(tmp_path, blob):
    path = tmp_path / "fuzzed.tmat"
    path.write_bytes(blob)
    with pytest.raises(ValueError):
        load_matrix(path)


def _whole_draw(n_out, n_in, seed):
    """Every Gaussian medium's bytes: one ``standard_normal`` call for the whole matrix."""
    z = rng_for(seed, 0).standard_normal((n_out, 2 * n_in))
    z *= math.sqrt(0.5 / n_in)
    return z.view(np.complex128)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.data(),
    st.integers(1, 9),
    st.integers(1, 6),
    st.sampled_from([0, 3, 7, 2**64 - 1]) | st.integers(0, 2**64 - 1),
)
def test_rows_are_a_prefix_of_the_whole_draw(data, n_out, n_in, seed):
    whole = _whole_draw(n_out, n_in, seed)
    medium = gaussian_transmission_matrix(n_out, n_in, seed)
    row = st.integers(0, n_out - 1)
    reads = data.draw(st.lists(row | st.lists(row, min_size=1, max_size=4), max_size=6))
    for idx in reads:
        assert medium.rows(idx).tobytes() == whole[idx].tobytes()
    assert medium.entries.tobytes() == whole.tobytes()


def test_two_rows_of_a_reference_medium_draw_two_rows():
    medium = gaussian_transmission_matrix(4000, 1920, seed=0)
    assert (medium.n_out, medium.n_in) == (4000, 1920)
    assert medium._entries.shape[0] == 0
    picked = medium.rows([0, 1])
    assert medium._entries.shape[0] == 2
    assert medium._entries.shape == (2, 1920)  # no buffer for the 3998 unread rows
    assert picked.tobytes() == _whole_draw(2, 1920, 0).tobytes()


def test_rows_read_one_by_one_hold_at_most_twice_the_rows_drawn():
    whole = _whole_draw(37, 4, 9)
    medium = gaussian_transmission_matrix(37, 4, seed=9)
    for row in range(37):
        assert medium.rows(row).tobytes() == whole[row].tobytes()
        held = medium._entries.shape[0]
        assert row + 1 <= held <= min(37, 2 * (row + 1))
        assert held == row + 1
    assert medium.entries.shape == (37, 4)


@pytest.mark.parametrize("idx", [-1, 5, [], [0, 5], [-1, 0], 1.0])
def test_rows_rejects_negative_out_of_range_and_empty(idx):
    medium = gaussian_transmission_matrix(5, 3, seed=1)
    with pytest.raises(ValueError):
        medium.rows(idx)
    assert medium._entries.shape[0] == 0


def test_threads_reading_different_rows_of_one_medium_get_the_whole_draw():
    whole = _whole_draw(300, 400, 5)
    picks = (150, 299, 40, [7, 220])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            medium = gaussian_transmission_matrix(300, 400, seed=5)
            start = threading.Barrier(len(picks))
            got = {}

            def read(i):
                start.wait(timeout=10)
                got[i] = medium.rows(picks[i])

            threads = [threading.Thread(target=read, args=(i,)) for i in range(len(picks))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            for i, idx in enumerate(picks):
                assert got[i].tobytes() == whole[idx].tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_array_built_media_hold_every_row():
    u = haar_unitary(6, seed=3)
    assert u._entries.shape[0] == 6
    assert u.rows([4, 1]).tobytes() == u.entries[[4, 1]].tobytes()
    with pytest.raises(AttributeError):
        u.kind = MatrixKind.GAUSSIAN


def _media_to_write_through(tmp_path):
    gaussian = gaussian_transmission_matrix(5, 4, seed=21)
    gaussian.rows(1)  # rows held, the rest drawn by entries
    save_matrix(haar_unitary(4, seed=22), tmp_path / "u.tmat")
    return {
        "gaussian": gaussian,
        "haar": haar_unitary(4, seed=22),
        "array": TransmissionMatrix(np.ones((3, 2)), MatrixKind.GAUSSIAN, seed=0),
        "loaded": load_matrix(tmp_path / "u.tmat"),
    }


@pytest.mark.parametrize("name", ["gaussian", "haar", "array", "loaded"])
def test_writes_through_entries_or_rows_cannot_change_a_medium(tmp_path, name):
    medium = _media_to_write_through(tmp_path)[name]
    before = medium.entries.tobytes()
    with pytest.raises(ValueError):
        medium.entries[0, 0] = 99.0
    with pytest.raises(ValueError):
        medium.rows(0)[0] = 99.0
    medium.rows([0, 1])[0, 0] = 99.0  # a fancy-indexed read is the caller's own copy
    assert medium.entries.tobytes() == before
    assert medium.rows(0).tobytes() == np.frombuffer(before, dtype=np.complex128)[: medium.n_in].tobytes()


@pytest.mark.parametrize("kind", [MatrixKind.GAUSSIAN, MatrixKind.UNITARY])
def test_writes_to_the_array_a_medium_was_built_from_cannot_change_it(kind):
    source = gaussian_transmission_matrix(4, 4, seed=23) if kind is MatrixKind.GAUSSIAN else haar_unitary(4, seed=23)
    built_from = source.entries.copy()
    medium = TransmissionMatrix(built_from, kind, seed=23)
    built_from[0, 0] = 99.0
    built_from[3] = np.nan
    assert medium.entries.tobytes() == source.entries.tobytes()
    assert medium.rows(0).tobytes() == source.rows(0).tobytes()
