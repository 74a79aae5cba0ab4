import dataclasses
import re
import warnings

import numpy as np
import pytest

import beamkit.channel
from beamkit import (
    Channel,
    TrainingConfig,
    build_codebook,
    draw_channel,
    exhaustive_best_pair,
    hierarchical_search,
    measure,
    success_rate,
    training_test_count,
)


def test_channel_matrix_closed_form():
    # single pinned path: H = gain * a_r a_t^H * sqrt(Nt*Nr/L) in unit-norm
    # steering terms, i.e. plain exponential outer product / sqrt(L)
    gain = 0.7 - 0.2j
    ch = Channel(4, 3, [gain], [0.25], [-0.5])
    ar = np.exp(1j * np.pi * np.arange(3) * -0.5)
    at = np.exp(1j * np.pi * np.arange(4) * 0.25)
    np.testing.assert_allclose(ch.matrix, gain * np.outer(ar, at.conj()), atol=1e-12)
    assert ch.n_t == 4 and ch.n_r == 3 and ch.gains.size == 1


def test_channel_is_immutable():
    # a written field would leave matrix stale, so writes raise
    gains = np.array([1.0 + 0j])
    ch = Channel(4, 2, gains, [0.2], [0.1])
    gains[0] = 2.0  # the channel holds copies of what it was given
    assert ch.gains[0] == 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        ch.aod = [0.7]
    drawn = draw_channel(4, 2, 2, seed=0)  # built by the unchecked form
    for array in (ch.matrix, ch.gains, ch.aod, ch.aoa,
                  drawn.matrix, drawn.gains, drawn.aod, drawn.aoa):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_channel_multipath_superposition():
    ch2 = Channel(4, 3, [1.0, 1.0], [0.1, -0.3], [0.2, 0.6])
    a = Channel(4, 3, [1.0], [0.1], [0.2])
    b = Channel(4, 3, [1.0], [-0.3], [0.6])
    np.testing.assert_allclose(
        ch2.matrix, (a.matrix + b.matrix) / np.sqrt(2.0), atol=1e-12
    )


def test_draw_channel_validates():
    # draw_channel checks l, and a Channel the length of its path arrays
    with pytest.raises(ValueError, match="l must be >= 1 and an integer, got 0"):
        draw_channel(4, 4, 0)
    with pytest.raises(ValueError,
                       match="path count must be >= 1 and an integer, got 0"):
        Channel(4, 4, [], [], [])


@pytest.mark.parametrize("n_t, n_r, message", [
    (4.5, 4, "n_t must be >= 1 and an integer, got 4.5"),
    (0, 4, "n_t must be >= 1 and an integer, got 0"),
    (4, -3, "n_r must be >= 1 and an integer, got -3"),
    (4, True, "n_r must be >= 1 and an integer, got True"),
])
def test_channel_rejects_a_bad_antenna_count(n_t, n_r, message):
    # np.arange takes any such count: 4.5 gave a (4, 5) matrix, 0 a (4, 0) one
    with pytest.raises(ValueError, match=message):
        Channel(n_t, n_r, [1.0], [0.1], [0.2])
    with pytest.raises(ValueError, match=message):
        draw_channel(n_t, n_r, 1, seed=0)


def test_channel_counts_may_be_numpy_ints_and_path_count_must_be_integral():
    ch = draw_channel(np.int64(8), np.int32(4), np.uint8(2), seed=3)
    want = draw_channel(8, 4, 2, seed=3)
    assert type(ch.n_t) is int and type(ch.n_r) is int
    assert ch.matrix.tobytes() == want.matrix.tobytes()
    # numpy's own error named neither l nor its value: got '3.0'
    with pytest.raises(ValueError, match="l must be >= 1 and an integer, got 1.5"):
        draw_channel(4, 4, 1.5)


def test_draw_channel_accepts_a_seed_sequence_or_a_generator():
    ss = np.random.SeedSequence(5)
    want = draw_channel(8, 4, 2, seed=np.random.default_rng(ss))
    for seed in (ss, np.random.default_rng(ss)):
        got = draw_channel(8, 4, 2, seed=seed)
        assert got.matrix.tobytes() == want.matrix.tobytes()
    # a generator is used as it is, not copied: the draw advances it
    rng = np.random.default_rng(5)
    first, second = draw_channel(8, 4, 2, rng), draw_channel(8, 4, 2, rng)
    assert first.matrix.tobytes() != second.matrix.tobytes()


@pytest.mark.parametrize("name", ["gains", "aod", "aoa"])
def test_draw_channel_rejects_pinned_length_mismatch(name):
    # a known channel is built with Channel, which checks the path lengths
    pins = {"gains": [1.0, 1.0], "aod": [0.1, -0.3], "aoa": [0.2, 0.6]}
    pins[name] = pins[name][:1]
    with pytest.raises(ValueError, match=f"{name} must have length 2"):
        Channel(8, 8, **pins)


def test_measure_noiseless():
    ch = Channel(4, 4, [1.0], [0.0], [0.0])
    v = np.ones(4, dtype=complex) / 2
    w = np.ones(4, dtype=complex) / 2
    rng = np.random.default_rng(0)
    power = measure(v, w, ch, np.inf, rng)
    expect = abs(w.conj() @ ch.matrix @ v) ** 2
    assert power == pytest.approx(expect, rel=1e-12)


def test_measure_matches_manual_model():
    # oracle: y = sqrt(P) w^H H v + w^H eta with the same generator draw
    ch = draw_channel(4, 4, 1, seed=0)
    v = np.ones(4, dtype=complex) / 2
    w = np.ones(4, dtype=complex) / 2
    snr_db = 10.0
    rng = np.random.default_rng(1)
    eta = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / np.sqrt(2)
    expect = abs(np.sqrt(10.0) * (w.conj() @ ch.matrix @ v) + w.conj() @ eta) ** 2
    got = measure(v, w, ch, snr_db, np.random.default_rng(1))
    assert got == pytest.approx(expect, rel=1e-12)
    # -inf SNR removes the signal entirely
    noise_only = measure(v, w, ch, -np.inf, np.random.default_rng(1))
    assert noise_only == pytest.approx(abs(w.conj() @ eta) ** 2, rel=1e-12)


def _midpoint(entry):
    lo, hi = entry.coverage
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def small_codebooks():
    tx = build_codebook(16, m=2, k=64, r_max=600, seed=0)
    rx = build_codebook(8, m=2, k=64, r_max=600, seed=1)
    return tx, rx


def test_search_measurement_count(small_codebooks):
    tx, rx = small_codebooks
    ch = draw_channel(16, 8, 1, seed=3)
    _, _, count = hierarchical_search(tx, rx, ch, np.inf,
                                      np.random.default_rng(0))
    assert count == training_test_count(16, 8, 2) == 14


def test_noiseless_search_finds_on_grid_path(small_codebooks):
    tx, rx = small_codebooks
    # pin the single path to bottom-sector midpoints on both sides
    ch = Channel(16, 8, [1.0], [_midpoint(tx.bottom[5])],
                 [_midpoint(rx.bottom[2])])
    ti, ri, _ = hierarchical_search(tx, rx, ch, np.inf,
                                    np.random.default_rng(0))
    assert (ti, ri) == (5, 2)
    assert exhaustive_best_pair(tx, rx, ch) == (5, 2)


def test_transmit_only_layers_find_on_grid_path():
    # N_t = 32, N_r = 8: layers 4 and 5 descend the transmit side alone
    tx = build_codebook(32, m=2, k=64, r_max=600, seed=0)
    rx = build_codebook(8, m=2, k=64, r_max=600, seed=1)
    for ti, ri in ((0, 0), (13, 6), (31, 3)):
        ch = Channel(32, 8, [1.0], [_midpoint(tx.bottom[ti])],
                     [_midpoint(rx.bottom[ri])])
        found = hierarchical_search(tx, rx, ch, np.inf, np.random.default_rng(0))
        assert found == (ti, ri, training_test_count(32, 8, 2)) == (ti, ri, 16)


def test_search_ties_keep_first_pair(small_codebooks):
    # a zero-gain channel measures 0 everywhere: every layer is a full tie
    tx, rx = small_codebooks
    ch = Channel(16, 8, [0.0], [0.3], [-0.2])
    assert hierarchical_search(tx, rx, ch, np.inf,
                               np.random.default_rng(0)) == (0, 0, 14)


def test_receive_larger_than_transmit_raises(small_codebooks):
    # the descent stops at the transmit bottom layer, so N_r > N_t would
    # compare a receive beam from an upper layer with the bottom optimum
    tx, rx = small_codebooks
    ch = draw_channel(8, 16, 1, seed=0)
    with pytest.raises(ValueError, match="N_r <= N_t"):
        hierarchical_search(rx, tx, ch, np.inf, np.random.default_rng(0))
    with pytest.raises(ValueError):
        training_test_count(8, 16, 2)


def test_exhaustive_best_pair_is_argmax(small_codebooks):
    tx, rx = small_codebooks
    ch = draw_channel(16, 8, 1, seed=11)
    ti, ri = exhaustive_best_pair(tx, rx, ch)
    best = -1.0
    arg = None
    for i, et in enumerate(tx.bottom):
        for j, er in enumerate(rx.bottom):
            score = abs(er.ideal.conj() @ ch.matrix @ et.ideal)
            if score > best:
                best, arg = score, (i, j)
    assert (ti, ri) == arg


def test_dimension_mismatch_raises(small_codebooks):
    tx, rx = small_codebooks
    ch = draw_channel(8, 8, 1, seed=0)
    with pytest.raises(ValueError):
        hierarchical_search(tx, rx, ch, 0.0, np.random.default_rng(0))


def test_success_rate_deterministic(small_codebooks):
    tx, rx = small_codebooks
    cfg = TrainingConfig(tx_codebook=tx, rx_codebook=rx, snr_db=0.0,
                         trials=40, seed=9)
    out1 = success_rate(cfg)
    out2 = success_rate(cfg)
    assert out1["rate"] == out2["rate"]
    assert out1["records"] == out2["records"]
    assert 0.0 <= out1["rate"] <= 1.0
    assert out1["successes"] == sum(r["success"] for r in out1["records"])
    assert all(r["measurements"] == 14 for r in out1["records"])


def test_success_rate_snr_extremes(small_codebooks):
    tx, rx = small_codebooks
    hi = success_rate(TrainingConfig(tx_codebook=tx, rx_codebook=rx,
                                     snr_db=np.inf, trials=60, seed=4))
    lo = success_rate(TrainingConfig(tx_codebook=tx, rx_codebook=rx,
                                     snr_db=-np.inf, trials=60, seed=4))
    assert hi["rate"] > lo["rate"]
    assert lo["rate"] < 0.3  # pure-noise selection is near-random


def test_training_config_validation(small_codebooks):
    tx, rx = small_codebooks
    with pytest.raises(ValueError):
        TrainingConfig(tx_codebook=tx, rx_codebook=rx, snr_db=0.0, trials=0)
    with pytest.raises(ValueError, match="NaN"):
        TrainingConfig(tx_codebook=tx, rx_codebook=rx, snr_db=np.nan, trials=5)
    for snr_db in ("3", None, True, 1j):  # "3" used to raise TypeError
        with pytest.raises(ValueError, match=f"snr_db must be a real number in dB, "
                                             f"or \\+/-inf, got {snr_db!r}"):
            TrainingConfig(tx_codebook=tx, rx_codebook=rx, snr_db=snr_db, trials=5)
    for snr_db in (3, np.float32(-2.5), np.int64(0), -np.inf, 3082):
        assert TrainingConfig(tx_codebook=tx, rx_codebook=rx, snr_db=snr_db,
                              trials=5).snr_db == snr_db
    # an int past the float range raised OverflowError, as did a power
    # 10^(snr_db / 10) past it
    for snr_db in (10**400, -10**400, 3083, 1e308):
        with pytest.raises(ValueError, match="snr_db must be a float-range number of dB "
                                             "up to about 3082"):
            TrainingConfig(tx_codebook=tx, rx_codebook=rx, snr_db=snr_db, trials=5)
    with pytest.raises(ValueError,
                       match="paths must be >= 1 and an integer, got -1"):
        TrainingConfig(tx_codebook=tx, rx_codebook=rx, snr_db=0.0, trials=5,
                       paths=-1)
    # a str flag used to be accepted, and select the practical codewords
    for flag in ("yes", 1, None):
        with pytest.raises(ValueError, match=f"^use_practical must be a bool, got {flag!r}$"):
            TrainingConfig(tx_codebook=tx, rx_codebook=rx, snr_db=0.0, trials=5,
                           use_practical=flag)
    for flag in (True, False, np.bool_(True)):
        assert TrainingConfig(tx_codebook=tx, rx_codebook=rx, snr_db=0.0, trials=5,
                              use_practical=flag).use_practical is flag
    # a trial index must fit one 32-bit spawn-key word
    assert TrainingConfig(tx_codebook=tx, rx_codebook=rx, snr_db=0.0,
                          trials=2**32).trials == 2**32
    with pytest.raises(ValueError, match=r"^trials must be in \[1, 4294967296\] and an "
                                         r"integer, got 4294967297$"):
        TrainingConfig(tx_codebook=tx, rx_codebook=rx, snr_db=0.0, trials=2**32 + 1)


def test_trial_seed_words_serve_only_their_own_request():
    words = beamkit.channel._trial_words(beamkit.channel._seed_pool(3),
                                         np.arange(2, dtype=np.uint32))
    row = words[1, 0]
    seeded = beamkit.channel._Words(row)
    assert seeded.generate_state(4, np.uint64) is row
    for n_words, dtype in ((8, np.uint64), (4, np.uint32), (1, np.uint32)):
        with pytest.raises(ValueError, match="holds 4 uint64 words"):
            seeded.generate_state(n_words, dtype)


def test_nan_snr_raises_when_called_directly():
    # measure and the descent reject NaN themselves, not only TrainingConfig;
    # a NaN power never wins a comparison, so the descent returned (0, 0)
    tx = build_codebook(8, k=64, r_max=100, seed=0)
    rx = build_codebook(4, k=64, r_max=100, seed=1)
    ch = draw_channel(8, 4, 1, seed=1)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="NaN"):
        measure(tx.bottom[0].ideal, rx.bottom[0].ideal, ch, np.nan, rng)
    with pytest.raises(ValueError, match="NaN"):
        hierarchical_search(tx, rx, ch, np.nan, rng)


@pytest.mark.parametrize("snr_db, message", [(np.nan, "NaN"), (4000.0, "overflows"),
                                             (10**400, "overflows")],
                         ids=["nan", "4000dB", "int10e400"])
def test_descent_rejects_its_snr_before_drawing_noise(snr_db, message):
    # it drew the whole descent's noise first and raised at its first measure
    tx = build_codebook(8, k=64, r_max=100, seed=0)
    rx = build_codebook(4, k=64, r_max=100, seed=1)
    ch = draw_channel(8, 4, 1, seed=1)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        hierarchical_search(tx, rx, ch, snr_db, rng)
    assert rng.bit_generator.state == before


def test_measure_rejects_a_received_power_past_the_float_range():
    # P = 10^308.2 is finite, but |y|^2 of a strong beam pair is not: such a
    # power read inf and tied the descent's comparisons; now it raises
    tx = build_codebook(8, k=64, r_max=100, seed=0)
    rx = build_codebook(4, k=64, r_max=100, seed=1)
    ch = draw_channel(8, 4, 2, seed=0)
    pairs = [(a.ideal, b.ideal) for a in tx.bottom for b in rx.bottom]
    failed = 0
    with np.errstate(over="ignore"):
        for v, w in pairs:
            assert np.isfinite(measure(v, w, ch, 3060, np.random.default_rng(0)))
            try:
                assert np.isfinite(measure(v, w, ch, 3082, np.random.default_rng(0)))
            except ValueError as exc:
                assert "received power is inf at snr_db = 3082" in str(exc)
                failed += 1
        assert failed == 1
        config = TrainingConfig(tx_codebook=tx, rx_codebook=rx, snr_db=3082, trials=20,
                                seed=0, paths=2)
        with pytest.raises(ValueError, match="snr_db = 3082"):
            success_rate(config)


@pytest.mark.parametrize("beam, i, bad", [("w", 2, np.nan), ("v", 0, np.inf),
                                          ("v", 3, complex(0.0, -np.inf))])
def test_measure_names_a_non_finite_beam(beam, i, bad):
    # the non-finite power it gives used to be blamed on snr_db
    ch = draw_channel(4, 4, 1, seed=0)
    beams = {"v": np.full(4, 0.5, dtype=complex), "w": np.full(4, 0.5, dtype=complex)}
    beams[beam][i] = bad
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match=rf"^{beam} entry {i} is not finite: "):
        measure(beams["v"], beams["w"], ch, 10.0, np.random.default_rng(0))


@pytest.mark.parametrize("gains, aod", [([np.nan], 0.1), ([1.0, complex(np.inf, 0.0)], 0.1),
                                       ([1.0], np.inf)])
def test_measure_names_a_non_finite_channel(gains, aod):
    # a non-finite channel is named where it arises: Channel names a NaN or
    # infinite gain or angle, which it used to build into a NaN matrix, and
    # measure names a matrix that overflows from finite paths, which it used
    # to blame on snr_db
    k = len(gains)
    field, i = ("aod", 0) if np.isinf(aod) else ("gains", k - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{field} entry {i} is not finite: "):
            Channel(4, 4, gains, [aod] * k, [0.2] * k)
    # Channel names an overflowing matrix too, so this one is built through
    # draw_channel's unchecked form
    with np.errstate(over="ignore", invalid="ignore"):
        ch = beamkit.channel._channel(4, 4, np.full(2, 1e308 + 0j),
                                      np.array([[0.2] * 2, [0.1] * 2]))
    beam = np.full(4, 0.5, dtype=complex)
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match=r"^channel matrix entry 0 is not finite: "):
        measure(beam, beam, ch, 10.0, np.random.default_rng(0))


def test_channel_names_a_matrix_that_overflows_from_finite_paths():
    # it returned inf entries with numpy's "overflow encountered in matmul"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^channel matrix entry 0 is not finite: "):
            Channel(4, 4, [1e308] * 2, [0.1] * 2, [0.2] * 2)
        with pytest.raises(ValueError, match=r"^channel matrix entry 1 is not finite: "):
            Channel(4, 4, [1.0], [1e308], [0.2])  # a phase past the float range


def test_channel_names_a_non_finite_arrival_and_keeps_directions_past_the_unit_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^aoa entry 1 is not finite: -inf$"):
            Channel(4, 4, [1.0, 1.0], [0.1, 0.2], [0.3, -np.inf])
        ch = Channel(4, 4, [1.0], [5.0], [-3.0])  # which ranges hold is open
    assert np.all(np.isfinite(ch.matrix))


@pytest.mark.parametrize("beam, shape", [("w", (7,)), ("w", (8, 1)), ("w", ()),
                                         ("v", (4,)), ("v", (6, 1))])
def test_measure_names_a_beam_that_does_not_fit_the_channel(beam, shape):
    # numpy's "shapes (7,) and (8,6) not aligned" named neither the beam nor
    # the channel's size
    ch = draw_channel(6, 8, 2, seed=0)
    beams = {"v": np.full(6, 0.5, dtype=complex), "w": np.full(8, 0.5, dtype=complex)}
    beams[beam] = np.full(shape, 0.5, dtype=complex)
    rule = {"w": "n_r = 8", "v": "n_t = 6"}[beam]
    with pytest.raises(ValueError, match=rf"^{beam} must be a 1-D beam of {rule} entries, "
                                         rf"got shape {re.escape(str(shape))}$"):
        measure(beams["v"], beams["w"], ch, 10.0, np.random.default_rng(0))


def test_mismatched_hierarchical_factors_raise():
    tx = build_codebook(4, m=2, k=32, r_max=50, seed=0)
    rx = build_codebook(3, m=3, k=32, r_max=50, seed=0)
    ch = draw_channel(4, 3, 1, seed=0)
    with pytest.raises(ValueError, match="hierarchical factor"):
        hierarchical_search(tx, rx, ch, np.inf, np.random.default_rng(0))
    with pytest.raises(ValueError, match="hierarchical factor"):
        exhaustive_best_pair(tx, rx, ch)
