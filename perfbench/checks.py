"""Output checks.  Each compares what the program produced with an
independent computation or a property the output must have, and raises
``CheckFailed`` when it does not hold.  ``test_checks.py`` feeds every one a
corrupted output to show it can fail.
"""

from __future__ import annotations

import numpy as np

DFT_RTOL = 1e-9
# SlidingClassifier and forward_batch run the same float64 arithmetic on
# differently shaped matmuls, so they may differ in the last bits only.
PROB_ATOL = 1e-9
# Central differences on float64 losses, judged as the repo's criterion-5
# oracle judges them: relative error with a 1e-6 floor.
GRAD_RTOL = 1e-4
GRAD_FLOOR = 1e-6
ZERO_COUNTERS = ("crc_errors", "other_errors", "skipped_bursts", "order_regressions")


class CheckFailed(Exception):
    pass


def _dft_matrix(n: int) -> np.ndarray:
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


def dft_range_doppler(samples: np.ndarray) -> np.ndarray:
    """|range-Doppler| of (chirp, sample, channel) samples by brute-force DFT.

    Matrix products only, no FFT: fast time to range bins, slow time to
    Doppler bins, then zero Doppler moved to bin P/2.
    """
    p = samples.shape[0]
    rp = np.einsum("kn,pnc->kpc", _dft_matrix(samples.shape[1]), samples)
    crd = np.einsum("dp,kpc->kdc", _dft_matrix(p), rp)
    return np.abs(np.roll(crd, p // 2, axis=1))


def check_range_doppler(samples: np.ndarray, values: np.ndarray):
    ref = dft_range_doppler(np.asarray(samples, dtype=np.complex128))
    if values.shape != ref.shape:
        raise CheckFailed(f"range-Doppler shape {values.shape}, expected {ref.shape}")
    err = float(np.max(np.abs(values - ref)) / np.max(np.abs(ref)))
    if not err <= DFT_RTOL:
        raise CheckFailed(f"range-Doppler differs from the DFT by {err:.2e} relative")


def check_decoded(encoded: np.ndarray, decoded: np.ndarray):
    if decoded.shape != encoded.shape or not np.array_equal(
        decoded, encoded.astype(np.complex128)
    ):
        raise CheckFailed("decoded samples differ from the complex64 samples encoded")


def check_window_probs(probs, reference):
    probs = np.asarray(probs, dtype=np.float64)
    if not np.all((probs >= 0.0) & (probs <= 1.0)):
        raise CheckFailed("a window probability lies outside [0, 1]")
    err = float(np.max(np.abs(probs - np.asarray(reference))))
    if not err <= PROB_ATOL:
        raise CheckFailed(f"window probability differs from forward_batch by {err:.2e}")


def check_window_count(bursts: int, windows: int, seq_len: int):
    if windows != bursts - seq_len + 1:
        raise CheckFailed(f"{windows} windows from {bursts} bursts at seq_len {seq_len}")


def check_all_counted(scheduled: int, sent: int, counted: int):
    if not scheduled == sent == counted:
        raise CheckFailed(f"{scheduled} bursts scheduled, {sent} sent, {counted} counted")


def check_detection_ids(windows: list[tuple[int, int]], bursts: int, seq_len: int):
    """Detections close windows ending at ids seq_len-1 .. bursts-1, in order."""
    lasts = [last for _, last in windows]
    if lasts != list(range(seq_len - 1, bursts)):
        raise CheckFailed("detection ids do not run consecutively over every window")
    for first, last in windows:
        if first != last - seq_len + 1:
            raise CheckFailed(f"detection window [{first}, {last}] is not {seq_len} bursts")


def check_counters_zero(stats):
    bad = {name: getattr(stats, name) for name in ZERO_COUNTERS if getattr(stats, name)}
    if bad:
        raise CheckFailed(f"consumer error counters are not 0: {bad}")


def check_gradient(descended: dict, finite_diff: dict):
    """descended[name] and finite_diff[name] hold the same sampled entries."""
    for name, fd in finite_diff.items():
        g = descended[name]
        scale = np.maximum(np.maximum(np.abs(g), np.abs(fd)), GRAD_FLOOR)
        err = float(np.max(np.abs(g - fd) / scale))
        if not err <= GRAD_RTOL:
            raise CheckFailed(f"descended gradient of {name} off by {err:.2e} relative")


def check_loss_falls(losses):
    if not losses[-1] < losses[0]:
        raise CheckFailed(f"fine-tune loss went from {losses[0]:.4f} to {losses[-1]:.4f}")


def check_evaluate(accuracy: float, probs, labels):
    expected = float(np.mean((np.asarray(probs) >= 0.5) == (np.asarray(labels) == 1)))
    if accuracy != expected:
        raise CheckFailed(f"evaluate() gave {accuracy}, thresholded forward_batch {expected}")


def collect(*checks_to_run) -> list[str]:
    """Run each zero-argument check; return the messages of those that fail."""
    errors = []
    for check in checks_to_run:
        try:
            check()
        except CheckFailed as exc:
            errors.append(str(exc))
    return errors
