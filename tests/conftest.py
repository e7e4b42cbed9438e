import numpy as np


def _polar_reference(coeffs, rs, ts):
    """|A| + kq (1 - |x|^2) on the grid rs x ts, A = alpha + beta x + gamma x^2 in complex arithmetic."""
    alpha, beta, gamma, kq = coeffs
    x = rs[:, None] * np.exp(1j * ts[None, :])
    return np.abs(alpha + beta * x + gamma * x * x) + kq * (1.0 - np.abs(x) ** 2)
