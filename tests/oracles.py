"""Independent dense reference constructions used to pin library outputs.

Everything here is raw numpy: states are built from the physical
definition of each operation and pushed through generic eigendecomposition,
with no calls into the package's analytic fast paths. Any agreement
between these oracles and the library is therefore a genuine cross-check
of two different computations.
"""

import numpy as np


def raw_entropy(mat: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(mat)
    lam = lam[lam > 1e-12]
    return float(-(lam * np.log(lam)).sum())


def raw_mi(rho: np.ndarray, da: int, db: int) -> float:
    """S(A) + S(B) - S(AB) from a dense joint density matrix."""
    t = rho.reshape(da, db, da, db)
    rho_a = np.einsum("ibjb->ij", t)
    rho_b = np.einsum("aiaj->ij", t)
    return raw_entropy(rho_a) + raw_entropy(rho_b) - raw_entropy(rho)


def dephase_oracle(weights, modes) -> float:
    """MI after an environment records the branch index of each mode in D.

    Built as the explicit three-party state sum_n w_n |n, f(n), e(n)> with
    f the canonical reversal and e(n) a distinct register value per
    recorded mode (0 for untouched modes), then the environment is traced
    out and the MI evaluated densely.
    """
    w = np.asarray(weights, dtype=complex).reshape(-1)
    m = w.shape[0]
    recorded = sorted(set(int(n) for n in modes))
    env_index = {n: k + 1 for k, n in enumerate(recorded)}
    amp = np.zeros((m, m, len(recorded) + 1), dtype=complex)
    for n in range(1, m + 1):
        amp[n - 1, m - n, env_index.get(n, 0)] = w[n - 1]
    mat = amp.reshape(m * m, len(recorded) + 1)
    rho_ab = mat @ mat.conj().T
    return raw_mi(rho_ab, m, m)


def localize_oracle(weights, modes) -> float:
    """MI after the decohered branches are replaced by a two-sided product.

    The retained modes stay a coherent (unnormalized) superposition; the
    localized modes contribute weight P_D times tau_A x tau_B, with each
    tau the normalized diagonal marginal over the localized modes.
    """
    return mixed_channel_oracle(weights, dephased=(), localized=modes)


def mixed_channel_oracle(weights, dephased, localized) -> float:
    """MI when some modes are branch-recorded and others fully decorrelated."""
    m = np.asarray(weights).reshape(-1).shape[0]
    return raw_mi(mixed_channel_rho(weights, dephased, localized), m, m)


def mixed_channel_rho(weights, dephased, localized) -> np.ndarray:
    """Dense joint density matrix after dephasing and localizing mode sets.

    A coherent (unnormalized) block over the untouched modes, one branch
    projector of weight p_n per dephased mode, and p_L tau_A x tau_B over
    the localized modes, each tau the normalized diagonal marginal there.
    """
    w = np.asarray(weights, dtype=complex).reshape(-1)
    m = w.shape[0]
    p = np.abs(w) ** 2
    deph = sorted(set(int(n) for n in dephased))
    loc = sorted(set(int(n) for n in localized))
    if set(deph) & set(loc):
        raise ValueError("mode sets must be disjoint")
    touched = np.zeros(m, dtype=bool)
    touched[[n - 1 for n in deph]] = True
    touched[[n - 1 for n in loc]] = True

    psi_r = np.zeros((m, m), dtype=complex)
    for idx in np.where(~touched)[0]:
        psi_r[idx, m - 1 - idx] = w[idx]
    psi_r = psi_r.reshape(-1)
    rho = np.outer(psi_r, psi_r.conj())

    for n in deph:
        branch = np.zeros((m, m), dtype=complex)
        branch[n - 1, m - n] = 1.0
        branch = branch.reshape(-1)
        rho = rho + p[n - 1] * np.outer(branch, branch.conj())

    p_loc = float(sum(p[n - 1] for n in loc))
    if loc and p_loc > 0.0:
        tau_a = np.zeros((m, m), dtype=complex)
        tau_b = np.zeros((m, m), dtype=complex)
        for n in loc:
            tau_a[n - 1, n - 1] = p[n - 1] / p_loc
            tau_b[m - n, m - n] = p[n - 1] / p_loc
        rho = rho + p_loc * np.kron(tau_a, tau_b)
    return rho


def random_weights(rng: np.random.Generator, num_modes: int) -> np.ndarray:
    w = rng.standard_normal(num_modes) + 1j * rng.standard_normal(num_modes)
    return w / np.linalg.norm(w)
