"""Compiled water-filling kernels for :mod:`repro.des.bandwidth`.

The max-min fair-share solve is the hottest loop of the whole DES once
storms reach ~10⁵ concurrent flows: the numpy flow-class solver pays a
handful of O(F) vectorised passes *per freeze round*, which flattens
out around 10⁴ flows. This module holds both implementations of the
per-component solve — capacity residuals, bottleneck selection, grant
scatter — and of the pass each recompute makes over the active flows
(advance them, flag the finished ones, find the next completion),
selected with ``REPRO_KERNEL``:

- ``compiled``: a C translation of the flow-class water-filling rounds
  and of the per-recompute pass, built on first use with the system C
  compiler into a content-addressed shared library
  (``~/.cache/repro/kernels``, override with ``REPRO_KERNEL_CACHE``)
  and loaded through :mod:`ctypes`, all three functions at once with
  the probe. A library already in that cache loads without a compiler.
  The functions take raw addresses, which
  :class:`~repro.des.bandwidth.FlowNetwork` pins per array until it
  reallocates one.
- ``python``: the numpy statements :func:`maxmin_class_solve_np`,
  :func:`advance_finish_np` and :func:`next_finish_np`, with no
  dependencies beyond numpy.

The default is ``compiled`` when the C kernel loads (probed once per
process) and ``python`` otherwise. An explicit ``compiled`` on a host
where the kernel cannot be built raises a
:class:`~repro.errors.SimulationError` — loud beats silently running
several times slower.

Bit-identity contract
---------------------

The compiled kernel reproduces the numpy statements *bit for bit*, not
just to tolerance: every floating-point operation happens on the same
values in the same order (IEEE-754 doubles, round-to-nearest, no fused
multiply-add), in particular

- per-resource occupancy counts are exact small-integer sums, so their
  accumulation order is free;
- candidate rates are ``min(min_k share[res_k], cap)`` with divisions
  on identical operands, and the round's bottleneck is their minimum,
  which no order changes;
- the capacity consumed by a freeze batch is accumulated **per flow in
  ascending slot order** (the C side merges the frozen classes' member
  lists and sorts them; one class's list needs no sort), exactly like
  the numpy scatter, then subtracted from the residuals in one
  elementwise pass.

Two things the numpy solve does not do are therefore free. The C kernel
numbers the classes present in *first-appearance* order (numpy's
``np.unique`` numbers them ascending by id) through a caller-owned
scratch map, and compacts the capacities they touch through a second
one, so a solve costs O(flows it solves), not O(class table +
capacities). The per-recompute pass computes ``moved``, the clipped
remainder, the completion tolerance and the quotient minimum with the
numpy statements' operations; the sums over moved bytes and completed
remainders stay in numpy (pairwise summation), so
``total_bytes_moved`` is identical too.

``tests/test_kernel_equivalence.py`` asserts equality with
``np.ndarray.tobytes()`` on randomized storms, at ``fairness_slack=0``
and above, and on the per-recompute pass, so either kernel can serve
any cached sweep — the kernel name is still folded into cache keys as a
guard.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Callable, Optional, Tuple

import numpy as np

from repro import config
from repro.errors import SimulationError

__all__ = [
    "KERNEL_COMPILED",
    "KERNEL_PYTHON",
    "MaxminKernel",
    "advance_finish_np",
    "compiled_kernel",
    "kernel_status",
    "maxmin_class_solve_np",
    "next_finish_np",
    "resolve_kernel",
]

#: Use the compiled C water-filling kernel (the default when it loads).
KERNEL_COMPILED = "compiled"
#: Use the numpy water-filling solve (always available).
KERNEL_PYTHON = "python"


def resolve_kernel(kernel: Optional[str]) -> str:
    """Explicit argument beats ``REPRO_KERNEL`` beats the default, which
    is ``compiled`` when the C kernel loads and ``python`` otherwise."""
    kernel = config.get("REPRO_KERNEL", kernel, source="kernel",
                        error=SimulationError)
    if kernel is None:
        return KERNEL_COMPILED if _probe()[0] is not None else KERNEL_PYTHON
    return kernel


# --------------------------------------------------------------------- #
# the C backend
# --------------------------------------------------------------------- #
# A direct translation of maxmin_class_solve_np's flow-class rounds, plus
# the per-recompute pass over the active flows. Comments reference the
# numpy statements being reproduced; the order of every floating-point
# operation matches (see module docstring).
_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

static int cmp_i64(const void *a, const void *b) {
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Max-min fair rates over flow equivalence classes.
 *
 * The f-th solved flow sits in slot slots[f] (ascending) and its
 * interned class id is slot_class[slots[f]]; class_res/class_cap are
 * the full interned class tables (rows indexed by class id, -1-padded
 * resource lists). The classes present are numbered in first-appearance
 * order through class_map, and the capacities they touch compacted
 * through res_map: both are caller-owned scratch maps (ctypes drops the
 * GIL, so no static buffer) that must read all -1 on entry and read all
 * -1 again on return. Outputs: rate_out[slots[f]] (floored at 1e-12)
 * and, for each touched capacity r only, cap_used_out[r] = capacity -
 * residual. Returns the number of freeze rounds, or -1 on allocation
 * failure. */
int64_t repro_maxmin_class_solve(
    int64_t nflows, const int64_t *slots, const int64_t *slot_class,
    int64_t kmax,
    const int64_t *class_res, const double *class_cap,
    const double *capacities, double fairness_slack,
    int64_t *class_map, int64_t *res_map,
    double *rate_out, double *cap_used_out)
{
    int64_t f, c, k, r, j, id, ui;
    int64_t nclasses = 0, ntouched = 0, rounds = 0;
    /* batch = 1.0 + self.fairness_slack + 1e-12 */
    const double batch = 1.0 + fairness_slack + 1e-12;

    int64_t *present = NULL, *inverse = NULL, *touched = NULL;
    int64_t *cres = NULL, *members = NULL, *cstart = NULL, *cfill = NULL;
    int64_t *unf = NULL, *newly = NULL, *buf = NULL;
    double *ccap = NULL, *cmult = NULL, *crate = NULL, *cand = NULL;
    double *counts = NULL, *cap_rem = NULL, *consumed = NULL;

    if (nflows == 0)
        return 0;

    /* -- number the classes present, in first-appearance order --------- */
    present = (int64_t *)malloc((size_t)nflows * sizeof(int64_t));
    inverse = (int64_t *)malloc((size_t)nflows * sizeof(int64_t));
    if (!present || !inverse) goto fail;
    for (f = 0; f < nflows; f++) {
        id = slot_class[slots[f]];
        c = class_map[id];
        if (c < 0) {
            c = class_map[id] = nclasses;
            present[nclasses++] = id;
        }
        inverse[f] = c;
    }

    touched = (int64_t *)malloc((size_t)(nclasses * kmax + 1)
                                * sizeof(int64_t));
    cres = (int64_t *)malloc((size_t)(nclasses * kmax + 1)
                             * sizeof(int64_t));
    ccap = (double *)malloc((size_t)nclasses * sizeof(double));
    cmult = (double *)calloc((size_t)nclasses, sizeof(double));
    crate = (double *)calloc((size_t)nclasses, sizeof(double));
    cand = (double *)malloc((size_t)nclasses * sizeof(double));
    members = (int64_t *)malloc((size_t)nflows * sizeof(int64_t));
    buf = (int64_t *)malloc((size_t)nflows * sizeof(int64_t));
    cstart = (int64_t *)calloc((size_t)(nclasses + 1), sizeof(int64_t));
    cfill = (int64_t *)malloc((size_t)nclasses * sizeof(int64_t));
    unf = (int64_t *)malloc((size_t)nclasses * sizeof(int64_t));
    newly = (int64_t *)malloc((size_t)nclasses * sizeof(int64_t));
    if (!touched || !cres || !ccap || !cmult || !crate || !cand ||
        !members || !buf || !cstart || !cfill || !unf || !newly)
        goto fail;

    /* -- compact the class rows onto the touched capacities ------------ */
    for (c = 0; c < nclasses; c++) {
        id = present[c];
        for (k = 0; k < kmax; k++) {
            r = class_res[id * kmax + k];
            if (r < 0)
                break;
            j = res_map[r];
            if (j < 0) {
                j = res_map[r] = ntouched;
                touched[ntouched++] = r;
            }
            cres[c * kmax + k] = j;
        }
        for (; k < kmax; k++)
            cres[c * kmax + k] = -1;
        ccap[c] = class_cap[id];
    }
    counts = (double *)malloc((size_t)ntouched * sizeof(double) + 1);
    cap_rem = (double *)malloc((size_t)ntouched * sizeof(double) + 1);
    consumed = (double *)malloc((size_t)ntouched * sizeof(double) + 1);
    if (!counts || !cap_rem || !consumed) goto fail;

    for (f = 0; f < nflows; f++) {
        c = inverse[f];
        cmult[c] += 1.0;          /* exact: multiplicities are integers */
        cstart[c + 1] += 1;
    }
    for (c = 0; c < nclasses; c++)
        cstart[c + 1] += cstart[c];
    for (c = 0; c < nclasses; c++)
        cfill[c] = cstart[c];
    /* member lists ascend within each class: flows scanned in order */
    for (f = 0; f < nflows; f++)
        members[cfill[inverse[f]]++] = f;

    for (c = 0; c < nclasses; c++)
        unf[c] = c;               /* unfrozen, in numbering order */
    for (j = 0; j < ntouched; j++)
        cap_rem[j] = capacities[touched[j]];

    /* -- the freeze rounds: each freezes at least the bottleneck class,
     * so neither this bound nor the numpy loop's (nclasses + nres + 1)
     * is ever reached ------------------------------------------------ */
    {
        int64_t n_unf = nclasses;
        int64_t iter, max_iter = nclasses + ntouched + 1;
        for (iter = 0; iter < max_iter; iter++) {
            int64_t have_res = 0, n_new = 0, m = 0, wi = 0, i;
            double s_star = INFINITY, thresh;
            if (n_unf == 0)
                break;
            /* occupancy counts over unfrozen classes (exact int sums) */
            memset(counts, 0, (size_t)ntouched * sizeof(double));
            for (ui = 0; ui < n_unf; ui++) {
                c = unf[ui];
                for (k = 0; k < kmax; k++) {
                    j = cres[c * kmax + k];
                    if (j < 0)
                        break;
                    counts[j] += cmult[c];
                    have_res = 1;
                }
            }
            if (!have_res) {
                /* remaining flows touch no capacity: bounded by caps */
                for (ui = 0; ui < n_unf; ui++) {
                    c = unf[ui];
                    crate[c] = ccap[c];
                }
                break;
            }
            /* candidate per class: min share across resources, then cap
             * (share = max(cap_rem, 0) / counts, as the numpy solve) */
            for (ui = 0; ui < n_unf; ui++) {
                double cd = INFINITY;
                c = unf[ui];
                for (k = 0; k < kmax; k++) {
                    double sh, rem;
                    j = cres[c * kmax + k];
                    if (j < 0)
                        break;
                    rem = cap_rem[j];
                    if (rem < 0.0)
                        rem = 0.0;
                    sh = rem / counts[j];
                    if (sh < cd)
                        cd = sh;
                }
                if (ccap[c] < cd)
                    cd = ccap[c];
                cand[c] = cd;
                if (cd < s_star)
                    s_star = cd;
            }
            /* freeze = unfrozen & (candidate <= s_star * batch) */
            thresh = s_star * batch;
            for (ui = 0; ui < n_unf; ui++) {
                c = unf[ui];
                if (cand[c] <= thresh) {
                    crate[c] = cand[c];
                    newly[n_new++] = c;
                } else {
                    unf[wi++] = c;  /* stable compaction keeps order */
                }
            }
            n_unf = wi;
            /* scatter consumption per flow in ascending slot order, as
             * np.add.at over the frozen flows does, then subtract: the
             * frozen classes' member lists merged and sorted (one
             * class's list is already in order) */
            memset(consumed, 0, (size_t)ntouched * sizeof(double));
            for (i = 0; i < n_new; i++) {
                c = newly[i];
                for (f = cstart[c]; f < cstart[c + 1]; f++)
                    buf[m++] = members[f];
            }
            if (n_new > 1)
                qsort(buf, (size_t)m, sizeof(int64_t), cmp_i64);
            for (i = 0; i < m; i++) {
                double rr;
                c = inverse[buf[i]];
                rr = crate[c];
                for (k = 0; k < kmax; k++) {
                    j = cres[c * kmax + k];
                    if (j < 0)
                        break;
                    consumed[j] += rr;
                }
            }
            for (j = 0; j < ntouched; j++)
                cap_rem[j] -= consumed[j];
            rounds++;
        }
    }

    /* rate = max(crate[inverse], 1e-12); cap_used = capacities - cap_rem */
    for (f = 0; f < nflows; f++) {
        double rr = crate[inverse[f]];
        rate_out[slots[f]] = rr > 1e-12 ? rr : 1e-12;
    }
    for (j = 0; j < ntouched; j++)
        cap_used_out[touched[j]] = capacities[touched[j]] - cap_rem[j];
    goto done;

fail:
    rounds = -1;
done:
    /* hand the scratch maps back reading all -1 */
    for (c = 0; c < nclasses; c++)
        class_map[present[c]] = -1;
    for (j = 0; j < ntouched; j++)
        res_map[touched[j]] = -1;
    free(present); free(inverse); free(touched); free(cres); free(ccap);
    free(cmult); free(crate); free(cand); free(members); free(buf);
    free(cstart); free(cfill); free(unf); free(newly);
    free(counts); free(cap_rem); free(consumed);
    return rounds;
}

/* One pass over the active slots idx[0..n): advance each flow by dt
 * (when dt > 0) and flag the finished ones, i.e. advance_finish_np:
 *   moved = rate[idx] * dt; rem = remaining[idx] - moved;
 *   np.clip(rem, 0.0, None); remaining[idx] = rem
 *   tol = rate[idx] * (completion_slack * (now - start[idx]) + 1e-9) + 1e-6
 *   done = remaining[idx] <= tol
 * moved_out[i] is written only when dt > 0. Returns the number done. */
int64_t repro_advance_finish(
    int64_t n, const int64_t *idx, const double *rate, double *remaining,
    const double *start, double dt, double now, double completion_slack,
    double *moved_out, uint8_t *done_out)
{
    int64_t i, ndone = 0;
    for (i = 0; i < n; i++) {
        int64_t s = idx[i];
        double rr = rate[s], rem = remaining[s], tol;
        if (dt > 0.0) {
            double mv = rr * dt;
            rem = rem - mv;
            if (rem < 0.0)
                rem = 0.0;
            remaining[s] = rem;
            moved_out[i] = mv;
        }
        tol = rr * (completion_slack * (now - start[s]) + 1e-9) + 1e-6;
        done_out[i] = rem <= tol;
        ndone += done_out[i];
    }
    return ndone;
}

/* The next-completion delay over idx[0..n): np.min(remaining[idx] /
 * rate[idx]), a NaN quotient propagating as np.min propagates it. */
double repro_next_finish(int64_t n, const int64_t *idx,
                         const double *remaining, const double *rate)
{
    int64_t i;
    double best = INFINITY;
    for (i = 0; i < n; i++) {
        double q = remaining[idx[i]] / rate[idx[i]];
        if (q != q)
            return q;
        if (q < best)
            best = q;
    }
    return best;
}
"""

#: Compiler flags. No floating-point contraction: a fused multiply-add
#: rounds once where the numpy statements round twice.
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _find_compiler() -> Optional[str]:
    cc = os.environ.get("CC", "").strip()
    if cc and shutil.which(cc):
        return cc
    for candidate in ("cc", "gcc", "clang"):
        if shutil.which(candidate):
            return candidate
    return None


def _build_c_library() -> str:
    """Compile the kernel into a content-addressed ``.so``; return its path.

    The library name embeds a hash of the C source and the compiler
    flags, so editing either never reuses a stale binary, and a cached library needs no
    compiler; concurrent builders (sweep worker processes) race benignly
    through an atomic ``os.replace``.
    """
    digest = hashlib.blake2b(" ".join(_CFLAGS + (_C_SOURCE,)).encode("utf-8"),
                             digest_size=10).hexdigest()
    cache_dir = config.get("REPRO_KERNEL_CACHE")
    lib_path = os.path.join(cache_dir, f"maxmin_{digest}.so")
    if os.path.exists(lib_path):
        return lib_path
    cc = _find_compiler()
    if cc is None:
        raise SimulationError(
            "no C compiler found (tried $CC, cc, gcc, clang)")
    os.makedirs(cache_dir, exist_ok=True)
    fd, src_path = tempfile.mkstemp(suffix=".c", dir=cache_dir)
    tmp_lib = src_path[:-2] + ".so"
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(_C_SOURCE)
        cmd = [cc, *_CFLAGS, "-o", tmp_lib, src_path]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SimulationError(
                f"kernel compilation failed ({' '.join(cmd)}):\n"
                f"{proc.stderr.strip()}")
        os.replace(tmp_lib, lib_path)
    finally:
        for leftover in (src_path, tmp_lib):
            try:
                os.unlink(leftover)
            except OSError:
                pass
    return lib_path


_I64 = ctypes.c_int64
_DBL = ctypes.c_double
_PTR = ctypes.c_void_p

#: restype and argtypes of each exported C function. Arrays pass as raw
#: addresses: an ``ndpointer`` argument check costs more than a small
#: solve, so the callers check (or own) the arrays instead.
_C_FUNCTIONS = {
    "repro_maxmin_class_solve": (_I64, [
        _I64, _PTR, _PTR, _I64,     # nflows, slots, slot_class, kmax
        _PTR, _PTR,                 # class_res, class_cap
        _PTR, _DBL,                 # capacities, fairness_slack
        _PTR, _PTR,                 # class_map, res_map (scratch, all -1)
        _PTR, _PTR]),               # rate_out, cap_used_out
    "repro_advance_finish": (_I64, [
        _I64, _PTR, _PTR, _PTR, _PTR,   # n, idx, rate, remaining, start
        _DBL, _DBL, _DBL,               # dt, now, completion_slack
        _PTR, _PTR]),                   # moved_out, done_out
    "repro_next_finish": (_DBL, [
        _I64, _PTR, _PTR, _PTR]),       # n, idx, remaining, rate
}


def _load_c_functions() -> Tuple[Callable, ...]:
    """The exported C functions, in :data:`_C_FUNCTIONS` order."""
    lib = ctypes.CDLL(_build_c_library())
    fns = []
    for name, (restype, argtypes) in _C_FUNCTIONS.items():
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes
        fns.append(fn)
    return tuple(fns)


# --------------------------------------------------------------------- #
# the vectorised numpy solve (the ``python`` kernel, callable standalone)
# --------------------------------------------------------------------- #
def maxmin_class_solve_np(flow_class: np.ndarray, class_res: np.ndarray,
                          class_cap: np.ndarray, capacities: np.ndarray,
                          fairness_slack: float
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised flow-class water-filling over an explicit class table.

    The ``python`` kernel: ``FlowNetwork._maxmin_rates`` calls it on the
    network's interned class tables when the C kernel is not in use.
    Returns ``(rate, cap_used)`` like :meth:`MaxminKernel.solve`.
    """
    nres = capacities.size
    batch = 1.0 + fairness_slack + 1e-12

    present, inverse, mult = np.unique(
        flow_class, return_inverse=True, return_counts=True)
    cres = class_res[present]                 # (C, K)
    cvalid = cres >= 0                        # (C, K)
    cres_clipped = np.where(cvalid, cres, 0)  # (C, K)
    ccaps = class_cap[present]                # (C,)
    cmult = mult.astype(float)                # (C,)
    nclasses = present.size
    kmax = class_res.shape[1]

    crate = np.zeros(nclasses, dtype=float)
    cfrozen = np.zeros(nclasses, dtype=bool)
    cap_rem = capacities.astype(float).copy()
    # Round-invariant buffers, hoisted out of the freeze loop.
    counts = np.empty(nres, dtype=float)
    share = np.empty(nres, dtype=float)
    consumed = np.empty(nres, dtype=float)

    for _ in range(nclasses + nres + 1):
        unfrozen = ~cfrozen
        if not unfrozen.any():
            break
        live_valid = cvalid[unfrozen]
        members = cres[unfrozen][live_valid]
        if members.size == 0:
            # Remaining flows touch no capacity: bounded by caps only.
            crate[unfrozen] = ccaps[unfrozen]
            break
        weights = np.broadcast_to(
            cmult[unfrozen, None], live_valid.shape)[live_valid]
        counts.fill(0.0)
        np.add.at(counts, members, weights)
        used = counts > 0
        share.fill(np.inf)
        share[used] = np.maximum(cap_rem[used], 0.0) / counts[used]
        # Per-class candidate: min share across its resources, then cap.
        class_share = np.where(cvalid, share[cres_clipped], np.inf)
        candidate = np.minimum(class_share.min(axis=1), ccaps)
        s_star = float(candidate[unfrozen].min())

        freeze = unfrozen & (candidate <= s_star * batch)
        crate[freeze] = candidate[freeze]
        cfrozen[freeze] = True
        # Scatter consumption per flow, in ascending slot order, so the
        # floating-point accumulation matches a flow-by-flow solve.
        rows = inverse[freeze[inverse]]       # class row per frozen flow
        consumed.fill(0.0)
        flat_rate = np.repeat(candidate[rows], kmax)
        flat_res = cres_clipped[rows].ravel()
        flat_valid = cvalid[rows].ravel()
        np.add.at(consumed, flat_res[flat_valid], flat_rate[flat_valid])
        cap_rem -= consumed

    rate = crate[inverse]
    # Numerical safety: every active flow must make progress.
    np.maximum(rate, 1e-12, out=rate)
    # The residual capacities double as the consumed-bandwidth table
    # for the incremental-arrival fast path.
    return rate, capacities - cap_rem


# --------------------------------------------------------------------- #
# the per-recompute pass over the active flows (numpy reference)
# --------------------------------------------------------------------- #
#: Exact part of the completion tolerance, in seconds of the flow's rate.
_REL_EPS = 1e-9


def advance_finish_np(idx: np.ndarray, rate: np.ndarray,
                      remaining: np.ndarray, start: np.ndarray, dt: float,
                      now: float, completion_slack: float
                      ) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Advance the active slots ``idx`` by ``dt`` seconds and flag the
    finished ones; ``remaining`` is updated in place.

    A flow is done when its remaining volume is within tolerance: an
    exact epsilon plus the ``completion_slack`` fraction of the time it
    has already been running. Returns ``(moved, done)``: the bytes each
    flow moved (``None`` unless ``dt > 0``) and the done mask. The
    ``python`` kernel's pass, and the reference the C pass
    (``repro_advance_finish``) matches bit for bit.
    """
    moved = None
    if dt > 0:
        moved = rate[idx] * dt
        rem = remaining[idx] - moved
        np.clip(rem, 0.0, None, out=rem)
        remaining[idx] = rem
    tol_seconds = completion_slack * (now - start[idx]) + _REL_EPS
    tol = rate[idx] * tol_seconds + 1e-6
    return moved, remaining[idx] <= tol


def next_finish_np(idx: np.ndarray, remaining: np.ndarray,
                   rate: np.ndarray) -> float:
    """Seconds until the first of the slots ``idx`` completes at its
    current rate (the reference for ``repro_next_finish``)."""
    with np.errstate(divide="ignore"):
        finish = remaining[idx] / rate[idx]
    return float(finish.min())


class MaxminKernel:
    """Handle on the loaded C library.

    ``solve`` takes the arguments of :func:`maxmin_class_solve_np` and
    returns its results bit for bit. ``solve_fn``, ``advance_fn`` and
    ``next_finish_fn`` are the raw ctypes functions
    :class:`~repro.des.bandwidth.FlowNetwork` calls with the addresses of
    arrays it owns.
    """

    __slots__ = ("solve_fn", "advance_fn", "next_finish_fn")

    def __init__(self, solve_fn: Callable, advance_fn: Callable,
                 next_finish_fn: Callable) -> None:
        self.solve_fn = solve_fn
        self.advance_fn = advance_fn
        self.next_finish_fn = next_finish_fn

    def solve(self, flow_class: np.ndarray, class_res: np.ndarray,
              class_cap: np.ndarray, capacities: np.ndarray,
              fairness_slack: float, class_map: Optional[np.ndarray] = None,
              res_map: Optional[np.ndarray] = None
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Water-filling rates and per-capacity consumption; the scratch
        maps (all -1, sized like ``class_cap`` and ``capacities``) are
        allocated when not given. The arrays are checked before C reads
        them: dtype, contiguity, and every class id and capacity index
        it dereferences."""
        if class_map is None:
            class_map = np.full(class_cap.size, -1, dtype=np.int64)
        if res_map is None:
            res_map = np.full(capacities.size, -1, dtype=np.int64)
        for arr, dtype in ((flow_class, np.int64), (class_res, np.int64),
                           (class_cap, np.float64),
                           (capacities, np.float64),
                           (class_map, np.int64), (res_map, np.int64)):
            if arr.dtype != dtype or not arr.flags.c_contiguous:
                raise SimulationError(
                    f"compiled kernel needs C-contiguous {np.dtype(dtype)} "
                    f"arrays, got {arr.dtype} (contiguous: "
                    f"{arr.flags.c_contiguous})")
        nclasses = min(class_cap.size, class_map.size, class_res.shape[0])
        if flow_class.size and (flow_class.min() < 0
                                or flow_class.max() >= nclasses):
            raise SimulationError(
                f"compiled kernel: class id out of range for {nclasses} "
                f"classes")
        nres = min(capacities.size, res_map.size)
        # -1 pads a class's resource list
        if class_res.size and (class_res.min() < -1
                               or class_res.max() >= nres):
            raise SimulationError(
                f"compiled kernel: capacity index out of range for {nres} "
                f"capacities")
        slots = np.arange(flow_class.size, dtype=np.int64)
        rate = np.empty(flow_class.size, dtype=np.float64)
        cap_used = np.zeros(capacities.size, dtype=np.float64)
        rounds = self.solve_fn(
            flow_class.size, slots.ctypes.data, flow_class.ctypes.data,
            class_res.shape[1],
            class_res.ctypes.data, class_cap.ctypes.data,
            capacities.ctypes.data, float(fairness_slack),
            class_map.ctypes.data, res_map.ctypes.data,
            rate.ctypes.data, cap_used.ctypes.data)
        if rounds < 0:
            raise SimulationError(
                f"compiled maxmin kernel ran out of memory for "
                f"{flow_class.size} flows")
        return rate, cap_used


# Probe memo: (kernel-or-None, error-message-or-None); probing compiles,
# so it must run at most once per process.
_PROBE: Optional[Tuple[Optional[MaxminKernel], Optional[str]]] = None


def _probe() -> Tuple[Optional[MaxminKernel], Optional[str]]:
    global _PROBE
    if _PROBE is None:
        try:
            _PROBE = (MaxminKernel(*_load_c_functions()), None)
        except Exception as exc:  # compiler missing, cc error, bad cache dir
            _PROBE = (None, str(exc))
    return _PROBE


def compiled_kernel() -> MaxminKernel:
    """The C kernel, building it on first call; raises
    :class:`~repro.errors.SimulationError` when it cannot be loaded."""
    kernel, error = _probe()
    if kernel is None:
        raise SimulationError(
            f"REPRO_KERNEL=compiled requested but the C kernel cannot be "
            f"loaded ({error}); install a C compiler (or set $CC), or "
            f"leave REPRO_KERNEL unset to fall back to python")
    return kernel


def kernel_status() -> str:
    """``c`` when the C kernel loads, else ``unavailable`` (for
    diagnostics; never raises, but does build on first call)."""
    return "c" if _probe()[0] is not None else "unavailable"
