"""Compiled water-filling kernels for :mod:`repro.des.bandwidth`.

The max-min fair-share solve is the hottest loop of the whole DES once
storms reach ~10⁵ concurrent flows: the numpy flow-class solver pays a
handful of O(F) vectorised passes *per freeze round*, which flattens
out around 10⁴ flows. This module holds both implementations of the
per-component solve — capacity residuals, bottleneck selection, grant
scatter — and of the pass each recompute makes over the active flows
(advance them, flag the finished ones, find the next completion; pack
their slot indices after a change), selected with ``REPRO_KERNEL``:

- ``compiled``: a C translation of the flow-class water-filling rounds
  and of the per-recompute pass, built on first use with the system C
  compiler into a content-addressed shared library
  (``~/.cache/repro/kernels``, override with ``REPRO_KERNEL_CACHE``)
  and loaded through :mod:`ctypes`, every function at once with the
  probe. A library already in that cache loads without a compiler.
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

- per-resource occupancy counts are exact small-integer sums held in
  doubles, so their accumulation order is free, and subtracting a
  frozen class's multiplicity gives exactly what recounting the
  unfrozen classes gives: the C side counts once and subtracts, and
  keeps the number of unfrozen classes that touch any capacity in
  place of numpy's emptiness test;
- each touched capacity's share ``max(cap_rem, 0) / counts`` is
  computed once per round, as numpy computes it; a class's candidate
  rate is ``min(min_k share[res_k], cap)`` over those same values, and
  the round's bottleneck is the candidates' minimum, which no order
  changes;
- the capacity consumed by a freeze batch is accumulated **per flow in
  ascending slot order**, exactly like the numpy scatter, then
  subtracted from the residuals in one elementwise pass. The C side
  merges the frozen classes' member lists and sorts them only when the
  merge does not already ascend, which it always does for one-flow
  classes numbered in first-appearance order; a multi-flow class whose
  members interleave with another's still sorts.

Three things the numpy solve does not do are therefore free. The C
kernel numbers the classes present in *first-appearance* order
(numpy's ``np.unique`` numbers them ascending by id) through a
caller-owned scratch map, and compacts the capacities they touch
through a second one, so a solve costs O(flows it solves), not O(class
table + capacities). It allocates nothing: its other scratch arrays are
carved from one arena the caller owns and sizes with
``repro_maxmin_arena_words`` (ctypes drops the GIL, so no static
buffer), and every array is written before it is read, so nothing
carries over from one solve to the next. The per-recompute pass
computes ``moved``, the clipped remainder, the completion tolerance and
the quotient minimum with the numpy statements' operations; the sums
over moved bytes and completed remainders stay in numpy (pairwise
summation), so ``total_bytes_moved`` is identical too.

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

/* The 8-byte words of scratch repro_maxmin_class_solve needs for nflows
 * flows over a table of nres capacities (see its arena layout). */
int64_t repro_maxmin_arena_words(int64_t nflows, int64_t nres,
                                 int64_t kmax)
{
    return nflows * (11 + kmax) + 5 * nres + 1;
}

/* Max-min fair rates over flow equivalence classes.
 *
 * The f-th solved flow sits in slot slots[f] (ascending) and its
 * interned class id is slot_class[slots[f]]; class_res/class_cap are
 * the full interned class tables (rows indexed by class id, -1-padded
 * resource lists) and capacities holds nres entries. The classes
 * present are numbered in first-appearance order through class_map, and
 * the capacities they touch compacted through res_map: both are
 * caller-owned scratch maps that must read all -1 on entry and read all
 * -1 again on return. Every other scratch array is carved from arena,
 * which the caller owns too (ctypes drops the GIL, so no static buffer)
 * and which must hold repro_maxmin_arena_words(nflows, nres, kmax)
 * words. Outputs: rate_out[slots[f]] (floored at 1e-12) and, for each
 * touched capacity r only, cap_used_out[r] = capacity - residual.
 * Returns the number of freeze rounds, or -1 when the arena is too
 * small. */
int64_t repro_maxmin_class_solve(
    int64_t nflows, const int64_t *slots, const int64_t *slot_class,
    int64_t kmax,
    const int64_t *class_res, const double *class_cap,
    const double *capacities, int64_t nres, double fairness_slack,
    int64_t *class_map, int64_t *res_map,
    int64_t *arena, int64_t arena_words,
    double *rate_out, double *cap_used_out)
{
    int64_t f, c, k, r, j, id;
    int64_t nclasses = 0, ntouched = 0, n_unf, n_unf_res = 0, rounds = 0;
    /* batch = 1.0 + self.fairness_slack + 1e-12 */
    const double batch = 1.0 + fairness_slack + 1e-12;
    int64_t *present, *inverse, *cres, *members, *buf, *cstart, *unf;
    int64_t *newly, *touched;
    double *ccap, *cmult, *crate, *cand;
    double *counts, *cap_rem, *consumed, *share;

    if (nflows == 0)
        return 0;
    if (arena_words < repro_maxmin_arena_words(nflows, nres, kmax))
        return -1;
    /* arena layout: per-flow, per-class and per-capacity arrays, sized
     * for the worst case of one class per flow and every capacity */
    present = arena;
    inverse = present + nflows;
    cres = inverse + nflows;
    members = cres + nflows * kmax;
    buf = members + nflows;
    cstart = buf + nflows;
    unf = cstart + nflows + 1;
    newly = unf + nflows;
    touched = newly + nflows;
    ccap = (double *)(touched + nres);
    cmult = ccap + nflows;
    crate = cmult + nflows;
    cand = crate + nflows;
    counts = cand + nflows;
    cap_rem = counts + nres;
    consumed = cap_rem + nres;
    share = consumed + nres;

    /* -- number the classes present, in first-appearance order --------- */
    for (f = 0; f < nflows; f++) {
        id = slot_class[slots[f]];
        c = class_map[id];
        if (c < 0) {
            c = class_map[id] = nclasses;
            present[nclasses++] = id;
        }
        inverse[f] = c;
    }

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
        cmult[c] = 0.0;
        crate[c] = 0.0;
        cstart[c + 1] = 0;
    }
    cstart[0] = 0;
    for (f = 0; f < nflows; f++) {
        c = inverse[f];
        cmult[c] += 1.0;          /* exact: multiplicities are integers */
        cstart[c + 1] += 1;
    }
    for (c = 0; c < nclasses; c++)
        cstart[c + 1] += cstart[c];
    /* member lists ascend within each class: flows scanned in order
     * (buf is the fill cursor here, the freeze batch in the rounds) */
    for (c = 0; c < nclasses; c++)
        buf[c] = cstart[c];
    for (f = 0; f < nflows; f++)
        members[buf[inverse[f]]++] = f;

    /* occupancy counts over all classes (exact small-integer sums), the
     * unfrozen classes in numbering order, and how many of those touch a
     * capacity */
    for (j = 0; j < ntouched; j++) {
        counts[j] = 0.0;
        cap_rem[j] = capacities[touched[j]];
    }
    for (c = 0; c < nclasses; c++) {
        unf[c] = c;
        for (k = 0; k < kmax; k++) {
            j = cres[c * kmax + k];
            if (j < 0)
                break;
            counts[j] += cmult[c];
        }
        n_unf_res += k > 0;
    }
    n_unf = nclasses;

    /* -- the freeze rounds: each freezes at least the bottleneck class,
     * so neither this bound nor the numpy loop's (nclasses + nres + 1)
     * is ever reached ------------------------------------------------ */
    {
        int64_t iter, max_iter = nclasses + ntouched + 1;
        for (iter = 0; iter < max_iter; iter++) {
            int64_t n_new = 0, m = 0, wi = 0, i, ui, ascending = 1;
            double s_star = INFINITY, thresh;
            if (n_unf == 0)
                break;
            if (n_unf_res == 0) {
                /* remaining flows touch no capacity: bounded by caps */
                for (ui = 0; ui < n_unf; ui++) {
                    c = unf[ui];
                    crate[c] = ccap[c];
                }
                break;
            }
            /* share = max(cap_rem, 0) / counts where counts > 0, once
             * per capacity, as the numpy solve; a capacity no unfrozen
             * class touches has counts 0 and its share is never read */
            for (j = 0; j < ntouched; j++) {
                if (counts[j] > 0.0) {
                    double rem = cap_rem[j];
                    if (rem < 0.0)
                        rem = 0.0;
                    share[j] = rem / counts[j];
                }
            }
            /* candidate per class: min share across resources, then cap */
            for (ui = 0; ui < n_unf; ui++) {
                double cd = INFINITY;
                c = unf[ui];
                for (k = 0; k < kmax; k++) {
                    j = cres[c * kmax + k];
                    if (j < 0)
                        break;
                    if (share[j] < cd)
                        cd = share[j];
                }
                if (ccap[c] < cd)
                    cd = ccap[c];
                cand[c] = cd;
                if (cd < s_star)
                    s_star = cd;
            }
            /* freeze = unfrozen & (candidate <= s_star * batch); a frozen
             * class's multiplicity leaves the counts of its capacities,
             * which equals recounting the unfrozen classes exactly */
            thresh = s_star * batch;
            for (ui = 0; ui < n_unf; ui++) {
                c = unf[ui];
                if (cand[c] <= thresh) {
                    crate[c] = cand[c];
                    newly[n_new++] = c;
                    for (k = 0; k < kmax; k++) {
                        j = cres[c * kmax + k];
                        if (j < 0)
                            break;
                        counts[j] -= cmult[c];
                    }
                    n_unf_res -= k > 0;
                } else {
                    unf[wi++] = c;  /* stable compaction keeps order */
                }
            }
            n_unf = wi;
            /* scatter consumption per flow in ascending slot order, as
             * np.add.at over the frozen flows does, then subtract: the
             * frozen classes' member lists merged, and sorted unless the
             * merge already ascends (one-flow classes, numbered in
             * first-appearance order, always do) */
            memset(consumed, 0, (size_t)ntouched * sizeof(double));
            for (i = 0; i < n_new; i++) {
                c = newly[i];
                for (f = cstart[c]; f < cstart[c + 1]; f++) {
                    if (m > 0 && members[f] < buf[m - 1])
                        ascending = 0;
                    buf[m++] = members[f];
                }
            }
            if (!ascending)
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

    /* hand the scratch maps back reading all -1 */
    for (c = 0; c < nclasses; c++)
        class_map[present[c]] = -1;
    for (j = 0; j < ntouched; j++)
        res_map[touched[j]] = -1;
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

/* The ascending indices of the set entries of active[0..n), i.e.
 * np.flatnonzero(active), written to idx_out (n entries); returns their
 * count. */
int64_t repro_active_index(int64_t n, const uint8_t *active,
                           int64_t *idx_out)
{
    int64_t i, m = 0;
    for (i = 0; i < n; i++) {
        idx_out[m] = i;
        m += active[i] != 0;
    }
    return m;
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


def library_name() -> str:
    """The file name the loader looks up in the kernel cache.

    It embeds a hash of the C source and the compiler flags, so editing
    either never reuses a stale binary. A library built elsewhere under
    this name (say, with sanitizers) is loaded as is.
    """
    digest = hashlib.blake2b(" ".join(_CFLAGS + (_C_SOURCE,)).encode("utf-8"),
                             digest_size=10).hexdigest()
    return f"maxmin_{digest}.so"


def _build_c_library() -> str:
    """Compile the kernel into a content-addressed ``.so``; return its path.

    A cached library (see :func:`library_name`) needs no compiler;
    concurrent builders (sweep worker processes) race benignly through
    an atomic ``os.replace``.
    """
    cache_dir = config.get("REPRO_KERNEL_CACHE")
    lib_path = os.path.join(cache_dir, library_name())
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
        _PTR, _I64, _DBL,           # capacities, nres, fairness_slack
        _PTR, _PTR,                 # class_map, res_map (scratch, all -1)
        _PTR, _I64,                 # arena, arena_words (scratch)
        _PTR, _PTR]),               # rate_out, cap_used_out
    "repro_maxmin_arena_words": (_I64, [
        _I64, _I64, _I64]),         # nflows, nres, kmax
    "repro_advance_finish": (_I64, [
        _I64, _PTR, _PTR, _PTR, _PTR,   # n, idx, rate, remaining, start
        _DBL, _DBL, _DBL,               # dt, now, completion_slack
        _PTR, _PTR]),                   # moved_out, done_out
    "repro_next_finish": (_DBL, [
        _I64, _PTR, _PTR, _PTR]),       # n, idx, remaining, rate
    "repro_active_index": (_I64, [
        _I64, _PTR, _PTR]),             # n, active mask, idx_out
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
    returns its results bit for bit. ``solve_fn``, ``advance_fn``,
    ``next_finish_fn`` and ``active_index_fn`` are the raw ctypes
    functions :class:`~repro.des.bandwidth.FlowNetwork` calls with the
    addresses of arrays it owns; ``arena_words_fn`` sizes the solve's
    scratch arena.
    """

    __slots__ = ("solve_fn", "arena_words_fn", "advance_fn",
                 "next_finish_fn", "active_index_fn")

    def __init__(self, solve_fn: Callable, arena_words_fn: Callable,
                 advance_fn: Callable, next_finish_fn: Callable,
                 active_index_fn: Callable) -> None:
        self.solve_fn = solve_fn
        self.arena_words_fn = arena_words_fn
        self.advance_fn = advance_fn
        self.next_finish_fn = next_finish_fn
        self.active_index_fn = active_index_fn

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
        kmax = class_res.shape[1]
        arena = np.empty(self.arena_words_fn(flow_class.size,
                                             capacities.size, kmax),
                         dtype=np.int64)
        if self.solve_fn(
                flow_class.size, slots.ctypes.data, flow_class.ctypes.data,
                kmax, class_res.ctypes.data, class_cap.ctypes.data,
                capacities.ctypes.data, capacities.size,
                float(fairness_slack), class_map.ctypes.data,
                res_map.ctypes.data, arena.ctypes.data, arena.size,
                rate.ctypes.data, cap_used.ctypes.data) < 0:
            raise SimulationError(
                f"compiled maxmin kernel: scratch arena of {arena.size} "
                f"words too small for {flow_class.size} flows")
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
