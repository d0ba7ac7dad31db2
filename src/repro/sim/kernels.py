"""Vectorized batch kernels with a pure-stdlib fallback.

The acceleration tiers (:mod:`repro.sim.fastpath`, :mod:`repro.sim.turbo`)
and the analysis helpers operate on *chunks* of accesses: arrays of
virtual addresses, physical addresses, DRAM arrival times.  When numpy is
installed (the ``accel`` optional dependency: ``pip install repro[accel]``)
these loops run as vector operations; otherwise every kernel falls back
to an equivalent pure-Python loop.  All kernels are **integer-exact**:
the numpy and stdlib implementations return identical values bit for bit,
so the execution engines never need to care which one ran.  Disturbance
*float* accumulation deliberately stays scalar (see
:meth:`repro.dram.device.DramDevice.access_miss_fast`) because a vector
reduction could reorder float additions.

``REPRO_ACCEL=0`` (or ``off``/``stdlib``/``false``/``no``) forces the
stdlib fallback even when numpy is importable — CI runs the equivalence
suites in both modes.  :func:`accel_signature` names the active mode
(``numpy-<version>`` / ``stdlib``) and is folded into the sweep cache's
code fingerprint so cached results never mix kernel modes.
"""

from __future__ import annotations

import os
from bisect import bisect_left as _bisect_left

ACCEL_ENV = "REPRO_ACCEL"

_FALSY = ("0", "off", "stdlib", "false", "no")

#: Lazily imported numpy module (or None when unavailable).  A sentinel
#: distinguishes "not probed yet" from "probed, absent".
_UNSET = object()
_numpy = _UNSET


def _numpy_module():
    global _numpy
    if _numpy is _UNSET:
        try:
            import numpy  # noqa: PLC0415 - optional accel dependency

            _numpy = numpy
        except ImportError:
            _numpy = None
    return _numpy


def numpy_or_none():
    """The numpy module when installed *and* not disabled via
    ``REPRO_ACCEL``; the environment knob is re-read on every call so
    tests can flip modes without reimporting."""
    if os.environ.get(ACCEL_ENV, "").lower() in _FALSY:
        return None
    return _numpy_module()


def accel_available() -> bool:
    return numpy_or_none() is not None


def accel_signature() -> str:
    """The active kernel mode: ``numpy-<version>`` or ``stdlib``."""
    np = numpy_or_none()
    return f"numpy-{np.__version__}" if np is not None else "stdlib"


# -- array plumbing -------------------------------------------------------------


def int_array(values):
    """An int64 ndarray when accelerated, else the list itself.

    The result is only ever consumed by the other kernels in this module,
    which accept both representations.
    """
    np = numpy_or_none()
    if np is None:
        return list(values)
    return np.asarray(values, dtype=np.int64)


def searchsorted_left(arr, value: int, lo: int = 0) -> int:
    """``bisect_left`` over an :func:`int_array` result."""
    np = numpy_or_none()
    if np is not None and not isinstance(arr, list):
        return lo + int(np.searchsorted(arr[lo:], value, side="left"))
    return _bisect_left(arr, value, lo)


def prefix_sums(values) -> list[int]:
    """Inclusive prefix sums as plain Python ints (integer-exact)."""
    np = numpy_or_none()
    if np is not None:
        return np.cumsum(np.asarray(values, dtype=np.int64)).tolist()
    total = 0
    out = []
    for value in values:
        total += value
        out.append(total)
    return out


# -- batch address kernels ------------------------------------------------------


def batch_translate(vaddrs, vm) -> list[int]:
    """Translate a chunk of virtual addresses through ``vm``.

    Page-table walks happen once per distinct page (via ``vm.translate``,
    which also warms the software TLB exactly as the scalar path would);
    the per-address frame|offset combine is vectorized.
    """
    page_bits = vm._page_bits
    offset_mask = (1 << page_bits) - 1
    np = numpy_or_none()
    if np is None:
        frames: dict[int, int] = {}
        out = []
        for vaddr in vaddrs:
            vpn = vaddr >> page_bits
            frame = frames.get(vpn)
            if frame is None:
                frame = vm.translate(vpn << page_bits)
                frames[vpn] = frame
            out.append(frame | (vaddr & offset_mask))
        return out
    va = np.asarray(vaddrs, dtype=np.int64)
    vpns = va >> page_bits
    unique, inverse = np.unique(vpns, return_inverse=True)
    frame_table = np.fromiter(
        (vm.translate(int(vpn) << page_bits) for vpn in unique),
        dtype=np.int64,
        count=len(unique),
    )
    return (frame_table[inverse] | (va & offset_mask)).tolist()


def batch_set_index(paddrs, line_bits: int, set_mask: int) -> list[int]:
    """Cache set indices for a chunk of physical addresses (simple
    modulo-indexed caches; sliced LLCs hash per-line and stay scalar)."""
    np = numpy_or_none()
    if np is None:
        return [(paddr >> line_bits) & set_mask for paddr in paddrs]
    pa = np.asarray(paddrs, dtype=np.int64)
    return ((pa >> line_bits) & set_mask).tolist()


def batch_decode(paddrs, mapping) -> tuple[list[int], list[int], list[int]]:
    """Vectorized :meth:`~repro.dram.mapping.AddressMapping.decode` over a
    chunk: returns ``(dense_bank_ids, rows, global_row_ids)``."""
    config = mapping.config
    bank_mask = config.banks_per_rank - 1
    rank_mask = config.ranks - 1
    row_mask = config.rows_per_bank - 1
    np = numpy_or_none()
    if np is None:
        banks, rows, row_ids = [], [], []
        for paddr in paddrs:
            bank = (paddr >> mapping._bank_shift) & bank_mask
            rank = (paddr >> mapping._rank_shift) & rank_mask
            row = (paddr >> mapping._row_shift) & row_mask
            if config.xor_bank_hash:
                bank ^= row & bank_mask
            dense = rank * config.banks_per_rank + bank
            banks.append(dense)
            rows.append(row)
            row_ids.append(dense * config.rows_per_bank + row)
        return banks, rows, row_ids
    pa = np.asarray(paddrs, dtype=np.int64)
    bank = (pa >> mapping._bank_shift) & bank_mask
    rank = (pa >> mapping._rank_shift) & rank_mask
    row = (pa >> mapping._row_shift) & row_mask
    if config.xor_bank_hash:
        bank = bank ^ (row & bank_mask)
    dense = rank * config.banks_per_rank + bank
    row_ids = dense * config.rows_per_bank + row
    return dense.tolist(), row.tolist(), row_ids.tolist()


def batch_blocking(times, trefi: int, trfc: int) -> list[int]:
    """Refresh-blocking delays for a chunk of *independent* arrival times
    (:meth:`repro.dram.refresh.RefreshEngine.blocking_delay` vectorized).

    Each time is evaluated against the refresh schedule in isolation —
    the sequential arrival-shifts-arrival interaction is what the turbo
    engine's blocking sweep handles.
    """
    np = numpy_or_none()
    if np is None:
        out = []
        for t in times:
            pos = t % trefi
            out.append(trfc - pos if pos < trfc else 0)
        return out
    ts = np.asarray(times, dtype=np.int64)
    pos = ts % trefi
    return np.where(pos < trfc, trfc - pos, 0).tolist()


def activation_times(t0: int, offsets, act_indices, blocks) -> list[int]:
    """Exact arrival times for a lap's activations, with refresh blocks
    folded in (the per-activation half of the turbo engine's blocking
    sweep, vectorized).

    ``offsets`` holds the lap-relative arrival offset of every DRAM
    access; ``act_indices`` selects the accesses that activated a row;
    ``blocks`` is the lap's ``(dram_index, delay)`` block list from
    :func:`repro.sim.turbo._sweep_blocking`.  The time of activation
    ``j`` is ``t0 + offsets[j]`` plus every block delay at an index
    ``<= j`` — a blocked activation is itself pushed to its
    refresh-snapped time.  Integer-exact on both backends.
    """
    np = numpy_or_none()
    if np is None or len(act_indices) < 64:
        # Below the vector break-even point (few-op laps dominate here)
        # the scalar merge beats per-call ndarray setup on both backends.
        out = []
        block_i = 0
        block_n = len(blocks)
        block_acc = 0
        for act_idx in act_indices:
            while block_i < block_n and blocks[block_i][0] <= act_idx:
                block_acc += blocks[block_i][1]
                block_i += 1
            out.append(t0 + offsets[act_idx] + block_acc)
        return out
    offs = np.asarray(offsets, dtype=np.int64)
    acts = np.asarray(act_indices, dtype=np.int64)
    if not blocks:
        return (t0 + offs[acts]).tolist()
    block_idx = np.asarray([b[0] for b in blocks], dtype=np.int64)
    cum = np.zeros(len(blocks) + 1, dtype=np.int64)
    np.cumsum(np.asarray([b[1] for b in blocks], dtype=np.int64),
              out=cum[1:])
    k = np.searchsorted(block_idx, acts, side="right")
    return (t0 + offs[acts] + cum[k]).tolist()


def count_activations(banks, rows, n_banks: int) -> int:
    """Open-page activation count for a (bank, row) access sequence that
    starts from all-precharged banks — the analytic row-locality midpoint
    the closed-form tests compare against."""
    np = numpy_or_none()
    if np is None or isinstance(banks, list) and len(banks) < 1024:
        open_rows: list[int | None] = [None] * n_banks
        activations = 0
        for bank, row in zip(banks, rows):
            if open_rows[bank] != row:
                open_rows[bank] = row
                activations += 1
        return activations
    banks = np.asarray(banks, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    total = 0
    for bank in range(n_banks):
        mask = banks == bank
        bank_rows = rows[mask]
        if bank_rows.size == 0:
            continue
        total += 1 + int(np.count_nonzero(bank_rows[1:] != bank_rows[:-1]))
    return total
