"""Polarized Calabi-Yau threefold records, presets, hypothesis thresholds and config files.

A geometry is the triple (d, c2XH, dimH) = (H^3, c2(X).H, dim|H|) together
with a flag saying whether the curve-count hypothesis is asserted for it.
The certifier decides both hypotheses from the thresholds and ranges here.
"""

from __future__ import annotations

import os
import stat
import sys
from fractions import Fraction
from typing import Mapping

from .errors import (
    ConfigError,
    InconsistentGeometry,
    NegativeLinearSystem,
    NonIntegralGeometry,
    UnknownPreset,
)
from .rationals import Record, _shown, exact_int, parse_int


def check_degree(d: int) -> None:
    """Raise ValueError unless the polarization degree d = H^3 is a positive int (not a bool)."""
    if type(d) is not int or d < 1:
        shown = _shown(d) if type(d) is int else repr(d)  # a value of another type by its repr
        raise ValueError(f"d must be a positive integer, got {shown}")


def derive_dimH(d: int, c2XH: int) -> int:
    """dim|H| from Riemann-Roch with Kodaira vanishing: d/6 + c2XH/12 - 1.

    In integers, 12 chi(O(H)) = 2d + c2XH. Raises NonIntegralGeometry when
    chi(O(H)) is not an integer (12 does not divide 2d + c2XH) and
    NegativeLinearSystem when the derived dimension would be negative.
    """
    check_degree(d)
    twelve_chi = 2 * d + exact_int(c2XH, "c2XH")
    if twelve_chi % 12:
        raise NonIntegralGeometry(f"chi(O(H)) = {_shown(Fraction(twelve_chi, 12))} is not an "
                                  f"integer for fields d={_shown(d)}, c2h={_shown(c2XH)}")
    chi = twelve_chi // 12
    if chi < 1:
        raise NegativeLinearSystem(
            f"chi(O(H)) = {_shown(chi)} gives dim|H| = {_shown(chi - 1)} < 0 for fields "
            f"d={_shown(d)}, c2h={_shown(c2XH)}"
        )
    return chi - 1


class PolarizedCY3(Record):
    """(H^3, c2(X).H, dim|H|) with the Riemann-Roch consistency invariant."""

    __slots__ = ("d", "c2XH", "dimH", "castelnuovo_known")

    def __init__(self, d: int, c2XH: int, dimH: int, castelnuovo_known: bool = False):
        exact_int(dimH, "dimH")  # derive_dimH checks d and c2XH
        if type(castelnuovo_known) is not bool:
            raise TypeError(f"castelnuovo_known must be a bool, got {castelnuovo_known!r}")
        expected = derive_dimH(d, c2XH)
        if dimH != expected:
            raise InconsistentGeometry(
                f"field dimh = {_shown(dimH)} contradicts d/6 + c2h/12 - 1 = {_shown(expected)}"
            )
        super().__init__(d, c2XH, dimH, castelnuovo_known)

    @classmethod
    def derive(cls, d: int, c2XH: int, castelnuovo_known: bool = False) -> "PolarizedCY3":
        """Build a geometry with dim|H| filled in from (d, c2XH)."""
        return cls(d, c2XH, derive_dimH(d, c2XH), castelnuovo_known)

    @property
    def chi_OH(self) -> int:
        """chi(O_X(H)); always dim|H| + 1."""
        return self.dimH + 1


class CurveBound(Record):
    """Smallest chi(O_C) asserted to occur among curves of degree beta = C.H."""

    __slots__ = ("beta", "chi_min")

    def __init__(self, beta: int, chi_min: int):
        if exact_int(beta, "beta") < 1:
            raise ValueError(f"beta must be >= 1, got {_shown(beta)}")
        super().__init__(beta, exact_int(chi_min, "chi_min"))


# Preset invariants are recomputed in the test suite from the ambient
# total-Chern-class expansion before being trusted here.
PRESETS = {
    "quintic": PolarizedCY3(d=5, c2XH=50, dimH=4, castelnuovo_known=True),
    "ci24": PolarizedCY3(d=8, c2XH=56, dimH=5, castelnuovo_known=False),
    "ci223": PolarizedCY3(d=12, c2XH=60, dimH=6, castelnuovo_known=False),
}


def from_preset(name: str) -> PolarizedCY3:
    """The quintic in P^4, the (2,4) in P^5, or the (2,2,3) in P^6."""
    try:
        return PRESETS[name]
    except KeyError:
        raise UnknownPreset(
            f"unknown preset {_shown(name)}; available: {', '.join(sorted(PRESETS))}"
        ) from None


def full_threshold(d: int) -> Fraction:
    """The bound 7d/6 - 3 = (7d - 18)/6 that the linear-system hypothesis puts on dim|H|."""
    check_degree(d)
    return Fraction(7 * d - 18, 6)


def even_threshold(d: int) -> Fraction:
    """The bound 2d/3 - 3 = (2d - 9)/3 of the even-degree variant of the hypothesis."""
    check_degree(d)
    return Fraction(2 * d - 9, 3)


def castelnuovo_range(geom: PolarizedCY3) -> list[int]:
    """Curve degrees the curve-count hypothesis quantifies over: 1 <= beta < d/2."""
    return list(range(1, (geom.d + 1) // 2))


def default_chi_min(geom: PolarizedCY3, beta: int) -> int:
    """Weakest chi(O_C) floor compatible with the curve hypothesis: ceil(d/6 - beta).

    In integers, ceil(d/6 - beta) = -floor((6 beta - d)/6).
    """
    return -((6 * exact_int(beta, "beta") - geom.d) // 6)


# ---------------------------------------------------------------------------
# Geometry config files: JSON object or "key = value" lines with the fields
# d, c2h, dimh (optional), castelnuovo_known (optional, default false).

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_CONFIG_FIELDS = ("d", "c2h", "dimh", "castelnuovo_known")


def _as_int(value, field: str) -> int:
    try:
        return parse_int(value) if isinstance(value, str) else exact_int(value, field)
    except (TypeError, ValueError):
        raise ConfigError(f"field {field}: expected an integer, got {_shown(value)}",
                          field=field) from None


def _as_bool(value, field: str) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.strip().lower() in _BOOL_WORDS:
        return _BOOL_WORDS[value.strip().lower()]
    raise ConfigError(f"field {field}: expected a boolean, got {_shown(value)}", field=field)


def geometry_from_config(data: Mapping) -> PolarizedCY3:
    """Build a geometry from a config mapping, naming the offending field on error."""
    unknown = sorted(set(data) - set(_CONFIG_FIELDS))
    if unknown:
        raise ConfigError(f"unknown field {_shown(unknown[0])}", field=unknown[0])
    if "d" not in data:
        raise ConfigError("field d: missing", field="d")
    if "c2h" not in data:
        raise ConfigError("field c2h: missing", field="c2h")
    d = _as_int(data["d"], "d")
    c2h = _as_int(data["c2h"], "c2h")
    known = _as_bool(data.get("castelnuovo_known", False), "castelnuovo_known")
    if "dimh" in data and data["dimh"] is not None:
        return PolarizedCY3(d, c2h, _as_int(data["dimh"], "dimh"), known)
    return PolarizedCY3.derive(d, c2h, known)


def _unique_keys(pairs) -> dict:
    """(key, value) pairs as a dict, refusing a key given twice (a dict would keep the last)."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"field {_shown(key)}: given more than once", field=key)
        out[key] = value
    return out


# A real config file is under 200 bytes. Reading no more than this bounds the time and
# memory of any --config, /dev/zero or a huge file included.
CONFIG_MAX_BYTES = 64 * 1024


def load_geometry_config(path) -> dict:
    """Read a UTF-8 config file, BOM allowed: a JSON object, or "key = value" lines.

    In the line format, blank lines and "#" comments are skipped and ":" is
    accepted in place of "=". A key given twice is an error in either format.
    Only a regular file of at most CONFIG_MAX_BYTES is read. A pipe or device
    is refused: what a read of it returns depends on its writer and on timing.
    """
    shown = _shown(os.fspath(path))  # quoted and cut like any typed value: one short line
    try:  # O_NONBLOCK: opening a FIFO with no writer returns at once instead of waiting.
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except OSError as error:
        raise ConfigError(f"config {shown}: {error.strerror}") from None
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            raise ConfigError(f"config {shown}: not a regular file")
        with open(fd, "rb", closefd=False) as file:
            raw = file.read(CONFIG_MAX_BYTES + 1)
    finally:
        os.close(fd)
    if len(raw) > CONFIG_MAX_BYTES:
        raise ConfigError(f"config {shown}: longer than the cap of {CONFIG_MAX_BYTES} bytes")
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as error:
        at = error.start + len(raw) - len(error.object)  # the codec counts from after a BOM
        raise ConfigError(f"config {shown}: not UTF-8: byte 0x{raw[at]:02x} at position {at}: "
                          f"{error.reason}") from None
    import json  # here only: a config from flags or a preset never loads it
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError:
        pass  # not JSON: read the line format below
    except RecursionError:
        raise ConfigError(f"config {shown}: JSON nested too deeply") from None
    except ValueError:  # the one other ValueError of json.loads: int's digit limit
        raise ConfigError(f"config {shown}: an integer has more than "
                          f"{sys.get_int_max_str_digits()} digits") from None
    else:
        if not isinstance(data, dict):
            raise ConfigError(f"config {shown}: expected a JSON object")
        return data
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        sep = "=" if "=" in line else (":" if ":" in line else None)
        if sep is None:
            raise ConfigError(f"config {shown}:{lineno}: expected key = value, got {_shown(raw)}")
        pairs.append([part.strip() for part in line.split(sep, 1)])
    return _unique_keys(pairs)
