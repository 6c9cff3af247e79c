"""Seeded inputs for the four workloads.

Everything here is plain data (ints, strings, tuples) drawn from
`random.Random(seed)`; the program under test only ever sees what these
functions return. The records are `NamedTuple`s and there is no `fractions`
or `dataclasses` import on purpose: the set-up probe times `import bgcert`
after this module is loaded, and `bgcert` should pay for its own
standard-library imports.
"""

from __future__ import annotations

import random
from typing import NamedTuple

# Degrees of the in-process workloads: small and realistic (the complete
# intersection CY3s in one projective space have d = 5, 8, 9, 12, 16). Every
# round holds the same number of cases per degree, so a seed moves the values
# inside a round but not the round's cost profile.
SWEEP_DEGREES = tuple(range(1, 25))
SWEEP_CASES_PER_DEGREE = 40
TILT_CASES_PER_DEGREE = 4

# enumerate-large: one rung per degree band, and whether it is listed in JSON
# as well as in text. The seed moves d by an even offset of at most
# ENUM_JITTER, so a rung keeps its parity: odd d prints every ch2H as a
# half-integer "p/2", which makes the output, and the peak memory, about an
# eighth larger than at an even d. The middle rung is listed in text only, so
# a round has an odd number of operations and the median one is that rung's
# (about 1 s, against 0.8 s and 1.4 s for its neighbours): with an even number
# the median falls between two rungs and moves with the slowest run of the one
# and the fastest of the other.
ENUM_RUNGS = ((10_000, True), (15_000, False), (20_001, True))
ENUM_JITTER = 150

# cli-process: the degrees of the three seeded custom geometries of the matrix,
# fixed so that every seed lists and certifies the same number of candidates.
CLI_DEGREES = (13, 16, 9)

CLI_MODES = ("auto", "full", "even")
LIBRARY_MODES = {"auto": "auto", "full": "full_1_3", "even": "even_variant"}


class Geometry(NamedTuple):
    d: int
    c2h: int
    dimh: int
    known: bool


class CertifyCase(NamedTuple):
    geom: Geometry
    mode: str  # one of CLI_MODES
    bounds: tuple[tuple[int, int], ...]  # (beta, chi_min), may repeat a beta


class TiltCase(NamedTuple):
    geom: Geometry
    twists: tuple[int, ...]  # n of O(nH)
    lengths: tuple[int, ...]  # point-twist lengths
    curves: tuple[tuple[int, int], ...]  # (beta, chi) of curve twists
    ch3_shift: int  # candidate classes take ch3 = ch2H/(3r) - ch3_shift/6
    ts: tuple[tuple[int, int], ...]  # tilt scales t = p/q


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _geometry(rng: random.Random, d: int) -> Geometry:
    """A geometry of degree d whose dim|H| sits near the hypothesis threshold."""
    if d % 2 or rng.random() < 0.5:
        threshold_ceil = _ceil_div(7 * d - 18, 6)  # ceil(7d/6 - 3)
    else:
        threshold_ceil = _ceil_div(2 * d - 9, 3)  # ceil(2d/3 - 3)
    dimh = threshold_ceil + rng.choice((-2, -1, 0, 0, 1, 2, 3))
    # c2(X).H > 0 on a CY3 with this dim|H| needs dim|H| + 1 > d/6.
    dimh = max(dimh, d // 6, 0)
    c2h = 12 * (dimh + 1) - 2 * d
    return Geometry(d, c2h, dimh, rng.random() < 0.5)


def _bounds(rng: random.Random, d: int) -> tuple[tuple[int, int], ...]:
    betas = range(1, (d + 1) // 2)
    if not betas or rng.random() < 0.5:
        return ()
    out = []
    for _ in range(rng.choice((1, 2))):
        beta = rng.choice(betas)
        floor = _ceil_div(d - 6 * beta, 6)  # ceil(d/6 - beta): the weakest admissible chi_min
        out.append((beta, floor + rng.choice((-1, 0, 0, 1, 2, 3))))
    return tuple(out)


def certify_cases(seed: int) -> list[CertifyCase]:
    rng = random.Random(f"certify-sweep:{seed}")
    cases = []
    for d in SWEEP_DEGREES:
        for _ in range(SWEEP_CASES_PER_DEGREE):
            mode = rng.choice(("auto", "auto", "auto", "full", "even"))
            cases.append(CertifyCase(_geometry(rng, d), mode, _bounds(rng, d)))
    rng.shuffle(cases)
    return cases


def tilt_cases(seed: int) -> list[TiltCase]:
    rng = random.Random(f"tilt-scan:{seed}")
    cases = []
    for d in SWEEP_DEGREES:
        for _ in range(TILT_CASES_PER_DEGREE):
            geom = _geometry(rng, d)
            betas = range(1, (d + 1) // 2) or range(1, 2)
            cases.append(
                TiltCase(
                    geom=geom,
                    twists=tuple(range(-2, 4)),
                    lengths=tuple(sorted(rng.sample(range(0, 8), 2))),
                    curves=tuple((rng.choice(betas), rng.randint(-3, 3)) for _ in range(2)),
                    ch3_shift=rng.choice((-1, 0, 1)),
                    ts=tuple((rng.randint(1, 6), rng.randint(1, 4)) for _ in range(4)),
                )
            )
    rng.shuffle(cases)
    return cases


def enumerate_degrees(seed: int) -> list[tuple[Geometry, bool]]:
    """The geometry of each rung, and whether it is listed in JSON as well."""
    rng = random.Random(f"enumerate-large:{seed}")
    out = []
    for rung, with_json in ENUM_RUNGS:
        d = rung + 2 * rng.randint(-ENUM_JITTER // 2, ENUM_JITTER // 2)
        dimh = d // 6 + rng.randint(0, 5)
        out.append((Geometry(d, 12 * (dimh + 1) - 2 * d, dimh, False), with_json))
    return out


# ---------------------------------------------------------------------------
# cli-process: a fixed matrix of command lines whose values come from the seed.


class CliCase(NamedTuple):
    argv: tuple[str, ...]
    command: str  # geom, enumerate, certify, eval, or malformed (must exit 3)
    json: bool
    preset: str | None = None
    geom: Geometry | None = None
    mode: str = "auto"
    bounds: tuple[tuple[int, int], ...] = ()
    op: str | None = None
    ch: tuple[str, str, str, str] | None = None
    t: str | None = None


def _flags(g: Geometry) -> tuple[str, ...]:
    return ("--d", str(g.d), "--c2h", str(g.c2h)) + (("--castelnuovo-known",) if g.known else ())


def _ch(rng: random.Random, rank_floor: int = 0) -> tuple[str, str, str, str]:
    ch0 = rng.randint(max(rank_floor, 0), 4)
    c1 = rng.randint(-2, 3)
    return (str(ch0), str(c1), f"{rng.randint(-6, 12)}/2", f"{rng.randint(-12, 12)}/6")


def cli_matrix(seed: int, cfg_dir: str) -> tuple[list[CliCase], dict[str, str]]:
    """The matrix and the config files it reads (name -> text), to be written into cfg_dir.

    It covers the four subcommands in text and JSON, the presets, geometry
    flags, both config-file formats, curve bounds that violate the curve
    hypothesis, and two malformed inputs.
    """
    rng = random.Random(f"cli-process:{seed}")
    g1, g2, g3 = (_geometry(rng, d) for d in CLI_DEGREES)
    cfg_json = f"{cfg_dir}/geometry.json"
    cfg_text = f"{cfg_dir}/geometry.conf"
    files = {
        "geometry.json": '{"d": %d, "c2h": %d, "castelnuovo_known": %s}\n'
        % (g2.d, g2.c2h, "true" if g2.known else "false"),
        "geometry.conf": "# key = value lines; ':' also separates\nd = %d\nc2h = %d\ndimh: %d\n"
        "castelnuovo_known = %s\n" % (g3.d, g3.c2h, g3.dimh, "yes" if g3.known else "no"),
    }
    m1 = rng.choice(CLI_MODES)
    ok_bounds = _bounds_kept(rng, g2.d)
    beta_bad = rng.choice((1, 2))
    bad_bound = (beta_bad, -beta_bad - rng.randint(0, 2))  # chi_min < 5/6 - beta on the quintic
    mixed = _bounds(rng, g3.d)
    chs = [_ch(rng, rank_floor=1) for _ in range(5)]
    t = f"{rng.randint(1, 6)}/{rng.randint(1, 4)}"
    bad_g = _geometry(rng, rng.choice(SWEEP_DEGREES))
    cases = [
        CliCase(("geom", "--preset", "quintic"), "geom", False, preset="quintic"),
        CliCase(("geom", "--preset", "ci24", "--json"), "geom", True, preset="ci24"),
        CliCase(("geom",) + _flags(g1), "geom", False, geom=g1),
        CliCase(("geom", "--config", cfg_json, "--json"), "geom", True, geom=g2),
        CliCase(("geom", "--config", cfg_text), "geom", False, geom=g3),
        CliCase(("enumerate", "--preset", "quintic"), "enumerate", False, preset="quintic"),
        CliCase(("enumerate",) + _flags(g1) + ("--json",), "enumerate", True, geom=g1),
        CliCase(("enumerate", "--config", cfg_text), "enumerate", False, geom=g3),
        CliCase(("certify", "--preset", "quintic"), "certify", False, preset="quintic"),
        CliCase(("certify", "--preset", "quintic", "--json"), "certify", True, preset="quintic"),
        CliCase(("certify", "--preset", "ci24", "--mode", "even", "--json"), "certify", True,
                preset="ci24", mode="even"),
        CliCase(("certify", "--preset", "ci24", "--mode", "full"), "certify", False,
                preset="ci24", mode="full"),
        CliCase(("certify", "--preset", "ci223"), "certify", False, preset="ci223"),
        CliCase(("certify",) + _flags(g1) + ("--mode", m1), "certify", False, geom=g1, mode=m1),
        CliCase(("certify", "--config", cfg_json) + _bound_args(ok_bounds) + ("--json",),
                "certify", True, geom=g2, bounds=ok_bounds),
        CliCase(("certify", "--preset", "quintic") + _bound_args((bad_bound,)), "certify", False,
                preset="quintic", bounds=(bad_bound,)),
        CliCase(("certify", "--config", cfg_text, "--mode", "auto") + _bound_args(mixed) + ("--json",),
                "certify", True, geom=g3, bounds=mixed),
        CliCase(("eval", "--op", "chi", "--preset", "quintic", "--ch", ",".join(chs[0])), "eval",
                False, preset="quintic", op="chi", ch=chs[0]),
        CliCase(("eval", "--op", "mu", "--preset", "ci223", "--ch", ",".join(chs[1]), "--json"),
                "eval", True, preset="ci223", op="mu", ch=chs[1]),
        CliCase(("eval", "--op", "nu") + _flags(g1) + ("--ch", ",".join(chs[2]), "--t", t), "eval",
                False, geom=g1, op="nu", ch=chs[2], t=t),
        CliCase(("eval", "--op", "bg", "--config", cfg_json, "--ch", ",".join(chs[3]), "--json"),
                "eval", True, geom=g2, op="bg", ch=chs[3]),
        CliCase(("eval", "--op", "ineq12", "--ch", ",".join(chs[4])), "eval", False, op="ineq12",
                ch=chs[4]),
        CliCase(("eval", "--op", "chi", "--preset", "quintic", "--ch", f"1,1,{rng.choice('xyz')}bad,0"),
                "malformed", False),
        # c2h one off the Riemann-Roch lattice: d/6 + c2h/12 is not an integer.
        CliCase(("geom", "--d", str(bad_g.d), "--c2h", str(bad_g.c2h + 1)), "malformed", False),
    ]
    return cases, files


def _bounds_kept(rng: random.Random, d: int) -> tuple[tuple[int, int], ...]:
    """Supplied curve bounds that all satisfy chi_min >= d/6 - beta."""
    betas = range(1, (d + 1) // 2)
    if not betas:
        return ()
    beta = rng.choice(betas)
    return ((beta, _ceil_div(d - 6 * beta, 6) + rng.randint(0, 2)),)


def _bound_args(bounds) -> tuple[str, ...]:
    out: tuple[str, ...] = ()
    for beta, chi in bounds:
        out += ("--curve-bound", f"{beta}:{chi}")
    return out


# ---------------------------------------------------------------------------
# The program's own input objects, built once bgcert is imported.


def build_certify_inputs(bgcert, cases):
    """(PolarizedCY3, [CurveBound], library mode) per case."""
    geometry = bgcert.geometry
    return [
        (
            geometry.PolarizedCY3.derive(c.geom.d, c.geom.c2h, c.geom.known),
            [geometry.CurveBound(beta, chi) for beta, chi in c.bounds],
            LIBRARY_MODES[c.mode],
        )
        for c in cases
    ]


def build_tilt_inputs(bgcert, cases):
    """(PolarizedCY3, [t as Fraction], ch3 shift as Fraction) per case."""
    from fractions import Fraction  # already loaded by bgcert

    geometry = bgcert.geometry
    return [
        (
            geometry.PolarizedCY3.derive(c.geom.d, c.geom.c2h, c.geom.known),
            [Fraction(p, q) for p, q in c.ts],
            Fraction(c.ch3_shift, 6),
        )
        for c in cases
    ]
