"""Independent checks of every output the benchmark reads.

Nothing here imports `bgcert`. Each expected value is derived from the
workload's inputs by the formulas of the method (thresholds, Riemann-Roch,
the candidate count, the tilt-slope zero locus) or checked as a property the
method must have. Text outputs are parsed from their documented layout.
Every check raises `CheckError` with a message naming what disagreed.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction as Q

INF = "+inf"


class CheckError(Exception):
    """An output disagrees with its independently derived value."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


_RAT = re.compile(r"(-?\d+)(?:/(\d+))?")


def rat(text):
    """Parse "p", "p/q" or "+inf" without help from the program."""
    if text == INF:
        return INF
    m = _RAT.fullmatch(str(text))
    expect(m is not None, f"not a rational: {text!r}")
    return Q(int(m[1]), int(m[2] or 1))


def ceil_q(x: Q) -> int:
    return -((-x.numerator) // x.denominator)


def sign(x) -> int:
    return (x > 0) - (x < 0)


# ---------------------------------------------------------------------------
# Geometry: presets from the ambient Chern classes, dim|H| from Riemann-Roch.

# name -> (n of P^n, degrees of the defining equations, curve hypothesis asserted)
PRESETS = {
    "quintic": (4, (5,), True),
    "ci24": (5, (2, 4), False),
    "ci223": (6, (2, 2, 3), False),
}


def ci_invariants(n: int, degrees) -> tuple[int, int]:
    """(H^3, c2(X).H) of a complete-intersection threefold in P^n.

    c(X) = (1+h)^(n+1) / prod(1 + a h); its h^2 coefficient, times H^3, is c2.H.
    """
    s1 = sum(degrees)
    s2 = sum(a * b for i, a in enumerate(degrees) for b in degrees[i + 1:])
    c2 = (n + 1) * n // 2 - (n + 1) * s1 + (s1 * s1 - s2)
    d = 1
    for a in degrees:
        d *= a
    return d, c2 * d


class Geom:
    """(d, c2h, dim|H|, asserted) resolved from a preset or from the inputs."""

    def __init__(self, d: int, c2h: int, known: bool):
        chi = Q(d, 6) + Q(c2h, 12)  # chi(O(H)) = dim|H| + 1
        expect(chi.denominator == 1 and chi >= 1, f"input geometry ({d}, {c2h}) is not valid")
        self.d, self.c2h, self.dimh, self.known = d, c2h, int(chi) - 1, known

    @classmethod
    def of(cls, preset, geom) -> "Geom":
        if preset is not None:
            n, degrees, known = PRESETS[preset]
            d, c2h = ci_invariants(n, degrees)
            return cls(d, c2h, known)
        return cls(geom.d, geom.c2h, geom.known)


def full_threshold(d: int) -> Q:
    return Q(7 * d, 6) - 3


def even_threshold(d: int) -> Q:
    return Q(2 * d, 3) - 3


# ---------------------------------------------------------------------------
# Candidates.


def candidate_count(d: int) -> int:
    """Sum over c2.H = c of the ranks r >= 1 with r (d - 2c) <= d: floor(d / (d - 2c))."""
    return sum(d // (d - 2 * c) for c in range((d + 1) // 2))


def check_candidate_rows(d: int, rows) -> None:
    """rows: (r, c2H, ch2H as "p/q" text, as a Fraction, or None).

    Together with the closed-form count, the two constraints and the strict
    order pin the exact set and its order. ch2H must be d/2 - c2H.
    """
    expect(len(rows) == candidate_count(d),
           f"d={d}: {len(rows)} candidates, expected {candidate_count(d)}")
    prev = (0, -1)
    for r, c, ch2h in rows:
        expect(2 * c < d and c >= 0, f"d={d}: candidate ({r}, {c}) has ch2H <= 0")
        expect(r >= 1 and 2 * r * c >= (r - 1) * d, f"d={d}: candidate ({r}, {c}) breaks 2rc >= (r-1)d")
        if ch2h is not None:
            twice = d - 2 * c  # ch2H = twice / 2, in lowest terms
            if isinstance(ch2h, str):
                ok = ch2h == (str(twice // 2) if twice % 2 == 0 else f"{twice}/2")
            else:
                ok = ch2h == Q(twice, 2)
            expect(ok, f"d={d}: candidate ({r}, {c}) has ch2H {ch2h}")
        expect((r, c) > prev, f"d={d}: candidate ({r}, {c}) out of order after {prev}")
        prev = (r, c)


def json_rows(items) -> list:
    return [(c["r"], c["c2H"], c["ch2H"]) for c in items]


_ENUM_LINE = re.compile(r"\((\d+), (\d+)\)  ch2H = (-?\d+(?:/\d+)?)")


def text_rows(stdout: str) -> list:
    lines = stdout.rstrip("\n").split("\n")
    m = re.fullmatch(r"(\d+) candidate\(s\)", lines[-1])
    expect(m is not None, f"enumerate: bad last line {lines[-1]!r}")
    rows = []
    match = _ENUM_LINE.fullmatch
    for line in lines[:-1]:
        row = match(line)
        expect(row is not None, f"enumerate: bad line {line!r}")
        rows.append((int(row[1]), int(row[2]), row[3]))
    expect(int(m[1]) == len(rows), f"enumerate: footer says {m[1]}, listed {len(rows)}")
    return rows


# ---------------------------------------------------------------------------
# Certificates.

MODE_NAMES = {"full": ("full_1_3", "full"), "even": ("even_variant", "even")}
VERDICT_EXIT = {"CERTIFIED_STRICT": 0, "CERTIFIED": 0, "CONDITIONAL": 1, "HYPOTHESIS_FAIL": 2}


def expected_certificate(g: Geom, mode: str, bounds) -> dict:
    """Everything a certificate states, re-derived from (d, c2h, dim|H|, flag, bounds, mode)."""
    d, dimh = g.d, g.dimh
    full_holds = dimh >= full_threshold(d)
    even_applicable = d % 2 == 0
    if mode == "auto":
        mode = "full" if full_holds or not even_applicable else "even"
    if mode == "full":
        applicable, threshold, holds = True, full_threshold(d), full_holds
    else:
        threshold = even_threshold(d)
        applicable, holds = even_applicable, even_applicable and dimh >= threshold
    supplied: dict[int, int] = {}
    for beta, chi in bounds:
        supplied[beta] = min(chi, supplied.get(beta, chi))
    rows = []
    for beta in range(1, (d + 1) // 2):  # 1 <= beta < d/2
        if beta in supplied:
            chi, source = supplied[beta], "supplied"
        else:
            chi, source = ceil_q(Q(d, 6) - beta), "default"
        bound = Q(d, 6) - beta - chi  # ch3 <= d/6 - beta - chi_min; the rule chi_min >= d/6 - beta
        rows.append((beta, chi, bound, bound <= 0, source))
    violated = [row[0] for row in rows if row[4] == "supplied" and not row[3]]
    hypothesis_ok = holds and not violated
    min_ch2h = Q(1, 2) if d % 2 else Q(1)
    ext1_cap = Q(d) / (2 * min_ch2h) - 2
    worst = (Q(7 * d, 6) if d % 2 else Q(2 * d, 3)) - dimh - 3
    if not hypothesis_ok:
        verdict = "HYPOTHESIS_FAIL"
    elif not g.known:
        verdict = "CONDITIONAL"
    elif all(row[2] <= 0 for row in rows) and worst <= 0:
        verdict = "CERTIFIED_STRICT"
    else:
        verdict = "CERTIFIED"
    if violated:
        status = "unchecked"
    else:
        status = "asserted" if g.known else "assumed"
    return {
        "mode": mode, "applicable": applicable, "threshold": threshold, "holds": holds,
        "hypothesis_ok": hypothesis_ok, "status": status, "rows": rows, "violated": violated,
        "min_ch2H": min_ch2h, "ext1_cap": ext1_cap, "worst": worst,
        "impossible": ext1_cap < 0, "case3_ok": ext1_cap < 0 or worst <= 0,
        "verdict": verdict, "exit": VERDICT_EXIT[verdict],
    }


def check_certificate_json(report: dict, g: Geom, mode: str, bounds) -> dict:
    e = expected_certificate(g, mode, bounds)
    geo = report["geometry"]
    expect((geo["d"], geo["c2XH"], geo["dimH"], geo["castelnuovo_known"]) == (g.d, g.c2h, g.dimh, g.known),
           f"certificate geometry {geo} != ({g.d}, {g.c2h}, {g.dimh}, {g.known})")
    hyp = report["hypothesis"]
    names = MODE_NAMES[e["mode"]]
    expect(report["hypothesis_mode"] in names and hyp["mode"] in names,
           f"mode {report['hypothesis_mode']} != {names[0]}")
    expect(hyp["applicable"] == e["applicable"] and hyp["dimH"] == g.dimh, f"hypothesis {hyp}")
    expect(rat(hyp["threshold"]) == e["threshold"], f"threshold {hyp['threshold']} != {e['threshold']}")
    expect(hyp["holds"] == e["holds"] and report["hypothesis_ok"] == e["hypothesis_ok"],
           f"hypothesis holds {hyp['holds']}/{report['hypothesis_ok']}, expected {e['holds']}/{e['hypothesis_ok']}")
    expect(report["castelnuovo_status"] == e["status"],
           f"castelnuovo status {report['castelnuovo_status']} != {e['status']}")
    c1 = report["case1"]
    expect(c1["holds_for_all_lengths"] is True and c1["equality_lengths"] == [0]
           and rat(c1["equality_value"]) == Q(g.d, 6), f"case 1 {c1}")
    got = [(r["beta"], r["chi_min"], rat(r["ch3_bound"]), r["ok"], r["source"]) for r in report["case2"]]
    expect(got == e["rows"], f"case 2 rows {got} != {e['rows']}")
    c3 = report["case3"]
    expect(rat(c3["worst_bound"]) == e["worst"], f"worst_bound {c3['worst_bound']} != {e['worst']}")
    expect((rat(c3["min_ch2H"]), c3["ch0F"], rat(c3["ext1_cap"]), c3["impossible"], c3["ok"])
           == (e["min_ch2H"], 2, e["ext1_cap"], e["impossible"], e["case3_ok"]), f"case 3 {c3}")
    check_candidate_rows(g.d, json_rows(report["candidates"]))
    expect(report["violated_betas"] == e["violated"], f"violated {report['violated_betas']} != {e['violated']}")
    expect(report["verdict"] == e["verdict"], f"verdict {report['verdict']} != {e['verdict']}")
    return e


def check_certificate_text(stdout: str, g: Geom, mode: str, bounds) -> dict:
    e = expected_certificate(g, mode, bounds)
    lines = stdout.rstrip("\n").split("\n")

    def line(pattern: str):
        found = [m for m in (re.fullmatch(pattern, x) for x in lines) if m]
        expect(len(found) == 1, f"certify text: {len(found)} lines match {pattern!r}")
        return found[0]

    expect(line(r"hypothesis mode: (\S+)")[1] in MODE_NAMES[e["mode"]], "certify text: mode")
    if e["applicable"]:
        m = line(r"linear-system hypothesis: dim\|H\| = (-?\d+) vs threshold (\S+) -> (pass|fail)")
        expect((int(m[1]), rat(m[2]), m[3] == "pass") == (g.dimh, e["threshold"], e["holds"]),
               f"certify text: hypothesis {m[0]!r}")
    else:
        line(r"linear-system hypothesis: not applicable.*")
    expect(line(r"castelnuovo status: (\w+)")[1] == e["status"], "certify text: castelnuovo status")
    rows = [
        (int(m[1]), int(m[2]), rat(m[4]), m[5] == "ok", m[3])
        for m in (re.fullmatch(r"  beta = (\d+): chi_min = (-?\d+) \((\w+)\), ch3 bound = (\S+) -> (ok|VIOLATED)", x)
                  for x in lines) if m
    ]
    expect(rows == e["rows"], f"certify text: case 2 rows {rows} != {e['rows']}")
    expect(rat(line(r"Case 3 .*worst ch3 bound = (\S+) -> .*")[1]) == e["worst"], "certify text: worst bound")
    pairs = re.findall(r"\((\d+),(\d+)\)", line(r"candidates \(r, c2H\): (.*)")[1])
    check_candidate_rows(g.d, [(int(r), int(c), None) for r, c in pairs])
    expect(line(r"verdict: (\w+)")[1] == e["verdict"], "certify text: verdict")
    return e


# ---------------------------------------------------------------------------
# geom and eval reports.


def check_geom(stdout: str, as_json: bool, g: Geom) -> None:
    d = g.d
    full, even = full_threshold(d), even_threshold(d)
    even_app = d % 2 == 0
    if as_json:
        rep = json.loads(stdout)
        expect((rep["d"], rep["c2XH"], rep["dimH"], rep["chi_OH"], rep["castelnuovo_known"])
               == (d, g.c2h, g.dimh, g.dimh + 1, g.known), f"geom {rep}")
        hf, he = rep["hypothesis_full"], rep["hypothesis_even"]
        expect(rat(hf["threshold"]) == full and hf["holds"] == (g.dimh >= full), f"geom full {hf}")
        expect(he["applicable"] == even_app, f"geom even {he}")
        if even_app:
            expect(rat(he["threshold"]) == even and he["holds"] == (g.dimh >= even), f"geom even {he}")
        return
    lines = stdout.rstrip("\n").split("\n")
    m = re.fullmatch(r"geometry \S+: d = (\d+), c2\(X\)\.H = (-?\d+), dim\|H\| = (\d+), chi\(O\(H\)\) = (\d+)", lines[0])
    expect(m is not None and tuple(map(int, m.groups())) == (d, g.c2h, g.dimh, g.dimh + 1), f"geom {lines[0]!r}")
    expect(lines[1] == f"castelnuovo bound known: {'yes' if g.known else 'no'}", f"geom {lines[1]!r}")
    m = re.fullmatch(r"hypothesis dim\|H\| >= 7d/6 - 3: (pass|fail) \((\d+) vs (\S+)\)", lines[2])
    expect(m is not None and (m[1] == "pass", rat(m[3])) == (g.dimh >= full, full), f"geom {lines[2]!r}")
    if even_app:
        m = re.fullmatch(r"even-degree variant dim\|H\| >= 2d/3 - 3: (pass|fail) \((\d+) vs (\S+)\)", lines[3])
        expect(m is not None and (m[1] == "pass", rat(m[3])) == (g.dimh >= even, even), f"geom {lines[3]!r}")
    else:
        expect(lines[3].endswith("n/a (odd degree)"), f"geom {lines[3]!r}")


def expected_eval(op: str, g: Geom | None, ch, t) -> dict:
    ch0, c1, ch2h, ch3 = ch
    if op == "chi":
        return {"value": ch3 + Q(c1 * g.c2h, 12)}
    if op == "mu":
        return {"value": INF if ch0 == 0 else Q(c1 * g.d, ch0)}
    if op == "nu":
        return {"value": INF if c1 == 0 else (ch2h - t * t * Q(g.d * ch0, 6)) / (c1 * t * g.d)}
    if op == "bg":
        value = c1 * c1 * g.d - 2 * ch0 * ch2h
        return {"value": value, "bg_ok": value >= 0}
    rhs = ch2h / (3 * ch0)
    return {"lhs": ch3, "rhs": rhs, "holds": ch3 <= rhs, "equality": ch3 == rhs}


def check_eval(stdout: str, as_json: bool, op: str, g: Geom | None, ch_text, t_text) -> None:
    ch = tuple(rat(x) for x in ch_text)
    t = rat(t_text) if t_text is not None else None
    e = expected_eval(op, g, ch, t)
    if as_json:
        rep = json.loads(stdout)
        expect(rep["op"] == op and tuple(rat(rep["ch"][k]) for k in ("ch0", "c1", "ch2H", "ch3")) == ch,
               f"eval {rep}")
        got = {k: (rat(rep[k]) if isinstance(rep[k], str) else rep[k]) for k in e}
        expect(got == e, f"eval {op}: {got} != {e}")
        return
    text = stdout.rstrip("\n")
    if op == "nu":
        m = re.fullmatch(r"nu\(t = (\S+)\) = (\S+)", text)
        expect(m is not None and rat(m[1]) == t and rat(m[2]) == e["value"], f"eval {text!r} != {e}")
    elif op == "bg":
        m = re.fullmatch(r"bg discriminant = (\S+) \(bg_ok: (pass|fail)\)", text)
        expect(m is not None and (rat(m[1]), m[2] == "pass") == (e["value"], e["bg_ok"]), f"eval {text!r}")
    elif op == "ineq12":
        m = re.fullmatch(r"ineq12: lhs = (\S+), rhs = (\S+) -> (.*)", text)
        relation = "equality" if e["equality"] else ("holds strictly" if e["holds"] else "violated")
        expect(m is not None and (rat(m[1]), rat(m[2]), m[3]) == (e["lhs"], e["rhs"], relation), f"eval {text!r}")
    else:
        m = re.fullmatch(rf"{op} = (\S+)", text)
        expect(m is not None and rat(m[1]) == e["value"], f"eval {text!r} != {e}")


# ---------------------------------------------------------------------------
# One CLI run, whatever its subcommand.


def check_cli(case, code: int, stdout: str, stderr: str) -> int:
    """Check exit code and output of one command line; returns the candidates it listed."""
    if case.command == "malformed":
        expect(code == 3, f"{' '.join(case.argv)}: exit {code}, expected 3")
        expect(stdout == "" and stderr.startswith("error: "), f"{case.argv}: malformed input output")
        return 0
    expect(stderr == "", f"{' '.join(case.argv)}: stderr {stderr[:200]!r}")
    g = Geom.of(case.preset, case.geom) if (case.preset or case.geom) else None
    if case.command == "geom":
        expect(code == 0, f"geom exit {code}")
        check_geom(stdout, case.json, g)
        return 0
    if case.command == "enumerate":
        expect(code == 0, f"enumerate exit {code}")
        rows = json_rows(json.loads(stdout)) if case.json else text_rows(stdout)
        check_candidate_rows(g.d, rows)
        return len(rows)
    if case.command == "certify":
        if case.json:
            e = check_certificate_json(json.loads(stdout), g, case.mode, case.bounds)
        else:
            e = check_certificate_text(stdout, g, case.mode, case.bounds)
        expect(code == e["exit"], f"{' '.join(case.argv)}: exit {code}, expected {e['exit']} ({e['verdict']})")
        return candidate_count(g.d)
    expect(code == 0, f"eval exit {code}")
    check_eval(stdout, case.json, case.op, g, case.ch, case.t)
    return 0


# ---------------------------------------------------------------------------
# tilt-scan: Chern identities and tilt-slope properties on plain data.


def check_tilt(case, result) -> None:
    """result is the plain form of one tilt-scan operation (see workloads.tilt_plain)."""
    g = Geom(case.geom.d, case.geom.c2h, case.geom.known)
    d = g.d
    cands, rows, sandwiches, windows = result
    check_candidate_rows(d, cands)
    ts = [Q(p, q) for p, q in case.ts]
    shift = Q(case.ch3_shift, 6)
    expected_ch = [(1, n, Q(n * n * d, 2), Q(n ** 3 * d, 6)) for n in case.twists]
    expected_ch += [(1, 1, Q(d, 2), Q(d, 6) - length) for length in case.lengths]
    expected_ch += [(1, 1, Q(d, 2) - beta, Q(d, 6) - beta - chi) for beta, chi in case.curves]
    expected_ch += [(r, 1, ch2h, ch2h / (3 * r) - shift) for r, _, ch2h in cands]
    expect([row[0] for row in rows] == expected_ch, f"tilt d={d}: Chern vectors differ")
    for i, (ch, nus, tsq, bg, chi, roundtrip, dual2, ineq) in enumerate(rows):
        ch0, c1, ch2h, ch3 = ch
        for t, (nu, nu2) in zip(ts, nus):
            expect(nu == nu2, f"tilt d={d} ch={ch} t={t}: nu(2ch) = {nu2} != nu(ch) = {nu}")
            if c1 == 0:
                expect(nu == INF, f"tilt d={d} ch={ch}: nu = {nu} on a c1 = 0 class")
            else:
                side = sign(ch2h - t * t * Q(d * ch0, 6))  # which side of t^2 = 6 ch2H / (d ch0)
                expect(nu != INF and sign(nu) == side * sign(c1),
                       f"tilt d={d} ch={ch} t={t}: sign of nu = {nu} is wrong")
        if ch2h > 0:
            expect(tsq == Q(6) * ch2h / (d * ch0), f"tilt d={d} ch={ch}: nu_zero_tsq {tsq}")
        expect(bg == c1 * c1 * d - 2 * ch0 * ch2h, f"tilt d={d} ch={ch}: bg {bg}")
        expect(chi == ch3 + Q(c1 * g.c2h, 12), f"tilt d={d} ch={ch}: chi {chi}")
        if i < len(case.twists):
            n = case.twists[i]
            expect(bg == 0 and chi == Q(n ** 3 * d, 6) + Q(n * g.c2h, 12), f"tilt d={d}: O({n}H)")
        expect(roundtrip == ch, f"tilt d={d} ch={ch}: Chern-class round trip gave {roundtrip}")
        expect(dual2 == ch, f"tilt d={d} ch={ch}: dual is not an involution")
        rhs = ch2h / (3 * ch0)
        expect(ineq == (ch3, rhs, ch3 <= rhs, ch3 == rhs), f"tilt d={d} ch={ch}: ineq12 {ineq}")
    # sandwich_check(O(-H), candidate class, t): nu(-O(-H)) <= 0 <= nu(class).
    minus_sub = (-1, 1, Q(-d, 2), Q(d, 6))
    expected = []
    for ch in expected_ch[len(expected_ch) - len(cands):]:
        for t in ts:
            left = sign(minus_sub[2] - t * t * Q(d * minus_sub[0], 6)) <= 0
            right = sign(ch[2] - t * t * Q(d * ch[0], 6)) * sign(ch[1]) >= 0
            expected.append(left and right)
    expect(list(sandwiches) == expected, f"tilt d={d}: sandwich orderings differ")
    ranks = sorted({r for r, _, _ in cands})
    expect([w[0] for w in windows] == ranks, f"tilt d={d}: window ranks")
    for r, lemma1, lemma2 in windows:
        expect(list(lemma1) == [(1, r)] and list(lemma2) == [], f"tilt d={d}: slope windows at r={r}")
