"""The three workloads: their inputs, one pass, and the checks on a pass.

A workload builds its inputs from the seed, runs passes over them, and
checks the outputs of a pass against `reference` (computed apart from
the package) or against properties the method must have. Each pass is
called either untraced, with the package's functions used as they are,
or traced, with each function wrapped in a span once per pass, so that
an untraced pass carries no cost from the tracing.

The package is reached only through its public functions. The `verify`
workload runs the command line as users do, one fresh `lastsq` process
per pass; its traced pass runs the same command in a child that wraps
the layers' functions before it calls `lastsquares.cli.main`. The
`census` workload's traced pass also makes the jobs=2 calls of
`parallel_calls` and the same calls at jobs=1, for the per-layer
figures of the pool and prefix-split path.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import lastsquares as ls
from lastsquares import cli

import reference as R
from spans import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

PLUS = ls.ClassFilter(sign=ls.SignClass.PLUS)
MINUS = ls.ClassFilter(sign=ls.SignClass.MINUS)
EVEN = ls.WeightParity.EVEN
ODD = ls.WeightParity.ODD

# Filters as (package filter, reference description): sign, parity, weight.
FILTERS_D = [(None, (None, None, None)), (PLUS, ("plus", None, None)), (MINUS, ("minus", None, None))]
FILTERS_B = FILTERS_D + [
    (ls.ClassFilter(weight_parity=EVEN), (None, 0, None)),
    (ls.ClassFilter(weight_parity=ODD), (None, 1, None)),
    (ls.ClassFilter(sign=ls.SignClass.PLUS, weight_parity=ODD), ("plus", 1, None)),
    (ls.ClassFilter(sign=ls.SignClass.MINUS, weight_parity=EVEN), ("minus", 0, None)),
    (ls.ClassFilter(exact_weight=1), (None, None, 1)),
]


class CheckFailed(AssertionError):
    """An output of the package disagrees with the reference."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def traced(tr: Tracer | None, name: str, fn, rollup: bool = False, work=None):
    """fn itself when untraced, else fn with a span around each call."""
    return fn if tr is None else tr.wrap(name, fn, rollup, work)


def family_size(args, _result) -> int:
    family, size, r = args[:3]
    return R.size_b(size, r) if family == "B" else R.size_d(size, r)


def listed(_args, result) -> int:
    return len(result) if result is not None else 0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop(ls.ENV_MAX_CELLS, None)
    return env


class Workload:
    """Defaults shared by the workloads."""

    name = ""
    rss_of_children = False  # True when the workload's work runs in child processes

    def traced_extra(self, inp: dict, tr: Tracer) -> None:
        """Spans to record after each traced pass, outside its timing."""


# ---------------------------------------------------------------------------
# census: counting, stratifying and listing sweeps, and the jobs=2 calls
# ---------------------------------------------------------------------------


class Census(Workload):
    """Sequential count, stratify and list calls over D and B."""

    name = "census"
    SIZES = {
        # count D at m <= count_d, count B at n <= count_b, stratify at
        # n <= strata, list B(list_b, all r) and D(list_d, all r).
        "full": dict(count_d=15, count_b=13, strata=12, list_b=10, list_d=14),
        "small": dict(count_d=8, count_b=7, strata=6, list_b=6, list_d=8),
    }

    def build(self, seed: int, scale: str = "full") -> dict:
        z = self.SIZES[scale]
        rng = random.Random(seed)
        counts = [("D", m, r, f, d) for m in range(1, z["count_d"] + 1)
                  for r in range((m - 1) // 2 + 1) for f, d in FILTERS_D]
        counts += [("B", n, r, f, d) for n in range(1, z["count_b"] + 1)
                   for r in range(n) for f, d in FILTERS_B]
        strata = [(n, r, k) for n in range(1, z["strata"] + 1) for r in range(n)
                  for k in ls.StratumKind if not (k is ls.StratumKind.LAST_BLACK and r == 0)]
        lists = [("B", z["list_b"], r, PLUS, ("plus", None, None)) for r in range(z["list_b"])]
        lists += [("B", z["list_b"], r, f, d) for r in range(z["list_b"])
                  for f, d in FILTERS_B[5:7]]
        lists += [("D", z["list_d"], r, PLUS, ("plus", None, None))
                  for r in range((z["list_d"] - 2) // 2 + 1)]
        for group in (counts, strata, lists):
            rng.shuffle(group)
        return {"counts": counts, "strata": strata, "lists": lists,
                "parallel": parallel_calls(rng, scale)}

    def ops(self, inp: dict) -> int:
        return len(inp["counts"]) + len(inp["strata"]) + len(inp["lists"])

    def run(self, inp: dict, tr: Tracer | None) -> dict:
        return self._sweep(inp, tr, 1, "")

    def _sweep(self, inp, tr, jobs, suffix) -> dict:
        count = traced(tr, "enumeration.count" + suffix, ls.count, work=family_size)
        stratify = traced(tr, "enumeration.stratify" + suffix, ls.stratify)
        list_encodings = traced(tr, "enumeration.list" + suffix, ls.list_encodings, work=listed)
        return {
            "counts": [count(fam, size, r, f, jobs=jobs) for fam, size, r, f, _ in inp["counts"]],
            "strata": [stratify(n, r, k) for n, r, k in inp["strata"]],
            "lists": [list_encodings(fam, size, r, f, jobs=jobs)
                      for fam, size, r, f, _ in inp["lists"]],
        }

    def check(self, inp: dict, out: dict) -> None:
        by_call = {}
        for (fam, size, r, _, desc), got in zip(inp["counts"], out["counts"]):
            want = ref_count(fam, size, r, desc)
            expect(got == want, f"count {fam}({size}, {r}) {desc}: {got} != {want}")
            by_call[(fam, size, r) + desc] = got
        for (fam, size, r, sign, parity, weight), got in by_call.items():
            if sign is None and parity is None and weight is None:
                split = [by_call.get((fam, size, r, s, None, None)) for s in ("plus", "minus")]
                expect(None in split or sum(split) == got, f"plus + minus != total at {fam}({size}, {r})")
        for (n, r, kind), got in zip(inp["strata"], out["strata"]):
            want = R.strata(n, r, kind.value)
            expect(got == want, f"stratify({n}, {r}, {kind.value}): {got} != {want}")
            whole = R.count_b(n, r, parity=0) if kind is ls.StratumKind.WEIGHT else R.count_b(n, r, "plus")
            expect(sum(got.values()) == whole, f"strata of B({n}, {r}) {kind.value} do not sum to {whole}")
        for (fam, size, r, _, desc), got in zip(inp["lists"], out["lists"]):
            check_listing(fam, size, r, desc, got)

    def traced_extra(self, inp: dict, tr: Tracer) -> None:
        """The calls at jobs=2, then at jobs=1 as the base of their speed-up."""
        par = inp["parallel"]
        j2 = self._sweep(par, tr, 2, "_j2")
        j1 = self._sweep(par, tr, 1, "_j1")
        self.check(par, j2)
        expect(j2 == j1, "the calls at jobs=2 gave other outputs than at jobs=1")


def ref_count(fam: str, size: int, r: int, desc: tuple) -> int:
    """Reference count of the members of fam(size, r) passing the filter desc."""
    sign, parity, weight = desc
    return R.count_b(size, r, sign, parity, weight) if fam == "B" else R.count_d(size, r, sign)


def check_listing(fam: str, size: int, r: int, desc: tuple, got: list[str]) -> None:
    sign, parity, weight = desc
    want = ref_count(fam, size, r, desc)
    where = f"list {fam}({size}, {r}) {desc}"
    expect(len(got) == want, f"{where}: {len(got)} members, reference count {want}")
    expect(all(a < b for a, b in zip(got, got[1:])), f"{where}: not strictly increasing")
    for enc in got:
        if fam == "B":
            n, rr, plus, w = R.classify_b(enc)
            ok = (n, rr) == (size, r) and (parity is None or w % 2 == parity) \
                and (weight is None or w == weight)
        else:
            n, rr, plus = R.classify_d(enc)
            ok = (n, rr) == (size, r)
        ok = ok and (sign is None or plus == (sign == "plus"))
        expect(ok, f"{where}: member {enc!r} misclassified")


# Each call at jobs=2 starts a pool, so there are few calls, on the
# largest boards: count D(count_d, r) and B(count_b, r) plus, list
# B(list_b, r) plus and minus-even and D(list_d, r) plus, for all r.
PARALLEL_SIZES = {
    "full": dict(count_d=15, count_b=12, list_b=11, list_d=14),
    "small": dict(count_d=7, count_b=6, list_b=6, list_d=7),
}


def parallel_calls(rng: random.Random, scale: str) -> dict:
    """The census kinds of calls for the pool and prefix-split path."""
    z = PARALLEL_SIZES[scale]
    plus, minus_even = FILTERS_B[1], FILTERS_B[6]
    counts = [("D", z["count_d"], r) + plus for r in range((z["count_d"] - 1) // 2 + 1)]
    counts += [("B", z["count_b"], r) + plus for r in range(z["count_b"])]
    lists = [("B", z["list_b"], r) + f for r in range(z["list_b"]) for f in (plus, minus_even)]
    lists += [("D", z["list_d"], r) + plus for r in range((z["list_d"] - 2) // 2 + 1)]
    for group in (counts, lists):
        rng.shuffle(group)
    return {"counts": counts, "strata": [], "lists": lists}


# ---------------------------------------------------------------------------
# roundtrip: the three bijections through the object API
# ---------------------------------------------------------------------------


def sample_plus_d(rng: random.Random, m: int) -> str:
    """A plus-class family-D encoding on m cells, drawn from rng."""
    while True:
        r = rng.randrange((m - 2) // 2 + 1)
        slots = m - r - 1  # tiles after the forced first black square
        doms = set(rng.sample(range(slots), r))
        enc = "b" + "".join("d" if i in doms else rng.choice("bw") for i in range(slots))
        if R.classify_d(enc)[2]:
            return enc


class Roundtrip(Workload):
    name = "roundtrip"
    SIZES = {
        # marked boards and both maps for m <= boards, conjugation over
        # B(n, all r) for n <= conj, and `sample` plus-class members on
        # each board length of `long`.
        "full": dict(boards=11, conj=9, long=range(20, 25), sample=40),
        "small": dict(boards=6, conj=5, long=range(20, 22), sample=3),
    }

    def build(self, seed: int, scale: str = "full") -> dict:
        z = self.SIZES[scale]
        rng = random.Random(seed)
        grid = [(m, r) for m in range(2, z["boards"] + 1) for r in range((m - 2) // 2 + 1)]
        members = {}
        for n in range(1, z["conj"] + 1):
            for r in range(n):
                members[n, r] = [enc for enc in all_b(n) if enc.count("b") == r]
        sample = [sample_plus_d(rng, m) for m in z["long"] for _ in range(z["sample"])]
        rng.shuffle(sample)
        return {"grid": grid, "members": members, "sample": sample}

    def ops(self, inp: dict) -> int:
        # One operation: the round trips of one board or member, or the
        # conjugation of one member of B.
        boards = sum(R.count_d(m, r, "plus") for m, r in inp["grid"])
        return boards + sum(len(v) for v in inp["members"].values()) + len(inp["sample"])

    def run(self, inp: dict, tr: Tracer | None) -> dict:
        marked = traced(tr, "bijections.marked_boards", lambda m, r: list(ls.enumerate_marked_boards(m, r)))
        b2d = traced(tr, "bijections.board_to_domino", ls.board_to_domino, True)
        d2b = traced(tr, "bijections.domino_to_board", ls.domino_to_board, True)
        d2s = traced(tr, "bijections.domino_to_square", ls.domino_to_square, True)
        s2d = traced(tr, "bijections.square_to_domino", ls.square_to_domino, True)
        conjugate = traced(tr, "bijections.conjugate", ls.conjugate, True)
        encode = traced(tr, "arrangements.encode", ls.encode, True)
        dec_d = traced(tr, "arrangements.decode", ls.decode_domino, True)
        dec_s = traced(tr, "arrangements.decode", ls.decode_square, True)

        boards = {}
        for m, r in inp["grid"]:
            rows = []
            for board in marked(m, r):
                d = b2d(board)
                sq = d2s(d)
                rows.append((board, encode(d), encode(sq), d2b(d) == board, s2d(sq) == d))
            boards[m, r] = rows
        conj = {}
        for key, encs in inp["members"].items():
            rows = []
            for enc in encs:
                out = conjugate(dec_s(enc))
                rows.append((enc, out.kind, encode(out.result) if out.result else out.epsilon))
            conj[key] = rows
        sample = []
        for enc in inp["sample"]:
            d = dec_d(enc)
            board = d2b(d)
            sq = d2s(d)
            sample.append((enc, encode(d), encode(sq), board.m, board.r,
                           b2d(board) == d and s2d(sq) == d))
        return {"boards": boards, "conj": conj, "sample": sample}

    def check(self, inp: dict, out: dict) -> None:
        for (m, r), rows in out["boards"].items():
            n = m - 1 - r
            images_d = [row[1] for row in rows]
            images_s = [row[2] for row in rows]
            expect(len(rows) == R.count_d(m, r, "plus"), f"marked boards of ({m}, {r}): {len(rows)}")
            for name, images in (("board_to_domino", images_d), ("domino_to_square", images_s)):
                expect(len(set(images)) == len(images), f"{name} is not injective at ({m}, {r})")
            expect(set(images_d) == set(ls.list_encodings("D", m, r, PLUS)),
                   f"board_to_domino images of ({m}, {r}) != plus class of D")
            expect(set(images_s) == set(ls.list_encodings("B", n, r, PLUS)),
                   f"domino_to_square images of D({m}, {r}) != plus class of B({n}, {r})")
            for board, _, _, board_back, d_back in rows:
                expect(board_back and d_back, f"round trip broke at {board.serialize()}")
        for (n, r), rows in out["conj"].items():
            exceptional = []
            images = []
            domain = set()
            for enc, kind, payload in rows:
                _, _, plus, w = R.classify_b(enc)
                in_domain = plus == (w % 2 == 1)
                if not in_domain:
                    expect(kind is ls.ConjugationKind.OUTSIDE_DOMAIN, f"conjugate({enc!r}) is {kind}")
                    continue
                domain.add(enc)
                if kind is ls.ConjugationKind.EXCEPTIONAL:
                    exceptional.append((enc, payload))
                    continue
                expect(kind is ls.ConjugationKind.CONJUGATE, f"conjugate({enc!r}) is {kind}")
                n2, r2, plus2, w2 = R.classify_b(payload)
                expect((n2, r2) == (n, r) and plus2 != plus and w2 % 2 != w % 2,
                       f"conjugate({enc!r}) = {payload!r} keeps sign or parity, or moves n or r")
                images.append(payload)
            sign = ls.SignClass.PLUS if r % 2 else ls.SignClass.MINUS
            expect(exceptional == [(R.epsilon(n, r), sign)],
                   f"exceptional members of B({n}, {r}): {exceptional}")
            expect(len(set(images)) == len(images) and set(images) == domain - {R.epsilon(n, r)},
                   f"conjugation of B({n}, {r}) is not a bijection of its domain")
        for enc, enc_d, enc_s, m, r, ok in out["sample"]:
            m0, r0, _ = R.classify_d(enc)
            n, rb, plus, _ = R.classify_b(enc_s)
            expect(enc_d == enc and ok and (m, r) == (m0, r0), f"round trip of {enc!r} broke")
            expect(plus and (n, rb) == (m0 - 1 - r0, r0), f"domino_to_square({enc!r}) = {enc_s!r}")


def all_b(n: int) -> list[str]:
    """Every family-B encoding of length n, built by the benchmark."""
    out = [""]
    for _ in range(n - 1):
        out = [s + c for s in out for c in "btw"]
    return [s + c for s in out for c in "tw"]


# ---------------------------------------------------------------------------
# verify: `lastsq verify all --format json`, one fresh process per pass
# ---------------------------------------------------------------------------

VERIFY_ARGV = ["verify", "all", "--format", "json"]
# The command's default limits (mmax, enum-limit, nmax), from which the
# expected reports follow; the small scale passes its own.
LIMITS = {"full": (200, 12, 12), "small": (24, 8, 5)}
AUX = dict(moriarty=30, companion=30, recurrence=12, gf_r=8, gf_m=40, parity=60)
CLI_COMMAND = "import sys; from lastsquares.cli import main; sys.exit(main())"


class Verify(Workload):
    name = "verify"
    rss_of_children = True

    def build(self, seed: int, scale: str = "full") -> dict:
        # The paper check has no free inputs; the seed changes nothing.
        argv = VERIFY_ARGV
        if scale != "full":
            mmax, enum_limit, nmax = LIMITS[scale]
            argv = argv + ["--mmax", str(mmax), "--enum-limit", str(enum_limit), "--nmax", str(nmax)]
        return {"argv": argv, "limits": LIMITS[scale], "env": child_env()}

    def ops(self, inp: dict) -> int:
        return 1

    def run(self, inp: dict, tr: Tracer | None) -> dict:
        if tr is None:
            proc = subprocess.run([sys.executable, "-c", CLI_COMMAND] + inp["argv"],
                                  capture_output=True, env=inp["env"], check=False)
            return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        frame = tr.open()
        fd, path = tempfile.mkstemp(prefix="spans-", suffix=".json", dir=HERE / "results")
        os.close(fd)
        try:
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--trace-child", path, "--"]
                                  + inp["argv"], capture_output=True, env=inp["env"], check=False)
            with open(path) as fh:
                tr.adopt(json.load(fh))
        finally:
            os.unlink(path)
            tr.close(frame, "cli.subprocess")
        tr.gauge("cli.output_bytes", len(proc.stdout))
        return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    def check(self, inp: dict, out: dict) -> None:
        expect(out["code"] == 0 and out["stderr"] == b"",
               f"verify exited {out['code']}: {out['stderr'][-500:]!r}")
        lines = out["stdout"].decode().splitlines()
        records = [json.loads(line) for line in lines[:-1]]
        summary = parse_summary(lines[-1])
        by_check: dict[str, list[dict]] = {}
        for rec in records:
            expect(sorted(rec) == ["check_name", "detail", "lhs", "paper_ref", "params", "rhs", "status"]
                   and rec["paper_ref"], f"malformed record {rec}")
            by_check.setdefault(rec["check_name"], []).append(rec)
        want = expected_verify(*inp["limits"])
        expect(sorted(by_check) == sorted(want), f"checks {sorted(by_check)} != {sorted(want)}")
        statuses = {"pass": 0, "fail": 0, "skipped": 0}
        for name, recs in by_check.items():
            params = sorted(tuple(sorted(r["params"].items())) for r in recs)
            expect(params == sorted(want[name]), f"{name}: reports do not match the limits")
            for rec in recs:
                statuses[rec["status"]] += 1
                lhs, rhs = want[name][tuple(sorted(rec["params"].items()))]
                skip = name == "strata.last_black" and rec["params"]["r"] == 0
                expect(rec["status"] == ("skipped" if skip else "pass"),
                       f"{name} {rec['params']} is {rec['status']}")
                expect(skip or (rec["lhs"], rec["rhs"]) == (lhs, rhs),
                       f"{name} {rec['params']}: {rec['lhs']}, {rec['rhs']} != reference {lhs}, {rhs}")
        expect(summary == (statuses["pass"], statuses["fail"], statuses["skipped"]),
               f"summary {summary} != records {statuses}")


def parse_summary(line: str) -> tuple[int, int, int]:
    """The summary line, as plain `summary: passed=..` text or as JSON."""
    if line.startswith("{"):
        obj = json.loads(line)
        obj = obj.get("summary", obj)
    else:
        expect(line.startswith("summary: "), f"no summary line: {line!r}")
        obj = dict(kv.split("=") for kv in line[len("summary: "):].split())
    return int(obj["passed"]), int(obj["failed"]), int(obj["skipped"])


def expected_verify(mmax: int, enum_limit: int, nmax: int) -> dict[str, dict[tuple, tuple]]:
    """check name -> params -> (lhs, rhs) that the reports must carry."""
    want: dict[str, dict[tuple, tuple]] = {}

    def put(name, params, lhs, rhs):
        want.setdefault(name, {})[tuple(sorted(params.items()))] = (lhs, rhs)

    for m in range(2, mmax + 1):
        for r in range((m - 2) // 2 + 1):
            n = m - 1 - r
            s = R.series(r, mmax)[m]
            put("theorem.formulas", {"m": m, "r": r}, s, [s] * 4)
            if m <= enum_limit:
                counts = [R.count_d(m, r, "plus")]
                if n <= enum_limit - 2:
                    counts.append(R.count_b(n, r, "plus"))
                put("theorem.enumeration", {"m": m, "r": r}, counts, s)
    for n in range(1, nmax + 1):
        for r in range(n):
            p = {"n": n, "r": r}
            sign_flip = (-1) ** (r + 1)
            put("lemma.cardinality", p, R.count_b(n, r, "plus", 1), R.count_b(n, r, "minus", 0) + sign_flip)
            put("lemma.involution", p, 0, 0)
            put("lemma.exception", p, 1, 1)
            for name, kind in (("non_white", "non-white"), ("last_decorated", "last-decorated"),
                               ("last_black", "last-black"), ("weight_even", "weight")):
                terms = [v for _, v in sorted(R.strata(n, r, kind).items())]
                put("strata." + name, p, terms, terms)
            put("strata.even_count", p, R.count_b(n, r, "plus"), R.count_b(n, r, parity=0) + sign_flip)
    for m in range(1, AUX["moriarty"] + 1):
        for r in range(m // 2 + 1):
            if m > r:
                lhs = sum(R.comb(m, 2 * i) * R.comb(i, r) for i in range(r, m // 2 + 1))
                rhs = Fraction(2) ** (m - 1 - 2 * r) * R.comb(m - r, r) * Fraction(m, m - r)
                put("auxiliary.moriarty", {"m": m, "r": r}, lhs, rhs)
    for n in range(AUX["companion"] + 1):
        for r in range(n + 1):
            put("auxiliary.companion", {"n": n, "r": r}, R.comb(n, r) << (n - r), R.comb(n, r) << (n - r))
    for n in range(1, AUX["recurrence"] + 1):
        put("auxiliary.recurrence", {"n": n}, 0, 0)
    for r in range(AUX["gf_r"] + 1):
        coeffs = list(R.series(r, AUX["gf_m"]))
        put("auxiliary.generating_function", {"r": r, "m_max": AUX["gf_m"]}, coeffs, coeffs)
    for m in range(2, AUX["parity"] + 1):
        for r in range((m - 2) // 2 + 1):
            s = R.series(r, AUX["parity"])[m]
            flags = [s % 2, int((s + (-1) ** r) % (1 << (m - 1 - 2 * r)) == 0)]
            put("auxiliary.parity_divisibility", {"m": m, "r": r}, flags, [1, 1])
    return want


def verify_trace_child(out_path: str, argv: list[str]) -> int:
    """Run `lastsq <argv>` in this process with spans around its layers.

    Each function below is wrapped wherever a module of the package
    holds it, so calls from inside the package are traced as well as
    the command's own. Spans go to out_path when the command ends.
    """
    import lastsquares.bijections
    import lastsquares.formulas
    import lastsquares.verify

    tr = Tracer()
    spans = {
        "verify.theorem": [ls.verify_theorem],
        "verify.lemma": [ls.verify_lemma],
        "verify.strata": [ls.verify_strata],
        "verify.auxiliary": [ls.verify_auxiliary],
        "verify.serialize": [ls.report_to_json],
        "formulas.eval": [ls.eval_S, ls.eval_T, ls.eval_U, ls.eval_V, ls.eval_W],
        "formulas.aux": [ls.moriarty, ls.companion_identity, ls.recurrence_residual,
                         ls.gf_coefficients, ls.oddness_and_divisibility],
        "enumeration.count": [ls.count],
        "bijections.conjugate": [getattr(lastsquares.bijections, "_conjugate_enc", None)],
    }
    coarse = {"verify.theorem", "verify.lemma", "verify.strata", "verify.auxiliary"}
    wrappers = {}
    for name, fns in spans.items():
        for fn in fns:
            if fn is not None:
                work = family_size if name == "enumeration.count" else None
                wrappers[id(fn)] = tr.wrap(name, fn, name not in coarse, work)
    for modname, mod in list(sys.modules.items()):
        if modname == "lastsquares" or modname.startswith("lastsquares."):
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
    frame = tr.open()
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        tr.close(frame, "cli.main")
        info = getattr(lastsquares.formulas.binom, "cache_info", None)
        tr.gauge("formulas.binom_cache_entries", info().currsize if info else 0)
        with open(out_path, "w") as fh:
            json.dump(tr.dump(), fh)
    return code


WORKLOADS = {w.name: w for w in (Verify(), Census(), Roundtrip())}
