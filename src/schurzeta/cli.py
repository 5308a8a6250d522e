"""Command-line front end: enumeration, crystal graphs, insertion traces,
LR coefficients, zeta evaluation, identity verification, and the selftest.

Exit codes: 0 when the requested checks pass, 1 on a verification
mismatch, 2 on malformed input or violated preconditions, 3 on an internal
error (any other exception), so that a crash never reads as a mismatch.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from . import acceptance, crystal, insertion, zeta
from .partitions import as_partition, is_int
from .tableaux import as_tableau, count_ssyt, enumerate_ssyt, lr_coefficient, shape_of


def _parse_shape(text: str):
    text = text.strip()
    if text in ("", "-"):
        return ()
    try:
        return as_partition(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad shape {text!r}: {exc}") from None


def _parse_word(text: str):
    try:
        return tuple(int(x) for x in text.strip().split(","))
    except ValueError:
        raise ValueError(f"bad word {text!r}: expected comma-separated integers") from None


def _load_json(value: str, flag: str):
    value = value.strip()
    if value.startswith(("{", "[")):
        return json.loads(value)
    if os.path.exists(value):
        with open(value, encoding="utf-8") as fh:
            return json.load(fh)
    raise ValueError(f"{flag}: {value!r} is neither inline JSON nor a file")


def _parse_tableau(value: str, flag: str):
    data = _load_json(value, flag)
    rows = data.get("rows") if isinstance(data, dict) else data
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError(f"{flag}: expected rows of integers, e.g. [[1,2],[3]]")
    if isinstance(data, dict) and "shape" in data:
        # the shape of the rows as the tableau check reads them
        if data["shape"] != list(shape_of(as_tableau(rows))):
            raise ValueError(f"{flag}: declared shape does not match rows")
    return rows


def _parse_assign(value: str, flag: str) -> dict:
    data = _load_json(value, flag)
    if not isinstance(data, dict):
        raise ValueError(f"{flag}: expected a JSON object of exponents")
    return data


def _tableau_json(t):
    return {"shape": list(shape_of(t)), "rows": [list(r) for r in t]}


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return repr(value)


def _emit(payload, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurzeta",
        description="Exact combinatorics of tableaux, crystals, and "
        "truncated Schur multiple zeta identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ssyt", help="enumerate semistandard tableaux")
    p.add_argument("--shape", required=True)
    p.add_argument("--n", type=int, required=True, help="largest entry")
    p.add_argument("--count", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("crystal", help="crystal graphs")
    csub = p.add_subparsers(dest="crystal_command", required=True)
    g = csub.add_parser("graph", help="connected component / tableau crystal")
    src = g.add_mutually_exclusive_group(required=True)
    src.add_argument("--shape", help="row-reading image of the tableau crystal")
    src.add_argument("--word", help="component of this tensor word")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--dot", help="write DOT graph to this path")
    g.add_argument("--json", action="store_true")

    p = sub.add_parser("insert", help="Schensted insertion traces")
    isub = p.add_subparsers(dest="insert_command", required=True)
    for name in ("row", "column"):
        q = isub.add_parser(name)
        q.add_argument("--tableau", required=True, help="JSON rows or a file")
        q.add_argument("--word", required=True)
        q.add_argument("--routes", action="store_true")
        q.add_argument("--json", action="store_true")

    p = sub.add_parser("lr", help="Littlewood-Richardson coefficients")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("zeta", help="Schur multiple zeta evaluation")
    zsub = p.add_subparsers(dest="zeta_command", required=True)
    q = zsub.add_parser("eval")
    q.add_argument("--shape", required=True)
    q.add_argument("--exponents", required=True, help="JSON rows of exponents")
    q.add_argument("--n", type=int, help="truncation level")
    mode = q.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--float", dest="as_float", action="store_true")
    q.add_argument(
        "--tol", type=float,
        help="limit mode: stop once the error estimate is below this",
    )
    q.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="exact identity verification")
    vsub = p.add_subparsers(dest="verify_command", required=True)
    for name in ("pieri-h", "pieri-e"):
        q = vsub.add_parser(name)
        q.add_argument("--lambda", dest="lam", required=True)
        if name == "pieri-h":
            q.add_argument("--m", type=int, required=True)
        else:
            q.add_argument("--n", type=int, required=True)
        q.add_argument("--n-trunc", type=int, required=True)
        q.add_argument("--assign", required=True)
        q.add_argument("--json", action="store_true")
    q = vsub.add_parser("lr")
    q.add_argument("--mu", required=True)
    q.add_argument("--nu", required=True)
    q.add_argument("--n-trunc", type=int, required=True)
    q.add_argument("--assign", required=True)
    q.add_argument("--json", action="store_true")

    p = sub.add_parser("selftest", help="run the acceptance grid")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    return parser


def _cmd_ssyt(args) -> int:
    shape = _parse_shape(args.shape)
    if args.count:
        count = count_ssyt(shape, args.n)
        _emit({"count": count}, args.json, [str(count)])
        return 0
    tabs = enumerate_ssyt(shape, args.n)
    payload = [_tableau_json(t) for t in tabs]
    lines = [" / ".join(" ".join(str(x) for x in row) for row in t) or "(empty)" for t in tabs]
    _emit(payload, args.json, lines)
    return 0


def _cmd_crystal(args) -> int:
    n = args.n
    if args.shape is not None:
        shape = _parse_shape(args.shape)
        if not shape:
            raise ValueError("--shape must be nonempty: crystal words have one letter or more")
        tabs = enumerate_ssyt(shape, n)
        if not tabs:
            raise ValueError(f"no tableaux of shape {shape} with entries <= {n}")
        by_word = {crystal.rr(t, n): t for t in tabs}
        words = set(by_word)
        label = lambda w: "/".join(" ".join(str(x) for x in row) for row in by_word[w])
    else:
        start = _parse_word(args.word)
        words = crystal.connected_component(start, n)
        label = None
    dot = crystal.crystal_dot(words, n, label=label)
    # one DOT line per edge; the labels sit after the "["
    edges = sum(" -> " in line.partition("[")[0] for line in dot.splitlines())
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot)
    payload = {
        "nodes": len(words),
        "edges": edges,
        "highest_weight": [list(w) for w in crystal.highest_weight_elements(words, n)],
    }
    lines = [f"nodes {len(words)}  edges {edges}"]
    if args.dot:
        lines.append(f"dot written to {args.dot}")
    _emit(payload, args.json, lines)
    return 0


def _cmd_insert(args) -> int:
    t = _parse_tableau(args.tableau, "--tableau")
    word = _parse_word(args.word)
    if args.insert_command == "row":
        result, routes = insertion.row_insert_word(t, word)
    else:
        result, routes = insertion.column_insert_word(word, t)
    payload = {"tableau": _tableau_json(result)}
    lines = [" / ".join(" ".join(str(x) for x in row) for row in result) or "(empty)"]
    if args.routes:
        payload["routes"] = [[list(c) for c in route] for route in routes]
        for k, route in enumerate(routes):
            lines.append(f"route {k + 1}: " + " ".join(f"({r},{c})" for r, c in route))
    _emit(payload, args.json, lines)
    return 0


def _cmd_lr(args) -> int:
    mu, nu = _parse_shape(args.mu), _parse_shape(args.nu)
    if args.lam is not None:
        c = lr_coefficient(mu, nu, _parse_shape(args.lam))
        _emit({"coefficient": c}, args.json, [str(c)])
        return 0
    # no shape of the product has more than len(mu) + len(nu) rows, and
    # n is at least 1 even when both shapes are empty
    expansion = crystal.decompose_product(mu, nu, max(1, len(mu) + len(nu)))
    # the empty shape is written "-", as on the input side
    table = {",".join(map(str, lam)) or "-": c for lam, c in sorted(expansion.items(), reverse=True)}
    lines = [f"{k} {v}" for k, v in table.items()]
    _emit(table, args.json, lines)
    return 0


def _cmd_zeta(args) -> int:
    shape = _parse_shape(args.shape)
    exps = _load_json(args.exponents, "--exponents")
    if not isinstance(exps, list) or not all(isinstance(r, list) for r in exps):
        raise ValueError("--exponents: expected JSON rows, e.g. [[2,3],[4]]")
    if tuple(len(r) for r in exps) != shape:
        raise ValueError("--exponents rows must match --shape")
    if args.exact and not all(is_int(x) for row in exps for x in row):
        raise ValueError("--exact needs integer exponents")
    var_rows = zeta.grid_vars(shape, "x")
    assign = {
        var: exps[i][j]
        for i, row in enumerate(var_rows)
        for j, var in enumerate(row)
    }
    if args.as_float:
        # ints only: anything else goes to zeta's one check unchanged
        try:
            assign = {k: float(v) if is_int(v) else v for k, v in assign.items()}
        except OverflowError:
            raise ValueError("--float needs exponents below 2**1024") from None
    if args.tol is not None:
        if not args.as_float:
            raise ValueError("--tol (limit mode) needs --float")
        if args.n is not None:
            raise ValueError("--tol (limit mode) and --n exclude each other")
        rep = zeta.eval_zeta_limit(shape, var_rows, assign, args.tol)
        payload = rep._asdict()
        lines = [
            f"{rep.value!r}  (level {rep.levels}, error estimate "
            f"{rep.error_estimate:.3e}, converged={rep.converged})"
        ]
        _emit(payload, args.json, lines)
        return 0
    if args.n is None:
        raise ValueError("--n is required unless --float --tol is given")
    value = zeta.eval_zeta_truncated(shape, var_rows, assign, args.n)
    if isinstance(value, Fraction):
        payload = {"value": _fmt(value)}
    else:
        payload = {"value": value}
    _emit(payload, args.json, [_fmt(value)])
    return 0


def _report_exit(rep, args) -> int:
    payload = {
        "lhs": _fmt(rep.lhs),
        "rhs": _fmt(rep.rhs),
        "equal": rep.equal,
    }
    if rep.note:
        payload["note"] = rep.note
    lines = [f"lhs = {_fmt(rep.lhs)}", f"rhs = {_fmt(rep.rhs)}"]
    lines.append("identity holds" if rep.equal else "MISMATCH")
    if rep.note:
        lines.append(f"note: {rep.note}")
    _emit(payload, args.json, lines)
    return 0 if rep.equal else 1


def _cmd_verify(args) -> int:
    assign = _parse_assign(args.assign, "--assign")
    if args.verify_command == "pieri-h":
        rep = zeta.verify_pieri_h(_parse_shape(args.lam), args.m, assign, args.n_trunc)
    elif args.verify_command == "pieri-e":
        rep = zeta.verify_pieri_e(_parse_shape(args.lam), args.n, assign, args.n_trunc)
    else:
        rep = zeta.verify_lr(_parse_shape(args.mu), _parse_shape(args.nu), assign, args.n_trunc)
    return _report_exit(rep, args)


def _cmd_selftest(args) -> int:
    results = acceptance.run_all(quick=args.quick, seed=args.seed)
    payload = [{**r._asdict(), "seconds": round(r.seconds, 3)} for r in results]
    lines = [f"seed {args.seed}" + ("  (quick subset)" if args.quick else "")]
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"{mark}  {r.number:2d} {r.name:<28} {r.seconds:7.2f}s  {r.detail}")
    failed = [r for r in results if not r.passed]
    lines.append(
        f"{len(results) - len(failed)}/{len(results)} criteria passed"
    )
    _emit(payload, args.json, lines)
    return 0 if not failed else 1


_COMMANDS = {
    "ssyt": _cmd_ssyt,
    "crystal": _cmd_crystal,
    "insert": _cmd_insert,
    "lr": _cmd_lr,
    "zeta": _cmd_zeta,
    "verify": _cmd_verify,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    # an exact result may run past the 4,300 digits to which Python caps
    # int-to-str conversion by default (3.10 builds before 3.10.7 have no cap)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
