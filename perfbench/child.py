"""One pass of a workload in a fresh interpreter.

Reads a JSON request on stdin and prints one JSON result on stdout.

- mode "pass": runs the items in order and reports a span per item, the
  pass time and the peak RSS.  With "trace" set it first installs the
  per-function counters of tracer.py and reports them too; without, it
  runs under the host-speed sampler of hostspeed.py and reports the pass
  time scaled to the reference speed as well as the wall time.
- mode "reference": computes the left side of every verify item with the
  direct oracle ``sym_sum_direct``, for the correctness gate.

An exception inside an item fails that item only.  The parent starts this
with PYTHONPATH set to the checkout's ``src``; the import is checked to
have come from there.  Items call the package through module attributes
(``zeta.verify_lr``), so the tracer's rebinding reaches them.
"""

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import schurzeta
from schurzeta import acceptance, zeta


def _verify(item):
    assign, n_trunc = item["assign"], item["n_trunc"]
    if item["kind"] == "pieri_h":
        return zeta.verify_pieri_h(tuple(item["lam"]), item["size"], assign, n_trunc)
    if item["kind"] == "pieri_e":
        return zeta.verify_pieri_e(tuple(item["lam"]), item["size"], assign, n_trunc)
    return zeta.verify_lr(tuple(item["mu"]), tuple(item["nu"]), assign, n_trunc)


def run_item(item):
    """(ok, value, detail) of one item; value is the exact left side as
    "num/den" for identities and the float for limits."""
    kind = item["kind"]
    if kind == "criterion":
        result = acceptance.CRITERIA[item["index"]](quick=item["quick"], seed=item["seed"])
        return result.passed, None, f"{result.name}: {result.detail}"
    if kind == "limit":
        rows = tuple(tuple(r) for r in item["rows"])
        rep = zeta.eval_zeta_limit(tuple(item["shape"]), rows, item["assign"], item["tol"])
        return rep.converged, rep.value, f"levels={rep.levels}"
    rep = _verify(item)
    return rep.equal, str(rep.lhs), rep.note


def reference_lhs(item):
    """Left side of a verify item by the literal sum over permutations."""
    kind = item["kind"]
    if kind == "pieri_h":
        lam, m = tuple(item["lam"]), item["size"]
        factors = [(lam, zeta.grid_vars(lam, "s")), ((m,), (zeta.seq_vars(m, "t"),))]
        spec = zeta.h_sym_spec(lam, m)
    elif kind == "pieri_e":
        lam, n = tuple(item["lam"]), item["size"]
        column = tuple((name,) for name in zeta.seq_vars(n, "s"))
        factors = [((1,) * n, column), (lam, zeta.grid_vars(lam, "t"))]
        spec = zeta.e_sym_spec(lam, n)
    else:
        mu, nu = tuple(item["mu"]), tuple(item["nu"])
        s_rows, t_rows = zeta.grid_vars(mu, "s"), zeta.grid_vars(nu, "t")
        factors = [(mu, s_rows), (nu, t_rows)]
        names = [v for rows in (s_rows, t_rows) for row in rows for v in row]
        spec = zeta.SymSpec(tuple(names), frozenset())
    return str(zeta.sym_sum_direct([(1, factors)], spec, item["assign"], item["n_trunc"]))


def run_items(items, clock):
    spans = []
    start = clock()
    for item in items:
        t0 = clock()
        try:
            ok, value, detail = run_item(item)
            error = None
        except Exception as exc:  # one failed item must not end the pass
            ok, value, detail, error = False, None, "", f"{type(exc).__name__}: {exc}"
        t1 = clock()
        spans.append({
            "label": item["label"], "start": t0 - start, "end": t1 - start,
            "ok": bool(ok), "value": value, "detail": detail, "error": error,
        })
    return spans, clock() - start


def run_pass(items, trace):
    """A traced pass runs under the tracer; an untraced one under the
    host-speed sampler, whose slices its spans and times leave out."""
    tracer = sampler = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        spans, wall_s = run_items(items, time.perf_counter)
    else:
        from hostspeed import Sampler

        with Sampler() as sampler:
            spans, wall_s = run_items(items, sampler.work_clock)
    return {
        "spans": spans,
        "wall_s": wall_s,
        "scaled_s": sampler.normalized() if sampler else None,
        "slices_s": [s for _, s in sampler.samples] if sampler else None,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stats": tracer.stats if tracer else None,
    }


def run_reference(items):
    out = []
    for item in items:
        try:
            out.append({"value": reference_lhs(item), "error": None})
        except Exception as exc:  # reported as a failed item by the parent
            out.append({"value": None, "error": f"{type(exc).__name__}: {exc}"})
    return {"references": out}


def main():
    request = json.load(sys.stdin)
    src = (Path(request["root"]) / "src").resolve()
    if src not in Path(schurzeta.__file__).resolve().parents:
        print(f"schurzeta imported from {schurzeta.__file__}, not from {src}", file=sys.stderr)
        return 3
    # keep stray prints of the program out of the result channel
    with contextlib.redirect_stdout(sys.stderr):
        if request["mode"] == "reference":
            result = run_reference(request["items"])
        else:
            result = run_pass(request["items"], request["trace"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
