"""Benchmark of schurzeta: one workload, one seed, a closed loop of passes.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports the package from ``src``.
A single client runs passes back to back, each in a fresh interpreter
(child.py) with PYTHONHASHSEED fixed, SCHUR_ZETA_JOBS and every other
PYTHON* variable removed, and PYTHONPATH set to the checkout's ``src``.
Nothing runs in parallel.  Passes repeat until ``--seconds`` have passed,
at least twice.

Workloads (items in workloads.py):

- selftest-cold: the ten acceptance criteria in order, caches cold.
- verify-frontier: seven exact identities with 6 to 8 symmetrized
  variables, Pieri (3,2), m=3 and (2,2,1), n=3 at N=3,4 among them.
- verify-sweep: 584 small identities from the criteria 1-3 grids at N=2..4,
  at most 6 symmetrized variables, caches warm within the pass.
- limits: five untruncated limits against mpmath references.

Every item is judged: a criterion must pass, an identity must report
equal and its exact left side must match the direct oracle
``sym_sum_direct`` (computed before the timed passes), and a limit must
converge within 1e-6 of its reference.  A failed item counts against
``fail_ratio`` and does not stop the run.

Times.  The host's speed drifts by a third over tens of seconds, so an
untraced pass runs under the host-speed sampler of hostspeed.py, which
interrupts it every 0.1 s to time a fixed slice of Python work and scales
each stretch of the pass to the reference speed.  ``pass_s`` is the median
over the run's passes of that scaled time (of the wall time on the
workloads in workloads.WALL_TIMED); ``setup_s`` is the median over 15
fresh interpreters of the scaled time of ``import schurzeta.cli``
(importer.py); ``peak_rss_mb`` is the median peak RSS of the pass child.
Spans and wall times leave the slices out.

``--trace 0`` reports the end-to-end metrics of layers.END_TO_END in the
last line.  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics of layers.PER_LAYER, each printed next to the
end-to-end metric it should move.  Item spans and counters of every pass
are written to ``.perfbench/`` in the checkout.

Exit code: 0 on a correct run, 1 when an item failed, 2 when the program
cannot be run (then no result line is printed).
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from hashlib import sha256
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
IMPORTER = HERE / "importer.py"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 15
IMPORT_SAMPLES = 5
MIN_PASSES = 2
LIMIT_GATE = 1e-6  # acceptance criterion 8
STOP_STARTING_S = 140  # no new pass after this; a run must end within 180 s
HARD_LIMIT_S = 170
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
VERIFY_KINDS = ("pieri_h", "pieri_e", "lr")
IMPORT_CLI = "import schurzeta.cli"
TIMED_IMPORT = (
    "import time; t = time.perf_counter(); import schurzeta.cli; "
    "print(time.perf_counter() - t)"
)


class ProgramError(Exception):
    """The program under test could not be run at all."""


def child_env():
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("PYTHON") and k != "SCHUR_ZETA_JOBS"
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args, deadline, stdin=None):
    try:
        proc = subprocess.run(
            [sys.executable, *args], input=stdin, capture_output=True, text=True,
            env=child_env(), cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ProgramError(f"child {args[0]} ran past the time limit") from exc
    if proc.returncode != 0:
        raise ProgramError(f"child {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def call_child(child, request, deadline):
    proc = _spawn([str(child)], deadline, json.dumps(request))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(samples, deadline):
    """(wall, scaled) seconds of ``import schurzeta.cli`` in fresh
    interpreters under the host-speed sampler (importer.py); one unmeasured
    import first fills the bytecode cache."""
    args = [str(IMPORTER), str(ROOT)]
    _spawn(args, deadline)
    runs = [json.loads(_spawn(args, deadline).stdout.strip().splitlines()[-1]) for _ in range(samples)]
    return [r["wall_s"] for r in runs], [r["scaled_s"] for r in runs]


def import_seconds(samples, deadline):
    """In-process import time of schurzeta.cli, and the cumulative numpy
    import time that ``python -X importtime`` reports for it."""
    cli, numpy = [], []
    for _ in range(samples):
        cli.append(float(_spawn(["-c", TIMED_IMPORT], deadline).stdout.split()[-1]))
        report = _spawn(["-X", "importtime", "-c", IMPORT_CLI], deadline).stderr
        numpy.append(_numpy_import_s(report))
    return cli, numpy


def _numpy_import_s(importtime_report):
    for line in importtime_report.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "numpy":
            return int(fields[1]) / 1e6
    return 0.0


def git_commit():
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest():
    digest = sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def references(child, items, deadline):
    """Reference per item: the direct-oracle left side of identities, the
    mpmath value of limits, None for criteria."""
    refs = [None] * len(items)
    verify = [k for k, item in enumerate(items) if item["kind"] in VERIFY_KINDS]
    if verify:
        request = {"root": str(ROOT), "mode": "reference", "items": [items[k] for k in verify]}
        for k, ref in zip(verify, call_child(child, request, deadline)["references"]):
            refs[k] = ref["value"]
            if ref["error"]:
                print(f"reference failed for {items[k]['label']}: {ref['error']}")
    if any(item["kind"] == "limit" for item in items):
        try:
            by_label = workloads.limit_references()
        except ImportError as exc:
            raise ProgramError(f"limit references need mpmath: {exc}") from exc
        for k, item in enumerate(items):
            if item["kind"] == "limit":
                refs[k] = by_label[item["label"]]
    return refs


def limit_error(span, ref):
    return float(abs(type(ref)(span["value"]) - ref))


def verdict(item, span, ref):
    """Why an item failed, or None when it passed."""
    if span["error"]:
        return span["error"]
    if not span["ok"]:
        return span["detail"] or "check failed"
    if item["kind"] in VERIFY_KINDS and span["value"] != ref:
        return "left side differs from the direct oracle sym_sum_direct"
    if item["kind"] == "limit" and not limit_error(span, ref) < LIMIT_GATE:
        return f"limit off by {limit_error(span, ref):.3e}, gate {LIMIT_GATE:g}"
    return None


def run_passes(child, items, seconds, trace, started):
    """Untraced passes (each followed by a traced one under trace) until
    ``seconds`` have passed and at least MIN_PASSES rounds ran.  A fixed
    minimum keeps a workload whose pass is close to ``seconds`` from
    reporting one pass on slow runs and the median of two on fast ones."""
    request = {"root": str(ROOT), "mode": "pass", "items": items}
    deadline = started + HARD_LIMIT_S
    plain, traced = [], []
    loop_start = time.monotonic()
    while True:
        round_start = time.monotonic()
        plain.append(call_child(child, {**request, "trace": False}, deadline))
        if trace:
            traced.append(call_child(child, {**request, "trace": True}, deadline))
        now = time.monotonic()
        done = now - loop_start >= seconds and len(plain) >= MIN_PASSES
        if done or now + (now - round_start) > started + STOP_STARTING_S:
            return plain, traced


def tail(durations):
    """(percentile, value) of the highest ladder percentile with at least
    ten samples beyond it (nearest rank), or None."""
    n = len(durations)
    ordered = sorted(durations)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def end_to_end(workload, plain, setup):
    """Both times are scaled to the reference speed of hostspeed.py, each
    pass and each set-up import by its own sampler; pass_s of the workloads
    in workloads.WALL_TIMED is the wall time of the pass."""
    pass_key = "wall_s" if workload in workloads.WALL_TIMED else "scaled_s"
    return {
        "pass_s": statistics.median(p[pass_key] for p in plain),
        "setup_s": statistics.median(setup[1]),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in plain) / 1024,
    }


def per_layer(plain, traced, import_s, numpy_s):
    values = {}
    for name, *_ in layers.PER_LAYER:
        key, stat = name.rsplit(".", 1)
        if key == "acceptance":
            label = stat[: -len("_s")]
            spans = [s["end"] - s["start"] for p in plain for s in p["spans"] if s["label"] == label]
            values[name] = statistics.median(spans) if spans else 0.0
        elif name == "cli.import_s":
            values[name] = statistics.median(import_s)
        elif name == "cli.import_numpy_s":
            values[name] = statistics.median(numpy_s)
        elif name == "trace.overhead_ratio":
            values[name] = (
                statistics.median(p["wall_s"] for p in traced)
                / statistics.median(p["wall_s"] for p in plain)
            )
        elif stat == "us_per_call":
            values[name] = statistics.median_low(
                p["stats"][key]["self_s"] / p["stats"][key]["calls"] * 1e6
                if p["stats"][key]["calls"] else 0.0
                for p in traced
            )
        else:
            values[name] = statistics.median_low(p["stats"][key][stat] for p in traced)
    return values


def write_spans(env, passes):
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    record = {
        "env": env,
        "passes": [
            {
                "traced": kind == "traced", "wall_s": p["wall_s"], "scaled_s": p["scaled_s"],
                "slices_s": p["slices_s"], "stats": p["stats"],
                "spans": [{k: s[k] for k in ("label", "start", "end", "ok")} for s in p["spans"]],
            }
            for kind, p in passes
        ],
    }
    path = out / f"{env['workload']}-seed{env['seed']}-trace{env['trace']}.json"
    path.write_text(json.dumps(record))
    return path


def _fmt(value):
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def judge(items, refs, passes):
    """Print one line per pass and the first failures; return the number
    of items attempted and failed."""
    attempted = failed = 0
    errors = []
    for kind, p in passes:
        reasons = [verdict(item, span, ref) for item, span, ref in zip(items, p["spans"], refs)]
        bad = [f"FAIL {item['label']}: {r}" for item, r in zip(items, reasons) if r]
        scaled = f", {p['scaled_s']:.4f} s at reference speed" if p["scaled_s"] else ""
        print(f"pass ({kind}): {p['wall_s']:.4f} s{scaled}, {len(items)} items, {len(bad)} failed")
        attempted += len(items)
        failed += len(bad)
        errors += bad
    for line in errors[:10]:
        print(line)
    return attempted, failed


def report_items(items, refs, plain, traced):
    """Print the item-level metrics that are not bounded (layers.REPORTED)."""
    durations = [s["end"] - s["start"] for p in plain for s in p["spans"]]
    print(f"metric item_p50_ms {statistics.median(durations) * 1000:.6g} ms (n={len(durations)})")
    found = tail(durations)
    if found:
        print(f"metric item_tail_ms {found[1] * 1000:.6g} ms (p{found[0]:g}, n={len(durations)})")
    else:
        print(f"metric item_tail_ms n/a ms (n={len(durations)}: fewer than ten samples beyond p50)")
    errors = [
        limit_error(s, ref)
        for p in plain + traced for item, s, ref in zip(items, p["spans"], refs)
        if item["kind"] == "limit" and s["value"] is not None
    ]
    if errors:
        print(f"metric limit_abs_err_max {max(errors):.6g} abs")


def main(argv=None, quick=False, child=CHILD):
    """Run one benchmark invocation.  ``quick`` shrinks every item list
    and sample count (for the benchmark's own tests); ``child`` replaces
    the pass runner (for fault injection)."""
    args = parse_args(argv)
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    if not (ROOT / "src" / "schurzeta" / "__init__.py").is_file():
        print(f"error: no schurzeta package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(), "source_sha256": source_digest(), "pythonhashseed": "0",
        "clients": 1, "loop": "closed",
    }
    print("env " + json.dumps(env), flush=True)
    items = workloads.items(args.workload, args.seed, quick)
    try:
        t0 = time.monotonic()
        refs = references(child, items, deadline)
        print(f"references: {len(items)} items in {time.monotonic() - t0:.2f} s", flush=True)
        if args.trace:
            import_s, numpy_s = import_seconds(2 if quick else IMPORT_SAMPLES, deadline)
        else:
            setup = setup_seconds(2 if quick else SETUP_SAMPLES, deadline)
        plain, traced = run_passes(child, items, args.seconds, args.trace, started)
    except ProgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    passes = [("plain", p) for p in plain] + [("traced", p) for p in traced]
    attempted, failed = judge(items, refs, passes)
    print(f"metric fail_ratio {failed / attempted:.6g} ratio ({failed}/{attempted})")
    report_items(items, refs, plain, traced)
    if args.trace:
        values = per_layer(plain, traced, import_s, numpy_s)
        table = [(name, unit) for name, unit, *_ in layers.PER_LAYER]
        for name, unit, _, moves in layers.PER_LAYER:
            print(f"layer {name} {_fmt(values[name])} {unit}  -> {moves}")
    else:
        values = end_to_end(args.workload, plain, setup)
        table = [(name, unit) for name, unit, _ in layers.END_TO_END]
        for name, unit in table:
            print(f"metric {name} {_fmt(values[name])} {unit}")
        slices = [s for p in plain for s in p["slices_s"]]
        print(
            f"host: wall medians pass {statistics.median(p['wall_s'] for p in plain):.6g} s, "
            f"setup {statistics.median(setup[0]):.6g} s; slice median "
            f"{statistics.median(slices) * 1000:.4g} ms (reference {hostspeed.REFERENCE_S * 1000:g} ms)"
        )
    print(f"spans: {write_spans(env, passes).relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def _terminate(signum, frame):
    # raised inside subprocess.run, which then kills and reaps the child
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
