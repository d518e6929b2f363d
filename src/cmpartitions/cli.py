"""Command-line front end: computation, verification and the result cache.

All numerics in JSON output are decimal strings (values here exceed binary64
and downstream diffing must be exact); cache writes are atomic and entries
round-trip byte-identically.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import tempfile

import mpmath
from mpmath import mpc, mpf

from . import modpoly, recognize, resolvent
from .errors import (CMPartitionsError, NearSingularity, NotNearIntegral,
                     PrecisionExhausted)
from .evaluate import _eval_bounded, _form, _kernel_table, _values
from .precision import DEFAULT_MAX_BITS, DEFAULT_WORKING_BITS, PrecisionConfig, run_adaptive
from .quadforms import cm_point, enumerate_qn
from .series import fp_series, hypothesis_check

sys.set_int_max_str_digits(2_000_000)

CACHE_VERSION = 1
CACHE_ENV_VAR = "SM_CACHE_PATH"
_RECORD_TYPES = {"n": int, "discriminant": int, "forms": list, "p_values": list,
                 "scaled_poly": list, "pn": str, "residual": str,
                 "achieved_bits": int, "sharpness_divisor": int,
                 "working_bits": int}
_Z_HELP = "the point as <re>,<im>; a negative re needs the = form: --z=-0.5,1"

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 2
EXIT_PRECISION_EXHAUSTED = 3
EXIT_USAGE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def _parse_tol(text: str) -> mpf:
    """Tolerance as a decimal ('1e-15') or power of two ('2^-160'): finite
    and not negative, since no residual can meet a negative or NaN tolerance
    and every residual meets an infinite one."""
    with mpmath.workprec(128):
        if "^" in text:
            base, _, exp = text.partition("^")
            value = mpf(base.strip()) ** int(exp)
        else:
            value = mpf(text)
    if not mpmath.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"{text} is not a finite, non-negative tolerance")
    return value


def _point(text: str, bits: int) -> mpc:
    """The point '<re>,<im>' read at the given precision."""
    try:
        re_part, im_part = text.split(",")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected '<re>,<im>', got {text!r}") from None
    with mpmath.workprec(bits):
        return mpc(mpf(re_part), mpf(im_part))


def _parse_point(text: str) -> str:
    """Check --z and keep its text: each command reads the point with
    ``_point`` at the precision it evaluates at."""
    _point(text, 53)
    return text


@functools.cache
def _build_parser() -> _Parser:
    """The parser of every command, built on first use and kept: a parse
    reads it and leaves it as it was."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision-bits", type=_positive_int, default=DEFAULT_WORKING_BITS)
    common.add_argument("--max-precision-bits", type=_positive_int, default=DEFAULT_MAX_BITS)
    common.add_argument("--tol", type=_parse_tol, default=None,
                        help="absolute tolerance (decimal or 2^-k)")
    common.add_argument("--json", action="store_true", dest="as_json")
    common.add_argument("--cache-path", default=None)
    common.add_argument("--no-cache", action="store_true")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized verification points")

    parser = _Parser(prog="cmpartitions", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pn", parents=[common],
                       help="partition number from the CM-value trace")
    p.add_argument("--n", type=_positive_int, required=True)

    p = sub.add_parser("orbit", parents=[common],
                       help="scaled orbit polynomial for n")
    p.add_argument("--n", type=_positive_int, required=True)

    p = sub.add_parser("forms", parents=[common],
                       help="class representatives for n")
    p.add_argument("--n", type=_positive_int, required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate one function")
    p.add_argument("--what", required=True,
                   choices=["F", "P", "A", "B", "C", "j"])
    p.add_argument("--z", type=_parse_point, required=True, help=_Z_HELP)

    p = sub.add_parser("verify-decomp", parents=[common],
                       help="check P = A + B*C at random and CM points")
    p.add_argument("--trials", type=_positive_int, default=20)
    p.add_argument("--n-max", type=_positive_int, default=6)

    p = sub.add_parser("verify-appendix", parents=[common],
                       help="check the tabulated resolvent polynomials")
    p.add_argument("--z", type=_parse_point, default=None, help=_Z_HELP)
    p.add_argument("--trials", type=_positive_int, default=5)

    p = sub.add_parser("masser", parents=[common],
                       help="modular-polynomial Taylor data and C comparison")
    p.add_argument("--n", type=_positive_int, required=True)

    p = sub.add_parser("norms", parents=[common],
                       help="6-unit norm checks for j and beta")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--skip-beta", action="store_true")

    p = sub.add_parser("hypothesis", parents=[common],
                       help="exact integrality of the series pair at infinity")
    p.add_argument("--order", type=_positive_int, default=200)
    p.add_argument("--dump-series", action="store_true",
                   help="include the exact series as JSON")

    p = sub.add_parser("report", parents=[common],
                       help="aggregate verification document")
    p.add_argument("--n-max", type=_positive_int, required=True)
    p.add_argument("--hypothesis-order", type=_positive_int, default=200)

    p = sub.add_parser("cache", parents=[common], help="cache maintenance")
    p.add_argument("action", choices=["show", "clear"])

    return parser


def _config(args) -> PrecisionConfig:
    # max_bits caps the excess of a rung over the magnitude its first rung
    # measured; at least twice the start, so two rungs can follow the first
    max_bits = max(args.max_precision_bits, 2 * args.precision_bits)
    return PrecisionConfig(args.precision_bits, max_bits, abs_tol=args.tol)


def _cnstr(z, digits: int):
    return [mpmath.nstr(mpmath.re(z), digits), mpmath.nstr(mpmath.im(z), digits)]


# ---------------------------------------------------------------- cache ----

def _cache_path(args) -> str:
    if args.cache_path:
        return args.cache_path
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "cmpartitions.json")


def _is_record(entry) -> bool:
    """Whether a cache entry carries every record field with its exact JSON
    type (so a bool is not taken for an int)."""
    return isinstance(entry, dict) and all(
        type(entry.get(k)) is t for k, t in _RECORD_TYPES.items())


def _load_cache(path: str):
    """(cache dict, warning or None); the dict keeps the version and entries
    alone, so other top-level keys are not written back.  A broken or
    mismatched file is bypassed, never migrated."""
    empty = {"version": CACHE_VERSION, "entries": []}
    if not os.path.exists(path):
        return empty, None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict) or data.get("version") != CACHE_VERSION:
            return empty, f"cache version mismatch in {path}; ignoring"
        entries = data.get("entries")
        if not isinstance(entries, list) or not all(map(_is_record, entries)):
            return empty, f"malformed cache in {path}; ignoring"
        return {"version": CACHE_VERSION, "entries": entries}, None
    except (OSError, json.JSONDecodeError) as exc:
        return empty, f"unreadable cache {path}: {exc}"


def _save_cache(cache: dict, path: str):
    """Write the cache atomically; a failed write returns a warning, since
    the result in hand stays valid without the cache."""
    directory = os.path.dirname(path) or "."
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cmpartitions-cache-")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(cache, handle, sort_keys=True, indent=2)
            handle.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        return f"cannot write cache {path}: {_write_failure(directory, exc)}"
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    return None


def _write_failure(directory: str, exc: OSError) -> str:
    """The cause of a failed cache write: the nearest existing ancestor of
    the directory when it is not a directory (``os.makedirs`` only says
    "File exists" then), else the error's own text."""
    parent = os.path.abspath(directory)
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    return exc.strerror if os.path.isdir(parent) else f"{parent} is not a directory"


def _cache_lookup(cache: dict, n: int, working_bits: int):
    """Exact (n, working_bits) entry, else the highest-precision shadow."""
    best = None
    for entry in cache["entries"]:
        if entry["n"] != n:
            continue
        bits = entry["working_bits"]
        if bits == working_bits:
            return entry
        if bits > working_bits and (best is None or bits > best["working_bits"]):
            best = entry
    return best


def _cache_store(cache: dict, entry: dict) -> None:
    key = (entry["n"], entry["working_bits"])
    cache["entries"] = [e for e in cache["entries"]
                        if (e["n"], e["working_bits"]) != key]
    cache["entries"].append(entry)
    cache["entries"].sort(key=lambda e: (e["n"], e["working_bits"]))


def _record_entry(n: int, cfg: PrecisionConfig) -> dict:
    record = recognize.compute_pn(n, cfg)
    entry = record.to_json_dict()
    entry["working_bits"] = cfg.working_bits
    return entry


def _get_record_entry(args) -> dict:
    """The orbit record for --n (as its serialized dict), from the cache or
    computed and stored; a cache warning goes to stderr."""
    cfg = _config(args)
    if args.no_cache:
        return _record_entry(args.n, cfg)
    path = _cache_path(args)
    cache, warning = _load_cache(path)
    entry = _cache_lookup(cache, args.n, cfg.working_bits)
    if entry is None:
        entry = _record_entry(args.n, cfg)
        _cache_store(cache, entry)
        if warning is None:
            warning = _save_cache(cache, path)
    if warning:
        print(warning, file=sys.stderr)
    return entry


# ------------------------------------------------------------- commands ----
# Each command returns (document, human lines, passed): main prints the JSON
# document under --json and the lines otherwise, and exits 0 when passed, 2
# when not.  A command with no document (None) prints its lines either way.

def _cmd_pn(args):
    entry = _get_record_entry(args)
    return entry, [entry["pn"]], True


def _cmd_orbit(args):
    poly = _get_record_entry(args)["scaled_poly"]
    return ({"n": args.n, "scaled_poly": poly},
            ["scaled orbit polynomial (leading coefficient first):", " ".join(poly)], True)


def _cmd_forms(args):
    cfg = _config(args)
    # digits within a unit of their last place: the root is two roundings off
    digits = min(40, int((cfg.eval_bits - 3) * 0.30103))
    rows = [{"a": form.a, "b": form.b, "c": form.c,
             "im_alpha": mpmath.nstr(mpmath.im(cm_point(form, cfg)), digits)}
            for form in enumerate_qn(args.n)]
    # the rows are printed as JSON with or without --json
    return rows, [json.dumps(rows, sort_keys=True, indent=2)], True


def _digits(value, bound, achieved: int) -> int:
    """Digits to print of value: 0.30103 achieved (at least 20), but no more
    than the bound on its error supports, and at least 1."""
    digits = max(20, int(achieved * 0.30103))
    size = max(abs(mpmath.re(value)), abs(mpmath.im(value)))
    if size and bound:
        digits = min(digits, int(mpmath.floor(mpmath.log10(size / bound))))
    return max(1, digits)


def _cmd_eval(args):
    cfg = _config(args)
    # every rung sees the same binary point, the one its bound refers to
    z = _point(args.z, cfg.max_bits + cfg.guard_bits)
    value, bound, achieved = run_adaptive(
        lambda bits: _eval_bounded(args.what, z, cfg.with_bits(bits)), cfg)
    doc = {"what": args.what, "z": _cnstr(z, 30),
           "value": _cnstr(value, _digits(value, bound, achieved)), "achieved_bits": achieved}
    return doc, [f"{args.what}({mpmath.nstr(z, 20)}) =", f"  re: {doc['value'][0]}",
                 f"  im: {doc['value'][1]}", f"  achieved_bits: {achieved}"], True


def _random_points(seed: int, count: int):
    rng = random.Random(seed)
    with mpmath.workprec(128):
        return [mpc(mpf(rng.uniform(-0.5, 0.5)), mpf(rng.uniform(0.8, 3.0)))
                for _ in range(count)]


def _verdict(doc: dict, worst, cfg: PrecisionConfig) -> bool:
    """Whether the largest deviation worst is within the tolerance; doc
    records both and the verdict."""
    passed = bool(worst < cfg.abs_tol)
    doc.update({"max_deviation": mpmath.nstr(worst, 20), "tolerance": mpmath.nstr(cfg.abs_tol, 20),
                "pass": passed})
    return passed


def _cmd_verify_decomp(args):
    cfg = _config(args)
    worst, worst_at, table = mpf(0), None, _kernel_table(cfg.eval_bits)
    points = [("random", _form(z)) for z in _random_points(args.seed, args.trials)]
    for n in range(1, args.n_max + 1):
        points += [(f"cm(n={n})", form) for form in enumerate_qn(n)]
    with mpmath.workprec(cfg.eval_bits):
        for label, form in points:
            v = _values(form, table, cfg, ("p", "a", "b", "c"))
            dev = abs(v["p"] - (v["a"] + v["b"] * v["c"]))
            if dev > worst:
                worst, worst_at = dev, [label] + _cnstr(cm_point(form, cfg), 20)
    doc = {"check": "P = A + B*C", "seed": args.seed, "trials": args.trials,
           "n_max": args.n_max, "points": len(points), "worst_at": worst_at}
    passed = _verdict(doc, worst, cfg)
    return doc, [f"P = A + B*C over {len(points)} points "
                 f"(seed {args.seed}): max deviation {mpmath.nstr(worst, 10)} "
                 f"{'<' if passed else '>='} tol {mpmath.nstr(cfg.abs_tol, 10)}",
                 "PASS" if passed else "FAIL"], passed


def _cmd_verify_appendix(args):
    cfg = _config(args)
    if args.z is not None:
        points = [_point(args.z, cfg.eval_bits)]
    else:
        points = _random_points(args.seed, args.trials)
    per_poly = {"aprime": [], "b": []}
    worst = mpf(0)
    for z in points:
        for which, devs in resolvent.tabulated_deviations(z, cfg).items():
            worst = max(worst, max(devs))
            per_poly[which].append({"z": _cnstr(z, 20),
                                    "max_deviation": mpmath.nstr(max(devs), 20),
                                    "per_coefficient": [mpmath.nstr(d, 10) for d in devs]})
    doc = {"check": "tabulated resolvents", "seed": args.seed,
           "points": len(points), "per_polynomial": per_poly}
    passed = _verdict(doc, worst, cfg)
    return doc, [f"resolvent tables at {len(points)} points "
                 f"(seed {args.seed}): max deviation {mpmath.nstr(worst, 10)}",
                 "PASS" if passed else "FAIL"], passed


def _masser_rows(n: int, cfg: PrecisionConfig):
    classes = modpoly.hnf_classes(24 * n - 1)
    rows = []
    digits = max(20, int(cfg.working_bits * 0.30103))
    table = _kernel_table(cfg.eval_bits)
    # Masser's formula needs a fixing class of determinant 24n - 1, which
    # only primitive forms (discriminant exactly 1 - 24n) have
    for form in [f for f in enumerate_qn(n) if f.content() == 1]:
        data = modpoly.taylor_coeffs(form, classes, cfg, table)
        from_taylor = data.masser_c()
        direct = _values(form, table, cfg, ("c",))["c"]
        with mpmath.workprec(cfg.eval_bits):
            deviation = abs(from_taylor - direct)
        rows.append({
            "form": [form.a, form.b, form.c],
            "beta": _cnstr(data.beta, digits),
            "beta02": _cnstr(data.beta02, digits),
            "beta11": _cnstr(data.beta11, digits),
            "beta20": _cnstr(data.beta20, digits),
            "masser_C": _cnstr(from_taylor, digits),
            "eval_C": _cnstr(direct, digits),
            "deviation": mpmath.nstr(deviation, 20),
        })
    return rows


def _cmd_masser(args):
    cfg = _config(args)
    doc = {"n": args.n, "rows": _masser_rows(args.n, cfg)}
    with mpmath.workprec(128):  # the rows' 20 digits, read back exactly
        worst = max(mpf(r["deviation"]) for r in doc["rows"])
    passed = _verdict(doc, worst, cfg)
    return doc, ([f"n = {args.n}: Taylor-quotient C vs direct C"]
                 + [f"  form {tuple(r['form'])}: deviation {r['deviation']}" for r in doc["rows"]]
                 + ["PASS" if passed else "FAIL"]), passed


def _norms(n: int, cfg: PrecisionConfig, beta: bool) -> dict:
    """The j-norm block of n, and its beta-norm block when beta."""
    norm, coprime, achieved = modpoly.j_norm(n, cfg)
    blocks = {"j_norm": {"value": str(norm), "coprime_to_6": coprime,
                         "achieved_bits": achieved}}
    if beta:
        norm, coprime, achieved = modpoly.beta_norm(n, cfg)
        blocks["beta_norm"] = {"value": str(norm), "coprime_to_6": coprime,
                               "achieved_bits": achieved}
    return blocks


def _cmd_norms(args):
    blocks = _norms(args.n, _config(args), not args.skip_beta)
    j, beta = blocks["j_norm"], blocks.get("beta_norm")
    lines = [f"j-norm(n={args.n}) = {j['value']}", f"  coprime to 6: {j['coprime_to_6']}"]
    if beta:
        beta["digits"] = len(beta["value"].lstrip("-"))
        lines.append(f"beta-norm(n={args.n}): {beta['digits']} digits, "
                     f"coprime to 6: {beta['coprime_to_6']}")
    passed = all(block["coprime_to_6"] for block in blocks.values())
    return {"n": args.n, **blocks}, lines + ["PASS" if passed else "FAIL"], passed


def _hypothesis(order: int, dump: bool = False) -> dict:
    """The integrality flags of the series pair through order, and the exact
    series when dump."""
    series = fp_series(order + 2)
    report = hypothesis_check(series, order)
    doc = {"order": order, "f_integral": report.f_integral,
           "companion_integral": report.companion_integral,
           "first_failure": report.first_failure}
    if dump:
        doc["series"] = series.to_json_dict()
    return doc


def _cmd_hypothesis(args):
    doc = _hypothesis(args.order, args.dump_series)
    passed = doc["f_integral"] and doc["companion_integral"]
    return doc, [f"series integral through order {args.order}: "
                 f"F={doc['f_integral']} companion={doc['companion_integral']}",
                 "PASS" if passed else f"FAIL at {doc['first_failure']}"], passed


def _per_n_block(n: int, cfg: PrecisionConfig, cached) -> dict:
    """One n's worth of the report."""
    block = dict(cached) if cached is not None else _record_entry(n, cfg)
    block["pn_oracle"] = str(recognize.pentagonal_pn(n))
    block.update(_norms(n, cfg, beta=n <= 3))
    if n <= 3:
        rows = _masser_rows(n, cfg)
        block["masser"] = [{"form": r["form"], "deviation": r["deviation"]}
                           for r in rows]
        roots = []
        for form in enumerate_qn(n):
            residuals = resolvent.psi_root_check(form, cfg)
            roots.append({"form": [form.a, form.b, form.c],
                          "aprime_residual": mpmath.nstr(residuals["aprime"], 20),
                          "b_residual": mpmath.nstr(residuals["b"], 20)})
        block["resolvent_roots"] = roots
    return block


def report_bundle(n_max: int, cfg: PrecisionConfig, hypothesis_order: int,
                  cached_entries: dict) -> dict:
    """Aggregate document: per-n partition/orbit/norm results plus the global
    series integrality flags.  Cached orbit records (by n) are reused
    verbatim so a warm cache is recompute-free for that part."""
    blocks = [_per_n_block(n, cfg, cached_entries.get(n))
              for n in range(1, n_max + 1)]
    return {"n_max": n_max, "working_bits": cfg.working_bits, "per_n": blocks,
            "hypothesis": _hypothesis(hypothesis_order)}


def _cmd_report(args):
    cfg = _config(args)
    cached_entries = {}
    cache = warning = None
    if not args.no_cache:
        path = _cache_path(args)
        cache, warning = _load_cache(path)
        for n in range(1, args.n_max + 1):
            entry = _cache_lookup(cache, n, cfg.working_bits)
            if entry is not None and entry["working_bits"] == cfg.working_bits:
                cached_entries[n] = entry
    doc = report_bundle(args.n_max, cfg, hypothesis_order=args.hypothesis_order,
                        cached_entries=cached_entries)
    if not args.no_cache:
        if warning is not None:
            doc["cache_warning"] = warning
        elif len(cached_entries) < args.n_max:
            # written only when a block was computed; a failed write is
            # reported but leaves the document as it is
            for block in doc["per_n"]:
                _cache_store(cache, {k: block[k] for k in _RECORD_TYPES})
            warning = _save_cache(cache, path)
        if warning:
            print(warning, file=sys.stderr)
    lines = [f"n={b['n']}: p(n)={b['pn']} [{'ok' if b['pn'] == b['pn_oracle'] else 'MISMATCH'}] "
             f"residual={b['residual']}" for b in doc["per_n"]]
    lines.append(f"hypothesis: F={doc['hypothesis']['f_integral']} "
                 f"companion={doc['hypothesis']['companion_integral']}")
    return doc, lines, all(b["pn"] == b["pn_oracle"] for b in doc["per_n"])


def _cmd_cache(args):
    path = _cache_path(args)
    if args.action == "clear":
        try:
            if os.path.exists(path):
                os.unlink(path)
        except OSError as exc:
            raise _UsageError(f"cannot clear cache {path}: {exc.strerror}") from None
        return None, [f"cache cleared: {path}"], True
    cache, warning = _load_cache(path)
    if warning:
        print(warning, file=sys.stderr)
    doc = {"path": path, "version": cache["version"],
           "entries": [{"n": e["n"], "working_bits": e["working_bits"],
                        "pn": e["pn"]} for e in cache["entries"]]}
    return doc, ([f"cache at {path}: {len(cache['entries'])} entries"]
                 + [f"  n={e['n']} bits={e['working_bits']} pn={e['pn']}"
                    for e in doc["entries"]]), True


_COMMANDS = {
    "pn": _cmd_pn,
    "orbit": _cmd_orbit,
    "forms": _cmd_forms,
    "eval": _cmd_eval,
    "verify-decomp": _cmd_verify_decomp,
    "verify-appendix": _cmd_verify_appendix,
    "masser": _cmd_masser,
    "norms": _cmd_norms,
    "hypothesis": _cmd_hypothesis,
    "report": _cmd_report,
    "cache": _cmd_cache,
}


def main(argv=None) -> int:
    """Run one command: print its document or lines to stdout, or one line
    for a failure to stderr, and return the exit code."""
    try:
        args = _build_parser().parse_args(argv)
        args.no_cache |= args.tol is not None  # cached records are the default tolerance's
        doc, lines, passed = _COMMANDS[args.command](args)
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION_EXHAUSTED
    except NotNearIntegral as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    except (_UsageError, ValueError, NearSingularity) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CMPartitionsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    if args.as_json and doc is not None:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILED


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
