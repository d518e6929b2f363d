import json
import os
import time
from collections import Counter

import mpmath
import pytest
from mpmath import mpc, mpf

from cmpartitions import cli, evaluate, modpoly, recognize
from cmpartitions.errors import NoFixingClass, NotNearIntegral
from cmpartitions.precision import PrecisionConfig


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def significant_digits(text: str) -> int:
    """The digits of a printed number's mantissa."""
    return len(text.partition("e")[0].lstrip("-").replace(".", "").lstrip("0"))


class TestBasicCommands:
    def test_pn(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "pn", "--n", "5",
                               "--cache-path", str(tmp_path / "c.json"))
        assert code == 0
        assert out.strip() == "7"

    def test_pn_300_at_default_flags(self, capsys):
        # the orbit polynomial's magnitude is 2482 bits: one rung at that
        # plus 256 bits closes under the default 4096-bit cap
        code, out, _ = run_cli(capsys, "pn", "--n", "300", "--no-cache")
        assert code == 0
        assert out.strip() == str(recognize.pentagonal_pn(300))

    def test_pn_rejects_zero(self, capsys):
        code, _, err = run_cli(capsys, "pn", "--n", "0", "--no-cache")
        assert code == 4
        assert "positive" in err

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 4

    def test_orbit(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "--n", "1", "--no-cache", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["scaled_poly"] == ["1", "-529", "82616", "-5097973"]

    def test_forms_json(self, capsys):
        code, out, _ = run_cli(capsys, "forms", "--n", "1", "--no-cache")
        assert code == 0
        rows = json.loads(out)
        assert [r["a"] for r in rows] == [6, 12, 18]
        assert all(set(r) == {"a", "b", "c", "im_alpha"} for r in rows)

    @pytest.mark.parametrize("bits, digits", [("8", 11), ("256", 40)])
    def test_forms_prints_only_correct_digits(self, capsys, bits, digits):
        # im_alpha = sqrt(23)/(2a): at 8 working bits the root carries 40
        # bits, and every digit printed is within a unit of its last place
        code, out, _ = run_cli(capsys, "forms", "--n", "1", "--precision-bits", bits)
        assert code == 0
        rows = json.loads(out)
        assert significant_digits(rows[0]["im_alpha"]) == digits
        with mpmath.workprec(300):
            for row in rows:
                printed, exact = mpf(row["im_alpha"]), mpmath.sqrt(23) / (2 * row["a"])
                last = mpmath.floor(mpmath.log10(printed)) - significant_digits(row["im_alpha"]) + 1
                assert abs(printed - exact) <= mpf(10) ** last, row

    def test_eval_j_at_i(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--what", "j", "--z", "0,1",
                               "--no-cache", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"][0].startswith("1728.0")

    def test_eval_negative_real_part(self, capsys):
        # argparse takes a separate "-0.5,1" for an option; "--z=-0.5,1" passes it
        values = []
        for z in ("--z=-0.5,1", "--z=0.5,1"):
            code, out, _ = run_cli(capsys, "eval", "--what", "j", z, "--no-cache", "--json")
            assert code == 0
            values.append(json.loads(out)["value"][0])
        assert values[0] == values[1]

    @pytest.mark.parametrize("z", ["nonsense", "0.2,inf", "inf,1", "nan,1"])
    def test_eval_bad_point(self, capsys, z):
        code, _, err = run_cli(capsys, "eval", "--what", "j", "--z", z,
                               "--no-cache")
        assert code == 4
        assert err.startswith("error:") and err.count("\n") == 1

    def test_eval_near_singularity_exit(self, capsys):
        # C has a pole at i, where j = 1728 and E6 = 0
        code, _, err = run_cli(capsys, "eval", "--what", "C", "--z", "0,1",
                               "--no-cache")
        assert code == 4
        assert err.startswith("error:") and "Traceback" not in err

    def test_hypothesis(self, capsys):
        code, out, _ = run_cli(capsys, "hypothesis", "--order", "60",
                               "--no-cache", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["f_integral"] and doc["companion_integral"]

    def test_hypothesis_dump_series(self, capsys):
        code, out, _ = run_cli(capsys, "hypothesis", "--order", "10",
                               "--dump-series", "--no-cache", "--json")
        assert code == 0
        series = json.loads(out)["series"]
        assert series["start_exp"] == -1
        assert series["coeffs"][:3] == ["1", "-10", "-29"]

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf"])
    def test_tol_must_be_finite_non_negative(self, capsys, tol):
        code, out, err = run_cli(capsys, "verify-decomp", "--trials", "1",
                                 "--n-max", "1", f"--tol={tol}", "--no-cache")
        assert code == 4
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "tolerance" in err

    def test_precision_exhausted_exit(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--what", "j",
                               "--z", "0.21,1.3", "--tol", "0",
                               "--precision-bits", "256",
                               "--max-precision-bits", "512", "--no-cache")
        assert code == 3
        assert "precision exhausted" in err

    @pytest.mark.parametrize("z", ["0,1e30", "0.1,1e-3000"])
    def test_astronomical_value_exhausts_precision(self, capsys, z):
        # |j(10^30 i)| is about e^(2 pi 10^30), and 0.1 + 10^-3000 i reduces
        # to Im w near 2^1704: the kernels' budget refuses the rung sized
        # from that magnitude before any work at its precision, or the
        # ladder runs out on F's unbounded error; the resolvents' orbit
        # products refuse values that large.  C stays bounded there.
        for argv in [("eval", "--what", what, "--z", z) for what in "FPABj"] + [
                ("verify-appendix", "--z", z)]:
            code, out, err = run_cli(capsys, *argv, "--no-cache")
            assert code == 3, argv
            assert out == ""
            assert err.startswith("precision exhausted:") and err.count("\n") == 1, argv
            assert all(len(line) < 200 for line in err.splitlines()), argv
        code, out, _ = run_cli(capsys, "eval", "--what", "C", "--z", z, "--no-cache", "--json")
        assert code == 0
        assert json.loads(out)["value"][0].startswith(
            {"0,1e30": "-1.94294085181633010802630009404",
             "0.1,1e-3000": "2.15789572701612505548883214036"}[z])

    def test_eval_prints_only_the_digits_its_bound_supports(self, capsys):
        # at 0.1 + 10^-3000 i, C is accepted at 2048 bits, but its bound
        # supports about 116 digits, not 0.30103 * 2048
        code, out, _ = run_cli(capsys, "eval", "--what", "C", "--z", "0.1,1e-3000",
                               "--no-cache", "--json")
        assert code == 0
        doc = json.loads(out)
        cfg = PrecisionConfig(256, 4096)  # the default flags
        z = cli._point("0.1,1e-3000", cfg.max_bits + cfg.guard_bits)
        value, bound = evaluate._eval_bounded("C", z, cfg.with_bits(doc["achieved_bits"]))
        size = max(abs(value.real), abs(value.imag))
        supported = int(mpmath.floor(mpmath.log10(size / bound)))
        assert 1 <= significant_digits(doc["value"][0]) <= supported < 200
        # where the bound supports more, the digits stay 0.30103 achieved_bits
        code, out, _ = run_cli(capsys, "eval", "--what", "P", "--z", "0.1,1",
                               "--no-cache", "--json")
        assert code == 0
        assert significant_digits(json.loads(out)["value"][0]) == 77

    def test_norms_beyond_kernel_budget_refused(self, capsys):
        # the n = 4 beta-norm needs about 53000 bits, past the kernels'
        # stated error budget (bits < 2^15): refused at the first rung
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "norms", "--n", "4", "--no-cache")
        assert code == 3
        assert time.perf_counter() - t0 < 60
        assert err.startswith("precision exhausted:") and err.count("\n") == 1
        assert "Traceback" not in err and "32768" in err

    def test_dead_worker_is_a_library_error(self, capsys, monkeypatch):
        # a forked worker that ends without a result (as when it is killed)
        # is one "error:" line and exit 2, not a traceback out of main
        from cmpartitions import precision
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(precision, "_work", lambda fn, tasks, out: os._exit(0))
        code, out, err = run_cli(capsys, "norms", "--n", "1", "--no-cache")
        assert code == 2 and out == ""
        assert err.startswith("error: WorkerLost: worker process ") and err.count("\n") == 1
        assert "ended without a result" in err

    def test_start_at_ceiling_still_confirms(self, capsys):
        # the ceiling is raised to twice the start
        code, out, _ = run_cli(capsys, "eval", "--what", "j", "--z", "0,1",
                               "--precision-bits", "512",
                               "--max-precision-bits", "512", "--no-cache",
                               "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"][0].startswith("1728.0")
        assert doc["achieved_bits"] == 512

    def test_eval_reads_point_at_its_precision(self, capsys):
        # 0.1 is not a binary fraction, so --z must be read at a precision
        # above the accepted rung's, not at a fixed one
        code, out, _ = run_cli(capsys, "eval", "--what", "j", "--z", "0.1,1.3",
                               "--precision-bits", "1024", "--no-cache", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["achieved_bits"] == 1024
        with mpmath.workprec(2200):
            z = mpc(mpf("0.1"), mpf("1.3"))
            expected = evaluate.eval_j(z, PrecisionConfig(2200))
            value = mpc(*map(mpf, doc["value"]))
            assert abs(value - expected) < abs(expected) * mpf(2) ** -1000


class TestKernelCounts:
    """One kernel call per SL2(Z) class of one table: the kernel at z, 2z,
    3z and 6z gives P, A, B, C and j, and at one point j and theta j.  A
    command shares one table over its points (the resolvent check one per
    point, masser one per n), and pn one per rung."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        # the working bits of each call of the basics kernel
        original = evaluate._reduced_basics
        calls = []

        def counting(w, b):
            calls.append(b)
            return original(w, b)

        monkeypatch.setattr(evaluate, "_reduced_basics", counting)
        return calls

    def test_verify_decomp(self, capsys, kernel_calls):
        code, out, _ = run_cli(capsys, "verify-decomp", "--trials", "3",
                               "--n-max", "2", "--tol", "2^-160",
                               "--precision-bits", "512", "--seed", "1",
                               "--no-cache", "--json")
        assert code == 0
        # 4 for each random point; the CM points of n = 1 and 2 at alpha,
        # 2 alpha, 3 alpha and 6 alpha meet 2 and 3 classes, as in pn
        assert json.loads(out)["points"] == 11
        assert len(kernel_calls) == 4 * 3 + 2 + 3

    def test_masser_n1(self, capsys, kernel_calls):
        # the 3 alphas and their 24 images each meet the 37 classes of the
        # beta-norm of n = 1; the direct C at alpha reads the same table
        code, out, _ = run_cli(capsys, "masser", "--n", "1", "--tol", "1e-15",
                               "--precision-bits", "512", "--no-cache",
                               "--json")
        assert code == 0
        assert len(json.loads(out)["rows"]) == 3
        assert len(kernel_calls) == 37

    def test_verify_appendix(self, capsys, kernel_calls):
        # 12 coset images, each at four multiples, meet 20 classes; j(z) is
        # the identity's
        code, out, _ = run_cli(capsys, "verify-appendix", "--trials", "2",
                               "--tol", "1e-30", "--precision-bits", "512",
                               "--seed", "1", "--no-cache", "--json")
        assert code == 0
        assert json.loads(out)["points"] == 2
        assert len(kernel_calls) == 20 * 2

    @pytest.mark.parametrize("n, classes", [(1, 2), (2, 3), (30, 16)])
    def test_pn_one_kernel_call_per_class_per_rung(self, capsys, kernel_calls,
                                                   n, classes):
        # the evaluated forms' points at alpha, 2 alpha, 3 alpha and 6 alpha
        # meet this many SL2(Z) classes, counting a class and its mirror once
        code, _, _ = run_cli(capsys, "pn", "--n", str(n), "--no-cache")
        assert code == 0
        per_rung = Counter(kernel_calls)
        # the first rung, at the magnitude predicted from the forms plus
        # 256 bits, closes for every n
        assert len(per_rung) == {1: 1, 2: 1, 30: 1}[n]
        assert set(per_rung.values()) == {classes}

    @pytest.mark.parametrize("n, classes", [(1, 37), (2, 121)])
    def test_norms_one_kernel_call_per_class_pair_per_rung(self, capsys, monkeypatch,
                                                           tmp_path, n, classes):
        # the beta-norm's alphas and their non-fixing images meet this many
        # SL2(Z) classes, counting a class and its mirror once: 2 + 35 for
        # n = 1 and 3 + 118 for n = 2, in its one certified rung, sized by
        # the predicted magnitude with no probe rung before it.  The j-norm's
        # alphas (2 classes for n = 1, 3 for n = 2) take one call each, in
        # its one rung at the working precision.  The beta-norm's calls run
        # in forked processes, so each call appends to a file.
        j_classes = {1: 2, 2: 3}[n]
        original = modpoly._j_from_eta
        log = tmp_path / "calls"

        def counting(z, b, q=None):
            with open(log, "a") as handle:
                handle.write(f"{b}\n")
            return original(z, b, q)

        monkeypatch.setattr(modpoly, "_j_from_eta", counting)
        code, _, _ = run_cli(capsys, "norms", "--n", str(n), "--no-cache")
        assert code == 0
        per_rung = Counter(map(int, log.read_text().split()))
        assert len(per_rung) == 2
        assert per_rung[256 + 32] == j_classes
        assert max(per_rung) > 256 + 32 and per_rung[max(per_rung)] == classes


class TestVerification:
    def test_verify_decomp_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-decomp", "--trials", "3",
                               "--n-max", "1", "--seed", "7", "--no-cache")
        assert code == 0
        assert "PASS" in out

    def test_verify_decomp_deterministic(self, capsys):
        args = ("verify-decomp", "--trials", "4", "--n-max", "1",
                "--seed", "7", "--json", "--no-cache")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_verify_decomp_fails_with_absurd_tol(self, capsys):
        code, out, _ = run_cli(capsys, "verify-decomp", "--trials", "2",
                               "--n-max", "1", "--tol", "1e-200", "--no-cache")
        assert code == 2
        assert "FAIL" in out

    def test_verify_appendix_single_point(self, capsys):
        code, out, _ = run_cli(capsys, "verify-appendix", "--z", "0.5,2",
                               "--precision-bits", "512", "--tol", "1e-30",
                               "--no-cache", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        for which in ("aprime", "b"):
            row = doc["per_polynomial"][which][0]
            assert len(row["per_coefficient"]) == 13

    def test_masser_n1(self, capsys):
        code, out, _ = run_cli(capsys, "masser", "--n", "1",
                               "--precision-bits", "512", "--tol", "1e-15",
                               "--no-cache", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert len(doc["rows"]) == 3

    def test_fields_printed_at_their_own_precision(self, capsys):
        # the tolerance is read at 128 bits, the deviations computed at 544:
        # neither is rounded to 53 bits before its 20 digits are printed
        code, out, _ = run_cli(capsys, "verify-appendix", "--trials", "1", "--tol", "1e-30",
                               "--no-cache", "--json")
        assert code == 0
        assert json.loads(out)["tolerance"] == "1.0e-30"
        code, out, _ = run_cli(capsys, "masser", "--n", "1", "--precision-bits", "512",
                               "--tol", "1e-15", "--no-cache", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["tolerance"] == "1.0e-15"
        assert doc["max_deviation"] in [row["deviation"] for row in doc["rows"]]

    def test_verify_commands_keep_their_precision(self, capsys):
        # at 512 bits the masser rows sit near 2^-548, P - (A + BC) near
        # 2^-514 and the resolvents near 2^-532: a tail value rounded at 53
        # bits passes the commands' tolerances (1e-15, 2^-160, 1e-30), not 2^-448
        common = ("--precision-bits", "512", "--seed", "1", "--no-cache", "--json")
        deviations = []
        for n in ("1", "2"):
            code, out, _ = run_cli(capsys, "masser", "--n", n, *common)
            assert code == 0
            deviations += [row["deviation"] for row in json.loads(out)["rows"]]
        for argv in (("verify-decomp", "--trials", "100", "--n-max", "6"),
                     ("verify-appendix", "--trials", "25")):
            code, out, _ = run_cli(capsys, *argv, *common)
            assert code == 0
            deviations.append(json.loads(out)["max_deviation"])
        with mpmath.workprec(128):
            assert max(mpf(d) for d in deviations) < mpf(2) ** -448, deviations

    def test_norms_skip_beta(self, capsys):
        code, out, _ = run_cli(capsys, "norms", "--n", "1", "--skip-beta",
                               "--no-cache", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["j_norm"]["value"] == "-12771880859375"
        assert doc["j_norm"]["coprime_to_6"] is True


# Whether a command's document passes, by command
VERDICT = {
    "verify-decomp": lambda doc: doc["pass"],
    "verify-appendix": lambda doc: doc["pass"],
    "masser": lambda doc: doc["pass"],
    "hypothesis": lambda doc: doc["f_integral"] and doc["companion_integral"],
    "norms": lambda doc: doc["j_norm"]["coprime_to_6"] and doc["beta_norm"]["coprime_to_6"],
    "report": lambda doc: all(b["pn"] == b["pn_oracle"] for b in doc["per_n"]),
}


@pytest.mark.parametrize("argv, passes", [
    (("verify-decomp", "--trials", "2", "--n-max", "1"), True),
    (("verify-decomp", "--trials", "2", "--n-max", "1", "--tol", "1e-200"), False),
    (("verify-appendix", "--trials", "1", "--tol", "1e-30"), True),
    (("verify-appendix", "--trials", "1", "--tol", "1e-300"), False),
    (("masser", "--n", "1", "--tol", "1e-15"), True),
    (("masser", "--n", "1", "--tol", "1e-300"), False),
    (("hypothesis", "--order", "20"), True),
    (("norms", "--n", "1"), True),
    (("report", "--n-max", "1", "--hypothesis-order", "20"), True),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_exit_code_agrees_with_verdict(capsys, argv, passes):
    code, out, _ = run_cli(capsys, *argv, "--no-cache", "--json")
    doc = json.loads(out)
    assert bool(VERDICT[argv[0]](doc)) is passes
    assert code == (0 if passes else 2)
    if "pass" in doc:
        assert doc["pass"] is passes


class TestParser:
    """The parser is built once per process, and a parse leaves it as it was."""

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_back_to_back_calls_print_what_fresh_calls_print(self, capsys):
        calls = [("verify-decomp", "--trials", "2", "--n-max", "1", "--tol", "1e-200",
                  "--json"),
                 ("verify-decomp", "--trials", "2", "--n-max", "1"),
                 ("eval", "--what", "P", "--z", "0.1,1", "--tol", "2^-100", "--json"),
                 ("eval", "--what", "P", "--z", "0.1,1"),
                 ("hypothesis", "--order", "20", "--json"),
                 ("hypothesis", "--order", "20"),
                 ("forms", "--n", "2")]
        in_turn = [run_cli(capsys, *argv, "--no-cache") for argv in calls]
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv, "--no-cache"))
        assert in_turn == fresh
        assert [code for code, _, _ in in_turn] == [2, 0, 0, 0, 0, 0, 0]


class TestExits:
    """Library failures map to an exit code and one line of stderr, never a
    traceback."""

    @pytest.mark.parametrize("exc,code,line", [
        (NotNearIntegral("residual 0.4"), 2, "verification failed: residual 0.4"),
        (NoFixingClass("2 classes fix alpha"), 2,
         "error: NoFixingClass: 2 classes fix alpha"),
    ], ids=["not_near_integral", "other_library_error"])
    def test_library_error(self, capsys, monkeypatch, exc, code, line):
        def fail(n, cfg):
            raise exc

        monkeypatch.setattr(recognize, "compute_pn", fail)
        assert run_cli(capsys, "pn", "--n", "1", "--no-cache") == (code, "", line + "\n")


class TestCache:
    def test_roundtrip_byte_identical(self, capsys, tmp_path):
        path = str(tmp_path / "cache.json")
        args = ("pn", "--n", "2", "--cache-path", path, "--json")
        _, out1, _ = run_cli(capsys, *args)
        first_bytes = open(path, "rb").read()
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        assert open(path, "rb").read() == first_bytes

    def test_version_mismatch_ignored(self, capsys, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"version": 99, "entries": [
            {"n": 1, "working_bits": 256, "pn": "999"}]}))
        code, out, err = run_cli(capsys, "pn", "--n", "1",
                                 "--cache-path", str(path))
        assert code == 0
        assert out.strip() == "1"  # not the poisoned value
        assert "version mismatch" in err

    @pytest.mark.parametrize("content,warning", [
        ("{ not json", "unreadable"),
        ('{"version": 1, "entries": [1]}', "malformed"),
        ('{"version": 1, "entries": [{"n": 1, "working_bits": 256}]}', "malformed"),
        # every key present, but working_bits is not an int (and pn is wrong)
        (json.dumps({"version": 1, "entries": [{
            "n": 1, "discriminant": -23, "forms": [], "p_values": [],
            "scaled_poly": [], "pn": "7", "residual": "0", "achieved_bits": 256,
            "sharpness_divisor": 23, "working_bits": "high"}]}), "malformed"),
    ], ids=["not_json", "entry_not_dict", "entry_without_pn",
            "working_bits_not_int"])
    def test_malformed_bypassed(self, capsys, tmp_path, content, warning):
        path = tmp_path / "cache.json"
        path.write_text(content)
        code, out, err = run_cli(capsys, "pn", "--n", "1",
                                 "--cache-path", str(path))
        assert code == 0
        assert out.strip() == "1"
        assert warning in err
        code, out, err = run_cli(capsys, "cache", "show",
                                 "--cache-path", str(path))
        assert code == 0
        assert out.strip() == f"cache at {path}: 0 entries"
        assert warning in err

    def test_higher_precision_shadows(self, capsys, tmp_path):
        path = str(tmp_path / "cache.json")
        run_cli(capsys, "pn", "--n", "1", "--cache-path", path,
                "--precision-bits", "320")
        cache = json.loads(open(path).read())
        assert cache["entries"][0]["working_bits"] == 320
        # a lower-precision request reuses the stored entry (no new write)
        before = open(path, "rb").read()
        code, out, _ = run_cli(capsys, "pn", "--n", "1", "--cache-path", path,
                               "--precision-bits", "256")
        assert code == 0 and out.strip() == "1"
        assert open(path, "rb").read() == before

    def test_tol_neither_reads_nor_writes(self, capsys, tmp_path):
        # records are kept for the default tolerance alone: a --tol run
        # computes its own, as under --no-cache, and stores nothing
        path = tmp_path / "cache.json"
        tight = ("pn", "--n", "3", "--tol", "2^-1000", "--json")
        _, fresh, _ = run_cli(capsys, *tight, "--no-cache")
        assert run_cli(capsys, *tight, "--cache-path", str(path)) == (0, fresh, "")
        assert not path.exists()
        run_cli(capsys, "pn", "--n", "3", "--cache-path", str(path))
        before = path.read_bytes()
        assert run_cli(capsys, *tight, "--cache-path", str(path)) == (0, fresh, "")
        assert path.read_bytes() == before
        stored = json.loads(before)["entries"][0]
        assert stored["achieved_bits"] < json.loads(fresh)["achieved_bits"]

    def test_show_and_clear(self, capsys, tmp_path):
        path = str(tmp_path / "cache.json")
        run_cli(capsys, "pn", "--n", "1", "--cache-path", path)
        code, out, _ = run_cli(capsys, "cache", "show", "--cache-path", path)
        assert code == 0 and "n=1" in out
        code, out, _ = run_cli(capsys, "cache", "clear", "--cache-path", path)
        assert (code, out) == (0, f"cache cleared: {path}\n")
        assert not os.path.exists(path)

    def test_clear_prints_its_line_under_json(self, capsys, tmp_path):
        path = str(tmp_path / "cache.json")
        run_cli(capsys, "pn", "--n", "1", "--cache-path", path)
        code, out, err = run_cli(capsys, "cache", "clear", "--json", "--cache-path", path)
        assert (code, out, err) == (0, f"cache cleared: {path}\n", "")
        assert not os.path.exists(path)

    @pytest.mark.parametrize("content", [
        {"version": 1, "entries": []},
        {"version": 1, "entries": [], "metadata": []},
    ], ids=["without_metadata", "metadata_not_dict"])
    def test_file_without_metadata_is_used(self, capsys, tmp_path, content):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(content))
        code, out, err = run_cli(capsys, "pn", "--n", "1",
                                 "--cache-path", str(path))
        assert (code, out, err) == (0, "1\n", "")
        entries = json.loads(path.read_text())["entries"]
        assert [(e["n"], e["pn"]) for e in entries] == [(1, "1")]

    def test_failed_write_warns(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        path = str(blocker / "cache.json")
        code, out, err = run_cli(capsys, "pn", "--n", "1", "--cache-path", path)
        assert (code, out) == (0, "1\n")
        assert err == f"cannot write cache {path}: {blocker} is not a directory\n"

    def test_stale_top_level_keys_dropped(self, capsys, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"version": 1, "entries": [],
                                    "metadata": {"created": 0}}))
        code, out, _ = run_cli(capsys, "pn", "--n", "1", "--cache-path", str(path))
        assert (code, out) == (0, "1\n")
        assert sorted(json.loads(path.read_text())) == ["entries", "version"]

    def test_clear_directory_is_an_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "cache", "clear",
                                 "--cache-path", str(tmp_path))
        assert (code, out) == (4, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert tmp_path.is_dir()

    def test_env_var_default(self, capsys, tmp_path, monkeypatch):
        path = str(tmp_path / "env-cache.json")
        monkeypatch.setenv(cli.CACHE_ENV_VAR, path)
        code, _, _ = run_cli(capsys, "pn", "--n", "1")
        assert code == 0
        assert os.path.exists(path)


class TestReport:
    def test_n1_document(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "report", "--n-max", "1",
                               "--hypothesis-order", "60", "--json",
                               "--cache-path", str(tmp_path / "c.json"))
        assert code == 0
        doc = json.loads(out)
        block = doc["per_n"][0]
        assert block["scaled_poly"] == ["1", "-529", "82616", "-5097973"]
        assert block["pn"] == block["pn_oracle"] == "1"
        assert block["j_norm"]["coprime_to_6"] is True
        assert block["beta_norm"]["coprime_to_6"] is True
        assert doc["hypothesis"]["f_integral"] is True
        assert len(block["resolvent_roots"]) == 3

    def test_blocks_run_on_the_callers_config(self, monkeypatch):
        seen = []

        class Stop(Exception):
            pass

        def record(n, cfg):
            seen.append(cfg)
            raise Stop

        monkeypatch.setattr(cli, "_record_entry", record)
        cfg = PrecisionConfig(256, 4096)
        with pytest.raises(Stop):
            cli.report_bundle(1, cfg, hypothesis_order=2, cached_entries={})
        assert seen == [cfg] and seen[0].abs_tol == mpf(2) ** -128

    def test_malformed_cache_reported_and_kept(self, capsys, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text('{"version": 1, "entries": [1]}')
        code, out, err = run_cli(capsys, "report", "--n-max", "1",
                                 "--hypothesis-order", "20", "--json",
                                 "--cache-path", str(path))
        warning = f"malformed cache in {path}; ignoring"
        assert code == 0
        assert json.loads(out)["cache_warning"] == warning
        assert err == warning + "\n"
        assert path.read_text() == '{"version": 1, "entries": [1]}'

    def test_warm_cache_is_not_rewritten(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        args = ("report", "--n-max", "1", "--hypothesis-order", "20",
                "--cache-path", str(path))
        assert run_cli(capsys, *args)[0] == 0
        before = os.stat(path)
        code, _, err = run_cli(capsys, *args)
        after = os.stat(path)
        assert (code, err) == (0, "")
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_failed_write_warns(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        path = str(blocker / "cache.json")
        code, out, err = run_cli(capsys, "report", "--n-max", "1",
                                 "--hypothesis-order", "20", "--json",
                                 "--cache-path", path)
        assert code == 0 and "cache_warning" not in json.loads(out)
        assert err == f"cannot write cache {path}: {blocker} is not a directory\n"

    def test_tol_neither_reads_nor_writes(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        args = ("report", "--n-max", "1", "--hypothesis-order", "20", "--json")
        run_cli(capsys, *args, "--cache-path", str(path))
        before = path.read_bytes()
        tight = (*args, "--tol", "2^-1000")
        _, fresh, _ = run_cli(capsys, *tight, "--no-cache")
        assert run_cli(capsys, *tight, "--cache-path", str(path)) == (0, fresh, "")
        assert path.read_bytes() == before

    def test_cache_reuse_identical_output(self, capsys, tmp_path):
        path = str(tmp_path / "cache.json")
        args = ("report", "--n-max", "1", "--hypothesis-order", "40",
                "--json", "--cache-path", path)
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
