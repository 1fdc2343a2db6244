"""CLI tests: exit codes, CSV shape, determinism, manifests."""
import csv
import json
from dataclasses import replace

import pytest

from nilgrowth.cli import EXIT_BUDGET, EXIT_OK, EXIT_STRUCTURAL, EXIT_USAGE, build_parser, load_spec, main
from nilgrowth.errors import SpecError
from nilgrowth.gcdsums import LatticeBallSpec, gcd_sum


def _read_csv(path):
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            if not line.startswith("#"):
                rows.append(next(csv.reader([line])))
    return rows


def test_conj_row_example(tmp_path):
    out = tmp_path / "conj.csv"
    assert main(["conj", "--spec", "H1", "--radius", "4", "--mode", "exact", "--out", str(out)]) == EXIT_OK
    rows = _read_csv(out)
    assert rows[0] == ["n", "classes"]
    assert rows[2] == ["1", "5"]


def test_csv_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["ball", "--spec", "H2", "--radius", "4", "--out", str(out)]) == EXIT_OK
    assert a.read_bytes().replace(b"a.csv", b"") == b.read_bytes().replace(b"b.csv", b"")


def test_manifest_sidecar(tmp_path):
    out = tmp_path / "ball.csv"
    assert main(["ball", "--spec", "H1", "--radius", "3", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((tmp_path / "ball.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "ball"
    assert manifest["parameters"]["radius"] == 3
    assert manifest["spec"] == {"s": 0, "r": 1, "delta": []}
    assert manifest["output"] == "ball.csv"
    assert out.read_text().splitlines()[0] == "# manifest: ball.csv.manifest.json"


def test_back_to_back_calls_match_fresh_calls(capsys):
    # the parser is built once per process, and each call still parses into a fresh namespace
    calls = [
        ["conj", "--spec", "H1", "--radius", "4"],
        ["gcdsum", "--dim", "2", "--radius", "5"],
        ["conj", "--spec", "H1", "--radius", "4", "--mode", "bounds"],
        ["conj", "--radius", "x"],
        ["conj", "--spec", "H1", "--radius", "4"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert [run(argv) for argv in calls] == fresh
    assert [code for code, _, _ in fresh] == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK]
    assert fresh[0][1].splitlines()[0] == fresh[4][1].splitlines()[0] == "n,classes"
    assert fresh[2][1].splitlines()[0] == "n,lower,upper,central_exact"
    parser = build_parser()
    assert parser is build_parser()
    parser.parse_args(["gcdsum", "--dim", "3", "--radius", "2", "--method", "sieve", "--budget", "9"])
    args = parser.parse_args(["conj", "--radius", "3"])
    assert not hasattr(args, "dim") and args.mode == "exact" and args.budget is None


def test_budget_exit_code(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert main(["ball", "--spec", "H1", "--radius", "12", "--budget", "50", "--out", str(out)]) == EXIT_BUDGET
    assert not out.exists()
    # the totient sieve's cells go through the same budget: two rows, the second sieving 100001 cells
    argv = ["gcdsum", "--dim", "2", "--radius", "100000", "--step", "99999", "--method", "sieve", "--budget", "10"]
    assert main(argv + ["--out", str(out)]) == EXIT_BUDGET
    assert not out.exists()
    assert capsys.readouterr().err.splitlines()[-1].startswith("budget exceeded: cells of the totient sieve: 100001")
    # and so do the rows of a sweep, before either route runs a ball: a sieve sweep of 10^11 rows once ran on
    for method in ("sieve", "direct"):
        assert main(["gcdsum", "--dim", "2", "--radius", str(10**11), "--method", method]) == EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [
            "budget exceeded: rows of the gcd-sum table: 100000000000 needed, beyond the 100000000 cap"
        ]
    # the twisted brute force charges one ball: the radius-7 conjugator ball (1069), whose prefix it counts
    auto = tmp_path / "swap.json"
    auto.write_text(json.dumps({"M": [[0, 1], [1, 0]], "kappa": [0, 0]}))
    argv = ["twisted", "--spec", "H1", "--radius", "3", "--auto", str(auto), "--mode", "brute"]
    assert main(argv + ["--conjugator-radius", "5", "--budget", "1068", "--out", str(out)]) == EXIT_BUDGET
    assert not out.exists()


def test_unknown_json_keys_exit_2_with_one_line(tmp_path, capsys):
    # a misspelt kappa was once ignored: this automorphism read as the identity and exited 0
    auto = tmp_path / "auto.json"
    auto.write_text(json.dumps({"M": [[1, 0], [0, 1]], "kapa": [6, 8]}))
    assert main(["twisted", "--spec", "H1", "--radius", "3", "--auto", str(auto)]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        "error: bad automorphism payload: unknown keys ['kapa']; known: ['M', 'kappa']"
    ]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"s": 0, "r": 1, "delta": [], "dleta": [2]}))
    assert main(["ball", "--spec", str(spec), "--radius", "3"]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        "error: bad group spec payload: unknown keys ['dleta']; known: ['s', 'r', 'delta']"
    ]


def test_usage_errors(tmp_path):
    assert main(["ball", "--spec", "NOPE", "--radius", "3"]) == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["ball", "--spec", "H1", "--radius", "3", "--frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["not-a-command"])
    assert main(["gcdsum", "--dim", "2", "--radius", "6", "--step", "0"]) == EXIT_USAGE
    assert main(["gcdsum", "--dim", "2", "--radius", "6", "--step", "-2"]) == EXIT_USAGE


def test_spec_file_loading(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"s": 1, "r": 1, "delta": []}))
    spec = load_spec(str(path))
    assert (spec.s, spec.r) == (1, 1)
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(SpecError):
        load_spec(str(bad))


@pytest.mark.parametrize("payload", [{"s": 1.9, "r": 1, "delta": []}, {"s": "1", "r": 1, "delta": []}])
def test_non_integral_spec_is_a_usage_error(tmp_path, capsys, payload):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    assert main(["ball", "--spec", str(path), "--radius", "2"]) == EXIT_USAGE
    assert _one_line_error(capsys)


@pytest.mark.parametrize("payload", [{"M": [[1.7, 0], [0, 1]]}, {"M": [[1, 0], [0, 1]], "kappa": [0.5, "0"]}])
def test_non_integral_automorphism_is_a_usage_error(tmp_path, capsys, payload):
    path = tmp_path / "auto.json"
    path.write_text(json.dumps(payload))
    assert main(["twisted", "--spec", "H1", "--radius", "2", "--auto", str(path)]) == EXIT_USAGE
    assert _one_line_error(capsys)


def test_stdout_table(capsys):
    assert main(["growth", "--spec", "H1", "--radius", "3"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,count"
    assert lines[-1] == "3,53"


def test_gcdsum_offset(tmp_path):
    out = tmp_path / "g.csv"
    code = main(
        ["gcdsum", "--dim", "2", "--radius", "8", "--norm", "cube", "--offset", "3,-5", "--out", str(out)]
    )
    assert code == EXIT_OK
    rows = _read_csv(out)
    assert rows[0] == ["n", "sum"] and len(rows) == 9


@pytest.mark.parametrize("norm, offset", [("cube", "3,-5,2"), ("l1", "2,-1,3"), ("cube", "0,0,0"), ("l1", "0,0,0")])
def test_gcdsum_direct_rows_from_one_pass_match_each_ball(capsys, norm, offset):
    # radius 10 with step 3 samples 1, 4, 7, 10; radius 11 ends on 10, so the one pass runs to 10, not 11
    for radius in (10, 11):
        argv = ["gcdsum", "--dim", "3", "--radius", str(radius), "--norm", norm, "--offset", offset, "--step", "3"]
        assert main(argv) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        ball = LatticeBallSpec(3, 0, norm, tuple(int(a) for a in offset.split(",")))
        expected = [f"{n},{gcd_sum(replace(ball, radius=n))}" for n in (1, 4, 7, 10)]
        assert rows == ["n,sum"] + expected
        if offset == "0,0,0":
            assert main(argv + ["--method", "sieve"]) == EXIT_OK
            assert capsys.readouterr().out.splitlines() == rows


def test_gcdsum_radius_zero_prints_the_header_only(capsys):
    for method in ("direct", "sieve"):
        for norm in ("cube", "l1"):
            assert main(["gcdsum", "--dim", "2", "--radius", "0", "--norm", norm, "--method", method]) == EXIT_OK
            assert capsys.readouterr().out.splitlines() == ["n,sum"]


def test_gcdsum_one_pass_past_the_budget_exits_3(capsys):
    # the one cube pass holds (N + 1) x width cells: about 2.0e8 here, past the default 10^8
    assert main(["gcdsum", "--dim", "1", "--radius", "200", "--offset", "1000000"]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.strip().splitlines() == [
        "budget exceeded: cells of the gcd histogram: 201040401 needed, beyond the 100000000 cap"
    ]


def test_twisted_and_extension(tmp_path):
    auto = tmp_path / "swap.json"
    auto.write_text(json.dumps({"M": [[0, 1], [1, 0]], "kappa": [0, 0]}))
    out = tmp_path / "tw.csv"
    assert main(["twisted", "--spec", "H1", "--radius", "4", "--auto", str(auto), "--out", str(out)]) == EXIT_OK
    rows = _read_csv(out)
    assert [r[1] for r in rows[1:]] == ["1", "3", "5", "11", "13"]
    manifest = json.loads((tmp_path / "tw.csv.manifest.json").read_text())
    assert manifest["stable"] is True
    out2 = tmp_path / "ext.csv"
    code = main(
        ["extension", "--spec", "H1", "--radius", "4", "--auto", str(auto), "--order", "2", "--out", str(out2)]
    )
    assert code == EXIT_OK
    # a negative radius is a usage error here too, not an empty table
    argv = ["extension", "--spec", "H1", "--radius", "-1", "--auto", str(auto), "--order", "2"]
    assert main(argv + ["--out", str(tmp_path / "neg.csv")]) == EXIT_USAGE
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"M": [[2, 0], [0, 1]], "kappa": [0, 0]}))
    assert main(["twisted", "--spec", "H1", "--radius", "3", "--auto", str(bad)]) == EXIT_USAGE


def test_unstable_twisted_count_exits_4(tmp_path, capsys):
    # kappa = (6, 8) outruns the default conjugator ball: n = 2 has 14 twisted classes, the brute force reports 15
    auto = tmp_path / "shift.json"
    auto.write_text(json.dumps({"M": [[1, 0], [0, 1]], "kappa": [6, 8]}))
    argv, out = ["twisted", "--spec", "H1", "--radius", "2", "--auto", str(auto)], tmp_path / "tw.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_STRUCTURAL
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "structural failure: twisted counts not stable: conjugator radius 4 gives [1, 5, 16], "
        "radius 6 gives [1, 5, 15]; pass a larger --conjugator-radius"
    ]
    # the remedy it names: conjugator radius 8 and its recheck at 10 both give the structural count, 14
    assert main(argv + ["--conjugator-radius", "8"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "2,14"
    auto.write_text(json.dumps({"M": [[0, 1], [1, 0]], "kappa": [0, 0]}))
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_one_ball_serves_ball_conj_and_central_growth(tmp_path, monkeypatch):
    # the three subcommands ask for one ball: the first searches it, the others reuse it, with the same rows
    import nilgrowth.words as words

    argvs = [["ball"], ["conj", "--mode", "exact"], ["growth", "--mode", "central"]]

    def rows(clear):
        tables = []
        for i, argv in enumerate(argvs):
            if clear:
                words.enumerate_ball.cache_clear()
            out = tmp_path / f"{clear}{i}.csv"
            assert main([*argv, "--spec", "HD2", "--radius", "6", "--out", str(out)]) == EXIT_OK
            tables.append(_read_csv(out))
        return tables

    searches, spheres = [], words._spheres
    monkeypatch.setattr(words, "_spheres", lambda *a: searches.append(a[1:]) or spheres(*a))
    words.enumerate_ball.cache_clear()
    warm = rows(clear=False)
    assert len(searches) == 1
    assert rows(clear=True) == warm
    assert len(searches) == 4


def test_series_pipeline(tmp_path):
    table = tmp_path / "sq.csv"
    with open(table, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "value"])
        writer.writerows((n, n * n) for n in range(30))
    report_path = tmp_path / "qp.json"
    assert main(["series", "detect-qp", "--in", str(table), "--out", str(report_path)]) == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["found"] and report["period"] == 1 and report["degree"] == 2
    fit_path = tmp_path / "fit.json"
    assert main(["series", "fit", "--in", str(table), "--window", "5:25", "--out", str(fit_path)]) == EXIT_OK
    fit = json.loads(fit_path.read_text())
    assert (fit["family"], fit["degree"]) == ("poly_d", 2)
    assert "manifest" in fit
    assert main(["series", "fit", "--in", str(table)]) == EXIT_USAGE  # missing window


def _write_table(path, values):
    path.write_text("n,value\n" + "".join(f"{n},{v}\n" for n, v in enumerate(values)))
    return str(path)


def test_series_reads_integer_cells_exactly(tmp_path, capsys):
    # past 2^53 a float cell rounds; the integer cells keep the quadratic exact
    table = _write_table(tmp_path / "big.csv", [10**17 + n * n + n for n in range(30)])
    assert main(["series", "detect-qp", "--in", table]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert (report["found"], report["period"], report["degree"]) == (True, 1, 2)
    assert report["polys"] == [[str(10**17), "1", "1"]]


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("action", [["detect-qp"], ["fit", "--window", "3:25"]])
def test_non_finite_series_cells_are_usage_errors(tmp_path, capsys, cell, action):
    values = [n * n + 1 for n in range(30)]
    values[7] = cell
    table = _write_table(tmp_path / "t.csv", values)
    assert main(["series", action[0], "--in", table, *action[1:]]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: bad table row ['7', '{cell}']: non-finite value '{cell}'"]


def test_fit_skips_models_past_the_float_range(tmp_path, capsys):
    # every candidate but the pure constant leaves the float range on this window
    table = _write_table(tmp_path / "t.csv", [1.7e308] * 30)
    assert main(["series", "fit", "--in", table, "--window", "3:25"]) == EXIT_OK
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert (report["family"], report["degree"]) == ("poly_d", 0)
    assert captured.err == ""
    # a jump from 1e-300 to 1.7e308 puts every candidate past the float range: a usage error
    table = _write_table(tmp_path / "t.csv", [1e-300] * 10 + [1.7e308] * 20)
    assert main(["series", "fit", "--in", table, "--window", "3:25"]) == EXIT_USAGE
    assert _one_line_error(capsys)


def test_fit_refuses_integers_past_the_float_range(tmp_path, capsys):
    table = _write_table(tmp_path / "t.csv", [10**400 + n for n in range(30)])
    assert main(["series", "fit", "--in", table, "--window", "3:25"]) == EXIT_USAGE
    assert _one_line_error(capsys)


MANIFEST_KEYS = {"subcommand", "parameters", "spec", "spec_sha256", "version", "budget", "wall_time_s"}
EVERY_MODE = {
    "ball": ["ball", "--spec", "H1", "--radius", "3"],
    "growth-word": ["growth", "--spec", "H1", "--radius", "3", "--mode", "word"],
    "growth-central": ["growth", "--spec", "H1", "--radius", "3", "--mode", "central"],
    "conj-exact": ["conj", "--spec", "H1", "--radius", "3", "--mode", "exact"],
    "conj-oracle": ["conj", "--spec", "H1", "--radius", "3", "--mode", "oracle"],
    "conj-bounds": ["conj", "--spec", "H1", "--radius", "6", "--mode", "bounds"],
    "gcdsum": ["gcdsum", "--dim", "2", "--radius", "6", "--norm", "l1"],
    "twisted-brute": ["twisted", "--spec", "H1", "--radius", "3", "--auto", "{swap}", "--mode", "brute"],
    "twisted-structural": ["twisted", "--spec", "H1", "--radius", "3", "--auto", "{shift}", "--mode", "structural"],
    "extension": ["extension", "--spec", "H1", "--radius", "3", "--auto", "{swap}", "--order", "2"],
    "embeddings": ["embeddings", "--spec", "HD2"],
    "series-detect-qp": ["series", "detect-qp", "--in", "{table}"],
    "series-fit": ["series", "fit", "--in", "{table}", "--window", "5:25"],
    "verify": ["verify", "--spec", "H1", "--quick"],
}


def _every_mode_argv(argv, tmp_path, **extra):
    """argv with its {swap}, {shift} and {table} input files written under tmp_path, and any extra {name} paths."""
    files = {
        "swap": tmp_path / "swap.json",
        "shift": tmp_path / "shift.json",
        "table": tmp_path / "table.csv",
    }
    files["swap"].write_text(json.dumps({"M": [[0, 1], [1, 0]], "kappa": [0, 0]}))
    files["shift"].write_text(json.dumps({"M": [[1, 0], [0, 1]], "kappa": [1, 0]}))
    _write_table(files["table"], [3 * n**3 + n for n in range(30)])
    return [arg.format(**files, **extra) for arg in argv]


# Bad input files for the exit-contract sweep, by the name its argv uses in braces.
BAD_INPUTS = {
    "broken": "{nope",
    "bool_spec": json.dumps({"s": True, "r": 1, "delta": []}),
    "bool_delta": json.dumps({"s": 0, "r": 2, "delta": [True]}),
    "big_weight": json.dumps({"s": 0, "r": 2, "delta": [2**70]}),
    "bool_auto": json.dumps({"M": [[True, False], [False, True]], "kappa": [False, True]}),
    "unknown_key_spec": json.dumps({"s": 0, "r": 1, "delta": [], "dleta": [2]}),
    "unknown_key_auto": json.dumps({"M": [[1, 0], [0, 1]], "kapa": [6, 8]}),
    "nan_table": "n,value\n0,1\n1,nan\n2,3\n",
}


def _bad_argv():
    """(id, argv) for every subcommand and every bad input it reads: one bad value swapped in, or one flag added."""
    cases = []
    for name, argv in EVERY_MODE.items():

        def swap(flag, value, what):
            i = argv.index(flag)
            cases.append(pytest.param(argv[: i + 1] + [value] + argv[i + 2 :], id=f"{name}-{what}"))

        if "--radius" in argv:
            swap("--radius", "-1", "negative-radius")
        if "--spec" in argv:
            for what in ("broken", "bool_spec", "bool_delta", "unknown_key_spec", "missing", "directory"):
                swap("--spec", f"{{{what}}}", f"spec-{what}")
        if "--auto" in argv:
            for what in ("broken", "bool_auto", "unknown_key_auto", "missing", "directory"):
                swap("--auto", f"{{{what}}}", f"auto-{what}")
        if "--in" in argv:
            for what in ("nan_table", "missing", "directory"):
                swap("--in", f"{{{what}}}", f"csv-{what}")
        if name == "gcdsum":
            cases.append(pytest.param(argv + ["--offset", "2,x"], id=f"{name}-malformed-offset"))
        if name != "verify":
            cases.append(pytest.param(argv + ["--out", "{missing}"], id=f"{name}-unwritable-out"))
        if name not in ("verify", "series-detect-qp", "series-fit"):
            cases.append(pytest.param(argv + ["--budget", "0"], id=f"{name}-budget-0"))
    big = ["embeddings", "--spec", "{big_weight}"]
    cases += [pytest.param(big, id="embeddings-big-weight"), pytest.param(big + ["--budget", str(2**200)], id="embeddings-big-weight-big-budget")]
    # the radius-1 ball's keys fit, but its step plan does not
    cases.append(pytest.param(["ball", "--spec", "{big_weight}", "--radius", "1"], id="ball-big-weight-radius-1"))
    return cases


@pytest.mark.parametrize("argv", _bad_argv())
def test_bad_input_exits_2_or_3_without_a_traceback(argv, tmp_path, capsys):
    # the exit contract: a usage error (2) or a budget refusal (3), each with a message and no traceback
    for what, text in BAD_INPUTS.items():
        (tmp_path / what).write_text(text)
    paths = {what: tmp_path / what for what in BAD_INPUTS}
    argv = _every_mode_argv(argv, tmp_path, **paths, missing=tmp_path / "missing" / "file", directory=tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refusing a value
        code = exc.code
    err = capsys.readouterr().err
    assert code in (EXIT_USAGE, EXIT_BUDGET)
    assert err.strip() and "Traceback" not in err


@pytest.mark.parametrize("argv", [argv for argv in EVERY_MODE.values() if "--radius" in argv])
def test_negative_radius_is_a_usage_error(argv, tmp_path, capsys):
    argv = _every_mode_argv(argv, tmp_path)
    argv[argv.index("--radius") + 1] = "-1"
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == ["error: radius must be nonnegative"]


@pytest.mark.parametrize("name", list(EVERY_MODE))
def test_every_subcommand_writes_one_manifest_shape(name, tmp_path, capsys):
    argv = _every_mode_argv(EVERY_MODE[name], tmp_path)
    if name == "verify":
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1].startswith("passed ")
        return
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    params = {k: v for k, v in vars(build_parser().parse_args(argv + ["--out", str(out)])).items() if k != "func"}
    if argv[0] in ("embeddings", "series"):
        manifest = json.loads(out.read_text())["manifest"]
        keys = MANIFEST_KEYS
    else:
        assert out.read_text().splitlines()[0] == "# manifest: out.manifest.json"
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        keys = MANIFEST_KEYS | {"output"}
        assert manifest["output"] == "out"
    if name == "twisted-brute":
        keys = keys | {"stable", "conjugator_radius"}
        assert (manifest["stable"], manifest["conjugator_radius"]) == (True, 5)
    assert set(manifest) == keys
    assert manifest["subcommand"] == argv[0] and manifest["parameters"] == params
    assert (manifest["spec"] is None) == (argv[0] in ("gcdsum", "series"))


def test_embeddings_report(tmp_path):
    out = tmp_path / "emb.json"
    assert main(["embeddings", "--spec", "HD2", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["index_gamma1"] == 4 and report["index_gamma2"] == 2
    assert report["manifest"]["spec_sha256"]


def test_embeddings_budget_exit_code(tmp_path):
    # the radius-4 sample ball of HD2 passes a budget of 5 at sphere 1 (9 elements)
    out = tmp_path / "emb.json"
    assert main(["embeddings", "--spec", "HD2", "--budget", "5", "--out", str(out)]) == EXIT_BUDGET
    assert not out.exists()


@pytest.mark.parametrize("delta", [2**70, 3037000500], ids=["past-int64", "square-past-int64"])
def test_embeddings_on_a_huge_delta_exit_on_the_budget(tmp_path, capsys, delta):
    # the Gamma_1 index delta^2 is charged before any array is built: no OverflowError, no endless coset walk
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"s": 0, "r": 2, "delta": [delta]}))
    assert main(["embeddings", "--spec", str(spec)]) == EXIT_BUDGET
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("budget exceeded: stored cosets of the coset walk")
    if delta < 2**62:
        # verify reaches its embeddings check; with delta = 2^70 the sample balls do not fit 64-bit keys first
        assert main(["verify", "--spec", str(spec), "--quick"]) == EXIT_BUDGET
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("budget exceeded: stored cosets of the coset walk")
    else:
        assert main(["verify", "--spec", str(spec), "--quick"]) == EXIT_USAGE
        assert _one_line_error(capsys)


@pytest.mark.parametrize("how", ["flag", "env"])
def test_negative_budget_is_a_usage_error(how, monkeypatch, capsys):
    argv = ["ball", "--spec", "H1", "--radius", "3"]
    if how == "flag":
        argv += ["--budget", "-1"]
    else:
        monkeypatch.setenv("NILGROWTH_BUDGET", "-1")
    assert main(argv) == EXIT_USAGE
    assert _one_line_error(capsys)


def test_verify_quick():
    assert main(["verify", "--spec", "H1", "--quick"]) == EXIT_OK


def test_embeddings_and_verify_on_a_wide_chain(tmp_path):
    spec = tmp_path / "hd6.json"
    spec.write_text(json.dumps({"s": 0, "r": 2, "delta": [6]}))
    out = tmp_path / "emb.json"
    assert main(["embeddings", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert (report["index_gamma1"], report["index_gamma2"]) == (36, 6)
    assert main(["verify", "--spec", str(spec), "--quick"]) == EXIT_OK


def _one_line_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return len(err) == 1 and err[0].startswith("error: ")


def test_bad_budget_env_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("NILGROWTH_BUDGET", "abc")
    assert main(["ball", "--spec", "H1", "--radius", "3"]) == EXIT_USAGE
    assert _one_line_error(capsys)


def test_missing_or_empty_series_table_is_a_usage_error(tmp_path, capsys):
    assert main(["series", "fit", "--in", str(tmp_path / "missing.csv"), "--window", "1:3"]) == EXIT_USAGE
    assert _one_line_error(capsys)
    header_only = tmp_path / "header.csv"
    header_only.write_text("n,value\n\n")
    assert main(["series", "detect-qp", "--in", str(header_only)]) == EXIT_USAGE
    assert _one_line_error(capsys)


def test_directory_spec_is_a_usage_error(tmp_path, capsys):
    assert main(["ball", "--spec", str(tmp_path), "--radius", "3"]) == EXIT_USAGE
    assert _one_line_error(capsys)


def test_key_overflow_is_a_usage_error(tmp_path, capsys):
    # A weight of 10^15 puts the k bound of the radius-3 ball past 64-bit packed keys.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"s": 0, "r": 2, "delta": [10**15]}))
    assert main(["ball", "--spec", str(path), "--radius", "3"]) == EXIT_USAGE
    assert _one_line_error(capsys)


def test_threads_flag_is_gone(tmp_path):
    for command in ("ball", "growth"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--spec", "H1", "--radius", "2", "--threads", "2"])
        assert exc.value.code == 2
    out = tmp_path / "ball.csv"
    assert main(["ball", "--spec", "H1", "--radius", "2", "--out", str(out)]) == EXIT_OK
    assert "threads" not in json.loads((tmp_path / "ball.csv.manifest.json").read_text())["parameters"]


@pytest.mark.parametrize("argv", [["ball", "--spec", "H1", "--radius", "3"], ["embeddings", "--spec", "HD2"]])
def test_output_into_a_missing_directory_is_a_usage_error(argv, tmp_path, capsys):
    # a table (with its sidecar) and a report, each written under a directory that does not exist
    out = tmp_path / "missing" / "out.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    assert _one_line_error(capsys)
    assert not out.parent.exists()


@pytest.mark.parametrize("blocked", ["x.csv.manifest.json", "x.csv"])
def test_a_failed_table_write_leaves_nothing_behind(blocked, tmp_path, capsys):
    # a directory in the way of the sidecar, or of the table itself: exit 2, one error line, and neither file on disk
    (tmp_path / blocked).mkdir()
    assert main(["ball", "--spec", "H1", "--radius", "2", "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
    assert _one_line_error(capsys)
    assert [p.name for p in tmp_path.iterdir()] == [blocked]
    assert (tmp_path / blocked).is_dir()
