"""The fixture specs reproduce their checked-in reports.

``tests/golden/<spec>.tsv`` is the report that ``simxfer <mode> --spec
fixtures/specs/<spec>.spec`` writes.  Every field must match exactly,
except the correlations (``test_correlation``, ``dev_correlation`` and
each cell's dev correlation), which may differ by at most 1e-12.
``tests/golden/table.tsv`` is ``simxfer table --out`` over all the
reports in ``SPECS`` order, compared exactly.  A change that moves them
regenerates the files from the repository root with those commands and
says why the numbers moved.  Each spec runs once per session; the table
reads the reports that the per-spec tests wrote.
"""

import pytest

from conftest import FIXTURES_DIR, REPO_ROOT, TESTS_DIR

from simxfer.cli import ENV_DATA_DIR, main

GOLDEN_DIR = TESTS_DIR / "golden"
SPECS = {"ue_wordavg": "eval", "dnt_bilstm_run": "run", "ft_wordavg_run": "run",
         "dnt_wordavg_grid": "grid", "ft_bilstm_run": "run", "nt_kl_bilstm_max": "run",
         "nt_mse_wem_wordavg": "run", "dnt_sym_wem_bilstm": "run",
         "dnt_stsb_wem_wordavg": "run", "ft_sick_wordavg": "run"}
TOLERANCE = 1e-12
CORRELATION_FIELDS = {"test_correlation": 1, "dev_correlation": 1, "cell": 4}


def assert_reports_match(got: str, want: str) -> None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), f"{len(got_lines)} lines, want {len(want_lines)}"
    for got_line, want_line in zip(got_lines, want_lines):
        got_fields, want_fields = got_line.split("\t"), want_line.split("\t")
        loose = CORRELATION_FIELDS.get(want_fields[0])
        exact = [f for i, f in enumerate(want_fields) if i != loose]
        assert [f for i, f in enumerate(got_fields) if i != loose] == exact, \
            f"got {got_line!r}, want {want_line!r}"
        if loose is not None:
            diff = abs(float(got_fields[loose]) - float(want_fields[loose]))
            assert diff <= TOLERANCE, f"got {got_line!r}, want {want_line!r} (|diff| {diff:.3g})"


@pytest.fixture(scope="module")
def report_path(tmp_path_factory):
    """The path of a spec's report, which the spec's first request writes."""
    out_dir = tmp_path_factory.mktemp("reports")

    def path(name: str):
        out = out_dir / f"{name}.tsv"
        if not out.exists():
            with pytest.MonkeyPatch.context() as mp:
                mp.setenv(ENV_DATA_DIR, str(REPO_ROOT))
                spec = FIXTURES_DIR / "specs" / f"{name}.spec"
                assert main([SPECS[name], "--spec", str(spec), "--out", str(out)]) == 0
        return out

    return path


@pytest.mark.parametrize("name", SPECS)
def test_fixture_spec_reproduces_golden_report(name, report_path):
    assert_reports_match(report_path(name).read_text(encoding="utf-8"),
                         (GOLDEN_DIR / f"{name}.tsv").read_text(encoding="utf-8"))


def test_table_of_fixture_reports_reproduces_golden_table(report_path, tmp_path):
    out = tmp_path / "table.tsv"
    assert main(["table", *(str(report_path(name)) for name in SPECS), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == (GOLDEN_DIR / "table.tsv").read_text(encoding="utf-8")


def test_comparison_tolerates_only_tiny_correlation_differences():
    want = "dev_correlation\t0.5\nbest_epoch\t3\ncell\t32\t0.1\t10\t0.5\n"
    assert_reports_match(want.replace("0.5\n", "0.5000000000001\n"), want)
    with pytest.raises(AssertionError):
        assert_reports_match(want.replace("\t0.5\n", "\t0.50001\n"), want)
    with pytest.raises(AssertionError):
        assert_reports_match(want.replace("best_epoch\t3", "best_epoch\t4"), want)
    with pytest.raises(AssertionError):
        assert_reports_match(want.replace("\t32\t", "\t64\t"), want)
