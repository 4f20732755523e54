"""The EXPERIMENTS.md drift lint (tools/check_experiments_doc.py)."""

import importlib.util
import json
import os
import textwrap

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
_TOOL = os.path.join(_ROOT, "tools", "check_experiments_doc.py")
_spec = importlib.util.spec_from_file_location("check_experiments_doc",
                                               _TOOL)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def setup(tmp_path, doc, rows=None, txt=None, exp_id="E01",
          results="results"):
    """Write a doc plus one experiment's artifacts; return the paths."""
    out = tmp_path / results
    out.mkdir(parents=True, exist_ok=True)
    if rows is not None:
        (out / (exp_id + ".json")).write_text(json.dumps({"rows": rows}))
    if txt is not None:
        (out / (exp_id + ".txt")).write_text(txt)
    path = tmp_path / "EXPERIMENTS.md"
    path.write_text(textwrap.dedent(doc))
    return str(path), str(tmp_path / "results")


TABLE = """\
    # Experiments

    ## E01 — a table

    | design | p99 | paper |
    |---|---|---|
    | lynx | {cell} | 56us |
    """


class TestCheckDoc:
    def test_cell_matching_at_printed_precision_passes(self, tmp_path):
        doc, res = setup(tmp_path, TABLE.format(cell="471.9"),
                         rows=[{"p99": 471.94}])
        assert lint.check_doc(doc, res) == []

    def test_drifted_cell_flagged_with_its_line(self, tmp_path):
        doc, res = setup(tmp_path, TABLE.format(cell="54.4us"),
                         rows=[{"p99": 57.8}])
        findings = lint.check_doc(doc, res)
        assert [lineno for lineno, _ in findings] == [7]
        assert "'54.4us'" in findings[0][1]

    def test_precision_is_the_cells_own(self, tmp_path):
        # 4.1 is 4.12 at one decimal, but "4.10" claims two.
        doc, res = setup(tmp_path, TABLE.format(cell="4.10"),
                         rows=[{"p99": 4.12}])
        assert len(lint.check_doc(doc, res)) == 1

    def test_bold_and_unit_suffix_are_stripped(self, tmp_path):
        doc, res = setup(tmp_path, TABLE.format(cell="**1.00x**"),
                         rows=[{"p99": 1.0}])
        assert lint.check_doc(doc, res) == []

    def test_text_artifact_numbers_count(self, tmp_path):
        doc, res = setup(tmp_path, TABLE.format(cell="12.0"),
                         txt="config  p99\nlynx    12.0\n")
        assert lint.check_doc(doc, res) == []

    def test_titles_and_notes_do_not_count(self, tmp_path):
        # They quote the paper: a measured cell must not match them.
        doc, res = setup(tmp_path, TABLE.format(cell="21%"),
                         rows=[{"p99": 1.21}, "paper: 21%"],
                         txt="[E01] title (21%)\nnote: paper: 21%\n")
        assert len(lint.check_doc(doc, res)) == 1

    def test_label_and_paper_columns_ignored(self, tmp_path):
        doc, res = setup(tmp_path, """\
            ## E01 — a table

            | 99 | p99 | paper p99 |
            |---|---|---|
            | 20 | 7.5 | 300 |
            """, rows=[{"p99": 7.5}])
        assert lint.check_doc(doc, res) == []

    def test_approximations_ranges_and_prose_skipped(self, tmp_path):
        for cell in ("~229", "1.05-1.12", "383 Ktps @ 185us",
                     "1.96 ms (12.0x)", "—"):
            doc, res = setup(tmp_path, TABLE.format(cell=cell),
                             rows=[{"p99": 0.5}])
            assert lint.check_doc(doc, res) == [], cell

    def test_tables_outside_experiment_sections_skipped(self, tmp_path):
        doc, res = setup(tmp_path, """\
            ## E01 — a table

            | design | p99 |
            |---|---|
            | lynx | 7.5 |

            ## Scorecard

            | verdict | count |
            |---|---|
            | MATCH | 37 |
            """, rows=[{"p99": 7.5}])
        assert lint.check_doc(doc, res) == []

    def test_missing_artifact_flagged(self, tmp_path):
        doc, res = setup(tmp_path, TABLE.format(cell="7.5"))
        findings = lint.check_doc(doc, res)
        assert len(findings) == 1 and "no E01.json" in findings[0][1]

    def test_results_marker_redirects_one_table(self, tmp_path):
        setup(tmp_path, "", rows=[{"p99": 34.3}], results="full")
        doc, res = setup(tmp_path, """\
            ## E01 — a table

            <!-- results: full -->
            | design | p99 |
            |---|---|
            | lynx | 34.3 |

            | design | p99 |
            |---|---|
            | lynx | 34.3 |
            """, rows=[{"p99": 34.0}])
        findings = lint.check_doc(doc, res)
        # the marked table reads full/, the unmarked one results/
        assert [lineno for lineno, _ in findings] == [10]


class TestMain:
    def test_exit_status(self, tmp_path, capsys):
        doc, res = setup(tmp_path, TABLE.format(cell="54.4"),
                         rows=[{"p99": 57.8}])
        assert lint.main([doc, res]) == 1
        assert "1 measured cell(s)" in capsys.readouterr().out
        doc, res = setup(tmp_path, TABLE.format(cell="57.8"),
                         rows=[{"p99": 57.8}])
        assert lint.main([doc, res]) == 0

    def test_repository_doc_matches_committed_results(self):
        doc = os.path.join(_ROOT, "EXPERIMENTS.md")
        results = os.path.join(_ROOT, "benchmarks", "results")
        assert lint.check_doc(doc, results) == []
