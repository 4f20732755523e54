"""The dead-option lint (tools/check_live_knobs.py)."""

import importlib.util
import os
import textwrap

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
_TOOL = os.path.join(_ROOT, "tools", "check_live_knobs.py")
_spec = importlib.util.spec_from_file_location("check_live_knobs", _TOOL)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)

CONFIG = """\
    from dataclasses import dataclass


    @dataclass(frozen=True)
    class NicProfile:
        name: str = "nic"
        rate: float = 1.0
        fast_path: bool = True


    FAST_NIC = NicProfile(name="fast", fast_path=False)
    """

#: the fixture config with ``fast_path`` never flipped
UNFLIPPED = CONFIG.replace(", fast_path=False", "")

MODEL = """\
    def speed(profile):
        return profile.name, profile.rate, profile.fast_path
    """


def tree(tmp_path, files, allowed=None):
    """Write a repository of *files* ({relative path: source}) with the
    package at ``src/pkg``; return the lint's findings on it."""
    files = dict({"src/pkg/config.py": CONFIG, "src/pkg/model.py": MODEL},
                 **files)
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    findings = lint.check_tree(str(tmp_path / "src" / "pkg"),
                               allowed=allowed or {})
    return [name for _, _, name, _ in findings]


class TestProfileFields:
    def test_field_nothing_reads_is_flagged(self, tmp_path):
        model = MODEL.replace(", profile.rate", "")
        assert tree(tmp_path, {"src/pkg/model.py": model}) == [
            "NicProfile.rate"]

    def test_knob_config_path_counts_as_a_reader(self, tmp_path):
        model = MODEL.replace(", profile.rate", "")
        study = """\
            from .campaign import Knob

            KNOB = Knob("rate", values=(1.0, 2.0), config="nic.rate")
            """
        assert tree(tmp_path, {"src/pkg/model.py": model,
                               "src/pkg/study.py": study}) == []

    def test_bool_field_never_flipped_is_flagged(self, tmp_path):
        config = UNFLIPPED.replace('name="fast"',
                                   'name="fast", fast_path=True')
        assert tree(tmp_path, {"src/pkg/config.py": config}) == [
            "NicProfile.fast_path"]

    def test_bool_flipped_by_a_shipped_profile_is_live(self, tmp_path):
        assert tree(tmp_path, {}) == []

    def test_bool_flipped_by_an_example_is_live(self, tmp_path):
        example = """\
            from pkg.config import NicProfile

            SLOW = NicProfile(fast_path=False)
            """
        assert tree(tmp_path, {"src/pkg/config.py": UNFLIPPED,
                               "examples/slow.py": example}) == []

    def test_bool_flipped_only_by_a_test_is_flagged(self, tmp_path):
        test = """\
            from pkg.config import NicProfile

            SLOW = NicProfile(fast_path=False)
            """
        assert tree(tmp_path, {"src/pkg/config.py": UNFLIPPED,
                               "tests/test_nic.py": test}) == [
            "NicProfile.fast_path"]


SERVER = """\
    class Server:
        def __init__(self, env, port=80, name=None):
            self.env, self.port, self.name = env, port, name
    """


class TestConstructorKeywords:
    def test_keyword_only_a_test_passes_is_flagged(self, tmp_path):
        files = {
            "src/pkg/server.py": SERVER,
            "src/pkg/run.py": "from .server import Server\n"
                              "S = Server(None, port=8080)\n",
            "tests/test_server.py": "from pkg.server import Server\n"
                                    "S = Server(None, name='x')\n",
        }
        assert tree(tmp_path, files) == ["Server(name=)"]

    def test_positional_and_splatted_callers_count(self, tmp_path):
        files = {
            "src/pkg/server.py": SERVER,
            "examples/demo.py": "from pkg.server import Server\n"
                                "A = Server(None, 8080)\n"
                                "B = Server(None, **{'name': 'b'})\n",
        }
        assert tree(tmp_path, files) == []

    def test_subclass_and_super_calls_count(self, tmp_path):
        server = textwrap.dedent(SERVER) + textwrap.dedent("""\


            class TlsServer(Server):
                def __init__(self, env):
                    super().__init__(env, port=443)


            class NamedServer(Server):
                pass
            """)
        files = {
            "src/pkg/server.py": server,
            "src/pkg/run.py": "from .server import NamedServer, TlsServer\n"
                              "T = TlsServer(None)\n"
                              "N = NamedServer(None, name='n')\n",
        }
        assert tree(tmp_path, files) == []

    def test_private_classes_are_not_checked(self, tmp_path):
        files = {"src/pkg/server.py": SERVER.replace("Server", "_Server")}
        assert tree(tmp_path, files) == []


class TestArgparse:
    CLI = """\
        import argparse


        def main(argv=None):
            parser = argparse.ArgumentParser()
            parser.add_argument("--seed", type=int, default=42)
            parser.add_argument("--trace-limit", type=int, default=40)
            args = parser.parse_args(argv)
            return args.seed
        """

    def test_option_whose_dest_is_never_read_is_flagged(self, tmp_path):
        assert tree(tmp_path, {"src/pkg/cli.py": self.CLI}) == [
            "--trace-limit"]

    def test_explicit_dest_is_the_one_read(self, tmp_path):
        cli = self.CLI.replace('"--trace-limit", type=int',
                               '"--trace-limit", dest="limit", type=int')
        assert tree(tmp_path, {"src/pkg/cli.py": cli}) == ["--trace-limit"]
        cli = cli.replace("return args.seed", "return args.seed, args.limit")
        assert tree(tmp_path, {"src/pkg/cli.py": cli}) == []

    def test_read_dest_is_live(self, tmp_path):
        cli = self.CLI.replace("return args.seed",
                               "return args.seed, args.trace_limit")
        assert tree(tmp_path, {"src/pkg/cli.py": cli}) == []


class TestAllowlist:
    def test_allowed_name_is_not_reported(self, tmp_path):
        model = MODEL.replace(", profile.rate", "")
        allowed = {"NicProfile.rate": "read by a calibration script"}
        assert tree(tmp_path, {"src/pkg/model.py": model},
                    allowed=allowed) == []

    def test_every_allowlist_entry_has_a_reason(self):
        assert all(reason.strip() for reason in lint.ALLOWED.values())


class TestMain:
    def test_exit_status(self, tmp_path, capsys):
        model = MODEL.replace(", profile.rate", "")
        tree(tmp_path, {"src/pkg/model.py": model})
        assert lint.main([str(tmp_path / "src" / "pkg")]) == 1
        assert "NicProfile.rate" in capsys.readouterr().out
        tree(tmp_path, {"src/pkg/model.py": MODEL})
        assert lint.main([str(tmp_path / "src" / "pkg")]) == 0

    def test_repository_has_no_dead_options(self):
        assert lint.main([os.path.join(_ROOT, "src", "repro")]) == 0
