#!/usr/bin/env python
"""Fail if the model carries an option that nothing sets.

Every option multiplies the configurations a reader has to keep in mind
and the places a bug can hide.  An option is worth its code only while
something outside the tests reads it and sets it: a shipped profile, an
experiment, a campaign ``Knob``, an example or a benchmark.  This lint
finds four kinds of dead option under the package it is given:

1. a profile field (a dataclass field in ``config.py``) that nothing in
   ``src/`` reads outside ``config.py`` and no ``Knob(config=...)``
   targets;
2. a boolean profile field that nothing outside the tests sets to its
   non-default value: no shipped profile, no keyword at any call site
   (``replace``, ``with_``, a constructor), no ``Knob(config=...)``;
3. an ``__init__`` keyword with a default, on a public module-level
   class of the package, that no caller outside ``tests/`` passes, by
   keyword or by position (a subclass without its own ``__init__``,
   ``super().__init__(...)``, ``Base.__init__(self, ...)``, ``cls(...)``
   and ``partial(Class, ...)`` count as callers; a call that splats
   ``*args``/``**kwargs`` passes everything it could);
4. an argparse option whose ``dest`` its module never reads.

Names, not types, connect a read or a call to its target: an attribute
read ``x.field`` counts for every field so named, and a call ``Foo(...)``
for every public class ``Foo``.  The lint therefore misses some dead
options, but every finding is real up to the exemptions in
:data:`ALLOWED`, each with its reason.

Usage::

    python tools/check_live_knobs.py [PACKAGE_DIR]

(default ``src/repro``).  Callers are the ``.py`` files under the
repository root, two levels above *PACKAGE_DIR*, outside any ``tests``
directory.
"""

import argparse
import ast
import os
import sys

#: ``Name`` (as the finding prints it) -> why it stays although the
#: rules flag it.  Valid reasons: a caller outside the tests that the
#: rules cannot see, or an input check that a test drives.
ALLOWED = {
    "MemoryRegion(exposed_on_pcie=)":
        "input check: tests build BAR-hidden memory to see RDMA and "
        "mqueue placement refuse it",
}

_SKIP_DIRS = {"tests", ".git", "__pycache__", "build", "dist"}


def _walk_py(top):
    """The ``.py`` files under *top*, outside tests and build output."""
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(
            d for d in dirnames
            if not d.startswith(".") and not d.endswith(".egg-info")
            and d not in _SKIP_DIRS)
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def _callee(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_dataclass(node):
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if _callee(target) == "dataclass":
            return True
    return False


class _Corpus:
    """What the non-test files read, set and call."""

    def __init__(self, root, package):
        self.package = os.path.abspath(package)
        self.src = os.path.dirname(self.package)
        self.files = {path: _parse(path)
                      for path in _walk_py(root)}
        self.config_path = os.path.join(self.package, "config.py")

    def in_src(self, path):
        return os.path.abspath(path).startswith(self.src + os.sep)

    def in_package(self, path):
        return os.path.abspath(path).startswith(self.package + os.sep)

    def knob_configs(self):
        """Dotted paths of every ``Knob(config=...)``."""
        paths = []
        for tree in self.files.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and _callee(node.func) == "Knob":
                    for kw in node.keywords:
                        if (kw.arg == "config"
                                and isinstance(kw.value, ast.Constant)):
                            paths.append(kw.value.value)
        return paths


# -- rules 1 and 2: profile fields -------------------------------------------

def _profile_fields(config_tree):
    """``{class: [(field, default_node_or_None, lineno, is_bool)]}`` of
    the dataclasses in ``config.py``."""
    profiles = {}
    for node in config_tree.body:
        if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
            continue
        fields = []
        for stmt in node.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                is_bool = (isinstance(stmt.annotation, ast.Name)
                           and stmt.annotation.id == "bool")
                fields.append((stmt.target.id, stmt.value, stmt.lineno,
                               is_bool))
        profiles[node.name] = fields
    return profiles


def _attribute_reads(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and _callee(node.func) == "getattr"
              and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            names.add(node.args[1].value)
    return names


def _settings(corpus, profiles):
    """``{field: [value_node]}``: every value a non-test call gives a
    keyword named like a field, plus positional profile arguments."""
    order = {cls: [f[0] for f in fields] for cls, fields in profiles.items()}
    values = {}
    for tree in corpus.files.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg is not None:
                    values.setdefault(kw.arg, []).append(kw.value)
            names = order.get(_callee(node.func))
            if names:
                for name, arg in zip(names, node.args):
                    values.setdefault(name, []).append(arg)
    return values


def _differs(value, default):
    """True unless *value* is provably the literal *default*."""
    if not isinstance(value, ast.Constant):
        return True
    return not (isinstance(default, ast.Constant)
                and value.value == default.value)


def check_profiles(corpus):
    findings = []
    if corpus.config_path not in corpus.files:
        return findings
    profiles = _profile_fields(corpus.files[corpus.config_path])
    reads = set()
    for path, tree in corpus.files.items():
        if corpus.in_src(path) and path != corpus.config_path:
            reads |= _attribute_reads(tree)
    knobbed = set()
    for dotted in corpus.knob_configs():
        knobbed.update(dotted.split("."))
    settings = _settings(corpus, profiles)
    for cls, fields in profiles.items():
        for name, default, lineno, is_bool in fields:
            if name not in reads and name not in knobbed:
                findings.append((corpus.config_path, lineno,
                                 "%s.%s" % (cls, name),
                                 "profile field read nowhere in src/ "
                                 "outside config.py"))
            elif (is_bool and name not in knobbed
                  and not any(_differs(v, default)
                              for v in settings.get(name, ()))):
                findings.append((corpus.config_path, lineno,
                                 "%s.%s" % (cls, name),
                                 "boolean profile field never set to its "
                                 "non-default value outside tests"))
    return findings


# -- rule 3: constructor keywords --------------------------------------------

class _Init:
    """The defaulted parameters of one public class's ``__init__``."""

    def __init__(self, path, cls, func):
        self.path = path
        self.cls = cls
        self.lineno = func.lineno
        args = func.args
        positional = [a.arg for a in args.posonlyargs + args.args][1:]
        self.positional = positional
        n_defaults = len(args.defaults)
        self.defaulted = positional[len(positional) - n_defaults:] \
            if n_defaults else []
        self.defaulted += [a.arg for a, d in zip(args.kwonlyargs,
                                                 args.kw_defaults)
                           if d is not None]
        self.passed = set()

    def record(self, call_args, keywords, skip=0):
        """Mark what one call passes; *skip* drops leading positional
        arguments (``partial``'s callee)."""
        call_args = call_args[skip:]
        for i, arg in enumerate(call_args):
            if isinstance(arg, ast.Starred):
                self.passed.update(self.positional[i:])
                break
            if i < len(self.positional):
                self.passed.add(self.positional[i])
        for kw in keywords:
            if kw.arg is None:
                self.passed.update(self.defaulted)
            else:
                self.passed.add(kw.arg)


def _public_classes(corpus):
    """``{name: [_Init]}`` of the package's public module-level classes,
    a subclass without its own ``__init__`` resolved to the one it
    inherits."""
    defs = {}
    for path, tree in corpus.files.items():
        if not corpus.in_package(path):
            continue
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defs.setdefault(node.name, []).append((path, node))
    own = {}
    for name, entries in defs.items():
        for path, node in entries:
            for stmt in node.body:
                if (isinstance(stmt, ast.FunctionDef)
                        and stmt.name == "__init__"):
                    own.setdefault(name, []).append(_Init(path, name, stmt))

    def resolve(name, seen=()):
        if name in own:
            return own[name]
        if name in seen or name not in defs:
            return []
        inits = []
        for _, node in defs[name]:
            if _is_dataclass(node):
                continue
            for base in node.bases:
                inits.extend(resolve(_callee(base) or "", seen + (name,)))
        return inits

    return {name: resolve(name) for name in defs}


class _CallSites(ast.NodeVisitor):
    """Records every call of one file on the ``__init__`` it reaches."""

    def __init__(self, inits, tree):
        self.inits = inits
        self.aliases = {alias.asname: alias.name
                        for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom)
                        for alias in node.names if alias.asname}
        self.cls = None   # the innermost enclosing ClassDef

    def visit_ClassDef(self, node):
        outer, self.cls = self.cls, node
        self.generic_visit(node)
        self.cls = outer

    def visit_Call(self, node):
        targets, skip = self._targets(node)
        for init in targets:
            init.record(node.args, node.keywords, skip)
        self.generic_visit(node)

    def _targets(self, node):
        """``([_Init], leading positional arguments to drop)``."""
        func = node.func
        callee = self.aliases.get(_callee(func), _callee(func))
        own = self.inits.get(self.cls.name, []) if self.cls else []
        if callee == "__init__" and isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Call) and _callee(base.func) == "super":
                return [i for b in (self.cls.bases if self.cls else ())
                        for i in self.inits.get(_callee(b) or "", [])], 0
            return self.inits.get(_callee(base), []), 1  # Base.__init__
        if callee in self.inits:
            return self.inits[callee], 0
        if callee == "cls" or (isinstance(func, ast.Call)
                               and _callee(func.func) == "type"):
            return own, 0
        if callee == "partial" and node.args:
            return self.inits.get(_callee(node.args[0]), []), 1
        return [], 0


def check_constructors(corpus):
    inits = _public_classes(corpus)
    for tree in corpus.files.values():
        _CallSites(inits, tree).visit(tree)
    findings = []
    seen = set()
    for name in sorted(inits):
        for init in inits[name]:
            if id(init) in seen or init.cls != name:
                continue
            seen.add(id(init))
            for param in init.defaulted:
                if param not in init.passed:
                    findings.append((init.path, init.lineno,
                                     "%s(%s=)" % (init.cls, param),
                                     "__init__ keyword no caller outside "
                                     "tests passes"))
    return findings


# -- rule 4: argparse options ------------------------------------------------

def _dest_and_flag(call):
    """``(dest, flag)`` of one ``add_argument`` call, or None."""
    flags = [a.value for a in call.args if isinstance(a, ast.Constant)
             and isinstance(a.value, str)]
    if not flags:
        return None
    flag = ([f for f in flags if f.startswith("--")] or flags)[0]
    dest = flag.lstrip("-").replace("-", "_")
    for kw in call.keywords:
        if kw.arg == "dest" and isinstance(kw.value, ast.Constant):
            dest = kw.value.value
    return dest, flag


def check_cli(corpus):
    findings = []
    for path, tree in corpus.files.items():
        if not corpus.in_package(path):
            continue
        options = []
        splat = False
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if _callee(node.func) == "add_argument":
                dest = _dest_and_flag(node)
                if dest is not None:
                    options.append((node.lineno, dest))
            elif _callee(node.func) == "vars":
                splat = True
        if not options or splat:
            continue
        reads = _attribute_reads(tree)
        for lineno, (dest, flag) in options:
            if dest not in reads:
                findings.append((path, lineno, flag,
                                 "argparse option whose dest %r is never "
                                 "read" % dest))
    return findings


# -- driver ------------------------------------------------------------------

def check_tree(package, root=None, allowed=None):
    """Return ``[(path, lineno, name, message)]`` findings not in
    *allowed* (default :data:`ALLOWED`)."""
    package = os.path.abspath(package)
    root = root or os.path.dirname(os.path.dirname(package))
    allowed = ALLOWED if allowed is None else allowed
    corpus = _Corpus(root, package)
    findings = (check_profiles(corpus) + check_constructors(corpus)
                + check_cli(corpus))
    return sorted((os.path.relpath(path), lineno, name, message)
                  for path, lineno, name, message in findings
                  if name not in allowed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?",
                        default=os.path.join("src", "repro"))
    args = parser.parse_args(argv)
    if not os.path.isdir(args.package):
        print("no package directory at %r" % args.package, file=sys.stderr)
        return 2
    findings = check_tree(args.package)
    for path, lineno, name, message in findings:
        print("%s:%d: %s: %s" % (path, lineno, name, message))
    if findings:
        print("\n%d dead option(s): delete them, or add each to ALLOWED "
              "in tools/check_live_knobs.py with its reason"
              % len(findings), file=sys.stderr)
        return 1
    print("every option under %s is read and set outside the tests"
          % args.package)
    return 0


if __name__ == "__main__":
    sys.exit(main())
