"""Each module's ``__all__`` holds only what the package uses across its
modules: a name that the CLI, another flrwave module or the acceptance suite
reads, or a class that one of those returns (in a return annotation, or in
the fields of such a class).  And each private function, class or method is
read somewhere in the package outside its own body.  And no function or
method takes a mode flag, a parameter annotated ``bool`` or defaulting to
True or False: what a call does follows from its data.  And one function,
``pde._aligned``, reads memory addresses (``.ctypes``).  And the result
class of each integrator entry, and of the Kato iteration, holds the config
it ran, a ``config`` field annotated with the class of the entry's first
parameter.  And each public check takes one parameter, the object it judges,
whose config holds the check's other inputs."""

import ast
import importlib
import inspect
import re
import typing
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flrwave"
MODULES = sorted(
    name for name in (path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    if hasattr(importlib.import_module(f"flrwave.{name}"), "__all__")
)
READERS = [*sorted(PACKAGE.glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
# The functions perfbench's tracer times or counts by name: it wraps every
# function in a module's __all__, so these must stay there.
TRACED = [
    "pde.run", "pde.support_check", "pde.holder_check", "pde.f_monotone_check",
    "blowup_ode.integrate", "bounds.region_map_model", "bounds.region_map_flrw",
]


def names_read(path):
    """(module, name) pairs that ``path`` reads from the other flrwave modules:
    ``from flrwave.m import name`` and ``m.name``."""
    pairs = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("flrwave."):
            pairs |= {(node.module.split(".")[1], alias.name) for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            pairs.add((node.value.id, node.attr))
    return {(module, name) for module, name in pairs if module in MODULES and module != path.stem}


READ = set().union(*map(names_read, READERS))


def annotation_names(obj):
    """The identifiers in ``obj``'s return annotation, or in its fields' annotations."""
    annotations = getattr(obj, "__annotations__", {})
    if callable(obj) and not isinstance(obj, type):
        annotations = {"return": annotations.get("return", "")}
    return set(re.findall(r"\w+", " ".join(map(str, annotations.values()))))


@pytest.mark.parametrize("module_name", MODULES)
def test_every_public_name_is_used_outside_its_module(module_name):
    module = importlib.import_module(f"flrwave.{module_name}")
    public = set(module.__all__)
    missing = sorted(name for name in public if not hasattr(module, name))
    assert not missing, f"{module_name}.__all__ names what the module lacks: {missing}"
    used = {name for name in public if (module_name, name) in READ}
    while True:  # add the classes the used names return
        returned = public & set().union(*(annotation_names(getattr(module, n)) for n in used))
        if returned <= used:
            break
        used |= returned
    unused = sorted(public - used)
    assert not unused, f"no caller outside {module_name} but tests reads {unused}"


@pytest.mark.parametrize("qualified", TRACED)
def test_traced_functions_stay_public(qualified):
    module_name, name = qualified.split(".")
    module = importlib.import_module(f"flrwave.{module_name}")
    assert name in module.__all__ and callable(getattr(module, name))


@pytest.mark.parametrize("qualified", ["blowup_ode.integrate", "pde.run", "kato.iterate_sequences"])
def test_an_integrators_result_holds_its_config(qualified):
    # blowup_ode.fit_lifespans and the checks read their inputs from the config
    module_name, name = qualified.split(".")
    entry = getattr(importlib.import_module(f"flrwave.{module_name}"), name)
    hints = typing.get_type_hints(entry)
    first = next(iter(inspect.signature(entry).parameters))
    assert typing.get_type_hints(hints["return"])["config"] is hints[first]


CHECKS = [f"{module_name}.{name}" for module_name in ("blowup_ode", "kato", "pde")
          for name in importlib.import_module(f"flrwave.{module_name}").__all__
          if name.endswith("_check") or name in ("convexity_margin", "detect_envelope_onset")]


@pytest.mark.parametrize("qualified", CHECKS)
def test_a_check_takes_only_what_it_judges(qualified):
    # a constant passed beside the judged object can disagree with the config
    # it ran: a p 1.8 sweep once passed a check of the envelope for p 3.0
    module_name, name = qualified.split(".")
    check = getattr(importlib.import_module(f"flrwave.{module_name}"), name)
    assert len(inspect.signature(check).parameters) == 1, inspect.signature(check)


def private_definitions(tree):
    """The functions and classes named with one leading underscore, and the
    methods of such a class that are not dunders."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and private(node.name):
            found.add(node)
            if isinstance(node, ast.ClassDef):
                found |= {item for item in node.body if isinstance(item, ast.FunctionDef)
                          and not (item.name.startswith("__") and item.name.endswith("__"))}
    return found


def references(tree):
    """How often each name appears in ``tree``: as a name, an attribute or an import."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}
REFERENCED = sum(map(references, TREES.values()), Counter())


@pytest.mark.parametrize("module_name", sorted(TREES))
def test_every_private_definition_is_used(module_name):
    # a private function, class or method that the package reads only inside
    # its own body (or not at all) is dead code
    unused = sorted(node.name for node in private_definitions(TREES[module_name])
                    if REFERENCED[node.name] <= references(node)[node.name])
    assert not unused, f"nothing in flrwave outside their own bodies reads {unused}"


def mode_flags(tree):
    """``function(parameter)`` for each parameter in ``tree`` annotated ``bool``
    or defaulting to True or False."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            defaults = dict(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            defaults.update(zip(args.kwonlyargs, args.kw_defaults))
            for arg in [*positional, *args.kwonlyargs]:
                annotated = arg.annotation is not None and ast.unparse(arg.annotation) == "bool"
                default = getattr(defaults.get(arg), "value", None)
                if annotated or isinstance(default, bool):
                    found.append(f"{node.name}({arg.arg})")
    return found


@pytest.mark.parametrize("module_name", sorted(TREES))
def test_no_function_takes_a_mode_flag(module_name):
    flags = mode_flags(TREES[module_name])
    assert not flags, f"mode flags, where a value of the data should decide: {flags}"


def address_reads(node):
    """How often ``node``'s subtree reads ``.ctypes``, a buffer's address."""
    return sum(isinstance(n, ast.Attribute) and n.attr == "ctypes" for n in ast.walk(node))


def test_only_pde_aligned_reads_addresses():
    # address arithmetic lives in one place: every other buffer takes its
    # alignment from the doubles ``_aligned`` hands out
    readers = {f"{module_name}.{node.name}": address_reads(node)
               for module_name, tree in TREES.items() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and address_reads(node)}
    everywhere = sum(map(address_reads, TREES.values()))
    assert readers == {"pde._aligned": everywhere}, f"functions reading .ctypes: {readers}"
