"""The detlint rule set: DET001–DET007, INV101, and INV102.

Each rule enforces one determinism or observability invariant that the
keystone byte-identity tests rely on: every worker count of the one
drive executor (``tests/test_parallel_campaign.py``) and every healed
run (``tests/test_resilience.py``) must match a clean serial run.  Rules are documented with
rationale and examples in ``docs/STATIC_ANALYSIS.md``; keep the two in
sync when adding rules.

All checks are AST-based and deliberately conservative: a rule that can
fire falsely trains people to sprinkle ignores, which defeats the
unused-suppression audit.  Where a rule needs to scope by package (e.g.
DET002's simulation-only wall-clock ban) the scoping constant lives here
so tests and docs can reference it.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.tools.detlint.engine import FileContext, Finding, project_rule, rule

# -- shared helpers ------------------------------------------------------


def _walk(tree: ast.AST) -> Iterator[ast.AST]:
    return ast.walk(tree)


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _module_aliases(tree: ast.Module, module: str) -> set[str]:
    """Local names bound to ``module`` via ``import``/``import as``."""
    aliases: set[str] = set()
    for node in _walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or module.split(".")[0])
                elif alias.name.startswith(module + ".") and alias.asname is None:
                    # ``import numpy.random`` binds ``numpy``.
                    aliases.add(module.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            parent, _, leaf = module.rpartition(".")
            if parent and node.module == parent:
                for alias in node.names:
                    if alias.name == leaf:
                        aliases.add(alias.asname or leaf)
    return aliases


def _from_imports(tree: ast.Module, module: str) -> dict[str, ast.ImportFrom]:
    """``{imported_name: node}`` for ``from module import name`` bindings."""
    found: dict[str, ast.ImportFrom] = {}
    for node in _walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                found[alias.name] = node
    return found


def _in_packages(module: str, packages: Iterable[str]) -> bool:
    return any(module == pkg or module.startswith(pkg + ".") for pkg in packages)


# -- DET001: all randomness via repro.rng --------------------------------

#: ``numpy.random`` module-level (global-state or convenience) entry
#: points.  Constructing a seeded generator (``default_rng``,
#: ``Generator``, ``PCG64``, ``SeedSequence``) is fine — banning those
#: would ban :mod:`repro.rng` itself.
NUMPY_GLOBAL_RNG_FNS = frozenset({
    "seed", "get_state", "set_state", "random", "random_sample", "ranf",
    "sample", "rand", "randn", "randint", "random_integers", "bytes",
    "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "exponential", "poisson", "binomial", "beta",
    "gamma", "lognormal", "pareto", "rayleigh", "weibull",
})

#: The one module allowed to own RNG plumbing.
RNG_HOME = "repro.rng"


@rule("DET001", "no random/numpy.random global RNG outside repro.rng")
def det001(ctx: FileContext) -> Iterable[Finding]:
    if ctx.module == RNG_HOME:
        return []
    findings: list[Finding] = []
    msg = (
        "draws from {src} bypass the seeded substream discipline; "
        "take an rng from repro.rng.RngStreams instead"
    )
    for node in _walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    findings.append(ctx.finding(
                        node, "DET001", msg.format(src="stdlib random")))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                findings.append(ctx.finding(
                    node, "DET001", msg.format(src="stdlib random")))
            elif node.module == "numpy.random":
                for alias in node.names:
                    if alias.name in NUMPY_GLOBAL_RNG_FNS:
                        findings.append(ctx.finding(node, "DET001", msg.format(
                            src=f"numpy.random.{alias.name}")))
    numpy_aliases = _module_aliases(ctx.tree, "numpy")
    npr_aliases = _module_aliases(ctx.tree, "numpy.random")
    for node in _walk(ctx.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        fn = node.func.attr
        if fn not in NUMPY_GLOBAL_RNG_FNS:
            continue
        base = node.func.value
        dotted = _dotted(base)
        hit = False
        if dotted is not None:
            head, _, rest = dotted.partition(".")
            if head in numpy_aliases and rest == "random":
                hit = True          # np.random.<fn>(...)
            elif dotted in npr_aliases:
                hit = True          # npr.<fn>(...) after ``from numpy import random``
        if hit:
            findings.append(ctx.finding(
                node, "DET001", msg.format(src=f"numpy.random.{fn}")))
    return findings


# -- DET002: no wall clocks in simulation packages -----------------------

#: Packages where simulated time is the only time.
SIM_PACKAGES = (
    "repro.leo", "repro.cellular", "repro.net", "repro.core",
    "repro.faults", "repro.transport", "repro.emu", "repro.geo",
)

#: Wall-clock readers that leak host time into simulation state.
#: ``time.perf_counter`` is deliberately absent: campaign timing spans
#: feed only the ``WALL_CLOCK_METRICS``-excluded series, so it cannot
#: reach a deterministic artifact (see docs/STATIC_ANALYSIS.md).
WALL_CLOCK_TIME_FNS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
})

#: ``datetime``/``date`` constructors that read the host clock.  ``now``
#: only counts when argless — ``now(tz)`` is equally wall-clock but the
#: issue scopes the rule to the ambient-default forms seen in the wild.
WALL_CLOCK_DATETIME_FNS = frozenset({"now", "today", "utcnow"})


@rule("DET002", "no wall-clock reads in simulation packages")
def det002(ctx: FileContext) -> Iterable[Finding]:
    if not _in_packages(ctx.module, SIM_PACKAGES):
        return []
    findings: list[Finding] = []
    time_aliases = _module_aliases(ctx.tree, "time")
    datetime_mod_aliases = _module_aliases(ctx.tree, "datetime")
    datetime_cls_aliases = {
        (alias.asname or alias.name)
        for node in _walk(ctx.tree)
        if isinstance(node, ast.ImportFrom) and node.module == "datetime"
        for alias in node.names
        if alias.name in ("datetime", "date")
    }
    for name, node in _from_imports(ctx.tree, "time").items():
        if name in WALL_CLOCK_TIME_FNS:
            findings.append(ctx.finding(node, "DET002", (
                f"time.{name} imported in simulation code; simulated "
                "drives must only see DES/simulated time"
            )))
    for node in _walk(ctx.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        fn = node.func.attr
        dotted = _dotted(node.func.value)
        if fn in WALL_CLOCK_TIME_FNS and dotted in time_aliases:
            findings.append(ctx.finding(node, "DET002", (
                f"time.{fn}() reads the host clock; simulation code must "
                "derive all timing from simulated time"
            )))
            continue
        if fn in WALL_CLOCK_DATETIME_FNS:
            if fn == "now" and (node.args or node.keywords):
                continue
            if dotted is None:
                continue
            head = dotted.split(".")[0]
            leaf = dotted.split(".")[-1]
            if (
                head in datetime_mod_aliases
                and leaf in ("datetime", "date", *datetime_mod_aliases)
            ) or dotted in datetime_cls_aliases:
                findings.append(ctx.finding(node, "DET002", (
                    f"datetime {fn}() reads the host clock; stamp "
                    "artifacts outside simulation packages (repro.obs)"
                )))
    return findings


# -- DET003: no set iteration feeding ordered output ---------------------

#: Call consumers whose output order mirrors iteration order.
ORDERED_CONSUMERS = frozenset({"list", "tuple", "enumerate"})


def _is_setish(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_setish(node.left) or _is_setish(node.right)
    return False


@rule("DET003", "no iteration over sets feeding ordered output")
def det003(ctx: FileContext) -> Iterable[Finding]:
    findings: list[Finding] = []
    msg = (
        "set iteration order varies across processes/runs; wrap in "
        "sorted(...) before it can reach ordered output"
    )
    for node in _walk(ctx.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)) and _is_setish(node.iter):
            findings.append(ctx.finding(node.iter, "DET003", msg))
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            for gen in node.generators:
                if _is_setish(gen.iter):
                    findings.append(ctx.finding(gen.iter, "DET003", msg))
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in ORDERED_CONSUMERS
                and node.args
                and _is_setish(node.args[0])
            ):
                findings.append(ctx.finding(node.args[0], "DET003", msg))
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and node.args
                and _is_setish(node.args[0])
            ):
                findings.append(ctx.finding(node.args[0], "DET003", msg))
    return findings


# -- DET004: no ambient entropy near fingerprints/digests ----------------

#: ``(module, function)`` pairs that mint process-unique values.
ENTROPY_SOURCES = {
    ("os", "urandom"),
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
}


@rule("DET004", "no os.urandom/uuid/hash() entropy in artifact code")
def det004(ctx: FileContext) -> Iterable[Finding]:
    findings: list[Finding] = []
    aliases = {
        mod: _module_aliases(ctx.tree, mod) for mod in ("os", "uuid", "secrets")
    }
    froms = {
        mod: _from_imports(ctx.tree, mod) for mod in ("os", "uuid", "secrets")
    }
    for mod, fn in ENTROPY_SOURCES:
        if fn in froms[mod]:
            findings.append(ctx.finding(froms[mod][fn], "DET004", (
                f"{mod}.{fn} mints per-process entropy; fingerprints and "
                "digests must be pure functions of config + seed"
            )))
    if aliases["secrets"] or froms["secrets"]:
        node = next(
            n for n in _walk(ctx.tree)
            if isinstance(n, (ast.Import, ast.ImportFrom))
            and (getattr(n, "module", None) == "secrets"
                 or any(a.name.split(".")[0] == "secrets" for a in n.names))
        )
        findings.append(ctx.finding(node, "DET004", (
            "the secrets module is entropy by design; nothing in a "
            "deterministic reproduction should need it"
        )))
    for node in _walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "hash" and node.args:
            findings.append(ctx.finding(node, "DET004", (
                "builtin hash() is salted per process (PYTHONHASHSEED); "
                "use hashlib over a canonical encoding instead"
            )))
        elif isinstance(node.func, ast.Attribute):
            dotted = _dotted(node.func.value)
            for mod, fn in ENTROPY_SOURCES:
                if node.func.attr == fn and dotted in aliases[mod]:
                    findings.append(ctx.finding(node, "DET004", (
                        f"{mod}.{fn}() mints per-process entropy; "
                        "fingerprints and digests must be pure functions "
                        "of config + seed"
                    )))
    return findings


# -- DET005: CampaignConfig fingerprint fields are write-once ------------

#: The exact field set hashed by ``CampaignConfig.fingerprint()``.
#: ``workers`` and ``resilience`` are deliberately absent — they are
#: execution knobs, excluded from the fingerprint so checkpoints
#: interchange across worker counts and retry policies.
FINGERPRINT_FIELDS = frozenset({
    "seed", "num_interstate_drives", "num_city_drives", "num_ring_drives",
    "max_drive_seconds", "test_duration_s", "window_period_s", "cycle",
    "city_loop_segments", "fault_schedule",
})

#: Receiver names treated as campaign configs (heuristic; the repo's
#: idiom is ``config``/``cfg`` locals and ``.config`` attributes).
CONFIG_RECEIVERS = frozenset({"config", "cfg"})


def _is_config_receiver(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in CONFIG_RECEIVERS
    if isinstance(node, ast.Attribute):
        return node.attr in CONFIG_RECEIVERS
    return False


@rule("DET005", "no mutation of CampaignConfig fingerprint fields")
def det005(ctx: FileContext) -> Iterable[Finding]:
    findings: list[Finding] = []
    msg = (
        "mutating fingerprint field {field!r} after construction "
        "desyncs the config from its checkpoint fingerprint; build a "
        "new CampaignConfig instead"
    )
    for node in _walk(ctx.tree):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and target.attr in FINGERPRINT_FIELDS
                and _is_config_receiver(target.value)
            ):
                findings.append(ctx.finding(
                    target, "DET005", msg.format(field=target.attr)))
        if isinstance(node, ast.Call):
            fn = node.func
            is_setattr = isinstance(fn, ast.Name) and fn.id == "setattr"
            is_obj_setattr = (
                isinstance(fn, ast.Attribute) and fn.attr == "__setattr__"
            )
            if (is_setattr or is_obj_setattr) and len(node.args) >= 2:
                obj, name_arg = node.args[0], node.args[1]
                if (
                    isinstance(name_arg, ast.Constant)
                    and name_arg.value in FINGERPRINT_FIELDS
                    and _is_config_receiver(obj)
                ):
                    findings.append(ctx.finding(
                        node, "DET005", msg.format(field=name_arg.value)))
    return findings


# -- DET006: durable JSON writes go through the commit protocol ----------

#: The artifact layer that owns crash-proof writes; the only package
#: allowed to open files and serialize JSON into them directly.
STORE_PACKAGE = "repro.store"


def _open_write_call(node: ast.expr) -> bool:
    """True for ``open(..., "w")``-style writable opens."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "open"
    ):
        return False
    mode = None
    if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
        mode = node.args[1].value
    for keyword in node.keywords:
        if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
            mode = keyword.value.value
    return isinstance(mode, str) and any(c in mode for c in "wa+")


@rule("DET006", "no bare open()+json.dump writes outside repro.store")
def det006(ctx: FileContext) -> Iterable[Finding]:
    if _in_packages(ctx.module, (STORE_PACKAGE,)):
        return []
    json_aliases = _module_aliases(ctx.tree, "json")
    dump_names = {
        alias.asname or alias.name
        for node in _walk(ctx.tree)
        if isinstance(node, ast.ImportFrom) and node.module == "json"
        for alias in node.names
        if alias.name == "dump"
    }

    def is_json_dump(call: ast.Call) -> bool:
        fn = call.func
        if isinstance(fn, ast.Attribute) and fn.attr == "dump":
            return _dotted(fn.value) in json_aliases
        return isinstance(fn, ast.Name) and fn.id in dump_names

    msg = (
        "bare open()+json.dump leaves a torn-write window (no fsync, no "
        "atomic rename — a crash mid-write corrupts the artifact in "
        "place); write through repro.store.commit.atomic_write_json"
    )
    findings: list[Finding] = []
    for node in _walk(ctx.tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            handles = {
                item.optional_vars.id
                for item in node.items
                if _open_write_call(item.context_expr)
                and isinstance(item.optional_vars, ast.Name)
            }
            if not handles:
                continue
            for inner in _walk(node):
                if (
                    isinstance(inner, ast.Call)
                    and is_json_dump(inner)
                    and len(inner.args) >= 2
                    and isinstance(inner.args[1], ast.Name)
                    and inner.args[1].id in handles
                ):
                    findings.append(ctx.finding(inner, "DET006", msg))
        elif (
            isinstance(node, ast.Call)
            and is_json_dump(node)
            and len(node.args) >= 2
            and _open_write_call(node.args[1])
        ):
            findings.append(ctx.finding(node, "DET006", msg))
    return findings


# -- DET007: no per-sample loops over LinkConditions traces --------------

#: Packages whose per-second hot paths must consume whole traces through
#: :class:`repro.conditions.ConditionsArray` / the fastpath steppers.
TRACE_PACKAGES = ("repro.core", "repro.leo")

#: The fluid pair allowed to walk traces sample-by-sample: the scalar
#: reference implementation and its bit-contract twin (TCP state is
#: sequential, so the fast path also steps seconds one at a time).
TRACE_REFERENCE_MODULES = ("repro.core.fluid", "repro.core.fastpath.fluid")

#: Methods only :class:`~repro.conditions.LinkConditions` exposes; a call
#: on a loop variable marks the loop as per-sample trace consumption.
LINK_SAMPLE_METHODS = frozenset({"capacity_mbps"})


@rule("DET007", "no per-sample loops over LinkConditions traces in hot packages")
def det007(ctx: FileContext) -> Iterable[Finding]:
    if not _in_packages(ctx.module, TRACE_PACKAGES):
        return []
    if ctx.module in TRACE_REFERENCE_MODULES:
        return []
    msg = (
        "per-sample Python loop over a LinkConditions trace; batch the "
        "trace through repro.conditions.ConditionsArray and the "
        "repro.core.fastpath models (repro.core.fluid is the scalar "
        "reference)"
    )

    def loop_names(target: ast.expr) -> set[str]:
        if isinstance(target, ast.Name):
            return {target.id}
        if isinstance(target, (ast.Tuple, ast.List)):
            out: set[str] = set()
            for elt in target.elts:
                out |= loop_names(elt)
            return out
        return set()

    def per_sample_call(names: set[str], bodies: list[ast.AST]) -> ast.AST | None:
        """First call consuming a loop variable as a LinkConditions."""
        for body in bodies:
            for node in _walk(body):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                ):
                    continue
                fn = node.func
                if (
                    fn.attr in LINK_SAMPLE_METHODS
                    and isinstance(fn.value, ast.Name)
                    and fn.value.id in names
                ):
                    return node
                if (
                    fn.attr == "step"
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in names
                ):
                    return node
        return None

    findings: list[Finding] = []
    for node in _walk(ctx.tree):
        hit: ast.AST | None = None
        if isinstance(node, (ast.For, ast.AsyncFor)):
            hit = per_sample_call(loop_names(node.target), list(node.body))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            names: set[str] = set()
            for gen in node.generators:
                names |= loop_names(gen.target)
            hit = per_sample_call(names, [node.elt])
        elif isinstance(node, ast.DictComp):
            names = set()
            for gen in node.generators:
                names |= loop_names(gen.target)
            hit = per_sample_call(names, [node.key, node.value])
        if hit is not None:
            findings.append(ctx.finding(hit, "DET007", msg))
    return findings


# -- DET008: unsorted directory listings feeding ordered output ----------

#: ``os.``-level listing calls whose result order is filesystem-defined.
LISTING_CALLS = frozenset({
    ("os", "listdir"),
    ("os", "scandir"),
    ("glob", "glob"),
    ("glob", "iglob"),
})

#: ``pathlib.Path`` methods with the same property (checked by attribute
#: name on any receiver — a false positive requires an unrelated object
#: with an ``iterdir()``/``rglob()`` method being looped and written).
LISTING_METHODS = frozenset({"iterdir", "glob", "rglob"})


def _is_listing_call(node: ast.expr, aliases: dict[str, str]) -> bool:
    """Is this expression an unsorted directory-listing call?"""
    if not isinstance(node, ast.Call):
        return False
    dotted = _dotted(node.func)
    if dotted is None or "." not in dotted:
        return False
    prefix, _, leaf = dotted.rpartition(".")
    prefix = aliases.get(prefix, prefix)
    return (prefix, leaf) in LISTING_CALLS or leaf in LISTING_METHODS


def _writes_ordered_output(bodies: list[ast.AST]) -> ast.AST | None:
    """First statement in a loop body that emits in iteration order:
    ``.append``/``.write``/``.add``/``.put`` calls or ``yield`` — each
    preserves the (unsorted) listing order.  Aggregations (counts,
    max/min, membership) never observe the order and stay clean."""
    for body in bodies:
        for node in _walk(body):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return node
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "write", "writelines", "add", "put")
            ):
                return node
    return None


@rule("DET008", "no unsorted directory listings feeding ordered output")
def det008(ctx: FileContext) -> Iterable[Finding]:
    aliases: dict[str, str] = {}
    for node in _walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
    msg = (
        "os.listdir/scandir, glob, and Path.iterdir return entries in "
        "filesystem order, which differs across machines and filesystems; "
        "wrap the listing in sorted(...) before its order can reach "
        "ordered output"
    )

    findings: list[Finding] = []
    for node in _walk(ctx.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)) and _is_listing_call(
            node.iter, aliases
        ):
            hit = _writes_ordered_output(list(node.body))
            if hit is not None:
                findings.append(ctx.finding(node.iter, "DET008", msg))
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            # A comprehension over a listing *is* ordered output.
            for gen in node.generators:
                if _is_listing_call(gen.iter, aliases):
                    findings.append(ctx.finding(gen.iter, "DET008", msg))
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in ORDERED_CONSUMERS
                and node.args
                and _is_listing_call(node.args[0], aliases)
            ):
                findings.append(ctx.finding(node.args[0], "DET008", msg))
    return findings


# -- INV101: metric series names + manifest exclusion consistency --------

#: The documented series-name shape: ``subsystem.metric`` (lowercase,
#: digits, underscores; at least one dot).
SERIES_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

#: Registry entry points whose first positional argument is a series name.
REGISTRY_FACTORIES = frozenset({"counter", "gauge", "histogram"})

#: The manifest module whose exclusion constants anchor the project check.
MANIFEST_MODULE = "repro.obs.manifest"

#: The campaign module; its presence signals a whole-src scan, which is
#: when cross-file staleness can be judged without false positives.
CAMPAIGN_MODULE = "repro.core.campaign"


@rule("INV101", "MetricsRegistry series names match subsystem.metric")
def inv101_names(ctx: FileContext) -> Iterable[Finding]:
    findings: list[Finding] = []
    names = ctx.shared.setdefault("metric_names", set())
    for node in _walk(ctx.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr not in REGISTRY_FACTORIES:
            continue
        if not (node.args and isinstance(node.args[0], ast.Constant)):
            continue
        value = node.args[0].value
        if not isinstance(value, str):
            continue
        if SERIES_NAME_RE.match(value):
            names.add(value)
        else:
            findings.append(ctx.finding(node.args[0], "INV101", (
                f"series name {value!r} does not match the documented "
                "subsystem.metric pattern (lowercase dotted)"
            )))
    return findings


def _manifest_exclusions(tree: ast.Module) -> dict[str, tuple[ast.AST, list[str]]]:
    """Literal contents of the manifest's exclusion constants."""
    wanted = {"WALL_CLOCK_METRICS", "EXECUTION_METRICS", "EXECUTION_METRIC_PREFIXES"}
    out: dict[str, tuple[ast.AST, list[str]]] = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id in wanted:
                try:
                    value = ast.literal_eval(
                        node.value.args[0]
                        if isinstance(node.value, ast.Call) and node.value.args
                        else node.value
                    )
                except (ValueError, TypeError, IndexError):
                    continue
                out[target.id] = (node, sorted(str(v) for v in value))
    return out


@project_rule("INV101", "manifest metric exclusions stay consistent with src")
def inv101_manifest(contexts: list[FileContext]) -> Iterable[Finding]:
    by_module = {ctx.module: ctx for ctx in contexts}
    manifest = by_module.get(MANIFEST_MODULE)
    # Staleness is only decidable on a whole-src scan: linting a single
    # file must not report every series in the repo as "never
    # registered".  The campaign module registers the excluded series,
    # so its presence is the whole-scan sentinel.
    if manifest is None or CAMPAIGN_MODULE not in by_module:
        return []
    registered: set[str] = set()
    for ctx in contexts:
        registered |= ctx.shared.get("metric_names", set())
    if not registered:
        return []
    findings: list[Finding] = []
    exclusions = _manifest_exclusions(manifest.tree)
    for const in ("WALL_CLOCK_METRICS", "EXECUTION_METRICS"):
        if const not in exclusions:
            continue
        node, names = exclusions[const]
        for name in names:
            if name not in registered:
                findings.append(manifest.finding(node, "INV101", (
                    f"{const} excludes {name!r} but no code registers "
                    "that series; drop the stale exclusion"
                )))
    if "EXECUTION_METRIC_PREFIXES" in exclusions:
        node, prefixes = exclusions["EXECUTION_METRIC_PREFIXES"]
        for prefix in prefixes:
            if not any(name.startswith(prefix) for name in registered):
                findings.append(manifest.finding(node, "INV101", (
                    f"EXECUTION_METRIC_PREFIXES lists {prefix!r} but no "
                    "registered series uses it; drop the stale prefix"
                )))
    return findings


# -- INV102: service metrics stay out of the deterministic manifest ------

#: The service package: every series registered here is an execution
#: fact (queue pressure, crashes, quarantines — never dataset content),
#: so each must be covered by the manifest's exclusion constants or the
#: deterministic view would stop being a pure function of the config.
SERVE_PACKAGE = "repro.serve"


def _excluded_from_deterministic_manifest(name: str) -> bool:
    """Is ``name`` dropped by ``RunManifest.deterministic_dict``?

    Checks the *live* exclusion constants — the manifest module is
    stdlib-only and always importable wherever detlint runs — so the
    rule can never drift from the code it guards.
    """
    from repro.obs.manifest import (
        EXECUTION_METRIC_PREFIXES,
        EXECUTION_METRICS,
        WALL_CLOCK_METRICS,
    )

    if name in WALL_CLOCK_METRICS or name in EXECUTION_METRICS:
        return True
    return any(name.startswith(prefix) for prefix in EXECUTION_METRIC_PREFIXES)


@rule("INV102", "serve metrics must be excluded from the deterministic manifest")
def inv102_serve_metrics(ctx: FileContext) -> Iterable[Finding]:
    if not _in_packages(ctx.module, (SERVE_PACKAGE,)):
        return []
    findings: list[Finding] = []
    for node in _walk(ctx.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr not in REGISTRY_FACTORIES:
            continue
        if not (node.args and isinstance(node.args[0], ast.Constant)):
            continue
        value = node.args[0].value
        if not isinstance(value, str) or not SERIES_NAME_RE.match(value):
            continue  # shape problems are INV101's report
        if not _excluded_from_deterministic_manifest(value):
            findings.append(ctx.finding(node.args[0], "INV102", (
                f"series {value!r} is registered by the service but not "
                "excluded from the deterministic manifest; add it to "
                "WALL_CLOCK_METRICS/EXECUTION_METRICS or give it an "
                "EXECUTION_METRIC_PREFIXES prefix in repro.obs.manifest"
            )))
    return findings
