"""The unified policy registry and the :class:`PolicySpec` configuration value.

Every pluggable scheduling decision of the system — *where* a job runs (the
placement policies), *how* processors are spread over running malleable jobs
(the malleability policies) and *when* the malleability manager acts relative
to placement (the job-management approaches) — registers here under a
``(kind, name)`` key::

    from repro.policies import register
    from repro.koala.placement import PlacementPolicy

    @register("placement", "MYPOLICY")
    class MyPolicy(PlacementPolicy):
        '''One-line docstring shown by ``repro-cli list policies``.'''
        name = "MYPOLICY"

        def __init__(self, favour: str = "small") -> None: ...

That single decorator makes the policy constructible from every
configuration surface: ``SchedulerConfig``/``ExperimentConfig`` fields,
:class:`~repro.experiments.scenarios.ScenarioSpec` variants, the
``repro-cli`` flags and the cache keys of the sweep engine.

Parameterisation is uniform, too: a policy reference is a
:class:`PolicySpec`, parsed from

* a bare name — ``"WF"``;
* a query-string form — ``"EGS?favour_interval=30"`` or
  ``"CF?file_size_mb=250&x=1"`` (values are parsed as Python literals when
  possible, so ``30`` is an int and ``0.5`` a float);
* a mapping — ``{"name": "CF", "params": {"file_size_mb": 250}}``;
* an existing :class:`PolicySpec` (passed through).

The canonical string form (:meth:`PolicySpec.canonical`) round-trips through
JSON and is what :class:`~repro.experiments.setup.ExperimentConfig`
serialises, so parameterised policies participate in result caching exactly
like named ones.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Sequence, Tuple

#: The three policy axes of the paper.  New kinds may be registered freely;
#: these are the ones the scheduler consults.
KINDS = ("placement", "malleability", "approach")

#: Environment variable naming extra policy modules (``os.pathsep``-separated
#: dotted names or ``.py`` paths) to import alongside the built-ins.  Set by
#: ``repro-cli --policy-module`` so worker *processes* of a parallel sweep —
#: which re-import this package from scratch under spawn/forkserver start
#: methods — see user-registered policies too.
POLICY_MODULES_ENV = "REPRO_POLICY_MODULES"

#: ``(kind, canonical name) -> policy class``.
_REGISTRY: Dict[Tuple[str, str], type] = {}

#: ``(kind, alias) -> canonical name``.
_ALIASES: Dict[Tuple[str, str], str] = {}

_builtins_loaded = False


def _ensure_builtins() -> None:
    """Import the modules that register the built-in policies.

    Registration happens as a side effect of importing the defining modules;
    doing it lazily (on first registry query) keeps this module free of
    circular imports while guaranteeing that ``names("placement")`` is never
    empty just because nobody imported :mod:`repro.koala.placement` yet.
    """
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    import repro.koala.placement  # noqa: F401  (registers WF/CF/CM/FCM)
    import repro.malleability.manager  # noqa: F401  (registers PRA/PWA)
    import repro.malleability.policies  # noqa: F401  (registers FPSMA/EGS/...)
    import repro.policies.average_steal  # noqa: F401  (registers AVERAGE_STEAL)
    import repro.policies.backfilling  # noqa: F401  (registers EASY)
    import repro.policies.sjf  # noqa: F401  (registers SJF)
    extra = os.environ.get(POLICY_MODULES_ENV)
    if extra:
        load_policy_modules(part for part in extra.split(os.pathsep) if part)


#: Resolved paths of policy files already executed by this process.
_LOADED_POLICY_FILES: set = set()


def load_policy_modules(modules: "Sequence[str] | Iterator[str]") -> None:
    """Import *modules* so their ``@register`` decorators run.

    Accepts dotted module names and plain ``.py`` file paths.  Idempotent: a
    module (or path) that is already loaded is skipped rather than
    re-executed, so repeating ``--policy-module`` (or mixing it with an
    import of the same module) never trips the registry's duplicate check.
    Policy files are installed under a path-derived unique module name, so a
    file called ``ast.py`` or two plugin files sharing a stem neither shadow
    real modules nor collide with each other.
    """
    import hashlib

    for name in modules:
        path = Path(name)
        if path.suffix == ".py" and path.exists():
            resolved = str(path.resolve())
            if resolved in _LOADED_POLICY_FILES:
                continue
            digest = hashlib.sha256(resolved.encode()).hexdigest()[:8]
            key = f"_repro_policy_{path.stem}_{digest}"
            spec = importlib.util.spec_from_file_location(key, path)
            if spec is None or spec.loader is None:
                raise ImportError(f"cannot load policy module from {name!r}")
            module = importlib.util.module_from_spec(spec)
            sys.modules[key] = module
            try:
                spec.loader.exec_module(module)
            except BaseException:
                sys.modules.pop(key, None)
                raise
            _LOADED_POLICY_FILES.add(resolved)
        else:
            importlib.import_module(name)  # sys.modules makes this idempotent


def register(
    kind: str, name: str, *, aliases: Tuple[str, ...] = ()
) -> Callable[[type], type]:
    """Class decorator registering a policy under ``(kind, name)``.

    *name* and *aliases* are case-insensitive (stored upper-cased).  The
    decorated class is returned unchanged, so the decorator stacks with
    anything else.  Re-registering a name raises unless it is the same class
    (which happens benignly when a module is imported twice under different
    names).
    """

    def decorator(cls: type) -> type:
        canonical = name.upper()
        key = (kind, canonical)
        existing = _REGISTRY.get(key)
        if existing is not None and existing is not cls:
            raise ValueError(
                f"{kind} policy {canonical!r} is already registered to "
                f"{existing.__qualname__}"
            )
        _REGISTRY[key] = cls
        for alias in aliases:
            alias_key = (kind, alias.upper())
            if alias_key in _REGISTRY and alias_key != key:
                raise ValueError(
                    f"alias {alias!r} of {kind} policy {canonical!r} collides "
                    f"with the registered policy {alias.upper()!r}"
                )
            target = _ALIASES.get(alias_key)
            if target is not None and target != canonical:
                raise ValueError(
                    f"alias {alias!r} of {kind} policy {canonical!r} is "
                    f"already an alias of {target!r}"
                )
            _ALIASES[alias_key] = canonical
        return cls

    return decorator


def resolve(kind: str, name: str) -> type:
    """The class registered under ``(kind, name)`` (aliases resolved).

    Raises :class:`ValueError` listing every registered name of *kind* when
    the lookup fails — the message users see on a typo'd configuration.
    """
    _ensure_builtins()
    canonical = name.upper()
    # Direct registrations win over aliases, so an alias can never shadow a
    # registered name (register() also rejects such aliases up front).
    if (kind, canonical) not in _REGISTRY:
        canonical = _ALIASES.get((kind, canonical), canonical)
    try:
        return _REGISTRY[(kind, canonical)]
    except KeyError:
        from repro.refs import unknown_name_error

        raise unknown_name_error(f"{kind} policy", name, names(kind)) from None


def names(kind: str) -> Tuple[str, ...]:
    """The registered canonical names of *kind*, sorted."""
    _ensure_builtins()
    return tuple(sorted(n for (k, n) in _REGISTRY if k == kind))


def iter_registered() -> Iterator[Tuple[str, str, type]]:
    """Every registered ``(kind, name, class)``, sorted by kind then name."""
    _ensure_builtins()
    for (kind, name), cls in sorted(_REGISTRY.items()):
        yield kind, name, cls


def policy_signature(cls: type) -> str:
    """The constructor signature of a policy class, rendered for humans.

    ``EGS`` (no parameters) renders as ``""``; ``CF`` renders as
    ``"file_size_mb=500.0"``.
    """
    if cls.__init__ is object.__init__:
        return ""
    try:
        signature = inspect.signature(cls.__init__)
    except (TypeError, ValueError):  # pragma: no cover - builtins only
        return ""
    parts = []
    for parameter in list(signature.parameters.values())[1:]:  # skip self
        if parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            parts.append(str(parameter))
        elif parameter.default is inspect.Parameter.empty:
            parts.append(parameter.name)
        else:
            parts.append(f"{parameter.name}={parameter.default!r}")
    return ", ".join(parts)


def policy_doc(cls: type) -> str:
    """First line of the policy class docstring (empty if undocumented)."""
    doc = inspect.getdoc(cls)
    return doc.splitlines()[0].strip() if doc else ""


def parse_literal(text: str) -> Any:
    """Parse a parameter value as a Python literal, falling back to the string.

    Used by the query-string form of :meth:`PolicySpec.parse` and by the
    ``--policy-arg`` CLI flag, so ``30`` is an int, ``0.5`` a float,
    ``True`` a bool and anything else a plain string.  (An alias of
    :func:`repro.refs.parse_literal`, the grammar's literal value parser.)
    """
    from repro.refs import parse_literal as _refs_parse_literal

    return _refs_parse_literal(text)


_parse_value = parse_literal


@dataclass(frozen=True)
class PolicySpec:
    """A parsed, validated reference to one registered policy.

    ``kind`` names the axis, ``name`` the canonical registered name and
    ``params`` the constructor keyword arguments.  Specs are immutable and
    hashable (``params`` is stored as a sorted tuple of pairs), so they can
    key caches and live inside frozen configuration dataclasses.
    """

    kind: str
    name: str
    params: Tuple[Tuple[str, Any], ...] = field(default=())

    @classmethod
    def parse(cls, kind: str, value: Any) -> "PolicySpec":
        """Parse *value* into a validated spec (see module docstring forms).

        Raises :class:`ValueError` for unknown names (listing the registered
        ones) and :class:`TypeError` for parameters the policy's constructor
        does not accept, both *before* any simulation object is built.
        """
        if isinstance(value, PolicySpec):
            if value.kind != kind:
                raise ValueError(
                    f"expected a {kind} policy, got a {value.kind} spec "
                    f"({value.canonical()!r})"
                )
            spec = value
        elif isinstance(value, Mapping):
            params = dict(value.get("params") or {})
            spec = cls(kind, str(value["name"]), tuple(sorted(params.items())))
        elif isinstance(value, str):
            from repro.refs import parse_query, split_reference

            name, query = split_reference(value)
            params = parse_query(
                query,
                value_parser=_parse_value,
                malformed=lambda pair: (
                    f"malformed policy parameter {pair!r} in {value!r}; "
                    "expected name?key=value&key=value"
                ),
            )
            spec = cls(kind, name.strip(), tuple(sorted(params.items())))
        else:
            raise TypeError(
                f"cannot interpret {value!r} as a {kind} policy; expected a "
                "name string, 'name?key=value' string, mapping or PolicySpec"
            )
        policy_class = resolve(kind, spec.name)  # raises on unknown names
        canonical = spec.name.upper()
        if (kind, canonical) not in _REGISTRY:  # mirror resolve(): names win
            canonical = _ALIASES.get((kind, canonical), canonical)
        spec = cls(kind, canonical, spec.params)
        spec.validate_params(policy_class)
        return spec

    def validate_params(self, policy_class: Optional[type] = None) -> None:
        """Check the params against the policy constructor without building it."""
        cls = policy_class if policy_class is not None else self.resolve()
        if cls.__init__ is object.__init__:
            if self.params:
                raise TypeError(
                    f"{self.kind} policy {self.name!r} takes no parameters, "
                    f"got {dict(self.params)!r}"
                )
            return
        try:
            signature = inspect.signature(cls.__init__)
        except (TypeError, ValueError):  # pragma: no cover - builtins only
            return
        try:
            signature.bind_partial(None, **dict(self.params))
        except TypeError as error:
            raise TypeError(
                f"{self.kind} policy {self.name!r} does not accept "
                f"{dict(self.params)!r}: {error} "
                f"(signature: {policy_signature(cls) or 'no parameters'})"
            ) from None

    def resolve(self) -> type:
        """The registered policy class this spec refers to."""
        return resolve(self.kind, self.name)

    def build(self) -> Any:
        """Construct the policy instance with this spec's parameters."""
        return self.resolve()(**dict(self.params))

    def canonical(self) -> str:
        """The canonical string form (``"EGS"`` or ``"EGS?favour_interval=30"``).

        Parameters are sorted by name, so equal specs always render equally —
        the property the result cache's config hashing relies on.
        """
        if not self.params:
            return self.name
        query = "&".join(f"{key}={value!r}" for key, value in self.params)
        return f"{self.name}?{query}"

    def __str__(self) -> str:
        return self.canonical()


def build_policy(kind: str, value: Any) -> Any:
    """Build a policy instance of *kind* from any accepted reference form.

    Already-constructed policy instances pass through unchanged (so tests and
    power users can inject bespoke objects); everything else goes through
    :meth:`PolicySpec.parse`.
    """
    if not isinstance(value, (str, Mapping, PolicySpec)):
        return value  # an instance, injected directly
    return PolicySpec.parse(kind, value).build()


def spec_string(kind: str, value: Any) -> str:
    """Normalise any accepted reference form to its canonical string."""
    return PolicySpec.parse(kind, value).canonical()
