"""Hypothesis strategies derived from ``DistributedConfig``'s validity table.

Nothing here lists a field, a domain or a constraint by hand: values
come from probing each field's own ``Domain``, and cross-field validity
from ``capabilities.RULES`` and the engine matrix.  ``valid_configs``
is the input of generated-config differential testing (ROADMAP): it
only builds keyword dicts, so a caller can pin a few keys (graph size,
engine) before constructing.
"""

from dataclasses import fields
from types import SimpleNamespace

from hypothesis import strategies as st

from repro.core.capabilities import (
    CODEC_ENGINES,
    ENGINES,
    FEATURES,
    RULES,
    requested_features,
    resolve_engine,
    unsupported_features,
)
from repro.core.coordinator import DistributedConfig
from repro.core.ranker import MIN_MEAN_WAIT

FIELDS = {f.name: f for f in fields(DistributedConfig)}

#: Candidate values of every type a field takes; a field's strategy
#: samples the ones its domain accepts.
_PROBES = [
    None, False, True, 0, 1, 2, 3, 7, 16,
    0.0, 1e-6, 1e-3, 0.25, 0.5, 0.9, 1.0, 1.5, 2.0, 6.0, 10.0,
    (1.0, 2.0), (0.5, 1.0, 3.0),
]  # fmt: skip
#: Out-of-domain candidates, most telling first.
_BAD_PROBES = [-1.0, 2.5, 0, "bogus", None, (-1.0, 1.0)]


def accepts(domain, value) -> bool:
    """True when ``value`` lies in ``domain``."""
    try:
        domain.check(value, "probe")
    except (TypeError, ValueError):
        return False
    return True


def in_domain(f):
    """The values of config field ``f`` that its domain accepts."""
    domain = f.metadata["domain"]
    if domain.choices:
        return list(domain.choices)
    return [v for v in _PROBES if accepts(domain, v)]


def out_of_domain(f):
    """One value the domain of config field ``f`` rejects with a
    ``ValueError`` (every domain has one among the probes)."""
    for value in _BAD_PROBES:
        try:
            f.metadata["domain"].check(value, f.name)
        except ValueError:
            return value
        except TypeError:
            continue
    raise AssertionError(f"no out-of-domain probe for {f.name}")


@st.composite
def valid_configs(draw):
    """Keyword dicts that ``DistributedConfig(**kw)`` must accept.

    Every field is drawn from its own domain, its default twice as
    likely as the rest together so most draws keep most subsystems
    off.  A draw that breaks a rule, or asks its engine for a feature
    or codec the engine lacks, is repaired by resetting the fields that
    rule or feature names to their defaults (the defaults satisfy
    every table and a reset field stays reset, so this terminates).
    ``sample_interval`` — the one constraint the tables do not carry —
    is drawn as None or a whole number of synchronous periods.
    """
    defaults = {name: f.default for name, f in FIELDS.items()}
    cfg = SimpleNamespace(
        **{
            name: draw(st.one_of(st.just(f.default), st.just(f.default), st.sampled_from(in_domain(f))))
            for name, f in FIELDS.items()
        }
    )
    fields_of = {feature.key: feature.fields for feature in FEATURES}
    while True:
        on = frozenset(requested_features(cfg))
        reset = [name for rule in RULES if rule.violated(cfg, on) for name in rule.mentions()]
        engine = resolve_engine(cfg)
        reset += [name for key in unsupported_features(cfg, engine) for name in fields_of[key]]
        if engine not in CODEC_ENGINES[cfg.codec]:
            reset.append("codec")
        if not reset:
            break
        if all(getattr(cfg, name) == defaults[name] for name in reset):
            # The default itself asks for what the engine lacks
            # (schedule="async" under mc): fall back to the default
            # engine, which supports everything.
            assert cfg.engine != defaults["engine"], "the defaults are not a valid config"
            reset = ["engine"]
        for name in reset:
            setattr(cfg, name, defaults[name])
    periods = draw(st.sampled_from([None, 1.0, 2.0]))
    cfg.sample_interval = periods
    if periods is not None and ENGINES[engine].round_boundary_sampling:
        cfg.sample_interval = periods * max(0.5 * (cfg.t1 + cfg.t2), MIN_MEAN_WAIT)
    return vars(cfg)
