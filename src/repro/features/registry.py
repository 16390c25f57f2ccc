"""The feature registry.

iFlex ships a rich built-in feature set (section 2.2.3 / 5.1.1) and lets
developers register more; a registry maps constraint names used in Alog
programs to :class:`~repro.features.base.Feature` implementations.
"""

from repro.errors import UnknownFeatureError
from repro.features.base import Feature
from repro.features.context import (
    FirstHalfFeature,
    FollowedByFeature,
    PrecededByFeature,
    PrecLabelContainsFeature,
    PrecLabelMaxDistFeature,
)
from repro.features.formatting import REGION_FEATURES, RegionFeature
from repro.features.syntactic import (
    CapitalizedFeature,
    EndsWithFeature,
    MaxLengthFeature,
    MinLengthFeature,
    NumericFeature,
    PatternFeature,
    PersonNameFeature,
    StartsWithFeature,
)
from repro.features.value import MaxValueFeature, MinValueFeature

__all__ = ["FeatureRegistry", "default_registry"]


class _DeclaredFeature(Feature):
    """A name-only placeholder registered via :meth:`FeatureRegistry.declare`.

    It resolves the name for static analysis (``repro lint --feature``)
    but carries no semantics: ``opaque`` makes the analyzer skip value-
    and capability-based checks, and evaluating it raises.
    """

    opaque = True
    parameterized = True  # accepts any value shape

    def __init__(self, name):
        self.name = name

    def verify(self, span, value):
        raise UnknownFeatureError(
            "feature %r was declared by name only and cannot be evaluated"
            % (self.name,)
        )

    refine = verify


class FeatureRegistry:
    """Name → :class:`Feature` lookup, with registration."""

    def __init__(self, features=()):
        self._features = {}
        for feature in features:
            self.register(feature)

    def register(self, feature):
        if feature.name is None:
            raise ValueError("feature has no name: %r" % (feature,))
        self._features[feature.name] = feature
        return self

    def declare(self, name):
        """Register an opaque placeholder for ``name`` (lint-only).

        Lets static analysis resolve custom features that ship outside
        the program file; a feature already registered under the name
        is left untouched.
        """
        if name not in self._features:
            self.register(_DeclaredFeature(name))
        return self

    def capability(self, name):
        """The feature's consolidated capability record."""
        return self.get(name).capability()

    def param_type(self, name):
        """The feature's declared parameter kind (or ``None``)."""
        return self.capability(name).param_type

    def get(self, name):
        feature = self._features.get(name)
        if feature is None:
            raise UnknownFeatureError(
                "no feature named %r (known: %s)"
                % (name, ", ".join(sorted(self._features)))
            )
        return feature

    def __contains__(self, name):
        return name in self._features

    def names(self):
        return sorted(self._features)

    def features(self):
        return [self._features[name] for name in self.names()]


def default_registry():
    """The built-in feature set."""
    registry = FeatureRegistry()
    for name, kind in REGION_FEATURES:
        registry.register(RegionFeature(name, kind))
    for feature_cls in (
        NumericFeature,
        CapitalizedFeature,
        PatternFeature,
        StartsWithFeature,
        EndsWithFeature,
        MaxLengthFeature,
        MinLengthFeature,
        PersonNameFeature,
        MaxValueFeature,
        MinValueFeature,
        PrecededByFeature,
        FollowedByFeature,
        FirstHalfFeature,
        PrecLabelContainsFeature,
        PrecLabelMaxDistFeature,
    ):
        registry.register(feature_cls())
    return registry
