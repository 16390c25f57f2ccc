"""An interactive developer: the human in the loop, for real use.

The experiments use :class:`SimulatedDeveloper`; this module provides
the same interface backed by a terminal prompt, so a
:class:`~repro.assistant.session.RefinementSession` can be driven by an
actual person — the paper's intended usage.

The developer sees the assistant's question, may inspect a few sample
candidate values, and answers with a feature value (or presses enter
for "I don't know").
"""

from repro.analysis.typing import STR, feature_value_error
from repro.features.base import BOOLEAN_VALUES

__all__ = ["InteractiveDeveloper"]


class InteractiveDeveloper:
    """Prompt a human for each assistant question.

    Parameters
    ----------
    input_fn / output_fn:
        Injectable I/O (defaults: ``input`` / ``print``) so the class
        is scriptable and testable.
    session:
        Optionally attached after construction; used to show sample
        candidate values next to each question.
    """

    def __init__(self, input_fn=None, output_fn=print):
        # late-bind the default so tests can monkeypatch builtins.input
        self._input = input_fn if input_fn is not None else (lambda p: input(p))
        self._output = output_fn
        self.session = None
        self.questions_seen = 0
        self.questions_answered = 0

    def answer(self, question, registry):
        self.questions_seen += 1
        feature = registry.get(question.feature_name)
        self._output("")
        self._output("assistant asks: %s" % question.text(registry))
        self._show_samples(question)
        if feature.parameterized:
            prompt = "  value (enter = I don't know): "
        else:
            prompt = "  one of %s (enter = I don't know): " % (
                "/".join(feature.question_values or BOOLEAN_VALUES),
            )
        raw = self._input(prompt).strip()
        if not raw:
            return None
        value = self._coerce(raw, feature)
        error = feature_value_error(feature, value)
        if error is not None:
            self._output("  ignored (I don't know): %s" % error)
            return None
        self.questions_answered += 1
        return value

    def notify_diagnostics(self, diagnostics):
        """Show static-analysis warnings the session surfaced.

        Called by :class:`~repro.assistant.session.RefinementSession`
        at session start and whenever a refinement introduces new
        warnings — next-effort feedback alongside the questions.
        """
        if not diagnostics:
            return
        self._output("")
        self._output("program warnings:")
        for diagnostic in diagnostics:
            self._output("  %s" % diagnostic.render())

    # ------------------------------------------------------------------
    def _show_samples(self, question, limit=4):
        if self.session is None:
            return
        spans = self.session.attribute_profile(
            question.ie_predicate, question.attribute
        )
        for span in spans[:limit]:
            text = span.text.strip().replace("\n", " ")
            if len(text) > 70:
                text = text[:67] + "..."
            self._output("    candidate: %r" % text)

    @staticmethod
    def _coerce(raw, feature):
        """Text for text features; otherwise numbers come back as
        numbers and everything else as text."""
        if feature.capability().param_type == STR:
            return raw
        try:
            return int(raw)
        except ValueError:
            pass
        try:
            return float(raw)
        except ValueError:
            pass
        return raw
