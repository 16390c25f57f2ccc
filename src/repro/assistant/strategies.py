"""Question-selection strategies (section 5.1).

``SequentialStrategy`` walks a predefined order: attributes ranked by
a domain-independent importance score (join participation first), then
a fixed appearance → location → semantics feature order.

``SimulationStrategy`` picks the question with the smallest *expected*
result size: for each candidate question it simulates the developer
answering each possible value v — executing the refined program over
the evaluation subset, with reuse — and weights each outcome by
``(1 - α) / |V|``, the paper's uniform-answer model with decline
probability α.
"""

from repro.errors import ExecutionFailure
from repro.features.base import BOOLEAN_VALUES

__all__ = ["SequentialStrategy", "SimulationStrategy", "attribute_ranking"]

#: The fixed question order: the cheap, high-signal appearance and
#: context checks a developer makes first (is it bold?  what label
#: precedes it?), then value semantics, then the long tail.
FEATURE_ORDER = (
    "bold_font",
    "italic_font",
    "hyperlinked",
    "preceded_by",
    "followed_by",
    "max_value",
    "min_value",
    "in_list",
    "in_title",
    "underlined",
    "capitalized",
    "numeric",
    "first_half",
    "prec_label_contains",
    "prec_label_max_dist",
    "max_length",
    "min_length",
    "person_name",
    "starts_with",
    "ends_with",
    "pattern",
)


def attribute_ranking(program):
    """IE attributes ranked by decreasing importance.

    An attribute scores by how its bound variable is used in the
    skeleton rules: p-function (join) participation outranks
    comparisons against other variables, which outrank comparisons
    against constants (the paper's "participates in a join" factor).
    """
    from repro.xlog.ast import ComparisonAtom, PredicateAtom, Var

    scores = {}
    order = []
    bound_vars = {}  # (ie_pred, attr) -> set of skeleton var names
    for rule in program.skeleton_rules:
        for atom in rule.body_atoms(PredicateAtom):
            if atom.name not in program.ie_predicates:
                continue
            description_rules = program.description_rules_for(atom.name)
            if not description_rules:
                continue
            head = description_rules[0].head
            for head_arg, arg in zip(head.args, atom.args):
                if head_arg.is_input or not isinstance(arg, Var):
                    continue
                key = (atom.name, head_arg.var.name)
                bound_vars.setdefault(key, set()).add(arg.name)
                if key not in scores:
                    scores[key] = 0
                    order.append(key)
    for rule in program.skeleton_rules:
        comparison_vars = {}
        for atom in rule.body:
            if isinstance(atom, ComparisonAtom):
                names = [v.name for v in atom.variables]
                weight = 2 if len(names) > 1 else 1
                for name in names:
                    comparison_vars[name] = max(comparison_vars.get(name, 0), weight)
            elif isinstance(atom, PredicateAtom) and atom.name in program.p_functions:
                for arg in atom.args:
                    if isinstance(arg, Var):
                        comparison_vars[arg.name] = 3
        for key, names in bound_vars.items():
            for name in names:
                if name in comparison_vars:
                    scores[key] = max(scores[key], comparison_vars[name])
    return sorted(order, key=lambda key: (-scores.get(key, 0), order.index(key)))


#: Question phases: every attribute gets its cheap high-signal
#: questions (phase 0) before any attribute enters the long tail — a
#: developer checks "is it bold / what's before it?" for each target
#: attribute before moving to exotic features of the first one.
_PHASE_BOUNDARIES = (4, 9)


def _phase(feature_index):
    for phase, boundary in enumerate(_PHASE_BOUNDARIES):
        if feature_index < boundary:
            return phase
    return len(_PHASE_BOUNDARIES)


def _ordered_questions(session):
    """Open questions in (phase, attribute rank, feature order) order."""
    from repro.assistant.questions import question_space

    ranking = attribute_ranking(session.program)
    rank_of = {key: i for i, key in enumerate(ranking)}
    feature_rank = {name: i for i, name in enumerate(FEATURE_ORDER)}
    questions = question_space(session.program, session.registry, session.asked)
    questions = [
        q
        for q in questions
        if q.feature_name in feature_rank and session.applicable(q)
    ]
    questions.sort(
        key=lambda q: (
            _phase(feature_rank[q.feature_name]),
            rank_of.get((q.ie_predicate, q.attribute), len(rank_of)),
            feature_rank[q.feature_name],
        )
    )
    return questions


class SequentialStrategy:
    """Predefined-order question selection (no simulation)."""

    name = "sequential"

    def select(self, session):
        questions = _ordered_questions(session)
        return questions[0] if questions else None


class SimulationStrategy:
    """Expected-result-size question selection (section 5.1).

    For a question about feature *f* of attribute *a* with answer space
    V, the strategy simulates the refined program for each v ∈ V and
    picks the question minimising  Σ_v Pr[answer = v] · |exec(g(P, v))|.

    The paper's initial implementation sets Pr uniform and notes it is
    "examining how to better estimate these probabilities from the
    data being queried"; we implement that estimator — the prior for a
    boolean answer is the fraction of sampled candidate sub-spans that
    verify it — because the uniform prior systematically overrates
    questions whose *wrong* answers would annihilate the result.

    ``alpha`` is the modelled decline probability; ``pool_size`` caps
    how many questions are simulated per iteration; ``max_values``
    caps candidate parameter values per parameterised feature.
    """

    name = "simulation"

    def __init__(self, alpha=0.1, pool_size=8, max_values=3, prior_samples=60):
        self.alpha = alpha
        self.pool_size = pool_size
        self.max_values = max_values
        self.prior_samples = prior_samples

    def select(self, session):
        questions = _ordered_questions(session)
        if not questions:
            return None
        pool = questions[: self.pool_size]
        # flatten the (question, answer value) grid into one candidate
        # batch, simulated in order
        jobs = []  # (pool index, probability, candidate tuple)
        for index, question in enumerate(pool):
            for value, prob in self._weighted_values(session, question):
                jobs.append(
                    (
                        index,
                        prob,
                        (
                            question.ie_predicate,
                            question.attribute,
                            question.feature_name,
                            value,
                        ),
                    )
                )
        if not jobs:
            # every pool question may lack candidate values
            # (parameterised features over unprofiled attrs); fall back
            # to sequential order
            return pool[0]
        counts = session.simulate_refinements([candidate for _, _, candidate in jobs])
        expected = {}
        for (index, prob, _), count in zip(jobs, counts):
            expected[index] = expected.get(index, 0.0) + (1.0 - self.alpha) * prob * count
        best = min(expected, key=lambda index: (expected[index], index))
        return pool[best]

    def _weighted_values(self, session, question):
        """``[(value, probability)]`` for the question's answer space."""
        feature = session.registry.get(question.feature_name)
        if feature.parameterized:
            profile = session.attribute_profile(question.ie_predicate, question.attribute)
            values = feature.candidate_values(profile)[: self.max_values]
            if not values:
                return []
            return [(v, 1.0 / len(values)) for v in values]
        values = list(feature.question_values) or list(BOOLEAN_VALUES)
        # markup-example feedback eliminates contradicted answers
        # before anything is simulated (section 5.1.1)
        from repro.assistant.feedback import eliminate_by_examples

        examples = session.example_spans(question.ie_predicate, question.attribute)
        values = eliminate_by_examples(feature, values, examples)
        if self.prior_samples <= 0:
            # the paper's original uniform-answer assumption, kept for
            # ablation (SimulationStrategy(prior_samples=0))
            return [(v, 1.0 / len(values)) for v in values]
        samples = self._sample_spans(session, question)
        if not samples:
            return [(v, 1.0 / len(values)) for v in values]
        # probe through the session's shared EvalCache: the same anchor
        # spans are re-sampled every iteration (and "no" re-verifies the
        # "yes" answers), so most probes after the first iteration are
        # cache hits
        tolerant = getattr(session.config, "on_error", "fail-fast") != "fail-fast"

        def support(value):
            """Fraction of samples satisfying ``value``; ``None`` when none
            survives.  Under skip/retry a sample whose probe fails is
            left out of the estimate; fail-fast surfaces the failure."""
            hits = probed = 0
            for span in samples:
                try:
                    if session.verify_feature(feature, span, value):
                        hits += 1
                except ExecutionFailure:
                    if not tolerant:
                        raise
                    continue
                probed += 1
            return hits / probed if probed else None

        weighted = []
        for value in values:
            fraction = support(value)
            if value == "no" and fraction is not None:
                # "no" competes with yes: its mass is what yes lacks
                yes = support("yes")
                fraction = None if yes is None else 1.0 - yes
            if fraction is None:
                fraction = 1.0 / len(values)  # no sample survived: uniform
            # an answer no sampled candidate supports is implausible —
            # simulating it would credit the question with a result
            # reduction that will never materialise
            if fraction > 0:
                weighted.append((value, max(fraction, 0.02)))
        if not weighted:
            return [(v, 1.0 / len(values)) for v in values]
        total = sum(w for _, w in weighted)
        return [(v, w / total) for v, w in weighted]

    def _sample_spans(self, session, question):
        """Candidate sub-spans to estimate answer priors from.

        Includes each anchor span itself (an ``exact`` anchor *is* a
        candidate value — e.g. a whole author string, which is what a
        ``distinct_yes`` would hold of) plus its token sub-spans.
        """
        anchors = session.attribute_profile(question.ie_predicate, question.attribute)
        samples = []
        per_anchor = max(1, self.prior_samples // max(1, len(anchors[:20])))
        for anchor in anchors[:20]:
            if len(anchor) <= 80:
                samples.append(anchor)
            for token_span in anchor.token_spans()[:per_anchor]:
                samples.append(token_span)
            if len(samples) >= self.prior_samples:
                break
        return samples
