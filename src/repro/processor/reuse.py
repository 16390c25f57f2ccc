"""Cross-iteration reuse of per-predicate compact tables (section 5.2).

A predicate's fingerprint covers its rules (constraints split out), the
tokens of its upstream intensional tables and the corpus content.
:class:`RuleCache` keeps each predicate's last table under its
fingerprint, optionally backed by a persistent result store.  Below a
memory hit, every table resolves through one ladder
(:meth:`ReuseMixin._resolve`): the store, then — when a refinement only
*adds* domain constraints — the new constraints applied to the cached
table (they commute, section 4.2), then computation.  A partition-local
predicate climbs it partition by partition and recomputes only the
dirty partitions.
"""

import hashlib
import logging
from dataclasses import dataclass, field

from repro.observability.logs import get_logger
from repro.processor.operators import apply_constraint_to_table
from repro.xlog.ast import ConstraintAtom, PredicateAtom, Rule

__all__ = ["ReuseMixin", "RuleCache"]

logger = get_logger("processor")


@dataclass
class _Fingerprint:
    bases: tuple          # per-rule repr with constraints stripped
    constraints: tuple    # per-rule sorted (attr, feature, value-repr)
    upstream: tuple       # tokens of referenced intensional tables
    corpus_sig: object
    #: SHA-256 state over the token payload's ``(bases, constraints``
    #: prefix, shared by every fingerprint of one :class:`_RulePart`
    prefix: object = field(default=None, repr=False, compare=False)

    @property
    def token(self):
        """A short, *process-stable* hex token over the fingerprint.

        The persistent result store keys files on this, so it must not
        depend on per-process ``PYTHONHASHSEED`` the way ``hash()``
        does.  Every field reprs deterministically (rule reprs, tuples,
        the corpus content digest), so a SHA-256 over the combined repr
        is stable across processes and runs.
        """
        token = self.__dict__.get("_token")
        if token is None:
            hasher = self.prefix.copy() if self.prefix is not None else _prefix_hasher(
                self.bases, self.constraints
            )
            # together with the prefix: repr((bases, constraints,
            # upstream, corpus_sig)), the payload tokens have always hashed
            hasher.update(("%r, %r)" % (self.upstream, self.corpus_sig)).encode("utf-8"))
            token = hasher.hexdigest()[:24]
            self.__dict__["_token"] = token
        return token


def _prefix_hasher(bases, constraints):
    return hashlib.sha256(("(%r, %r, " % (bases, constraints)).encode("utf-8"))


class _RulePart:
    """The partition-independent half of one predicate's fingerprint.

    Built once per predicate per run: the rule reprs (bases and
    constraints), the upstream intensional names, and the token's
    hashed prefix.  :meth:`fingerprint` adds the upstream tokens and the
    corpus signature — one call per partition on the partitioned path.
    """

    def __init__(self, rules, intensional):
        bases = []
        constraints = []
        upstream = set()
        for rule in rules:
            base, cons = _split_rule(rule)
            bases.append(base)
            constraints.append(cons)
            for atom in rule.body_atoms(PredicateAtom):
                if atom.name in intensional:
                    upstream.add(atom.name)
        self.bases = tuple(bases)
        self.constraints = tuple(constraints)
        self.upstream = tuple(sorted(upstream))
        self.prefix = _prefix_hasher(self.bases, self.constraints)

    def _upstream_tokens(self, tokens):
        # every upstream token is set by evaluation order
        return tuple((name, tokens.get(name)) for name in self.upstream)

    def fingerprint(self, tokens, corpus_sig):
        return _Fingerprint(
            bases=self.bases,
            constraints=self.constraints,
            upstream=self._upstream_tokens(tokens),
            corpus_sig=corpus_sig,
            prefix=self.prefix,
        )

    def matches(self, fingerprint, tokens, corpus_sig):
        """Would :meth:`fingerprint` equal ``fingerprint``?

        Field by field — what the token hashes — without building one.
        """
        return (
            fingerprint.corpus_sig == corpus_sig
            and fingerprint.upstream == self._upstream_tokens(tokens)
            and fingerprint.bases == self.bases
            and fingerprint.constraints == self.constraints
        )


class _Run:
    """Per-execution bookkeeping of the reuse chain."""

    def __init__(self, cache, context):
        #: the :class:`RuleCache` this execution reads and fills, or ``None``
        self.cache = cache
        self.context = context
        #: predicate -> reuse kind (``full``, ``incremental``, ``computed``)
        self.reuse = {}
        #: predicate -> whole-corpus fingerprint token
        self.tokens = {}
        #: predicate -> [fingerprint token per corpus partition], for the
        #: predicates that went through the partition-keyed cache (their
        #: tables are in ``ExecutionContext.partition_relations``); empty
        #: when no predicate did
        self.partition_tokens = {}
        #: predicate -> corpus partitions served from the partition-keyed cache
        self.partitions_reused = {}
        #: predicate -> :class:`_RulePart`
        self.rule_parts = {}
        #: corpus partitions a partition-local predicate re-executed on
        self.recomputed = set()


@dataclass
class _CacheEntry:
    fingerprint: _Fingerprint
    table: object


class RuleCache:
    """Per-predicate compact-table cache for cross-iteration reuse.

    Entries are keyed ``(predicate name, partition id)``.  Partition
    ``None`` holds the whole-corpus table — the only key unpartitioned
    execution uses, and always written so results reuse across chunk
    sizes.  Partitioned execution additionally keys the
    document-local predicates per corpus partition, so the
    constraints-commute incremental path applies partition by partition.

    With a ``store`` (a :class:`~repro.columnar.results.ResultStore`),
    entries additionally hydrate from and spill to disk by fingerprint
    token: a fresh process over an unchanged plan and corpus re-serves
    persisted partition tables instead of re-extracting.  What each
    execution reused is in its ``reuse_summary`` and
    ``ExecutionStats.result_cache_hits``.
    """

    def __init__(self, store=None):
        self._entries = {}
        #: optional persistent backing store shared across processes
        self.store = store

    def get(self, name, partition=None):
        return self._entries.get((name, partition))

    def put(self, name, fingerprint, table, partition=None):
        self._entries[(name, partition)] = _CacheEntry(fingerprint, table)

    def copy(self):
        """A cache with the same entries and store; puts stay private.

        Entries are immutable, so a shallow copy lets a throwaway
        execution (an answer simulation) read this cache without
        polluting it.  The store is shared: its writes are atomic and
        content-addressed, so the copy may hydrate from and spill to it.
        """
        clone = RuleCache(store=self.store)
        clone._entries = dict(self._entries)
        return clone

    def __len__(self):
        return len(self._entries)


def _split_rule(rule):
    """``(base_repr, constraints)`` — constraints in body order."""
    body = tuple(a for a in rule.body if not isinstance(a, ConstraintAtom))
    constraints = tuple(
        (a.var.name, a.feature, repr(a.value))
        for a in rule.body
        if isinstance(a, ConstraintAtom)
    )
    return repr(Rule(rule.head, body)), constraints


class ReuseMixin:
    """The reuse steps of :class:`~repro.processor.executor.IFlexEngine`.

    They read the engine's unfolded program, active corpus, physical
    layer and per-predicate ``_persistable`` verdicts.
    """

    def _merged_store(self, cache, name):
        """The store ``name``'s merged table loads from and saves to.

        ``None`` unless the predicate may persist and is a whole-corpus
        table.  Partition-local predicates, chained ones included,
        persist their partition tables instead: a merged copy would
        short-circuit the delta path on warm runs.
        """
        if cache is None or cache.store is None or not self._persistable[name]:
            return None
        if self._partitioned_path(name):
            return None
        return cache.store

    def _resolve(self, run, name, fingerprint, entry=None, store=None, compute=None):
        """The reuse ladder below a memory hit: ``(table, kind)``.

        Tries ``store`` (the persistent store to load from, or
        ``None``; corrupt and stale entries count as misses), then the
        constraints-commute incremental path over ``entry`` (the cached
        entry under an older fingerprint, or ``None``), then
        ``compute``, which returns ``(table, kind)``.  Without
        ``compute`` the last rung is ``(None, "computed")``: the caller
        computes in bulk (the dirty partitions of one predicate, or one
        whole recursive group).
        """
        stats = run.context.stats
        if store is not None:
            table = store.load(fingerprint.token, self._docs_by_id())
            if table is not None:
                stats.result_cache_hits += 1
                return table, "full"
            stats.result_cache_misses += 1
        if entry is not None:
            table = self._incremental(name, entry, fingerprint, run.context)
            if table is not None:
                return table, "incremental"
        if compute is None:
            return None, "computed"
        return compute()

    def _remember(self, run, name, fingerprint, table, kind, note=""):
        """Install one resolved whole-corpus table in the run and cache.

        The table joins the context's relations and the run's reuse
        summary; with a cache it becomes the predicate's entry, and a
        computed table is also saved to the merged-table store.
        """
        run.reuse[name] = kind
        run.context.relations[name] = table
        cache = run.cache
        if cache is not None:
            cache.put(name, fingerprint, table)
            if kind == "computed" and self._merged_store(cache, name) is not None:
                cache.store.save(fingerprint.token, table)
        if logger.isEnabledFor(logging.DEBUG):  # the counts walk the table
            logger.debug(
                "%s: %d tuples, %d assignments (%s%s)",
                name,
                table.tuple_count(),
                table.assignment_count(),
                kind,
                note,
            )

    def _group_tokens(self, group, run):
        """Content-addressed reuse tokens for one recursive group.

        A predicate's fingerprint normally embeds the tokens of its
        upstream intensionals, which is circular inside a recursive
        component.  The group digest breaks the cycle: one SHA-256 over
        every member's split rules, the tokens of all out-of-group
        upstream intensionals, and the corpus content signature; each
        member's token is that digest salted with its own name, so the
        per-member fingerprints (and the persistent store keys derived
        from them) stay process-stable.
        """
        tokens = run.tokens
        payload = []
        upstream = set()
        for member in group:
            part = self._rule_part(member, run)
            payload.extend((member, *rule) for rule in zip(part.bases, part.constraints))
            upstream.update((n, tokens.get(n)) for n in part.upstream if n not in group)
        digest = hashlib.sha256(
            repr(
                (
                    tuple(payload),
                    tuple(sorted(upstream)),
                    ("content", self._active.content_digest),
                )
            ).encode("utf-8")
        ).hexdigest()
        for member in group:
            tokens[member] = hashlib.sha256(
                ("%s:%s" % (digest, member)).encode("utf-8")
            ).hexdigest()[:24]

    def _execute_partitioned(self, name, run):
        """A partition-local predicate, partition by partition.

        With a cache, each corpus partition gets its own fingerprint
        (same rules, the partition's corpus signature — and, for a
        chained predicate, the upstream's token for that partition) and
        its own full-hit / incremental / compute decision; only
        partitions that could not be reused are re-executed, in partition
        order.  Without one, every partition executes and nothing is
        fingerprinted, stored or counted.  Returns ``(merged table,
        kind)`` where ``kind`` summarises the weakest reuse across
        partitions.

        A chained predicate's upstream normally went partition by
        partition earlier this run.  When it was a whole-table hit
        instead, its partitions resolve first, through the same cache
        (on a resident engine: all in-memory hits), traced under a span of
        their own.

        The run counts *corpus partitions*: one is recomputed when any
        partition-local predicate re-executed on it, reused when every
        one was served from cache.  Every partition table persists under
        its own token (a chained one's embeds its upstream partition's
        token), so a fresh process recomputes only the partitions whose
        documents changed, all down the chain.
        """
        from repro.ctables.ctable import CompactTable

        cache, context = run.cache, run.context
        upstream = self.physical.upstream(name)
        if upstream is not None and upstream not in context.partition_relations:
            with self._span("partitions:%s" % upstream, "plan", predicate=upstream):
                self._execute_partitioned(upstream, run)
        count = len(self.physical.partitions)
        tables = [None] * count
        kinds = ["computed"] * count
        fingerprints = []
        fresh = []  # partitions whose cache entry is replaced
        store = None
        if cache is not None:
            store = cache.store if self._persistable[name] else None
            part = self._rule_part(name, run)
            upstream_tokens = run.partition_tokens.get(upstream)
            for pid, corpus_sig in enumerate(self.physical.corpus_sigs()):
                tokens = {upstream: upstream_tokens[pid]} if upstream else {}
                entry = cache.get(name, partition=pid)
                if entry is not None and part.matches(entry.fingerprint, tokens, corpus_sig):
                    # the clean-partition fast path: no new fingerprint, no
                    # token to hash, nothing to put back
                    fingerprints.append(entry.fingerprint)
                    tables[pid], kinds[pid] = entry.table, "full"
                    continue
                fingerprint = part.fingerprint(tokens, corpus_sig)
                fingerprints.append(fingerprint)
                fresh.append(pid)
                tables[pid], kinds[pid] = self._resolve(run, name, fingerprint, entry, store)
        missing = [pid for pid, table in enumerate(tables) if table is None]
        # the delta accounting: clean partitions fold in from cache,
        # dirty ones (content digest moved, or cold) re-execute
        run.recomputed.update(missing)
        if missing:
            computed = self.physical.execute_local_partitions(
                name, missing, context, upstream=context.partition_relations.get(upstream)
            )
            for pid, (table, stats) in zip(missing, computed):
                tables[pid] = table
                context.stats.merge(stats)
        for pid in fresh:
            cache.put(name, fingerprints[pid], tables[pid], partition=pid)
            if store is not None and kinds[pid] == "computed":
                store.save(fingerprints[pid].token, tables[pid])
        context.partition_relations[name] = tables
        if cache is not None:
            run.partition_tokens[name] = [fp.token for fp in fingerprints]
        merged = CompactTable.union(tables, attrs=self.physical.split(name).root.attrs)
        run.partitions_reused[name] = count - len(missing)
        kind = next(k for k in ("computed", "incremental", "full") if k in kinds)
        return merged, kind

    def _rule_part(self, name, run):
        part = run.rule_parts.get(name)
        if part is None:
            part = run.rule_parts[name] = _RulePart(
                self.unfolded.rules_for(name), self.unfolded.intensional
            )
        return part

    def _fingerprint(self, name, run):
        """The predicate's whole-corpus reuse fingerprint.

        The corpus signature is the active corpus's *content* digest —
        doc ids alone would serve stale results after an in-place
        document edit, which the persistent store must never do.  (The
        partitioned path fingerprints each corpus slice separately.)
        """
        return self._rule_part(name, run).fingerprint(
            run.tokens, ("content", self._active.content_digest)
        )

    def _incremental(self, name, entry, fingerprint, context):
        """Apply added-constraint deltas to a cached table, or None."""
        old, new = entry.fingerprint, fingerprint
        if (
            old.bases != new.bases
            or old.upstream != new.upstream
            or old.corpus_sig != new.corpus_sig
            or len(old.constraints) != len(new.constraints)
        ):
            return None
        rules = self.unfolded.rules_for(name)
        if len(rules) != 1:
            # a multi-rule head unions tables from several rules; one
            # rule's new constraint must not filter another rule's
            # tuples, so fall back to a full recompute
            return None
        annotated = set(rules[0].annotations[1])
        table = entry.table
        table_attrs = set(table.attrs)
        deltas = []
        for old_cons, new_cons in zip(old.constraints, new.constraints):
            old_list = list(old_cons)
            for item in old_list:
                if item not in new_cons:
                    return None  # a constraint was removed: no reuse
            remaining = list(new_cons)
            for item in old_list:
                remaining.remove(item)
            for attr, feature, value_repr in remaining:
                if attr not in table_attrs:
                    return None  # constrained attr was projected away
                priors = [
                    (f, _unrepr(v)) for a, f, v in old_list if a == attr
                ]
                deltas.append((attr, feature, _unrepr(value_repr), priors))
        for attr, feature, value, priors in deltas:
            table = apply_constraint_to_table(
                table,
                attr,
                feature,
                value,
                priors,
                context,
                # constraints commute past psi for annotated attributes
                mark_maybe=attr not in annotated,
            )
        return table


def _unrepr(value_repr):
    """Recover a constraint value from its repr (str/int/float only)."""
    import ast

    return ast.literal_eval(value_repr)
