"""Partitioned transition relations and image computation.

The transition relation is kept in conjunctively partitioned form
(Burch–Clarke–Long / Touati et al., as the paper's Section 1 surveys):
one partition ``T_j(x, w, y_j) = (y_j XNOR delta_j(x, w))`` per latch,
greedily clustered up to a node limit, with an early-quantification
schedule so that a variable is abstracted as soon as no later cluster
mentions it.

Image computation supports the *partial-image subsetting* hook of
Section 4: when an intermediate product exceeds a trigger size, an
approximation procedure is applied to it (the paper's "PImg" columns).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..bdd.function import Function
from ..fsm.encode import EncodedCircuit


@dataclass
class ImageStats:
    """Bookkeeping accumulated across image computations."""

    images: int = 0
    peak_product_nodes: int = 0
    subset_calls: int = 0


@dataclass
class PartialImagePolicy:
    """Subset intermediate image products (the paper's PImg setting).

    ``trigger``: apply the subsetting procedure only to products larger
    than this many nodes.  ``threshold``: size target handed to the
    procedure.  ``subset``: the approximation procedure itself,
    ``fn(f, *, threshold=0) -> Function`` with ``fn(f) <= f`` (the
    uniform ``UNDER_APPROXIMATORS`` signature).
    """

    subset: Callable[..., Function]
    trigger: int
    threshold: int


class TransitionRelation:
    """Clustered conjunctive transition relation of an encoded circuit."""

    def __init__(self, encoded: EncodedCircuit,
                 cluster_limit: int = 2500) -> None:
        self.encoded = encoded
        self.manager = encoded.manager
        self.cluster_limit = cluster_limit
        self.stats = ImageStats()
        manager = self.manager
        # One partition per latch: y_j <-> delta_j.
        partitions = [manager.var(y).equiv(delta)
                      for y, delta in zip(encoded.next_vars,
                                          encoded.next_functions)]
        self.clusters = _cluster(partitions, cluster_limit)
        # Rename pairs are fixed for the relation's lifetime; building
        # them per image/preimage call showed up in traversal profiles.
        self._rename_to_present = dict(zip(encoded.next_vars,
                                           encoded.state_vars))
        self._rename_to_next = dict(zip(encoded.state_vars,
                                        encoded.next_vars))
        self._schedule()

    def _schedule(self) -> None:
        """Order clusters and precompute quantification points.

        Clusters are ordered by the highest level of any quantifiable
        variable in their support (a light-weight IWLS-95-style
        heuristic); each cluster is tagged with the set of variables
        that can be quantified right after it is conjoined, i.e. those
        appearing in no later cluster.
        """
        forward_vars = set(self.encoded.state_vars) \
            | set(self.encoded.input_vars)
        backward_vars = set(self.encoded.next_vars) \
            | set(self.encoded.input_vars)
        manager = self.manager
        supports = [cluster.support() for cluster in self.clusters]

        def order_key(index: int) -> tuple:
            support = supports[index] & forward_vars
            if not support:
                return (-1, index)
            return (max(manager.level_of_var(v) for v in support), index)

        order = sorted(range(len(self.clusters)), key=order_key)
        self.clusters = [self.clusters[i] for i in order]
        supports = [supports[i] for i in order]
        self.quantify_forward = _quantification_schedule(
            supports, forward_vars)
        self.quantify_backward = _quantification_schedule(
            supports, backward_vars)
        mentioned: set[str] = set().union(*supports) if supports else set()
        #: forward-quantifiable variables no cluster mentions
        self.free_vars = forward_vars - mentioned
        #: backward-quantifiable variables no cluster mentions
        self.free_vars_backward = backward_vars - mentioned

    # ------------------------------------------------------------------

    def image(self, states: Function,
              partial: PartialImagePolicy | None = None) -> Function:
        """Forward image: states reachable in one step, over x variables.

        With ``partial`` set, intermediate products are subsetted, so the
        result is a *subset* of the exact image.
        """
        product = states
        for cluster, quantify in zip(self.clusters, self.quantify_forward):
            product = product.and_exists(cluster, quantify)
            size = len(product)
            if size > self.stats.peak_product_nodes:
                self.stats.peak_product_nodes = size
            if partial is not None and size > partial.trigger:
                product = partial.subset(product,
                                         threshold=partial.threshold)
                self.stats.subset_calls += 1
        # Quantify variables no cluster mentioned (e.g. unused inputs).
        remaining = self.free_vars & product.support()
        if remaining:
            product = product.exists(remaining)
        self.stats.images += 1
        # Rename next-state variables back to present-state.
        support = product.support()
        rename = {old: new for old, new in self._rename_to_present.items()
                  if old in support}
        return product.rename(rename) if rename else product

    def preimage(self, states: Function) -> Function:
        """Backward image: states that can reach ``states`` in one step."""
        support = states.support()
        rename = {x: y for x, y in self._rename_to_next.items()
                  if x in support}
        product = states.rename(rename) if rename else states
        for cluster, quantify in zip(self.clusters,
                                     self.quantify_backward):
            product = product.and_exists(cluster, quantify)
        remaining = self.free_vars_backward & product.support()
        if remaining:
            product = product.exists(remaining)
        self.stats.images += 1
        return product

    def monolithic(self) -> Function:
        """The full relation (for tests on small circuits)."""
        result = self.manager.true
        for cluster in self.clusters:
            result = result & cluster
        return result


def _quantification_schedule(supports: list[set[str]],
                             quantifiable: set[str]) -> list[set[str]]:
    """Early-quantification points: after cluster i, quantify the
    variables of interest that no later cluster mentions."""
    seen_later: set[str] = set()
    schedule: list[set[str]] = []
    for support in reversed(supports):
        schedule.append((support & quantifiable) - seen_later)
        seen_later |= support
    schedule.reverse()
    return schedule


def _cluster(partitions: list[Function], limit: int) -> list[Function]:
    """Greedy clustering: conjoin consecutive partitions up to a limit."""
    clusters: list[Function] = []
    current: Function | None = None
    for partition in partitions:
        if current is None:
            current = partition
            continue
        combined = current & partition
        if len(combined) <= limit:
            current = combined
        else:
            clusters.append(current)
            current = partition
    if current is not None:
        clusters.append(current)
    return clusters
