"""Hand-written layered reference paths the tests check ``LayeredCode`` against.

Parallel decoding (alg1) and successive interference cancellation (alg2,
with ``iterative`` for alg2-iterative) each have their own loop, and
every report rebuilds ``recombined`` with ``LayeredCode.recompose``, a
full ``row_space`` elimination that checks the direct sum.  The loops
lift and embed each decoded matrix themselves (``component``).  An
attempt extracts with the public ``extract_component`` and runs
``lifted._decode_space``, the lifted decode without ``subspace_decode``'s
memo, on a fresh copy of the inner code, whose codeword memo starts
empty, and the loops add each lift back themselves, so every comparison
with ``LayeredCode`` compares the walk and its three memos (the step,
decode and codeword memos) with paths that keep none.
``random_messages`` draws a codeword's messages as element indices, one
batch per layer, for the public ``encode``.
"""

import dataclasses

from lsc import lifted
from lsc.errors import ParameterError
from lsc.gabidulin import DecodeFailure
from lsc.layered import STATUS_OK, LayerDecodeReport, LayerResult
from lsc.linalg import Subspace, subspace_sum


def random_messages(code, rng):
    """Uniform messages: one ``rng.randbelow`` per symbol, layer by layer."""
    params = code.params
    return [
        rng.randbelow_many(params.size, component.k)
        for component in code.layers
    ]


def attempt(code, layer, extracted):
    """One component decode of ``extracted`` (in the component ambient)."""
    outcome = lifted._decode_space(dataclasses.replace(code.layers[layer - 1]), extracted)
    if isinstance(outcome, DecodeFailure):
        return LayerResult(layer, None, outcome.reason)
    return LayerResult(layer, outcome, None)


def component(code, result):
    """The lift of a decoded matrix in the component ambient; zero on failure."""
    inner = code.layers[result.layer - 1]
    if result.status != STATUS_OK:
        return Subspace.zero(code.params.q, inner.n + code.params.m)
    return lifted.lift(inner, result.matrix)


def decode_alg1(code, received):
    """Decode every layer independently from the received space."""
    results = [
        attempt(code, layer, code.extract_component(received, layer))
        for layer in range(1, code.num_layers + 1)
    ]
    return _report(code, "alg1", results, sweeps=1, accumulated=[], attempts=[])


def decode_alg2(code, received, iterative=False, max_sweeps=8, order=None):
    """SIC: add each decoded component back before the next extraction."""
    if max_sweeps < 1:
        raise ParameterError("max_sweeps must be at least 1")
    if order is None:
        order = list(range(code.num_layers, 0, -1))
    else:
        order = list(order)
        if sorted(order) != list(range(1, code.num_layers + 1)):
            raise ParameterError("order must be a permutation of the layers")

    working = received
    results = {}
    accumulated = [working]
    attempts = []
    sweeps = 0
    while True:
        sweeps += 1
        decoded_this_sweep = 0
        for layer in order:
            prior = results.get(layer)
            if prior is not None and prior.status == STATUS_OK:
                continue
            result = attempt(code, layer, code.extract_component(working, layer))
            results[layer] = result
            if result.status == STATUS_OK:
                decoded = code.embed_component(layer, component(code, result))
                working = subspace_sum(working, decoded)
                decoded_this_sweep += 1
            accumulated.append(working)
            attempts.append(layer)
        if not iterative:
            break
        if decoded_this_sweep == 0 or all(r.status == STATUS_OK for r in results.values()):
            break
        if sweeps == max_sweeps:
            break
    ordered = [results[layer] for layer in range(1, code.num_layers + 1)]
    algorithm = "alg2-iterative" if iterative else "alg2"
    return _report(code, algorithm, ordered, sweeps, accumulated, attempts)


def _report(code, algorithm, results, sweeps, accumulated, attempts):
    return LayerDecodeReport(
        algorithm=algorithm,
        layers=list(results),
        recombined=code.recompose([component(code, r) for r in results]),
        sweeps=sweeps,
        accumulated=list(accumulated),
        attempt_layers=list(attempts),
    )
