"""An empty module, kept only for the layer trace of ``bench/``.

The sweep solves the unhedged auxiliary equation, so it runs no arrowhead
inversion; the arrowhead form of the hedged supremum is a test reference,
in ``tests/references.py``.  ``bench/layertrace.py`` still imports this
module by name in every traced run, to time a ``hamiltonian.corner`` layer
that now reads zero calls.  The ``benchmark`` change that drops that layer
deletes this module.
"""
