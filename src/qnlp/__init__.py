"""Compositional sentence classification with circuit and tensor backends.

The pipeline: parse a sentence into a typed string diagram, simplify it
with rewrite schemes, compile it to a parameterized quantum circuit or a
tensor network, and train the shared word parameters on a labeled corpus.
"""
