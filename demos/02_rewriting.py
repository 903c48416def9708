"""
Rewriting diagrams before compilation
=====================================

"""

from qnlp.circuit import layout
from qnlp.corpus import default_lexicon
from qnlp.pregroup import parse_sentence
from qnlp.rewrite import RewriteScheme, rewrite

lexicon = default_lexicon()
diagram = parse_sentence(["skillful", "man", "prepares", "tasty", "sauce"], lexicon)

# "re" leaves the parse untouched, and the "cur" schemes bend verb and
# adjective wires so fewer cups remain.  The "norm" passes remove cap-cup
# snakes, and a parse has no caps, so "re_norm" prints the same row as "re"
# and "re_norm_cur_norm" the same row as "re_norm_cur".
# The layout places the rewritten diagram on qubits, as a circuit build does.
for scheme in RewriteScheme:
    out = rewrite(diagram, scheme)
    placed = layout(out)
    kinds = [box.kind.value for box in out.boxes]
    print(f"{scheme.value:16s} cups={out.n_cups} open={out.open_types()} boxes={kinds} "
          f"qubits={placed.n_qubits} postselected={len(placed.postselect)}")

# Fewer cups means fewer postselected qubits: each cup costs a
# Bell-effect measurement when the diagram becomes a circuit.
