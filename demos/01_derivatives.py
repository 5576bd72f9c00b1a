"""A tour of the expression language and Brzozowski derivatives.

Run with: python demos/01_derivatives.py
"""

from derivmon import parse, format_regex, has_eps, height, size
from derivmon.derivative import derive, derive_word

# Expressions are written with identifiers as event symbols, `eps` and `0`
# as constants, juxtaposition for concatenation, `+` for union, postfix `*`,
# and `||` for shuffle.  `||` binds loosest, then `+`, then concatenation.
e = parse("a b + a c")
print("expression:   ", format_regex(e))
print("height:       ", height(e))
print("size:         ", size(e))
print("has empty word:", has_eps(e))
print()

# Deriving by a symbol rewrites the expression into one matching the rest
# of the input.  The step is total: mismatches turn into `0`, and the
# nullability flag of a left factor is embedded literally as `eps` or `0`.
# Nothing is ever simplified away.
print("derive by a:  ", format_regex(derive(e, "a")))
print("derive by b:  ", format_regex(derive(e, "b")))
print()

# A word derivative is just the left fold; acceptance asks whether the
# final expression still contains the empty word.
for word in [("a", "b"), ("a", "c"), ("b",), ()]:
    result = derive_word(e, word)
    print(f"after {' '.join(word) or '(empty)':8} -> accepted={result.nullable!s:5}  {format_regex(result)}")
print()

# The price of totality: with no simplification, iterated derivatives keep
# growing.  This is the motivation for partial derivatives (next demo).
needle = parse("(a + b)* a (a + b)*")
current = needle
print("iterated derivatives of", format_regex(needle))
for step in range(1, 6):
    current = derive(current, "a")
    print(f"  step {step}: size {size(current)}")
