"""One complete key exchange, narrated.

Setup samples a labeled tree whose root splits it into two sides; each
party composes elementary moves (leaf merges, subtree swaps) on its own
side into a private endomorphism. Opposite-side endomorphisms commute, so
applying them in either order lands on the same word, and both parties
hash it into the same 32-byte key.
"""

from cakelab import (
    apply_endo,
    endos_commute,
    finalize,
    format_tree,
    party_step,
    setup,
)

config = setup(seed=5, levels=3, max_degree=4)
print(format_tree(config.platform.tree), end="")
print(f"public word: {config.public_word}")
print(f"side A moves: {[(m.kind, m.a, m.b) for m in config.platform.moves('A')]}")
print(f"side B moves: {[(m.kind, m.a, m.b) for m in config.platform.moves('B')]}")

endo_a, msg_a = party_step(config, "A", private_seed=1001)
endo_b, msg_b = party_step(config, "B", private_seed=2002)
print(f"alice sends: {msg_a}")
print(f"bob sends:   {msg_b}")
assert endos_commute(endo_a, endo_b)

key_a = finalize(config, endo_a, msg_b)
key_b = finalize(config, endo_b, msg_a)
assert key_a == key_b
print(f"shared word: {key_a.key_word}")
print(f"shared key:  {key_a.key_bytes.hex()}")

# the shared word is literally both orderings of the two actions
both = apply_endo(apply_endo(config.public_word, endo_b), endo_a)
assert both == key_a.key_word
