"""Depth quantization and why same-depth nodes collide.

The sounder's resolution degrades with depth, so the bucket that a node
falls into is wider the deeper it sits.  Nodes sharing a bucket are
indistinguishable to the base station: that is exactly the conflict the
decomposition movement resolves.
"""

from uwoan import DepthModel

model = DepthModel()  # 0.5 m at the surface, +0.5 m per 100 m of depth

print("sounding resolution and bucket width by depth:")
for depth in (0, 25, 50, 100, 150, 200):
    z = float(depth)
    print(f"  {depth:5.0f} m: resolution {model.resolution(z):4.2f} m, "
          f"bucket #{model.bucket(z)}")
print()

print("two nodes near 100 m (resolution there is 1.0 m):")
for d1, d2 in ((100.0, 100.3), (100.0, 101.2)):
    b1, b2 = model.bucket(d1), model.bucket(d2)
    verdict = "CONFLICT (same bucket)" if b1 == b2 else "distinguishable"
    print(f"  {d1:6.1f} m -> #{b1}   {d2:6.1f} m -> #{b2}   {verdict}")
print()

print("the same 0.8 m separation at different depths:")
for base in (10.0, 100.0, 190.0):
    b1, b2 = model.bucket(base), model.bucket(base + 0.8)
    verdict = "conflict" if b1 == b2 else "resolved"
    print(f"  around {base:5.0f} m: buckets #{b1} vs #{b2} -> {verdict}")
print()
print("deeper water needs larger vertical excursions to break a conflict.")
