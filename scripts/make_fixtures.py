#!/usr/bin/env python3
"""Regenerate the bundled fixture files in fixtures/ from the stock builders.

Everything is written in canonical form, so rerunning this script on an
unchanged library is a no-op byte for byte.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hopfcat import fixtures as fx                      # noqa: E402
from hopfcat.dual import dualize                        # noqa: E402
from hopfcat.duoidal import bimonoid_from_category      # noqa: E402
from hopfcat.fileformat import save                     # noqa: E402
from hopfcat.fundamental import regular_hopf_module     # noqa: E402
from hopfcat.modules import regular_comodule, regular_module  # noqa: E402
from hopfcat.scalars import QQ                          # noqa: E402
from hopfcat.weak import pack, pack_dual                # noqa: E402


def main(outdir: str):
    os.makedirs(outdir, exist_ok=True)

    def put(name, obj):
        save(os.path.join(outdir, name + ".hc"), obj)
        print("wrote", name + ".hc")

    put("pair2_groupoid", fx.pair_groupoid_2())
    put("pair3_groupoid", fx.pair_groupoid_3())
    put("disjoint_groupoid", fx.disjoint_union_groupoid())
    put("z2_groupoid", fx.z2_groupoid())

    hopf = fx.hopf_fixtures(QQ)
    for name, a in hopf.items():
        put(name.replace("-", "_"), a)
        put(name.replace("-", "_") + "_stripped", a.strip_antipode())

    idem = fx.idempotent_monoid_bialgebra(QQ)
    put("idempotent", idem)
    for cname, mat in fx.idempotent_antipode_candidates(QQ).items():
        put(f"idempotent_candidate_{cname.replace('-', '_')}",
            idem.with_antipode({("*", "*"): mat}))

    put("graded_z2_strong_graded", fx.strongly_graded_z2(QQ))
    put("graded_z2_zero_graded", fx.zero_component_graded_z2(QQ))

    put("kz2_dual", dualize(hopf["kz2"]))
    put("pair2_dual", dualize(hopf["pair2"]))

    m = regular_module(hopf["kz2"], "right")
    m._base_name = "kz2"
    put("kz2_regular_module", m)
    lm = regular_module(hopf["kz2"], "left")
    lm._base_name = "kz2"
    put("kz2_left_regular_module", lm)
    hm = regular_hopf_module(hopf["kz2"])
    hm._base_name = "kz2"
    put("kz2_regular_hopf_module", hm)
    cm = regular_comodule(dualize(hopf["kz2"]))
    cm._base_name = "kz2_dual"
    put("kz2_dual_regular_comodule", cm)

    put("kz2_bimonoid", bimonoid_from_category(hopf["kz2"]))
    put("pair3_packed", pack(hopf["pair3"]))
    put("disjoint_dual_packed", pack_dual(dualize(hopf["disjoint"])))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else
         os.path.join(os.path.dirname(__file__), "..", "fixtures"))
