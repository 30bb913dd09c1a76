"""Compile-output oracle: the sha256 of ``compile_payload`` (SIMPLE
listing, threaded listing, optimizer counters) for every Olden source
under every ``OPT_PRESETS`` entry, and for a fixed seeded set of
generated workload programs.

The digests pin the compiler's output byte for byte, so a change meant
to speed up the lexer, parser or alias analyses without changing any
result must leave every one of them alone.  A change that does alter
compiled output updates the digests here and bumps
``PIPELINE_VERSION``.
"""

import hashlib
import json
import random

import pytest

from repro.comm.optconfig import OPT_PRESETS
from repro.olden.loader import catalog
from repro.service import jobs
from repro.service.jobs import JobSpec, execute_job
from repro.workload import MIXES, SHAPES, generate_source

OLDEN = {
    "bh/legacy":
        "4a5cfd1f19654d1e55c98d973591c012ac14dcd43850a458f4f0f26fa516aa31",
    "bh/probabilistic":
        "f83bf4fd5963bf5fbf16d0a7048e12bed9b72e7bbbdeb0017f672300a3b8e520",
    "bisort/legacy":
        "3f0959d2137082d9e75ef19d5493e1edfab3ce84c6682c13fce293d683c8356f",
    "bisort/probabilistic":
        "361c078796220868f9d70a19e7a056b2238d56681c3152709a3cc845b870b306",
    "em3d/legacy":
        "b1ae02d5c823ab39c450e2dc4a875e61f5b8b0c1f45ef7eb04f292384ebc5063",
    "em3d/probabilistic":
        "8f0e670f83710538156ad455c105f1ef531832f21eae3c5905599e00646d816d",
    "health/legacy":
        "e0e4a85c82f37e116416db2482b84c3c26396a51bd3c6bdbc675ff38232e4e1f",
    "health/probabilistic":
        "711b361114969ae06aa1558654582245e67b46d203b27ad5e380e3bedd91161d",
    "mst/legacy":
        "b10fd3e6efbeab4e30ca4d86a7515b6093251bc059ea0fabefbbf661a7a6b3ae",
    "mst/probabilistic":
        "b7f9ba5e7f829b9ac94dbf61a9c1dcc9ca21dece5e33a76197ca44deadc15a04",
    "perimeter/legacy":
        "371c9526aba003ccde1bc9e85feef101c36b5e458677bba21bb216d939ce6e0d",
    "perimeter/probabilistic":
        "e77ac4dd90e6a8170abc38d483889e7b3abc2004715d119c05ccf3536f1f1624",
    "power/legacy":
        "2a69b627cd8a59d6e742d3eed5723822b4ee4dbae2f35da01650ff1a397f98bb",
    "power/probabilistic":
        "2eb8da66cc04abcf06b40b20cdc2e187f6e42e1b75ae763c5fbe434398e4c77d",
    "treeadd/legacy":
        "8b84dc40220d3af3f8e97b7a505cb6489a44a75f65b82e62b41122f491aacdd3",
    "treeadd/probabilistic":
        "b36d5e805c4ca8973ebeab6ba18e96b90819a07c2cf9137847221052be0458b1",
    "tsp/legacy":
        "53ba36c8b1693bd472767894f665b50077f79d3241480c6ece994f0d6e64b1bc",
    "tsp/probabilistic":
        "56ca8ce5b4276a6e31fd9e047178b81c909c1bfd8773528a382f99c89a3de7b7",
    "voronoi/legacy":
        "3099c37615518ebbe195a4301667e9d25e2670bc8bc276291f9f3e57a3e14c24",
    "voronoi/probabilistic":
        "379f631b0a57fb045199d2076eb96a8fd0c4400c5f54239b6511d16f22afb979",
}

#: ``shape/mix/preset`` -> digest; each program is
#: ``generate_source(random.Random(f"compile-golden-{shape}-{mix}"),
#: shape, mix)``.
GENERATED = {
    "list/balanced/legacy":
        "d917e6c0e62e5817bd19866400d0a321f4ba8820b7f2799e75af32423f056c13",
    "list/balanced/probabilistic":
        "1e9f1d858f1293bc389e990f68b7c6d76f232da094e0498af6341f8c9846d7e9",
    "list/read-heavy/legacy":
        "efa3c87298a6c1733ee4c143a34298eb15c08e808031601a2f68faf3ea5c3c54",
    "list/read-heavy/probabilistic":
        "851e384e7dd0b2fef57879b640292f7e64e9b41549ea023de8a577df26dfdc13",
    "list/write-heavy/legacy":
        "9576b9ccef83ad20b2c7edaf76a4f95b6848ee3eefb2549f50f6ab3e65b6ce08",
    "list/write-heavy/probabilistic":
        "1fcfa80eacd577c0ecb8f1cc712519a7e10377244a6d3a14814891f206aaba2f",
    "mesh/balanced/legacy":
        "64224a5f58e1efa6b3ace302ec6b3a30f9815dd5d8ea3d2ebb797a12d0fec0d6",
    "mesh/balanced/probabilistic":
        "e4d64eea9751b7e7fb129540ee6756d9ce7e220c93b1c7932bd74160d41b8db4",
    "mesh/read-heavy/legacy":
        "e54e7378c7b39e66af79ee0f0a1cc02d3c0b309cf5ecf473b120bd9b00ea3802",
    "mesh/read-heavy/probabilistic":
        "889ea83975194c2fff6de5d05b6e5a4cc08970a7b13799bddd0f90d1ac3854ff",
    "mesh/write-heavy/legacy":
        "019a31c9aa71f558500759876dc05fda3ab89d738622370ac46477bb73e32838",
    "mesh/write-heavy/probabilistic":
        "b0d2620f9b23ca46b7c10317ed393f97056383815772f226dfe7e8e35a5560fd",
    "tree/balanced/legacy":
        "f7337a0973f2f23c550b9c9c2995f644bb318dea4f5a70892fb7e7073dba5e1b",
    "tree/balanced/probabilistic":
        "bb6249bcd145ab1ee3590f0bff0deec98da8337eb01ee75b2ecdb2c1be88b05a",
    "tree/read-heavy/legacy":
        "990a172721bb67f4836aab4b51834e8f8bf85621e9aab220b80d93f1e3278b80",
    "tree/read-heavy/probabilistic":
        "c242cb371219b196a8decb417b1fa256ac2f9e4be3654d72c2c190343ce4edb5",
    "tree/write-heavy/legacy":
        "96c2907290cec5eaf007ce42d9874e06f491e98f0aad46ee905a71a35565f7a0",
    "tree/write-heavy/probabilistic":
        "cdc6fb5eb89ba3a02ce32a2399cebcad9552376d77db1e4567af5c8a70091b8c",
}


def payload_digest(spec):
    jobs._COMPILE_MEMO.clear()
    result = execute_job(spec)
    assert result.ok, result.error
    blob = json.dumps(result.payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def test_golden_covers_catalog_presets_and_strata():
    assert sorted(OLDEN) == sorted(f"{spec.name}/{preset}"
                                   for spec in catalog()
                                   for preset in OPT_PRESETS)
    assert sorted(GENERATED) == sorted(f"{shape}/{mix}/{preset}"
                                       for shape in SHAPES
                                       for mix in MIXES
                                       for preset in OPT_PRESETS)


@pytest.mark.parametrize("key", sorted(OLDEN))
def test_olden_compile_payload_matches_golden(key):
    name, preset = key.split("/")
    spec = JobSpec("compile", benchmark=name, opt=preset)
    assert payload_digest(spec) == OLDEN[key]


@pytest.mark.parametrize("key", sorted(GENERATED))
def test_generated_compile_payload_matches_golden(key):
    shape, mix, preset = key.split("/")
    source = generate_source(
        random.Random(f"compile-golden-{shape}-{mix}"), shape, mix)
    spec = JobSpec("compile", source=source,
                   filename=f"{shape}-{mix}.ec", opt=preset)
    assert payload_digest(spec) == GENERATED[key]
