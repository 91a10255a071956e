"""CLI outputs pinned by digest.

Each command's stdout is hashed with sha256 and compared with the digest
recorded when the output was last known correct, so a change meant to keep
outputs byte-identical (a faster kernel, a refactor) is checked here rather
than by hand.  ``verify all`` reports timings, so its JSON is parsed, every
``seconds`` entry is dropped, and it is re-dumped with sorted keys before
hashing.

A change that alters an output on purpose records the new digest, and says
why, in the same change.
"""

import hashlib
import json

import pytest

from treehopf import cli

GOLDEN = [
    (('coproduct', '--kind', 'coadd', '(x1 (x2 x1))'),
     'c10819beac3575c5960d925917738626f51affbfbdb398519925605cfe614b85'),
    (('coproduct', '--kind', 'coadd', '2*(x1 x2 o) - 1/3*((x1 x2) x3)'),
     '514e3ec3470526ac398f59faaddbd746c2c412422c689d430aa42e9dbe7dadb6'),
    (('coproduct', '--kind', 'lr', '((o o) (o o))'),
     '3da6ee85a12811129e7e1900c4a893080310795d374a826f557ee985d02bcb89'),
    (('coproduct', '--kind', 'lr', '(o (o (o o))) - 1/2*((o o) o)'),
     'fc96434ec924bec2f38c0cb49202e581769de7ac999e6fd18dbed644ad3f1539'),
    (('coproduct', '--kind', 'ck', '[(o (o)); o]'),
     '924efe230c87fe76fbf48e95af5bddf36f6db459e2aa15815ca71fc0daf71851'),
    (('coproduct', '--kind', 'ck', '[((o) o)] + 3/2*[(o); (o o)]'),
     'a8808c77911537774651ac264ebb73d89a897113245d09c277abfdfe7fe9a8e4'),
    (('coproduct', '--kind', 'bf', '((o o) (o o))'),
     'e7650e338ed3f384b056e4aaf57811c36efb49cbf88297d4568b37ae4dc0795f'),
    (('coproduct', '--kind', 'bf', '(o (o o)) - ((o o) o)'),
     '3a19a2471e5fb589f22214a12373b1cc2a691dab0f4d250e049512551127e4b5'),
    (('iso', 'theta', '((o o) (o (o o)))'),
     'b8f9b421cbf67bd8b80d320fe8f1c90ea777276665de669906bae34ab126cf08'),
    (('iso', 'theta', '(o (o o)) + 2/3*((o o) o)'),
     '5adb89cdd1f9f25eb453ab674bff7cdafde77634ed527212499c42c32f482248'),
    (('iso', 'xi', '[(o (o)); o; (o)]'),
     '868c9e281be8658b3e5df1a92b3df95b7a33440ca9de9ef1bbac9c2f6cdb5cf0'),
    (('iso', 'xi', '[((o) o)] - 1/2*[o; o]'),
     '43eaf527a22ce1f6b2225e1ada389e9f20d996c2c07f0dd9115f9b5d5b74cc79'),
    (('iso', 'psi', '((o o) (o (o o)))'),
     '6af06d32158d5402a0f61545df89493334ee672cec08438a3ff76e23717529ab'),
    (('iso', 'psi', '(o (o o)) - 3*((o o) o)'),
     '5429b7431b34980693c1559180ffd74289be9a63f64b67a3d9d45d6e05b6c278'),
    (('taylor', '--vars', '3', '((x1 x2) (x3 x1))'),
     '0eba5b6f413250dee0b54401438bee322e531ceb6cde6dd84aae16598fbe4129'),
    (('taylor', '--vars', '3', '1/2*(x1 (o x2)) - 2/3*((x1 x1) x3) + (x2 x2 x1)'),
     'c282035ec663aac276bf00920e0fab057c8a1cb09239ce62860fedf387cd2e02'),
    (('taylor', '--vars', '3', '(o (x1 x1 x3)) + 5/4*(x3 (x2 o))'),
     '641e875d30aaec71c33bb7ccabc3d59929f561533f04cdcf6e58943abe2468e1'),
    (('derive', '--var', '1', '((x1 x2) (x1 (x1 x3))) - 1/2*(x1 x1 x1)'),
     'a83fd94f74bf49d4408618ca600c2c0dc3440ace6aedb45d22f4db0ddc6a8509'),
    (('derive', '--var', '2', '--to', '3', '((x1 x2) (x2 x3 o))'),
     '89da0784a62d9332ee2a496cb25bfc0d8ff21154cbb1cd61106495f9045adf5f'),
    (('dtree', '(x1 x2)', '((x1 x2) (x1 (x2 x3)))'),
     '5764b2ea0cf8ea944cdcf6bdadb049e41db11dc822dfff95f5f4f3f766db1dc1'),
    (('dtree', 'x1 - 1/2*x2', '(x1 (x2 x1)) + (x2 x2)'),
     '22d5d958eb3cdcd2883d95614534d7a1b28dc99442e589e92e7b7ccc4fdfa41c'),
    (('shuffle', '--operad', 'mag', '(x1 x2)', '(x1 x3)'),
     '911b22164e89c17972d4ff1d8832995ce614478361d0254312539a86c2b8e6fb'),
    (('shuffle', '--operad', 'magw', '(x1 x2 x3)', '(o x1)'),
     'b45568da7529eaed5bbeb00b41dc860daa7ad4db8a7bebace95c0208753fafe8'),
    (('shuffle', '--operad', 'magw', 'x1 - 2*x2', '(x1 x2)'),
     'cd4226a3a52760c239881a9a0817da1bf14ed0bc988d79ed97ecd143fc1038a6'),
    (('prim-dim', '--operad', 'mag', '--degree', '1', '--format', 'json'),
     'a000b020e2d4e77960883811f586744295efd9f0381a9bc9929c5fb6d068577f'),
    (('prim-dim', '--operad', 'mag', '--degree', '2', '--format', 'json'),
     'cd0c6a4570e88509bf87c9b798de265a828f671b2177ec55253970823f927dfb'),
    (('prim-dim', '--operad', 'mag', '--degree', '3', '--format', 'json'),
     '0cf0029f31e6038f698bd03052976aa21acab9ec191508185a9047349416af01'),
    (('prim-dim', '--operad', 'mag', '--degree', '4', '--format', 'json'),
     'a28a6ac8463408f49cdb5b6c9069bfe028b7690b8068e281fbf1d337b83e2427'),
    (('prim-dim', '--operad', 'mag', '--degree', '5', '--format', 'json'),
     '9fa0b9de39415d6acb4607048d0d9ecccfdd3a56b0ea27f48e04614d6d8327f4'),
    (('prim-dim', '--operad', 'mag', '--degree', '6', '--format', 'json'),
     'cfeb183c9b6b6aa4222f7b9530b2828b2e35b1e86a9972167d24c1c6c0bfc692'),
    (('prim-dim', '--operad', 'mag', '--degree', '7', '--format', 'json'),
     '0ead210cb6720e799a8f5381670c28a058da54ca782730ef4a47f3dac65904db'),
    (('prim-dim', '--operad', 'mag', '--degree', '1', '--multilinear', '--format', 'json'),
     '8038743960f7f2ca4db44b0e39a25807404c1023125857a9dbe19c09f77c6b57'),
    (('prim-dim', '--operad', 'mag', '--degree', '2', '--multilinear', '--format', 'json'),
     '901711c869da2539f071c4421de503686db789a758cd3682250e09eb198fc24c'),
    (('prim-dim', '--operad', 'mag', '--degree', '3', '--multilinear', '--format', 'json'),
     'ff77dda5490ef6c6a8b657fc124ea14ed1839666f43f8676694e4f9a270dc333'),
    (('prim-dim', '--operad', 'mag', '--degree', '4', '--multilinear', '--format', 'json'),
     'f0f53fe4fd05ef31a73a2e0d8ad7e154d9ba15e05267f5f3aeecadd7c227d8a0'),
    (('hw-dim', '--multidegree', '2,1', '--constraint', 'primitive', '--sample', '5', '--format', 'json'),
     '7edce58e07b92a84030484a5f02df12a5912cca5781a417f02d535beede7c5b4'),
    (('hw-dim', '--multidegree', '2,1', '--constraint', 'constant', '--sample', '5', '--format', 'json'),
     'b16404305d62c2779502252230e9f09646772d62dd102935b1471bcd84278e83'),
    (('hw-dim', '--multidegree', '3,1', '--constraint', 'primitive', '--sample', '5', '--format', 'json'),
     'b19359b607f6d08b8cbaacbc8c8e618b54a38673017272533d188b7434208a50'),
    (('hw-dim', '--multidegree', '3,1', '--constraint', 'constant', '--sample', '5', '--format', 'json'),
     'e2c8c6c3ba50dde91afcddc20e6b3fc2d62318cc93de75423ef98ff537cc2a6a'),
    (('hw-dim', '--multidegree', '2,2', '--constraint', 'primitive', '--sample', '5', '--format', 'json'),
     'cee27906dc13d2678b27161acc17ee2204a4080ca918861c9f2d3e1f3a6761ad'),
    (('hw-dim', '--multidegree', '2,2', '--constraint', 'constant', '--sample', '5', '--format', 'json'),
     'a7d03f12c9543cd1df362cd2d094865beb6139bbcab0765e30a1bd6ed5fa2dee'),
    (('trees', '5'),
     '27627427eca9703535ee51bbea4040bac1b21f457ebf6377e3929deaac4b9703'),
    (('trees', '6', '--binary'),
     '4615c46cc23d4b6bf17366584fa8f8c4cdba071669ddc74cea1f8f3de32637c9'),
    (('trees', '4', '--vars', '2', '--format', 'json'),
     '7aa9848be9f40ccb6302ee3a9cc94da5d02c49129d9490d5c330e3923e5a61a2'),
    (('trees', '5', '--binary', '--vars', '3'),
     '6e0d5e2081fca205f5e55339bbe87a259cdf5ea38cb7163ae8bb2c9c6688eaa5'),
    (('seq', 'log-super-catalan', '--count', '30'),
     'df13b52e02a8740a1d840c48c1ecba003386300c4a6fcc577077e955c5f735bc'),
    (('verify', 'all', '--format', 'json'),
     'f776d1ed0d5529252edd43d72288ac8044f96e33f31fc49890bedcf1b9e14ccd'),
]


def _without_seconds(o):
    if isinstance(o, dict):
        return {k: _without_seconds(v) for k, v in o.items() if k != "seconds"}
    if isinstance(o, list):
        return [_without_seconds(v) for v in o]
    return o


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_output_digest(argv, digest, capsys):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    if argv[:2] == ("verify", "all"):
        out = json.dumps(_without_seconds(json.loads(out)), sort_keys=True)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
