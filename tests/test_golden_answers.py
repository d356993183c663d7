"""Pinned answers: one SHA-256 per case of everything a caller can read.

A case is a seeded random matrix, or a congruence-scrambled sum of two
canonical blocks of one family in a characteristic where it exists.  Its
answer text holds, under the extend policy, the form JSON, the context, the
extension report, the invariant record and the witness X; under the strict
policy, the form JSON or the refusal's type and message.  Every third case
adds a transpose witness and the `equivalent` verdicts against a scrambled
copy and against A plus a unit corner entry.  A change that keeps behaviour
keeps every digest, and a failure names its case.  After a deliberate change
of answers, regenerate the table with

    PYTHONPATH=src python tests/test_golden_answers.py

and paste its output over DIGESTS.
"""

import hashlib
import json
import random

import pytest

from matcanon import (Block, ExactMatrix, MatcanonError,
                      canonical_block_matrix, canonicalize, equivalent,
                      format_scalar, gf4, inverse_or_rank, prime_field,
                      rationals, record_from_form, transpose_witness)
from matcanon.cli import form_to_json
from matcanon.field import EXTEND, STRICT

FIELDS = {"q": rationals(), "gf2": prime_field(2), "gf3": prime_field(3),
          "gf4": gf4(), "gf13": prime_field(13)}

# (family sizes, fields): two blocks of one family, in each characteristic
# where the family exists
BLOCK_SUMS = [
    (("A1", "A3"), ("gf3", "q")), (("A3", "A3"), ("gf3", "q")),
    (("C2", "C4"), ("gf3", "q")), (("C2", "C2"), ("gf3", "q")),
    (("D4", "D4"), ("gf3", "q", "gf2", "gf4")),
    (("F2", "F6"), ("gf3", "q")), (("F2", "F2"), ("gf3", "q")),
    (("B1", "B3"), ("gf2", "gf4")), (("B3", "B3"), ("gf2", "gf4")),
    (("E2", "E6"), ("gf2", "gf4")), (("E2", "E2"), ("gf2", "gf4")),
    (("G2(w)", "G4(w+1)"), ("gf4",)), (("G2(w)", "G2(w)"), ("gf4",)),
]


def _entry(ctx, rng):
    if ctx.kind == "rational":
        return ctx.scalar(rng.randint(-3, 3))
    if ctx.kind == "gfp":
        return ctx.scalar(rng.randrange(ctx.p))
    return ctx.scalar((rng.randrange(2), rng.randrange(2)))


def _random_matrix(ctx, rng, n):
    return ExactMatrix(ctx, [[_entry(ctx, rng) for _ in range(n)]
                             for _ in range(n)])


def _random_invertible(ctx, rng, n):
    while True:
        y = _random_matrix(ctx, rng, n)
        if inverse_or_rank(y, rank_only=True).rank == n:
            return y


def _block(text, ctx):
    if text[0] == "G":
        n, lam = text[1:-1].split("(")
        return Block("G", int(n), ctx.scalar((1, 1) if lam == "w+1"
                                             else (0, 1)))
    return Block(text[0], int(text[1:]))


def cases():
    """(name, matrix) for every pinned case."""
    out = []
    for fname, ctx in FIELDS.items():
        for n in range(1, 6):
            for s in (1, 2, 3):
                name = "random-%s-n%d-s%d" % (fname, n, s)
                a = _random_matrix(ctx, random.Random(name), n)
                out.append((name, a))
    for blocks, fnames in BLOCK_SUMS:
        for fname in fnames:
            ctx = FIELDS[fname]
            name = "sum-%s-%s" % ("+".join(blocks), fname)
            a = ExactMatrix.block_diag(
                ctx, [canonical_block_matrix(_block(b, ctx), ctx)
                      for b in blocks])
            y = _random_invertible(ctx, random.Random(name), a.nrows)
            out.append((name, y.transpose() @ a @ y))
    return out


def _rows(mat):
    return json.dumps([[format_scalar(e) for e in row] for row in mat.rows])


def _refusal(exc):
    return "refusal %s: %s" % (type(exc).__name__, exc)


def answer_text(index, name, a):
    lines = []
    try:
        form, wit = canonicalize(a, EXTEND)
        lines += ["extend form " + json.dumps(form_to_json(form),
                                              sort_keys=True),
                  "extend context %r" % (form.context,),
                  "extend report %r" % (form.extension_report,),
                  "extend record %r" % (record_from_form(form),),
                  "extend witness " + _rows(wit.x)]
    except MatcanonError as exc:
        lines.append("extend " + _refusal(exc))
    try:
        form, _wit = canonicalize(a, STRICT)
        lines.append("strict form " + json.dumps(form_to_json(form),
                                                 sort_keys=True))
    except MatcanonError as exc:
        lines.append("strict " + _refusal(exc))
    if index % 3 == 1:
        try:
            lines.append("transpose " + _rows(transpose_witness(a).x))
        except MatcanonError as exc:
            lines.append("transpose " + _refusal(exc))
        y = _random_invertible(a.ctx, random.Random(name + "/scramble"),
                               a.nrows)
        n = a.nrows
        corner = ExactMatrix(a.ctx, [[int((i, j) == (0, n - 1))
                                      for j in range(n)] for i in range(n)])
        for b in (y.transpose() @ a @ y, a + corner):
            try:
                res = equivalent(a, b)
                lines.append("equivalent %r %r %r %r" % (
                    res.equivalent, res.extensions, res.context, res.records))
                if res.witness is not None:
                    lines.append("equivalent witness " + _rows(res.witness.x))
            except MatcanonError as exc:
                lines.append("equivalent " + _refusal(exc))
    return "\n".join(lines)


def digest(index, name, a):
    return hashlib.sha256(answer_text(index, name, a).encode()).hexdigest()


DIGESTS = {
    'random-q-n1-s1':
        'dbc979ece72b40f487fc2b3c47c8b973ae28eb984789f8bb52ab23480a578d34',
    'random-q-n1-s2':
        '96e649f38127f0f264f191dcbb58ecfffca4d88bd1f6156b0f31143f53df5699',
    'random-q-n1-s3':
        'f0e36a9dc782459c03c0d345cd93172d6ebbb02208bd828e6dff105466015dc7',
    'random-q-n2-s1':
        '1a9ad71dd374dd362da9b289f62543a95ad86a4b79cf5c6d5bd5654ed3cd6d81',
    'random-q-n2-s2':
        '11167c08f2d4f6350538673aa097684547469b795805590e3204371a45176a14',
    'random-q-n2-s3':
        '2a11d8754c46eeebaa914da02bc25feca643fe561e2178ee42d4b39f078b961d',
    'random-q-n3-s1':
        '264940af10d8df17fdc8705b536540141f296a00fcb577b3e56e32273d959af7',
    'random-q-n3-s2':
        '6aa5d827eb6a48441a0c80834c2632f47d285f7a35c6d3e3a57f2e57b8bd06df',
    'random-q-n3-s3':
        'e81a985b51edcb94339df51e27500e332e9c1648c37494b044368ec419c20ade',
    'random-q-n4-s1':
        'baa5ba85a391e403db82bb3975fff79e32d92bb9261288e49011647bc52c1ab5',
    'random-q-n4-s2':
        '90375a6f567a3e759f2523a10dd3b695594d38ce96a454f1f52c674fb01011f4',
    'random-q-n4-s3':
        '043d594ccc17e1ca3b8a4d817a14f0d7f658d19971002c53590d80b6df69b1c0',
    'random-q-n5-s1':
        '9f3d32d6dd2ed828573ed828d8cff373a56c6d92de4aa8ab0b5075149840c8c8',
    'random-q-n5-s2':
        '6db1c8b81a7ad199e271fb457831b6d3516456535af866881047b95ffc5a0eba',
    'random-q-n5-s3':
        'fd1bf6aff8e3d0efa57689b43afeeb48acfa546ac88a51aad81b8589aa00ad7d',
    'random-gf2-n1-s1':
        '1769f3453deebf65da096d6c87013a80b83325de4ec842d1f513a16f7d3c3122',
    'random-gf2-n1-s2':
        '994674ddb6306224554db12cd04ae812fcc7dadcb262e190dbd780516c069d82',
    'random-gf2-n1-s3':
        'fb9d4d2a3ff1e66bc5ce53aad971d6afc392a054958af6bd9792e613b284d5af',
    'random-gf2-n2-s1':
        '283bd1d6b6eab4c0df3f3f3e2f7ca80098e638624e5f91012cfdb52c1408b657',
    'random-gf2-n2-s2':
        '4a94bece477bdbdbd6fa05b8a35b10930738b2c59e86b49c81d341c0e9bb54dc',
    'random-gf2-n2-s3':
        '2eb9bab9041ec4bea8698a58f1d734ef71e39048ad6ed2d3b784de06e1abd6fe',
    'random-gf2-n3-s1':
        '965ce46525e12e0034610cb1da0aead1c56d8c0955634f93c78fcdca9ca92769',
    'random-gf2-n3-s2':
        'ced08969bf9f6838b618907c42501d31bb0406a54a4ce36b5380c3491acf7ea6',
    'random-gf2-n3-s3':
        '26e4a97b097039753f1fc3556693709925275593d0c8aaa0d10d05a16de90fb9',
    'random-gf2-n4-s1':
        'b04737506e13d555ae27c12169cc6753fef3442c1c8c8bb8974a8d617b0b216e',
    'random-gf2-n4-s2':
        'e8b4aec873326aeadbd6a864219e71f39e1eef82f0de817827283c4253d9a235',
    'random-gf2-n4-s3':
        '2fc1e70a1e48f8edfd2c51273ea9c22b1a4ef6eebf70375ed48567bdc6ce72bc',
    'random-gf2-n5-s1':
        '2f8b9e4947abb98b3d54b55c9970cda2c43245b0ab2e68adfa7d44f32e4b48db',
    'random-gf2-n5-s2':
        'ce227c7c06e1fdd69702756031b6c4da61780702680ded9217000e5d518bce49',
    'random-gf2-n5-s3':
        '67158658a78f171515cbf91e640990512cc092b3b2cbf2fb0624917a919b0018',
    'random-gf3-n1-s1':
        '8169a52786ad645470c3fcd435543f3bde864ac66e4ef66ddd99275a08165a9d',
    'random-gf3-n1-s2':
        '0e55c35fd2595911250502e43c2f43003b6ef3ea7c6a5dbb18f6de628f2af56d',
    'random-gf3-n1-s3':
        '8169a52786ad645470c3fcd435543f3bde864ac66e4ef66ddd99275a08165a9d',
    'random-gf3-n2-s1':
        '4e95355a700f3e6b84759523e43353d7fd7d7bd4d59adee2cfe979226355ea28',
    'random-gf3-n2-s2':
        'db52b31181605a6a0385a9225f7281853b247d410b23a80609ff3281693a851d',
    'random-gf3-n2-s3':
        '5fabcd892e6d49c0827cc1f449bfc2ae214cfa78b151072896df85db342caa92',
    'random-gf3-n3-s1':
        '857e0e22a2058bafe55ed30676cd5fec71716efbabfa392c91acd6a5c557a5a6',
    'random-gf3-n3-s2':
        '10d8d707391b52d9bd330e37a9ec0f4e9fbf476cd42797e9d3ede5c1ee0141a1',
    'random-gf3-n3-s3':
        'e420a7e852b7a72ae5f56b90f5c8d81bd6904ea4cf26c80e9dfc522d4443411f',
    'random-gf3-n4-s1':
        'ed24d577355e235a6eb0161600269e808b59482616ee6f0c58377757962ca914',
    'random-gf3-n4-s2':
        '6900b3c5a8bbc35bf2172fcf0bc1f6c57b8c3175008cced347b4eb177cb3320a',
    'random-gf3-n4-s3':
        'a34c47657750baf24dafffe93dda8e1d49650adfa159284633942dde48738e65',
    'random-gf3-n5-s1':
        'f225f35b8ad336acbb202120751719ef804f7fe204c472d2cff46ca34c06c390',
    'random-gf3-n5-s2':
        '7054a0b82e37e6c3e1cbbc99770a6451cbcc1bdf157fa770a3e87e5846ca568c',
    'random-gf3-n5-s3':
        '7b3de7b121b7852786c3b57bddab2f6a941bf19beb2f74534ded9c6cbbb6e200',
    'random-gf4-n1-s1':
        '6f0cda73cfedac4ecdb3bb28adda22bfb4462134c2712d32a7c51840f31ea28f',
    'random-gf4-n1-s2':
        '4363e6e2c2f0a7735691b9e2cb3588660305ee75ac82ba432b55286c1c9743bd',
    'random-gf4-n1-s3':
        '6f0cda73cfedac4ecdb3bb28adda22bfb4462134c2712d32a7c51840f31ea28f',
    'random-gf4-n2-s1':
        '0c6199370dfbfb492de94ecdce79f3f2a2770c518fbd22c32c899a55b41bc7ef',
    'random-gf4-n2-s2':
        '291027df98d3ed62f46ffd1491f1749e1c2222195421294f407d500c64f11f81',
    'random-gf4-n2-s3':
        'af9d5bf14abe776ed8a748ecfb7b87d975c3892ee1587f3426d9fa66e6656695',
    'random-gf4-n3-s1':
        '51423c12dc5d73bf210449a4f5f4dc7ceca56e6b26873934d4d89315b868eea9',
    'random-gf4-n3-s2':
        '067562166e920c5eb22dcca2918a636b2041f78a20a1ebe22d9fb1d662ce17b5',
    'random-gf4-n3-s3':
        'ea3dcca4aa48e2e18d419cfe9bc3a894ac1e460793100220a72fbcf5528be293',
    'random-gf4-n4-s1':
        '050d21f4d602622d8134d2ae19df409c59252e7da99f1686386efd553a5ef6f1',
    'random-gf4-n4-s2':
        '0ad88473c62ecce43b45f35db70ffd1d14a10c99d07705360c973bc176587633',
    'random-gf4-n4-s3':
        'ff871276e83a5b65a3519c50f6801b6e8f8355bdd93f6f5476f7660978728ed8',
    'random-gf4-n5-s1':
        '3689fb270e8a159e919b08b8236f5f2acb21917465c0f136b70c41404fb16fa1',
    'random-gf4-n5-s2':
        '73e4f606653c1f7052f5cbb8eb1a0087a400f0ab8d431533c250619c4c043e45',
    'random-gf4-n5-s3':
        'bc9d953514172d2301ff50bb8cd7eba3e01808124a000ed4fd940137dc2440b8',
    'random-gf13-n1-s1':
        'adbcce5f2b2591b32a69c93da4e2a1330767d0c82aafde7daeeaf35bd9651f1b',
    'random-gf13-n1-s2':
        'bceee624742f68aedb145898e775c357c2e8b862718b657feace5ce5fd8e977e',
    'random-gf13-n1-s3':
        '801d1d8b7b1a07e86362b771d0545842972181c92d7f6ecf5df12de97b3a0ae0',
    'random-gf13-n2-s1':
        '842c884bb08882b0dde45ab92c0589aaab6605aae15e7a6a2120d1d97a160e72',
    'random-gf13-n2-s2':
        '7de7bddb6fb31f19d9dabb1e70f0ef35e8db36f032219aace8e85eb8835f07d8',
    'random-gf13-n2-s3':
        '09fdb2aab8a245423c268853cef184bd3b2c71cd8188bc35bf641f407c2fd6f2',
    'random-gf13-n3-s1':
        '8d5543956a9ac3184735e04f6d0f12aaaae231197625b145b994077e78d7f5e9',
    'random-gf13-n3-s2':
        '1c769b8dfbae1021a3811e27d287754f1c4af485254f14ebd58757216eae94e2',
    'random-gf13-n3-s3':
        'bc47e1114ad2592f6ad6da17a01bb98436f85638180a6b1b6d3949b464f2c507',
    'random-gf13-n4-s1':
        'b14f011bd6b1de169e0ba26d63e5d6c8b55a55d2d82143f425522c10a9c8ba09',
    'random-gf13-n4-s2':
        '9842a193f7f0bb0a2515e65fcb9189cc9771fce36cc6501ed1f3c9a3ac1aaac2',
    'random-gf13-n4-s3':
        'c4df8e5818465168afb7533e30009020efa816df11b07a024be46ca58cd948e4',
    'random-gf13-n5-s1':
        '793963591bd4e4d8c1b3a5c7a2ccb95b23d42a684f7d9ddcf84a09f8db5d94dc',
    'random-gf13-n5-s2':
        'b4a2030ddaadbef0a399d4034c9a4f6dc9219df8d362222dc3ab038b472966ba',
    'random-gf13-n5-s3':
        '2ca7cb1c772f9b10f477d6e15abfa055ad1a959a53b5ac4052cfcf08bab14caa',
    'sum-A1+A3-gf3':
        '453712c6b58d1dd915384febaad892ff6f980b48ad7ca84aea09230a8aee9e37',
    'sum-A1+A3-q':
        'a549b9c77834308ced3bf3d5932f314c8a36b749360147067fb1c2e59012345a',
    'sum-A3+A3-gf3':
        '32f13323771f61b2fcb709f66a7eed63309b0644ac04b681be6407b292e025fb',
    'sum-A3+A3-q':
        '0526f9545d7f24a51d746677735ce19356feb0c3033e64f7ffd9a90b4ad5a9bb',
    'sum-C2+C4-gf3':
        '4680d6fba21657a6ac7a6eb8cb89f4dd2b612c8c749f3a7b5d0728576fb75a57',
    'sum-C2+C4-q':
        '93c27d11035f2df09752b9251e515451a138b109b716629f3b44ae6fea82896b',
    'sum-C2+C2-gf3':
        'a27e6926c2e3f8daf053f89039f62e16a91abb7b4235a9da560776cce8b0e2a1',
    'sum-C2+C2-q':
        '8301a95e817222f3832ab0e990f860f54c573696a246bb18a56be369df625432',
    'sum-D4+D4-gf3':
        'c6d03c1b2f8fa3671a87c894a27dc37db55bb3fdd83a8b7243728e71cd665c79',
    'sum-D4+D4-q':
        'b906b278a881515771af57b9c191af7cfb726a4661b783ec0cb2f74c1a45baec',
    'sum-D4+D4-gf2':
        '8794e52ce38aa0b76e97d116609b8bd0ba00c0bb2bdc691623fcce1c774e3ba8',
    'sum-D4+D4-gf4':
        '8f2ad5a48a5c5b4588b7d7add1e0d6fa31f37d63c1ba083046a7147913b3895e',
    'sum-F2+F6-gf3':
        '88c97cf70fae8b4f4fd72a23351e29f21eab3d82ec2db6d27ffbc56cc62f26a4',
    'sum-F2+F6-q':
        '7dc41b11912f6d3eed076a6013c4f043809171c4b4f081a2c246535c79d50d33',
    'sum-F2+F2-gf3':
        'cbd24d8df85ef2e4ce10214fdc71e9266cd365eb79911f765d5443038399f009',
    'sum-F2+F2-q':
        '61cc5860538fded8556dab65bba84650e02e6501a2fd1fd48aaf2fa0f6b3440a',
    'sum-B1+B3-gf2':
        '451ade7c59c8d3d0b9b13bb5303be75e8c2c8c14f36d9482ab7f0f54d8a893e6',
    'sum-B1+B3-gf4':
        '5e26fb4974974b718b8adc80f3eb1990025ba51536e566353a4f14e844a196ec',
    'sum-B3+B3-gf2':
        'e5ef1ba9d64e1181af1c1ceb45a1cdc1e5ea74cc968017c34b79df98297e4572',
    'sum-B3+B3-gf4':
        '213b3e1be7267929584faeb1d635a50a8735a303eac8e90a5198a64e5b6ed71b',
    'sum-E2+E6-gf2':
        '33ae7dfe9a636641b4c1c3d2a105721ce749e31266a9ced049ce3fb7819a9bac',
    'sum-E2+E6-gf4':
        'd520eb19ab6d9e329b0cc3bc4af17f80df2f7817aa2f2435f1685f317d2a0e27',
    'sum-E2+E2-gf2':
        'ccd73b10ef389438ecea27dcc5b33fac0f96802612909a32160a3522ad093285',
    'sum-E2+E2-gf4':
        'acf3b19744766feba299c99903f96362a78c2c6d2a56632f7e8d006554699a44',
    'sum-G2(w)+G4(w+1)-gf4':
        '818e4d315c511dea16a96b1272db5dd67cb846a3762273780b57b18fdc4f9cd2',
    'sum-G2(w)+G2(w)-gf4':
        '8cd5e9c6f359497df3e1897402c4ba362f63b37c12264dbb0a74587e127e38cd',
}

CASES = cases()


@pytest.mark.parametrize("index", range(len(CASES)),
                         ids=[name for name, _a in CASES])
def test_golden_answer(index):
    name, a = CASES[index]
    assert digest(index, name, a) == DIGESTS[name], name


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(name for name, _a in CASES)


if __name__ == "__main__":
    print("DIGESTS = {")
    for i, (name, a) in enumerate(CASES):
        print("    %r:\n        %r," % (name, digest(i, name, a)))
    print("}")
