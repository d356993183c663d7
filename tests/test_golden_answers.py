"""Pinned answers: one SHA-256 per case of everything a caller can read.

A case is a seeded random matrix, or a congruence-scrambled sum of two
canonical blocks of one family in a characteristic where it exists.  Its
answer text holds, under the extend policy, the form JSON, the context, the
extension report, the invariant record and the witness X; under the strict
policy, the form JSON or the refusal's type and message.  Every third case
adds a transpose witness and the `equivalent` verdicts against a scrambled
copy and against A plus a unit corner entry.  A change that keeps behaviour
keeps every digest, and a failure names its case.  Every answer is also
checked by tests/refcheck.py, from its entries, with no ExactMatrix kernel:
each witness X against the input and the B it must reach, the form's
canonical matrix, A' or the other side of an equivalence.  After a
deliberate change of answers, regenerate the table with

    PYTHONPATH=src python tests/test_golden_answers.py

and paste its output over DIGESTS.
"""

import hashlib
import json
import random

import pytest

from matcanon import (Block, ExactMatrix, MatcanonError, NoRootStrictPolicy,
                      NotSplit, canonical_block_matrix, canonical_form_matrix,
                      canonicalize, equivalent, format_scalar, gf4,
                      inverse_or_rank, prime_field, rationals,
                      record_from_form, transpose_witness)
from matcanon.cli import form_to_json
from matcanon.field import EXTEND, STRICT

import refcheck

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
    """The answer text of one case; refcheck.check(X, A, B) checks every
    witness X against the input A and the matrix B it must reach."""
    lines = []
    try:
        form, wit = canonicalize(a, EXTEND)
        refcheck.check(wit.x, a, canonical_form_matrix(form))
        lines += ["extend form " + json.dumps(form_to_json(form),
                                              sort_keys=True),
                  "extend context %r" % (form.context,),
                  "extend report %r" % (form.extension_report,),
                  "extend record %r" % (record_from_form(form),),
                  "extend witness " + _rows(wit.x)]
    except MatcanonError as exc:
        lines.append("extend " + _refusal(exc))
    try:
        form, wit = canonicalize(a, STRICT)
        refcheck.check(wit.x, a, canonical_form_matrix(form))
        lines.append("strict form " + json.dumps(form_to_json(form),
                                                 sort_keys=True))
    except MatcanonError as exc:
        lines.append("strict " + _refusal(exc))
    if index % 3 == 1:
        try:
            x = transpose_witness(a).x
            refcheck.check(x, a, a.transpose())
            lines.append("transpose " + _rows(x))
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
                    refcheck.check(res.witness.x, a, b)
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
        '5214cd910d99426a8110877f136a9364b6307865b2ce228bb50c9715fcac0f02',
    'random-q-n2-s3':
        '2a11d8754c46eeebaa914da02bc25feca643fe561e2178ee42d4b39f078b961d',
    'random-q-n3-s1':
        '264940af10d8df17fdc8705b536540141f296a00fcb577b3e56e32273d959af7',
    'random-q-n3-s2':
        '77d492e69fc8b9619fd2564c9d6708e8ed639c6255fed09f6fb9b80b30ae4b8d',
    'random-q-n3-s3':
        'e81a985b51edcb94339df51e27500e332e9c1648c37494b044368ec419c20ade',
    'random-q-n4-s1':
        'baa5ba85a391e403db82bb3975fff79e32d92bb9261288e49011647bc52c1ab5',
    'random-q-n4-s2':
        'da1b9de2466c1c54da20e7ef8689e1dff4e36ec3ecb9675cc9b867c1846b9a76',
    'random-q-n4-s3':
        '043d594ccc17e1ca3b8a4d817a14f0d7f658d19971002c53590d80b6df69b1c0',
    'random-q-n5-s1':
        '9f3d32d6dd2ed828573ed828d8cff373a56c6d92de4aa8ab0b5075149840c8c8',
    'random-q-n5-s2':
        '86abb6ae5b28a2614d75adc1dd87ab3ffdde2f4e11ac1aeba9615453968215ae',
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
        '0641ea5c5891a10f06a8294776b51507fa42bdf641bc695d21ee90352336c588',
    'random-gf2-n3-s3':
        '26e4a97b097039753f1fc3556693709925275593d0c8aaa0d10d05a16de90fb9',
    'random-gf2-n4-s1':
        'b04737506e13d555ae27c12169cc6753fef3442c1c8c8bb8974a8d617b0b216e',
    'random-gf2-n4-s2':
        '05442b37ed3ad7678f94ab536f5980f4a4a9d3593099cc79d574243cc94a0732',
    'random-gf2-n4-s3':
        '2fc1e70a1e48f8edfd2c51273ea9c22b1a4ef6eebf70375ed48567bdc6ce72bc',
    'random-gf2-n5-s1':
        '2f8b9e4947abb98b3d54b55c9970cda2c43245b0ab2e68adfa7d44f32e4b48db',
    'random-gf2-n5-s2':
        'fd30d53952c3795c155803dd3d14b3aa5f42339e79e4ec01f02c148cbf61c608',
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
        '24b9e8d47d2f820e80062889b3250a390221c8be5e2e5138d6b321614c7f57bc',
    'random-gf3-n2-s3':
        '5fabcd892e6d49c0827cc1f449bfc2ae214cfa78b151072896df85db342caa92',
    'random-gf3-n3-s1':
        'c2b9201349a2b49b12a4c638737f0dbb15a5cd16e36db3e9fbf51657deeda564',
    'random-gf3-n3-s2':
        '694eb8979e624e8f839ae2930ccfab47c7edde995c31d7140100fc16136b66b8',
    'random-gf3-n3-s3':
        'e420a7e852b7a72ae5f56b90f5c8d81bd6904ea4cf26c80e9dfc522d4443411f',
    'random-gf3-n4-s1':
        'ed24d577355e235a6eb0161600269e808b59482616ee6f0c58377757962ca914',
    'random-gf3-n4-s2':
        'fee31baa0c271a4535c74715a663d10aec2585eca69945a8d35e5cd8b7272c26',
    'random-gf3-n4-s3':
        'a34c47657750baf24dafffe93dda8e1d49650adfa159284633942dde48738e65',
    'random-gf3-n5-s1':
        'f225f35b8ad336acbb202120751719ef804f7fe204c472d2cff46ca34c06c390',
    'random-gf3-n5-s2':
        'a90a09b797f443165597bb6a461589853787d2c0e256be58fd7afb91c64eb5f8',
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
        '939a9aedc54e54adee8db1e9dea7815394d534e9d9730ea1ee2acffec7d4a54e',
    'random-gf4-n2-s3':
        'af9d5bf14abe776ed8a748ecfb7b87d975c3892ee1587f3426d9fa66e6656695',
    'random-gf4-n3-s1':
        '51423c12dc5d73bf210449a4f5f4dc7ceca56e6b26873934d4d89315b868eea9',
    'random-gf4-n3-s2':
        '9832292ad31f1071fdc7016087a317447a1edd8fd9afb0569cf434792e069fe4',
    'random-gf4-n3-s3':
        'ea3dcca4aa48e2e18d419cfe9bc3a894ac1e460793100220a72fbcf5528be293',
    'random-gf4-n4-s1':
        '050d21f4d602622d8134d2ae19df409c59252e7da99f1686386efd553a5ef6f1',
    'random-gf4-n4-s2':
        'a23f60921cff3c5c15b3b2618db146b889a135485e15c854ee06a68490d47f8b',
    'random-gf4-n4-s3':
        'ff871276e83a5b65a3519c50f6801b6e8f8355bdd93f6f5476f7660978728ed8',
    'random-gf4-n5-s1':
        '3689fb270e8a159e919b08b8236f5f2acb21917465c0f136b70c41404fb16fa1',
    'random-gf4-n5-s2':
        'd44609257ebac6b85b9cd8a42d016a5b8fb8b7aec9b9502ddbc772651de03253',
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
        '8c52d1b78f1567a91a390e31cdb1325bd7834b4d3e5aa89e14fee36bc0d260f4',
    'random-gf13-n2-s3':
        '09fdb2aab8a245423c268853cef184bd3b2c71cd8188bc35bf641f407c2fd6f2',
    'random-gf13-n3-s1':
        '8d5543956a9ac3184735e04f6d0f12aaaae231197625b145b994077e78d7f5e9',
    'random-gf13-n3-s2':
        '12ab927ed418e3a80501b9c0d4d6d60ae210b30e4179b5603b9fa2835a3825cb',
    'random-gf13-n3-s3':
        'bc47e1114ad2592f6ad6da17a01bb98436f85638180a6b1b6d3949b464f2c507',
    'random-gf13-n4-s1':
        'b14f011bd6b1de169e0ba26d63e5d6c8b55a55d2d82143f425522c10a9c8ba09',
    'random-gf13-n4-s2':
        'f7819f2ab299d31490f31de67dfd6282e09674ee71a4938607c4af2b77fa5c2a',
    'random-gf13-n4-s3':
        'c4df8e5818465168afb7533e30009020efa816df11b07a024be46ca58cd948e4',
    'random-gf13-n5-s1':
        '793963591bd4e4d8c1b3a5c7a2ccb95b23d42a684f7d9ddcf84a09f8db5d94dc',
    'random-gf13-n5-s2':
        '3279745311adf3e590413e8a810fd2b8a859f9126b2111637b7cd89c7a5955d6',
    'random-gf13-n5-s3':
        '2ca7cb1c772f9b10f477d6e15abfa055ad1a959a53b5ac4052cfcf08bab14caa',
    'sum-A1+A3-gf3':
        '14355b9bfc71ce220c623d61e9ca5a94032621b0d68656a58f93ce5e756c880b',
    'sum-A1+A3-q':
        'bb4915d3fe86dfb3d8ff96186b5b190ae05d287edd0c7e7738a8649efefe2677',
    'sum-A3+A3-gf3':
        'c39c0961f76cbb1247e5ffb616598c7f7bd71741bf5de602910c9442dbf59b1c',
    'sum-A3+A3-q':
        'fb8c42f4e28ee92ba79c274aa18361238d66a30a9b847f6c20d41feb18e8a6f7',
    'sum-C2+C4-gf3':
        '0cc74e8a48e455af01ffed84fb3622d297bac2df30c7e7b127a295764aee36ab',
    'sum-C2+C4-q':
        '14a74aad1d5c6eefeea51d3b9d5b1314c8b72482b4f2c9c1a19cbf9aa42b55f1',
    'sum-C2+C2-gf3':
        'a27e6926c2e3f8daf053f89039f62e16a91abb7b4235a9da560776cce8b0e2a1',
    'sum-C2+C2-q':
        '605b0850c8986d44d6dacaa370a4d9f20844bc778b425b0fa41f1bf844129ab6',
    'sum-D4+D4-gf3':
        'c6d03c1b2f8fa3671a87c894a27dc37db55bb3fdd83a8b7243728e71cd665c79',
    'sum-D4+D4-q':
        'b906b278a881515771af57b9c191af7cfb726a4661b783ec0cb2f74c1a45baec',
    'sum-D4+D4-gf2':
        '1dd7dac8467ceb4aa03feb49093e7d644302e3286977a40aff90f128bee24f34',
    'sum-D4+D4-gf4':
        '8f2ad5a48a5c5b4588b7d7add1e0d6fa31f37d63c1ba083046a7147913b3895e',
    'sum-F2+F6-gf3':
        '88c97cf70fae8b4f4fd72a23351e29f21eab3d82ec2db6d27ffbc56cc62f26a4',
    'sum-F2+F6-q':
        '0bbb20d111f0272a0d45b9df4377c337249736afdb7e6ae78a3f1a54ca441fb0',
    'sum-F2+F2-gf3':
        'cbd24d8df85ef2e4ce10214fdc71e9266cd365eb79911f765d5443038399f009',
    'sum-F2+F2-q':
        '61cc5860538fded8556dab65bba84650e02e6501a2fd1fd48aaf2fa0f6b3440a',
    'sum-B1+B3-gf2':
        '53f9c7d6cbce1cdc6eb5ede5108d18000fa26af9b4c87d647059b8382c073fc2',
    'sum-B1+B3-gf4':
        '5e26fb4974974b718b8adc80f3eb1990025ba51536e566353a4f14e844a196ec',
    'sum-B3+B3-gf2':
        'e5ef1ba9d64e1181af1c1ceb45a1cdc1e5ea74cc968017c34b79df98297e4572',
    'sum-B3+B3-gf4':
        'b1cc95ca2242adee3d5bd41f10927bf76349b9a3fcfe1963deb153fb9fa7c6d1',
    'sum-E2+E6-gf2':
        '33ae7dfe9a636641b4c1c3d2a105721ce749e31266a9ced049ce3fb7819a9bac',
    'sum-E2+E6-gf4':
        'd520eb19ab6d9e329b0cc3bc4af17f80df2f7817aa2f2435f1685f317d2a0e27',
    'sum-E2+E2-gf2':
        'b95cf91f92f8e30e7ab8663bd26151eb415ede31b87b0d12c846ec2bd704c075',
    'sum-E2+E2-gf4':
        'acf3b19744766feba299c99903f96362a78c2c6d2a56632f7e8d006554699a44',
    'sum-G2(w)+G4(w+1)-gf4':
        '818e4d315c511dea16a96b1272db5dd67cb846a3762273780b57b18fdc4f9cd2',
    'sum-G2(w)+G2(w)-gf4':
        '2c4451b71e5da8f16f49579bb65fafbb28b3b0207db5d7b5e302bd3ff2036195',
}

CASES = cases()


@pytest.mark.parametrize("index", range(len(CASES)),
                         ids=[name for name, _a in CASES])
def test_golden_answer(index):
    name, a = CASES[index]
    assert digest(index, name, a) == DIGESTS[name], name


def test_strict_answer_does_not_depend_on_an_earlier_extend_call():
    """The strict call runs the extend computation, served by the same
    memo of Gamma-side reductions as the extend call before it, and is
    refused at the boundary: the answer lies over GF(3)(sqrt 2), and the
    refusal names sqrt(2), the first record beyond GF(3)."""
    a = dict(CASES)["sum-A3+A3-gf3"]
    form, _wit = canonicalize(a, EXTEND)
    assert form.extension_report == ["sqrt(2)"]
    with pytest.raises(NoRootStrictPolicy,
                       match=r"^no square root of 2 in GF\(3\)$"):
        canonicalize(a, STRICT)


def _form_json(a, policy):
    """The form JSON of a's answer under policy, or None for a refusal."""
    try:
        return form_to_json(canonicalize(a, policy)[0])
    except (NotSplit, NoRootStrictPolicy):
        return None


def test_strict_answers_exactly_when_extend_stays_in_the_input_field():
    """Strict is the extend computation refused at the boundary: it gives
    the extend form when that form's field is the input's, and refuses
    otherwise."""
    wrong = []
    for name, a in CASES:
        extend = _form_json(a, EXTEND)
        want = extend if extend is not None and not extend["extensions"] \
            else None
        if _form_json(a, STRICT) != want:
            wrong.append(name)
    assert wrong == []


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(name for name, _a in CASES)


if __name__ == "__main__":
    print("DIGESTS = {")
    for i, (name, a) in enumerate(CASES):
        print("    %r:\n        %r," % (name, digest(i, name, a)))
    print("}")
