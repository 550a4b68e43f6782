"""Golden digests: pin the exact output of every stage1 x stage2 x group run.

Each value was recorded at the parent of the refactor that added it, before
that refactor changed ``src/``.  Any change to the RNG draw order, the
coverage scan order, the stage-2 strategies or the bound formulas changes a
digest.  Run ``pytest tests/test_golden.py`` after every refactor; it must
pass unedited.

``PYTHONPATH=src python tests/test_golden.py`` prints the ``RUNS``,
``CLEANUP_RUNS``, ``GRAPH_RUNS``, ``BOUND_REPORTS`` and ``FIELD_DIGEST``
literals computed by the current ``src/``.  To pin a new
shape, add it to ``SHAPES`` and paste the output recorded before the
refactor.
"""

import hashlib
import itertools

import numpy as np
import pytest

from caforge import (BoundReport, GroupKind, Parameters, RunSpec, bound_report,
                     build_incompat_graph, color_cover, first_stage_n,
                     rand_first_stage, run)
from caforge.groups import field_for, prime_power, symbol_maps
from caforge.pipeline import STAGE1_KINDS, STAGE2_KINDS, group_rho
from caforge.stage2 import smallest_last_order


def array_digest(array) -> str:
    a = np.ascontiguousarray(array, dtype=np.int64)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def report_digest(rep: BoundReport) -> str:
    fields = [getattr(rep, f) for f in BoundReport.__dataclass_fields__]
    return hashlib.sha256(repr(fields).encode()).hexdigest()


SHAPES = [(2, 6, 3), (3, 7, 3), (3, 8, 4), (3, 8, 5)]
RUN_KEYS = [(*shape, s1, s2, g.value) for shape, s1, s2, g in itertools.product(
    SHAPES, STAGE1_KINDS, STAGE2_KINDS, GroupKind)]

# The benchmark's cleanup shape: at r = 30*rho, 1,829 (trivial), 395 (cyclic)
# and 102 (Frobenius) items reach stage 2, where the shapes above leave at
# most ~120.
CLEANUP_R = 30.0
CLEANUP_KEYS = [(3, 12, 4, "rand", s2, g.value)
                for s2, g in itertools.product(STAGE2_KINDS, GroupKind)]


# The col strategy's inner steps, which the pipeline digests never see:
# (t, k, v, group, r_multiplier), each a rand stage 1 at seed 1.
GRAPH_KEYS = [(3, 12, 4, "trivial", CLEANUP_R), (3, 12, 4, "cyclic", CLEANUP_R),
              *((3, 8, 5, g.value, 1.0) for g in GroupKind)]


def field_digest(v_max=128) -> str:
    """One digest over the GF(v) add and mul tables and every group's symbol
    maps, for every prime power v <= v_max.  The golden runs reach no field
    above v=5, and none of the fields whose modulus is searched for."""
    h = hashlib.sha256()
    for v in filter(prime_power, range(2, v_max + 1)):
        add, mul = field_for(v)
        for table in (add, mul, *(symbol_maps(g, v) for g in GroupKind)):
            h.update(array_digest(table).encode())
    return h.hexdigest()


def run_values(key, r_multiplier=1.0):
    t, k, v, s1, s2, group = key
    spec = RunSpec(p=Parameters(t, k, v), stage1=s1, stage2=s2,
                   r_multiplier=r_multiplier, group=GroupKind(group), seed=1,
                   verify=True)
    array, rep = run(spec)
    assert rep.verified is True
    return (array_digest(array),
            (rep.n_stage1, rep.uncovered_after_stage1, rep.rows_stage2,
             rep.N_final, rep.retries),
            rep.bound_predicted)


def graph_values(key):
    """The incompatibility graph of a run's stage-1 leftovers, its
    smallest-last order and its colour rows."""
    t, k, v, group, r_multiplier = key
    p, group = Parameters(t, k, v), GroupKind(group)
    r = r_multiplier * group_rho(p, group)
    _, report, _ = rand_first_stage(p, group, first_stage_n(p, group, r), r, seed=1)
    g = build_incompat_graph(report.uncovered, p, group)
    order, degeneracy = smallest_last_order(g)
    rng = np.random.default_rng(np.random.SeedSequence([1, 1 << 32]))
    rows, n_colors, color_degeneracy = color_cover(g, p, group, rng)
    edges = np.argwhere(np.triu(g.adjacency))  # (i, j) with i < j, sorted
    return ((array_digest(g.rows), array_digest(edges), int(g.m_edges)),
            (array_digest(order), int(degeneracy)),
            (array_digest(rows), int(n_colors), int(color_degeneracy)))


# (t, k, v, stage1, stage2, group) -> (developed-array digest,
#   (n_stage1, uncovered_after_stage1, rows_stage2, N_final, retries),
#   bound_predicted); every run uses seed 1 with verify on.
RUNS = {
    (2, 6, 3, 'rand', 'naive', 'trivial'): (
        'c609bedcc1d370e9da07bffd6b64959d15cc5b2d1e6894682df8f5697988cbdb',
        (24, 8, 8, 32, 3), 31.97713261172124),
    (2, 6, 3, 'rand', 'naive', 'cyclic'): (
        '777004113ea4ee637720b7c75221e42ba59980e3a3dc18c8a6fd04892b7c8fd4',
        (8, 1, 1, 27, 2), 28.884917266501265),
    (2, 6, 3, 'rand', 'naive', 'frobenius'): (
        '01e93aa5bc2dff0606f75f842ae9e921c77d44255b14194fd5f13cb79ae3c9e7',
        (3, 0, 0, 21, 1), 23.764912615323137),
    (2, 6, 3, 'rand', 'greedy', 'trivial'): (
        '51bc891a6ec641274ffebe678dfb1bc53bbfc86d2602b38fa2a304a4687f844a',
        (24, 8, 3, 27, 3), 31.97713261172124),
    (2, 6, 3, 'rand', 'greedy', 'cyclic'): (
        '777004113ea4ee637720b7c75221e42ba59980e3a3dc18c8a6fd04892b7c8fd4',
        (8, 1, 1, 27, 2), 28.884917266501265),
    (2, 6, 3, 'rand', 'greedy', 'frobenius'): (
        '01e93aa5bc2dff0606f75f842ae9e921c77d44255b14194fd5f13cb79ae3c9e7',
        (3, 0, 0, 21, 1), 23.764912615323137),
    (2, 6, 3, 'rand', 'col', 'trivial'): (
        '50f70802885a8dd7fdfe4eebc02b3ed3a03fa7cbe72e2cf07b889720cb64dcc2',
        (24, 8, 2, 26, 3), 31.97713261172124),
    (2, 6, 3, 'rand', 'col', 'cyclic'): (
        '777004113ea4ee637720b7c75221e42ba59980e3a3dc18c8a6fd04892b7c8fd4',
        (8, 1, 1, 27, 2), 28.884917266501265),
    (2, 6, 3, 'rand', 'col', 'frobenius'): (
        '01e93aa5bc2dff0606f75f842ae9e921c77d44255b14194fd5f13cb79ae3c9e7',
        (3, 0, 0, 21, 1), 23.764912615323137),
    (2, 6, 3, 'rand', 'den', 'trivial'): (
        'f3f535b464b91599b984cb4cf3cf444e417009ef0ab4dc21a65286f80cb28f7a',
        (24, 8, 2, 26, 3), 31.97713261172124),
    (2, 6, 3, 'rand', 'den', 'cyclic'): (
        '29849c58132280f5432892d8086b4663916f6c8ef9f6177e7a345c8b47a50a91',
        (8, 1, 1, 27, 2), 28.884917266501265),
    (2, 6, 3, 'rand', 'den', 'frobenius'): (
        '01e93aa5bc2dff0606f75f842ae9e921c77d44255b14194fd5f13cb79ae3c9e7',
        (3, 0, 0, 21, 1), 23.764912615323137),
    (2, 6, 3, 'mt', 'naive', 'trivial'): (
        '8baf477f89fc197f76652424e3a567f1d94a71fce94bc33694b7bc537e17c689',
        (31, 3, 3, 34, 0), 31.97713261172124),
    (2, 6, 3, 'mt', 'naive', 'cyclic'): (
        '7e9892d3a524e48fa9d24be826509ae03cf446a550c3c7ccaefdd34875449459',
        (11, 0, 0, 33, 0), 28.884917266501265),
    (2, 6, 3, 'mt', 'naive', 'frobenius'): (
        '01e93aa5bc2dff0606f75f842ae9e921c77d44255b14194fd5f13cb79ae3c9e7',
        (3, 0, 0, 21, 0), 23.764912615323137),
    (2, 6, 3, 'mt', 'greedy', 'trivial'): (
        '0a1aaf7e1d95ff92e54cb1a9c8c5def4bcdeaff064a454d550d7d3640f499fae',
        (31, 3, 1, 32, 0), 31.97713261172124),
    (2, 6, 3, 'mt', 'greedy', 'cyclic'): (
        '7e9892d3a524e48fa9d24be826509ae03cf446a550c3c7ccaefdd34875449459',
        (11, 0, 0, 33, 0), 28.884917266501265),
    (2, 6, 3, 'mt', 'greedy', 'frobenius'): (
        '01e93aa5bc2dff0606f75f842ae9e921c77d44255b14194fd5f13cb79ae3c9e7',
        (3, 0, 0, 21, 0), 23.764912615323137),
    (2, 6, 3, 'mt', 'col', 'trivial'): (
        '0a1aaf7e1d95ff92e54cb1a9c8c5def4bcdeaff064a454d550d7d3640f499fae',
        (31, 3, 1, 32, 0), 31.97713261172124),
    (2, 6, 3, 'mt', 'col', 'cyclic'): (
        '7e9892d3a524e48fa9d24be826509ae03cf446a550c3c7ccaefdd34875449459',
        (11, 0, 0, 33, 0), 28.884917266501265),
    (2, 6, 3, 'mt', 'col', 'frobenius'): (
        '01e93aa5bc2dff0606f75f842ae9e921c77d44255b14194fd5f13cb79ae3c9e7',
        (3, 0, 0, 21, 0), 23.764912615323137),
    (2, 6, 3, 'mt', 'den', 'trivial'): (
        'fe7de6ef61ff17e878b49925ba99fd1cce3ba47110bfe21fef7d41c6618579fe',
        (31, 3, 1, 32, 0), 31.97713261172124),
    (2, 6, 3, 'mt', 'den', 'cyclic'): (
        '7e9892d3a524e48fa9d24be826509ae03cf446a550c3c7ccaefdd34875449459',
        (11, 0, 0, 33, 0), 28.884917266501265),
    (2, 6, 3, 'mt', 'den', 'frobenius'): (
        '01e93aa5bc2dff0606f75f842ae9e921c77d44255b14194fd5f13cb79ae3c9e7',
        (3, 0, 0, 21, 0), 23.764912615323137),
    (3, 7, 3, 'rand', 'naive', 'trivial'): (
        'd4af7c64844c1753c51a9009be5f74c821e81f405df947a51f9d801209fc2e54',
        (95, 26, 26, 121, 1), 121.20082478039626),
    (3, 7, 3, 'rand', 'naive', 'cyclic'): (
        'c0e8983d91b9ff860bb5f94ea4a9a49747ff672e0d803d5accece19a88e76e66',
        (31, 8, 8, 117, 2), 117.51254971324276),
    (3, 7, 3, 'rand', 'naive', 'frobenius'): (
        '4ed4c39964ec660bcc3eaaa8ae306685a1b755bf865f0e5350564d576ed9cc5f',
        (15, 3, 3, 111, 3), 111.88173907784176),
    (3, 7, 3, 'rand', 'greedy', 'trivial'): (
        'c0d88a2929acb26977e949810706883ea25dbbd9dbdb31ff07c2a6c184cfc5e6',
        (95, 26, 8, 103, 1), 121.20082478039626),
    (3, 7, 3, 'rand', 'greedy', 'cyclic'): (
        'a8ee5695602204eee803f91ee8f51c1c75574b614547f6abc9a9325437d00f1a',
        (31, 8, 2, 99, 2), 117.51254971324276),
    (3, 7, 3, 'rand', 'greedy', 'frobenius'): (
        '4f20f5ebd73f731d2f28ab6b517ed6875068112596c3e797be24b7de0755ee64',
        (15, 3, 2, 105, 3), 111.88173907784176),
    (3, 7, 3, 'rand', 'col', 'trivial'): (
        '730e3e35768bc0ce4c7398059eb56ea8a9280f56ba95198518fdb7406ed22466',
        (95, 26, 8, 103, 1), 121.20082478039626),
    (3, 7, 3, 'rand', 'col', 'cyclic'): (
        '0e9d3fdb533b6c38941f65feacfa22d5f880841b9dedb81e713d9c44a2e2b2a5',
        (31, 8, 2, 99, 2), 117.51254971324276),
    (3, 7, 3, 'rand', 'col', 'frobenius'): (
        'f670251b81a38ce6dafcf495074f33273265741e4c90bde727631bfb85c57f9b',
        (15, 3, 2, 105, 3), 111.88173907784176),
    (3, 7, 3, 'rand', 'den', 'trivial'): (
        '3ee0115bdb60e4f3ef9eb01f688fe2499aa50f74b63920ddb314bb815826314d',
        (95, 26, 9, 104, 1), 121.20082478039626),
    (3, 7, 3, 'rand', 'den', 'cyclic'): (
        'fed8e81e831427c6a7d38637b51e7b33b36a5939455cb52482982c544c195377',
        (31, 8, 2, 99, 2), 117.51254971324276),
    (3, 7, 3, 'rand', 'den', 'frobenius'): (
        'abdda7ce28fc7bc398b9a3b55ece424b6217c0957488e2ed8a4ac0b8c43d09b5',
        (15, 3, 2, 105, 3), 111.88173907784176),
    (3, 7, 3, 'mt', 'naive', 'trivial'): (
        'a493a7774db2acc5ef7fa70a10ac6ab20816bc6c5cc95c571d7a36831589d865',
        (120, 6, 6, 126, 0), 121.20082478039626),
    (3, 7, 3, 'mt', 'naive', 'cyclic'): (
        '1b4ae516d436c58f012bc3fd26e763ddbb757af79c0f8aaeb12ea8e5226a7ef0',
        (57, 0, 0, 171, 0), 117.51254971324276),
    (3, 7, 3, 'mt', 'naive', 'frobenius'): (
        'aa61794515fdaebe8fbf2d306ab9e5b4fdaaf4f515a52a30b202b03a39b5db4c',
        (24, 0, 0, 147, 0), 111.88173907784176),
    (3, 7, 3, 'mt', 'greedy', 'trivial'): (
        '930056b1dcd4e725c94388adb1e7eae0abdb78e13276397956542f43b08d56dc',
        (120, 6, 4, 124, 0), 121.20082478039626),
    (3, 7, 3, 'mt', 'greedy', 'cyclic'): (
        '1b4ae516d436c58f012bc3fd26e763ddbb757af79c0f8aaeb12ea8e5226a7ef0',
        (57, 0, 0, 171, 0), 117.51254971324276),
    (3, 7, 3, 'mt', 'greedy', 'frobenius'): (
        'aa61794515fdaebe8fbf2d306ab9e5b4fdaaf4f515a52a30b202b03a39b5db4c',
        (24, 0, 0, 147, 0), 111.88173907784176),
    (3, 7, 3, 'mt', 'col', 'trivial'): (
        '5df458e912f9d0152548904496686a9bafaed9ea074906c64a07314734f340e1',
        (120, 6, 4, 124, 0), 121.20082478039626),
    (3, 7, 3, 'mt', 'col', 'cyclic'): (
        '1b4ae516d436c58f012bc3fd26e763ddbb757af79c0f8aaeb12ea8e5226a7ef0',
        (57, 0, 0, 171, 0), 117.51254971324276),
    (3, 7, 3, 'mt', 'col', 'frobenius'): (
        'aa61794515fdaebe8fbf2d306ab9e5b4fdaaf4f515a52a30b202b03a39b5db4c',
        (24, 0, 0, 147, 0), 111.88173907784176),
    (3, 7, 3, 'mt', 'den', 'trivial'): (
        'e98f08599d6b934b5e536a8633da60ca05a6423d451ab72fb1e024a94fc2018b',
        (120, 6, 4, 124, 0), 121.20082478039626),
    (3, 7, 3, 'mt', 'den', 'cyclic'): (
        '1b4ae516d436c58f012bc3fd26e763ddbb757af79c0f8aaeb12ea8e5226a7ef0',
        (57, 0, 0, 171, 0), 117.51254971324276),
    (3, 7, 3, 'mt', 'den', 'frobenius'): (
        'aa61794515fdaebe8fbf2d306ab9e5b4fdaaf4f515a52a30b202b03a39b5db4c',
        (24, 0, 0, 147, 0), 111.88173907784176),
    (3, 8, 4, 'rand', 'naive', 'trivial'): (
        '81e685d15c39c7221b2f4e20ab2991dc0cfc02e487f072d3d954bd936569798d',
        (257, 50, 50, 307, 5), 319.60258112273215),
    (3, 8, 4, 'rand', 'naive', 'cyclic'): (
        '7822f684b989e4895e7bf2c9ac79fce01cdb9fa46e54fd273b8bc4e1104f0ca1',
        (63, 15, 15, 312, 2), 313.4529466942109),
    (3, 8, 4, 'rand', 'naive', 'frobenius'): (
        '4a3f1d8edc548079d717fa4738f80981a7e6be69dd8ea6d2008da16ab83ca8bb',
        (20, 3, 3, 280, 1), 296.59406074389955),
    (3, 8, 4, 'rand', 'greedy', 'trivial'): (
        '17e694961e80741904c8bac2296aaf80fd9dfb2f82d5768ea618117e2d38601b',
        (257, 50, 16, 273, 5), 319.60258112273215),
    (3, 8, 4, 'rand', 'greedy', 'cyclic'): (
        '980b35207b2080331871b296d0801a7eef11eafa44dede062bbe5502308d952a',
        (63, 15, 5, 272, 2), 313.4529466942109),
    (3, 8, 4, 'rand', 'greedy', 'frobenius'): (
        '72bffad71596e4a256a3bbef83cbe69842276d259bc74dcd4f10bd42944b428c',
        (20, 3, 1, 256, 1), 296.59406074389955),
    (3, 8, 4, 'rand', 'col', 'trivial'): (
        '2a1d6619607240fae76e5838e12ee352efcfed9ecbaefdd1b87cf60a6ec256c0',
        (257, 50, 12, 269, 5), 319.60258112273215),
    (3, 8, 4, 'rand', 'col', 'cyclic'): (
        '4e3a37184e31ee6dfb9ffc9bb9d06c94ddc38c7986e64d2fd4ba87c2666bf257',
        (63, 15, 4, 268, 2), 313.4529466942109),
    (3, 8, 4, 'rand', 'col', 'frobenius'): (
        '72bffad71596e4a256a3bbef83cbe69842276d259bc74dcd4f10bd42944b428c',
        (20, 3, 1, 256, 1), 296.59406074389955),
    (3, 8, 4, 'rand', 'den', 'trivial'): (
        'fc31e3ede20367fd3873baad1cde99143fa6f96e4747052e9504d0d440868fb3',
        (257, 50, 15, 272, 5), 319.60258112273215),
    (3, 8, 4, 'rand', 'den', 'cyclic'): (
        'cd0f3df53e68c4ce76a28e88f107a8ac2bc137eab6ab6dfd579a1ca0ae88995a',
        (63, 15, 4, 268, 2), 313.4529466942109),
    (3, 8, 4, 'rand', 'den', 'frobenius'): (
        '1447583d661407ab33736803d21e92c6168a1a108f03f441c461bc5b30ab8b5d',
        (20, 3, 3, 280, 1), 296.59406074389955),
    (3, 8, 4, 'mt', 'naive', 'trivial'): (
        '6aeb0ed8515c2053bc881b45a48e20a5490f28eaa8b922d61be730e8eb1f3b6b',
        (319, 20, 20, 339, 0), 319.60258112273215),
    (3, 8, 4, 'mt', 'naive', 'cyclic'): (
        'ca19cbe4027cb55cbbbf0d28ceb6a38edad6894d6e9175a258fc4861fd19e6b3',
        (118, 0, 0, 472, 0), 313.4529466942109),
    (3, 8, 4, 'mt', 'naive', 'frobenius'): (
        'f31139672397b159464647f5c89db9ad2a3f875a619d389b80af45cd15bd3ddf',
        (32, 0, 0, 388, 0), 296.59406074389955),
    (3, 8, 4, 'mt', 'greedy', 'trivial'): (
        '135b4736049dcaf4fcc6fe59edaea6d7778838f7f47f1960780cdf2bd0dabf8f',
        (319, 20, 7, 326, 0), 319.60258112273215),
    (3, 8, 4, 'mt', 'greedy', 'cyclic'): (
        'ca19cbe4027cb55cbbbf0d28ceb6a38edad6894d6e9175a258fc4861fd19e6b3',
        (118, 0, 0, 472, 0), 313.4529466942109),
    (3, 8, 4, 'mt', 'greedy', 'frobenius'): (
        'f31139672397b159464647f5c89db9ad2a3f875a619d389b80af45cd15bd3ddf',
        (32, 0, 0, 388, 0), 296.59406074389955),
    (3, 8, 4, 'mt', 'col', 'trivial'): (
        'adce32978f825bf86e4100edd708585b7100315caac57a865a4385a49d043676',
        (319, 20, 7, 326, 0), 319.60258112273215),
    (3, 8, 4, 'mt', 'col', 'cyclic'): (
        'ca19cbe4027cb55cbbbf0d28ceb6a38edad6894d6e9175a258fc4861fd19e6b3',
        (118, 0, 0, 472, 0), 313.4529466942109),
    (3, 8, 4, 'mt', 'col', 'frobenius'): (
        'f31139672397b159464647f5c89db9ad2a3f875a619d389b80af45cd15bd3ddf',
        (32, 0, 0, 388, 0), 296.59406074389955),
    (3, 8, 4, 'mt', 'den', 'trivial'): (
        '921cb04afd6afb64d981acec4b4c3c12e767ff46d7502a1401569c73d11a6a10',
        (319, 20, 7, 326, 0), 319.60258112273215),
    (3, 8, 4, 'mt', 'den', 'cyclic'): (
        'ca19cbe4027cb55cbbbf0d28ceb6a38edad6894d6e9175a258fc4861fd19e6b3',
        (118, 0, 0, 472, 0), 313.4529466942109),
    (3, 8, 4, 'mt', 'den', 'frobenius'): (
        'f31139672397b159464647f5c89db9ad2a3f875a619d389b80af45cd15bd3ddf',
        (32, 0, 0, 388, 0), 296.59406074389955),
    (3, 8, 5, 'rand', 'naive', 'trivial'): (
        '01b37009b31f91e8925bb9b897cfb0561aeeb38c776b266f6665bd930e548de4',
        (502, 120, 120, 622, 1), 626.1525871192006),
    (3, 8, 5, 'rand', 'naive', 'cyclic'): (
        'cb698d8a63d10456f29add5d736d69c4a45213eacdb4b9f2e3143bf87c6fd186',
        (100, 15, 15, 575, 1), 618.0116029919095),
    (3, 8, 5, 'rand', 'naive', 'frobenius'): (
        '4e960b2d790ea7582c851241c59664183fcf4c81c9959328eff32a48f7f05b38',
        (24, 2, 2, 525, 1), 586.6279413000601),
    (3, 8, 5, 'rand', 'greedy', 'trivial'): (
        '3f00849fa5c90151d9622c93fcb6d4bfb9f35a18eb9f0c223a32cee8926c0ede',
        (502, 120, 35, 537, 1), 626.1525871192006),
    (3, 8, 5, 'rand', 'greedy', 'cyclic'): (
        '09c3b66b8470eeffd65c9a4ca68e58d4607c05a09290bbcb144055a0c6813126',
        (100, 15, 5, 525, 1), 618.0116029919095),
    (3, 8, 5, 'rand', 'greedy', 'frobenius'): (
        '2da14a1d58a8a1bf03201290a8659eeb010b736e0174a8dde4fdf68c71b7e33a',
        (24, 2, 1, 505, 1), 586.6279413000601),
    (3, 8, 5, 'rand', 'col', 'trivial'): (
        'ccf089e3a8d5c6a036d7e8dc76a816a6f13fc992a79b591663c58eaf61cd6e46',
        (502, 120, 32, 534, 1), 626.1525871192006),
    (3, 8, 5, 'rand', 'col', 'cyclic'): (
        'f5e12667c468a7135c683d49a3ec09e87e576852e248c9c93b54a71a34740b66',
        (100, 15, 5, 525, 1), 618.0116029919095),
    (3, 8, 5, 'rand', 'col', 'frobenius'): (
        '2da14a1d58a8a1bf03201290a8659eeb010b736e0174a8dde4fdf68c71b7e33a',
        (24, 2, 1, 505, 1), 586.6279413000601),
    (3, 8, 5, 'rand', 'den', 'trivial'): (
        '22730fb0b2f4cfada8a11e99c52dc8ff53d6a2d32515f10acfd035589df73f35',
        (502, 120, 26, 528, 1), 626.1525871192006),
    (3, 8, 5, 'rand', 'den', 'cyclic'): (
        'd9a640a2fcb8e72db8dac5c59b4c633d6427491e2c990539c781589ffd671055',
        (100, 15, 6, 530, 1), 618.0116029919095),
    (3, 8, 5, 'rand', 'den', 'frobenius'): (
        '223bd1f3733233dfe7a8917897f111cad68fe038f7e20fa86737cebf5ccc4415',
        (24, 2, 1, 505, 1), 586.6279413000601),
    (3, 8, 5, 'mt', 'naive', 'trivial'): (
        '12669a1e997a492243f5e44afc062ae81f4d405ba484fc7523f6e201e2684a04',
        (625, 37, 37, 662, 0), 626.1525871192006),
    (3, 8, 5, 'mt', 'naive', 'cyclic'): (
        '23d0ce41754f7d096b6156922ad46421dfd387ca3a923f9ab178c43380bc220e',
        (198, 0, 0, 990, 0), 618.0116029919095),
    (3, 8, 5, 'mt', 'naive', 'frobenius'): (
        '3a34da219bede15d5f5f55e558519b5bbb759786d5a778e38a22d84d6eff9b60',
        (38, 0, 0, 765, 0), 586.6279413000601),
    (3, 8, 5, 'mt', 'greedy', 'trivial'): (
        '364e626b62bafc201efeed65c7f479427443d214d5678d82c31ec79b0362de31',
        (625, 37, 12, 637, 0), 626.1525871192006),
    (3, 8, 5, 'mt', 'greedy', 'cyclic'): (
        '23d0ce41754f7d096b6156922ad46421dfd387ca3a923f9ab178c43380bc220e',
        (198, 0, 0, 990, 0), 618.0116029919095),
    (3, 8, 5, 'mt', 'greedy', 'frobenius'): (
        '3a34da219bede15d5f5f55e558519b5bbb759786d5a778e38a22d84d6eff9b60',
        (38, 0, 0, 765, 0), 586.6279413000601),
    (3, 8, 5, 'mt', 'col', 'trivial'): (
        '0568ef7dac13e7f0dbd1ca35b3a9cbf5eaaeb26fe57d6f1c9114160d960f222d',
        (625, 37, 12, 637, 0), 626.1525871192006),
    (3, 8, 5, 'mt', 'col', 'cyclic'): (
        '23d0ce41754f7d096b6156922ad46421dfd387ca3a923f9ab178c43380bc220e',
        (198, 0, 0, 990, 0), 618.0116029919095),
    (3, 8, 5, 'mt', 'col', 'frobenius'): (
        '3a34da219bede15d5f5f55e558519b5bbb759786d5a778e38a22d84d6eff9b60',
        (38, 0, 0, 765, 0), 586.6279413000601),
    (3, 8, 5, 'mt', 'den', 'trivial'): (
        'a6024eb513a9f77e040cba68831a751280bcd24fb2b11307ebd67f5c2eb51b25',
        (625, 37, 13, 638, 0), 626.1525871192006),
    (3, 8, 5, 'mt', 'den', 'cyclic'): (
        '23d0ce41754f7d096b6156922ad46421dfd387ca3a923f9ab178c43380bc220e',
        (198, 0, 0, 990, 0), 618.0116029919095),
    (3, 8, 5, 'mt', 'den', 'frobenius'): (
        '3a34da219bede15d5f5f55e558519b5bbb759786d5a778e38a22d84d6eff9b60',
        (38, 0, 0, 765, 0), 586.6279413000601),
}

# Same fields as RUNS, for CLEANUP_KEYS at r_multiplier = CLEANUP_R.
CLEANUP_RUNS = {
    (3, 12, 4, 'rand', 'naive', 'trivial'): (
        '37e94918a65778de00cb4e038a920a4963a57e4fc2865c18c5226578cde0a572',
        (128, 1829, 1829, 1957, 1), 406.48630228713046),
    (3, 12, 4, 'rand', 'naive', 'cyclic'): (
        '8ce6b64ea01599602be6fdd7866c779f0cd4e3630b2f1eab0ba4ab3e1088f687',
        (32, 395, 395, 1708, 1), 398.25661628562136),
    (3, 12, 4, 'rand', 'naive', 'frobenius'): (
        '600436131dff30c0e21e917366c9d9a473aae271bab4eb0b52af40f94e20719d',
        (10, 102, 102, 1348, 1), 375.67015638184427),
    (3, 12, 4, 'rand', 'greedy', 'trivial'): (
        '52be8b0b32c822abc5bf5d2f2fd5a37d03f428647c14524ed48cf951cb1f99fe',
        (128, 1829, 99, 227, 1), 406.48630228713046),
    (3, 12, 4, 'rand', 'greedy', 'cyclic'): (
        'b65deacfa02167a815c0b160a523bfc6339eeb907256b003fd8274e9524332d1',
        (32, 395, 25, 228, 1), 398.25661628562136),
    (3, 12, 4, 'rand', 'greedy', 'frobenius'): (
        'f08c97bcea687ffc0ef6822c0801b6c8d9b800016ff34c2ba186947e6ee7b27c',
        (10, 102, 6, 196, 1), 375.67015638184427),
    (3, 12, 4, 'rand', 'col', 'trivial'): (
        'd6b9af6d48cd8cbe122f27fd8ef72e1c5162d94f84b87c523ea035ace579afa4',
        (128, 1829, 98, 226, 1), 406.48630228713046),
    (3, 12, 4, 'rand', 'col', 'cyclic'): (
        '1af21ebab9dc5790924546aa93e93fd5ddaafb7c2623e96bd675160a9251e12a',
        (32, 395, 30, 248, 1), 398.25661628562136),
    (3, 12, 4, 'rand', 'col', 'frobenius'): (
        'f816dd215bcdc4d0260f579540944a826ed712228ab17139d5407794867c1d53',
        (10, 102, 9, 232, 1), 375.67015638184427),
    (3, 12, 4, 'rand', 'den', 'trivial'): (
        'a2a625722cb16e58c243dc882e26d7ce8628d53184e3b1ba0106ea1af625f3e5',
        (128, 1829, 71, 199, 1), 406.48630228713046),
    (3, 12, 4, 'rand', 'den', 'cyclic'): (
        'c0623aed1bbe589126dd503d30b2dc45a947ad4fd0116e45b2549f3b441af533',
        (32, 395, 26, 232, 1), 398.25661628562136),
    (3, 12, 4, 'rand', 'den', 'frobenius'): (
        '6a4c3dca4874c3ff0664326223e4fa0825782a0bedb6b5e4377e692d94847396',
        (10, 102, 12, 268, 1), 375.67015638184427),
}

# (t, k, v, group, r_multiplier) -> ((committed-rows digest, sorted-edges
#   digest, m_edges), (order digest, degeneracy), (colour-rows digest,
#   colours, degeneracy)).
GRAPH_RUNS = {
    (3, 12, 4, 'trivial', 30.0): (
        ('dd5db61f683ba77cf4519bd61797783cc95d01c6a51448263d73f86d8fb71664',
         'dc80d96f3a1e9be3c6617dc1876c366415fa6d9fdc1aac56120d0823e5374b98', 785341),
        ('a0dc5b3867394728ed8b71fbb0af671afedd71ab9b25422823810bc75aa229d0', 731),
        ('00e65b64fcd6534a007133e99a54aa0ce4ac90d82e442e47f2e4158a916edf95', 98, 731)),
    (3, 12, 4, 'cyclic', 30.0): (
        ('9fa35303385ff8c23d398cbefce9fb29fb7d48b179028da135bbbf1a16a42267',
         '90715280b86cb6719844d3f27733c72bd1ab658116263fe82122bc4f2aec4088', 28817),
        ('769deb012ebb636c56f8ced6f4b68336c493cd9731a5772a625b4b5787255866', 108),
        ('23abc3da1710fd065147c23f0bc32c44a1699ac7d737f4d833c18f90ac39ce4e', 30, 108)),
    (3, 8, 5, 'trivial', 1.0): (
        ('daba500fc4877fe8cf27cf7d57b9db5db16d3e9f046105d1d0bfe69d5000f219',
         '4d5f80f396bf31b1acad857e93489d074050de61e8fa347ffb3d4e468bf9f316', 4781),
        ('f71c7a2c8e295ae7aa3ad6c29c92d90b22df7c250e98b69953cba568d3b9a94f', 69),
        ('f5eb827512aa2a082b58848fd56229acb36d1c15cdb7c49f35cf3c5500d89fe3', 32, 69)),
    (3, 8, 5, 'cyclic', 1.0): (
        ('bc25141176c7a1d720f54e5432ac88df592a6aef293040898dfe7620f1357bb7',
         'b15190fb5d4b1590b9ac10897e5fe124241f83c5f7b523e412a3465879cd4bcc', 42),
        ('80a9b7f0519374efdce0f80c03e137cf88bd02e54505d8660b72e2ca9466602b', 4),
        ('b439ed32b5b083c6e0f1877152a44e5614a706fefaef3a2c15af3d2b33c4811d', 5, 4)),
    (3, 8, 5, 'frobenius', 1.0): (
        ('d64a246a84fa6ab0b7ed21a8a4f1b1e1c1660e2609caab8743941a5d677c6975',
         '1f64673779413bef9a029dc55b8d5d14cb3039370b90148a649a5baa4584a2b2', 0),
        ('89fa253ca7677902568730189f14ea46294c1dcc34867ea977844dc974688021', 0),
        ('45bb2c54d01aebb00f06a90f5a41ad677017fc4994cabb45211a0d65f0e6cd4b', 1, 0)),
}

BOUND_REPORTS = {
    (2, 4, 2): '463ee60d8bbea3b717d8fe49c25915de375c99c69a9ad13002d9d580249b9249',
    (2, 10, 3): '5258b3ee3c04c60b0e59116764115a80cdcaabf1ef5bb117c8a077186bfaf9b4',
    (3, 6, 2): '23b6b73214d2291b45a088ae164e6b4c1aa0d6385ef0121ee02a60edeb65a813',
    (3, 12, 4): '69acc977c0897b45ddf291786682a0fac14af0feafe73ddad407476d2509b18d',
    (4, 9, 5): '4dbbfc0375c6a8c21af220aeadaa3aefb3d7a32562025dccdd3ce0a09a571dff',
    (5, 14, 3): 'e5a94f018e134effc81d61f70f00268443fa0f85a7d5a6860f4d1a9b7ad3fdd6',
    (4, 11, 6): 'd1d50ce024a88a940bb08a23cea90c7732b80e7d2a9bb7b7087fadbd952f56de',
}

FIELD_DIGEST = 'd0b1114795cc03eefdc2b28d16c4d5a2a992182ffc79c0f3a38c61eea7ef615e'


@pytest.mark.parametrize("key", RUN_KEYS, ids=lambda key: "-".join(map(str, key)))
def test_run_digest(key):
    assert run_values(key) == RUNS[key]


@pytest.mark.parametrize("key", CLEANUP_KEYS, ids=lambda key: "-".join(map(str, key)))
def test_cleanup_digest(key):
    assert run_values(key, CLEANUP_R) == CLEANUP_RUNS[key]


@pytest.mark.parametrize("key", GRAPH_KEYS, ids=lambda key: "-".join(map(str, key)))
def test_graph_digest(key):
    assert graph_values(key) == GRAPH_RUNS[key]


@pytest.mark.parametrize("triple", list(BOUND_REPORTS), ids=str)
def test_bound_report_digest(triple):
    assert report_digest(bound_report(Parameters(*triple))) == BOUND_REPORTS[triple]


def test_field_digest():
    assert field_digest() == FIELD_DIGEST


def print_runs(name, keys, r_multiplier=1.0):
    print(f"{name} = {{")
    for key in keys:
        digest, ints, bound = run_values(key, r_multiplier)
        print(f"    {key!r}: (\n        {digest!r},\n        {ints!r}, {float(bound)!r}),")
    print("}\n")


def print_literals():
    print_runs("RUNS", RUN_KEYS)
    print_runs("CLEANUP_RUNS", CLEANUP_KEYS, CLEANUP_R)
    print("GRAPH_RUNS = {")
    for key in GRAPH_KEYS:
        print(f"    {key!r}: {graph_values(key)!r},")
    print("}\n")
    print("BOUND_REPORTS = {")
    for triple in BOUND_REPORTS:
        print(f"    {triple!r}: {report_digest(bound_report(Parameters(*triple)))!r},")
    print("}\n")
    print(f"FIELD_DIGEST = {field_digest()!r}")


if __name__ == "__main__":
    print_literals()
