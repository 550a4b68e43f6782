"""Golden digests: pin the exact output of every stage1 x stage2 x group run.

The values were recorded before the group model, the resampling loop and the
verify scan were unified.  Any change to the RNG draw order, the coverage
scan order, the stage-2 strategies or the bound formulas changes a digest.
Run ``pytest tests/test_golden.py`` after every refactor; it must pass
unedited.
"""

import hashlib

import numpy as np
import pytest

from caforge import BoundReport, GroupKind, Parameters, RunSpec, bound_report, run


def array_digest(array) -> str:
    a = np.ascontiguousarray(array, dtype=np.int64)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def report_digest(rep: BoundReport) -> str:
    fields = [getattr(rep, f) for f in BoundReport.__dataclass_fields__]
    return hashlib.sha256(repr(fields).encode()).hexdigest()


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


@pytest.mark.parametrize("key", list(RUNS), ids=lambda key: "-".join(map(str, key)))
def test_run_digest(key):
    t, k, v, s1, s2, group = key
    spec = RunSpec(p=Parameters(t, k, v), stage1=s1, stage2=s2,
                   group=GroupKind(group), seed=1, verify=True)
    array, rep = run(spec)
    digest, ints, bound = RUNS[key]
    assert rep.verified is True
    assert array_digest(array) == digest
    assert (rep.n_stage1, rep.uncovered_after_stage1, rep.rows_stage2,
            rep.N_final, rep.retries) == ints
    assert rep.bound_predicted == bound


@pytest.mark.parametrize("triple", list(BOUND_REPORTS), ids=str)
def test_bound_report_digest(triple):
    assert report_digest(bound_report(Parameters(*triple))) == BOUND_REPORTS[triple]
