"""Tests of the claims registry and sweep.

``tests/data/claims_max12.csv`` holds the CSV of the whole sweep at
max_n 12, the instances of the benchmark's claims workload. Re-record it
only in a change that says why the sweep's output moves, by running this
module as a script from the repository root:

    PYTHONPATH=src python tests/test_claims.py
"""

import re
from itertools import product
from pathlib import Path

import pytest

import pathcover.claims
from pathcover import (
    FAMILY_NAMES,
    FamilyParamError,
    UnknownFamilyError,
    claim_value,
    claims_registry,
    expected_size,
    verify_claims,
)
from pathcover.claims import (
    EXCLUDED_CLAIMS,
    KIND_EXACT,
    KIND_UPPER_BOUND,
    STATUS_BOUND_HOLDS,
    STATUS_MATCH,
    STATUS_SKIPPED,
    STATUS_TOO_HIGH,
    STATUS_TOO_LOW,
    TOPIC_FAMILY,
    TOPIC_NETWORK,
)
from pathcover.families import _FAMILIES
from pathcover.report import claim_record, to_csv

CLAIMS_CSV = Path(__file__).parent / "data" / "claims_max12.csv"


def _sweep_csv() -> str:
    return to_csv(claim_record(r) for r in verify_claims(max_n=12))


def test_registry_covers_every_result_once():
    records = claims_registry()
    family_groups = {r.claim_id for r in records if r.topic == TOPIC_FAMILY}
    network_groups = {r.claim_id for r in records if r.topic == TOPIC_NETWORK}
    assert len(family_groups) == 11
    assert len(network_groups) == 13
    # a group never spans topics
    assert not family_groups & network_groups


def test_registry_records_well_formed():
    for record in claims_registry():
        assert record.k == 2
        assert record.kind in (KIND_EXACT, KIND_UPPER_BOUND)
        assert record.variant in ("weak", "strong")
        assert record.citation
        for params in record.instances(40):
            value = record.value(params)
            assert type(value) is int and value >= 1, (record.claim_id,
                                                       params)
            assert claim_value(record.family, params, record.variant) == \
                value, (record.claim_id, params)


def _family_arity(name):
    return _FAMILIES[name][1].__code__.co_argcount


def test_claim_domains_lie_in_family_domains():
    # the claim domain takes the family's params, and every params it
    # admits up to 40 is a valid family instance
    for record in claims_registry():
        arity = _family_arity(record.family)
        assert record.domain.__code__.co_argcount == arity, record.claim_id
        for params in product(range(1, 41), repeat=arity):
            if record.domain(*params):
                expected_size(record.family, params)


def test_no_parameter_exceeds_the_vertex_count():
    # instances(max_n) tries each place in 1..max_n only, which misses
    # nothing because of this
    for name in FAMILY_NAMES:
        for params in product(range(1, 41), repeat=_family_arity(name)):
            try:
                n = expected_size(name, params)[0]
            except FamilyParamError:
                continue
            assert max(params) <= n, (name, params)


def test_claim_instances_respect_max_n():
    for record in claims_registry():
        for params in record.instances(14):
            assert expected_size(record.family, params)[0] <= 14


def test_lookup_examples():
    assert claim_value("path", (7,), "strong") == 2
    assert claim_value("silicate", (1,), "strong") == 6
    with pytest.raises(UnknownFamilyError):
        claim_value("actinia", (2, 1), "strong")
    with pytest.raises(FamilyParamError):
        claim_value("path", (1, 2), "strong")
    assert EXCLUDED_CLAIMS[0][0] == "actinia"


def test_lookup_refuses_a_non_int_param():
    # 7.0 == 7, so a membership test alone would admit it
    with pytest.raises(FamilyParamError):
        claim_value("path", [7.0], "strong")
    record = next(r for r in claims_registry() if r.family == "path")
    assert record.covers((7,), 12) and not record.covers((7.0,), 12)


@pytest.mark.parametrize(
    "families", [["nosuch"], ["Wheel"], ["wheel", "actinia"]])
def test_unknown_family_is_refused(families):
    # a misspelt or unregistered family must not sweep nothing in silence
    with pytest.raises(UnknownFamilyError):
        verify_claims(families=families)


@pytest.mark.parametrize("family", ["nosuch", "Cycle"])
def test_unknown_instance_family_is_refused(family):
    # an explicit instance list must not drop an unregistered family
    with pytest.raises(UnknownFamilyError):
        verify_claims(instances=[(family, (5,))])


def test_unlisted_instance_is_refused():
    # cycle(50) is a registered family but over the default max_n of 12
    with pytest.raises(ValueError, match=r"cycle\(50,\).*max_n=12"):
        verify_claims(instances=[("cycle", (50,))])
    # one unlisted instance refuses the whole request
    with pytest.raises(ValueError, match=r"cycle\(13,\)"):
        verify_claims(instances=[("cycle", (5,)), ("cycle", (13,))])
    assert len(verify_claims(instances=[("cycle", (50,))], max_n=50)) == 1


def test_instance_params_may_be_a_list():
    # claim_value, expected_size and generate take list params; so does
    # the instance list, with the same reports as for the tuple
    got = verify_claims(instances=[("cycle", [5])])
    assert [_fields(r) for r in got] == [
        _fields(r) for r in verify_claims(instances=[("cycle", (5,))])]
    assert got and all(r.params == (5,) for r in got)


def test_bare_family_string_is_refused():
    # a string is not read letter by letter as the families c, y, l, e
    with pytest.raises(ValueError, match="list of family names.*'cycle'"):
        verify_claims(families="cycle")


def test_malformed_instance_list_names_the_bad_entry():
    # one pair not wrapped in a list: its first entry is the string 'cycle'
    with pytest.raises(ValueError, match=re.escape(
            "an instance is a (family, params) pair such as ('cycle', (5,)),"
            " got 'cycle'")):
        verify_claims(instances=("cycle", (5,)))
    # a bare string is not read letter by letter as instances c, y, ...
    with pytest.raises(ValueError, match=re.escape(
            "instances must be a list of (family, params) pairs, not the "
            "string 'cycle'")):
        verify_claims(instances="cycle")
    for entry in (("cycle", 5), (5, (5,)), ("cycle", ("5",)),
                  ("cycle", (5,), 2), ("butterfly", (True,))):
        with pytest.raises(ValueError, match=re.escape(f"got {entry!r}")):
            verify_claims(instances=[entry])


@pytest.mark.parametrize("max_n", [2.5, "5", True])
def test_non_int_max_n_is_refused(max_n):
    # a bool is no int here: max_n=True would list no instance at all
    with pytest.raises(ValueError, match=re.escape(
            f"max_n must be an int, got {max_n!r}")):
        verify_claims(max_n=max_n)


def test_unlisted_instance_names_the_families_filter():
    # a claim lists cycle(5,); it is the families filter that leaves it out
    with pytest.raises(ValueError,
                       match=r"cycle\(5,\) at max_n=12 in families \['path'\]"):
        verify_claims(instances=[("cycle", (5,))], families=["path"])


def test_every_family_has_a_claim():
    registered = {record.family for record in claims_registry()}
    assert registered == set(FAMILY_NAMES)


def test_cycle5_reported_too_low():
    reports = verify_claims(instances=[("cycle", (5,))], max_n=5)
    assert len(reports) == 1
    r = reports[0]
    assert (r.claimed, r.computed, r.status) == (1, 2, STATUS_TOO_LOW)


def test_k23_match_and_q3_tight():
    reports = verify_claims(
        instances=[("complete_bipartite", (2, 3)), ("hypercube", (3,))],
        max_n=8)
    by_family = {r.claim.family: r for r in reports}
    k23 = by_family["complete_bipartite"]
    assert (k23.claimed, k23.computed, k23.status) == (2, 2, STATUS_MATCH)
    q3 = by_family["hypercube"]
    assert q3.status == STATUS_BOUND_HOLDS and q3.tight


def test_strong_instances_within_limit_are_solved():
    # only the vertex limits skip; strong instances under them are solved
    reports = verify_claims(families=["sierpinski"], max_n=27)
    by_params = {r.params: r for r in reports}
    assert by_params[(2,)].status in (STATUS_BOUND_HOLDS, "bound_violated")
    assert (by_params[(3,)].computed, by_params[(3,)].status) == \
        (9, STATUS_BOUND_HOLDS)
    reports = verify_claims(families=["augmented_butterfly"], max_n=32)
    r3 = {r.claim.claim_id: r for r in reports if r.params == (3,)}
    assert (r3["augmented_butterfly_dim3"].claimed,
            r3["augmented_butterfly_dim3"].computed,
            r3["augmented_butterfly_dim3"].status) == (12, 8, STATUS_TOO_HIGH)
    assert (r3["augmented_butterfly_bound"].claimed,
            r3["augmented_butterfly_bound"].computed,
            r3["augmented_butterfly_bound"].status) == \
        (12, 8, STATUS_BOUND_HOLDS)


def test_never_classifies_with_heuristics():
    # silicate(2) has 66 vertices, over the strong limit: skipped by size,
    # with no computed value at all
    reports = verify_claims(families=["silicate"], max_n=70)
    big = [r for r in reports if r.params == (2,)]
    assert big and big[0].status == STATUS_SKIPPED
    assert big[0].computed is None


def _count_generate(monkeypatch):
    """(family, params) of each graph the sweep generates, in call order."""
    generated = []
    real = pathcover.claims.generate

    def counting(spec):
        generated.append((spec.family, tuple(spec.params)))
        return real(spec)

    monkeypatch.setattr(pathcover.claims, "generate", counting)
    return generated


def test_no_graph_generated_for_an_instance_every_variant_refuses(
        monkeypatch):
    # wheel(n) has n + 1 vertices and both variants have a wheel claim: at
    # 36 vertices only weak is solved, at 41 neither
    generated = _count_generate(monkeypatch)
    reports = verify_claims(instances=[("wheel", (40,)), ("wheel", (35,)),
                                       ("wheel", (5,))], max_n=41)
    assert generated == [("wheel", (5,)), ("wheel", (35,))]
    got = {(r.params, r.claim.variant): (r.n, r.m, r.computed, r.status)
           for r in reports}
    assert got[(40,), "weak"] == got[(40,), "strong"] == \
        (41, 80, None, STATUS_SKIPPED)
    assert got[(35,), "strong"] == (36, 70, None, STATUS_SKIPPED)
    assert got[(35,), "weak"][2] is not None


def test_sweep_generates_each_admitted_instance_once(monkeypatch):
    # at max_n 12 every instance is within both limits
    generated = _count_generate(monkeypatch)
    reports = verify_claims(max_n=12)
    instances = {(r.claim.family, r.params) for r in reports}
    assert sorted(generated) == sorted(instances) and len(instances) == 80


def test_report_ordering_is_canonical():
    reports = verify_claims(families=["wheel", "cycle"], max_n=9)
    keys = [(r.claim.family, r.params, r.claim.variant) for r in reports]
    assert keys == sorted(keys)


def test_sweep_deterministic():
    a = verify_claims(families=["crown"], max_n=10)
    b = verify_claims(families=["crown"], max_n=10)
    assert [(r.params, r.claim.variant, r.computed, r.status) for r in a] == \
        [(r.params, r.claim.variant, r.computed, r.status) for r in b]


def test_sweep_csv_unchanged():
    assert _sweep_csv().encode() == CLAIMS_CSV.read_bytes()


def _fields(r):
    return (r.claim.claim_id, r.claim.variant, r.claim.kind, r.claim.citation,
            r.params, r.n, r.m, r.claimed, r.computed, r.status)


def test_single_instance_matches_sweep():
    # asking for one instance gives exactly its reports from the full sweep
    by_instance: dict = {}
    for r in verify_claims(max_n=12):
        by_instance.setdefault((r.claim.family, r.params), []).append(
            _fields(r))
    assert len(by_instance) == 80
    for (family, params), expect in by_instance.items():
        got = verify_claims(max_n=12, instances=[(family, params)])
        assert [_fields(r) for r in got] == expect, (family, params)


if __name__ == "__main__":
    CLAIMS_CSV.write_text(_sweep_csv())
