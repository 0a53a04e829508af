"""Every op is checked byte for byte; a wrong or failed op is counted."""

from measure import run_loop
from repro.core.miner import mine_recurring_patterns
from repro.datasets import paper_running_example
from workloads import (
    SERVICE_REPEATS,
    keep_recurrence,
    request_key,
    service_stream,
    tsv_bytes,
)


class EchoRunner:
    """Returns the request's ``answer`` field; ``boom`` raises."""

    def op(self, request, client):
        if request.get("boom"):
            raise RuntimeError("boom")
        return request["answer"]

    def traced_op(self, request, client, notes):
        return self.op(request, client)

    def output(self, value):
        return value.encode("utf-8")


def _expected(requests):
    return {request_key(r): r["answer"].encode("utf-8") for r in requests}


def test_matching_outputs_pass():
    requests = [{"answer": "a"}, {"answer": "b"}]
    result = run_loop(EchoRunner(), [requests], True, _expected(requests),
                      seconds=0.05, trace=False)
    assert result["ops"] and all(op["ok"] for op in result["ops"])


def test_a_corrupted_result_is_counted_as_failed():
    requests = [{"answer": "a"}, {"answer": "b"}]
    expected = _expected(requests)
    expected[request_key(requests[1])] = b"corrupted"
    result = run_loop(EchoRunner(), [requests], True, expected,
                      seconds=0.05, trace=True)
    failed = [op for op in result["ops"] if not op["ok"]]
    assert failed and all(op["key"] == request_key(requests[1]) for op in failed)
    assert all("differs" in op["error"] for op in failed)
    # Traced and untraced ops are both checked.
    assert {op["traced"] for op in failed} == {False, True}


def test_a_raising_op_is_a_failed_op_not_a_crash():
    requests = [{"answer": "a", "boom": True}]
    result = run_loop(EchoRunner(), [requests, requests], False,
                      _expected(requests), seconds=1.0, trace=False)
    assert len(result["ops"]) == 2 and result["exhausted"]
    assert all(not op["ok"] and "boom" in op["error"] for op in result["ops"])


def test_keep_recurrence_equals_a_direct_mine():
    database = paper_running_example()
    base = tsv_bytes(mine_recurring_patterns(database, 2, 3, 1, engine="rp-eclat-vec"))
    for min_rec in (1, 2, 3):
        direct = mine_recurring_patterns(database, 2, 3, min_rec, engine="rp-growth")
        assert keep_recurrence(base, min_rec) == tsv_bytes(direct)


def test_service_stream_has_one_new_key_per_block():
    import random

    stream = service_stream(random.Random(5), client=1, length=43)
    assert len(stream) == 43
    seen = set()
    # One new key per dataset first, then blocks of four: one new key
    # and one repeat for each of SERVICE_REPEATS.
    blocks = [stream[:3]] + [stream[i:i + 4] for i in range(3, 43, 4)]
    for number, block in enumerate(blocks):
        fresh = [r for r in block if r["min_rec"] == 1 and request_key(r) not in seen]
        seen.update(request_key(r) for r in block)
        if number == 0:
            assert len(fresh) == 3
            continue
        assert len(fresh) == 1
        repeats = [r["file"] for r in block if r is not fresh[0]]
        assert sorted(repeats) == sorted(SERVICE_REPEATS)
    assert all(r["per"] % 2 == 1 for r in stream)  # client 1's keys
