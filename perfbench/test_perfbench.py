"""Self-tests of the benchmark's checks: ``python3 -m pytest perfbench -q``.

They show that the oracle reproduces the paper's Table I and that the
checks turn a wrong answer into a failed operation.
"""

from __future__ import annotations

import dataclasses
from array import array

import pytest

import oracle
from common import Result, import_program

import_program()

from repro import MappingEngine  # noqa: E402
from repro.api.request import MappingRequest  # noqa: E402
from repro.core import ConvLayer, PIMArray  # noqa: E402

import dse_zoo  # noqa: E402
import map_cold  # noqa: E402


@pytest.mark.parametrize("network", sorted(oracle.TABLE_I))
def test_oracle_reproduces_table_i(network):
    assert oracle.table_i_totals(network) == oracle.TABLE_I[network]


def test_oracle_minmax_matches_hand_count():
    # Two stages: 10 positions on 1 tile and 4 positions on 2 tiles.
    stages = [(10, 1, 1), (4, 2, 1)]
    assert oracle.minmax_bottleneck(stages, 3) == 10     # one replica each
    assert oracle.minmax_bottleneck(stages, 8) == 3      # 4 + 2*2 arrays
    assert oracle.minmax_bottleneck(stages, 9) == 2      # 5 + 2*2 arrays
    assert oracle.minmax_bottleneck(stages, 2) is None


def test_non_dominated_rejects_dominated_and_repeated_points():
    assert oracle.non_dominated([(1, 2.0, 3), (2, 1.0, 3), (3, 3.0, 1)])
    assert not oracle.non_dominated([(1, 2.0, 3), (1, 2.0, 4)])
    assert not oracle.non_dominated([(1, 2.0, 3), (1, 2.0, 3)])


def solved(problem):
    ih, iw, kh, kw, ic, oc, stride, padding, rows, cols, scheme = problem
    layer = ConvLayer(ifm_h=ih, ifm_w=iw, kernel_h=kh, kernel_w=kw, in_channels=ic,
                      out_channels=oc, stride=stride, padding=padding)
    request = MappingRequest(layer=layer, array=PIMArray(rows, cols), scheme=scheme)
    return MappingEngine().map(request).solution


PROBLEM = (14, 14, 3, 3, 256, 256, 1, 0, 512, 512, "vw-sdk")   # Table I, ResNet L4


def answer_of(solution):
    a = map_cold.packed(solution)
    return {"scheme": map_cold.SCHEMES[a[0]], "cycles": a[1], "window": a[2:4],
            "breakdown": a[4:]}


def test_true_answer_passes_every_check():
    result = Result()
    answer = answer_of(solved(PROBLEM))
    assert map_cold.check_answer(result, "ok", PROBLEM, answer, brute_force=True)
    assert (result.failed, result.correct) == (0, True)


@pytest.mark.parametrize("field", ["cycles", "n_pw"])
def test_answer_off_by_one_cycle_is_a_failed_operation(field):
    answer = answer_of(solved(PROBLEM))
    if field == "cycles":
        answer["cycles"] += 1                       # breaks cycles == n_pw*AR*AC
    else:
        n_pw, ar, ac, ic_t, oc_t = answer["breakdown"]
        answer["breakdown"] = (n_pw + 1, ar, ac, ic_t, oc_t)
        answer["cycles"] = (n_pw + 1) * ar * ac     # consistent, but not eq. 3
    result = Result()
    assert not map_cold.check_answer(result, "corrupt", PROBLEM, answer)
    assert (result.failed, result.correct) == (1, False)


def test_map_cold_counts_a_corrupted_answer():
    workload = map_cold.Workload()
    workload.seed = 1
    workload.answers = array("q")
    for problem in next(map_cold.problem_rounds(1)):
        workload.answers.extend(map_cold.packed(solved(problem)))
    workload.answers[1] += 1                       # first answer's cycles
    result = Result()
    workload.check(result)
    assert (result.failed, result.correct) == (1, False)


def zoo_workload():
    from repro.dse.pareto import array_candidates
    from repro.networks import resnet18
    workload = dse_zoo.Workload()
    workload.seed = 1
    workload.networks = [("resnet18", resnet18())]
    workload.arrays = array_candidates(512 * 512)
    workload.pool = [PIMArray.square(s) for s in dse_zoo.SIDES]
    workload.first, workload.answered = {}, []
    workload._record("resnet18", workload._op(MappingEngine, "resnet18",
                                              workload.networks[0][1]))
    return workload


def test_true_frontier_passes():
    result = Result()
    zoo_workload().check(result)
    assert (result.failed, result.correct) == (0, True)


def test_frontier_with_a_dominated_point_is_a_failed_operation():
    workload = zoo_workload()
    cycles, front = workload.first["resnet18"]
    worse = dataclasses.replace(front[0], bottleneck_cycles=front[0].bottleneck_cycles + 1)
    workload.first["resnet18"] = (cycles, front + [worse])
    result = Result()
    workload.check(result)
    assert (result.failed, result.correct) == (1, False)


def test_frontier_point_off_the_minmax_optimum_is_a_failed_operation():
    workload = zoo_workload()
    cycles, front = workload.first["resnet18"]
    moved = dataclasses.replace(front[-1], num_arrays=front[-1].num_arrays - 1)
    workload.first["resnet18"] = (cycles, front[:-1] + [moved])
    result = Result()
    workload.check(result)
    assert (result.failed, result.correct) == (1, False)
