# ctest helper: keep the perf-baseline path from rotting. Runs the
# hot-path harness in quick mode (smoke-size kernels, 2 reps) twice,
# merging into a copy of the committed trajectory, then validates the
# produced document with check_bench.py — including that the requested
# labels landed — and checks that every committed row kept its
# checksum byte for byte through both merges. Invoked from
# tools/CMakeLists.txt with -DBENCH_HOTPATH=... -DPYTHON=...
# -DCHECKER=<check_bench.py> -DBASELINE=<BENCH_hotpath.json>
# -DWORKDIR=...

set(out "${WORKDIR}/perf_smoke.json")
file(REMOVE ${out})
execute_process(COMMAND ${CMAKE_COMMAND} -E copy ${BASELINE} ${out}
    RESULT_VARIABLE copy_rc)
if(NOT copy_rc EQUAL 0)
    message(FATAL_ERROR "cannot copy ${BASELINE} to ${out}")
endif()

execute_process(
    COMMAND ${BENCH_HOTPATH} --quick --label=smoke --reps=2
        --scratch=${WORKDIR} --out=${out}
    RESULT_VARIABLE bench_rc
    OUTPUT_VARIABLE bench_out
    ERROR_VARIABLE bench_err)
if(NOT bench_rc EQUAL 0)
    message(FATAL_ERROR
        "bench_hotpath failed (${bench_rc}):\n${bench_out}\n"
        "${bench_err}")
endif()

# Run it twice: the second batch must merge (replace label 'smoke',
# keep 'smoke2'), exercising the trajectory-append path CI relies on.
execute_process(
    COMMAND ${BENCH_HOTPATH} --quick --label=smoke2 --reps=2
        --scratch=${WORKDIR} --out=${out}
    RESULT_VARIABLE bench_rc
    OUTPUT_VARIABLE bench_out
    ERROR_VARIABLE bench_err)
if(NOT bench_rc EQUAL 0)
    message(FATAL_ERROR
        "bench_hotpath merge run failed (${bench_rc}):\n${bench_out}\n"
        "${bench_err}")
endif()

foreach(label smoke smoke2)
    execute_process(
        COMMAND ${PYTHON} ${CHECKER} --require-label ${label} ${out}
        RESULT_VARIABLE check_rc
        OUTPUT_VARIABLE check_out
        ERROR_VARIABLE check_err)
    if(NOT check_rc EQUAL 0)
        message(FATAL_ERROR
            "baseline validation failed (${check_rc}):\n"
            "${check_out}\n${check_err}")
    endif()
endforeach()
message(STATUS "${check_out}")

# A merge rewrites every earlier row; a u64 checksum must come back
# exactly, not re-rounded through a double.
execute_process(
    COMMAND ${PYTHON} -c
"import json, sys

def checksums(path):
    with open(path) as f:
        doc = json.load(f, parse_int=str)
    table = next(t for t in doc['tables'] if t['name'] == 'hotpath_bench')
    return {(r[0], r[1]): r[6] for r in table['rows']}

before, after = checksums(sys.argv[1]), checksums(sys.argv[2])
for key, checksum in sorted(before.items()):
    assert after.get(key) == checksum, (key, checksum, after.get(key))
print('%d committed rows kept their checksums byte for byte'
      % len(before))"
        ${BASELINE} ${out}
    RESULT_VARIABLE keep_rc
    OUTPUT_VARIABLE keep_out
    ERROR_VARIABLE keep_err)
if(NOT keep_rc EQUAL 0)
    message(FATAL_ERROR
        "a merge changed a committed row's checksum (${keep_rc}):\n"
        "${keep_out}\n${keep_err}")
endif()
message(STATUS "${keep_out}")
