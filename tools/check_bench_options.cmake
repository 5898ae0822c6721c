# ctest helper: benches take `--flag value` as well as `--flag=value`,
# like pintesim. Runs a small bench_table1 campaign with every valued
# flag in the space form and validates the report it writes with
# check_report.py. Invoked from tools/CMakeLists.txt with -DBENCH=...
# -DPYTHON=... -DCHECKER=... -DWORKDIR=...

set(report "${WORKDIR}/bench_options_space_form.json")
file(REMOVE ${report})

execute_process(
    COMMAND ${BENCH} --small --quiet --roi 6000 --warmup 2000
        --jobs 2 --format json --out ${report}
    RESULT_VARIABLE bench_rc
    OUTPUT_VARIABLE bench_out
    ERROR_VARIABLE bench_err)
if(NOT bench_rc EQUAL 0)
    message(FATAL_ERROR
        "bench failed (${bench_rc}):\n${bench_out}\n${bench_err}")
endif()

execute_process(
    COMMAND ${PYTHON} ${CHECKER} ${report}
    RESULT_VARIABLE check_rc
    OUTPUT_VARIABLE check_out
    ERROR_VARIABLE check_err)
if(NOT check_rc EQUAL 0)
    message(FATAL_ERROR
        "schema validation failed (${check_rc}):\n"
        "${check_out}\n${check_err}")
endif()
message(STATUS "${check_out}")
