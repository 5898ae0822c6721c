# ctest helper: one campaign, three backends. Every backend keys, serves
# and records cells through the same library path (sim/campaign.hh),
# so:
#
#  1. resume:  a journal written by a thread-mode campaign serves the
#     whole campaign under --isolation=process and --isolation=spool.
#     Both run with PINTE_INJECT_FAULT=job:1, which fails the first cell
#     any process executes, so exit 0 proves no cell ran; both reports
#     must match the thread report bit for bit (modulo cpu_seconds).
#     Checked for the plain sweep and for the --policies grid.
#  2. grid:    a fresh --policies grid on the process and spool
#     backends matches the thread backend bit for bit.
#  3. seeds:   spool sweeps at run seeds 2^53+1 and 2^64-1, which the
#     spool's campaign document must carry exactly, finish and match
#     thread mode bit for bit.
#
# Invoked from tools/CMakeLists.txt with -DPINTESIM=... -DPYTHON=...
# -DCHECKER=<check_bitwise.py> -DWORKDIR=...

set(common --workload 450.soplex --sweep
    --warmup 2000 --roi 4000 --sample 2000 --jobs 2 --format json)
set(dir "${WORKDIR}/campaign_backends")
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})

# run(<name> <env> <args...>): pintesim with `env` (a NAME=VALUE or
# "-"), writing ${dir}/<name>.json; any nonzero exit or a run over two
# minutes fails the test.
function(run name env)
    set(cmd ${PINTESIM} ${common} ${ARGN} --out ${dir}/${name}.json)
    if(NOT env STREQUAL "-")
        set(cmd ${CMAKE_COMMAND} -E env ${env} ${cmd})
    endif()
    execute_process(COMMAND ${cmd} TIMEOUT 120
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${name} failed (${rc}):\n${out}\n${err}")
    endif()
endfunction()

# same(<reference> <name>): the two reports match modulo cpu_seconds.
function(same reference name)
    execute_process(
        COMMAND ${PYTHON} ${CHECKER} ${dir}/${reference}.json
            ${dir}/${name}.json
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "${name} differs from ${reference} (${rc}):\n${out}\n${err}")
    endif()
    message(STATUS "${name} matches ${reference}")
endfunction()

# 1. Resume across backends.
foreach(kind sweep grid)
    if(kind STREQUAL "grid")
        set(extra --policies lru,drrip,lhd)
    else()
        set(extra "")
    endif()
    set(journal ${dir}/${kind}.journal)
    run(${kind}_thread - ${extra} --resume ${journal})
    run(${kind}_process PINTE_INJECT_FAULT=job:1 ${extra}
        --isolation=process --resume ${journal})
    same(${kind}_thread ${kind}_process)
    run(${kind}_spool PINTE_INJECT_FAULT=job:1 ${extra}
        --isolation=spool --spool ${dir}/${kind}_spool
        --resume ${journal})
    same(${kind}_thread ${kind}_spool)
endforeach()

# 2. A fresh policy grid on the isolated backends.
set(grid --policies lru,drrip,lhd)
run(grid_process_fresh - ${grid} --isolation=process)
same(grid_thread grid_process_fresh)
run(grid_spool_fresh - ${grid} --isolation=spool
    --spool ${dir}/grid_spool_fresh)
same(grid_thread grid_spool_fresh)

# 3. Seeds a double cannot hold.
foreach(seed 9007199254740993 18446744073709551615)
    run(seed_${seed}_thread - --seed ${seed})
    run(seed_${seed}_spool - --seed ${seed} --isolation=spool
        --spool ${dir}/seed_${seed}_spool)
    same(seed_${seed}_thread seed_${seed}_spool)
endforeach()
