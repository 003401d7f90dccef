# Golden pipeline end-to-end check, run by ctest (see CMakeLists.txt):
# executes the default `pipeline` solver (bounding pre-pass, then
# distributed greedy on what bounding leaves open) on the committed toy600
# fixture under each bounding mode, in-memory and out-of-core, and
# byte-compares every selection against the committed expectation. With
# uniform and weighted sampling, bounding decides all 600 points; exact
# bounding decides 444 and hands the remaining 79 picks to the greedy, so
# the bound -> greedy handoff is covered too.
#
# Required -D variables: SUBSEL_CLI, GOLDEN_DIR, WORK_DIR.

file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(bounding uniform weighted exact)
  foreach(mode memory disk)
    set(mode_flags "")
    if(mode STREQUAL disk)
      set(mode_flags --disk --cache-blocks=8 --block-edges=256 --disk-shards=4
                     --prefetch-depth=2)
    endif()
    execute_process(
      COMMAND "${SUBSEL_CLI}" select
              "--data=${GOLDEN_DIR}/toy600" --k=120 --solver=pipeline --seed=23
              --bounding=${bounding} ${mode_flags}
              "--out=${WORK_DIR}/got_${bounding}_${mode}.ids"
      RESULT_VARIABLE exit_code
      OUTPUT_VARIABLE stdout
      ERROR_VARIABLE stderr)
    if(NOT exit_code EQUAL 0)
      message(FATAL_ERROR "pipeline select (${bounding}, ${mode}) failed"
                          " (${exit_code}):\n${stdout}\n${stderr}")
    endif()

    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              "${WORK_DIR}/got_${bounding}_${mode}.ids"
              "${GOLDEN_DIR}/expected_pipeline_${bounding}.ids"
      RESULT_VARIABLE diff_code)
    if(NOT diff_code EQUAL 0)
      file(READ "${WORK_DIR}/got_${bounding}_${mode}.ids" got)
      message(FATAL_ERROR "pipeline ${bounding} ${mode} selection drifted from"
                          " the committed golden subset"
                          " (tests/golden/expected_pipeline_${bounding}.ids).\nGot:\n${got}")
    endif()
  endforeach()
endforeach()

message(STATUS "golden pipeline fixture: uniform, weighted and exact bounding"
               " selections identical in-memory and out-of-core")
