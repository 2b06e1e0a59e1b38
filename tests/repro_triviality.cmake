# Reproduction gate for the Table 1 search on full-size series: writes
# the seed-42 simulated Yahoo archive into WORK_DIR, runs
# `tsad triviality` over all 367 files with THREADS worker threads,
# requires exit 2 (some series are trivial) and compares the stdout, the
# chosen form, k, c and b of every series, byte for byte with GOLDEN.
#
#   cmake -DTSAD_CLI=path/to/tsad -DTHREADS=4 -DWORK_DIR=dir
#         -DGOLDEN=tests/golden/triviality_yahoo.txt
#         -P repro_triviality.cmake
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(COMMAND ${TSAD_CLI} generate yahoo --seed 42 --out ${WORK_DIR}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate yahoo exited ${rc}: ${out}${err}")
endif()
# GLOB sorts its result, so the files reach the search in a fixed order.
file(GLOB series RELATIVE ${WORK_DIR} ${WORK_DIR}/*.csv)
list(LENGTH series count)
if(NOT count EQUAL 367)
  message(FATAL_ERROR "expected 367 .csv files, found ${count}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E env TSAD_THREADS=${THREADS}
                        ${TSAD_CLI} triviality ${series}
                WORKING_DIRECTORY ${WORK_DIR}
                RESULT_VARIABLE rc OUTPUT_FILE ${WORK_DIR}/triviality.txt
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "triviality exited ${rc}, want 2: ${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORK_DIR}/triviality.txt ${GOLDEN}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${WORK_DIR}/triviality.txt differs from the golden ${GOLDEN}")
endif()
