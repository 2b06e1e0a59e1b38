# Reproduction gate for the benchmark audit and its Markdown report:
# writes the seed-42 simulated Yahoo archive into WORK_DIR, runs
# `tsad audit --report` over its 67 A1-Real*.csv files with THREADS
# worker threads, requires exit 2 (the archive is flawed) and compares
# both the stdout and the report byte for byte with the golden files.
#
#   cmake -DTSAD_CLI=path/to/tsad -DTHREADS=4 -DWORK_DIR=dir
#         -DGOLDEN=tests/golden/audit_a1.txt
#         -DGOLDEN_REPORT=tests/golden/audit_a1_report.md
#         -P repro_audit.cmake
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(COMMAND ${TSAD_CLI} generate yahoo --seed 42 --out ${WORK_DIR}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate yahoo exited ${rc}: ${out}${err}")
endif()
# GLOB sorts its result, so the files reach the audit in a fixed order.
file(GLOB series RELATIVE ${WORK_DIR} ${WORK_DIR}/A1-Real*.csv)
list(LENGTH series count)
if(NOT count EQUAL 67)
  message(FATAL_ERROR "expected 67 A1-Real*.csv files, found ${count}")
endif()
# Relative paths keep the `report written to` line the same everywhere.
execute_process(COMMAND ${CMAKE_COMMAND} -E env TSAD_THREADS=${THREADS}
                        ${TSAD_CLI} audit ${series}
                        --report audit_a1_report.md
                WORKING_DIRECTORY ${WORK_DIR}
                RESULT_VARIABLE rc OUTPUT_FILE ${WORK_DIR}/audit_a1.txt
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "audit exited ${rc}, want 2: ${err}")
endif()
foreach(pair "audit_a1.txt;${GOLDEN}" "audit_a1_report.md;${GOLDEN_REPORT}")
  list(GET pair 0 produced)
  list(GET pair 1 golden)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${WORK_DIR}/${produced} ${golden}
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${WORK_DIR}/${produced} differs from the golden ${golden}")
  endif()
endforeach()
