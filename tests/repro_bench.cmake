# Reproduction gate for a paper or ablation bench: runs BENCH with
# THREADS worker threads (through TSAD_THREADS, which every bench
# reads) and requires its stdout to match the committed golden file
# byte for byte.
#
#   cmake -DBENCH=path/to/bench_x -DTHREADS=4 -DGOLDEN=tests/golden/bench_x.txt
#         -DOUT=out.txt -P repro_bench.cmake
execute_process(COMMAND ${CMAKE_COMMAND} -E env TSAD_THREADS=${THREADS}
                        ${BENCH}
                RESULT_VARIABLE rc OUTPUT_FILE ${OUT} ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited ${rc}: ${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the golden ${GOLDEN}")
endif()
