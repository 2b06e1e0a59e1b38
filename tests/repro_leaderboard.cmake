# Reproduction gate for the leaderboard: regenerates the default-seed
# `tsad leaderboard --out` JSON at THREADS worker threads and requires
# it to match the committed golden file byte for byte.
#
#   cmake -DTSAD_CLI=path/to/tsad -DTHREADS=4 -DGOLDEN=tests/golden/leaderboard.json
#         -DOUT=out.json -P repro_leaderboard.cmake
execute_process(COMMAND ${TSAD_CLI} leaderboard --threads ${THREADS}
                        --out ${OUT}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "leaderboard exited ${rc}: ${out}${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the golden ${GOLDEN}")
endif()
