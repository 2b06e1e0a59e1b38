# Reproduction gate for `tsad panprofile`: writes the seed-42 simulated
# taxi series into WORK_DIR, runs panprofile over it with THREADS worker
# threads on a strided grid (--min-length 32 --max-length 96 --step 8)
# and on a dense range (--min-length 48 --max-length 64), and compares
# the two stdouts, concatenated in that order, byte for byte with GOLDEN.
#
#   cmake -DTSAD_CLI=path/to/tsad -DTHREADS=4 -DWORK_DIR=dir
#         -DGOLDEN=tests/golden/panprofile_taxi.txt
#         -P repro_panprofile.cmake
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(COMMAND ${TSAD_CLI} generate taxi --seed 42 --out ${WORK_DIR}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate taxi exited ${rc}: ${out}${err}")
endif()
file(WRITE ${WORK_DIR}/panprofile.txt "")
foreach(range "--min-length;32;--max-length;96;--step;8"
              "--min-length;48;--max-length;64")
  # A relative path keeps the series line the same everywhere.
  execute_process(COMMAND ${CMAKE_COMMAND} -E env TSAD_THREADS=${THREADS}
                          ${TSAD_CLI} panprofile nyc_taxi.csv ${range}
                  WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "panprofile ${range} exited ${rc}: ${out}${err}")
  endif()
  file(APPEND ${WORK_DIR}/panprofile.txt "${out}")
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORK_DIR}/panprofile.txt ${GOLDEN}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${WORK_DIR}/panprofile.txt differs from the golden ${GOLDEN}")
endif()
