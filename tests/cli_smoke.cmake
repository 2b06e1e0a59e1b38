# End-to-end CLI smoke:
# generate -> triviality -> detect -> audit+report -> serve replay
# -> leaderboard (JSON + flag rejection).
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(COMMAND ${TSAD_CLI} generate taxi --out ${WORK_DIR}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed: ${out}")
endif()
if(NOT EXISTS ${WORK_DIR}/nyc_taxi.csv)
  message(FATAL_ERROR "generate did not write nyc_taxi.csv")
endif()

execute_process(COMMAND ${TSAD_CLI} detect ${WORK_DIR}/nyc_taxi.csv
                        --detector zscore:w=96
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "detect failed: ${out}")
endif()
string(FIND "${out}" "peak" found)
if(found EQUAL -1)
  message(FATAL_ERROR "detect output missing peak: ${out}")
endif()

# A seasonal period of 2^63 points wraps to 0 when doubled; sesd must
# still see it as longer than the series and detrend only.
execute_process(COMMAND ${TSAD_CLI} detect ${WORK_DIR}/nyc_taxi.csv
                        --detector sesd:p=9223372036854775808
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "huge-period sesd detect exited ${rc}: ${out}${err}")
endif()

# A train_length header with a sign, trailing junk, overflow or more
# points than the file holds is refused (exit 1), not wrapped or cut.
set(rows "value,label\n1,0\n2,0\n3,0\n4,1\n5,0\n6,0\n7,0\n8,0\n")
foreach(header "-5" "100abc" "99999999999999999999" "9")
  file(WRITE ${WORK_DIR}/bad_train.csv
       "# name=bad train_length=${header}\n${rows}")
  execute_process(COMMAND ${TSAD_CLI} detect ${WORK_DIR}/bad_train.csv
                          --detector zscore:w=4
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "train_length=${header} detect exited ${rc}, want 1: ${out}${err}")
  endif()
  string(FIND "${out}${err}" "InvalidArgument" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "train_length=${header} detect missing InvalidArgument: ${out}${err}")
  endif()
endforeach()

# audit exits 2 on a flawed dataset by design; accept 0 or 2.
execute_process(COMMAND ${TSAD_CLI} audit ${WORK_DIR}/nyc_taxi.csv
                        --report ${WORK_DIR}/report.md
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT (rc EQUAL 0 OR rc EQUAL 2))
  message(FATAL_ERROR "audit failed with ${rc}: ${out}")
endif()
if(NOT EXISTS ${WORK_DIR}/report.md)
  message(FATAL_ERROR "audit did not write the report")
endif()

execute_process(COMMAND ${TSAD_CLI} triviality ${WORK_DIR}/nyc_taxi.csv
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT (rc EQUAL 0 OR rc EQUAL 2))
  message(FATAL_ERROR "triviality failed with ${rc}: ${out}")
endif()

# serve: replay the series through the sharded engine on several
# simulated streams and verify byte-identity against the batch path
# (serve exits 2 on a verification mismatch).
execute_process(COMMAND ${TSAD_CLI} serve --replay ${WORK_DIR}/nyc_taxi.csv
                        --streams 4 --detector zscore:w=96 --threads 4
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve failed with ${rc}: ${out}")
endif()
string(FIND "${out}" "byte-identical" found)
if(found EQUAL -1)
  message(FATAL_ERROR "serve output missing verification line: ${out}")
endif()

# serve a bounded-memory floss fleet (the spec's second component is
# the ring capacity): replay must still verify byte-identical, and the
# stats block must break memory out by detector type.
execute_process(COMMAND ${TSAD_CLI} serve --replay ${WORK_DIR}/nyc_taxi.csv
                        --streams 4 --detector floss:16:128 --threads 4
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "floss serve failed with ${rc}: ${out}")
endif()
string(FIND "${out}" "byte-identical" found)
if(found EQUAL -1)
  message(FATAL_ERROR "floss serve missing verification line: ${out}")
endif()
string(FIND "${out}" "floss" found)
if(found EQUAL -1)
  message(FATAL_ERROR "floss serve missing per-type memory line: ${out}")
endif()

# A memory budget of one byte cold-evicts every idle stream after each
# pump and thaws it on its next point, so this replay crosses the
# engine's evict/thaw path on every batch and must still verify.
execute_process(COMMAND ${TSAD_CLI} serve --replay ${WORK_DIR}/nyc_taxi.csv
                        --streams 4 --detector zscore:w=96 --mem-budget 1
                        --threads 4
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mem-budget zscore serve failed with ${rc}: ${out}")
endif()
string(FIND "${out}" "byte-identical" found)
if(found EQUAL -1)
  message(FATAL_ERROR "mem-budget zscore serve missing verification: ${out}")
endif()

# The largest --deadline-ms the CLI accepts is a budget past the end of
# the clock: it must saturate and never expire, not wrap into the past.
execute_process(COMMAND ${TSAD_CLI} serve --replay ${WORK_DIR}/nyc_taxi.csv
                        --streams 2 --detector zscore:w=96
                        --deadline-ms 9223372036854 --threads 2
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "huge-deadline serve exited ${rc}: ${out}${err}")
endif()
string(FIND "${out}" "byte-identical" found)
if(found EQUAL -1)
  message(FATAL_ERROR "huge-deadline serve missing verification: ${out}")
endif()

# 4 streams x 2^62 points per batch: the queue floor saturates instead
# of wrapping to 0, so the shed policy never sheds replay's own input.
execute_process(COMMAND ${TSAD_CLI} serve --replay ${WORK_DIR}/nyc_taxi.csv
                        --streams 4 --batch 4611686018427387904
                        --policy shed --detector zscore:w=96 --threads 2
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "huge-batch shed serve exited ${rc}: ${out}${err}")
endif()
string(FIND "${out}" "byte-identical" found)
if(found EQUAL -1)
  message(FATAL_ERROR "huge-batch shed serve missing verification: ${out}")
endif()

# A FLOSS buffer too large to reserve is refused when the spec is built
# (exit 1, naming the limit), not by std::bad_alloc.
execute_process(COMMAND ${TSAD_CLI} serve --replay ${WORK_DIR}/nyc_taxi.csv
                        --streams 2 --detector floss:16:1099511627776
                        --threads 2
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "huge-buffer floss serve exited ${rc}, want 1: ${out}${err}")
endif()
string(FIND "${out}${err}" "kMaxStreamingMpxBytes" found)
if(found EQUAL -1)
  message(FATAL_ERROR "huge-buffer floss serve missing limit: ${out}${err}")
endif()

# Window sizes of 2^62 points: serve must give the batch answer without
# sizing anything to the window up front. zscore scores all zeros
# (exit 0); streaming refuses the short series like batch Score (exit 1).
execute_process(COMMAND ${TSAD_CLI} serve --replay ${WORK_DIR}/nyc_taxi.csv
                        --streams 2 --detector zscore:w=4611686018427387904
                        --threads 2
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "huge-window zscore serve exited ${rc}: ${out}${err}")
endif()
string(FIND "${out}" "byte-identical" found)
if(found EQUAL -1)
  message(FATAL_ERROR "huge-window zscore serve missing verification: ${out}")
endif()
execute_process(COMMAND ${TSAD_CLI} serve --replay ${WORK_DIR}/nyc_taxi.csv
                        --streams 2 --detector streaming:m=4611686018427387904
                        --threads 2
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
          "huge-window streaming serve exited ${rc}, want 1: ${out}${err}")
endif()
string(FIND "${out}${err}" "series too short" found)
if(found EQUAL -1)
  message(FATAL_ERROR "huge-window streaming serve missing error: ${out}${err}")
endif()

# Serve each reference-statistics detector and the one-liner through
# the engine. NASA channel G-1 carries a 1500-point training prefix,
# which cusum, ewma and pagehinkley need to run online.
execute_process(COMMAND ${TSAD_CLI} generate nasa --out ${WORK_DIR}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate nasa failed: ${out}")
endif()
# FLOSS through evict/thaw: every idle stream goes cold after each pump.
execute_process(COMMAND ${TSAD_CLI} serve --replay ${WORK_DIR}/G-1.csv
                        --streams 4 --detector floss:16:128 --mem-budget 1
                        --threads 4
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mem-budget floss serve failed with ${rc}: ${out}")
endif()
string(FIND "${out}" "byte-identical" found)
if(found EQUAL -1)
  message(FATAL_ERROR "mem-budget floss serve missing verification: ${out}")
endif()

foreach(spec cusum ewma pagehinkley oneliner:u=1,k=7,c=2)
  execute_process(COMMAND ${TSAD_CLI} serve --replay ${WORK_DIR}/G-1.csv
                          --streams 4 --detector ${spec} --threads 4
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${spec} serve failed with ${rc}: ${out}")
  endif()
  string(FIND "${out}" "byte-identical" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "${spec} serve missing verification line: ${out}")
  endif()
endforeach()

# panprofile: dense range goes through MerlinSweep's bound-and-refine
# search; must print the per-length table and the peak line.
execute_process(COMMAND ${TSAD_CLI} panprofile ${WORK_DIR}/nyc_taxi.csv
                        --min-length 48 --max-length 64
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "panprofile failed with ${rc}: ${out}")
endif()
string(FIND "${out}" "normalized" found)
if(found EQUAL -1)
  message(FATAL_ERROR "panprofile output missing table header: ${out}")
endif()
string(FIND "${out}" "peak   : length" found)
if(found EQUAL -1)
  message(FATAL_ERROR "panprofile output missing peak line: ${out}")
endif()

# panprofile strided grid: one self-join plus TopDiscords per grid
# length (MerlinSweepPerLength) instead of the search; same output
# contract.
execute_process(COMMAND ${TSAD_CLI} panprofile ${WORK_DIR}/nyc_taxi.csv
                        --min-length 32 --max-length 64 --step 8
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "strided panprofile failed with ${rc}: ${out}")
endif()
string(FIND "${out}" "peak   : length" found)
if(found EQUAL -1)
  message(FATAL_ERROR "strided panprofile missing peak line: ${out}")
endif()

# Unknown panprofile flags must be rejected, not silently treated as
# positional inputs.
execute_process(COMMAND ${TSAD_CLI} panprofile ${WORK_DIR}/nyc_taxi.csv
                        --min-len 48
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(rc EQUAL 0)
  message(FATAL_ERROR "panprofile accepted an unknown flag: ${out}")
endif()
string(FIND "${out}" "unknown flag '--min-len'" found)
if(found EQUAL -1)
  message(FATAL_ERROR "panprofile rejection missing flag name: ${out}")
endif()

# Numeric flags take decimal digits only, up to what their setting can
# hold: a sign, trailing junk, overflow, kMaxParallelThreads + 1 or a
# retry count beyond int each exit 1 before any work starts.
foreach(bad "table1;--threads;-1" "table1;--threads;4x"
            "table1;--threads;1025" "table1;--threads;18446744073709551616"
            "table1;--seed;-7"
            "serve;--replay;${WORK_DIR}/nyc_taxi.csv;--streams;-1"
            "serve;--replay;${WORK_DIR}/nyc_taxi.csv;--recover;4294967296"
            "leaderboard;--smoke;--max-series;1e3")
  execute_process(COMMAND ${TSAD_CLI} ${bad}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "'${bad}' exited ${rc}, want 1: ${out}${err}")
  endif()
  string(FIND "${out}" "InvalidArgument" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "'${bad}' missing InvalidArgument: ${out}${err}")
  endif()
endforeach()

# leaderboard: the CI-sized board must emit the JSON report with the
# rank-inversion section.
execute_process(COMMAND ${TSAD_CLI} leaderboard --smoke
                        --out ${WORK_DIR}/leaderboard.json --threads 2
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "leaderboard failed with ${rc}: ${out}")
endif()
if(NOT EXISTS ${WORK_DIR}/leaderboard.json)
  message(FATAL_ERROR "leaderboard did not write the JSON report")
endif()
file(READ ${WORK_DIR}/leaderboard.json lb_json)
string(FIND "${lb_json}" "rank_inversions" found)
if(found EQUAL -1)
  message(FATAL_ERROR "leaderboard JSON missing rank_inversions: ${lb_json}")
endif()

# Unknown metric names must be rejected with a suggestion, not run.
execute_process(COMMAND ${TSAD_CLI} leaderboard --smoke
                        --metrics affilation_f1
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(rc EQUAL 0)
  message(FATAL_ERROR "leaderboard accepted an unknown metric: ${out}")
endif()
string(FIND "${out}" "did you mean 'affiliation_f1'" found)
if(found EQUAL -1)
  message(FATAL_ERROR "leaderboard rejection missing suggestion: ${out}")
endif()
file(REMOVE_RECURSE ${WORK_DIR})
