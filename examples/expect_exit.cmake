# Runs ${EXAMPLE} with no arguments and requires exit code
# ${EXPECT_EXIT}.
execute_process(COMMAND ${EXAMPLE}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL EXPECT_EXIT)
  message(FATAL_ERROR "${EXAMPLE} exited ${rc}, want ${EXPECT_EXIT}:\n${out}${err}")
endif()
