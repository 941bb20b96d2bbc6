# Runs the lce binary with the given arguments and passes only if it
# refuses them: exit status 2, the usage text on stderr, and nothing on
# stdout (no work started). Stdin is /dev/null, so a `serve` that wrongly
# accepts its arguments sees EOF at once and fails on its exit status
# instead of blocking.
#
#   cmake -DLCE=path/to/lce "-DARGS=align --workers abc" -P expect_usage.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${LCE}" ${args}
                INPUT_FILE /dev/null
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "lce ${ARGS}: exit status '${status}', expected 2\n${out}${err}")
endif()
if(NOT err MATCHES "usage: lce")
  message(FATAL_ERROR "lce ${ARGS}: no usage text on stderr\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "lce ${ARGS}: wrote to stdout before refusing\n${out}")
endif()
