# Runs PROGRAM with ARGS (one space-separated string) and fails unless
# its standard output equals the GOLDEN file byte for byte.
#
#   cmake -DPROGRAM=<exe> "-DARGS=<args>" -DGOLDEN=<file> -P diff_stdout.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} exited with ${rc}:\n${err}")
endif()
file(READ "${GOLDEN}" golden)
if(NOT out STREQUAL golden)
    message(FATAL_ERROR "stdout differs from ${GOLDEN}\n"
                        "--- got ---\n${out}--- expected ---\n${golden}")
endif()
