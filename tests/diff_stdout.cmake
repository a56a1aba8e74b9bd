# Runs PROGRAM with ARGS (one space-separated string), with the INPUT
# file on its standard input when one is given, and fails unless its
# standard output equals the GOLDEN file byte for byte.
#
#   cmake -DPROGRAM=<exe> "-DARGS=<args>" [-DINPUT=<file>] -DGOLDEN=<file>
#         -P diff_stdout.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
set(stdin_file)
if(DEFINED INPUT)
    set(stdin_file INPUT_FILE "${INPUT}")
endif()
execute_process(COMMAND "${PROGRAM}" ${args}
                ${stdin_file}
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
