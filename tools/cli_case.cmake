# ctest script: runs one command of a shipped binary and checks its exit
# code and one output stream.
#
#   cmake -DCLI=<dflp_cli> -DWORK=<dir> -DNAME=<test> -DARGS="<args>"
#         -DEXPECT="<text>" [-DRUN=<tool>] [-DEXIT=<code>]
#         [-DSTREAM=stdout|stderr] [-DSTDIN=<file>] [-DSETUP="<args>"]
#         [-DGOLDEN=<file>] [-DJSON=<file>] -P cli_case.cmake
#
# The test passes when RUN (dflp_cli unless given) exits EXIT (default 2)
# and its STREAM (default stderr) holds EXPECT, which for a rejected
# argument names the argument and its text or the subcommand. With GOLDEN,
# the stream must instead equal that file byte for byte. With JSON, the
# command must also have written that file in the work directory as a JSON
# document with a non-empty `traceEvents` array (a Chrome trace export).
#
# The command runs in WORK/NAME, a directory private to the test, so files
# a tool writes there (a trace, an example's output) stay apart. It holds
# two freshly generated inputs: u40.ufl (`generate uniform 40 1`) and m8.ufl
# (`generate metric 8 1`, the input clique-fl needs), so a CLI that misreads
# a number or ignores a flag goes on to solve a real input and exits 0.
# SETUP, when given, is a dflp_cli command run there first, which must exit
# 0 (e.g. a traced solve whose trace the test then reads). STDIN names a
# file there that is fed to the command's standard input.
set(dir "${WORK}/${NAME}")
file(REMOVE_RECURSE "${dir}")
file(MAKE_DIRECTORY "${dir}")
foreach(input "u40;uniform;40" "m8;metric;8")
  list(GET input 0 token)
  list(GET input 1 family)
  list(GET input 2 size)
  execute_process(COMMAND "${CLI}" generate ${family} ${size} 1
                  OUTPUT_FILE "${dir}/${token}.ufl" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dflp_cli generate ${family} failed: ${rc}")
  endif()
endforeach()
if(SETUP)
  separate_arguments(setup UNIX_COMMAND "${SETUP}")
  execute_process(COMMAND "${CLI}" ${setup} WORKING_DIRECTORY "${dir}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dflp_cli ${SETUP}: exit ${rc}\n${err}")
  endif()
endif()
if(NOT RUN)
  set(RUN "${CLI}")
endif()
if(NOT DEFINED EXIT)
  set(EXIT 2)
endif()
set(stdin)
if(STDIN)
  set(stdin INPUT_FILE "${dir}/${STDIN}")
endif()
separate_arguments(argv UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${RUN}" ${argv} WORKING_DIRECTORY "${dir}" ${stdin}
                RESULT_VARIABLE rc OUTPUT_VARIABLE stdout
                ERROR_VARIABLE stderr)
if(NOT STREAM)
  set(STREAM stderr)
endif()
set(text "${${STREAM}}")
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR "${RUN} ${ARGS}: expected exit ${EXIT}, got ${rc}\n"
                      "${stderr}")
endif()
if(GOLDEN)
  file(READ "${GOLDEN}" golden)
  if(NOT text STREQUAL golden)
    file(WRITE "${dir}/${STREAM}.txt" "${text}")
    message(FATAL_ERROR "${RUN} ${ARGS}: ${STREAM} differs from ${GOLDEN}; "
                        "it is in ${dir}/${STREAM}.txt")
  endif()
else()
  string(FIND "${text}" "${EXPECT}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "${RUN} ${ARGS}: ${STREAM} lacks '${EXPECT}':\n"
                        "${text}")
  endif()
endif()
if(JSON)
  file(READ "${dir}/${JSON}" doc)
  string(JSON events ERROR_VARIABLE err LENGTH "${doc}" traceEvents)
  if(err)
    message(FATAL_ERROR "${RUN} ${ARGS}: ${JSON} is not a JSON document "
                        "with a traceEvents array: ${err}")
  endif()
  if(events EQUAL 0)
    message(FATAL_ERROR "${RUN} ${ARGS}: ${JSON} has no traceEvents")
  endif()
endif()
