# ctest script: runs dflp_cli with one malformed numeric argument, or with a
# flag its subcommand does not apply, and passes only when the CLI exits 2
# and its stderr carries the expected message, which names the offending
# argument (and its text or the subcommand).
#
#   cmake -DCLI=<dflp_cli> -DWORK=<dir> -DNAME=<test> -DARGS="<args>"
#         -DEXPECT="<message>" [-DRUN=<tool>] -P cli_rejects_arg.cmake
#
# With RUN, the same check applies to another tool (trace_report,
# dflp_bench); CLI still generates the inputs.
#
# The token `u40.ufl` in ARGS is replaced by a freshly generated 40-client
# uniform instance (`generate uniform 40 1`), and `m8.ufl` by a metric one
# (`generate metric 8 1`, the input clique-fl needs), each private to this
# test, so a CLI that misreads the number or ignores the flag would go on
# to solve a real input and exit 0.
file(MAKE_DIRECTORY "${WORK}")
separate_arguments(argv UNIX_COMMAND "${ARGS}")
foreach(input "u40;uniform;40" "m8;metric;8")
  list(GET input 0 token)
  list(GET input 1 family)
  list(GET input 2 size)
  set(instance "${WORK}/${NAME}.${token}.ufl")
  execute_process(COMMAND "${CLI}" generate ${family} ${size} 1
                  OUTPUT_FILE "${instance}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dflp_cli generate ${family} failed: ${rc}")
  endif()
  list(TRANSFORM argv REPLACE "^${token}\\.ufl$" "${instance}")
endforeach()
if(NOT RUN)
  set(RUN "${CLI}")
endif()
execute_process(COMMAND "${RUN}" ${argv} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${RUN} ${ARGS}: expected exit 2, got ${rc}\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "${RUN} ${ARGS}: stderr lacks '${EXPECT}':\n${err}")
endif()
