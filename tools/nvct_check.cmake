# Checks for the nvct fixture table (tools/CMakeLists.txt), run with cmake -P.
#
# Expect mode: run a command and demand both its exit status and a line of
# its output, and with REJECT, that no part of its output matches <reject>.
# (ctest's PASS_REGULAR_EXPRESSION alone ignores the exit status, so an nvct
# that aborted after printing the text would pass.)
#
#   cmake -DSTATUS=<n> -DEXPECT=<regex> [-DREJECT=<reject>]
#         -P nvct_check.cmake -- <command>...
#
# Same mode: byte-compare two artifacts. A side given a journal is a report
# rendered first with `nvct report` from that run's journal (plus its
# metrics snapshot and trace, when the run wrote them).
#
#   cmake -DA=<file> -DB=<file> [-DNVCT=<nvct>]
#         [-D{A,B}_JOURNAL=<file> [-D{A,B}_METRICS=<file>] [-D{A,B}_TRACE=<file>]]
#         -P nvct_check.cmake

cmake_minimum_required(VERSION 3.16)

if(DEFINED A)
  foreach(side A B)
    if(NOT DEFINED ${side}_JOURNAL)
      continue()
    endif()
    set(inputs --journal ${${side}_JOURNAL})
    if(DEFINED ${side}_METRICS)
      list(APPEND inputs --metrics ${${side}_METRICS})
    endif()
    if(DEFINED ${side}_TRACE)
      list(APPEND inputs --trace ${${side}_TRACE})
    endif()
    execute_process(COMMAND ${NVCT} report ${inputs} --out ${${side}}
                    RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR "nvct report ${inputs} exited ${status}")
    endif()
  endforeach()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${A} ${B}
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${A} and ${B} differ")
  endif()
  return()
endif()

set(command)
set(collect OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(collect)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(collect ON)
  endif()
endforeach()

execute_process(COMMAND ${command} RESULT_VARIABLE status
                OUTPUT_VARIABLE output ERROR_VARIABLE output)
message("${output}")
if(NOT "${status}" STREQUAL "${STATUS}")
  message(FATAL_ERROR "exit status ${status}, expected ${STATUS}")
endif()
if(NOT output MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match \"${EXPECT}\"")
endif()
if(DEFINED REJECT AND output MATCHES "${REJECT}")
  message(FATAL_ERROR "output matches \"${REJECT}\": \"${CMAKE_MATCH_0}\"")
endif()
