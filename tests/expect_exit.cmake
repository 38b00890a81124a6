# Run a command and require an exact exit status (CTest alone only knows
# zero / non-zero):
#
#   cmake -DEXPECT=<status> [-DKEEP=<file>] -P expect_exit.cmake --
#         <program> [args...]
#
# With KEEP, <file> is first filled with a sentinel, and the command must
# leave it byte for byte as it was.
set(cmd)
set(collect OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(collect)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(collect ON)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "expect_exit.cmake: no command after --")
endif()
set(sentinel "sentinel: a refused run must not touch this file\n")
if(KEEP)
  file(WRITE "${KEEP}" "${sentinel}")
endif()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc)
if(NOT "${rc}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR "`${cmd}` exited ${rc}, expected ${EXPECT}")
endif()
if(KEEP)
  file(READ "${KEEP}" after)
  if(NOT after STREQUAL sentinel)
    message(FATAL_ERROR "`${cmd}` changed ${KEEP}")
  endif()
endif()
