# Replays a committed repro in an empty directory: the replay must report
# the mismatch (the repro carries an injected reference bug, so mcm_fuzz
# exits 1) and leave no file behind.
#
#   cmake -DFUZZ=<mcm_fuzz> -DREPRO=<repro.json> -DWORK=<work dir> -P replay_writes_nothing.cmake
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
execute_process(
  COMMAND "${FUZZ}" --replay "${REPRO}"
  WORKING_DIRECTORY "${WORK}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "expected exit status 1 (mismatch), got ${status}\n${out}${err}")
endif()
file(GLOB left "${WORK}/*")
if(left)
  message(FATAL_ERROR "replay left files behind: ${left}")
endif()
file(REMOVE_RECURSE "${WORK}")
