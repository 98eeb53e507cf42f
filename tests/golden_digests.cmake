# Cross-commit bit-identity pin for the merged digests.
#
# Reruns one acute_fabric demo sweep in local mode and compares its
# --digest-out dump byte for byte with a committed golden file. The dump
# holds every merged digest as IEEE-754 bit patterns, so any change to the
# fold's arithmetic, association or order fails here, even when all modes
# still agree with each other.
#
#   cmake -DFABRIC=<acute_fabric> -DSHARDS=N -DPROBES=N -DGOLDEN=<file>
#         -DOUT=<scratch file> -P golden_digests.cmake
#
# Regenerate a golden only for an intended change of the merged bits:
#   acute_fabric local --shards N --probes N --digest-out <golden>
foreach(var FABRIC SHARDS PROBES GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_digests.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(
  COMMAND ${FABRIC} local --shards ${SHARDS} --probes ${PROBES}
          --digest-out ${OUT}
  RESULT_VARIABLE run_status)
if(NOT run_status EQUAL 0)
  message(FATAL_ERROR "acute_fabric local failed: ${run_status}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE diff_status)
if(NOT diff_status EQUAL 0)
  message(FATAL_ERROR
          "merged digests differ from ${GOLDEN} (see ${OUT}): the fold's "
          "bits changed")
endif()
