# Runs an example twice, each time in a fresh directory, and fails unless
# both runs exit 0 and every listed output file is byte-identical across
# the two runs. stdout.txt is the captured standard output.
#
#   cmake -DEXAMPLE=<binary> -DWORK_DIR=<dir> -DOUTPUTS=stdout.txt[,file...]
#         -P run_twice.cmake

string(REPLACE "," ";" outputs "${OUTPUTS}")
foreach(run 1 2)
  set(dir "${WORK_DIR}/run${run}")
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(COMMAND "${EXAMPLE}"
                  WORKING_DIRECTORY "${dir}"
                  OUTPUT_FILE "${dir}/stdout.txt"
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${EXAMPLE} (run ${run}) exited with ${status}")
  endif()
endforeach()

foreach(output ${outputs})
  foreach(run 1 2)
    if(NOT EXISTS "${WORK_DIR}/run${run}/${output}")
      message(FATAL_ERROR "run ${run} of ${EXAMPLE} wrote no ${output}")
    endif()
  endforeach()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${WORK_DIR}/run1/${output}"
                          "${WORK_DIR}/run2/${output}"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${output} differs between two runs of ${EXAMPLE}; "
                        "compare ${WORK_DIR}/run1 and ${WORK_DIR}/run2")
  endif()
endforeach()
